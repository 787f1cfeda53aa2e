//! `online_store`: `nproc` client threads drive one `SessionStore` in a
//! closed loop — create, then poll `decision` before every `observe`,
//! then `finish` — with warm-start keys drawn from a skewed distribution
//! over more keys than the warm LRU holds.

use super::common::*;
use al_benchmark::stats;
use al_benchmark::trace::{Recorder, Span};
use al_core::{
    step, AlOptions, Decision, Observation, SessionConfig, SessionError, SessionState,
    SessionStore, StopReason, StrategyKind, Trajectory, WarmKey,
};
use al_dataset::Dataset;
use al_gp::GpModel;
use al_units::LogMegabytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

const N_INIT: usize = 10;
/// Below `optimize_every`, so no session reaches a re-optimization.
const ITERATIONS: usize = 9;
const SHARDS: usize = 8;
const WARM_CAPACITY: usize = 8;
/// Warm keys, twice the LRU capacity; key `k` is drawn with weight 1/(k+1).
const KEYS: usize = 16;
/// Set-up repetitions before and again after the timed phase.
const SETUP_REPS: usize = 8;
/// Seconds between set-up repetitions inside the timed phase (client 0,
/// between sessions).
const SETUP_EVERY_S: f64 = 0.5;
/// The first sessions of each client open without a warm key, so they are
/// certainly cold, and are re-run without the store to check determinism.
const VERIFY_PER_CLIENT: u64 = 4;
/// Sessions per client replayed by one client for the contention ratio.
const CONTENTION_PER_CLIENT: usize = 100;
/// Finished sessions whose final fit and pool prediction are replayed.
const GP_REPLAYS: usize = 50;

struct Prepared {
    ds: Dataset,
    lmem: LogMegabytes,
    store: SessionStore,
    key_cdf: Vec<f64>,
}

fn prepare() -> Result<Prepared, String> {
    let ds = load_dataset()?;
    let lmem = ds.memory_limit_log_percentile(0.90);
    let store = SessionStore::with_warm_capacity(SHARDS, WARM_CAPACITY);
    let weights: Vec<f64> = (0..KEYS).map(|k| 1.0 / (k as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let key_cdf = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    Ok(Prepared {
        ds,
        lmem,
        store,
        key_cdf,
    })
}

/// One session's inputs, drawn from its client's seeded stream.
#[derive(Clone)]
struct Spec {
    id: u64,
    key: Option<WarmKey>,
    init: Vec<usize>,
    seed: u64,
}

impl Spec {
    /// The candidate pool: every row not in the initial set.
    fn pool(&self, rows: usize) -> Vec<usize> {
        (0..rows).filter(|i| !self.init.contains(i)).collect()
    }
}

struct Client {
    rng: StdRng,
    index: usize,
    clients: usize,
    next: u64,
}

impl Client {
    fn new(seed: u64, index: usize, clients: usize) -> Self {
        Client {
            rng: StdRng::seed_from_u64(seed ^ (0x5bd1_e995 * (index as u64 + 1))),
            index,
            clients,
            next: 0,
        }
    }

    fn next_spec(&mut self, p: &Prepared) -> Spec {
        let id = self.next * self.clients as u64 + self.index as u64;
        let keyed = self.next >= VERIFY_PER_CLIENT;
        self.next += 1;
        let u: f64 = self.rng.random();
        let k = p.key_cdf.iter().position(|&c| u < c).unwrap_or(KEYS - 1);
        let mut init = BTreeSet::new();
        while init.len() < N_INIT {
            init.insert(self.rng.random_range(0..p.ds.len()));
        }
        Spec {
            id,
            key: keyed.then(|| WarmKey::new(format!("sweep-{k}"), "RBF")),
            init: init.into_iter().collect(),
            seed: self.rng.random(),
        }
    }
}

fn config(p: &Prepared, spec: &Spec) -> SessionConfig {
    let pool = spec.pool(p.ds.len());
    SessionConfig {
        kind: StrategyKind::Rgma { base: 10.0 },
        opts: AlOptions {
            mem_limit_log: Some(p.lmem),
            max_iterations: Some(ITERATIONS),
            seed: spec.seed,
            ..AlOptions::default()
        },
        init_features: p.ds.features_scaled(&spec.init),
        init_log_cost: p.ds.log_cost(&spec.init),
        init_log_mem: p.ds.log_memory(&spec.init),
        candidate_features: p.ds.features_scaled(&pool),
        candidate_ids: pool,
        eval: None,
    }
}

/// What one session did, as seen by its client.
struct Session {
    spec: Spec,
    warm: bool,
    create_ms: f64,
    observe_ms: Vec<f64>,
    decision_ns: Vec<f64>,
    finish_ms: f64,
    trajectory: Option<Trajectory>,
}

/// A client's measurements. Sessions are checked as they finish and only
/// the few later replays need are kept, so memory does not grow with the
/// number of sessions a run completes.
#[derive(Default)]
struct ClientResult {
    observe_ms: Vec<f64>,
    decision_ns: Vec<f64>,
    create_cold_ms: Vec<f64>,
    create_warm_ms: Vec<f64>,
    finish_ms: Vec<f64>,
    regret_nh: Vec<f64>,
    errors: BTreeMap<&'static str, u64>,
    checks: Checks,
    /// The sessions opened without a warm key, for the determinism check.
    verify: Vec<(Spec, Trajectory)>,
    /// First sessions, for the contention replay.
    contention: Vec<(Spec, Vec<f64>)>,
    /// First finished sessions, for the gp replay.
    gp: Vec<(Spec, Vec<usize>)>,
    spans: Vec<Span>,
}

impl ClientResult {
    fn absorb(&mut self, p: &Prepared, s: Session) {
        self.observe_ms.extend(&s.observe_ms);
        self.decision_ns.extend(&s.decision_ns);
        if s.warm {
            self.create_warm_ms.push(s.create_ms);
        } else {
            self.create_cold_ms.push(s.create_ms);
        }
        self.finish_ms.push(s.finish_ms);
        if self.contention.len() < CONTENTION_PER_CLIENT {
            self.contention.push((s.spec.clone(), s.observe_ms.clone()));
        }
        let Some(t) = s.trajectory else { return };
        self.regret_nh.push(t.total_regret().value());
        let pool: BTreeSet<usize> = s.spec.pool(p.ds.len()).into_iter().collect();
        check_trajectory(
            &mut self.checks,
            &p.ds,
            &t,
            &TrajectorySpec {
                pool: &pool,
                stops: &[StopReason::MaxIterations, StopReason::AllCandidatesRefused],
                rmse_expected: false,
                max_len: ITERATIONS,
            },
        );
        if self.gp.len() < GP_REPLAYS {
            let picks = t.records.iter().map(|r| r.dataset_index).collect();
            self.gp.push((s.spec.clone(), picks));
        }
        if s.spec.key.is_none() {
            self.verify.push((s.spec, t));
        }
    }
}

fn error_kind(e: &SessionError) -> &'static str {
    match e {
        SessionError::Gp(_) => "store.errors.gp",
        SessionError::UnknownSession(_) => "store.errors.unknown_session",
        SessionError::DuplicateSession(_) => "store.errors.duplicate_session",
        SessionError::ObservationMismatch { .. } => "store.errors.observation_mismatch",
    }
}

/// Run one session through the store, counting store errors by variant.
fn session(
    p: &Prepared,
    store: &SessionStore,
    spec: Spec,
    rec: &mut Recorder,
    errors: &mut BTreeMap<&'static str, u64>,
) -> Session {
    let root = rec.enter("client.session", None, spec.id);
    let warm = spec
        .key
        .as_ref()
        .is_some_and(|key| stats::is_warm_hit(&store.warm_keys(), key));
    let cfg = config(p, &spec);
    let mut s = Session {
        spec,
        warm,
        create_ms: 0.0,
        observe_ms: Vec::with_capacity(ITERATIONS),
        decision_ns: Vec::with_capacity(ITERATIONS + 1),
        finish_ms: 0.0,
        trajectory: None,
    };
    let id = s.spec.id;
    let t0 = Instant::now();
    let created = store.create(id, cfg, s.spec.key.clone());
    let t1 = Instant::now();
    rec.record("store.create", root, id, t0, t1);
    s.create_ms = ms(t1 - t0);
    if let Err(e) = created {
        *errors.entry(error_kind(&e)).or_insert(0) += 1;
        rec.exit(root);
        return s;
    }
    loop {
        let t0 = Instant::now();
        let decision = store.decision(id);
        let t1 = Instant::now();
        rec.record("store.decision", root, id, t0, t1);
        s.decision_ns.push((t1 - t0).as_nanos() as f64);
        let q = match decision {
            Ok(Decision::Query(q)) => q,
            Ok(Decision::Stop(_)) => break,
            Err(e) => {
                *errors.entry(error_kind(&e)).or_insert(0) += 1;
                break;
            }
        };
        let obs = Observation::from_dataset(&p.ds, q.dataset_index);
        let t0 = Instant::now();
        let observed = store.observe(id, &obs);
        let t1 = Instant::now();
        rec.record("store.observe", root, id, t0, t1);
        s.observe_ms.push(ms(t1 - t0));
        if let Err(e) = observed {
            *errors.entry(error_kind(&e)).or_insert(0) += 1;
            break;
        }
    }
    let t0 = Instant::now();
    let finished = store.finish(id);
    let t1 = Instant::now();
    rec.record("store.finish", root, id, t0, t1);
    s.finish_ms = ms(t1 - t0);
    match finished {
        Ok(t) => s.trajectory = Some(t),
        Err(e) => *errors.entry(error_kind(&e)).or_insert(0) += 1,
    }
    rec.exit(root);
    s
}

struct Driven {
    phase: Phase,
    clients: Vec<ClientResult>,
}

fn drive(
    ctx: &Ctx,
    p: &Prepared,
    store: &SessionStore,
    traced: bool,
    mut clock: Option<&mut SetupClock<Prepared>>,
) -> Result<Driven, String> {
    let barrier = std::sync::Barrier::new(ctx.threads + 1);
    let mut clients = Vec::new();
    let mut wall_s = 0.0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|c| {
                let barrier = &barrier;
                let mut clock = if c == 0 { clock.take() } else { None };
                scope.spawn(move || {
                    let mut client = Client::new(ctx.seed, c, ctx.threads);
                    let mut rec = ctx.recorder(traced);
                    let mut out = ClientResult::default();
                    barrier.wait();
                    let end = deadline(Instant::now(), ctx.seconds);
                    while Instant::now() < end {
                        if let Some(clock) = clock.as_mut() {
                            clock.tick()?;
                        }
                        let spec = client.next_spec(p);
                        let s = session(p, store, spec, &mut rec, &mut out.errors);
                        out.absorb(p, s);
                    }
                    out.spans = rec.into_spans();
                    Ok::<_, String>(out)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            match h.join() {
                Ok(r) => clients.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        wall_s = start.elapsed().as_secs_f64();
    });
    let clients = clients.into_iter().collect::<Result<Vec<_>, String>>()?;
    let mut phase = Phase {
        wall_s,
        ..Phase::default()
    };
    for c in &clients {
        phase.ops += c.observe_ms.len() as u64;
        phase.op_ms.extend(&c.observe_ms);
    }
    Ok(Driven { phase, clients })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut clock = SetupClock::new(SETUP_EVERY_S, prepare);
    let p = clock.burst(SETUP_REPS)?;
    let mut out = Outcome::default();
    let mut driven = drive(ctx, &p, &p.store, false, Some(&mut clock))?;
    check_run(&mut out.checks, &p, &p.store, &mut driven)?;
    let regret: Vec<f64> = driven
        .clients
        .iter()
        .flat_map(|c| c.regret_nh.clone())
        .collect();
    out.layer.insert(
        "quality.regret_nh",
        stats::ratio(regret.iter().sum(), regret.len() as f64),
    );
    out.phase = driven.phase;
    drop(clock.burst(SETUP_REPS)?);
    out.setup_s = clock.setup_s();

    if ctx.trace {
        // A fresh store, so the traced phase starts as cold as the untraced one.
        let store = SessionStore::with_warm_capacity(SHARDS, WARM_CAPACITY);
        let mut traced = drive(ctx, &p, &store, true, None)?;
        check_run(&mut out.checks, &p, &store, &mut traced)?;
        store_metrics(&traced, &mut out.layer);
        let ratio = contention_ratio(ctx, &p, &traced);
        out.layer.insert("store.contention_ratio", ratio);
        let mut rec = ctx.recorder(true);
        gp_replay(&p, &traced, &mut rec, &mut out.layer)?;
        out.traced = Some(traced.phase);
        for c in traced.clients {
            out.spans.push(c.spans);
        }
        out.spans.push(rec.into_spans());
    }
    Ok(out)
}

fn store_metrics(d: &Driven, layer: &mut BTreeMap<&'static str, f64>) {
    let all = |f: fn(&ClientResult) -> &Vec<f64>| -> Vec<f64> {
        d.clients
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect()
    };
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let cold = all(|c| &c.create_cold_ms);
    let warm = all(|c| &c.create_warm_ms);
    let observe = all(|c| &c.observe_ms);
    let decision = all(|c| &c.decision_ns);
    layer.insert("store.create_cold.count", cold.len() as f64);
    layer.insert("store.create_warm.count", warm.len() as f64);
    layer.insert(
        "store.warm_hit_ratio",
        stats::ratio(warm.len() as f64, (warm.len() + cold.len()) as f64),
    );
    layer.insert("store.create_cold.p50_ms", med(&cold));
    layer.insert("store.create_warm.p50_ms", med(&warm));
    layer.insert("store.observe.count", observe.len() as f64);
    layer.insert("store.observe.p50_ms", med(&observe));
    layer.insert("store.decision.count", decision.len() as f64);
    layer.insert("store.decision.p50_ns", med(&decision));
    layer.insert("store.finish.p50_ms", med(&all(|c| &c.finish_ms)));
    let mut total = 0;
    for c in &d.clients {
        for (&kind, &n) in &c.errors {
            *layer.entry(kind).or_insert(0.0) += n as f64;
            total += n;
        }
    }
    layer.insert("store.errors", total as f64);
}

/// The clients' structural checks, errors as failures, an empty store
/// afterwards, and the determinism check: the sessions opened without a
/// warm key, re-run without the store, give the same records bit for bit.
fn check_run(
    checks: &mut Checks,
    p: &Prepared,
    store: &SessionStore,
    d: &mut Driven,
) -> Result<(), String> {
    for c in &mut d.clients {
        let client_checks = std::mem::take(&mut c.checks);
        checks.passed += client_checks.passed;
        checks.failed += client_checks.failed + c.errors.values().sum::<u64>();
        checks.messages.extend(client_checks.messages);
        for (spec, stored) in &c.verify {
            let (mut state, mut decision) =
                SessionState::start(config(p, spec)).map_err(|e| e.to_string())?;
            while let Decision::Query(q) = decision {
                let obs = Observation::from_dataset(&p.ds, q.dataset_index);
                (state, decision) = step(state, &obs).map_err(|e| e.to_string())?;
            }
            let replayed = state.into_trajectory();
            checks.check(record_bits(stored) == record_bits(&replayed), || {
                format!(
                    "session {} differs from its re-run without the store",
                    spec.id
                )
            });
        }
    }
    checks.check(store.is_empty(), || {
        format!("{} sessions left in the store", store.len())
    });
    Ok(())
}

/// Observe p50 of the first sessions of every client over the observe p50
/// of the same sessions replayed by one client on a fresh store.
fn contention_ratio(ctx: &Ctx, p: &Prepared, d: &Driven) -> f64 {
    let sessions: Vec<&(Spec, Vec<f64>)> = d.clients.iter().flat_map(|c| &c.contention).collect();
    let concurrent: Vec<f64> = sessions
        .iter()
        .flat_map(|(_, o)| o.iter().copied())
        .collect();
    let store = SessionStore::with_warm_capacity(SHARDS, WARM_CAPACITY);
    let mut rec = ctx.recorder(false);
    let mut errors = BTreeMap::new();
    let mut single = Vec::new();
    for (spec, _) in sessions {
        let replayed = session(p, &store, spec.clone(), &mut rec, &mut errors);
        single.extend(replayed.observe_ms);
    }
    stats::ratio(
        stats::median(&concurrent).unwrap_or(0.0),
        stats::median(&single).unwrap_or(0.0),
    )
}

/// Replay the final fit and the pool prediction of finished sessions at
/// their final n (default hyperparameters: the cost of both calls does not
/// depend on their values).
fn gp_replay(
    p: &Prepared,
    d: &Driven,
    rec: &mut Recorder,
    layer: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let opts = AlOptions::default();
    let mut fit_ms = Vec::new();
    let mut predict_ms = Vec::new();
    let mut rows = Vec::new();
    for (k, (spec, picks)) in d.clients.iter().flat_map(|c| &c.gp).enumerate() {
        let train: Vec<usize> = spec.init.iter().chain(picks).copied().collect();
        let pool: Vec<usize> = spec
            .pool(p.ds.len())
            .into_iter()
            .filter(|i| !picks.contains(i))
            .collect();
        let x = p.ds.features_scaled(&train);
        let y = p.ds.log_cost(&train);
        let pool_x = p.ds.features_scaled(&pool);
        let root = rec.enter("replay.session", None, k as u64);
        let mut gp = GpModel::new(
            opts.kernel.build(opts.init_length_scale),
            opts.noise_variance,
        );
        let t0 = Instant::now();
        gp.fit(&x, &y).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let pred = gp.predict(&pool_x).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        std::hint::black_box(pred);
        rec.record("gp.fit", root, k as u64, t0, t1);
        rec.record("gp.predict", root, k as u64, t1, t2);
        rec.exit(root);
        fit_ms.push(ms(t1 - t0));
        predict_ms.push(ms(t2 - t1));
        rows.push(pool.len() as f64);
    }
    layer.insert("gp.fit.ms", stats::median(&fit_ms).unwrap_or(0.0));
    layer.insert("gp.predict.ms", stats::median(&predict_ms).unwrap_or(0.0));
    layer.insert("gp.predict.rows", stats::median(&rows).unwrap_or(0.0));
    Ok(())
}
