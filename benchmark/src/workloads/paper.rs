//! `paper_trajectory`: RGMA sessions on the paper dataset with the fig3
//! split, driven step by step through `al_core::step` from one thread.

use super::common::*;
use al_benchmark::stats;
use al_benchmark::trace::Recorder;
use al_core::{
    step, AlOptions, Decision, Observation, SessionConfig, SessionState, StopReason, StrategyKind,
    Trajectory,
};
use al_dataset::{Dataset, Partition};
use al_units::LogMegabytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::time::Instant;

const N_INIT: usize = 50;
const N_TEST: usize = 200;
const ITERATIONS: usize = 200;
/// Set-up repetitions before and again after the timed phase.
const SETUP_REPS: usize = 3;
/// Seconds between set-up repetitions inside the timed phase.
const SETUP_EVERY_S: f64 = 2.0;
/// Step after which the first trajectory's digest is compared with a replay.
const CHECKPOINT: usize = 20;

struct Unit {
    partition: Partition,
    state: SessionState,
    decision: Decision,
}

struct Prepared {
    ds: Dataset,
    lmem: LogMegabytes,
    first: Unit,
    open_ms: f64,
}

fn options(lmem: LogMegabytes, seed: u64) -> AlOptions {
    AlOptions {
        mem_limit_log: Some(lmem),
        max_iterations: Some(ITERATIONS),
        seed,
        ..AlOptions::default()
    }
}

/// Trajectory `u` of a run: its partition and strategy seed come from the
/// run seed only.
fn open(ds: &Dataset, lmem: LogMegabytes, seed: u64, u: u64) -> Result<Unit, String> {
    let unit_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(u);
    let mut rng = StdRng::seed_from_u64(unit_seed);
    let partition = Partition::random(ds.len(), N_INIT, N_TEST, &mut rng);
    let config = SessionConfig::from_partition(
        ds,
        &partition,
        StrategyKind::Rgma { base: 10.0 },
        &options(lmem, unit_seed),
    );
    let (state, decision) = SessionState::start(config).map_err(|e| e.to_string())?;
    Ok(Unit {
        partition,
        state,
        decision,
    })
}

fn prepare(seed: u64) -> Result<Prepared, String> {
    let ds = load_dataset()?;
    // As bin/fig3: the 90th-percentile memory is L_mem.
    let lmem = ds.memory_limit_log_percentile(0.90);
    let t = Instant::now();
    let first = open(&ds, lmem, seed, 0)?;
    let open_ms = ms(t.elapsed());
    Ok(Prepared {
        ds,
        lmem,
        first,
        open_ms,
    })
}

struct Driven {
    phase: Phase,
    trajectories: Vec<(Trajectory, Partition)>,
    failed_ops: u64,
    checkpoint: Option<Vec<u64>>,
    boundaries: Vec<Boundary>,
    reopt_ms: Vec<f64>,
    plain_ms: Vec<f64>,
}

/// Drive whole trajectories until `seconds` have passed, repeating the
/// set-up between steps when a clock is given (its time is not counted).
fn drive(
    ctx: &Ctx,
    p: &Prepared,
    rec: &mut Recorder,
    mut clock: Option<&mut SetupClock<Prepared>>,
) -> Result<Driven, String> {
    let optimize_every = AlOptions::default().optimize_every;
    let mut out = Driven {
        phase: Phase::default(),
        trajectories: Vec::new(),
        failed_ops: 0,
        checkpoint: None,
        boundaries: Vec::new(),
        reopt_ms: Vec::new(),
        plain_ms: Vec::new(),
    };
    if let Some(c) = clock.as_mut() {
        c.take_spent_s();
    }
    let start = Instant::now();
    let end = deadline(start, ctx.seconds);
    let mut op = 0u64;
    'units: for u in 0.. {
        if u > 0 && Instant::now() >= end {
            break;
        }
        let unit = if u == 0 {
            Unit {
                partition: p.first.partition.clone(),
                state: p.first.state.clone(),
                decision: p.first.decision,
            }
        } else {
            let t0 = Instant::now();
            let unit = open(&p.ds, p.lmem, ctx.seed, u);
            rec.record("session.open", None, op, t0, Instant::now());
            match unit {
                Ok(unit) => unit,
                Err(_) => {
                    out.failed_ops += 1;
                    continue;
                }
            }
        };
        let Unit {
            partition,
            mut state,
            mut decision,
        } = unit;
        let mut picks: Vec<usize> = Vec::new();
        while let Decision::Query(q) = decision {
            if let Some(c) = clock.as_mut() {
                c.tick()?;
            }
            let it = state.iteration();
            let reopt = (it + 1) / optimize_every > it / optimize_every;
            let capture = rec.enabled() && reopt && u == 0;
            let warm = capture.then(|| state.warm_hyperparams());
            let obs = Observation::from_dataset(&p.ds, q.dataset_index);
            let t0 = Instant::now();
            let stepped = step(state, &obs);
            let t1 = Instant::now();
            let name = if reopt {
                "session.step_reopt"
            } else {
                "session.step_plain"
            };
            rec.record(name, None, op, t0, t1);
            op += 1;
            match stepped {
                Ok((s, d)) => {
                    state = s;
                    decision = d;
                }
                Err(_) => {
                    out.failed_ops += 1;
                    continue 'units;
                }
            }
            let step_ms = ms(t1 - t0);
            out.phase.ops += 1;
            out.phase.op_ms.push(step_ms);
            if reopt {
                out.reopt_ms.push(step_ms);
            } else {
                out.plain_ms.push(step_ms);
            }
            picks.push(q.dataset_index);
            if let Some(warm) = warm {
                let taken: BTreeSet<usize> = picks.iter().copied().collect();
                out.boundaries.push(Boundary {
                    rows: partition.init.iter().chain(&picks).copied().collect(),
                    pool: partition
                        .active
                        .iter()
                        .copied()
                        .filter(|i| !taken.contains(i))
                        .collect(),
                    warm,
                });
            }
            if u == 0 && it + 1 == CHECKPOINT {
                out.checkpoint = Some(state.digest());
            }
        }
        out.trajectories.push((state.into_trajectory(), partition));
    }
    let setup_s = clock.map_or(0.0, |c| c.take_spent_s());
    out.phase.wall_s = start.elapsed().as_secs_f64() - setup_s;
    Ok(out)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut digests = Vec::new();
    let mut open_ms = Vec::new();
    let mut clock = SetupClock::new(SETUP_EVERY_S, || {
        let p = prepare(ctx.seed)?;
        digests.push(p.first.state.digest());
        open_ms.push(p.open_ms);
        Ok(p)
    });
    let p = clock.burst(SETUP_REPS)?;
    let mut out = Outcome::default();

    let mut quiet = ctx.recorder(false);
    let driven = drive(ctx, &p, &mut quiet, Some(&mut clock))?;
    check_run(&mut out.checks, &p, &driven)?;

    let trajectories: Vec<&Trajectory> = driven.trajectories.iter().map(|(t, _)| t).collect();
    let (rc, rm, regret) = quality(&trajectories);
    out.layer.insert("quality.rmse_cost", rc);
    out.layer.insert("quality.rmse_mem", rm);
    out.layer.insert("quality.regret_nh", regret);
    out.checks.failed += driven.failed_ops;
    out.phase = driven.phase;
    drop(clock.burst(SETUP_REPS)?);
    out.setup_s = clock.setup_s();
    drop(clock);
    out.checks
        .check(digests.windows(2).all(|w| w[0] == w[1]), || {
            "session open is not deterministic across set-up repetitions".to_string()
        });
    out.layer
        .insert("session.open.ms", stats::median(&open_ms).unwrap_or(0.0));

    if ctx.trace {
        let mut rec = ctx.recorder(true);
        let traced = drive(ctx, &p, &mut rec, None)?;
        out.checks.failed += traced.failed_ops;
        session_metrics(&traced, &mut out.layer);
        let reopt_p50 = stats::median(&traced.reopt_ms).unwrap_or(0.0);
        let test = p.first.partition.test.clone();
        let opts = options(p.lmem, 0);
        let mut replay = Replay::default();
        for (k, b) in traced.boundaries.iter().enumerate() {
            replay.boundary(&p.ds, b, &test, &opts, &mut rec, k as u64)?;
        }
        replay.metrics(reopt_p50, &mut out.layer);
        out.traced = Some(traced.phase);
        out.spans.push(rec.into_spans());
    }
    Ok(out)
}

fn session_metrics(d: &Driven, layer: &mut std::collections::BTreeMap<&'static str, f64>) {
    let total: f64 = d.reopt_ms.iter().chain(&d.plain_ms).sum();
    layer.insert("session.step_plain.count", d.plain_ms.len() as f64);
    layer.insert(
        "session.step_plain.p50_ms",
        stats::median(&d.plain_ms).unwrap_or(0.0),
    );
    layer.insert("session.step_reopt.count", d.reopt_ms.len() as f64);
    layer.insert(
        "session.step_reopt.p50_ms",
        stats::median(&d.reopt_ms).unwrap_or(0.0),
    );
    layer.insert(
        "session.step_reopt.share",
        stats::ratio(d.reopt_ms.iter().sum(), total),
    );
}

/// Structural checks on every trajectory, plus the determinism check:
/// replaying the first trajectory to the checkpoint gives the same digest.
fn check_run(checks: &mut Checks, p: &Prepared, d: &Driven) -> Result<(), String> {
    let stops = [StopReason::MaxIterations, StopReason::AllCandidatesRefused];
    for (t, partition) in &d.trajectories {
        let pool: BTreeSet<usize> = partition.active.iter().copied().collect();
        check_trajectory(
            checks,
            &p.ds,
            t,
            &TrajectorySpec {
                pool: &pool,
                stops: &stops,
                rmse_expected: true,
                max_len: ITERATIONS,
            },
        );
    }
    let Some(expected) = &d.checkpoint else {
        // The first trajectory stopped before the checkpoint; nothing to replay.
        return Ok(());
    };
    let mut state = p.first.state.clone();
    let mut decision = p.first.decision;
    while let Decision::Query(q) = decision {
        if state.iteration() == CHECKPOINT {
            break;
        }
        let obs = Observation::from_dataset(&p.ds, q.dataset_index);
        (state, decision) = step(state, &obs).map_err(|e| e.to_string())?;
    }
    checks.check(state.digest() == *expected, || {
        "replayed trajectory differs from the timed one at the checkpoint".to_string()
    });
    Ok(())
}
