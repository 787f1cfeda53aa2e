//! `fig3_batch`: `al_core::run_batch` over the paper's five strategies on
//! seeded fig3 partitions, with short trajectories (n stays below 100).

use super::common::*;
use al_benchmark::stats;
use al_benchmark::{host, trace::Recorder};
use al_core::{
    run_batch, run_trajectory, step, AlOptions, BatchSpec, Decision, Observation, SessionConfig,
    SessionState, StopReason, StrategyKind, Trajectory,
};
use al_dataset::{Dataset, Partition};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::time::Instant;

const N_INIT: usize = 50;
const N_TEST: usize = 200;
/// 40 iterations cross four re-optimizations and keep n at most 90.
const ITERATIONS: usize = 40;
/// Partitions per `run_batch` call; each runs all five strategies.
const PARTITIONS: usize = 2;
/// Set-up repetitions before and again after the timed phase.
const SETUP_REPS: usize = 8;
/// Seconds between set-up repetitions inside the timed phase.
const SETUP_EVERY_S: f64 = 0.5;

struct Prepared {
    ds: Dataset,
    opts: AlOptions,
    spec: BatchSpec,
}

fn prepare(ctx: &Ctx) -> Result<Prepared, String> {
    let ds = load_dataset()?;
    let opts = AlOptions {
        mem_limit_log: Some(ds.memory_limit_log_percentile(0.90)),
        max_iterations: Some(ITERATIONS),
        ..AlOptions::default()
    };
    let spec = BatchSpec {
        strategies: StrategyKind::paper_five().to_vec(),
        n_init: N_INIT,
        n_test: N_TEST,
        n_trajectories: PARTITIONS,
        base_seed: 0,
        n_threads: ctx.threads,
    };
    Ok(Prepared { ds, opts, spec })
}

/// Base seed of call `c`: from the run seed only, and far enough apart
/// that calls share no partition.
fn call_seed(seed: u64, c: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(c * 1_000)
}

/// The partition and strategy seed `run_batch` uses for trajectory `t`
/// of strategy `s` (the same recipe as `al_core::batch`).
fn trajectory_inputs(p: &Prepared, base_seed: u64, s: usize, t: usize) -> (Partition, AlOptions) {
    let mut prng = StdRng::seed_from_u64(base_seed.wrapping_add(t as u64));
    let partition = Partition::random(p.ds.len(), N_INIT, N_TEST, &mut prng);
    let opts = AlOptions {
        seed: base_seed
            .wrapping_add((t as u64) << 8)
            .wrapping_add(s as u64),
        ..p.opts.clone()
    };
    (partition, opts)
}

struct Call {
    base_seed: u64,
    result: Vec<(StrategyKind, Vec<Trajectory>)>,
    wall_s: f64,
    cpu_s: f64,
}

struct Driven {
    phase: Phase,
    calls: Vec<Call>,
    failed_ops: u64,
}

/// Call until `seconds` have passed, repeating the set-up between calls
/// when a clock is given (its time is not counted).
fn drive(
    ctx: &Ctx,
    p: &Prepared,
    rec: &mut Recorder,
    mut clock: Option<&mut SetupClock<Prepared>>,
) -> Result<Driven, String> {
    let mut out = Driven {
        phase: Phase::default(),
        calls: Vec::new(),
        failed_ops: 0,
    };
    if let Some(c) = clock.as_mut() {
        c.take_spent_s();
    }
    let start = Instant::now();
    let end = deadline(start, ctx.seconds);
    for c in 0.. {
        if c > 0 && Instant::now() >= end {
            break;
        }
        if let Some(clock) = clock.as_mut() {
            clock.tick()?;
        }
        let spec = BatchSpec {
            base_seed: call_seed(ctx.seed, c),
            ..p.spec.clone()
        };
        let cpu0 = host::process_cpu_s().unwrap_or(0.0);
        let t0 = Instant::now();
        let result = run_batch(&p.ds, &spec, &p.opts);
        let t1 = Instant::now();
        let cpu1 = host::process_cpu_s().unwrap_or(0.0);
        rec.record("batch.run_batch", None, c, t0, t1);
        out.phase.op_ms.push(ms(t1 - t0));
        match result {
            Ok(result) => {
                out.phase.ops += result
                    .iter()
                    .flat_map(|(_, ts)| ts)
                    .map(|t| t.len() as u64)
                    .sum::<u64>();
                out.calls.push(Call {
                    base_seed: spec.base_seed,
                    result,
                    wall_s: (t1 - t0).as_secs_f64(),
                    cpu_s: cpu1 - cpu0,
                });
            }
            Err(_) => out.failed_ops += 1,
        }
    }
    let setup_s = clock.map_or(0.0, |c| c.take_spent_s());
    out.phase.wall_s = start.elapsed().as_secs_f64() - setup_s;
    Ok(out)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut clock = SetupClock::new(SETUP_EVERY_S, || prepare(ctx));
    let p = clock.burst(SETUP_REPS)?;
    let mut out = Outcome::default();
    let mut quiet = ctx.recorder(false);
    let driven = drive(ctx, &p, &mut quiet, Some(&mut clock))?;
    out.checks.failed += driven.failed_ops;
    check_run(&mut out.checks, &p, &driven)?;
    let all: Vec<&Trajectory> = driven
        .calls
        .iter()
        .flat_map(|c| c.result.iter().flat_map(|(_, ts)| ts))
        .collect();
    let (rc, rm, regret) = quality(&all);
    out.layer.insert("quality.rmse_cost", rc);
    out.layer.insert("quality.rmse_mem", rm);
    out.layer.insert("quality.regret_nh", regret);
    out.phase = driven.phase;
    drop(clock.burst(SETUP_REPS)?);
    out.setup_s = clock.setup_s();

    if ctx.trace {
        let mut rec = ctx.recorder(true);
        let traced = drive(ctx, &p, &mut rec, None)?;
        out.checks.failed += traced.failed_ops;
        batch_metrics(ctx, &traced, &mut out.layer);
        replay(&p, &traced, &mut rec, &mut out.layer)?;
        out.traced = Some(traced.phase);
        out.spans.push(rec.into_spans());
    }
    Ok(out)
}

fn batch_metrics(ctx: &Ctx, d: &Driven, layer: &mut std::collections::BTreeMap<&'static str, f64>) {
    let lengths: Vec<f64> = d
        .calls
        .iter()
        .flat_map(|c| c.result.iter().flat_map(|(_, ts)| ts))
        .map(|t| t.len() as f64)
        .collect();
    let cpu: f64 = d.calls.iter().map(|c| c.cpu_s).sum();
    let wall: f64 = d.calls.iter().map(|c| c.wall_s).sum();
    let longest = lengths.iter().copied().fold(0.0, f64::max);
    layer.insert("batch.trajectories", lengths.len() as f64);
    layer.insert("batch.iterations", lengths.iter().sum());
    layer.insert("batch.cpu_s", cpu);
    layer.insert(
        "batch.parallel_eff",
        stats::parallel_eff(cpu, wall, ctx.threads),
    );
    layer.insert(
        "batch.iters_skew",
        stats::ratio(longest, stats::median(&lengths).unwrap_or(0.0)),
    );
}

/// Structural checks on every trajectory, and the determinism check: two
/// trajectories of the first call, re-run serially, equal the batch's.
fn check_run(checks: &mut Checks, p: &Prepared, d: &Driven) -> Result<(), String> {
    let stops = [StopReason::MaxIterations, StopReason::AllCandidatesRefused];
    for call in &d.calls {
        checks.check(call.result.len() == p.spec.strategies.len(), || {
            "run_batch returned the wrong number of strategies".to_string()
        });
        for (_, trajectories) in &call.result {
            checks.check(trajectories.len() == PARTITIONS, || {
                "run_batch returned the wrong number of trajectories".to_string()
            });
            for (t, traj) in trajectories.iter().enumerate() {
                let (partition, _) = trajectory_inputs(p, call.base_seed, 0, t);
                let pool: BTreeSet<usize> = partition.active.iter().copied().collect();
                check_trajectory(
                    checks,
                    &p.ds,
                    traj,
                    &TrajectorySpec {
                        pool: &pool,
                        stops: &stops,
                        rmse_expected: true,
                        max_len: ITERATIONS,
                    },
                );
            }
        }
    }
    let Some(first) = d.calls.first() else {
        return Ok(());
    };
    let last_strategy = p.spec.strategies.len() - 1;
    for (s, t) in [(last_strategy, 0), (0, PARTITIONS - 1)] {
        let (partition, opts) = trajectory_inputs(p, first.base_seed, s, t);
        let serial = run_trajectory(&p.ds, &partition, p.spec.strategies[s], &opts)
            .map_err(|e| e.to_string())?;
        let batched = &first.result[s].1[t];
        checks.check(record_bits(&serial) == record_bits(batched), || {
            format!("run_batch trajectory ({s}, {t}) differs from its serial re-run")
        });
    }
    Ok(())
}

/// Re-drive the first call's RGMA trajectory through the session API and
/// replay the linalg/gp calls at each of its re-optimization boundaries.
fn replay(
    p: &Prepared,
    d: &Driven,
    rec: &mut Recorder,
    layer: &mut std::collections::BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let Some(first) = d.calls.first() else {
        return Ok(());
    };
    let s = p.spec.strategies.len() - 1;
    let (partition, opts) = trajectory_inputs(p, first.base_seed, s, 0);
    let config = SessionConfig::from_partition(&p.ds, &partition, p.spec.strategies[s], &opts);
    let (mut state, mut decision) = SessionState::start(config).map_err(|e| e.to_string())?;
    let mut picks = Vec::new();
    let mut boundaries = Vec::new();
    let mut reopt_ms = Vec::new();
    while let Decision::Query(q) = decision {
        let it = state.iteration();
        let reopt = (it + 1) / opts.optimize_every > it / opts.optimize_every;
        let warm = state.warm_hyperparams();
        let obs = Observation::from_dataset(&p.ds, q.dataset_index);
        let t0 = Instant::now();
        (state, decision) = step(state, &obs).map_err(|e| e.to_string())?;
        let step_ms = ms(t0.elapsed());
        picks.push(q.dataset_index);
        if reopt {
            reopt_ms.push(step_ms);
            let taken: BTreeSet<usize> = picks.iter().copied().collect();
            boundaries.push(Boundary {
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
    }
    let mut replay = Replay::default();
    for (k, b) in boundaries.iter().enumerate() {
        replay.boundary(&p.ds, b, &partition.test, &opts, rec, k as u64)?;
    }
    replay.metrics(stats::median(&reopt_ms).unwrap_or(0.0), layer);
    Ok(())
}
