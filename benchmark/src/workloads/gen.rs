//! `dataset_gen`: `al_dataset::generate_parallel` over seeded, stratified
//! subsets of the paper's 600-job draw, checked against the committed CSV.

use super::common::*;
use al_amr_sim::{run_simulation, MachineModel, SimulationConfig, SolverProfile};
use al_benchmark::trace::Recorder;
use al_benchmark::{host, stats};
use al_dataset::{generate_parallel, GenerateOptions, Sample, SweepGrid};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// The paper's draw: 525 unique configurations plus 75 repeats, seed 2018
/// (row i of `data/dataset.csv` is job i).
const N_UNIQUE: usize = 525;
const N_REPEATS: usize = 75;
const DRAW_SEED: u64 = 2018;
/// Classes of jobs whose solver work is identical (same `mx`, `maxlevel`,
/// `r0`, `rhoin`; they differ only in the node count `p` or the repeat
/// index, which feed the machine model alone). A call runs one member of
/// each of `STRATA` classes spread over the cost range.
const STRATA: usize = 24;
/// Set-up repetitions before and again after the timed phase.
const SETUP_REPS: usize = 8;
/// Seconds between set-up repetitions inside the timed phase.
const SETUP_EVERY_S: f64 = 0.5;
/// Relative tolerance of the response check.
const TOLERANCE: f64 = 1e-12;

struct Prepared {
    samples: Vec<Sample>,
    jobs: Vec<(SimulationConfig, u32)>,
    /// Members (job indices) of the classes a call runs, heaviest first.
    classes: Vec<Vec<usize>>,
}

fn prepare() -> Result<Prepared, String> {
    let ds = load_dataset()?;
    let samples = ds.samples().to_vec();
    let jobs = SweepGrid::default().draw_jobs(N_UNIQUE, N_REPEATS, DRAW_SEED);
    if jobs.len() != samples.len() {
        return Err(format!("{} jobs for {} rows", jobs.len(), samples.len()));
    }
    let mut by_work: BTreeMap<(usize, u8, u64, u64), Vec<usize>> = BTreeMap::new();
    for (i, (c, _)) in jobs.iter().enumerate() {
        let key = (c.mx, c.maxlevel, c.r0.to_bits(), c.rhoin.to_bits());
        by_work.entry(key).or_default().push(i);
    }
    // Classes with a choice of member, cheapest first by the mean modelled
    // wall time of their members (a proxy that orders solver work).
    let mean_wall = |members: &Vec<usize>| {
        members
            .iter()
            .map(|&i| samples[i].wall_seconds.value())
            .sum::<f64>()
            / members.len() as f64
    };
    let mut ranked: Vec<Vec<usize>> = by_work.into_values().filter(|m| m.len() > 1).collect();
    ranked.sort_by(|a, b| mean_wall(a).total_cmp(&mean_wall(b)));
    if ranked.len() < STRATA {
        return Err(format!("only {} job classes with repeats", ranked.len()));
    }
    // The middle class of each of STRATA equal strata, heaviest first, so
    // the fan-out's balance does not depend on where a long job lands.
    let classes = (0..STRATA)
        .rev()
        .map(|s| ranked[(2 * s + 1) * ranked.len() / (2 * STRATA)].clone())
        .collect();
    Ok(Prepared {
        samples,
        jobs,
        classes,
    })
}

/// The jobs of call `c`: a seeded member of every class. The seed changes
/// the node counts and repeats, so the responses to check, but not the
/// solver work of the call.
fn subset(p: &Prepared, seed: u64, c: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(c));
    p.classes
        .iter()
        .map(|members| members[rng.random_range(0..members.len())])
        .collect()
}

struct Call {
    indices: Vec<usize>,
    samples: Vec<Sample>,
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
    let opts = GenerateOptions {
        profile: SolverProfile::paper(),
        machine: MachineModel::default(),
        n_threads: ctx.threads,
    };
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
        let indices = subset(p, ctx.seed, c);
        let jobs: Vec<(SimulationConfig, u32)> = indices.iter().map(|&i| p.jobs[i]).collect();
        let cpu0 = host::process_cpu_s().unwrap_or(0.0);
        let t0 = Instant::now();
        let result = generate_parallel(&jobs, &opts);
        let t1 = Instant::now();
        let cpu1 = host::process_cpu_s().unwrap_or(0.0);
        rec.record("dataset.generate_parallel", None, c, t0, t1);
        out.phase.op_ms.push(ms(t1 - t0));
        match result {
            Ok(samples) => {
                out.phase.ops += samples.len() as u64;
                out.calls.push(Call {
                    indices,
                    samples,
                    wall_s: (t1 - t0).as_secs_f64(),
                    cpu_s: cpu1 - cpu0,
                });
            }
            Err(_) => out.failed_ops += jobs.len() as u64,
        }
    }
    let setup_s = clock.map_or(0.0, |c| c.take_spent_s());
    out.phase.wall_s = start.elapsed().as_secs_f64() - setup_s;
    Ok(out)
}

fn relative_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOLERANCE * a.abs().max(b.abs())
}

/// Each generated sample against its CSV row: the configuration exactly,
/// the responses within [`TOLERANCE`]; returns (rows checked, bitwise equal).
fn check_run(checks: &mut Checks, p: &Prepared, d: &Driven) -> (u64, u64) {
    let mut checked = 0;
    let mut bitwise = 0;
    for call in &d.calls {
        checks.check(call.samples.len() == call.indices.len(), || {
            "generate_parallel returned the wrong number of samples".to_string()
        });
        for (&i, got) in call.indices.iter().zip(&call.samples) {
            let want = &p.samples[i];
            let pairs = [
                (got.wall_seconds.value(), want.wall_seconds.value()),
                (got.cost_node_hours.value(), want.cost_node_hours.value()),
                (got.memory_mb.value(), want.memory_mb.value()),
            ];
            checks.check(got.config == want.config, || {
                format!("job {i}: configuration differs from the CSV row")
            });
            checks.check(pairs.iter().all(|&(a, b)| relative_eq(a, b)), || {
                format!("job {i}: responses differ from the CSV row by more than {TOLERANCE:e}")
            });
            checked += 1;
            if pairs.iter().all(|&(a, b)| a.to_bits() == b.to_bits()) {
                bitwise += 1;
            }
        }
    }
    (checked, bitwise)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut clock = SetupClock::new(SETUP_EVERY_S, prepare);
    let p = clock.burst(SETUP_REPS)?;
    let mut out = Outcome::default();
    let mut quiet = ctx.recorder(false);
    let driven = drive(ctx, &p, &mut quiet, Some(&mut clock))?;
    out.checks.failed += driven.failed_ops;
    let (checked, bitwise) = check_run(&mut out.checks, &p, &driven);
    out.layer.insert("dataset.rows_checked", checked as f64);
    out.layer
        .insert("dataset.rows_bitwise_equal", bitwise as f64);
    out.phase = driven.phase;
    drop(clock.burst(SETUP_REPS)?);
    out.setup_s = clock.setup_s();

    if ctx.trace {
        let mut rec = ctx.recorder(true);
        let traced = drive(ctx, &p, &mut rec, None)?;
        out.checks.failed += traced.failed_ops;
        check_run(&mut out.checks, &p, &traced);
        let cpu: f64 = traced.calls.iter().map(|c| c.cpu_s).sum();
        let wall: f64 = traced.calls.iter().map(|c| c.wall_s).sum();
        out.layer.insert("dataset.generate.s", wall);
        out.layer.insert("dataset.cpu_s", cpu);
        out.layer.insert(
            "dataset.parallel_eff",
            stats::parallel_eff(cpu, wall, ctx.threads),
        );
        amr_replay(&p, &traced, &mut rec, &mut out.layer)?;
        out.traced = Some(traced.phase);
        out.spans.push(rec.into_spans());
    }
    Ok(out)
}

/// Run the first call's jobs again, one at a time through `run_simulation`.
fn amr_replay(
    p: &Prepared,
    d: &Driven,
    rec: &mut Recorder,
    layer: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let Some(first) = d.calls.first() else {
        return Ok(());
    };
    let root = rec.enter("replay.amr", None, 0);
    let mut sim_ms = Vec::new();
    let mut cells = 0u64;
    let mut peak_cells = 0u64;
    for (k, &i) in first.indices.iter().enumerate() {
        let (config, repeat) = p.jobs[i];
        let t0 = Instant::now();
        let outcome = run_simulation(
            &config,
            SolverProfile::paper(),
            &MachineModel::default(),
            repeat,
        )
        .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        rec.record("amr.run_simulation", root, k as u64, t0, t1);
        sim_ms.push(ms(t1 - t0));
        cells += outcome.work.cell_updates;
        peak_cells = peak_cells.max(outcome.work.peak_storage_cells);
    }
    rec.exit(root);
    let total_s: f64 = sim_ms.iter().sum::<f64>() * 1e-3;
    let p50 = stats::median(&sim_ms).unwrap_or(0.0);
    let max = sim_ms.iter().copied().fold(0.0, f64::max);
    layer.insert("amr.sim.count", sim_ms.len() as f64);
    layer.insert("amr.sim.p50_ms", p50);
    layer.insert("amr.sim.max_ms", max);
    layer.insert("amr.sim.skew", stats::ratio(max, p50));
    layer.insert("amr.cell_updates", cells as f64);
    layer.insert(
        "amr.cell_updates_per_s",
        stats::ratio(cells as f64, total_s),
    );
    layer.insert("amr.peak_storage_cells", peak_cells as f64);
    Ok(())
}
