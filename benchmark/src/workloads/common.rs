//! Pieces the workloads share: the run context, the dataset load, output
//! checks, and the replay of re-optimization boundaries through the public
//! `GpModel`/`Cholesky` calls.

use al_benchmark::host::Metric;
use al_benchmark::stats;
use al_benchmark::trace::{Recorder, Span};
use al_core::{AlOptions, StopReason, Trajectory, WarmHyperparams};
use al_dataset::Dataset;
use al_gp::GpModel;
use al_linalg::Cholesky;
use al_units::NodeHours;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// The committed paper dataset, relative to the checkout root.
pub const DATASET_CSV: &str = "data/dataset.csv";

/// Rows in the paper dataset (525 unique jobs plus 75 repeats).
pub const DATASET_ROWS: usize = 600;

/// Options of one run, from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads or clients: the host's hardware threads.
    pub threads: usize,
    /// Origin of every span time.
    pub origin: Instant,
}

impl Ctx {
    pub fn recorder(&self, enabled: bool) -> Recorder {
        Recorder::new(self.origin, enabled)
    }
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations completed.
    pub ops: u64,
    /// Wall time of the phase in seconds.
    pub wall_s: f64,
    /// Latency of every operation in ms.
    pub op_ms: Vec<f64>,
}

impl Phase {
    pub fn ops_per_s(&self) -> f64 {
        stats::ratio(self.ops as f64, self.wall_s)
    }
}

/// Everything a workload hands back to `main` for reporting.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    /// The untraced timed phase: every end-to-end number comes from it.
    pub phase: Phase,
    /// The traced re-run of the same inputs, in trace mode.
    pub traced: Option<Phase>,
    pub checks: Checks,
    /// Per-layer metrics the workload measured (trace mode); `main`
    /// fills the rest with 0.
    pub layer: BTreeMap<&'static str, f64>,
    /// Spans, one list per recording thread.
    pub spans: Vec<Vec<Span>>,
}

/// Output checks. Each failed check counts as one failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub passed: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }
}

/// Load and validate the committed dataset.
pub fn load_dataset() -> Result<Dataset, String> {
    let samples = al_dataset::io::read_csv(Path::new(DATASET_CSV))
        .map_err(|e| format!("{DATASET_CSV}: {e}"))?;
    if samples.len() != DATASET_ROWS {
        return Err(format!(
            "{DATASET_CSV}: {} rows, expected {DATASET_ROWS}",
            samples.len()
        ));
    }
    for (i, s) in samples.iter().enumerate() {
        let values = [
            s.wall_seconds.value(),
            s.cost_node_hours.value(),
            s.memory_mb.value(),
        ];
        if values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
            return Err(format!(
                "{DATASET_CSV}: row {i} has a non-positive response"
            ));
        }
    }
    Ok(Dataset::new(samples))
}

/// Set-up timing spread over the whole run.
///
/// On a shared host a short computation runs in one of two speeds that
/// persist for about a second (a CSV load reads 0.34 or 0.6 ms), so one
/// burst of repetitions measures one moment, and the median of a run that
/// mixes both speeds jumps between them. The clock therefore repeats the
/// set-up in a burst before the timed phase, once at unit boundaries inside
/// it whenever `every` has passed, and in a burst after it, and reports the
/// interquartile mean of all repetitions: robust to outliers like a median,
/// but moving smoothly with the mix of speeds.
pub struct SetupClock<'a, T> {
    make: Box<dyn FnMut() -> Result<T, String> + Send + 'a>,
    every: Duration,
    last: Instant,
    times: Vec<f64>,
    spent: Duration,
}

impl<'a, T> SetupClock<'a, T> {
    pub fn new(every_s: f64, make: impl FnMut() -> Result<T, String> + Send + 'a) -> Self {
        SetupClock {
            make: Box::new(make),
            every: Duration::from_secs_f64(every_s),
            last: Instant::now(),
            times: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Run the set-up `reps` times; return the last result.
    pub fn burst(&mut self, reps: usize) -> Result<T, String> {
        let mut last = None;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            let out = (self.make)()?;
            let took = t.elapsed();
            self.times.push(took.as_secs_f64());
            self.spent += took;
            self.last = Instant::now();
            last = Some(out);
        }
        last.ok_or_else(|| "no set-up ran".to_string())
    }

    /// One repetition if `every` has passed since the last one.
    pub fn tick(&mut self) -> Result<(), String> {
        if self.last.elapsed() >= self.every {
            drop(self.burst(1)?);
        }
        Ok(())
    }

    /// Set-up time spent since the previous call, in seconds.
    pub fn take_spent_s(&mut self) -> f64 {
        std::mem::take(&mut self.spent).as_secs_f64()
    }

    /// The reported `setup_s`.
    pub fn setup_s(&self) -> f64 {
        stats::interquartile_mean(&self.times).unwrap_or(0.0)
    }
}

/// Median of `load_dataset` over `reps` loads, in ms.
pub fn dataset_load_ms(reps: usize) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(load_dataset()?);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats::median(&times).unwrap_or(0.0))
}

pub fn deadline(start: Instant, seconds: f64) -> Instant {
    start + Duration::from_secs_f64(seconds)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Bit pattern of a trajectory's records, for exact comparisons that also
/// hold for NaN RMSE (sessions without an evaluation set).
pub fn record_bits(t: &Trajectory) -> Vec<u64> {
    let mut bits = vec![t.records.len() as u64, t.stop_reason as u64];
    for r in &t.records {
        bits.extend([
            r.iteration as u64,
            r.dataset_index as u64,
            r.cost.value().to_bits(),
            r.memory.value().to_bits(),
            r.regret.value().to_bits(),
            r.cumulative_cost.value().to_bits(),
            r.cumulative_regret.value().to_bits(),
            r.rmse_cost.to_bits(),
            r.rmse_mem.to_bits(),
        ]);
    }
    bits
}

/// Structural invariants of one finished trajectory that survive
/// legitimate numeric changes.
pub struct TrajectorySpec<'a> {
    /// Candidates a pick may come from.
    pub pool: &'a BTreeSet<usize>,
    /// Stop reasons the run's options allow.
    pub stops: &'a [StopReason],
    /// Whether the session had an evaluation set.
    pub rmse_expected: bool,
    /// Upper bound on the number of records.
    pub max_len: usize,
}

pub fn check_trajectory(checks: &mut Checks, ds: &Dataset, t: &Trajectory, spec: &TrajectorySpec) {
    let picks: Vec<usize> = t.records.iter().map(|r| r.dataset_index).collect();
    let unique: BTreeSet<usize> = picks.iter().copied().collect();
    checks.check(unique.len() == picks.len(), || {
        format!("{}: a candidate was picked twice", t.strategy)
    });
    checks.check(picks.iter().all(|i| spec.pool.contains(i)), || {
        format!("{}: a pick is outside the Active pool", t.strategy)
    });
    checks.check(t.records.len() <= spec.max_len, || {
        format!(
            "{}: {} records > {}",
            t.strategy,
            t.records.len(),
            spec.max_len
        )
    });
    let mut cumulative = NodeHours::default();
    let mut exact = true;
    for r in &t.records {
        if r.dataset_index < ds.len() {
            cumulative += ds.sample(r.dataset_index).cost_node_hours;
        }
        exact &= r.cumulative_cost.value().to_bits() == cumulative.value().to_bits();
    }
    checks.check(exact, || {
        format!(
            "{}: cumulative cost differs from the sum of picked costs",
            t.strategy
        )
    });
    if spec.rmse_expected {
        let finite = t.initial_rmse_cost.is_finite()
            && t.initial_rmse_mem.is_finite()
            && t.records
                .iter()
                .all(|r| r.rmse_cost.is_finite() && r.rmse_mem.is_finite());
        checks.check(finite, || format!("{}: non-finite RMSE", t.strategy));
    }
    checks.check(spec.stops.contains(&t.stop_reason), || {
        format!("{}: unexpected stop reason {:?}", t.strategy, t.stop_reason)
    });
}

/// Mean final RMSE (cost, memory) and mean total regret of trajectories.
pub fn quality(trajectories: &[&Trajectory]) -> (f64, f64, f64) {
    let n = trajectories.len().max(1) as f64;
    let mut rc = 0.0;
    let mut rm = 0.0;
    let mut regret = 0.0;
    for t in trajectories {
        let last = t.records.last();
        rc += last.map_or(t.initial_rmse_cost, |r| r.rmse_cost);
        rm += last.map_or(t.initial_rmse_mem, |r| r.rmse_mem);
        regret += t.total_regret().value();
    }
    (rc / n, rm / n, regret / n)
}

/// A re-optimization step seen from outside: the training rows after it,
/// the candidates left, and the hyperparameters it started from.
#[derive(Debug, Clone)]
pub struct Boundary {
    pub rows: Vec<usize>,
    pub pool: Vec<usize>,
    pub warm: WarmHyperparams,
}

/// Times of the public linalg/gp calls replayed at each boundary.
#[derive(Debug, Default)]
pub struct Replay {
    factor_ms: Vec<f64>,
    inverse_ms: Vec<f64>,
    inverse_flops: f64,
    inverse_total_s: f64,
    fit_ms: Vec<f64>,
    lml_gradient_ms: Vec<f64>,
    lml_gradient_total_s: f64,
    fit_optimized_ms: Vec<f64>,
    predict_ms: Vec<f64>,
    predict_rows: Vec<f64>,
    /// Replayed time of the calls one re-optimization step makes.
    step_calls_ms: Vec<f64>,
    calls: u64,
}

fn timed<T>(
    rec: &mut Recorder,
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    out_ms: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    let end = Instant::now();
    rec.record(name, parent, op, start, end);
    let t = ms(end - start);
    out_ms.push(t);
    (v, t)
}

impl Replay {
    /// Rebuild the boundary's training set and time, for each response
    /// model: the kernel-matrix factorization and inverse, a fit at the
    /// warm hyperparameters, the LML gradient, the warm `refit`
    /// optimization, and the predictions the step makes.
    pub fn boundary(
        &mut self,
        ds: &Dataset,
        b: &Boundary,
        test: &[usize],
        opts: &AlOptions,
        rec: &mut Recorder,
        op: u64,
    ) -> Result<(), String> {
        let root = rec.enter("replay.boundary", None, op);
        let x = ds.features_scaled(&b.rows);
        let pool_x = ds.features_scaled(&b.pool);
        let test_x = ds.features_scaled(test);
        let n = b.rows.len() as f64;
        let mut step_ms = 0.0;
        for (y, warm) in [
            (ds.log_cost(&b.rows), &b.warm.cost),
            (ds.log_memory(&b.rows), &b.warm.mem),
        ] {
            let mut gp = GpModel::new(
                opts.kernel.build(opts.init_length_scale),
                opts.noise_variance,
            );
            gp.set_hyperparams(warm).map_err(|e| e.to_string())?;
            let start = gp.clone();
            let ky = gp.noisy_kernel_matrix(&x);
            let (chol, _) = timed(rec, "linalg.factor", root, op, &mut self.factor_ms, || {
                Cholesky::with_jitter(&ky, 1e-10, 1e-2)
            });
            let chol = chol.map_err(|e| e.to_string())?;
            let (inv, t) = timed(
                rec,
                "linalg.inverse",
                root,
                op,
                &mut self.inverse_ms,
                || chol.inverse(),
            );
            std::hint::black_box(inv.map_err(|e| e.to_string())?);
            self.inverse_total_s += t * 1e-3;
            // n columns, each a forward and a back substitution of n² flops.
            self.inverse_flops += 2.0 * n * n * n;
            self.calls += 2;
            let (fit, _) = timed(rec, "gp.fit", root, op, &mut self.fit_ms, || gp.fit(&x, &y));
            fit.map_err(|e| e.to_string())?;
            let (grad, t) = timed(
                rec,
                "gp.lml_gradient",
                root,
                op,
                &mut self.lml_gradient_ms,
                || gp.lml_gradient(),
            );
            std::hint::black_box(grad.map_err(|e| e.to_string())?);
            self.lml_gradient_total_s += t * 1e-3;
            let mut opt = start;
            let (fo, t) = timed(
                rec,
                "gp.fit_optimized",
                root,
                op,
                &mut self.fit_optimized_ms,
                || opt.fit_optimized(&x, &y, &opts.refit),
            );
            fo.map_err(|e| e.to_string())?;
            step_ms += t;
            let (p, t) = timed(rec, "gp.predict", root, op, &mut self.predict_ms, || {
                opt.predict(&pool_x)
            });
            std::hint::black_box(p.map_err(|e| e.to_string())?);
            self.predict_rows.push(b.pool.len() as f64);
            step_ms += t;
            let mut test_ms = Vec::new();
            let (p, t) = timed(rec, "gp.predict", root, op, &mut test_ms, || {
                opt.predict(&test_x)
            });
            std::hint::black_box(p.map_err(|e| e.to_string())?);
            step_ms += t;
        }
        self.step_calls_ms.push(step_ms);
        rec.exit(root);
        Ok(())
    }

    /// Per-layer metrics; `reopt_p50_ms` is the measured re-optimization
    /// step median the replay is compared with.
    pub fn metrics(&self, reopt_p50_ms: f64, out: &mut BTreeMap<&'static str, f64>) {
        let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
        out.insert("linalg.calls", self.calls as f64);
        out.insert("linalg.factor.ms", med(&self.factor_ms));
        out.insert("linalg.inverse.ms", med(&self.inverse_ms));
        out.insert(
            "linalg.inverse.gflops",
            stats::ratio(self.inverse_flops * 1e-9, self.inverse_total_s),
        );
        out.insert("gp.fit.ms", med(&self.fit_ms));
        out.insert("gp.lml_gradient.ms", med(&self.lml_gradient_ms));
        out.insert("gp.fit_optimized.ms", med(&self.fit_optimized_ms));
        out.insert(
            "gp.inverse_share",
            stats::ratio(self.inverse_total_s, self.lml_gradient_total_s),
        );
        out.insert("gp.predict.ms", med(&self.predict_ms));
        out.insert("gp.predict.rows", med(&self.predict_rows));
        out.insert(
            "gp.replay_coverage",
            stats::ratio(med(&self.step_calls_ms), reopt_p50_ms),
        );
    }
}

/// Metrics in the order they are printed.
pub fn sorted_metrics(
    values: &BTreeMap<&'static str, f64>,
    units: &[(&'static str, &'static str)],
) -> Vec<Metric> {
    units
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}
