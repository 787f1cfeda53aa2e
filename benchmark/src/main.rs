//! `al-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the AL stack from the checkout root and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod workloads;

use al_benchmark::host::{self, Metric};
use al_benchmark::{stats, trace};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use workloads::common::{dataset_load_ms, sorted_metrics, Ctx, Outcome};

const WORKLOADS: [&str; 4] = [
    "paper_trajectory",
    "fig3_batch",
    "online_store",
    "dataset_gen",
];

/// Per-layer metrics, printed on every workload (0 where a layer is idle).
const PER_LAYER: [(&str, &str); 74] = [
    ("linalg.calls", "count"),
    ("linalg.factor.ms", "ms"),
    ("linalg.inverse.ms", "ms"),
    ("linalg.inverse.gflops", "GFLOP/s"),
    ("linalg.self_s", "s"),
    ("gp.fit.ms", "ms"),
    ("gp.lml_gradient.ms", "ms"),
    ("gp.fit_optimized.ms", "ms"),
    ("gp.inverse_share", "frac"),
    ("gp.predict.ms", "ms"),
    ("gp.predict.rows", "count"),
    ("gp.replay_coverage", "frac"),
    ("gp.self_s", "s"),
    ("session.open.ms", "ms"),
    ("session.step_plain.count", "count"),
    ("session.step_plain.p50_ms", "ms"),
    ("session.step_reopt.count", "count"),
    ("session.step_reopt.p50_ms", "ms"),
    ("session.step_reopt.share", "frac"),
    ("session.self_s", "s"),
    ("store.create_cold.count", "count"),
    ("store.create_cold.p50_ms", "ms"),
    ("store.create_warm.count", "count"),
    ("store.create_warm.p50_ms", "ms"),
    ("store.warm_hit_ratio", "frac"),
    ("store.observe.count", "count"),
    ("store.observe.p50_ms", "ms"),
    ("store.decision.count", "count"),
    ("store.decision.p50_ns", "ns"),
    ("store.finish.p50_ms", "ms"),
    ("store.errors", "count"),
    ("store.errors.gp", "count"),
    ("store.errors.unknown_session", "count"),
    ("store.errors.duplicate_session", "count"),
    ("store.errors.observation_mismatch", "count"),
    ("store.contention_ratio", "frac"),
    ("store.self_s", "s"),
    ("batch.trajectories", "count"),
    ("batch.iterations", "count"),
    ("batch.cpu_s", "s"),
    ("batch.parallel_eff", "frac"),
    ("batch.iters_skew", "frac"),
    ("batch.self_s", "s"),
    ("dataset.load.ms", "ms"),
    ("dataset.generate.s", "s"),
    ("dataset.cpu_s", "s"),
    ("dataset.parallel_eff", "frac"),
    ("dataset.rows_checked", "count"),
    ("dataset.rows_bitwise_equal", "count"),
    ("dataset.self_s", "s"),
    ("amr.sim.count", "count"),
    ("amr.sim.p50_ms", "ms"),
    ("amr.sim.max_ms", "ms"),
    ("amr.sim.skew", "frac"),
    ("amr.cell_updates", "count"),
    ("amr.cell_updates_per_s", "1/s"),
    ("amr.peak_storage_cells", "count"),
    ("amr.self_s", "s"),
    ("client.self_s", "s"),
    ("replay.self_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.span_cost_frac", "frac"),
    ("trace.spans", "count"),
    ("op.count", "count"),
    ("op.p50_ms", "ms"),
    ("op.tail_ms", "ms"),
    ("op.tail_pct", "pct"),
    ("op.tail_beyond", "count"),
    ("quality.fail_frac", "frac"),
    ("quality.rmse_cost", "NH"),
    ("quality.rmse_mem", "MB"),
    ("quality.regret_nh", "NH"),
    ("host.nproc", "count"),
    ("host.threads", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: al-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("error: refusing to measure a build with debug assertions; build with --release");
        return ExitCode::from(1);
    }
    // Trace mode splits the time between an untraced and a traced phase.
    let ctx = Ctx {
        seed: args.seed,
        seconds: if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        trace: args.trace,
        threads: host::nproc(),
        origin: Instant::now(),
    };
    println!(
        "# host: nproc={} threads={} cpu=\"{}\" debug_assertions={}",
        host::nproc(),
        ctx.threads,
        host::cpu_model(),
        cfg!(debug_assertions)
    );
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = match args.workload.as_str() {
        "paper_trajectory" => workloads::paper::run(&ctx),
        "fig3_batch" => workloads::fig3::run(&ctx),
        "online_store" => workloads::store::run(&ctx),
        _ => workloads::gen::run(&ctx),
    };
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    match report(&ctx, &args, out) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn report(ctx: &Ctx, args: &Args, mut out: Outcome) -> Result<String, String> {
    let phase = &out.phase;
    let tail = stats::tail(&phase.op_ms).ok_or("no operation completed")?;
    let op_p50 = stats::median(&phase.op_ms).unwrap_or(0.0);
    let peak_rss = host::peak_rss_mb().ok_or("cannot read VmHWM")?;
    let attempted = phase.ops + out.checks.passed + out.checks.failed;
    let failed = out.checks.failed;
    let fail_frac = stats::fail_frac(failed, attempted);
    for m in &out.checks.messages {
        eprintln!("check failed: {m}");
    }
    let end_to_end: Vec<Metric> = [
        ("setup_s", out.setup_s, "s"),
        ("ops_per_s", phase.ops_per_s(), "1/s"),
        ("op_p50_ms", op_p50, "ms"),
        ("op_tail_ms", tail.value, "ms"),
        ("peak_rss_mb", peak_rss, "MB"),
    ]
    .into_iter()
    .map(|(name, value, unit)| Metric {
        name: name.to_string(),
        value,
        unit,
    })
    .collect();
    let layer = &mut out.layer;
    let quality = |layer: &BTreeMap<&str, f64>, k: &str| {
        layer.get(k).map_or("n/a".to_string(), |v| format!("{v}"))
    };
    println!(
        "# ops={} wall_s={:.3} op_tail=p{} ({} beyond of {}) fail_frac={} rmse_cost={} rmse_mem={} regret_nh={}",
        phase.ops,
        phase.wall_s,
        tail.pct,
        tail.beyond,
        tail.n,
        fail_frac,
        quality(layer, "quality.rmse_cost"),
        quality(layer, "quality.rmse_mem"),
        quality(layer, "quality.regret_nh"),
    );
    if !args.trace {
        for m in &end_to_end {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        return Ok(result(attempted, failed, &end_to_end));
    }

    layer.insert("dataset.load.ms", dataset_load_ms(31)?);
    let traced_rate = out.traced.as_ref().map_or(0.0, |t| t.ops_per_s());
    layer.insert(
        "trace.overhead_frac",
        1.0 - stats::ratio(traced_rate, phase.ops_per_s()),
    );
    for (layer_name, self_s) in trace::layer_self_s(&out.spans) {
        let key = match layer_name {
            "linalg" => "linalg.self_s",
            "gp" => "gp.self_s",
            "session" => "session.self_s",
            "store" => "store.self_s",
            "batch" => "batch.self_s",
            "dataset" => "dataset.self_s",
            "amr" => "amr.self_s",
            "client" => "client.self_s",
            _ => "replay.self_s",
        };
        *layer.entry(key).or_insert(0.0) += self_s;
    }
    let spans: usize = out.spans.iter().map(Vec::len).sum();
    layer.insert("trace.spans", spans as f64);
    // The cost of the timed phase's spans per recording thread, over the
    // traced phase's wall time.
    let timed: Vec<usize> = out.spans.iter().map(|s| trace::timed_spans(s)).collect();
    let recording = timed.iter().filter(|&&n| n > 0).count();
    let traced_wall = out.traced.as_ref().map_or(0.0, |t| t.wall_s);
    layer.insert(
        "trace.span_cost_frac",
        stats::ratio(
            timed.iter().sum::<usize>() as f64 * trace::span_cost_s(100_000),
            traced_wall * recording as f64,
        ),
    );
    layer.insert("op.count", phase.ops as f64);
    layer.insert("op.p50_ms", op_p50);
    layer.insert("op.tail_ms", tail.value);
    layer.insert("op.tail_pct", tail.pct);
    layer.insert("op.tail_beyond", tail.beyond as f64);
    layer.insert("quality.fail_frac", fail_frac);
    layer.insert("host.nproc", host::nproc() as f64);
    layer.insert("host.threads", ctx.threads as f64);
    let metrics = sorted_metrics(layer, &PER_LAYER);
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    let path = std::path::Path::new(&dir)
        .join("traces")
        .join(format!("{}-{}.jsonl", args.workload, args.seed));
    trace::write_jsonl(&path, &out.spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(result(attempted, failed, &metrics))
}

/// The result line; a metric that is not a finite number counts as a
/// failed check.
fn result(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let bad = metrics.iter().filter(|m| !m.value.is_finite()).count() as u64;
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        eprintln!("check failed: {} is {}", m.name, m.value);
    }
    let failed = failed + bad;
    host::result_line(failed == 0, attempted + bad, failed, metrics)
}
