//! Order statistics and the ratios the benchmark reports.

/// Percentiles the tail rule may pick, highest last. The grid stops at
/// p99: on a 2-vCPU host the percentiles above it are set by preemption of
/// the benchmark's own threads (an observe p99.9 read 2.0–5.5 ms across
/// five runs of one build).
pub const TAIL_GRID: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a percentile before it may be reported as
/// the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of `pct` among `n` samples: the smallest sample
/// with at least `pct`% of the samples at or below it.
fn rank(n: usize, pct: f64) -> usize {
    let r = (pct / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Median (nearest rank) of unsorted samples; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (!v.is_empty()).then(|| v[rank(v.len(), 50.0) - 1])
}

/// Mean of the samples between the first and third quartile (nearest
/// rank), the outer quarters dropped; the plain mean below four samples.
/// `None` when empty.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    if middle.is_empty() {
        return None;
    }
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// A tail latency picked by the at-least-ten-beyond rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly after it in sorted order.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// The highest percentile of [`TAIL_GRID`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With fewer than 20 samples no
/// percentile qualifies and the median is returned with its actual count
/// beyond, so the shortfall stays visible. `None` when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let pct = TAIL_GRID
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    let r = rank(n, pct);
    Some(Tail {
        pct,
        value: v[r - 1],
        beyond: n - r,
        n,
    })
}

/// CPU time over the CPU time `workers` threads could have used in `wall_s`.
pub fn parallel_eff(cpu_s: f64, wall_s: f64, workers: usize) -> f64 {
    if wall_s <= 0.0 || workers == 0 {
        return 0.0;
    }
    cpu_s / (wall_s * workers as f64)
}

/// Failed operations over attempted ones; 0 when nothing was attempted.
pub fn fail_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

/// Whether `key` was in the warm cache as listed before a `create`.
pub fn is_warm_hit<K: PartialEq>(warm_keys: &[K], key: &K) -> bool {
    warm_keys.contains(key)
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
