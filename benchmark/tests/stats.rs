//! The benchmark's statistics and span arithmetic.

use al_benchmark::host::{result_line, Metric};
use al_benchmark::stats::{fail_frac, interquartile_mean, is_warm_hit, median, parallel_eff, tail};
use al_benchmark::trace::{layer_self_s, self_times_ns, timed_spans, Span};
use al_core::WarmKey;

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled order: the statistics must not depend on input order.
    (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
}

#[test]
fn tail_is_the_highest_percentile_with_ten_beyond() {
    let t = tail(&ramp(200)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond, t.n), (95.0, 190.0, 10, 200));

    // p99 of 400 has only 4 beyond, so p95 it stays.
    let t = tail(&ramp(400)).unwrap();
    assert_eq!((t.pct, t.beyond), (95.0, 20));

    let t = tail(&ramp(1000)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));

    // The grid stops at p99.
    let t = tail(&ramp(10_000)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (99.0, 9900.0, 100));
}

#[test]
fn tail_of_too_few_samples_is_the_median_with_its_real_count() {
    let t = tail(&ramp(8)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond, t.n), (50.0, 4.0, 4, 8));
    let t = tail(&[3.0]).unwrap();
    assert_eq!((t.value, t.beyond), (3.0, 0));
    assert!(tail(&[]).is_none());
}

#[test]
fn median_is_nearest_rank() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    assert_eq!(median(&[]), None);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 0,
    }
}

#[test]
fn self_time_subtracts_nested_children_once_per_level() {
    let spans = [
        span("session.step", 0, 100, None),
        span("gp.fit", 10, 30, Some(0)),
        span("linalg.factor", 15, 20, Some(1)),
    ];
    assert_eq!(self_times_ns(&spans), vec![80, 15, 5]);
}

#[test]
fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
    let spans = [
        span("client.session", 0, 100, None),
        span("store.observe", 10, 50, Some(0)),
        span("store.observe", 40, 70, Some(0)),
        // Runs past the parent's end: only 90..100 counts.
        span("store.finish", 90, 130, Some(0)),
    ];
    let self_ns = self_times_ns(&spans);
    assert_eq!(self_ns[0], 100 - 60 - 10);
    assert_eq!(&self_ns[1..], &[40, 30, 40]);
}

#[test]
fn layer_self_time_sums_over_threads() {
    let a = vec![span("store.observe", 0, 1_000_000_000, None)];
    let b = vec![
        span("client.session", 0, 3_000_000_000, None),
        span("store.observe", 0, 1_000_000_000, Some(0)),
    ];
    let by_layer = layer_self_s(&[a, b]);
    assert_eq!(by_layer["store"], 2.0);
    assert_eq!(by_layer["client"], 2.0);
}

#[test]
fn parallel_efficiency_is_cpu_over_wall_times_workers() {
    assert_eq!(parallel_eff(3.8, 2.0, 2), 0.95);
    assert_eq!(parallel_eff(1.0, 1.0, 1), 1.0);
    assert_eq!(parallel_eff(1.0, 0.0, 2), 0.0);
    assert_eq!(parallel_eff(1.0, 1.0, 0), 0.0);
}

#[test]
fn fail_frac_is_failed_over_attempted() {
    assert_eq!(fail_frac(3, 100), 0.03);
    assert_eq!(fail_frac(0, 100), 0.0);
    assert_eq!(fail_frac(0, 0), 0.0);
}

#[test]
fn warm_hit_is_membership_in_the_keys_listed_before_create() {
    let keys = vec![
        WarmKey::new("sweep-0", "RBF"),
        WarmKey::new("sweep-3", "RBF"),
    ];
    assert!(is_warm_hit(&keys, &WarmKey::new("sweep-3", "RBF")));
    assert!(!is_warm_hit(&keys, &WarmKey::new("sweep-3", "Matern52")));
    assert!(!is_warm_hit(&[], &WarmKey::new("sweep-0", "RBF")));
}

#[test]
fn result_line_has_the_four_keys_and_every_metric() {
    let metrics = [
        Metric {
            name: "setup_s".into(),
            value: 0.8127,
            unit: "s",
        },
        Metric {
            name: "ops_per_s".into(),
            value: 12.0,
            unit: "1/s",
        },
    ];
    assert_eq!(
        result_line(true, 1000, 0, &metrics),
        "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"ops_per_s\": {\"value\": 12.0, \"unit\": \"1/s\"}}}"
    );
}

#[test]
fn interquartile_mean_drops_the_outer_quarters() {
    // A 12.8 ms outlier and a fast sample are dropped; the middle averages.
    let v = [0.6, 0.35, 12.8, 0.6, 0.34, 0.36, 0.62, 0.59];
    let iqm = interquartile_mean(&v).unwrap();
    assert!((iqm - (0.36 + 0.59 + 0.6 + 0.6) / 4.0).abs() < 1e-15);
    assert_eq!(interquartile_mean(&[2.0, 4.0]), Some(3.0));
    assert_eq!(interquartile_mean(&[]), None);
}

#[test]
fn timed_spans_leave_out_replays_and_their_children() {
    let spans = [
        span("session.step_plain", 0, 10, None),
        span("replay.boundary", 20, 90, None),
        span("linalg.factor", 30, 40, Some(1)),
        span("client.session", 100, 200, None),
        span("store.observe", 110, 120, Some(3)),
    ];
    assert_eq!(timed_spans(&spans), 3);
}
