//! Property-based tests for the linear-algebra substrate.

// Integration tests run outside #[cfg(test)], so the in-tests carve-outs
// from clippy.toml don't reach them; tests may panic, compare exact copied
// floats, and index loops for readability.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::needless_range_loop
)]

use al_linalg::{ops, stats, Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy: a random SPD matrix `A = B Bᵀ + n·I` of size `n ∈ [1, 8]`.
fn spd_matrix() -> impl Strategy<Value = Matrix> {
    spd_matrix_sized(1..=8)
}

/// Strategy: a random SPD matrix `A = B Bᵀ + n·I` with `n` drawn from `sizes`.
fn spd_matrix_sized(sizes: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Matrix> {
    sizes.prop_flat_map(|n| {
        proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
            let b = Matrix::from_vec(n, n, data);
            let mut a = b.matmul(&b.transpose()).unwrap();
            a.add_diagonal(n as f64);
            a
        })
    })
}

fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0f64..10.0, n)
}

/// `A X = B` one column at a time through the single-vector `solve`: the
/// parity oracle for the multi-right-hand-side `solve_matrix` and `inverse`.
fn solve_columns(ch: &Cholesky, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(b.rows(), b.cols());
    for j in 0..b.cols() {
        let col: Vec<f64> = (0..b.rows()).map(|i| b[(i, j)]).collect();
        let x = ch.solve(&col).unwrap();
        for i in 0..b.rows() {
            out[(i, j)] = x[i];
        }
    }
    out
}

/// Index of the first entry whose bits differ, if any.
fn first_bit_difference(got: &Matrix, want: &Matrix) -> Option<usize> {
    assert_eq!(got.shape(), want.shape());
    got.as_slice()
        .iter()
        .zip(want.as_slice())
        .position(|(g, w)| g.to_bits() != w.to_bits())
}

#[test]
fn inverse_matches_column_solves_bitwise_at_paper_scale() {
    // RBF Gram plus noise on scattered 1-D points: the shape of the kernel
    // matrix a GP inverts at a re-optimization boundary, at the sizes an
    // RGMA trajectory reaches (n 50 → 250).
    for n in [200usize, 250] {
        let pts: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7123).sin() * 4.0).collect();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let d = pts[i] - pts[j];
                a[(i, j)] = (-0.5 * d * d).exp();
            }
        }
        a.add_diagonal(1e-2);
        let ch = Cholesky::with_jitter(&a, 1e-10, 1e-2).unwrap();
        let want = solve_columns(&ch, &Matrix::identity(n));
        assert_eq!(
            first_bit_difference(&ch.inverse().unwrap(), &want),
            None,
            "n={n}"
        );
        let b = Matrix::from_vec(n, 3, (0..3 * n).map(|i| (i as f64 * 0.3).sin()).collect());
        let got = ch.solve_matrix(&b).unwrap();
        assert_eq!(
            first_bit_difference(&got, &solve_columns(&ch, &b)),
            None,
            "n={n}"
        );
    }
}

proptest! {
    #[test]
    fn multi_rhs_solves_match_column_solves_bitwise(
        a in spd_matrix_sized(1..=40),
        m in 0usize..6,
        seed in 0u64..1000,
    ) {
        let n = a.rows();
        let ch = Cholesky::new(&a).unwrap();
        let inv = ch.inverse().unwrap();
        prop_assert_eq!(first_bit_difference(&inv, &solve_columns(&ch, &Matrix::identity(n))), None);
        let data: Vec<f64> = (0..n * m)
            .map(|i| ((seed as f64 + 1.0) * (i as f64 + 0.5)).sin() * 10.0)
            .collect();
        let b = Matrix::from_vec(n, m, data);
        let x = ch.solve_matrix(&b).unwrap();
        prop_assert_eq!(first_bit_difference(&x, &solve_columns(&ch, &b)), None);
    }

    #[test]
    fn cholesky_reconstructs_spd_matrices(a in spd_matrix()) {
        let ch = Cholesky::new(&a).unwrap();
        let r = ch.reconstruct().unwrap();
        let diff: f64 = (0..a.rows())
            .flat_map(|i| (0..a.cols()).map(move |j| (i, j)))
            .map(|(i, j)| (r[(i, j)] - a[(i, j)]).abs())
            .fold(0.0, f64::max);
        prop_assert!(diff < 1e-9 * (1.0 + a.frobenius_norm()));
    }

    #[test]
    fn cholesky_solve_inverts_matvec(a in spd_matrix()) {
        let n = a.rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.37 - 1.0).collect();
        let b = a.matvec(&x_true).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&b).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            prop_assert!((got - want).abs() < 1e-7 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn log_det_matches_diagonal_product(a in spd_matrix()) {
        let ch = Cholesky::new(&a).unwrap();
        // |A| = prod L_ii^2; compare in log space.
        let direct: f64 = (0..ch.dim())
            .map(|i| ch.l()[(i, i)].ln() * 2.0)
            .sum();
        prop_assert!((ch.log_det() - direct).abs() < 1e-12);
    }

    #[test]
    fn quad_form_is_nonnegative(a in spd_matrix(), seed in 0u64..1000) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((seed as f64 + 1.0) * (i as f64 + 0.5)).sin()).collect();
        let ch = Cholesky::new(&a).unwrap();
        prop_assert!(ch.quad_form(&b).unwrap() >= 0.0);
    }

    #[test]
    fn matmul_is_associative_on_small_matrices(
        d1 in proptest::collection::vec(-2.0f64..2.0, 9),
        d2 in proptest::collection::vec(-2.0f64..2.0, 9),
        d3 in proptest::collection::vec(-2.0f64..2.0, 9),
    ) {
        let a = Matrix::from_vec(3, 3, d1);
        let b = Matrix::from_vec(3, 3, d2);
        let c = Matrix::from_vec(3, 3, d3);
        let ab_c = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let a_bc = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((ab_c[(i, j)] - a_bc[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn transpose_is_involutive(rows in 1usize..6, cols in 1usize..6, seed in 0u64..100) {
        let data: Vec<f64> = (0..rows * cols).map(|i| ((i as f64) * 0.7 + seed as f64).sin()).collect();
        let m = Matrix::from_vec(rows, cols, data);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(v in vector(20)) {
        let q25 = stats::quantile(&v, 0.25);
        let q50 = stats::quantile(&v, 0.5);
        let q75 = stats::quantile(&v, 0.75);
        prop_assert!(q25 <= q50 && q50 <= q75);
        prop_assert!(stats::min(&v) <= q25);
        prop_assert!(q75 <= stats::max(&v));
    }

    #[test]
    fn mean_lies_between_min_and_max(v in vector(15)) {
        let m = stats::mean(&v);
        prop_assert!(stats::min(&v) - 1e-12 <= m && m <= stats::max(&v) + 1e-12);
    }

    #[test]
    fn rms_is_zero_iff_all_zero(v in vector(10)) {
        let r = stats::rms(&v);
        let all_zero = v.iter().all(|&x| x == 0.0);
        prop_assert_eq!(r == 0.0, all_zero);
    }

    #[test]
    fn argmax_is_maximal(v in vector(12)) {
        let i = ops::argmax(&v).unwrap();
        for &x in &v {
            prop_assert!(v[i] >= x);
        }
    }

    #[test]
    fn dot_is_symmetric_and_linear(a in vector(8), b in vector(8), alpha in -3.0f64..3.0) {
        prop_assert!((ops::dot(&a, &b) - ops::dot(&b, &a)).abs() < 1e-12);
        let scaled: Vec<f64> = a.iter().map(|x| alpha * x).collect();
        prop_assert!((ops::dot(&scaled, &b) - alpha * ops::dot(&a, &b)).abs() < 1e-9);
    }

    #[test]
    fn sq_dist_is_a_metric_squared(a in vector(5), b in vector(5)) {
        prop_assert!(ops::sq_dist(&a, &b) >= 0.0);
        prop_assert!((ops::sq_dist(&a, &b) - ops::sq_dist(&b, &a)).abs() < 1e-12);
        prop_assert_eq!(ops::sq_dist(&a, &a), 0.0);
    }

    #[test]
    fn histogram_counts_everything(v in vector(30), bins in 1usize..10) {
        let h = stats::histogram(&v, -10.0, 10.0, bins);
        prop_assert_eq!(h.iter().sum::<usize>(), v.len());
    }

    #[test]
    fn extend_then_downdate_roundtrips_bitwise(a in spd_matrix(), border in vector(8)) {
        let n = a.rows();
        let before = Cholesky::new(&a).unwrap();
        let mut ch = before.clone();
        // A strongly dominant corner keeps the bordered matrix SPD.
        let c = 10.0 * (n as f64 + 1.0) + border[..n].iter().map(|b| b * b).sum::<f64>();
        ch.extend(&border[..n], c).unwrap();
        ch.downdate(n).unwrap();
        prop_assert_eq!(ch.dim(), before.dim());
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(ch.l()[(i, j)].to_bits(), before.l()[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn downdate_matches_fresh_factorization_of_submatrix(a in spd_matrix(), pick in 0usize..8) {
        let n = a.rows();
        prop_assume!(n >= 2);
        let index = pick % n;
        let mut ch = Cholesky::new(&a).unwrap();
        ch.downdate(index).unwrap();
        // Fresh factorization of A with row/column `index` deleted.
        let mut sub = Matrix::zeros(n - 1, n - 1);
        for i in 0..n - 1 {
            for j in 0..n - 1 {
                let si = if i < index { i } else { i + 1 };
                let sj = if j < index { j } else { j + 1 };
                sub[(i, j)] = a[(si, sj)];
            }
        }
        let fresh = Cholesky::new(&sub).unwrap();
        for i in 0..n - 1 {
            for j in 0..n - 1 {
                prop_assert!(
                    (ch.l()[(i, j)] - fresh.l()[(i, j)]).abs() < 1e-8,
                    "L({},{}) diverges after removing {}", i, j, index
                );
            }
        }
    }
}
