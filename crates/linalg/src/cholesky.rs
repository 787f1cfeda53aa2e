//! Cholesky factorization of symmetric positive definite matrices.
//!
//! GPR spends essentially all of its time here: fitting factors the noisy
//! kernel matrix `K_y = K + σ_n² I`, prediction and the log marginal
//! likelihood (paper Eqs. 3 and 8) are triangular solves plus a
//! log-determinant read off the factor's diagonal.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// # Examples
///
/// ```
/// use al_linalg::{Cholesky, Matrix};
///
/// let a = Matrix::from_vec(2, 2, vec![4.0, 1.0, 1.0, 3.0]);
/// let chol = Cholesky::new(&a).unwrap();
/// let x = chol.solve(&[1.0, 2.0]).unwrap();
/// // A·x reproduces the right-hand side.
/// let b = a.matvec(&x).unwrap();
/// assert!((b[0] - 1.0).abs() < 1e-12 && (b[1] - 2.0).abs() < 1e-12);
/// assert!((chol.log_det() - 11f64.ln()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Jitter that had to be added to the diagonal for the factorization to
    /// succeed (0.0 when the matrix was well conditioned as given).
    jitter: f64,
}

impl Cholesky {
    /// Factor a symmetric positive definite matrix.
    ///
    /// Fails with [`LinalgError::NotPositiveDefinite`] when a pivot is not
    /// strictly positive. Use [`Cholesky::with_jitter`] for kernel matrices
    /// that may be numerically semi-definite.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        Self::factor(a, 0.0)
    }

    /// Factor `A + jitter·I`, escalating `jitter` by factors of 10 from
    /// `initial_jitter` up to `max_jitter` until the factorization succeeds.
    ///
    /// This mirrors what GP libraries do when the RBF kernel makes nearby
    /// points numerically identical. The jitter actually used is recorded in
    /// [`Cholesky::jitter`].
    pub fn with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_jitter: f64,
    ) -> Result<Self, LinalgError> {
        if let Ok(c) = Self::factor(a, 0.0) {
            return Ok(c);
        }
        let mut jitter = initial_jitter.max(f64::MIN_POSITIVE);
        let mut last_err = LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: 0.0,
        };
        while jitter <= max_jitter {
            match Self::factor(a, jitter) {
                Ok(c) => return Ok(c),
                Err(e) => last_err = e,
            }
            jitter *= 10.0;
        }
        Err(last_err)
    }

    /// Factor with the unblocked reference loop.
    ///
    /// This is the original textbook left-looking implementation. It is
    /// kept (a) as the oracle for the bitwise-parity tests pinning the
    /// blocked [`Cholesky::new`] path and (b) as the baseline body of the
    /// `cholesky_factor_naive` perf scenarios, so the committed BENCH
    /// trajectory can show the blocked/naive ratio on every machine.
    pub fn new_reference(a: &Matrix) -> Result<Self, LinalgError> {
        Self::factor_reference(a, 0.0)
    }

    fn factor_reference(a: &Matrix, jitter: f64) -> Result<Self, LinalgError> {
        Self::check_input(a, jitter)?;
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal pivot.
            let mut d = a[(j, j)] + jitter;
            for k in 0..j {
                let ljk = l[(j, k)];
                d -= ljk * ljk;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            // Column below the pivot.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                // Rows i and j of L are contiguous; this inner product is
                // the hot loop of the whole factorization.
                let (ri, rj) = (i * n, j * n);
                let li = &l.as_slice()[ri..ri + j];
                let lj = &l.as_slice()[rj..rj + j];
                s -= crate::ops::dot(li, lj);
                l[(i, j)] = s / dj;
            }
        }
        Ok(Cholesky { l, jitter })
    }

    fn check_input(a: &Matrix, jitter: f64) -> Result<(), LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        // Non-finite entries would factor into NaN pivots and surface as a
        // misleading NotPositiveDefinite; catch the real cause in debug.
        debug_assert!(
            a.as_slice().iter().all(|v| v.is_finite()),
            "Cholesky input contains non-finite entries"
        );
        debug_assert!(
            jitter.is_finite() && jitter >= 0.0,
            "jitter must be finite and non-negative, got {jitter}"
        );
        Ok(())
    }

    /// Cache-tiled, panel-packed left-looking factorization, **bitwise
    /// identical** to [`Cholesky::new_reference`] (DESIGN §13).
    ///
    /// Why tiling is legal here: in the reference loop every element owns
    /// exactly one accumulator — the diagonal starts at `a(j,j) + jitter`
    /// and subtracts `L(j,k)²` term by term in ascending `k`; an
    /// off-diagonal subtracts one sequential ascending-`k` dot product
    /// (itself a fold from 0.0) from `a(i,j)` in a single operation. The
    /// blocked code keeps those exact accumulation sequences — panel `acc`
    /// slots start at 0.0 and receive products in ascending `k` across
    /// panel boundaries, diagonals subtract term by term — and only
    /// regroups *which loop iteration* performs each add, never the adds
    /// themselves. What it buys: the panel of already-final columns is
    /// packed transposed so the inner kernel is a contiguous vectorizable
    /// multi-accumulator AXPY instead of a strided latency-bound chain,
    /// and each `L` row is streamed once per (column-panel, k-panel) pair
    /// instead of once per column.
    fn factor(a: &Matrix, jitter: f64) -> Result<Self, LinalgError> {
        Self::check_input(a, jitter)?;
        let n = a.rows();
        // Panel width (columns factored together) and k-panel depth (how
        // much history is packed per pass). Schedule-only knobs: any values
        // produce identical bits; these keep the pack (NB·KB doubles) and
        // one history row segment inside L1/L2.
        const NB: usize = 64;
        const KB: usize = 128;
        // Small matrices fit in cache whole and the session hot path
        // factors them by the hundreds; the panel buffers would cost more
        // than the O(n³) work. Same bits either way (the parity tests
        // cover n ≤ NB), so dispatch on size freely.
        if n <= NB {
            return Self::factor_reference(a, jitter);
        }
        let mut l = Matrix::zeros(n, n);
        let nb_cap = NB.min(n.max(1));
        // acc[(i − jb)·nb + jj] accumulates Σ_k L(i,k)·L(j,k) for column
        // j = jb + jj, ascending k, starting from 0.0 — the same fold the
        // reference dot performs.
        let mut acc = vec![0.0f64; n * nb_cap];
        // dacc[jj] is the diagonal accumulator: a(j,j) + jitter minus
        // L(j,k)² term by term, ascending k.
        let mut dacc = vec![0.0f64; nb_cap];
        // Transposed pack of the panel rows over one k-panel:
        // pack[kk·nb + jj] = L(jb + jj, kb + kk).
        let mut pack = vec![0.0f64; nb_cap * KB];
        // Fresh in-panel column cache for the right-looking update.
        let mut colv = vec![0.0f64; nb_cap];

        let mut jb = 0;
        while jb < n {
            let je = (jb + NB).min(n);
            let nb = je - jb;
            let span = n - jb;
            acc[..span * nb].fill(0.0);
            for (jj, d) in dacc[..nb].iter_mut().enumerate() {
                *d = a[(jb + jj, jb + jj)] + jitter;
            }

            // Phase A: fold the already-final history columns k < jb into
            // the panel accumulators, one k-panel at a time.
            let mut kb = 0;
            while kb < jb {
                let ke = (kb + KB).min(jb);
                let klen = ke - kb;
                for jj in 0..nb {
                    let row = &l.as_slice()[(jb + jj) * n + kb..(jb + jj) * n + ke];
                    for (kk, &v) in row.iter().enumerate() {
                        pack[kk * nb + jj] = v;
                    }
                }
                for (jj, d) in dacc[..nb].iter_mut().enumerate() {
                    for kk in 0..klen {
                        let v = pack[kk * nb + jj];
                        *d -= v * v;
                    }
                }
                for i in (jb + 1)..n {
                    // Rows inside the panel only feed columns j < i; the
                    // unused high slots are never read.
                    let jjmax = nb.min(i - jb);
                    let li = &l.as_slice()[i * n + kb..i * n + ke];
                    let arow = &mut acc[(i - jb) * nb..(i - jb) * nb + jjmax];
                    for (kk, &lik) in li.iter().enumerate() {
                        let prow = &pack[kk * nb..kk * nb + jjmax];
                        for (av, pv) in arow.iter_mut().zip(prow) {
                            *av += lik * *pv;
                        }
                    }
                }
                kb = ke;
            }

            // Phase B: factor the panel columns left to right, folding each
            // fresh column into the remaining panel accumulators (k = j,
            // still ascending) before moving on.
            for jj in 0..nb {
                let j = jb + jj;
                let d = dacc[jj];
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
                }
                let dj = d.sqrt();
                l[(j, j)] = dj;
                for i in (j + 1)..n {
                    let s = a[(i, j)] - acc[(i - jb) * nb + jj];
                    l[(i, j)] = s / dj;
                }
                for jj2 in (jj + 1)..nb {
                    colv[jj2] = l[(jb + jj2, j)];
                }
                for (jj2, d) in dacc.iter_mut().enumerate().take(nb).skip(jj + 1) {
                    let v = colv[jj2];
                    *d -= v * v;
                }
                for i in (j + 1)..n {
                    let jjmax = nb.min(i - jb);
                    if jjmax <= jj + 1 {
                        continue;
                    }
                    let lij = l[(i, j)];
                    let arow = &mut acc[(i - jb) * nb + jj + 1..(i - jb) * nb + jjmax];
                    for (av, cv) in arow.iter_mut().zip(&colv[jj + 1..jjmax]) {
                        *av += lij * *cv;
                    }
                }
            }
            jb = je;
        }
        Ok(Cholesky { l, jitter })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Jitter added to the diagonal during factorization.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solve `L z = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_lower",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut z = b.to_vec();
        for i in 0..n {
            let row = self.l.row(i);
            let s = crate::ops::dot(&row[..i], &z[..i]);
            z[i] = (z[i] - s) / row[i];
        }
        Ok(z)
    }

    /// Solve `Lᵀ x = b` (backward substitution).
    ///
    /// `Lᵀ`'s rows are `L`'s columns, so the textbook loop walks `L` with
    /// stride `n` and misses cache on every term. This version processes
    /// rows in descending blocks and packs the below-block panel of `L`
    /// transposed via row-contiguous reads, so the long inner products run
    /// over contiguous memory. Each subtraction `s -= L(k,i)·x[k]` still
    /// happens in ascending `k` per row `i`, so the result is bitwise
    /// identical to the reference loop (pinned by a parity test).
    pub fn solve_upper(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_upper",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        const SB: usize = 64;
        let ld = self.l.as_slice();
        let mut x = b.to_vec();
        let mut panel = vec![0.0f64; SB * n.saturating_sub(SB)];
        let nblocks = n.div_ceil(SB);
        for blk in (0..nblocks).rev() {
            let ib = blk * SB;
            let ie = (ib + SB).min(n);
            let tail = n - ie;
            // panel[(i − ib)·tail + (k − ie)] = L(k, i), filled by streaming
            // the below-block rows of L once, contiguously.
            for k in ie..n {
                let lrow = &ld[k * n + ib..k * n + ie];
                for (ii, &v) in lrow.iter().enumerate() {
                    panel[ii * tail + (k - ie)] = v;
                }
            }
            for i in (ib..ie).rev() {
                let mut s = x[i];
                // Within-block terms: a short column walk that stays in
                // cache (at most SB rows tall).
                for k in (i + 1)..ie {
                    s -= ld[k * n + i] * x[k];
                }
                // Below-block terms from the packed contiguous panel row.
                let prow = &panel[(i - ib) * tail..(i - ib) * tail + tail];
                for (pv, xv) in prow.iter().zip(&x[ie..]) {
                    s -= pv * xv;
                }
                x[i] = s / ld[i * n + i];
            }
        }
        Ok(x)
    }

    /// Solve the full system `A x = b` via the factor (`L Lᵀ x = b`).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let z = self.solve_lower(b)?;
        self.solve_upper(&z)
    }

    /// Solve `A X = B` for every column of `B` at once.
    ///
    /// Bitwise identical to calling [`Cholesky::solve`] on each column
    /// (DESIGN §13): the forward and back sweeps run over all columns
    /// together, but every element keeps the accumulation order of the
    /// single-column solves.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        if b.rows() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_matrix",
                lhs: (self.dim(), self.dim()),
                rhs: b.shape(),
            });
        }
        let mut x = b.clone();
        self.forward_sweep(&mut x, false);
        self.back_sweep(&mut x);
        Ok(x)
    }

    /// Multi-right-hand-side forward substitution `Z = L⁻¹ B`, in place over
    /// the row-major `n×m` buffer `z`.
    ///
    /// Row `i` of `Z` is `(B(i,·) − Σ_{k<i} L(i,k)·Z(k,·)) / L(i,i)`. The sum
    /// runs as contiguous AXPYs over all columns, in ascending `k`, from the
    /// value `Iterator::sum::<f64>` folds from — exactly the accumulator
    /// [`Cholesky::solve_lower`]'s `ops::dot` builds for each column. Four
    /// `k` share one pass over the accumulator row; each element still adds
    /// their products one at a time in ascending `k`.
    ///
    /// With `lower_rhs`, row `k` of `B` is taken to be zero beyond column `k`
    /// (the identity), so row `k` of `Z` is too and its AXPY stops there.
    /// Skipping those exact-zero products, or adding a few of them, cannot
    /// change a bit: they only meet a still-zero accumulator, whose sign is
    /// lost at the first non-zero term or in the final `B(i,j) − acc` with
    /// `B(i,j) ∈ {0, 1}`.
    fn forward_sweep(&self, z: &mut Matrix, lower_rhs: bool) {
        let n = self.dim();
        let m = z.cols();
        let start: f64 = std::iter::empty::<f64>().sum();
        let width = |k: usize| if lower_rhs { (k + 1).min(m) } else { m };
        let mut acc = vec![start; m];
        for i in 0..n {
            let wi = width(i);
            acc[..wi].fill(start);
            let lrow = self.l.row(i);
            let (done, rest) = z.as_mut_slice().split_at_mut(i * m);
            let zrow = |k: usize, w: usize| &done[k * m..k * m + w];
            let mut k = 0;
            while k + 4 <= i {
                let w = width(k + 3);
                let (z0, z1, z2, z3) = (zrow(k, w), zrow(k + 1, w), zrow(k + 2, w), zrow(k + 3, w));
                let (l0, l1, l2, l3) = (lrow[k], lrow[k + 1], lrow[k + 2], lrow[k + 3]);
                for ((((a, &v0), &v1), &v2), &v3) in
                    acc[..w].iter_mut().zip(z0).zip(z1).zip(z2).zip(z3)
                {
                    *a = *a + l0 * v0 + l1 * v1 + l2 * v2 + l3 * v3;
                }
                k += 4;
            }
            for (k, &lik) in lrow.iter().enumerate().take(i).skip(k) {
                let w = width(k);
                for (a, &v) in acc[..w].iter_mut().zip(zrow(k, w)) {
                    *a += lik * v;
                }
            }
            let lii = lrow[i];
            for (zv, &a) in rest[..wi].iter_mut().zip(&acc[..wi]) {
                *zv = (*zv - a) / lii;
            }
        }
    }

    /// Multi-right-hand-side back substitution `X = L⁻ᵀ Z`, in place.
    ///
    /// Rows go in descending `i`; row `i` starts from `Z(i,·)` and subtracts
    /// `L(k,i)·X(k,·)` term by term in ascending `k > i`, then divides by
    /// `L(i,i)` — per element the exact sequence of
    /// [`Cholesky::solve_upper`]. As in the forward sweep, four `k` share
    /// one pass over row `i`.
    fn back_sweep(&self, x: &mut Matrix) {
        let n = self.dim();
        let m = x.cols();
        let ld = self.l.as_slice();
        for i in (0..n).rev() {
            let (head, done) = x.as_mut_slice().split_at_mut((i + 1) * m);
            let xi = &mut head[i * m..];
            let xrow = |k: usize| &done[(k - i - 1) * m..(k - i) * m];
            let lcol = |k: usize| ld[k * n + i];
            let mut k = i + 1;
            while k + 4 <= n {
                let (x0, x1, x2, x3) = (xrow(k), xrow(k + 1), xrow(k + 2), xrow(k + 3));
                let (l0, l1, l2, l3) = (lcol(k), lcol(k + 1), lcol(k + 2), lcol(k + 3));
                for ((((s, &v0), &v1), &v2), &v3) in xi.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
                    *s = *s - l0 * v0 - l1 * v1 - l2 * v2 - l3 * v3;
                }
                k += 4;
            }
            for k in k..n {
                let lki = lcol(k);
                for (s, &v) in xi.iter_mut().zip(xrow(k)) {
                    *s -= lki * v;
                }
            }
            let lii = ld[i * n + i];
            for s in xi.iter_mut() {
                *s /= lii;
            }
        }
    }

    /// `log |A| = 2 Σ log L_ii` — the model-complexity term of the paper's
    /// Eq. 8.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Quadratic form `bᵀ A⁻¹ b` computed stably as `‖L⁻¹ b‖²`.
    pub fn quad_form(&self, b: &[f64]) -> Result<f64, LinalgError> {
        let z = self.solve_lower(b)?;
        Ok(crate::ops::dot(&z, &z))
    }

    /// Explicit inverse `A⁻¹` (used by the LML gradient, which needs the
    /// full matrix `K⁻¹` once per gradient evaluation).
    ///
    /// Bitwise identical to `solve_matrix(&Matrix::identity(n))`, but the
    /// forward sweep skips the known-zero upper triangle of `L⁻¹`, so it
    /// costs `n³/6` multiply-adds instead of `n³/2`.
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let mut x = Matrix::identity(self.dim());
        self.forward_sweep(&mut x, true);
        self.back_sweep(&mut x);
        Ok(x)
    }

    /// Reconstruct `L Lᵀ` (test helper; includes the jitter on the diagonal).
    pub fn reconstruct(&self) -> Result<Matrix, LinalgError> {
        let lt = self.l.transpose();
        self.l.matmul(&lt)
    }

    /// Extend the factorization of `A` to that of the bordered matrix
    /// `[[A, b], [bᵀ, c]]` in `O(n²)` — the incremental update that lets
    /// active learning grow its kernel matrix one acquired sample at a
    /// time instead of refactoring from scratch (`O(n³)`).
    ///
    /// Fails with [`LinalgError::NotPositiveDefinite`] when the bordered
    /// matrix is not SPD (callers should fall back to a fresh
    /// [`Cholesky::with_jitter`] factorization).
    pub fn extend(&mut self, b: &[f64], c: f64) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "extend",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // New bottom row: L w = b, pivot d = sqrt(c − ‖w‖²).
        let w = self.solve_lower(b)?;
        let d2 = c - crate::ops::dot(&w, &w);
        if d2 <= 0.0 || !d2.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: n,
                value: d2,
            });
        }
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            let (src, dst) = (self.l.row(i), l.row_mut(i));
            dst[..n].copy_from_slice(src);
        }
        let last = l.row_mut(n);
        last[..n].copy_from_slice(&w);
        last[n] = d2.sqrt();
        self.l = l;
        Ok(())
    }

    /// Remove row and column `index` from the factored matrix in `O(n²)` —
    /// the inverse of [`Cholesky::extend`], letting active learning evict
    /// a sample from its kernel matrix without an `O(n³)` refactorization.
    ///
    /// Write `L` partitioned around row `index` as
    /// `[[L₁₁, 0, 0], [lᵀ, d, 0], [L₃₁, c, S]]`. Deleting row/column
    /// `index` of `A = L Lᵀ` leaves the leading rows `L₁₁`, `L₃₁`
    /// untouched, while the trailing block becomes
    /// `L₃₁ L₃₁ᵀ + S Sᵀ + c cᵀ` — so the new trailing factor `L̃` must
    /// satisfy `L̃ L̃ᵀ = S Sᵀ + c cᵀ`, an *additive* rank-1 update of `S`
    /// with the deleted subdiagonal column `c` as carrier. That update is
    /// computed with the standard Givens-style recurrence, which is
    /// unconditionally stable (every rotation grows the diagonal).
    /// Removing the last row (`index == n − 1`) is a pure truncation and
    /// round-trips [`Cholesky::extend`] bitwise. The jitter recorded at
    /// factorization time is preserved: the result factors the same
    /// `A + jitter·I` with one row/column deleted.
    pub fn downdate(&mut self, index: usize) -> Result<(), LinalgError> {
        let n = self.dim();
        if index >= n {
            return Err(LinalgError::ShapeMismatch {
                op: "downdate",
                lhs: (n, n),
                rhs: (index, 1),
            });
        }
        let m = n - index - 1;
        // Carrier: the deleted column below its pivot.
        let mut x: Vec<f64> = (0..m).map(|t| self.l[(index + 1 + t, index)]).collect();
        // Copy L minus row/column `index`.
        let mut l = Matrix::zeros(n - 1, n - 1);
        for i in 0..index {
            l.row_mut(i)[..=i].copy_from_slice(&self.l.row(i)[..=i]);
        }
        for i in (index + 1)..n {
            let src = self.l.row(i);
            let dst = l.row_mut(i - 1);
            dst[..index].copy_from_slice(&src[..index]);
            dst[index..i].copy_from_slice(&src[index + 1..=i]);
        }
        // Rank-1 update of the trailing block: L̃ L̃ᵀ = S Sᵀ + x xᵀ.
        for k in 0..m {
            let r = index + k;
            let lkk = l[(r, r)];
            let xk = x[k];
            let h = (lkk * lkk + xk * xk).sqrt();
            if h <= 0.0 || !h.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: r, value: h });
            }
            let c = h / lkk;
            let s = xk / lkk;
            l[(r, r)] = h;
            for (off, xi) in x[k + 1..m].iter_mut().enumerate() {
                let ri = index + k + 1 + off;
                let v = (l[(ri, r)] + s * *xi) / c;
                *xi = c * *xi - s * v;
                l[(ri, r)] = v;
            }
        }
        self.l = l;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for a fixed B is SPD by construction.
        Matrix::from_vec(3, 3, vec![5.0, 2.0, 1.0, 2.0, 6.0, 2.0, 1.0, 2.0, 4.0])
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let r = ch.reconstruct().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-12, "entry ({i},{j})");
            }
        }
        assert_eq!(ch.jitter(), 0.0);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_matrix_and_inverse() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let inv = ch.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let eye = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert!((prod[(i, j)] - eye[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn log_det_matches_2x2_formula() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 1.0, 1.0, 3.0]);
        let ch = Cholesky::new(&a).unwrap();
        let det = 4.0 * 3.0 - 1.0;
        assert!((ch.log_det() - f64::ln(det)).abs() < 1e-12);
    }

    #[test]
    fn quad_form_matches_direct() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = ch.solve(&b).unwrap();
        let direct = crate::ops::dot(&b, &x);
        assert!((ch.quad_form(&b).unwrap() - direct).abs() < 1e-10);
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite_matrix() {
        // Rank-1: ones * onesᵀ, singular, needs jitter.
        let a = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let ch = Cholesky::with_jitter(&a, 1e-10, 1e-2).unwrap();
        assert!(ch.jitter() > 0.0);
        // Reconstruction equals A + jitter·I.
        let r = ch.reconstruct().unwrap();
        assert!((r[(0, 0)] - (1.0 + ch.jitter())).abs() < 1e-9);
        assert!((r[(0, 1)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn jitter_gives_up_past_max() {
        let a = Matrix::from_vec(2, 2, vec![-1.0, 0.0, 0.0, -1.0]);
        assert!(Cholesky::with_jitter(&a, 1e-10, 1e-6).is_err());
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let ch = Cholesky::new(&spd3()).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
        assert!(ch.solve_lower(&[1.0]).is_err());
        assert!(ch.solve_upper(&[1.0]).is_err());
        assert!(ch.solve_matrix(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn extend_matches_fresh_factorization() {
        let a = spd3();
        // Bordered matrix: append column b and diagonal c keeping SPD.
        let b = vec![0.5, -0.3, 0.8];
        let c = 7.0;
        let mut bordered = Matrix::zeros(4, 4);
        for i in 0..3 {
            for j in 0..3 {
                bordered[(i, j)] = a[(i, j)];
            }
            bordered[(i, 3)] = b[i];
            bordered[(3, i)] = b[i];
        }
        bordered[(3, 3)] = c;

        let mut incremental = Cholesky::new(&a).unwrap();
        incremental.extend(&b, c).unwrap();
        let fresh = Cholesky::new(&bordered).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (incremental.l()[(i, j)] - fresh.l()[(i, j)]).abs() < 1e-12,
                    "L({i},{j})"
                );
            }
        }
        assert!((incremental.log_det() - fresh.log_det()).abs() < 1e-12);
        // Solves agree too.
        let rhs = vec![1.0, 2.0, 3.0, 4.0];
        let xi = incremental.solve(&rhs).unwrap();
        let xf = fresh.solve(&rhs).unwrap();
        for (a, b) in xi.iter().zip(&xf) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn extend_rejects_non_spd_border() {
        let a = spd3();
        let mut ch = Cholesky::new(&a).unwrap();
        // c too small: bordered matrix loses positive definiteness.
        assert!(matches!(
            ch.extend(&[10.0, 10.0, 10.0], 1.0),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        // Wrong border length.
        let mut ch = Cholesky::new(&a).unwrap();
        assert!(matches!(
            ch.extend(&[1.0], 5.0),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn repeated_extension_grows_from_scalar() {
        // Build a 3x3 SPD factor one row at a time from a 1x1 seed.
        let a = spd3();
        let mut ch = Cholesky::new(&Matrix::from_vec(1, 1, vec![a[(0, 0)]])).unwrap();
        ch.extend(&[a[(0, 1)]], a[(1, 1)]).unwrap();
        ch.extend(&[a[(0, 2)], a[(1, 2)]], a[(2, 2)]).unwrap();
        let fresh = Cholesky::new(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((ch.l()[(i, j)] - fresh.l()[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lower_and_upper_solves_are_consistent() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = vec![0.5, 1.5, -1.0];
        let z = ch.solve_lower(&b).unwrap();
        // L z should reproduce b.
        let lz = ch.l().matvec(&z).unwrap();
        for (got, want) in lz.iter().zip(&b) {
            assert!((got - want).abs() < 1e-12);
        }
        let x = ch.solve_upper(&b).unwrap();
        let ltx = ch.l().transpose().matvec(&x).unwrap();
        for (got, want) in ltx.iter().zip(&b) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    /// Deterministic dense SPD matrix: `B Bᵀ + n·I` for a sin-sequence `B`.
    fn spd_random(n: usize, seed: u64) -> Matrix {
        let data: Vec<f64> = (0..n * n)
            .map(|i| ((i as f64) * 0.37 + seed as f64 * 1.7).sin())
            .collect();
        let b = Matrix::from_vec(n, n, data);
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    fn assert_factors_bitwise_equal(blocked: &Cholesky, reference: &Cholesky) {
        assert_eq!(blocked.dim(), reference.dim());
        for i in 0..blocked.dim() {
            for j in 0..blocked.dim() {
                assert_eq!(
                    blocked.l()[(i, j)].to_bits(),
                    reference.l()[(i, j)].to_bits(),
                    "L({i},{j}) diverges: blocked {} vs reference {}",
                    blocked.l()[(i, j)],
                    reference.l()[(i, j)],
                );
            }
        }
    }

    #[test]
    fn blocked_factor_matches_reference_bitwise() {
        // Sizes straddle every tiling boundary: sub-panel, exactly one
        // panel (64), one panel plus a remainder, more than one k-panel
        // of history (> 128 + 64).
        for &n in &[1usize, 2, 3, 5, 17, 63, 64, 65, 130, 200] {
            let a = spd_random(n, n as u64);
            let blocked = Cholesky::new(&a).unwrap();
            let reference = Cholesky::new_reference(&a).unwrap();
            assert_factors_bitwise_equal(&blocked, &reference);
        }
    }

    #[test]
    fn blocked_factor_with_jitter_matches_reference_bitwise() {
        // Rank-5 Gram matrix: singular, so with_jitter must escalate.
        let n = 90;
        let data: Vec<f64> = (0..n * 5)
            .map(|i| ((i as f64) * 0.43 + 0.2).sin())
            .collect();
        let b = Matrix::from_vec(n, 5, data);
        let a = b.matmul(&b.transpose()).unwrap();
        let blocked = Cholesky::with_jitter(&a, 1e-10, 1e-2).unwrap();
        let reference = Cholesky::factor_reference(&a, blocked.jitter()).unwrap();
        assert!(blocked.jitter() > 0.0);
        assert_factors_bitwise_equal(&blocked, &reference);
    }

    #[test]
    fn blocked_factor_error_matches_reference_bitwise() {
        // Break definiteness past the first panel so the failure exercises
        // the phase-A history path before pivoting.
        let n = 130;
        let mut a = spd_random(n, 3);
        a[(97, 97)] = -500.0;
        let blocked = Cholesky::new(&a);
        let reference = Cholesky::new_reference(&a);
        match (blocked, reference) {
            (
                Err(LinalgError::NotPositiveDefinite {
                    pivot: pb,
                    value: vb,
                }),
                Err(LinalgError::NotPositiveDefinite {
                    pivot: pr,
                    value: vr,
                }),
            ) => {
                assert_eq!(pb, pr);
                assert_eq!(vb.to_bits(), vr.to_bits());
            }
            other => panic!("expected matching NotPositiveDefinite errors, got {other:?}"),
        }
    }

    #[test]
    fn solve_upper_matches_reference_bitwise() {
        // The pre-blocking backward substitution, verbatim.
        fn solve_upper_reference(ch: &Cholesky, b: &[f64]) -> Vec<f64> {
            let n = ch.dim();
            let mut x = b.to_vec();
            for i in (0..n).rev() {
                let mut s = x[i];
                for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                    s -= ch.l()[(k, i)] * xk;
                }
                x[i] = s / ch.l()[(i, i)];
            }
            x
        }
        for &n in &[1usize, 5, 63, 64, 65, 130, 200] {
            let a = spd_random(n, 11 + n as u64);
            let ch = Cholesky::new(&a).unwrap();
            let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.9 - 1.0).cos()).collect();
            let fast = ch.solve_upper(&b).unwrap();
            let slow = solve_upper_reference(&ch, &b);
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(f.to_bits(), s.to_bits(), "x[{i}] diverges at n={n}");
            }
        }
    }

    /// The column-by-column `solve_matrix` that the multi-RHS sweeps
    /// replaced, verbatim: the parity oracle for `solve_matrix` and
    /// `inverse` (which was `solve_matrix(identity)`).
    fn solve_matrix_reference(ch: &Cholesky, b: &Matrix) -> Matrix {
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

    fn assert_matrices_bitwise_equal(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        let cols = got.cols();
        for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            let (i, j) = (idx / cols, idx % cols);
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: ({i},{j}) diverges: {g} vs oracle {w}"
            );
        }
    }

    /// Deterministic `n×m` right-hand side with mixed signs. Every fifth
    /// entry is `-0.0`, whose sign survives `-0.0 − acc` only if the
    /// accumulator starts where `ops::dot` starts.
    fn rhs(n: usize, m: usize, seed: u64) -> Matrix {
        let data: Vec<f64> = (0..n * m)
            .map(|i| match i % 5 {
                0 => -0.0,
                _ => ((i as f64) * 0.61 + seed as f64).cos() * 3.0,
            })
            .collect();
        Matrix::from_vec(n, m, data)
    }

    #[test]
    fn multi_rhs_sweeps_match_column_oracle_bitwise() {
        // Paper-scale sizes (n = 200, 250) live in tests/props.rs; these stay
        // small enough for the Miri job.
        for &n in &[0usize, 1, 2, 5, 17, 63, 64, 65, 130] {
            let ch = Cholesky::new(&spd_random(n, 7 + n as u64)).unwrap();
            let want = solve_matrix_reference(&ch, &Matrix::identity(n));
            assert_matrices_bitwise_equal(&ch.inverse().unwrap(), &want, &format!("inverse n={n}"));
            for m in [0usize, 1, 7] {
                let b = rhs(n, m, n as u64 + m as u64);
                let got = ch.solve_matrix(&b).unwrap();
                let want = solve_matrix_reference(&ch, &b);
                assert_matrices_bitwise_equal(&got, &want, &format!("solve_matrix {n}x{m}"));
            }
        }
        // Wider than tall.
        let ch = Cholesky::new(&spd_random(17, 2)).unwrap();
        let b = rhs(17, 40, 5);
        let want = solve_matrix_reference(&ch, &b);
        assert_matrices_bitwise_equal(&ch.solve_matrix(&b).unwrap(), &want, "solve_matrix 17x40");
    }

    #[test]
    fn inverse_of_jittered_factor_matches_column_oracle_bitwise() {
        // The rank-5 Gram of the jittered-factor parity test: K⁻¹ of a
        // barely regularized matrix has huge, cancellation-prone entries.
        let n = 90;
        let data: Vec<f64> = (0..n * 5)
            .map(|i| ((i as f64) * 0.43 + 0.2).sin())
            .collect();
        let b = Matrix::from_vec(n, 5, data);
        let a = b.matmul(&b.transpose()).unwrap();
        let ch = Cholesky::with_jitter(&a, 1e-10, 1e-2).unwrap();
        assert!(ch.jitter() > 0.0);
        let want = solve_matrix_reference(&ch, &Matrix::identity(n));
        assert_matrices_bitwise_equal(&ch.inverse().unwrap(), &want, "jittered inverse");
        let b = rhs(n, 3, 1);
        let want = solve_matrix_reference(&ch, &b);
        assert_matrices_bitwise_equal(&ch.solve_matrix(&b).unwrap(), &want, "jittered solve");
    }

    fn delete_row_col(a: &Matrix, index: usize) -> Matrix {
        let n = a.rows();
        let mut out = Matrix::zeros(n - 1, n - 1);
        for i in 0..n - 1 {
            for j in 0..n - 1 {
                let si = if i < index { i } else { i + 1 };
                let sj = if j < index { j } else { j + 1 };
                out[(i, j)] = a[(si, sj)];
            }
        }
        out
    }

    #[test]
    fn downdate_last_row_roundtrips_extend_bitwise() {
        let a = spd_random(12, 5);
        let before = Cholesky::new(&a).unwrap();
        let mut ch = before.clone();
        let b: Vec<f64> = (0..12).map(|i| 0.1 * (i as f64 + 1.0)).collect();
        ch.extend(&b, 30.0).unwrap();
        ch.downdate(12).unwrap();
        assert_factors_bitwise_equal(&ch, &before);
    }

    #[test]
    fn downdate_interior_matches_fresh_factorization() {
        for &(n, index) in &[(6usize, 0usize), (9, 4), (40, 17), (70, 66)] {
            let a = spd_random(n, n as u64 + index as u64);
            let mut ch = Cholesky::new(&a).unwrap();
            ch.downdate(index).unwrap();
            let fresh = Cholesky::new(&delete_row_col(&a, index)).unwrap();
            for i in 0..n - 1 {
                for j in 0..n - 1 {
                    assert!(
                        (ch.l()[(i, j)] - fresh.l()[(i, j)]).abs() < 1e-8,
                        "L({i},{j}) after removing {index} from n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn downdate_preserves_jitter() {
        // Semidefinite: ones * onesᵀ needs jitter to factor.
        let a = Matrix::from_vec(3, 3, vec![1.0; 9]);
        let mut ch = Cholesky::with_jitter(&a, 1e-10, 1e-2).unwrap();
        let jitter = ch.jitter();
        assert!(jitter > 0.0);
        ch.downdate(1).unwrap();
        assert_eq!(ch.jitter(), jitter);
        // The result factors the 2x2 submatrix of A + jitter·I.
        let r = ch.reconstruct().unwrap();
        assert!((r[(0, 0)] - (1.0 + jitter)).abs() < 1e-9);
        assert!((r[(0, 1)] - 1.0).abs() < 1e-9);
        assert!((r[(1, 1)] - (1.0 + jitter)).abs() < 1e-9);
    }

    #[test]
    fn downdate_handles_edges() {
        // Shrinking to the empty factor is allowed.
        let mut ch = Cholesky::new(&Matrix::from_vec(1, 1, vec![4.0])).unwrap();
        ch.downdate(0).unwrap();
        assert_eq!(ch.dim(), 0);
        // Out-of-range index is a shape error.
        let mut ch = Cholesky::new(&spd3()).unwrap();
        assert!(matches!(
            ch.downdate(3),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }
}
