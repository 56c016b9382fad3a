use crate::counters;
use crate::solve::{
    backward_transposed, forward, solve_lower, solve_lower_multi, solve_lower_tail_pages,
    solve_lower_transposed,
};
use crate::{LinalgError, Matrix, Result};

/// Panel width of the blocked factorization: every inner product is
/// split into segments that start on a multiple of `CHOL_BLOCK` (see
/// [`Cholesky::factor_in_place`]), so the full segments have exactly
/// this length, enough to amortize [`dot_finish`]'s reduction over the
/// accumulator lanes.
const CHOL_BLOCK: usize = 256;

/// Rows of the left-looking sweep factored together. Each finished row
/// is streamed once per tile and dotted against all `CHOL_TILE` tile
/// rows by [`dot_unrolled_tile`], dividing the sweep's memory traffic by
/// the tile height. The tile rows are read in place (no copies); their
/// prefixes, `CHOL_TILE` rows of at most `n` doubles, stay L1-resident.
const CHOL_TILE: usize = 4;

/// Inner product with 32 independent accumulators. Breaking the single
/// serial addition chain lets the factorization's O(n³) inner products
/// pipeline and vectorize — 32 lanes give four loop-carried chains even
/// at the widest (8-lane) vector registers, enough to hide the add
/// latency — which is where kernel-matrix factorization spends nearly
/// all of its time. The tradeoff is that the accumulation order differs
/// from a plain left-to-right sum, so results agree with a serial
/// evaluation only to floating-point round-off. The lane grouping and
/// the reduction ([`dot_finish`]) are fixed, so results are identical
/// whatever vector width the compiler picks.
#[inline]
fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    let n32 = a.len() & !31;
    let mut acc = [0.0f64; 32];
    for (ca, cb) in a[..n32].chunks_exact(32).zip(b[..n32].chunks_exact(32)) {
        for l in 0..32 {
            acc[l] += ca[l] * cb[l];
        }
    }
    dot_finish(acc, &a[n32..], &b[n32..])
}

/// [`dot_unrolled`] of each of `CHOL_TILE` rows against one shared `b`:
/// element `t` is bit-identical to `dot_unrolled(a[t], b)`. The four
/// accumulator sets are separate locals, so their chains stay
/// independent and each 32-wide chunk of `b` is loaded once for all
/// rows.
///
/// Every `a[t]` must be at least `b.len()` long; only that prefix is
/// read.
#[inline]
fn dot_unrolled_tile(a: [&[f64]; CHOL_TILE], b: &[f64]) -> [f64; CHOL_TILE] {
    let n = b.len();
    let n32 = n & !31;
    let (mut c0, mut c1, mut c2, mut c3) = ([0.0f64; 32], [0.0f64; 32], [0.0f64; 32], [0.0f64; 32]);
    let [a0, a1, a2, a3] = a;
    for ((((cb, r0), r1), r2), r3) in b[..n32]
        .chunks_exact(32)
        .zip(a0[..n32].chunks_exact(32))
        .zip(a1[..n32].chunks_exact(32))
        .zip(a2[..n32].chunks_exact(32))
        .zip(a3[..n32].chunks_exact(32))
    {
        for l in 0..32 {
            c0[l] += r0[l] * cb[l];
            c1[l] += r1[l] * cb[l];
            c2[l] += r2[l] * cb[l];
            c3[l] += r3[l] * cb[l];
        }
    }
    let tail = &b[n32..];
    [
        dot_finish(c0, &a0[n32..n], tail),
        dot_finish(c1, &a1[n32..n], tail),
        dot_finish(c2, &a2[n32..n], tail),
        dot_finish(c3, &a3[n32..n], tail),
    ]
}

/// The reduction shared by [`dot_unrolled`] and [`dot_unrolled_tile`]:
/// given the 32 lane sums of the 32-multiple prefix and the remaining
/// (< 32) elements, one 8-lane pass over the remainder's 8-multiple, a
/// pairwise fold 32 → 8 lanes, the 8-lane pass merged in, a fold to one,
/// and a serial sum of the last (< 8) products.
#[inline(always)]
fn dot_finish(mut acc: [f64; 32], a: &[f64], b: &[f64]) -> f64 {
    let n8 = a.len() & !7;
    let mut mid = [0.0f64; 8];
    for (ca, cb) in a[..n8].chunks_exact(8).zip(b[..n8].chunks_exact(8)) {
        for l in 0..8 {
            mid[l] += ca[l] * cb[l];
        }
    }
    for w in [16usize, 8] {
        for l in 0..w {
            acc[l] += acc[l + w];
        }
    }
    for l in 0..8 {
        acc[l] += mid[l];
    }
    for w in [4usize, 2, 1] {
        for l in 0..w {
            acc[l] += acc[l + w];
        }
    }
    let mut s = acc[0];
    for (x, y) in a[n8..].iter().zip(&b[n8..]) {
        s += x * y;
    }
    s
}

/// Visits the segments of an inner product over columns `..j`: the
/// full `CHOL_BLOCK`-wide panels below `j`'s own panel in panel order,
/// then the in-panel prefix `[j − j % CHOL_BLOCK, j)` (skipped when
/// empty: subtracting an empty dot's `+0.0` changes no bits).
#[inline]
fn segments(j: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..j)
        .step_by(CHOL_BLOCK)
        .map(move |k| k..(k + CHOL_BLOCK).min(j))
}

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix.
///
/// This is the workhorse of the Gaussian-process crate: kernel matrices are
/// factored once per fit and then reused for solves, log-determinants, and
/// predictive variances.
///
/// Every constructor runs one factorization path: `A`'s lower triangle is
/// written into a buffer and factored there in place. A caller that
/// factors many matrices of one size (the hyper-parameter search) hands
/// the same buffer to [`Cholesky::new_with_jitter_in`] each time and takes
/// it back with [`Cholesky::into_factor`]. The leading `n × n` block of a
/// factor is the factor of `A`'s leading block, so
/// [`Cholesky::solve_leading_vec`] and [`Cholesky::log_det_leading`] serve
/// that block in place.
///
/// # Example
///
/// ```
/// use linalg::{Matrix, Cholesky};
///
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0],
///                             &[15.0, 18.0,  0.0],
///                             &[-5.0,  0.0, 11.0]])?;
/// let chol = Cholesky::new(&a)?;
/// // Reconstruction: L Lᵀ = A.
/// let l = chol.factor();
/// let rebuilt = l.matmul(&l.transpose())?;
/// assert!((rebuilt.sub(&a)?.max_abs()) < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor; entries above the diagonal are zero.
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; the caller is responsible for
    /// `a` being (numerically) symmetric.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is not square.
    /// - [`LinalgError::InvalidDimension`] if `a` is empty.
    /// - [`LinalgError::NotPositiveDefinite`] if a pivot is ≤ 0 or
    ///   non-finite; the error reports the failing pivot index and value.
    pub fn new(a: &Matrix) -> Result<Self> {
        Cholesky::attempt(a, 0.0, Matrix::default()).map_err(|(e, _)| e)
    }

    /// The factorization core of every [`Cholesky`] constructor: factors,
    /// in place, the row-major `n × n` matrix in `data`, whose lower
    /// triangle holds `A`'s and whose strict upper triangle is zero (and
    /// stays zero). On failure `data` holds a partly factored matrix.
    fn factor_in_place(data: &mut [f64], n: usize) -> Result<()> {
        // One aggregate counter update per factorization attempt (jitter
        // retries redo the work, so each attempt counts).
        counters::add_chol_flops((n as u64).pow(3) / 3);
        counters::add_chol_panels(n.div_ceil(CHOL_BLOCK) as u64);
        // Left-looking blocked factorization. `data` starts as the lower
        // triangle of `a`; entry (i, j), j ≤ i, is finalized as
        //
        //   (((a_ij − d_0) − d_1) … − d_own) / L[j][j]   (sqrt for i = j)
        //
        // where d_q is `dot_unrolled` of rows i and j over panel q's
        // `CHOL_BLOCK` columns, in panel order, and d_own over the
        // in-panel prefix `[j − j % CHOL_BLOCK, j)` (see `segments`).
        // That is exactly the sequence of subtractions a right-looking
        // panel schedule applies (trailing updates, then the diagonal
        // block or panel solve), so the factor is the same bit for bit.
        // Rows go a tile of `CHOL_TILE` at a time: each finished row j
        // is streamed once per tile through `dot_unrolled_tile`, then
        // the triangle inside the tile is filled row by row, so pivots
        // are checked in row order.
        let mut i0 = 0;
        while i0 < n {
            let tile = CHOL_TILE.min(n - i0);
            let (prev, cur) = data.split_at_mut(i0 * n);
            // Columns left of the tile. A short last tile repeats its
            // last row and discards the extra results.
            let row = |t: usize| t.min(tile - 1) * n;
            for j in 0..i0 {
                let row_j = &prev[j * n..j * n + n];
                let mut s = [0.0f64; CHOL_TILE];
                for (t, st) in s.iter_mut().enumerate() {
                    *st = cur[row(t) + j];
                }
                for seg in segments(j) {
                    let rows = std::array::from_fn(|t| &cur[row(t) + seg.start..row(t) + seg.end]);
                    let d = dot_unrolled_tile(rows, &row_j[seg]);
                    for (st, dt) in s.iter_mut().zip(d) {
                        *st -= dt;
                    }
                }
                for (t, st) in s[..tile].iter().enumerate() {
                    cur[t * n + j] = st / row_j[j];
                }
            }
            // The triangle inside the tile (i0 ≤ j ≤ i), row by row.
            for t in 0..tile {
                let i = i0 + t;
                let (above, rest) = cur.split_at_mut(t * n);
                let row_i = &mut rest[..n];
                for u in 0..t {
                    let j = i0 + u;
                    let row_j = &above[u * n..u * n + n];
                    let mut s = row_i[j];
                    for seg in segments(j) {
                        s -= dot_unrolled(&row_i[seg.clone()], &row_j[seg]);
                    }
                    row_i[j] = s / row_j[j];
                }
                let mut s = row_i[i];
                for seg in segments(i) {
                    s -= dot_unrolled(&row_i[seg.clone()], &row_i[seg]);
                }
                if !(s.is_finite() && s > 0.0) {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i, value: s });
                }
                row_i[i] = s.sqrt();
            }
            i0 += tile;
        }
        Ok(())
    }

    /// Factors `a + jitter·I`, retrying with jitter escalated by ×10 up to
    /// `max_tries` times when the factorization fails.
    ///
    /// Kernel matrices are often positive definite only up to rounding; this
    /// is the standard remedy. An unjittered factor whose smallest pivot
    /// lies below `n·ε·max diag(a)` counts as failed too: that pivot is
    /// rounding noise, as when an exactly singular kernel factors only
    /// because rounding left a tiny positive remainder. Returns the
    /// factorization together with the jitter that finally succeeded
    /// (`0.0` when none was needed and `jitter0 <= 0`).
    ///
    /// # Errors
    ///
    /// Propagates the last [`LinalgError::NotPositiveDefinite`] when all
    /// attempts fail, or shape errors immediately.
    pub fn new_with_jitter(a: &Matrix, jitter0: f64, max_tries: usize) -> Result<(Self, f64)> {
        Cholesky::new_with_jitter_in(a, jitter0, max_tries, Matrix::default()).map_err(|(e, _)| e)
    }

    /// [`Cholesky::new_with_jitter`] inside a caller-owned buffer: the
    /// factor is written into `buf`'s storage (of any shape and contents;
    /// it grows only when its capacity is below `n²`), and every jitter
    /// try re-writes `a`'s lower triangle, plus the jitter on the
    /// diagonal, into that same storage. The buffer comes back with the
    /// error on failure, or through [`Cholesky::into_factor`] after
    /// success, so a search that factors one matrix size many times
    /// allocates once.
    ///
    /// Each try writes every entry of the buffer before it factors, so
    /// the factor, the jitter and the error are bit-identical to
    /// [`Cholesky::new_with_jitter`]'s whatever `buf` held.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::new_with_jitter`], each paired with the buffer.
    pub fn new_with_jitter_in(
        a: &Matrix,
        jitter0: f64,
        max_tries: usize,
        buf: Matrix,
    ) -> Result<(Self, f64), (LinalgError, Matrix)> {
        let buf = match Cholesky::attempt(a, 0.0, buf) {
            Ok(c) if !c.has_rounding_pivot(a) => return Ok((c, 0.0)),
            Ok(c) => c.l,
            Err((
                e @ (LinalgError::NotSquare { .. } | LinalgError::InvalidDimension { .. }),
                buf,
            )) => return Err((e, buf)),
            Err((_, buf)) => buf,
        };
        let mut jitter = if jitter0 > 0.0 { jitter0 } else { 1e-10 };
        let mut last = (
            LinalgError::NotPositiveDefinite {
                pivot: 0,
                value: f64::NAN,
            },
            buf,
        );
        for _ in 0..max_tries.max(1) {
            match Cholesky::attempt(a, jitter, last.1) {
                Ok(c) => return Ok((c, jitter)),
                Err(e) => last = e,
            }
            jitter *= 10.0;
        }
        Err(last)
    }

    /// Hands back the factor `L`: the storage a later
    /// [`Cholesky::new_with_jitter_in`] can reuse.
    pub fn into_factor(self) -> Matrix {
        self.l
    }

    /// One factorization attempt of `a + jitter·I` (`jitter = 0` adds
    /// nothing) in `buf`'s storage: writes `a`'s lower triangle and zeroes
    /// above it, then factors in place ([`Cholesky::factor_in_place`]).
    /// On failure the buffer comes back with the error, holding a partly
    /// factored matrix.
    fn attempt(a: &Matrix, jitter: f64, buf: Matrix) -> Result<Self, (LinalgError, Matrix)> {
        if !a.is_square() {
            return Err((LinalgError::NotSquare { shape: a.shape() }, buf));
        }
        let n = a.rows();
        if n == 0 {
            let e = LinalgError::InvalidDimension {
                what: "cholesky of an empty matrix",
            };
            return Err((e, buf));
        }
        let mut data = buf.into_vec();
        data.clear();
        data.reserve(n * n);
        for i in 0..n {
            data.extend_from_slice(&a.row(i)[..=i]);
            data.resize((i + 1) * n, 0.0);
            if jitter > 0.0 {
                data[i * n + i] += jitter;
            }
        }
        let mut l = Matrix::from_vec(n, n, data).expect("the load wrote n × n entries");
        match Cholesky::factor_in_place(l.as_mut_slice(), n) {
            Ok(()) => Ok(Cholesky { l }),
            Err(e) => Err((e, l)),
        }
    }

    /// Whether some pivot `L[i][i]²` of this factor of `a` is below
    /// `n·ε·max diag(a)`, the rounding error of the elimination that
    /// produced it.
    fn has_rounding_pivot(&self, a: &Matrix) -> bool {
        let n = a.rows();
        let max_diag = (0..n).map(|i| a[(i, i)]).fold(0.0, f64::max);
        let floor = n as f64 * f64::EPSILON * max_diag;
        (0..n).any(|i| self.l[(i, i)] * self.l[(i, i)] < floor)
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Dimension `n` of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A₁₁ x = b` for the leading `n × n` principal block `A₁₁`
    /// of `A`, `n = b.len()`, against the first `n` rows of `L` in place:
    /// the two triangular solves of [`Cholesky::solve_vec`], restricted
    /// to those rows, with no copy of the block.
    ///
    /// For a factor produced by [`Cholesky::new`] this is bit-identical to
    /// `Cholesky::new(&a.submatrix(0, n, 0, n))?.solve_vec(b)`. The
    /// factor's leading block is that prefix factorization, bit for bit:
    /// entry (i, j) reads only rows ≤ i, and the segments its inner
    /// products are split into depend only on j, never on the matrix size
    /// or on how the rows fall into tiles. So every entry of the leading
    /// block goes through the same `dot_unrolled` lane sums, over the same
    /// segments and in the same order, whatever the full matrix's size,
    /// across panel boundaries too. A factor grown by
    /// [`Cholesky::extend`] keeps its old rows, so its leading block is
    /// the original factor's.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() > self.dim()`.
    pub fn solve_leading_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() > self.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky leading solve",
                lhs: self.l.shape(),
                rhs: (b.len(), 1),
            });
        }
        let z = forward(&self.l, b)?;
        backward_transposed(&self.l, &z)
    }

    /// Log-determinant of the leading `n × n` principal block of `A`,
    /// `2 Σ_{i<n} log L[i][i]`: bit-identical to the
    /// [`Cholesky::log_det`] of a prefix factorization (see
    /// [`Cholesky::solve_leading_vec`]).
    ///
    /// # Panics
    ///
    /// Panics when `n > self.dim()`.
    pub fn log_det_leading(&self, n: usize) -> f64 {
        (0..n).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Solves `A x = b` via the two triangular solves
    /// `L z = b`, `Lᵀ x = z`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let z = solve_lower(&self.l, b)?;
        solve_lower_transposed(&self.l, &z)
    }

    /// Solves the single triangular system `L z = b` (useful for computing
    /// predictive variances as `‖z‖²` without the second substitution).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_lower_only(&self, b: &[f64]) -> Result<Vec<f64>> {
        solve_lower(&self.l, b)
    }

    /// Solves `L Z = B` for every column of `B` at once, overwriting `b`
    /// with `Z`; each column is bit-identical to
    /// [`Cholesky::solve_lower_only`] of that column (see
    /// [`solve_lower_multi`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_lower_only_multi(&self, b: &mut Matrix) -> Result<()> {
        solve_lower_multi(&self.l, b)
    }

    /// Extends `stride`-wide panels of previously computed `L Z = B`
    /// solutions by the factor's trailing rows, in place: `pages` hold
    /// the solved prefix rows in order, and `tail` the right-hand sides of
    /// the remaining rows, which it holds solved on success. All are
    /// row-major with `stride` values per row, of which lanes `0..lanes`
    /// are solved (see [`solve_lower_tail_pages`]). Because
    /// [`Cholesky::extend`] leaves the old factor rows bit-identical,
    /// every lane equals a from-scratch [`Cholesky::solve_lower_only`] of
    /// its column on the extended system, bit for bit, at O(n·q) instead
    /// of O(n²) cost.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the panels do not add up
    /// to `self.dim()` rows of `stride` values.
    pub fn solve_lower_only_tail_pages<P: AsRef<[f64]>>(
        &self,
        pages: &[P],
        tail: &mut [f64],
        stride: usize,
        lanes: usize,
    ) -> Result<()> {
        solve_lower_tail_pages(&self.l, pages, tail, stride, lanes)
    }

    /// Extends the factorization in place with `k` appended rows/columns:
    /// given the factor of `A₁₁`, produce the factor of
    /// `[[A₁₁, B], [Bᵀ, C]]` where `cross = B` (`n × k`) and
    /// `corner = C` (`k × k`, only its lower triangle is read).
    ///
    /// Cost is O(n²·k + n·k² + k³) — for small `k` effectively one
    /// triangular sweep instead of the O((n+k)³) full refactorization.
    /// The new rows are `L₂₁ = (L₁₁⁻¹B)ᵀ` and
    /// `L₂₂ = chol(C − L₂₁L₂₁ᵀ)`: mathematically exactly the trailing
    /// rows a from-scratch factorization of the extended matrix would
    /// produce, so the extended factor agrees with [`Cholesky::new`] on
    /// the full matrix to floating-point round-off (the inner-product
    /// accumulation orders differ). The old rows keep their bits.
    ///
    /// `L` grows inside its own buffer: the old rows are re-strided from
    /// the last one down, and the buffer grows by at least an eighth when
    /// it is full, so a run of small extensions shares one reallocation.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::ShapeMismatch`] if `cross` is not `n × k` or
    ///   `corner` is not `k × k`.
    /// - [`LinalgError::NotPositiveDefinite`] if the extended matrix is
    ///   not positive definite; the pivot index refers to the extended
    ///   matrix (i.e. it is ≥ `n`).
    ///
    /// Every fallible step runs before `self` is touched, so on error
    /// `self` is left unchanged.
    pub fn extend(&mut self, cross: &Matrix, corner: &Matrix) -> Result<()> {
        let n = self.dim();
        let k = corner.rows();
        if cross.rows() != n || cross.cols() != k || corner.cols() != k {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky extend",
                lhs: cross.shape(),
                rhs: corner.shape(),
            });
        }
        if k == 0 {
            return Ok(());
        }
        // The extension's own O(n²k + nk² + k³/3) work; the inner
        // `solve_lower_multi` and `Cholesky::new(schur)` count their
        // shares through their own instrumentation.
        counters::add_chol_flops((n as u64).pow(2) * k as u64 + n as u64 * (k as u64).pow(2));
        // L₂₁ᵀ: one multi-RHS forward solve. Column r of the solution is
        // row r of L₂₁.
        let mut l21t = cross.clone();
        solve_lower_multi(&self.l, &mut l21t)?;
        // Schur complement C − L₂₁L₂₁ᵀ, then factor it for the
        // (new row, new column) block.
        let schur = Matrix::from_fn(k, k, |r, q| {
            if q > r {
                return 0.0;
            }
            let mut s = corner[(r, q)];
            for p in 0..n {
                s -= l21t[(p, r)] * l21t[(p, q)];
            }
            s
        });
        let l22 = Cholesky::new(&schur).map_err(|e| match e {
            LinalgError::NotPositiveDefinite { pivot, value } => LinalgError::NotPositiveDefinite {
                pivot: pivot + n,
                value,
            },
            other => other,
        })?;
        let m = n + k;
        let mut data = std::mem::replace(&mut self.l, Matrix::zeros(0, 0)).into_vec();
        let need = m * m - data.len();
        if data.capacity() - data.len() < need {
            data.reserve_exact(need.max(data.len() / 8));
        }
        data.resize(m * m, 0.0);
        // Row i moves from offset i·n to i·m ≥ i·n; going from the last
        // row down, no row is overwritten before it has moved.
        for i in (0..n).rev() {
            data.copy_within(i * n..i * n + n, i * m);
            data[i * m + n..(i + 1) * m].fill(0.0);
        }
        for (r, row) in data[n * m..].chunks_exact_mut(m).enumerate() {
            for (p, x) in row[..n].iter_mut().enumerate() {
                *x = l21t[(p, r)];
            }
            row[n..=n + r].copy_from_slice(&l22.l.row(r)[..=r]);
        }
        self.l = Matrix::from_vec(m, m, data).expect("the grown buffer holds m × m entries");
        Ok(())
    }

    /// Log-determinant of `A`: `2 Σ log L[i][i]`.
    pub fn log_det(&self) -> f64 {
        self.log_det_leading(self.dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]).unwrap()
    }

    #[test]
    fn factor_matches_known_result() {
        // Classic example: L = [[5,0,0],[3,3,0],[-1,1,3]].
        let c = Cholesky::new(&spd3()).unwrap();
        let l = c.factor();
        let expect = [[5.0, 0.0, 0.0], [3.0, 3.0, 0.0], [-1.0, 1.0, 3.0]];
        for i in 0..3 {
            for j in 0..3 {
                assert!((l[(i, j)] - expect[i][j]).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_recovers_solution() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = c.solve_vec(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn log_det_matches_known_value() {
        // det(A) = (5*3*3)^2 = 2025.
        let c = Cholesky::new(&spd3()).unwrap();
        assert!((c.log_det() - 2025.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        let err = Cholesky::new(&a).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::NotPositiveDefinite { pivot: 1, .. }
        ));
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)).unwrap_err(),
            LinalgError::NotSquare { .. }
        ));
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(0, 0)).unwrap_err(),
            LinalgError::InvalidDimension { .. }
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 matrix: PSD but not PD.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(Cholesky::new(&a).is_err());
        let (c, jitter) = Cholesky::new_with_jitter(&a, 1e-10, 12).unwrap();
        assert!(jitter > 0.0);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn jitter_rescues_a_rounding_pivot() {
        // SE kernel over the points 0, 0.56, 0.56: exactly singular, yet
        // rounding leaves the last pivot at about 1e-16 instead of 0.
        let e = (-0.56f64 * 0.56 / 2.0).exp();
        let a = Matrix::from_rows(&[&[1.0, e, e], &[e, 1.0, 1.0], &[e, 1.0, 1.0]]).unwrap();
        let plain = Cholesky::new(&a).expect("rounding lets the plain factor through");
        let pivot = plain.l[(2, 2)] * plain.l[(2, 2)];
        assert!(pivot > 0.0 && pivot < 1e-15, "pivot {pivot:e}");
        let (c, jitter) = Cholesky::new_with_jitter(&a, 1e-10, 12).unwrap();
        assert!(jitter > 0.0);
        assert!(c.l[(2, 2)] * c.l[(2, 2)] >= jitter / 2.0);
    }

    #[test]
    fn jitter_zero_when_already_pd() {
        let (_, jitter) = Cholesky::new_with_jitter(&spd3(), 1e-10, 5).unwrap();
        assert_eq!(jitter, 0.0);
    }

    #[test]
    fn jitter_propagates_shape_errors() {
        let err = Cholesky::new_with_jitter(&Matrix::zeros(2, 3), 1e-10, 5).unwrap_err();
        assert!(matches!(err, LinalgError::NotSquare { .. }));
    }

    /// A deterministic SPD test matrix: `M Mᵀ + n·I` over a fixed
    /// pseudo-random `M`.
    fn spd(n: usize, salt: u64) -> Matrix {
        let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let m = Matrix::from_fn(n, n, |_, _| next());
        let mut a = m.matmul(&m.transpose()).unwrap();
        a.add_diag(n as f64);
        a
    }

    #[test]
    fn extend_matches_full_refactorization() {
        for &(n, k) in &[(1usize, 1usize), (3, 1), (4, 2), (6, 3), (12, 5)] {
            let a = spd(n + k, (n * 10 + k) as u64);
            let full = Cholesky::new(&a).unwrap();
            let mut inc = Cholesky::new(&a.submatrix(0, n, 0, n)).unwrap();
            let cross = a.submatrix(0, n, n, n + k);
            let corner = a.submatrix(n, n + k, n, n + k);
            inc.extend(&cross, &corner).unwrap();
            assert_eq!(inc.dim(), n + k);
            for i in 0..n + k {
                for j in 0..=i {
                    let (got, want) = (inc.factor()[(i, j)], full.factor()[(i, j)]);
                    assert!(
                        (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                        "n={n} k={k} entry ({i},{j}): extended {got} vs full {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn extend_rejects_bad_shapes_and_indefinite_corners() {
        let a = spd(3, 7);
        let mut c = Cholesky::new(&a).unwrap();
        let before = c.factor().clone();
        // Wrong cross height.
        assert!(matches!(
            c.extend(&Matrix::zeros(2, 1), &Matrix::zeros(1, 1))
                .unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
        // Corner not matching cross width.
        assert!(matches!(
            c.extend(&Matrix::zeros(3, 2), &Matrix::zeros(1, 1))
                .unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
        // Indefinite extension: a zero corner cannot be PD. The pivot
        // index refers to the extended matrix, and `self` is untouched.
        let err = c
            .extend(&Matrix::zeros(3, 1), &Matrix::zeros(1, 1))
            .unwrap_err();
        assert!(matches!(
            err,
            LinalgError::NotPositiveDefinite { pivot: 3, .. }
        ));
        assert_eq!(c.factor(), &before);
        // k = 0 is a no-op.
        c.extend(&Matrix::zeros(3, 0), &Matrix::zeros(0, 0))
            .unwrap();
        assert_eq!(c.dim(), 3);
    }

    #[test]
    fn solve_lower_only_multi_matches_per_vector() {
        let c = Cholesky::new(&spd3()).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[-2.0, 1.5], &[3.0, -0.25]]).unwrap();
        let mut z = b.clone();
        c.solve_lower_only_multi(&mut z).unwrap();
        for col in 0..2 {
            let zc = c.solve_lower_only(&b.col(col)).unwrap();
            for i in 0..3 {
                assert_eq!(z[(i, col)], zc[i]);
            }
        }
    }

    #[test]
    fn extend_grows_in_place_and_keeps_old_rows() {
        // One row at a time from 40 to 60 rows, across several buffer
        // growths: every old entry keeps its bits and the old rows' new
        // column is zero.
        let a = spd(60, 5);
        let mut c = Cholesky::new(&a.submatrix(0, 40, 0, 40)).unwrap();
        for n in 40..60 {
            let before = c.factor().clone();
            c.extend(
                &a.submatrix(0, n, n, n + 1),
                &a.submatrix(n, n + 1, n, n + 1),
            )
            .unwrap();
            for i in 0..n {
                for j in 0..=n {
                    let want = if j < n { before[(i, j)] } else { 0.0 };
                    assert_eq!(c.factor()[(i, j)].to_bits(), want.to_bits(), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn extend_plus_tail_solve_is_bitwise_from_scratch() {
        // The predict-cache law: extend() keeps the old factor rows
        // bit-identical, so a cached prefix z = L₁₁⁻¹ b₁ extended by
        // solve_lower_only_tail_pages equals solve_lower_only on the
        // extended factor, bit for bit.
        for &(n, k) in &[(3usize, 1usize), (5, 2), (9, 4)] {
            let a = spd(n + k, (n * 7 + k) as u64);
            let mut inc = Cholesky::new(&a.submatrix(0, n, 0, n)).unwrap();
            let b: Vec<f64> = (0..n + k).map(|i| (i as f64) * 0.7 - 1.3).collect();
            let mut z = inc.solve_lower_only(&b[..n]).unwrap();
            inc.extend(
                &a.submatrix(0, n, n, n + k),
                &a.submatrix(n, n + k, n, n + k),
            )
            .unwrap();
            let mut tail = b[n..].to_vec();
            inc.solve_lower_only_tail_pages(&[&z], &mut tail, 1, 1)
                .unwrap();
            z.extend(tail);
            let scratch = inc.solve_lower_only(&b).unwrap();
            assert_eq!(z, scratch, "n={n} k={k}");
        }
    }

    #[test]
    fn tile_dot_is_bitwise_the_row_dot() {
        // Four rows with different contents against one shared `b`, at
        // every length through the 32-, 8- and 1-element tails and past
        // the panel width.
        let m = spd(4, 11);
        let len = 300;
        let row = |t: usize| -> Vec<f64> {
            (0..len)
                .map(|c| m[(t, c % 4)] * (1.0 + c as f64 * 1e-3) - t as f64 * 0.37)
                .collect()
        };
        let rows: Vec<Vec<f64>> = (0..CHOL_TILE).map(row).collect();
        let b: Vec<f64> = (0..len).map(|c| (c as f64 * 0.61).sin()).collect();
        for n in 0..=len {
            let tile = dot_unrolled_tile(std::array::from_fn(|t| &rows[t][..n]), &b[..n]);
            for (t, got) in tile.iter().enumerate() {
                let want = dot_unrolled(&rows[t][..n], &b[..n]);
                assert_eq!(got.to_bits(), want.to_bits(), "length {n}, row {t}");
            }
        }
    }

    /// `(n, p)` pairs whose sizes straddle the panel width, so a leading
    /// `n` block ends before, on and after a panel boundary of the full
    /// `p × p` factor, and cover every residue mod `CHOL_TILE`, so either
    /// factorization may end on a short last tile.
    const PREFIX_SIZES: &[(usize, usize)] = &[
        (1, 2),
        (5, 9),
        (6, 11),
        (7, 8),
        (40, 70),
        (41, 67),
        (42, 66),
        (43, 65),
        (255, 300),
        (256, 420),
        (257, 600),
        (258, 301),
        (300, 300),
    ];

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn leading_block_is_bitwise_the_prefix_factorization() {
        for &(n, p) in PREFIX_SIZES {
            let a = spd(p, (n * 31 + p) as u64);
            let full = Cholesky::new(&a).unwrap();
            let prefix = Cholesky::new(&a.submatrix(0, n, 0, n)).unwrap();
            assert_eq!(
                bits(full.factor().submatrix(0, n, 0, n).as_slice()),
                bits(prefix.factor().as_slice()),
                "n={n} p={p}"
            );
            // The leading-block solve and log-determinant read those rows
            // in place and match the prefix factorization's, bit for bit.
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() - 0.2).collect();
            assert_eq!(
                bits(&full.solve_leading_vec(&b).unwrap()),
                bits(&prefix.solve_vec(&b).unwrap()),
                "n={n} p={p}"
            );
            assert_eq!(
                full.log_det_leading(n).to_bits(),
                prefix.log_det().to_bits(),
                "n={n} p={p}"
            );
        }
        // The whole factor is its own leading block; a longer right-hand
        // side is refused.
        let a = spd(9, 3);
        let c = Cholesky::new(&a).unwrap();
        let b: Vec<f64> = (0..9).map(|i| i as f64 - 4.0).collect();
        assert_eq!(
            bits(&c.solve_leading_vec(&b).unwrap()),
            bits(&c.solve_vec(&b).unwrap())
        );
        assert_eq!(c.log_det_leading(9).to_bits(), c.log_det().to_bits());
        assert!(matches!(
            c.solve_leading_vec(&[0.0; 10]).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
    }

    /// The bits of a factorization outcome: the factor and the jitter, or
    /// the error.
    fn outcome_bits(r: Result<(&Matrix, f64), &LinalgError>) -> Result<(Vec<u64>, u64), String> {
        match r {
            Ok((l, jitter)) => Ok((bits(l.as_slice()), jitter.to_bits())),
            Err(LinalgError::NotPositiveDefinite { pivot, value }) => {
                Err(format!("pivot {pivot} value {:x}", value.to_bits()))
            }
            Err(e) => Err(format!("{e:?}")),
        }
    }

    #[test]
    fn buffer_reuse_is_bitwise_the_fresh_factorization() {
        // One buffer carried through every case, in order. Per size pair:
        // a `p × p` SPD matrix; the same with a large negative pivot
        // halfway down, which fails partway through every try and leaves
        // a partly factored buffer; the leading `n × n` block made exactly
        // singular (its last row and column copy the first), which only
        // the jitter ladder factors, in a buffer of another size; then the
        // plain leading block, in a buffer that held a jittered factor.
        // Three jitter tries keep the failing cases cheap.
        let mut cases = Vec::new();
        for &(n, p) in PREFIX_SIZES {
            let a = spd(p, (n * 17 + p) as u64);
            let mut failing = a.clone();
            failing[(p / 2, p / 2)] = -1e6;
            let lead = a.submatrix(0, n, 0, n);
            let mut singular = lead.clone();
            for j in 0..n {
                singular[(n - 1, j)] = lead[(0, j)];
                singular[(j, n - 1)] = lead[(0, j)];
            }
            singular[(n - 1, n - 1)] = lead[(0, 0)];
            cases.extend([a, failing, singular, lead]);
        }
        cases.push(Matrix::zeros(2, 3));
        let (mut jittered, mut failed) = (0, 0);
        let mut buf = Matrix::default();
        for (case, a) in cases.iter().enumerate() {
            let fresh = Cholesky::new_with_jitter(a, 1e-10, 3);
            let reused = Cholesky::new_with_jitter_in(a, 1e-10, 3, buf);
            let got = reused
                .as_ref()
                .map(|(c, j)| (c.factor(), *j))
                .map_err(|(e, _)| e);
            let want = fresh.as_ref().map(|(c, j)| (c.factor(), *j));
            assert_eq!(outcome_bits(got), outcome_bits(want), "case {case}");
            match got {
                Ok((l, 0.0)) => {
                    let plain = Cholesky::new(a).unwrap();
                    assert_eq!(bits(l.as_slice()), bits(plain.factor().as_slice()));
                }
                Ok(_) => jittered += 1,
                Err(_) => failed += 1,
            }
            buf = match reused {
                Ok((c, _)) => c.into_factor(),
                Err((_, back)) => back,
            };
        }
        assert!(
            jittered >= PREFIX_SIZES.len() / 2,
            "{jittered} jittered cases"
        );
        assert_eq!(failed, PREFIX_SIZES.len() + 1, "failing cases");
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let c = Cholesky::new(&spd3()).unwrap();
        assert!(c.solve_vec(&[1.0, 2.0]).is_err());
    }
}
