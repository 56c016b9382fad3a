//! Triangular substitution solvers.
//!
//! These operate on full (square) [`Matrix`] storage but only read the
//! relevant triangle, which is how the Cholesky factor stores its
//! result.

use crate::counters;
use crate::{LinalgError, Matrix, Result};

/// Solves `L x = b` by forward substitution, reading only the lower
/// triangle (including the diagonal) of `l`.
///
/// # Errors
///
/// - [`LinalgError::NotSquare`] if `l` is not square.
/// - [`LinalgError::ShapeMismatch`] if `b.len() != l.rows()`.
/// - [`LinalgError::Singular`] if a diagonal entry vanishes.
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    check_triangular_args(l, b, "solve_lower")?;
    forward(l, b)
}

/// [`solve_lower`] on the leading `b.len()` rows of `l`, unchecked: the
/// caller has checked that `l` is square with at least `b.len()` rows.
/// Row `i` reads only columns `..=i`, so on the leading `n × n` block of
/// `l` this is, bit for bit, `solve_lower` of that block copied out.
pub(crate) fn forward(l: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    counters::add_tri_solve_rhs(1);
    let n = b.len();
    let mut x = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        let row = l.row(i);
        for (j, xj) in x.iter().enumerate().take(i) {
            s -= row[j] * xj;
        }
        let d = row[i];
        if d.abs() < f64::MIN_POSITIVE {
            return Err(LinalgError::Singular { pivot: i });
        }
        x[i] = s / d;
    }
    Ok(x)
}

/// Solves `Lᵀ x = b` by backward substitution, reading only the lower
/// triangle of `l` (useful after a Cholesky factorization, avoiding an
/// explicit transpose).
///
/// # Errors
///
/// Same conditions as [`solve_lower`].
pub fn solve_lower_transposed(l: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    check_triangular_args(l, b, "solve_lower_transposed")?;
    backward_transposed(l, b)
}

/// [`solve_lower_transposed`] on the leading `b.len()` rows of `l`,
/// unchecked like [`forward`]: it reads only entries `(j, i)` with
/// `i ≤ j < b.len()`, so this is, bit for bit, the solve on the leading
/// block copied out.
pub(crate) fn backward_transposed(l: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    counters::add_tri_solve_rhs(1);
    let n = b.len();
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = b[i];
        // (Lᵀ)[i][j] = L[j][i] for j > i.
        for (j, xj) in x.iter().enumerate().skip(i + 1) {
            s -= l[(j, i)] * xj;
        }
        let d = l[(i, i)];
        if d.abs() < f64::MIN_POSITIVE {
            return Err(LinalgError::Singular { pivot: i });
        }
        x[i] = s / d;
    }
    Ok(x)
}

/// Rows of `L` one pass of [`solve_lower_multi`] solves together: each
/// solved row of `X` is read once per pass instead of once per row, so
/// the sweep streams `X` `n / MULTI_ROWS` times instead of `n` times.
const MULTI_ROWS: usize = 8;

/// Solves `L X = B` for all columns of `B` at once by forward
/// substitution, overwriting `b` with `X` and reading only the lower
/// triangle of `l`.
///
/// The per-column arithmetic (order of subtractions and the final
/// division) is exactly that of [`solve_lower`], and columns never mix,
/// so every column of the result reproduces `solve_lower(l, B[:, c])`
/// bit-for-bit — batching (and any chunking of the columns across
/// threads) cannot change results. The row-major sweep touches each `L`
/// row once per right-hand side block instead of once per right-hand
/// side, and rows are solved eight at a time, so each solved row of `X`
/// is read once per group of eight rows instead of once per row. That is
/// what makes batched GP prediction fast, and solving in place means a
/// batch holds one panel instead of two.
///
/// # Errors
///
/// - [`LinalgError::NotSquare`] if `l` is not square.
/// - [`LinalgError::ShapeMismatch`] if `b.rows() != l.rows()`.
/// - [`LinalgError::Singular`] if a diagonal entry vanishes; `b` then
///   holds a partly solved panel.
pub fn solve_lower_multi(l: &Matrix, b: &mut Matrix) -> Result<()> {
    if !l.is_square() {
        return Err(LinalgError::NotSquare { shape: l.shape() });
    }
    if b.rows() != l.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "solve_lower_multi",
            lhs: l.shape(),
            rhs: b.shape(),
        });
    }
    let (n, k) = (l.rows(), b.cols());
    counters::add_tri_solve_rhs(k as u64);
    if k == 0 {
        return Ok(());
    }
    let x = b.as_mut_slice();
    for start in (0..n).step_by(MULTI_ROWS) {
        let (solved, rest) = x.split_at_mut(start * k);
        let rows = MULTI_ROWS.min(n - start);
        solve_rows(
            l,
            start,
            solved.chunks_exact(k),
            &mut rest[..rows * k],
            k,
            k,
        )?;
    }
    Ok(())
}

/// The forward-substitution step shared by [`solve_lower_multi`] and
/// [`solve_lower_tail_pages`]: `solved` yields the first `start` rows of
/// the solution in order, each at least `lanes` values long (they may
/// come from several buffers), and `tail` holds the right-hand sides of
/// the rows that follow them (row-major, `stride` values per row), which
/// are solved in place in lanes `0..lanes`. Lanes `lanes..stride` of
/// `tail` are left unread.
///
/// Each solved row is read once and applied to every row of `tail`, but
/// per (row, lane) the subtractions run in ascending column order from
/// the right-hand side and end with one division by the diagonal — the
/// recurrence of [`solve_lower`], bit for bit. How the solved rows are
/// split across buffers does not enter the arithmetic.
///
/// The caller checks shapes: `l` square, `tail` whole rows of `stride`,
/// and the rows fit inside `l`. On a vanishing diagonal `tail` holds a
/// partly solved panel.
fn solve_rows<'x>(
    l: &Matrix,
    start: usize,
    solved: impl Iterator<Item = &'x [f64]>,
    tail: &mut [f64],
    stride: usize,
    lanes: usize,
) -> Result<()> {
    for (j, xj) in solved.enumerate() {
        let xj = &xj[..lanes];
        for (r, acc) in tail.chunks_exact_mut(stride).enumerate() {
            let lij = l[(start + r, j)];
            for (out, &v) in acc[..lanes].iter_mut().zip(xj) {
                *out -= lij * v;
            }
        }
    }
    for r in 0..tail.len() / stride {
        let i = start + r;
        let row = l.row(i);
        let (done, rest) = tail.split_at_mut(r * stride);
        let acc = &mut rest[..lanes];
        for (s, xs) in done.chunks_exact(stride).enumerate() {
            let lij = row[start + s];
            for (out, &v) in acc.iter_mut().zip(&xs[..lanes]) {
                *out -= lij * v;
            }
        }
        let d = row[i];
        if d.abs() < f64::MIN_POSITIVE {
            return Err(LinalgError::Singular { pivot: i });
        }
        for out in acc.iter_mut() {
            *out /= d;
        }
    }
    Ok(())
}

/// Extends `stride`-wide panels of partially solved forward
/// substitutions `L X = B` by their last rows, in place. The solved
/// prefix of every lane is given as `pages`: row-major panels of
/// `stride` values per row, read in order as one sequence of rows, so a
/// prefix may be split anywhere between rows. On entry `tail` holds the
/// right-hand sides of the remaining rows in the same layout; on success
/// it holds their solution, so `pages` followed by `tail` is the whole
/// solution and no prefix row is moved or copied. Lanes `0..lanes` are
/// solved; lanes `lanes..stride` of `tail` are left as they were.
///
/// Row `i` of [`solve_lower`] reads only `x[0..i]` and row `i` of the
/// lower triangle, with a fixed left-to-right accumulation order. This
/// function replays that exact recurrence in every lane: each solved
/// prefix row is read once and applied to all tail rows, but per (tail
/// row, lane) the subtractions still run in ascending column order and
/// end with the same division. So after a [`crate::Cholesky::extend`]
/// (which keeps the old factor rows' bits) every lane of prefix +
/// tail is bit-for-bit a from-scratch `solve_lower` of that column of the
/// extended system, however the prefix is paged. That identity is what
/// lets a predict cache reuse `L⁻¹ k(X, x*)` across conditioning steps
/// and only pay for the appended rows: O(n·q) per cached lane instead of
/// O(n²).
///
/// # Errors
///
/// - [`LinalgError::NotSquare`] if `l` is not square.
/// - [`LinalgError::ShapeMismatch`] if `stride` is 0, `lanes > stride`,
///   a page or the tail is not a whole number of rows, or the row counts
///   do not add up to `l.rows()`.
/// - [`LinalgError::Singular`] if a tail diagonal entry vanishes; `tail`
///   then holds a partly solved panel (`pages` are only read).
pub fn solve_lower_tail_pages<P: AsRef<[f64]>>(
    l: &Matrix,
    pages: &[P],
    tail: &mut [f64],
    stride: usize,
    lanes: usize,
) -> Result<()> {
    if !l.is_square() {
        return Err(LinalgError::NotSquare { shape: l.shape() });
    }
    let n = l.rows();
    let whole = |len: usize| stride > 0 && len.is_multiple_of(stride);
    let prefix: usize = pages.iter().map(|p| p.as_ref().len()).sum();
    if lanes > stride
        || !pages.iter().all(|p| whole(p.as_ref().len()))
        || !whole(tail.len())
        || (prefix + tail.len()) / stride != n
    {
        return Err(LinalgError::ShapeMismatch {
            op: "solve_lower_tail_pages",
            lhs: l.shape(),
            rhs: ((prefix + tail.len()) / stride.max(1), stride),
        });
    }
    counters::add_tri_solve_tail_rows((tail.len() / stride * lanes) as u64);
    let rows = pages.iter().flat_map(|p| p.as_ref().chunks_exact(stride));
    solve_rows(l, prefix / stride, rows, tail, stride, lanes)
}

fn check_triangular_args(m: &Matrix, b: &[f64], op: &'static str) -> Result<()> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare { shape: m.shape() });
    }
    if b.len() != m.rows() {
        return Err(LinalgError::ShapeMismatch {
            op,
            lhs: m.shape(),
            rhs: (b.len(), 1),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`solve_lower_multi`] on a copy of `b`.
    fn multi(l: &Matrix, b: &Matrix) -> Result<Matrix> {
        let mut x = b.clone();
        solve_lower_multi(l, &mut x).map(|()| x)
    }

    #[test]
    fn lower_solve_matches_hand_computation() {
        // L = [[2,0],[1,3]], b = [4, 7] → x = [2, 5/3]
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]).unwrap();
        let x = solve_lower(&l, &[4.0, 7.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-15);
        assert!((x[1] - 5.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn lower_transposed_equals_explicit_transpose() {
        let l =
            Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[1.0, 3.0, 0.0], &[0.5, -1.0, 4.0]]).unwrap();
        let b = [1.0, -2.0, 3.0];
        let x = solve_lower_transposed(&l, &b).unwrap();
        let back = l.transpose().matvec(&x).unwrap();
        for (a, c) in back.iter().zip(&b) {
            assert!((a - c).abs() < 1e-14);
        }
    }

    #[test]
    fn ignores_other_triangle() {
        // Garbage above the diagonal must not affect solve_lower.
        let l = Matrix::from_rows(&[&[2.0, 99.0], &[1.0, 3.0]]).unwrap();
        let x = solve_lower(&l, &[4.0, 7.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn rejects_bad_shapes() {
        let m = Matrix::zeros(2, 3);
        assert!(matches!(
            solve_lower(&m, &[1.0, 2.0]).unwrap_err(),
            LinalgError::NotSquare { .. }
        ));
        let sq = Matrix::identity(2);
        assert!(matches!(
            solve_lower_transposed(&sq, &[1.0]).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn multi_rhs_matches_per_vector_solve_bitwise() {
        let l =
            Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[1.3, 3.0, 0.0], &[0.5, -1.1, 4.0]]).unwrap();
        let b =
            Matrix::from_rows(&[&[1.0, -2.0, 0.25], &[4.0, 0.5, -1.0], &[-3.0, 2.5, 8.0]]).unwrap();
        let x = multi(&l, &b).unwrap();
        for c in 0..3 {
            let xc = solve_lower(&l, &b.col(c)).unwrap();
            for i in 0..3 {
                assert_eq!(x[(i, c)], xc[i], "column {c} row {i} must match bitwise");
            }
        }
    }

    #[test]
    fn multi_rhs_rejects_bad_shapes_and_singular() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]).unwrap();
        assert!(matches!(
            multi(&Matrix::zeros(2, 3), &Matrix::zeros(2, 1)).unwrap_err(),
            LinalgError::NotSquare { .. }
        ));
        assert!(matches!(
            multi(&l, &Matrix::zeros(3, 1)).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
        let sing = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]).unwrap();
        assert!(matches!(
            multi(&sing, &Matrix::zeros(2, 2)).unwrap_err(),
            LinalgError::Singular { pivot: 0 }
        ));
    }

    /// A well-conditioned lower triangle with a varied diagonal.
    fn lower(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Less => 0.0,
            std::cmp::Ordering::Equal => 1.5 + (i % 5) as f64 * 0.3,
            std::cmp::Ordering::Greater => ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.45,
        })
    }

    #[test]
    fn multi_solve_is_bitwise_the_per_column_solve() {
        // Every residue of the row count around the row-group height, and
        // several column counts.
        for n in (1..=3 * MULTI_ROWS + 1).chain([61]) {
            let l = lower(n);
            for k in [1usize, 3, 8] {
                let b = Matrix::from_fn(n, k, |i, c| ((i * 13 + c * 7) % 19) as f64 / 3.0 - 2.9);
                let x = multi(&l, &b).unwrap();
                for c in 0..k {
                    let col = solve_lower(&l, &b.col(c)).unwrap();
                    for (i, v) in col.iter().enumerate() {
                        assert_eq!(x[(i, c)].to_bits(), v.to_bits(), "n={n} k={k} ({i},{c})");
                    }
                }
            }
        }
        assert_eq!(
            multi(&lower(4), &Matrix::zeros(4, 0)).unwrap().shape(),
            (4, 0)
        );
    }

    /// Every way to cut `rows` rows into consecutive non-empty pages.
    fn pagings(rows: usize) -> Vec<Vec<usize>> {
        if rows == 0 {
            return vec![vec![]];
        }
        (1..=rows)
            .flat_map(|first| {
                pagings(rows - first).into_iter().map(move |mut rest| {
                    rest.insert(0, first);
                    rest
                })
            })
            .collect()
    }

    #[test]
    fn tail_solve_matches_full_solve_bitwise() {
        let l = Matrix::from_rows(&[
            &[2.0, 0.0, 0.0, 0.0],
            &[1.3, 3.0, 0.0, 0.0],
            &[0.5, -1.1, 4.0, 0.0],
            &[-0.7, 0.9, 1.7, 2.5],
        ])
        .unwrap();
        // Three lanes of right-hand sides in a 4-wide panel; the fourth
        // lane is padding and must come through unread.
        let (stride, lanes) = (4, 3);
        let cols: Vec<Vec<f64>> = vec![
            vec![1.0, 4.0, -3.0, 0.75],
            vec![-2.0, 0.5, 1.25, 3.0],
            vec![0.0, -1.0, 2.0, -0.5],
        ];
        let full: Vec<Vec<f64>> = cols.iter().map(|b| solve_lower(&l, b).unwrap()).collect();
        let panel = |src: &[Vec<f64>], rows: std::ops::Range<usize>| -> Vec<f64> {
            rows.flat_map(|i| (0..stride).map(move |c| if c < lanes { src[c][i] } else { 9.0 }))
                .collect()
        };
        let mut paged = 0;
        for split in 0..=4 {
            // The prefix in every paging, e.g. 1 + 2 + 1 rows at split 4.
            for cut in pagings(split) {
                let mut pages = Vec::new();
                let mut row = 0;
                for &len in &cut {
                    pages.push(panel(&full, row..row + len));
                    row += len;
                }
                paged += usize::from(cut.len() >= 3 && cut.contains(&1));
                let before = pages.clone();
                let mut tail = panel(&cols, split..4);
                solve_lower_tail_pages(&l, &pages, &mut tail, stride, lanes).unwrap();
                assert_eq!(pages, before, "the prefix pages are only read");
                let x: Vec<f64> = pages.concat().into_iter().chain(tail).collect();
                assert_eq!(x.len(), 4 * stride);
                for i in 0..4 {
                    for c in 0..lanes {
                        assert_eq!(
                            x[i * stride + c].to_bits(),
                            full[c][i].to_bits(),
                            "split at {split} as {cut:?}, lane {c}, row {i}"
                        );
                    }
                    if i >= split {
                        assert_eq!(x[i * stride + lanes], 9.0, "padding lane is carried over");
                    }
                }
            }
        }
        assert!(paged > 0, "some prefix spans 3+ pages with a one-row page");
    }

    #[test]
    fn tail_solve_rejects_bad_shapes_and_singular() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]).unwrap();
        let x = [vec![0.5]];
        assert!(matches!(
            solve_lower_tail_pages(&Matrix::zeros(2, 3), &x, &mut [1.0], 1, 1).unwrap_err(),
            LinalgError::NotSquare { .. }
        ));
        for (b, stride, lanes) in [(&[1.0, 2.0][..], 1, 1), (&[1.0], 0, 0), (&[1.0], 1, 2)] {
            assert!(matches!(
                solve_lower_tail_pages(&l, &x, &mut b.to_vec(), stride, lanes).unwrap_err(),
                LinalgError::ShapeMismatch { .. }
            ));
        }
        let pair = [vec![0.5, 0.25, 1.0]];
        assert!(matches!(
            solve_lower_tail_pages(&l, &pair, &mut [1.0], 2, 2).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
        let sing = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]).unwrap();
        let x = [vec![1.0]];
        assert!(matches!(
            solve_lower_tail_pages(&sing, &x, &mut [1.0], 1, 1).unwrap_err(),
            LinalgError::Singular { pivot: 1 }
        ));
        assert_eq!(x, [vec![1.0]], "a failed tail leaves the prefix as it was");
    }

    #[test]
    fn detects_singular_pivot() {
        let l = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]).unwrap();
        assert!(matches!(
            solve_lower(&l, &[1.0, 1.0]).unwrap_err(),
            LinalgError::Singular { pivot: 0 }
        ));
    }
}
