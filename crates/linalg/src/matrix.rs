use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{LinalgError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the shared currency of the workspace's numerical code: kernel
/// matrices in the GP crate, latent-factor blocks in the recommender
/// baseline, and intermediate products everywhere else. It deliberately
/// exposes a small, predictable API instead of operator overloading for
/// every combination of references.
///
/// # Example
///
/// ```
/// use linalg::Matrix;
///
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c[(1, 0)], 3.0);
/// # Ok(())
/// # }
/// ```
///
/// The default is the empty `0 × 0` matrix, which holds no allocation.
#[derive(Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimension`] if `rows` is empty or the
    /// rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::InvalidDimension {
                what: "from_rows requires at least one non-empty row",
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::InvalidDimension {
                    what: "from_rows requires rows of equal length",
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimension`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidDimension {
                what: "from_vec length must equal rows * cols",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self · rhs`.
    ///
    /// Uses a cache-friendly `ikj` loop order; adequate for the few-hundred
    /// row kernel matrices this workspace manipulates.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions
    /// differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a_ik = self[(i, k)];
                if a_ik == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += a_ik * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| crate::vecops::dot(self.row(i), v))
            .collect())
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Adds `value` to every diagonal entry in place (jitter/regularizer).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diag(&mut self, value: f64) {
        assert!(self.is_square(), "add_diag requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += value;
        }
    }

    /// Maximum absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Extracts the contiguous sub-matrix with rows `r0..r1` and columns
    /// `c0..c1` (half-open ranges).
    ///
    /// # Panics
    ///
    /// Panics if the ranges are out of bounds or reversed.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "col range out of bounds");
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(8);
            for j in 0..cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4e}", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let id = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidDimension { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(Matrix::from_rows(&[]).is_err());
        let empty: &[f64] = &[];
        assert!(Matrix::from_rows(&[empty]).is_err());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn row_col_diag_access() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_against_hand_computation() {
        let a = sample(); // 2x3
        let b = a.transpose(); // 3x2
        let c = a.matmul(&b).unwrap(); // 2x2
        assert_eq!(c[(0, 0)], 14.0);
        assert_eq!(c[(0, 1)], 32.0);
        assert_eq!(c[(1, 0)], 32.0);
        assert_eq!(c[(1, 1)], 77.0);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = sample();
        let err = a.matmul(&sample()).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::ShapeMismatch { op: "matmul", .. }
        ));
    }

    #[test]
    fn matvec_against_hand_computation() {
        let a = sample();
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn sub_is_elementwise() {
        let a = sample();
        let d = a.sub(&Matrix::identity(3).submatrix(0, 2, 0, 3)).unwrap();
        assert_eq!(d[(0, 0)], 0.0);
        assert_eq!(d[(1, 1)], 4.0);
        assert_eq!(d[(1, 2)], 6.0);
        assert!(a.sub(&a.transpose()).is_err());
    }

    #[test]
    fn add_diag_shifts_only_the_diagonal() {
        let mut m = Matrix::from_rows(&[&[1.0, 4.0], &[0.0, 1.0]]).unwrap();
        m.add_diag(1.0);
        assert_eq!((m[(0, 0)], m[(1, 1)]), (2.0, 2.0));
        assert_eq!(m[(0, 1)], 4.0);
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(1, 3, 2, 4);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s[(0, 0)], 6.0);
        assert_eq!(s[(1, 1)], 11.0);
    }

    #[test]
    fn max_abs_and_finiteness() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert_eq!(m.max_abs(), 4.0);
        assert!(m.is_finite());
        let mut bad = m.clone();
        bad[(0, 0)] = f64::NAN;
        assert!(!bad.is_finite());
    }

    #[test]
    fn debug_output_nonempty() {
        let m = sample();
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 2x3"));
    }
}
