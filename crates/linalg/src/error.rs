use std::error::Error;
use std::fmt;

/// Errors produced by the dense linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand, `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right/second operand, `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// The matrix is not square but the operation requires a square matrix.
    NotSquare {
        /// Observed shape `(rows, cols)`.
        shape: (usize, usize),
    },
    /// Cholesky factorization failed: the matrix is not (numerically)
    /// positive definite. Carries the index of the failing pivot and its
    /// value.
    NotPositiveDefinite {
        /// Row/column index of the non-positive pivot.
        pivot: usize,
        /// Value encountered at the pivot (≤ 0 or non-finite).
        value: f64,
    },
    /// A triangular solve hit a (numerically) vanishing diagonal pivot.
    Singular {
        /// Row/column index of the vanishing pivot.
        pivot: usize,
    },
    /// An input had an invalid dimension (e.g. an empty matrix where a
    /// non-empty one is required).
    InvalidDimension {
        /// Description of the offending argument.
        what: &'static str,
    },
    /// A non-finite value (NaN or ±inf) was encountered in an input.
    NonFinite {
        /// Description of where the value was found.
        what: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix is {}x{}, expected square", shape.0, shape.1)
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite (pivot {pivot} has value {value:e})"
            ),
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular (pivot {pivot} vanishes)")
            }
            LinalgError::InvalidDimension { what } => {
                write!(f, "invalid dimension: {what}")
            }
            LinalgError::NonFinite { what } => {
                write!(f, "non-finite value encountered in {what}")
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: (2, 3),
                rhs: (4, 5),
            },
            LinalgError::NotSquare { shape: (2, 3) },
            LinalgError::NotPositiveDefinite {
                pivot: 1,
                value: -0.5,
            },
            LinalgError::Singular { pivot: 0 },
            LinalgError::InvalidDimension { what: "empty" },
            LinalgError::NonFinite { what: "rhs" },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
