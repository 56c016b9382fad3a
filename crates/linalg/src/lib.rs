//! Small dense linear-algebra substrate for the PPATuner reproduction.
//!
//! The Gaussian-process crate (`gp`) needs exact dense linear algebra —
//! Cholesky factorization of kernel matrices, triangular solves, and the
//! associated vector/matrix arithmetic — and the recommender baseline needs
//! basic matrix factorization primitives. Rather than pull in a large
//! external dependency, this crate implements the handful of routines the
//! workspace needs, in a form tuned for the sizes that actually occur
//! (kernel matrices of a few hundred rows).
//!
//! # Contents
//!
//! - [`Matrix`]: a row-major dense matrix of `f64`.
//! - [`Cholesky`]: `A = L·Lᵀ` factorization with solves and
//!   log-determinant (the workhorse of GP training and inference).
//! - [`solve`]: forward/backward triangular substitution helpers.
//! - [`vecops`]: free functions on `&[f64]` (dot, distances, axpy, ...).
//!
//! # Example
//!
//! ```
//! use linalg::{Matrix, Cholesky};
//!
//! # fn main() -> Result<(), linalg::LinalgError> {
//! // Solve the SPD system A x = b.
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
//! let chol = Cholesky::new(&a)?;
//! let x = chol.solve_vec(&[2.0, 1.0])?;
//! assert!((4.0 * x[0] + 2.0 * x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
pub mod counters;
mod error;
mod matrix;
pub mod solve;
pub mod vecops;

pub use cholesky::Cholesky;
pub use counters::LinalgCounters;
pub use error::LinalgError;
pub use matrix::Matrix;

/// Convenience alias for results returned by this crate.
pub type Result<T, E = LinalgError> = std::result::Result<T, E>;
