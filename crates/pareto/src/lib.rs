//! Multi-objective (Pareto) utilities for the PPATuner reproduction.
//!
//! Everything in this crate uses the **minimization** convention: a QoR
//! point dominates another when it is no worse in every objective and
//! strictly better in at least one. The crate provides:
//!
//! - [`dominance`]: dominance tests, including the δ-relaxed variants the
//!   tuner's decision rules need (Eqs. 11–12 of the paper);
//! - [`front`]: non-dominated filtering and fast non-dominated sorting;
//! - [`hypervolume`]: exact hypervolume in 2-D (sweep), 3-D (slicing) and
//!   n-D (WFG-style recursion), plus the hypervolume *error* of Eq. (2);
//! - [`metrics`]: the ADRS indicator of Eq. (3).
//!
//! # Example
//!
//! ```
//! use pareto::{front::pareto_front, hypervolume::hypervolume, metrics::adrs};
//!
//! let pts = vec![vec![1.0, 4.0], vec![2.0, 2.0], vec![4.0, 1.0], vec![3.0, 3.0]];
//! let front_idx = pareto_front(&pts);
//! assert_eq!(front_idx, vec![0, 1, 2]); // (3,3) is dominated by (2,2)
//!
//! let reference = vec![5.0, 5.0];
//! let hv = hypervolume(&pts, &reference).unwrap();
//! assert!(hv > 0.0);
//!
//! let approx = vec![vec![1.0, 4.0], vec![4.0, 1.0]];
//! let golden: Vec<Vec<f64>> = front_idx.iter().map(|&i| pts[i].clone()).collect();
//! let d = adrs(&golden, &approx).unwrap();
//! assert!(d >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dominance;
mod error;
pub mod front;
pub mod hypervolume;
pub mod metrics;

pub use error::ParetoError;

/// Convenience alias for results returned by this crate.
pub type Result<T, E = ParetoError> = std::result::Result<T, E>;
