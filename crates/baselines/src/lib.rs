//! Reimplementations of the four state-of-the-art comparators used in the
//! PPATuner paper's evaluation (§4.2), plus a random-search control:
//!
//! - [`Tcad19`] — *Cross-layer optimization for high speed adders: a
//!   Pareto-driven machine learning approach* (Ma et al., TCAD'19): GP
//!   surrogates with Pareto-driven **active learning**: evaluate the
//!   candidate whose prediction is both promising (near the predicted
//!   front) and uncertain.
//! - [`Mlcad19`] — *CAD tool design space exploration via Bayesian
//!   optimization* (Ma et al., MLCAD'19): classical BO with the **lower
//!   confidence bound** acquisition, scalarized with fixed equal weights.
//! - [`Dac19`] — *A learning-based recommender system for autotuning
//!   design flows* (Kwon et al., DAC'19): **matrix-factorization**
//!   (latent-factor) prediction over discretized parameter levels with
//!   iterative recommendation rounds.
//! - [`Aspdac20`] — *FIST: a feature-importance sampling and tree-based
//!   method* (Xie et al., ASPDAC'20): boosted-tree surrogates with
//!   **feature-importance-guided** sampling; importances are learned from
//!   prior (source-task) data, the only baseline that uses it.
//! - [`RandomSearch`] — uniform sampling control.
//!
//! Every baseline consumes the same interface as the main tuner — a
//! candidate set, a [`ppatuner::QorOracle`], and a tool-run budget — and
//! returns the non-dominated subset of what it measured. None of them
//! (except FIST's importance transfer) can exploit source-task history;
//! that contrast is the paper's headline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aspdac20;
mod common;
mod dac19;
mod mlcad19;
mod random;
mod tcad19;

pub use aspdac20::{Aspdac20, Aspdac20Params};
pub use common::{BaselineError, BaselineResult};
pub use dac19::{Dac19, Dac19Params};
pub use mlcad19::{Mlcad19, Mlcad19Params};
pub use random::RandomSearch;
pub use tcad19::{Tcad19, Tcad19Params};

/// Convenience alias for results returned by this crate.
pub type Result<T, E = BaselineError> = std::result::Result<T, E>;
