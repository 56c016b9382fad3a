//! PPATuner: Pareto-driven physical-design tool parameter auto-tuning via
//! Gaussian-process transfer learning (Geng & Xu, DAC 2022).
//!
//! The tuner explores a *finite* candidate set of tool-parameter
//! configurations (the paper's offline benchmarks) and asks a
//! [`QorOracle`] — the expensive PD tool — for golden QoR values as rarely
//! as possible, while classifying every candidate as **Pareto-optimal**
//! (within a δ slack) or **dropped**. Its loop (Algorithm 1):
//!
//! 1. **Model calibration** — one transfer GP per QoR metric predicts
//!    mean μ(x) and uncertainty σ(x) for undecided candidates; each
//!    candidate keeps a monotonically shrinking uncertainty
//!    hyper-rectangle `U_t(x) = U_{t−1}(x) ∩ [μ ± √τ·σ]` (Eqs. 9–10).
//! 2. **Decision-making** — drop candidates whose *optimistic* corner is
//!    δ-dominated by another candidate's *pessimistic* corner (Eq. 11);
//!    promote to Pareto candidates that no other point can δ-dominate
//!    even optimistically (Eq. 12).
//! 3. **Selection** — evaluate the candidate with the longest uncertainty
//!    diameter (Eq. 13) on the real tool, collapse its region. With
//!    `batch_size > 1` this generalizes to a diverse top-q batch
//!    ([`select_batch`]) evaluated concurrently through a
//!    [`ConcurrentOracle`] — same determinism, parallel wall-clock.
//!
//! # Example
//!
//! ```
//! use ppatuner::{PpaTuner, PpaTunerConfig, SourceData, VecOracle};
//!
//! # fn main() -> Result<(), ppatuner::TunerError> {
//! // A toy bi-objective landscape over 1-D configurations.
//! let candidates: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 39.0]).collect();
//! let truth: Vec<Vec<f64>> = candidates
//!     .iter()
//!     .map(|p| vec![p[0], (1.0 - p[0]).powi(2) + 0.1])
//!     .collect();
//! let mut oracle = VecOracle::new(truth.clone());
//! // Historical (source-task) data: the same landscape, slightly shifted.
//! let source = SourceData::new(
//!     candidates.clone(),
//!     truth.iter().map(|q| vec![q[0] + 0.02, q[1] + 0.02]).collect(),
//! )?;
//! let config = PpaTunerConfig { initial_samples: 8, ..PpaTunerConfig::default() };
//! let result = PpaTuner::new(config).run(&source, &candidates, &mut oracle)?;
//! assert!(!result.pareto_indices.is_empty());
//! assert!(result.runs <= 40);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod decision;
mod error;
mod oracle;
mod pool;
pub mod region;
pub mod supervisor;
mod tuner;

pub use checkpoint::{
    ChainCheckpointStore, Checkpoint, CheckpointError, CheckpointStore, EvalOutcome, EvalRecord,
    FileCheckpointStore, MemoryCheckpointStore, Recovery, StateSnapshot, CHECKPOINT_VERSION,
};
pub use decision::{classify, select_batch, BatchPick, DecisionOutcome, Status};
pub use error::TunerError;
pub use oracle::{
    ConcurrentOracle, EvalError, FallibleOracle, FnOracle, OracleRef, QorOracle, SharedOracle,
    VecOracle, WatchdogOracle, WATCHDOG_STAGE,
};
pub use pool::{AdaptivePool, RefineOutcome};
pub use region::UncertaintyRegion;
pub use supervisor::{inject_fit_faults, FitFaultGuard, FitFaultPlan};
pub use tuner::{IterationRecord, PpaTuner, PpaTunerConfig, SourceData, TuneResult};

/// Convenience alias for results returned by this crate.
pub type Result<T, E = TunerError> = std::result::Result<T, E>;
