//! The PPATuner loop (Algorithm 1 of the paper).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use gp::optimize::{fit_transfer_gps, restart_starts, FitBudget, FitJob, FitReport};
use gp::{GpCounters, PredictCache, SubsetPredictor, TaskData, TransferGp};
use obs::{Event, Observer, OpenSpan, Tracer, NULL_SINK};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{
    digest_matrix, source_digest, Checkpoint, CheckpointStore, EvalOutcome, EvalRecord,
    StateSnapshot, CHECKPOINT_VERSION,
};
use crate::decision::{classify, select_batch, Status};
use crate::oracle::{ConcurrentOracle, EvalError, QorOracle, WATCHDOG_STAGE};
use crate::pool::AdaptivePool;
use crate::region::UncertaintyRegion;
use crate::supervisor;
use crate::{Result, TunerError};

/// `DegradedFit.mode` when the failed refit was replaced by a data-only
/// refit reusing the last-good hyper-parameters.
const DEGRADED_REFIT_REUSED: &str = "refit-reused-hypers";
/// `DegradedFit.mode` when the last-good model served the iteration
/// unchanged.
const DEGRADED_FROZEN: &str = "frozen";

/// Historical (source-task) tool-run data: encoded configurations and
/// their QoR vectors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SourceData {
    /// Shared behind an [`Arc`] so the per-objective [`TaskData`] views
    /// reference one encoded copy instead of cloning all configurations
    /// per objective per refit.
    x: Arc<Vec<Vec<f64>>>,
    y: Vec<Vec<f64>>,
}

impl SourceData {
    /// Creates source data from parallel configuration/QoR lists.
    ///
    /// # Errors
    ///
    /// Returns [`TunerError::InvalidInput`] when lengths disagree, the
    /// QoR vectors have inconsistent dimensions, or any value is
    /// non-finite (NaN/±inf would silently poison every GP fit that
    /// transfers from this history).
    pub fn new(x: Vec<Vec<f64>>, y: Vec<Vec<f64>>) -> Result<Self> {
        if x.len() != y.len() {
            return Err(TunerError::InvalidInput {
                reason: "source x and y lengths differ",
            });
        }
        if let Some(first) = y.first() {
            let m = first.len();
            if m == 0 || y.iter().any(|v| v.len() != m) {
                return Err(TunerError::InvalidInput {
                    reason: "source QoR vectors must share a non-zero dimension",
                });
            }
        }
        if x.iter().any(|r| r.iter().any(|v| !v.is_finite())) {
            return Err(TunerError::InvalidInput {
                reason: "source configurations must be finite (no NaN/inf)",
            });
        }
        if y.iter().any(|r| r.iter().any(|v| !v.is_finite())) {
            return Err(TunerError::InvalidInput {
                reason: "source QoR values must be finite (no NaN/inf)",
            });
        }
        Ok(SourceData { x: Arc::new(x), y })
    }

    /// An empty source (no-transfer operation).
    pub fn empty() -> Self {
        SourceData::default()
    }

    /// Number of source observations.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when there is no source history.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of QoR objectives, or `None` when empty.
    pub fn objectives(&self) -> Option<usize> {
        self.y.first().map(Vec::len)
    }

    /// Borrows the encoded source configurations.
    pub fn inputs(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// Borrows the source QoR vectors (parallel to [`inputs`]).
    ///
    /// [`inputs`]: SourceData::inputs
    pub fn outputs(&self) -> &[Vec<f64>] {
        &self.y
    }

    /// The single-objective view of objective `k` as GP task data. The
    /// inputs are shared (reference-counted), only the one QoR column is
    /// materialized.
    fn task_data(&self, k: usize) -> TaskData {
        TaskData::from_shared(Arc::clone(&self.x), self.y.iter().map(|v| v[k]).collect())
    }
}

/// Configuration of the tuner.
///
/// Serializable so checkpoints can pin the exact configuration a run was
/// started with (resume refuses a different one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PpaTunerConfig {
    /// Region-scale coefficient τ of Eq. (9): the box is `μ ± √τ·σ`.
    pub tau: f64,
    /// Per-objective relaxation δ, as a fraction of each objective's
    /// observed range after initialization (the paper's "precision
    /// controller").
    pub delta_rel: f64,
    /// Target-task configurations evaluated during initialization
    /// (the paper's "no more than 5 % of the data").
    pub initial_samples: usize,
    /// Maximum loop iterations `T_max`.
    pub max_iterations: usize,
    /// Configurations sent to the tool per iteration (the paper's batch
    /// trials via parallel licenses). Above 1, selection switches from
    /// argmax-diameter (Eq. 13) to the diverse top-q batch rule
    /// ([`select_batch`](crate::select_batch)) and each batch is
    /// evaluated as one concurrent wave: through a
    /// [`ConcurrentOracle`](crate::ConcurrentOracle), every member of a
    /// wave runs on its own thread, since tool runs wait on licenses, not
    /// cores, and `batch_size` already is the license count.
    pub batch_size: usize,
    /// Diversity penalty strength γ ∈ [0, 1) of the batch selection rule:
    /// a pick's score is `diam · (1 − γ·red)` where `red` measures
    /// redundancy against already-picked members. 0 recovers pure
    /// top-q-by-diameter; irrelevant at `batch_size` 1.
    pub batch_diversity: f64,
    /// Parameter-space radius (encoded coordinates) inside which two
    /// batch members start counting as redundant.
    pub diversity_radius: f64,
    /// Re-train GP hyper-parameters every this many iterations (between
    /// refits, the model is re-conditioned on new data with cached
    /// hyper-parameters).
    pub refit_every: usize,
    /// Hyper-parameter search budget per refit.
    pub fit_budget: FitBudget,
    /// RNG seed (initial sampling + hyper-parameter restarts).
    pub seed: u64,
    /// Thread budget of every CPU fan-out of the loop: the
    /// (objective × restart) hyper-parameter searches and the predict
    /// sweeps. 0 (the default) sizes it to the machine's available
    /// parallelism; 1 keeps everything on the calling thread. Results are
    /// bitwise identical at every value — this only trades wall-clock —
    /// so resume accepts a checkpoint taken at another worker count.
    #[serde(default)]
    pub workers: usize,
    /// When the iteration cap is hit before every candidate is decided,
    /// also include the surrogate's predicted front (non-dominated
    /// predictive means over still-active candidates) in the final
    /// verification pass — the paper's "predicted Pareto-optimal
    /// parameter combinations". Disable for the strict
    /// classified-set-only ablation.
    pub include_predicted_front: bool,
    /// Maximum oracle attempts per candidate per selection before the
    /// candidate is quarantined (1 = no retries).
    pub max_eval_attempts: usize,
    /// First-retry backoff in seconds; doubles per further retry. Purely
    /// advisory for table-backed oracles (recorded in `EvalRetry` events,
    /// never slept on by the tuner itself).
    pub backoff_base_s: f64,
    /// Upper bound on the advisory backoff.
    pub backoff_cap_s: f64,
    /// QoR sanitization gate: an observation is rejected as a gross
    /// outlier when it falls outside the candidate's current uncertainty
    /// region widened per objective by `gate × max(region width, observed
    /// span)`. Large by default so only tool garbage (unit mix-ups,
    /// truncated reports) trips it, never a merely surprising true value.
    pub outlier_gate: f64,
    /// Grow the candidate pool adaptively (off by default): the initial
    /// candidates become leaf representatives of a bisection cell tree
    /// over the parameter box, and each iteration splits the cells whose
    /// representative's uncertainty-region diameter still exceeds
    /// [`pool_refine_scale`](PpaTunerConfig::pool_refine_scale) times the
    /// cell's own diameter, appending the new sibling centers as fresh
    /// candidates. Requires an oracle that can evaluate arbitrary
    /// coordinates ([`QorOracle::evaluate_at`], e.g.
    /// [`FnOracle`](crate::FnOracle)) — a purely index-table oracle
    /// aborts with an out-of-range error once a grown candidate is
    /// selected.
    pub adaptive_pool: bool,
    /// Lipschitz-style refinement threshold of the adaptive pool: a leaf
    /// splits while `diam(U_t(rep)) > pool_refine_scale × diam(cell)`.
    /// Smaller values refine more aggressively.
    pub pool_refine_scale: f64,
    /// Upper bound on the region diameter a leaf may have and still be
    /// refined (default `f64::MAX`, i.e. effectively no bound — the
    /// checkpoint format cannot round-trip IEEE infinities). Leaves whose
    /// representative's region is at or past the ceiling are
    /// prior-dominated — nothing has been learned there yet — and are
    /// left for the selection rule to evaluate instead of being
    /// subdivided; see [`AdaptivePool::refine`] for why unbounded
    /// refinement stalls on exploration chains.
    pub pool_refine_ceiling: f64,
    /// Maximum leaf splits per iteration (the refinement-rate cap of the
    /// adaptive pool).
    pub pool_max_refines: usize,
    /// Hard cap on the total candidate count the adaptive pool may grow
    /// to (initial candidates included).
    pub pool_max_size: usize,
    /// Training-set size (source + target observations) above which
    /// box prediction switches from the exact transfer-GP posterior to
    /// the subset-of-data path ([`gp::SubsetPredictor`]), whose per-query
    /// cost is bounded by [`sod_subset`](PpaTunerConfig::sod_subset)
    /// instead of the full training size. The subset variance dominates
    /// the exact variance, so ε-PAL's uncertainty boxes stay
    /// conservative. `usize::MAX` (the default) never switches.
    pub sod_threshold: usize,
    /// Anchor count of the subset-of-data predictor (ignored while the
    /// exact path is active).
    pub sod_subset: usize,
    /// Consecutive iterations the surrogate may run degraded (served by a
    /// last-good model after a numerical calibration failure — see the
    /// `DegradedFit` trace event) before the run aborts with
    /// [`TunerError::DegradationBudgetExhausted`]. Isolated failures cost
    /// nothing; this bounds how long the model may stop tracking fresh
    /// observations. Must be at least 1.
    #[serde(default)]
    pub degraded_fit_budget: usize,
}

impl Default for PpaTunerConfig {
    fn default() -> Self {
        PpaTunerConfig {
            tau: 1.5,
            delta_rel: 0.05,
            initial_samples: 20,
            max_iterations: 300,
            batch_size: 1,
            batch_diversity: 0.5,
            diversity_radius: 0.25,
            refit_every: 25,
            fit_budget: FitBudget::default(),
            seed: 0,
            workers: 0,
            include_predicted_front: true,
            max_eval_attempts: 3,
            backoff_base_s: 1.0,
            backoff_cap_s: 60.0,
            outlier_gate: 8.0,
            adaptive_pool: false,
            pool_refine_scale: 1.0,
            pool_refine_ceiling: f64::MAX,
            pool_max_refines: 16,
            pool_max_size: 4096,
            sod_threshold: usize::MAX,
            sod_subset: 256,
            degraded_fit_budget: 8,
        }
    }
}

impl PpaTunerConfig {
    fn validate(&self) -> Result<()> {
        if !(self.tau.is_finite() && self.tau > 0.0) {
            return Err(TunerError::InvalidConfig {
                name: "tau",
                value: self.tau,
            });
        }
        if !(self.delta_rel.is_finite() && self.delta_rel >= 0.0) {
            return Err(TunerError::InvalidConfig {
                name: "delta_rel",
                value: self.delta_rel,
            });
        }
        if self.initial_samples < 2 {
            return Err(TunerError::InvalidConfig {
                name: "initial_samples",
                value: self.initial_samples as f64,
            });
        }
        if self.batch_size == 0 {
            return Err(TunerError::InvalidConfig {
                name: "batch_size",
                value: 0.0,
            });
        }
        if !(self.batch_diversity.is_finite() && (0.0..1.0).contains(&self.batch_diversity)) {
            return Err(TunerError::InvalidConfig {
                name: "batch_diversity",
                value: self.batch_diversity,
            });
        }
        if !(self.diversity_radius.is_finite() && self.diversity_radius > 0.0) {
            return Err(TunerError::InvalidConfig {
                name: "diversity_radius",
                value: self.diversity_radius,
            });
        }
        if self.max_eval_attempts == 0 {
            return Err(TunerError::InvalidConfig {
                name: "max_eval_attempts",
                value: 0.0,
            });
        }
        if !(self.backoff_base_s.is_finite() && self.backoff_base_s >= 0.0) {
            return Err(TunerError::InvalidConfig {
                name: "backoff_base_s",
                value: self.backoff_base_s,
            });
        }
        if !(self.backoff_cap_s.is_finite() && self.backoff_cap_s >= 0.0) {
            return Err(TunerError::InvalidConfig {
                name: "backoff_cap_s",
                value: self.backoff_cap_s,
            });
        }
        if !(self.outlier_gate.is_finite() && self.outlier_gate > 0.0) {
            return Err(TunerError::InvalidConfig {
                name: "outlier_gate",
                value: self.outlier_gate,
            });
        }
        if !(self.pool_refine_scale.is_finite() && self.pool_refine_scale > 0.0) {
            return Err(TunerError::InvalidConfig {
                name: "pool_refine_scale",
                value: self.pool_refine_scale,
            });
        }
        if self.pool_refine_ceiling.is_nan() || self.pool_refine_ceiling <= 0.0 {
            return Err(TunerError::InvalidConfig {
                name: "pool_refine_ceiling",
                value: self.pool_refine_ceiling,
            });
        }
        if self.pool_max_refines == 0 {
            return Err(TunerError::InvalidConfig {
                name: "pool_max_refines",
                value: 0.0,
            });
        }
        if self.pool_max_size == 0 {
            return Err(TunerError::InvalidConfig {
                name: "pool_max_size",
                value: 0.0,
            });
        }
        if self.sod_subset == 0 {
            return Err(TunerError::InvalidConfig {
                name: "sod_subset",
                value: 0.0,
            });
        }
        // 0 means auto-size; anything past 4096 is a typo'd value, not a
        // machine.
        if self.workers > 4096 {
            return Err(TunerError::InvalidConfig {
                name: "workers",
                value: self.workers as f64,
            });
        }
        // A zero budget would make the very first degraded iteration
        // fatal, i.e. silently disable the degraded mode.
        if self.degraded_fit_budget == 0 {
            return Err(TunerError::InvalidConfig {
                name: "degraded_fit_budget",
                value: 0.0,
            });
        }
        Ok(())
    }

    /// The thread budget `workers` resolves to: 0 becomes the machine's
    /// available parallelism.
    fn fan_out_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            w => w,
        }
    }

    /// Advisory backoff before 1-based `attempt` (≥ 2): capped
    /// exponential on `backoff_base_s`.
    fn retry_backoff_s(&self, attempt: usize) -> f64 {
        let doublings = attempt.saturating_sub(2).min(63) as i32;
        (self.backoff_base_s * 2f64.powi(doublings)).min(self.backoff_cap_s)
    }
}

/// One row of the tuning trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration index.
    pub iteration: usize,
    /// Candidates still undecided after this iteration.
    pub undecided: usize,
    /// Candidates classified Pareto so far.
    pub pareto: usize,
    /// Candidates dropped so far.
    pub dropped: usize,
    /// Candidates quarantined so far (evaluation failure budget
    /// exhausted).
    pub quarantined: usize,
    /// Tool runs so far.
    pub runs: usize,
    /// Wall-clock seconds this iteration took (fit + predict + classify +
    /// select + evaluate).
    pub duration_s: f64,
    /// Wall-clock seconds of that spent fitting the GP surrogates.
    pub gp_fit_s: f64,
    /// Wall-clock seconds of that spent predicting uncertainty boxes.
    #[serde(default)]
    pub predict_s: f64,
}

/// Outcome of one tuning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneResult {
    /// Candidate indices of the final Pareto set: the union of the
    /// classified set and the measured front, verified on golden values
    /// by the final evaluation pass (Algorithm 1's closing step: "the
    /// predicted Pareto-optimal parameter combinations will be fed into
    /// the PD tools ... for evaluation").
    pub pareto_indices: Vec<usize>,
    /// Every tool evaluation made during the search:
    /// `(candidate index, QoR vector)`.
    pub evaluated: Vec<(usize, Vec<f64>)>,
    /// Tool runs consumed by the search (initialization + selection) —
    /// the paper's "Runs" column.
    pub runs: usize,
    /// Additional tool runs spent verifying the predicted Pareto set
    /// after the search (reported separately, as in the paper).
    pub verification_runs: usize,
    /// Loop iterations executed.
    pub iterations: usize,
    /// Per-iteration trajectory (for convergence plots).
    pub history: Vec<IterationRecord>,
    /// The absolute per-objective δ the run used.
    pub delta: Vec<f64>,
    /// Candidates quarantined during the run (every evaluation attempt
    /// failed), in quarantine order. Never members of
    /// [`pareto_indices`](TuneResult::pareto_indices).
    pub quarantined: Vec<usize>,
    /// Oracle attempts that failed (crash, timeout, rejected QoR). Failed
    /// attempts count towards [`runs`](TuneResult::runs).
    pub eval_failures: usize,
    /// Retry attempts issued after failures (successful or not).
    pub eval_retries: usize,
    /// Surrogate calibrations served by a last-good model after a
    /// numerical failure (one count per degraded objective per iteration;
    /// see the `DegradedFit` trace event). 0 on a numerically clean run.
    #[serde(default)]
    pub degraded_fits: usize,
}

impl TuneResult {
    /// Serializes the whole result (including the per-iteration history)
    /// to a compact JSON string, for result files and downstream analysis.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("TuneResult serialization cannot fail")
    }
}

/// The Pareto-driven auto-tuner (Algorithm 1).
///
/// See the [crate-level documentation](crate) for the loop structure and
/// an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct PpaTuner {
    config: PpaTunerConfig,
}

impl PpaTuner {
    /// Creates a tuner with the given configuration.
    pub fn new(config: PpaTunerConfig) -> Self {
        PpaTuner { config }
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &PpaTunerConfig {
        &self.config
    }

    /// Runs Algorithm 1 over `candidates` (unit-cube-encoded
    /// configurations of the target task), pulling golden QoR values from
    /// `oracle` and transferring knowledge from `source`.
    ///
    /// # Errors
    ///
    /// - [`TunerError::InvalidInput`] for an empty/inconsistent candidate
    ///   set or source;
    /// - [`TunerError::InvalidConfig`] for out-of-range options;
    /// - [`TunerError::Surrogate`] when GP fitting fails irrecoverably.
    pub fn run<O: QorOracle>(
        &self,
        source: &SourceData,
        candidates: &[Vec<f64>],
        oracle: &mut O,
    ) -> Result<TuneResult> {
        self.run_observed(source, candidates, oracle, &NULL_SINK)
    }

    /// Like [`PpaTuner::run`], but streams structured [`Event`]s to
    /// `observer` as the run progresses: one `GpFit` per surrogate per
    /// iteration, one `ToolEval` per tool run, plus `Classify`, `Select`,
    /// `IterationEnd`, and run-level bookends.
    ///
    /// Event construction is gated on [`Observer::enabled`], so passing
    /// [`obs::NULL_SINK`] (what [`PpaTuner::run`] does) costs almost
    /// nothing.
    ///
    /// # Errors
    ///
    /// Same as [`PpaTuner::run`].
    pub fn run_observed<O: QorOracle>(
        &self,
        source: &SourceData,
        candidates: &[Vec<f64>],
        oracle: &mut O,
        observer: &dyn Observer,
    ) -> Result<TuneResult> {
        self.run_core(
            source,
            candidates,
            OracleRef::Serial(oracle),
            observer,
            None,
            None,
        )
    }

    /// Like [`PpaTuner::run_observed`], but drives a thread-safe
    /// [`ConcurrentOracle`], running every member of a selection batch on
    /// its own thread. With a natively concurrent oracle this overlaps
    /// tool runs in wall-clock; results, traces, and span IDs are
    /// identical to the serial path — only timing fields differ.
    ///
    /// # Errors
    ///
    /// Same as [`PpaTuner::run`].
    pub fn run_concurrent(
        &self,
        source: &SourceData,
        candidates: &[Vec<f64>],
        oracle: &dyn ConcurrentOracle,
        observer: &dyn Observer,
    ) -> Result<TuneResult> {
        self.run_core(
            source,
            candidates,
            OracleRef::Concurrent(oracle),
            observer,
            None,
            None,
        )
    }

    /// [`PpaTuner::run_concurrent`] with per-iteration checkpointing (see
    /// [`PpaTuner::run_checkpointed`]). Checkpoints land at iteration
    /// boundaries, which are always whole-batch boundaries — a resumed
    /// run replays complete batches, never half of one.
    ///
    /// # Errors
    ///
    /// Same as [`PpaTuner::run_checkpointed`].
    pub fn run_concurrent_checkpointed(
        &self,
        source: &SourceData,
        candidates: &[Vec<f64>],
        oracle: &dyn ConcurrentOracle,
        observer: &dyn Observer,
        store: &dyn CheckpointStore,
    ) -> Result<TuneResult> {
        self.run_core(
            source,
            candidates,
            OracleRef::Concurrent(oracle),
            observer,
            Some(store),
            None,
        )
    }

    /// [`PpaTuner::resume`] over a [`ConcurrentOracle`]: replays the
    /// checkpoint's evaluation log (whole batches — checkpoints sit at
    /// batch boundaries), then continues live with concurrent fan-out.
    ///
    /// # Errors
    ///
    /// Same as [`PpaTuner::resume`].
    pub fn resume_concurrent(
        &self,
        source: &SourceData,
        candidates: &[Vec<f64>],
        oracle: &dyn ConcurrentOracle,
        observer: &dyn Observer,
        store: &dyn CheckpointStore,
    ) -> Result<TuneResult> {
        let ckpt = recover_checkpoint(store, observer)?;
        let snapshot_degraded = ckpt.as_ref().map_or(0, |c| c.snapshot.degraded_fits);
        self.run_core(
            source,
            candidates,
            OracleRef::Concurrent(oracle),
            observer,
            Some(store),
            ckpt,
        )
        .map_err(|e| explain_degraded_divergence(e, snapshot_degraded))
    }

    /// Like [`PpaTuner::run_observed`], but persists a [`Checkpoint`] to
    /// `store` at the end of every iteration, so an interrupted run can
    /// be continued with [`PpaTuner::resume`]. Any previous checkpoint in
    /// the store is overwritten.
    ///
    /// # Errors
    ///
    /// Same as [`PpaTuner::run`], plus [`TunerError::Checkpoint`] when
    /// the store rejects a save.
    pub fn run_checkpointed<O: QorOracle>(
        &self,
        source: &SourceData,
        candidates: &[Vec<f64>],
        oracle: &mut O,
        observer: &dyn Observer,
        store: &dyn CheckpointStore,
    ) -> Result<TuneResult> {
        self.run_core(
            source,
            candidates,
            OracleRef::Serial(oracle),
            observer,
            Some(store),
            None,
        )
    }

    /// Continues an interrupted [`PpaTuner::run_checkpointed`] run from
    /// the checkpoint in `store` (an empty store starts a fresh run), and
    /// keeps checkpointing as it goes.
    ///
    /// Resume works by deterministic replay: the loop re-executes from
    /// the start with the same seed, serving oracle calls from the
    /// checkpoint's evaluation log (failures included) instead of the
    /// live tool, which reproduces the checkpointed state exactly —
    /// verified against the checkpoint's snapshot before live evaluation
    /// takes over. Trace events are only emitted for the live portion, so
    /// concatenating the interrupted run's trace with the resumed one
    /// yields one seamless run. Given the same `config`, `source`,
    /// `candidates`, and a fresh oracle over the same ground truth, the
    /// final [`TuneResult`] is identical to the uninterrupted run's
    /// (modulo wall-clock timing fields).
    ///
    /// # Errors
    ///
    /// Same as [`PpaTuner::run_checkpointed`], plus
    /// [`TunerError::Checkpoint`] when the stored checkpoint has a
    /// different version/configuration/data, or its log diverges from
    /// what the deterministic replay re-derives.
    pub fn resume<O: QorOracle>(
        &self,
        source: &SourceData,
        candidates: &[Vec<f64>],
        oracle: &mut O,
        observer: &dyn Observer,
        store: &dyn CheckpointStore,
    ) -> Result<TuneResult> {
        let ckpt = recover_checkpoint(store, observer)?;
        let snapshot_degraded = ckpt.as_ref().map_or(0, |c| c.snapshot.degraded_fits);
        self.run_core(
            source,
            candidates,
            OracleRef::Serial(oracle),
            observer,
            Some(store),
            ckpt,
        )
        .map_err(|e| explain_degraded_divergence(e, snapshot_degraded))
    }

    /// The actual loop. `store` enables per-iteration checkpointing;
    /// `resume_from` replays a previous run's evaluation log before going
    /// live.
    fn run_core(
        &self,
        source: &SourceData,
        candidates: &[Vec<f64>],
        oracle: OracleRef<'_>,
        observer: &dyn Observer,
        store: Option<&dyn CheckpointStore>,
        resume_from: Option<Checkpoint>,
    ) -> Result<TuneResult> {
        let run_start = Instant::now();
        self.config.validate()?;
        if candidates.is_empty() {
            return Err(TunerError::InvalidInput {
                reason: "candidate set must not be empty",
            });
        }
        let dim = candidates[0].len();
        if dim == 0 || candidates.iter().any(|c| c.len() != dim) {
            return Err(TunerError::InvalidInput {
                reason: "candidates must share a non-zero dimension",
            });
        }
        if !source.is_empty() && source.x[0].len() != dim {
            return Err(TunerError::InvalidInput {
                reason: "source and candidate dimensions differ",
            });
        }
        if candidates.iter().any(|c| c.iter().any(|v| !v.is_finite())) {
            return Err(TunerError::InvalidInput {
                reason: "candidates must be finite (no NaN/inf)",
            });
        }
        // From here on the candidate list is owned: the adaptive pool
        // appends refinement candidates to it. Digests and checkpoint
        // validation below run against this initial (caller) state —
        // growth only ever appends, and replays deterministically, so
        // the caller's candidates stay the run's identity.
        let mut candidates: Vec<Vec<f64>> = candidates.to_vec();

        // Checkpoint plumbing. `driver` serves oracle attempts — from the
        // resume log while it lasts, live afterwards — and records every
        // outcome so later checkpoints carry the complete history. `live`
        // gates run-structure events (and checkpoint writes) off while
        // replay reproduces already-traced iterations.
        let digests = store.map(|_| (digest_matrix(&candidates), source_digest(source)));
        if let Some(ckpt) = &resume_from {
            ckpt.validate(&self.config, &candidates, source)
                .map_err(|reason| TunerError::Checkpoint { reason })?;
        }
        let resume_state = resume_from.map(|c| (c.next_iteration, c.snapshot, c.eval_log));
        let mut driver = EvalDriver {
            oracle,
            replay: resume_state
                .as_ref()
                .map(|(_, _, log)| log.iter().cloned().collect())
                .unwrap_or_default(),
            replayed_runs: 0,
            log: Vec::new(),
        };
        let mut live = !driver.replaying();
        // Causal spans. IDs are allocated unconditionally along the run
        // structure (a relaxed atomic add — negligible for NULL_SINK runs)
        // but emitted only for live, enabled observers. A resumed run
        // therefore re-allocates the replayed portion's IDs silently, and
        // its live span IDs continue exactly where the interrupted trace
        // stopped — concatenated traces stay one seamless span tree.
        let tracer = Tracer::new();
        let run_span = tracer.open("run", None);
        let mut eval_failures = 0usize;
        let mut eval_retries = 0usize;
        let mut quarantined_order: Vec<usize> = Vec::new();

        let n = candidates.len();
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // ------------------------------------------------- initialization
        // Greedy maximin selection seeded by a random pick: the random
        // sampling of the paper with better space coverage for the same
        // budget (pure-random ablation: shuffle and truncate instead).
        let init_count = self.config.initial_samples.min(n);
        let mut init_idx: Vec<usize> = Vec::with_capacity(init_count);
        {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng);
            init_idx.push(order[0]);
            let mut dist = vec![f64::INFINITY; n];
            while init_idx.len() < init_count {
                let last = *init_idx.last().expect("non-empty");
                for (i, d) in dist.iter_mut().enumerate() {
                    let dd = gp::vecops::sq_dist(&candidates[i], &candidates[last]);
                    if dd < *d {
                        *d = dd;
                    }
                }
                let next = (0..n)
                    .filter(|i| !init_idx.contains(i))
                    .max_by(|&a, &b| {
                        dist[a]
                            .partial_cmp(&dist[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("candidates remain");
                init_idx.push(next);
            }
        }

        let mut evaluated: Vec<(usize, Vec<f64>)> = Vec::new();
        let mut evaluated_flag = vec![false; n];
        // Attempt-level events are buffered until RunStart can be emitted
        // (the run isn't fully characterized until the first QoR arrives).
        let mut init_events: Vec<Event> = Vec::new();
        let mut init_quarantined: Vec<(usize, usize)> = Vec::new();
        let mut n_obj_opt: Option<usize> = None;
        for chunk in init_idx.chunks(self.config.batch_size.max(1)) {
            let outs = {
                let ctx = WaveCtx {
                    iteration: 0,
                    candidates: &candidates,
                    n_obj: n_obj_opt,
                    gate: None,
                };
                evaluate_wave(
                    &mut driver,
                    chunk,
                    &ctx,
                    &self.config,
                    live && observer.enabled(),
                    &mut |e| init_events.push(e),
                    &tracer,
                    &run_span,
                )?
            };
            for (&i, out) in chunk.iter().zip(outs) {
                eval_retries += out.attempts.saturating_sub(1);
                eval_failures += out.failures;
                match out.qor {
                    Some(y) => {
                        match n_obj_opt {
                            // The first accepted QoR of a wave fixes the
                            // objective count; siblings of that same wave
                            // were sanitized before it was known, so they
                            // are dimension-checked here instead.
                            None => n_obj_opt = Some(y.len()),
                            Some(m) if y.len() != m => return Err(TunerError::InvalidInput {
                                reason:
                                    "oracle returned inconsistent objective counts within a batch",
                            }),
                            Some(_) => {}
                        }
                        evaluated_flag[i] = true;
                        evaluated.push((i, y));
                    }
                    None => {
                        if live && observer.enabled() {
                            init_events.push(Event::CandidateQuarantined {
                                iteration: 0,
                                candidate: i,
                                attempts: out.attempts,
                            });
                        }
                        init_quarantined.push((i, out.attempts));
                    }
                }
            }
        }
        // Two successes are the floor for observed ranges (δ, the
        // hypervolume reference) and a fittable target task.
        let n_obj = match n_obj_opt {
            Some(m) if evaluated.len() >= 2 => m,
            _ => {
                return Err(TunerError::InvalidInput {
                    reason: "fewer than two initialization evaluations succeeded",
                })
            }
        };
        if let Some(m) = source.objectives() {
            if m != n_obj {
                return Err(TunerError::InvalidInput {
                    reason: "source and oracle objective counts differ",
                });
            }
        }

        // The run is now fully characterized: announce it, then flush the
        // buffered initialization attempts into the trace (iteration 0).
        if live && observer.enabled() {
            observer.emit(&Event::RunStart {
                candidates: n,
                objectives: n_obj,
                dim,
                initial_samples: init_count,
                max_iterations: self.config.max_iterations,
                seed: self.config.seed,
            });
            // The run span opens right after RunStart, before the buffered
            // initialization attempts that are its children.
            observer.emit(&run_span.start_event());
            for e in &init_events {
                observer.emit(e);
            }
        }
        drop(init_events);

        // Per-objective observed ranges of the initialization sample.
        let init_ranges: Vec<(f64, f64)> = (0..n_obj)
            .map(|k| {
                let vals: Vec<f64> = evaluated.iter().map(|(_, y)| y[k]).collect();
                let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (lo, hi)
            })
            .collect();

        // Absolute δ from the observed initialization ranges.
        let delta: Vec<f64> = init_ranges
            .iter()
            .map(|&(lo, hi)| (hi - lo).max(f64::MIN_POSITIVE) * self.config.delta_rel)
            .collect();

        // Fixed hypervolume reference for trace reporting: slightly worse
        // than the initialization nadir, so incremental hypervolume is
        // monotone and comparable across iterations of the same run.
        let hv_reference: Vec<f64> = init_ranges
            .iter()
            .map(|&(lo, hi)| hi + 0.1 * (hi - lo).max(f64::MIN_POSITIVE))
            .collect();

        let mut regions: Vec<UncertaintyRegion> = (0..n)
            .map(|_| UncertaintyRegion::unbounded(n_obj))
            .collect();
        for (i, y) in &evaluated {
            regions[*i].collapse_to(y);
        }
        let mut statuses = vec![Status::Undecided; n];
        for &(i, _) in &init_quarantined {
            statuses[i] = Status::Quarantined;
            quarantined_order.push(i);
        }

        // Running per-objective span of accepted observations: the floor
        // of the outlier gate's allowance, so a tight (or collapsed)
        // region can never reject values of the magnitude the tool
        // actually produces.
        let mut obs_span = ObservedSpan::new(n_obj);
        for (_, y) in &evaluated {
            obs_span.absorb(y);
        }

        let source_tasks: Vec<TaskData> = (0..n_obj).map(|k| source.task_data(k)).collect();

        // The adaptive pool (when enabled) wraps the candidates in a
        // bisection cell tree; refinement happens inside the loop once
        // uncertainty regions carry evidence.
        let mut pool = if self.config.adaptive_pool {
            Some(AdaptivePool::new(&candidates)?)
        } else {
            None
        };

        let mut history = Vec::new();
        let mut iterations = 0;
        // Per-objective surrogates, persistent across iterations: full
        // hyper-parameter refits replace them, warm iterations extend them
        // in place (`condition_on`) with the observations made since.
        let mut models_opt: Option<Vec<TransferGp>> = None;
        // How many entries of `evaluated` each objective's persistent
        // model has seen. Per-objective because a degraded (frozen) model
        // lags its peers until a later calibration catches it up on
        // everything it missed.
        let mut conditioned_upto = vec![0usize; n_obj];
        // Degraded-mode supervisor state. `degraded_streak` counts
        // *consecutive* iterations in which at least one objective was
        // served by a last-good model after a numerical calibration
        // failure; a fully clean calibration resets it, and exceeding
        // `degraded_fit_budget` aborts with a typed error. Replay
        // re-derives both deterministically (an injected fault plan must
        // be re-armed on resume — `verify_resumed_state` compares the
        // total against the snapshot to catch a forgotten one).
        let mut degraded_total = 0usize;
        let mut degraded_streak = 0usize;
        let mut last_degraded_cause = String::new();
        // Per-objective predict caches, persistent like the models: warm
        // iterations only append rows to the joint factor, so each
        // undecided candidate's forward-substitution prefix survives and
        // the sweep pays only the q-row tail. Refits invalidate via the
        // fit epoch; candidates that stop being queried are evicted at
        // the next sweep boundary. Results are bit-identical either way.
        let mut predict_caches: Vec<PredictCache> =
            (0..n_obj).map(|_| PredictCache::new()).collect();
        let workers = self.config.fan_out_workers();

        // ------------------------------------------------------- the loop
        for t in 0..self.config.max_iterations {
            // Replay drains exactly at the checkpoint's iteration
            // boundary; verify the re-derived state against the snapshot
            // before switching to live evaluation and event emission.
            if !live && !driver.replaying() {
                if let Some((next_iteration, snapshot, _)) = &resume_state {
                    verify_resumed_state(
                        t,
                        *next_iteration,
                        snapshot,
                        &statuses,
                        evaluated.len(),
                        driver.runs(),
                        &rng,
                        &delta,
                        degraded_total,
                    )?;
                }
                live = true;
            }
            let undecided_exists = statuses.contains(&Status::Undecided);
            if !undecided_exists {
                break;
            }
            iterations = t + 1;
            let iter_start = Instant::now();
            let iter_span = tracer.open("iteration", Some(&run_span));
            let iter_resources = GpCounters::snapshot();
            if live && observer.enabled() {
                observer.emit(&iter_span.start_event());
            }
            // Attempts logged before this iteration: used to decide
            // whether this iteration is a valid checkpoint boundary.
            let log_mark = driver.log.len();

            // ---- model calibration (Algorithm 1, lines 4-6)
            let fit_phase = Instant::now();
            let fit_span = tracer.open("gp_fit", Some(&iter_span));
            if live && observer.enabled() {
                observer.emit(&fit_span.start_event());
            }
            let needs_refit = models_opt.is_none() || t % self.config.refit_every.max(1) == 0;
            // Set when any objective's calibration fell back to a
            // last-good model this iteration (degraded mode).
            let mut iter_degraded = false;
            if needs_refit {
                // One shared encoded copy of the evaluated configurations;
                // each objective's task view only materializes its own
                // QoR column.
                let target_x: Arc<Vec<Vec<f64>>> = Arc::new(
                    evaluated
                        .iter()
                        .map(|(i, _)| candidates[*i].clone())
                        .collect(),
                );
                let target_tasks: Vec<TaskData> = (0..n_obj)
                    .map(|k| {
                        TaskData::from_shared(
                            Arc::clone(&target_x),
                            evaluated.iter().map(|(_, y)| y[k]).collect(),
                        )
                    })
                    .collect();
                // Pre-draw every objective's restart starts sequentially
                // (objective order), then fan the independent (objective ×
                // restart) searches out: the RNG stream — and therefore
                // the result — is identical at any worker count.
                let starts: Vec<Vec<Vec<f64>>> = (0..n_obj)
                    .map(|_| restart_starts(dim, self.config.fit_budget.restarts, &mut rng))
                    .collect();
                // Injected numerical faults (chaos suites) are decided
                // here on the coordinator thread — a pure hash of
                // (iteration, objective) — so the fit workers stay
                // oblivious to the thread-local plan and replay re-derives
                // identical decisions. Faulted objectives are not fitted.
                let injected: Vec<Option<gp::GpError>> = (0..n_obj)
                    .map(|k| supervisor::injected_fault(supervisor::FitStage::Refit, t, k))
                    .collect();
                let jobs: Vec<FitJob<'_>> = (0..n_obj)
                    .filter(|&k| injected[k].is_none())
                    .map(|k| FitJob {
                        source: &source_tasks[k],
                        target: &target_tasks[k],
                        starts: &starts[k],
                    })
                    .collect();
                let mut fitted =
                    fit_transfer_gps(&jobs, dim, self.config.fit_budget, workers).into_iter();
                let outs: Vec<gp::Result<(TransferGp, FitReport)>> = injected
                    .into_iter()
                    .map(|fault| match fault {
                        Some(e) => Err(e),
                        None => fitted.next().expect("one fit per unfaulted objective"),
                    })
                    .collect();
                // Last-good surrogates, one slot per objective, for the
                // degraded fallback below. None before the bootstrap fit.
                let mut prev_models: Vec<Option<TransferGp>> = match models_opt.take() {
                    Some(v) => v.into_iter().map(Some).collect(),
                    None => (0..n_obj).map(|_| None).collect(),
                };
                let mut models: Vec<TransferGp> = Vec::with_capacity(n_obj);
                for (k, out) in outs.into_iter().enumerate() {
                    match out {
                        Ok((model, report)) => {
                            if live && observer.enabled() {
                                let cfg = model.config();
                                observer.emit(&Event::GpFit {
                                    iteration: t,
                                    objective: k,
                                    refit: true,
                                    lengthscales: cfg.lengthscales.clone(),
                                    signal_var: cfg.signal_var,
                                    noise_target: cfg.noise_target,
                                    lambda: model.lambda(),
                                    restarts: report.restarts,
                                    evals: report.evals,
                                    cached_evals: report.cached_evals,
                                    fresh_evals: report.fresh_evals,
                                    log_marginal: model.log_marginal_likelihood(),
                                    jitter: model.jitter(),
                                    duration_s: report.duration_s,
                                });
                            }
                            conditioned_upto[k] = evaluated.len();
                            models.push(model);
                        }
                        Err(e) if e.is_recoverable() && prev_models[k].is_some() => {
                            // Degraded mode: the last-good surrogate for
                            // this objective absorbs the failure. First
                            // choice is a data-only refit reusing its
                            // hyper-parameters (fresh observations still
                            // enter the model); if that fails too, the
                            // previous model serves one more iteration
                            // frozen. A DegradedFit event replaces the
                            // objective's GpFit, so clean traces are
                            // untouched.
                            let prev = prev_models[k].take().expect("just checked");
                            let fallback = match supervisor::injected_fault(
                                supervisor::FitStage::Fallback,
                                t,
                                k,
                            ) {
                                Some(fe) => Err(fe),
                                None => prev.refit_data_only(
                                    source_tasks[k].clone(),
                                    target_tasks[k].clone(),
                                ),
                            };
                            let (model, mode) = match fallback {
                                Ok(m) => {
                                    conditioned_upto[k] = evaluated.len();
                                    (m, DEGRADED_REFIT_REUSED)
                                }
                                // Frozen: conditioned_upto[k] stays put, so
                                // the next successful calibration catches
                                // this objective up on what it missed.
                                Err(_) => (prev, DEGRADED_FROZEN),
                            };
                            degraded_total += 1;
                            iter_degraded = true;
                            last_degraded_cause = e.to_string();
                            if live && observer.enabled() {
                                observer.emit(&Event::DegradedFit {
                                    iteration: t,
                                    objective: k,
                                    cause: e.to_string(),
                                    mode: mode.to_string(),
                                    consecutive: degraded_streak + 1,
                                });
                            }
                            models.push(model);
                        }
                        // Structural failure, or no last-good model to
                        // degrade to (the bootstrap fit): abort as before.
                        Err(e) => return Err(e.into()),
                    }
                }
                models_opt = Some(models);
            } else {
                // Warm iteration: extend each persistent surrogate with the
                // observations made since its factorization — a rank-k
                // Cholesky append instead of a from-scratch refit. A
                // numerically rejected extension freezes that objective's
                // model for this iteration (degraded mode); its
                // conditioning mark stays put so a later calibration
                // catches it up.
                let models = models_opt.as_mut().expect("warm path follows a refit");
                for (k, model) in models.iter_mut().enumerate() {
                    let fit_start = Instant::now();
                    let new_x: Vec<Vec<f64>> = evaluated[conditioned_upto[k]..]
                        .iter()
                        .map(|(i, _)| candidates[*i].clone())
                        .collect();
                    let new_y: Vec<f64> = evaluated[conditioned_upto[k]..]
                        .iter()
                        .map(|(_, y)| y[k])
                        .collect();
                    let outcome =
                        match supervisor::injected_fault(supervisor::FitStage::Condition, t, k) {
                            Some(e) => Err(e),
                            None => model.condition_on(&new_x, &new_y),
                        };
                    match outcome {
                        Ok(()) => {
                            conditioned_upto[k] = evaluated.len();
                            if live && observer.enabled() {
                                let cfg = model.config();
                                observer.emit(&Event::GpFit {
                                    iteration: t,
                                    objective: k,
                                    refit: false,
                                    lengthscales: cfg.lengthscales.clone(),
                                    signal_var: cfg.signal_var,
                                    noise_target: cfg.noise_target,
                                    lambda: model.lambda(),
                                    restarts: 0,
                                    evals: 0,
                                    cached_evals: 0,
                                    fresh_evals: 0,
                                    log_marginal: model.log_marginal_likelihood(),
                                    jitter: model.jitter(),
                                    duration_s: fit_start.elapsed().as_secs_f64(),
                                });
                            }
                        }
                        Err(e) if e.is_recoverable() => {
                            // `condition_on` leaves the model untouched on
                            // error, so "frozen" needs no restore step.
                            degraded_total += 1;
                            iter_degraded = true;
                            last_degraded_cause = e.to_string();
                            if live && observer.enabled() {
                                observer.emit(&Event::DegradedFit {
                                    iteration: t,
                                    objective: k,
                                    cause: e.to_string(),
                                    mode: DEGRADED_FROZEN.to_string(),
                                    consecutive: degraded_streak + 1,
                                });
                            }
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            if iter_degraded {
                degraded_streak += 1;
                if degraded_streak > self.config.degraded_fit_budget {
                    return Err(TunerError::DegradationBudgetExhausted {
                        consecutive: degraded_streak,
                        cause: std::mem::take(&mut last_degraded_cause),
                    });
                }
            } else {
                degraded_streak = 0;
            }
            let gp_fit_s = fit_phase.elapsed().as_secs_f64();
            if live && observer.enabled() {
                observer.emit(&tracer.end_event(&fit_span));
            }
            let models = models_opt.as_ref().expect("models exist past fitting");

            // Predict boxes for active, un-evaluated candidates — through
            // the exact posterior, or the subset-of-data path once the
            // training set outgrows `sod_threshold`. Subset predictors
            // are rebuilt from the freshly fitted/conditioned models each
            // iteration, so they never lag the exact posterior's data.
            let predict_phase = Instant::now();
            let train_size = source.len() + evaluated.len();
            let sod: Option<Vec<SubsetPredictor>> = if train_size > self.config.sod_threshold {
                Some(
                    models
                        .iter()
                        .map(|m| m.subset_predictor(self.config.sod_subset))
                        .collect::<gp::Result<_>>()?,
                )
            } else {
                None
            };
            let surrogates = match &sod {
                Some(preds) => Surrogates::Subset(preds),
                None => Surrogates::Exact(models),
            };
            let active: Vec<usize> = (0..candidates.len())
                .filter(|&i| statuses[i].is_active() && !evaluated_flag[i])
                .collect();
            // PredictMode is only in the trace when the SoD feature is
            // actually configured — legacy traces stay byte-identical.
            if live && observer.enabled() && self.config.sod_threshold != usize::MAX {
                observer.emit(&Event::PredictMode {
                    iteration: t,
                    train_size,
                    subset_size: sod
                        .as_ref()
                        .and_then(|preds| preds.first())
                        .map_or(train_size, SubsetPredictor::subset_size),
                    queries: active.len(),
                    mode: if sod.is_some() { "subset" } else { "exact" }.into(),
                });
            }
            // One sweep per iteration: entries untouched since the last
            // sweep belong to classified/pruned candidates and are
            // evicted; the active-set and pool-refinement predicts below
            // share the new stamp.
            for cache in &mut predict_caches {
                cache.begin_sweep();
            }
            let boxes = predict_boxes(
                &surrogates,
                &candidates,
                &active,
                self.config.tau,
                workers,
                &mut predict_caches,
            )?;
            for (pos, &i) in active.iter().enumerate() {
                let (lo, hi) = &boxes[pos];
                regions[i].intersect(lo, hi);
            }

            // ---- adaptive refinement: split the cells whose
            // representative's region stayed wide relative to the cell
            // itself, then box the new representatives immediately so this
            // iteration's classification and selection see them.
            if let Some(pool) = pool.as_mut() {
                let before = candidates.len();
                let outcome = pool.refine(
                    &mut candidates,
                    &regions,
                    &statuses,
                    self.config.pool_refine_scale,
                    self.config.pool_refine_ceiling,
                    self.config.pool_max_refines,
                    self.config.pool_max_size,
                );
                if outcome.splits > 0 {
                    for _ in before..candidates.len() {
                        regions.push(UncertaintyRegion::unbounded(n_obj));
                        statuses.push(Status::Undecided);
                        evaluated_flag.push(false);
                    }
                    let fresh: Vec<usize> = (before..candidates.len()).collect();
                    let fresh_boxes = predict_boxes(
                        &surrogates,
                        &candidates,
                        &fresh,
                        self.config.tau,
                        workers,
                        &mut predict_caches,
                    )?;
                    for (pos, &i) in fresh.iter().enumerate() {
                        let (lo, hi) = &fresh_boxes[pos];
                        regions[i].intersect(lo, hi);
                    }
                }
                if live && observer.enabled() {
                    observer.emit(&Event::PoolRefine {
                        iteration: t,
                        splits: outcome.splits,
                        leaves: outcome.leaves,
                        pool_size: candidates.len(),
                        effective_pool: outcome.effective_pool,
                    });
                }
            }
            let predict_s = predict_phase.elapsed().as_secs_f64();

            // ---- decision-making (lines 7-9)
            let classify_span = tracer.open("classify", Some(&iter_span));
            classify(&regions, &mut statuses, &delta);
            // Counted once per iteration here, then maintained through the
            // quarantine transitions below — `IterationEnd` and the
            // history row never re-scan the status vector.
            let mut counts = status_counts(&statuses);
            if live && observer.enabled() {
                observer.emit(&classify_span.start_event());
                observer.emit(&Event::Classify {
                    iteration: t,
                    pareto: counts.1,
                    dropped: counts.2,
                    undecided: counts.0,
                    delta: delta.clone(),
                });
                observer.emit(&Event::RegionSnapshot {
                    iteration: t,
                    statuses: statuses.iter().map(status_char).collect(),
                    diameters: regions.iter().map(UncertaintyRegion::diameter).collect(),
                });
                observer.emit(&tracer.end_event(&classify_span));
            }

            // When classification just settled the last undecided
            // candidate (or selection below finds nothing informative to
            // measure), the iteration is still recorded and checkpointed
            // like any other before the loop stops, so a resumed run can
            // skip straight past it.
            let mut stop = counts.0 == 0;

            // ---- selection (lines 10-11): a diverse batch of the
            // longest-diameter active candidates (`select_batch`; at
            // batch size 1 this is exactly Eq. 13's argmax), evaluated as
            // one concurrent wave. When a selected candidate exhausts its
            // failure budget it is quarantined, and the iteration falls
            // back to re-selecting from the remaining eligible candidates
            // within the same iteration (each fallback wave gets its own
            // selection event), so injected faults cost retries, not
            // iterations.
            let mut want = self.config.batch_size;
            let mut selected_any = false;
            while !stop && want > 0 {
                // Allocated before the emptiness check so replayed and
                // live executions of the same wave agree on span IDs; an
                // empty wave's span is simply never emitted.
                let select_span = tracer.open("select", Some(&iter_span));
                let picks = select_batch(
                    &candidates,
                    &regions,
                    &statuses,
                    &evaluated_flag,
                    want,
                    self.config.batch_diversity,
                    self.config.diversity_radius,
                );
                if picks.is_empty() {
                    break;
                }
                selected_any = true;
                if live && observer.enabled() {
                    observer.emit(&select_span.start_event());
                    if self.config.batch_size > 1 {
                        observer.emit(&Event::BatchSelect {
                            iteration: t,
                            q: want,
                            chosen: picks.iter().map(|p| p.index).collect(),
                            diameters: picks.iter().map(|p| p.diameter).collect(),
                            scores: picks.iter().map(|p| p.score).collect(),
                        });
                    } else {
                        observer.emit(&Event::Select {
                            iteration: t,
                            chosen: picks.iter().map(|p| p.index).collect(),
                            diameters: picks.iter().map(|p| p.diameter).collect(),
                        });
                    }
                    observer.emit(&tracer.end_event(&select_span));
                }
                let members: Vec<usize> = picks.iter().map(|p| p.index).collect();
                let outs = {
                    let ctx = WaveCtx {
                        iteration: t,
                        candidates: &candidates,
                        n_obj: Some(n_obj),
                        gate: Some((&regions, &obs_span, self.config.outlier_gate)),
                    };
                    evaluate_wave(
                        &mut driver,
                        &members,
                        &ctx,
                        &self.config,
                        observer.enabled(),
                        &mut |e| observer.emit(&e),
                        &tracer,
                        &iter_span,
                    )?
                };
                for (&i, out) in members.iter().zip(outs) {
                    eval_retries += out.attempts.saturating_sub(1);
                    eval_failures += out.failures;
                    match out.qor {
                        Some(y) => {
                            regions[i].collapse_to(&y);
                            evaluated_flag[i] = true;
                            obs_span.absorb(&y);
                            evaluated.push((i, y));
                            want -= 1;
                        }
                        None => {
                            // Maintain the once-per-iteration counts
                            // through the status transition (a selected
                            // candidate is Undecided or Pareto, but the
                            // match is total for safety).
                            match statuses[i] {
                                Status::Undecided => counts.0 -= 1,
                                Status::Pareto => counts.1 -= 1,
                                Status::Dropped => counts.2 -= 1,
                                Status::Quarantined => counts.3 -= 1,
                            }
                            counts.3 += 1;
                            statuses[i] = Status::Quarantined;
                            quarantined_order.push(i);
                            if !out.replayed && observer.enabled() {
                                observer.emit(&Event::CandidateQuarantined {
                                    iteration: t,
                                    candidate: i,
                                    attempts: out.attempts,
                                });
                            }
                        }
                    }
                }
            }
            if !stop && !selected_any {
                // Everything informative has been measured.
                stop = true;
            }

            if live && observer.enabled() {
                let d = GpCounters::snapshot().since(&iter_resources);
                observer.emit(&Event::ResourceSample {
                    iteration: t,
                    chol_flops: d.linalg.chol_flops,
                    chol_panels: d.linalg.chol_panels,
                    tri_solve_rhs: d.linalg.tri_solve_rhs,
                    fitcache_hits: d.fitcache_hits,
                    fitcache_misses: d.fitcache_misses,
                    kernel_assemblies: d.kernel_assemblies,
                    predict_cache_hits: d.predict_cache_hits,
                    predict_cache_misses: d.predict_cache_misses,
                    predict_cache_evictions: d.predict_cache_evictions,
                    predict_chunks: d.predict_chunks,
                });
            }

            let ctx = IterationOutcome {
                iteration: t,
                runs: driver.runs(),
                duration_s: iter_start.elapsed().as_secs_f64(),
                gp_fit_s,
                predict_s,
            };
            record(
                observer,
                live,
                &mut history,
                counts,
                &evaluated,
                &hv_reference,
                ctx,
            );

            // Persist the full resumable state at the iteration boundary.
            // Live iterations only (replayed ones would rewrite what the
            // checkpoint already holds), and only iterations that logged
            // at least one attempt: resume replays the eval log, so the
            // log must drain exactly at the checkpointed boundary — an
            // eval-less iteration would drain one iteration early and
            // fail state verification.
            // The span is allocated whenever this iteration *would*
            // checkpoint — `driver.log.len() > log_mark` holds equally
            // during replay, so resumed runs re-derive the same IDs.
            let ckpt_span = if store.is_some() && driver.log.len() > log_mark {
                Some(tracer.open("checkpoint", Some(&iter_span)))
            } else {
                None
            };
            if let (Some(store), Some((candidates_digest, src_digest)), true) =
                (store, digests, live && driver.log.len() > log_mark)
            {
                let mut checkpoint = Checkpoint {
                    version: CHECKPOINT_VERSION,
                    next_iteration: t + 1,
                    config: self.config.clone(),
                    candidates_digest,
                    source_digest: src_digest,
                    eval_log: driver.log.clone(),
                    snapshot: StateSnapshot {
                        statuses: statuses.iter().map(status_char).collect(),
                        evaluated: evaluated.len(),
                        runs: driver.runs(),
                        rng_state: rng.state().to_vec(),
                        delta: delta.clone(),
                        regions: regions.clone(),
                        history: history.clone(),
                        degraded_fits: degraded_total,
                    },
                    digest: 0,
                };
                checkpoint.seal();
                store
                    .save(&checkpoint)
                    .map_err(|e| TunerError::Checkpoint {
                        reason: e.to_string(),
                    })?;
                if observer.enabled() {
                    if let Some(span) = &ckpt_span {
                        observer.emit(&span.start_event());
                    }
                    observer.emit(&Event::Checkpoint {
                        iteration: t,
                        runs: driver.runs(),
                        evals_logged: driver.log.len(),
                    });
                    if let Some(span) = &ckpt_span {
                        observer.emit(&tracer.end_event(span));
                    }
                }
            }
            if live && observer.enabled() {
                observer.emit(&tracer.end_event(&iter_span));
            }
            if stop {
                break;
            }
        }

        // A run that completed before being checkpointed again replays
        // its whole loop; whatever follows (verification) is live work.
        if !live && !driver.replaying() {
            live = true;
        }

        // Final classification pass so late evaluations settle the sets.
        classify(&regions, &mut statuses, &delta);
        let search_runs = driver.runs();

        // Closing step of the paper's flow: the predicted Pareto set is
        // fed through the PD tool for verification. Candidate set = the
        // classified Pareto members plus the measured front; verification
        // evaluates any member not yet measured, and the final answer is
        // the non-dominated subset on golden values.
        let mut final_candidates: Vec<usize> = (0..candidates.len())
            .filter(|&i| statuses[i] == Status::Pareto)
            .collect();
        // When the loop stopped before full classification, add the
        // surrogate's predicted front over the still-active candidates.
        if self.config.include_predicted_front {
            if let Some(models) = &models_opt {
                let undecided: Vec<usize> = (0..candidates.len())
                    .filter(|&i| statuses[i] == Status::Undecided && !evaluated_flag[i])
                    .collect();
                if !undecided.is_empty() {
                    let queries: Vec<Vec<f64>> =
                        undecided.iter().map(|&i| candidates[i].clone()).collect();
                    let mut mus: Vec<Vec<f64>> = vec![Vec::with_capacity(n_obj); undecided.len()];
                    for model in models {
                        for (q, (mu, _)) in model
                            .predict_latent_batch(&queries, workers)?
                            .into_iter()
                            .enumerate()
                        {
                            mus[q].push(mu);
                        }
                    }
                    for j in pareto::front::pareto_front(&mus) {
                        let idx = undecided[j];
                        if !final_candidates.contains(&idx) {
                            final_candidates.push(idx);
                        }
                    }
                }
            }
        }
        {
            let pts: Vec<Vec<f64>> = evaluated.iter().map(|(_, y)| y.clone()).collect();
            for j in pareto::front::pareto_front(&pts) {
                let idx = evaluated[j].0;
                if !final_candidates.contains(&idx) {
                    final_candidates.push(idx);
                }
            }
        }
        // Verification evaluates unmeasured members in batch-sized waves
        // (same fan-out as the loop); `truth` keeps `final_candidates`
        // order regardless of the chunking.
        let mut truth_vals: Vec<Option<Vec<f64>>> = Vec::with_capacity(final_candidates.len());
        let mut to_verify: Vec<(usize, usize)> = Vec::new();
        for (slot, &i) in final_candidates.iter().enumerate() {
            match evaluated.iter().find(|(j, _)| *j == i) {
                Some((_, y)) => truth_vals.push(Some(y.clone())),
                None => {
                    truth_vals.push(None);
                    to_verify.push((slot, i));
                }
            }
        }
        for chunk in to_verify.chunks(self.config.batch_size.max(1)) {
            let members: Vec<usize> = chunk.iter().map(|&(_, i)| i).collect();
            let outs = {
                let ctx = WaveCtx {
                    iteration: iterations,
                    candidates: &candidates,
                    n_obj: Some(n_obj),
                    gate: Some((&regions, &obs_span, self.config.outlier_gate)),
                };
                evaluate_wave(
                    &mut driver,
                    &members,
                    &ctx,
                    &self.config,
                    observer.enabled(),
                    &mut |e| observer.emit(&e),
                    &tracer,
                    &run_span,
                )?
            };
            for (&(slot, i), out) in chunk.iter().zip(outs) {
                eval_retries += out.attempts.saturating_sub(1);
                eval_failures += out.failures;
                match out.qor {
                    Some(y) => truth_vals[slot] = Some(y),
                    None => {
                        // A predicted-front member we could not verify:
                        // exclude it from the reported set rather than
                        // vouching for an unmeasured point.
                        statuses[i] = Status::Quarantined;
                        quarantined_order.push(i);
                        if !out.replayed && observer.enabled() {
                            observer.emit(&Event::CandidateQuarantined {
                                iteration: iterations,
                                candidate: i,
                                attempts: out.attempts,
                            });
                        }
                    }
                }
            }
        }
        let truth: Vec<(usize, Vec<f64>)> = final_candidates
            .iter()
            .zip(truth_vals)
            .filter_map(|(&i, v)| v.map(|y| (i, y)))
            .collect();
        let pts: Vec<Vec<f64>> = truth.iter().map(|(_, y)| y.clone()).collect();
        let pareto_indices: Vec<usize> = pareto::front::pareto_front(&pts)
            .into_iter()
            .map(|j| truth[j].0)
            .collect();

        let result = TuneResult {
            pareto_indices,
            runs: search_runs,
            verification_runs: driver.runs() - search_runs,
            iterations,
            history,
            delta,
            evaluated,
            quarantined: quarantined_order,
            eval_failures,
            eval_retries,
            degraded_fits: degraded_total,
        };
        if live && observer.enabled() {
            observer.emit(&Event::RunEnd {
                iterations: result.iterations,
                runs: result.runs,
                verification_runs: result.verification_runs,
                pareto: result.pareto_indices.len(),
                duration_s: run_start.elapsed().as_secs_f64(),
            });
            observer.emit(&tracer.end_event(&run_span));
        }
        observer.flush();
        Ok(result)
    }
}

/// The single-character trace encoding of a [`Status`] (see
/// [`Event::RegionSnapshot`]).
fn status_char(s: &Status) -> char {
    match s {
        Status::Undecided => 'u',
        Status::Pareto => 'p',
        Status::Dropped => 'd',
        Status::Quarantined => 'q',
    }
}

fn status_counts(statuses: &[Status]) -> (usize, usize, usize, usize) {
    let mut undecided = 0;
    let mut pareto = 0;
    let mut dropped = 0;
    let mut quarantined = 0;
    for s in statuses {
        match s {
            Status::Undecided => undecided += 1,
            Status::Pareto => pareto += 1,
            Status::Dropped => dropped += 1,
            Status::Quarantined => quarantined += 1,
        }
    }
    (undecided, pareto, dropped, quarantined)
}

/// How the loop reaches the tool: an exclusive sequential oracle (the
/// classic entry points) or a shared thread-safe front end the wave
/// executor can fan out over. Both produce identical results — the
/// concurrent variant only buys wall-clock overlap.
enum OracleRef<'a> {
    Serial(&'a mut dyn QorOracle),
    Concurrent(&'a dyn ConcurrentOracle),
}

impl<'a> OracleRef<'a> {
    fn evaluate_at(&mut self, index: usize, x: &[f64]) -> std::result::Result<Vec<f64>, EvalError> {
        match self {
            OracleRef::Serial(o) => o.evaluate_at(index, x),
            OracleRef::Concurrent(o) => o.evaluate_at(index, x),
        }
    }

    fn runs(&self) -> usize {
        match self {
            OracleRef::Serial(o) => o.runs(),
            OracleRef::Concurrent(o) => o.runs(),
        }
    }

    /// The shared handle when true fan-out is possible. Returns the
    /// full-lifetime reference, so a wave can evaluate through it while
    /// the driver is otherwise untouched until the merge.
    fn concurrent_handle(&self) -> Option<&'a dyn ConcurrentOracle> {
        match self {
            OracleRef::Serial(_) => None,
            OracleRef::Concurrent(o) => Some(*o),
        }
    }
}

/// Serves oracle attempts — replaying a checkpoint's evaluation log while
/// it lasts, live afterwards — and records every outcome (the log IS the
/// resume script, so failures are recorded too).
struct EvalDriver<'a> {
    oracle: OracleRef<'a>,
    replay: VecDeque<EvalRecord>,
    replayed_runs: usize,
    log: Vec<EvalRecord>,
}

impl EvalDriver<'_> {
    fn replaying(&self) -> bool {
        !self.replay.is_empty()
    }

    /// Total tool runs: replayed attempts plus the live oracle's counter.
    /// Matches the original run's `oracle.runs()` when resume was handed
    /// a fresh oracle.
    fn runs(&self) -> usize {
        self.replayed_runs + self.oracle.runs()
    }

    /// One attempt for `candidate`. Returns the (sanitized) outcome and
    /// whether it came from the replay log. Non-transient errors
    /// (out-of-range index) abort the run instead of being logged.
    fn attempt(
        &mut self,
        candidate: usize,
        x: &[f64],
        sanitize: &dyn Fn(&[f64]) -> std::result::Result<(), String>,
    ) -> Result<(std::result::Result<Vec<f64>, EvalError>, bool)> {
        let (outcome, replayed) = if let Some(rec) = self.replay.pop_front() {
            if rec.candidate != candidate {
                return Err(TunerError::Checkpoint {
                    reason: format!(
                        "replay divergence: log holds candidate {}, the run requested {}",
                        rec.candidate, candidate
                    ),
                });
            }
            self.replayed_runs += 1;
            let outcome = match rec.outcome {
                EvalOutcome::Accepted { qor } => Ok(qor),
                EvalOutcome::Failed { error } => Err(error),
            };
            (outcome, true)
        } else {
            let outcome = match self.oracle.evaluate_at(candidate, x) {
                Ok(y) => match sanitize(&y) {
                    Ok(()) => Ok(y),
                    Err(detail) => Err(EvalError::InvalidQor { detail }),
                },
                Err(e) => {
                    if !e.is_transient() {
                        return Err(TunerError::Evaluation(e));
                    }
                    Err(e)
                }
            };
            (outcome, false)
        };
        self.log.push(EvalRecord {
            candidate,
            outcome: match &outcome {
                Ok(qor) => EvalOutcome::Accepted { qor: qor.clone() },
                Err(error) => EvalOutcome::Failed {
                    error: error.clone(),
                },
            },
        });
        Ok((outcome, replayed))
    }

    /// Records a live outcome produced outside [`EvalDriver::attempt`]:
    /// concurrent wave workers evaluate without touching the driver, and
    /// the deterministic batch-order merge logs their results here.
    fn record_live(
        &mut self,
        candidate: usize,
        outcome: &std::result::Result<Vec<f64>, EvalError>,
    ) {
        self.log.push(EvalRecord {
            candidate,
            outcome: match outcome {
                Ok(qor) => EvalOutcome::Accepted { qor: qor.clone() },
                Err(error) => EvalOutcome::Failed {
                    error: error.clone(),
                },
            },
        });
    }
}

/// What `evaluate_with_retry` concluded for one candidate.
struct RetryOutcome {
    /// The accepted QoR, or `None` when the failure budget ran out.
    qor: Option<Vec<f64>>,
    /// Attempts consumed (≥ 1).
    attempts: usize,
    /// How many of those attempts failed.
    failures: usize,
    /// Whether the final attempt was served from the replay log (the
    /// budget aligns with checkpoint boundaries, so a retry sequence is
    /// replayed in full or not at all).
    replayed: bool,
}

/// Emits `WatchdogFired` directly before the `EvalFailed` it explains,
/// when (and only when) the failure is a watchdog-produced timeout — the
/// dedicated [`WATCHDOG_STAGE`] marker distinguishes it from real tool
/// timeouts, whose stages are flow-stage names. Like `EvalFailed`, the
/// event is created at the deterministic batch-order merge, so traces
/// stay worker-count-invariant; `elapsed_s` is the configured deadline,
/// not wall-clock.
fn emit_watchdog_fired(
    e: &EvalError,
    iteration: usize,
    candidate: usize,
    attempt: usize,
    emit: &mut dyn FnMut(Event),
) {
    if let EvalError::Timeout { stage, elapsed_s } = e {
        if stage == WATCHDOG_STAGE {
            emit(Event::WatchdogFired {
                iteration,
                candidate,
                attempt,
                deadline_s: *elapsed_s,
            });
        }
    }
}

/// Runs one candidate's evaluation with up to `max_eval_attempts`
/// attempts, sanitizing each result and emitting `EvalRetry`,
/// `EvalFailed`, `ToolEval`, and per-attempt `eval_attempt` span events
/// for live attempts (replayed attempts were already traced by the
/// original run, but their span IDs are still allocated so a resumed
/// run's IDs line up with the interrupted trace).
#[allow(clippy::too_many_arguments)]
fn evaluate_with_retry(
    driver: &mut EvalDriver<'_>,
    candidate: usize,
    x: &[f64],
    iteration: usize,
    config: &PpaTunerConfig,
    sanitize: &dyn Fn(&[f64]) -> std::result::Result<(), String>,
    enabled: bool,
    emit: &mut dyn FnMut(Event),
    tracer: &Tracer,
    parent: &OpenSpan,
) -> Result<RetryOutcome> {
    let mut failures = 0;
    let mut replayed = false;
    for attempt in 1..=config.max_eval_attempts {
        // Whether this attempt comes from the replay log is known before
        // `driver.attempt` runs: a replaying driver replays, a drained
        // one evaluates live.
        let live_attempt = enabled && !driver.replaying();
        if attempt > 1 && live_attempt {
            emit(Event::EvalRetry {
                iteration,
                candidate,
                attempt,
                backoff_s: config.retry_backoff_s(attempt),
            });
        }
        let span = tracer.open("eval_attempt", Some(parent));
        if live_attempt {
            emit(span.start_event());
        }
        let start = Instant::now();
        let (outcome, from_replay) = driver.attempt(candidate, x, sanitize)?;
        replayed = from_replay;
        match outcome {
            Ok(qor) => {
                if enabled && !from_replay {
                    emit(Event::ToolEval {
                        iteration,
                        candidate,
                        qor: qor.clone(),
                        duration_s: start.elapsed().as_secs_f64(),
                    });
                    emit(tracer.end_event(&span));
                }
                return Ok(RetryOutcome {
                    qor: Some(qor),
                    attempts: attempt,
                    failures,
                    replayed,
                });
            }
            Err(e) => {
                failures += 1;
                if enabled && !from_replay {
                    emit_watchdog_fired(&e, iteration, candidate, attempt, emit);
                    emit(Event::EvalFailed {
                        iteration,
                        candidate,
                        attempt,
                        kind: e.kind().to_string(),
                        detail: e.to_string(),
                    });
                    emit(tracer.end_event(&span));
                }
            }
        }
    }
    Ok(RetryOutcome {
        qor: None,
        attempts: config.max_eval_attempts,
        failures,
        replayed,
    })
}

/// Sanitization inputs of one evaluation wave, frozen at wave start.
///
/// Workers must not observe state that other members of the same wave
/// mutate (the merge updates regions and the observed span only after
/// the whole wave returns), so a member's outlier gate is identical no
/// matter which worker runs it or in what order — the root of
/// worker-count invariance.
struct WaveCtx<'a> {
    iteration: usize,
    /// The full (possibly pool-grown) candidate list, so workers can hand
    /// each member's coordinates to [`QorOracle::evaluate_at`].
    candidates: &'a [Vec<f64>],
    /// Established objective count (`None` only for the first
    /// initialization wave, before any QoR has been accepted).
    n_obj: Option<usize>,
    /// Outlier-gate inputs (`None` during initialization): all regions,
    /// the observed span, and the gate factor.
    gate: Option<(&'a [UncertaintyRegion], &'a ObservedSpan, f64)>,
}

impl WaveCtx<'_> {
    fn sanitize(&self, candidate: usize, y: &[f64]) -> std::result::Result<(), String> {
        sanitize_qor(
            y,
            self.n_obj,
            self.gate
                .map(|(regions, span, gate)| (&regions[candidate], span, gate)),
        )
    }
}

/// Raw per-attempt results of one batch member: what a wave worker
/// produces without touching the driver or the tracer. The deterministic
/// batch-order merge ([`merge_member`]) later turns them into span IDs,
/// events, and log records.
struct MemberOutcome {
    /// `(outcome, duration_s)` per attempt, in attempt order. Ends early
    /// on the first acceptance or non-transient error.
    attempts: Vec<(std::result::Result<Vec<f64>, EvalError>, f64)>,
}

/// Runs one member's full retry sequence against `eval` (live only; the
/// replay path never reaches this). The retry policy — sanitize accepted
/// QoR, retry transient failures up to the budget, stop on acceptance or
/// a non-transient error — matches [`evaluate_with_retry`] exactly.
fn member_attempts(
    mut eval: impl FnMut(usize) -> std::result::Result<Vec<f64>, EvalError>,
    candidate: usize,
    ctx: &WaveCtx<'_>,
    max_attempts: usize,
) -> MemberOutcome {
    let mut attempts = Vec::with_capacity(1);
    for _ in 0..max_attempts {
        let start = Instant::now();
        let outcome = match eval(candidate) {
            Ok(y) => match ctx.sanitize(candidate, &y) {
                Ok(()) => Ok(y),
                Err(detail) => Err(EvalError::InvalidQor { detail }),
            },
            Err(e) => Err(e),
        };
        let duration_s = start.elapsed().as_secs_f64();
        let stop = match &outcome {
            Ok(_) => true,
            Err(e) => !e.is_transient(),
        };
        attempts.push((outcome, duration_s));
        if stop {
            break;
        }
    }
    MemberOutcome { attempts }
}

/// Merges one member's raw attempt results into the run, in batch order:
/// allocates the per-attempt `eval_attempt` span IDs (late, at merge time
/// — so IDs match the sequential path and are worker-count independent),
/// emits the attempt events in the classic order, and appends the
/// outcomes to the driver's log. Event sequence and log contents are
/// bit-identical to [`evaluate_with_retry`] on the same outcomes.
#[allow(clippy::too_many_arguments)]
fn merge_member(
    driver: &mut EvalDriver<'_>,
    member: MemberOutcome,
    candidate: usize,
    iteration: usize,
    config: &PpaTunerConfig,
    enabled: bool,
    emit: &mut dyn FnMut(Event),
    tracer: &Tracer,
    parent: &OpenSpan,
) -> Result<RetryOutcome> {
    let mut failures = 0;
    for (k, (outcome, duration_s)) in member.attempts.into_iter().enumerate() {
        let attempt = k + 1;
        if attempt > 1 && enabled {
            emit(Event::EvalRetry {
                iteration,
                candidate,
                attempt,
                backoff_s: config.retry_backoff_s(attempt),
            });
        }
        let span = tracer.open("eval_attempt", Some(parent));
        if enabled {
            emit(span.start_event());
        }
        match outcome {
            Ok(qor) => {
                driver.record_live(candidate, &Ok(qor.clone()));
                if enabled {
                    emit(Event::ToolEval {
                        iteration,
                        candidate,
                        qor: qor.clone(),
                        duration_s,
                    });
                    emit(tracer.end_event(&span));
                }
                return Ok(RetryOutcome {
                    qor: Some(qor),
                    attempts: attempt,
                    failures,
                    replayed: false,
                });
            }
            Err(e) => {
                if !e.is_transient() {
                    // Matches the serial driver: a caller bug aborts the
                    // run without being logged as an attempt.
                    return Err(TunerError::Evaluation(e));
                }
                driver.record_live(candidate, &Err(e.clone()));
                failures += 1;
                if enabled {
                    emit_watchdog_fired(&e, iteration, candidate, attempt, emit);
                    emit(Event::EvalFailed {
                        iteration,
                        candidate,
                        attempt,
                        kind: e.kind().to_string(),
                        detail: e.to_string(),
                    });
                    emit(tracer.end_event(&span));
                }
            }
        }
    }
    Ok(RetryOutcome {
        qor: None,
        attempts: config.max_eval_attempts,
        failures,
        replayed: false,
    })
}

/// Evaluates one selection wave (a batch of distinct candidates) and
/// returns each member's [`RetryOutcome`], in batch order.
///
/// - **Replay** (resume): members are served sequentially from the
///   checkpoint log via the classic retry path. Checkpoints land at
///   iteration — hence whole-batch — boundaries, so a wave is replayed in
///   full or not at all.
/// - **Live**: members run their full retry sequences against frozen
///   sanitization inputs ([`WaveCtx`]) — each on its own thread through a
///   [`ConcurrentOracle`] ([`gp::fan_out`]; completion order is
///   irrelevant because workers only *evaluate*), sequentially through a
///   serial oracle — and the results are merged in batch order.
///   Outcomes, events, span IDs, and the evaluation log are identical
///   either way.
///
/// At `batch_size > 1` a `batch_eval` span (child of `parent`) wraps the
/// member `eval_attempt` spans; at 1 the wave is a single member hanging
/// directly under `parent`, byte-identical to the historical trace.
#[allow(clippy::too_many_arguments)]
fn evaluate_wave(
    driver: &mut EvalDriver<'_>,
    members: &[usize],
    ctx: &WaveCtx<'_>,
    config: &PpaTunerConfig,
    enabled: bool,
    emit: &mut dyn FnMut(Event),
    tracer: &Tracer,
    parent: &OpenSpan,
) -> Result<Vec<RetryOutcome>> {
    let batch_span = if config.batch_size > 1 {
        Some(tracer.open("batch_eval", Some(parent)))
    } else {
        None
    };
    let attempt_parent = batch_span.as_ref().unwrap_or(parent);
    if driver.replaying() {
        // Per-attempt liveness gating inside `evaluate_with_retry`
        // handles the boundary exactly like the classic path.
        let mut outs = Vec::with_capacity(members.len());
        for &candidate in members {
            let sanitize = |y: &[f64]| ctx.sanitize(candidate, y);
            outs.push(evaluate_with_retry(
                driver,
                candidate,
                &ctx.candidates[candidate],
                ctx.iteration,
                config,
                &sanitize,
                enabled,
                emit,
                tracer,
                attempt_parent,
            )?);
        }
        return Ok(outs);
    }
    if enabled {
        if let Some(span) = &batch_span {
            emit(span.start_event());
        }
    }
    let outcomes: Vec<MemberOutcome> = match driver.oracle.concurrent_handle() {
        Some(oracle) => gp::fan_out(members.len(), members.len(), |pos| {
            member_attempts(
                |i| oracle.evaluate_at(i, &ctx.candidates[i]),
                members[pos],
                ctx,
                config.max_eval_attempts,
            )
        }),
        None => members
            .iter()
            .map(|&candidate| {
                member_attempts(
                    |i| driver.oracle.evaluate_at(i, &ctx.candidates[i]),
                    candidate,
                    ctx,
                    config.max_eval_attempts,
                )
            })
            .collect(),
    };
    let mut outs = Vec::with_capacity(members.len());
    for (&candidate, member) in members.iter().zip(outcomes) {
        outs.push(merge_member(
            driver,
            member,
            candidate,
            ctx.iteration,
            config,
            enabled,
            emit,
            tracer,
            attempt_parent,
        )?);
    }
    if enabled {
        if let Some(span) = &batch_span {
            emit(tracer.end_event(span));
        }
    }
    Ok(outs)
}

/// Running per-objective `[min, max]` of accepted observations, the span
/// floor of the outlier gate.
struct ObservedSpan {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl ObservedSpan {
    fn new(n_obj: usize) -> Self {
        ObservedSpan {
            lo: vec![f64::INFINITY; n_obj],
            hi: vec![f64::NEG_INFINITY; n_obj],
        }
    }

    fn absorb(&mut self, y: &[f64]) {
        for (k, &v) in y.iter().enumerate() {
            self.lo[k] = self.lo[k].min(v);
            self.hi[k] = self.hi[k].max(v);
        }
    }

    /// The observed span of objective `k` (0 until two distinct values).
    fn span(&self, k: usize) -> f64 {
        let s = self.hi[k] - self.lo[k];
        if s.is_finite() {
            s.max(0.0)
        } else {
            0.0
        }
    }

    /// An absolute floor so a zero-width gate can never form: tied to the
    /// magnitude of observed values.
    fn magnitude(&self, k: usize) -> f64 {
        if self.hi[k].is_finite() {
            self.hi[k].abs().max(self.lo[k].abs()).max(1.0)
        } else {
            1.0
        }
    }
}

/// Validates a QoR vector before it enters the model: dimension,
/// finiteness, and (when a region is supplied) the gross-outlier gate.
///
/// The gate widens the candidate's current uncertainty interval per
/// objective by `gate × max(region width, observed span, tiny·magnitude)`
/// — generous enough that genuine observations never trip it (the span of
/// everything seen so far dwarfs any honest prediction error), while
/// unit-mixed-up or corrupted values land orders of magnitude outside.
fn sanitize_qor(
    y: &[f64],
    n_obj: Option<usize>,
    gate: Option<(&UncertaintyRegion, &ObservedSpan, f64)>,
) -> std::result::Result<(), String> {
    match n_obj {
        Some(m) => {
            if y.len() != m {
                return Err(format!("QoR dimension {} != expected {m}", y.len()));
            }
        }
        None => {
            if y.is_empty() {
                return Err("empty QoR vector".into());
            }
        }
    }
    if let Some(k) = y.iter().position(|v| !v.is_finite()) {
        return Err(format!("non-finite value {} at objective {k}", y[k]));
    }
    if let Some((region, span, factor)) = gate {
        let lo = region.optimistic();
        let hi = region.pessimistic();
        for (k, &v) in y.iter().enumerate() {
            if !(lo[k].is_finite() && hi[k].is_finite()) {
                continue; // still unbounded: no basis for an outlier call
            }
            let scale = (hi[k] - lo[k])
                .max(span.span(k))
                .max(1e-9 * span.magnitude(k));
            let allow = factor * scale;
            if v < lo[k] - allow || v > hi[k] + allow {
                return Err(format!(
                    "objective {k} value {v} is a gross outlier vs region [{}, {}]",
                    lo[k], hi[k]
                ));
            }
        }
    }
    Ok(())
}

/// Recovers the checkpoint the resume entry points start from, surfacing
/// scan-back recoveries (chain stores skipping torn/corrupt entries) as a
/// `RecoveryScan` trace event. Clean recoveries emit nothing, so existing
/// resume traces stay byte-identical.
fn recover_checkpoint(
    store: &dyn CheckpointStore,
    observer: &dyn Observer,
) -> Result<Option<Checkpoint>> {
    let recovery = store.recover().map_err(|e| TunerError::Checkpoint {
        reason: e.to_string(),
    })?;
    if recovery.skipped > 0 && observer.enabled() {
        observer.emit(&Event::RecoveryScan {
            scanned: recovery.scanned,
            skipped: recovery.skipped,
            next_iteration: recovery.checkpoint.as_ref().map(|c| c.next_iteration),
        });
    }
    Ok(recovery.checkpoint)
}

/// Compares the state replay re-derived against the checkpoint's
/// snapshot; any divergence means the checkpoint does not belong to this
/// run (or determinism broke) and live evaluation must not proceed.
#[allow(clippy::too_many_arguments)]
fn verify_resumed_state(
    t: usize,
    next_iteration: usize,
    snapshot: &StateSnapshot,
    statuses: &[Status],
    evaluated: usize,
    runs: usize,
    rng: &StdRng,
    delta: &[f64],
    degraded_fits: usize,
) -> Result<()> {
    let status_string: String = statuses.iter().map(status_char).collect();
    let mismatch = if t != next_iteration {
        Some(format!(
            "replay drained at iteration {t}, checkpoint expected {next_iteration}"
        ))
    } else if status_string != snapshot.statuses {
        Some("candidate statuses diverged from the checkpoint snapshot".into())
    } else if evaluated != snapshot.evaluated {
        Some(format!(
            "replay produced {evaluated} observations, checkpoint recorded {}",
            snapshot.evaluated
        ))
    } else if runs != snapshot.runs {
        Some(format!(
            "replay produced {runs} tool runs, checkpoint recorded {} \
             (was the oracle fresh?)",
            snapshot.runs
        ))
    } else if rng.state().to_vec() != snapshot.rng_state {
        Some("RNG state diverged from the checkpoint snapshot".into())
    } else if delta != snapshot.delta {
        Some("δ thresholds diverged from the checkpoint snapshot".into())
    } else if degraded_fits != snapshot.degraded_fits {
        Some(format!(
            "replay produced {degraded_fits} degraded fits, checkpoint recorded {} \
             (was the fit-fault plan re-armed?)",
            snapshot.degraded_fits
        ))
    } else {
        None
    };
    match mismatch {
        Some(reason) => Err(TunerError::Checkpoint { reason }),
        None => Ok(()),
    }
}

/// A replay that diverges before the drain boundary surfaces as a bare
/// candidate mismatch, even when the real culprit is a forgotten fault
/// plan: clean refits produce different models, which select different
/// candidates. When the checkpoint recorded degraded fits, say so — the
/// operator needs to re-arm the plan, not debug the selection.
fn explain_degraded_divergence(err: TunerError, snapshot_degraded: usize) -> TunerError {
    match err {
        TunerError::Checkpoint { reason }
            if snapshot_degraded > 0 && reason.starts_with("replay divergence") =>
        {
            TunerError::Checkpoint {
                reason: format!(
                    "{reason}; the checkpoint records {snapshot_degraded} degraded fits, \
                     which replay re-derives only when the original fault plan is re-armed"
                ),
            }
        }
        other => other,
    }
}

/// Timing and bookkeeping of one finished iteration, bundled so `record`
/// stays below the argument-count lint.
struct IterationOutcome {
    iteration: usize,
    runs: usize,
    duration_s: f64,
    gp_fit_s: f64,
    predict_s: f64,
}

/// Appends the iteration to the trajectory and emits `IterationEnd` (with
/// the incremental hypervolume of the evaluated set) to the observer.
/// `live` is false while a resumed run is replaying already-traced
/// iterations: history is still rebuilt, events are not re-emitted.
fn record(
    observer: &dyn Observer,
    live: bool,
    history: &mut Vec<IterationRecord>,
    counts: (usize, usize, usize, usize),
    evaluated: &[(usize, Vec<f64>)],
    hv_reference: &[f64],
    ctx: IterationOutcome,
) {
    let (undecided, pareto, dropped, quarantined) = counts;
    history.push(IterationRecord {
        iteration: ctx.iteration,
        undecided,
        pareto,
        dropped,
        quarantined,
        runs: ctx.runs,
        duration_s: ctx.duration_s,
        gp_fit_s: ctx.gp_fit_s,
        predict_s: ctx.predict_s,
    });
    if live && observer.enabled() {
        let pts: Vec<Vec<f64>> = evaluated.iter().map(|(_, y)| y.clone()).collect();
        let hypervolume = pareto::hypervolume::hypervolume(&pts, hv_reference).unwrap_or(0.0);
        observer.emit(&Event::IterationEnd {
            iteration: ctx.iteration,
            runs: ctx.runs,
            pareto,
            dropped,
            undecided,
            hypervolume,
            duration_s: ctx.duration_s,
            gp_fit_s: ctx.gp_fit_s,
            predict_s: ctx.predict_s,
        });
    }
}

/// The prediction back end of one iteration: every objective's exact
/// transfer GP, or its subset-of-data predictor once the training set
/// outgrows the configured threshold. Both expose the same blocked
/// latent-batch call, so the box-prediction plumbing is path-agnostic.
enum Surrogates<'a> {
    Exact(&'a [TransferGp]),
    Subset(&'a [SubsetPredictor]),
}

impl Surrogates<'_> {
    fn len(&self) -> usize {
        match self {
            Surrogates::Exact(models) => models.len(),
            Surrogates::Subset(preds) => preds.len(),
        }
    }

    /// One prediction list per objective, each parallel to `queries`.
    ///
    /// The exact path threads the per-objective [`PredictCache`]s through
    /// (keyed by the stable candidate indices in `ids`), so warm sweeps
    /// pay only the conditioning tail per cached candidate. The subset
    /// path resamples its training subset every iteration — a prefix
    /// cache could never hit — so it always predicts from scratch,
    /// data-parallel across `workers`.
    fn predict_latent_batch(
        &self,
        ids: &[u64],
        queries: &[Vec<f64>],
        workers: usize,
        caches: &mut [PredictCache],
    ) -> gp::Result<Vec<Vec<(f64, f64)>>> {
        match self {
            Surrogates::Exact(models) => models
                .iter()
                .zip(caches)
                .map(|(m, cache)| m.predict_latent_batch_cached(ids, queries, workers, cache))
                .collect(),
            Surrogates::Subset(preds) => preds
                .iter()
                .map(|p| p.predict_latent_batch(queries, workers))
                .collect(),
        }
    }
}

/// Predicts `[μ − √τ·σ, μ + √τ·σ]` boxes for the active candidates via
/// the cached/data-parallel batch path of the active surrogate (exact or
/// subset-of-data). The gp layer fans fixed-size query chunks over
/// `workers` threads and serves repeat candidates from the per-objective
/// caches.
///
/// Batch prediction is bit-identical however the queries are chunked or
/// cached, so the boxes — and everything downstream of them — do not
/// depend on the worker count or cache state.
fn predict_boxes(
    surrogates: &Surrogates<'_>,
    candidates: &[Vec<f64>],
    active: &[usize],
    tau: f64,
    workers: usize,
    caches: &mut [PredictCache],
) -> Result<Vec<(Vec<f64>, Vec<f64>)>> {
    let n_obj = surrogates.len();
    let scale = tau.sqrt();
    let queries: Vec<Vec<f64>> = active.iter().map(|&i| candidates[i].clone()).collect();
    // Candidate indices are stable (pool refinement only appends), so
    // they double as cache keys across iterations.
    let ids: Vec<u64> = active.iter().map(|&i| i as u64).collect();
    let preds: Vec<Vec<(f64, f64)>> =
        surrogates.predict_latent_batch(&ids, &queries, workers, caches)?;

    let mut out = Vec::with_capacity(queries.len());
    for q in 0..queries.len() {
        let mut lo = Vec::with_capacity(n_obj);
        let mut hi = Vec::with_capacity(n_obj);
        for preds_k in &preds {
            let (mu, var) = preds_k[q];
            let sd = var.max(0.0).sqrt();
            lo.push(mu - scale * sd);
            hi.push(mu + scale * sd);
        }
        out.push((lo, hi));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::VecOracle;

    /// A deterministic toy landscape: 1-D configurations, two objectives
    /// with a clean convex trade-off plus one dominated "bump" region.
    fn toy(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let candidates: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let truth: Vec<Vec<f64>> = candidates
            .iter()
            .map(|p| {
                let x = p[0];
                let bump = if (0.4..0.6).contains(&x) { 0.3 } else { 0.0 };
                vec![x + bump + 0.05, (1.0 - x).powi(2) + bump + 0.05]
            })
            .collect();
        (candidates, truth)
    }

    fn shifted_source(candidates: &[Vec<f64>], truth: &[Vec<f64>]) -> SourceData {
        SourceData::new(
            candidates.to_vec(),
            truth
                .iter()
                .map(|y| y.iter().map(|v| v * 1.1 + 0.02).collect())
                .collect(),
        )
        .unwrap()
    }

    /// A configuration that keeps candidates undecided for several
    /// iterations (small initial design, tight delta), so checkpoint and
    /// resume tests have real iteration boundaries to cut at.
    fn slow_config() -> PpaTunerConfig {
        PpaTunerConfig {
            initial_samples: 5,
            delta_rel: 0.01,
            seed: 2,
            ..quick_config()
        }
    }

    fn quick_config() -> PpaTunerConfig {
        PpaTunerConfig {
            initial_samples: 8,
            max_iterations: 40,
            refit_every: 10,
            fit_budget: FitBudget {
                restarts: 1,
                evals_per_restart: 60,
            },
            workers: 2,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn finds_the_true_front_on_toy_problem() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        let mut oracle = VecOracle::new(truth.clone());
        let result = PpaTuner::new(quick_config())
            .run(&source, &candidates, &mut oracle)
            .unwrap();

        assert!(!result.pareto_indices.is_empty());
        // The predicted set should stay close to the true front: ADRS of
        // the predicted configurations' true values must be small.
        let golden: Vec<Vec<f64>> = pareto::front::pareto_front(&truth)
            .into_iter()
            .map(|i| truth[i].clone())
            .collect();
        let predicted: Vec<Vec<f64>> = result
            .pareto_indices
            .iter()
            .map(|&i| truth[i].clone())
            .collect();
        let adrs = pareto::metrics::adrs(&golden, &predicted).unwrap();
        assert!(adrs < 0.25, "adrs {adrs}");
    }

    #[test]
    fn uses_fewer_runs_than_exhaustive() {
        let (candidates, truth) = toy(60);
        let source = shifted_source(&candidates, &truth);
        let mut oracle = VecOracle::new(truth);
        let result = PpaTuner::new(quick_config())
            .run(&source, &candidates, &mut oracle)
            .unwrap();
        assert!(
            result.runs < 60,
            "tuner used {} runs on 60 candidates",
            result.runs
        );
        assert_eq!(result.runs, result.evaluated.len());
    }

    #[test]
    fn works_without_source_data() {
        let (candidates, truth) = toy(30);
        let mut oracle = VecOracle::new(truth);
        let result = PpaTuner::new(quick_config())
            .run(&SourceData::empty(), &candidates, &mut oracle)
            .unwrap();
        assert!(!result.pareto_indices.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let (candidates, truth) = toy(30);
        let source = shifted_source(&candidates, &truth);
        let run = || {
            let mut oracle = VecOracle::new(truth.clone());
            PpaTuner::new(quick_config())
                .run(&source, &candidates, &mut oracle)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.pareto_indices, b.pareto_indices);
        assert_eq!(a.runs, b.runs);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (candidates, truth) = toy(80);
        let source = shifted_source(&candidates, &truth);
        let run = |workers: usize| {
            let mut oracle = VecOracle::new(truth.clone());
            let cfg = PpaTunerConfig {
                workers,
                fit_budget: FitBudget {
                    restarts: 3,
                    evals_per_restart: 40,
                },
                ..quick_config()
            };
            PpaTuner::new(cfg)
                .run(&source, &candidates, &mut oracle)
                .unwrap()
        };
        // 0 = auto-sized; every count must reproduce the serial run
        // exactly (fit tasks and predict chunks are fixed, workers only
        // change who computes each one).
        let base = run(1);
        for workers in [0, 2, 4, 8] {
            let other = run(workers);
            assert_eq!(
                base.pareto_indices, other.pareto_indices,
                "workers={workers}"
            );
            assert_eq!(base.runs, other.runs, "workers={workers}");
            assert_eq!(base.iterations, other.iterations, "workers={workers}");
            assert_eq!(base.evaluated, other.evaluated, "workers={workers}");
        }
    }

    #[test]
    fn history_is_monotone_in_decisions() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        let mut oracle = VecOracle::new(truth);
        let result = PpaTuner::new(quick_config())
            .run(&source, &candidates, &mut oracle)
            .unwrap();
        for w in result.history.windows(2) {
            assert!(w[1].dropped >= w[0].dropped, "drops cannot be undone");
            assert!(w[1].runs >= w[0].runs);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut oracle = VecOracle::new(vec![vec![1.0, 2.0]]);
        let tuner = PpaTuner::new(quick_config());
        assert!(matches!(
            tuner.run(&SourceData::empty(), &[], &mut oracle),
            Err(TunerError::InvalidInput { .. })
        ));
        let bad_cfg = PpaTunerConfig {
            tau: -1.0,
            ..quick_config()
        };
        assert!(matches!(
            PpaTuner::new(bad_cfg).run(&SourceData::empty(), &[vec![0.0]], &mut oracle),
            Err(TunerError::InvalidConfig { name: "tau", .. })
        ));
        let bad_init = PpaTunerConfig {
            initial_samples: 1,
            ..quick_config()
        };
        assert!(matches!(
            PpaTuner::new(bad_init).run(&SourceData::empty(), &[vec![0.0]], &mut oracle),
            Err(TunerError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn source_data_validation() {
        assert!(SourceData::new(vec![vec![0.0]], vec![]).is_err());
        assert!(SourceData::new(vec![vec![0.0]], vec![vec![]]).is_err());
        assert!(SourceData::new(vec![vec![0.0]], vec![vec![1.0, 2.0]]).is_ok());
        let s = SourceData::new(
            vec![vec![0.0], vec![1.0]],
            vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        )
        .unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.objectives(), Some(2));
    }

    #[test]
    fn result_serializes_with_timing_fields() {
        let (candidates, truth) = toy(30);
        let source = shifted_source(&candidates, &truth);
        let mut oracle = VecOracle::new(truth);
        let result = PpaTuner::new(quick_config())
            .run(&source, &candidates, &mut oracle)
            .unwrap();
        for rec in &result.history {
            assert!(rec.duration_s >= 0.0);
            assert!(rec.gp_fit_s >= 0.0);
            assert!(rec.gp_fit_s <= rec.duration_s + 1e-9);
        }
        let json = result.to_json();
        assert!(json.contains("\"pareto_indices\""));
        assert!(json.contains("\"gp_fit_s\""));
        let back: TuneResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.pareto_indices, result.pareto_indices);
        assert_eq!(back.history.len(), result.history.len());
    }

    #[test]
    fn observed_run_emits_consistent_trace() {
        let (candidates, truth) = toy(30);
        let source = shifted_source(&candidates, &truth);
        let mut oracle = VecOracle::new(truth);
        let sink = obs::RecordingSink::new();
        let result = PpaTuner::new(quick_config())
            .run_observed(&source, &candidates, &mut oracle, &sink)
            .unwrap();
        assert_eq!(sink.count("RunStart"), 1);
        assert_eq!(sink.count("RunEnd"), 1);
        assert_eq!(sink.count("IterationEnd"), result.history.len());
        // Every tool run appears in the trace.
        assert_eq!(
            sink.count("ToolEval"),
            result.runs + result.verification_runs
        );
        // One GpFit per objective per iteration.
        assert_eq!(sink.count("GpFit"), 2 * result.iterations);
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        let (candidates, truth) = toy(30);
        let source = shifted_source(&candidates, &truth);
        let mut o1 = VecOracle::new(truth.clone());
        let plain = PpaTuner::new(quick_config())
            .run(&source, &candidates, &mut o1)
            .unwrap();
        let mut o2 = VecOracle::new(truth);
        let sink = obs::RecordingSink::new();
        let observed = PpaTuner::new(quick_config())
            .run_observed(&source, &candidates, &mut o2, &sink)
            .unwrap();
        assert_eq!(plain.pareto_indices, observed.pareto_indices);
        assert_eq!(plain.runs, observed.runs);
    }

    // ---------------------------------------------- fault tolerance

    use crate::checkpoint::{CheckpointError, MemoryCheckpointStore};
    use crate::oracle::{CountingOracle, FallibleOracle};
    use std::cell::RefCell;
    use std::collections::HashMap;

    /// Store that also keeps every checkpoint ever saved, so tests can
    /// resume from an arbitrary earlier iteration (simulating a crash at
    /// that point).
    #[derive(Default)]
    struct CaptureStore {
        inner: MemoryCheckpointStore,
        all: RefCell<Vec<Checkpoint>>,
    }

    impl CheckpointStore for CaptureStore {
        fn save(&self, c: &Checkpoint) -> std::result::Result<(), CheckpointError> {
            self.all.borrow_mut().push(c.clone());
            self.inner.save(c)
        }

        fn load(&self) -> std::result::Result<Option<Checkpoint>, CheckpointError> {
            self.inner.load()
        }
    }

    /// Semantic equality of two results: everything except wall-clock
    /// timing fields.
    fn assert_same_outcome(a: &TuneResult, b: &TuneResult) {
        assert_eq!(a.pareto_indices, b.pareto_indices);
        assert_eq!(a.evaluated, b.evaluated);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.verification_runs, b.verification_runs);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.delta, b.delta);
        assert_eq!(a.quarantined, b.quarantined);
        assert_eq!(a.eval_failures, b.eval_failures);
        assert_eq!(a.eval_retries, b.eval_retries);
        assert_eq!(a.degraded_fits, b.degraded_fits);
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(
                (
                    x.iteration,
                    x.undecided,
                    x.pareto,
                    x.dropped,
                    x.quarantined,
                    x.runs
                ),
                (
                    y.iteration,
                    y.undecided,
                    y.pareto,
                    y.dropped,
                    y.quarantined,
                    y.runs
                ),
            );
        }
    }

    #[test]
    fn flaky_evaluations_are_retried_transparently() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        let mut clean_oracle = VecOracle::new(truth.clone());
        let clean = PpaTuner::new(quick_config())
            .run(&source, &candidates, &mut clean_oracle)
            .unwrap();

        // Every candidate's first attempt crashes; retries succeed.
        let mut seen: HashMap<usize, usize> = HashMap::new();
        let flaky_truth = truth.clone();
        let mut oracle = FallibleOracle::new(move |i: usize| {
            let attempts = seen.entry(i).or_insert(0);
            *attempts += 1;
            if *attempts == 1 {
                Err(EvalError::Crash {
                    detail: "flaky license".into(),
                })
            } else {
                Ok(flaky_truth[i].clone())
            }
        });
        let result = PpaTuner::new(quick_config())
            .run(&source, &candidates, &mut oracle)
            .unwrap();

        // Same search, same answer — failures cost retries, nothing else.
        assert_eq!(result.pareto_indices, clean.pareto_indices);
        assert_eq!(result.evaluated, clean.evaluated);
        assert_eq!(result.iterations, clean.iterations);
        assert!(result.quarantined.is_empty());
        assert!(result.eval_failures > 0);
        assert_eq!(result.eval_failures, result.eval_retries);
        // Every attempt (failed or not) is a tool run.
        assert_eq!(
            result.runs + result.verification_runs,
            clean.runs + clean.verification_runs + result.eval_failures
        );
    }

    #[test]
    fn always_failing_candidates_are_quarantined_not_fatal() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        let broken_truth = truth.clone();
        let mut oracle = FallibleOracle::new(move |i: usize| {
            if i % 2 == 1 {
                Err(EvalError::Timeout {
                    stage: "route".into(),
                    elapsed_s: 9.9,
                })
            } else {
                Ok(broken_truth[i].clone())
            }
        });
        let sink = obs::RecordingSink::new();
        let result = PpaTuner::new(quick_config())
            .run_observed(&source, &candidates, &mut oracle, &sink)
            .unwrap();

        assert!(!result.quarantined.is_empty(), "odd candidates must trip");
        assert!(result.quarantined.iter().all(|i| i % 2 == 1));
        assert!(result.evaluated.iter().all(|(i, _)| i % 2 == 0));
        assert!(result.pareto_indices.iter().all(|i| i % 2 == 0));
        assert!(!result.pareto_indices.is_empty());
        // Budget: every quarantine burned the full attempt budget.
        let budget = quick_config().max_eval_attempts;
        assert!(result.eval_failures >= budget * result.quarantined.len());
        // Trace accounting: every attempt is exactly one ToolEval or one
        // EvalFailed.
        assert_eq!(
            sink.count("ToolEval") + sink.count("EvalFailed"),
            result.runs + result.verification_runs
        );
        assert_eq!(sink.count("CandidateQuarantined"), result.quarantined.len());
        assert_eq!(sink.count("EvalFailed"), result.eval_failures);
    }

    #[test]
    fn non_finite_qor_is_rejected_before_entering_the_model() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        let bad_truth = truth.clone();
        let mut oracle = CountingOracle::new(move |i: usize| {
            if i % 2 == 1 {
                vec![f64::NAN, f64::INFINITY]
            } else {
                bad_truth[i].clone()
            }
        });
        let result = PpaTuner::new(quick_config())
            .run(&source, &candidates, &mut oracle)
            .unwrap();
        assert!(result
            .evaluated
            .iter()
            .all(|(_, y)| y.iter().all(|v| v.is_finite())));
        assert!(!result.quarantined.is_empty());
        assert!(result.quarantined.iter().all(|i| i % 2 == 1));
        assert!(result.pareto_indices.iter().all(|i| i % 2 == 0));
    }

    #[test]
    fn out_of_range_index_aborts_instead_of_retrying() {
        let (candidates, _) = toy(20);
        // Table shorter than the candidate set: indexing past it is a
        // caller bug, not a transient tool failure.
        let mut oracle = VecOracle::new(vec![vec![1.0, 2.0]; 5]);
        let err = PpaTuner::new(quick_config())
            .run(&SourceData::empty(), &candidates, &mut oracle)
            .unwrap_err();
        match err {
            TunerError::Evaluation(EvalError::OutOfRange { len: 5, .. }) => {}
            other => panic!("expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        let mut o1 = VecOracle::new(truth.clone());
        let plain = PpaTuner::new(slow_config())
            .run(&source, &candidates, &mut o1)
            .unwrap();
        let store = CaptureStore::default();
        let mut o2 = VecOracle::new(truth);
        let checkpointed = PpaTuner::new(slow_config())
            .run_checkpointed(&source, &candidates, &mut o2, &NULL_SINK, &store)
            .unwrap();
        assert_same_outcome(&plain, &checkpointed);
        // One checkpoint per iteration that evaluated something (the
        // final, fully-decided iteration evaluates nothing and is not a
        // valid replay boundary).
        let all = store.all.borrow();
        assert!(
            all.len() >= 2,
            "want several checkpoints, got {}",
            all.len()
        );
        assert!(all.len() <= checkpointed.iterations);
        assert!(all
            .windows(2)
            .all(|w| w[0].next_iteration < w[1].next_iteration));
        assert!(all.iter().all(|c| c.version == CHECKPOINT_VERSION));
    }

    #[test]
    fn resume_from_any_iteration_reproduces_the_full_run() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        let store = CaptureStore::default();
        let mut oracle = VecOracle::new(truth.clone());
        let full = PpaTuner::new(slow_config())
            .run_checkpointed(&source, &candidates, &mut oracle, &NULL_SINK, &store)
            .unwrap();
        let all = store.all.borrow();
        assert!(all.len() >= 2, "need at least two checkpoints to sample");
        // Resume from the first, a middle, and the last checkpoint — as
        // if the process had died right after each was written.
        for k in [0, all.len() / 2, all.len() - 1] {
            let crash_point = MemoryCheckpointStore::new();
            crash_point.put(all[k].clone());
            let mut fresh = VecOracle::new(truth.clone());
            let resumed = PpaTuner::new(slow_config())
                .resume(&source, &candidates, &mut fresh, &NULL_SINK, &crash_point)
                .unwrap();
            assert_same_outcome(&full, &resumed);
            // Resume kept checkpointing past the crash point, ending on
            // the same final boundary as the uninterrupted run.
            let latest = crash_point.latest().unwrap();
            assert_eq!(latest.next_iteration, all.last().unwrap().next_iteration);
        }
    }

    #[test]
    fn resume_with_empty_store_is_a_fresh_run() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        let mut o1 = VecOracle::new(truth.clone());
        let plain = PpaTuner::new(slow_config())
            .run(&source, &candidates, &mut o1)
            .unwrap();
        let store = MemoryCheckpointStore::new();
        let mut o2 = VecOracle::new(truth);
        let resumed = PpaTuner::new(slow_config())
            .resume(&source, &candidates, &mut o2, &NULL_SINK, &store)
            .unwrap();
        assert_same_outcome(&plain, &resumed);
    }

    #[test]
    fn resume_rejects_foreign_checkpoints() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        let store = CaptureStore::default();
        let mut oracle = VecOracle::new(truth.clone());
        PpaTuner::new(slow_config())
            .run_checkpointed(&source, &candidates, &mut oracle, &NULL_SINK, &store)
            .unwrap();
        let ckpt = store.all.borrow()[0].clone();
        let foreign = MemoryCheckpointStore::new();
        foreign.put(ckpt);
        // Different seed => different run: must refuse, not diverge.
        let other_config = PpaTunerConfig {
            seed: 8,
            ..slow_config()
        };
        let mut fresh = VecOracle::new(truth);
        let err = PpaTuner::new(other_config)
            .resume(&source, &candidates, &mut fresh, &NULL_SINK, &foreign)
            .unwrap_err();
        assert!(matches!(err, TunerError::Checkpoint { .. }), "{err:?}");
    }

    #[test]
    fn resumed_trace_continues_without_duplicating_the_prefix() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        let store = CaptureStore::default();
        let mut oracle = VecOracle::new(truth.clone());
        let prefix_sink = obs::RecordingSink::new();
        let full = PpaTuner::new(slow_config())
            .run_checkpointed(&source, &candidates, &mut oracle, &prefix_sink, &store)
            .unwrap();
        let mid = store.all.borrow()[store.all.borrow().len() / 2].clone();
        let crash_point = MemoryCheckpointStore::new();
        let mid_iteration = mid.next_iteration;
        crash_point.put(mid);
        let sink = obs::RecordingSink::new();
        let mut fresh = VecOracle::new(truth);
        let resumed = PpaTuner::new(slow_config())
            .resume(&source, &candidates, &mut fresh, &sink, &crash_point)
            .unwrap();
        assert_same_outcome(&full, &resumed);
        // No second RunStart, and the replayed iterations stay silent.
        assert_eq!(sink.count("RunStart"), 0);
        assert_eq!(sink.count("RunEnd"), 1);
        assert_eq!(
            sink.count("IterationEnd"),
            full.history.len() - mid_iteration
        );
    }

    #[test]
    fn source_data_rejects_non_finite_values() {
        assert!(SourceData::new(vec![vec![f64::NAN]], vec![vec![1.0]]).is_err());
        assert!(SourceData::new(vec![vec![0.0]], vec![vec![f64::INFINITY]]).is_err());
        assert!(SourceData::new(vec![vec![0.0]], vec![vec![f64::NEG_INFINITY]]).is_err());
    }

    #[test]
    fn rejects_non_finite_candidates() {
        let mut oracle = VecOracle::new(vec![vec![1.0, 2.0]; 4]);
        let err = PpaTuner::new(slow_config())
            .run(
                &SourceData::empty(),
                &[vec![0.0], vec![f64::NAN], vec![0.5], vec![1.0]],
                &mut oracle,
            )
            .unwrap_err();
        assert!(matches!(err, TunerError::InvalidInput { .. }), "{err:?}");
    }

    #[test]
    fn resilience_config_is_validated() {
        let bad = |cfg: PpaTunerConfig| {
            let mut oracle = VecOracle::new(vec![vec![1.0, 2.0]; 4]);
            PpaTuner::new(cfg)
                .run(&SourceData::empty(), &[vec![0.0]], &mut oracle)
                .unwrap_err()
        };
        assert!(matches!(
            bad(PpaTunerConfig {
                max_eval_attempts: 0,
                ..slow_config()
            }),
            TunerError::InvalidConfig {
                name: "max_eval_attempts",
                ..
            }
        ));
        assert!(matches!(
            bad(PpaTunerConfig {
                backoff_base_s: f64::NAN,
                ..slow_config()
            }),
            TunerError::InvalidConfig {
                name: "backoff_base_s",
                ..
            }
        ));
        assert!(matches!(
            bad(PpaTunerConfig {
                outlier_gate: 0.0,
                ..quick_config()
            }),
            TunerError::InvalidConfig {
                name: "outlier_gate",
                ..
            }
        ));
        assert!(matches!(
            bad(PpaTunerConfig {
                degraded_fit_budget: 0,
                ..quick_config()
            }),
            TunerError::InvalidConfig {
                name: "degraded_fit_budget",
                ..
            }
        ));
    }

    #[test]
    fn backoff_schedule_is_capped_exponential() {
        let cfg = PpaTunerConfig {
            backoff_base_s: 2.0,
            backoff_cap_s: 10.0,
            ..PpaTunerConfig::default()
        };
        assert_eq!(cfg.retry_backoff_s(2), 2.0);
        assert_eq!(cfg.retry_backoff_s(3), 4.0);
        assert_eq!(cfg.retry_backoff_s(4), 8.0);
        assert_eq!(cfg.retry_backoff_s(5), 10.0);
        assert_eq!(cfg.retry_backoff_s(50), 10.0);
    }

    // ---------------------------------------------- degraded-mode supervisor

    use crate::supervisor::{inject_fit_faults, FitFaultPlan};

    fn fault_plan(refit: f64, fallback: f64, condition: f64) -> FitFaultPlan {
        FitFaultPlan {
            seed: 11,
            refit_fail: refit,
            fallback_fail: fallback,
            condition_fail: condition,
        }
    }

    #[test]
    fn injected_refit_faults_degrade_to_data_only_refits() {
        let (candidates, truth) = toy(30);
        let source = shifted_source(&candidates, &truth);
        // Tight δ and a small seed set keep the loop alive past bootstrap,
        // so the refit fault sites are actually reached.
        let cfg = PpaTunerConfig {
            refit_every: 1,
            degraded_fit_budget: 64,
            initial_samples: 4,
            delta_rel: 0.001,
            ..quick_config()
        };
        let mut oracle = VecOracle::new(truth.clone());
        let sink = obs::RecordingSink::new();
        let _guard = inject_fit_faults(fault_plan(1.0, 0.0, 0.0));
        let result = PpaTuner::new(cfg)
            .run_observed(&source, &candidates, &mut oracle, &sink)
            .unwrap();
        assert!(
            result.degraded_fits > 0,
            "every refit past bootstrap faults"
        );
        assert_eq!(sink.count("DegradedFit"), result.degraded_fits);
        // A DegradedFit replaces that objective's GpFit: per iteration,
        // each objective emits exactly one of the two.
        assert_eq!(
            sink.count("GpFit") + sink.count("DegradedFit"),
            2 * result.iterations
        );
        for e in &sink.events() {
            if let Event::DegradedFit {
                mode,
                cause,
                consecutive,
                ..
            } = e
            {
                assert_eq!(mode, "refit-reused-hypers");
                assert!(cause.contains("injected_fit_fault"), "{cause}");
                assert!(*consecutive >= 1);
            }
        }
        // The degraded run still classifies a front: data-only refits keep
        // absorbing fresh observations under the last-good hypers.
        assert!(!result.pareto_indices.is_empty());
    }

    #[test]
    fn failing_fallback_freezes_the_last_good_model() {
        let (candidates, truth) = toy(30);
        let source = shifted_source(&candidates, &truth);
        let cfg = PpaTunerConfig {
            refit_every: 1,
            degraded_fit_budget: 64,
            initial_samples: 4,
            delta_rel: 0.001,
            ..quick_config()
        };
        let mut oracle = VecOracle::new(truth.clone());
        let sink = obs::RecordingSink::new();
        let _guard = inject_fit_faults(fault_plan(1.0, 1.0, 0.0));
        let result = PpaTuner::new(cfg)
            .run_observed(&source, &candidates, &mut oracle, &sink)
            .unwrap();
        assert!(result.degraded_fits > 0);
        for e in &sink.events() {
            if let Event::DegradedFit { mode, .. } = e {
                assert_eq!(mode, "frozen");
            }
        }
    }

    #[test]
    fn condition_faults_freeze_on_the_warm_path() {
        let (candidates, truth) = toy(30);
        let source = shifted_source(&candidates, &truth);
        let cfg = PpaTunerConfig {
            degraded_fit_budget: 64,
            initial_samples: 4,
            delta_rel: 0.001,
            ..quick_config() // refit_every = 10: iterations 1..9 are warm
        };
        let mut oracle = VecOracle::new(truth.clone());
        let sink = obs::RecordingSink::new();
        let _guard = inject_fit_faults(fault_plan(0.0, 0.0, 1.0));
        let result = PpaTuner::new(cfg)
            .run_observed(&source, &candidates, &mut oracle, &sink)
            .unwrap();
        assert!(result.degraded_fits > 0, "every warm extension faults");
        let mut saw_streak = 0usize;
        for e in &sink.events() {
            if let Event::DegradedFit {
                mode, consecutive, ..
            } = e
            {
                assert_eq!(mode, "frozen");
                saw_streak = saw_streak.max(*consecutive);
            }
        }
        assert!(
            saw_streak >= 2,
            "consecutive warm faults must grow the streak, saw {saw_streak}"
        );
    }

    #[test]
    fn persistent_degradation_exhausts_the_budget() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        // Tight δ keeps the loop running well past the budget's horizon.
        let cfg = PpaTunerConfig {
            refit_every: 1,
            degraded_fit_budget: 2,
            initial_samples: 4,
            delta_rel: 0.001,
            ..quick_config()
        };
        let mut oracle = VecOracle::new(truth.clone());
        let _guard = inject_fit_faults(fault_plan(1.0, 0.0, 0.0));
        let err = PpaTuner::new(cfg)
            .run(&source, &candidates, &mut oracle)
            .unwrap_err();
        match err {
            TunerError::DegradationBudgetExhausted { consecutive, cause } => {
                assert_eq!(consecutive, 3, "budget 2 breaks on the third streak");
                assert!(cause.contains("injected_fit_fault"), "{cause}");
            }
            other => panic!("expected a budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn degraded_run_resumes_identically_when_the_plan_is_rearmed() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        let cfg = PpaTunerConfig {
            refit_every: 2,
            degraded_fit_budget: 64,
            initial_samples: 4,
            delta_rel: 0.001,
            ..slow_config()
        };
        let plan = fault_plan(1.0, 0.0, 0.0);
        let store = CaptureStore::default();
        let full = {
            let _guard = inject_fit_faults(plan.clone());
            let mut oracle = VecOracle::new(truth.clone());
            PpaTuner::new(cfg.clone())
                .run_checkpointed(&source, &candidates, &mut oracle, &NULL_SINK, &store)
                .unwrap()
        };
        assert!(full.degraded_fits > 0);
        let all = store.all.borrow();
        let mid = all
            .iter()
            .find(|c| c.snapshot.degraded_fits > 0)
            .expect("some checkpoint records a degraded fit")
            .clone();
        // Re-armed plan: replay re-derives the same degraded fits and the
        // resumed run finishes identically.
        let crash_point = MemoryCheckpointStore::new();
        crash_point.put(mid.clone());
        let resumed = {
            let _guard = inject_fit_faults(plan);
            let mut oracle = VecOracle::new(truth.clone());
            PpaTuner::new(cfg.clone())
                .resume(&source, &candidates, &mut oracle, &NULL_SINK, &crash_point)
                .unwrap()
        };
        assert_same_outcome(&full, &resumed);
        // Forgotten plan: replay finds no faults, the degraded-fit counter
        // diverges from the snapshot, and the resume refuses to go live.
        let crash_point = MemoryCheckpointStore::new();
        crash_point.put(mid);
        let mut oracle = VecOracle::new(truth);
        let err = PpaTuner::new(cfg)
            .resume(&source, &candidates, &mut oracle, &NULL_SINK, &crash_point)
            .unwrap_err();
        match err {
            TunerError::Checkpoint { reason } => {
                assert!(reason.contains("degraded fits"), "{reason}");
                assert!(reason.contains("fault plan"), "{reason}");
            }
            other => panic!("expected a checkpoint refusal, got {other:?}"),
        }
    }

    #[test]
    fn clean_runs_report_zero_degraded_fits() {
        let (candidates, truth) = toy(30);
        let source = shifted_source(&candidates, &truth);
        let mut oracle = VecOracle::new(truth.clone());
        let sink = obs::RecordingSink::new();
        let result = PpaTuner::new(quick_config())
            .run_observed(&source, &candidates, &mut oracle, &sink)
            .unwrap();
        assert_eq!(result.degraded_fits, 0);
        assert_eq!(sink.count("DegradedFit"), 0);
        assert_eq!(sink.count("RecoveryScan"), 0);
        assert_eq!(sink.count("WatchdogFired"), 0);
    }

    // ---------------------------------------------- adaptive pool / SoD

    use crate::oracle::FnOracle;

    /// A 2-D landscape as a coordinate function (what a real PD tool is:
    /// QoR of an arbitrary configuration, not a table row). The front
    /// trades off along both axes, so a coarse seed grid leaves genuine
    /// uncertainty for the pool to refine into.
    fn toy_fn(x: &[f64]) -> Vec<f64> {
        let (a, b) = (x[0], x[1]);
        vec![
            a + 0.25 * b * b + 0.05,
            (1.0 - a).powi(2) + 0.25 * (1.0 - b).powi(2) + 0.05,
        ]
    }

    fn pool_config() -> PpaTunerConfig {
        PpaTunerConfig {
            adaptive_pool: true,
            pool_refine_scale: 0.03,
            pool_max_refines: 4,
            pool_max_size: 64,
            initial_samples: 5,
            delta_rel: 0.002,
            max_iterations: 12,
            seed: 3,
            ..quick_config()
        }
    }

    /// Coarse 3×3 seed grid plus a coordinate oracle: the pool's natural
    /// habitat.
    fn pool_setup() -> (Vec<Vec<f64>>, SourceData) {
        let candidates: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![((i % 3) as f64 + 0.5) / 3.0, ((i / 3) as f64 + 0.5) / 3.0])
            .collect();
        let source_x: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![(i % 4) as f64 / 3.0, (i / 4) as f64 / 2.0])
            .collect();
        let source_y: Vec<Vec<f64>> = source_x
            .iter()
            .map(|p| toy_fn(p).iter().map(|v| v * 1.2 + 0.1).collect())
            .collect();
        (candidates, SourceData::new(source_x, source_y).unwrap())
    }

    #[test]
    fn adaptive_pool_grows_the_candidate_set() {
        let (candidates, source) = pool_setup();
        let mut oracle = FnOracle::new(toy_fn);
        let sink = obs::RecordingSink::new();
        let result = PpaTuner::new(pool_config())
            .run_observed(&source, &candidates, &mut oracle, &sink)
            .unwrap();
        assert!(!result.pareto_indices.is_empty());
        // One PoolRefine per iteration, and the pool actually grew: some
        // evaluated candidate carries an index past the initial eight.
        assert_eq!(sink.count("PoolRefine"), result.iterations);
        let grown = sink.events().iter().any(
            |e| matches!(e, Event::PoolRefine { pool_size, .. } if *pool_size > candidates.len()),
        );
        assert!(grown, "pool never grew past the seed grid");
        // Legacy events are still consistent on the grown run.
        assert_eq!(sink.count("GpFit"), 2 * result.iterations);
        assert_eq!(
            sink.count("ToolEval"),
            result.runs + result.verification_runs
        );
    }

    #[test]
    fn adaptive_pool_is_deterministic() {
        let (candidates, source) = pool_setup();
        let run = || {
            let mut oracle = FnOracle::new(toy_fn);
            PpaTuner::new(pool_config())
                .run(&source, &candidates, &mut oracle)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.pareto_indices, b.pareto_indices);
        assert_eq!(a.evaluated, b.evaluated);
        assert_eq!(a.runs, b.runs);
    }

    #[test]
    fn adaptive_pool_composes_with_batch_and_resume() {
        let (candidates, source) = pool_setup();
        let cfg = PpaTunerConfig {
            batch_size: 2,
            ..pool_config()
        };
        let store = CaptureStore::default();
        let mut oracle = FnOracle::new(toy_fn);
        let full = PpaTuner::new(cfg.clone())
            .run_checkpointed(&source, &candidates, &mut oracle, &NULL_SINK, &store)
            .unwrap();
        let all = store.all.borrow();
        assert!(all.len() >= 2, "need checkpoints to resume from");
        // Resume from a middle checkpoint: pool growth replays
        // deterministically, so the resumed run matches the full one.
        let crash_point = MemoryCheckpointStore::new();
        crash_point.put(all[all.len() / 2].clone());
        let mut fresh = FnOracle::new(toy_fn);
        let resumed = PpaTuner::new(cfg)
            .resume(&source, &candidates, &mut fresh, &NULL_SINK, &crash_point)
            .unwrap();
        assert_same_outcome(&full, &resumed);
    }

    #[test]
    fn sod_path_stays_close_to_exact_path() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        let exact = {
            let mut oracle = VecOracle::new(truth.clone());
            PpaTuner::new(quick_config())
                .run(&source, &candidates, &mut oracle)
                .unwrap()
        };
        // Tiny threshold: the subset path is active from the first
        // iteration, with enough anchors to stay informative.
        let cfg = PpaTunerConfig {
            sod_threshold: 10,
            sod_subset: 48,
            ..quick_config()
        };
        let mut oracle = VecOracle::new(truth.clone());
        let sink = obs::RecordingSink::new();
        let sod = PpaTuner::new(cfg)
            .run_observed(&source, &candidates, &mut oracle, &sink)
            .unwrap();
        assert_eq!(sink.count("PredictMode"), sod.iterations);
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, Event::PredictMode { mode, .. } if mode == "subset")));
        // The subset posterior's boxes are conservative, not wrong: the
        // search still lands near the true front.
        let golden: Vec<Vec<f64>> = pareto::front::pareto_front(&truth)
            .into_iter()
            .map(|i| truth[i].clone())
            .collect();
        let predicted: Vec<Vec<f64>> = sod
            .pareto_indices
            .iter()
            .map(|&i| truth[i].clone())
            .collect();
        let adrs = pareto::metrics::adrs(&golden, &predicted).unwrap();
        assert!(adrs < 0.25, "adrs {adrs}");
        assert!(!exact.pareto_indices.is_empty());
    }

    #[test]
    fn iteration_counts_match_the_emitted_trace() {
        // Satellite regression for the counts-once refactor: rebuild each
        // iteration's counts from RegionSnapshot + same-iteration
        // quarantines and compare against IterationEnd — on a run where
        // quarantines actually perturb the counts mid-iteration.
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        let broken_truth = truth.clone();
        let mut oracle = FallibleOracle::new(move |i: usize| {
            if i % 2 == 1 {
                Err(EvalError::Timeout {
                    stage: "route".into(),
                    elapsed_s: 9.9,
                })
            } else {
                Ok(broken_truth[i].clone())
            }
        });
        let sink = obs::RecordingSink::new();
        let result = PpaTuner::new(quick_config())
            .run_observed(&source, &candidates, &mut oracle, &sink)
            .unwrap();
        assert!(!result.quarantined.is_empty(), "need mid-iteration churn");
        let events = sink.events();
        let mut checked = 0;
        for (end_pos, e) in events.iter().enumerate() {
            let Event::IterationEnd {
                iteration,
                pareto,
                dropped,
                undecided,
                ..
            } = e
            else {
                continue;
            };
            // The iteration's snapshot (classify-time counts), and the
            // quarantine transitions that happened between it and the
            // iteration end. Initialization quarantines are also tagged
            // iteration 0 but precede the snapshot, so position — not the
            // iteration field — is what separates them.
            let (snap_pos, snapshot) = events
                .iter()
                .enumerate()
                .find_map(|(pos, s)| match s {
                    Event::RegionSnapshot {
                        iteration: it,
                        statuses,
                        ..
                    } if it == iteration => Some((pos, statuses.clone())),
                    _ => None,
                })
                .expect("every iteration snapshots");
            let post_quarantines = events[snap_pos..end_pos]
                .iter()
                .filter(|q| matches!(q, Event::CandidateQuarantined { .. }))
                .count();
            let count_of = |c: char| snapshot.chars().filter(|&s| s == c).count();
            // Drops only happen at classify; selection only converts
            // active candidates (u or p) into q.
            assert_eq!(*dropped, count_of('d'), "iter {iteration}");
            assert!(*undecided <= count_of('u'), "iter {iteration}");
            assert!(*pareto <= count_of('p'), "iter {iteration}");
            assert_eq!(
                (count_of('u') - undecided) + (count_of('p') - pareto),
                post_quarantines,
                "iter {iteration}"
            );
            checked += 1;
        }
        assert_eq!(checked, result.history.len());
        // And the history rows agree with the trace rows.
        for (rec, e) in result.history.iter().zip(
            events
                .iter()
                .filter(|e| matches!(e, Event::IterationEnd { .. })),
        ) {
            if let Event::IterationEnd {
                pareto,
                dropped,
                undecided,
                ..
            } = e
            {
                assert_eq!(rec.pareto, *pareto);
                assert_eq!(rec.dropped, *dropped);
                assert_eq!(rec.undecided, *undecided);
            }
        }
    }

    #[test]
    fn pool_and_sod_config_are_validated() {
        let bad = |cfg: PpaTunerConfig| {
            let mut oracle = VecOracle::new(vec![vec![1.0, 2.0]; 4]);
            PpaTuner::new(cfg)
                .run(&SourceData::empty(), &[vec![0.0]], &mut oracle)
                .unwrap_err()
        };
        for (name, cfg) in [
            (
                "pool_refine_scale",
                PpaTunerConfig {
                    pool_refine_scale: 0.0,
                    ..quick_config()
                },
            ),
            (
                "pool_max_refines",
                PpaTunerConfig {
                    pool_max_refines: 0,
                    ..quick_config()
                },
            ),
            (
                "pool_max_size",
                PpaTunerConfig {
                    pool_max_size: 0,
                    ..quick_config()
                },
            ),
            (
                "sod_subset",
                PpaTunerConfig {
                    sod_subset: 0,
                    ..quick_config()
                },
            ),
            (
                "workers",
                PpaTunerConfig {
                    workers: 4097,
                    ..quick_config()
                },
            ),
        ] {
            match bad(cfg) {
                TunerError::InvalidConfig { name: got, .. } => assert_eq!(got, name),
                other => panic!("expected InvalidConfig for {name}, got {other:?}"),
            }
        }
    }

    #[test]
    fn batch_mode_evaluates_multiple_per_iteration() {
        let (candidates, truth) = toy(40);
        let source = shifted_source(&candidates, &truth);
        // Whether any candidates stay undecided after the initial design is
        // sensitive to the RNG stream; this seed leaves some undecided so the
        // batch loop actually executes.
        let cfg = PpaTunerConfig {
            batch_size: 4,
            max_iterations: 5,
            seed: 2,
            ..quick_config()
        };
        let mut oracle = VecOracle::new(truth);
        let result = PpaTuner::new(cfg)
            .run(&source, &candidates, &mut oracle)
            .unwrap();
        // 8 init + up to 5 iterations × 4 batch.
        assert!(result.runs <= 8 + 20);
        assert!(result.runs > 8);
    }
}
