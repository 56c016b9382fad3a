//! The PPATuner loop (Algorithm 1 of the paper).

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use gp::optimize::FitBudget;
use gp::{GpCounters, TaskData};
use obs::{Event, Observer, OpenSpan, Tracer, NULL_SINK};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{CheckpointStore, EvalOutcome, EvalRecord};
use crate::decision::{classify, select_batch, Status};
use crate::oracle::{EvalError, OracleRef, WATCHDOG_STAGE};
use crate::pool::AdaptivePool;
use crate::region::UncertaintyRegion;
use crate::{Result, TunerError};

mod driver;
mod surrogate;
use driver::Driver;
use surrogate::Surrogate;

/// Diversity penalty strength γ ∈ [0, 1) of the batch selection rule
/// ([`select_batch`]): a pick's score is `diam · (1 − γ·red)`, where `red`
/// measures redundancy against the members already picked. Irrelevant at
/// `batch_size` 1.
const BATCH_DIVERSITY: f64 = 0.5;
/// Parameter-space radius (encoded coordinates) inside which two batch
/// members start counting as redundant.
const DIVERSITY_RADIUS: f64 = 0.25;
/// QoR sanitization gate: an observation is rejected as a gross outlier
/// when it falls outside the candidate's current uncertainty region
/// widened per objective by `OUTLIER_GATE × max(region width, observed
/// span)`. Large, so only tool garbage (unit mix-ups, truncated reports)
/// trips it, never a merely surprising true value.
const OUTLIER_GATE: f64 = 8.0;

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
    /// ([`select_batch`]) and each batch is
    /// evaluated as one concurrent wave: through a
    /// [`ConcurrentOracle`](crate::ConcurrentOracle), every member of a
    /// wave runs on its own thread, since tool runs wait on licenses, not
    /// cores, and `batch_size` already is the license count.
    pub batch_size: usize,
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
    /// sweeps. The calling thread counts toward it, so a fan-out spawns
    /// at most `workers − 1` threads. 0 (the default) sizes it to the
    /// machine's available parallelism; 1 keeps everything on the calling
    /// thread. Results are bitwise identical at every value — this only
    /// trades wall-clock — so resume accepts a checkpoint taken at another
    /// worker count.
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
    /// Grow the candidate pool adaptively (off by default): the initial
    /// candidates become leaf representatives of a bisection cell tree
    /// over the parameter box, and each iteration splits the cells whose
    /// representative's uncertainty-region diameter still exceeds
    /// [`pool_refine_scale`](PpaTunerConfig::pool_refine_scale) times the
    /// cell's own diameter, appending the new sibling centers as fresh
    /// candidates. Requires an oracle that can evaluate arbitrary
    /// coordinates ([`QorOracle::evaluate_at`](crate::QorOracle::evaluate_at), e.g.
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
    /// box prediction enters the subset-of-data regime
    /// ([`gp::SubsetPredictor`]), whose per-query cost is bounded by
    /// [`sod_subset`](PpaTunerConfig::sod_subset) instead of the full
    /// training size. The subset variance dominates the exact variance,
    /// so ε-PAL's uncertainty boxes stay conservative. `usize::MAX` (the
    /// default) never switches.
    pub sod_threshold: usize,
    /// Anchor count of the subset-of-data predictor. Only a training set
    /// larger than both this and `sod_threshold` is predicted from a
    /// subset; a subset that would keep every point is the exact
    /// posterior, so those sweeps take the exact path and its predict
    /// caches (the trace's `PredictMode` still says `"subset"`, with
    /// `subset_size == train_size`).
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
            refit_every: 25,
            fit_budget: FitBudget::default(),
            seed: 0,
            workers: 0,
            include_predicted_front: true,
            max_eval_attempts: 3,
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
        if self.max_eval_attempts == 0 {
            return Err(TunerError::InvalidConfig {
                name: "max_eval_attempts",
                value: 0.0,
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
    /// `oracle` is `&mut impl QorOracle` (wave members run one at a time)
    /// or `&impl ConcurrentOracle` (every member of a selection wave runs
    /// on its own thread, overlapping tool runs in wall-clock); see
    /// [`OracleRef`]. Results, traces and span IDs are identical either
    /// way — only timing fields differ.
    ///
    /// # Errors
    ///
    /// - [`TunerError::InvalidInput`] for an empty/inconsistent candidate
    ///   set or source;
    /// - [`TunerError::InvalidConfig`] for out-of-range options;
    /// - [`TunerError::Surrogate`] when GP fitting fails irrecoverably.
    pub fn run<'o>(
        &self,
        source: &SourceData,
        candidates: &[Vec<f64>],
        oracle: impl Into<OracleRef<'o>>,
    ) -> Result<TuneResult> {
        self.run_observed(source, candidates, oracle, &NULL_SINK)
    }

    /// Like [`PpaTuner::run`], but streams structured [`Event`]s to
    /// `observer` as the run progresses: one `GpFit` per surrogate per
    /// iteration, one `ToolEval` per tool run, plus `Classify`, `BatchSelect`,
    /// `IterationEnd`, and run-level bookends.
    ///
    /// Event construction is gated on [`Observer::enabled`], so passing
    /// [`obs::NULL_SINK`] (what [`PpaTuner::run`] does) costs almost
    /// nothing.
    ///
    /// # Errors
    ///
    /// Same as [`PpaTuner::run`].
    pub fn run_observed<'o>(
        &self,
        source: &SourceData,
        candidates: &[Vec<f64>],
        oracle: impl Into<OracleRef<'o>>,
        observer: &dyn Observer,
    ) -> Result<TuneResult> {
        let state = RunState::new(&self.config, source, candidates, observer)?;
        Driver::new(oracle.into(), None, candidates, source).drive(state)
    }

    /// Like [`PpaTuner::run_observed`], but persists a
    /// [`Checkpoint`](crate::Checkpoint) to `store` at the end of every
    /// iteration, so an interrupted run can be continued with
    /// [`PpaTuner::resume`]. Checkpoints land at iteration boundaries,
    /// which are always whole-wave boundaries. Any previous checkpoint in
    /// the store is overwritten.
    ///
    /// # Errors
    ///
    /// Same as [`PpaTuner::run`], plus [`TunerError::Checkpoint`] when
    /// the store rejects a save.
    pub fn run_checkpointed<'o>(
        &self,
        source: &SourceData,
        candidates: &[Vec<f64>],
        oracle: impl Into<OracleRef<'o>>,
        observer: &dyn Observer,
        store: &dyn CheckpointStore,
    ) -> Result<TuneResult> {
        let state = RunState::new(&self.config, source, candidates, observer)?;
        Driver::new(oracle.into(), Some(store), candidates, source).drive(state)
    }

    /// Continues an interrupted [`PpaTuner::run_checkpointed`] run from
    /// the checkpoint in `store` (an empty store starts a fresh run), and
    /// keeps checkpointing as it goes.
    ///
    /// Resume works by deterministic replay: the loop re-executes from
    /// the start with the same seed, and every wave's attempts are read
    /// back from the checkpoint's evaluation log (failures included,
    /// whole waves at a time) through the same retry loop the live tool
    /// runs through, which reproduces the checkpointed state exactly. The
    /// log must drain at an iteration boundary, where the re-derived state
    /// is verified against the checkpoint's snapshot before the oracle
    /// takes over. Trace events are only emitted from there on, so
    /// concatenating the interrupted run's trace with the resumed one
    /// yields one seamless run. Given the same `config`, `source`,
    /// `candidates`, and a fresh oracle over the same ground truth, the
    /// final [`TuneResult`] is identical to the uninterrupted run's
    /// (modulo wall-clock timing fields), through either oracle kind.
    ///
    /// # Errors
    ///
    /// Same as [`PpaTuner::run_checkpointed`], plus
    /// [`TunerError::Checkpoint`] when the stored checkpoint has a
    /// different version/configuration/data, or its log diverges from
    /// what the deterministic replay re-derives (including a log that
    /// ends inside a wave, or drains anywhere but at the checkpoint's
    /// iteration boundary — an empty log drains before the first wave).
    pub fn resume<'o>(
        &self,
        source: &SourceData,
        candidates: &[Vec<f64>],
        oracle: impl Into<OracleRef<'o>>,
        observer: &dyn Observer,
        store: &dyn CheckpointStore,
    ) -> Result<TuneResult> {
        driver::resume(
            &self.config,
            source,
            candidates,
            oracle.into(),
            observer,
            store,
        )
    }
}

/// Everything one run of Algorithm 1 carries from phase to phase: the
/// loop core, which does no I/O. Each phase is one method. The core gets
/// every wave's attempts from its [`Driver`] and calls
/// [`Driver::boundary`] at the end of every iteration; it emits events
/// whenever its observer is enabled. The per-objective models are its
/// [`Surrogate`]'s.
struct RunState<'a> {
    config: &'a PpaTunerConfig,
    source: &'a SourceData,
    /// The caller's observer, or the null sink while a resume replays
    /// (the driver hands the caller's over when the log drains).
    observer: &'a dyn Observer,
    /// Every attempt so far, replayed or live (the next checkpoint's
    /// replay script, so failures are recorded too).
    log: Vec<EvalRecord>,
    /// Wave events of the initialization, held back until `RunStart` can
    /// be emitted (the run is not characterized until the first QoR
    /// arrives); `None` from then on.
    init_events: Option<Vec<Event>>,
    /// Causal spans. IDs are allocated along the run structure whether a
    /// wave is replayed or live, so a resumed run's span IDs continue
    /// exactly where the interrupted trace stopped.
    tracer: Tracer,
    run_span: OpenSpan,
    run_start: Instant,
    rng: StdRng,
    /// The caller's candidates, followed by what the adaptive pool grows.
    candidates: Vec<Vec<f64>>,
    /// Objective count; 0 until the first accepted QoR fixes it.
    n_obj: usize,
    evaluated: Vec<(usize, Vec<f64>)>,
    evaluated_flag: Vec<bool>,
    statuses: Vec<Status>,
    /// Uncertainty regions; empty until initialization ends, which also
    /// keeps the outlier gate off during initialization.
    regions: Vec<UncertaintyRegion>,
    obs_span: ObservedSpan,
    delta: Vec<f64>,
    /// Fixed hypervolume reference of the trace's `IterationEnd` events.
    hv_reference: Vec<f64>,
    pool: Option<AdaptivePool>,
    surrogate: Surrogate<'a>,
    quarantined: Vec<usize>,
    eval_failures: usize,
    eval_retries: usize,
    history: Vec<IterationRecord>,
    iterations: usize,
}

impl<'a> RunState<'a> {
    /// Validates the inputs and sets up an empty run.
    fn new(
        config: &'a PpaTunerConfig,
        source: &'a SourceData,
        candidates: &[Vec<f64>],
        observer: &'a dyn Observer,
    ) -> Result<Self> {
        let run_start = Instant::now();
        config.validate()?;
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
        let tracer = Tracer::new();
        let run_span = tracer.open("run", None);
        let n = candidates.len();
        Ok(RunState {
            config,
            source,
            observer,
            log: Vec::new(),
            init_events: Some(Vec::new()),
            tracer,
            run_span,
            run_start,
            rng: StdRng::seed_from_u64(config.seed),
            candidates: candidates.to_vec(),
            n_obj: 0,
            evaluated: Vec::new(),
            evaluated_flag: vec![false; n],
            statuses: vec![Status::Undecided; n],
            regions: Vec::new(),
            obs_span: ObservedSpan::new(0),
            delta: Vec::new(),
            hv_reference: Vec::new(),
            pool: None,
            surrogate: Surrogate::new(config, source),
            quarantined: Vec::new(),
            eval_failures: 0,
            eval_retries: 0,
            history: Vec::new(),
            iterations: 0,
        })
    }

    /// Algorithm 1's iterations, until no candidate is undecided,
    /// selection finds nothing informative to measure, or
    /// `max_iterations` have run.
    fn run_loop(&mut self, driver: &mut Driver<'a, '_>) -> Result<()> {
        for t in 0..self.config.max_iterations {
            if !self.statuses.contains(&Status::Undecided) {
                break;
            }
            self.iterations = t + 1;
            let iter_start = Instant::now();
            let iter_span = self.tracer.open("iteration", Some(&self.run_span));
            let iter_resources = GpCounters::snapshot();
            // Read once: a resume goes live at an iteration's boundary, and
            // the iteration's span ends in the trace only if it started.
            let traced = self.tracing();
            if traced {
                self.observer.emit(&iter_span.start_event());
            }
            // Attempts logged before this iteration: whether it logged any
            // decides whether it is a checkpoint boundary.
            let log_mark = self.log.len();
            let fit_span = self.tracer.open("gp_fit", Some(&iter_span));
            if traced {
                self.observer.emit(&fit_span.start_event());
            }
            let gp_fit_s = self.surrogate.calibrate(
                t,
                &self.candidates,
                &self.evaluated,
                &mut self.rng,
                self.observer,
            )?;
            if traced {
                self.observer.emit(&self.tracer.end_event(&fit_span));
            }
            let predict_s = self.predict(t)?;
            // When classification just settled the last undecided
            // candidate, or selection finds nothing informative to
            // measure, the iteration is still recorded and checkpointed
            // like any other before the loop stops, so a resumed run can
            // skip straight past it.
            let stop =
                self.classify(t, &iter_span) || !self.select_and_evaluate(driver, t, &iter_span)?;
            let runs = driver.runs();
            self.record(t, iter_start, &iter_resources, gp_fit_s, predict_s, runs);
            let logged = self.log.len() > log_mark;
            driver.boundary(self, logged.then_some(&iter_span))?;
            if traced {
                self.observer.emit(&self.tracer.end_event(&iter_span));
            }
            if stop {
                break;
            }
        }
        Ok(())
    }

    /// Whether events go out.
    fn tracing(&self) -> bool {
        self.observer.enabled()
    }

    /// Emits a wave event, or holds it back while initialization runs.
    fn emit(&mut self, event: Event) {
        match &mut self.init_events {
            Some(held) => held.push(event),
            None => self.observer.emit(&event),
        }
    }

    /// Initialization: a greedy maximin design seeded by a random pick
    /// (the random sampling of the paper with better space coverage for
    /// the same budget), evaluated in batch-sized waves. The accepted
    /// observations fix the objective count, δ, the hypervolume reference
    /// and the per-objective state of the loop.
    fn initialize(&mut self, driver: &mut Driver<'a, '_>) -> Result<()> {
        let init_count = self.config.initial_samples.min(self.candidates.len());
        let init_idx = maximin_design(&self.candidates, init_count, &mut self.rng);
        let run_span = self.run_span.clone();
        for chunk in init_idx.chunks(self.config.batch_size) {
            for (&i, qor) in chunk.iter().zip(self.wave(driver, chunk, 0, &run_span)?) {
                let Some(y) = qor else { continue };
                // The first accepted QoR fixes the objective count;
                // siblings of that same wave were sanitized before it was
                // known, so they are dimension-checked here instead.
                if self.n_obj == 0 {
                    self.n_obj = y.len();
                } else if y.len() != self.n_obj {
                    return Err(TunerError::InvalidInput {
                        reason: "oracle returned inconsistent objective counts within a batch",
                    });
                }
                self.evaluated_flag[i] = true;
                self.evaluated.push((i, y));
            }
        }
        // Two successes are the floor for observed ranges (δ, the
        // hypervolume reference) and a fittable target task.
        if self.evaluated.len() < 2 {
            return Err(TunerError::InvalidInput {
                reason: "fewer than two initialization evaluations succeeded",
            });
        }
        let n_obj = self.n_obj;
        if self.source.objectives().is_some_and(|m| m != n_obj) {
            return Err(TunerError::InvalidInput {
                reason: "source and oracle objective counts differ",
            });
        }

        // The run is now fully characterized: announce it, then flush the
        // held initialization attempts into the trace (iteration 0).
        let held = self.init_events.take().unwrap_or_default();
        if self.tracing() {
            self.observer.emit(&Event::RunStart {
                candidates: self.candidates.len(),
                objectives: n_obj,
                dim: self.candidates[0].len(),
                initial_samples: init_count,
                max_iterations: self.config.max_iterations,
                seed: self.config.seed,
            });
            // The run span opens right after RunStart, before the held
            // initialization attempts that are its children.
            self.observer.emit(&self.run_span.start_event());
            for e in &held {
                self.observer.emit(e);
            }
        }

        // Per-objective observed ranges of the initialization sample.
        let init_ranges: Vec<(f64, f64)> = (0..n_obj)
            .map(|k| {
                let vals: Vec<f64> = self.evaluated.iter().map(|(_, y)| y[k]).collect();
                let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (lo, hi)
            })
            .collect();
        self.delta = init_ranges
            .iter()
            .map(|&(lo, hi)| (hi - lo).max(f64::MIN_POSITIVE) * self.config.delta_rel)
            .collect();
        // Slightly worse than the initialization nadir, so incremental
        // hypervolume is monotone and comparable across iterations.
        self.hv_reference = init_ranges
            .iter()
            .map(|&(lo, hi)| hi + 0.1 * (hi - lo).max(f64::MIN_POSITIVE))
            .collect();

        self.regions = (0..self.candidates.len())
            .map(|_| UncertaintyRegion::unbounded(n_obj))
            .collect();
        // Running per-objective span of accepted observations: the floor
        // of the outlier gate's allowance, so a tight (or collapsed)
        // region can never reject values of the magnitude the tool
        // actually produces.
        self.obs_span = ObservedSpan::new(n_obj);
        for (i, y) in &self.evaluated {
            self.regions[*i].collapse_to(y);
            self.obs_span.absorb(y);
        }
        // The adaptive pool (when enabled) wraps the candidates in a
        // bisection cell tree; refinement happens inside the loop once
        // uncertainty regions carry evidence.
        if self.config.adaptive_pool {
            self.pool = Some(AdaptivePool::new(&self.candidates)?);
        }
        Ok(())
    }

    /// Intersects the surrogate's `μ ± √τ·σ` boxes for the active,
    /// unmeasured candidates into their regions, then grows the adaptive
    /// pool and boxes its new candidates in the same sweep. Returns the
    /// phase's wall-clock seconds.
    fn predict(&mut self, t: usize) -> Result<f64> {
        let predict_phase = Instant::now();
        let active: Vec<usize> = (0..self.candidates.len())
            .filter(|&i| self.statuses[i].is_active() && !self.evaluated_flag[i])
            .collect();
        let boxes = self
            .surrogate
            .boxes(&self.candidates, &active, self.observer)?;
        for (&i, (lo, hi)) in active.iter().zip(&boxes) {
            self.regions[i].intersect(lo, hi);
        }

        // Adaptive refinement: split the cells whose representative's
        // region stayed wide relative to the cell itself, then box the new
        // representatives immediately so this iteration's classification
        // and selection see them.
        if let Some(pool) = self.pool.as_mut() {
            let before = self.candidates.len();
            let outcome = pool.refine(
                &mut self.candidates,
                &self.regions,
                &self.statuses,
                self.config.pool_refine_scale,
                self.config.pool_refine_ceiling,
                self.config.pool_max_refines,
                self.config.pool_max_size,
            );
            if outcome.splits > 0 {
                for _ in before..self.candidates.len() {
                    self.regions.push(UncertaintyRegion::unbounded(self.n_obj));
                    self.statuses.push(Status::Undecided);
                    self.evaluated_flag.push(false);
                }
                let fresh: Vec<usize> = (before..self.candidates.len()).collect();
                let boxes = self
                    .surrogate
                    .boxes(&self.candidates, &fresh, self.observer)?;
                for (&i, (lo, hi)) in fresh.iter().zip(&boxes) {
                    self.regions[i].intersect(lo, hi);
                }
            }
            if self.tracing() {
                self.observer.emit(&Event::PoolRefine {
                    iteration: t,
                    splits: outcome.splits,
                    leaves: outcome.leaves,
                    pool_size: self.candidates.len(),
                    effective_pool: outcome.effective_pool,
                });
            }
        }
        Ok(predict_phase.elapsed().as_secs_f64())
    }

    /// Decision-making (Algorithm 1, lines 7–9; Eqs. 11–12). Returns
    /// whether no candidate is left undecided.
    fn classify(&mut self, t: usize, iter_span: &OpenSpan) -> bool {
        let span = self.tracer.open("classify", Some(iter_span));
        classify(&self.regions, &mut self.statuses, &self.delta);
        let (undecided, pareto, dropped, _) = status_counts(&self.statuses);
        if self.tracing() {
            self.observer.emit(&span.start_event());
            self.observer.emit(&Event::Classify {
                iteration: t,
                pareto,
                dropped,
                undecided,
                delta: self.delta.clone(),
            });
            self.observer.emit(&Event::RegionSnapshot {
                iteration: t,
                statuses: self.statuses.iter().map(status_char).collect(),
                diameters: self
                    .regions
                    .iter()
                    .map(UncertaintyRegion::diameter)
                    .collect(),
            });
            self.observer.emit(&self.tracer.end_event(&span));
        }
        undecided == 0
    }

    /// Selection (Algorithm 1, lines 10–11): a diverse batch of the
    /// longest-diameter active candidates (`select_batch`; at batch size 1
    /// exactly Eq. 13's argmax), evaluated as one wave. When a selected
    /// candidate exhausts its failure budget it is quarantined and the
    /// iteration re-selects from the remaining eligible candidates (each
    /// fallback wave gets its own selection event), so injected faults
    /// cost retries, not iterations. Returns whether anything was
    /// selected.
    fn select_and_evaluate(
        &mut self,
        driver: &mut Driver<'a, '_>,
        t: usize,
        iter_span: &OpenSpan,
    ) -> Result<bool> {
        let mut want = self.config.batch_size;
        let mut selected_any = false;
        while want > 0 {
            // Allocated before the emptiness check so replayed and live
            // executions of the same wave agree on span IDs; an empty
            // wave's span is simply never emitted.
            let select_span = self.tracer.open("select", Some(iter_span));
            let picks = select_batch(
                &self.candidates,
                &self.regions,
                &self.statuses,
                &self.evaluated_flag,
                want,
                BATCH_DIVERSITY,
                DIVERSITY_RADIUS,
            );
            if picks.is_empty() {
                break;
            }
            selected_any = true;
            let members: Vec<usize> = picks.iter().map(|p| p.index).collect();
            if self.tracing() {
                self.observer.emit(&select_span.start_event());
                self.observer.emit(&Event::BatchSelect {
                    iteration: t,
                    q: want,
                    chosen: members.clone(),
                    diameters: picks.iter().map(|p| p.diameter).collect(),
                    scores: picks.iter().map(|p| p.score).collect(),
                });
                self.observer.emit(&self.tracer.end_event(&select_span));
            }
            let accepted = self.wave(driver, &members, t, iter_span)?;
            for (&i, qor) in members.iter().zip(accepted) {
                if let Some(y) = qor {
                    self.regions[i].collapse_to(&y);
                    self.evaluated_flag[i] = true;
                    self.obs_span.absorb(&y);
                    self.evaluated.push((i, y));
                    want -= 1;
                }
            }
        }
        Ok(selected_any)
    }

    /// Evaluates one wave of distinct candidates — an initialization
    /// chunk, a selection batch or a verification chunk — and returns
    /// each member's accepted QoR in batch order (`None` once a member's
    /// failure budget ran out). The only place that counts retries and
    /// failures and quarantines a candidate.
    ///
    /// The driver runs every member's retry sequence against frozen
    /// sanitization inputs ([`WaveCtx`]), live or read back from a
    /// checkpoint log, and the outcomes are merged in batch order
    /// ([`RunState::merge_member`]), so events, span IDs and the log do not
    /// depend on the oracle kind or thread timing. At `batch_size > 1` a
    /// `batch_eval` span (child of `parent`) wraps the members'
    /// `eval_attempt` spans; at 1 they hang directly under `parent`.
    fn wave(
        &mut self,
        driver: &mut Driver<'a, '_>,
        members: &[usize],
        iteration: usize,
        parent: &OpenSpan,
    ) -> Result<Vec<Option<Vec<f64>>>> {
        let batch_span =
            (self.config.batch_size > 1).then(|| self.tracer.open("batch_eval", Some(parent)));
        let tracing = self.tracing();
        if let Some(span) = batch_span.as_ref().filter(|_| tracing) {
            self.emit(span.start_event());
        }
        let ctx = WaveCtx {
            candidates: &self.candidates,
            n_obj: (self.n_obj > 0).then_some(self.n_obj),
            gate: (!self.regions.is_empty()).then_some((&self.regions[..], &self.obs_span)),
            max_attempts: self.config.max_eval_attempts,
        };
        let outcomes = driver.attempts(members, &ctx, iteration)?;
        let attempt_parent = batch_span.as_ref().unwrap_or(parent);
        let mut accepted = Vec::with_capacity(members.len());
        for (&candidate, member) in members.iter().zip(outcomes) {
            accepted.push(self.merge_member(member, candidate, iteration, attempt_parent));
        }
        if let Some(span) = batch_span.as_ref().filter(|_| tracing) {
            let end = self.tracer.end_event(span);
            self.emit(end);
        }
        for (&candidate, qor) in members.iter().zip(&accepted) {
            if qor.is_none() {
                self.statuses[candidate] = Status::Quarantined;
                self.quarantined.push(candidate);
                if tracing {
                    self.emit(Event::CandidateQuarantined {
                        iteration,
                        candidate,
                        attempts: self.config.max_eval_attempts,
                    });
                }
            }
        }
        Ok(accepted)
    }

    /// Merges one member's attempts into the run, in batch order: allocates
    /// the per-attempt `eval_attempt` span IDs (late, at merge time — so
    /// IDs are worker-count independent and replay re-derives them),
    /// emits the attempt events, counts retries and failures,
    /// and appends every attempt to the log. Returns the accepted QoR.
    fn merge_member(
        &mut self,
        member: MemberOutcome,
        candidate: usize,
        iteration: usize,
        parent: &OpenSpan,
    ) -> Option<Vec<f64>> {
        let tracing = self.tracing();
        for (k, (outcome, duration_s)) in member.into_iter().enumerate() {
            let attempt = k + 1;
            if attempt > 1 {
                self.eval_retries += 1;
                if tracing {
                    self.emit(Event::EvalRetry {
                        iteration,
                        candidate,
                        attempt,
                    });
                }
            }
            let span = self.tracer.open("eval_attempt", Some(parent));
            if tracing {
                self.emit(span.start_event());
            }
            self.log.push(EvalRecord {
                candidate,
                outcome: match &outcome {
                    Ok(qor) => EvalOutcome::Accepted { qor: qor.clone() },
                    Err(error) => EvalOutcome::Failed {
                        error: error.clone(),
                    },
                },
            });
            let error = match outcome {
                Ok(qor) => {
                    if tracing {
                        self.emit(Event::ToolEval {
                            iteration,
                            candidate,
                            qor: qor.clone(),
                            duration_s,
                        });
                        let end = self.tracer.end_event(&span);
                        self.emit(end);
                    }
                    return Some(qor);
                }
                Err(e) => e,
            };
            self.eval_failures += 1;
            if tracing {
                // A watchdog-produced timeout (the dedicated stage marker,
                // not a flow-stage name) is announced right before the
                // `EvalFailed` it explains; `deadline_s` is the configured
                // deadline, not wall-clock.
                if let EvalError::Timeout { stage, elapsed_s } = &error {
                    if stage == WATCHDOG_STAGE {
                        self.emit(Event::WatchdogFired {
                            iteration,
                            candidate,
                            attempt,
                            deadline_s: *elapsed_s,
                        });
                    }
                }
                self.emit(Event::EvalFailed {
                    iteration,
                    candidate,
                    attempt,
                    kind: error.kind().to_string(),
                    detail: error.to_string(),
                });
                let end = self.tracer.end_event(&span);
                self.emit(end);
            }
        }
        None
    }

    /// Closes iteration `t`'s bookkeeping: the `ResourceSample`, the
    /// history row, and `IterationEnd` with the incremental hypervolume of
    /// the evaluated set, after `runs` tool runs.
    fn record(
        &mut self,
        t: usize,
        iter_start: Instant,
        iter_resources: &GpCounters,
        gp_fit_s: f64,
        predict_s: f64,
        runs: usize,
    ) {
        let tracing = self.tracing();
        if tracing {
            let d = GpCounters::snapshot().since(iter_resources);
            self.observer.emit(&Event::ResourceSample {
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
        let (undecided, pareto, dropped, quarantined) = status_counts(&self.statuses);
        let row = IterationRecord {
            iteration: t,
            undecided,
            pareto,
            dropped,
            quarantined,
            runs,
            duration_s: iter_start.elapsed().as_secs_f64(),
            gp_fit_s,
            predict_s,
        };
        if tracing {
            let pts: Vec<Vec<f64>> = self.evaluated.iter().map(|(_, y)| y.clone()).collect();
            let hypervolume =
                pareto::hypervolume::hypervolume(&pts, &self.hv_reference).unwrap_or(0.0);
            self.observer.emit(&Event::IterationEnd {
                iteration: t,
                runs: row.runs,
                pareto,
                dropped,
                undecided,
                hypervolume,
                duration_s: row.duration_s,
                gp_fit_s,
                predict_s,
            });
        }
        self.history.push(row);
    }

    /// Closing step of the paper's flow: the predicted Pareto set — the
    /// classified Pareto members, the surrogate's predicted front when the
    /// loop stopped early, and the measured front — is fed through the PD
    /// tool, and the final answer is its non-dominated subset on golden
    /// values.
    fn verify_front(mut self, driver: &mut Driver<'a, '_>) -> Result<TuneResult> {
        // Final classification pass so late evaluations settle the sets.
        classify(&self.regions, &mut self.statuses, &self.delta);
        let search_runs = driver.runs();
        let final_candidates = self.final_candidates()?;
        // Unmeasured members are evaluated in batch-sized waves (same
        // fan-out as the loop); `truth_vals` keeps `final_candidates`
        // order regardless of the chunking.
        let mut truth_vals: Vec<Option<Vec<f64>>> = Vec::with_capacity(final_candidates.len());
        let mut to_verify: Vec<(usize, usize)> = Vec::new();
        for (slot, &i) in final_candidates.iter().enumerate() {
            match self.evaluated.iter().find(|(j, _)| *j == i) {
                Some((_, y)) => truth_vals.push(Some(y.clone())),
                None => {
                    truth_vals.push(None);
                    to_verify.push((slot, i));
                }
            }
        }
        let run_span = self.run_span.clone();
        for chunk in to_verify.chunks(self.config.batch_size) {
            let members: Vec<usize> = chunk.iter().map(|&(_, i)| i).collect();
            // A member that could not be verified is quarantined by the
            // wave and left out of the reported set rather than vouched
            // for unmeasured.
            let accepted = self.wave(driver, &members, self.iterations, &run_span)?;
            for (&(slot, _), qor) in chunk.iter().zip(accepted) {
                truth_vals[slot] = qor;
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

        let verification_runs = driver.runs() - search_runs;
        let result = TuneResult {
            pareto_indices,
            runs: search_runs,
            verification_runs,
            iterations: self.iterations,
            history: self.history,
            delta: self.delta,
            evaluated: self.evaluated,
            quarantined: self.quarantined,
            eval_failures: self.eval_failures,
            eval_retries: self.eval_retries,
            degraded_fits: self.surrogate.degraded_fits(),
        };
        if self.observer.enabled() {
            self.observer.emit(&Event::RunEnd {
                iterations: result.iterations,
                runs: result.runs,
                verification_runs: result.verification_runs,
                pareto: result.pareto_indices.len(),
                duration_s: self.run_start.elapsed().as_secs_f64(),
            });
            self.observer.emit(&self.tracer.end_event(&self.run_span));
        }
        self.observer.flush();
        Ok(result)
    }

    /// The verification set: the classified Pareto members, then (when
    /// the loop stopped before full classification and
    /// `include_predicted_front` is set) the surrogate's predicted front
    /// over the still-undecided candidates, then the measured front.
    fn final_candidates(&mut self) -> Result<Vec<usize>> {
        let mut out: Vec<usize> = (0..self.candidates.len())
            .filter(|&i| self.statuses[i] == Status::Pareto)
            .collect();
        if self.config.include_predicted_front {
            let undecided: Vec<usize> = (0..self.candidates.len())
                .filter(|&i| self.statuses[i] == Status::Undecided && !self.evaluated_flag[i])
                .collect();
            let mus = self.surrogate.means(&self.candidates, &undecided)?;
            for j in pareto::front::pareto_front(&mus) {
                if !out.contains(&undecided[j]) {
                    out.push(undecided[j]);
                }
            }
        }
        let pts: Vec<Vec<f64>> = self.evaluated.iter().map(|(_, y)| y.clone()).collect();
        for j in pareto::front::pareto_front(&pts) {
            let idx = self.evaluated[j].0;
            if !out.contains(&idx) {
                out.push(idx);
            }
        }
        Ok(out)
    }
}

/// Greedy maximin selection of `count` initial candidates, seeded by a
/// random pick.
fn maximin_design(candidates: &[Vec<f64>], count: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = candidates.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut picked = Vec::with_capacity(count);
    let mut is_picked = vec![false; n];
    picked.push(order[0]);
    is_picked[order[0]] = true;
    let mut dist = vec![f64::INFINITY; n];
    while picked.len() < count {
        let last = *picked.last().expect("non-empty");
        for (i, d) in dist.iter_mut().enumerate() {
            let dd = gp::vecops::sq_dist(&candidates[i], &candidates[last]);
            if dd < *d {
                *d = dd;
            }
        }
        let next = (0..n)
            .filter(|&i| !is_picked[i])
            .max_by(|&a, &b| {
                dist[a]
                    .partial_cmp(&dist[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("candidates remain");
        picked.push(next);
        is_picked[next] = true;
    }
    picked
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

/// Inputs of one evaluation wave's retry loops, frozen at wave start.
///
/// Workers must not observe state that other members of the same wave
/// mutate (the merge updates regions and the observed span only after
/// the whole wave returns), so a member's outlier gate is identical no
/// matter which worker runs it or in what order — the root of
/// worker-count invariance.
struct WaveCtx<'a> {
    /// The full (possibly pool-grown) candidate list, so workers can hand
    /// each member's coordinates to [`QorOracle::evaluate_at`](crate::QorOracle::evaluate_at).
    candidates: &'a [Vec<f64>],
    /// Established objective count (`None` only for the first
    /// initialization wave, before any QoR has been accepted).
    n_obj: Option<usize>,
    /// Outlier-gate inputs (`None` during initialization): all regions
    /// and the observed span.
    gate: Option<(&'a [UncertaintyRegion], &'a ObservedSpan)>,
    /// Attempts per member before it counts as failed.
    max_attempts: usize,
}

/// One attempt's outcome: the accepted QoR, or why there is none.
type Attempt = std::result::Result<Vec<f64>, EvalError>;

/// One wave member's attempts in attempt order, live or read back from a
/// checkpoint log, each with its wall-clock seconds: what
/// [`RunState::merge_member`] turns into span IDs, events and log records.
/// Ends early on the first acceptance.
type MemberOutcome = Vec<(Attempt, f64)>;

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
/// objective by `OUTLIER_GATE × max(region width, observed span,
/// tiny·magnitude)`
/// — generous enough that genuine observations never trip it (the span of
/// everything seen so far dwarfs any honest prediction error), while
/// unit-mixed-up or corrupted values land orders of magnitude outside.
fn sanitize_qor(
    y: &[f64],
    n_obj: Option<usize>,
    gate: Option<(&UncertaintyRegion, &ObservedSpan)>,
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
    if let Some((region, span)) = gate {
        let lo = region.optimistic();
        let hi = region.pessimistic();
        for (k, &v) in y.iter().enumerate() {
            if !(lo[k].is_finite() && hi[k].is_finite()) {
                continue; // still unbounded: no basis for an outlier call
            }
            let scale = (hi[k] - lo[k])
                .max(span.span(k))
                .max(1e-9 * span.magnitude(k));
            let allow = OUTLIER_GATE * scale;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Checkpoint, CHECKPOINT_VERSION};
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
    use crate::oracle::FallibleOracle;
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
        let mut oracle = FallibleOracle::new(move |i: usize| {
            if i % 2 == 1 {
                Ok(vec![f64::NAN, f64::INFINITY])
            } else {
                Ok(bad_truth[i].clone())
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
                degraded_fit_budget: 0,
                ..quick_config()
            }),
            TunerError::InvalidConfig {
                name: "degraded_fit_budget",
                ..
            }
        ));
    }

    /// The outlier gate's boundary: `[lo − allow, hi + allow]` with
    /// `allow = OUTLIER_GATE × max(width, observed span, 1e-9·magnitude)`
    /// is accepted, the next representable value past either end is not.
    #[test]
    fn sanitize_qor_gate_is_inclusive_at_its_bounds() {
        let region = |lo: f64, hi: f64| {
            let mut r = UncertaintyRegion::unbounded(1);
            r.intersect(&[lo], &[hi]);
            r
        };
        let span_of = |values: &[f64]| {
            let mut span = ObservedSpan::new(1);
            for &v in values {
                span.absorb(&[v]);
            }
            span
        };
        let check = |r: &UncertaintyRegion, span: &ObservedSpan, scale: f64| {
            let (lo, hi) = (r.optimistic()[0], r.pessimistic()[0]);
            let allow = OUTLIER_GATE * scale;
            let gate = Some((r, span));
            for edge in [hi + allow, lo - allow] {
                assert!(sanitize_qor(&[edge], Some(1), gate).is_ok(), "{edge}");
            }
            for past in [(hi + allow).next_up(), (lo - allow).next_down()] {
                let e = sanitize_qor(&[past], Some(1), gate).unwrap_err();
                assert!(e.contains("gross outlier"), "{e}");
            }
        };

        // The region is wider than the observed span: it sets the scale.
        let r = region(1.0, 1.75);
        check(&r, &span_of(&[1.25, 1.5]), 0.75);
        // The observed span is wider than the region: it sets the scale.
        check(&r, &span_of(&[-2.0, 3.0]), 5.0);
        // A point region with zero span: the magnitude floor sets it.
        check(
            &UncertaintyRegion::point(&[300.0]),
            &span_of(&[300.0]),
            1e-9 * 300.0,
        );

        // An objective whose region is still unbounded is never gated.
        let mut half = UncertaintyRegion::unbounded(2);
        half.intersect(&[f64::NEG_INFINITY, 0.0], &[f64::INFINITY, 1.0]);
        let span = ObservedSpan::new(2);
        assert!(sanitize_qor(&[1e300, 0.5], Some(2), Some((&half, &span))).is_ok());
        assert!(sanitize_qor(&[0.5, 1e300], Some(2), Some((&half, &span))).is_err());
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

    /// The final predicted front reads the loop's predict caches: on the
    /// exact arm every undecided candidate is a warm hit (no cache grows),
    /// on the subset arm a miss. Either way it must name the same
    /// candidates as an uncached recomputation, the same read with every
    /// cache dropped first.
    #[test]
    fn final_front_matches_an_uncached_recomputation() {
        let (candidates, truth) = toy(60);
        let source = shifted_source(&candidates, &truth);
        for (arm, sod_threshold) in [("exact", usize::MAX), ("subset", 10)] {
            let config = PpaTunerConfig {
                max_iterations: 3,
                include_predicted_front: true,
                sod_threshold,
                sod_subset: 48,
                ..slow_config()
            };
            let mut oracle = VecOracle::new(truth.clone());
            let sink = obs::RecordingSink::new();
            let mut driver = Driver::new(OracleRef::from(&mut oracle), None, &candidates, &source);
            let mut state = RunState::new(&config, &source, &candidates, &sink).unwrap();
            state.initialize(&mut driver).unwrap();
            state.run_loop(&mut driver).unwrap();
            assert_eq!(state.iterations, config.max_iterations, "{arm}");
            classify(&state.regions, &mut state.statuses, &state.delta);
            assert!(
                state.statuses.contains(&Status::Undecided),
                "{arm}: the loop must stop with candidates undecided"
            );
            let truncated = sink.events().iter().rev().find_map(|e| match e {
                Event::PredictMode {
                    train_size,
                    subset_size,
                    ..
                } => Some(subset_size < train_size),
                _ => None,
            });
            assert_eq!(truncated, (arm == "subset").then_some(true), "{arm}");
            let before = state.surrogate.cache_lens();

            let final_set = state.final_candidates().unwrap();
            if arm == "exact" {
                assert!(before.iter().all(|&n| n > 0), "{arm}: {before:?}");
                let after = state.surrogate.cache_lens();
                assert_eq!(after, before, "{arm}: a final-front query missed");
            }
            state.surrogate.drop_caches();
            let uncached = state.final_candidates().unwrap();
            assert_eq!(final_set, uncached, "{arm}");
            assert!(
                final_set.len()
                    > state
                        .statuses
                        .iter()
                        .filter(|s| **s == Status::Pareto)
                        .count(),
                "{arm}: the predicted front must contribute"
            );
        }
    }

    /// A trace as behaviour: every event but `PredictMode` and the
    /// `ResourceSample` (its counters are process-global, so concurrent
    /// tests pollute them), with wall-clock fields zeroed.
    fn behaviour_jsonl(events: &[Event]) -> String {
        fn zero_clocks(v: &mut serde_json::Value) {
            match v {
                serde_json::Value::Object(fields) => {
                    for (key, val) in fields {
                        if ["duration_s", "gp_fit_s", "predict_s"].contains(&key.as_str()) {
                            *val = serde_json::Value::F64(0.0);
                        } else {
                            zero_clocks(val);
                        }
                    }
                }
                serde_json::Value::Array(items) => items.iter_mut().for_each(zero_clocks),
                _ => {}
            }
        }
        let mut out = String::new();
        for e in events {
            if matches!(e, Event::PredictMode { .. } | Event::ResourceSample { .. }) {
                continue;
            }
            let mut value = serde_json::to_value(e);
            zero_clocks(&mut value);
            out.push_str(&serde_json::to_string(&value).unwrap());
            out.push('\n');
        }
        out
    }

    /// A subset of at least the training set's size keeps every point,
    /// so the subset-of-data regime serves it from the exact arm and its
    /// caches: the run is the SoD-off run in everything but its
    /// `PredictMode` events, which still name the regime.
    #[test]
    fn a_subset_that_drops_no_point_takes_the_cached_exact_arm() {
        let (candidates, truth) = toy(60);
        let source = shifted_source(&candidates, &truth);
        let sod_subset = 1000;
        let run = |sod_threshold| {
            let config = PpaTunerConfig {
                max_iterations: 6,
                include_predicted_front: true,
                sod_threshold,
                sod_subset,
                ..slow_config()
            };
            let mut oracle = VecOracle::new(truth.clone());
            let sink = obs::RecordingSink::new();
            let mut driver = Driver::new(OracleRef::from(&mut oracle), None, &candidates, &source);
            let mut state = RunState::new(&config, &source, &candidates, &sink).unwrap();
            state.initialize(&mut driver).unwrap();
            state.run_loop(&mut driver).unwrap();
            let cache_lens = state.surrogate.cache_lens();
            let result = state.verify_front(&mut driver).unwrap();
            (result, sink.events(), cache_lens)
        };
        let (routed, routed_events, cache_lens) = run(10);
        let (exact, exact_events, _) = run(usize::MAX);

        assert!(
            !cache_lens.is_empty() && cache_lens.iter().all(|&n| n > 0),
            "the routed run must fill its predict caches: {cache_lens:?}"
        );
        let modes: Vec<(usize, usize, &str)> = routed_events
            .iter()
            .filter_map(|e| match e {
                Event::PredictMode {
                    train_size,
                    subset_size,
                    mode,
                    ..
                } => Some((*train_size, *subset_size, mode.as_str())),
                _ => None,
            })
            .collect();
        assert_eq!(modes.len(), routed.iterations);
        for &(train_size, subset_size, mode) in &modes {
            assert!(train_size > 10 && train_size <= sod_subset, "{train_size}");
            assert_eq!((subset_size, mode), (train_size, "subset"));
        }
        assert!(!exact_events
            .iter()
            .any(|e| matches!(e, Event::PredictMode { .. })));
        assert_same_outcome(&routed, &exact);
        assert_eq!(
            behaviour_jsonl(&routed_events),
            behaviour_jsonl(&exact_events)
        );
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
