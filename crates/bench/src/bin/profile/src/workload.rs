//! The four workloads and every call into the tuner.
//!
//! Budgets, configurations, the fault plan (`fault_plan.json` beside the
//! sources) and the scoring are constants of the benchmark, so edits
//! elsewhere in the repository cannot silently change what a workload
//! measures. Thread knobs stay at the tuner's defaults.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use benchgen::{Benchmark, BenchmarkId, Scenario};
use doe::ParamSpace;
use gp::optimize::FitBudget;
use obs::Observer;
use pareto::hypervolume::{hypervolume_error, reference_point};
use pareto::metrics::adrs;
use pdsim::{FaultDecision, FaultPlan, ObjectiveSpace, PdFlow, ToolParams};
use ppatuner::{
    ChainCheckpointStore, Checkpoint, CheckpointError, CheckpointStore, EvalError, PpaTuner,
    PpaTunerConfig, QorOracle, Recovery, SourceData, TuneResult,
};

use crate::analysis::{idle_gaps, Call, Gaps};

/// Wall-clock budget reported by injected timeouts (fixed, so repeated
/// runs stay identical).
const INJECTED_TIMEOUT_S: f64 = 3600.0;

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 3 protocol: small pool, hyper-parameter refits dominate.
    T3Paper,
    /// Table 2 configuration: 5000-candidate pool, GP n ≈ 460, cached
    /// predict sweeps between refits.
    T2Paper,
    /// Table 2 pool evaluated in waves of 4 through a faulty tool, with a
    /// durable checkpoint chain.
    T2DurableQ4,
    /// Adaptive pool with subset-of-data prediction on a coordinate-driven
    /// flow oracle: the decision layer dominates.
    PoolSod,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::T3Paper,
        Workload::T2Paper,
        Workload::T2DurableQ4,
        Workload::PoolSod,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::T3Paper => "t3_paper",
            Workload::T2Paper => "t2_paper",
            Workload::T2DurableQ4 => "t2_durable_q4",
            Workload::PoolSod => "pool_sod",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fewest timed passes of a run. The workloads whose cost hardly
    /// depends on the seed need few; `pool_sod`, whose decision-layer
    /// cost varies about twofold between seeds, needs many seeds per run.
    pub fn min_passes(self, smoke: bool) -> usize {
        match (self, smoke) {
            (_, true) => 3,
            (Workload::T3Paper, false) => 5,
            (Workload::T2Paper | Workload::T2DurableQ4, false) => 3,
            (Workload::PoolSod, false) => 4,
        }
    }

    fn sizes(self, smoke: bool) -> Sizes {
        let (source, target, source_budget, initial, iterations, dense, seeds) = match (self, smoke)
        {
            (Workload::T3Paper, false) => (1440, 727, 200, 36, 26, 0, 1),
            (Workload::T2Paper, false) => (5000, 5000, 200, 200, 60, 0, 1),
            (Workload::T2DurableQ4, false) => (5000, 5000, 200, 200, 15, 0, 1),
            (Workload::PoolSod, false) => (120, 2500, 60, 12, 20, 20_000, 5),
            (Workload::T3Paper, true) => (300, 150, 60, 10, 8, 0, 1),
            (Workload::T2Paper, true) => (600, 600, 60, 24, 10, 0, 1),
            (Workload::T2DurableQ4, true) => (600, 600, 60, 24, 5, 0, 1),
            (Workload::PoolSod, true) => (120, 300, 60, 12, 12, 5_000, 2),
        };
        Sizes {
            source,
            target,
            source_budget,
            initial,
            iterations,
            dense,
            seeds,
        }
    }
}

/// Scenario and loop sizes of one workload.
struct Sizes {
    source: usize,
    target: usize,
    /// Source observations the tuner may use.
    source_budget: usize,
    initial: usize,
    iterations: usize,
    /// Points of the dense truth grid `pool_sod` is scored against.
    dense: usize,
    /// Tuner seeds per pass.
    seeds: usize,
}

/// The `k`-th tuner seed of a benchmark run seeded with `seed`. Seed 0 is
/// `seed` itself; later ones are independent (a splitmix64 finalizer over
/// distinct inputs), so one run averages over many problem instances and
/// runs with nearby seeds share none.
pub fn tuner_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where QoR values come from.
enum Truth {
    /// A precomputed golden table, keyed by candidate index.
    Table(Vec<Vec<f64>>),
    /// The simulated flow, driven by the candidate's coordinates (grown
    /// adaptive-pool candidates have no table row).
    Flow {
        joint: ParamSpace,
        flow: Box<PdFlow>,
        space: ObjectiveSpace,
    },
}

/// Everything one tuner run needs, built by [`setup`].
pub struct RunInput {
    label: String,
    config: PpaTunerConfig,
    source: SourceData,
    candidates: Vec<Vec<f64>>,
    truth: Truth,
    faults: Option<FaultPlan>,
    durable: bool,
    golden: Vec<Vec<f64>>,
    reference: Vec<f64>,
}

/// Builds the inputs of pass `pass` of a run seeded with `seed`: scenario
/// generation, encoding, QoR tables, source subsample and golden fronts
/// for each of the pass's tuner seeds. This is what `setup_s` times.
pub fn setup(workload: Workload, seed: u64, pass: usize, smoke: bool) -> Vec<RunInput> {
    let s = workload.sizes(smoke);
    let seeds = (0..s.seeds).map(|j| tuner_seed(seed, pass * s.seeds + j));
    let config = |seed| PpaTunerConfig {
        initial_samples: s.initial,
        max_iterations: s.iterations,
        refit_every: 25,
        fit_budget: FitBudget {
            restarts: 2,
            evals_per_restart: 80,
        },
        seed,
        ..PpaTunerConfig::default()
    };
    match workload {
        Workload::T3Paper => seeds
            .flat_map(|seed| {
                let scenario = Scenario::two_with_counts(seed, s.source, s.target)
                    .with_source_budget(s.source_budget);
                ObjectiveSpace::ALL
                    .map(|space| table_input(&scenario, space, config(seed), None, false))
            })
            .collect(),
        Workload::T2Paper => seeds
            .map(|seed| {
                let scenario = Scenario::one_with_counts(seed, s.source, s.target)
                    .with_source_budget(s.source_budget);
                table_input(
                    &scenario,
                    ObjectiveSpace::AreaPowerDelay,
                    config(seed),
                    None,
                    false,
                )
            })
            .collect(),
        Workload::T2DurableQ4 => seeds
            .map(|seed| {
                let scenario = Scenario::one_with_counts(seed, s.source, s.target)
                    .with_source_budget(s.source_budget);
                let config = PpaTunerConfig {
                    batch_size: 4,
                    ..config(seed)
                };
                table_input(
                    &scenario,
                    ObjectiveSpace::AreaPowerDelay,
                    config,
                    Some(fault_plan()),
                    true,
                )
            })
            .collect(),
        Workload::PoolSod => {
            let space = ObjectiveSpace::PowerDelay;
            // The dense grid is independent of (and much finer than) the
            // tuner's pool, so no run can reach its front by construction.
            let dense = Benchmark::generate_with_count(BenchmarkId::Target2, s.dense);
            let dense_table = dense.qor_table(space);
            let golden = front_2d(&dense_table);
            let reference = reference_point(&dense_table, 1.1).expect("non-empty dense table");
            seeds
                .map(|seed| {
                    let scenario = Scenario::two_with_counts(seed, s.source, s.target)
                        .with_source_budget(s.source_budget);
                    let candidates = scenario.target_candidates();
                    let (sx, sy) = scenario.source_xy(space);
                    let config = PpaTunerConfig {
                        tau: 9.0,
                        adaptive_pool: true,
                        pool_refine_scale: 0.5,
                        pool_refine_ceiling: 4.0,
                        pool_max_refines: 64,
                        pool_max_size: candidates.len() + s.iterations * 64,
                        sod_threshold: 48,
                        sod_subset: 112,
                        fit_budget: FitBudget::default(),
                        ..config(seed)
                    };
                    RunInput {
                        label: format!("{} s{seed}", space.label()),
                        config,
                        source: SourceData::new(sx, sy)
                            .expect("scenario source data is consistent"),
                        candidates,
                        truth: Truth::Flow {
                            joint: scenario.joint().clone(),
                            flow: Box::new(PdFlow::new(scenario.target().id().design())),
                            space,
                        },
                        faults: None,
                        durable: false,
                        golden: golden.clone(),
                        reference: reference.clone(),
                    }
                })
                .collect()
        }
    }
}

fn table_input(
    scenario: &Scenario,
    space: ObjectiveSpace,
    config: PpaTunerConfig,
    faults: Option<FaultPlan>,
    durable: bool,
) -> RunInput {
    let table = scenario.target_table(space);
    let (sx, sy) = scenario.source_xy(space);
    RunInput {
        label: format!("{} s{}", space.label(), config.seed),
        config,
        source: SourceData::new(sx, sy).expect("scenario source data is consistent"),
        candidates: scenario.target_candidates(),
        golden: scenario.target().golden_front(space),
        reference: reference_point(&table, 1.1).expect("non-empty target table"),
        truth: Truth::Table(table),
        faults,
        durable,
    }
}

/// The committed fault plan of `t2_durable_q4` (≈21 % of attempts fail).
fn fault_plan() -> FaultPlan {
    let plan: FaultPlan = serde_json::from_str(include_str!("../fault_plan.json"))
        .expect("committed fault plan parses");
    plan.validate().expect("committed fault plan is valid");
    plan
}

/// Non-dominated points of a two-objective minimization table by sort
/// and sweep; the dense truth grid is too large for the quadratic
/// general-purpose front.
fn front_2d(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut sorted: Vec<&Vec<f64>> = points.iter().collect();
    sorted.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
    let mut front: Vec<Vec<f64>> = Vec::new();
    for p in sorted {
        if front.last().is_none_or(|last| p[1] < last[1]) {
            front.push(p.clone());
        }
    }
    front
}

/// The tool as the tuner sees it, timing every call.
struct TimedOracle<'a> {
    truth: &'a Truth,
    faults: Option<&'a FaultPlan>,
    attempts: HashMap<usize, usize>,
    origin: Instant,
    calls: Vec<Call>,
    /// Last QoR returned per candidate (what the tool reported, faults
    /// included).
    returned: HashMap<usize, Vec<f64>>,
}

impl TimedOracle<'_> {
    fn answer(&mut self, index: usize, x: &[f64]) -> Result<Vec<f64>, EvalError> {
        let y = match self.truth {
            Truth::Table(table) => table.get(index).cloned().ok_or(EvalError::OutOfRange {
                index,
                len: table.len(),
            })?,
            Truth::Flow { joint, flow, space } => {
                let config = joint
                    .decode(x)
                    .expect("candidates decode in the joint space");
                let params = ToolParams::from_config(joint, &config)
                    .expect("decoded configs belong to their space");
                flow.run(&params).project(*space)
            }
        };
        let Some(plan) = self.faults else {
            return Ok(y);
        };
        let attempt = self.attempts.entry(index).or_insert(0);
        *attempt += 1;
        match plan.decide(index, *attempt) {
            FaultDecision::None => Ok(y),
            FaultDecision::Crash => Err(EvalError::Crash {
                detail: format!("injected crash (candidate {index}, attempt {attempt})"),
            }),
            FaultDecision::Timeout(stage) => Err(EvalError::Timeout {
                stage: pdsim::faults::STAGE_NAMES[stage].to_string(),
                elapsed_s: INJECTED_TIMEOUT_S,
            }),
            FaultDecision::CorruptNan => Ok(vec![f64::NAN; y.len()]),
            FaultDecision::CorruptOutlier => {
                Ok(y.iter().map(|v| v * plan.outlier_factor).collect())
            }
        }
    }
}

impl QorOracle for TimedOracle<'_> {
    fn evaluate(&mut self, index: usize) -> Result<Vec<f64>, EvalError> {
        self.evaluate_at(index, &[])
    }

    fn evaluate_at(&mut self, index: usize, x: &[f64]) -> Result<Vec<f64>, EvalError> {
        let start = self.origin.elapsed().as_secs_f64();
        let out = self.answer(index, x);
        let end = self.origin.elapsed().as_secs_f64();
        self.calls.push(Call { start, end, index });
        if let Ok(y) = &out {
            self.returned.insert(index, y.clone());
        }
        out
    }

    fn runs(&self) -> usize {
        self.calls.len()
    }
}

/// A checkpoint chain that times every save and sizes what it wrote.
struct TimedStore {
    inner: ChainCheckpointStore,
    save_s: RefCell<Vec<f64>>,
    bytes: Cell<u64>,
}

impl CheckpointStore for TimedStore {
    fn save(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        let start = Instant::now();
        let out = self.inner.save(checkpoint);
        self.save_s.borrow_mut().push(start.elapsed().as_secs_f64());
        self.bytes
            .set(self.bytes.get() + newest_entry_len(self.inner.dir()));
        out
    }

    fn load(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        self.inner.load()
    }

    fn recover(&self) -> Result<Recovery, CheckpointError> {
        self.inner.recover()
    }
}

/// Size of the newest `ckpt-*.json` entry of a chain directory (entry
/// names are zero-padded sequence numbers, so the newest sorts last).
fn newest_entry_len(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
        .max_by_key(|e| e.file_name())
        .and_then(|e| e.metadata().ok())
        .map_or(0, |m| m.len())
}

/// Quality of one final front against the golden front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Hypervolume error (Eq. 2).
    pub hv_error: f64,
    /// ADRS (Eq. 3).
    pub adrs: f64,
}

/// What one tuner run produced, as measured from outside.
pub struct RunOutcome {
    /// Objective space and seed, for messages.
    pub label: String,
    /// The tuner's answer, or its error message.
    pub result: Result<TuneResult, String>,
    /// Every oracle call, in order.
    pub calls: Vec<Call>,
    /// Seconds inside each checkpoint save.
    pub save_s: Vec<f64>,
    /// Bytes of checkpoint entries written.
    pub saved_bytes: u64,
    /// Oracle calls whose candidate lies on the golden front (table-backed
    /// workloads; 0 otherwise).
    pub golden_hits: usize,
    /// Front quality, when the front passed its checks.
    pub score: Option<Score>,
    /// Violated output checks.
    pub problems: Vec<String>,
    initial_samples: usize,
}

impl RunOutcome {
    /// The run's first-pick latency and steady-state tool-idle gaps.
    pub fn gaps(&self) -> Gaps {
        let verification = self.result.as_ref().map_or(0, |r| r.verification_runs);
        idle_gaps(&self.calls, self.initial_samples, verification)
    }
}

/// Runs the tuner once on `input`, streaming events to `observer`.
/// `work_dir` holds the durable workload's checkpoint chain, which is
/// created fresh and removed afterwards.
pub fn run(input: &RunInput, observer: &dyn Observer, work_dir: &Path) -> RunOutcome {
    let mut oracle = TimedOracle {
        truth: &input.truth,
        faults: input.faults.as_ref(),
        attempts: HashMap::new(),
        origin: Instant::now(),
        calls: Vec::new(),
        returned: HashMap::new(),
    };
    let tuner = PpaTuner::new(input.config.clone());
    let (result, save_s, saved_bytes) = if input.durable {
        let dir = work_dir.join("chain");
        // Best effort: a leftover chain from an aborted run would be
        // recovered from, which no workload wants.
        let _ = std::fs::remove_dir_all(&dir);
        let store = TimedStore {
            inner: ChainCheckpointStore::new(&dir, 3),
            save_s: RefCell::new(Vec::new()),
            bytes: Cell::new(0),
        };
        let result = tuner.run_checkpointed(
            &input.source,
            &input.candidates,
            &mut oracle,
            observer,
            &store,
        );
        let _ = std::fs::remove_dir_all(&dir);
        (result, store.save_s.into_inner(), store.bytes.get())
    } else {
        let result = tuner.run_observed(&input.source, &input.candidates, &mut oracle, observer);
        (result, Vec::new(), 0)
    };
    let golden_hits = match &input.truth {
        Truth::Table(table) => oracle
            .calls
            .iter()
            .filter(|c| input.golden.contains(&table[c.index]))
            .count(),
        Truth::Flow { .. } => 0,
    };
    let mut outcome = RunOutcome {
        label: input.label.clone(),
        result: result.map_err(|e| e.to_string()),
        calls: oracle.calls,
        save_s,
        saved_bytes,
        golden_hits,
        score: None,
        problems: Vec::new(),
        initial_samples: input.config.initial_samples,
    };
    match &outcome.result {
        Ok(r) => match check_front(input, r, &oracle.returned) {
            Ok(score) => outcome.score = Some(score),
            Err(problems) => outcome.problems = problems,
        },
        Err(e) => outcome.problems.push(format!("tuner error: {e}")),
    }
    outcome
}

/// The final front is non-empty, made of evaluated candidates that were
/// never quarantined, and scores to finite hypervolume error and ADRS.
fn check_front(
    input: &RunInput,
    result: &TuneResult,
    returned: &HashMap<usize, Vec<f64>>,
) -> Result<Score, Vec<String>> {
    let mut problems = Vec::new();
    if result.pareto_indices.is_empty() {
        problems.push("empty final front".to_string());
    }
    let mut front = Vec::new();
    for &i in &result.pareto_indices {
        if result.quarantined.contains(&i) {
            problems.push(format!("quarantined candidate {i} is on the front"));
        }
        let qor = match &input.truth {
            Truth::Table(table) => table.get(i),
            Truth::Flow { .. } => returned.get(&i),
        };
        match qor {
            Some(y) if returned.contains_key(&i) => front.push(y.clone()),
            _ => problems.push(format!("front member {i} was never evaluated")),
        }
    }
    if !problems.is_empty() {
        return Err(problems);
    }
    let hv_error = hypervolume_error(&input.golden, &front, &input.reference)
        .map_err(|e| vec![format!("hypervolume error: {e}")])?;
    let adrs = adrs(&input.golden, &front).map_err(|e| vec![format!("ADRS: {e}")])?;
    if !(hv_error.is_finite() && adrs.is_finite()) {
        return Err(vec![format!(
            "non-finite score: hv {hv_error}, adrs {adrs}"
        )]);
    }
    Ok(Score { hv_error, adrs })
}

/// A fingerprint of the tuner's answer with its wall-clock fields zeroed:
/// runs over the same inputs must agree on it, in any process, traced or
/// not. FNV-1a over the result's JSON, or the error message.
pub fn digest(result: &Result<TuneResult, String>) -> String {
    let text = match result {
        Ok(r) => {
            let mut r = r.clone();
            for h in &mut r.history {
                h.duration_s = 0.0;
                h.gp_fit_s = 0.0;
                h.predict_s = 0.0;
            }
            r.to_json()
        }
        Err(e) => return format!("error: {e}"),
    };
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_2d_matches_the_general_front() {
        let mut x = 0x1234_5678_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 50) as f64
        };
        // Coarse values force ties and duplicates.
        let points: Vec<Vec<f64>> = (0..400).map(|_| vec![next(), next()]).collect();
        let mut want = pareto::front::pareto_front_points(&points);
        want.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(front_2d(&points), want);
    }

    #[test]
    fn tuner_seeds_keep_the_run_seed_first_and_never_repeat() {
        assert_eq!(tuner_seed(17, 0), 17);
        let mut seen = std::collections::HashSet::new();
        for run_seed in 0..50 {
            for k in 0..50 {
                assert!(seen.insert(tuner_seed(run_seed, k)), "{run_seed}/{k}");
            }
        }
    }

    #[test]
    fn committed_fault_plan_fails_about_a_fifth_of_attempts() {
        let plan = fault_plan();
        assert!((0.2..0.3).contains(&plan.failure_rate()));
    }

    #[test]
    fn smoke_workloads_run_and_repeat_exactly() {
        let dir = std::env::temp_dir().join(format!("profile-test-{}", std::process::id()));
        for w in Workload::ALL {
            for input in setup(w, 5, 1, true) {
                let a = run(&input, &obs::NULL_SINK, &dir);
                let b = run(&input, &obs::NULL_SINK, &dir);
                assert!(a.problems.is_empty(), "{}: {:?}", w.name(), a.problems);
                assert!(a.score.is_some());
                assert_eq!(digest(&a.result), digest(&b.result), "{}", a.label);
            }
        }
        // The digest ignores wall-clock fields and nothing else.
        let input = &setup(Workload::T3Paper, 5, 0, true)[0];
        let base = run(input, &obs::NULL_SINK, &dir).result;
        let mut timed = base.clone().unwrap();
        timed.history[0].duration_s += 1.0;
        timed.history[0].gp_fit_s += 1.0;
        timed.history[0].predict_s += 1.0;
        assert_eq!(digest(&Ok(timed.clone())), digest(&base));
        timed.runs += 1;
        assert_ne!(digest(&Ok(timed)), digest(&base));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
