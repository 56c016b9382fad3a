//! Chaos harness: a table-backed oracle with deterministic fault
//! injection, for exercising the tuner's retry / quarantine / sanitize
//! machinery end to end, plus the helpers the robustness tests share.
//!
//! [`FaultyVecOracle`] is [`ppatuner::VecOracle`]'s golden QoR table,
//! wrapped in a [`pdsim::FaultPlan`] that decides — purely from
//! `(candidate, attempt)` hashes — which attempts crash, time out, or
//! come back corrupted. Because both halves are deterministic, a chaos
//! run is exactly as reproducible as a clean one, and the *same plan* can
//! be replayed in a proptest, in a workspace test, and at a debugger
//! prompt. The two committed plans, `crates/bench/plans/chaos_smoke.json`
//! (tool faults) and `recovery_smoke.json` (calibration faults), are read
//! by [`tool_fault_plan`] and [`fit_fault_plan`]; `tests/recovery.rs`
//! runs both on the golden scenario.

use std::cell::{Ref, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use pdsim::{FaultDecision, FaultPlan};
use ppatuner::{
    Checkpoint, CheckpointError, CheckpointStore, ConcurrentOracle, EvalError, FitFaultPlan,
    QorOracle, TuneResult,
};

/// Wall-clock budget reported by injected timeouts (arbitrary but stable,
/// so traces and goldens do not wobble).
const INJECTED_TIMEOUT_S: f64 = 3600.0;

/// A golden-table oracle that fails according to a [`FaultPlan`].
///
/// Attempt numbers are tracked per candidate across the whole run (the
/// plan's flaky bound is about consecutive failures of one candidate),
/// and every call — failed or not — counts as a tool run, mirroring how
/// a license is burned on a crashed job.
///
/// # Example
///
/// ```
/// use pdsim::FaultPlan;
/// use ppatuner::QorOracle;
/// use testkit::chaos::FaultyVecOracle;
///
/// let plan = FaultPlan { crash_prob: 1.0, flaky_max_failures: 1, ..FaultPlan::default() };
/// let mut oracle = FaultyVecOracle::new(vec![vec![1.0, 2.0]], plan);
/// assert!(oracle.evaluate(0).is_err()); // attempt 1 crashes
/// assert!(oracle.evaluate(0).is_ok()); // attempt 2 clears the flaky bound
/// assert_eq!(oracle.runs(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FaultyVecOracle {
    table: Vec<Vec<f64>>,
    plan: FaultPlan,
    attempts: HashMap<usize, usize>,
    runs: usize,
}

impl FaultyVecOracle {
    /// Wraps a golden QoR table in a fault plan.
    ///
    /// # Panics
    ///
    /// Panics when the plan fails [`FaultPlan::validate`].
    pub fn new(table: Vec<Vec<f64>>, plan: FaultPlan) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        FaultyVecOracle {
            table,
            plan,
            attempts: HashMap::new(),
            runs: 0,
        }
    }

    /// The injection recipe.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The fault-free QoR of candidate `index`, for assertions.
    pub fn truth(&self, index: usize) -> Option<&Vec<f64>> {
        self.table.get(index)
    }
}

impl QorOracle for FaultyVecOracle {
    fn evaluate(&mut self, index: usize) -> Result<Vec<f64>, EvalError> {
        self.runs += 1;
        let Some(y) = self.table.get(index) else {
            return Err(EvalError::OutOfRange {
                index,
                len: self.table.len(),
            });
        };
        let attempt = self.attempts.entry(index).or_insert(0);
        *attempt += 1;
        match self.plan.decide(index, *attempt) {
            FaultDecision::None => Ok(y.clone()),
            FaultDecision::Crash => Err(EvalError::Crash {
                detail: format!("injected crash (candidate {index}, attempt {attempt})"),
            }),
            FaultDecision::Timeout(stage) => Err(EvalError::Timeout {
                stage: pdsim::faults::STAGE_NAMES[stage].to_string(),
                elapsed_s: INJECTED_TIMEOUT_S,
            }),
            FaultDecision::CorruptNan => Ok(vec![f64::NAN; y.len()]),
            FaultDecision::CorruptOutlier => {
                Ok(y.iter().map(|v| v * self.plan.outlier_factor).collect())
            }
        }
    }

    fn runs(&self) -> usize {
        self.runs
    }
}

/// A golden-table [`ConcurrentOracle`] where chosen `(candidate,
/// attempt)` pairs *hang* — sleep far past any reasonable deadline
/// before answering — instead of failing cleanly.
///
/// This is the liveness fault [`FaultyVecOracle`] cannot model: a
/// crashed attempt returns an error the retry machinery can route, but a
/// hung attempt never returns at all. Wrap it in a
/// [`ppatuner::WatchdogOracle`] to convert each hang into a
/// deterministic [`EvalError::Timeout`] and let the run proceed; the
/// abandoned worker eventually wakes, returns the truth into a closed
/// channel, and is dropped.
///
/// Hangs are keyed by per-candidate attempt number (first attempt is 1),
/// so a retried candidate can hang once and then succeed — which is the
/// recovery path the watchdog exists to feed.
#[derive(Debug)]
pub struct HangingOracle {
    table: Vec<Vec<f64>>,
    hangs: BTreeSet<(usize, usize)>,
    hang_s: f64,
    attempts: Mutex<HashMap<usize, usize>>,
    runs: AtomicUsize,
}

impl HangingOracle {
    /// Wraps a golden QoR table; attempts listed in `hangs` (as
    /// `(candidate, attempt)` pairs, attempts starting at 1) sleep for
    /// `hang_s` seconds before answering.
    ///
    /// # Panics
    ///
    /// Panics when `hang_s` is not finite and non-negative.
    pub fn new(
        table: Vec<Vec<f64>>,
        hangs: impl IntoIterator<Item = (usize, usize)>,
        hang_s: f64,
    ) -> Self {
        assert!(
            hang_s.is_finite() && hang_s >= 0.0,
            "hang duration must be finite and non-negative"
        );
        HangingOracle {
            table,
            hangs: hangs.into_iter().collect(),
            hang_s,
            attempts: Mutex::new(HashMap::new()),
            runs: AtomicUsize::new(0),
        }
    }
}

impl ConcurrentOracle for HangingOracle {
    fn evaluate(&self, index: usize) -> Result<Vec<f64>, EvalError> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        let Some(y) = self.table.get(index) else {
            return Err(EvalError::OutOfRange {
                index,
                len: self.table.len(),
            });
        };
        let attempt = {
            let mut attempts = self.attempts.lock().expect("attempt map poisoned");
            let a = attempts.entry(index).or_insert(0);
            *a += 1;
            *a
        };
        if self.hangs.contains(&(index, attempt)) {
            std::thread::sleep(Duration::from_secs_f64(self.hang_s));
        }
        Ok(y.clone())
    }

    fn runs(&self) -> usize {
        self.runs.load(Ordering::SeqCst)
    }
}

/// The committed tool-fault plan, `crates/bench/plans/chaos_smoke.json`:
/// crashes, timeouts, NaN and outlier QoR, and two always-failing
/// candidates.
///
/// # Panics
///
/// Panics when the plan does not parse or validate, or injects less than
/// a 20 % failure rate.
pub fn tool_fault_plan() -> FaultPlan {
    let plan: FaultPlan = serde_json::from_str(include_str!("../../bench/plans/chaos_smoke.json"))
        .expect("committed tool-fault plan parses");
    plan.validate().expect("committed tool-fault plan is valid");
    assert!(
        plan.failure_rate() >= 0.2,
        "the tool-fault plan must inject >= 20% failures, has {}",
        plan.failure_rate()
    );
    plan
}

/// The committed calibration-fault plan,
/// `crates/bench/plans/recovery_smoke.json`, to arm with
/// [`ppatuner::inject_fit_faults`].
///
/// # Panics
///
/// Panics when the plan does not parse or validate, or injects less than
/// 25 % faults on the refit or the `condition_on` path.
pub fn fit_fault_plan() -> FitFaultPlan {
    let plan: FitFaultPlan =
        serde_json::from_str(include_str!("../../bench/plans/recovery_smoke.json"))
            .expect("committed fit-fault plan parses");
    plan.validate().expect("committed fit-fault plan is valid");
    assert!(
        plan.refit_fail >= 0.25 && plan.condition_fail >= 0.25,
        "the fit-fault plan must inject >= 25% faults on both calibration paths, \
         has refit {} / condition {}",
        plan.refit_fail,
        plan.condition_fail
    );
    plan
}

/// A [`CheckpointStore`] that records every save and loads the newest,
/// so a test can crash a run at any checkpoint boundary, not just the
/// last one.
#[derive(Debug, Default)]
pub struct CaptureStore {
    all: RefCell<Vec<Checkpoint>>,
}

impl CaptureStore {
    /// Every checkpoint saved so far, oldest first.
    pub fn checkpoints(&self) -> Ref<'_, Vec<Checkpoint>> {
        self.all.borrow()
    }
}

impl CheckpointStore for CaptureStore {
    fn save(&self, c: &Checkpoint) -> Result<(), CheckpointError> {
        self.all.borrow_mut().push(c.clone());
        Ok(())
    }

    fn load(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        Ok(self.all.borrow().last().cloned())
    }
}

/// Asserts that `resumed` reproduces `full`: front, evaluated set, runs,
/// verification runs, iterations, δ, quarantine, degraded fits, failure
/// counters and the structural part of the iteration history (its rows
/// also carry wall-clock timings). `label` prefixes every message.
///
/// # Panics
///
/// Panics at the first field that differs.
pub fn assert_same_outcome(full: &TuneResult, resumed: &TuneResult, label: &str) {
    assert_eq!(
        resumed.pareto_indices, full.pareto_indices,
        "{label}: front"
    );
    assert_eq!(resumed.evaluated, full.evaluated, "{label}: evaluated set");
    assert_eq!(resumed.runs, full.runs, "{label}: runs");
    assert_eq!(
        resumed.verification_runs, full.verification_runs,
        "{label}: verification runs"
    );
    assert_eq!(resumed.iterations, full.iterations, "{label}: iterations");
    assert_eq!(resumed.delta, full.delta, "{label}: final delta");
    assert_eq!(resumed.quarantined, full.quarantined, "{label}: quarantine");
    assert_eq!(
        resumed.degraded_fits, full.degraded_fits,
        "{label}: degraded fits"
    );
    assert_eq!(
        (resumed.eval_failures, resumed.eval_retries),
        (full.eval_failures, full.eval_retries),
        "{label}: failure counters"
    );
    let shape = |r: &TuneResult| -> Vec<[usize; 6]> {
        r.history
            .iter()
            .map(|h| {
                [
                    h.iteration,
                    h.undecided,
                    h.pareto,
                    h.dropped,
                    h.quarantined,
                    h.runs,
                ]
            })
            .collect()
    };
    assert_eq!(shape(resumed), shape(full), "{label}: iteration history");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Vec<Vec<f64>> {
        (0..10).map(|i| vec![i as f64, 10.0 - i as f64]).collect()
    }

    #[test]
    fn clean_plan_is_a_vec_oracle() {
        let mut oracle = FaultyVecOracle::new(table(), FaultPlan::default());
        for i in 0..10 {
            assert_eq!(oracle.evaluate(i).unwrap(), table()[i]);
        }
        assert_eq!(oracle.runs(), 10);
    }

    #[test]
    fn always_fail_candidates_never_succeed() {
        let plan = FaultPlan {
            always_fail: vec![4],
            ..FaultPlan::default()
        };
        let mut oracle = FaultyVecOracle::new(table(), plan);
        for _ in 0..5 {
            assert!(matches!(oracle.evaluate(4), Err(EvalError::Crash { .. })));
        }
        assert_eq!(oracle.runs(), 5);
    }

    #[test]
    fn injection_is_reproducible_across_oracles() {
        let plan = FaultPlan {
            seed: 9,
            crash_prob: 0.3,
            timeout_prob: 0.2,
            nan_prob: 0.1,
            ..FaultPlan::default()
        };
        let mut a = FaultyVecOracle::new(table(), plan.clone());
        let mut b = FaultyVecOracle::new(table(), plan);
        for i in 0..10 {
            for _ in 0..3 {
                assert_eq!(a.evaluate(i).is_ok(), b.evaluate(i).is_ok(), "{i}");
            }
        }
    }

    #[test]
    fn out_of_range_is_reported() {
        let mut oracle = FaultyVecOracle::new(table(), FaultPlan::default());
        assert!(matches!(
            oracle.evaluate(99),
            Err(EvalError::OutOfRange { index: 99, len: 10 })
        ));
    }

    #[test]
    fn hanging_oracle_hangs_only_the_listed_attempts() {
        let oracle = HangingOracle::new(table(), [(1, 1)], 0.05);
        let t0 = std::time::Instant::now();
        assert_eq!(oracle.evaluate(0).unwrap(), table()[0]);
        assert!(
            t0.elapsed().as_secs_f64() < 0.04,
            "candidate 0 must not hang"
        );
        let t1 = std::time::Instant::now();
        // Attempt 1 on candidate 1 hangs, attempt 2 answers promptly.
        assert_eq!(oracle.evaluate(1).unwrap(), table()[1]);
        assert!(t1.elapsed().as_secs_f64() >= 0.05);
        let t2 = std::time::Instant::now();
        assert_eq!(oracle.evaluate(1).unwrap(), table()[1]);
        assert!(t2.elapsed().as_secs_f64() < 0.04, "retry must not hang");
        assert_eq!(ConcurrentOracle::runs(&oracle), 3);
    }

    #[test]
    fn watchdog_converts_a_hang_into_a_timeout() {
        use ppatuner::{WatchdogOracle, WATCHDOG_STAGE};
        let oracle = WatchdogOracle::new(HangingOracle::new(table(), [(2, 1)], 2.0), 0.05);
        assert_eq!(oracle.evaluate(0).unwrap(), table()[0]);
        match oracle.evaluate(2) {
            Err(EvalError::Timeout { stage, elapsed_s }) => {
                assert_eq!(stage, WATCHDOG_STAGE);
                assert_eq!(elapsed_s, 0.05);
            }
            other => panic!("expected a watchdog timeout, got {other:?}"),
        }
        // The retry reaches attempt 2, which does not hang.
        assert_eq!(oracle.evaluate(2).unwrap(), table()[2]);
        assert_eq!(oracle.fired(), 1);
    }

    #[test]
    fn corruptions_surface_in_the_qor() {
        let plan = FaultPlan {
            nan_prob: 1.0,
            flaky_max_failures: 0,
            ..FaultPlan::default()
        };
        let mut oracle = FaultyVecOracle::new(table(), plan);
        let y = oracle.evaluate(0).unwrap();
        assert!(y.iter().all(|v| v.is_nan()));
    }
}
