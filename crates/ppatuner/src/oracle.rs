//! The expensive-evaluation interface: what stands in for the PD tool.
//!
//! Real tool invocations crash, hang, and emit garbage QoR, so the
//! contract is fallible: [`QorOracle::evaluate`] returns
//! `Result<Vec<f64>, EvalError>` and the tuner's resilient executor
//! decides whether a failure is retried, quarantined, or fatal.

use serde::{Deserialize, Serialize};

/// Why one tool evaluation produced no usable QoR vector.
///
/// Every variant except [`EvalError::OutOfRange`] is *transient*: the
/// tuner retries it up to its failure budget (real flows are flaky —
/// license hiccups, placement-seed crashes, interrupted runs). An
/// out-of-range index is a caller bug and aborts the run immediately.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EvalError {
    /// The tool process died before producing QoR.
    Crash {
        /// Tool-reported detail (exit status, log tail, ...).
        detail: String,
    },
    /// The tool exceeded its wall-clock budget.
    Timeout {
        /// The flow stage that was running when the budget expired.
        stage: String,
        /// Seconds elapsed when the run was killed.
        elapsed_s: f64,
    },
    /// The tool finished but its QoR is unusable (unparseable report,
    /// wrong dimension, non-finite or grossly outlying values).
    InvalidQor {
        /// What was wrong with the reported QoR.
        detail: String,
    },
    /// The requested candidate index does not exist (caller bug; never
    /// retried).
    OutOfRange {
        /// The requested index.
        index: usize,
        /// Number of candidates the oracle knows.
        len: usize,
    },
}

impl EvalError {
    /// `true` when retrying the same evaluation can plausibly succeed.
    pub fn is_transient(&self) -> bool {
        !matches!(self, EvalError::OutOfRange { .. })
    }

    /// Short failure class for traces and reports (`"crash"`,
    /// `"timeout"`, `"invalid_qor"`, `"out_of_range"`).
    pub fn kind(&self) -> &'static str {
        match self {
            EvalError::Crash { .. } => "crash",
            EvalError::Timeout { .. } => "timeout",
            EvalError::InvalidQor { .. } => "invalid_qor",
            EvalError::OutOfRange { .. } => "out_of_range",
        }
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Crash { detail } => write!(f, "tool crashed: {detail}"),
            EvalError::Timeout { stage, elapsed_s } => {
                write!(f, "tool timed out in stage {stage} after {elapsed_s:.1} s")
            }
            EvalError::InvalidQor { detail } => write!(f, "invalid QoR: {detail}"),
            EvalError::OutOfRange { index, len } => {
                write!(f, "candidate index {index} out of range (len {len})")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// The PD tool as the tuner sees it: a function from candidate index to a
/// golden QoR vector (minimization), with a run counter.
///
/// Implementations wrap whatever actually produces QoR values — the
/// `pdsim` flow, a precomputed benchmark table, or a mock. Each
/// [`evaluate`](QorOracle::evaluate) call is one tool run (successful or
/// not — a crashed Innovus invocation still burned a license slot), so
/// `runs` must count failures too; the paper counts these runs as the
/// runtime cost (source-task history is free).
pub trait QorOracle {
    /// Runs the tool for candidate `index` and returns its QoR vector,
    /// or an [`EvalError`] describing why no usable QoR was produced.
    ///
    /// # Errors
    ///
    /// [`EvalError::OutOfRange`] for an unknown index; other variants at
    /// the implementation's discretion (fault injection, live tools).
    fn evaluate(&mut self, index: usize) -> Result<Vec<f64>, EvalError>;

    /// Runs the tool for candidate `index`, whose parameter coordinates
    /// are `x`.
    ///
    /// Table-backed oracles key on the index alone and ignore `x`; the
    /// default implementation delegates to
    /// [`evaluate`](QorOracle::evaluate). Oracles that compute QoR from
    /// the coordinates (live flows, [`FnOracle`]) override this so the
    /// tuner can evaluate candidates that were *not* in the initial pool
    /// — adaptive-pool refinement appends candidates at indices the
    /// oracle has never seen.
    ///
    /// # Errors
    ///
    /// Same contract as [`evaluate`](QorOracle::evaluate).
    fn evaluate_at(&mut self, index: usize, x: &[f64]) -> Result<Vec<f64>, EvalError> {
        let _ = x;
        self.evaluate(index)
    }

    /// Number of tool runs so far, including failed attempts.
    fn runs(&self) -> usize;
}

/// An oracle backed by a precomputed QoR table — the offline-benchmark
/// setting of the paper's evaluation (§4.1). Infallible except for
/// out-of-range indices.
///
/// # Example
///
/// ```
/// use ppatuner::{QorOracle, VecOracle};
///
/// let mut o = VecOracle::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(o.evaluate(1).unwrap(), vec![3.0, 4.0]);
/// assert_eq!(o.runs(), 1);
/// assert!(o.evaluate(7).is_err()); // out of range, not a panic
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VecOracle {
    table: Vec<Vec<f64>>,
    runs: usize,
}

impl VecOracle {
    /// Wraps a QoR table (one vector per candidate).
    pub fn new(table: Vec<Vec<f64>>) -> Self {
        VecOracle { table, runs: 0 }
    }

    /// Number of candidates in the table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Borrows the full golden table (for metric computation; does not
    /// count as tool runs).
    pub fn table(&self) -> &[Vec<f64>] {
        &self.table
    }
}

impl QorOracle for VecOracle {
    fn evaluate(&mut self, index: usize) -> Result<Vec<f64>, EvalError> {
        self.runs += 1;
        match self.table.get(index) {
            Some(y) => Ok(y.clone()),
            None => Err(EvalError::OutOfRange {
                index,
                len: self.table.len(),
            }),
        }
    }

    fn runs(&self) -> usize {
        self.runs
    }
}

/// Decorator that adds run counting to a closure-based oracle — the
/// bridge for live flows, including those that can crash or time out
/// (for example a `pdsim::PdFlow` run under a `pdsim::FaultPlan`). A
/// closure that cannot fail returns `Ok(qor)`.
pub struct FallibleOracle<F> {
    f: F,
    runs: usize,
}

impl<F: FnMut(usize) -> Result<Vec<f64>, EvalError>> FallibleOracle<F> {
    /// Wraps a fallible evaluation closure.
    pub fn new(f: F) -> Self {
        FallibleOracle { f, runs: 0 }
    }
}

impl<F: FnMut(usize) -> Result<Vec<f64>, EvalError>> QorOracle for FallibleOracle<F> {
    fn evaluate(&mut self, index: usize) -> Result<Vec<f64>, EvalError> {
        self.runs += 1;
        (self.f)(index)
    }

    fn runs(&self) -> usize {
        self.runs
    }
}

impl<F> std::fmt::Debug for FallibleOracle<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FallibleOracle")
            .field("runs", &self.runs)
            .finish()
    }
}

/// A thread-safe oracle front end: the contract for concurrent batch
/// fan-out (`&self` evaluation, `Sync`), so several workers can have tool
/// runs in flight at once.
///
/// Implementations decide how much real concurrency they offer. A farm of
/// tool licenses (or a simulator that sleeps per run, like the `qscale`
/// bench) evaluates truly in parallel; [`SharedOracle`] adapts any
/// sequential [`QorOracle`] by serializing calls behind a mutex —
/// correct, but without wall-clock overlap.
///
/// The tuner guarantees that concurrent calls are always for *distinct*
/// candidate indices (one batch member each), and that batch composition
/// and all results are deterministic regardless of completion order.
pub trait ConcurrentOracle: Sync {
    /// Runs the tool for candidate `index`; may be called from several
    /// worker threads at once (always with distinct indices).
    ///
    /// # Errors
    ///
    /// [`EvalError::OutOfRange`] for an unknown index; other variants at
    /// the implementation's discretion (fault injection, live tools).
    fn evaluate(&self, index: usize) -> Result<Vec<f64>, EvalError>;

    /// Runs the tool for candidate `index` at parameter coordinates `x`;
    /// may be called from several worker threads at once.
    ///
    /// The default delegates to [`evaluate`](ConcurrentOracle::evaluate)
    /// (index-keyed tables ignore coordinates); coordinate-driven oracles
    /// override it so adaptive-pool candidates beyond the initial table
    /// remain evaluable.
    ///
    /// # Errors
    ///
    /// Same contract as [`evaluate`](ConcurrentOracle::evaluate).
    fn evaluate_at(&self, index: usize, x: &[f64]) -> Result<Vec<f64>, EvalError> {
        let _ = x;
        self.evaluate(index)
    }

    /// Number of tool runs so far, including failed attempts.
    fn runs(&self) -> usize;
}

/// How a run reaches the tool: the one oracle argument of every
/// [`PpaTuner`](crate::PpaTuner) entry point.
///
/// `&mut impl QorOracle` converts into [`OracleRef::Serial`], whose wave
/// members run one after another on the calling thread;
/// `&impl ConcurrentOracle` converts into [`OracleRef::Concurrent`], whose
/// wave members each run on their own thread. Results, traces and span IDs
/// are identical either way; only wall-clock overlap differs.
pub enum OracleRef<'a> {
    /// An exclusive sequential oracle.
    Serial(&'a mut dyn QorOracle),
    /// A shared thread-safe oracle a wave can fan out over.
    Concurrent(&'a dyn ConcurrentOracle),
}

impl OracleRef<'_> {
    /// Tool runs so far, including failed attempts.
    pub(crate) fn runs(&self) -> usize {
        match self {
            OracleRef::Serial(o) => o.runs(),
            OracleRef::Concurrent(o) => o.runs(),
        }
    }
}

impl<'a, O: QorOracle + 'a> From<&'a mut O> for OracleRef<'a> {
    fn from(oracle: &'a mut O) -> Self {
        OracleRef::Serial(oracle)
    }
}

impl<'a, O: ConcurrentOracle + 'a> From<&'a O> for OracleRef<'a> {
    fn from(oracle: &'a O) -> Self {
        OracleRef::Concurrent(oracle)
    }
}

/// Adapts any sequential [`QorOracle`] into a [`ConcurrentOracle`] by
/// serializing evaluations behind a mutex.
///
/// This keeps table- and closure-backed oracles usable with a concurrent
/// run (`PpaTuner::run_observed(.., &shared, ..)`) without giving up
/// their exact sequential semantics: per-candidate attempt counts and
/// run totals are interleaving-independent, so results match the serial
/// path bit for bit. Real overlap requires a natively concurrent oracle.
///
/// # Example
///
/// ```
/// use ppatuner::{ConcurrentOracle, QorOracle, SharedOracle, VecOracle};
///
/// let o = SharedOracle::new(VecOracle::new(vec![vec![1.0], vec![2.0]]));
/// assert_eq!(o.evaluate(1).unwrap(), vec![2.0]);
/// assert_eq!(o.runs(), 1);
/// assert_eq!(o.into_inner().runs(), 1);
/// ```
#[derive(Debug)]
pub struct SharedOracle<O> {
    inner: std::sync::Mutex<O>,
}

impl<O: QorOracle + Send> SharedOracle<O> {
    /// Wraps a sequential oracle for shared use.
    pub fn new(oracle: O) -> Self {
        SharedOracle {
            inner: std::sync::Mutex::new(oracle),
        }
    }

    /// Unwraps the inner oracle (e.g. to read a `VecOracle` table back).
    pub fn into_inner(self) -> O {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<O: QorOracle + Send> ConcurrentOracle for SharedOracle<O> {
    fn evaluate(&self, index: usize) -> Result<Vec<f64>, EvalError> {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .evaluate(index)
    }

    fn evaluate_at(&self, index: usize, x: &[f64]) -> Result<Vec<f64>, EvalError> {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .evaluate_at(index, x)
    }

    fn runs(&self) -> usize {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).runs()
    }
}

/// An oracle that computes QoR directly from parameter *coordinates* — an
/// analytic stand-in for a live PD flow. This is the natural oracle for
/// adaptive candidate pools: refinement appends candidates the initial
/// table never contained, and only a coordinate-driven oracle can price
/// them.
///
/// Implements both [`QorOracle`] and [`ConcurrentOracle`] (the closure is
/// `Fn + Sync`, so workers may overlap). The index-keyed
/// `evaluate(index)` entry point is unsupported — it reports
/// [`EvalError::OutOfRange`] because there is no table to look up — but
/// the tuner always calls [`evaluate_at`](QorOracle::evaluate_at), which
/// this type overrides.
///
/// # Example
///
/// ```
/// use ppatuner::{FnOracle, QorOracle};
///
/// let mut o = FnOracle::new(|x: &[f64]| vec![x[0], 1.0 - x[0]]);
/// assert_eq!(o.evaluate_at(7, &[0.25]).unwrap(), vec![0.25, 0.75]);
/// assert_eq!(o.runs(), 1);
/// assert!(o.evaluate(7).is_err()); // no table behind this oracle
/// ```
pub struct FnOracle<F> {
    f: F,
    runs: std::sync::atomic::AtomicUsize,
}

impl<F: Fn(&[f64]) -> Vec<f64>> FnOracle<F> {
    /// Wraps a coordinate-to-QoR closure.
    pub fn new(f: F) -> Self {
        FnOracle {
            f,
            runs: std::sync::atomic::AtomicUsize::new(0),
        }
    }
}

impl<F> std::fmt::Debug for FnOracle<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnOracle")
            .field(
                "runs",
                &self.runs.load(std::sync::atomic::Ordering::Relaxed),
            )
            .finish()
    }
}

impl<F: Fn(&[f64]) -> Vec<f64>> QorOracle for FnOracle<F> {
    fn evaluate(&mut self, index: usize) -> Result<Vec<f64>, EvalError> {
        self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Err(EvalError::OutOfRange { index, len: 0 })
    }

    fn evaluate_at(&mut self, _index: usize, x: &[f64]) -> Result<Vec<f64>, EvalError> {
        self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok((self.f)(x))
    }

    fn runs(&self) -> usize {
        self.runs.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl<F: Fn(&[f64]) -> Vec<f64> + Sync> ConcurrentOracle for FnOracle<F> {
    fn evaluate(&self, index: usize) -> Result<Vec<f64>, EvalError> {
        self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Err(EvalError::OutOfRange { index, len: 0 })
    }

    fn evaluate_at(&self, _index: usize, x: &[f64]) -> Result<Vec<f64>, EvalError> {
        self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok((self.f)(x))
    }

    fn runs(&self) -> usize {
        self.runs.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// The `stage` string of watchdog-produced [`EvalError::Timeout`]s. The
/// tuner recognizes it to emit a `WatchdogFired` trace event alongside
/// the ordinary `EvalFailed`; real tool timeouts carry flow-stage names
/// (`synth`, `route`, ...) and are left alone.
pub const WATCHDOG_STAGE: &str = "watchdog";

/// Wraps a [`ConcurrentOracle`] with an enforced per-attempt wall-clock
/// deadline: an evaluation that has not returned within `deadline_s` is
/// abandoned and reported as a deterministic [`EvalError::Timeout`] with
/// stage [`WATCHDOG_STAGE`], feeding the tuner's existing
/// retry/quarantine machinery. A hung worker thus costs one attempt, not
/// the whole wave.
///
/// Each evaluation runs on a detached helper thread holding an `Arc` of
/// the inner oracle; on expiry the helper is *abandoned*, not killed (the
/// hung tool call keeps its thread until it returns, which is the only
/// option without OS-level cancellation — real deployments put the tool
/// in a child process and make the inner oracle kill it on drop). The
/// reported `elapsed_s` is the *configured deadline*, not measured
/// wall-clock, so replay logs and traces stay bit-identical across runs
/// and worker counts.
#[derive(Debug)]
pub struct WatchdogOracle<O> {
    inner: std::sync::Arc<O>,
    deadline_s: f64,
    runs: std::sync::atomic::AtomicUsize,
    fired: std::sync::atomic::AtomicUsize,
}

impl<O: ConcurrentOracle + Send + Sync + 'static> WatchdogOracle<O> {
    /// Wraps `oracle` with a per-attempt deadline of `deadline_s` seconds.
    ///
    /// # Panics
    ///
    /// When `deadline_s` is not finite and positive — a watchdog that can
    /// never fire (or always fires) is a configuration bug.
    pub fn new(oracle: O, deadline_s: f64) -> Self {
        assert!(
            deadline_s.is_finite() && deadline_s > 0.0,
            "watchdog deadline must be finite and positive, got {deadline_s}"
        );
        WatchdogOracle {
            inner: std::sync::Arc::new(oracle),
            deadline_s,
            runs: std::sync::atomic::AtomicUsize::new(0),
            fired: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// The enforced per-attempt deadline, in seconds.
    pub fn deadline_s(&self) -> f64 {
        self.deadline_s
    }

    /// How many evaluations the watchdog has abandoned so far.
    pub fn fired(&self) -> usize {
        self.fired.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn guard<F>(&self, call: F) -> Result<Vec<f64>, EvalError>
    where
        F: FnOnce(&O) -> Result<Vec<f64>, EvalError> + Send + 'static,
    {
        self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (tx, rx) = std::sync::mpsc::channel();
        let inner = std::sync::Arc::clone(&self.inner);
        std::thread::spawn(move || {
            // The receiver may be gone if the deadline already expired;
            // a refused send is exactly the abandoned-attempt case.
            let _ = tx.send(call(&inner));
        });
        match rx.recv_timeout(std::time::Duration::from_secs_f64(self.deadline_s)) {
            Ok(result) => result,
            Err(_) => {
                self.fired
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Err(EvalError::Timeout {
                    stage: WATCHDOG_STAGE.into(),
                    elapsed_s: self.deadline_s,
                })
            }
        }
    }
}

impl<O: ConcurrentOracle + Send + Sync + 'static> ConcurrentOracle for WatchdogOracle<O> {
    fn evaluate(&self, index: usize) -> Result<Vec<f64>, EvalError> {
        self.guard(move |inner| inner.evaluate(index))
    }

    fn evaluate_at(&self, index: usize, x: &[f64]) -> Result<Vec<f64>, EvalError> {
        let x = x.to_vec();
        self.guard(move |inner| inner.evaluate_at(index, &x))
    }

    fn runs(&self) -> usize {
        // Attempts *this wrapper* started: abandoned attempts must keep
        // counting as burned tool runs even though the inner oracle may
        // still be stuck inside them.
        self.runs.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_oracle_counts_runs() {
        let mut o = VecOracle::new(vec![vec![1.0], vec![2.0]]);
        assert_eq!(o.len(), 2);
        assert!(!o.is_empty());
        assert_eq!(o.runs(), 0);
        o.evaluate(0).unwrap();
        o.evaluate(1).unwrap();
        o.evaluate(0).unwrap();
        assert_eq!(o.runs(), 3);
        assert_eq!(o.table().len(), 2);
    }

    #[test]
    fn fallible_oracle_passes_errors_through_and_counts() {
        let mut o = FallibleOracle::new(|i| {
            if i == 0 {
                Ok(vec![1.0])
            } else {
                Err(EvalError::Crash {
                    detail: "boom".into(),
                })
            }
        });
        assert_eq!(o.evaluate(0).unwrap(), vec![1.0]);
        assert!(o.evaluate(1).is_err());
        // Failed attempts still count as tool runs.
        assert_eq!(o.runs(), 2);
        assert!(format!("{o:?}").contains("runs"));
    }

    #[test]
    fn vec_oracle_reports_out_of_range() {
        let mut o = VecOracle::new(vec![vec![1.0]]);
        let err = o.evaluate(5).unwrap_err();
        assert_eq!(err, EvalError::OutOfRange { index: 5, len: 1 }, "got {err}");
        assert!(!err.is_transient());
        // The failed call still counted as a run.
        assert_eq!(o.runs(), 1);
    }

    #[test]
    fn eval_error_display_kind_and_transience() {
        let cases: Vec<(EvalError, &str, bool)> = vec![
            (
                EvalError::Crash {
                    detail: "sig 9".into(),
                },
                "crash",
                true,
            ),
            (
                EvalError::Timeout {
                    stage: "route".into(),
                    elapsed_s: 12.5,
                },
                "timeout",
                true,
            ),
            (
                EvalError::InvalidQor {
                    detail: "NaN power".into(),
                },
                "invalid_qor",
                true,
            ),
            (
                EvalError::OutOfRange { index: 9, len: 3 },
                "out_of_range",
                false,
            ),
        ];
        for (e, kind, transient) in cases {
            assert_eq!(e.kind(), kind);
            assert_eq!(e.is_transient(), transient);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn shared_oracle_serializes_concurrent_callers() {
        let o = SharedOracle::new(VecOracle::new((0..64).map(|i| vec![i as f64]).collect()));
        std::thread::scope(|s| {
            for w in 0..4 {
                let o = &o;
                s.spawn(move || {
                    for i in (w..64).step_by(4) {
                        assert_eq!(o.evaluate(i).unwrap(), vec![i as f64]);
                    }
                });
            }
        });
        assert_eq!(o.runs(), 64);
        assert_eq!(o.into_inner().runs(), 64);
    }

    #[test]
    fn evaluate_at_defaults_to_index_lookup() {
        // Table oracles ignore the coordinates: same answer either way.
        let mut o = VecOracle::new(vec![vec![1.0], vec![2.0]]);
        assert_eq!(o.evaluate_at(1, &[0.123]).unwrap(), vec![2.0]);
        assert_eq!(o.runs(), 1);
        let shared = SharedOracle::new(VecOracle::new(vec![vec![5.0]]));
        assert_eq!(shared.evaluate_at(0, &[0.9]).unwrap(), vec![5.0]);
    }

    #[test]
    fn fn_oracle_evaluates_coordinates_and_counts() {
        let o = FnOracle::new(|x: &[f64]| vec![x[0] + x[1], x[0] * x[1]]);
        // Concurrent entry point (shared reference).
        assert_eq!(
            ConcurrentOracle::evaluate_at(&o, 99, &[2.0, 3.0]).unwrap(),
            vec![5.0, 6.0]
        );
        // The index-keyed path has no table to answer from.
        assert!(ConcurrentOracle::evaluate(&o, 0).is_err());
        assert_eq!(ConcurrentOracle::runs(&o), 2);
        assert!(format!("{o:?}").contains("runs"));
    }

    /// Hangs (well past any test deadline) on index 1, answers instantly
    /// elsewhere.
    struct HangOnOne {
        runs: std::sync::atomic::AtomicUsize,
    }

    impl ConcurrentOracle for HangOnOne {
        fn evaluate(&self, index: usize) -> Result<Vec<f64>, EvalError> {
            self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if index == 1 {
                std::thread::sleep(std::time::Duration::from_secs(5));
            }
            Ok(vec![index as f64])
        }

        fn runs(&self) -> usize {
            self.runs.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn watchdog_passes_fast_results_and_abandons_hung_ones() {
        let o = WatchdogOracle::new(
            HangOnOne {
                runs: std::sync::atomic::AtomicUsize::new(0),
            },
            0.05,
        );
        assert_eq!(o.deadline_s(), 0.05);
        assert_eq!(o.evaluate(0).unwrap(), vec![0.0]);
        assert_eq!(o.evaluate_at(2, &[0.5]).unwrap(), vec![2.0]);
        assert_eq!(o.fired(), 0);

        let err = o.evaluate(1).unwrap_err();
        // The reported timeout is the *configured* deadline under the
        // dedicated watchdog stage — fully deterministic, so it can live
        // in replay logs.
        assert_eq!(
            err,
            EvalError::Timeout {
                stage: WATCHDOG_STAGE.into(),
                elapsed_s: 0.05,
            },
            "got {err}"
        );
        assert!(err.is_transient());
        assert_eq!(o.fired(), 1);
        // Abandoned attempts still count as burned tool runs.
        assert_eq!(o.runs(), 3);
    }

    #[test]
    #[should_panic(expected = "watchdog deadline")]
    fn watchdog_rejects_nonpositive_deadline() {
        let _ = WatchdogOracle::new(
            HangOnOne {
                runs: std::sync::atomic::AtomicUsize::new(0),
            },
            0.0,
        );
    }

    #[test]
    fn eval_error_round_trips_through_json() {
        let e = EvalError::Timeout {
            stage: "cts".into(),
            elapsed_s: 3.5,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: EvalError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
