//! Workspace integration tests for the degraded-mode run supervisor's
//! storage and liveness domains: a checkpoint chain damaged at *any* byte
//! of its newest entry still recovers the last-good checkpoint and
//! resumes to the fault-free golden result, a crash after any save is a
//! valid kill point, and a hung oracle worker is converted by the
//! watchdog into a deterministic timeout whose trace does not depend on
//! the worker count.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use benchgen::Scenario;
use pdsim::ObjectiveSpace;
use ppatuner::{
    ChainCheckpointStore, Checkpoint, CheckpointError, CheckpointStore, PpaTuner, PpaTunerConfig,
    SourceData, TuneResult, VecOracle, WatchdogOracle,
};
use proptest::prelude::*;
use testkit::chaos::HangingOracle;
use testkit::trace::canonical_jsonl;

/// Records every checkpoint the tuner writes, so tests can replay the
/// save sequence into fresh on-disk chains and crash anywhere.
#[derive(Default)]
struct CaptureStore {
    all: RefCell<Vec<Checkpoint>>,
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

/// The fault-free reference: one checkpointed run, its golden result, and
/// every checkpoint it saved, computed once and shared by all tests.
struct Fixture {
    candidates: Vec<Vec<f64>>,
    truth: Vec<Vec<f64>>,
    source: SourceData,
    config: PpaTunerConfig,
    golden: TuneResult,
    checkpoints: Vec<Checkpoint>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let scenario = Scenario::two_with_counts(9, 90, 70).with_source_budget(50);
        let space = ObjectiveSpace::PowerDelay;
        let (sx, sy) = scenario.source_xy(space);
        let candidates = scenario.target_candidates();
        let truth = scenario.target_table(space);
        let source = SourceData::new(sx, sy).expect("scenario source data");
        let config = PpaTunerConfig {
            initial_samples: 8,
            max_iterations: 12,
            seed: testkit::test_seed(),
            workers: 1,
            ..Default::default()
        };
        let store = CaptureStore::default();
        let mut oracle = VecOracle::new(truth.clone());
        let golden = PpaTuner::new(config.clone())
            .run_checkpointed(&source, &candidates, &mut oracle, &obs::NULL_SINK, &store)
            .expect("fault-free run succeeds");
        let checkpoints = store.all.into_inner();
        assert!(
            checkpoints.len() >= 3,
            "run too short to exercise the chain ({} checkpoints)",
            checkpoints.len()
        );
        Fixture {
            candidates,
            truth,
            source,
            config,
            golden,
            checkpoints,
        }
    })
}

/// A unique scratch directory per call, removed by the caller.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ppatuner_recovery_{tag}_{}_{n}",
        std::process::id()
    ))
}

fn assert_identical(full: &TuneResult, resumed: &TuneResult, label: &str) {
    assert_eq!(
        resumed.pareto_indices, full.pareto_indices,
        "{label}: front"
    );
    assert_eq!(resumed.evaluated, full.evaluated, "{label}: evaluated set");
    assert_eq!(resumed.runs, full.runs, "{label}: runs");
    assert_eq!(resumed.iterations, full.iterations, "{label}: iterations");
    assert_eq!(resumed.delta, full.delta, "{label}: final delta");
    assert_eq!(
        resumed.degraded_fits, full.degraded_fits,
        "{label}: degraded fits"
    );
    assert_eq!(
        (resumed.eval_failures, resumed.eval_retries),
        (full.eval_failures, full.eval_retries),
        "{label}: failure counters"
    );
}

/// Truncating the newest chain entry at every byte boundary — a torn
/// write frozen at any point of the save — always recovers the previous
/// checkpoint, and reports exactly one skipped entry. Exhaustive, not
/// sampled: the digest and the parser must have no lucky prefix.
#[test]
fn every_byte_truncation_recovers_the_last_good_checkpoint() {
    let f = fixture();
    let dir = scratch_dir("truncate");
    let chain = ChainCheckpointStore::new(&dir, 4);
    let n = f.checkpoints.len();
    for c in &f.checkpoints {
        chain.save(c).expect("chain save");
    }
    let newest = dir.join(format!("ckpt-{:08}.json", n - 1));
    let bytes = std::fs::read(&newest).expect("newest entry readable");
    let last_good = &f.checkpoints[n - 2];

    // Untruncated baseline: the newest entry itself is recovered cleanly.
    let clean = chain.recover().expect("clean recover");
    assert_eq!(clean.skipped, 0);
    assert_eq!(
        clean.checkpoint.as_ref().map(Checkpoint::content_digest),
        Some(f.checkpoints[n - 1].content_digest())
    );

    for cut in 0..bytes.len() {
        std::fs::write(&newest, &bytes[..cut]).expect("truncate entry");
        let recovery = chain
            .recover()
            .unwrap_or_else(|e| panic!("recover after cut at byte {cut} failed: {e}"));
        assert_eq!(recovery.skipped, 1, "cut at byte {cut}: skipped");
        assert_eq!(recovery.scanned, 2, "cut at byte {cut}: scanned");
        let got = recovery
            .checkpoint
            .unwrap_or_else(|| panic!("cut at byte {cut}: no checkpoint recovered"));
        assert_eq!(
            got.content_digest(),
            last_good.content_digest(),
            "cut at byte {cut}: recovered the wrong checkpoint"
        );
        assert_eq!(got.next_iteration, last_good.next_iteration);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash after any checkpoint save is a valid kill point: replaying the
/// save prefix into a fresh on-disk chain and resuming from it lands on
/// the golden result, bit for bit.
#[test]
fn chain_resume_from_every_kill_point_matches_the_golden_run() {
    let f = fixture();
    for k in 0..f.checkpoints.len() {
        let dir = scratch_dir("killpoint");
        let chain = ChainCheckpointStore::new(&dir, 3);
        for c in &f.checkpoints[..=k] {
            chain.save(c).expect("chain save");
        }
        let mut oracle = VecOracle::new(f.truth.clone());
        let resumed = PpaTuner::new(f.config.clone())
            .resume(
                &f.source,
                &f.candidates,
                &mut oracle,
                &obs::NULL_SINK,
                &chain,
            )
            .unwrap_or_else(|e| panic!("resume from kill point {k} failed: {e}"));
        assert_identical(&f.golden, &resumed, &format!("kill point {k}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Resume through a torn newest entry: recovery scans back to the
    /// last-good checkpoint, announces the scan as a `RecoveryScan`
    /// trace event, and the resumed run still reproduces the golden
    /// result exactly.
    #[test]
    fn truncated_chain_still_resumes_to_the_golden_result(cut in 0usize..1 << 20) {
        let f = fixture();
        let dir = scratch_dir("resume");
        let chain = ChainCheckpointStore::new(&dir, 4);
        let n = f.checkpoints.len();
        for c in &f.checkpoints {
            chain.save(c).expect("chain save");
        }
        let newest = dir.join(format!("ckpt-{:08}.json", n - 1));
        let bytes = std::fs::read(&newest).expect("newest entry readable");
        let cut = cut % bytes.len();
        std::fs::write(&newest, &bytes[..cut]).expect("truncate entry");

        let sink = obs::RecordingSink::new();
        let mut oracle = VecOracle::new(f.truth.clone());
        let resumed = PpaTuner::new(f.config.clone())
            .resume(&f.source, &f.candidates, &mut oracle, &sink, &chain)
            .expect("resume through the torn entry");
        std::fs::remove_dir_all(&dir).ok();

        prop_assert_eq!(&resumed.pareto_indices, &f.golden.pareto_indices);
        prop_assert_eq!(resumed.runs, f.golden.runs);
        prop_assert_eq!(resumed.iterations, f.golden.iterations);
        prop_assert_eq!(sink.count("RecoveryScan"), 1, "cut at byte {}", cut);
        let scan_ok = sink.events().iter().any(|e| matches!(
            e,
            obs::Event::RecoveryScan { scanned: 2, skipped: 1, .. }
        ));
        prop_assert!(scan_ok, "RecoveryScan must report the one skipped entry");
    }
}

/// A hung worker becomes a deterministic watchdog timeout: every first
/// attempt stalls past the deadline, the watchdog converts each stall
/// into `EvalError::Timeout`, the retry succeeds, and the canonical
/// trace — watchdog firings included — is byte-identical whether the
/// loop's fan-outs ran on one worker or four.
#[test]
fn watchdog_timeouts_are_worker_count_invariant() {
    // The golden batch scenario — the one configuration the invariant
    // checker is proven against (`run_golden_batch`) — with every
    // candidate's first attempt stalled past the deadline.
    let scenario = Scenario::two_with_counts(9, 120, 100).with_source_budget(60);
    let space = ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let truth = scenario.target_table(space);
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("golden scenario source data");
    let run = |workers: usize| {
        let config = PpaTunerConfig {
            initial_samples: 10,
            max_iterations: 20,
            tau: 3.0, // matches run_golden; see the comment there
            max_eval_attempts: 3,
            seed: testkit::test_seed(),
            batch_size: 4,
            workers,
            ..Default::default()
        };
        let hangs: Vec<(usize, usize)> = (0..truth.len()).map(|i| (i, 1)).collect();
        let oracle = WatchdogOracle::new(HangingOracle::new(truth.clone(), hangs, 5.0), 0.05);
        let sink = obs::RecordingSink::new();
        let result = PpaTuner::new(config)
            .run_observed(&source, &candidates, &oracle, &sink)
            .expect("watchdogged run completes");
        (result, sink.events())
    };

    let (serial, serial_events) = run(1);
    let (wide, wide_events) = run(4);
    assert_identical(&serial, &wide, "worker counts");
    assert!(
        serial.eval_failures > 0,
        "every candidate hangs once; failures must be visible"
    );

    let fired = serial_events
        .iter()
        .filter(|e| matches!(e, obs::Event::WatchdogFired { .. }))
        .count();
    assert!(fired > 0, "the watchdog never fired");
    assert_eq!(
        fired, serial.eval_failures,
        "each failure here is a watchdog timeout"
    );
    for e in &serial_events {
        if let obs::Event::WatchdogFired { deadline_s, .. } = e {
            assert_eq!(*deadline_s, 0.05, "deadline is configured, not measured");
        }
    }

    let report = testkit::invariants::check_trace(&serial_events, Some(&truth))
        .expect("watchdogged trace is lawful");
    assert_eq!(report.watchdog_firings, fired);

    assert_eq!(
        canonical_jsonl(&serial_events),
        canonical_jsonl(&wide_events),
        "canonical traces must not depend on the worker count"
    );
}
