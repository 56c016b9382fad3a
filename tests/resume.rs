//! Workspace integration tests for checkpoint/resume: a run interrupted at
//! an arbitrary checkpoint and resumed from disk must finish with exactly
//! the same `TuneResult` as the uninterrupted run — fault-free or under
//! deterministic fault injection with a fresh oracle process.

use std::cell::RefCell;

use benchgen::Scenario;
use pdsim::{FaultPlan, ObjectiveSpace};
use ppatuner::{
    Checkpoint, CheckpointError, CheckpointStore, FileCheckpointStore, PpaTuner, PpaTunerConfig,
    SourceData, TuneResult, VecOracle,
};
use testkit::chaos::FaultyVecOracle;

/// Records every checkpoint the tuner writes so tests can simulate a crash
/// at any boundary, not just the last one.
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

struct Setup {
    candidates: Vec<Vec<f64>>,
    truth: Vec<Vec<f64>>,
    source: SourceData,
    config: PpaTunerConfig,
}

fn setup() -> Setup {
    let scenario = Scenario::two_with_counts(9, 120, 100).with_source_budget(60);
    let space = ObjectiveSpace::PowerDelay;
    let (sx, sy) = scenario.source_xy(space);
    Setup {
        candidates: scenario.target_candidates(),
        truth: scenario.target_table(space),
        source: SourceData::new(sx, sy).expect("scenario source data"),
        config: PpaTunerConfig {
            initial_samples: 10,
            max_iterations: 15,
            seed: testkit::test_seed(),
            workers: 1,
            ..Default::default()
        },
    }
}

fn assert_identical(full: &TuneResult, resumed: &TuneResult, label: &str) {
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
        (resumed.eval_failures, resumed.eval_retries),
        (full.eval_failures, full.eval_retries),
        "{label}: failure counters"
    );
    // History rows carry wall-clock timings; compare the structural part.
    let shape = |r: &TuneResult| -> Vec<(usize, usize, usize, usize, usize, usize)> {
        r.history
            .iter()
            .map(|h| {
                (
                    h.iteration,
                    h.undecided,
                    h.pareto,
                    h.dropped,
                    h.quarantined,
                    h.runs,
                )
            })
            .collect()
    };
    assert_eq!(shape(resumed), shape(full), "{label}: iteration history");
}

/// Every checkpoint of a fault-free run is a valid crash point: resuming
/// from each — through an on-disk store, like a real restart would — lands
/// on the identical final result.
#[test]
fn resume_from_every_checkpoint_matches_the_uninterrupted_run() {
    let s = setup();
    let store = CaptureStore::default();
    let mut oracle = VecOracle::new(s.truth.clone());
    let full = PpaTuner::new(s.config.clone())
        .run_checkpointed(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &store,
        )
        .expect("uninterrupted run succeeds");

    let checkpoints = store.all.borrow();
    assert!(
        checkpoints.len() >= 2,
        "run too short to exercise resume ({} checkpoints)",
        checkpoints.len()
    );
    let dir = std::env::temp_dir().join(format!("ppatuner_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (k, ckpt) in checkpoints.iter().enumerate() {
        let file = FileCheckpointStore::new(dir.join(format!("crash_at_{k}.json")));
        file.save(ckpt).expect("checkpoint persists");
        let mut oracle = VecOracle::new(s.truth.clone());
        let resumed = PpaTuner::new(s.config.clone())
            .resume(
                &s.source,
                &s.candidates,
                &mut oracle,
                &obs::NULL_SINK,
                &file,
            )
            .unwrap_or_else(|e| panic!("resume from checkpoint {k} failed: {e}"));
        assert_identical(&full, &resumed, &format!("checkpoint {k}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Resume also replays through injected failures: a fresh faulty oracle
/// (attempt counters reset, as after a real process crash) regenerates the
/// same fault stream, and the resumed run matches the original exactly —
/// retries, quarantines, and all.
#[test]
fn resume_replays_faithfully_under_fault_injection() {
    let s = setup();
    let plan = FaultPlan {
        seed: 1009,
        crash_prob: 0.12,
        timeout_prob: 0.06,
        nan_prob: 0.04,
        outlier_prob: 0.03,
        flaky_max_failures: 2,
        always_fail: vec![27, 56],
        ..FaultPlan::default()
    };
    let config = PpaTunerConfig {
        max_eval_attempts: plan.flaky_max_failures + 2,
        ..s.config.clone()
    };

    let store = CaptureStore::default();
    let mut oracle = FaultyVecOracle::new(s.truth.clone(), plan.clone());
    let full = PpaTuner::new(config.clone())
        .run_checkpointed(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &store,
        )
        .expect("chaotic run completes");
    assert!(full.eval_failures > 0, "the plan should have injected");

    let checkpoints = store.all.borrow();
    assert!(checkpoints.len() >= 2);
    for k in [0, checkpoints.len() / 2, checkpoints.len() - 1] {
        let crash_point = CaptureStore::default();
        crash_point.save(&checkpoints[k]).unwrap();
        let mut fresh = FaultyVecOracle::new(s.truth.clone(), plan.clone());
        let resumed = PpaTuner::new(config.clone())
            .resume(
                &s.source,
                &s.candidates,
                &mut fresh,
                &obs::NULL_SINK,
                &crash_point,
            )
            .unwrap_or_else(|e| panic!("faulty resume from checkpoint {k} failed: {e}"));
        assert_identical(&full, &resumed, &format!("faulty checkpoint {k}"));
    }
}

/// Mid-run resume of a q-batch concurrent run: checkpoints land on whole
/// batch boundaries, and resuming from any of them replays the earlier
/// waves silently, then re-emits the remaining ones with the *same batch
/// composition and span IDs* as the uninterrupted run — the resumed
/// trace's batch events are an exact suffix of the full trace's.
#[test]
fn concurrent_resume_replays_whole_batches_with_identical_spans() {
    use ppatuner::SharedOracle;

    let s = setup();
    let config = PpaTunerConfig {
        batch_size: 4,
        ..s.config.clone()
    };
    // Only the events that pin batch structure: which members each wave
    // took, and the causal span IDs of the fan-out.
    let batch_shape = |events: &[obs::Event]| -> Vec<String> {
        events
            .iter()
            .filter_map(|e| match e {
                obs::Event::BatchSelect {
                    iteration,
                    q,
                    chosen,
                    ..
                } => Some(format!("select it={iteration} q={q} chosen={chosen:?}")),
                obs::Event::SpanStart { id, parent, name }
                    if name == "batch_eval" || name == "eval_attempt" =>
                {
                    Some(format!("span {name} id={id} parent={parent:?}"))
                }
                _ => None,
            })
            .collect()
    };

    let store = CaptureStore::default();
    let oracle = SharedOracle::new(VecOracle::new(s.truth.clone()));
    let full_sink = obs::RecordingSink::new();
    let full = PpaTuner::new(config.clone())
        .run_concurrent_checkpointed(&s.source, &s.candidates, &oracle, &full_sink, &store)
        .expect("uninterrupted batch run succeeds");
    let full_shape = batch_shape(&full_sink.events());
    assert!(
        full_shape.iter().any(|l| l.starts_with("select")),
        "run never batch-selected: {full_shape:?}"
    );

    let checkpoints = store.all.borrow();
    assert!(checkpoints.len() >= 2);
    for (k, ckpt) in checkpoints.iter().enumerate() {
        let crash_point = CaptureStore::default();
        crash_point.save(ckpt).unwrap();
        let fresh = SharedOracle::new(VecOracle::new(s.truth.clone()));
        let resumed_sink = obs::RecordingSink::new();
        let resumed = PpaTuner::new(config.clone())
            .resume_concurrent(
                &s.source,
                &s.candidates,
                &fresh,
                &resumed_sink,
                &crash_point,
            )
            .unwrap_or_else(|e| panic!("batch resume from checkpoint {k} failed: {e}"));
        assert_identical(&full, &resumed, &format!("batch checkpoint {k}"));
        let resumed_shape = batch_shape(&resumed_sink.events());
        assert!(
            resumed_shape.len() <= full_shape.len(),
            "checkpoint {k}: resumed trace has extra batch events"
        );
        assert_eq!(
            resumed_shape.as_slice(),
            &full_shape[full_shape.len() - resumed_shape.len()..],
            "checkpoint {k}: resumed batch events are not a suffix of the full trace"
        );
    }
}

/// The `workers` budget never changes a result, so a run checkpointed on
/// one thread resumes on four — to the identical result. A checkpoint in
/// the previous format (version 1, with the retired thread settings) is
/// refused with a version error, not mistaken for a torn write.
#[test]
fn resume_accepts_another_worker_count_and_refuses_old_versions() {
    let s = setup();
    let store = CaptureStore::default();
    let mut oracle = VecOracle::new(s.truth.clone());
    let full = PpaTuner::new(s.config.clone())
        .run_checkpointed(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &store,
        )
        .expect("uninterrupted run succeeds");
    let checkpoints = store.all.borrow();
    let mid = &checkpoints[checkpoints.len() / 2];
    assert_eq!(mid.config.workers, 1);

    let dir = std::env::temp_dir().join(format!("ppatuner_resume_workers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = FileCheckpointStore::new(dir.join("mid.json"));
    file.save(mid).expect("checkpoint persists");
    let wide = PpaTunerConfig {
        workers: 4,
        ..s.config.clone()
    };
    let mut oracle = VecOracle::new(s.truth.clone());
    let resumed = PpaTuner::new(wide.clone())
        .resume(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &file,
        )
        .expect("resume at another worker count succeeds");
    assert_identical(&full, &resumed, "workers 1 -> 4");

    let v1 = std::fs::read_to_string(file.path())
        .expect("checkpoint file")
        .replace(
            &format!("\"version\":{}", ppatuner::CHECKPOINT_VERSION),
            "\"version\":1",
        )
        .replace(
            "\"workers\":1",
            "\"threads\":1,\"eval_workers\":1,\"predict_block\":256,\"predict_workers\":0",
        );
    std::fs::write(file.path(), v1).expect("rewrite as version 1");
    let mut oracle = VecOracle::new(s.truth.clone());
    let err = PpaTuner::new(wide)
        .resume(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &file,
        )
        .expect_err("a version-1 checkpoint must be refused");
    let msg = err.to_string();
    assert!(msg.contains("version 1 unsupported"), "{msg}");
    assert!(!msg.contains("torn"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint from a different configuration (different seed, so a
/// different config digest) is refused instead of silently producing a
/// diverged run.
#[test]
fn resume_refuses_a_checkpoint_from_another_run() {
    let s = setup();
    let store = CaptureStore::default();
    let mut oracle = VecOracle::new(s.truth.clone());
    PpaTuner::new(s.config.clone())
        .run_checkpointed(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &store,
        )
        .expect("run succeeds");

    let other = PpaTunerConfig {
        seed: s.config.seed + 1,
        ..s.config.clone()
    };
    let mut oracle = VecOracle::new(s.truth.clone());
    let err = PpaTuner::new(other)
        .resume(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &store,
        )
        .expect_err("foreign checkpoint must be rejected");
    assert!(
        matches!(err, ppatuner::TunerError::Checkpoint { .. }),
        "unexpected error: {err}"
    );
}
