//! Workspace integration tests for checkpoint/resume: a run interrupted at
//! an arbitrary checkpoint and resumed from disk must finish with exactly
//! the same `TuneResult` as the uninterrupted run — fault-free or under
//! deterministic fault injection with a fresh oracle process.

use benchgen::Scenario;
use pdsim::ObjectiveSpace;
use ppatuner::{
    CheckpointStore, FileCheckpointStore, OracleRef, PpaTuner, PpaTunerConfig, QorOracle,
    SharedOracle, SourceData, TunerError, VecOracle,
};
use testkit::chaos::{assert_same_outcome, tool_fault_plan, CaptureStore, FaultyVecOracle};

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

/// The two oracle kinds the entry points accept.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `&mut VecOracle`: wave members run one at a time.
    Serial,
    /// `&SharedOracle`: every wave member runs on its own thread.
    Shared,
}

/// Calls `f` with a fresh oracle of `kind` over `truth`.
fn with_oracle<T>(kind: Kind, truth: &[Vec<f64>], f: impl FnOnce(OracleRef<'_>) -> T) -> T {
    match kind {
        Kind::Serial => f((&mut VecOracle::new(truth.to_vec())).into()),
        Kind::Shared => f((&SharedOracle::new(VecOracle::new(truth.to_vec()))).into()),
    }
}

/// Every checkpoint of a fault-free run is a valid crash point: resuming
/// from each — through an on-disk store, like a real restart would — lands
/// on the identical final result, for either oracle kind and for single
/// picks as well as waves of four.
#[test]
fn resume_from_every_checkpoint_matches_the_uninterrupted_run() {
    let s = setup();
    let dir = std::env::temp_dir().join(format!("ppatuner_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for q in [1, 4] {
        let config = PpaTunerConfig {
            batch_size: q,
            ..s.config.clone()
        };
        for kind in [Kind::Serial, Kind::Shared] {
            let label = format!("q={q} {kind:?}");
            let store = CaptureStore::default();
            let full = with_oracle(kind, &s.truth, |oracle| {
                PpaTuner::new(config.clone()).run_checkpointed(
                    &s.source,
                    &s.candidates,
                    oracle,
                    &obs::NULL_SINK,
                    &store,
                )
            })
            .unwrap_or_else(|e| panic!("{label}: uninterrupted run failed: {e}"));

            let checkpoints = store.checkpoints();
            assert!(
                checkpoints.len() >= 2,
                "{label}: run too short to exercise resume ({} checkpoints)",
                checkpoints.len()
            );
            for (k, ckpt) in checkpoints.iter().enumerate() {
                let file = FileCheckpointStore::new(dir.join(format!("crash_at_{q}_{k}.json")));
                file.save(ckpt).expect("checkpoint persists");
                let resumed = with_oracle(kind, &s.truth, |oracle| {
                    PpaTuner::new(config.clone()).resume(
                        &s.source,
                        &s.candidates,
                        oracle,
                        &obs::NULL_SINK,
                        &file,
                    )
                })
                .unwrap_or_else(|e| panic!("{label}: resume from checkpoint {k} failed: {e}"));
                assert_same_outcome(&full, &resumed, &format!("{label} checkpoint {k}"));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A run that exhausts `max_iterations` writes its last checkpoint at its
/// last iteration, so replay of that checkpoint drains after the loop. The
/// snapshot is verified there too: the same tampering is refused at the
/// first and at the last checkpoint.
#[test]
fn tampered_snapshots_are_refused_at_the_first_and_the_last_checkpoint() {
    let s = setup();
    let config = PpaTunerConfig {
        max_iterations: 5,
        ..s.config.clone()
    };
    let store = CaptureStore::default();
    let mut oracle = VecOracle::new(s.truth.clone());
    let full = PpaTuner::new(config.clone())
        .run_checkpointed(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &store,
        )
        .expect("uninterrupted run succeeds");
    assert_eq!(full.iterations, 5, "the run must exhaust its budget");

    let checkpoints = store.checkpoints();
    let last = checkpoints.last().expect("checkpoints written");
    assert_eq!(last.next_iteration, 5);
    for (label, ckpt) in [("first", &checkpoints[0]), ("last", last)] {
        let mut tampered = ckpt.clone();
        tampered.snapshot.runs += 1;
        tampered.snapshot.degraded_fits += 3;
        let crash_point = CaptureStore::default();
        crash_point.save(&tampered).unwrap();
        let mut oracle = VecOracle::new(s.truth.clone());
        let err = PpaTuner::new(config.clone())
            .resume(
                &s.source,
                &s.candidates,
                &mut oracle,
                &obs::NULL_SINK,
                &crash_point,
            )
            .expect_err("a tampered snapshot must be refused");
        assert!(
            matches!(err, TunerError::Checkpoint { .. }),
            "{label} checkpoint: unexpected error: {err}"
        );
    }
}

/// The snapshot pins the ε-PAL boxes, not just the statuses they imply:
/// a checkpoint whose only change is its regions digest, sealed afresh so
/// it loads cleanly, is refused once replay drains, with a reason that
/// names the regions.
#[test]
fn resume_refuses_a_checkpoint_whose_regions_digest_differs() {
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
        .expect("uninterrupted run succeeds");

    let checkpoints = store.checkpoints();
    let mut tampered = checkpoints[checkpoints.len() / 2].clone();
    tampered.snapshot.regions_digest ^= 1;
    let dir = std::env::temp_dir().join(format!("ppatuner_resume_regions_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = FileCheckpointStore::new(dir.join("tampered.json"));
    file.save(&tampered).expect("checkpoint persists");
    assert_eq!(
        file.load().expect("the re-sealed file loads"),
        Some(tampered)
    );

    let mut oracle = VecOracle::new(s.truth.clone());
    let err = PpaTuner::new(s.config.clone())
        .resume(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &file,
        )
        .expect_err("a changed regions digest must be refused");
    match err {
        TunerError::Checkpoint { reason } => {
            assert!(reason.contains("uncertainty regions diverged"), "{reason}")
        }
        other => panic!("unexpected error: {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoints land on iteration boundaries, so a log that ends inside a
/// wave is damaged or foreign: resume refuses it, through either oracle
/// kind, instead of going live in the middle of the wave.
#[test]
fn resume_refuses_a_log_that_ends_inside_a_wave() {
    let s = setup();
    let config = PpaTunerConfig {
        batch_size: 4,
        ..s.config.clone()
    };
    let store = CaptureStore::default();
    let mut oracle = VecOracle::new(s.truth.clone());
    PpaTuner::new(config.clone())
        .run_checkpointed(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &store,
        )
        .expect("uninterrupted run succeeds");

    let checkpoints = store.checkpoints();
    let mut cut = checkpoints[checkpoints.len() / 2].clone();
    let keep = cut.eval_log.len() - 2;
    cut.eval_log.truncate(keep);
    for kind in [Kind::Serial, Kind::Shared] {
        let crash_point = CaptureStore::default();
        crash_point.save(&cut).unwrap();
        let err = with_oracle(kind, &s.truth, |oracle| {
            PpaTuner::new(config.clone()).resume(
                &s.source,
                &s.candidates,
                oracle,
                &obs::NULL_SINK,
                &crash_point,
            )
        })
        .expect_err("a log cut inside a wave must be refused");
        match err {
            TunerError::Checkpoint { reason } => {
                assert!(reason.contains("replay divergence"), "{kind:?}: {reason}")
            }
            other => panic!("{kind:?}: unexpected error: {other}"),
        }
    }
}

/// A checkpoint whose log holds no attempt still reaches the drain check:
/// the log drains before the first wave, at iteration 0, so resume refuses
/// it before the oracle runs, instead of silently restarting the run live.
#[test]
fn resume_refuses_a_checkpoint_with_an_empty_log() {
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
        .expect("uninterrupted run succeeds");

    let checkpoints = store.checkpoints();
    let mut emptied = checkpoints[checkpoints.len() / 2].clone();
    assert!(emptied.next_iteration > 0 && !emptied.eval_log.is_empty());
    emptied.eval_log.clear();
    let crash_point = CaptureStore::default();
    crash_point.save(&emptied).unwrap();
    let mut fresh = VecOracle::new(s.truth.clone());
    let err = PpaTuner::new(s.config.clone())
        .resume(
            &s.source,
            &s.candidates,
            &mut fresh,
            &obs::NULL_SINK,
            &crash_point,
        )
        .expect_err("a checkpoint with an empty log must be refused");
    match err {
        TunerError::Checkpoint { reason } => assert_eq!(
            reason,
            format!(
                "replay drained at iteration 0, checkpoint expected {}",
                emptied.next_iteration
            )
        ),
        other => panic!("unexpected error: {other}"),
    }
    assert_eq!(
        fresh.runs(),
        0,
        "the oracle ran before the checkpoint was verified"
    );
}

/// Resume also replays through injected failures: a fresh faulty oracle
/// (attempt counters reset, as after a real process crash) regenerates the
/// same fault stream, and the resumed run matches the original exactly —
/// retries, quarantines, and all.
#[test]
fn resume_replays_faithfully_under_fault_injection() {
    let s = setup();
    let plan = tool_fault_plan();
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

    let checkpoints = store.checkpoints();
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
        assert_same_outcome(&full, &resumed, &format!("faulty checkpoint {k}"));
    }
}

/// Mid-run resume of a q-batch run through a concurrent oracle:
/// checkpoints land on whole batch boundaries, and resuming from any of
/// them replays the earlier waves silently, then re-emits the remaining
/// ones with the *same batch composition and span IDs* as the
/// uninterrupted run — the resumed trace's batch events are an exact
/// suffix of the full trace's. (That the results match is pinned by
/// `resume_from_every_checkpoint_matches_the_uninterrupted_run`.)
#[test]
fn concurrent_resume_replays_whole_batches_with_identical_spans() {
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
    PpaTuner::new(config.clone())
        .run_checkpointed(&s.source, &s.candidates, &oracle, &full_sink, &store)
        .expect("uninterrupted batch run succeeds");
    let full_shape = batch_shape(&full_sink.events());
    assert!(
        full_shape.iter().any(|l| l.starts_with("select")),
        "run never batch-selected: {full_shape:?}"
    );

    let checkpoints = store.checkpoints();
    assert!(checkpoints.len() >= 2);
    for (k, ckpt) in checkpoints.iter().enumerate() {
        let crash_point = CaptureStore::default();
        crash_point.save(ckpt).unwrap();
        let fresh = SharedOracle::new(VecOracle::new(s.truth.clone()));
        let resumed_sink = obs::RecordingSink::new();
        PpaTuner::new(config.clone())
            .resume(
                &s.source,
                &s.candidates,
                &fresh,
                &resumed_sink,
                &crash_point,
            )
            .unwrap_or_else(|e| panic!("batch resume from checkpoint {k} failed: {e}"));
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
    let checkpoints = store.checkpoints();
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
    assert_same_outcome(&full, &resumed, "workers 1 -> 4");

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
