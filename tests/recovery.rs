//! Workspace integration tests for the robustness layer, on the golden
//! scenario and the committed fault plans: tool faults are retried,
//! quarantined and kept out of the front within the fault-free run's
//! hypervolume budget; calibration faults degrade lawfully and resume;
//! a checkpoint chain damaged at *any* byte of its newest entry still
//! recovers the last-good checkpoint and resumes to the fault-free golden
//! result; a crash after any save is a valid kill point; and neither a
//! hung oracle worker (turned by the watchdog into a deterministic
//! timeout) nor a degraded fit makes the trace depend on the worker count.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use benchgen::Scenario;
use obs::{Event, RecordingSink};
use pdsim::ObjectiveSpace;
use ppatuner::{
    inject_fit_faults, ChainCheckpointStore, Checkpoint, CheckpointStore, PpaTuner, PpaTunerConfig,
    SharedOracle, SourceData, TuneResult, VecOracle, WatchdogOracle,
};
use proptest::prelude::*;
use testkit::chaos::{
    assert_same_outcome, fit_fault_plan, tool_fault_plan, CaptureStore, FaultyVecOracle,
    HangingOracle,
};
use testkit::invariants;
use testkit::trace::{canonical_jsonl, golden_scenario, GoldenScenario};

/// The storage tests' fault-free reference, on a smaller scenario: one
/// checkpointed run, its golden result, and every checkpoint it saved,
/// computed once and shared by those tests.
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
        let checkpoints = store.checkpoints().clone();
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

/// The golden scenario's configuration for calibration faults: several
/// refit sites within the horizon, and enough budget that a 25 % plan
/// cannot plausibly exhaust it.
fn fit_fault_config(g: &GoldenScenario) -> PpaTunerConfig {
    PpaTunerConfig {
        refit_every: 5,
        degraded_fit_budget: 64,
        ..g.config.clone()
    }
}

/// A fault-free run of the golden scenario under `config`.
fn clean_run(g: &GoldenScenario, config: &PpaTunerConfig) -> TuneResult {
    let mut oracle = VecOracle::new(g.table.clone());
    PpaTuner::new(config.clone())
        .run(&g.source, &g.candidates, &mut oracle)
        .expect("fault-free run succeeds")
}

/// The hypervolume error of `result`'s front against the golden front.
fn hv_error(g: &GoldenScenario, result: &TuneResult) -> f64 {
    bench::score(&g.scenario, g.space, &result.pareto_indices, result.runs).hv_error
}

/// Whether `faulty`'s hypervolume error is within 1.05× of `clean`'s.
fn within_hv_budget(faulty: f64, clean: f64) -> bool {
    faulty.abs() <= clean.abs() * 1.05 + 1e-9
}

/// The committed tool-fault plan on the golden scenario: the run's trace
/// is lawful, crashes and invalid QoR both occur, transient faults are
/// retried, the always-failing candidates never produce an accepted
/// evaluation, no quarantined candidate reaches the (non-empty) front,
/// and the hypervolume error stays within 1.05× of the fault-free run's.
#[test]
fn committed_tool_fault_plan_is_contained_within_the_hypervolume_budget() {
    let g = golden_scenario();
    let plan = tool_fault_plan();
    let config = PpaTunerConfig {
        // Exceeds the plan's flaky bound, so transient faults recover
        // within one selection instead of quarantining half the space.
        max_eval_attempts: plan.flaky_max_failures + 2,
        ..g.config.clone()
    };
    let clean = clean_run(&g, &config);
    let sink = RecordingSink::new();
    let mut oracle = FaultyVecOracle::new(g.table.clone(), plan.clone());
    let faulty = PpaTuner::new(config)
        .run_observed(&g.source, &g.candidates, &mut oracle, &sink)
        .expect("the run completes despite injected failures");
    let events = sink.events();
    let report = invariants::check_trace(&events, Some(&g.table))
        .unwrap_or_else(|e| panic!("tool-fault trace violates an invariant: {e}"));
    let kinds: BTreeSet<&str> = events
        .iter()
        .filter_map(|e| match e {
            Event::EvalFailed { kind, .. } => Some(kind.as_str()),
            _ => None,
        })
        .collect();
    let (clean_hv, faulty_hv) = (hv_error(&g, &clean), hv_error(&g, &faulty));
    println!(
        "tool faults: {} snapshots, {} selects, {} accepted evals, {} failures \
         ({} retries), {} quarantines; kinds {kinds:?}; hv error clean {clean_hv:.6}, \
         faulty {faulty_hv:.6}; runs clean {} faulty {}",
        report.snapshots,
        report.selects,
        report.tool_evals,
        report.eval_failures,
        faulty.eval_retries,
        report.quarantines,
        clean.runs,
        faulty.runs
    );
    for wanted in ["crash", "invalid_qor"] {
        assert!(kinds.contains(wanted), "no '{wanted}' failure: {kinds:?}");
    }
    assert!(faulty.eval_failures > 0, "the plan injected no failure");
    assert!(
        faulty.eval_retries > 0,
        "no retry recovered a transient fault"
    );
    for q in &faulty.quarantined {
        assert!(
            !faulty.pareto_indices.contains(q),
            "quarantined candidate {q} reached the front"
        );
    }
    for hard in &plan.always_fail {
        assert!(
            faulty.evaluated.iter().all(|(i, _)| i != hard),
            "always-failing candidate {hard} has an accepted evaluation"
        );
    }
    assert!(
        !faulty.pareto_indices.is_empty(),
        "nothing classified Pareto"
    );
    assert!(
        within_hv_budget(faulty_hv, clean_hv),
        "tool-fault hv error {faulty_hv} exceeds 1.05x the fault-free {clean_hv}"
    );
}

/// The committed calibration-fault plan on the golden scenario: fits
/// degrade, the trace stays lawful, the hypervolume error stays within
/// 1.05× of the fault-free run's, and a restart from the first checkpoint
/// that recorded a degraded fit, through an on-disk chain with the plan
/// re-armed, reproduces the run.
#[test]
fn committed_fit_fault_plan_degrades_lawfully_and_resumes() {
    let g = golden_scenario();
    let config = fit_fault_config(&g);
    let clean = clean_run(&g, &config);
    let sink = RecordingSink::new();
    let store = CaptureStore::default();
    let degraded = {
        let _armed = inject_fit_faults(fit_fault_plan());
        let mut oracle = VecOracle::new(g.table.clone());
        PpaTuner::new(config.clone())
            .run_checkpointed(&g.source, &g.candidates, &mut oracle, &sink, &store)
            .expect("the degraded run completes within budget")
    };
    let report = invariants::check_trace(&sink.events(), Some(&g.table))
        .unwrap_or_else(|e| panic!("degraded trace violates an invariant: {e}"));
    let (clean_hv, degraded_hv) = (hv_error(&g, &clean), hv_error(&g, &degraded));
    println!(
        "fit faults: {} degraded fits, {} snapshots, {} accepted evals; \
         hv error clean {clean_hv:.6}, degraded {degraded_hv:.6}",
        degraded.degraded_fits, report.snapshots, report.tool_evals
    );
    assert!(degraded.degraded_fits > 0, "the plan injected no fit fault");
    assert!(
        within_hv_budget(degraded_hv, clean_hv),
        "degraded hv error {degraded_hv} exceeds 1.05x the fault-free {clean_hv}"
    );

    let checkpoints = store.checkpoints();
    let first = checkpoints
        .iter()
        .find(|c| c.snapshot.degraded_fits > 0)
        .expect("a checkpoint recorded a degraded fit");
    let dir = scratch_dir("degraded_resume");
    let chain = ChainCheckpointStore::new(&dir, 2);
    chain.save(first).expect("chain save");
    let resumed = {
        let _armed = inject_fit_faults(fit_fault_plan());
        let mut oracle = VecOracle::new(g.table.clone());
        PpaTuner::new(config).resume(
            &g.source,
            &g.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &chain,
        )
    };
    std::fs::remove_dir_all(&dir).ok();
    let resumed = resumed.expect("resume from the first degraded checkpoint");
    assert_same_outcome(&degraded, &resumed, "degraded resume");
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
        assert_same_outcome(&f.golden, &resumed, &format!("kill point {k}"));
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

/// Faults inside q = 4 waves leave no trace of the worker count. With
/// every candidate's first attempt stalled past the watchdog deadline,
/// each stall becomes a deterministic timeout and the retry succeeds; with
/// the committed calibration-fault plan armed, fits degrade. Either way
/// the outcome and the canonical trace, watchdog firings and degraded
/// fits included, are byte-identical whether the loop's fan-outs ran on
/// one worker or four.
#[test]
fn faulty_waves_are_worker_count_invariant() {
    let g = golden_scenario();
    for watchdog in [true, false] {
        let label = if watchdog { "watchdog" } else { "fit faults" };
        let run = |workers: usize| {
            let sink = RecordingSink::new();
            let result = if watchdog {
                let config = PpaTunerConfig {
                    max_eval_attempts: 3,
                    batch_size: 4,
                    workers,
                    ..g.config.clone()
                };
                let hangs: Vec<(usize, usize)> = (0..g.table.len()).map(|i| (i, 1)).collect();
                let oracle =
                    WatchdogOracle::new(HangingOracle::new(g.table.clone(), hangs, 5.0), 0.05);
                PpaTuner::new(config).run_observed(&g.source, &g.candidates, &oracle, &sink)
            } else {
                let config = PpaTunerConfig {
                    batch_size: 4,
                    workers,
                    ..fit_fault_config(&g)
                };
                let _armed = inject_fit_faults(fit_fault_plan());
                let oracle = SharedOracle::new(VecOracle::new(g.table.clone()));
                PpaTuner::new(config).run_observed(&g.source, &g.candidates, &oracle, &sink)
            };
            let result = result.unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
            (result, sink.events())
        };

        let (serial, serial_events) = run(1);
        let (wide, wide_events) = run(4);
        assert_same_outcome(&serial, &wide, &format!("{label}: worker counts"));
        assert_eq!(
            canonical_jsonl(&serial_events),
            canonical_jsonl(&wide_events),
            "{label}: canonical traces must not depend on the worker count"
        );
        let report = invariants::check_trace(&serial_events, Some(&g.table))
            .unwrap_or_else(|e| panic!("{label}: trace violates an invariant: {e}"));
        if !watchdog {
            println!(
                "fit faults at q = 4: {} degraded fits",
                serial.degraded_fits
            );
            assert!(serial.degraded_fits > 0, "the plan injected no fit fault");
            continue;
        }
        assert!(
            serial.eval_failures > 0,
            "every candidate hangs once; failures must be visible"
        );
        let fired = serial_events
            .iter()
            .filter(|e| matches!(e, Event::WatchdogFired { .. }))
            .count();
        println!(
            "watchdog: {fired} firings over {} failures, {} runs",
            serial.eval_failures, serial.runs
        );
        assert!(fired > 0, "the watchdog never fired");
        assert_eq!(
            fired, serial.eval_failures,
            "each failure here is a watchdog timeout"
        );
        for e in &serial_events {
            if let Event::WatchdogFired { deadline_s, .. } = e {
                assert_eq!(*deadline_s, 0.05, "deadline is configured, not measured");
            }
        }
        assert_eq!(report.watchdog_firings, fired);
    }
}
