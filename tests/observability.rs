//! End-to-end checks of the telemetry contract: a real (small) tuning run
//! observed through the recording sink emits a complete, consistent
//! trace, and an observer that is not `enabled()` receives no call at all.

use std::sync::atomic::{AtomicUsize, Ordering};

use obs::{Event, Observer, RecordingSink};
use ppatuner::{
    inject_fit_faults, FitFaultPlan, MemoryCheckpointStore, PpaTuner, PpaTunerConfig, SourceData,
    VecOracle,
};
use testkit::chaos::{tool_fault_plan, FaultyVecOracle};

#[test]
fn small_run_emits_a_complete_trace() {
    let scenario = benchgen::Scenario::two_with_counts(11, 160, 120);
    let space = pdsim::ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("source");
    let config = PpaTunerConfig {
        initial_samples: 12,
        max_iterations: 6,
        seed: 3,
        ..Default::default()
    };
    let mut oracle = VecOracle::new(scenario.target_table(space));

    let sink = RecordingSink::new();
    let result = PpaTuner::new(config)
        .run_observed(&source, &candidates, &mut oracle, &sink)
        .expect("tuning succeeds");
    assert!(
        result.iterations > 0,
        "run must iterate to exercise the trace"
    );

    let events = sink.events();
    assert_eq!(sink.count("RunStart"), 1);
    assert_eq!(sink.count("RunEnd"), 1);

    // Every iteration of Algorithm 1 contributes at least one GP fit (one
    // per objective), one tool evaluation, and exactly one IterationEnd.
    // The final iteration may classify every remaining candidate and stop
    // without selecting anything, so it alone is exempt from ToolEval.
    for t in 0..result.iterations {
        let of = |kind: &str| {
            events
                .iter()
                .filter(|e| e.kind() == kind && e.iteration() == Some(t))
                .count()
        };
        assert!(of("GpFit") >= 1, "iteration {t}: no GpFit event");
        if t + 1 < result.iterations {
            assert!(of("ToolEval") >= 1, "iteration {t}: no ToolEval event");
        }
        assert_eq!(of("IterationEnd"), 1, "iteration {t}: IterationEnd count");
    }

    // Trace totals match the result's accounting.
    assert_eq!(sink.count("IterationEnd"), result.history.len());
    assert_eq!(
        sink.count("ToolEval"),
        result.runs + result.verification_runs
    );

    // Causal spans: starts and ends pair up, and the tree covers the run,
    // every iteration, and every successful evaluation attempt.
    assert_eq!(sink.count("SpanStart"), sink.count("SpanEnd"));
    assert!(
        sink.count("SpanStart") >= 1 + result.iterations + result.runs + result.verification_runs,
        "span tree too sparse: {} spans",
        sink.count("SpanStart")
    );
    // One resource sample per iteration, with real work attributed to it.
    assert_eq!(sink.count("ResourceSample"), result.iterations);
    let busy = events.iter().any(|e| {
        matches!(e, Event::ResourceSample { chol_flops, kernel_assemblies, .. }
            if *chol_flops > 0 && *kernel_assemblies > 0)
    });
    assert!(busy, "no iteration recorded Cholesky/kernel work");

    // The trace is JSONL-serializable end to end.
    for e in &events {
        let line = serde_json::to_string(e).expect("event serializes");
        assert_eq!(serde_json::from_str::<Event>(&line).expect("parses"), *e);
    }
}

/// Counts every `emit` it receives; `enabled()` is fixed.
struct CountingObserver {
    enabled: bool,
    emits: AtomicUsize,
}

impl CountingObserver {
    fn new(enabled: bool) -> Self {
        CountingObserver {
            enabled,
            emits: AtomicUsize::new(0),
        }
    }
}

impl Observer for CountingObserver {
    fn emit(&self, _event: &Event) {
        self.emits.fetch_add(1, Ordering::Relaxed);
    }

    fn enabled(&self) -> bool {
        self.enabled
    }
}

/// Telemetry is free when turned off, as a law rather than a timing: over
/// full checkpointed runs at q = 1 and q = 4, through tool faults
/// (crashes, timeouts, NaN and outlier QoR, retries, quarantines) and
/// injected calibration faults (degraded fits), and over a resume from the
/// last checkpoint, an observer whose `enabled()` is false gets no `emit`
/// call. The same runs through an enabled observer do emit, and give the
/// same result.
#[test]
fn a_disabled_observer_receives_no_events() {
    let scenario = benchgen::Scenario::two_with_counts(9, 120, 100).with_source_budget(60);
    let space = pdsim::ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let truth = scenario.target_table(space);
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("source");
    let faults = tool_fault_plan();
    let fit_faults = FitFaultPlan {
        seed: 77,
        refit_fail: 0.5,
        fallback_fail: 0.3,
        condition_fail: 0.2,
    };
    for q in [1, 4] {
        let config = PpaTunerConfig {
            initial_samples: 10,
            max_iterations: 6,
            refit_every: 2,
            batch_size: q,
            max_eval_attempts: faults.flaky_max_failures + 2,
            degraded_fit_budget: 12,
            seed: testkit::test_seed(),
            workers: 2,
            ..Default::default()
        };
        let run = |observer: &CountingObserver| {
            let _armed = inject_fit_faults(fit_faults.clone());
            let store = MemoryCheckpointStore::new();
            let mut oracle = FaultyVecOracle::new(truth.clone(), faults.clone());
            let full = PpaTuner::new(config.clone())
                .run_checkpointed(&source, &candidates, &mut oracle, observer, &store)
                .expect("faulty run completes");
            let mut fresh = FaultyVecOracle::new(truth.clone(), faults.clone());
            let resumed = PpaTuner::new(config.clone())
                .resume(&source, &candidates, &mut fresh, observer, &store)
                .expect("resume completes");
            assert!(store.latest().is_some(), "q = {q}: no checkpoint written");
            (full, resumed)
        };

        let off = CountingObserver::new(false);
        let (full, resumed) = run(&off);
        assert!(full.eval_failures > 0, "q = {q}: no tool fault injected");
        assert!(
            full.degraded_fits > 0,
            "q = {q}: no calibration fault injected"
        );
        assert_eq!(full.pareto_indices, resumed.pareto_indices, "q = {q}");
        assert_eq!(off.emits.load(Ordering::Relaxed), 0, "q = {q}: emit calls");

        let on = CountingObserver::new(true);
        let (traced, _) = run(&on);
        assert!(on.emits.load(Ordering::Relaxed) > 0, "q = {q}: control");
        assert_eq!(traced.pareto_indices, full.pareto_indices, "q = {q}");
        assert_eq!(traced.runs, full.runs, "q = {q}");
    }
}

/// A selection is a batch at every q: on the q = 1 golden scenario every
/// `select` span carries exactly one `BatchSelect`, a one-member wave at
/// `q: 1` whose score is its diameter (the first pick is unpenalized).
#[test]
fn every_q1_selection_is_a_one_member_batch() {
    let events = testkit::trace::run_golden().events;
    let sink = RecordingSink::new();
    for e in &events {
        sink.emit(e);
    }
    let mut waves = 0;
    for (j, e) in events.iter().enumerate() {
        if !matches!(e, Event::SpanStart { name, .. } if name == "select") {
            continue;
        }
        waves += 1;
        match events.get(j + 1) {
            Some(Event::BatchSelect {
                q,
                chosen,
                diameters,
                scores,
                ..
            }) => {
                assert_eq!(*q, 1, "wave {waves}");
                assert_eq!(chosen.len(), 1, "wave {waves}");
                assert_eq!(scores, diameters, "wave {waves}");
            }
            other => panic!("select span {waves} holds {other:?}, not a BatchSelect"),
        }
    }
    assert!(waves >= 1, "the golden run never selected");
    assert_eq!(sink.count("BatchSelect"), waves);
}
