//! Golden-trace replay: the deterministic reference scenario must emit a
//! byte-identical canonical event stream, and that stream must satisfy
//! every algorithmic invariant.
//!
//! Regenerate the committed snapshot after an intentional behavior change
//! with `TESTKIT_BLESS=1 cargo test -p testkit` and commit the diff.

use testkit::invariants::check_trace;
use testkit::trace::{
    canonical_jsonl, check_or_bless, run_golden, run_golden_batch, run_golden_pool,
    run_golden_serial_batch, run_golden_with_workers,
};

#[test]
fn golden_scenario_trace_is_stable() {
    let run = run_golden();
    check_or_bless("scenario_two_seeded.jsonl", &canonical_jsonl(&run.events));
}

#[test]
fn golden_scenario_trace_satisfies_invariants() {
    let run = run_golden();
    let report = check_trace(&run.events, Some(&run.table)).expect("invariants hold");
    // The run must actually exercise the laws, not vacuously pass.
    assert!(report.snapshots >= 2, "too few snapshots: {report:?}");
    assert!(report.selects >= 1, "no selection checked: {report:?}");
    assert!(report.tool_evals >= 10, "too few evaluations: {report:?}");
    assert!(
        report.pareto_checked >= 1,
        "no Pareto classification checked: {report:?}"
    );
    // The causal span tree must be present and closed: at least the run
    // span, one iteration span with its gp_fit/classify children, and one
    // eval_attempt per tool run.
    assert!(report.spans >= 4, "too few spans checked: {report:?}");
    assert!(
        report.spans > report.tool_evals,
        "spans must cover more than eval attempts: {report:?}"
    );
    // The trace's final accounting matches the result the caller gets.
    assert_eq!(
        report.tool_evals,
        run.result.runs + run.result.verification_runs
    );
}

#[test]
fn golden_run_is_reproducible_within_process() {
    // Two runs in the same process must produce identical canonical
    // traces; this is the precondition for the cross-run golden diff.
    let a = canonical_jsonl(&run_golden().events);
    let b = canonical_jsonl(&run_golden().events);
    assert_eq!(a, b, "golden scenario is not deterministic");
}

#[test]
fn golden_trace_is_worker_count_invariant() {
    // Restart starts are pre-drawn from the sequential RNG stream and
    // batched prediction is chunk-invariant, so the parallel fitting and
    // prediction paths must replay the golden scenario event-for-event.
    let single = canonical_jsonl(&run_golden_with_workers(1).events);
    for workers in [2, 4, 8] {
        let multi = canonical_jsonl(&run_golden_with_workers(workers).events);
        assert_eq!(
            single, multi,
            "workers = {workers} changed the golden scenario's trace"
        );
    }
}

#[test]
fn batch_q1_trace_is_byte_identical_to_the_serial_golden() {
    // The q = 1 concurrent path must reproduce the committed serial
    // golden *exactly*: no batch_eval spans, legacy Select events, same
    // bytes. Compared directly against the in-memory serial run (not via
    // check_or_bless), so a bless can never paper over a divergence.
    let serial = canonical_jsonl(&run_golden().events);
    let batch = canonical_jsonl(&run_golden_batch(1, 4).events);
    assert_eq!(
        serial, batch,
        "q = 1 through the concurrent wave machinery drifted from the serial trace"
    );
}

#[test]
fn golden_batch_q2_trace_is_stable() {
    let run = run_golden_batch(2, 2);
    check_or_bless(
        "scenario_two_seeded_q2.jsonl",
        &canonical_jsonl(&run.events),
    );
}

#[test]
fn golden_batch_q4_trace_is_stable() {
    let run = run_golden_batch(4, 4);
    check_or_bless(
        "scenario_two_seeded_q4.jsonl",
        &canonical_jsonl(&run.events),
    );
}

#[test]
fn golden_batch_q4_trace_satisfies_invariants() {
    let run = run_golden_batch(4, 4);
    let report = check_trace(&run.events, Some(&run.table)).expect("batch invariants hold");
    assert!(report.batch_selects >= 1, "no batch checked: {report:?}");
    assert_eq!(
        report.selects, 0,
        "q > 1 must not emit legacy Select events"
    );
    assert!(report.tool_evals >= 10, "too few evaluations: {report:?}");
    assert!(
        report.spans > report.tool_evals,
        "missing spans: {report:?}"
    );
    assert_eq!(
        report.tool_evals,
        run.result.runs + run.result.verification_runs
    );
    // The recorded stream must name batch_eval spans (the concurrency
    // fan-out is visible in the causal tree, not inferred).
    let batch_spans = run
        .events
        .iter()
        .filter(|e| matches!(e, obs::Event::SpanStart { name, .. } if name == "batch_eval"))
        .count();
    assert!(batch_spans >= 1, "no batch_eval span recorded");
}

#[test]
fn golden_batch_trace_is_worker_count_invariant() {
    // Wave merges happen in deterministic batch order, so the recorded
    // trace — span IDs included — must depend neither on the workers
    // budget nor on whether the wave members raced through a shared
    // oracle or ran one at a time through the serial entry point.
    let w1 = run_golden_batch(4, 1);
    let t1 = canonical_jsonl(&w1.events);
    for workers in [2, 4] {
        let tw = canonical_jsonl(&run_golden_batch(4, workers).events);
        assert_eq!(t1, tw, "1 vs {workers} workers diverged");
    }
    let w8 = run_golden_batch(4, 8);
    assert_eq!(t1, canonical_jsonl(&w8.events), "1 vs 8 workers diverged");
    let serial = run_golden_serial_batch(4);
    assert_eq!(
        t1,
        canonical_jsonl(&serial.events),
        "serial run and run_concurrent diverged"
    );
    assert_eq!(serial.result.evaluated, w1.result.evaluated);
    // Structural result fields agree too (durations legitimately differ).
    assert_eq!(w1.result.pareto_indices, w8.result.pareto_indices);
    assert_eq!(w1.result.evaluated, w8.result.evaluated);
    assert_eq!(w1.result.runs, w8.result.runs);
    assert_eq!(w1.result.verification_runs, w8.result.verification_runs);
    assert_eq!(w1.result.iterations, w8.result.iterations);
}

#[test]
fn golden_pool_trace_is_stable() {
    // Pins the adaptive-pool refinement sequence (which leaf splits at
    // which iteration) and the subset-of-data predict-path switchovers.
    let run = run_golden_pool();
    check_or_bless(
        "scenario_two_seeded_pool.jsonl",
        &canonical_jsonl(&run.events),
    );
}

#[test]
fn golden_pool_trace_satisfies_invariants() {
    let run = run_golden_pool();
    let report = check_trace(&run.events, Some(&run.table)).expect("pool invariants hold");
    // The pool must actually refine, and every refinement obeys the
    // append-only growth law.
    assert!(report.pool_refines >= 2, "pool never refined: {report:?}");
    assert!(report.snapshots >= 2, "too few snapshots: {report:?}");
    assert!(report.tool_evals >= 10, "too few evaluations: {report:?}");
    assert_eq!(
        report.tool_evals,
        run.result.runs + run.result.verification_runs
    );
    // The pool actually grew: a PoolRefine with nonzero splits exists.
    let grew = run
        .events
        .iter()
        .any(|e| matches!(e, obs::Event::PoolRefine { splits, .. } if *splits > 0));
    assert!(grew, "trace shows no pool growth");
    // The subset-of-data path activated at least once.
    let subset = run
        .events
        .iter()
        .any(|e| matches!(e, obs::Event::PredictMode { mode, .. } if mode == "subset"));
    assert!(subset, "subset predict path never activated");
}

#[test]
fn golden_pool_run_is_reproducible_within_process() {
    let a = canonical_jsonl(&run_golden_pool().events);
    let b = canonical_jsonl(&run_golden_pool().events);
    assert_eq!(a, b, "pool golden scenario is not deterministic");
}

#[test]
fn committed_golden_trace_parses_and_satisfies_invariants() {
    // The snapshot on disk — not just the freshly recorded stream — must
    // parse back into events and pass the checker, so the committed
    // artifact itself is verified (canonicalization must not break the
    // trace's semantics).
    let path = testkit::trace::golden_dir().join("scenario_two_seeded.jsonl");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden file {} unreadable ({e}); bless with TESTKIT_BLESS=1",
            path.display()
        )
    });
    let events: Vec<obs::Event> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("golden line parses as Event"))
        .collect();
    assert!(!events.is_empty());
    let report = check_trace(&events, None).expect("committed trace invariants");
    assert!(report.snapshots >= 2);
}
