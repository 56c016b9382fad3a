//! Chaos suite for q-batch concurrent evaluation: deterministic fault
//! injection fanned out across a wave must stay exactly as lawful — and
//! exactly as reproducible — as the serial path.
//!
//! Three claims are pinned here, on top of the serial chaos suite:
//!
//! 1. **Worker-count invariance under faults**: a faulty q = 4 run
//!    records the same canonical trace at 1, 2, 4, and 8 workers.
//!    Retries, backoff bookkeeping, and quarantines happen per member
//!    inside the wave (each member on its own thread), and merges are in
//!    batch order, so thread scheduling can never leak into the trace.
//! 2. **Fault containment**: an always-failing batch member is
//!    quarantined without corrupting or starving its siblings — every
//!    accepted evaluation still carries the exact golden QoR, and the
//!    invariant checker's RunEnd attempt-conservation law holds.
//! 3. **Serial/concurrent equivalence**: the same faulty scenario run
//!    through `run_observed` (serial oracle) and `run_concurrent`
//!    (shared oracle, one thread per wave member) produces identical
//!    canonical traces at the same `batch_size`.

use gp::optimize::FitBudget;
use obs::RecordingSink;
use pdsim::FaultPlan;
use ppatuner::{PpaTuner, PpaTunerConfig, SharedOracle, SourceData, TuneResult, TunerError};
use rand::Rng;
use testkit::chaos::FaultyVecOracle;
use testkit::trace::canonical_jsonl;
use testkit::{gen, invariants, test_seed};

const CASES: u64 = 6;

fn toy_problem(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, SourceData) {
    let candidates: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
    let truth: Vec<Vec<f64>> = candidates
        .iter()
        .map(|p| {
            let x = p[0];
            let bump = if (0.4..0.6).contains(&x) { 0.3 } else { 0.0 };
            vec![x + bump + 0.05, (1.0 - x).powi(2) + bump + 0.05]
        })
        .collect();
    let source = SourceData::new(
        candidates.clone(),
        truth
            .iter()
            .map(|y| y.iter().map(|v| v * 1.1 + 0.02).collect())
            .collect(),
    )
    .expect("toy source data is finite");
    (candidates, truth, source)
}

fn batch_config(seed: u64, q: usize, workers: usize) -> PpaTunerConfig {
    PpaTunerConfig {
        initial_samples: 8,
        max_iterations: 12,
        refit_every: 10,
        fit_budget: FitBudget {
            restarts: 1,
            evals_per_restart: 40,
        },
        seed,
        batch_size: q,
        workers,
        max_eval_attempts: 4,
        ..Default::default()
    }
}

/// Runs one faulty concurrent case and returns (canonical trace, result).
fn run_faulty_concurrent(
    plan: &FaultPlan,
    seed: u64,
    q: usize,
    workers: usize,
) -> Result<(String, TuneResult, Vec<Vec<f64>>), TunerError> {
    let (candidates, truth, source) = toy_problem(40);
    let oracle = SharedOracle::new(FaultyVecOracle::new(truth.clone(), plan.clone()));
    let sink = RecordingSink::new();
    let result = PpaTuner::new(batch_config(seed, q, workers)).run_concurrent(
        &source,
        &candidates,
        &oracle,
        &sink,
    )?;
    Ok((canonical_jsonl(&sink.events()), result, truth))
}

/// Random-plan sweep at q = 4: whatever the injected mix, every worker
/// count records the same lawful canonical trace and the same result.
#[test]
fn faulty_batch_runs_are_worker_count_invariant() {
    for case in 0..CASES {
        let mut rng = gen::case_rng(test_seed() ^ 0xba7c_4a0b, case);
        let plan = FaultPlan {
            seed: rng.gen(),
            crash_prob: rng.gen_range(0.0..0.2),
            timeout_prob: rng.gen_range(0.0..0.15),
            nan_prob: rng.gen_range(0.0..0.1),
            outlier_prob: rng.gen_range(0.0..0.1),
            outlier_factor: 1e3,
            flaky_max_failures: rng.gen_range(0..3usize),
            always_fail: if rng.gen_bool(0.5) {
                vec![rng.gen_range(0..40), rng.gen_range(0..40)]
            } else {
                Vec::new()
            },
        };
        let seed = rng.gen();
        let base = match run_faulty_concurrent(&plan, seed, 4, 1) {
            Ok(out) => out,
            // Extreme plans can starve initialization below the two
            // successes a GP needs; rejecting that cleanly is correct.
            Err(TunerError::InvalidInput { .. }) => continue,
            Err(e) => panic!("case {case}: tuner failed on {plan:?}: {e}"),
        };
        let (trace1, result1, truth) = base;
        for workers in [2usize, 4, 8] {
            let (trace_w, result_w, _) = run_faulty_concurrent(&plan, seed, 4, workers)
                .unwrap_or_else(|e| panic!("case {case}: {workers} workers failed: {e}"));
            assert_eq!(
                trace1, trace_w,
                "case {case}: trace diverged at {workers} workers under {plan:?}"
            );
            assert_eq!(
                result1.pareto_indices, result_w.pareto_indices,
                "case {case}"
            );
            assert_eq!(result1.evaluated, result_w.evaluated, "case {case}");
            assert_eq!(result1.quarantined, result_w.quarantined, "case {case}");
            assert_eq!(result1.eval_failures, result_w.eval_failures, "case {case}");
            assert_eq!(result1.runs, result_w.runs, "case {case}");
        }
        // The invariant checker (batch laws included) accepts the trace.
        let events: Vec<obs::Event> = trace1
            .lines()
            .map(|l| serde_json::from_str(l).expect("canonical line parses"))
            .collect();
        let report = invariants::check_trace(&events, Some(&truth))
            .unwrap_or_else(|e| panic!("case {case}: invariant violated under {plan:?}: {e}"));
        assert_eq!(report.quarantines, result1.quarantined.len(), "case {case}");
        assert_eq!(report.eval_failures, result1.eval_failures, "case {case}");
    }
}

/// Always-failing members are quarantined inside their wave without
/// corrupting or starving siblings: every accepted evaluation carries
/// the exact golden QoR, healthy candidates still classify, and the
/// trace's RunEnd accounting conserves attempts.
#[test]
fn batch_faults_never_corrupt_or_starve_siblings() {
    let plan = FaultPlan {
        always_fail: vec![5, 20, 35],
        ..FaultPlan::default()
    };
    let (candidates, truth, source) = toy_problem(40);
    let oracle = SharedOracle::new(FaultyVecOracle::new(truth.clone(), plan));
    let sink = RecordingSink::new();
    // Small init set and wide τ keep candidates undecided past
    // initialization, so the selection loop genuinely runs batches.
    let config = PpaTunerConfig {
        initial_samples: 4,
        tau: 3.0,
        ..batch_config(11, 4, 8)
    };
    let result = PpaTuner::new(config)
        .run_concurrent(&source, &candidates, &oracle, &sink)
        .expect("hard failures must not abort the run");
    let trace = canonical_jsonl(&sink.events());
    let events: Vec<obs::Event> = trace
        .lines()
        .map(|l| serde_json::from_str(l).expect("canonical line parses"))
        .collect();
    let report = invariants::check_trace(&events, Some(&truth)).expect("trace is lawful");
    assert!(report.batch_selects >= 1, "no batch exercised: {report:?}");
    // Siblings of failing members got clean, uncorrupted QoR.
    for (i, y) in &result.evaluated {
        assert_eq!(
            y, &truth[*i],
            "candidate {i} QoR corrupted by a sibling fault"
        );
    }
    for q in [5usize, 20, 35] {
        if result.quarantined.contains(&q) {
            assert!(!result.pareto_indices.contains(&q));
            assert!(result.evaluated.iter().all(|(i, _)| *i != q));
        }
    }
    assert!(
        !result.pareto_indices.is_empty(),
        "healthy candidates still classify"
    );
    assert!(
        result.evaluated.len() >= 8,
        "siblings were starved: only {} evaluations accepted",
        result.evaluated.len()
    );
}

/// The serial entry point and the concurrent one agree event-for-event
/// on the same faulty scenario at the same batch size.
#[test]
fn serial_and_concurrent_chaos_traces_are_identical() {
    let plan = FaultPlan {
        seed: 23,
        crash_prob: 0.2,
        timeout_prob: 0.1,
        flaky_max_failures: 2,
        always_fail: vec![13],
        ..FaultPlan::default()
    };
    let (candidates, truth, source) = toy_problem(40);
    let mut serial_oracle = FaultyVecOracle::new(truth.clone(), plan.clone());
    let serial_sink = RecordingSink::new();
    let serial = PpaTuner::new(batch_config(7, 4, 1))
        .run_observed(&source, &candidates, &mut serial_oracle, &serial_sink)
        .expect("serial chaos run succeeds");
    let (concurrent_trace, concurrent, _) =
        run_faulty_concurrent(&plan, 7, 4, 8).expect("concurrent chaos run succeeds");
    assert_eq!(
        canonical_jsonl(&serial_sink.events()),
        concurrent_trace,
        "serial and concurrent paths recorded different traces"
    );
    assert_eq!(serial.pareto_indices, concurrent.pareto_indices);
    assert_eq!(serial.evaluated, concurrent.evaluated);
    assert_eq!(serial.quarantined, concurrent.quarantined);
}
