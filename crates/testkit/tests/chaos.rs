//! Chaos suite: the tuner loop under deterministic fault injection.
//!
//! Each case derives a fault plan (crash/timeout/NaN/outlier mix, plus a
//! few always-failing candidates) from the shared test seed and runs the
//! full loop against a [`testkit::chaos::FaultyVecOracle`]. The recorded
//! trace is then fed through the invariant checker, which now also
//! enforces the failure-handling laws: quarantine is terminal, failed
//! attempts are conserved in `RunEnd` accounting, and accepted QoR is
//! always finite. On top of the checker, the suite asserts the outcomes
//! that matter to a user: the loop always terminates, quarantined
//! candidates never reach the final front, and when every fault is
//! transient the chaos run lands on exactly the clean run's front.

use gp::optimize::FitBudget;
use obs::RecordingSink;
use pdsim::FaultPlan;
use ppatuner::{PpaTuner, PpaTunerConfig, SourceData, TunerError, VecOracle};
use rand::Rng;
use testkit::chaos::FaultyVecOracle;
use testkit::{gen, invariants, test_seed};

const CASES: u64 = 10;

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

fn chaos_config(seed: u64) -> PpaTunerConfig {
    PpaTunerConfig {
        initial_samples: 8,
        max_iterations: 12,
        refit_every: 10,
        fit_budget: FitBudget {
            restarts: 1,
            evals_per_restart: 40,
        },
        workers: 1,
        seed,
        ..Default::default()
    }
}

/// Random-plan sweep: whatever the injected failure mix, the loop
/// terminates, the trace obeys every law, and no quarantined candidate
/// leaks into the front.
#[test]
fn random_fault_plans_never_break_the_laws() {
    for case in 0..CASES {
        let mut rng = gen::case_rng(test_seed(), case);
        let (candidates, truth, source) = toy_problem(40);
        let plan = FaultPlan {
            seed: rng.gen(),
            crash_prob: rng.gen_range(0.0..0.2),
            timeout_prob: rng.gen_range(0.0..0.15),
            nan_prob: rng.gen_range(0.0..0.1),
            outlier_prob: rng.gen_range(0.0..0.1),
            outlier_factor: 1e3,
            flaky_max_failures: rng.gen_range(0..4usize),
            always_fail: if rng.gen_bool(0.5) {
                vec![rng.gen_range(0..40), rng.gen_range(0..40)]
            } else {
                Vec::new()
            },
        };
        let mut oracle = FaultyVecOracle::new(truth.clone(), plan.clone());
        let sink = RecordingSink::new();
        let result = PpaTuner::new(chaos_config(rng.gen())).run_observed(
            &source,
            &candidates,
            &mut oracle,
            &sink,
        );
        let result = match result {
            Ok(r) => r,
            // Extreme plans can starve initialization below the two
            // successes a GP needs; rejecting that cleanly is correct.
            Err(TunerError::InvalidInput { .. }) => continue,
            Err(e) => panic!("case {case}: tuner failed on {plan:?}: {e}"),
        };
        let events = sink.events();
        let report = invariants::check_trace(&events, Some(&truth))
            .unwrap_or_else(|e| panic!("case {case}: invariant violated under {plan:?}: {e}"));
        assert_eq!(report.quarantines, result.quarantined.len(), "case {case}");
        assert_eq!(report.eval_failures, result.eval_failures, "case {case}");
        for q in &result.quarantined {
            assert!(
                !result.pareto_indices.contains(q),
                "case {case}: quarantined candidate {q} reached the front"
            );
            assert!(
                result.evaluated.iter().all(|(i, _)| i != q),
                "case {case}: quarantined candidate {q} has an accepted evaluation"
            );
        }
        assert!(result.iterations <= 12, "case {case}: loop overran its cap");
    }
}

/// Transient-only faults (bounded flakiness, nothing always-failing) must
/// cost retries and nothing else: same front, same evaluated set as the
/// fault-free run.
#[test]
fn transient_faults_only_cost_retries() {
    let (candidates, truth, source) = toy_problem(40);
    let mut clean_oracle = VecOracle::new(truth.clone());
    let clean = PpaTuner::new(chaos_config(3))
        .run(&source, &candidates, &mut clean_oracle)
        .expect("clean run succeeds");

    let plan = FaultPlan {
        seed: 17,
        crash_prob: 0.25,
        timeout_prob: 0.15,
        flaky_max_failures: 2,
        ..FaultPlan::default()
    };
    // max_eval_attempts must exceed the flaky bound for recovery to be
    // guaranteed within one selection.
    let config = PpaTunerConfig {
        max_eval_attempts: 4,
        ..chaos_config(3)
    };
    let mut oracle = FaultyVecOracle::new(truth.clone(), plan);
    let chaotic = PpaTuner::new(config)
        .run(&source, &candidates, &mut oracle)
        .expect("bounded flakiness always recovers");

    assert_eq!(chaotic.pareto_indices, clean.pareto_indices);
    assert_eq!(chaotic.evaluated, clean.evaluated);
    assert!(chaotic.quarantined.is_empty());
    assert!(chaotic.eval_failures > 0, "the plan should have injected");
    assert_eq!(
        chaotic.runs + chaotic.verification_runs,
        clean.runs + clean.verification_runs + chaotic.eval_failures
    );
}

/// Hard failures force quarantine but never panic, and classification
/// still completes for the healthy candidates.
#[test]
fn always_failing_candidates_are_contained() {
    let (candidates, truth, source) = toy_problem(40);
    let plan = FaultPlan {
        always_fail: vec![5, 20, 35],
        ..FaultPlan::default()
    };
    let mut oracle = FaultyVecOracle::new(truth.clone(), plan);
    let sink = RecordingSink::new();
    let result = PpaTuner::new(chaos_config(5))
        .run_observed(&source, &candidates, &mut oracle, &sink)
        .expect("hard failures must not abort the run");
    invariants::check_trace(&sink.events(), Some(&truth)).expect("trace is lawful");
    for q in [5usize, 20, 35] {
        if result.quarantined.contains(&q) {
            assert!(!result.pareto_indices.contains(&q));
        }
    }
    assert!(
        !result.pareto_indices.is_empty(),
        "healthy candidates still classify"
    );
}
