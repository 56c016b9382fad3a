//! Chaos smoke: the committed fault plan against the full tuner loop.
//!
//! CI's fast answer to "does the robustness layer actually hold up?":
//! one seeded scenario, one committed [`pdsim::FaultPlan`] with a ≥20 %
//! injected failure rate (crashes, timeouts, NaN and outlier corruption,
//! plus two hard-failing candidates), and four gates:
//!
//! 1. the tuner completes classification without panicking and the
//!    recorded trace passes every invariant (including the
//!    failure-handling laws);
//! 2. transient faults recover — the run retries and keeps going — while
//!    the hard-failing candidates end up quarantined, never in the front;
//! 3. the chaos run's hypervolume error stays within 1.05× of the
//!    fault-free run on the same seed;
//! 4. resuming from a mid-run checkpoint with a **fresh** oracle
//!    reproduces the interrupted run exactly (the resume golden).
//!
//! Usage: `cargo run --release -p bench --bin chaos_smoke -- [plan.json]`
//! (defaults to the committed `crates/bench/plans/chaos_smoke.json`).
//! Exits non-zero listing every violated gate.

use std::cell::RefCell;

use obs::RecordingSink;
use pdsim::{FaultPlan, ObjectiveSpace};
use ppatuner::{
    Checkpoint, CheckpointError, CheckpointStore, MemoryCheckpointStore, PpaTuner, PpaTunerConfig,
    SourceData, TuneResult, VecOracle,
};
use testkit::chaos::FaultyVecOracle;
use testkit::invariants;

/// Keeps every checkpoint ever saved so the smoke can resume from the
/// middle of the run, simulating a crash at that point.
#[derive(Default)]
struct CaptureStore {
    inner: MemoryCheckpointStore,
    all: RefCell<Vec<Checkpoint>>,
}

impl CheckpointStore for CaptureStore {
    fn save(&self, c: &Checkpoint) -> Result<(), CheckpointError> {
        self.all.borrow_mut().push(c.clone());
        self.inner.save(c)
    }

    fn load(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        self.inner.load()
    }
}

fn same_outcome(a: &TuneResult, b: &TuneResult) -> Result<(), String> {
    let fields: [(&str, bool); 8] = [
        ("pareto_indices", a.pareto_indices == b.pareto_indices),
        ("evaluated", a.evaluated == b.evaluated),
        ("runs", a.runs == b.runs),
        (
            "verification_runs",
            a.verification_runs == b.verification_runs,
        ),
        ("iterations", a.iterations == b.iterations),
        ("delta", a.delta == b.delta),
        ("quarantined", a.quarantined == b.quarantined),
        (
            "failure counters",
            (a.eval_failures, a.eval_retries) == (b.eval_failures, b.eval_retries),
        ),
    ];
    let diverged: Vec<&str> = fields
        .iter()
        .filter(|(_, same)| !same)
        .map(|(name, _)| *name)
        .collect();
    if diverged.is_empty() {
        Ok(())
    } else {
        Err(format!("diverged in {}", diverged.join(", ")))
    }
}

fn main() {
    let plan_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| format!("{}/plans/chaos_smoke.json", env!("CARGO_MANIFEST_DIR")));
    let plan_json = std::fs::read_to_string(&plan_path)
        .unwrap_or_else(|e| panic!("cannot read fault plan {plan_path}: {e}"));
    let plan: FaultPlan = serde_json::from_str(&plan_json)
        .unwrap_or_else(|e| panic!("malformed fault plan {plan_path}: {e}"));
    plan.validate().expect("committed plan must be valid");
    assert!(
        plan.failure_rate() >= 0.2,
        "the smoke wants >= 20% injected failures, plan has {}",
        plan.failure_rate()
    );

    let scenario = benchgen::Scenario::two_with_counts(9, 120, 100).with_source_budget(60);
    let space = ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let truth = scenario.target_table(space);
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("scenario source data");
    let config = PpaTunerConfig {
        initial_samples: 10,
        max_iterations: 20,
        tau: 3.0,
        // Must exceed the plan's flaky bound so transient faults recover
        // within one selection instead of quarantining half the space.
        max_eval_attempts: plan.flaky_max_failures + 2,
        seed: testkit::test_seed(),
        workers: 1,
        ..Default::default()
    };

    let mut violations: Vec<String> = Vec::new();

    // ------------------------------------------------ fault-free anchor
    let mut clean_oracle = VecOracle::new(truth.clone());
    let clean = PpaTuner::new(config.clone())
        .run(&source, &candidates, &mut clean_oracle)
        .expect("fault-free run succeeds");
    let clean_score = bench::score(&scenario, space, &clean.pareto_indices, clean.runs);

    // ------------------------------------------------------- chaos run
    let sink = RecordingSink::new();
    let store = CaptureStore::default();
    let mut oracle = FaultyVecOracle::new(truth.clone(), plan.clone());
    let chaos = PpaTuner::new(config.clone())
        .run_checkpointed(&source, &candidates, &mut oracle, &sink, &store)
        .expect("chaos run completes despite injected failures");
    let chaos_score = bench::score(&scenario, space, &chaos.pareto_indices, chaos.runs);

    match invariants::check_trace(&sink.events(), Some(&truth)) {
        Ok(report) => println!(
            "trace lawful: {} snapshots, {} selects, {} accepted evals, \
             {} failures, {} quarantines",
            report.snapshots,
            report.selects,
            report.tool_evals,
            report.eval_failures,
            report.quarantines
        ),
        Err(e) => violations.push(format!("invariant violated: {e}")),
    }
    if chaos.eval_failures == 0 {
        violations.push("plan injected no failures at all".into());
    }
    let kinds: std::collections::BTreeSet<String> =
        bench::fleet::summarize_run("chaos_smoke", &sink.events())
            .failures_by_kind
            .into_keys()
            .collect();
    println!("failure kinds exercised: {kinds:?}");
    for wanted in ["crash", "invalid_qor"] {
        if !kinds.contains(wanted) {
            violations.push(format!(
                "plan never exercised the '{wanted}' failure path; widen its probabilities"
            ));
        }
    }
    if chaos.eval_retries == 0 {
        violations.push("no retry ever recovered a transient fault".into());
    }
    for q in &chaos.quarantined {
        if chaos.pareto_indices.contains(q) {
            violations.push(format!("quarantined candidate {q} reached the front"));
        }
    }
    for hard in &plan.always_fail {
        let touched =
            chaos.quarantined.contains(hard) || chaos.evaluated.iter().all(|(i, _)| i != hard);
        if !touched {
            violations.push(format!(
                "always-failing candidate {hard} produced an accepted evaluation"
            ));
        }
    }
    if chaos.pareto_indices.is_empty() {
        violations.push("chaos run classified nothing as Pareto".into());
    }

    // ---------------------------------------------- hypervolume budget
    let limit = clean_score.hv_error.abs() * 1.05 + 1e-9;
    println!(
        "hv error: clean {:.6}, chaos {:.6} (limit {:.6}); runs clean {} chaos {} \
         (+{} failed attempts, {} quarantined)",
        clean_score.hv_error,
        chaos_score.hv_error,
        limit,
        clean.runs,
        chaos.runs,
        chaos.eval_failures,
        chaos.quarantined.len()
    );
    if chaos_score.hv_error.abs() > limit {
        violations.push(format!(
            "chaos hv error {} exceeds 1.05x the fault-free {}",
            chaos_score.hv_error, clean_score.hv_error
        ));
    }

    // ------------------------------------------------- resume golden
    let checkpoints = store.all.borrow();
    if checkpoints.len() < 2 {
        violations.push(format!(
            "expected several checkpoints, got {}",
            checkpoints.len()
        ));
    } else {
        let mid = checkpoints[checkpoints.len() / 2].clone();
        println!(
            "resuming from checkpoint at iteration {} ({} attempts logged)",
            mid.next_iteration,
            mid.eval_log.len()
        );
        let crash_point = MemoryCheckpointStore::new();
        crash_point.put(mid);
        let mut fresh = FaultyVecOracle::new(truth.clone(), plan.clone());
        match PpaTuner::new(config).resume(
            &source,
            &candidates,
            &mut fresh,
            &obs::NULL_SINK,
            &crash_point,
        ) {
            Ok(resumed) => {
                if let Err(e) = same_outcome(&chaos, &resumed) {
                    violations.push(format!("resume golden mismatch: {e}"));
                } else {
                    println!("resume golden: identical outcome after mid-run restart");
                }
            }
            Err(e) => violations.push(format!("resume failed: {e}")),
        }
    }

    if violations.is_empty() {
        println!("chaos smoke PASSED");
    } else {
        eprintln!("chaos smoke FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
