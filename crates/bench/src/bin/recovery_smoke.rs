//! Recovery smoke: the degraded-mode run supervisor against the full
//! tuner loop, on the committed fit-fault plan.
//!
//! CI's fast answer to "does the crash-and-degrade story actually hold
//! up?": one seeded scenario and five gates spanning the supervisor's
//! fault domains —
//!
//! 1. **Kill points (storage):** replaying the checkpoint-save prefix of
//!    a fault-free run into a fresh on-disk chain and resuming from it —
//!    for *every* save boundary — reproduces the fault-free result
//!    bitwise.
//! 2. **Torn writes (storage):** truncating the newest chain entry at
//!    every byte boundary still recovers the last-good checkpoint.
//! 3. **Numerical degradation:** with the committed ≥25 % fit-fault plan
//!    armed, the run completes with lawful degraded iterations (trace
//!    passes every invariant) and its hypervolume error stays within
//!    1.05× of the fault-free run.
//! 4. **Determinism under degradation:** the degraded run's canonical
//!    trace is byte-identical across `workers` 1 and 4, and a
//!    mid-run resume with the plan re-armed lands on the same outcome.
//! 5. **Liveness:** a universally hanging oracle behind the watchdog
//!    still completes, every hang surfacing as a deterministic timeout.
//!
//! Usage: `cargo run --release -p bench --bin recovery_smoke -- [plan.json]`
//! (defaults to the committed `crates/bench/plans/recovery_smoke.json`).
//! Exits non-zero listing every violated gate.

use std::cell::RefCell;
use std::path::PathBuf;

use obs::RecordingSink;
use pdsim::ObjectiveSpace;
use ppatuner::{
    inject_fit_faults, ChainCheckpointStore, Checkpoint, CheckpointError, CheckpointStore,
    FitFaultPlan, PpaTuner, PpaTunerConfig, SourceData, TuneResult, VecOracle, WatchdogOracle,
};
use testkit::chaos::HangingOracle;
use testkit::invariants;
use testkit::trace::canonical_jsonl;

/// Keeps every checkpoint ever saved so the smoke can replay the save
/// sequence into fresh chains and crash at any boundary.
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

fn same_outcome(a: &TuneResult, b: &TuneResult) -> Result<(), String> {
    let fields: [(&str, bool); 8] = [
        ("pareto_indices", a.pareto_indices == b.pareto_indices),
        ("evaluated", a.evaluated == b.evaluated),
        ("runs", a.runs == b.runs),
        ("iterations", a.iterations == b.iterations),
        ("delta", a.delta == b.delta),
        ("quarantined", a.quarantined == b.quarantined),
        ("degraded_fits", a.degraded_fits == b.degraded_fits),
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

fn scratch_dir(tag: &str, n: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ppatuner_recovery_smoke_{tag}_{}_{n}",
        std::process::id()
    ))
}

fn main() {
    let plan_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| format!("{}/plans/recovery_smoke.json", env!("CARGO_MANIFEST_DIR")));
    let plan_json = std::fs::read_to_string(&plan_path)
        .unwrap_or_else(|e| panic!("cannot read fit-fault plan {plan_path}: {e}"));
    let plan: FitFaultPlan = serde_json::from_str(&plan_json)
        .unwrap_or_else(|e| panic!("malformed fit-fault plan {plan_path}: {e}"));
    plan.validate().expect("committed plan must be valid");
    assert!(
        plan.refit_fail >= 0.25 && plan.condition_fail >= 0.25,
        "the smoke wants >= 25% injected fit faults on both calibration \
         paths, plan has refit {} / condition {}",
        plan.refit_fail,
        plan.condition_fail
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
        // Several refit sites within the horizon, and enough budget that
        // a 25% plan cannot plausibly exhaust it.
        refit_every: 5,
        degraded_fit_budget: 64,
        seed: testkit::test_seed(),
        workers: 1,
        ..Default::default()
    };

    let mut violations: Vec<String> = Vec::new();

    // ------------------------------------------------ fault-free anchor
    let store = CaptureStore::default();
    let mut clean_oracle = VecOracle::new(truth.clone());
    let clean = PpaTuner::new(config.clone())
        .run_checkpointed(
            &source,
            &candidates,
            &mut clean_oracle,
            &obs::NULL_SINK,
            &store,
        )
        .expect("fault-free run succeeds");
    let clean_score = bench::score(&scenario, space, &clean.pareto_indices, clean.runs);
    let checkpoints = store.all.into_inner();
    println!(
        "fault-free anchor: {} iterations, {} checkpoints",
        clean.iterations,
        checkpoints.len()
    );
    if checkpoints.len() < 3 {
        violations.push(format!(
            "expected several checkpoints, got {}",
            checkpoints.len()
        ));
    }

    // -------------------------------------- gate 1: kill-point resumes
    let mut kill_failures = 0usize;
    for k in 0..checkpoints.len() {
        let dir = scratch_dir("killpoint", k);
        let chain = ChainCheckpointStore::new(&dir, 3);
        for c in &checkpoints[..=k] {
            chain.save(c).expect("chain save");
        }
        let mut oracle = VecOracle::new(truth.clone());
        match PpaTuner::new(config.clone()).resume(
            &source,
            &candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &chain,
        ) {
            Ok(resumed) => {
                if let Err(e) = same_outcome(&clean, &resumed) {
                    kill_failures += 1;
                    violations.push(format!("kill point {k}: {e}"));
                }
            }
            Err(e) => {
                kill_failures += 1;
                violations.push(format!("kill point {k}: resume failed: {e}"));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    println!(
        "kill points: {} boundaries resumed, {} diverged",
        checkpoints.len(),
        kill_failures
    );

    // ----------------------------------- gate 2: every-byte truncation
    let dir = scratch_dir("truncate", 0);
    let chain = ChainCheckpointStore::new(&dir, 4);
    for c in &checkpoints {
        chain.save(c).expect("chain save");
    }
    let n = checkpoints.len();
    let newest = dir.join(format!("ckpt-{:08}.json", n - 1));
    let bytes = std::fs::read(&newest).expect("newest entry readable");
    let last_good = checkpoints[n - 2].content_digest();
    let mut torn_failures = 0usize;
    for cut in 0..bytes.len() {
        std::fs::write(&newest, &bytes[..cut]).expect("truncate entry");
        let recovered = chain
            .recover()
            .ok()
            .and_then(|r| r.checkpoint)
            .map(|c| c.content_digest());
        if recovered != Some(last_good) {
            torn_failures += 1;
            if torn_failures <= 3 {
                violations.push(format!(
                    "truncation at byte {cut} did not recover the last-good checkpoint"
                ));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "torn writes: {} byte boundaries scanned, {} unrecovered",
        bytes.len(),
        torn_failures
    );
    if torn_failures > 3 {
        violations.push(format!(
            "... and {} more unrecovered truncations",
            torn_failures - 3
        ));
    }

    // --------------------------------- gate 3: degraded run, hv budget
    let sink = RecordingSink::new();
    let store = CaptureStore::default();
    let degraded = {
        let _armed = inject_fit_faults(plan.clone());
        let mut oracle = VecOracle::new(truth.clone());
        PpaTuner::new(config.clone())
            .run_checkpointed(&source, &candidates, &mut oracle, &sink, &store)
            .expect("degraded run completes within budget")
    };
    let degraded_score = bench::score(&scenario, space, &degraded.pareto_indices, degraded.runs);
    match invariants::check_trace(&sink.events(), Some(&truth)) {
        Ok(report) => println!(
            "degraded trace lawful: {} degraded fits, {} snapshots, {} accepted evals",
            report.degraded_fits, report.snapshots, report.tool_evals
        ),
        Err(e) => violations.push(format!("degraded-run invariant violated: {e}")),
    }
    if degraded.degraded_fits == 0 {
        violations.push("the plan injected no fit faults at all".into());
    }
    let limit = clean_score.hv_error.abs() * 1.05 + 1e-9;
    println!(
        "hv error: clean {:.6}, degraded {:.6} (limit {:.6}); {} degraded fits",
        clean_score.hv_error, degraded_score.hv_error, limit, degraded.degraded_fits
    );
    if degraded_score.hv_error.abs() > limit {
        violations.push(format!(
            "degraded hv error {} exceeds 1.05x the fault-free {}",
            degraded_score.hv_error, clean_score.hv_error
        ));
    }

    // --------------------- gate 4: degraded determinism across workers
    let run_degraded_concurrent = |workers: usize| {
        let cfg = PpaTunerConfig {
            batch_size: 4,
            workers,
            ..config.clone()
        };
        let _armed = inject_fit_faults(plan.clone());
        let oracle = ppatuner::SharedOracle::new(VecOracle::new(truth.clone()));
        let sink = RecordingSink::new();
        let result = PpaTuner::new(cfg)
            .run_observed(&source, &candidates, &oracle, &sink)
            .expect("degraded concurrent run completes");
        (result, sink.events())
    };
    let (serial, serial_events) = run_degraded_concurrent(1);
    let (wide, wide_events) = run_degraded_concurrent(4);
    if serial.degraded_fits == 0 {
        violations.push("concurrent degraded run saw no fit faults".into());
    }
    if let Err(e) = same_outcome(&serial, &wide) {
        violations.push(format!("degraded outcome depends on worker count: {e}"));
    }
    if canonical_jsonl(&serial_events) != canonical_jsonl(&wide_events) {
        violations.push("degraded canonical trace depends on worker count".into());
    } else {
        println!(
            "degraded determinism: canonical traces byte-identical across \
             workers 1 and 4 ({} degraded fits each)",
            serial.degraded_fits
        );
    }
    // Mid-run resume with the plan re-armed lands on the same outcome.
    let degraded_checkpoints = store.all.into_inner();
    if let Some(mid) = degraded_checkpoints
        .iter()
        .find(|c| c.snapshot.degraded_fits > 0)
    {
        let dir = scratch_dir("degraded_resume", 0);
        let chain = ChainCheckpointStore::new(&dir, 2);
        chain.save(mid).expect("chain save");
        let resumed = {
            let _armed = inject_fit_faults(plan.clone());
            let mut oracle = VecOracle::new(truth.clone());
            PpaTuner::new(config.clone()).resume(
                &source,
                &candidates,
                &mut oracle,
                &obs::NULL_SINK,
                &chain,
            )
        };
        std::fs::remove_dir_all(&dir).ok();
        match resumed {
            Ok(resumed) => {
                if let Err(e) = same_outcome(&degraded, &resumed) {
                    violations.push(format!("degraded resume golden mismatch: {e}"));
                } else {
                    println!("degraded resume golden: identical outcome after mid-run restart");
                }
            }
            Err(e) => violations.push(format!("degraded resume failed: {e}")),
        }
    } else {
        violations.push("no checkpoint recorded a degraded fit".into());
    }

    // ------------------------------------------ gate 5: watchdog smoke
    let hangs: Vec<(usize, usize)> = (0..truth.len()).map(|i| (i, 1)).collect();
    let oracle = WatchdogOracle::new(HangingOracle::new(truth.clone(), hangs, 5.0), 0.05);
    let cfg = PpaTunerConfig {
        batch_size: 4,
        max_eval_attempts: 3,
        ..config.clone()
    };
    let sink = RecordingSink::new();
    match PpaTuner::new(cfg).run_observed(&source, &candidates, &oracle, &sink) {
        Ok(result) => {
            let fired = sink.count("WatchdogFired");
            println!(
                "watchdog: {} firings over {} failures, {} runs",
                fired, result.eval_failures, result.runs
            );
            if fired == 0 {
                violations.push("watchdog never fired under a universally hanging oracle".into());
            }
            if fired != result.eval_failures {
                violations.push(format!(
                    "watchdog fired {fired} times but {} failures were recorded",
                    result.eval_failures
                ));
            }
            if let Err(e) = invariants::check_trace(&sink.events(), Some(&truth)) {
                violations.push(format!("watchdog-run invariant violated: {e}"));
            }
        }
        Err(e) => violations.push(format!("watchdogged run failed: {e}")),
    }

    if violations.is_empty() {
        println!("recovery smoke PASSED");
    } else {
        eprintln!("recovery smoke FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
