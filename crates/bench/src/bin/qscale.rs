//! q-batch scaling benchmark: concurrent oracle fan-out must buy
//! near-linear oracle wall-clock without costing solution quality or
//! determinism.
//!
//! The oracle is a *sleepy* table — the golden QoR values of the seeded
//! Scenario Two, each evaluation sleeping a deterministic 2–4 ms (hashed
//! from the candidate index) while recording its busy interval. That
//! makes oracle wall-clock measurable and the parallelism of a wave
//! directly observable as interval overlap. Four gates:
//!
//! 1. **Oracle speedup**: at `q = 4` (a wave runs each member on its own
//!    thread), the summed busy time divided by the union of busy
//!    intervals (the parallelism factor — exactly the wall-clock speedup
//!    over running the same attempts serially) must be ≥ 3×.
//! 2. **Equal-budget quality**: every `q > 1` run must reach its final
//!    classified front with at most 25 % more tool runs than `q = 1`,
//!    scoring a hypervolume error and ADRS within 1.05× of the `q = 1`
//!    front. (Prefix fronts at the smallest common budget are printed as
//!    diagnostics — batch diversity reorders the evaluation stream, so
//!    tiny prefix fronts wobble a few percent either way.)
//! 3. **Worker-count determinism**: the canonical trace at `q = 4` is
//!    byte-identical for every `workers` budget swept (1, 2, 4, and 8;
//!    1 and 4 in smoke mode).
//! 4. **Repeat determinism**: re-running any configuration reproduces
//!    its canonical trace byte for byte.
//!
//! Usage: `cargo run --release -p bench --bin qscale -- [--smoke]`.
//! `--smoke` trims the sweep (q ∈ {1, 4}, fewer determinism repeats) for
//! CI; the full mode also covers q = 2. Exits non-zero listing every
//! violated gate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use obs::RecordingSink;
use pdsim::ObjectiveSpace;
use ppatuner::{ConcurrentOracle, EvalError, PpaTuner, PpaTunerConfig, SourceData, TuneResult};
use testkit::trace::canonical_jsonl;

/// A table oracle that sleeps a deterministic per-candidate latency and
/// records every evaluation's busy interval against a shared origin.
struct SleepyOracle {
    table: Vec<Vec<f64>>,
    origin: Instant,
    runs: AtomicUsize,
    busy: Mutex<Vec<(f64, f64)>>,
}

impl SleepyOracle {
    fn new(table: Vec<Vec<f64>>) -> Self {
        SleepyOracle {
            table,
            origin: Instant::now(),
            runs: AtomicUsize::new(0),
            busy: Mutex::new(Vec::new()),
        }
    }

    /// Deterministic latency in 2.8–3.2 ms, hashed from the index
    /// (SplitMix64) so reruns and worker counts see identical
    /// per-candidate costs. The spread keeps completion order scrambled
    /// (stressing the deterministic merge) while staying narrow enough
    /// that a full 4-wave's intrinsic parallelism (Σ latency / max
    /// latency) clears the 3× gate.
    fn latency_us(index: usize) -> u64 {
        let mut z = (index as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        2800 + (z ^ (z >> 31)) % 400
    }

    fn busy_intervals(&self) -> Vec<(f64, f64)> {
        self.busy.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

impl ConcurrentOracle for SleepyOracle {
    fn evaluate(&self, index: usize) -> Result<Vec<f64>, EvalError> {
        self.runs.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_secs_f64();
        std::thread::sleep(Duration::from_micros(Self::latency_us(index)));
        let end = self.origin.elapsed().as_secs_f64();
        self.busy
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push((start, end));
        self.table.get(index).cloned().ok_or(EvalError::OutOfRange {
            index,
            len: self.table.len(),
        })
    }

    fn runs(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }
}

/// Sum and union (merged length) of a set of busy intervals.
fn busy_stats(mut intervals: Vec<(f64, f64)>) -> (f64, f64) {
    let sum: f64 = intervals.iter().map(|(s, e)| e - s).sum();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut union = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                union += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        union += ce - cs;
    }
    (sum, union)
}

struct RunOutput {
    result: TuneResult,
    trace: String,
    busy_sum: f64,
    busy_union: f64,
}

fn run_config(q: usize, workers: usize) -> RunOutput {
    let scenario = benchgen::Scenario::two_with_counts(9, 120, 100).with_source_budget(60);
    let space = ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("scenario source data");
    let config = PpaTunerConfig {
        // Divisible by every q in the sweep, so initialization fans out
        // in full waves (a trailing 2-wave would dilute the parallelism
        // measurement without testing anything new).
        initial_samples: 12,
        max_iterations: 20,
        tau: 3.0,
        seed: testkit::test_seed(),
        batch_size: q,
        workers,
        ..Default::default()
    };
    let oracle = SleepyOracle::new(scenario.target_table(space));
    let sink = RecordingSink::new();
    let result = PpaTuner::new(config)
        .run_observed(&source, &candidates, &oracle, &sink)
        .expect("qscale run succeeds");
    let (busy_sum, busy_union) = busy_stats(oracle.busy_intervals());
    RunOutput {
        result,
        trace: canonical_jsonl(&sink.events()),
        busy_sum,
        busy_union,
    }
}

/// Pareto front of the first `budget` accepted evaluations, scored
/// against the scenario's golden front.
fn equal_budget_score(result: &TuneResult, budget: usize) -> bench::MethodScore {
    let scenario = benchgen::Scenario::two_with_counts(9, 120, 100).with_source_budget(60);
    let space = ObjectiveSpace::PowerDelay;
    let prefix = &result.evaluated[..budget.min(result.evaluated.len())];
    let qors: Vec<Vec<f64>> = prefix.iter().map(|(_, y)| y.clone()).collect();
    let front: Vec<usize> = testkit::reference::pareto_front(&qors)
        .into_iter()
        .map(|pos| prefix[pos].0)
        .collect();
    bench::score(&scenario, space, &front, budget)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let qs: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4] };
    let worker_sweep: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut violations: Vec<String> = Vec::new();

    // ------------------------------------------------------- q sweep
    let mut outputs: Vec<(usize, RunOutput)> = Vec::new();
    for &q in qs {
        let out = run_config(q, 1);
        println!(
            "q={q}: {} runs, oracle busy {:.3}s over {:.3}s wall \
             (parallelism {:.2}x), {} evaluated, {} iterations",
            out.result.runs + out.result.verification_runs,
            out.busy_sum,
            out.busy_union,
            out.busy_sum / out.busy_union.max(1e-12),
            out.result.evaluated.len(),
            out.result.iterations,
        );
        outputs.push((q, out));
    }

    // Gate 1: oracle wall-clock speedup at q = 4.
    let q4 = &outputs.iter().find(|(q, _)| *q == 4).expect("q=4 ran").1;
    let parallelism = q4.busy_sum / q4.busy_union.max(1e-12);
    if parallelism < 3.0 {
        violations.push(format!(
            "oracle parallelism at q=4 is {parallelism:.2}x, below the 3x gate"
        ));
    } else {
        println!("gate 1 OK: q=4 oracle wall-clock speedup {parallelism:.2}x >= 3x");
    }

    // Gate 2: final-front quality at comparable tool-run budget.
    let scenario = benchgen::Scenario::two_with_counts(9, 120, 100).with_source_budget(60);
    let space = ObjectiveSpace::PowerDelay;
    let budget_of = |r: &TuneResult| r.runs + r.verification_runs;
    let base_result = &outputs[0].1.result;
    let base = bench::score(
        &scenario,
        space,
        &base_result.pareto_indices,
        budget_of(base_result),
    );
    println!(
        "final front: q=1 hv {:.6} adrs {:.6} at {} tool runs",
        base.hv_error,
        base.adrs,
        budget_of(base_result)
    );
    for (q, out) in outputs.iter().skip(1) {
        let s = bench::score(
            &scenario,
            space,
            &out.result.pareto_indices,
            budget_of(&out.result),
        );
        println!(
            "final front: q={q} hv {:.6} adrs {:.6} at {} tool runs",
            s.hv_error,
            s.adrs,
            budget_of(&out.result)
        );
        if budget_of(&out.result) * 4 > budget_of(base_result) * 5 {
            violations.push(format!(
                "q={q} consumed {} tool runs, more than 1.25x the q=1 budget of {}",
                budget_of(&out.result),
                budget_of(base_result)
            ));
        }
        if s.hv_error.abs() > base.hv_error.abs() * 1.05 + 1e-9 {
            violations.push(format!(
                "q={q} hv error {} exceeds 1.05x the q=1 front's {}",
                s.hv_error, base.hv_error
            ));
        }
        if s.adrs.abs() > base.adrs.abs() * 1.05 + 1e-9 {
            violations.push(format!(
                "q={q} ADRS {} exceeds 1.05x the q=1 front's {}",
                s.adrs, base.adrs
            ));
        }
    }

    // Diagnostics: prefix fronts at the smallest common accepted-eval
    // budget (not gated; see the module docs).
    let prefix_budget = outputs
        .iter()
        .map(|(_, o)| o.result.evaluated.len())
        .min()
        .expect("at least one run");
    for (q, out) in &outputs {
        let s = equal_budget_score(&out.result, prefix_budget);
        println!(
            "prefix front B={prefix_budget}: q={q} hv {:.6} adrs {:.6}",
            s.hv_error, s.adrs
        );
    }

    // Gate 3: worker-count determinism at q = 4.
    let traces: Vec<(usize, String)> = worker_sweep
        .iter()
        .map(|&w| (w, run_config(4, w).trace))
        .collect();
    for (w, trace) in traces.iter().skip(1) {
        if trace != &traces[0].1 {
            violations.push(format!(
                "canonical trace at q=4 differs between {} and {w} workers",
                traces[0].0
            ));
        }
    }
    if traces.iter().skip(1).all(|(_, t)| t == &traces[0].1) {
        println!("gate 3 OK: q=4 canonical trace identical across workers {worker_sweep:?}");
    }

    // Gate 4: repeat determinism: re-run the q=4 configuration of the
    // sweep above.
    let repeat = run_config(4, 1);
    if repeat.trace != q4.trace {
        violations.push("repeat run of q=4 produced a different canonical trace".into());
    } else {
        println!("gate 4 OK: repeat q=4 run is byte-identical");
    }

    if violations.is_empty() {
        println!("qscale PASSED");
    } else {
        eprintln!("qscale FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
