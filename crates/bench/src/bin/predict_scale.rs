//! Predict-sweep scaling benchmark: the data-parallel pool sweep must
//! buy real wall-clock on multi-core machines, the cached-incremental
//! sweep must buy it everywhere, and neither may perturb a single bit.
//!
//! The pool is a large seeded query table swept by a fitted transfer GP
//! (the tuner's per-iteration hot loop at Scenario One scale). Four
//! gates:
//!
//! 1. **Worker speedup** (machine-gated): with ≥ 4 available cores, the
//!    4-worker sweep's busy interval (best-of-`REPS` wall-clock of the
//!    sweep itself) must be ≥ 2× shorter than the serial sweep's. On
//!    smaller machines the measurement still prints but the gate is
//!    skipped — CI runs this on 4-core runners.
//! 2. **Sweep determinism**: every worker count (1, 2, 4, 8) returns the
//!    serial sweep's exact bits, and so does the scalar per-query path.
//! 3. **Cache speedup + equivalence**: after incremental conditioning,
//!    the cached sweep (which pays only the appended-row tail per
//!    candidate) must be ≥ 2× faster than the from-scratch serial sweep
//!    and bit-identical to it. This gate is algorithmic — it does not
//!    depend on core count.
//! 4. **Trace determinism**: the tuner's canonical trace is
//!    byte-identical across `workers` budgets (parallel vs serial fits
//!    and sweeps).
//!
//! Usage: `cargo run --release -p bench --bin predict_scale -- [--smoke]`.
//! `--smoke` shrinks the pool and trims the trace sweep for CI. Exits
//! non-zero listing every violated gate.

use std::time::Instant;

use gp::{PredictCache, TaskData, TransferGp, TransferGpConfig};
use obs::RecordingSink;
use pdsim::ObjectiveSpace;
use ppatuner::{PpaTuner, PpaTunerConfig, SourceData, VecOracle};
use testkit::trace::canonical_jsonl;

/// Timing repetitions per measured path; the minimum is reported, so a
/// stray scheduler hiccup inflates one rep, not the gate.
const REPS: usize = 3;

/// Builds the fitted model and query pool for the sweep gates.
fn fit_pool(smoke: bool, seed: u64) -> (TransferGp, Vec<Vec<f64>>) {
    // Full mode mirrors the table2 perf size (the tuner's GP late in a
    // Scenario One run); smoke trims it for CI while keeping the sweep
    // long enough (hundreds of ms serial) that thread startup is noise.
    let (n_source, m_target, dim, pool) = if smoke {
        (140, 180, 7, 6_000)
    } else {
        (200, 260, 9, 20_000)
    };
    let (sx, sy) = bench::perfrun::synth_task(n_source, dim, seed, 0.0);
    let (tx, ty) = bench::perfrun::synth_task(m_target, dim, seed ^ 0x9e37, 0.3);
    let model = TransferGp::fit(
        TaskData::new(sx, sy),
        TaskData::new(tx, ty),
        TransferGpConfig::default_for_dim(dim),
    )
    .expect("synthetic pool model fits");
    let queries: Vec<Vec<f64>> = (0..pool)
        .map(|i| {
            (0..dim)
                .map(|d| ((i * 13 + d * 29 + 3 + seed as usize % 97) % 997) as f64 / 997.0)
                .collect()
        })
        .collect();
    (model, queries)
}

/// Best-of-[`REPS`] wall-clock of `f`, returning its last output too.
fn best_of<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let v = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("REPS >= 1"))
}

fn bits_equal(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((am, av), (bm, bv))| {
            am.to_bits() == bm.to_bits() && av.to_bits() == bv.to_bits()
        })
}

/// Runs the tuner scenario at the given `workers` budget and returns its
/// canonical trace.
fn tuner_trace(seed: u64, workers: usize) -> String {
    let scenario = benchgen::Scenario::two_with_counts(seed, 120, 160).with_source_budget(60);
    let space = ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("scenario source data");
    let config = PpaTunerConfig {
        initial_samples: 8,
        max_iterations: 6,
        refit_every: 4,
        seed,
        workers,
        ..Default::default()
    };
    let mut oracle = VecOracle::new(scenario.target_table(space));
    let sink = RecordingSink::new();
    PpaTuner::new(config)
        .run_observed(&source, &candidates, &mut oracle, &sink)
        .expect("predict_scale tuner run succeeds");
    canonical_jsonl(&sink.events())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = testkit::test_seed();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut violations: Vec<String> = Vec::new();

    let (model, queries) = fit_pool(smoke, seed);
    let pool = queries.len();
    println!(
        "pool: {} queries, {} training rows, {} cores available",
        pool,
        model.source_len() + model.target_len(),
        cores
    );

    // ------------------------------------------- gate 1: worker speedup
    let (serial_s, serial_out) = best_of(|| {
        model
            .predict_latent_batch(&queries, 1)
            .expect("serial sweep")
    });
    let (par_s, par_out) = best_of(|| {
        model
            .predict_latent_batch(&queries, 4)
            .expect("parallel sweep")
    });
    let par_speedup = serial_s / par_s.max(1e-12);
    println!(
        "sweep busy interval: serial {serial_s:.3}s, 4 workers {par_s:.3}s \
         ({par_speedup:.2}x)"
    );
    if cores >= 4 {
        if par_speedup < 2.0 {
            violations.push(format!(
                "4-worker sweep speedup is {par_speedup:.2}x on a {cores}-core \
                 machine, below the 2x gate"
            ));
        } else {
            println!("gate 1 OK: 4-worker sweep {par_speedup:.2}x >= 2x");
        }
    } else {
        println!("gate 1 SKIPPED: {cores} core(s) available, need >= 4 for the speedup gate");
    }

    // ---------------------------------------- gate 2: sweep determinism
    if !bits_equal(&par_out, &serial_out) {
        violations.push("4-worker sweep output differs from the serial sweep".into());
    }
    let mut determinism_ok = true;
    for workers in [2, 8] {
        let par = model
            .predict_latent_batch(&queries, workers)
            .expect("parallel sweep");
        if !bits_equal(&par, &serial_out) {
            determinism_ok = false;
            violations.push(format!(
                "sweep output at workers={workers} differs from serial"
            ));
        }
    }
    // The scalar path on a prefix spanning a partial last chunk.
    let prefix = &queries[..pool.min(2 * gp::PREDICT_BLOCK + 5)];
    let scalar: Vec<(f64, f64)> = prefix
        .iter()
        .map(|x| model.predict_latent(x).expect("scalar predict"))
        .collect();
    if !bits_equal(&scalar, &serial_out[..prefix.len()]) {
        determinism_ok = false;
        violations.push("scalar predictions differ from the serial sweep".into());
    }
    if determinism_ok {
        println!("gate 2 OK: sweep bits invariant across worker counts and the scalar path");
    }

    // ------------------------------- gate 3: cache speedup + equivalence
    // Prime the cache against the current factor (untimed), append a few
    // rows incrementally, then race the cached sweep against the
    // from-scratch serial sweep — the tuner's steady-state iteration.
    let mut cached_model = model.clone();
    let ids: Vec<u64> = (0..pool as u64).collect();
    let mut cache = PredictCache::new();
    cache.begin_sweep();
    let _ = cached_model
        .predict_latent_batch_cached(&ids, &queries, 1, &mut cache)
        .expect("cache-priming sweep");
    let dim = queries[0].len();
    let (ax, ay) = bench::perfrun::synth_task(3, dim, seed ^ 0x517c, 0.55);
    cached_model
        .condition_on(&ax, &ay)
        .expect("incremental conditioning");
    let (scratch_s, scratch_out) = best_of(|| {
        cached_model
            .predict_latent_batch(&queries, 1)
            .expect("post-conditioning serial sweep")
    });
    let (cached_s, cached_out) = best_of(|| {
        cache.begin_sweep();
        cached_model
            .predict_latent_batch_cached(&ids, &queries, 1, &mut cache)
            .expect("cached sweep")
    });
    let cached_speedup = scratch_s / cached_s.max(1e-12);
    println!(
        "cached sweep after +3 rows: from-scratch {scratch_s:.3}s, cached {cached_s:.3}s \
         ({cached_speedup:.2}x)"
    );
    if !bits_equal(&cached_out, &scratch_out) {
        violations.push("cached sweep output differs from the from-scratch sweep".into());
    } else if cached_speedup < 2.0 {
        violations.push(format!(
            "cached sweep speedup is {cached_speedup:.2}x, below the 2x gate"
        ));
    } else {
        println!("gate 3 OK: cached sweep {cached_speedup:.2}x >= 2x, bit-identical");
    }

    // ----------------------------------------- gate 4: trace determinism
    // `workers` budgets whose canonical traces must all match; the first
    // entry is the serial reference.
    let sweep: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let traces: Vec<(usize, String)> = sweep.iter().map(|&w| (w, tuner_trace(seed, w))).collect();
    let mut trace_ok = true;
    for (w, trace) in traces.iter().skip(1) {
        if trace != &traces[0].1 {
            trace_ok = false;
            violations.push(format!(
                "canonical trace at workers={w} differs from the serial reference"
            ));
        }
    }
    if trace_ok {
        println!("gate 4 OK: canonical trace byte-identical across workers {sweep:?}");
    }

    if violations.is_empty() {
        println!("predict_scale PASSED");
    } else {
        eprintln!("predict_scale FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
