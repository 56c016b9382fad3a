//! Aggregates a JSONL event trace (written via `--trace <path>` by the
//! experiment bins, or by any [`obs::JsonlSink`]) into a timing and
//! convergence summary: where the wall-clock went per phase and causal
//! span, how the δ-dominance classification progressed, how the GP fits
//! behaved, and what resources the hot paths consumed.
//!
//! Usage:
//!
//! ```text
//! trace_report <trace.jsonl> [--lenient]
//! trace_report --fleet <dir> [--lenient]
//! ```
//!
//! Malformed lines abort with a nonzero exit and a line number;
//! `--lenient` skips and counts them instead. `--fleet <dir>` ingests
//! every `*.jsonl` in the directory and prints cross-run aggregates
//! (hv-convergence quantiles, failure/retry/quarantine rates, per-phase
//! time, slowest spans).

use std::collections::BTreeMap;

use bench::fleet::{self, FleetReport};
use obs::Event;

/// Slowest-span entries shown by the fleet view.
const FLEET_TOP_K: usize = 10;

fn parse_file(path: &str, lenient: bool) -> Vec<Event> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read trace {path}: {e}");
        std::process::exit(1);
    });
    match fleet::parse_jsonl(&text, lenient) {
        Ok(parsed) => {
            if parsed.skipped > 0 {
                eprintln!(
                    "warning: {path}: skipped {} malformed line(s)",
                    parsed.skipped
                );
            }
            parsed.events
        }
        Err(e) => {
            eprintln!(
                "error: {path}:{}: {} (rerun with --lenient to skip)",
                e.line, e.message
            );
            std::process::exit(1);
        }
    }
}

fn fleet_main(dir: &str, lenient: bool) {
    let mut files: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect(),
        Err(e) => {
            eprintln!("error: cannot read fleet directory {dir}: {e}");
            std::process::exit(1);
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("error: fleet directory {dir} contains no *.jsonl traces");
        std::process::exit(1);
    }
    let mut report = FleetReport::default();
    for path in &files {
        let events = parse_file(&path.to_string_lossy(), lenient);
        let name = path.file_stem().map_or_else(
            || path.to_string_lossy().into_owned(),
            |s| s.to_string_lossy().into_owned(),
        );
        report.runs.push(fleet::summarize_run(&name, &events));
    }
    print!("{}", report.render(FLEET_TOP_K));
}

#[derive(Default)]
struct Phase {
    count: usize,
    seconds: f64,
}

impl Phase {
    fn add(&mut self, secs: f64) {
        self.count += 1;
        self.seconds += secs;
    }
}

fn main() {
    let mut lenient = false;
    let mut fleet_dir: Option<String> = None;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--lenient" => lenient = true,
            "--fleet" => fleet_dir = args.next(),
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if let Some(dir) = fleet_dir {
        fleet_main(&dir, lenient);
        return;
    }
    let Some(path) = path else {
        eprintln!("usage: trace_report <trace.jsonl> [--lenient] | --fleet <dir> [--lenient]");
        std::process::exit(2);
    };
    let events = parse_file(&path, lenient);
    if events.is_empty() {
        eprintln!("trace {path} contains no events");
        std::process::exit(1);
    }

    let mut phases: BTreeMap<String, Phase> = BTreeMap::new();
    let mut iterations: Vec<(usize, usize, usize, usize, usize, f64)> = Vec::new();
    let mut gp_evals = 0usize;
    let mut gp_cached_evals = 0usize;
    let mut gp_fresh_evals = 0usize;
    let mut gp_restarts = 0usize;
    let mut gp_refits = 0usize;
    let mut gp_jittered = 0usize;
    let mut predict_seconds = 0.0f64;
    let mut lambda_by_objective: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut run_start: Option<String> = None;
    let mut run_end: Option<String> = None;
    let mut failures_by_kind: BTreeMap<String, usize> = BTreeMap::new();
    let mut retries = 0usize;
    let mut quarantined: Vec<usize> = Vec::new();
    let mut checkpoints = 0usize;
    let mut last_checkpoint: Option<(usize, usize)> = None;
    let mut batch_selects = 0usize;
    let mut batch_members = 0usize;
    let mut batch_q = 0usize;
    let mut spans: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    let mut slowest: Vec<(f64, u64, String)> = Vec::new();
    let mut resources = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut predict_resources = (0u64, 0u64, 0u64, 0u64);
    let mut pool_refines: Vec<(usize, usize, usize, usize, f64)> = Vec::new();
    let mut pool_splits_total = 0usize;
    let mut predict_modes: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    let mut degraded_by_mode: BTreeMap<String, usize> = BTreeMap::new();
    let mut degraded_max_streak = 0usize;
    let mut recovery_scans = 0usize;
    let mut recovery_skipped = 0usize;
    let mut watchdog_firings = 0usize;

    for e in &events {
        match e {
            Event::RunStart {
                candidates,
                objectives,
                dim,
                initial_samples,
                max_iterations,
                seed,
            } => {
                run_start = Some(format!(
                    "{candidates} candidates, {objectives} objectives, dim {dim}, \
                     {initial_samples} initial samples, cap {max_iterations} iters, seed {seed}"
                ));
            }
            Event::GpFit {
                objective,
                refit,
                lambda,
                restarts,
                evals,
                cached_evals,
                fresh_evals,
                jitter,
                duration_s,
                ..
            } => {
                phases.entry("gp-fit".into()).or_default().add(*duration_s);
                gp_evals += evals;
                gp_cached_evals += cached_evals;
                gp_fresh_evals += fresh_evals;
                gp_restarts += restarts;
                gp_refits += usize::from(*refit);
                gp_jittered += usize::from(*jitter > 0.0);
                lambda_by_objective
                    .entry(*objective)
                    .and_modify(|(_, last)| *last = *lambda)
                    .or_insert((*lambda, *lambda));
            }
            Event::ToolEval { duration_s, .. } => {
                phases
                    .entry("tool-eval".into())
                    .or_default()
                    .add(*duration_s);
            }
            Event::IterationEnd {
                iteration,
                runs,
                pareto,
                dropped,
                undecided,
                hypervolume,
                duration_s,
                predict_s,
                ..
            } => {
                phases
                    .entry("iteration".into())
                    .or_default()
                    .add(*duration_s);
                predict_seconds += predict_s;
                iterations.push((
                    *iteration,
                    *runs,
                    *pareto,
                    *dropped,
                    *undecided,
                    *hypervolume,
                ));
            }
            Event::RunEnd {
                iterations: it,
                runs,
                verification_runs,
                pareto,
                duration_s,
            } => {
                run_end = Some(format!(
                    "{it} iterations, {runs} runs (+{verification_runs} verification), \
                     {pareto} pareto points, {duration_s:.3} s total"
                ));
            }
            Event::EvalFailed { kind, .. } => {
                *failures_by_kind.entry(kind.clone()).or_default() += 1;
            }
            Event::EvalRetry { .. } => retries += 1,
            Event::CandidateQuarantined { candidate, .. } => quarantined.push(*candidate),
            Event::Checkpoint {
                iteration, runs, ..
            } => {
                checkpoints += 1;
                last_checkpoint = Some((*iteration, *runs));
            }
            Event::SpanEnd {
                id,
                name,
                duration_s,
            } => {
                let entry = spans.entry(name.clone()).or_default();
                entry.0 += 1;
                entry.1 += duration_s;
                slowest.push((*duration_s, *id, name.clone()));
            }
            Event::ResourceSample {
                chol_flops,
                chol_panels,
                tri_solve_rhs,
                fitcache_hits,
                fitcache_misses,
                kernel_assemblies,
                predict_cache_hits,
                predict_cache_misses,
                predict_cache_evictions,
                predict_chunks,
                ..
            } => {
                resources.0 += chol_flops;
                resources.1 += chol_panels;
                resources.2 += tri_solve_rhs;
                resources.3 += fitcache_hits;
                resources.4 += fitcache_misses;
                resources.5 += kernel_assemblies;
                predict_resources.0 += predict_cache_hits;
                predict_resources.1 += predict_cache_misses;
                predict_resources.2 += predict_cache_evictions;
                predict_resources.3 += predict_chunks;
            }
            Event::BatchSelect { q, chosen, .. } => {
                batch_selects += 1;
                batch_members += chosen.len();
                batch_q = batch_q.max(*q);
            }
            Event::PoolRefine {
                iteration,
                splits,
                leaves,
                pool_size,
                effective_pool,
            } => {
                pool_splits_total += splits;
                pool_refines.push((*iteration, *splits, *leaves, *pool_size, *effective_pool));
            }
            Event::PredictMode { mode, queries, .. } => {
                let entry = predict_modes.entry(mode.clone()).or_default();
                entry.0 += 1;
                entry.1 += queries;
            }
            Event::DegradedFit {
                mode, consecutive, ..
            } => {
                *degraded_by_mode.entry(mode.clone()).or_default() += 1;
                degraded_max_streak = degraded_max_streak.max(*consecutive);
            }
            Event::RecoveryScan { skipped, .. } => {
                recovery_scans += 1;
                recovery_skipped += skipped;
            }
            Event::WatchdogFired { .. } => watchdog_firings += 1,
            Event::Classify { .. }
            | Event::RegionSnapshot { .. }
            | Event::Select { .. }
            | Event::SpanStart { .. }
            | Event::Message { .. } => {}
        }
    }

    println!("trace report: {path} ({} events)", events.len());
    if let Some(s) = &run_start {
        println!("run:   {s}");
    }
    if let Some(s) = &run_end {
        println!("done:  {s}");
    }

    println!("\nwhere the time went:");
    println!(
        "{:<14} {:>8} {:>12} {:>12}",
        "phase", "count", "total s", "mean ms"
    );
    for (name, p) in &phases {
        println!(
            "{:<14} {:>8} {:>12.3} {:>12.2}",
            name,
            p.count,
            p.seconds,
            if p.count == 0 {
                0.0
            } else {
                p.seconds / p.count as f64 * 1e3
            }
        );
    }

    if gp_refits > 0 || gp_evals > 0 {
        println!(
            "\ngp fitting: {gp_refits} full refits ({gp_restarts} restarts, {gp_evals} objective \
             evals), {gp_jittered} fits needed Cholesky jitter"
        );
        println!(
            "  objective evals: {gp_cached_evals} distance-cached, {gp_fresh_evals} fresh model \
             builds; box prediction {predict_seconds:.3} s total"
        );
        for (k, (first, last)) in &lambda_by_objective {
            println!("  objective {k}: lambda {first:.3} -> {last:.3}");
        }
    }

    if !iterations.is_empty() {
        println!("\nclassification trajectory (iteration: runs, pareto/dropped/undecided, hv):");
        let stride = (iterations.len() / 12).max(1);
        for (n, (it, runs, pareto, dropped, undecided, hv)) in iterations.iter().enumerate() {
            if n % stride == 0 || n + 1 == iterations.len() {
                println!(
                    "  {it:>4}: runs {runs:>5}  P {pareto:>4}  D {dropped:>4}  U {undecided:>4}  \
                     hv {hv:.4}"
                );
            }
        }
        let (first, last) = (&iterations[0], &iterations[iterations.len() - 1]);
        println!(
            "  undecided {} -> {}, hypervolume {:.4} -> {:.4}",
            first.4, last.4, first.5, last.5
        );
    }

    if batch_selects > 0 {
        println!(
            "\nbatch selection: {batch_selects} waves at q = {batch_q}, {batch_members} members \
             total (mean {:.1} per wave)",
            batch_members as f64 / batch_selects as f64
        );
    }

    if !pool_refines.is_empty() {
        let last = pool_refines[pool_refines.len() - 1];
        println!(
            "\nadaptive pool: {pool_splits_total} splits over {} refinement passes",
            pool_refines.len()
        );
        println!(
            "  final: {} leaves, {} candidates, effective pool {:.0}",
            last.2, last.3, last.4
        );
        let stride = (pool_refines.len() / 12).max(1);
        println!("  refinement trajectory (iteration: splits, leaves, pool, effective):");
        for (n, (it, splits, leaves, pool, eff)) in pool_refines.iter().enumerate() {
            if n % stride == 0 || n + 1 == pool_refines.len() {
                println!(
                    "  {it:>4}: +{splits:<3} leaves {leaves:>6}  pool {pool:>6}  eff {eff:>10.0}"
                );
            }
        }
    }
    if !predict_modes.is_empty() {
        println!("\npredict path usage (posterior backend per iteration):");
        for (mode, (iters, queries)) in &predict_modes {
            println!("  {mode:<8} {iters:>5} iterations, {queries:>8} box queries");
        }
    }

    let total_failures: usize = failures_by_kind.values().sum();
    if total_failures > 0 || !quarantined.is_empty() {
        println!("\nevaluation failures:");
        for (kind, count) in &failures_by_kind {
            println!("  {kind:<12} {count:>5}");
        }
        println!("  {retries} retries issued");
        if quarantined.is_empty() {
            println!("  no candidates quarantined (every failure recovered on retry)");
        } else {
            println!(
                "  {} candidates quarantined: {:?}",
                quarantined.len(),
                quarantined
            );
        }
    }
    if checkpoints > 0 {
        let (it, runs) = last_checkpoint.expect("count implies a checkpoint was seen");
        println!("\ncheckpoints: {checkpoints} written, last at iteration {it} ({runs} runs)");
    }

    let degraded_total: usize = degraded_by_mode.values().sum();
    if degraded_total + recovery_scans + watchdog_firings > 0 {
        println!("\nresilience:");
        if degraded_total > 0 {
            let modes: Vec<String> = degraded_by_mode
                .iter()
                .map(|(mode, count)| format!("{count} {mode}"))
                .collect();
            println!(
                "  {degraded_total} degraded fits ({}), longest streak {degraded_max_streak}",
                modes.join(", ")
            );
        }
        if recovery_scans > 0 {
            println!(
                "  {recovery_scans} recovery scans skipped {recovery_skipped} damaged \
                 checkpoint(s)"
            );
        }
        if watchdog_firings > 0 {
            println!("  {watchdog_firings} watchdog deadline firings");
        }
    }

    if !spans.is_empty() {
        println!("\ncausal spans:");
        println!(
            "{:<14} {:>8} {:>12} {:>12}",
            "span", "count", "total s", "mean ms"
        );
        for (name, (count, secs)) in &spans {
            println!(
                "{:<14} {:>8} {:>12.3} {:>12.2}",
                name,
                count,
                secs,
                secs / (*count).max(1) as f64 * 1e3
            );
        }
        slowest.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        println!("  slowest:");
        for (secs, id, name) in slowest.iter().take(5) {
            println!("  {:>10.1} ms  {name:<12} #{id}", secs * 1e3);
        }
    }

    let (flops, panels, rhs, hits, misses, kernels) = resources;
    if flops + panels + rhs + hits + misses + kernels > 0 {
        println!(
            "\nresources: {flops} Cholesky flops in {panels} panels, {rhs} triangular-solve \
             rhs, fitcache {hits} hits / {misses} misses, {kernels} kernel assemblies"
        );
    }
    let (p_hits, p_misses, p_evict, p_chunks) = predict_resources;
    if p_hits + p_misses + p_evict + p_chunks > 0 {
        let served = p_hits + p_misses;
        let rate = if served > 0 {
            100.0 * p_hits as f64 / served as f64
        } else {
            0.0
        };
        println!(
            "predict sweep: cache {p_hits} hits / {p_misses} misses ({rate:.1}% hit), \
             {p_evict} evictions, {p_chunks} chunks dispatched"
        );
    }
}
