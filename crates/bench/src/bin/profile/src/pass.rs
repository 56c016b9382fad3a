//! One pass of a workload, run in a process of its own (`--pass`): set
//! up the pass's inputs, run every tuner instance of it, and report what
//! was measured as one JSON line for the parent run to fold.
//!
//! A fresh process per pass keeps the peak resident set and the
//! process-global `linalg`/`gp` counters per pass.

use std::path::Path;
use std::time::Instant;

use gp::GpCounters;
use obs::NULL_SINK;
use serde::{Deserialize, Serialize};

use crate::analysis::{median, Fold, Probe};
use crate::workload::{self, digest, RunOutcome, Workload};

/// What a pass is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The first tuner run of pass 0, untimed: warms the OS caches and,
    /// compared with the timed pass 0, checks determinism across
    /// processes.
    WarmUp,
    /// A timed pass with tracing off.
    Timed,
    /// Pass 0 again, with the benchmark's recording observer: the
    /// per-layer metrics.
    Traced,
}

impl Role {
    /// The role's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Role::WarmUp => "warm-up",
            Role::Timed => "timed",
            Role::Traced => "traced",
        }
    }

    /// The role called `name`.
    pub fn parse(name: &str) -> Option<Role> {
        [Role::WarmUp, Role::Timed, Role::Traced]
            .into_iter()
            .find(|r| r.name() == name)
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
}

/// A [`Metric`].
pub fn metric(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit: unit.into(),
        value,
    }
}

/// One tuner run of a pass, as the parent run needs it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Objective space and seed, for messages.
    pub label: String,
    /// [`digest`] of the tuner's answer.
    pub digest: String,
    /// The tuner returned a result rather than an error.
    pub ok: bool,
    /// Tool-idle seconds from the end of the initial design to the first
    /// selected configuration.
    pub first_pick_s: Option<f64>,
    /// Steady-state tool-idle gaps, in seconds.
    pub steady_s: Vec<f64>,
    /// Hypervolume error of the final front.
    pub hv_error: Option<f64>,
    /// ADRS of the final front.
    pub adrs: Option<f64>,
    /// `runs + verification_runs`.
    pub tool_runs: usize,
    /// Failed oracle attempts.
    pub eval_failures: usize,
    /// Violated output checks.
    pub problems: Vec<String>,
}

impl RunSummary {
    fn of(outcome: &RunOutcome) -> RunSummary {
        let gaps = outcome.gaps();
        let ok = outcome.result.as_ref().ok();
        RunSummary {
            label: outcome.label.clone(),
            digest: digest(&outcome.result),
            ok: ok.is_some(),
            first_pick_s: gaps.first_pick,
            steady_s: gaps.steady,
            hv_error: outcome.score.map(|s| s.hv_error),
            adrs: outcome.score.map(|s| s.adrs),
            tool_runs: ok.map_or(0, |r| r.runs + r.verification_runs),
            eval_failures: ok.map_or(0, |r| r.eval_failures),
            problems: outcome.problems.clone(),
        }
    }
}

/// Everything one pass measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassReport {
    /// Seconds building the pass's inputs.
    pub setup_s: f64,
    /// Wall-clock seconds of all tuner runs of the pass.
    pub wall_s: f64,
    /// On-CPU seconds of the process over those runs, all threads.
    pub cpu_s: Option<f64>,
    /// Peak resident set of the process, in MB.
    pub peak_rss_mb: Option<f64>,
    /// The tuner runs, in order.
    pub runs: Vec<RunSummary>,
    /// Per-layer metrics (traced pass only).
    pub layers: Vec<Metric>,
    /// Violated checks of the pass as a whole.
    pub problems: Vec<String>,
}

/// Process CPU time (user + system, all threads) from `/proc/self/stat`,
/// whose tick is the kernel's fixed `USER_HZ` of 100.
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name start at field 3.
    let (_, rest) = stat.rsplit_once(')')?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some((tick(11)? + tick(12)?) as f64 / 100.0)
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1e3)
}

/// Runs pass `pass` of `workload` in this process. `work_dir` holds the
/// durable workload's checkpoint chain; a traced pass writes its events
/// under `trace_dir` when given.
pub fn run(
    workload: Workload,
    seed: u64,
    pass: usize,
    role: Role,
    smoke: bool,
    work_dir: &Path,
    trace_dir: Option<&Path>,
) -> PassReport {
    let t = Instant::now();
    let mut inputs = workload::setup(workload, seed, pass, smoke);
    let setup_s = t.elapsed().as_secs_f64();
    if role == Role::WarmUp {
        inputs.truncate(1);
    }

    let counters = GpCounters::snapshot();
    let cpu = cpu_seconds();
    let t = Instant::now();
    let mut outcomes = Vec::new();
    let mut traces = Vec::new();
    let mut emit_s = 0.0;
    for input in &inputs {
        if role == Role::Traced {
            let probe = Probe::default();
            outcomes.push(workload::run(input, &probe, work_dir));
            let (events, s) = probe.finish();
            emit_s += s;
            traces.push(events);
        } else {
            outcomes.push(workload::run(input, &NULL_SINK, work_dir));
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu.zip(cpu_seconds()).map(|(a, b)| b - a);
    let counters = GpCounters::snapshot().since(&counters);

    let mut problems = Vec::new();
    let mut layers = Vec::new();
    if role == Role::Traced {
        if let Some(dir) = trace_dir {
            if let Err(e) = write_traces(dir, workload, seed, &traces) {
                problems.push(format!("writing traces to {}: {e}", dir.display()));
            }
        }
        let mut fold = Fold::default();
        for events in &traces {
            fold.absorb(Fold::of_run(events));
        }
        if (fold.attributed_total() - fold.run_s).abs() > 0.01 * fold.run_s {
            problems.push(format!(
                "layer self times add up to {:.6} s, run spans to {:.6} s",
                fold.attributed_total(),
                fold.run_s
            ));
        }
        layers = per_layer(&fold, &counters, &outcomes, emit_s);
    }
    PassReport {
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mb: peak_rss_mb(),
        runs: outcomes.iter().map(RunSummary::of).collect(),
        layers,
        problems,
    }
}

/// `part / whole`, or 0 without a whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Median that reads 0 for an empty sample (a layer the workload does
/// not exercise).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The per-layer table of a traced pass, from its span fold, the
/// process's counters and the benchmark's oracle and store wrappers.
fn per_layer(fold: &Fold, counters: &GpCounters, runs: &[RunOutcome], emit_s: f64) -> Vec<Metric> {
    let results: Vec<_> = runs.iter().filter_map(|r| r.result.as_ref().ok()).collect();
    let sum = |f: fn(&ppatuner::TuneResult) -> usize| results.iter().map(|r| f(r)).sum::<usize>();
    let attempts: usize = runs.iter().map(|r| r.calls.len()).sum();
    let failed = sum(|r| r.eval_failures);
    let busy_s: f64 = runs
        .iter()
        .flat_map(|r| &r.calls)
        .map(|c| c.end - c.start)
        .sum();
    let saves: Vec<f64> = runs.iter().flat_map(|r| r.save_s.iter().copied()).collect();
    let golden_hits: usize = runs.iter().map(|r| r.golden_hits).sum();
    let chol_gflop = counters.linalg.chol_flops as f64 * 1e-9;
    let hits = |h: u64, m: u64| ratio(h as f64, (h + m) as f64);
    vec![
        metric("gp.fit_s", "s", fold.fit_s),
        metric("gp.fit_share", "share", ratio(fold.fit_s, fold.run_s)),
        metric("gp.refits", "count", fold.refit_ms.len() as f64),
        metric("gp.refit_p50_ms", "ms", median_or_zero(&fold.refit_ms)),
        metric("gp.search_evals", "count", fold.search_evals as f64),
        metric(
            "gp.fitcache_hit_ratio",
            "ratio",
            hits(counters.fitcache_hits, counters.fitcache_misses),
        ),
        metric(
            "gp.kernel_assemblies",
            "count",
            counters.kernel_assemblies as f64,
        ),
        metric("gp.degraded_fits", "count", sum(|r| r.degraded_fits) as f64),
        metric(
            "gp.condition_p50_ms",
            "ms",
            median_or_zero(&fold.condition_ms),
        ),
        metric("gp.predict_s", "s", fold.predict_s),
        metric(
            "gp.predict_share",
            "share",
            ratio(fold.predict_s, fold.run_s),
        ),
        metric(
            "gp.predict_cache_hit_ratio",
            "ratio",
            hits(counters.predict_cache_hits, counters.predict_cache_misses),
        ),
        metric(
            "gp.predict_cache_evictions",
            "count",
            counters.predict_cache_evictions as f64,
        ),
        metric("linalg.chol_gflop", "GFLOP", chol_gflop),
        metric(
            "linalg.chol_panels",
            "count",
            counters.linalg.chol_panels as f64,
        ),
        metric(
            "linalg.tri_solve_rhs",
            "count",
            counters.linalg.tri_solve_rhs as f64,
        ),
        metric(
            "linalg.chol_gflop_per_s",
            "GFLOP/s",
            ratio(chol_gflop, fold.fit_s),
        ),
        metric("decision.classify_s", "s", fold.classify_s),
        metric(
            "decision.classify_share",
            "share",
            ratio(fold.classify_s, fold.run_s),
        ),
        metric(
            "decision.classify_p50_ms",
            "ms",
            median_or_zero(&fold.classify_ms),
        ),
        metric("decision.undecided_sum", "count", fold.undecided_sum as f64),
        metric("decision.select_s", "s", fold.select_s),
        metric(
            "decision.golden_yield",
            "ratio",
            ratio(golden_hits as f64, attempts as f64),
        ),
        metric("pool.splits", "count", fold.pool_splits as f64),
        metric("pool.final_size", "count", fold.pool_size as f64),
        metric("pool.effective_pool", "count", fold.effective_pool),
        metric("oracle.attempts", "count", attempts as f64),
        metric("oracle.failed", "count", failed as f64),
        metric(
            "oracle.useful_ratio",
            "ratio",
            ratio(attempts.saturating_sub(failed) as f64, attempts as f64),
        ),
        metric("oracle.retries", "count", sum(|r| r.eval_retries) as f64),
        metric(
            "oracle.quarantined",
            "count",
            sum(|r| r.quarantined.len()) as f64,
        ),
        metric("oracle.busy_s", "s", busy_s),
        metric("checkpoint.saves", "count", saves.len() as f64),
        metric(
            "checkpoint.save_s",
            "s",
            saves.iter().fold(0.0, |a, s| a + s),
        ),
        metric("checkpoint.span_s", "s", fold.checkpoint_s),
        metric(
            "checkpoint.share",
            "share",
            ratio(fold.checkpoint_s, fold.run_s),
        ),
        metric(
            "checkpoint.mb_written",
            "MB",
            runs.iter().map(|r| r.saved_bytes).sum::<u64>() as f64 * 1e-6,
        ),
        metric("obs.events", "count", fold.events as f64),
        metric("obs.emit_s", "s", emit_s),
        metric("loop.iterations", "count", sum(|r| r.iterations) as f64),
        metric(
            "loop.iteration_p50_ms",
            "ms",
            median_or_zero(&fold.iteration_ms),
        ),
        metric("loop.unattributed_s", "s", fold.unattributed_s),
        metric(
            "loop.unattributed_share",
            "share",
            ratio(fold.unattributed_s, fold.run_s),
        ),
    ]
}

/// Writes each traced tuner run as one JSONL file, the layout
/// `trace_report --fleet` reads.
fn write_traces(
    dir: &Path,
    workload: Workload,
    seed: u64,
    traces: &[Vec<obs::Event>],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (k, events) in traces.iter().enumerate() {
        let mut text = String::new();
        for e in events {
            text.push_str(&serde_json::to_string(e).expect("events serialize"));
            text.push('\n');
        }
        std::fs::write(
            dir.join(format!("{}-s{seed}-{k}.jsonl", workload.name())),
            text,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_round_trip_through_json() {
        let report = PassReport {
            setup_s: 0.125,
            wall_s: 1.0 / 3.0,
            cpu_s: None,
            peak_rss_mb: Some(12.5),
            runs: vec![RunSummary {
                label: "PD s1".into(),
                digest: "00ff".into(),
                ok: true,
                first_pick_s: Some(0.1),
                steady_s: vec![0.001, 0.25],
                hv_error: None,
                adrs: Some(0.02),
                tool_runs: 40,
                eval_failures: 2,
                problems: vec!["x".into()],
            }],
            layers: vec![metric("gp.fit_s", "s", 0.7)],
            problems: Vec::new(),
        };
        let text = serde_json::to_string(&report).unwrap();
        assert_eq!(serde_json::from_str::<PassReport>(&text).unwrap(), report);
        for role in [Role::WarmUp, Role::Timed, Role::Traced] {
            assert_eq!(Role::parse(role.name()), Some(role));
        }
    }
}
