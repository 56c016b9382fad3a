//! Trace ingestion and the one fold behind both `trace_report` views.
//!
//! [`parse_jsonl`] reads a trace (strictly by default, skip-and-count
//! under `--lenient`); [`summarize_run`] folds its events into a
//! [`RunSummary`], the one fold both views render. Two renderers
//! read that summary: [`RunSummary::render`] prints one run (phase and
//! span times, GP fitting, the classification trajectory, selection, pool,
//! failure, checkpoint, resilience and resource sections), and
//! [`FleetReport::render`] aggregates a *fleet*, a directory of traces
//! such as a seed sweep or a nightly farm: hypervolume convergence
//! quantiles, evaluation failure/retry/quarantine rates, a per-phase
//! wall-clock breakdown from the causal spans, and the slowest spans
//! across the whole fleet. A new trace metric is added to `RunSummary`
//! once, and both views can print it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use obs::Event;

/// A malformed trace line: where it is and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// The parser's complaint.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// One parsed JSONL trace.
#[derive(Debug, Default)]
pub struct ParsedTrace {
    /// Events in file order.
    pub events: Vec<Event>,
    /// Malformed lines skipped (always 0 in strict mode).
    pub skipped: usize,
}

/// Parses a JSONL trace. Blank lines are ignored. In strict mode
/// (`lenient == false`) the first malformed line aborts the parse with
/// its line number; in lenient mode malformed lines are skipped and
/// counted.
///
/// # Errors
///
/// Returns the first [`ParseError`] in strict mode.
pub fn parse_jsonl(text: &str, lenient: bool) -> Result<ParsedTrace, ParseError> {
    let mut out = ParsedTrace::default();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Event>(line) {
            Ok(e) => out.events.push(e),
            Err(_) if lenient => out.skipped += 1,
            Err(e) => {
                return Err(ParseError {
                    line: idx + 1,
                    message: format!("unparseable event: {e}"),
                });
            }
        }
    }
    Ok(out)
}

/// One span's closing record, kept for the slowest-span views.
#[derive(Debug, Clone, PartialEq)]
struct SpanRecord {
    /// The trace (file stem) the span belongs to.
    run: String,
    name: String,
    id: u64,
    duration_s: f64,
}

/// How often something took time, and how much in total.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phase {
    /// Occurrences.
    pub count: usize,
    /// Summed `duration_s`.
    pub seconds: f64,
}

impl Phase {
    fn add(&mut self, seconds: f64) {
        self.count += 1;
        self.seconds += seconds;
    }
}

/// One `IterationEnd`: the classification state after an iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IterationRow {
    iteration: usize,
    runs: usize,
    pareto: usize,
    dropped: usize,
    undecided: usize,
    hypervolume: f64,
}

/// One `PoolRefine` pass of the adaptive pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolRow {
    /// Iteration of the pass.
    pub iteration: usize,
    /// Cells split in this pass.
    pub splits: usize,
    /// Leaf cells after the pass.
    pub leaves: usize,
    /// Candidates in the pool after the pass.
    pub pool_size: usize,
    /// Effective pool resolution after the pass.
    pub effective_pool: f64,
}

/// How much one predict regime was used (`PredictMode`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeUse {
    /// Iterations that swept in this regime.
    pub iterations: usize,
    /// Box queries it answered.
    pub queries: usize,
    /// Iterations whose sweep dropped training points
    /// (`subset_size < train_size`); the others ran the exact posterior.
    pub truncated: usize,
}

/// The `ResourceSample` counters, summed field by field. The predict
/// fields are zero in traces that predate the predict cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Resources {
    chol_flops: u64,
    chol_panels: u64,
    tri_solve_rhs: u64,
    fitcache_hits: u64,
    fitcache_misses: u64,
    kernel_assemblies: u64,
    predict_cache_hits: u64,
    predict_cache_misses: u64,
    predict_cache_evictions: u64,
    predict_chunks: u64,
}

impl Resources {
    fn add(&mut self, o: &Resources) {
        self.chol_flops += o.chol_flops;
        self.chol_panels += o.chol_panels;
        self.tri_solve_rhs += o.tri_solve_rhs;
        self.fitcache_hits += o.fitcache_hits;
        self.fitcache_misses += o.fitcache_misses;
        self.kernel_assemblies += o.kernel_assemblies;
        self.predict_cache_hits += o.predict_cache_hits;
        self.predict_cache_misses += o.predict_cache_misses;
        self.predict_cache_evictions += o.predict_cache_evictions;
        self.predict_chunks += o.predict_chunks;
    }

    /// The `predict sweep:` line, when any predict counter moved; the
    /// chunk count is followed by `chunks`.
    fn write_predict_sweep(&self, out: &mut String, chunks: &str) {
        let (hits, misses) = (self.predict_cache_hits, self.predict_cache_misses);
        if hits + misses + self.predict_cache_evictions + self.predict_chunks == 0 {
            return;
        }
        let rate = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
        let _ = writeln!(
            out,
            "predict sweep: cache {hits} hits / {misses} misses ({rate:.1}% hit), {} evictions, \
             {} {chunks}",
            self.predict_cache_evictions, self.predict_chunks
        );
    }
}

/// Everything either view prints about one run: the one fold over a
/// trace's events. A new trace metric is a field here, filled in
/// [`summarize_run`] and printed by [`RunSummary::render`] and, where it
/// aggregates, [`FleetReport::render`]. Fields other crates read are
/// public; the rest are read through the two renderers.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Display name: file stem in the fleet view, path in the single view.
    name: String,
    events: usize,
    /// The last `RunStart` and `RunEnd`, as the `run:` and `done:` lines.
    run_start: Option<String>,
    run_end: Option<String>,
    gp_fit: Phase,
    /// `ToolEval` durations: one per accepted evaluation.
    tool_eval: Phase,
    /// `IterationEnd` durations.
    pub iteration: Phase,
    gp_refits: usize,
    gp_restarts: usize,
    gp_evals: usize,
    /// Fits whose Cholesky needed jitter.
    gp_jittered: usize,
    /// Summed `IterationEnd::predict_s`.
    predict_s: f64,
    /// Transfer correlation λ per objective: (first fit, last fit).
    lambda: BTreeMap<usize, (f64, f64)>,
    trajectory: Vec<IterationRow>,
    /// Failed attempts (`EvalFailed`) by failure kind.
    failures_by_kind: BTreeMap<String, usize>,
    retries: usize,
    /// Quarantined candidates, in quarantine order.
    quarantined: Vec<usize>,
    /// (iteration, runs) of each checkpoint written.
    checkpoints: Vec<(usize, usize)>,
    /// `BatchSelect` waves, the members they chose and the largest `q`.
    select_waves: usize,
    select_members: usize,
    select_q: usize,
    /// Adaptive-pool passes, in order; empty for a fixed pool.
    pub pool_refines: Vec<PoolRow>,
    /// Predict-regime usage from `PredictMode`, by mode.
    pub predict_modes: BTreeMap<String, ModeUse>,
    /// `DegradedFit`s by mode, and the longest run of consecutive ones.
    degraded_by_mode: BTreeMap<String, usize>,
    degraded_max_streak: usize,
    /// `RecoveryScan`s, and the damaged chain entries they skipped.
    recovery_scans: usize,
    recovery_skipped: usize,
    watchdog_firings: usize,
    /// Causal-span wall clock by span name.
    span_seconds: BTreeMap<String, Phase>,
    /// Every closed span, in trace order.
    spans: Vec<SpanRecord>,
    resources: Resources,
}

impl RunSummary {
    fn iterations(&self) -> usize {
        self.trajectory.len()
    }

    /// Accepted evaluations.
    fn tool_evals(&self) -> usize {
        self.tool_eval.count
    }

    /// Failed attempts, all kinds.
    fn failures(&self) -> usize {
        self.failures_by_kind.values().sum()
    }

    fn degraded_fits(&self) -> usize {
        self.degraded_by_mode.values().sum()
    }

    fn pool_splits(&self) -> usize {
        self.pool_refines.iter().map(|p| p.splits).sum()
    }

    /// Final (pool size, effective pool), `None` for a fixed pool.
    fn pool_final(&self) -> Option<(usize, f64)> {
        self.pool_refines
            .last()
            .map(|p| (p.pool_size, p.effective_pool))
    }

    /// The run's final hypervolume, when it iterated at all.
    fn final_hv(&self) -> Option<f64> {
        self.trajectory.last().map(|r| r.hypervolume)
    }

    /// Renders the single-run view as plain text: where the time went,
    /// GP fitting, the classification trajectory, selection waves, the
    /// adaptive pool and predict backends, evaluation failures,
    /// checkpoints, resilience, causal spans and resource counters.
    /// Sections with nothing to say are left out.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace report: {} ({} events)", self.name, self.events);
        if let Some(s) = &self.run_start {
            let _ = writeln!(out, "run:   {s}");
        }
        if let Some(s) = &self.run_end {
            let _ = writeln!(out, "done:  {s}");
        }

        let _ = writeln!(out, "\nwhere the time went:");
        let phases = [
            ("gp-fit", &self.gp_fit),
            ("iteration", &self.iteration),
            ("tool-eval", &self.tool_eval),
        ];
        write_time_table(
            &mut out,
            "",
            "phase",
            phases.into_iter().filter(|(_, p)| p.count > 0),
        );

        if self.gp_refits > 0 || self.gp_evals > 0 {
            let _ = writeln!(
                out,
                "\ngp fitting: {} full refits ({} restarts, {} objective evals), {} fits needed \
                 Cholesky jitter",
                self.gp_refits, self.gp_restarts, self.gp_evals, self.gp_jittered
            );
            let _ = writeln!(out, "  box prediction {:.3} s total", self.predict_s);
            for (k, (first, last)) in &self.lambda {
                let _ = writeln!(out, "  objective {k}: lambda {first:.3} -> {last:.3}");
            }
        }

        if let (Some(first), Some(last)) = (self.trajectory.first(), self.trajectory.last()) {
            let _ = writeln!(
                out,
                "\nclassification trajectory (iteration: runs, pareto/dropped/undecided, hv):"
            );
            for r in sampled(&self.trajectory) {
                let _ = writeln!(
                    out,
                    "  {:>4}: runs {:>5}  P {:>4}  D {:>4}  U {:>4}  hv {:.4}",
                    r.iteration, r.runs, r.pareto, r.dropped, r.undecided, r.hypervolume
                );
            }
            let _ = writeln!(
                out,
                "  undecided {} -> {}, hypervolume {:.4} -> {:.4}",
                first.undecided, last.undecided, first.hypervolume, last.hypervolume
            );
        }

        if self.select_waves > 0 {
            let _ = writeln!(
                out,
                "\nselection: {} waves at q = {}, {} members total (mean {:.1} per wave)",
                self.select_waves,
                self.select_q,
                self.select_members,
                self.select_members as f64 / self.select_waves as f64
            );
        }

        if let Some(last) = self.pool_refines.last() {
            let _ = writeln!(
                out,
                "\nadaptive pool: {} splits over {} refinement passes",
                self.pool_splits(),
                self.pool_refines.len()
            );
            let _ = writeln!(
                out,
                "  final: {} leaves, {} candidates, effective pool {:.0}",
                last.leaves, last.pool_size, last.effective_pool
            );
            let _ = writeln!(
                out,
                "  refinement trajectory (iteration: splits, leaves, pool, effective):"
            );
            for p in sampled(&self.pool_refines) {
                let _ = writeln!(
                    out,
                    "  {:>4}: +{:<3} leaves {:>6}  pool {:>6}  eff {:>10.0}",
                    p.iteration, p.splits, p.leaves, p.pool_size, p.effective_pool
                );
            }
        }
        if !self.predict_modes.is_empty() {
            let _ = writeln!(
                out,
                "\npredict path usage (posterior backend per iteration):"
            );
            for (mode, m) in &self.predict_modes {
                let _ = writeln!(
                    out,
                    "  {mode:<8} {:>5} iterations, {:>8} box queries, {:>5} truncated",
                    m.iterations, m.queries, m.truncated
                );
            }
        }

        let quarantined = &self.quarantined;
        if self.failures() > 0 || !quarantined.is_empty() {
            let _ = writeln!(out, "\nevaluation failures:");
            for (kind, count) in &self.failures_by_kind {
                let _ = writeln!(out, "  {kind:<12} {count:>5}");
            }
            let _ = writeln!(out, "  {} retries issued", self.retries);
            if quarantined.is_empty() {
                let _ = writeln!(
                    out,
                    "  no candidates quarantined (every failure recovered on retry)"
                );
            } else {
                let _ = writeln!(
                    out,
                    "  {} candidates quarantined: {quarantined:?}",
                    quarantined.len()
                );
            }
        }
        if let Some((it, runs)) = self.checkpoints.last() {
            let _ = writeln!(
                out,
                "\ncheckpoints: {} written, last at iteration {it} ({runs} runs)",
                self.checkpoints.len()
            );
        }

        let degraded = self.degraded_fits();
        if degraded + self.recovery_scans + self.watchdog_firings > 0 {
            let _ = writeln!(out, "\nresilience:");
            if degraded > 0 {
                let modes: Vec<String> = self
                    .degraded_by_mode
                    .iter()
                    .map(|(mode, count)| format!("{count} {mode}"))
                    .collect();
                let _ = writeln!(
                    out,
                    "  {degraded} degraded fits ({}), longest streak {}",
                    modes.join(", "),
                    self.degraded_max_streak
                );
            }
            if self.recovery_scans > 0 {
                let _ = writeln!(
                    out,
                    "  {} recovery scans skipped {} damaged checkpoint(s)",
                    self.recovery_scans, self.recovery_skipped
                );
            }
            if self.watchdog_firings > 0 {
                let _ = writeln!(out, "  {} watchdog deadline firings", self.watchdog_firings);
            }
        }

        if !self.span_seconds.is_empty() {
            let _ = writeln!(out, "\ncausal spans:");
            write_time_table(
                &mut out,
                "",
                "span",
                self.span_seconds.iter().map(|(n, p)| (n.as_str(), p)),
            );
            let _ = writeln!(out, "  slowest:");
            for rec in slowest(&self.spans).into_iter().take(5) {
                let ms = rec.duration_s * 1e3;
                let _ = writeln!(out, "  {ms:>10.1} ms  {:<12} #{}", rec.name, rec.id);
            }
        }

        let r = &self.resources;
        if r.chol_flops
            + r.chol_panels
            + r.tri_solve_rhs
            + r.fitcache_hits
            + r.fitcache_misses
            + r.kernel_assemblies
            > 0
        {
            let _ = writeln!(
                out,
                "\nresources: {} Cholesky flops in {} panels, {} triangular-solve rhs, fitcache \
                 {} hits / {} misses, {} kernel assemblies",
                r.chol_flops,
                r.chol_panels,
                r.tri_solve_rhs,
                r.fitcache_hits,
                r.fitcache_misses,
                r.kernel_assemblies
            );
        }
        r.write_predict_sweep(&mut out, "chunks dispatched");
        out
    }
}

/// Writes a "count / total s / mean ms" table, every line prefixed by
/// `indent`.
fn write_time_table<'a>(
    out: &mut String,
    indent: &str,
    label: &str,
    rows: impl IntoIterator<Item = (&'a str, &'a Phase)>,
) {
    let _ = writeln!(
        out,
        "{indent}{label:<14}    count      total s      mean ms"
    );
    for (name, p) in rows {
        let _ = writeln!(
            out,
            "{indent}{name:<14} {:>8} {:>12.3} {:>12.2}",
            p.count,
            p.seconds,
            p.seconds / p.count.max(1) as f64 * 1e3
        );
    }
}

/// About a dozen evenly strided rows of a trajectory, always ending on
/// its last row.
fn sampled<T>(rows: &[T]) -> impl Iterator<Item = &T> {
    let stride = (rows.len() / 12).max(1);
    rows.iter()
        .enumerate()
        .filter(move |(n, _)| n % stride == 0 || n + 1 == rows.len())
        .map(|(_, r)| r)
}

/// Spans sorted slowest first; ties keep trace order.
fn slowest<'a>(spans: impl IntoIterator<Item = &'a SpanRecord>) -> Vec<&'a SpanRecord> {
    let mut sorted: Vec<&SpanRecord> = spans.into_iter().collect();
    sorted.sort_by(|a, b| {
        b.duration_s
            .partial_cmp(&a.duration_s)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    sorted
}

/// Folds one trace into its [`RunSummary`], the one fold both
/// `trace_report` views render.
pub fn summarize_run(name: &str, events: &[Event]) -> RunSummary {
    let mut s = RunSummary {
        name: name.to_string(),
        events: events.len(),
        ..RunSummary::default()
    };
    for e in events {
        match e {
            Event::RunStart {
                candidates,
                objectives,
                dim,
                initial_samples,
                max_iterations,
                seed,
            } => {
                s.run_start = Some(format!(
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
                jitter,
                duration_s,
                ..
            } => {
                s.gp_fit.add(*duration_s);
                s.gp_refits += usize::from(*refit);
                s.gp_restarts += restarts;
                s.gp_evals += evals;
                s.gp_jittered += usize::from(*jitter > 0.0);
                s.lambda
                    .entry(*objective)
                    .and_modify(|(_, last)| *last = *lambda)
                    .or_insert((*lambda, *lambda));
            }
            Event::ToolEval { duration_s, .. } => s.tool_eval.add(*duration_s),
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
                s.iteration.add(*duration_s);
                s.predict_s += predict_s;
                s.trajectory.push(IterationRow {
                    iteration: *iteration,
                    runs: *runs,
                    pareto: *pareto,
                    dropped: *dropped,
                    undecided: *undecided,
                    hypervolume: *hypervolume,
                });
            }
            Event::RunEnd {
                iterations,
                runs,
                verification_runs,
                pareto,
                duration_s,
            } => {
                s.run_end = Some(format!(
                    "{iterations} iterations, {runs} runs (+{verification_runs} verification), \
                     {pareto} pareto points, {duration_s:.3} s total"
                ));
            }
            Event::EvalFailed { kind, .. } => {
                *s.failures_by_kind.entry(kind.clone()).or_default() += 1;
            }
            Event::EvalRetry { .. } => s.retries += 1,
            Event::CandidateQuarantined { candidate, .. } => s.quarantined.push(*candidate),
            Event::Checkpoint {
                iteration, runs, ..
            } => s.checkpoints.push((*iteration, *runs)),
            Event::SpanEnd {
                id,
                name: span_name,
                duration_s,
            } => {
                s.span_seconds
                    .entry(span_name.clone())
                    .or_default()
                    .add(*duration_s);
                s.spans.push(SpanRecord {
                    run: name.to_string(),
                    name: span_name.clone(),
                    id: *id,
                    duration_s: *duration_s,
                });
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
            } => s.resources.add(&Resources {
                chol_flops: *chol_flops,
                chol_panels: *chol_panels,
                tri_solve_rhs: *tri_solve_rhs,
                fitcache_hits: *fitcache_hits,
                fitcache_misses: *fitcache_misses,
                kernel_assemblies: *kernel_assemblies,
                predict_cache_hits: *predict_cache_hits,
                predict_cache_misses: *predict_cache_misses,
                predict_cache_evictions: *predict_cache_evictions,
                predict_chunks: *predict_chunks,
            }),
            Event::BatchSelect { q, chosen, .. } => {
                s.select_waves += 1;
                s.select_members += chosen.len();
                s.select_q = s.select_q.max(*q);
            }
            Event::PoolRefine {
                iteration,
                splits,
                leaves,
                pool_size,
                effective_pool,
            } => s.pool_refines.push(PoolRow {
                iteration: *iteration,
                splits: *splits,
                leaves: *leaves,
                pool_size: *pool_size,
                effective_pool: *effective_pool,
            }),
            Event::PredictMode {
                mode,
                queries,
                train_size,
                subset_size,
                ..
            } => {
                let m = s.predict_modes.entry(mode.clone()).or_default();
                m.iterations += 1;
                m.queries += queries;
                m.truncated += usize::from(subset_size < train_size);
            }
            Event::DegradedFit {
                mode, consecutive, ..
            } => {
                *s.degraded_by_mode.entry(mode.clone()).or_default() += 1;
                s.degraded_max_streak = s.degraded_max_streak.max(*consecutive);
            }
            Event::RecoveryScan { skipped, .. } => {
                s.recovery_scans += 1;
                s.recovery_skipped += skipped;
            }
            Event::WatchdogFired { .. } => s.watchdog_firings += 1,
            Event::Classify { .. }
            | Event::RegionSnapshot { .. }
            | Event::SpanStart { .. }
            | Event::Message { .. } => {}
        }
    }
    s
}

/// Nearest-rank quantile of an unsorted, non-empty sample.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// `min / median / max` of a non-empty sample, as whole numbers.
fn spread(xs: &[f64]) -> String {
    format!(
        "min {:.0}  median {:.0}  max {:.0}",
        quantile(xs, 0.0),
        quantile(xs, 0.5),
        quantile(xs, 1.0)
    )
}

/// Cross-run aggregates over a fleet of [`RunSummary`]s.
#[derive(Debug, Default)]
pub struct FleetReport {
    /// One summary per ingested trace, in directory order.
    pub runs: Vec<RunSummary>,
}

impl FleetReport {
    /// Renders the fleet view as plain text: header, hv-convergence
    /// quantiles, evaluation health, per-phase time breakdown, and the
    /// `top_k` slowest spans.
    pub fn render(&self, top_k: usize) -> String {
        let mut out = String::new();
        let n_runs = self.runs.len();
        let total_events: usize = self.runs.iter().map(|r| r.events).sum();
        let _ = writeln!(out, "fleet report: {n_runs} runs, {total_events} events");
        for r in &self.runs {
            let _ = writeln!(
                out,
                "  {:<24} {:>6} events  {:>3} iters  {:>4} evals  hv {}",
                r.name,
                r.events,
                r.iterations(),
                r.tool_evals(),
                r.final_hv()
                    .map_or_else(|| "   -".into(), |h| format!("{h:.4}")),
            );
        }

        let finals: Vec<f64> = self.runs.iter().filter_map(RunSummary::final_hv).collect();
        if !finals.is_empty() {
            let _ = writeln!(out, "\nhypervolume convergence ({} runs):", finals.len());
            let _ = writeln!(
                out,
                "  final hv   min {:.4}  p25 {:.4}  median {:.4}  p75 {:.4}  max {:.4}",
                quantile(&finals, 0.0),
                quantile(&finals, 0.25),
                quantile(&finals, 0.5),
                quantile(&finals, 0.75),
                quantile(&finals, 1.0),
            );
            let iters: Vec<f64> = self
                .runs
                .iter()
                .filter(|r| r.iterations() > 0)
                .map(|r| r.iterations() as f64)
                .collect();
            let _ = writeln!(out, "  iterations {}", spread(&iters));
        }

        let failures: usize = self.runs.iter().map(RunSummary::failures).sum();
        let attempts = failures + self.runs.iter().map(RunSummary::tool_evals).sum::<usize>();
        let retries: usize = self.runs.iter().map(|r| r.retries).sum();
        let quarantines: usize = self.runs.iter().map(|r| r.quarantined.len()).sum();
        let checkpoints: usize = self.runs.iter().map(|r| r.checkpoints.len()).sum();
        let _ = writeln!(out, "\nevaluation health:");
        let pct = |n: usize| 100.0 * n as f64 / attempts.max(1) as f64;
        let _ = writeln!(
            out,
            "  {attempts} attempts: {failures} failed ({:.1}%), {retries} retries ({:.1}%), \
             {quarantines} quarantined; {checkpoints} checkpoints",
            pct(failures),
            pct(retries),
        );

        let degraded: usize = self.runs.iter().map(RunSummary::degraded_fits).sum();
        let scans: usize = self.runs.iter().map(|r| r.recovery_scans).sum();
        let watchdogs: usize = self.runs.iter().map(|r| r.watchdog_firings).sum();
        if degraded + scans + watchdogs > 0 {
            let affected = self
                .runs
                .iter()
                .filter(|r| r.degraded_fits() + r.recovery_scans + r.watchdog_firings > 0)
                .count();
            let _ = writeln!(out, "\nresilience ({affected} of {n_runs} runs affected):");
            let _ = writeln!(
                out,
                "  {degraded} degraded fits, {scans} recovery scans past damaged checkpoints, \
                 {watchdogs} watchdog firings"
            );
        }

        let mut phases: BTreeMap<&str, Phase> = BTreeMap::new();
        for r in &self.runs {
            for (name, p) in &r.span_seconds {
                let entry = phases.entry(name).or_default();
                entry.count += p.count;
                entry.seconds += p.seconds;
            }
        }
        if !phases.is_empty() {
            // Shares are against the summed leaf-ish phases; the `run`
            // span double-counts its children, so report raw totals and
            // leave interpretation to the reader.
            let _ = writeln!(out, "\nper-phase time (causal spans, all runs):");
            write_time_table(&mut out, "  ", "span", phases.iter().map(|(n, p)| (*n, p)));
        }

        let slowest = slowest(self.runs.iter().flat_map(|r| &r.spans));
        if !slowest.is_empty() && top_k > 0 {
            let _ = writeln!(out, "\nslowest spans (top {top_k}):");
            for rec in slowest.iter().take(top_k) {
                let _ = writeln!(
                    out,
                    "  {:>10.1} ms  {:<12} #{:<5} {}",
                    rec.duration_s * 1e3,
                    rec.name,
                    rec.id,
                    rec.run
                );
            }
        }

        let pools: Vec<(usize, f64)> = self
            .runs
            .iter()
            .filter_map(RunSummary::pool_final)
            .collect();
        if !pools.is_empty() {
            let splits: usize = self.runs.iter().map(RunSummary::pool_splits).sum();
            let sizes: Vec<f64> = pools.iter().map(|p| p.0 as f64).collect();
            let effs: Vec<f64> = pools.iter().map(|p| p.1).collect();
            let _ = writeln!(
                out,
                "\nadaptive pools ({} of {n_runs} runs): {splits} splits total",
                pools.len()
            );
            let _ = writeln!(out, "  final pool size   {}", spread(&sizes));
            let _ = writeln!(out, "  effective pool    {}", spread(&effs));
            let mut modes: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
            for r in &self.runs {
                for (mode, m) in &r.predict_modes {
                    let (iterations, truncated) = modes.entry(mode).or_default();
                    *iterations += m.iterations;
                    *truncated += m.truncated;
                }
            }
            if !modes.is_empty() {
                let parts: Vec<String> = modes
                    .iter()
                    .map(|(m, (n, t))| format!("{m} {n} ({t} truncated)"))
                    .collect();
                let _ = writeln!(
                    out,
                    "  predict path usage (iterations): {}",
                    parts.join(", ")
                );
            }
        }

        let mut r = Resources::default();
        for run in &self.runs {
            r.add(&run.resources);
        }
        if r.chol_flops + r.kernel_assemblies + r.fitcache_hits + r.fitcache_misses > 0 {
            let _ = writeln!(
                out,
                "\nresources: {} Cholesky flops, {} kernel assemblies, fitcache {} hits / {} misses",
                r.chol_flops, r.kernel_assemblies, r.fitcache_hits, r.fitcache_misses
            );
        }
        r.write_predict_sweep(&mut out, "chunks");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_run(hv_final: f64, slow_ms: f64) -> Vec<Event> {
        vec![
            Event::SpanStart {
                id: 1,
                parent: None,
                name: "run".into(),
            },
            Event::SpanStart {
                id: 2,
                parent: Some(1),
                name: "gp_fit".into(),
            },
            Event::SpanEnd {
                id: 2,
                name: "gp_fit".into(),
                duration_s: slow_ms / 1e3,
            },
            Event::ToolEval {
                iteration: 0,
                candidate: 0,
                qor: vec![1.0, 2.0],
                duration_s: 0.01,
            },
            Event::EvalFailed {
                iteration: 0,
                candidate: 1,
                attempt: 1,
                kind: "timeout".into(),
                detail: "x".into(),
            },
            Event::ResourceSample {
                iteration: 0,
                chol_flops: 100,
                chol_panels: 1,
                tri_solve_rhs: 5,
                fitcache_hits: 3,
                fitcache_misses: 1,
                kernel_assemblies: 2,
                predict_cache_hits: 9,
                predict_cache_misses: 4,
                predict_cache_evictions: 2,
                predict_chunks: 6,
            },
            Event::IterationEnd {
                iteration: 0,
                runs: 1,
                pareto: 0,
                dropped: 0,
                undecided: 1,
                hypervolume: hv_final,
                duration_s: 0.1,
                gp_fit_s: 0.05,
                predict_s: 0.01,
            },
            Event::SpanEnd {
                id: 1,
                name: "run".into(),
                duration_s: slow_ms / 1e3 + 0.001,
            },
        ]
    }

    /// A two-iteration trace holding every `Event` variant at least once.
    fn every_variant() -> Vec<Event> {
        let gp_fit = |iteration, objective, refit, lambda, jitter| Event::GpFit {
            iteration,
            objective,
            refit,
            lengthscales: vec![0.5],
            signal_var: 1.0,
            noise_target: 1e-4,
            lambda,
            restarts: if refit { 3 } else { 0 },
            evals: if refit { 40 } else { 2 },
            cached_evals: if refit { 35 } else { 2 },
            fresh_evals: if refit { 5 } else { 0 },
            log_marginal: -3.0,
            jitter,
            duration_s: 0.02,
        };
        let iteration_end = |iteration, runs, undecided, hypervolume| Event::IterationEnd {
            iteration,
            runs,
            pareto: 1,
            dropped: 6 - undecided,
            undecided,
            hypervolume,
            duration_s: 0.05,
            gp_fit_s: 0.04,
            predict_s: 0.005,
        };
        let span = |id, parent, name: &str| Event::SpanStart {
            id,
            parent,
            name: name.into(),
        };
        let span_end = |id, name: &str, duration_s| Event::SpanEnd {
            id,
            name: name.into(),
            duration_s,
        };
        vec![
            Event::RunStart {
                candidates: 8,
                objectives: 2,
                dim: 3,
                initial_samples: 2,
                max_iterations: 5,
                seed: 7,
            },
            Event::Message {
                text: "start".into(),
            },
            span(1, None, "run"),
            Event::ToolEval {
                iteration: 0,
                candidate: 0,
                qor: vec![1.0, 2.0],
                duration_s: 0.01,
            },
            Event::ToolEval {
                iteration: 0,
                candidate: 1,
                qor: vec![2.0, 1.0],
                duration_s: 0.03,
            },
            span(2, Some(1), "iteration"),
            gp_fit(1, 0, true, 0.25, 0.0),
            gp_fit(1, 1, false, 0.5, 1e-8),
            Event::RegionSnapshot {
                iteration: 1,
                statuses: "pudu".into(),
                diameters: vec![0.0, 0.2, 0.0, 0.1],
            },
            Event::Classify {
                iteration: 1,
                pareto: 1,
                dropped: 2,
                undecided: 4,
                delta: vec![0.01, 0.01],
            },
            Event::PredictMode {
                iteration: 1,
                train_size: 2,
                subset_size: 2,
                queries: 8,
                mode: "exact".into(),
            },
            Event::BatchSelect {
                iteration: 1,
                q: 2,
                chosen: vec![3, 5],
                diameters: vec![0.2, 0.1],
                scores: vec![0.2, 0.05],
            },
            Event::EvalFailed {
                iteration: 1,
                candidate: 5,
                attempt: 1,
                kind: "timeout".into(),
                detail: "deadline".into(),
            },
            Event::WatchdogFired {
                iteration: 1,
                candidate: 5,
                attempt: 1,
                deadline_s: 30.0,
            },
            Event::EvalRetry {
                iteration: 1,
                candidate: 5,
                attempt: 2,
            },
            Event::EvalFailed {
                iteration: 1,
                candidate: 5,
                attempt: 2,
                kind: "crash".into(),
                detail: "exit 1".into(),
            },
            Event::CandidateQuarantined {
                iteration: 1,
                candidate: 5,
                attempts: 2,
            },
            Event::ToolEval {
                iteration: 1,
                candidate: 3,
                qor: vec![1.5, 1.5],
                duration_s: 0.02,
            },
            Event::ResourceSample {
                iteration: 1,
                chol_flops: 900,
                chol_panels: 3,
                tri_solve_rhs: 12,
                fitcache_hits: 30,
                fitcache_misses: 5,
                kernel_assemblies: 4,
                predict_cache_hits: 6,
                predict_cache_misses: 2,
                predict_cache_evictions: 1,
                predict_chunks: 2,
            },
            iteration_end(1, 3, 4, 0.5),
            Event::Checkpoint {
                iteration: 1,
                runs: 3,
                evals_logged: 3,
            },
            span_end(2, "iteration", 0.05),
            Event::RecoveryScan {
                scanned: 2,
                skipped: 1,
                next_iteration: Some(2),
            },
            span(3, Some(1), "iteration"),
            Event::DegradedFit {
                iteration: 2,
                objective: 0,
                cause: "kernel matrix factorization failed".into(),
                mode: "refit-reused-hypers".into(),
                consecutive: 1,
            },
            gp_fit(2, 0, false, 0.375, 0.0),
            Event::PoolRefine {
                iteration: 2,
                splits: 2,
                leaves: 10,
                pool_size: 10,
                effective_pool: 32.0,
            },
            Event::PredictMode {
                iteration: 2,
                train_size: 3,
                subset_size: 2,
                queries: 10,
                mode: "subset".into(),
            },
            Event::BatchSelect {
                iteration: 2,
                q: 1,
                chosen: vec![4],
                diameters: vec![0.1],
                scores: vec![0.1],
            },
            Event::ToolEval {
                iteration: 2,
                candidate: 4,
                qor: vec![1.2, 1.8],
                duration_s: 0.02,
            },
            iteration_end(2, 4, 2, 0.75),
            span_end(3, "iteration", 0.05),
            Event::RunEnd {
                iterations: 2,
                runs: 4,
                verification_runs: 1,
                pareto: 2,
                duration_s: 0.25,
            },
            span_end(1, "run", 0.25),
        ]
    }

    #[test]
    fn single_run_view_renders_every_section() {
        let events = every_variant();
        let tags: std::collections::BTreeSet<String> = events
            .iter()
            .map(|e| {
                let json = serde_json::to_string(e).expect("events serialize");
                json.split('"')
                    .nth(1)
                    .expect("externally tagged")
                    .to_string()
            })
            .collect();
        assert_eq!(tags.len(), 21, "every Event variant appears: {tags:?}");
        let text = summarize_run("every.jsonl", &events).render();
        let expected = r"trace report: every.jsonl (34 events)
run:   8 candidates, 2 objectives, dim 3, 2 initial samples, cap 5 iters, seed 7
done:  2 iterations, 4 runs (+1 verification), 2 pareto points, 0.250 s total

where the time went:
phase             count      total s      mean ms
gp-fit                3        0.060        20.00
iteration             2        0.100        50.00
tool-eval             4        0.080        20.00

gp fitting: 1 full refits (3 restarts, 44 objective evals), 1 fits needed Cholesky jitter
  box prediction 0.010 s total
  objective 0: lambda 0.250 -> 0.375
  objective 1: lambda 0.500 -> 0.500

classification trajectory (iteration: runs, pareto/dropped/undecided, hv):
     1: runs     3  P    1  D    2  U    4  hv 0.5000
     2: runs     4  P    1  D    4  U    2  hv 0.7500
  undecided 4 -> 2, hypervolume 0.5000 -> 0.7500

selection: 2 waves at q = 2, 3 members total (mean 1.5 per wave)

adaptive pool: 2 splits over 1 refinement passes
  final: 10 leaves, 10 candidates, effective pool 32
  refinement trajectory (iteration: splits, leaves, pool, effective):
     2: +2   leaves     10  pool     10  eff         32

predict path usage (posterior backend per iteration):
  exact        1 iterations,        8 box queries,     0 truncated
  subset       1 iterations,       10 box queries,     1 truncated

evaluation failures:
  crash            1
  timeout          1
  1 retries issued
  1 candidates quarantined: [5]

checkpoints: 1 written, last at iteration 1 (3 runs)

resilience:
  1 degraded fits (1 refit-reused-hypers), longest streak 1
  1 recovery scans skipped 1 damaged checkpoint(s)
  1 watchdog deadline firings

causal spans:
span              count      total s      mean ms
iteration             2        0.100        50.00
run                   1        0.250       250.00
  slowest:
       250.0 ms  run          #1
        50.0 ms  iteration    #2
        50.0 ms  iteration    #3

resources: 900 Cholesky flops in 3 panels, 12 triangular-solve rhs, fitcache 30 hits / 5 misses, 4 kernel assemblies
predict sweep: cache 6 hits / 2 misses (75.0% hit), 1 evictions, 2 chunks dispatched
";
        for (n, (got, want)) in text.lines().zip(expected.lines()).enumerate() {
            assert_eq!(got, want, "line {}", n + 1);
        }
        assert_eq!(text, expected);
    }

    #[test]
    fn strict_parse_reports_line_numbers() {
        let text = "{\"Message\":{\"text\":\"ok\"}}\n\nnot json\n";
        let err = parse_jsonl(text, false).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unparseable"), "{err}");
    }

    #[test]
    fn lenient_parse_skips_and_counts() {
        let text = "{\"Message\":{\"text\":\"ok\"}}\nnot json\n{\"Message\":{\"text\":\"ok2\"}}\n";
        let parsed = parse_jsonl(text, true).expect("lenient never errors");
        assert_eq!(parsed.events.len(), 2);
        assert_eq!(parsed.skipped, 1);
    }

    #[test]
    fn summarize_run_extracts_everything() {
        let s = summarize_run("a", &mini_run(0.5, 40.0));
        assert_eq!(s.iterations(), 1);
        assert_eq!(s.tool_evals(), 1);
        assert_eq!(s.failures(), 1);
        assert_eq!(s.final_hv(), Some(0.5));
        assert_eq!(s.span_seconds["gp_fit"].count, 1);
        assert_eq!(s.spans.len(), 2);
        assert_eq!(
            s.resources,
            Resources {
                chol_flops: 100,
                chol_panels: 1,
                tri_solve_rhs: 5,
                fitcache_hits: 3,
                fitcache_misses: 1,
                kernel_assemblies: 2,
                predict_cache_hits: 9,
                predict_cache_misses: 4,
                predict_cache_evictions: 2,
                predict_chunks: 6,
            }
        );
    }

    #[test]
    fn fleet_report_renders_aggregate_sections() {
        let runs = vec![
            summarize_run("seed-1", &mini_run(0.40, 10.0)),
            summarize_run("seed-2", &mini_run(0.50, 80.0)),
            summarize_run("seed-3", &mini_run(0.60, 30.0)),
        ];
        let text = FleetReport { runs }.render(2);
        assert!(text.contains("fleet report: 3 runs"), "{text}");
        assert!(text.contains("hypervolume convergence (3 runs)"), "{text}");
        assert!(text.contains("median 0.5000"), "{text}");
        assert!(text.contains("evaluation health"), "{text}");
        assert!(text.contains("6 attempts: 3 failed (50.0%)"), "{text}");
        assert!(text.contains("per-phase time"), "{text}");
        assert!(text.contains("gp_fit"), "{text}");
        assert!(text.contains("slowest spans (top 2)"), "{text}");
        // The fleet-wide slowest span is seed-2's 80 ms gp_fit.
        let slow_line = text
            .lines()
            .skip_while(|l| !l.contains("slowest spans"))
            .nth(1)
            .expect("a slowest-span line");
        assert!(slow_line.contains("seed-2"), "{slow_line}");
        assert!(text.contains("300 Cholesky flops"), "{text}");
        // 3 runs × (9 hits, 4 misses): 27/39 served from cache = 69.2%.
        assert!(
            text.contains("predict sweep: cache 27 hits / 12 misses (69.2% hit)"),
            "{text}"
        );
        assert!(text.contains("6 evictions, 18 chunks"), "{text}");
    }

    #[test]
    fn pool_events_reach_the_fleet_view() {
        let mut events = mini_run(0.5, 10.0);
        events.push(Event::PoolRefine {
            iteration: 0,
            splits: 3,
            leaves: 12,
            pool_size: 12,
            effective_pool: 64.0,
        });
        events.push(Event::PredictMode {
            iteration: 0,
            train_size: 300,
            subset_size: 128,
            queries: 40,
            mode: "subset".into(),
        });
        events.push(Event::PredictMode {
            iteration: 1,
            train_size: 100,
            subset_size: 100,
            queries: 30,
            mode: "subset".into(),
        });
        let s = summarize_run("pool-run", &events);
        assert_eq!(s.pool_splits(), 3);
        assert_eq!(s.pool_final(), Some((12, 64.0)));
        assert_eq!(
            s.predict_modes["subset"],
            ModeUse {
                iterations: 2,
                queries: 70,
                truncated: 1,
            }
        );
        let fixed = summarize_run("fixed-run", &mini_run(0.4, 5.0));
        assert_eq!(fixed.pool_final(), None);
        let text = FleetReport {
            runs: vec![s, fixed],
        }
        .render(2);
        assert!(
            text.contains("adaptive pools (1 of 2 runs): 3 splits total"),
            "{text}"
        );
        assert!(text.contains("effective pool"), "{text}");
        assert!(text.contains("subset 2 (1 truncated)"), "{text}");
    }

    #[test]
    fn resilience_events_reach_the_fleet_view() {
        let mut events = mini_run(0.5, 10.0);
        events.push(Event::DegradedFit {
            iteration: 3,
            objective: 0,
            cause: "kernel matrix factorization failed".into(),
            mode: "refit-reused-hypers".into(),
            consecutive: 1,
        });
        events.push(Event::RecoveryScan {
            scanned: 3,
            skipped: 2,
            next_iteration: Some(4),
        });
        events.push(Event::WatchdogFired {
            iteration: 5,
            candidate: 7,
            attempt: 1,
            deadline_s: 30.0,
        });
        let s = summarize_run("chaos-run", &events);
        assert_eq!(s.degraded_fits(), 1);
        assert_eq!(s.recovery_scans, 1);
        assert_eq!(s.watchdog_firings, 1);
        let clean = summarize_run("clean-run", &mini_run(0.4, 5.0));
        assert_eq!(clean.degraded_fits(), 0);
        let text = FleetReport {
            runs: vec![s, clean],
        }
        .render(2);
        assert!(text.contains("resilience (1 of 2 runs affected)"), "{text}");
        assert!(
            text.contains(
                "1 degraded fits, 1 recovery scans past damaged checkpoints, 1 watchdog firings"
            ),
            "{text}"
        );
        // Clean fleets keep their report unchanged.
        let quiet = FleetReport {
            runs: vec![summarize_run("q", &mini_run(0.4, 5.0))],
        }
        .render(2);
        assert!(!quiet.contains("resilience"), "{quiet}");
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 2.0);
        assert_eq!(quantile(&xs, 1.0), 3.0);
    }
}
