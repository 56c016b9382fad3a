//! Event sinks: where trace events go.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::Event;

/// Receives trace events.
///
/// Instrumented code should gate expensive event construction on
/// [`Observer::enabled`]:
///
/// ```no_run
/// # use obs::{Event, Observer};
/// # fn emit(obs: &dyn Observer) {
/// if obs.enabled() {
///     obs.emit(&Event::Message { text: "expensive to build".into() });
/// }
/// # }
/// ```
pub trait Observer: Sync {
    /// Delivers one event.
    fn emit(&self, event: &Event);

    /// Whether this observer wants events at all. The [`NullSink`] returns
    /// `false`, letting hot paths skip event construction entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered output.
    fn flush(&self) {}
}

/// Discards everything; `enabled()` is `false`. This is the default
/// observer, chosen so that un-instrumented runs pay (almost) nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

/// The shared null sink, usable as a `&'static dyn Observer` default.
pub static NULL_SINK: NullSink = NullSink;

impl Observer for NullSink {
    fn emit(&self, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// How chatty the [`StderrSink`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Verbosity {
    /// Only run-level events (`RunStart`, `RunEnd`, `Message`).
    Quiet,
    /// Plus one line per iteration (`IterationEnd`).
    #[default]
    Normal,
    /// Every event, including per-evaluation and per-fit detail.
    Verbose,
}

/// Human-readable progress lines on stderr.
#[derive(Debug, Default)]
pub struct StderrSink {
    verbosity: Verbosity,
}

impl StderrSink {
    /// A sink printing at the given verbosity.
    pub fn new(verbosity: Verbosity) -> Self {
        StderrSink { verbosity }
    }

    fn render(event: &Event) -> String {
        match event {
            Event::RunStart {
                candidates,
                objectives,
                dim,
                initial_samples,
                max_iterations,
                seed,
            } => format!(
                "run start: {candidates} candidates, {objectives} objectives, dim {dim}, \
                 {initial_samples} initial samples, {max_iterations} max iters, seed {seed}"
            ),
            Event::GpFit {
                iteration,
                objective,
                refit,
                lambda,
                log_marginal,
                jitter,
                duration_s,
                ..
            } => format!(
                "iter {iteration:3}: gp[{objective}] {} lambda {lambda:.3} lml {log_marginal:.2} \
                 jitter {jitter:.1e} ({:.1} ms)",
                if *refit { "refit" } else { "warm " },
                duration_s * 1e3
            ),
            Event::ToolEval {
                iteration,
                candidate,
                qor,
                duration_s,
            } => format!(
                "iter {iteration:3}: eval #{candidate} -> {qor:.4?} ({:.1} ms)",
                duration_s * 1e3
            ),
            Event::RegionSnapshot {
                iteration,
                statuses,
                diameters,
            } => format!(
                "iter {iteration:3}: snapshot {} candidates, max diameter {:.4}",
                statuses.len(),
                diameters.iter().copied().fold(0.0f64, f64::max)
            ),
            Event::Classify {
                iteration,
                pareto,
                dropped,
                undecided,
                delta,
            } => format!(
                "iter {iteration:3}: classify pareto {pareto} dropped {dropped} \
                 undecided {undecided} (delta {delta:.4?})"
            ),
            Event::Select {
                iteration, chosen, ..
            } => format!("iter {iteration:3}: select {chosen:?}"),
            Event::BatchSelect {
                iteration,
                q,
                chosen,
                ..
            } => format!("iter {iteration:3}: select batch {chosen:?} (q {q})"),
            Event::EvalFailed {
                iteration,
                candidate,
                attempt,
                kind,
                detail,
            } => format!(
                "iter {iteration:3}: eval #{candidate} attempt {attempt} FAILED ({kind}): {detail}"
            ),
            Event::EvalRetry {
                iteration,
                candidate,
                attempt,
                backoff_s,
            } => format!(
                "iter {iteration:3}: eval #{candidate} retry (attempt {attempt}, \
                 backoff {backoff_s:.1} s)"
            ),
            Event::CandidateQuarantined {
                iteration,
                candidate,
                attempts,
            } => format!(
                "iter {iteration:3}: QUARANTINED #{candidate} after {attempts} failed attempts"
            ),
            Event::Checkpoint {
                iteration,
                runs,
                evals_logged,
            } => format!(
                "iter {iteration:3}: checkpoint saved (runs {runs}, {evals_logged} attempts logged)"
            ),
            Event::IterationEnd {
                iteration,
                runs,
                pareto,
                dropped,
                undecided,
                hypervolume,
                duration_s,
                ..
            } => format!(
                "iter {iteration:3}: runs {runs:4}  pareto {pareto:3}  dropped {dropped:3}  \
                 undecided {undecided:3}  hv {hypervolume:.4}  ({duration_s:.3} s)"
            ),
            Event::RunEnd {
                iterations,
                runs,
                verification_runs,
                pareto,
                duration_s,
            } => format!(
                "run end: {iterations} iters, {runs} runs (+{verification_runs} verification), \
                 {pareto} pareto points in {duration_s:.3} s"
            ),
            Event::SpanStart { id, parent, name } => match parent {
                Some(p) => format!("span {id} ({name}) start, parent {p}"),
                None => format!("span {id} ({name}) start"),
            },
            Event::SpanEnd {
                id,
                name,
                duration_s,
            } => format!("span {id} ({name}) end ({:.1} ms)", duration_s * 1e3),
            Event::ResourceSample {
                iteration,
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
            } => format!(
                "iter {iteration:3}: resources chol {chol_flops} flops / {chol_panels} panels, \
                 trisolve {tri_solve_rhs} rhs, fitcache {fitcache_hits}h/{fitcache_misses}m, \
                 {kernel_assemblies} kernels, predict \
                 {predict_cache_hits}h/{predict_cache_misses}m/{predict_cache_evictions}e \
                 in {predict_chunks} chunks"
            ),
            Event::PoolRefine {
                iteration,
                splits,
                leaves,
                pool_size,
                effective_pool,
            } => format!(
                "iter {iteration:3}: pool refine {splits} splits -> {leaves} leaves, \
                 {pool_size} candidates (effective {effective_pool:.0})"
            ),
            Event::PredictMode {
                iteration,
                train_size,
                subset_size,
                queries,
                mode,
            } => format!(
                "iter {iteration:3}: predict {mode} ({queries} queries, train {train_size}, \
                 subset {subset_size})"
            ),
            Event::DegradedFit {
                iteration,
                objective,
                cause,
                mode,
                consecutive,
            } => format!(
                "iter {iteration:3}: gp[{objective}] DEGRADED ({mode}, streak {consecutive}): \
                 {cause}"
            ),
            Event::RecoveryScan {
                scanned,
                skipped,
                next_iteration,
            } => match next_iteration {
                Some(next) => format!(
                    "recovery: scanned {scanned} checkpoints, skipped {skipped} damaged, \
                     resuming at iter {next}"
                ),
                None => format!(
                    "recovery: scanned {scanned} checkpoints, skipped {skipped} damaged, \
                     nothing recoverable"
                ),
            },
            Event::WatchdogFired {
                iteration,
                candidate,
                attempt,
                deadline_s,
            } => format!(
                "iter {iteration:3}: eval #{candidate} attempt {attempt} WATCHDOG after \
                 {deadline_s:.1} s deadline"
            ),
            Event::Message { text } => text.clone(),
        }
    }
}

impl Observer for StderrSink {
    fn emit(&self, event: &Event) {
        let wanted = match event {
            Event::RunStart { .. } | Event::RunEnd { .. } | Event::Message { .. } => {
                Verbosity::Quiet
            }
            Event::IterationEnd { .. }
            | Event::DegradedFit { .. }
            | Event::RecoveryScan { .. }
            | Event::WatchdogFired { .. } => Verbosity::Normal,
            _ => Verbosity::Verbose,
        };
        if self.verbosity >= wanted {
            eprintln!("[obs] {}", Self::render(event));
        }
    }
}

/// Machine-readable trace: one externally-tagged JSON event per line.
///
/// Lines are buffered through a [`BufWriter`] and flushed on drop. I/O
/// errors never abort the tuning run, but they are not silently dropped
/// either: the first error is retained and surfaced by [`JsonlSink::try_flush`]
/// (and printed to stderr by the trait-level [`Observer::flush`] / `Drop`).
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
    /// First I/O error seen by any `emit` or flush, until claimed.
    error: Mutex<Option<io::Error>>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
            error: Mutex::new(None),
        })
    }

    fn record_error(&self, e: io::Error) {
        let mut slot = self.error.lock().expect("trace error slot poisoned");
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// Flushes buffered lines to disk and reports the first I/O error seen
    /// by any earlier [`Observer::emit`] or by this flush. The stored error
    /// is cleared once returned, so callers see each failure exactly once.
    pub fn try_flush(&self) -> io::Result<()> {
        if let Err(e) = self.writer.lock().expect("trace writer poisoned").flush() {
            self.record_error(e);
        }
        match self.error.lock().expect("trace error slot poisoned").take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Observer for JsonlSink {
    fn emit(&self, event: &Event) {
        let line = serde_json::to_string(event).expect("event serialization cannot fail");
        let mut w = self.writer.lock().expect("trace writer poisoned");
        // Trace output must not abort a tuning run, so failures are
        // recorded and surfaced at the next flush instead of panicking.
        if let Err(e) = writeln!(w, "{line}") {
            drop(w);
            self.record_error(e);
        }
    }

    fn flush(&self) {
        if let Err(e) = self.try_flush() {
            eprintln!("[obs] trace write failed: {e}");
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        Observer::flush(self);
    }
}

/// Captures events in memory; for tests and in-process analysis.
#[derive(Debug, Default)]
pub struct RecordingSink {
    events: Mutex<Vec<Event>>,
}

impl RecordingSink {
    /// An empty recorder.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// All events captured so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("recorder poisoned").clone()
    }

    /// Number of captured events with the given [`Event::kind`].
    pub fn count(&self, kind: &str) -> usize {
        self.events
            .lock()
            .expect("recorder poisoned")
            .iter()
            .filter(|e| e.kind() == kind)
            .count()
    }
}

impl Observer for RecordingSink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .expect("recorder poisoned")
            .push(event.clone());
    }
}

/// Fans events out to several sinks (e.g. stderr progress + JSONL trace).
#[derive(Default)]
pub struct MultiSink<'a> {
    sinks: Vec<&'a dyn Observer>,
}

impl<'a> MultiSink<'a> {
    /// An empty fan-out.
    pub fn new() -> Self {
        MultiSink { sinks: Vec::new() }
    }

    /// Adds a sink; disabled sinks are skipped up front.
    pub fn push(&mut self, sink: &'a dyn Observer) {
        if sink.enabled() {
            self.sinks.push(sink);
        }
    }
}

impl Observer for MultiSink<'_> {
    fn emit(&self, event: &Event) {
        for s in &self.sinks {
            s.emit(event);
        }
    }

    fn enabled(&self) -> bool {
        !self.sinks.is_empty()
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        NullSink.emit(&Event::Message { text: "x".into() }); // no-op
    }

    #[test]
    fn recording_sink_counts_kinds() {
        let rec = RecordingSink::new();
        rec.emit(&Event::Message { text: "a".into() });
        rec.emit(&Event::Message { text: "b".into() });
        assert_eq!(rec.count("Message"), 2);
        assert_eq!(rec.count("GpFit"), 0);
        assert_eq!(rec.events().len(), 2);
    }

    #[test]
    fn multi_sink_skips_disabled_and_fans_out() {
        let rec = RecordingSink::new();
        let mut multi = MultiSink::new();
        assert!(!multi.enabled());
        multi.push(&NULL_SINK);
        assert!(!multi.enabled());
        multi.push(&rec);
        assert!(multi.enabled());
        multi.emit(&Event::Message { text: "hi".into() });
        multi.flush();
        assert_eq!(rec.count("Message"), 1);
    }

    #[test]
    fn jsonl_sink_writes_buffered_lines_and_flushes() {
        let path = std::env::temp_dir().join(format!("obs_jsonl_ok_{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&Event::Message { text: "one".into() });
        sink.emit(&Event::Message { text: "two".into() });
        sink.try_flush().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2);
        assert!(content.lines().all(|l| l.starts_with("{\"Message\":")));
        drop(sink);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_sink_create_fails_on_bad_path() {
        assert!(JsonlSink::create("/nonexistent-dir-for-obs-test/x.jsonl").is_err());
    }

    #[cfg(unix)]
    #[test]
    fn jsonl_sink_surfaces_write_errors() {
        // /dev/full accepts opens but fails every write with ENOSPC,
        // which is exactly the "disk filled up mid-run" failure mode.
        if !Path::new("/dev/full").exists() {
            return;
        }
        let sink = JsonlSink::create("/dev/full").unwrap();
        sink.emit(&Event::Message {
            text: "lost".into(),
        });
        let err = sink.try_flush().expect_err("write to /dev/full must fail");
        // ENOSPC; the exact ErrorKind name differs across std versions.
        assert!(err.to_string().to_lowercase().contains("no space"), "{err}");
    }

    #[test]
    fn stderr_sink_renders_every_variant() {
        // Rendering must not panic for any variant.
        let events = [
            Event::RunStart {
                candidates: 1,
                objectives: 2,
                dim: 3,
                initial_samples: 4,
                max_iterations: 5,
                seed: 6,
            },
            Event::GpFit {
                iteration: 0,
                objective: 0,
                refit: true,
                lengthscales: vec![0.1],
                signal_var: 1.0,
                noise_target: 0.01,
                lambda: 0.5,
                restarts: 2,
                evals: 120,
                cached_evals: 120,
                fresh_evals: 1,
                log_marginal: -3.4,
                jitter: 0.0,
                duration_s: 0.01,
            },
            Event::SpanStart {
                id: 2,
                parent: Some(1),
                name: "iteration".into(),
            },
            Event::SpanEnd {
                id: 2,
                name: "iteration".into(),
                duration_s: 0.5,
            },
            Event::ResourceSample {
                iteration: 0,
                chol_flops: 1,
                chol_panels: 1,
                tri_solve_rhs: 1,
                fitcache_hits: 1,
                fitcache_misses: 1,
                kernel_assemblies: 1,
                predict_cache_hits: 1,
                predict_cache_misses: 1,
                predict_cache_evictions: 1,
                predict_chunks: 1,
            },
            Event::Message { text: "m".into() },
        ];
        for e in &events {
            assert!(!StderrSink::render(e).is_empty());
        }
    }
}
