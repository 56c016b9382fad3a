//! Pure measurement helpers: order statistics, tool-idle gaps from an
//! oracle call log, the span self-time fold over a trace, and the
//! recording observer the traced pass runs with.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use obs::{Event, Observer};

/// Samples that must lie beyond a tail percentile before it is reported
/// (fewer make the tail a handful of outliers, not a distribution).
pub const TAIL_SAMPLES: usize = 10;

/// Median by linear interpolation between order statistics; `NaN` for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    interpolate(values, 0.5)
}

/// The `p` percentile (`0 < p < 1`), or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it, i.e. when `n·(1 − p) < 10`.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    // The epsilon keeps p90 of exactly 100 samples reportable despite
    // 100 · (1 − 0.9) rounding to 9.999…
    let beyond = values.len() as f64 * (1.0 - p);
    (beyond + 1e-9 >= TAIL_SAMPLES as f64).then(|| interpolate(values, p))
}

fn interpolate(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads printed here match
/// the ones computed from the same numbers in Python. `None` below two
/// samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median (0 below two samples).
pub fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| (q3 - q1) / median(values).abs())
}

/// One oracle call as the benchmark's oracle wrapper saw it, in seconds
/// since the start of the tuner run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// When the tuner called the tool.
    pub start: f64,
    /// When the tool returned.
    pub end: f64,
    /// Candidate index evaluated.
    pub index: usize,
}

/// The tool-idle intervals of one tuner run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Gaps {
    /// Idle time from the end of the initial design to the first selected
    /// configuration (the bootstrap-fit latency); `None` when the run
    /// selected nothing after its initial design.
    pub first_pick: Option<f64>,
    /// Every later gap from one oracle return to the next oracle call,
    /// up to (excluding) the verification tail.
    pub steady: Vec<f64>,
}

/// Splits a run's call log into its first-pick latency and steady-state
/// gaps.
///
/// The initial design ends at the first call for the
/// `(initial_samples + 1)`-th distinct candidate; retries of initial
/// candidates therefore stay inside it. The last `verification_runs`
/// calls are the closing verification pass, whose gaps measure the
/// final classification rather than the loop. Gaps between calls of one
/// batch wave count like any other.
pub fn idle_gaps(calls: &[Call], initial_samples: usize, verification_runs: usize) -> Gaps {
    let mut seen = std::collections::HashSet::new();
    let first_pick = calls
        .iter()
        .position(|c| seen.insert(c.index) && seen.len() == initial_samples + 1);
    let Some(fp) = first_pick.filter(|&fp| fp > 0) else {
        return Gaps::default();
    };
    let loop_end = calls.len().saturating_sub(verification_runs);
    Gaps {
        first_pick: (fp < loop_end).then(|| calls[fp].start - calls[fp - 1].end),
        steady: (fp + 1..loop_end)
            .map(|k| calls[k].start - calls[k - 1].end)
            .collect(),
    }
}

/// Span self times of one or more traced runs, folded onto layers.
///
/// A span's self time is its duration minus its children's. Layers:
/// `gp_fit` → gp, `classify`/`select` → decision,
/// `eval_attempt`/`batch_eval` → oracle, `checkpoint` → checkpoint. The
/// predict sweep has no span; `IterationEnd.predict_s` carves it out of
/// the iteration self time, and what remains of the `run` and
/// `iteration` self times (plus any span name not listed) is
/// unattributed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fold {
    /// Σ `run` span durations.
    pub run_s: f64,
    /// Σ self time of `gp_fit` spans.
    pub fit_s: f64,
    /// Σ `IterationEnd.predict_s`.
    pub predict_s: f64,
    /// Σ self time of `classify` spans.
    pub classify_s: f64,
    /// Σ self time of `select` spans.
    pub select_s: f64,
    /// Σ self time of `eval_attempt` and `batch_eval` spans.
    pub oracle_s: f64,
    /// Σ self time of `checkpoint` spans.
    pub checkpoint_s: f64,
    /// Run and iteration self time not covered by predict, plus unknown
    /// spans.
    pub unattributed_s: f64,
    /// Durations of `gp_fit` spans that re-optimized hyper-parameters.
    pub refit_ms: Vec<f64>,
    /// Durations of warm `gp_fit` spans (conditioning on new data).
    pub condition_ms: Vec<f64>,
    /// Durations of `classify` spans.
    pub classify_ms: Vec<f64>,
    /// Durations of `iteration` spans.
    pub iteration_ms: Vec<f64>,
    /// Events folded.
    pub events: usize,
    /// Σ `GpFit.evals` (hyper-parameter search objective evaluations).
    pub search_evals: usize,
    /// Σ `Classify.undecided`.
    pub undecided_sum: usize,
    /// Σ `PoolRefine.splits`.
    pub pool_splits: usize,
    /// Largest candidate count seen (`RunStart`, then `PoolRefine`).
    pub pool_size: usize,
    /// Largest `PoolRefine.effective_pool` seen (0 without refinement).
    pub effective_pool: f64,
}

impl Fold {
    /// Folds one run's events (span IDs are per run, so each run is
    /// folded separately and the results added with [`Fold::absorb`]).
    pub fn of_run(events: &[Event]) -> Fold {
        let mut out = Fold {
            events: events.len(),
            ..Fold::default()
        };
        let mut spans: BTreeMap<u64, (String, Option<u64>, f64)> = BTreeMap::new();
        let mut fit_is_refit = false;
        for e in events {
            match e {
                Event::SpanStart { id, parent, name } => {
                    if name == "gp_fit" {
                        fit_is_refit = false;
                    }
                    spans.insert(*id, (name.clone(), *parent, 0.0));
                }
                Event::SpanEnd {
                    id,
                    name,
                    duration_s,
                } => {
                    if let Some(span) = spans.get_mut(id) {
                        span.2 = *duration_s;
                    }
                    let ms = duration_s * 1e3;
                    match name.as_str() {
                        "gp_fit" if fit_is_refit => out.refit_ms.push(ms),
                        "gp_fit" => out.condition_ms.push(ms),
                        "classify" => out.classify_ms.push(ms),
                        "iteration" => out.iteration_ms.push(ms),
                        "run" => out.run_s += duration_s,
                        _ => {}
                    }
                }
                Event::GpFit { refit, evals, .. } => {
                    fit_is_refit |= *refit;
                    out.search_evals += evals;
                }
                Event::RunStart { candidates, .. } => {
                    out.pool_size = out.pool_size.max(*candidates);
                }
                Event::IterationEnd { predict_s, .. } => out.predict_s += predict_s,
                Event::Classify { undecided, .. } => out.undecided_sum += undecided,
                Event::PoolRefine {
                    splits,
                    pool_size,
                    effective_pool,
                    ..
                } => {
                    out.pool_splits += splits;
                    out.pool_size = out.pool_size.max(*pool_size);
                    out.effective_pool = out.effective_pool.max(*effective_pool);
                }
                _ => {}
            }
        }
        let mut child_s: BTreeMap<u64, f64> = BTreeMap::new();
        for (_, parent, duration) in spans.values() {
            if let Some(p) = parent {
                *child_s.entry(*p).or_default() += duration;
            }
        }
        for (id, (name, _, duration)) in &spans {
            // Children that overlap each other or outlive their parent
            // leave a negative remainder; it is clamped, so such a trace
            // fails the totals check instead of cancelling time out.
            let self_s = (duration - child_s.get(id).copied().unwrap_or(0.0)).max(0.0);
            match name.as_str() {
                "gp_fit" => out.fit_s += self_s,
                "classify" => out.classify_s += self_s,
                "select" => out.select_s += self_s,
                "eval_attempt" | "batch_eval" => out.oracle_s += self_s,
                "checkpoint" => out.checkpoint_s += self_s,
                _ => out.unattributed_s += self_s,
            }
        }
        out.unattributed_s -= out.predict_s;
        out
    }

    /// Adds another run's fold into this one.
    pub fn absorb(&mut self, other: Fold) {
        self.run_s += other.run_s;
        self.fit_s += other.fit_s;
        self.predict_s += other.predict_s;
        self.classify_s += other.classify_s;
        self.select_s += other.select_s;
        self.oracle_s += other.oracle_s;
        self.checkpoint_s += other.checkpoint_s;
        self.unattributed_s += other.unattributed_s;
        self.refit_ms.extend(other.refit_ms);
        self.condition_ms.extend(other.condition_ms);
        self.classify_ms.extend(other.classify_ms);
        self.iteration_ms.extend(other.iteration_ms);
        self.events += other.events;
        self.search_evals += other.search_evals;
        self.undecided_sum += other.undecided_sum;
        self.pool_splits += other.pool_splits;
        self.pool_size = self.pool_size.max(other.pool_size);
        self.effective_pool = self.effective_pool.max(other.effective_pool);
    }

    /// Σ layer self times plus the unattributed rest. Equals
    /// [`Fold::run_s`] when the span tree is well formed and
    /// `predict_s` fits inside the iterations' self time.
    pub fn attributed_total(&self) -> f64 {
        self.fit_s
            + self.predict_s
            + self.classify_s
            + self.select_s
            + self.oracle_s
            + self.checkpoint_s
            + self.unattributed_s
    }
}

/// The traced pass's observer: keeps every event in memory (written out
/// after the pass) and times itself.
#[derive(Debug, Default)]
pub struct Probe {
    events: Mutex<Vec<Event>>,
    emit_ns: AtomicU64,
}

impl Probe {
    /// The recorded events and the seconds spent inside [`Observer::emit`].
    pub fn finish(self) -> (Vec<Event>, f64) {
        let events = self.events.into_inner().expect("probe lock poisoned");
        (events, self.emit_ns.into_inner() as f64 * 1e-9)
    }
}

impl Observer for Probe {
    fn emit(&self, event: &Event) {
        let start = Instant::now();
        self.events
            .lock()
            .expect("probe lock poisoned")
            .push(event.clone());
        let ns = start.elapsed().as_nanos();
        self.emit_ns
            .fetch_add(u64::try_from(ns).unwrap_or(u64::MAX), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_percentile_follow_the_ten_beyond_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        // 100 samples: exactly 10 lie beyond p90.
        let p90 = tail_percentile(&v, 0.9).expect("100 samples support p90");
        assert!((p90 - 90.1).abs() < 1e-9, "{p90}");
        // 99 samples: only 9.9 beyond, not reportable.
        assert_eq!(tail_percentile(&v[..99], 0.9), None);
        // p50 needs 20 samples.
        assert!(tail_percentile(&v[..20], 0.5).is_some());
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    fn call(start: f64, end: f64, index: usize) -> Call {
        Call { start, end, index }
    }

    #[test]
    fn gaps_split_initial_design_steady_loop_and_verification_tail() {
        let calls = [
            // Initial design of 3: candidate 1 fails once and is retried.
            call(0.0, 1.0, 0),
            call(1.1, 2.0, 1),
            call(2.05, 3.0, 1),
            call(3.1, 4.0, 2),
            // First pick after a 5 s bootstrap fit.
            call(9.0, 10.0, 7),
            // Steady loop: a wave of two, then a retry.
            call(10.5, 11.0, 8),
            call(11.01, 12.0, 9),
            call(12.02, 13.0, 9),
            // Verification tail of two calls.
            call(20.0, 21.0, 4),
            call(21.1, 22.0, 5),
        ];
        let g = idle_gaps(&calls, 3, 2);
        assert!((g.first_pick.unwrap() - 5.0).abs() < 1e-12);
        let want = [0.5, 0.01, 0.02];
        assert_eq!(g.steady.len(), want.len());
        for (got, want) in g.steady.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn gaps_are_empty_when_nothing_is_picked() {
        let calls = [call(0.0, 1.0, 0), call(1.0, 2.0, 1), call(2.5, 3.0, 1)];
        assert_eq!(idle_gaps(&calls, 2, 0), Gaps::default());
        // The only post-design call is verification: no loop gaps.
        let calls = [call(0.0, 1.0, 0), call(1.0, 2.0, 1), call(4.0, 5.0, 2)];
        let g = idle_gaps(&calls, 2, 1);
        assert_eq!(g.first_pick, None);
        assert!(g.steady.is_empty());
    }

    fn start(id: u64, parent: Option<u64>, name: &str) -> Event {
        Event::SpanStart {
            id,
            parent,
            name: name.into(),
        }
    }

    fn end(id: u64, name: &str, duration_s: f64) -> Event {
        Event::SpanEnd {
            id,
            name: name.into(),
            duration_s,
        }
    }

    fn gp_fit(refit: bool, evals: usize) -> Event {
        Event::GpFit {
            iteration: 0,
            objective: 0,
            refit,
            lengthscales: vec![1.0],
            signal_var: 1.0,
            noise_target: 0.1,
            lambda: 0.5,
            restarts: 2,
            evals,
            cached_evals: evals,
            fresh_evals: 1,
            log_marginal: 0.0,
            jitter: 0.0,
            duration_s: 0.0,
        }
    }

    fn iteration_end(predict_s: f64) -> Event {
        Event::IterationEnd {
            iteration: 0,
            runs: 0,
            pareto: 0,
            dropped: 0,
            undecided: 0,
            hypervolume: 0.0,
            duration_s: 0.0,
            gp_fit_s: 0.0,
            predict_s,
        }
    }

    #[test]
    fn fold_attributes_self_time_to_layers() {
        let events = vec![
            start(1, None, "run"),
            start(2, Some(1), "eval_attempt"),
            end(2, "eval_attempt", 0.5),
            // Iteration 0: refit, predict 1.0 s, classify, select, eval.
            start(3, Some(1), "iteration"),
            start(4, Some(3), "gp_fit"),
            gp_fit(true, 160),
            end(4, "gp_fit", 4.0),
            start(5, Some(3), "classify"),
            Event::Classify {
                iteration: 0,
                pareto: 1,
                dropped: 2,
                undecided: 7,
                delta: vec![0.1],
            },
            end(5, "classify", 0.25),
            start(6, Some(3), "select"),
            end(6, "select", 0.05),
            start(7, Some(3), "eval_attempt"),
            end(7, "eval_attempt", 0.2),
            start(8, Some(3), "checkpoint"),
            end(8, "checkpoint", 0.3),
            iteration_end(1.0),
            end(3, "iteration", 6.0),
            // Iteration 1: warm fit inside a batch wave's evaluation.
            start(9, Some(1), "iteration"),
            start(10, Some(9), "gp_fit"),
            gp_fit(false, 0),
            end(10, "gp_fit", 0.1),
            start(11, Some(9), "batch_eval"),
            start(12, Some(11), "eval_attempt"),
            end(12, "eval_attempt", 0.2),
            end(11, "batch_eval", 0.25),
            iteration_end(0.5),
            end(9, "iteration", 1.0),
            end(1, "run", 8.0),
        ];
        let f = Fold::of_run(&events);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(f.run_s, 8.0));
        assert!(close(f.fit_s, 4.1));
        assert!(close(f.predict_s, 1.5));
        assert!(close(f.classify_s, 0.25));
        assert!(close(f.select_s, 0.05));
        assert!(close(f.oracle_s, 0.5 + 0.2 + 0.25));
        assert!(close(f.checkpoint_s, 0.3));
        // run self 8 − 0.5 − 6 − 1 = 0.5; iteration selves 1.2 + 0.65;
        // minus predict 1.5.
        assert!(close(f.unattributed_s, 0.85), "{}", f.unattributed_s);
        assert!(close(f.attributed_total(), f.run_s));
        assert_eq!(f.refit_ms, vec![4000.0]);
        assert_eq!(f.condition_ms, vec![100.0]);
        assert_eq!(f.iteration_ms, vec![6000.0, 1000.0]);
        assert_eq!(f.search_evals, 160);
        assert_eq!(f.undecided_sum, 7);

        let mut twice = f.clone();
        twice.absorb(f);
        assert!(close(twice.run_s, 16.0));
        assert!(close(twice.attributed_total(), 16.0));
    }

    #[test]
    fn fold_exposes_overlapping_children() {
        // Two children that overlap in time outlast their parent: the
        // parent's negative self time (−0.8 s) is clamped, so the totals
        // disagree by exactly that much.
        let events = vec![
            start(1, None, "run"),
            start(2, Some(1), "batch_eval"),
            start(3, Some(2), "eval_attempt"),
            start(4, Some(2), "eval_attempt"),
            end(3, "eval_attempt", 1.0),
            end(4, "eval_attempt", 1.0),
            end(2, "batch_eval", 1.2),
            end(1, "run", 1.5),
        ];
        let f = Fold::of_run(&events);
        assert!((f.attributed_total() - f.run_s - 0.8).abs() < 1e-9);
    }

    #[test]
    fn probe_records_and_times_events() {
        let probe = Probe::default();
        probe.emit(&Event::Message { text: "a".into() });
        probe.emit(&Event::Message { text: "b".into() });
        let (events, emit_s) = probe.finish();
        assert_eq!(events.len(), 2);
        assert!(emit_s >= 0.0);
    }
}
