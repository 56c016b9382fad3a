//! Cross-crate invariant checks over recorded tuner traces.
//!
//! The checker replays an `obs` event stream (in memory, or parsed back
//! from a JSONL trace) and asserts the algorithmic laws of PPATuner's
//! Algorithm 1 that must hold on *every* run, independent of seed:
//!
//! - **Regions never grow** (Eq. 10): each candidate's uncertainty-region
//!   diameter is non-increasing across [`obs::Event::RegionSnapshot`]s,
//!   and collapses to 0 once the candidate is measured.
//! - **Decisions are monotone**: a candidate classified `Pareto` or
//!   `Dropped` never changes class again, and a dropped candidate is
//!   never evaluated afterwards (no resurrection).
//! - **Selection is greedy by diameter** (Eq. 13): every
//!   [`obs::Event::BatchSelect`] names at most `q` distinct eligible
//!   (active, unevaluated) members whose diameters agree with the
//!   snapshot, its first pick is the unpenalized max-diameter candidate
//!   (at `q = 1`, Eq. 13 exactly), scores are non-increasing along the
//!   batch, and no score exceeds its member's diameter.
//! - **Classification is δ-accurate** (Eq. 12): every candidate the loop
//!   classified Pareto is, in golden QoR, at most δ worse than the true
//!   front in at least one objective. The front is scoped to candidates
//!   that existed when the classification was made: an adaptive pool may
//!   later grow a strictly better point next to an earlier Pareto call,
//!   and that is refinement, not a misclassification.
//! - **Quarantine is terminal**: a candidate announced in
//!   [`obs::Event::CandidateQuarantined`] shows status `'q'` in every
//!   later snapshot, is never selected and never evaluated again.
//! - **Attempts are conserved**: every oracle attempt appears in the
//!   trace as exactly one [`obs::Event::ToolEval`] (accepted) or
//!   [`obs::Event::EvalFailed`] (failed), so their counts sum to the
//!   `runs + verification_runs` reported by [`obs::Event::RunEnd`].
//! - **Pool growth is append-only**: every [`obs::Event::PoolRefine`]
//!   reports a pool size equal to the previous size plus its splits
//!   (candidates are never removed or reordered), leaf counts grow by
//!   exactly one per split, and the effective pool never falls below
//!   the leaf count. Later snapshots must match the grown size.
//! - **Spans form a tree**: every [`obs::Event::SpanEnd`] closes a span
//!   that a [`obs::Event::SpanStart`] opened under the same name, span
//!   IDs are never reused, a child span only starts while its parent is
//!   open, no span closes with children still open, and a trace that
//!   contains spans at all closes every one of them by its end.
//! - **Degradation is lawful**: every [`obs::Event::DegradedFit`] names
//!   a known recovery mode (`refit-reused-hypers` or `frozen`), an
//!   in-range objective, and a consecutive streak of at least 1.
//! - **Watchdogs convert to failures**: every
//!   [`obs::Event::WatchdogFired`] carries a finite positive deadline
//!   and is followed by an [`obs::Event::EvalFailed`] of kind `timeout`
//!   for the same `(iteration, candidate, attempt)`; none is left
//!   dangling at trace end.
//! - **Recovery scans are meaningful**: every
//!   [`obs::Event::RecoveryScan`] skipped at least one damaged entry
//!   and scanned at least as many entries as it skipped.
//!
//! Violations are reported as `Err(String)` naming the event index and
//! the law broken, so a failing golden trace pinpoints the regression.

use std::collections::{BTreeMap, BTreeSet};

use obs::Event;

/// Tolerance for comparisons between floats that took different paths to
/// the trace (diameter recomputed vs. snapshotted).
const TOL: f64 = 1e-9;

/// Statistics of one checked trace (how much evidence the pass covered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvariantReport {
    /// `RegionSnapshot` events checked.
    pub snapshots: usize,
    /// `BatchSelect` events (selection waves) checked.
    pub selects: usize,
    /// `ToolEval` events checked.
    pub tool_evals: usize,
    /// `EvalFailed` events counted toward the attempt-conservation law.
    pub eval_failures: usize,
    /// `CandidateQuarantined` events checked.
    pub quarantines: usize,
    /// Pareto-classified candidates δ-accuracy-checked at the end.
    pub pareto_checked: usize,
    /// Spans opened and cleanly closed (`SpanStart`/`SpanEnd` pairs).
    pub spans: usize,
    /// `PoolRefine` events checked against the growth law.
    pub pool_refines: usize,
    /// `DegradedFit` events checked against the degradation laws.
    pub degraded_fits: usize,
    /// `WatchdogFired` events paired with their timeout `EvalFailed`.
    pub watchdog_firings: usize,
    /// `RecoveryScan` events checked.
    pub recovery_scans: usize,
}

/// Bookkeeping for one span that has started but not yet ended.
struct OpenSpanInfo {
    name: String,
    parent: Option<u64>,
    open_children: usize,
}

struct CheckerState {
    /// Candidate count, from `RunStart`.
    n: Option<usize>,
    /// Objective count, from `RunStart`.
    objectives: Option<usize>,
    /// `WatchdogFired` tuples awaiting their timeout `EvalFailed`.
    watchdog_pending: BTreeSet<(usize, usize, usize)>,
    /// Latest snapshot: per-candidate status chars and diameters.
    statuses: Vec<char>,
    diameters: Vec<f64>,
    snapshot_iteration: Option<usize>,
    /// Golden QoR of each evaluated candidate, in evaluation order.
    measured: BTreeMap<usize, Vec<f64>>,
    /// Candidates announced quarantined (terminal, never re-selected).
    quarantined: BTreeSet<usize>,
    /// δ thresholds from the most recent `Classify`.
    delta: Vec<f64>,
    /// Counts from the most recent `Classify`, awaiting its snapshot.
    pending_classify: Option<(usize, usize, usize, usize)>,
    /// Pool size at the snapshot where each candidate first showed 'p' —
    /// the universe its δ-accuracy is judged against.
    first_pareto_n: BTreeMap<usize, usize>,
    /// Leaf count reported by the last `PoolRefine`, if any.
    pool_leaves: Option<usize>,
    /// Currently open spans, keyed by id.
    open_spans: BTreeMap<u64, OpenSpanInfo>,
    /// Every span id ever started (IDs are never reused).
    span_ids: BTreeSet<u64>,
    report: InvariantReport,
}

/// Replays `events` and checks every invariant it can observe.
///
/// `truth`, when given, is the golden QoR table of *all* candidates
/// (index-aligned with the tuner's candidate list); the δ-accuracy check
/// then covers every Pareto-classified candidate, evaluated or not.
/// Without it the check falls back to the measured subset recorded in
/// `ToolEval` events.
///
/// # Errors
///
/// Returns a description of the first violated invariant, prefixed with
/// the index of the offending event.
pub fn check_trace(
    events: &[Event],
    truth: Option<&[Vec<f64>]>,
) -> Result<InvariantReport, String> {
    let mut st = CheckerState {
        n: None,
        objectives: None,
        watchdog_pending: BTreeSet::new(),
        statuses: Vec::new(),
        diameters: Vec::new(),
        snapshot_iteration: None,
        measured: BTreeMap::new(),
        quarantined: BTreeSet::new(),
        delta: Vec::new(),
        pending_classify: None,
        first_pareto_n: BTreeMap::new(),
        pool_leaves: None,
        open_spans: BTreeMap::new(),
        span_ids: BTreeSet::new(),
        report: InvariantReport::default(),
    };
    for (idx, event) in events.iter().enumerate() {
        let fail = |law: &str| -> String { format!("event {idx} ({}): {law}", event.kind()) };
        match event {
            Event::RunStart { .. } if st.n.is_some() => {
                return Err(fail("trace contains a second RunStart"));
            }
            Event::RunStart {
                candidates,
                objectives,
                ..
            } => {
                st.n = Some(*candidates);
                st.objectives = Some(*objectives);
            }
            Event::Classify {
                iteration,
                pareto,
                dropped,
                undecided,
                delta,
            } => {
                if delta.iter().any(|d| !(d.is_finite() && *d >= 0.0)) {
                    return Err(fail("δ thresholds must be finite and non-negative"));
                }
                st.delta = delta.clone();
                st.pending_classify = Some((*iteration, *pareto, *dropped, *undecided));
            }
            Event::RegionSnapshot {
                iteration,
                statuses,
                diameters,
            } => {
                check_snapshot(&mut st, *iteration, statuses, diameters)
                    .map_err(|law| fail(&law))?;
            }
            Event::BatchSelect {
                iteration,
                q,
                chosen,
                diameters,
                scores,
            } => {
                check_batch_select(&mut st, *iteration, *q, chosen, diameters, scores)
                    .map_err(|law| fail(&law))?;
            }
            Event::ToolEval { candidate, qor, .. } => {
                check_tool_eval(&mut st, *candidate, qor).map_err(|law| fail(&law))?;
            }
            Event::EvalFailed {
                iteration,
                candidate,
                attempt,
                kind,
                ..
            } => {
                if st.quarantined.contains(candidate) {
                    return Err(fail(&format!(
                        "quarantined candidate {candidate} was attempted again"
                    )));
                }
                if st
                    .watchdog_pending
                    .remove(&(*iteration, *candidate, *attempt))
                    && kind != "timeout"
                {
                    return Err(fail(&format!(
                        "attempt {attempt} on candidate {candidate} had its watchdog \
                         fire but failed with kind {kind:?}, not \"timeout\""
                    )));
                }
                st.report.eval_failures += 1;
            }
            Event::CandidateQuarantined { candidate, .. } => {
                if st.measured.contains_key(candidate) {
                    return Err(fail(&format!(
                        "candidate {candidate} quarantined after a successful \
                         evaluation"
                    )));
                }
                if !st.quarantined.insert(*candidate) {
                    return Err(fail(&format!("candidate {candidate} quarantined twice")));
                }
                st.report.quarantines += 1;
            }
            Event::RunEnd {
                runs,
                verification_runs,
                ..
            } if st.measured.len() + st.report.eval_failures != runs + verification_runs => {
                return Err(fail(&format!(
                    "RunEnd accounts for {} attempts but the trace recorded \
                     {} accepted + {} failed",
                    runs + verification_runs,
                    st.measured.len(),
                    st.report.eval_failures
                )));
            }
            Event::PoolRefine {
                splits,
                leaves,
                pool_size,
                effective_pool,
                ..
            } => {
                check_pool_refine(&mut st, *splits, *leaves, *pool_size, *effective_pool)
                    .map_err(|law| fail(&law))?;
            }
            Event::SpanStart { id, parent, name } => {
                check_span_start(&mut st, *id, *parent, name).map_err(|law| fail(&law))?;
            }
            Event::SpanEnd { id, name, .. } => {
                check_span_end(&mut st, *id, name).map_err(|law| fail(&law))?;
            }
            Event::DegradedFit {
                objective,
                mode,
                consecutive,
                ..
            } => {
                if mode != "refit-reused-hypers" && mode != "frozen" {
                    return Err(fail(&format!("unknown degradation mode {mode:?}")));
                }
                if *consecutive < 1 {
                    return Err(fail("a degraded iteration's streak must be at least 1"));
                }
                if let Some(m) = st.objectives {
                    if *objective >= m {
                        return Err(fail(&format!(
                            "degraded objective {objective} out of range (run has {m})"
                        )));
                    }
                }
                st.report.degraded_fits += 1;
            }
            Event::WatchdogFired {
                iteration,
                candidate,
                attempt,
                deadline_s,
            } => {
                if !(deadline_s.is_finite() && *deadline_s > 0.0) {
                    return Err(fail(&format!(
                        "watchdog deadline must be finite and positive, got {deadline_s}"
                    )));
                }
                if !st
                    .watchdog_pending
                    .insert((*iteration, *candidate, *attempt))
                {
                    return Err(fail(&format!(
                        "watchdog fired twice for attempt {attempt} on candidate \
                         {candidate}"
                    )));
                }
                st.report.watchdog_firings += 1;
            }
            Event::RecoveryScan {
                scanned, skipped, ..
            } => {
                if *skipped == 0 {
                    return Err(fail(
                        "RecoveryScan with nothing skipped must not be emitted \
                         (clean resumes keep their traces unchanged)",
                    ));
                }
                if scanned < skipped {
                    return Err(fail(&format!(
                        "recovery scanned {scanned} entries but claims to have \
                         skipped {skipped}"
                    )));
                }
                st.report.recovery_scans += 1;
            }
            _ => {}
        }
    }
    if !st.watchdog_pending.is_empty() {
        let dangling: Vec<String> = st
            .watchdog_pending
            .iter()
            .map(|(it, c, a)| format!("iter {it} candidate {c} attempt {a}"))
            .collect();
        return Err(format!(
            "trace ended with {} watchdog firing(s) never converted to a \
             timeout EvalFailed: {}",
            dangling.len(),
            dangling.join(", ")
        ));
    }
    if !st.open_spans.is_empty() {
        let open: Vec<String> = st
            .open_spans
            .iter()
            .map(|(id, info)| format!("{id} ({})", info.name))
            .collect();
        return Err(format!(
            "trace ended with {} unclosed span(s): {}",
            open.len(),
            open.join(", ")
        ));
    }
    check_delta_accuracy(&mut st, truth)?;
    Ok(st.report)
}

fn check_pool_refine(
    st: &mut CheckerState,
    splits: usize,
    leaves: usize,
    pool_size: usize,
    effective_pool: f64,
) -> Result<(), String> {
    if let Some(n) = st.n {
        if pool_size != n + splits {
            return Err(format!(
                "pool grew from {n} by {splits} splits but reports size \
                 {pool_size} (growth must be append-only)"
            ));
        }
    }
    st.n = Some(pool_size);
    if let Some(prev) = st.pool_leaves {
        if leaves != prev + splits {
            return Err(format!(
                "leaf count went {prev} -> {leaves} across {splits} splits \
                 (each split adds exactly one leaf)"
            ));
        }
    }
    st.pool_leaves = Some(leaves);
    // Effective pool = box volume / smallest leaf volume, which can never
    // undercut the leaf count (the mean leaf is at least the smallest).
    if !(effective_pool.is_nan()) && effective_pool + TOL < leaves as f64 {
        return Err(format!(
            "effective pool {effective_pool} is below the leaf count {leaves}"
        ));
    }
    st.report.pool_refines += 1;
    Ok(())
}

fn check_span_start(
    st: &mut CheckerState,
    id: u64,
    parent: Option<u64>,
    name: &str,
) -> Result<(), String> {
    if !st.span_ids.insert(id) {
        return Err(format!("span id {id} ({name}) was started twice"));
    }
    if let Some(p) = parent {
        match st.open_spans.get_mut(&p) {
            Some(info) => info.open_children += 1,
            None => {
                return Err(format!(
                    "span {id} ({name}) starts under parent {p}, which is not open"
                ));
            }
        }
    }
    st.open_spans.insert(
        id,
        OpenSpanInfo {
            name: name.to_string(),
            parent,
            open_children: 0,
        },
    );
    Ok(())
}

fn check_span_end(st: &mut CheckerState, id: u64, name: &str) -> Result<(), String> {
    let Some(info) = st.open_spans.get(&id) else {
        return Err(format!("span {id} ({name}) ended without a matching start"));
    };
    if info.name != name {
        return Err(format!(
            "span {id} started as {:?} but ended as {name:?}",
            info.name
        ));
    }
    if info.open_children != 0 {
        return Err(format!(
            "span {id} ({name}) ended with {} child span(s) still open",
            info.open_children
        ));
    }
    let parent = info.parent;
    st.open_spans.remove(&id);
    if let Some(p) = parent {
        if let Some(pi) = st.open_spans.get_mut(&p) {
            pi.open_children -= 1;
        }
    }
    st.report.spans += 1;
    Ok(())
}

fn check_snapshot(
    st: &mut CheckerState,
    iteration: usize,
    statuses: &str,
    diameters: &[f64],
) -> Result<(), String> {
    let chars: Vec<char> = statuses.chars().collect();
    if let Some(n) = st.n {
        if chars.len() != n || diameters.len() != n {
            return Err(format!(
                "snapshot sizes ({}, {}) disagree with RunStart candidates ({n})",
                chars.len(),
                diameters.len()
            ));
        }
    }
    if let Some(bad) = chars.iter().find(|c| !matches!(c, 'u' | 'p' | 'd' | 'q')) {
        return Err(format!("unknown status character {bad:?}"));
    }
    // Every announced quarantine must be visible in the snapshot.
    for &cand in &st.quarantined {
        if cand < chars.len() && chars[cand] != 'q' {
            return Err(format!(
                "candidate {cand} was quarantined but the snapshot shows \
                 {:?}",
                chars[cand]
            ));
        }
    }
    // Counts must agree with the Classify event of the same iteration.
    if let Some((cl_iter, pareto, dropped, undecided)) = st.pending_classify.take() {
        if cl_iter == iteration {
            let count = |c: char| chars.iter().filter(|&&x| x == c).count();
            if (count('p'), count('d'), count('u')) != (pareto, dropped, undecided) {
                return Err(format!(
                    "snapshot counts p/d/u = {}/{}/{} disagree with Classify \
                     {pareto}/{dropped}/{undecided}",
                    count('p'),
                    count('d'),
                    count('u')
                ));
            }
        }
    }
    if !st.statuses.is_empty() {
        for (i, (&prev, &now)) in st.statuses.iter().zip(&chars).enumerate() {
            // Decisions are final: 'u' may transition anywhere, and a
            // still-active 'p' may be quarantined by a failing
            // evaluation; everything else is a resurrection.
            let allowed = now == prev || prev == 'u' || (prev == 'p' && now == 'q');
            if !allowed {
                return Err(format!(
                    "candidate {i} resurrected: status {prev:?} became {now:?} \
                     at iteration {iteration}"
                ));
            }
        }
        for (i, (&prev, &now)) in st.diameters.iter().zip(diameters).enumerate() {
            // Intersection can only shrink regions (Eq. 10).
            if now > prev + TOL * prev.abs().max(1.0) {
                return Err(format!(
                    "candidate {i}'s region grew: diameter {prev} -> {now} \
                     at iteration {iteration}"
                ));
            }
        }
    }
    for &cand in st.measured.keys() {
        if cand < diameters.len() && diameters[cand] != 0.0 {
            return Err(format!(
                "candidate {cand} was evaluated but its region did not \
                 collapse (diameter {})",
                diameters[cand]
            ));
        }
    }
    for (i, &c) in chars.iter().enumerate() {
        if c == 'p' {
            st.first_pareto_n.entry(i).or_insert(chars.len());
        }
    }
    st.statuses = chars;
    st.diameters = diameters.to_vec();
    st.snapshot_iteration = Some(iteration);
    st.report.snapshots += 1;
    Ok(())
}

/// Laws of the selection rule: a diverse top-q batch, Eq. 13's argmax at
/// q = 1. Diameter/score floats may be `NaN` after a JSONL round trip
/// (infinities serialize as null), so every inequality is written to
/// *pass* on `NaN` — same convention as the snapshot-diameter laws.
fn check_batch_select(
    st: &mut CheckerState,
    iteration: usize,
    q: usize,
    chosen: &[usize],
    diameters: &[f64],
    scores: &[f64],
) -> Result<(), String> {
    if st.snapshot_iteration != Some(iteration) {
        return Err(format!(
            "BatchSelect at iteration {iteration} without a same-iteration snapshot"
        ));
    }
    if chosen.is_empty() {
        return Err("BatchSelect must name at least one member".into());
    }
    if chosen.len() != diameters.len() || chosen.len() != scores.len() {
        return Err("BatchSelect members, diameters, and scores must be parallel".into());
    }
    if chosen.len() > q {
        return Err(format!(
            "batch of {} members exceeds its budget q = {q}",
            chosen.len()
        ));
    }
    let mut seen = BTreeSet::new();
    for ((&i, &d), &s) in chosen.iter().zip(diameters).zip(scores) {
        if !seen.insert(i) {
            return Err(format!("candidate {i} appears twice in one batch"));
        }
        if st.statuses.get(i) == Some(&'d') {
            return Err(format!("dropped candidate {i} was selected"));
        }
        if st.statuses.get(i) == Some(&'q') || st.quarantined.contains(&i) {
            return Err(format!("quarantined candidate {i} was selected"));
        }
        if st.measured.contains_key(&i) {
            return Err(format!("already-evaluated candidate {i} was selected"));
        }
        if d <= 0.0 {
            return Err(format!("candidate {i} selected with diameter {d}"));
        }
        let snap = st.diameters.get(i).copied().unwrap_or(f64::NAN);
        if (snap - d).abs() > TOL * snap.abs().max(1.0) {
            return Err(format!(
                "candidate {i}'s selection diameter {d} disagrees with snapshot {snap}"
            ));
        }
        if s > d + TOL * d.abs().max(1.0) {
            return Err(format!(
                "candidate {i}'s score {s} exceeds its diameter {d}"
            ));
        }
    }
    // Scores are non-increasing along the greedy pick order.
    for w in scores.windows(2) {
        if w[1] > w[0] + TOL {
            return Err(format!("selection scores not descending: {scores:?}"));
        }
    }
    // The first pick is unpenalized argmax-diameter — Eq. 13 exactly.
    if (scores[0] - diameters[0]).abs() > TOL * diameters[0].abs().max(1.0) {
        return Err(format!(
            "first pick's score {} differs from its diameter {}",
            scores[0], diameters[0]
        ));
    }
    let best = st
        .diameters
        .iter()
        .enumerate()
        .filter(|&(i, _)| {
            !matches!(st.statuses[i], 'd' | 'q')
                && !st.quarantined.contains(&i)
                && !st.measured.contains_key(&i)
        })
        .map(|(_, &d)| d)
        .fold(f64::NEG_INFINITY, f64::max);
    if best > diameters[0] + TOL * best.abs().max(1.0) {
        return Err(format!(
            "selection skipped the max-diameter candidate: picked {} while \
             an eligible candidate has diameter {best}",
            diameters[0]
        ));
    }
    st.report.selects += 1;
    Ok(())
}

fn check_tool_eval(st: &mut CheckerState, candidate: usize, qor: &[f64]) -> Result<(), String> {
    if st.statuses.get(candidate) == Some(&'d') {
        return Err(format!(
            "dropped candidate {candidate} was evaluated afterwards"
        ));
    }
    if st.quarantined.contains(&candidate) {
        return Err(format!(
            "quarantined candidate {candidate} was evaluated afterwards"
        ));
    }
    if qor.iter().any(|v| !v.is_finite()) {
        return Err(format!(
            "accepted evaluation of candidate {candidate} carries non-finite \
             QoR {qor:?}"
        ));
    }
    if st.measured.insert(candidate, qor.to_vec()).is_some() {
        return Err(format!("candidate {candidate} was evaluated twice"));
    }
    st.report.tool_evals += 1;
    Ok(())
}

/// Eq. 12 at trace end: every candidate the loop classified Pareto must
/// not be beaten by the true front by more than δ in **every** objective.
///
/// The front each candidate is judged against is scoped to the pool as
/// it stood when that candidate was first classified: a point the
/// adaptive pool grew *afterwards* could not have informed the decision,
/// so beating an earlier Pareto call is refinement, not inaccuracy. On a
/// fixed pool the scope is always the whole candidate set, which is the
/// original law unchanged.
fn check_delta_accuracy(
    st: &mut CheckerState,
    truth: Option<&[Vec<f64>]>,
) -> Result<InvariantReport, String> {
    if st.statuses.is_empty() || st.delta.is_empty() {
        return Ok(st.report);
    }
    // Universe for a classification made with `scope` candidates: the
    // golden table when available, else everything the tool actually
    // measured — restricted to indices below the scope. Fronts are
    // cached per distinct scope (one per refinement burst at most).
    let measured = &st.measured;
    let mut fronts: BTreeMap<usize, Vec<Vec<f64>>> = BTreeMap::new();
    let mut front_at = |scope: usize| -> Vec<Vec<f64>> {
        fronts
            .entry(scope)
            .or_insert_with(|| {
                let universe: Vec<Vec<f64>> = match truth {
                    Some(table) => table.iter().take(scope).cloned().collect(),
                    None => measured
                        .iter()
                        .filter(|(&j, _)| j < scope)
                        .map(|(_, y)| y.clone())
                        .collect(),
                };
                crate::reference::pareto_front(&universe)
                    .into_iter()
                    .map(|i| universe[i].clone())
                    .collect()
            })
            .clone()
    };
    let mut pareto_checked = 0usize;
    for (i, &status) in st.statuses.iter().enumerate() {
        if status != 'p' {
            continue;
        }
        let mine: Option<&Vec<f64>> = match truth {
            Some(table) => table.get(i),
            None => measured.get(&i),
        };
        let Some(mine) = mine else { continue };
        let scope = st
            .first_pareto_n
            .get(&i)
            .copied()
            .unwrap_or(st.statuses.len());
        for f in &front_at(scope) {
            let beaten_everywhere = f
                .iter()
                .zip(mine)
                .zip(&st.delta)
                .all(|((&fv, &mv), &d)| fv + d <= mv);
            if beaten_everywhere {
                return Err(format!(
                    "candidate {i} classified Pareto is not δ-accurate: \
                     front point {f:?} beats {mine:?} by more than δ = {:?} \
                     (classification scope: first {scope} candidates)",
                    st.delta
                ));
            }
        }
        pareto_checked += 1;
    }
    st.report.pareto_checked += pareto_checked;
    Ok(st.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(iteration: usize, statuses: &str, diameters: &[f64]) -> Event {
        Event::RegionSnapshot {
            iteration,
            statuses: statuses.into(),
            diameters: diameters.to_vec(),
        }
    }

    #[test]
    fn clean_synthetic_trace_passes() {
        let events = vec![
            Event::RunStart {
                candidates: 3,
                objectives: 2,
                dim: 1,
                initial_samples: 1,
                max_iterations: 4,
                seed: 1,
            },
            Event::ToolEval {
                iteration: 0,
                candidate: 0,
                qor: vec![1.0, 1.0],
                duration_s: 0.0,
            },
            snapshot(0, "uuu", &[0.0, 2.0, 1.0]),
            batch(0, 1, &[1], &[2.0], &[2.0]),
            Event::ToolEval {
                iteration: 0,
                candidate: 1,
                qor: vec![2.0, 0.5],
                duration_s: 0.0,
            },
            Event::Classify {
                iteration: 1,
                pareto: 2,
                dropped: 1,
                undecided: 0,
                delta: vec![0.1, 0.1],
            },
            snapshot(1, "ppd", &[0.0, 0.0, 0.5]),
            Event::RunEnd {
                iterations: 2,
                runs: 2,
                verification_runs: 0,
                pareto: 2,
                duration_s: 0.0,
            },
        ];
        let report = check_trace(&events, None).expect("trace is clean");
        assert_eq!(report.snapshots, 2);
        assert_eq!(report.selects, 1);
        assert_eq!(report.tool_evals, 2);
        assert_eq!(report.pareto_checked, 2);
    }

    #[test]
    fn growing_region_is_rejected() {
        let events = vec![snapshot(0, "u", &[1.0]), snapshot(1, "u", &[1.5])];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("grew"), "{err}");
    }

    #[test]
    fn resurrection_is_rejected() {
        let events = vec![snapshot(0, "d", &[1.0]), snapshot(1, "u", &[1.0])];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("resurrected"), "{err}");
    }

    #[test]
    fn evaluating_dropped_candidate_is_rejected() {
        let events = vec![
            snapshot(0, "du", &[1.0, 1.0]),
            Event::ToolEval {
                iteration: 0,
                candidate: 0,
                qor: vec![1.0],
                duration_s: 0.0,
            },
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("evaluated afterwards"), "{err}");
    }

    #[test]
    fn non_greedy_selection_is_rejected() {
        let events = vec![
            snapshot(0, "uu", &[2.0, 1.0]),
            batch(0, 1, &[1], &[1.0], &[1.0]),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("max-diameter"), "{err}");
    }

    #[test]
    fn delta_inaccurate_pareto_is_rejected() {
        // Candidate 1 is classified Pareto but the true front point
        // (0.0, 0.0) beats its truth (1.0, 1.0) by far more than δ.
        let truth = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let events = vec![
            Event::Classify {
                iteration: 0,
                pareto: 2,
                dropped: 0,
                undecided: 0,
                delta: vec![0.1, 0.1],
            },
            snapshot(0, "pp", &[0.0, 0.0]),
        ];
        let err = check_trace(&events, Some(&truth)).unwrap_err();
        assert!(err.contains("not δ-accurate"), "{err}");
    }

    #[test]
    fn faulty_trace_with_recovery_and_quarantine_passes() {
        let events = vec![
            Event::RunStart {
                candidates: 3,
                objectives: 2,
                dim: 1,
                initial_samples: 1,
                max_iterations: 4,
                seed: 1,
            },
            // Candidate 0: fails once, recovers on retry.
            Event::EvalFailed {
                iteration: 0,
                candidate: 0,
                attempt: 1,
                kind: "crash".into(),
                detail: "license drop".into(),
            },
            Event::EvalRetry {
                iteration: 0,
                candidate: 0,
                attempt: 2,
            },
            Event::ToolEval {
                iteration: 0,
                candidate: 0,
                qor: vec![1.0, 1.0],
                duration_s: 0.0,
            },
            snapshot(0, "uuu", &[0.0, 2.0, 1.0]),
            batch(0, 1, &[1], &[2.0], &[2.0]),
            // Candidate 1: exhausts its budget and is quarantined.
            Event::EvalFailed {
                iteration: 0,
                candidate: 1,
                attempt: 1,
                kind: "timeout".into(),
                detail: "route".into(),
            },
            Event::EvalFailed {
                iteration: 0,
                candidate: 1,
                attempt: 2,
                kind: "timeout".into(),
                detail: "route".into(),
            },
            Event::CandidateQuarantined {
                iteration: 0,
                candidate: 1,
                attempts: 2,
            },
            // Fallback wave selects the next-longest diameter.
            batch(0, 1, &[2], &[1.0], &[1.0]),
            Event::ToolEval {
                iteration: 0,
                candidate: 2,
                qor: vec![2.0, 0.5],
                duration_s: 0.0,
            },
            Event::Classify {
                iteration: 1,
                pareto: 2,
                dropped: 0,
                undecided: 0,
                delta: vec![0.1, 0.1],
            },
            snapshot(1, "pqp", &[0.0, 1.0, 0.0]),
            Event::RunEnd {
                iterations: 2,
                runs: 5,
                verification_runs: 0,
                pareto: 2,
                duration_s: 0.0,
            },
        ];
        let report = check_trace(&events, None).expect("faulty trace is lawful");
        assert_eq!(report.eval_failures, 3);
        assert_eq!(report.quarantines, 1);
        assert_eq!(report.tool_evals, 2);
    }

    #[test]
    fn quarantine_resurrection_is_rejected() {
        let events = vec![snapshot(0, "q", &[1.0]), snapshot(1, "u", &[1.0])];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("resurrected"), "{err}");
    }

    #[test]
    fn selecting_quarantined_candidate_is_rejected() {
        let events = vec![
            Event::CandidateQuarantined {
                iteration: 0,
                candidate: 0,
                attempts: 3,
            },
            snapshot(0, "qu", &[2.0, 1.0]),
            batch(0, 1, &[0], &[2.0], &[2.0]),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(
            err.contains("quarantined candidate 0 was selected"),
            "{err}"
        );
    }

    #[test]
    fn evaluating_quarantined_candidate_is_rejected() {
        let events = vec![
            Event::CandidateQuarantined {
                iteration: 0,
                candidate: 1,
                attempts: 3,
            },
            Event::ToolEval {
                iteration: 1,
                candidate: 1,
                qor: vec![1.0],
                duration_s: 0.0,
            },
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("evaluated afterwards"), "{err}");
    }

    #[test]
    fn snapshot_must_show_announced_quarantines() {
        let events = vec![
            Event::CandidateQuarantined {
                iteration: 0,
                candidate: 0,
                attempts: 3,
            },
            snapshot(0, "uu", &[1.0, 1.0]),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("was quarantined but"), "{err}");
    }

    #[test]
    fn non_finite_accepted_qor_is_rejected() {
        let events = vec![Event::ToolEval {
            iteration: 0,
            candidate: 0,
            qor: vec![f64::NAN],
            duration_s: 0.0,
        }];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn run_end_attempt_conservation_is_enforced() {
        let events = vec![
            Event::ToolEval {
                iteration: 0,
                candidate: 0,
                qor: vec![1.0],
                duration_s: 0.0,
            },
            Event::EvalFailed {
                iteration: 0,
                candidate: 1,
                attempt: 1,
                kind: "crash".into(),
                detail: "x".into(),
            },
            Event::RunEnd {
                iterations: 1,
                runs: 3, // trace only accounts for 2 attempts
                verification_runs: 0,
                pareto: 1,
                duration_s: 0.0,
            },
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("accounts for 3 attempts"), "{err}");
    }

    fn batch(iteration: usize, q: usize, chosen: &[usize], d: &[f64], s: &[f64]) -> Event {
        Event::BatchSelect {
            iteration,
            q,
            chosen: chosen.to_vec(),
            diameters: d.to_vec(),
            scores: s.to_vec(),
        }
    }

    #[test]
    fn lawful_batch_select_passes() {
        let events = vec![
            snapshot(0, "uuuu", &[3.0, 2.0, 1.0, 0.5]),
            batch(0, 3, &[0, 2, 1], &[3.0, 1.0, 2.0], &[3.0, 0.9, 0.4]),
        ];
        let report = check_trace(&events, None).expect("batch is lawful");
        assert_eq!(report.selects, 1);
    }

    #[test]
    fn oversize_batch_is_rejected() {
        let events = vec![
            snapshot(0, "uuu", &[3.0, 2.0, 1.0]),
            batch(0, 2, &[0, 1, 2], &[3.0, 2.0, 1.0], &[3.0, 1.0, 0.5]),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("exceeds its budget"), "{err}");
    }

    #[test]
    fn duplicate_batch_member_is_rejected() {
        let events = vec![
            snapshot(0, "uu", &[3.0, 2.0]),
            batch(0, 2, &[0, 0], &[3.0, 3.0], &[3.0, 1.0]),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("appears twice"), "{err}");
    }

    #[test]
    fn quarantined_batch_member_is_rejected() {
        let events = vec![
            Event::CandidateQuarantined {
                iteration: 0,
                candidate: 1,
                attempts: 3,
            },
            snapshot(0, "uq", &[3.0, 2.0]),
            batch(0, 2, &[0, 1], &[3.0, 2.0], &[3.0, 1.0]),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("quarantined candidate 1"), "{err}");
    }

    #[test]
    fn increasing_batch_scores_are_rejected() {
        let events = vec![
            snapshot(0, "uu", &[3.0, 2.0]),
            batch(0, 2, &[0, 1], &[3.0, 2.0], &[3.0, 3.5]),
        ];
        let err = check_trace(&events, None).unwrap_err();
        // Score 3.5 exceeds member 1's diameter 2.0, the first law to trip.
        assert!(err.contains("exceeds its diameter"), "{err}");
        let events = vec![
            snapshot(0, "uuu", &[3.0, 2.0, 2.0]),
            batch(0, 3, &[0, 1, 2], &[3.0, 2.0, 2.0], &[3.0, 1.0, 1.5]),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("not descending"), "{err}");
    }

    #[test]
    fn penalized_first_pick_is_rejected() {
        let events = vec![
            snapshot(0, "uu", &[3.0, 2.0]),
            batch(0, 2, &[0, 1], &[3.0, 2.0], &[2.5, 1.0]),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("differs from its diameter"), "{err}");
    }

    #[test]
    fn batch_skipping_max_diameter_is_rejected() {
        let events = vec![
            snapshot(0, "uu", &[3.0, 2.0]),
            batch(0, 1, &[1], &[2.0], &[2.0]),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("skipped the max-diameter"), "{err}");
    }

    #[test]
    fn batch_select_requires_same_iteration_snapshot() {
        let events = vec![
            snapshot(0, "uu", &[3.0, 2.0]),
            batch(1, 1, &[0], &[3.0], &[3.0]),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("without a same-iteration snapshot"), "{err}");
    }

    fn span_start(id: u64, parent: Option<u64>, name: &str) -> Event {
        Event::SpanStart {
            id,
            parent,
            name: name.into(),
        }
    }

    fn span_end(id: u64, name: &str) -> Event {
        Event::SpanEnd {
            id,
            name: name.into(),
            duration_s: 0.0,
        }
    }

    #[test]
    fn clean_span_tree_passes() {
        let events = vec![
            span_start(1, None, "run"),
            span_start(2, Some(1), "iteration"),
            span_start(3, Some(2), "gp_fit"),
            span_end(3, "gp_fit"),
            span_end(2, "iteration"),
            span_start(4, Some(1), "eval_attempt"),
            span_end(4, "eval_attempt"),
            span_end(1, "run"),
        ];
        let report = check_trace(&events, None).expect("span tree is lawful");
        assert_eq!(report.spans, 4);
    }

    #[test]
    fn span_end_without_start_is_rejected() {
        let events = vec![span_end(7, "run")];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("without a matching start"), "{err}");
    }

    #[test]
    fn duplicate_span_id_is_rejected() {
        let events = vec![
            span_start(1, None, "run"),
            span_end(1, "run"),
            span_start(1, None, "run"),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("started twice"), "{err}");
    }

    #[test]
    fn child_of_closed_parent_is_rejected() {
        let events = vec![
            span_start(1, None, "run"),
            span_end(1, "run"),
            span_start(2, Some(1), "iteration"),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("is not open"), "{err}");
    }

    #[test]
    fn parent_closing_before_child_is_rejected() {
        let events = vec![
            span_start(1, None, "run"),
            span_start(2, Some(1), "iteration"),
            span_end(1, "run"),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("still open"), "{err}");
    }

    #[test]
    fn span_name_mismatch_is_rejected() {
        let events = vec![span_start(1, None, "run"), span_end(1, "iteration")];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("ended as"), "{err}");
    }

    #[test]
    fn unclosed_spans_at_trace_end_are_rejected() {
        let events = vec![span_start(1, None, "run")];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("unclosed span"), "{err}");
    }

    fn pool_refine(splits: usize, leaves: usize, pool_size: usize, eff: f64) -> Event {
        Event::PoolRefine {
            iteration: 0,
            splits,
            leaves,
            pool_size,
            effective_pool: eff,
        }
    }

    #[test]
    fn lawful_pool_growth_passes() {
        let events = vec![
            Event::RunStart {
                candidates: 2,
                objectives: 2,
                dim: 1,
                initial_samples: 1,
                max_iterations: 4,
                seed: 1,
            },
            pool_refine(1, 3, 3, 4.0),
            snapshot(0, "uuu", &[1.0, 1.0, 1.0]),
            pool_refine(2, 5, 5, 16.0),
            snapshot(1, "uuuuu", &[1.0, 1.0, 1.0, 1.0, 1.0]),
        ];
        let report = check_trace(&events, None).expect("pool growth is lawful");
        assert_eq!(report.pool_refines, 2);
        assert_eq!(report.snapshots, 2);
    }

    #[test]
    fn non_append_only_pool_growth_is_rejected() {
        let events = vec![
            Event::RunStart {
                candidates: 4,
                objectives: 2,
                dim: 1,
                initial_samples: 1,
                max_iterations: 4,
                seed: 1,
            },
            // 1 split cannot shrink a 4-candidate pool to 3.
            pool_refine(1, 3, 3, 4.0),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("append-only"), "{err}");
    }

    #[test]
    fn pool_leaf_count_must_track_splits() {
        let events = vec![pool_refine(1, 3, 3, 4.0), pool_refine(1, 7, 4, 8.0)];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("exactly one leaf"), "{err}");
    }

    #[test]
    fn effective_pool_below_leaf_count_is_rejected() {
        let events = vec![pool_refine(2, 8, 8, 3.0)];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("below the leaf count"), "{err}");
    }

    #[test]
    fn snapshot_after_growth_must_match_grown_size() {
        let events = vec![
            Event::RunStart {
                candidates: 2,
                objectives: 2,
                dim: 1,
                initial_samples: 1,
                max_iterations: 4,
                seed: 1,
            },
            pool_refine(1, 3, 3, 4.0),
            snapshot(0, "uu", &[1.0, 1.0]),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("disagree with RunStart"), "{err}");
    }

    fn degraded(objective: usize, mode: &str, consecutive: usize) -> Event {
        Event::DegradedFit {
            iteration: 3,
            objective,
            cause: "kernel matrix factorization failed".into(),
            mode: mode.into(),
            consecutive,
        }
    }

    fn watchdog(iteration: usize, candidate: usize, attempt: usize) -> Event {
        Event::WatchdogFired {
            iteration,
            candidate,
            attempt,
            deadline_s: 30.0,
        }
    }

    fn failed(iteration: usize, candidate: usize, attempt: usize, kind: &str) -> Event {
        Event::EvalFailed {
            iteration,
            candidate,
            attempt,
            kind: kind.into(),
            detail: "x".into(),
        }
    }

    #[test]
    fn lawful_resilience_events_pass() {
        let events = vec![
            Event::RunStart {
                candidates: 3,
                objectives: 2,
                dim: 1,
                initial_samples: 1,
                max_iterations: 4,
                seed: 1,
            },
            Event::RecoveryScan {
                scanned: 3,
                skipped: 2,
                next_iteration: Some(2),
            },
            degraded(1, "refit-reused-hypers", 1),
            degraded(0, "frozen", 2),
            watchdog(3, 1, 1),
            failed(3, 1, 1, "timeout"),
        ];
        let report = check_trace(&events, None).expect("resilience trace is lawful");
        assert_eq!(report.degraded_fits, 2);
        assert_eq!(report.watchdog_firings, 1);
        assert_eq!(report.recovery_scans, 1);
        assert_eq!(report.eval_failures, 1);
    }

    #[test]
    fn unknown_degradation_mode_is_rejected() {
        let err = check_trace(&[degraded(0, "limp-home", 1)], None).unwrap_err();
        assert!(err.contains("unknown degradation mode"), "{err}");
        let err = check_trace(&[degraded(0, "frozen", 0)], None).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn degraded_objective_out_of_range_is_rejected() {
        let events = vec![
            Event::RunStart {
                candidates: 3,
                objectives: 2,
                dim: 1,
                initial_samples: 1,
                max_iterations: 4,
                seed: 1,
            },
            degraded(2, "frozen", 1),
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn watchdog_without_timeout_failure_is_rejected() {
        // Dangling at trace end.
        let err = check_trace(&[watchdog(0, 1, 1)], None).unwrap_err();
        assert!(err.contains("never converted"), "{err}");
        // Converted to the wrong failure kind.
        let events = vec![watchdog(0, 1, 1), failed(0, 1, 1, "crash")];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("not \"timeout\""), "{err}");
        // Fired twice for the same attempt.
        let events = vec![watchdog(0, 1, 1), watchdog(0, 1, 1)];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("fired twice"), "{err}");
        // Non-positive deadline.
        let events = vec![Event::WatchdogFired {
            iteration: 0,
            candidate: 1,
            attempt: 1,
            deadline_s: 0.0,
        }];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("finite and positive"), "{err}");
    }

    #[test]
    fn empty_or_inconsistent_recovery_scan_is_rejected() {
        let events = vec![Event::RecoveryScan {
            scanned: 3,
            skipped: 0,
            next_iteration: Some(1),
        }];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("nothing skipped"), "{err}");
        let events = vec![Event::RecoveryScan {
            scanned: 1,
            skipped: 2,
            next_iteration: None,
        }];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("claims to have"), "{err}");
    }

    #[test]
    fn double_evaluation_is_rejected() {
        let events = vec![
            Event::ToolEval {
                iteration: 0,
                candidate: 2,
                qor: vec![1.0],
                duration_s: 0.0,
            },
            Event::ToolEval {
                iteration: 1,
                candidate: 2,
                qor: vec![1.0],
                duration_s: 0.0,
            },
        ];
        let err = check_trace(&events, None).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }
}
