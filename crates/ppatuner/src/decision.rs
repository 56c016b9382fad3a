//! The decision-making stage: δ-domination dropping (Eq. 11),
//! δ-accurate Pareto classification (Eq. 12), and the diverse top-q
//! batch selection rule that generalizes Eq. 13 to concurrent
//! evaluation.

use crate::region::UncertaintyRegion;

/// Classification state of one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Not yet decided; still competing.
    Undecided,
    /// Classified as (δ-accurate) Pareto-optimal.
    Pareto,
    /// δ-dominated by another candidate; out of the race.
    Dropped,
    /// The candidate exhausted its evaluation failure budget (every tool
    /// attempt crashed, timed out, or produced unusable QoR). Terminal:
    /// never selected or evaluated again, and — like `Dropped` — it no
    /// longer influences classification, because its region is stale
    /// model speculation that can never be confirmed and would otherwise
    /// stall promotion of healthy candidates forever.
    Quarantined,
}

impl Status {
    /// `true` while the candidate still competes for the front
    /// (`Undecided` or `Pareto`).
    pub fn is_active(self) -> bool {
        matches!(self, Status::Undecided | Status::Pareto)
    }
}

/// Outcome of one decision pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecisionOutcome {
    /// Candidates dropped this pass.
    pub dropped: Vec<usize>,
    /// Candidates promoted to Pareto this pass.
    pub promoted: Vec<usize>,
}

/// `true` iff `a ≤ b + delta` componentwise (δ-relaxed weak dominance).
fn delta_leq(a: &[f64], b: &[f64], delta: &[f64]) -> bool {
    a.iter().zip(b).zip(delta).all(|((&x, &y), &d)| x <= y + d)
}

/// The sweep's key: the first three coordinates of a corner, padded with
/// `0.0` when `m < 3` (a padded coordinate is `0.0 ≤ 0.0` for every
/// pair, so it never filters anything out).
type Key = [f64; 3];

/// The sweep entries `(j, key)` of the active candidates, where
/// `corner(j, k)` is coordinate `k` of `j`'s corner, sorted on `key[0]`.
/// A key with a NaN coordinate can satisfy no `≤`, so it is left out:
/// such a candidate is never a witness and has none, as in the pairwise
/// rules.
fn sorted_keys(
    statuses: &[Status],
    m: usize,
    corner: impl Fn(usize, usize) -> f64,
) -> Vec<(usize, Key)> {
    let mut keys: Vec<(usize, Key)> = (0..statuses.len())
        .filter(|&j| statuses[j].is_active())
        .map(|j| {
            (
                j,
                std::array::from_fn(|k| if k < m { corner(j, k) } else { 0.0 }),
            )
        })
        .filter(|(_, key)| !key.iter().any(|v| v.is_nan()))
        .collect();
    keys.sort_unstable_by(|a, b| a.1[0].total_cmp(&b.1[0]));
    keys
}

/// The two smallest `(value, index)` entries of a point set, where the
/// value is the sweep's last key coordinate. Each point is pushed once
/// and a tree prefix query merges disjoint nodes, so the two entries
/// always carry distinct indices: when the smallest is the query's own
/// index, the second is its best rival.
#[derive(Clone, Copy)]
struct Min2([(f64, usize); 2]);

impl Min2 {
    const NONE: usize = usize::MAX;
    const EMPTY: Min2 = Min2([(f64::INFINITY, Self::NONE); 2]);

    fn push(&mut self, e: (f64, usize)) {
        let [a, b] = &mut self.0;
        if a.1 == Self::NONE || e.0 < a.0 {
            *b = *a;
            *a = e;
        } else if b.1 == Self::NONE || e.0 < b.0 {
            *b = e;
        }
    }
}

/// Fenwick tree of [`Min2`] over the rank of `key[1]`: `prefix(r)` holds
/// the two smallest `key[2]` among inserted points of rank `< r`.
struct MinTree(Vec<Min2>);

impl MinTree {
    fn insert(&mut self, rank: usize, e: (f64, usize)) {
        let mut k = rank + 1;
        while k <= self.0.len() {
            self.0[k - 1].push(e);
            k += k & k.wrapping_neg();
        }
    }

    fn prefix(&self, len: usize) -> Min2 {
        let mut acc = Min2::EMPTY;
        let mut k = len;
        while k > 0 {
            for e in self.0[k - 1].0 {
                if e.1 != Min2::NONE {
                    acc.push(e);
                }
            }
            k &= k - 1;
        }
        acc
    }
}

/// The orthant sweep both rules share. Returns, in ascending order, every
/// query `i` with a witness: a point `j ≠ i` for which `holds(i, j)`.
///
/// `points` and `queries` are entries of [`sorted_keys`]: NaN-free and
/// sorted on `key[0]`. `holds(i, j)` must imply `point_j ≤ threshold_i` on
/// every coordinate, so a query with no point in its lower orthant has
/// no witness. The sweep visits the queries in ascending `threshold[0]`,
/// passing every point with `key[0] ≤ threshold[0]`. With `planar` (the
/// objective count m ≤ 2, so `key[2]` is padding) it keeps one running
/// [`Min2`] of `key[1]` over those points; otherwise it inserts them into
/// a [`MinTree`] whose prefix query covers `key[1]` and `key[2]`. Either
/// answers the orthant question on every key coordinate, so `holds`
/// runs only for flagged queries: first on the (at most two) orthant
/// witnesses returned, then, if neither holds, on the whole
/// coordinate-0 prefix. That prefix contains every `j` with
/// `point_j[0] ≤ threshold_i[0]`, so the answer is exact for any `holds`.
fn orthant_witnessed(
    points: &[(usize, Key)],
    queries: impl IntoIterator<Item = (usize, Key)>,
    planar: bool,
    holds: impl Fn(usize, usize) -> bool,
) -> Vec<usize> {
    let ys: Vec<f64> = if planar {
        Vec::new()
    } else {
        let mut ys: Vec<f64> = points.iter().map(|p| p.1[1]).collect();
        ys.sort_unstable_by(f64::total_cmp);
        ys.dedup();
        ys
    };
    let last = if planar { 1 } else { 2 };

    let mut running = Min2::EMPTY;
    let mut tree = MinTree(vec![Min2::EMPTY; ys.len()]);
    let mut inserted = 0;
    let mut hits = Vec::new();
    for (i, t) in queries {
        while inserted < points.len() && points[inserted].1[0] <= t[0] {
            let (j, p) = points[inserted];
            if planar {
                running.push((p[1], j));
            } else {
                tree.insert(ys.partition_point(|&y| y < p[1]), (p[2], j));
            }
            inserted += 1;
        }
        let near = if planar {
            running
        } else {
            tree.prefix(ys.partition_point(|&y| y <= t[1]))
        };
        let mut flagged = false;
        let mut witnessed = false;
        for (v, j) in near.0 {
            if j != Min2::NONE && j != i && v <= t[last] {
                flagged = true;
                witnessed = witnessed || holds(i, j);
            }
        }
        let witnessed = witnessed
            || (flagged
                && points[..inserted]
                    .iter()
                    .any(|&(j, _)| j != i && holds(i, j)));
        if witnessed {
            hits.push(i);
        }
    }
    hits.sort_unstable();
    hits
}

/// Eq. 11's pairwise rule: active `j` drops undecided `i` when
/// `pess_j ≤ opt_i + δ`, unless the two δ-dominate each other and `i` is
/// preferred (the smaller pessimistic-corner sum in `sums`, then the
/// smaller index).
fn drops(regions: &[UncertaintyRegion], sums: &[f64], delta: &[f64], i: usize, j: usize) -> bool {
    let prefer = |a: usize, b: usize| match sums[a].partial_cmp(&sums[b]) {
        Some(std::cmp::Ordering::Less) => true,
        Some(std::cmp::Ordering::Greater) => false,
        _ => a < b,
    };
    let (ri, rj) = (&regions[i], &regions[j]);
    delta_leq(rj.pessimistic(), ri.optimistic(), delta)
        && !(delta_leq(ri.pessimistic(), rj.optimistic(), delta) && prefer(i, j))
}

/// Eq. 12's pairwise rule: active `j` blocks `i`'s promotion when
/// `opt_j + δ ≤ pess_i`.
fn beats(regions: &[UncertaintyRegion], delta: &[f64], i: usize, j: usize) -> bool {
    regions[j]
        .optimistic()
        .iter()
        .zip(regions[i].pessimistic())
        .zip(delta)
        .all(|((&oj, &pi), &d)| oj + d <= pi)
}

/// The two sweeps of one pass. Marks `Dropped` every undecided `i` with
/// an active `j` for which `drops(i, j)`, and returns those indices and
/// then every still-undecided `i` with a post-drop active `j` for which
/// `beats(i, j)`, each list ascending.
fn sweep_pass(
    regions: &[UncertaintyRegion],
    statuses: &mut [Status],
    delta: &[f64],
    drops: impl Fn(usize, usize) -> bool,
    beats: impl Fn(usize, usize) -> bool,
) -> (Vec<usize>, Vec<usize>) {
    let m = delta.len();
    let planar = m <= 2;
    let undecided = |s: Status| s == Status::Undecided;
    // Each corner key is sorted once per pass; both rules filter these
    // two orders by status.
    let by_pess = sorted_keys(statuses, m, |j, k| regions[j].pessimistic()[k]);
    let by_opt = sorted_keys(statuses, m, |j, k| regions[j].optimistic()[k] + delta[k]);

    // Drop (Eq. 11): some active `j` has pess_j ≤ opt_i + δ.
    let dropped = orthant_witnessed(
        &by_pess,
        by_opt.iter().copied().filter(|e| undecided(statuses[e.0])),
        planar,
        drops,
    );
    for &i in &dropped {
        statuses[i] = Status::Dropped;
    }

    // Promote (Eq. 12), against post-drop statuses: blocked when some
    // active `j` has opt_j + δ ≤ pess_i.
    let active: Vec<(usize, Key)> = by_opt
        .into_iter()
        .filter(|e| statuses[e.0].is_active())
        .collect();
    let beaten = orthant_witnessed(
        &active,
        by_pess.iter().copied().filter(|e| undecided(statuses[e.0])),
        planar,
        beats,
    );
    (dropped, beaten)
}

/// Runs one decision pass over the candidates (Eqs. 11–12), in place.
///
/// For every undecided candidate `x`:
///
/// - **Drop** (Eq. 11) when some other active candidate `x'` satisfies
///   `max(U(x')) ≤ min(U(x)) + δ`: even `x'`'s worst case δ-dominates
///   `x`'s best case, so `x` cannot be needed for the front.
/// - **Promote** (Eq. 12) when *no* other active candidate `x'` satisfies
///   `min(U(x')) + δ ≤ max(U(x))` componentwise: no rival's best case can
///   beat `x`'s worst case by more than δ, so `x` is at most δ-worse than
///   any true Pareto point.
///
/// "Active" means `Undecided` or `Pareto` (dropped and quarantined
/// candidates no longer influence decisions). Both rules read the
/// statuses as of the start of their step, so the result does not depend
/// on index order; promotion is checked after dropping, as in Algorithm 1
/// (lines 8–9). `dropped` and `promoted` list indices in ascending order.
///
/// The mutual-δ tie-break is part of the contract: when `x` and `x'`
/// δ-dominate each other (near-duplicates within the slack, or exact
/// duplicates), `x'` drops `x` only if `x'` is preferred — it has the
/// smaller pessimistic-corner sum, then the smaller index — so exactly
/// one of the pair survives.
///
/// # Complexity
///
/// Each rule is an orthant-emptiness query over the active set, answered
/// by one sweep on the first coordinate (the maxima-of-vectors sweep of
/// Kung, Luccio and Preparata, JACM 1975). For m ≤ 2 the sweep keeps a
/// running minimum of the second coordinate; for m ≥ 3 it keeps a
/// Fenwick tree over the rank of the second and the minimum of the third
/// in each node. Each pass sorts the active set twice, once by
/// `pess[0]` and once by `opt[0] + δ[0]`, and both rules' points and
/// queries are filtered from those two orders. Cost: O(P log P + P·m)
/// for P candidates when m ≤ 3. Promotion is exact on the sweep.
/// Dropping uses the sweep as a filter and confirms each flagged
/// candidate with the pairwise rule above on the sweep's witnesses; only
/// when those are all mutual ties it prefers, or when m ≥ 4 (the sweep
/// then filters on the first three coordinates), does it scan the
/// candidates whose first coordinate qualifies, O(P·m) each. Rules and
/// tie-break match the O(P²·m) pairwise scans exactly.
///
/// # Panics
///
/// Panics when `regions` and `statuses` lengths differ or a region's
/// dimension does not match `delta`.
pub fn classify(
    regions: &[UncertaintyRegion],
    statuses: &mut [Status],
    delta: &[f64],
) -> DecisionOutcome {
    assert_eq!(regions.len(), statuses.len(), "classify: length mismatch");
    let m = delta.len();
    for r in regions {
        assert_eq!(r.dim(), m, "classify: delta dimension");
    }
    debug_assert!(
        regions.iter().all(|r| !r
            .optimistic()
            .iter()
            .chain(r.pessimistic())
            .any(|v| v.is_nan())),
        "classify: NaN region corner"
    );
    // The tie-break's corner sums, once per pass.
    let sums: Vec<f64> = regions
        .iter()
        .map(|r| r.pessimistic().iter().sum())
        .collect();
    let (dropped, beaten) = sweep_pass(
        regions,
        statuses,
        delta,
        |i, j| drops(regions, &sums, delta, i, j),
        |i, j| beats(regions, delta, i, j),
    );
    let mut beaten = beaten.into_iter().peekable();
    let mut promoted = Vec::new();
    for (i, s) in statuses.iter_mut().enumerate() {
        if *s == Status::Undecided && beaten.next_if_eq(&i).is_none() {
            *s = Status::Pareto;
            promoted.push(i);
        }
    }
    DecisionOutcome { dropped, promoted }
}

/// One pick of the diversity-penalized batch selection rule.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPick {
    /// Candidate index.
    pub index: usize,
    /// Uncertainty-region diameter at selection time (Eq. 13 criterion).
    pub diameter: f64,
    /// Greedy score `diam · (1 − γ·red)` at the moment of the pick. The
    /// first pick is unpenalized (`score == diameter`); scores are
    /// non-increasing along the batch.
    pub score: f64,
}

/// Redundancy of candidate `i` against an already-picked `j`: the larger
/// of a parameter-space proximity term (`1 − dist/r`, clamped at 0) and a
/// dominance-shadow term (1 when `j`'s pessimistic corner weakly
/// dominates `i`'s optimistic corner — evaluating `j` is expected to
/// settle `i`'s fate, so spending a second license on `i` is wasteful).
fn pair_redundancy(
    candidates: &[Vec<f64>],
    regions: &[UncertaintyRegion],
    i: usize,
    j: usize,
    radius: f64,
) -> f64 {
    let shadowed = regions[j]
        .pessimistic()
        .iter()
        .zip(regions[i].optimistic())
        .all(|(&pj, &oi)| pj <= oi);
    if shadowed {
        return 1.0;
    }
    let dist = gp::vecops::dist(&candidates[i], &candidates[j]);
    (1.0 - dist / radius).max(0.0)
}

/// Selects a diverse batch of up to `q` candidates for evaluation — the
/// concurrent generalization of the paper's Eq. 13.
///
/// Eligible candidates are active (`Undecided` or `Pareto`), not yet
/// evaluated, and have a positive region diameter. Picks are made
/// greedily: each step takes the eligible candidate maximizing
/// `score = diam · (1 − γ·red)`, where `red` is the candidate's maximal
/// redundancy against the members picked so far (the larger of a
/// parameter-space proximity term and a dominance-shadow term) and
/// `γ = diversity` scales the penalty. The first pick has `red = 0`, so
/// `q = 1` reduces exactly to argmax-diameter — the paper's rule.
///
/// Ties are broken deterministically by lexicographically minimizing
/// `(−score, red, −diameter, index)` under IEEE total order, pinning the
/// result bit-for-bit for golden traces and the brute-force reference in
/// `testkit`.
///
/// # Panics
///
/// Panics when the input slice lengths disagree. `diversity` must lie in
/// `[0, 1)` and `radius` must be positive; both are validated by
/// `PpaTunerConfig::validate` before reaching this function.
pub fn select_batch(
    candidates: &[Vec<f64>],
    regions: &[UncertaintyRegion],
    statuses: &[Status],
    evaluated: &[bool],
    q: usize,
    diversity: f64,
    radius: f64,
) -> Vec<BatchPick> {
    assert_eq!(
        candidates.len(),
        regions.len(),
        "select_batch: length mismatch"
    );
    assert_eq!(
        candidates.len(),
        statuses.len(),
        "select_batch: length mismatch"
    );
    assert_eq!(
        candidates.len(),
        evaluated.len(),
        "select_batch: length mismatch"
    );
    let eligible: Vec<(usize, f64)> = (0..candidates.len())
        .filter(|&i| statuses[i].is_active() && !evaluated[i])
        .map(|i| (i, regions[i].diameter()))
        .filter(|&(_, d)| d > 0.0)
        .collect();
    let k = q.min(eligible.len());
    // Running redundancy vs the picked set: max is order-insensitive, so
    // updating incrementally is bit-identical to a fresh max over members.
    let mut red = vec![0.0_f64; eligible.len()];
    let mut taken = vec![false; eligible.len()];
    let mut picks = Vec::with_capacity(k);
    for _ in 0..k {
        let mut best: Option<(f64, f64, f64, usize, usize)> = None;
        for (pos, &(i, diam)) in eligible.iter().enumerate() {
            if taken[pos] {
                continue;
            }
            let score = diam * (1.0 - diversity * red[pos]);
            let key = (score, red[pos], diam, i, pos);
            let wins = match best {
                None => true,
                Some((bs, br, bd, bi, _)) => match score.total_cmp(&bs) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => match red[pos].total_cmp(&br) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Greater => false,
                        std::cmp::Ordering::Equal => match diam.total_cmp(&bd) {
                            std::cmp::Ordering::Greater => true,
                            std::cmp::Ordering::Less => false,
                            std::cmp::Ordering::Equal => i < bi,
                        },
                    },
                },
            };
            if wins {
                best = Some(key);
            }
        }
        let (score, _, diameter, index, pos) = best.expect("k ≤ eligible.len()");
        taken[pos] = true;
        for (p, &(j, _)) in eligible.iter().enumerate() {
            if !taken[p] {
                let r = pair_redundancy(candidates, regions, j, index, radius);
                if r > red[p] {
                    red[p] = r;
                }
            }
        }
        picks.push(BatchPick {
            index,
            diameter,
            score,
        });
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(v: &[f64]) -> UncertaintyRegion {
        UncertaintyRegion::point(v)
    }

    fn boxed(lo: &[f64], hi: &[f64]) -> UncertaintyRegion {
        let mut u = UncertaintyRegion::unbounded(lo.len());
        u.intersect(lo, hi);
        u
    }

    #[test]
    fn exact_points_reduce_to_pareto_logic() {
        // (1,4), (2,2), (4,1) front; (3,3) dominated by (2,2).
        let regions = vec![
            pt(&[1.0, 4.0]),
            pt(&[2.0, 2.0]),
            pt(&[4.0, 1.0]),
            pt(&[3.0, 3.0]),
        ];
        let mut statuses = vec![Status::Undecided; 4];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert_eq!(out.dropped, vec![3]);
        assert_eq!(statuses[0], Status::Pareto);
        assert_eq!(statuses[1], Status::Pareto);
        assert_eq!(statuses[2], Status::Pareto);
        assert_eq!(statuses[3], Status::Dropped);
    }

    #[test]
    fn uncertain_candidates_stay_undecided() {
        // A wide box overlapping the known point: neither droppable nor
        // promotable.
        let regions = vec![pt(&[2.0, 2.0]), boxed(&[1.0, 1.0], &[4.0, 4.0])];
        let mut statuses = vec![Status::Undecided; 2];
        classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert_eq!(statuses[1], Status::Undecided);
        // The known point cannot be promoted either: the box's optimistic
        // corner (1,1) dominates it.
        assert_eq!(statuses[0], Status::Undecided);
    }

    #[test]
    fn clearly_bad_box_is_dropped() {
        // Box entirely dominated by the point even in its best case.
        let regions = vec![pt(&[1.0, 1.0]), boxed(&[3.0, 3.0], &[5.0, 5.0])];
        let mut statuses = vec![Status::Undecided; 2];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert_eq!(out.dropped, vec![1]);
        // With the rival gone, the point is promoted.
        assert_eq!(statuses[0], Status::Pareto);
    }

    #[test]
    fn delta_relaxation_drops_near_duplicates() {
        // (2.05, 2.05) is within δ = 0.1 of (2, 2): dropped.
        let regions = vec![pt(&[2.0, 2.0]), pt(&[2.05, 2.05])];
        let mut statuses = vec![Status::Undecided; 2];
        let out = classify(&regions, &mut statuses, &[0.1, 0.1]);
        assert_eq!(out.dropped, vec![1]);
        assert_eq!(statuses[0], Status::Pareto);
    }

    #[test]
    fn identical_points_keep_first() {
        let regions = vec![pt(&[2.0, 2.0]), pt(&[2.0, 2.0])];
        let mut statuses = vec![Status::Undecided; 2];
        classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert_eq!(statuses[0], Status::Pareto);
        assert_eq!(statuses[1], Status::Dropped);
    }

    #[test]
    fn dropped_candidates_do_not_influence() {
        // A dominating rival that is already dropped must not drop others.
        let regions = vec![pt(&[1.0, 1.0]), pt(&[2.0, 2.0])];
        let mut statuses = vec![Status::Dropped, Status::Undecided];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert!(out.dropped.is_empty());
        assert_eq!(statuses[1], Status::Pareto);
    }

    #[test]
    fn incomparable_points_all_promote() {
        let regions = vec![pt(&[1.0, 4.0]), pt(&[4.0, 1.0])];
        let mut statuses = vec![Status::Undecided; 2];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert_eq!(out.promoted.len(), 2);
    }

    #[test]
    fn empty_input_is_noop() {
        let out = classify(&[], &mut [], &[0.0]);
        assert!(out.dropped.is_empty() && out.promoted.is_empty());
    }

    #[test]
    #[should_panic(expected = "classify: delta dimension")]
    fn mismatched_first_region_panics() {
        let regions = vec![pt(&[1.0, 2.0, 3.0]), pt(&[1.0, 2.0])];
        classify(&regions, &mut [Status::Undecided; 2], &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "classify: delta dimension")]
    fn mismatched_later_region_panics() {
        let regions = vec![pt(&[1.0, 2.0]), pt(&[2.0, 1.0]), pt(&[1.0])];
        classify(&regions, &mut [Status::Undecided; 3], &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "classify: delta dimension")]
    fn mismatched_inactive_region_panics() {
        let regions = vec![pt(&[1.0, 2.0]), pt(&[1.0, 2.0, 3.0])];
        classify(
            &regions,
            &mut [Status::Undecided, Status::Dropped],
            &[0.0, 0.0],
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "classify: NaN region corner")]
    fn nan_corner_panics_in_debug_builds() {
        let regions = vec![pt(&[1.0, 2.0]), pt(&[f64::NAN, 1.0])];
        classify(&regions, &mut [Status::Undecided; 2], &[0.0, 0.0]);
    }

    #[test]
    fn quarantined_candidates_neither_influence_nor_change() {
        // The quarantined candidate's stale region would dominate
        // everything if it still counted as a rival; it must not.
        let regions = vec![pt(&[1.0, 1.0]), pt(&[2.0, 2.0]), pt(&[2.5, 2.5])];
        let mut statuses = vec![Status::Quarantined, Status::Undecided, Status::Undecided];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        // Candidate 1 dominates candidate 2 but not vice versa.
        assert_eq!(statuses[0], Status::Quarantined, "quarantine is terminal");
        assert_eq!(statuses[1], Status::Pareto);
        assert_eq!(statuses[2], Status::Dropped);
        assert!(!out.promoted.contains(&0));
        assert!(!out.dropped.contains(&0));
    }

    #[test]
    fn pareto_members_still_drop_rivals() {
        // An already-promoted candidate keeps suppressing dominated ones.
        let regions = vec![pt(&[1.0, 1.0]), pt(&[3.0, 3.0])];
        let mut statuses = vec![Status::Pareto, Status::Undecided];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert_eq!(out.dropped, vec![1]);
    }

    /// Runs one pass's sweeps with `classify`'s rules, counting the
    /// `holds` calls of each query; returns the drop and promote hits and
    /// the counts (`calls[i]` sums both rules).
    fn counted_sweeps(
        regions: &[UncertaintyRegion],
        statuses: &[Status],
        delta: &[f64],
    ) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let sums: Vec<f64> = regions
            .iter()
            .map(|r| r.pessimistic().iter().sum())
            .collect();
        let calls = std::cell::RefCell::new(vec![0; regions.len()]);
        let (dropped, beaten) = sweep_pass(
            regions,
            &mut statuses.to_vec(),
            delta,
            |i, j| {
                calls.borrow_mut()[i] += 1;
                drops(regions, &sums, delta, i, j)
            },
            |i, j| {
                calls.borrow_mut()[i] += 1;
                beats(regions, delta, i, j)
            },
        );
        (dropped, beaten, calls.into_inner())
    }

    #[test]
    fn tie_free_pool_sweeps_call_holds_at_most_twice_per_query() {
        use rand::{Rng, SeedableRng};
        // Pool-sized boxes around a concave front, a tenth of them
        // points. With δ = 0 two candidates δ-dominate each other only
        // when both are the same point, which continuous draws never
        // give, so every sweep witness holds and no query scans its
        // prefix.
        for m in 1..=3 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(31 + m as u64);
            let regions: Vec<UncertaintyRegion> = (0..3000)
                .map(|_| {
                    let u: Vec<f64> = (0..m).map(|_| rng.gen_range(0.05..1.0)).collect();
                    let norm = u.iter().map(|v| v * v).sum::<f64>().sqrt();
                    let lift = rng.gen_range(0.0..0.4);
                    let c: Vec<f64> = u.iter().map(|v| v / norm + lift).collect();
                    if rng.gen_bool(0.1) {
                        return pt(&c);
                    }
                    let h: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0025..0.04)).collect();
                    let lo: Vec<f64> = c.iter().zip(&h).map(|(c, h)| c - h).collect();
                    let hi: Vec<f64> = c.iter().zip(&h).map(|(c, h)| c + h).collect();
                    boxed(&lo, &hi)
                })
                .collect();
            let statuses = vec![Status::Undecided; regions.len()];
            let (dropped, beaten, calls) = counted_sweeps(&regions, &statuses, &vec![0.0; m]);
            let worst = calls.iter().max().copied().unwrap_or(0);
            assert!(worst <= 2, "m={m}: a query made {worst} holds calls");
            // Not vacuous: both rules flag queries.
            assert!(dropped.len() > 100, "m={m}: only {} drops", dropped.len());
            assert!(beaten.len() > 10, "m={m}: only {} beaten", beaten.len());
        }
    }

    #[test]
    fn prefix_scan_finds_a_witness_behind_two_preferred_ties() {
        // Candidate 0's two nearest sweep witnesses (smallest last key
        // coordinate) are 1 and 2: each δ-dominates 0 and is δ-dominated
        // by it, and 0 has the smaller pessimistic sum, so neither drops
        // it. Candidate 3 lies further along that coordinate but is no
        // tie, so it drops 0, and only the prefix scan can find it.
        let cases: [[&[f64]; 4]; 2] = [
            [&[1.0, 1.0], &[1.06, 0.96], &[1.03, 0.98], &[0.6, 1.09]],
            [
                &[1.0, 0.9, 1.0],
                &[1.06, 0.96, 0.95],
                &[1.03, 0.98, 0.97],
                &[0.6, 0.95, 1.05],
            ],
        ];
        for corners in cases {
            let m = corners[0].len();
            let regions: Vec<UncertaintyRegion> = corners.iter().map(|c| pt(c)).collect();
            let mut statuses = vec![Status::Pareto; 4];
            statuses[0] = Status::Undecided;
            let delta = vec![0.1; m];
            let (dropped, _, calls) = counted_sweeps(&regions, &statuses, &delta);
            assert_eq!(dropped, vec![0], "m={m}");
            assert_eq!(calls[0], 3, "m={m}: two nearest witnesses, then the scan");
            let out = classify(&regions, &mut statuses, &delta);
            assert_eq!(out.dropped, vec![0], "m={m}");
        }
    }

    fn far_points(n: usize) -> Vec<Vec<f64>> {
        // Pairwise distances ≥ 10: the proximity term never fires.
        (0..n).map(|i| vec![10.0 * i as f64, 0.0]).collect()
    }

    /// Boxes whose corners are mutually incomparable, so the dominance
    /// shadow never fires either.
    fn staircase_boxes(diams: &[f64]) -> Vec<UncertaintyRegion> {
        diams
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let side = d / (2.0_f64).sqrt();
                let base = 10.0 * i as f64;
                boxed(&[base, -base - side], &[base + side, -base])
            })
            .collect()
    }

    #[test]
    fn q1_is_argmax_diameter_with_smallest_index_ties() {
        let regions = staircase_boxes(&[0.5, 2.0, 2.0, 1.0]);
        let cands = far_points(4);
        let statuses = vec![Status::Undecided; 4];
        let picks = select_batch(&cands, &regions, &statuses, &[false; 4], 1, 0.5, 0.25);
        assert_eq!(picks.len(), 1);
        assert_eq!(picks[0].index, 1, "largest diameter, smallest index on tie");
        assert_eq!(picks[0].score, picks[0].diameter, "first pick unpenalized");
    }

    #[test]
    fn distant_candidates_rank_purely_by_diameter() {
        let regions = staircase_boxes(&[0.5, 2.0, 1.5, 1.0]);
        let cands = far_points(4);
        let statuses = vec![Status::Undecided; 4];
        let picks = select_batch(&cands, &regions, &statuses, &[false; 4], 3, 0.9, 0.25);
        let idx: Vec<usize> = picks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![1, 2, 3]);
        for w in picks.windows(2) {
            assert!(w[0].score >= w[1].score, "scores non-increasing");
        }
    }

    #[test]
    fn nearby_duplicate_is_penalized_in_favor_of_a_diverse_pick() {
        // Candidates 0 and 1 are colocated with the two longest
        // diameters; candidate 2 is far away and slightly shorter. With a
        // strong penalty the batch should be {0, 2}, not {0, 1}.
        let cands = vec![vec![0.0, 0.0], vec![0.01, 0.0], vec![5.0, 5.0]];
        let regions = vec![
            boxed(&[0.0, 0.0], &[2.0, 0.0]),
            boxed(&[10.0, -3.0], &[11.9, -3.0]),
            boxed(&[-5.0, 3.0], &[-3.2, 3.0]),
        ];
        let statuses = vec![Status::Undecided; 3];
        let picks = select_batch(&cands, &regions, &statuses, &[false; 3], 2, 0.9, 0.25);
        let idx: Vec<usize> = picks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![0, 2]);
        // With the penalty off, pure diameters win.
        let picks = select_batch(&cands, &regions, &statuses, &[false; 3], 2, 0.0, 0.25);
        let idx: Vec<usize> = picks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn dominance_shadow_counts_as_redundancy() {
        // Candidate 1's region sits entirely below candidate 2's: once 1
        // is measured, 2's fate is likely settled, so 2 is penalized even
        // though the two are far apart in parameter space.
        let cands = far_points(3);
        let regions = vec![
            boxed(&[0.0, 0.0], &[3.0, 0.0]),
            boxed(&[0.0, 5.0], &[2.0, 5.0]),
            boxed(&[3.5, 0.5], &[3.5, 3.3]),
        ];
        let statuses = vec![Status::Undecided; 3];
        let picks = select_batch(&cands, &regions, &statuses, &[false; 3], 2, 0.9, 0.25);
        let idx: Vec<usize> = picks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![0, 1], "shadowed candidate 2 loses to diverse 1");
        // Without the penalty, 2's larger diameter would have won.
        let picks = select_batch(&cands, &regions, &statuses, &[false; 3], 2, 0.0, 0.25);
        let idx: Vec<usize> = picks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![0, 2]);
    }

    #[test]
    fn ineligible_candidates_are_never_picked() {
        let cands = far_points(5);
        let regions = staircase_boxes(&[3.0, 2.9, 2.8, 2.7, 0.0]);
        let statuses = vec![
            Status::Dropped,
            Status::Quarantined,
            Status::Undecided,
            Status::Pareto,
            Status::Undecided,
        ];
        let mut evaluated = vec![false; 5];
        evaluated[3] = true;
        // Dropped, quarantined, evaluated, and zero-diameter candidates
        // are all excluded; only candidate 2 remains.
        let picks = select_batch(&cands, &regions, &statuses, &evaluated, 4, 0.5, 0.25);
        let idx: Vec<usize> = picks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![2]);
    }

    #[test]
    fn batch_never_exceeds_q_or_eligibility() {
        let cands = far_points(3);
        let regions = staircase_boxes(&[1.0, 2.0, 3.0]);
        let statuses = vec![Status::Undecided; 3];
        assert_eq!(
            select_batch(&cands, &regions, &statuses, &[false; 3], 0, 0.5, 0.25).len(),
            0
        );
        assert_eq!(
            select_batch(&cands, &regions, &statuses, &[false; 3], 2, 0.5, 0.25).len(),
            2
        );
        assert_eq!(
            select_batch(&cands, &regions, &statuses, &[false; 3], 9, 0.5, 0.25).len(),
            3
        );
    }

    #[test]
    fn unbounded_regions_keep_infinite_priority() {
        let cands = far_points(2);
        let regions = vec![
            UncertaintyRegion::unbounded(2),
            staircase_boxes(&[5.0])[0].clone(),
        ];
        let statuses = vec![Status::Undecided; 2];
        let picks = select_batch(&cands, &regions, &statuses, &[false; 2], 2, 0.5, 0.25);
        assert_eq!(picks[0].index, 0);
        assert!(picks[0].diameter.is_infinite() && picks[0].score.is_infinite());
        assert_eq!(picks[1].index, 1);
    }
}
