//! The adaptive candidate pool: ε-PAL-driven refinement of a bisection
//! cell tree ("Beyond Grids"-style adaptive discretization).
//!
//! A fixed LHS pool makes pool size the scaling axis of the whole loop:
//! every iteration predicts over all undecided candidates, so resolution
//! near the front costs resolution everywhere. The adaptive pool instead
//! starts from the caller's candidates as leaf representatives of a
//! [`doe::CellTree`] and *refines locally*: a leaf is bisected only while
//! its representative is still in the race and its ε-PAL
//! uncertainty-region diameter exceeds a Lipschitz-style bound
//! proportional to the cell's own diameter
//! (`diam(U_t(rep)) > scale · diam(cell)`). Where the model is already
//! certain — or the candidate is decided — cells stay coarse; dense
//! sampling concentrates where the predicted front lives.
//!
//! An optional *refinement ceiling* bounds the condition from above:
//! leaves whose representative's region diameter is at or past the
//! ceiling are treated as prior-dominated and skipped. Without it, the
//! split queue is permanently dominated by unexplored corners — a
//! far-field representative keeps a huge posterior σ no matter how often
//! its cell is halved (the statistical term does not shrink with
//! geometry), so each pass re-splits the same few exploration chains and
//! the budget never reaches the front. The ceiling encodes the
//! evaluate-vs-refine split of adaptive ε-PAL ("Beyond Grids"): where
//! uncertainty is prior-scale, an evaluation is worth more than any
//! amount of subdivision, and ε-PAL's max-diameter selection rule will
//! send one there anyway; where data has already tightened the region to
//! below the ceiling but geometry still dominates
//! (`diam(U) > scale · diam(cell)`), subdivision is what actually adds
//! resolution — and those cells are, by classification pressure, the
//! ones straddling the predicted front.
//!
//! Each split appends exactly one new candidate (the empty sibling's
//! center) to the caller's candidate list; existing candidates, statuses,
//! and regions are never touched, so refinement can never resurrect a
//! decided candidate. Split order is deterministic (largest region
//! diameter first, lowest leaf index on ties), which keeps golden traces
//! and checkpoint/resume replay exact.

use doe::CellTree;

use crate::decision::Status;
use crate::region::UncertaintyRegion;
use crate::TunerError;

/// What one refinement pass did.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineOutcome {
    /// Leaves bisected (= candidates appended) this pass.
    pub splits: usize,
    /// Leaf count of the tree after the pass.
    pub leaves: usize,
    /// Effective pool size after the pass (see
    /// [`AdaptivePool::effective_pool`]).
    pub effective_pool: f64,
}

/// One live leaf of the pool's tree, as the refinement rule reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolLeaf {
    /// The leaf's arena index in the [`CellTree`].
    pub cell: usize,
    /// Its representative candidate, when it has one.
    pub rep: Option<usize>,
    /// Its Euclidean diameter, [`CellTree::diameter`].
    pub diameter: f64,
}

/// The tuner-facing adaptive pool: a [`CellTree`] plus the refinement
/// policy. Candidate coordinates stay owned by the tuner; the pool holds
/// only cell geometry and representative indices.
///
/// The pool keeps what a pass reads of the tree up to date from each
/// split: the live leaves with their representatives and diameters, and
/// the smallest leaf volume. A pass then costs one walk over the leaves
/// plus the splits it makes, where rescanning the tree would walk every
/// cell ever created and recompute each leaf's geometry. Diameters and
/// volumes use the tree's own expressions, so
/// [`AdaptivePool::leaf_count`] and [`AdaptivePool::effective_pool`]
/// equal a rescan bit for bit. A split leaf's children are never larger
/// than the leaf, so the smallest volume over the new leaves is the old
/// minimum folded with the two children's.
#[derive(Debug, Clone)]
pub struct AdaptivePool {
    tree: CellTree,
    /// The live leaves, in no particular order.
    leaves: Vec<PoolLeaf>,
    /// The smallest leaf volume.
    min_volume: f64,
}

/// Volume of the box `[lo, hi]`, multiplied in axis order.
fn volume((lo, hi): (&[f64], &[f64])) -> f64 {
    lo.iter().zip(hi).map(|(&l, &h)| h - l).product()
}

impl AdaptivePool {
    /// Builds the pool over the initial candidates. The parameter box is
    /// the unit cube, extended per-axis to cover any candidate that lies
    /// outside it (candidates are unit-cube encoded by convention, but
    /// the pool must not reject a caller's unconventional scaling).
    ///
    /// # Errors
    ///
    /// [`TunerError::InvalidInput`] when the candidate list is empty or
    /// the tree rejects it (ragged/non-finite rows are caught by the
    /// tuner before this).
    pub fn new(candidates: &[Vec<f64>]) -> crate::Result<Self> {
        let Some(first) = candidates.first() else {
            return Err(TunerError::InvalidInput {
                reason: "adaptive pool needs at least one candidate",
            });
        };
        let dim = first.len();
        let mut lo = vec![0.0f64; dim];
        let mut hi = vec![1.0f64; dim];
        for row in candidates {
            for (d, &v) in row.iter().enumerate() {
                if v < lo[d] {
                    lo[d] = v;
                }
                if v > hi[d] {
                    hi[d] = v;
                }
            }
        }
        let tree = CellTree::build(&lo, &hi, candidates).map_err(|_| TunerError::InvalidInput {
            reason: "adaptive pool rejected the candidate set",
        })?;
        let cells = tree.leaf_cells();
        let leaves = cells.iter().map(|&cell| Self::leaf(&tree, cell)).collect();
        let min_volume = cells
            .iter()
            .map(|&cell| volume(tree.bounds(cell)))
            .fold(f64::INFINITY, f64::min);
        Ok(AdaptivePool {
            tree,
            leaves,
            min_volume,
        })
    }

    /// The [`PoolLeaf`] record of the tree's leaf `cell`.
    fn leaf(tree: &CellTree, cell: usize) -> PoolLeaf {
        PoolLeaf {
            cell,
            rep: tree.rep(cell),
            diameter: tree.diameter(cell),
        }
    }

    /// The bisection tree.
    pub fn tree(&self) -> &CellTree {
        &self.tree
    }

    /// The live leaves, in no particular order.
    pub fn leaves(&self) -> &[PoolLeaf] {
        &self.leaves
    }

    /// Number of leaf cells.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Effective pool size: the fixed-pool size whose uniform resolution
    /// matches the tree's finest leaf (`box volume / min leaf volume`),
    /// [`CellTree::effective_pool`].
    pub fn effective_pool(&self) -> f64 {
        if self.min_volume > 0.0 && self.min_volume.is_finite() {
            volume(self.tree.bounds(0)) / self.min_volume
        } else {
            f64::INFINITY
        }
    }

    /// One refinement pass. Splits every leaf whose representative is
    /// still active and whose region diameter is finite, larger than
    /// `scale` times the cell diameter, and strictly below `ceiling`
    /// (pass `f64::INFINITY` to disable the prior-dominated skip) —
    /// largest region diameter first, lowest leaf index on ties —
    /// bounded by `max_refines` splits per pass and `max_size` total
    /// candidates. Each split appends the new sibling-center candidate
    /// to `candidates` and registers it as that cell's representative;
    /// the caller extends its parallel state (status, region, flags) to
    /// the new length.
    #[allow(clippy::too_many_arguments)]
    pub fn refine(
        &mut self,
        candidates: &mut Vec<Vec<f64>>,
        regions: &[UncertaintyRegion],
        statuses: &[Status],
        scale: f64,
        ceiling: f64,
        max_refines: usize,
        max_size: usize,
    ) -> RefineOutcome {
        // (region diameter, leaf, its position in `leaves`) of every leaf
        // that wants a split.
        let mut due: Vec<(f64, usize, usize)> = Vec::new();
        for (pos, leaf) in self.leaves.iter().enumerate() {
            let Some(rep) = leaf.rep else {
                continue;
            };
            if !statuses[rep].is_active() {
                continue;
            }
            let d = regions[rep].diameter();
            if d.is_finite() && d > scale * leaf.diameter && d < ceiling {
                due.push((d, leaf.cell, pos));
            }
        }
        due.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut splits = 0;
        for (_, cell, pos) in due {
            if splits >= max_refines || candidates.len() >= max_size {
                break;
            }
            let rep = self.leaves[pos].rep.expect("due leaves have reps");
            let Some(split) = self.tree.split(cell, &candidates[rep]) else {
                continue; // depth cap: the cell is as fine as f64 allows
            };
            let index = candidates.len();
            candidates.push(split.new_center);
            self.tree.set_rep(split.new_child, index);
            for child in [split.kept_child, split.new_child] {
                let v = volume(self.tree.bounds(child));
                self.min_volume = self.min_volume.min(v);
            }
            self.leaves[pos] = Self::leaf(&self.tree, split.kept_child);
            self.leaves.push(Self::leaf(&self.tree, split.new_child));
            splits += 1;
        }
        RefineOutcome {
            splits,
            leaves: self.leaf_count(),
            effective_pool: self.effective_pool(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unbounded(n: usize) -> Vec<UncertaintyRegion> {
        (0..n).map(|_| UncertaintyRegion::unbounded(2)).collect()
    }

    fn boxed(lo: f64, hi: f64) -> UncertaintyRegion {
        let mut r = UncertaintyRegion::unbounded(2);
        r.intersect(&[lo, lo], &[hi, hi]);
        r
    }

    #[test]
    fn refine_splits_only_uncertain_active_leaves() {
        let mut candidates = vec![vec![0.2, 0.2], vec![0.8, 0.8]];
        let mut pool = AdaptivePool::new(&candidates).unwrap();
        // Candidate 0: huge (finite) uncertainty; candidate 1: tiny.
        let regions = vec![boxed(0.0, 100.0), boxed(0.0, 1e-6)];
        let statuses = vec![Status::Undecided, Status::Undecided];
        let before = candidates.len();
        let out = pool.refine(
            &mut candidates,
            &regions,
            &statuses,
            1.0,
            f64::INFINITY,
            8,
            1000,
        );
        assert_eq!(out.splits, 1, "only the uncertain leaf splits");
        assert_eq!(candidates.len(), before + 1);
        assert_eq!(out.leaves, pool.leaf_count());
        assert!(out.effective_pool > 2.0);
    }

    #[test]
    fn unbounded_regions_never_trigger_refinement() {
        let mut candidates = vec![vec![0.2, 0.2], vec![0.8, 0.8]];
        let mut pool = AdaptivePool::new(&candidates).unwrap();
        let regions = unbounded(2);
        let statuses = vec![Status::Undecided; 2];
        let out = pool.refine(
            &mut candidates,
            &regions,
            &statuses,
            1.0,
            f64::INFINITY,
            8,
            1000,
        );
        assert_eq!(out.splits, 0, "infinite diameters carry no evidence");
    }

    #[test]
    fn decided_candidates_are_never_split() {
        let mut candidates = vec![vec![0.2, 0.2], vec![0.8, 0.8]];
        let mut pool = AdaptivePool::new(&candidates).unwrap();
        let regions = vec![boxed(0.0, 100.0), boxed(0.0, 100.0)];
        for statuses in [
            vec![Status::Dropped, Status::Quarantined],
            vec![Status::Dropped, Status::Dropped],
        ] {
            let out = pool.refine(
                &mut candidates,
                &regions,
                &statuses,
                1.0,
                f64::INFINITY,
                8,
                1000,
            );
            assert_eq!(out.splits, 0, "decided reps must stay put");
        }
        assert_eq!(candidates.len(), 2);
    }

    #[test]
    fn prior_dominated_leaves_are_skipped_by_the_ceiling() {
        let mut candidates = vec![vec![0.2, 0.2], vec![0.8, 0.8]];
        let mut pool = AdaptivePool::new(&candidates).unwrap();
        // Candidate 0 is prior-dominated (diameter past the ceiling);
        // candidate 1 is data-informed but still geometry-limited.
        let regions = vec![boxed(0.0, 100.0), boxed(0.0, 10.0)];
        let statuses = vec![Status::Undecided, Status::Undecided];
        let out = pool.refine(&mut candidates, &regions, &statuses, 1.0, 50.0, 8, 1000);
        assert_eq!(out.splits, 1, "only the informed leaf splits");
        assert_eq!(candidates.len(), 3);
        // A zero ceiling shuts refinement off entirely.
        let mut fresh = vec![vec![0.2, 0.2], vec![0.8, 0.8]];
        let mut pool = AdaptivePool::new(&fresh).unwrap();
        let out = pool.refine(&mut fresh, &regions, &statuses, 1.0, 0.0, 8, 1000);
        assert_eq!(out.splits, 0);
    }

    #[test]
    fn caps_bound_the_pass() {
        let mut candidates: Vec<Vec<f64>> =
            (0..8).map(|i| vec![(i as f64 + 0.5) / 8.0, 0.5]).collect();
        let mut pool = AdaptivePool::new(&candidates).unwrap();
        let regions: Vec<UncertaintyRegion> = (0..8).map(|_| boxed(0.0, 100.0)).collect();
        let statuses = vec![Status::Undecided; 8];
        // max_refines cap.
        let out = pool.refine(
            &mut candidates,
            &regions,
            &statuses,
            1.0,
            f64::INFINITY,
            3,
            1000,
        );
        assert_eq!(out.splits, 3);
        // max_size cap: already at 11 candidates, cap at 12 → one split.
        let regions: Vec<UncertaintyRegion> =
            (0..candidates.len()).map(|_| boxed(0.0, 100.0)).collect();
        let statuses = vec![Status::Undecided; candidates.len()];
        let out = pool.refine(
            &mut candidates,
            &regions,
            &statuses,
            1.0,
            f64::INFINITY,
            100,
            12,
        );
        assert_eq!(out.splits, 1);
        assert_eq!(candidates.len(), 12);
    }

    #[test]
    fn refinement_is_deterministic() {
        let seed: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![(i as f64 + 0.3) / 6.0, ((i * 7 % 6) as f64 + 0.6) / 6.0])
            .collect();
        let regions: Vec<UncertaintyRegion> = (0..6).map(|i| boxed(0.0, 10.0 + i as f64)).collect();
        let statuses = vec![Status::Undecided; 6];
        let run = || {
            let mut candidates = seed.clone();
            let mut pool = AdaptivePool::new(&candidates).unwrap();
            pool.refine(
                &mut candidates,
                &regions,
                &statuses,
                1.0,
                f64::INFINITY,
                4,
                1000,
            );
            candidates
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_candidate_set_is_rejected() {
        assert!(AdaptivePool::new(&[]).is_err());
    }
}
