//! Persistent per-candidate solve cache for the predict sweep, stored as
//! lane blocks.
//!
//! Between hyper-parameter refits the tuner only *appends* target rows to
//! the joint Cholesky factor ([`linalg::Cholesky::extend`] keeps every
//! old factor row bit-identical), so the expensive part of a candidate's
//! prediction — the forward substitution `v = L⁻¹ k*` of its cross-kernel
//! column `k* = k(X, x*)` — stays valid as a *prefix*: only the `q`
//! newly conditioned rows are missing. A [`PredictCache`] stores that
//! prefix per candidate so the next sweep pays O(n·q) per still-undecided
//! candidate (q new kernel entries and a q-row tail substitution) instead
//! of O(n²) from scratch. `v` is all a candidate needs: its mean is
//! `v·w` with the model's weights `w = L⁻¹z`, its variance comes from
//! `‖v‖²`, so `k*` itself is never stored.
//!
//! ## Lane layout
//!
//! The cache is a list of lane blocks. A block holds up to
//! [`crate::PREDICT_BLOCK`] candidates ("lanes") side by side: its `v` is
//! a row-major *factor row × lane* matrix, so one factor row of every
//! lane is one contiguous slice, and every lane of a block covers the
//! same number of factor rows. An index maps each candidate id to its
//! (block, lane).
//!
//! A block stores its rows as a list of *pages* that only grows by
//! appending. No stored row is ever moved, copied or reallocated, so a
//! warm sweep neither copies the cache nor faults it in again.
//!
//! - A **miss** chunk's multi-RHS solve overwrites its `K*` with `V` in
//!   this layout, so it becomes a block's first page as it is.
//! - A **warm sweep** writes the `q` new kernel rows of a block into a
//!   `q × stride` temporary, solves it in place across all lanes at once
//!   ([`linalg::Cholesky::solve_lower_only_tail_pages`], which reads
//!   each old row once for all `q` tail rows, page after page) and
//!   pushes it as the block's next page. It then reduces `v·w` across the
//!   lanes row by row. `‖v‖²` is a per-lane running sum that only the new
//!   rows add to. Each lane still accumulates in the scalar path's
//!   order, so every output is bit-identical to
//!   [`crate::TransferGp::predict_latent`], however its rows are paged.
//! - A call extends every block it reads as a whole, including lanes it
//!   does not query, so a block never mixes row counts. That is why each
//!   lane also keeps its query input. Blocks of equal row count may still
//!   differ in their page boundaries (one filled before a conditioning
//!   step, one after); everything that reads or moves a lane walks its
//!   rows across pages.
//!
//! ## Invalidation laws
//!
//! 1. **Refit** (fresh [`crate::TransferGp::fit`], including the full-refit
//!    fallback inside `condition_on`) replaces the factor wholesale; the
//!    model's fit epoch changes and
//!    [`crate::TransferGp::predict_latent_batch_cached`] clears the whole
//!    cache on the mismatch. Lanes never survive a factor they were not
//!    computed against.
//! 2. **Standardization / weight changes** (every `condition_on` re-fits
//!    the target standardizer and recomputes `w`) need *no* invalidation:
//!    lanes hold only factor-space state (`v`, `‖v‖²`); means are
//!    recomputed from `v` and the model's current `w` on every sweep, and
//!    both means and variances are de-standardized with its current
//!    standardizer.
//! 3. **Candidate retirement**: [`PredictCache::begin_sweep`] drops every
//!    lane the previous sweep did not query. Each block then moves its
//!    last live lanes into the holes, and blocks of equal row count are
//!    packed (the emptied ones freed), so dead lanes cost neither memory
//!    nor SIMD work past one sweep boundary. Lanes move within rows;
//!    pages stay where they are. Within a sweep, every call (the active
//!    set, then pool refinement) hits every lane the previous sweep
//!    queried.
//!
//! The cache never changes results: the cached path is bit-for-bit
//! identical to the from-scratch batch predict (asserted by the gp unit
//! tests and `testkit`'s differential suites).

use std::collections::HashMap;

use crate::counters;

/// Up to [`crate::PREDICT_BLOCK`] cached candidates side by side. The
/// panel is `rows × stride`, row-major, held in pages; lanes
/// `0..ids.len()` are live and the rest of each row is unused capacity
/// (holes left by retirements).
#[derive(Debug)]
pub(crate) struct LaneBlock {
    /// Factor rows every lane covers: the pages' rows added up.
    pub(crate) rows: usize,
    /// Lane capacity: the row length of the panel.
    pub(crate) stride: usize,
    /// `v = L⁻¹k*` with `k* = k(X, x*)`, one column per lane, as
    /// consecutive row-major pages of whole rows. Pages are only
    /// appended.
    pub(crate) pages: Vec<Vec<f64>>,
    /// Per lane: the caller's candidate id.
    pub(crate) ids: Vec<u64>,
    /// Per lane: the sweep that last queried it.
    pub(crate) touched: Vec<u64>,
    /// Per lane: `‖v‖²`, summed in row order.
    pub(crate) vv: Vec<f64>,
    /// Per lane: the query input, `dim` values each.
    pub(crate) xs: Vec<f64>,
    /// Input dimension.
    pub(crate) dim: usize,
}

impl LaneBlock {
    /// Live lanes.
    pub(crate) fn lanes(&self) -> usize {
        self.ids.len()
    }

    /// The query input of `lane`.
    pub(crate) fn x(&self, lane: usize) -> &[f64] {
        &self.xs[lane * self.dim..(lane + 1) * self.dim]
    }

    /// The rows of `v` in order, across pages.
    pub(crate) fn v_rows(&self) -> impl Iterator<Item = &[f64]> {
        let stride = self.stride;
        self.pages.iter().flat_map(move |p| p.chunks_exact(stride))
    }

    /// [`LaneBlock::v_rows`], writable.
    fn v_rows_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let stride = self.stride;
        self.pages
            .iter_mut()
            .flat_map(move |p| p.chunks_exact_mut(stride))
    }

    /// Drops every lane not touched in `sweep`, moving the block's last
    /// live lanes into the holes. Returns how many lanes were dropped.
    fn retain_touched(&mut self, sweep: u64) -> usize {
        let before = self.lanes();
        let mut lane = 0;
        while lane < self.lanes() {
            if self.touched[lane] == sweep {
                lane += 1;
                continue;
            }
            let last = self.lanes() - 1;
            if lane != last {
                for row in self.v_rows_mut() {
                    row[lane] = row[last];
                }
                let d = self.dim;
                self.xs.copy_within(last * d..(last + 1) * d, lane * d);
            }
            self.ids.swap_remove(lane);
            self.touched.swap_remove(lane);
            self.vv.swap_remove(lane);
            self.xs.truncate(last * self.dim);
        }
        before - self.lanes()
    }

    /// Moves `src`'s last lane into the first free lane of `self` (same
    /// row count, a free lane left). The two blocks' page boundaries may
    /// differ.
    fn take_last_lane(&mut self, src: &mut LaneBlock) {
        debug_assert!(self.rows == src.rows && self.lanes() < self.stride);
        let (from, to) = (src.lanes() - 1, self.lanes());
        for (dst, row) in self.v_rows_mut().zip(src.v_rows()) {
            dst[to] = row[from];
        }
        self.xs.extend_from_slice(src.x(from));
        self.ids.push(src.ids.pop().expect("source lane exists"));
        self.touched
            .push(src.touched.pop().expect("source lane exists"));
        self.vv.push(src.vv.pop().expect("source lane exists"));
        src.xs.truncate(from * src.dim);
    }
}

/// Where one query of a cached sweep gets its answer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source {
    /// A cached lane: (block, lane).
    Lane(usize, usize),
    /// The `n`-th distinct missing id of the call.
    Miss(usize),
}

/// How a cached sweep serves its queries: per query its [`Source`], the
/// blocks it reads (ascending) and the query index of each distinct miss.
#[derive(Debug)]
pub(crate) struct SweepPlan {
    pub(crate) sources: Vec<Source>,
    pub(crate) read_blocks: Vec<usize>,
    pub(crate) misses: Vec<usize>,
}

/// Per-model, per-objective solve cache for
/// [`crate::TransferGp::predict_latent_batch_cached`]. See the module
/// docs for the lane layout and the invalidation laws.
#[derive(Debug, Default)]
pub struct PredictCache {
    /// Fit epoch of the model the lanes were computed against.
    pub(crate) epoch: u64,
    /// Monotone sweep counter; lanes carry the stamp of their last use.
    sweep: u64,
    pub(crate) blocks: Vec<LaneBlock>,
    /// Candidate id → (block, lane).
    index: HashMap<u64, (usize, usize)>,
}

impl PredictCache {
    /// An empty cache. The first cached sweep populates it.
    pub fn new() -> Self {
        PredictCache::default()
    }

    /// Number of cached candidates.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no candidate is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Starts a new sweep: drops every lane the *previous* sweep did not
    /// query (its candidate was classified or pruned, so it will never be
    /// queried again), compacts the blocks, and advances the sweep stamp.
    /// Call once per tuner iteration, before the iteration's first cached
    /// predict; the iteration may then run several cached predicts
    /// (active set, pool refinement) that all share the sweep.
    pub fn begin_sweep(&mut self) {
        let sweep = self.sweep;
        let evicted: usize = self
            .blocks
            .iter_mut()
            .map(|b| b.retain_touched(sweep))
            .sum();
        if evicted > 0 {
            counters::add_predict_cache_evictions(evicted as u64);
            self.pack();
            self.reindex();
        }
        self.sweep += 1;
    }

    /// The current sweep stamp (lanes queried now carry it).
    pub(crate) fn sweep(&self) -> u64 {
        self.sweep
    }

    /// Drops everything, counting the evictions — the epoch-mismatch
    /// (refit) path.
    pub(crate) fn clear_stale(&mut self, new_epoch: u64) {
        if !self.index.is_empty() {
            counters::add_predict_cache_evictions(self.index.len() as u64);
        }
        self.blocks.clear();
        self.index.clear();
        self.epoch = new_epoch;
    }

    /// Drops every block covering more than `rows` factor rows. None can
    /// exist at a matching epoch; this is a defensive guard.
    pub(crate) fn drop_longer_than(&mut self, rows: usize) {
        let before = self.index.len();
        if self.blocks.iter().any(|b| b.rows > rows) {
            self.blocks.retain(|b| b.rows <= rows);
            self.reindex();
            counters::add_predict_cache_evictions((before - self.index.len()) as u64);
        }
    }

    /// Looks every query id up: a cached lane, or a miss. A repeated
    /// missing id shares its first occurrence's miss.
    pub(crate) fn plan(&self, ids: &[u64]) -> SweepPlan {
        let mut read = vec![false; self.blocks.len()];
        let mut fresh: HashMap<u64, usize> = HashMap::new();
        let mut misses = Vec::new();
        let sources = ids
            .iter()
            .enumerate()
            .map(|(q, id)| match self.index.get(id) {
                Some(&(b, l)) => {
                    read[b] = true;
                    Source::Lane(b, l)
                }
                None => Source::Miss(*fresh.entry(*id).or_insert_with(|| {
                    misses.push(q);
                    misses.len() - 1
                })),
            })
            .collect();
        SweepPlan {
            sources,
            read_blocks: (0..read.len()).filter(|&b| read[b]).collect(),
            misses,
        }
    }

    /// Appends a freshly solved block and indexes its lanes.
    pub(crate) fn push_block(&mut self, block: LaneBlock) {
        let b = self.blocks.len();
        for (l, &id) in block.ids.iter().enumerate() {
            self.index.insert(id, (b, l));
        }
        self.blocks.push(block);
    }

    /// Marks a lane as queried in the current sweep.
    pub(crate) fn touch(&mut self, block: usize, lane: usize) {
        self.blocks[block].touched[lane] = self.sweep;
    }

    /// Packs blocks of equal row count: the last lanes of the group's
    /// smallest blocks fill the holes of its largest, and emptied blocks
    /// are freed. At most one block per row count keeps holes.
    fn pack(&mut self) {
        self.blocks.retain(|b| b.lanes() > 0);
        self.blocks
            .sort_by_key(|b| (b.rows, std::cmp::Reverse(b.stride)));
        let mut g0 = 0;
        while g0 < self.blocks.len() {
            let rows = self.blocks[g0].rows;
            let g1 = g0
                + self.blocks[g0..]
                    .iter()
                    .take_while(|b| b.rows == rows)
                    .count();
            let (mut dst, mut src) = (g0, g1 - 1);
            loop {
                while dst < src && self.blocks[dst].lanes() == self.blocks[dst].stride {
                    dst += 1;
                }
                if dst >= src {
                    break;
                }
                let (head, tail) = self.blocks.split_at_mut(src);
                head[dst].take_last_lane(&mut tail[0]);
                if tail[0].lanes() == 0 {
                    src -= 1;
                }
            }
            g0 = g1;
        }
        self.blocks.retain(|b| b.lanes() > 0);
    }

    fn reindex(&mut self) {
        self.index.clear();
        for (b, block) in self.blocks.iter().enumerate() {
            for (l, &id) in block.ids.iter().enumerate() {
                self.index.insert(id, (b, l));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A block paged as `cut` (rows per page) whose `v` entry (i, lane)
    /// is `id + i/1000`, so moved lanes are recognizable; holes are NaN.
    fn paged(cut: &[usize], stride: usize, ids: &[u64], sweep: u64) -> LaneBlock {
        let mut pages = Vec::new();
        let mut i = 0;
        for &len in cut {
            let mut page = vec![f64::NAN; len * stride];
            for (r, row) in page.chunks_exact_mut(stride).enumerate() {
                for (l, &id) in ids.iter().enumerate() {
                    row[l] = id as f64 + (i + r) as f64 / 1000.0;
                }
            }
            pages.push(page);
            i += len;
        }
        LaneBlock {
            rows: i,
            stride,
            pages,
            ids: ids.to_vec(),
            touched: vec![sweep; ids.len()],
            vv: ids.iter().map(|&id| id as f64).collect(),
            xs: ids.iter().flat_map(|&id| [id as f64, 0.5]).collect(),
            dim: 2,
        }
    }

    /// A one-page `rows`-row block.
    fn block(rows: usize, stride: usize, ids: &[u64], sweep: u64) -> LaneBlock {
        paged(&[rows], stride, ids, sweep)
    }

    /// Every lane's column, metadata and input still belong to its id,
    /// and the index points at it.
    fn assert_consistent(cache: &PredictCache) {
        let mut lanes = 0;
        for (b, blk) in cache.blocks.iter().enumerate() {
            assert!(blk.lanes() <= blk.stride);
            assert_eq!(blk.v_rows().count(), blk.rows);
            assert!(blk.pages.iter().all(|p| p.len() % blk.stride == 0));
            for (l, &id) in blk.ids.iter().enumerate() {
                lanes += 1;
                assert_eq!(cache.index[&id], (b, l));
                assert_eq!(blk.vv[l], id as f64);
                assert_eq!(blk.x(l), &[id as f64, 0.5]);
                for (i, row) in blk.v_rows().enumerate() {
                    let want = id as f64 + i as f64 / 1000.0;
                    assert_eq!(row[l], want, "id {id} row {i}");
                }
            }
        }
        assert_eq!(lanes, cache.len());
    }

    #[test]
    fn begin_sweep_retains_only_touched_lanes() {
        let mut cache = PredictCache::new();
        cache.begin_sweep(); // sweep 0 -> 1
        let s = cache.sweep();
        cache.push_block(block(3, 2, &[7, 9], s));
        cache.begin_sweep(); // both touched last sweep: kept
        assert_eq!(cache.len(), 2);
        // Only candidate 7 is queried this sweep.
        let plan = cache.plan(&[7]);
        let Source::Lane(b, l) = plan.sources[0] else {
            panic!("7 is cached")
        };
        cache.touch(b, l);
        cache.begin_sweep(); // 9 was not queried: evicted
        assert_eq!(cache.len(), 1);
        assert!(cache.index.contains_key(&7));
        assert_consistent(&cache);
        cache.begin_sweep(); // 7 not queried either: empty again
        assert!(cache.is_empty());
        assert!(cache.blocks.is_empty(), "an emptied block is freed");
    }

    #[test]
    fn compaction_fills_holes_and_frees_emptied_blocks() {
        let mut cache = PredictCache::new();
        let s = cache.sweep();
        // Three 4-row blocks paged three different ways.
        cache.push_block(paged(&[4], 4, &[0, 1, 2, 3], s));
        cache.push_block(paged(&[2, 1, 1], 4, &[10, 11, 12, 13], s));
        cache.push_block(paged(&[1, 3], 2, &[20, 21], s));
        cache.push_block(block(6, 3, &[30, 31, 32], s));
        // Retire 0 and 2 of the first block, 11 of the second, 31 of the
        // block with another row count.
        for id in [0, 2, 11, 31] {
            let (b, l) = cache.index[&id];
            cache.blocks[b].touched[l] = u64::MAX;
        }
        cache.begin_sweep();
        assert_eq!(cache.len(), 9);
        assert_consistent(&cache);
        // The 4-row lanes (1, 3, 10, 12, 13, 20, 21) pack into the two
        // stride-4 blocks; the stride-2 block is emptied and freed.
        let shapes: Vec<(usize, usize, usize)> = cache
            .blocks
            .iter()
            .map(|b| (b.rows, b.stride, b.lanes()))
            .collect();
        assert_eq!(shapes, vec![(4, 4, 4), (4, 4, 3), (6, 3, 2)]);
    }

    #[test]
    fn compaction_keeps_every_page_in_place() {
        let mut cache = PredictCache::new();
        let s = cache.sweep();
        cache.push_block(paged(&[3, 1, 4], 4, &[0, 1, 2, 3], s));
        cache.push_block(paged(&[4, 4], 4, &[10, 11, 12], s));
        cache.push_block(paged(&[1, 1, 6], 4, &[20, 21], s));
        let addresses = |cache: &PredictCache| -> Vec<Vec<*const f64>> {
            let mut a: Vec<Vec<*const f64>> = cache
                .blocks
                .iter()
                .map(|b| b.pages.iter().map(|p| p.as_ptr()).collect())
                .collect();
            a.sort();
            a
        };
        let before = addresses(&cache);
        for id in [1, 11, 20] {
            let (b, l) = cache.index[&id];
            cache.blocks[b].touched[l] = u64::MAX;
        }
        cache.begin_sweep();
        assert_consistent(&cache);
        // Lane 21 moves into the first block's hole across different page
        // boundaries; the third block is emptied and freed, and the other
        // two keep every page where it was.
        let after = addresses(&cache);
        assert_eq!(after.len(), 2);
        assert!(after.iter().all(|pages| before.contains(pages)));
    }

    #[test]
    fn plan_shares_a_repeated_miss_and_lists_read_blocks() {
        let mut cache = PredictCache::new();
        let s = cache.sweep();
        cache.push_block(block(2, 2, &[1, 2], s));
        cache.push_block(block(2, 1, &[3], s));
        let plan = cache.plan(&[3, 8, 8, 9, 3]);
        assert_eq!(plan.read_blocks, vec![1]);
        assert_eq!(plan.misses, vec![1, 3]);
        assert!(matches!(plan.sources[2], Source::Miss(0)));
        assert!(matches!(plan.sources[3], Source::Miss(1)));
        assert!(matches!(plan.sources[4], Source::Lane(1, 0)));
    }

    #[test]
    fn clear_stale_drops_everything_and_moves_epoch() {
        let mut cache = PredictCache::new();
        let s = cache.sweep();
        cache.push_block(block(2, 1, &[1], s));
        cache.clear_stale(42);
        assert!(cache.is_empty());
        assert!(cache.blocks.is_empty());
        assert_eq!(cache.epoch, 42);
    }
}
