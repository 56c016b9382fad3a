use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use linalg::{Cholesky, Matrix};

use crate::fan_out;
use crate::kernel::{SquaredExponential, Task, TransferKernel};
use crate::predict_cache::{LaneBlock, PredictCache, Source};
use crate::standardize::Standardizer;
use crate::{GpError, Result};

/// Process-global fit-epoch source: every [`TransferGp::fit`] stamps the
/// model with a fresh, process-unique epoch, while the incremental
/// [`TransferGp::condition_on`] path keeps it (the old factor rows stay
/// bit-identical, so factor-space caches remain valid). A
/// [`PredictCache`] compares its stored epoch against the model's to
/// detect refits — including the full-refit fallback inside
/// `condition_on`, which goes through `fit` and is therefore stamped
/// automatically.
static FIT_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Number of query columns handled per multi-RHS triangular solve in the
/// batch predict paths — and so the unit of work their worker threads
/// claim. At 256 columns the `K*` and `L⁻¹K*` panels for a
/// table-2-sized factor fit in L2 cache; larger panels thrash and erase
/// the multi-RHS win. Per-query results do not depend on it.
pub const PREDICT_BLOCK: usize = 256;

/// Training data of one task: inputs (unit-cube encoded parameter
/// configurations) and observed outputs (one QoR metric).
///
/// Inputs are held behind an [`Arc`] so the per-objective views of one
/// design table (same configurations, different QoR column) share a
/// single encoded copy: cloning a `TaskData` — which the tuner and the
/// hyper-parameter search do per objective and per refit — bumps a
/// reference count instead of deep-copying the whole input set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskData {
    /// Input points (shared; see the type-level docs).
    pub x: Arc<Vec<Vec<f64>>>,
    /// Observed outputs, parallel to `x`.
    pub y: Vec<f64>,
}

impl TaskData {
    /// Creates task data from parallel input/output lists.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<f64>) -> Self {
        TaskData { x: Arc::new(x), y }
    }

    /// Creates task data that shares an already-encoded input set —
    /// the zero-copy constructor for per-objective views.
    pub fn from_shared(x: Arc<Vec<Vec<f64>>>, y: Vec<f64>) -> Self {
        TaskData { x, y }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when the task has no observations.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// Hyper-parameters of a [`TransferGp`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransferGpConfig {
    /// ARD lengthscales of the shared base kernel.
    pub lengthscales: Vec<f64>,
    /// Signal variance of the base kernel (standardized output space).
    pub signal_var: f64,
    /// Cross-task correlation factor `λ = 2(1/(1+a))^b − 1 ∈ (−1, 1]`.
    pub lambda: f64,
    /// Source-task observation noise variance `β_s⁻¹` (standardized).
    pub noise_source: f64,
    /// Target-task observation noise variance `β_t⁻¹` (standardized).
    pub noise_target: f64,
}

impl TransferGpConfig {
    /// A reasonable default for unit-cube inputs: moderately smooth,
    /// strong positive transfer.
    pub fn default_for_dim(dim: usize) -> Self {
        TransferGpConfig {
            lengthscales: vec![0.4; dim.max(1)],
            signal_var: 1.0,
            lambda: 0.8,
            noise_source: 1e-3,
            noise_target: 1e-3,
        }
    }
}

/// The two-task transfer Gaussian process of PPATuner §3.1 (Eq. 8).
///
/// The joint prior over source and target observations uses the transfer
/// kernel `K̃` (Eq. 7) plus the per-task noise matrix
/// `Λ = diag(β_s⁻¹ I_N, β_t⁻¹ I_M)`. Inference for a target-task query is
/// standard GP inference against the joint training set:
///
/// `μ(x) = k(x, X)ᵀ (K̃ + Λ)⁻¹ y`,
/// `σ²(x) = k(x, x) + β_t⁻¹ − k(x, X)ᵀ (K̃ + Λ)⁻¹ k(x, X)`.
///
/// Outputs are standardized **per task**, so a source design with a
/// different output scale (e.g. 3× the power) still transfers its shape.
///
/// # Example
///
/// ```
/// use gp::{TransferGp, TransferGpConfig, TaskData};
///
/// # fn main() -> Result<(), gp::GpError> {
/// // Source: dense observations of f; target: few observations of a
/// // shifted copy of f.
/// let f = |x: f64| (5.0 * x).sin();
/// let source = TaskData::new(
///     (0..25).map(|i| vec![i as f64 / 24.0]).collect(),
///     (0..25).map(|i| f(i as f64 / 24.0)).collect(),
/// );
/// let target = TaskData::new(
///     vec![vec![0.1], vec![0.5], vec![0.9]],
///     vec![f(0.1) + 0.2, f(0.5) + 0.2, f(0.9) + 0.2],
/// );
/// let tgp = TransferGp::fit(source, target, TransferGpConfig::default_for_dim(1))?;
/// let (mean, var) = tgp.predict(&[0.3])?;
/// assert!((mean - (f(0.3) + 0.2)).abs() < 0.3);
/// assert!(var >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct TransferGp {
    /// The posterior over the joint rows; see [`TransferGp::rows`].
    post: Posterior,
    x_source: Arc<Vec<Vec<f64>>>,
    x_target: Arc<Vec<Vec<f64>>>,
    /// Raw (unstandardized) outputs, kept so the model can re-fit itself
    /// from scratch when an incremental [`TransferGp::condition_on`]
    /// extension is numerically rejected.
    y_source: Vec<f64>,
    y_target: Vec<f64>,
    z_joint: Vec<f64>,
    /// Log marginal likelihood of the source block alone (0 when empty).
    source_lml: f64,
    /// Diagonal jitter that `Cholesky::new_with_jitter` had to add to the
    /// joint kernel before factorization succeeded (0 when none).
    jitter: f64,
    /// Process-unique stamp of the factorization lineage (see
    /// [`FIT_EPOCH`]); preserved by incremental conditioning, refreshed
    /// by every full (re)fit.
    fit_epoch: u64,
    config: TransferGpConfig,
}

impl TransferGp {
    /// Fits the transfer GP on source + target data.
    ///
    /// The source may be empty, in which case the model degenerates to a
    /// plain GP on the target task (useful for no-transfer ablations).
    ///
    /// # Errors
    ///
    /// - [`GpError::InvalidTrainingData`] when the target task is empty,
    ///   input dimensions disagree, or values are non-finite;
    /// - [`GpError::InvalidHyperparameter`] for out-of-range
    ///   hyper-parameters;
    /// - [`GpError::Factorization`] when the joint kernel matrix cannot be
    ///   factored.
    pub fn fit(source: TaskData, target: TaskData, config: TransferGpConfig) -> Result<Self> {
        if target.is_empty() {
            return Err(GpError::InvalidTrainingData {
                reason: "target task needs at least one observation",
            });
        }
        if source.x.len() != source.y.len() || target.x.len() != target.y.len() {
            return Err(GpError::InvalidTrainingData {
                reason: "x and y lengths differ",
            });
        }
        for v in [config.noise_source, config.noise_target] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(GpError::InvalidHyperparameter {
                    name: "noise",
                    value: v,
                });
            }
        }
        let base = SquaredExponential::new(config.signal_var, config.lengthscales.clone())?;
        check_training(
            base.dim(),
            source.x.iter().chain(target.x.iter()),
            source.y.iter().chain(&target.y),
        )?;
        let kernel = TransferKernel::with_lambda(base, config.lambda)?;

        // Per-task standardization.
        let std_source = if source.is_empty() {
            Standardizer::identity()
        } else {
            Standardizer::fit(&source.y)
        };
        let std_target = Standardizer::fit(&target.y);
        let n = source.len();
        let mut z_joint = Vec::with_capacity(n + target.len());
        z_joint.extend(source.y.iter().map(|&v| std_source.transform(v)));
        z_joint.extend(target.y.iter().map(|&v| std_target.transform(v)));

        // Joint kernel matrix K̃ + Λ.
        crate::counters::add_fitcache_misses(1);
        let k = noisy_gram(
            &kernel,
            &config,
            z_joint.len(),
            joint_rows(&source.x, &target.x),
        );
        let (chol, jitter) = Cholesky::new_with_jitter(&k, 1e-10, 12)?;
        let w = chol.solve_lower_only(&z_joint)?;
        let source_lml = source_lml(&k, &chol, jitter, &z_joint[..n])?;

        Ok(TransferGp {
            post: Posterior {
                kernel,
                w,
                chol,
                std_target,
                noise_target: config.noise_target,
            },
            x_source: source.x,
            x_target: target.x,
            y_source: source.y,
            y_target: target.y,
            z_joint,
            source_lml,
            jitter,
            fit_epoch: FIT_EPOCH.fetch_add(1, Ordering::Relaxed) + 1,
            config,
        })
    }

    /// Conditions the fitted model on `k` additional target observations
    /// without re-optimizing hyper-parameters and without refactoring the
    /// joint kernel from scratch: the existing Cholesky factor is extended
    /// by the new rows (see [`Cholesky::extend`]), which costs
    /// O((N+M)²·k) instead of the O((N+M+k)³) full refit.
    ///
    /// The target standardizer is re-fitted over the full (extended)
    /// output set and the weights `w = L⁻¹z` recomputed (one forward
    /// substitution; the factor grows in place), so the result is the
    /// model [`TransferGp::fit`] would produce on the extended data, up
    /// to floating-point round-off in the factor (see
    /// [`Cholesky::extend`]). When the incremental extension is rejected
    /// (the extended matrix is not numerically positive definite at the
    /// stored jitter), the model transparently falls back to a full refit
    /// with jitter escalation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransferGp::fit`] on the new observations
    /// (dimension mismatches, non-finite values); `self` is unchanged on
    /// error.
    pub fn condition_on(&mut self, new_x: &[Vec<f64>], new_y: &[f64]) -> Result<()> {
        if new_x.len() != new_y.len() {
            return Err(GpError::InvalidTrainingData {
                reason: "x and y lengths differ",
            });
        }
        if new_x.is_empty() {
            return Ok(());
        }
        check_training(self.post.dim(), new_x, new_y)?;
        let p = self.post.len();
        let k = new_x.len();

        // Covariance of every existing joint point with each new
        // (target-task) point, and of the new points among themselves
        // with the target noise — and the stored jitter, matching the
        // diagonal the existing factor was computed with.
        let rows = self.rows();
        let cross = Matrix::from_fn(p, k, |i, j| self.post.cross(rows, i, &new_x[j]));
        let mut corner = Matrix::from_fn(k, k, |i, j| {
            self.post
                .kernel
                .eval_task(&new_x[i], Task::Target, &new_x[j], Task::Target)
        });
        for i in 0..k {
            corner[(i, i)] += self.config.noise_target + self.jitter;
        }

        // Per-task standardization is over the *current* target sample,
        // so the whole target block of z is recomputed (the source block
        // and its marginal likelihood are untouched).
        let n = self.x_source.len();
        let mut y_target = self.y_target.clone();
        y_target.extend_from_slice(new_y);
        let std_target = Standardizer::fit(&y_target);
        let mut z_joint = self.z_joint[..n].to_vec();
        z_joint.extend(y_target.iter().map(|&v| std_target.transform(v)));

        // `extend` runs every fallible step before it touches the factor,
        // so a rejection leaves `self` exactly as it was.
        if self.post.chol.extend(&cross, &corner).is_err() {
            // Numerically rejected: fall back to a full refit, which can
            // escalate jitter. Rebuild owned task data from stored state.
            let source = TaskData::from_shared(Arc::clone(&self.x_source), self.y_source.clone());
            let mut xt: Vec<Vec<f64>> = (*self.x_target).clone();
            xt.extend(new_x.iter().cloned());
            *self = TransferGp::fit(source, TaskData::new(xt, y_target), self.config.clone())?;
            return Ok(());
        }
        // Every diagonal entry of a factor is the square root of a
        // positive finite pivot, so at least 1e-162, and `z_joint` has one
        // entry per factor row: this solve cannot fail.
        self.post.w = self
            .post
            .chol
            .solve_lower_only(&z_joint)
            .expect("a Cholesky factor solves a right-hand side of its own length");
        Arc::make_mut(&mut self.x_target).extend(new_x.iter().cloned());
        self.y_target = y_target;
        self.post.std_target = std_target;
        self.z_joint = z_joint;
        Ok(())
    }

    /// Refits on `source`/`target` with this model's hyper-parameters
    /// unchanged — no marginal-likelihood search, just a fresh joint
    /// factorization (with jitter escalation) over the given data. This is
    /// the degraded-mode recovery hook: when a full re-optimization fails
    /// numerically (jitter ladder exhausted, NaN in the hyper-parameter
    /// search), a run supervisor can fall back to the last-good
    /// hyper-parameters while still incorporating fresh observations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransferGp::fit`]. `self` is unchanged — the
    /// recovered model is returned by value so the caller decides whether
    /// to adopt it.
    pub fn refit_data_only(&self, source: TaskData, target: TaskData) -> Result<TransferGp> {
        TransferGp::fit(source, target, self.config.clone())
    }

    /// Number of source observations.
    pub fn source_len(&self) -> usize {
        self.x_source.len()
    }

    /// Number of target observations.
    pub fn target_len(&self) -> usize {
        self.x_target.len()
    }

    /// The cross-task factor λ in use.
    pub fn lambda(&self) -> f64 {
        self.post.kernel.lambda()
    }

    /// Diagonal jitter added so the joint kernel's Cholesky factorization
    /// succeeded (0 when the matrix was well-conditioned as-is). Useful as
    /// a conditioning diagnostic in traces.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Process-unique stamp of this model's factorization lineage: fresh
    /// after every full (re)fit, preserved across incremental
    /// [`TransferGp::condition_on`] extensions (whose appended rows leave
    /// the old factor rows bit-identical). [`PredictCache`] keys its
    /// validity on this.
    pub fn fit_epoch(&self) -> u64 {
        self.fit_epoch
    }

    /// The hyper-parameter configuration in use.
    pub fn config(&self) -> &TransferGpConfig {
        &self.config
    }

    /// The joint training rows, source first, as the [`Posterior`] sees
    /// them.
    fn rows<'a>(&'a self) -> impl Fn(usize) -> (&'a [f64], Task) + Copy + Sync + 'a {
        joint_rows(&self.x_source, &self.x_target)
    }

    /// Predictive mean and variance for a **target-task** query, in the
    /// target task's natural units (Eq. 8). The variance includes the
    /// target observation noise `β_t⁻¹`, i.e. it predicts a tool
    /// measurement, not the latent function.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] for queries of the wrong
    /// dimension.
    pub fn predict(&self, x: &[f64]) -> Result<(f64, f64)> {
        Ok(self.post.observed(self.predict_latent(x)?))
    }

    /// Predictive mean and **latent-function** variance (no observation
    /// noise) for a target-task query. This is the variance the tuner's
    /// uncertainty regions use: it can shrink below the tool-noise floor
    /// as evidence accumulates, so classification converges.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] for queries of the wrong
    /// dimension.
    pub fn predict_latent(&self, x: &[f64]) -> Result<(f64, f64)> {
        self.post.predict_latent(self.rows(), x)
    }

    /// Batch prediction for target-task queries, via the multi-RHS path
    /// of [`TransferGp::predict_latent_batch`] (on the calling thread)
    /// plus the observation-noise floor of [`TransferGp::predict`].
    ///
    /// # Errors
    ///
    /// Fails on any dimension mismatch.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<(f64, f64)>> {
        Ok(self
            .predict_latent_batch(xs, 1)?
            .into_iter()
            .map(|pred| self.post.observed(pred))
            .collect())
    }

    /// Batch form of [`TransferGp::predict_latent`]: assembles the
    /// cross-covariance matrix `K*` for a [`PREDICT_BLOCK`]-column chunk
    /// of queries at a time and runs one multi-RHS triangular solve per
    /// chunk instead of one forward substitution per query, so a candidate
    /// sweep walks the Cholesky factor once per chunk instead of once per
    /// point. The chunks are spread over `workers` threads with
    /// [`fan_out`] and merged in chunk order.
    ///
    /// Per query the arithmetic (accumulation order of the mean dot
    /// product and of `‖L⁻¹k*‖²`) is exactly that of the scalar path, so
    /// results are bit-identical to calling [`TransferGp::predict_latent`]
    /// in a loop — at every worker count, and however callers split `xs`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] for queries of the wrong
    /// dimension.
    pub fn predict_latent_batch(&self, xs: &[Vec<f64>], workers: usize) -> Result<Vec<(f64, f64)>> {
        self.post.predict_latent_batch(self.rows(), xs, workers)
    }

    /// Cached-incremental predict sweep: like
    /// [`TransferGp::predict_latent_batch`], but each candidate's solve
    /// state `v = L⁻¹k(X, x*)` persists in `cache` between sweeps, keyed
    /// by the caller's stable candidate `ids`. When the
    /// model has only been *conditioned* since a candidate's last sweep
    /// (q appended target rows), the candidate pays q new kernel entries
    /// plus a q-row tail substitution instead of a from-scratch column —
    /// O(P·n·q) per sweep instead of O(P·n²) over P undecided candidates.
    /// The cache holds candidates in lane blocks, so that work runs across
    /// a block's candidates at once (see the `predict_cache` module docs).
    ///
    /// Results are **bitwise identical** to
    /// [`TransferGp::predict_latent_batch`] at any worker count and any
    /// hit/miss mix: cached prefixes are bit-stable because
    /// [`Cholesky::extend`] never rewrites old factor rows, the tail
    /// substitution replays the exact from-scratch recurrence in every
    /// lane, and means `v·w` are reduced afresh each call with the
    /// current weights `w = L⁻¹z` and standardizer (so conditioning's `w`
    /// and standardizer updates need no invalidation). A fit-epoch
    /// mismatch (any full refit) clears the cache wholesale before the
    /// sweep.
    ///
    /// Call [`PredictCache::begin_sweep`] once per tuner iteration before
    /// the first cached sweep so lanes whose candidates were classified
    /// or pruned stop occupying memory.
    ///
    /// # Errors
    ///
    /// [`GpError::InvalidTrainingData`] when `ids` and `xs` disagree in
    /// length; [`GpError::DimensionMismatch`] for queries of the wrong
    /// dimension.
    pub fn predict_latent_batch_cached(
        &self,
        ids: &[u64],
        xs: &[Vec<f64>],
        workers: usize,
        cache: &mut PredictCache,
    ) -> Result<Vec<(f64, f64)>> {
        check_dims(self.post.dim(), xs)?;
        if ids.len() != xs.len() {
            return Err(GpError::InvalidTrainingData {
                reason: "candidate ids and queries must have equal length",
            });
        }
        if cache.epoch != self.fit_epoch {
            cache.clear_stale(self.fit_epoch);
        }
        cache.drop_longer_than(self.post.len());
        let plan = cache.plan(ids);
        let miss_chunks: Vec<&[usize]> = plan.misses.chunks(PREDICT_BLOCK).collect();
        let n_read = plan.read_blocks.len();
        crate::counters::add_predict_chunks((n_read + miss_chunks.len()) as u64);

        // Every read block is extended by one task, which owns it
        // through its (uncontended) lock; every miss chunk becomes a new
        // block. Each task answers for all lanes of its block.
        let sweep = cache.sweep();
        let blocks: Vec<Mutex<LaneBlock>> = std::mem::take(&mut cache.blocks)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let outs = fan_out(n_read + miss_chunks.len(), workers, |task| -> Result<_> {
            if let Some(&b) = plan.read_blocks.get(task) {
                let mut block = blocks[b].lock().expect("predict cache block poisoned");
                self.extend_block(&mut block)?;
                Ok((self.predict_block(&block), None))
            } else {
                let chunk = miss_chunks[task - n_read];
                let block = self.miss_block(chunk.iter().map(|&q| (ids[q], &xs[q])), sweep)?;
                Ok((self.predict_block(&block), Some(block)))
            }
        });
        cache.blocks = blocks
            .into_iter()
            .map(|b| b.into_inner().expect("predict cache block poisoned"))
            .collect();

        let mut answers: Vec<Vec<(f64, f64)>> = Vec::with_capacity(outs.len());
        for out in outs {
            let (preds, fresh) = out?;
            if let Some(block) = fresh {
                cache.push_block(block);
            }
            answers.push(preds);
        }
        let mut task_of = vec![usize::MAX; cache.blocks.len()];
        for (task, &b) in plan.read_blocks.iter().enumerate() {
            task_of[b] = task;
        }
        let mut out = Vec::with_capacity(xs.len());
        for &source in &plan.sources {
            out.push(match source {
                Source::Lane(b, l) => {
                    cache.touch(b, l);
                    answers[task_of[b]][l]
                }
                Source::Miss(m) => answers[n_read + m / PREDICT_BLOCK][m % PREDICT_BLOCK],
            });
        }
        let misses = plan
            .sources
            .iter()
            .filter(|s| matches!(s, Source::Miss(_)))
            .count() as u64;
        crate::counters::add_predict_cache_hits(ids.len() as u64 - misses);
        crate::counters::add_predict_cache_misses(misses);
        Ok(out)
    }

    /// Extends every lane of a cached block by the factor rows appended
    /// since it was last read: one tail substitution across the lanes on
    /// the new `k*` rows (a temporary), and the new rows' squares added to
    /// each lane's `‖v‖²`. Conditioning never adds source points, so every
    /// new row is a target row.
    fn extend_block(&self, block: &mut LaneBlock) -> Result<()> {
        let p = self.post.len();
        if block.rows == p {
            return Ok(());
        }
        let rows = self.rows();
        let (stride, lanes) = (block.stride, block.lanes());
        let xt = dims_major((0..lanes).map(|l| block.x(l)), block.dim);
        let mut k_tail = vec![0.0; (p - block.rows) * stride];
        for (i, k_row) in (block.rows..p).zip(k_tail.chunks_exact_mut(stride)) {
            self.post
                .cross_lanes(rows, i, &xt, lanes, &mut k_row[..lanes]);
        }
        block.reserve_rows(p - block.rows);
        let solved = block.v.len();
        self.post
            .chol
            .solve_lower_only_tail_panel(&k_tail, &mut block.v, stride, lanes)?;
        add_lane_squares(&block.v[solved..], stride, &mut block.vv);
        block.rows = p;
        Ok(())
    }

    /// A new block for one chunk of missing candidates: the
    /// [`Posterior`]'s in-place multi-RHS block solve, kept in its row ×
    /// lane layout.
    fn miss_block<'q>(
        &self,
        queries: impl Iterator<Item = (u64, &'q Vec<f64>)>,
        sweep: u64,
    ) -> Result<LaneBlock> {
        let (ids, xs): (Vec<u64>, Vec<&Vec<f64>>) = queries.unzip();
        let v = self.post.solve_block(self.rows(), &xs)?;
        let stride = xs.len();
        let mut vv = vec![0.0; stride];
        add_lane_squares(&v, stride, &mut vv);
        Ok(LaneBlock {
            rows: self.post.len(),
            stride,
            v,
            touched: vec![sweep; stride],
            ids,
            vv,
            xs: xs.iter().flat_map(|x| x.iter().copied()).collect(),
            dim: self.post.dim(),
        })
    }

    /// Predictions for every lane of an up-to-date block.
    fn predict_block(&self, block: &LaneBlock) -> Vec<(f64, f64)> {
        self.post.predict_lanes(
            &block.v,
            block.stride,
            &block.vv,
            (0..block.lanes()).map(|l| block.x(l)),
        )
    }

    /// Log marginal likelihood of the joint (standardized) data. The
    /// weights `α = (K̃ + Λ)⁻¹z` are rebuilt from the stored `w = L⁻¹z`
    /// with one back substitution, which is the second half of
    /// [`Cholesky::solve_vec`], so the value has the same bits.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.z_joint.len() as f64;
        let alpha = linalg::solve::solve_lower_transposed(self.post.chol.factor(), &self.post.w)
            .expect("a Cholesky factor solves a right-hand side of its own length");
        let fit = -0.5 * linalg::vecops::dot(&self.z_joint, &alpha);
        let complexity = -0.5 * self.post.chol.log_det();
        fit + complexity - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    /// Log marginal likelihood of the **target** data conditioned on the
    /// source data, `log p(y_T | y_S, θ) = log p(y_T, y_S) − log p(y_S)`.
    ///
    /// This is the training objective the paper prescribes ("learned by
    /// maximizing the marginal likelihood of data of the target task"):
    /// it rewards hyper-parameters for predicting the *target* well given
    /// the source, instead of compromising them to also explain source
    /// regions the target never visits. Equals the plain target marginal
    /// likelihood when the source is empty.
    pub fn log_conditional_likelihood(&self) -> f64 {
        self.log_marginal_likelihood() - self.source_lml
    }

    /// Builds a subset-of-data predictor over at most `m` anchor points:
    /// the posterior obtained by conditioning on a deterministic
    /// farthest-point (maximin) subset of the joint training set, with
    /// the same kernel, λ, and per-task noise.
    ///
    /// Per-query prediction costs O(m) for the mean and O(m²) for the
    /// variance — independent of the full training size — which is what
    /// makes very large evaluation histories affordable to sweep.
    ///
    /// **Error bounds.** Conditioning on a subset of the data can only
    /// lose information, so the subset posterior's latent variance
    /// *dominates* the exact one: `σ²_sod(x) ≥ σ²_exact(x)` (up to the
    /// factorization jitters, which also only add variance). ε-PAL
    /// uncertainty boxes built from the subset path are therefore
    /// conservative supersets of the exact boxes, and every
    /// classification they allow is also allowed by the exact model. The
    /// mean error is governed by the information the subset discards:
    /// for data drawn from the prior, nested conditioning gives
    /// `E[(μ_exact − μ_sod)²] = σ²_sod − σ²_exact ≤ σ²_sod`, so
    /// `|μ_sod(x) − μ_exact(x)| ≲ 3·σ_sod(x)` in-model. That constant is
    /// *not* a theorem: on misspecified data (out-of-model surfaces with
    /// a large task offset) both posteriors can extrapolate confidently
    /// in different directions and the ratio grows. `testkit`'s
    /// differential suite asserts the variance laws strictly and pins
    /// the mean error's empirical envelope against the dense reference
    /// posterior.
    ///
    /// Anchor selection starts at joint index 0 and greedily adds the
    /// point with maximal minimum squared distance to the chosen set
    /// (lowest index on ties), so the subset — and everything downstream
    /// — is a pure function of the training data.
    ///
    /// # Errors
    ///
    /// [`GpError::InvalidHyperparameter`] when `m` is 0;
    /// [`GpError::Factorization`] when the anchor kernel matrix cannot be
    /// factored.
    pub fn subset_predictor(&self, m: usize) -> Result<SubsetPredictor> {
        if m == 0 {
            return Err(GpError::InvalidHyperparameter {
                name: "sod_subset",
                value: 0.0,
            });
        }
        let rows = self.rows();
        let p = self.post.len();

        // Deterministic farthest-point subset of the joint indices.
        let m = m.min(p);
        let mut chosen: Vec<usize> = Vec::with_capacity(m);
        let mut picked = vec![false; p];
        let mut min_d2 = vec![f64::INFINITY; p];
        chosen.push(0);
        picked[0] = true;
        while chosen.len() < m {
            let last = rows(*chosen.last().expect("chosen is non-empty")).0;
            let mut best = None;
            for (i, slot) in min_d2.iter_mut().enumerate() {
                let d2 = linalg::vecops::sq_dist(rows(i).0, last);
                if d2 < *slot {
                    *slot = d2;
                }
                if !picked[i] {
                    // Strictly-greater keeps the lowest index on ties.
                    let better = match best {
                        None => true,
                        Some((_, bd2)) => *slot > bd2,
                    };
                    if better {
                        best = Some((i, *slot));
                    }
                }
            }
            let (next, _) = best.expect("m <= p leaves an unchosen point");
            picked[next] = true;
            chosen.push(next);
        }

        let anchors: Vec<Vec<f64>> = chosen.iter().map(|&i| rows(i).0.to_vec()).collect();
        let tasks: Vec<Task> = chosen.iter().map(|&i| rows(i).1).collect();
        let z_sub: Vec<f64> = chosen.iter().map(|&i| self.z_joint[i]).collect();
        let k = noisy_gram(&self.post.kernel, &self.config, m, |i| {
            (anchors[i].as_slice(), tasks[i])
        });
        let (chol, _) = Cholesky::new_with_jitter(&k, 1e-10, 12)?;
        let w = chol.solve_lower_only(&z_sub)?;
        Ok(SubsetPredictor {
            post: Posterior {
                kernel: self.post.kernel.clone(),
                w,
                chol,
                std_target: self.post.std_target,
                noise_target: self.post.noise_target,
            },
            anchors,
            tasks,
            train_size: p,
        })
    }
}

/// The joint training rows of a transfer GP, source first: row `i` is
/// source point `i` for `i < source.len()`, else target point
/// `i − source.len()`. The one place that maps a joint index to its input
/// and task.
pub(crate) fn joint_rows<'a>(
    source: &'a [Vec<f64>],
    target: &'a [Vec<f64>],
) -> impl Fn(usize) -> (&'a [f64], Task) + Copy + Sync + 'a {
    move |i| match i.checked_sub(source.len()) {
        None => (&source[i], Task::Source),
        Some(t) => (&target[t], Task::Target),
    }
}

/// The lower triangle (`j ≤ i`) of `K̃ + Λ` over `p` training rows: the
/// transfer kernel (Eq. 7) plus each row's task noise on the diagonal.
/// The strict upper triangle is left zero; [`Cholesky::new`] reads only
/// the lower one.
fn noisy_gram<'r>(
    kernel: &TransferKernel,
    config: &TransferGpConfig,
    p: usize,
    row: impl Fn(usize) -> (&'r [f64], Task),
) -> Matrix {
    crate::counters::add_kernel_assemblies(1);
    let mut k = Matrix::zeros(p, p);
    for i in 0..p {
        let (xi, ti) = row(i);
        for j in 0..=i {
            let (xj, tj) = row(j);
            k[(i, j)] = kernel.eval_task(xi, ti, xj, tj);
        }
        k[(i, i)] += match ti {
            Task::Source => config.noise_source,
            Task::Target => config.noise_target,
        };
    }
    k
}

/// Log marginal likelihood `log p(y_S)` of the standardized source outputs
/// `z_s` alone, given the noisy joint kernel `k` (source rows first; only
/// its lower triangle is read) and the factor `chol` that
/// [`Cholesky::new_with_jitter`] produced for it with `jitter`. Zero when
/// the source is empty.
///
/// The source block's factor is the joint factor's leading block (see
/// [`Cholesky::leading`]), so no second factorization runs. A jittered
/// joint factor carries that jitter on its source block as well, so then
/// `K_ss` is factored on its own, with its own jitter ladder.
pub(crate) fn source_lml(k: &Matrix, chol: &Cholesky, jitter: f64, z_s: &[f64]) -> Result<f64> {
    let n = z_s.len();
    if n == 0 {
        return Ok(0.0);
    }
    let chol_s = if jitter == 0.0 {
        chol.leading(n)
    } else {
        Cholesky::new_with_jitter(&k.submatrix(0, n, 0, n), 1e-10, 12)?.0
    };
    let alpha_s = chol_s.solve_vec(z_s)?;
    Ok(-0.5 * linalg::vecops::dot(z_s, &alpha_s)
        - 0.5 * chol_s.log_det()
        - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln())
}

/// Rejects queries whose dimension is not `dim`.
fn check_dims<Q: AsRef<[f64]>>(dim: usize, xs: &[Q]) -> Result<()> {
    match xs.iter().map(AsRef::as_ref).find(|x| x.len() != dim) {
        Some(x) => Err(GpError::DimensionMismatch {
            expected: dim,
            got: x.len(),
        }),
        None => Ok(()),
    }
}

/// The training-data validator of every fitting entry point: each input
/// row has `dim` finite coordinates, then every output is finite.
pub(crate) fn check_training<'a>(
    dim: usize,
    x: impl IntoIterator<Item = &'a Vec<f64>>,
    y: impl IntoIterator<Item = &'a f64>,
) -> Result<()> {
    for row in x {
        if row.len() != dim {
            return Err(GpError::DimensionMismatch {
                expected: dim,
                got: row.len(),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(GpError::InvalidTrainingData {
                reason: "training inputs must be finite",
            });
        }
    }
    if y.into_iter().any(|v| !v.is_finite()) {
        return Err(GpError::InvalidTrainingData {
            reason: "training outputs must be finite",
        });
    }
    Ok(())
}

/// The Eq. 8 posterior over one set of training rows, shared by
/// [`TransferGp`] (its joint source-then-target set) and
/// [`SubsetPredictor`] (its maximin anchors). Each owner passes its rows
/// as `row(i) -> (input, task)` for `i < len()`.
///
/// This is the only copy of the predict math: the scalar reference path,
/// the lane-wise `K*` assembly with its in-place multi-RHS solve, the
/// lane-wise reduction, and the observation-noise add. A latent mean is
/// `v·w` with `v = L⁻¹k*` and `w = L⁻¹z` (equal to `k*·α`), so `v` alone
/// serves both the mean and the variance `‖v‖²`. Every lane of the
/// assembly and of the reduction accumulates in the scalar path's order,
/// and every column of the multi-RHS solve is bit-identical to a
/// single-RHS solve, so the exact, cached and subset-of-data sweeps
/// return the scalar path's bits however queries are chunked, cached or
/// spread over workers.
#[derive(Clone)]
struct Posterior {
    kernel: TransferKernel,
    /// `L⁻¹z` over the training rows (standardized outputs), where
    /// `L Lᵀ = K̃ + Λ`.
    w: Vec<f64>,
    chol: Cholesky,
    std_target: Standardizer,
    noise_target: f64,
}

impl Posterior {
    /// Number of training rows.
    fn len(&self) -> usize {
        self.w.len()
    }

    /// Input dimension.
    fn dim(&self) -> usize {
        self.kernel.base().dim()
    }

    /// Covariance of training row `i` with the target-task query `x`.
    fn cross<'r>(&self, row: impl Fn(usize) -> (&'r [f64], Task), i: usize, x: &[f64]) -> f64 {
        let (xi, ti) = row(i);
        self.kernel.eval_task(xi, ti, x, Task::Target)
    }

    /// [`Posterior::cross`] of training row `i` with every query lane at
    /// once: `xt` holds the queries dimension-major (see [`dims_major`]),
    /// and `out[l]` is bit-identical to `cross(row, i, x_l)`.
    fn cross_lanes<'r>(
        &self,
        row: impl Fn(usize) -> (&'r [f64], Task),
        i: usize,
        xt: &[f64],
        stride: usize,
        out: &mut [f64],
    ) {
        let (xi, ti) = row(i);
        self.kernel
            .eval_task_lanes(xi, ti, xt, Task::Target, stride, out);
    }

    /// Target-task prior variance at `x` minus the explained part `vv`,
    /// clamped at 0, with the mean and variance de-standardized.
    fn finish(&self, x: &[f64], mean_z: f64, vv: f64) -> (f64, f64) {
        let c = self.kernel.eval_task(x, Task::Target, x, Task::Target);
        let var_z = (c - vv).max(0.0);
        (
            self.std_target.inverse(mean_z),
            self.std_target.inverse_var(var_z),
        )
    }

    /// The scalar reference path: one `k*` column, one single-RHS forward
    /// substitution `v = L⁻¹k*`, [`linalg::vecops::dot`] reductions `v·w`
    /// and `v·v`. The batch paths are pinned against it bit for bit.
    fn predict_latent<'r>(
        &self,
        row: impl Fn(usize) -> (&'r [f64], Task) + Copy,
        x: &[f64],
    ) -> Result<(f64, f64)> {
        check_dims(self.dim(), &[x])?;
        let k_star: Vec<f64> = (0..self.len()).map(|i| self.cross(row, i, x)).collect();
        let v = self.chol.solve_lower_only(&k_star)?;
        let mean_z = linalg::vecops::dot(&v, &self.w);
        Ok(self.finish(x, mean_z, linalg::vecops::dot(&v, &v)))
    }

    /// `V = L⁻¹K*` as a row-major `len() × xs.len()` panel, one query per
    /// lane: `K*` is assembled lane-wise and solved in place by one
    /// multi-RHS triangular solve, so each column of `V` is bit-identical
    /// to the scalar path's single-RHS solve and only one panel is held.
    fn solve_block<'r, Q: AsRef<[f64]>>(
        &self,
        row: impl Fn(usize) -> (&'r [f64], Task) + Copy,
        xs: &[Q],
    ) -> Result<Vec<f64>> {
        let c = xs.len();
        let xt = dims_major(xs.iter().map(AsRef::as_ref), self.dim());
        let mut k = vec![0.0; self.len() * c];
        for (i, k_row) in k.chunks_exact_mut(c).enumerate() {
            self.cross_lanes(row, i, &xt, c, k_row);
        }
        let mut v = Matrix::from_vec(self.len(), c, k)?;
        self.chol.solve_lower_only_multi(&mut v)?;
        Ok(v.into_vec())
    }

    /// The lane-wise finish of every batch path. `v` is a row-major
    /// `len() × stride` panel of `L⁻¹k*` with one query per lane; each
    /// lane's mean `v·w` is accumulated row by row, in the scalar path's
    /// index order, and `vv[l]` is lane `l`'s `‖v‖²` (see
    /// [`add_lane_squares`]). The `lanes = vv.len()` queries are `xs`.
    fn predict_lanes<'x>(
        &self,
        v: &[f64],
        stride: usize,
        vv: &[f64],
        xs: impl Iterator<Item = &'x [f64]>,
    ) -> Vec<(f64, f64)> {
        let mut mean_z = vec![0.0; vv.len()];
        for (row, &w) in v.chunks_exact(stride).zip(&self.w) {
            for (m, &vl) in mean_z.iter_mut().zip(row) {
                *m += vl * w;
            }
        }
        xs.zip(mean_z.iter().zip(vv))
            .map(|(x, (&m, &vv))| self.finish(x, m, vv))
            .collect()
    }

    /// Batch latent prediction: [`PREDICT_BLOCK`]-sized chunks, each one
    /// [`Posterior::solve_block`] and one lane-wise reduction, fanned out
    /// over `workers` threads ([`fan_out`]) and concatenated in chunk
    /// order. The chunking is fixed and a chunk never depends on its
    /// neighbours, so the output is the same bits at every worker count.
    fn predict_latent_batch<'r>(
        &self,
        row: impl Fn(usize) -> (&'r [f64], Task) + Copy + Sync,
        xs: &[Vec<f64>],
        workers: usize,
    ) -> Result<Vec<(f64, f64)>> {
        check_dims(self.dim(), xs)?;
        let chunks: Vec<&[Vec<f64>]> = xs.chunks(PREDICT_BLOCK).collect();
        crate::counters::add_predict_chunks(chunks.len() as u64);
        let block = |chunk: &[Vec<f64>]| -> Result<Vec<(f64, f64)>> {
            let v = self.solve_block(row, chunk)?;
            let mut vv = vec![0.0; chunk.len()];
            add_lane_squares(&v, chunk.len(), &mut vv);
            Ok(self.predict_lanes(&v, chunk.len(), &vv, chunk.iter().map(Vec::as_slice)))
        };
        let mut out = Vec::with_capacity(xs.len());
        for chunk in fan_out(chunks.len(), workers, |c| block(chunks[c])) {
            out.extend(chunk?);
        }
        Ok(out)
    }

    /// Adds the target observation noise `β_t⁻¹` (natural units) to a
    /// latent prediction.
    fn observed(&self, (mean, var): (f64, f64)) -> (f64, f64) {
        (mean, var + self.std_target.inverse_var(self.noise_target))
    }
}

/// The points `xs` laid out dimension-major: entry `t·n + l` is
/// coordinate `t` of point `l`, for `n` points of dimension `dim`.
fn dims_major<'x>(xs: impl Iterator<Item = &'x [f64]> + Clone, dim: usize) -> Vec<f64> {
    (0..dim)
        .flat_map(|t| xs.clone().map(move |x| x[t]))
        .collect()
}

/// Adds the squares of a row-major `stride`-wide panel's rows to the
/// per-lane sums `acc` (lanes `0..acc.len()`), row by row — the scalar
/// path's `‖v‖²` order, so a sum over a prefix continued over the rest is
/// the sum over the whole column.
fn add_lane_squares(v: &[f64], stride: usize, acc: &mut [f64]) {
    for row in v.chunks_exact(stride) {
        for (a, &x) in acc.iter_mut().zip(row) {
            *a += x * x;
        }
    }
}

/// A subset-of-data approximation of a [`TransferGp`] posterior: the
/// exact GP posterior of a maximin-chosen anchor subset of the joint
/// training set. See [`TransferGp::subset_predictor`] for the
/// construction and its error bounds (conservative variance, σ-bounded
/// mean error).
#[derive(Clone)]
pub struct SubsetPredictor {
    post: Posterior,
    anchors: Vec<Vec<f64>>,
    tasks: Vec<Task>,
    train_size: usize,
}

impl SubsetPredictor {
    /// Number of anchor points the predictor conditions on.
    pub fn subset_size(&self) -> usize {
        self.anchors.len()
    }

    /// Joint training-set size of the model this predictor was built
    /// from.
    pub fn train_size(&self) -> usize {
        self.train_size
    }

    /// The anchors in maximin order, as the [`Posterior`] sees them.
    fn rows<'a>(&'a self) -> impl Fn(usize) -> (&'a [f64], Task) + Copy + Sync + 'a {
        |i| (self.anchors[i].as_slice(), self.tasks[i])
    }

    /// Predictive mean and latent variance for a target-task query — the
    /// subset-of-data counterpart of [`TransferGp::predict_latent`].
    ///
    /// # Errors
    ///
    /// [`GpError::DimensionMismatch`] for queries of the wrong dimension.
    pub fn predict_latent(&self, x: &[f64]) -> Result<(f64, f64)> {
        self.post.predict_latent(self.rows(), x)
    }

    /// Predictive mean and observation variance (latent + `β_t⁻¹`), the
    /// subset-of-data counterpart of [`TransferGp::predict`].
    ///
    /// # Errors
    ///
    /// [`GpError::DimensionMismatch`] for queries of the wrong dimension.
    pub fn predict(&self, x: &[f64]) -> Result<(f64, f64)> {
        Ok(self.post.observed(self.predict_latent(x)?))
    }

    /// Batch form of [`SubsetPredictor::predict_latent`], chunked and
    /// fanned out over `workers` threads exactly like
    /// [`TransferGp::predict_latent_batch`] — bitwise identical at any
    /// worker count. The subset posterior is rebuilt each refit, so there
    /// is no cached variant; parallelism is the whole win here.
    ///
    /// # Errors
    ///
    /// [`GpError::DimensionMismatch`] for queries of the wrong dimension.
    pub fn predict_latent_batch(&self, xs: &[Vec<f64>], workers: usize) -> Result<Vec<(f64, f64)>> {
        self.post.predict_latent_batch(self.rows(), xs, workers)
    }
}

impl std::fmt::Debug for SubsetPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubsetPredictor")
            .field("subset", &self.anchors.len())
            .field("train_size", &self.train_size)
            .finish()
    }
}

impl std::fmt::Debug for TransferGp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransferGp")
            .field("n_source", &self.x_source.len())
            .field("n_target", &self.x_target.len())
            .field("lambda", &self.post.kernel.lambda())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(x: f64) -> f64 {
        (5.0 * x).sin()
    }

    fn source_dense() -> TaskData {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| f(p[0])).collect();
        TaskData::new(x, y)
    }

    fn target_sparse(shift: f64) -> TaskData {
        let pts = [0.05, 0.35, 0.65, 0.95];
        TaskData::new(
            pts.iter().map(|&p| vec![p]).collect(),
            pts.iter().map(|&p| f(p) + shift).collect(),
        )
    }

    #[test]
    fn transfer_beats_target_only_gp() {
        let cfg = TransferGpConfig {
            lengthscales: vec![0.15],
            signal_var: 1.0,
            lambda: 0.95,
            noise_source: 1e-4,
            noise_target: 1e-4,
        };
        let with_source = TransferGp::fit(source_dense(), target_sparse(0.0), cfg.clone()).unwrap();
        let without_source = TransferGp::fit(TaskData::default(), target_sparse(0.0), cfg).unwrap();
        // Error at a point far from target observations but covered by the
        // source.
        let q = [0.2];
        let truth = f(0.2);
        let e_with = (with_source.predict(&q).unwrap().0 - truth).abs();
        let e_without = (without_source.predict(&q).unwrap().0 - truth).abs();
        assert!(
            e_with < e_without,
            "transfer {e_with} should beat no-transfer {e_without}"
        );
    }

    #[test]
    fn transfer_reduces_uncertainty() {
        let cfg = TransferGpConfig {
            lengthscales: vec![0.15],
            signal_var: 1.0,
            lambda: 0.95,
            noise_source: 1e-4,
            noise_target: 1e-4,
        };
        let with_source = TransferGp::fit(source_dense(), target_sparse(0.0), cfg.clone()).unwrap();
        let without_source = TransferGp::fit(TaskData::default(), target_sparse(0.0), cfg).unwrap();
        let q = [0.2];
        assert!(with_source.predict(&q).unwrap().1 < without_source.predict(&q).unwrap().1);
    }

    #[test]
    fn lambda_zero_ignores_source() {
        let cfg_zero = TransferGpConfig {
            lengthscales: vec![0.15],
            signal_var: 1.0,
            lambda: 1e-12,
            noise_source: 1e-4,
            noise_target: 1e-4,
        };
        // Source deliberately misleading (negated function).
        let mut bad_source = source_dense();
        for y in &mut bad_source.y {
            *y = -*y;
        }
        let tgp = TransferGp::fit(bad_source, target_sparse(0.0), cfg_zero.clone()).unwrap();
        let alone = TransferGp::fit(TaskData::default(), target_sparse(0.0), cfg_zero).unwrap();
        let q = [0.5];
        let (m1, _) = tgp.predict(&q).unwrap();
        let (m2, _) = alone.predict(&q).unwrap();
        assert!((m1 - m2).abs() < 1e-6, "λ≈0 must neutralize the source");
    }

    #[test]
    fn per_task_standardization_absorbs_scale_shift() {
        // Source outputs 100× larger than target: shape transfers anyway.
        let mut scaled_source = source_dense();
        for y in &mut scaled_source.y {
            *y *= 100.0;
        }
        let cfg = TransferGpConfig {
            lengthscales: vec![0.15],
            signal_var: 1.0,
            lambda: 0.95,
            noise_source: 1e-4,
            noise_target: 1e-4,
        };
        let tgp = TransferGp::fit(scaled_source, target_sparse(0.0), cfg).unwrap();
        let (m, _) = tgp.predict(&[0.2]).unwrap();
        assert!((m - f(0.2)).abs() < 0.25, "mean {m} vs {}", f(0.2));
    }

    #[test]
    fn rejects_empty_target_and_mismatches() {
        let cfg = TransferGpConfig::default_for_dim(1);
        assert!(TransferGp::fit(source_dense(), TaskData::default(), cfg.clone()).is_err());
        let bad_dim = TaskData::new(vec![vec![0.1, 0.2]], vec![1.0]);
        assert!(TransferGp::fit(TaskData::default(), bad_dim, cfg.clone()).is_err());
        let ragged = TaskData::new(vec![vec![0.1]], vec![1.0, 2.0]);
        assert!(TransferGp::fit(TaskData::default(), ragged, cfg).is_err());
    }

    #[test]
    fn likelihood_prefers_true_lambda() {
        // Target is an exact copy of the source function: high λ should
        // explain the joint data better than λ ≈ 0.
        let mk = |lambda: f64| TransferGpConfig {
            lengthscales: vec![0.15],
            signal_var: 1.0,
            lambda,
            noise_source: 1e-3,
            noise_target: 1e-3,
        };
        let high = TransferGp::fit(source_dense(), target_sparse(0.0), mk(0.95)).unwrap();
        let low = TransferGp::fit(source_dense(), target_sparse(0.0), mk(1e-6)).unwrap();
        assert!(high.log_marginal_likelihood() > low.log_marginal_likelihood());
    }

    #[test]
    fn condition_on_matches_full_refit() {
        let cfg = TransferGpConfig {
            lengthscales: vec![0.2],
            signal_var: 1.0,
            lambda: 0.9,
            noise_source: 1e-3,
            noise_target: 1e-3,
        };
        // Fit on a prefix, condition on the rest, compare against a
        // from-scratch fit of everything.
        let full_target = target_sparse(0.1);
        let prefix = TaskData::new(full_target.x[..2].to_vec(), full_target.y[..2].to_vec());
        let mut incremental = TransferGp::fit(source_dense(), prefix, cfg.clone()).unwrap();
        incremental
            .condition_on(&full_target.x[2..], &full_target.y[2..])
            .unwrap();
        let fresh = TransferGp::fit(source_dense(), full_target, cfg).unwrap();
        assert_eq!(incremental.target_len(), fresh.target_len());
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-10 * b.abs().max(1.0);
        for q in [[0.0], [0.22], [0.5], [0.77], [1.0]] {
            let (mi, vi) = incremental.predict_latent(&q).unwrap();
            let (mf, vf) = fresh.predict_latent(&q).unwrap();
            assert!(close(mi, mf), "mean at {q:?}: {mi} vs full refit {mf}");
            assert!(close(vi, vf), "variance at {q:?}: {vi} vs full refit {vf}");
        }
        assert!(close(
            incremental.log_marginal_likelihood(),
            fresh.log_marginal_likelihood()
        ));
        assert!(close(
            incremental.log_conditional_likelihood(),
            fresh.log_conditional_likelihood()
        ));
    }

    #[test]
    fn condition_on_validates_and_handles_empty_batches() {
        let cfg = TransferGpConfig::default_for_dim(1);
        let mut model = TransferGp::fit(source_dense(), target_sparse(0.0), cfg).unwrap();
        let before_len = model.target_len();
        // Empty batch: no-op.
        model.condition_on(&[], &[]).unwrap();
        assert_eq!(model.target_len(), before_len);
        // Mismatched lengths / dimensions / non-finite values are
        // rejected without touching the model.
        assert!(model.condition_on(&[vec![0.5]], &[]).is_err());
        assert!(model.condition_on(&[vec![0.5, 0.5]], &[1.0]).is_err());
        assert!(model.condition_on(&[vec![f64::NAN]], &[1.0]).is_err());
        assert!(model.condition_on(&[vec![0.5]], &[f64::INFINITY]).is_err());
        assert_eq!(model.target_len(), before_len);
    }

    #[test]
    fn fitting_entry_points_reject_bad_training_data_alike() {
        // One bad input per case; every entry point that validates
        // training data must report the same error for it.
        let cases = [
            (
                vec![vec![0.5, 0.5]],
                vec![1.0],
                GpError::DimensionMismatch {
                    expected: 1,
                    got: 2,
                },
            ),
            (
                vec![vec![f64::NAN]],
                vec![1.0],
                GpError::InvalidTrainingData {
                    reason: "training inputs must be finite",
                },
            ),
            (
                vec![vec![0.5]],
                vec![f64::INFINITY],
                GpError::InvalidTrainingData {
                    reason: "training outputs must be finite",
                },
            ),
        ];
        let cfg = TransferGpConfig::default_for_dim(1);
        let kernel = SquaredExponential::isotropic(1, 1.0, 0.4).unwrap();
        let source = source_dense();
        for (x, y, want) in cases {
            let bad = TaskData::new(x.clone(), y.clone());
            let mut model =
                TransferGp::fit(source.clone(), target_sparse(0.0), cfg.clone()).unwrap();
            let (epoch, before) = (model.fit_epoch(), model.predict_latent(&[0.3]).unwrap());
            let got = [
                (
                    "TransferGp::fit",
                    TransferGp::fit(source.clone(), bad.clone(), cfg.clone()).unwrap_err(),
                ),
                (
                    "TransferGp::condition_on",
                    model.condition_on(&x, &y).unwrap_err(),
                ),
                (
                    "FitCache::new",
                    crate::cache::FitCache::new(&source, &bad, 1).unwrap_err(),
                ),
                (
                    "GpRegressor::fit",
                    crate::GpRegressor::fit(x.clone(), y.clone(), kernel.clone(), 1e-6)
                        .unwrap_err(),
                ),
            ];
            for (entry, err) in got {
                assert_eq!(err, want, "{entry} on {x:?} -> {y:?}");
            }
            assert_eq!(model.target_len(), 4, "condition_on grew the model");
            assert_eq!(model.fit_epoch(), epoch, "condition_on refitted");
            assert_eq!(model.predict_latent(&[0.3]).unwrap(), before);
        }
    }

    #[test]
    fn condition_on_works_without_source() {
        let cfg = TransferGpConfig::default_for_dim(1);
        let mut model =
            TransferGp::fit(TaskData::default(), target_sparse(0.0), cfg.clone()).unwrap();
        model.condition_on(&[vec![0.5]], &[f(0.5)]).unwrap();
        let full = TaskData::new(
            vec![vec![0.05], vec![0.35], vec![0.65], vec![0.95], vec![0.5]],
            vec![f(0.05), f(0.35), f(0.65), f(0.95), f(0.5)],
        );
        let fresh = TransferGp::fit(TaskData::default(), full, cfg).unwrap();
        let (mi, vi) = model.predict(&[0.3]).unwrap();
        let (mf, vf) = fresh.predict(&[0.3]).unwrap();
        assert!((mi - mf).abs() <= 1e-10 * mf.abs().max(1.0));
        assert!((vi - vf).abs() <= 1e-10 * vf.abs().max(1.0));
    }

    /// A query sweep spanning several [`PREDICT_BLOCK`] chunks, the last
    /// one partial, so worker counts above 1 really fan out.
    fn multi_chunk_queries() -> Vec<Vec<f64>> {
        let n = 2 * PREDICT_BLOCK + 37;
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn batch_prediction_is_bitwise_identical_to_scalar() {
        let tgp = TransferGp::fit(
            source_dense(),
            target_sparse(0.1),
            TransferGpConfig::default_for_dim(1),
        )
        .unwrap();
        let queries = multi_chunk_queries();
        let latent = tgp.predict_latent_batch(&queries, 1).unwrap();
        let noisy = tgp.predict_batch(&queries).unwrap();
        for (q, query) in queries.iter().enumerate() {
            let (ms, vs) = tgp.predict_latent(query).unwrap();
            assert_eq!(latent[q].0, ms, "latent mean #{q}");
            assert_eq!(latent[q].1, vs, "latent variance #{q}");
            let (mn, vn) = tgp.predict(query).unwrap();
            assert_eq!(noisy[q].0, mn, "noisy mean #{q}");
            assert_eq!(noisy[q].1, vn, "noisy variance #{q}");
        }
        // How callers split the sweep cannot change results.
        let pieces: Vec<(f64, f64)> = queries
            .chunks(5)
            .flat_map(|c| tgp.predict_latent_batch(c, 1).unwrap())
            .collect();
        assert_eq!(pieces, latent);
        // Empty and invalid input handling.
        assert!(tgp.predict_latent_batch(&[], 4).unwrap().is_empty());
        assert!(tgp.predict_latent_batch(&[vec![0.1, 0.2]], 1).is_err());
        assert!(tgp.predict_batch(&[vec![0.1, 0.2]]).is_err());
    }

    #[test]
    fn subset_predictor_with_all_points_matches_exact() {
        let tgp = TransferGp::fit(
            source_dense(),
            target_sparse(0.1),
            TransferGpConfig::default_for_dim(1),
        )
        .unwrap();
        let full = tgp.source_len() + tgp.target_len();
        let sod = tgp.subset_predictor(full + 10).unwrap();
        assert_eq!(sod.subset_size(), full);
        assert_eq!(sod.train_size(), full);
        // Same conditioning set (re-ordered): same posterior up to
        // permutation round-off.
        for q in [[0.0], [0.17], [0.5], [0.83], [1.0]] {
            let (me, ve) = tgp.predict_latent(&q).unwrap();
            let (ms, vs) = sod.predict_latent(&q).unwrap();
            assert!((me - ms).abs() < 1e-7, "mean at {q:?}: {me} vs {ms}");
            assert!((ve - vs).abs() < 1e-7, "var at {q:?}: {ve} vs {vs}");
        }
    }

    #[test]
    fn subset_variance_dominates_exact_variance() {
        let tgp = TransferGp::fit(
            source_dense(),
            target_sparse(0.1),
            TransferGpConfig::default_for_dim(1),
        )
        .unwrap();
        let sod = tgp.subset_predictor(8).unwrap();
        assert_eq!(sod.subset_size(), 8);
        for i in 0..40 {
            let q = [i as f64 / 39.0];
            let (_, ve) = tgp.predict_latent(&q).unwrap();
            let (ms, vs) = sod.predict_latent(&q).unwrap();
            assert!(
                vs >= ve - 1e-9,
                "subset variance {vs} below exact {ve} at {q:?}"
            );
            // Mean error stays inside the subset's own uncertainty.
            let (me, _) = tgp.predict_latent(&q).unwrap();
            assert!(
                (ms - me).abs() <= 3.0 * vs.sqrt() + 1e-9,
                "mean error {} exceeds 3σ_sod {}",
                (ms - me).abs(),
                3.0 * vs.sqrt()
            );
        }
    }

    #[test]
    fn subset_predictor_is_deterministic() {
        let tgp = TransferGp::fit(
            source_dense(),
            target_sparse(0.1),
            TransferGpConfig::default_for_dim(1),
        )
        .unwrap();
        let a = tgp.subset_predictor(12).unwrap();
        let b = tgp.subset_predictor(12).unwrap();
        let queries: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let pa = a.predict_latent_batch(&queries, 1).unwrap();
        let pb = b.predict_latent_batch(&queries, 1).unwrap();
        assert_eq!(pa, pb, "subset path not deterministic");
        // The scalar reference path (single-RHS solve, `vecops::dot`
        // reductions) agrees bit for bit with the block path.
        for (q, query) in queries.iter().enumerate() {
            assert_eq!(a.predict_latent(query).unwrap(), pa[q]);
        }
        let (mn, vn) = a.predict(&queries[3]).unwrap();
        assert_eq!(mn, pa[3].0);
        assert!(vn > pa[3].1, "predict adds observation noise");
        // Invalid inputs.
        assert!(a.predict_latent(&[0.1, 0.2]).is_err());
        assert!(a.predict_latent_batch(&[vec![0.1, 0.2]], 2).is_err());
        assert!(tgp.subset_predictor(0).is_err());
        assert!(format!("{a:?}").contains("SubsetPredictor"));
    }

    #[test]
    fn parallel_predict_is_bitwise_worker_invariant() {
        let tgp = TransferGp::fit(
            source_dense(),
            target_sparse(0.1),
            TransferGpConfig::default_for_dim(1),
        )
        .unwrap();
        let queries = multi_chunk_queries();
        let reference = tgp.predict_latent_batch(&queries, 1).unwrap();
        let sod = tgp.subset_predictor(12).unwrap();
        let sod_ref = sod.predict_latent_batch(&queries, 1).unwrap();
        for workers in [0, 2, 3, 4, 8] {
            let got = tgp.predict_latent_batch(&queries, workers).unwrap();
            assert_eq!(got, reference, "exact workers {workers} drifted");
            let got = sod.predict_latent_batch(&queries, workers).unwrap();
            assert_eq!(got, sod_ref, "subset workers {workers} drifted");
        }
    }

    #[test]
    fn cached_predict_is_bitwise_identical_across_conditioning() {
        let cfg = TransferGpConfig {
            lengthscales: vec![0.2],
            signal_var: 1.0,
            lambda: 0.9,
            noise_source: 1e-3,
            noise_target: 1e-3,
        };
        let mut model = TransferGp::fit(source_dense(), target_sparse(0.1), cfg).unwrap();
        let queries = multi_chunk_queries();
        let ids: Vec<u64> = (0..queries.len() as u64).collect();
        let mut cache = PredictCache::new();

        // Sweep 1: all misses. Must match the uncached path bit for bit.
        cache.begin_sweep();
        let got = model
            .predict_latent_batch_cached(&ids, &queries, 4, &mut cache)
            .unwrap();
        let scratch = model.predict_latent_batch(&queries, 1).unwrap();
        assert_eq!(got, scratch, "all-miss sweep drifted from scratch");
        assert_eq!(cache.len(), queries.len());

        // Condition on a few points, then sweep again: all hits (tail
        // path). Still bitwise identical to from-scratch on the extended
        // model, at every worker count (the persistent `cache` is
        // consumed by worker count 1 and rebuilt identically each round:
        // same (seed, q) state, same bits).
        model
            .condition_on(&[vec![0.11], vec![0.77]], &[f(0.11) + 0.1, f(0.77) + 0.1])
            .unwrap();
        let scratch = model.predict_latent_batch(&queries, 1).unwrap();
        for workers in [1, 2, 4, 8] {
            cache.begin_sweep();
            let got = model
                .predict_latent_batch_cached(&ids, &queries, workers, &mut cache)
                .unwrap();
            assert_eq!(got, scratch, "hit sweep (workers {workers}) drifted");
        }

        // A subset of candidates (evictions) plus new ones (misses) mixes
        // hit/miss within chunks; still exact.
        let sub_ids: Vec<u64> = ids.iter().copied().step_by(3).collect();
        let sub_q: Vec<Vec<f64>> = queries.iter().cloned().step_by(3).collect();
        cache.begin_sweep();
        let got = model
            .predict_latent_batch_cached(&sub_ids, &sub_q, 2, &mut cache)
            .unwrap();
        let scratch = model.predict_latent_batch(&sub_q, 1).unwrap();
        assert_eq!(got, scratch, "mixed sweep drifted");
        cache.begin_sweep();
        assert_eq!(cache.len(), sub_ids.len(), "untouched entries must evict");

        // Validation.
        assert!(model
            .predict_latent_batch_cached(&ids[..3], &queries, 2, &mut cache)
            .is_err());
        assert!(model
            .predict_latent_batch_cached(&[0], &[vec![0.1, 0.2]], 2, &mut cache)
            .is_err());
    }

    #[test]
    fn refit_changes_epoch_and_clears_cache() {
        let cfg = TransferGpConfig::default_for_dim(1);
        let mut model = TransferGp::fit(source_dense(), target_sparse(0.1), cfg.clone()).unwrap();
        let epoch0 = model.fit_epoch();
        let queries: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0]).collect();
        let ids: Vec<u64> = (0..9).collect();
        let mut cache = PredictCache::new();
        cache.begin_sweep();
        model
            .predict_latent_batch_cached(&ids, &queries, 1, &mut cache)
            .unwrap();
        assert_eq!(cache.len(), 9);

        // Incremental conditioning preserves the epoch.
        model.condition_on(&[vec![0.5]], &[f(0.5) + 0.1]).unwrap();
        assert_eq!(model.fit_epoch(), epoch0);

        // A full refit gets a fresh epoch, and the next cached sweep
        // against it starts from scratch yet still matches exactly.
        let refit = TransferGp::fit(
            source_dense(),
            TaskData::new((*model.x_target).clone(), model.y_target.clone()),
            cfg,
        )
        .unwrap();
        assert_ne!(refit.fit_epoch(), epoch0);
        cache.begin_sweep();
        let got = refit
            .predict_latent_batch_cached(&ids, &queries, 1, &mut cache)
            .unwrap();
        let scratch = refit.predict_latent_batch(&queries, 1).unwrap();
        assert_eq!(got, scratch, "post-refit sweep drifted");
    }

    #[test]
    fn accessors() {
        let tgp = TransferGp::fit(
            source_dense(),
            target_sparse(0.1),
            TransferGpConfig::default_for_dim(1),
        )
        .unwrap();
        assert_eq!(tgp.source_len(), 30);
        assert_eq!(tgp.target_len(), 4);
        assert!((tgp.lambda() - 0.8).abs() < 1e-12);
        let dbg = format!("{tgp:?}");
        assert!(dbg.contains("TransferGp"));
    }
}
