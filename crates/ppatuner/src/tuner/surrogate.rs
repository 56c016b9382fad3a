//! The surrogate of Algorithm 1: one transfer GP per QoR metric, which the
//! loop core calibrates each iteration (lines 4–6, Eqs. 7–9), then asks
//! for the candidates' `μ ± √τ·σ` boxes and the predicted front's means.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;

use gp::optimize::{fit_transfer_gps, restart_starts, FitJob, FitReport};
use gp::{PredictCache, SubsetPredictor, TaskData, TransferGp};
use obs::{Event, Observer};

use super::{PpaTunerConfig, SourceData};
use crate::supervisor;
use crate::{Result, TunerError};

/// `DegradedFit.mode` when the failed refit was replaced by a data-only
/// refit reusing the last-good hyper-parameters.
const DEGRADED_REFIT_REUSED: &str = "refit-reused-hypers";
/// `DegradedFit.mode` when the last-good model served the iteration
/// unchanged.
const DEGRADED_FROZEN: &str = "frozen";

/// The per-objective models and everything they carry between
/// iterations.
pub(super) struct Surrogate<'a> {
    config: &'a PpaTunerConfig,
    source: &'a SourceData,
    /// Thread budget of the hyper-parameter searches and predict sweeps.
    workers: usize,
    /// Per-objective surrogates, persistent across iterations: full
    /// hyper-parameter refits replace them, warm iterations extend them
    /// in place (`condition_on`) with the observations made since. Empty
    /// until iteration 0's refit. A model's target count is how many
    /// entries of the evaluated set it has seen: a degraded (frozen)
    /// model lags its peers until a later calibration catches it up.
    models: Vec<TransferGp>,
    /// Per-objective predict caches, persistent like the models: warm
    /// iterations only append rows to the joint factor, so each undecided
    /// candidate's forward-substitution prefix survives and the sweep
    /// pays only the new tail. Refits invalidate via the fit epoch.
    /// Results are bit-identical either way.
    predict_caches: Vec<PredictCache>,
    /// The iteration of the last calibration, carried by every event.
    t: usize,
    sweep: Sweep,
    /// Degraded-mode supervisor: calibrations served by a last-good model
    /// in total, and in consecutive iterations (past
    /// `degraded_fit_budget`, the run aborts). Replay re-derives both, so
    /// an injected fault plan must be re-armed on resume; the snapshot
    /// check catches a forgotten one.
    degraded_total: usize,
    degraded_streak: usize,
    last_degraded_cause: String,
}

/// The arm of the current iteration's predict sweep.
enum Sweep {
    /// Calibrated on this many source and target points; the iteration's
    /// first [`Surrogate::boxes`] call picks.
    Pending(usize),
    /// Each objective's transfer GP, through its predict cache.
    Exact,
    /// Each objective's subset-of-data predictor, rebuilt every
    /// iteration, so a prefix cache could never hit.
    Subset(Vec<SubsetPredictor>),
}

impl<'a> Surrogate<'a> {
    /// A surrogate before its first calibration.
    pub(super) fn new(config: &'a PpaTunerConfig, source: &'a SourceData) -> Self {
        Surrogate {
            config,
            source,
            workers: config.fan_out_workers(),
            models: Vec::new(),
            predict_caches: Vec::new(),
            t: 0,
            sweep: Sweep::Exact,
            degraded_total: 0,
            degraded_streak: 0,
            last_degraded_cause: String::new(),
        }
    }

    /// Calibrations served by a last-good model so far.
    pub(super) fn degraded_fits(&self) -> usize {
        self.degraded_total
    }

    /// Model calibration at iteration `t` on the `evaluated` set
    /// (Algorithm 1, lines 4–6): a full hyper-parameter refit every
    /// `refit_every` iterations (iteration 0 included), its restart starts
    /// drawn from `rng`, and a warm `condition_on` extension in between,
    /// each with the degraded-mode fallback. Emits a `GpFit` or
    /// `DegradedFit` per objective and returns the wall-clock seconds.
    pub(super) fn calibrate(
        &mut self,
        t: usize,
        candidates: &[Vec<f64>],
        evaluated: &[(usize, Vec<f64>)],
        rng: &mut StdRng,
        observer: &dyn Observer,
    ) -> Result<f64> {
        let fit_phase = Instant::now();
        self.t = t;
        let degraded_before = self.degraded_total;
        if t.is_multiple_of(self.config.refit_every.max(1)) {
            self.refit(candidates, evaluated, rng, observer)?;
        } else {
            self.condition(candidates, evaluated, observer)?;
        }
        if self.degraded_total > degraded_before {
            self.degraded_streak += 1;
            if self.degraded_streak > self.config.degraded_fit_budget {
                return Err(TunerError::DegradationBudgetExhausted {
                    consecutive: self.degraded_streak,
                    cause: std::mem::take(&mut self.last_degraded_cause),
                });
            }
        } else {
            self.degraded_streak = 0;
        }
        self.sweep = Sweep::Pending(self.source.len() + evaluated.len());
        Ok(fit_phase.elapsed().as_secs_f64())
    }

    /// Replaces every objective's surrogate by a fresh hyper-parameter
    /// fit. An objective whose fit fails recoverably keeps its last-good
    /// model instead: refit on the current data with its hyper-parameters,
    /// or frozen when that fails too.
    fn refit(
        &mut self,
        candidates: &[Vec<f64>],
        evaluated: &[(usize, Vec<f64>)],
        rng: &mut StdRng,
        observer: &dyn Observer,
    ) -> Result<()> {
        let n_obj = evaluated[0].1.len();
        let dim = candidates[0].len();
        // One shared encoded copy of the evaluated configurations; each
        // objective's task view only materializes its own QoR column.
        let target_x: Arc<Vec<Vec<f64>>> = Arc::new(
            evaluated
                .iter()
                .map(|(i, _)| candidates[*i].clone())
                .collect(),
        );
        let target_tasks: Vec<TaskData> = (0..n_obj)
            .map(|k| {
                TaskData::from_shared(
                    Arc::clone(&target_x),
                    evaluated.iter().map(|(_, y)| y[k]).collect(),
                )
            })
            .collect();
        let source_tasks: Vec<TaskData> = (0..n_obj).map(|k| self.source.task_data(k)).collect();
        // Pre-draw every objective's restart starts sequentially
        // (objective order), then fan the independent (objective ×
        // restart) searches out: the RNG stream — and therefore the
        // result — is identical at any worker count.
        let starts: Vec<Vec<Vec<f64>>> = (0..n_obj)
            .map(|_| restart_starts(dim, self.config.fit_budget.restarts, rng))
            .collect();
        // Injected numerical faults (chaos suites) are decided here on the
        // coordinator thread — a pure hash of (iteration, objective) — so
        // the fit workers stay oblivious to the thread-local plan and
        // replay re-derives identical decisions. Faulted objectives are
        // not fitted.
        let injected: Vec<Option<gp::GpError>> = (0..n_obj)
            .map(|k| supervisor::injected_fault(supervisor::FitStage::Refit, self.t, k))
            .collect();
        let jobs: Vec<FitJob<'_>> = (0..n_obj)
            .filter(|&k| injected[k].is_none())
            .map(|k| FitJob {
                source: &source_tasks[k],
                target: &target_tasks[k],
                starts: &starts[k],
            })
            .collect();
        let mut fitted =
            fit_transfer_gps(&jobs, dim, self.config.fit_budget, self.workers).into_iter();
        // The last-good models, none before the bootstrap fit.
        let mut last_good = std::mem::take(&mut self.models).into_iter();
        for (k, fault) in injected.into_iter().enumerate() {
            let out = match fault {
                Some(e) => Err(e),
                None => fitted.next().expect("one fit per unfaulted objective"),
            };
            let model = match (out, last_good.next()) {
                (Ok((model, report)), _) => {
                    self.emit_gp_fit(k, &model, Some(&report), report.duration_s, observer);
                    model
                }
                (Err(e), Some(prev)) if e.is_recoverable() => {
                    let fallback =
                        match supervisor::injected_fault(supervisor::FitStage::Fallback, self.t, k)
                        {
                            Some(fe) => Err(fe),
                            // Last-good hyper-parameters, fresh data.
                            None => TransferGp::fit(
                                source_tasks[k].clone(),
                                target_tasks[k].clone(),
                                prev.config().clone(),
                            ),
                        };
                    let (model, mode) = match fallback {
                        Ok(m) => (m, DEGRADED_REFIT_REUSED),
                        // Frozen: the model keeps its data, so the next
                        // successful calibration catches this objective
                        // up on what it missed.
                        Err(_) => (prev, DEGRADED_FROZEN),
                    };
                    self.degrade(k, &e, mode, observer);
                    model
                }
                // Structural failure, or no last-good model to degrade to
                // (the bootstrap fit): abort.
                (Err(e), _) => return Err(e.into()),
            };
            self.models.push(model);
        }
        Ok(())
    }

    /// Warm iteration: extends each persistent surrogate with the
    /// observations made since its factorization — a rank-k Cholesky
    /// append instead of a from-scratch refit. A numerically rejected
    /// extension freezes that objective's model for this iteration
    /// (`condition_on` leaves it untouched on error), so a later
    /// calibration catches it up.
    fn condition(
        &mut self,
        candidates: &[Vec<f64>],
        evaluated: &[(usize, Vec<f64>)],
        observer: &dyn Observer,
    ) -> Result<()> {
        let mut models = std::mem::take(&mut self.models);
        for (k, model) in models.iter_mut().enumerate() {
            let fit_start = Instant::now();
            let fresh = &evaluated[model.target_len()..];
            let new_x: Vec<Vec<f64>> = fresh.iter().map(|(i, _)| candidates[*i].clone()).collect();
            let new_y: Vec<f64> = fresh.iter().map(|(_, y)| y[k]).collect();
            let outcome =
                match supervisor::injected_fault(supervisor::FitStage::Condition, self.t, k) {
                    Some(e) => Err(e),
                    None => model.condition_on(&new_x, &new_y),
                };
            match outcome {
                Ok(()) => {
                    let duration_s = fit_start.elapsed().as_secs_f64();
                    self.emit_gp_fit(k, model, None, duration_s, observer);
                }
                Err(e) if e.is_recoverable() => {
                    self.degrade(k, &e, DEGRADED_FROZEN, observer);
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.models = models;
        Ok(())
    }

    /// Emits the `GpFit` event of objective `k`'s calibrated model: a
    /// full refit when `report` is given, a warm `condition_on` extension
    /// otherwise.
    fn emit_gp_fit(
        &self,
        k: usize,
        model: &TransferGp,
        report: Option<&FitReport>,
        duration_s: f64,
        observer: &dyn Observer,
    ) {
        if !observer.enabled() {
            return;
        }
        let cfg = model.config();
        observer.emit(&Event::GpFit {
            iteration: self.t,
            objective: k,
            refit: report.is_some(),
            lengthscales: cfg.lengthscales.clone(),
            signal_var: cfg.signal_var,
            noise_target: cfg.noise_target,
            lambda: model.lambda(),
            restarts: report.map_or(0, |r| r.restarts),
            evals: report.map_or(0, |r| r.evals),
            // Every search evaluation runs off the fit cache; only the
            // winning θ is fit from raw data.
            cached_evals: report.map_or(0, |r| r.evals),
            fresh_evals: usize::from(report.is_some()),
            log_marginal: model.log_marginal_likelihood(),
            jitter: model.jitter(),
            duration_s,
        });
    }

    /// Degraded mode: objective `k`'s calibration failed with `cause` and
    /// a last-good model serves the iteration in `mode`. A `DegradedFit`
    /// event replaces the objective's `GpFit`, so clean traces are
    /// untouched.
    fn degrade(&mut self, k: usize, cause: &gp::GpError, mode: &str, observer: &dyn Observer) {
        self.degraded_total += 1;
        self.last_degraded_cause = cause.to_string();
        if observer.enabled() {
            observer.emit(&Event::DegradedFit {
                iteration: self.t,
                objective: k,
                cause: cause.to_string(),
                mode: mode.to_string(),
                consecutive: self.degraded_streak + 1,
            });
        }
    }

    /// Predicts `[μ − √τ·σ, μ + √τ·σ]` boxes for the candidates `ids`,
    /// one objective at a time, through the current sweep's arm: exact
    /// (each objective's transfer GP with its [`PredictCache`], keyed by
    /// the stable candidate indices, so warm sweeps pay only the
    /// conditioning tail per cached candidate) or subset-of-data. The
    /// iteration's first call starts the sweep; later calls (pool
    /// refinement) share it. Returns the boxes' lower and upper corners
    /// as two query-major `ids.len() × m` arrays: query `q`'s corners
    /// over the `m` objectives are entries `[q·m, (q + 1)·m)`.
    ///
    /// The gp layer fans fixed-size query chunks over the workers. Batch
    /// prediction is bit-identical however the queries are chunked or
    /// cached, so the boxes — and everything downstream of them — do not
    /// depend on the worker count or cache state.
    pub(super) fn boxes(
        &mut self,
        candidates: &[Vec<f64>],
        ids: &[usize],
        observer: &dyn Observer,
    ) -> Result<(Vec<f64>, Vec<f64>)> {
        self.begin_sweep(ids.len(), observer)?;
        let scale = self.config.tau.sqrt();
        let queries: Vec<&[f64]> = ids.iter().map(|&i| candidates[i].as_slice()).collect();
        let preds: Vec<Vec<(f64, f64)>> = match &self.sweep {
            Sweep::Subset(preds) => preds
                .iter()
                .map(|p| p.predict_latent_batch(&queries, self.workers))
                .collect::<gp::Result<_>>()?,
            Sweep::Exact | Sweep::Pending(_) => self.predict_cached(ids, &queries)?,
        };
        let len = queries.len() * preds.len();
        let (mut lo, mut hi) = (Vec::with_capacity(len), Vec::with_capacity(len));
        for q in 0..queries.len() {
            for preds_k in &preds {
                let (mu, var) = preds_k[q];
                let sd = var.max(0.0).sqrt();
                lo.push(mu - scale * sd);
                hi.push(mu + scale * sd);
            }
        }
        Ok((lo, hi))
    }

    /// Picks the arm of a pending sweep of `queries` candidates and starts
    /// the sweep. Past `sod_threshold` the run is in the subset-of-data
    /// regime, but a subset of `sod_subset >= train_size` anchors keeps
    /// every point: it is the exact posterior re-factored in maximin
    /// order, so such sweeps go through the exact arm and its caches.
    /// Subset predictors are rebuilt from the freshly calibrated models
    /// each iteration, so they never lag the exact posterior's data.
    fn begin_sweep(&mut self, queries: usize, observer: &dyn Observer) -> Result<()> {
        let Sweep::Pending(train_size) = self.sweep else {
            return Ok(());
        };
        let subset_regime = train_size > self.config.sod_threshold;
        let m = self.config.sod_subset;
        self.sweep = if subset_regime && m < train_size {
            let preds = self.models.iter().map(|model| model.subset_predictor(m));
            Sweep::Subset(preds.collect::<gp::Result<_>>()?)
        } else {
            Sweep::Exact
        };
        // PredictMode is only in the trace when the SoD feature is
        // actually configured — legacy traces stay byte-identical.
        if observer.enabled() && self.config.sod_threshold != usize::MAX {
            let subset_size = match &self.sweep {
                Sweep::Subset(preds) => preds[0].subset_size(),
                _ => train_size,
            };
            observer.emit(&Event::PredictMode {
                iteration: self.t,
                train_size,
                subset_size,
                queries,
                mode: if subset_regime { "subset" } else { "exact" }.into(),
            });
        }
        // One sweep per iteration: entries untouched since the last sweep
        // belong to classified/pruned candidates and are evicted; the
        // active-set and pool-refinement predicts share the new stamp.
        self.predict_caches
            .resize_with(self.models.len(), PredictCache::new);
        for cache in &mut self.predict_caches {
            cache.begin_sweep();
        }
        Ok(())
    }

    /// Each objective's exact `(μ, σ²)` of the `queries` (candidates
    /// `ids`), read through its predict cache. Candidate indices are
    /// stable and dense (pool refinement only appends), so they double as
    /// cache keys across iterations.
    fn predict_cached(
        &mut self,
        ids: &[usize],
        queries: &[&[f64]],
    ) -> Result<Vec<Vec<(f64, f64)>>> {
        let caches = self.models.iter().zip(&mut self.predict_caches);
        caches
            .map(|(m, cache)| m.predict_latent_batch_cached(ids, queries, self.workers, cache))
            .collect::<gp::Result<_>>()
            .map_err(Into::into)
    }

    /// The exact predictive means of the candidates `ids`, one vector per
    /// candidate; none before the first calibration.
    /// The predicted front asks after the loop's last sweep, at the same
    /// models: after an exact sweep each undecided candidate is a cache
    /// hit with no tail to solve, after a truncating subset sweep a miss.
    /// Both give the bits of an uncached prediction.
    pub(super) fn means(
        &mut self,
        candidates: &[Vec<f64>],
        ids: &[usize],
    ) -> Result<Vec<Vec<f64>>> {
        if self.models.is_empty() || ids.is_empty() {
            return Ok(Vec::new());
        }
        let queries: Vec<&[f64]> = ids.iter().map(|&i| candidates[i].as_slice()).collect();
        let preds = self.predict_cached(ids, &queries)?;
        let mus = (0..ids.len()).map(|q| preds.iter().map(|p| p[q].0).collect());
        Ok(mus.collect())
    }
}

#[cfg(test)]
impl Surrogate<'_> {
    /// Each objective's predict-cache size.
    pub(super) fn cache_lens(&self) -> Vec<usize> {
        self.predict_caches.iter().map(PredictCache::len).collect()
    }

    /// Drops every cached candidate, so the next read predicts each one
    /// from scratch.
    pub(super) fn drop_caches(&mut self) {
        self.predict_caches = self.models.iter().map(|_| PredictCache::new()).collect();
    }
}
