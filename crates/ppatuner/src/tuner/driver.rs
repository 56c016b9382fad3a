//! The I/O around the loop core ([`RunState`]): a live [`Driver`] serves
//! every wave from the oracle and saves the checkpoints; a resume first
//! replays the checkpoint's log into a core that emits to the null sink.

use std::collections::VecDeque;
use std::time::Instant;

use obs::{Event, Observer, OpenSpan, NULL_SINK};

use super::{sanitize_qor, status_char, Attempt, MemberOutcome, PpaTunerConfig, RunState};
use super::{SourceData, TuneResult, WaveCtx};
use crate::checkpoint::{digest_matrix, source_digest, Checkpoint, CheckpointStore, EvalOutcome};
use crate::checkpoint::{EvalRecord, StateSnapshot, CHECKPOINT_VERSION};
use crate::oracle::{EvalError, OracleRef};
use crate::{Result, TunerError};

/// Continues the run checkpointed in `store` by replaying its log, or
/// starts a fresh checkpointed run when the store is empty. Scan-back
/// recoveries (chain stores skipping torn/corrupt entries) surface as a
/// `RecoveryScan` event; clean ones emit nothing.
pub(super) fn resume<'a>(
    config: &'a PpaTunerConfig,
    source: &'a SourceData,
    candidates: &[Vec<f64>],
    oracle: OracleRef<'_>,
    observer: &'a dyn Observer,
    store: &'a dyn CheckpointStore,
) -> Result<TuneResult> {
    let recovery = store.recover().map_err(|e| TunerError::Checkpoint {
        reason: e.to_string(),
    })?;
    if recovery.skipped > 0 && observer.enabled() {
        observer.emit(&Event::RecoveryScan {
            scanned: recovery.scanned,
            skipped: recovery.skipped,
            next_iteration: recovery.checkpoint.as_ref().map(|c| c.next_iteration),
        });
    }
    let mut driver = Driver::new(oracle, Some(store), candidates, source);
    let Some(mut checkpoint) = recovery.checkpoint else {
        return driver.drive(RunState::new(config, source, candidates, observer)?);
    };
    let state = RunState::new(config, source, candidates, &NULL_SINK)?;
    checkpoint
        .validate(config, candidates, source)
        .map_err(|reason| TunerError::Checkpoint { reason })?;
    let log = VecDeque::from(std::mem::take(&mut checkpoint.eval_log));
    driver.logged_runs = log.len();
    driver.replay = Some(Replay {
        log,
        checkpoint,
        observer,
    });
    driver.drive(state)
}

/// Where a run's attempts come from and where its checkpoints go.
pub(super) struct Driver<'a, 'o> {
    /// Its own lifetime: an `OracleRef` is invariant in it.
    oracle: OracleRef<'o>,
    /// The checkpoint store and the digests of the caller's candidates
    /// and source data, which stay the run's identity however the pool
    /// grows.
    store: Option<(&'a dyn CheckpointStore, u64, u64)>,
    /// Attempts in the resumed checkpoint's log; those replayed so far
    /// count as tool runs.
    logged_runs: usize,
    /// The checkpoint being replayed, until its log drains.
    replay: Option<Replay<'a>>,
}

/// A checkpoint under replay: the attempts its log still holds, and the
/// caller's observer, handed to the core when the run goes live.
struct Replay<'a> {
    log: VecDeque<EvalRecord>,
    checkpoint: Checkpoint,
    observer: &'a dyn Observer,
}

impl<'a, 'o> Driver<'a, 'o> {
    /// A live driver over `oracle`, checkpointing to `store` when given.
    pub(super) fn new(
        oracle: OracleRef<'o>,
        store: Option<&'a dyn CheckpointStore>,
        candidates: &[Vec<f64>],
        source: &SourceData,
    ) -> Self {
        Driver {
            oracle,
            store: store.map(|s| (s, digest_matrix(candidates), source_digest(source))),
            logged_runs: 0,
            replay: None,
        }
    }

    /// Algorithm 1's phases over `state`, in order.
    pub(super) fn drive(mut self, mut state: RunState<'a>) -> Result<TuneResult> {
        // The run's start is boundary 0, where a log without attempts drains.
        self.boundary(&mut state, None)?;
        state.initialize(&mut self)?;
        state.run_loop(&mut self)?;
        if let Some(replay) = &self.replay {
            return Err(replay.divergence(format!(
                "the loop ended at iteration {} with {} logged attempts left",
                state.iterations,
                replay.log.len()
            )));
        }
        state.verify_front(&mut self)
    }

    /// Total tool runs: replayed attempts plus the oracle's counter.
    /// Matches the original run's `oracle.runs()` when resume was handed
    /// a fresh oracle.
    pub(super) fn runs(&self) -> usize {
        let unreplayed = self.replay.as_ref().map_or(0, |r| r.log.len());
        self.logged_runs - unreplayed + self.oracle.runs()
    }

    /// Every member's attempts of one wave, in batch order: read back from
    /// the log while replaying (checkpoints land at iteration — hence
    /// whole-wave — boundaries, so a log that ends inside a wave is
    /// damaged or foreign and refused), else from the oracle — all members
    /// at once through a concurrent one ([`gp::fan_out`] with one worker
    /// per member, the calling thread among them; completion order is
    /// irrelevant because workers only *evaluate*), one after another
    /// through a serial one.
    pub(super) fn attempts(
        &mut self,
        members: &[usize],
        ctx: &WaveCtx<'_>,
        iteration: usize,
    ) -> Result<Vec<MemberOutcome>> {
        if let Some(replay) = &mut self.replay {
            let mut eval = |i: usize| replay.next(i, iteration);
            return members
                .iter()
                .map(|&m| member_attempts(&mut eval, m, ctx))
                .collect();
        }
        match &mut self.oracle {
            OracleRef::Concurrent(oracle) => {
                let oracle = *oracle;
                let eval = |i: usize| Ok(oracle.evaluate_at(i, &ctx.candidates[i]));
                let member = |pos: usize| member_attempts(eval, members[pos], ctx);
                gp::fan_out(members.len(), members.len(), member)
                    .into_iter()
                    .collect()
            }
            OracleRef::Serial(oracle) => {
                let mut eval = |i: usize| Ok(oracle.evaluate_at(i, &ctx.candidates[i]));
                members
                    .iter()
                    .map(|&m| member_attempts(&mut eval, m, ctx))
                    .collect()
            }
        }
    }

    /// The hook at iteration boundary `state.iterations`: the run's start,
    /// and the end of every iteration. `iter_span` is the ending
    /// iteration's span when it logged an attempt: in a checkpointed run
    /// that makes the boundary a checkpoint boundary, whose span ID is
    /// allocated whether the iteration was replayed or live, so resumed
    /// runs re-derive the same span IDs. A live run saves its checkpoint
    /// there (resume replays the log, so the log must drain exactly at a
    /// checkpointed boundary). A replay whose log has drained compares the
    /// state it re-derived with the checkpoint's snapshot — any divergence
    /// means the checkpoint does not belong to this run (or determinism
    /// broke), and live evaluation must not proceed — and goes live.
    pub(super) fn boundary(
        &mut self,
        state: &mut RunState<'a>,
        iter_span: Option<&OpenSpan>,
    ) -> Result<()> {
        if let (Some(parent), Some((store, candidates_digest, source_digest))) =
            (iter_span, self.store)
        {
            let span = state.tracer.open("checkpoint", Some(parent));
            if self.replay.is_none() {
                let runs = self.runs();
                let checkpoint = Checkpoint {
                    version: CHECKPOINT_VERSION,
                    next_iteration: state.iterations,
                    config: state.config.clone(),
                    candidates_digest,
                    source_digest,
                    eval_log: state.log.clone(),
                    snapshot: snapshot(state, runs),
                };
                store
                    .save(&checkpoint)
                    .map_err(|e| TunerError::Checkpoint {
                        reason: e.to_string(),
                    })?;
                if state.tracing() {
                    state.observer.emit(&span.start_event());
                    state.observer.emit(&Event::Checkpoint {
                        iteration: state.iterations - 1,
                        runs,
                        evals_logged: state.log.len(),
                    });
                    state.observer.emit(&state.tracer.end_event(&span));
                }
            }
        }
        let Some(replay) = self.replay.take_if(|r| r.log.is_empty()) else {
            return Ok(());
        };
        let (t, next_iteration) = (state.iterations, replay.checkpoint.next_iteration);
        let (got, expected) = (snapshot(state, self.runs()), &replay.checkpoint.snapshot);
        let reason = if t != next_iteration {
            format!("replay drained at iteration {t}, checkpoint expected {next_iteration}")
        } else if got.statuses != expected.statuses {
            "candidate statuses diverged from the checkpoint snapshot".into()
        } else if got.evaluated != expected.evaluated {
            format!(
                "replay produced {} observations, checkpoint recorded {}",
                got.evaluated, expected.evaluated
            )
        } else if got.runs != expected.runs {
            format!(
                "replay produced {} tool runs, checkpoint recorded {} \
                 (was the oracle fresh?)",
                got.runs, expected.runs
            )
        } else if got.rng_state != expected.rng_state {
            "RNG state diverged from the checkpoint snapshot".into()
        } else if got.delta != expected.delta {
            "δ thresholds diverged from the checkpoint snapshot".into()
        } else if got.degraded_fits != expected.degraded_fits {
            format!(
                "replay produced {} degraded fits, checkpoint recorded {} \
                 (was the fit-fault plan re-armed?)",
                got.degraded_fits, expected.degraded_fits
            )
        } else if got.regions_digest != expected.regions_digest {
            format!(
                "uncertainty regions diverged from the checkpoint snapshot \
                 (digest {:#x} != {:#x})",
                got.regions_digest, expected.regions_digest
            )
        } else {
            state.observer = replay.observer;
            return Ok(());
        };
        Err(TunerError::Checkpoint { reason })
    }
}

impl Replay<'_> {
    /// The next logged attempt, which must be for `candidate`.
    fn next(&mut self, candidate: usize, iteration: usize) -> Result<Attempt> {
        let Some(rec) = self.log.pop_front() else {
            let detail = format!("the log ends inside a wave of iteration {iteration}");
            return Err(self.divergence(detail));
        };
        if rec.candidate != candidate {
            return Err(self.divergence(format!(
                "log holds candidate {}, the run requested {candidate}",
                rec.candidate
            )));
        }
        Ok(match rec.outcome {
            EvalOutcome::Accepted { qor } => Ok(qor),
            EvalOutcome::Failed { error } => Err(error),
        })
    }

    /// A replay that diverges before the drain boundary surfaces as a bare
    /// candidate mismatch, even when the real culprit is a forgotten fault
    /// plan: clean refits produce different models, which select different
    /// candidates. When the checkpoint recorded degraded fits, say so — the
    /// operator needs to re-arm the plan, not debug the selection.
    fn divergence(&self, detail: String) -> TunerError {
        let mut reason = format!("replay divergence: {detail}");
        let degraded = self.checkpoint.snapshot.degraded_fits;
        if degraded > 0 {
            reason += &format!(
                "; the checkpoint records {degraded} degraded fits, \
                 which replay re-derives only when the original fault plan is re-armed"
            );
        }
        TunerError::Checkpoint { reason }
    }
}

/// The one retry loop: runs `candidate`'s attempts through `eval` —
/// sanitizes accepted QoR, retries transient failures up to the budget,
/// stops on acceptance. An `eval` error (a diverging replay) aborts the
/// wave, and so does a non-transient failure: a caller bug (out-of-range
/// index), which is not logged as an attempt.
fn member_attempts(
    mut eval: impl FnMut(usize) -> Result<Attempt>,
    candidate: usize,
    ctx: &WaveCtx<'_>,
) -> Result<MemberOutcome> {
    let mut attempts = Vec::with_capacity(1);
    for _ in 0..ctx.max_attempts {
        let start = Instant::now();
        let gate = ctx.gate.map(|(regions, span)| (&regions[candidate], span));
        let outcome = match eval(candidate)? {
            Ok(y) => match sanitize_qor(&y, ctx.n_obj, gate) {
                Ok(()) => Ok(y),
                Err(detail) => Err(EvalError::InvalidQor { detail }),
            },
            Err(e) if !e.is_transient() => return Err(TunerError::Evaluation(e)),
            Err(e) => Err(e),
        };
        let accepted = outcome.is_ok();
        attempts.push((outcome, start.elapsed().as_secs_f64()));
        if accepted {
            break;
        }
    }
    Ok(attempts)
}

/// The loop state a checkpoint stores, and what resume verifies.
fn snapshot(state: &RunState<'_>, runs: usize) -> StateSnapshot {
    StateSnapshot {
        statuses: state.statuses.iter().map(status_char).collect(),
        evaluated: state.evaluated.len(),
        runs,
        rng_state: state.rng.state().to_vec(),
        delta: state.delta.clone(),
        regions_digest: digest_matrix(
            state
                .regions
                .iter()
                .flat_map(|r| [r.optimistic(), r.pessimistic()]),
        ),
        degraded_fits: state.surrogate.degraded_fits(),
    }
}
