//! Typed trace events emitted by the tuner and its collaborators.

use serde::{Deserialize, Serialize};

/// One structured trace event.
///
/// Events serialize to externally-tagged JSON (`{"GpFit": {...}}`), one
/// object per line in a JSONL trace. Every payload is self-describing so a
/// trace can be analyzed without the emitting binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A tuning run began.
    RunStart {
        /// Number of candidate configurations in the search space.
        candidates: usize,
        /// Number of PPA objectives being minimized.
        objectives: usize,
        /// Dimensionality of the configuration space.
        dim: usize,
        /// Size of the maximin initial design.
        initial_samples: usize,
        /// Iteration budget of the refinement loop.
        max_iterations: usize,
        /// RNG seed (reproduces the run exactly).
        seed: u64,
    },

    /// A transfer-GP surrogate was (re)fitted for one objective.
    GpFit {
        /// Refinement iteration (0 = the fit right after the initial design).
        iteration: usize,
        /// Objective index this surrogate models.
        objective: usize,
        /// Whether hyperparameters were re-optimized (`true`) or the model
        /// was warm-refitted with cached hyperparameters (`false`).
        refit: bool,
        /// Fitted ARD lengthscales of the SE kernel.
        lengthscales: Vec<f64>,
        /// Fitted signal variance.
        signal_var: f64,
        /// Observation noise on the target task.
        noise_target: f64,
        /// Transfer correlation factor `λ = 2(1/(1+a))^b − 1`; 0 when no
        /// source data is available.
        lambda: f64,
        /// Multi-start restarts consumed by the hyperparameter search.
        restarts: usize,
        /// Objective evaluations consumed across all restarts.
        evals: usize,
        /// Objective evaluations served from the precomputed distance
        /// cache (no data clone, no raw-point kernel rebuild).
        #[serde(default)]
        cached_evals: usize,
        /// Full model constructions from raw data (the final build after
        /// the search, or 0 for warm incremental refreshes).
        #[serde(default)]
        fresh_evals: usize,
        /// Final log marginal likelihood of the fitted model.
        log_marginal: f64,
        /// Jitter added to the kernel diagonal before Cholesky succeeded
        /// (0 when the factorization succeeded unmodified).
        jitter: f64,
        /// Wall-clock seconds spent fitting.
        duration_s: f64,
    },

    /// The (simulated) physical-design tool evaluated one configuration.
    ToolEval {
        /// Refinement iteration (0 covers the initial design).
        iteration: usize,
        /// Candidate index that was evaluated.
        candidate: usize,
        /// Measured QoR vector (one value per objective).
        qor: Vec<f64>,
        /// Wall-clock seconds spent in the evaluation.
        duration_s: f64,
    },

    /// Per-candidate uncertainty-region state right after a classification
    /// pass. The payload is O(candidates), so the tuner emits it only
    /// towards enabled observers; it is what lets offline invariant
    /// checkers (see `testkit`) verify the region laws of Eqs. 10–13
    /// (regions never grow, drops never resurrect, selection is
    /// max-diameter) without re-running the tuner.
    RegionSnapshot {
        /// Refinement iteration.
        iteration: usize,
        /// One character per candidate: `u` undecided, `p` Pareto,
        /// `d` dropped.
        statuses: String,
        /// Euclidean diameter of every candidate's uncertainty region
        /// (0 once evaluated, infinite while unbounded).
        diameters: Vec<f64>,
    },

    /// δ-dominance classification of the candidate set completed.
    Classify {
        /// Refinement iteration.
        iteration: usize,
        /// Candidates currently classified as Pareto-optimal.
        pareto: usize,
        /// Candidates δ-dominated (dropped from further consideration).
        dropped: usize,
        /// Candidates still undecided (uncertainty regions overlap).
        undecided: usize,
        /// Absolute per-objective δ thresholds used this iteration.
        delta: Vec<f64>,
    },

    /// Candidates were selected for evaluation this iteration.
    Select {
        /// Refinement iteration.
        iteration: usize,
        /// Chosen candidate indices, in selection order.
        chosen: Vec<usize>,
        /// Uncertainty-region diameter of each chosen candidate at
        /// selection time (the selection criterion).
        diameters: Vec<f64>,
    },

    /// A diverse top-q batch was selected for concurrent evaluation
    /// (emitted instead of [`Event::Select`] when the configured batch
    /// size exceeds 1; single-candidate waves keep the classic event so
    /// q = 1 traces are byte-identical to historical ones).
    BatchSelect {
        /// Refinement iteration.
        iteration: usize,
        /// The wave's budget: accepted evaluations the iteration still
        /// wants when this batch was formed (the batch never exceeds it).
        q: usize,
        /// Chosen candidate indices, in greedy pick order.
        chosen: Vec<usize>,
        /// Uncertainty-region diameter of each pick at selection time.
        diameters: Vec<f64>,
        /// Diversity-penalized greedy score `diam·(1 − γ·red)` of each
        /// pick. Non-increasing along the batch; the first pick is
        /// unpenalized, so `scores[0] == diameters[0]`.
        scores: Vec<f64>,
    },

    /// One tool evaluation attempt failed (crash, timeout, or rejected
    /// QoR). The attempt still counts as a tool run; `ToolEval` is
    /// reserved for accepted observations, so in a trace every oracle
    /// call appears as exactly one `ToolEval` or one `EvalFailed`.
    EvalFailed {
        /// Refinement iteration (0 covers the initial design).
        iteration: usize,
        /// Candidate index whose evaluation failed.
        candidate: usize,
        /// Attempt number for this candidate, 1-based.
        attempt: usize,
        /// Failure class (`"crash"`, `"timeout"`, `"invalid_qor"`,
        /// `"out_of_range"`).
        kind: String,
        /// Human-readable failure detail.
        detail: String,
    },

    /// A failed evaluation is being retried after a deterministic backoff.
    EvalRetry {
        /// Refinement iteration.
        iteration: usize,
        /// Candidate index being retried.
        candidate: usize,
        /// The upcoming attempt number, 1-based.
        attempt: usize,
        /// Scheduled backoff before this attempt, in seconds (capped
        /// exponential; advisory — table-backed oracles do not sleep).
        backoff_s: f64,
    },

    /// A candidate exhausted its evaluation failure budget and was
    /// removed from further selection (terminal).
    CandidateQuarantined {
        /// Refinement iteration.
        iteration: usize,
        /// The quarantined candidate.
        candidate: usize,
        /// Total attempts spent before giving up.
        attempts: usize,
    },

    /// The tuner persisted a resumable checkpoint of the full loop state.
    Checkpoint {
        /// Iteration the checkpoint covers (resume continues after it).
        iteration: usize,
        /// Tool runs recorded in the checkpoint's evaluation log.
        runs: usize,
        /// Evaluation-outcome records (successes and failures) logged.
        evals_logged: usize,
    },

    /// One refinement iteration finished.
    IterationEnd {
        /// Refinement iteration.
        iteration: usize,
        /// Cumulative tool evaluations so far.
        runs: usize,
        /// Pareto / dropped / undecided counts after this iteration.
        pareto: usize,
        /// Candidates δ-dominated so far.
        dropped: usize,
        /// Candidates still undecided.
        undecided: usize,
        /// Hypervolume of the evaluated set's current Pareto front, measured
        /// against the observed nadir (monotone as the front improves).
        hypervolume: f64,
        /// Wall-clock seconds for the whole iteration.
        duration_s: f64,
        /// Wall-clock seconds of that spent fitting GPs.
        gp_fit_s: f64,
        /// Wall-clock seconds of that spent predicting uncertainty boxes.
        #[serde(default)]
        predict_s: f64,
    },

    /// The tuning run finished (after the verification pass).
    RunEnd {
        /// Iterations actually executed.
        iterations: usize,
        /// Tool evaluations consumed by the refinement loop.
        runs: usize,
        /// Extra evaluations spent verifying the predicted front.
        verification_runs: usize,
        /// Size of the reported Pareto set.
        pareto: usize,
        /// Total wall-clock seconds.
        duration_s: f64,
    },

    /// A causal span opened. Spans form a tree (`run` → `iteration` →
    /// `gp_fit` / `classify` / `select` / `batch_eval` / `eval_attempt` /
    /// `checkpoint`; at batch sizes above 1 the `eval_attempt` spans of a
    /// wave nest under a `batch_eval` span) whose IDs are sequential per
    /// run, so a trace's span structure is deterministic even though
    /// durations are wall-clock.
    SpanStart {
        /// Span ID, unique and strictly increasing within a run (1-based;
        /// the run span is always ID 1).
        id: u64,
        /// Parent span ID; `None` only for the root `run` span.
        parent: Option<u64>,
        /// Span name (`"run"`, `"iteration"`, `"gp_fit"`, `"classify"`,
        /// `"select"`, `"batch_eval"`, `"eval_attempt"`, `"checkpoint"`).
        name: String,
    },

    /// A causal span closed. Carries the name again so slow-span reports
    /// need no join against the matching [`Event::SpanStart`].
    SpanEnd {
        /// Span ID matching the earlier `SpanStart`.
        id: u64,
        /// Span name, identical to the `SpanStart` name.
        name: String,
        /// Wall-clock seconds between start and end (volatile; zeroed in
        /// golden traces).
        duration_s: f64,
    },

    /// Per-iteration deltas of the hot-path resource counters maintained
    /// by `linalg` and `gp`. Counters are process-global, so the deltas
    /// are exact for a single-run process and approximate when several
    /// runs share the process (volatile in golden traces).
    ResourceSample {
        /// Refinement iteration the deltas cover.
        iteration: usize,
        /// Cholesky floating-point operations (≈ n³/3 per factorization).
        chol_flops: u64,
        /// Blocked-Cholesky panel factorizations.
        chol_panels: u64,
        /// Right-hand sides pushed through triangular solves.
        tri_solve_rhs: u64,
        /// Hyperparameter-search objective evaluations served from the
        /// FitCache (pre-validated inputs, no model rebuild).
        fitcache_hits: u64,
        /// Full model constructions from raw data (cache misses).
        fitcache_misses: u64,
        /// Dense joint-kernel matrix assemblies.
        kernel_assemblies: u64,
        /// Candidate predictions served from a PredictCache entry
        /// (tail-extended solve instead of a from-scratch column).
        /// Absent in pre-cache traces, which parse as zero.
        #[serde(default)]
        predict_cache_hits: u64,
        /// From-scratch candidate predictions during cached sweeps.
        #[serde(default)]
        predict_cache_misses: u64,
        /// PredictCache entries dropped (stale epoch after a refit, or
        /// candidate classified/pruned since its last sweep).
        #[serde(default)]
        predict_cache_evictions: u64,
        /// Chunks dispatched by the data-parallel predict sweep.
        #[serde(default)]
        predict_chunks: u64,
    },

    /// The adaptive candidate pool refined itself: cells whose ε-PAL
    /// uncertainty-region diameter exceeded their Lipschitz-style bound
    /// were bisected, each split appending one new representative
    /// candidate. Emitted once per iteration that performs at least one
    /// split (fixed-pool runs emit none, keeping their traces
    /// byte-identical to historical ones). Invariant checkers use it to
    /// track the lawful growth of per-candidate event payloads.
    PoolRefine {
        /// Refinement iteration the splits happened in.
        iteration: usize,
        /// Leaf cells bisected this iteration (= candidates appended).
        splits: usize,
        /// Leaf count of the cell tree after the splits.
        leaves: usize,
        /// Total candidates in the pool after the splits.
        pool_size: usize,
        /// Effective resolution of the tree: the size of the uniform
        /// grid whose cells match the smallest leaf's volume
        /// (`1 / min leaf volume` in the unit-box metric).
        effective_pool: f64,
    },

    /// Which posterior path served this iteration's uncertainty-box
    /// predictions: the exact Cholesky posterior or the subset-of-data
    /// approximation. Emitted only when a subset-of-data threshold is
    /// configured, so legacy traces are unchanged.
    PredictMode {
        /// Refinement iteration the predictions belong to.
        iteration: usize,
        /// Joint (source + target) training-set size behind the
        /// surrogates at predict time.
        train_size: usize,
        /// Anchor count of the subset-of-data predictor (0 on the exact
        /// path).
        subset_size: usize,
        /// Query points predicted this iteration.
        queries: usize,
        /// `"exact"` or `"subset"`.
        mode: String,
    },

    /// A surrogate calibration failed numerically and the run supervisor
    /// fell back to the last-good model instead of aborting. Emitted only
    /// when a fallback actually happens, so fault-free traces are
    /// byte-identical to historical ones (a degraded objective emits this
    /// *instead of* its [`Event::GpFit`]).
    DegradedFit {
        /// Refinement iteration the calibration belonged to.
        iteration: usize,
        /// Objective whose surrogate degraded.
        objective: usize,
        /// The numerical failure that triggered the fallback (jitter
        /// ladder exhausted, NaN in the hyper-parameter search, ...).
        cause: String,
        /// Recovery mode: `"refit-reused-hypers"` (data-only refit with
        /// the last-good hyper-parameters) or `"frozen"` (the previous
        /// model serves one more iteration unchanged).
        mode: String,
        /// Consecutive degraded iterations including this one (resets on
        /// a fully clean calibration; the configured budget turns
        /// persistence into a typed error).
        consecutive: usize,
    },

    /// Checkpoint recovery scanned back past torn/corrupt entries of a
    /// rotating checkpoint chain to the newest valid one. Emitted only
    /// when at least one entry had to be skipped — a clean resume leaves
    /// its trace unchanged.
    RecoveryScan {
        /// Chain entries examined, newest first.
        scanned: usize,
        /// Entries skipped as torn, unparseable, or digest-mismatched.
        skipped: usize,
        /// `next_iteration` of the checkpoint recovery landed on (`None`
        /// when every entry was skipped and resume started fresh).
        next_iteration: Option<usize>,
    },

    /// The wave watchdog converted a hung evaluation into a deterministic
    /// timeout feeding the ordinary retry/quarantine machinery. Always
    /// followed by the matching [`Event::EvalFailed`] of kind
    /// `"timeout"` for the same attempt.
    WatchdogFired {
        /// Refinement iteration (0 covers the initial design).
        iteration: usize,
        /// Candidate whose evaluation hung.
        candidate: usize,
        /// Attempt number for this candidate, 1-based.
        attempt: usize,
        /// The enforced per-attempt deadline in seconds (the configured
        /// value, not measured wall-clock, so traces stay deterministic).
        deadline_s: f64,
    },

    /// A free-form diagnostic message.
    Message {
        /// Human-readable text.
        text: String,
    },
}

impl Event {
    /// The variant name, as it appears as the JSON tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "RunStart",
            Event::GpFit { .. } => "GpFit",
            Event::ToolEval { .. } => "ToolEval",
            Event::RegionSnapshot { .. } => "RegionSnapshot",
            Event::Classify { .. } => "Classify",
            Event::Select { .. } => "Select",
            Event::BatchSelect { .. } => "BatchSelect",
            Event::EvalFailed { .. } => "EvalFailed",
            Event::EvalRetry { .. } => "EvalRetry",
            Event::CandidateQuarantined { .. } => "CandidateQuarantined",
            Event::Checkpoint { .. } => "Checkpoint",
            Event::IterationEnd { .. } => "IterationEnd",
            Event::RunEnd { .. } => "RunEnd",
            Event::SpanStart { .. } => "SpanStart",
            Event::SpanEnd { .. } => "SpanEnd",
            Event::ResourceSample { .. } => "ResourceSample",
            Event::PoolRefine { .. } => "PoolRefine",
            Event::PredictMode { .. } => "PredictMode",
            Event::DegradedFit { .. } => "DegradedFit",
            Event::RecoveryScan { .. } => "RecoveryScan",
            Event::WatchdogFired { .. } => "WatchdogFired",
            Event::Message { .. } => "Message",
        }
    }

    /// The iteration this event belongs to, when it has one.
    pub fn iteration(&self) -> Option<usize> {
        match self {
            Event::GpFit { iteration, .. }
            | Event::ToolEval { iteration, .. }
            | Event::RegionSnapshot { iteration, .. }
            | Event::Classify { iteration, .. }
            | Event::Select { iteration, .. }
            | Event::BatchSelect { iteration, .. }
            | Event::EvalFailed { iteration, .. }
            | Event::EvalRetry { iteration, .. }
            | Event::CandidateQuarantined { iteration, .. }
            | Event::Checkpoint { iteration, .. }
            | Event::IterationEnd { iteration, .. }
            | Event::ResourceSample { iteration, .. }
            | Event::PoolRefine { iteration, .. }
            | Event::PredictMode { iteration, .. }
            | Event::DegradedFit { iteration, .. }
            | Event::WatchdogFired { iteration, .. } => Some(*iteration),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_matches_json_tag() {
        let e = Event::Classify {
            iteration: 3,
            pareto: 5,
            dropped: 10,
            undecided: 2,
            delta: vec![0.01, 0.02],
        };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.starts_with("{\"Classify\":"), "{json}");
        assert_eq!(e.kind(), "Classify");
        assert_eq!(e.iteration(), Some(3));
    }

    #[test]
    fn failure_events_round_trip_and_carry_iterations() {
        let events = [
            Event::EvalFailed {
                iteration: 2,
                candidate: 7,
                attempt: 1,
                kind: "crash".into(),
                detail: "injected".into(),
            },
            Event::EvalRetry {
                iteration: 2,
                candidate: 7,
                attempt: 2,
                backoff_s: 2.0,
            },
            Event::CandidateQuarantined {
                iteration: 2,
                candidate: 7,
                attempts: 3,
            },
            Event::Checkpoint {
                iteration: 2,
                runs: 14,
                evals_logged: 14,
            },
        ];
        for e in &events {
            let json = serde_json::to_string(e).unwrap();
            assert!(json.starts_with(&format!("{{\"{}\":", e.kind())), "{json}");
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, e);
            assert_eq!(e.iteration(), Some(2));
        }
    }

    #[test]
    fn span_and_resource_events_round_trip() {
        let events = [
            Event::SpanStart {
                id: 1,
                parent: None,
                name: "run".into(),
            },
            Event::SpanStart {
                id: 2,
                parent: Some(1),
                name: "iteration".into(),
            },
            Event::SpanEnd {
                id: 2,
                name: "iteration".into(),
                duration_s: 0.125,
            },
            Event::ResourceSample {
                iteration: 4,
                chol_flops: 1_000,
                chol_panels: 3,
                tri_solve_rhs: 17,
                fitcache_hits: 120,
                fitcache_misses: 2,
                kernel_assemblies: 5,
                predict_cache_hits: 40,
                predict_cache_misses: 8,
                predict_cache_evictions: 3,
                predict_chunks: 12,
            },
        ];
        for e in &events {
            let json = serde_json::to_string(e).unwrap();
            assert!(json.starts_with(&format!("{{\"{}\":", e.kind())), "{json}");
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, e);
        }
        assert_eq!(events[0].iteration(), None);
        assert_eq!(events[3].iteration(), Some(4));
        // The root span's `parent: null` must survive the round trip.
        let root = serde_json::to_string(&events[0]).unwrap();
        assert!(root.contains("\"parent\":null"), "{root}");
    }

    #[test]
    fn pre_cache_resource_samples_parse_with_zero_predict_counters() {
        // Traces written before the predict cache existed lack the four
        // predict counters; `#[serde(default)]` must zero-fill them so
        // old traces keep replaying.
        let old = concat!(
            r#"{"ResourceSample":{"iteration":9,"chol_flops":10,"#,
            r#""chol_panels":1,"tri_solve_rhs":2,"fitcache_hits":3,"#,
            r#""fitcache_misses":4,"kernel_assemblies":5}}"#,
        );
        let back: Event = serde_json::from_str(old).unwrap();
        assert_eq!(
            back,
            Event::ResourceSample {
                iteration: 9,
                chol_flops: 10,
                chol_panels: 1,
                tri_solve_rhs: 2,
                fitcache_hits: 3,
                fitcache_misses: 4,
                kernel_assemblies: 5,
                predict_cache_hits: 0,
                predict_cache_misses: 0,
                predict_cache_evictions: 0,
                predict_chunks: 0,
            }
        );
    }

    #[test]
    fn pool_events_round_trip_and_carry_iterations() {
        let events = [
            Event::PoolRefine {
                iteration: 5,
                splits: 3,
                leaves: 67,
                pool_size: 131,
                effective_pool: 16384.0,
            },
            Event::PredictMode {
                iteration: 5,
                train_size: 412,
                subset_size: 256,
                queries: 97,
                mode: "subset".into(),
            },
        ];
        for e in &events {
            let json = serde_json::to_string(e).unwrap();
            assert!(json.starts_with(&format!("{{\"{}\":", e.kind())), "{json}");
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, e);
            assert_eq!(e.iteration(), Some(5));
        }
    }

    #[test]
    fn resilience_events_round_trip_and_carry_iterations() {
        let events = [
            Event::DegradedFit {
                iteration: 5,
                objective: 1,
                cause: "factorization failed: matrix is not positive definite".into(),
                mode: "refit-reused-hypers".into(),
                consecutive: 2,
            },
            Event::WatchdogFired {
                iteration: 5,
                candidate: 42,
                attempt: 1,
                deadline_s: 0.25,
            },
        ];
        for e in &events {
            let json = serde_json::to_string(e).unwrap();
            assert!(json.starts_with(&format!("{{\"{}\":", e.kind())), "{json}");
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, e);
            assert_eq!(e.iteration(), Some(5));
        }

        // RecoveryScan happens before any iteration exists, so it carries
        // the recovered checkpoint's position instead of an iteration tag.
        let scan = Event::RecoveryScan {
            scanned: 3,
            skipped: 2,
            next_iteration: Some(7),
        };
        assert_eq!(scan.kind(), "RecoveryScan");
        assert_eq!(scan.iteration(), None);
        let json = serde_json::to_string(&scan).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scan);
    }

    #[test]
    fn round_trips_through_json() {
        let e = Event::Select {
            iteration: 1,
            chosen: vec![4, 9],
            diameters: vec![0.5, 0.25],
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn batch_select_round_trips_and_carries_iteration() {
        let e = Event::BatchSelect {
            iteration: 7,
            q: 4,
            chosen: vec![12, 3, 40],
            diameters: vec![0.9, 0.4, 0.6],
            scores: vec![0.9, 0.35, 0.3],
        };
        assert_eq!(e.kind(), "BatchSelect");
        assert_eq!(e.iteration(), Some(7));
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"BatchSelect\""), "{json}");
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
