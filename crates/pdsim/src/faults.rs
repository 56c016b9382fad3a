//! Deterministic fault injection for the simulated PD flow.
//!
//! Real tool farms fail in mundane ways: license servers drop
//! connections, routers hit wall-clock limits on congested floorplans,
//! and report parsers occasionally emit garbage (unit mix-ups, truncated
//! tables). A robust tuner has to survive all of it, so this module
//! models the failure channel the same way the rest of the crate models
//! QoR — as a *deterministic* function of hashes, never of wall-clock or
//! ambient randomness. The same [`FaultPlan`] replayed against the same
//! `(candidate, attempt)` sequence injects byte-identical faults, which
//! is what makes chaos tests reproducible and failure traces replayable.
//!
//! A [`FaultDecision`] comes in two flavours:
//!
//! - **Flow faults** (`Crash`, `Timeout`): the run produces no QoR at
//!   all. An oracle reports these as errors.
//! - **Corruptions** (`CorruptNan`, `CorruptOutlier`): the run
//!   "succeeds" but the reported QoR is garbage (NaN from a truncated
//!   report, a gross outlier from a unit mix-up). An oracle returns these
//!   as results — detecting them is the *consumer's* job, exactly as with
//!   a real tool.
//!
//! # Example
//!
//! ```
//! use pdsim::{FaultDecision, FaultPlan};
//!
//! let plan = FaultPlan { crash_prob: 0.5, flaky_max_failures: 1, ..FaultPlan::default() };
//! // Deterministic: the same (candidate, attempt) always fails — or
//! // succeeds — the same way, and attempts past the flaky bound succeed.
//! assert_eq!(plan.decide(0, 1), plan.decide(0, 1));
//! assert_eq!(plan.decide(0, 2), FaultDecision::None);
//! ```

use serde::{Deserialize, Serialize};

use crate::design::{hash_to_range, splitmix64};

/// What the plan injects into one `(candidate, attempt)` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// The run proceeds normally.
    None,
    /// The run crashes before producing QoR.
    Crash,
    /// The run times out in the stage with this index (flow order:
    /// synth, place, cts, route, signoff).
    Timeout(usize),
    /// The run succeeds but reports NaN QoR (truncated report).
    CorruptNan,
    /// The run succeeds but reports QoR scaled by
    /// [`FaultPlan::outlier_factor`] (unit mix-up).
    CorruptOutlier,
}

/// A serializable, seeded recipe of which runs fail and how.
///
/// Probabilities are evaluated in order — crash, timeout, NaN, outlier —
/// on a single uniform draw, so their sum must stay ≤ 1. The draw is a
/// pure hash of `(seed, candidate, attempt)`: replaying the plan injects
/// the same faults, and a retry (next attempt) gets an independent draw,
/// which is how flaky-then-succeed behaviour arises naturally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault stream (independent of the flow's QoR jitter).
    pub seed: u64,
    /// Probability a run crashes outright.
    pub crash_prob: f64,
    /// Probability a run times out mid-stage.
    pub timeout_prob: f64,
    /// Probability the reported QoR is NaN.
    pub nan_prob: f64,
    /// Probability the reported QoR is a gross outlier.
    pub outlier_prob: f64,
    /// Multiplier applied to every objective of an outlier run.
    pub outlier_factor: f64,
    /// Upper bound on consecutive injected failures per candidate: from
    /// attempt `flaky_max_failures + 1` on, probabilistic faults are
    /// suppressed and the run succeeds cleanly. `0` disables the bound
    /// (faults can repeat forever). Candidates in
    /// [`FaultPlan::always_fail`] ignore this.
    pub flaky_max_failures: usize,
    /// Candidates that crash on every attempt, no matter what — the
    /// "this configuration hard-hangs the router" case that forces
    /// quarantine.
    pub always_fail: Vec<usize>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            crash_prob: 0.0,
            timeout_prob: 0.0,
            nan_prob: 0.0,
            outlier_prob: 0.0,
            outlier_factor: 1e3,
            flaky_max_failures: 0,
            always_fail: Vec::new(),
        }
    }
}

/// Names of the flow stages a timeout can land in, in flow order.
pub const STAGE_NAMES: [&str; 5] = ["synth", "place", "cts", "route", "signoff"];

impl FaultPlan {
    /// Validates the plan: probabilities in `[0, 1]` summing to at most
    /// 1, and a finite positive outlier factor.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("crash_prob", self.crash_prob),
            ("timeout_prob", self.timeout_prob),
            ("nan_prob", self.nan_prob),
            ("outlier_prob", self.outlier_prob),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        let total: f64 = probs.iter().map(|(_, p)| p).sum();
        if total > 1.0 {
            return Err(format!("fault probabilities sum to {total} > 1"));
        }
        if !self.outlier_factor.is_finite() || self.outlier_factor <= 0.0 {
            return Err(format!(
                "outlier_factor must be finite and positive, got {}",
                self.outlier_factor
            ));
        }
        Ok(())
    }

    /// Total probability that an attempt fails or corrupts its QoR.
    pub fn failure_rate(&self) -> f64 {
        self.crash_prob + self.timeout_prob + self.nan_prob + self.outlier_prob
    }

    /// What happens to attempt number `attempt` (1-based) on `candidate`.
    /// Pure: no state, no RNG — the same arguments always return the same
    /// decision.
    pub fn decide(&self, candidate: usize, attempt: usize) -> FaultDecision {
        if self.always_fail.contains(&candidate) {
            return FaultDecision::Crash;
        }
        if self.flaky_max_failures > 0 && attempt > self.flaky_max_failures {
            return FaultDecision::None;
        }
        let h = splitmix64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((candidate as u64).wrapping_mul(0x2545_f491_4f6c_dd1d))
                .wrapping_add(attempt as u64),
        );
        let u = hash_to_range(h, 0.0, 1.0);
        let mut edge = self.crash_prob;
        if u < edge {
            return FaultDecision::Crash;
        }
        edge += self.timeout_prob;
        if u < edge {
            // Independent sub-draw for the stage the timeout lands in.
            let stage = (splitmix64(h) % STAGE_NAMES.len() as u64) as usize;
            return FaultDecision::Timeout(stage);
        }
        edge += self.nan_prob;
        if u < edge {
            return FaultDecision::CorruptNan;
        }
        edge += self.outlier_prob;
        if u < edge {
            return FaultDecision::CorruptOutlier;
        }
        FaultDecision::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos_plan() -> FaultPlan {
        FaultPlan {
            seed: 11,
            crash_prob: 0.15,
            timeout_prob: 0.1,
            nan_prob: 0.05,
            outlier_prob: 0.05,
            flaky_max_failures: 2,
            always_fail: vec![3],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = chaos_plan();
        for c in 0..50 {
            for a in 1..5 {
                assert_eq!(plan.decide(c, a), plan.decide(c, a));
            }
        }
    }

    #[test]
    fn always_fail_overrides_everything() {
        let plan = chaos_plan();
        for a in 1..20 {
            assert_eq!(plan.decide(3, a), FaultDecision::Crash);
        }
    }

    #[test]
    fn flaky_bound_guarantees_eventual_success() {
        let plan = chaos_plan();
        for c in 0..100 {
            if c == 3 {
                continue;
            }
            assert_eq!(plan.decide(c, 3), FaultDecision::None, "candidate {c}");
        }
    }

    #[test]
    fn injection_rate_tracks_probabilities() {
        let plan = FaultPlan {
            seed: 5,
            crash_prob: 0.2,
            timeout_prob: 0.1,
            ..FaultPlan::default()
        };
        let n = 2000;
        let failed = (0..n)
            .filter(|&c| plan.decide(c, 1) != FaultDecision::None)
            .count();
        let rate = failed as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.05, "observed rate {rate}");
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = chaos_plan();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan {
            crash_prob: 1.5,
            ..FaultPlan::default()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            crash_prob: 0.6,
            timeout_prob: 0.6,
            ..FaultPlan::default()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            outlier_factor: 0.0,
            ..FaultPlan::default()
        }
        .validate()
        .is_err());
        assert!(chaos_plan().validate().is_ok());
    }
}
