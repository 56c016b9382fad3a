//! Deterministic fault injection for surrogate calibration.
//!
//! The degraded-mode run supervisor (the tuner's `Surrogate`) only
//! exists because real Gaussian-process calibrations blow up: the jitter
//! ladder runs out on an ill-conditioned joint kernel, or the
//! hyper-parameter search walks into a NaN. Those failures are rare and
//! data-dependent, so exercising the recovery paths needs *injected*
//! faults — and, because every recovery must be golden-trace pinned and
//! survive checkpoint/resume, the injection must be a pure function of
//! run position, never of wall clock or call count.
//!
//! A [`FitFaultPlan`] is exactly that: a serializable seeded plan whose
//! decisions hash `(seed, stage, iteration, objective)`. Installing it
//! via [`inject_fit_faults`] arms the *current thread*; the tuner decides
//! every fault on its coordinator thread before fanning fits out to
//! scoped workers, so worker threads stay oblivious and parallel test
//! runs cannot contaminate each other. Replaying a checkpoint re-runs
//! fits live, so a resume must re-install the same plan — the
//! `degraded_fits` counter carried in the
//! [`StateSnapshot`](crate::StateSnapshot) catches a forgotten plan
//! before the resumed run goes live.
//!
//! Iteration 0 is exempt by construction: the bootstrap fit has no
//! last-good surrogate to degrade to, so a fault there aborts the run
//! exactly as a real bootstrap failure would.

use std::cell::RefCell;

use gp::GpError;
use serde::{Deserialize, Serialize};

/// Hyper-parameter name carried by injected calibration faults, so traces
/// and error messages identify them as synthetic. The injected value is
/// NaN, which [`GpError::is_recoverable`] classifies exactly like a real
/// diverged hyper-parameter search.
pub const INJECTED_FAULT_NAME: &str = "injected_fit_fault";

/// A serializable, seeded plan of surrogate-calibration faults.
///
/// Every decision is a pure hash of `(seed, stage, iteration, objective)`
/// — independent of worker count, call order, and wall clock — so a run
/// under a plan is exactly reproducible, checkpoint/resume included.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FitFaultPlan {
    /// Seed decorrelating this plan's decisions from the tuner's RNG.
    pub seed: u64,
    /// Probability that a scheduled full refit fails numerically.
    #[serde(default)]
    pub refit_fail: f64,
    /// Probability that the data-only fallback refit (last-good
    /// hyper-parameters) *also* fails, forcing the frozen mode.
    #[serde(default)]
    pub fallback_fail: f64,
    /// Probability that a warm-path incremental `condition_on` fails.
    #[serde(default)]
    pub condition_fail: f64,
}

/// Domain separators: decisions for different stages at the same
/// `(iteration, objective)` are independent.
const DOMAIN_REFIT: u64 = 0x0052_4546_4954;
const DOMAIN_FALLBACK: u64 = 0x4641_4c4c_4241_434b;
const DOMAIN_CONDITION: u64 = 0x0000_434f_4e44;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FitFaultPlan {
    /// Checks every probability is finite and within `[0, 1]`.
    ///
    /// # Errors
    ///
    /// A description naming the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("refit_fail", self.refit_fail),
            ("fallback_fail", self.fallback_fail),
            ("condition_fail", self.condition_fail),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        Ok(())
    }

    /// One uniform draw in `[0, 1)` for `(seed, domain, iteration,
    /// objective)`.
    fn roll(&self, domain: u64, iteration: usize, objective: usize) -> f64 {
        let mut h = splitmix64(self.seed ^ domain);
        h = splitmix64(h.wrapping_add(iteration as u64));
        h = splitmix64(h ^ ((objective as u64) << 32));
        ((h >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// Whether the scheduled full refit at `(iteration, objective)` is
    /// made to fail. Never fires at iteration 0 (no last-good surrogate
    /// exists yet; see the module docs).
    pub fn fails_refit(&self, iteration: usize, objective: usize) -> bool {
        iteration > 0 && self.roll(DOMAIN_REFIT, iteration, objective) < self.refit_fail
    }

    /// Whether the data-only fallback refit at `(iteration, objective)`
    /// is made to fail too, forcing the frozen recovery mode.
    pub fn fails_fallback(&self, iteration: usize, objective: usize) -> bool {
        iteration > 0 && self.roll(DOMAIN_FALLBACK, iteration, objective) < self.fallback_fail
    }

    /// Whether the warm-path `condition_on` at `(iteration, objective)`
    /// is made to fail.
    pub fn fails_condition(&self, iteration: usize, objective: usize) -> bool {
        iteration > 0 && self.roll(DOMAIN_CONDITION, iteration, objective) < self.condition_fail
    }
}

thread_local! {
    static ACTIVE_PLAN: RefCell<Option<FitFaultPlan>> = const { RefCell::new(None) };
}

/// Uninstalls the plan armed by [`inject_fit_faults`] when dropped.
#[derive(Debug)]
pub struct FitFaultGuard {
    _priv: (),
}

impl Drop for FitFaultGuard {
    fn drop(&mut self) {
        ACTIVE_PLAN.with(|slot| *slot.borrow_mut() = None);
    }
}

/// Arms `plan` for tuner runs on the **current thread** and returns an
/// RAII guard that disarms it. Thread-local (rather than process-global)
/// scoping keeps concurrently running tests and benches from
/// contaminating each other; the tuner's coordinator thread is the one
/// that must hold the guard, since all fault decisions are taken there.
#[must_use = "the plan is disarmed as soon as the guard drops"]
pub fn inject_fit_faults(plan: FitFaultPlan) -> FitFaultGuard {
    ACTIVE_PLAN.with(|slot| *slot.borrow_mut() = Some(plan));
    FitFaultGuard { _priv: () }
}

/// Calibration stages the plan can fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FitStage {
    /// The scheduled full refit (hyper-parameter search included).
    Refit,
    /// The data-only fallback refit with last-good hyper-parameters.
    Fallback,
    /// The warm-path incremental extension.
    Condition,
}

/// The fault the armed plan injects at this site, if any. Must be called
/// on the thread that holds the [`FitFaultGuard`] (the tuner's
/// coordinator thread).
pub(crate) fn injected_fault(
    stage: FitStage,
    iteration: usize,
    objective: usize,
) -> Option<GpError> {
    ACTIVE_PLAN.with(|slot| {
        let plan = slot.borrow();
        let plan = plan.as_ref()?;
        let fires = match stage {
            FitStage::Refit => plan.fails_refit(iteration, objective),
            FitStage::Fallback => plan.fails_fallback(iteration, objective),
            FitStage::Condition => plan.fails_condition(iteration, objective),
        };
        fires.then_some(GpError::InvalidHyperparameter {
            name: INJECTED_FAULT_NAME,
            value: f64::NAN,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(p: f64) -> FitFaultPlan {
        FitFaultPlan {
            seed: 77,
            refit_fail: p,
            fallback_fail: p,
            condition_fail: p,
        }
    }

    #[test]
    fn decisions_are_pure_and_seeded() {
        let a = plan(0.25);
        let b = plan(0.25);
        for t in 0..64 {
            for k in 0..3 {
                assert_eq!(a.fails_refit(t, k), b.fails_refit(t, k));
                assert_eq!(a.fails_fallback(t, k), b.fails_fallback(t, k));
                assert_eq!(a.fails_condition(t, k), b.fails_condition(t, k));
            }
        }
        // A different seed decorrelates the decision stream.
        let c = FitFaultPlan { seed: 78, ..a };
        let differs = (1..256).any(|t| a.fails_refit(t, 0) != c.fails_refit(t, 0));
        assert!(differs);
    }

    #[test]
    fn probability_extremes_and_bootstrap_exemption() {
        let never = plan(0.0);
        let always = plan(1.0);
        for t in 0..32 {
            assert!(!never.fails_refit(t, 0));
            assert!(!never.fails_condition(t, 1));
        }
        for t in 1..32 {
            assert!(always.fails_refit(t, 0));
            assert!(always.fails_fallback(t, 1));
            assert!(always.fails_condition(t, 2));
        }
        // Iteration 0 has no last-good surrogate, so nothing fires there
        // even at probability 1.
        assert!(!always.fails_refit(0, 0));
        assert!(!always.fails_fallback(0, 0));
        assert!(!always.fails_condition(0, 0));
    }

    #[test]
    fn validates_probabilities_and_round_trips() {
        assert!(plan(0.5).validate().is_ok());
        assert!(plan(1.5).validate().is_err());
        assert!(plan(-0.1).validate().is_err());
        assert!(plan(f64::NAN).validate().is_err());

        let p = FitFaultPlan {
            seed: 9,
            refit_fail: 0.25,
            fallback_fail: 0.1,
            condition_fail: 0.05,
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: FitFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        // Omitted probabilities default to 0 (never fire).
        let sparse: FitFaultPlan = serde_json::from_str(r#"{"seed": 3}"#).unwrap();
        assert_eq!(sparse.seed, 3);
        assert_eq!(sparse.refit_fail, 0.0);
    }

    #[test]
    fn guard_arms_and_disarms_the_thread() {
        assert!(injected_fault(FitStage::Refit, 5, 0).is_none());
        {
            let _guard = inject_fit_faults(plan(1.0));
            let fault = injected_fault(FitStage::Refit, 5, 0).unwrap();
            assert!(fault.is_recoverable());
            assert!(fault.to_string().contains(INJECTED_FAULT_NAME));
            // Bootstrap exemption holds through the injection path too.
            assert!(injected_fault(FitStage::Refit, 0, 0).is_none());
        }
        assert!(injected_fault(FitStage::Refit, 5, 0).is_none());
    }
}
