//! The composed PD flow: synthesis → placement → CTS → routing → STA /
//! power / area, plus deterministic run-to-run jitter.

use serde::{Deserialize, Serialize};

use crate::design::{hash_to_range, splitmix64, Design};
use crate::params::ToolParams;
use crate::qor::Qor;
use crate::stages;

/// A runnable physical-design flow bound to one [`Design`].
///
/// `run` is deterministic: the same design and parameters always produce
/// the same QoR. Run-to-run tool noise is modelled as a small multiplicative
/// jitter seeded by the (design, parameters) fingerprint, so it behaves
/// like a fixed property of each configuration — exactly how the paper's
/// offline benchmark tables treat it. The default amplitude (2.5 %)
/// reflects the placement-seed "layout lottery" of commercial flows, where
/// near-identical configurations routinely differ by a few percent.
///
/// # Example
///
/// ```
/// use pdsim::{Design, PdFlow, ToolParams};
///
/// let flow = PdFlow::new(Design::mac_small(7));
/// let a = flow.run(&ToolParams::default());
/// let b = flow.run(&ToolParams::default());
/// assert_eq!(a, b); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PdFlow {
    design: Design,
    /// Relative amplitude of the deterministic jitter (default 1 %).
    jitter: f64,
}

impl PdFlow {
    /// Binds a flow to a design with the default 2.5 % jitter.
    pub fn new(design: Design) -> Self {
        PdFlow {
            design,
            jitter: 0.025,
        }
    }

    /// Sets the jitter amplitude (0 disables noise).
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is negative or not finite.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!(jitter.is_finite() && jitter >= 0.0, "jitter must be >= 0");
        self.jitter = jitter;
        self
    }

    /// The bound design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Runs the flow for one parameter configuration and reports QoR.
    pub fn run(&self, params: &ToolParams) -> Qor {
        let syn = stages::synthesize(&self.design, params);
        let pl = stages::place(&self.design, params, &syn);
        let ct = stages::cts(&self.design, params, &pl);
        let rt = stages::route(&self.design, params, &pl);
        let delay_ns = stages::sta(&self.design, params, &syn, &pl, &ct, &rt);
        let power_mw = stages::power(&self.design, params, &syn, &ct, &rt);
        let area_um2 = stages::area(&self.design, params, &syn, &rt);

        // Deterministic per-configuration jitter.
        let base = self
            .design
            .seed()
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(params.fingerprint());
        let j = |salt: u64| {
            1.0 + self.jitter * hash_to_range(splitmix64(base.wrapping_add(salt)), -1.0, 1.0)
        };
        Qor {
            area_um2: area_um2 * j(1),
            power_mw: power_mw * j(2),
            delay_ns: delay_ns * j(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{FlowEffort, TimingEffort};

    fn flow() -> PdFlow {
        PdFlow::new(Design::mac_small(42))
    }

    #[test]
    fn run_is_deterministic() {
        let f = flow();
        let p = ToolParams::default();
        assert_eq!(f.run(&p), f.run(&p));
    }

    #[test]
    fn qor_is_valid() {
        let q = flow().run(&ToolParams::default());
        assert!(q.is_valid(), "{q}");
    }

    #[test]
    fn jitter_is_bounded() {
        let noisy = flow();
        let clean = flow().with_jitter(0.0);
        let p = ToolParams::default();
        let qn = noisy.run(&p);
        let qc = clean.run(&p);
        for (n, c) in qn.to_vec().iter().zip(qc.to_vec()) {
            assert!((n / c - 1.0).abs() <= 0.0250001, "n={n} c={c}");
        }
    }

    #[test]
    fn different_configs_get_different_jitter() {
        let f = flow();
        let a = f.run(&ToolParams::default());
        let b = f.run(&ToolParams {
            max_fanout: 33,
            ..Default::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn frequency_trades_delay_for_power() {
        let f = flow().with_jitter(0.0);
        let slow = f.run(&ToolParams {
            freq_mhz: 950.0,
            ..Default::default()
        });
        let fast = f.run(&ToolParams {
            freq_mhz: 1300.0,
            ..Default::default()
        });
        assert!(fast.delay_ns < slow.delay_ns, "fast {fast} vs slow {slow}");
        assert!(fast.power_mw > slow.power_mw);
        assert!(fast.area_um2 > slow.area_um2);
    }

    #[test]
    fn timing_effort_trades_power_for_delay() {
        let f = flow().with_jitter(0.0);
        let med = f.run(&ToolParams {
            timing_effort: TimingEffort::Medium,
            ..Default::default()
        });
        let high = f.run(&ToolParams {
            timing_effort: TimingEffort::High,
            ..Default::default()
        });
        assert!(high.delay_ns < med.delay_ns);
        assert!(high.power_mw > med.power_mw);
    }

    #[test]
    fn extreme_effort_improves_qor_broadly() {
        let f = flow().with_jitter(0.0);
        let std = f.run(&ToolParams {
            flow_effort: FlowEffort::Standard,
            ..Default::default()
        });
        let ext = f.run(&ToolParams {
            flow_effort: FlowEffort::Extreme,
            ..Default::default()
        });
        assert!(ext.delay_ns < std.delay_ns);
        assert!(ext.power_mw < std.power_mw);
        assert!(ext.area_um2 < std.area_um2);
    }

    #[test]
    fn utilization_trades_area_for_delay() {
        let f = flow().with_jitter(0.0);
        let loose = f.run(&ToolParams {
            max_utilization: 0.55,
            ..Default::default()
        });
        let tight = f.run(&ToolParams {
            max_utilization: 0.95,
            ..Default::default()
        });
        assert!(tight.area_um2 < loose.area_um2);
        assert!(
            tight.delay_ns > loose.delay_ns,
            "congestion should slow tight floorplans"
        );
    }

    #[test]
    fn similar_designs_respond_similarly() {
        // The transfer-learning premise: the small and large MAC move in
        // the same direction under the same parameter change.
        let small = PdFlow::new(Design::mac_small(1)).with_jitter(0.0);
        let large = PdFlow::new(Design::mac_large(2)).with_jitter(0.0);
        let base = ToolParams::default();
        let tuned = ToolParams {
            timing_effort: TimingEffort::High,
            ..Default::default()
        };
        let ds = small.run(&tuned).delay_ns - small.run(&base).delay_ns;
        let dl = large.run(&tuned).delay_ns - large.run(&base).delay_ns;
        assert!(ds < 0.0 && dl < 0.0, "both should speed up: {ds} {dl}");
    }

    #[test]
    fn large_design_uses_more_area_and_power() {
        let small = PdFlow::new(Design::mac_small(1)).with_jitter(0.0);
        let large = PdFlow::new(Design::mac_large(1)).with_jitter(0.0);
        let p = ToolParams::default();
        let qs = small.run(&p);
        let ql = large.run(&p);
        assert!(ql.area_um2 > 2.0 * qs.area_um2);
        assert!(ql.power_mw > 1.5 * qs.power_mw);
    }

    #[test]
    #[should_panic(expected = "jitter must be >= 0")]
    fn negative_jitter_rejected() {
        let _ = flow().with_jitter(-0.5);
    }
}
