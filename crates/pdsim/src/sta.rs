//! Gate-level static timing analysis over the structural netlist.
//!
//! The flow model (`stages::sta`) estimates the critical path from
//! aggregate features (depth × mean stage delay) for speed; this module
//! computes the real thing — levelized arrival-time propagation over the
//! generated netlist with per-cell logical-effort delays — and is used to
//! validate that the aggregate model tracks the structural truth.

use crate::library::CellLibrary;
use crate::netlist::Netlist;

/// Result of a gate-level timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Worst register-to-register arrival time, ps (excluding setup).
    pub critical_path_ps: f64,
    /// Arrival time per cell output, ps (0 for flop outputs).
    pub arrival_ps: Vec<f64>,
    /// Index of the cell ending the critical path.
    pub critical_endpoint: Option<usize>,
}

/// Propagates arrival times through the netlist.
///
/// Model: each cell contributes its logical-effort stage delay under the
/// load of its fanout's input pins plus `wire_cap_ff` of estimated wire
/// per sink; flop outputs launch at t = 0 and flop D-pins terminate
/// paths. Combinational loops cannot occur in generated netlists (every
/// feedback goes through a flop).
///
/// # Example
///
/// ```
/// use pdsim::{sta_netlist, CellLibrary, MacConfig};
///
/// let netlist = MacConfig { width: 8, lanes: 1, accum_guard: 4, two_stage_adders: false }
///     .generate();
/// let lib = CellLibrary::sevennm();
/// let report = sta_netlist(&netlist, &lib, 0.4);
/// assert!(report.critical_path_ps > 0.0);
/// ```
pub fn sta_netlist(netlist: &Netlist, lib: &CellLibrary, wire_cap_ff: f64) -> TimingReport {
    let n = netlist.cell_count();
    let mut arrival = vec![f64::NAN; n];
    let mut critical = (None, 0.0f64);
    let fanouts = netlist.fanout_counts();

    // Iterative post-order DFS, mirroring `combinational_depth`.
    for start in 0..n {
        if !arrival[start].is_nan() {
            continue;
        }
        let mut stack = vec![(start, false)];
        while let Some(&(c, expanded)) = stack.last() {
            if !expanded {
                stack.last_mut().expect("nonempty").1 = true;
                if netlist.cells()[c].kind.is_sequential() {
                    arrival[c] = 0.0;
                    stack.pop();
                    continue;
                }
                for d in netlist.driver_cells(c) {
                    if arrival[d].is_nan() && !netlist.cells()[d].kind.is_sequential() {
                        stack.push((d, false));
                    }
                }
            } else {
                let cell = netlist.cells()[c];
                // Load: this cell's fanout input pins + estimated wire.
                let sinks = fanouts[c] as f64;
                let load = sinks * lib.spec(cell.kind).input_cap_ff + sinks * wire_cap_ff;
                let delay = lib.stage_delay_ps(cell.kind, cell.drive, load);
                let mut t_in = 0.0f64;
                for d in netlist.driver_cells(c) {
                    let ta = if netlist.cells()[d].kind.is_sequential() {
                        // Launch: clock-to-q of the upstream flop.
                        lib.spec(crate::library::CellKind::Dff).intrinsic_ps
                    } else {
                        arrival[d]
                    };
                    t_in = t_in.max(ta);
                }
                let t = t_in + delay;
                arrival[c] = t;
                if t > critical.1 {
                    critical = (Some(c), t);
                }
                stack.pop();
            }
        }
    }
    TimingReport {
        critical_path_ps: critical.1,
        arrival_ps: arrival,
        critical_endpoint: critical.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::MacConfig;

    fn small() -> Netlist {
        MacConfig {
            width: 8,
            lanes: 2,
            accum_guard: 4,
            two_stage_adders: false,
        }
        .generate()
    }

    #[test]
    fn critical_path_positive_and_bounded() {
        let nl = small();
        let lib = CellLibrary::sevennm();
        let r = sta_netlist(&nl, &lib, 0.4);
        assert!(r.critical_path_ps > 0.0);
        // Bounded by depth × slowest conceivable stage.
        let bound = nl.combinational_depth() as f64 * 200.0;
        assert!(
            r.critical_path_ps < bound,
            "{} vs {bound}",
            r.critical_path_ps
        );
        assert!(r.critical_endpoint.is_some());
    }

    #[test]
    fn arrival_times_respect_topology() {
        // Every combinational cell arrives strictly later than each of its
        // combinational drivers.
        let nl = small();
        let lib = CellLibrary::sevennm();
        let r = sta_netlist(&nl, &lib, 0.4);
        for c in 0..nl.cell_count() {
            if nl.cells()[c].kind.is_sequential() {
                continue;
            }
            for d in nl.driver_cells(c) {
                if !nl.cells()[d].kind.is_sequential() {
                    assert!(
                        r.arrival_ps[c] > r.arrival_ps[d],
                        "cell {c} at {} not after driver {d} at {}",
                        r.arrival_ps[c],
                        r.arrival_ps[d]
                    );
                }
            }
        }
    }

    #[test]
    fn two_stage_adders_cut_the_critical_path() {
        let lib = CellLibrary::sevennm();
        let ripple = MacConfig {
            width: 16,
            lanes: 1,
            accum_guard: 8,
            two_stage_adders: false,
        }
        .generate();
        let piped = MacConfig {
            width: 16,
            lanes: 1,
            accum_guard: 8,
            two_stage_adders: true,
        }
        .generate();
        let t_ripple = sta_netlist(&ripple, &lib, 0.4).critical_path_ps;
        let t_piped = sta_netlist(&piped, &lib, 0.4).critical_path_ps;
        assert!(
            t_piped < t_ripple,
            "pipelined {t_piped} ps should beat ripple {t_ripple} ps"
        );
    }

    #[test]
    fn structural_sta_tracks_aggregate_model_scale() {
        // The flow model's depth-based estimate and the structural STA
        // must agree within a small factor (they share the library).
        let nl = MacConfig::small().generate();
        let lib = CellLibrary::sevennm();
        let structural = sta_netlist(&nl, &lib, 0.4).critical_path_ps;
        let stats = nl.stats(&lib);
        let aggregate = stats.comb_depth as f64 * 12.0; // ~nominal stage
        let ratio = structural / aggregate;
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }
}
