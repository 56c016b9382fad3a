//! Experiment harness for the PPATuner reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §4 for the index); this library holds the
//! shared plumbing: method runners with paper-scale budgets, metric
//! evaluation (hypervolume error, ADRS, tool runs), and plain-text table
//! rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod fleet;
pub mod gate;
pub mod perfrun;

use benchgen::Scenario;
use gp::optimize::FitBudget;
use obs::Observer;
use pareto::hypervolume::{hypervolume_error, reference_point};
use pareto::metrics::adrs;
use pdsim::ObjectiveSpace;
use ppatuner::{PpaTuner, PpaTunerConfig, SourceData, VecOracle};

pub use cli::{BinArgs, Sinks};

/// One method's scores on one objective space: the three columns of
/// Tables 2–3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodScore {
    /// Hypervolume error (Eq. 2) against the golden front.
    pub hv_error: f64,
    /// ADRS (Eq. 3) against the golden front.
    pub adrs: f64,
    /// Tool runs consumed.
    pub runs: usize,
}

/// The five tabulated methods, in the paper's column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// TCAD'19 active-learning GP.
    Tcad19,
    /// MLCAD'19 BO with LCB.
    Mlcad19,
    /// DAC'19 recommender.
    Dac19,
    /// ASPDAC'20 FIST.
    Aspdac20,
    /// PPATuner (this paper).
    PpaTuner,
}

impl Method {
    /// All methods in table order.
    pub const ALL: [Method; 5] = [
        Method::Tcad19,
        Method::Mlcad19,
        Method::Dac19,
        Method::Aspdac20,
        Method::PpaTuner,
    ];

    /// The paper's column label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Tcad19 => "TCAD'19",
            Method::Mlcad19 => "MLCAD'19",
            Method::Dac19 => "DAC'19",
            Method::Aspdac20 => "ASPDAC'20",
            Method::PpaTuner => "PPATuner",
        }
    }
}

/// Per-scenario experiment budgets, mirroring the paper's run counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budgets {
    /// Fixed budget of MLCAD'19 and ASPDAC'20 (400 / 70 in the paper).
    pub fixed: usize,
    /// Budget cap of TCAD'19 (it stops on convergence; ~508 / ~92).
    pub tcad_cap: usize,
    /// Budget of DAC'19 (the hungriest method; ~600 / ~131).
    pub dac_budget: usize,
    /// PPATuner initialization samples (≤ 5 % of the target data).
    pub ppatuner_init: usize,
    /// PPATuner iteration cap.
    pub ppatuner_iters: usize,
}

impl Budgets {
    /// Paper-scale budgets for Scenario One (Target1, 5000 points).
    pub fn scenario_one() -> Self {
        Budgets {
            fixed: 400,
            tcad_cap: 520,
            dac_budget: 600,
            ppatuner_init: 200,
            ppatuner_iters: 60,
        }
    }

    /// Paper-scale budgets for Scenario Two (Target2, 727 points).
    pub fn scenario_two() -> Self {
        Budgets {
            fixed: 70,
            tcad_cap: 95,
            dac_budget: 131,
            ppatuner_init: 36,
            ppatuner_iters: 26,
        }
    }

    /// Scaled-down budgets proportional to a reduced target size (for
    /// smoke tests of the harness itself).
    pub fn scaled(target_points: usize, reference_points: usize, reference: Budgets) -> Self {
        let f = |v: usize| ((v * target_points) / reference_points).max(4);
        Budgets {
            fixed: f(reference.fixed),
            tcad_cap: f(reference.tcad_cap),
            dac_budget: f(reference.dac_budget),
            ppatuner_init: f(reference.ppatuner_init).max(4),
            ppatuner_iters: f(reference.ppatuner_iters).max(4),
        }
    }
}

/// Scores the true QoR values of a predicted Pareto set against the
/// golden front of the target benchmark.
///
/// # Panics
///
/// Panics when the metric computation fails (degenerate golden front) —
/// which would indicate a broken benchmark, not user error.
pub fn score(
    scenario: &Scenario,
    space: ObjectiveSpace,
    pareto_indices: &[usize],
    runs: usize,
) -> MethodScore {
    let table = scenario.target_table(space);
    let golden = scenario.target().golden_front(space);
    let reference = reference_point(&table, 1.1).expect("non-empty target table");
    let predicted: Vec<Vec<f64>> = pareto_indices.iter().map(|&i| table[i].clone()).collect();
    let hv = hypervolume_error(&golden, &predicted, &reference)
        .expect("golden front has positive hypervolume");
    let dist = adrs(&golden, &predicted).expect("metric inputs are valid");
    MethodScore {
        hv_error: hv,
        adrs: dist,
        runs,
    }
}

/// Runs one method on one objective space of a scenario, streaming
/// PPATuner's trace events to `observer` (the baseline methods are not
/// instrumented and run silently).
///
/// # Panics
///
/// Panics when a method errors — budgets and inputs are
/// harness-controlled, so an error is a bug worth crashing on.
pub fn run_method_observed(
    scenario: &Scenario,
    space: ObjectiveSpace,
    method: Method,
    budgets: &Budgets,
    seed: u64,
    observer: &dyn Observer,
) -> MethodScore {
    let candidates = scenario.target_candidates();
    let table = scenario.target_table(space);
    let mut oracle = VecOracle::new(table);
    let (indices, runs) = match method {
        Method::Tcad19 => {
            let params = baselines::Tcad19Params {
                budget: budgets.tcad_cap,
                initial_samples: (budgets.tcad_cap / 3).max(8),
                seed,
                ..Default::default()
            };
            let r = baselines::Tcad19::new(params)
                .tune(&candidates, &mut oracle)
                .expect("tcad19 runs");
            (r.pareto_indices, r.runs)
        }
        Method::Mlcad19 => {
            let params = baselines::Mlcad19Params {
                budget: budgets.fixed,
                initial_samples: (budgets.fixed / 8).max(8),
                screen_size: 512,
                refit_every: 25,
                seed,
                ..Default::default()
            };
            let r = baselines::Mlcad19::new(params)
                .tune(&candidates, &mut oracle)
                .expect("mlcad19 runs");
            (r.pareto_indices, r.runs)
        }
        Method::Dac19 => {
            let params = baselines::Dac19Params {
                budget: budgets.dac_budget,
                initial_samples: (budgets.dac_budget / 6).max(8),
                batch: (budgets.dac_budget / 40).max(2),
                seed,
                ..Default::default()
            };
            let r = baselines::Dac19::new(params)
                .tune(&candidates, &mut oracle)
                .expect("dac19 runs");
            (r.pareto_indices, r.runs)
        }
        Method::Aspdac20 => {
            let (sx, sy) = scenario.source_xy(space);
            let source = SourceData::new(sx, sy).expect("source data is consistent");
            let params = baselines::Aspdac20Params {
                budget: budgets.fixed,
                initial_samples: (budgets.fixed / 5).max(8),
                batch: (budgets.fixed / 30).max(2),
                seed,
                ..Default::default()
            };
            let r = baselines::Aspdac20::new(params)
                .tune(&source, &candidates, &mut oracle)
                .expect("aspdac20 runs");
            (r.pareto_indices, r.runs)
        }
        Method::PpaTuner => {
            let (sx, sy) = scenario.source_xy(space);
            let source = SourceData::new(sx, sy).expect("source data is consistent");
            let config = PpaTunerConfig {
                initial_samples: budgets.ppatuner_init,
                max_iterations: budgets.ppatuner_iters,
                refit_every: 25,
                fit_budget: FitBudget {
                    restarts: 2,
                    evals_per_restart: 80,
                },
                seed,
                ..Default::default()
            };
            let r = PpaTuner::new(config)
                .run_observed(&source, &candidates, &mut oracle, observer)
                .expect("ppatuner runs");
            (r.pareto_indices, r.runs)
        }
    };
    score(scenario, space, &indices, runs)
}

/// Renders a Tables-2/3-shaped comparison as plain text: one row per
/// objective space, HV/ADRS/Runs per method, plus Average and Ratio rows.
pub fn render_table(title: &str, rows: &[(ObjectiveSpace, Vec<MethodScore>)]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<18}", "Multi-objective");
    for m in Method::ALL {
        let _ = write!(out, " | {:^26}", m.label());
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<18}", "");
    for _ in Method::ALL {
        let _ = write!(out, " | {:>8} {:>8} {:>8}", "HV", "ADRS", "Runs");
    }
    let _ = writeln!(out);

    let mut sums = vec![(0.0, 0.0, 0.0); Method::ALL.len()];
    for (space, scores) in rows {
        let _ = write!(out, "{:<18}", space.label());
        for (j, s) in scores.iter().enumerate() {
            let _ = write!(out, " | {:>8.3} {:>8.3} {:>8}", s.hv_error, s.adrs, s.runs);
            sums[j].0 += s.hv_error;
            sums[j].1 += s.adrs;
            sums[j].2 += s.runs as f64;
        }
        let _ = writeln!(out);
    }
    let n = rows.len().max(1) as f64;
    let _ = write!(out, "{:<18}", "Average");
    for (hv, ad, r) in &sums {
        let _ = write!(out, " | {:>8.3} {:>8.3} {:>8.1}", hv / n, ad / n, r / n);
    }
    let _ = writeln!(out);
    // Ratio row: each method relative to PPATuner (last column).
    let base = sums.last().copied().unwrap_or((1.0, 1.0, 1.0));
    let _ = write!(out, "{:<18}", "Ratio");
    for (hv, ad, r) in &sums {
        let _ = write!(
            out,
            " | {:>8.3} {:>8.3} {:>8.3}",
            hv / base.0.max(1e-12),
            ad / base.1.max(1e-12),
            r / base.2.max(1e-12)
        );
    }
    let _ = writeln!(out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_scale_proportionally() {
        let b = Budgets::scaled(500, 5000, Budgets::scenario_one());
        assert_eq!(b.fixed, 40);
        assert_eq!(b.dac_budget, 60);
        assert!(b.ppatuner_init >= 4);
    }

    #[test]
    fn method_labels_match_paper() {
        assert_eq!(Method::Tcad19.label(), "TCAD'19");
        assert_eq!(Method::PpaTuner.label(), "PPATuner");
        assert_eq!(Method::ALL.len(), 5);
    }

    #[test]
    fn render_table_shape() {
        let rows = vec![(
            ObjectiveSpace::AreaDelay,
            vec![
                MethodScore {
                    hv_error: 0.1,
                    adrs: 0.05,
                    runs: 100
                };
                Method::ALL.len()
            ],
        )];
        let txt = render_table("Table X", &rows);
        assert!(txt.contains("Table X"));
        assert!(txt.contains("Area-Delay"));
        assert!(txt.contains("Average"));
        assert!(txt.contains("Ratio"));
        assert!(txt.contains("PPATuner"));
    }

    #[test]
    fn smoke_scenario_two_tiny() {
        // End-to-end harness smoke test at a tiny scale: every method
        // completes and produces finite metrics.
        let scenario = benchgen::Scenario::two_with_counts(3, 80, 60).with_source_budget(40);
        let budgets = Budgets {
            fixed: 12,
            tcad_cap: 14,
            dac_budget: 18,
            ppatuner_init: 8,
            ppatuner_iters: 6,
        };
        for m in Method::ALL {
            let s = run_method_observed(
                &scenario,
                ObjectiveSpace::PowerDelay,
                m,
                &budgets,
                1,
                &obs::NULL_SINK,
            );
            assert!(s.hv_error.is_finite(), "{m:?}");
            assert!(s.adrs.is_finite(), "{m:?}");
            assert!(s.runs > 0, "{m:?}");
        }
    }
}
