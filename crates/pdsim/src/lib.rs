//! A deterministic physical-design (PD) flow simulator.
//!
//! The PPATuner paper evaluates against Cadence Innovus — a closed
//! commercial tool whose single run takes hours to days. This crate is the
//! substitution (see `DESIGN.md` §2): a physically-motivated model of a
//! modern PD flow whose observable behaviour — the mapping from tool
//! parameters to post-layout **area / power / delay** — has the structure
//! an auto-tuner actually faces:
//!
//! - monotone effort/QoR trade-offs with diminishing returns,
//! - DRV constraints (`max_transition`, `max_capacitance`, `max_fanout`,
//!   `max_Length`) that trade buffer area/power against wire delay,
//! - density/congestion coupling (tight floorplans route worse),
//! - frequency-pressure-driven sizing (speed costs power and area),
//! - design-dependent response coefficients, so *similar designs respond
//!   similarly but not identically* — the transfer-learning premise.
//!
//! The pipeline mirrors a real flow:
//!
//! ```text
//! Netlist (generated MAC design)
//!   └─ synthesis sizing  → placement → CTS → routing/DRV fixing
//!        └─ STA (delay) + power + area roll-ups  →  QoR
//! ```
//!
//! Everything is deterministic given the design and the parameter
//! configuration (tool noise is modelled as hash-seeded jitter), so golden
//! Pareto fronts are exactly reproducible.
//!
//! # Example
//!
//! ```
//! use pdsim::{Design, PdFlow, ToolParams};
//!
//! let design = Design::mac_small(42);
//! let flow = PdFlow::new(design);
//! let qor = flow.run(&ToolParams::default());
//! assert!(qor.delay_ns > 0.0 && qor.power_mw > 0.0 && qor.area_um2 > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod design;
pub mod faults;
pub mod flow;
pub mod library;
pub mod netlist;
pub mod params;
pub mod qor;
pub mod sta;
pub mod stages;

pub use design::Design;
pub use faults::{FaultDecision, FaultPlan};
pub use flow::PdFlow;
pub use library::{CellKind, CellLibrary, Drive};
pub use netlist::{MacConfig, Netlist, NetlistStats};
pub use params::{CongEffort, FlowEffort, TimingEffort, ToolParams};
pub use qor::{Objective, ObjectiveSpace, Qor};
pub use sta::{sta_netlist, TimingReport};
