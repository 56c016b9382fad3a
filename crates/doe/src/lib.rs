//! Typed tool-parameter spaces and design-of-experiments sampling.
//!
//! EDA tool parameters are heterogeneous: continuous knobs
//! (`max_density ∈ [0.65, 0.90]`), integer knobs (`max_fanout ∈ [25, 50]`),
//! enumerated effort levels (`flowEffort ∈ {standard, express, extreme}`),
//! and boolean switches (`uniform_density`). This crate provides:
//!
//! - [`ParamSpace`] / [`ParamDef`] / [`ParamKind`]: a typed description of
//!   a tool's tunable-parameter space (the rows of the paper's Table 1);
//! - [`Config`]: one concrete parameter configuration, with lossless
//!   round-tripping through a unit-cube encoding ([`ParamSpace::encode`] /
//!   [`ParamSpace::decode`]) — the representation surrogate models consume;
//! - [`LatinHypercube`]: the paper's benchmark-construction sampler
//!   (§4.1).
//!
//! # Example
//!
//! ```
//! use doe::{ParamSpace, ParamDef, LatinHypercube};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), doe::DoeError> {
//! let space = ParamSpace::new(vec![
//!     ParamDef::float("max_density", 0.65, 0.90)?,
//!     ParamDef::int("max_fanout", 25, 50)?,
//!     ParamDef::enumeration("flowEffort", &["standard", "express", "extreme"])?,
//!     ParamDef::boolean("uniform_density"),
//! ])?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let configs = LatinHypercube::new().sample(&space, 100, &mut rng);
//! assert_eq!(configs.len(), 100);
//! let z = space.encode(&configs[0])?;
//! assert_eq!(z.len(), space.dim());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
mod config;
mod error;
mod sampler;
mod space;

pub use cells::{CellTree, Split};
pub use config::{Config, ParamValue};
pub use error::DoeError;
pub use sampler::LatinHypercube;
pub use space::{ParamDef, ParamKind, ParamSpace};

/// Convenience alias for results returned by this crate.
pub type Result<T, E = DoeError> = std::result::Result<T, E>;
