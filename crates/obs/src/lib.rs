//! Lightweight observability for the PPATuner reproduction.
//!
//! The workspace deliberately keeps dependencies minimal (the registry is
//! often offline), so this crate implements its own small telemetry stack
//! instead of pulling in the `tracing` ecosystem. Three layers:
//!
//! 1. **Events** ([`Event`]): a typed model of what the tuner does —
//!    GP fits (kernel hyperparameters, transfer correlation `λ`, Cholesky
//!    jitter retries), tool evaluations, δ-dominance classification counts,
//!    candidate selection, and per-iteration summaries with incremental
//!    hypervolume.
//! 2. **Sinks** ([`Observer`] implementations): a JSONL file sink for
//!    machine-readable traces, a human-readable stderr sink with verbosity
//!    levels, an in-memory recording sink for tests, and a null sink whose
//!    `enabled() == false` lets instrumented code skip event construction
//!    entirely (zero overhead by default).
//! 3. **Causal spans** ([`Tracer`], [`OpenSpan`]): sequential span IDs
//!    forming a run → iteration → phase tree, emitted as
//!    [`Event::SpanStart`] / [`Event::SpanEnd`] pairs. Golden traces stay
//!    deterministic because only the `duration_s` payload reads the
//!    clock, and trace canonicalization zeroes it.
//!
//! ```no_run
//! use obs::{Event, JsonlSink, Observer};
//!
//! let sink = JsonlSink::create("trace.jsonl").unwrap();
//! sink.emit(&Event::RunStart { candidates: 100, objectives: 2, dim: 4,
//!                              initial_samples: 10, max_iterations: 40, seed: 7 });
//! sink.flush();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod sink;
mod tracer;

pub use event::Event;
pub use sink::{
    JsonlSink, MultiSink, NullSink, Observer, RecordingSink, StderrSink, Verbosity, NULL_SINK,
};
pub use tracer::{OpenSpan, Tracer};
