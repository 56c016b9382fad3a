//! Causal span tracing: sequential span IDs, monotonic timestamps, and
//! helpers that build [`Event::SpanStart`] / [`Event::SpanEnd`] pairs.
//!
//! The tracer deliberately separates *ID allocation* from *event
//! emission*: IDs are allocated unconditionally along the run structure
//! (a relaxed atomic increment, cheap enough for disabled observers),
//! while events are only constructed when an observer wants them. That
//! split is what keeps checkpoint/resume traces seamless — a resumed run
//! re-allocates the same IDs while replaying its log silently, so the
//! live portion's span IDs continue exactly where the interrupted trace
//! stopped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::Event;

/// An allocated, not-yet-closed span.
#[derive(Debug, Clone)]
pub struct OpenSpan {
    /// Unique sequential ID within the owning [`Tracer`] (1-based).
    pub id: u64,
    /// Parent span ID, `None` for the root.
    pub parent: Option<u64>,
    /// Span name as it appears in both events.
    pub name: &'static str,
    start_s: f64,
}

impl OpenSpan {
    /// The [`Event::SpanStart`] announcing this span.
    pub fn start_event(&self) -> Event {
        Event::SpanStart {
            id: self.id,
            parent: self.parent,
            name: self.name.to_owned(),
        }
    }
}

/// Allocates span IDs and timestamps span lifetimes.
///
/// IDs start at 1 and increase by exactly 1 per [`Tracer::open`] call, so
/// a deterministic run produces a deterministic span tree. Span *structure*
/// (IDs, parents, names, ordering) never depends on the clock; only the
/// volatile `duration_s` payload does, and trace canonicalization zeroes
/// it.
#[derive(Debug)]
pub struct Tracer {
    next: AtomicU64,
    origin: Instant,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            next: AtomicU64::new(1),
            origin: Instant::now(),
        }
    }

    /// Monotonic seconds since this tracer was created.
    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Allocates the next span under `parent` and stamps its start time.
    /// Allocation alone emits nothing — pair with
    /// [`OpenSpan::start_event`] / [`Tracer::end_event`] when an observer
    /// is enabled.
    pub fn open(&self, name: &'static str, parent: Option<&OpenSpan>) -> OpenSpan {
        OpenSpan {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(|p| p.id),
            name,
            start_s: self.now_s(),
        }
    }

    /// The [`Event::SpanEnd`] closing `span`, with its measured duration.
    pub fn end_event(&self, span: &OpenSpan) -> Event {
        Event::SpanEnd {
            id: span.id,
            name: span.name.to_owned(),
            duration_s: (self.now_s() - span.start_s).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential_from_one() {
        let t = Tracer::new();
        let run = t.open("run", None);
        let iter = t.open("iteration", Some(&run));
        let fit = t.open("gp_fit", Some(&iter));
        assert_eq!((run.id, iter.id, fit.id), (1, 2, 3));
        assert_eq!(run.parent, None);
        assert_eq!(iter.parent, Some(1));
        assert_eq!(fit.parent, Some(2));
    }

    #[test]
    fn events_carry_matching_ids_and_names() {
        let t = Tracer::new();
        let run = t.open("run", None);
        assert_eq!(
            run.start_event(),
            Event::SpanStart {
                id: 1,
                parent: None,
                name: "run".into()
            }
        );
        match t.end_event(&run) {
            Event::SpanEnd {
                id,
                name,
                duration_s,
            } => {
                assert_eq!(id, 1);
                assert_eq!(name, "run");
                assert!(duration_s >= 0.0);
            }
            other => panic!("expected SpanEnd, got {other:?}"),
        }
    }

    fn duration(event: Event) -> f64 {
        match event {
            Event::SpanEnd { duration_s, .. } => duration_s,
            other => panic!("expected SpanEnd, got {other:?}"),
        }
    }

    #[test]
    fn a_parent_span_lasts_at_least_as_long_as_its_child() {
        let t = Tracer::new();
        let parent = t.open("run", None);
        let child = t.open("iteration", Some(&parent));
        std::thread::sleep(std::time::Duration::from_millis(1));
        let child_s = duration(t.end_event(&child));
        let parent_s = duration(t.end_event(&parent));
        assert!(child_s >= 0.0);
        assert!(parent_s >= child_s, "parent {parent_s} < child {child_s}");
    }
}
