//! The wire-request-id / trace-context seam: a thread-local correlation
//! context the network front door stamps before handing a request to the
//! serving tier.
//!
//! The gate listener assigns (or accepts from the client) one id per wire
//! frame. Everything privacy-relevant in the request pipeline — admission,
//! canonicalization, the budget reserve/refusal decision — runs on the
//! submitting thread, so a thread-local set around the submit call is
//! enough for the id to reach both observability surfaces without
//! threading a parameter through every service/router signature:
//!
//! * [`crate::TraceBuilder::start`] uses the ambient context (when
//!   non-zero) as the span's `trace_id` and `parent_span_id`, so the trace
//!   ring's span ids *are* the wire request ids for front-door traffic and
//!   child spans link back to the span that spawned them;
//! * the service's budget reserve captures the request id into every
//!   [`crate::Settlement`] it emits, so a refusal or refund observed on the
//!   wire can be found in the audit trail by the id the client saw.
//!
//! An all-zero context means "no wire request" — internal traffic keeps
//! its process-unique monotone trace ids and records `request_id: 0`
//! (omitted from the JSONL rendering).
//!
//! # Crossing threads
//!
//! The context is thread-local, so it does **not** follow a request across
//! a thread spawn on its own. The two places a request legitimately
//! changes threads handle it differently:
//!
//! * the **coalescer submit→drain seam** needs nothing — the
//!   [`crate::TraceBuilder`] (which captured the context at submit) rides
//!   inside the parked work struct, and the drain side only ever *ends*
//!   stages on it;
//! * the **router fan-out** captures [`current_trace_context`] before
//!   spawning its scoped workers and re-enters it with a
//!   [`TraceContextScope`] inside each worker closure, so every shard
//!   span carries the wire trace id and links to the fan-out span as its
//!   parent.
//!
//! Use the RAII scopes rather than the raw set/clear pair: the guard
//! restores the previous context even when the serving call errors or
//! panics, so a context can never leak onto an unrelated request handled
//! later by the same thread.

use std::cell::Cell;

/// The ambient trace context of the calling thread: which wire request is
/// being served, under which fleet-wide trace id, and which span is the
/// parent of any span started while the context is entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Wire request id the client saw (0 = in-process caller).
    pub request_id: u64,
    /// Fleet-unique trace id stitching every span of one request
    /// (0 = allocate a fresh process-unique id per span).
    pub trace_id: u64,
    /// Span id of the enclosing span (0 = root).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// The root context of a wire request: trace id = request id,
    /// no parent.
    pub fn for_request(id: u64) -> TraceContext {
        TraceContext { request_id: id, trace_id: id, parent_span_id: 0 }
    }

    /// True iff no field carries information (the "no wire request" state).
    pub fn is_empty(&self) -> bool {
        *self == TraceContext::default()
    }
}

thread_local! {
    static TRACE_CONTEXT: Cell<TraceContext> = const { Cell::new(TraceContext {
        request_id: 0,
        trace_id: 0,
        parent_span_id: 0,
    }) };
}

/// Sets the calling thread's ambient wire request id (0 clears the whole
/// context). Kept as the simple front-door entry point; prefer
/// [`WireRequestScope`].
pub fn set_wire_request_id(id: u64) {
    set_trace_context(if id == 0 {
        TraceContext::default()
    } else {
        TraceContext::for_request(id)
    });
}

/// Clears the calling thread's ambient trace context.
pub fn clear_wire_request_id() {
    set_trace_context(TraceContext::default());
}

/// The calling thread's ambient wire request id (0 = none).
pub fn current_wire_request_id() -> u64 {
    current_trace_context().request_id
}

/// Sets the calling thread's full ambient trace context.
pub fn set_trace_context(ctx: TraceContext) {
    TRACE_CONTEXT.with(|slot| slot.set(ctx));
}

/// The calling thread's ambient trace context (all-zero = none).
pub fn current_trace_context() -> TraceContext {
    TRACE_CONTEXT.with(Cell::get)
}

/// RAII scope for the ambient wire request id: sets the root context of
/// request `id` on construction, restores the previous context on drop
/// (including unwinds).
#[derive(Debug)]
pub struct WireRequestScope {
    previous: TraceContext,
}

impl WireRequestScope {
    /// Enters a scope in which `id` is the ambient wire request id (and
    /// the trace id, with no parent span).
    pub fn enter(id: u64) -> WireRequestScope {
        let previous = current_trace_context();
        set_wire_request_id(id);
        WireRequestScope { previous }
    }
}

impl Drop for WireRequestScope {
    fn drop(&mut self) {
        set_trace_context(self.previous);
    }
}

/// RAII scope for a full ambient trace context — the propagation guard the
/// router's fan-out workers (and any other internal thread hop) enter so
/// spans they start inherit the trace id and link to the spawning span.
#[derive(Debug)]
pub struct TraceContextScope {
    previous: TraceContext,
}

impl TraceContextScope {
    /// Enters a scope in which `ctx` is the ambient trace context.
    pub fn enter(ctx: TraceContext) -> TraceContextScope {
        let previous = current_trace_context();
        set_trace_context(ctx);
        TraceContextScope { previous }
    }
}

impl Drop for TraceContextScope {
    fn drop(&mut self) {
        set_trace_context(self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_sets_and_restores() {
        assert_eq!(current_wire_request_id(), 0);
        {
            let _outer = WireRequestScope::enter(7);
            assert_eq!(current_wire_request_id(), 7);
            assert_eq!(current_trace_context().trace_id, 7);
            {
                let _inner = WireRequestScope::enter(9);
                assert_eq!(current_wire_request_id(), 9);
            }
            assert_eq!(current_wire_request_id(), 7, "inner scope restores outer id");
        }
        assert_eq!(current_wire_request_id(), 0);
        assert!(current_trace_context().is_empty());
    }

    #[test]
    fn scope_restores_across_panics() {
        let _ = std::panic::catch_unwind(|| {
            let _scope = WireRequestScope::enter(42);
            panic!("unwind through the scope");
        });
        assert_eq!(current_wire_request_id(), 0, "unwind cleared the slot");
    }

    #[test]
    fn ids_are_thread_local() {
        let _scope = WireRequestScope::enter(11);
        std::thread::spawn(|| assert_eq!(current_wire_request_id(), 0))
            .join()
            .expect("spawned thread sees no ambient id");
        assert_eq!(current_wire_request_id(), 11);
    }

    #[test]
    fn context_scope_carries_parent_links() {
        let ctx = TraceContext { request_id: 5, trace_id: 5, parent_span_id: 77 };
        {
            let _scope = TraceContextScope::enter(ctx);
            assert_eq!(current_trace_context(), ctx);
            assert_eq!(current_wire_request_id(), 5);
        }
        assert!(current_trace_context().is_empty());
    }
}
