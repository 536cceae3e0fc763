//! **starj-telemetry** — the observability substrate of the DP-starJ
//! serving stack.
//!
//! The serving tier (service + router) answers differentially private
//! queries whose whole value proposition is a *verifiable*
//! privacy/utility/performance trade-off. This crate makes all three legs
//! observable without perturbing any of them:
//!
//! * [`trace`] — a lock-free fixed-capacity span ring ([`SpanRing`])
//!   recording, per request, a trace id plus monotonic timings for each
//!   pipeline stage (admission, canonicalization, cache probe, budget
//!   reserve, coalescer queue wait, fused scan, perturbation/WD
//!   reconstruction, commit). Builders are plain data carried through the
//!   request structs; the ring is written with relaxed atomics behind a
//!   seqlock version, so tracing never takes a lock on the serving path
//!   and — critically — never touches the request RNG, the budget ledger,
//!   or any answer bit.
//! * [`audit`] — the settlement event and its bounded in-memory trail
//!   ([`AuditTrail`]): the accountant emits every reserve / commit /
//!   refund / refusal once, as one [`Settlement`] carrying tenant,
//!   canonical-query hash, `(ε, δ)` delta, data version, wire request id,
//!   and outcome. The same value feeds the trail, the [`EventBus`], and
//!   (through `starj-durable`) the budget journal. The ledger stops being
//!   just a number and becomes evidence: summing a tenant's commit events
//!   bit-equals the ledger's dyadic spend.
//! * [`counters`] — process-wide kernel profiling counters
//!   ([`KernelCounters`]): chunks scanned, fk gathers and the fk bytes
//!   they read, probe fast-path classification tallies (word/LUT/bitset),
//!   and shared-mask program promotions — flushed by
//!   the scan planner in O(1) relaxed atomic adds per scan, never per row.
//! * [`prom`] / [`json`] — a hand-rolled Prometheus text-format renderer
//!   and the JSON value the whole workspace serializes with (the bench
//!   harness re-exports it), so snapshots and audit logs export without
//!   any dependency.
//! * [`slowlog`] — a bounded slow-query log: completed trace records whose
//!   end-to-end latency exceeds a configurable threshold.
//!
//! The [`Telemetry`] hub bundles one ring + trail + slow log behind a
//! single handle the service owns; capacity 0 disables a component
//! entirely (disabled tracing skips even the clock reads).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod audit;
pub mod clock;
pub mod counters;
pub mod events;
pub mod json;
pub mod prom;
pub mod reqid;
pub mod slowlog;
pub mod trace;

pub use audit::{AuditEvent, AuditTrail, Settlement, SettlementKind, TenantTotals};
pub use clock::now_ns;
pub use counters::{
    cost_counters, kernel_counters, CostCounters, CostSnapshot, KernelCounters, KernelSnapshot,
};
pub use events::{EventBus, OpsEvent, OpsPayload, Subscription};
pub use json::Json;
pub use prom::PromText;
pub use reqid::{
    clear_wire_request_id, current_trace_context, current_wire_request_id, set_trace_context,
    set_wire_request_id, TraceContext, TraceContextScope, WireRequestScope,
};
pub use slowlog::SlowQueryLog;
pub use trace::{RequestKind, SpanRing, Stage, TraceBuilder, TraceOutcome, TraceRecord};

use std::sync::Arc;

/// Telemetry configuration, embedded in the service configuration.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Span ring capacity (most recent completed requests kept). `0`
    /// disables tracing entirely: builders become inert and skip even
    /// their clock reads.
    pub trace_capacity: usize,
    /// Audit-trail capacity (oldest events are dropped past it, counted
    /// in [`AuditTrail::dropped`]). `0` disables the trail.
    pub audit_capacity: usize,
    /// Slow-query threshold in microseconds: completed requests at or
    /// above it are retained in the slow-query log.
    pub slow_query_us: u64,
    /// Slow-query log capacity. `0` disables the log.
    pub slow_log_capacity: usize,
    /// Live streaming: completed spans, audit events, and slow-query
    /// records are also published to this bus (for gate `subscribe`
    /// connections). `None` (the default) streams nothing; the publish
    /// path with no subscribers is one relaxed atomic load either way.
    pub bus: Option<Arc<EventBus>>,
    /// Component label stamped on streamed events (a router sets each
    /// shard service's label to its dataset name).
    pub component: String,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_capacity: 1024,
            audit_capacity: 8192,
            slow_query_us: 10_000,
            slow_log_capacity: 128,
            bus: None,
            component: "service".to_string(),
        }
    }
}

impl TelemetryConfig {
    /// A configuration with every component disabled.
    pub fn disabled() -> Self {
        TelemetryConfig {
            trace_capacity: 0,
            audit_capacity: 0,
            slow_query_us: u64::MAX,
            slow_log_capacity: 0,
            bus: None,
            component: "service".to_string(),
        }
    }

    /// The same configuration streaming onto `bus` under `component`.
    pub fn with_bus(mut self, bus: Arc<EventBus>, component: impl Into<String>) -> Self {
        self.bus = Some(bus);
        self.component = component.into();
        self
    }
}

/// One service's telemetry hub: span ring + audit trail + slow-query log,
/// plus (optionally) the live streaming bus they publish onto.
#[derive(Debug)]
pub struct Telemetry {
    ring: Option<SpanRing>,
    audit: Arc<AuditTrail>,
    slow: SlowQueryLog,
    bus: Option<Arc<EventBus>>,
    component: Arc<str>,
}

impl Telemetry {
    /// A hub with the given capacities (0 disables a component).
    pub fn new(config: &TelemetryConfig) -> Telemetry {
        let component: Arc<str> = Arc::from(config.component.as_str());
        Telemetry {
            ring: (config.trace_capacity > 0).then(|| SpanRing::new(config.trace_capacity)),
            audit: Arc::new(
                AuditTrail::new(config.audit_capacity)
                    .with_bus(config.bus.clone(), Arc::clone(&component)),
            ),
            slow: SlowQueryLog::new(
                config.slow_query_us.saturating_mul(1_000),
                config.slow_log_capacity,
            ),
            bus: config.bus.clone(),
            component,
        }
    }

    /// A fully disabled hub.
    pub fn disabled() -> Telemetry {
        Telemetry::new(&TelemetryConfig::disabled())
    }

    /// True iff request tracing is on.
    pub fn tracing_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Starts a request trace. With tracing disabled the returned builder
    /// is inert: every stage call is a branch on a bool, no clock reads.
    pub fn trace_start(&self, kind: RequestKind, tenant: &str) -> TraceBuilder {
        TraceBuilder::start(kind, tenant, self.ring.is_some())
    }

    /// Completes a trace: stamps the end time and outcome, records the
    /// span into the ring, offers it to the slow-query log, and streams it
    /// to any live subscribers.
    pub fn trace_finish(&self, builder: TraceBuilder, outcome: TraceOutcome) {
        if let Some(ring) = &self.ring {
            if let Some(record) = builder.finish(outcome) {
                ring.record(&record);
                self.slow.observe(&record);
                if let Some(bus) = &self.bus {
                    bus.publish_span(&self.component, &record);
                    if record.duration_ns() >= self.slow.threshold_ns() {
                        bus.publish_slow(&self.component, &record);
                    }
                }
            }
        }
    }

    /// The live streaming bus this hub publishes onto, when configured.
    pub fn bus(&self) -> Option<&Arc<EventBus>> {
        self.bus.as_ref()
    }

    /// The shared audit trail (the accountant holds clones of this handle
    /// inside reservations).
    pub fn audit(&self) -> &Arc<AuditTrail> {
        &self.audit
    }

    /// The most recent completed-request spans, oldest first (empty with
    /// tracing disabled).
    pub fn spans(&self) -> Vec<TraceRecord> {
        self.ring.as_ref().map(SpanRing::snapshot).unwrap_or_default()
    }

    /// Completed requests recorded so far (including ones the ring has
    /// since overwritten).
    pub fn spans_recorded(&self) -> u64 {
        self.ring.as_ref().map_or(0, SpanRing::recorded)
    }

    /// The slow-query log contents, oldest first.
    pub fn slow_queries(&self) -> Vec<TraceRecord> {
        self.slow.entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.tracing_enabled());
        let mut b = t.trace_start(RequestKind::Pm, "alice");
        let got = b.stage(Stage::Admission, || 7);
        assert_eq!(got, 7, "inert builders still run the closure");
        t.trace_finish(b, TraceOutcome::Ok);
        assert!(t.spans().is_empty());
        assert_eq!(t.spans_recorded(), 0);
        assert!(!t.audit().enabled());
    }

    #[test]
    fn enabled_hub_round_trips_a_span() {
        let t = Telemetry::new(&TelemetryConfig::default());
        let mut b = t.trace_start(RequestKind::Wd, "bob");
        b.stage(Stage::BudgetReserve, || ());
        t.trace_finish(b, TraceOutcome::Ok);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].tenant(), "bob");
        assert_eq!(spans[0].kind, RequestKind::Wd);
        assert!(spans[0].stage(Stage::BudgetReserve).is_some());
        assert!(spans[0].stage(Stage::FusedScan).is_none());
        assert_eq!(t.spans_recorded(), 1);
    }

    #[test]
    fn slow_log_threshold_filters() {
        let config = TelemetryConfig { slow_query_us: 0, ..TelemetryConfig::default() };
        let t = Telemetry::new(&config);
        let b = t.trace_start(RequestKind::Pm, "t");
        t.trace_finish(b, TraceOutcome::Ok);
        assert_eq!(t.slow_queries().len(), 1, "0 µs threshold keeps everything");
    }
}
