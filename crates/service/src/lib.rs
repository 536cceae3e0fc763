//! **starj-service** — the serving subsystem that turns the DP-starJ
//! libraries into a system.
//!
//! The mechanism crates (`dp-starj`, `starj-engine`, `starj-noise`) answer
//! *one query for one caller*. A real DP deployment (cf. Chorus, Johnson et
//! al.; DProvSQL) needs a front door: something that admits queries, tracks
//! who has spent how much privacy budget, refuses queries that would
//! overdraw it, and reuses answers so repeated questions do not re-spend ε.
//! This crate is that front door:
//!
//! * [`Service`] — owns an `Arc<StarSchema>` and answers every [`Request`]
//!   kind — one Predicate-Mechanism query, a fused PM batch, or a
//!   Workload-Decomposition workload — from any number of threads
//!   concurrently, through one pipeline ([`Service::submit`]: admission →
//!   canon → cache → reserve → perturb → execute or park → commit) that
//!   returns the matching [`Answer`];
//! * [`BudgetAccountant`] — a thread-safe per-tenant `(ε, δ)` ledger with
//!   sequential composition and atomic **reserve → commit / rollback**
//!   semantics: a failed query always refunds its reservation, and a tenant
//!   whose allotment is spent gets a typed
//!   [`ServiceError::BudgetExhausted`] refusal;
//! * [`AnswerCache`] — replays an identical repeat query's stored noisy
//!   answer at zero additional budget, keyed by the deterministic
//!   query-normalization pass in [`starj_engine::canon`] (sorted predicates,
//!   collapsed ranges, label-free);
//! * [`crate::admission`] — schema validation that rejects malformed queries
//!   before any budget is reserved;
//! * [`crate::coalesce`] — the **group-commit scan coalescer**: with
//!   [`service::ServiceConfig::coalesce`] on, concurrent single PM and WD
//!   submits park in a bounded queue and a worker pool answers
//!   each drained, compatibility-partitioned batch in **one fused fact
//!   scan** — provably answer- and budget-equivalent to the sequential
//!   path, because everything privacy-relevant happens at submit time;
//! * [`WeightHistogramCache`] — reusable `Q = Φ·W` joint-code histograms
//!   keyed on (axis set, aggregate, data version), answering repeat
//!   workload traffic and covered PM members without a scan; invalidated
//!   by [`Service::refresh_schema`]'s data version bump, as is the answer
//!   cache;
//! * [`ServiceMetrics`] — queries served, cache hits, budget refusals,
//!   coalesced requests/batches, W-cache hits, and p50/p99 latency, all
//!   lock-free on the serving path;
//! * **observability** (via [`starj_telemetry`]) — per-request stage traces
//!   ([`Service::telemetry`]), an append-only privacy-budget audit trail
//!   whose committed ε sums are bit-identical to the ledger
//!   ([`Service::audit_jsonl`]), and a Prometheus text endpoint
//!   ([`Service::prometheus_text`]). Tracing reads clocks only at the
//!   submit-/drain-time seams, so enabling it never perturbs an answer or
//!   a ledger bit;
//! * **durability** (via [`starj_durable`]) — an optional write-ahead
//!   budget journal ([`DurableConfig`], opened by [`Service::open`]):
//!   every commit record is fsync-durable *before* the ledger charges and
//!   the answer is released, startup recovery replays per-tenant spends
//!   bit-identically, and a journal failure latches degraded mode — cache
//!   hits and free answers keep serving, new spends are refused with
//!   [`ServiceError::DurabilityUnavailable`].
//!
//! # Quick start
//!
//! ```
//! use starj_engine::{Column, Dimension, Domain, Predicate, StarQuery, StarSchema, Table};
//! use starj_noise::PrivacyBudget;
//! use starj_service::{Service, ServiceConfig};
//! use std::sync::Arc;
//!
//! // A toy schema: one dimension, six fact rows.
//! let domain = Domain::numeric("color", 4).unwrap();
//! let dim = Table::new("D", vec![
//!     Column::key("pk", vec![0, 1, 2, 3]),
//!     Column::attr("color", domain, vec![0, 1, 2, 3]),
//! ]).unwrap();
//! let fact = Table::new("F", vec![
//!     Column::key("fk", vec![0, 0, 1, 2, 3, 3]),
//!     Column::measure("qty", vec![1, 2, 3, 4, 5, 6]),
//! ]).unwrap();
//! let schema = StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap();
//!
//! let service = Service::new(Arc::new(schema), ServiceConfig::default());
//! service.register_tenant("alice", PrivacyBudget::pure(1.0).unwrap()).unwrap();
//!
//! let q = StarQuery::count("demo").with(Predicate::range("D", "color", 1, 2));
//! let first = service.pm_answer("alice", &q, 0.5).unwrap();
//! assert!(!first.cached);
//!
//! // The identical query replays from the cache: same answer, zero budget.
//! let replay = service.pm_answer("alice", &q, 0.5).unwrap();
//! assert!(replay.cached);
//! assert_eq!(replay.result, first.result);
//! assert!((service.tenant_usage("alice").unwrap().spent_epsilon - 0.5).abs() < 1e-12);
//! ```

pub mod accountant;
pub mod admission;
pub mod cache;
pub mod coalesce;
pub mod durable;
pub mod error;
pub mod explain;
pub mod metrics;
pub mod service;
pub mod wcache;

pub use accountant::{BudgetAccountant, Reservation, SettlementCtx, TenantUsage};
pub use cache::{AnswerCache, Mechanism, RequestKey};
pub use coalesce::{Pending, Submitted, TENANT_LANE_CAP};
pub use durable::{DurableConfig, DurableState, DurableStatus, ReplaySummary};
pub use error::ServiceError;
pub use explain::{ExplainProfile, ExplainReport};
pub use metrics::{LatencyHistogram, MetricsSnapshot, ServiceMetrics, LATENCY_BUCKETS};
pub use service::{
    Answer, BatchAnswer, Request, Service, ServiceAnswer, ServiceConfig, WorkloadAnswer,
};
pub use wcache::{WeightHistogramCache, MIN_BATCH_W_MEMBERS};

// Re-export the observability vocabulary so service consumers configure
// tracing/auditing without naming the telemetry crate directly.
pub use starj_telemetry::{
    AuditEvent, AuditTrail, KernelSnapshot, RequestKind, Settlement, SettlementKind, Stage,
    Telemetry, TelemetryConfig, TraceOutcome, TraceRecord,
};
