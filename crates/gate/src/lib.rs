//! # starj-gate — the SQL front door
//!
//! Everything below this crate answers star-join queries as Rust values;
//! this crate is the boundary where **untrusted text** enters the system.
//! It has two halves:
//!
//! * [`sql`] — a hand-rolled recursive-descent parser for the exact SQL
//!   dialect [`starj_engine::to_sql`] renders, resolving names against a
//!   [`starj_engine::StarSchema`] and lowering to a
//!   [`starj_engine::StarQuery`] via the engine's canonicalization pass.
//!   Total over hostile input: typed, byte-position-carrying
//!   [`GateError`]s, never a panic. `parse(to_sql(q))` is
//!   canon-equivalent to `q` (the round-trip property
//!   `tests/gate_sql.rs` proves over random snowflake schemas).
//! * [`listener`] — a dependency-free blocking-accept TCP listener
//!   ([`Gate`]) speaking length-prefixed JSON frames ([`wire`]), with
//!   per-tenant token auth, a per-connection in-flight cap that
//!   backpressures into the service's fair coalescer queue, structured
//!   refusals for every service/router error, admin-token-gated operator
//!   verbs (`subscribe` for live audit/span streaming, `explain` for
//!   no-budget plan reports), listener-level counters
//!   ([`metrics`]), and the client's request id threaded into trace
//!   spans and audit events.
//!
//! The privacy posture is deliberate: the gate holds **no** privacy
//! state. Admission, budget accounting, caching, and noise all stay in
//! `starj-service`; a parse here spends nothing, and every refusal says
//! so in a machine-readable code.

#![warn(missing_docs)]

pub mod accept;
pub mod client;
pub mod error;
pub mod listener;
pub mod metrics;
pub mod sql;
pub mod wire;

pub use accept::{AcceptLoop, MAX_CONNECTIONS};
pub use client::{sql_request, ClientConfig, GateClient, GateClientError};
pub use error::GateError;
pub use listener::{Gate, GateConfig};
pub use metrics::GateMetrics;
pub use sql::{parse_canonical, parse_query};
pub use wire::{router_code, service_code, WireRequest};
