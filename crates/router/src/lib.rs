//! **starj-router** — sharded multi-schema serving for DP-starJ.
//!
//! One [`starj_service::Service`] owns one `Arc<StarSchema>`; the ROADMAP's
//! north star (heavy traffic from millions of users) needs a tier above it
//! that spreads many datasets — SSB scale slices, distinct product schemas,
//! per-region instances — across many schema shards, each with its own scan
//! plans, caches, and **privacy budget domain**. Chorus-style deployments
//! (Johnson et al., "Towards Practical Differential Privacy for SQL
//! Queries") make the same argument: scalable DP answering wants a front
//! tier that isolates per-dataset privacy state while multiplexing traffic.
//! This crate is that tier:
//!
//! * [`Router`] — owns N shards, hosts datasets on them, and routes every
//!   [`starj_service::Request`] to the owning shard through one
//!   [`Router::submit`] (with [`Router::pm_answer`] as its blocking PM
//!   adapter);
//! * [`crate::ring::HashRing`] — deterministic consistent-hash placement
//!   with virtual nodes: the same configuration places every dataset
//!   identically across runs, and shard add/remove moves only the minimal
//!   key range ([`Router::add_shard`] / [`Router::remove_shard`] report
//!   exactly which datasets moved, ledgers and caches intact);
//! * [`Router::pm_fanout_answer`] — cross-shard fan-out: a mixed batch is
//!   resolved through the table-ownership index, sent to **exactly** the
//!   shards owning the referenced tables, and merged back in submission
//!   order with typed per-shard failures ([`RouterError::Fanout`])
//!   collected in deterministic shard order;
//! * [`RouterMetrics`] — fleet roll-up summing per-shard counters and
//!   merging latency *histograms* (quantiles come from merged buckets,
//!   never from averaged per-shard p50/p99);
//! * [`RouterConfig`] — shard count, ring replication factor, seed, and
//!   per-shard [`starj_service::ServiceConfig`] overrides (e.g. the
//!   group-commit coalescer on for hot shards only).
//!
//! Budget accounting stays strictly per-shard: the router adds no privacy
//! logic of its own, so its answers and ledgers are **bit-identical** to N
//! standalone services — `tests/router_parity.rs` proves it in lockstep
//! under a randomized mixed workload.
//!
//! # Quick start
//!
//! ```
//! use starj_engine::{Column, Dimension, Domain, Predicate, StarQuery, StarSchema, Table};
//! use starj_noise::PrivacyBudget;
//! use starj_router::{Router, RouterConfig};
//! use std::sync::Arc;
//!
//! let schema = |dim: &str| {
//!     let domain = Domain::numeric("c", 4).unwrap();
//!     let d = Table::new(dim, vec![
//!         Column::key("pk", vec![0, 1, 2, 3]),
//!         Column::attr("c", domain, vec![0, 1, 2, 3]),
//!     ]).unwrap();
//!     let fact = Table::new(format!("F_{dim}"), vec![
//!         Column::key("fk", vec![0, 1, 2, 3, 3]),
//!     ]).unwrap();
//!     Arc::new(StarSchema::new(fact, vec![Dimension::new(d, "pk", "fk")]).unwrap())
//! };
//!
//! let router = Router::new(RouterConfig { shards: 2, ..RouterConfig::default() }).unwrap();
//! router.add_dataset("sales", schema("Region")).unwrap();
//! router.add_dataset("web", schema("Browser")).unwrap();
//! router.register_tenant_all("alice", PrivacyBudget::pure(1.0).unwrap()).unwrap();
//!
//! // Single-dataset traffic routes to the owning shard...
//! let q = StarQuery::count("q").with(Predicate::point("Region", "c", 1));
//! let answer = router.pm_answer("sales", "alice", &q, 0.25).unwrap();
//! assert!(!answer.cached);
//!
//! // ...and a mixed batch fans out to exactly the owning shards.
//! let batch = vec![
//!     StarQuery::count("a").with(Predicate::point("Region", "c", 0)),
//!     StarQuery::count("b").with(Predicate::point("Browser", "c", 2)),
//! ];
//! let fanned = router.pm_fanout_answer("alice", &batch, 0.5).unwrap();
//! assert_eq!(fanned.answers.len(), 2);
//! assert_eq!(fanned.groups.len(), 2, "two shards answered");
//! ```

pub mod error;
pub mod metrics;
pub mod ring;
pub mod router;

pub use error::{RouterError, ShardFailure};
pub use metrics::{DatasetMetrics, RouterMetrics};
pub use ring::HashRing;
pub use router::{FanoutAnswer, FanoutGroup, Placement, Router, RouterConfig};
