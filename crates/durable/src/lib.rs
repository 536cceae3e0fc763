//! # starj-durable — crash-safe privacy accounting
//!
//! Every privacy guarantee in DP-starJ rests on the accountant's ledger.
//! This crate makes that ledger survive crashes: a dependency-free,
//! append-only **write-ahead budget journal** ([`BudgetWal`]) with
//! fixed-format length-prefixed records, per-record CRC32, group-fsync
//! batching, and segment rotation; plus startup **recovery**
//! ([`Recovery`]) that replays segments — truncating a torn tail at the
//! last valid CRC — and rebuilds per-tenant spent-(ε, δ) bit-identically
//! (the service's dyadic ε grid makes f64 replay exact).
//!
//! A record *is* the accountant's settlement event
//! (`starj_telemetry::Settlement`, the value the audit ring and the event
//! bus also consume); [`record`] is only its byte codec, and replay folds
//! records through the same `TenantTotals::apply` the audit ring uses. A
//! tenant id longer than [`record::MAX_TENANT_BYTES`] cannot be journaled:
//! [`BudgetWal::append`] refuses it with [`WalError::Oversize`] before
//! writing a byte.
//!
//! The safety contract the service builds on top:
//!
//! * **Write-ahead**: a `Commit` record is durable *before* the in-memory
//!   ledger is charged and the answer released. A journal failure at that
//!   seam refuses the request and refunds the reservation — there is never
//!   an un-journaled spend.
//! * **Fail-closed**: any append or fsync failure permanently breaks the
//!   WAL handle ([`WalError::Broken`]); the owning service flips into
//!   degraded mode (cache hits and free answers only) until restart, when
//!   recovery re-reads what actually hit disk.
//! * **Never under-charge**: replay sums only `Commit` records, so after a
//!   crash at *any* record boundary the recovered spend is ≥ the ε of
//!   answers actually released (a fully-written commit whose acknowledgment
//!   was lost over-charges — safe; a torn commit was never acknowledged).
//!
//! [`FaultPlan`] is a deterministic, seeded fault-injection layer (IO
//! errors, short/torn writes, simulated crash points, worker panics) used
//! by the crash-recovery property battery and by operators rehearsing
//! failure drills.

#![warn(missing_docs)]

pub mod crc;
pub mod fault;
pub mod record;
pub mod tempdir;
pub mod wal;

pub use crc::crc32;
pub use fault::{FaultKind, FaultPlan};
pub use record::{JournalRecord, RecordKind};
pub use tempdir::TempDir;
pub use wal::{BudgetWal, Recovery, SyncPolicy, WalConfig, WalCounters, WalError};
