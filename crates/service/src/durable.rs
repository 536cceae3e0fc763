//! Service-side glue for the crash-safe budget journal (`starj-durable`).
//!
//! [`DurableConfig`] (a field of [`crate::ServiceConfig`]) points a service
//! at a journal directory; [`crate::Service::open`] opens the WAL, replays
//! whatever a previous process left there, and hands the recovered
//! per-tenant spends to the accountant so re-registered tenants resume
//! from their true (possibly over-charged, never under-charged) ledgers.
//!
//! [`DurableState`] is the shared runtime handle: the open
//! [`starj_durable::BudgetWal`] plus the **degraded-mode** latch. The
//! first journal failure flips the latch permanently (matching the WAL's
//! fail-stop contract): cache hits and free answers keep flowing, every
//! new budget spend is refused with
//! [`ServiceError::DurabilityUnavailable`], and the
//! `starj_durable_degraded` gauge goes to 1 until an operator restarts
//! the process (which re-runs recovery against what actually hit disk).

use crate::error::ServiceError;
use starj_durable::{BudgetWal, Recovery, WalCounters};
use starj_telemetry::{Settlement, SettlementKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Where and how a service journals budget movements: the journal's own
/// configuration (the router namespaces `dir` per dataset,
/// `<durable_root>/<dataset>`).
pub use starj_durable::WalConfig as DurableConfig;

/// What recovery found, kept for metrics exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplaySummary {
    /// Valid records replayed at startup.
    pub records: u64,
    /// Commit records among them (the ones that rebuilt ledgers).
    pub commits: u64,
    /// Segments scanned.
    pub segments: u64,
    /// Whether a torn tail was truncated.
    pub torn_tail_truncated: bool,
}

impl ReplaySummary {
    fn of(recovery: &Recovery) -> Self {
        ReplaySummary {
            records: recovery.records,
            commits: recovery.commits,
            segments: recovery.segments,
            torn_tail_truncated: recovery.torn_tail_truncated,
        }
    }
}

/// Point-in-time durability status (rendered as `starj_durable_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableStatus {
    /// True once a journal failure has latched degraded mode.
    pub degraded: bool,
    /// Journal append/fsync/rotation counters since open.
    pub counters: WalCounters,
    /// Journal failures observed (each also latches `degraded`).
    pub journal_errors: u64,
    /// Spend attempts refused because the journal was unavailable.
    pub degraded_refusals: u64,
    /// What startup recovery replayed.
    pub replay: ReplaySummary,
}

/// The open journal plus the degraded-mode latch. One per `Service`,
/// shared (`Arc`) into every reservation it issues.
#[derive(Debug)]
pub struct DurableState {
    wal: BudgetWal,
    degraded: AtomicBool,
    journal_errors: AtomicU64,
    degraded_refusals: AtomicU64,
    replay: ReplaySummary,
}

impl DurableState {
    pub(crate) fn new(wal: BudgetWal, recovery: &Recovery) -> Self {
        DurableState {
            wal,
            degraded: AtomicBool::new(false),
            journal_errors: AtomicU64::new(0),
            degraded_refusals: AtomicU64::new(0),
            replay: ReplaySummary::of(recovery),
        }
    }

    /// True once a journal failure has flipped the service into degraded
    /// mode (cache hits and free answers only; spends refused).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Refuses a spend while degraded mode is latched, counting the
    /// refusal.
    pub(crate) fn refuse_if_degraded(&self) -> Result<(), ServiceError> {
        if !self.is_degraded() {
            return Ok(());
        }
        self.degraded_refusals.fetch_add(1, Ordering::Relaxed);
        Err(ServiceError::DurabilityUnavailable {
            reason: "journal broken by an earlier failure; restart to recover".into(),
        })
    }

    /// Journals one settlement; a journal failure latches degraded mode.
    /// `Reserve` and `Commit` are fail-closed: the record must be durable
    /// before the caller may proceed, so degraded mode or a fresh failure
    /// refuses. `Refund` and `Refusal` are best-effort and never refuse:
    /// losing one can only *over*-state the recovered spend (replay counts
    /// commits only), so the in-memory settlement proceeds regardless.
    pub(crate) fn append(&self, settlement: &Settlement) -> Result<(), ServiceError> {
        let spends = matches!(settlement.kind, SettlementKind::Reserve | SettlementKind::Commit);
        if spends {
            self.refuse_if_degraded()?;
        } else if self.is_degraded() {
            return Ok(());
        }
        let Err(e) = self.wal.append(settlement) else { return Ok(()) };
        self.journal_errors.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Release);
        if !spends {
            return Ok(());
        }
        self.degraded_refusals.fetch_add(1, Ordering::Relaxed);
        Err(ServiceError::DurabilityUnavailable { reason: e.to_string() })
    }

    /// Current durability status for metrics exposition.
    pub fn status(&self) -> DurableStatus {
        DurableStatus {
            degraded: self.is_degraded(),
            counters: self.wal.counters(),
            journal_errors: self.journal_errors.load(Ordering::Relaxed),
            degraded_refusals: self.degraded_refusals.load(Ordering::Relaxed),
            replay: self.replay,
        }
    }
}
