//! Thread-safe per-tenant `(ε, δ)` budget accounting.
//!
//! Every tenant owns a [`starj_noise::BudgetLedger`] guarded by its own
//! mutex, so contention is per-tenant: threads serving different tenants
//! never serialize on each other. Spending follows a strict
//! **reserve → commit / rollback** protocol:
//!
//! 1. [`BudgetAccountant::reserve`] atomically checks
//!    `spent + in-flight + cost ≤ allotment` and, on success, adds `cost` to
//!    the tenant's in-flight total. A failed check returns the typed
//!    [`ServiceError::BudgetExhausted`] and changes nothing.
//! 2. [`Reservation::commit`] moves the cost from in-flight to spent —
//!    the query was answered, the budget is gone for good.
//! 3. [`Reservation::rollback`] (or simply dropping the reservation, e.g.
//!    when the mechanism errors and the `?` operator unwinds the request)
//!    returns the cost to the tenant. **A failed query never spends.**
//!
//! Because the admission check counts in-flight reservations, the invariant
//! `committed + in-flight ≤ allotment` holds at every instant, under any
//! thread interleaving — N threads hammering one tenant can never over-spend
//! it, which the cross-crate stress test (`tests/service_concurrency.rs`)
//! exercises with 8+ threads.
//!
//! Each of those steps — and a refused reserve — is one [`Settlement`],
//! emitted once, by the reservation's [`SettlementCtx`], into the journal,
//! the audit ring, and the event bus.

use crate::durable::DurableState;
use crate::error::ServiceError;
use starj_durable::record::MAX_TENANT_BYTES;
use starj_noise::{BudgetLedger, PrivacyBudget};
use starj_telemetry::{AuditTrail, Settlement, SettlementKind, TenantTotals};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

#[derive(Debug)]
struct TenantState {
    name: String,
    ledger: BudgetLedger,
    in_flight_epsilon: f64,
    in_flight_delta: f64,
    /// Live reservations against this tenant. Settling the last one snaps
    /// the in-flight accumulators back to exactly 0.0: repeated `+= ε` /
    /// `-= ε` in thread-interleaved order can strand a ±1 ulp residue, and
    /// "nothing is in flight" must mean *exactly* nothing.
    in_flight_count: usize,
}

impl TenantState {
    fn settle(&mut self, cost: &PrivacyBudget) {
        self.in_flight_count = self.in_flight_count.saturating_sub(1);
        if self.in_flight_count == 0 {
            self.in_flight_epsilon = 0.0;
            self.in_flight_delta = 0.0;
        } else {
            self.in_flight_epsilon = (self.in_flight_epsilon - cost.epsilon()).max(0.0);
            self.in_flight_delta = (self.in_flight_delta - cost.delta()).max(0.0);
        }
    }

    /// In-flight reservations count as spent for admission, and the rule
    /// itself is [`PrivacyBudget::admits`] — the same one
    /// [`BudgetLedger::charge`] enforces, so a reservation that was admitted
    /// can always be committed.
    fn admits(&self, cost: &PrivacyBudget) -> bool {
        PrivacyBudget::admits(
            &self.ledger.total(),
            self.ledger.spent_epsilon() + self.in_flight_epsilon,
            self.ledger.spent_delta() + self.in_flight_delta,
            cost,
        )
    }
}

/// Where a reservation's settlements go and which request they concern.
/// The reservation carries it, so *every* settlement path — commit,
/// explicit rollback, or an RAII drop from `?`-unwinding — is emitted
/// without call-site cooperation. The default has no sinks.
#[derive(Debug, Clone, Default)]
pub struct SettlementCtx {
    /// The audit ring, which also publishes on the event bus (`None` when
    /// the trail is disabled).
    pub trail: Option<Arc<AuditTrail>>,
    /// The budget journal (`None` when the service runs without one).
    pub journal: Option<Arc<DurableState>>,
    /// Hash of the canonical request being charged (0 = none).
    pub query_hash: u64,
    /// The data version the request was admitted against.
    pub data_version: u64,
    /// The wire request id, captured on the submitting thread (0 =
    /// internal): a coalescer worker refunding a stale job must still tag
    /// the Refund with the frame id of the connection that submitted it.
    pub request_id: u64,
}

impl SettlementCtx {
    /// The one settlement seam, run under the tenant lock, in write-ahead
    /// order: the journal takes the settlement first (fail-closed for
    /// Reserve and Commit, best-effort for Refund and Refusal, which
    /// therefore never fail here); then `apply` moves the in-memory
    /// ledger; then the audit ring records it and publishes it on the bus.
    /// A refused journal append returns before anything else happens.
    fn emit<T>(
        &self,
        state: &mut TenantState,
        kind: SettlementKind,
        cost: &PrivacyBudget,
        apply: impl FnOnce(&mut TenantState) -> T,
    ) -> Result<T, ServiceError> {
        if self.trail.is_none() && self.journal.is_none() {
            return Ok(apply(state));
        }
        let settlement = Settlement {
            kind,
            tenant: state.name.clone(),
            query_hash: self.query_hash,
            epsilon: cost.epsilon(),
            delta: cost.delta(),
            data_version: self.data_version,
            request_id: self.request_id,
        };
        if let Some(journal) = &self.journal {
            journal.append(&settlement)?;
        }
        let out = apply(state);
        if let Some(trail) = &self.trail {
            trail.record(settlement);
        }
        Ok(out)
    }
}

/// A committed-or-refunded hold on a tenant's budget. Obtained from
/// [`BudgetAccountant::reserve`]; dropping it without committing refunds the
/// tenant automatically (RAII), so early returns and `?`-propagation in a
/// request handler can never leak spent budget.
#[derive(Debug)]
pub struct Reservation {
    tenant: Arc<Mutex<TenantState>>,
    cost: PrivacyBudget,
    settled: bool,
    ctx: SettlementCtx,
}

impl Reservation {
    /// The cost this reservation holds.
    pub fn cost(&self) -> PrivacyBudget {
        self.cost
    }

    /// Converts the hold into committed spending. The query's answer may now
    /// be released to the caller.
    ///
    /// With a journal attached, the `Commit` record is made durable
    /// **before** the ledger is charged (write-ahead, under the tenant
    /// lock so per-tenant journal order equals charge order — that is
    /// what makes recovery replay bit-identical). A journal failure here
    /// settles the hold as a refund and returns
    /// [`ServiceError::DurabilityUnavailable`]: the answer must not be
    /// released, because a crash would forget the spend it represents.
    pub fn commit(mut self) -> Result<(), ServiceError> {
        self.settled = true;
        let cost = self.cost;
        let mut state = lock(&self.tenant);
        let committed = self.ctx.emit(&mut state, SettlementKind::Commit, &cost, |s| {
            s.settle(&cost);
            // Cannot fail: `reserve` admitted spent + in-flight + cost under
            // the same tolerance the ledger charges with.
            s.ledger.charge(cost).map_err(ServiceError::InvalidBudget)
        });
        committed.unwrap_or_else(|e| {
            // The failure latched degraded mode, so this Refund reaches the
            // ring and the bus but not the journal.
            let _ = self.ctx.emit(&mut state, SettlementKind::Refund, &cost, |s| s.settle(&cost));
            Err(e)
        })
    }

    /// Returns the hold to the tenant. Equivalent to dropping the
    /// reservation, but explicit at call sites that want to document it.
    pub fn rollback(mut self) {
        self.release();
    }

    fn release(&mut self) {
        if !self.settled {
            self.settled = true;
            let cost = self.cost;
            let mut state = lock(&self.tenant);
            // Best-effort: a lost Refund record only over-states the
            // recovered spend (replay counts commits only), so the refund
            // proceeds even if the journal is gone.
            let _ = self.ctx.emit(&mut state, SettlementKind::Refund, &cost, |s| s.settle(&cost));
        }
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.release();
    }
}

/// Snapshot of one tenant's accounting state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantUsage {
    /// The registered allotment.
    pub allotment: PrivacyBudget,
    /// ε committed by answered queries.
    pub spent_epsilon: f64,
    /// δ committed by answered queries.
    pub spent_delta: f64,
    /// ε currently held by in-flight reservations.
    pub in_flight_epsilon: f64,
    /// ε still unreserved: `allotment − spent − in-flight`.
    pub remaining_epsilon: f64,
}

/// The multi-tenant budget ledger. All methods take `&self` and are safe to
/// call from any number of threads.
#[derive(Debug, Default)]
pub struct BudgetAccountant {
    tenants: RwLock<HashMap<String, Arc<Mutex<TenantState>>>>,
    /// Per-tenant `(spent_ε, spent_δ)` adopted from WAL recovery, applied
    /// when the tenant (re-)registers. Exact bit patterns — never rounded.
    recovered: Mutex<HashMap<String, (f64, f64)>>,
}

impl BudgetAccountant {
    /// An accountant with no tenants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tenant with its lifetime `(ε, δ)` allotment. Errors if
    /// the tenant already exists — an allotment is a policy decision, not
    /// something a repeat registration should silently replace — or if its
    /// id is too long for a journal record to carry.
    pub fn register(&self, tenant: &str, allotment: PrivacyBudget) -> Result<(), ServiceError> {
        if tenant.len() > MAX_TENANT_BYTES {
            return Err(ServiceError::TenantIdTooLong {
                bytes: tenant.len(),
                max: MAX_TENANT_BYTES,
            });
        }
        let mut map = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        if map.contains_key(tenant) {
            return Err(ServiceError::DuplicateTenant(tenant.to_string()));
        }
        let mut ledger = BudgetLedger::new(allotment);
        if let Some((eps, delta)) =
            self.recovered.lock().unwrap_or_else(|e| e.into_inner()).remove(tenant)
        {
            // Recovery replayed this tenant's journal: resume from the true
            // spend, bit-for-bit. A recovered spend above the new allotment
            // stands — admission will refuse everything, which is the
            // fail-closed posture for a ledger restored after a crash.
            ledger.restore_spent(eps, delta);
        }
        map.insert(
            tenant.to_string(),
            Arc::new(Mutex::new(TenantState {
                name: tenant.to_string(),
                ledger,
                in_flight_epsilon: 0.0,
                in_flight_delta: 0.0,
                in_flight_count: 0,
            })),
        );
        Ok(())
    }

    /// Installs WAL-recovered per-tenant totals; each tenant's committed
    /// `(ε, δ)` is applied when it registers. Refuses (rather than merges)
    /// when any tenant is already registered: replaying a journal *onto*
    /// live ledgers would double-count every commit both sides saw, and
    /// there is no safe way to reconcile after the fact — recovery belongs
    /// at startup, before traffic.
    pub fn adopt_recovery(
        &self,
        recovered: &BTreeMap<String, TenantTotals>,
    ) -> Result<(), ServiceError> {
        let map = self.tenants.read().unwrap_or_else(|e| e.into_inner());
        if !map.is_empty() {
            return Err(ServiceError::Internal(
                "refusing to replay a budget journal onto a non-empty accountant: \
                 recovery must run before any tenant registers"
                    .into(),
            ));
        }
        let mut pending = self.recovered.lock().unwrap_or_else(|e| e.into_inner());
        for (tenant, totals) in recovered {
            pending.insert(tenant.clone(), (totals.committed_epsilon, totals.committed_delta));
        }
        Ok(())
    }

    /// Atomically reserves `cost` against the tenant's remaining budget.
    /// The admission decision (Reserve or Refusal) is emitted through
    /// `ctx`, which then rides the reservation so its settlement (Commit or
    /// Refund) is emitted by whichever path settles it. Refuses with
    /// [`ServiceError::BudgetExhausted`] when `spent + in-flight + cost`
    /// would exceed the allotment, and with
    /// [`ServiceError::DurabilityUnavailable`] when the journal is degraded
    /// or cannot take the `Reserve` record; either way nothing is held.
    pub fn reserve(
        &self,
        tenant: &str,
        cost: PrivacyBudget,
        ctx: SettlementCtx,
    ) -> Result<Reservation, ServiceError> {
        let state_arc = self.tenant_arc(tenant)?;
        let mut state = lock(&state_arc);
        if let Some(journal) = &ctx.journal {
            // Before admission: a degraded journal refuses as such, never as
            // an exhausted budget.
            journal.refuse_if_degraded()?;
        }
        if !state.admits(&cost) {
            let remaining = (state.ledger.remaining_epsilon() - state.in_flight_epsilon).max(0.0);
            ctx.emit(&mut state, SettlementKind::Refusal, &cost, |_| ())?;
            return Err(ServiceError::BudgetExhausted {
                tenant: tenant.to_string(),
                requested_epsilon: cost.epsilon(),
                remaining_epsilon: remaining,
            });
        }
        ctx.emit(&mut state, SettlementKind::Reserve, &cost, |s| {
            s.in_flight_epsilon += cost.epsilon();
            s.in_flight_delta += cost.delta();
            s.in_flight_count += 1;
        })?;
        drop(state);
        Ok(Reservation { tenant: state_arc, cost, settled: false, ctx })
    }

    /// The tenant's current usage snapshot.
    pub fn usage(&self, tenant: &str) -> Result<TenantUsage, ServiceError> {
        let state_arc = self.tenant_arc(tenant)?;
        let state = lock(&state_arc);
        Ok(TenantUsage {
            allotment: state.ledger.total(),
            spent_epsilon: state.ledger.spent_epsilon(),
            spent_delta: state.ledger.spent_delta(),
            in_flight_epsilon: state.in_flight_epsilon,
            remaining_epsilon: (state.ledger.remaining_epsilon() - state.in_flight_epsilon)
                .max(0.0),
        })
    }

    /// Registered tenant ids, sorted for deterministic reporting.
    pub fn tenants(&self) -> Vec<String> {
        let map = self.tenants.read().unwrap_or_else(|e| e.into_inner());
        let mut names: Vec<String> = map.keys().cloned().collect();
        names.sort();
        names
    }

    fn tenant_arc(&self, tenant: &str) -> Result<Arc<Mutex<TenantState>>, ServiceError> {
        let map = self.tenants.read().unwrap_or_else(|e| e.into_inner());
        map.get(tenant).cloned().ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))
    }
}

/// Locks a tenant mutex, recovering from poisoning: budget bookkeeping must
/// stay queryable even if some serving thread panicked mid-request.
fn lock(state: &Arc<Mutex<TenantState>>) -> MutexGuard<'_, TenantState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps(e: f64) -> PrivacyBudget {
        PrivacyBudget::pure(e).unwrap()
    }

    fn reserve(
        acc: &BudgetAccountant,
        t: &str,
        cost: PrivacyBudget,
    ) -> Result<Reservation, ServiceError> {
        acc.reserve(t, cost, SettlementCtx::default())
    }

    #[test]
    fn reserve_commit_spends() {
        let acc = BudgetAccountant::new();
        acc.register("t", eps(1.0)).unwrap();
        let r = reserve(&acc, "t", eps(0.4)).unwrap();
        assert!((acc.usage("t").unwrap().in_flight_epsilon - 0.4).abs() < 1e-12);
        r.commit().unwrap();
        let u = acc.usage("t").unwrap();
        assert!((u.spent_epsilon - 0.4).abs() < 1e-12);
        assert_eq!(u.in_flight_epsilon, 0.0);
        assert!((u.remaining_epsilon - 0.6).abs() < 1e-12);
    }

    #[test]
    fn rollback_and_drop_both_refund() {
        let acc = BudgetAccountant::new();
        acc.register("t", eps(1.0)).unwrap();
        reserve(&acc, "t", eps(0.7)).unwrap().rollback();
        assert!((acc.usage("t").unwrap().remaining_epsilon - 1.0).abs() < 1e-12);
        {
            let _r = reserve(&acc, "t", eps(0.7)).unwrap();
            // Dropped without commit — e.g. `?` unwound a failing request.
        }
        assert!((acc.usage("t").unwrap().remaining_epsilon - 1.0).abs() < 1e-12);
        assert_eq!(acc.usage("t").unwrap().spent_epsilon, 0.0);
    }

    #[test]
    fn in_flight_reservations_block_overcommit() {
        let acc = BudgetAccountant::new();
        acc.register("t", eps(1.0)).unwrap();
        let hold = reserve(&acc, "t", eps(0.8)).unwrap();
        // Nothing committed yet, but only 0.2 is admissible now.
        let refused = reserve(&acc, "t", eps(0.5));
        match refused {
            Err(ServiceError::BudgetExhausted { remaining_epsilon, .. }) => {
                assert!((remaining_epsilon - 0.2).abs() < 1e-9);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        let small = reserve(&acc, "t", eps(0.2)).unwrap();
        hold.commit().unwrap();
        small.commit().unwrap();
        let u = acc.usage("t").unwrap();
        assert!((u.spent_epsilon - 1.0).abs() < 1e-9);
        assert!(u.remaining_epsilon < 1e-9);
    }

    #[test]
    fn exhausted_tenant_gets_typed_refusal() {
        let acc = BudgetAccountant::new();
        acc.register("t", eps(0.5)).unwrap();
        reserve(&acc, "t", eps(0.5)).unwrap().commit().unwrap();
        let err = reserve(&acc, "t", eps(0.01)).unwrap_err();
        assert!(matches!(err, ServiceError::BudgetExhausted { .. }));
    }

    #[test]
    fn tenants_are_isolated() {
        let acc = BudgetAccountant::new();
        acc.register("a", eps(0.1)).unwrap();
        acc.register("b", eps(5.0)).unwrap();
        reserve(&acc, "a", eps(0.1)).unwrap().commit().unwrap();
        // Tenant a is drained; b is untouched.
        assert!(reserve(&acc, "a", eps(0.1)).is_err());
        assert!(reserve(&acc, "b", eps(1.0)).is_ok());
        assert_eq!(acc.tenants(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn unknown_and_duplicate_tenants_are_typed() {
        let acc = BudgetAccountant::new();
        assert!(matches!(reserve(&acc, "ghost", eps(0.1)), Err(ServiceError::UnknownTenant(_))));
        acc.register("t", eps(1.0)).unwrap();
        assert!(matches!(acc.register("t", eps(1.0)), Err(ServiceError::DuplicateTenant(_))));
    }

    #[test]
    fn pure_tenant_refuses_any_delta_cost() {
        // A tenant registered with δ = 0 holds a pure ε-DP guarantee; an
        // approximate-DP query must not erode it by a tolerance's worth.
        let acc = BudgetAccountant::new();
        acc.register("t", eps(1.0)).unwrap();
        let err = reserve(&acc, "t", PrivacyBudget::approx(0.1, 1e-9).unwrap()).unwrap_err();
        assert!(matches!(err, ServiceError::BudgetExhausted { .. }));
        assert!(reserve(&acc, "t", eps(0.1)).is_ok(), "pure costs still admitted");
    }

    #[test]
    fn delta_component_is_enforced() {
        let acc = BudgetAccountant::new();
        acc.register("t", PrivacyBudget::approx(10.0, 1e-6).unwrap()).unwrap();
        let cost = PrivacyBudget::approx(0.1, 6e-7).unwrap();
        reserve(&acc, "t", cost).unwrap().commit().unwrap();
        // ε easily fits; δ does not.
        let err = reserve(&acc, "t", cost).unwrap_err();
        assert!(matches!(err, ServiceError::BudgetExhausted { .. }));
    }
}
