//! The privacy-budget audit trail: the bounded in-memory record of every
//! accountant settlement.
//!
//! A DP deployment's budget ledger is its privacy *claim*; the audit trail
//! is the *evidence*. The accountant emits every reserve, commit, refund,
//! and refusal exactly once, as one [`Settlement`] carrying the tenant, the
//! canonical request hash, the `(ε, δ)` delta, the data version it was
//! admitted against, the wire request id, and the outcome. That one value
//! is journaled by `starj-durable` (when the service has a journal), pushed
//! into this ring, and published on the [`EventBus`] — so "tenant `a`
//! spent `ε = 0.75`" decomposes into *which queries, against which data,
//! when*, and the journal and the ring cannot disagree about it.
//!
//! # The reconciliation invariant
//!
//! The ledger charges budget only at commit time, so for every tenant
//!
//! ```text
//! Σ ε over Commit events  ==  ledger.spent_epsilon()
//! Σ ε over Reserve events ==  Σ Commit + Σ Refund   (every hold settles)
//! ```
//!
//! With dyadic ε values (k/2ⁿ — every workspace test and bench uses
//! these) floating-point addition is exact and order-independent, so the
//! first identity holds *bitwise*; `tests/prop_telemetry.rs` pins it
//! property-style. [`AuditTrail::committed`] computes the left-hand side,
//! and journal recovery rebuilds the ledger through the same
//! [`TenantTotals::apply`].
//!
//! The trail is bounded: past `capacity`, the oldest events are dropped
//! and counted in [`AuditTrail::dropped`] — reconciliation sums therefore
//! use the running per-tenant totals, which survive eviction.

use crate::clock::now_ns;
use crate::events::EventBus;
use crate::json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// What the accountant did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettlementKind {
    /// A hold was admitted: `spent + in-flight + cost ≤ allotment`.
    Reserve,
    /// A hold became committed spending (the answer was released). Journal
    /// recovery replays only these.
    Commit,
    /// A hold was returned (rollback, drop, failed or stale request).
    Refund,
    /// A reserve was refused (the allotment could not absorb the cost).
    Refusal,
}

impl SettlementKind {
    /// Stable snake_case name (JSONL `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            SettlementKind::Reserve => "reserve",
            SettlementKind::Commit => "commit",
            SettlementKind::Refund => "refund",
            SettlementKind::Refusal => "refusal",
        }
    }
}

/// One accountant decision: the value the audit ring, the event bus, and
/// the budget journal all consume.
#[derive(Debug, Clone, PartialEq)]
pub struct Settlement {
    /// What happened.
    pub kind: SettlementKind,
    /// The tenant whose budget moved.
    pub tenant: String,
    /// Hash of the canonical request (0 when the caller had none, e.g. a
    /// bare accountant test).
    pub query_hash: u64,
    /// The ε component of the `(ε, δ)` delta (journaled as its exact bit
    /// pattern).
    pub epsilon: f64,
    /// The δ component.
    pub delta: f64,
    /// The data version the request was admitted against.
    pub data_version: u64,
    /// The wire request id captured on the submitting thread (the network
    /// front door's frame id; see [`crate::reqid`]). 0 = internal traffic.
    pub request_id: u64,
}

/// A settlement as the ring retains it. `seq` and `at_ns` are the ring's
/// own stamps; they never reach the journal.
#[derive(Debug, Clone)]
pub struct AuditEvent {
    /// Monotone per-trail sequence number (stable across eviction).
    pub seq: u64,
    /// Nanoseconds since the process epoch.
    pub at_ns: u64,
    /// The settlement itself.
    pub settlement: Settlement,
}

impl Deref for AuditEvent {
    type Target = Settlement;

    fn deref(&self) -> &Settlement {
        &self.settlement
    }
}

impl AuditEvent {
    /// The event as a JSON object (one JSONL line). The `request_id` key is
    /// present only for wire traffic (non-zero ids).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("seq", Json::Num(self.seq as f64)),
            ("at_ns", Json::Num(self.at_ns as f64)),
            ("tenant", Json::Str(self.tenant.clone())),
            ("kind", Json::Str(self.kind.name().to_string())),
            ("query_hash", Json::Str(format!("{:016x}", self.query_hash))),
            ("epsilon", Json::Num(self.epsilon)),
            ("delta", Json::Num(self.delta)),
            ("data_version", Json::Num(self.data_version as f64)),
        ];
        if self.request_id != 0 {
            pairs.push(("request_id", Json::Num(self.request_id as f64)));
        }
        Json::obj(pairs)
    }
}

/// Per-tenant running totals over a settlement stream, exact under
/// eviction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantTotals {
    /// Σ ε over Reserve events.
    pub reserved_epsilon: f64,
    /// Σ ε over Commit events — bit-equals the ledger's dyadic spend.
    pub committed_epsilon: f64,
    /// Σ δ over Commit events.
    pub committed_delta: f64,
    /// Σ ε over Refund events.
    pub refunded_epsilon: f64,
    /// Refusal events observed.
    pub refusals: u64,
    /// Commit events observed.
    pub commits: u64,
}

impl TenantTotals {
    /// Folds one settlement in. The audit ring and journal recovery both
    /// accumulate through here, in stream order, so their committed sums
    /// are the same `f64` additions.
    pub fn apply(&mut self, settlement: &Settlement) {
        match settlement.kind {
            SettlementKind::Reserve => self.reserved_epsilon += settlement.epsilon,
            SettlementKind::Commit => {
                self.committed_epsilon += settlement.epsilon;
                self.committed_delta += settlement.delta;
                self.commits += 1;
            }
            SettlementKind::Refund => self.refunded_epsilon += settlement.epsilon,
            SettlementKind::Refusal => self.refusals += 1,
        }
    }
}

#[derive(Debug, Default)]
struct TrailState {
    events: VecDeque<AuditEvent>,
    totals: BTreeMap<String, TenantTotals>,
    next_seq: u64,
    dropped: u64,
}

/// The bounded append-only audit trail. One mutex guards the deque — the
/// accountant already serializes per tenant, and an audit append is a few
/// field stores, so the trail adds no meaningful contention; capacity 0
/// disables recording entirely.
#[derive(Debug)]
pub struct AuditTrail {
    state: Mutex<TrailState>,
    capacity: usize,
    /// Live streaming: every recorded event is also published here.
    bus: Option<Arc<EventBus>>,
    component: Arc<str>,
}

impl AuditTrail {
    /// A trail holding at most `capacity` events (0 = disabled).
    pub fn new(capacity: usize) -> AuditTrail {
        AuditTrail {
            state: Mutex::new(TrailState::default()),
            capacity,
            bus: None,
            component: Arc::from("service"),
        }
    }

    /// The same trail also streaming every event to `bus` (labeled
    /// `component`), when one is given.
    pub fn with_bus(mut self, bus: Option<Arc<EventBus>>, component: Arc<str>) -> AuditTrail {
        self.bus = bus;
        self.component = component;
        self
    }

    /// True iff the trail records anything.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Stamps one settlement with the next sequence number and the time,
    /// publishes it on the bus, and pushes it into the ring. No-op when
    /// disabled.
    pub fn record(&self, settlement: Settlement) {
        if !self.enabled() {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let seq = state.next_seq;
        state.next_seq += 1;
        // Look up before inserting: the tenant key is cloned once per
        // tenant, not once per event.
        if let Some(totals) = state.totals.get_mut(&settlement.tenant) {
            totals.apply(&settlement);
        } else {
            state.totals.entry(settlement.tenant.clone()).or_default().apply(&settlement);
        }
        let event = AuditEvent { seq, at_ns: now_ns(), settlement };
        if let Some(bus) = &self.bus {
            bus.publish_audit(&self.component, &event);
        }
        state.events.push_back(event);
        if state.events.len() > self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
    }

    /// Every retained event, oldest first.
    pub fn events(&self) -> Vec<AuditEvent> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.events.iter().cloned().collect()
    }

    /// The retained events of one tenant, oldest first.
    pub fn events_for(&self, tenant: &str) -> Vec<AuditEvent> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.events.iter().filter(|e| e.tenant == tenant).cloned().collect()
    }

    /// The running totals of one tenant (exact even after eviction).
    pub fn totals(&self, tenant: &str) -> TenantTotals {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.totals.get(tenant).copied().unwrap_or_default()
    }

    /// Σ `(ε, δ)` over the tenant's Commit events — the pair that must
    /// bit-equal the tenant's ledger spend when ε values are dyadic.
    pub fn committed(&self, tenant: &str) -> (f64, f64) {
        let t = self.totals(tenant);
        (t.committed_epsilon, t.committed_delta)
    }

    /// Tenants with recorded totals, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.totals.keys().cloned().collect()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).events.len()
    }

    /// True iff no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the capacity bound so far.
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// Every retained event as JSONL (one JSON object per line), oldest
    /// first. `extra` key/value pairs (e.g. `("dataset", name)` from a
    /// router roll-up) are appended to every line.
    pub fn to_jsonl_tagged(&self, extra: &[(&str, &str)]) -> String {
        render_jsonl(&self.events(), extra)
    }

    /// One tenant's retained events as JSONL, oldest first, with `extra`
    /// pairs appended to every line — the `/audit?tenant=` filter of the
    /// operator plane.
    pub fn to_jsonl_for(&self, tenant: &str, extra: &[(&str, &str)]) -> String {
        render_jsonl(&self.events_for(tenant), extra)
    }

    /// Every retained event as JSONL, oldest first.
    pub fn to_jsonl(&self) -> String {
        self.to_jsonl_tagged(&[])
    }
}

/// Renders events as JSONL with `extra` key/value pairs appended to every
/// line (escaped like any other string — hostile names cannot break a
/// line).
fn render_jsonl(events: &[AuditEvent], extra: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for event in events {
        let mut obj = match event.to_json() {
            Json::Obj(pairs) => pairs,
            _ => unreachable!("AuditEvent::to_json returns an object"),
        };
        for (k, v) in extra {
            obj.push(((*k).to_string(), Json::Str((*v).to_string())));
        }
        out.push_str(&Json::Obj(obj).render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(
        tenant: &str,
        kind: SettlementKind,
        query_hash: u64,
        epsilon: f64,
        data_version: u64,
    ) -> Settlement {
        let tenant = tenant.to_string();
        Settlement { kind, tenant, query_hash, epsilon, delta: 0.0, data_version, request_id: 0 }
    }

    #[test]
    fn disabled_trail_records_nothing() {
        let trail = AuditTrail::new(0);
        trail.record(settle("t", SettlementKind::Commit, 1, 0.5, 0));
        assert!(trail.is_empty());
        assert_eq!(trail.committed("t"), (0.0, 0.0));
    }

    #[test]
    fn commit_sums_are_exact_for_dyadic_epsilons() {
        let trail = AuditTrail::new(16);
        for eps in [0.5, 0.25, 0.125, 0.125] {
            trail.record(settle("a", SettlementKind::Reserve, 7, eps, 0));
            trail.record(settle("a", SettlementKind::Commit, 7, eps, 0));
        }
        let (eps, delta) = trail.committed("a");
        assert_eq!(eps, 1.0, "dyadic sum is bit-exact");
        assert_eq!(delta, 0.0);
        let totals = trail.totals("a");
        assert_eq!(totals.reserved_epsilon, 1.0);
        assert_eq!(totals.commits, 4);
    }

    #[test]
    fn eviction_keeps_totals_exact() {
        let trail = AuditTrail::new(2);
        for _ in 0..5 {
            trail.record(settle("a", SettlementKind::Commit, 0, 0.25, 3));
        }
        assert_eq!(trail.len(), 2, "capacity bound enforced");
        assert_eq!(trail.dropped(), 3);
        assert_eq!(trail.committed("a").0, 1.25, "totals survive eviction");
        let events = trail.events();
        assert_eq!(events[0].seq, 3, "oldest retained event");
        assert_eq!(events[1].data_version, 3);
    }

    #[test]
    fn per_tenant_queries_filter() {
        let trail = AuditTrail::new(16);
        trail.record(settle("a", SettlementKind::Reserve, 1, 0.5, 0));
        trail.record(settle("b", SettlementKind::Refusal, 2, 9.0, 0));
        trail.record(settle("a", SettlementKind::Refund, 1, 0.5, 0));
        assert_eq!(trail.events_for("a").len(), 2);
        assert_eq!(trail.events_for("b").len(), 1);
        assert_eq!(trail.totals("b").refusals, 1);
        assert_eq!(trail.totals("a").refunded_epsilon, 0.5);
        assert_eq!(trail.tenants(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn wire_request_ids_render_only_when_non_zero() {
        let trail = AuditTrail::new(4);
        trail.record(Settlement {
            request_id: 9001,
            ..settle("t", SettlementKind::Refusal, 1, 0.5, 0)
        });
        trail.record(settle("t", SettlementKind::Reserve, 1, 0.5, 0));
        assert_eq!(trail.events()[0].request_id, 9001, "the event carries the frame id");
        let jsonl = trail.to_jsonl();
        let first = Json::parse(jsonl.lines().next().expect("line")).expect("parses");
        assert_eq!(first.get("request_id").and_then(Json::as_f64), Some(9001.0));
        let second = Json::parse(jsonl.lines().nth(1).expect("line")).expect("parses");
        assert!(second.get("request_id").is_none(), "zero ids are omitted");
    }

    #[test]
    fn jsonl_lines_parse_and_carry_tags() {
        let trail = AuditTrail::new(4);
        trail.record(Settlement {
            delta: 1e-9,
            ..settle("t", SettlementKind::Commit, 0xdead_beef, 0.5, 2)
        });
        let jsonl = trail.to_jsonl_tagged(&[("dataset", "ssb")]);
        let line = jsonl.lines().next().expect("one line");
        let parsed = Json::parse(line).expect("line parses");
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("commit"));
        assert_eq!(parsed.get("dataset").and_then(Json::as_str), Some("ssb"));
        assert_eq!(parsed.get("query_hash").and_then(Json::as_str), Some("00000000deadbeef"));
        assert_eq!(parsed.get("epsilon").and_then(Json::as_f64), Some(0.5));
    }
}
