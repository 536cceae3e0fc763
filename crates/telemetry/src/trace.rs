//! Request-stage tracing: plain-data span builders on the request path, a
//! lock-free seqlock ring for completed records.
//!
//! # Why tracing cannot perturb answers or ledgers
//!
//! A [`TraceBuilder`] is inert data carried inside the request's work
//! struct: it reads the monotonic clock and writes into its own stack
//! fields. It never draws randomness, never touches the accountant, and
//! never synchronizes with another request. The only shared write happens
//! *after* the request's answer is already committed —
//! [`SpanRing::record`] claims a slot with one `fetch_add` and publishes
//! the record behind a per-slot seqlock version, all relaxed/release
//! atomics, no locks. Disabled tracing (`capacity 0`) skips even the
//! clock reads, which is what the coalesce bench's tracing A/B measures.
//!
//! # The stage vocabulary
//!
//! The eight [`Stage`]s are exactly the submit-time/drain-time seams the
//! coalescer equivalence proof is built on: everything privacy-relevant
//! (admission, canonicalization, cache probe, budget reserve,
//! perturbation / WD reconstruction) happens at submit time on the
//! caller's thread; queue wait, the fused scan, and the commit are the
//! drain-side post-processing. A span therefore doubles as a visual proof
//! of the pipeline split: per-request privacy stages first, shared
//! evaluation stages after.

use crate::clock::now_ns;
use crate::json::Json;
use crate::reqid::TraceContext;
use std::sync::atomic::{AtomicU64, Ordering};

/// One pipeline stage of a request span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Schema validation + budget-form validation (pre-charge).
    Admission,
    /// Query canonicalization (sorted predicates, collapsed ranges).
    Canon,
    /// Answer-cache probe.
    CacheProbe,
    /// The accountant's atomic `(ε, δ)` reservation.
    BudgetReserve,
    /// The private step: PM query perturbation or WD strategy
    /// reconstruction (noise is drawn here, at submit time).
    Perturb,
    /// Parked in the coalescer queue waiting for a group-commit drain.
    QueueWait,
    /// The (possibly fused, possibly W-histogram) evaluation scan.
    FusedScan,
    /// Stale-version barrier + reservation commit + cache insert.
    Commit,
}

/// Number of stages (the span array length).
pub const STAGE_COUNT: usize = 8;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Admission,
        Stage::Canon,
        Stage::CacheProbe,
        Stage::BudgetReserve,
        Stage::Perturb,
        Stage::QueueWait,
        Stage::FusedScan,
        Stage::Commit,
    ];

    /// Stable snake_case name (Prometheus label / JSONL key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::Canon => "canon",
            Stage::CacheProbe => "cache_probe",
            Stage::BudgetReserve => "budget_reserve",
            Stage::Perturb => "perturb",
            Stage::QueueWait => "queue_wait",
            Stage::FusedScan => "fused_scan",
            Stage::Commit => "commit",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// What kind of request the traced span served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A single PM query (`Request::Pm`).
    Pm,
    /// A WD workload (`Request::Wd`).
    Wd,
    /// A fused PM batch (`Request::PmBatch`).
    PmBatch,
    /// A router cross-shard fan-out (the parent span of the per-shard
    /// `pm_batch` spans it spawns).
    Fanout,
    /// One gate wire request (the root span of a streamed timeline).
    Gate,
}

impl RequestKind {
    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Pm => "pm",
            RequestKind::Wd => "wd",
            RequestKind::PmBatch => "pm_batch",
            RequestKind::Fanout => "fanout",
            RequestKind::Gate => "gate",
        }
    }

    fn from_u8(v: u8) -> RequestKind {
        match v {
            1 => RequestKind::Wd,
            2 => RequestKind::PmBatch,
            3 => RequestKind::Fanout,
            4 => RequestKind::Gate,
            _ => RequestKind::Pm,
        }
    }
}

/// How the traced request completed. Only *answered* requests land in the
/// ring — refusals are the audit trail's subject, not the span ring's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Fresh answer, budget committed.
    Ok,
    /// Replayed from the answer cache at zero cost.
    Cached,
    /// Data-independent exact answer (unsatisfiable query) at zero cost.
    Free,
}

impl TraceOutcome {
    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Cached => "cached",
            TraceOutcome::Free => "free",
        }
    }

    fn from_u8(v: u8) -> TraceOutcome {
        match v {
            1 => TraceOutcome::Cached,
            2 => TraceOutcome::Free,
            _ => TraceOutcome::Ok,
        }
    }
}

/// Tenant names are stored inline in the fixed-size ring slot; longer
/// names are truncated at a char boundary (the audit trail keeps the full
/// name — the ring trades fidelity for lock-freedom).
const TENANT_BYTES: usize = 24;

/// One completed request span: request-level `[start, end]` plus a
/// `[start, end]` pair per recorded stage. Plain data, cheap to clone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The fleet-wide trace id: the wire request id for front-door
    /// traffic (every span of one routed request shares it), a
    /// process-unique monotone id for internal traffic.
    pub trace_id: u64,
    /// Process-unique id of *this* span (monotone allocation order).
    pub span_id: u64,
    /// Span id of the parent span (0 = root). Parent/child links let an
    /// operator reconstruct the gate → router → shard → worker timeline
    /// from the streamed spans of one trace id.
    pub parent_span_id: u64,
    /// The endpoint.
    pub kind: RequestKind,
    /// How the request completed.
    pub outcome: TraceOutcome,
    /// True iff the request parked in the coalescer queue.
    pub queued: bool,
    /// Request start, ns since the process epoch.
    pub start_ns: u64,
    /// Request end, ns since the process epoch.
    pub end_ns: u64,
    stages: [(u64, u64); STAGE_COUNT],
    tenant: [u8; TENANT_BYTES],
    tenant_len: u8,
}

impl TraceRecord {
    /// The `[start, end]` of one stage, ns since the process epoch
    /// (`None` when the stage did not run for this request).
    pub fn stage(&self, stage: Stage) -> Option<(u64, u64)> {
        let (s, e) = self.stages[stage.index()];
        (s != 0 || e != 0).then_some((s, e))
    }

    /// The tenant name (possibly truncated to the slot width).
    pub fn tenant(&self) -> &str {
        std::str::from_utf8(&self.tenant[..self.tenant_len as usize]).unwrap_or("")
    }

    /// End-to-end request duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span as a JSON object (one slow-query-log / JSONL line).
    pub fn to_json(&self) -> Json {
        let stages: Vec<(String, Json)> = Stage::ALL
            .iter()
            .filter_map(|&s| {
                self.stage(s).map(|(b, e)| {
                    (
                        s.name().to_string(),
                        Json::obj(vec![
                            ("start_ns", Json::Num(b as f64)),
                            ("end_ns", Json::Num(e as f64)),
                        ]),
                    )
                })
            })
            .collect();
        Json::obj(vec![
            ("trace_id", Json::Num(self.trace_id as f64)),
            ("span_id", Json::Num(self.span_id as f64)),
            ("parent_span_id", Json::Num(self.parent_span_id as f64)),
            ("kind", Json::Str(self.kind.name().to_string())),
            ("tenant", Json::Str(self.tenant().to_string())),
            ("outcome", Json::Str(self.outcome.name().to_string())),
            ("queued", Json::Num(f64::from(u8::from(self.queued)))),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
            ("duration_ns", Json::Num(self.duration_ns() as f64)),
            ("stages", Json::Obj(stages)),
        ])
    }
}

fn truncate_tenant(tenant: &str) -> ([u8; TENANT_BYTES], u8) {
    let mut end = tenant.len().min(TENANT_BYTES);
    while end > 0 && !tenant.is_char_boundary(end) {
        end -= 1;
    }
    let mut bytes = [0u8; TENANT_BYTES];
    bytes[..end].copy_from_slice(&tenant.as_bytes()[..end]);
    (bytes, end as u8)
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
/// Span ids draw from their own counter so a span id can never collide
/// with an internally-allocated trace id (both are process-unique either
/// way; keeping the spaces apart just makes logs less confusing).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// The per-request span under construction: inert stack data carried in
/// the request's work struct. Disabled builders skip the clock entirely.
#[derive(Debug)]
pub struct TraceBuilder {
    enabled: bool,
    trace_id: u64,
    span_id: u64,
    parent_span_id: u64,
    request_id: u64,
    kind: RequestKind,
    queued: bool,
    start_ns: u64,
    stages: [(u64, u64); STAGE_COUNT],
    tenant: [u8; TENANT_BYTES],
    tenant_len: u8,
}

impl TraceBuilder {
    /// Starts a span (stamping the request start when enabled). A non-zero
    /// ambient trace context ([`crate::reqid`], set by the network front
    /// door around its submit call and re-entered by the router inside its
    /// fan-out workers) supplies the span's trace id and parent span id,
    /// so wire traffic is correlated by the id the client saw and child
    /// spans link to the span that spawned them; internal traffic keeps
    /// process-unique monotone trace ids and parentless spans. Every
    /// enabled span gets a fresh process-unique span id.
    pub fn start(kind: RequestKind, tenant: &str, enabled: bool) -> TraceBuilder {
        let (tenant, tenant_len) =
            if enabled { truncate_tenant(tenant) } else { ([0; TENANT_BYTES], 0) };
        let ctx =
            if enabled { crate::reqid::current_trace_context() } else { TraceContext::default() };
        let trace_id = if enabled {
            match ctx.trace_id {
                0 => NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
                ambient => ambient,
            }
        } else {
            0
        };
        TraceBuilder {
            enabled,
            trace_id,
            span_id: if enabled { NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed) } else { 0 },
            parent_span_id: ctx.parent_span_id,
            request_id: ctx.request_id,
            kind,
            queued: false,
            start_ns: if enabled { now_ns() } else { 0 },
            stages: [(0, 0); STAGE_COUNT],
            tenant,
            tenant_len,
        }
    }

    /// The span's trace id (0 when disabled).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The span's own id (0 when disabled).
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// The trace context a *child* of this span should run under: same
    /// request and trace ids, this span as the parent. The router enters
    /// it ([`crate::reqid::TraceContextScope`]) inside each fan-out worker
    /// so shard spans link back to the fan-out span.
    pub fn child_context(&self) -> TraceContext {
        TraceContext {
            request_id: self.request_id,
            trace_id: self.trace_id,
            parent_span_id: self.span_id,
        }
    }

    /// Times `f` as `stage`. The closure always runs; a disabled builder
    /// adds only the branch.
    pub fn stage<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let begin = now_ns();
        let out = f();
        self.stages[stage.index()] = (begin, now_ns());
        out
    }

    /// Opens a stage that ends on another thread (the coalescer queue
    /// wait: begun at submit, ended by the draining worker).
    pub fn stage_begin(&mut self, stage: Stage) {
        if self.enabled {
            self.stages[stage.index()] = (now_ns(), 0);
        }
    }

    /// Closes a [`TraceBuilder::stage_begin`]-opened stage.
    pub fn stage_end(&mut self, stage: Stage) {
        if self.enabled {
            self.stages[stage.index()].1 = now_ns();
        }
    }

    /// Marks the request as having parked in the coalescer queue.
    pub fn mark_queued(&mut self) {
        self.queued = true;
    }

    /// Stamps the end time and outcome. `None` when disabled. Public so
    /// non-`Service` components (the gate's root span, the router's
    /// fan-out span) can close spans they started through a hub's
    /// [`crate::Telemetry::trace_finish`]-equivalent path.
    pub fn finish(mut self, outcome: TraceOutcome) -> Option<TraceRecord> {
        if !self.enabled {
            return None;
        }
        // A stage begun but never ended (e.g. a queue wait whose drain
        // raced the snapshot) closes at the request end so records always
        // nest.
        let end_ns = now_ns();
        for span in &mut self.stages {
            if span.0 != 0 && span.1 == 0 {
                span.1 = end_ns;
            }
        }
        Some(TraceRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
            kind: self.kind,
            outcome,
            queued: self.queued,
            start_ns: self.start_ns,
            end_ns,
            stages: self.stages,
            tenant: self.tenant,
            tenant_len: self.tenant_len,
        })
    }
}

// ---- the ring --------------------------------------------------------------

/// Atomic words per slot: version + trace/span/parent ids + meta + start +
/// end + 3 tenant words + 2 words per stage.
const TENANT_WORDS: usize = TENANT_BYTES / 8;

struct Slot {
    /// Seqlock version: even = stable, odd = mid-write. Writers bump it
    /// around the field stores; readers retry on odd or changed versions.
    version: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_span_id: AtomicU64,
    /// Packed `kind | outcome << 8 | queued << 16 | tenant_len << 24`.
    meta: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    tenant: [AtomicU64; TENANT_WORDS],
    stages: [AtomicU64; STAGE_COUNT * 2],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_span_id: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
            tenant: std::array::from_fn(|_| AtomicU64::new(0)),
            stages: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot").field("version", &self.version.load(Ordering::Relaxed)).finish()
    }
}

/// The lock-free fixed-capacity span ring. Writers claim slots with one
/// `fetch_add` on the cursor and publish behind per-slot seqlock
/// versions; the ring keeps the most recent `capacity` completed
/// requests. Readers ([`SpanRing::snapshot`]) are wait-free with respect
/// to writers: a slot caught mid-write is skipped, never blocked on.
#[derive(Debug)]
pub struct SpanRing {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
}

impl SpanRing {
    /// A ring of `capacity` slots (clamped to ≥ 1).
    pub fn new(capacity: usize) -> SpanRing {
        let capacity = capacity.max(1);
        SpanRing {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records written so far (monotone; `recorded − capacity`
    /// records have been overwritten when positive).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Publishes one completed record into its claimed slot.
    pub fn record(&self, record: &TraceRecord) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        // Odd = write in progress. `Release` orders the field stores after
        // the bump for the reader's `Acquire` pairing.
        slot.version.fetch_add(1, Ordering::Release);
        slot.trace_id.store(record.trace_id, Ordering::Relaxed);
        slot.span_id.store(record.span_id, Ordering::Relaxed);
        slot.parent_span_id.store(record.parent_span_id, Ordering::Relaxed);
        let meta = u64::from(record.kind as u8)
            | (u64::from(record.outcome as u8) << 8)
            | (u64::from(u8::from(record.queued)) << 16)
            | (u64::from(record.tenant_len) << 24);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.start_ns.store(record.start_ns, Ordering::Relaxed);
        slot.end_ns.store(record.end_ns, Ordering::Relaxed);
        for (wi, word) in slot.tenant.iter().enumerate() {
            let mut packed = 0u64;
            for b in 0..8 {
                packed |= u64::from(record.tenant[wi * 8 + b]) << (8 * b);
            }
            word.store(packed, Ordering::Relaxed);
        }
        for (si, span) in record.stages.iter().enumerate() {
            slot.stages[si * 2].store(span.0, Ordering::Relaxed);
            slot.stages[si * 2 + 1].store(span.1, Ordering::Relaxed);
        }
        slot.version.fetch_add(1, Ordering::Release);
    }

    fn read_slot(&self, index: usize) -> Option<TraceRecord> {
        let slot = &self.slots[index];
        for _ in 0..4 {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 % 2 == 1 {
                // Never written, or a writer is mid-publish.
                if v1 == 0 {
                    return None;
                }
                continue;
            }
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            let span_id = slot.span_id.load(Ordering::Relaxed);
            let parent_span_id = slot.parent_span_id.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let end_ns = slot.end_ns.load(Ordering::Relaxed);
            let mut tenant = [0u8; TENANT_BYTES];
            for (wi, word) in slot.tenant.iter().enumerate() {
                let packed = word.load(Ordering::Relaxed);
                for (b, byte) in tenant[wi * 8..][..8].iter_mut().enumerate() {
                    *byte = (packed >> (8 * b)) as u8;
                }
            }
            let mut stages = [(0u64, 0u64); STAGE_COUNT];
            for (si, span) in stages.iter_mut().enumerate() {
                span.0 = slot.stages[si * 2].load(Ordering::Relaxed);
                span.1 = slot.stages[si * 2 + 1].load(Ordering::Relaxed);
            }
            let v2 = slot.version.load(Ordering::Acquire);
            if v1 == v2 {
                let tenant_len = ((meta >> 24) as u8).min(TENANT_BYTES as u8);
                return Some(TraceRecord {
                    trace_id,
                    span_id,
                    parent_span_id,
                    kind: RequestKind::from_u8(meta as u8),
                    outcome: TraceOutcome::from_u8((meta >> 8) as u8),
                    queued: (meta >> 16) & 1 == 1,
                    start_ns,
                    end_ns,
                    stages,
                    tenant,
                    tenant_len,
                });
            }
        }
        None
    }

    /// The most recent up-to-`capacity` records, oldest first. Slots
    /// caught mid-write are skipped rather than waited on.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let cursor = self.cursor.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let written = cursor.min(cap);
        let first = cursor - written;
        (first..cursor).filter_map(|seq| self.read_slot((seq % cap) as usize)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tenant: &str, kind: RequestKind) -> TraceRecord {
        let mut b = TraceBuilder::start(kind, tenant, true);
        b.stage(Stage::Admission, || ());
        b.stage_begin(Stage::QueueWait);
        b.stage_end(Stage::QueueWait);
        b.mark_queued();
        b.finish(TraceOutcome::Ok).expect("enabled builder yields a record")
    }

    #[test]
    fn builder_spans_are_balanced_and_nested() {
        let r = record("tenant-x", RequestKind::Pm);
        assert!(r.start_ns <= r.end_ns);
        for stage in Stage::ALL {
            if let Some((s, e)) = r.stage(stage) {
                assert!(s <= e, "{stage:?} start after end");
                assert!(r.start_ns <= s && e <= r.end_ns, "{stage:?} escapes the request span");
            }
        }
        assert!(r.stage(Stage::Admission).is_some());
        assert!(r.stage(Stage::FusedScan).is_none());
        assert!(r.queued);
    }

    #[test]
    fn ring_round_trips_records_in_order() {
        let ring = SpanRing::new(8);
        for i in 0..5 {
            ring.record(&record(&format!("t{i}"), RequestKind::Wd));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 5);
        let tenants: Vec<&str> = got.iter().map(TraceRecord::tenant).collect();
        assert_eq!(tenants, ["t0", "t1", "t2", "t3", "t4"]);
        assert!(got.windows(2).all(|w| w[0].trace_id < w[1].trace_id), "oldest first");
        assert_eq!(got[0].kind, RequestKind::Wd);
    }

    #[test]
    fn ring_overwrites_oldest_past_capacity() {
        let ring = SpanRing::new(4);
        for i in 0..10 {
            ring.record(&record(&format!("t{i}"), RequestKind::Pm));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 4);
        let tenants: Vec<&str> = got.iter().map(TraceRecord::tenant).collect();
        assert_eq!(tenants, ["t6", "t7", "t8", "t9"]);
        assert_eq!(ring.recorded(), 10);
    }

    #[test]
    fn long_tenant_names_truncate_at_char_boundaries() {
        let long = "αβγδεζηθικλμνξοπρστυ"; // 2 bytes per char, 40 bytes total
        let r = record(long, RequestKind::Pm);
        assert!(r.tenant().len() <= TENANT_BYTES);
        assert!(long.starts_with(r.tenant()));
        assert!(!r.tenant().is_empty());
    }

    #[test]
    fn concurrent_writers_never_corrupt_readers() {
        let ring = std::sync::Arc::new(SpanRing::new(16));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let ring = std::sync::Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..200 {
                        ring.record(&record(&format!("w{t}-{i}"), RequestKind::Pm));
                    }
                });
            }
            for _ in 0..50 {
                for r in ring.snapshot() {
                    // Every surviving read is internally consistent.
                    assert!(r.start_ns <= r.end_ns);
                    assert!(r.tenant().starts_with('w'));
                }
            }
        });
        assert_eq!(ring.recorded(), 800);
        assert_eq!(ring.snapshot().len(), 16);
    }

    #[test]
    fn record_serializes_to_json() {
        let r = record("t", RequestKind::PmBatch);
        let json = r.to_json().render();
        assert!(json.contains("\"kind\": \"pm_batch\""));
        assert!(json.contains("\"span_id\""));
        assert!(json.contains("\"parent_span_id\""));
        assert!(json.contains("\"admission\""));
        assert!(!json.contains("fused_scan"), "absent stages are omitted");
        assert!(Json::parse(&json).is_ok());
    }

    #[test]
    fn spans_inherit_the_ambient_trace_context() {
        use crate::reqid::{TraceContext, TraceContextScope};
        let parent = TraceBuilder::start(RequestKind::Pm, "t", true);
        assert_eq!(parent.child_context().parent_span_id, parent.span_id());
        let _scope = TraceContextScope::enter(TraceContext {
            request_id: 42,
            trace_id: 42,
            parent_span_id: parent.span_id(),
        });
        let child = TraceBuilder::start(RequestKind::PmBatch, "t", true);
        let r = child.finish(TraceOutcome::Ok).expect("enabled");
        assert_eq!(r.trace_id, 42, "trace id comes from the ambient context");
        assert_eq!(r.parent_span_id, parent.span_id());
        assert_ne!(r.span_id, parent.span_id(), "every span gets its own id");
        assert_ne!(r.span_id, 0);
    }

    #[test]
    fn disabled_builders_ignore_the_ambient_context() {
        use crate::reqid::WireRequestScope;
        let _scope = WireRequestScope::enter(99);
        let b = TraceBuilder::start(RequestKind::Pm, "t", false);
        assert_eq!(b.trace_id(), 0);
        assert_eq!(b.span_id(), 0);
        assert!(b.finish(TraceOutcome::Ok).is_none());
    }
}
