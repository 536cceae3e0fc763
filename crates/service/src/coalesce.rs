//! The group-commit scan coalescer: a queued front door that fuses
//! concurrent single-query traffic into shared fact scans.
//!
//! An explicit batch shares one fact scan, but N tenants concurrently
//! asking one question each would pay N scans. The coalescer closes that
//! gap with the group-commit idiom (as in write-ahead logging): single PM
//! and WD submits park in a bounded queue, and a small worker pool drains
//! it — after the hold window elapses or 64 requests pile up —
//! partitions the drained requests by compatibility, and answers each
//! partition through **one** fused scan, waking every caller with its own
//! answer. The window is *adaptive*: EWMAs over arrival gaps and queue
//! depth collapse it to zero when traffic is too sparse or too serial to
//! coalesce (idle and single-client requests stop paying the window tax)
//! and stretch it — up to [`crate::ServiceConfig::coalesce_window_max`] —
//! under genuinely concurrent burst. The queue's sizes and the worker
//! count are constants: batching never changes an answer or a ledger.
//!
//! # Why coalescing is invisible to DP semantics
//!
//! Everything privacy-relevant happens at **submit time, on the caller's
//! thread, in arrival order**: admission, canonicalization (free
//! unsatisfiable answers), cache lookup, the atomic budget reservation, the
//! per-request RNG derivation, and the *perturbation itself* (PM's noisy
//! query / WD's reconstructed weighted rows). What parks in the queue is
//! already a fixed, noisy artifact; the worker merely *evaluates* it, and
//! evaluating a fixed noisy query is post-processing — it spends nothing
//! and can be fused, reordered, or histogram-factored freely. Hence:
//!
//! * **answers** are bit-identical to the sequential path (the fused kernel
//!   accumulates each query exactly as a solo scan would);
//! * **budget ledgers** end in exactly the same state (reserve at submit,
//!   commit at wake, identical amounts — no double-charge, no free ride);
//! * **RNG draw order** is unchanged (derived per request from the arrival
//!   counter before anything parks).
//!
//! `tests/prop_coalesce.rs` pins all three down property-style.
//!
//! # Partitioning
//!
//! A drained batch first refuses every job whose data version is stale,
//! then splits by compatibility, preserving arrival order within each
//! partition:
//!
//! * **PM requests** fuse into one
//!   [`ScanPlan::execute`](starj_engine::ScanPlan) scan — binary queries of
//!   any aggregate/grouping mix safely, because per-query accumulation is
//!   independent. Members a cached W histogram covers are answered from it
//!   ([`crate::wcache`]) and leave the scan, as do covered members past
//!   the cache's cap when enough of them share an axis set to pay for one
//!   transient W.
//! * **WD requests** group by normalized axis set. A
//!   partition whose joint code space fits the dense cap answers through
//!   the shared [`WeightHistogram`](starj_engine::WeightHistogram) — built
//!   once (one scan) and cached in [`crate::wcache`], so warm traffic is
//!   scan-free. Axis sets past the cache's cap fall back to one
//!   `execute_weighted_batch` call, whose single row loop accumulates
//!   each query on its own, so answers do not depend on batch composition.

use crate::error::ServiceError;
use crate::metrics::ServiceMetrics;
use crate::service::{Answer, ServiceCore, Work};
use starj_durable::FaultKind;
use starj_telemetry::{cost_counters, CostCounters, Stage};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One parked request: its work unit and the slot its answer fills.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) work: Work,
    pub(crate) slot: SlotHandle<Answer>,
}

impl Job {
    /// Refuses the job with a typed error. Dropping the carried work unit
    /// drops its un-committed reservation, so the refusal refunds
    /// automatically (RAII) — and the drop comes before the fill, so the
    /// woken caller can never read its ledger pre-refund.
    fn fail(self, err: ServiceError) {
        let Job { work, slot } = self;
        drop(work);
        slot.fill(Err(err));
    }
}

// ---- pending answers ------------------------------------------------------

#[derive(Debug)]
struct Slot<T> {
    value: Mutex<Option<Result<T, ServiceError>>>,
    ready: Condvar,
}

/// The waiting half of a parked request: blocks until a coalescer worker
/// fills in the answer. Returned by [`crate::Service::submit`] inside
/// [`Submitted::Queued`].
#[derive(Debug)]
pub struct Pending<T> {
    slot: Arc<Slot<T>>,
}

/// The filling half, carried by the parked job. Dropping it unfilled (a
/// worker panicking mid-batch, a job discarded on shutdown) fills a typed
/// error instead, so a caller blocked in [`Pending::wait`] can never be
/// stranded.
#[derive(Debug)]
pub(crate) struct SlotHandle<T> {
    slot: Arc<Slot<T>>,
    filled: bool,
}

pub(crate) fn pending_pair<T>() -> (Pending<T>, SlotHandle<T>) {
    let slot = Arc::new(Slot { value: Mutex::new(None), ready: Condvar::new() });
    (Pending { slot: Arc::clone(&slot) }, SlotHandle { slot, filled: false })
}

impl<T> Pending<T> {
    /// Blocks until the request is answered (or failed) by a worker.
    pub fn wait(self) -> Result<T, ServiceError> {
        let mut value = self.slot.value.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = value.take() {
                return result;
            }
            value = self.slot.ready.wait(value).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks until the request is answered or `timeout` passes, whichever
    /// comes first; true iff the answer is in (so [`Pending::wait`] will
    /// not block).
    pub fn ready_within(&self, timeout: Duration) -> bool {
        let value = self.slot.value.lock().unwrap_or_else(|e| e.into_inner());
        let waited = self.slot.ready.wait_timeout_while(value, timeout, |v| v.is_none());
        waited.unwrap_or_else(|e| e.into_inner()).0.is_some()
    }
}

impl<T> SlotHandle<T> {
    pub(crate) fn fill(mut self, result: Result<T, ServiceError>) {
        self.set(result);
    }

    fn set(&mut self, result: Result<T, ServiceError>) {
        self.filled = true;
        *self.slot.value.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
        self.slot.ready.notify_all();
    }
}

impl<T> Drop for SlotHandle<T> {
    fn drop(&mut self) {
        // A handle dropped unfilled means the worker unwound (panicked)
        // before answering: wake the parked caller with a typed internal
        // refusal. The job's reservation refunds alongside via its own
        // RAII drop, so the caller can safely resubmit.
        if !self.filled {
            self.set(Err(ServiceError::Internal(
                "coalescer worker panicked before answering this request; \
                 the budget reservation was refunded"
                    .into(),
            )));
        }
    }
}

/// The outcome of a submit: answered on the spot (free, cached, or the
/// coalescer is disabled) or parked for a group-commit drain.
#[derive(Debug)]
pub enum Submitted<T> {
    /// Answered synchronously at submit time.
    Ready(T),
    /// Parked; [`Pending::wait`] blocks for the worker.
    Queued(Pending<T>),
}

impl<T> Submitted<T> {
    /// The answer, blocking if it is still queued.
    pub fn wait(self) -> Result<T, ServiceError> {
        match self {
            Submitted::Ready(v) => Ok(v),
            Submitted::Queued(p) => p.wait(),
        }
    }

    /// True iff the request parked in the coalescer queue.
    pub fn is_queued(&self) -> bool {
        matches!(self, Submitted::Queued(_))
    }
}

// ---- the fair queue -------------------------------------------------------

/// A multi-tenant fair queue: one FIFO lane per tenant, drained round-robin.
///
/// FIFO across all tenants (the original design) lets one flooding tenant
/// put its whole backlog in front of everybody else's single requests. The
/// fair queue fixes both halves of that:
///
/// * **round-robin drain** — a drain takes one job per tenant per rotation
///   (arrival order preserved *within* each tenant's lane), and the
///   rotation cursor persists across drains, so under contention every
///   tenant's head-of-line job is at most one rotation from service;
/// * **per-tenant cap** — enqueue blocks a tenant whose own lane is at
///   [`TENANT_LANE_CAP`], while other tenants keep enqueueing freely; the
///   flooder backpressures itself instead of the fleet.
///
/// Reordering jobs across tenants is invisible to DP semantics: everything
/// privacy-relevant (RNG by arrival index, perturbation, reservation)
/// already happened at submit time, so answers and ledgers stay
/// bit-identical to any other drain order (`tests/prop_coalesce.rs`).
#[derive(Debug, Default)]
pub(crate) struct FairQueue {
    /// Per-tenant FIFO lanes. Lanes are removed when emptied, bounding the
    /// map by the number of tenants with parked work.
    lanes: HashMap<String, VecDeque<Job>>,
    /// Tenants with non-empty lanes, in round-robin rotation order. A lane
    /// that empties leaves the rotation; a tenant whose lane goes from
    /// empty to non-empty joins at the tail.
    rotation: VecDeque<String>,
    len: usize,
}

impl FairQueue {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Jobs currently parked for one tenant.
    pub(crate) fn tenant_len(&self, tenant: &str) -> usize {
        self.lanes.get(tenant).map_or(0, VecDeque::len)
    }

    pub(crate) fn push(&mut self, job: Job) {
        let tenant = job.work.tenant.clone();
        let lane = self.lanes.entry(tenant.clone()).or_default();
        if lane.is_empty() {
            self.rotation.push_back(tenant);
        }
        lane.push_back(job);
        self.len += 1;
    }

    /// Takes up to `max` jobs, one per tenant per rotation. The rotation
    /// cursor carries across calls: a tenant served this drain goes to the
    /// back of the line for the next one.
    pub(crate) fn drain_round_robin(&mut self, max: usize) -> Vec<Job> {
        let mut out = Vec::with_capacity(max.min(self.len));
        while out.len() < max {
            let Some(tenant) = self.rotation.pop_front() else { break };
            let lane = self.lanes.get_mut(&tenant).expect("rotation tracks live lanes");
            out.push(lane.pop_front().expect("rotation holds only non-empty lanes"));
            self.len -= 1;
            if lane.is_empty() {
                self.lanes.remove(&tenant);
            } else {
                self.rotation.push_back(tenant);
            }
        }
        out
    }
}

// ---- the queue and worker pool --------------------------------------------

/// Coalescer worker threads.
const WORKERS: usize = 2;

/// The largest drain (and fused batch); a queue this deep ends a hold early.
const MAX_BATCH: usize = 64;

/// Jobs parked across all tenants; submitters block while it is full.
const QUEUE_CAP: usize = 4096;

/// Jobs one tenant may park; a tenant at its cap blocks only itself.
pub const TENANT_LANE_CAP: usize = 256;

/// Arrival gap at or above which the adaptive window stays collapsed, and
/// a cold coalescer's window (both bounded by `coalesce_window_max`).
const IDLE_GAP: Duration = Duration::from_micros(200);

/// EWMA smoothing factor for the arrival-gap estimate: each new gap
/// contributes 20%, so the estimate settles within a handful of arrivals
/// without chasing every jittery gap.
const EWMA_ALPHA: f64 = 0.2;

/// How many expected arrival gaps the adaptive window holds a drain open
/// for: long enough to accumulate a meaningful fused batch under burst,
/// short enough that the wait stays proportional to the traffic itself.
const WINDOW_STRETCH: f64 = 8.0;

/// Queue-depth EWMA above which the adaptive window may open. A lone
/// client — however fast — sees depth 1 at every one of its own enqueues
/// (the queue drains before it returns), so gap speed alone cannot
/// distinguish "one fast client" (fusing gains nothing, the hold is pure
/// latency tax) from "many concurrent clients" (fusing shines). Depth can:
/// concurrent traffic piles jobs behind the window, pushing the average
/// depth above 1. Requiring the EWMA to clear this threshold keeps a
/// single-client stream permanently collapsed instead of oscillating
/// open (latency grows) → gaps widen → closed (latency shrinks) → open.
const DEPTH_OPEN: f64 = 1.25;

#[derive(Debug, Default)]
struct QueueState {
    queue: FairQueue,
    shutdown: bool,
    /// Previous enqueue instant — the raw signal the adaptive window
    /// derives arrival gaps from (`None` until the first arrival).
    last_arrival: Option<Instant>,
    /// EWMA of inter-arrival gaps in nanoseconds (0 until two arrivals).
    ewma_gap_ns: f64,
    /// EWMA of the queue depth observed at each enqueue (including the
    /// arriving job) — the concurrency signal gating [`DEPTH_OPEN`].
    ewma_depth: f64,
    /// The current adaptive group-commit window.
    window: Duration,
    /// Set by a [`FaultKind::Hold`] at the `coalesce.enqueue` site: no
    /// worker drains until the queue holds this many jobs (or shutdown).
    hold: Option<usize>,
}

impl QueueState {
    /// Folds one arrival (its gap and the queue depth it observed) into
    /// the EWMAs and re-derives the effective window (under the queue lock).
    ///
    /// A drain stays open only while *both* signals say fusing can pay:
    /// arrivals tight enough that a hold of [`IDLE_GAP`] would capture a
    /// second request (EWMA gap below it), **and** genuinely concurrent
    /// traffic (EWMA depth at or above [`DEPTH_OPEN`]; a lone client always
    /// measures depth 1 and never earns a hold). Otherwise the window
    /// collapses to zero and idle requests stop paying the window tax. When
    /// it opens, it stretches to [`WINDOW_STRETCH`] expected gaps, bounded
    /// by `max` (zero never holds), so bursts fill fused batches. Window
    /// choice only regroups batches, so it never touches DP semantics.
    fn note_arrival(&mut self, now: Instant, depth: usize, max: Duration) {
        let depth = depth.max(1) as f64;
        let threshold = IDLE_GAP.min(max);
        let Some(prev) = self.last_arrival.replace(now) else {
            // First arrival: no gap signal yet.
            self.ewma_depth = depth;
            self.window = threshold;
            return;
        };
        let gap = now.saturating_duration_since(prev).as_nanos() as f64;
        self.ewma_gap_ns = if self.ewma_gap_ns == 0.0 {
            gap
        } else {
            (1.0 - EWMA_ALPHA) * self.ewma_gap_ns + EWMA_ALPHA * gap
        };
        self.ewma_depth = (1.0 - EWMA_ALPHA) * self.ewma_depth + EWMA_ALPHA * depth;
        let next =
            if self.ewma_gap_ns >= threshold.as_nanos() as f64 || self.ewma_depth < DEPTH_OPEN {
                Duration::ZERO
            } else {
                Duration::from_nanos((self.ewma_gap_ns * WINDOW_STRETCH) as u64).min(max)
            };
        if next != self.window {
            self.window = next;
            CostCounters::add(&cost_counters().window_adjustments, 1);
        }
    }

    /// True iff a worker may drain now: there is work, and no hold is
    /// waiting for more of it (shutdown releases any hold).
    fn drainable(&self) -> bool {
        !self.queue.is_empty()
            && (self.shutdown || self.hold.is_none_or(|depth| self.queue.len() >= depth))
    }
}

#[derive(Debug)]
struct Shared {
    state: Mutex<QueueState>,
    /// Workers wait here for arrivals (and shutdown).
    arrived: Condvar,
    /// Submitters wait here for queue space (bounded queue backpressure).
    drained: Condvar,
}

/// The queue plus its worker pool. Owned by [`crate::Service`]; dropping it
/// drains every remaining request and joins the workers, so no caller is
/// ever left waiting on an unfilled slot.
#[derive(Debug)]
pub(crate) struct Coalescer {
    core: Arc<ServiceCore>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Coalescer {
    pub(crate) fn start(core: Arc<ServiceCore>) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState::default()),
            arrived: Condvar::new(),
            drained: Condvar::new(),
        });
        let workers = (0..WORKERS)
            .map(|i| {
                let core = Arc::clone(&core);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("starj-coalesce-{i}"))
                    .spawn(move || worker_loop(&core, &shared))
                    .expect("spawn coalescer worker")
            })
            .collect();
        Coalescer { core, shared, workers }
    }

    /// Parks a job, blocking while the bounded queue is full — globally, or
    /// for this job's tenant lane (the per-tenant cap backpressures a
    /// flooding tenant without blocking anyone else's submits).
    pub(crate) fn enqueue(&self, job: Job) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        while (state.queue.len() >= QUEUE_CAP
            || state.queue.tenant_len(&job.work.tenant) >= TENANT_LANE_CAP)
            && !state.shutdown
        {
            state = self.shared.drained.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        // Fault seam: a Hold keeps jobs parked until the queue is that deep.
        let config = &self.core.config;
        if let Some(plan) = &config.fault {
            if let Some(FaultKind::Hold { depth }) = plan.trip("coalesce.enqueue") {
                state.hold = Some(depth);
            }
        }
        state.queue.push(job);
        let depth = state.queue.len();
        state.note_arrival(Instant::now(), depth, config.coalesce_window_max);
        drop(state);
        self.shared.arrived.notify_all();
    }
}

impl Drop for Coalescer {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner()).shutdown = true;
        self.shared.arrived.notify_all();
        self.shared.drained.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One worker: wait for drainable work, give the group-commit window a
/// chance to fill the batch, drain up to [`MAX_BATCH`], answer, repeat.
/// Queue state is re-checked after every wakeup and after the window, so
/// no arrival is lost and an emptied or re-held queue is never drained.
fn worker_loop(core: &Arc<ServiceCore>, shared: &Arc<Shared>) {
    loop {
        let batch: Vec<Job> = {
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                while !state.drainable() {
                    if state.shutdown {
                        return;
                    }
                    state = shared.arrived.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                // Hold the drain for the window the arrival stream has
                // earned so far (re-read each drain, so a traffic shift
                // takes effect on the very next batch) so concurrent
                // traffic can pile into one fused scan.
                let window = state.window;
                if !window.is_zero() {
                    let fill = |s: &mut QueueState| s.queue.len() < MAX_BATCH && !s.shutdown;
                    let waited = shared.arrived.wait_timeout_while(state, window, fill);
                    state = waited.unwrap_or_else(|e| e.into_inner()).0;
                }
                if state.drainable() {
                    break;
                }
            }
            state.hold = None;
            state.queue.drain_round_robin(MAX_BATCH)
        };
        shared.drained.notify_all();
        // A panic while answering must not kill the worker: the batch's
        // jobs drop inside the unwind — refunding each reservation (RAII)
        // and error-filling each slot (SlotHandle::drop) — and the worker
        // lives on to serve the next drain. (Unwind safety: all shared
        // state is poison-recovering locks, atomics, or immutable data.)
        let run = std::panic::AssertUnwindSafe(|| process_batch(core, batch));
        let _ = std::panic::catch_unwind(run);
    }
}

/// Answers one drained batch: partition by compatibility (arrival order
/// preserved within each partition), one fused scan per partition.
pub(crate) fn process_batch(core: &ServiceCore, jobs: Vec<Job>) {
    if jobs.is_empty() {
        return;
    }
    // Fault seam: the panic-containment regression test arms a Panic here
    // to prove the unwind refunds every reservation, error-fills every
    // slot, and leaves the worker alive for the next drain.
    if let Some(plan) = &core.config.fault {
        plan.trip("coalesce.drain");
    }
    ServiceMetrics::add(&core.metrics.coalesced_requests, jobs.len() as u64);
    ServiceMetrics::inc(&core.metrics.coalesced_batches);

    // Stale-version refusal, fast path: a `refresh_schema` that landed
    // while these jobs were queued means their submit-time snapshot is no
    // longer what the service serves, so refuse them before wasting a scan
    // (typed error; the work unit drops un-committed, refunding the
    // reservation). This filter alone is a check-then-scan race — a
    // refresh can still land *during* the fused scan — so the actual
    // barrier is `ServiceCore::stale_check` at commit time inside
    // `ServiceCore::finish`, which re-reads the version right before the
    // reservation commits. Cache-key isolation alone is not enough either
    // way: it only stops *replays*, not the committed release of an answer
    // computed against the old instance.
    let current = core.snapshot().1;
    let mut partitions: Vec<Vec<Job>> = Vec::new();
    for job in jobs {
        let submitted = job.work.version;
        if submitted != current {
            ServiceMetrics::inc(&core.metrics.stale_refusals);
            job.fail(ServiceError::StaleDataVersion { submitted, current });
            continue;
        }
        match partitions.iter_mut().find(|p| p[0].work.partition() == job.work.partition()) {
            Some(partition) => partition.push(job),
            None => partitions.push(vec![job]),
        }
    }
    for partition in partitions {
        answer_partition(core, partition);
    }
}

/// One fused binary scan (PM) or one shared W histogram / weighted batch
/// (WD) answers every job of a compatible partition; each job then
/// commits and wakes its caller in turn.
fn answer_partition(core: &ServiceCore, mut jobs: Vec<Job>) {
    let mut group: Vec<&mut Work> = jobs
        .iter_mut()
        .map(|job| {
            job.work.trace.stage_end(Stage::QueueWait);
            &mut job.work
        })
        .collect();
    let evaluated = core.evaluate(&mut group);
    for job in jobs {
        match &evaluated {
            Ok(()) => {
                let Job { work, slot } = job;
                slot.fill(core.finish(work));
            }
            Err(e) => job.fail(e.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accountant::{BudgetAccountant, SettlementCtx};
    use crate::cache::{Mechanism, RequestKey};
    use crate::service::ServiceAnswer;
    use starj_engine::{
        canonicalize, Column, Dimension, Domain, QueryResult, StarQuery, StarSchema, Table,
    };
    use starj_noise::PrivacyBudget;

    /// A real PM job for queue-order tests: the slot handle's drop fills a
    /// typed error, so simply dropping drained jobs is fine.
    fn job(accountant: &BudgetAccountant, tenant: &str, name: &str) -> Job {
        let domain = Domain::numeric("c", 2).unwrap();
        let dim = Table::new(
            "D",
            vec![Column::key("pk", vec![0, 1]), Column::attr("c", domain, vec![0, 1])],
        )
        .unwrap();
        let fact = Table::new("F", vec![Column::key("fk", vec![0, 1])]).unwrap();
        let schema =
            Arc::new(StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap());
        let q = StarQuery::count(name);
        let cost = PrivacyBudget::pure(0.1).unwrap();
        let (_, slot) = pending_pair();
        let work = Work {
            tenant: tenant.to_string(),
            cost,
            mechanism: Mechanism::Pm,
            key: RequestKey::Single(canonicalize(&q)),
            reservation: accountant.reserve(tenant, cost, SettlementCtx::default()).unwrap(),
            schema,
            version: 0,
            start: Instant::now(),
            trace: starj_telemetry::TraceBuilder::start(
                starj_telemetry::RequestKind::Pm,
                tenant,
                false,
            ),
            answer: Answer::Pm(ServiceAnswer {
                name: name.to_string(),
                result: QueryResult::Scalar(0.0),
                noisy_query: Some(q),
                cached: false,
                cost: Some(cost),
            }),
            wd: None,
        };
        Job { work, slot }
    }

    fn names(jobs: &[Job]) -> Vec<String> {
        jobs.iter().map(|j| j.work.answer.clone().into_pm().name).collect()
    }

    fn accountant_for(tenants: &[&str]) -> BudgetAccountant {
        let acc = BudgetAccountant::new();
        for t in tenants {
            acc.register(t, PrivacyBudget::pure(100.0).unwrap()).unwrap();
        }
        acc
    }

    #[test]
    fn adaptive_window_collapses_when_idle_and_stretches_under_burst() {
        let max = Duration::from_millis(2);
        let before = cost_counters().snapshot();
        let mut s = QueueState::default();
        let t0 = Instant::now();
        s.note_arrival(t0, 1, max);
        assert_eq!(s.window, IDLE_GAP, "a cold coalescer starts from the idle threshold");
        // Sparse arrivals (1 ms apart, well past the 200 µs threshold):
        // holding a drain open can never capture a second request, so the
        // window collapses to zero.
        let mut t = t0;
        for _ in 0..4 {
            t += Duration::from_millis(1);
            s.note_arrival(t, 1, max);
        }
        assert_eq!(s.window, Duration::ZERO, "idle traffic must not pay the window tax");
        // A concurrent burst (10 µs gaps, 4 jobs deep at each enqueue)
        // re-opens the window, stretched to a few expected gaps — smaller
        // than the cold-start window because the burst itself is that tight.
        for _ in 0..64 {
            t += Duration::from_micros(10);
            s.note_arrival(t, 4, max);
        }
        assert!(!s.window.is_zero(), "concurrent burst traffic re-opens the window");
        assert!(s.window <= max, "the configured bound always holds");
        assert!(s.window < IDLE_GAP, "the window tracks the burst's own gap scale");
        let delta = cost_counters().snapshot().since(&before);
        assert!(delta.window_adjustments >= 2, "collapse and re-open each count");
    }

    #[test]
    fn lone_fast_client_never_earns_a_window() {
        // The oscillation regression: a single client issuing back-to-back
        // requests has tight gaps, but every enqueue sees depth 1 — the
        // depth gate must keep the window collapsed, or the client cycles
        // window-open (latency grows) → gaps widen → window-closed →
        // latency shrinks → re-open, forever.
        let max = Duration::from_millis(2);
        let mut s = QueueState::default();
        let mut t = Instant::now();
        s.note_arrival(t, 1, max);
        for _ in 0..128 {
            t += Duration::from_micros(10);
            s.note_arrival(t, 1, max);
        }
        assert_eq!(s.window, Duration::ZERO, "depth 1 means fusing gains nothing");
    }

    #[test]
    fn adaptive_window_is_capped_by_the_configured_bound() {
        let burst = |max: Duration| {
            let mut s = QueueState::default();
            let mut t = Instant::now();
            s.note_arrival(t, 1, max);
            let cold = s.window;
            // 60 µs gaps, 3 deep: the stretched window (480 µs) is past
            // any bound below it.
            for _ in 0..64 {
                t += Duration::from_micros(60);
                s.note_arrival(t, 3, max);
            }
            (cold, s.window)
        };
        let max = Duration::from_micros(150);
        assert_eq!(burst(max), (max, max), "cold start and burst both respect the cap");
        assert_eq!(burst(Duration::ZERO), (Duration::ZERO, Duration::ZERO), "zero never holds");
    }

    #[test]
    fn drain_is_round_robin_across_tenants_fifo_within() {
        let acc = accountant_for(&["a", "b", "c"]);
        let mut q = FairQueue::default();
        for name in ["a1", "a2", "a3"] {
            q.push(job(&acc, "a", name));
        }
        q.push(job(&acc, "b", "b1"));
        q.push(job(&acc, "c", "c1"));
        assert_eq!(q.len(), 5);
        assert_eq!(q.tenant_len("a"), 3);
        let drained = q.drain_round_robin(10);
        assert_eq!(names(&drained), ["a1", "b1", "c1", "a2", "a3"]);
        assert!(q.is_empty());
    }

    #[test]
    fn rotation_cursor_persists_across_drains() {
        let acc = accountant_for(&["a", "b"]);
        let mut q = FairQueue::default();
        q.push(job(&acc, "a", "a1"));
        q.push(job(&acc, "a", "a2"));
        q.push(job(&acc, "b", "b1"));
        // First drain serves tenant a, so the next drain starts at b even
        // though a still has a parked job.
        assert_eq!(names(&q.drain_round_robin(1)), ["a1"]);
        assert_eq!(names(&q.drain_round_robin(2)), ["b1", "a2"]);
    }

    #[test]
    fn emptied_lane_rejoins_at_the_tail() {
        let acc = accountant_for(&["a", "b"]);
        let mut q = FairQueue::default();
        q.push(job(&acc, "a", "a1"));
        q.push(job(&acc, "b", "b1"));
        assert_eq!(names(&q.drain_round_robin(2)), ["a1", "b1"]);
        // Tenant a left the rotation when its lane emptied; a fresh push
        // re-enters it cleanly.
        q.push(job(&acc, "b", "b2"));
        q.push(job(&acc, "a", "a2"));
        assert_eq!(names(&q.drain_round_robin(2)), ["b2", "a2"]);
        assert_eq!(q.tenant_len("a"), 0);
    }
}
