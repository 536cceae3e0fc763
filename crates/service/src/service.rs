//! The service front door: concurrent, multi-tenant DP query answering.
//!
//! Every [`Request`] — one PM query, a PM batch, or a WD workload — enters
//! through [`Service::submit`] and runs the same pipeline, written once:
//!
//! 1. **admission** — the request is validated against the schema; malformed
//!    queries are rejected before any budget moves ([`crate::admission`]);
//! 2. **normalization** — the request is canonicalized
//!    ([`starj_engine::canon`]) into its cache key; provably unsatisfiable
//!    PM queries are answered exactly (empty result) at zero cost, since
//!    that fact depends only on the query text, never on the data;
//! 3. **cache** — an identical prior release (same tenant, mechanism, ε,
//!    data version, canonical request) replays for free;
//! 4. **reserve** — the tenant's accountant atomically holds the `(ε, δ)`
//!    cost, refusing with [`ServiceError::BudgetExhausted`] when the
//!    allotment cannot absorb it;
//! 5. **perturb** — the request's private randomness is drawn and applied
//!    (PM's noisy queries, WD's reconstructed weighted rows), still on the
//!    caller's thread in arrival order;
//! 6. **execute** — the fixed noisy artifact is evaluated against the data.
//!    With [`ServiceConfig::coalesce`] enabled, single PM and WD requests
//!    park in the group-commit queue ([`crate::coalesce`]) and share one
//!    fused fact scan with whatever concurrent traffic drained alongside
//!    them — evaluation is post-processing, so fusing it is privacy-free.
//!    Batches are already fused and evaluate on the caller's thread;
//! 7. **commit + release** — the data version is re-checked, the cost
//!    committed, the [`Answer`] cached and returned, metrics updated. An
//!    execution error or a stale version instead rolls the reservation back
//!    via RAII, so a failed request spends nothing.
//!
//! The service is fully `Sync`: all mutable state (ledgers, caches, metrics,
//! the RNG request counter, the swappable schema) sits behind per-component
//! synchronization, so one `Arc<Service>` serves any number of threads.
//! Randomness is derived per request from the root seed and a monotone
//! counter, keeping runs reproducible for a fixed seed and arrival order
//! while decorrelating concurrent requests.
//!
//! [`Service::refresh_schema`] swaps the data for a new instance: the data
//! version bumps, and both the answer cache and the W-histogram cache key on
//! that version, so no pre-refresh release or histogram can ever serve a
//! post-refresh request.

use crate::accountant::{BudgetAccountant, Reservation, SettlementCtx, TenantUsage};
use crate::admission::{validate_query, validate_workload};
use crate::cache::{AnswerCache, Mechanism, RequestKey};
use crate::coalesce::{pending_pair, Coalescer, Job, Submitted};
use crate::durable::{DurableConfig, DurableState, DurableStatus};
use crate::error::ServiceError;
use crate::explain::ExplainReport;
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::wcache::{PmRoute, WKey, WeightHistogramCache, MIN_BATCH_W_MEMBERS};
use dp_starj::pm::{perturb_query, PmConfig};
use dp_starj::workload::{WdAccounting, WdConfig};
use dp_starj::{wd_reconstruct, workload_axes, CoreError, PredicateWorkload};
use starj_durable::{BudgetWal, FaultPlan};
use starj_engine::{
    canonicalize, execute_weighted_batch_with, Agg, AxisNames, CanonicalQuery, EngineError,
    QueryResult, ScanOptions, ScanPlan, StarQuery, StarSchema, WeightHistogram, WeightedQuery,
    DENSE_GROUP_CAP,
};
use starj_noise::{PrivacyBudget, StarRng};
use starj_telemetry::{
    cost_counters, kernel_counters, PromText, RequestKind, Stage, Telemetry, TelemetryConfig,
    TraceBuilder, TraceOutcome,
};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Predicate Mechanism configuration.
    pub pm: PmConfig,
    /// Workload Decomposition configuration. The default serves
    /// [`WdAccounting::StrictComposition`]: a request is charged ε, so each
    /// block's ε/n must cover all of its perturbed strategy rows. The
    /// paper's literal rule spends ε/n on *every* row and would compose to
    /// 5.67ε (W1) or 7.67ε (W2) against an ε charge.
    pub wd: WdConfig,
    /// Root seed; request RNGs derive from it by arrival index.
    pub seed: u64,
    /// Set false to disable answer replay (every request pays).
    pub cache_answers: bool,
    /// Maximum cached answers before FIFO eviction. Bounds the cache's
    /// memory at ≈ 80 B per scalar PM answer (more for batches, grouped
    /// results and set constraints), so the default 65 536 entries hold
    /// ≈ 5 MB.
    pub cache_capacity: usize,
    /// Route `pm_answer` / `wd_answer` through the group-commit coalescer
    /// ([`crate::coalesce`]): concurrent single-query traffic parks in a
    /// queue and shares fused fact scans. Off by default — the direct path
    /// answers on the caller's thread.
    pub coalesce: bool,
    /// How long a coalescer worker holds a drain open for more traffic to
    /// pile in. Zero drains immediately (batching still happens naturally
    /// while workers are busy scanning, exactly like WAL group commit).
    /// With [`ServiceConfig::coalesce_window_max`] non-zero this is only
    /// the *starting* window — the coalescer adapts it to the observed
    /// arrival rate from there.
    pub coalesce_window: Duration,
    /// Upper bound for the *adaptive* group-commit window. Zero (the
    /// default) keeps the fixed [`ServiceConfig::coalesce_window`]
    /// behavior. Non-zero turns adaptation on: the coalescer tracks an
    /// EWMA of request arrival gaps and derives the effective window from
    /// it — collapsing to zero when traffic is too sparse for a hold to
    /// ever capture a second request (idle single-client latency stops
    /// paying the window tax), and stretching up to this bound under burst
    /// so fused batches fill. Window choice only changes how requests
    /// group into batches; answers, ledgers, and RNG draws are
    /// batch-composition-invariant, so adaptation is privacy-free.
    pub coalesce_window_max: Duration,
    /// Drain at this queue depth even before the window elapses (clamped
    /// to ≥ 1). Also the largest possible fused batch.
    pub max_batch: usize,
    /// Coalescer worker threads (clamped to ≥ 1).
    pub coalesce_workers: usize,
    /// Bounded coalescer queue capacity; submitters block (backpressure)
    /// while it is full.
    pub coalesce_queue: usize,
    /// Per-tenant coalescer lane capacity (clamped to ≥ 1): one tenant may
    /// hold at most this many parked jobs, so a flooding tenant
    /// backpressures itself while everyone else keeps submitting. Drains
    /// are round-robin across tenants, so a capped backlog also cannot
    /// starve another tenant's head-of-line request.
    pub coalesce_tenant_queue: usize,
    /// Maximum cached W histograms — the joint attribute-code histograms
    /// that answer workload requests and covered PM members
    /// ([`crate::wcache`]) — before FIFO eviction.
    pub w_cache_capacity: usize,
    /// Observability: span-ring / audit-trail / slow-query-log capacities
    /// and the slow-query latency threshold. The defaults keep everything
    /// on; [`TelemetryConfig::disabled`] turns every component off (the
    /// tracing-off arm of the coalesce bench's A/B).
    pub telemetry: TelemetryConfig,
    /// Crash-safe budget accounting: when set, every reserve / commit /
    /// refund / refusal is journaled to an fsync'd WAL in this directory
    /// **before** the in-memory ledger moves, and
    /// [`Service::open`] replays the journal at startup. `None` (the
    /// default) keeps the pre-PR-9 in-memory-only accounting. Services
    /// with a journal must be built with the fallible [`Service::open`].
    pub durable: Option<DurableConfig>,
    /// Deterministic fault injection for tests and failure drills: seams
    /// in the journal (`wal.*`) and the coalescer (`coalesce.drain`)
    /// consult this plan. `None` (the default) in production.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            pm: PmConfig::default(),
            wd: WdConfig { accounting: WdAccounting::StrictComposition, ..WdConfig::default() },
            seed: 2023,
            cache_answers: true,
            cache_capacity: crate::cache::DEFAULT_CACHE_CAPACITY,
            coalesce: false,
            coalesce_window: Duration::from_micros(200),
            coalesce_window_max: Duration::ZERO,
            max_batch: 64,
            coalesce_workers: 2,
            coalesce_queue: 4096,
            coalesce_tenant_queue: 256,
            w_cache_capacity: crate::wcache::DEFAULT_W_CACHE_CAPACITY,
            telemetry: TelemetryConfig::default(),
            durable: None,
            fault: None,
        }
    }
}

/// A served star-join answer.
#[derive(Debug, Clone)]
pub struct ServiceAnswer {
    /// The label of the query as submitted.
    pub name: String,
    /// The (noisy) result.
    pub result: QueryResult,
    /// The perturbed query PM actually executed (`None` for free answers to
    /// unsatisfiable queries). In process only: it fixes PM's randomness.
    pub noisy_query: Option<StarQuery>,
    /// True iff replayed from the cache.
    pub cached: bool,
    /// What this call charged the tenant: `None` for cache hits and free
    /// answers, `Some(cost)` when fresh budget was committed.
    pub cost: Option<PrivacyBudget>,
}

/// A served fused-batch answer: per-member answers plus the batch-level
/// charge (the whole batch reserves, executes in one fact scan, and
/// commits as a unit).
#[derive(Debug, Clone)]
pub struct BatchAnswer {
    /// Per-query answers in submission order. Member `cost` fields are
    /// `None` — the batch-level [`BatchAnswer::cost`] is the charge.
    pub answers: Vec<ServiceAnswer>,
    /// True iff the whole batch replayed from the cache.
    pub cached: bool,
    /// What this call charged the tenant (`None` for cache hits and
    /// all-free batches).
    pub cost: Option<PrivacyBudget>,
}

/// A served workload answer (one value per workload query).
#[derive(Debug, Clone)]
pub struct WorkloadAnswer {
    /// Noisy answers in workload order.
    pub answers: Vec<f64>,
    /// True iff replayed from the cache.
    pub cached: bool,
    /// What this call charged the tenant (`None` for cache hits).
    pub cost: Option<PrivacyBudget>,
}

/// One request to [`Service::submit`].
#[derive(Debug, Clone, Copy)]
pub enum Request<'a> {
    /// A star-join query answered with the Predicate Mechanism.
    Pm(&'a StarQuery),
    /// A batch of star-join queries answered with PM in **one fused fact
    /// scan** and charged as a unit. ε splits evenly across the satisfiable
    /// members (sequential composition); provably unsatisfiable members are
    /// answered exactly for free and do not dilute the split. Each member
    /// draws its own noise exactly as [`Request::Pm`] would — only the
    /// answering scan is shared, which is privacy-free post-processing.
    PmBatch(&'a [StarQuery]),
    /// A counting-query workload answered with Workload Decomposition.
    Wd(&'a PredicateWorkload),
}

impl<'a> Request<'a> {
    /// The mechanism the cache and audit trail tag it with, and the kind
    /// its span records.
    fn kind(self) -> (Mechanism, RequestKind) {
        match self {
            Request::Pm(_) => (Mechanism::Pm, RequestKind::Pm),
            Request::PmBatch(_) => (Mechanism::PmBatch, RequestKind::PmBatch),
            Request::Wd(_) => (Mechanism::Wd, RequestKind::Wd),
        }
    }

    /// The PM member queries in order: the query itself, the batch, or none
    /// for a workload.
    fn queries(self) -> &'a [StarQuery] {
        match self {
            Request::Pm(query) => std::slice::from_ref(query),
            Request::PmBatch(queries) => queries,
            Request::Wd(_) => &[],
        }
    }

    /// The canonical form the answer cache keys on.
    fn key(self) -> RequestKey {
        match self {
            Request::Pm(query) => RequestKey::Single(canonicalize(query)),
            Request::PmBatch(queries) => {
                RequestKey::Workload(queries.iter().map(canonicalize).collect())
            }
            Request::Wd(workload) => {
                RequestKey::Workload(workload.to_star_queries().iter().map(canonicalize).collect())
            }
        }
    }
}

/// A released answer, always of its [`Request`]'s kind.
#[derive(Debug, Clone)]
pub enum Answer {
    /// The answer to [`Request::Pm`].
    Pm(ServiceAnswer),
    /// The answer to [`Request::PmBatch`].
    PmBatch(BatchAnswer),
    /// The answer to [`Request::Wd`].
    Wd(WorkloadAnswer),
}

impl Answer {
    /// The single-query answer. Panics on another kind: a [`Request::Pm`]
    /// is always answered with [`Answer::Pm`].
    pub fn into_pm(self) -> ServiceAnswer {
        match self {
            Answer::Pm(answer) => answer,
            other => panic!("expected a PM answer, got {other:?}"),
        }
    }

    /// The batch answer. Panics on another kind: a [`Request::PmBatch`] is
    /// always answered with [`Answer::PmBatch`].
    pub fn into_batch(self) -> BatchAnswer {
        match self {
            Answer::PmBatch(answer) => answer,
            other => panic!("expected a PM batch answer, got {other:?}"),
        }
    }

    /// The workload answer. Panics on another kind: a [`Request::Wd`] is
    /// always answered with [`Answer::Wd`].
    pub fn into_wd(self) -> WorkloadAnswer {
        match self {
            Answer::Wd(answer) => answer,
            other => panic!("expected a WD answer, got {other:?}"),
        }
    }

    /// PM member answers as the answer to a `mechanism` request that
    /// charged `cost`: the one member itself, or the batch.
    fn pm(
        mechanism: Mechanism,
        mut members: Vec<ServiceAnswer>,
        cost: Option<PrivacyBudget>,
    ) -> Self {
        if mechanism == Mechanism::PmBatch {
            return Answer::PmBatch(BatchAnswer { answers: members, cached: false, cost });
        }
        let mut answer = members.pop().expect("a single PM request has one member");
        answer.cost = cost;
        Answer::Pm(answer)
    }

    /// The PM member answers (the answer itself for a single query); empty
    /// for a workload.
    fn members_mut(&mut self) -> &mut [ServiceAnswer] {
        match self {
            Answer::Pm(answer) => std::slice::from_mut(answer),
            Answer::PmBatch(batch) => &mut batch.answers,
            Answer::Wd(_) => &mut [],
        }
    }

    /// A cache hit (already flagged cached, charging nothing) relabelled
    /// with the caller's names.
    fn replayed(mut self, request: Request<'_>) -> Self {
        for (member, query) in self.members_mut().iter_mut().zip(request.queries()) {
            member.name.clone_from(&query.name);
        }
        self
    }
}

/// A PM member's exact empty answer: the free release of an unsatisfiable
/// member (data-independent), and the template a paid member's evaluation
/// overwrites.
fn empty_answer(query: &StarQuery, canon: &CanonicalQuery) -> ServiceAnswer {
    let result = if canon.group_by.is_empty() {
        QueryResult::Scalar(0.0)
    } else {
        QueryResult::Groups(BTreeMap::new())
    };
    ServiceAnswer { name: query.name.clone(), result, noisy_query: None, cached: false, cost: None }
}

/// The WD artifact: the reconstructed real-valued rows, the normalized axis
/// set the coalescer partitions on, and their joint code space when it fits
/// the dense cap (W-cache eligible), resolved once at submit.
#[derive(Debug)]
pub(crate) struct WdRows {
    pub(crate) rows: Vec<WeightedQuery>,
    pub(crate) axes: AxisNames,
    pub(crate) space: Option<usize>,
}

/// A request that finished its private phase (admitted, reserved,
/// perturbed) and is ready for the pure-evaluation step — inline or parked
/// in the coalescer. Dropping it unfinished refunds the reservation.
#[derive(Debug)]
pub(crate) struct Work {
    pub(crate) tenant: String,
    pub(crate) cost: PrivacyBudget,
    pub(crate) mechanism: Mechanism,
    pub(crate) key: RequestKey,
    pub(crate) reservation: Reservation,
    pub(crate) schema: Arc<StarSchema>,
    pub(crate) version: u64,
    pub(crate) start: Instant,
    pub(crate) trace: TraceBuilder,
    /// The answer released at commit. Evaluation fills in the result of
    /// every PM member that carries a noisy query (members answered free
    /// carry none) or the WD answer's values.
    pub(crate) answer: Answer,
    /// WD's artifact; `None` for PM, whose noisy queries ride in `answer`.
    pub(crate) wd: Option<WdRows>,
}

impl Work {
    /// What the coalescer partitions on: every PM unit fuses into one
    /// binary scan, WD units fuse per axis set.
    pub(crate) fn partition(&self) -> Option<&AxisNames> {
        self.wd.as_ref().map(|wd| &wd.axes)
    }
}

/// Submit-phase outcome: answered on the spot, or ready to execute (boxed:
/// the work unit is much larger than most immediate answers).
pub(crate) enum Phase {
    Done(Answer),
    Work(Box<Work>),
}

/// The shared state behind a [`Service`]: everything the request pipeline
/// touches, shared with the coalescer workers through one `Arc`.
#[derive(Debug)]
pub(crate) struct ServiceCore {
    /// The data instance and its monotone version, swapped atomically by
    /// [`Service::refresh_schema`].
    schema: RwLock<(Arc<StarSchema>, u64)>,
    pub(crate) config: ServiceConfig,
    pub(crate) accountant: BudgetAccountant,
    pub(crate) cache: AnswerCache,
    pub(crate) wcache: WeightHistogramCache,
    pub(crate) metrics: ServiceMetrics,
    pub(crate) telemetry: Telemetry,
    /// Crash-safe accounting state; `None` when the service runs without a
    /// journal ([`ServiceConfig::durable`] unset).
    pub(crate) durable: Option<Arc<DurableState>>,
    request_counter: AtomicU64,
}

/// A concurrent, multi-tenant DP star-join query service over one schema
/// instance.
#[derive(Debug)]
pub struct Service {
    core: Arc<ServiceCore>,
    coalescer: Option<Coalescer>,
}

impl Service {
    /// A service over `schema` with the given configuration and no tenants.
    ///
    /// Infallible, so only valid for configurations without a budget
    /// journal — opening a journal does IO and replays history, which can
    /// fail. With [`ServiceConfig::durable`] set this panics; use
    /// [`Service::open`] instead.
    pub fn new(schema: Arc<StarSchema>, config: ServiceConfig) -> Self {
        assert!(
            config.durable.is_none(),
            "ServiceConfig::durable is set: journal opening can fail, use Service::open"
        );
        Self::open(schema, config).expect("non-durable service construction is infallible")
    }

    /// A service over `schema`, opening (and replaying) the budget journal
    /// when [`ServiceConfig::durable`] is set. Recovered per-tenant spends
    /// are adopted by the accountant and applied as tenants re-register,
    /// bit-for-bit. Fails with [`ServiceError::DurabilityUnavailable`] if
    /// the journal cannot be opened or is corrupt mid-history (a torn
    /// *tail* is recovered, not an error).
    pub fn open(schema: Arc<StarSchema>, config: ServiceConfig) -> Result<Self, ServiceError> {
        let durable = match &config.durable {
            None => None,
            Some(durable_config) => {
                let (wal, recovery) = BudgetWal::open(durable_config.clone(), config.fault.clone())
                    .map_err(|e| ServiceError::DurabilityUnavailable { reason: e.to_string() })?;
                Some((Arc::new(DurableState::new(wal, &recovery)), recovery))
            }
        };
        let cache = AnswerCache::with_capacity(config.cache_capacity);
        let wcache = WeightHistogramCache::with_capacity(config.w_cache_capacity);
        let telemetry = Telemetry::new(&config.telemetry);
        let accountant = BudgetAccountant::new();
        let durable = match durable {
            None => None,
            Some((state, recovery)) => {
                accountant.adopt_recovery(&recovery.tenants)?;
                Some(state)
            }
        };
        let core = Arc::new(ServiceCore {
            schema: RwLock::new((schema, 0)),
            config,
            accountant,
            cache,
            wcache,
            metrics: ServiceMetrics::default(),
            telemetry,
            durable,
            request_counter: AtomicU64::new(0),
        });
        let coalescer = core.config.coalesce.then(|| Coalescer::start(Arc::clone(&core)));
        Ok(Service { core, coalescer })
    }

    /// A snapshot of the schema this service currently answers over.
    pub fn schema(&self) -> Arc<StarSchema> {
        self.core.snapshot().0
    }

    /// The current data version (0 at construction; bumped by every
    /// [`Service::refresh_schema`]).
    pub fn data_version(&self) -> u64 {
        self.core.snapshot().1
    }

    /// Swaps the served data for a new schema instance and returns the new
    /// data version. Both the answer cache and the W-histogram cache key on
    /// the version, so every pre-refresh release and histogram is
    /// unreachable from this point on (and both caches are cleared eagerly
    /// to reclaim memory). Budget already spent stays spent — a repeat
    /// query pays again for a fresh release over the new data.
    pub fn refresh_schema(&self, schema: Arc<StarSchema>) -> u64 {
        let (retired, version) = {
            let mut guard = self.core.schema.write().unwrap_or_else(|e| e.into_inner());
            let next = guard.1 + 1;
            let old = std::mem::replace(&mut guard.0, schema);
            guard.1 = next;
            (old, next)
        };
        self.core.cache.clear();
        self.core.wcache.clear();
        // The outgoing instance, and the cost model it owns, drops here,
        // outside the schema lock.
        drop(retired);
        version
    }

    /// Registers a tenant with its lifetime `(ε, δ)` allotment.
    pub fn register_tenant(
        &self,
        tenant: &str,
        allotment: PrivacyBudget,
    ) -> Result<(), ServiceError> {
        self.core.accountant.register(tenant, allotment)
    }

    /// The tenant's current budget usage.
    pub fn tenant_usage(&self, tenant: &str) -> Result<TenantUsage, ServiceError> {
        self.core.accountant.usage(tenant)
    }

    /// Point-in-time service metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.metrics.snapshot()
    }

    /// The raw lock-free metrics behind this service — the shard-facing
    /// handle a router aggregates across shards. Counters sum via
    /// [`MetricsSnapshot::accumulate`]; latency merges via
    /// [`crate::LatencyHistogram::bucket_counts`] /
    /// [`crate::LatencyHistogram::absorb`] (quantiles of a fleet come from
    /// the summed buckets, never from averaged per-shard p50/p99).
    pub fn raw_metrics(&self) -> &ServiceMetrics {
        &self.core.metrics
    }

    /// Registered tenant ids, sorted for deterministic reporting.
    pub fn tenants(&self) -> Vec<String> {
        self.core.accountant.tenants()
    }

    /// This service's telemetry hub: completed-request spans, the
    /// privacy-budget audit trail, and the slow-query log.
    pub fn telemetry(&self) -> &Telemetry {
        &self.core.telemetry
    }

    /// The privacy-budget audit trail as JSONL, one event per line, oldest
    /// first.
    pub fn audit_jsonl(&self) -> String {
        self.core.telemetry.audit().to_jsonl()
    }

    /// One tenant's audit trail as JSONL, oldest first — the
    /// `/audit?tenant=` filter of the operator plane.
    pub fn audit_jsonl_for(&self, tenant: &str) -> String {
        self.core.telemetry.audit().to_jsonl_for(tenant, &[])
    }

    /// Durability status (journal counters, degraded flag, replay summary);
    /// `None` for services without a budget journal.
    pub fn durable_status(&self) -> Option<DurableStatus> {
        self.core.durable.as_ref().map(|d| d.status())
    }

    /// True when a journal failure has latched degraded mode: cache hits
    /// and free answers still flow, new budget spends are refused with
    /// [`ServiceError::DurabilityUnavailable`] until the process restarts.
    /// Always false for services without a journal.
    pub fn is_degraded(&self) -> bool {
        self.core.durable.as_ref().is_some_and(|d| d.is_degraded())
    }

    /// The full service state as a Prometheus text-format (0.0.4)
    /// exposition: request counters, the latency histogram (cumulative
    /// buckets in seconds), per-tenant budget gauges, the process-wide
    /// kernel and cost-model profiling counters, and telemetry depth
    /// gauges.
    pub fn prometheus_text(&self) -> String {
        let mut p = PromText::new();
        let snap = self.metrics();
        for (name, value) in snap.counter_entries() {
            let metric = format!("starj_{name}_total");
            p.header(&metric, &format!("Service counter `{name}`."), "counter");
            p.sample(&metric, &[], value as f64);
        }

        p.header(
            "starj_request_latency_seconds",
            "End-to-end request latency (successful requests).",
            "histogram",
        );
        let buckets = self.core.metrics.latency.bucket_counts();
        let mut cumulative = 0u64;
        for (i, &count) in buckets.iter().enumerate() {
            cumulative += count;
            if count == 0 && i + 1 != buckets.len() {
                continue; // keep the exposition compact: only occupied edges
            }
            let upper_s = (i as f64).exp2() / 1e9;
            let le = format!("{upper_s}");
            p.sample("starj_request_latency_seconds_bucket", &[("le", &le)], cumulative as f64);
        }
        p.sample("starj_request_latency_seconds_bucket", &[("le", "+Inf")], cumulative as f64);
        p.sample("starj_request_latency_seconds_count", &[], cumulative as f64);

        p.header("starj_tenant_spent_epsilon", "Committed ε spending per tenant.", "gauge");
        let tenants = self.tenants();
        for tenant in &tenants {
            if let Ok(usage) = self.tenant_usage(tenant) {
                p.sample("starj_tenant_spent_epsilon", &[("tenant", tenant)], usage.spent_epsilon);
            }
        }
        p.header("starj_tenant_remaining_epsilon", "Unreserved ε remaining per tenant.", "gauge");
        for tenant in &tenants {
            if let Ok(usage) = self.tenant_usage(tenant) {
                p.sample(
                    "starj_tenant_remaining_epsilon",
                    &[("tenant", tenant)],
                    usage.remaining_epsilon,
                );
            }
        }

        for (name, value) in kernel_counters().snapshot().entries() {
            let metric = format!("starj_kernel_{name}_total");
            p.header(
                &metric,
                &format!("Kernel profiling counter `{name}` (process-wide)."),
                "counter",
            );
            p.sample(&metric, &[], value as f64);
        }

        for (name, value) in cost_counters().snapshot().entries() {
            let metric = format!("starj_cost_{name}_total");
            p.header(&metric, &format!("Cost-model counter `{name}` (process-wide)."), "counter");
            p.sample(&metric, &[], value as f64);
        }

        if let Some(durable) = &self.core.durable {
            let status = durable.status();
            let counters: [(&str, u64, &str); 7] = [
                ("records", status.counters.records, "Journal records appended."),
                ("bytes", status.counters.bytes, "Journal frame bytes appended."),
                (
                    "fsyncs",
                    status.counters.fsyncs,
                    "Fdatasync calls issued (group commit makes this <= records).",
                ),
                ("rotations", status.counters.rotations, "Journal segment rotations."),
                ("journal_errors", status.journal_errors, "Journal failures observed."),
                (
                    "degraded_refusals",
                    status.degraded_refusals,
                    "Spends refused because the journal was unavailable.",
                ),
                (
                    "replayed_records",
                    status.replay.records,
                    "Records replayed by startup recovery.",
                ),
            ];
            for (name, value, help) in counters {
                let metric = format!("starj_durable_{name}_total");
                p.header(&metric, help, "counter");
                p.sample(&metric, &[], value as f64);
            }
            p.header(
                "starj_durable_degraded",
                "1 once a journal failure latched degraded mode (restart to recover).",
                "gauge",
            );
            p.sample("starj_durable_degraded", &[], if status.degraded { 1.0 } else { 0.0 });
            p.header("starj_durable_segments", "Journal segment files on disk.", "gauge");
            p.sample("starj_durable_segments", &[], status.counters.segments as f64);
            p.header(
                "starj_durable_torn_tail_truncated",
                "1 if startup recovery truncated a torn journal tail.",
                "gauge",
            );
            p.sample(
                "starj_durable_torn_tail_truncated",
                &[],
                if status.replay.torn_tail_truncated { 1.0 } else { 0.0 },
            );
        }

        let telemetry = &self.core.telemetry;
        p.header(
            "starj_trace_spans_recorded_total",
            "Completed request spans recorded.",
            "counter",
        );
        p.sample("starj_trace_spans_recorded_total", &[], telemetry.spans_recorded() as f64);
        p.header("starj_audit_events", "Privacy-budget audit events retained.", "gauge");
        p.sample("starj_audit_events", &[], telemetry.audit().len() as f64);
        p.header(
            "starj_audit_events_dropped_total",
            "Audit events evicted by the capacity bound.",
            "counter",
        );
        p.sample("starj_audit_events_dropped_total", &[], telemetry.audit().dropped() as f64);
        p.header("starj_slow_queries", "Requests retained in the slow-query log.", "gauge");
        p.sample("starj_slow_queries", &[], telemetry.slow_queries().len() as f64);
        p.render()
    }

    /// Number of answers currently cached.
    pub fn cached_answers(&self) -> usize {
        self.core.cache.len()
    }

    /// Number of W histograms currently cached.
    pub fn cached_histograms(&self) -> usize {
        self.core.wcache.len()
    }

    /// Submits a request: the one entry point every kind goes through.
    /// Free answers, cache hits, and every admission or budget refusal
    /// resolve immediately. Otherwise the request's budget is reserved and
    /// its noise drawn on this thread; a single PM or WD request then parks
    /// in the coalescer queue when [`ServiceConfig::coalesce`] is on, and
    /// the returned handle waits for the group-commit drain. Batches, and
    /// every request with coalescing off, evaluate inline and return
    /// [`Submitted::Ready`].
    pub fn submit(
        &self,
        tenant: &str,
        request: Request<'_>,
        epsilon: f64,
    ) -> Result<Submitted<Answer>, ServiceError> {
        let mut work = match self.core.begin(tenant, request, epsilon)? {
            Phase::Done(answer) => return Ok(Submitted::Ready(answer)),
            Phase::Work(work) => *work,
        };
        match &self.coalescer {
            // Explicit batches are already fused: they never park.
            Some(coalescer) if work.mechanism != Mechanism::PmBatch => {
                work.trace.mark_queued();
                work.trace.stage_begin(Stage::QueueWait);
                let (pending, slot) = pending_pair();
                coalescer.enqueue(Job { work, slot });
                Ok(Submitted::Queued(pending))
            }
            _ => {
                self.core.evaluate(&mut [&mut work])?;
                self.core.finish(work).map(Submitted::Ready)
            }
        }
    }

    /// [`Service::submit`] of a [`Request::Pm`], waiting for the answer.
    pub fn pm_answer(
        &self,
        tenant: &str,
        query: &StarQuery,
        epsilon: f64,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.submit(tenant, Request::Pm(query), epsilon)?.wait().map(Answer::into_pm)
    }

    /// [`Service::submit`] of a [`Request::PmBatch`].
    pub fn pm_batch_answer(
        &self,
        tenant: &str,
        queries: &[StarQuery],
        epsilon: f64,
    ) -> Result<BatchAnswer, ServiceError> {
        self.submit(tenant, Request::PmBatch(queries), epsilon)?.wait().map(Answer::into_batch)
    }

    /// [`Service::submit`] of a [`Request::Wd`], waiting for the answer.
    pub fn wd_answer(
        &self,
        tenant: &str,
        workload: &PredicateWorkload,
        epsilon: f64,
    ) -> Result<WorkloadAnswer, ServiceError> {
        self.submit(tenant, Request::Wd(workload), epsilon)?.wait().map(Answer::into_wd)
    }

    /// Describes what serving `query` *would* do, without doing it: the
    /// canonical SQL the cache would key on, the PM evaluation route
    /// ([`ExplainReport::route`]), the compiled plan shape
    /// (filter order, probe classes, exact pass fractions, mask sharing,
    /// fk staging), and — when `profile` is set —
    /// the kernel-counter deltas of one discarded profiling scan. Spends
    /// no budget, draws no noise, inserts nothing into the cache, and
    /// writes no audit event. Operator-plane only: the report is exact
    /// and un-noised, so the gate restricts its `explain` verb to admin
    /// tokens.
    pub fn explain(&self, query: &StarQuery, profile: bool) -> Result<ExplainReport, ServiceError> {
        let core = &self.core;
        let (schema, version) = core.snapshot();
        validate_query(&schema, query)?;
        let canon = canonicalize(query);
        let canonical = canon.to_query(&query.name);
        let canonical_sql = starj_engine::to_sql(&schema, &canonical);
        if canon.unsatisfiable {
            return Ok(ExplainReport {
                canonical_sql,
                unsatisfiable: true,
                data_version: version,
                route: None,
                plan: None,
                profile: None,
            });
        }
        let route = PmRoute::of(&schema, &canonical).map_err(ServiceError::InvalidQuery)?;
        let (plan, profiled) =
            crate::explain::describe_query(&schema, &canonical, core.config.pm.scan, profile)?;
        Ok(ExplainReport {
            canonical_sql,
            unsatisfiable: false,
            data_version: version,
            route: Some(route.name()),
            plan: Some(plan),
            profile: profiled,
        })
    }
}

impl ServiceCore {
    /// The current `(schema, data version)` pair, read atomically.
    pub(crate) fn snapshot(&self) -> (Arc<StarSchema>, u64) {
        let guard = self.schema.read().unwrap_or_else(|e| e.into_inner());
        (Arc::clone(&guard.0), guard.1)
    }

    // ---- the request pipeline ---------------------------------------------

    /// The submit phase: everything privacy-relevant, on the caller's
    /// thread, in arrival order — admission → canon → free? → cache probe →
    /// reserve → request RNG → perturb. Returns either an immediate answer
    /// (free or cached) or the reserved-and-perturbed work unit ready for
    /// pure evaluation.
    pub(crate) fn begin(
        &self,
        tenant: &str,
        request: Request<'_>,
        epsilon: f64,
    ) -> Result<Phase, ServiceError> {
        let start = Instant::now();
        let (mechanism, kind) = request.kind();
        let mut trace = self.telemetry.trace_start(kind, tenant);
        let (schema, version) = self.snapshot();
        let cost = trace.stage(Stage::Admission, || self.admit(&schema, request, epsilon))?;
        let key = trace.stage(Stage::Canon, || request.key());

        if mechanism != Mechanism::Wd && key.members().iter().all(|c| c.unsatisfiable) {
            // Unsatisfiable on every instance — the exact empty answers are
            // data-independent, hence free (an empty batch answers nothing).
            let members: Vec<ServiceAnswer> = request
                .queries()
                .iter()
                .zip(key.members())
                .map(|(q, c)| empty_answer(q, c))
                .collect();
            ServiceMetrics::add(&self.metrics.free_answers, members.len() as u64);
            if !members.is_empty() {
                self.served(start);
            }
            self.telemetry.trace_finish(trace, TraceOutcome::Free);
            return Ok(Phase::Done(Answer::pm(mechanism, members, None)));
        }

        let hit = trace
            .stage(Stage::CacheProbe, || self.cache_get(tenant, mechanism, epsilon, version, &key));
        if let Some(hit) = hit {
            self.served(start);
            self.telemetry.trace_finish(trace, TraceOutcome::Cached);
            return Ok(Phase::Done(hit.replayed(request)));
        }

        let query_hash = query_hash(mechanism, &key);
        let reservation = trace
            .stage(Stage::BudgetReserve, || self.reserve(tenant, cost, query_hash, version))?;
        let mut rng = self.request_rng();
        let perturbed =
            trace.stage(Stage::Perturb, || self.perturb(&schema, request, &key, cost, &mut rng));
        // On failure the reservation drops here → automatic refund.
        let (answer, wd) =
            perturbed.inspect_err(|_| ServiceMetrics::inc(&self.metrics.mechanism_failures))?;
        Ok(Phase::Work(Box::new(Work {
            tenant: tenant.to_string(),
            cost,
            mechanism,
            key,
            reservation,
            schema,
            version,
            start,
            trace,
            answer,
            wd,
        })))
    }

    /// Schema admission per kind; any refusal counts one admission
    /// rejection and happens before any budget moves.
    fn admit(
        &self,
        schema: &StarSchema,
        request: Request<'_>,
        epsilon: f64,
    ) -> Result<PrivacyBudget, ServiceError> {
        let cost = PrivacyBudget::pure(epsilon).map_err(ServiceError::InvalidBudget);
        let admitted = cost.and_then(|cost| {
            match request {
                Request::Wd(workload) => validate_workload(schema, workload)?,
                pm => pm.queries().iter().try_for_each(|q| validate_query(schema, q))?,
            }
            Ok(cost)
        });
        admitted.inspect_err(|_| ServiceMetrics::inc(&self.metrics.admission_rejections))
    }

    /// The private step: draws the request's noise and returns the answer
    /// template evaluation completes, plus WD's artifact. PM perturbs the
    /// canonical form — presentation-equivalent queries must spend
    /// identically, not just cache identically — and a batch splits ε
    /// evenly across its satisfiable members (a single query takes it all).
    fn perturb(
        &self,
        schema: &StarSchema,
        request: Request<'_>,
        key: &RequestKey,
        cost: PrivacyBudget,
        rng: &mut StarRng,
    ) -> Result<(Answer, Option<WdRows>), ServiceError> {
        let epsilon = cost.epsilon();
        if let Request::Wd(workload) = request {
            let (axes, space) = WeightHistogram::plan_axes(schema, &workload_axes(workload))?;
            // WD evaluates through cached W's only, which the dense cap bounds.
            let space = space.filter(|&s| s <= DENSE_GROUP_CAP);
            let rows = wd_reconstruct(schema, workload, epsilon, &self.config.wd, rng)?;
            let answer = WorkloadAnswer { answers: Vec::new(), cached: false, cost: Some(cost) };
            return Ok((Answer::Wd(answer), Some(WdRows { rows, axes, space })));
        }
        let paid = key.members().iter().filter(|c| !c.unsatisfiable).count();
        let eps_each = epsilon / paid as f64;
        let members = request.queries().iter().zip(key.members()).map(|(q, c)| {
            let mut member = empty_answer(q, c);
            if !c.unsatisfiable {
                let executable = c.to_query(&q.name);
                let noisy = perturb_query(schema, &executable, eps_each, &self.config.pm, rng)?;
                member.noisy_query = Some(noisy);
            }
            Ok(member)
        });
        let members = members.collect::<Result<Vec<_>, ServiceError>>()?;
        Ok((Answer::pm(request.kind().0, members, Some(cost)), None))
    }

    /// Evaluates one compatible group of work units in place — a group of
    /// one on the direct path, a drained partition in the coalescer. PM
    /// units share one fused binary scan; WD units share one W histogram
    /// (or one fused weighted scan). A failure counts one mechanism failure
    /// per unit; the caller drops the units, refunding every reservation.
    pub(crate) fn evaluate(&self, group: &mut [&mut Work]) -> Result<(), ServiceError> {
        for work in group.iter_mut() {
            work.trace.stage_begin(Stage::FusedScan);
        }
        let schema = Arc::clone(&group[0].schema);
        let evaluated = match group[0].wd.as_ref().map(|wd| (wd.axes.clone(), wd.space)) {
            None => self.evaluate_pm(&schema, group),
            Some((axes, space)) => self.evaluate_wd(&schema, &axes, space, group),
        };
        for work in group.iter_mut() {
            work.trace.stage_end(Stage::FusedScan);
        }
        evaluated.inspect_err(|_| {
            ServiceMetrics::add(&self.metrics.mechanism_failures, group.len() as u64);
        })
    }

    /// Answers every noisy PM member of the group by its [`PmRoute`]: a
    /// covered member within the retention cap from a cached W histogram
    /// ([`crate::wcache`]); covered members past it that share an axis
    /// set, when at least [`MIN_BATCH_W_MEMBERS`] of them, from one
    /// transient `W` over all their aggregates, pruned to the codes they
    /// pass ([`WeightHistogram::build_for`]) and dropped on return; the
    /// rest in one fused binary scan. Every route gives the same bits.
    fn evaluate_pm(
        &self,
        schema: &StarSchema,
        group: &mut [&mut Work],
    ) -> Result<(), ServiceError> {
        let (scan, version) = (self.config.pm.scan, group[0].version);
        let mut scanned: Vec<(&StarQuery, &mut QueryResult)> = Vec::new();
        let mut batches: Vec<(AxisNames, Vec<(&StarQuery, &mut QueryResult)>)> = Vec::new();
        for member in group.iter_mut().flat_map(|work| work.answer.members_mut()) {
            let ServiceAnswer { noisy_query: Some(query), result, .. } = member else {
                continue;
            };
            match PmRoute::of(schema, query).map_err(engine_failure)? {
                PmRoute::Cached(axes) => {
                    *result =
                        QueryResult::Scalar(self.cached_w_answer(schema, version, axes, query)?);
                    ServiceMetrics::inc(&self.metrics.pm_w_answers);
                }
                PmRoute::Batch(axes) => match batches.iter_mut().find(|(a, _)| *a == axes) {
                    Some((_, members)) => members.push((query, result)),
                    None => batches.push((axes, vec![(query, result)])),
                },
                PmRoute::Scan => scanned.push((query, result)),
            }
        }
        for (_, members) in batches {
            if members.len() < MIN_BATCH_W_MEMBERS {
                scanned.extend(members);
                continue;
            }
            let queries: Vec<&StarQuery> = members.iter().map(|(query, _)| *query).collect();
            let w = WeightHistogram::build_for(schema, &queries, scan).map_err(engine_failure)?;
            ServiceMetrics::inc(&self.metrics.w_builds);
            ServiceMetrics::add(&self.metrics.pm_w_answers, members.len() as u64);
            for (query, result) in members {
                *result = QueryResult::Scalar(w.answer_query(query).map_err(engine_failure)?);
            }
        }
        if !scanned.is_empty() {
            let mut plan = ScanPlan::with_options(schema, scan).map_err(engine_failure)?;
            for (query, _) in &scanned {
                plan.add_query(query).map_err(engine_failure)?;
            }
            for ((_, slot), result) in scanned.into_iter().zip(plan.execute(scan)) {
                *slot = result;
            }
        }
        if group.len() > 1 {
            ServiceMetrics::inc(&self.metrics.fused_scans);
            ServiceMetrics::add(&self.metrics.fused_queries_saved, group.len() as u64 - 1);
        }
        Ok(())
    }

    /// A member on [`PmRoute::Cached`]: answered from the smallest cached
    /// `W` over a superset of its `axes`, else from the `W` over exactly
    /// them, built once and cached.
    fn cached_w_answer(
        &self,
        schema: &StarSchema,
        version: u64,
        axes: AxisNames,
        query: &StarQuery,
    ) -> Result<f64, ServiceError> {
        let histogram = match self.wcache.covering(&axes, &query.agg, version) {
            Some(histogram) => histogram,
            None => {
                let key = WKey { axes, agg: query.agg.clone(), version };
                self.histogram(schema, &key, self.config.pm.scan)?.0
            }
        };
        histogram.answer_query(query).map_err(engine_failure)
    }

    /// The cached `W` under `key`, built on a miss (single-flight). The
    /// flag is true iff this call ran the build scan.
    fn histogram(
        &self,
        schema: &StarSchema,
        key: &WKey,
        scan: ScanOptions,
    ) -> Result<(Arc<WeightHistogram>, bool), ServiceError> {
        let built = self
            .wcache
            .get_or_build(key, || WeightHistogram::build(schema, &key.axes, &key.agg, scan))
            .map_err(engine_failure)?;
        if built.1 {
            ServiceMetrics::inc(&self.metrics.w_builds);
        }
        Ok(built)
    }

    /// Answers an axis-compatible group of reconstructed row sets. When the
    /// joint code space fits the dense cap, the W histogram answers
    /// everything: a cached `W` makes the whole group scan-free, a cold one
    /// costs a single build scan shared by every request. Oversized axis
    /// sets fall back to one fused weighted scan whose per-query row loops
    /// are independent of batch composition, keeping answers bit-identical
    /// to the sequential path either way.
    fn evaluate_wd(
        &self,
        schema: &StarSchema,
        axes: &[(String, String)],
        space: Option<usize>,
        group: &mut [&mut Work],
    ) -> Result<(), ServiceError> {
        let version = group[0].version;
        let batches: Vec<&[WeightedQuery]> =
            group.iter().filter_map(|work| work.wd.as_ref()).map(|wd| wd.rows.as_slice()).collect();
        let total_rows: usize = batches.iter().map(|b| b.len()).sum();
        let answer_sets: Vec<Vec<f64>> = if space.is_some() {
            let key = WKey { axes: axes.to_vec(), agg: Agg::Count, version };
            let (histogram, built) = self.histogram(schema, &key, self.config.wd.scan)?;
            if built {
                ServiceMetrics::inc(&self.metrics.fused_scans);
            } else {
                ServiceMetrics::add(&self.metrics.w_cache_hits, batches.len() as u64);
            }
            ServiceMetrics::add(
                &self.metrics.fused_queries_saved,
                (total_rows - usize::from(built)) as u64,
            );
            batches
                .iter()
                .map(|rows| rows.iter().map(|q| histogram.answer(&q.predicates, &q.agg)).collect())
                .collect::<Result<_, _>>()
                .map_err(engine_failure)?
        } else {
            let all: Vec<WeightedQuery> = batches.iter().flat_map(|b| b.iter().cloned()).collect();
            let flat = execute_weighted_batch_with(schema, &all, self.config.wd.scan)
                .map_err(engine_failure)?;
            ServiceMetrics::inc(&self.metrics.fused_scans);
            ServiceMetrics::add(
                &self.metrics.fused_queries_saved,
                total_rows.saturating_sub(1) as u64,
            );
            let mut flat = flat.into_iter();
            batches.iter().map(|b| flat.by_ref().take(b.len()).collect()).collect()
        };
        for (work, values) in group.iter_mut().zip(answer_sets) {
            if let Answer::Wd(answer) = &mut work.answer {
                answer.answers = values;
            }
        }
        Ok(())
    }

    /// Refuses an executed request whose data version is no longer the
    /// served one: a [`Service::refresh_schema`] that landed anywhere
    /// between submit and this commit point — while the request was parked
    /// in the coalescer *or* while its scan was running — must not release
    /// an answer computed over the retired instance. Returning the error
    /// drops the work unit, so the reservation refunds (RAII). A refresh
    /// landing after this check linearizes after the release: the answer
    /// was committed while its version was still current.
    fn stale_check(&self, submitted: u64) -> Result<(), ServiceError> {
        let current = self.snapshot().1;
        if submitted != current {
            ServiceMetrics::inc(&self.metrics.stale_refusals);
            return Err(ServiceError::StaleDataVersion { submitted, current });
        }
        Ok(())
    }

    /// The commit phase for an evaluated work unit: stale check → commit →
    /// cache → release.
    pub(crate) fn finish(&self, mut work: Work) -> Result<Answer, ServiceError> {
        let (reservation, answer) = (work.reservation, work.answer);
        work.trace.stage(Stage::Commit, || {
            self.stale_check(work.version)?;
            reservation.commit()?;
            if let Answer::PmBatch(batch) = &answer {
                // Counted only once the batch commits: a refused or failed
                // batch must not count its free members as served.
                let paid = batch.answers.iter().filter(|a| a.noisy_query.is_some()).count();
                let free = batch.answers.len() - paid;
                ServiceMetrics::add(&self.metrics.free_answers, free as u64);
                ServiceMetrics::inc(&self.metrics.fused_scans);
                ServiceMetrics::add(&self.metrics.fused_queries_saved, paid as u64 - 1);
            }
            if self.config.cache_answers {
                let (mechanism, epsilon) = (work.mechanism, work.cost.epsilon());
                self.cache.insert(
                    &work.tenant,
                    mechanism,
                    epsilon,
                    work.version,
                    &work.key,
                    &answer,
                );
            }
            Ok::<_, ServiceError>(())
        })?;
        self.served(work.start);
        self.telemetry.trace_finish(work.trace, TraceOutcome::Ok);
        Ok(answer)
    }

    // ---- pipeline helpers -------------------------------------------------

    fn reserve(
        &self,
        tenant: &str,
        cost: PrivacyBudget,
        query_hash: u64,
        version: u64,
    ) -> Result<Reservation, ServiceError> {
        let trail = self.telemetry.audit();
        let ctx = SettlementCtx {
            trail: trail.enabled().then(|| Arc::clone(trail)),
            journal: self.durable.clone(),
            query_hash,
            data_version: version,
            // Captured here — on the submitting thread — so settlements
            // emitted later on a coalescer worker still carry it.
            request_id: starj_telemetry::current_wire_request_id(),
        };
        self.accountant.reserve(tenant, cost, ctx).inspect_err(|e| {
            if matches!(e, ServiceError::BudgetExhausted { .. }) {
                ServiceMetrics::inc(&self.metrics.budget_refusals);
            }
            if matches!(e, ServiceError::DurabilityUnavailable { .. }) {
                ServiceMetrics::inc(&self.metrics.durable_refusals);
            }
        })
    }

    fn cache_get(
        &self,
        tenant: &str,
        mechanism: Mechanism,
        epsilon: f64,
        version: u64,
        key: &RequestKey,
    ) -> Option<Answer> {
        if !self.config.cache_answers {
            return None;
        }
        let hit = self.cache.get(tenant, mechanism, epsilon, version, key)?;
        ServiceMetrics::inc(&self.metrics.cache_hits);
        Some(hit)
    }

    fn served(&self, start: Instant) {
        ServiceMetrics::inc(&self.metrics.queries_served);
        self.metrics.latency.record(start.elapsed());
    }

    fn request_rng(&self) -> StarRng {
        let index = self.request_counter.fetch_add(1, Ordering::Relaxed);
        StarRng::from_seed(self.config.seed).derive_index(index)
    }
}

/// Stable-within-a-run fingerprint of a canonical request, recorded on every
/// audit event so a tenant's trail can be correlated back to the query shape
/// without storing predicates (which may embed sensitive literals) verbatim.
fn query_hash(mechanism: Mechanism, key: &RequestKey) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    mechanism.hash(&mut hasher);
    key.hash(&mut hasher);
    hasher.finish()
}

/// An evaluation-time engine error: the reservation refunds, so it is a
/// mechanism failure rather than an admission refusal.
fn engine_failure(e: EngineError) -> ServiceError {
    ServiceError::Mechanism(CoreError::Engine(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_engine::{Column, Dimension, Domain, Predicate, Table};

    fn toy_schema() -> Arc<StarSchema> {
        let color = Domain::numeric("color", 4).unwrap();
        let dim = Table::new(
            "D",
            vec![
                Column::key("pk", vec![0, 1, 2, 3]),
                Column::attr("color", color, vec![0, 1, 2, 3]),
            ],
        )
        .unwrap();
        let fact = Table::new(
            "F",
            vec![
                Column::key("fk", vec![0, 0, 1, 2, 3, 3]),
                Column::measure("qty", vec![1, 2, 3, 4, 5, 6]),
            ],
        )
        .unwrap();
        Arc::new(StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap())
    }

    fn batch_queries() -> Vec<StarQuery> {
        (0..4u32)
            .map(|v| StarQuery::count(format!("b{v}")).with(Predicate::point("D", "color", v)))
            .collect()
    }

    #[test]
    fn explain_names_the_route_coverage_picks() {
        // SF 0.02: 120 000 fact rows, room for city × dayofyear's 91 500.
        let ssb = starj_ssb::generate(&starj_ssb::SsbConfig::at_scale(0.02, 7)).unwrap();
        let service = Service::new(Arc::new(ssb), ServiceConfig::default());
        let figure8 = starj_ssb::queries::domain_size_queries();
        let route = |q: &StarQuery| service.explain(q, false).unwrap().route;
        assert_eq!(route(&starj_ssb::queries::qc1()), Some("w_cached"), "7 cells");
        assert_eq!(route(&figure8[4].1), Some("w_batch"), "250 × 366 cells");
        assert_eq!(route(&figure8[2].1), Some("scan"), "250 × 10⁴ cells");
        assert_eq!(route(&starj_ssb::queries::qg2()), Some("scan"), "GROUP BY");
        let json = service.explain(&figure8[4].1, false).unwrap().to_json();
        assert_eq!(json.get("route").and_then(|r| r.as_str()), Some("w_batch"));
    }

    #[test]
    fn batch_charges_once_and_fuses_the_scan() {
        let service = Service::new(toy_schema(), ServiceConfig::default());
        service.register_tenant("t", starj_noise::PrivacyBudget::pure(10.0).unwrap()).unwrap();
        let queries = batch_queries();

        let scans_before = starj_engine::fact_scan_count();
        let answer = service.pm_batch_answer("t", &queries, 1.0).unwrap();
        assert_eq!(starj_engine::fact_scan_count() - scans_before, 1, "4 queries, 1 scan");
        assert_eq!(answer.answers.len(), 4);
        assert!(!answer.cached);
        let cost = answer.cost.expect("fresh batch pays");
        assert!((cost.epsilon() - 1.0).abs() < 1e-12, "one ε charge for the whole batch");
        assert!((service.tenant_usage("t").unwrap().spent_epsilon - 1.0).abs() < 1e-12);
        for a in &answer.answers {
            assert!(a.noisy_query.is_some(), "every member was perturbed");
            assert!(a.result.scalar().unwrap() >= 0.0);
        }
        let m = service.metrics();
        assert_eq!(m.fused_scans, 1);
        assert_eq!(m.fused_queries_saved, 3);
    }

    #[test]
    fn coalesced_submit_parks_paid_requests_and_answers_free_ones_inline() {
        let config = ServiceConfig {
            coalesce: true,
            coalesce_window: Duration::from_micros(100),
            coalesce_workers: 1,
            ..ServiceConfig::default()
        };
        let service = Service::new(toy_schema(), config);
        service.register_tenant("t", starj_noise::PrivacyBudget::pure(10.0).unwrap()).unwrap();

        // A paid request parks; its budget is already reserved at submit.
        let q = StarQuery::count("q").with(Predicate::point("D", "color", 1));
        let submitted = service.submit("t", Request::Pm(&q), 0.5).unwrap();
        assert!(submitted.is_queued());
        let answer = submitted.wait().unwrap().into_pm();
        assert!(!answer.cached);
        assert!(answer.noisy_query.is_some());
        assert!((service.tenant_usage("t").unwrap().spent_epsilon - 0.5).abs() < 1e-12);

        // The identical repeat resolves at submit time from the cache.
        let replay = service.submit("t", Request::Pm(&q), 0.5).unwrap();
        assert!(!replay.is_queued(), "cache hits never park");
        assert!(replay.wait().unwrap().into_pm().cached);

        // Unsatisfiable queries resolve at submit time for free.
        let dead = StarQuery::count("dead")
            .with(Predicate::point("D", "color", 0))
            .with(Predicate::point("D", "color", 3));
        let free = service.submit("t", Request::Pm(&dead), 0.5).unwrap();
        assert!(!free.is_queued(), "free answers never park");
        assert!(free.wait().unwrap().into_pm().cost.is_none());

        let m = service.metrics();
        assert_eq!(m.coalesced_requests, 1, "only the paid fresh request parked");
        assert!((service.tenant_usage("t").unwrap().spent_epsilon - 0.5).abs() < 1e-12);
    }

    #[test]
    fn finish_time_stale_check_refuses_a_refresh_racing_the_scan() {
        // The drain-start filter in the coalescer cannot see a refresh
        // that lands *during* the scan, and a batch never parks at all;
        // the commit-time barrier in `finish` must catch both. Simulate
        // exactly that interleaving for every kind: submit phase done,
        // scan done, refresh lands, then the evaluated work tries to
        // commit.
        let q = StarQuery::count("q").with(Predicate::point("D", "color", 1));
        let batch = batch_queries();
        let workload = PredicateWorkload::new(
            vec![dp_starj::workload::WorkloadBlock {
                table: "D".into(),
                attr: "color".into(),
                domain: 4,
            }],
            vec![
                vec![starj_engine::Constraint::Point(1)],
                vec![starj_engine::Constraint::Range { lo: 0, hi: 2 }],
            ],
        )
        .unwrap();
        for request in [Request::Pm(&q), Request::PmBatch(&batch), Request::Wd(&workload)] {
            let service = Service::new(toy_schema(), ServiceConfig::default());
            service.register_tenant("t", starj_noise::PrivacyBudget::pure(10.0).unwrap()).unwrap();
            let Phase::Work(mut work) = service.core.begin("t", request, 0.5).unwrap() else {
                panic!("{request:?}: a fresh paid request must reach the execute phase");
            };
            service.core.evaluate(&mut [&mut *work]).unwrap();
            service.refresh_schema(toy_schema());
            match service.core.finish(*work) {
                Err(ServiceError::StaleDataVersion { submitted: 0, current: 1 }) => {}
                other => panic!("{request:?}: expected StaleDataVersion, got {other:?}"),
            }
            let usage = service.tenant_usage("t").unwrap();
            assert_eq!(usage.spent_epsilon, 0.0, "{request:?}: refused commit must refund");
            assert_eq!(usage.in_flight_epsilon, 0.0);
            assert_eq!(service.metrics().stale_refusals, 1);
            assert_eq!(service.cached_answers(), 0, "{request:?}: no stale release may be cached");
        }
    }

    #[test]
    fn refresh_schema_bumps_version_and_clears_caches() {
        let service = Service::new(toy_schema(), ServiceConfig::default());
        service.register_tenant("t", starj_noise::PrivacyBudget::pure(10.0).unwrap()).unwrap();
        let q = StarQuery::count("q").with(Predicate::range("D", "color", 0, 3));
        service.pm_answer("t", &q, 1.0).unwrap();
        assert_eq!(service.cached_answers(), 1);
        assert_eq!(service.data_version(), 0);

        let v = service.refresh_schema(toy_schema());
        assert_eq!(v, 1);
        assert_eq!(service.data_version(), 1);
        assert_eq!(service.cached_answers(), 0, "answer cache cleared");
        assert_eq!(service.cached_histograms(), 0, "W cache cleared");

        // The repeat query pays again: it is a fresh release over new data.
        let again = service.pm_answer("t", &q, 1.0).unwrap();
        assert!(!again.cached);
        assert!((service.tenant_usage("t").unwrap().spent_epsilon - 2.0).abs() < 1e-12);
    }
}
