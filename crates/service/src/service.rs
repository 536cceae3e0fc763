//! The service front door: concurrent, multi-tenant DP query answering.
//!
//! Every request runs the same pipeline:
//!
//! 1. **admission** — the request is validated against the schema; malformed
//!    queries are rejected before any budget moves ([`crate::admission`]);
//! 2. **normalization** — the query is canonicalized
//!    ([`starj_engine::canon`]); provably unsatisfiable queries are answered
//!    exactly (empty result) at zero cost, since that fact depends only on
//!    the query text, never on the data;
//! 3. **cache** — an identical prior release (same tenant, mechanism, ε,
//!    data version, canonical request) replays for free;
//! 4. **reserve** — the tenant's accountant atomically holds the `(ε, δ)`
//!    cost, refusing with [`ServiceError::BudgetExhausted`] when the
//!    allotment cannot absorb it;
//! 5. **perturb** — the request's private randomness is drawn and applied
//!    (PM's noisy query, WD's reconstructed weighted rows), still on the
//!    caller's thread in arrival order;
//! 6. **execute** — the fixed noisy artifact is evaluated against the data.
//!    With [`ServiceConfig::coalesce`] enabled this step parks in the
//!    group-commit queue ([`crate::coalesce`]) and shares one fused fact
//!    scan with whatever concurrent traffic drained alongside it —
//!    evaluation is post-processing, so fusing it is privacy-free;
//! 7. **commit + release** — the cost is committed, the answer cached and
//!    returned, metrics updated. An execution error instead rolls the
//!    reservation back via RAII, so a failed query spends nothing.
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

use crate::accountant::{AuditCtx, BudgetAccountant, TenantUsage};
use crate::admission::{min_frequency_check, validate_query, validate_workload};
use crate::cache::{AnswerCache, CachedAnswer, Mechanism, RequestKey};
use crate::coalesce::{pending_pair, Coalescer, Job, PmJob, Submitted, WdJob};
use crate::durable::{DurableConfig, DurableState, DurableStatus, JournalCtx, RecordMeta};
use crate::error::ServiceError;
use crate::explain::ExplainReport;
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::wcache::{WKey, WeightHistogramCache};
use dp_starj::pm::PmConfig;
use dp_starj::workload::WdConfig;
use dp_starj::{pm_kstar, wd_reconstruct, workload_axes, CoreError, PredicateWorkload};
use starj_durable::{BudgetWal, FaultPlan};
use starj_engine::{
    canonicalize, execute_batch_with, execute_weighted_batch_with, execute_with, Agg, QueryResult,
    StarQuery, StarSchema, WeightHistogram, WeightedQuery,
};
use starj_graph::{Graph, KStarQuery};
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
    /// Workload Decomposition configuration.
    pub wd: WdConfig,
    /// Root seed; request RNGs derive from it by arrival index.
    pub seed: u64,
    /// Set false to disable answer replay (every request pays).
    pub cache_answers: bool,
    /// Maximum cached answers before FIFO eviction (bounds service memory).
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
    /// Cache the joint attribute-code W histograms that answer workload
    /// requests (`Q = Φ·W`), keyed on (axis set, aggregate, data version).
    /// With a warm cache, repeat workload traffic is scan-free.
    pub cache_w_histograms: bool,
    /// Maximum cached W histograms before FIFO eviction.
    pub w_cache_capacity: usize,
    /// Observability: span-ring / audit-trail / slow-query-log capacities
    /// and the slow-query latency threshold. The defaults keep everything
    /// on; [`TelemetryConfig::disabled`] turns every component off (the
    /// tracing-off arm of the coalesce bench's A/B).
    pub telemetry: TelemetryConfig,
    /// DPSQL+-style minimum-frequency floor: refuse any query carrying a
    /// predicate whose cost-model estimated passing fact-row count falls
    /// below this many rows ([`ServiceError::BelowMinFrequency`], decided
    /// at admission, before any budget is reserved). `0` (the default)
    /// disables the guard.
    pub min_pass_rows: u64,
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
            wd: WdConfig::default(),
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
            cache_w_histograms: true,
            w_cache_capacity: crate::wcache::DEFAULT_W_CACHE_CAPACITY,
            telemetry: TelemetryConfig::default(),
            min_pass_rows: 0,
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

/// A served k-star answer.
#[derive(Debug, Clone)]
pub struct KStarAnswer {
    /// The noisy k-star count.
    pub count: f64,
    /// The perturbed range actually counted.
    pub noisy_query: KStarQuery,
    /// True iff replayed from the cache.
    pub cached: bool,
    /// What this call charged the tenant (`None` for cache hits).
    pub cost: Option<PrivacyBudget>,
}

/// A PM request that finished its private phase (admitted, reserved,
/// perturbed) and is ready for the pure-evaluation step — either inline or
/// parked in the coalescer. Dropping it without finishing refunds the
/// reservation.
#[derive(Debug)]
pub(crate) struct PmWork {
    pub(crate) tenant: String,
    pub(crate) name: String,
    pub(crate) epsilon: f64,
    pub(crate) cost: PrivacyBudget,
    pub(crate) key: RequestKey,
    pub(crate) noisy: StarQuery,
    pub(crate) reservation: crate::accountant::Reservation,
    pub(crate) schema: Arc<StarSchema>,
    pub(crate) version: u64,
    pub(crate) start: Instant,
    pub(crate) trace: TraceBuilder,
}

/// A WD request past its private phase: the reconstructed real-valued rows
/// plus the normalized axis set the coalescer partitions on.
#[derive(Debug)]
pub(crate) struct WdWork {
    pub(crate) tenant: String,
    pub(crate) epsilon: f64,
    pub(crate) cost: PrivacyBudget,
    pub(crate) key: RequestKey,
    pub(crate) rows: Vec<WeightedQuery>,
    pub(crate) axes: Vec<(String, String)>,
    /// Joint code space when the axes fit the dense cap (W-cache eligible);
    /// resolved once at submit so the answering step never recomputes it.
    pub(crate) space: Option<usize>,
    pub(crate) reservation: crate::accountant::Reservation,
    pub(crate) schema: Arc<StarSchema>,
    pub(crate) version: u64,
    pub(crate) start: Instant,
    pub(crate) trace: TraceBuilder,
}

/// Submit-phase outcome: answered on the spot, or ready to execute.
/// Boxed for the same reason as [`WdPhase`]: the work unit carries the
/// noisy query, the schema Arc, and the trace builder.
pub(crate) enum PmPhase {
    Immediate(ServiceAnswer),
    Execute(Box<PmWork>),
}

pub(crate) enum WdPhase {
    Immediate(WorkloadAnswer),
    // Boxed: the work unit carries the reconstructed rows and is much
    // larger than the immediate answer.
    Execute(Box<WdWork>),
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
/// instance (and optionally one graph, for k-star queries).
#[derive(Debug)]
pub struct Service {
    core: Arc<ServiceCore>,
    graph: Option<Arc<Graph>>,
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
                let (wal, recovery) =
                    BudgetWal::open(durable_config.wal_config(), config.fault.clone()).map_err(
                        |e| ServiceError::DurabilityUnavailable { reason: e.to_string() },
                    )?;
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
        Ok(Service { core, graph: None, coalescer })
    }

    /// Attaches a graph so the service can answer k-star queries.
    pub fn with_graph(mut self, graph: Arc<Graph>) -> Self {
        self.graph = Some(graph);
        self
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
        let (old, version) = {
            let mut guard = self.core.schema.write().unwrap_or_else(|e| e.into_inner());
            let next = guard.1 + 1;
            let old = std::mem::replace(&mut guard.0, schema);
            guard.1 = next;
            (old, next)
        };
        // The sampled cost model is keyed on the schema instance; drop the
        // outgoing instance's entry so the registry never serves estimates
        // for retired data (and a reused allocation can't alias them).
        starj_engine::invalidate_cost_model(&old);
        self.core.cache.clear();
        self.core.wcache.clear();
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

    /// Answers a star-join query with the Predicate Mechanism under ε-DP,
    /// charged to `tenant`. With coalescing enabled this is
    /// [`Service::pm_submit`] + wait.
    pub fn pm_answer(
        &self,
        tenant: &str,
        query: &StarQuery,
        epsilon: f64,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.pm_submit(tenant, query, epsilon)?.wait()
    }

    /// Submits a PM request without blocking on the scan: free answers,
    /// cache hits, and every admission/budget refusal resolve immediately;
    /// otherwise the perturbed query parks in the coalescer queue (its
    /// budget already reserved, its noise already drawn) and the returned
    /// handle waits for the group-commit drain. With coalescing disabled
    /// the request is answered inline and returned as
    /// [`Submitted::Ready`].
    pub fn pm_submit(
        &self,
        tenant: &str,
        query: &StarQuery,
        epsilon: f64,
    ) -> Result<Submitted<ServiceAnswer>, ServiceError> {
        match &self.coalescer {
            None => self.core.pm_direct(tenant, query, epsilon).map(Submitted::Ready),
            Some(coalescer) => match self.core.pm_phase1(tenant, query, epsilon)? {
                PmPhase::Immediate(answer) => Ok(Submitted::Ready(answer)),
                PmPhase::Execute(mut work) => {
                    work.trace.mark_queued();
                    work.trace.stage_begin(Stage::QueueWait);
                    let (pending, slot) = pending_pair();
                    coalescer.enqueue(Job::Pm(PmJob { work: *work, slot }));
                    Ok(Submitted::Queued(pending))
                }
            },
        }
    }

    /// Describes what serving `query` *would* do, without doing it: the
    /// canonical SQL the cache would key on, the compiled plan shape
    /// (filter order, probe classes, mask sharing, fk staging, cost-model
    /// estimates with confidence intervals), and — when `profile` is set —
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
                plan: None,
                profile: None,
            });
        }
        let (plan, profiled) =
            crate::explain::describe_query(&schema, &canonical, core.config.pm.scan, profile)?;
        Ok(ExplainReport {
            canonical_sql,
            unsatisfiable: false,
            data_version: version,
            plan: Some(plan),
            profile: profiled,
        })
    }

    /// Answers a counting-query workload with Workload Decomposition under
    /// ε-DP, charged to `tenant`. With coalescing enabled this is
    /// [`Service::wd_submit`] + wait.
    pub fn wd_answer(
        &self,
        tenant: &str,
        workload: &PredicateWorkload,
        epsilon: f64,
    ) -> Result<WorkloadAnswer, ServiceError> {
        self.wd_submit(tenant, workload, epsilon)?.wait()
    }

    /// Submits a WD request without blocking on the scan; the counterpart
    /// of [`Service::pm_submit`]. The workload's strategy rows are
    /// perturbed and reconstructed at submit time; what parks is the fixed
    /// real-valued row set, which the coalescer answers through a shared
    /// (possibly cached) W histogram or one fused weighted scan.
    pub fn wd_submit(
        &self,
        tenant: &str,
        workload: &PredicateWorkload,
        epsilon: f64,
    ) -> Result<Submitted<WorkloadAnswer>, ServiceError> {
        match &self.coalescer {
            None => self.core.wd_direct(tenant, workload, epsilon).map(Submitted::Ready),
            Some(coalescer) => match self.core.wd_phase1(tenant, workload, epsilon)? {
                WdPhase::Immediate(answer) => Ok(Submitted::Ready(answer)),
                WdPhase::Execute(mut work) => {
                    work.trace.mark_queued();
                    work.trace.stage_begin(Stage::QueueWait);
                    let (pending, slot) = pending_pair();
                    coalescer.enqueue(Job::Wd(WdJob { work: *work, slot }));
                    Ok(Submitted::Queued(pending))
                }
            },
        }
    }

    /// Answers a batch of star-join queries with the Predicate Mechanism in
    /// **one fused fact scan**, charged to `tenant` as a unit.
    ///
    /// The total budget `epsilon` splits evenly across the satisfiable
    /// members (sequential composition, as in the PM-per-query workload
    /// baseline); provably unsatisfiable members are answered exactly for
    /// free and do not dilute the split. Perturbation stays per-query —
    /// each member draws its own noise exactly as [`Service::pm_answer`]
    /// would — only the *answering* scan is shared, which is privacy-free
    /// post-processing of the already-noisy queries. Explicit batches do
    /// not pass through the coalescer: they are already fused.
    pub fn pm_batch_answer(
        &self,
        tenant: &str,
        queries: &[StarQuery],
        epsilon: f64,
    ) -> Result<BatchAnswer, ServiceError> {
        let core = &self.core;
        let start = Instant::now();
        let mut trace = core.telemetry.trace_start(RequestKind::PmBatch, tenant);
        trace.stage_begin(Stage::Admission);
        let cost = core.admit_cost(epsilon)?;
        if queries.is_empty() {
            trace.stage_end(Stage::Admission);
            core.telemetry.trace_finish(trace, TraceOutcome::Free);
            return Ok(BatchAnswer { answers: Vec::new(), cached: false, cost: None });
        }
        let (schema, version) = core.snapshot();
        for q in queries {
            core.admit(|| validate_query(&schema, q))?;
            core.admit(|| min_frequency_check(&schema, &q.predicates, core.config.min_pass_rows))?;
        }
        trace.stage_end(Stage::Admission);

        let (canons, key) = trace.stage(Stage::Canon, || {
            let canons: Vec<_> = queries.iter().map(canonicalize).collect();
            let key = RequestKey::Workload(canons.clone());
            (canons, key)
        });
        let hit = trace.stage(Stage::CacheProbe, || {
            core.cache_get(tenant, Mechanism::PmBatch, epsilon, version, &key)
        });
        if let Some(hit) = hit {
            core.served(start);
            core.telemetry.trace_finish(trace, TraceOutcome::Cached);
            let answers = queries
                .iter()
                .zip(hit.batch)
                .map(|(q, (result, noisy_query))| ServiceAnswer {
                    name: q.name.clone(),
                    result,
                    noisy_query,
                    cached: true,
                    cost: None,
                })
                .collect();
            return Ok(BatchAnswer { answers, cached: true, cost: None });
        }

        // Free members (unsatisfiable on every instance) answer exactly and
        // are excluded from the budget split.
        let satisfiable: Vec<usize> =
            (0..queries.len()).filter(|&i| !canons[i].unsatisfiable).collect();
        let mut batch: Vec<(QueryResult, Option<StarQuery>)> = canons
            .iter()
            .map(|c| {
                let empty = if c.group_by.is_empty() {
                    QueryResult::Scalar(0.0)
                } else {
                    QueryResult::Groups(BTreeMap::new())
                };
                (empty, None)
            })
            .collect();

        let charged = if satisfiable.is_empty() {
            ServiceMetrics::add(&core.metrics.free_answers, queries.len() as u64);
            None
        } else {
            let reservation = trace.stage(Stage::BudgetReserve, || {
                core.reserve(tenant, cost, query_hash(Mechanism::PmBatch, &key), version)
            })?;
            let mut rng = core.request_rng();
            let eps_each = epsilon / satisfiable.len() as f64;
            // Phase 1: per-member perturbation (the private step).
            let noisy: Vec<StarQuery> = match trace.stage(Stage::Perturb, || {
                satisfiable
                    .iter()
                    .map(|&i| {
                        dp_starj::pm::perturb_query(
                            &schema,
                            &canons[i].to_query(&queries[i].name),
                            eps_each,
                            &core.config.pm,
                            &mut rng,
                        )
                    })
                    .collect::<Result<_, _>>()
            }) {
                Ok(n) => n,
                Err(e) => {
                    ServiceMetrics::inc(&core.metrics.mechanism_failures);
                    return Err(e.into());
                }
            };
            // Phase 2: one fused scan answers every noisy member.
            let results = match trace.stage(Stage::FusedScan, || {
                execute_batch_with(&schema, &noisy, core.config.pm.scan)
            }) {
                Ok(r) => r,
                Err(e) => {
                    ServiceMetrics::inc(&core.metrics.mechanism_failures);
                    return Err(ServiceError::InvalidQuery(e));
                }
            };
            trace.stage(Stage::Commit, || reservation.commit())?;
            // Metrics only after the batch actually commits — a refused or
            // failed request must not count its free members as served.
            ServiceMetrics::add(
                &core.metrics.free_answers,
                (queries.len() - satisfiable.len()) as u64,
            );
            ServiceMetrics::inc(&core.metrics.fused_scans);
            ServiceMetrics::add(&core.metrics.fused_queries_saved, satisfiable.len() as u64 - 1);
            for ((&i, result), noisy_query) in satisfiable.iter().zip(results).zip(noisy) {
                batch[i] = (result, Some(noisy_query));
            }
            Some(cost)
        };

        // All-free batches are not cached (consistent with `pm_answer`'s
        // free path): recomputing them costs no budget, and caching one
        // would record an `original_cost` that was never charged.
        if core.config.cache_answers && charged.is_some() {
            core.cache.insert(
                tenant,
                Mechanism::PmBatch,
                epsilon,
                version,
                key,
                CachedAnswer {
                    result: QueryResult::Scalar(0.0),
                    workload_answers: Vec::new(),
                    noisy_query: None,
                    batch: batch.clone(),
                    noisy_kstar: None,
                    original_cost: cost,
                },
            );
        }
        core.served(start);
        let outcome = if charged.is_some() { TraceOutcome::Ok } else { TraceOutcome::Free };
        core.telemetry.trace_finish(trace, outcome);
        let answers = queries
            .iter()
            .zip(batch)
            .map(|(q, (result, noisy_query))| ServiceAnswer {
                name: q.name.clone(),
                result,
                noisy_query,
                cached: false,
                cost: None,
            })
            .collect();
        Ok(BatchAnswer { answers, cached: false, cost: charged })
    }

    /// Answers a k-star counting query with PM under ε-DP, charged to
    /// `tenant`. Requires a service built [`Service::with_graph`].
    pub fn kstar_answer(
        &self,
        tenant: &str,
        query: &KStarQuery,
        epsilon: f64,
    ) -> Result<KStarAnswer, ServiceError> {
        let core = &self.core;
        let start = Instant::now();
        let mut trace = core.telemetry.trace_start(RequestKind::KStar, tenant);
        trace.stage_begin(Stage::Admission);
        let cost = core.admit_cost(epsilon)?;
        let graph = self.graph.as_ref().ok_or(ServiceError::NoGraph)?;
        let version = core.snapshot().1;
        core.admit(|| {
            if query.lo > query.hi || query.hi >= graph.num_nodes() {
                Err(ServiceError::InvalidQuery(starj_engine::EngineError::InvalidConstraint(
                    format!(
                        "k-star range [{}, {}] invalid for a {}-node graph",
                        query.lo,
                        query.hi,
                        graph.num_nodes()
                    ),
                )))
            } else {
                Ok(())
            }
        })?;
        trace.stage_end(Stage::Admission);

        let key = RequestKey::KStar(query.k, query.lo, query.hi);
        let hit = trace.stage(Stage::CacheProbe, || {
            core.cache_get(tenant, Mechanism::KStar, epsilon, version, &key)
        });
        if let Some(hit) = hit {
            core.served(start);
            core.telemetry.trace_finish(trace, TraceOutcome::Cached);
            let (k, lo, hi) = hit.noisy_kstar.unwrap_or((query.k, query.lo, query.hi));
            return Ok(KStarAnswer {
                count: hit.result.scalar().map_err(ServiceError::InvalidQuery)?,
                noisy_query: KStarQuery { k, lo, hi },
                cached: true,
                cost: None,
            });
        }

        let reservation = trace.stage(Stage::BudgetReserve, || {
            core.reserve(tenant, cost, query_hash(Mechanism::KStar, &key), version)
        })?;
        let mut rng = core.request_rng();
        let (count, noisy_query) = match trace.stage(Stage::Perturb, || {
            pm_kstar(graph, query, epsilon, core.config.pm.policy, &mut rng)
        }) {
            Ok(a) => a,
            Err(e) => {
                ServiceMetrics::inc(&core.metrics.mechanism_failures);
                return Err(e.into());
            }
        };
        trace.stage(Stage::Commit, || reservation.commit())?;

        if core.config.cache_answers {
            core.cache.insert(
                tenant,
                Mechanism::KStar,
                epsilon,
                version,
                key,
                CachedAnswer {
                    result: QueryResult::Scalar(count),
                    workload_answers: Vec::new(),
                    noisy_query: None,
                    batch: Vec::new(),
                    noisy_kstar: Some((noisy_query.k, noisy_query.lo, noisy_query.hi)),
                    original_cost: cost,
                },
            );
        }
        core.served(start);
        core.telemetry.trace_finish(trace, TraceOutcome::Ok);
        Ok(KStarAnswer { count, noisy_query, cached: false, cost: Some(cost) })
    }
}

impl ServiceCore {
    /// The current `(schema, data version)` pair, read atomically.
    pub(crate) fn snapshot(&self) -> (Arc<StarSchema>, u64) {
        let guard = self.schema.read().unwrap_or_else(|e| e.into_inner());
        (Arc::clone(&guard.0), guard.1)
    }

    // ---- PM pipeline ------------------------------------------------------

    /// The submit phase: everything privacy-relevant, on the caller's
    /// thread. Returns either an immediate answer (free or cached) or the
    /// reserved-and-perturbed work unit ready for pure evaluation.
    pub(crate) fn pm_phase1(
        &self,
        tenant: &str,
        query: &StarQuery,
        epsilon: f64,
    ) -> Result<PmPhase, ServiceError> {
        let start = Instant::now();
        let mut trace = self.telemetry.trace_start(RequestKind::Pm, tenant);
        let (schema, version) = self.snapshot();
        let cost = trace.stage(Stage::Admission, || {
            let cost = self.admit_cost(epsilon)?;
            self.admit(|| validate_query(&schema, query))?;
            self.admit(|| {
                min_frequency_check(&schema, &query.predicates, self.config.min_pass_rows)
            })?;
            Ok::<_, ServiceError>(cost)
        })?;

        let canon = trace.stage(Stage::Canon, || canonicalize(query));
        if canon.unsatisfiable {
            // Unsatisfiable on every instance — the exact empty answer is
            // data-independent, hence free.
            let result = if canon.group_by.is_empty() {
                QueryResult::Scalar(0.0)
            } else {
                QueryResult::Groups(BTreeMap::new())
            };
            ServiceMetrics::inc(&self.metrics.free_answers);
            self.served(start);
            self.telemetry.trace_finish(trace, TraceOutcome::Free);
            return Ok(PmPhase::Immediate(ServiceAnswer {
                name: query.name.clone(),
                result,
                noisy_query: None,
                cached: false,
                cost: None,
            }));
        }

        let key = RequestKey::Single(canon.clone());
        let hit = trace.stage(Stage::CacheProbe, || {
            self.cache_get(tenant, Mechanism::Pm, epsilon, version, &key)
        });
        if let Some(hit) = hit {
            self.served(start);
            self.telemetry.trace_finish(trace, TraceOutcome::Cached);
            return Ok(PmPhase::Immediate(ServiceAnswer {
                name: query.name.clone(),
                result: hit.result,
                noisy_query: hit.noisy_query,
                cached: true,
                cost: None,
            }));
        }

        let query_hash = query_hash(Mechanism::Pm, &key);
        let reservation = trace
            .stage(Stage::BudgetReserve, || self.reserve(tenant, cost, query_hash, version))?;
        let mut rng = self.request_rng();
        // The canonical form is what executes: presentation-equivalent
        // queries must spend identically, not just cache identically.
        let executable = canon.to_query(&query.name);
        let noisy = match trace.stage(Stage::Perturb, || {
            dp_starj::pm::perturb_query(&schema, &executable, epsilon, &self.config.pm, &mut rng)
        }) {
            Ok(n) => n,
            Err(e) => {
                // Reservation drops here → automatic refund.
                ServiceMetrics::inc(&self.metrics.mechanism_failures);
                return Err(e.into());
            }
        };
        Ok(PmPhase::Execute(Box::new(PmWork {
            tenant: tenant.to_string(),
            name: query.name.clone(),
            epsilon,
            cost,
            key,
            noisy,
            reservation,
            schema,
            version,
            start,
            trace,
        })))
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

    /// Commit + cache + metrics for an executed PM request.
    pub(crate) fn pm_finish(
        &self,
        work: PmWork,
        result: QueryResult,
    ) -> Result<ServiceAnswer, ServiceError> {
        let PmWork {
            tenant,
            name,
            epsilon,
            cost,
            key,
            noisy,
            reservation,
            version,
            start,
            mut trace,
            ..
        } = work;
        trace.stage(Stage::Commit, || {
            self.stale_check(version)?;
            reservation.commit()?;
            if self.config.cache_answers {
                self.cache.insert(
                    &tenant,
                    Mechanism::Pm,
                    epsilon,
                    version,
                    key,
                    CachedAnswer {
                        result: result.clone(),
                        workload_answers: Vec::new(),
                        noisy_query: Some(noisy.clone()),
                        batch: Vec::new(),
                        noisy_kstar: None,
                        original_cost: cost,
                    },
                );
            }
            Ok::<_, ServiceError>(())
        })?;
        self.served(start);
        self.telemetry.trace_finish(trace, TraceOutcome::Ok);
        Ok(ServiceAnswer {
            name,
            result,
            noisy_query: Some(noisy),
            cached: false,
            cost: Some(cost),
        })
    }

    /// The sequential path: submit phase + inline evaluation.
    pub(crate) fn pm_direct(
        &self,
        tenant: &str,
        query: &StarQuery,
        epsilon: f64,
    ) -> Result<ServiceAnswer, ServiceError> {
        match self.pm_phase1(tenant, query, epsilon)? {
            PmPhase::Immediate(answer) => Ok(answer),
            PmPhase::Execute(work) => {
                let mut work = *work;
                let scan = self.config.pm.scan;
                let result = match work
                    .trace
                    .stage(Stage::FusedScan, || execute_with(&work.schema, &work.noisy, scan))
                {
                    Ok(r) => r,
                    Err(e) => {
                        ServiceMetrics::inc(&self.metrics.mechanism_failures);
                        return Err(ServiceError::Mechanism(CoreError::Engine(e)));
                    }
                };
                self.pm_finish(work, result)
            }
        }
    }

    // ---- WD pipeline ------------------------------------------------------

    pub(crate) fn wd_phase1(
        &self,
        tenant: &str,
        workload: &PredicateWorkload,
        epsilon: f64,
    ) -> Result<WdPhase, ServiceError> {
        let start = Instant::now();
        let mut trace = self.telemetry.trace_start(RequestKind::Wd, tenant);
        let (schema, version) = self.snapshot();
        let cost = trace.stage(Stage::Admission, || {
            let cost = self.admit_cost(epsilon)?;
            self.admit(|| validate_workload(&schema, workload))?;
            Ok::<_, ServiceError>(cost)
        })?;

        let key = trace.stage(Stage::Canon, || {
            RequestKey::Workload(workload.to_star_queries().iter().map(canonicalize).collect())
        });
        let hit = trace.stage(Stage::CacheProbe, || {
            self.cache_get(tenant, Mechanism::Wd, epsilon, version, &key)
        });
        if let Some(hit) = hit {
            self.served(start);
            self.telemetry.trace_finish(trace, TraceOutcome::Cached);
            return Ok(WdPhase::Immediate(WorkloadAnswer {
                answers: hit.workload_answers,
                cached: true,
                cost: None,
            }));
        }

        let (axes, space) = WeightHistogram::plan_axes(&schema, &workload_axes(workload))?;
        let query_hash = query_hash(Mechanism::Wd, &key);
        let reservation = trace
            .stage(Stage::BudgetReserve, || self.reserve(tenant, cost, query_hash, version))?;
        let mut rng = self.request_rng();
        let rows = match trace.stage(Stage::Perturb, || {
            wd_reconstruct(&schema, workload, epsilon, &self.config.wd, &mut rng)
        }) {
            Ok(rows) => rows,
            Err(e) => {
                ServiceMetrics::inc(&self.metrics.mechanism_failures);
                return Err(e.into());
            }
        };
        Ok(WdPhase::Execute(Box::new(WdWork {
            tenant: tenant.to_string(),
            epsilon,
            cost,
            key,
            rows,
            axes,
            space,
            reservation,
            schema,
            version,
            start,
            trace,
        })))
    }

    /// Answers an axis-compatible group of reconstructed row sets — the
    /// shared evaluation step of the direct path (one set) and a coalesced
    /// WD partition (many). When the joint code space fits the dense cap,
    /// the W histogram answers everything: a cached `W` makes the whole
    /// partition scan-free, a cold one costs a single build scan shared by
    /// every request. Oversized axis sets fall back to one fused weighted
    /// scan whose per-query row loops are independent of batch composition,
    /// keeping answers bit-identical to the sequential path either way.
    pub(crate) fn wd_partition_answers(
        &self,
        schema: &Arc<StarSchema>,
        version: u64,
        axes: &[(String, String)],
        space: Option<usize>,
        batches: &[&[WeightedQuery]],
    ) -> Result<Vec<Vec<f64>>, ServiceError> {
        let total_rows: usize = batches.iter().map(|b| b.len()).sum();
        let mechanism = |e| ServiceError::Mechanism(CoreError::Engine(e));
        let space = if self.config.cache_w_histograms { space } else { None };
        if space.is_some() {
            let key = WKey { axes: axes.to_vec(), agg: Agg::Count, version };
            let (histogram, built) = match self.wcache.get(&key) {
                Some(h) => (h, false),
                None => {
                    let h = WeightHistogram::build(schema, axes, &Agg::Count, self.config.wd.scan)
                        .map_err(mechanism)?;
                    let h = Arc::new(h);
                    self.wcache.insert(key, Arc::clone(&h));
                    (h, true)
                }
            };
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
                .map(|rows| {
                    rows.iter()
                        .map(|q| histogram.answer(&q.predicates, &q.agg))
                        .collect::<Result<Vec<f64>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(mechanism)
        } else {
            let all: Vec<WeightedQuery> = batches.iter().flat_map(|b| b.iter().cloned()).collect();
            let flat = execute_weighted_batch_with(schema, &all, self.config.wd.scan)
                .map_err(mechanism)?;
            ServiceMetrics::inc(&self.metrics.fused_scans);
            ServiceMetrics::add(
                &self.metrics.fused_queries_saved,
                total_rows.saturating_sub(1) as u64,
            );
            let mut flat = flat.into_iter();
            Ok(batches.iter().map(|b| flat.by_ref().take(b.len()).collect()).collect())
        }
    }

    /// Commit + cache + metrics for an executed WD request.
    pub(crate) fn wd_finish(
        &self,
        work: WdWork,
        answers: Vec<f64>,
    ) -> Result<WorkloadAnswer, ServiceError> {
        let WdWork { tenant, epsilon, cost, key, reservation, version, start, mut trace, .. } =
            work;
        trace.stage(Stage::Commit, || {
            self.stale_check(version)?;
            reservation.commit()?;
            if self.config.cache_answers {
                self.cache.insert(
                    &tenant,
                    Mechanism::Wd,
                    epsilon,
                    version,
                    key,
                    CachedAnswer {
                        result: QueryResult::Scalar(0.0),
                        workload_answers: answers.clone(),
                        noisy_query: None,
                        batch: Vec::new(),
                        noisy_kstar: None,
                        original_cost: cost,
                    },
                );
            }
            Ok::<_, ServiceError>(())
        })?;
        self.served(start);
        self.telemetry.trace_finish(trace, TraceOutcome::Ok);
        Ok(WorkloadAnswer { answers, cached: false, cost: Some(cost) })
    }

    pub(crate) fn wd_direct(
        &self,
        tenant: &str,
        workload: &PredicateWorkload,
        epsilon: f64,
    ) -> Result<WorkloadAnswer, ServiceError> {
        match self.wd_phase1(tenant, workload, epsilon)? {
            WdPhase::Immediate(answer) => Ok(answer),
            WdPhase::Execute(mut work) => {
                work.trace.stage_begin(Stage::FusedScan);
                let answers = match self.wd_partition_answers(
                    &work.schema,
                    work.version,
                    &work.axes,
                    work.space,
                    &[work.rows.as_slice()],
                ) {
                    Ok(mut sets) => sets.pop().expect("one batch yields one answer set"),
                    Err(e) => {
                        ServiceMetrics::inc(&self.metrics.mechanism_failures);
                        return Err(e);
                    }
                };
                work.trace.stage_end(Stage::FusedScan);
                self.wd_finish(*work, answers)
            }
        }
    }

    // ---- pipeline helpers -------------------------------------------------

    fn admit_cost(&self, epsilon: f64) -> Result<PrivacyBudget, ServiceError> {
        PrivacyBudget::pure(epsilon).map_err(|e| {
            ServiceMetrics::inc(&self.metrics.admission_rejections);
            ServiceError::InvalidBudget(e)
        })
    }

    fn admit(&self, check: impl FnOnce() -> Result<(), ServiceError>) -> Result<(), ServiceError> {
        check().inspect_err(|_| {
            ServiceMetrics::inc(&self.metrics.admission_rejections);
        })
    }

    fn reserve(
        &self,
        tenant: &str,
        cost: PrivacyBudget,
        query_hash: u64,
        version: u64,
    ) -> Result<crate::accountant::Reservation, ServiceError> {
        let trail = self.telemetry.audit();
        let audit = trail.enabled().then(|| AuditCtx {
            trail: Arc::clone(trail),
            query_hash,
            data_version: version,
            // Captured here — on the submitting thread — so settlement
            // events recorded later on a coalescer worker still carry it.
            request_id: starj_telemetry::current_wire_request_id(),
        });
        let journal = self.durable.as_ref().map(|state| {
            JournalCtx::new(
                Arc::clone(state),
                RecordMeta {
                    query_hash,
                    data_version: version,
                    request_id: starj_telemetry::current_wire_request_id(),
                },
            )
        });
        self.accountant.reserve_journaled(tenant, cost, audit, journal).inspect_err(|e| {
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
    ) -> Option<CachedAnswer> {
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
    fn min_frequency_floor_refuses_without_spending() {
        let config = ServiceConfig { min_pass_rows: 2, ..ServiceConfig::default() };
        let service = Service::new(toy_schema(), config);
        service.register_tenant("t", starj_noise::PrivacyBudget::pure(10.0).unwrap()).unwrap();

        // Fact fks are [0, 0, 1, 2, 3, 3]: color = 1 admits one row — under
        // the floor of 2 — while color = 0 admits two and is served.
        let rare = StarQuery::count("rare").with(Predicate::point("D", "color", 1));
        let err = service.pm_answer("t", &rare, 0.5).unwrap_err();
        assert!(matches!(err, ServiceError::BelowMinFrequency { floor: 2, .. }), "got {err:?}");
        let usage = service.tenant_usage("t").unwrap();
        assert_eq!(usage.spent_epsilon, 0.0, "refusal at admission spends nothing");
        assert_eq!(service.metrics().admission_rejections, 1);

        let common = StarQuery::count("common").with(Predicate::point("D", "color", 0));
        service.pm_answer("t", &common, 0.5).unwrap();
        assert!(service.tenant_usage("t").unwrap().spent_epsilon > 0.0);

        // The same floor guards the batch path.
        let err = service.pm_batch_answer("t", &[common, rare], 0.5).unwrap_err();
        assert!(matches!(err, ServiceError::BelowMinFrequency { .. }));
    }

    #[test]
    fn batch_replays_from_cache_for_free() {
        let service = Service::new(toy_schema(), ServiceConfig::default());
        service.register_tenant("t", starj_noise::PrivacyBudget::pure(10.0).unwrap()).unwrap();
        let queries = batch_queries();
        let first = service.pm_batch_answer("t", &queries, 1.0).unwrap();
        let replay = service.pm_batch_answer("t", &queries, 1.0).unwrap();
        assert!(replay.cached);
        assert!(replay.cost.is_none());
        for (a, b) in first.answers.iter().zip(&replay.answers) {
            assert_eq!(a.result, b.result, "replayed answers are byte-identical");
            assert_eq!(a.noisy_query, b.noisy_query);
        }
        assert!((service.tenant_usage("t").unwrap().spent_epsilon - 1.0).abs() < 1e-12);
        assert_eq!(service.metrics().cache_hits, 1);
    }

    #[test]
    fn unsatisfiable_members_are_free_and_do_not_dilute_the_split() {
        let service = Service::new(toy_schema(), ServiceConfig::default());
        service.register_tenant("t", starj_noise::PrivacyBudget::pure(10.0).unwrap()).unwrap();
        // Two contradictory predicates on one attribute: unsatisfiable.
        let dead = StarQuery::count("dead")
            .with(Predicate::point("D", "color", 0))
            .with(Predicate::point("D", "color", 3));
        let live = StarQuery::count("live").with(Predicate::range("D", "color", 0, 3));
        let answer = service.pm_batch_answer("t", &[dead.clone(), live], 1.0).unwrap();
        assert_eq!(answer.answers[0].result.scalar().unwrap(), 0.0);
        assert!(answer.answers[0].noisy_query.is_none(), "free member never executed");
        assert!(answer.answers[1].noisy_query.is_some());
        assert_eq!(service.metrics().free_answers, 1);

        // An all-unsatisfiable batch is entirely free and is NOT cached
        // (there is no paid release to replay).
        let cached_before = service.cached_answers();
        let free = service.pm_batch_answer("t", &[dead], 1.0).unwrap();
        assert!(free.cost.is_none());
        assert_eq!(service.cached_answers(), cached_before, "free batches are not cached");
        assert!((service.tenant_usage("t").unwrap().spent_epsilon - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_is_a_free_no_op_but_still_validates_epsilon() {
        let service = Service::new(toy_schema(), ServiceConfig::default());
        service.register_tenant("t", starj_noise::PrivacyBudget::pure(1.0).unwrap()).unwrap();
        let answer = service.pm_batch_answer("t", &[], 0.5).unwrap();
        assert!(answer.answers.is_empty());
        assert!(answer.cost.is_none());
        assert_eq!(service.tenant_usage("t").unwrap().spent_epsilon, 0.0);
        // A malformed budget is refused even with nothing to answer, like
        // every other endpoint.
        for bad in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                service.pm_batch_answer("t", &[], bad),
                Err(ServiceError::InvalidBudget(_))
            ));
        }
    }

    #[test]
    fn refused_batch_counts_no_free_answers() {
        let service = Service::new(toy_schema(), ServiceConfig::default());
        service.register_tenant("t", starj_noise::PrivacyBudget::pure(0.1).unwrap()).unwrap();
        let dead = StarQuery::count("dead")
            .with(Predicate::point("D", "color", 0))
            .with(Predicate::point("D", "color", 3));
        let live = StarQuery::count("live").with(Predicate::point("D", "color", 1));
        // ε = 1.0 exceeds the 0.1 allotment: the whole batch is refused and
        // its unsatisfiable member must not be recorded as served.
        assert!(matches!(
            service.pm_batch_answer("t", &[dead, live], 1.0),
            Err(ServiceError::BudgetExhausted { .. })
        ));
        let m = service.metrics();
        assert_eq!(m.free_answers, 0);
        assert_eq!(m.fused_scans, 0);
        assert_eq!(m.budget_refusals, 1);
    }

    #[test]
    fn batch_admission_rejects_malformed_members_before_any_charge() {
        let service = Service::new(toy_schema(), ServiceConfig::default());
        service.register_tenant("t", starj_noise::PrivacyBudget::pure(1.0).unwrap()).unwrap();
        let queries = vec![
            StarQuery::count("ok").with(Predicate::point("D", "color", 1)),
            StarQuery::count("bad").with(Predicate::point("Ghost", "color", 1)),
        ];
        assert!(service.pm_batch_answer("t", &queries, 0.5).is_err());
        assert_eq!(service.tenant_usage("t").unwrap().spent_epsilon, 0.0, "nothing charged");
        assert_eq!(service.metrics().admission_rejections, 1);
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
        let submitted = service.pm_submit("t", &q, 0.5).unwrap();
        assert!(submitted.is_queued());
        let answer = submitted.wait().unwrap();
        assert!(!answer.cached);
        assert!(answer.noisy_query.is_some());
        assert!((service.tenant_usage("t").unwrap().spent_epsilon - 0.5).abs() < 1e-12);

        // The identical repeat resolves at submit time from the cache.
        let replay = service.pm_submit("t", &q, 0.5).unwrap();
        assert!(!replay.is_queued(), "cache hits never park");
        assert!(replay.wait().unwrap().cached);

        // Unsatisfiable queries resolve at submit time for free.
        let dead = StarQuery::count("dead")
            .with(Predicate::point("D", "color", 0))
            .with(Predicate::point("D", "color", 3));
        let free = service.pm_submit("t", &dead, 0.5).unwrap();
        assert!(!free.is_queued(), "free answers never park");
        assert!(free.wait().unwrap().cost.is_none());

        let m = service.metrics();
        assert_eq!(m.coalesced_requests, 1, "only the paid fresh request parked");
        assert!((service.tenant_usage("t").unwrap().spent_epsilon - 0.5).abs() < 1e-12);
    }

    #[test]
    fn finish_time_stale_check_refuses_a_refresh_racing_the_scan() {
        // The drain-start filter in the coalescer cannot see a refresh
        // that lands *during* the fused scan; the commit-time barrier in
        // `pm_finish` must. Simulate exactly that interleaving: submit
        // phase done, refresh lands, then the executed result tries to
        // commit.
        let service = Service::new(toy_schema(), ServiceConfig::default());
        service.register_tenant("t", starj_noise::PrivacyBudget::pure(10.0).unwrap()).unwrap();
        let q = StarQuery::count("q").with(Predicate::point("D", "color", 1));
        let work = match service.core.pm_phase1("t", &q, 0.5).unwrap() {
            PmPhase::Execute(work) => *work,
            PmPhase::Immediate(_) => panic!("a fresh paid query must reach the execute phase"),
        };
        let result = execute_with(&work.schema, &work.noisy, service.core.config.pm.scan).unwrap();
        service.refresh_schema(toy_schema());
        match service.core.pm_finish(work, result) {
            Err(ServiceError::StaleDataVersion { submitted: 0, current: 1 }) => {}
            other => panic!("expected StaleDataVersion, got {other:?}"),
        }
        let usage = service.tenant_usage("t").unwrap();
        assert_eq!(usage.spent_epsilon, 0.0, "refused commit must refund");
        assert_eq!(usage.in_flight_epsilon, 0.0);
        assert_eq!(service.metrics().stale_refusals, 1);
        assert_eq!(service.cached_answers(), 0, "no stale release may be cached");
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

    #[test]
    fn refresh_schema_invalidates_the_cost_model_registry() {
        let schema = toy_schema();
        let config = starj_engine::CostConfig::default();
        let before = starj_engine::cost_model_for(&schema, &config).unwrap();
        let service = Service::new(Arc::clone(&schema), ServiceConfig::default());
        service.refresh_schema(toy_schema());
        let after = starj_engine::cost_model_for(&schema, &config).unwrap();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "the outgoing schema's cached cost model must drop on refresh"
        );
    }
}
