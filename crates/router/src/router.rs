//! The router: N independent `Service` shards behind one front door.
//!
//! A [`Router`] hosts any number of **datasets** (each its own validated
//! [`StarSchema`] instance served by its own
//! [`starj_service::Service`]) and spreads them across **shards** with the
//! consistent-hash ring in [`crate::ring`]. The shard is the isolation
//! unit a real deployment would put on its own box; the dataset is the
//! privacy unit:
//!
//! * **budget domains never cross shards** — every dataset keeps its own
//!   [`starj_service::BudgetAccountant`], so ε spent against one dataset
//!   is invisible to every other. The router adds *zero* privacy logic:
//!   it only decides which service answers, which is why router answers
//!   and ledgers are bit-identical to standalone per-dataset services
//!   (`tests/router_parity.rs` proves it in lockstep);
//! * **placement is deterministic and minimal-motion** — datasets place
//!   by consistent hash, so adding/removing a shard moves only the
//!   affected arc's datasets ([`Router::add_shard`] /
//!   [`Router::remove_shard`] report exactly what moved);
//! * **fan-out is planned, not broadcast** — a multi-query batch is
//!   resolved against the table-ownership index
//!   ([`starj_engine::StarSchema::table_names`]), grouped per owning
//!   dataset, sent to exactly those shards, and merged back in
//!   deterministic `(shard, dataset)` order with typed per-shard failures
//!   ([`RouterError::Fanout`]).

use crate::error::{RouterError, ShardFailure};
use crate::metrics::{merge, DatasetMetrics, RouterCounters, RouterMetrics};
use crate::ring::HashRing;
use dp_starj::PredicateWorkload;
use starj_engine::{StarQuery, StarSchema};
use starj_noise::PrivacyBudget;
use starj_service::{
    Answer, BatchAnswer, DurableConfig, ExplainReport, Request, Service, ServiceAnswer,
    ServiceConfig, ServiceError, Submitted, TenantUsage, WorkloadAnswer,
};
use starj_telemetry::{
    EventBus, PromText, RequestKind, Stage, Telemetry, TelemetryConfig, TraceContextScope,
    TraceOutcome,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Router-wide configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Initial shard count (shard ids `0..shards`).
    pub shards: usize,
    /// Virtual nodes per shard on the placement ring. More replication
    /// smooths placement (imbalance ~ `1/√replication`); 8 is the floor
    /// for the ~2× balance the placement tests pin down.
    pub replication: usize,
    /// Deterministic ring seed: two routers with the same seed, shard
    /// set, and replication place every dataset identically.
    pub seed: u64,
    /// The per-shard service configuration every dataset starts from.
    pub shard_config: ServiceConfig,
    /// Per-shard overrides (e.g. coalescer on for the hot shard, off for
    /// the archival one). Later entries for the same shard win.
    pub shard_overrides: Vec<(u32, ServiceConfig)>,
    /// Crash-safe budget accounting for every hosted dataset: when set,
    /// each dataset's service journals to `<durable_root>/<dataset>` (its
    /// own WAL namespace — budgets are per-dataset, so their journals must
    /// be too). Dataset names become directory names verbatim; callers
    /// keep them path-safe. Overrides any `durable` field in the shard
    /// configs, which would otherwise aim every dataset at one directory.
    pub durable_root: Option<std::path::PathBuf>,
    /// Live operator streaming: when set, every shard service publishes
    /// its completed spans, audit events, and slow-query records onto
    /// this bus (component-labelled `shard<id>/<dataset>`), and the
    /// router publishes a `fanout` parent span around every cross-shard
    /// batch so subscribers can stitch the full gate → router → shard
    /// timeline by trace id. `None` (the default) streams nothing.
    pub bus: Option<Arc<EventBus>>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 4,
            replication: 64,
            seed: 2023,
            shard_config: ServiceConfig::default(),
            shard_overrides: Vec::new(),
            durable_root: None,
            bus: None,
        }
    }
}

impl RouterConfig {
    /// Overrides the service configuration for one shard (builder style).
    pub fn with_shard_config(mut self, shard: u32, config: ServiceConfig) -> Self {
        self.shard_overrides.push((shard, config));
        self
    }

    /// Enables per-dataset budget journaling under `root` (builder style);
    /// see [`RouterConfig::durable_root`].
    pub fn with_durable_root(mut self, root: impl Into<std::path::PathBuf>) -> Self {
        self.durable_root = Some(root.into());
        self
    }

    /// Streams every shard's telemetry (and the router's fan-out spans)
    /// onto `bus` (builder style); see [`RouterConfig::bus`].
    pub fn with_bus(mut self, bus: Arc<EventBus>) -> Self {
        self.bus = Some(bus);
        self
    }

    /// The effective service configuration for `shard`.
    pub(crate) fn config_for(&self, shard: u32) -> ServiceConfig {
        self.shard_overrides
            .iter()
            .rev()
            .find(|(s, _)| *s == shard)
            .map(|(_, c)| c.clone())
            .unwrap_or_else(|| self.shard_config.clone())
    }
}

/// Where a dataset lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The dataset name (the ring key).
    pub dataset: String,
    /// The shard hosting it.
    pub shard: u32,
}

/// Which dataset (if any) uniquely owns a table name.
#[derive(Debug, Clone)]
enum TableOwner {
    /// Exactly one dataset hosts a table with this name.
    Unique(String),
    /// Several datasets host tables with this name (e.g. SSB scale
    /// slices all called "Customer"): table-based routing is ambiguous.
    Shared,
}

#[derive(Debug)]
struct DatasetEntry {
    shard: u32,
    service: Arc<Service>,
    /// The dataset's table names, refreshed alongside the schema.
    tables: Vec<String>,
}

#[derive(Debug)]
struct RouterState {
    ring: HashRing,
    /// Hosted datasets by name (`BTreeMap` keeps every iteration —
    /// placement reports, metric roll-ups, fan-out merge order —
    /// deterministic).
    datasets: BTreeMap<String, DatasetEntry>,
    /// Table name → owning dataset, rebuilt whenever the dataset set or
    /// any schema changes.
    tables: HashMap<String, TableOwner>,
}

impl RouterState {
    fn rebuild_table_index(&mut self) {
        self.tables.clear();
        for (name, entry) in &self.datasets {
            for table in &entry.tables {
                match self.tables.get(table) {
                    None => {
                        self.tables.insert(table.clone(), TableOwner::Unique(name.clone()));
                    }
                    Some(TableOwner::Unique(owner)) if owner != name => {
                        self.tables.insert(table.clone(), TableOwner::Shared);
                    }
                    _ => {}
                }
            }
        }
    }

    /// The single dataset owning every table in `tables` (sorted, deduped
    /// upstream). Typed errors for unknown/shared tables and cross-dataset
    /// mixes.
    fn owner_of_tables(&self, label: &str, tables: &[&str]) -> Result<String, RouterError> {
        if tables.is_empty() {
            return Err(RouterError::Unroutable(label.to_string()));
        }
        let mut owners: Vec<String> = Vec::new();
        for table in tables {
            match self.tables.get(*table) {
                None => return Err(RouterError::UnknownTable((*table).to_string())),
                Some(TableOwner::Shared) => {
                    return Err(RouterError::AmbiguousTable((*table).to_string()))
                }
                Some(TableOwner::Unique(owner)) => {
                    if !owners.contains(owner) {
                        owners.push(owner.clone());
                    }
                }
            }
        }
        if owners.len() > 1 {
            owners.sort();
            return Err(RouterError::MixedDatasets { query: label.to_string(), datasets: owners });
        }
        Ok(owners.pop().expect("non-empty tables imply an owner"))
    }
}

/// A fan-out sub-result: one owning dataset's share of a multi-dataset
/// batch.
#[derive(Debug, Clone)]
pub struct FanoutGroup {
    /// The owning dataset.
    pub dataset: String,
    /// The shard that answered.
    pub shard: u32,
    /// How many of the batch's queries this group carried.
    pub queries: usize,
    /// The ε-share this group was charged with (before the service's own
    /// per-member split).
    pub epsilon: f64,
    /// True iff the group replayed from the shard's cache.
    pub cached: bool,
    /// What the group charged its tenant ledger (`None` for cache hits
    /// and all-free groups).
    pub cost: Option<PrivacyBudget>,
}

/// A merged cross-shard fan-out answer.
#[derive(Debug, Clone)]
pub struct FanoutAnswer {
    /// Per-query answers **in the original submission order**, regardless
    /// of which shard answered which query.
    pub answers: Vec<ServiceAnswer>,
    /// The per-dataset groups the batch fanned out into, in deterministic
    /// `(shard, dataset)` order.
    pub groups: Vec<FanoutGroup>,
}

/// A sharded, multi-schema DP serving tier. All methods take `&self`; one
/// `Arc<Router>` serves any number of threads.
#[derive(Debug)]
pub struct Router {
    config: RouterConfig,
    state: RwLock<RouterState>,
    counters: RouterCounters,
    /// The router's own span source: publishes `fanout` parent spans onto
    /// the streaming bus. Fully disabled (inert builders, no clock reads)
    /// when no bus is configured.
    telemetry: Telemetry,
}

impl Router {
    /// A router with `config.shards` empty shards and no datasets.
    pub fn new(config: RouterConfig) -> Result<Router, RouterError> {
        if config.shards == 0 {
            return Err(RouterError::NoShards);
        }
        let ring = HashRing::new(0..config.shards as u32, config.replication, config.seed);
        let telemetry = match &config.bus {
            Some(bus) => Telemetry::new(&TelemetryConfig {
                trace_capacity: 256,
                audit_capacity: 0,
                slow_query_us: u64::MAX,
                slow_log_capacity: 0,
                bus: Some(Arc::clone(bus)),
                component: "router".to_string(),
            }),
            None => Telemetry::disabled(),
        };
        Ok(Router {
            config,
            state: RwLock::new(RouterState {
                ring,
                datasets: BTreeMap::new(),
                tables: HashMap::new(),
            }),
            counters: RouterCounters::default(),
            telemetry,
        })
    }

    fn read(&self) -> RwLockReadGuard<'_, RouterState> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, RouterState> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Hosts a dataset: the ring places it, the owning shard gets a fresh
    /// [`Service`] over `schema` (with the shard's effective
    /// configuration), and the table-ownership index picks it up.
    pub fn add_dataset(
        &self,
        name: &str,
        schema: Arc<StarSchema>,
    ) -> Result<Placement, RouterError> {
        let mut state = self.write();
        if state.datasets.contains_key(name) {
            return Err(RouterError::DuplicateDataset(name.to_string()));
        }
        let shard = state.ring.place(name).ok_or(RouterError::NoShards)?;
        let tables: Vec<String> = schema.table_names().into_iter().map(str::to_string).collect();
        let mut config = self.config.config_for(shard);
        if let Some(bus) = &self.config.bus {
            // Every shard service streams onto the router's bus; the
            // component label names the hop so subscribers can stitch the
            // fanout → shard timeline without guessing.
            config.telemetry.bus = Some(Arc::clone(bus));
            config.telemetry.component = format!("shard{shard}/{name}");
        }
        if let Some(root) = &self.config.durable_root {
            // Namespace the journal per dataset: budgets are per-dataset
            // state, so two datasets must never share (or replay) one WAL.
            let dir = root.join(name);
            config.durable = Some(match config.durable.take() {
                Some(mut durable) => {
                    durable.dir = dir;
                    durable
                }
                None => DurableConfig::at(dir),
            });
        }
        let service = Service::open(schema, config).map_err(|source| RouterError::Shard {
            dataset: name.to_string(),
            shard,
            source,
        })?;
        state
            .datasets
            .insert(name.to_string(), DatasetEntry { shard, service: Arc::new(service), tables });
        state.rebuild_table_index();
        Ok(Placement { dataset: name.to_string(), shard })
    }

    /// Where every hosted dataset lives, sorted by dataset name.
    pub fn placements(&self) -> Vec<Placement> {
        self.read()
            .datasets
            .iter()
            .map(|(name, e)| Placement { dataset: name.clone(), shard: e.shard })
            .collect()
    }

    /// Where one dataset lives.
    pub fn placement(&self, dataset: &str) -> Result<Placement, RouterError> {
        let state = self.read();
        let entry = state
            .datasets
            .get(dataset)
            .ok_or_else(|| RouterError::UnknownDataset(dataset.to_string()))?;
        Ok(Placement { dataset: dataset.to_string(), shard: entry.shard })
    }

    /// Current shard ids, ascending.
    pub fn shard_ids(&self) -> Vec<u32> {
        self.read().ring.shards()
    }

    /// Adds a fresh shard (next unused id) and re-places the datasets the
    /// ring now assigns to it — by the consistent-hash guarantee, only
    /// keys landing on the new shard's arcs move. Returns the new shard
    /// id and the moved placements, sorted by dataset.
    pub fn add_shard(&self) -> (u32, Vec<Placement>) {
        let mut state = self.write();
        let next = state.ring.shards().last().map_or(0, |s| s + 1);
        state.ring.add_shard(next);
        let moved = self.rebalance(&mut state);
        (next, moved)
    }

    /// Removes a shard, re-placing only its datasets onto their ring
    /// successors (each keeps its `Service` — budget ledgers, caches, and
    /// data version move with it, untouched). Returns the moved
    /// placements, sorted by dataset.
    pub fn remove_shard(&self, shard: u32) -> Result<Vec<Placement>, RouterError> {
        let mut state = self.write();
        if !state.ring.contains(shard) {
            return Err(RouterError::UnknownShard(shard));
        }
        if state.ring.len() == 1 && !state.datasets.is_empty() {
            return Err(RouterError::LastShard(shard));
        }
        state.ring.remove_shard(shard);
        let moved = self.rebalance(&mut state);
        Ok(moved)
    }

    /// Re-derives every dataset's shard from the ring, reporting the ones
    /// that moved. The services themselves never restart: a move is a
    /// placement-map update (in a distributed deployment, the data-copy
    /// step would hang off exactly this list).
    fn rebalance(&self, state: &mut RouterState) -> Vec<Placement> {
        let mut moved = Vec::new();
        let names: Vec<String> = state.datasets.keys().cloned().collect();
        for name in names {
            let target = state.ring.place(&name).expect("rebalance requires a non-empty ring");
            let entry = state.datasets.get_mut(&name).expect("iterating live keys");
            if entry.shard != target {
                entry.shard = target;
                moved.push(Placement { dataset: name, shard: target });
            }
        }
        RouterCounters::add(&self.counters.rebalanced_datasets, moved.len() as u64);
        moved
    }

    /// The owning shard's service for `dataset`, plus its shard id.
    fn service_for(&self, dataset: &str) -> Result<(Arc<Service>, u32), RouterError> {
        let state = self.read();
        let entry = state
            .datasets
            .get(dataset)
            .ok_or_else(|| RouterError::UnknownDataset(dataset.to_string()))?;
        Ok((Arc::clone(&entry.service), entry.shard))
    }

    fn wrap<T>(
        dataset: &str,
        shard: u32,
        result: Result<T, ServiceError>,
    ) -> Result<T, RouterError> {
        result.map_err(|source| RouterError::Shard { dataset: dataset.to_string(), shard, source })
    }

    // ---- tenant administration -------------------------------------------

    /// Registers a tenant's `(ε, δ)` allotment against one dataset's
    /// budget domain. A tenant querying k datasets holds k independent
    /// allotments — ε spent on one dataset never dilutes another, which
    /// is exactly the per-shard isolation the parity test pins down.
    pub fn register_tenant(
        &self,
        dataset: &str,
        tenant: &str,
        allotment: PrivacyBudget,
    ) -> Result<(), RouterError> {
        let (service, shard) = self.service_for(dataset)?;
        Self::wrap(dataset, shard, service.register_tenant(tenant, allotment))
    }

    /// Registers the tenant with the same allotment on **every** hosted
    /// dataset (each a separate budget domain).
    pub fn register_tenant_all(
        &self,
        tenant: &str,
        allotment: PrivacyBudget,
    ) -> Result<(), RouterError> {
        let services: Vec<(String, u32, Arc<Service>)> = {
            let state = self.read();
            state
                .datasets
                .iter()
                .map(|(n, e)| (n.clone(), e.shard, Arc::clone(&e.service)))
                .collect()
        };
        for (dataset, shard, service) in services {
            Self::wrap(&dataset, shard, service.register_tenant(tenant, allotment))?;
        }
        Ok(())
    }

    /// The current star schema of one hosted dataset. This is the schema
    /// front doors (the gate's SQL parser) must resolve incoming names
    /// against; it tracks [`Router::refresh_schema`] swaps.
    pub fn dataset_schema(&self, dataset: &str) -> Result<Arc<StarSchema>, RouterError> {
        let (service, _) = self.service_for(dataset)?;
        Ok(service.schema())
    }

    /// The tenant's budget usage against one dataset.
    pub fn tenant_usage(&self, dataset: &str, tenant: &str) -> Result<TenantUsage, RouterError> {
        let (service, shard) = self.service_for(dataset)?;
        Self::wrap(dataset, shard, service.tenant_usage(tenant))
    }

    // ---- single-dataset serving ------------------------------------------

    /// Runs `serve` on the owning shard's service, counting one routed
    /// request and tagging any refusal with its dataset and shard.
    fn route<T>(
        &self,
        dataset: &str,
        serve: impl FnOnce(&Service) -> Result<T, ServiceError>,
    ) -> Result<T, RouterError> {
        let (service, shard) = self.service_for(dataset)?;
        RouterCounters::inc(&self.counters.routed_requests);
        Self::wrap(dataset, shard, serve(&service))
    }

    /// Submits a request to its dataset's shard —
    /// [`starj_service::Service::submit`] there, so a parked request's
    /// handle waits exactly as the service's does.
    pub fn submit(
        &self,
        dataset: &str,
        tenant: &str,
        request: Request<'_>,
        epsilon: f64,
    ) -> Result<Submitted<Answer>, RouterError> {
        self.route(dataset, |service| service.submit(tenant, request, epsilon))
    }

    /// [`Router::submit`] of a [`Request::Pm`], waiting for the answer.
    pub fn pm_answer(
        &self,
        dataset: &str,
        tenant: &str,
        query: &StarQuery,
        epsilon: f64,
    ) -> Result<ServiceAnswer, RouterError> {
        self.route(dataset, |service| service.submit(tenant, Request::Pm(query), epsilon)?.wait())
            .map(Answer::into_pm)
    }

    /// Describes what serving `query` against `dataset` would do, without
    /// doing it — [`starj_service::Service::explain`] on the owning shard.
    /// Spends no budget; operator-plane only (the gate admin-gates its
    /// `explain` verb because the report is exact and un-noised).
    pub fn explain(
        &self,
        dataset: &str,
        query: &StarQuery,
        profile: bool,
    ) -> Result<ExplainReport, RouterError> {
        let (service, shard) = self.service_for(dataset)?;
        Self::wrap(dataset, shard, service.explain(query, profile))
    }

    /// [`Router::explain`] wherever the query's tables live, returning the
    /// owning dataset alongside the report.
    pub fn explain_routed(
        &self,
        query: &StarQuery,
        profile: bool,
    ) -> Result<(String, ExplainReport), RouterError> {
        let dataset = self.route_query(query)?;
        let report = self.explain(&dataset, query, profile)?;
        Ok((dataset, report))
    }

    /// The live streaming bus every shard publishes onto, when configured.
    pub fn bus(&self) -> Option<&Arc<EventBus>> {
        self.config.bus.as_ref()
    }

    /// Swaps one dataset's data for a new schema instance — entirely
    /// shard-local: only that dataset's caches invalidate, its version
    /// bumps, and its in-flight coalesced submits get the typed
    /// [`ServiceError::StaleDataVersion`] refusal; every other shard keeps
    /// serving untouched. The table-ownership index follows the new
    /// schema. The service's own refresh (schema swap + cache clears) runs
    /// *outside* the router lock, so routing on other shards never stalls
    /// behind it; only the brief index rebuild takes the write lock.
    pub fn refresh_schema(
        &self,
        dataset: &str,
        schema: Arc<StarSchema>,
    ) -> Result<u64, RouterError> {
        let (service, _) = self.service_for(dataset)?;
        let version = service.refresh_schema(schema);
        let mut state = self.write();
        if let Some(entry) = state.datasets.get_mut(dataset) {
            // Re-read the tables from whatever schema the service holds
            // *now*: if two refreshes raced, the index follows the winner
            // rather than this call's argument.
            entry.tables =
                entry.service.schema().table_names().into_iter().map(str::to_string).collect();
            state.rebuild_table_index();
        }
        Ok(version)
    }

    // ---- fan-out planning and execution ----------------------------------

    /// Every table a query's ownership depends on: predicate tables plus
    /// group-by tables, deduped in first-appearance order. The single
    /// definition both [`Router::route_query`] and the fan-out planner
    /// resolve through, so they can never disagree on ownership.
    fn query_tables(query: &StarQuery) -> Vec<&str> {
        let mut tables = query.predicate_tables();
        for g in &query.group_by {
            if !tables.contains(&g.table.as_str()) {
                tables.push(&g.table);
            }
        }
        tables
    }

    /// The dataset owning a query, resolved through the table-ownership
    /// index (every predicate and group-by table must belong to one
    /// uniquely-owned dataset).
    pub fn route_query(&self, query: &StarQuery) -> Result<String, RouterError> {
        self.read().owner_of_tables(&query.name, &Self::query_tables(query))
    }

    /// The dataset owning a workload, resolved through its blocks' tables.
    pub fn route_workload(&self, workload: &PredicateWorkload) -> Result<String, RouterError> {
        self.read().owner_of_tables("workload", &workload.tables())
    }

    /// Answers a workload wherever its tables live — [`Router::route_workload`]
    /// followed by [`Router::submit`] of a [`Request::Wd`].
    pub fn wd_answer_routed(
        &self,
        tenant: &str,
        workload: &PredicateWorkload,
        epsilon: f64,
    ) -> Result<WorkloadAnswer, RouterError> {
        let dataset = self.route_workload(workload)?;
        self.route(&dataset, |service| {
            service.submit(tenant, Request::Wd(workload), epsilon)?.wait()
        })
        .map(Answer::into_wd)
    }

    /// Answers a mixed batch that may span datasets: each query resolves
    /// to its owning dataset ([`Router::route_query`]), the batch fans out
    /// to **exactly** the owning shards (one
    /// [`starj_service::Request::PmBatch`] submit per dataset, running
    /// concurrently), and the per-shard answers merge back into the
    /// original query order. `epsilon` splits across datasets in
    /// proportion to the number of queries each carries, then each shard
    /// applies its usual per-member split.
    ///
    /// Failures are collected in deterministic `(shard, dataset)` order
    /// into [`RouterError::Fanout`]. Budget domains are per-dataset, so a
    /// failing shard refunds itself while a succeeding shard's commit
    /// stands — there is no cross-shard transaction to roll back. A
    /// committed group's release is **not lost**: it is cached by its
    /// shard (under the same sub-batch key and ε share the retry will
    /// recompute), so with answer caching on, retrying the identical batch
    /// replays every previously-successful group at zero additional
    /// budget and only the fixed shards pay.
    pub fn pm_fanout_answer(
        &self,
        tenant: &str,
        queries: &[StarQuery],
        epsilon: f64,
    ) -> Result<FanoutAnswer, RouterError> {
        if queries.is_empty() {
            return Ok(FanoutAnswer { answers: Vec::new(), groups: Vec::new() });
        }
        // Plan: resolve each query's owner and group, under one read lock
        // so the whole batch sees a consistent placement map.
        struct Group {
            dataset: String,
            shard: u32,
            service: Arc<Service>,
            indices: Vec<usize>,
        }
        let mut groups: Vec<Group> = {
            let state = self.read();
            let mut by_dataset: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            for (i, query) in queries.iter().enumerate() {
                let owner = state.owner_of_tables(&query.name, &Self::query_tables(query))?;
                by_dataset.entry(owner).or_default().push(i);
            }
            by_dataset
                .into_iter()
                .map(|(dataset, indices)| {
                    let entry = &state.datasets[&dataset];
                    Group {
                        dataset,
                        shard: entry.shard,
                        service: Arc::clone(&entry.service),
                        indices,
                    }
                })
                .collect()
        };
        // Deterministic merge order: shard, then dataset.
        groups.sort_by(|a, b| (a.shard, &a.dataset).cmp(&(b.shard, &b.dataset)));
        RouterCounters::inc(&self.counters.fanout_requests);
        RouterCounters::add(&self.counters.fanout_subrequests, groups.len() as u64);

        let total = queries.len() as f64;
        let shares: Vec<f64> =
            groups.iter().map(|g| epsilon * g.indices.len() as f64 / total).collect();

        // The fan-out parent span: inherits the gate's ambient trace
        // context on this thread, and each worker re-enters this span's
        // child context so the per-shard `pm_batch` spans parent to it —
        // one trace id stitches gate → fanout → shard → worker.
        let mut trace = self.telemetry.trace_start(RequestKind::Fanout, tenant);
        let ctx = trace.child_context();

        // Execute: one sub-batch per owning shard, concurrently.
        trace.stage_begin(Stage::FusedScan);
        let results: Vec<Result<BatchAnswer, ServiceError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .iter()
                .zip(&shares)
                .map(|(group, &share)| {
                    let subset: Vec<StarQuery> =
                        group.indices.iter().map(|&i| queries[i].clone()).collect();
                    let service = Arc::clone(&group.service);
                    scope.spawn(move || {
                        let _span = TraceContextScope::enter(ctx);
                        let submitted = service.submit(tenant, Request::PmBatch(&subset), share)?;
                        submitted.wait().map(Answer::into_batch)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("fan-out worker panicked")).collect()
        });
        trace.stage_end(Stage::FusedScan);

        // Merge: failures in (shard, dataset) order, answers in original
        // submission order.
        let failures: Vec<ShardFailure> = groups
            .iter()
            .zip(&results)
            .filter_map(|(group, result)| {
                result.as_ref().err().map(|e| ShardFailure {
                    shard: group.shard,
                    dataset: group.dataset.clone(),
                    error: e.clone(),
                })
            })
            .collect();
        if !failures.is_empty() {
            return Err(RouterError::Fanout(failures));
        }

        let mut answers: Vec<Option<ServiceAnswer>> = vec![None; queries.len()];
        let mut summaries = Vec::with_capacity(groups.len());
        for ((group, share), result) in groups.iter().zip(&shares).zip(results) {
            let batch = result.expect("failures were returned above");
            summaries.push(FanoutGroup {
                dataset: group.dataset.clone(),
                shard: group.shard,
                queries: group.indices.len(),
                epsilon: *share,
                cached: batch.cached,
                cost: batch.cost,
            });
            for (&i, answer) in group.indices.iter().zip(batch.answers) {
                answers[i] = Some(answer);
            }
        }
        let answers = answers
            .into_iter()
            .map(|a| a.expect("every query belongs to exactly one group"))
            .collect();
        let outcome = if summaries.iter().all(|g| g.cached) {
            TraceOutcome::Cached
        } else if summaries.iter().all(|g| g.cost.is_none()) {
            TraceOutcome::Free
        } else {
            TraceOutcome::Ok
        };
        self.telemetry.trace_finish(trace, outcome);
        Ok(FanoutAnswer { answers, groups: summaries })
    }

    // ---- observability ----------------------------------------------------

    /// A deterministic fleet-wide metrics roll-up: per-dataset snapshots
    /// (sorted by shard, then dataset), per-shard totals, and the
    /// aggregate — counters summed, latency quantiles read from merged
    /// histogram buckets.
    pub fn metrics(&self) -> RouterMetrics {
        let parts: Vec<(
            String,
            u32,
            starj_service::MetricsSnapshot,
            [u64; starj_service::LATENCY_BUCKETS],
        )> = {
            let state = self.read();
            state
                .datasets
                .iter()
                .map(|(name, e)| {
                    (
                        name.clone(),
                        e.shard,
                        e.service.metrics(),
                        e.service.raw_metrics().latency.bucket_counts(),
                    )
                })
                .collect()
        };
        let mut per_dataset: Vec<DatasetMetrics> = parts
            .iter()
            .map(|(name, shard, snapshot, _)| DatasetMetrics {
                dataset: name.clone(),
                shard: *shard,
                snapshot: snapshot.clone(),
            })
            .collect();
        per_dataset.sort_by(|a, b| (a.shard, &a.dataset).cmp(&(b.shard, &b.dataset)));

        let mut shard_parts: BTreeMap<
            u32,
            Vec<(starj_service::MetricsSnapshot, [u64; starj_service::LATENCY_BUCKETS])>,
        > = BTreeMap::new();
        for (_, shard, snapshot, buckets) in &parts {
            shard_parts.entry(*shard).or_default().push((snapshot.clone(), *buckets));
        }
        let per_shard = shard_parts.into_iter().map(|(shard, p)| (shard, merge(&p))).collect();
        let aggregate =
            merge(&parts.iter().map(|(_, _, s, b)| (s.clone(), *b)).collect::<Vec<_>>());
        RouterMetrics {
            per_dataset,
            per_shard,
            aggregate,
            routed_requests: self
                .counters
                .routed_requests
                .load(std::sync::atomic::Ordering::Relaxed),
            fanout_requests: self
                .counters
                .fanout_requests
                .load(std::sync::atomic::Ordering::Relaxed),
            fanout_subrequests: self
                .counters
                .fanout_subrequests
                .load(std::sync::atomic::Ordering::Relaxed),
            rebalanced_datasets: self
                .counters
                .rebalanced_datasets
                .load(std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// The fleet as a Prometheus text-format (0.0.4) exposition: router
    /// counters, fleet-aggregate service counters, and every service
    /// counter broken out per dataset with `dataset`/`shard` labels.
    /// Deterministic for a fixed fleet state — datasets render in
    /// `(shard, dataset)` order.
    pub fn prometheus_text(&self) -> String {
        let m = self.metrics();
        let mut p = PromText::new();
        for (name, help, value) in [
            (
                "routed_requests",
                "Single-dataset requests routed to an owning shard.",
                m.routed_requests,
            ),
            (
                "fanout_requests",
                "Cross-shard fan-out requests planned and executed.",
                m.fanout_requests,
            ),
            (
                "fanout_subrequests",
                "Per-shard sub-requests the fan-outs expanded into.",
                m.fanout_subrequests,
            ),
            (
                "rebalanced_datasets",
                "Datasets moved between shards by shard add/remove.",
                m.rebalanced_datasets,
            ),
        ] {
            let metric = format!("starj_router_{name}_total");
            p.header(&metric, help, "counter");
            p.sample(&metric, &[], value as f64);
        }
        for (name, value) in m.aggregate.counter_entries() {
            let metric = format!("starj_fleet_{name}_total");
            p.header(&metric, &format!("Fleet-total service counter `{name}`."), "counter");
            p.sample(&metric, &[], value as f64);
        }
        let names: Vec<&'static str> =
            m.aggregate.counter_entries().iter().map(|&(n, _)| n).collect();
        for (i, name) in names.iter().enumerate() {
            let metric = format!("starj_dataset_{name}_total");
            p.header(&metric, &format!("Service counter `{name}` per hosted dataset."), "counter");
            for d in &m.per_dataset {
                let shard = d.shard.to_string();
                p.sample(
                    &metric,
                    &[("dataset", &d.dataset), ("shard", &shard)],
                    d.snapshot.counter_entries()[i].1 as f64,
                );
            }
        }
        p.render()
    }

    /// The fleet-wide privacy-budget audit trail as JSONL: every hosted
    /// dataset's trail, each line tagged with a `"dataset"` field, datasets
    /// concatenated in name order (each dataset's lines stay oldest-first).
    pub fn audit_jsonl(&self) -> String {
        let services: Vec<(String, Arc<Service>)> = {
            let state = self.read();
            state.datasets.iter().map(|(name, e)| (name.clone(), Arc::clone(&e.service))).collect()
        };
        let mut out = String::new();
        for (name, service) in &services {
            out.push_str(&service.telemetry().audit().to_jsonl_tagged(&[("dataset", name)]));
        }
        out
    }

    /// One tenant's fleet-wide audit trail as JSONL, dataset-tagged like
    /// [`Router::audit_jsonl`] — the `/audit?tenant=` filter of the
    /// operator plane.
    pub fn audit_jsonl_for(&self, tenant: &str) -> String {
        let services: Vec<(String, Arc<Service>)> = {
            let state = self.read();
            state.datasets.iter().map(|(name, e)| (name.clone(), Arc::clone(&e.service))).collect()
        };
        let mut out = String::new();
        for (name, service) in &services {
            out.push_str(&service.telemetry().audit().to_jsonl_for(tenant, &[("dataset", name)]));
        }
        out
    }

    /// True when any hosted dataset has latched degraded mode (its budget
    /// journal failed) — the one-bit readiness signal `/readyz` serves.
    pub fn any_degraded(&self) -> bool {
        let state = self.read();
        state.datasets.values().any(|e| e.service.is_degraded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_engine::{Column, Dimension, Domain, Predicate, Table};

    fn schema(dim_name: &str) -> Arc<StarSchema> {
        let domain = Domain::numeric("c", 4).unwrap();
        let dim = Table::new(
            dim_name,
            vec![Column::key("pk", vec![0, 1, 2, 3]), Column::attr("c", domain, vec![0, 1, 2, 3])],
        )
        .unwrap();
        let fact =
            Table::new(format!("F_{dim_name}"), vec![Column::key("fk", vec![0, 0, 1, 2, 3, 3])])
                .unwrap();
        Arc::new(StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap())
    }

    fn router_with(datasets: &[&str]) -> Router {
        let router = Router::new(RouterConfig { shards: 3, ..RouterConfig::default() }).unwrap();
        for d in datasets {
            router.add_dataset(d, schema(d)).unwrap();
        }
        router
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        let err = Router::new(RouterConfig { shards: 0, ..RouterConfig::default() }).unwrap_err();
        assert_eq!(err, RouterError::NoShards);
    }

    #[test]
    fn datasets_place_deterministically_and_duplicates_are_refused() {
        let a = router_with(&["alpha", "beta", "gamma"]);
        let b = router_with(&["alpha", "beta", "gamma"]);
        assert_eq!(a.placements(), b.placements());
        assert!(matches!(
            a.add_dataset("alpha", schema("alpha")),
            Err(RouterError::DuplicateDataset(_))
        ));
    }

    #[test]
    fn single_dataset_requests_route_to_the_owner() {
        let router = router_with(&["alpha", "beta"]);
        router.register_tenant("alpha", "t", PrivacyBudget::pure(10.0).unwrap()).unwrap();
        let q = StarQuery::count("q").with(Predicate::point("alpha", "c", 1));
        let answer = router.pm_answer("alpha", "t", &q, 0.5).unwrap();
        assert!(!answer.cached);
        // Budget domains are per-dataset: beta has no tenant "t" at all.
        assert!(matches!(
            router.tenant_usage("beta", "t"),
            Err(RouterError::Shard { source: ServiceError::UnknownTenant(_), .. })
        ));
        assert!((router.tenant_usage("alpha", "t").unwrap().spent_epsilon - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unknown_dataset_is_typed() {
        let router = router_with(&["alpha"]);
        let q = StarQuery::count("q");
        assert!(matches!(
            router.pm_answer("ghost", "t", &q, 0.5),
            Err(RouterError::UnknownDataset(_))
        ));
    }

    #[test]
    fn route_query_resolves_unique_tables_and_rejects_mixes() {
        let router = router_with(&["alpha", "beta"]);
        let q = StarQuery::count("q").with(Predicate::point("alpha", "c", 0));
        assert_eq!(router.route_query(&q).unwrap(), "alpha");

        let mixed = StarQuery::count("mix")
            .with(Predicate::point("alpha", "c", 0))
            .with(Predicate::point("beta", "c", 0));
        assert!(matches!(router.route_query(&mixed), Err(RouterError::MixedDatasets { .. })));

        let unknown = StarQuery::count("u").with(Predicate::point("ghostly", "c", 0));
        assert!(matches!(router.route_query(&unknown), Err(RouterError::UnknownTable(_))));

        let bare = StarQuery::count("bare");
        assert!(matches!(router.route_query(&bare), Err(RouterError::Unroutable(_))));
    }

    #[test]
    fn shared_table_names_make_routing_ambiguous_but_explicit_addressing_works() {
        let router = Router::new(RouterConfig { shards: 2, ..RouterConfig::default() }).unwrap();
        // Two SSB-slice-style datasets with identical table names.
        router.add_dataset("slice-0", schema("D")).unwrap();
        router.add_dataset("slice-1", schema("D")).unwrap();
        let q = StarQuery::count("q").with(Predicate::point("D", "c", 1));
        assert!(matches!(router.route_query(&q), Err(RouterError::AmbiguousTable(_))));
        router.register_tenant("slice-0", "t", PrivacyBudget::pure(1.0).unwrap()).unwrap();
        assert!(router.pm_answer("slice-0", "t", &q, 0.5).is_ok());
    }

    #[test]
    fn fanout_answers_in_submission_order_with_proportional_split() {
        let router = router_with(&["alpha", "beta"]);
        router.register_tenant_all("t", PrivacyBudget::pure(10.0).unwrap()).unwrap();
        let queries = vec![
            StarQuery::count("q0").with(Predicate::point("beta", "c", 0)),
            StarQuery::count("q1").with(Predicate::point("alpha", "c", 1)),
            StarQuery::count("q2").with(Predicate::point("beta", "c", 2)),
        ];
        let fanned = router.pm_fanout_answer("t", &queries, 0.9).unwrap();
        assert_eq!(fanned.answers.len(), 3);
        for (answer, query) in fanned.answers.iter().zip(&queries) {
            assert_eq!(answer.name, query.name, "answers come back in submission order");
        }
        assert_eq!(fanned.groups.len(), 2);
        let eps: f64 = fanned.groups.iter().map(|g| g.epsilon).sum();
        assert!((eps - 0.9).abs() < 1e-12, "shares sum to the requested ε");
        let beta = fanned.groups.iter().find(|g| g.dataset == "beta").unwrap();
        assert_eq!(beta.queries, 2);
        assert!((beta.epsilon - 0.6).abs() < 1e-12, "β carries 2/3 of the ε");
        // Each dataset charged its own ledger its own share.
        assert!((router.tenant_usage("alpha", "t").unwrap().spent_epsilon - 0.3).abs() < 1e-12);
        assert!((router.tenant_usage("beta", "t").unwrap().spent_epsilon - 0.6).abs() < 1e-12);
        let m = router.metrics();
        assert_eq!(m.fanout_requests, 1);
        assert_eq!(m.fanout_subrequests, 2);
    }

    #[test]
    fn fanout_failures_are_collected_in_shard_order() {
        let router = router_with(&["alpha", "beta"]);
        // Tenant exists only on alpha: beta's sub-batch must fail typed.
        router.register_tenant("alpha", "t", PrivacyBudget::pure(10.0).unwrap()).unwrap();
        let queries = vec![
            StarQuery::count("a").with(Predicate::point("alpha", "c", 0)),
            StarQuery::count("b").with(Predicate::point("beta", "c", 0)),
        ];
        match router.pm_fanout_answer("t", &queries, 1.0) {
            Err(RouterError::Fanout(failures)) => {
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].dataset, "beta");
                assert!(matches!(failures[0].error, ServiceError::UnknownTenant(_)));
            }
            other => panic!("expected Fanout failure, got {other:?}"),
        }
    }

    #[test]
    fn retry_after_partial_fanout_failure_replays_committed_groups_free() {
        let router = router_with(&["alpha", "beta"]);
        router.register_tenant("alpha", "t", PrivacyBudget::pure(10.0).unwrap()).unwrap();
        let queries = vec![
            StarQuery::count("a").with(Predicate::point("alpha", "c", 0)),
            StarQuery::count("b").with(Predicate::point("beta", "c", 0)),
        ];
        // First attempt: alpha's group commits its 0.5 share, beta fails.
        assert!(matches!(router.pm_fanout_answer("t", &queries, 1.0), Err(RouterError::Fanout(_))));
        assert!((router.tenant_usage("alpha", "t").unwrap().spent_epsilon - 0.5).abs() < 1e-12);

        // Fix beta and retry the identical batch: alpha's group replays
        // from its shard cache at zero cost — no double-pay — and only
        // beta's shard charges.
        router.register_tenant("beta", "t", PrivacyBudget::pure(10.0).unwrap()).unwrap();
        let fanned = router.pm_fanout_answer("t", &queries, 1.0).unwrap();
        let alpha = fanned.groups.iter().find(|g| g.dataset == "alpha").unwrap();
        assert!(alpha.cached, "committed group replays on retry");
        assert!(alpha.cost.is_none());
        assert!((router.tenant_usage("alpha", "t").unwrap().spent_epsilon - 0.5).abs() < 1e-12);
        assert!((router.tenant_usage("beta", "t").unwrap().spent_epsilon - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_fanout_is_a_free_no_op() {
        let router = router_with(&["alpha"]);
        let fanned = router.pm_fanout_answer("t", &[], 1.0).unwrap();
        assert!(fanned.answers.is_empty() && fanned.groups.is_empty());
    }

    #[test]
    fn shard_remove_moves_only_that_shards_datasets() {
        let router = Router::new(RouterConfig { shards: 4, ..RouterConfig::default() }).unwrap();
        let names: Vec<String> = (0..24).map(|i| format!("ds-{i}")).collect();
        for n in &names {
            router.add_dataset(n, schema("D")).unwrap();
        }
        let before: BTreeMap<String, u32> =
            router.placements().into_iter().map(|p| (p.dataset, p.shard)).collect();
        let victim = 2u32;
        let moved = router.remove_shard(victim).unwrap();
        for p in &moved {
            assert_eq!(before[&p.dataset], victim, "only the removed shard's datasets move");
            assert_ne!(p.shard, victim);
        }
        let after: BTreeMap<String, u32> =
            router.placements().into_iter().map(|p| (p.dataset, p.shard)).collect();
        for (name, shard) in &before {
            if *shard != victim {
                assert_eq!(after[name], *shard, "surviving placements are untouched");
            }
        }
        assert_eq!(router.metrics().rebalanced_datasets, moved.len() as u64);
    }

    #[test]
    fn removing_the_last_shard_with_datasets_is_refused() {
        let router = Router::new(RouterConfig { shards: 1, ..RouterConfig::default() }).unwrap();
        router.add_dataset("only", schema("D")).unwrap();
        assert!(matches!(router.remove_shard(0), Err(RouterError::LastShard(0))));
        assert!(matches!(router.remove_shard(9), Err(RouterError::UnknownShard(9))));
    }

    #[test]
    fn services_survive_rebalancing_with_ledgers_intact() {
        let router = Router::new(RouterConfig { shards: 4, ..RouterConfig::default() }).unwrap();
        for i in 0..12 {
            router.add_dataset(&format!("ds-{i}"), schema("D")).unwrap();
        }
        router.register_tenant_all("t", PrivacyBudget::pure(5.0).unwrap()).unwrap();
        let q = StarQuery::count("q").with(Predicate::point("D", "c", 1));
        for i in 0..12 {
            router.pm_answer(&format!("ds-{i}"), "t", &q, 0.25).unwrap();
        }
        let (new_shard, _) = router.add_shard();
        assert_eq!(new_shard, 4);
        for i in 0..12 {
            let usage = router.tenant_usage(&format!("ds-{i}"), "t").unwrap();
            assert!(
                (usage.spent_epsilon - 0.25).abs() < 1e-12,
                "ledger must move with the dataset, untouched"
            );
        }
    }

    #[test]
    fn refresh_schema_is_shard_local_and_updates_the_table_index() {
        let router = router_with(&["alpha", "beta"]);
        router.register_tenant_all("t", PrivacyBudget::pure(10.0).unwrap()).unwrap();
        let q_beta = StarQuery::count("q").with(Predicate::point("beta", "c", 1));
        router.pm_answer("beta", "t", &q_beta, 0.5).unwrap();

        // Refresh alpha under a renamed dimension: the index must drop the
        // old name and pick up the new one; beta is untouched.
        let v = router.refresh_schema("alpha", schema("alpha2")).unwrap();
        assert_eq!(v, 1);
        let q_new = StarQuery::count("q").with(Predicate::point("alpha2", "c", 1));
        assert_eq!(router.route_query(&q_new).unwrap(), "alpha");
        let q_old = StarQuery::count("q").with(Predicate::point("alpha", "c", 1));
        assert!(matches!(router.route_query(&q_old), Err(RouterError::UnknownTable(_))));
        // Beta's cache and version never saw the refresh.
        let replay = router.pm_answer("beta", "t", &q_beta, 0.5).unwrap();
        assert!(replay.cached, "beta's cache survives alpha's refresh");
    }

    #[test]
    fn per_shard_config_overrides_apply() {
        let base = ServiceConfig { cache_answers: true, ..ServiceConfig::default() };
        let no_cache = ServiceConfig { cache_answers: false, ..base.clone() };
        // Find where "only" places, then override exactly that shard.
        let probe = Router::new(RouterConfig { shards: 2, ..RouterConfig::default() }).unwrap();
        let shard = probe.add_dataset("only", schema("D")).unwrap().shard;
        let config = RouterConfig { shards: 2, shard_config: base, ..RouterConfig::default() }
            .with_shard_config(shard, no_cache);
        let router = Router::new(config).unwrap();
        router.add_dataset("only", schema("D")).unwrap();
        router.register_tenant("only", "t", PrivacyBudget::pure(10.0).unwrap()).unwrap();
        let q = StarQuery::count("q").with(Predicate::point("D", "c", 1));
        router.pm_answer("only", "t", &q, 0.5).unwrap();
        let again = router.pm_answer("only", "t", &q, 0.5).unwrap();
        assert!(!again.cached, "the override disabled this shard's answer cache");
    }

    #[test]
    fn metrics_roll_up_across_shards() {
        let router = router_with(&["alpha", "beta"]);
        router.register_tenant_all("t", PrivacyBudget::pure(10.0).unwrap()).unwrap();
        let qa = StarQuery::count("qa").with(Predicate::point("alpha", "c", 0));
        let qb = StarQuery::count("qb").with(Predicate::point("beta", "c", 0));
        router.pm_answer("alpha", "t", &qa, 0.5).unwrap();
        router.pm_answer("beta", "t", &qb, 0.5).unwrap();
        router.pm_answer("beta", "t", &qb, 0.5).unwrap(); // cache hit on beta

        let m = router.metrics();
        assert_eq!(m.aggregate.queries_served, 3);
        assert_eq!(m.aggregate.cache_hits, 1);
        assert!(m.aggregate.p50_latency_us.is_some(), "merged latency present");
        assert_eq!(m.per_dataset.len(), 2);
        assert_eq!(m.routed_requests, 3);
        let served: u64 = m.per_shard.iter().map(|(_, s)| s.queries_served).sum();
        assert_eq!(served, 3, "per-shard totals partition the aggregate");
    }
}
