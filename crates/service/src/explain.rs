//! EXPLAIN: the plan a query *would* run, without spending budget.
//!
//! [`crate::Service::explain`] resolves a star query exactly as the
//! serving path would — admission validation, canonicalization, scan-plan
//! compilation under the service's own scan options — and reports the
//! result instead of executing it: the canonical SQL the cache would key
//! on, the kernel's filter order with probe classes and exact fact pass
//! fractions, the mask-sharing and fk-staging decisions, and optionally
//! the kernel-counter deltas of one profiling scan.
//!
//! Nothing here touches the accountant: no reservation, no noise draw, no
//! cache insert, no audit event. The optional profiling scan runs the
//! **original** (un-noised) query purely for its counter deltas and
//! discards the result — which is precisely why the gate exposes this
//! verb to *admin* tokens only: plan shapes, pass fractions, and exact
//! row counts are data-dependent and carry no DP noise, so handing
//! them to tenants would open a side channel around the privacy budget.

use crate::error::ServiceError;
use starj_engine::{PlanExplain, ScanPlan, StarQuery};
use starj_telemetry::{kernel_counters, Json, KernelSnapshot};

/// What [`crate::Service::explain`] returns.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Canonical SQL — the normalized form answer caching keys on.
    pub canonical_sql: String,
    /// True when canonicalization proved the query empty on every
    /// instance (the serving path would answer it exactly, for free).
    pub unsatisfiable: bool,
    /// Data version the plan was resolved against.
    pub data_version: u64,
    /// How PM would evaluate the query, decided by the serving path's own
    /// coverage rule: `"w_cached"` (a cached W histogram answers),
    /// `"w_batch"` (covered only under the transient ceiling: a W built
    /// for the batch answers when enough batch members share its axes,
    /// else the scan) or `"scan"`. `None` for unsatisfiable queries.
    pub route: Option<&'static str>,
    /// The plan shape; `None` for unsatisfiable queries (nothing would
    /// be scanned).
    pub plan: Option<PlanExplain>,
    /// Kernel-counter deltas of one profiling execution, when requested.
    pub profile: Option<ExplainProfile>,
}

/// One profiling scan's cost, expressed as kernel-counter deltas.
#[derive(Debug, Clone, Copy)]
pub struct ExplainProfile {
    /// Wall-clock nanoseconds of the scan.
    pub elapsed_ns: u64,
    /// Kernel counter movement attributable to the scan. Process-wide
    /// counters, so concurrent traffic can inflate deltas — profile on a
    /// quiet shard for exact numbers.
    pub counters: KernelSnapshot,
}

impl ExplainReport {
    /// Renders the report as a JSON object — the payload of the gate's
    /// `explain` verb.
    pub fn to_json(&self) -> Json {
        let profile = self.profile.as_ref().map_or(Json::Null, |p| {
            let counters = p
                .counters
                .entries()
                .iter()
                .map(|(name, value)| ((*name).to_string(), Json::Num(*value as f64)))
                .collect();
            Json::obj(vec![
                ("elapsed_ns", Json::Num(p.elapsed_ns as f64)),
                ("counters", Json::Obj(counters)),
            ])
        });
        Json::obj(vec![
            ("canonical_sql", Json::Str(self.canonical_sql.clone())),
            ("unsatisfiable", Json::Num(f64::from(u8::from(self.unsatisfiable)))),
            ("data_version", Json::Num(self.data_version as f64)),
            ("route", self.route.map_or(Json::Null, |r| Json::Str(r.into()))),
            ("plan", self.plan.as_ref().map_or(Json::Null, PlanExplain::to_json)),
            ("profile", profile),
        ])
    }
}

/// Compiles `query` into a one-member scan plan and describes it;
/// optionally runs the plan once for kernel-counter deltas, discarding
/// the (exact, un-noised) result. Shared by [`crate::Service::explain`]
/// so the plan EXPLAIN reports is built by the same code path the
/// executor uses.
pub(crate) fn describe_query(
    schema: &starj_engine::StarSchema,
    query: &StarQuery,
    options: starj_engine::ScanOptions,
    profile: bool,
) -> Result<(PlanExplain, Option<ExplainProfile>), ServiceError> {
    let mut plan = ScanPlan::with_options(schema, options).map_err(ServiceError::InvalidQuery)?;
    plan.add_query(query).map_err(ServiceError::InvalidQuery)?;
    let described = plan.describe();
    let profile = profile.then(|| {
        let before = kernel_counters().snapshot();
        let start = std::time::Instant::now();
        let _ = plan.execute(options);
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        let counters = kernel_counters().snapshot().since(&before);
        ExplainProfile { elapsed_ns, counters }
    });
    Ok((described, profile))
}
