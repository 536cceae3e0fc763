//! Error type for the serving subsystem.

use dp_starj::CoreError;
use starj_engine::EngineError;
use starj_noise::NoiseError;
use std::fmt;

/// Errors a [`crate::Service`] can return to a caller.
///
/// The variants are ordered by where in the request pipeline they arise:
/// admission ([`ServiceError::InvalidQuery`], [`ServiceError::InvalidBudget`]),
/// accounting ([`ServiceError::UnknownTenant`],
/// [`ServiceError::BudgetExhausted`]), then execution
/// ([`ServiceError::Mechanism`]). Only execution errors spend-and-refund; the
/// earlier stages fail before any budget is reserved.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The tenant's `(ε, δ)` allotment cannot absorb the requested query
    /// budget. The request was refused **before** any spending: retrying
    /// with a smaller ε may succeed, retrying with the same ε never will.
    BudgetExhausted {
        /// The refused tenant.
        tenant: String,
        /// ε the query asked for.
        requested_epsilon: f64,
        /// ε the tenant still has (reservations in flight already deducted).
        remaining_epsilon: f64,
    },
    /// The tenant was never registered with the accountant.
    UnknownTenant(String),
    /// A tenant with this id is already registered.
    DuplicateTenant(String),
    /// The tenant id is longer than a budget-journal record can carry
    /// (`starj_durable::record::MAX_TENANT_BYTES`); refused at
    /// registration.
    TenantIdTooLong {
        /// UTF-8 byte length of the refused id.
        bytes: usize,
        /// The longest id accepted.
        max: usize,
    },
    /// The query failed schema admission (unknown table/column, constraint
    /// outside its domain, non-measure aggregate target, …). Rejected before
    /// any budget was reserved.
    InvalidQuery(EngineError),
    /// The requested privacy parameters are malformed (ε ≤ 0, δ ∉ [0, 1)).
    InvalidBudget(NoiseError),
    /// DPSQL+-style minimum-frequency refusal: the cost model estimates
    /// that a predicate admits fewer fact rows than the configured floor
    /// ([`crate::ServiceConfig::min_pass_rows`]), so answering would
    /// release a statistic about a population too small to hide in.
    /// Refused at admission — **no budget was reserved or spent**.
    ///
    /// The [`fmt::Display`] message travels to untrusted callers (the
    /// gate forwards it on the wire), so it deliberately reports only the
    /// floor: the estimated count is an un-noised (on small instances
    /// exact) statistic about the very sub-floor population the guard
    /// exists to protect, and naming the predicate would reveal *which*
    /// conjunct is rare. Server-side consumers that want the detail read
    /// these fields directly (or `Debug`-format the error).
    BelowMinFrequency {
        /// Table of the offending predicate (server-side detail; not in
        /// the `Display` message).
        table: String,
        /// Attribute of the offending predicate (server-side detail; not
        /// in the `Display` message).
        attr: String,
        /// Cost-model estimated fact rows the predicate admits
        /// (server-side detail; never in the `Display` message — leaking
        /// it would undercut the guard).
        estimated_rows: f64,
        /// The configured minimum-frequency floor.
        floor: u64,
    },
    /// The underlying DP mechanism failed after admission; the reservation
    /// was rolled back, so the failed query spent nothing.
    Mechanism(CoreError),
    /// The budget journal is unavailable (IO error, injected fault, disk
    /// full), so the service is in **degraded mode**: cache hits and free
    /// answers keep flowing, but nothing that would spend budget can be
    /// journaled and is therefore refused. Fail-closed by design — an
    /// un-journaled spend would be forgotten by a crash and re-granted
    /// after restart, the one failure a DP accountant must never have.
    /// Any reservation this request held was refunded.
    DurabilityUnavailable {
        /// Human-readable cause (journal error message).
        reason: String,
    },
    /// An internal invariant failed while serving this request (e.g. a
    /// coalescer worker panicked mid-drain). The caller's reservation was
    /// refunded by RAII; resubmitting is safe.
    Internal(String),
    /// A [`crate::Service::refresh_schema`] landed between this request's
    /// submit (admission, reservation, perturbation against the old data
    /// version) and its coalesced drain. Answering would release a result
    /// computed over data the service no longer serves, so the request is
    /// refused and its reservation refunded — resubmit to run against the
    /// current version.
    StaleDataVersion {
        /// Data version the request was submitted against.
        submitted: u64,
        /// Data version the service was serving at drain time.
        current: u64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BudgetExhausted { tenant, requested_epsilon, remaining_epsilon } => {
                write!(
                    f,
                    "tenant `{tenant}` budget exhausted: requested ε = {requested_epsilon}, \
                     remaining ε = {remaining_epsilon}"
                )
            }
            ServiceError::UnknownTenant(t) => write!(f, "unknown tenant `{t}`"),
            ServiceError::DuplicateTenant(t) => write!(f, "tenant `{t}` already registered"),
            ServiceError::TenantIdTooLong { bytes, max } => {
                write!(f, "tenant id of {bytes} bytes exceeds the {max}-byte limit")
            }
            ServiceError::InvalidQuery(e) => write!(f, "query rejected at admission: {e}"),
            ServiceError::InvalidBudget(e) => write!(f, "invalid privacy budget: {e}"),
            // Client-facing: floor only. The estimate (and which predicate
            // tripped it) is an un-noised statistic about a sub-floor
            // population — exactly what the guard refuses to release.
            ServiceError::BelowMinFrequency { floor, .. } => write!(
                f,
                "a predicate was refused by the minimum-frequency guard \
                 (floor {floor} rows; no budget spent)"
            ),
            ServiceError::Mechanism(e) => write!(f, "mechanism failure (budget refunded): {e}"),
            ServiceError::DurabilityUnavailable { reason } => write!(
                f,
                "budget journal unavailable — serving degraded (cache hits and free answers \
                 only, new budget spends refused, reservation refunded): {reason}"
            ),
            ServiceError::Internal(msg) => {
                write!(f, "internal service error (reservation refunded; safe to resubmit): {msg}")
            }
            ServiceError::StaleDataVersion { submitted, current } => write!(
                f,
                "data refreshed while the request was queued (submitted against version \
                 {submitted}, now serving {current}); the reservation was refunded — resubmit"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::InvalidQuery(e)
    }
}

impl From<NoiseError> for ServiceError {
    fn from(e: NoiseError) -> Self {
        ServiceError::InvalidBudget(e)
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Mechanism(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_tenant_and_amounts() {
        let e = ServiceError::BudgetExhausted {
            tenant: "acme".into(),
            requested_epsilon: 0.5,
            remaining_epsilon: 0.25,
        };
        let msg = e.to_string();
        assert!(msg.contains("acme") && msg.contains("0.5") && msg.contains("0.25"));
    }

    #[test]
    fn min_frequency_display_reveals_only_the_floor() {
        // The Display message reaches wire clients verbatim; the estimate
        // is a (near-)exact count of a sub-floor population and the
        // table/attr would reveal which conjunct is rare, so neither may
        // appear.
        let e = ServiceError::BelowMinFrequency {
            table: "Customer".into(),
            attr: "region".into(),
            estimated_rows: 3.0,
            floor: 100,
        };
        let msg = e.to_string();
        assert!(msg.contains("100"), "floor missing from `{msg}`");
        assert!(
            !msg.contains("Customer") && !msg.contains("region") && !msg.contains('3'),
            "client-facing message leaks guard details: `{msg}`"
        );
    }

    #[test]
    fn stale_version_display_names_both_versions() {
        let e = ServiceError::StaleDataVersion { submitted: 3, current: 5 };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains('5') && msg.contains("refunded"));
    }

    #[test]
    fn conversions_pick_the_right_stage() {
        let e: ServiceError = EngineError::UnknownTable("Nope".into()).into();
        assert!(matches!(e, ServiceError::InvalidQuery(_)));
        let e: ServiceError = NoiseError::InvalidEpsilon(-1.0).into();
        assert!(matches!(e, ServiceError::InvalidBudget(_)));
        let e: ServiceError = CoreError::Invalid("boom".into()).into();
        assert!(matches!(e, ServiceError::Mechanism(_)));
    }
}
