//! The crash-safety property battery for the budget journal.
//!
//! **Property**: for a crash injected at *any* record boundary — any
//! journal append, torn at any byte offset — recovery rebuilds per-tenant
//! ledgers with
//!
//! > recovered spent-ε  ≥  Σ ε of answers actually released to callers,
//!
//! with equality when the journal is intact, and any over-charge bounded
//! by the single record that was in flight at the crash (written durably
//! but never acknowledged). Under-charging — an answer released whose
//! spend evaporates on restart — is the one unacceptable outcome for a
//! DP system, and this battery sweeps every crash point looking for it.
//!
//! The sweep is deterministic: a dry run with an unarmed [`FaultPlan`]
//! counts how many times the workload reaches each fault site, then one
//! run per hit index arms a crash there, with the torn-byte offset drawn
//! from the plan's seeded stream. Set `FAULT_SEED=<u64>` to re-run the
//! whole battery under a different seed (CI sweeps several).

use dp_starj_repro::durable::{FaultKind, FaultPlan, TempDir};
use dp_starj_repro::engine::{Column, Dimension, Domain, Predicate, StarQuery, StarSchema, Table};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::service::{DurableConfig, Service, ServiceConfig, ServiceError};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

const TENANTS: [&str; 2] = ["alice", "bob"];
/// Dyadic ε so f64 sums are exact and bit-comparisons are meaningful.
const EPSILONS: [f64; 6] = [0.25, 0.125, 0.5, 0.0625, 0.25, 0.125];

fn seed() -> u64 {
    std::env::var("FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xD15A_57E5)
}

fn schema() -> Arc<StarSchema> {
    let domain = Domain::numeric("c", 4).unwrap();
    let dim = Table::new(
        "Dim",
        vec![Column::key("pk", (0..4).collect()), Column::attr("c", domain, (0..4).collect())],
    )
    .unwrap();
    let fact = Table::new(
        "Fact",
        vec![
            Column::key("fk", vec![0, 0, 1, 1, 2, 2, 3, 3, 0, 1]),
            Column::measure("m", vec![5, -3, 7, 2, 2, 9, -1, 4, 6, 1]),
        ],
    )
    .unwrap();
    Arc::new(StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap())
}

/// Query `i` of the workload — all canonically distinct, so every answer
/// is a fresh spend (no cache hits muddying the ledger arithmetic).
fn query(i: usize) -> StarQuery {
    let predicate = Predicate::point("Dim", "c", (i % 4) as u32);
    if i < 4 {
        StarQuery::count(format!("q{i}")).with(predicate)
    } else {
        StarQuery::sum(format!("q{i}"), "m").with(predicate)
    }
}

/// Runs the fixed workload against a journaled service under `plan`,
/// returning Σ released ε per tenant (only answers the caller actually
/// received count).
fn run_workload(dir: &Path, plan: Arc<FaultPlan>) -> BTreeMap<String, f64> {
    let config = ServiceConfig {
        durable: Some(DurableConfig { segment_bytes: 160, ..DurableConfig::at(dir) }),
        fault: Some(plan),
        ..ServiceConfig::default()
    };
    let service = Service::open(schema(), config).expect("fresh journal opens");
    let mut released: BTreeMap<String, f64> =
        TENANTS.iter().map(|t| (t.to_string(), 0.0)).collect();
    for tenant in TENANTS {
        service.register_tenant(tenant, PrivacyBudget::pure(16.0).unwrap()).unwrap();
    }
    for (i, &eps) in EPSILONS.iter().enumerate() {
        let tenant = TENANTS[i % TENANTS.len()];
        match service.pm_answer(tenant, &query(i), eps) {
            Ok(answer) => {
                assert!(!answer.cached, "workload queries are distinct");
                *released.get_mut(tenant).unwrap() += eps;
            }
            Err(ServiceError::DurabilityUnavailable { .. }) => {
                // The injected fault (or the degraded mode it latched):
                // refused, refunded, nothing released.
            }
            Err(other) => panic!("unexpected workload error: {other}"),
        }
    }
    // The in-memory ledger must agree with what we released even before
    // recovery: refusals refund. So must Σ Commit over the emitted
    // settlement stream, whatever the fault did to the journal's copy.
    for tenant in TENANTS {
        let usage = service.tenant_usage(tenant).unwrap();
        assert_eq!(usage.in_flight_epsilon, 0.0, "{tenant}: no reservation may leak");
        assert_eq!(
            usage.spent_epsilon.to_bits(),
            released[tenant].to_bits(),
            "{tenant}: live ledger must equal released answers"
        );
        let (emitted, _) = service.telemetry().audit().committed(tenant);
        assert_eq!(
            emitted.to_bits(),
            usage.spent_epsilon.to_bits(),
            "{tenant}: Σ Commit over the emitted stream must equal the live ledger"
        );
    }
    released
}

/// Reopens the journal at `dir` and returns each tenant's recovered spend.
fn recover(dir: &Path) -> BTreeMap<String, f64> {
    let config = ServiceConfig {
        durable: Some(DurableConfig { segment_bytes: 160, ..DurableConfig::at(dir) }),
        ..ServiceConfig::default()
    };
    let service = Service::open(schema(), config).expect("recovery must never refuse a crash tail");
    TENANTS
        .iter()
        .map(|&tenant| {
            service.register_tenant(tenant, PrivacyBudget::pure(16.0).unwrap()).unwrap();
            (tenant.to_string(), service.tenant_usage(tenant).unwrap().spent_epsilon)
        })
        .collect()
}

/// The core invariant check for one crash scenario. `released` is also
/// Σ Commit over the emitted settlement stream (checked in
/// [`run_workload`]), so recovery never falls below what the audit trail
/// says was spent.
fn assert_never_undercharges(
    label: &str,
    released: &BTreeMap<String, f64>,
    recovered: &BTreeMap<String, f64>,
) {
    let max_eps = EPSILONS.iter().cloned().fold(0.0f64, f64::max);
    for tenant in TENANTS {
        let (rel, rec) = (released[tenant], recovered[tenant]);
        assert!(
            rec >= rel,
            "{label}: tenant {tenant} UNDER-CHARGED — released ε={rel}, recovered ε={rec}"
        );
        assert!(
            rec - rel <= max_eps,
            "{label}: tenant {tenant} over-charge {rec}-{rel} exceeds one in-flight record"
        );
    }
}

#[test]
fn intact_journal_recovers_bit_identically() {
    let seed = seed();
    let dir = TempDir::new("prop-durable-intact").unwrap();
    let released = run_workload(dir.path(), Arc::new(FaultPlan::new(seed)));
    let recovered = recover(dir.path());
    for tenant in TENANTS {
        assert_eq!(
            recovered[tenant].to_bits(),
            released[tenant].to_bits(),
            "seed {seed}: intact journal must replay {tenant}'s ledger bit-identically"
        );
    }
}

#[test]
fn crash_at_every_append_boundary_never_undercharges() {
    let seed = seed();
    // Dry run: count how many times the workload appends a record.
    let dry = Arc::new(FaultPlan::new(seed));
    let dir = TempDir::new("prop-durable-dry").unwrap();
    let _ = run_workload(dir.path(), Arc::clone(&dry));
    let append_hits = dry.hits("wal.write");
    assert!(
        append_hits >= 2 * EPSILONS.len() as u64,
        "each answered query must journal a Reserve and a Commit (saw {append_hits})"
    );

    for hit in 0..append_hits {
        // Torn offset from the seeded stream: 0 (nothing landed) through
        // past-the-frame (fully durable, acknowledgment lost).
        let plan = Arc::new(FaultPlan::new(seed ^ hit));
        let torn_bytes = (plan.rng_u64() % 96) as usize;
        plan.arm("wal.write", hit, FaultKind::Crash { torn_bytes });
        let dir = TempDir::new(&format!("prop-durable-w{hit}")).unwrap();
        let released = run_workload(dir.path(), plan);
        let recovered = recover(dir.path());
        assert_never_undercharges(
            &format!("seed {seed}, crash at append #{hit} ({torn_bytes} torn bytes)"),
            &released,
            &recovered,
        );
    }
}

#[test]
fn io_errors_at_every_fsync_boundary_never_undercharge() {
    let seed = seed().wrapping_add(1);
    let dry = Arc::new(FaultPlan::new(seed));
    let dir = TempDir::new("prop-durable-sync-dry").unwrap();
    let _ = run_workload(dir.path(), Arc::clone(&dry));
    let sync_hits = dry.hits("wal.sync");
    assert!(sync_hits > 0, "the group-commit path must fsync");

    for hit in 0..sync_hits {
        let plan =
            Arc::new(FaultPlan::new(seed ^ hit).fail_at("wal.sync", hit, FaultKind::IoError));
        let dir = TempDir::new(&format!("prop-durable-s{hit}")).unwrap();
        let released = run_workload(dir.path(), plan);
        let recovered = recover(dir.path());
        assert_never_undercharges(
            &format!("seed {seed}, fsync failure at #{hit}"),
            &released,
            &recovered,
        );
    }
}

#[test]
fn crash_at_every_rotation_never_undercharges() {
    let seed = seed().wrapping_add(2);
    let dry = Arc::new(FaultPlan::new(seed));
    let dir = TempDir::new("prop-durable-rot-dry").unwrap();
    let _ = run_workload(dir.path(), Arc::clone(&dry));
    let rotate_hits = dry.hits("wal.rotate");
    assert!(rotate_hits > 0, "160-byte segments must rotate during the workload");

    for hit in 0..rotate_hits {
        let plan = Arc::new(FaultPlan::new(seed ^ hit));
        let torn_bytes = (plan.rng_u64() % 16) as usize;
        plan.arm("wal.rotate", hit, FaultKind::Crash { torn_bytes });
        let dir = TempDir::new(&format!("prop-durable-r{hit}")).unwrap();
        let released = run_workload(dir.path(), plan);
        let recovered = recover(dir.path());
        assert_never_undercharges(
            &format!("seed {seed}, crash at rotation #{hit}"),
            &released,
            &recovered,
        );
    }
}
