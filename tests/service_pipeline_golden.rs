//! Golden pins for the service request pipeline.
//!
//! One fixed-seed request sequence on a toy schema covers every branch of
//! the submit path: a fresh PM answer, a presentation-variant replay, a
//! free (unsatisfiable) query, a budget refusal, an unknown-table refusal,
//! a mixed free/paid batch and its replay, an all-free batch, an empty
//! batch (and three malformed ε on it), a budget- and an
//! unknown-table-refused batch, a fresh workload, its replay, a second workload on the same axes (a W-histogram
//! cache hit), the cache sizes, a data refresh, and PM again. The sequence
//! runs once on the direct path and once through the coalescer (one
//! worker), and every observable is pinned verbatim: answer bits, the
//! perturbed query's SQL, cached flags, cost bits, per-tenant ledgers, the
//! audit trail, the span sequence and every metrics counter.
//!
//! ε values are dyadic, so every ledger sum is an exact `f64`. Answers and
//! ledgers are the same on both paths; spans and the coalescer counters
//! differ only where a request parked.

use dp_starj_repro::core::workload::{PredicateWorkload, WorkloadBlock};
use dp_starj_repro::engine::{
    to_sql, Column, Constraint, Dimension, Domain, GroupAttr, Predicate, QueryResult, StarQuery,
    StarSchema, Table,
};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::service::{Service, ServiceAnswer, ServiceConfig, ServiceError};
use std::fmt::Write;
use std::sync::Arc;

const EPS: f64 = 0.5;

/// `D(color ∈ 0..4)` and `S(size ∈ 0..3)` over a 12-row fact table;
/// `shift` rotates the fact foreign keys so a refreshed instance holds
/// different data. `color = 1` admits a single fact row when unshifted.
fn schema(shift: u32) -> Arc<StarSchema> {
    let color = Domain::numeric("color", 4).unwrap();
    let size = Domain::numeric("size", 3).unwrap();
    let d = Table::new(
        "D",
        vec![Column::key("pk", vec![0, 1, 2, 3]), Column::attr("color", color, vec![0, 1, 2, 3])],
    )
    .unwrap();
    let s = Table::new(
        "S",
        vec![Column::key("pk", vec![0, 1, 2]), Column::attr("size", size, vec![0, 1, 2])],
    )
    .unwrap();
    let fk_d: Vec<u32> =
        [0, 0, 0, 1, 2, 2, 2, 3, 3, 3, 3, 2].iter().map(|k| (k + shift) % 4).collect();
    let fact = Table::new(
        "F",
        vec![
            Column::key("fd", fk_d),
            Column::key("fs", (0..12).map(|i| i % 3).collect()),
            Column::measure("qty", (1..=12).collect()),
        ],
    )
    .unwrap();
    Arc::new(
        StarSchema::new(fact, vec![Dimension::new(d, "pk", "fd"), Dimension::new(s, "pk", "fs")])
            .unwrap(),
    )
}

fn fresh() -> StarQuery {
    StarQuery::count("fresh")
        .with(Predicate::point("D", "color", 2))
        .with(Predicate::range("S", "size", 0, 1))
}

/// Unsatisfiable on every instance: two different points on one attribute.
/// Grouped by `S.size`, so its exact answer is the empty group map.
fn dead(name: &str) -> StarQuery {
    dead_scalar(name).group_by(GroupAttr::new("S", "size"))
}

/// [`dead`] without the grouping: its exact answer is the scalar 0.
fn dead_scalar(name: &str) -> StarQuery {
    StarQuery::count(name)
        .with(Predicate::point("D", "color", 0))
        .with(Predicate::point("D", "color", 3))
}

fn mixed_batch(prefix: &str) -> Vec<StarQuery> {
    vec![
        StarQuery::sum(format!("{prefix}0"), "qty")
            .with(Predicate::range("D", "color", 0, 2))
            .group_by(GroupAttr::new("S", "size")),
        dead(&format!("{prefix}1")),
        StarQuery::count(format!("{prefix}2")).with(Predicate::point("S", "size", 2)),
    ]
}

fn workload(rows: Vec<Vec<Constraint>>) -> PredicateWorkload {
    PredicateWorkload::new(
        vec![
            WorkloadBlock { table: "D".into(), attr: "color".into(), domain: 4 },
            WorkloadBlock { table: "S".into(), attr: "size".into(), domain: 3 },
        ],
        rows,
    )
    .unwrap()
}

fn result(r: &QueryResult) -> String {
    match r {
        QueryResult::Scalar(v) => format!("{:016x}", v.to_bits()),
        QueryResult::Groups(groups) => {
            let cells: Vec<String> =
                groups.iter().map(|(k, v)| format!("{k:?}={:016x}", v.to_bits())).collect();
            format!("{{{}}}", cells.join(","))
        }
    }
}

fn cost(c: Option<PrivacyBudget>) -> String {
    c.map_or("-".into(), |c| format!("{:016x}", c.epsilon().to_bits()))
}

fn member(schema: &StarSchema, a: &ServiceAnswer) -> String {
    let noisy = a.noisy_query.as_ref().map_or("-".into(), |q| to_sql(schema, q));
    format!(
        "{} cached={} cost={} result={} noisy={noisy}",
        a.name,
        a.cached,
        cost(a.cost),
        result(&a.result)
    )
}

fn refusal(err: &ServiceError) -> String {
    format!("refused {err:?}")
}

struct Run {
    service: Service,
    out: String,
}

impl Run {
    fn pm(&mut self, step: &str, tenant: &str, q: &StarQuery) {
        let line = match self.service.pm_answer(tenant, q, EPS) {
            Ok(a) => member(&self.service.schema(), &a),
            Err(e) => refusal(&e),
        };
        writeln!(self.out, "{step}: {line}").unwrap();
    }

    fn batch(&mut self, step: &str, tenant: &str, qs: &[StarQuery], eps: f64) {
        match self.service.pm_batch_answer(tenant, qs, eps) {
            Ok(b) => {
                writeln!(self.out, "{step}: cached={} cost={}", b.cached, cost(b.cost)).unwrap();
                for a in &b.answers {
                    writeln!(self.out, "  {}", member(&self.service.schema(), a)).unwrap();
                }
            }
            Err(e) => writeln!(self.out, "{step}: {}", refusal(&e)).unwrap(),
        }
    }

    fn wd(&mut self, step: &str, w: &PredicateWorkload) {
        let line = match self.service.wd_answer("ann", w, EPS) {
            Ok(a) => {
                let bits: Vec<String> =
                    a.answers.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
                format!("cached={} cost={} answers=[{}]", a.cached, cost(a.cost), bits.join(","))
            }
            Err(e) => refusal(&e),
        };
        writeln!(self.out, "{step}: {line}").unwrap();
    }
}

/// Runs the sequence and returns `(answers + ledgers + audit, spans,
/// metrics counters)`.
fn transcript(coalesce: bool) -> (String, String, String) {
    let config = ServiceConfig { seed: 2023, coalesce, ..ServiceConfig::default() };
    let service = Service::new(schema(0), config);
    service.register_tenant("ann", PrivacyBudget::pure(8.0).unwrap()).unwrap();
    service.register_tenant("bob", PrivacyBudget::pure(0.25).unwrap()).unwrap();
    let mut run = Run { service, out: String::new() };

    run.pm("pm_fresh", "ann", &fresh());
    let variant = StarQuery::count("variant")
        .with(Predicate::range("S", "size", 0, 1))
        .with(Predicate::range("D", "color", 2, 2));
    run.pm("pm_variant", "ann", &variant);
    run.pm("pm_free", "ann", &dead("free"));
    run.pm("pm_budget", "bob", &StarQuery::count("poor").with(Predicate::point("D", "color", 3)));
    run.pm("pm_unknown", "ann", &StarQuery::count("ghost").with(Predicate::point("Ghost", "c", 1)));
    run.batch("batch_mixed", "ann", &mixed_batch("b"), EPS);
    run.batch("batch_replay", "ann", &mixed_batch("r"), EPS);
    run.batch("batch_free", "ann", &[dead("f0"), dead_scalar("f1")], EPS);
    run.batch("batch_empty", "ann", &[], EPS);
    for bad in [0.0, -1.0, f64::NAN] {
        run.batch("batch_empty_bad_eps", "ann", &[], bad);
    }
    let common = StarQuery::count("x").with(Predicate::point("D", "color", 3));
    run.batch("batch_refused", "bob", &[common.clone(), dead("y")], EPS);
    let ghost = StarQuery::count("ghost").with(Predicate::point("Ghost", "c", 1));
    run.batch("batch_unknown", "ann", &[common, ghost], EPS);
    let w = workload(vec![
        vec![Constraint::Point(2), Constraint::Range { lo: 0, hi: 1 }],
        vec![Constraint::Range { lo: 0, hi: 3 }, Constraint::Point(2)],
    ]);
    run.wd("wd_fresh", &w);
    run.wd("wd_replay", &w);
    run.wd(
        "wd_same_axes",
        &workload(vec![vec![
            Constraint::Range { lo: 1, hi: 2 },
            Constraint::Range { lo: 0, hi: 2 },
        ]]),
    );
    let (answers, histograms) = (run.service.cached_answers(), run.service.cached_histograms());
    writeln!(run.out, "cache: answers={answers} histograms={histograms}").unwrap();
    let version = run.service.refresh_schema(schema(2));
    writeln!(run.out, "refresh: version={version}").unwrap();
    run.pm("pm_after_refresh", "ann", &fresh());

    let Run { service, mut out } = run;
    for tenant in ["ann", "bob"] {
        let usage = service.tenant_usage(tenant).unwrap();
        writeln!(
            out,
            "ledger {tenant}: spent={:016x} in_flight={:016x}",
            usage.spent_epsilon.to_bits(),
            usage.in_flight_epsilon.to_bits()
        )
        .unwrap();
    }
    for e in service.telemetry().audit().events() {
        writeln!(
            out,
            "audit {} {} {:016x} v{}",
            e.tenant,
            e.kind.name(),
            e.epsilon.to_bits(),
            e.data_version
        )
        .unwrap();
    }

    let mut spans = String::new();
    for s in service.telemetry().spans() {
        writeln!(
            spans,
            "{} {} {} queued={}",
            s.tenant(),
            s.kind.name(),
            s.outcome.name(),
            s.queued
        )
        .unwrap();
    }
    let mut metrics = String::new();
    for (name, value) in service.metrics().counter_entries() {
        writeln!(metrics, "{name}={value}").unwrap();
    }
    (out, spans, metrics)
}

const ANSWERS: &str = r#"pm_fresh: fresh cached=false cost=3fe0000000000000 result=4010000000000000 noisy=SELECT count(*) FROM F, D, S WHERE F.fd = D.pk AND F.fs = S.pk AND D.color = 3 AND S.size BETWEEN 0 AND 2;
pm_variant: variant cached=true cost=- result=4010000000000000 noisy=SELECT count(*) FROM F, D, S WHERE F.fd = D.pk AND F.fs = S.pk AND D.color = 3 AND S.size BETWEEN 0 AND 2;
pm_free: free cached=false cost=- result={} noisy=-
pm_budget: refused BudgetExhausted { tenant: "bob", requested_epsilon: 0.5, remaining_epsilon: 0.25 }
pm_unknown: refused InvalidQuery(UnknownTable("Ghost"))
batch_mixed: cached=false cost=3fe0000000000000
  b0 cached=false cost=- result={[0]=4026000000000000,[1]=4014000000000000,[2]=4032000000000000} noisy=SELECT sum(F.qty), S.size FROM F, D, S WHERE F.fd = D.pk AND F.fs = S.pk AND D.color BETWEEN 1 AND 2 GROUP BY S.size;
  b1 cached=false cost=- result={} noisy=-
  b2 cached=false cost=- result=4010000000000000 noisy=SELECT count(*) FROM F, S WHERE F.fs = S.pk AND S.size = 2;
batch_replay: cached=true cost=-
  r0 cached=true cost=- result={[0]=4026000000000000,[1]=4014000000000000,[2]=4032000000000000} noisy=SELECT sum(F.qty), S.size FROM F, D, S WHERE F.fd = D.pk AND F.fs = S.pk AND D.color BETWEEN 1 AND 2 GROUP BY S.size;
  r1 cached=true cost=- result={} noisy=-
  r2 cached=true cost=- result=4010000000000000 noisy=SELECT count(*) FROM F, S WHERE F.fs = S.pk AND S.size = 2;
batch_free: cached=false cost=-
  f0 cached=false cost=- result={} noisy=-
  f1 cached=false cost=- result=0000000000000000 noisy=-
batch_empty: cached=false cost=-
batch_empty_bad_eps: refused InvalidBudget(InvalidEpsilon(0.0))
batch_empty_bad_eps: refused InvalidBudget(InvalidEpsilon(-1.0))
batch_empty_bad_eps: refused InvalidBudget(InvalidEpsilon(NaN))
batch_refused: refused BudgetExhausted { tenant: "bob", requested_epsilon: 0.5, remaining_epsilon: 0.25 }
batch_unknown: refused InvalidQuery(UnknownTable("Ghost"))
wd_fresh: cached=false cost=3fe0000000000000 answers=[3ffb6db6db6db6db,40036db6db6db6da]
wd_replay: cached=true cost=- answers=[3ffb6db6db6db6db,40036db6db6db6da]
wd_same_axes: cached=false cost=3fe0000000000000 answers=[4007fffffffffffe]
cache: answers=4 histograms=1
refresh: version=1
pm_after_refresh: fresh cached=false cost=3fe0000000000000 result=4008000000000000 noisy=SELECT count(*) FROM F, D, S WHERE F.fd = D.pk AND F.fs = S.pk AND D.color = 1 AND S.size BETWEEN 0 AND 1;
ledger ann: spent=4004000000000000 in_flight=0000000000000000
ledger bob: spent=0000000000000000 in_flight=0000000000000000
audit ann reserve 3fe0000000000000 v0
audit ann commit 3fe0000000000000 v0
audit bob refusal 3fe0000000000000 v0
audit ann reserve 3fe0000000000000 v0
audit ann commit 3fe0000000000000 v0
audit bob refusal 3fe0000000000000 v0
audit ann reserve 3fe0000000000000 v0
audit ann commit 3fe0000000000000 v0
audit ann reserve 3fe0000000000000 v0
audit ann commit 3fe0000000000000 v0
audit ann reserve 3fe0000000000000 v1
audit ann commit 3fe0000000000000 v1
"#;

const SPANS_DIRECT: &str = r#"ann pm ok queued=false
ann pm cached queued=false
ann pm free queued=false
ann pm_batch ok queued=false
ann pm_batch cached queued=false
ann pm_batch free queued=false
ann pm_batch free queued=false
ann wd ok queued=false
ann wd cached queued=false
ann wd ok queued=false
ann pm ok queued=false
"#;

const SPANS_COALESCED: &str = r#"ann pm ok queued=true
ann pm cached queued=false
ann pm free queued=false
ann pm_batch ok queued=false
ann pm_batch cached queued=false
ann pm_batch free queued=false
ann pm_batch free queued=false
ann wd ok queued=true
ann wd cached queued=false
ann wd ok queued=true
ann pm ok queued=true
"#;

const METRICS_DIRECT: &str = r#"queries_served=10
cache_hits=3
free_answers=4
budget_refusals=2
admission_rejections=5
mechanism_failures=0
fused_scans=1
fused_queries_saved=4
coalesced_requests=0
coalesced_batches=0
w_cache_hits=2
w_builds=2
pm_w_answers=3
stale_refusals=0
durable_refusals=0
"#;

const METRICS_COALESCED: &str = r#"queries_served=10
cache_hits=3
free_answers=4
budget_refusals=2
admission_rejections=5
mechanism_failures=0
fused_scans=1
fused_queries_saved=4
coalesced_requests=4
coalesced_batches=4
w_cache_hits=2
w_builds=2
pm_w_answers=3
stale_refusals=0
durable_refusals=0
"#;

#[test]
fn direct_pipeline_matches_the_golden_transcript() {
    let (answers, spans, metrics) = transcript(false);
    assert_eq!(answers, ANSWERS);
    assert_eq!(spans, SPANS_DIRECT);
    assert_eq!(metrics, METRICS_DIRECT);
}

#[test]
fn coalesced_pipeline_matches_the_golden_transcript() {
    let (answers, spans, metrics) = transcript(true);
    assert_eq!(answers, ANSWERS);
    assert_eq!(spans, SPANS_COALESCED);
    assert_eq!(metrics, METRICS_COALESCED);
}
