//! Golden pins for PM's predicate noise.
//!
//! Every noisy constant PM draws at a fixed seed is pinned here, together
//! with the bits of the `open01` draw that follows it. A change in the
//! constants, or in how many RNG words a perturbation consumes, fails the
//! test. The cases are the nine SSB queries at ε ∈ {0.1, 1}, 64
//! benchmark-shaped queries at the served ε = 0.125 (year and month ranges;
//! nation, region and category points), one WD reconstruction of W1 and one
//! k-star perturbation. Each case draws from its own derived RNG, so one
//! moved case does not move the others.

use dp_starj_repro::core::kstar::pm_kstar;
use dp_starj_repro::core::pm::{perturb_query, PmConfig};
use dp_starj_repro::core::workload::{wd_reconstruct, PredicateWorkload, WdConfig, WorkloadBlock};
use dp_starj_repro::engine::{Predicate, StarQuery, StarSchema};
use dp_starj_repro::graph::{deezer_like, KStarQuery};
use dp_starj_repro::noise::rng::{fnv1a, FNV_OFFSET};
use dp_starj_repro::noise::StarRng;
use dp_starj_repro::ssb::{all_queries, generate, w1, SsbConfig, BLOCKS};
use std::fmt::Write;

const SEED: u64 = 2023;

/// PM reads only the schema's domains, which do not depend on the scale.
fn schema() -> StarSchema {
    generate(&SsbConfig { scale: 0.001, seed: 7, ..Default::default() }).unwrap()
}

fn root() -> StarRng {
    StarRng::from_seed(SEED).derive("pm_noise_golden")
}

/// The bits of the draw after a case: pins how many words it consumed.
fn next_bits(rng: &mut StarRng) -> String {
    format!("{:016x}", rng.open01().to_bits())
}

/// A range, or a point when it is one value wide, as the benchmark draws.
fn range_or_point(table: &str, attr: &str, a: u32, b: u32) -> Predicate {
    match (a.min(b), a.max(b)) {
        (lo, hi) if lo == hi => Predicate::point(table, attr, lo),
        (lo, hi) => Predicate::range(table, attr, lo, hi),
    }
}

fn constants(q: &StarQuery) -> String {
    let preds: Vec<String> =
        q.predicates.iter().map(|p| format!("{}.{} {:?}", p.table, p.attr, p.constraint)).collect();
    preds.join(", ")
}

/// The `i`-th benchmark-shaped query: a year range, an optional month
/// range, and customer nation or region, supplier region and part
/// category points, read off the digits of `i · 2654435761`.
fn served_query(i: u64) -> StarQuery {
    let mut point = i.wrapping_mul(2_654_435_761) >> 7;
    let mut take = |radix: u64| {
        let digit = (point % radix) as u32;
        point /= radix;
        digit
    };
    let mut q =
        StarQuery::count(format!("s{i}")).with(range_or_point("Date", "year", take(7), take(7)));
    let (m0, m1) = (take(12), take(12));
    if take(2) == 1 {
        q = q.with(range_or_point("Date", "month", m0, m1));
    }
    q = match take(2) {
        0 => q.with(Predicate::point("Customer", "nation", take(25))),
        _ => q.with(Predicate::point("Customer", "region", take(5))),
    };
    q.with(Predicate::point("Supplier", "region", take(5))).with(Predicate::point(
        "Part",
        "category",
        take(25),
    ))
}

#[test]
fn ssb_queries_perturb_to_pinned_constants() {
    let schema = schema();
    let mut got = String::new();
    for epsilon in [0.1, 1.0] {
        for q in all_queries() {
            let mut rng = root().derive(&format!("ssb/{}/{epsilon}", q.name));
            let noisy =
                perturb_query(&schema, &q, epsilon, &PmConfig::default(), &mut rng).unwrap();
            writeln!(
                got,
                "{} ε={epsilon}: {} | {}",
                q.name,
                constants(&noisy),
                next_bits(&mut rng)
            )
            .unwrap();
        }
    }
    assert_eq!(got, SSB_GOLDEN, "actual:\n{got}");
}

const SSB_GOLDEN: &str = "\
    Qc1 ε=0.1: Date.year Point(3) | 3fccb402eeacfa90\n\
    Qc2 ε=0.1: Part.category Point(19), Supplier.region Point(4) | 3fe6159fe0ef3e79\n\
    Qc3 ε=0.1: Customer.region Point(1), Supplier.region Point(0), Date.year Range { lo: 1, hi: 6 } | 3fe852020496c46f\n\
    Qc4 ε=0.1: Customer.region Point(3), Supplier.nation Point(23), Date.year Range { lo: 1, hi: 3 }, Part.mfgr Range { lo: 0, hi: 4 } | 3f99d987b5c5cb00\n\
    Qs2 ε=0.1: Part.category Point(19), Supplier.region Point(0) | 3fcd8ed5b0e57b98\n\
    Qs3 ε=0.1: Customer.region Point(4), Supplier.region Point(1), Date.year Range { lo: 5, hi: 6 } | 3fe9aa412df2c171\n\
    Qs4 ε=0.1: Customer.region Point(0), Supplier.nation Point(2), Date.year Range { lo: 4, hi: 6 }, Part.mfgr Range { lo: 2, hi: 4 } | 3fe18df5bc5adc0c\n\
    Qg2 ε=0.1: Part.category Point(5), Supplier.region Point(4) | 3fecd7d0c07c24e4\n\
    Qg4 ε=0.1: Customer.region Point(2), Supplier.nation Point(4), Date.year Range { lo: 3, hi: 6 }, Part.mfgr Range { lo: 0, hi: 1 } | 3fed09b9cf45c167\n\
    Qc1 ε=1: Date.year Point(5) | 3feb30db5547cf8f\n\
    Qc2 ε=1: Part.category Point(19), Supplier.region Point(2) | 3fd9df8c1eba2a8e\n\
    Qc3 ε=1: Customer.region Point(4), Supplier.region Point(2), Date.year Range { lo: 2, hi: 3 } | 3fd8be6b0c427de6\n\
    Qc4 ε=1: Customer.region Point(1), Supplier.nation Point(0), Date.year Range { lo: 5, hi: 6 }, Part.mfgr Range { lo: 1, hi: 2 } | 3fee424f086c0729\n\
    Qs2 ε=1: Part.category Point(4), Supplier.region Point(4) | 3fc2edfaf6604164\n\
    Qs3 ε=1: Customer.region Point(2), Supplier.region Point(4), Date.year Range { lo: 4, hi: 5 } | 3fecaf87c2a17289\n\
    Qs4 ε=1: Customer.region Point(1), Supplier.nation Point(6), Date.year Range { lo: 1, hi: 5 }, Part.mfgr Range { lo: 1, hi: 4 } | 3fef6bc0d48f2d6e\n\
    Qg2 ε=1: Part.category Point(10), Supplier.region Point(3) | 3fe0c5d3ea3eeb3d\n\
    Qg4 ε=1: Customer.region Point(2), Supplier.nation Point(18), Date.year Range { lo: 0, hi: 1 }, Part.mfgr Range { lo: 1, hi: 2 } | 3fd0733e899e7266\n\
";

#[test]
fn served_queries_perturb_to_pinned_constants() {
    let schema = schema();
    let mut got = String::new();
    let mut digest = FNV_OFFSET;
    for i in 0..64 {
        let q = served_query(i);
        let mut rng = root().derive("served").derive_index(i);
        let noisy = perturb_query(&schema, &q, 0.125, &PmConfig::default(), &mut rng).unwrap();
        let line = format!("{i}: {} | {}\n", constants(&noisy), next_bits(&mut rng));
        digest = fnv1a(digest, line.bytes().map(u64::from));
        got.push_str(&line);
    }
    assert_eq!(digest, SERVED_DIGEST, "digest {digest:#018x} of:\n{got}");
}

const SERVED_DIGEST: u64 = 0x522f_369a_d3bc_5556;

#[test]
fn w1_reconstruction_is_pinned() {
    let schema = schema();
    let blocks = BLOCKS
        .iter()
        .map(|(t, a, d)| WorkloadBlock { table: (*t).into(), attr: (*a).into(), domain: *d })
        .collect();
    let rows = w1()
        .queries
        .iter()
        .map(|q| vec![q.year.clone(), q.cust_region.clone(), q.supp_region.clone()])
        .collect();
    let workload = PredicateWorkload::new(blocks, rows).unwrap();
    let mut rng = root().derive("wd/w1");
    let weighted = wd_reconstruct(&schema, &workload, 1.0, &WdConfig::default(), &mut rng).unwrap();
    let weights = weighted.iter().flat_map(|q| &q.predicates).flat_map(|p| p.weights.iter());
    let digest = fnv1a(FNV_OFFSET, weights.map(|w| w.to_bits()));
    let got = format!("{digest:016x} | {}", next_bits(&mut rng));
    assert_eq!(got, WD_GOLDEN);
}

const WD_GOLDEN: &str = "3cd548e972d773d7 | 3fddb95d211e8932";

#[test]
fn kstar_perturbation_is_pinned() {
    let graph = deezer_like(0.002, 31).unwrap();
    let query = KStarQuery { k: 2, lo: 0, hi: graph.num_nodes() / 2 };
    let mut rng = root().derive("kstar");
    let (count, noisy) = pm_kstar(&graph, &query, 0.5, &mut rng).unwrap();
    let got = format!(
        "n={} [{}, {}] count={count} | {}",
        graph.num_nodes(),
        noisy.lo,
        noisy.hi,
        next_bits(&mut rng)
    );
    assert_eq!(got, KSTAR_GOLDEN);
}

const KSTAR_GOLDEN: &str = "n=288 [131, 164] count=2230 | 3fe4e54dc56af3cb";
