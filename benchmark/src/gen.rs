//! Seeded workload generator.
//!
//! Every query is one point of a fixed product space — aggregate × Date
//! year range × Date month range × Customer region/nation × Supplier
//! region × Part category — and a seed picks an affine permutation of that
//! space. Two different points always differ in some attribute's constraint
//! (or in the aggregate), so their canonical forms differ: draws `0..SPACE`
//! of one seed never repeat, and "distinct" traffic really misses the
//! answer cache. The served program only ever sees the resulting
//! `StarQuery` values or their rendered SQL.

use starj_engine::{to_sql, Predicate, StarQuery, StarSchema};
use starj_noise::StarRng;

const AGGS: u64 = 2;
const YEARS: u32 = 7;
const MONTHS: u32 = 12;
const YEAR_RANGES: u64 = (YEARS * (YEARS + 1) / 2) as u64;
/// 0 = no month predicate, then every `[lo, hi]` over the 12 months.
const MONTH_CHOICES: u64 = 1 + (MONTHS * (MONTHS + 1) / 2) as u64;
/// 0 = none, 1–5 = region point, 6–30 = nation point.
const CUSTOMER_CHOICES: u64 = 1 + 5 + 25;
/// 0 = none, 1–5 = region point.
const SUPPLIER_CHOICES: u64 = 1 + 5;
/// 0 = none, 1–25 = category point.
const PART_CHOICES: u64 = 1 + 25;

/// Number of distinct queries one seed can draw.
pub const SPACE: u64 =
    AGGS * YEAR_RANGES * MONTH_CHOICES * CUSTOMER_CHOICES * SUPPLIER_CHOICES * PART_CHOICES;

/// Draw indices are handed out in blocks of this size, one block per
/// consumer (warm-up, client thread, layer replay, …), so no two consumers
/// of one run ever see the same query.
pub const BLOCK: u64 = 1 << 20;

/// A seed's permutation of the query space.
#[derive(Debug, Clone, Copy)]
pub struct Generator {
    mul: u64,
    add: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The `r`-th inclusive range `[lo, hi]` over `0..n`, in `(lo, hi)` order.
fn nth_range(mut r: u64, n: u32) -> (u32, u32) {
    for lo in 0..n {
        let width = u64::from(n - lo);
        if r < width {
            return (lo, lo + r as u32);
        }
        r -= width;
    }
    unreachable!("range index below n(n+1)/2")
}

fn range_or_point(table: &str, attr: &str, (lo, hi): (u32, u32)) -> Predicate {
    if lo == hi {
        Predicate::point(table, attr, lo)
    } else {
        Predicate::range(table, attr, lo, hi)
    }
}

impl Generator {
    /// The permutation for `seed`.
    pub fn new(seed: u64) -> Generator {
        let mut rng = StarRng::from_seed(seed).derive("benchmark/gen");
        let mul = loop {
            let candidate = 1 + rng.below(SPACE - 1);
            if gcd(candidate, SPACE) == 1 {
                break candidate;
            }
        };
        Generator { mul, add: rng.below(SPACE) }
    }

    /// The `k`-th draw of this seed. Distinct `k < SPACE` give queries with
    /// distinct canonical forms.
    pub fn query(&self, k: u64) -> StarQuery {
        assert!(k < SPACE, "draw {k} is past the {SPACE}-query space");
        let mut point = (self.mul * k + self.add) % SPACE;
        let mut take = |radix: u64| {
            let digit = point % radix;
            point /= radix;
            digit
        };
        let name = format!("g{k}");
        let mut q = match take(AGGS) {
            0 => StarQuery::count(name),
            _ => StarQuery::sum(name, "revenue"),
        };
        q = q.with(range_or_point("Date", "year", nth_range(take(YEAR_RANGES), YEARS)));
        match take(MONTH_CHOICES) {
            0 => {}
            r => q = q.with(range_or_point("Date", "month", nth_range(r - 1, MONTHS))),
        }
        match take(CUSTOMER_CHOICES) {
            0 => {}
            c @ 1..=5 => q = q.with(Predicate::point("Customer", "region", c as u32 - 1)),
            c => q = q.with(Predicate::point("Customer", "nation", c as u32 - 6)),
        }
        match take(SUPPLIER_CHOICES) {
            0 => {}
            s => q = q.with(Predicate::point("Supplier", "region", s as u32 - 1)),
        }
        match take(PART_CHOICES) {
            0 => {}
            p => q = q.with(Predicate::point("Part", "category", p as u32 - 1)),
        }
        q
    }

    /// Draws `block * BLOCK + i` for `i` in `0..count`.
    pub fn queries(&self, block: u64, count: usize) -> Vec<StarQuery> {
        assert!(count as u64 <= BLOCK, "{count} draws overflow one block");
        (0..count as u64).map(|i| self.query(block * BLOCK + i)).collect()
    }

    /// [`Generator::queries`] rendered to the SQL the gate parses.
    pub fn sql(&self, schema: &StarSchema, block: u64, count: usize) -> Vec<String> {
        self.queries(block, count).iter().map(|q| to_sql(schema, q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_engine::canonicalize;
    use starj_ssb::{generate, SsbConfig};
    use std::collections::HashSet;

    fn sql_list(seed: u64, n: usize) -> Vec<String> {
        let schema = generate(&SsbConfig::at_scale(0.001, 1)).expect("tiny SSB instance");
        Generator::new(seed).sql(&schema, 0, n)
    }

    #[test]
    fn same_seed_renders_byte_identical_sql() {
        assert_eq!(sql_list(2023, 500), sql_list(2023, 500));
    }

    #[test]
    fn different_seeds_render_different_sql() {
        assert_ne!(sql_list(2023, 500), sql_list(2024, 500));
    }

    #[test]
    fn hundred_thousand_draws_have_distinct_canonical_forms() {
        let gen = Generator::new(7);
        let mut seen = HashSet::new();
        for k in 0..100_000 {
            let canon = canonicalize(&gen.query(k));
            assert!(!canon.unsatisfiable, "draw {k} is unsatisfiable");
            assert!(seen.insert(canon), "draw {k} repeats an earlier canonical form");
        }
    }

    #[test]
    fn blocks_do_not_overlap() {
        let gen = Generator::new(11);
        let a: HashSet<_> = gen.queries(0, 2_000).iter().map(canonicalize).collect();
        assert!(gen.queries(1, 2_000).iter().all(|q| !a.contains(&canonicalize(q))));
    }

    #[test]
    fn ranges_enumerate_every_pair_once() {
        let all: HashSet<(u32, u32)> = (0..YEAR_RANGES).map(|r| nth_range(r, YEARS)).collect();
        assert_eq!(all.len() as u64, YEAR_RANGES);
        assert!(all.iter().all(|&(lo, hi)| lo <= hi && hi < YEARS));
    }

    #[test]
    fn every_draw_parses_back_through_the_gate() {
        let schema = generate(&SsbConfig::at_scale(0.001, 1)).expect("tiny SSB instance");
        let gen = Generator::new(3);
        for q in gen.queries(0, 2_000) {
            let parsed = starj_gate::parse_canonical(&schema, &to_sql(&schema, &q))
                .expect("generated SQL is inside the gate's dialect");
            assert_eq!(parsed, canonicalize(&q));
        }
    }
}
