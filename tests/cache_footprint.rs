//! What one answer-cache entry costs in memory.
//!
//! A counting global allocator tracks live heap bytes the way glibc's
//! `malloc` lays them out (an 8-byte chunk header, 16-byte granules, a
//! 32-byte minimum chunk), so the figure is what the entries add to RSS
//! rather than what they request. One service serves 16 000 distinct
//! scalar PM answers with the cache on; an identical twin serves the same
//! stream with it off; the difference of their retained bytes, divided by
//! the entry count, is the per-entry cost. Run it alone, in release, to
//! print the figure:
//!
//! ```text
//! cargo test --release --offline --test cache_footprint -- --nocapture
//! ```
//!
//! Linux-only: the chunk model is glibc's.
#![cfg(target_os = "linux")]

use dp_starj_repro::engine::{Column, Dimension, Domain, Predicate, StarQuery, StarSchema, Table};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::service::{Service, ServiceConfig, TelemetryConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// `System`, plus a running total of live chunk bytes.
struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);

/// The chunk glibc's `malloc` carves for a `size`-byte request.
fn chunk(size: usize) -> i64 {
    ((size + 8 + 15) & !15).max(32) as i64
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter only does arithmetic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` guarantees hold for `System` too.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(chunk(layout.size()), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (every allocation here does)
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(chunk(layout.size()), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller guarantees `new_size`.
        let grown = unsafe { System.realloc(ptr, layout, new_size) };
        if !grown.is_null() {
            LIVE.fetch_add(chunk(new_size) - chunk(layout.size()), Ordering::Relaxed);
        }
        grown
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ENTRIES: usize = 16_000;
const BOUND_BYTES_PER_ENTRY: f64 = 200.0;

fn schema() -> Arc<StarSchema> {
    let rows = 256u32;
    let part = Table::new(
        "Part",
        vec![
            Column::key("pk", (0..rows).collect()),
            Column::attr("brand", Domain::numeric("brand", 256).unwrap(), (0..rows).collect()),
            Column::attr(
                "category",
                Domain::numeric("category", 16).unwrap(),
                (0..rows).map(|r| r % 16).collect(),
            ),
        ],
    )
    .unwrap();
    let facts = 2048u32;
    let fact = Table::new(
        "Lineorder",
        vec![
            Column::key("partkey", (0..facts).map(|r| (r * 7) % rows).collect()),
            Column::measure("revenue", (0..facts).map(|r| i64::from(r % 97)).collect()),
        ],
    )
    .unwrap();
    Arc::new(StarSchema::new(fact, vec![Dimension::new(part, "pk", "partkey")]).unwrap())
}

/// The `i`-th of `ENTRIES` distinct, satisfiable scalar queries, labelled
/// the way the wire gate labels what it submits.
fn query(i: usize) -> StarQuery {
    let (category, lo, width) = (i % 16, (i / 16) % 40, (i / 640) % 25);
    StarQuery::sum("sql", "revenue")
        .with(Predicate::point("Part", "category", category as u32))
        .with(Predicate::range("Part", "brand", lo as u32, (lo + width) as u32))
}

/// Live heap bytes a service retains after answering every query once.
fn retained_bytes(cache_answers: bool) -> (i64, usize) {
    let service = Service::new(
        schema(),
        ServiceConfig {
            cache_answers,
            telemetry: TelemetryConfig::disabled(),
            ..ServiceConfig::default()
        },
    );
    service.register_tenant("tenant", PrivacyBudget::pure(1e9).unwrap()).unwrap();
    // One warm-up answer outside the window, so first-use allocations
    // (name tables, thread-locals, hash seeds) are not billed per entry.
    service.pm_answer("tenant", &StarQuery::count("warm"), 0.01).unwrap();
    let before = LIVE.load(Ordering::Relaxed);
    for i in 0..ENTRIES {
        service.pm_answer("tenant", &query(i), 0.01).unwrap();
    }
    let after = LIVE.load(Ordering::Relaxed);
    (after - before, service.cached_answers())
}

#[test]
fn a_cached_scalar_pm_answer_costs_at_most_200_bytes() {
    let (cached, entries) = retained_bytes(true);
    let (uncached, none) = retained_bytes(false);
    assert_eq!(entries, ENTRIES + 1, "every distinct answer is cached");
    assert_eq!(none, 0);
    let per_entry = (cached - uncached) as f64 / ENTRIES as f64;
    println!(
        "answer cache: {per_entry:.1} B per scalar PM entry \
         ({cached} B retained with the cache, {uncached} B without, {ENTRIES} entries)"
    );
    assert!(
        per_entry <= BOUND_BYTES_PER_ENTRY,
        "{per_entry:.1} B per entry exceeds {BOUND_BYTES_PER_ENTRY} B"
    );
}
