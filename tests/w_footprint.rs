//! What one W-histogram cell costs in memory.
//!
//! A W histogram's cells are integers at their natural width: a COUNT cell
//! starts at one byte and a SUM cell at its measure's stored width, and
//! either widens only when a sum outgrows it. This pins that on the SSB
//! SF 0.01 instance for two shapes of the serving benchmark: COUNT must
//! take at most 1 B a cell and `SUM(revenue)` at most 4 B, plus a fixed
//! header (axis names, aggregate) of at most 1 KiB.
//!
//! * year × month × customer region × supplier region × part category,
//!   52 500 cells — the largest shape the service caches, built once per
//!   aggregate;
//! * the same with customer nation, 262 500 cells — past the cache's cap,
//!   so the service builds it transiently, once for COUNT and
//!   `SUM(revenue)` together: the most one transient W of that shape
//!   costs (the service prunes its axes to the codes a batch passes).
//!
//! A counting global allocator tracks live heap bytes the way glibc's
//! `malloc` lays them out (an 8-byte chunk header, 16-byte granules, a
//! 32-byte minimum chunk), so the figure is what a cached W adds to RSS.
//! Run it alone, in release, to print the figures:
//!
//! ```text
//! cargo test --release --offline --test w_footprint -- --nocapture
//! ```
//!
//! Linux-only: the chunk model is glibc's.
#![cfg(target_os = "linux")]

use dp_starj_repro::engine::{Agg, ScanOptions, WeightHistogram};
use dp_starj_repro::ssb::{generate, SsbConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

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

/// Bytes a W may hold beyond its cells: the axis names and the aggregate.
const HEADER_BYTES: i64 = 1024;

/// The shape's axes: year × month × customer `customer` × supplier region
/// × part category.
fn axes(customer: &str) -> Vec<(String, String)> {
    let names = [
        ("Date", "year"),
        ("Date", "month"),
        ("Customer", customer),
        ("Supplier", "region"),
        ("Part", "category"),
    ];
    names.iter().map(|&(t, a)| (t.to_string(), a.to_string())).collect()
}

/// Checks each aggregate's cell width against its bound, and the bytes a
/// build left live against the bounds' sum a cell plus the header.
fn check(w: &WeightHistogram, retained: i64, bounds: &[(Agg, i64)]) {
    let cells = w.space() as i64;
    for (agg, bound) in bounds {
        let width = w.cell_width_bytes(agg).expect("the build accumulates it");
        println!("W {cells} cells, {agg:?}: {width} B a cell");
        assert!(width as i64 <= *bound, "{agg:?}: {width} B cells exceed {bound} B");
    }
    let bound: i64 = bounds.iter().map(|(_, b)| b).sum();
    println!("  {:.3} B per cell ({retained} B retained)", retained as f64 / cells as f64);
    assert!(
        retained <= bound * cells + HEADER_BYTES,
        "{retained} B retained exceeds {bound} B x {cells} cells + {HEADER_BYTES} B"
    );
}

/// One test, so no other test's allocations land between a build's
/// before and after counts.
#[test]
fn w_cells_take_their_natural_width() {
    let schema = generate(&SsbConfig::at_scale(0.01, 2023)).unwrap();
    let (count, revenue) = (Agg::Count, Agg::Sum("revenue".into()));
    let build = |axes: &[(String, String)], aggs: &[Agg]| {
        let before = LIVE.load(Ordering::Relaxed);
        let w = WeightHistogram::build(&schema, axes, aggs, ScanOptions::default()).unwrap();
        (LIVE.load(Ordering::Relaxed) - before, w)
    };
    for (agg, bound) in [(count.clone(), 1), (revenue.clone(), 4)] {
        let (retained, w) = build(&axes("region"), std::slice::from_ref(&agg));
        assert_eq!(w.space(), 52_500);
        check(&w, retained, &[(agg, bound)]);
    }
    let (retained, w) = build(&axes("nation"), &[count.clone(), revenue.clone()]);
    assert_eq!(w.space(), 262_500);
    check(&w, retained, &[(count, 1), (revenue, 4)]);
}
