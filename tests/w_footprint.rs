//! What one W-histogram cell costs in memory.
//!
//! A W histogram's cells are integers at their natural width: a COUNT cell
//! starts at one byte and a SUM cell at its measure's stored width, and
//! either widens only when a sum outgrows it. This pins that on the SSB
//! SF 0.01 instance for the largest shape the serving benchmark caches —
//! year × month × customer region × supplier region × part category,
//! 52 500 cells: COUNT must take at most 1 B a cell and `SUM(revenue)` at
//! most 4 B, plus a fixed header (axis names, aggregate) of at most 1 KiB.
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

#[test]
fn w_cells_take_their_natural_width() {
    let schema = generate(&SsbConfig::at_scale(0.01, 2023)).unwrap();
    let axes: Vec<(String, String)> = [
        ("Date", "year"),
        ("Date", "month"),
        ("Customer", "region"),
        ("Supplier", "region"),
        ("Part", "category"),
    ]
    .iter()
    .map(|&(t, a)| (t.to_string(), a.to_string()))
    .collect();
    for (agg, bound) in [(Agg::Count, 1), (Agg::Sum("revenue".into()), 4)] {
        let before = LIVE.load(Ordering::Relaxed);
        let w = WeightHistogram::build(&schema, &axes, &agg, ScanOptions::default()).unwrap();
        let retained = LIVE.load(Ordering::Relaxed) - before;
        let cells = w.space() as i64;
        assert_eq!(cells, 52_500);
        println!(
            "W {agg:?}: {:.3} B per cell ({retained} B retained for {cells} cells of {} B)",
            retained as f64 / cells as f64,
            w.cell_width_bytes()
        );
        assert!(
            retained <= bound * cells + HEADER_BYTES,
            "{agg:?}: {retained} B retained exceeds {bound} B x {cells} cells + {HEADER_BYTES} B"
        );
        drop(w);
    }
}
