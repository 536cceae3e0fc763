//! What the generated SSB fact table holds, and what it costs to hold it.
//!
//! Two pins on `generate(SF 0.01, seed 2023)`:
//!
//! * a digest of every fact column's values, so a change to how columns
//!   are stored cannot change a single value;
//! * the bytes each fact column stores per row, counted by a global
//!   allocator over a fresh clone of the column (a `Vec` clone allocates
//!   exactly `len · width` bytes, plus the column's name). Keys and
//!   measures sit at their natural width: every fk in 2 B, `quantity` in
//!   1 B, `revenue` and `supplycost` in 2 B — 13 B per fact row.
//!
//! Both checks read the columns only through accessors whose call shape
//! is the same whatever the stored width, so the file also runs against
//! a tree that still stores measures as `i64`.

use dp_starj_repro::engine::{Column, Table};
use dp_starj_repro::noise::rng::{fnv1a, FNV_OFFSET};
use dp_starj_repro::ssb::{generate, SsbConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Borrow;
use std::cell::Cell;

/// `System`, plus a per-thread running total of requested bytes, so tests
/// running on other threads do not disturb a count.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` fails only during thread teardown, when nothing is counted.
    let _ = REQUESTED.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter only does arithmetic on
// a `const`-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` guarantees hold for `System` too.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn fact() -> Table {
    generate(&SsbConfig::at_scale(0.01, 2023)).unwrap().fact().clone()
}

/// Folds a column's values, widened to 64 bits, into `h`.
fn fold<V: Borrow<i64>>(h: u64, values: impl Iterator<Item = V>) -> u64 {
    fnv1a(h, values.map(|v| *v.borrow() as u64))
}

#[test]
fn fact_values_match_the_pinned_digest() {
    let fact = fact();
    let mut h = fnv1a(FNV_OFFSET, [fact.num_rows() as u64]);
    for c in fact.columns() {
        h = fnv1a(h, c.name().bytes().map(u64::from));
        h = if let Some(keys) = c.as_key() {
            fold(h, keys.iter().map(i64::from))
        } else if let Some(values) = c.as_measure() {
            fold(h, values.iter())
        } else {
            fold(h, c.as_codes().unwrap().iter().map(|&v| i64::from(v)))
        };
    }
    assert_eq!(fact.num_rows(), 60_000);
    assert_eq!(h, 2_668_258_264_444_540_391, "fact digest");
}

/// Heap bytes a fresh copy of `column`'s values takes, per row.
fn stored_bytes_per_row(column: &Column) -> usize {
    let before = REQUESTED.with(Cell::get);
    let copy = column.clone();
    let bytes = REQUESTED.with(Cell::get) - before - column.name().len();
    drop(copy);
    assert_eq!(bytes % column.len(), 0, "`{}` stores whole values", column.name());
    bytes / column.len()
}

#[test]
fn fact_columns_store_at_natural_width() {
    let fact = fact();
    let widths: Vec<(&str, usize)> =
        fact.columns().iter().map(|c| (c.name(), stored_bytes_per_row(c))).collect();
    assert_eq!(
        widths,
        [
            ("orderdate", 2),
            ("custkey", 2),
            ("suppkey", 2),
            ("partkey", 2),
            ("quantity", 1),
            ("revenue", 2),
            ("supplycost", 2),
        ]
    );
    assert_eq!(widths.iter().map(|&(_, w)| w).sum::<usize>(), 13, "bytes per fact row");
}
