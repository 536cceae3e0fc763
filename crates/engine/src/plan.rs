//! Compiled scan plans: planning separated from execution.
//!
//! The legacy executor resolved foreign keys, predicate bitmaps, group
//! lookups and measure accessors *inside* the scan, then dispatched a
//! per-row closure over `Option<Vec<bool>>` bitmaps and cloned a `Vec<u32>`
//! group key per qualifying row. [`ScanPlan`] does all of that resolution
//! exactly once, ahead of time, and compiles a batch of queries into flat
//! per-query programs the fact-phase kernel can run without any name
//! lookups, `Option` tests, or allocations on the hot path:
//!
//! * **Packed dimension masks.** Binary predicates become per-dimension
//!   [`BitSet`]s (snowflake predicates folded into their parent, as before).
//! * **Fused multi-query scans.** A plan holds any number of binary star
//!   queries and answers all of them in **one** pass over the fact table
//!   with per-query accumulators. Weighted queries (paper Eq. 11) are not
//!   compiled here: [`crate::whist`] answers them from one joint histogram
//!   `W`, or one plain row loop when no `W` fits.
//! * **Chunked columnar inner loops.** The fact table is processed in
//!   4096-row chunks; per chunk, each query's qualifying rows are
//!   computed as 64 packed `u64` mask words (gather + AND per filtered
//!   dimension), then drained with popcount / trailing-zeros iteration
//!   instead of a per-row branch chain.
//! * **Dense group accumulation.** When the cross-product of group-by
//!   domains is small (≤ [`DENSE_GROUP_CAP`]), groups accumulate into a
//!   flat `Vec<f64>` indexed by the row-major flattening of the group codes
//!   — no `BTreeMap` lookups or key clones per row. Larger group spaces
//!   fall back to the map.
//! * **Parallel sharding.** The fact table splits into contiguous,
//!   chunk-aligned row shards, each with its own partial accumulators,
//!   merged in shard order. [`ScanOptions::threads`] = 0 (the default)
//!   lets the kernel size the split: one shard per available core, but
//!   never a shard under `MIN_SHARD_ROWS` (2²⁰) rows — so small tables
//!   stay on the calling thread — and only for plans whose accumulators are
//!   integer-valued and bounded by `fact_rows × max|row weight| < 2⁵³`
//!   (exact under re-association, hence bit-identical for any split);
//!   `threads ≥ 1` forces that many shards. Shard 0 runs on
//!   the calling thread and the rest under `std::thread::scope` (std-only;
//!   a scoped spawn + join costs ~16 µs against a ≥ 1 M-row shard's
//!   milliseconds, so there is no persistent pool to manage).
//!
//! * **SIMD-width chunk interior.** Every gather reads its chunk of fk
//!   codes straight from the fact column. Per-dimension pass masks are
//!   classified at plan time into probe fast paths (≤ 64 dimension rows →
//!   the whole mask in one register word, ≤ 2^16 rows → a byte-granular
//!   LUT, larger → the packed bitset) drained by 8-wide unrolled gather
//!   loops (the `stage` module). Filters are ordered by selectivity (exact
//!   fact pass fraction, ties by dimension index), so the first and most
//!   selective one runs dense and every later one meets mostly empty or
//!   sparse mask words: per word it skips an empty one, probes only the
//!   surviving lanes of one with ≤ 8 set bits, and gathers all 64 lanes of
//!   a denser one. A scan is thus one dense pass plus a few probes per
//!   surviving row.
//! * **Dimension masks from domain tables.** Each predicate is evaluated
//!   once per code of its attribute's domain into a `{0, 1}` byte table,
//!   which the byte-LUT gather ANDs into the dimension mask 64 rows at a
//!   time (over the sub-dimension link keys for a snowflake predicate).
//!
//! The plan makes two shape decisions from the cost model's exact fk
//! degrees ([`crate::cost`]): filter order and cross-query mask sharing.
//!
//! Accumulation order within a shard is identical to the legacy
//! row-at-a-time executor ([`crate::exec::reference`]), so results are
//! bit-identical to it, which the equivalence property tests in
//! `tests/prop_scan_kernel.rs` pin down. The chunk interior
//! preserves that guarantee construction-by-construction: mask words are
//! the same AND conjunction (reordering or sharing filters cannot change a
//! bitwise AND), and every drain visits rows in the same ascending order.

use crate::bitset::BitSet;
use crate::column::{Keys, Measures};
use crate::cost::{cost_model_for, CostModel};
use crate::error::EngineError;
use crate::predicate::{Constraint, Predicate};
use crate::query::{Agg, QueryResult, StarQuery};
use crate::schema::StarSchema;
use crate::stage::{
    gather_word_bytes, gather_word_small, gather_word_wide, probe_set_lanes, with_keys,
    with_measures, Key, CHUNK_ROWS, CHUNK_WORDS,
};
use starj_telemetry::{kernel_counters, Json, KernelCounters};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Largest dimension row count answered through the single-register-word
/// probe ([`Probe::Word`]): the whole mask fits one `u64`.
const WORD_PROBE_CAP: usize = 64;
/// Largest dimension row count answered through the byte-LUT probe
/// ([`Probe::Bytes`]); larger dimensions gather from the packed bitset.
const BYTE_PROBE_CAP: usize = 1 << 16;

/// Most surviving rows a mask word may hold for a later filter to probe
/// only those lanes ([`Filter::and_chunk`]); denser words take the 8-wide
/// gather over all 64. Thresholds 4, 8 and 16 time within noise of each
/// other on generator queries at SF 0.005, 0.1 and 1.
const SPARSE_WORD_BITS: u32 = 8;

/// Largest dense accumulator (group-by cross-product or weighted joint code
/// space) answered through flat vectors; larger spaces fall back to sparse
/// maps / the weighted row loop.
pub const DENSE_GROUP_CAP: usize = 1 << 16;

/// Fewest fact rows per shard when the kernel sizes the split itself
/// ([`ScanOptions::threads`] = 0): below this a shard's work no longer
/// dwarfs its spawn and merge, and the table is likely cache-resident
/// anyway (SF 0.1's 600 k rows scan on one thread, SF 1's 6 M on all cores).
const MIN_SHARD_ROWS: usize = 1 << 20;

/// Counts completed fact-table scans process-wide (one per
/// [`ScanPlan::execute`] call, weighted batch or histogram build,
/// regardless of how many queries it fused or how many threads sharded it). Benchmarks and the service use deltas of
/// this counter to *prove* fusion — e.g. that an `l`-query workload really
/// cost one scan.
static FACT_SCANS: AtomicU64 = AtomicU64::new(0);

/// Total fact-table scans completed by this process so far.
pub fn fact_scan_count() -> u64 {
    FACT_SCANS.load(Ordering::Relaxed)
}

/// Counts one completed fact-table scan.
pub(crate) fn fact_scans_add() {
    FACT_SCANS.fetch_add(1, Ordering::Relaxed);
}

/// The fact scans one call of `f` costs: the fewest over a few calls, since
/// tests running alongside can only add to the process-wide count.
#[cfg(test)]
pub(crate) fn scans_of<T>(mut f: impl FnMut() -> T) -> u64 {
    (0..8)
        .map(|_| {
            let before = fact_scan_count();
            f();
            fact_scan_count() - before
        })
        .min()
        .expect("at least one call")
}

/// Execution options for a compiled scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanOptions {
    /// Shards of the fact scan. `0` (the default) lets the kernel decide:
    /// one shard per available core, none smaller than ~1 M rows, and a
    /// single shard for any scan whose sums depend on the split — integer
    /// sums that `fact_rows × max|row weight|` lets reach 2⁵³, or the
    /// real-weighted row loop of a weighted batch no histogram fits. `1`
    /// runs on the calling thread; `n > 1` forces `n` contiguous row
    /// ranges merged in deterministic shard order.
    pub threads: usize,
}

impl ScanOptions {
    /// Options scanning with exactly `threads` shards (`0` = kernel-sized,
    /// the default).
    pub fn parallel(threads: usize) -> Self {
        ScanOptions { threads }
    }
}

/// Row-weight accessor for an aggregate, resolved once at plan time. The
/// measures stay at their stored width: the chunk drains match it once per
/// chunk ([`with_measures!`]), per-row readers go through [`RowWeight::at`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowWeight<'a> {
    Ones,
    Measure(Measures<'a>),
    Diff(Measures<'a>, Measures<'a>),
}

impl<'a> RowWeight<'a> {
    pub(crate) fn resolve(schema: &'a StarSchema, agg: &Agg) -> Result<Self, EngineError> {
        Ok(match agg {
            Agg::Count => RowWeight::Ones,
            Agg::Sum(m) => RowWeight::Measure(schema.fact().measure(m)?),
            Agg::SumDiff(a, b) => {
                RowWeight::Diff(schema.fact().measure(a)?, schema.fact().measure(b)?)
            }
        })
    }

    /// Largest `|at(row)|` the aggregate can take over the fact table, from
    /// the measure columns' build-time maxima.
    pub(crate) fn max_abs(schema: &StarSchema, agg: &Agg) -> Result<u64, EngineError> {
        let of = |m: &str| Ok(schema.fact().column(m)?.measure_abs_max());
        Ok(match agg {
            Agg::Count => 1,
            Agg::Sum(m) => of(m)?,
            Agg::SumDiff(a, b) => of(a)?.saturating_add(of(b)?),
        })
    }

    #[inline]
    pub(crate) fn at(&self, row: usize) -> f64 {
        match self {
            RowWeight::Ones => 1.0,
            RowWeight::Measure(m) => m.get(row) as f64,
            RowWeight::Diff(a, b) => (a.get(row) - b.get(row)) as f64,
        }
    }

    /// Bytes of stored measure the aggregate reads per row: 0 for COUNT,
    /// the wider column for a difference.
    pub(crate) fn width_bytes(&self) -> usize {
        match self {
            RowWeight::Ones => 0,
            RowWeight::Measure(m) => m.width_bytes(),
            RowWeight::Diff(a, b) => a.width_bytes().max(b.width_bytes()),
        }
    }

    fn is_ones(&self) -> bool {
        matches!(self, RowWeight::Ones)
    }
}

/// Group-by program: per-attribute code lookups plus the dense flattening
/// geometry when the group space fits [`DENSE_GROUP_CAP`].
#[derive(Debug, Clone)]
struct GroupPlan<'a> {
    /// Per group attribute: (dimension index, codes indexed by pk).
    lookups: Vec<(usize, &'a [u32])>,
    /// Domain size of each group attribute.
    sizes: Vec<u32>,
    /// Product of `sizes` when ≤ [`DENSE_GROUP_CAP`]; `None` → sparse maps.
    dense_space: Option<usize>,
}

impl<'a> GroupPlan<'a> {
    fn resolve(
        schema: &'a StarSchema,
        group_by: &[crate::query::GroupAttr],
    ) -> Result<Self, EngineError> {
        let mut lookups = Vec::with_capacity(group_by.len());
        let mut sizes = Vec::with_capacity(group_by.len());
        for g in group_by {
            let di = schema.dim_index(&g.table)?;
            let dim = &schema.dims()[di];
            lookups.push((di, dim.table.codes(&g.attr)?));
            sizes.push(dim.table.domain(&g.attr)?.size());
        }
        let mut space = 1usize;
        let mut dense = true;
        for &s in &sizes {
            match space.checked_mul(s as usize) {
                Some(p) if p <= DENSE_GROUP_CAP => space = p,
                _ => {
                    dense = false;
                    break;
                }
            }
        }
        Ok(GroupPlan { lookups, sizes, dense_space: dense.then_some(space) })
    }

    /// Row-major flat index of a fact row's group key.
    #[inline]
    fn flat_index(&self, fks: &[Keys], row: usize) -> usize {
        let mut flat = 0usize;
        for ((di, codes), &size) in self.lookups.iter().zip(&self.sizes) {
            flat = flat * size as usize + codes[fks[*di].get(row) as usize] as usize;
        }
        flat
    }

    /// The group key of a fact row (sparse path).
    #[inline]
    fn key(&self, fks: &[Keys], row: usize) -> Vec<u32> {
        self.lookups.iter().map(|(di, codes)| codes[fks[*di].get(row) as usize]).collect()
    }

    /// Decodes a flat index back into the group key.
    fn decode(&self, mut flat: usize) -> Vec<u32> {
        let mut key = vec![0u32; self.sizes.len()];
        for (slot, &size) in key.iter_mut().zip(&self.sizes).rev() {
            *slot = (flat % size as usize) as u32;
            flat /= size as usize;
        }
        key
    }
}

/// The plan-time probe classification of one dimension pass mask: how the
/// chunk kernel extracts a fact row's pass bit from its fk code.
#[derive(Debug, Clone)]
enum Probe {
    /// Dimension of ≤ [`WORD_PROBE_CAP`] rows: the whole pass mask lives in
    /// one register word, so the probe is a branch-free `(word >> code) & 1`.
    Word(u64),
    /// Dimension of ≤ [`BYTE_PROBE_CAP`] rows: byte-granular `{0, 1}`
    /// lookup table, one byte load per probe.
    Bytes(Box<[u8]>),
    /// Large dimension: gather from the packed bitset (word index + shift).
    Wide,
}

/// One compiled binary filter: the dimension, its packed pass mask, the
/// probe fast path, and the plan-time selectivity signal.
#[derive(Debug, Clone)]
struct Filter {
    dim: usize,
    /// The packed pass mask over dimension rows — always kept (the `Wide`
    /// probe reads it; selectivity and mask dedup come from it).
    bits: BitSet,
    probe: Probe,
    /// Exact fact rows the mask admits (the cost model's fk-degree sum),
    /// and with the mask the dedup key.
    pass: usize,
    /// Fact pass fraction, `pass / fact_rows`.
    est: f64,
}

impl Filter {
    /// Builds a filter and classifies its probe by the dimension's row
    /// count. Selectivity comes from the cost model's fk degrees — no pass
    /// over the fact column.
    fn build(dim: usize, bits: BitSet, model: &CostModel) -> Self {
        let pass = model.pass_count(dim, &bits);
        let est = if model.fact_rows() == 0 { 0.0 } else { pass as f64 / model.fact_rows() as f64 };
        let k = kernel_counters();
        let probe = if bits.len() <= WORD_PROBE_CAP {
            KernelCounters::add(&k.probe_word, 1);
            Probe::Word(bits.words().first().copied().unwrap_or(0))
        } else if bits.len() <= BYTE_PROBE_CAP {
            KernelCounters::add(&k.probe_bytes, 1);
            Probe::Bytes(bits.to_byte_lut())
        } else {
            KernelCounters::add(&k.probe_bitset, 1);
            Probe::Wide
        };
        Filter { dim, bits, probe, pass, est }
    }

    /// Gathers one mask word (≤ 64 fk codes) through the probe fast path.
    /// The match costs one predicted branch per 64 rows; each arm is a
    /// monomorphic 8-wide unrolled loop.
    #[inline]
    fn gather_word<K: Key>(&self, lane: &[K]) -> u64 {
        match &self.probe {
            Probe::Word(table) => gather_word_small(*table, lane),
            Probe::Bytes(lut) => gather_word_bytes(lut, lane),
            Probe::Wide => gather_word_wide(&self.bits, lane),
        }
    }

    /// Gathers a chunk's fk codes into its pass-mask words (one per 64
    /// rows) — the shared-mask cache fill.
    fn gather_chunk<K: Key>(&self, fk: &[K], words: &mut [u64]) {
        for (word, lane) in words.iter_mut().zip(fk.chunks(64)) {
            *word = self.gather_word(lane);
        }
    }

    /// Keeps the set lanes of `word` that pass, probing only those lanes
    /// through the probe fast path: one match per word, then a monomorphic
    /// set-bit walk.
    #[inline]
    fn probe_word<K: Key>(&self, word: u64, lane: &[K]) -> u64 {
        match &self.probe {
            Probe::Word(table) => probe_set_lanes(word, lane, |k| (table >> k) & 1),
            Probe::Bytes(lut) => probe_set_lanes(word, lane, |k| u64::from(lut[k])),
            Probe::Wide => probe_set_lanes(word, lane, |k| self.bits.get_bit(k)),
        }
    }

    /// ANDs a chunk's pass mask into `mask`, choosing per word from its
    /// popcount: an empty word is skipped, a word with at most
    /// [`SPARSE_WORD_BITS`] surviving rows probes only those lanes, and a
    /// denser one takes the 8-wide gather. Every choice yields
    /// `word & gather_word(lane)`.
    fn and_chunk<K: Key>(&self, fk: &[K], mask: &mut [u64]) {
        for (word, lane) in mask.iter_mut().zip(fk.chunks(64)) {
            match word.count_ones() {
                0 => {}
                n if n <= SPARSE_WORD_BITS => *word = self.probe_word(*word, lane),
                _ => *word &= self.gather_word(lane),
            }
        }
    }

    /// True iff `other` tests the same dimension with the same pass mask —
    /// the dedup key of the cross-query shared-mask program.
    fn same_mask(&self, other: &Filter) -> bool {
        self.dim == other.dim && self.pass == other.pass && self.bits == other.bits
    }
}

/// The cross-query mask-sharing program of one fused scan: concurrent
/// dashboards overlap heavily (the same year range or region predicate
/// appears in many queries of a batch), so a filter whose `(dimension,
/// pass mask)` is used by ≥ 2 fused queries, and whose private gathers
/// the cost model expects to cost more than one shared pass, is gathered
/// **once per chunk** into a shared mask cache and ANDed word-wise into
/// each user's mask — turning `N` identical gather passes into one pass
/// plus `N` register ANDs. Query-private filters keep the per-query AND
/// with its per-word choice ([`Filter::and_chunk`]). Pure AND reordering:
/// the resulting mask is bit-identical for any sharing split.
#[derive(Debug)]
struct MaskProgram<'p> {
    /// Distinct filters promoted to the shared cache, first-use order.
    shared: Vec<&'p Filter>,
    /// Per query: indices into `shared`, plus the query-private filters
    /// (in the query's selectivity order).
    per_query: Vec<(Vec<usize>, Vec<&'p Filter>)>,
}

/// Orders filters by selectivity — ascending fact pass fraction, ties
/// broken by dimension index — so the most selective mask is ANDed first
/// and later filters skip empty words and probe sparse ones lane by lane
/// as early as possible. The fraction is *fact-weighted* (a better signal
/// than a dimension-row popcount ratio: a mask passing few dimension rows
/// can still admit most fact rows under a skewed fk distribution). Pure
/// reordering of a bitwise AND conjunction: the resulting mask is
/// identical for any order.
fn selectivity_order(filters: &mut [Filter]) {
    filters.sort_by(|a, b| {
        a.est.partial_cmp(&b.est).unwrap_or(std::cmp::Ordering::Equal).then(a.dim.cmp(&b.dim))
    });
}

/// One compiled query inside a plan: packed binary filters, row-weight
/// accessor, and the group program.
#[derive(Debug, Clone)]
struct PlannedQuery<'a> {
    /// Binary filters, ordered by selectivity (most selective
    /// first — see [`selectivity_order`]).
    filters: Vec<Filter>,
    row_weight: RowWeight<'a>,
    grouping: Option<GroupPlan<'a>>,
}

impl PlannedQuery<'_> {
    /// True iff the chunk kernel can answer this query with popcounts alone.
    fn is_pure_count(&self) -> bool {
        self.row_weight.is_ones() && self.grouping.is_none()
    }
}

/// Per-query partial accumulator (also the per-shard partial in parallel
/// scans).
#[derive(Debug)]
enum Acc {
    Scalar(f64),
    Dense { sums: Vec<f64>, touched: BitSet },
    Sparse(BTreeMap<Vec<u32>, f64>),
}

impl Acc {
    fn merge(&mut self, other: Acc) {
        match (self, other) {
            (Acc::Scalar(a), Acc::Scalar(b)) => *a += b,
            (Acc::Dense { sums, touched }, Acc::Dense { sums: bs, touched: bt }) => {
                for i in bt.iter_ones() {
                    sums[i] += bs[i];
                    touched.set(i, true);
                }
            }
            (Acc::Sparse(a), Acc::Sparse(b)) => {
                for (k, v) in b {
                    *a.entry(k).or_insert(0.0) += v;
                }
            }
            _ => unreachable!("shard accumulators share one shape per query"),
        }
    }
}

/// A compiled, executable scan over one schema: resolved foreign-key
/// arrays plus any number of compiled queries, answered together in a
/// single fused fact scan by [`ScanPlan::execute`].
#[derive(Debug, Clone)]
pub struct ScanPlan<'a> {
    schema: &'a StarSchema,
    /// Per-dimension fact foreign-key columns, resolved once.
    fks: Vec<Keys<'a>>,
    fact_rows: usize,
    queries: Vec<PlannedQuery<'a>>,
    /// Largest `|row weight|` over the compiled queries' aggregates — with
    /// `fact_rows`, the bound on every partial sum the scan can form.
    max_row_weight: u64,
    /// The options the plan was compiled under; `describe` reports the
    /// shard count they give.
    opts: ScanOptions,
    /// The exact statistics steering plan-shape decisions.
    model: Arc<CostModel>,
}

impl<'a> ScanPlan<'a> {
    /// An empty plan over `schema` under the default options.
    pub fn new(schema: &'a StarSchema) -> Result<Self, EngineError> {
        ScanPlan::with_options(schema, ScanOptions::default())
    }

    /// An empty plan compiled under explicit options (resolves the
    /// foreign-key arrays). The schema's cost model (exact fk-degree
    /// statistics built on the instance's first use,
    /// [`crate::cost::cost_model_for`]) steers filter ordering and
    /// mask-sharing promotion.
    /// Every model-driven choice is plan-shape-only: answers and ledgers
    /// are bit-identical to [`crate::exec::reference`] by construction.
    pub fn with_options(schema: &'a StarSchema, options: ScanOptions) -> Result<Self, EngineError> {
        let fks: Vec<Keys> =
            schema.dims().iter().map(|d| schema.fact().key(&d.fk)).collect::<Result<_, _>>()?;
        let model = cost_model_for(schema)?;
        Ok(ScanPlan {
            schema,
            fact_rows: schema.fact().num_rows(),
            fks,
            queries: Vec::new(),
            max_row_weight: 0,
            opts: options,
            model,
        })
    }

    /// Replaces the plan's cost model — the adversarial-plan test hook
    /// (see `tests/prop_cost_model.rs`). Call before `add_query`: filters
    /// compiled earlier keep their old pass counts.
    #[doc(hidden)]
    pub fn set_cost_model(&mut self, model: Arc<CostModel>) {
        self.model = model;
    }

    /// Compiles a binary-predicate star query into the plan.
    pub fn add_query(&mut self, query: &StarQuery) -> Result<(), EngineError> {
        let bitsets = dimension_bitsets(self.schema, &query.predicates)?;
        let mut filters: Vec<Filter> = bitsets
            .into_iter()
            .enumerate()
            .filter_map(|(di, b)| Some(Filter::build(di, b?, &self.model)))
            .collect();
        selectivity_order(&mut filters);
        let grouping = if query.group_by.is_empty() {
            None
        } else {
            Some(GroupPlan::resolve(self.schema, &query.group_by)?)
        };
        self.max_row_weight = self.max_row_weight.max(RowWeight::max_abs(self.schema, &query.agg)?);
        self.queries.push(PlannedQuery {
            filters,
            row_weight: RowWeight::resolve(self.schema, &query.agg)?,
            grouping,
        });
        Ok(())
    }

    /// Number of compiled queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Describes the plan the kernel would execute, without executing it:
    /// per-query filter order with probe classes and exact fact pass
    /// fractions, and the cross-query mask-sharing program. Everything
    /// reported is derived from the same structures [`ScanPlan::execute`]
    /// runs, so EXPLAIN output cannot drift from the executed plan shape.
    pub fn describe(&self) -> PlanExplain {
        let program = self.mask_program();
        let shards = self.shard_bounds(self.opts.threads).len();
        let dims = self
            .schema
            .dims()
            .iter()
            .enumerate()
            .map(|(di, d)| DimExplain {
                table: d.table.name().to_string(),
                rows: d.table.num_rows(),
                fk_width_bytes: self.fks[di].width_bytes(),
            })
            .collect();
        let queries = self
            .queries
            .iter()
            .map(|q| {
                let filters = q
                    .filters
                    .iter()
                    .map(|f| FilterExplain {
                        table: self.schema.dims()[f.dim].table.name().to_string(),
                        probe: match f.probe {
                            Probe::Word(_) => "word",
                            Probe::Bytes(_) => "bytes",
                            Probe::Wide => "bitset",
                        },
                        estimated_fraction: f.est,
                        sharing: if program.shared.iter().any(|s| s.same_mask(f)) {
                            "shared"
                        } else {
                            "private"
                        },
                    })
                    .collect();
                QueryExplain { filters, measure_width_bytes: q.row_weight.width_bytes() }
            })
            .collect();
        PlanExplain {
            fact_rows: self.fact_rows,
            shards,
            shared_masks: program.shared.len(),
            dims,
            queries,
        }
    }

    /// Executes every compiled query in **one** scan of the fact table,
    /// returning results in compile order. The scan shards as
    /// `options.threads` says (see [`ScanOptions::threads`]); partials
    /// merge in shard order, so results are deterministic for a fixed
    /// shard count — and, for integer-valued accumulators, the same for
    /// every shard count.
    pub fn execute(&self, options: ScanOptions) -> Vec<QueryResult> {
        let program = self.mask_program();
        let bounds = self.shard_bounds(options.threads);
        let accs = scan_shards(
            &bounds,
            |lo, hi| {
                let mut shard = self.fresh_accs();
                self.scan_range(&mut shard, &program, lo, hi);
                shard
            },
            |merged, shard| {
                for (acc, partial) in merged.iter_mut().zip(shard) {
                    acc.merge(partial);
                }
            },
        );
        fact_scans_add();
        self.flush_kernel_counters(&bounds, &program);
        self.finalize(accs)
    }

    /// The shard bounds a scan under `threads` covers. Kernel-sized
    /// sharding (`threads == 0`) needs every accumulator's sum of integers
    /// — row counts and integer measures — to stay where no split can push
    /// it past 2⁵³ ([`sums_stay_exact`]).
    fn shard_bounds(&self, threads: usize) -> Vec<(usize, usize)> {
        let reassociable = sums_stay_exact(self.fact_rows, self.max_row_weight);
        shard_bounds(self.fact_rows, threads, reassociable)
    }

    /// Flushes the scan's kernel profiling tallies to the process-wide
    /// [`kernel_counters`]. Everything is derived once from the plan
    /// geometry — chunk count from the shard bounds, gather counts from
    /// the mask program, fk bytes from the column widths — so the chunk
    /// loop itself carries zero instrumentation. Every gather reads its fk
    /// chunk straight from the column, so each one is a direct gather and
    /// one pass over its column.
    fn flush_kernel_counters(&self, bounds: &[(usize, usize)], program: &MaskProgram) {
        let k = kernel_counters();
        let chunks = chunk_count(bounds);
        KernelCounters::add(&k.chunks_scanned, chunks);
        let uses = self.gather_uses(program);
        let gathers: usize = uses.iter().sum();
        let fk_bytes: usize =
            uses.iter().zip(&self.fks).map(|(&u, fk)| u * fk.width_bytes() * self.fact_rows).sum();
        KernelCounters::add(&k.direct_gathers, gathers as u64 * chunks);
        KernelCounters::add(&k.fk_bytes_read, fk_bytes as u64);
        KernelCounters::add(&k.shared_mask_filters, program.shared.len() as u64);
        // A promotion with `u` users saves `u − 1` gather passes per chunk.
        let users: usize = program.per_query.iter().map(|(via_cache, _)| via_cache.len()).sum();
        let saved = (users - program.shared.len()) as u64;
        KernelCounters::add(&k.shared_mask_gathers_saved, saved * chunks);
    }

    /// Expected private-gather cost of the filter at position `pos` of a
    /// query's selectivity-ordered filter list, as a fraction of one full
    /// gather pass: each 64-row mask word survives the earlier filters
    /// (is non-empty) with probability `1 − (1 − p)^64` where `p` is the
    /// product of the earlier filters' pass fractions. An upper bound: a
    /// surviving word with ≤ [`SPARSE_WORD_BITS`] rows costs that many
    /// probes, not 64.
    fn private_gather_cost(filters: &[Filter], pos: usize) -> f64 {
        let prefix: f64 = filters[..pos].iter().map(|f| f.est).product();
        1.0 - (1.0 - prefix.clamp(0.0, 1.0)).powi(64)
    }

    /// Builds the cross-query mask-sharing program. Promotion is
    /// savings-driven: a filter whose `(dimension, pass mask)` recurs
    /// across ≥ 2 queries is promoted to the
    /// shared gather list only when the summed expected cost of its private
    /// per-query gathers (each discounted by the early-exit survival of the
    /// filters ordered before it) exceeds the one full shared gather pass
    /// the cache costs — ultra-selective predecessors make re-gathers
    /// nearly free, so such filters stay private.
    fn mask_program(&self) -> MaskProgram<'_> {
        // Distinct filters with their total use counts across the batch.
        let mut distinct: Vec<(&Filter, usize)> = Vec::new();
        for f in self.queries.iter().flat_map(|q| &q.filters) {
            match distinct.iter_mut().find(|(g, _)| g.same_mask(f)) {
                Some((_, uses)) => *uses += 1,
                None => distinct.push((f, 1)),
            }
        }
        let mut shared: Vec<&Filter> = Vec::new();
        let shared_slot: Vec<Option<usize>> = distinct
            .iter()
            .map(|&(f, uses)| {
                if uses < 2 {
                    return None;
                }
                // Σ over using queries of the expected private-gather
                // cost; the shared cache costs one full gather pass.
                let saved: f64 = self
                    .queries
                    .iter()
                    .filter_map(|q| {
                        let pos = q.filters.iter().position(|g| g.same_mask(f))?;
                        Some(Self::private_gather_cost(&q.filters, pos))
                    })
                    .sum();
                if saved <= 1.0 {
                    return None;
                }
                shared.push(f);
                Some(shared.len() - 1)
            })
            .collect();
        let per_query = self
            .queries
            .iter()
            .map(|q| {
                let mut via_cache = Vec::new();
                let mut private = Vec::new();
                for f in &q.filters {
                    let di = distinct
                        .iter()
                        .position(|(g, _)| g.same_mask(f))
                        .expect("every filter was counted");
                    match shared_slot[di] {
                        Some(si) => via_cache.push(si),
                        None => private.push(f),
                    }
                }
                (via_cache, private)
            })
            .collect();
        MaskProgram { shared, per_query }
    }

    /// Per dimension, the gathers that read its fk codes each chunk:
    /// shared-mask gathers and query-private filter gathers.
    fn gather_uses(&self, program: &MaskProgram) -> Vec<usize> {
        let mut uses = vec![0usize; self.fks.len()];
        let private = program.per_query.iter().flat_map(|(_, private)| private.iter().copied());
        for f in program.shared.iter().copied().chain(private) {
            uses[f.dim] += 1;
        }
        uses
    }

    fn fresh_accs(&self) -> Vec<Acc> {
        self.queries
            .iter()
            .map(|q| match &q.grouping {
                None => Acc::Scalar(0.0),
                Some(g) => match g.dense_space {
                    Some(space) => {
                        Acc::Dense { sums: vec![0.0; space], touched: BitSet::zeros(space) }
                    }
                    None => Acc::Sparse(BTreeMap::new()),
                },
            })
            .collect()
    }

    fn finalize(&self, accs: Vec<Acc>) -> Vec<QueryResult> {
        self.queries
            .iter()
            .zip(accs)
            .map(|(q, acc)| match acc {
                Acc::Scalar(v) => QueryResult::Scalar(v),
                Acc::Sparse(m) => QueryResult::Groups(m),
                Acc::Dense { sums, touched } => {
                    let plan = q.grouping.as_ref().expect("dense acc implies grouping");
                    QueryResult::Groups(
                        touched.iter_ones().map(|flat| (plan.decode(flat), sums[flat])).collect(),
                    )
                }
            })
            .collect()
    }

    /// Scans fact rows `[lo, hi)` accumulating every query — the
    /// SIMD-width chunk kernel. Per chunk: filters recurring across queries
    /// are gathered once into the shared mask cache; every other gather
    /// reads its fk chunk straight from the column.
    fn scan_range(&self, accs: &mut [Acc], program: &MaskProgram, lo: usize, hi: usize) {
        let mut mask = [0u64; CHUNK_WORDS];
        let mut cache = vec![0u64; program.shared.len() * CHUNK_WORDS];
        let mut chunk_start = lo;
        while chunk_start < hi {
            let rows = chunk_start..(chunk_start + CHUNK_ROWS).min(hi);
            let words = rows.len().div_ceil(64);
            // Gather each shared filter once for this chunk.
            for (fi, f) in program.shared.iter().enumerate() {
                let cached = &mut cache[fi * CHUNK_WORDS..][..words];
                with_keys!(self.fks[f.dim].slice(rows.clone()), |fk| f.gather_chunk(fk, cached));
            }
            for ((q, acc), masks) in
                self.queries.iter().zip(accs.iter_mut()).zip(&program.per_query)
            {
                match acc {
                    Acc::Scalar(total) if q.filters.is_empty() && q.is_pure_count() => {
                        // Unfiltered pure COUNT: every chunk row qualifies —
                        // skip the mask build and popcount outright.
                        *total += rows.len() as f64;
                    }
                    acc => {
                        self.chunk_mask(masks, &cache, rows.clone(), &mut mask[..words]);
                        self.drain_binary(q, acc, chunk_start, &mask[..words]);
                    }
                }
            }
            chunk_start = rows.end;
        }
    }

    /// Builds the chunk's qualifying-row mask for one query:
    /// all-ones, then (1) word-wise ANDs of the query's shared cached
    /// masks, then (2) [`Filter::and_chunk`] per query-private filter (most
    /// selective first, probe fast paths over the chunk's fk codes, empty
    /// words skipped and sparse ones probed lane by lane).
    fn chunk_mask(
        &self,
        masks: &(Vec<usize>, Vec<&Filter>),
        cache: &[u64],
        rows: Range<usize>,
        mask: &mut [u64],
    ) {
        let len = rows.len();
        mask.fill(u64::MAX);
        let tail = len & 63;
        if tail != 0 {
            mask[len >> 6] = (1u64 << tail) - 1;
        }
        let (via_cache, private) = masks;
        for &fi in via_cache {
            let cached = &cache[fi * CHUNK_WORDS..][..mask.len()];
            for (word, &c) in mask.iter_mut().zip(cached) {
                *word &= c;
            }
        }
        for f in private {
            with_keys!(self.fks[f.dim].slice(rows.clone()), |fk| f.and_chunk(fk, mask));
        }
    }

    /// Drains a chunk mask into the query's accumulator. A SUM matches its
    /// measure's width once here and drains monomorphic in it; COUNT and
    /// SUM-diff read their row weight through [`RowWeight::at`].
    fn drain_binary(&self, q: &PlannedQuery, acc: &mut Acc, chunk_start: usize, mask: &[u64]) {
        if q.is_pure_count() {
            let hits: u64 = mask.iter().map(|w| u64::from(w.count_ones())).sum();
            if let Acc::Scalar(total) = acc {
                *total += hits as f64;
            }
            return;
        }
        match q.row_weight {
            RowWeight::Measure(m) => with_measures!(m, |m| {
                self.drain_rows(q, acc, chunk_start, mask, |row| widen(m[row]))
            }),
            weight => self.drain_rows(q, acc, chunk_start, mask, |row| weight.at(row)),
        }
    }

    /// Adds `value(row)` for every row set in the chunk mask, in ascending
    /// row order, into the query's scalar or grouped accumulator.
    fn drain_rows(
        &self,
        q: &PlannedQuery,
        acc: &mut Acc,
        chunk_start: usize,
        mask: &[u64],
        value: impl Fn(usize) -> f64,
    ) {
        for (wi, &word) in mask.iter().enumerate() {
            let mut w = word;
            let base = chunk_start + (wi << 6);
            while w != 0 {
                let row = base + w.trailing_zeros() as usize;
                w &= w - 1;
                let value = value(row);
                match (&mut *acc, &q.grouping) {
                    (Acc::Scalar(total), _) => *total += value,
                    (Acc::Dense { sums, touched }, Some(g)) => {
                        let flat = g.flat_index(&self.fks, row);
                        sums[flat] += value;
                        touched.set(flat, true);
                    }
                    (Acc::Sparse(map), Some(g)) => {
                        *map.entry(g.key(&self.fks, row)).or_insert(0.0) += value;
                    }
                    _ => unreachable!("grouped accumulator without group plan"),
                }
            }
        }
    }
}

/// A stored measure value as the row weight it adds: widened to `i64`,
/// then converted, exactly as an `i64` column's value would be.
#[inline]
fn widen<M: Into<i64>>(value: M) -> f64 {
    value.into() as f64
}

/// Cores the kernel may shard across, read once per process.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// True iff any sum of up to `fact_rows` integers of magnitude ≤
/// `max_row_weight` stays below 2⁵³: every partial is then an exact `f64`,
/// so the sums re-associate — and shard — without changing a bit.
pub(crate) fn sums_stay_exact(fact_rows: usize, max_row_weight: u64) -> bool {
    (fact_rows as u128) * u128::from(max_row_weight) < 1 << 53
}

/// Chunk-aligned contiguous shard bounds for a fact scan. `threads ≥ 1`
/// asks for that many shards; `threads == 0` sizes the split to the
/// machine — one shard per core, none under [`MIN_SHARD_ROWS`] — provided
/// the caller's sums are `reassociable` (bit-identical for any split), and
/// otherwise keeps one shard. Never more shards than chunks. Used by both
/// [`ScanPlan::execute`] and [`crate::WeightHistogram::build`], whose
/// integer cells merge exactly on any split.
pub(crate) fn shard_bounds(
    fact_rows: usize,
    threads: usize,
    reassociable: bool,
) -> Vec<(usize, usize)> {
    let chunks = fact_rows.div_ceil(CHUNK_ROWS);
    let wanted = match threads {
        0 if reassociable => available_cores().min(fact_rows / MIN_SHARD_ROWS),
        0 => 1,
        n => n,
    };
    let shards = wanted.min(chunks).max(1);
    if shards == 1 {
        return vec![(0, fact_rows)];
    }
    let chunks_per_shard = chunks.div_ceil(shards);
    (0..shards)
        .map(|s| {
            let lo = (s * chunks_per_shard * CHUNK_ROWS).min(fact_rows);
            let hi = ((s + 1) * chunks_per_shard * CHUNK_ROWS).min(fact_rows);
            (lo, hi)
        })
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// Chunks a scan over `bounds` visits.
pub(crate) fn chunk_count(bounds: &[(usize, usize)]) -> u64 {
    bounds.iter().map(|&(lo, hi)| (hi - lo).div_ceil(CHUNK_ROWS) as u64).sum()
}

/// Scans every shard — shard 0 on the calling thread, the others on scoped
/// threads — and merges the partials in shard order.
pub(crate) fn scan_shards<T: Send>(
    bounds: &[(usize, usize)],
    scan: impl Fn(usize, usize) -> T + Sync,
    mut merge: impl FnMut(&mut T, T),
) -> T {
    let (&(lo, hi), rest) = bounds.split_first().expect("a scan has at least one shard");
    let scan = &scan;
    std::thread::scope(|scope| {
        let spawned: Vec<_> =
            rest.iter().map(|&(lo, hi)| scope.spawn(move || scan(lo, hi))).collect();
        let mut merged = scan(lo, hi);
        for shard in spawned {
            merge(&mut merged, shard.join().expect("scan shard panicked"));
        }
        merged
    })
}

/// Builds per-dimension pass bitsets for a predicate conjunction; `None`
/// means "no predicate on this dimension" (all rows pass). Snowflake
/// predicates are folded into their parent dimension through the dim→sub
/// link, exactly like the reference executor.
pub(crate) fn dimension_bitsets(
    schema: &StarSchema,
    predicates: &[Predicate],
) -> Result<Vec<Option<BitSet>>, EngineError> {
    let mut bitsets: Vec<Option<BitSet>> = vec![None; schema.num_dims()];
    for pred in predicates {
        // Star predicate: directly on a dimension.
        if let Ok(di) = schema.dim_index(&pred.table) {
            let dim = &schema.dims()[di];
            let codes = dim.table.codes(&pred.attr)?;
            let domain = dim.table.domain(&pred.attr)?;
            pred.constraint.validate(domain)?;
            let bits = bitsets[di].get_or_insert_with(|| BitSet::ones(dim.table.num_rows()));
            and_constraint(bits, &pred.constraint, codes, domain.size());
            continue;
        }
        // Snowflake predicate: on a sub-dimension, folded into the parent
        // through its link keys.
        if let Some((parent, sub)) = schema.subdim(&pred.table) {
            let sub_codes = sub.table.codes(&pred.attr)?;
            let domain = sub.table.domain(&pred.attr)?;
            pred.constraint.validate(domain)?;
            let mut sub_pass = BitSet::ones(sub_codes.len());
            and_constraint(&mut sub_pass, &pred.constraint, sub_codes, domain.size());
            let sub_lut = sub_pass.to_byte_lut();
            let link = parent.table.key(&sub.fk_in_dim)?;
            let di = schema.dim_index(parent.table.name())?;
            let bits = bitsets[di].get_or_insert_with(|| BitSet::ones(parent.table.num_rows()));
            with_keys!(link, |link| and_gathered(bits, &sub_lut, link));
            continue;
        }
        return Err(EngineError::UnknownTable(pred.table.clone()));
    }
    Ok(bitsets)
}

/// ANDs `constraint` over the rows of `codes` into `bits`: the constraint
/// is evaluated once per code of its domain into a `{0, 1}` byte table,
/// then gathered 64 rows at a time. A domain wider than the table is
/// evaluated per row instead, so a sparse code space never costs a byte
/// per code.
fn and_constraint(bits: &mut BitSet, constraint: &Constraint, codes: &[u32], domain: u32) {
    if domain as usize > codes.len() {
        bits.and_assign(&BitSet::from_fn(codes.len(), |i| constraint.matches(codes[i])));
        return;
    }
    let lut: Vec<u8> = (0..domain).map(|code| u8::from(constraint.matches(code))).collect();
    and_gathered(bits, &lut, codes);
}

/// ANDs `lut[keys[i]]` into bit `i` of `bits`, 64 rows at a time through
/// the byte-LUT gather, skipping words already empty.
fn and_gathered<K: Key>(bits: &mut BitSet, lut: &[u8], keys: &[K]) {
    for (word, lane) in bits.words_mut().iter_mut().zip(keys.chunks(64)) {
        if *word != 0 {
            *word &= gather_word_bytes(lut, lane);
        }
    }
}

/// What [`ScanPlan::describe`] reports: the shape of the fused scan the
/// kernel would run, derived from the exact structures `execute` uses.
#[derive(Debug, Clone)]
pub struct PlanExplain {
    /// Fact-table rows the scan would visit.
    pub fact_rows: usize,
    /// Row shards the scan would split into under the plan's options
    /// (shard 0 on the calling thread, one scoped thread per further
    /// shard).
    pub shards: usize,
    /// Filters promoted to the cross-query shared-mask cache.
    pub shared_masks: usize,
    /// Per-dimension table shape and fk width, schema order.
    pub dims: Vec<DimExplain>,
    /// Per-query filter order and measure width, compile order.
    pub queries: Vec<QueryExplain>,
}

/// One dimension's row in a [`PlanExplain`].
#[derive(Debug, Clone)]
pub struct DimExplain {
    /// Dimension table name.
    pub table: String,
    /// Dimension table rows.
    pub rows: usize,
    /// Bytes per stored key of the fact column referencing this dimension
    /// (2 when every key fits `u16`, else 4).
    pub fk_width_bytes: usize,
}

/// One compiled query's row in a [`PlanExplain`].
#[derive(Debug, Clone)]
pub struct QueryExplain {
    /// Filters in the order the scan applies them (selectivity order).
    pub filters: Vec<FilterExplain>,
    /// Bytes of stored measure the scan reads per row: 0 for COUNT, the
    /// SUM column's width (1, 2, 4 or 8), the wider of the two for a
    /// SUM-diff.
    pub measure_width_bytes: usize,
}

/// One filter's row in a [`QueryExplain`].
#[derive(Debug, Clone)]
pub struct FilterExplain {
    /// Dimension table the filter probes.
    pub table: String,
    /// Probe class the kernel selected: `word`, `bytes`, or `bitset`.
    pub probe: &'static str,
    /// Exact fraction of fact rows the filter admits, which orders it.
    pub estimated_fraction: f64,
    /// `shared` (gathered once per chunk for all users) or `private`.
    pub sharing: &'static str,
}

impl PlanExplain {
    /// Renders the plan description as a JSON object — the payload of the
    /// gate's `explain` verb.
    pub fn to_json(&self) -> Json {
        let dims = self
            .dims
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("table", Json::Str(d.table.clone())),
                    ("rows", Json::Num(d.rows as f64)),
                    ("fk_width_bytes", Json::Num(d.fk_width_bytes as f64)),
                ])
            })
            .collect();
        let queries = self
            .queries
            .iter()
            .map(|q| {
                let filters = q
                    .filters
                    .iter()
                    .map(|f| {
                        Json::obj(vec![
                            ("table", Json::Str(f.table.clone())),
                            ("probe", Json::Str(f.probe.to_string())),
                            ("estimated_fraction", Json::Num(f.estimated_fraction)),
                            ("sharing", Json::Str(f.sharing.to_string())),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("filters", Json::Arr(filters)),
                    ("measure_width_bytes", Json::Num(q.measure_width_bytes as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("fact_rows", Json::Num(self.fact_rows as f64)),
            ("shards", Json::Num(self.shards as f64)),
            ("shared_masks", Json::Num(self.shared_masks as f64)),
            ("dims", Json::Arr(dims)),
            ("queries", Json::Arr(queries)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::domain::Domain;
    use crate::query::GroupAttr;
    use crate::schema::Dimension;
    use crate::table::Table;
    use crate::whist::WeightHistogram;

    fn schema() -> StarSchema {
        let da = Domain::numeric("attr", 3).unwrap();
        let db = Domain::numeric("attr", 2).unwrap();
        let a = Table::new(
            "A",
            vec![Column::key("pk", vec![0, 1, 2]), Column::attr("attr", da, vec![0, 1, 2])],
        )
        .unwrap();
        let b = Table::new(
            "B",
            vec![Column::key("pk", vec![0, 1]), Column::attr("attr", db, vec![0, 1])],
        )
        .unwrap();
        let fact = Table::new(
            "F",
            vec![
                Column::key("fk_a", vec![0, 0, 1, 1, 2, 2]),
                Column::key("fk_b", vec![0, 1, 0, 1, 0, 1]),
                Column::measure("qty", vec![1, 2, 3, 4, 5, 6]),
                Column::measure("cost", vec![300, -2, 0, 1, 1, 1]),
            ],
        )
        .unwrap();
        StarSchema::new(
            fact,
            vec![Dimension::new(a, "pk", "fk_a"), Dimension::new(b, "pk", "fk_b")],
        )
        .unwrap()
    }

    fn reference_answers(s: &StarSchema, queries: &[StarQuery]) -> Vec<QueryResult> {
        queries.iter().map(|q| crate::exec::reference::execute(s, q).unwrap()).collect()
    }

    #[test]
    fn fused_plan_answers_mixed_batch_in_one_scan() {
        let s = schema();
        let mut plan = ScanPlan::new(&s).unwrap();
        plan.add_query(&StarQuery::count("c").with(Predicate::point("A", "attr", 1))).unwrap();
        plan.add_query(&StarQuery::sum("s", "qty").with(Predicate::point("B", "attr", 1))).unwrap();
        assert_eq!(plan.num_queries(), 2);
        assert_eq!(scans_of(|| plan.execute(ScanOptions::default())), 1, "two queries, one scan");
        let results = plan.execute(ScanOptions::default());
        assert_eq!(results[0].scalar().unwrap(), 2.0);
        assert_eq!(results[1].scalar().unwrap(), 12.0);
    }

    #[test]
    fn describe_reports_plan_shape_without_executing() {
        let s = schema();
        let mut plan = ScanPlan::new(&s).unwrap();
        // The same predicate in two queries must show as shared; the
        // B-side filter stays private.
        plan.add_query(&StarQuery::count("c1").with(Predicate::point("A", "attr", 1))).unwrap();
        plan.add_query(
            &StarQuery::count("c2")
                .with(Predicate::point("A", "attr", 1))
                .with(Predicate::point("B", "attr", 0)),
        )
        .unwrap();
        let before = fact_scan_count();
        let ex = plan.describe();
        assert_eq!(fact_scan_count(), before, "describe never touches the fact table");
        assert_eq!(ex.fact_rows, 6);
        assert_eq!(ex.shards, 1, "six rows scan on the calling thread");
        assert_eq!(ex.dims.len(), 2);
        assert_eq!(ex.dims[0].table, "A");
        assert!(ex.dims.iter().all(|d| d.fk_width_bytes == 2), "tiny keys store as u16");
        assert_eq!(ex.queries.len(), 2);
        assert_eq!(ex.shared_masks, 1, "the repeated A filter promotes once");
        assert!(ex.queries.iter().all(|q| q
            .filters
            .iter()
            .filter(|f| f.table == "A")
            .all(|f| f.sharing == "shared")));
        assert!(ex.queries[1].filters.iter().any(|f| f.table == "B" && f.sharing == "private"));
        for q in &ex.queries {
            for f in &q.filters {
                assert!(matches!(f.probe, "word" | "bytes" | "bitset"));
                assert!((0.0..=1.0).contains(&f.estimated_fraction));
            }
        }
        let rendered = ex.to_json().render();
        let parsed = Json::parse(&rendered).expect("explain json parses");
        assert_eq!(parsed.get("fact_rows").and_then(Json::as_f64), Some(6.0));
        assert_eq!(parsed.get("shards").and_then(Json::as_f64), Some(1.0));
        assert_eq!(parsed.get("queries").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        // Every fk is read in place, so a dimension reports its shape only.
        let dim = parsed.get("dims").and_then(Json::as_arr).map(|dims| &dims[0]);
        let Some(Json::Obj(fields)) = dim else { panic!("dims[0] is an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["table", "rows", "fk_width_bytes"]);
        assert!(ex.queries.iter().all(|q| q.measure_width_bytes == 0), "COUNT reads no measure");

        // A SUM reads its column's stored width; a SUM-diff the wider one.
        let mut plan = ScanPlan::new(&s).unwrap();
        plan.add_query(&StarQuery::sum("s1", "qty")).unwrap();
        plan.add_query(&StarQuery::sum("s2", "cost")).unwrap();
        plan.add_query(&StarQuery::sum_diff("d", "qty", "cost")).unwrap();
        let ex = plan.describe();
        let widths: Vec<usize> = ex.queries.iter().map(|q| q.measure_width_bytes).collect();
        assert_eq!(widths, [1, 2, 2]);
        let parsed = Json::parse(&ex.to_json().render()).unwrap();
        let s2 = parsed.get("queries").and_then(Json::as_arr).map(|qs| &qs[1]);
        let rendered = s2.and_then(|q| q.get("measure_width_bytes")).and_then(Json::as_f64);
        assert_eq!(rendered, Some(2.0));
    }

    #[test]
    fn scans_tally_the_fk_bytes_their_gathers_read() {
        let s = schema();
        let mut plan = ScanPlan::new(&s).unwrap();
        // Two private gathers over A and one over B, each a direct pass
        // over a 2-byte column of 6 rows.
        plan.add_query(
            &StarQuery::count("c1")
                .with(Predicate::point("A", "attr", 1))
                .with(Predicate::point("B", "attr", 0)),
        )
        .unwrap();
        plan.add_query(&StarQuery::count("c2").with(Predicate::point("A", "attr", 2))).unwrap();
        let program = plan.mask_program();
        assert_eq!(plan.gather_uses(&program), [2, 1]);
        let before = kernel_counters().snapshot();
        plan.execute(ScanOptions::default());
        // fk bytes = Σ gathers × fk width × fact rows. Process-wide
        // counters: concurrent tests can only add to a delta, and nothing
        // adds to the staged pair.
        let delta = kernel_counters().snapshot().since(&before);
        assert!(delta.fk_bytes_read >= 3 * 2 * 6, "{} bytes", delta.fk_bytes_read);
        assert!(delta.direct_gathers >= 3, "one chunk, three gathers");
        assert_eq!((delta.staged_chunk_copies, delta.staged_gathers), (0, 0));
        let axes = vec![("A".to_string(), "attr".to_string())];
        let before = kernel_counters().snapshot();
        WeightHistogram::build(&s, &axes, &Agg::Count, ScanOptions::default()).unwrap();
        assert!(kernel_counters().snapshot().since(&before).fk_bytes_read >= 2 * 6);
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let s = schema();
        let mut plan = ScanPlan::new(&s).unwrap();
        plan.add_query(
            &StarQuery::sum("g", "qty")
                .with(Predicate::range("A", "attr", 0, 1))
                .group_by(GroupAttr::new("B", "attr")),
        )
        .unwrap();
        plan.add_query(
            &StarQuery::sum_diff("d", "qty", "cost").with(Predicate::point("B", "attr", 1)),
        )
        .unwrap();
        let seq = plan.execute(ScanOptions::default());
        let par = plan.execute(ScanOptions::parallel(4));
        assert_eq!(seq, par);
    }

    #[test]
    fn dense_group_space_detection() {
        let s = schema();
        let g = GroupPlan::resolve(&s, &[GroupAttr::new("A", "attr"), GroupAttr::new("B", "attr")])
            .unwrap();
        assert_eq!(g.dense_space, Some(6));
        assert_eq!(g.decode(5), vec![2, 1], "row-major decode of the last cell");
        assert_eq!(g.decode(1), vec![0, 1]);
    }

    #[test]
    fn scan_options_thread_counts() {
        // 0 means kernel-sized sharding, and it is the default.
        assert_eq!(ScanOptions::default().threads, 0);
        assert_eq!(ScanOptions::parallel(0), ScanOptions::default());
        assert_eq!(ScanOptions::parallel(3).threads, 3);
    }

    #[test]
    fn kernel_sized_shards_need_big_tables_and_reassociable_sums() {
        let cores = available_cores();
        let rows = 5 * MIN_SHARD_ROWS + 17;
        // Below two shards' worth of rows: the calling thread, whatever
        // the core count.
        assert_eq!(
            shard_bounds(2 * MIN_SHARD_ROWS - 1, 0, true),
            vec![(0, 2 * MIN_SHARD_ROWS - 1)]
        );
        assert_eq!(shard_bounds(0, 0, true), vec![(0, 0)]);
        // Above: one shard per core, capped by the row floor.
        let sized = shard_bounds(rows, 0, true);
        assert_eq!(sized.len(), cores.min(5));
        assert_eq!(sized, shard_bounds(rows, cores.min(5), true), "same split as forcing it");
        assert_eq!(shard_bounds(rows, 0, false), vec![(0, rows)], "float sums stay on one shard");
        // An explicit count is obeyed either way; shards tile the table on
        // chunk boundaries.
        for reassociable in [true, false] {
            let forced = shard_bounds(rows, 3, reassociable);
            assert_eq!(forced.len(), 3);
            assert_eq!((forced[0].0, forced[2].1), (0, rows));
            assert!(forced.windows(2).all(|w| w[0].1 == w[1].0 && w[0].1 % CHUNK_ROWS == 0));
        }
        assert_eq!(shard_bounds(CHUNK_ROWS + 1, 8, true).len(), 2, "never more shards than chunks");
        // Sums re-associate only while no partial can reach 2⁵³.
        assert!(sums_stay_exact(1 << 21, (1 << 32) - 1));
        assert!(!sums_stay_exact(1 << 21, 1 << 32));
        assert!(sums_stay_exact(0, u64::MAX) && !sums_stay_exact(usize::MAX, u64::MAX));
    }

    #[test]
    fn probe_classification_boundaries() {
        let model = CostModel::build(&schema()).unwrap();
        let classify = |bits: BitSet| Filter::build(0, bits, &model);
        let word = classify(BitSet::from_fn(64, |i| i % 2 == 0));
        assert!(matches!(word.probe, Probe::Word(_)), "64 rows → register word");
        let bytes = classify(BitSet::from_fn(65, |i| i % 2 == 0));
        assert!(matches!(bytes.probe, Probe::Bytes(_)), "65 rows → byte LUT");
        let bytes_hi = classify(BitSet::from_fn(1 << 16, |i| i == 0));
        assert!(matches!(bytes_hi.probe, Probe::Bytes(_)), "2^16 rows → byte LUT");
        let wide = classify(BitSet::from_fn((1 << 16) + 1, |i| i == 0));
        assert!(matches!(wide.probe, Probe::Wide), "2^16 + 1 rows → packed bitset");
        let empty = classify(BitSet::zeros(0));
        assert!(matches!(empty.probe, Probe::Word(0)), "0-row dimension → empty word");
    }

    #[test]
    fn probe_classes_gather_identically() {
        // One 40-row mask behind each probe class.
        let bits = BitSet::from_fn(40, |i| i % 3 == 0);
        let filter = |probe| Filter { dim: 0, bits: bits.clone(), probe, pass: 0, est: 0.0 };
        let word = filter(Probe::Word(bits.words()[0]));
        let bytes = filter(Probe::Bytes(bits.to_byte_lut()));
        let wide = filter(Probe::Wide);
        // All three classifications answer identically.
        let lane: Vec<u32> = (0..40).collect();
        assert_eq!(word.gather_word(&lane), bytes.gather_word(&lane));
        assert_eq!(word.gather_word(&lane), wide.gather_word(&lane));
        // …at either key width.
        let narrow: Vec<u16> = (0..40).collect();
        for f in [&word, &bytes, &wide] {
            assert_eq!(f.gather_word(&narrow), word.gather_word(&lane));
        }
    }

    #[test]
    fn sparse_and_dense_words_and_identically() {
        // Three full words and a 37-lane tail, behind every probe class at
        // both key widths, under running masks of every popcount 0..=64:
        // the sparse walk up to `SPARSE_WORD_BITS`, the dense gather past
        // it. Each popcount comes as its lowest lanes (bit 0), its highest
        // (bit 63) and a spread.
        const LANES: usize = 3 * 64 + 37;
        for rows in [64usize, 200] {
            let bits = BitSet::from_fn(rows, |i| i % 3 == 0);
            let filter = |probe| Filter { dim: 0, bits: bits.clone(), probe, pass: 0, est: 0.0 };
            let mut filters = vec![filter(Probe::Bytes(bits.to_byte_lut())), filter(Probe::Wide)];
            if rows <= WORD_PROBE_CAP {
                filters.push(filter(Probe::Word(bits.words()[0])));
            }
            let fk: Vec<u32> =
                (0..LANES).map(|i| ((i * 7 + i / 64 * 5 + 1) % rows) as u32).collect();
            let narrow: Vec<u16> = fk.iter().map(|&k| k as u16).collect();
            // Lanes 0 and 63 each meet a passing and a failing code.
            for lane in [0, 63] {
                let pass: Vec<bool> =
                    fk.chunks(64).filter_map(|w| Some(bits.get(*w.get(lane)? as usize))).collect();
                assert!(pass.contains(&true) && pass.contains(&false), "lane {lane}");
            }
            for popcount in 0..=64u32 {
                let low = u64::MAX.checked_shr(64 - popcount).unwrap_or(0);
                let spread = (0..popcount).fold(0u64, |m, j| m | 1 << (j * 37 % 64));
                for running in [low, low.reverse_bits(), spread] {
                    let mut mask = [running; LANES.div_ceil(64)];
                    mask[LANES / 64] &= (1 << (LANES % 64)) - 1;
                    for f in &filters {
                        let want: Vec<u64> = mask
                            .iter()
                            .zip(fk.chunks(64))
                            .map(|(m, w)| m & f.gather_word(w))
                            .collect();
                        let (mut wide, mut short) = (mask, mask);
                        f.and_chunk(&fk, &mut wide);
                        f.and_chunk(&narrow, &mut short);
                        let probe = &f.probe;
                        assert_eq!(wide, want[..], "u32, {probe:?}, {rows} rows, {running:#x}");
                        assert_eq!(short, want[..], "u16, {probe:?}, {rows} rows, {running:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn cost_model_plans_are_bit_identical_to_reference() {
        let s = schema();
        let queries = [
            StarQuery::count("c1")
                .with(Predicate::range("A", "attr", 1, 2))
                .with(Predicate::point("B", "attr", 0)),
            StarQuery::count("c2")
                .with(Predicate::range("A", "attr", 1, 2))
                .with(Predicate::point("B", "attr", 1)),
            StarQuery::sum("s", "qty").with(Predicate::point("A", "attr", 1)),
        ];
        let mut plan = ScanPlan::new(&s).unwrap();
        for q in &queries {
            plan.add_query(q).unwrap();
        }
        let passes: Vec<usize> = plan.queries[0].filters.iter().map(|f| f.pass).collect();
        assert_eq!(passes, [3, 4], "exact fact rows: B.attr = 0, then A.attr ∈ [1, 2]");
        assert_eq!(plan.execute(ScanOptions::default()), reference_answers(&s, &queries));
    }

    #[test]
    fn adversarial_estimates_cannot_change_answers() {
        let s = schema();
        let queries = [
            StarQuery::count("c1")
                .with(Predicate::range("A", "attr", 1, 2))
                .with(Predicate::point("B", "attr", 0)),
            StarQuery::sum("s", "qty")
                .with(Predicate::point("A", "attr", 1))
                .with(Predicate::point("B", "attr", 1)),
        ];
        let truth = reference_answers(&s, &queries);
        // Feed the planner maximally wrong statistics in both directions.
        for (fa, fb) in [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5)] {
            let mut model = CostModel::build(&s).unwrap();
            model.force_fraction(0, fa);
            model.force_fraction(1, fb);
            let mut plan = ScanPlan::new(&s).unwrap();
            plan.set_cost_model(Arc::new(model));
            for q in &queries {
                plan.add_query(q).unwrap();
            }
            assert_eq!(plan.execute(ScanOptions::default()), truth, "({fa}, {fb})");
        }
    }

    #[test]
    fn filters_sort_by_pass_fraction_then_dimension() {
        let filter =
            |dim, est| Filter { dim, bits: BitSet::zeros(4), probe: Probe::Wide, pass: 0, est };
        let mut filters = vec![filter(0, 0.75), filter(2, 0.25), filter(1, 0.25)];
        selectivity_order(&mut filters);
        let order: Vec<usize> = filters.iter().map(|f| f.dim).collect();
        assert_eq!(order, vec![1, 2, 0], "most selective first, ties by dim index");
    }

    #[test]
    fn no_filter_pure_count_short_circuits_to_len() {
        // Mixed batch: the unfiltered COUNT short-circuit must not disturb
        // neighboring queries, and must equal the fact row count exactly.
        let s = schema();
        let mut plan = ScanPlan::new(&s).unwrap();
        plan.add_query(&StarQuery::count("all")).unwrap();
        plan.add_query(&StarQuery::count("c").with(Predicate::point("A", "attr", 1))).unwrap();
        assert!(plan.queries[0].filters.is_empty() && plan.queries[0].is_pure_count());
        let results = plan.execute(ScanOptions::default());
        assert_eq!(results[0].scalar().unwrap(), 6.0, "unfiltered count = fact rows");
        assert_eq!(results[1].scalar().unwrap(), 2.0);
    }

    #[test]
    fn recurring_filters_promote_to_the_shared_mask_cache() {
        let s = schema();
        let mut plan = ScanPlan::new(&s).unwrap();
        // Two queries share the A.attr=1 mask; the B-side masks differ.
        plan.add_query(
            &StarQuery::count("c1")
                .with(Predicate::point("A", "attr", 1))
                .with(Predicate::point("B", "attr", 0)),
        )
        .unwrap();
        plan.add_query(
            &StarQuery::count("c2")
                .with(Predicate::point("A", "attr", 1))
                .with(Predicate::point("B", "attr", 1)),
        )
        .unwrap();
        plan.add_query(&StarQuery::count("c3").with(Predicate::point("A", "attr", 2))).unwrap();
        let program = plan.mask_program();
        assert_eq!(program.shared.len(), 1, "only the recurring A mask is shared");
        assert_eq!(program.shared[0].dim, 0);
        assert_eq!(program.per_query[0].0, vec![0]);
        assert_eq!(program.per_query[0].1.len(), 1, "B mask stays private");
        assert_eq!(program.per_query[1].0, vec![0]);
        assert_eq!(program.per_query[2].0, Vec::<usize>::new());
        assert_eq!(program.per_query[2].1.len(), 1);
        // And the shared split answers exactly.
        let results = plan.execute(ScanOptions::default());
        assert_eq!(results[0].scalar().unwrap(), 1.0);
        assert_eq!(results[1].scalar().unwrap(), 1.0);
        assert_eq!(results[2].scalar().unwrap(), 2.0);
    }
}
