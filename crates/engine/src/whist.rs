//! The joint attribute-code histogram `W` of the paper's `Q = Φ·W`
//! factoring (Eq. 11), the integer cells it is made of, and the one
//! evaluator of weighted queries.
//!
//! A cell holds the total row weight of one combination of attribute codes:
//! a row count, or an integer SUM of a measure. Cells are stored at their
//! natural width (`Cells`): they start at the width of the measure they
//! sum (one byte for COUNT) and widen, as a whole, only when a sum no
//! longer fits — the way [`crate::MeasureData`] stores a measure column.
//! Integer cells add exactly, so partials built on any row split merge to
//! the same cells, and a sum of cells is the exact integer any summation
//! order gives.
//!
//! A [`WeightHistogram`] answers two kinds of query without a fact scan:
//!
//! * **weighted** ([`WeightHistogram::answer`], Workload Decomposition):
//!   the real-valued weight tensor `Φ_q` dotted with `W` in flat-code
//!   order. A cached `W` and one built for a single batch answer a query
//!   with the same float operations in the same order, so they agree bit
//!   for bit;
//! * **binary** ([`WeightHistogram::answer_query`], the Predicate
//!   Mechanism): each predicate is a 0/1 mask over its axis, and the cells
//!   are contracted axis by axis, innermost first, in `i64`. Masks and
//!   integer cells make every summation order exact, so while the query's
//!   sums stay below 2⁵³ ([`WeightHistogram::covered_axes`]) the answer is
//!   the same `f64` the row-at-a-time reference executor accumulates.
//!
//! [`WeightHistogram::build`] fills one set of cells per aggregate from a
//! single scan. [`WeightHistogram::build_for`] builds the histogram a known
//! batch of binary queries needs, each axis pruned to the codes some query
//! passes plus one spill code: fewer cells, the same answers.
//!
//! A batch of [`WeightedQuery`]s ([`crate::execute_weighted_batch_with`])
//! costs at most one fact scan. When the union of its axes spans at most
//! [`DENSE_GROUP_CAP`] cells and no sum can overflow a cell, that scan
//! builds one `W` over every aggregate of the batch and each query is its
//! dot product. Otherwise one plain row loop answers every query with the
//! reference executor's accumulation step.

use crate::column::{Keys, Measures};
use crate::error::EngineError;
use crate::plan::{
    chunk_count, fact_scans_add, scan_shards, shard_bounds, sums_stay_exact, RowWeight,
    ScanOptions, DENSE_GROUP_CAP,
};
use crate::predicate::WeightedPredicate;
use crate::query::{Agg, StarQuery};
use crate::schema::StarSchema;
use crate::stage::{fold_flat, with_keys, with_measures, CHUNK_ROWS};
use starj_telemetry::{kernel_counters, KernelCounters};
use std::borrow::Cow;

/// One histogram cell width: a signed integer that widens to `i64`.
trait Cell: Copy + Into<i64> + TryFrom<i64> {}

impl Cell for i8 {}
impl Cell for i16 {}
impl Cell for i32 {}
impl Cell for i64 {}

/// A cell's value as an `i64`.
#[inline]
fn wide<T: Cell>(v: T) -> i64 {
    v.into()
}

/// Histogram cells at their natural width: the narrowest of `i8` / `i16` /
/// `i32` / `i64` that has held every partial sum so far.
#[derive(Debug, Clone, PartialEq)]
enum Cells {
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
}

/// Runs `$body` with `$c` bound to the typed cell vector behind a
/// [`Cells`] — how a drain or a contraction enters the loop monomorphic in
/// the cell width.
macro_rules! with_cells {
    ($cells:expr, |$c:ident| $body:expr) => {
        match $cells {
            Cells::I8($c) => $body,
            Cells::I16($c) => $body,
            Cells::I32($c) => $body,
            Cells::I64($c) => $body,
        }
    };
}

/// True iff any sum of up to `fact_rows` integers of magnitude ≤
/// `max_row_weight` fits `i64`, so no cell — and no sum of cells — can
/// overflow the widest width.
fn cells_fit(fact_rows: usize, max_row_weight: u64) -> bool {
    (fact_rows as u128) * u128::from(max_row_weight) < 1 << 63
}

/// Adds `v` into `slot` if the sum fits the slot's width; false otherwise.
#[inline]
fn try_add<T: Cell>(slot: &mut T, v: i64) -> bool {
    match wide(*slot).checked_add(v).map(T::try_from) {
        Some(Ok(sum)) => {
            *slot = sum;
            true
        }
        _ => false,
    }
}

/// `cells[index(i)] += value(i)` for `i` in `from..n`, in order. Returns
/// the first `i` whose sum does not fit, with every earlier one applied.
#[inline]
fn add_from<T: Cell>(
    cells: &mut [T],
    from: usize,
    n: usize,
    index: &impl Fn(usize) -> usize,
    value: &impl Fn(usize) -> i64,
) -> Option<usize> {
    (from..n).find(|&i| !try_add(&mut cells[index(i)], value(i)))
}

/// The sum of the cells of a row-major block shaped by `axes` — `(domain,
/// code mask)` per axis, outermost first, `None` keeping every code —
/// whose codes all pass. The innermost axis is a contiguous run summed
/// through its mask; each outer axis adds up the inner sums of its passing
/// codes only, so a selective query reads a sliver of the block.
fn masked_sum<T: Cell>(cells: &[T], axes: &[(usize, Option<&[bool]>)]) -> i64 {
    match axes {
        [] => cells.iter().map(|&v| wide(v)).sum(),
        [(_, None)] => cells.iter().map(|&v| wide(v)).sum(),
        [(_, Some(mask))] => {
            cells.iter().zip(*mask).map(|(&v, &keep)| if keep { wide(v) } else { 0 }).sum()
        }
        [(domain, mask), inner @ ..] => {
            let stride = cells.len() / domain;
            cells
                .chunks_exact(stride)
                .enumerate()
                .filter(|&(code, _)| mask.is_none_or(|m| m[code]))
                .map(|(_, block)| masked_sum(block, inner))
                .sum()
        }
    }
}

impl Cells {
    /// `space` zero cells, `width_bytes` wide (1, 2, 4 or 8).
    fn zeros(space: usize, width_bytes: usize) -> Self {
        match width_bytes {
            0 | 1 => Cells::I8(vec![0; space]),
            2 => Cells::I16(vec![0; space]),
            4 => Cells::I32(vec![0; space]),
            _ => Cells::I64(vec![0; space]),
        }
    }

    /// Zero cells for an aggregate kind: as wide as the measure it sums
    /// (a difference: the wider column), one byte for COUNT.
    fn for_kind(space: usize, kind: &RowWeight) -> Self {
        Cells::zeros(space, kind.width_bytes())
    }

    /// Number of cells.
    fn len(&self) -> usize {
        with_cells!(self, |c| c.len())
    }

    /// Bytes one cell occupies (1, 2, 4 or 8).
    fn width_bytes(&self) -> usize {
        match self {
            Cells::I8(_) => 1,
            Cells::I16(_) => 2,
            Cells::I32(_) => 4,
            Cells::I64(_) => 8,
        }
    }

    /// Cell `i`, widened to `i64`.
    fn get(&self, i: usize) -> i64 {
        with_cells!(self, |c| wide(c[i]))
    }

    /// Copies every cell into the next width up.
    #[cold]
    fn widen(&mut self) {
        fn up<T: Cell, U: Cell>(cells: &[T]) -> Vec<U> {
            cells
                .iter()
                .map(|&v| U::try_from(wide(v)).ok().expect("a wider cell holds every value"))
                .collect()
        }
        *self = match self {
            Cells::I8(c) => Cells::I16(up(c)),
            Cells::I16(c) => Cells::I32(up(c)),
            Cells::I32(c) => Cells::I64(up(c)),
            Cells::I64(_) => unreachable!("callers bound every sum below 2⁶³ (`cells_fit`)"),
        };
    }

    /// `cell[index(i)] += value(i)` for every `i < n`, in order, widening
    /// the cells whenever a sum outgrows their width.
    #[inline]
    fn add(&mut self, n: usize, index: impl Fn(usize) -> usize, value: impl Fn(usize) -> i64) {
        let mut from = 0;
        while let Some(stop) = with_cells!(self, |c| add_from(c, from, n, &index, &value)) {
            self.widen();
            from = stop;
        }
    }

    /// Adds another partial's cells into these (shard merge: exact).
    fn merge(&mut self, other: Cells) {
        self.add(other.len(), |i| i, |i| other.get(i));
    }

    /// `Φ · W`: the real-valued weight tensor dotted with the cells in
    /// ascending flat-code order.
    fn dot(&self, tensor: &[f64]) -> f64 {
        with_cells!(self, |c| tensor.iter().zip(c).map(|(p, &w)| p * wide(w) as f64).sum())
    }

    /// The sum, in `i64`, of every cell whose codes pass their axis masks
    /// (`(domain, mask)` per axis, outermost first): see [`masked_sum`].
    fn masked_sum(&self, axes: &[(usize, Option<&[bool]>)]) -> i64 {
        with_cells!(self, |c| masked_sum(c, axes))
    }
}

/// Drains one chunk of folded flat codes into the cells of one aggregate
/// kind: the row-weight match — and a SUM's measure width — hoisted out of
/// the row loop, rows visited in ascending order.
fn drain_hist(cells: &mut Cells, flat: &[u32], kind: &RowWeight, chunk_start: usize) {
    let at = |i: usize| flat[i] as usize;
    match kind {
        RowWeight::Ones => cells.add(flat.len(), at, |_| 1),
        RowWeight::Measure(m) => {
            let rows = chunk_start..chunk_start + flat.len();
            with_measures!(m.slice(rows), |m| cells.add(flat.len(), at, |i| wide(m[i])))
        }
        RowWeight::Diff(a, b) => {
            cells.add(flat.len(), at, |i| a.get(chunk_start + i) - b.get(chunk_start + i))
        }
    }
}

/// Largest joint code space [`WeightHistogram::build`] accepts: 2²⁰ cells,
/// at most 8 MiB per aggregate and one to four bytes a cell in practice.
/// A service retains histograms only up to [`crate::DENSE_GROUP_CAP`];
/// the space between the two caps is for a histogram built, used and
/// dropped within one evaluation.
pub const W_SPACE_CEILING: usize = 1 << 20;

/// A reusable joint attribute-code histogram `W` — the build half of the
/// paper's `Q = Φ·W` factoring (Eq. 11): a service builds `W` once per
/// (axis set, aggregates, data version) and answers every later query over
/// those axes without scanning.
///
/// A `WeightHistogram` is fully owned: it keeps the normalized axis list
/// (deduplicated, ascending dimension order, stable within a dimension),
/// the joint code space, and one set of natural-width cells per aggregate.
#[derive(Debug, Clone)]
pub struct WeightHistogram {
    /// Normalized `(table, attr, domain)` axes, ascending dimension order.
    axes: Vec<(String, String, usize)>,
    /// Per axis of a pruned histogram ([`WeightHistogram::build_for`]): the
    /// ascending codes kept — `W` code `i` holds code `kept[i]`, one spill
    /// `W` code past them every other code — or `None` for an axis kept
    /// whole. Empty when no axis is pruned.
    kept: Vec<Option<Box<[u32]>>>,
    space: usize,
    /// One set of cells per distinct aggregate, in the order `build` was
    /// given them.
    cells: Vec<(Agg, Cells)>,
}

/// Normalized weighted-axis names: deduplicated `(table, attr)` pairs in
/// ascending dimension order — the shape cache layers key on.
pub type AxisNames = Vec<(String, String)>;

/// `W` codes along an axis of `domain` codes: all of them, or the `kept`
/// ones plus a spill code.
fn w_size(domain: usize, kept: Option<&[u32]>) -> usize {
    kept.map_or(domain, |kept| kept.len() + 1)
}

/// A mask over an axis's codes as a mask over its `W` codes: unchanged on
/// a whole axis; on one pruned to `kept`, the kept codes' bits and then
/// the spill code's. Errors when the spill's codes disagree: the histogram
/// cannot tell their rows apart.
fn w_mask(mask: Vec<bool>, kept: Option<&[u32]>, attr: &str) -> Result<Vec<bool>, EngineError> {
    let Some(kept) = kept else {
        return Ok(mask);
    };
    let mut w: Vec<bool> = kept.iter().map(|&code| mask[code as usize]).collect();
    let mut spill =
        (0u32..).zip(&mask).filter(|(code, _)| kept.binary_search(code).is_err()).map(|(_, &m)| m);
    let first = spill.next().unwrap_or(false);
    if spill.any(|pass| pass != first) {
        return Err(EngineError::InvalidConstraint(format!(
            "a constraint on `{attr}` splits the codes this histogram pruned into one"
        )));
    }
    w.push(first);
    Ok(w)
}

/// Each axis's 0/1 mask over its codes for `query` — its predicates on
/// that axis ANDed — or `None` for an axis it leaves unconstrained. Errors
/// on a predicate outside `axes` or a constraint outside its domain.
fn code_masks(
    axes: &[(String, String, usize)],
    query: &StarQuery,
) -> Result<Vec<Option<Vec<bool>>>, EngineError> {
    let mut masks: Vec<Option<Vec<bool>>> = vec![None; axes.len()];
    for p in &query.predicates {
        let slot = slot(axes, &p.table, &p.attr)?;
        let domain = axes[slot].2;
        p.constraint.validate_size(&p.attr, domain as u32)?;
        let mask = masks[slot].get_or_insert_with(|| vec![true; domain]);
        for (code, keep) in (0u32..).zip(mask.iter_mut()) {
            *keep &= p.constraint.matches(code);
        }
    }
    Ok(masks)
}

/// Each axis's weight vector for `predicates` — same-axis predicates
/// multiplied together in order — or `None` for an axis they leave
/// unconstrained. Errors on a predicate outside `axes` or a weight vector
/// whose length is not its axis's domain.
fn axis_weights(
    axes: &[(String, String, usize)],
    predicates: &[WeightedPredicate],
) -> Result<Vec<Option<Vec<f64>>>, EngineError> {
    let mut per_axis: Vec<Option<Vec<f64>>> = vec![None; axes.len()];
    for wp in predicates {
        let slot = slot(axes, &wp.table, &wp.attr)?;
        let domain = axes[slot].2;
        if wp.weights.len() != domain {
            return Err(EngineError::WeightLengthMismatch {
                attr: wp.attr.clone(),
                got: wp.weights.len(),
                expected: domain as u32,
            });
        }
        match &mut per_axis[slot] {
            Some(weights) => {
                for (slot, w) in weights.iter_mut().zip(&wp.weights) {
                    *slot *= w;
                }
            }
            None => per_axis[slot] = Some(wp.weights.clone()),
        }
    }
    Ok(per_axis)
}

/// The slot of the axis `table.attr`, or an error naming it.
fn slot(axes: &[(String, String, usize)], table: &str, attr: &str) -> Result<usize, EngineError> {
    axes.iter().position(|(t, a, _)| t == table && a == attr).ok_or_else(|| {
        EngineError::InvalidConstraint(format!(
            "axis `{table}.{attr}` is not covered by this histogram"
        ))
    })
}

/// Axes resolved against a schema: dimension index, pk-indexed codes,
/// domain size, the owned names, and the codes kept when pruned.
struct ResolvedAxis<'a> {
    dim: usize,
    codes: &'a [u32],
    domain: usize,
    table: String,
    attr: String,
    kept: Option<Box<[u32]>>,
}

impl ResolvedAxis<'_> {
    /// The owned `(table, attr, domain)` a histogram keeps for this axis.
    fn named(&self) -> (String, String, usize) {
        (self.table.clone(), self.attr.clone(), self.domain)
    }
}

/// The `(table, attr)` names of the axes `predicates` constrain.
fn predicate_axes(predicates: &[WeightedPredicate]) -> AxisNames {
    predicates.iter().map(|p| (p.table.clone(), p.attr.clone())).collect()
}

fn resolve_axes<'a>(
    schema: &'a StarSchema,
    axes: &[(String, String)],
) -> Result<Vec<ResolvedAxis<'a>>, EngineError> {
    let mut resolved: Vec<ResolvedAxis<'a>> = Vec::with_capacity(axes.len());
    for (table, attr) in axes {
        let dim = schema.dim_index(table)?;
        let codes = schema.dims()[dim].table.codes(attr)?;
        let domain = schema.dims()[dim].table.domain(attr)?.size() as usize;
        // One column → one axis: same-column predicates multiply into it.
        if !resolved.iter().any(|a| std::ptr::eq(a.codes, codes)) {
            resolved.push(ResolvedAxis {
                dim,
                codes,
                domain,
                table: table.clone(),
                attr: attr.clone(),
                kept: None,
            });
        }
    }
    // Stable sort: ascending dimension, first-appearance order within one.
    resolved.sort_by_key(|a| a.dim);
    Ok(resolved)
}

/// The joint code space of resolved axes, `None` past [`W_SPACE_CEILING`].
fn joint_space(resolved: &[ResolvedAxis]) -> Option<usize> {
    resolved
        .iter()
        .try_fold(1usize, |s, a| s.checked_mul(w_size(a.domain, a.kept.as_deref())))
        .filter(|&s| s <= W_SPACE_CEILING)
}

impl WeightHistogram {
    /// Normalizes an axis list against `schema` without scanning anything:
    /// returns the deduplicated `(table, attr)` names in ascending dimension
    /// order plus `Some(joint code space)` when it fits [`W_SPACE_CEILING`]
    /// (`None` means [`WeightHistogram::build`] would refuse these axes, so
    /// callers should fall back to a fused scan). Cache layers key on this
    /// normalized form.
    pub fn plan_axes(
        schema: &StarSchema,
        axes: &[(String, String)],
    ) -> Result<(AxisNames, Option<usize>), EngineError> {
        let resolved = resolve_axes(schema, axes)?;
        let space = joint_space(&resolved);
        Ok((resolved.into_iter().map(|a| (a.table, a.attr)).collect(), space))
    }

    /// The normalized axes of a binary query a histogram can answer
    /// exactly ([`WeightHistogram::answer_query`]), with their joint code
    /// space, or `None` when the query needs a fact scan. Covered means:
    /// scalar; COUNT or SUM of a measure; at least one predicate and every
    /// one on a star dimension; a joint code space within
    /// [`W_SPACE_CEILING`] and no larger than the fact table (a bigger `W`
    /// holds more cells than the rows it summarises); and sums that stay
    /// below 2⁵³, so the exact integer answer is the `f64` the reference
    /// executor accumulates. Errors on a predicate the scan would refuse
    /// (unknown attribute, constraint outside its domain).
    pub fn covered_axes(
        schema: &StarSchema,
        query: &StarQuery,
    ) -> Result<Option<(AxisNames, usize)>, EngineError> {
        let scalar_count_or_sum =
            query.group_by.is_empty() && !matches!(query.agg, Agg::SumDiff(..));
        if !scalar_count_or_sum || query.predicates.is_empty() {
            return Ok(None);
        }
        let mut axes = Vec::with_capacity(query.predicates.len());
        for p in &query.predicates {
            let Ok(dim) = schema.dim_index(&p.table) else {
                return Ok(None); // a snowflake predicate: the scan folds it
            };
            p.constraint.validate(schema.dims()[dim].table.domain(&p.attr)?)?;
            axes.push((p.table.clone(), p.attr.clone()));
        }
        let (axes, space) = Self::plan_axes(schema, &axes)?;
        let fact_rows = schema.fact().num_rows();
        let exact = sums_stay_exact(fact_rows, RowWeight::max_abs(schema, &query.agg)?);
        Ok(space.filter(|&s| s <= fact_rows && exact).map(|s| (axes, s)))
    }

    /// Builds the histogram of every aggregate in `aggs` — one, or a list;
    /// duplicates count once — in **one** scan of the fact table (counted
    /// in [`crate::fact_scan_count`]): each chunk's flat codes are folded
    /// once, then `cell[flat(row)] += agg(row)` drains into every
    /// aggregate's cells. The scan shards as `options.threads` says;
    /// integer partials merge exactly, so the kernel may size the split
    /// freely. Errors if the axis list is empty, the joint code space
    /// exceeds [`W_SPACE_CEILING`], `aggs` is empty, or an aggregate's sums
    /// could overflow `i64`.
    pub fn build(
        schema: &StarSchema,
        axes: &[(String, String)],
        aggs: impl AsRef<[Agg]>,
        options: ScanOptions,
    ) -> Result<Self, EngineError> {
        Self::build_resolved(schema, resolve_axes(schema, axes)?, aggs.as_ref(), options)
    }

    /// Builds, in one scan as [`WeightHistogram::build`] does, the
    /// histogram a batch of binary queries needs: over their axes and
    /// aggregates, each axis pruned to the codes some query passes plus one
    /// spill code holding every other code's rows. It answers each of
    /// `queries` ([`WeightHistogram::answer_query`]), and any other query
    /// that passes all of each spill's codes or none; other queries error.
    pub fn build_for(
        schema: &StarSchema,
        queries: &[&StarQuery],
        options: ScanOptions,
    ) -> Result<Self, EngineError> {
        let names: AxisNames = queries
            .iter()
            .flat_map(|q| &q.predicates)
            .map(|p| (p.table.clone(), p.attr.clone()))
            .collect();
        let mut resolved = resolve_axes(schema, &names)?;
        let axes: Vec<(String, String, usize)> = resolved.iter().map(ResolvedAxis::named).collect();
        let mut passed: Vec<Vec<bool>> = axes.iter().map(|a| vec![false; a.2]).collect();
        for query in queries {
            for (passed, mask) in passed.iter_mut().zip(code_masks(&axes, query)?) {
                match mask {
                    Some(mask) => passed.iter_mut().zip(mask).for_each(|(p, m)| *p |= m),
                    None => passed.fill(true),
                }
            }
        }
        for (a, passed) in resolved.iter_mut().zip(passed) {
            if passed.contains(&false) {
                a.kept =
                    Some((0u32..).zip(passed).filter(|&(_, p)| p).map(|(code, _)| code).collect());
            }
        }
        let aggs: Vec<Agg> = queries.iter().map(|q| q.agg.clone()).collect();
        Self::build_resolved(schema, resolved, &aggs, options)
    }

    /// The one scan behind [`WeightHistogram::build`] and
    /// [`WeightHistogram::build_for`].
    fn build_resolved(
        schema: &StarSchema,
        resolved: Vec<ResolvedAxis>,
        aggs: &[Agg],
        options: ScanOptions,
    ) -> Result<Self, EngineError> {
        if resolved.is_empty() {
            return Err(EngineError::InvalidConstraint(
                "a weight histogram needs at least one axis".into(),
            ));
        }
        let space = joint_space(&resolved).ok_or_else(|| {
            EngineError::InvalidConstraint(format!(
                "joint code space of {} axes exceeds the weight histogram ceiling of \
                 {W_SPACE_CEILING} cells",
                resolved.len()
            ))
        })?;
        let mut distinct: Vec<Agg> = Vec::new();
        for agg in aggs {
            if !distinct.contains(agg) {
                distinct.push(agg.clone());
            }
        }
        if distinct.is_empty() {
            return Err(EngineError::InvalidConstraint(
                "a weight histogram needs at least one aggregate".into(),
            ));
        }
        let fact_rows = schema.fact().num_rows();
        let mut kinds = Vec::with_capacity(distinct.len());
        for agg in &distinct {
            if !cells_fit(fact_rows, RowWeight::max_abs(schema, agg)?) {
                return Err(EngineError::InvalidConstraint(format!(
                    "{agg:?} over {fact_rows} rows can overflow a 64-bit histogram cell"
                )));
            }
            kinds.push(RowWeight::resolve(schema, agg)?);
        }
        let fks: Vec<Keys> = resolved
            .iter()
            .map(|a| schema.fact().key(&schema.dims()[a.dim].fk))
            .collect::<Result<_, _>>()?;
        // The `W` code of every dimension row, pk-indexed like `codes`.
        let w_codes: Vec<Cow<[u32]>> = resolved
            .iter()
            .map(|a| match &a.kept {
                None => Cow::Borrowed(a.codes),
                Some(kept) => {
                    let mut recode = vec![kept.len() as u32; a.domain];
                    for (w, &code) in (0u32..).zip(kept.iter()) {
                        recode[code as usize] = w;
                    }
                    Cow::Owned(a.codes.iter().map(|&code| recode[code as usize]).collect())
                }
            })
            .collect();

        // Flat codes folded axis-major once per 4096-row chunk, then one
        // drain per aggregate kind.
        let scan = |lo: usize, hi: usize| -> Vec<Cells> {
            let mut cells: Vec<Cells> = kinds.iter().map(|k| Cells::for_kind(space, k)).collect();
            let mut flat: Vec<u32> = Vec::with_capacity(CHUNK_ROWS);
            let mut chunk_start = lo;
            while chunk_start < hi {
                let chunk_end = (chunk_start + CHUNK_ROWS).min(hi);
                flat.clear();
                flat.resize(chunk_end - chunk_start, 0);
                for ((fk, codes), a) in fks.iter().zip(&w_codes).zip(&resolved) {
                    with_keys!(fk.slice(chunk_start..chunk_end), |fk| {
                        fold_flat(&mut flat, fk, codes, w_size(a.domain, a.kept.as_deref()))
                    });
                }
                for (cells, kind) in cells.iter_mut().zip(&kinds) {
                    drain_hist(cells, &flat, kind, chunk_start);
                }
                chunk_start = chunk_end;
            }
            cells
        };
        let bounds = shard_bounds(fact_rows, options.threads, true);
        let merge = |merged: &mut Vec<Cells>, shard: Vec<Cells>| {
            for (cells, part) in merged.iter_mut().zip(shard) {
                cells.merge(part);
            }
        };
        let cells = scan_shards(&bounds, scan, merge);
        fact_scans_add();
        let k = kernel_counters();
        let chunks = chunk_count(&bounds);
        KernelCounters::add(&k.chunks_scanned, chunks);
        // The histogram interior reads each axis fk straight from the
        // source array — one direct pass per axis per chunk.
        KernelCounters::add(&k.direct_gathers, resolved.len() as u64 * chunks);
        let fk_bytes: usize = fks.iter().map(|fk| fk.width_bytes() * fact_rows).sum();
        KernelCounters::add(&k.fk_bytes_read, fk_bytes as u64);
        let pruned = resolved.iter().any(|a| a.kept.is_some());
        let (axes, kept): (Vec<_>, Vec<_>) =
            resolved.into_iter().map(|a| (a.named(), a.kept)).unzip();
        Ok(WeightHistogram {
            axes,
            kept: if pruned { kept } else { Vec::new() },
            space,
            cells: distinct.into_iter().zip(cells).collect(),
        })
    }

    /// The normalized `(table, attr)` axes this histogram covers.
    pub fn axes(&self) -> Vec<(String, String)> {
        self.axes.iter().map(|(t, a, _)| (t.clone(), a.clone())).collect()
    }

    /// The joint code space (= number of cells).
    pub fn space(&self) -> usize {
        self.space
    }

    /// Bytes one cell of `agg` occupies (1, 2, 4 or 8): the narrowest width
    /// that held every sum of the build. `None` if the histogram does not
    /// accumulate `agg`.
    pub fn cell_width_bytes(&self, agg: &Agg) -> Option<usize> {
        self.cells_of(agg).ok().map(Cells::width_bytes)
    }

    /// The cells of `agg`, or an error unless the histogram accumulates it.
    fn cells_of(&self, agg: &Agg) -> Result<&Cells, EngineError> {
        let found = self.cells.iter().find(|(held, _)| held == agg);
        found.map(|(_, cells)| cells).ok_or_else(|| {
            let held: Vec<&Agg> = self.cells.iter().map(|(held, _)| held).collect();
            EngineError::InvalidConstraint(format!(
                "histogram accumulates {held:?}, query aggregates {agg:?}"
            ))
        })
    }

    /// Answers one weighted query as the dot product `Φ_q · W` — no fact
    /// scan. Same-axis predicates multiply into one weight vector and axes
    /// the query does not constrain contribute factor 1; the outer-product
    /// tensor is dotted with the cells in flat-code order. This is how
    /// [`crate::execute_weighted_batch_with`] answers a batch that fits one
    /// `W`, so a cached `W` over the same axes returns **bit-identical**
    /// `f64`s. Errors when the aggregate differs
    /// from the histogram's, a predicate names an uncovered axis, a weight
    /// vector has the wrong length, or the histogram is pruned
    /// ([`WeightHistogram::build_for`]).
    pub fn answer(&self, predicates: &[WeightedPredicate], agg: &Agg) -> Result<f64, EngineError> {
        let cells = self.cells_of(agg)?;
        if !self.kept.is_empty() {
            return Err(EngineError::InvalidConstraint(
                "a pruned weight histogram answers binary queries only".into(),
            ));
        }
        let per_axis = axis_weights(&self.axes, predicates)?;
        let domains: Vec<usize> = self.axes.iter().map(|a| a.2).collect();
        Ok(cells.dot(&weight_tensor(&domains, &per_axis)))
    }

    /// Answers a binary star query over a subset of the axes — the exact
    /// COUNT or integer SUM of the rows its predicates select — without a
    /// fact scan. Each axis's predicates AND into one 0/1 code mask, axes
    /// the query does not constrain sum out, and the cells contract axis by
    /// axis, innermost first, in `i64`: exact in any order. For a query
    /// [`WeightHistogram::covered_axes`] accepts, the result is the `f64`
    /// [`crate::exec::reference`] returns, bit for bit. Errors on a
    /// different aggregate, a GROUP BY, an uncovered axis, a constraint
    /// outside its axis's domain, or one that splits a pruned axis's spill
    /// code ([`WeightHistogram::build_for`]).
    pub fn answer_query(&self, query: &StarQuery) -> Result<f64, EngineError> {
        let cells = self.cells_of(&query.agg)?;
        if !query.group_by.is_empty() {
            return Err(EngineError::InvalidConstraint(
                "a weight histogram answers scalar queries only".into(),
            ));
        }
        let kept = |slot: usize| self.kept.get(slot).and_then(|kept| kept.as_deref());
        let mut masks: Vec<Option<Vec<bool>>> = Vec::with_capacity(self.axes.len());
        for (slot, mask) in code_masks(&self.axes, query)?.into_iter().enumerate() {
            masks.push(mask.map(|mask| w_mask(mask, kept(slot), &self.axes[slot].1)).transpose()?);
        }
        let axes: Vec<(usize, Option<&[bool]>)> = (self.axes.iter().zip(&masks).enumerate())
            .map(|(slot, (a, mask))| (w_size(a.2, kept(slot)), mask.as_deref()))
            .collect();
        Ok(cells.masked_sum(&axes) as f64)
    }
}

/// The flattened weight tensor `Φ_q` over a row-major joint code space:
/// the outer product of the per-axis weight vectors, an axis without one
/// contributing factor 1.
fn weight_tensor(domains: &[usize], per_axis: &[Option<Vec<f64>>]) -> Vec<f64> {
    let mut tensor = vec![1.0f64];
    for (&domain, weights) in domains.iter().zip(per_axis) {
        let mut next = Vec::with_capacity(tensor.len() * domain);
        for &t in &tensor {
            match weights {
                Some(w) => next.extend(w.iter().map(|&wc| t * wc)),
                None => next.extend(std::iter::repeat_n(t, domain)),
            }
        }
        tensor = next;
    }
    tensor
}

/// A weighted query for batch execution: real-valued per-domain weights
/// (paper Eq. 11) and an aggregate, evaluated as
/// `Σ_rows Π_dims w_dim(attr(fk)) · w(row)`.
#[derive(Debug, Clone)]
pub struct WeightedQuery {
    /// The weighted predicates (dimensions without one contribute factor 1).
    pub predicates: Vec<WeightedPredicate>,
    /// Row-weight aggregate.
    pub agg: Agg,
}

impl WeightedQuery {
    /// A weighted COUNT query.
    pub fn count(predicates: Vec<WeightedPredicate>) -> Self {
        WeightedQuery { predicates, agg: Agg::Count }
    }
}

/// One weighted query resolved for the row loop: per axis, in ascending
/// dimension order, its dimension, pk-indexed codes and merged weights.
type Factors<'a> = Vec<(usize, &'a [u32], Vec<f64>)>;

fn factors<'a>(
    schema: &'a StarSchema,
    predicates: &[WeightedPredicate],
) -> Result<Factors<'a>, EngineError> {
    let resolved = resolve_axes(schema, &predicate_axes(predicates))?;
    let axes: Vec<(String, String, usize)> = resolved.iter().map(ResolvedAxis::named).collect();
    let weights = axis_weights(&axes, predicates)?;
    Ok(resolved
        .into_iter()
        .zip(weights)
        .map(|(a, w)| (a.dim, a.codes, w.expect("every axis comes from a predicate")))
        .collect())
}

/// The axes of the one `W` that answers a whole weighted batch: the union
/// of its queries' axes, normalized as [`WeightHistogram::plan_axes`] does.
/// `None` sends the batch to the row loop: no axis at all, a joint code
/// space past [`DENSE_GROUP_CAP`], or an aggregate whose sums could
/// overflow an `i64` cell.
fn batch_axes<'a>(
    schema: &'a StarSchema,
    queries: &[WeightedQuery],
) -> Result<Option<Vec<ResolvedAxis<'a>>>, EngineError> {
    let names: AxisNames = queries.iter().flat_map(|q| predicate_axes(&q.predicates)).collect();
    let axes = resolve_axes(schema, &names)?;
    let mut max_row_weight = 0;
    for q in queries {
        max_row_weight = max_row_weight.max(RowWeight::max_abs(schema, &q.agg)?);
    }
    let fits = !axes.is_empty()
        && joint_space(&axes).is_some_and(|space| space <= DENSE_GROUP_CAP)
        && cells_fit(schema.fact().num_rows(), max_row_weight);
    Ok(fits.then_some(axes))
}

/// Answers a batch of weighted queries in input order with at most one
/// fact scan: one `W` over the batch's axes and aggregates when it fits
/// ([`batch_axes`]), each query then its dot product; otherwise one row
/// loop. Every query is resolved before anything is scanned.
pub(crate) fn execute_weighted_batch(
    schema: &StarSchema,
    queries: &[WeightedQuery],
    options: ScanOptions,
) -> Result<Vec<f64>, EngineError> {
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let resolved: Vec<Factors> =
        queries.iter().map(|q| factors(schema, &q.predicates)).collect::<Result<_, _>>()?;
    if let Some(axes) = batch_axes(schema, queries)? {
        let aggs: Vec<Agg> = queries.iter().map(|q| q.agg.clone()).collect();
        let w = WeightHistogram::build_resolved(schema, axes, &aggs, options)?;
        return queries.iter().map(|q| w.answer(&q.predicates, &q.agg)).collect();
    }
    row_loop(schema, queries, &resolved, options)
}

/// One plain pass over the fact rows answering every query with the
/// reference executor's accumulation step: skip a zero row weight,
/// multiply the axis weights in dimension order with early exit, add.
/// Real-weighted sums depend on the split, so the kernel keeps one shard
/// unless `options.threads` forces more; partials merge in shard order.
fn row_loop(
    schema: &StarSchema,
    queries: &[WeightedQuery],
    factors: &[Factors],
    options: ScanOptions,
) -> Result<Vec<f64>, EngineError> {
    let fks: Vec<Keys> =
        schema.dims().iter().map(|d| schema.fact().key(&d.fk)).collect::<Result<_, _>>()?;
    let weights: Vec<RowWeight> =
        queries.iter().map(|q| RowWeight::resolve(schema, &q.agg)).collect::<Result<_, _>>()?;
    let scan = |lo: usize, hi: usize| -> Vec<f64> {
        let mut totals = vec![0.0f64; queries.len()];
        let mut chunk_start = lo;
        while chunk_start < hi {
            let rows = chunk_start..(chunk_start + CHUNK_ROWS).min(hi);
            for ((total, weight), axes) in totals.iter_mut().zip(&weights).zip(factors) {
                for row in rows.clone() {
                    let mut w = weight.at(row);
                    if w == 0.0 {
                        continue;
                    }
                    for (dim, codes, axis) in axes {
                        w *= axis[codes[fks[*dim].get(row) as usize] as usize];
                        if w == 0.0 {
                            break;
                        }
                    }
                    *total += w;
                }
            }
            chunk_start = rows.end;
        }
        totals
    };
    let bounds = shard_bounds(schema.fact().num_rows(), options.threads, false);
    let merge = |merged: &mut Vec<f64>, shard: Vec<f64>| {
        for (total, part) in merged.iter_mut().zip(shard) {
            *total += part;
        }
    };
    let totals = scan_shards(&bounds, scan, merge);
    fact_scans_add();
    KernelCounters::add(&kernel_counters().chunks_scanned, chunk_count(&bounds));
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::domain::Domain;
    use crate::exec::reference;
    use crate::plan::scans_of;
    use crate::predicate::Predicate;
    use crate::query::GroupAttr;
    use crate::schema::Dimension;
    use crate::table::Table;

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

    fn both_axes() -> AxisNames {
        vec![("A".to_string(), "attr".to_string()), ("B".to_string(), "attr".to_string())]
    }

    #[test]
    fn cells_widen_on_overflow_and_merge_exactly() {
        let mut cells = Cells::zeros(2, 1);
        cells.add(300, |i| i % 2, |_| 1);
        assert_eq!(cells, Cells::I16(vec![150, 150]), "151st row past i8 widens to i16");
        let mut wide = Cells::zeros(2, 1);
        wide.add(2, |i| i, |i| if i == 0 { -(1 << 40) } else { 7 });
        assert_eq!(wide.width_bytes(), 8);
        cells.merge(wide);
        assert_eq!(cells, Cells::I64(vec![150 - (1 << 40), 157]));
        assert!(cells_fit(1 << 21, (1 << 42) - 1) && !cells_fit(1 << 21, 1 << 42));
    }

    #[test]
    fn masked_sum_contracts_every_axis() {
        // A 2 × 3 block, row-major: [[1, 2, 3], [4, 5, 6]].
        let cells = Cells::I8(vec![1, 2, 3, 4, 5, 6]);
        let (outer, inner): (&[bool], &[bool]) = (&[false, true], &[true, false, true]);
        assert_eq!(cells.masked_sum(&[(2, None), (3, None)]), 21);
        assert_eq!(cells.masked_sum(&[(2, Some(outer)), (3, None)]), 15);
        assert_eq!(cells.masked_sum(&[(2, None), (3, Some(inner))]), 1 + 3 + 4 + 6);
        assert_eq!(cells.masked_sum(&[(2, Some(outer)), (3, Some(inner))]), 4 + 6);
    }

    #[test]
    fn weighted_batches_within_the_cap_answer_from_one_w() {
        let s = schema();
        // Mixed aggregates over A and B: one W with two sets of cells.
        let batch = vec![
            WeightedQuery::count(vec![WeightedPredicate::new("A", "attr", vec![1.0, 0.5, 0.0])]),
            WeightedQuery {
                predicates: vec![
                    WeightedPredicate::new("A", "attr", vec![0.0, 1.0, 1.0]),
                    WeightedPredicate::new("B", "attr", vec![1.0, 0.25]),
                ],
                agg: Agg::Sum("qty".into()),
            },
        ];
        let axes = batch_axes(&s, &batch).unwrap().expect("6 cells fit the dense cap");
        assert_eq!(joint_space(&axes), Some(6));
        for threads in [0usize, 1, 3] {
            let options = ScanOptions::parallel(threads);
            let answers = execute_weighted_batch(&s, &batch, options).unwrap();
            let scans = scans_of(|| execute_weighted_batch(&s, &batch, options));
            assert_eq!(scans, 1, "one W build answers the batch");
            // Query 0: rows with fk_a = 0 weigh 1, fk_a = 1 weigh 0.5 → 3.
            // Query 1: Σ qty·wA·wB over rows 2..6: 3 + 1 + 5 + 1.5 = 10.5.
            assert_eq!(answers, [3.0, 10.5]);
            for (q, answer) in batch.iter().zip(&answers) {
                let oracle = reference::execute_weighted(&s, &q.predicates, &q.agg).unwrap();
                assert_eq!(answer.to_bits(), oracle.to_bits(), "{:?}", q.agg);
            }
        }
        assert_eq!(execute_weighted_batch(&s, &[], ScanOptions::default()).unwrap(), []);
        let short = WeightedQuery::count(vec![WeightedPredicate::new("B", "attr", vec![1.0])]);
        let invalid = [batch[0].clone(), short];
        let refused = execute_weighted_batch(&s, &invalid, ScanOptions::default());
        assert!(matches!(refused, Err(EngineError::WeightLengthMismatch { .. })));
        let scans = scans_of(|| {
            execute_weighted_batch(&s, &[], ScanOptions::default()).unwrap();
            execute_weighted_batch(&s, &invalid, ScanOptions::default()).unwrap_err();
        });
        assert_eq!(scans, 0, "empty and invalid batches never scan");
    }

    #[test]
    fn weighted_batches_past_the_cap_or_a_cell_run_one_row_loop() {
        // One dimension with a domain past DENSE_GROUP_CAP: the batch's
        // axis union does not fit one W, so every query takes the row loop.
        let wide_domain = (DENSE_GROUP_CAP + 1) as u32;
        let dwide = Domain::numeric("w", wide_domain).unwrap();
        let dsmall = Domain::numeric("s", 3).unwrap();
        let wide = Table::new(
            "W",
            vec![Column::key("pk", vec![0, 1]), Column::attr("w", dwide, vec![0, wide_domain - 1])],
        )
        .unwrap();
        let small = Table::new(
            "S",
            vec![Column::key("pk", vec![0, 1, 2]), Column::attr("s", dsmall, vec![0, 1, 2])],
        )
        .unwrap();
        let fact = Table::new(
            "F",
            vec![
                Column::key("fw", vec![0, 1, 1, 0]),
                Column::key("fs", vec![0, 1, 2, 2]),
                // 4 × 2⁶¹ reaches 2⁶³: no i64 cell can hold these sums.
                Column::measure("huge", vec![1 << 61, -(1 << 61), 3 << 59, 1]),
            ],
        )
        .unwrap();
        let s = StarSchema::new(
            fact,
            vec![Dimension::new(wide, "pk", "fw"), Dimension::new(small, "pk", "fs")],
        )
        .unwrap();
        let mut wide_weights = vec![0.0; wide_domain as usize];
        wide_weights[0] = 1.0;
        wide_weights[wide_domain as usize - 1] = 0.5;
        let small_weights = || WeightedPredicate::new("S", "s", vec![1.0, 0.5, 2.0]);
        let past_cap = vec![
            // Same-axis predicates multiply into one factor: 0.5, 0.25, 1.
            WeightedQuery::count(vec![
                small_weights(),
                WeightedPredicate::new("S", "s", vec![0.5, 0.5, 0.5]),
            ]),
            WeightedQuery::count(vec![WeightedPredicate::new("W", "w", wide_weights)]),
        ];
        let huge =
            vec![WeightedQuery { predicates: vec![small_weights()], agg: Agg::Sum("huge".into()) }];
        assert!(batch_axes(&s, &past_cap).unwrap().is_none(), "past the dense cap");
        assert!(batch_axes(&s, &past_cap[..1]).unwrap().is_some(), "S alone fits");
        assert!(batch_axes(&s, &huge).unwrap().is_none(), "sums past an i64 cell");
        for threads in [0usize, 1, 3] {
            let options = ScanOptions::parallel(threads);
            for batch in [&past_cap, &huge] {
                let answers = execute_weighted_batch(&s, batch, options).unwrap();
                let scans = scans_of(|| execute_weighted_batch(&s, batch, options));
                assert_eq!(scans, 1, "one row loop answers the batch");
                for (q, answer) in batch.iter().zip(&answers) {
                    let oracle = reference::execute_weighted(&s, &q.predicates, &q.agg).unwrap();
                    assert_eq!(answer.to_bits(), oracle.to_bits(), "{:?}", q.agg);
                }
            }
        }
        // s-codes 0, 1, 2, 2 weigh 0.5 + 0.25 + 1 + 1; w-codes 0, max, max,
        // 0 weigh 1 + 0.5 + 0.5 + 1.
        let answers = execute_weighted_batch(&s, &past_cap, ScanOptions::default()).unwrap();
        assert_eq!(answers, [2.75, 3.0]);
    }

    #[test]
    fn standalone_histograms_match_the_batch_evaluator_bit_for_bit() {
        let s = schema();
        // Arbitrary (non-dyadic) weights: bit-identity must come from doing
        // the same float ops in the same order, not from exact arithmetic.
        let batch = vec![
            WeightedQuery::count(vec![WeightedPredicate::new("A", "attr", vec![0.3, 1.7, 0.0])]),
            WeightedQuery {
                predicates: vec![
                    WeightedPredicate::new("A", "attr", vec![1.0, 0.1, 2.3]),
                    WeightedPredicate::new("B", "attr", vec![0.9, 1.1]),
                ],
                agg: Agg::Sum("qty".into()),
            },
        ];
        let axes = both_axes();
        for threads in [1usize, 3] {
            let options = ScanOptions::parallel(threads);
            let fused = execute_weighted_batch(&s, &batch, options).unwrap();
            let count_hist = WeightHistogram::build(&s, &axes, &Agg::Count, options).unwrap();
            let sum_hist =
                WeightHistogram::build(&s, &axes, Agg::Sum("qty".into()), options).unwrap();
            assert_eq!(
                count_hist.answer(&batch[0].predicates, &batch[0].agg).unwrap().to_bits(),
                fused[0].to_bits(),
                "count dot product diverged at threads={threads}"
            );
            assert_eq!(
                sum_hist.answer(&batch[1].predicates, &batch[1].agg).unwrap().to_bits(),
                fused[1].to_bits(),
                "sum dot product diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn binary_answers_match_the_reference_bit_for_bit() {
        let s = schema();
        let axes = both_axes();
        let queries = [
            StarQuery::count("a1").with(Predicate::point("A", "attr", 1)),
            StarQuery::count("b").with(Predicate::range("B", "attr", 0, 1)),
            StarQuery::sum("cost", "cost")
                .with(Predicate::range("A", "attr", 0, 1))
                .with(Predicate::point("B", "attr", 1)),
            StarQuery::sum("neg", "cost").with(Predicate::point("B", "attr", 1)),
            StarQuery::sum("none", "qty")
                .with(Predicate::point("A", "attr", 0))
                .with(Predicate::point("A", "attr", 2)),
            StarQuery::count("set").with(Predicate::set("A", "attr", vec![0, 2])),
        ];
        for threads in [1usize, 3] {
            let options = ScanOptions::parallel(threads);
            for q in &queries {
                let oracle = reference::execute(&s, q).unwrap().scalar().unwrap();
                let w = WeightHistogram::build(&s, &axes, &q.agg, options).unwrap();
                assert_eq!(w.answer_query(q).unwrap().to_bits(), oracle.to_bits(), "{}", q.name);
            }
        }
        let w = WeightHistogram::build(&s, &axes, &Agg::Count, ScanOptions::default()).unwrap();
        let outside = StarQuery::count("x").with(Predicate::point("A", "attr", 3));
        assert!(w.answer_query(&outside).is_err(), "a constraint outside its domain");
        let grouped = queries[0].clone().group_by(GroupAttr::new("B", "attr"));
        assert!(w.answer_query(&grouped).is_err());
        assert!(w.answer_query(&queries[2]).is_err(), "a SUM against a COUNT histogram");
    }

    #[test]
    fn coverage_follows_the_query_shape() {
        let s = schema();
        let covered =
            |q: &StarQuery| WeightHistogram::covered_axes(&s, q).unwrap().map(|(axes, _)| axes);
        let count = StarQuery::count("c").with(Predicate::point("B", "attr", 1));
        assert_eq!(covered(&count), Some(vec![("B".to_string(), "attr".to_string())]));
        let both = count.clone().with(Predicate::range("A", "attr", 0, 1));
        assert_eq!(covered(&both), Some(both_axes()), "6 cells over 6 rows");
        assert_eq!(WeightHistogram::covered_axes(&s, &both).unwrap().map(|c| c.1), Some(6));
        assert_eq!(covered(&count.clone().group_by(GroupAttr::new("A", "attr"))), None);
        let diff = StarQuery::sum_diff("d", "qty", "cost").with(Predicate::point("A", "attr", 1));
        assert_eq!(covered(&diff), None);
        assert_eq!(covered(&StarQuery::count("all")), None, "no predicate, no axis");
        let bad = StarQuery::count("bad").with(Predicate::point("A", "attr", 9));
        assert!(WeightHistogram::covered_axes(&s, &bad).is_err());
    }

    #[test]
    fn weight_histogram_normalizes_axes_and_probes_eligibility() {
        let s = schema();
        // Duplicates collapse and axes sort into ascending dimension order
        // regardless of the caller's order.
        let messy = vec![
            ("B".to_string(), "attr".to_string()),
            ("A".to_string(), "attr".to_string()),
            ("B".to_string(), "attr".to_string()),
        ];
        let (axes, space) = WeightHistogram::plan_axes(&s, &messy).unwrap();
        assert_eq!(axes, both_axes());
        assert_eq!(space, Some(6));
        let hist = WeightHistogram::build(&s, &messy, &Agg::Count, ScanOptions::default()).unwrap();
        assert_eq!(hist.axes(), axes);
        assert_eq!(hist.space(), 6);
        assert_eq!(hist.cell_width_bytes(&Agg::Count), Some(1), "counts start at one byte");
        let cost_agg = Agg::Sum("cost".into());
        let cost = WeightHistogram::build(&s, &axes, &cost_agg, ScanOptions::default()).unwrap();
        assert_eq!(cost.cell_width_bytes(&cost_agg), Some(2), "sums start at the measure's width");
        assert_eq!(cost.cell_width_bytes(&Agg::Count), None, "not accumulated");
        // Same-axis predicates multiply into one weight vector: weights
        // 1·0.5, 2·0.5, 4·0.5 over fanout 2 each → 2 · 3.5 = 7.
        let merged = hist
            .answer(
                &[
                    WeightedPredicate::new("A", "attr", vec![1.0, 2.0, 4.0]),
                    WeightedPredicate::new("A", "attr", vec![0.5, 0.5, 0.5]),
                ],
                &Agg::Count,
            )
            .unwrap();
        assert_eq!(merged, 7.0);
    }

    #[test]
    fn weight_histogram_rejects_mismatches() {
        let s = schema();
        let axes = vec![("A".to_string(), "attr".to_string())];
        let hist = WeightHistogram::build(&s, &axes, &Agg::Count, ScanOptions::default()).unwrap();
        // Wrong aggregate.
        assert!(hist
            .answer(&[WeightedPredicate::new("A", "attr", vec![1.0; 3])], &Agg::Sum("qty".into()))
            .is_err());
        // Uncovered axis.
        assert!(hist
            .answer(&[WeightedPredicate::new("B", "attr", vec![1.0; 2])], &Agg::Count)
            .is_err());
        // Wrong weight length.
        assert!(hist
            .answer(&[WeightedPredicate::new("A", "attr", vec![1.0; 5])], &Agg::Count)
            .is_err());
        // Empty axis list refuses to build; oversized joint spaces refuse too.
        assert!(WeightHistogram::build(&s, &[], &Agg::Count, ScanOptions::default()).is_err());
        // Unknown table errors cleanly.
        assert!(WeightHistogram::plan_axes(&s, &[("Ghost".into(), "attr".into())]).is_err());
    }

    #[test]
    fn joint_spaces_past_the_ceiling_refuse_to_build() {
        // 1 025² cells: just past 2²⁰.
        let s = grid(1025, 1025, 2);
        let (axes, space) = WeightHistogram::plan_axes(&s, &both_axes()).unwrap();
        assert_eq!(space, None);
        let refused = WeightHistogram::build(&s, &axes, &Agg::Count, ScanOptions::default());
        assert!(refused.unwrap_err().to_string().contains(&W_SPACE_CEILING.to_string()));
        let one = WeightHistogram::build(&s, &axes[..1], &Agg::Count, ScanOptions::default());
        assert_eq!(one.unwrap().space(), 1025);
    }

    /// Dimensions A and B with `a` and `b` identity codes over `rows` fact
    /// rows — `fk_a = i % a`, `fk_b = i / 7 % b` — with an i8 measure
    /// `small` and an i32 measure `big`.
    fn grid(a: u32, b: u32, rows: usize) -> StarSchema {
        let dim = |name: &str, n: u32| {
            let d = Domain::numeric("attr", n).unwrap();
            let attr = Column::attr("attr", d, (0..n).collect());
            Table::new(name, vec![Column::key("pk", (0..n).collect()), attr]).unwrap()
        };
        let fact = Table::new(
            "F",
            vec![
                Column::key("fk_a", (0..rows).map(|i| i as u32 % a).collect()),
                Column::key("fk_b", (0..rows).map(|i| i as u32 / 7 % b).collect()),
                Column::measure("small", (0..rows as i64).map(|i| i % 101 - 50).collect()),
                Column::measure("big", (0..rows as i64).map(|i| (i % 5 - 2) << 20).collect()),
            ],
        )
        .unwrap();
        let dims = vec![
            Dimension::new(dim("A", a), "pk", "fk_a"),
            Dimension::new(dim("B", b), "pk", "fk_b"),
        ];
        StarSchema::new(fact, dims).unwrap()
    }

    #[test]
    fn one_multi_aggregate_build_equals_the_per_aggregate_builds() {
        // 6 cells over three chunks and a ragged fourth: ~2 000 rows a cell
        // widen COUNT and the i8 sum; the i32 sum starts at four bytes.
        let s = grid(3, 2, 3 * CHUNK_ROWS + 5);
        assert_eq!(s.fact().measure("small").unwrap().width_bytes(), 1);
        assert_eq!(s.fact().measure("big").unwrap().width_bytes(), 4);
        let aggs = [Agg::Count, Agg::Sum("small".into()), Agg::Sum("big".into()), Agg::Count];
        for threads in [1usize, 3] {
            let options = ScanOptions::parallel(threads);
            let multi = WeightHistogram::build(&s, &both_axes(), &aggs, options).unwrap();
            let held: Vec<&Agg> = multi.cells.iter().map(|(agg, _)| agg).collect();
            assert_eq!(held, aggs[..3].iter().collect::<Vec<_>>(), "duplicates count once");
            for (agg, cells) in &multi.cells {
                let single = WeightHistogram::build(&s, &both_axes(), agg, options).unwrap();
                assert_eq!(single.cells, [(agg.clone(), cells.clone())], "{agg:?}");
            }
            assert_eq!(multi.cell_width_bytes(&Agg::Count), Some(2), "COUNT widened");
            assert_eq!(multi.cell_width_bytes(&aggs[1]), Some(2), "i8 sum widened");
            assert_eq!(multi.cell_width_bytes(&aggs[2]), Some(4));
        }
        assert!(WeightHistogram::build(&s, &both_axes(), [], ScanOptions::default()).is_err());
    }

    #[test]
    fn a_pruned_build_answers_its_queries_from_fewer_cells() {
        let s = grid(10, 10, 1_000);
        let queries =
            [
                StarQuery::count("c")
                    .with(Predicate::range("A", "attr", 2, 4))
                    .with(Predicate::point("B", "attr", 7)),
                StarQuery::sum("s", "big")
                    .with(Predicate::point("A", "attr", 3))
                    .with(Predicate::set("B", "attr", vec![1, 7])),
            ];
        // Every code of A's spill passes, and B keeps its own codes.
        let wide = StarQuery::count("wide")
            .with(Predicate::range("A", "attr", 0, 9))
            .with(Predicate::point("B", "attr", 1));
        let refs: Vec<&StarQuery> = queries.iter().collect();
        for threads in [1usize, 3] {
            let w = WeightHistogram::build_for(&s, &refs, ScanOptions::parallel(threads)).unwrap();
            assert_eq!(w.space(), 4 * 3, "A keeps 2..=4 and B keeps 1 and 7, each plus a spill");
            for q in queries.iter().chain([&wide]) {
                let oracle = reference::execute(&s, q).unwrap().scalar().unwrap();
                assert_eq!(w.answer_query(q).unwrap().to_bits(), oracle.to_bits(), "{}", q.name);
            }
            let split = StarQuery::count("split").with(Predicate::point("A", "attr", 5));
            assert!(w.answer_query(&split).is_err(), "code 5 shares A's spill");
            let weighted = [WeightedPredicate::new("A", "attr", vec![1.0; 10])];
            assert!(w.answer(&weighted, &Agg::Count).is_err(), "pruned cells answer binary only");
        }
    }

    #[test]
    fn weight_histogram_counts_one_fact_scan() {
        let s = schema();
        let axes = vec![("A".to_string(), "attr".to_string())];
        let build = || WeightHistogram::build(&s, &axes, &Agg::Count, ScanOptions::default());
        assert_eq!(scans_of(build), 1, "building W costs exactly one scan");
        let hist = build().unwrap();
        let scans = scans_of(|| {
            hist.answer(&[WeightedPredicate::new("A", "attr", vec![1.0, 0.5, 0.25])], &Agg::Count)
                .unwrap();
            hist.answer_query(&StarQuery::count("q").with(Predicate::point("A", "attr", 1)))
                .unwrap();
        });
        assert_eq!(scans, 0, "answering from W is scan-free");
    }
}
