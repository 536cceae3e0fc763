//! The joint attribute-code histogram `W` of the paper's `Q = Φ·W`
//! factoring (Eq. 11), and the integer cells it is made of.
//!
//! A cell holds the total row weight of one combination of attribute codes:
//! a row count, or an integer SUM of a measure. Cells are stored at their
//! natural width (`Cells`): they start at the width of the measure they
//! sum (one byte for COUNT) and widen, as a whole, only when a sum no
//! longer fits — the way [`crate::MeasureData`] stores a measure column.
//! Integer cells add exactly, so partials built on any row split merge to
//! the same cells, and a sum of cells is the exact integer any summation
//! order gives. The fused scan's per-batch histogram (`HistPlan` in
//! [`crate::plan`]) and the owned, reusable [`WeightHistogram`] share this
//! one representation and one drain.
//!
//! A [`WeightHistogram`] answers two kinds of query without a fact scan:
//!
//! * **weighted** ([`WeightHistogram::answer`], Workload Decomposition):
//!   the real-valued weight tensor `Φ_q` dotted with `W` in flat-code
//!   order — the same float operations, in the same order, as the fused
//!   scan's histogram path, so the two agree bit for bit;
//! * **binary** ([`WeightHistogram::answer_query`], the Predicate
//!   Mechanism): each predicate is a 0/1 mask over its axis, and the cells
//!   are contracted axis by axis, innermost first, in `i64`. Masks and
//!   integer cells make every summation order exact, so while the query's
//!   sums stay below 2⁵³ ([`WeightHistogram::covered_axes`]) the answer is
//!   the same `f64` the row-at-a-time reference executor accumulates.

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

/// One histogram cell width: a signed integer that widens to `i64`.
pub(crate) trait Cell: Copy + Into<i64> + TryFrom<i64> {}

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
pub(crate) enum Cells {
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
pub(crate) fn cells_fit(fact_rows: usize, max_row_weight: u64) -> bool {
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
    pub(crate) fn zeros(space: usize, width_bytes: usize) -> Self {
        match width_bytes {
            0 | 1 => Cells::I8(vec![0; space]),
            2 => Cells::I16(vec![0; space]),
            4 => Cells::I32(vec![0; space]),
            _ => Cells::I64(vec![0; space]),
        }
    }

    /// Zero cells for an aggregate kind: as wide as the measure it sums
    /// (a difference: the wider column), one byte for COUNT.
    pub(crate) fn for_kind(space: usize, kind: &RowWeight) -> Self {
        Cells::zeros(space, kind.width_bytes())
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        with_cells!(self, |c| c.len())
    }

    /// Bytes one cell occupies (1, 2, 4 or 8).
    pub(crate) fn width_bytes(&self) -> usize {
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
    pub(crate) fn merge(&mut self, other: Cells) {
        self.add(other.len(), |i| i, |i| other.get(i));
    }

    /// `Φ · W`: the real-valued weight tensor dotted with the cells in
    /// ascending flat-code order.
    pub(crate) fn dot(&self, tensor: &[f64]) -> f64 {
        with_cells!(self, |c| tensor.iter().zip(c).map(|(p, &w)| p * wide(w) as f64).sum())
    }

    /// The sum, in `i64`, of every cell whose codes pass their axis masks
    /// (`(domain, mask)` per axis, outermost first): see [`masked_sum`].
    fn masked_sum(&self, axes: &[(usize, Option<&[bool]>)]) -> i64 {
        with_cells!(self, |c| masked_sum(c, axes))
    }
}

/// Drains one chunk of staged flat codes into the cells of one aggregate
/// kind: the row-weight match — and a SUM's measure width — hoisted out of
/// the row loop, rows visited in ascending order.
pub(crate) fn drain_hist(cells: &mut Cells, flat: &[u32], kind: &RowWeight, chunk_start: usize) {
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

/// A reusable joint attribute-code histogram `W` — the build half of the
/// paper's `Q = Φ·W` factoring (Eq. 11), split out of the fused scan so a
/// service can build `W` once per (axis set, aggregate, data version) and
/// answer every later query over those axes without scanning.
///
/// Unlike the per-batch `HistPlan` (which borrows the schema), a
/// `WeightHistogram` is fully owned: it keeps the normalized axis list
/// (deduplicated, ascending dimension order — the same order
/// [`crate::ScanPlan::add_weighted`] sorts a query's axes into), the joint
/// code space, the aggregate kind, and the natural-width cells.
#[derive(Debug, Clone)]
pub struct WeightHistogram {
    /// Normalized `(table, attr, domain)` axes, ascending dimension order.
    axes: Vec<(String, String, usize)>,
    space: usize,
    agg: Agg,
    cells: Cells,
}

/// Normalized weighted-axis names: deduplicated `(table, attr)` pairs in
/// ascending dimension order — the shape cache layers key on.
pub type AxisNames = Vec<(String, String)>;

/// Axes resolved against a schema: dimension index, pk-indexed codes,
/// domain size, and the owned names.
struct ResolvedAxis<'a> {
    dim: usize,
    codes: &'a [u32],
    domain: usize,
    table: String,
    attr: String,
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
        // One column → one axis, exactly like `add_weighted`'s merge.
        if !resolved.iter().any(|a| std::ptr::eq(a.codes, codes)) {
            resolved.push(ResolvedAxis {
                dim,
                codes,
                domain,
                table: table.clone(),
                attr: attr.clone(),
            });
        }
    }
    // Stable sort: ascending dimension, first-appearance order within one.
    resolved.sort_by_key(|a| a.dim);
    Ok(resolved)
}

impl WeightHistogram {
    /// Normalizes an axis list against `schema` without scanning anything:
    /// returns the deduplicated `(table, attr)` names in ascending dimension
    /// order plus `Some(joint code space)` when it fits [`DENSE_GROUP_CAP`]
    /// (`None` means a histogram over these axes would be refused by
    /// [`WeightHistogram::build`], so callers should fall back to a fused
    /// scan). Cache layers key on this normalized form.
    pub fn plan_axes(
        schema: &StarSchema,
        axes: &[(String, String)],
    ) -> Result<(AxisNames, Option<usize>), EngineError> {
        let resolved = resolve_axes(schema, axes)?;
        let mut space = Some(1usize);
        for a in &resolved {
            space = space.and_then(|s| s.checked_mul(a.domain)).filter(|&s| s <= DENSE_GROUP_CAP);
        }
        Ok((resolved.into_iter().map(|a| (a.table, a.attr)).collect(), space))
    }

    /// The normalized axes of a binary query a histogram can answer
    /// exactly ([`WeightHistogram::answer_query`]), or `None` when the
    /// query needs a fact scan. Covered means: scalar; COUNT or SUM of a
    /// measure; at least one predicate and every one on a star dimension;
    /// a joint code space within [`DENSE_GROUP_CAP`] and no larger than
    /// the fact table (a bigger `W` holds more cells than the rows it
    /// summarises); and sums that stay below 2⁵³, so the exact integer
    /// answer is the `f64` the reference executor accumulates. Errors on a
    /// predicate the scan would refuse (unknown attribute, constraint
    /// outside its domain).
    pub fn covered_axes(
        schema: &StarSchema,
        query: &StarQuery,
    ) -> Result<Option<AxisNames>, EngineError> {
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
        Ok(space.filter(|&s| s <= fact_rows && exact).map(|_| axes))
    }

    /// Builds the histogram in **one** scan of the fact table (counted in
    /// [`crate::fact_scan_count`]): `cell[flat(row)] += agg(row)` over
    /// every fact row. The scan shards as `options.threads` says; integer
    /// partials merge exactly, so the kernel may size the split freely.
    /// Errors if the axis list is empty, the joint code space exceeds
    /// [`DENSE_GROUP_CAP`], or the aggregate's sums could overflow `i64`.
    pub fn build(
        schema: &StarSchema,
        axes: &[(String, String)],
        agg: &Agg,
        options: ScanOptions,
    ) -> Result<Self, EngineError> {
        let resolved = resolve_axes(schema, axes)?;
        if resolved.is_empty() {
            return Err(EngineError::InvalidConstraint(
                "a weight histogram needs at least one axis".into(),
            ));
        }
        let mut space = 1usize;
        for a in &resolved {
            space =
                space.checked_mul(a.domain).filter(|&s| s <= DENSE_GROUP_CAP).ok_or_else(|| {
                    EngineError::InvalidConstraint(format!(
                        "joint code space of {} axes exceeds the dense cap {DENSE_GROUP_CAP}",
                        resolved.len()
                    ))
                })?;
        }
        let kind = RowWeight::resolve(schema, agg)?;
        let fact_rows = schema.fact().num_rows();
        if !cells_fit(fact_rows, RowWeight::max_abs(schema, agg)?) {
            return Err(EngineError::InvalidConstraint(format!(
                "{agg:?} over {fact_rows} rows can overflow a 64-bit histogram cell"
            )));
        }
        let fks: Vec<Keys> = resolved
            .iter()
            .map(|a| schema.fact().key(&schema.dims()[a.dim].fk))
            .collect::<Result<_, _>>()?;

        // Same staged interior as the fused scan's histogram path: flat
        // codes folded axis-major once per 4096-row chunk, then one drain.
        let scan = |lo: usize, hi: usize| -> Cells {
            let mut cells = Cells::for_kind(space, &kind);
            let mut flat: Vec<u32> = Vec::with_capacity(CHUNK_ROWS);
            let mut chunk_start = lo;
            while chunk_start < hi {
                let chunk_end = (chunk_start + CHUNK_ROWS).min(hi);
                flat.clear();
                flat.resize(chunk_end - chunk_start, 0);
                for (fk, axis) in fks.iter().zip(&resolved) {
                    with_keys!(fk.slice(chunk_start..chunk_end), |fk| {
                        fold_flat(&mut flat, fk, axis.codes, axis.domain)
                    });
                }
                drain_hist(&mut cells, &flat, &kind, chunk_start);
                chunk_start = chunk_end;
            }
            cells
        };
        let bounds = shard_bounds(fact_rows, options.threads, true);
        let cells = scan_shards(&bounds, scan, Cells::merge);
        fact_scans_add();
        let k = kernel_counters();
        let chunks = chunk_count(&bounds);
        KernelCounters::add(&k.chunks_scanned, chunks);
        // The histogram interior reads each axis fk straight from the
        // source array — one direct pass per axis per chunk, no staging.
        KernelCounters::add(&k.direct_gathers, resolved.len() as u64 * chunks);
        let fk_bytes: usize = fks.iter().map(|fk| fk.width_bytes() * fact_rows).sum();
        KernelCounters::add(&k.fk_bytes_read, fk_bytes as u64);
        Ok(WeightHistogram {
            axes: resolved.into_iter().map(|a| (a.table, a.attr, a.domain)).collect(),
            space,
            agg: agg.clone(),
            cells,
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

    /// The aggregate the histogram accumulates.
    pub fn agg(&self) -> &Agg {
        &self.agg
    }

    /// Bytes one cell occupies (1, 2, 4 or 8): the narrowest width that
    /// held every sum of the build.
    pub fn cell_width_bytes(&self) -> usize {
        self.cells.width_bytes()
    }

    /// The slot of the axis `table.attr`, or an error naming it.
    fn slot(&self, table: &str, attr: &str) -> Result<usize, EngineError> {
        self.axes.iter().position(|(t, a, _)| t == table && a == attr).ok_or_else(|| {
            EngineError::InvalidConstraint(format!(
                "axis `{table}.{attr}` is not covered by this histogram"
            ))
        })
    }

    /// Errors unless the histogram accumulates `agg`.
    fn check_agg(&self, agg: &Agg) -> Result<(), EngineError> {
        if *agg != self.agg {
            return Err(EngineError::InvalidConstraint(format!(
                "histogram accumulates {:?}, query aggregates {:?}",
                self.agg, agg
            )));
        }
        Ok(())
    }

    /// Answers one weighted query as the dot product `Φ_q · W` — no fact
    /// scan. Same-axis predicates multiply into one weight vector and axes
    /// the query does not constrain contribute factor 1; the outer-product
    /// tensor and the dot product in flat-code order are the fused scan's
    /// own loops, so for any weighted query over a subset of the axes this
    /// returns **bit-identical** `f64`s to [`crate::ScanPlan::execute`]'s
    /// histogram path on the same data. Errors when the aggregate differs
    /// from the histogram's, a predicate names an uncovered axis, or a
    /// weight vector has the wrong length.
    pub fn answer(&self, predicates: &[WeightedPredicate], agg: &Agg) -> Result<f64, EngineError> {
        self.check_agg(agg)?;
        let mut per_axis: Vec<Option<Vec<f64>>> = vec![None; self.axes.len()];
        for wp in predicates {
            let slot = self.slot(&wp.table, &wp.attr)?;
            let domain = self.axes[slot].2;
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
        let domains: Vec<usize> = self.axes.iter().map(|a| a.2).collect();
        Ok(self.cells.dot(&weight_tensor(&domains, &per_axis)))
    }

    /// Answers a binary star query over a subset of the axes — the exact
    /// COUNT or integer SUM of the rows its predicates select — without a
    /// fact scan. Each axis's predicates AND into one 0/1 code mask, axes
    /// the query does not constrain sum out, and the cells contract axis by
    /// axis, innermost first, in `i64`: exact in any order. For a query
    /// [`WeightHistogram::covered_axes`] accepts, the result is the `f64`
    /// [`crate::exec::reference`] returns, bit for bit. Errors on a
    /// different aggregate, a GROUP BY, an uncovered axis, or a constraint
    /// outside its axis's domain.
    pub fn answer_query(&self, query: &StarQuery) -> Result<f64, EngineError> {
        self.check_agg(&query.agg)?;
        if !query.group_by.is_empty() {
            return Err(EngineError::InvalidConstraint(
                "a weight histogram answers scalar queries only".into(),
            ));
        }
        let mut masks: Vec<Option<Vec<bool>>> = vec![None; self.axes.len()];
        for p in &query.predicates {
            let slot = self.slot(&p.table, &p.attr)?;
            let domain = self.axes[slot].2;
            p.constraint.validate_size(&p.attr, domain as u32)?;
            let mask = masks[slot].get_or_insert_with(|| vec![true; domain]);
            for (code, keep) in (0u32..).zip(mask.iter_mut()) {
                *keep &= p.constraint.matches(code);
            }
        }
        let axes: Vec<(usize, Option<&[bool]>)> =
            self.axes.iter().zip(&masks).map(|(a, mask)| (a.2, mask.as_deref())).collect();
        Ok(self.cells.masked_sum(&axes) as f64)
    }
}

/// The flattened weight tensor `Φ_q` over a row-major joint code space:
/// the outer product of the per-axis weight vectors, an axis without one
/// contributing factor 1.
pub(crate) fn weight_tensor(domains: &[usize], per_axis: &[Option<Vec<f64>>]) -> Vec<f64> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::domain::Domain;
    use crate::exec::reference;
    use crate::plan::fact_scan_count;
    use crate::predicate::Predicate;
    use crate::query::GroupAttr;
    use crate::schema::Dimension;
    use crate::table::Table;
    use crate::WeightedQuery;

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
    fn weight_histogram_matches_fused_scan_bit_for_bit() {
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
            let fused = crate::exec::execute_weighted_batch_with(&s, &batch, options).unwrap();
            let count_hist = WeightHistogram::build(&s, &axes, &Agg::Count, options).unwrap();
            let sum_hist =
                WeightHistogram::build(&s, &axes, &Agg::Sum("qty".into()), options).unwrap();
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
        let covered = |q: &StarQuery| WeightHistogram::covered_axes(&s, q).unwrap();
        let count = StarQuery::count("c").with(Predicate::point("B", "attr", 1));
        assert_eq!(covered(&count), Some(vec![("B".to_string(), "attr".to_string())]));
        let both = count.clone().with(Predicate::range("A", "attr", 0, 1));
        assert_eq!(covered(&both), Some(both_axes()), "6 cells over 6 rows");
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
        assert_eq!(hist.cell_width_bytes(), 1, "counts start at one byte");
        let cost =
            WeightHistogram::build(&s, &axes, &Agg::Sum("cost".into()), ScanOptions::default());
        assert_eq!(cost.unwrap().cell_width_bytes(), 2, "sums start at the measure's width");
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
    fn weight_histogram_counts_one_fact_scan() {
        let s = schema();
        let axes = vec![("A".to_string(), "attr".to_string())];
        let before = fact_scan_count();
        let hist = WeightHistogram::build(&s, &axes, &Agg::Count, ScanOptions::default()).unwrap();
        assert_eq!(fact_scan_count() - before, 1, "building W costs exactly one scan");
        let before = fact_scan_count();
        for _ in 0..4 {
            hist.answer(&[WeightedPredicate::new("A", "attr", vec![1.0, 0.5, 0.25])], &Agg::Count)
                .unwrap();
            hist.answer_query(&StarQuery::count("q").with(Predicate::point("A", "attr", 1)))
                .unwrap();
        }
        assert_eq!(fact_scan_count() - before, 0, "answering from W is scan-free");
    }
}
