//! Typed columns, stored at their natural width.
//!
//! A key column holds `u16` or `u32` ([`KeyData`]), a measure column the
//! narrowest of `i8` / `i16` / `i32` / `i64` ([`MeasureData`]), each chosen
//! by the values alone as they are pushed, so a loader that streams rows in
//! never holds the wide form. Readers borrow a typed view ([`Keys`],
//! [`Measures`]); the scan kernel matches its width once per chunk and runs
//! a loop monomorphic in it, and every value widens to `u32` / `i64`
//! before it is used, so answers do not depend on the stored width. At SSB
//! SF 1 a fact row costs 15 B: three `u16` fks and one `u32`, then
//! `quantity` in one byte and `revenue` / `supplycost` in two each.

use crate::domain::Domain;

/// A key column's values at their natural width: `u16` while every key
/// fits, `u32` otherwise. SSB's date / supplier / customer foreign keys
/// address 2 556 / 2 000 / 30 000 rows, so the fact scan reads half the key
/// bytes with no decode pass. The width is a function of the values alone
/// (never wider than needed), so equal key sequences compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyData(Repr);

#[derive(Debug, Clone, PartialEq)]
enum Repr {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl KeyData {
    /// An empty key column with room for `rows` narrow keys — how a loader
    /// that knows its row count builds a column without ever holding the
    /// 4-byte form.
    pub fn with_capacity(rows: usize) -> Self {
        KeyData(Repr::U16(Vec::with_capacity(rows)))
    }

    /// Appends a key, re-widening the column to `u32` the first time one
    /// exceeds `u16::MAX`.
    pub fn push(&mut self, key: u32) {
        match (&mut self.0, u16::try_from(key)) {
            (Repr::U16(v), Ok(k)) => v.push(k),
            (Repr::U32(v), _) => v.push(key),
            (Repr::U16(v), Err(_)) => {
                let mut wide = Vec::with_capacity(v.capacity());
                wide.extend(v.iter().map(|&k| u32::from(k)));
                wide.push(key);
                self.0 = Repr::U32(wide);
            }
        }
    }

    /// A borrowed view of the keys.
    pub fn as_keys(&self) -> Keys<'_> {
        match &self.0 {
            Repr::U16(v) => Keys::U16(v),
            Repr::U32(v) => Keys::U32(v),
        }
    }
}

impl FromIterator<u32> for KeyData {
    fn from_iter<I: IntoIterator<Item = u32>>(keys: I) -> Self {
        let keys = keys.into_iter();
        let mut data = KeyData::with_capacity(keys.size_hint().0);
        keys.for_each(|k| data.push(k));
        data
    }
}

/// A borrowed key column at its stored width. The scan kernel matches on
/// the width once per chunk (or per 64-row mask word) and runs a loop
/// monomorphic in it; per-row readers use [`Keys::get`].
#[derive(Debug, Clone, Copy)]
pub enum Keys<'a> {
    /// Two-byte keys.
    U16(&'a [u16]),
    /// Four-byte keys.
    U32(&'a [u32]),
}

impl<'a> Keys<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Keys::U16(v) => v.len(),
            Keys::U32(v) => v.len(),
        }
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes one stored key occupies (2 or 4).
    pub fn width_bytes(&self) -> usize {
        match self {
            Keys::U16(_) => 2,
            Keys::U32(_) => 4,
        }
    }

    /// The key of `row`.
    #[inline]
    pub fn get(&self, row: usize) -> u32 {
        match self {
            Keys::U16(v) => u32::from(v[row]),
            Keys::U32(v) => v[row],
        }
    }

    /// The view restricted to `rows`.
    pub(crate) fn slice(self, rows: std::ops::Range<usize>) -> Keys<'a> {
        match self {
            Keys::U16(v) => Keys::U16(&v[rows]),
            Keys::U32(v) => Keys::U32(&v[rows]),
        }
    }

    /// The keys in row order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        // One of the two halves is empty: a single concrete iterator type
        // whose `find` / `eq` still run as plain slice loops.
        let (narrow, wide) = match *self {
            Keys::U16(v) => (v, &[][..]),
            Keys::U32(v) => (&[][..], v),
        };
        narrow.iter().map(|&k| u32::from(k)).chain(wide.iter().copied())
    }
}

/// Value equality, whatever the stored widths.
impl PartialEq for Keys<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<[u32]> for Keys<'_> {
    fn eq(&self, other: &[u32]) -> bool {
        *self == Keys::U32(other)
    }
}

/// A measure column's values at their natural width: the narrowest of
/// `i8` / `i16` / `i32` / `i64` that holds every value. SSB's `quantity`
/// (≤ 50) stores in one byte and `revenue` / `supplycost` (≤ 10 000) in
/// two, so a SUM scan reads a quarter of the bytes an `i64` column costs
/// and widens each value to the same `i64` before adding it. The width is a
/// function of the values alone (never wider than needed), so equal value
/// sequences compare equal; the largest `|value|` is kept as values are
/// pushed.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureData {
    repr: MeasureRepr,
    abs_max: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum MeasureRepr {
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
}

impl MeasureRepr {
    /// An empty column of the narrowest width that holds `value`, with room
    /// for `rows` values.
    fn holding(value: i64, rows: usize) -> Self {
        if i8::try_from(value).is_ok() {
            MeasureRepr::I8(Vec::with_capacity(rows))
        } else if i16::try_from(value).is_ok() {
            MeasureRepr::I16(Vec::with_capacity(rows))
        } else if i32::try_from(value).is_ok() {
            MeasureRepr::I32(Vec::with_capacity(rows))
        } else {
            MeasureRepr::I64(Vec::with_capacity(rows))
        }
    }

    /// Appends `value` if it fits the current width; false otherwise.
    fn try_push(&mut self, value: i64) -> bool {
        match self {
            MeasureRepr::I8(v) => i8::try_from(value).map(|x| v.push(x)).is_ok(),
            MeasureRepr::I16(v) => i16::try_from(value).map(|x| v.push(x)).is_ok(),
            MeasureRepr::I32(v) => i32::try_from(value).map(|x| v.push(x)).is_ok(),
            MeasureRepr::I64(v) => {
                v.push(value);
                true
            }
        }
    }

    fn capacity(&self) -> usize {
        match self {
            MeasureRepr::I8(v) => v.capacity(),
            MeasureRepr::I16(v) => v.capacity(),
            MeasureRepr::I32(v) => v.capacity(),
            MeasureRepr::I64(v) => v.capacity(),
        }
    }
}

impl MeasureData {
    /// An empty measure column with room for `rows` one-byte values — how a
    /// loader that knows its row count builds a column without ever holding
    /// the 8-byte form.
    pub fn with_capacity(rows: usize) -> Self {
        MeasureData { repr: MeasureRepr::I8(Vec::with_capacity(rows)), abs_max: 0 }
    }

    /// Appends a value, re-widening the column to the narrowest width that
    /// holds it the first time one does not fit.
    pub fn push(&mut self, value: i64) {
        self.abs_max = self.abs_max.max(value.unsigned_abs());
        if !self.repr.try_push(value) {
            self.rewiden(value);
        }
    }

    /// Copies the column into the width `value` needs (wider than the
    /// current one, so every stored value fits), then appends `value`.
    #[cold]
    fn rewiden(&mut self, value: i64) {
        let mut wide = MeasureRepr::holding(value, self.repr.capacity());
        for v in self.as_measures().iter().chain([value]) {
            let fits = wide.try_push(v);
            debug_assert!(fits, "a wider column holds every narrower value");
        }
        self.repr = wide;
    }

    /// A borrowed view of the values.
    pub fn as_measures(&self) -> Measures<'_> {
        match &self.repr {
            MeasureRepr::I8(v) => Measures::I8(v),
            MeasureRepr::I16(v) => Measures::I16(v),
            MeasureRepr::I32(v) => Measures::I32(v),
            MeasureRepr::I64(v) => Measures::I64(v),
        }
    }
}

impl FromIterator<i64> for MeasureData {
    fn from_iter<I: IntoIterator<Item = i64>>(values: I) -> Self {
        let values = values.into_iter();
        let mut data = MeasureData::with_capacity(values.size_hint().0);
        values.for_each(|v| data.push(v));
        data
    }
}

/// A borrowed measure column at its stored width. The scan kernel matches
/// on the width once per chunk and runs a loop monomorphic in it; per-row
/// readers use [`Measures::get`].
#[derive(Debug, Clone, Copy)]
pub enum Measures<'a> {
    /// One-byte values.
    I8(&'a [i8]),
    /// Two-byte values.
    I16(&'a [i16]),
    /// Four-byte values.
    I32(&'a [i32]),
    /// Eight-byte values.
    I64(&'a [i64]),
}

impl<'a> Measures<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Measures::I8(v) => v.len(),
            Measures::I16(v) => v.len(),
            Measures::I32(v) => v.len(),
            Measures::I64(v) => v.len(),
        }
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes one stored value occupies (1, 2, 4 or 8).
    pub fn width_bytes(&self) -> usize {
        match self {
            Measures::I8(_) => 1,
            Measures::I16(_) => 2,
            Measures::I32(_) => 4,
            Measures::I64(_) => 8,
        }
    }

    /// The value of `row`.
    #[inline]
    pub fn get(&self, row: usize) -> i64 {
        match self {
            Measures::I8(v) => i64::from(v[row]),
            Measures::I16(v) => i64::from(v[row]),
            Measures::I32(v) => i64::from(v[row]),
            Measures::I64(v) => v[row],
        }
    }

    /// The view restricted to `rows`.
    pub(crate) fn slice(self, rows: std::ops::Range<usize>) -> Measures<'a> {
        match self {
            Measures::I8(v) => Measures::I8(&v[rows]),
            Measures::I16(v) => Measures::I16(&v[rows]),
            Measures::I32(v) => Measures::I32(&v[rows]),
            Measures::I64(v) => Measures::I64(&v[rows]),
        }
    }

    /// The values in row order, widened to `i64`.
    pub fn iter(&self) -> impl Iterator<Item = i64> + 'a {
        // Three of the four parts are empty: a single concrete iterator
        // type whatever the width.
        let (mut i8s, mut i16s, mut i32s, mut i64s): (&[i8], &[i16], &[i32], &[i64]) =
            (&[], &[], &[], &[]);
        match *self {
            Measures::I8(v) => i8s = v,
            Measures::I16(v) => i16s = v,
            Measures::I32(v) => i32s = v,
            Measures::I64(v) => i64s = v,
        }
        i8s.iter()
            .map(|&v| i64::from(v))
            .chain(i16s.iter().map(|&v| i64::from(v)))
            .chain(i32s.iter().map(|&v| i64::from(v)))
            .chain(i64s.iter().copied())
    }
}

/// Value equality, whatever the stored widths.
impl PartialEq for Measures<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<[i64]> for Measures<'_> {
    fn eq(&self, other: &[i64]) -> bool {
        *self == Measures::I64(other)
    }
}

/// Column payload: keys (primary/foreign), coded attributes with a domain,
/// or integer measures.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Primary or foreign key values.
    Key(KeyData),
    /// Attribute codes constrained to a finite [`Domain`].
    Code {
        /// Domain the codes are drawn from.
        domain: Domain,
        /// Per-row codes.
        values: Vec<u32>,
    },
    /// Integer measure (e.g. `revenue`, `quantity`).
    Measure(MeasureData),
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    data: ColumnData,
}

impl Column {
    /// A key column, stored at the narrowest width every value fits.
    pub fn key(name: impl Into<String>, values: Vec<u32>) -> Self {
        Column::from_keys(name, values.into_iter().collect())
    }

    /// A key column over already-built [`KeyData`].
    pub fn from_keys(name: impl Into<String>, keys: KeyData) -> Self {
        Column { name: name.into(), data: ColumnData::Key(keys) }
    }

    /// An attribute column over `domain`.
    pub fn attr(name: impl Into<String>, domain: Domain, values: Vec<u32>) -> Self {
        Column { name: name.into(), data: ColumnData::Code { domain, values } }
    }

    /// A measure column, stored at the narrowest width every value fits.
    pub fn measure(name: impl Into<String>, values: Vec<i64>) -> Self {
        Column::from_measures(name, values.into_iter().collect())
    }

    /// A measure column over already-built [`MeasureData`].
    pub fn from_measures(name: impl Into<String>, values: MeasureData) -> Self {
        Column { name: name.into(), data: ColumnData::Measure(values) }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Key(k) => k.as_keys().len(),
            ColumnData::Code { values, .. } => values.len(),
            ColumnData::Measure(m) => m.as_measures().len(),
        }
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Key values, if this is a key column.
    pub fn as_key(&self) -> Option<Keys<'_>> {
        match &self.data {
            ColumnData::Key(k) => Some(k.as_keys()),
            _ => None,
        }
    }

    /// Attribute codes, if this is an attribute column.
    pub fn as_codes(&self) -> Option<&[u32]> {
        match &self.data {
            ColumnData::Code { values, .. } => Some(values),
            _ => None,
        }
    }

    /// Measure values, if this is a measure column.
    pub fn as_measure(&self) -> Option<Measures<'_>> {
        match &self.data {
            ColumnData::Measure(m) => Some(m.as_measures()),
            _ => None,
        }
    }

    /// Largest `|value|` of a measure column, kept as the values were
    /// stored so the scan kernel can bound its sums per plan; 0 for keys
    /// and attributes.
    pub fn measure_abs_max(&self) -> u64 {
        match &self.data {
            ColumnData::Measure(m) => m.abs_max,
            _ => 0,
        }
    }

    /// The attribute's domain, if this is an attribute column.
    pub fn domain(&self) -> Option<&Domain> {
        match &self.data {
            ColumnData::Code { domain, .. } => Some(domain),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_kind() {
        let d = Domain::numeric("x", 4).unwrap();
        let k = Column::key("pk", vec![0, 1, 2]);
        let a = Column::attr("a", d.clone(), vec![1, 3, 0]);
        let m = Column::measure("m", vec![10, -2, 7]);

        assert_eq!(k.as_key().unwrap(), [0, 1, 2][..]);
        assert!(k.as_codes().is_none() && k.as_measure().is_none());

        assert_eq!(a.as_codes(), Some(&[1, 3, 0][..]));
        assert_eq!(a.domain().unwrap().size(), 4);
        assert!(a.as_key().is_none());

        assert_eq!(m.as_measure().unwrap(), [10, -2, 7][..]);
        assert!(m.domain().is_none());
        assert_eq!((m.measure_abs_max(), k.measure_abs_max()), (10, 0));
        assert_eq!(Column::measure("m", vec![3, i64::MIN]).measure_abs_max(), 1 << 63);

        assert_eq!(k.len(), 3);
        assert!(!k.is_empty());
        assert_eq!(a.name(), "a");
    }

    #[test]
    fn key_width_follows_the_largest_key() {
        let max = u32::from(u16::MAX);
        let narrow = Column::key("k", vec![0, max]);
        assert!(matches!(narrow.as_key().unwrap(), Keys::U16(_)), "u16::MAX still fits");
        let wide = Column::key("k", vec![0, max + 1]);
        assert!(matches!(wide.as_key().unwrap(), Keys::U32(_)));
        assert_eq!(wide.as_key().unwrap(), [0, max + 1][..]);
        assert_eq!(
            (narrow.as_key().unwrap().width_bytes(), wide.as_key().unwrap().width_bytes()),
            (2, 4)
        );
        // Pushing past the boundary re-widens in place, keeping earlier keys.
        let mut grown = KeyData::with_capacity(3);
        [7, max, max + 1, 3].into_iter().for_each(|k| grown.push(k));
        assert_eq!(grown.as_keys(), [7, max, max + 1, 3][..]);
        assert_eq!(grown.as_keys().get(2), max + 1);
        assert_eq!(grown, [7, max, max + 1, 3].into_iter().collect::<KeyData>());
        // Views compare by value across widths.
        assert_eq!(Keys::U16(&[1, 2]), Keys::U32(&[1, 2]));
        assert_ne!(Keys::U16(&[1, 2]), Keys::U32(&[1, 2, 3]));
    }

    #[test]
    fn measure_width_follows_the_widest_value() {
        let width = |values: Vec<i64>| {
            Column::measure("m", values).as_measure().map(|m| m.width_bytes()).unwrap()
        };
        assert_eq!(width(vec![]), 1, "an empty column starts narrow");
        assert_eq!(width(vec![-128, 127]), 1);
        assert_eq!(width(vec![0, -129]), 2);
        assert_eq!(width(vec![128, 3]), 2);
        assert_eq!(width(vec![-32_768, 32_767]), 2);
        assert_eq!(width(vec![32_768]), 4);
        assert_eq!(width(vec![i64::from(i32::MIN), i64::from(i32::MAX)]), 4);
        assert_eq!(width(vec![1, i64::from(i32::MAX) + 1]), 8);
        // Pushing past a boundary re-widens, keeping earlier values, and may
        // skip widths; equal sequences are equal whatever the push history.
        let values = [7, -1, 40_000, i64::MIN, 3];
        let mut grown = MeasureData::with_capacity(2);
        values.into_iter().for_each(|v| grown.push(v));
        assert_eq!(grown.as_measures(), values[..]);
        assert_eq!(grown.as_measures().get(3), i64::MIN);
        assert_eq!(grown.as_measures().width_bytes(), 8);
        assert_eq!(grown.abs_max, 1 << 63);
        assert_eq!(grown, values.into_iter().collect::<MeasureData>());
        // Views compare by value across widths.
        assert_eq!(Measures::I8(&[1, -2]), Measures::I64(&[1, -2]));
        assert_eq!(Measures::I16(&[300]), Measures::I32(&[300]));
        assert_ne!(Measures::I8(&[1, 2]), Measures::I16(&[1, 2, 3]));
        assert_eq!(Measures::I16(&[5, 6, 7]).slice(1..3), [6, 7][..]);
    }

    #[test]
    fn empty_column_reports_empty() {
        let c = Column::key("pk", vec![]);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }
}
