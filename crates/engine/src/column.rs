//! Typed columns.

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

    /// Replaces the contents with a copy of `keys` at *their* width — the
    /// scan's per-chunk staging copy, one `memcpy` with no per-key width
    /// check (so a staged chunk of a wide column stays wide).
    pub(crate) fn refill(&mut self, keys: Keys<'_>) {
        match (&mut self.0, keys) {
            (Repr::U16(v), Keys::U16(k)) => {
                v.clear();
                v.extend_from_slice(k);
            }
            (Repr::U32(v), Keys::U32(k)) => {
                v.clear();
                v.extend_from_slice(k);
            }
            (repr, Keys::U16(k)) => *repr = Repr::U16(k.to_vec()),
            (repr, Keys::U32(k)) => *repr = Repr::U32(k.to_vec()),
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
    Measure(Vec<i64>),
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    data: ColumnData,
    /// Largest `|value|` of a measure column (0 for the other kinds),
    /// found once here so the scan kernel can bound its sums per plan.
    abs_max: u64,
}

impl Column {
    /// A key column, stored at the narrowest width every value fits.
    pub fn key(name: impl Into<String>, values: Vec<u32>) -> Self {
        Column::from_keys(name, values.into_iter().collect())
    }

    /// A key column over already-built [`KeyData`].
    pub fn from_keys(name: impl Into<String>, keys: KeyData) -> Self {
        Column { name: name.into(), data: ColumnData::Key(keys), abs_max: 0 }
    }

    /// An attribute column over `domain`.
    pub fn attr(name: impl Into<String>, domain: Domain, values: Vec<u32>) -> Self {
        Column { name: name.into(), data: ColumnData::Code { domain, values }, abs_max: 0 }
    }

    /// A measure column.
    pub fn measure(name: impl Into<String>, values: Vec<i64>) -> Self {
        let abs_max = values.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
        Column { name: name.into(), data: ColumnData::Measure(values), abs_max }
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
            ColumnData::Measure(v) => v.len(),
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
    pub fn as_measure(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Measure(v) => Some(v),
            _ => None,
        }
    }

    /// Largest `|value|` of a measure column; 0 for keys and attributes.
    pub fn measure_abs_max(&self) -> u64 {
        self.abs_max
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

        assert_eq!(m.as_measure(), Some(&[10, -2, 7][..]));
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
    fn empty_column_reports_empty() {
        let c = Column::key("pk", vec![]);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }
}
