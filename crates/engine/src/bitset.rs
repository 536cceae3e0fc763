//! Packed bitsets for dimension pass-masks.
//!
//! The scan kernel tests fact rows against per-dimension admission masks
//! billions of times per second, so the mask representation matters: a
//! `Vec<bool>` costs one byte (and one cache line per 64 entries) per
//! dimension row, while a packed `u64` bitset costs one bit and lets the
//! fact-phase combine 64 rows of admissibility with single AND/popcount
//! instructions. [`BitSet`] is that representation: fixed length, packed
//! into `u64` words, with the unused tail bits of the last word kept zero
//! so word-level operations ([`BitSet::words`], [`BitSet::count_ones`])
//! never see garbage.

/// A fixed-length packed bitset over `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// A bitset of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// A bitset of `len` ones (tail bits of the last word stay zero).
    pub fn ones(len: usize) -> Self {
        let mut set = BitSet { words: vec![u64::MAX; len.div_ceil(64)], len };
        set.mask_tail();
        set
    }

    /// Builds a bitset from a per-index predicate.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut set = BitSet::zeros(len);
        for i in 0..len {
            if f(i) {
                set.words[i >> 6] |= 1u64 << (i & 63);
            }
        }
        set
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the bitset has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `index`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        debug_assert!(index < self.len);
        (self.words[index >> 6] >> (index & 63)) & 1 == 1
    }

    /// The bit at `index` as a `u64` in `{0, 1}` — the branch-free form the
    /// scan kernel shifts into chunk masks.
    #[inline]
    pub fn get_bit(&self, index: usize) -> u64 {
        debug_assert!(index < self.len);
        (self.words[index >> 6] >> (index & 63)) & 1
    }

    /// Sets the bit at `index` to `value`.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        debug_assert!(index < self.len);
        let mask = 1u64 << (index & 63);
        if value {
            self.words[index >> 6] |= mask;
        } else {
            self.words[index >> 6] &= !mask;
        }
    }

    /// Keeps only bits whose index satisfies `f` (in-place intersection with
    /// a predicate) — how per-predicate dimension masks are conjoined.
    /// Works a word at a time: `f` runs on every index of a non-empty word
    /// and its answers pack into one keep-mask without a branch per bit, so
    /// `f` must be pure. Empty words are skipped.
    pub fn retain(&mut self, mut f: impl FnMut(usize) -> bool) {
        for (wi, word) in self.words.iter_mut().enumerate() {
            if *word == 0 {
                continue;
            }
            let base = wi << 6;
            let mut keep = 0u64;
            for i in base..(base + 64).min(self.len) {
                keep |= u64::from(f(i)) << (i - base);
            }
            *word &= keep;
        }
    }

    /// In-place intersection with another bitset of the same length.
    pub fn and_assign(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed words (tail bits of the last word are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The bits expanded to a byte-per-index `{0, 1}` lookup table — the
    /// mid-size fast-path representation of the scan kernel: for dimensions
    /// of at most 2^16 rows the table stays cache-resident and turns the
    /// per-row probe into a single byte load (no word indexing or shifts).
    pub fn to_byte_lut(&self) -> Box<[u8]> {
        (0..self.len).map(|i| self.get_bit(i) as u8).collect()
    }

    /// Indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some((wi << 6) | bit)
            })
        })
    }

    fn mask_tail(&mut self) {
        let tail = self.len & 63;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitSet::zeros(70);
        assert_eq!(z.len(), 70);
        assert_eq!(z.count_ones(), 0);
        let o = BitSet::ones(70);
        assert_eq!(o.count_ones(), 70);
        // Tail bits beyond 70 stay zero so word-level popcounts are exact.
        assert_eq!(o.words()[1].count_ones(), 6);
        assert!(BitSet::zeros(0).is_empty());
        assert!(!o.is_empty());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitSet::zeros(130);
        for i in [0usize, 63, 64, 65, 127, 128, 129] {
            assert!(!b.get(i));
            b.set(i, true);
            assert!(b.get(i));
            assert_eq!(b.get_bit(i), 1);
        }
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 6);
    }

    #[test]
    fn from_fn_and_retain_match_naive() {
        let b = BitSet::from_fn(200, |i| i % 3 == 0);
        assert_eq!(b.count_ones(), 67);
        let mut c = b.clone();
        c.retain(|i| i % 2 == 0);
        for i in 0..200 {
            assert_eq!(c.get(i), i % 6 == 0, "bit {i}");
        }
        // Every word edge and the tail word: bits kept and cleared there.
        let mut d = BitSet::ones(200);
        d.retain(|i| i % 7 != 3);
        for i in 0..200 {
            assert_eq!(d.get(i), i % 7 != 3, "bit {i}");
        }
        assert_eq!(d.count_ones(), 171);
    }

    #[test]
    fn and_assign_intersects() {
        let mut a = BitSet::from_fn(100, |i| i % 2 == 0);
        let b = BitSet::from_fn(100, |i| i % 5 == 0);
        a.and_assign(&b);
        for i in 0..100 {
            assert_eq!(a.get(i), i % 10 == 0);
        }
    }

    #[test]
    fn byte_lut_matches_bits() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let b = BitSet::from_fn(len, |i| i % 3 == 1);
            let lut = b.to_byte_lut();
            assert_eq!(lut.len(), len);
            for i in 0..len {
                assert_eq!(lut[i], u8::from(b.get(i)), "len={len} bit {i}");
            }
        }
    }

    #[test]
    fn iter_ones_ascending() {
        let b = BitSet::from_fn(150, |i| i == 0 || i == 63 || i == 64 || i == 149);
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, vec![0, 63, 64, 149]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_assign_length_mismatch_panics() {
        let mut a = BitSet::zeros(10);
        a.and_assign(&BitSet::zeros(11));
    }
}
