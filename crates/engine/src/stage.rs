//! Chunk geometry, width dispatch and SIMD-width gather loops for the scan
//! kernel.
//!
//! The fused fact scan is **gather-compute bound**: per 4096-row chunk,
//! every filter ANDs its pass bits into the chunk's qualifying-row mask, a
//! 64-row word at a time. A word with many surviving rows goes through one
//! of the three probe-specialized `gather_word_*` loops, which turn all 64
//! fk codes into one mask word. Each is an 8-wide manually unrolled loop
//! with a pairwise OR-combine tree, so the eight per-row probes are
//! independent (no loop-carried dependency until the balanced 3-level
//! combine) and LLVM can autovectorize / software-pipeline them — plain
//! safe Rust, no `std::simd`, verified by the bench gate rather than asm
//! inspection. A word with few surviving rows goes through
//! [`probe_set_lanes`] instead, which probes only the lanes still set.
//! Every gather reads its chunk of fk codes straight from the fact column,
//! and [`fold_flat`] folds the histogram plan's joint flat codes from the
//! same slices.
//!
//! Everything here is bit-order preserving: the mask words are the same
//! AND-conjunction a row-at-a-time walk computes, and flat codes use the
//! same integer recurrence as the histogram fallback's per-row form — so
//! results stay bit-identical to [`crate::exec::reference`].
//!
//! Key columns come in two widths ([`Keys`](crate::column::Keys)). The
//! gather bodies and the flat-code fold are generic over the stored key
//! type ([`Key`]) and the width is matched **once per chunk per dimension**
//! (at the same granularity as the probe-class match), never per row: a
//! `u16` column is read and gathered as `u16`, with no widening copy. Measure columns
//! ([`crate::column::Measures`]) are matched the same way, once per chunk
//! per drain ([`with_measures!`]).

use crate::bitset::BitSet;

/// A stored fk code: the two key widths the gather loops are monomorphic
/// over.
pub(crate) trait Key: Copy {
    fn index(self) -> usize;
}

impl Key for u16 {
    #[inline]
    fn index(self) -> usize {
        usize::from(self)
    }
}

impl Key for u32 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Runs `$body` with `$fk` bound to the typed slice behind a
/// [`Keys`](crate::column::Keys) view — how a scan enters the loop
/// monomorphic in its column's width.
macro_rules! with_keys {
    ($keys:expr, |$fk:ident| $body:expr) => {
        match $keys {
            Keys::U16($fk) => $body,
            Keys::U32($fk) => $body,
        }
    };
}
pub(crate) use with_keys;

/// Runs `$body` with `$m` bound to the typed slice behind a
/// [`crate::column::Measures`]
/// view — how a drain enters the loop monomorphic in its measure's width.
macro_rules! with_measures {
    ($measures:expr, |$m:ident| $body:expr) => {
        match $measures {
            Measures::I8($m) => $body,
            Measures::I16($m) => $body,
            Measures::I32($m) => $body,
            Measures::I64($m) => $body,
        }
    };
}
pub(crate) use with_measures;

/// Rows per scan chunk (64 mask words of 64 rows), shared by the fused
/// scan, the W build and the gather loops so they can never disagree about
/// geometry.
pub(crate) const CHUNK_ROWS: usize = 4096;
pub(crate) const CHUNK_WORDS: usize = CHUNK_ROWS / 64;

/// Folds one axis into a chunk's joint flat codes:
/// `flat = flat · domain + code`, the histogram's integer recurrence.
#[inline]
pub(crate) fn fold_flat<K: Key>(flat: &mut [u32], fk: &[K], codes: &[u32], domain: usize) {
    let domain = domain as u32;
    for (slot, &k) in flat.iter_mut().zip(fk) {
        *slot = *slot * domain + codes[k.index()];
    }
}

/// Gathers one mask word from a dimension of ≤ 64 rows: the whole pass
/// bitset lives in the `table` register, so each probe is a shift + AND.
/// 8-wide unrolled with a pairwise OR-combine tree — the eight probes are
/// independent and the combine is a balanced 3-level reduction, so nothing
/// in the oct carries a dependency chain longer than three ORs.
#[inline]
pub(crate) fn gather_word_small<K: Key>(table: u64, fk: &[K]) -> u64 {
    debug_assert!(fk.len() <= 64);
    let mut gathered = 0u64;
    let octs = fk.len() & !7;
    let mut i = 0;
    while i < octs {
        let b0 = (table >> fk[i].index()) & 1;
        let b1 = (table >> fk[i + 1].index()) & 1;
        let b2 = (table >> fk[i + 2].index()) & 1;
        let b3 = (table >> fk[i + 3].index()) & 1;
        let b4 = (table >> fk[i + 4].index()) & 1;
        let b5 = (table >> fk[i + 5].index()) & 1;
        let b6 = (table >> fk[i + 6].index()) & 1;
        let b7 = (table >> fk[i + 7].index()) & 1;
        let lo = (b0 | (b1 << 1)) | ((b2 | (b3 << 1)) << 2);
        let hi = (b4 | (b5 << 1)) | ((b6 | (b7 << 1)) << 2);
        gathered |= (lo | (hi << 4)) << i;
        i += 8;
    }
    while i < fk.len() {
        gathered |= ((table >> fk[i].index()) & 1) << i;
        i += 1;
    }
    gathered
}

/// Gathers one mask word through a byte-granular `{0, 1}` lookup table
/// (dimensions of ≤ 2^16 rows): each probe is one byte load, 8-wide
/// unrolled with a pairwise OR-combine tree (eight independent loads in
/// flight per iteration).
#[inline]
pub(crate) fn gather_word_bytes<K: Key>(lut: &[u8], fk: &[K]) -> u64 {
    debug_assert!(fk.len() <= 64);
    let mut gathered = 0u64;
    let octs = fk.len() & !7;
    let mut i = 0;
    while i < octs {
        let b0 = lut[fk[i].index()] as u64;
        let b1 = lut[fk[i + 1].index()] as u64;
        let b2 = lut[fk[i + 2].index()] as u64;
        let b3 = lut[fk[i + 3].index()] as u64;
        let b4 = lut[fk[i + 4].index()] as u64;
        let b5 = lut[fk[i + 5].index()] as u64;
        let b6 = lut[fk[i + 6].index()] as u64;
        let b7 = lut[fk[i + 7].index()] as u64;
        let lo = (b0 | (b1 << 1)) | ((b2 | (b3 << 1)) << 2);
        let hi = (b4 | (b5 << 1)) | ((b6 | (b7 << 1)) << 2);
        gathered |= (lo | (hi << 4)) << i;
        i += 8;
    }
    while i < fk.len() {
        gathered |= (lut[fk[i].index()] as u64) << i;
        i += 1;
    }
    gathered
}

/// Gathers one mask word from a packed bitset (dimensions past the byte-LUT
/// cap): word index + shift per probe, 8-wide unrolled with a pairwise
/// OR-combine tree.
#[inline]
pub(crate) fn gather_word_wide<K: Key>(bits: &BitSet, fk: &[K]) -> u64 {
    debug_assert!(fk.len() <= 64);
    let mut gathered = 0u64;
    let octs = fk.len() & !7;
    let mut i = 0;
    while i < octs {
        let b0 = bits.get_bit(fk[i].index());
        let b1 = bits.get_bit(fk[i + 1].index());
        let b2 = bits.get_bit(fk[i + 2].index());
        let b3 = bits.get_bit(fk[i + 3].index());
        let b4 = bits.get_bit(fk[i + 4].index());
        let b5 = bits.get_bit(fk[i + 5].index());
        let b6 = bits.get_bit(fk[i + 6].index());
        let b7 = bits.get_bit(fk[i + 7].index());
        let lo = (b0 | (b1 << 1)) | ((b2 | (b3 << 1)) << 2);
        let hi = (b4 | (b5 << 1)) | ((b6 | (b7 << 1)) << 2);
        gathered |= (lo | (hi << 4)) << i;
        i += 8;
    }
    while i < fk.len() {
        gathered |= bits.get_bit(fk[i].index()) << i;
        i += 1;
    }
    gathered
}

/// Keeps the set lanes of `word` whose fk code passes `pass`: walks the
/// set bits (`trailing_zeros`, `w &= w - 1`) and probes only those lanes,
/// so a word with `n` surviving rows costs `n` probes instead of 64. Equal
/// to `word & gather_word_*(fk)` for the probe `pass` stands for.
#[inline]
pub(crate) fn probe_set_lanes<K: Key>(word: u64, fk: &[K], pass: impl Fn(usize) -> u64) -> u64 {
    let mut kept = 0u64;
    let mut w = word;
    while w != 0 {
        let lane = w.trailing_zeros() as usize;
        w &= w - 1;
        kept |= pass(fk[lane].index()) << lane;
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Keys;

    fn reference_gather(pass: impl Fn(u32) -> bool, fk: &[u32]) -> u64 {
        fk.iter().enumerate().fold(0u64, |m, (i, &k)| m | (u64::from(pass(k)) << i))
    }

    #[test]
    fn gather_loops_match_reference_at_every_lane_count() {
        // Every lane count 0..=64 exercises both the unrolled quads and the
        // scalar tail (including the boundary where one is empty).
        let bits = BitSet::from_fn(64, |i| i % 3 == 0 || i == 63);
        let word = bits.words()[0];
        let lut = bits.to_byte_lut();
        for lanes in 0..=64usize {
            let fk: Vec<u32> = (0..lanes).map(|i| ((i * 7) % 64) as u32).collect();
            let want = reference_gather(|k| bits.get(k as usize), &fk);
            assert_eq!(gather_word_small(word, &fk), want, "small, {lanes} lanes");
            assert_eq!(gather_word_bytes(&lut, &fk), want, "bytes, {lanes} lanes");
            assert_eq!(gather_word_wide(&bits, &fk), want, "wide, {lanes} lanes");
            // The same codes stored narrow gather the same word.
            let narrow: Vec<u16> = fk.iter().map(|&k| k as u16).collect();
            assert_eq!(gather_word_small(word, &narrow), want, "small u16, {lanes} lanes");
            assert_eq!(gather_word_bytes(&lut, &narrow), want, "bytes u16, {lanes} lanes");
            assert_eq!(gather_word_wide(&bits, &narrow), want, "wide u16, {lanes} lanes");
        }
    }

    #[test]
    fn wide_gather_crosses_word_boundaries() {
        let bits = BitSet::from_fn(200, |i| i % 5 == 0);
        let fk: Vec<u32> = (0..64).map(|i| ((i * 13) % 200) as u32).collect();
        let want = reference_gather(|k| bits.get(k as usize), &fk);
        assert_eq!(gather_word_wide(&bits, &fk), want);
        assert_eq!(gather_word_bytes(&bits.to_byte_lut(), &fk), want);
    }

    #[test]
    fn folded_flat_codes_match_per_row_recurrence() {
        let fk0: Vec<u32> = vec![0, 1, 2, 0, 1];
        let fk1: Vec<u16> = vec![1, 0, 1, 1, 0];
        let fks = [Keys::U32(&fk0), Keys::U16(&fk1)];
        let codes0: Vec<u32> = vec![2, 0, 1];
        let codes1: Vec<u32> = vec![1, 0];
        let axes: Vec<(usize, &[u32], usize)> = vec![(0, &codes0, 3), (1, &codes1, 2)];
        let mut flat = vec![0u32; 5];
        for &(di, codes, domain) in &axes {
            with_keys!(fks[di], |fk| fold_flat(&mut flat, fk, codes, domain));
        }
        let want: Vec<u32> = (0..5)
            .map(|row| {
                let mut f = 0u32;
                for &(di, codes, domain) in &axes {
                    f = f * domain as u32 + codes[fks[di].get(row) as usize];
                }
                f
            })
            .collect();
        assert_eq!(flat, want);
    }
}
