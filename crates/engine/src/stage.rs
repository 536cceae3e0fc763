//! Per-chunk staging buffers and SIMD-width gather loops for the scan
//! kernel.
//!
//! PR 3's measurements showed the fused fact scan is **gather-compute
//! bound**: at 8 fused queries the kernel re-read every referenced
//! dimension's foreign-key array from main memory once *per query* per
//! chunk, and extracted each pass bit through a packed-bitset word index +
//! shift with a serial `gathered |=` dependency chain. This module is the
//! fix, in two halves:
//!
//! * [`ChunkStage`] — a cache-resident staging area. Each dimension's fk
//!   codes for the current 4096-row chunk are copied **once per chunk**
//!   (one `memcpy` into an L1/L2-resident buffer) and shared by every
//!   query in the fused batch; a dimension referenced only once is served
//!   straight from the source array (staging would be a pure copy tax).
//!   The same buffer set stages the histogram-plan joint flat codes once
//!   per chunk so every histogram kind drains a flat `u32` array.
//! * `gather_word_*` — the three probe-specialized inner loops that turn
//!   64 staged fk codes into one qualifying-row mask word. Each is an
//!   8-wide manually unrolled loop with a pairwise OR-combine tree, so the
//!   eight per-row probes are independent (no loop-carried dependency
//!   until the balanced 3-level combine) and LLVM can autovectorize /
//!   software-pipeline them — plain safe Rust, no `std::simd`, verified by
//!   the bench gate rather than asm inspection.
//!
//! Everything here is bit-order preserving: staged codes are exact copies,
//! the mask words are the same AND-conjunction the unstaged kernel
//! computed, and flat codes use the same integer recurrence as
//! the histogram fallback's per-row form — so results stay bit-identical to
//! [`crate::exec::reference`].
//!
//! Key columns come in two widths ([`Keys`]). The gather bodies and the
//! flat-code fold are generic over the stored key type ([`Key`]) and the
//! width is matched **once per chunk per dimension** (at the same
//! granularity as the probe-class match), never per row: a `u16` column is
//! read, staged and gathered as `u16`, with no widening copy.

use crate::bitset::BitSet;
use crate::column::{KeyData, Keys};

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

/// Runs `$body` with `$fk` bound to the typed slice behind a [`Keys`] view
/// — how a scan enters the loop monomorphic in its column's width.
macro_rules! with_keys {
    ($keys:expr, |$fk:ident| $body:expr) => {
        match $keys {
            Keys::U16($fk) => $body,
            Keys::U32($fk) => $body,
        }
    };
}
pub(crate) use with_keys;

/// Rows per scan chunk (64 mask words of 64 rows). Re-exported into
/// [`crate::plan`]; lives here so the staging buffers and the chunk loop
/// can never disagree about geometry.
pub(crate) const CHUNK_ROWS: usize = 4096;
pub(crate) const CHUNK_WORDS: usize = CHUNK_ROWS / 64;

/// Cache-resident staging area for one scan chunk: per-dimension fk code
/// copies (only for dimensions referenced by ≥ 2 gathers per chunk) plus
/// the histogram-plan flat-code buffer.
#[derive(Debug)]
pub(crate) struct ChunkStage {
    /// Per dimension: the staged fk codes of the current chunk, at the
    /// source column's width (empty for unstaged dimensions).
    bufs: Vec<KeyData>,
    /// Which dimensions to stage, fixed for the whole scan.
    staged: Vec<bool>,
    /// Joint flat codes of the current chunk ([`ChunkStage::stage_flat`]).
    flat: Vec<u32>,
    chunk_start: usize,
    len: usize,
}

impl ChunkStage {
    /// A stage for a scan over `staged.len()` dimensions; `staged[di]`
    /// marks the dimensions worth copying (referenced at least twice per
    /// chunk).
    pub(crate) fn new(staged: Vec<bool>) -> Self {
        // A buffer takes its column's width, and its room, at the first
        // chunk's copy.
        let bufs = staged.iter().map(|_| KeyData::with_capacity(0)).collect();
        ChunkStage { bufs, staged, flat: Vec::with_capacity(CHUNK_ROWS), chunk_start: 0, len: 0 }
    }

    /// Rows in the current chunk.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Begins a chunk: copies the staged dimensions' fk codes for rows
    /// `[chunk_start, chunk_start + len)` into the staging buffers.
    pub(crate) fn begin(&mut self, fks: &[Keys], chunk_start: usize, len: usize) {
        self.chunk_start = chunk_start;
        self.len = len;
        let rows = chunk_start..chunk_start + len;
        for (di, buf) in self.bufs.iter_mut().enumerate() {
            if self.staged[di] {
                buf.refill(fks[di].slice(rows.clone()));
            }
        }
    }

    /// The chunk's fk codes for dimension `di`: the staged copy when one
    /// exists, else a direct slice of the source array.
    #[inline]
    pub(crate) fn dim<'s>(&'s self, fks: &[Keys<'s>], di: usize) -> Keys<'s> {
        if self.staged[di] {
            self.bufs[di].as_keys()
        } else {
            fks[di].slice(self.chunk_start..self.chunk_start + self.len)
        }
    }

    /// Stages the chunk's joint flat codes over `axes` (the histogram
    /// program's `(dim, codes, domain)` list), axis-major: the same
    /// `flat = flat · domain + code` integer recurrence as
    /// a per-row walk over the axes, so the staged values are exactly the
    /// per-row ones. Returns the staged buffer.
    pub(crate) fn stage_flat(&mut self, fks: &[Keys], axes: &[(usize, &[u32], usize)]) -> &[u32] {
        let mut flat = std::mem::take(&mut self.flat);
        flat.clear();
        flat.resize(self.len, 0);
        for &(di, codes, domain) in axes {
            with_keys!(self.dim(fks, di), |fk| fold_flat(&mut flat, fk, codes, domain));
        }
        self.flat = flat;
        &self.flat
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn stage_copies_only_marked_dimensions() {
        // One column of each width, staged and passed through in turn.
        let fk0: Vec<u16> = (0..100).collect();
        let fk1: Vec<u32> = (0..100).map(|i| i * 2).collect();
        let fks = [Keys::U16(&fk0), Keys::U32(&fk1)];
        for staged in [[true, false], [false, true]] {
            let mut stage = ChunkStage::new(staged.to_vec());
            stage.begin(&fks, 10, 20);
            assert_eq!(stage.len(), 20);
            assert!(matches!(stage.dim(&fks, 0), Keys::U16(_)), "staging keeps the width");
            assert_eq!(stage.dim(&fks, 0), fks[0].slice(10..30));
            assert_eq!(stage.dim(&fks, 1), fks[1].slice(10..30));
            // A second chunk replaces the staged contents.
            stage.begin(&fks, 40, 5);
            assert_eq!(stage.dim(&fks, 0), fks[0].slice(40..45));
            assert_eq!(stage.dim(&fks, 1), fks[1].slice(40..45));
        }
    }

    #[test]
    fn staged_flat_codes_match_per_row_recurrence() {
        let fk0: Vec<u32> = vec![0, 1, 2, 0, 1];
        let fk1: Vec<u16> = vec![1, 0, 1, 1, 0];
        let fks = [Keys::U32(&fk0), Keys::U16(&fk1)];
        let codes0: Vec<u32> = vec![2, 0, 1];
        let codes1: Vec<u32> = vec![1, 0];
        let axes: Vec<(usize, &[u32], usize)> = vec![(0, &codes0, 3), (1, &codes1, 2)];
        let mut stage = ChunkStage::new(vec![true, false]);
        stage.begin(&fks, 0, 5);
        let flat = stage.stage_flat(&fks, &axes);
        let want: Vec<u32> = (0..5)
            .map(|row| {
                let mut f = 0u32;
                for &(di, codes, domain) in &axes {
                    f = f * domain as u32 + codes[fks[di].get(row) as usize];
                }
                f
            })
            .collect();
        assert_eq!(flat, &want[..]);
    }
}
