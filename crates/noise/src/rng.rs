//! Seedable, splittable randomness for reproducible experiments.
//!
//! Every mechanism and generator in the workspace draws randomness through
//! [`StarRng`]. A run is fully determined by one `u64` seed; independent
//! streams (e.g. "data generation" vs. "mechanism noise") are derived with
//! [`StarRng::derive`] so adding a consumer never perturbs the draws seen by
//! another.
//!
//! This module is the workspace's only generator, mixer and hash: the
//! xoshiro256\*\* state behind [`StarRng`], the [`splitmix64`] step and
//! the [`fnv1a`] fold. The cost model's row sampler, the fault plan's
//! stream, the gate client's backoff jitter and the router's placement
//! hash all call these, so the privacy-critical randomness is auditable in
//! one file.

/// SplitMix64's state increment (the golden-ratio gamma).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a full-avalanche bijection on 64 bits.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step (Steele et al.): advances `state` and returns the
/// mixed new state. Passing a temporary, `splitmix64(&mut (x ^ salt))`,
/// gives the stateless finisher of one value.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix(*state)
}

/// The FNV-1a offset basis: the usual starting state of an [`fnv1a`] fold.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `items` into the FNV-1a state `h`, one xor-then-multiply step per
/// item: a byte when hashing a string, a whole word for a fingerprint.
#[inline]
pub fn fnv1a(h: u64, items: impl IntoIterator<Item = u64>) -> u64 {
    items.into_iter().fold(h, |h, x| (h ^ x).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Deterministic random source: xoshiro256\*\* (Blackman & Vigna) with
/// the convenience draws used across the workspace.
#[derive(Debug, Clone)]
pub struct StarRng {
    seed: u64,
    /// The xoshiro256\*\* state; never all zero, which is a fixed point of the step.
    s: [u64; 4],
}

impl StarRng {
    /// Creates a generator from a 64-bit seed. The seed is expanded via
    /// SplitMix64 into four words, which are remixed through SplitMix64
    /// once more into the xoshiro256\*\* state.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut s: [u64; 4] = std::array::from_fn(|_| splitmix64(&mut state));
        let mut sm = s[0] ^ s[1] ^ s[2] ^ s[3] ^ GAMMA;
        for w in &mut s {
            sm = sm.wrapping_add(GAMMA);
            *w = mix(sm ^ *w);
        }
        if s == [0; 4] {
            s[0] = 0xDEAD_BEEF_CAFE_F00D;
        }
        StarRng { seed, s }
    }

    /// The seed this generator was constructed from (derived generators
    /// report their derived seed).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent stream keyed by `tag`. The derivation depends
    /// only on the original seed and the tag, never on how many values have
    /// been drawn, so adding draws in one component does not shift another.
    pub fn derive(&self, tag: &str) -> StarRng {
        let tag = fnv1a(FNV_OFFSET, tag.bytes().map(u64::from));
        StarRng::from_seed(self.seed ^ tag.rotate_left(17))
    }

    /// Derives an independent stream keyed by an index (e.g. a trial number).
    pub fn derive_index(&self, index: u64) -> StarRng {
        let mut s = self.seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
        StarRng::from_seed(splitmix64(&mut s))
    }

    /// One xoshiro256\*\* step: the raw 64-bit word every draw is built on.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw from the **open** interval `(0, 1)` — never returns an
    /// exact 0, which keeps `ln(u)` finite in inverse-CDF samplers.
    pub fn open01(&mut self) -> f64 {
        loop {
            let u = self.unit();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform draw from `[0, 1)`: 53 random mantissa bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        // Lemire-style rejection: words at or above the largest multiple
        // of `bound` are redrawn, so every residue is exactly equally likely.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`. Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index() requires a positive bound");
        self.below(bound as u64) as usize
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "range_inclusive requires lo <= hi");
        if lo == i64::MIN && hi == i64::MAX {
            return self.next_u64() as i64;
        }
        lo.wrapping_add(self.below(hi.wrapping_sub(lo) as u64 + 1) as i64)
    }

    /// A Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    pub fn coin(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StarRng::from_seed(42);
        let mut b = StarRng::from_seed(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StarRng::from_seed(1);
        let mut b = StarRng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn derive_is_stable_and_independent_of_draws() {
        let root = StarRng::from_seed(7);
        let mut used = root.clone();
        for _ in 0..100 {
            used.next_u64();
        }
        // Deriving from a drained clone yields the same stream: derivation
        // depends on the seed, not generator state.
        let mut d1 = root.derive("noise");
        let mut d2 = used.derive("noise");
        for _ in 0..16 {
            assert_eq!(d1.next_u64(), d2.next_u64());
        }
    }

    #[test]
    fn derive_different_tags_differ() {
        let root = StarRng::from_seed(7);
        let mut a = root.derive("alpha");
        let mut b = root.derive("beta");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derive_index_differs_per_index() {
        let root = StarRng::from_seed(9);
        let mut seen = std::collections::HashSet::new();
        for i in 0..32 {
            let mut r = root.derive_index(i);
            assert!(seen.insert(r.next_u64()), "trial streams must not collide");
        }
    }

    #[test]
    fn open01_is_in_open_interval() {
        let mut rng = StarRng::from_seed(3);
        for _ in 0..10_000 {
            let u = rng.open01();
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn below_and_index_respect_bounds() {
        let mut rng = StarRng::from_seed(4);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
            assert!(rng.index(5) < 5);
            let v = rng.range_inclusive(-3, 3);
            assert!((-3..=3).contains(&v));
        }
    }

    #[test]
    fn coin_respects_extremes() {
        let mut rng = StarRng::from_seed(5);
        for _ in 0..100 {
            assert!(!rng.coin(0.0));
            assert!(rng.coin(1.0));
        }
    }

    /// The first 8 draws of a fresh copy of `rng` through `draw`.
    fn first8(rng: &StarRng, mut draw: impl FnMut(&mut StarRng) -> u64) -> [u64; 8] {
        let mut r = rng.clone();
        std::array::from_fn(|_| draw(&mut r))
    }

    /// Per stream (`from_seed(2023)`, its `derive("benchmark/mech")`, its
    /// `derive_index(7)`): the raw words (full-`i64` `range_inclusive`),
    /// `unit` bits, `below(1000)`, `index(7)`, `range_inclusive(-5, 5) + 5`
    /// and `coin(0.3)`.
    #[rustfmt::skip]
    const GOLDEN: [[[u64; 8]; 6]; 3] = [
        [
            [18127984284940030038, 6317501067300555029, 10120017063740194934, 11852412321403460252,
             12112969414176989233, 4015221994240613625, 6148520207344736595, 6920740570978616548],
            [4607026774371907290, 4599841054553941618, 4603116634127180808, 4603962530249086699,
             4604089755392042524, 4597010250748036620, 4599676034182891014, 4600430155631752224],
            [38, 29, 934, 252, 233, 625, 595, 548],
            [6, 2, 1, 5, 1, 0, 3, 5],
            [10, 7, 4, 6, 7, 7, 0, 1],
            [0, 0, 0, 0, 0, 1, 0, 0],
        ],
        [
            [8956075873621357638, 2430821080521286312, 17673510470883564099, 12654165283438530979,
             60040177218206841, 9383227470799992055, 5890280421721539135, 5458243139402217965],
            [4602417787763239276, 4593915717713428560, 4606804863329887531, 4604354011187580386,
             4569651444678588160, 4602756873583752974, 4599423846892243360, 4599001935483728398],
            [638, 312, 99, 979, 841, 55, 135, 965],
            [3, 6, 5, 1, 5, 1, 5, 3],
            [3, 2, 0, 6, 7, 4, 6, 9],
            [0, 1, 0, 0, 1, 0, 0, 1],
        ],
        [
            [9112332074635358727, 3087397996754922350, 2911363465244677177, 5308843164595574163,
             15241986273195689822, 649669747673139187, 11820810375983477663, 2505852162178094903],
            [4602570381709542012, 4595198094502947380, 4594854277058591432, 4598856037070831284,
             4605617595655235248, 4585236365939490816, 4603947099611674598, 4594062262794789512],
            [727, 350, 177, 163, 822, 187, 663, 903],
            [4, 3, 0, 0, 3, 1, 4, 5],
            [4, 5, 9, 10, 1, 5, 3, 8],
            [0, 1, 1, 1, 0, 1, 0, 1],
        ],
    ];

    /// Golden draws. Every served answer and every `rel_err_*` figure is a
    /// function of these streams, so a change to the generator, its
    /// seeding, its derivation or its sampling arithmetic fails here first.
    #[test]
    fn golden_draws_are_pinned() {
        let root = StarRng::from_seed(2023);
        let streams = [root.clone(), root.derive("benchmark/mech"), root.derive_index(7)];
        for (rng, [raw, unit, below, index, range, coin]) in streams.iter().zip(GOLDEN) {
            // No draw here is exactly 0, so `open01` must equal `unit`.
            let golden = [raw, unit, unit, below, index, range, coin];
            let got = [
                first8(rng, |r| r.range_inclusive(i64::MIN, i64::MAX) as u64),
                first8(rng, |r| r.unit().to_bits()),
                first8(rng, |r| r.open01().to_bits()),
                first8(rng, |r| r.below(1000)),
                first8(rng, |r| r.index(7) as u64),
                first8(rng, |r| (r.range_inclusive(-5, 5) + 5) as u64),
                first8(rng, |r| u64::from(r.coin(0.3))),
            ];
            assert_eq!(got, golden, "stream drifted from seed {}", rng.seed());
        }
    }

    #[test]
    fn unit_mean_is_near_half() {
        let mut rng = StarRng::from_seed(6);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean of U(0,1) was {mean}");
    }
}
