//! Offline, API-compatible subset of the [`proptest`] crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of proptest's surface its property tests use: the
//! [`Strategy`] trait with `prop_map`/`prop_flat_map`, range and tuple
//! strategies, [`collection::vec`], [`prelude::Just`], `prop_oneof!`, and
//! the `proptest!` test macro driven by [`ProptestConfig`].
//!
//! Semantics differ from the real crate in one deliberate way: failing
//! inputs are **not shrunk** — a failing case panics with the sampled
//! values' debug representation instead. Sampling is deterministic per test
//! (seeded from the test's name), so failures reproduce across runs.

/// The RNG threaded through strategy sampling: xoshiro256\*\* (Blackman &
/// Vigna) with the seed remix of `starj_noise::rng`. It is a private copy
/// because a stand-in for an external crate depends on no workspace crate.
#[derive(Debug, Clone)]
pub struct TestRng([u64; 4]);

impl TestRng {
    /// One xoshiro256\*\* step.
    fn next(&mut self) -> u64 {
        let s = &mut self.0;
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

    /// Uniform in `[0, bound)`, rejecting words past the last multiple.
    fn below(&mut self, bound: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next();
            if v < zone {
                return v % bound;
            }
        }
    }
}

/// Builds the deterministic RNG for a named test. Exposed for the
/// `proptest!` macro; not part of the public API of the real crate.
#[doc(hidden)]
pub fn test_rng(name: &str) -> TestRng {
    // FNV-1a over the test name, expanded to four words and remixed
    // through SplitMix64 into the xoshiro state.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    let h = name
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3));
    let mut s: [u64; 4] = std::array::from_fn(|i| h.wrapping_add(i as u64));
    let mut sm = s[0] ^ s[1] ^ s[2] ^ s[3] ^ GAMMA;
    for w in &mut s {
        sm = sm.wrapping_add(GAMMA);
        let mut z = sm ^ *w;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *w = z ^ (z >> 31);
    }
    TestRng(s)
}

/// Test-runner configuration; only the case count is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of random values for property tests.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Samples one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps sampled values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Samples a value, then samples from the strategy `f` builds from it.
    fn prop_flat_map<U, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        U: Strategy,
        F: Fn(Self::Value) -> U,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Strategy returning a clone of a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Strategy, F: Fn(S::Value) -> U> Strategy for FlatMap<S, F> {
    type Value = U::Value;
    fn sample(&self, rng: &mut TestRng) -> U::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Object-safe strategy used by [`BoxedStrategy`] and `prop_oneof!`.
trait DynStrategy {
    type Value;
    fn sample_dyn(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> DynStrategy for S {
    type Value = S::Value;
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample_dyn(rng)
    }
}

/// Uniform choice between boxed alternatives — the engine behind
/// `prop_oneof!`.
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// Builds a union; panics on an empty alternative list.
    pub fn new(alternatives: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!alternatives.is_empty(), "prop_oneof! needs at least one alternative");
        Union(alternatives)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.0.len() as u64) as usize;
        self.0[i].sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + i128::from(rng.below(span))) as $t
            }
        }
    )*};
}

impl_range_strategy!(u32, u64, usize, i64);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        // 53 random mantissa bits → uniform on [0, 1).
        let unit = (rng.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Boolean strategies (`proptest::bool`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// Strategy producing uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The `proptest::bool::ANY` singleton.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// The length specification for [`vec()`]: a fixed length or a half-open
    /// range of lengths.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy producing `Vec`s whose elements come from `element` and
    /// whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 == self.size.hi {
                self.size.lo
            } else {
                (self.size.lo..self.size.hi).sample(rng)
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Property assertion; identical to `assert!` in this subset (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Property equality assertion; identical to `assert_eq!` in this subset.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Defines `#[test]` functions whose arguments are sampled from strategies.
///
/// Supports the subset this workspace uses: an optional leading
/// `#![proptest_config(...)]`, then `#[test] fn name(pat in strategy, ...)
/// { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($config:expr); $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..config.cases {
                    $(let $pat = $crate::Strategy::sample(&($strategy), &mut rng);)+
                    $body
                }
            }
        )*
    };
}

/// One-stop imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just, ProptestConfig,
        Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_sample_in_bounds() {
        let mut rng = crate::test_rng("ranges");
        for _ in 0..1_000 {
            let v = (1u32..5).sample(&mut rng);
            assert!((1..5).contains(&v));
            let (a, b) = ((0usize..3), (-2i64..2)).sample(&mut rng);
            assert!(a < 3 && (-2..2).contains(&b));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut rng = crate::test_rng("map");
        let s = (1u32..4).prop_flat_map(|n| (Just(n), crate::collection::vec(0u32..10, 0..5)));
        for _ in 0..500 {
            let (n, v) = s.sample(&mut rng);
            assert!((1..4).contains(&n));
            assert!(v.len() < 5);
            assert!(v.iter().all(|&x| x < 10));
        }
        let doubled = (0u32..4).prop_map(|x| x * 2).sample(&mut rng);
        assert!(doubled % 2 == 0 && doubled < 8);
    }

    #[test]
    fn oneof_hits_every_alternative() {
        let mut rng = crate::test_rng("oneof");
        let s = prop_oneof![Just(1u32), Just(2u32), Just(3u32)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.sample(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn fixed_len_vec_is_exact() {
        let mut rng = crate::test_rng("vec");
        let v = crate::collection::vec(0.0f64..1.0, 7).sample(&mut rng);
        assert_eq!(v.len(), 7);
    }

    #[test]
    fn test_rng_stream_is_pinned() {
        // Every property test samples its cases from this stream: a drift
        // would silently change which cases every property checks.
        let mut rng = crate::test_rng("x");
        let every_kind =
            (0..u64::MAX, 0.0f64..1.0, 0u32..1000, 0usize..7, -5i64..5, crate::bool::ANY);
        let draws: Vec<_> = (0..4).map(|_| every_kind.sample(&mut rng)).collect();
        assert_eq!(
            draws,
            [
                (1678421394677445808, 0.08054382693835838, 699, 4, -2, false),
                (6717663697693828127, 0.04520894761042138, 327, 0, -1, true),
                (1287501904587615176, 0.8334679949072844, 929, 0, 0, true),
                (1291815305942286399, 0.7445369525681365, 929, 5, -5, false),
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_binds_tuple_patterns((a, b) in (0u32..10, 0u32..10), c in 0i64..5) {
            prop_assert!(a < 10 && b < 10);
            prop_assert_eq!(c.min(4), c);
        }
    }
}
