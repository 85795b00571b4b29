//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no reachable crate registry, so the workspace
//! vendors the slice of the proptest API its tests use: the `proptest!`
//! macro, `Strategy` with `prop_map`, range/tuple/`Just`/`prop_oneof!`
//! strategies, `proptest::collection::vec`, `any::<T>()`, and
//! `ProptestConfig::with_cases`.
//!
//! Differences from upstream, deliberately accepted:
//! * no shrinking — a failing case is reported as-is;
//! * the case stream is seeded from the test function's name, so every
//!   run of a test explores the same deterministic sequence (failures
//!   always reproduce);
//! * two environment variables steer a run: `PROPTEST_SEED` (a `u64`,
//!   decimal or `0x` hex) is mixed into every test's seed, so a run with
//!   a new value explores new cases, and `PROPTEST_CASES` replaces every
//!   test's case count. A failing case prints its test, case number and
//!   seeds; the same `PROPTEST_SEED` (and `PROPTEST_CASES`, if it was
//!   set) replays it;
//! * `.proptest-regressions` files are not consulted (regressions worth
//!   keeping must be promoted to named unit tests).

pub mod test_runner {
    use rand::{RngCore, SeedableRng};

    /// Runner configuration; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each test explores.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per test.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// The deterministic random source strategies draw from.
    pub struct TestRng(rand::rngs::StdRng);

    impl TestRng {
        /// Creates a generator from a 64-bit seed.
        #[must_use]
        pub fn from_seed(seed: u64) -> Self {
            Self(rand::rngs::StdRng::seed_from_u64(seed))
        }

        /// A seed derived deterministically from a test's name.
        #[must_use]
        pub fn seed_from_name(name: &str) -> u64 {
            // FNV-1a, good enough to decorrelate sibling tests.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    /// A `u64` written in decimal or as `0x` hex.
    #[must_use]
    pub fn parse_u64(text: &str) -> Option<u64> {
        let text = text.trim();
        match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => text.parse().ok(),
        }
    }

    /// The value of the environment variable `name`, parsed by
    /// [`parse_u64`]; `None` when it is unset.
    ///
    /// # Panics
    /// Panics when it is set to something else: a run asked for a seed
    /// or case count it cannot have.
    fn env_u64(name: &str) -> Option<u64> {
        let text = std::env::var(name).ok()?;
        let value = parse_u64(&text);
        Some(value.unwrap_or_else(|| panic!("{name}={text:?} is not a u64")))
    }

    /// The run's `PROPTEST_SEED`, if set.
    #[must_use]
    pub fn run_seed() -> Option<u64> {
        env_u64("PROPTEST_SEED")
    }

    /// A test's seed: its name's, with the run seed mixed in when one is
    /// given (SplitMix64's finalizer, so neighbouring run seeds give
    /// unrelated streams).
    #[must_use]
    pub fn test_seed(name: &str, run_seed: Option<u64>) -> u64 {
        let named = TestRng::seed_from_name(name);
        let Some(run) = run_seed else {
            return named;
        };
        let mut z = named ^ run.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// How many cases a test runs: `PROPTEST_CASES` if set, else the
    /// test's configuration.
    #[must_use]
    pub fn cases(config: &ProptestConfig) -> u32 {
        match env_u64("PROPTEST_CASES") {
            Some(n) => u32::try_from(n).expect("PROPTEST_CASES fits a u32"),
            None => config.cases,
        }
    }

    /// Names the running case while it is alive: a case that panics
    /// prints how to replay it as it unwinds.
    pub struct CaseGuard {
        /// The test.
        pub name: &'static str,
        /// The case, counted from 0.
        pub case: u32,
        /// The test's seed.
        pub seed: u64,
        /// The run's `PROPTEST_SEED`.
        pub run_seed: Option<u64>,
    }

    impl Drop for CaseGuard {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let run = self.run_seed.map_or("unset".to_string(), |s| s.to_string());
                eprintln!(
                    "proptest: {} failed on case {} (test seed {:#x}, PROPTEST_SEED={run}); \
                     the same PROPTEST_SEED and PROPTEST_CASES replay it",
                    self.name, self.case, self.seed
                );
            }
        }
    }

    impl rand::RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

pub mod strategy {
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    use rand::Rng;

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! numeric_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    // f64 is the only float on purpose: a second float impl would make
    // unannotated literal ranges ambiguous as strategies.
    numeric_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9)
    }

    /// Type-erased sampler used by [`Union`].
    pub type Sampler<T> = Rc<dyn Fn(&mut TestRng) -> T>;

    /// A weighted choice among strategies — `prop_oneof!`'s engine.
    #[derive(Clone)]
    pub struct Union<T> {
        options: Vec<(u32, Sampler<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// An empty union; populate it with [`Union::or`].
        #[must_use]
        pub fn empty() -> Self {
            Self {
                options: Vec::new(),
                total: 0,
            }
        }

        /// Adds a weighted option (builder-style, so the value type
        /// unifies across heterogeneous strategy arms).
        #[must_use]
        pub fn or<S>(mut self, weight: u32, strat: S) -> Self
        where
            S: Strategy<Value = T> + 'static,
        {
            self.options.push((
                weight,
                Rc::new(move |rng: &mut TestRng| strat.generate(rng)),
            ));
            self.total += u64::from(weight);
            self
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(
                self.total > 0,
                "prop_oneof! needs at least one weighted option"
            );
            let mut pick = rng.next_u64() % self.total;
            for (w, sampler) in &self.options {
                let w = u64::from(*w);
                if pick < w {
                    return sampler(rng);
                }
                pick -= w;
            }
            unreachable!("weights sum to total")
        }
    }

    /// A type with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                #[allow(clippy::cast_possible_truncation)]
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Reinterpreted bits: covers NaN, infinities, subnormals.
            f64::from_bits(rng.next_u64())
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            f32::from_bits(rng.next_u64() as u32)
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Any value of type `T` (mirrors `proptest::prelude::any`).
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    use std::ops::Range;

    use rand::Rng;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` whose length is drawn from `size` and whose elements come
    /// from `element` (mirrors `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.len() <= 1 {
                self.size.start
            } else {
                rng.gen_range(self.size.clone())
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines deterministic property tests (see crate docs for the
/// differences from upstream proptest).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$attr:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let __run_seed = $crate::test_runner::run_seed();
                let __seed = $crate::test_runner::test_seed(stringify!($name), __run_seed);
                let mut __rng = $crate::test_runner::TestRng::from_seed(__seed);
                for __case in 0..$crate::test_runner::cases(&__config) {
                    let _guard = $crate::test_runner::CaseGuard {
                        name: stringify!($name),
                        case: __case,
                        seed: __seed,
                        run_seed: __run_seed,
                    };
                    $(
                        let $arg =
                            $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    )+
                    $body
                }
            }
        )*
    };
}

/// Weighted or uniform choice among strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::empty()$(.or(($weight) as u32, $strat))+
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::empty()$(.or(1u32, $strat))+
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        /// Range, tuple, map, oneof, vec, and any strategies compose.
        #[test]
        fn strategies_stay_in_bounds(
            x in 0.0f64..10.0,
            n in 1usize..5,
            pair in (0u8..4, -2i64..=2).prop_map(|(a, b)| (a, b)),
            pick in prop_oneof![2 => Just(0u32), 1 => 10u32..20],
            xs in crate::collection::vec(0u16..100, 0..8),
            raw in any::<u64>(),
        ) {
            prop_assert!((0.0..10.0).contains(&x));
            prop_assert!((1..5).contains(&n));
            prop_assert!(pair.0 < 4 && (-2..=2).contains(&pair.1));
            prop_assert!(pick == 0 || (10..20).contains(&pick));
            prop_assert!(xs.len() < 8);
            prop_assert!(xs.iter().all(|&v| v < 100));
            let _ = raw;
        }
    }

    #[test]
    fn seeds_parse_and_mix() {
        use crate::test_runner::{parse_u64, test_seed, TestRng};
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64(" 0x2A "), Some(42));
        assert_eq!(parse_u64("forty-two"), None);
        // No run seed: the name's seed, as every run before the override.
        assert_eq!(test_seed("t", None), TestRng::seed_from_name("t"));
        // A run seed moves every test, and neighbouring ones far apart.
        let (a, b) = (test_seed("t", Some(1)), test_seed("t", Some(2)));
        assert_ne!(a, TestRng::seed_from_name("t"));
        assert!((a ^ b).count_ones() > 8, "{a:#x} vs {b:#x}");
        assert_ne!(test_seed("t", Some(1)), test_seed("u", Some(1)));
    }

    #[test]
    fn same_name_same_stream() {
        use crate::strategy::Strategy;
        let seed = crate::test_runner::TestRng::seed_from_name("t");
        let mut a = crate::test_runner::TestRng::from_seed(seed);
        let mut b = crate::test_runner::TestRng::from_seed(seed);
        let s = 0.0f64..1.0;
        for _ in 0..32 {
            assert_eq!(s.generate(&mut a).to_bits(), s.generate(&mut b).to_bits());
        }
    }
}
