//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build environment has no network access, so the real crate cannot be
//! fetched. This stub implements exactly the API subset the workspace's
//! property tests use — `Strategy` with `prop_map`/`prop_recursive`, range,
//! tuple, collection, boolean and string strategies, `prop_oneof!`, the
//! `proptest!` macro and `prop_assert*!` — on top of a deterministic
//! splitmix-style PRNG. There is no shrinking: a failing case prints its
//! seed and case number so it can be replayed by rerunning the test.

use std::cell::Cell;

/// The deterministic random number generator behind every strategy.
///
/// Seeded per test from `PROPTEST_SEED` (decimal) when set, otherwise from
/// a fixed default, so failures are reproducible run to run.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator for `case` of the test named `test`.
    pub fn for_case(test: &str, case: u64) -> Self {
        let base = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x9E37_79B9_7F4A_7C15u64);
        // Mix the test name in so sibling tests see different streams.
        let mut h = base ^ case.wrapping_mul(0xA076_1D64_78BD_642F);
        for b in test.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
        TestRng { state: h | 1 }
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::TestRng;
    use std::rc::Rc;

    /// A recipe for generating values of one type.
    ///
    /// Unlike real proptest there is no value tree and no shrinking —
    /// `generate` directly produces a value from the RNG.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Produces one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Builds a recursive strategy: `self` generates the leaves and
        /// `f` wraps an inner strategy into one more level, applied
        /// `depth` times. The `_desired_size` and `_expected_branch`
        /// hints of the real API are accepted and ignored.
        fn prop_recursive<F, S>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
            S: Strategy<Value = Self::Value> + 'static,
        {
            let mut level = self.boxed();
            for _ in 0..depth {
                level = f(level).boxed();
            }
            level
        }

        /// Erases the strategy type (cheaply clonable).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
        }
    }

    /// A type-erased, clonable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between same-valued strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
            }
        }
    }

    impl<T> Union<T> {
        /// Builds the union; `arms` must be non-empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo + 1) as u64;
                    (lo + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategies!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    macro_rules! tuple_strategies {
        ($(($($s:ident $i:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategies! {
        (A 0);
        (A 0, B 1);
        (A 0, B 1, C 2);
        (A 0, B 1, C 2, D 3);
        (A 0, B 1, C 2, D 3, E 4);
        (A 0, B 1, C 2, D 3, E 4, F 5);
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6);
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);
    }

    /// `&str` patterns act as (very approximate) regex string strategies.
    ///
    /// Only the shape the workspace uses is honoured: `[X-Y]{lo,hi}`
    /// generates `lo..=hi` characters uniformly from the literal range
    /// `X..=Y`. Anything else falls back to 0–20 printable ASCII chars.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (mut lo_c, mut hi_c) = (' ', '~');
            let (mut lo_n, mut hi_n) = (0u64, 20u64);
            let bytes = self.as_bytes();
            // Parse the single supported pattern form, else keep defaults.
            if bytes.len() >= 5 && bytes[0] == b'[' && bytes[4] == b']' && bytes[2] == b'-' {
                lo_c = bytes[1] as char;
                hi_c = bytes[3] as char;
                if let Some(rest) = self[5..].strip_prefix('{') {
                    if let Some(body) = rest.strip_suffix('}') {
                        if let Some((a, b)) = body.split_once(',') {
                            lo_n = a.trim().parse().unwrap_or(lo_n);
                            hi_n = b.trim().parse().unwrap_or(hi_n);
                        }
                    }
                }
            }
            let n = lo_n + rng.below(hi_n - lo_n + 1);
            (0..n)
                .map(|_| {
                    let span = hi_c as u32 - lo_c as u32 + 1;
                    char::from_u32(lo_c as u32 + rng.below(span as u64) as u32).unwrap_or(' ')
                })
                .collect()
        }
    }
}

pub mod arbitrary {
    //! The [`Arbitrary`] trait behind [`any`](crate::prelude::any).

    use super::strategy::Strategy;
    use super::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy generating any value of `T` (see [`any`](crate::prelude::any)).
    pub struct AnyStrategy<T>(pub(crate) PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use super::strategy::Strategy;
    use super::TestRng;

    /// A length specification accepted by [`vec`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }
    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }
    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for vectors of values from `elem`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Generates vectors whose length lies in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let n = self.size.lo + rng.below(span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod bool {
    //! Boolean strategies (`prop::bool::ANY`).

    use super::strategy::Strategy;
    use super::TestRng;

    /// Strategy yielding `true` or `false` uniformly.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The canonical boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Runner configuration (`cases` is the only honoured knob).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each `proptest!` test executes.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

thread_local! {
    static CURRENT_CASE: Cell<u64> = const { Cell::new(0) };
}

/// Test-runner plumbing used by the generated test bodies.
pub mod runner {
    use super::*;

    /// Records the case index so assertion failures can report it.
    pub fn set_case(case: u64) {
        CURRENT_CASE.with(|c| c.set(case));
    }

    /// The case index of the currently executing generated test.
    pub fn current_case() -> u64 {
        CURRENT_CASE.with(|c| c.get())
    }

    pub use super::strategy::Strategy as RunnerStrategy;
    pub use super::TestRng;
}

/// Builds a deterministic RNG stream for one (test, case) pair.
pub fn rng_for(test: &str, case: u64) -> TestRng {
    TestRng::for_case(test, case)
}

/// Re-export hub mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::Arbitrary;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    use std::marker::PhantomData;

    /// The `prop` module namespace (`prop::collection`, `prop::bool`, ...).
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::strategy::Just;
    }

    /// Strategy generating any value of `T`.
    pub fn any<T: Arbitrary>() -> crate::arbitrary::AnyStrategy<T> {
        crate::arbitrary::AnyStrategy(PhantomData)
    }
}

/// Uniform choice between the given strategies (all must generate the same
/// value type). Weights (`n => strategy`) are not supported.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Property assertion; failure panics with the case number for replay.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            panic!(
                "[proptest stub case {}] {}",
                $crate::runner::current_case(),
                format!($($fmt)*)
            );
        }
    };
}

/// Equality property assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{:?} != {:?}", a, b);
    }};
}

/// Inequality property assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "{:?} == {:?}", a, b);
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg); $($rest)*);
    };
    (@run ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for case in 0..cfg.cases as u64 {
                $crate::runner::set_case(case);
                let mut rng = $crate::rng_for(stringify!($name), case);
                $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut rng);)+
                $body
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::rng_for("ranges", 0);
        for _ in 0..200 {
            let v = (3u8..7).generate(&mut rng);
            assert!((3..7).contains(&v));
            let w = (1u8..=6).generate(&mut rng);
            assert!((1..=6).contains(&w));
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let s = prop_oneof![Just(1u8), Just(2), Just(3)];
        let mut rng = crate::rng_for("oneof", 0);
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug)]
        enum T {
            Leaf(u8),
            Node(Box<T>, Box<T>),
        }
        fn depth(t: &T) -> u32 {
            match t {
                T::Leaf(v) => {
                    assert!(*v < 10, "leaves come from 0..10");
                    0
                }
                T::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let s = (0u8..10)
            .prop_map(T::Leaf)
            .prop_recursive(4, 16, 2, |inner| {
                (inner.clone(), inner).prop_map(|(a, b)| T::Node(Box::new(a), Box::new(b)))
            });
        let mut rng = crate::rng_for("recursive", 0);
        for _ in 0..50 {
            assert!(depth(&s.generate(&mut rng)) <= 4);
        }
    }

    #[test]
    fn string_pattern_is_honoured() {
        let s = "[a-c]{2,5}";
        let mut rng = crate::rng_for("strings", 0);
        for _ in 0..50 {
            let v = Strategy::generate(&s, &mut rng);
            assert!((2..=5).contains(&v.len()), "{v:?}");
            assert!(v.chars().all(|c| ('a'..='c').contains(&c)), "{v:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_generates_runnable_tests(
            xs in prop::collection::vec(0i64..100, 0..10),
            flip in prop::bool::ANY,
        ) {
            let sum: i64 = xs.iter().sum();
            prop_assert!(sum >= 0);
            prop_assert!(u8::from(flip) <= 1);
            prop_assert_eq!(sum, xs.iter().rev().sum::<i64>());
        }
    }
}
