//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! implements the subset of the proptest API used by the workspace's
//! property tests: the [`Strategy`] trait with `prop_map` /
//! `prop_flat_map`, range and tuple strategies, [`Just`], [`any`],
//! `prop::collection::vec`, `prop::bool::ANY`, [`Union`] (behind
//! `prop_oneof!`), [`ProptestConfig`] (whose default case count
//! `PROPTEST_CASES` overrides), and the `proptest!` / `prop_assert*!`
//! macros.
//!
//! Differences from real proptest: failing cases are not shrunk (the
//! failing inputs are reported as-is by the assertion message), and
//! case generation is seeded deterministically from the test name so
//! failures reproduce across runs.

use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SampleRange, SeedableRng};

/// Per-test RNG. Seeded from the test name, so each test sees a stable
/// stream across runs.
pub struct TestRng(StdRng);

impl TestRng {
    /// Deterministic RNG for the named test.
    pub fn deterministic(name: &str) -> TestRng {
        // FNV-1a over the test name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Configuration block accepted by `#![proptest_config(..)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
    /// Accepted for API compatibility; the shim never shrinks.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    /// 256 cases, or as many as the `PROPTEST_CASES` environment
    /// variable says (as in real proptest).
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES").ok();
        ProptestConfig {
            cases: cases.and_then(|c| c.parse().ok()).unwrap_or(256),
            max_shrink_iters: 1024,
        }
    }
}

/// A generator of random values (no shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` builds
    /// out of it.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
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
#[derive(Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform value over the full domain of `T` (`any::<T>()`).
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: rand::Standard> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        rng.gen::<T>()
    }
}

/// Strategy over the whole domain of `T`.
pub fn any<T>() -> Any<T> {
    Any(PhantomData)
}

impl<T> Strategy for Range<T>
where
    T: Copy,
    Range<T>: SampleRange<T>,
{
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// A type-erased sampling arm of a [`Union`].
pub type UnionArm<V> = Rc<dyn Fn(&mut TestRng) -> V>;

/// Weightless union of same-valued strategies; backs `prop_oneof!`.
pub struct Union<V> {
    arms: Vec<UnionArm<V>>,
}

impl<V> Union<V> {
    /// Build from type-erased sampling arms.
    pub fn new(arms: Vec<UnionArm<V>>) -> Union<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Clone for Union<V> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
        }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.arms.len());
        (self.arms[i])(rng)
    }
}

/// `prop::collection` — sized containers of generated elements.
pub mod collection {
    use super::{Rng, Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec`]: a fixed size or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    /// `Vec` of values from `element`, with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into().0,
        }
    }

    /// See [`vec`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// `prop::bool` — boolean strategies.
pub mod bool {
    use super::{Rng, Strategy, TestRng};

    /// Uniform `true`/`false`.
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.gen::<bool>()
        }
    }

    /// Either boolean with equal probability (`prop::bool::ANY`).
    pub const ANY: BoolAny = BoolAny;
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{any, Any, Just, ProptestConfig, Strategy, TestRng, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced strategy modules (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::{bool, collection};
    }
}

/// Defines `#[test]` functions whose arguments are drawn from
/// strategies, running each body over `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (@run ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let _ = __case;
                $(let $arg = $crate::Strategy::sample(&$strat, &mut __rng);)+
                $body
            }
        }
    )*};
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Assertion inside `proptest!` bodies (no shrinking, plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assertion inside `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Inequality assertion inside `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Picks uniformly among the listed strategies; all arms must produce
/// the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $({
                let __s = $arm;
                ::std::rc::Rc::new(move |rng: &mut $crate::TestRng| $crate::Strategy::sample(&__s, rng))
                    as ::std::rc::Rc<dyn Fn(&mut $crate::TestRng) -> _>
            }),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_vec() -> impl Strategy<Value = Vec<i64>> {
        prop::collection::vec(-5i64..5, 0..10)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_in_bounds(x in -3i64..3, y in 0u8..4) {
            prop_assert!((-3..3).contains(&x));
            prop_assert!(y < 4);
        }

        #[test]
        fn vec_lengths(v in small_vec(), flag in prop::bool::ANY) {
            prop_assert!(v.len() < 10);
            prop_assert!(matches!(flag, true | false));
        }

        #[test]
        fn oneof_and_maps((a, b) in (0i32..5, 0i32..5).prop_map(|(a, b)| (a, a + b))) {
            prop_assert!(b >= a);
        }
    }

    #[test]
    fn union_clone_samples_all_arms() {
        let u = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let u2 = u.clone();
        let mut rng = TestRng::deterministic("union");
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[u2.sample(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn flat_map_dependent_sizes() {
        let s = (1usize..6).prop_flat_map(|n| prop::collection::vec(0i64..10, n));
        let mut rng = TestRng::deterministic("flat_map");
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((1..6).contains(&v.len()));
        }
    }
}
