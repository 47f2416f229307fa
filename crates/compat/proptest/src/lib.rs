//! An offline drop-in for the subset of the `proptest` 1.x API this
//! workspace's property tests use: the `proptest!` macro, range and tuple
//! strategies, `prop_map`, `any::<T>()`, `collection::vec`, the
//! `prop_assert*` macros, and `ProptestConfig::with_cases`.
//!
//! Cases are drawn from the workspace's one seeded generator,
//! [`euphrates_common::rngx::Rng`], seeded from the test name, so failures
//! reproduce exactly. There is no shrinking: a failing case panics with
//! the standard assertion message, which for these tests already prints
//! the offending values.

use euphrates_common::rngx::{Fnv1a, Rng, SampleUniform};
use std::ops::{Range, RangeInclusive};

/// Per-test configuration (only the case count is honored).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic per-test RNG (seeded with FNV-1a over the test name).
pub fn test_rng(name: &str) -> Rng {
    let mut h = Fnv1a::new();
    h.write(name.as_bytes());
    Rng::seed_from_u64(h.finish())
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut Rng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut Rng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T: SampleUniform> Strategy for RangeInclusive<T> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut Rng) -> Self::Value {
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

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draws one value over the full domain.
    fn arbitrary(rng: &mut Rng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            /// The low bits of one 64-bit draw.
            fn arbitrary(rng: &mut Rng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    /// The lowest bit of one 64-bit draw.
    fn arbitrary(rng: &mut Rng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy over a type's full domain.
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::Strategy;
    use euphrates_common::rngx::Rng;
    use std::ops::Range;

    /// Vectors of `element` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `vec(element, 1..200)` — the `proptest::collection::vec` entry point.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut Rng) -> Self::Value {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything the tests import, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, Arbitrary, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Asserts a property-case condition (no shrinking: panics immediately).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts property-case equality (no shrinking: panics immediately).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::test_rng(stringify!($name));
                for _case in 0..config.cases {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
}

/// The `proptest!` block macro: each contained `fn name(x in strat, ...)`
/// becomes a `#[test]` running `config.cases` sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples_sample_in_bounds(
            x in -5.0f64..5.0,
            pair in (0u32..10, 0.0f64..=1.0),
            v in collection::vec(0i64..=3, 1..20),
        ) {
            prop_assert!((-5.0..5.0).contains(&x));
            prop_assert!(pair.0 < 10 && (0.0..=1.0).contains(&pair.1));
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&e| (0..=3).contains(&e)));
        }

        #[test]
        fn prop_map_applies(y in (0.0f64..1.0).prop_map(|v| v + 10.0)) {
            prop_assert!((10.0..11.0).contains(&y));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_test_name() {
        let mut a = crate::test_rng("t");
        let mut b = crate::test_rng("t");
        let s = 0.0f64..1.0;
        prop_assert_eq!(
            crate::Strategy::sample(&s, &mut a).to_bits(),
            crate::Strategy::sample(&s, &mut b).to_bits()
        );
    }
}
