//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no registry access, so the workspace vendors a
//! deterministic property-testing core exposing the subset of proptest's
//! API the test suites use: the [`proptest!`] macro (with an optional
//! `#![proptest_config(...)]` header), integer-range and tuple strategies,
//! [`any`], `prop_map`, [`collection::vec`], string-pattern strategies, and
//! the `prop_assert*` macros.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! - no shrinking — a failing case reports its seed and values instead;
//! - string "regex" strategies interpret only the `{m,n}` length suffix and
//!   otherwise generate arbitrary non-control characters (the suites use
//!   patterns like `"\\PC{0,200}"` purely as fuzz input);
//! - generation is deterministic per (test name, case index), so failures
//!   reproduce without a persistence file.

use std::fmt;
use std::ops::Range;

/// Pseudo-random generator driving value generation (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator for one test case, seeded from the test name
    /// and case index so runs are reproducible.
    pub fn for_case(name: &str, case: u64) -> TestRng {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift reduction; bias is irrelevant for fuzzing.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// A failed property check (returned by the `prop_assert*` macros).
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Creates a failure with a rendered message.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError(message.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// Generates values of an output type from randomness.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adaptor created by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
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
        f64::from_bits(rng.next_u64())
    }
}

/// Strategy returned by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy for any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any { _marker: std::marker::PhantomData }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// String "pattern" strategies: the pattern is treated as a character
/// class with an optional `{m,n}` length suffix; generated characters are
/// arbitrary non-control scalars (see module docs).
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        const POOL: &[char] = &[
            'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '(', ')', '{', '}', '[', ']', ';', ',', '.',
            '+', '-', '*', '/', '=', '<', '>', '!', '?', ':', '\'', '"', '\\', '_', '$', '#', 'é',
            'λ', '中', '🦀', '„', '‰',
        ];
        let (min, max) = parse_len_suffix(self).unwrap_or((0, 32));
        let len = min + rng.below((max - min + 1) as u64) as usize;
        (0..len).map(|_| POOL[rng.below(POOL.len() as u64) as usize]).collect()
    }
}

/// Extracts a trailing `{m,n}` repetition from a pattern, if present.
fn parse_len_suffix(pattern: &str) -> Option<(usize, usize)> {
    let body = pattern.strip_suffix('}')?;
    let open = body.rfind('{')?;
    let (min, max) = body[open + 1..].split_once(',')?;
    Some((min.trim().parse().ok()?, max.trim().parse().ok()?))
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Generates `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runs `cases` iterations of a property, panicking on the first failure
/// with the case index for reproduction.
pub fn run_property(
    config: &ProptestConfig,
    name: &str,
    property: impl Fn(&mut TestRng) -> Result<(), TestCaseError>,
) {
    for case in 0..u64::from(config.cases) {
        let mut rng = TestRng::for_case(name, case);
        if let Err(error) = property(&mut rng) {
            panic!("property {name} failed at case {case}: {error}");
        }
    }
}

/// Declares property tests: each function's arguments are drawn from the
/// given strategies and the body runs once per case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($config); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Internal expansion helper for [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr); $(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            #![allow(clippy::redundant_closure_call)]
            let config = $config;
            $crate::run_property(&config, stringify!($name), |rng| {
                $(let $arg = $crate::Strategy::generate(&($strategy), rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    Ok(())
                })();
                outcome
            });
        }
        $crate::__proptest_fns!(($config); $($rest)*);
    };
    (($config:expr);) => {};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: {:?} != {:?}", left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: {:?} != {:?}: {}", left, right, format!($($fmt)*)
        );
    }};
}

/// Fails the current case unless the operands compare unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: {:?} == {:?}", left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: {:?} == {:?}: {}", left, right, format!($($fmt)*)
        );
    }};
}

/// The glob import the test suites use.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestCaseError, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(a in 3u64..17, b in -5i64..5, c in 0usize..1) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((-5..5).contains(&b));
            prop_assert_eq!(c, 0);
        }

        #[test]
        fn vec_lengths_respect_range(v in collection::vec(any::<u8>(), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
        }

        #[test]
        fn tuples_and_map_compose(pair in (0u32..10, 0u32..10).prop_map(|(x, y)| x + y)) {
            prop_assert!(pair < 19, "sum {}", pair);
        }

        #[test]
        fn string_patterns_obey_length(s in "\\PC{0,20}") {
            prop_assert!(s.chars().count() <= 20);
        }
    }

    #[test]
    fn determinism_per_name_and_case() {
        let mut a = TestRng::for_case("x", 7);
        let mut b = TestRng::for_case("x", 7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("y", 7);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_index() {
        run_property_fails();
    }

    fn run_property_fails() {
        crate::run_property(&ProptestConfig::with_cases(4), "always_fails", |_rng| {
            Err(TestCaseError::fail("nope"))
        });
    }
}
