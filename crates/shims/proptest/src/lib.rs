//! Offline drop-in shim for the [proptest](https://docs.rs/proptest) API
//! surface this workspace uses.
//!
//! The build container has no access to crates.io, so the real proptest
//! cannot be vendored.  This shim runs each property over a deterministic
//! pseudo-random case stream (SplitMix64 seeded from the test name) and
//! reports the first failing case.  It implements the strategies the test
//! suite needs — integer ranges, tuples, and `collection::vec` — but performs
//! no input shrinking; swap the path dependency for the real crate when a
//! registry is available.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Deterministic SplitMix64 generator driving case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from a test name (FNV-1a) so every property has a
    /// stable, independent stream.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self { state: h | 1 }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi)`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "empty range");
        lo + self.next_u64() % (hi - lo)
    }
}

/// Generation configuration (`cases` = properties evaluated per test).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A failed property case.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A value generator (the shim generates eagerly and never shrinks).
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range_u64(self.start as u64, self.end as u64) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range_u64(*self.start() as u64, *self.end() as u64 + 1) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<S: Strategy> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (*self).generate(rng)
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for vectors with element strategy `S` and a length range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `vec(element, len_range)`: vectors whose length is drawn from
    /// `len_range` and whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range_u64(
                self.size.start as u64,
                self.size.end.max(self.size.start + 1) as u64,
            ) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The commonly imported names (`proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Asserts a condition inside a property, failing the case (not panicking
/// directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// Asserts two values are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "{} (`{:?}` != `{:?}`)",
                format!($($fmt)+),
                left,
                right
            )));
        }
    }};
}

/// Asserts two values differ inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        #[test]
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_name(stringify!($name));
            for case in 0..config.cases {
                let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = result {
                    panic!(
                        "property {} failed at case {}/{}: {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::collection::vec;
    use crate::prelude::*;

    fn pairs() -> impl Strategy<Value = Vec<(u32, u64)>> {
        vec((0u32..10, 1u64..5), 0..20)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3u32..17, y in 1usize..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..=4).contains(&y), "y = {}", y);
        }

        #[test]
        fn vec_strategy_respects_length_and_elements(v in pairs()) {
            prop_assert!(v.len() < 20);
            for (a, b) in v {
                prop_assert!(a < 10);
                prop_assert_eq!(b.clamp(1, 4), b);
            }
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::from_name("t");
        let mut b = crate::TestRng::from_name("t");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::from_name("other");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn failed_assertions_surface_as_case_errors() {
        let check = |x: u32| -> Result<(), crate::TestCaseError> {
            prop_assert!(x > 100, "x = {}", x);
            Ok(())
        };
        assert!(check(200).is_ok());
        let err = check(3).unwrap_err();
        assert_eq!(err.to_string(), "x = 3");
    }
}
