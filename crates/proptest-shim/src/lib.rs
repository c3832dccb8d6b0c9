//! Offline stand-in for the subset of the `proptest` crate this
//! workspace uses. The build environment has no registry access, so the
//! workspace vendors a small random-testing engine with the same surface
//! syntax: the [`proptest!`] macro, `any::<T>()`, range and tuple
//! strategies, `prop_map` / `prop_recursive` combinators,
//! [`collection::vec`], [`sample::Index`], `prop_oneof!`, `Just`, and the
//! `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from real proptest, by design:
//!
//! - **No shrinking.** A failing case reports its case number and the
//!   deterministic per-test seed instead of a minimized input.
//! - **Deterministic by default.** Each test function derives its RNG
//!   seed from its own name, so runs are reproducible; set
//!   `PROPTEST_SEED` to explore a different universe.
//! - Default case count is 64 (raise with `PROPTEST_CASES` or
//!   `ProptestConfig::with_cases`).

#![forbid(unsafe_code)]

pub mod strategy;

pub mod test_runner;

pub use strategy::Strategy;

/// Strategies for collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A size specification for [`fn@vec`]: an exact length or a range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<T>` with element strategy `element` and a length
    /// drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`fn@vec`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo) as u64;
            let len = self.size.lo + (rng.next_u64() % (span + 1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Strategies that sample from existing data.
pub mod sample {
    use crate::strategy::{Arbitrary, FnStrategy};

    /// An abstract index into a not-yet-known collection length.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub struct Index(u64);

    impl Index {
        /// Resolves against a concrete collection length.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "cannot index an empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        type Strategy = FnStrategy<Index>;

        fn arbitrary() -> Self::Strategy {
            FnStrategy::new(|rng| Index(rng.next_u64()))
        }
    }
}

/// The commonly used names, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Builds a union strategy choosing uniformly among the listed arms.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Asserts inside a proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            panic!("prop_assert failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            panic!($($fmt)*);
        }
    };
}

/// Asserts equality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            panic!(
                "prop_assert_eq failed: {} != {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            );
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            panic!($($fmt)*);
        }
    }};
}

/// Asserts inequality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            panic!(
                "prop_assert_ne failed: {} == {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            );
        }
    }};
}

/// Discards the current case (counts as a rejection, not a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::Rejected);
        }
    };
}

/// Defines property tests. Mirrors `proptest::proptest!` syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     #[test]
///     fn my_prop(a in 0u64..10, b in any::<u8>()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ($config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            let seed = $crate::test_runner::seed_for(stringify!($name));
            let mut rng = $crate::test_runner::TestRng::new(seed);
            let strat = ($($strat,)+);
            let mut accepted = 0u32;
            let mut rejected = 0u32;
            let mut case = 0u32;
            while accepted < config.cases {
                let ($($pat,)+) = $crate::strategy::Strategy::generate(&strat, &mut rng);
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(
                        move || -> ::std::result::Result<(), $crate::test_runner::Rejected> {
                            $body
                            ::std::result::Result::Ok(())
                        },
                    ),
                );
                match outcome {
                    Ok(Ok(())) => accepted += 1,
                    Ok(Err($crate::test_runner::Rejected)) => {
                        rejected += 1;
                        assert!(
                            rejected <= config.cases.saturating_mul(16).max(1024),
                            "proptest {}: too many rejected cases ({rejected})",
                            stringify!($name),
                        );
                    }
                    Err(payload) => {
                        eprintln!(
                            "proptest {} failed at case {case} (seed {seed:#x}); \
                             set PROPTEST_SEED={seed} to focus this universe",
                            stringify!($name),
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
                case += 1;
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(a in 3u64..17, b in 1u8..=4) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((1..=4).contains(&b));
        }

        #[test]
        fn assume_rejects_without_failing(v in 0u32..10) {
            prop_assume!(v != 3);
            prop_assert_ne!(v, 3);
        }

        #[test]
        fn vec_lengths_respect_size(v in crate::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
        }

        #[test]
        fn oneof_and_just_cover_arms(v in prop_oneof![Just(1u8), Just(2u8)]) {
            prop_assert!(v == 1 || v == 2);
        }

        #[test]
        fn index_resolves(idx in any::<crate::sample::Index>(), v in crate::collection::vec(any::<u8>(), 1..9)) {
            prop_assert!(idx.index(v.len()) < v.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_is_honored(_x in any::<u64>()) {
            // Runs exactly five cases; nothing to assert beyond arrival.
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        use crate::strategy::Strategy;
        #[derive(Clone, Debug)]
        enum Tree {
            Leaf(#[allow(dead_code)] u8),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = (0u8..16)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 24, 2, |inner| {
                (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
            });
        let mut rng = crate::test_runner::TestRng::new(42);
        let mut saw_node = false;
        for _ in 0..200 {
            let t = strat.generate(&mut rng);
            assert!(depth(&t) <= 3);
            saw_node |= matches!(t, Tree::Node(..));
        }
        assert!(saw_node, "recursion should produce at least one node");
    }
}
