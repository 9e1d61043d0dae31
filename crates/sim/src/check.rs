//! Seeded property checks on [`SimRng`].
//!
//! The workspace's property tests are written against the `proptest`
//! macro surface: [`proptest!`](crate::proptest) with
//! `#![proptest_config(ProptestConfig::with_cases(n))]`, range / tuple /
//! [`Just`] / [`any`] / [`prop_oneof!`](crate::prop_oneof) /
//! [`collection::vec`] strategies, [`Strategy::prop_map`], and
//! `prop_assert{,_eq}!` / `prop_assume!`. This module is that surface
//! and nothing more, drawing every value from the workspace's one
//! generator.
//!
//! * **Seeded by name.** Each property seeds
//!   `SimRng::seed_from_u64(fnv1a(module_path::name))`, so a run replays
//!   by test name: a failure names the test and its case index, and
//!   rerunning that test reproduces it exactly.
//! * **No shrinking.** A strategy draws a value directly; there is no
//!   value tree. State-machine properties draw action lists, which a
//!   delta-debugger can cut on their own.
//!
//! A test file imports it as
//! `use locktune_sim::check::{self as proptest, prelude::*};`.

use std::fmt;
use std::ops::Range;
use std::rc::Rc;

use crate::SimRng;

/// FNV-1a hash of a test's path: the seed of its case stream.
pub fn fnv1a(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Run `cases` cases of the property `name`, each drawing from one
/// stream seeded by the name. A rejected case is skipped; the first
/// failing case panics with the name and its case index.
pub fn run(name: &str, cases: u32, mut case: impl FnMut(&mut SimRng) -> Result<(), TestCaseError>) {
    let mut rng = SimRng::seed_from_u64(fnv1a(name));
    for index in 0..cases {
        if let Err(TestCaseError::Fail(msg)) = case(&mut rng) {
            panic!("property {name} failed at case {index}/{cases}: {msg}");
        }
    }
}

/// Why a case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The property failed.
    Fail(String),
    /// The inputs were rejected (`prop_assume!`); the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// A failing case with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Per-property configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Run `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A value generator: draws one value per call, nothing shrinks.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut SimRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Erase the strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Rc::new(move |rng: &mut SimRng| self.generate(rng)),
        }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut SimRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Type-erased strategy (see [`Strategy::boxed`]).
#[derive(Clone)]
pub struct BoxedStrategy<V> {
    inner: Rc<dyn Fn(&mut SimRng) -> V>,
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut SimRng) -> V {
        (self.inner)(rng)
    }
}

/// Always produces a clone of the given value; draws nothing.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut SimRng) -> T {
        self.0.clone()
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut SimRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Weighted choice between strategies of one value type
/// ([`prop_oneof!`](crate::prop_oneof)).
pub struct Union<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total: u64,
}

impl<V> Union<V> {
    /// Build from `(weight, strategy)` arms. Weights must not all be 0.
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        Union { arms, total }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut SimRng) -> V {
        let mut pick = rng.next_below(self.total);
        for (w, s) in &self.arms {
            if pick < u64::from(*w) {
                return s.generate(rng);
            }
            pick -= u64::from(*w);
        }
        unreachable!("weights sum checked in Union::new")
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut SimRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.next_below(span) as i128) as $t
                }
            }
        )*
    };
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))+) => {
        $(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut SimRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )+
    };
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
}

/// Types with a canonical full-range strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut SimRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {
        $(impl Arbitrary for $t {
            fn arbitrary(rng: &mut SimRng) -> $t {
                rng.next_u64() as $t
            }
        })*
    };
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SimRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    /// Finite, in `[-1, 1)`: property inputs without NaN plumbing.
    fn arbitrary(rng: &mut SimRng) -> f64 {
        rng.next_f64() * 2.0 - 1.0
    }
}

/// Strategy produced by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut SimRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

pub mod collection {
    //! Collection strategies.

    use std::ops::Range;

    use super::Strategy;
    use crate::SimRng;

    /// Strategy for `Vec<T>` with a uniformly drawn length.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut SimRng) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `Vec`s whose length falls in `size`, elements drawn from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }
}

/// Define property tests: each `fn name(pat in strategy, ..) { body }`
/// becomes a test that runs its body over the configured number of
/// cases (256 by default) through [`check::run`](crate::check::run).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl!(($config) $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl!(($crate::check::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`]; the config is hoisted to a
/// depth-0 metavariable so the per-function repetition can name it.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            #[allow(unreachable_code)]
            fn $name() {
                let __config: $crate::check::ProptestConfig = $config;
                $crate::check::run(
                    concat!(module_path!(), "::", stringify!($name)),
                    __config.cases,
                    |__rng| {
                        $(let $pat = $crate::check::Strategy::generate(&($strat), __rng);)+
                        $body
                        ::std::result::Result::Ok(())
                    },
                );
            }
        )*
    };
}

/// Weighted (`w => strategy`) or unweighted choice between strategies
/// of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::check::Union::new(vec![
            $(($weight as u32, $crate::check::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::check::Union::new(vec![
            $((1u32, $crate::check::Strategy::boxed($strat))),+
        ])
    };
}

/// Assert inside a property: a false condition fails the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::check::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::check::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::check::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), __l, __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::check::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Skip the current case when its inputs are uninteresting.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::check::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

pub mod prelude {
    //! Glob-import surface: the strategies, the macros and the config.
    pub use super::{any, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{collection, run};
    use crate::SimRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let i = (-5i32..5).generate(&mut rng);
            assert!((-5..5).contains(&i));
            let f = (0.25f64..0.5).generate(&mut rng);
            assert!((0.25..0.5).contains(&f));
        }
    }

    #[test]
    fn oneof_respects_weights_roughly() {
        let s = prop_oneof![9 => Just(1u32), 1 => Just(2u32)];
        let mut rng = SimRng::seed_from_u64(2);
        let ones = (0..10_000).filter(|_| s.generate(&mut rng) == 1).count();
        assert!(ones > 8_500 && ones < 9_500, "got {ones}");
    }

    #[test]
    fn a_property_replays_by_name() {
        let draws = |name: &str| {
            let mut seen = Vec::new();
            run(name, 16, |rng| {
                seen.push(any::<u64>().generate(rng));
                Ok(())
            });
            seen
        };
        assert_eq!(draws("a::b"), draws("a::b"));
        assert_ne!(draws("a::b"), draws("a::c"));
        let mut rng = SimRng::seed_from_u64(super::fnv1a("a::b"));
        assert_eq!(draws("a::b")[0], rng.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn vec_lengths_in_range(v in collection::vec(0u8..10, 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn tuples_and_maps(x in (0u32..10, 0u32..10).prop_map(|(a, b)| a + b)) {
            prop_assert!(x < 19);
        }

        #[test]
        fn assumed_away_cases_are_skipped(x in 0u32..10) {
            prop_assume!(x < 100);
            prop_assert_eq!(x / 100, 0);
        }
    }

    #[test]
    fn failing_property_panics_with_case_info() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #[allow(dead_code)]
                fn always_fails(x in 0u32..10) {
                    prop_assert!(x > 100, "x was {}", x);
                }
            }
            always_fails();
        });
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("check::tests::always_fails"), "got: {msg}");
        assert!(msg.contains("failed at case 0/256: x was"), "got: {msg}");
    }

    #[test]
    fn rejected_cases_do_not_fail() {
        let mut calls = 0;
        run("rejects", 8, |_| {
            calls += 1;
            Err(TestCaseError::Reject("always".into()))
        });
        assert_eq!(calls, 8);
    }
}
