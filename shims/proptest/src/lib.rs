//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace
//! ships a small, API-compatible subset of proptest:
//!
//! - the [`proptest!`] macro (`fn name(arg in strategy, …) { … }`,
//!   optional `#![proptest_config(…)]` header),
//! - [`strategy::Strategy`] with `prop_map` / `prop_filter` / `boxed`,
//! - range, regex-literal, tuple and [`collection::vec`] strategies,
//!   [`any`](strategy::any), [`Just`](strategy::Just) and [`prop_oneof!`],
//! - `prop_assert!` / `prop_assert_eq!`.
//!
//! Differences from real proptest: cases are generated from a seed
//! derived from the test name (fully deterministic across runs), and
//! there is **no shrinking** — a failing case panics with the values
//! printed via the assertion message. Regex strategies support the
//! subset used in this repository: literals, `.`, character classes
//! (ranges, negation, escapes) and `{m}` / `{m,n}` repetition.

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! Collection strategies (`vec`).

    use crate::strategy::{SizeRange, Strategy, VecStrategy};

    /// A strategy for `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! The usual proptest imports.

    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

pub use test_runner::ProptestConfig;

/// Defines property tests: each `fn name(arg in strategy, …) body` runs
/// `ProptestConfig::cases` times with freshly generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let __strats = ($($strat,)+);
            let mut __rng =
                $crate::test_runner::TestRng::deterministic(stringify!($name));
            for __case in 0..__config.cases {
                let ($($arg,)+) =
                    $crate::strategy::Strategy::generate(&__strats, &mut __rng);
                $body
            }
        }
    )*};
}

/// One-of strategy over same-valued strategies; optional `weight =>` forms.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
}

/// Asserts a property; panics (no shrinking) on failure.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality of a property; panics (no shrinking) on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}
