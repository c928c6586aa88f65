//! # bfc-testkit — miniature property-testing harness
//!
//! A dependency-free replacement for the slice of `proptest` this repository
//! uses, layered on `bfc-sim`'s deterministic [`SimRng`](bfc_sim::SimRng) so
//! the whole workspace builds and tests offline:
//!
//! * [`gen`] — composable generators: integer/float ranges, `vec_of`,
//!   `hash_set_of`, `one_of`, and tuple combinators, each with greedy shrink
//!   candidates.
//! * [`runner`] — the seeded case runner: N deterministic cases per property,
//!   `catch_unwind`-based failure capture, greedy input shrinking, and a
//!   failure report that prints the per-case seed. `BFC_TESTKIT_SEED=<seed>`
//!   replays exactly the failing case; `BFC_TESTKIT_CASES=<n>` changes the
//!   case count.
//! * [`property!`] — a `proptest!`-style macro that wraps a property body in
//!   a `#[test]` function.
//! * [`codec`] — the round-trip laws of a snapshot encoding, as one assertion
//!   to run over generated values.
//!
//! ```
//! use bfc_testkit::{property, int_range, vec_of};
//!
//! property! {
//!     /// Reversing a vector twice is the identity.
//!     fn double_reverse_is_identity(v in vec_of(int_range(0u64..1000), 1..50)) {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         assert_eq!(v, w);
//!     }
//! }
//! ```
//!
//! (`#[test]` items are omitted outside test builds, so the doctest only
//! checks that the macro expands; the crate's unit tests execute it.)

pub mod codec;
pub mod gen;
pub mod runner;

pub use codec::{assert_codec_laws, assert_snap_round_trip};
pub use gen::{f64_range, hash_set_of, int_range, one_of, pair, triple, vec_of, Gen, SampleInt};
pub use runner::{case_seed, check, check_result, Config, Failure};

/// Declares property tests in the style of `proptest!`: each `fn` becomes a
/// `#[test]` that runs [`Config::from_env`]`.cases` seeded cases, shrinking
/// and reporting the failing seed on error. Arguments are drawn from the
/// generator after `in`; the body uses plain `assert!`/`assert_eq!`.
///
/// For a non-default case count call [`check`] directly with a custom
/// [`Config`].
#[macro_export]
macro_rules! property {
    ($($(#[$meta:meta])* fn $name:ident($($args:tt)*) $body:block)+) => {
        $($crate::__property_one! { $(#[$meta])* fn $name($($args)*) $body })+
    };
}

/// Implementation detail of [`property!`]: one arm per supported arity.
#[doc(hidden)]
#[macro_export]
macro_rules! __property_one {
    ($(#[$meta:meta])* fn $name:ident($a:ident in $ga:expr $(,)?) $body:block) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::check(
                stringify!($name),
                $crate::Config::from_env(),
                $ga,
                |__value| {
                    let $a = ::std::clone::Clone::clone(__value);
                    $body
                },
            );
        }
    };
    ($(#[$meta:meta])* fn $name:ident($a:ident in $ga:expr, $b:ident in $gb:expr $(,)?) $body:block) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::check(
                stringify!($name),
                $crate::Config::from_env(),
                $crate::pair($ga, $gb),
                |__value| {
                    let ($a, $b) = ::std::clone::Clone::clone(__value);
                    $body
                },
            );
        }
    };
    ($(#[$meta:meta])* fn $name:ident($a:ident in $ga:expr, $b:ident in $gb:expr, $c:ident in $gc:expr $(,)?) $body:block) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::check(
                stringify!($name),
                $crate::Config::from_env(),
                $crate::triple($ga, $gb, $gc),
                |__value| {
                    let ($a, $b, $c) = ::std::clone::Clone::clone(__value);
                    $body
                },
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{f64_range, int_range, one_of, vec_of};

    property! {
        /// The macro wires generators, runner and assertions together.
        fn macro_single_argument(x in int_range(0u64..100)) {
            assert!(x < 100);
        }

        /// Two-argument properties receive an implicit pair generator.
        fn macro_two_arguments(a in int_range(1u32..50), b in one_of(&[2u32, 4, 8])) {
            assert!(a * b >= 2);
            assert!([2, 4, 8].contains(&b));
        }

        /// Three-argument properties receive an implicit triple generator.
        fn macro_three_arguments(
            a in int_range(0u64..10),
            xs in vec_of(int_range(0u64..5), 1..10),
            f in f64_range(0.5..2.0),
        ) {
            assert!(a < 10 && !xs.is_empty() && f >= 0.5 && f < 2.0);
        }
    }
}
