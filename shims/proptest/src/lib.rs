//! Minimal offline stand-in for the `proptest` crate.
//!
//! Supports the subset this workspace's property tests use: the
//! [`proptest!`] macro with `#![proptest_config(..)]` and `arg in strategy`
//! parameters, integer range strategies, tuple strategies,
//! [`collection::vec`], [`any`] over [`sample::Index`], and the
//! `prop_assert*` family. Each property runs `cases` random inputs drawn
//! from a generator seeded deterministically from the test's name, so
//! failures reproduce on re-run. A failure reports the case number, the
//! assertion message and the drawn arguments, then the minimal failing
//! case found by bisecting every integer-range argument towards its range
//! start (other strategies do not shrink).

use std::fmt;

/// Configuration accepted by `#![proptest_config(..)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` random cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// Failure raised by a `prop_assert*` macro inside a property body.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// The deterministic generator driving each property (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name, deterministically.
    pub fn from_name(name: &str) -> TestRng {
        // FNV-1a over the name gives a stable, well-mixed seed.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sample space");
        self.next_u64() % bound
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value: Clone + fmt::Debug;
    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
    /// The simplest value for which `fails` still holds, given that it
    /// holds for `failing`. The default does not shrink.
    fn shrink(
        &self,
        failing: Self::Value,
        _fails: &mut dyn FnMut(&Self::Value) -> bool,
    ) -> Self::Value {
        failing
    }
}

/// The smallest `v` in `lo..=failing` with `fails(v)`, found by bisection:
/// exact when every value above a failing one also fails, and a failing
/// value no larger than `failing` otherwise.
fn bisect(lo: i128, failing: i128, fails: &mut dyn FnMut(i128) -> bool) -> i128 {
    if failing == lo || fails(lo) {
        return lo;
    }
    let (mut pass, mut fail) = (lo, failing);
    while fail - pass > 1 {
        let mid = pass + (fail - pass) / 2;
        if fails(mid) {
            fail = mid;
        } else {
            pass = mid;
        }
    }
    fail
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
            fn shrink(&self, failing: $t, fails: &mut dyn FnMut(&$t) -> bool) -> $t {
                bisect(self.start as i128, failing as i128, &mut |v| fails(&(v as $t))) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + rng.below((hi - lo) as u64 + 1) as $t
            }
            fn shrink(&self, failing: $t, fails: &mut dyn FnMut(&$t) -> bool) -> $t {
                bisect(*self.start() as i128, failing as i128, &mut |v| fails(&(v as $t))) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u64, u32, u16, u8, i64, i32);

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+)),+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            /// Shrink each component in turn, holding the others fixed.
            fn shrink(
                &self,
                failing: Self::Value,
                fails: &mut dyn FnMut(&Self::Value) -> bool,
            ) -> Self::Value {
                let mut cur = failing;
                $(
                    let part = self.$idx.shrink(cur.$idx.clone(), &mut |cand| {
                        let mut probe = cur.clone();
                        probe.$idx = cand.clone();
                        fails(&probe)
                    });
                    cur.$idx = part;
                )+
                cur
            }
        }
    )+};
}

// Arity 1 upwards: `proptest!` draws a property's arguments as one tuple.
tuple_strategy!(
    (A / 0),
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3),
    (A / 0, B / 1, C / 2, D / 3, E / 4),
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5)
);

/// Types with a canonical strategy, usable via [`any`].
pub trait Arbitrary: Clone + fmt::Debug {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Element-count bounds for [`vec()`].
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec`s of `size`-many values drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(self.size.min < self.size.max_exclusive, "empty size range");
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Positional sampling helpers.
pub mod sample {
    /// An index into a collection whose length is only known at use time.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// Map onto `0..len`; panics if `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl super::Arbitrary for Index {
        fn arbitrary(rng: &mut super::TestRng) -> Index {
            Index(rng.next_u64())
        }
    }
}

/// Common imports for property tests.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Declare property tests. Each `fn name(arg in strategy, ..) { .. }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run_property(
                stringify!($name),
                concat!(module_path!(), "::", stringify!($name)),
                &$cfg,
                &($($strat,)+),
                |__args| {
                    let ($($arg,)+) = __args;
                    [$(format!("{} = {:?}", stringify!($arg), $arg)),+].join(", ")
                },
                |($($arg,)+)| {
                    $body
                    ::std::result::Result::Ok(())
                },
            );
        }
    )*};
}

/// Driver behind [`proptest!`]: run `body` on `cfg.cases` values of
/// `strategy` (the tuple of the property's arguments, which `describe`
/// renders as `name = value, ..`), and on the first failure shrink the
/// case and panic with both.
#[doc(hidden)]
pub fn run_property<S: Strategy>(
    name: &str,
    seed_name: &str,
    cfg: &ProptestConfig,
    strategy: &S,
    describe: impl Fn(&S::Value) -> String,
    body: impl Fn(S::Value) -> Result<(), TestCaseError>,
) {
    let mut rng = TestRng::from_name(seed_name);
    for case in 0..cfg.cases {
        let value = strategy.generate(&mut rng);
        let Err(e) = body(value.clone()) else {
            continue;
        };
        let minimal = strategy.shrink(value.clone(), &mut |v| body(v.clone()).is_err());
        let minimal_e = body(minimal.clone()).expect_err("shrinking keeps the case failing");
        panic!(
            "property {name} failed at case {}/{}: {e}\n  failing case: {}\n  minimal failing case: {}: {minimal_e}",
            case + 1,
            cfg.cases,
            describe(&value),
            describe(&minimal),
        );
    }
}

/// Assert a condition inside a property body (reports the failing case).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Assert equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            __a == __b,
            "assertion failed: {} == {} ({:?} vs {:?})",
            stringify!($a), stringify!($b), __a, __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(__a == __b, $($fmt)*);
    }};
}

/// Assert inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            __a != __b,
            "assertion failed: {} != {} (both {:?})",
            stringify!($a),
            stringify!($b),
            __a
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in 5u64..=6) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y == 5 || y == 6);
        }

        #[test]
        fn vecs_respect_size(v in crate::collection::vec(0u64..100, 2..7)) {
            prop_assert!((2..7).contains(&v.len()));
            for x in &v {
                prop_assert!(*x < 100, "x = {}", x);
            }
        }

        #[test]
        fn tuples_and_index(t in (0usize..4, any::<crate::sample::Index>())) {
            prop_assert!(t.0 < 4);
            prop_assert!(t.1.index(10) < 10);
            prop_assert_eq!(t.1.index(1), 0);
        }
    }

    #[test]
    fn failures_report_case_number() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(5))]
                #[allow(unused)]
                fn always_fails(x in 0usize..10) {
                    prop_assert!(false, "boom {}", x);
                }
            }
            always_fails();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("case 1/5"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn failures_shrink_integer_arguments_to_the_minimal_case() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #[allow(unused)]
                fn fails_from_five(x in 0usize..1000, y in 10u64..=20) {
                    prop_assert!(x < 5, "too big: {}", x);
                }
            }
            fails_from_five();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        let (original, minimal) = msg.split_once("minimal failing case: ").expect(&msg);
        assert!(original.contains("failing case: x = "), "{msg}");
        // `x` lands on the boundary; `y` never mattered and goes to its
        // range start.
        assert_eq!(minimal, "x = 5, y = 10: too big: 5", "{msg}");
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::from_name("t");
        let mut b = crate::TestRng::from_name("t");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
