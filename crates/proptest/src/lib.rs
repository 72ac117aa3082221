//! Offline, dependency-free drop-in for the subset of the `proptest` API
//! this workspace uses.
//!
//! The real `proptest` crate cannot be vendored in this build environment
//! (no registry access), so this shim provides the same surface —
//! [`Strategy`](strategy::Strategy), [`prelude`], `proptest!`, `prop_oneof!`, the
//! `prop_assert*` macros, `prop::collection::vec`, `prop::sample::select`
//! — backed by a deterministic PRNG. Failing cases are reported with
//! their generated inputs; shrinking is not implemented (the failing
//! inputs are printed verbatim instead).
//!
//! Determinism: every test function derives its seed from its own name,
//! so failures reproduce across runs. Set `PROPTEST_SEED` to an unsigned
//! integer to fold it into every test's seed and explore other inputs; a
//! failing case prints the value next to its inputs, and rerunning with
//! it reproduces the case. Set `PROPTEST_CASES` to override the per-test
//! case count globally.

/// Test-runner configuration and the deterministic RNG.
pub mod test_runner {
    /// Configuration for a `proptest!` block (subset of the real crate's
    /// `ProptestConfig`).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per test function.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }

        /// Applies the `PROPTEST_CASES` environment override, if set.
        pub fn resolved_cases(&self) -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(self.cases)
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    /// Error type of a `proptest!` body (bodies may `return Ok(())`
    /// early or fail via `prop_assert!`, which panics in this shim).
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    /// Result type a `proptest!` body is wrapped into.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// A small, fast, deterministic PRNG (splitmix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    /// The `PROPTEST_SEED` environment override, if set.
    ///
    /// # Panics
    ///
    /// Panics if it is set to anything but an unsigned integer, rather
    /// than quietly running the default inputs.
    pub fn run_seed() -> Option<u64> {
        let value = std::env::var("PROPTEST_SEED").ok()?;
        match value.trim().parse() {
            Ok(seed) => Some(seed),
            Err(_) => panic!("PROPTEST_SEED must be an unsigned integer, got {value:?}"),
        }
    }

    /// How to reproduce a run's inputs: `PROPTEST_SEED=<n>`, or that it
    /// was unset.
    pub fn seed_note() -> String {
        match run_seed() {
            Some(seed) => format!("PROPTEST_SEED={seed}"),
            None => "PROPTEST_SEED unset".to_string(),
        }
    }

    impl TestRng {
        /// Seeds the RNG from a test name and [`run_seed`], so each test
        /// gets a stable but distinct stream per seed.
        pub fn for_test(name: &str) -> TestRng {
            TestRng::for_test_seeded(name, run_seed())
        }

        /// Seeds the RNG from a test name (FNV-1a), continued over the
        /// seed's bytes when there is one. Without a seed the stream is
        /// the name's alone, which the named `regression_*` cases rely on.
        pub fn for_test_seeded(name: &str, seed: Option<u64>) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let seed_bytes = seed.map(u64::to_le_bytes);
            for b in name.bytes().chain(seed_bytes.into_iter().flatten()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u128) -> u128 {
            debug_assert!(n > 0);
            let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
            wide % n
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// A value generator (non-shrinking subset of proptest's trait).
    pub trait Strategy {
        /// The type of generated values.
        type Value: Debug;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            let inner = self;
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| inner.generate(rng)))
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A type-erased strategy (cheaply cloneable).
    #[derive(Clone)]
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Weighted choice among boxed strategies (`prop_oneof!`).
    pub struct OneOf<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T: Debug> OneOf<T> {
        /// Uniform choice.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> OneOf<T> {
            OneOf::weighted(arms.into_iter().map(|a| (1, a)).collect())
        }

        /// Weighted choice; weights need not be normalized.
        pub fn weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> OneOf<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total = arms.iter().map(|(w, _)| *w as u64).sum::<u64>().max(1);
            OneOf { arms, total }
        }
    }

    impl<T: Debug> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total as u128) as u64;
            for (w, arm) in &self.arms {
                if pick < *w as u64 {
                    return arm.generate(rng);
                }
                pick -= *w as u64;
            }
            self.arms.last().expect("nonempty").1.generate(rng)
        }
    }

    /// String-from-regex strategies: `&str` patterns generate matching
    /// strings, supporting the subset `literal`, `.`, `[a-z0-9]` classes,
    /// and the quantifiers `{m,n}`, `{n}`, `*`, `+`, `?`.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let atoms = parse_pattern(self);
            let mut out = String::new();
            for (atom, (lo, hi)) in &atoms {
                let n = lo + rng.below((hi - lo + 1) as u128) as usize;
                for _ in 0..n {
                    out.push(atom.generate(rng));
                }
            }
            out
        }
    }

    #[derive(Debug, Clone)]
    enum Atom {
        Literal(char),
        Dot,
        Class(Vec<(char, char)>),
    }

    impl Atom {
        fn generate(&self, rng: &mut TestRng) -> char {
            match self {
                Atom::Literal(c) => *c,
                Atom::Dot => {
                    // Mostly printable ASCII, occasionally any scalar.
                    if rng.below(8) == 0 {
                        char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}')
                    } else {
                        char::from_u32(0x20 + rng.below(0x5f) as u32).expect("printable ascii")
                    }
                }
                Atom::Class(ranges) => {
                    let total: u128 = ranges
                        .iter()
                        .map(|(a, b)| (*b as u128) - (*a as u128) + 1)
                        .sum();
                    let mut pick = rng.below(total.max(1));
                    for (a, b) in ranges {
                        let span = (*b as u128) - (*a as u128) + 1;
                        if pick < span {
                            return char::from_u32(*a as u32 + pick as u32).unwrap_or(*a);
                        }
                        pick -= span;
                    }
                    ranges.first().map_or('?', |(a, _)| *a)
                }
            }
        }
    }

    fn parse_pattern(pattern: &str) -> Vec<(Atom, (usize, usize))> {
        let mut chars = pattern.chars().peekable();
        let mut atoms = Vec::new();
        while let Some(c) = chars.next() {
            let atom = match c {
                '.' => Atom::Dot,
                '\\' => Atom::Literal(chars.next().unwrap_or('\\')),
                '[' => {
                    let mut ranges = Vec::new();
                    let mut prev: Option<char> = None;
                    for d in chars.by_ref() {
                        match d {
                            ']' => break,
                            '-' if prev.is_some() => {
                                prev = Some('-'); // resolved on the next char
                            }
                            d => {
                                if prev == Some('-') {
                                    if let Some((_, hi)) = ranges.last_mut() {
                                        *hi = d;
                                        prev = None;
                                        continue;
                                    }
                                }
                                ranges.push((d, d));
                                prev = Some(d);
                            }
                        }
                    }
                    Atom::Class(ranges)
                }
                other => Atom::Literal(other),
            };
            let quant = match chars.peek() {
                Some('{') => {
                    chars.next();
                    let spec: String = chars.by_ref().take_while(|&d| d != '}').collect();
                    let parts: Vec<&str> = spec.splitn(2, ',').collect();
                    let lo: usize = parts[0].trim().parse().unwrap_or(0);
                    let hi = parts.get(1).map_or(lo, |s| s.trim().parse().unwrap_or(lo));
                    (lo, hi.max(lo))
                }
                Some('*') => {
                    chars.next();
                    (0, 16)
                }
                Some('+') => {
                    chars.next();
                    (1, 16)
                }
                Some('?') => {
                    chars.next();
                    (0, 1)
                }
                _ => (1, 1),
            };
            atoms.push((atom, quant));
        }
        atoms
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128) - (self.start as i128);
                    (self.start as i128 + rng.below(span as u128) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128) - (lo as i128) + 1;
                    (lo as i128 + rng.below(span as u128) as i128) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
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
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized + Debug {
        /// Generates one arbitrary value. Implementations bias lightly
        /// toward boundary values (0, 1, MIN, MAX).
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// Strategy returned by [`crate::any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(pub(crate) PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // 1-in-8 boundary bias, otherwise uniform.
                    if rng.next_u64() & 7 == 0 {
                        match rng.next_u64() & 3 {
                            0 => 0 as $t,
                            1 => 1 as $t,
                            2 => <$t>::MAX,
                            _ => <$t>::MIN,
                        }
                    } else {
                        rng.next_u64() as $t
                    }
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

/// Returns the whole-domain strategy for `T`.
pub fn any<T: arbitrary::Arbitrary>() -> arbitrary::Any<T> {
    arbitrary::Any(std::marker::PhantomData)
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification accepted by [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_incl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi_incl: n }
        }
    }
    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi_incl: r.end - 1,
            }
        }
    }
    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi_incl: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_incl - self.size.lo + 1) as u128;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector strategy with element strategy `element` and a length in
    /// `size` (a `usize`, `Range<usize>`, or `RangeInclusive<usize>`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Sampling strategies (`prop::sample`).
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::fmt::Debug;

    /// Uniform choice from a static slice.
    #[derive(Debug, Clone, Copy)]
    pub struct Select<T: 'static>(&'static [T]);

    impl<T: Clone + Debug + 'static> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u128) as usize].clone()
        }
    }

    /// Picks uniformly from `items` (which must be nonempty).
    pub fn select<T: Clone + Debug + 'static>(items: &'static [T]) -> Select<T> {
        assert!(!items.is_empty(), "select from empty slice");
        Select(items)
    }
}

/// Everything a test module needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced module tree (`prop::collection`, `prop::sample`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Chooses among strategies, optionally weighted (`w => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::weighted(vec![
            $(($weight, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated inputs. On failure the
/// generated inputs are printed (no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::test_runner::Config::default()); $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr);) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.resolved_cases() {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let desc = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> $crate::test_runner::TestCaseResult {
                        $body
                        Ok(())
                    },
                ));
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        panic!(
                            "proptest {}: case {} rejected ({:?}) with inputs: {}({})",
                            stringify!($name), case, e, desc,
                            $crate::test_runner::seed_note()
                        );
                    }
                    Err(panic) => {
                        eprintln!(
                            "proptest {}: case {} failed with inputs: {}({})",
                            stringify!($name), case, desc,
                            $crate::test_runner::seed_note()
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        }
        $crate::__proptest_fns!(($cfg); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::test_runner::TestRng::for_test("x");
        let mut b = crate::test_runner::TestRng::for_test("x");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_runner::TestRng::for_test("y");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn a_run_seed_picks_a_stream() {
        use crate::test_runner::TestRng;
        let stream = |seed: Option<u64>| {
            let mut rng = TestRng::for_test_seeded("x", seed);
            [rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(stream(Some(7)), stream(Some(7)), "same seed, same stream");
        assert_ne!(
            stream(Some(7)),
            stream(Some(8)),
            "another seed, another stream"
        );
        assert_ne!(stream(Some(0)), stream(None), "seed 0 is a seed");
        // Unset, the stream is the name's alone, as before the override.
        assert_eq!(
            stream(None),
            [
                0x3382_62d8_f096_398f,
                0xcefb_9c22_cf51_9144,
                0xa4b0_db91_8693_ba8a
            ]
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_test("ranges");
        let s = 3u32..17;
        for _ in 0..1000 {
            let v = s.generate(&mut rng);
            assert!((3..17).contains(&v));
        }
        let neg = -5i16..=5;
        for _ in 0..1000 {
            let v = neg.generate(&mut rng);
            assert!((-5..=5).contains(&v));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vec_and_oneof_compose(
            xs in prop::collection::vec((0u8..4, any::<bool>()), 1..10),
            pick in prop_oneof![1 => Just(1u32), 1 => Just(2), 5 => Just(3)],
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 10);
            prop_assert!(xs.iter().all(|(a, _)| *a < 4));
            prop_assert!((1..=3).contains(&pick));
        }
    }
}
