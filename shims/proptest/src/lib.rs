//! Offline stand-in for `proptest`.
//!
//! Runs each property over a deterministic stream of generated cases
//! (seeded from the test's name, so failures reproduce run-over-run).
//! Supports the combinators the workspace uses — range and `any`
//! strategies, tuples, `prop_map`, `collection::vec`,
//! `sample::select`, `option::of` — and the `proptest!` /
//! `prop_assert*!` / `prop_assume!` macros. No shrinking: the failing
//! case is reported as-is.

/// Number of cases each property runs.
pub const NUM_CASES: u32 = 64;

/// Deterministic generator (SplitMix64) used to drive strategies.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name so each property has a stable stream.
    pub fn deterministic(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Unbiased draw from `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let zone = bound.wrapping_mul(u64::MAX / bound);
        loop {
            let v = self.next_u64();
            if zone == 0 || v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform in [0, 1) with 53 bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// A `prop_assert*!` failed; the property is falsified.
    Fail(String),
    /// A `prop_assume!` rejected the inputs; try another case.
    Reject(String),
}

/// Result type the property bodies produce.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ------------------------------------------------------------- any::<T>()

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary: Sized {
    /// Draw from the full domain of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64()
    }
}

/// Strategy for the full domain of `T` (see [`any`]).
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` entry point.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

// --------------------------------------------------------- range strategies

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        lo + (hi - lo) * rng.unit_f64()
    }
}

// ------------------------------------------------------- regex strategies

/// One regex atom: a set of candidate chars plus a repetition range.
struct RegexPiece {
    choices: Vec<char>,
    min: usize,
    max: usize,
}

/// Parse the regex subset used as string strategies: literals,
/// character classes (`[A-Z0-9-]`), `\d`/`\w`/escapes, `.`, and the
/// quantifiers `{m}`, `{m,n}`, `*`, `+`, `?`. Groups and alternation
/// are not supported.
fn parse_regex(pattern: &str) -> Vec<RegexPiece> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut pieces = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let choices: Vec<char> = match chars[i] {
            '[' => {
                i += 1;
                assert!(
                    chars.get(i) != Some(&'^'),
                    "negated classes unsupported in regex strategy {pattern:?}"
                );
                let mut set = Vec::new();
                while i < chars.len() && chars[i] != ']' {
                    if chars[i + 1..].first() == Some(&'-')
                        && chars.get(i + 2).is_some_and(|c| *c != ']')
                    {
                        let (lo, hi) = (chars[i], chars[i + 2]);
                        set.extend((lo..=hi).filter(|c| c.is_ascii()));
                        i += 3;
                    } else {
                        set.push(chars[i]);
                        i += 1;
                    }
                }
                assert!(i < chars.len(), "unterminated class in {pattern:?}");
                i += 1; // past ']'
                set
            }
            '\\' => {
                i += 1;
                let c = chars.get(i).copied().expect("dangling backslash");
                i += 1;
                match c {
                    'd' => ('0'..='9').collect(),
                    'w' => ('a'..='z')
                        .chain('A'..='Z')
                        .chain('0'..='9')
                        .chain(std::iter::once('_'))
                        .collect(),
                    other => vec![other],
                }
            }
            '.' => {
                i += 1;
                (' '..='~').collect()
            }
            '(' | ')' | '|' => {
                panic!("groups/alternation unsupported in regex strategy {pattern:?}")
            }
            c => {
                i += 1;
                vec![c]
            }
        };
        // Optional quantifier.
        let (min, max) = match chars.get(i) {
            Some('{') => {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("unterminated {}")
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                if let Some((lo, hi)) = body.split_once(',') {
                    (lo.trim().parse().unwrap(), hi.trim().parse().unwrap())
                } else {
                    let n: usize = body.trim().parse().unwrap();
                    (n, n)
                }
            }
            Some('*') => {
                i += 1;
                (0, 8)
            }
            Some('+') => {
                i += 1;
                (1, 8)
            }
            Some('?') => {
                i += 1;
                (0, 1)
            }
            _ => (1, 1),
        };
        pieces.push(RegexPiece { choices, min, max });
    }
    pieces
}

/// String strategies from regex-like patterns, as in real proptest:
/// `"[A-Z][A-Z0-9-]{0,12}" `generates matching strings.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse_regex(self) {
            let span = (piece.max - piece.min) as u64;
            let n = piece.min
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            for _ in 0..n {
                out.push(piece.choices[rng.below(piece.choices.len() as u64) as usize]);
            }
        }
        out
    }
}

// ---------------------------------------------------------------- tuples

macro_rules! tuple_strategy {
    ($($S:ident/$v:ident),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($v,)+) = self;
                ($($v.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A / a, B / b);
tuple_strategy!(A / a, B / b, C / c);
tuple_strategy!(A / a, B / b, C / c, D / d);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F2 / f2);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F2 / f2, G / g);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F2 / f2, G / g, H / h);

// ------------------------------------------------------------- collections

/// Size specification for collection strategies.
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

/// `proptest::collection` — vector strategies.
pub mod collection {
    use super::*;

    /// Strategy producing `Vec`s of `element` with a size in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate vectors from an element strategy.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `proptest::sample` — choose among concrete values.
pub mod sample {
    use super::*;

    /// Strategy picking uniformly from a fixed list.
    pub struct Select<T: Clone> {
        items: Vec<T>,
    }

    /// Pick one of `items` per case.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select requires at least one item");
        Select { items }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.items[rng.below(self.items.len() as u64) as usize].clone()
        }
    }
}

/// `proptest::option` — optional values.
pub mod option {
    use super::*;

    /// Strategy producing `None` about a quarter of the time.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// Wrap a strategy in `Option`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

// ---------------------------------------------------------------- macros

/// Define `#[test]` functions whose arguments are drawn from
/// strategies, each run for [`NUM_CASES`] deterministic cases.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __pt_rng = $crate::TestRng::deterministic(stringify!($name));
                let mut __pt_case: u32 = 0;
                let mut __pt_attempts: u32 = 0;
                while __pt_case < $crate::NUM_CASES {
                    __pt_attempts += 1;
                    if __pt_attempts > $crate::NUM_CASES * 20 {
                        panic!("proptest: too many rejected cases in {}", stringify!($name));
                    }
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __pt_rng);)+
                    let __pt_result: $crate::TestCaseResult = (|| {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    match __pt_result {
                        Ok(()) => { __pt_case += 1; }
                        Err($crate::TestCaseError::Reject(_)) => {}
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property {} falsified at case {}: {}",
                                stringify!($name), __pt_case, msg
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Assert a condition inside a property; failure falsifies the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err($crate::TestCaseError::Fail(
                format!("{} != {}: {:?} vs {:?}", stringify!($left), stringify!($right), l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l == r {
            return Err($crate::TestCaseError::Fail(format!(
                "{} == {}: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Reject the current case (inputs don't satisfy a precondition).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject(stringify!($cond).to_string()));
        }
    };
}

/// The usual glob-import surface.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary, Just,
        Strategy, TestCaseError, TestCaseResult,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 0u32..10, y in -3i64..=3, f in 0.5f64..1.5) {
            prop_assert!(x < 10);
            prop_assert!((-3..=3).contains(&y));
            prop_assert!((0.5..1.5).contains(&f));
        }

        #[test]
        fn combinators_work(
            v in crate::collection::vec((any::<u32>(), 1u8..=4).prop_map(|(a, b)| a as u64 + b as u64), 1..8),
            pick in crate::sample::select(vec![10u8, 20, 30]),
            opt in crate::option::of(any::<u16>()),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(pick % 10 == 0);
            let _ = opt;
        }

        #[test]
        fn regex_strings_match(s in "[A-Z][A-Z0-9-]{0,12}") {
            prop_assert!(!s.is_empty() && s.len() <= 13);
            prop_assert!(s.chars().next().unwrap().is_ascii_uppercase());
            prop_assert!(s.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '-'));
        }

        #[test]
        fn assume_rejects(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "falsified")]
    fn failing_property_panics() {
        proptest! {
            fn inner(x in 0u32..10) {
                prop_assert!(x < 5, "x was {}", x);
            }
        }
        inner();
    }
}
