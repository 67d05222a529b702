//! Strategies: composable random-value generators.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::{Rng, RngCore};

use crate::test_runner::TestRng;

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        TestRng::next_u64(self)
    }
}

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Rejects generated values failing `f` (regenerating; panics after
    /// too many rejections, since there is no global rejection budget).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(self, reason: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            reason,
            f,
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(std::rc::Rc::new(self))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 10000 consecutive values: {}",
            self.reason
        );
    }
}

/// A type-erased strategy (see [`Strategy::boxed`]).
pub struct BoxedStrategy<T>(std::rc::Rc<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Weighted union of same-valued strategies (`prop_oneof!`).
pub struct Union<T> {
    branches: Vec<(u32, BoxedStrategy<T>)>,
    total: u32,
}

impl<T> Union<T> {
    /// Builds a union; weights must sum to a non-zero value.
    pub fn new(branches: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total = branches.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof! needs at least one branch");
        Union { branches, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total as usize) as u32;
        for (weight, branch) in &self.branches {
            if pick < *weight {
                return branch.generate(rng);
            }
            pick -= weight;
        }
        unreachable!("weights sum mismatch")
    }
}

/// The constant strategy.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---- primitives ---------------------------------------------------------

/// Primitive types generable by [`any`].
pub trait ArbitraryPrim {
    /// Draws an arbitrary value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl ArbitraryPrim for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, i32, i64);

impl ArbitraryPrim for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: ArbitraryPrim> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy generating arbitrary values of a primitive type.
pub fn any<T: ArbitraryPrim>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

// ---- ranges -------------------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u64, usize, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

// ---- tuples -------------------------------------------------------------

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

// ---- collections --------------------------------------------------------

/// Length bounds for [`crate::collection::vec`].
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max_inclusive: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange {
            min: r.start,
            max_inclusive: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *r.start(),
            max_inclusive: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            min: n,
            max_inclusive: n,
        }
    }
}

/// See [`crate::collection::vec`].
pub struct VecStrategy<S> {
    pub(crate) element: S,
    pub(crate) size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = self.size.max_inclusive - self.size.min + 1;
        let len = self.size.min + rng.below(span);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

// ---- regex-literal string strategies ------------------------------------

/// `&str` literals act as regex-subset strategies producing `String`s.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

/// One parsed regex atom plus its repetition bounds.
struct Atom {
    kind: AtomKind,
    min: usize,
    max: usize,
}

enum AtomKind {
    /// A literal character.
    Literal(char),
    /// `.` — any printable character.
    Dot,
    /// A character class, possibly negated.
    Class { chars: Vec<char>, negated: bool },
}

fn any_char(rng: &mut TestRng) -> char {
    // Mostly printable ASCII; sometimes a newline or a multi-byte char,
    // so "never panics on garbage" tests see non-trivial input.
    match rng.below(20) {
        0 => '\n',
        1 => 'é',
        2 => '→',
        _ => (0x20u8 + rng.below(0x5f) as u8) as char,
    }
}

const PRINTABLE: Range<u8> = 0x20..0x7f;

fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> AtomKind {
    let mut members: Vec<char> = Vec::new();
    let negated = chars.peek() == Some(&'^') && {
        chars.next();
        true
    };
    let mut pending: Option<char> = None;
    while let Some(c) = chars.next() {
        match c {
            ']' => {
                if let Some(p) = pending {
                    members.push(p);
                }
                return AtomKind::Class {
                    chars: members,
                    negated,
                };
            }
            '\\' => {
                if let Some(p) = pending.take() {
                    members.push(p);
                }
                pending = Some(unescape(chars.next().unwrap_or('\\')));
            }
            '-' => {
                // Range if we have a pending start and a following end.
                match (pending.take(), chars.peek().copied()) {
                    (Some(start), Some(end)) if end != ']' => {
                        chars.next();
                        let end = if end == '\\' {
                            unescape(chars.next().unwrap_or('\\'))
                        } else {
                            end
                        };
                        for code in (start as u32)..=(end as u32) {
                            if let Some(ch) = char::from_u32(code) {
                                members.push(ch);
                            }
                        }
                    }
                    (start, _) => {
                        if let Some(s) = start {
                            members.push(s);
                        }
                        members.push('-');
                    }
                }
            }
            other => {
                if let Some(p) = pending.take() {
                    members.push(p);
                }
                pending = Some(other);
            }
        }
    }
    // Unterminated class: treat accumulated members literally.
    if let Some(p) = pending {
        members.push(p);
    }
    AtomKind::Class {
        chars: members,
        negated,
    }
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        'r' => '\r',
        't' => '\t',
        '0' => '\0',
        other => other,
    }
}

fn parse_repetition(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Option<(usize, usize)> {
    if chars.peek() != Some(&'{') {
        return None;
    }
    chars.next();
    let mut min_digits = String::new();
    let mut max_digits = String::new();
    let mut in_max = false;
    for c in chars.by_ref() {
        match c {
            '}' => break,
            ',' => in_max = true,
            d if d.is_ascii_digit() => {
                if in_max {
                    max_digits.push(d);
                } else {
                    min_digits.push(d);
                }
            }
            _ => return None,
        }
    }
    let min: usize = min_digits.parse().unwrap_or(0);
    let max: usize = if in_max {
        max_digits.parse().unwrap_or(min)
    } else {
        min
    };
    Some((min, max.max(min)))
}

fn parse_pattern(pattern: &str) -> Vec<Atom> {
    let mut atoms = Vec::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let kind = match c {
            '[' => parse_class(&mut chars),
            '.' => AtomKind::Dot,
            '\\' => AtomKind::Literal(unescape(chars.next().unwrap_or('\\'))),
            '*' | '?' | '+' if !atoms.is_empty() => {
                // Bare quantifiers on the previous atom (rare; map to 0..=3).
                let prev: &mut Atom = atoms.last_mut().unwrap();
                match c {
                    '*' => {
                        prev.min = 0;
                        prev.max = 3;
                    }
                    '+' => {
                        prev.min = 1;
                        prev.max = 4;
                    }
                    _ => {
                        prev.min = 0;
                        prev.max = 1;
                    }
                }
                continue;
            }
            other => AtomKind::Literal(other),
        };
        let (min, max) = parse_repetition(&mut chars).unwrap_or((1, 1));
        atoms.push(Atom { kind, min, max });
    }
    atoms
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let atoms = parse_pattern(pattern);
    let mut out = String::new();
    for atom in &atoms {
        let span = atom.max - atom.min + 1;
        let count = atom.min + rng.below(span.max(1));
        for _ in 0..count {
            match &atom.kind {
                AtomKind::Literal(c) => out.push(*c),
                AtomKind::Dot => out.push(any_char(rng)),
                AtomKind::Class { chars, negated } => {
                    if *negated {
                        loop {
                            let candidate =
                                (PRINTABLE.start + rng.below(PRINTABLE.len()) as u8) as char;
                            if !chars.contains(&candidate) {
                                out.push(candidate);
                                break;
                            }
                        }
                    } else if chars.is_empty() {
                        out.push(any_char(rng));
                    } else {
                        out.push(chars[rng.below(chars.len())]);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    fn rng() -> TestRng {
        TestRng::deterministic("strategy-tests")
    }

    #[test]
    fn class_pattern_respects_alphabet_and_length() {
        let mut rng = rng();
        for _ in 0..200 {
            let s = "[a-c]{2,5}".generate(&mut rng);
            assert!((2..=5).contains(&s.len()), "{s:?}");
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)), "{s:?}");
        }
    }

    #[test]
    fn negated_class_excludes_members() {
        let mut rng = rng();
        for _ in 0..200 {
            let s = "[^\\r\\n]{0,40}".generate(&mut rng);
            assert!(!s.contains('\r') && !s.contains('\n'));
        }
    }

    #[test]
    fn escaped_class_members_and_concatenation() {
        let mut rng = rng();
        let allowed: Vec<char> = "abAB/[]\"*?<>=. ".chars().collect();
        for _ in 0..200 {
            let s = "[abAB/\\[\\]\"*?<>=. ]{1,10}".generate(&mut rng);
            assert!(s.chars().all(|c| allowed.contains(&c)), "{s:?}");
        }
        let s = "[A-Z][a-z]{2,4}".generate(&mut rng);
        assert!(s.len() >= 3 && s.chars().next().unwrap().is_ascii_uppercase());
    }

    #[test]
    fn combinators_compose() {
        let mut rng = rng();
        let strat = (0u64..10, "[ab]{1,2}")
            .prop_map(|(n, s)| (n * 2, s))
            .prop_filter("even", |(n, _)| *n % 2 == 0);
        for _ in 0..50 {
            let (n, s) = strat.generate(&mut rng);
            assert!(n < 20 && n % 2 == 0);
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn union_and_vec() {
        let mut rng = rng();
        let strat = crate::collection::vec(
            crate::prop_oneof![(0u8..3).prop_map(|_| 'x'), (0u8..3).prop_map(|_| 'y')],
            1..6,
        );
        for _ in 0..50 {
            let v = strat.generate(&mut rng);
            assert!((1..=5).contains(&v.len()));
            assert!(v.iter().all(|c| *c == 'x' || *c == 'y'));
        }
    }
}
