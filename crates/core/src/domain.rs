//! Enumerable input domains `D1 × … × Dk`.
//!
//! The paper quantifies over all inputs ("for all `(d1, …, dk)` in
//! `D1 × … × Dk`"). To make soundness and completeness *checkable* and the
//! maximal mechanism of Theorem 2 *constructible*, we work with enumerable
//! finite domains: either a [`Grid`] (a product of integer ranges) or an
//! [`Explicit`] list of tuples. Large domains can be randomly sampled
//! instead of exhaustively enumerated.

use crate::value::V;
use std::ops::{Range, RangeInclusive};

/// An enumerable set of input tuples.
///
/// Tuples are indexed `0..len()` in the same deterministic order that
/// [`iter_inputs`](InputDomain::iter_inputs) produces them. The index space
/// is what lets the parallel evaluation engine ([`crate::par`]) partition a
/// domain into disjoint per-worker ranges with no coordination: every
/// checker result is defined in terms of tuple indices, so any partition
/// reduces to the same answer.
///
/// The trait requires `Sync` so a `&dyn InputDomain` can be shared across
/// the engine's scoped worker threads.
pub trait InputDomain: Sync {
    /// Tuple arity `k`.
    fn arity(&self) -> usize;

    /// Number of tuples in the domain.
    ///
    /// # Panics
    ///
    /// May panic if the true size overflows `usize`; use
    /// [`len_checked`](InputDomain::len_checked) to detect that case.
    fn len(&self) -> usize;

    /// Number of tuples, or `None` if the size overflows `usize`.
    fn len_checked(&self) -> Option<usize> {
        Some(self.len())
    }

    /// Whether the domain is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates every tuple in a fixed deterministic order.
    fn iter_inputs(&self) -> Box<dyn Iterator<Item = Vec<V>> + '_>;

    /// Decodes the tuple at enumeration index `idx` into `buf`.
    ///
    /// `buf` is cleared and refilled; reusing one buffer across calls makes
    /// bulk evaluation allocation-free. The default implementation walks the
    /// iterator (O(idx)); indexable domains override it with O(arity)
    /// decoding.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    fn nth_input(&self, idx: usize, buf: &mut Vec<V>) {
        let tuple = self
            .iter_inputs()
            .nth(idx)
            .unwrap_or_else(|| panic!("index {idx} out of bounds for domain"));
        buf.clear();
        buf.extend_from_slice(&tuple);
    }

    /// Visits the tuples with indices in `range`, in ascending index order,
    /// reusing a single buffer. The visitor returns `false` to stop early.
    ///
    /// This is the engine's inner loop: sequential in-order decoding of a
    /// contiguous index range with zero per-tuple allocation. The default
    /// implementation decodes the first index with
    /// [`nth_input`](InputDomain::nth_input) and advances via the iterator;
    /// indexable domains override it with direct decoding.
    fn visit_range(&self, range: Range<usize>, visit: &mut dyn FnMut(usize, &[V]) -> bool) {
        if range.is_empty() {
            return;
        }
        for (idx, tuple) in self
            .iter_inputs()
            .enumerate()
            .skip(range.start)
            .take(range.len())
        {
            if !visit(idx, &tuple) {
                return;
            }
        }
    }

    /// The per-coordinate ranges when the domain is a [`Grid`] — their
    /// full product in mixed-radix order, last coordinate fastest — and
    /// `None` for any other domain. Soundness sweeps use it to number a
    /// projection policy's classes without computing views.
    fn grid_ranges(&self) -> Option<&[RangeInclusive<V>]> {
        None
    }

    /// Visits every tuple in enumeration order with a reusable buffer.
    ///
    /// Allocation-free counterpart of [`iter_inputs`](InputDomain::iter_inputs)
    /// for exhaustive scans.
    fn for_each_input(&self, visit: &mut dyn FnMut(&[V])) {
        self.visit_range(0..self.len(), &mut |_, a| {
            visit(a);
            true
        });
    }
}

/// A product of integer ranges, one per input coordinate.
///
/// # Examples
///
/// ```
/// use enf_core::{Grid, InputDomain};
///
/// let g = Grid::new(vec![0..=1, 5..=6]);
/// let all: Vec<_> = g.iter_inputs().collect();
/// assert_eq!(all, vec![vec![0, 5], vec![0, 6], vec![1, 5], vec![1, 6]]);
/// assert_eq!(g.len(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Grid {
    ranges: Vec<RangeInclusive<V>>,
}

impl Grid {
    /// Creates a grid from per-coordinate inclusive ranges.
    ///
    /// # Panics
    ///
    /// Panics if any range is empty (`start > end`).
    pub fn new(ranges: Vec<RangeInclusive<V>>) -> Self {
        for (i, r) in ranges.iter().enumerate() {
            assert!(
                r.start() <= r.end(),
                "range for coordinate {} is empty: {:?}",
                i + 1,
                r
            );
        }
        Grid { ranges }
    }

    /// Creates the `k`-dimensional hypercube with the same range on every
    /// coordinate.
    pub fn hypercube(k: usize, range: RangeInclusive<V>) -> Self {
        Grid::new(vec![range; k])
    }

    /// The per-coordinate ranges.
    pub fn ranges(&self) -> &[RangeInclusive<V>] {
        &self.ranges
    }

    /// Draws `n` tuples uniformly at random (with replacement) using the
    /// provided pseudo-random stream.
    ///
    /// The stream is any iterator of `u64`; callers typically pass an
    /// `rand`-based generator. Keeping the signature iterator-based keeps
    /// this crate dependency-free.
    pub fn sample(&self, n: usize, mut bits: impl FnMut() -> u64) -> Explicit {
        let mut tuples = Vec::with_capacity(n);
        for _ in 0..n {
            let tuple = self
                .ranges
                .iter()
                .map(|r| {
                    let span = (*r.end() - *r.start()) as u64 + 1;
                    *r.start() + (bits() % span) as V
                })
                .collect();
            tuples.push(tuple);
        }
        Explicit::new(self.arity(), tuples)
    }
}

impl Grid {
    /// The number of values in one coordinate's range.
    ///
    /// Spans are computed in `u128`: a range like `V::MIN..=V::MAX` has
    /// 2^64 values, which no `usize` width is guaranteed to hold.
    fn span(r: &RangeInclusive<V>) -> u128 {
        (*r.end() as i128 - *r.start() as i128) as u128 + 1
    }
}

impl InputDomain for Grid {
    fn arity(&self) -> usize {
        self.ranges.len()
    }

    fn grid_ranges(&self) -> Option<&[RangeInclusive<V>]> {
        Some(&self.ranges)
    }

    fn len(&self) -> usize {
        self.len_checked().unwrap_or_else(|| {
            panic!(
                "Grid size overflows usize: product of spans {:?}",
                self.ranges.iter().map(Grid::span).collect::<Vec<_>>()
            )
        })
    }

    fn len_checked(&self) -> Option<usize> {
        self.ranges.iter().try_fold(1usize, |acc, r| {
            acc.checked_mul(usize::try_from(Grid::span(r)).ok()?)
        })
    }

    fn nth_input(&self, idx: usize, buf: &mut Vec<V>) {
        assert!(
            idx < self.len(),
            "index {idx} out of bounds for grid of {} tuples",
            self.len()
        );
        buf.clear();
        buf.resize(self.ranges.len(), 0);
        // Mixed-radix decode, last coordinate fastest (matches the
        // lexicographic enumeration order of `iter_inputs`).
        let mut rest = idx;
        for (i, r) in self.ranges.iter().enumerate().rev() {
            let span = Grid::span(r) as usize;
            buf[i] = *r.start() + (rest % span) as V;
            rest /= span;
        }
    }

    fn visit_range(&self, range: Range<usize>, visit: &mut dyn FnMut(usize, &[V]) -> bool) {
        if range.is_empty() {
            return;
        }
        let mut cursor = Vec::new();
        self.nth_input(range.start, &mut cursor);
        for idx in range {
            if !visit(idx, &cursor) {
                return;
            }
            // Odometer increment, last coordinate fastest.
            for i in (0..self.ranges.len()).rev() {
                if cursor[i] < *self.ranges[i].end() {
                    cursor[i] += 1;
                    break;
                }
                cursor[i] = *self.ranges[i].start();
            }
        }
    }

    fn iter_inputs(&self) -> Box<dyn Iterator<Item = Vec<V>> + '_> {
        if self.ranges.is_empty() {
            return Box::new(std::iter::once(Vec::new()));
        }
        let mut cursor: Vec<V> = self.ranges.iter().map(|r| *r.start()).collect();
        let mut done = false;
        let ranges = self.ranges.clone();
        Box::new(std::iter::from_fn(move || {
            if done {
                return None;
            }
            let out = cursor.clone();
            // Odometer increment, last coordinate fastest.
            let mut i = ranges.len();
            loop {
                if i == 0 {
                    done = true;
                    break;
                }
                i -= 1;
                if cursor[i] < *ranges[i].end() {
                    cursor[i] += 1;
                    break;
                }
                cursor[i] = *ranges[i].start();
            }
            Some(out)
        }))
    }
}

/// An explicit list of input tuples.
#[derive(Clone, Debug)]
pub struct Explicit {
    arity: usize,
    tuples: Vec<Vec<V>>,
}

impl Explicit {
    /// Creates a domain from an explicit tuple list.
    ///
    /// # Panics
    ///
    /// Panics if any tuple has the wrong arity.
    pub fn new(arity: usize, tuples: Vec<Vec<V>>) -> Self {
        for t in &tuples {
            assert_eq!(t.len(), arity, "tuple {t:?} does not have arity {arity}");
        }
        Explicit { arity, tuples }
    }

    /// The underlying tuples.
    pub fn tuples(&self) -> &[Vec<V>] {
        &self.tuples
    }
}

impl InputDomain for Explicit {
    fn arity(&self) -> usize {
        self.arity
    }

    fn len(&self) -> usize {
        self.tuples.len()
    }

    fn nth_input(&self, idx: usize, buf: &mut Vec<V>) {
        buf.clear();
        buf.extend_from_slice(&self.tuples[idx]);
    }

    fn visit_range(&self, range: Range<usize>, visit: &mut dyn FnMut(usize, &[V]) -> bool) {
        for idx in range {
            if !visit(idx, &self.tuples[idx]) {
                return;
            }
        }
    }

    fn iter_inputs(&self) -> Box<dyn Iterator<Item = Vec<V>> + '_> {
        Box::new(self.tuples.iter().cloned())
    }
}

impl<D: InputDomain + ?Sized> InputDomain for &D {
    fn arity(&self) -> usize {
        (**self).arity()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn len_checked(&self) -> Option<usize> {
        (**self).len_checked()
    }

    fn nth_input(&self, idx: usize, buf: &mut Vec<V>) {
        (**self).nth_input(idx, buf)
    }

    fn grid_ranges(&self) -> Option<&[RangeInclusive<V>]> {
        (**self).grid_ranges()
    }

    fn visit_range(&self, range: Range<usize>, visit: &mut dyn FnMut(usize, &[V]) -> bool) {
        (**self).visit_range(range, visit)
    }

    fn for_each_input(&self, visit: &mut dyn FnMut(&[V])) {
        (**self).for_each_input(visit)
    }

    fn iter_inputs(&self) -> Box<dyn Iterator<Item = Vec<V>> + '_> {
        (**self).iter_inputs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumeration_is_lexicographic() {
        let g = Grid::new(vec![0..=1, 0..=2]);
        let all: Vec<_> = g.iter_inputs().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], vec![0, 0]);
        assert_eq!(all[5], vec![1, 2]);
        // Strictly increasing lexicographically.
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn zero_arity_grid_has_one_empty_tuple() {
        let g = Grid::new(vec![]);
        let all: Vec<_> = g.iter_inputs().collect();
        assert_eq!(all, vec![Vec::<V>::new()]);
        // NOTE: `len()` on an empty product is 1 (the empty tuple).
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn negative_ranges_enumerate() {
        let g = Grid::new(vec![-2..=0]);
        let all: Vec<_> = g.iter_inputs().collect();
        assert_eq!(all, vec![vec![-2], vec![-1], vec![0]]);
    }

    #[test]
    fn hypercube_len() {
        let g = Grid::hypercube(3, 0..=4);
        assert_eq!(g.len(), 125);
        assert_eq!(g.arity(), 3);
        assert_eq!(g.iter_inputs().count(), 125);
    }

    #[test]
    #[should_panic(expected = "is empty")]
    #[allow(clippy::reversed_empty_ranges)]
    fn empty_range_rejected() {
        let _ = Grid::new(vec![3..=2]);
    }

    #[test]
    fn explicit_domain_roundtrip() {
        let e = Explicit::new(2, vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(e.len(), 2);
        let all: Vec<_> = e.iter_inputs().collect();
        assert_eq!(all, vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn explicit_rejects_bad_arity() {
        let _ = Explicit::new(2, vec![vec![1]]);
    }

    #[test]
    fn sample_stays_in_range() {
        let g = Grid::new(vec![-3..=3, 10..=12]);
        let mut seed = 0x9e3779b97f4a7c15u64;
        let e = g.sample(100, move || {
            // Cheap splitmix step, deterministic.
            seed = seed.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z ^ (z >> 31)
        });
        assert_eq!(e.len(), 100);
        for t in e.tuples() {
            assert!((-3..=3).contains(&t[0]));
            assert!((10..=12).contains(&t[1]));
        }
    }

    #[test]
    fn domain_by_reference() {
        let g = Grid::hypercube(1, 0..=1);
        fn count<D: InputDomain>(d: D) -> usize {
            d.iter_inputs().count()
        }
        assert_eq!(count(&g), 2);
    }

    #[test]
    fn len_checked_detects_overflow() {
        // 2^64 tuples per coordinate: the product overflows any usize.
        let g = Grid::hypercube(4, V::MIN..=V::MAX);
        assert_eq!(g.len_checked(), None);
        // A single full-range coordinate already exceeds u64::MAX as a
        // count (2^64), hence usize on every supported platform.
        let g1 = Grid::hypercube(1, V::MIN..=V::MAX);
        assert_eq!(g1.len_checked(), None);
        // Reasonable sizes still work.
        assert_eq!(Grid::hypercube(3, 0..=9).len_checked(), Some(1000));
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn len_panics_with_diagnostic_on_overflow() {
        let _ = Grid::hypercube(4, V::MIN..=V::MAX).len();
    }

    #[test]
    fn nth_input_matches_iteration_order() {
        let g = Grid::new(vec![-1..=1, 0..=2, 5..=6]);
        let mut buf = Vec::new();
        for (i, a) in g.iter_inputs().enumerate() {
            g.nth_input(i, &mut buf);
            assert_eq!(buf, a, "index {i}");
        }
    }

    #[test]
    fn visit_range_matches_iteration_order() {
        let g = Grid::new(vec![0..=2, -2..=0]);
        let all: Vec<_> = g.iter_inputs().collect();
        let mut seen = Vec::new();
        g.visit_range(2..7, &mut |idx, a| {
            seen.push((idx, a.to_vec()));
            true
        });
        assert_eq!(seen.len(), 5);
        for (idx, a) in seen {
            assert_eq!(a, all[idx]);
        }
    }

    #[test]
    fn visit_range_early_exit() {
        let g = Grid::hypercube(2, 0..=9);
        let mut count = 0;
        g.visit_range(0..100, &mut |_, _| {
            count += 1;
            count < 7
        });
        assert_eq!(count, 7);
    }

    #[test]
    fn explicit_nth_and_visit() {
        let e = Explicit::new(2, vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
        let mut buf = Vec::new();
        e.nth_input(2, &mut buf);
        assert_eq!(buf, vec![5, 6]);
        let mut seen = Vec::new();
        e.visit_range(1..3, &mut |idx, a| {
            seen.push((idx, a.to_vec()));
            true
        });
        assert_eq!(seen, vec![(1, vec![3, 4]), (2, vec![5, 6])]);
    }

    #[test]
    fn for_each_input_covers_domain() {
        let g = Grid::hypercube(2, 0..=3);
        let mut n = 0;
        g.for_each_input(&mut |a| {
            assert_eq!(a.len(), 2);
            n += 1;
        });
        assert_eq!(n, 16);
    }

    #[test]
    fn zero_arity_grid_random_access() {
        let g = Grid::new(vec![]);
        let mut buf = vec![99];
        g.nth_input(0, &mut buf);
        assert_eq!(buf, Vec::<V>::new());
        let mut visits = 0;
        g.visit_range(0..1, &mut |idx, a| {
            assert_eq!(idx, 0);
            assert!(a.is_empty());
            visits += 1;
            true
        });
        assert_eq!(visits, 1);
    }
}
