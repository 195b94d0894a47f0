//! Security policies: information filters `I: D1 × … × Dk → 𝔐`.
//!
//! A policy is *nonprocedural*: it says what information the user may have,
//! not how to protect it. "The value of `I(d1, …, dk)` has presumably
//! filtered out all the information that was to be denied to the user."
//!
//! The central family is [`Allow`] — the paper's `allow(i1, …, im)` —
//! projecting the input tuple onto the allowed coordinates. Arbitrary
//! (content-dependent, history-dependent) policies are expressed with
//! [`FnPolicy`]; `enf-filesys` uses it for Example 2's directory-gated file
//! policy.

use crate::indexset::IndexSet;
use crate::value::{SharedFn, V};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

/// A security policy `I: D1 × … × Dk → 𝔐`.
///
/// Two inputs with equal filtered views are indistinguishable to any sound
/// mechanism; the `View` type therefore needs `Eq + Hash` so the soundness
/// checker can partition domains by view.
pub trait Policy {
    /// The filtered range `𝔐`.
    type View: Clone + Eq + Hash + Debug;

    /// Number of inputs `k` the policy applies to.
    fn arity(&self) -> usize;

    /// Computes the filtered view `I(d1, …, dk)`.
    fn filter(&self, input: &[V]) -> Self::View;

    /// The coordinate set `J` when the policy is the projection
    /// `allow(J)` — two inputs share a view exactly when they agree on
    /// every coordinate in `J` — and `None` otherwise. Soundness sweeps
    /// over a [`crate::Grid`] then number the classes instead of hashing
    /// views; wrapping a policy in [`FnPolicy`] hides the projection.
    fn projection(&self) -> Option<IndexSet> {
        None
    }
}

/// The paper's `allow(i1, …, im)` policy: the user may learn the listed
/// input coordinates and nothing else.
///
/// * `Allow::none(k)` is `allow()` — "allow the user no information".
/// * `Allow::all(k)` is `allow(1, …, k)` — "allow any information".
/// * `Allow::new(k, [i, …])` is the general projection.
///
/// # Examples
///
/// ```
/// use enf_core::{Allow, Policy};
///
/// let p = Allow::new(3, [1, 3]);
/// assert_eq!(p.filter(&[10, 20, 30]), vec![10, 30]);
/// assert!(p.allows(1) && !p.allows(2));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allow {
    arity: usize,
    allowed: IndexSet,
}

impl Allow {
    /// Creates `allow(i1, …, im)` for a `k`-input program.
    ///
    /// # Panics
    ///
    /// Panics if any index is zero or exceeds `k`.
    pub fn new(k: usize, allowed: impl IntoIterator<Item = usize>) -> Self {
        let set: IndexSet = allowed.into_iter().collect();
        for i in set.iter() {
            assert!(i <= k, "allow index {i} exceeds arity {k}");
        }
        Allow {
            arity: k,
            allowed: set,
        }
    }

    /// Creates a policy from an existing [`IndexSet`].
    ///
    /// # Panics
    ///
    /// Panics if the set mentions an index above `k`.
    pub fn from_set(k: usize, allowed: IndexSet) -> Self {
        Allow::new(k, allowed.iter())
    }

    /// The policy `allow()`: no information about any input.
    pub fn none(k: usize) -> Self {
        Allow {
            arity: k,
            allowed: IndexSet::empty(),
        }
    }

    /// The policy `allow(1, …, k)`: all information.
    pub fn all(k: usize) -> Self {
        Allow {
            arity: k,
            allowed: IndexSet::full(k),
        }
    }

    /// The allowed index set `J`.
    pub fn allowed(&self) -> IndexSet {
        self.allowed
    }

    /// Whether coordinate `i` (1-based) is allowed.
    pub fn allows(&self, i: usize) -> bool {
        self.allowed.contains(i)
    }

    /// Whether this policy allows at least everything `other` allows.
    ///
    /// `allow(J1)` is *weaker or equal to* `allow(J2)` (reveals at least as
    /// much) iff `J2 ⊆ J1`.
    pub fn is_weaker_or_equal(&self, other: &Allow) -> bool {
        other.allowed.is_subset(&self.allowed)
    }

    /// The least policy revealing everything either operand reveals:
    /// `allow(J1 ∪ J2)`.
    ///
    /// `allow(…)` policies form a lattice isomorphic to the powerset of
    /// `{1, …, k}`; this is its join.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    #[must_use]
    pub fn join(&self, other: &Allow) -> Allow {
        assert_eq!(self.arity, other.arity, "policy arity mismatch");
        Allow {
            arity: self.arity,
            allowed: self.allowed.union(&other.allowed),
        }
    }

    /// The greatest policy revealing only what both operands reveal:
    /// `allow(J1 ∩ J2)` — the lattice meet.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    #[must_use]
    pub fn meet(&self, other: &Allow) -> Allow {
        assert_eq!(self.arity, other.arity, "policy arity mismatch");
        Allow {
            arity: self.arity,
            allowed: self.allowed.intersection(&other.allowed),
        }
    }
}

impl Policy for Allow {
    type View = Vec<V>;

    fn arity(&self) -> usize {
        self.arity
    }

    fn filter(&self, input: &[V]) -> Vec<V> {
        assert_eq!(
            input.len(),
            self.arity,
            "arity mismatch: policy over {} inputs, got {}",
            self.arity,
            input.len()
        );
        self.allowed.iter().map(|i| input[i - 1]).collect()
    }

    fn projection(&self) -> Option<IndexSet> {
        Some(self.allowed)
    }
}

/// A policy defined by an arbitrary Rust closure — the paper's
/// "arbitrarily complex policies", including content-dependent ones.
///
/// # Examples
///
/// ```
/// use enf_core::{FnPolicy, Policy};
///
/// // Allow the second input only when the first (a permission flag) is 1.
/// let p = FnPolicy::new(2, |a: &[i64]| if a[0] == 1 { (a[0], a[1]) } else { (a[0], 0) });
/// assert_eq!(p.filter(&[1, 99]), (1, 99));
/// assert_eq!(p.filter(&[0, 99]), (0, 0));
/// ```
pub struct FnPolicy<W> {
    arity: usize,
    f: SharedFn<W>,
}

impl<W> Clone for FnPolicy<W> {
    fn clone(&self) -> Self {
        FnPolicy {
            arity: self.arity,
            f: Arc::clone(&self.f),
        }
    }
}

impl<W> FnPolicy<W> {
    /// Wraps a closure as a policy over `k` inputs.
    pub fn new(arity: usize, f: impl Fn(&[V]) -> W + Send + Sync + 'static) -> Self {
        FnPolicy {
            arity,
            f: Arc::new(f),
        }
    }
}

impl<W: Clone + Eq + Hash + Debug> Policy for FnPolicy<W> {
    type View = W;

    fn arity(&self) -> usize {
        self.arity
    }

    fn filter(&self, input: &[V]) -> W {
        assert_eq!(
            input.len(),
            self.arity,
            "arity mismatch: policy over {} inputs, got {}",
            self.arity,
            input.len()
        );
        (self.f)(input)
    }
}

impl<P: Policy + ?Sized> Policy for &P {
    type View = P::View;

    fn arity(&self) -> usize {
        (**self).arity()
    }

    fn filter(&self, input: &[V]) -> Self::View {
        (**self).filter(input)
    }

    fn projection(&self) -> Option<IndexSet> {
        (**self).projection()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_none_filters_everything() {
        let p = Allow::none(3);
        assert_eq!(p.filter(&[1, 2, 3]), Vec::<V>::new());
        assert_eq!(p.filter(&[9, 9, 9]), Vec::<V>::new());
    }

    #[test]
    fn allow_all_is_identity() {
        let p = Allow::all(3);
        assert_eq!(p.filter(&[1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn allow_projects_in_index_order() {
        let p = Allow::new(4, [3, 1]);
        assert_eq!(p.filter(&[10, 20, 30, 40]), vec![10, 30]);
    }

    #[test]
    #[should_panic(expected = "exceeds arity")]
    fn allow_rejects_out_of_range_index() {
        let _ = Allow::new(2, [3]);
    }

    #[test]
    fn weaker_or_equal_is_superset_of_allowed() {
        let big = Allow::new(3, [1, 2, 3]);
        let small = Allow::new(3, [2]);
        assert!(big.is_weaker_or_equal(&small));
        assert!(!small.is_weaker_or_equal(&big));
        assert!(small.is_weaker_or_equal(&small));
    }

    #[test]
    fn policy_lattice_laws() {
        let a = Allow::new(3, [1, 2]);
        let b = Allow::new(3, [2, 3]);
        assert_eq!(a.join(&b), Allow::new(3, [1, 2, 3]));
        assert_eq!(a.meet(&b), Allow::new(3, [2]));
        // Absorption and idempotence.
        assert_eq!(a.join(&a), a);
        assert_eq!(a.meet(&a), a);
        assert_eq!(a.join(&a.meet(&b)), a);
        assert_eq!(a.meet(&a.join(&b)), a);
        // Join is weaker (reveals more), meet stronger.
        assert!(a.join(&b).is_weaker_or_equal(&a));
        assert!(a.is_weaker_or_equal(&a.meet(&b)));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn lattice_ops_check_arity() {
        let _ = Allow::none(2).join(&Allow::none(3));
    }

    #[test]
    fn soundness_is_antitone_in_the_policy() {
        // A mechanism sound for the stronger policy (meet) is sound for
        // any weaker one.
        use crate::domain::Grid;
        use crate::mechanism::FnMechanism;
        use crate::soundness::check_soundness;
        let m = FnMechanism::new(2, |a: &[crate::value::V]| {
            crate::mechanism::MechOutput::Value(a[1])
        });
        let g = Grid::hypercube(2, 0..=2);
        let strong = Allow::new(2, [2]);
        let weak = strong.join(&Allow::new(2, [1]));
        assert!(check_soundness(&m, &strong, &g, false).is_sound());
        assert!(check_soundness(&m, &weak, &g, false).is_sound());
        // The converse fails: sound for weak does not imply strong.
        let leaky = FnMechanism::new(2, |a: &[crate::value::V]| {
            crate::mechanism::MechOutput::Value(a[0] + a[1])
        });
        assert!(check_soundness(&leaky, &weak, &g, false).is_sound());
        assert!(!check_soundness(&leaky, &strong, &g, false).is_sound());
    }

    #[test]
    fn fn_policy_content_dependent() {
        // Example-2-style: file content allowed only when directory says YES
        // (encoded as 1).
        let p = FnPolicy::new(2, |a: &[V]| (a[0], if a[0] == 1 { a[1] } else { 0 }));
        assert_eq!(p.filter(&[1, 7]), (1, 7));
        assert_eq!(p.filter(&[0, 7]), (0, 0));
        // Two denied inputs with different file contents are
        // indistinguishable.
        assert_eq!(p.filter(&[0, 7]), p.filter(&[0, 8]));
    }

    #[test]
    fn policy_by_reference() {
        let p = Allow::new(2, [1]);
        fn view<P: Policy>(p: P, a: &[V]) -> P::View {
            p.filter(a)
        }
        assert_eq!(view(&p, &[5, 6]), vec![5]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn allow_filter_rejects_bad_tuple() {
        Allow::none(2).filter(&[1]);
    }
}
