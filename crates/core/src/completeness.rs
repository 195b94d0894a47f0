//! The completeness ordering on protection mechanisms.
//!
//! "MI is as complete as M2 (M1 ≥ M2) provided, for all inputs a, if
//! M2(a) = Q(a) then M1(a) = Q(a)" — i.e. the acceptance set of `M1`
//! contains that of `M2`. Different violation notices are *not*
//! distinguished. The relation is a partial order; two mechanisms whose
//! acceptance sets are incomparable are unrelated.
//!
//! [`compare`] computes the relation empirically over an enumerable domain
//! and also reports acceptance rates — the utility statistic the paper
//! motivates ("practically one is interested only in computations that do
//! not result in a violation notice").

use crate::domain::InputDomain;
use crate::error::{Coverage, EnfError};
use crate::mechanism::Mechanism;
use crate::par::{fold, CancelToken, EvalConfig, FoldPartials, Guard, Guarded, Plain};
use crate::value::V;

/// How two mechanisms' acceptance sets relate over a domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MechOrdering {
    /// Identical acceptance sets.
    Equal,
    /// `M1 > M2`: strictly more complete.
    FirstMore,
    /// `M2 > M1`: strictly less complete.
    SecondMore,
    /// Each accepts somewhere the other does not.
    Incomparable,
}

/// Result of an empirical completeness comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompletenessReport {
    /// The computed ordering.
    pub ordering: MechOrdering,
    /// Total inputs enumerated.
    pub inputs: usize,
    /// Inputs accepted by the first mechanism.
    pub accepted_first: usize,
    /// Inputs accepted by the second mechanism.
    pub accepted_second: usize,
    /// Inputs accepted by the first but not the second.
    pub only_first: usize,
    /// Inputs accepted by the second but not the first.
    pub only_second: usize,
    /// Example input accepted only by the first mechanism, if any.
    pub witness_first: Option<Vec<V>>,
    /// Example input accepted only by the second mechanism, if any.
    pub witness_second: Option<Vec<V>>,
}

impl CompletenessReport {
    /// Acceptance rate of the first mechanism.
    pub fn rate_first(&self) -> f64 {
        rate(self.accepted_first, self.inputs)
    }

    /// Acceptance rate of the second mechanism.
    pub fn rate_second(&self) -> f64 {
        rate(self.accepted_second, self.inputs)
    }

    /// Whether `M1 ≥ M2` holds (Equal or FirstMore).
    pub fn first_as_complete(&self) -> bool {
        matches!(self.ordering, MechOrdering::Equal | MechOrdering::FirstMore)
    }
}

fn rate(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Compares two mechanisms for the same program over a domain.
///
/// Only *acceptance* matters: a mechanism output counts as accepted iff it
/// is a [`crate::MechOutput::Value`], matching the paper's convention of
/// identifying all violation notices.
///
/// # Examples
///
/// ```
/// use enf_core::{compare, FnMechanism, Grid, MechOutput, MechOrdering, Notice};
///
/// let permissive = FnMechanism::new(1, |a: &[i64]| MechOutput::Value(a[0]));
/// let strict = FnMechanism::new(1, |a: &[i64]| {
///     if a[0] == 0 { MechOutput::Value(0) } else { MechOutput::Violation(Notice::lambda()) }
/// });
/// let r = compare(&permissive, &strict, &Grid::hypercube(1, -2..=2));
/// assert_eq!(r.ordering, MechOrdering::FirstMore);
/// ```
pub fn compare<M1, M2>(m1: &M1, m2: &M2, domain: &dyn InputDomain) -> CompletenessReport
where
    M1: Mechanism + Sync,
    M2: Mechanism + Sync,
{
    compare_with(m1, m2, domain, &EvalConfig::default())
}

/// Per-range partial of a completeness comparison.
#[derive(Default)]
struct ComparePartial {
    inputs: usize,
    accepted_first: usize,
    accepted_second: usize,
    only_first: usize,
    only_second: usize,
    witness_first: Option<(usize, Vec<V>)>,
    witness_second: Option<(usize, Vec<V>)>,
}

fn min_witness(a: Option<(usize, Vec<V>)>, b: Option<(usize, Vec<V>)>) -> Option<(usize, Vec<V>)> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if x.0 <= y.0 { x } else { y }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Like [`compare`] but with an explicit evaluation configuration.
///
/// Counts are sums over the partition; witnesses are the least-index
/// examples, so the report equals the sequential one (which records the
/// first example in enumeration order) for every thread count.
pub fn compare_with<M1, M2>(
    m1: &M1,
    m2: &M2,
    domain: &dyn InputDomain,
    config: &EvalConfig,
) -> CompletenessReport
where
    M1: Mechanism + Sync,
    M2: Mechanism + Sync,
{
    reduce_compare(compare_fold::<Plain, _, _>(m1, m2, domain, config, &CancelToken::new()).parts)
}

/// Fault-tolerant [`compare`]: a panicking mechanism is quarantined
/// instead of unwinding, and the sweep honors the cancellation token.
///
/// The ordering is a statement about the *whole* domain, so there is no
/// refuting witness to salvage from a partial sweep: the result is
/// `Confirmed` with the full report on complete coverage, `Unknown` with
/// no report when cancelled, and `Err(SubjectPanicked)` on any quarantine
/// (with the least offending index, deterministic for every thread count).
pub fn try_compare_with<M1, M2>(
    m1: &M1,
    m2: &M2,
    domain: &dyn InputDomain,
    config: &EvalConfig,
    ctl: &CancelToken,
) -> Result<Coverage<CompletenessReport>, EnfError>
where
    M1: Mechanism + Sync,
    M2: Mechanism + Sync,
{
    compare_fold::<Guarded, _, _>(m1, m2, domain, config, ctl).whole(domain.len(), reduce_compare)
}

/// The body of both forms of [`compare_with`]: per range, the acceptance
/// counts and the first input each mechanism alone accepts.
fn compare_fold<G, M1, M2>(
    m1: &M1,
    m2: &M2,
    domain: &dyn InputDomain,
    config: &EvalConfig,
    ctl: &CancelToken,
) -> FoldPartials<ComparePartial>
where
    G: Guard,
    M1: Mechanism + Sync,
    M2: Mechanism + Sync,
{
    assert_eq!(
        m1.arity(),
        m2.arity(),
        "mechanisms have different arities ({} vs {})",
        m1.arity(),
        m2.arity()
    );
    assert_eq!(
        domain.arity(),
        m1.arity(),
        "domain arity {} does not match mechanism arity {}",
        domain.arity(),
        m1.arity()
    );
    fold::<G, _>(
        domain,
        0..domain.len(),
        config,
        ctl,
        ComparePartial::default,
        |p, idx, a| {
            let (ok1, ok2) = (m1.run(a).is_value(), m2.run(a).is_value());
            p.inputs += 1;
            p.accepted_first += usize::from(ok1);
            p.accepted_second += usize::from(ok2);
            if ok1 && !ok2 {
                p.only_first += 1;
                p.witness_first.get_or_insert_with(|| (idx, a.to_vec()));
            } else if ok2 && !ok1 {
                p.only_second += 1;
                p.witness_second.get_or_insert_with(|| (idx, a.to_vec()));
            }
            false
        },
    )
}

/// Merges compare partials in range order into a report.
fn reduce_compare(partials: Vec<ComparePartial>) -> CompletenessReport {
    let total = partials
        .into_iter()
        .reduce(|mut acc, p| {
            acc.inputs += p.inputs;
            acc.accepted_first += p.accepted_first;
            acc.accepted_second += p.accepted_second;
            acc.only_first += p.only_first;
            acc.only_second += p.only_second;
            acc.witness_first = min_witness(acc.witness_first, p.witness_first);
            acc.witness_second = min_witness(acc.witness_second, p.witness_second);
            acc
        })
        .unwrap_or_default();
    CompletenessReport {
        ordering: match (total.only_first > 0, total.only_second > 0) {
            (false, false) => MechOrdering::Equal,
            (true, false) => MechOrdering::FirstMore,
            (false, true) => MechOrdering::SecondMore,
            (true, true) => MechOrdering::Incomparable,
        },
        inputs: total.inputs,
        accepted_first: total.accepted_first,
        accepted_second: total.accepted_second,
        only_first: total.only_first,
        only_second: total.only_second,
        witness_first: total.witness_first.map(|(_, a)| a),
        witness_second: total.witness_second.map(|(_, a)| a),
    }
}

/// Computes the acceptance set of a mechanism over a domain: the inputs on
/// which it returns a program output.
pub fn acceptance_set<M: Mechanism + Sync>(m: &M, domain: &dyn InputDomain) -> Vec<Vec<V>> {
    acceptance_set_with(m, domain, &EvalConfig::default())
}

/// Like [`acceptance_set`] but with an explicit evaluation configuration.
///
/// Per-range accepted tuples are concatenated in range order, so the result
/// is in enumeration order for every thread count.
pub fn acceptance_set_with<M: Mechanism + Sync>(
    m: &M,
    domain: &dyn InputDomain,
    config: &EvalConfig,
) -> Vec<Vec<V>> {
    let accepted = accepted::<Plain, _>(m, domain, config, &CancelToken::new());
    accepted.parts.into_iter().flatten().collect()
}

/// Fault-tolerant [`acceptance_set`]: quarantines panics and honors the
/// cancellation token.
///
/// Like [`try_compare_with`], a partial acceptance set is not a usable
/// acceptance set (absence from it would be ambiguous), so the result is
/// `Confirmed` with the full set, `Unknown` with no report when
/// cancelled, or `Err(SubjectPanicked)` on any quarantine.
pub fn try_acceptance_set_with<M: Mechanism + Sync>(
    m: &M,
    domain: &dyn InputDomain,
    config: &EvalConfig,
    ctl: &CancelToken,
) -> Result<Coverage<Vec<Vec<V>>>, EnfError> {
    accepted::<Guarded, _>(m, domain, config, ctl)
        .whole(domain.len(), |parts| parts.into_iter().flatten().collect())
}

/// The body of both forms of [`acceptance_set_with`]: per range, the
/// accepted tuples in enumeration order.
fn accepted<G: Guard, M: Mechanism + Sync>(
    m: &M,
    domain: &dyn InputDomain,
    config: &EvalConfig,
    ctl: &CancelToken,
) -> FoldPartials<Vec<Vec<V>>> {
    fold::<G, _>(
        domain,
        0..domain.len(),
        config,
        ctl,
        Vec::new,
        |accepted, _, a| {
            if m.run(a).is_value() {
                accepted.push(a.to_vec());
            }
            false
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Grid;
    use crate::mechanism::{FnMechanism, Identity, MechOutput, Plug};
    use crate::notice::Notice;
    use crate::program::FnProgram;

    fn accept_if(
        arity: usize,
        pred: impl Fn(&[V]) -> bool + Send + Sync + 'static,
    ) -> FnMechanism<V> {
        FnMechanism::new(arity, move |a: &[V]| {
            if pred(a) {
                MechOutput::Value(0)
            } else {
                MechOutput::Violation(Notice::lambda())
            }
        })
    }

    #[test]
    fn identity_dominates_plug() {
        let q = FnProgram::new(1, |a: &[V]| a[0]);
        let id = Identity::new(q);
        let plug: Plug<V> = Plug::new(1);
        let g = Grid::hypercube(1, 0..=4);
        let r = compare(&id, &plug, &g);
        assert_eq!(r.ordering, MechOrdering::FirstMore);
        assert_eq!(r.accepted_first, 5);
        assert_eq!(r.accepted_second, 0);
        assert!(r.first_as_complete());
        assert!((r.rate_first() - 1.0).abs() < 1e-12);
        assert_eq!(r.rate_second(), 0.0);
    }

    #[test]
    fn equal_mechanisms_are_equal() {
        let g = Grid::hypercube(1, 0..=4);
        let m1 = accept_if(1, |a| a[0] % 2 == 0);
        let m2 = accept_if(1, |a| a[0] % 2 == 0);
        let r = compare(&m1, &m2, &g);
        assert_eq!(r.ordering, MechOrdering::Equal);
        assert!(r.first_as_complete());
        assert_eq!(r.witness_first, None);
        assert_eq!(r.witness_second, None);
    }

    #[test]
    fn incomparable_mechanisms_detected() {
        let g = Grid::hypercube(1, 0..=4);
        let even = accept_if(1, |a| a[0] % 2 == 0);
        let odd = accept_if(1, |a| a[0] % 2 == 1);
        let r = compare(&even, &odd, &g);
        assert_eq!(r.ordering, MechOrdering::Incomparable);
        assert!(r.witness_first.is_some());
        assert!(r.witness_second.is_some());
        assert!(!r.first_as_complete());
    }

    #[test]
    fn second_more_detected_symmetrically() {
        let g = Grid::hypercube(1, 0..=4);
        let all = accept_if(1, |_| true);
        let none = accept_if(1, |_| false);
        let r = compare(&none, &all, &g);
        assert_eq!(r.ordering, MechOrdering::SecondMore);
        assert_eq!(r.only_second, 5);
        assert_eq!(r.witness_second, Some(vec![0]));
    }

    #[test]
    fn witnesses_are_accepted_by_exactly_one_side() {
        let g = Grid::hypercube(1, 0..=9);
        let low = accept_if(1, |a| a[0] < 5);
        let high = accept_if(1, |a| a[0] >= 3);
        let r = compare(&low, &high, &g);
        let wf = r.witness_first.unwrap();
        let ws = r.witness_second.unwrap();
        assert!(low.run(&wf).is_value() && !high.run(&wf).is_value());
        assert!(high.run(&ws).is_value() && !low.run(&ws).is_value());
    }

    #[test]
    fn acceptance_set_lists_accepting_inputs() {
        let g = Grid::hypercube(1, 0..=3);
        let even = accept_if(1, |a| a[0] % 2 == 0);
        assert_eq!(acceptance_set(&even, &g), vec![vec![0], vec![2]]);
    }

    #[test]
    fn notice_values_do_not_affect_ordering() {
        // Same acceptance set, different notices: Equal.
        let g = Grid::hypercube(1, 0..=3);
        let m1 = FnMechanism::new(1, |_: &[V]| {
            MechOutput::<V>::Violation(Notice::new(1, "one"))
        });
        let m2 = FnMechanism::new(1, |_: &[V]| {
            MechOutput::<V>::Violation(Notice::new(2, "two"))
        });
        assert_eq!(compare(&m1, &m2, &g).ordering, MechOrdering::Equal);
    }
}
