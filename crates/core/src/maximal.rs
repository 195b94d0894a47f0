//! The maximal sound protection mechanism — Theorems 2 and 4.
//!
//! Theorem 2 proves a maximal sound mechanism *exists* (join all sound
//! mechanisms) but notes it "may not be recursive — even if Q is", and
//! Theorem 4 shows no effective procedure can construct it in general.
//!
//! On a **finite** domain the maximal mechanism is constructible, and has a
//! crisp characterization: a sound mechanism must be constant on each
//! `I`-equivalence class; to also be a protection mechanism its accepted
//! value on a class must equal `Q` there; hence it can accept on a class iff
//! `Q` is constant on that class — and the maximal mechanism accepts on
//! exactly those classes. [`MaximalMechanism::build`] precomputes this.
//!
//! For unbounded domains, [`bounded_constancy_check`] shows Theorem 4's
//! obstruction operationally: deciding whether the class of an input is
//! `Q`-constant requires checking all of it, and any fuel bound can be
//! exhausted before an answer is reached.

use crate::domain::InputDomain;
use crate::error::{Coverage, EnfError};
use crate::mechanism::{MechOutput, Mechanism};
use crate::notice::Notice;
use crate::par::{each, fold, CancelToken, EvalConfig, FoldPartials, Guard, Guarded, Plain};
use crate::policy::Policy;
use crate::program::Program;
use crate::value::{BoxedFn, V};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// The maximal sound protection mechanism for `Q` and `I` over a finite
/// domain.
///
/// Inputs outside the construction domain receive a distinguished
/// out-of-domain notice: the mechanism is total, but its maximality claim is
/// relative to the domain it was built from.
///
/// # Examples
///
/// ```
/// use enf_core::{Allow, FnProgram, Grid, MechOutput, Mechanism};
/// use enf_core::maximal::MaximalMechanism;
///
/// // Q ignores x1 entirely, so even allow(2) lets everything through.
/// let q = FnProgram::new(2, |a: &[i64]| a[1]);
/// let m = MaximalMechanism::build(&q, &Allow::new(2, [2]), &Grid::hypercube(2, 0..=3));
/// assert_eq!(m.run(&[3, 1]), MechOutput::Value(1));
/// ```
pub struct MaximalMechanism<W, O> {
    arity: usize,
    classes: HashMap<W, Option<O>>,
    filter: BoxedFn<W>,
    violation: Notice,
    out_of_domain: Notice,
}

impl<W, O> MaximalMechanism<W, O>
where
    W: Clone + Eq + Hash + Debug + 'static,
    O: Clone + PartialEq + Debug,
{
    /// Notice code for inputs whose policy view is constant-valued under
    /// `Q` but which the policy still denies.
    pub const VIOLATION_CODE: u32 = 100;
    /// Notice code for inputs outside the construction domain.
    pub const OUT_OF_DOMAIN_CODE: u32 = 101;

    /// Builds the maximal mechanism by scanning the domain once.
    ///
    /// For each `I`-class, record `Q`'s value if `Q` is constant there,
    /// otherwise mark the class as leaking.
    pub fn build<Q, P>(program: &Q, policy: &P, domain: &dyn InputDomain) -> Self
    where
        Q: Program<Out = O> + Sync,
        P: Policy<View = W> + Clone + Send + Sync + 'static,
        W: Send,
        O: Send,
    {
        Self::build_with(program, policy, domain, &EvalConfig::default())
    }

    /// Like [`build`](MaximalMechanism::build) but with an explicit
    /// evaluation configuration.
    ///
    /// The domain scan partitions across workers ([`crate::par`]); each
    /// worker classifies its index range into `view → Some(constant) /
    /// None (varies)` and the partials are merged pointwise: a class is
    /// constant iff it is constant in every range *and* the constants
    /// agree. The merged map is identical to the sequential scan's for
    /// every thread count.
    pub fn build_with<Q, P>(
        program: &Q,
        policy: &P,
        domain: &dyn InputDomain,
        config: &EvalConfig,
    ) -> Self
    where
        Q: Program<Out = O> + Sync,
        P: Policy<View = W> + Clone + Send + Sync + 'static,
        W: Send,
        O: Send,
    {
        let scanned =
            Self::scan::<Plain, _, _>(program, policy, domain, config, &CancelToken::new());
        Self::from_classes(program.arity(), policy, scanned.parts)
    }

    /// Fault-tolerant [`build`](MaximalMechanism::build): a panicking
    /// program or policy is quarantined instead of unwinding, and the
    /// scan honors the cancellation token.
    ///
    /// A partially built maximal mechanism would silently misclassify the
    /// unscanned part of the domain as out-of-domain, so there is no
    /// partial result: the outcome is `Confirmed` with the mechanism on
    /// complete coverage, `Unknown` with no mechanism when cancelled, or
    /// `Err(SubjectPanicked)` on any quarantine (least offending index,
    /// deterministic for every thread count).
    pub fn try_build_with<Q, P>(
        program: &Q,
        policy: &P,
        domain: &dyn InputDomain,
        config: &EvalConfig,
        ctl: &CancelToken,
    ) -> Result<Coverage<Self>, EnfError>
    where
        Q: Program<Out = O> + Sync,
        P: Policy<View = W> + Clone + Send + Sync + 'static,
        W: Send,
        O: Send,
    {
        Self::scan::<Guarded, _, _>(program, policy, domain, config, ctl)
            .whole(domain.len(), |parts| {
                Self::from_classes(program.arity(), policy, parts)
            })
    }

    /// The body of both forms of [`build_with`](MaximalMechanism::build_with):
    /// per range, each class's `Q` value, or `None` where `Q` varies on it.
    fn scan<G, Q, P>(
        program: &Q,
        policy: &P,
        domain: &dyn InputDomain,
        config: &EvalConfig,
        ctl: &CancelToken,
    ) -> FoldPartials<HashMap<W, Option<O>>>
    where
        G: Guard,
        Q: Program<Out = O> + Sync,
        P: Policy<View = W> + Sync,
        W: Send,
        O: Send,
    {
        assert_eq!(
            program.arity(),
            policy.arity(),
            "program/policy arity mismatch"
        );
        assert_eq!(
            domain.arity(),
            policy.arity(),
            "domain/policy arity mismatch"
        );
        fold::<G, _>(
            domain,
            0..domain.len(),
            config,
            ctl,
            HashMap::new,
            each(|classes: &mut HashMap<W, Option<O>>, _, a| {
                let view = policy.filter(a);
                absorb(classes, view, Some(program.eval(a)));
                false
            }),
        )
    }

    /// Merges the per-range class maps into the mechanism: a class is
    /// constant iff it is constant in every range *and* the constants
    /// agree.
    fn from_classes<P>(arity: usize, policy: &P, parts: Vec<HashMap<W, Option<O>>>) -> Self
    where
        P: Policy<View = W> + Clone + Send + Sync + 'static,
    {
        let mut classes = HashMap::new();
        for part in parts {
            for (view, value) in part {
                absorb(&mut classes, view, value);
            }
        }
        let p = policy.clone();
        MaximalMechanism {
            arity,
            classes,
            filter: Box::new(move |a| p.filter(a)),
            violation: Notice::new(Self::VIOLATION_CODE, "policy violation"),
            out_of_domain: Notice::new(
                Self::OUT_OF_DOMAIN_CODE,
                "input outside construction domain",
            ),
        }
    }

    /// Number of `I`-equivalence classes discovered.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of classes on which the mechanism accepts (where `Q` is
    /// constant).
    pub fn accepting_class_count(&self) -> usize {
        self.classes.values().filter(|v| v.is_some()).count()
    }
}

/// Records `value` for the class `view`: the class keeps its first value,
/// and becomes `None` (varies) once a different one arrives.
fn absorb<W: Eq + Hash, O: PartialEq>(
    classes: &mut HashMap<W, Option<O>>,
    view: W,
    value: Option<O>,
) {
    match classes.entry(view) {
        Entry::Vacant(e) => {
            e.insert(value);
        }
        Entry::Occupied(mut e) => {
            if *e.get() != value {
                e.insert(None);
            }
        }
    }
}

impl<W, O> Mechanism for MaximalMechanism<W, O>
where
    W: Clone + Eq + Hash + Debug + 'static,
    O: Clone + PartialEq + Debug,
{
    type Out = O;

    fn arity(&self) -> usize {
        self.arity
    }

    fn run(&self, input: &[V]) -> MechOutput<O> {
        let view = (self.filter)(input);
        match self.classes.get(&view) {
            Some(Some(v)) => MechOutput::Value(v.clone()),
            Some(None) => MechOutput::Violation(self.violation.clone()),
            None => MechOutput::Violation(self.out_of_domain.clone()),
        }
    }
}

/// Verdict of a fuel-bounded constancy check on a (possibly unbounded)
/// input stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Constancy {
    /// All inspected values were equal and the stream was exhausted.
    Constant,
    /// Two differing outputs were found at the given probe indices.
    Varies(usize, usize),
    /// Fuel ran out before the stream did — Theorem 4's wall: no effective
    /// procedure can settle the question in general.
    Undetermined {
        /// How many inputs were inspected before the fuel ran out.
        probed: usize,
    },
}

/// Attempts to decide whether `Q` is constant across an input stream,
/// inspecting at most `fuel` inputs.
///
/// This is the computational heart of constructing the maximal mechanism
/// for `allow()` (Theorem 4's reduction: `M(0) = 0` iff `∀x, A(x) = 0`).
/// For an unbounded stream the answer can come back [`Constancy::Undetermined`]
/// for every finite fuel — which is exactly why the maximal mechanism is
/// not effectively constructible.
pub fn bounded_constancy_check<O, I>(mut outputs: I, fuel: usize) -> Constancy
where
    O: PartialEq,
    I: Iterator<Item = O>,
{
    let first = match outputs.next() {
        Some(v) => v,
        None => return Constancy::Constant,
    };
    for (i, v) in outputs.enumerate() {
        // `i + 1` outputs have been probed before inspecting `v`.
        let probed = i + 1;
        if probed >= fuel {
            return Constancy::Undetermined { probed };
        }
        if v != first {
            return Constancy::Varies(0, i + 1);
        }
    }
    Constancy::Constant
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::completeness::{compare, MechOrdering};
    use crate::domain::Grid;
    use crate::mechanism::{FnMechanism, Identity};
    use crate::policy::Allow;
    use crate::program::FnProgram;
    use crate::soundness::{check_protection, check_soundness};

    #[test]
    fn maximal_is_sound_and_a_protection_mechanism() {
        // Branches on x1 but computes the same value either way: constant
        // per policy class even though the scrutinee is disallowed.
        #[allow(clippy::if_same_then_else)]
        let q = FnProgram::new(2, |a: &[V]| if a[0] > 0 { a[1] } else { a[1] });
        let p = Allow::new(2, [2]);
        let g = Grid::hypercube(2, -2..=2);
        let m = MaximalMechanism::build(&q, &p, &g);
        assert!(check_soundness(&m, &p, &g, false).is_sound());
        assert!(check_protection(&m, &q, &g).is_ok());
    }

    #[test]
    fn maximal_accepts_where_q_ignores_denied_inputs() {
        // Q(x1, x2) = x2; denied x1 is irrelevant, so accept everywhere.
        let q = FnProgram::new(2, |a: &[V]| a[1]);
        let p = Allow::new(2, [2]);
        let g = Grid::hypercube(2, 0..=3);
        let m = MaximalMechanism::build(&q, &p, &g);
        for a in g.iter_inputs() {
            assert_eq!(m.run(&a), MechOutput::Value(a[1]));
        }
        assert_eq!(m.class_count(), 4);
        assert_eq!(m.accepting_class_count(), 4);
    }

    #[test]
    fn maximal_rejects_only_leaking_classes() {
        // Q(x1, x2) = if x2 == 0 { x1 } else { 7 } under allow(2):
        // the class x2 = 0 leaks x1; every other class is constant.
        let q = FnProgram::new(2, |a: &[V]| if a[1] == 0 { a[0] } else { 7 });
        let p = Allow::new(2, [2]);
        let g = Grid::hypercube(2, 0..=3);
        let m = MaximalMechanism::build(&q, &p, &g);
        for a in g.iter_inputs() {
            if a[1] == 0 {
                assert!(m.run(&a).is_violation(), "should deny {a:?}");
            } else {
                assert_eq!(m.run(&a), MechOutput::Value(7));
            }
        }
        assert_eq!(m.accepting_class_count(), 3);
    }

    #[test]
    fn maximal_dominates_any_sound_mechanism() {
        let q = FnProgram::new(2, |a: &[V]| if a[1] == 0 { a[0] } else { 7 });
        let p = Allow::new(2, [2]);
        let g = Grid::hypercube(2, 0..=3);
        let maximal = MaximalMechanism::build(&q, &p, &g);
        // A more timid sound mechanism: accept only when x2 == 1.
        let timid = FnMechanism::new(2, |a: &[V]| {
            if a[1] == 1 {
                MechOutput::Value(7)
            } else {
                MechOutput::Violation(Notice::lambda())
            }
        });
        assert!(check_soundness(&timid, &p, &g, false).is_sound());
        let r = compare(&maximal, &timid, &g);
        assert!(r.first_as_complete());
        assert_eq!(r.ordering, MechOrdering::FirstMore);
    }

    #[test]
    fn out_of_domain_inputs_get_distinct_notice() {
        let q = FnProgram::new(1, |a: &[V]| a[0]);
        let p = Allow::all(1);
        let g = Grid::hypercube(1, 0..=1);
        let m = MaximalMechanism::build(&q, &p, &g);
        match m.run(&[99]) {
            MechOutput::Violation(n) => {
                assert_eq!(n.code(), MaximalMechanism::<Vec<V>, V>::OUT_OF_DOMAIN_CODE)
            }
            MechOutput::Value(_) => panic!("accepted out-of-domain input"),
        }
    }

    #[test]
    fn section_4_nonmaximality_example() {
        // The paper's program: branch on x1, but both branches assign
        // y := x2. Surveillance always gives Λ; the maximal mechanism is Q
        // itself. We verify Identity(Q) and Maximal agree here.
        #[allow(clippy::if_same_then_else)]
        let q = FnProgram::new(2, |a: &[V]| if a[0] == 0 { a[1] } else { a[1] });
        let p = Allow::new(2, [2]);
        let g = Grid::hypercube(2, -2..=2);
        let maximal = MaximalMechanism::build(&q, &p, &g);
        let id = Identity::new(q);
        assert!(check_soundness(&id, &p, &g, false).is_sound());
        let r = compare(&maximal, &id, &g);
        assert_eq!(r.ordering, MechOrdering::Equal);
    }

    #[test]
    fn constancy_constant_stream() {
        assert_eq!(
            bounded_constancy_check([0, 0, 0, 0].into_iter(), 100),
            Constancy::Constant
        );
    }

    #[test]
    fn constancy_empty_stream_is_constant() {
        assert_eq!(
            bounded_constancy_check(std::iter::empty::<V>(), 10),
            Constancy::Constant
        );
    }

    #[test]
    fn constancy_detects_variation() {
        assert_eq!(
            bounded_constancy_check([0, 0, 5].into_iter(), 100),
            Constancy::Varies(0, 2)
        );
    }

    #[test]
    fn constancy_fuel_exhaustion_on_unbounded_stream() {
        // Theorem 4 operationally: an all-zero unbounded stream can never
        // be certified constant with finite fuel.
        let stream = std::iter::repeat(0i64);
        assert_eq!(
            bounded_constancy_check(stream, 1000),
            Constancy::Undetermined { probed: 1000 }
        );
    }

    #[test]
    fn constancy_finds_late_counterexample_within_fuel() {
        let stream = (0..).map(|i| if i == 500 { 1 } else { 0 });
        assert_eq!(
            bounded_constancy_check(stream, 1000),
            Constancy::Varies(0, 500)
        );
    }
}
