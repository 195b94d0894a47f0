//! Very static enforcement of *dynamic* policies: the policy-schedule
//! dataflow certifier.
//!
//! A program with `setpolicy` and `declassify` boxes is governed by a
//! *policy schedule* (see [`enf_core::schedule`]): the active `allow(J)`
//! changes mid-run, and slot boxes (`setpolicy p1`) take their binding from
//! the environment. This analysis certifies such programs **for every
//! schedule at once** by pairing the may-taint environment with the set of
//! policy states that may be active at each program point:
//!
//! * the abstract state is `(TaintEnv, PolicySet)` — the may-taint problem
//!   of [`crate::dataflow`] (monotone `C̄`, refined by the value analysis
//!   exactly as [`crate::dataflow::analyze_refined`]) seeded with an
//!   initial policy, whose policy component is the set of `allow(J)`
//!   points reachable at the node;
//! * a concrete `setpolicy allow(…)` collapses the policy set to a
//!   singleton; a *slot* box (`setpolicy p1`) collapses it to
//!   [`PolicySet::Any`], because the analysis must certify for every
//!   possible binding;
//! * `declassify(v: A ~> B)` relabels `v̄ ← (v̄ \ A) ∪ B`, mirroring the
//!   dynamic monitor's sanctioned release;
//! * a HALT certifies iff its taint `ȳ ∪ C̄` is inside **every** policy
//!   state that can be active there (under `Any`, only the empty taint
//!   passes).
//!
//! On a policy-free program the policy set stays `{initial}` everywhere and
//! the verdict degenerates to `Analysis::ValueRefined` exactly — the
//! workspace proptests pin this. Certified programs are validated against
//! the bounded-schedule oracle [`enf_core::check_soundness_scheduled`],
//! which quantifies over every slot binding.

use crate::dataflow::{MayTaint, TaintEnv};
use crate::framework::solve;
use crate::value::{analyze_values, ValueFacts};
use enf_core::IndexSet;
use enf_flowchart::graph::{Flowchart, NodeId};
use std::fmt;

/// The set of policy states that may be active at a program point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PolicySet {
    /// Exactly these `allow(J)` points (sorted, deduplicated). Empty means
    /// "no execution reaches here" (the lattice ⊥).
    These(Vec<IndexSet>),
    /// Any policy at all — some schedule-bound slot box dominates this
    /// point, so every `allow(J)` is possible (the lattice ⊤).
    Any,
}

impl PolicySet {
    /// The bottom element: no reachable policy state.
    pub fn none() -> Self {
        PolicySet::These(Vec::new())
    }

    /// The singleton set.
    pub fn just(p: IndexSet) -> Self {
        PolicySet::These(vec![p])
    }

    /// Whether every policy is possible.
    pub fn is_any(&self) -> bool {
        matches!(self, PolicySet::Any)
    }

    /// The concrete states, if bounded.
    pub fn states(&self) -> Option<&[IndexSet]> {
        match self {
            PolicySet::These(ps) => Some(ps),
            PolicySet::Any => None,
        }
    }

    /// Joins `from` into `self`, returning whether `self` grew.
    pub(crate) fn join_from(&mut self, from: &PolicySet) -> bool {
        match (&mut *self, from) {
            (PolicySet::Any, _) => false,
            (_, PolicySet::Any) => {
                *self = PolicySet::Any;
                true
            }
            (PolicySet::These(into), PolicySet::These(ps)) => {
                let before = into.len();
                for p in ps {
                    if let Err(at) = into.binary_search(p) {
                        into.insert(at, *p);
                    }
                }
                into.len() != before
            }
        }
    }

    /// Whether the taint `t` is inside every possible policy state. With no
    /// reachable state the check is vacuous; under [`PolicySet::Any`] only
    /// the empty taint passes.
    pub fn admits(&self, t: &IndexSet) -> bool {
        match self {
            PolicySet::Any => t.is_empty(),
            PolicySet::These(ps) => ps.iter().all(|p| t.is_subset(p)),
        }
    }

    /// The union of `t \ P` over every failing policy state (everything
    /// under `Any`): the offending indices reported on rejection.
    pub fn excess(&self, t: &IndexSet) -> IndexSet {
        match self {
            PolicySet::Any => *t,
            PolicySet::These(ps) => {
                let mut bad = IndexSet::empty();
                for p in ps {
                    bad.union_with(&t.difference(p));
                }
                bad
            }
        }
    }
}

impl fmt::Display for PolicySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySet::Any => f.write_str("any"),
            PolicySet::These(ps) => {
                f.write_str("{")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "allow({p})")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The abstract state at one program point: may-taint facts paired with the
/// reachable policy states. This is the fact of the one may-taint problem
/// in [`crate::dataflow`]; analyses under a fixed policy keep the policy
/// component at [`PolicySet::none`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SchedFact {
    /// The taint environment (monotone `C̄` discipline).
    pub env: TaintEnv,
    /// The policy states that may be active on entry.
    pub policies: PolicySet,
}

/// The fixed point of the schedule analysis.
#[derive(Clone, Debug)]
pub struct ScheduleFacts {
    /// The abstract state on entry to each node (index = node id).
    pub at_entry: Vec<SchedFact>,
    /// Transfer applications performed before convergence.
    pub iterations: usize,
}

impl ScheduleFacts {
    /// The policy states that may be active on entry to a node.
    pub fn policies_at(&self, n: NodeId) -> &PolicySet {
        &self.at_entry[n.0].policies
    }

    /// The static taint of the released output at a HALT: `ȳ ∪ C̄` there.
    pub fn halt_taint(&self, halt: NodeId) -> IndexSet {
        let f = &self.at_entry[halt.0];
        f.env.get(enf_flowchart::ast::Var::Out).union(&f.env.pc)
    }
}

/// Runs the schedule analysis from the initial policy `allow(initial)`,
/// computing the value facts internally.
pub fn analyze_schedules(fc: &Flowchart, initial: IndexSet) -> ScheduleFacts {
    analyze_schedules_with(fc, initial, &analyze_values(fc))
}

/// Runs the schedule analysis against precomputed value facts.
pub fn analyze_schedules_with(
    fc: &Flowchart,
    initial: IndexSet,
    values: &ValueFacts,
) -> ScheduleFacts {
    schedule_facts(fc, Some(initial), values)
}

/// The value-refined may-taint facts, tracking the policy states reachable
/// from `allow(initial)` when `initial` is given. Without it every policy
/// component stays [`PolicySet::none`] and the environments are exactly
/// [`crate::dataflow::analyze_refined`]'s.
pub(crate) fn schedule_facts(
    fc: &Flowchart,
    initial: Option<IndexSet>,
    values: &ValueFacts,
) -> ScheduleFacts {
    let sol = solve(
        fc,
        &MayTaint {
            scoped_pc: None,
            values: Some(values),
            sanctioned: None,
            initial,
        },
    );
    ScheduleFacts {
        at_entry: sol.facts,
        iterations: sol.iterations,
    }
}

/// Certifies the program for **every** policy schedule starting from
/// `allow(initial)`: each HALT's taint must be inside every policy state
/// that may be active there. Returns the offending indices on rejection.
pub fn certify_dynamic(fc: &Flowchart, initial: IndexSet) -> crate::certify::Certification {
    use crate::certify::Certification;
    let facts = analyze_schedules(fc, initial);
    let mut bad = IndexSet::empty();
    for h in fc.halts() {
        let t = facts.halt_taint(h);
        let ps = facts.policies_at(h);
        if !ps.admits(&t) {
            bad.union_with(&ps.excess(&t));
        }
    }
    if bad.is_empty() {
        Certification::Certified
    } else {
        Certification::Rejected { taint: bad }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::{certify, Analysis};
    use enf_flowchart::parse;

    fn dynamic_ok(src: &str, initial: IndexSet) -> bool {
        certify_dynamic(&parse(src).unwrap(), initial).is_certified()
    }

    #[test]
    fn policy_set_join_is_a_semilattice() {
        let a = IndexSet::single(1);
        let b = IndexSet::single(2);
        let mut s = PolicySet::just(a);
        assert!(s.join_from(&PolicySet::just(b)));
        assert_eq!(s, PolicySet::These(vec![a, b]));
        assert!(!s.join_from(&PolicySet::just(a)), "idempotent");
        assert!(s.join_from(&PolicySet::Any));
        assert!(s.is_any());
        assert!(!s.join_from(&PolicySet::just(b)), "top absorbs");
    }

    #[test]
    fn policy_set_admits_under_any_only_empty() {
        assert!(PolicySet::Any.admits(&IndexSet::empty()));
        assert!(!PolicySet::Any.admits(&IndexSet::single(1)));
        let s = PolicySet::These(vec![IndexSet::single(1), IndexSet::full(2)]);
        assert!(s.admits(&IndexSet::single(1)));
        assert!(!s.admits(&IndexSet::single(2)), "must hold for every state");
    }

    #[test]
    fn mid_run_setpolicy_certified_dynamically() {
        // The separation program: the final policy allows x1, and the
        // setpolicy dominates every halt — certified even though the
        // *initial* policy allows nothing.
        let src = "program(2) { r1 := x1; setpolicy allow(1); y := r1; }";
        assert!(dynamic_ok(src, IndexSet::empty()));
    }

    #[test]
    fn tightening_mid_run_policy_rejected() {
        // The release happens at HALT under the *tightened* policy.
        let src = "program(2) { y := x1 + x2; setpolicy allow(1); }";
        assert!(!dynamic_ok(src, IndexSet::full(2)));
    }

    #[test]
    fn slot_release_must_be_untainted() {
        // A slot box means any binding: only input-independent output
        // certifies.
        assert!(!dynamic_ok(
            "program(2) { setpolicy p1; y := x1; }",
            IndexSet::full(2)
        ));
        assert!(dynamic_ok(
            "program(2) { setpolicy p1; y := 3; }",
            IndexSet::empty()
        ));
    }

    #[test]
    fn branch_dependent_policy_checks_every_state() {
        // The halt may run under allow(1, 2) (else arm kept the initial
        // policy) or allow(1) (then arm tightened); the branch taints C̄
        // with {2}, which the tightened state rejects.
        let src = "program(2) { if x2 == 0 { setpolicy allow(1); } y := x1; }";
        assert!(!dynamic_ok(src, IndexSet::full(2)));
        let facts = analyze_schedules(&parse(src).unwrap(), IndexSet::full(2));
        let halt = parse(src).unwrap().halts()[0];
        assert_eq!(
            facts.policies_at(halt),
            &PolicySet::These(vec![IndexSet::single(1), IndexSet::full(2)])
        );
    }

    #[test]
    fn declassify_sanctions_the_release() {
        let src = "program(2) { r1 := x1; declassify(r1: 1 ~>); y := r1; }";
        assert!(dynamic_ok(src, IndexSet::empty()));
        // Without the declassification the same program must reject.
        let undeclassified = "program(2) { r1 := x1; y := r1; }";
        assert!(!dynamic_ok(undeclassified, IndexSet::empty()));
    }

    #[test]
    fn declassify_does_not_erase_other_paths() {
        // x1 also reaches y directly; relabeling r1 sanctions nothing
        // about that second path.
        let src = "program(2) { r1 := x1; declassify(r1: 1 ~>); y := r1 + x1; }";
        assert!(!dynamic_ok(src, IndexSet::empty()));
    }

    #[test]
    fn policy_free_program_degenerates_to_value_refined() {
        for (src, j) in [
            ("program(2) { y := x2; }", IndexSet::single(2)),
            ("program(2) { y := x1; }", IndexSet::single(2)),
            (
                "program(2) { r1 := 0; if r1 == 0 { y := x2; } else { y := x1; } }",
                IndexSet::single(2),
            ),
            (
                "program(2) { if x1 == 1 { r1 := 1; } else { r1 := 2; } y := 1; }",
                IndexSet::single(2),
            ),
        ] {
            let fc = parse(src).unwrap();
            assert_eq!(
                certify_dynamic(&fc, j).is_certified(),
                certify(&fc, j, Analysis::ValueRefined).is_certified(),
                "{src}"
            );
        }
    }

    #[test]
    fn unreachable_policy_boxes_contribute_nothing() {
        // The slot box is behind a constant-false guard: the value
        // refinement prunes it, so the policy set stays {initial}.
        let src = "program(1) { r1 := 0; if r1 == 1 { setpolicy p1; } y := x1; }";
        assert!(dynamic_ok(src, IndexSet::single(1)));
    }

    #[test]
    fn rejection_names_the_offending_indices() {
        let src = "program(3) { y := x1 + x3; setpolicy allow(1); }";
        match certify_dynamic(&parse(src).unwrap(), IndexSet::full(3)) {
            crate::certify::Certification::Rejected { taint } => {
                assert_eq!(taint, IndexSet::single(3))
            }
            crate::certify::Certification::Certified => panic!("should reject"),
        }
    }
}
