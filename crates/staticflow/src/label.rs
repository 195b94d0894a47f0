//! The intransitive-flow certifier over first-class label policies
//! ([`enf_core::label`]).
//!
//! [`certify_lattice`] is the unwinding-style certifier (after Eggert et
//! al., "Complexity and Unwinding for Intransitive Noninterference"): a
//! `Secret` value may reach a sink readable at a lower clearance only
//! through a **sanctioned** `declassify` box on *every* carrying path.
//! Mechanically it is the value-refined may-taint problem of
//! [`crate::dataflow`] with the declassify transfer *gated* by a per-box
//! sanction map: a box relabels (`t ↦ (t \ from) ∪ to`) only when the flow
//! relation sanctions the step `⊔ label(from) ⇝ ⊔ label(to)`; an
//! unsanctioned box conservatively accumulates (`t ↦ t ∪ to`). Per-index
//! sets — not label joins — carry the path sensitivity: an index absent
//! from the halt taint has a mediating box on every path that could carry
//! it.
//!
//! The certifier is **strictly stricter** than the exhaustive lattice
//! oracle [`enf_core::check_soundness_lattice_with`], whose induced set
//! `J_c = { i : label(i) ⇝* c }` charges no mediation: a sink index
//! survives certification only if its label flows to the clearance
//! directly, and a sanctioned removal at label `l` with target `t ⊑ c`
//! witnesses `l ⇝* c`. Hence *certified ⇒ oracle-sound*, the containment
//! the workspace property tests pin on random labeled programs.

use crate::certify::Certification;
use crate::dataflow::MayTaint;
use crate::framework::solve;
use crate::value::analyze_values;
use enf_core::label::{Classification, IntransitiveFlow, Label};
use enf_core::IndexSet;
use enf_flowchart::ast::Var;
use enf_flowchart::graph::{Flowchart, Node};

/// Which `declassify` boxes the flow relation sanctions: one entry per
/// node, true exactly at Declassify nodes whose declared step
/// `⊔ label(from) ⇝ ⊔ label(to)` is a lattice descent or a single
/// release edge ([`IntransitiveFlow::may_step`]).
pub(crate) fn sanction_map<L: Label>(
    fc: &Flowchart,
    classification: &Classification<L>,
    flow: &IntransitiveFlow<L>,
) -> Vec<bool> {
    fc.iter()
        .map(|(_, node, _)| match node {
            Node::Declassify { from, to, .. } => {
                flow.may_step(&classification.join_of(from), &classification.join_of(to))
            }
            _ => false,
        })
        .collect()
}

/// Statically certifies a labeled program against a clearance: every
/// index that may reach a halt (through data, the program counter, or an
/// unsanctioned declassify) must carry a label that flows to the
/// clearance in the plain lattice order. Sanctioned `declassify` boxes
/// are the *only* way a higher label crosses down — which is exactly the
/// intransitive discipline: mediation on every carrying path.
///
/// Programs with `setpolicy` nodes additionally run the dynamic-policy
/// schedule certifier seeded with the induced allow-set
/// `J_c = { i : label(i) ⇝* c }`, so a mid-run policy change is judged
/// against the lattice state it starts from; the label check above still
/// applies, keeping the verdict sound for the fixed-clearance oracle.
///
/// Returns [`Certification::Rejected`] carrying the union of offending
/// indices over all halts.
pub fn certify_lattice<L: Label>(
    fc: &Flowchart,
    classification: &Classification<L>,
    flow: &IntransitiveFlow<L>,
    clearance: &L,
) -> Certification {
    assert_eq!(
        fc.arity(),
        classification.arity(),
        "program arity {} does not match labeling arity {}",
        fc.arity(),
        classification.arity()
    );
    let values = analyze_values(fc);
    let sanctioned = sanction_map(fc, classification, flow);
    let sol = solve(
        fc,
        &MayTaint {
            scoped_pc: None,
            values: Some(&values),
            sanctioned: Some(&sanctioned),
            initial: None,
        },
    );

    let mut offending = IndexSet::empty();
    for h in fc.halts() {
        let env = &sol.facts[h.0].env;
        let taint = env.get(Var::Out).union(&env.pc);
        for i in taint.iter() {
            if !classification.label(i).flows_to(clearance) {
                offending.insert(i);
            }
        }
    }

    // Mid-run policy installation: the schedule certifier judges each
    // halt against every policy that can govern it, starting from the
    // lattice-induced initial allow-set.
    if fc
        .iter()
        .any(|(_, node, _)| matches!(node, Node::SetPolicy { .. }))
    {
        let initial = classification.readable_allow(flow, clearance);
        if let Certification::Rejected { taint } = crate::schedule::certify_dynamic(fc, initial) {
            offending.union_with(&taint);
        }
    }

    if offending.is_empty() {
        Certification::Certified
    } else {
        Certification::Rejected { taint: offending }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enf_core::label::Level;
    use enf_flowchart::{parse, parse_labeled};

    #[test]
    fn certify_lattice_accepts_password_release_everywhere() {
        let lp = enf_flowchart::corpus::password_release_labeled();
        for c in Level::ALL {
            assert!(
                certify_lattice(&lp.flowchart, &lp.classification, &lp.flow, &c).is_certified(),
                "clearance {c:?}"
            );
        }
    }

    #[test]
    fn unsanctioned_declassify_does_not_launder() {
        // Same shape as password_release, but no release edge: the box is
        // unsanctioned, x1's taint survives, certification fails below
        // Secret.
        let lp = parse_labeled(
            "program(2)
             labels { x1: secret; }
             { r1 := ite(x1 == x2, 1, 0); declassify(r1: 1 ~>); y := r1; }",
        )
        .unwrap();
        let v = certify_lattice(
            &lp.flowchart,
            &lp.classification,
            &lp.flow,
            &Level::Unclassified,
        );
        assert_eq!(v.taint(), Some(IndexSet::single(1)));
        assert!(
            certify_lattice(&lp.flowchart, &lp.classification, &lp.flow, &Level::Secret)
                .is_certified()
        );
    }

    #[test]
    fn unmediated_secret_flow_rejected_despite_release_edge() {
        // The edge alone sanctions nothing: without a declassify box on
        // the carrying path, y := x1 must still be rejected at a public
        // clearance — the path-sensitivity transitive label-join cannot
        // see.
        let lp = parse_labeled(
            "program(2)
             labels { x1: secret; flow secret ~> unclassified; }
             { y := x1; }",
        )
        .unwrap();
        let v = certify_lattice(
            &lp.flowchart,
            &lp.classification,
            &lp.flow,
            &Level::Unclassified,
        );
        assert!(!v.is_certified());
        // The exhaustive oracle, judging only the induced J_c, accepts —
        // the certifier is strictly stricter, never the other way.
        assert!(lp
            .classification
            .readable_allow(&lp.flow, &Level::Unclassified)
            .contains(1));
    }

    #[test]
    fn certification_is_monotone_in_clearance() {
        let lp = parse_labeled(
            "program(3)
             labels { x1: topsecret; x2: secret; x3: confidential; }
             { y := x1 + x2 + x3; }",
        )
        .unwrap();
        let mut certified_seen = false;
        for c in Level::ALL {
            let v = certify_lattice(&lp.flowchart, &lp.classification, &lp.flow, &c);
            if certified_seen {
                assert!(v.is_certified(), "lost certification going up at {c:?}");
            }
            certified_seen = v.is_certified();
        }
        assert!(certified_seen, "topsecret clearance must certify");
    }

    #[test]
    fn setpolicy_programs_run_the_schedule_certifier() {
        // policy_upgrade copies a secret input under an initial policy
        // that denies it, then installs allow(1) before release: the
        // schedule certifier accepts, and with x1 labeled unclassified
        // the label check does too.
        let fc = parse("program(2) { r1 := x1; setpolicy allow(1); y := r1; }").unwrap();
        let all_public = Classification::public(2);
        assert!(certify_lattice(
            &fc,
            &all_public,
            &IntransitiveFlow::transitive(),
            &Level::Unclassified
        )
        .is_certified());
        // With x1 secret, the label check rejects at a public clearance
        // even though the schedule admits the release.
        let c = Classification::new(vec![Level::Secret, Level::Unclassified]);
        assert!(!certify_lattice(
            &fc,
            &c,
            &IntransitiveFlow::transitive(),
            &Level::Unclassified
        )
        .is_certified());
    }
}
