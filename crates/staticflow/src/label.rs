//! Lattice-generic label dataflow and the intransitive-flow certifier.
//!
//! Two static layers over first-class label policies
//! ([`enf_core::label`]), both running on the monotone
//! [`framework`](crate::framework):
//!
//! * [`analyze_labels`] — the lattice generalization of the boolean
//!   may-taint analysis: every variable carries a *label join* `⊔ᵢ Lᵢ`
//!   instead of an index set. On two-point lattices (`Unclassified` /
//!   `Secret`) it collapses to exactly the taint analysis, which the
//!   differential tests keep as an oracle.
//! * [`certify_lattice`] — the unwinding-style certifier (after Eggert et
//!   al., "Complexity and Unwinding for Intransitive Noninterference"): a
//!   `Secret` value may reach a sink readable at a lower clearance only
//!   through a **sanctioned** `declassify` box on *every* carrying path.
//!   Mechanically this is the value-refined may-taint analysis with the
//!   declassify transfer *gated*: a box relabels (`t ↦ (t \ from) ∪ to`)
//!   only when the flow relation sanctions the step
//!   `⊔ label(from) ⇝ ⊔ label(to)`; an unsanctioned box conservatively
//!   accumulates (`t ↦ t ∪ to`). Per-index sets — not label joins — carry
//!   the path sensitivity: an index absent from the halt taint has a
//!   mediating box on every path that could carry it.
//!
//! The certifier is **strictly stricter** than the exhaustive lattice
//! oracle [`enf_core::check_soundness_lattice_with`], whose induced set
//! `J_c = { i : label(i) ⇝* c }` charges no mediation: a sink index
//! survives certification only if its label flows to the clearance
//! directly, and a sanctioned removal at label `l` with target `t ⊑ c`
//! witnesses `l ⇝* c`. Hence *certified ⇒ oracle-sound*, the containment
//! the workspace property tests pin on random labeled programs.

use crate::certify::Certification;
use crate::framework::{solve, DataflowProblem, Solution};
use crate::value::{analyze_values, ValueFacts};
use enf_core::label::{Classification, IntransitiveFlow, Label};
use enf_core::IndexSet;
use enf_flowchart::ast::Var;
use enf_flowchart::graph::{Flowchart, Node, NodeId};

/// A labeling of every variable at one program point: the lattice twin of
/// [`TaintEnv`](crate::dataflow::TaintEnv), with index sets replaced by
/// label joins.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LabelEnv<L: Label> {
    inputs: Vec<L>,
    regs: Vec<L>,
    out: L,
    /// Monotone program-counter label — the lattice `C̄`.
    pub pc: L,
}

impl<L: Label> LabelEnv<L> {
    fn bottom(arity: usize, regs: usize) -> Self {
        LabelEnv {
            inputs: vec![L::bottom(); arity],
            regs: vec![L::bottom(); regs],
            out: L::bottom(),
            pc: L::bottom(),
        }
    }

    fn init(classification: &Classification<L>, regs: usize) -> Self {
        LabelEnv {
            inputs: classification.labels().to_vec(),
            regs: vec![L::bottom(); regs],
            out: L::bottom(),
            pc: L::bottom(),
        }
    }

    /// The label of a variable in this environment.
    pub fn get(&self, var: Var) -> L {
        match var {
            Var::Input(i) => self.inputs[i - 1].clone(),
            Var::Reg(j) => self.regs.get(j - 1).cloned().unwrap_or_else(L::bottom),
            Var::Out => self.out.clone(),
        }
    }

    fn set(&mut self, var: Var, l: L) {
        match var {
            Var::Input(i) => self.inputs[i - 1] = l,
            Var::Reg(j) => {
                if j > self.regs.len() {
                    self.regs.resize(j, L::bottom());
                }
                self.regs[j - 1] = l;
            }
            Var::Out => self.out = l,
        }
    }

    fn join_from(&mut self, other: &LabelEnv<L>) -> bool {
        let mut changed = false;
        let mut up = |a: &mut L, b: &L| {
            let u = a.join(b);
            if u != *a {
                *a = u;
                changed = true;
            }
        };
        for (j, b) in other.inputs.iter().enumerate() {
            up(&mut self.inputs[j], b);
        }
        if other.regs.len() > self.regs.len() {
            self.regs.resize(other.regs.len(), L::bottom());
        }
        for (j, b) in other.regs.iter().enumerate() {
            up(&mut self.regs[j], b);
        }
        up(&mut self.out, &other.out);
        up(&mut self.pc, &other.pc);
        changed
    }

    /// The join of the labels of the given variables — `⊥` for none.
    pub fn label_of_vars(&self, vars: &[Var]) -> L {
        vars.iter()
            .fold(L::bottom(), |acc, v| acc.join(&self.get(*v)))
    }
}

/// The label-join analysis as a framework problem. The program-counter
/// discipline is monotone (the faithful `C̄` abstraction); declassify
/// boxes relabel to the join of their declared `to` provenance when the
/// flow relation sanctions the step from the variable's *current* label,
/// and conservatively accumulate otherwise.
struct LabelFlow<'a, L: Label> {
    classification: &'a Classification<L>,
    flow: &'a IntransitiveFlow<L>,
}

impl<L: Label> DataflowProblem for LabelFlow<'_, L> {
    type Fact = LabelEnv<L>;

    fn bottom(&self, fc: &Flowchart) -> LabelEnv<L> {
        LabelEnv::bottom(fc.arity(), fc.max_reg())
    }

    fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<LabelEnv<L>> {
        (n == fc.start()).then(|| LabelEnv::init(self.classification, fc.max_reg()))
    }

    fn join(&self, into: &mut LabelEnv<L>, from: &LabelEnv<L>) -> bool {
        into.join_from(from)
    }

    fn flow(
        &self,
        fc: &Flowchart,
        n: NodeId,
        _edge: usize,
        _to: NodeId,
        fact: &LabelEnv<L>,
    ) -> Option<LabelEnv<L>> {
        let mut env = fact.clone();
        match fc.node(n) {
            Node::Start | Node::Halt => {}
            Node::Assign { var, expr } => {
                let l = env.label_of_vars(&expr.vars()).join(&env.pc);
                env.set(*var, l);
            }
            Node::Decision { pred } => {
                let l = env.label_of_vars(&pred.vars());
                env.pc = env.pc.join(&l);
            }
            Node::SetPolicy { .. } => {}
            Node::Declassify { var, from: _, to } => {
                let target = self.classification.join_of(to);
                let current = env.get(*var);
                if self.flow.may_step(&current, &target) {
                    env.set(*var, target);
                } else {
                    env.set(*var, current.join(&target));
                }
            }
        }
        Some(env)
    }
}

/// The result of [`analyze_labels`].
#[derive(Clone, Debug)]
pub struct LabelFacts<L: Label> {
    /// Entry environment per node (index = node id).
    pub at_entry: Vec<LabelEnv<L>>,
}

impl<L: Label> LabelFacts<L> {
    /// The label of the released output at a HALT node: `label(y) ⊔ C̄`.
    pub fn halt_label(&self, halt: NodeId) -> L {
        let env = &self.at_entry[halt.0];
        env.get(Var::Out).join(&env.pc)
    }
}

/// Runs the lattice-generic label-join analysis to a fixed point.
///
/// On the two-point lattice this is exactly the monotone may-taint
/// analysis — `halt_label ⊑ clearance ⟺ halt_taint ⊆ J_c` — which the
/// differential tests keep pinned for declassify-free programs (a
/// sanctioned declassify *subtracts* indices, which a pure join cannot
/// express; the index-based [`certify_lattice`] pass owns that case).
pub fn analyze_labels<L: Label>(
    fc: &Flowchart,
    classification: &Classification<L>,
    flow: &IntransitiveFlow<L>,
) -> LabelFacts<L> {
    assert_eq!(
        fc.arity(),
        classification.arity(),
        "program arity {} does not match labeling arity {}",
        fc.arity(),
        classification.arity()
    );
    let sol: Solution<LabelEnv<L>> = solve(
        fc,
        &LabelFlow {
            classification,
            flow,
        },
    );
    LabelFacts {
        at_entry: sol.facts,
    }
}

/// The sanction-gated may-taint analysis: value-refined monotone taint
/// facts in which a `declassify(x: from ~> to)` box relabels
/// (`t ↦ (t \ from) ∪ to`) **only** when the flow relation sanctions the
/// single step `⊔ label(from) ⇝ ⊔ label(to)` (empty `to` targets `⊥`).
/// An unsanctioned box accumulates `t ↦ t ∪ to` — it launders nothing.
struct SanctionedTaint<'a> {
    /// Per-node sanction verdicts (true only at sanctioned Declassify
    /// nodes).
    sanctioned: &'a [bool],
    values: &'a ValueFacts,
}

impl DataflowProblem for SanctionedTaint<'_> {
    type Fact = crate::dataflow::TaintEnv;

    fn bottom(&self, fc: &Flowchart) -> Self::Fact {
        crate::dataflow::TaintEnv::bottom(fc.arity(), fc.max_reg())
    }

    fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<Self::Fact> {
        (n == fc.start()).then(|| crate::dataflow::TaintEnv::init(fc.arity(), fc.max_reg()))
    }

    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
        into.join_from(from)
    }

    fn flow(
        &self,
        fc: &Flowchart,
        n: NodeId,
        edge: usize,
        _to: NodeId,
        fact: &Self::Fact,
    ) -> Option<Self::Fact> {
        if !self.values.reachable(n) || !self.values.edge_feasible(fc, n, edge) {
            return None;
        }
        let mut env = fact.clone();
        match fc.node(n) {
            Node::Start | Node::Halt => {}
            Node::Assign { var, expr } => {
                let t = env.taint_of_vars(&expr.vars()).union(&env.pc);
                env.set(*var, t);
            }
            Node::Decision { pred } => {
                let t = env.taint_of_vars(&pred.vars());
                env.pc.union_with(&t);
            }
            Node::SetPolicy { .. } => {}
            Node::Declassify { var, from, to } => {
                let t = env.get(*var);
                if self.sanctioned[n.0] {
                    env.set(*var, t.difference(from).union(to));
                } else {
                    env.set(*var, t.union(to));
                }
            }
        }
        Some(env)
    }
}

/// Which `declassify` boxes the flow relation sanctions: one entry per
/// node, true exactly at Declassify nodes whose declared step
/// `⊔ label(from) ⇝ ⊔ label(to)` is a lattice descent or a single
/// release edge ([`IntransitiveFlow::may_step`]).
fn sanction_map<L: Label>(
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
    let sol: Solution<crate::dataflow::TaintEnv> = solve(
        fc,
        &SanctionedTaint {
            sanctioned: &sanctioned,
            values: &values,
        },
    );

    let mut offending = IndexSet::empty();
    for h in fc.halts() {
        let env = &sol.facts[h.0];
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
    use crate::dataflow::{analyze, PcDiscipline};
    use enf_core::label::Level;
    use enf_flowchart::{parse, parse_labeled};

    fn levels(allowed: IndexSet, k: usize) -> Classification<Level> {
        Classification::new(
            (1..=k)
                .map(|i| {
                    if allowed.contains(i) {
                        Level::Unclassified
                    } else {
                        Level::Secret
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn label_join_collapses_to_taint_on_two_point_lattice() {
        for src in [
            "program(2) { y := x1 + x2; }",
            "program(2) { if x1 == 1 { r1 := 1; } else { r1 := 2; } y := r1; }",
            "program(2) { while x1 > 0 { x1 := x1 - 1; } y := x2; }",
            "program(2) { r1 := 0; if r1 == 0 { y := x2; } else { y := x1; } }",
        ] {
            let fc = parse(src).unwrap();
            for allowed in [
                IndexSet::empty(),
                IndexSet::single(1),
                IndexSet::single(2),
                IndexSet::full(2),
            ] {
                let c = levels(allowed, 2);
                let labels = analyze_labels(&fc, &c, &IntransitiveFlow::transitive());
                let taints = analyze(&fc, PcDiscipline::Monotone);
                for h in fc.halts() {
                    let clean_by_label = labels.halt_label(h).flows_to(&Level::Unclassified);
                    let clean_by_taint = taints.halt_taint(h).is_subset(&allowed);
                    assert_eq!(
                        clean_by_label, clean_by_taint,
                        "{src} under allow({allowed})"
                    );
                }
            }
        }
    }

    #[test]
    fn label_analysis_tracks_implicit_flows() {
        let fc = parse("program(2) { if x1 == 0 { y := 0; } else { y := 1; } }").unwrap();
        let c = Classification::new(vec![Level::Secret, Level::Unclassified]);
        let facts = analyze_labels(&fc, &c, &IntransitiveFlow::transitive());
        for h in fc.halts() {
            assert_eq!(facts.halt_label(h), Level::Secret);
        }
    }

    #[test]
    fn sanctioned_declassify_lowers_the_label() {
        let lp = parse_labeled(
            "program(2)
             labels { x1: secret; flow secret ~> unclassified; }
             { r1 := ite(x1 == x2, 1, 0); declassify(r1: 1 ~>); y := r1; }",
        )
        .unwrap();
        let facts = analyze_labels(&lp.flowchart, &lp.classification, &lp.flow);
        for h in lp.flowchart.halts() {
            assert_eq!(facts.halt_label(h), Level::Unclassified);
        }
    }

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
