//! The may-taint dataflow analysis over the flowchart CFG: the one taint
//! problem behind every taint certifier in this crate.
//!
//! The paper's surveillance mechanism applies one rule per box: an
//! assignment sets `v̄ ← w̄ ∪ C̄`, a decision sets `C̄ ← C̄ ∪ p̄`, and a
//! `declassify(v: A ~> B)` box relabels `v̄ ← (v̄ \ A) ∪ B`. The dynamic
//! monitor and this analysis share that rule and its state:
//! [`TaintState::transfer`] is the transfer, a [`TaintState`] is the fact,
//! and one [`framework`](crate::framework) problem solves it with the
//! refinements each certifier already holds:
//!
//! * scoped-PC facts — [`PcDiscipline::Scoped`];
//! * value facts ([`crate::value`]) — [`analyze_refined`], and the
//!   schedule, lattice and lint passes;
//! * a per-box sanction map — [`crate::label::certify_lattice`], where an
//!   unsanctioned `declassify` box only accumulates `v̄ ← v̄ ∪ B`;
//! * an initial policy whose reachable [`PolicySet`] the fact tracks —
//!   [`crate::schedule`].
//!
//! The lint pass's must-taint analysis keeps its meet join and calls the
//! same transfer; the relational analysis keeps the same state under a
//! relational reading.
//!
//! Two program-counter disciplines, matching the two enforcement styles the
//! paper discusses:
//!
//! * [`PcDiscipline::Monotone`] — the faithful abstraction of the dynamic
//!   surveillance mechanism: like the paper's `C̄`, the PC taint only ever
//!   grows along a path. The resulting facts over-approximate every
//!   dynamic run, so "statically clean" implies "dynamically never
//!   violates" (the certification theorem tested in [`mod@crate::certify`]).
//! * [`PcDiscipline::Scoped`] — Denning & Denning-style certification: a
//!   decision's implicit flow covers exactly the nodes between the
//!   decision and its immediate postdominator (its control-dependence
//!   region). More permissive — it certifies Example 7's program — but
//!   termination- and timing-insensitive, the caveat the paper's
//!   observability postulate is about.
//!
//! [`analyze_refined`] is the monotone analysis restricted to the
//! executions the value analysis cannot rule out: value-unreachable nodes
//! contribute nothing and statically infeasible branch edges propagate no
//! fact — but PC taint still grows at every *reachable* decision (even a
//! constant one), because the dynamic `C̄` does too. That keeps the
//! refinement a strict over-approximation of every dynamic run, which is
//! what `Analysis::ValueRefined` in [`mod@crate::certify`] relies on.

use crate::framework::{solve, DataflowProblem};
use crate::schedule::{PolicySet, SchedFact};
use crate::value::ValueFacts;
use enf_core::IndexSet;
use enf_flowchart::analysis::{decision_targets, PostDominators};
use enf_flowchart::ast::Var;
use enf_flowchart::graph::{Flowchart, Node, NodeId};
use enf_surveillance::TaintState;
use std::collections::HashSet;

/// How implicit (program-counter) flows are scoped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PcDiscipline {
    /// PC taint never shrinks along a path — the paper's `C̄`.
    Monotone,
    /// PC taint of a decision applies only within its control-dependence
    /// region (up to the immediate postdominator).
    Scoped,
}

/// The result of the analysis.
#[derive(Clone, Debug)]
pub struct FlowFacts {
    /// Entry state per node (index = node id); under the monotone
    /// discipline its `pc` is the PC fact, under the scoped one it stays
    /// empty.
    pub at_entry: Vec<TaintState>,
    /// Scoped PC taint per node (empty sets under the monotone discipline,
    /// where `at_entry[n].pc` carries the PC fact instead).
    pub scoped_pc: Vec<IndexSet>,
    discipline: PcDiscipline,
}

impl FlowFacts {
    /// The effective PC taint at a node under the chosen discipline.
    pub fn pc_at(&self, n: NodeId) -> IndexSet {
        match self.discipline {
            PcDiscipline::Monotone => self.at_entry[n.0].pc,
            PcDiscipline::Scoped => self.scoped_pc[n.0],
        }
    }

    /// The static taint of the released output at a HALT node:
    /// `ȳ ∪ C̄` there.
    pub fn halt_taint(&self, halt: NodeId) -> IndexSet {
        self.at_entry[halt.0].get(Var::Out).union(&self.pc_at(halt))
    }

    /// The discipline the facts were computed under.
    pub fn discipline(&self) -> PcDiscipline {
        self.discipline
    }
}

/// The control-dependence region of a decision: nodes reachable from its
/// successors without passing through its immediate postdominator. When the
/// decision has no immediate postdominator (its branches never rejoin
/// before HALT), the region extends to everything reachable.
fn region(fc: &Flowchart, d: NodeId, ipdom: Option<NodeId>) -> HashSet<NodeId> {
    let mut seen = HashSet::new();
    let (t, e) = decision_targets(fc, d).expect("decision node");
    let mut stack = vec![t, e];
    while let Some(n) = stack.pop() {
        if Some(n) == ipdom || !seen.insert(n) {
            continue;
        }
        for s in fc.succ_list(n) {
            stack.push(s);
        }
    }
    seen
}

/// The control-dependence regions of every decision node.
fn regions(fc: &Flowchart) -> Vec<(NodeId, HashSet<NodeId>)> {
    let pd = PostDominators::compute(fc);
    fc.iter()
        .filter(|(_, node, _)| matches!(node, Node::Decision { .. }))
        .map(|(id, _, _)| (id, region(fc, id, pd.immediate(id))))
        .collect()
}

/// The may-taint problem every taint certifier solves: the surveillance
/// rule [`TaintState::transfer`] paired with the reachable policy states. Each
/// field is a refinement a certifier already holds; `None` leaves it out.
pub(crate) struct MayTaint<'a> {
    /// Per-node region PC taint ([`PcDiscipline::Scoped`]); `None` is the
    /// monotone `C̄`.
    pub(crate) scoped_pc: Option<&'a [IndexSet]>,
    /// Value facts: edges they prove infeasible, and every edge out of a
    /// value-unreachable node, transfer nothing.
    pub(crate) values: Option<&'a ValueFacts>,
    /// Per-node sanction verdicts: a `declassify` box relabels only where
    /// its entry is true. `None` sanctions every box.
    pub(crate) sanctioned: Option<&'a [bool]>,
    /// The initial policy `allow(J)` whose reachable states the fact
    /// tracks. `None` keeps the policy component at [`PolicySet::none`],
    /// which never allocates; the solver then first queues a node once
    /// some variable there is tainted, so a `declassify` box reached with
    /// every variable untainted adds nothing.
    pub(crate) initial: Option<IndexSet>,
}

impl DataflowProblem for MayTaint<'_> {
    type Fact = SchedFact;

    fn bottom(&self, fc: &Flowchart) -> SchedFact {
        SchedFact {
            env: TaintState::bottom(fc.arity(), fc.max_reg()),
            policies: PolicySet::none(),
        }
    }

    fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<SchedFact> {
        (n == fc.start()).then(|| SchedFact {
            env: TaintState::init(fc.arity(), fc.max_reg()),
            policies: self.initial.map_or_else(PolicySet::none, PolicySet::just),
        })
    }

    fn join(&self, into: &mut SchedFact, from: &SchedFact) -> bool {
        let e = into.env.join_from(&from.env);
        let p = into.policies.join_from(&from.policies);
        e || p
    }

    fn flow(
        &self,
        fc: &Flowchart,
        n: NodeId,
        edge: usize,
        _to: NodeId,
        fact: &SchedFact,
        out: &mut SchedFact,
    ) -> bool {
        if let Some(vf) = self.values {
            if !vf.edge_feasible(n, edge) {
                return false;
            }
        }
        out.clone_from(fact);
        let node = fc.node(n);
        out.env.transfer(
            node,
            self.scoped_pc.map(|pc| pc[n.0]),
            self.sanctioned.is_none_or(|s| s[n.0]),
        );
        if let (Node::SetPolicy { spec }, Some(_)) = (node, self.initial) {
            out.policies.install(spec);
        }
        true
    }
}

/// Solves [`MayTaint`] and, for the scoped discipline, iterates it against
/// the region-based scoped-PC facts until the pair reaches a joint fixed
/// point. Each round re-solves from ⊥ with the grown `scoped_pc`; since
/// both halves are monotone and start from the same seed, the result is
/// the least fixed point of the pair.
fn analyze_with(
    fc: &Flowchart,
    discipline: PcDiscipline,
    values: Option<&ValueFacts>,
) -> FlowFacts {
    let scoped = discipline == PcDiscipline::Scoped;
    let regions = if scoped { regions(fc) } else { Vec::new() };
    let mut scoped_pc: Vec<IndexSet> = vec![IndexSet::empty(); fc.len()];
    loop {
        let problem = MayTaint {
            scoped_pc: scoped.then_some(&scoped_pc[..]),
            values,
            sanctioned: None,
            initial: None,
        };
        let at_entry: Vec<TaintState> = solve(fc, &problem)
            .facts
            .into_iter()
            .map(|f| f.env)
            .collect();
        let mut changed = false;
        for (d, nodes) in &regions {
            let Node::Decision { pred } = fc.node(*d) else {
                unreachable!()
            };
            let t = at_entry[d.0].pred_taint(pred).union(&scoped_pc[d.0]);
            for m in nodes {
                let u = scoped_pc[m.0].union(&t);
                if u != scoped_pc[m.0] {
                    scoped_pc[m.0] = u;
                    changed = true;
                }
            }
        }
        if !changed {
            return FlowFacts {
                at_entry,
                scoped_pc,
                discipline,
            };
        }
    }
}

/// Runs the analysis to a fixed point.
pub fn analyze(fc: &Flowchart, discipline: PcDiscipline) -> FlowFacts {
    analyze_with(fc, discipline, None)
}

/// The monotone may-taint analysis refined by the value analysis: nodes
/// the value analysis proves unreachable contribute nothing (their entry
/// facts stay ⊥ = untainted) and statically infeasible branch edges
/// propagate no fact. PC taint still grows at every *reachable* decision,
/// constant or not, exactly as the dynamic `C̄` does — so these facts
/// remain an over-approximation of every dynamic run.
pub fn analyze_refined(fc: &Flowchart, values: &ValueFacts) -> FlowFacts {
    analyze_with(fc, PcDiscipline::Monotone, Some(values))
}

/// The implementations [`MayTaint`] replaced, kept verbatim as its
/// differential oracles: the pre-framework worklist behind [`analyze`],
/// the sanction-gated problem behind [`crate::label::certify_lattice`] and
/// the schedule problem behind [`crate::schedule::analyze_schedules`]. The
/// property at the end demands that the one problem reproduce each of them
/// node for node, and that `certify` give their verdicts.
#[cfg(test)]
mod oracles {
    use super::*;
    use crate::certify::{certify, Analysis, Certification};
    use crate::value::analyze_values;
    use enf_core::label::{Classification, IntransitiveFlow, Level};
    use enf_flowchart::generate::{random_flowchart, random_policy_flowchart, GenConfig, SplitMix};
    use enf_flowchart::graph::PolicySpec;
    use proptest::prelude::*;

    /// The helper the replaced implementations read expressions with.
    trait TaintOfVars {
        /// The union of the taints of the variables in `vars`.
        fn taint_of_vars(&self, vars: &[Var]) -> IndexSet;
    }

    impl TaintOfVars for TaintState {
        fn taint_of_vars(&self, vars: &[Var]) -> IndexSet {
            let mut t = IndexSet::empty();
            for v in vars {
                t.union_with(&self.get(*v));
            }
            t
        }
    }

    /// The pre-framework implementation, preserved verbatim as a regression
    /// oracle: the workspace proptests assert [`analyze`] and
    /// `analyze_reference` agree exactly on randomized flowcharts.
    pub fn analyze_reference(fc: &Flowchart, discipline: PcDiscipline) -> FlowFacts {
        let n = fc.len();
        let regs = fc.max_reg();
        let mut at_entry: Vec<TaintState> = vec![TaintState::bottom(fc.arity(), regs); n];
        at_entry[fc.start().0] = TaintState::init(fc.arity(), regs);

        // Precompute control-dependence regions for the scoped discipline.
        let regions: Vec<(NodeId, HashSet<NodeId>)> = if discipline == PcDiscipline::Scoped {
            regions(fc)
        } else {
            Vec::new()
        };

        let mut scoped_pc: Vec<IndexSet> = vec![IndexSet::empty(); n];
        // Outer loop: scoped PC facts feed the env transfer (assignments pick
        // up the PC) and env facts feed the PC (predicate taints); iterate the
        // pair to a joint fixed point. Everything only grows, so this
        // terminates.
        loop {
            // Inner worklist over the env facts.
            let mut work: Vec<NodeId> = (0..n).map(NodeId).collect();
            while let Some(id) = work.pop() {
                let node = fc.node(id);
                let mut out_env = at_entry[id.0].clone();
                match node {
                    Node::Start | Node::Halt => {}
                    Node::Assign { var, expr } => {
                        let pc_here = match discipline {
                            PcDiscipline::Monotone => out_env.pc,
                            PcDiscipline::Scoped => scoped_pc[id.0],
                        };
                        let t = out_env.taint_of_vars(&expr.vars()).union(&pc_here);
                        out_env.set(*var, t);
                    }
                    Node::Decision { pred } => {
                        if discipline == PcDiscipline::Monotone {
                            let t = out_env.taint_of_vars(&pred.vars());
                            out_env.pc.union_with(&t);
                        }
                    }
                    Node::SetPolicy { .. } => {}
                    Node::Declassify { var, from, to } => {
                        let t = out_env.get(*var);
                        out_env.set(*var, t.difference(from).union(to));
                    }
                }
                for s in fc.succ_list(id) {
                    if at_entry[s.0].join_from(&out_env) {
                        work.push(s);
                    }
                }
            }
            if discipline == PcDiscipline::Monotone {
                break;
            }
            // Recompute scoped PC from the (possibly grown) env facts.
            let mut changed = false;
            for (d, nodes) in &regions {
                let pred_vars = match fc.node(*d) {
                    Node::Decision { pred } => pred.vars(),
                    _ => unreachable!(),
                };
                let t = at_entry[d.0]
                    .taint_of_vars(&pred_vars)
                    .union(&scoped_pc[d.0]);
                for m in nodes {
                    let u = scoped_pc[m.0].union(&t);
                    if u != scoped_pc[m.0] {
                        scoped_pc[m.0] = u;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        FlowFacts {
            at_entry,
            scoped_pc,
            discipline,
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
        type Fact = TaintState;

        fn bottom(&self, fc: &Flowchart) -> Self::Fact {
            TaintState::bottom(fc.arity(), fc.max_reg())
        }

        fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<Self::Fact> {
            (n == fc.start()).then(|| TaintState::init(fc.arity(), fc.max_reg()))
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
            env: &mut Self::Fact,
        ) -> bool {
            if !self.values.reachable(n) || !self.values.edge_feasible(n, edge) {
                return false;
            }
            env.clone_from(fact);
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
            true
        }
    }

    /// The schedule analysis as a framework problem: the product of the
    /// value-refined may-taint transfer and the policy-state transfer.
    struct ScheduleProblem<'a> {
        initial: IndexSet,
        values: &'a ValueFacts,
    }

    impl DataflowProblem for ScheduleProblem<'_> {
        type Fact = SchedFact;

        fn bottom(&self, fc: &Flowchart) -> SchedFact {
            SchedFact {
                env: TaintState::bottom(fc.arity(), fc.max_reg()),
                policies: PolicySet::none(),
            }
        }

        fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<SchedFact> {
            (n == fc.start()).then(|| SchedFact {
                env: TaintState::init(fc.arity(), fc.max_reg()),
                policies: PolicySet::just(self.initial),
            })
        }

        fn join(&self, into: &mut SchedFact, from: &SchedFact) -> bool {
            let e = into.env.join_from(&from.env);
            let p = into.policies.join_from(&from.policies);
            e || p
        }

        fn flow(
            &self,
            fc: &Flowchart,
            n: NodeId,
            edge: usize,
            _to: NodeId,
            fact: &SchedFact,
            out: &mut SchedFact,
        ) -> bool {
            if !self.values.reachable(n) || !self.values.edge_feasible(n, edge) {
                return false;
            }
            out.clone_from(fact);
            match fc.node(n) {
                Node::Start | Node::Halt => {}
                Node::Assign { var, expr } => {
                    let t = out.env.taint_of_vars(&expr.vars()).union(&out.env.pc);
                    out.env.set(*var, t);
                }
                Node::Decision { pred } => {
                    let t = out.env.taint_of_vars(&pred.vars());
                    out.env.pc.union_with(&t);
                }
                Node::SetPolicy { spec } => {
                    out.policies = match spec {
                        PolicySpec::Concrete(s) => PolicySet::just(*s),
                        PolicySpec::Slot(_) => PolicySet::Any,
                    };
                }
                Node::Declassify { var, from, to } => {
                    let t = out.env.get(*var);
                    out.env.set(*var, t.difference(from).union(to));
                }
            }
            true
        }
    }

    /// A random subset of `{1, …, arity}`.
    fn random_set(rng: &mut SplitMix, arity: usize) -> IndexSet {
        IndexSet::from_bits(rng.below(1 << arity) << 1)
    }

    /// The union of `ȳ ∪ C̄ \ J` over every HALT.
    fn excess(
        fc: &Flowchart,
        halt_taint: impl Fn(NodeId) -> IndexSet,
        allowed: IndexSet,
    ) -> IndexSet {
        let mut bad = IndexSet::empty();
        for h in fc.halts() {
            bad.union_with(&halt_taint(h).difference(&allowed));
        }
        bad
    }

    fn verdict(bad: IndexSet) -> Certification {
        if bad.is_empty() {
            Certification::Certified
        } else {
            Certification::Rejected { taint: bad }
        }
    }

    /// `certify` as the replaced problems decided it, judged on the
    /// oracles' facts.
    fn certify_reference(fc: &Flowchart, allowed: IndexSet, analysis: Analysis) -> Certification {
        let values = analyze_values(fc);
        let sanctioned_excess = |sanctioned: &[bool], allowed: IndexSet| {
            let facts = solve(
                fc,
                &SanctionedTaint {
                    sanctioned,
                    values: &values,
                },
            )
            .facts;
            excess(
                fc,
                |h| facts[h.0].get(Var::Out).union(&facts[h.0].pc),
                allowed,
            )
        };
        let schedule_excess = |initial: IndexSet| {
            let facts = solve(
                fc,
                &ScheduleProblem {
                    initial,
                    values: &values,
                },
            )
            .facts;
            let mut bad = IndexSet::empty();
            for h in fc.halts() {
                let f = &facts[h.0];
                bad.union_with(&f.policies.excess(&f.env.get(Var::Out).union(&f.env.pc)));
            }
            bad
        };
        match analysis {
            Analysis::DynamicPolicy => verdict(schedule_excess(allowed)),
            Analysis::LatticeCertified => {
                let labeling = Classification::new(
                    (1..=fc.arity())
                        .map(|i| {
                            if allowed.contains(i) {
                                Level::Unclassified
                            } else {
                                Level::Secret
                            }
                        })
                        .collect(),
                );
                let flow = IntransitiveFlow::transitive();
                let sanctioned = crate::label::sanction_map(fc, &labeling, &flow);
                let mut bad = sanctioned_excess(&sanctioned, allowed);
                if fc
                    .iter()
                    .any(|(_, node, _)| matches!(node, Node::SetPolicy { .. }))
                {
                    bad.union_with(&schedule_excess(
                        labeling.readable_allow(&flow, &Level::Unclassified),
                    ));
                }
                verdict(bad)
            }
            _ if fc.has_policy_nodes() => verdict(IndexSet::full(fc.arity())),
            Analysis::Surveillance | Analysis::Scoped => {
                let d = if analysis == Analysis::Scoped {
                    PcDiscipline::Scoped
                } else {
                    PcDiscipline::Monotone
                };
                let facts = analyze_reference(fc, d);
                verdict(excess(fc, |h| facts.halt_taint(h), allowed))
            }
            // The replaced value-refined problem applied exactly the
            // sanctioned transfer at every box.
            Analysis::ValueRefined => verdict(sanctioned_excess(&vec![true; fc.len()], allowed)),
            Analysis::Relational => {
                let facts = crate::relational::analyze_relational_with(fc, &values);
                verdict(excess(fc, |h| facts.halt_disagreement(h), allowed))
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The one problem reproduces every oracle node for node — entry
        /// environments, scoped PC and policy sets — under both PC
        /// disciplines, with and without value facts, under random sanction
        /// maps and random initial policies, on plain and policy programs;
        /// and `certify` gives the oracles' verdict under all six analyses.
        #[test]
        fn one_taint_problem_matches_the_oracles(seed in 0u64..20_000, knobs in 0u64..1_000_000) {
            let cfg = GenConfig::default();
            let mut rng = SplitMix::new(knobs);
            for fc in [random_flowchart(seed, &cfg), random_policy_flowchart(seed, &cfg)] {
                for d in [PcDiscipline::Monotone, PcDiscipline::Scoped] {
                    let new = analyze(&fc, d);
                    let old = analyze_reference(&fc, d);
                    // The worklist processes every node once, so it fires a
                    // `declassify` box with a non-empty target even where
                    // the framework holds ⊥ (untainted, hence never queued).
                    // That is the one place the worklist and the framework
                    // part; the replaced framework problems and the one
                    // problem alike treat such a box as unreached.
                    let bottom = TaintState::bottom(fc.arity(), fc.max_reg());
                    let parted = fc.iter().any(|(n, node, _)| {
                        matches!(node, Node::Declassify { to, .. } if !to.is_empty())
                            && new.at_entry[n.0] == bottom
                    });
                    if parted {
                        continue;
                    }
                    prop_assert_eq!(&new.at_entry, &old.at_entry, "seed {} {:?}", seed, d);
                    prop_assert_eq!(&new.scoped_pc, &old.scoped_pc, "seed {} {:?}", seed, d);
                    for h in fc.halts() {
                        prop_assert_eq!(new.halt_taint(h), old.halt_taint(h));
                    }
                }

                let values = analyze_values(&fc);
                let every = vec![true; fc.len()];
                let old = solve(&fc, &SanctionedTaint { sanctioned: &every, values: &values });
                prop_assert_eq!(&analyze_refined(&fc, &values).at_entry, &old.facts, "seed {}", seed);
                let random: Vec<bool> = (0..fc.len()).map(|_| rng.below(2) == 0).collect();
                for sanctioned in [&every, &random] {
                    let new = solve(&fc, &MayTaint {
                        scoped_pc: None,
                        values: Some(&values),
                        sanctioned: Some(sanctioned),
                        initial: None,
                    });
                    let old = solve(&fc, &SanctionedTaint { sanctioned, values: &values });
                    prop_assert!(
                        new.facts.iter().map(|f| &f.env).eq(&old.facts),
                        "seed {}: sanction map {:?}", seed, sanctioned
                    );
                    prop_assert!(new.facts.iter().all(|f| f.policies == PolicySet::none()));
                }

                let initial = random_set(&mut rng, fc.arity());
                let new = crate::schedule::analyze_schedules_with(&fc, initial, &values);
                let old = solve(&fc, &ScheduleProblem { initial, values: &values });
                prop_assert_eq!(&new.at_entry, &old.facts, "seed {} from allow({})", seed, initial);
                prop_assert_eq!(new.iterations, old.iterations);

                let allowed = random_set(&mut rng, fc.arity());
                for a in Analysis::ALL {
                    prop_assert_eq!(
                        certify(&fc, allowed, a),
                        certify_reference(&fc, allowed, a),
                        "seed {} {:?} allow({})", seed, a, allowed
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enf_core::{Grid, InputDomain, V};
    use enf_flowchart::ast::{Expr, Pred};
    use enf_flowchart::generate::{random_flowchart, GenConfig};
    use enf_flowchart::graph::PolicySpec;
    use enf_flowchart::interp::Store;
    use enf_flowchart::parse;
    use enf_flowchart::stepper::{Monitor, Stepper};
    use enf_surveillance::dynamic::{SurvConfig, SurvOutcome};

    fn halts_taint(src: &str, d: PcDiscipline) -> IndexSet {
        let fc = parse(src).unwrap();
        let facts = analyze(&fc, d);
        let mut t = IndexSet::empty();
        for h in fc.halts() {
            t.union_with(&facts.halt_taint(h));
        }
        t
    }

    #[test]
    fn direct_flow_tracked() {
        let t = halts_taint("program(2) { y := x1 + x2; }", PcDiscipline::Monotone);
        assert_eq!(t, IndexSet::from_iter([1, 2]));
    }

    #[test]
    fn constants_untainted() {
        let t = halts_taint("program(2) { y := 7; }", PcDiscipline::Monotone);
        assert!(t.is_empty());
    }

    #[test]
    fn implicit_flow_tracked_under_both_disciplines() {
        let src = "program(1) { if x1 == 0 { y := 0; } else { y := 1; } }";
        assert_eq!(
            halts_taint(src, PcDiscipline::Monotone),
            IndexSet::single(1)
        );
        assert_eq!(halts_taint(src, PcDiscipline::Scoped), IndexSet::single(1));
    }

    #[test]
    fn monotone_pc_persists_past_join_scoped_does_not() {
        // Example 7's shape: the branch on x1 is over before y is set.
        let src = "program(2) { if x1 == 1 { r1 := 1; } else { r1 := 2; } y := 1; }";
        assert_eq!(
            halts_taint(src, PcDiscipline::Monotone),
            IndexSet::single(1),
            "monotone C̄ keeps the branch taint to HALT"
        );
        assert!(
            halts_taint(src, PcDiscipline::Scoped).is_empty(),
            "scoped PC ends at the join point"
        );
    }

    #[test]
    fn scoped_discipline_still_taints_inside_region() {
        // An assignment *inside* the branch picks up the PC taint and
        // carries it out through the data flow.
        let src = "program(2) { if x1 == 1 { r1 := 1; } else { r1 := 2; } y := r1; }";
        let t = halts_taint(src, PcDiscipline::Scoped);
        assert!(t.contains(1), "r1's branch taint must reach y: {t}");
    }

    #[test]
    fn loop_carried_taint_reaches_fixed_point() {
        // r2 picks up x1 only through the loop's data recurrence.
        let src = "program(2) {
            r1 := 3;
            while r1 > 0 { r2 := r2 + x1; r1 := r1 - 1; }
            y := r2;
        }";
        let t = halts_taint(src, PcDiscipline::Scoped);
        assert!(t.contains(1));
    }

    #[test]
    fn loop_guard_taints_body_in_both_disciplines() {
        let src = "program(1) { while x1 > 0 { x1 := x1 - 1; y := y + 1; } }";
        assert!(halts_taint(src, PcDiscipline::Monotone).contains(1));
        assert!(halts_taint(src, PcDiscipline::Scoped).contains(1));
    }

    #[test]
    fn scoped_loop_guard_influence_ends_after_loop() {
        // Assignments after the loop do not pick up the guard's taint.
        let src = "program(2) { while x1 > 0 { x1 := x1 - 1; } y := x2; }";
        let t = halts_taint(src, PcDiscipline::Scoped);
        assert_eq!(t, IndexSet::single(2));
        // Monotone keeps it.
        let t = halts_taint(src, PcDiscipline::Monotone);
        assert_eq!(t, IndexSet::from_iter([1, 2]));
    }

    #[test]
    fn nested_branch_taints_accumulate_in_region() {
        let src = "program(3) {
            if x1 == 0 {
                if x2 == 0 { y := 1; } else { y := 2; }
            } else { y := 3; }
        }";
        let t = halts_taint(src, PcDiscipline::Scoped);
        assert_eq!(t, IndexSet::from_iter([1, 2]));
    }

    #[test]
    fn framework_port_matches_reference_on_examples() {
        // The proptests cover random programs; keep a deterministic spot
        // check in the unit suite too.
        for src in [
            "program(2) { y := x1 + x2; }",
            "program(2) { if x1 == 1 { r1 := 1; } else { r1 := 2; } y := r1; }",
            "program(2) { while x1 > 0 { x1 := x1 - 1; } y := x2; }",
            "program(3) { if x1 == 0 { if x2 == 0 { y := 1; } else { y := 2; } } else { y := 3; } }",
        ] {
            let fc = parse(src).unwrap();
            for d in [PcDiscipline::Monotone, PcDiscipline::Scoped] {
                let new = analyze(&fc, d);
                let old = oracles::analyze_reference(&fc, d);
                assert_eq!(new.at_entry, old.at_entry, "{src} under {d:?}");
                assert_eq!(new.scoped_pc, old.scoped_pc, "{src} under {d:?}");
            }
        }
    }

    #[test]
    fn refined_analysis_drops_dead_arm_taint() {
        // The else arm (y := x1) is statically dead: plain monotone taints
        // y with {1, 2}, the refinement with {2} only. The branch on the
        // constant r1 contributes no PC taint either way (r1 is untainted).
        let src = "program(2) { r1 := 0; if r1 == 0 { y := x2; } else { y := x1; } }";
        let fc = parse(src).unwrap();
        let plain = analyze(&fc, PcDiscipline::Monotone);
        let values = crate::value::analyze_values(&fc);
        let refined = analyze_refined(&fc, &values);
        let mut plain_t = IndexSet::empty();
        let mut refined_t = IndexSet::empty();
        for h in fc.halts() {
            plain_t.union_with(&plain.halt_taint(h));
            refined_t.union_with(&refined.halt_taint(h));
        }
        assert_eq!(plain_t, IndexSet::from_iter([1, 2]));
        assert_eq!(refined_t, IndexSet::single(2));
    }

    #[test]
    fn refined_keeps_pc_taint_at_reachable_constant_decisions() {
        // x1 feeds r1; the decision on r1 is constant-true for every run,
        // but the dynamic C̄ still picks up r1's taint there — so must we.
        let src = "program(2) { r1 := x1 - x1; if r1 == 0 { y := 1; } else { y := 2; } }";
        let fc = parse(src).unwrap();
        let values = crate::value::analyze_values(&fc);
        let refined = analyze_refined(&fc, &values);
        let mut t = IndexSet::empty();
        for h in fc.halts() {
            t.union_with(&refined.halt_taint(h));
        }
        assert!(t.contains(1), "constant decision on tainted data: {t}");
    }

    /// Theorem 3's M, checked on entry to every box it executes: the
    /// running monitor's state — each variable and `C̄` — must lie inside
    /// that box's static entry fact.
    struct Covered<'a> {
        mechanism: enf_surveillance::TaintMonitor,
        facts: &'a FlowFacts,
        vars: Vec<Var>,
        seed: u64,
    }

    impl Monitor for Covered<'_> {
        type Outcome = SurvOutcome;

        fn on_step(&mut self, step: u64, at: NodeId, node: &Node) {
            let (run, fact) = (self.mechanism.taints(), &self.facts.at_entry[at.0]);
            for &v in &self.vars {
                assert!(
                    run.get(v).is_subset(&fact.get(v)),
                    "seed {}: step {step} at {at}: {v} dynamic {} ⊄ static {}",
                    self.seed,
                    run.get(v),
                    fact.get(v)
                );
            }
            assert!(
                run.pc.is_subset(&fact.pc),
                "seed {}: step {step} at {at}: C̄ dynamic {} ⊄ static {}",
                self.seed,
                run.pc,
                fact.pc
            );
            self.mechanism.on_step(step, at, node);
        }

        fn on_assign(&mut self, step: u64, at: NodeId, var: Var, expr: &Expr, store: &Store) {
            self.mechanism.on_assign(step, at, var, expr, store);
        }

        fn on_decision(
            &mut self,
            step: u64,
            at: NodeId,
            pred: &Pred,
            store: &Store,
        ) -> Option<SurvOutcome> {
            self.mechanism.on_decision(step, at, pred, store)
        }

        fn on_setpolicy(&mut self, step: u64, at: NodeId, spec: PolicySpec, store: &Store) {
            self.mechanism.on_setpolicy(step, at, spec, store);
        }

        fn on_declassify(
            &mut self,
            step: u64,
            at: NodeId,
            var: Var,
            from: IndexSet,
            to: IndexSet,
            store: &Store,
        ) {
            self.mechanism.on_declassify(step, at, var, from, to, store);
        }

        fn on_halt(&mut self, step: u64, at: NodeId, store: &Store) -> SurvOutcome {
            self.mechanism.on_halt(step, at, store)
        }

        fn on_fuel(&mut self, steps: u64) -> SurvOutcome {
            self.mechanism.on_fuel(steps)
        }
    }

    /// Runs `fc` on `input` under surveillance for `allow()`, asserting
    /// that `facts` cover the run's state at every executed box.
    fn run_covered(fc: &Flowchart, facts: &FlowFacts, input: &[V], seed: u64) -> SurvOutcome {
        let cfg = SurvConfig::surveillance(IndexSet::empty());
        let vars = (1..=fc.arity())
            .map(Var::Input)
            .chain((1..=fc.max_reg()).map(Var::Reg))
            .chain([Var::Out])
            .collect();
        let mut covered = Covered {
            mechanism: enf_surveillance::TaintMonitor::new(fc, cfg),
            facts,
            vars,
            seed,
        };
        Stepper::new(fc)
            .with_fuel(cfg.fuel)
            .run(input, &mut covered)
    }

    #[test]
    fn static_overapproximates_dynamic_surveillance() {
        // Monotone facts must cover every dynamic run's state at every box
        // it executes, and so its final taints.
        let cfg = GenConfig::default();
        for seed in 400..440 {
            let fc = random_flowchart(seed, &cfg);
            let facts = analyze(&fc, PcDiscipline::Monotone);
            // Dynamic runs: any violation taint must be inside the static
            // halt taint (checking at the HALT site).
            for a in Grid::hypercube(2, -1..=1).iter_inputs() {
                if let SurvOutcome::Violation { taint, site, .. } =
                    run_covered(&fc, &facts, &a, seed)
                {
                    let covered = facts.halt_taint(site);
                    assert!(
                        taint.is_subset(&covered),
                        "seed {seed}: dynamic {taint} ⊄ static {covered} at {site}"
                    );
                }
            }
        }
    }

    #[test]
    fn refined_overapproximates_dynamic_surveillance() {
        // The value-refined facts must *also* cover every dynamic run, box
        // by box.
        let cfg = GenConfig::default();
        for seed in 700..740 {
            let fc = random_flowchart(seed, &cfg);
            let values = crate::value::analyze_values(&fc);
            let facts = analyze_refined(&fc, &values);
            for a in Grid::hypercube(2, -1..=1).iter_inputs() {
                if let SurvOutcome::Violation { taint, site, .. } =
                    run_covered(&fc, &facts, &a, seed)
                {
                    let covered = facts.halt_taint(site);
                    assert!(
                        taint.is_subset(&covered),
                        "seed {seed}: dynamic {taint} ⊄ refined {covered} at {site}"
                    );
                }
            }
        }
    }
}
