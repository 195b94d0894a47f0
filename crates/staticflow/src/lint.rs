//! `flowlint`: structured static diagnostics over a flowchart program.
//!
//! A rejected certification today is a bare boolean; this pass turns the
//! analyses in this crate into *actionable* findings with node locations
//! and carrier chains:
//!
//! * `taint-leak` — a HALT whose value-refined static taint
//!   ([`crate::dataflow::analyze_refined`]) releases inputs outside the
//!   policy, with the static carrier chain (which assignments and branches
//!   the offending indices travel through) in the same rendering format as
//!   the dynamic [`mod@enf_surveillance::explain`] chains;
//! * `unreachable-node` — nodes no execution reaches, either structurally
//!   (no path from START) or because the value analysis
//!   ([`crate::value`]) proves every path infeasible;
//! * `constant-decision` — reachable decisions that always take the same
//!   branch;
//! * `dead-assignment` — assignments whose target is overwritten or
//!   ignored on every path to HALT (a backward liveness analysis, the one
//!   [`crate::framework`] instance that runs in the
//!   [`Direction::Backward`](crate::framework::Direction) mode);
//! * `always-violating` — HALTs where a *must*-taint analysis (meet over
//!   feasible paths, same transfer as the dynamic mechanism) proves every
//!   run reaching them violates the policy;
//! * `unused-declassify` — a reachable `declassify` box whose variable can
//!   never carry the `from` indices it claims to launder;
//! * `provable-leak` — the program *demonstrably* leaks: the relational
//!   certifier ([`crate::relational`]) rejects and the bounded witness
//!   search ([`mod@crate::refute`]) finds a replay-validated pair of
//!   `J`-agreeing inputs with different released outcomes, rendered as a
//!   two-event carrier chain (one event per run).
//!
//! [`lint`] produces a [`LintReport`] renderable for humans
//! ([`LintReport::render`]) or as JSON ([`LintReport::to_json`]); the
//! `enforce lint` subcommand exposes both. [`lint_labeled`] runs the same
//! pass against a label policy at a clearance, rendering label names into
//! every taint finding and its carrier chain.

use crate::dataflow::TaintEnv;
use crate::framework::{reverse_postorder, solve, DataflowProblem, Direction};
use crate::schedule::{schedule_facts, ScheduleFacts};
use crate::value::{analyze_values, AbsBool, ValueFacts};
use enf_core::label::{Classification, IntransitiveFlow, Level};
use enf_core::IndexSet;
use enf_flowchart::analysis::reachable;
use enf_flowchart::ast::Var;
use enf_flowchart::graph::{Flowchart, Node, NodeId};
use enf_flowchart::pretty::{declassify_to_string, expr_to_string, pred_to_string};
use enf_surveillance::explain::FlowEvent;
use std::collections::BTreeSet;
use std::fmt;

/// The kind of a finding.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LintKind {
    /// A node no execution reaches.
    UnreachableNode,
    /// A reachable decision that always takes the same branch.
    ConstantDecision,
    /// An assignment whose value is never observed.
    DeadAssignment,
    /// A HALT that every run reaching it violates the policy at.
    AlwaysViolating,
    /// A HALT whose static taint releases inputs outside the policy.
    TaintLeak,
    /// A replay-validated pair of `J`-agreeing runs with different
    /// released outcomes: the program provably leaks.
    ProvableLeak,
    /// A `setpolicy` box that installs the only policy state that can be
    /// active on entry to it — removing the box changes nothing.
    RedundantPolicyChange,
    /// A reachable `declassify` box that can never launder anything: the
    /// may-taint of its variable on entry is already disjoint from the
    /// `from` set, so the relabel removes nothing on any run.
    UnusedDeclassify,
}

impl LintKind {
    /// The stable kebab-case name used in human and JSON output.
    pub fn as_str(&self) -> &'static str {
        match self {
            LintKind::UnreachableNode => "unreachable-node",
            LintKind::ConstantDecision => "constant-decision",
            LintKind::DeadAssignment => "dead-assignment",
            LintKind::AlwaysViolating => "always-violating",
            LintKind::TaintLeak => "taint-leak",
            LintKind::ProvableLeak => "provable-leak",
            LintKind::RedundantPolicyChange => "redundant-policy-change",
            LintKind::UnusedDeclassify => "unused-declassify",
        }
    }
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Lint {
    /// What kind of finding this is.
    pub kind: LintKind,
    /// The node the finding is anchored at.
    pub site: NodeId,
    /// Human-readable, single-line description.
    pub message: String,
    /// Input indices released outside the policy (taint lints only).
    pub offending: IndexSet,
    /// Static carrier chain for `taint-leak`: the assignments and branches
    /// the offending indices travel through, in reverse-postorder
    /// (`step` = RPO position).
    pub chain: Vec<FlowEvent>,
}

/// Every finding for one program under one policy.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// The `allow(J)` policy the taint lints were computed against.
    pub allowed: IndexSet,
    /// The findings, ordered by site then kind.
    pub lints: Vec<Lint>,
}

impl LintReport {
    /// Whether no finding was produced.
    pub fn is_empty(&self) -> bool {
        self.lints.is_empty()
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        if self.lints.is_empty() {
            let _ = writeln!(s, "flowlint: no findings for allow({})", self.allowed);
            return s;
        }
        let _ = writeln!(
            s,
            "flowlint: {} finding(s) for allow({})",
            self.lints.len(),
            self.allowed
        );
        for l in &self.lints {
            let _ = writeln!(s, "[{}] at {}: {}", l.kind, l.site, l.message);
            if !l.chain.is_empty() {
                let _ = writeln!(s, "  carrier chain:");
                for e in &l.chain {
                    let _ = writeln!(s, "  {}", e.render_line());
                }
            }
        }
        s
    }

    /// Renders the report as JSON (stable key order, no trailing
    /// whitespace).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"allowed\": {},\n", json_set(&self.allowed)));
        s.push_str("  \"lints\": [");
        for (i, l) in self.lints.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\n");
            s.push_str(&format!("      \"kind\": \"{}\",\n", l.kind));
            s.push_str(&format!("      \"site\": {},\n", l.site.0));
            s.push_str(&format!(
                "      \"message\": \"{}\",\n",
                json_escape(&l.message)
            ));
            s.push_str(&format!(
                "      \"offending\": {},\n",
                json_set(&l.offending)
            ));
            s.push_str("      \"chain\": [");
            for (j, e) in l.chain.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "\n        {{\"step\": {}, \"site\": {}, \"what\": \"{}\", \"before\": {}, \"after\": {}}}",
                    e.step,
                    e.site.0,
                    json_escape(&e.what),
                    json_set(&e.before),
                    json_set(&e.after)
                ));
            }
            if !l.chain.is_empty() {
                s.push_str("\n      ");
            }
            s.push_str("]\n    }");
        }
        if !self.lints.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_set(set: &IndexSet) -> String {
    let items: Vec<String> = set.iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// A short human description of a node for lint messages.
fn describe(fc: &Flowchart, n: NodeId) -> String {
    match fc.node(n) {
        Node::Start => "START".to_string(),
        Node::Halt => "HALT".to_string(),
        Node::Assign { var, expr } => format!("assignment {var} := {}", expr_to_string(expr)),
        Node::Decision { pred } => format!("decision on {}", pred_to_string(pred)),
        Node::SetPolicy { spec } => format!("setpolicy {spec}"),
        Node::Declassify { var, from, to } => declassify_to_string(*var, from, to),
    }
}

/// Backward liveness: the fact at a node is the set of variables live on
/// entry; HALT nodes seed `{y}` (the released output is always observed).
struct Liveness;

impl DataflowProblem for Liveness {
    type Fact = BTreeSet<Var>;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self, _fc: &Flowchart) -> Self::Fact {
        BTreeSet::new()
    }

    fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<Self::Fact> {
        matches!(fc.node(n), Node::Halt).then(|| BTreeSet::from([Var::Out]))
    }

    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
        let before = into.len();
        into.extend(from.iter().copied());
        into.len() != before
    }

    /// `to` is the predecessor: the live-in set of `n` is (part of) the
    /// live-out set of `to`; apply `to`'s kill/gen to produce its live-in.
    fn flow(
        &self,
        fc: &Flowchart,
        _n: NodeId,
        _edge: usize,
        to: NodeId,
        fact: &Self::Fact,
    ) -> Option<Self::Fact> {
        let mut live = fact.clone();
        match fc.node(to) {
            Node::Assign { var, expr } => {
                live.remove(var);
                live.extend(expr.vars());
            }
            Node::Decision { pred } => {
                live.extend(pred.vars());
            }
            Node::Start | Node::Halt => {}
            // Policy boxes read labels, not values. A declassified variable
            // still holds its value afterwards, so liveness is unchanged.
            Node::SetPolicy { .. } | Node::Declassify { .. } => {}
        }
        Some(live)
    }
}

/// Must-taint: the meet (pointwise intersection) over all feasible paths
/// of the surveillance transfer. `None` is ⊥ ("no path found yet"); at the
/// fixed point a `Some` fact under-approximates the dynamic taint of
/// *every* run reaching the node, so a guaranteed policy excess at a HALT
/// means every run reaching it violates.
struct MustTaint<'a> {
    values: &'a ValueFacts,
}

impl DataflowProblem for MustTaint<'_> {
    type Fact = Option<TaintEnv>;

    fn bottom(&self, _fc: &Flowchart) -> Self::Fact {
        None
    }

    fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<Self::Fact> {
        (n == fc.start()).then(|| Some(TaintEnv::init(fc.arity(), fc.max_reg())))
    }

    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
        match (into.as_mut(), from) {
            (_, None) => false,
            (None, Some(f)) => {
                *into = Some(f.clone());
                true
            }
            (Some(i), Some(f)) => i.meet_from(f),
        }
    }

    fn flow(
        &self,
        fc: &Flowchart,
        n: NodeId,
        edge: usize,
        _to: NodeId,
        fact: &Self::Fact,
    ) -> Option<Self::Fact> {
        let env = fact.as_ref()?;
        if !self.values.edge_feasible(n, edge) {
            return None;
        }
        // The relabel is deterministic, so the may-taint transfer is the
        // dynamic one exactly, and the meet makes it a must-taint.
        let mut env = env.clone();
        env.transfer(fc.node(n), None, true);
        Some(Some(env))
    }
}

/// The static carrier chain: every assignment or branch (in reverse
/// postorder over reachable nodes) whose result taint carries at least one
/// offending index — the static analogue of
/// [`enf_surveillance::explain::Explanation::carrier_chain`], with the RPO
/// position standing in for the execution step. The before and after
/// taints are the entry fact and the shared transfer's result.
fn static_chain(
    fc: &Flowchart,
    facts: &ScheduleFacts,
    values: &ValueFacts,
    offending: &IndexSet,
) -> Vec<FlowEvent> {
    let order = reverse_postorder(fc);
    let mut events = Vec::new();
    for (pos, &n) in order.iter().enumerate() {
        if !values.reachable(n) {
            continue;
        }
        let node = fc.node(n);
        let (what, carrier) = match node {
            Node::Assign { var, expr } => {
                (format!("{var} := {}", expr_to_string(expr)), Some(*var))
            }
            Node::Decision { pred } => (format!("branch on {}", pred_to_string(pred)), None),
            _ => continue,
        };
        let env = &facts.at_entry[n.0].env;
        let mut out = env.clone();
        out.transfer(node, None, true);
        let (before, after) = match carrier {
            Some(var) => (env.get(var), out.get(var)),
            None => (env.pc, out.pc),
        };
        if after != before && !after.intersection(offending).is_empty() {
            events.push(FlowEvent {
                step: pos as u64,
                site: n,
                what,
                before,
                after,
            });
        }
    }
    events
}

/// Runs every lint over the program under an `allow(J)` policy.
pub fn lint(fc: &Flowchart, allowed: &IndexSet) -> LintReport {
    let values = analyze_values(fc);
    // One may-taint solve feeds every taint lint. Dynamic-policy programs
    // are judged against the set of policy states reachable from
    // `allow(J)`, not `allow(J)` alone, so there the solve tracks them;
    // that also keeps a reached node with all-untainted variables live,
    // so a `declassify` box there adds its target set as the run does.
    let dynamic = fc.has_policy_nodes();
    let taint = schedule_facts(fc, dynamic.then_some(*allowed), &values);
    let graph_reach = reachable(fc);
    let liveness = solve(fc, &Liveness);
    let must = solve(fc, &MustTaint { values: &values });

    let mut lints: Vec<Lint> = Vec::new();

    for (n, node, _) in fc.iter() {
        if n == fc.start() {
            continue;
        }
        // unreachable-node: structural or value-analysis unreachability.
        if !values.reachable(n) {
            let why = if graph_reach.contains(&n) {
                "the value analysis proves no execution reaches it"
            } else {
                "no path from START reaches it"
            };
            lints.push(Lint {
                kind: LintKind::UnreachableNode,
                site: n,
                message: format!("{} is unreachable: {}", describe(fc, n), why),
                offending: IndexSet::empty(),
                chain: Vec::new(),
            });
            continue;
        }
        match node {
            // constant-decision: a reachable decision with one feasible arm.
            Node::Decision { pred } => {
                let outcome = values.decision_outcome(fc, n);
                if let Some(AbsBool::True) | Some(AbsBool::False) = outcome {
                    let branch = if outcome == Some(AbsBool::True) {
                        "true"
                    } else {
                        "false"
                    };
                    lints.push(Lint {
                        kind: LintKind::ConstantDecision,
                        site: n,
                        message: format!(
                            "decision on {} always takes the {} branch",
                            pred_to_string(pred),
                            branch
                        ),
                        offending: IndexSet::empty(),
                        chain: Vec::new(),
                    });
                }
            }
            // dead-assignment: the target is not live out of the node.
            Node::Assign { var, expr } => {
                let mut live_out: BTreeSet<Var> = BTreeSet::new();
                for s in fc.succ_list(n) {
                    live_out.extend(liveness.fact(s).iter().copied());
                }
                if !live_out.contains(var) {
                    lints.push(Lint {
                        kind: LintKind::DeadAssignment,
                        site: n,
                        message: format!(
                            "assignment {var} := {} is dead: {var} is overwritten or unused on every path to HALT",
                            expr_to_string(expr)
                        ),
                        offending: IndexSet::empty(),
                        chain: Vec::new(),
                    });
                }
            }
            Node::Halt if dynamic => {
                // Dynamic policies: a release leaks when some reachable
                // policy state at this HALT denies part of its taint.
                let t = taint.halt_taint(n);
                let policies = taint.policies_at(n);
                if !policies.admits(&t) {
                    let offending = policies.excess(&t);
                    let chain = static_chain(fc, &taint, &values, &offending);
                    lints.push(Lint {
                        kind: LintKind::TaintLeak,
                        site: n,
                        message: format!(
                            "HALT may release inputs {} denied by a reachable policy \
                             state in {} (static taint {})",
                            offending, policies, t
                        ),
                        offending,
                        chain,
                    });
                }
            }
            Node::Halt => {
                // always-violating: the must-taint at this HALT already
                // exceeds the policy, so every run reaching it is aborted.
                if let Some(env) = must.fact(n) {
                    let guaranteed = env.get(Var::Out).union(&env.pc);
                    let excess = guaranteed.difference(allowed);
                    if !excess.is_empty() {
                        lints.push(Lint {
                            kind: LintKind::AlwaysViolating,
                            site: n,
                            message: format!(
                                "every run reaching this HALT carries taint {} and violates allow({})",
                                guaranteed, allowed
                            ),
                            offending: excess,
                            chain: Vec::new(),
                        });
                    }
                }
                // taint-leak: the may-taint at this HALT exceeds the policy.
                let t = taint.halt_taint(n);
                let offending = t.difference(allowed);
                if !offending.is_empty() {
                    let chain = static_chain(fc, &taint, &values, &offending);
                    lints.push(Lint {
                        kind: LintKind::TaintLeak,
                        site: n,
                        message: format!(
                            "HALT may release inputs {} outside allow({}) (static taint {})",
                            offending, allowed, t
                        ),
                        offending,
                        chain,
                    });
                }
            }
            // unused-declassify: the box's variable can never carry a
            // `from` index here (the may-taint over-approximates every
            // run's taint), so the relabel launders nothing.
            Node::Declassify { var, from, .. } => {
                let t = taint.at_entry[n.0].env.get(*var);
                if t.intersection(from).is_empty() {
                    lints.push(Lint {
                        kind: LintKind::UnusedDeclassify,
                        site: n,
                        message: format!(
                            "{} is unused: {var} can only carry taint {} here, \
                             which never meets the declassified set {}",
                            describe(fc, n),
                            t,
                            from
                        ),
                        offending: IndexSet::empty(),
                        chain: Vec::new(),
                    });
                }
            }
            Node::Start | Node::SetPolicy { .. } => {}
        }
    }

    if dynamic {
        lints.extend(redundant_policy_changes(fc, &taint, &values));
    } else if let Some(l) = provable_leak(fc, allowed) {
        // The relational refuter's observation model is fixed-policy, so
        // the provable-leak lint only applies to policy-free programs.
        lints.push(l);
    }

    lints.sort_by_key(|l| (l.site.0, l.kind));
    LintReport {
        allowed: *allowed,
        lints,
    }
}

/// Renders the labels of an index set as `x1: secret, x3: topsecret`.
fn label_list(classification: &Classification<Level>, set: &IndexSet) -> String {
    set.iter()
        .map(|i| format!("x{i}: {}", classification.label(i).name()))
        .collect::<Vec<_>>()
        .join(", ")
}

/// [`lint`] over a labeled program: the allow-set is the clearance's
/// induced `J_c = { i : label(i) ⇝* c }`, and every taint finding renders
/// the *label names* of its carriers — the message gains the labels of
/// the offending indices, and each carrier-chain event names the labels
/// it carries past that point.
pub fn lint_labeled(
    fc: &Flowchart,
    classification: &Classification<Level>,
    flow: &IntransitiveFlow<Level>,
    clearance: &Level,
) -> LintReport {
    let allowed = classification.readable_allow(flow, clearance);
    let mut report = lint(fc, &allowed);
    for l in &mut report.lints {
        if !l.offending.is_empty() {
            use std::fmt::Write as _;
            let _ = write!(l.message, " [{}]", label_list(classification, &l.offending));
        }
        for e in &mut l.chain {
            let carried = e.after.intersection(&l.offending);
            if !carried.is_empty() {
                use std::fmt::Write as _;
                let _ = write!(e.what, " [{}]", label_list(classification, &carried));
            }
        }
    }
    report
}

/// The `redundant-policy-change` lint: a reachable concrete `setpolicy`
/// box whose installed policy is already the *only* policy state that can
/// be active on entry — for every schedule and every path, the box is a
/// no-op. Slot boxes never fire (their binding is schedule-dependent), and
/// neither does a box reachable under two different states, even if one of
/// them matches.
fn redundant_policy_changes(
    fc: &Flowchart,
    facts: &ScheduleFacts,
    values: &ValueFacts,
) -> Vec<Lint> {
    use crate::schedule::PolicySet;
    use enf_flowchart::graph::PolicySpec;
    let mut out = Vec::new();
    for (n, node, _) in fc.iter() {
        let Node::SetPolicy {
            spec: PolicySpec::Concrete(s),
        } = node
        else {
            continue;
        };
        if !values.reachable(n) {
            continue;
        }
        if facts.policies_at(n) == &PolicySet::just(*s) {
            out.push(Lint {
                kind: LintKind::RedundantPolicyChange,
                site: n,
                message: format!(
                    "setpolicy allow({s}) is redundant: allow({s}) is already the only policy state on every path here"
                ),
                offending: IndexSet::empty(),
                chain: Vec::new(),
            });
        }
    }
    out
}

/// Search bound for the [`LintKind::ProvableLeak`] lint: the per-input
/// range of the refutation grid and the largest pair count worth
/// enumerating inside a lint pass.
const REFUTE_SPAN: enf_core::V = 2;
const REFUTE_FUEL: u64 = 10_000;
const REFUTE_MAX_PAIRS: usize = 1 << 20;

/// Runs the relational certify-then-refute pipeline and renders a found
/// witness pair as a two-event carrier chain (one event per run). Programs
/// whose pair domain exceeds the search bound produce no finding.
fn provable_leak(fc: &Flowchart, allowed: &IndexSet) -> Option<Lint> {
    use crate::refute::{verify, PairDomain, RelationalVerdict};
    use enf_core::{EvalConfig, Grid, InputDomain};
    use enf_flowchart::interp::{run, ExecConfig, ExecValue, Outcome};

    let grid = Grid::hypercube(fc.arity(), -REFUTE_SPAN..=REFUTE_SPAN);
    let pairs = PairDomain::new(&grid);
    if pairs.len_checked().is_none_or(|n| n > REFUTE_MAX_PAIRS) {
        return None;
    }
    let verdict = verify(fc, *allowed, &grid, REFUTE_FUEL, &EvalConfig::default());
    let RelationalVerdict::Leak { witness } = verdict else {
        return None;
    };
    // The disagreeing denied inputs are the demonstrated leak channel.
    let mut offending = IndexSet::empty();
    for i in 1..=fc.arity() {
        if !allowed.contains(i) && witness.a[i - 1] != witness.b[i - 1] {
            offending.union_with(&IndexSet::single(i));
        }
    }
    // One chain event per run, anchored at the halt that run reaches (a
    // diverging run is anchored at START, where it is still executing).
    let cfg = ExecConfig::with_fuel(REFUTE_FUEL);
    let mut site = fc.start();
    let mut chain = Vec::with_capacity(2);
    for (step, label, inputs, out) in [
        (0, "a", &witness.a, &witness.out_a),
        (1, "b", &witness.b, &witness.out_b),
    ] {
        let (at, what) = match run(fc, inputs, &cfg) {
            Outcome::Halted(h) => (
                h.halt,
                format!("run {label} on {inputs:?} halts with y = {out}"),
            ),
            Outcome::OutOfFuel => (fc.start(), format!("run {label} on {inputs:?} diverges")),
        };
        if matches!(out, ExecValue::Value(_)) {
            site = at;
        }
        chain.push(FlowEvent {
            step,
            site: at,
            what,
            before: IndexSet::empty(),
            after: offending,
        });
    }
    Some(Lint {
        kind: LintKind::ProvableLeak,
        site,
        message: format!(
            "inputs agreeing on allow({allowed}) provably release different outcomes: {} vs {}",
            witness.out_a, witness.out_b
        ),
        offending,
        chain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use enf_flowchart::parse;

    fn lints_of(src: &str, allowed: IndexSet) -> LintReport {
        lint(&parse(src).unwrap(), &allowed)
    }

    fn kinds(report: &LintReport) -> Vec<LintKind> {
        report.lints.iter().map(|l| l.kind).collect()
    }

    #[test]
    fn clean_program_has_no_findings() {
        let r = lints_of("program(1) { y := x1; }", IndexSet::single(1));
        assert!(r.is_empty(), "{:?}", kinds(&r));
        assert!(r.render().contains("no findings"));
    }

    #[test]
    fn taint_leak_reports_chain_in_rpo_order() {
        let r = lints_of("program(2) { r1 := x1; y := r1; }", IndexSet::single(2));
        // The unconditional leak also fires always-violating at the HALT
        // and is concrete enough for the refuter to prove.
        assert_eq!(
            kinds(&r),
            vec![
                LintKind::AlwaysViolating,
                LintKind::TaintLeak,
                LintKind::ProvableLeak
            ]
        );
        let leak = &r.lints[1];
        assert_eq!(leak.offending, IndexSet::single(1));
        let whats: Vec<&str> = leak.chain.iter().map(|e| e.what.as_str()).collect();
        assert_eq!(whats, vec!["r1 := x1", "y := r1"]);
        assert!(leak.chain[0].step < leak.chain[1].step);
        let rendered = r.render();
        assert!(rendered.contains("carrier chain:"), "{rendered}");
        assert!(rendered.contains("r1 := x1"), "{rendered}");
    }

    #[test]
    fn implicit_leak_chain_names_the_branch() {
        let r = lints_of(
            "program(1) { if x1 == 0 { y := 0; } else { y := 1; } }",
            IndexSet::empty(),
        );
        let leaks: Vec<&Lint> = r
            .lints
            .iter()
            .filter(|l| l.kind == LintKind::TaintLeak)
            .collect();
        assert!(!leaks.is_empty());
        assert!(leaks[0]
            .chain
            .iter()
            .any(|e| e.what.contains("branch on x1 == 0")));
    }

    #[test]
    fn constant_guard_yields_constant_decision_and_unreachable() {
        let r = lints_of(
            "program(2) { r1 := 0; if r1 == 0 { y := x2; } else { y := x1; } }",
            IndexSet::from_iter([1, 2]),
        );
        assert!(kinds(&r).contains(&LintKind::ConstantDecision), "{r:?}");
        assert!(kinds(&r).contains(&LintKind::UnreachableNode), "{r:?}");
        // The dead arm must not produce a taint leak: policy allows both
        // inputs anyway here, so no leak regardless; the refined dataflow
        // test covers taint exclusion.
        assert!(!kinds(&r).contains(&LintKind::TaintLeak));
    }

    #[test]
    fn dead_assignment_found_by_liveness() {
        let r = lints_of("program(1) { r1 := x1; y := 1; }", IndexSet::single(1));
        let dead: Vec<&Lint> = r
            .lints
            .iter()
            .filter(|l| l.kind == LintKind::DeadAssignment)
            .collect();
        assert_eq!(dead.len(), 1, "{r:?}");
        assert!(dead[0].message.contains("r1 :="), "{}", dead[0].message);
    }

    #[test]
    fn overwritten_output_is_dead() {
        let r = lints_of("program(1) { y := x1; y := 0; }", IndexSet::empty());
        let dead: Vec<&Lint> = r
            .lints
            .iter()
            .filter(|l| l.kind == LintKind::DeadAssignment)
            .collect();
        assert_eq!(dead.len(), 1);
        assert!(dead[0].message.contains("y := x1"));
    }

    #[test]
    fn always_violating_when_every_path_is_tainted() {
        let r = lints_of(
            "program(1) { if x1 == 0 { y := 1; } else { y := 2; } }",
            IndexSet::empty(),
        );
        assert!(kinds(&r).contains(&LintKind::AlwaysViolating), "{r:?}");
        // Allowing input 1 clears it.
        let ok = lints_of(
            "program(1) { if x1 == 0 { y := 1; } else { y := 2; } }",
            IndexSet::single(1),
        );
        assert!(!kinds(&ok).contains(&LintKind::AlwaysViolating), "{ok:?}");
    }

    #[test]
    fn may_leak_without_must_violation_is_not_always_violating() {
        // Only the x2 == 0 path leaks x1; the meet over paths is clean.
        let r = lints_of(
            "program(2) { if x2 == 0 { y := x1; } else { y := 0; } }",
            IndexSet::single(2),
        );
        assert!(kinds(&r).contains(&LintKind::TaintLeak), "{r:?}");
        assert!(!kinds(&r).contains(&LintKind::AlwaysViolating), "{r:?}");
    }

    #[test]
    fn json_output_is_well_formed_enough() {
        let r = lints_of("program(2) { r1 := x1; y := r1; }", IndexSet::single(2));
        let json = r.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"kind\": \"taint-leak\""));
        assert!(json.contains("\"offending\": [1]"));
        assert!(json.contains("\"what\": \"r1 := x1\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
    }

    #[test]
    fn json_escapes_control_and_quote_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn provable_leak_renders_the_witness_pair() {
        let r = lints_of(
            "program(2) { if x1 > 0 { y := 1; } else { y := 2; } }",
            IndexSet::single(2),
        );
        let leaks: Vec<&Lint> = r
            .lints
            .iter()
            .filter(|l| l.kind == LintKind::ProvableLeak)
            .collect();
        assert_eq!(leaks.len(), 1, "{r:?}");
        let l = leaks[0];
        assert_eq!(l.offending, IndexSet::single(1));
        assert_eq!(l.chain.len(), 2);
        assert!(l.chain[0].what.starts_with("run a on"), "{:?}", l.chain);
        assert!(l.chain[1].what.starts_with("run b on"), "{:?}", l.chain);
        let rendered = r.render();
        assert!(rendered.contains("provable-leak"), "{rendered}");
        assert!(
            rendered.contains("provably release different outcomes"),
            "{rendered}"
        );
    }

    #[test]
    fn provable_leak_absent_when_relational_certifies() {
        // cancelling: rejected by every one-run analysis, certified
        // relationally — taint lints may fire elsewhere but no leak proof
        // must be claimed.
        let r = lints_of("program(1) { y := x1 - x1; }", IndexSet::empty());
        assert!(!kinds(&r).contains(&LintKind::ProvableLeak), "{r:?}");
    }

    #[test]
    fn provable_leak_absent_when_no_witness_on_grid() {
        // Rejected statically but constant on the searched [-2, 2] grid.
        let r = lints_of("program(1) { y := x1 / 3; }", IndexSet::empty());
        assert!(kinds(&r).contains(&LintKind::TaintLeak), "{r:?}");
        assert!(!kinds(&r).contains(&LintKind::ProvableLeak), "{r:?}");
    }

    #[test]
    fn provable_leak_reports_divergence_difference() {
        let r = lints_of(
            "program(1) { while x1 > 0 { r1 := r1 + 1; } y := 0; }",
            IndexSet::empty(),
        );
        let leaks: Vec<&Lint> = r
            .lints
            .iter()
            .filter(|l| l.kind == LintKind::ProvableLeak)
            .collect();
        assert_eq!(leaks.len(), 1, "{r:?}");
        assert!(
            leaks[0].chain.iter().any(|e| e.what.contains("diverges")),
            "{:?}",
            leaks[0].chain
        );
    }

    #[test]
    fn redundant_policy_change_flags_the_noop_box() {
        // The second setpolicy re-installs the state the first one already
        // made the only possibility.
        let r = lints_of(
            "program(1) { setpolicy allow(1); r1 := x1; setpolicy allow(1); y := r1; }",
            IndexSet::empty(),
        );
        let redundant: Vec<&Lint> = r
            .lints
            .iter()
            .filter(|l| l.kind == LintKind::RedundantPolicyChange)
            .collect();
        assert_eq!(redundant.len(), 1, "{r:?}");
        assert!(
            redundant[0].message.contains("redundant"),
            "{}",
            redundant[0].message
        );
    }

    #[test]
    fn initial_policy_makes_the_first_box_redundant() {
        // With the lint's allowed set as the initial policy, a setpolicy
        // re-installing it is a no-op too.
        let r = lints_of(
            "program(1) { setpolicy allow(1); y := x1; }",
            IndexSet::single(1),
        );
        assert!(
            kinds(&r).contains(&LintKind::RedundantPolicyChange),
            "{r:?}"
        );
    }

    #[test]
    fn policy_change_not_redundant_when_states_differ() {
        let programs = [
            // Actually changes the policy.
            "program(1) { setpolicy allow(1); y := x1; setpolicy allow(); }",
            // Reachable under two states (initial allow() on the else path).
            "program(2) { if x2 == 0 { setpolicy allow(1); } setpolicy allow(1); y := 0; }",
        ];
        for src in programs {
            let r = lints_of(src, IndexSet::empty());
            let redundant = r
                .lints
                .iter()
                .filter(|l| l.kind == LintKind::RedundantPolicyChange)
                .count();
            // The first program's boxes both change state; the second's
            // inner box is reachable under {allow(), allow(1)}.
            assert_eq!(redundant, 0, "{src}: {r:?}");
        }
    }

    #[test]
    fn slot_boxes_are_never_redundant() {
        let r = lints_of(
            "program(1) { setpolicy p1; y := 0; setpolicy p1; }",
            IndexSet::empty(),
        );
        assert!(
            !kinds(&r).contains(&LintKind::RedundantPolicyChange),
            "{r:?}"
        );
    }

    #[test]
    fn unused_declassify_flags_the_pointless_box() {
        // r1 only ever carries x1, but the box claims to launder x2.
        let r = lints_of(
            "program(2) { r1 := x1; declassify(r1: 2 ~>); y := r1; }",
            IndexSet::full(2),
        );
        let unused: Vec<&Lint> = r
            .lints
            .iter()
            .filter(|l| l.kind == LintKind::UnusedDeclassify)
            .collect();
        assert_eq!(unused.len(), 1, "{r:?}");
        assert!(
            unused[0].message.contains("never meets"),
            "{}",
            unused[0].message
        );
        // A box that can launder is not flagged.
        let ok = lints_of(
            "program(2) { r1 := x1; declassify(r1: 1 ~>); y := r1; }",
            IndexSet::full(2),
        );
        assert!(!kinds(&ok).contains(&LintKind::UnusedDeclassify), "{ok:?}");
    }

    #[test]
    fn unused_declassify_respects_value_refinement() {
        // The x1-carrying arm is provably dead, so the box never sees
        // taint {1} and is flagged.
        let r = lints_of(
            "program(2) { r1 := 0; if r1 == 0 { r2 := x2; } else { r2 := x1; } \
             declassify(r2: 1 ~>); y := r2; }",
            IndexSet::full(2),
        );
        assert!(kinds(&r).contains(&LintKind::UnusedDeclassify), "{r:?}");
    }

    #[test]
    fn dynamic_leak_chain_comes_from_the_same_solve() {
        // After `x1 := 0` no variable is tainted, yet the declassify box
        // adds {1} to r1 on every run. The chain is drawn from the solve
        // that finds the leak, so it names the carrier.
        let r = lints_of(
            "program(1) { x1 := 0; declassify(r1: 1 ~> 1); y := r1; }",
            IndexSet::empty(),
        );
        let leak = r
            .lints
            .iter()
            .find(|l| l.kind == LintKind::TaintLeak)
            .expect("taint leak");
        assert_eq!(leak.offending, IndexSet::single(1));
        let whats: Vec<&str> = leak.chain.iter().map(|e| e.what.as_str()).collect();
        assert_eq!(whats, vec!["y := r1"]);
    }

    #[test]
    fn labeled_lint_renders_label_names() {
        use enf_core::label::{Classification, IntransitiveFlow, Level};
        let fc = parse("program(2) { r1 := x1; y := r1 + x2; }").unwrap();
        let c = Classification::new(vec![Level::Secret, Level::Unclassified]);
        let r = lint_labeled(
            &fc,
            &c,
            &IntransitiveFlow::transitive(),
            &Level::Unclassified,
        );
        // The induced allow at the bottom clearance is {2}; x1 leaks.
        assert_eq!(r.allowed, IndexSet::single(2));
        let leak = r
            .lints
            .iter()
            .find(|l| l.kind == LintKind::TaintLeak)
            .expect("taint leak");
        assert!(leak.message.contains("x1: secret"), "{}", leak.message);
        assert!(
            leak.chain.iter().any(|e| e.what.contains("[x1: secret]")),
            "{:?}",
            leak.chain
        );
        // A clearance above every label induces the full allow: no leak.
        let clean = lint_labeled(&fc, &c, &IntransitiveFlow::transitive(), &Level::Secret);
        assert!(!kinds(&clean).contains(&LintKind::TaintLeak), "{clean:?}");
    }

    #[test]
    fn labeled_lint_honors_release_edges() {
        use enf_core::label::Level;
        let lp = enf_flowchart::corpus::password_release_labeled();
        let r = lint_labeled(
            &lp.flowchart,
            &lp.classification,
            &lp.flow,
            &Level::Unclassified,
        );
        // The edge closes the induced allow over secret ~> unclassified,
        // so the fixed-policy taint lints see allow(1, 2) and stay quiet.
        assert_eq!(r.allowed, IndexSet::full(2));
        assert!(!kinds(&r).contains(&LintKind::TaintLeak), "{r:?}");
    }

    #[test]
    fn always_violating_agrees_with_exhaustive_runs() {
        // On random programs: if the lint fires for every reachable HALT,
        // then no input in the grid is accepted by dynamic surveillance.
        use enf_core::{Grid, InputDomain};
        use enf_flowchart::generate::{random_flowchart, GenConfig};
        use enf_surveillance::dynamic::{run_surveillance, SurvConfig, SurvOutcome};
        let gen = GenConfig::default();
        for seed in 100..160u64 {
            let fc = random_flowchart(seed, &gen);
            let allowed = IndexSet::single(1);
            let report = lint(&fc, &allowed);
            let values = analyze_values(&fc);
            let halts: Vec<NodeId> = fc
                .halts()
                .into_iter()
                .filter(|h| values.reachable(*h))
                .collect();
            let violating: Vec<NodeId> = report
                .lints
                .iter()
                .filter(|l| l.kind == LintKind::AlwaysViolating)
                .map(|l| l.site)
                .collect();
            if halts.is_empty() || violating.len() != halts.len() {
                continue;
            }
            let cfg = SurvConfig::surveillance(allowed);
            for a in Grid::hypercube(2, -2..=2).iter_inputs() {
                let out = run_surveillance(&fc, &a, &cfg);
                assert!(
                    !matches!(out, SurvOutcome::Accepted { .. }),
                    "seed {seed}: always-violating program accepted {a:?}"
                );
            }
        }
    }
}
