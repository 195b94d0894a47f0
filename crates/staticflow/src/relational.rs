//! Relational (self-composition) agreement analysis.
//!
//! The paper's soundness condition for `allow(J)` is a *2-safety*
//! property: `M` is sound iff it is constant on every equivalence class of
//! `I`, i.e. every statement about it quantifies over **pairs** of runs.
//! The taint analyses in [`crate::dataflow`] approximate this one-sidedly,
//! by tracking which inputs may *influence* a value. This module analyses
//! the product program directly: it runs one dataflow pass whose abstract
//! state describes **two** executions of the same flowchart on inputs that
//! agree exactly on `J`, tracking per-variable *disagreement sources* — the
//! set of inputs whose (possible) disagreement between the two runs may
//! make the variable differ.
//!
//! The fact is the same [`TaintEnv`] powerset environment the may-taint
//! analysis uses, but its reading is relational: `x ↦ {i}` means "the two
//! runs' values of `x` may differ, and only because input `i` differs".
//! Seeding every input `i` with `{i}` and checking the halt fact against
//! `J` at the end is exactly the relational statement — sources inside `J`
//! are discharged by the agreement assumption, sources outside it are
//! potential leaks.
//!
//! What makes this strictly sharper than the value-refined may-taint
//! analysis is the *relational expression evaluation* ([`RelVal`]): an
//! expression whose two evaluations provably coincide contributes **no**
//! disagreement even when it reads disagreeing variables. `h - h` is the
//! canonical case: both runs compute 0, so the assignment `y := h - h`
//! transfers the empty source set, and the corpus program `cancelling` is
//! certified. Interval facts from [`crate::value`] feed the same rule: any
//! sub-expression the value analysis pins to a constant evaluates equal in
//! both runs by definition.
//!
//! The program-counter discipline is monotone, exactly as in the
//! surveillance abstraction: once the two runs may take different branches
//! (a decision with non-empty predicate disagreement), the PC fact grows
//! and never shrinks, and every later assignment — and every later HALT —
//! absorbs it. That makes certification *termination-sensitive*: a clean
//! halt fact proves the two runs execute in lockstep all the way, so they
//! release equal values **and** have identical divergence behaviour. This
//! is the invariant `certify(…, Analysis::Relational)` relies on and the
//! differential proptests check against `check_soundness`.

use crate::dataflow::TaintEnv;
use crate::framework::{solve, DataflowProblem, Solution};
use crate::value::{analyze_values, AbsBool, ValueEnv, ValueFacts};
use enf_core::{IndexSet, V};
use enf_flowchart::ast::{Expr, Pred, Var};
use enf_flowchart::graph::{Flowchart, Node, NodeId};

/// The relational abstract value of one expression: either a constant both
/// runs provably compute, or the set of inputs whose disagreement may make
/// the two runs' values differ (empty = the runs agree, value unknown).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RelVal {
    /// Both runs evaluate the expression to exactly this value.
    Const(V),
    /// The runs' values may differ only due to these disagreement sources.
    Sources(IndexSet),
}

impl RelVal {
    /// The disagreement sources (empty for constants).
    pub fn sources(&self) -> IndexSet {
        match self {
            RelVal::Const(_) => IndexSet::empty(),
            RelVal::Sources(s) => *s,
        }
    }

    fn as_const(&self) -> Option<V> {
        match self {
            RelVal::Const(c) => Some(*c),
            RelVal::Sources(_) => None,
        }
    }
}

/// Folds a binary operation on two constants with the interpreter's exact
/// total semantics (wrapping arithmetic, `x / 0 = x % 0 = 0`).
fn fold(e: &Expr, a: V, b: V) -> V {
    match e {
        Expr::Add(..) => a.wrapping_add(b),
        Expr::Sub(..) => a.wrapping_sub(b),
        Expr::Mul(..) => a.wrapping_mul(b),
        Expr::Div(..) => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        Expr::Mod(..) => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        Expr::BOr(..) => a | b,
        Expr::BAnd(..) => a & b,
        _ => unreachable!("fold is only called on binary operators"),
    }
}

/// Relationally evaluates an expression: the two runs' stores are described
/// by `env` (disagreement sources per variable) and, when the node is
/// value-reachable, `values` (the single-run interval facts — sound for
/// *both* runs, so a pinned constant implies agreement).
pub fn rel_eval(env: &TaintEnv, values: Option<&ValueEnv>, e: &Expr) -> RelVal {
    // Interval pinning first: a sub-expression the value analysis proves
    // constant evaluates to that constant in every run, hence in both.
    if let Some(venv) = values {
        if let Some(c) = venv.eval(e).as_const() {
            return RelVal::Const(c);
        }
    }
    match e {
        Expr::Const(c) => RelVal::Const(*c),
        Expr::Var(v) => RelVal::Sources(env.get(*v)),
        Expr::Neg(a) => match rel_eval(env, values, a) {
            RelVal::Const(c) => RelVal::Const(c.wrapping_neg()),
            s => s,
        },
        Expr::Add(a, b) | Expr::BOr(a, b) => binop(env, values, e, a, b),
        Expr::Sub(a, b) | Expr::Mod(a, b) if a == b => {
            // x - x = 0 and x % x = 0 (also for x = 0 under the total
            // semantics) *within each run*, whatever the runs disagree on.
            RelVal::Const(0)
        }
        Expr::Sub(a, b) | Expr::Mod(a, b) => binop(env, values, e, a, b),
        Expr::Mul(a, b) | Expr::BAnd(a, b) => {
            let ra = rel_eval(env, values, a);
            let rb = rel_eval(env, values, b);
            // An annihilator on either side fixes the result in both runs.
            if ra.as_const() == Some(0) || rb.as_const() == Some(0) {
                return RelVal::Const(0);
            }
            combine(e, ra, rb)
        }
        Expr::Div(a, b) => {
            let ra = rel_eval(env, values, a);
            let rb = rel_eval(env, values, b);
            // 0 / x = 0 for every x (including 0) and x / 0 = 0 under the
            // interpreter's total semantics.
            if ra.as_const() == Some(0) || rb.as_const() == Some(0) {
                return RelVal::Const(0);
            }
            combine(e, ra, rb)
        }
        Expr::Ite(p, t, el) => {
            if let Some(venv) = values {
                match venv.eval_pred(p) {
                    AbsBool::True => return rel_eval(env, values, t),
                    AbsBool::False => return rel_eval(env, values, el),
                    AbsBool::Maybe => {}
                }
            }
            let rt = rel_eval(env, values, t);
            let re = rel_eval(env, values, el);
            // Equal constant arms make the condition irrelevant.
            if rt == re {
                if let RelVal::Const(c) = rt {
                    return RelVal::Const(c);
                }
            }
            let mut s = pred_sources(env, values, p);
            s.union_with(&rt.sources());
            s.union_with(&re.sources());
            RelVal::Sources(s)
        }
    }
}

/// Relational transfer of a binary operator without algebraic shortcuts:
/// fold two constants concretely, otherwise union the sources.
fn binop(env: &TaintEnv, values: Option<&ValueEnv>, e: &Expr, a: &Expr, b: &Expr) -> RelVal {
    let ra = rel_eval(env, values, a);
    let rb = rel_eval(env, values, b);
    combine(e, ra, rb)
}

fn combine(e: &Expr, ra: RelVal, rb: RelVal) -> RelVal {
    match (ra.as_const(), rb.as_const()) {
        (Some(x), Some(y)) => RelVal::Const(fold(e, x, y)),
        _ => {
            let mut s = ra.sources();
            s.union_with(&rb.sources());
            RelVal::Sources(s)
        }
    }
}

/// The disagreement sources of a predicate's truth value: empty means both
/// runs provably take the same branch.
pub fn pred_sources(env: &TaintEnv, values: Option<&ValueEnv>, p: &Pred) -> IndexSet {
    if let Some(venv) = values {
        // A value-decided predicate has the same outcome in every run.
        if venv.eval_pred(p) != AbsBool::Maybe {
            return IndexSet::empty();
        }
    }
    match p {
        Pred::True | Pred::False => IndexSet::empty(),
        Pred::Cmp(_, a, b) => {
            if a == b {
                // `x ⋈ x` has a fixed truth value per run, independent of x.
                return IndexSet::empty();
            }
            let mut s = rel_eval(env, values, a).sources();
            s.union_with(&rel_eval(env, values, b).sources());
            s
        }
        Pred::Not(inner) => pred_sources(env, values, inner),
        Pred::And(a, b) | Pred::Or(a, b) => {
            let mut s = pred_sources(env, values, a);
            s.union_with(&pred_sources(env, values, b));
            s
        }
    }
}

/// The self-composition analysis as a framework problem. Value-unreachable
/// nodes and infeasible branch edges transfer nothing, exactly as in
/// [`crate::dataflow::analyze_refined`].
struct RelAgree<'a> {
    values: &'a ValueFacts,
}

impl DataflowProblem for RelAgree<'_> {
    type Fact = TaintEnv;

    fn bottom(&self, fc: &Flowchart) -> TaintEnv {
        TaintEnv::bottom(fc.arity(), fc.max_reg())
    }

    fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<TaintEnv> {
        // Input i may disagree between the two runs iff i ∉ J; seeding
        // {i} everywhere and subtracting J at the halt check is the same
        // statement (sources only ever accumulate by union).
        (n == fc.start()).then(|| TaintEnv::init(fc.arity(), fc.max_reg()))
    }

    fn join(&self, into: &mut TaintEnv, from: &TaintEnv) -> bool {
        into.join_from(from)
    }

    fn flow(
        &self,
        fc: &Flowchart,
        n: NodeId,
        edge: usize,
        _to: NodeId,
        fact: &TaintEnv,
    ) -> Option<TaintEnv> {
        if !self.values.edge_feasible(n, edge) {
            return None;
        }
        let venv = self.values.env_at[n.0].as_ref();
        let mut env = fact.clone();
        match fc.node(n) {
            Node::Start | Node::Halt => {}
            Node::Assign { var, expr } => {
                // Under possibly-diverged control (non-empty PC sources)
                // the assignment may happen in one run only, so the target
                // absorbs the PC disagreement regardless of the RHS.
                let mut t = rel_eval(&env, venv, expr).sources();
                t.union_with(&env.pc);
                env.set(*var, t);
            }
            Node::Decision { pred } => {
                // Monotone PC: once the runs may split, everything
                // downstream (including which HALT is reached, and whether
                // one is reached at all) may differ.
                let s = pred_sources(&env, venv, pred);
                env.pc.union_with(&s);
            }
            // Policy boxes don't move data. Ignoring declassify's relabel
            // only *over*-approximates disagreement (a relabel can never
            // make two runs' stores differ), which keeps "provably
            // non-interfering" sound.
            Node::SetPolicy { .. } | Node::Declassify { .. } => {}
        }
        Some(env)
    }
}

/// The fixed point of the relational analysis.
#[derive(Clone, Debug)]
pub struct RelFacts {
    /// Entry environment per node (index = node id); variables map to
    /// disagreement sources.
    pub at_entry: Vec<TaintEnv>,
    /// Transfer applications performed before convergence.
    pub iterations: usize,
}

impl RelFacts {
    /// The disagreement sources of the observable behaviour at a HALT:
    /// the released `y` plus the control disagreement that decides whether
    /// this HALT is reached at all.
    pub fn halt_disagreement(&self, halt: NodeId) -> IndexSet {
        self.at_entry[halt.0]
            .get(Var::Out)
            .union(&self.at_entry[halt.0].pc)
    }
}

/// Runs the relational analysis, computing the value facts internally.
pub fn analyze_relational(fc: &Flowchart) -> RelFacts {
    analyze_relational_with(fc, &analyze_values(fc))
}

/// Runs the relational analysis against precomputed value facts.
pub fn analyze_relational_with(fc: &Flowchart, values: &ValueFacts) -> RelFacts {
    let sol: Solution<TaintEnv> = solve(fc, &RelAgree { values });
    RelFacts {
        at_entry: sol.facts,
        iterations: sol.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::{analyze_refined, PcDiscipline};
    use enf_flowchart::parse;

    fn halts_disagreement(src: &str) -> IndexSet {
        let fc = parse(src).unwrap();
        let facts = analyze_relational(&fc);
        let mut t = IndexSet::empty();
        for h in fc.halts() {
            t.union_with(&facts.halt_disagreement(h));
        }
        t
    }

    #[test]
    fn direct_flow_still_tracked() {
        assert_eq!(
            halts_disagreement("program(2) { y := x1 + x2; }"),
            IndexSet::from_iter([1, 2])
        );
    }

    #[test]
    fn self_cancellation_is_agreement() {
        // The tentpole separating example: y := h - h.
        assert!(halts_disagreement("program(1) { y := x1 - x1; }").is_empty());
        assert!(halts_disagreement("program(1) { y := x1 % x1; }").is_empty());
        assert!(halts_disagreement("program(1) { y := (x1 - x1) * x1; }").is_empty());
        assert!(halts_disagreement("program(1) { y := 0 * x1; }").is_empty());
        assert!(halts_disagreement("program(1) { y := x1 & 0; }").is_empty());
        assert!(halts_disagreement("program(1) { y := 0 / x1; }").is_empty());
    }

    #[test]
    fn self_comparison_predicates_do_not_split_control() {
        // x1 == x1 decides the same way in both runs.
        assert!(
            halts_disagreement("program(1) { if x1 == x1 { y := 1; } else { y := 2; } }")
                .is_empty()
        );
    }

    #[test]
    fn division_by_self_is_not_cancelled() {
        // x / x is 1 for x ≠ 0 but 0 for x = 0 — genuinely input-dependent.
        assert_eq!(
            halts_disagreement("program(1) { y := x1 / x1; }"),
            IndexSet::single(1)
        );
    }

    #[test]
    fn branch_disagreement_is_termination_sensitive() {
        // Once the runs may split, the PC fact reaches every halt.
        assert_eq!(
            halts_disagreement("program(1) { if x1 > 0 { y := 1; } else { y := 2; } }"),
            IndexSet::single(1)
        );
        assert_eq!(
            halts_disagreement("program(1) { while x1 > 0 { x1 := x1 - 1; } y := 0; }"),
            IndexSet::single(1)
        );
    }

    #[test]
    fn interval_pinning_discharges_constant_guards() {
        // The constant_guard shape: value analysis pins r1 = 0, so the
        // decision cannot split the runs and the dead arm contributes
        // nothing.
        assert_eq!(
            halts_disagreement("program(2) { r1 := 0; if r1 == 0 { y := x2; } else { y := x1; } }"),
            IndexSet::single(2)
        );
    }

    #[test]
    fn relational_refines_value_refined_on_random_programs() {
        // The relational halt fact must be a subset of the value-refined
        // may-taint halt fact on every program: rel_eval only removes
        // sources relative to the variable union, everything else is the
        // same transfer.
        use enf_flowchart::generate::{random_flowchart, GenConfig};
        let cfg = GenConfig::default();
        for seed in 0..400 {
            let fc = random_flowchart(seed, &cfg);
            let values = analyze_values(&fc);
            let refined = analyze_refined(&fc, &values);
            let rel = analyze_relational_with(&fc, &values);
            for h in fc.halts() {
                let r = rel.halt_disagreement(h);
                let v = refined.halt_taint(h);
                assert!(
                    r.is_subset(&v),
                    "seed {seed} at {h}: relational {r} ⊄ refined {v}"
                );
            }
        }
    }

    #[test]
    fn monotone_pc_discipline_matches_surveillance_shape() {
        // Sanity: when no cancellation applies the relational facts agree
        // with the refined monotone taint exactly.
        let src = "program(2) { y := x1; if x2 == 0 { y := 0; } }";
        let fc = parse(src).unwrap();
        let values = analyze_values(&fc);
        let rel = analyze_relational_with(&fc, &values);
        let refined = analyze_refined(&fc, &values);
        for h in fc.halts() {
            assert_eq!(rel.halt_disagreement(h), refined.halt_taint(h));
        }
        // And differs from the scoped discipline's termination-insensitive
        // reading on a pure-guard loop.
        let loopy = parse("program(1) { while x1 > 0 { x1 := x1 - 1; } y := 0; }").unwrap();
        let rel = analyze_relational(&loopy);
        let scoped = crate::dataflow::analyze(&loopy, PcDiscipline::Scoped);
        let h = loopy.halts()[0];
        assert!(!rel.halt_disagreement(h).is_empty());
        assert!(scoped.halt_taint(h).is_empty());
    }
}
