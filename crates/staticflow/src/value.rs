//! Constant-propagation / interval value analysis over the flowchart CFG.
//!
//! The taint analyses in [`crate::dataflow`] are *value-blind*: they treat
//! every branch as two-way even when the program can only ever take one
//! arm. This module supplies the missing value reasoning as another
//! [`crate::framework`] instance: each variable is tracked as an interval
//! `[lo, hi]` (constants are singletons, the full range is ⊤), decision
//! predicates are evaluated three-valuedly, and the facts flowing along a
//! branch edge are *refined* by the branch condition — an edge whose
//! condition is abstractly false carries no fact at all.
//!
//! The analysis is sound for the concrete interpreter's total semantics:
//! any arithmetic that could wrap degrades to ⊤, division/modulo by a
//! possibly-zero divisor degrades to ⊤ (the interpreter yields 0, which ⊤
//! covers), and joins take the interval hull. Soundness here means the
//! concrete value of every variable at every visit of a node lies in the
//! node's interval — which is what lets [`mod@crate::certify`]'s
//! `Analysis::ValueRefined` discard dead arms without ever certifying a
//! program the dynamic mechanism would abort.
//!
//! Termination comes from widening. At a loop head — the target of an
//! edge that retreats in reverse postorder — each bound that grew jumps to
//! the next *threshold*: a constant some decision compares against, one
//! either side of it, or `±CLAMP`; past the last threshold it jumps to
//! `V::MIN` / `V::MAX`. A bound can thus grow only a few times per loop
//! head, so a counter that runs to 5 000 costs the same passes as one that
//! runs to 3. One narrowing pass ([`crate::framework::narrow`]) then wins
//! back what the jumps overshot. Arithmetic still clamps bounds to the
//! menu `{V::MIN} ∪ [-CLAMP, CLAMP] ∪ {V::MAX}`.

use crate::framework::{narrow, solve, DataflowProblem};
use enf_core::V;
use enf_flowchart::ast::{CmpOp, Expr, Pred, Var};
use enf_flowchart::graph::{Flowchart, Node, NodeId, Succ};

/// Transfers push a bound with magnitude above this to `V::MIN` /
/// `V::MAX`. Widening is what bounds the passes; the clamp keeps the
/// exact, non-widening fixed point finite too, which the unit tests hold
/// the widened facts to.
pub const CLAMP: V = 4096;

/// An interval abstract value `[lo, hi]`. `lo > hi` never occurs in stored
/// facts (empty intervals become edge infeasibility instead).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AbsVal {
    /// Least value the variable may hold.
    pub lo: V,
    /// Greatest value the variable may hold.
    pub hi: V,
}

impl AbsVal {
    /// The full range ⊤.
    pub const TOP: AbsVal = AbsVal {
        lo: V::MIN,
        hi: V::MAX,
    };

    /// The singleton `[c, c]`.
    pub fn constant(c: V) -> AbsVal {
        AbsVal { lo: c, hi: c }
    }

    /// The interval `[lo, hi]`; panics if `lo > hi`.
    pub fn range(lo: V, hi: V) -> AbsVal {
        assert!(lo <= hi, "empty interval");
        AbsVal { lo, hi }
    }

    /// The constant this value is pinned to, if any.
    pub fn as_const(&self) -> Option<V> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether this is the full range.
    pub fn is_top(&self) -> bool {
        *self == Self::TOP
    }

    /// Whether `v` lies in the interval.
    pub fn contains(&self, v: V) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Interval hull (the join). Bounds coming in are already clamped, and
    /// the hull only picks existing bounds, so no re-clamp is needed.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection; `None` when empty.
    pub fn meet(&self, other: &AbsVal) -> Option<AbsVal> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(AbsVal { lo, hi })
    }

    /// Pushes out-of-menu bounds to `V::MIN` / `V::MAX`.
    fn clamp(self) -> AbsVal {
        let lo = if self.lo < -CLAMP { V::MIN } else { self.lo };
        let hi = if self.hi > CLAMP { V::MAX } else { self.hi };
        AbsVal { lo, hi }
    }

    fn from_checked(lo: Option<V>, hi: Option<V>) -> AbsVal {
        match (lo, hi) {
            (Some(lo), Some(hi)) => AbsVal { lo, hi }.clamp(),
            _ => AbsVal::TOP,
        }
    }

    fn add(&self, o: &AbsVal) -> AbsVal {
        Self::from_checked(self.lo.checked_add(o.lo), self.hi.checked_add(o.hi))
    }

    fn sub(&self, o: &AbsVal) -> AbsVal {
        Self::from_checked(self.lo.checked_sub(o.hi), self.hi.checked_sub(o.lo))
    }

    fn mul(&self, o: &AbsVal) -> AbsVal {
        let corners = [
            self.lo.checked_mul(o.lo),
            self.lo.checked_mul(o.hi),
            self.hi.checked_mul(o.lo),
            self.hi.checked_mul(o.hi),
        ];
        let (mut lo, mut hi) = (V::MAX, V::MIN);
        for c in corners {
            let Some(c) = c else {
                return AbsVal::TOP;
            };
            lo = lo.min(c);
            hi = hi.max(c);
        }
        AbsVal { lo, hi }.clamp()
    }

    fn neg(&self) -> AbsVal {
        Self::from_checked(self.hi.checked_neg(), self.lo.checked_neg())
    }

    /// `self / o` under the total semantics (x/0 = 0). Truncating division
    /// is monotone in the dividend for a fixed nonzero divisor, so the
    /// endpoints bound the result.
    fn div(&self, o: &AbsVal) -> AbsVal {
        match o.as_const() {
            Some(0) => AbsVal::constant(0),
            Some(c) => {
                let a = self.lo.checked_div(c);
                let b = self.hi.checked_div(c);
                match (a, b) {
                    (Some(a), Some(b)) => AbsVal {
                        lo: a.min(b),
                        hi: a.max(b),
                    }
                    .clamp(),
                    _ => AbsVal::TOP,
                }
            }
            None => AbsVal::TOP,
        }
    }

    /// `self % o` under the total semantics (x % 0 = 0).
    fn rem(&self, o: &AbsVal) -> AbsVal {
        match o.as_const() {
            Some(0) => AbsVal::constant(0),
            Some(c) => {
                if let Some(a) = self.as_const() {
                    return match a.checked_rem(c) {
                        Some(r) => AbsVal::constant(r),
                        None => AbsVal::constant(0), // V::MIN % -1 wraps to 0
                    };
                }
                let m = c.unsigned_abs().min(V::MAX as u64 + 1).saturating_sub(1) as V;
                if self.lo >= 0 {
                    AbsVal::range(0, m)
                } else {
                    AbsVal::range(-m, m)
                }
                .clamp()
            }
            None => AbsVal::TOP,
        }
    }
}

/// Three-valued truth of an abstract predicate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbsBool {
    /// Holds on every concrete valuation in the abstract state.
    True,
    /// Fails on every concrete valuation in the abstract state.
    False,
    /// The abstraction cannot decide.
    Maybe,
}

impl AbsBool {
    fn not(self) -> AbsBool {
        match self {
            AbsBool::True => AbsBool::False,
            AbsBool::False => AbsBool::True,
            AbsBool::Maybe => AbsBool::Maybe,
        }
    }

    fn and(self, o: AbsBool) -> AbsBool {
        match (self, o) {
            (AbsBool::False, _) | (_, AbsBool::False) => AbsBool::False,
            (AbsBool::True, AbsBool::True) => AbsBool::True,
            _ => AbsBool::Maybe,
        }
    }

    fn or(self, o: AbsBool) -> AbsBool {
        match (self, o) {
            (AbsBool::True, _) | (_, AbsBool::True) => AbsBool::True,
            (AbsBool::False, AbsBool::False) => AbsBool::False,
            _ => AbsBool::Maybe,
        }
    }
}

/// Abstract variable valuation at one program point.
#[derive(PartialEq, Eq, Debug)]
pub struct ValueEnv {
    inputs: Vec<AbsVal>,
    regs: Vec<AbsVal>,
    out: AbsVal,
}

/// `clone_from` copies field by field into the buffers `self` already
/// holds, so a transfer that starts from a copy of its input allocates
/// nothing.
impl Clone for ValueEnv {
    fn clone(&self) -> Self {
        ValueEnv {
            inputs: self.inputs.clone(),
            regs: self.regs.clone(),
            out: self.out,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.inputs.clone_from(&source.inputs);
        self.regs.clone_from(&source.regs);
        self.out = source.out;
    }
}

impl ValueEnv {
    /// The entry environment: inputs unknown, registers and `y` zero (the
    /// interpreter's `Store::init` guarantee).
    pub fn init(arity: usize, regs: usize) -> Self {
        ValueEnv {
            inputs: vec![AbsVal::TOP; arity],
            regs: vec![AbsVal::constant(0); regs],
            out: AbsVal::constant(0),
        }
    }

    /// The abstract value of a variable.
    pub fn get(&self, var: Var) -> AbsVal {
        match var {
            Var::Input(i) => self.inputs[i - 1],
            Var::Reg(j) => self.regs.get(j - 1).copied().unwrap_or(AbsVal::TOP),
            Var::Out => self.out,
        }
    }

    fn set(&mut self, var: Var, v: AbsVal) {
        match var {
            Var::Input(i) => self.inputs[i - 1] = v,
            Var::Reg(j) => {
                if j > self.regs.len() {
                    self.regs.resize(j, AbsVal::TOP);
                }
                self.regs[j - 1] = v;
            }
            Var::Out => self.out = v,
        }
    }

    fn join_from(&mut self, other: &ValueEnv) -> bool {
        self.update_from(other, |a, b| a.join(&b))
    }

    /// Replaces each variable's value `a` by `combine(a, b)`, `b` its value
    /// in `other`; returns whether any changed.
    fn update_from(
        &mut self,
        other: &ValueEnv,
        combine: impl Fn(AbsVal, AbsVal) -> AbsVal,
    ) -> bool {
        let mut changed = false;
        let mut up = |a: &mut AbsVal, b: &AbsVal| {
            let j = combine(*a, *b);
            if j != *a {
                *a = j;
                changed = true;
            }
        };
        for (a, b) in self.inputs.iter_mut().zip(&other.inputs) {
            up(a, b);
        }
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            up(a, b);
        }
        up(&mut self.out, &other.out);
        changed
    }

    /// Abstractly evaluates an expression.
    pub fn eval(&self, e: &Expr) -> AbsVal {
        match e {
            Expr::Const(c) => AbsVal::constant(*c),
            Expr::Var(v) => self.get(*v),
            Expr::Neg(a) => self.eval(a).neg(),
            Expr::Add(a, b) => self.eval(a).add(&self.eval(b)),
            Expr::Sub(a, b) => self.eval(a).sub(&self.eval(b)),
            Expr::Mul(a, b) => self.eval(a).mul(&self.eval(b)),
            Expr::Div(a, b) => self.eval(a).div(&self.eval(b)),
            Expr::Mod(a, b) => self.eval(a).rem(&self.eval(b)),
            Expr::BOr(a, b) => match (self.eval(a).as_const(), self.eval(b).as_const()) {
                (Some(x), Some(y)) => AbsVal::constant(x | y),
                _ => AbsVal::TOP,
            },
            Expr::BAnd(a, b) => match (self.eval(a).as_const(), self.eval(b).as_const()) {
                (Some(x), Some(y)) => AbsVal::constant(x & y),
                _ => AbsVal::TOP,
            },
            Expr::Ite(p, t, e) => match self.eval_pred(p) {
                AbsBool::True => self.eval(t),
                AbsBool::False => self.eval(e),
                AbsBool::Maybe => self.eval(t).join(&self.eval(e)),
            },
        }
    }

    /// Abstractly evaluates a predicate.
    pub fn eval_pred(&self, p: &Pred) -> AbsBool {
        match p {
            Pred::True => AbsBool::True,
            Pred::False => AbsBool::False,
            Pred::Cmp(op, a, b) => cmp_abs(*op, &self.eval(a), &self.eval(b)),
            Pred::Not(p) => self.eval_pred(p).not(),
            Pred::And(a, b) => self.eval_pred(a).and(self.eval_pred(b)),
            Pred::Or(a, b) => self.eval_pred(a).or(self.eval_pred(b)),
        }
    }

    /// Narrows the environment in place under the assumption that `p`
    /// evaluates to `expected`; `false` when the assumption is
    /// unsatisfiable, and the environment is then left partly narrowed.
    fn refine(&mut self, p: &Pred, expected: bool) -> bool {
        match (p, expected) {
            (Pred::True, true) | (Pred::False, false) => true,
            (Pred::True, false) | (Pred::False, true) => false,
            (Pred::Not(inner), _) => self.refine(inner, !expected),
            (Pred::And(a, b), true) => self.refine(a, true) && self.refine(b, true),
            (Pred::Or(a, b), false) => self.refine(a, false) && self.refine(b, false),
            // One of the operands is at fault but we cannot tell which;
            // keeping the unrefined environment is sound.
            (Pred::And(..), false) | (Pred::Or(..), true) => true,
            (Pred::Cmp(op, a, b), _) => {
                let op = if expected { *op } else { op.negate() };
                let av = self.eval(a);
                let bv = self.eval(b);
                if cmp_abs(op, &av, &bv) == AbsBool::False {
                    return false;
                }
                if let Expr::Var(v) = a.as_ref() {
                    let Some(r) = refine_var(av, op, &bv) else {
                        return false;
                    };
                    self.set(*v, r);
                }
                if let Expr::Var(v) = b.as_ref() {
                    // b OP-mirrored a: refine the right operand too.
                    let mirrored = mirror(op);
                    let bv = self.eval(b);
                    let av = self.eval(a);
                    let Some(r) = refine_var(bv, mirrored, &av) else {
                        return false;
                    };
                    self.set(*v, r);
                }
                true
            }
        }
    }
}

/// Three-valued comparison of two intervals.
fn cmp_abs(op: CmpOp, a: &AbsVal, b: &AbsVal) -> AbsBool {
    match op {
        CmpOp::Eq => {
            if a.meet(b).is_none() {
                AbsBool::False
            } else if a.as_const().is_some() && a == b {
                AbsBool::True
            } else {
                AbsBool::Maybe
            }
        }
        CmpOp::Ne => cmp_abs(CmpOp::Eq, a, b).not(),
        CmpOp::Lt => {
            if a.hi < b.lo {
                AbsBool::True
            } else if a.lo >= b.hi {
                AbsBool::False
            } else {
                AbsBool::Maybe
            }
        }
        CmpOp::Le => {
            if a.hi <= b.lo {
                AbsBool::True
            } else if a.lo > b.hi {
                AbsBool::False
            } else {
                AbsBool::Maybe
            }
        }
        CmpOp::Gt => cmp_abs(CmpOp::Le, a, b).not(),
        CmpOp::Ge => cmp_abs(CmpOp::Lt, a, b).not(),
    }
}

/// Swaps operand order: `a op b` ⟺ `b mirror(op) a`.
fn mirror(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Narrows `v` under `v op b`; `None` when no value survives.
fn refine_var(v: AbsVal, op: CmpOp, b: &AbsVal) -> Option<AbsVal> {
    match op {
        CmpOp::Eq => v.meet(b),
        CmpOp::Ne => {
            if let (Some(x), Some(y)) = (v.as_const(), b.as_const()) {
                if x == y {
                    return None;
                }
            }
            if let Some(c) = b.as_const() {
                // Trim a constant that sits exactly on a bound.
                if v.as_const() == Some(c) {
                    return None;
                }
                if v.lo == c {
                    return Some(AbsVal::range(c.checked_add(1)?, v.hi));
                }
                if v.hi == c {
                    return Some(AbsVal::range(v.lo, c.checked_sub(1)?));
                }
            }
            Some(v)
        }
        CmpOp::Lt => {
            let hi = v.hi.min(b.hi.checked_sub(1)?);
            (v.lo <= hi).then(|| AbsVal::range(v.lo, hi))
        }
        CmpOp::Le => {
            let hi = v.hi.min(b.hi);
            (v.lo <= hi).then(|| AbsVal::range(v.lo, hi))
        }
        CmpOp::Gt => {
            let lo = v.lo.max(b.lo.checked_add(1)?);
            (lo <= v.hi).then(|| AbsVal::range(lo, v.hi))
        }
        CmpOp::Ge => {
            let lo = v.lo.max(b.lo);
            (lo <= v.hi).then(|| AbsVal::range(lo, v.hi))
        }
    }
}

/// The value analysis as a framework problem. Facts are `Option<ValueEnv>`,
/// with `None` as ⊥ meaning "no execution reaches this node".
struct ValueProblem {
    /// Widening thresholds, sorted ascending ([`thresholds`]).
    thresholds: Vec<V>,
}

/// The widening thresholds of a flowchart: `c - 1`, `c` and `c + 1` for
/// every constant operand `c` of a decision's comparisons, and `±CLAMP`,
/// the widest bounds transfers keep, on each side where no constant lies
/// further out. An operand without variables is folded first, so the
/// parser's `Neg(Const 3)` and the `Const(-3)` a structured program lowers
/// to give the same thresholds, and with them the same facts.
fn thresholds(fc: &Flowchart) -> Vec<V> {
    fn collect(p: &Pred, out: &mut Vec<V>) {
        match p {
            Pred::True | Pred::False => {}
            Pred::Cmp(_, a, b) => {
                for e in [a, b] {
                    let mut has_var = false;
                    e.for_each_var(&mut |_| has_var = true);
                    if !has_var {
                        let c = e.eval(&|_| 0);
                        out.extend([c.saturating_sub(1), c, c.saturating_add(1)]);
                    }
                }
            }
            Pred::Not(p) => collect(p, out),
            Pred::And(a, b) | Pred::Or(a, b) => {
                collect(a, out);
                collect(b, out);
            }
        }
    }
    let mut out = Vec::new();
    for (_, node, _) in fc.iter() {
        if let Node::Decision { pred } = node {
            collect(pred, &mut out);
        }
    }
    // Past the constants a bound stops once more at ±CLAMP. Where a
    // constant lies beyond it that stop is left out: a counter running to
    // the constant passes ±CLAMP on its next transfer, which clamps it to
    // V::MIN / V::MAX, so the stop would only cost its loop another pass.
    let lo = out.iter().min().map_or(-CLAMP, |&t| t.min(-CLAMP));
    let hi = out.iter().max().map_or(CLAMP, |&t| t.max(CLAMP));
    out.extend([lo, hi]);
    out.sort_unstable();
    out.dedup();
    out
}

impl ValueProblem {
    /// `old` joined with `new`, each bound that grew pushed out to the next
    /// threshold beyond it, or to `V::MIN` / `V::MAX`.
    fn widen_val(&self, old: AbsVal, new: AbsVal) -> AbsVal {
        let j = old.join(&new);
        let lo = if j.lo < old.lo {
            let below = self.thresholds.partition_point(|&t| t <= j.lo);
            below.checked_sub(1).map_or(V::MIN, |i| self.thresholds[i])
        } else {
            j.lo
        };
        let hi = if j.hi > old.hi {
            let below = self.thresholds.partition_point(|&t| t < j.hi);
            self.thresholds.get(below).copied().unwrap_or(V::MAX)
        } else {
            j.hi
        };
        AbsVal { lo, hi }
    }
}

impl DataflowProblem for ValueProblem {
    type Fact = Option<ValueEnv>;

    fn bottom(&self, _fc: &Flowchart) -> Self::Fact {
        None
    }

    fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<Self::Fact> {
        (n == fc.start()).then(|| Some(ValueEnv::init(fc.arity(), fc.max_reg())))
    }

    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
        match (into.as_mut(), from) {
            (_, None) => false,
            (None, Some(f)) => {
                *into = Some(f.clone());
                true
            }
            (Some(i), Some(f)) => i.join_from(f),
        }
    }

    fn widen(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
        match (into.as_mut(), from) {
            (Some(i), Some(f)) => i.update_from(f, |a, b| self.widen_val(a, b)),
            _ => self.join(into, from),
        }
    }

    fn flow(
        &self,
        fc: &Flowchart,
        n: NodeId,
        edge: usize,
        _to: NodeId,
        fact: &Self::Fact,
        out: &mut Self::Fact,
    ) -> bool {
        let Some(env) = fact else {
            return false;
        };
        let out = copy_into(out, env);
        match fc.node(n) {
            Node::Assign { var, expr } => {
                let v = out.eval(expr);
                out.set(*var, v);
                true
            }
            // Edge 0 is the true branch, edge 1 the false branch
            // (succ_list order for `Succ::Cond`).
            Node::Decision { pred } => out.refine(pred, edge == 0),
            // START and HALT pass the store on; policy boxes don't touch
            // it.
            Node::Start | Node::Halt | Node::SetPolicy { .. } | Node::Declassify { .. } => true,
        }
    }
}

/// `env` copied into `slot`, reusing the environment `slot` holds.
fn copy_into<'a>(slot: &'a mut Option<ValueEnv>, env: &ValueEnv) -> &'a mut ValueEnv {
    match slot {
        Some(s) => {
            s.clone_from(env);
            s
        }
        None => slot.insert(env.clone()),
    }
}

/// The facts of the value analysis.
#[derive(Clone, Debug)]
pub struct ValueFacts {
    /// Entry environment per node; `None` = provably unreachable.
    pub env_at: Vec<Option<ValueEnv>>,
    /// Solver work, for the benches: transfers applied while widening to a
    /// post-fixpoint, plus those of the narrowing pass.
    pub iterations: usize,
    /// Per node, bit `e` set iff its `e`-th outgoing edge may be taken.
    feasible: Vec<u8>,
}

impl ValueFacts {
    /// Wraps per-node entry environments, working out once which edges
    /// each node may take.
    fn new(fc: &Flowchart, env_at: Vec<Option<ValueEnv>>, iterations: usize) -> ValueFacts {
        let mut scratch = None;
        let mut satisfiable = |env: &ValueEnv, pred: &Pred, expected: bool| {
            u8::from(copy_into(&mut scratch, env).refine(pred, expected))
        };
        let feasible = fc
            .iter()
            .map(|(n, node, succ)| match (&env_at[n.0], node, succ) {
                (None, _, _) => 0,
                (Some(env), Node::Decision { pred }, Succ::Cond { .. }) => {
                    satisfiable(env, pred, true) | satisfiable(env, pred, false) << 1
                }
                (Some(_), _, _) => 1,
            })
            .collect();
        ValueFacts {
            env_at,
            iterations,
            feasible,
        }
    }

    /// Whether any execution may reach the node.
    pub fn reachable(&self, n: NodeId) -> bool {
        self.env_at[n.0].is_some()
    }

    /// Three-valued outcome of a decision node (`None` for non-decisions
    /// and unreachable nodes).
    pub fn decision_outcome(&self, fc: &Flowchart, n: NodeId) -> Option<AbsBool> {
        let env = self.env_at[n.0].as_ref()?;
        match fc.node(n) {
            Node::Decision { pred } => Some(env.eval_pred(pred)),
            _ => None,
        }
    }

    /// Whether the `edge`-th outgoing edge of `n` (0 = true branch) may be
    /// taken by some execution; never for an unreachable node.
    pub fn edge_feasible(&self, n: NodeId, edge: usize) -> bool {
        self.feasible[n.0] >> edge & 1 == 1
    }
}

/// Runs the value analysis: a widening solve to a post-fixpoint, then one
/// narrowing pass.
pub fn analyze_values(fc: &Flowchart) -> ValueFacts {
    let problem = ValueProblem {
        thresholds: thresholds(fc),
    };
    let sol = narrow(fc, &problem, solve(fc, &problem));
    ValueFacts::new(fc, sol.facts, sol.iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enf_flowchart::parse;

    fn facts(src: &str) -> (Flowchart, ValueFacts) {
        let fc = parse(src).unwrap();
        let vf = analyze_values(&fc);
        (fc, vf)
    }

    fn decision(fc: &Flowchart) -> NodeId {
        fc.iter()
            .find(|(_, n, _)| matches!(n, Node::Decision { .. }))
            .map(|(id, _, _)| id)
            .unwrap()
    }

    #[test]
    fn constants_propagate_through_assignments() {
        let (fc, vf) = facts("program(1) { r1 := 2; r2 := r1 * 3; y := r2 + 1; }");
        let halt = fc.halts()[0];
        let env = vf.env_at[halt.0].as_ref().unwrap();
        assert_eq!(env.get(Var::Out).as_const(), Some(7));
    }

    #[test]
    fn constant_guard_kills_the_dead_arm() {
        let (fc, vf) = facts("program(2) { r1 := 0; if r1 == 0 { y := x2; } else { y := x1; } }");
        let d = decision(&fc);
        assert_eq!(vf.decision_outcome(&fc, d), Some(AbsBool::True));
        assert!(vf.edge_feasible(d, 0));
        assert!(!vf.edge_feasible(d, 1));
        // The else arm (`y := x1`) is unreachable.
        let dead = fc
            .iter()
            .find(|(_, n, _)| matches!(n, Node::Assign { expr, .. } if *expr == Expr::x(1)))
            .map(|(id, _, _)| id)
            .unwrap();
        assert!(!vf.reachable(dead));
    }

    #[test]
    fn input_branches_stay_two_way() {
        let (fc, vf) = facts("program(1) { if x1 == 0 { y := 1; } else { y := 2; } }");
        let d = decision(&fc);
        assert_eq!(vf.decision_outcome(&fc, d), Some(AbsBool::Maybe));
        assert!(vf.edge_feasible(d, 0));
        assert!(vf.edge_feasible(d, 1));
        let halt = fc.halts()[0];
        let env = vf.env_at[halt.0].as_ref().unwrap();
        assert_eq!(env.get(Var::Out), AbsVal::range(1, 2));
    }

    #[test]
    fn branch_refinement_narrows_the_tested_variable() {
        let (fc, vf) = facts("program(1) { if x1 > 3 { y := 1; } else { y := 2; } }");
        let d = decision(&fc);
        let Succ::Cond { then_, else_ } = fc.succ(d) else {
            panic!()
        };
        let t_env = vf.env_at[then_.0].as_ref().unwrap();
        assert_eq!(t_env.get(Var::Input(1)).lo, 4);
        let e_env = vf.env_at[else_.0].as_ref().unwrap();
        assert_eq!(e_env.get(Var::Input(1)).hi, 3);
    }

    #[test]
    fn counted_loop_converges_with_widened_counter() {
        // The loop body runs a bounded number of times, but the analysis
        // only needs to converge, not count: r1 ∈ [0, 3] at the guard.
        let (fc, vf) = facts("program(1) { r1 := 3; while r1 > 0 { r1 := r1 - 1; } y := 9; }");
        let halt = fc.halts()[0];
        let env = vf.env_at[halt.0].as_ref().unwrap();
        assert_eq!(env.get(Var::Out).as_const(), Some(9));
        // After the loop exits, the guard refinement pins r1 ≤ 0.
        assert!(env.get(Var::Reg(1)).hi <= 0);
    }

    #[test]
    fn widening_keeps_unbounded_growth_finite() {
        // r1 grows without a static bound; the clamp must push it to TOP
        // rather than iterating forever.
        let (fc, vf) =
            facts("program(1) { r2 := x1; while r2 > 0 { r1 := r1 + 7; r2 := r2 - 1; } y := r1; }");
        let halt = fc.halts()[0];
        assert!(vf.reachable(halt));
        let env = vf.env_at[halt.0].as_ref().unwrap();
        assert_eq!(env.get(Var::Out).hi, V::MAX);
    }

    #[test]
    fn division_by_possible_zero_is_top_but_sound() {
        let (fc, vf) = facts("program(1) { y := 10 / x1; }");
        let halt = fc.halts()[0];
        let env = vf.env_at[halt.0].as_ref().unwrap();
        assert!(env.get(Var::Out).is_top());
    }

    #[test]
    fn ite_on_decided_predicate_selects_one_arm() {
        let (fc, vf) = facts("program(1) { r1 := 1; y := ite(r1 == 1, 5, 6); }");
        let halt = fc.halts()[0];
        let env = vf.env_at[halt.0].as_ref().unwrap();
        assert_eq!(env.get(Var::Out).as_const(), Some(5));
    }

    #[test]
    fn abstract_values_cover_concrete_runs() {
        // Soundness probe: on random programs, every concrete halt value
        // lies in the abstract interval at the halt. Loops counting to 50
        // make the widening and narrowing passes do real work.
        use enf_core::{Grid, InputDomain};
        use enf_flowchart::generate::{random_flowchart, GenConfig};
        use enf_flowchart::interp::{run, ExecConfig, Outcome};
        let long_loops = GenConfig {
            loop_bound: 50,
            ..GenConfig::default()
        };
        for cfg in [GenConfig::default(), long_loops] {
            for seed in 900..960u64 {
                let fc = random_flowchart(seed, &cfg);
                let vf = analyze_values(&fc);
                for a in Grid::hypercube(2, -2..=2).iter_inputs() {
                    if let Outcome::Halted(h) = run(&fc, &a, &ExecConfig::default()) {
                        let env = vf.env_at[h.halt.0]
                            .as_ref()
                            .unwrap_or_else(|| panic!("seed {seed}: reached 'unreachable' halt"));
                        assert!(
                            env.get(Var::Out).contains(h.y),
                            "seed {seed} {cfg:?}: y = {} outside {:?} at {:?}",
                            h.y,
                            env.get(Var::Out),
                            a
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn loop_nest_iterations_do_not_depend_on_the_bound() {
        // Without widening each counter climbed one value per pass: the
        // solve took 55, 4 510, 45 010 and 61 469 transfers at these bounds.
        let iterations = |n: V| {
            let fc = parse(&format!(
                "program(1) {{ r1 := 0; while r1 < {n} {{ r2 := 0; while r2 < {n} {{ \
                 r3 := 0; while r3 < {n} {{ r3 := r3 + 1; }} r2 := r2 + 1; }} \
                 r1 := r1 + 1; }} y := r3; }}"
            ))
            .unwrap();
            assert_eq!(fc.len(), 12);
            analyze_values(&fc).iterations
        };
        let at_3 = iterations(3);
        for n in [300, 3_000, 5_000] {
            assert_eq!(iterations(n), at_3, "loop bound {n}");
        }
    }

    #[test]
    fn thresholds_fold_constants_and_stop_at_the_clamp_edge() {
        // The parser reads `-3` as `Neg(Const 3)`; lowering a structured
        // program keeps `Const(-3)`. Both must widen alike.
        let parsed = parse("program(1) { while r1 > -3 { r1 := r1 - 1; } y := r1; }").unwrap();
        let Node::Decision { pred } = parsed.node(decision(&parsed)) else {
            unreachable!()
        };
        assert!(matches!(pred, Pred::Cmp(_, _, b) if matches!(**b, Expr::Neg(_))));
        assert_eq!(thresholds(&parsed), vec![-CLAMP, -4, -3, -2, CLAMP]);
        // A constant past CLAMP replaces the stop at the edge.
        let far = parse("program(1) { while r1 < 5000 { r1 := r1 + 1; } y := r1; }").unwrap();
        assert_eq!(thresholds(&far), vec![-CLAMP, 4999, 5000, 5001]);
    }

    /// The value problem without widening: its solution is the least
    /// fixed point, which the widened and narrowed facts must contain.
    struct Exact(ValueProblem);

    impl DataflowProblem for Exact {
        type Fact = Option<ValueEnv>;

        fn bottom(&self, fc: &Flowchart) -> Self::Fact {
            self.0.bottom(fc)
        }

        fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<Self::Fact> {
            self.0.boundary(fc, n)
        }

        fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
            self.0.join(into, from)
        }

        fn flow(
            &self,
            fc: &Flowchart,
            n: NodeId,
            edge: usize,
            to: NodeId,
            fact: &Self::Fact,
            out: &mut Self::Fact,
        ) -> bool {
            self.0.flow(fc, n, edge, to, fact, out)
        }
    }

    /// Whether every variable's interval in `wide` contains its interval in
    /// `exact`: joining the one into the other changes nothing.
    fn contains_env(wide: &ValueEnv, exact: &ValueEnv) -> bool {
        !wide.clone().join_from(exact)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Widening may lose precision but never soundness: at every node
        /// the widened facts contain the exact least fixed point, and every
        /// node and edge the exact facts reach, they reach too.
        #[test]
        fn widened_values_contain_the_exact_fixed_point(seed in 0u64..1 << 32) {
            use enf_flowchart::generate::{random_flowchart, random_policy_flowchart, GenConfig};
            let long_loops = GenConfig { loop_bound: 50, stmts: 16, ..GenConfig::default() };
            for cfg in [GenConfig::default(), long_loops] {
                for fc in [random_flowchart(seed, &cfg), random_policy_flowchart(seed, &cfg)] {
                    let wide = analyze_values(&fc);
                    let exact = solve(&fc, &Exact(ValueProblem { thresholds: thresholds(&fc) }));
                    let exact = ValueFacts::new(&fc, exact.facts, exact.iterations);
                    for (n, _, succ) in fc.iter() {
                        let Some(e) = &exact.env_at[n.0] else { continue };
                        let w = wide.env_at[n.0].as_ref();
                        proptest::prop_assert!(
                            w.is_some_and(|w| contains_env(w, e)),
                            "seed {} {:?} at {}: widened {:?} misses exact {:?}", seed, cfg, n, w, e
                        );
                        let edges = match succ {
                            Succ::None => 0,
                            Succ::One(_) => 1,
                            Succ::Cond { .. } => 2,
                        };
                        for edge in 0..edges {
                            proptest::prop_assert!(
                                !exact.edge_feasible(n, edge) || wide.edge_feasible(n, edge),
                                "seed {} at {}: edge {} lost", seed, n, edge
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn abs_arithmetic_corners() {
        let top = AbsVal::TOP;
        assert!(top.add(&top).is_top());
        assert_eq!(
            AbsVal::constant(3).mul(&AbsVal::range(-2, 4)),
            AbsVal::range(-6, 12)
        );
        assert_eq!(AbsVal::range(-7, 7).neg(), AbsVal::range(-7, 7));
        assert_eq!(
            AbsVal::range(1, 9).div(&AbsVal::constant(0)),
            AbsVal::constant(0)
        );
        assert_eq!(
            AbsVal::range(-9, 9).div(&AbsVal::constant(3)),
            AbsVal::range(-3, 3)
        );
        assert_eq!(
            AbsVal::range(0, 100).rem(&AbsVal::constant(5)),
            AbsVal::range(0, 4)
        );
        assert_eq!(
            AbsVal::constant(-7).rem(&AbsVal::constant(3)),
            AbsVal::constant(-1)
        );
    }
}
