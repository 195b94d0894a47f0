//! Expressions, predicates and variables of the flowchart language.
//!
//! The paper allows "any reasonable choice" of predicates and expressions
//! ("so long as predicates and expressions are recursive there is no
//! difficulty"). We fix a concrete recursive language: integer arithmetic
//! (`+ - * / %`, unary minus) and comparisons combined with boolean
//! connectives. All operations are *total*: division and modulo by zero
//! yield 0, and arithmetic wraps on overflow, so a flowchart always denotes
//! a total function.
//!
//! [`Expr::Ite`] is a conditional *expression* — it converts control flow
//! into data flow and is the target of the paper's if-then-else transform
//! (Section 4, Examples 7 and 8).

use enf_core::{IndexSet, V};
use std::fmt;

/// A variable of the flowchart language.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Var {
    /// Input variable `x_i` (1-based, as in the paper).
    Input(usize),
    /// Program variable `r_j` (1-based).
    Reg(usize),
    /// The output variable `y`.
    Out,
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Var::Input(i) => write!(f, "x{i}"),
            Var::Reg(j) => write!(f, "r{j}"),
            Var::Out => write!(f, "y"),
        }
    }
}

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison.
    pub fn apply(self, a: V, b: V) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The comparison with swapped truth value (`==` ↔ `!=`, `<` ↔ `>=`, …).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// An integer expression `E(w1, …, ws)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// Integer literal.
    Const(V),
    /// Variable reference.
    Var(Var),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Addition (wrapping).
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction (wrapping).
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication (wrapping).
    Mul(Box<Expr>, Box<Expr>),
    /// Division; division by zero yields 0 to keep the semantics total.
    Div(Box<Expr>, Box<Expr>),
    /// Remainder; modulo by zero yields 0.
    Mod(Box<Expr>, Box<Expr>),
    /// Bitwise or — set union on bitmask-encoded index sets, as used by the
    /// paper's surveillance-variable assignments `v̄ ← w̄1 ∪ … ∪ w̄s ∪ C̄`.
    BOr(Box<Expr>, Box<Expr>),
    /// Bitwise and — set intersection; `t & !J` (with a constant mask)
    /// realizes the subset checks of the instrumented mechanism.
    BAnd(Box<Expr>, Box<Expr>),
    /// Conditional expression `ite(p, e1, e2)` — data-flow selection, the
    /// image of the paper's if-then-else transform.
    Ite(Box<Pred>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Shorthand for a variable reference.
    pub fn var(v: Var) -> Expr {
        Expr::Var(v)
    }

    /// Shorthand for the input variable `x_i`.
    pub fn x(i: usize) -> Expr {
        Expr::Var(Var::Input(i))
    }

    /// Shorthand for the program variable `r_j`.
    pub fn r(j: usize) -> Expr {
        Expr::Var(Var::Reg(j))
    }

    /// Shorthand for the output variable `y`.
    pub fn y() -> Expr {
        Expr::Var(Var::Out)
    }

    /// Shorthand for an integer literal.
    pub fn c(v: V) -> Expr {
        Expr::Const(v)
    }

    /// Evaluates the expression against a variable valuation.
    ///
    /// Every operation is total: `/` and `%` by zero give 0 and arithmetic
    /// wraps, matching the crate's totality guarantee.
    pub fn eval(&self, env: &impl Fn(Var) -> V) -> V {
        match self {
            Expr::Const(v) => *v,
            Expr::Var(v) => env(*v),
            Expr::Neg(e) => e.eval(env).wrapping_neg(),
            Expr::Add(a, b) => a.eval(env).wrapping_add(b.eval(env)),
            Expr::Sub(a, b) => a.eval(env).wrapping_sub(b.eval(env)),
            Expr::Mul(a, b) => a.eval(env).wrapping_mul(b.eval(env)),
            Expr::Div(a, b) => {
                let d = b.eval(env);
                if d == 0 {
                    0
                } else {
                    a.eval(env).wrapping_div(d)
                }
            }
            Expr::Mod(a, b) => {
                let d = b.eval(env);
                if d == 0 {
                    0
                } else {
                    a.eval(env).wrapping_rem(d)
                }
            }
            Expr::BOr(a, b) => a.eval(env) | b.eval(env),
            Expr::BAnd(a, b) => a.eval(env) & b.eval(env),
            Expr::Ite(p, t, e) => {
                if p.eval(env) {
                    t.eval(env)
                } else {
                    e.eval(env)
                }
            }
        }
    }

    /// Every variable occurring in the expression, sorted and
    /// deduplicated.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.for_each_var(&mut |v| out.push(v));
        out.sort();
        out.dedup();
        out
    }

    /// Calls `f` on every variable occurrence in the expression, left to
    /// right and repeats included, without allocating: the walk behind
    /// [`vars`](Self::vars) for callers that only fold over the variables.
    pub fn for_each_var(&self, f: &mut impl FnMut(Var)) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => f(*v),
            Expr::Neg(e) => e.for_each_var(f),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b)
            | Expr::BOr(a, b)
            | Expr::BAnd(a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            Expr::Ite(p, t, e) => {
                p.for_each_var(f);
                t.for_each_var(f);
                e.for_each_var(f);
            }
        }
    }

    /// The input indices mentioned directly by this expression (not
    /// transitively through registers).
    pub fn direct_inputs(&self) -> IndexSet {
        self.vars()
            .into_iter()
            .filter_map(|v| match v {
                Var::Input(i) => Some(i),
                _ => None,
            })
            .collect()
    }

    /// Whether the expression is a literal constant (syntactically).
    pub fn is_const(&self) -> bool {
        matches!(self, Expr::Const(_))
    }
}

/// Builds `a + b`.
pub fn add(a: Expr, b: Expr) -> Expr {
    Expr::Add(Box::new(a), Box::new(b))
}

/// Builds `a - b`.
pub fn sub(a: Expr, b: Expr) -> Expr {
    Expr::Sub(Box::new(a), Box::new(b))
}

/// Builds `a * b`.
pub fn mul(a: Expr, b: Expr) -> Expr {
    Expr::Mul(Box::new(a), Box::new(b))
}

/// Builds `ite(p, t, e)`.
pub fn ite(p: Pred, t: Expr, e: Expr) -> Expr {
    Expr::Ite(Box::new(p), Box::new(t), Box::new(e))
}

/// Builds `a | b` (bitwise or / set union).
pub fn bor(a: Expr, b: Expr) -> Expr {
    Expr::BOr(Box::new(a), Box::new(b))
}

/// Builds `a & b` (bitwise and / set intersection).
pub fn band(a: Expr, b: Expr) -> Expr {
    Expr::BAnd(Box::new(a), Box::new(b))
}

/// Folds `e1 | e2 | … | en | tail`; returns `tail` for an empty list.
pub fn bor_all(exprs: impl IntoIterator<Item = Expr>, tail: Expr) -> Expr {
    exprs.into_iter().fold(tail, bor)
}

/// A predicate `B(w1, …, ws)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Pred {
    /// Constant truth.
    True,
    /// Constant falsity.
    False,
    /// Comparison of two expressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Pred>),
    /// Conjunction (both sides always evaluated; expressions are total).
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
}

impl Pred {
    /// Builds the comparison `a op b`.
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Pred {
        Pred::Cmp(op, Box::new(a), Box::new(b))
    }

    /// Builds `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Pred {
        Pred::cmp(CmpOp::Eq, a, b)
    }

    /// Builds `a != b`.
    pub fn ne(a: Expr, b: Expr) -> Pred {
        Pred::cmp(CmpOp::Ne, a, b)
    }

    /// Builds `a > b`.
    pub fn gt(a: Expr, b: Expr) -> Pred {
        Pred::cmp(CmpOp::Gt, a, b)
    }

    /// Builds `a < b`.
    pub fn lt(a: Expr, b: Expr) -> Pred {
        Pred::cmp(CmpOp::Lt, a, b)
    }

    /// Evaluates the predicate against a variable valuation.
    pub fn eval(&self, env: &impl Fn(Var) -> V) -> bool {
        match self {
            Pred::True => true,
            Pred::False => false,
            Pred::Cmp(op, a, b) => op.apply(a.eval(env), b.eval(env)),
            Pred::Not(p) => !p.eval(env),
            Pred::And(a, b) => a.eval(env) && b.eval(env),
            Pred::Or(a, b) => a.eval(env) || b.eval(env),
        }
    }

    /// Every variable occurring in the predicate, sorted and
    /// deduplicated.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.for_each_var(&mut |v| out.push(v));
        out.sort();
        out.dedup();
        out
    }

    /// Calls `f` on every variable occurrence in the predicate, left to
    /// right and repeats included, without allocating (see
    /// [`Expr::for_each_var`]).
    pub fn for_each_var(&self, f: &mut impl FnMut(Var)) {
        match self {
            Pred::True | Pred::False => {}
            Pred::Cmp(_, a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            Pred::Not(p) => p.for_each_var(f),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
        }
    }

    /// Builds the logical negation, folding constants.
    #[must_use]
    pub fn negated(self) -> Pred {
        match self {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            Pred::Cmp(op, a, b) => Pred::Cmp(op.negate(), a, b),
            Pred::Not(p) => *p,
            other => Pred::Not(Box::new(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of(xs: &[(Var, V)]) -> impl Fn(Var) -> V + '_ {
        move |v| {
            xs.iter()
                .find(|(w, _)| *w == v)
                .map(|(_, x)| *x)
                .unwrap_or(0)
        }
    }

    #[test]
    fn arithmetic_evaluates() {
        let e = add(mul(Expr::x(1), Expr::c(2)), Expr::c(3));
        let env = env_of(&[(Var::Input(1), 5)]);
        assert_eq!(e.eval(&env), 13);
    }

    #[test]
    fn division_by_zero_is_total() {
        let e = Expr::Div(Box::new(Expr::c(7)), Box::new(Expr::x(1)));
        assert_eq!(e.eval(&env_of(&[(Var::Input(1), 0)])), 0);
        assert_eq!(e.eval(&env_of(&[(Var::Input(1), 2)])), 3);
        let m = Expr::Mod(Box::new(Expr::c(7)), Box::new(Expr::c(0)));
        assert_eq!(m.eval(&env_of(&[])), 0);
    }

    #[test]
    fn arithmetic_wraps_instead_of_panicking() {
        let e = add(Expr::c(V::MAX), Expr::c(1));
        assert_eq!(e.eval(&env_of(&[])), V::MIN);
        let n = Expr::Neg(Box::new(Expr::c(V::MIN)));
        assert_eq!(n.eval(&env_of(&[])), V::MIN);
        // MIN / -1 and MIN % -1 are the remaining overflow hazards.
        let d = Expr::Div(Box::new(Expr::c(V::MIN)), Box::new(Expr::c(-1)));
        assert_eq!(d.eval(&env_of(&[])), V::MIN);
        let r = Expr::Mod(Box::new(Expr::c(V::MIN)), Box::new(Expr::c(-1)));
        assert_eq!(r.eval(&env_of(&[])), 0);
    }

    #[test]
    fn ite_selects_by_predicate() {
        let e = ite(Pred::eq(Expr::x(1), Expr::c(1)), Expr::c(1), Expr::c(2));
        assert_eq!(e.eval(&env_of(&[(Var::Input(1), 1)])), 1);
        assert_eq!(e.eval(&env_of(&[(Var::Input(1), 9)])), 2);
    }

    #[test]
    fn vars_are_sorted_and_deduped() {
        let e = add(Expr::x(2), add(Expr::r(1), add(Expr::x(2), Expr::y())));
        assert_eq!(e.vars(), vec![Var::Input(2), Var::Reg(1), Var::Out]);
    }

    #[test]
    fn ite_vars_include_predicate_vars() {
        let e = ite(Pred::eq(Expr::x(1), Expr::c(0)), Expr::x(2), Expr::x(3));
        assert_eq!(e.vars(), vec![Var::Input(1), Var::Input(2), Var::Input(3)]);
        assert_eq!(e.direct_inputs(), enf_core::IndexSet::from_iter([1, 2, 3]));
    }

    #[test]
    fn visitor_reaches_every_listed_var_and_vars_stays_sorted() {
        // Every constructor, with repeats and out-of-order occurrences.
        let p = Pred::Or(
            Box::new(Pred::Not(Box::new(Pred::eq(Expr::r(2), Expr::x(3))))),
            Box::new(Pred::And(
                Box::new(Pred::True),
                Box::new(Pred::lt(Expr::y(), Expr::x(1))),
            )),
        );
        let e = bor(
            band(
                Expr::Neg(Box::new(Expr::x(3))),
                Expr::Div(
                    Box::new(Expr::r(1)),
                    Box::new(Expr::Mod(Box::new(Expr::x(3)), Box::new(Expr::c(2)))),
                ),
            ),
            ite(
                p.clone(),
                sub(Expr::y(), Expr::c(1)),
                mul(Expr::r(2), Expr::x(1)),
            ),
        );
        let mut seen = Vec::new();
        e.for_each_var(&mut |v| seen.push(v));
        let (x1, x3, r1, r2, y) = (
            Var::Input(1),
            Var::Input(3),
            Var::Reg(1),
            Var::Reg(2),
            Var::Out,
        );
        assert_eq!(seen, vec![x3, r1, x3, r2, x3, y, x1, y, r2, x1]);
        assert_eq!(e.vars(), vec![x1, x3, r1, r2, y]);
        let mut seen = Vec::new();
        p.for_each_var(&mut |v| seen.push(v));
        assert_eq!(seen, vec![r2, x3, y, x1]);
        assert_eq!(p.vars(), vec![x1, x3, r2, y]);

        // On generated programs the visitor reaches exactly the listed
        // variables, and the list stays sorted and deduplicated.
        let cfg = crate::generate::GenConfig::default();
        for seed in 0..200 {
            let fc = crate::generate::random_flowchart(seed, &cfg);
            for node in fc.nodes() {
                let (listed, mut seen) = match node {
                    crate::graph::Node::Assign { expr, .. } => {
                        let mut seen = Vec::new();
                        expr.for_each_var(&mut |v| seen.push(v));
                        (expr.vars(), seen)
                    }
                    crate::graph::Node::Decision { pred } => {
                        let mut seen = Vec::new();
                        pred.for_each_var(&mut |v| seen.push(v));
                        (pred.vars(), seen)
                    }
                    _ => continue,
                };
                assert!(listed.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
                seen.sort();
                seen.dedup();
                assert_eq!(seen, listed, "seed {seed}");
            }
        }
    }

    #[test]
    fn cmp_ops_apply() {
        assert!(CmpOp::Eq.apply(1, 1));
        assert!(CmpOp::Ne.apply(1, 2));
        assert!(CmpOp::Lt.apply(1, 2));
        assert!(CmpOp::Le.apply(2, 2));
        assert!(CmpOp::Gt.apply(3, 2));
        assert!(CmpOp::Ge.apply(3, 3));
    }

    #[test]
    fn cmp_negate_is_involutive_and_complementary() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
            for (a, b) in [(1, 2), (2, 1), (2, 2)] {
                assert_eq!(op.apply(a, b), !op.negate().apply(a, b));
            }
        }
    }

    #[test]
    fn pred_connectives() {
        let t = Pred::True;
        let f = Pred::False;
        let env = env_of(&[]);
        assert!(Pred::And(Box::new(t.clone()), Box::new(t.clone())).eval(&env));
        assert!(!Pred::And(Box::new(t.clone()), Box::new(f.clone())).eval(&env));
        assert!(Pred::Or(Box::new(f.clone()), Box::new(t.clone())).eval(&env));
        assert!(!Pred::Or(Box::new(f.clone()), Box::new(f.clone())).eval(&env));
        assert!(Pred::Not(Box::new(f)).eval(&env));
    }

    #[test]
    fn negated_folds() {
        assert_eq!(Pred::True.negated(), Pred::False);
        assert_eq!(Pred::False.negated(), Pred::True);
        let p = Pred::eq(Expr::x(1), Expr::c(0));
        assert_eq!(p.clone().negated(), Pred::ne(Expr::x(1), Expr::c(0)));
        assert_eq!(p.clone().negated().negated(), p);
        let conj = Pred::And(Box::new(Pred::True), Box::new(Pred::False));
        assert_eq!(conj.clone().negated(), Pred::Not(Box::new(conj)));
    }

    #[test]
    fn bitwise_ops_act_on_masks() {
        let e = bor(Expr::c(0b0110), Expr::c(0b0011));
        assert_eq!(e.eval(&env_of(&[])), 0b0111);
        let e = band(Expr::c(0b0110), Expr::c(0b0011));
        assert_eq!(e.eval(&env_of(&[])), 0b0010);
    }

    #[test]
    fn bor_all_folds_from_tail() {
        let e = bor_all([Expr::c(1), Expr::c(4)], Expr::c(8));
        assert_eq!(e.eval(&env_of(&[])), 13);
        let e = bor_all([], Expr::c(8));
        assert_eq!(e.eval(&env_of(&[])), 8);
    }

    #[test]
    fn bitwise_vars_collected() {
        let e = band(Expr::x(1), bor(Expr::r(2), Expr::c(1)));
        assert_eq!(e.vars(), vec![Var::Input(1), Var::Reg(2)]);
    }

    #[test]
    fn display_var() {
        assert_eq!(Var::Input(3).to_string(), "x3");
        assert_eq!(Var::Reg(1).to_string(), "r1");
        assert_eq!(Var::Out.to_string(), "y");
    }
}
