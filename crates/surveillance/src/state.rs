//! Taint state: one surveillance variable per program variable plus the
//! program counter's `C̄`, and the one per-box surveillance rule on it.
//!
//! The rule is written once, here: an assignment sets `v̄ ← w̄ ∪ C̄`
//! ([`TaintState::assign`]), a decision sets `C̄ ← C̄ ∪ p̄`
//! ([`TaintState::decide`]), and a `declassify(v: A ~> B)` box relabels
//! `v̄ ← (v̄ \ A) ∪ B` ([`TaintState::declassify`]). The dynamic
//! [`TaintMonitor`](crate::monitor::TaintMonitor) applies it to one run;
//! every static taint analysis in `enf_static` applies it per box through
//! [`TaintState::transfer`] and joins (or meets) the states of all paths,
//! which is why a certified program never violates at run time.

use crate::dynamic::Style;
use enf_core::IndexSet;
use enf_flowchart::ast::{Expr, Pred, Var};
use enf_flowchart::graph::Node;

/// The surveillance variables of a run: `x̄1 … x̄k`, `r̄1 … r̄m`, `ȳ`, `C̄`.
/// As a static fact it is ordered pointwise by `⊆`.
#[derive(Debug, PartialEq, Eq)]
pub struct TaintState {
    inputs: Vec<IndexSet>,
    regs: Vec<IndexSet>,
    out: IndexSet,
    /// The program counter's surveillance variable.
    pub pc: IndexSet,
}

/// `clone_from` copies field by field into the buffers `self` already
/// holds, so a static transfer that starts from a copy of its input
/// allocates nothing.
impl Clone for TaintState {
    fn clone(&self) -> Self {
        TaintState {
            inputs: self.inputs.clone(),
            regs: self.regs.clone(),
            out: self.out,
            pc: self.pc,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.inputs.clone_from(&source.inputs);
        self.regs.clone_from(&source.regs);
        self.out = source.out;
        self.pc = source.pc;
    }
}

impl TaintState {
    /// Initializes per the paper's transformation (1): `x̄i = {i}`, every
    /// other surveillance variable empty.
    pub fn init(arity: usize, regs: usize) -> Self {
        TaintState {
            inputs: (1..=arity).map(IndexSet::single).collect(),
            ..TaintState::bottom(0, regs)
        }
    }

    /// The static analyses' ⊥: every surveillance variable empty.
    pub fn bottom(arity: usize, regs: usize) -> Self {
        TaintState {
            inputs: vec![IndexSet::empty(); arity],
            regs: vec![IndexSet::empty(); regs],
            out: IndexSet::empty(),
            pc: IndexSet::empty(),
        }
    }

    /// The surveillance variable of `var`.
    #[inline]
    pub fn get(&self, var: Var) -> IndexSet {
        match var {
            Var::Input(i) => self.inputs[i - 1],
            Var::Reg(j) => self.regs.get(j - 1).copied().unwrap_or_default(),
            Var::Out => self.out,
        }
    }

    /// Overwrites the surveillance variable of `var`.
    #[inline]
    pub fn set(&mut self, var: Var, taint: IndexSet) {
        match var {
            Var::Input(i) => self.inputs[i - 1] = taint,
            Var::Reg(j) => {
                if j > self.regs.len() {
                    self.regs.resize(j, IndexSet::empty());
                }
                self.regs[j - 1] = taint;
            }
            Var::Out => self.out = taint,
        }
    }

    /// The taint of an expression: the union of the surveillance variables
    /// of every variable occurring in it (including variables inside `ite`
    /// predicates — data-flow selection carries the selector's taint).
    #[inline]
    pub fn expr_taint(&self, e: &Expr) -> IndexSet {
        let mut t = IndexSet::empty();
        e.for_each_var(&mut |v| t.union_with(&self.get(v)));
        t
    }

    /// The taint of a predicate's variables.
    #[inline]
    pub fn pred_taint(&self, p: &Pred) -> IndexSet {
        let mut t = IndexSet::empty();
        p.for_each_var(&mut |v| t.union_with(&self.get(v)));
        t
    }

    /// The HALT-time release check set `ȳ ∪ C̄`.
    pub fn halt_taint(&self) -> IndexSet {
        self.out.union(&self.pc)
    }

    /// Pointwise union with `other` (the may-taint join), returning
    /// whether `self` grew. A register only `other` holds joins in too.
    #[inline]
    pub fn join_from(&mut self, other: &TaintState) -> bool {
        let mut changed = false;
        if other.regs.len() > self.regs.len() {
            self.regs.resize(other.regs.len(), IndexSet::empty());
            changed = true;
        }
        let mut up = |a: &mut IndexSet, b: &IndexSet| {
            let u = a.union(b);
            changed |= u != *a;
            *a = u;
        };
        for (a, b) in self.inputs.iter_mut().zip(&other.inputs) {
            up(a, b);
        }
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            up(a, b);
        }
        up(&mut self.out, &other.out);
        up(&mut self.pc, &other.pc);
        changed
    }

    /// Pointwise intersection with `other` (the must-taint meet), returning
    /// whether `self` shrank. A register absent on either side counts as
    /// untainted.
    #[inline]
    pub fn meet_from(&mut self, other: &TaintState) -> bool {
        let mut changed = false;
        let mut down = |a: &mut IndexSet, b: &IndexSet| {
            let i = a.intersection(b);
            changed |= i != *a;
            *a = i;
        };
        for (a, b) in self.inputs.iter_mut().zip(&other.inputs) {
            down(a, b);
        }
        for (j, a) in self.regs.iter_mut().enumerate() {
            down(a, &other.regs.get(j).copied().unwrap_or_default());
        }
        down(&mut self.out, &other.out);
        down(&mut self.pc, &other.pc);
        changed
    }

    /// Transformation (2) at `var := expr`: `v̄ ← w̄1 ∪ … ∪ w̄s ∪ C̄`, and
    /// `∪ v̄` as well under [`Style::Accumulate`]. `region_pc`, the box's
    /// control-dependence PC under the static Scoped discipline, stands in
    /// for `C̄` when given.
    #[inline]
    pub fn assign(&mut self, var: Var, expr: &Expr, style: Style, region_pc: Option<IndexSet>) {
        let mut t = self.expr_taint(expr).union(&region_pc.unwrap_or(self.pc));
        if style == Style::Accumulate {
            t.union_with(&self.get(var));
        }
        self.set(var, t);
    }

    /// Transformation (3) at a decision on `pred`: `C̄ ← C̄ ∪ w̄1 ∪ … ∪ w̄s`.
    #[inline]
    pub fn decide(&mut self, pred: &Pred) {
        let t = self.pred_taint(pred);
        self.pc.union_with(&t);
    }

    /// A `declassify(var: from ~> to)` box: relabels `v̄ ← (v̄ \ A) ∪ B`
    /// when `sanctioned`, and otherwise only accumulates `v̄ ← v̄ ∪ B` (an
    /// unsanctioned box launders nothing).
    #[inline]
    pub fn declassify(&mut self, var: Var, from: IndexSet, to: IndexSet, sanctioned: bool) {
        let t = self.get(var);
        let kept = if sanctioned { t.difference(&from) } else { t };
        self.set(var, kept.union(&to));
    }

    /// The rule for one box as the static analyses apply it, under the
    /// replacing assignment style. `region_pc` is the box's region PC
    /// under the Scoped discipline: assignments read it in place of `C̄`,
    /// and decisions leave `C̄` alone. Policy boxes move no data.
    #[inline]
    pub fn transfer(&mut self, node: &Node, region_pc: Option<IndexSet>, sanctioned: bool) {
        match node {
            Node::Start | Node::Halt | Node::SetPolicy { .. } => {}
            Node::Assign { var, expr } => self.assign(*var, expr, Style::Replace, region_pc),
            Node::Decision { pred } => {
                if region_pc.is_none() {
                    self.decide(pred);
                }
            }
            Node::Declassify { var, from, to } => self.declassify(*var, *from, *to, sanctioned),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_marks_inputs_with_their_index() {
        let t = TaintState::init(3, 2);
        assert_eq!(t.get(Var::Input(1)), IndexSet::single(1));
        assert_eq!(t.get(Var::Input(3)), IndexSet::single(3));
        assert_eq!(t.get(Var::Reg(1)), IndexSet::empty());
        assert_eq!(t.get(Var::Out), IndexSet::empty());
        assert_eq!(t.pc, IndexSet::empty());
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut t = TaintState::init(1, 1);
        t.set(Var::Reg(1), IndexSet::single(1));
        assert_eq!(t.get(Var::Reg(1)), IndexSet::single(1));
        t.set(Var::Out, IndexSet::from_iter([1]));
        assert_eq!(t.get(Var::Out), IndexSet::single(1));
    }

    #[test]
    fn out_of_range_register_grows_on_write_reads_empty() {
        let mut t = TaintState::init(1, 0);
        assert_eq!(t.get(Var::Reg(9)), IndexSet::empty());
        t.set(Var::Reg(9), IndexSet::single(1));
        assert_eq!(t.get(Var::Reg(9)), IndexSet::single(1));
    }

    #[test]
    fn expr_taint_unions_over_vars() {
        let mut t = TaintState::init(2, 1);
        t.set(Var::Reg(1), IndexSet::single(2));
        let e = enf_flowchart::ast::add(Expr::x(1), Expr::r(1));
        assert_eq!(t.expr_taint(&e), IndexSet::from_iter([1, 2]));
        assert_eq!(t.expr_taint(&Expr::c(5)), IndexSet::empty());
    }

    #[test]
    fn ite_expression_carries_selector_taint() {
        let t = TaintState::init(2, 0);
        let e = enf_flowchart::ast::ite(Pred::eq(Expr::x(1), Expr::c(0)), Expr::c(1), Expr::x(2));
        assert_eq!(t.expr_taint(&e), IndexSet::from_iter([1, 2]));
    }

    #[test]
    fn halt_taint_is_union_of_y_and_pc() {
        let mut t = TaintState::init(2, 0);
        t.set(Var::Out, IndexSet::single(1));
        t.pc = IndexSet::single(2);
        assert_eq!(t.halt_taint(), IndexSet::from_iter([1, 2]));
    }
}
