//! Taint state: one surveillance variable per program variable plus the
//! program counter's `C̄`.

use enf_core::IndexSet;
use enf_flowchart::ast::{Expr, Pred, Var};

/// The surveillance variables of a run: `x̄1 … x̄k`, `r̄1 … r̄m`, `ȳ`, `C̄`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaintState {
    inputs: Vec<IndexSet>,
    regs: Vec<IndexSet>,
    out: IndexSet,
    /// The program counter's surveillance variable.
    pub pc: IndexSet,
}

impl TaintState {
    /// Initializes per the paper's transformation (1): `x̄i = {i}`, every
    /// other surveillance variable empty.
    pub fn init(arity: usize, regs: usize) -> Self {
        TaintState {
            inputs: (1..=arity).map(IndexSet::single).collect(),
            regs: vec![IndexSet::empty(); regs],
            out: IndexSet::empty(),
            pc: IndexSet::empty(),
        }
    }

    /// The surveillance variable of `var`.
    pub fn get(&self, var: Var) -> IndexSet {
        match var {
            Var::Input(i) => self.inputs[i - 1],
            Var::Reg(j) => self.regs.get(j - 1).copied().unwrap_or_default(),
            Var::Out => self.out,
        }
    }

    /// Overwrites the surveillance variable of `var`.
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
    pub fn expr_taint(&self, e: &Expr) -> IndexSet {
        let mut t = IndexSet::empty();
        e.for_each_var(&mut |v| t.union_with(&self.get(v)));
        t
    }

    /// The taint of a predicate's variables.
    pub fn pred_taint(&self, p: &Pred) -> IndexSet {
        let mut t = IndexSet::empty();
        p.for_each_var(&mut |v| t.union_with(&self.get(v)));
        t
    }

    /// The HALT-time release check set `ȳ ∪ C̄`.
    pub fn halt_taint(&self) -> IndexSet {
        self.out.union(&self.pc)
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
