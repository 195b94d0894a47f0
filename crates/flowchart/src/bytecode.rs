//! A register bytecode for flowcharts: compile once, step flat.
//!
//! The [`Stepper`](crate::stepper::Stepper) re-dispatches boxed AST
//! [`Expr`]/[`Node`] values on every executed box; for exhaustive sweeps
//! that dispatch (and the per-step `vars()` allocations of the taint
//! monitors) dominates. [`Compiled::new`] lowers a [`Flowchart`] to a flat
//! instruction array:
//!
//! * **variables → register slots** resolved at compile time — inputs,
//!   the output variable and `r1 … rm` share one dense `Vec<V>`, so no
//!   enum dispatch or bounds-growth happens at run time;
//! * **fused compare-and-branch** superinstructions for the common
//!   `if e op e'` decision shape, and single-instruction forms for
//!   constant/copy/binary assignments;
//! * a shared RPN **code pool** for the rare deep expressions, evaluated
//!   over a caller-owned stack of [`Compiled::stack_capacity`] rows, on one
//!   lane or on `L` lanes at once ([`Compiled::eval_lanes`]);
//! * **interpreter-exact i64 semantics** — wrapping arithmetic, total
//!   division (`x / 0 = x % 0 = 0`) and the same fuel accounting as
//!   [`interp::run`](crate::interp::run): the fuel check precedes each
//!   step, START and HALT both count.
//!
//! Instruction `i` corresponds 1:1 to node `n{i}`, so violation sites and
//! trace events report the same [`NodeId`]s as the AST engines.
//! [`Compiled::run_monitored`] drives any [`Monitor`] over the compiled
//! program while maintaining a shadow [`Store`], making the VM a drop-in
//! engine for trace and explain; the surveillance crate adds a fused
//! bitmask taint loop on top via [`Compiled::reads`].

use crate::ast::{CmpOp, Expr, Pred, Var};
use crate::graph::{Flowchart, Node, NodeId, Succ};
use crate::interp::{ExecConfig, Halted, Outcome, Store};
use crate::stepper::Monitor;
use enf_core::V;
use std::fmt::Write as _;

/// Index of a register slot in the VM's dense value array.
pub type Slot = u32;

/// Register slots and RPN stack rows a scalar run keeps on its own frame;
/// a program that needs more puts them on the heap.
const FRAME_ROWS: usize = 32;

/// A binary arithmetic operator with the interpreter's total semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Total division: `a / 0 = 0`, `MIN / -1 = MIN`.
    Div,
    /// Total remainder: `a % 0 = 0`, `MIN % -1 = 0`.
    Mod,
    /// Bitwise or.
    BOr,
    /// Bitwise and.
    BAnd,
}

impl BinOp {
    /// Applies the operator with the same totalization as [`Expr::eval`].
    #[inline]
    pub fn apply(self, a: V, b: V) -> V {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Mod => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::BOr => a | b,
            BinOp::BAnd => a & b,
        }
    }

    /// [`BinOp::apply`] on every lane, in place: `a[l] := a[l] op b[l]`.
    /// The operator is matched once, outside the lane loop, so the loop
    /// vectorizes where the target has the instruction.
    #[inline]
    pub fn apply_lanes<const L: usize>(self, a: &mut [V; L], b: Lanes<'_, L>) {
        match self {
            BinOp::Add => zip_lanes(a, b, V::wrapping_add),
            BinOp::Sub => zip_lanes(a, b, V::wrapping_sub),
            BinOp::Mul => zip_lanes(a, b, V::wrapping_mul),
            BinOp::Div => zip_lanes(a, b, |x, y| BinOp::Div.apply(x, y)),
            BinOp::Mod => zip_lanes(a, b, |x, y| BinOp::Mod.apply(x, y)),
            BinOp::BOr => zip_lanes(a, b, |x, y| x | y),
            BinOp::BAnd => zip_lanes(a, b, |x, y| x & y),
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::BOr => "|",
            BinOp::BAnd => "&",
        }
    }
}

/// [`CmpOp::apply`] on every lane, in place, as `1` or `0`: the lane-wise
/// twin of [`BinOp::apply_lanes`].
#[inline]
pub fn compare_lanes<const L: usize>(op: CmpOp, a: &mut [V; L], b: Lanes<'_, L>) {
    match op {
        CmpOp::Eq => zip_lanes(a, b, |x, y| V::from(x == y)),
        CmpOp::Ne => zip_lanes(a, b, |x, y| V::from(x != y)),
        CmpOp::Lt => zip_lanes(a, b, |x, y| V::from(x < y)),
        CmpOp::Le => zip_lanes(a, b, |x, y| V::from(x <= y)),
        CmpOp::Gt => zip_lanes(a, b, |x, y| V::from(x > y)),
        CmpOp::Ge => zip_lanes(a, b, |x, y| V::from(x >= y)),
    }
}

/// One operand on every lane: a row of lane values, read in place, or one
/// value on all lanes.
#[derive(Clone, Copy, Debug)]
pub enum Lanes<'a, const L: usize> {
    /// Lane `l` holds `row[l]`.
    Row(&'a [V; L]),
    /// Every lane holds this value.
    Splat(V),
}

impl<const L: usize> Lanes<'_, L> {
    /// The lanes as a row of their own.
    #[inline]
    pub fn row(self) -> [V; L] {
        match self {
            Lanes::Row(row) => *row,
            Lanes::Splat(v) => [v; L],
        }
    }
}

/// Whether `op` pops two operands and pushes one.
fn is_binary(op: EOp) -> bool {
    matches!(op, EOp::Bin(_) | EOp::Cmp(_) | EOp::And | EOp::Or)
}

/// A two-operand RPN op on every lane, in place: `a[l] := a[l] op b[l]`.
#[inline(always)]
fn binary<const L: usize>(op: EOp, a: &mut [V; L], b: Lanes<'_, L>) {
    match op {
        EOp::Bin(op) => op.apply_lanes(a, b),
        EOp::Cmp(op) => compare_lanes(op, a, b),
        EOp::And => zip_lanes(a, b, |x, y| V::from(x != 0 && y != 0)),
        EOp::Or => zip_lanes(a, b, |x, y| V::from(x != 0 || y != 0)),
        other => unreachable!("{other:?} is not a two-operand op"),
    }
}

/// `a[l] := f(a[l], b[l])` on every lane.
#[inline(always)]
fn zip_lanes<const L: usize>(a: &mut [V; L], b: Lanes<'_, L>, f: impl Fn(V, V) -> V) {
    match b {
        Lanes::Row(b) => {
            for (x, y) in a.iter_mut().zip(b) {
                *x = f(*x, *y);
            }
        }
        Lanes::Splat(y) => {
            for x in a.iter_mut() {
                *x = f(*x, y);
            }
        }
    }
}

/// `a[l] := f(a[l])` on every lane.
#[inline(always)]
fn map_lanes<const L: usize>(a: &mut [V; L], f: impl Fn(V) -> V) {
    for x in a.iter_mut() {
        *x = f(*x);
    }
}

/// A direct operand of a fused instruction: a slot read or an immediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// Read the current value of a register slot.
    Slot(Slot),
    /// An immediate constant.
    Const(V),
}

impl Operand {
    /// The operand's current value under `slots`.
    #[inline]
    pub fn value(self, slots: &[V]) -> V {
        match self {
            Operand::Slot(s) => slots[s as usize],
            Operand::Const(v) => v,
        }
    }

    /// The operand on every lane, where `slots[s][l]` is slot `s` in lane
    /// `l`.
    #[inline]
    pub fn lanes<const L: usize>(self, slots: &[[V; L]]) -> Lanes<'_, L> {
        match self {
            Operand::Slot(s) => Lanes::Row(&slots[s as usize]),
            Operand::Const(v) => Lanes::Splat(v),
        }
    }
}

/// One RPN op in the shared code pool (deep expressions/predicates only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EOp {
    /// Push an immediate.
    Push(V),
    /// Push the value of a slot.
    Load(Slot),
    /// Pop `a`, push `0 - a` (wrapping).
    Neg,
    /// Pop `b` then `a`, push `a op b`.
    Bin(BinOp),
    /// Pop `b` then `a`, push `(a op b) as i64` (1 or 0).
    Cmp(CmpOp),
    /// Pop `a`, push `(a == 0) as i64`.
    Not,
    /// Pop `b` then `a`, push `(a != 0 && b != 0) as i64`.
    And,
    /// Pop `b` then `a`, push `(a != 0 || b != 0) as i64`.
    Or,
    /// Pop `else`, `then`, `cond`; push `then` if `cond != 0` else `else`.
    Select,
}

/// A `[start, end)` range into the shared [`EOp`] code pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodeRange {
    /// First op of the fragment.
    pub start: u32,
    /// One past the last op.
    pub end: u32,
}

/// One bytecode instruction. Instruction index `i` is node `n{i}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inst {
    /// Unconditional fallthrough (START nodes).
    Jump {
        /// Next instruction.
        next: u32,
    },
    /// `slots[dst] := value`.
    AssignConst {
        /// Target slot.
        dst: Slot,
        /// Immediate to store.
        value: V,
        /// Next instruction.
        next: u32,
    },
    /// `slots[dst] := slots[src]`.
    AssignCopy {
        /// Target slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
        /// Next instruction.
        next: u32,
    },
    /// `slots[dst] := a op b` with direct operands.
    AssignBin {
        /// Target slot.
        dst: Slot,
        /// The operator.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Next instruction.
        next: u32,
    },
    /// `slots[dst] := eval(code)` for deep expressions.
    AssignCode {
        /// Target slot.
        dst: Slot,
        /// RPN fragment to evaluate.
        code: CodeRange,
        /// Next instruction.
        next: u32,
    },
    /// Fused compare-and-branch: `if a op b then then_ else else_`.
    CmpBr {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Branch target when the comparison holds.
        then_: u32,
        /// Branch target when it does not.
        else_: u32,
    },
    /// Branch on a deep predicate evaluated from the code pool.
    PredBr {
        /// RPN fragment; nonzero result means "taken".
        code: CodeRange,
        /// Branch target when taken.
        then_: u32,
        /// Branch target otherwise.
        else_: u32,
    },
    /// A `setpolicy` or `declassify` box: value-wise a fallthrough (the
    /// store is untouched), but policy-aware engines dispatch on the
    /// source [`Node`] at this index to update their label state.
    Policy {
        /// Next instruction.
        next: u32,
    },
    /// Return `slots[out]`.
    Halt,
}

/// A flowchart compiled to register bytecode.
///
/// Owns a clone of the source [`Flowchart`] so monitored runs can hand the
/// original [`Node`]/[`Expr`]/[`Pred`] values to [`Monitor`] hooks.
#[derive(Clone, Debug)]
pub struct Compiled {
    fc: Flowchart,
    arity: usize,
    slot_count: usize,
    out_slot: Slot,
    insts: Vec<Inst>,
    code: Vec<EOp>,
    /// Per-instruction `(start, end)` ranges into `read_pool`.
    reads: Vec<(u32, u32)>,
    /// Slots read by each instruction (sorted, deduped), for taint unions.
    read_pool: Vec<Slot>,
    stack_cap: usize,
}

impl Compiled {
    /// Compiles `fc` to bytecode. Panics only if the flowchart is
    /// malformed in ways [`Flowchart`] construction already rejects.
    pub fn new(fc: &Flowchart) -> Self {
        let arity = fc.arity();
        let max_reg = fc.max_reg();
        let slot_count = arity + 1 + max_reg;
        let out_slot = arity as Slot;
        let mut c = Compiled {
            fc: fc.clone(),
            arity,
            slot_count,
            out_slot,
            insts: Vec::with_capacity(fc.len()),
            code: Vec::new(),
            reads: Vec::with_capacity(fc.len()),
            read_pool: Vec::new(),
            stack_cap: 0,
        };
        for (id, node, succ) in fc.iter() {
            debug_assert_eq!(id.0, c.insts.len());
            let inst = match node {
                Node::Start => Inst::Jump {
                    next: one_succ(&succ),
                },
                Node::Assign { var, expr } => c.lower_assign(*var, expr, one_succ(&succ)),
                Node::Decision { pred } => {
                    let (then_, else_) = cond_succ(&succ);
                    c.lower_decision(pred, then_, else_)
                }
                Node::SetPolicy { .. } | Node::Declassify { .. } => Inst::Policy {
                    next: one_succ(&succ),
                },
                Node::Halt => Inst::Halt,
            };
            let start = c.read_pool.len() as u32;
            let mut slots: Vec<Slot> = match node {
                Node::Assign { expr, .. } => {
                    expr.vars().into_iter().map(|v| c.slot_of(v)).collect()
                }
                Node::Decision { pred } => pred.vars().into_iter().map(|v| c.slot_of(v)).collect(),
                _ => Vec::new(),
            };
            slots.sort_unstable();
            slots.dedup();
            c.read_pool.extend_from_slice(&slots);
            c.reads.push((start, c.read_pool.len() as u32));
            c.insts.push(inst);
        }
        c
    }

    /// The slot holding `var`'s value: inputs first, then `y`, then
    /// registers.
    pub fn slot_of(&self, var: Var) -> Slot {
        match var {
            Var::Input(i) => (i - 1) as Slot,
            Var::Out => self.out_slot,
            Var::Reg(j) => (self.arity + j) as Slot,
        }
    }

    /// The variable stored in `slot` (inverse of [`Compiled::slot_of`]).
    pub fn var_of(&self, slot: Slot) -> Var {
        let s = slot as usize;
        if s < self.arity {
            Var::Input(s + 1)
        } else if s == self.arity {
            Var::Out
        } else {
            Var::Reg(s - self.arity)
        }
    }

    /// The source flowchart.
    pub fn flowchart(&self) -> &Flowchart {
        &self.fc
    }

    /// Number of inputs the program takes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Total register slots (inputs + `y` + registers).
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// The slot holding the output variable `y`.
    pub fn out_slot(&self) -> Slot {
        self.out_slot
    }

    /// The instruction array (index `i` is node `n{i}`).
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The slots read by instruction `idx` (sorted, deduped) — the
    /// compile-time source set for taint unions.
    pub fn reads(&self, idx: usize) -> &[Slot] {
        let (s, e) = self.reads[idx];
        &self.read_pool[s as usize..e as usize]
    }

    /// Upper bound on the RPN evaluation stack depth: the rows of scratch
    /// [`Compiled::eval_code`] and [`Compiled::eval_lanes`] need.
    pub fn stack_capacity(&self) -> usize {
        self.stack_cap
    }

    fn lower_assign(&mut self, var: Var, expr: &Expr, next: u32) -> Inst {
        let dst = self.slot_of(var);
        if let Some(op) = self.operand_of(expr) {
            return match op {
                Operand::Const(value) => Inst::AssignConst { dst, value, next },
                Operand::Slot(src) => Inst::AssignCopy { dst, src, next },
            };
        }
        if let Some((op, a, b)) = self.binary_of(expr) {
            return Inst::AssignBin {
                dst,
                op,
                a,
                b,
                next,
            };
        }
        let code = self.emit_expr(expr);
        Inst::AssignCode { dst, code, next }
    }

    fn lower_decision(&mut self, pred: &Pred, then_: u32, else_: u32) -> Inst {
        if let Pred::Cmp(op, a, b) = pred {
            if let (Some(a), Some(b)) = (self.operand_of(a), self.operand_of(b)) {
                return Inst::CmpBr {
                    op: *op,
                    a,
                    b,
                    then_,
                    else_,
                };
            }
        }
        let code = self.emit_pred(pred);
        Inst::PredBr { code, then_, else_ }
    }

    fn operand_of(&self, e: &Expr) -> Option<Operand> {
        match e {
            Expr::Const(v) => Some(Operand::Const(*v)),
            Expr::Var(v) => Some(Operand::Slot(self.slot_of(*v))),
            _ => None,
        }
    }

    /// Recognizes one-operator expressions over simple operands, including
    /// `-x` as `0 - x` (wrapping negation is `0.wrapping_sub(x)`).
    fn binary_of(&self, e: &Expr) -> Option<(BinOp, Operand, Operand)> {
        let (op, a, b) = match e {
            Expr::Add(a, b) => (BinOp::Add, a, b),
            Expr::Sub(a, b) => (BinOp::Sub, a, b),
            Expr::Mul(a, b) => (BinOp::Mul, a, b),
            Expr::Div(a, b) => (BinOp::Div, a, b),
            Expr::Mod(a, b) => (BinOp::Mod, a, b),
            Expr::BOr(a, b) => (BinOp::BOr, a, b),
            Expr::BAnd(a, b) => (BinOp::BAnd, a, b),
            Expr::Neg(a) => {
                let a = self.operand_of(a)?;
                return Some((BinOp::Sub, Operand::Const(0), a));
            }
            _ => return None,
        };
        Some((op, self.operand_of(a)?, self.operand_of(b)?))
    }

    fn emit_expr(&mut self, e: &Expr) -> CodeRange {
        let start = self.code.len() as u32;
        let depth = self.push_expr(e);
        self.stack_cap = self.stack_cap.max(depth);
        CodeRange {
            start,
            end: self.code.len() as u32,
        }
    }

    fn emit_pred(&mut self, p: &Pred) -> CodeRange {
        let start = self.code.len() as u32;
        let depth = self.push_pred(p);
        self.stack_cap = self.stack_cap.max(depth);
        CodeRange {
            start,
            end: self.code.len() as u32,
        }
    }

    /// Emits RPN for `e`; returns the maximum stack depth of the fragment.
    fn push_expr(&mut self, e: &Expr) -> usize {
        match e {
            Expr::Const(v) => {
                self.code.push(EOp::Push(*v));
                1
            }
            Expr::Var(v) => {
                let s = self.slot_of(*v);
                self.code.push(EOp::Load(s));
                1
            }
            Expr::Neg(a) => {
                let d = self.push_expr(a);
                self.code.push(EOp::Neg);
                d
            }
            Expr::Add(a, b) => self.push_bin(a, b, EOp::Bin(BinOp::Add)),
            Expr::Sub(a, b) => self.push_bin(a, b, EOp::Bin(BinOp::Sub)),
            Expr::Mul(a, b) => self.push_bin(a, b, EOp::Bin(BinOp::Mul)),
            Expr::Div(a, b) => self.push_bin(a, b, EOp::Bin(BinOp::Div)),
            Expr::Mod(a, b) => self.push_bin(a, b, EOp::Bin(BinOp::Mod)),
            Expr::BOr(a, b) => self.push_bin(a, b, EOp::Bin(BinOp::BOr)),
            Expr::BAnd(a, b) => self.push_bin(a, b, EOp::Bin(BinOp::BAnd)),
            // Both arms are pure and total, so evaluating them eagerly and
            // selecting yields the same value as the interpreter's lazy arm
            // choice.
            Expr::Ite(p, t, f) => {
                let dp = self.push_pred(p);
                let dt = self.push_expr(t);
                let df = self.push_expr(f);
                self.code.push(EOp::Select);
                dp.max(1 + dt).max(2 + df)
            }
        }
    }

    fn push_bin(&mut self, a: &Expr, b: &Expr, op: EOp) -> usize {
        let da = self.push_expr(a);
        let db = self.push_expr(b);
        self.code.push(op);
        da.max(1 + db)
    }

    /// Emits RPN for `p` (result 1/0). `&&`/`||` evaluate both operands
    /// eagerly, which is value-identical because predicates are pure and
    /// total.
    fn push_pred(&mut self, p: &Pred) -> usize {
        match p {
            Pred::True => {
                self.code.push(EOp::Push(1));
                1
            }
            Pred::False => {
                self.code.push(EOp::Push(0));
                1
            }
            Pred::Cmp(op, a, b) => {
                let da = self.push_expr(a);
                let db = self.push_expr(b);
                self.code.push(EOp::Cmp(*op));
                da.max(1 + db)
            }
            Pred::Not(q) => {
                let d = self.push_pred(q);
                self.code.push(EOp::Not);
                d
            }
            Pred::And(a, b) => {
                let da = self.push_pred(a);
                let db = self.push_pred(b);
                self.code.push(EOp::And);
                da.max(1 + db)
            }
            Pred::Or(a, b) => {
                let da = self.push_pred(a);
                let db = self.push_pred(b);
                self.code.push(EOp::Or);
                da.max(1 + db)
            }
        }
    }

    /// Evaluates an RPN fragment against `slots`, with `stack` (at least
    /// [`Compiled::stack_capacity`] values) as scratch.
    #[inline]
    pub fn eval_code(&self, range: CodeRange, slots: &[V], stack: &mut [V]) -> V {
        let [v] = self.eval_lanes(range, slots.as_chunks().0, stack.as_chunks_mut().0);
        v
    }

    /// Evaluates an RPN fragment on `L` lanes at once: `slots[s][l]` is
    /// slot `s` in lane `l`, and `stack` is scratch of at least
    /// [`Compiled::stack_capacity`] rows. Every lane is evaluated: the
    /// operators are total, so no lane can fail and none depends on
    /// another, and a caller keeps the lanes it needs.
    #[inline]
    pub fn eval_lanes<const L: usize>(
        &self,
        range: CodeRange,
        slots: &[[V; L]],
        stack: &mut [[V; L]],
    ) -> [V; L] {
        let ops = &self.code[range.start as usize..range.end as usize];
        // `sp` is the depth; the compiler sized `stack` for the deepest
        // fragment, and every fragment leaves one row.
        let (mut sp, mut k) = (0, 0);
        // A push or load that feeds a two-operand op is read where it is,
        // not copied onto the stack first.
        macro_rules! operand {
            ($b:expr) => {{
                let b = $b;
                match ops.get(k) {
                    Some(&next) if is_binary(next) => {
                        k += 1;
                        binary(next, &mut stack[sp - 1], b);
                    }
                    _ => {
                        stack[sp] = b.row();
                        sp += 1;
                    }
                }
            }};
        }
        while k < ops.len() {
            let op = ops[k];
            k += 1;
            match op {
                EOp::Push(v) => operand!(Lanes::Splat(v)),
                EOp::Load(s) => operand!(Lanes::Row(&slots[s as usize])),
                EOp::Neg => map_lanes(&mut stack[sp - 1], V::wrapping_neg),
                EOp::Not => map_lanes(&mut stack[sp - 1], |a| V::from(a == 0)),
                EOp::Bin(_) | EOp::Cmp(_) | EOp::And | EOp::Or => {
                    sp -= 1;
                    let (lower, upper) = stack.split_at_mut(sp);
                    binary(op, &mut lower[sp - 1], Lanes::Row(&upper[0]));
                }
                EOp::Select => {
                    sp -= 2;
                    let (lower, upper) = stack.split_at_mut(sp);
                    let (then_, else_) = (&upper[0], &upper[1]);
                    for ((c, t), e) in lower[sp - 1].iter_mut().zip(then_).zip(else_) {
                        *c = if *c != 0 { *t } else { *e };
                    }
                }
            }
        }
        stack[0]
    }

    /// Executes the assignment parts of `inst`: returns
    /// `(dst, value, next)`. Panics if `inst` is not an assignment.
    #[inline]
    pub fn assign_parts(&self, inst: Inst, slots: &[V], stack: &mut [V]) -> (Slot, V, u32) {
        match inst {
            Inst::AssignConst { dst, value, next } => (dst, value, next),
            Inst::AssignCopy { dst, src, next } => (dst, slots[src as usize], next),
            Inst::AssignBin {
                dst,
                op,
                a,
                b,
                next,
            } => (dst, op.apply(a.value(slots), b.value(slots)), next),
            Inst::AssignCode { dst, code, next } => (dst, self.eval_code(code, slots, stack), next),
            other => panic!("assign_parts on non-assignment {other:?}"),
        }
    }

    /// Evaluates the branch parts of `inst`: returns
    /// `(taken, then_, else_)`. Panics if `inst` is not a branch.
    #[inline]
    pub fn branch_taken(&self, inst: Inst, slots: &[V], stack: &mut [V]) -> (bool, u32, u32) {
        match inst {
            Inst::CmpBr {
                op,
                a,
                b,
                then_,
                else_,
            } => (op.apply(a.value(slots), b.value(slots)), then_, else_),
            Inst::PredBr { code, then_, else_ } => {
                (self.eval_code(code, slots, stack) != 0, then_, else_)
            }
            other => panic!("branch_taken on non-branch {other:?}"),
        }
    }

    /// Runs the compiled program: exact [`interp::run`](crate::interp::run)
    /// semantics (outcome, step count, halt site).
    pub fn run(&self, inputs: &[V], cfg: &ExecConfig) -> Outcome {
        assert_eq!(
            inputs.len(),
            self.arity,
            "flowchart takes {} inputs, got {}",
            self.arity,
            inputs.len()
        );
        // Sweeps call `run` once per tuple; keep the register file and the
        // RPN stack on the frame for typical programs, so a call allocates
        // nothing.
        let mut slots_buf = [0 as V; FRAME_ROWS];
        let mut slots_heap: Vec<V>;
        let slots: &mut [V] = if self.slot_count <= FRAME_ROWS {
            &mut slots_buf[..self.slot_count]
        } else {
            slots_heap = vec![0 as V; self.slot_count];
            &mut slots_heap
        };
        slots[..self.arity].copy_from_slice(inputs);
        let mut stack_buf = [0 as V; FRAME_ROWS];
        let mut stack_heap: Vec<V>;
        let stack: &mut [V] = if self.stack_cap <= FRAME_ROWS {
            &mut stack_buf
        } else {
            stack_heap = vec![0 as V; self.stack_cap];
            &mut stack_heap
        };
        let mut pc = 0usize;
        let mut steps: u64 = 0;
        let fuel = cfg.fuel;
        while steps < fuel {
            steps += 1;
            match self.insts[pc] {
                Inst::Jump { next } => pc = next as usize,
                Inst::AssignConst { dst, value, next } => {
                    slots[dst as usize] = value;
                    pc = next as usize;
                }
                Inst::AssignCopy { dst, src, next } => {
                    slots[dst as usize] = slots[src as usize];
                    pc = next as usize;
                }
                Inst::AssignBin {
                    dst,
                    op,
                    a,
                    b,
                    next,
                } => {
                    slots[dst as usize] = op.apply(a.value(slots), b.value(slots));
                    pc = next as usize;
                }
                Inst::AssignCode { dst, code, next } => {
                    slots[dst as usize] = self.eval_code(code, slots, stack);
                    pc = next as usize;
                }
                Inst::CmpBr {
                    op,
                    a,
                    b,
                    then_,
                    else_,
                } => {
                    pc = if op.apply(a.value(slots), b.value(slots)) {
                        then_ as usize
                    } else {
                        else_ as usize
                    };
                }
                Inst::PredBr { code, then_, else_ } => {
                    pc = if self.eval_code(code, slots, stack) != 0 {
                        then_ as usize
                    } else {
                        else_ as usize
                    };
                }
                Inst::Policy { next } => pc = next as usize,
                Inst::Halt => {
                    return Outcome::Halted(Halted {
                        y: slots[self.out_slot as usize],
                        steps,
                        halt: NodeId(pc),
                    });
                }
            }
        }
        Outcome::OutOfFuel
    }

    /// Drives `monitor` through the compiled program with the exact hook
    /// sequence of [`Stepper::run`](crate::stepper::Stepper::run): a shadow
    /// [`Store`] mirrors the slot array so hooks observe AST-engine state.
    pub fn run_monitored<M: Monitor>(
        &self,
        inputs: &[V],
        fuel: u64,
        monitor: &mut M,
    ) -> M::Outcome {
        let mut store = Store::init(&self.fc, inputs);
        let mut slots = vec![0 as V; self.slot_count];
        slots[..self.arity].copy_from_slice(inputs);
        let mut stack_buf = [0 as V; FRAME_ROWS];
        let mut stack_heap: Vec<V>;
        let stack: &mut [V] = if self.stack_cap <= FRAME_ROWS {
            &mut stack_buf
        } else {
            stack_heap = vec![0 as V; self.stack_cap];
            &mut stack_heap
        };
        let mut pc = 0usize;
        let mut steps: u64 = 0;
        while steps < fuel {
            steps += 1;
            let at = NodeId(pc);
            let node = self.fc.node(at);
            monitor.on_step(steps, at, node);
            match self.insts[pc] {
                Inst::Jump { next } => pc = next as usize,
                inst @ (Inst::AssignConst { .. }
                | Inst::AssignCopy { .. }
                | Inst::AssignBin { .. }
                | Inst::AssignCode { .. }) => {
                    let Node::Assign { var, expr } = node else {
                        unreachable!("assignment instruction at non-assign node {at}")
                    };
                    monitor.on_assign(steps, at, *var, expr, &store);
                    let (dst, v, next) = self.assign_parts(inst, &slots, stack);
                    slots[dst as usize] = v;
                    store.set(*var, v);
                    pc = next as usize;
                }
                inst @ (Inst::CmpBr { .. } | Inst::PredBr { .. }) => {
                    let Node::Decision { pred } = node else {
                        unreachable!("branch instruction at non-decision node {at}")
                    };
                    if let Some(out) = monitor.on_decision(steps, at, pred, &store) {
                        return out;
                    }
                    let (taken, then_, else_) = self.branch_taken(inst, &slots, stack);
                    monitor.on_branch(steps, at, pred, taken);
                    pc = if taken {
                        then_ as usize
                    } else {
                        else_ as usize
                    };
                }
                Inst::Policy { next } => {
                    match node {
                        Node::SetPolicy { spec } => {
                            monitor.on_setpolicy(steps, at, *spec, &store);
                        }
                        Node::Declassify { var, from, to } => {
                            monitor.on_declassify(steps, at, *var, *from, *to, &store);
                        }
                        _ => unreachable!("policy instruction at non-policy node {at}"),
                    }
                    pc = next as usize;
                }
                Inst::Halt => return monitor.on_halt(steps, at, &store),
            }
        }
        monitor.on_fuel(steps)
    }

    /// Renders the bytecode as a readable listing (pinned by the CLI's
    /// `compile` golden test).
    pub fn listing(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "bytecode: {} insts, {} slots (arity {})",
            self.insts.len(),
            self.slot_count,
            self.arity
        );
        let mut slot_names = String::from("slots:");
        for slot in 0..self.slot_count {
            let _ = write!(slot_names, " s{}={}", slot, self.var_of(slot as Slot));
        }
        let _ = writeln!(s, "{slot_names}");
        for (i, inst) in self.insts.iter().enumerate() {
            let body = match *inst {
                Inst::Jump { next } => format!("start -> n{next}"),
                Inst::AssignConst { dst, value, next } => {
                    format!("s{dst} := {value} -> n{next}")
                }
                Inst::AssignCopy { dst, src, next } => format!("s{dst} := s{src} -> n{next}"),
                Inst::AssignBin {
                    dst,
                    op,
                    a,
                    b,
                    next,
                } => format!(
                    "s{dst} := {} {} {} -> n{next}",
                    operand_str(a),
                    op.symbol(),
                    operand_str(b)
                ),
                Inst::AssignCode { dst, code, next } => {
                    format!("s{dst} := [{}] -> n{next}", self.code_str(code))
                }
                Inst::CmpBr {
                    op,
                    a,
                    b,
                    then_,
                    else_,
                } => format!(
                    "if {} {op} {} -> n{then_} else n{else_}",
                    operand_str(a),
                    operand_str(b)
                ),
                Inst::PredBr { code, then_, else_ } => {
                    format!("if [{}] -> n{then_} else n{else_}", self.code_str(code))
                }
                Inst::Policy { next } => match self.fc.node(NodeId(i)) {
                    Node::SetPolicy { spec } => format!("setpolicy {spec} -> n{next}"),
                    Node::Declassify { var, from, to } => format!(
                        "{} -> n{next}",
                        crate::pretty::declassify_to_string(*var, from, to)
                    ),
                    _ => unreachable!("policy instruction at non-policy node n{i}"),
                },
                Inst::Halt => "halt".to_string(),
            };
            let _ = writeln!(s, "n{i}: {body}");
        }
        s
    }

    fn code_str(&self, range: CodeRange) -> String {
        let mut parts = Vec::new();
        for op in &self.code[range.start as usize..range.end as usize] {
            parts.push(match *op {
                EOp::Push(v) => format!("push {v}"),
                EOp::Load(s) => format!("load s{s}"),
                EOp::Neg => "neg".to_string(),
                EOp::Bin(b) => match b {
                    BinOp::Add => "add",
                    BinOp::Sub => "sub",
                    BinOp::Mul => "mul",
                    BinOp::Div => "div",
                    BinOp::Mod => "mod",
                    BinOp::BOr => "bor",
                    BinOp::BAnd => "band",
                }
                .to_string(),
                EOp::Cmp(c) => format!("cmp {c}"),
                EOp::Not => "not".to_string(),
                EOp::And => "and".to_string(),
                EOp::Or => "or".to_string(),
                EOp::Select => "select".to_string(),
            });
        }
        parts.join(", ")
    }
}

fn operand_str(op: Operand) -> String {
    match op {
        Operand::Slot(s) => format!("s{s}"),
        Operand::Const(v) => v.to_string(),
    }
}

fn one_succ(succ: &Succ) -> u32 {
    match succ {
        Succ::One(n) => n.0 as u32,
        other => panic!("expected one successor, found {other:?}"),
    }
}

fn cond_succ(succ: &Succ) -> (u32, u32) {
    match succ {
        Succ::Cond { then_, else_ } => (then_.0 as u32, else_.0 as u32),
        other => panic!("expected conditional successor, found {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{add, ite, sub};
    use crate::builder::Builder;
    use crate::generate::{random_flowchart, GenConfig};
    use crate::interp::run;
    use crate::parser::parse;
    use crate::stepper::{NullMonitor, Pair, Stepper, TraceMonitor};

    fn assert_same(fc: &Flowchart, inputs: &[V], cfg: &ExecConfig) {
        let compiled = Compiled::new(fc);
        let ast = run(fc, inputs, cfg);
        let vm = compiled.run(inputs, cfg);
        assert_eq!(ast, vm, "inputs {inputs:?}");
        // Monitored run: identical outcome and identical trace.
        let mut pair = Pair(NullMonitor, TraceMonitor::default());
        let (m_out, m_trace) = Stepper::new(fc).with_fuel(cfg.fuel).run(inputs, &mut pair);
        let mut pair = Pair(NullMonitor, TraceMonitor::default());
        let (v_out, v_trace) = compiled.run_monitored(inputs, cfg.fuel, &mut pair);
        assert_eq!(m_out, v_out, "inputs {inputs:?}");
        assert_eq!(m_trace, v_trace, "inputs {inputs:?}");
    }

    #[test]
    fn straight_line_matches_interpreter() {
        let fc = parse("program(2) { r1 := x1 + x2; y := r1 * 2; }").unwrap();
        for a in -3..=3 {
            for b in -3..=3 {
                assert_same(&fc, &[a, b], &ExecConfig::default());
            }
        }
    }

    #[test]
    fn branches_and_loops_match() {
        let fc = parse(
            "program(2) {
                r1 := 0;
                while x1 > 0 { r1 := r1 + x2; x1 := x1 - 1; }
                if r1 == 0 { y := 0; } else { y := r1; }
            }",
        )
        .unwrap();
        for a in -2..=5 {
            for b in -3..=3 {
                assert_same(&fc, &[a, b], &ExecConfig::default());
            }
        }
    }

    #[test]
    fn fuel_accounting_is_interpreter_exact() {
        let fc = parse("program(1) { while x1 != 0 { x1 := x1 - 1; } y := 1; }").unwrap();
        for fuel in 0..30 {
            assert_same(&fc, &[4], &ExecConfig::with_fuel(fuel));
            assert_same(&fc, &[-1], &ExecConfig::with_fuel(fuel));
        }
    }

    #[test]
    fn deep_expressions_and_edge_cases_match() {
        // Exercise Ite, Div/Mod totality (including MIN / -1), Neg, bit ops
        // and nested predicates — shapes the parser may not reach.
        let mut b = Builder::new(2);
        let a1 = b.assign(
            Var::Reg(1),
            ite(
                Pred::And(
                    Box::new(Pred::ne(Expr::x(1), Expr::c(0))),
                    Box::new(Pred::Not(Box::new(Pred::lt(Expr::x(2), Expr::c(0))))),
                ),
                Expr::Div(Box::new(Expr::c(V::MIN)), Box::new(Expr::x(1))),
                Expr::Mod(Box::new(Expr::c(V::MIN)), Box::new(Expr::x(1))),
            ),
        );
        let a2 = b.assign(
            Var::Reg(2),
            Expr::Neg(Box::new(add(
                Expr::BOr(Box::new(Expr::x(1)), Box::new(Expr::c(5))),
                Expr::BAnd(Box::new(Expr::x(2)), Box::new(Expr::c(12))),
            ))),
        );
        let a3 = b.assign(Var::Out, sub(Expr::r(1), Expr::r(2)));
        let h = b.halt();
        b.wire_start(a1);
        b.wire(a1, a2);
        b.wire(a2, a3);
        b.wire(a3, h);
        let fc = b.finish().unwrap();
        for a in [-2, -1, 0, 1, 2, V::MIN, V::MAX] {
            for b in [-1, 0, 1] {
                assert_same(&fc, &[a, b], &ExecConfig::default());
            }
        }
    }

    #[test]
    fn random_programs_match_at_many_inputs() {
        let gen = GenConfig::default();
        for seed in 0..120u64 {
            let fc = random_flowchart(seed, &gen);
            for a in -2..=2 {
                for b in -2..=2 {
                    assert_same(&fc, &[a, b], &ExecConfig::with_fuel(10_000));
                }
            }
        }
    }

    #[test]
    fn fused_compare_and_branch_is_used() {
        let fc = parse("program(1) { if x1 == 0 { y := 1; } else { y := 2; } }").unwrap();
        let c = Compiled::new(&fc);
        assert!(c
            .insts()
            .iter()
            .any(|i| matches!(i, Inst::CmpBr { op: CmpOp::Eq, .. })));
        // No code pool needed for this program.
        assert!(c.code.is_empty());
    }

    #[test]
    fn reads_report_source_slots() {
        let fc = parse("program(2) { y := x1 + x2; }").unwrap();
        let c = Compiled::new(&fc);
        // Node n1 is the assignment; it reads slots 0 and 1 (x1, x2).
        assert_eq!(c.reads(1), &[0, 1]);
        assert_eq!(c.var_of(0), Var::Input(1));
        assert_eq!(c.var_of(c.out_slot()), Var::Out);
    }

    #[test]
    fn listing_is_stable() {
        let fc = parse("program(1) { if x1 == 0 { y := 1; } else { y := x1; } }").unwrap();
        let s = Compiled::new(&fc).listing();
        assert!(s.starts_with("bytecode: "));
        assert!(s.contains("slots: s0=x1 s1=y"));
        assert!(s.contains("if s0 == 0 -> n"));
        assert!(s.contains(":= 1 -> n"));
        assert!(s.contains("halt"));
    }

    #[test]
    fn arity_mismatch_panics_like_interpreter() {
        let fc = parse("program(2) { y := x1; }").unwrap();
        let c = Compiled::new(&fc);
        let err = std::panic::catch_unwind(|| c.run(&[1], &ExecConfig::default())).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("flowchart takes 2 inputs, got 1"), "{msg}");
    }
}
