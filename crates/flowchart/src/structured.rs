//! Structured statements and their lowering to flowchart graphs.
//!
//! The paper's transforms (Section 4) operate on "single-entry and
//! single-exit structures" — `if then else` and `while` constructs. This
//! module provides those constructs as a structured AST ([`Stmt`]) and a
//! [`lower`] function producing the corresponding flowchart. The parser
//! builds this AST; the transform library in `enf-static` rewrites it.

use crate::ast::{Expr, Pred, Var};
use crate::graph::{Flowchart, GraphError, Node, NodeId, PolicySpec, Succ};
use enf_core::IndexSet;

/// A structured statement.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// `v := E`.
    Assign(Var, Expr),
    /// `if B { … } else { … }`.
    If(Pred, Vec<Stmt>, Vec<Stmt>),
    /// `while B { … }`.
    While(Pred, Vec<Stmt>),
    /// `setpolicy P;` — install a new active policy.
    SetPolicy(PolicySpec),
    /// `declassify(v: A ~> B);` — relabel `v`'s taint.
    Declassify(Var, IndexSet, IndexSet),
    /// Explicit early `halt`.
    Halt,
    /// No-op.
    Skip,
}

impl Stmt {
    /// Builds an assignment statement.
    pub fn assign(var: Var, expr: Expr) -> Stmt {
        Stmt::Assign(var, expr)
    }

    /// Builds an `if` with no else-branch.
    pub fn if_then(pred: Pred, then_: Vec<Stmt>) -> Stmt {
        Stmt::If(pred, then_, Vec::new())
    }
}

/// A structured program: arity plus statement list.
#[derive(Clone, PartialEq, Debug)]
pub struct StructuredProgram {
    /// Number of inputs `k`.
    pub arity: usize,
    /// Program body, executed in order; falling off the end halts.
    pub body: Vec<Stmt>,
}

impl StructuredProgram {
    /// Creates a structured program.
    pub fn new(arity: usize, body: Vec<Stmt>) -> Self {
        StructuredProgram { arity, body }
    }

    /// Lowers to a validated flowchart.
    pub fn lower(&self) -> Result<Flowchart, GraphError> {
        lower(self)
    }
}

/// A dangling forward edge awaiting its target.
#[derive(Clone, Copy, Debug)]
enum Patch {
    Only(NodeId),
    Then(NodeId),
    Else(NodeId),
}

struct Lowerer {
    nodes: Vec<Node>,
    succs: Vec<Succ>,
}

/// Entry/exit summary of a lowered statement sequence.
struct Fragment {
    /// First node of the fragment; `None` when the fragment is empty
    /// (pure pass-through).
    entry: Option<NodeId>,
    /// Dangling exits to be patched to whatever follows.
    exits: Vec<Patch>,
}

impl Lowerer {
    fn push(&mut self, node: Node, succ: Succ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        self.succs.push(succ);
        id
    }

    fn patch(&mut self, patches: &[Patch], target: NodeId) {
        for p in patches {
            match *p {
                Patch::Only(n) => self.succs[n.0] = Succ::One(target),
                Patch::Then(n) => {
                    if let Succ::Cond { else_, .. } = self.succs[n.0] {
                        self.succs[n.0] = Succ::Cond {
                            then_: target,
                            else_,
                        };
                    }
                }
                Patch::Else(n) => {
                    if let Succ::Cond { then_, .. } = self.succs[n.0] {
                        self.succs[n.0] = Succ::Cond {
                            then_,
                            else_: target,
                        };
                    }
                }
            }
        }
    }

    fn lower_stmts(&mut self, stmts: Vec<Stmt>) -> Fragment {
        let mut entry: Option<NodeId> = None;
        let mut open: Vec<Patch> = Vec::new();
        let mut first = true;
        for stmt in stmts {
            let frag = self.lower_stmt(stmt);
            if let Some(e) = frag.entry {
                if first {
                    entry = Some(e);
                    first = false;
                } else {
                    self.patch(&open, e);
                    open.clear();
                }
                open = frag.exits;
            } else {
                // Skip: nothing to wire.
                continue;
            }
            if open.is_empty() {
                // Statement never falls through (halt on all paths); the
                // rest of the sequence is dead and deliberately dropped.
                break;
            }
        }
        Fragment { entry, exits: open }
    }

    fn lower_stmt(&mut self, stmt: Stmt) -> Fragment {
        match stmt {
            Stmt::Skip => Fragment {
                entry: None,
                exits: Vec::new(),
            },
            Stmt::Assign(var, expr) => {
                let id = self.push(Node::Assign { var, expr }, Succ::None);
                Fragment {
                    entry: Some(id),
                    exits: vec![Patch::Only(id)],
                }
            }
            Stmt::SetPolicy(spec) => {
                let id = self.push(Node::SetPolicy { spec }, Succ::None);
                Fragment {
                    entry: Some(id),
                    exits: vec![Patch::Only(id)],
                }
            }
            Stmt::Declassify(var, from, to) => {
                let id = self.push(Node::Declassify { var, from, to }, Succ::None);
                Fragment {
                    entry: Some(id),
                    exits: vec![Patch::Only(id)],
                }
            }
            Stmt::Halt => {
                let id = self.push(Node::Halt, Succ::None);
                Fragment {
                    entry: Some(id),
                    exits: Vec::new(),
                }
            }
            Stmt::If(pred, then_body, else_body) => {
                let d = self.push(
                    Node::Decision { pred },
                    // Placeholder; patched below.
                    Succ::Cond {
                        then_: NodeId(0),
                        else_: NodeId(0),
                    },
                );
                let mut exits = Vec::new();
                let tf = self.lower_stmts(then_body);
                match tf.entry {
                    Some(e) => {
                        if let Succ::Cond { else_, .. } = self.succs[d.0] {
                            self.succs[d.0] = Succ::Cond { then_: e, else_ };
                        }
                        exits.extend(tf.exits);
                    }
                    None => exits.push(Patch::Then(d)),
                }
                let ef = self.lower_stmts(else_body);
                match ef.entry {
                    Some(e) => {
                        if let Succ::Cond { then_, .. } = self.succs[d.0] {
                            self.succs[d.0] = Succ::Cond { then_, else_: e };
                        }
                        exits.extend(ef.exits);
                    }
                    None => exits.push(Patch::Else(d)),
                }
                Fragment {
                    entry: Some(d),
                    exits,
                }
            }
            Stmt::While(pred, body) => {
                let d = self.push(
                    Node::Decision { pred },
                    Succ::Cond {
                        then_: NodeId(0),
                        else_: NodeId(0),
                    },
                );
                let bf = self.lower_stmts(body);
                match bf.entry {
                    Some(e) => {
                        if let Succ::Cond { else_, .. } = self.succs[d.0] {
                            self.succs[d.0] = Succ::Cond { then_: e, else_ };
                        }
                        // Back-edges to the loop header.
                        self.patch(&bf.exits, d);
                    }
                    None => {
                        // Empty body: `while p {}` spins on the test.
                        if let Succ::Cond { else_, .. } = self.succs[d.0] {
                            self.succs[d.0] = Succ::Cond { then_: d, else_ };
                        }
                    }
                }
                Fragment {
                    entry: Some(d),
                    exits: vec![Patch::Else(d)],
                }
            }
        }
    }
}

/// Lowers a structured program to a validated flowchart.
///
/// Node 0 is START; falling off the end of the body reaches an implicit
/// HALT box.
pub fn lower(p: &StructuredProgram) -> Result<Flowchart, GraphError> {
    lower_owned(p.clone())
}

/// [`lower`], moving the program's expressions into the boxes instead of
/// cloning them: the parser's one lowering of the tree it built.
pub(crate) fn lower_owned(p: StructuredProgram) -> Result<Flowchart, GraphError> {
    let mut low = Lowerer {
        nodes: vec![Node::Start],
        succs: vec![Succ::One(NodeId(0))],
    };
    let frag = low.lower_stmts(p.body);
    match frag.entry {
        Some(e) => {
            low.succs[0] = Succ::One(e);
            if !frag.exits.is_empty() {
                let halt = low.push(Node::Halt, Succ::None);
                low.patch(&frag.exits, halt);
            }
        }
        None => {
            // Empty program: START straight to HALT; output is y's initial 0.
            let halt = low.push(Node::Halt, Succ::None);
            low.succs[0] = Succ::One(halt);
        }
    }
    Flowchart::new(p.arity, low.nodes, low.succs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run, ExecConfig};

    fn exec(p: &StructuredProgram, inputs: &[i64]) -> i64 {
        let fc = lower(p).expect("lowering failed");
        run(&fc, inputs, &ExecConfig::default()).unwrap_halted().y
    }

    #[test]
    fn empty_program_outputs_zero() {
        let p = StructuredProgram::new(1, vec![]);
        assert_eq!(exec(&p, &[5]), 0);
    }

    #[test]
    fn straight_line_sequence() {
        let p = StructuredProgram::new(
            1,
            vec![
                Stmt::assign(Var::Out, Expr::x(1)),
                Stmt::assign(Var::Out, crate::ast::add(Expr::y(), Expr::c(1))),
            ],
        );
        assert_eq!(exec(&p, &[41]), 42);
    }

    #[test]
    fn if_both_branches() {
        let p = StructuredProgram::new(
            1,
            vec![Stmt::If(
                Pred::eq(Expr::x(1), Expr::c(0)),
                vec![Stmt::assign(Var::Out, Expr::c(10))],
                vec![Stmt::assign(Var::Out, Expr::c(20))],
            )],
        );
        assert_eq!(exec(&p, &[0]), 10);
        assert_eq!(exec(&p, &[1]), 20);
    }

    #[test]
    fn if_with_empty_then_branch() {
        let p = StructuredProgram::new(
            1,
            vec![
                Stmt::assign(Var::Out, Expr::c(7)),
                Stmt::If(
                    Pred::eq(Expr::x(1), Expr::c(0)),
                    vec![],
                    vec![Stmt::assign(Var::Out, Expr::c(20))],
                ),
            ],
        );
        assert_eq!(exec(&p, &[0]), 7);
        assert_eq!(exec(&p, &[1]), 20);
    }

    #[test]
    fn if_with_empty_else_branch() {
        let p = StructuredProgram::new(
            1,
            vec![
                Stmt::assign(Var::Out, Expr::x(1)),
                Stmt::if_then(
                    Pred::eq(Expr::x(1), Expr::c(0)),
                    vec![Stmt::assign(Var::Out, Expr::c(99))],
                ),
            ],
        );
        assert_eq!(exec(&p, &[0]), 99);
        assert_eq!(exec(&p, &[3]), 3);
    }

    #[test]
    fn while_counts_down() {
        let p = StructuredProgram::new(
            1,
            vec![
                Stmt::assign(Var::Reg(1), Expr::x(1)),
                Stmt::While(
                    Pred::gt(Expr::r(1), Expr::c(0)),
                    vec![
                        Stmt::assign(Var::Reg(1), crate::ast::sub(Expr::r(1), Expr::c(1))),
                        Stmt::assign(Var::Out, crate::ast::add(Expr::y(), Expr::c(2))),
                    ],
                ),
            ],
        );
        assert_eq!(exec(&p, &[0]), 0);
        assert_eq!(exec(&p, &[4]), 8);
    }

    #[test]
    fn nested_structures() {
        // y := sum over i in 1..=x1 of (i even ? 1 : 0)
        let p = StructuredProgram::new(
            1,
            vec![
                Stmt::assign(Var::Reg(1), Expr::x(1)),
                Stmt::While(
                    Pred::gt(Expr::r(1), Expr::c(0)),
                    vec![
                        Stmt::If(
                            Pred::eq(
                                Expr::Mod(Box::new(Expr::r(1)), Box::new(Expr::c(2))),
                                Expr::c(0),
                            ),
                            vec![Stmt::assign(
                                Var::Out,
                                crate::ast::add(Expr::y(), Expr::c(1)),
                            )],
                            vec![],
                        ),
                        Stmt::assign(Var::Reg(1), crate::ast::sub(Expr::r(1), Expr::c(1))),
                    ],
                ),
            ],
        );
        assert_eq!(exec(&p, &[5]), 2);
        assert_eq!(exec(&p, &[6]), 3);
    }

    #[test]
    fn early_halt_stops_execution() {
        let p = StructuredProgram::new(
            1,
            vec![
                Stmt::assign(Var::Out, Expr::c(1)),
                Stmt::Halt,
                Stmt::assign(Var::Out, Expr::c(2)),
            ],
        );
        assert_eq!(exec(&p, &[0]), 1);
    }

    #[test]
    fn halt_inside_branch() {
        let p = StructuredProgram::new(
            1,
            vec![
                Stmt::If(
                    Pred::eq(Expr::x(1), Expr::c(0)),
                    vec![Stmt::assign(Var::Out, Expr::c(1)), Stmt::Halt],
                    vec![],
                ),
                Stmt::assign(Var::Out, Expr::c(2)),
            ],
        );
        assert_eq!(exec(&p, &[0]), 1);
        assert_eq!(exec(&p, &[5]), 2);
    }

    #[test]
    fn skip_is_identity() {
        let p = StructuredProgram::new(
            1,
            vec![Stmt::Skip, Stmt::assign(Var::Out, Expr::c(3)), Stmt::Skip],
        );
        assert_eq!(exec(&p, &[0]), 3);
    }

    #[test]
    fn empty_while_body_with_false_guard_exits() {
        let p = StructuredProgram::new(
            1,
            vec![
                Stmt::While(Pred::False, vec![]),
                Stmt::assign(Var::Out, Expr::c(9)),
            ],
        );
        assert_eq!(exec(&p, &[0]), 9);
    }

    #[test]
    fn lowered_graphs_validate() {
        let p = StructuredProgram::new(
            2,
            vec![Stmt::If(
                Pred::eq(Expr::x(1), Expr::c(0)),
                vec![Stmt::While(
                    Pred::gt(Expr::x(2), Expr::y()),
                    vec![Stmt::assign(
                        Var::Out,
                        crate::ast::add(Expr::y(), Expr::c(1)),
                    )],
                )],
                vec![Stmt::Halt],
            )],
        );
        let fc = lower(&p).unwrap();
        assert!(fc.validate().is_ok());
    }
}
