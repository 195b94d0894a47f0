//! The flowchart control-flow graph.
//!
//! A [`Flowchart`] is the paper's "finite connected directed graph whose
//! nodes are boxes": exactly one START box, assignment boxes with one
//! successor, decision boxes with a true- and a false-successor, and HALT
//! boxes with none. [`Flowchart::validate`] enforces the structural rules;
//! everything downstream (interpreter, instrumentation, static analysis)
//! assumes a validated graph.

use crate::ast::{Expr, Pred, Var};
use enf_core::IndexSet;
use std::fmt;

/// Identifier of a node within one flowchart.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The policy a `setpolicy` box installs: either a concrete allowed set
/// written in the program text, or a symbolic slot bound by an external
/// [schedule](enf_core::Schedule) at run/analysis time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PolicySpec {
    /// `setpolicy allow(i1, …, im);` — the allowed set is fixed in the
    /// program text.
    Concrete(IndexSet),
    /// `setpolicy p<n>;` — slot `n` (1-based) of the governing schedule;
    /// an unbound slot resolves to `allow()` (most restrictive).
    Slot(usize),
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::Concrete(s) => {
                write!(f, "allow(")?;
                for (n, i) in s.iter().enumerate() {
                    if n > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{i}")?;
                }
                write!(f, ")")
            }
            PolicySpec::Slot(n) => write!(f, "p{n}"),
        }
    }
}

/// A box of the flowchart.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Node {
    /// The unique START box.
    Start,
    /// Assignment box `v ← E(w1, …, ws)`.
    Assign {
        /// Assigned variable.
        var: Var,
        /// Right-hand side.
        expr: Expr,
    },
    /// Decision box branching on `B(w1, …, ws)`.
    Decision {
        /// The predicate tested.
        pred: Pred,
    },
    /// Policy-change box `setpolicy P;`: the active policy becomes `P`
    /// for the remainder of the run (until the next policy box).
    SetPolicy {
        /// The policy installed on traversal.
        spec: PolicySpec,
    },
    /// Declassification edge `declassify(v: A ~> B);`: the taint of `v`
    /// is relabeled `t ↦ (t \ A) ∪ B` on traversal; the store is
    /// untouched.
    Declassify {
        /// The relabeled variable.
        var: Var,
        /// Source indices sanctioned for release.
        from: IndexSet,
        /// Replacement indices (may be empty: full release).
        to: IndexSet,
    },
    /// A HALT box; the value of `y` on arrival is the program's output.
    Halt,
}

/// Successor structure of a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Succ {
    /// No successor (HALT).
    None,
    /// Single successor (START, assignment).
    One(NodeId),
    /// Two-way branch (decision): `then_` on true, `else_` on false.
    Cond {
        /// Successor when the predicate holds.
        then_: NodeId,
        /// Successor when it does not.
        else_: NodeId,
    },
}

/// Structural errors reported by [`Flowchart::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GraphError {
    /// The graph has no nodes.
    Empty,
    /// Node 0 is not the START box.
    StartNotFirst,
    /// More than one START box.
    MultipleStarts(NodeId),
    /// A successor points outside the node table.
    DanglingEdge(NodeId, NodeId),
    /// A node's successor shape does not match its kind.
    BadSuccessor(NodeId),
    /// No HALT box is reachable from START.
    NoReachableHalt,
    /// An input variable index is 0 or exceeds the arity.
    BadInputIndex(NodeId, usize),
    /// A register index is 0.
    BadRegIndex(NodeId),
    /// A policy index set mentions an index of 0 or above the arity.
    BadPolicyIndex(NodeId, usize),
    /// A policy slot index is 0.
    BadSlotIndex(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "flowchart has no nodes"),
            GraphError::StartNotFirst => write!(f, "node 0 must be the START box"),
            GraphError::MultipleStarts(n) => write!(f, "second START box at {n}"),
            GraphError::DanglingEdge(from, to) => {
                write!(f, "edge from {from} to nonexistent node {to}")
            }
            GraphError::BadSuccessor(n) => {
                write!(f, "node {n} has a successor shape unfit for its kind")
            }
            GraphError::NoReachableHalt => write!(f, "no HALT box reachable from START"),
            GraphError::BadInputIndex(n, i) => {
                write!(f, "node {n} uses input x{i} outside the program arity")
            }
            GraphError::BadRegIndex(n) => write!(f, "node {n} uses register r0"),
            GraphError::BadPolicyIndex(n, i) => {
                write!(f, "node {n} names input x{i} outside the program arity")
            }
            GraphError::BadSlotIndex(n) => write!(f, "node {n} uses policy slot p0"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A flowchart program.
///
/// Construct via [`crate::builder::Builder`], [`crate::structured::lower`]
/// or [`crate::parser::parse`]; all three return validated graphs.
#[derive(Clone, PartialEq, Debug)]
pub struct Flowchart {
    arity: usize,
    nodes: Vec<Node>,
    succs: Vec<Succ>,
}

impl Flowchart {
    /// Assembles a flowchart from raw parts without validating.
    ///
    /// Prefer [`Flowchart::new`], which validates.
    pub fn from_parts(arity: usize, nodes: Vec<Node>, succs: Vec<Succ>) -> Self {
        assert_eq!(
            nodes.len(),
            succs.len(),
            "node and successor tables differ in length"
        );
        Flowchart {
            arity,
            nodes,
            succs,
        }
    }

    /// Assembles and validates a flowchart.
    pub fn new(arity: usize, nodes: Vec<Node>, succs: Vec<Succ>) -> Result<Self, GraphError> {
        let fc = Self::from_parts(arity, nodes, succs);
        fc.validate()?;
        Ok(fc)
    }

    /// Number of input variables `k`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The START node's id (always node 0 in a validated graph).
    pub fn start(&self) -> NodeId {
        NodeId(0)
    }

    /// The node table.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// A node's successor structure.
    pub fn succ(&self, id: NodeId) -> Succ {
        self.succs[id.0]
    }

    /// Iterates `(id, node, succ)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node, Succ)> {
        self.nodes
            .iter()
            .zip(self.succs.iter())
            .enumerate()
            .map(|(i, (n, s))| (NodeId(i), n, *s))
    }

    /// The ids of all HALT nodes.
    pub fn halts(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n, _)| matches!(n, Node::Halt))
            .map(|(id, _, _)| id)
            .collect()
    }

    /// The largest register index mentioned anywhere, or 0 if none.
    pub fn max_reg(&self) -> usize {
        let mut max = 0;
        for node in &self.nodes {
            let vars: Vec<Var> = match node {
                Node::Assign { var, expr } => {
                    let mut v = expr.vars();
                    v.push(*var);
                    v
                }
                Node::Decision { pred } => pred.vars(),
                Node::Declassify { var, .. } => vec![*var],
                _ => Vec::new(),
            };
            for v in vars {
                if let Var::Reg(j) = v {
                    max = max.max(j);
                }
            }
        }
        max
    }

    /// The policy slots mentioned by `setpolicy` boxes, ascending and
    /// deduplicated. Empty for programs whose policy boxes are all
    /// concrete (or absent).
    pub fn policy_slots(&self) -> Vec<usize> {
        let mut slots: Vec<usize> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::SetPolicy {
                    spec: PolicySpec::Slot(s),
                } => Some(*s),
                _ => None,
            })
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Whether the program contains any `setpolicy` or `declassify` box.
    pub fn has_policy_nodes(&self) -> bool {
        self.nodes
            .iter()
            .any(|n| matches!(n, Node::SetPolicy { .. } | Node::Declassify { .. }))
    }

    /// A stable fingerprint of the program: FNV-1a over its canonical
    /// pretty-printed source. Two flowcharts that print identically — same
    /// boxes, same order, same expressions — share a fingerprint, so audit
    /// records and caches can name a program without embedding its text.
    pub fn fingerprint(&self) -> u64 {
        let src = crate::pretty::flowchart_to_string(self);
        enf_core::fingerprint(src.bytes().map(u64::from))
    }

    /// Forward successors of a node as a list.
    pub fn succ_list(&self, id: NodeId) -> Vec<NodeId> {
        match self.succ(id) {
            Succ::None => vec![],
            Succ::One(n) => vec![n],
            Succ::Cond { then_, else_ } => vec![then_, else_],
        }
    }

    /// Checks every structural rule of the paper's flowchart definition.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        if !matches!(self.nodes[0], Node::Start) {
            return Err(GraphError::StartNotFirst);
        }
        for (id, node, succ) in self.iter() {
            if id.0 != 0 && matches!(node, Node::Start) {
                return Err(GraphError::MultipleStarts(id));
            }
            let shape_ok = matches!(
                (node, succ),
                (Node::Start, Succ::One(_))
                    | (Node::Assign { .. }, Succ::One(_))
                    | (Node::Decision { .. }, Succ::Cond { .. })
                    | (Node::SetPolicy { .. }, Succ::One(_))
                    | (Node::Declassify { .. }, Succ::One(_))
                    | (Node::Halt, Succ::None)
            );
            if !shape_ok {
                return Err(GraphError::BadSuccessor(id));
            }
            for t in self.succ_list(id) {
                if t.0 >= self.nodes.len() {
                    return Err(GraphError::DanglingEdge(id, t));
                }
            }
            let vars: Vec<Var> = match node {
                Node::Assign { var, expr } => {
                    let mut v = expr.vars();
                    v.push(*var);
                    v
                }
                Node::Decision { pred } => pred.vars(),
                Node::Declassify { var, .. } => vec![*var],
                _ => Vec::new(),
            };
            for v in vars {
                match v {
                    Var::Input(i) if i == 0 || i > self.arity => {
                        return Err(GraphError::BadInputIndex(id, i));
                    }
                    Var::Reg(0) => return Err(GraphError::BadRegIndex(id)),
                    _ => {}
                }
            }
            // Policy index sets may only name real inputs; slots are
            // 1-based like registers.
            match node {
                Node::SetPolicy {
                    spec: PolicySpec::Concrete(s),
                } => {
                    if let Some(i) = s.iter().find(|&i| i > self.arity) {
                        return Err(GraphError::BadPolicyIndex(id, i));
                    }
                }
                Node::SetPolicy {
                    spec: PolicySpec::Slot(0),
                } => return Err(GraphError::BadSlotIndex(id)),
                Node::Declassify { from, to, .. } => {
                    if let Some(i) = from.union(to).iter().find(|&i| i > self.arity) {
                        return Err(GraphError::BadPolicyIndex(id, i));
                    }
                }
                _ => {}
            }
            // Assignments to inputs are allowed by the paper's definition
            // (inputs are initialized registers); nothing to check.
        }
        // Some HALT must be reachable from START.
        let reach = crate::analysis::reachable(self);
        if !self.halts().iter().any(|h| reach.contains(h)) {
            return Err(GraphError::NoReachableHalt);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Pred};

    fn trivial() -> Flowchart {
        Flowchart::from_parts(
            1,
            vec![
                Node::Start,
                Node::Assign {
                    var: Var::Out,
                    expr: Expr::c(1),
                },
                Node::Halt,
            ],
            vec![Succ::One(NodeId(1)), Succ::One(NodeId(2)), Succ::None],
        )
    }

    #[test]
    fn trivial_flowchart_validates() {
        assert_eq!(trivial().validate(), Ok(()));
        assert_eq!(trivial().len(), 3);
        assert_eq!(trivial().halts(), vec![NodeId(2)]);
    }

    #[test]
    fn empty_graph_rejected() {
        let fc = Flowchart::from_parts(0, vec![], vec![]);
        assert_eq!(fc.validate(), Err(GraphError::Empty));
    }

    #[test]
    fn start_must_be_node_zero() {
        let fc = Flowchart::from_parts(
            0,
            vec![Node::Halt, Node::Start],
            vec![Succ::None, Succ::One(NodeId(0))],
        );
        assert_eq!(fc.validate(), Err(GraphError::StartNotFirst));
    }

    #[test]
    fn second_start_rejected() {
        let fc = Flowchart::from_parts(
            0,
            vec![Node::Start, Node::Start, Node::Halt],
            vec![Succ::One(NodeId(1)), Succ::One(NodeId(2)), Succ::None],
        );
        assert_eq!(fc.validate(), Err(GraphError::MultipleStarts(NodeId(1))));
    }

    #[test]
    fn dangling_edge_rejected() {
        let fc = Flowchart::from_parts(
            0,
            vec![Node::Start, Node::Halt],
            vec![Succ::One(NodeId(9)), Succ::None],
        );
        assert_eq!(
            fc.validate(),
            Err(GraphError::DanglingEdge(NodeId(0), NodeId(9)))
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        // Decision with a single successor.
        let fc = Flowchart::from_parts(
            1,
            vec![Node::Start, Node::Decision { pred: Pred::True }, Node::Halt],
            vec![Succ::One(NodeId(1)), Succ::One(NodeId(2)), Succ::None],
        );
        assert_eq!(fc.validate(), Err(GraphError::BadSuccessor(NodeId(1))));
    }

    #[test]
    fn halt_with_successor_rejected() {
        let fc = Flowchart::from_parts(
            0,
            vec![Node::Start, Node::Halt],
            vec![Succ::One(NodeId(1)), Succ::One(NodeId(0))],
        );
        assert_eq!(fc.validate(), Err(GraphError::BadSuccessor(NodeId(1))));
    }

    #[test]
    fn input_index_out_of_arity_rejected() {
        let fc = Flowchart::from_parts(
            1,
            vec![
                Node::Start,
                Node::Assign {
                    var: Var::Out,
                    expr: Expr::x(2),
                },
                Node::Halt,
            ],
            vec![Succ::One(NodeId(1)), Succ::One(NodeId(2)), Succ::None],
        );
        assert_eq!(fc.validate(), Err(GraphError::BadInputIndex(NodeId(1), 2)));
    }

    #[test]
    fn register_zero_rejected() {
        let fc = Flowchart::from_parts(
            0,
            vec![
                Node::Start,
                Node::Assign {
                    var: Var::Reg(0),
                    expr: Expr::c(0),
                },
                Node::Halt,
            ],
            vec![Succ::One(NodeId(1)), Succ::One(NodeId(2)), Succ::None],
        );
        assert_eq!(fc.validate(), Err(GraphError::BadRegIndex(NodeId(1))));
    }

    #[test]
    fn unreachable_halt_rejected() {
        // START loops on a decision forever; HALT exists but unreachable.
        let fc = Flowchart::from_parts(
            0,
            vec![Node::Start, Node::Decision { pred: Pred::True }, Node::Halt],
            vec![
                Succ::One(NodeId(1)),
                Succ::Cond {
                    then_: NodeId(1),
                    else_: NodeId(1),
                },
                Succ::None,
            ],
        );
        assert_eq!(fc.validate(), Err(GraphError::NoReachableHalt));
    }

    #[test]
    fn max_reg_scans_all_nodes() {
        let fc = Flowchart::from_parts(
            1,
            vec![
                Node::Start,
                Node::Assign {
                    var: Var::Reg(3),
                    expr: Expr::r(7),
                },
                Node::Decision {
                    pred: Pred::eq(Expr::r(5), Expr::c(0)),
                },
                Node::Halt,
            ],
            vec![
                Succ::One(NodeId(1)),
                Succ::One(NodeId(2)),
                Succ::Cond {
                    then_: NodeId(3),
                    else_: NodeId(3),
                },
                Succ::None,
            ],
        );
        assert_eq!(fc.max_reg(), 7);
    }

    #[test]
    fn max_reg_counts_a_register_only_declassified() {
        let fc = crate::parse("program(1) { declassify(r3: 1 ~> ); y := x1; }").unwrap();
        assert_eq!(fc.max_reg(), 3);
    }

    #[test]
    fn succ_list_shapes() {
        let fc = trivial();
        assert_eq!(fc.succ_list(NodeId(0)), vec![NodeId(1)]);
        assert_eq!(fc.succ_list(NodeId(2)), Vec::<NodeId>::new());
    }

    #[test]
    fn display_of_errors() {
        let e = GraphError::DanglingEdge(NodeId(1), NodeId(5));
        assert!(e.to_string().contains("n1"));
        assert!(e.to_string().contains("n5"));
    }
}
