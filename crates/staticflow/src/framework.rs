//! The generic monotone-framework solver every analysis in this crate
//! runs on.
//!
//! A dataflow analysis is described by a [`DataflowProblem`]: a lattice of
//! facts (given by [`DataflowProblem::bottom`] and the join operation), a
//! direction, boundary facts, and an *edge-sensitive* transfer function
//! [`DataflowProblem::flow`]. The solver ([`solve`]) runs a worklist in
//! reverse-postorder priority to the least fixed point.
//!
//! Termination follows from the standard monotone-framework argument: every
//! node's fact only ever moves up its lattice (joins never shrink a fact),
//! and every lattice used here has finite height — [`IndexSet`]-based taint
//! environments are finite powersets, and the interval domain in
//! [`crate::value`] clamps its bounds to a finite menu. A node is re-queued
//! only when its fact strictly grew, so the solver performs at most
//! `nodes × lattice height` transfer applications.
//!
//! Adding a new analysis means implementing [`DataflowProblem`] — see
//! DESIGN.md §"The monotone framework" for a walkthrough. The five in-tree
//! instances are the one may-taint problem every taint certifier solves
//! ([`crate::dataflow`]), the values ([`crate::value`]), relational
//! agreement ([`crate::relational`]), and must-taint and liveness
//! ([`mod@crate::lint`]). A new taint certifier passes its refinement to
//! the may-taint problem rather than adding a sixth.
//!
//! [`IndexSet`]: enf_core::IndexSet

use enf_flowchart::analysis::predecessors;
use enf_flowchart::graph::{Flowchart, NodeId};
use std::collections::BTreeSet;

/// Direction facts propagate in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Facts flow from START toward HALT along successor edges.
    Forward,
    /// Facts flow from HALT toward START along predecessor edges.
    Backward,
}

/// A dataflow analysis the solver can run.
///
/// The solver maintains one fact per node — the fact *at entry* for forward
/// problems, *at exit* (equivalently, the live/backward fact) for backward
/// problems — and propagates along edges:
///
/// * forward: processing node `n` calls [`flow`](Self::flow) once per
///   successor edge and joins each result into the successor's fact;
/// * backward: processing node `n` calls [`flow`](Self::flow) once per
///   *predecessor* edge; the implementation applies the predecessor's
///   transfer to `n`'s fact.
///
/// Requirements for the fixed point to exist and be reached:
///
/// * `join` must be a semilattice join (idempotent, commutative,
///   associative) and return `true` iff the target strictly grew;
/// * `flow` must be monotone in `fact`;
/// * the lattice must have finite height.
pub trait DataflowProblem {
    /// The lattice of per-node facts.
    type Fact: Clone;

    /// Which way facts propagate.
    fn direction(&self) -> Direction {
        Direction::Forward
    }

    /// The least fact, assigned to every node before solving.
    fn bottom(&self, fc: &Flowchart) -> Self::Fact;

    /// Boundary fact seeded (joined) at `n` before solving — typically
    /// `Some` only at START for forward problems and at HALT nodes for
    /// backward ones.
    fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<Self::Fact>;

    /// Joins `from` into `into`, returning whether `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// Transfers `fact` (the solver's fact at `n`) along the `edge`-th
    /// outgoing edge to `to` — the `edge`-th successor for forward
    /// problems, the `edge`-th predecessor for backward ones. Returning
    /// `None` declares the edge to contribute nothing (used by
    /// [`crate::value`] to prune statically infeasible branches).
    fn flow(
        &self,
        fc: &Flowchart,
        n: NodeId,
        edge: usize,
        to: NodeId,
        fact: &Self::Fact,
    ) -> Option<Self::Fact>;
}

/// The least fixed point of a [`DataflowProblem`].
#[derive(Clone, Debug)]
pub struct Solution<F> {
    /// The fact per node (index = node id).
    pub facts: Vec<F>,
    /// Transfer applications performed before convergence (a measure of
    /// solver work, reported by the benches).
    pub iterations: usize,
}

impl<F> Solution<F> {
    /// The fact at a node.
    pub fn fact(&self, n: NodeId) -> &F {
        &self.facts[n.0]
    }
}

/// Reverse postorder over the flowchart from START.
///
/// Nodes unreachable from START are appended afterwards in id order, so the
/// returned order always covers the whole node table.
pub fn reverse_postorder(fc: &Flowchart) -> Vec<NodeId> {
    let n = fc.len();
    let mut seen = vec![false; n];
    let mut post: Vec<NodeId> = Vec::with_capacity(n);
    // Iterative DFS keeping an explicit edge cursor per frame.
    let mut stack: Vec<(NodeId, usize)> = vec![(fc.start(), 0)];
    seen[fc.start().0] = true;
    while let Some((node, cursor)) = stack.pop() {
        let succs = fc.succ_list(node);
        if cursor < succs.len() {
            stack.push((node, cursor + 1));
            let next = succs[cursor];
            if !seen[next.0] {
                seen[next.0] = true;
                stack.push((next, 0));
            }
        } else {
            post.push(node);
        }
    }
    post.reverse();
    for (id, &was_seen) in seen.iter().enumerate() {
        if !was_seen {
            post.push(NodeId(id));
        }
    }
    post
}

/// Solves the problem with the default iteration order: reverse postorder
/// for forward problems, its reverse for backward ones.
pub fn solve<P: DataflowProblem>(fc: &Flowchart, problem: &P) -> Solution<P::Fact> {
    let mut order = reverse_postorder(fc);
    if problem.direction() == Direction::Backward {
        order.reverse();
    }
    solve_in_order(fc, problem, &order)
}

/// Solves the problem processing dirty nodes in the priority given by
/// `order` (which must mention every node exactly once).
///
/// The fixed point of a monotone problem is the *least* one and therefore
/// independent of `order`; only the iteration count varies. The framework
/// proptests exercise exactly this invariant with randomly permuted orders.
pub fn solve_in_order<P: DataflowProblem>(
    fc: &Flowchart,
    problem: &P,
    order: &[NodeId],
) -> Solution<P::Fact> {
    let n = fc.len();
    assert_eq!(order.len(), n, "iteration order must cover every node");
    let mut rank = vec![usize::MAX; n];
    for (r, id) in order.iter().enumerate() {
        assert_eq!(rank[id.0], usize::MAX, "duplicate node in iteration order");
        rank[id.0] = r;
    }

    let backward = problem.direction() == Direction::Backward;
    let preds = if backward {
        predecessors(fc)
    } else {
        Vec::new()
    };
    let edges = |id: NodeId| -> Vec<NodeId> {
        if backward {
            preds[id.0].clone()
        } else {
            fc.succ_list(id)
        }
    };

    let mut facts: Vec<P::Fact> = (0..n).map(|_| problem.bottom(fc)).collect();
    // Dirty set keyed by rank so the lowest-priority-number node pops first.
    let mut dirty: BTreeSet<usize> = BTreeSet::new();
    for id in 0..n {
        if let Some(seed) = problem.boundary(fc, NodeId(id)) {
            if problem.join(&mut facts[id], &seed) {
                dirty.insert(rank[id]);
            }
        }
    }

    let mut iterations = 0usize;
    while let Some(&r) = dirty.iter().next() {
        dirty.remove(&r);
        let id = order[r];
        for (edge, to) in edges(id).into_iter().enumerate() {
            iterations += 1;
            // Clone the source fact out so the (disjoint) target slot can
            // be borrowed mutably; facts are small (bitsets / interval
            // vectors) and self-loops alias otherwise.
            let fact = facts[id.0].clone();
            if let Some(out) = problem.flow(fc, id, edge, to, &fact) {
                if problem.join(&mut facts[to.0], &out) {
                    dirty.insert(rank[to.0]);
                }
            }
        }
    }

    Solution { facts, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enf_flowchart::graph::Node;
    use enf_flowchart::parse;

    /// Forward reachability as the simplest possible problem: fact = "can
    /// execution reach this node".
    struct Reach;

    impl DataflowProblem for Reach {
        type Fact = bool;

        fn bottom(&self, _fc: &Flowchart) -> bool {
            false
        }

        fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<bool> {
            (n == fc.start()).then_some(true)
        }

        fn join(&self, into: &mut bool, from: &bool) -> bool {
            let grew = *from && !*into;
            *into |= *from;
            grew
        }

        fn flow(
            &self,
            _fc: &Flowchart,
            _n: NodeId,
            _edge: usize,
            _to: NodeId,
            fact: &bool,
        ) -> Option<bool> {
            Some(*fact)
        }
    }

    /// Backward "can reach HALT" — exercises the backward direction.
    struct ReachesHalt;

    impl DataflowProblem for ReachesHalt {
        type Fact = bool;

        fn direction(&self) -> Direction {
            Direction::Backward
        }

        fn bottom(&self, _fc: &Flowchart) -> bool {
            false
        }

        fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<bool> {
            matches!(fc.node(n), Node::Halt).then_some(true)
        }

        fn join(&self, into: &mut bool, from: &bool) -> bool {
            let grew = *from && !*into;
            *into |= *from;
            grew
        }

        fn flow(
            &self,
            _fc: &Flowchart,
            _n: NodeId,
            _edge: usize,
            _to: NodeId,
            fact: &bool,
        ) -> Option<bool> {
            Some(*fact)
        }
    }

    #[test]
    fn reverse_postorder_starts_at_start_and_covers_all() {
        let fc =
            parse("program(1) { if x1 == 0 { y := 1; } else { y := 2; } y := y + 1; }").unwrap();
        let order = reverse_postorder(&fc);
        assert_eq!(order.len(), fc.len());
        assert_eq!(order[0], fc.start());
        let mut sorted: Vec<usize> = order.iter().map(|n| n.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..fc.len()).collect::<Vec<_>>());
    }

    #[test]
    fn forward_reachability_matches_graph_reachability() {
        let fc = parse("program(2) { while x1 > 0 { x1 := x1 - 1; } y := x2; }").unwrap();
        let sol = solve(&fc, &Reach);
        let reach = enf_flowchart::analysis::reachable(&fc);
        for (id, _, _) in fc.iter() {
            assert_eq!(sol.facts[id.0], reach.contains(&id), "node {id}");
        }
    }

    #[test]
    fn backward_problem_reaches_start() {
        let fc = parse("program(1) { if x1 == 0 { y := 1; } else { y := 2; } }").unwrap();
        let sol = solve(&fc, &ReachesHalt);
        // Every node of this program can reach HALT.
        assert!(sol.facts.iter().all(|&b| b));
    }

    #[test]
    fn solution_is_order_independent() {
        let fc = parse(
            "program(2) { while x1 > 0 { x1 := x1 - 1; r1 := r1 + 1; } if r1 > 2 { y := 1; } }",
        )
        .unwrap();
        let baseline = solve(&fc, &Reach);
        // Worst-case order: plain id order and fully reversed.
        let ids: Vec<NodeId> = (0..fc.len()).map(NodeId).collect();
        let rev: Vec<NodeId> = ids.iter().rev().copied().collect();
        assert_eq!(solve_in_order(&fc, &Reach, &ids).facts, baseline.facts);
        assert_eq!(solve_in_order(&fc, &Reach, &rev).facts, baseline.facts);
    }

    #[test]
    #[should_panic(expected = "must cover every node")]
    fn short_order_is_rejected() {
        let fc = parse("program(0) { y := 1; }").unwrap();
        solve_in_order(&fc, &Reach, &[fc.start()]);
    }
}
