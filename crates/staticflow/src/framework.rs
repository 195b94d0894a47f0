//! The generic monotone-framework solver every analysis in this crate
//! runs on.
//!
//! A dataflow analysis is described by a [`DataflowProblem`]: a lattice of
//! facts (given by [`DataflowProblem::bottom`] and the join operation), a
//! direction, boundary facts, and an *edge-sensitive* transfer function
//! [`DataflowProblem::flow`]. The solver ([`solve`]) runs a worklist in
//! reverse-postorder priority to a fixed point. The worklist is a bitset
//! over iteration ranks, so the next node popped is always the least dirty
//! one in the order.
//!
//! Allocation: the solver builds ⊥ once and clones it into every node and
//! into one scratch fact, which every transfer overwrites in place (its
//! `clone_from` reuses the buffers the scratch already holds) before the
//! solver joins it into the target. A solve therefore allocates per node,
//! not per transfer, however many passes its loops take.
//!
//! Termination: every node's fact only ever moves up its lattice (joins
//! never shrink a fact), and a node is re-queued only when its fact
//! strictly grew. Where an edge *retreats* in the iteration order — at a
//! loop head, for reverse postorder — the solver combines with
//! [`DataflowProblem::widen`] instead of the join. The default widening is
//! the join, which is enough for the finite powersets of the taint
//! problems ([`IndexSet`]-based environments): they perform at most
//! `nodes × lattice height` transfer applications. The interval domain in
//! [`crate::value`] widens each growing bound to the next of a few
//! thresholds, so a loop counter takes a bounded number of passes however
//! far it counts; [`narrow`] then runs one descending pass to win back
//! precision.
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
use enf_flowchart::graph::{Flowchart, NodeId, Succ};

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
/// Requirements for a fixed point to exist and be reached:
///
/// * `join` must be a semilattice join (idempotent, commutative,
///   associative) and return `true` iff the target strictly grew;
/// * `flow` must be monotone in `fact`;
/// * the lattice must have finite height, or [`widen`](Self::widen) must
///   make every ascending chain through it finite.
pub trait DataflowProblem {
    /// The lattice of per-node facts.
    type Fact: Clone;

    /// Which way facts propagate.
    fn direction(&self) -> Direction {
        Direction::Forward
    }

    /// The least fact, assigned to every node before solving. The solver
    /// builds it once per solve and clones it into every node and into
    /// the scratch fact [`flow`](Self::flow) writes to.
    fn bottom(&self, fc: &Flowchart) -> Self::Fact;

    /// Boundary fact seeded (joined) at `n` before solving — typically
    /// `Some` only at START for forward problems and at HALT nodes for
    /// backward ones.
    fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<Self::Fact>;

    /// Joins `from` into `into`, returning whether `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// Combines `from` into `into` across an edge that retreats in the
    /// iteration order (into a loop head, for reverse postorder), returning
    /// whether `into` changed. The result must contain the join. The
    /// default is the join itself, under which the solution is the least
    /// fixed point whatever the order.
    fn widen(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
        self.join(into, from)
    }

    /// Transfers `fact` (the solver's fact at `n`) along the `edge`-th
    /// outgoing edge to `to` — the `edge`-th successor for forward
    /// problems, the `edge`-th predecessor for backward ones — writing the
    /// result into `out`, a scratch fact the solver owns and reuses for
    /// every transfer. `out` holds whatever the previous transfer left
    /// there, so the implementation overwrites all of it, typically with
    /// `out.clone_from(fact)` and then the box's effect in place; a fact
    /// whose `clone_from` reuses its buffers then transfers without
    /// allocating. Returning `false` declares the edge to contribute
    /// nothing, and the solver ignores `out` (used by [`crate::value`] to
    /// prune statically infeasible branches).
    fn flow(
        &self,
        fc: &Flowchart,
        n: NodeId,
        edge: usize,
        to: NodeId,
        fact: &Self::Fact,
        out: &mut Self::Fact,
    ) -> bool;
}

/// The fixed point of a [`DataflowProblem`].
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
    let mut buf = [NodeId(0); 2];
    while let Some((node, cursor)) = stack.pop() {
        let succs = successors(fc, node, &mut buf);
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
    solve_in_order(fc, problem, &default_order(fc, problem))
}

/// The order [`solve`] iterates in.
fn default_order<P: DataflowProblem>(fc: &Flowchart, problem: &P) -> Vec<NodeId> {
    let mut order = reverse_postorder(fc);
    if problem.direction() == Direction::Backward {
        order.reverse();
    }
    order
}

/// `n`'s successors in [`Flowchart::succ_list`] order, copied into `buf`.
fn successors<'a>(fc: &Flowchart, n: NodeId, buf: &'a mut [NodeId; 2]) -> &'a [NodeId] {
    match fc.succ(n) {
        Succ::None => &buf[..0],
        Succ::One(to) => {
            buf[0] = to;
            &buf[..1]
        }
        Succ::Cond { then_, else_ } => {
            *buf = [then_, else_];
            &buf[..]
        }
    }
}

/// The edges a problem's facts propagate along, with every node's rank in
/// the iteration order.
struct Edges {
    backward: bool,
    preds: Vec<Vec<NodeId>>,
    rank: Vec<usize>,
}

impl Edges {
    fn new<P: DataflowProblem>(fc: &Flowchart, problem: &P, order: &[NodeId]) -> Edges {
        let n = fc.len();
        assert_eq!(order.len(), n, "iteration order must cover every node");
        let mut rank = vec![usize::MAX; n];
        for (r, id) in order.iter().enumerate() {
            assert_eq!(rank[id.0], usize::MAX, "duplicate node in iteration order");
            rank[id.0] = r;
        }
        let backward = problem.direction() == Direction::Backward;
        Edges {
            backward,
            preds: if backward {
                predecessors(fc)
            } else {
                Vec::new()
            },
            rank,
        }
    }

    /// The nodes `n`'s facts flow to, in edge order.
    fn targets<'a>(&'a self, fc: &Flowchart, n: NodeId, buf: &'a mut [NodeId; 2]) -> &'a [NodeId] {
        if self.backward {
            &self.preds[n.0]
        } else {
            successors(fc, n, buf)
        }
    }

    /// Whether the edge `from → to` retreats in the iteration order.
    fn retreats(&self, from: NodeId, to: NodeId) -> bool {
        self.rank[to.0] <= self.rank[from.0]
    }
}

/// The dirty set: a bitset over iteration ranks whose [`pop`](Self::pop)
/// takes the least rank.
struct Worklist {
    words: Vec<u64>,
    /// No word below this index has a bit set.
    low: usize,
}

impl Worklist {
    fn new(ranks: usize) -> Worklist {
        Worklist {
            words: vec![0; ranks.div_ceil(64)],
            low: 0,
        }
    }

    fn insert(&mut self, rank: usize) {
        self.words[rank / 64] |= 1 << (rank % 64);
        self.low = self.low.min(rank / 64);
    }

    fn pop(&mut self) -> Option<usize> {
        while let Some(word) = self.words.get_mut(self.low) {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(self.low * 64 + bit);
            }
            self.low += 1;
        }
        None
    }
}

/// Solves the problem processing dirty nodes in the priority given by
/// `order` (which must mention every node exactly once). Every transfer
/// writes into one scratch fact, which is then joined (or widened) into
/// its target.
///
/// For a problem that keeps the default [`DataflowProblem::widen`] the
/// result is the *least* fixed point and therefore independent of `order`;
/// only the iteration count varies. The framework proptests exercise
/// exactly this invariant with randomly permuted orders. A problem that
/// widens gets a post-fixpoint that depends on the order, since the order
/// decides which edges retreat.
pub fn solve_in_order<P: DataflowProblem>(
    fc: &Flowchart,
    problem: &P,
    order: &[NodeId],
) -> Solution<P::Fact> {
    let n = fc.len();
    let edges = Edges::new(fc, problem, order);
    let mut out = problem.bottom(fc);
    let mut facts: Vec<P::Fact> = vec![out.clone(); n];
    let mut dirty = Worklist::new(n);
    for (id, fact) in facts.iter_mut().enumerate() {
        if let Some(seed) = problem.boundary(fc, NodeId(id)) {
            if problem.join(fact, &seed) {
                dirty.insert(edges.rank[id]);
            }
        }
    }

    let mut iterations = 0usize;
    let mut buf = [NodeId(0); 2];
    while let Some(r) = dirty.pop() {
        let id = order[r];
        for (edge, &to) in edges.targets(fc, id, &mut buf).iter().enumerate() {
            iterations += 1;
            // `flow` writes into the scratch `out`, so the source is only
            // borrowed for the call; on a self-loop the next edge sees the
            // update, as it would after a clone.
            if !problem.flow(fc, id, edge, to, &facts[id.0], &mut out) {
                continue;
            }
            let grew = if edges.retreats(id, to) {
                problem.widen(&mut facts[to.0], &out)
            } else {
                problem.join(&mut facts[to.0], &out)
            };
            if grew {
                dirty.insert(edges.rank[to.0]);
            }
        }
    }

    Solution { facts, iterations }
}

/// One descending (narrowing) pass over a post-fixpoint `post` of
/// `problem`, such as a widening [`solve`] returns. Every node gets its
/// boundary fact joined with the flow of each edge into it: along an edge
/// that retreats in [`solve`]'s order, flowed from `post`; along any other
/// edge, from the fact this pass already recomputed at its source, which
/// the order visits first. Each transfer thus reads a fact that covers the
/// runs reaching its node, so the result does too, and it lies pointwise
/// below `post` when `flow` is monotone. Without a retreating edge nothing
/// was widened and `post` is returned as it is. `iterations` adds the
/// pass's transfers to `post`'s. As in [`solve_in_order`], ⊥ is built once
/// and every transfer writes into one scratch fact.
pub fn narrow<P: DataflowProblem>(
    fc: &Flowchart,
    problem: &P,
    post: Solution<P::Fact>,
) -> Solution<P::Fact> {
    let n = fc.len();
    let order = default_order(fc, problem);
    let edges = Edges::new(fc, problem, &order);
    let mut buf = [NodeId(0); 2];
    let loops = order.iter().any(|&id| {
        edges
            .targets(fc, id, &mut buf)
            .iter()
            .any(|&to| edges.retreats(id, to))
    });
    if !loops {
        return post;
    }
    let mut out = problem.bottom(fc);
    let mut facts: Vec<P::Fact> = vec![out.clone(); n];
    for (id, fact) in facts.iter_mut().enumerate() {
        if let Some(seed) = problem.boundary(fc, NodeId(id)) {
            problem.join(fact, &seed);
        }
    }
    let mut iterations = post.iterations;
    for retreating in [true, false] {
        for &id in &order {
            for (edge, &to) in edges.targets(fc, id, &mut buf).iter().enumerate() {
                if edges.retreats(id, to) != retreating {
                    continue;
                }
                iterations += 1;
                let source = if retreating { &post.facts } else { &facts };
                if problem.flow(fc, id, edge, to, &source[id.0], &mut out) {
                    problem.join(&mut facts[to.0], &out);
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
            out: &mut bool,
        ) -> bool {
            *out = *fact;
            true
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
            out: &mut bool,
        ) -> bool {
            *out = *fact;
            true
        }
    }

    /// [`Reach`] counting its [`DataflowProblem::bottom`] calls.
    #[derive(Default)]
    struct CountsBottom {
        calls: std::cell::Cell<usize>,
    }

    impl DataflowProblem for CountsBottom {
        type Fact = bool;

        fn bottom(&self, fc: &Flowchart) -> bool {
            self.calls.set(self.calls.get() + 1);
            Reach.bottom(fc)
        }

        fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<bool> {
            Reach.boundary(fc, n)
        }

        fn join(&self, into: &mut bool, from: &bool) -> bool {
            Reach.join(into, from)
        }

        fn flow(
            &self,
            fc: &Flowchart,
            n: NodeId,
            edge: usize,
            to: NodeId,
            fact: &bool,
            out: &mut bool,
        ) -> bool {
            Reach.flow(fc, n, edge, to, fact, out)
        }
    }

    #[test]
    fn bottom_is_built_once_per_solve_and_per_narrow() {
        // A loop, so that `narrow` runs its pass instead of returning
        // `post` untouched.
        let fc = parse(
            "program(2) { while x1 > 0 { x1 := x1 - 1; r1 := r1 + x2; } if r1 > 2 { y := 1; } }",
        )
        .unwrap();
        assert!(fc.len() > 5);
        let problem = CountsBottom::default();
        let post = solve(&fc, &problem);
        assert_eq!(problem.calls.get(), 1, "solve");
        let ids: Vec<NodeId> = (0..fc.len()).map(NodeId).collect();
        solve_in_order(&fc, &problem, &ids);
        assert_eq!(problem.calls.get(), 2, "solve_in_order");
        let narrowed = narrow(&fc, &problem, post.clone());
        assert_eq!(problem.calls.get(), 3, "narrow");
        assert!(narrowed.iterations > post.iterations, "narrow ran its pass");
        assert_eq!(narrowed.facts, post.facts);
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
    fn worklist_pops_like_an_ordered_set() {
        // The bitset must pop exactly as the ordered set it replaced, so
        // that every default-widening problem keeps its iteration count.
        let mut rng = enf_flowchart::generate::SplitMix::new(7);
        for size in [1usize, 63, 64, 65, 200] {
            let mut bits = Worklist::new(size);
            let mut model = std::collections::BTreeSet::new();
            for _ in 0..2_000 {
                if rng.below(3) == 0 {
                    assert_eq!(bits.pop(), model.pop_first(), "size {size}");
                } else {
                    let r = rng.below(size as u64) as usize;
                    bits.insert(r);
                    model.insert(r);
                }
            }
            while let Some(r) = model.pop_first() {
                assert_eq!(bits.pop(), Some(r));
            }
            assert_eq!(bits.pop(), None);
        }
    }

    #[test]
    #[should_panic(expected = "must cover every node")]
    fn short_order_is_rejected() {
        let fc = parse("program(0) { y := 1; }").unwrap();
        solve_in_order(&fc, &Reach, &[fc.start()]);
    }
}
