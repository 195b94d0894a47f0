//! The one small-step engine every executor shares.
//!
//! The paper's mechanisms are all *the same interpreter with different
//! observers bolted on*: plain interpretation, surveillance and high-water
//! taint tracking, timed per-decision checks, violation explanations — each
//! walks the flowchart the same way and differs only in what it watches and
//! when it vetoes. [`Stepper`] owns that walk exactly once — node dispatch,
//! store update, fuel accounting and successor selection — and a [`Monitor`]
//! plugs in the observer: hooks for every box kind, an abort verdict at
//! decisions, a release verdict at HALT, and an associated outcome type.
//!
//! Combinators compose observers without a second pass over the program:
//! [`Pair`] runs two monitors in lockstep (e.g. plain interpretation plus
//! a trace, [`crate::interp::run_traced`]), [`Fleet`] runs any number of homogeneous
//! monitors (e.g. one taint monitor per MLS clearance).
//!
//! # Hook contract
//!
//! For each executed box the stepper calls, in order:
//!
//! 1. fuel check — if the bound is hit, [`Monitor::on_fuel`] produces the
//!    outcome and the run ends;
//! 2. [`Monitor::on_step`] with the 1-based step count and the node;
//! 3. the node-specific hook:
//!    * assignment: [`Monitor::on_assign`] *before* the store update, so the
//!      monitor can read the pre-state;
//!    * decision: [`Monitor::on_decision`] *before* the predicate is
//!      evaluated — returning `Some(outcome)` aborts the run right there
//!      (the Theorem 3′ veto: a disallowed test must not influence control,
//!      not even by being taken); if the run continues,
//!      [`Monitor::on_branch`] reports which way it went;
//!    * HALT: [`Monitor::on_halt`] produces the outcome (the release
//!      verdict lives in the monitor — the stepper never inspects it).
//!
//! [`Monitor::on_interrupt`] fires only under a combinator, when a
//! co-monitor aborted the shared run: the monitor must account for a run
//! that ended before any of *its* checks fired. The default maps this to
//! [`Monitor::on_fuel`], which has exactly that meaning.

use crate::ast::{Expr, Pred, Var};
use crate::graph::{Flowchart, Node, NodeId, PolicySpec, Succ};
use crate::interp::Store;
use enf_core::{IndexSet, V};

/// An observer plugged into the [`Stepper`].
///
/// All hooks default to no-ops except the two that must produce an outcome
/// ([`Monitor::on_halt`], [`Monitor::on_fuel`]); implement only what the
/// discipline needs.
pub trait Monitor {
    /// What a finished run yields.
    type Outcome;

    /// Called once per executed box, after the fuel check and before
    /// dispatch. `step` is 1-based and counts every box, START and HALT
    /// included — the paper's observable running time.
    fn on_step(&mut self, step: u64, at: NodeId, node: &Node) {
        let _ = (step, at, node);
    }

    /// Called at an assignment box *before* the store is updated, so the
    /// monitor sees the pre-assignment state.
    fn on_assign(&mut self, step: u64, at: NodeId, var: Var, expr: &Expr, store: &Store) {
        let _ = (step, at, var, expr, store);
    }

    /// Called at a decision box *before* the predicate is evaluated.
    /// Returning `Some(outcome)` aborts the run at this box.
    fn on_decision(
        &mut self,
        step: u64,
        at: NodeId,
        pred: &Pred,
        store: &Store,
    ) -> Option<Self::Outcome> {
        let _ = (step, at, pred, store);
        None
    }

    /// Called after a decision's predicate was evaluated and the branch
    /// selected (only if no monitor aborted).
    fn on_branch(&mut self, step: u64, at: NodeId, pred: &Pred, taken: bool) {
        let _ = (step, at, pred, taken);
    }

    /// Called at a `setpolicy` box: the active policy becomes `spec`
    /// (resolved against the governing schedule by the monitor).
    fn on_setpolicy(&mut self, step: u64, at: NodeId, spec: PolicySpec, store: &Store) {
        let _ = (step, at, spec, store);
    }

    /// Called at a `declassify` box: the monitor may relabel `var`'s
    /// taint `t ↦ (t \ from) ∪ to`. The store is never modified.
    fn on_declassify(
        &mut self,
        step: u64,
        at: NodeId,
        var: Var,
        from: IndexSet,
        to: IndexSet,
        store: &Store,
    ) {
        let _ = (step, at, var, from, to, store);
    }

    /// Called at a HALT box; produces the run's outcome. The release
    /// verdict — output or notice — is the monitor's to make.
    fn on_halt(&mut self, step: u64, at: NodeId, store: &Store) -> Self::Outcome;

    /// Called when the fuel bound cut the run off after `steps` boxes.
    fn on_fuel(&mut self, steps: u64) -> Self::Outcome;

    /// Called when a co-monitor (under [`Pair`] or [`Fleet`]) aborted the
    /// shared run at a decision this monitor would have passed. Defaults to
    /// [`Monitor::on_fuel`]: from this monitor's view the run simply ended
    /// before any of its checks fired.
    fn on_interrupt(&mut self, step: u64, at: NodeId, store: &Store) -> Self::Outcome {
        let _ = (at, store);
        self.on_fuel(step)
    }
}

/// The small-step engine: one flowchart, one fuel bound, any monitor.
#[derive(Clone, Copy, Debug)]
pub struct Stepper<'fc> {
    fc: &'fc Flowchart,
    fuel: u64,
}

impl<'fc> Stepper<'fc> {
    /// An engine over `fc` with the default fuel bound.
    pub fn new(fc: &'fc Flowchart) -> Self {
        Stepper {
            fc,
            fuel: crate::interp::ExecConfig::default().fuel,
        }
    }

    /// Replaces the fuel bound.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Runs the flowchart on `inputs`, reporting every step to `monitor`,
    /// and returns the monitor's outcome.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the flowchart's arity.
    pub fn run<M: Monitor>(&self, inputs: &[V], monitor: &mut M) -> M::Outcome {
        let mut store = Store::init(self.fc, inputs);
        let mut at = self.fc.start();
        let mut steps: u64 = 0;
        loop {
            if steps >= self.fuel {
                return monitor.on_fuel(steps);
            }
            steps += 1;
            let node = self.fc.node(at);
            monitor.on_step(steps, at, node);
            match node {
                Node::Start => {
                    at = match self.fc.succ(at) {
                        Succ::One(n) => n,
                        _ => unreachable!("validated START has one successor"),
                    };
                }
                Node::Assign { var, expr } => {
                    monitor.on_assign(steps, at, *var, expr, &store);
                    let v = expr.eval(&|w| store.get(w));
                    store.set(*var, v);
                    at = match self.fc.succ(at) {
                        Succ::One(n) => n,
                        _ => unreachable!("validated assignment has one successor"),
                    };
                }
                Node::Decision { pred } => {
                    if let Some(out) = monitor.on_decision(steps, at, pred, &store) {
                        return out;
                    }
                    let taken = pred.eval(&|w| store.get(w));
                    monitor.on_branch(steps, at, pred, taken);
                    at = match self.fc.succ(at) {
                        Succ::Cond { then_, else_ } => {
                            if taken {
                                then_
                            } else {
                                else_
                            }
                        }
                        _ => unreachable!("validated decision has two successors"),
                    };
                }
                Node::SetPolicy { spec } => {
                    monitor.on_setpolicy(steps, at, *spec, &store);
                    at = match self.fc.succ(at) {
                        Succ::One(n) => n,
                        _ => unreachable!("validated setpolicy has one successor"),
                    };
                }
                Node::Declassify { var, from, to } => {
                    monitor.on_declassify(steps, at, *var, *from, *to, &store);
                    at = match self.fc.succ(at) {
                        Succ::One(n) => n,
                        _ => unreachable!("validated declassify has one successor"),
                    };
                }
                Node::Halt => {
                    return monitor.on_halt(steps, at, &store);
                }
            }
        }
    }
}

/// The trivial observer: plain interpretation.
///
/// [`crate::interp::run`] is the stepper with this monitor.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullMonitor;

impl Monitor for NullMonitor {
    type Outcome = crate::interp::Outcome;

    fn on_halt(&mut self, step: u64, at: NodeId, store: &Store) -> Self::Outcome {
        crate::interp::Outcome::Halted(crate::interp::Halted {
            y: store.output(),
            steps: step,
            halt: at,
        })
    }

    fn on_fuel(&mut self, _steps: u64) -> Self::Outcome {
        crate::interp::Outcome::OutOfFuel
    }
}

/// Records the sequence of visited nodes (the old `ExecConfig::trace`,
/// now pay-for-what-you-use).
#[derive(Clone, Default, Debug)]
pub struct TraceMonitor {
    visited: Vec<NodeId>,
}

impl TraceMonitor {
    /// An empty trace recorder.
    pub fn new() -> Self {
        TraceMonitor::default()
    }
}

impl Monitor for TraceMonitor {
    type Outcome = Vec<NodeId>;

    fn on_step(&mut self, _step: u64, at: NodeId, _node: &Node) {
        self.visited.push(at);
    }

    fn on_halt(&mut self, _step: u64, _at: NodeId, _store: &Store) -> Self::Outcome {
        std::mem::take(&mut self.visited)
    }

    fn on_fuel(&mut self, _steps: u64) -> Self::Outcome {
        std::mem::take(&mut self.visited)
    }
}

/// Runs two monitors over one pass; the outcome is the pair of outcomes.
///
/// Hooks are delivered to both members, left first. If exactly one member
/// aborts at a decision, the other is finalized via
/// [`Monitor::on_interrupt`] — its verdict for a run cut short by someone
/// else's veto.
#[derive(Clone, Debug)]
pub struct Pair<A, B>(pub A, pub B);

impl<A: Monitor, B: Monitor> Monitor for Pair<A, B> {
    type Outcome = (A::Outcome, B::Outcome);

    fn on_step(&mut self, step: u64, at: NodeId, node: &Node) {
        self.0.on_step(step, at, node);
        self.1.on_step(step, at, node);
    }

    fn on_assign(&mut self, step: u64, at: NodeId, var: Var, expr: &Expr, store: &Store) {
        self.0.on_assign(step, at, var, expr, store);
        self.1.on_assign(step, at, var, expr, store);
    }

    fn on_decision(
        &mut self,
        step: u64,
        at: NodeId,
        pred: &Pred,
        store: &Store,
    ) -> Option<Self::Outcome> {
        // Both members observe the decision before any abort takes effect,
        // mirroring the single-monitor order (state update, then verdict).
        let a = self.0.on_decision(step, at, pred, store);
        let b = self.1.on_decision(step, at, pred, store);
        match (a, b) {
            (None, None) => None,
            (Some(a), None) => Some((a, self.1.on_interrupt(step, at, store))),
            (None, Some(b)) => Some((self.0.on_interrupt(step, at, store), b)),
            (Some(a), Some(b)) => Some((a, b)),
        }
    }

    fn on_branch(&mut self, step: u64, at: NodeId, pred: &Pred, taken: bool) {
        self.0.on_branch(step, at, pred, taken);
        self.1.on_branch(step, at, pred, taken);
    }

    fn on_setpolicy(&mut self, step: u64, at: NodeId, spec: PolicySpec, store: &Store) {
        self.0.on_setpolicy(step, at, spec, store);
        self.1.on_setpolicy(step, at, spec, store);
    }

    fn on_declassify(
        &mut self,
        step: u64,
        at: NodeId,
        var: Var,
        from: IndexSet,
        to: IndexSet,
        store: &Store,
    ) {
        self.0.on_declassify(step, at, var, from, to, store);
        self.1.on_declassify(step, at, var, from, to, store);
    }

    fn on_halt(&mut self, step: u64, at: NodeId, store: &Store) -> Self::Outcome {
        (
            self.0.on_halt(step, at, store),
            self.1.on_halt(step, at, store),
        )
    }

    fn on_fuel(&mut self, steps: u64) -> Self::Outcome {
        (self.0.on_fuel(steps), self.1.on_fuel(steps))
    }

    fn on_interrupt(&mut self, step: u64, at: NodeId, store: &Store) -> Self::Outcome {
        (
            self.0.on_interrupt(step, at, store),
            self.1.on_interrupt(step, at, store),
        )
    }
}

/// Runs any number of homogeneous monitors over one pass (e.g. one taint
/// monitor per MLS clearance); the outcome is the vector of outcomes.
///
/// If any member aborts at a decision the shared run ends there: aborting
/// members yield their own outcome, the rest are finalized via
/// [`Monitor::on_interrupt`]. With HALT-only disciplines no member aborts
/// and every outcome is that member's genuine verdict.
#[derive(Clone, Default, Debug)]
pub struct Fleet<M>(pub Vec<M>);

impl<M: Monitor> Monitor for Fleet<M> {
    type Outcome = Vec<M::Outcome>;

    fn on_step(&mut self, step: u64, at: NodeId, node: &Node) {
        for m in &mut self.0 {
            m.on_step(step, at, node);
        }
    }

    fn on_assign(&mut self, step: u64, at: NodeId, var: Var, expr: &Expr, store: &Store) {
        for m in &mut self.0 {
            m.on_assign(step, at, var, expr, store);
        }
    }

    fn on_decision(
        &mut self,
        step: u64,
        at: NodeId,
        pred: &Pred,
        store: &Store,
    ) -> Option<Self::Outcome> {
        let verdicts: Vec<Option<M::Outcome>> = self
            .0
            .iter_mut()
            .map(|m| m.on_decision(step, at, pred, store))
            .collect();
        if verdicts.iter().all(Option::is_none) {
            return None;
        }
        Some(
            verdicts
                .into_iter()
                .zip(&mut self.0)
                .map(|(v, m)| v.unwrap_or_else(|| m.on_interrupt(step, at, store)))
                .collect(),
        )
    }

    fn on_branch(&mut self, step: u64, at: NodeId, pred: &Pred, taken: bool) {
        for m in &mut self.0 {
            m.on_branch(step, at, pred, taken);
        }
    }

    fn on_setpolicy(&mut self, step: u64, at: NodeId, spec: PolicySpec, store: &Store) {
        for m in &mut self.0 {
            m.on_setpolicy(step, at, spec, store);
        }
    }

    fn on_declassify(
        &mut self,
        step: u64,
        at: NodeId,
        var: Var,
        from: IndexSet,
        to: IndexSet,
        store: &Store,
    ) {
        for m in &mut self.0 {
            m.on_declassify(step, at, var, from, to, store);
        }
    }

    fn on_halt(&mut self, step: u64, at: NodeId, store: &Store) -> Self::Outcome {
        self.0
            .iter_mut()
            .map(|m| m.on_halt(step, at, store))
            .collect()
    }

    fn on_fuel(&mut self, steps: u64) -> Self::Outcome {
        self.0.iter_mut().map(|m| m.on_fuel(steps)).collect()
    }

    fn on_interrupt(&mut self, step: u64, at: NodeId, store: &Store) -> Self::Outcome {
        self.0
            .iter_mut()
            .map(|m| m.on_interrupt(step, at, store))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Outcome;
    use crate::parser::parse;

    /// Counts hook invocations; used to pin the hook contract.
    #[derive(Default)]
    struct CountingMonitor {
        steps: u64,
        assigns: u64,
        decisions: u64,
        branches: u64,
    }

    impl Monitor for CountingMonitor {
        type Outcome = (u64, u64, u64, u64);

        fn on_step(&mut self, _step: u64, _at: NodeId, _node: &Node) {
            self.steps += 1;
        }

        fn on_assign(&mut self, _s: u64, _a: NodeId, _v: Var, _e: &Expr, _st: &Store) {
            self.assigns += 1;
        }

        fn on_decision(
            &mut self,
            _s: u64,
            _a: NodeId,
            _p: &Pred,
            _st: &Store,
        ) -> Option<Self::Outcome> {
            self.decisions += 1;
            None
        }

        fn on_branch(&mut self, _s: u64, _a: NodeId, _p: &Pred, _t: bool) {
            self.branches += 1;
        }

        fn on_halt(&mut self, _s: u64, _a: NodeId, _st: &Store) -> Self::Outcome {
            (self.steps, self.assigns, self.decisions, self.branches)
        }

        fn on_fuel(&mut self, _steps: u64) -> Self::Outcome {
            (self.steps, self.assigns, self.decisions, self.branches)
        }
    }

    /// Aborts at the `n`th decision.
    struct AbortAt(u64, u64);

    impl Monitor for AbortAt {
        type Outcome = &'static str;

        fn on_decision(
            &mut self,
            _s: u64,
            _a: NodeId,
            _p: &Pred,
            _st: &Store,
        ) -> Option<Self::Outcome> {
            self.1 += 1;
            (self.1 >= self.0).then_some("aborted")
        }

        fn on_halt(&mut self, _s: u64, _a: NodeId, _st: &Store) -> Self::Outcome {
            "halted"
        }

        fn on_fuel(&mut self, _steps: u64) -> Self::Outcome {
            "fuel"
        }

        fn on_interrupt(&mut self, _s: u64, _a: NodeId, _st: &Store) -> Self::Outcome {
            "interrupted"
        }
    }

    #[test]
    fn hooks_fire_once_per_box_kind() {
        let fc = parse("program(1) { if x1 == 0 { y := 1; } else { y := 2; } }").unwrap();
        let mut m = CountingMonitor::default();
        let (steps, assigns, decisions, branches) = Stepper::new(&fc).run(&[0], &mut m);
        // START, decision, assignment, HALT.
        assert_eq!(steps, 4);
        assert_eq!(assigns, 1);
        assert_eq!(decisions, 1);
        assert_eq!(branches, 1);
    }

    #[test]
    fn null_monitor_matches_interp() {
        let fc = parse("program(1) { r1 := x1; while r1 != 0 { r1 := r1 - 1; } y := 1; }").unwrap();
        let mut m = NullMonitor;
        let out = Stepper::new(&fc).run(&[4], &mut m);
        let h = out.unwrap_halted();
        assert_eq!(h.y, 1);
        assert_eq!(
            crate::interp::run(&fc, &[4], &crate::interp::ExecConfig::default()),
            Outcome::Halted(h)
        );
    }

    #[test]
    fn fuel_bound_cuts_the_run() {
        let fc = parse("program(0) { while true { skip; } }").unwrap();
        let mut m = NullMonitor;
        assert_eq!(
            Stepper::new(&fc).with_fuel(17).run(&[], &mut m),
            Outcome::OutOfFuel
        );
    }

    #[test]
    fn trace_monitor_records_every_box() {
        let fc = parse("program(1) { y := x1; }").unwrap();
        let mut m = Pair(NullMonitor, TraceMonitor::new());
        let (out, trace) = Stepper::new(&fc).run(&[3], &mut m);
        let h = out.unwrap_halted();
        assert_eq!(trace.len() as u64, h.steps);
        assert_eq!(trace[0], fc.start());
        assert_eq!(*trace.last().unwrap(), h.halt);
    }

    #[test]
    fn pair_abort_interrupts_the_co_monitor() {
        let fc = parse("program(1) { if x1 == 0 { y := 1; } else { y := 2; } }").unwrap();
        let mut m = Pair(AbortAt(1, 0), CountingMonitor::default());
        let (a, (steps, ..)) = Stepper::new(&fc).run(&[0], &mut m);
        assert_eq!(a, "aborted");
        // The co-monitor saw START and the decision before the cut.
        assert_eq!(steps, 2);
    }

    #[test]
    fn pair_runs_both_to_halt_when_neither_aborts() {
        let fc = parse("program(1) { if x1 == 0 { y := 1; } else { y := 2; } }").unwrap();
        let mut m = Pair(AbortAt(99, 0), AbortAt(99, 0));
        assert_eq!(Stepper::new(&fc).run(&[5], &mut m), ("halted", "halted"));
    }

    #[test]
    fn fleet_mixes_aborters_and_survivors() {
        let fc = parse("program(1) { if x1 == 0 { y := 1; } else { y := 2; } }").unwrap();
        let mut m = Fleet(vec![AbortAt(1, 0), AbortAt(99, 0), AbortAt(1, 0)]);
        let out = Stepper::new(&fc).run(&[0], &mut m);
        assert_eq!(out, vec!["aborted", "interrupted", "aborted"]);
    }

    #[test]
    fn fleet_of_none_reaches_halt() {
        let fc = parse("program(0) { y := 3; }").unwrap();
        let mut m = Fleet::<NullMonitor>(Vec::new());
        let out = Stepper::new(&fc).run(&[], &mut m);
        assert!(out.is_empty());
    }
}
