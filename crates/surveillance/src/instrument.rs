//! The paper's literal construction: the mechanism *as a flowchart*.
//!
//! Section 3 builds the surveillance mechanism M from a program Q by four
//! source-to-source transformations:
//!
//! 1. after START, initialize each surveillance variable (`x̄i ← {i}`,
//!    everything else `∅` — which is the flowchart's initial 0 already);
//! 2. before each assignment `v ← E(w1, …, ws)`, insert
//!    `v̄ ← w̄1 ∪ … ∪ w̄s ∪ C̄`;
//! 3. before each decision on `B(w1, …, ws)`, insert
//!    `C̄ ← C̄ ∪ w̄1 ∪ … ∪ w̄s`;
//! 4. replace each HALT by the check `ȳ ∪ C̄ ⊆ J`, releasing `y` on
//!    success and the violation notice Λ otherwise.
//!
//! Surveillance variables live in ordinary registers above the program's
//! own, holding index sets as bitmasks; unions are `|` and the subset check
//! `t ⊆ J` is `(t & ¬J) == 0`. The result is a genuine [`Flowchart`] — it
//! can be printed, exported to DOT, interpreted, and (in `enf-static`)
//! analyzed like any other program. A violation is signalled by *which*
//! HALT box the run reaches, keeping the notice set disjoint from the
//! output range as the paper requires.
//!
//! The timed variant (Theorem 3′) additionally guards every decision with
//! the check `C̄ ⊆ J`, aborting to the violation HALT before a disallowed
//! test can influence control.

use enf_core::Program;
use enf_core::{IndexSet, MechOutput, Mechanism, Notice, Timed, TimedProgram, V};
use enf_flowchart::ast::{bor_all, Expr, Pred, Var};
use enf_flowchart::builder::Builder;
use enf_flowchart::graph::{Flowchart, Node, NodeId, PolicySpec, Succ, MAX_REG};
use enf_flowchart::interp::{run, ExecConfig, ExecValue, Outcome};
use enf_flowchart::program::FlowchartProgram;
use std::collections::HashSet;
use std::sync::Arc;

/// Largest arity the bitmask encoding supports (bit 63 would collide with
/// the sign bit of the register holding the mask).
pub const MAX_INSTRUMENT_ARITY: usize = 62;

/// Register layout of an instrumented flowchart.
#[derive(Clone, Copy, Debug)]
pub struct RegLayout {
    /// Registers `1..=orig_regs` belong to the original program.
    pub orig_regs: usize,
    /// Number of inputs `k`.
    pub arity: usize,
}

impl RegLayout {
    /// The register holding `v̄` for an original variable `v`.
    pub fn taint_of(&self, var: Var) -> Var {
        match var {
            Var::Input(i) => Var::Reg(self.orig_regs + i),
            Var::Reg(j) => Var::Reg(self.orig_regs + self.arity + j),
            Var::Out => Var::Reg(self.orig_regs + self.arity + self.orig_regs + 1),
        }
    }

    /// The register holding the program counter's `C̄`.
    pub fn pc(&self) -> Var {
        Var::Reg(self.orig_regs + self.arity + self.orig_regs + 2)
    }

    /// The register holding the active allowed mask `J̄`. Only materialized
    /// for dynamic-policy programs (ones with `setpolicy`/`declassify`
    /// boxes); fixed-policy instrumentation bakes `J` into constants.
    pub fn policy(&self) -> Var {
        Var::Reg(self.orig_regs + self.arity + self.orig_regs + 3)
    }
}

/// An instrumented mechanism: a flowchart plus the ids of its violation
/// HALT boxes.
#[derive(Clone, Debug)]
pub struct Instrumented {
    flowchart: Arc<Flowchart>,
    violation_halts: HashSet<NodeId>,
    layout: RegLayout,
    allowed: IndexSet,
    fuel: u64,
    timed: bool,
}

fn mask_const(set: IndexSet) -> Expr {
    Expr::Const(set.to_bits() as V)
}

fn taint_rhs(layout: &RegLayout, vars: &[Var]) -> Expr {
    bor_all(
        vars.iter().map(|v| Expr::Var(layout.taint_of(*v))),
        Expr::Var(layout.pc()),
    )
}

/// The subset check `t ⊆ J`, i.e. `(t & ¬J) == 0` with `¬J` taken within
/// `{1, …, k}`.
fn subset_check(arity: usize, taint: Expr, allowed: IndexSet) -> Pred {
    let not_j = IndexSet::full(arity).difference(&allowed);
    Pred::eq(
        Expr::BAnd(Box::new(taint), Box::new(mask_const(not_j))),
        Expr::c(0),
    )
}

/// The subset check `t ⊆ J̄` with the allowed set in a register:
/// `(t & (FULL − J̄)) == 0`. `FULL − J̄` is the complement within
/// `{1, …, k}` — sound because `J̄` only ever holds masks ⊆ FULL.
fn subset_check_dyn(arity: usize, taint: Expr, policy_reg: Var) -> Pred {
    Pred::eq(
        Expr::BAnd(
            Box::new(taint),
            Box::new(Expr::Sub(
                Box::new(mask_const(IndexSet::full(arity))),
                Box::new(Expr::Var(policy_reg)),
            )),
        ),
        Expr::c(0),
    )
}

/// Whether [`instrument`] can encode `fc`: its arity is at most
/// [`MAX_INSTRUMENT_ARITY`], and the surveillance registers it adds above
/// the program's own stay within [`MAX_REG`]. The error says which limit
/// `fc` passes.
pub fn instrumentable(fc: &Flowchart) -> Result<(), String> {
    if fc.arity() > MAX_INSTRUMENT_ARITY {
        return Err(format!(
            "arity {} exceeds the bitmask encoding's limit {MAX_INSTRUMENT_ARITY}",
            fc.arity()
        ));
    }
    let layout = RegLayout {
        orig_regs: fc.max_reg(),
        arity: fc.arity(),
    };
    let top = if fc.has_policy_nodes() {
        layout.policy()
    } else {
        layout.pc()
    };
    if top > Var::Reg(MAX_REG) {
        return Err(format!(
            "instrumenting needs register {top}, past the bound r{MAX_REG}"
        ));
    }
    Ok(())
}

/// Applies the paper's transformations (1)–(4) to `fc` for the policy
/// `allow(J)`; `timed` additionally applies the Theorem 3′ decision guard.
///
/// # Panics
///
/// Panics unless `fc` is [`instrumentable`].
pub fn instrument(fc: &Flowchart, allowed: IndexSet, timed: bool) -> Instrumented {
    instrument_with(fc, allowed, timed, false)
}

/// Like [`instrument`] but with a high-water-mark taint discipline when
/// `accumulate` is set: assignments union the target's old taint instead of
/// replacing it (see [`crate::highwater`]).
pub fn instrument_with(
    fc: &Flowchart,
    allowed: IndexSet,
    timed: bool,
    accumulate: bool,
) -> Instrumented {
    if let Err(e) = instrumentable(fc) {
        panic!("{e}");
    }
    let layout = RegLayout {
        orig_regs: fc.max_reg(),
        arity: fc.arity(),
    };
    // Dynamic-policy programs carry the allowed set in register `J̄`;
    // fixed-policy programs keep the paper's constant-mask construction,
    // byte for byte.
    let dynamic = fc.has_policy_nodes();
    let check = |taint: Expr| {
        if dynamic {
            subset_check_dyn(fc.arity(), taint, layout.policy())
        } else {
            subset_check(fc.arity(), taint, allowed)
        }
    };
    let mut b = Builder::new(fc.arity());
    let mut violation_halts = HashSet::new();

    // One shared violation path. Reaching its HALT *is* the notice Λ; the
    // scrub of `y` before it realizes transformation (4)'s "output Λ" —
    // without it, the mechanism *as a bare flowchart* would still carry
    // denied data in `y` at the violation HALT (see the self-application
    // tests).
    let scrub = b.assign(Var::Out, Expr::Const(0));
    let viol_halt = b.halt();
    b.wire(scrub, viol_halt);
    let viol = scrub;
    violation_halts.insert(viol_halt);

    // Per-node clusters: entry node and, for single-successor nodes, the
    // tail to wire to the successor's entry.
    let mut entry = vec![NodeId(0); fc.len()];
    let mut tail: Vec<Option<NodeId>> = vec![None; fc.len()];
    let mut branch: Vec<Option<NodeId>> = vec![None; fc.len()];

    for (id, node, _) in fc.iter() {
        match node {
            Node::Start => {
                // Transformation (1): x̄i ← {i}; other surveillance
                // variables start at 0 = ∅ by the language semantics. A
                // dynamic-policy program additionally seeds J̄ with the
                // initial allowed set.
                let mut prev: Option<NodeId> = None;
                let mut first: Option<NodeId> = None;
                let mut inits: Vec<(Var, Expr)> = (1..=fc.arity())
                    .map(|i| {
                        (
                            layout.taint_of(Var::Input(i)),
                            mask_const(IndexSet::single(i)),
                        )
                    })
                    .collect();
                if dynamic {
                    inits.push((layout.policy(), mask_const(allowed)));
                }
                for (var, expr) in inits {
                    let a = b.assign(var, expr);
                    if let Some(p) = prev {
                        b.wire(p, a);
                    } else {
                        first = Some(a);
                    }
                    prev = Some(a);
                }
                match (first, prev) {
                    (Some(f), Some(l)) => {
                        entry[id.0] = f;
                        tail[id.0] = Some(l);
                    }
                    _ => {
                        // Zero-arity program: START's cluster is empty; use
                        // the builder's START node itself as the tail.
                        entry[id.0] = NodeId(0);
                        tail[id.0] = Some(NodeId(0));
                    }
                }
            }
            Node::Assign { var, expr } => {
                // Transformation (2); the high-water variant also unions
                // the target's previous taint.
                let mut rhs = taint_rhs(&layout, &expr.vars());
                if accumulate {
                    rhs = Expr::BOr(Box::new(rhs), Box::new(Expr::Var(layout.taint_of(*var))));
                }
                let t = b.assign(layout.taint_of(*var), rhs);
                let a = b.assign(*var, expr.clone());
                b.wire(t, a);
                entry[id.0] = t;
                tail[id.0] = Some(a);
            }
            Node::Decision { pred } => {
                // Transformation (3).
                let upd = b.assign(layout.pc(), taint_rhs(&layout, &pred.vars()));
                let dec = b.decision(pred.clone());
                if timed {
                    // Theorem 3′ guard: abort before testing if C̄ ⊄ J.
                    let guard = b.decision(check(Expr::Var(layout.pc())));
                    b.wire(upd, guard);
                    b.wire_cond(guard, dec, viol);
                } else {
                    b.wire(upd, dec);
                }
                entry[id.0] = upd;
                branch[id.0] = Some(dec);
            }
            Node::Halt => {
                // Transformation (4): release y only if (ȳ | C̄) ⊆ J.
                let chk = b.decision(check(Expr::BOr(
                    Box::new(Expr::Var(layout.taint_of(Var::Out))),
                    Box::new(Expr::Var(layout.pc())),
                )));
                let ok = b.halt();
                b.wire_cond(chk, ok, viol);
                entry[id.0] = chk;
            }
            Node::SetPolicy { spec } => {
                // `setpolicy` compiles to one assignment into J̄. Unbound
                // slots resolve to allow() — the most restrictive reading,
                // matching the unscheduled dynamic monitor.
                let mask = match spec {
                    PolicySpec::Concrete(s) => *s,
                    PolicySpec::Slot(_) => IndexSet::empty(),
                };
                let a = b.assign(layout.policy(), mask_const(mask));
                entry[id.0] = a;
                tail[id.0] = Some(a);
            }
            Node::Declassify { var, from, to } => {
                // `declassify(v: A ~> B)` relabels: v̄ ← (v̄ \ A) ∪ B.
                let keep = IndexSet::full(fc.arity()).difference(from);
                let rhs = Expr::BOr(
                    Box::new(Expr::BAnd(
                        Box::new(Expr::Var(layout.taint_of(*var))),
                        Box::new(mask_const(keep)),
                    )),
                    Box::new(mask_const(*to)),
                );
                let a = b.assign(layout.taint_of(*var), rhs);
                entry[id.0] = a;
                tail[id.0] = Some(a);
            }
        }
    }

    // Wire clusters together following the original edges. The builder's
    // START points at the original START's cluster entry... which is the
    // START cluster itself; wire START to the input-init chain, then the
    // chain to the original successor.
    for (id, node, succ) in fc.iter() {
        match (node, succ) {
            (Node::Start, Succ::One(next)) => {
                let cluster_entry = entry[id.0];
                if cluster_entry == NodeId(0) {
                    // Zero-arity: START wires straight to the successor.
                    b.wire_start(entry[next.0]);
                } else {
                    b.wire_start(cluster_entry);
                    b.wire(tail[id.0].expect("start tail"), entry[next.0]);
                }
            }
            (Node::Assign { .. }, Succ::One(next))
            | (Node::SetPolicy { .. }, Succ::One(next))
            | (Node::Declassify { .. }, Succ::One(next)) => {
                b.wire(tail[id.0].expect("assign tail"), entry[next.0]);
            }
            (Node::Decision { .. }, Succ::Cond { then_, else_ }) => {
                let dec = branch[id.0].expect("decision node");
                b.wire_cond(dec, entry[then_.0], entry[else_.0]);
            }
            (Node::Halt, Succ::None) => {}
            _ => unreachable!("validated flowchart shapes"),
        }
    }

    let flowchart = b.finish().expect("instrumented flowchart must validate");
    Instrumented {
        flowchart: Arc::new(flowchart),
        violation_halts,
        layout,
        allowed,
        fuel: ExecConfig::default().fuel,
        timed,
    }
}

impl Instrumented {
    /// The mechanism as a plain flowchart.
    pub fn flowchart(&self) -> &Flowchart {
        &self.flowchart
    }

    /// Whether the Theorem 3′ decision guards were inserted.
    pub fn is_timed(&self) -> bool {
        self.timed
    }

    /// The register layout mapping original variables to their
    /// surveillance registers.
    pub fn layout(&self) -> RegLayout {
        self.layout
    }

    /// The allowed set `J`.
    pub fn allowed(&self) -> IndexSet {
        self.allowed
    }

    /// Replaces the fuel bound used when running the mechanism.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Whether a given HALT node signals a violation.
    pub fn is_violation_halt(&self, id: NodeId) -> bool {
        self.violation_halts.contains(&id)
    }

    /// Runs the instrumented flowchart, interpreting which HALT was reached.
    pub fn run_mech(&self, input: &[V]) -> MechOutput<ExecValue> {
        match run(&self.flowchart, input, &ExecConfig::with_fuel(self.fuel)) {
            Outcome::Halted(h) => {
                if self.violation_halts.contains(&h.halt) {
                    MechOutput::Violation(Notice::lambda())
                } else {
                    MechOutput::Value(ExecValue::Value(h.y))
                }
            }
            Outcome::OutOfFuel => MechOutput::Value(ExecValue::Diverged),
        }
    }
}

impl Mechanism for Instrumented {
    type Out = ExecValue;

    fn arity(&self) -> usize {
        self.flowchart.arity()
    }

    fn run(&self, input: &[V]) -> MechOutput<ExecValue> {
        self.run_mech(input)
    }
}

/// The instrumented mechanism viewed as a *program* whose output includes
/// its own running time — the object Theorem 3′ makes claims about.
impl Program for Instrumented {
    type Out = Timed<MechOutput<ExecValue>>;

    fn arity(&self) -> usize {
        self.flowchart.arity()
    }

    fn eval(&self, input: &[V]) -> Timed<MechOutput<ExecValue>> {
        match run(&self.flowchart, input, &ExecConfig::with_fuel(self.fuel)) {
            Outcome::Halted(h) => {
                let out = if self.violation_halts.contains(&h.halt) {
                    MechOutput::Violation(Notice::lambda())
                } else {
                    MechOutput::Value(ExecValue::Value(h.y))
                };
                Timed::new(out, h.steps)
            }
            Outcome::OutOfFuel => Timed::new(MechOutput::Value(ExecValue::Diverged), self.fuel),
        }
    }
}

impl TimedProgram for Instrumented {
    fn eval_timed(&self, input: &[V]) -> Timed<Self::Out> {
        let t = self.eval(input);
        let steps = t.steps;
        Timed::new(t, steps)
    }
}

/// Convenience: instrument a [`FlowchartProgram`], inheriting its fuel.
pub fn instrument_program(p: &FlowchartProgram, allowed: IndexSet, timed: bool) -> Instrumented {
    instrument(p.flowchart(), allowed, timed).with_fuel(p.fuel())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{run_surveillance, SurvConfig, SurvOutcome};
    use enf_core::{check_soundness, Grid, Identity, InputDomain, Policy as _};
    use enf_flowchart::corpus;
    use enf_flowchart::generate::{random_flowchart, GenConfig};
    use enf_flowchart::parse;

    #[test]
    fn instrumented_is_a_valid_flowchart() {
        let fc = parse("program(2) { if x1 == 0 { y := x2; } else { y := 1; } }").unwrap();
        let m = instrument(&fc, IndexSet::single(2), false);
        assert!(m.flowchart().validate().is_ok());
        // Instrumentation roughly doubles the graph plus init/check boxes.
        assert!(m.flowchart().len() > fc.len());
    }

    #[test]
    fn instrumented_agrees_with_dynamic_on_corpus() {
        for pp in corpus::all() {
            let inst = instrument(&pp.flowchart, pp.policy.allowed(), false);
            let cfg = SurvConfig::surveillance(pp.policy.allowed());
            let g = Grid::hypercube(pp.policy.arity(), 0..=3);
            for a in g.iter_inputs() {
                let dynamic = match run_surveillance(&pp.flowchart, &a, &cfg) {
                    SurvOutcome::Accepted { y, .. } => MechOutput::Value(ExecValue::Value(y)),
                    SurvOutcome::Violation { .. } => MechOutput::Violation(Notice::lambda()),
                    SurvOutcome::OutOfFuel => MechOutput::Value(ExecValue::Diverged),
                };
                assert_eq!(
                    inst.run_mech(&a),
                    dynamic,
                    "{}: divergence between instrumented and dynamic at {a:?}",
                    pp.name
                );
            }
        }
    }

    #[test]
    fn instrumented_agrees_with_dynamic_on_random_programs() {
        let gen_cfg = GenConfig::default();
        for seed in 0..40 {
            let fc = random_flowchart(seed, &gen_cfg);
            for j in [IndexSet::empty(), IndexSet::single(1), IndexSet::full(2)] {
                let inst = instrument(&fc, j, false);
                let cfg = SurvConfig::surveillance(j);
                let g = Grid::hypercube(2, -1..=1);
                for a in g.iter_inputs() {
                    let dynamic = match run_surveillance(&fc, &a, &cfg) {
                        SurvOutcome::Accepted { y, .. } => MechOutput::Value(ExecValue::Value(y)),
                        SurvOutcome::Violation { .. } => MechOutput::Violation(Notice::lambda()),
                        SurvOutcome::OutOfFuel => MechOutput::Value(ExecValue::Diverged),
                    };
                    assert_eq!(
                        inst.run_mech(&a),
                        dynamic,
                        "seed {seed}, J = {j}, input {a:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn timed_instrumented_agrees_with_timed_dynamic() {
        let gen_cfg = GenConfig::default();
        for seed in 0..25 {
            let fc = random_flowchart(seed, &gen_cfg);
            let j = IndexSet::single(1);
            let inst = instrument(&fc, j, true);
            let cfg = SurvConfig::timed(j);
            let g = Grid::hypercube(2, -1..=1);
            for a in g.iter_inputs() {
                let dynamic_accepts = run_surveillance(&fc, &a, &cfg).accepted();
                let inst_out = inst.run_mech(&a);
                match dynamic_accepts {
                    Some(y) => assert_eq!(
                        inst_out,
                        MechOutput::Value(ExecValue::Value(y)),
                        "seed {seed} input {a:?}"
                    ),
                    None => assert!(
                        !matches!(inst_out, MechOutput::Value(ExecValue::Value(_))),
                        "seed {seed} input {a:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn theorem_3_prime_timed_instrumented_sound_with_observable_time() {
        // The timed instrumented mechanism, viewed as a program whose
        // output includes its own step count, factors through allow(J).
        let pp = corpus::timing_constant();
        let inst = instrument(&pp.flowchart, pp.policy.allowed(), true).with_fuel(10_000);
        let g = Grid::hypercube(1, 0..=6);
        let as_program = Identity::new(&inst);
        assert!(
            check_soundness(&as_program, &pp.policy, &g, false).is_sound(),
            "timed instrumented mechanism leaked through its own running time"
        );
    }

    #[test]
    fn untimed_instrumented_leaks_time_on_timing_constant() {
        // Contrast for Theorem 3: the HALT-check mechanism's running time
        // still tracks the secret loop count.
        let pp = corpus::timing_constant();
        let inst = instrument(&pp.flowchart, pp.policy.allowed(), false).with_fuel(10_000);
        let g = Grid::hypercube(1, 0..=6);
        let as_program = Identity::new(&inst);
        assert!(!check_soundness(&as_program, &pp.policy, &g, false).is_sound());
    }

    #[test]
    fn zero_arity_program_instruments() {
        let fc = parse("program(0) { y := 5; }").unwrap();
        let m = instrument(&fc, IndexSet::empty(), false);
        assert_eq!(m.run_mech(&[]), MechOutput::Value(ExecValue::Value(5)));
    }

    #[test]
    fn violation_halt_is_distinguishable() {
        let fc = parse("program(1) { y := x1; }").unwrap();
        let m = instrument(&fc, IndexSet::empty(), false);
        match run(m.flowchart(), &[3], &ExecConfig::default()) {
            Outcome::Halted(h) => assert!(m.is_violation_halt(h.halt)),
            Outcome::OutOfFuel => panic!("diverged"),
        }
    }

    #[test]
    fn layout_registers_do_not_collide() {
        let fc = parse("program(2) { r1 := x1; r2 := x2; y := r1; }").unwrap();
        let m = instrument(&fc, IndexSet::full(2), false);
        let l = m.layout();
        let mut seen = std::collections::HashSet::new();
        for v in [
            l.taint_of(Var::Input(1)),
            l.taint_of(Var::Input(2)),
            l.taint_of(Var::Reg(1)),
            l.taint_of(Var::Reg(2)),
            l.taint_of(Var::Out),
            l.pc(),
        ] {
            assert!(seen.insert(v), "register collision at {v}");
            if let Var::Reg(j) = v {
                assert!(j > 2, "surveillance register overlaps original: r{j}");
            }
        }
    }

    #[test]
    fn violation_path_scrubs_y() {
        // Transformation (4) outputs Λ, not the partial y: the bare
        // flowchart must not carry denied data to the violation HALT.
        let fc = parse("program(1) { y := x1; }").unwrap();
        let m = instrument(&fc, IndexSet::empty(), false);
        match run(m.flowchart(), &[42], &ExecConfig::default()) {
            Outcome::Halted(h) => {
                assert!(m.is_violation_halt(h.halt));
                assert_eq!(h.y, 0, "partial y leaked to the violation HALT");
            }
            Outcome::OutOfFuel => panic!("diverged"),
        }
    }

    #[test]
    fn bare_mechanism_is_sound_as_a_program() {
        // Self-application: the instrumented mechanism, run as an ordinary
        // flowchart (its output just the final y), factors through the
        // policy it enforces — scrubbing makes the notice the constant 0,
        // at the price of Fenton-style overlap with genuine outputs.
        use enf_flowchart::program::FlowchartProgram;
        let gen_cfg = GenConfig::default();
        for seed in 900..940u64 {
            let fc = random_flowchart(seed, &gen_cfg);
            for j in [IndexSet::empty(), IndexSet::single(1), IndexSet::single(2)] {
                let inst = instrument(&fc, j, false);
                let bare = FlowchartProgram::new(inst.flowchart().clone());
                let policy = enf_core::Allow::from_set(2, j);
                let g = Grid::hypercube(2, -1..=1);
                assert!(
                    check_soundness(&Identity::new(bare), &policy, &g, false).is_sound(),
                    "seed {seed}, J = {j}: bare mechanism leaked"
                );
            }
        }
    }

    #[test]
    fn meta_surveillance_trusts_the_scrubbed_mechanism() {
        // Watch the watchman: run surveillance over the instrumented
        // mechanism's own flowchart. Because the violation path scrubs y,
        // the bare mechanism is a policy-respecting program, and the
        // meta-mechanism can release its output — including the runs the
        // inner mechanism suppressed, whose observable is the clean 0.
        // Whatever the meta level releases must equal the bare output.
        let fc = parse("program(2) { y := x1; if x2 == 0 { y := 0; } }").unwrap();
        let j = IndexSet::single(2);
        let inst = instrument(&fc, j, false);
        let cfg = SurvConfig::surveillance(j);
        let g = Grid::hypercube(2, -2..=2);
        let mut released = 0;
        for a in g.iter_inputs() {
            if let Some(y) = run_surveillance(inst.flowchart(), &a, &cfg).accepted() {
                released += 1;
                let bare = match run(inst.flowchart(), &a, &ExecConfig::default()) {
                    Outcome::Halted(h) => h.y,
                    Outcome::OutOfFuel => panic!("diverged"),
                };
                assert_eq!(y, bare, "meta release altered the output at {a:?}");
            }
        }
        // On this program every run is meta-clean: decisions test only x2
        // and taint registers hold input-independent constants.
        assert_eq!(released, g.iter_inputs().count());
    }

    #[test]
    fn dynamic_policy_instrumented_agrees_with_monitor() {
        // setpolicy/declassify programs: the literal construction must track
        // the dynamic monitor box for box (unbound slots read allow()).
        let programs = [
            "program(2) { r1 := x1; setpolicy allow(1); y := r1; }",
            "program(2) { setpolicy allow(1, 2); y := x1 + x2; setpolicy allow(); }",
            "program(2) { r1 := x1; declassify(r1: 1 ~>); y := r1 + x2; }",
            "program(2) { r1 := x1 + x2; declassify(r1: 1 ~> 2); y := r1; }",
            "program(2) { setpolicy p1; y := x1; }",
            "program(2) { if x2 == 0 { setpolicy allow(1); } y := x1; }",
        ];
        for src in programs {
            let fc = parse(src).unwrap();
            for j in [IndexSet::empty(), IndexSet::single(1), IndexSet::full(2)] {
                let inst = instrument(&fc, j, false);
                let cfg = SurvConfig::surveillance(j);
                let g = Grid::hypercube(2, -1..=2);
                for a in g.iter_inputs() {
                    let dynamic = match run_surveillance(&fc, &a, &cfg) {
                        SurvOutcome::Accepted { y, .. } => MechOutput::Value(ExecValue::Value(y)),
                        SurvOutcome::Violation { .. } => MechOutput::Violation(Notice::lambda()),
                        SurvOutcome::OutOfFuel => MechOutput::Value(ExecValue::Diverged),
                    };
                    assert_eq!(inst.run_mech(&a), dynamic, "{src}: J = {j}, input {a:?}");
                }
            }
        }
    }

    #[test]
    fn policy_free_instrumentation_is_unchanged_by_dynamic_support() {
        // The J̄ register is only materialized for programs with policy
        // boxes; a policy-free program's instrumented graph must not
        // mention it.
        let fc = parse("program(2) { if x1 == 0 { y := x2; } else { y := 1; } }").unwrap();
        let m = instrument(&fc, IndexSet::single(2), false);
        let policy_reg = m.layout().policy();
        for (_, node, _) in m.flowchart().iter() {
            if let Node::Assign { var, .. } = node {
                assert_ne!(*var, policy_reg, "policy register leaked into static path");
            }
        }
    }

    #[test]
    fn instrumentable_bounds_the_added_registers() {
        // A fixed-policy program's top register is `C̄`'s, 2m + k + 2.
        let at = |m: usize, policy: &str| {
            let fc = parse(&format!("program(2) {{ r{m} := x1; {policy} y := r{m}; }}")).unwrap();
            instrumentable(&fc)
        };
        assert_eq!(at(510, ""), Ok(()));
        assert_eq!(
            at(511, "").unwrap_err(),
            "instrumenting needs register r1026, past the bound r1024"
        );
        // A dynamic-policy program also holds `J̄`, one register higher.
        assert!(at(509, "setpolicy allow(1);").is_ok());
        assert!(at(510, "setpolicy allow(1);").is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds the bitmask encoding")]
    fn arity_63_rejected() {
        // Build a 63-ary program via the structured API.
        use enf_flowchart::structured::{lower, Stmt, StructuredProgram};
        let p = StructuredProgram::new(63, vec![Stmt::Assign(Var::Out, Expr::x(63))]);
        let fc = lower(&p).unwrap();
        let _ = instrument(&fc, IndexSet::empty(), false);
    }
}
