//! The surveillance disciplines on the register-bytecode VM.
//!
//! [`run_surveillance_vm`] is a fused value-and-taint loop over a
//! [`Compiled`] program: per instruction the compiler has already resolved
//! which slots the expression or predicate reads
//! ([`Compiled::reads`]), so transformation (2)/(3) becomes a union of
//! precomputed bitmask sources — no AST walk, no `vars()` allocation, no
//! variable-name dispatch. All four `Style` × `CheckAt` configurations run
//! on the one loop and are pinned bit-identical (verdict, violation site,
//! step count) to [`run_surveillance`](crate::dynamic::run_surveillance) by differential tests here and in
//! `tests/bytecode_differential.rs`.
//!
//! The loop runs up to [`LANES`] inputs at once, and
//! [`run_surveillance_vm`] is its one-lane instance. Theorem 3's
//! surveillance variables and `C̄` change with which boxes run, never with
//! the values (PAPER.md §1, item 4), so inputs that have taken the same
//! path share every taint set, the step count and the allow set. Such
//! inputs form a *lane group* (a `u64` mask) with one program counter and
//! one taint file: each instruction costs one dispatch and one taint union
//! per group, plus a loop over the lanes' values, which live in `[V; L]`
//! rows per slot. A branch whose lanes disagree splits the group in two,
//! and a part too small to gain from sharing runs its lanes again, one at
//! a time. [`VmSurveillance::run_rows`] runs the sweep's blocks this way.
//!
//! [`run_trace_vm`] and [`explain_vm`] reuse the AST monitors unchanged —
//! the VM drives them through [`Compiled::run_monitored`], which delivers
//! the exact [`Monitor`](enf_flowchart::stepper::Monitor) hook sequence of
//! the stepper — so the event stream and carrier chains are byte-identical
//! to their AST-engine counterparts.

use crate::dynamic::{CheckAt, Style, SurvConfig, SurvOutcome};
use crate::explain::Explanation;
use crate::mechanism::to_mech_output;
use crate::monitor::{EventMonitor, TaintMonitor, TraceEvent};
use enf_core::{IndexSet, MechOutput, Mechanism, Rows, V};
use enf_flowchart::bytecode::{compare_lanes, Compiled, Inst, Operand};
use enf_flowchart::graph::{Node, NodeId, PolicySpec};
use enf_flowchart::interp::ExecValue;
use enf_flowchart::program::FlowchartProgram;
use std::sync::Arc;

/// Inputs one lane-group run takes at most: one bit of a `u64` each.
pub const LANES: usize = 64;

/// Register, taint and RPN-stack rows up to this count live on the run's
/// stack frame instead of the heap — covers every corpus program and the
/// generated benchmark families. Kept small because the buffers are
/// zero-initialized on every call.
const STACK_SLOTS: usize = 16;

/// A group that a split leaves with fewer lanes than this is dropped, and
/// its lanes run again from the start, one at a time, on the one-lane
/// instance. A lane loop costs about as much as this many one-lane
/// dispatches (more where it divides), so a smaller group would share too
/// little to pay for it; lanes that keep diverging would otherwise run
/// many times slower than one input at a time.
const MIN_GROUP: u32 = 8;

/// Runs a compiled flowchart under the surveillance discipline: the fused
/// bytecode twin of [`run_surveillance`](crate::dynamic::run_surveillance), bit-identical in verdict,
/// violation site and step count.
pub fn run_surveillance_vm(compiled: &Compiled, inputs: &[V], cfg: &SurvConfig) -> SurvOutcome {
    let mut out = [SurvOutcome::OutOfFuel];
    run_lanes::<1>(compiled, Rows::one(inputs), cfg, &mut out);
    let [outcome] = out;
    outcome
}

/// Runs every row of `rows` under the surveillance discipline and hands
/// each row's outcome to `emit`, in row order: exactly
/// [`run_surveillance_vm`] on each row, computed [`LANES`] rows at a time
/// by the lane-group loop (a lone row takes the one-lane instance).
pub fn run_surveillance_rows(
    compiled: &Compiled,
    rows: Rows<'_>,
    cfg: &SurvConfig,
    mut emit: impl FnMut(SurvOutcome),
) {
    let mut outcomes = [const { SurvOutcome::OutOfFuel }; LANES];
    let mut start = 0;
    while start < rows.len() {
        let chunk = rows.slice(start..rows.len().min(start + LANES));
        let outcomes = &mut outcomes[..chunk.len()];
        if chunk.len() == 1 {
            run_lanes::<1>(compiled, chunk, cfg, outcomes);
        } else {
            run_lanes::<LANES>(compiled, chunk, cfg, outcomes);
        }
        for outcome in outcomes {
            emit(std::mem::replace(outcome, SurvOutcome::OutOfFuel));
        }
        start += chunk.len();
    }
}

/// A lane group: lanes that have taken the same path, and what they
/// share besides their values. The group's taint file lives beside it.
struct Group {
    /// The lanes, one bit each.
    mask: u64,
    pc: usize,
    steps: u64,
    /// `C̄`.
    pc_taint: IndexSet,
    /// `J`, as the path's last `setpolicy` left it.
    allowed: IndexSet,
}

/// How a group's run ended.
enum End {
    Accepted,
    Violation { site: NodeId, taint: IndexSet },
    OutOfFuel,
}

/// The lanes whose value is nonzero, as a mask.
#[inline]
fn nonzero_lanes<const L: usize>(v: [V; L]) -> u64 {
    v.iter()
        .enumerate()
        .fold(0, |bits, (l, x)| bits | (u64::from(*x != 0) << l))
}

/// The lanes of `mask` as a row: all ones in a lane of the mask, zero
/// elsewhere.
#[inline]
fn lanes_of<const L: usize>(mask: u64) -> [V; L] {
    std::array::from_fn(|l| -V::from((mask >> l) & 1 == 1))
}

/// The lane-group loop on `rows` (one to `L` inputs, `L` at most
/// [`LANES`]): `out[l]` receives row `l`'s outcome.
fn run_lanes<const L: usize>(
    compiled: &Compiled,
    rows: Rows<'_>,
    cfg: &SurvConfig,
    out: &mut [SurvOutcome],
) {
    let arity = compiled.arity();
    let n = rows.len();
    assert!(
        (1..=L).contains(&n) && L <= LANES && out.len() == n,
        "a lane-group run takes 1 to {L} rows and one outcome slot per row"
    );
    assert_eq!(
        rows.arity(),
        arity,
        "flowchart takes {} inputs, got {}",
        arity,
        rows.arity()
    );
    let slot_count = compiled.slot_count();
    let out_slot = compiled.out_slot() as usize;
    // Exhaustive sweeps call this once per block, and the one-lane
    // instance once per input, so the per-run state lives on the stack for
    // typical programs; only unusually register-heavy programs pay for a
    // heap allocation.
    let mut vals_buf = [[0 as V; L]; STACK_SLOTS];
    let mut vals_heap: Vec<[V; L]>;
    let vals: &mut [[V; L]] = if slot_count <= STACK_SLOTS {
        &mut vals_buf[..slot_count]
    } else {
        vals_heap = vec![[0 as V; L]; slot_count];
        &mut vals_heap
    };
    for (l, row) in rows.iter().enumerate() {
        for (slot, v) in vals.iter_mut().zip(row) {
            slot[l] = *v;
        }
    }
    // Transformation (1): x̄i = {i}, every other surveillance variable (and
    // C̄) empty. This is the first group's taint file; a group that splits
    // off waits with a copy of its own.
    let mut taints_buf = [IndexSet::empty(); STACK_SLOTS];
    let mut taints_heap: Vec<IndexSet>;
    let taints: &mut [IndexSet] = if slot_count <= STACK_SLOTS {
        &mut taints_buf[..slot_count]
    } else {
        taints_heap = vec![IndexSet::empty(); slot_count];
        &mut taints_heap
    };
    for (i, t) in taints.iter_mut().take(arity).enumerate() {
        *t = IndexSet::single(i + 1);
    }
    let mut stack_buf = [[0 as V; L]; STACK_SLOTS];
    let mut stack_heap: Vec<[V; L]>;
    let stack: &mut [[V; L]] = if compiled.stack_capacity() <= STACK_SLOTS {
        &mut stack_buf
    } else {
        stack_heap = vec![[0 as V; L]; compiled.stack_capacity()];
        &mut stack_heap
    };
    let live = u64::MAX >> (64 - n);
    let accumulate = cfg.style == Style::Accumulate;
    let every_decision = cfg.check == CheckAt::EveryDecision;
    let fuel = cfg.fuel;
    let insts = compiled.insts();
    let mut waiting: Vec<(Group, Vec<IndexSet>)> = Vec::new();
    let mut next = Some(Group {
        mask: live,
        pc: 0,
        steps: 0,
        pc_taint: IndexSet::empty(),
        allowed: cfg.allowed,
    });
    while let Some(group) = next {
        let Group {
            mut mask,
            mut pc,
            mut steps,
            mut pc_taint,
            mut allowed,
        } = group;
        // `keep[l]` is all ones for a lane of this group and zero for any
        // other, whose values a store must leave alone. The first group
        // holds every row's lane until it splits, and may store over the
        // lanes past the last row, which hold nothing.
        let mut keep: [V; L] = lanes_of(mask);
        let mut whole = mask == live;
        // The group's lane count, kept beside the mask so a decision
        // compares against it without counting bits.
        let mut size = V::from(mask.count_ones());
        // Transformation (2) for one assignment: v̄ ← sources ∪ C̄ (∪ v̄ for
        // the high-water discipline), then the value update on the group's
        // lanes. The fused instruction forms name their source slots
        // directly, so only the rare RPN forms consult the compile-time
        // read sets.
        macro_rules! assign {
            ($dst:expr, $v:expr, $next:expr, $t:expr) => {{
                let mut t = $t;
                let dst = $dst as usize;
                if accumulate {
                    t.union_with(&taints[dst]);
                }
                taints[dst] = t;
                let v: [V; L] = $v;
                if whole {
                    vals[dst] = v;
                } else {
                    for ((d, v), k) in vals[dst].iter_mut().zip(v).zip(keep) {
                        *d = (v & k) | (*d & !k);
                    }
                }
                pc = $next as usize;
            }};
        }
        // The lanes of `$lanes`, each from the start on the one-lane
        // instance, which never splits.
        macro_rules! one_at_a_time {
            ($lanes:expr) => {{
                let mut lanes: u64 = $lanes;
                while lanes != 0 {
                    let l = lanes.trailing_zeros() as usize;
                    lanes &= lanes - 1;
                    run_lanes::<1>(compiled, rows.slice(l..l + 1), cfg, &mut out[l..l + 1]);
                }
            }};
        }
        // A decision: the group's lanes where `taken` is 1 go to `then_`,
        // the rest to `else_`. Counting them is one vectorizable sum, and
        // usually the group goes one way. Lanes that disagree split the
        // group; the `else_` part waits with a copy of the taint file.
        macro_rules! branch {
            ($taken:expr, $then:expr, $else:expr) => {{
                let taken: [V; L] = $taken;
                let count: V = taken.iter().zip(&keep).map(|(t, k)| t & k).sum();
                if count == size {
                    pc = $then as usize;
                } else if count == 0 {
                    pc = $else as usize;
                } else {
                    let taken = nonzero_lanes(taken) & mask;
                    let rest = mask & !taken;
                    if rest.count_ones() < MIN_GROUP {
                        one_at_a_time!(rest);
                    } else {
                        waiting.push((
                            Group {
                                mask: rest,
                                pc: $else as usize,
                                steps,
                                pc_taint,
                                allowed,
                            },
                            taints.to_vec(),
                        ));
                    }
                    mask = taken;
                    if mask.count_ones() < MIN_GROUP {
                        one_at_a_time!(mask);
                        mask = 0;
                        break;
                    }
                    whole = false;
                    keep = lanes_of(mask);
                    size = V::from(mask.count_ones());
                    pc = $then as usize;
                }
            }};
        }
        let mut end = End::OutOfFuel;
        while steps < fuel {
            steps += 1;
            match insts[pc] {
                Inst::Jump { next } => pc = next as usize,
                Inst::AssignConst { dst, value, next } => assign!(dst, [value; L], next, pc_taint),
                Inst::AssignCopy { dst, src, next } => {
                    let v = vals[src as usize];
                    assign!(dst, v, next, pc_taint.union(&taints[src as usize]));
                }
                Inst::AssignBin {
                    dst,
                    op,
                    a,
                    b,
                    next,
                } => {
                    let mut t = pc_taint;
                    if let Operand::Slot(s) = a {
                        t.union_with(&taints[s as usize]);
                    }
                    if let Operand::Slot(s) = b {
                        t.union_with(&taints[s as usize]);
                    }
                    let mut v = a.lanes(vals).row();
                    op.apply_lanes(&mut v, b.lanes(vals));
                    assign!(dst, v, next, t);
                }
                Inst::AssignCode { dst, code, next } => {
                    let mut t = pc_taint;
                    for &s in compiled.reads(pc) {
                        t.union_with(&taints[s as usize]);
                    }
                    let v = compiled.eval_lanes(code, vals, stack);
                    assign!(dst, v, next, t);
                }
                Inst::CmpBr {
                    op,
                    a,
                    b,
                    then_,
                    else_,
                } => {
                    // Transformation (3): C̄ ← C̄ ∪ w̄1 ∪ … ∪ w̄s.
                    if let Operand::Slot(s) = a {
                        pc_taint.union_with(&taints[s as usize]);
                    }
                    if let Operand::Slot(s) = b {
                        pc_taint.union_with(&taints[s as usize]);
                    }
                    if every_decision && !pc_taint.is_subset(&allowed) {
                        // Theorem 3′: abort before the disallowed test is taken.
                        end = End::Violation {
                            site: NodeId(pc),
                            taint: pc_taint,
                        };
                        break;
                    }
                    let mut taken = a.lanes(vals).row();
                    compare_lanes(op, &mut taken, b.lanes(vals));
                    branch!(taken, then_, else_);
                }
                Inst::PredBr { code, then_, else_ } => {
                    for &s in compiled.reads(pc) {
                        pc_taint.union_with(&taints[s as usize]);
                    }
                    if every_decision && !pc_taint.is_subset(&allowed) {
                        end = End::Violation {
                            site: NodeId(pc),
                            taint: pc_taint,
                        };
                        break;
                    }
                    let mut taken = compiled.eval_lanes(code, vals, stack);
                    for t in &mut taken {
                        *t = V::from(*t != 0);
                    }
                    branch!(taken, then_, else_);
                }
                Inst::Policy { next } => {
                    // Policy boxes keep no operands in the instruction (the
                    // inst index is the node id); consult the source node.
                    match compiled.flowchart().node(NodeId(pc)) {
                        Node::SetPolicy { spec } => {
                            // Slot boxes resolve to allow() — this fused loop,
                            // like `run_surveillance`, runs unscheduled.
                            allowed = match spec {
                                PolicySpec::Concrete(s) => *s,
                                PolicySpec::Slot(_) => IndexSet::empty(),
                            };
                        }
                        Node::Declassify { var, from, to } => {
                            let slot = compiled.slot_of(*var) as usize;
                            taints[slot] = taints[slot].difference(from).union(to);
                        }
                        other => unreachable!("Inst::Policy compiled from {other:?}"),
                    }
                    pc = next as usize;
                }
                Inst::Halt => {
                    // Transformation (4): release y only if ȳ ∪ C̄ ⊆ J.
                    let t = taints[out_slot].union(&pc_taint);
                    end = if t.is_subset(&allowed) {
                        End::Accepted
                    } else {
                        End::Violation {
                            site: NodeId(pc),
                            taint: t,
                        }
                    };
                    break;
                }
            }
        }
        let mut lanes = mask;
        while lanes != 0 {
            let l = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            out[l] = match end {
                End::Accepted => SurvOutcome::Accepted {
                    y: vals[out_slot][l],
                    steps,
                },
                End::Violation { site, taint } => SurvOutcome::Violation { site, taint, steps },
                End::OutOfFuel => SurvOutcome::OutOfFuel,
            };
        }
        next = waiting.pop().map(|(group, file)| {
            taints.copy_from_slice(&file);
            group
        });
    }
}

/// [`run_trace`](crate::monitor::run_trace) on the VM: the compiled
/// program drives the unchanged event monitor and the mechanism it wraps,
/// so verdict and event stream match the AST engine exactly.
pub fn run_trace_vm(
    compiled: &Compiled,
    inputs: &[V],
    cfg: &SurvConfig,
) -> (SurvOutcome, Vec<TraceEvent>) {
    let fc = compiled.flowchart();
    let mut monitor = EventMonitor::new(TaintMonitor::new(fc, *cfg));
    compiled.run_monitored(inputs, cfg.fuel, &mut monitor)
}

/// [`explain`](crate::explain::explain) on the VM: same outcome, same
/// carrier chain, compiled execution.
pub fn explain_vm(compiled: &Compiled, inputs: &[V], cfg: &SurvConfig) -> Explanation {
    let (out, events) = run_trace_vm(compiled, inputs, cfg);
    let (accepted, offending) = match out {
        SurvOutcome::Accepted { .. } => (true, IndexSet::empty()),
        SurvOutcome::Violation { taint, .. } => (false, taint.difference(&cfg.allowed)),
        SurvOutcome::OutOfFuel => (false, IndexSet::empty()),
    };
    Explanation {
        accepted,
        offending,
        events: events.iter().filter_map(TraceEvent::flow_event).collect(),
    }
}

/// The surveillance mechanism running on the bytecode VM: a drop-in
/// replacement for [`Surveillance`](crate::mechanism::Surveillance) that
/// compiles the program once and sweeps compiled.
#[derive(Clone, Debug)]
pub struct VmSurveillance {
    compiled: Arc<Compiled>,
    cfg: SurvConfig,
}

impl VmSurveillance {
    /// Theorem 3's M on the VM: check at HALT.
    pub fn new(program: FlowchartProgram, allowed: IndexSet) -> Self {
        let cfg = SurvConfig::surveillance(allowed).with_fuel(program.fuel());
        VmSurveillance {
            compiled: Arc::new(Compiled::new(program.flowchart())),
            cfg,
        }
    }

    /// Theorem 3′'s M′ on the VM: additionally check at every decision.
    pub fn timed(program: FlowchartProgram, allowed: IndexSet) -> Self {
        let cfg = SurvConfig::timed(allowed).with_fuel(program.fuel());
        VmSurveillance {
            compiled: Arc::new(Compiled::new(program.flowchart())),
            cfg,
        }
    }

    /// The high-water-mark M_h on the VM: taints never shrink.
    pub fn highwater(program: FlowchartProgram, allowed: IndexSet) -> Self {
        let cfg = SurvConfig::highwater(allowed).with_fuel(program.fuel());
        VmSurveillance {
            compiled: Arc::new(Compiled::new(program.flowchart())),
            cfg,
        }
    }

    /// The VM judge for a lattice policy: monitors against the policy's
    /// fixed-clearance reduction `J_c = { i : label(i) ⇝* c }`
    /// ([`enf_core::label::LatticePolicy::induced`]), so the VM and the
    /// AST monitor ([`crate::mls::lattice_surveillance`]) enforce the same
    /// induced allow-set and stay differentially pinned.
    pub fn lattice<L: enf_core::label::Label>(
        program: FlowchartProgram,
        policy: &enf_core::label::LatticePolicy<L>,
    ) -> Self {
        VmSurveillance::new(program, policy.induced())
    }

    /// Wraps an already-compiled program under `cfg`.
    pub fn from_compiled(compiled: Arc<Compiled>, cfg: SurvConfig) -> Self {
        VmSurveillance { compiled, cfg }
    }

    /// The compiled program.
    pub fn compiled(&self) -> &Compiled {
        &self.compiled
    }

    /// The run configuration.
    pub fn config(&self) -> &SurvConfig {
        &self.cfg
    }

    /// Runs and returns the full surveillance outcome.
    pub fn run_detailed(&self, input: &[V]) -> SurvOutcome {
        run_surveillance_vm(&self.compiled, input, &self.cfg)
    }
}

impl Mechanism for VmSurveillance {
    type Out = ExecValue;

    fn arity(&self) -> usize {
        self.compiled.arity()
    }

    fn run(&self, input: &[V]) -> MechOutput<ExecValue> {
        to_mech_output(self.run_detailed(input))
    }

    /// Runs the rows on the lane-group loop ([`run_surveillance_rows`]).
    fn run_rows(&self, rows: Rows<'_>, out: &mut Vec<MechOutput<ExecValue>>) {
        run_surveillance_rows(&self.compiled, rows, &self.cfg, |o| {
            out.push(to_mech_output(o))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::run_surveillance;
    use crate::explain::explain;
    use crate::mechanism::Surveillance;
    use crate::monitor::run_trace;
    use enf_flowchart::corpus;
    use enf_flowchart::generate::{random_flowchart, GenConfig};
    use enf_flowchart::graph::Flowchart;
    use enf_flowchart::parse;

    /// All four `Style` × `CheckAt` configurations over one allowed set.
    fn four_configs(allowed: IndexSet) -> [SurvConfig; 4] {
        let accumulate_timed = SurvConfig {
            allowed,
            style: Style::Accumulate,
            check: CheckAt::EveryDecision,
            fuel: 1_000_000,
        };
        [
            SurvConfig::surveillance(allowed),
            SurvConfig::timed(allowed),
            SurvConfig::highwater(allowed),
            accumulate_timed,
        ]
    }

    fn assert_all_configs_match(fc: &Flowchart, inputs: &[V], fuel: u64, ctx: &str) {
        let compiled = Compiled::new(fc);
        for allowed in [
            IndexSet::empty(),
            IndexSet::single(1),
            IndexSet::full(fc.arity()),
        ] {
            for cfg in four_configs(allowed) {
                let cfg = cfg.with_fuel(fuel);
                let ast = run_surveillance(fc, inputs, &cfg);
                let vm = run_surveillance_vm(&compiled, inputs, &cfg);
                assert_eq!(ast, vm, "{ctx}: cfg {cfg:?}, inputs {inputs:?}");
            }
        }
    }

    #[test]
    fn corpus_programs_match_ast_engine_on_all_configs() {
        for pp in corpus::all() {
            let k = pp.flowchart.arity();
            let inputs: Vec<Vec<V>> = match k {
                1 => (-2..=2).map(|a| vec![a]).collect(),
                _ => (-2..=2)
                    .flat_map(|a| (-2..=2).map(move |b| vec![a, b]))
                    .collect(),
            };
            for a in inputs {
                assert_all_configs_match(&pp.flowchart, &a, 2_000, pp.name);
            }
        }
    }

    #[test]
    fn random_programs_match_ast_engine_on_all_configs() {
        let gen = GenConfig::default();
        for seed in 200..260u64 {
            let fc = random_flowchart(seed, &gen);
            for a in -2..=2 {
                for b in -2..=2 {
                    assert_all_configs_match(&fc, &[a, b], 10_000, &format!("seed {seed}"));
                }
            }
        }
    }

    #[test]
    fn fuel_edges_match_including_zero() {
        let fc = parse("program(1) { while x1 != 0 { x1 := x1 - 1; } y := 1; }").unwrap();
        for fuel in 0..25 {
            assert_all_configs_match(&fc, &[3], fuel, "fuel sweep");
        }
    }

    #[test]
    fn trace_vm_produces_identical_event_stream() {
        let fc = parse("program(2) { y := x1; if x2 == 0 { y := 0; } }").unwrap();
        let compiled = Compiled::new(&fc);
        for cfg in four_configs(IndexSet::single(2)) {
            for a in [[9, 0], [9, 5], [0, 0]] {
                let ast = run_trace(&fc, &a, &cfg);
                let vm = run_trace_vm(&compiled, &a, &cfg);
                assert_eq!(ast, vm, "cfg {cfg:?}, inputs {a:?}");
            }
        }
    }

    #[test]
    fn explain_vm_matches_ast_explain() {
        let gen = GenConfig::default();
        for seed in 300..320u64 {
            let fc = random_flowchart(seed, &gen);
            let compiled = Compiled::new(&fc);
            for cfg in four_configs(IndexSet::single(2)) {
                for a in [[-1, 1], [0, 0], [2, -2]] {
                    assert_eq!(
                        explain(&fc, &a, &cfg),
                        explain_vm(&compiled, &a, &cfg),
                        "seed {seed}, cfg {cfg:?}, inputs {a:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn vm_mechanism_matches_ast_mechanism() {
        let fc = parse("program(2) { y := x2; if x2 == 0 { y := 0; } }").unwrap();
        let p = FlowchartProgram::new(fc);
        let ast = Surveillance::new(p.clone(), IndexSet::single(2));
        let vm = VmSurveillance::new(p, IndexSet::single(2));
        assert_eq!(Mechanism::arity(&vm), 2);
        for a in -3..=3 {
            for b in -3..=3 {
                assert_eq!(ast.run(&[a, b]), vm.run(&[a, b]), "at ({a}, {b})");
            }
        }
    }

    #[test]
    fn vm_lattice_judge_matches_ast_judge_on_the_reduction() {
        use crate::mls::lattice_surveillance;
        use enf_core::label::{Classification, IntransitiveFlow, LatticePolicy, Level};
        let fc = parse("program(2) { if x1 == 0 { y := x2; } else { y := x1; } }").unwrap();
        let labeling = Classification::new(vec![Level::Secret, Level::Unclassified]);
        for flow in [
            IntransitiveFlow::transitive(),
            IntransitiveFlow::new(vec![(Level::Secret, Level::Unclassified)]),
        ] {
            for clearance in Level::ALL {
                let policy = LatticePolicy::new(labeling.clone(), flow.clone(), clearance);
                let p = FlowchartProgram::new(fc.clone());
                let ast = lattice_surveillance(p.clone(), &policy);
                let vm = VmSurveillance::lattice(p, &policy);
                for a in -2..=2 {
                    for b in -2..=2 {
                        assert_eq!(
                            ast.run(&[a, b]),
                            vm.run(&[a, b]),
                            "at ({a}, {b}), clearance {clearance:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vm_violation_site_matches_instrumented_node_ids() {
        let fc = parse("program(1) { y := x1; }").unwrap();
        let compiled = Compiled::new(&fc);
        let ast = run_surveillance(&fc, &[3], &SurvConfig::surveillance(IndexSet::empty()));
        let vm = run_surveillance_vm(
            &compiled,
            &[3],
            &SurvConfig::surveillance(IndexSet::empty()),
        );
        assert_eq!(ast, vm);
        match vm {
            SurvOutcome::Violation { site, .. } => {
                assert!(matches!(fc.node(site), enf_flowchart::graph::Node::Halt));
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }
}
