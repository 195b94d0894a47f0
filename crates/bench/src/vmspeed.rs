//! Compiled hot-path speedups: the register-bytecode VM against the
//! stepper (steps/second), the soundness sweep's class partition against
//! its view partition (tuples/second), and the lane-group VM's sweeps
//! against the same VM run one input at a time.
//!
//! Every fast path is differentially pinned bit-identical to the
//! original (`tests/bytecode_differential.rs`), so these rows price the
//! *same answers computed faster*: `exp_all` serializes them into the
//! `"bytecode"`, `"class_eval"` and `"lanes"` fields of
//! `BENCH_results.json`. The acceptance bars are ≥5× steps/s for the VM,
//! ≥10× tuples/s for the class partition with the VM, and ≥2× for lane
//! groups.

use crate::checkpoint::paired_rounds;
use enf_core::{
    check_soundness_with, Allow, EvalConfig, FnMechanism, FnPolicy, Grid, IndexSet, InputDomain,
    MechOutput, Mechanism, Policy, V,
};
use enf_flowchart::bytecode::Compiled;
use enf_flowchart::generate::{loop_program, random_flowchart, GenConfig};
use enf_flowchart::interp::ExecValue;
use enf_flowchart::interp::{run, ExecConfig};
use enf_flowchart::parse;
use enf_flowchart::program::FlowchartProgram;
use enf_surveillance::dynamic::{run_surveillance, SurvConfig};
use enf_surveillance::mechanism::Surveillance;
use enf_surveillance::{run_surveillance_vm, VmSurveillance};
use std::time::Instant;

/// One stepper-vs-VM measurement on a loop program.
///
/// Two rows per program: `engine == "plain"` prices raw interpretation
/// (`interp::run` vs [`Compiled::run`]); `engine == "surveillance"`
/// prices the monitored path the paper cares about — the AST stepper
/// walking expression trees for taint sources vs the fused bytecode
/// loop with compile-time read sets, where the ≥5× acceptance bar
/// lives.
#[derive(Clone, Debug)]
pub struct BytecodeRow {
    /// Benchmark program name.
    pub program: String,
    /// Which engine pair the row compares: `"plain"` or `"surveillance"`.
    pub engine: &'static str,
    /// Boxes executed per run.
    pub steps: u64,
    /// AST stepper wall-clock seconds.
    pub stepper_secs: f64,
    /// Bytecode VM wall-clock seconds.
    pub vm_secs: f64,
}

impl BytecodeRow {
    /// Stepper throughput in steps/second.
    pub fn stepper_steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.stepper_secs.max(1e-12)
    }

    /// VM throughput in steps/second.
    pub fn vm_steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.vm_secs.max(1e-12)
    }

    /// VM speedup over the stepper.
    pub fn speedup(&self) -> f64 {
        self.stepper_secs / self.vm_secs.max(1e-12)
    }
}

fn best_of<R>(rounds: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Rounds per class-evaluator measurement: enough to damp scheduler
/// noise on the fast side of a ratio without stretching the full run.
const CLASS_EVAL_ROUNDS: u32 = 3;

/// Times the AST engines against the bytecode VM on loop programs of
/// the given sizes, best-of-`rounds` per engine: a `"plain"` row
/// (`interp::run` vs `Compiled::run`) and a `"surveillance"` row
/// (`run_surveillance` vs `run_surveillance_vm`) per program.
pub fn measure_bytecode(rounds: u32, sizes: &[i64]) -> Vec<BytecodeRow> {
    let cfg = ExecConfig::default();
    let scfg = SurvConfig::surveillance(enf_core::IndexSet::single(1));
    let mut rows = Vec::new();
    for &iters in sizes {
        let fc = loop_program(iters, 2);
        let compiled = Compiled::new(&fc);
        let steps = run(&fc, &[0], &cfg).unwrap_halted().steps;
        // Warm all paths before timing.
        std::hint::black_box(run(&fc, &[0], &cfg));
        std::hint::black_box(compiled.run(&[0], &cfg));
        std::hint::black_box(run_surveillance(&fc, &[0], &scfg));
        std::hint::black_box(run_surveillance_vm(&compiled, &[0], &scfg));
        let stepper_secs = best_of(rounds, || run(&fc, &[0], &cfg));
        let vm_secs = best_of(rounds, || compiled.run(&[0], &cfg));
        rows.push(BytecodeRow {
            program: format!("loop_{iters}"),
            engine: "plain",
            steps,
            stepper_secs,
            vm_secs,
        });
        let stepper_secs = best_of(rounds, || run_surveillance(&fc, &[0], &scfg));
        let vm_secs = best_of(rounds, || run_surveillance_vm(&compiled, &[0], &scfg));
        rows.push(BytecodeRow {
            program: format!("loop_{iters}"),
            engine: "surveillance",
            steps,
            stepper_secs,
            vm_secs,
        });
    }
    rows
}

/// Serializes bytecode rows as a JSON array (no external dependencies).
pub fn bytecode_to_json(rows: &[BytecodeRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"program\": \"{}\", \"engine\": \"{}\", \"steps\": {}, \
             \"stepper_secs\": {:.9}, \
             \"vm_secs\": {:.9}, \"stepper_steps_per_sec\": {:.0}, \
             \"vm_steps_per_sec\": {:.0}, \"speedup\": {:.2}}}{}\n",
            r.program,
            r.engine,
            r.steps,
            r.stepper_secs,
            r.vm_secs,
            r.stepper_steps_per_sec(),
            r.vm_steps_per_sec(),
            r.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push(']');
    s
}

/// One generic-sweep-vs-class-evaluator measurement.
#[derive(Clone, Debug)]
pub struct ClassEvalRow {
    /// Scenario name.
    pub sweep: &'static str,
    /// Domain size in tuples.
    pub tuples: usize,
    /// `check_soundness_with` wall-clock seconds on the view partition
    /// (the policy wrapped in an `FnPolicy`).
    pub generic_secs: f64,
    /// `check_soundness_with` wall-clock seconds on the class partition
    /// (the `Allow` policy itself).
    pub classes_secs: f64,
}

impl ClassEvalRow {
    /// Generic-sweep throughput in tuples/second.
    pub fn generic_tuples_per_sec(&self) -> f64 {
        self.tuples as f64 / self.generic_secs.max(1e-12)
    }

    /// Class-evaluator throughput in tuples/second.
    pub fn classes_tuples_per_sec(&self) -> f64 {
        self.tuples as f64 / self.classes_secs.max(1e-12)
    }

    /// Class-evaluator speedup over the generic sweep.
    pub fn speedup(&self) -> f64 {
        self.generic_secs / self.classes_secs.max(1e-12)
    }
}

/// Measures the class partition against the view partition on a
/// `[-span, span]^2` grid under `allow(2)`, sequentially (one worker on
/// both sides, so the rows price per-tuple efficiency, not parallelism).
/// Both sides call `check_soundness_with`; the generic side hides the
/// projection by wrapping the policy in an `FnPolicy`.
///
/// Three scenarios, mechanism cost decreasing so the checker's own
/// overhead becomes visible:
///
/// * `projection_fn` — a trivial projection mechanism: the row is almost
///   pure checker overhead (view allocation + hashing vs mixed-radix
///   arithmetic), the tentpole's ≥10× claim;
/// * `surveillance_ast` — the same taint-tracking mechanism on both
///   sides: the checker swap alone on a realistic subject;
/// * `surveillance_vm` — the view partition driving the AST mechanism vs
///   the class partition driving the bytecode VM: both compiled hot
///   paths compounded, the end-to-end `enforce check` speedup.
pub fn measure_class_eval(span: i64) -> Vec<ClassEvalRow> {
    let seq = EvalConfig::with_threads(1);
    let g = Grid::hypercube(2, -span..=span);
    let tuples = g.len();
    let policy = Allow::new(2, [2]);
    let views = {
        let policy = policy.clone();
        FnPolicy::new(2, move |a: &[V]| policy.filter(a))
    };
    let fc = parse("program(2) { y := x2; if x2 == 0 { y := 0; } }").unwrap();
    let p = FlowchartProgram::new(fc);
    let ast = Surveillance::new(p.clone(), IndexSet::single(2));
    let vm = VmSurveillance::new(p, IndexSet::single(2));
    let proj = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[1]));
    vec![
        ClassEvalRow {
            sweep: "projection_fn",
            tuples,
            generic_secs: best_of(CLASS_EVAL_ROUNDS, || {
                check_soundness_with(&proj, &views, &g, false, &seq)
            }),
            classes_secs: best_of(CLASS_EVAL_ROUNDS, || {
                check_soundness_with(&proj, &policy, &g, false, &seq)
            }),
        },
        ClassEvalRow {
            sweep: "surveillance_ast",
            tuples,
            generic_secs: best_of(CLASS_EVAL_ROUNDS, || {
                check_soundness_with(&ast, &views, &g, false, &seq)
            }),
            classes_secs: best_of(CLASS_EVAL_ROUNDS, || {
                check_soundness_with(&ast, &policy, &g, false, &seq)
            }),
        },
        ClassEvalRow {
            sweep: "surveillance_vm",
            tuples,
            generic_secs: best_of(CLASS_EVAL_ROUNDS, || {
                check_soundness_with(&ast, &views, &g, false, &seq)
            }),
            classes_secs: best_of(CLASS_EVAL_ROUNDS, || {
                check_soundness_with(&vm, &policy, &g, false, &seq)
            }),
        },
    ]
}

/// Serializes class-evaluator rows as a JSON array.
pub fn class_eval_to_json(rows: &[ClassEvalRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"sweep\": \"{}\", \"tuples\": {}, \"generic_secs\": {:.6}, \
             \"classes_secs\": {:.6}, \"generic_tuples_per_sec\": {:.1}, \
             \"classes_tuples_per_sec\": {:.1}, \"speedup\": {:.2}}}{}\n",
            r.sweep,
            r.tuples,
            r.generic_secs,
            r.classes_secs,
            r.generic_tuples_per_sec(),
            r.classes_tuples_per_sec(),
            r.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push(']');
    s
}

/// One lane-groups-vs-one-at-a-time measurement: a family of random
/// programs of one arity, each swept under `allow(1)`.
#[derive(Clone, Debug)]
pub struct LanesRow {
    /// Program inputs.
    pub arity: usize,
    /// Programs swept per round.
    pub programs: usize,
    /// Inputs per round, over every program.
    pub inputs: usize,
    /// Median wall-clock seconds of a round with [`VmSurveillance`] run
    /// one input at a time.
    pub per_input_secs: f64,
    /// Median wall-clock seconds of a round with its lane groups.
    pub lanes_secs: f64,
    /// Median of the per-round ratios `per_input / lanes`.
    pub speedup: f64,
}

/// [`VmSurveillance`] behind a wrapper that forwards only `run`, so a
/// sweep gets the default `run_rows` and runs the VM once per input.
struct OneAtATime(VmSurveillance);

impl Mechanism for OneAtATime {
    type Out = ExecValue;

    fn arity(&self) -> usize {
        self.0.arity()
    }

    fn run(&self, input: &[V]) -> MechOutput<ExecValue> {
        self.0.run(input)
    }
}

/// Sweeps `programs` random programs of each arity in `shapes`
/// (`(arity, span)`, [`GenConfig::default`] otherwise) under `allow(1)`
/// with one worker, through the lane groups and one input at a time, in
/// `rounds` paired rounds (median of the per-round ratios, as the
/// `checkpoint_overhead` rows do).
pub fn measure_lanes(rounds: u32, programs: usize, shapes: &[(usize, i64)]) -> Vec<LanesRow> {
    let seq = EvalConfig::with_threads(1);
    let fuel = 100_000;
    shapes
        .iter()
        .map(|&(arity, span)| {
            let gen = GenConfig {
                arity,
                ..GenConfig::default()
            };
            let grid = Grid::hypercube(arity, -span..=span);
            let policy = Allow::new(arity, [1]);
            let mechs: Vec<VmSurveillance> = (0..programs as u64)
                .map(|seed| {
                    let fc = random_flowchart(0x1a7e5 + seed, &gen);
                    VmSurveillance::new(FlowchartProgram::with_fuel(fc, fuel), policy.allowed())
                })
                .collect();
            let one: Vec<OneAtATime> = mechs.iter().cloned().map(OneAtATime).collect();
            // Each side counts the programs it finds sound, so the two
            // sweeps can be checked against each other.
            let lanes = || {
                mechs
                    .iter()
                    .filter(|m| check_soundness_with(*m, &policy, &grid, false, &seq).is_sound())
                    .count()
            };
            let single = || {
                one.iter()
                    .filter(|m| check_soundness_with(*m, &policy, &grid, false, &seq).is_sound())
                    .count()
            };
            assert_eq!(lanes(), single(), "the two sweeps must agree");
            let (lanes_secs, per_input_secs, speedup) = paired_rounds(rounds, lanes, single);
            LanesRow {
                arity,
                programs,
                inputs: programs * grid.len(),
                per_input_secs,
                lanes_secs,
                speedup,
            }
        })
        .collect()
}

/// Serializes lane rows as a JSON array.
pub fn lanes_to_json(rows: &[LanesRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"arity\": {}, \"programs\": {}, \"inputs\": {}, \"per_input_secs\": {:.6}, \
             \"lanes_secs\": {:.6}, \"per_input_inputs_per_sec\": {:.1}, \
             \"lanes_inputs_per_sec\": {:.1}, \"speedup\": {:.2}}}{}\n",
            r.arity,
            r.programs,
            r.inputs,
            r.per_input_secs,
            r.lanes_secs,
            r.inputs as f64 / r.per_input_secs.max(1e-12),
            r.inputs as f64 / r.lanes_secs.max(1e-12),
            r.speedup,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytecode_row_math_and_json_shape() {
        let rows = vec![BytecodeRow {
            program: "loop_100".to_string(),
            engine: "plain",
            steps: 500,
            stepper_secs: 1.0,
            vm_secs: 0.1,
        }];
        assert!((rows[0].speedup() - 10.0).abs() < 1e-9);
        assert!((rows[0].vm_steps_per_sec() - 5000.0).abs() < 1e-6);
        let j = bytecode_to_json(&rows);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"engine\": \"plain\""), "{j}");
        assert!(j.contains("\"speedup\": 10.00"), "{j}");
    }

    #[test]
    fn class_eval_row_math_and_json_shape() {
        let rows = vec![ClassEvalRow {
            sweep: "projection_fn",
            tuples: 1_000_000,
            generic_secs: 2.0,
            classes_secs: 0.1,
        }];
        assert!((rows[0].speedup() - 20.0).abs() < 1e-9);
        assert!((rows[0].classes_tuples_per_sec() - 1e7).abs() < 1e-3);
        let j = class_eval_to_json(&rows);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"speedup\": 20.00"), "{j}");
    }

    #[test]
    fn measurements_produce_finite_rows() {
        let rows = measure_bytecode(2, &[100]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].engine, "plain");
        assert_eq!(rows[1].engine, "surveillance");
        assert_eq!(rows[0].steps, rows[1].steps);
        for r in &rows {
            assert!(r.stepper_secs.is_finite() && r.vm_secs.is_finite());
        }
        let rows = measure_class_eval(4);
        assert_eq!(rows.len(), 3);
        for r in rows {
            assert!(r.generic_secs.is_finite() && r.classes_secs.is_finite());
            assert_eq!(r.tuples, 81);
        }
    }
}
