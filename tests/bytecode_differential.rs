//! Differential oracles for the compiled hot paths.
//!
//! Two independent reimplementations of existing semantics landed for
//! speed — the register-bytecode VM (`enf_flowchart::bytecode` plus the
//! fused surveillance VM in `enf_surveillance::vm`) and the soundness
//! sweep's class partition, which `enf_core::check_soundness_with` takes
//! for an `Allow` policy over a grid. Their only correctness argument is
//! agreement with the originals, so this suite pins both
//! **bit-identical** against the stepper and the view partition (the same
//! policy wrapped in an `FnPolicy`, which hides its projection): outcomes,
//! step counts, violation sites, taint sets, trace event streams, full
//! soundness reports including the least-conflict witness, at every
//! thread count from 1 to 8.

use enforcement::core::{
    check_soundness_with, Allow, EvalConfig, FnPolicy, Grid, IndexSet, Policy, V,
};
use enforcement::flowchart::bytecode::Compiled;
use enforcement::flowchart::corpus;
use enforcement::flowchart::generate::{random_flowchart, GenConfig};
use enforcement::flowchart::interp::{run, ExecConfig};
use enforcement::flowchart::Flowchart;
use enforcement::prelude::{FlowchartProgram, HighWater, Surveillance};
use enforcement::surveillance::dynamic::{run_surveillance, CheckAt, Style, SurvConfig};
use enforcement::surveillance::monitor::run_trace;
use enforcement::surveillance::{
    explain, explain_vm, run_surveillance_vm, run_trace_vm, VmSurveillance,
};

/// The four surveillance configurations the paper distinguishes: M
/// (replace, halt-check), M′ (replace, every-decision), M_h (accumulate,
/// halt-check), and the accumulate/every-decision completion.
fn four_configs(allowed: IndexSet, fuel: u64) -> [SurvConfig; 4] {
    let manual = |style, check| {
        let mut cfg = SurvConfig::surveillance(allowed).with_fuel(fuel);
        cfg.style = style;
        cfg.check = check;
        cfg
    };
    [
        SurvConfig::surveillance(allowed).with_fuel(fuel),
        SurvConfig::timed(allowed).with_fuel(fuel),
        SurvConfig::highwater(allowed).with_fuel(fuel),
        manual(Style::Accumulate, CheckAt::EveryDecision),
    ]
}

/// Every probe tuple for `arity` over a small signed range.
fn probe_inputs(arity: usize) -> Vec<Vec<i64>> {
    let grid = Grid::hypercube(arity, -3..=3);
    enforcement::core::InputDomain::iter_inputs(&grid).collect()
}

/// Asserts VM == stepper on one program at one input: plain execution,
/// all four surveillance configurations, trace streams, explanations.
fn assert_engines_agree(fc: &Flowchart, input: &[i64], fuel: u64) {
    let compiled = Compiled::new(fc);
    let cfg = ExecConfig::with_fuel(fuel);
    assert_eq!(
        compiled.run(input, &cfg),
        run(fc, input, &cfg),
        "plain run diverges at {input:?}"
    );
    let allowed_sets = [
        IndexSet::empty(),
        IndexSet::single(1),
        IndexSet::full(fc.arity()),
    ];
    for allowed in allowed_sets {
        for sc in four_configs(allowed, fuel) {
            assert_eq!(
                run_surveillance_vm(&compiled, input, &sc),
                run_surveillance(fc, input, &sc),
                "surveillance diverges at {input:?} under {sc:?}"
            );
            assert_eq!(
                run_trace_vm(&compiled, input, &sc),
                run_trace(fc, input, &sc),
                "trace diverges at {input:?} under {sc:?}"
            );
        }
        let sc = SurvConfig::surveillance(allowed).with_fuel(fuel);
        assert_eq!(
            explain_vm(&compiled, input, &sc).render(),
            explain(fc, input, &sc).render(),
            "explanation diverges at {input:?}"
        );
    }
}

#[test]
fn vm_matches_stepper_on_corpus_programs() {
    for pp in corpus::all() {
        // Small fuel keeps the divergent corpus programs cheap while still
        // exercising the out-of-fuel path on both engines.
        for input in probe_inputs(pp.flowchart.arity()) {
            assert_engines_agree(&pp.flowchart, &input, 2_000);
        }
    }
}

#[test]
fn vm_matches_stepper_on_random_programs() {
    let cfg = GenConfig::default();
    for seed in 0..400 {
        let fc = random_flowchart(seed, &cfg);
        for input in [[0, 0], [1, -2], [-3, 3], [7, 5], [-1, -1]] {
            assert_engines_agree(&fc, &input, 10_000);
        }
    }
}

#[test]
fn vm_violation_sites_and_steps_match_exactly() {
    use enforcement::surveillance::dynamic::SurvOutcome;
    // The forgetting program violates at the HALT with taint {1, 2}; both
    // engines must report the same site node id and 1-based step count.
    let fc = enforcement::flowchart::parse("program(2) { y := x1; if x2 == 0 { y := 0; } }")
        .expect("parse");
    let compiled = Compiled::new(&fc);
    let sc = SurvConfig::surveillance(IndexSet::single(2)).with_fuel(1_000);
    let vm = run_surveillance_vm(&compiled, &[7, 5], &sc);
    let ast = run_surveillance(&fc, &[7, 5], &sc);
    assert_eq!(vm, ast);
    let SurvOutcome::Violation { site, taint, steps } = vm else {
        panic!("expected violation, got {vm:?}");
    };
    assert_eq!(site.0, 4);
    assert_eq!(taint, IndexSet::from_iter([1, 2]));
    assert_eq!(steps, 4);
}

/// The view-partition reference for `policy`: the same views, with the
/// projection hidden behind a closure.
fn views(policy: &Allow) -> FnPolicy<Vec<V>> {
    let policy = policy.clone();
    FnPolicy::new(policy.arity(), move |a: &[V]| policy.filter(a))
}

/// Asserts the class evaluator's full report — verdict, class count,
/// witness tuples and outputs — equals the generic sweep's on a
/// surveillance-protected program, for thread counts 1 through 8.
fn assert_class_eval_matches(fc: &Flowchart, policy: &Allow, grid: &Grid) {
    let program = FlowchartProgram::with_fuel(fc.clone(), 2_000);
    let surv = Surveillance::new(program.clone(), policy.allowed());
    let vm = VmSurveillance::new(program.clone(), policy.allowed());
    let high = HighWater::new(program, policy.allowed());
    let reference = views(policy);
    for threads in 1..=8 {
        let cfg = EvalConfig::with_threads(threads).seq_threshold(0);
        let generic = check_soundness_with(&surv, &reference, grid, false, &cfg);
        assert_eq!(
            check_soundness_with(&surv, policy, grid, false, &cfg),
            generic,
            "class evaluator diverges at {threads} threads"
        );
        // The VM mechanism slots into both checkers with the same report.
        assert_eq!(
            check_soundness_with(&vm, policy, grid, false, &cfg),
            generic,
            "VM mechanism diverges at {threads} threads"
        );
        assert_eq!(
            check_soundness_with(&high, policy, grid, false, &cfg),
            check_soundness_with(&high, &reference, grid, false, &cfg),
            "high-water class evaluator diverges at {threads} threads"
        );
    }
}

#[test]
fn class_evaluator_matches_generic_sweep_on_corpus() {
    for pp in corpus::all() {
        let arity = pp.flowchart.arity();
        // Probe naturals to stay in the terminating region of the
        // timing-sensitive corpus programs.
        let grid = Grid::hypercube(arity, 0..=4);
        assert_class_eval_matches(&pp.flowchart, &pp.policy, &grid);
    }
}

#[test]
fn class_evaluator_matches_generic_sweep_on_random_programs() {
    let gen_cfg = GenConfig::default();
    for seed in 400..440 {
        let fc = random_flowchart(seed, &gen_cfg);
        let arity = fc.arity();
        let grid = Grid::hypercube(arity, -2..=2);
        for allowed in [
            Allow::none(arity),
            Allow::new(arity, [1]),
            Allow::all(arity),
        ] {
            assert_class_eval_matches(&fc, &allowed, &grid);
        }
    }
}
