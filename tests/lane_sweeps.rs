//! Sweeps on the lane-group VM against sweeps of the same mechanism run
//! one input at a time.
//!
//! The fold hands each block of up to 64 consecutive inputs to
//! `VmSurveillance::run_rows`, which runs them as lane groups.
//! `OneAtATime` forwards only `run`, so a sweep of it runs the VM once per
//! input through the default `run_rows`. The two sweeps must report the
//! same thing at threads 1–8: verdict, witness, class count and coverage;
//! under a panic injected inside a block, the same least quarantined
//! index; under an index limit that falls inside a block, `checked`
//! exactly at the limit.

use enf_core::chaos::{silence_chaos_panics, PanicOn};
use enf_core::par::BLOCK_ROWS;
use enf_core::soundness::try_check_soundness_with;
use enf_core::{check_soundness_with, CancelToken, EnfError, EvalConfig, SoundnessReport, Verdict};
use enforcement::flowchart::generate::{random_flowchart, random_policy_flowchart, GenConfig};
use enforcement::flowchart::interp::ExecValue;
use enforcement::prelude::*;
use enforcement::surveillance::VmSurveillance;
use proptest::prelude::*;

/// A mechanism with only `run`: its sweeps take the per-input path.
struct OneAtATime<M>(M);

impl<M: Mechanism> Mechanism for OneAtATime<M> {
    type Out = M::Out;

    fn arity(&self) -> usize {
        self.0.arity()
    }

    fn run(&self, input: &[V]) -> MechOutput<M::Out> {
        self.0.run(input)
    }
}

/// Forced-parallel configuration with exactly `t` workers.
fn par(t: usize) -> EvalConfig {
    EvalConfig::with_threads(t).seq_threshold(0)
}

/// A grid of a few hundred inputs: several blocks, and ranges that end
/// inside blocks at most thread counts.
fn grid(arity: usize) -> Grid {
    let span = [100, 10, 4][arity - 1];
    Grid::hypercube(arity, -span..=span)
}

/// Starved of fuel, the countdown loop runs out on large `x1` only, and
/// the out-of-fuel output leaks `x1` under `allow(2)`.
fn starved() -> VmSurveillance {
    let fc =
        parse("program(2) { r1 := x1; while r1 > 0 { r1 := r1 - 1; } y := x2; }").expect("parses");
    VmSurveillance::new(FlowchartProgram::with_fuel(fc, 20), IndexSet::single(2))
}

type Swept = Result<Coverage<SoundnessReport<ExecValue>>, EnfError>;

/// The guarded sweep of `m` through its lane groups and through the
/// per-input path, with a panic on the input at `fault` if given, at
/// every thread count 1–8: all sixteen results must agree. Returns the
/// one-thread per-input result.
fn assert_paths_agree(
    m: &VmSurveillance,
    g: &Grid,
    fault: Option<usize>,
    ctl: &CancelToken,
) -> Swept {
    let policy = Allow::from_set(m.arity(), m.config().allowed);
    let lanes = PanicOn::at_index(m, g, fault);
    let single = OneAtATime(PanicOn::at_index(m, g, fault));
    let reference = try_check_soundness_with(&single, &policy, g, false, &par(1), ctl);
    for t in 1..=8 {
        let got = try_check_soundness_with(&lanes, &policy, g, false, &par(t), ctl);
        assert_eq!(got, reference, "lane groups, threads {t}");
        let got = try_check_soundness_with(&single, &policy, g, false, &par(t), ctl);
        assert_eq!(got, reference, "one at a time, threads {t}");
    }
    reference
}

#[test]
fn a_panic_inside_a_block_quarantines_the_least_index() {
    silence_chaos_panics();
    let fc = parse("program(2) { y := x1; if x2 == 0 { y := 0; } }").expect("parses");
    let m = VmSurveillance::new(FlowchartProgram::new(fc), IndexSet::single(1));
    let g = grid(2);
    for fault in [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, 100, g.len() - 1] {
        match assert_paths_agree(&m, &g, Some(fault), &CancelToken::new()) {
            Err(EnfError::SubjectPanicked { input_index, .. }) => {
                assert_eq!(input_index, fault)
            }
            other => panic!("a panic at {fault} was not quarantined: {other:?}"),
        }
    }
}

#[test]
fn a_conflict_before_a_panic_in_its_block_still_refutes() {
    silence_chaos_panics();
    let m = starved();
    let g = grid(2);
    let clean = assert_paths_agree(&m, &g, None, &CancelToken::new()).expect("no faults");
    assert_eq!(clean.verdict, Verdict::Refuted);
    let conflict = clean.checked - 1;
    assert!(
        conflict % BLOCK_ROWS + 1 < BLOCK_ROWS,
        "the conflict at {conflict} must leave room in its block"
    );
    // A panic after the conflict, in the same block, ranks below it: the
    // refutation stands. On one worker the per-input loop never reaches
    // the panic, so the infallible form does not unwind either.
    let refuted = assert_paths_agree(&m, &g, Some(conflict + 1), &CancelToken::new());
    assert_eq!(refuted.as_ref(), Ok(&clean));
    let policy = Allow::from_set(2, IndexSet::single(2));
    let faulty = PanicOn::at_index(&m, &g, Some(conflict + 1));
    let plain = check_soundness_with(&faulty, &policy, &g, false, &par(1));
    assert_eq!(Some(&plain), clean.report.as_ref());
    // A panic before it, in the same block, is quarantined.
    let start = conflict - conflict % BLOCK_ROWS;
    match assert_paths_agree(&m, &g, Some(start), &CancelToken::new()) {
        Err(EnfError::SubjectPanicked { input_index, .. }) => assert_eq!(input_index, start),
        other => panic!("a panic at {start} was not quarantined: {other:?}"),
    }
}

#[test]
fn an_index_limit_inside_a_block_checks_exactly_the_limit() {
    let fc = parse("program(2) { y := x1; if x2 == 0 { y := 0; } }").expect("parses");
    let m = VmSurveillance::new(FlowchartProgram::new(fc), IndexSet::single(1));
    let g = grid(2);
    for limit in [1, BLOCK_ROWS - 1, BLOCK_ROWS + 1, 100, 2 * BLOCK_ROWS + 3] {
        let ctl = CancelToken::new().with_index_limit(limit);
        let cut = assert_paths_agree(&m, &g, None, &ctl).expect("no faults");
        assert_eq!(cut.verdict, Verdict::Unknown, "limit {limit}");
        assert_eq!(cut.checked, limit, "limit {limit}");
    }
}

#[test]
fn an_arity_zero_sweep_covers_its_one_empty_tuple() {
    let fc = parse("program(0) { y := 3; }").expect("parses");
    let m = VmSurveillance::new(FlowchartProgram::new(fc), IndexSet::empty());
    let g = Grid::new(vec![]);
    let report = check_soundness_with(&m, &Allow::none(0), &g, false, &par(1));
    assert_eq!(
        report,
        SoundnessReport::Sound {
            inputs: 1,
            classes: 1
        }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random plain and policy programs, every discipline, starved and
    /// ample fuel, with and without a panic and an index limit: the lane
    /// sweep reports what the per-input sweep reports, at threads 1–8.
    #[test]
    fn lane_sweeps_match_per_input_sweeps(
        seed in 0u64..1_000_000,
        arity in 1usize..=3,
        policy_boxes in any::<bool>(),
        discipline in 0usize..3,
        allow_bits in 0u64..8,
        fuel in prop_oneof![0u64..=40, Just(100_000u64)],
        fault in prop_oneof![Just(None), (0usize..800).prop_map(Some)],
        limit in prop_oneof![Just(None), (0usize..800).prop_map(Some)],
    ) {
        silence_chaos_panics();
        let gen = GenConfig { arity, ..GenConfig::default() };
        let fc = if policy_boxes {
            random_policy_flowchart(seed, &gen)
        } else {
            random_flowchart(seed, &gen)
        };
        let program = FlowchartProgram::with_fuel(fc, fuel);
        let allowed = IndexSet::from_bits(allow_bits & IndexSet::full(arity).to_bits());
        let m = match discipline {
            0 => VmSurveillance::new(program, allowed),
            1 => VmSurveillance::timed(program, allowed),
            _ => VmSurveillance::highwater(program, allowed),
        };
        let g = grid(arity);
        let fault = fault.map(|f| f % g.len());
        let ctl = match limit {
            Some(limit) => CancelToken::new().with_index_limit(limit % (g.len() + 1)),
            None => CancelToken::new(),
        };
        let _ = assert_paths_agree(&m, &g, fault, &ctl);
    }
}
