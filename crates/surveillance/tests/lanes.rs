//! The lane-group loop against the AST reference.
//!
//! `run_surveillance_rows` runs a block of inputs on the surveillance VM's
//! lane groups. Every row's outcome must be exactly what
//! `run_surveillance` (the AST engine) gives that row alone: the same
//! verdict and released value, the same violation site and taint, the same
//! step count. The properties cover random plain and policy programs
//! (`setpolicy`, `declassify`), all four `Style` × `CheckAt`
//! configurations, fuel 0–25 and ample fuel, and blocks of 1, 63, 64, 65
//! and 200 consecutive inputs; the fixed tests cover arity 0 and arity 1.
//! `VmSurveillance::run_rows` must equal its own `run` on every row.

use enf_core::{Grid, IndexSet, InputDomain, Mechanism, Rows, V};
use enf_flowchart::bytecode::Compiled;
use enf_flowchart::generate::{random_flowchart, random_policy_flowchart, GenConfig};
use enf_flowchart::graph::Flowchart;
use enf_flowchart::parse;
use enf_flowchart::program::FlowchartProgram;
use enf_surveillance::dynamic::{run_surveillance, CheckAt, Style, SurvConfig, SurvOutcome};
use enf_surveillance::{run_surveillance_rows, VmSurveillance};
use proptest::prelude::*;

/// Block sizes around the 64-lane boundary.
const BLOCKS: [usize; 5] = [1, 63, 64, 65, 200];

/// All four discipline configurations for the policy `allow(J)`.
fn all_configs(allowed: IndexSet, fuel: u64) -> [SurvConfig; 4] {
    [
        SurvConfig::surveillance(allowed).with_fuel(fuel),
        SurvConfig::timed(allowed).with_fuel(fuel),
        SurvConfig::highwater(allowed).with_fuel(fuel),
        SurvConfig {
            allowed,
            style: Style::Accumulate,
            check: CheckAt::EveryDecision,
            fuel,
        },
    ]
}

/// `count` consecutive inputs of `[-3, 3]^arity` from index `start`
/// (wrapping), laid out row after row: a sweep's block, whose rows take
/// different paths through small programs.
fn block(arity: usize, start: usize, count: usize) -> Vec<V> {
    let grid = Grid::hypercube(arity, -3..=3);
    let mut values = Vec::with_capacity(arity * count);
    let mut row = Vec::new();
    for k in 0..count {
        grid.nth_input((start + k) % grid.len(), &mut row);
        values.extend_from_slice(&row);
    }
    values
}

/// Every lane's outcome equals the AST engine's on its row.
fn assert_lanes_match(fc: &Flowchart, values: &[V], count: usize, cfg: &SurvConfig) {
    let compiled = Compiled::new(fc);
    let rows = Rows::new(values, fc.arity(), count);
    let mut lanes = Vec::new();
    run_surveillance_rows(&compiled, rows, cfg, |o| lanes.push(o));
    assert_eq!(lanes.len(), count, "one outcome per row");
    for (k, (row, lane)) in rows.iter().zip(&lanes).enumerate() {
        assert_eq!(
            *lane,
            run_surveillance(fc, row, cfg),
            "row {k} of {count} ({row:?}), cfg {cfg:?}"
        );
    }
}

/// The mechanism's block path equals its own per-input path.
fn assert_run_rows_matches_run(m: &VmSurveillance, values: &[V], count: usize) {
    let rows = Rows::new(values, m.arity(), count);
    let mut block = Vec::new();
    m.run_rows(rows, &mut block);
    let single: Vec<_> = rows.iter().map(|a| m.run(a)).collect();
    assert_eq!(block, single);
}

#[test]
fn arity_zero_blocks_hold_empty_tuples() {
    let fc = parse("program(0) { y := 3; }").unwrap();
    for count in [1, 5, 64, 65] {
        for cfg in all_configs(IndexSet::empty(), 100) {
            assert_lanes_match(&fc, &[], count, &cfg);
        }
    }
    let compiled = Compiled::new(&fc);
    let mut lanes = Vec::new();
    let cfg = SurvConfig::surveillance(IndexSet::empty());
    run_surveillance_rows(&compiled, Rows::new(&[], 0, 3), &cfg, |o| lanes.push(o));
    assert_eq!(lanes, vec![SurvOutcome::Accepted { y: 3, steps: 3 }; 3]);
}

#[test]
fn arity_one_blocks_split_at_every_loop_test() {
    // Each input loops a different number of times, so a 200-row block
    // splits into groups at every test of the loop guard.
    let fc = parse("program(1) { r1 := x1; while r1 > 0 { r1 := r1 - 1; } y := x1; }").unwrap();
    let values: Vec<V> = (-100..100).collect();
    for count in BLOCKS {
        for allowed in [IndexSet::empty(), IndexSet::single(1)] {
            for cfg in all_configs(allowed, 10_000) {
                assert_lanes_match(&fc, &values[..count], count, &cfg);
            }
        }
    }
}

#[test]
fn lanes_that_keep_diverging_finish_one_at_a_time() {
    // Each pass of the loop splits off the few lanes whose residue
    // matches, so a block falls apart into groups too small to share a
    // dispatch, and their lanes run again from the start, one at a time.
    let fc = parse(
        "program(2) {
            r1 := 0;
            while r1 < 40 { if (x1 * 7 + x2) % 16 == r1 % 16 { y := y + x1; } r1 := r1 + 1; }
        }",
    )
    .unwrap();
    for count in BLOCKS {
        let values = block(2, 3, count);
        for cfg in all_configs(IndexSet::single(2), 10_000) {
            assert_lanes_match(&fc, &values, count, &cfg);
        }
    }
}

#[test]
fn fuel_zero_to_25_matches_on_every_lane() {
    let fc = parse("program(1) { while x1 != 0 { x1 := x1 - 1; } y := 1; }").unwrap();
    let values: Vec<V> = (0..200).map(|k| k % 13 - 2).collect();
    for fuel in 0..=25 {
        for count in BLOCKS {
            for cfg in all_configs(IndexSet::single(1), fuel) {
                assert_lanes_match(&fc, &values[..count], count, &cfg);
            }
        }
    }
}

#[test]
fn policy_boxes_act_per_group() {
    // The setpolicy on one arm and the declassify on the other leave two
    // groups with different allow sets and taint files.
    let fc = parse(
        "program(2) {
            r1 := x1;
            if x2 > 0 { setpolicy allow(1); } else { declassify(r1: 1 ~> 2); }
            y := r1;
        }",
    )
    .unwrap();
    let values = block(2, 0, 49);
    for allowed in [IndexSet::empty(), IndexSet::single(2)] {
        for cfg in all_configs(allowed, 1_000) {
            assert_lanes_match(&fc, &values, 49, &cfg);
        }
    }
}

#[test]
fn a_register_only_declassified_has_a_slot() {
    // The register appears in no assignment or test, so the register file
    // must still count it.
    let fc = parse("program(1) { declassify(r3: 1 ~> ); y := x1; }").unwrap();
    let values: Vec<V> = (-32..32).collect();
    for count in [1, 64] {
        for cfg in all_configs(IndexSet::empty(), 100) {
            assert_lanes_match(&fc, &values[..count], count, &cfg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_lane_matches_the_ast_reference(
        seed in 0u64..1_000_000,
        arity in 1usize..=3,
        policy_boxes in any::<bool>(),
        allow_bits in 0u64..8,
        size in 0usize..5,
        start in 0usize..400,
        fuel in prop_oneof![0u64..=25, Just(10_000u64)],
    ) {
        let gen = GenConfig { arity, ..GenConfig::default() };
        let fc = if policy_boxes {
            random_policy_flowchart(seed, &gen)
        } else {
            random_flowchart(seed, &gen)
        };
        let allowed = IndexSet::from_bits(allow_bits & IndexSet::full(arity).to_bits());
        let count = BLOCKS[size];
        let values = block(arity, start, count);
        for cfg in all_configs(allowed, fuel) {
            assert_lanes_match(&fc, &values, count, &cfg);
        }
        let program = FlowchartProgram::with_fuel(fc, fuel);
        for m in [
            VmSurveillance::new(program.clone(), allowed),
            VmSurveillance::timed(program.clone(), allowed),
            VmSurveillance::highwater(program, allowed),
        ] {
            assert_run_rows_matches_run(&m, &values, count);
        }
    }
}
