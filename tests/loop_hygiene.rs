//! Engine-hygiene check for the monitor refactor: every executor drives a
//! flowchart through the one generic [`Stepper`] loop. The only `loop {`
//! allowed in executor-layer sources are the stepper engine itself and
//! `run_reference`, the seed surveillance loop kept verbatim as the
//! differential oracle. A third loop appearing here means someone forked
//! the step semantics again — port it to a `Monitor` instead.
//!
//! (Parsers, dataflow fixpoints, Minsky machines etc. keep their loops;
//! they are not flowchart executors.)
//!
//! The soundness sweeps get the same guard: every `check_soundness*`
//! entry point runs the one sweep in `enf_core::soundness`, so exactly
//! one per-input `visit_range(` loop may exist across the sweep modules.

use std::path::{Path, PathBuf};

/// The executor layer: every module that steps a `Flowchart` over a store.
/// The bytecode VM and its fused surveillance twin are executors too —
/// their dispatch is a fuel-bounded `while`, not another `loop {` fork.
const EXECUTOR_SOURCES: &[&str] = &[
    "crates/flowchart/src/interp.rs",
    "crates/flowchart/src/stepper.rs",
    "crates/flowchart/src/bytecode.rs",
    "crates/surveillance/src/dynamic.rs",
    "crates/surveillance/src/monitor.rs",
    "crates/surveillance/src/explain.rs",
    "crates/surveillance/src/highwater.rs",
    "crates/surveillance/src/instrument.rs",
    "crates/surveillance/src/mls.rs",
    "crates/surveillance/src/vm.rs",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn step_loops_in(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .matches("loop {")
        .count()
}

#[test]
fn executors_share_the_single_stepper_loop() {
    let mut with_loops = Vec::new();
    for rel in EXECUTOR_SOURCES {
        let n = step_loops_in(&repo_root().join(rel));
        if n > 0 {
            with_loops.push((*rel, n));
        }
    }
    assert_eq!(
        with_loops,
        vec![
            ("crates/flowchart/src/stepper.rs", 1),
            ("crates/surveillance/src/dynamic.rs", 1),
        ],
        "executor modules may contain exactly two step loops: the Stepper \
         engine and the pinned run_reference oracle"
    );
}

/// The modules behind every `check_soundness*` entry point.
const SWEEP_SOURCES: &[&str] = &[
    "crates/core/src/soundness.rs",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/label.rs",
];

#[test]
fn soundness_sweeps_share_one_loop() {
    let mut loops = Vec::new();
    for rel in SWEEP_SOURCES {
        let path = repo_root().join(rel);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        // Unit tests may drive the domain directly; only the library counts.
        let library = text.split("#[cfg(test)]").next().unwrap_or_default();
        let n = library.matches("visit_range(").count();
        if n > 0 {
            loops.push((*rel, n));
        }
    }
    assert_eq!(
        loops,
        vec![("crates/core/src/soundness.rs", 1)],
        "the soundness sweeps share one per-input loop, the sweep in \
         soundness.rs; give a new sweep a partition or a policy list there \
         instead of a loop of its own"
    );
}
