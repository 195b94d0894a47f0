//! Engine-hygiene check for the monitor refactor: every executor drives a
//! flowchart through the one generic [`Stepper`] loop. The only `loop {`
//! allowed in executor-layer sources is the stepper engine itself (the
//! seed surveillance loop it replaced lives on as a differential oracle in
//! `crates/surveillance/tests/stepper_differential.rs`). A second loop
//! appearing here means someone forked the step semantics again — port it
//! to a `Monitor` instead.
//!
//! (Parsers, dataflow fixpoints, Minsky machines etc. keep their loops;
//! they are not flowchart executors.)
//!
//! The exhaustive checkers get the same guard: soundness, protection,
//! completeness and the maximal mechanism all fold over the one engine in
//! `enf_core::par`, so exactly one per-input `visit_range(` loop and one
//! thread scope may exist across the checker modules. The schedule
//! oracle's anchored-class loop is the one documented exception.
//!
//! And the static analyses: every taint certifier in `enf_static` solves
//! the one may-taint problem in `dataflow.rs`, so the library declares
//! exactly five dataflow problems.
//!
//! And the service: a job runs on the connection thread that read it, so
//! the server spawns threads in three places and hands nothing over a
//! channel.

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

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn step_loops_in(path: &Path) -> usize {
    read(path).matches("loop {").count()
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
        vec![("crates/flowchart/src/stepper.rs", 1)],
        "executor modules may contain exactly one step loop: the Stepper engine"
    );
}

/// A source file's library part: everything before its first test module.
fn library_part(text: &str) -> &str {
    text.split("#[cfg(test)]").next().unwrap_or_default()
}

/// The checker layer: the engine and every module whose checks fold over
/// it.
const CHECKER_SOURCES: &[&str] = &[
    "crates/core/src/par.rs",
    "crates/core/src/soundness.rs",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/label.rs",
    "crates/core/src/completeness.rs",
    "crates/core/src/maximal.rs",
];

/// The documented exception: the schedule oracle keeps its per-schedule
/// anchored-class loop. Its class representative is the first *anchored*
/// member, and a conflict may come before it (DESIGN.md §6), so sharing
/// the sweep's class table would make the shared code branch per caller.
const SCHEDULE_ORACLE: &str = "crates/core/src/schedule.rs";

#[test]
fn checkers_share_one_per_input_loop() {
    let mut loops = Vec::new();
    for rel in CHECKER_SOURCES.iter().chain([&SCHEDULE_ORACLE]) {
        // Unit tests may drive the domain directly; only the library counts.
        let n = library_part(&read(&repo_root().join(rel)))
            .matches("visit_range(")
            .count();
        if n > 0 {
            loops.push((*rel, n));
        }
    }
    assert_eq!(
        loops,
        vec![("crates/core/src/par.rs", 1), (SCHEDULE_ORACLE, 1)],
        "the exhaustive checkers share one per-input loop, the fold in \
         par.rs; give a new checker a state and a step for the fold instead \
         of a loop of its own"
    );
    let src = repo_root().join("crates/core/src");
    let mut scopes = Vec::new();
    for path in rust_sources(&src) {
        let n = library_part(&read(&path)).matches("thread::scope(").count();
        if n > 0 {
            let rel = path.strip_prefix(&src).expect("under src");
            scopes.push((rel.display().to_string(), n));
        }
    }
    assert_eq!(
        scopes,
        vec![("par.rs".to_string(), 1)],
        "enf_core's library spawns workers in one place, the fold in par.rs"
    );
}

/// Every `.rs` file under `dir`, sorted.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(rust_sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

#[test]
fn static_analyses_share_one_taint_problem() {
    let src = repo_root().join("crates/staticflow/src");
    let mut problems = Vec::new();
    for path in rust_sources(&src) {
        let text = read(&path);
        for line in library_part(&text).lines() {
            let line = line.trim_start();
            if line.starts_with("impl") && line.contains("DataflowProblem for ") {
                let rel = path.strip_prefix(&src).expect("under src");
                problems.push(format!("{}: {line}", rel.display()));
            }
        }
    }
    assert_eq!(
        problems.len(),
        5,
        "enf_static's library declares five dataflow problems: the one \
         may-taint problem, must-taint, liveness, relational agreement and \
         values. A taint certifier passes its refinement to the may-taint \
         problem instead of forking the transfer. Found:\n{}",
        problems.join("\n")
    );
}

#[test]
fn the_server_runs_each_job_on_its_connection_thread() {
    let text = read(&repo_root().join("crates/serve/src/server.rs"));
    let library = library_part(&text);
    assert!(
        !library.contains("mpsc"),
        "the server hands no job or reply over a channel; the connection \
         thread that reads a job runs it behind the admission gate"
    );
    assert_eq!(
        library.matches("thread::Builder::new()").count(),
        3,
        "the server spawns the acceptor, one thread per connection and \
         `ServerHandle::spawn`'s thread, and no worker pool"
    );
}
