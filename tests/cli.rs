//! End-to-end tests of the `enforce` CLI.
//!
//! The exit-code contract is part of the interface and pinned here:
//! `0` success, `1` violation/refuted/unknown, `2` usage or parse error,
//! `3` internal fault (e.g. a checkpoint that does not match the sweep).

use std::io::Write as _;
use std::process::{Command, Stdio};

fn enforce(args: &[&str], stdin: &str) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_enforce"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn enforce");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A scratch file path unique to this test process and tag.
fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("enforce-cli-{}-{tag}.json", std::process::id()))
}

const FORGETTING: &str = "program(2) { y := x1; if x2 == 0 { y := 0; } }";

#[test]
fn run_executes_the_program() {
    let (code, out, _) = enforce(&["run", "-", "--input", "7,5"], FORGETTING);
    assert_eq!(code, 0);
    assert!(out.contains("y = 7"), "{out}");
    assert!(out.contains("steps"), "{out}");
}

#[test]
fn surveil_accepts_with_0_and_rejects_with_1() {
    let (code, out, _) = enforce(
        &["surveil", "-", "--allow", "2", "--input", "7,0"],
        FORGETTING,
    );
    assert_eq!(code, 0);
    assert!(out.contains("accepted: y = 0"), "{out}");
    let (code, out, _) = enforce(
        &["surveil", "-", "--allow", "2", "--input", "7,5"],
        FORGETTING,
    );
    assert_eq!(code, 1, "violations exit 1\n{out}");
    assert!(out.contains("violation"), "{out}");
    assert!(out.contains("disallowed {1}"), "{out}");
}

#[test]
fn trace_streams_events_and_verdict() {
    let (code, out, _) = enforce(
        &["trace", "-", "--allow", "2", "--input", "7,5"],
        FORGETTING,
    );
    // trace is a diagnostic: it reports the violation but exits 0.
    assert_eq!(code, 0);
    assert!(out.contains("START"), "{out}");
    assert!(out.contains("y := x1 [{} -> {1}]"), "{out}");
    assert!(out.contains("branch on x2 == 0"), "{out}");
    assert!(out.contains("(else)"), "{out}");
    assert!(out.contains("violation"), "{out}");
    // Without --allow the trace is pure observation: everything released.
    let (code, out, _) = enforce(&["trace", "-", "--input", "7,5"], FORGETTING);
    assert_eq!(code, 0);
    assert!(out.contains("accepted: y = 7"), "{out}");
}

#[test]
fn trace_json_is_line_structured() {
    let (code, out, _) = enforce(
        &["trace", "-", "--allow", "2", "--input", "7,5", "--json"],
        FORGETTING,
    );
    assert_eq!(code, 0);
    let lines: Vec<&str> = out.lines().collect();
    assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(lines[0].contains("\"kind\": \"start\""), "{}", lines[0]);
    assert!(
        lines.last().unwrap().contains("\"verdict\": \"violation\""),
        "{out}"
    );
    assert!(out.contains("\"disallowed\": [1]"), "{out}");
}

#[test]
fn trace_timed_vetoes_the_branch() {
    let (code, out, _) = enforce(
        &["trace", "-", "--allow", "", "--input", "7,5", "--timed"],
        FORGETTING,
    );
    assert_eq!(code, 0);
    assert!(out.contains("(vetoed)"), "{out}");
    assert!(out.contains("violation"), "{out}");
}

#[test]
fn dot_taint_with_input_uses_the_dynamic_trace() {
    let (code, out, _) = enforce(
        &["dot", "-", "--taint", "--input", "7,5", "--allow", "2"],
        FORGETTING,
    );
    assert_eq!(code, 0);
    assert!(out.contains("digraph"), "{out}");
    assert!(out.contains("releases {1, 2}"), "{out}");
    // The untaken scrub `y := 0` is dimmed, exactly like unreachable nodes
    // in the static rendering.
    assert!(out.contains("style=dashed"), "{out}");
}

#[test]
fn check_reports_soundness() {
    let (code, out, _) = enforce(&["check", "-", "--allow", "2", "--span", "3"], FORGETTING);
    assert_eq!(code, 0);
    assert!(out.contains("sound over 49 inputs"), "{out}");
}

#[test]
fn check_of_a_program_without_inputs_sweeps_its_one_empty_tuple() {
    let (code, out, _) = enforce(
        &["check", "-", "--allow", "", "--span", "3"],
        "program(0) { y := 3; }",
    );
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("sound over 1 inputs"), "{out}");
}

#[test]
fn check_timed_flags_the_untimed_leak() {
    // Surveillance with HALT-only checks is sound untimed but the timed
    // mechanism's step count is policy-constant too (M′); both pass.
    let (code, out, _) = enforce(
        &["check", "-", "--allow", "2", "--span", "3", "--timed"],
        FORGETTING,
    );
    assert_eq!(code, 0, "{out}");
}

#[test]
fn check_budget_reports_partial_coverage() {
    let (code, out, _) = enforce(
        &[
            "check", "-", "--allow", "2", "--span", "3", "--budget", "10",
        ],
        FORGETTING,
    );
    assert_eq!(code, 1, "incomplete coverage must not exit 0\n{out}");
    assert!(out.contains("unknown: 10 of 49 inputs checked"), "{out}");
}

#[test]
fn check_deadline_cuts_the_sweep() {
    // An already-expired deadline; the grid must be large enough for the
    // strided deadline poll (every 256 inputs per worker) to fire.
    for secs in ["0", "-0"] {
        let (code, out, _) = enforce(
            &[
                "check",
                "-",
                "--allow",
                "2",
                "--span",
                "40",
                "--deadline",
                secs,
            ],
            FORGETTING,
        );
        assert_eq!(code, 1, "--deadline {secs}: {out}");
        assert!(out.contains("unknown:"), "{out}");
        assert!(out.contains("of 6561 inputs"), "{out}");
    }
}

#[test]
fn checkpoint_then_resume_completes_the_sweep() {
    let ck = scratch("resume");
    let ck_s = ck.to_str().expect("utf8 temp path");
    // Cut the sweep mid-way with a budget; three 32-blocks get persisted.
    let (code, out, _) = enforce(
        &[
            "check",
            "-",
            "--allow",
            "2",
            "--span",
            "7",
            "--checkpoint",
            ck_s,
            "--block",
            "32",
            "--budget",
            "100",
        ],
        FORGETTING,
    );
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("unknown: 100 of 225 inputs checked"), "{out}");
    let saved = std::fs::read_to_string(&ck).expect("checkpoint written");
    assert!(saved.contains("\"next_index\":96"), "{saved}");
    // Resume finishes the remaining inputs and confirms soundness.
    let (code, out, _) = enforce(
        &[
            "check", "-", "--allow", "2", "--span", "7", "--resume", ck_s,
        ],
        FORGETTING,
    );
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("sound over 225 inputs"), "{out}");
    let _ = std::fs::remove_file(&ck);
}

#[test]
fn resume_under_different_sweep_is_an_internal_error() {
    let ck = scratch("mismatch");
    let ck_s = ck.to_str().expect("utf8 temp path");
    let (code, _, _) = enforce(
        &[
            "check",
            "-",
            "--allow",
            "2",
            "--span",
            "7",
            "--checkpoint",
            ck_s,
            "--block",
            "32",
            "--budget",
            "100",
        ],
        FORGETTING,
    );
    assert_eq!(code, 1);
    // Same checkpoint, different policy: the fingerprint rejects it.
    let (code, _, err) = enforce(
        &[
            "check", "-", "--allow", "1", "--span", "7", "--resume", ck_s,
        ],
        FORGETTING,
    );
    assert_eq!(code, 3, "{err}");
    assert!(err.contains("does not match this sweep"), "{err}");
    let _ = std::fs::remove_file(&ck);
}

#[test]
fn timed_checkpoint_is_a_usage_error() {
    let (code, _, err) = enforce(
        &[
            "check",
            "-",
            "--allow",
            "2",
            "--span",
            "3",
            "--timed",
            "--checkpoint",
            "/tmp/x.json",
        ],
        FORGETTING,
    );
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("cannot be checkpointed"), "{err}");
}

#[cfg(unix)]
#[test]
fn sigint_yields_partial_coverage() {
    // A sweep slow enough (~40k inputs, ~300k steps each) that the ^C we
    // send 250ms in always lands mid-scan; cooperative cancellation then
    // reports partial coverage instead of dying on the signal. Every input
    // takes the same path, so the VM runs them 64 to a lane group; the
    // loop is sized for that.
    let slow = "program(2) { r1 := 150000; while r1 != 0 { r1 := r1 - 1; } y := 0; }";
    let mut child = Command::new(env!("CARGO_BIN_EXE_enforce"))
        .args(["check", "-", "--allow", "2", "--span", "100"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn enforce");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(slow.as_bytes())
        .expect("write stdin");
    std::thread::sleep(std::time::Duration::from_millis(250));
    let sent = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(sent.success());
    let out = child.wait_with_output().expect("wait");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("unknown:"), "{stdout}");
}

#[test]
fn certify_rejects_with_1_and_accepts_with_0() {
    let (code, out, _) = enforce(&["certify", "-", "--allow", "2"], FORGETTING);
    assert_eq!(code, 1, "rejection exits 1\n{out}");
    assert!(out.contains("Rejected"), "{out}");
    let (code, out, _) = enforce(&["certify", "-", "--allow", "2"], "program(2) { y := x2; }");
    assert_eq!(code, 0);
    assert!(out.contains("Certified"), "{out}");
}

const CONSTANT_GUARD: &str = "program(2) { r1 := 0; if r1 == 0 { y := x2; } else { y := x1; } }";

#[test]
fn certify_value_refined_beats_value_blind() {
    let (code, out, _) = enforce(&["certify", "-", "--allow", "2"], CONSTANT_GUARD);
    assert_eq!(code, 1);
    assert!(out.contains("Rejected"), "{out}");
    let (code, out, _) = enforce(
        &["certify", "-", "--allow", "2", "--scoped"],
        CONSTANT_GUARD,
    );
    assert_eq!(code, 1);
    assert!(out.contains("Rejected"), "{out}");
    let (code, out, _) = enforce(&["certify", "-", "--allow", "2", "--value"], CONSTANT_GUARD);
    assert_eq!(code, 0);
    assert!(out.contains("Certified"), "{out}");
    let (code, _, err) = enforce(
        &["certify", "-", "--allow", "2", "--value", "--scoped"],
        CONSTANT_GUARD,
    );
    assert_eq!(code, 2, "flag conflicts are usage errors\n{err}");
    assert!(err.contains("exclusive"), "{err}");
}

#[test]
fn lint_reports_findings_and_chain() {
    let (code, out, _) = enforce(&["lint", "-", "--allow", "2"], FORGETTING);
    assert_eq!(code, 0);
    assert!(out.contains("taint-leak"), "{out}");
    assert!(out.contains("carrier chain:"), "{out}");
    assert!(out.contains("y := x1"), "{out}");
}

#[test]
fn lint_json_is_structured() {
    let (code, out, _) = enforce(&["lint", "-", "--allow", "2", "--json"], CONSTANT_GUARD);
    assert_eq!(code, 0);
    assert!(out.contains("\"kind\": \"constant-decision\""), "{out}");
    assert!(out.contains("\"kind\": \"unreachable-node\""), "{out}");
    assert!(!out.contains("taint-leak"), "{out}");
}

#[test]
fn lint_clean_program_has_no_findings() {
    let (code, out, _) = enforce(&["lint", "-", "--allow", "1"], "program(1) { y := x1; }");
    assert_eq!(code, 0);
    assert!(out.contains("no findings"), "{out}");
}

#[test]
fn dot_taint_annotates_and_dims() {
    let (code, out, _) = enforce(&["dot", "-", "--taint"], CONSTANT_GUARD);
    assert_eq!(code, 0);
    assert!(out.contains("releases {2}"), "{out}");
    assert!(out.contains("style=dashed, color=gray"), "{out}");
    // Scoped facts instead of refined ones still render.
    let (code, out, _) = enforce(&["dot", "-", "--taint", "--scoped"], FORGETTING);
    assert_eq!(code, 0);
    assert!(out.contains("releases"), "{out}");
}

#[test]
fn explain_names_the_carrier() {
    let (code, out, _) = enforce(
        &["explain", "-", "--allow", "2", "--input", "7,5"],
        FORGETTING,
    );
    assert_eq!(code, 0);
    assert!(out.contains("offending inputs {1}"), "{out}");
    assert!(out.contains("y := x1"), "{out}");
}

#[test]
fn improve_lifts_example7() {
    let (code, out, _) = enforce(
        &["improve", "-", "--allow", "2", "--span", "2"],
        "program(2) { if x1 == 1 { r1 := 1; } else { r1 := 2; } y := 1; }",
    );
    assert_eq!(code, 0);
    assert!(out.contains("acceptance 0 -> 25 of 25"), "{out}");
    assert!(out.contains("ite("), "{out}");
}

#[test]
fn instrument_emits_a_flowchart_or_dot() {
    let (code, out, _) = enforce(&["instrument", "-", "--allow", "2"], FORGETTING);
    assert_eq!(code, 0);
    assert!(out.contains("START"), "{out}");
    assert!(out.contains("HALT"), "{out}");
    let (code, out, _) = enforce(&["instrument", "-", "--allow", "2", "--dot"], FORGETTING);
    assert_eq!(code, 0);
    assert!(out.starts_with("digraph"), "{out}");
}

#[test]
fn dot_emits_graphviz() {
    let (code, out, _) = enforce(&["dot", "-"], FORGETTING);
    assert_eq!(code, 0);
    assert!(out.starts_with("digraph"), "{out}");
    assert!(out.contains("shape=diamond"), "{out}");
}

#[test]
fn usage_errors_exit_2() {
    let (code, _, err) = enforce(&["run", "-", "--input", "1"], FORGETTING);
    assert_eq!(code, 2);
    assert!(err.contains("2 values") || err.contains("takes 2"), "{err}");
    let (code, _, err) = enforce(&["frobnicate", "-"], FORGETTING);
    assert_eq!(code, 2);
    assert!(err.contains("unknown command"), "{err}");
    let (code, _, err) = enforce(&["run", "-", "--input", "0,0"], "program(2) { y := x3; }");
    assert_eq!(code, 2);
    assert!(
        err.contains("parse error") || err.contains("lowering"),
        "{err}"
    );
    // Negative, not finite, or more than a `Duration` holds.
    for secs in ["-1", "1e300", "inf", "NaN"] {
        let (code, _, err) = enforce(
            &[
                "check",
                "-",
                "--allow",
                "2",
                "--span",
                "3",
                "--deadline",
                secs,
            ],
            FORGETTING,
        );
        assert_eq!(code, 2, "--deadline {secs}: {err}");
        assert!(err.contains("--deadline"), "{err}");
    }
}

const CANCELLING: &str = "program(1) { y := x1 - x1; }";
const TWO_PATH_LEAK: &str = "program(2) { if x1 > 0 { y := 1; } else { y := 2; } }";

#[test]
fn usage_lists_every_subcommand_and_flag() {
    // Golden assertion: the usage text must keep naming every subcommand
    // and the certify/refute analysis flags, so it cannot drift behind the
    // implementation again.
    let (code, _, err) = enforce(&[], "");
    assert_eq!(code, 2);
    for cmd in [
        "run",
        "surveil",
        "trace",
        "check",
        "compile",
        "certify",
        "refute",
        "lint",
        "explain",
        "improve",
        "instrument",
        "dot",
        "audit",
        "serve",
        "client",
    ] {
        assert!(
            err.lines().any(|l| l.trim_start().starts_with(cmd)),
            "usage text lost the `{cmd}` subcommand:\n{err}"
        );
    }
    for flag in [
        "--scoped",
        "--value",
        "--relational",
        "--dynamic",
        "--schedules",
        "--span",
        "--threads",
        "--json",
        "--timed",
        "--highwater",
        "--deadline",
        "--budget",
        "--checkpoint",
        "--resume",
        "--fuel",
        "--engine",
        "--dump",
        "--listen",
        "--unix",
        "--workers",
        "--queue",
        "--quota",
        "--state",
        "--cache",
        "--retry-after",
        "--chaos",
        "--addr",
        "--tenant",
        "--job",
        "--deadline-ms",
        "--attempts",
        "--timeout-ms",
        "--chaos-kill",
    ] {
        assert!(err.contains(flag), "usage text lost `{flag}`:\n{err}");
    }
    assert!(err.contains("exit codes"), "{err}");
}

#[test]
fn certify_relational_beats_value_refined() {
    // cancelling: every one-run analysis rejects, the relational one
    // certifies.
    for flags in [&[][..], &["--scoped"][..], &["--value"][..]] {
        let mut args = vec!["certify", "-", "--allow", ""];
        args.extend_from_slice(flags);
        let (code, out, _) = enforce(&args, CANCELLING);
        assert_eq!(code, 1, "{flags:?}: {out}");
        assert!(out.contains("Rejected"), "{out}");
    }
    let (code, out, _) = enforce(&["certify", "-", "--allow", "", "--relational"], CANCELLING);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("Certified"), "{out}");
    // The analysis flags stay mutually exclusive.
    let (code, _, err) = enforce(
        &["certify", "-", "--allow", "", "--relational", "--value"],
        CANCELLING,
    );
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("exclusive"), "{err}");
}

#[test]
fn refute_finds_a_witness_pair() {
    let (code, out, _) = enforce(&["refute", "-", "--allow", "2"], TWO_PATH_LEAK);
    assert_eq!(code, 1, "a proven leak exits 1\n{out}");
    assert!(out.contains("leak: inputs agreeing on allow({2})"), "{out}");
    assert!(out.contains("run a: [-3, -3] -> 2"), "{out}");
    assert!(out.contains("run b: [1, -3] -> 1"), "{out}");
}

#[test]
fn refute_certifies_cancelling() {
    let (code, out, _) = enforce(&["refute", "-", "--allow", ""], CANCELLING);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("certified"), "{out}");
}

#[test]
fn refute_unknown_when_grid_hides_the_leak() {
    // y := x1 / 9 is constant on the default [-3, 3] grid: statically
    // rejected, no witness.
    let (code, out, _) = enforce(
        &["refute", "-", "--allow", ""],
        "program(1) { y := x1 / 9; }",
    );
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("unknown"), "{out}");
    assert!(out.contains("taint {1}"), "{out}");
    // A wider grid exposes it.
    let (code, out, _) = enforce(
        &["refute", "-", "--allow", "", "--span", "9"],
        "program(1) { y := x1 / 9; }",
    );
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("leak"), "{out}");
}

#[test]
fn refute_json_carries_the_witness() {
    let (code, out, _) = enforce(&["refute", "-", "--allow", "2", "--json"], TWO_PATH_LEAK);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("\"verdict\": \"leak\""), "{out}");
    assert!(out.contains("\"allowed\": [2]"), "{out}");
    assert!(
        out.contains("\"witness\": {\"a\": [-3, -3], \"b\": [1, -3], \"out_a\": 2, \"out_b\": 1}"),
        "{out}"
    );
    let (code, out, _) = enforce(&["refute", "-", "--allow", "", "--json"], CANCELLING);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("\"verdict\": \"certified\""), "{out}");
    assert!(!out.contains("witness"), "{out}");
}

#[test]
fn refute_witness_is_thread_count_independent() {
    let mut outputs = Vec::new();
    for t in ["1", "2", "7"] {
        let (code, out, _) = enforce(
            &["refute", "-", "--allow", "2", "--threads", t],
            TWO_PATH_LEAK,
        );
        assert_eq!(code, 1, "{out}");
        outputs.push(out);
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");
}

#[test]
fn compile_dump_is_a_stable_listing() {
    // Golden snapshot of the bytecode lowering for the forgetting program:
    // slot layout, fused compare-and-branch, instruction indices = node ids.
    let (code, out, _) = enforce(&["compile", "-", "--dump"], FORGETTING);
    assert_eq!(code, 0);
    assert_eq!(
        out,
        "bytecode: 5 insts, 3 slots (arity 2)\n\
         slots: s0=x1 s1=x2 s2=y\n\
         n0: start -> n1\n\
         n1: s2 := s0 -> n2\n\
         n2: if s1 == 0 -> n3 else n4\n\
         n3: s2 := 0 -> n4\n\
         n4: halt\n"
    );
    // Without --dump only the summary line is printed.
    let (code, out, _) = enforce(&["compile", "-"], FORGETTING);
    assert_eq!(code, 0);
    assert_eq!(out, "bytecode: 5 insts, 3 slots (arity 2)\n");
}

#[test]
fn compile_rejects_nesting_past_the_bound_with_2() {
    // Each of these aborted `enforce` with a stack overflow (exit 134)
    // before nesting was bounded.
    for program in [
        format!(
            "program(1) {{ y := {}x1{}; }}",
            "(".repeat(10_000),
            ")".repeat(10_000)
        ),
        format!("program(1) {{ y := {}x1; }}", "-".repeat(100_000)),
        format!(
            "program(1) {{ {} y := x1; {} }}",
            "if x1 == 0 { ".repeat(100_000),
            "} ".repeat(100_000)
        ),
        format!("program(1) {{ y := x1{}; }}", " + x1".repeat(100_000)),
    ] {
        let (code, out, err) = enforce(&["compile", "-"], &program);
        assert_eq!(code, 2, "{out}{err}");
        assert!(err.contains("nesting deeper than 256 levels"), "{err}");
    }
}

/// Checkpoints written by an earlier build's `check --checkpoint F
/// --budget N` (`tests/fixtures/*.v1.json`, with the `.fc` program next to
/// each) resume to exactly the output of an uncut run.
#[test]
fn checkpoints_from_an_earlier_build_resume_to_the_uncut_output() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (name, flags) in [
        ("ckpt_forgetting", &["--allow", "2", "--span", "7"][..]),
        (
            "ckpt_fuel_leak",
            &["--allow", "2", "--span", "10", "--fuel", "20"][..],
        ),
        (
            "ckpt_two_coords",
            &["--allow", "1,3", "--span", "3", "--highwater"][..],
        ),
    ] {
        let program = fixtures.join(format!("{name}.fc"));
        let ckpt = fixtures.join(format!("{name}.v1.json"));
        let mut uncut_args = vec!["check", program.to_str().expect("utf8 path")];
        uncut_args.extend_from_slice(flags);
        let uncut = enforce(&uncut_args, "");
        for threads in ["1", "2", "8"] {
            let mut args = uncut_args.clone();
            args.extend_from_slice(&["--resume", ckpt.to_str().expect("utf8 path")]);
            args.extend_from_slice(&["--threads", threads]);
            assert_eq!(enforce(&args, ""), uncut, "{name} at {threads} threads");
        }
    }
}

#[test]
fn trace_engines_are_bit_identical() {
    for extra in [&[][..], &["--json"][..], &["--highwater"][..]] {
        let mut vm_args = vec!["trace", "-", "--allow", "2", "--input", "7,5"];
        vm_args.extend_from_slice(extra);
        let mut ast_args = vm_args.clone();
        vm_args.extend_from_slice(&["--engine", "vm"]);
        ast_args.extend_from_slice(&["--engine", "ast"]);
        let (vm_code, vm_out, _) = enforce(&vm_args, FORGETTING);
        let (ast_code, ast_out, _) = enforce(&ast_args, FORGETTING);
        assert_eq!(vm_code, ast_code, "{extra:?}");
        assert_eq!(vm_out, ast_out, "{extra:?}");
    }
}

#[test]
fn check_engines_agree_and_bad_engine_is_usage_error() {
    for extra in [&[][..], &["--highwater"][..]] {
        let mut vm_args = vec!["check", "-", "--allow", "2", "--span", "3"];
        vm_args.extend_from_slice(extra);
        let mut ast_args = vm_args.clone();
        vm_args.extend_from_slice(&["--engine", "vm"]);
        ast_args.extend_from_slice(&["--engine", "ast"]);
        let (vm_code, vm_out, _) = enforce(&vm_args, FORGETTING);
        let (ast_code, ast_out, _) = enforce(&ast_args, FORGETTING);
        assert_eq!(vm_code, ast_code, "{extra:?}");
        assert_eq!(vm_out, ast_out, "{extra:?}");
    }
    let (code, _, err) = enforce(
        &[
            "check", "-", "--allow", "2", "--span", "3", "--engine", "jit",
        ],
        FORGETTING,
    );
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("bad --engine"), "{err}");
}

#[test]
fn sound_check_exits_zero() {
    let (code, out, _) = enforce(
        &["check", "-", "--allow", "", "--span", "2"],
        "program(1) { y := 1; }",
    );
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("sound"), "{out}");
}

// ---- dynamic policies: certify --dynamic, check --schedules, scheduled refute ----

/// Mid-run upgrade: the captured x1 is released at HALT under the final
/// policy allow(1) — sound under every schedule, but only the schedule
/// certifier can see it.
const POLICY_UPGRADE: &str = "program(2) { r1 := x1; setpolicy allow(1); y := r1; }";

/// Mid-run tightening: the policy drops to allow() before x1 is released.
const POLICY_DROP: &str = "program(1) { setpolicy allow(); y := x1; }";

#[test]
fn certify_dynamic_accepts_what_every_fixed_analysis_rejects() {
    for flags in [
        &[][..],
        &["--scoped"][..],
        &["--value"][..],
        &["--relational"][..],
    ] {
        let mut args = vec!["certify", "-", "--allow", ""];
        args.extend_from_slice(flags);
        let (code, out, _) = enforce(&args, POLICY_UPGRADE);
        assert_eq!(code, 1, "fixed-policy {flags:?} must reject\n{out}");
        assert!(out.contains("Rejected"), "{out}");
    }
    let (code, out, _) = enforce(
        &["certify", "-", "--allow", "", "--dynamic"],
        POLICY_UPGRADE,
    );
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("Certified"), "{out}");
    // Tightening mid-run is rejected even dynamically.
    let (code, out, _) = enforce(&["certify", "-", "--allow", "1", "--dynamic"], POLICY_DROP);
    assert_eq!(code, 1, "{out}");
    // The analysis flags stay exclusive.
    let (code, _, err) = enforce(
        &["certify", "-", "--allow", "", "--dynamic", "--value"],
        POLICY_UPGRADE,
    );
    assert_eq!(code, 2, "flag conflicts are usage errors\n{err}");
}

#[test]
fn check_schedules_sweeps_every_bounded_schedule() {
    // A constant release is sound under both bindings of the slot.
    let (code, out, _) = enforce(
        &[
            "check",
            "-",
            "--allow",
            "1",
            "--span",
            "2",
            "--schedules",
            "16",
        ],
        "program(1) { setpolicy p1; y := 0; }",
    );
    assert_eq!(code, 0, "{out}");
    assert!(
        out.contains("sound over 5 inputs under 2 schedules"),
        "{out}"
    );
    // Releasing x1 leaks under the binding p1 = allow(); the witness is
    // replay-validated before it is reported.
    let (code, out, _) = enforce(
        &[
            "check",
            "-",
            "--allow",
            "1",
            "--span",
            "2",
            "--schedules",
            "16",
        ],
        "program(1) { setpolicy p1; y := x1; }",
    );
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("UNSOUND under schedule #0"), "{out}");
    assert!(out.contains("p1 = {}"), "{out}");
    assert!(out.contains("witness replay validated"), "{out}");
}

#[test]
fn check_schedules_flag_hygiene() {
    let (code, _, err) = enforce(
        &[
            "check",
            "-",
            "--allow",
            "1",
            "--span",
            "2",
            "--schedules",
            "0",
        ],
        POLICY_DROP,
    );
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("bad --schedules"), "{err}");
    for conflict in ["--timed", "--highwater"] {
        let (code, _, err) = enforce(
            &[
                "check",
                "-",
                "--allow",
                "1",
                "--span",
                "2",
                "--schedules",
                "4",
                conflict,
            ],
            POLICY_DROP,
        );
        assert_eq!(
            code, 2,
            "{conflict} with --schedules must be a usage error\n{err}"
        );
    }
}

#[test]
fn refute_produces_a_replay_validated_scheduled_witness() {
    // Certified dynamic-policy program: refute exits 0.
    let (code, out, _) = enforce(&["refute", "-", "--allow", ""], POLICY_UPGRADE);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("certified"), "{out}");
    assert!(out.contains("every schedule"), "{out}");
    // Tightening program: a scheduled witness (input pair + schedule),
    // validated by replay before printing.
    let (code, out, _) = enforce(&["refute", "-", "--allow", "1"], POLICY_DROP);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("leak under schedule #0"), "{out}");
    assert!(out.contains("run a:"), "{out}");
    assert!(out.contains("run b:"), "{out}");
    assert!(out.contains("witness replay validated"), "{out}");
}

#[test]
fn refute_json_carries_the_scheduled_witness() {
    let (code, out, _) = enforce(&["refute", "-", "--allow", "1", "--json"], POLICY_DROP);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("\"verdict\": \"leak\""), "{out}");
    assert!(out.contains("\"schedule_index\": 0"), "{out}");
    assert!(out.contains("\"final_policy\": []"), "{out}");
    assert!(out.contains("\"validated\": true"), "{out}");
    let (code, out, _) = enforce(&["refute", "-", "--allow", "", "--json"], POLICY_UPGRADE);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("\"verdict\": \"certified\""), "{out}");
}

#[test]
fn trace_renders_policy_boxes() {
    let (code, out, _) = enforce(
        &["trace", "-", "--allow", "", "--input", "7,5"],
        POLICY_UPGRADE,
    );
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("setpolicy allow(1)"), "{out}");
    assert!(out.contains("now allowing {1}"), "{out}");
    let (code, out, _) = enforce(
        &["trace", "-", "--allow", "", "--input", "7,5", "--json"],
        POLICY_UPGRADE,
    );
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("\"kind\": \"setpolicy\""), "{out}");
    assert!(out.contains("\"active\": [1]"), "{out}");
}

// ---------------------------------------------------------------------------
// serve / client: the exit-code contract over a live server.
// ---------------------------------------------------------------------------

/// Spawns `enforce serve --listen 127.0.0.1:0` and returns the child plus
/// the bound address parsed from the banner line (printed before the
/// blocking accept loop, so this never races the server coming up).
#[cfg(unix)]
fn spawn_server(
    extra: &[&str],
) -> (
    std::process::Child,
    String,
    std::io::BufReader<std::process::ChildStdout>,
) {
    use std::io::BufRead as _;
    let mut server = Command::new(env!("CARGO_BIN_EXE_enforce"))
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn enforce serve");
    let mut lines = std::io::BufReader::new(server.stdout.take().expect("stdout piped"));
    let mut banner = String::new();
    lines.read_line(&mut banner).expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("enforce-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    (server, addr, lines)
}

/// Sends SIGTERM and waits up to 10 s for the drain; a daemon still
/// running then is killed and the test fails with "drain hung".
#[cfg(unix)]
fn sigterm_drain(
    mut server: std::process::Child,
    mut lines: std::io::BufReader<std::process::ChildStdout>,
) -> (i32, String) {
    use std::io::Read as _;
    use std::time::{Duration, Instant};
    let sent = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(sent.success());
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = server.try_wait().expect("poll server") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = server.kill();
            let _ = server.wait();
            panic!("drain hung");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut rest = String::new();
    lines.read_to_string(&mut rest).expect("read drain report");
    (status.code().unwrap_or(-1), rest)
}

#[cfg(unix)]
#[test]
fn serve_and_client_honor_the_exit_code_contract() {
    let (server, addr, lines) = spawn_server(&[]);

    // ping: transport round-trip only.
    let (code, out, err) = enforce(&["client", "ping", "--addr", &addr], "");
    assert_eq!(code, 0, "{out}{err}");
    assert!(out.contains("pong"), "{out}");

    let sound = "program(2) { y := x1 * 2; }";
    let leaky = "program(2) { y := x2; }";

    // check on a sound program: confirmed, exit 0.
    let (code, out, _) = enforce(
        &[
            "client", "check", "-", "--addr", &addr, "--allow", "1", "--span", "2",
        ],
        sound,
    );
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("confirmed"), "{out}");

    // refute on a leaky program: witness pair reported, exit 1.
    let (code, out, _) = enforce(
        &[
            "client", "refute", "-", "--addr", &addr, "--allow", "1", "--span", "2",
        ],
        leaky,
    );
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("refuted"), "{out}");
    assert!(out.contains("witness_a"), "{out}");

    // surveil: a released run exits 0, a refused one 1.
    let (code, out, _) = enforce(
        &[
            "client", "surveil", "-", "--addr", &addr, "--allow", "1", "--input", "3,4",
        ],
        sound,
    );
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("released"), "{out}");
    let (code, out, _) = enforce(
        &[
            "client", "surveil", "-", "--addr", &addr, "--allow", "1", "--input", "3,4",
        ],
        leaky,
    );
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("refused"), "{out}");

    // Usage rejections exit 2 — locally (bad op, missing --addr) and as
    // server usage frames (allow index beyond the program's arity).
    let (code, _, err) = enforce(&["client", "bogus", "--addr", &addr], "");
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("unknown client op"), "{err}");
    let (code, _, err) = enforce(&["client", "ping"], "");
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--addr"), "{err}");
    let (code, out, _) = enforce(
        &[
            "client", "check", "-", "--addr", &addr, "--allow", "7", "--span", "2",
        ],
        sound,
    );
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("usage"), "{out}");

    // A server that never panicked drains clean: exit 0, stats JSON.
    let (code, report) = sigterm_drain(server, lines);
    assert_eq!(code, 0, "{report}");
    assert!(report.contains("\"served\""), "{report}");
    assert!(report.contains("\"quarantined\":0"), "{report}");
}

/// Two programs whose 64-bit request fingerprints collide under allow
/// {1}, span 2 and the daemon's default fuel: the first is sound, the
/// second leaks x2. The verdict cache compares full keys, so the second
/// must be swept, not answered from the first's entry.
#[cfg(unix)]
#[test]
fn client_refute_of_colliding_programs_reports_the_leak() {
    const SOUND: &str = "program(2) { r1 := 7475292257068709919; y := x1; }";
    const LEAKY: &str = "program(2) { r1 := 2780062302222203760; y := x2; }";
    let (server, addr, lines) = spawn_server(&[]);
    let refute = |tenant: &str, program: &str| {
        enforce(
            &[
                "client", "refute", "-", "--addr", &addr, "--tenant", tenant, "--allow", "1",
                "--span", "2",
            ],
            program,
        )
    };

    let (code, out, err) = refute("tenant-b", SOUND);
    assert_eq!(code, 0, "{out}{err}");
    assert!(out.contains("\"leak\":false"), "{out}");

    let (code, out, err) = refute("tenant-a", LEAKY);
    assert_eq!(code, 1, "{out}{err}");
    assert!(out.contains("\"leak\":true"), "{out}");
    assert!(out.contains("\"cached\":false"), "{out}");

    let (code, report) = sigterm_drain(server, lines);
    assert_eq!(code, 0, "{report}");
}

/// A job id names one request. Reusing it for a different program must
/// not replay the first program's verdict.
#[cfg(unix)]
#[test]
fn client_refute_under_a_reused_job_id_is_refused() {
    let (server, addr, lines) = spawn_server(&[]);
    let refute = |program: &str| {
        enforce(
            &[
                "client", "refute", "-", "--addr", &addr, "--allow", "", "--span", "2", "--job",
                "J2",
            ],
            program,
        )
    };

    let (code, out, err) = refute("program(1) { y := 0; }");
    assert_eq!(code, 0, "{out}{err}");
    assert!(out.contains("\"leak\":false"), "{out}");

    let (code, out, err) = refute("program(1) { y := x1; }");
    assert!(!out.contains("\"leak\":false"), "{out}");
    assert_eq!(code, 2, "{out}{err}");
    assert!(
        format!("{out}{err}").contains("job id reused with different content"),
        "{out}{err}"
    );

    let (code, report) = sigterm_drain(server, lines);
    assert_eq!(code, 0, "{report}");
}

#[cfg(unix)]
#[test]
fn serve_exits_1_after_a_quarantine() {
    // `--chaos` arms the kill directive; one poisoned job panics, is
    // quarantined, and the drained server reports a degraded life with
    // exit 1.
    let (server, addr, lines) = spawn_server(&["--chaos"]);
    // One-shot so the kill directive fires exactly once; the panicked
    // frame is retryable, so a single attempt exits 3 (gave up).
    let (code, out, err) = enforce(
        &[
            "client",
            "check",
            "-",
            "--addr",
            &addr,
            "--allow",
            "1",
            "--span",
            "2",
            "--job",
            "poisoned",
            "--chaos-kill",
            "--attempts",
            "1",
        ],
        "program(2) { y := x1; }",
    );
    assert_eq!(code, 3, "{out}{err}");
    assert!(err.contains("panicked"), "{err}");
    // The same job resubmitted without the directive completes normally.
    let (code, out, err) = enforce(
        &[
            "client", "check", "-", "--addr", &addr, "--allow", "1", "--span", "2", "--job",
            "poisoned",
        ],
        "program(2) { y := x1; }",
    );
    assert_eq!(code, 0, "{out}{err}");
    let (code, report) = sigterm_drain(server, lines);
    assert_eq!(code, 1, "degraded lives exit 1\n{report}");
    assert!(report.contains("\"quarantined\":1"), "{report}");
}

#[cfg(unix)]
#[test]
fn serve_caps_open_connections_and_drains_with_idle_ones_open() {
    use enforcement::core::Json;
    use enforcement::serve::{read_frame, reply_retry_after, MAX_CONNS};
    use std::io::Read as _;
    use std::net::TcpStream;
    let (server, addr, lines) = spawn_server(&[]);

    // Fill the cap with connections that never send a frame.
    let mut idle: Vec<TcpStream> = (0..MAX_CONNS)
        .map(|_| TcpStream::connect(&addr).expect("connect idle"))
        .collect();

    // The next connection gets one `overloaded` frame with a retry hint,
    // then EOF.
    let mut extra = TcpStream::connect(&addr).expect("connect past the cap");
    extra
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let reply = read_frame(&mut extra)
        .expect("refusal frame")
        .expect("a frame before EOF");
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("overloaded"),
        "{}",
        reply.render()
    );
    assert!(reply_retry_after(&reply).is_some(), "{}", reply.render());
    let mut rest = Vec::new();
    assert_eq!(extra.read_to_end(&mut rest).expect("EOF"), 0);

    // Closing one idle connection makes room for a ping.
    drop(idle.pop());
    let (code, out, err) = enforce(&["client", "ping", "--addr", &addr], "");
    assert_eq!(code, 0, "{out}{err}");
    assert!(out.contains("pong"), "{out}");

    // The drain does not wait for the idle connections' peers.
    let (code, report) = sigterm_drain(server, lines);
    assert_eq!(code, 0, "{report}");
    assert!(!report.contains("\"shed\":0"), "{report}");
    assert!(report.contains("\"shed\":"), "{report}");
    drop(idle);
}

#[test]
fn serve_rejects_usage_errors_before_binding() {
    let (code, _, err) = enforce(&["serve", "--workers", "0"], "");
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--workers"), "{err}");
    let (code, _, err) = enforce(
        &["serve", "--listen", "127.0.0.1:0", "--unix", "/tmp/x.sock"],
        "",
    );
    assert_eq!(code, 2, "{err}");
    let (code, _, err) = enforce(&["serve", "extra"], "");
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("positional"), "{err}");
}
