//! The chaos suite: seeded fault injection against the resilience layer.
//!
//! Every test here drives a checker through `enf_core::chaos` faults —
//! panics at a plan-chosen input, deterministic cancellation at a
//! plan-chosen index, kills at a plan-chosen checkpoint — and asserts the
//! three acceptance properties of the fault-tolerant engine:
//!
//! (a) a panicking subject at *any* input index never aborts a sweep and
//!     never yields a `Sound`/`Confirmed` verdict;
//! (b) kill-and-resume from any checkpoint produces a byte-identical
//!     final report to an uninterrupted run;
//! (c) cancellation returns a partial `Coverage` verdict whose content is
//!     deterministic for every thread count 1–8, and never corrupts the
//!     deterministic merge order.

use enf_core::chaos::{silence_chaos_panics, FaultPlan, PanicOn, PanicOnProgram};
use enf_core::checkpoint::{check_soundness_checkpointed, PlainCodec, SoundnessCheckpoint};
use enf_core::soundness::{try_check_protection_with, try_check_soundness_with};
use enf_core::{
    try_acceptance_set_with, try_compare_with, CancelToken, EnfError, EvalConfig, MaximalMechanism,
    SoundnessReport, Verdict,
};
use enforcement::prelude::*;
use proptest::prelude::*;

fn grid() -> Grid {
    Grid::hypercube(2, -2..=2) // 25 tuples
}

fn big_grid() -> Grid {
    Grid::hypercube(2, 0..=15) // 256 tuples
}

/// Forced-parallel configuration with exactly `t` workers.
fn par(t: usize) -> EvalConfig {
    EvalConfig::with_threads(t).seq_threshold(0)
}

/// A mechanism that is sound for `allow(1)` on any grid (reveals x1 only).
fn sound_mech() -> FnMechanism<V> {
    FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0]))
}

/// A mechanism leaking x2 (unsound for `allow(1)`).
fn leaky_mech() -> FnMechanism<V> {
    FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0] + a[1]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Fail-closed: a mechanism panicking at any plan-chosen input
    /// never unwinds out of the sweep and never produces a `Sound`
    /// verdict — and the structured error is identical for threads 1–8.
    #[test]
    fn panicking_mechanism_never_yields_sound(seed in 0u64..10_000) {
        silence_chaos_panics();
        let g = grid();
        let plan = FaultPlan::new(seed);
        let fault_at = plan.panic_index(g.len());
        let m = PanicOn::at_index(sound_mech(), &g, Some(fault_at));
        let policy = Allow::new(2, [1]);
        let baseline = try_check_soundness_with(&m, &policy, &g, false, &par(1), &CancelToken::new());
        match &baseline {
            Err(EnfError::SubjectPanicked { input_index, .. }) => {
                prop_assert_eq!(*input_index, fault_at);
            }
            other => prop_assert!(false, "expected SubjectPanicked, got {:?}", other),
        }
        for t in 2..=8 {
            let r = try_check_soundness_with(&m, &policy, &g, false, &par(t), &CancelToken::new());
            prop_assert_eq!(
                format!("{:?}", r), format!("{:?}", baseline), "thread count {}", t
            );
        }
    }

    /// (a) Index-ordered event resolution: with both a leak and a panic in
    /// play, the lower input index decides the outcome — a real witness
    /// below the fault survives it; a fault below the witness surfaces as
    /// the error. Identical for threads 1–8.
    #[test]
    fn panic_vs_leak_resolved_by_input_index(seed in 0u64..10_000) {
        silence_chaos_panics();
        let g = grid();
        let plan = FaultPlan::new(seed);
        let fault_at = plan.panic_index(g.len());
        let m = PanicOn::at_index(leaky_mech(), &g, Some(fault_at));
        let policy = Allow::new(2, [1]);
        let baseline = try_check_soundness_with(&m, &policy, &g, false, &par(1), &CancelToken::new());
        match &baseline {
            Ok(cov) => {
                prop_assert_eq!(cov.verdict, Verdict::Refuted);
                prop_assert!(matches!(cov.report, Some(SoundnessReport::Unsound(_))));
            }
            Err(EnfError::SubjectPanicked { input_index, .. }) => {
                prop_assert_eq!(*input_index, fault_at);
            }
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
        for t in 2..=8 {
            let r = try_check_soundness_with(&m, &policy, &g, false, &par(t), &CancelToken::new());
            prop_assert_eq!(
                format!("{:?}", r), format!("{:?}", baseline), "thread count {}", t
            );
        }
    }

    /// (a) The same fail-closed guarantee for the other checkers: a
    /// panicking subject turns `compare`, `acceptance_set`, and the
    /// maximal-mechanism build into structured errors, never a confirmed
    /// result, deterministically across thread counts.
    #[test]
    fn full_fold_checkers_fail_closed(seed in 0u64..10_000) {
        silence_chaos_panics();
        let g = grid();
        let plan = FaultPlan::new(seed);
        let fault_at = plan.panic_index(g.len());
        let faulty = PanicOn::at_index(sound_mech(), &g, Some(fault_at));
        let clean = sound_mech();

        for t in 1..=8 {
            let r = try_compare_with(&faulty, &clean, &g, &par(t), &CancelToken::new());
            match r {
                Err(EnfError::SubjectPanicked { input_index, .. }) =>
                    prop_assert_eq!(input_index, fault_at, "compare, threads {}", t),
                other => prop_assert!(false, "compare survived a fault: {:?}", other),
            }
            let r = try_acceptance_set_with(&faulty, &g, &par(t), &CancelToken::new());
            match r {
                Err(EnfError::SubjectPanicked { input_index, .. }) =>
                    prop_assert_eq!(input_index, fault_at, "acceptance_set, threads {}", t),
                other => prop_assert!(false, "acceptance_set survived a fault: {:?}", other),
            }
        }

        let q = PanicOnProgram::at_index(
            FnProgram::new(2, |a: &[V]| a[0]),
            &g,
            Some(fault_at),
        );
        let policy = Allow::new(2, [1]);
        for t in 1..=8 {
            let r = MaximalMechanism::try_build_with(&q, &policy, &g, &par(t), &CancelToken::new());
            match r {
                Err(EnfError::SubjectPanicked { input_index, .. }) =>
                    prop_assert_eq!(input_index, fault_at, "maximal build, threads {}", t),
                other => prop_assert!(
                    false,
                    "maximal build survived a fault: {:?}",
                    other.map(|c| c.verdict)
                ),
            }
        }
    }

    /// (a) Protection checks fail closed too: a program panicking at a
    /// plan-chosen input is quarantined by `try_check_protection_with`.
    #[test]
    fn protection_check_fails_closed(seed in 0u64..10_000) {
        silence_chaos_panics();
        let g = grid();
        let plan = FaultPlan::new(seed);
        let fault_at = plan.panic_index(g.len());
        let q = PanicOnProgram::at_index(FnProgram::new(2, |a: &[V]| a[0]), &g, Some(fault_at));
        let m = sound_mech();
        let baseline = try_check_protection_with(&m, &q, &g, &par(1), &CancelToken::new());
        match &baseline {
            Err(EnfError::SubjectPanicked { input_index, .. }) =>
                prop_assert_eq!(*input_index, fault_at),
            other => prop_assert!(false, "expected SubjectPanicked, got {:?}", other),
        }
        for t in 2..=8 {
            let r = try_check_protection_with(&m, &q, &g, &par(t), &CancelToken::new());
            prop_assert_eq!(format!("{:?}", r), format!("{:?}", baseline), "thread count {}", t);
        }
    }

    /// (b) Kill-and-resume: interrupt a checkpointed sweep at a
    /// plan-chosen checkpoint, resume from the serialized state, and the
    /// final report is byte-identical to an uninterrupted run — across
    /// sound and leaky mechanisms, any block size, any thread count.
    #[test]
    fn kill_and_resume_is_byte_identical(
        seed in 0u64..10_000,
        block in 1usize..=64,
        leaky in any::<bool>(),
    ) {
        let g = big_grid();
        let policy = Allow::new(2, [1]);
        let m = if leaky { leaky_mech() } else { sound_mech() };
        let salt = 42;

        let fresh = check_soundness_checkpointed(
            &m, &policy, &g, false, &par(1), &CancelToken::new(), salt, block, None,
            &mut |_| Ok(()),
        );
        let fresh = format!("{fresh:?}");

        // Collect every checkpoint the sweep emits, then replay a kill at
        // a plan-chosen one.
        let mut checkpoints: Vec<SoundnessCheckpoint<V, Vec<V>>> = Vec::new();
        let plan = FaultPlan::new(seed);
        let threads = 1 + plan.pick(0x74, 8);
        let _ = check_soundness_checkpointed(
            &m, &policy, &g, false, &par(threads), &CancelToken::new(), salt, block, None,
            &mut |c| { checkpoints.push(c.clone()); Ok(()) },
        );
        if !checkpoints.is_empty() {
            let kill_at = plan.pick(0x6b, checkpoints.len());
            // Round-trip through the wire format, exactly like a real
            // resume from disk.
            let wire = checkpoints[kill_at].to_json(&PlainCodec).render();
            let decoded = SoundnessCheckpoint::from_json(
                &PlainCodec,
                &enf_core::json::parse(&wire).expect("checkpoint parses"),
            ).expect("checkpoint decodes");
            let resume_threads = 1 + plan.pick(0x72, 8);
            let resumed = check_soundness_checkpointed(
                &m, &policy, &g, false, &par(resume_threads), &CancelToken::new(), salt, block,
                Some(&decoded), &mut |_| Ok(()),
            );
            prop_assert_eq!(format!("{resumed:?}"), fresh,
                "killed at checkpoint {}/{} (block {}, threads {}->{})",
                kill_at, checkpoints.len(), block, threads, resume_threads);
        }
    }

    /// (c) Deterministic cancellation: an index-limit budget expiring at a
    /// plan-chosen point returns `checked == limit`, `checked < total`,
    /// verdict `Unknown` (the subject is sound, so no witness exists), and
    /// identical content for threads 1–8.
    #[test]
    fn cancellation_coverage_is_deterministic(seed in 0u64..10_000) {
        let g = big_grid();
        let policy = Allow::new(2, [1]);
        let m = sound_mech();
        let plan = FaultPlan::new(seed);
        let limit = plan.cut_index(g.len() - 1); // always partial
        let baseline = try_check_soundness_with(
            &m, &policy, &g, false, &par(1), &CancelToken::new().with_index_limit(limit),
        );
        match &baseline {
            Ok(cov) => {
                prop_assert_eq!(cov.verdict, Verdict::Unknown);
                prop_assert_eq!(cov.checked, limit);
                prop_assert!(cov.checked < cov.total);
                prop_assert!(cov.report.is_none());
            }
            Err(e) => prop_assert!(false, "unexpected error {:?}", e),
        }
        for t in 2..=8 {
            let r = try_check_soundness_with(
                &m, &policy, &g, false, &par(t), &CancelToken::new().with_index_limit(limit),
            );
            prop_assert_eq!(format!("{:?}", r), format!("{:?}", baseline), "thread count {}", t);
        }
    }

    /// (c) Cancellation never corrupts the merge order: under any budget,
    /// a witness is reported iff it lies below the budget, and it is
    /// always the globally least one, for threads 1–8.
    #[test]
    fn cancellation_preserves_least_witness(seed in 0u64..10_000) {
        let g = big_grid();
        let plan = FaultPlan::new(seed);
        let limit = plan.cut_index(g.len());
        let witness_at = plan.pick(0x77, g.len());
        for t in 1..=8 {
            let ctl = CancelToken::new().with_index_limit(limit);
            let cov = enf_core::par::try_find_first(&g, &par(t), &ctl, |idx, _| {
                (idx >= witness_at).then_some(idx)
            }).expect("no faults injected");
            if witness_at < limit {
                prop_assert_eq!(cov.verdict, Verdict::Refuted, "threads {}", t);
                prop_assert_eq!(cov.report.map(|(i, _)| i), Some(witness_at), "threads {}", t);
            } else {
                prop_assert_eq!(cov.verdict, Verdict::Unknown, "threads {}", t);
                prop_assert_eq!(cov.checked, limit, "threads {}", t);
            }
        }
    }

    /// Fault-free guarded sweeps agree exactly with the classic unguarded
    /// checkers — the resilience layer is pay-for-what-goes-wrong.
    #[test]
    fn guarded_sweep_matches_unguarded_when_clean(seed in 0u64..10_000, leaky in any::<bool>()) {
        let g = grid();
        let policy = Allow::new(2, [1]);
        let m = if leaky { leaky_mech() } else { sound_mech() };
        let plan = FaultPlan::new(seed);
        let t = 1 + plan.pick(0x63, 8);
        let classic = enf_core::check_soundness_with(&m, &policy, &g, false, &par(t));
        let guarded = try_check_soundness_with(&m, &policy, &g, false, &par(t), &CancelToken::new())
            .expect("no faults injected");
        prop_assert_eq!(guarded.is_complete() || classic.witness().is_some(), true);
        match (&classic, guarded.report.as_ref()) {
            (SoundnessReport::Sound { .. }, Some(SoundnessReport::Sound { .. })) => {
                prop_assert_eq!(format!("{:?}", guarded.report.as_ref().expect("report")),
                                format!("{:?}", &classic));
            }
            (SoundnessReport::Unsound(_), Some(SoundnessReport::Unsound(_))) => {
                prop_assert_eq!(format!("{:?}", guarded.report.as_ref().expect("report")),
                                format!("{:?}", &classic));
            }
            (c, gr) => prop_assert!(false, "verdicts diverge: {:?} vs {:?}", c, gr),
        }
    }
}

/// A surveillance mechanism over a real flowchart program, wrapped with a
/// chaos fault: the dynamic-monitor stack fails closed end to end.
#[test]
fn surveillance_sweep_fails_closed_under_panics() {
    silence_chaos_panics();
    let fc = parse("program(2) { y := x1; if x2 == 0 { y := 0; } }").expect("parses");
    let program = FlowchartProgram::new(fc);
    let policy = Allow::new(2, [2]);
    let mech = Surveillance::new(program, policy.allowed());
    let g = Grid::hypercube(2, -3..=3);
    for fault_at in [0, 10, g.len() - 1] {
        let faulty = PanicOn::at_index(&mech, &g, Some(fault_at));
        for t in 1..=4 {
            let r =
                try_check_soundness_with(&faulty, &policy, &g, false, &par(t), &CancelToken::new());
            match r {
                Err(EnfError::SubjectPanicked { input_index, .. }) => {
                    assert_eq!(input_index, fault_at, "threads {t}");
                }
                other => panic!("sweep survived a fault: {other:?}"),
            }
        }
    }
    // Control: the unwrapped mechanism confirms soundness.
    let r = try_check_soundness_with(&mech, &policy, &g, false, &par(3), &CancelToken::new())
        .expect("clean run");
    assert_eq!(r.verdict, Verdict::Confirmed);
}
