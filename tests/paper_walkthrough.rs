//! End-to-end walkthrough of the paper's claims, section by section.
//!
//! Each test names the claim it reproduces; together they are the
//! executable table of contents of Jones & Lipton (1975/78).

use enforcement::core::{Identity, Plug};
use enforcement::flowchart::corpus;
use enforcement::prelude::*;
use enforcement::staticflow::certify::{certify, Analysis};

/// Section 2, Example 3: the two trivial protection mechanisms — the
/// program itself (no protection) and the plug (always Λ).
#[test]
fn example_3_trivial_mechanisms() {
    let q = FnProgram::new(1, |a: &[V]| a[0] + 1);
    let g = Grid::hypercube(1, -3..=3);
    // The plug is sound for every policy…
    let plug: Plug<V> = Plug::new(1);
    assert!(check_soundness(&plug, &Allow::none(1), &g, false).is_sound());
    assert!(check_soundness(&plug, &Allow::all(1), &g, false).is_sound());
    // …and useless; the identity is complete and (here) unsound.
    let id = Identity::new(q);
    assert!(check_soundness(&id, &Allow::all(1), &g, false).is_sound());
    assert!(!check_soundness(&id, &Allow::none(1), &g, false).is_sound());
    let r = compare(&id, &plug, &g);
    assert_eq!(r.ordering, MechOrdering::FirstMore);
}

/// Section 2, Example 5: the logon program is unsound for allow(1, 3) —
/// it must reveal something about the password table.
#[test]
fn example_5_logon_is_unsound() {
    use enforcement::core::program::logon_program;
    // Two candidate tables over (userid, password) pairs.
    let q = logon_program(vec![vec![(1, 1)], vec![(1, 2)]]);
    let id = Identity::new(q);
    // allow(1, 3): userid and password are the user's own; the table is
    // not.
    let policy = Allow::new(3, [1, 3]);
    let g = Grid::new(vec![1..=1, 0..=1, 0..=2]);
    let report = check_soundness(&id, &policy, &g, false);
    assert!(!report.is_sound());
    // The witness differs only in the table.
    let w = report.witness().unwrap();
    assert_eq!(w.a[0], w.b[0]);
    assert_eq!(w.a[2], w.b[2]);
    assert_ne!(w.a[1], w.b[1]);
}

/// Section 2: negative inference — a mechanism that emits its notice only
/// for x = 0 is unsound ("The dog did nothing in the nighttime").
#[test]
fn negative_inference_is_unsound() {
    let m = FnMechanism::new(1, |a: &[V]| {
        if a[0] == 0 {
            MechOutput::Violation(Notice::lambda())
        } else {
            MechOutput::Value(1)
        }
    });
    let g = Grid::hypercube(1, 0..=3);
    assert!(!check_soundness(&m, &Allow::none(1), &g, false).is_sound());
}

/// Section 2: the observability postulate — running time is an output.
#[test]
fn observability_postulate_timing() {
    let pp = corpus::timing_constant();
    let p = FlowchartProgram::new(pp.flowchart);
    let g = Grid::hypercube(1, 0..=6);
    let value_only = Identity::new(p.clone());
    assert!(check_soundness(&value_only, &pp.policy, &g, false).is_sound());
    let with_time = Identity::new(WithTime::new(p));
    assert!(!check_soundness(&with_time, &pp.policy, &g, false).is_sound());
}

/// Theorem 1: the join of sound mechanisms is sound and as complete as
/// each operand.
#[test]
fn theorem_1_join() {
    let g = Grid::hypercube(2, -2..=2);
    let policy = Allow::new(2, [1]);
    let m1 = FnMechanism::new(2, |a: &[V]| {
        if a[0] >= 0 {
            MechOutput::Value(a[0])
        } else {
            MechOutput::Violation(Notice::lambda())
        }
    });
    let m2 = FnMechanism::new(2, |a: &[V]| {
        if a[0] % 2 == 0 {
            MechOutput::Value(a[0])
        } else {
            MechOutput::Violation(Notice::lambda())
        }
    });
    assert!(check_soundness(&m1, &policy, &g, false).is_sound());
    assert!(check_soundness(&m2, &policy, &g, false).is_sound());
    let j = Join::new(&m1, &m2);
    assert!(check_soundness(&j, &policy, &g, false).is_sound());
    assert!(compare(&j, &m1, &g).first_as_complete());
    assert!(compare(&j, &m2, &g).first_as_complete());
}

/// Theorem 2: the maximal sound mechanism exists (constructively, on a
/// finite domain) and dominates every sound mechanism.
#[test]
fn theorem_2_maximal() {
    let q = FnProgram::new(2, |a: &[V]| if a[1] == 0 { a[0] } else { a[1] });
    let policy = Allow::new(2, [2]);
    let g = Grid::hypercube(2, 0..=3);
    let maximal = MaximalMechanism::build(&q, &policy, &g);
    assert!(check_soundness(&maximal, &policy, &g, false).is_sound());
    assert!(check_protection(&maximal, &q, &g).is_ok());
    // Dominates the plug and any timid sound mechanism.
    let plug: Plug<V> = Plug::new(2);
    assert!(compare(&maximal, &plug, &g).first_as_complete());
}

/// Theorem 3: the surveillance mechanism is sound when time is
/// unobservable — pinned on every corpus program.
#[test]
fn theorem_3_surveillance_soundness() {
    for pp in corpus::all() {
        // Theorem 3 fixes one policy for the run. Programs with policy
        // boxes are governed by the final active policy and are judged by
        // the scheduled oracle instead (see `enf_core::schedule`).
        if pp.flowchart.has_policy_nodes() {
            continue;
        }
        let p = FlowchartProgram::new(pp.flowchart.clone());
        let m = Surveillance::new(p, pp.policy.allowed());
        let g = Grid::hypercube(enforcement::core::Policy::arity(&pp.policy), 0..=4);
        assert!(
            check_soundness(&m, &pp.policy, &g, false).is_sound(),
            "unsound on {}",
            pp.name
        );
    }
}

/// Theorem 3′: the timed variant M′ is sound even with observable time;
/// the untimed M is not.
#[test]
fn theorem_3_prime_timed_soundness() {
    let pp = corpus::timing_constant();
    let g = Grid::hypercube(1, 0..=6);
    let m_prime = TimedMechanism::new(pp.flowchart.clone(), pp.policy.allowed());
    assert!(check_soundness(&Identity::new(&m_prime), &pp.policy, &g, false).is_sound());
    let m = TimedMechanism::halt_checked(pp.flowchart, pp.policy.allowed());
    assert!(!check_soundness(&Identity::new(&m), &pp.policy, &g, false).is_sound());
}

/// Section 4: M_s > M_h (surveillance forgets, high-water does not) and
/// M_s is not maximal.
#[test]
fn section_4_completeness_chain() {
    let g = Grid::hypercube(2, -2..=2);
    // Forgetting program: M_s > M_h.
    let pp = corpus::forgetting();
    let p = FlowchartProgram::new(pp.flowchart);
    let ms = Surveillance::new(p.clone(), pp.policy.allowed());
    let mh = Surveillance::highwater(p, pp.policy.allowed());
    assert_eq!(compare(&ms, &mh, &g).ordering, MechOrdering::FirstMore);
    // Non-maximality program: Identity > M_s.
    let pp = corpus::nonmaximal();
    let p = FlowchartProgram::new(pp.flowchart);
    let ms = Surveillance::new(p.clone(), pp.policy.allowed());
    let id = Identity::new(p);
    assert!(check_soundness(&id, &pp.policy, &g, false).is_sound());
    assert_eq!(compare(&id, &ms, &g).ordering, MechOrdering::FirstMore);
}

/// Examples 7 and 8: the same transform helps one program and hurts the
/// other — the Theorem 4 moral.
#[test]
fn examples_7_and_8_transform_duality() {
    let g = Grid::hypercube(2, -2..=2);
    // Example 7: transformed program's mechanism accepts everywhere.
    let before = corpus::example7();
    let after = corpus::example7_transformed();
    let m_before = Surveillance::new(
        FlowchartProgram::new(before.flowchart),
        before.policy.allowed(),
    );
    let m_after = Surveillance::new(
        FlowchartProgram::new(after.flowchart),
        after.policy.allowed(),
    );
    assert_eq!(
        compare(&m_after, &m_before, &g).ordering,
        MechOrdering::FirstMore
    );
    // Example 8: transformed mechanism accepts nowhere.
    let before = corpus::example8();
    let after = corpus::example8_transformed();
    let m_before = Surveillance::new(
        FlowchartProgram::new(before.flowchart),
        before.policy.allowed(),
    );
    let m_after = Surveillance::new(
        FlowchartProgram::new(after.flowchart),
        after.policy.allowed(),
    );
    assert_eq!(
        compare(&m_before, &m_after, &g).ordering,
        MechOrdering::FirstMore
    );
}

/// Theorem 4's operational face: constancy of an unbounded stream cannot
/// be settled with finite fuel.
#[test]
fn theorem_4_constancy_wall() {
    use enforcement::core::maximal::{bounded_constancy_check, Constancy};
    let all_zero = std::iter::repeat(0i64);
    assert_eq!(
        bounded_constancy_check(all_zero, 10_000),
        Constancy::Undetermined { probed: 10_000 }
    );
}

/// Section 5: static certification is consistent with dynamic behaviour on
/// the whole corpus.
#[test]
fn section_5_static_vs_dynamic() {
    for pp in corpus::all() {
        let verdict = certify(&pp.flowchart, pp.policy.allowed(), Analysis::Surveillance);
        let m = Surveillance::new(
            FlowchartProgram::new(pp.flowchart.clone()),
            pp.policy.allowed(),
        );
        let g = Grid::hypercube(enforcement::core::Policy::arity(&pp.policy), 0..=3);
        if verdict.is_certified() {
            for a in g.iter_inputs() {
                assert!(
                    !m.run(&a).is_violation(),
                    "{}: certified but dynamically violated at {a:?}",
                    pp.name
                );
            }
        }
    }
}

/// Example 1 (Fenton): the three halt readings, judged by the checker.
#[test]
fn example_1_fenton_halt_readings() {
    use enforcement::minsky::datamark::{DataMarkProgram, HaltSemantics};
    use enforcement::minsky::programs::negative_inference_machine;
    let g = Grid::hypercube(1, 0..=5);
    let policy = Allow::none(1);
    for (sem, sound) in [
        (HaltSemantics::Notice, false),
        (HaltSemantics::NoOp, false),
        (HaltSemantics::AbortOnPrivBranch, true),
    ] {
        let p = DataMarkProgram::new(negative_inference_machine(sem), 1, 1000);
        assert_eq!(
            check_soundness(&Identity::new(p), &policy, &g, false).is_sound(),
            sound,
            "halt semantics {sem:?}"
        );
    }
}
