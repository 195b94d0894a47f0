//! Integration tests exercising several crates together.

use enforcement::core::{FnPolicy, Identity, Plug};
use enforcement::prelude::*;
use enforcement::staticflow::certify::{Analysis, CertifiedMechanism, Fallback};

/// Content-dependent policies need content-dependent mechanisms: for the
/// "read the file" program, no allow(J)-based surveillance instance is
/// both sound for Example 2's gated policy and better than the plug,
/// while the reference monitor is sound and maximally complete.
#[test]
fn gated_policy_beats_any_allow_surveillance() {
    // Inputs: (d1, f1); the program reads the file unconditionally.
    let fc = parse("program(2) { y := x2; }").unwrap();
    let program = FlowchartProgram::new(fc);
    let gated = FnPolicy::new(2, |a: &[V]| (a[0], if a[0] == 1 { a[1] } else { 0 }));
    let g = Grid::new(vec![0..=1, 0..=3]);

    // The content-dependent reference monitor: sound and accepts exactly
    // the permitted half.
    let monitor = FnMechanism::new(2, |a: &[V]| {
        if a[0] == 1 {
            MechOutput::Value(enforcement::flowchart::interp::ExecValue::Value(a[1]))
        } else {
            MechOutput::Violation(Notice::lambda())
        }
    });
    assert!(check_soundness(&monitor, &gated, &g, false).is_sound());

    // Every allow(J) surveillance instance is either unsound for the gated
    // policy or no better than the plug on this program.
    for j in [
        IndexSet::empty(),
        IndexSet::single(1),
        IndexSet::single(2),
        IndexSet::full(2),
    ] {
        let m = Surveillance::new(program.clone(), j);
        let sound = check_soundness(&m, &gated, &g, false).is_sound();
        let accepts_anything = g.iter_inputs().any(|a| m.run(&a).is_value());
        assert!(
            !(sound && accepts_anything),
            "allow({j}) surveillance is sound AND nontrivial — should be impossible here"
        );
    }

    // And the monitor strictly dominates the sound-but-trivial instances.
    let trivial = Surveillance::new(program, IndexSet::single(1));
    let r = compare(&monitor, &trivial, &g);
    assert_eq!(r.ordering, MechOrdering::FirstMore);
}

/// Theorem 1 across crates: joining the static certifier (reject
/// fallback) with the dynamic surveillance mechanism gives a sound
/// mechanism at least as complete as both — and equal to the hybrid
/// deployment.
#[test]
fn join_of_static_and_dynamic() {
    let pp = enforcement::flowchart::corpus::forgetting();
    let p = FlowchartProgram::new(pp.flowchart.clone());
    let j = pp.policy.allowed();
    let g = Grid::hypercube(2, -2..=2);

    let static_only =
        CertifiedMechanism::new(p.clone(), j, Analysis::Surveillance, Fallback::Reject);
    let dynamic = Surveillance::new(p.clone(), j);
    assert!(check_soundness(&static_only, &pp.policy, &g, false).is_sound());
    assert!(check_soundness(&dynamic, &pp.policy, &g, false).is_sound());

    let joined = Join::new(&static_only, &dynamic);
    assert!(check_soundness(&joined, &pp.policy, &g, false).is_sound());
    assert!(compare(&joined, &static_only, &g).first_as_complete());
    assert!(compare(&joined, &dynamic, &g).first_as_complete());

    let hybrid = CertifiedMechanism::new(p, j, Analysis::Surveillance, Fallback::Dynamic);
    assert_eq!(compare(&joined, &hybrid, &g).ordering, MechOrdering::Equal);
}

/// The Minsky substrate plugs into the same formal machinery: the copy
/// machine is unsound for allow() and sound for allow(1); with time
/// observable even allow(1) fails only if time varies within a class —
/// it does not, since the copy loop's time is a function of the copied
/// value.
#[test]
fn minsky_programs_under_core_machinery() {
    use enforcement::minsky::machine::MinskyProgram;
    use enforcement::minsky::programs::copy_machine;
    let p = MinskyProgram::new(copy_machine(), 1, 100_000);
    let g = Grid::hypercube(1, 0..=6);
    let id = Identity::new(p.clone());
    assert!(!check_soundness(&id, &Allow::none(1), &g, false).is_sound());
    assert!(check_soundness(&id, &Allow::all(1), &g, false).is_sound());
    // Timed view: still sound for allow(1) — time is a function of x1.
    let timed = Identity::new(WithTime::new(p));
    assert!(check_soundness(&timed, &Allow::all(1), &g, false).is_sound());
    assert!(!check_soundness(&timed, &Allow::none(1), &g, false).is_sound());
}

/// A flowchart compiled to a Minsky machine denotes the same program, so
/// mechanisms built on either substrate agree about soundness.
#[test]
fn compiled_machine_inherits_soundness_verdicts() {
    use enf_flowchart::parser::parse_structured;
    use enforcement::minsky::compile::compile;
    use enforcement::minsky::machine::{MinskyProgram, MinskyValue};

    let sp =
        parse_structured("program(2) { r1 := x1; while r1 > 0 { y := y + 1; r1 := r1 - 1; } }")
            .unwrap();
    let fc = enf_flowchart::structured::lower(&sp).unwrap();
    let flow = FlowchartProgram::new(fc);
    let compiled = compile(&sp).unwrap();
    let mach = MinskyProgram::new(compiled.machine, 2, 1_000_000);
    let g = Grid::new(vec![0..=4, 0..=2]);

    // Same function…
    for a in g.iter_inputs() {
        let f = flow.eval_value(&a);
        let m = match enforcement::core::Program::eval(&mach, &a) {
            MinskyValue::Value(v) => v as V,
            MinskyValue::Diverged => panic!("diverged at {a:?}"),
        };
        assert_eq!(f, m, "at {a:?}");
    }
    // …same verdicts.
    for (j, expect) in [(Allow::new(2, [1]), true), (Allow::none(2), false)] {
        let vf = check_soundness(&Identity::new(flow.clone()), &j, &g, false).is_sound();
        let vm = check_soundness(&Identity::new(mach.clone()), &j, &g, false).is_sound();
        assert_eq!(vf, expect);
        assert_eq!(vm, expect);
    }
}

/// The plug is the bottom of every mechanism family, across substrates.
#[test]
fn plug_is_universal_bottom() {
    let fc = parse("program(2) { y := x1 + x2; }").unwrap();
    let p = FlowchartProgram::new(fc);
    let g = Grid::hypercube(2, -2..=2);
    let plug: Plug<enforcement::flowchart::interp::ExecValue> = Plug::new(2);
    for j in [IndexSet::empty(), IndexSet::full(2)] {
        let m = Surveillance::new(p.clone(), j);
        assert!(compare(&m, &plug, &g).first_as_complete());
        let mh = Surveillance::highwater(p.clone(), j);
        assert!(compare(&mh, &plug, &g).first_as_complete());
        let inst = instrument(p.flowchart(), j, false);
        assert!(compare(&inst, &plug, &g).first_as_complete());
    }
}

/// Violation explanations agree with the mechanism and name real flows,
/// on the paper corpus.
#[test]
fn explanations_across_corpus() {
    use enforcement::surveillance::dynamic::SurvConfig;
    use enforcement::surveillance::explain;
    for pp in enforcement::flowchart::corpus::all() {
        let cfg = SurvConfig::surveillance(pp.policy.allowed());
        let k = enforcement::core::Policy::arity(&pp.policy);
        for a in Grid::hypercube(k, 0..=3).iter_inputs() {
            let e = explain(&pp.flowchart, &a, &cfg);
            if !e.accepted {
                assert!(
                    !e.offending.is_empty() || e.events.is_empty(),
                    "{}: violation without offenders at {a:?}",
                    pp.name
                );
                // Offending indices must be denied by the policy.
                for i in e.offending.iter() {
                    assert!(
                        !pp.policy.allows(i),
                        "{}: allowed index {i} offends",
                        pp.name
                    );
                }
            }
        }
    }
}
