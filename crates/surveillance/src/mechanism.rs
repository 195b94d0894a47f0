//! The `enf_core::Mechanism` adapter for the dynamic disciplines.
//!
//! [`Surveillance`] is the paper's M, M′ with `timed`, or the baseline M_h
//! with `highwater`. It protects a [`FlowchartProgram`] whose output range
//! is [`ExecValue`] (value or totalized divergence); a run of the mechanism
//! that itself diverges mirrors the program and returns
//! `Value(ExecValue::Diverged)`.

use crate::dynamic::{run_surveillance, SurvConfig, SurvOutcome};
use enf_core::{IndexSet, MechOutput, Mechanism, Notice, Program as _, V};
use enf_flowchart::interp::ExecValue;
use enf_flowchart::program::FlowchartProgram;

pub(crate) fn to_mech_output(out: SurvOutcome) -> MechOutput<ExecValue> {
    match out {
        SurvOutcome::Accepted { y, .. } => MechOutput::Value(ExecValue::Value(y)),
        SurvOutcome::Violation { .. } => MechOutput::Violation(Notice::lambda()),
        SurvOutcome::OutOfFuel => MechOutput::Value(ExecValue::Diverged),
    }
}

/// The surveillance protection mechanism for a flowchart and `allow(J)`,
/// under any of the disciplines of [`SurvConfig`].
#[derive(Clone, Debug)]
pub struct Surveillance {
    program: FlowchartProgram,
    cfg: SurvConfig,
}

impl Surveillance {
    /// Theorem 3's M: check at HALT; sound when running time is not
    /// observable (and the program terminates on the probed domain).
    pub fn new(program: FlowchartProgram, allowed: IndexSet) -> Self {
        let cfg = SurvConfig::surveillance(allowed).with_fuel(program.fuel());
        Surveillance { program, cfg }
    }

    /// Theorem 3′'s M′: additionally check at every decision box; sound
    /// even when running time is observable.
    pub fn timed(program: FlowchartProgram, allowed: IndexSet) -> Self {
        let cfg = SurvConfig::timed(allowed).with_fuel(program.fuel());
        Surveillance { program, cfg }
    }

    /// The high-water-mark M_h: like surveillance, but taints never
    /// shrink.
    pub fn highwater(program: FlowchartProgram, allowed: IndexSet) -> Self {
        let cfg = SurvConfig::highwater(allowed).with_fuel(program.fuel());
        Surveillance { program, cfg }
    }

    /// The mechanism for `program` under `cfg`, whose fuel bound it keeps.
    pub fn from_config(program: FlowchartProgram, cfg: SurvConfig) -> Self {
        Surveillance { program, cfg }
    }

    /// The protected program.
    pub fn program(&self) -> &FlowchartProgram {
        &self.program
    }

    /// The run configuration.
    pub fn config(&self) -> &SurvConfig {
        &self.cfg
    }

    /// Runs and returns the full surveillance outcome (with violation site
    /// and taint), not just the mechanism output.
    pub fn run_detailed(&self, input: &[V]) -> SurvOutcome {
        run_surveillance(self.program.flowchart(), input, &self.cfg)
    }
}

impl Mechanism for Surveillance {
    type Out = ExecValue;

    fn arity(&self) -> usize {
        self.program.arity()
    }

    fn run(&self, input: &[V]) -> MechOutput<ExecValue> {
        to_mech_output(self.run_detailed(input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enf_core::{
        check_protection, check_soundness, compare, Allow, Grid, Identity, MechOrdering,
        Policy as _,
    };
    use enf_flowchart::corpus;
    use enf_flowchart::parse;

    fn program(src: &str) -> FlowchartProgram {
        FlowchartProgram::new(parse(src).unwrap())
    }

    #[test]
    fn surveillance_is_a_protection_mechanism() {
        let p = program("program(2) { if x2 == 0 { y := x1; } else { y := x2; } }");
        let m = Surveillance::new(p.clone(), IndexSet::single(2));
        let g = Grid::hypercube(2, -2..=2);
        assert!(check_protection(&m, &p, &g).is_ok());
    }

    #[test]
    fn theorem_3_surveillance_sound_on_corpus() {
        for pp in corpus::all() {
            let fc = pp.flowchart.clone();
            // Theorem 3 is a fixed-policy statement. Programs with policy
            // boxes are governed by the *final* active policy, so their
            // soundness is judged by the scheduled oracle
            // (`check_soundness_scheduled`), not the fixed-policy one.
            if fc.has_policy_nodes() {
                continue;
            }
            let p = FlowchartProgram::new(fc);
            let m = Surveillance::new(p, pp.policy.allowed());
            // Probe naturals to stay in the terminating region of the
            // timing_constant program.
            let g = Grid::hypercube(pp.policy.arity(), 0..=4);
            assert!(
                check_soundness(&m, &pp.policy, &g, false).is_sound(),
                "surveillance unsound on {}",
                pp.name
            );
        }
    }

    #[test]
    fn theorem_3_highwater_sound_on_corpus() {
        for pp in corpus::all() {
            // Fixed-policy statement; see the surveillance sweep above.
            if pp.flowchart.has_policy_nodes() {
                continue;
            }
            let p = FlowchartProgram::new(pp.flowchart.clone());
            let m = Surveillance::highwater(p, pp.policy.allowed());
            let g = Grid::hypercube(pp.policy.arity(), 0..=4);
            assert!(
                check_soundness(&m, &pp.policy, &g, false).is_sound(),
                "high-water unsound on {}",
                pp.name
            );
        }
    }

    #[test]
    fn section_4_surveillance_beats_highwater_on_forgetting() {
        let pp = corpus::forgetting();
        let p = FlowchartProgram::new(pp.flowchart);
        let j = pp.policy.allowed();
        let ms = Surveillance::new(p.clone(), j);
        let mh = Surveillance::highwater(p, j);
        let g = Grid::hypercube(2, -3..=3);
        let r = compare(&ms, &mh, &g);
        assert_eq!(r.ordering, MechOrdering::FirstMore);
        // The paper's exact claim: M_h always Λ; M_s accepts iff x2 == 0.
        assert_eq!(r.accepted_second, 0);
        for a in enf_core::InputDomain::iter_inputs(&g) {
            assert_eq!(ms.run(&a).is_value(), a[1] == 0, "at {a:?}");
        }
    }

    #[test]
    fn surveillance_always_at_least_as_complete_as_highwater() {
        for pp in corpus::all() {
            let p = FlowchartProgram::new(pp.flowchart.clone());
            let j = pp.policy.allowed();
            let ms = Surveillance::new(p.clone(), j);
            let mh = Surveillance::highwater(p, j);
            let g = Grid::hypercube(pp.policy.arity(), 0..=4);
            let r = compare(&ms, &mh, &g);
            assert!(r.first_as_complete(), "M_s < M_h on {}", pp.name);
        }
    }

    #[test]
    fn section_4_surveillance_not_maximal() {
        let pp = corpus::nonmaximal();
        let p = FlowchartProgram::new(pp.flowchart);
        let ms = Surveillance::new(p.clone(), pp.policy.allowed());
        let g = Grid::hypercube(2, -2..=2);
        // M_s always violates …
        for a in enf_core::InputDomain::iter_inputs(&g) {
            assert!(ms.run(&a).is_violation());
        }
        // … but Q as its own mechanism is sound: M_s is not maximal.
        let id = Identity::new(p);
        assert!(check_soundness(&id, &pp.policy, &g, false).is_sound());
        let r = compare(&id, &ms, &g);
        assert_eq!(r.ordering, MechOrdering::FirstMore);
    }

    #[test]
    fn example_7_transform_reaches_maximal() {
        let before = corpus::example7();
        let after = corpus::example7_transformed();
        let g = Grid::hypercube(2, -2..=2);
        let m_before = Surveillance::new(
            FlowchartProgram::new(before.flowchart),
            before.policy.allowed(),
        );
        let m_after = Surveillance::new(
            FlowchartProgram::new(after.flowchart),
            after.policy.allowed(),
        );
        for a in enf_core::InputDomain::iter_inputs(&g) {
            assert!(m_before.run(&a).is_violation(), "before accepts {a:?}");
            assert_eq!(
                m_after.run(&a),
                MechOutput::Value(ExecValue::Value(1)),
                "after not accepting {a:?}"
            );
        }
    }

    #[test]
    fn example_8_transform_strictly_hurts() {
        let before = corpus::example8();
        let after = corpus::example8_transformed();
        let g = Grid::hypercube(2, -2..=2);
        let m = Surveillance::new(
            FlowchartProgram::new(before.flowchart),
            before.policy.allowed(),
        );
        let m_t = Surveillance::new(
            FlowchartProgram::new(after.flowchart),
            after.policy.allowed(),
        );
        // M accepts exactly when x2 == 1 …
        for a in enf_core::InputDomain::iter_inputs(&g) {
            assert_eq!(m.run(&a).is_value(), a[1] == 1, "at {a:?}");
        }
        // … and the transformed mechanism never accepts: M > M′.
        let r = compare(&m, &m_t, &g);
        assert_eq!(r.ordering, MechOrdering::FirstMore);
        assert_eq!(r.accepted_second, 0);
    }

    #[test]
    fn timed_mechanism_also_protection_and_sound_untimed() {
        let p = program("program(2) { if x2 == 0 { y := 1; } else { y := 2; } }");
        let m = Surveillance::timed(p.clone(), IndexSet::single(2));
        let g = Grid::hypercube(2, -2..=2);
        assert!(check_protection(&m, &p, &g).is_ok());
        assert!(check_soundness(&m, &Allow::new(2, [2]), &g, false).is_sound());
    }

    #[test]
    fn timed_less_complete_than_untimed_on_forgetting_like_shapes() {
        // M′ kills a denied branch even when surveillance would later
        // forget: there exist programs with M_s > M′.
        let p = program("program(2) { if x1 == 0 { r1 := 1; } else { r1 := 2; } y := x2; }");
        // Under allow(1, 2) nothing is denied — both accept; use allow(2).
        let j = IndexSet::single(2);
        let ms = Surveillance::new(p.clone(), j);
        let mt = Surveillance::timed(p, j);
        let g = Grid::hypercube(2, -2..=2);
        // Here both always violate (PC taint persists to HALT) — M_s == M′.
        let r = compare(&ms, &mt, &g);
        assert_eq!(r.ordering, MechOrdering::Equal);
        // But on a program whose denied branch is *after* the output is
        // fixed, the HALT check still fails for M_s while M′ fails earlier;
        // acceptance sets agree. The real gap needs forgetting of C̄, which
        // the paper's C̄ never does — so M_s ≥ M′ should hold generally.
        let p2 = program("program(2) { y := x2; if x1 == 0 { r1 := 1; } }");
        let ms2 = Surveillance::new(p2.clone(), j);
        let mt2 = Surveillance::timed(p2, j);
        let r2 = compare(&ms2, &mt2, &g);
        assert!(r2.first_as_complete());
    }

    #[test]
    fn divergence_mirrors_program() {
        let fc = parse("program(1) { while x1 != 0 { skip; } y := 1; }").unwrap();
        let p = FlowchartProgram::with_fuel(fc, 100);
        let m = Surveillance::new(p, IndexSet::single(1));
        assert_eq!(m.run(&[0]), MechOutput::Value(ExecValue::Value(1)));
        assert_eq!(m.run(&[5]), MechOutput::Value(ExecValue::Diverged));
    }
}
