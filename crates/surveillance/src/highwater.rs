//! The high-water-mark discipline, as a paper-style instrumented flowchart.
//!
//! High-water marking is the discipline of ADEPT-50 and of Rotenberg's
//! privacy restriction processor: once a container is tainted, it stays
//! tainted — assignment *accumulates* (`v̄ ← v̄ ∪ w̄1 ∪ … ∪ w̄s ∪ C̄`)
//! where surveillance *replaces*. Section 4 compares the two: "MS ≥ Mh …
//! Intuitively, surveillance is better here, since it allows 'forgetting'
//! while high-water mark does not."
//!
//! The dynamic engine's high-water mode lives in
//! [`crate::dynamic::Style::Accumulate`] and its mechanism is
//! [`crate::mechanism::Surveillance::highwater`]; this module provides the
//! instrumented (flowchart-form) variant and the theorem-level comparisons.

use crate::instrument::{instrument_with, Instrumented};
use enf_core::IndexSet;
use enf_flowchart::graph::Flowchart;

/// Instruments `fc` with the high-water (accumulating) discipline for
/// `allow(J)`.
pub fn instrument_highwater(fc: &Flowchart, allowed: IndexSet) -> Instrumented {
    instrument_with(fc, allowed, false, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{run_surveillance, SurvConfig, SurvOutcome};
    use crate::mechanism::Surveillance;
    use enf_core::{compare, Grid, InputDomain, MechOutput, Mechanism, Notice, Policy as _};
    use enf_flowchart::corpus;
    use enf_flowchart::generate::{random_flowchart, GenConfig};
    use enf_flowchart::interp::ExecValue;
    use enf_flowchart::program::FlowchartProgram;

    #[test]
    fn instrumented_highwater_agrees_with_dynamic() {
        // All four discipline combinations (timed × {Replace, Accumulate}),
        // arities 1..=3 and seed-derived policies — the instrumented
        // (flowchart-form) mechanism and the dynamic engine must agree
        // pointwise, not just in the seed suite's arity-2 high-water slice.
        use crate::dynamic::{CheckAt, Style};
        use crate::instrument::instrument_with;
        for arity in 1..=3usize {
            let gen_cfg = GenConfig {
                arity,
                ..GenConfig::default()
            };
            let g = Grid::hypercube(arity, -1..=1);
            for round in 0..30u64 {
                let seed = 5_000 * arity as u64 + 13 * round;
                let fc = random_flowchart(seed, &gen_cfg);
                // A seed-dependent allowed set over the live input indices.
                let j: IndexSet = (1..=arity).filter(|i| (seed >> i) & 1 == 0).collect();
                for (timed, accumulate) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let inst = instrument_with(&fc, j, timed, accumulate);
                    let cfg = SurvConfig {
                        allowed: j,
                        style: if accumulate {
                            Style::Accumulate
                        } else {
                            Style::Replace
                        },
                        check: if timed {
                            CheckAt::EveryDecision
                        } else {
                            CheckAt::Halt
                        },
                        fuel: 1_000_000,
                    };
                    for a in g.iter_inputs() {
                        let dynamic = match run_surveillance(&fc, &a, &cfg) {
                            SurvOutcome::Accepted { y, .. } => {
                                MechOutput::Value(ExecValue::Value(y))
                            }
                            SurvOutcome::Violation { .. } => {
                                MechOutput::Violation(Notice::lambda())
                            }
                            SurvOutcome::OutOfFuel => MechOutput::Value(ExecValue::Diverged),
                        };
                        assert_eq!(
                            inst.run_mech(&a),
                            dynamic,
                            "seed {seed}, arity {arity}, timed {timed}, \
                             accumulate {accumulate}, J = {j} at {a:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forgetting_program_shows_the_gap_in_flowchart_form() {
        // The Section 4 program, both mechanisms in their instrumented
        // flowchart form: M_h always Λ, M_s accepts iff x2 == 0.
        let pp = corpus::forgetting();
        let j = pp.policy.allowed();
        let ms = crate::instrument::instrument(&pp.flowchart, j, false);
        let mh = instrument_highwater(&pp.flowchart, j);
        let g = Grid::hypercube(2, -3..=3);
        for a in g.iter_inputs() {
            assert!(mh.run_mech(&a).is_violation(), "M_h accepted {a:?}");
            assert_eq!(ms.run_mech(&a).is_value(), a[1] == 0, "M_s wrong at {a:?}");
        }
    }

    #[test]
    fn surveillance_as_complete_as_highwater_on_random_programs() {
        // Section 4's MS ≥ Mh, property-tested: surveillance taints are
        // pointwise subsets of high-water taints, so M_h violating is
        // implied whenever M_s accepts.
        let gen_cfg = GenConfig::default();
        let g = Grid::hypercube(2, -1..=1);
        for seed in 100..160 {
            let fc = random_flowchart(seed, &gen_cfg);
            for j in [IndexSet::empty(), IndexSet::single(1), IndexSet::single(2)] {
                let p = FlowchartProgram::new(fc.clone());
                let ms = Surveillance::new(p.clone(), j);
                let mh = Surveillance::highwater(p, j);
                let r = compare(&ms, &mh, &g);
                assert!(
                    r.first_as_complete(),
                    "M_s not ≥ M_h on seed {seed} with J = {j}"
                );
            }
        }
    }

    #[test]
    fn highwater_sound_on_random_programs() {
        let gen_cfg = GenConfig::default();
        let g = Grid::hypercube(2, -1..=1);
        for seed in 200..240 {
            let fc = random_flowchart(seed, &gen_cfg);
            for allowed in [IndexSet::single(1), IndexSet::full(2)] {
                let p = FlowchartProgram::new(fc.clone());
                let policy = enf_core::Allow::from_set(2, allowed);
                let mh = Surveillance::highwater(p, allowed);
                assert!(
                    enf_core::check_soundness(&mh, &policy, &g, false).is_sound(),
                    "high-water unsound on seed {seed} with J = {allowed}"
                );
            }
        }
    }

    #[test]
    fn instrumented_highwater_validates_and_reports_arity() {
        let pp = corpus::forgetting();
        let inst = instrument_highwater(&pp.flowchart, pp.policy.allowed());
        assert!(inst.flowchart().validate().is_ok());
        assert_eq!(inst.arity(), pp.policy.arity());
        assert!(!inst.is_timed());
    }
}
