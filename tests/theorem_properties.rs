//! Property-based tests: the paper's theorems quantified over *random*
//! terminating programs and policies.
//!
//! Programs come from the deterministic generator in
//! `enf_flowchart::generate` (counted loops only, so every program
//! terminates on every input); proptest supplies seeds and policies.

use enf_flowchart::generate::{random_flowchart, GenConfig};
use enf_surveillance::instrument;
use enforcement::core::Identity;
use enforcement::prelude::*;
use proptest::prelude::*;

fn small_grid() -> Grid {
    Grid::hypercube(2, -1..=1)
}

fn policy_from_mask(mask: u8) -> Allow {
    let mut idx = Vec::new();
    if mask & 1 != 0 {
        idx.push(1);
    }
    if mask & 2 != 0 {
        idx.push(2);
    }
    Allow::new(2, idx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 3: surveillance is sound for every random terminating
    /// program and every allow(J).
    #[test]
    fn surveillance_sound(seed in 0u64..5000, mask in 0u8..4) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let policy = policy_from_mask(mask);
        let m = Surveillance::new(FlowchartProgram::new(fc), policy.allowed());
        prop_assert!(check_soundness(&m, &policy, &small_grid(), false).is_sound());
    }

    /// Theorem 3: the same, for the high-water baseline.
    #[test]
    fn highwater_sound(seed in 0u64..5000, mask in 0u8..4) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let policy = policy_from_mask(mask);
        let m = Surveillance::highwater(FlowchartProgram::new(fc), policy.allowed());
        prop_assert!(check_soundness(&m, &policy, &small_grid(), false).is_sound());
    }

    /// Theorem 3′: the timed mechanism's (answer, steps) pair is sound.
    #[test]
    fn timed_mechanism_sound(seed in 0u64..5000, mask in 0u8..4) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let policy = policy_from_mask(mask);
        let m = TimedMechanism::new(fc, policy.allowed());
        prop_assert!(
            check_soundness(&Identity::new(&m), &policy, &small_grid(), false).is_sound()
        );
    }

    /// Surveillance is a protection mechanism: accepted values equal Q's.
    #[test]
    fn surveillance_protects(seed in 0u64..5000, mask in 0u8..4) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let policy = policy_from_mask(mask);
        let p = FlowchartProgram::new(fc);
        let m = Surveillance::new(p.clone(), policy.allowed());
        prop_assert!(check_protection(&m, &p, &small_grid()).is_ok());
    }

    /// Section 4: M_s ≥ M_h on every random program.
    #[test]
    fn surveillance_dominates_highwater(seed in 0u64..5000, mask in 0u8..4) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let j = policy_from_mask(mask).allowed();
        let p = FlowchartProgram::new(fc);
        let ms = Surveillance::new(p.clone(), j);
        let mh = Surveillance::highwater(p, j);
        prop_assert!(compare(&ms, &mh, &small_grid()).first_as_complete());
    }

    /// The maximal mechanism dominates surveillance (which is sound), on
    /// every random program.
    #[test]
    fn maximal_dominates_surveillance(seed in 0u64..2000, mask in 0u8..4) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let policy = policy_from_mask(mask);
        let p = FlowchartProgram::new(fc);
        let maximal = MaximalMechanism::build(&p, &policy, &small_grid());
        let ms = Surveillance::new(p, policy.allowed());
        prop_assert!(compare(&maximal, &ms, &small_grid()).first_as_complete());
    }

    /// Theorem 1 on real mechanisms: joining surveillance with the
    /// maximal mechanism stays sound and dominates both.
    #[test]
    fn join_of_real_mechanisms(seed in 0u64..2000, mask in 0u8..4) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let policy = policy_from_mask(mask);
        let p = FlowchartProgram::new(fc);
        let maximal = MaximalMechanism::build(&p, &policy, &small_grid());
        let ms = Surveillance::new(p, policy.allowed());
        let j = Join::new(&ms, &maximal);
        prop_assert!(check_soundness(&j, &policy, &small_grid(), false).is_sound());
        prop_assert!(compare(&j, &ms, &small_grid()).first_as_complete());
        prop_assert!(compare(&j, &maximal, &small_grid()).first_as_complete());
    }

    /// The paper's literal instrumentation agrees with the semantic
    /// mechanism everywhere.
    #[test]
    fn instrumentation_differential(seed in 0u64..5000, mask in 0u8..4, timed in any::<bool>()) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let j = policy_from_mask(mask).allowed();
        let inst = instrument(&fc, j, timed);
        let p = FlowchartProgram::new(fc.clone());
        let sem = if timed {
            Surveillance::timed(p, j)
        } else {
            Surveillance::new(p, j)
        };
        for a in small_grid().iter_inputs() {
            prop_assert_eq!(inst.run_mech(&a), sem.run(&a), "at {:?}", a);
        }
    }

    /// Static certification (surveillance discipline) implies the dynamic
    /// mechanism never fires.
    #[test]
    fn certified_never_violates(seed in 0u64..5000, mask in 0u8..4) {
        use enforcement::staticflow::certify::{certify, Analysis};
        let fc = random_flowchart(seed, &GenConfig::default());
        let j = policy_from_mask(mask).allowed();
        if certify(&fc, j, Analysis::Surveillance).is_certified() {
            let m = Surveillance::new(FlowchartProgram::new(fc), j);
            for a in small_grid().iter_inputs() {
                prop_assert!(!m.run(&a).is_violation());
            }
        }
    }

    /// Every built-in transform preserves semantics on random programs.
    #[test]
    fn transforms_preserve_semantics(seed in 0u64..3000, which in 0usize..5) {
        use enforcement::staticflow::transform::all_transforms;
        use enforcement::staticflow::equivalent_on;
        use enf_flowchart::generate::random_structured;
        use enf_flowchart::structured::lower;
        let sp = random_structured(seed, &GenConfig::default());
        let t = &all_transforms()[which];
        if let Some(sp2) = t.apply(&sp) {
            let a = lower(&sp).unwrap();
            let b = lower(&sp2).unwrap();
            prop_assert!(
                equivalent_on(&a, &b, &small_grid(), 200_000).is_ok(),
                "{} changed semantics", t.name()
            );
        }
    }

    /// allow(J1) ⊆ allow(J2) pointwise: a bigger allowed set accepts at
    /// least as much under surveillance.
    #[test]
    fn monotone_in_policy(seed in 0u64..3000) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let p = FlowchartProgram::new(fc);
        let small = Surveillance::new(p.clone(), IndexSet::single(2));
        let big = Surveillance::new(p, IndexSet::full(2));
        prop_assert!(compare(&big, &small, &small_grid()).first_as_complete());
    }
}
