//! Soundness and determinism properties of the lattice-generic certifier
//! and the shared-sweep oracle, checked with the parallel evaluation
//! engine at every thread count:
//!
//! 1. **Certifier vs. oracle** — a program `certify_lattice` certifies at
//!    clearance `c` is sound for the induced policy
//!    `allow(J_c)`, `J_c = { i : label(i) ⇝* c }`, as measured by the
//!    exhaustive [`check_soundness_lattice_with`] sweep.
//! 2. **Shared sweep pinning** — the one-pass multi-clearance sweep is
//!    bit-identical (verdict, class counts, witness tuples and outputs)
//!    to running `check_soundness_with` once per clearance, at threads 1
//!    through 8.
//! 3. **Fleet differential** — the MLS monitor fleet judging all
//!    clearances in one execution agrees with a solo monitor per
//!    clearance under the same intransitive reduction.
//! 4. **Monotonicity** — raising the clearance never loses a
//!    certification.

use enforcement::core::{
    check_soundness_lattice_with, check_soundness_with, Allow, Classification, EvalConfig, Grid,
    Identity, InputDomain, IntransitiveFlow, Level,
};
use enforcement::flowchart::generate::{random_flowchart, GenConfig};
use enforcement::flowchart::{corpus, Flowchart, FlowchartProgram};
use enforcement::staticflow::certify_lattice;
use enforcement::surveillance::dynamic::{run_surveillance, SurvConfig};
use enforcement::surveillance::mls::run_all_clearances_lattice;
use proptest::prelude::*;

/// Forced-parallel configuration with exactly `t` workers.
fn par(t: usize) -> EvalConfig {
    EvalConfig::with_threads(t).seq_threshold(0)
}

/// Labeling for a 2-input program from a 4-bit mask: two bits of level
/// per input, covering all 16 pairings of the four levels.
fn labeling_from_mask(mask: u8) -> Classification<Level> {
    let lvl = |m: u8| Level::ALL[(m & 3) as usize];
    Classification::new(vec![lvl(mask), lvl(mask >> 2)])
}

/// Release edges from a 2-bit mask: none, `secret ⇝ unclassified`,
/// `topsecret ⇝ confidential`, or both.
fn flow_from_mask(mask: u8) -> IntransitiveFlow<Level> {
    let mut edges = Vec::new();
    if mask & 1 != 0 {
        edges.push((Level::Secret, Level::Unclassified));
    }
    if mask & 2 != 0 {
        edges.push((Level::TopSecret, Level::Confidential));
    }
    IntransitiveFlow::new(edges)
}

/// The core check, for one labeled program:
///
/// * the shared sweep's report for every clearance equals the
///   per-clearance class evaluator's under `allow(J_c)`, at each thread
///   count in `threads`;
/// * whenever the static certifier certifies at `c`, the exhaustive
///   oracle's report at `c` is sound.
fn assert_lattice_oracle(
    fc: &Flowchart,
    labeling: &Classification<Level>,
    flow: &IntransitiveFlow<Level>,
    grid: &Grid,
    threads: &[usize],
    context: &str,
) {
    let mech = Identity::new(FlowchartProgram::with_fuel(fc.clone(), 2_000));
    let mut baseline = None;
    for &t in threads {
        let cfg = par(t);
        let shared =
            check_soundness_lattice_with(&mech, labeling, flow, &Level::ALL, grid, false, &cfg);
        for (c, report) in Level::ALL.iter().zip(&shared) {
            let solo = check_soundness_with(
                &mech,
                &Allow::from_set(labeling.arity(), labeling.readable_allow(flow, c)),
                grid,
                false,
                &cfg,
            );
            assert_eq!(
                report,
                &solo,
                "{context}: shared sweep diverges from the per-clearance sweep \
                 at clearance {} with {t} threads",
                c.name()
            );
        }
        if let Some(first) = &baseline {
            assert_eq!(
                first, &shared,
                "{context}: shared sweep is thread-count dependent at {t} threads"
            );
        } else {
            baseline = Some(shared);
        }
    }
    let reports = baseline.expect("at least one thread count");
    for (c, report) in Level::ALL.iter().zip(&reports) {
        if certify_lattice(fc, labeling, flow, c).is_certified() {
            assert!(
                report.is_sound(),
                "{context}: certified at clearance {} but the exhaustive oracle \
                 found a leak: {:?}",
                c.name(),
                report.witness()
            );
        }
    }
}

/// The paper corpus under the two-point reduction of each program's
/// paired policy: allowed inputs are unclassified, denied inputs secret,
/// no release edges. Shared sweep pinned at threads 1, 2, 3 and 8;
/// certifications checked against the oracle.
#[test]
fn corpus_two_point_reduction_matches_per_clearance_sweeps() {
    for pp in corpus::all() {
        let arity = pp.flowchart.arity();
        let labeling = Classification::new(
            (1..=arity)
                .map(|i| {
                    if pp.policy.allows(i) {
                        Level::Unclassified
                    } else {
                        Level::Secret
                    }
                })
                .collect(),
        );
        // Probe naturals to stay in the terminating region of the
        // timing-sensitive corpus programs.
        let grid = Grid::hypercube(arity, 0..=3);
        assert_lattice_oracle(
            &pp.flowchart,
            &labeling,
            &IntransitiveFlow::transitive(),
            &grid,
            &[1, 2, 3, 8],
            pp.name,
        );
    }
}

/// 400 random programs under seed-derived labelings and release edges:
/// the shared sweep is bit-identical to the per-clearance sweeps and the
/// certifier never contradicts the oracle.
#[test]
fn shared_sweep_pinned_on_400_random_labeled_programs() {
    let cfg = GenConfig::default();
    let grid = Grid::hypercube(2, -2..=2);
    for seed in 0..400u64 {
        let fc = random_flowchart(seed, &cfg);
        let labeling = labeling_from_mask((seed % 16) as u8);
        let flow = flow_from_mask(((seed / 16) % 4) as u8);
        assert_lattice_oracle(
            &fc,
            &labeling,
            &flow,
            &grid,
            &[1, 2, 8],
            &format!("seed {seed}"),
        );
    }
}

/// The headline separation, end to end: `password_release` is certified
/// at every clearance thanks to its sanctioned `secret ⇝ unclassified`
/// edge, and the exhaustive oracle confirms each induced policy is
/// respected.
#[test]
fn password_release_is_certified_and_oracle_sound_at_every_clearance() {
    let lp = corpus::password_release_labeled();
    let grid = Grid::hypercube(2, 0..=3);
    let mech = Identity::new(FlowchartProgram::with_fuel(lp.flowchart.clone(), 2_000));
    let reports = check_soundness_lattice_with(
        &mech,
        &lp.classification,
        &lp.flow,
        &Level::ALL,
        &grid,
        false,
        &par(1),
    );
    for (c, report) in Level::ALL.iter().zip(&reports) {
        assert!(
            certify_lattice(&lp.flowchart, &lp.classification, &lp.flow, c).is_certified(),
            "password_release not certified at clearance {}",
            c.name()
        );
        assert!(
            report.is_sound(),
            "password_release leaks under allow(J_{}): {:?}",
            c.name(),
            report.witness()
        );
    }
}

/// The one-execution MLS fleet agrees with a solo taint monitor per
/// clearance under the same `allow(J_c)` reduction, on the labeled
/// corpus program and on random labeled programs.
#[test]
fn fleet_reduction_matches_solo_monitors() {
    let lp = corpus::password_release_labeled();
    let mut cases: Vec<(Flowchart, Classification<Level>, IntransitiveFlow<Level>)> =
        vec![(lp.flowchart, lp.classification, lp.flow)];
    let cfg = GenConfig::default();
    for seed in 0..40u64 {
        cases.push((
            random_flowchart(seed, &cfg),
            labeling_from_mask((seed % 16) as u8),
            flow_from_mask(((seed / 16) % 4) as u8),
        ));
    }
    for (fc, labeling, flow) in &cases {
        for a in Grid::hypercube(2, -1..=1).iter_inputs() {
            let fleet = run_all_clearances_lattice(fc, &a, labeling, flow, &Level::ALL);
            for (c, outcome) in Level::ALL.iter().zip(&fleet) {
                let solo = run_surveillance(
                    fc,
                    &a,
                    &SurvConfig::surveillance(labeling.readable_allow(flow, c)),
                );
                assert_eq!(
                    outcome,
                    &solo,
                    "fleet verdict diverges from the solo monitor at clearance {} on {a:?}",
                    c.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Raising the clearance never loses a certification: the levels form
    /// a chain, so once a program certifies it stays certified above.
    #[test]
    fn certification_is_monotone_in_clearance(
        seed in 0u64..20_000,
        labels in 0u8..16,
        fmask in 0u8..4,
    ) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let labeling = labeling_from_mask(labels);
        let flow = flow_from_mask(fmask);
        let mut certified_below = false;
        for c in &Level::ALL {
            let now = certify_lattice(&fc, &labeling, &flow, c).is_certified();
            prop_assert!(
                !certified_below || now,
                "seed {seed}, labels {labels:#x}, flow {fmask}: certification \
                 lost when raising the clearance to {}",
                c.name()
            );
            certified_below = certified_below || now;
        }
    }

    /// The full thread ladder: shared sweep bit-identical to the
    /// per-clearance sweeps and certifier sound against the oracle, at
    /// every thread count from 1 to 8.
    #[test]
    fn certifier_never_contradicts_the_oracle_at_any_thread_count(
        seed in 0u64..20_000,
        labels in 0u8..16,
        fmask in 0u8..4,
    ) {
        let fc = random_flowchart(seed, &GenConfig::default());
        assert_lattice_oracle(
            &fc,
            &labeling_from_mask(labels),
            &flow_from_mask(fmask),
            &Grid::hypercube(2, -2..=2),
            &[1, 2, 3, 4, 5, 6, 7, 8],
            &format!("seed {seed}, labels {labels:#x}, flow {fmask}"),
        );
    }
}
