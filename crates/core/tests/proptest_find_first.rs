//! Property tests for the parallel witness scan's merge order.
//!
//! `find_first` promises the *globally* least matching index for every
//! thread count — partitions race, but range-order merging plus the
//! shared cutoff make the result sequential-identical. The sharpest case
//! is an always-true predicate: every index matches, every partition
//! produces a candidate immediately, and only the merge discipline keeps
//! index 0 the winner. A refutation's coverage is pinned the same way:
//! `checked` never counts work past the witness.

use enf_core::par::{find_first, try_find_first, CancelToken};
use enf_core::{
    try_check_soundness_with, Allow, EvalConfig, FnMechanism, Grid, MechOutput, Verdict, V,
};
use proptest::prelude::*;

fn par(threads: usize) -> EvalConfig {
    EvalConfig::with_threads(threads).seq_threshold(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An always-true predicate yields index 0 — the globally smallest —
    /// for every thread count and domain size.
    #[test]
    fn always_true_predicate_returns_the_least_index(len in 1usize..4000) {
        let g = Grid::hypercube(1, 0..=(len as i64 - 1));
        for t in 1..=8 {
            let hit = find_first(&g, &par(t), |idx, input| Some((idx, input[0])));
            prop_assert_eq!(hit, Some((0, (0, 0))), "threads {}", t);
        }
    }

    /// Same property for predicates true from an arbitrary offset on: the
    /// reported witness is the first true index, never a later one found
    /// by a faster partition.
    #[test]
    fn suffix_predicate_returns_its_start(len in 1usize..4000, frac in 0u32..=100) {
        let first = (len - 1) * frac as usize / 100;
        let g = Grid::hypercube(1, 0..=(len as i64 - 1));
        for t in 1..=8 {
            let hit = find_first(&g, &par(t), |idx, _| (idx >= first).then_some(idx));
            prop_assert_eq!(hit, Some((first, first)), "threads {}", t);
        }
    }

    /// The guarded scan agrees with the classic one on the same inputs,
    /// and reports the exact frontier: a refutation at index w covers
    /// w + 1 inputs, no more.
    #[test]
    fn guarded_scan_matches_and_reports_the_frontier(len in 1usize..4000, frac in 0u32..=100) {
        let first = (len - 1) * frac as usize / 100;
        let g = Grid::hypercube(1, 0..=(len as i64 - 1));
        for t in 1..=8 {
            let cov = try_find_first(&g, &par(t), &CancelToken::new(), |idx, _| {
                (idx >= first).then_some(idx)
            })
            .expect("no faults injected");
            prop_assert_eq!(cov.verdict, Verdict::Refuted, "threads {}", t);
            prop_assert_eq!(cov.report, Some((first, first)), "threads {}", t);
            prop_assert_eq!(cov.checked, first + 1, "threads {}", t);
        }
    }
}

/// A refutation's `checked` is `witness + 1` at every thread count, even
/// when sibling workers evaluate inputs past the witness before they hear
/// of it. The witness is the last index of the first worker's range and
/// stalls there, so every other worker finishes its range first.
#[test]
fn refutation_checked_ignores_work_past_the_witness() {
    fn stall(idx: usize) {
        if idx == 1 {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
    for t in 2..=8 {
        // Two inputs per worker: the first range is 0..2.
        let g = Grid::hypercube(1, 0..=(2 * t as i64 - 1));
        let cov = try_find_first(&g, &par(t), &CancelToken::new(), |idx, _| {
            stall(idx);
            (idx == 1).then_some(())
        })
        .expect("no faults injected");
        assert_eq!(cov.report, Some((1, ())), "threads {t}");
        assert_eq!(cov.checked, 2, "try_find_first at {t} threads");

        // Under allow() every input shares one class; index 1 is the
        // only one whose output differs from index 0's.
        let m = FnMechanism::new(1, |a: &[V]| {
            stall(a[0] as usize);
            MechOutput::Value(V::from(a[0] == 1))
        });
        let cov =
            try_check_soundness_with(&m, &Allow::none(1), &g, false, &par(t), &CancelToken::new())
                .expect("no faults injected");
        assert_eq!(cov.verdict, Verdict::Refuted, "threads {t}");
        assert_eq!(cov.checked, 2, "try_check_soundness_with at {t} threads");
    }
}
