//! The infallible checker forms let a subject's panic unwind to their
//! caller with the subject's own payload, at every thread count.
//!
//! The fail-closed `try_` forms quarantine a panic and keep only its text
//! (`tests/chaos.rs` pins that). The infallible forms must not: a caller
//! that catches the unwind and matches on its own payload type would find
//! a string in its place.

use enf_core::par::find_first;
use enf_core::{
    acceptance_set_with, check_protection_with, check_soundness_scheduled, check_soundness_with,
    compare_with, Allow, EvalConfig, FnMechanism, FnProgram, Grid, MaximalMechanism, MechOutput,
    Schedule, ScheduledObs, ScheduledProgram, V,
};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};

/// The payload every subject here panics with.
#[derive(Debug, PartialEq)]
struct Marker(usize);

/// Panics with [`Marker`] on the input `(3, 7)`, index 37 of the grid.
fn trip(a: &[V]) {
    if a == [3, 7] {
        panic_any(Marker(37));
    }
}

/// A scheduled subject with one slot (four schedules at arity 2) that
/// trips on the same input under every schedule.
struct Tripping;

impl ScheduledProgram for Tripping {
    type Out = V;

    fn arity(&self) -> usize {
        2
    }

    fn slot_count(&self) -> usize {
        1
    }

    fn eval_scheduled(&self, input: &[V], schedule: &Schedule) -> ScheduledObs<V> {
        trip(input);
        ScheduledObs {
            out: input[0],
            final_policy: schedule.initial,
            declass: Vec::new(),
        }
    }
}

/// Keeps the default hook from printing the unwinds this suite provokes.
fn silence_marker_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Marker>().is_none() {
                previous(info);
            }
        }));
    });
}

fn assert_unwinds_with_marker(what: &str, f: impl FnOnce()) {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err(what);
    assert_eq!(
        payload.downcast_ref::<Marker>(),
        Some(&Marker(37)),
        "{what}"
    );
}

#[test]
fn infallible_forms_unwind_with_the_subjects_own_payload() {
    silence_marker_panics();
    let g = Grid::hypercube(2, 0..=9);
    let policy = Allow::new(2, [1]);
    let tripping = FnMechanism::new(2, |a: &[V]| {
        trip(a);
        MechOutput::Value(a[0])
    });
    let clean = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0]));
    let program = FnProgram::new(2, |a: &[V]| {
        trip(a);
        a[0]
    });
    for threads in [1, 4] {
        let cfg = EvalConfig::with_threads(threads).seq_threshold(0);
        let at = |form: &str| format!("{form} at {threads} threads");
        assert_unwinds_with_marker(&at("check_soundness_with"), || {
            check_soundness_with(&tripping, &policy, &g, false, &cfg);
        });
        assert_unwinds_with_marker(&at("check_protection_with"), || {
            let _ = check_protection_with(&clean, &program, &g, &cfg);
        });
        assert_unwinds_with_marker(&at("compare_with"), || {
            compare_with(&clean, &tripping, &g, &cfg);
        });
        assert_unwinds_with_marker(&at("acceptance_set_with"), || {
            acceptance_set_with(&tripping, &g, &cfg);
        });
        assert_unwinds_with_marker(&at("MaximalMechanism::build_with"), || {
            MaximalMechanism::build_with(&program, &policy, &g, &cfg);
        });
        assert_unwinds_with_marker(&at("check_soundness_scheduled"), || {
            check_soundness_scheduled(&Tripping, &policy, &g, &cfg, None);
        });
        assert_unwinds_with_marker(&at("find_first"), || {
            find_first(&g, &cfg, |_, a| {
                trip(a);
                None::<()>
            });
        });
    }
}
