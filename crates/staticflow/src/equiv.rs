//! Empirical functional equivalence of flowcharts.
//!
//! Deciding functional equivalence is of course undecidable in general
//! (it subsumes Theorem 4's constancy question); this module checks it
//! *on a finite domain*, which is exactly what validating a transform on a
//! test grid needs. Divergence (fuel exhaustion) counts as an observable
//! outcome and must match too.

use enf_core::par::find_first;
use enf_core::{EvalConfig, InputDomain, V};
use enf_flowchart::graph::Flowchart;
use enf_flowchart::interp::{run, ExecConfig, Outcome};

/// Checks that two flowcharts compute the same function on a domain.
///
/// Returns the first differing input on failure.
pub fn equivalent_on(
    a: &Flowchart,
    b: &Flowchart,
    domain: &dyn InputDomain,
    fuel: u64,
) -> Result<(), Vec<V>> {
    equivalent_on_with(a, b, domain, fuel, &EvalConfig::default())
}

/// Like [`equivalent_on`] but with an explicit evaluation configuration.
///
/// The scan runs on the parallel engine (`enf_core::par`); the reported
/// witness is still the first differing input in enumeration order, for
/// every thread count.
pub fn equivalent_on_with(
    a: &Flowchart,
    b: &Flowchart,
    domain: &dyn InputDomain,
    fuel: u64,
    config: &EvalConfig,
) -> Result<(), Vec<V>> {
    assert_eq!(a.arity(), b.arity(), "arity mismatch");
    let cfg = ExecConfig::with_fuel(fuel);
    match find_first(domain, config, |_, input| {
        let oa = run(a, input, &cfg);
        let ob = run(b, input, &cfg);
        let same = match (&oa, &ob) {
            (Outcome::Halted(ha), Outcome::Halted(hb)) => ha.y == hb.y,
            (Outcome::OutOfFuel, Outcome::OutOfFuel) => true,
            _ => false,
        };
        (!same).then(|| input.to_vec())
    }) {
        Some((_, witness)) => Err(witness),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enf_core::Grid;
    use enf_flowchart::parse;

    #[test]
    fn identical_programs_are_equivalent() {
        let a = parse("program(1) { y := x1 * 2; }").unwrap();
        let b = parse("program(1) { y := x1 + x1; }").unwrap();
        let g = Grid::hypercube(1, -10..=10);
        assert!(equivalent_on(&a, &b, &g, 1000).is_ok());
    }

    #[test]
    fn differing_programs_report_witness() {
        let a = parse("program(1) { y := x1; }").unwrap();
        let b = parse("program(1) { y := x1 * x1; }").unwrap();
        let g = Grid::hypercube(1, -3..=3);
        let w = equivalent_on(&a, &b, &g, 1000).unwrap_err();
        // The first lexicographic differing input is -3 (-3 ≠ 9).
        assert_eq!(w, vec![-3]);
    }

    #[test]
    fn divergence_must_match() {
        let a = parse("program(1) { while x1 != 0 { skip; } y := 0; }").unwrap();
        let b = parse("program(1) { y := 0; }").unwrap();
        let g = Grid::hypercube(1, 0..=2);
        // a diverges on x1 ≠ 0 within small fuel; b never does.
        let w = equivalent_on(&a, &b, &g, 100).unwrap_err();
        assert_eq!(w, vec![1]);
        // Restricted to x1 = 0 they agree.
        let g0 = Grid::hypercube(1, 0..=0);
        assert!(equivalent_on(&a, &b, &g0, 100).is_ok());
    }
}
