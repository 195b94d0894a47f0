//! Multi-clearance sweep cost: the shared lattice sweep vs the
//! per-clearance loop it replaces.
//!
//! `check_soundness_lattice_with` evaluates the subject once per input and
//! records the output into one class partition per *distinct* induced
//! policy `allow(J_c)`; the baseline runs a full `check_soundness_with`
//! sweep per clearance, re-evaluating the subject `|clearances|` times.
//! Each row measures both over the same grid at a growing side length,
//! judging all four [`Level`] clearances of a two-input labeled program.
//! `exp_all` serializes the rows into the `"lattice"` field of
//! `BENCH_results.json`; the bar is a ≥3× shared-sweep advantage once
//! subject evaluation dominates.

use enf_core::{
    check_soundness_lattice_with, check_soundness_with, Allow, Classification, EvalConfig, Grid,
    Identity, InputDomain, IntransitiveFlow, Level,
};
use enf_flowchart::parse;
use enf_flowchart::program::FlowchartProgram;
use std::time::Instant;

/// One grid-size's shared-vs-per-clearance measurement.
#[derive(Clone, Debug)]
pub struct LatticeRow {
    /// Grid side length (inputs range over `0..=side`).
    pub side: i64,
    /// Inputs swept (`(side + 1)^2`).
    pub inputs: usize,
    /// Clearances judged (all four levels).
    pub clearances: usize,
    /// Distinct induced policies `allow(J_c)` among them.
    pub distinct: usize,
    /// Shared one-pass lattice sweep wall-clock seconds.
    pub shared_secs: f64,
    /// Per-clearance `check_soundness_with` loop wall-clock seconds.
    pub per_clearance_secs: f64,
}

impl LatticeRow {
    /// How many times cheaper the shared sweep is than the loop.
    pub fn ratio(&self) -> f64 {
        self.per_clearance_secs / self.shared_secs.max(1e-12)
    }
}

/// The benchmark subject: a two-input program doing `16 · x1 · x2` loop
/// iterations of work into a scratch register and halting with `y = 0`.
/// The constant output makes it sound for *every* induced policy, so no
/// per-clearance sweep exits early on a conflict: the baseline pays the
/// full `|clearances|` subject passes the shared sweep amortizes into
/// one — the comparison the amortization claim is about.
pub fn lattice_subject() -> FlowchartProgram {
    let fc = parse(
        "program(2) {\n\
         \u{20}   r3 := 16;\n\
         \u{20}   while r3 > 0 {\n\
         \u{20}       r1 := x1;\n\
         \u{20}       while r1 > 0 {\n\
         \u{20}           r2 := x2;\n\
         \u{20}           while r2 > 0 {\n\
         \u{20}               r4 := r4 + 1;\n\
         \u{20}               r2 := r2 - 1;\n\
         \u{20}           }\n\
         \u{20}           r1 := r1 - 1;\n\
         \u{20}       }\n\
         \u{20}       r3 := r3 - 1;\n\
         \u{20}   }\n\
         }",
    )
    .expect("lattice_subject source parses");
    FlowchartProgram::with_fuel(fc, 10_000_000)
}

/// The benchmark labeling: `x1: confidential, x2: secret`, purely
/// transitive — the four clearances induce three distinct policies
/// (`∅`, `{1}`, `{1, 2}` twice), so the shared sweep runs one subject
/// pass against the baseline's four.
pub fn lattice_labeling() -> (Classification<Level>, IntransitiveFlow<Level>) {
    (
        Classification::new(vec![Level::Confidential, Level::Secret]),
        IntransitiveFlow::transitive(),
    )
}

fn time<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

/// Measures the shared lattice sweep against the per-clearance loop at
/// growing grid sizes.
pub fn measure() -> Vec<LatticeRow> {
    measure_sized(&[8, 12, 16])
}

/// [`measure`] at caller-chosen grid side lengths — short lists back the
/// `exp_all --quick` CI smoke mode.
pub fn measure_sized(sides: &[i64]) -> Vec<LatticeRow> {
    let cfg = EvalConfig::default();
    let (labeling, flow) = lattice_labeling();
    let mech = Identity::new(lattice_subject());
    let mut rows = Vec::new();
    for &side in sides {
        let grid = Grid::hypercube(2, 0..=side);
        let mut shared = None;
        let shared_secs = time(|| {
            shared = Some(check_soundness_lattice_with(
                &mech,
                &labeling,
                &flow,
                &Level::ALL,
                &grid,
                false,
                &cfg,
            ));
        });
        let mut solo = Vec::with_capacity(Level::ALL.len());
        let per_clearance_secs = time(|| {
            for c in &Level::ALL {
                solo.push(check_soundness_with(
                    &mech,
                    &Allow::from_set(labeling.arity(), labeling.readable_allow(&flow, c)),
                    &grid,
                    false,
                    &cfg,
                ));
            }
        });
        let shared = shared.expect("shared sweep ran");
        assert_eq!(shared, solo, "shared sweep diverged from the loop");
        let mut induced: Vec<_> = Level::ALL
            .iter()
            .map(|c| labeling.readable_allow(&flow, c))
            .collect();
        induced.sort();
        induced.dedup();
        rows.push(LatticeRow {
            side,
            inputs: grid.len(),
            clearances: Level::ALL.len(),
            distinct: induced.len(),
            shared_secs,
            per_clearance_secs,
        });
    }
    rows
}

/// Serializes rows as a JSON array (no external dependencies).
pub fn to_json(rows: &[LatticeRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"side\": {}, \"inputs\": {}, \"clearances\": {}, \"distinct\": {}, \
             \"shared_secs\": {:.9}, \"per_clearance_secs\": {:.9}, \
             \"ratio\": {:.1}}}{}\n",
            r.side,
            r.inputs,
            r.clearances,
            r.distinct,
            r.shared_secs,
            r.per_clearance_secs,
            r.ratio(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let rows = vec![LatticeRow {
            side: 8,
            inputs: 81,
            clearances: 4,
            distinct: 3,
            shared_secs: 0.001,
            per_clearance_secs: 0.004,
        }];
        let j = to_json(&rows);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"side\": 8"));
        assert!(j.contains("\"distinct\": 3"));
        assert!(j.contains("\"ratio\": 4.0"));
    }

    #[test]
    fn shared_sweep_matches_the_loop_and_dedups_policies() {
        let rows = measure_sized(&[3, 4]);
        assert_eq!(rows.len(), 2);
        // Four clearances, three distinct induced policies.
        assert!(rows.iter().all(|r| r.clearances == 4 && r.distinct == 3));
        assert_eq!(rows[0].inputs, 16);
        assert_eq!(rows[1].inputs, 25);
        assert!(rows.iter().all(|r| r.shared_secs > 0.0));
    }
}
