//! Checker throughput measurement, sequential vs parallel.
//!
//! Times each exhaustive checker under a one-worker [`EvalConfig`] and
//! under the auto (all cores / `ENF_THREADS`) configuration over the same
//! ~10^6-tuple grid, in paired rounds as `checkpoint_overhead` is
//! (`checkpoint::paired_rounds`: the two sides alternate, after one
//! untimed run of each), and reports tuples/second plus the speedup, the
//! median of the per-round ratios. `exp_all` serializes the rows into
//! the `"throughput"` field of `BENCH_results.json` (alongside the
//! [`crate::stepper`] overhead rows).

use crate::checkpoint::paired_rounds;
use enf_core::IndexSet;
use enf_core::{check_soundness_with, Allow, EvalConfig, Grid, InputDomain, MaximalMechanism};
use enf_flowchart::parse;
use enf_flowchart::program::FlowchartProgram;
use enf_static::equiv::equivalent_on_with;
use enf_surveillance::mechanism::Surveillance;

/// One checker's seq-vs-par measurement.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Checker name.
    pub checker: &'static str,
    /// Domain size in tuples.
    pub tuples: usize,
    /// Worker count used by the parallel run.
    pub threads: usize,
    /// Paired rounds timed; each times one run of each side.
    pub rounds: u32,
    /// Sequential wall-clock seconds, median over the rounds.
    pub seq_secs: f64,
    /// Parallel wall-clock seconds, median over the rounds.
    pub par_secs: f64,
    /// Parallel speedup over sequential: the median of the per-round
    /// ratios.
    pub speedup: f64,
}

impl ThroughputRow {
    /// Sequential throughput in tuples/second.
    pub fn seq_tuples_per_sec(&self) -> f64 {
        self.tuples as f64 / self.seq_secs.max(1e-12)
    }

    /// Parallel throughput in tuples/second.
    pub fn par_tuples_per_sec(&self) -> f64 {
        self.tuples as f64 / self.par_secs.max(1e-12)
    }
}

/// Measures every engine-backed checker on a ~10^6-tuple grid over
/// `rounds` paired rounds.
pub fn measure_all(rounds: u32) -> Vec<ThroughputRow> {
    measure_all_sized(rounds, 511)
}

/// [`measure_all`] on a `[-span, span]^2` grid — smaller spans back the
/// `exp_all --quick` CI smoke mode.
pub fn measure_all_sized(rounds: u32, span: i64) -> Vec<ThroughputRow> {
    let seq = EvalConfig::with_threads(1);
    let par = EvalConfig::default().seq_threshold(0);
    let threads = par.resolved_threads();
    let g = Grid::hypercube(2, -span..=span);
    let tuples = g.len();
    let policy = Allow::new(2, [2]);
    // One checker's row: `run` sweeps the grid under the configuration
    // it is given.
    let row = |checker, run: &dyn Fn(&EvalConfig)| {
        run(&seq);
        run(&par);
        let (par_secs, seq_secs, speedup) = paired_rounds(rounds, || run(&par), || run(&seq));
        ThroughputRow {
            checker,
            tuples,
            threads,
            rounds,
            seq_secs,
            par_secs,
            speedup,
        }
    };

    let monitored = parse("program(2) { y := x2; if x2 == 0 { y := 0; } }").unwrap();
    let m = Surveillance::new(FlowchartProgram::new(monitored), IndexSet::single(2));
    let branchy = parse("program(2) { if x2 == 0 { y := x1; } else { y := x2; } }").unwrap();
    let p = FlowchartProgram::new(branchy);
    let a = parse("program(2) { y := x1 * 2 + x2; }").unwrap();
    let b = parse("program(2) { y := x1 + x2 + x1; }").unwrap();
    vec![
        row("check_soundness", &|cfg| {
            std::hint::black_box(check_soundness_with(&m, &policy, &g, false, cfg));
        }),
        row("maximal_build", &|cfg| {
            std::hint::black_box(MaximalMechanism::build_with(&p, &policy, &g, cfg));
        }),
        row("equiv", &|cfg| {
            let _ = std::hint::black_box(equivalent_on_with(&a, &b, &g, 1000, cfg));
        }),
    ]
}

/// Serializes rows as a JSON array (no external dependencies).
pub fn to_json(rows: &[ThroughputRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"checker\": \"{}\", \"tuples\": {}, \"threads\": {}, \
             \"rounds\": {}, \"seq_secs\": {:.6}, \"par_secs\": {:.6}, \
             \"seq_tuples_per_sec\": {:.1}, \"par_tuples_per_sec\": {:.1}, \
             \"speedup\": {:.3}}}{}\n",
            r.checker,
            r.tuples,
            r.threads,
            r.rounds,
            r.seq_secs,
            r.par_secs,
            r.seq_tuples_per_sec(),
            r.par_tuples_per_sec(),
            r.speedup,
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
        let rows = vec![ThroughputRow {
            checker: "check_soundness",
            tuples: 1_000_000,
            threads: 4,
            rounds: 5,
            seq_secs: 2.0,
            par_secs: 1.0,
            speedup: 2.0,
        }];
        let j = to_json(&rows);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"speedup\": 2.000"));
        assert!(j.contains("\"seq_tuples_per_sec\": 500000.0"));
    }

    #[test]
    fn rows_report_paired_medians() {
        let rows = measure_all_sized(3, 8);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!((r.tuples, r.rounds), (289, 3), "{r:?}");
            assert!(
                r.seq_secs > 0.0 && r.par_secs > 0.0 && r.speedup > 0.0,
                "{r:?}"
            );
            assert!((r.par_tuples_per_sec() * r.par_secs - 289.0).abs() < 1e-6);
        }
    }
}
