//! Relational verification cost: the self-composition fixed point vs the
//! exhaustive refutation sweep it makes redundant.
//!
//! The analysis runs once over the CFG; the refuter runs the compiled
//! program once per input of a `[-S, S]^k` grid until a policy class
//! shows two outcomes, i.e. `O(|grid|)` work. Each row measures both on
//! the same sound program (so the sweep covers the whole grid, as every
//! refutation that finds no leak does) at a growing span. `exp_all`
//! serializes the rows into the `"relational"` field of
//! `BENCH_results.json`.

use enf_core::{CancelToken, EvalConfig, Grid, IndexSet, InputDomain};
use enf_flowchart::parse;
use enf_static::refute::refute;
use enf_static::relational::analyze_relational;
use std::time::Instant;

/// One span's analysis-vs-sweep measurement.
#[derive(Clone, Debug)]
pub struct RelationalRow {
    /// Grid half-width `S` (the grid is `[-S, S]^2`).
    pub span: i64,
    /// Input count swept by the refuter (`|grid|`).
    pub inputs: usize,
    /// Relational fixed-point wall-clock seconds (grid-independent).
    pub analysis_secs: f64,
    /// Refutation-sweep wall-clock seconds.
    pub sweep_secs: f64,
}

impl RelationalRow {
    /// How many times cheaper the static proof is than the sweep.
    pub fn ratio(&self) -> f64 {
        self.sweep_secs / self.analysis_secs.max(1e-12)
    }
}

/// Timed repetitions per column; a row reports their median.
const REPS: usize = 5;

/// The median wall-clock seconds of [`REPS`] runs of `f`, after one
/// untimed run, so that no column measures a cold start.
pub(crate) fn time<R>(mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[REPS / 2]
}

/// Measures the relational fixed point against the refutation sweep at
/// growing grid spans: each column is the median of five warm runs.
pub fn measure() -> Vec<RelationalRow> {
    measure_sized(&[1, 2, 4, 8])
}

/// [`measure`] at caller-chosen spans — short lists back the
/// `exp_all --quick` CI smoke mode.
pub fn measure_sized(spans: &[i64]) -> Vec<RelationalRow> {
    // Sound for allow(2): the refuter sweeps every input and finds no
    // pair, exactly the work the one-off proof makes redundant.
    let fc = parse("program(2) { y := x2 * x2 + x2; }").unwrap();
    let allowed = IndexSet::single(2);
    let cfg = EvalConfig::default();
    let mut rows = Vec::new();
    for &span in spans {
        let g = Grid::hypercube(2, -span..=span);
        rows.push(RelationalRow {
            span,
            inputs: g.len(),
            analysis_secs: time(|| analyze_relational(&fc)),
            sweep_secs: time(|| refute(&fc, allowed, &g, 10_000, &cfg, &CancelToken::new())),
        });
    }
    rows
}

/// Serializes rows as a JSON array (no external dependencies).
pub fn to_json(rows: &[RelationalRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"span\": {}, \"inputs\": {}, \"analysis_secs\": {:.9}, \
             \"sweep_secs\": {:.9}, \"ratio\": {:.1}}}{}\n",
            r.span,
            r.inputs,
            r.analysis_secs,
            r.sweep_secs,
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
        let rows = vec![RelationalRow {
            span: 3,
            inputs: 49,
            analysis_secs: 0.001,
            sweep_secs: 0.1,
        }];
        let j = to_json(&rows);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"span\": 3"));
        assert!(j.contains("\"inputs\": 49"));
        assert!(j.contains("\"ratio\": 100.0"));
    }

    #[test]
    fn sweep_cost_grows_with_the_grid() {
        let rows = measure();
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!(w[0].inputs < w[1].inputs);
        }
        // The program is sound, so every measurement covered the full grid.
        assert!(rows.iter().all(|r| r.sweep_secs > 0.0));
    }
}
