//! Static certification cost as programs grow: nanoseconds per flowchart
//! node for the taint, value-refined and relational certifiers on
//! generated arity-4 programs of 15 to 960 statements (about 19 to 640
//! nodes). A certifier whose work is linear in the program keeps the
//! figure flat, so the bar is that the largest size costs within 2× per
//! node of the smallest, for each analysis. `exp_all` serializes the rows
//! into the `"certify_scaling"` field of `BENCH_results.json`.

use enf_core::IndexSet;
use enf_flowchart::generate::{random_flowchart, GenConfig};
use enf_static::certify::{certify, Analysis};
use std::hint::black_box;
use std::time::Instant;

/// The analyses measured, with their names in the JSON keys, in the order
/// of [`ScalingRow::ns_per_node`].
pub const ANALYSES: [(Analysis, &str); 3] = [
    (Analysis::Surveillance, "surveillance"),
    (Analysis::ValueRefined, "value_refined"),
    (Analysis::Relational, "relational"),
];

/// Programs certified per size in each round.
const PROGRAMS: u64 = 16;

/// One program size's certification cost.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Statements asked of the generator.
    pub stmts: usize,
    /// Mean flowchart nodes per program.
    pub nodes: f64,
    /// Nanoseconds per node under each of [`ANALYSES`]: the best round's
    /// time to certify every program once, over their total node count.
    pub ns_per_node: [f64; 3],
}

/// The `exp_all` sizes: 15, 60, 240 and 960 statements, best of five
/// rounds.
pub fn measure() -> Vec<ScalingRow> {
    measure_sized(&[15, 60, 240, 960], 5)
}

/// [`measure`] at caller-chosen statement counts and round counts; short
/// lists back the `exp_all --quick` CI smoke mode.
pub fn measure_sized(sizes: &[usize], rounds: usize) -> Vec<ScalingRow> {
    let allowed = IndexSet::single(1);
    sizes
        .iter()
        .map(|&stmts| {
            let cfg = GenConfig {
                arity: 4,
                stmts,
                ..GenConfig::default()
            };
            let programs: Vec<_> = (0..PROGRAMS).map(|s| random_flowchart(s, &cfg)).collect();
            let nodes: usize = programs.iter().map(|fc| fc.len()).sum();
            let ns_per_node = ANALYSES.map(|(analysis, _)| {
                let round = || {
                    let start = Instant::now();
                    for fc in &programs {
                        black_box(certify(fc, allowed, analysis));
                    }
                    start.elapsed().as_nanos() as f64
                };
                // One untimed round first, so the first timed one does not
                // pay for cold caches.
                round();
                let best = (0..rounds.max(1))
                    .map(|_| round())
                    .fold(f64::INFINITY, f64::min);
                best / nodes as f64
            });
            ScalingRow {
                stmts,
                nodes: nodes as f64 / PROGRAMS as f64,
                ns_per_node,
            }
        })
        .collect()
}

/// Per analysis, the largest size's ns per node over the smallest's: the
/// figure the bar (≤ 2) judges.
pub fn growth(rows: &[ScalingRow]) -> [f64; 3] {
    let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
        return [f64::NAN; 3];
    };
    [0, 1, 2].map(|a| last.ns_per_node[a] / first.ns_per_node[a])
}

/// Serializes rows as a JSON array (no external dependencies).
pub fn to_json(rows: &[ScalingRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"stmts\": {}, \"nodes\": {:.1}",
            r.stmts, r.nodes
        ));
        for ((_, name), ns) in ANALYSES.iter().zip(r.ns_per_node) {
            s.push_str(&format!(", \"{name}_ns_per_node\": {ns:.1}"));
        }
        s.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let rows = vec![ScalingRow {
            stmts: 15,
            nodes: 19.5,
            ns_per_node: [1000.0, 1800.0, 2300.0],
        }];
        let j = to_json(&rows);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"stmts\": 15, \"nodes\": 19.5"), "{j}");
        assert!(j.contains("\"surveillance_ns_per_node\": 1000.0"), "{j}");
        assert!(j.contains("\"value_refined_ns_per_node\": 1800.0"), "{j}");
        assert!(j.contains("\"relational_ns_per_node\": 2300.0"), "{j}");
    }

    #[test]
    fn larger_sizes_have_more_nodes() {
        let rows = measure_sized(&[15, 60], 1);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].nodes < rows[1].nodes, "{rows:?}");
        assert!(rows
            .iter()
            .all(|r| r.ns_per_node.iter().all(|ns| *ns > 0.0)));
        assert!(growth(&rows).iter().all(|g| g.is_finite()));
    }
}
