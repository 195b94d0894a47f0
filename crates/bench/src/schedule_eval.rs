//! Dynamic-policy certification cost: the schedule dataflow fixed point
//! vs the exhaustive schedule-enumeration oracle it replaces.
//!
//! The certifier runs once over the CFG, tracking the set of reachable
//! policy states; the oracle re-sweeps the whole input grid under every
//! bound schedule, i.e. `O((2^k)^slots · |grid|)` work. Each row measures
//! both on the same schedule-sound program (so the oracle never exits
//! early) at a growing slot count, each column the median of five runs
//! after an untimed one. `exp_all` serializes the rows into the
//! `"schedule"` field of `BENCH_results.json`.

use crate::relational::time;
use enf_core::{check_soundness_scheduled, Allow, EvalConfig, Grid, IndexSet, ScheduledReport};
use enf_flowchart::parse;
use enf_flowchart::program::FlowchartProgram;
use enf_flowchart::Flowchart;
use enf_static::schedule::certify_dynamic;

/// One slot-count's analysis-vs-oracle measurement.
#[derive(Clone, Debug)]
pub struct ScheduleRow {
    /// Number of free policy slots the program references.
    pub slots: usize,
    /// Schedules the oracle enumerated (`(2^arity)^slots`).
    pub schedules: usize,
    /// Inputs swept per schedule.
    pub inputs: usize,
    /// Schedule dataflow certification wall-clock seconds, median
    /// (schedule-count independent).
    pub analysis_secs: f64,
    /// Exhaustive bounded-schedule sweep wall-clock seconds, median.
    pub oracle_secs: f64,
}

impl ScheduleRow {
    /// How many times cheaper the static certificate is than the sweep.
    pub fn ratio(&self) -> f64 {
        self.oracle_secs / self.analysis_secs.max(1e-12)
    }
}

/// A schedule-sound two-input program referencing `slots` free policy
/// slots: the mixed register is never released, so the oracle must sweep
/// every schedule to the end — its worst case, and exactly the work the
/// one-off certificate makes redundant.
pub fn slot_chain(slots: usize) -> Flowchart {
    let mut src = String::from("program(2) {\n    r1 := x1 + x2;\n");
    for i in 1..=slots {
        src.push_str(&format!("    setpolicy p{i};\n"));
    }
    src.push_str("    y := 0;\n}\n");
    parse(&src).expect("slot_chain source parses")
}

/// Measures dynamic-policy certification against the exhaustive
/// schedule sweep at growing slot counts.
pub fn measure() -> Vec<ScheduleRow> {
    measure_sized(&[1, 2, 3, 4])
}

/// [`measure`] at caller-chosen slot counts — short lists back the
/// `exp_all --quick` CI smoke mode.
pub fn measure_sized(slot_counts: &[usize]) -> Vec<ScheduleRow> {
    let cfg = EvalConfig::default();
    let grid = Grid::hypercube(2, -2..=2);
    let initial = Allow::none(2);
    let mut rows = Vec::new();
    for &slots in slot_counts {
        let fc = slot_chain(slots);
        let analysis_secs = time(|| certify_dynamic(&fc, IndexSet::EMPTY));
        let subject = FlowchartProgram::new(fc);
        let mut report = None;
        let oracle_secs = time(|| {
            report = Some(check_soundness_scheduled(
                &subject, &initial, &grid, &cfg, None,
            ));
        });
        let (schedules, inputs) = match report.expect("oracle ran") {
            ScheduledReport::Sound { schedules, inputs } => (schedules, inputs),
            ScheduledReport::Unsound { .. } => {
                unreachable!("slot_chain is sound under every schedule")
            }
        };
        rows.push(ScheduleRow {
            slots,
            schedules,
            inputs,
            analysis_secs,
            oracle_secs,
        });
    }
    rows
}

/// Serializes rows as a JSON array (no external dependencies).
pub fn to_json(rows: &[ScheduleRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"slots\": {}, \"schedules\": {}, \"inputs\": {}, \
             \"analysis_secs\": {:.9}, \"oracle_secs\": {:.9}, \
             \"ratio\": {:.1}}}{}\n",
            r.slots,
            r.schedules,
            r.inputs,
            r.analysis_secs,
            r.oracle_secs,
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
    use enf_static::certify::Certification;

    #[test]
    fn json_shape() {
        let rows = vec![ScheduleRow {
            slots: 2,
            schedules: 16,
            inputs: 25,
            analysis_secs: 0.001,
            oracle_secs: 0.1,
        }];
        let j = to_json(&rows);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"slots\": 2"));
        assert!(j.contains("\"schedules\": 16"));
        assert!(j.contains("\"ratio\": 100.0"));
    }

    #[test]
    fn oracle_cost_grows_exponentially_in_slots() {
        let rows = measure_sized(&[1, 2]);
        assert_eq!(rows.len(), 2);
        // (2^2)^1 = 4 and (2^2)^2 = 16 schedules over a 5^2 grid.
        assert_eq!(rows[0].schedules, 4);
        assert_eq!(rows[1].schedules, 16);
        assert!(rows.iter().all(|r| r.inputs == 25));
        assert!(rows.iter().all(|r| r.oracle_secs > 0.0));
    }

    #[test]
    fn slot_chain_is_certified_dynamically() {
        for slots in 1..=3 {
            let fc = slot_chain(slots);
            assert_eq!(
                certify_dynamic(&fc, IndexSet::EMPTY),
                Certification::Certified
            );
        }
    }
}
