//! Checkpoint-overhead measurement: the resilient, resumable soundness
//! sweep against the plain guarded sweep it wraps.
//!
//! The fault-tolerance PR added `check_soundness_checkpointed` — a
//! block-sequential sweep that serializes its covered frontier after
//! every block so a killed run can resume. The acceptance bar is that a
//! checkpointed sweep with a production block size costs at most **3%**
//! more wall clock than `try_check_soundness_with` on the same domain;
//! [`measure`] times both and `exp_all` records the rows in
//! `BENCH_results.json` (`"checkpoint_overhead"`). The matching Criterion
//! group lives in `benches/checkpoint.rs` (`checkpoint_overhead`).
//!
//! Each domain gets a row per partition: `view` hides the `Allow` policy's
//! projection behind an `FnPolicy`, so both sweeps hash views; `class`
//! passes the policy itself, so both number classes. The bar holds on
//! each, and a `class` row's `checkpointed_secs` against the `view` row's
//! `plain_secs` prices what resumable sweeps gained from the class
//! partition.

use enf_core::checkpoint::{check_soundness_checkpointed, PlainCodec};
use enf_core::soundness::try_check_soundness_with;
use enf_core::{
    Allow, CancelToken, EvalConfig, FnMechanism, FnPolicy, Grid, InputDomain, MechOutput, Policy,
    Verdict, V,
};
use std::time::Instant;

/// One plain-vs-checkpointed measurement.
#[derive(Clone, Debug)]
pub struct CheckpointRow {
    /// Input domain description.
    pub domain: String,
    /// How both sweeps partition the domain: `"view"` or `"class"`.
    pub partition: &'static str,
    /// Tuples swept.
    pub tuples: usize,
    /// Checkpoint block size (one serialized checkpoint per block).
    pub block: usize,
    /// Plain guarded sweep, median wall-clock seconds.
    pub plain_secs: f64,
    /// Checkpointed sweep (serializing every block), median wall-clock
    /// seconds.
    pub checkpointed_secs: f64,
    /// Fractional overhead of checkpointing: median of the per-round
    /// paired ratios (0.03 = 3% slower; the acceptance bar). Paired
    /// ratios, not a ratio of medians: each round times both sweeps back
    /// to back, so drifting machine load cancels within the round.
    pub overhead: f64,
}

fn timed<R>(f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Paired comparison of two competitors over `rounds` interleaved rounds.
/// Each round times both back to back (order alternating between rounds),
/// so machine noise — frequency scaling, co-tenants, scheduler bursts —
/// hits both sweeps alike within a round and cancels in that round's
/// ratio; the median over rounds then discards the rounds a burst still
/// skewed. Returns `(median_a, median_b, median of per-round b/a)`.
pub(crate) fn paired_rounds<RA, RB>(
    rounds: u32,
    mut a: impl FnMut() -> RA,
    mut b: impl FnMut() -> RB,
) -> (f64, f64, f64) {
    let (mut times_a, mut times_b, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        let (ta, tb) = if round % 2 == 0 {
            let ta = timed(&mut a);
            let tb = timed(&mut b);
            (ta, tb)
        } else {
            let tb = timed(&mut b);
            let ta = timed(&mut a);
            (ta, tb)
        };
        ratios.push(tb / ta.max(1e-12));
        times_a.push(ta);
        times_b.push(tb);
    }
    (median(times_a), median(times_b), median(ratios))
}

/// Times the plain guarded sweep against the checkpointed one on square
/// grids, paired interleaved rounds per engine. The subject is a sound
/// projection mechanism, so both sweeps cover the whole domain (the worst
/// case for checkpoint volume: every class survives to every
/// serialization).
pub fn measure(rounds: u32) -> Vec<CheckpointRow> {
    measure_sized(rounds, &[512, 1024])
}

/// [`measure`] on caller-chosen grid half-widths — small halves back the
/// `exp_all --quick` CI smoke mode.
pub fn measure_sized(rounds: u32, halves: &[i64]) -> Vec<CheckpointRow> {
    let mut rows = Vec::new();
    for &half in halves {
        let grid = Grid::hypercube(2, -half..=half);
        let policy = Allow::new(2, [1]);
        let views = {
            let policy = policy.clone();
            FnPolicy::new(2, move |a: &[V]| policy.filter(a))
        };
        rows.push(measure_one(rounds, &grid, "view", &views));
        rows.push(measure_one(rounds, &grid, "class", &policy));
    }
    rows
}

/// One paired plain-vs-checkpointed row on `grid` under `policy`.
fn measure_one<P>(rounds: u32, grid: &Grid, partition: &'static str, policy: &P) -> CheckpointRow
where
    P: Policy<View = Vec<V>> + Sync,
{
    let mech = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0]));
    let config = EvalConfig::default();
    let ctl = CancelToken::new();
    // One checkpoint per 1M inputs. Blocks must stay comfortably above
    // the engine's sequential threshold (16384) or every block runs
    // single-threaded while the plain sweep parallelizes, and large
    // enough to amortize both the per-block thread-scope barrier and
    // the per-checkpoint re-serialization of the full class map —
    // each sink call is O(classes), the dominant checkpoint cost on
    // subjects as cheap as this projection.
    let block = 1 << 20;
    // Warm both paths before timing.
    let warm =
        try_check_soundness_with(&mech, policy, grid, false, &config, &ctl).expect("no faults");
    assert_eq!(
        warm.verdict,
        Verdict::Confirmed,
        "benchmark subject drifted"
    );
    let (plain_secs, checkpointed_secs, ratio) = paired_rounds(
        rounds,
        || try_check_soundness_with(&mech, policy, grid, false, &config, &ctl),
        || {
            check_soundness_checkpointed(
                &mech,
                policy,
                grid,
                false,
                &config,
                &ctl,
                0xbe7c,
                block,
                None,
                // Price the full serialization, not the disk: render the
                // checkpoint document exactly as the CLI would persist it.
                &mut |ckpt| {
                    std::hint::black_box(ckpt.to_json(&PlainCodec).render());
                    Ok(())
                },
            )
        },
    );
    let side = grid.ranges()[0].clone().count();
    CheckpointRow {
        domain: format!("grid_{side}x{side}"),
        partition,
        tuples: grid.len(),
        block,
        plain_secs,
        checkpointed_secs,
        overhead: ratio - 1.0,
    }
}

/// Serializes rows as a JSON array (no external dependencies).
pub fn to_json(rows: &[CheckpointRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"domain\": \"{}\", \"partition\": \"{}\", \"tuples\": {}, \"block\": {}, \
             \"plain_secs\": {:.9}, \"checkpointed_secs\": {:.9}, \"overhead\": {:.4}}}{}\n",
            r.domain,
            r.partition,
            r.tuples,
            r.block,
            r.plain_secs,
            r.checkpointed_secs,
            r.overhead,
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
    fn overhead_math_and_json_shape() {
        let rows = vec![CheckpointRow {
            domain: "grid_3x3".to_string(),
            partition: "class",
            tuples: 9,
            block: 4,
            plain_secs: 1.0,
            checkpointed_secs: 1.03,
            overhead: 0.03,
        }];
        let j = to_json(&rows);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"overhead\": 0.0300"), "{j}");
        assert!(j.contains("\"block\": 4"), "{j}");
        assert!(j.contains("\"partition\": \"class\""), "{j}");
    }

    #[test]
    fn measured_sweeps_agree() {
        // A single fast round to keep the differential honest in tests.
        let rows = measure(1);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.plain_secs > 0.0 && r.checkpointed_secs > 0.0);
        }
    }
}
