//! Typed-pipeline overhead: the `enf_policy` embedding (arity check,
//! `Tainted` → monitored run → `Verified` mint → capability-gated `Sink`
//! release, with two hash-chained audit records per run) against the raw
//! engine call it wraps.
//!
//! The acceptance bar is ≤5% overhead on monitor-dominated runs: the
//! typed surface adds bookkeeping per *run*, not per *step*, so a loop of
//! a few hundred thousand steps must price the engine, not the wrapper.
//! Both paths are timed in paired rounds, as `checkpoint_overhead` is
//! (the median of per-round ratios, sides alternated), so host drift
//! cancels within a round instead of deciding the bar.
//! `exp_all` records the rows in the `"audit"` field of
//! `BENCH_results.json`; the matching Criterion group lives in
//! `benches/audit.rs` (`audit_overhead`).
//!
//! [`measure_append`] prices the durable trail itself: one
//! `AuditLog::note` on a file-backed `EveryRecord` trail resumed at 10²
//! to 10⁵ records, and how much the file grows per append. The trail is
//! append-only, so the bar is a flat cost: the slowest size within 2× of
//! the fastest. `exp_all` records these rows in the `"audit_append"`
//! field.

use crate::checkpoint::paired_rounds;
use enf_core::{IndexSet, V};
use enf_flowchart::bytecode::Compiled;
use enf_flowchart::generate::loop_program;
use enf_policy::{AuditLog, Capability, Enforcer, FlushPolicy, RunVerdict, Sink, Tainted};
use enf_surveillance::dynamic::SurvConfig;
use enf_surveillance::vm::run_surveillance_vm;
use std::time::Instant;

/// One loop-size's raw-engine-vs-typed-pipeline measurement.
#[derive(Clone, Debug)]
pub struct AuditRow {
    /// Loop iteration count of the subject program.
    pub iters: V,
    /// Executed boxes per monitored run.
    pub steps: u64,
    /// Paired rounds timed; each times one run of each side.
    pub rounds: u32,
    /// Raw `run_surveillance_vm` wall-clock seconds, median run.
    pub raw_secs: f64,
    /// Typed `Enforcer::surveil` + `Sink::release` wall-clock seconds
    /// (audit records included), median run.
    pub typed_secs: f64,
    /// Fractional overhead of the typed pipeline over the raw call: the
    /// median of the per-round ratios, less one (0.05 = 5%).
    pub overhead: f64,
}

const FUEL: u64 = 100_000_000;

/// Measures the typed-pipeline overhead at the publication sizes.
pub fn measure(rounds: u32) -> Vec<AuditRow> {
    measure_sized(rounds, &[10_000, 100_000])
}

/// [`measure`] at caller-chosen loop sizes — short lists back the
/// `exp_all --quick` CI smoke mode.
pub fn measure_sized(rounds: u32, iter_counts: &[V]) -> Vec<AuditRow> {
    let allow = IndexSet::single(1);
    let input = vec![0];
    let mut rows = Vec::new();
    for &iters in iter_counts {
        let fc = loop_program(iters, 4);
        let cfg = SurvConfig::surveillance(allow).with_fuel(FUEL);

        // The raw path is exactly what Enforcer::surveil runs inside:
        // compile, then execute under the surveillance monitor.
        let raw = || run_surveillance_vm(&Compiled::new(&fc), &input, &cfg);
        let steps = match raw() {
            enf_surveillance::dynamic::SurvOutcome::Accepted { steps, .. } => steps,
            other => unreachable!("loop program accepted: {other:?}"),
        };

        let enforcer = Enforcer::new(fc.clone(), allow)
            .expect("valid policy")
            .with_fuel(FUEL);
        let mut log = AuditLog::in_memory();
        let mut cap = Some(Capability::issue("bench", &mut log).expect("issue"));
        let mut typed = || {
            let verdict = enforcer
                .surveil(Tainted::new(input.clone()), &mut log)
                .expect("arity matches");
            let v = match verdict {
                RunVerdict::Released(v) => v,
                RunVerdict::Refused(r) => unreachable!("loop program accepted: {r:?}"),
            };
            let mut sink = Sink::new(cap.take().expect("capability"), &mut log);
            let y = sink.release(v).expect("release");
            cap = Some(sink.into_capability());
            y
        };
        // One untimed run warms the typed path as `steps` warmed the raw.
        typed();
        let (raw_secs, typed_secs, ratio) = paired_rounds(rounds, raw, &mut typed);
        rows.push(AuditRow {
            iters,
            steps,
            rounds,
            raw_secs,
            typed_secs,
            overhead: ratio - 1.0,
        });
    }
    rows
}

/// Serializes rows as a JSON array (no external dependencies).
pub fn to_json(rows: &[AuditRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"iters\": {}, \"steps\": {}, \"rounds\": {}, \
             \"raw_secs\": {:.9}, \"typed_secs\": {:.9}, \
             \"overhead\": {:.4}}}{}\n",
            r.iters,
            r.steps,
            r.rounds,
            r.raw_secs,
            r.typed_secs,
            r.overhead,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push(']');
    s
}

/// One trail length's durable-append measurement.
#[derive(Clone, Debug)]
pub struct AppendRow {
    /// Records in the trail when the timed appends begin.
    pub records: usize,
    /// Appends timed.
    pub appends: usize,
    /// Median wall-clock microseconds of one `AuditLog::note`.
    pub append_us_p50: f64,
    /// Bytes the trail file grew by, per append.
    pub bytes_per_append: f64,
}

/// Times `appends` calls of `AuditLog::note` on an `EveryRecord` trail
/// resumed at each of `sizes` records. The fixture trails are written
/// with one `Manual` persist into a private temporary directory, which
/// is removed afterwards.
pub fn measure_append(sizes: &[usize], appends: usize) -> Vec<AppendRow> {
    let dir = std::env::temp_dir().join(format!("enf-bench-audit-append-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let rows = sizes
        .iter()
        .map(|&records| {
            let path = dir.join(format!("n{records}.jsonl"));
            let mut fixture =
                AuditLog::create(&path, FlushPolicy::Manual).expect("create fixture trail");
            for k in 0..records {
                fixture.note(&format!("fixture record {k}")).expect("note");
            }
            fixture.persist().expect("persist fixture trail");
            drop(fixture);
            let mut log = AuditLog::resume(&path, FlushPolicy::EveryRecord).expect("resume");
            let file_len = || std::fs::metadata(&path).expect("stat trail").len();
            let before = file_len();
            let mut us: Vec<f64> = (0..appends)
                .map(|_| {
                    let start = Instant::now();
                    log.note("timed append").expect("append");
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            let grown = file_len() - before;
            us.sort_by(f64::total_cmp);
            AppendRow {
                records,
                appends,
                append_us_p50: us[appends / 2],
                bytes_per_append: grown as f64 / appends as f64,
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

/// The slowest size's median append over the fastest's; the bar is ≤ 2.
pub fn append_spread(rows: &[AppendRow]) -> f64 {
    let medians = rows.iter().map(|r| r.append_us_p50);
    let slowest = medians.clone().fold(0.0, f64::max);
    let fastest = medians.fold(f64::INFINITY, f64::min);
    slowest / fastest.max(1e-12)
}

/// Serializes append rows as a JSON array.
pub fn append_to_json(rows: &[AppendRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"records\": {}, \"appends\": {}, \"append_us_p50\": {:.3}, \
             \"bytes_per_append\": {:.1}}}{}\n",
            r.records,
            r.appends,
            r.append_us_p50,
            r.bytes_per_append,
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
    fn durable_append_grows_the_file_by_one_record() {
        let rows = measure_append(&[10, 100], 5);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.append_us_p50 > 0.0);
            // One ~150-byte record per append, not a rewritten trail.
            assert!(
                (100.0..400.0).contains(&r.bytes_per_append),
                "{} bytes per append at {} records",
                r.bytes_per_append,
                r.records
            );
        }
        assert!(append_spread(&rows) >= 1.0);
        assert!(append_to_json(&rows).contains("\"records\": 100"));
    }

    #[test]
    fn json_shape() {
        let rows = vec![AuditRow {
            iters: 100,
            steps: 703,
            rounds: 3,
            raw_secs: 0.001,
            typed_secs: 0.00102,
            overhead: 0.02,
        }];
        let j = to_json(&rows);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"iters\": 100"));
        assert!(j.contains("\"overhead\": 0.0200"));
    }

    #[test]
    fn typed_pipeline_measures_and_releases() {
        let rows = measure_sized(3, &[100]);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].steps > 100);
        assert!(rows[0].raw_secs > 0.0 && rows[0].typed_secs > 0.0);
    }
}
