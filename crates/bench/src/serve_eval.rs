//! Service load harness: enforcement-as-a-service throughput, with and
//! without a deterministic adversary.
//!
//! Two scenarios run the same mixed workload (surveil / check / refute /
//! certify, all four server paths) against an in-process server:
//!
//! * `direct` — a plain TCP client, no faults: the service's clean
//!   throughput ceiling.
//! * `chaos`  — the same jobs through the fault-injecting proxy
//!   ([`enf_serve::ProxyHandle`], fixed [`FaultPlan`] seed) while every
//!   eighth job is preceded by a one-shot kill directive: the price of
//!   riding out dropped, delayed, and truncated frames plus quarantined
//!   jobs with retries.
//!
//! The interesting number is not the absolute rate but the ratio: how
//! much throughput the fault model costs when every fault actually
//! fires. `exp_all` serializes the rows into the `"serve"` field of
//! `BENCH_results.json`.

use enf_core::chaos::{silence_chaos_panics, FaultPlan};
use enf_serve::{
    parse_allow, Client, ClientConfig, Op, ProxyHandle, Request, ServerConfig, ServerHandle,
};
use std::time::{Duration, Instant};

const SOUND: &str = "program(2) { y := x1 * 2; }";
const LEAKY: &str = "program(2) { y := x2; }";

/// The fixed adversary seed: same faults in every run.
const BENCH_SEED: u64 = 0xbadc_0ffe_5e12_ed01;

/// One scenario's load measurement.
#[derive(Clone, Debug)]
pub struct ServeRow {
    /// `direct` or `chaos`.
    pub scenario: String,
    /// Jobs submitted (all must succeed).
    pub jobs: usize,
    /// Wall-clock seconds for the whole workload.
    pub secs: f64,
    /// Replies the server counted as served.
    pub served: u64,
    /// Worker panics contained (chaos scenario only).
    pub quarantined: u64,
    /// Replies replayed for idempotent retries.
    pub replayed: u64,
    /// Sweep verdicts answered from the cache.
    pub cache_hits: u64,
}

impl ServeRow {
    /// Completed jobs per second.
    pub fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.secs.max(1e-12)
    }
}

fn request(i: usize, chaos_kill: bool) -> Request {
    let op = match i % 4 {
        0 => Op::Surveil,
        1 => Op::Check,
        2 => Op::Refute,
        _ => Op::Certify,
    };
    let program = if op == Op::Refute { LEAKY } else { SOUND };
    Request {
        op,
        tenant: format!("tenant-{}", i % 3),
        job: format!("bench-{i}"),
        program: program.to_string(),
        allow: parse_allow("1").expect("static allow spec"),
        input: match op {
            Op::Surveil | Op::Certify => vec![i as i64, 2 * i as i64],
            _ => Vec::new(),
        },
        span: 2,
        deadline_ms: None,
        budget: None,
        block: 64,
        fuel: 0,
        chaos: chaos_kill.then(|| "panic".to_string()),
    }
}

fn drive(client: &Client, kill_shot: Option<&Client>, jobs: usize) -> usize {
    let mut completed = 0;
    for i in 0..jobs {
        // In the chaos scenario every eighth job is first submitted with a
        // one-shot kill directive (the job panics, exactly once), then
        // submitted for real — quarantine cost included in the clock.
        if let Some(one_shot) = kill_shot.filter(|_| i % 8 == 0) {
            // The one-shot client goes straight at the server (no proxy,
            // no retries), so each directive quarantines exactly one
            // job; the panicked frame comes back as a client error.
            let _ = one_shot.request(&request(i, true));
        }
        let reply = client
            .request(&request(i, false))
            .expect("bench job must complete");
        assert!(
            enf_serve::reply_is_ok(&reply),
            "bench job failed: {reply:?}"
        );
        completed += 1;
    }
    completed
}

/// Measures both scenarios at the default workload size.
pub fn measure() -> Vec<ServeRow> {
    measure_sized(160)
}

/// [`measure`] at a caller-chosen job count — small counts back the
/// `exp_all --quick` CI smoke mode.
pub fn measure_sized(jobs: usize) -> Vec<ServeRow> {
    silence_chaos_panics();
    let mut rows = Vec::new();

    // Scenario 1: direct, fault-free.
    let server = ServerHandle::spawn(ServerConfig::default()).expect("spawn server");
    let client = Client::with_config(
        &server.addr().to_string(),
        ClientConfig {
            io_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
    );
    let start = Instant::now();
    let completed = drive(&client, None, jobs);
    let secs = start.elapsed().as_secs_f64();
    let stats = server.stop();
    rows.push(ServeRow {
        scenario: "direct".to_string(),
        jobs: completed,
        secs,
        served: stats.served,
        quarantined: stats.quarantined,
        replayed: stats.replayed,
        cache_hits: stats.cache_hits,
    });

    // Scenario 2: the same workload under the adversary.
    let server = ServerHandle::spawn(ServerConfig {
        chaos: true,
        ..ServerConfig::default()
    })
    .expect("spawn chaos server");
    let proxy = ProxyHandle::spawn(server.addr(), FaultPlan::new(BENCH_SEED)).expect("spawn proxy");
    let client = Client::with_config(
        &proxy.addr().to_string(),
        ClientConfig {
            io_timeout: Duration::from_millis(500),
            max_attempts: 20,
            base_backoff_ms: 2,
            max_backoff_ms: 50,
            seed: BENCH_SEED,
            ..ClientConfig::default()
        },
    );
    let kill_shot = Client::with_config(
        &server.addr().to_string(),
        ClientConfig {
            io_timeout: Duration::from_secs(5),
            max_attempts: 1,
            ..ClientConfig::default()
        },
    );
    let start = Instant::now();
    let completed = drive(&client, Some(&kill_shot), jobs);
    let secs = start.elapsed().as_secs_f64();
    let stats = server.stop();
    proxy.stop();
    rows.push(ServeRow {
        scenario: "chaos".to_string(),
        jobs: completed,
        secs,
        served: stats.served,
        quarantined: stats.quarantined,
        replayed: stats.replayed,
        cache_hits: stats.cache_hits,
    });

    rows
}

/// Serializes rows as a JSON array (no external dependencies).
pub fn to_json(rows: &[ServeRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"scenario\": \"{}\", \"jobs\": {}, \"secs\": {:.6}, \
             \"jobs_per_sec\": {:.1}, \"served\": {}, \"quarantined\": {}, \
             \"replayed\": {}, \"cache_hits\": {}}}{}\n",
            r.scenario,
            r.jobs,
            r.secs,
            r.jobs_per_sec(),
            r.served,
            r.quarantined,
            r.replayed,
            r.cache_hits,
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
    fn small_load_runs_both_scenarios() {
        let rows = measure_sized(8);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].scenario, "direct");
        assert_eq!(rows[1].scenario, "chaos");
        for r in &rows {
            assert_eq!(r.jobs, 8);
            assert!(r.secs > 0.0);
            assert!(r.served >= 8);
        }
        assert!(rows[1].quarantined >= 1, "kills must have fired");
        let json = to_json(&rows);
        assert!(json.contains("\"scenario\": \"direct\""));
        assert!(json.contains("\"scenario\": \"chaos\""));
    }
}
