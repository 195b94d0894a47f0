//! Chaos soak: the acceptance gate for enforcement-as-a-service.
//!
//! A fixed-seed [`FaultPlan`] drives a fault-injecting proxy (dropped,
//! delayed, and truncated request frames) and two explicit job kills
//! while a mixed workload from three tenants runs through the service.
//! The run must be *indistinguishable in outcome* from the same workload
//! on a fault-free control server: every reply's decisive fields agree,
//! and every tenant's hash-chained audit trail is byte-identical and
//! intact. Faults may cost retries; they may not cost correctness.

use enf_core::chaos::{silence_chaos_panics, FaultPlan};
use enf_core::Json;
use enf_serve::{
    parse_allow, Client, ClientConfig, Op, ProxyHandle, Request, ServerConfig, ServerHandle,
};
use std::path::PathBuf;
use std::time::Duration;

const SOUND: &str = "program(2) { y := x1 * 2; }";
const LEAKY: &str = "program(2) { y := x2; }";

/// The soak's single source of randomness: same seed, same faults.
const SOAK_SEED: u64 = 0xC4A0_5EED;

const TENANTS: [&str; 3] = ["acme", "globex", "initech"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "enf-soak-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(tenant: &str, job: &str, op: Op, program: &str, input: Vec<i64>) -> Request {
    Request {
        op,
        tenant: tenant.to_string(),
        job: job.to_string(),
        program: program.to_string(),
        allow: parse_allow("1").unwrap(),
        input,
        span: 2,
        deadline_ms: None,
        budget: None,
        block: 64,
        fuel: 0,
        chaos: None,
    }
}

/// The mixed workload, submitted sequentially so both runs perform the
/// same decisive actions in the same order.
fn workload() -> Vec<Request> {
    vec![
        request("acme", "soak-1", Op::Surveil, SOUND, vec![21, 999]),
        request("acme", "soak-2", Op::Certify, SOUND, vec![10, 0]),
        request("acme", "soak-3", Op::Check, SOUND, vec![]),
        request("globex", "soak-4", Op::Check, SOUND, vec![]),
        request("globex", "soak-5", Op::Refute, LEAKY, vec![]),
        request("globex", "soak-6", Op::Surveil, SOUND, vec![-3, 8]),
        request("initech", "soak-7", Op::Surveil, LEAKY, vec![1, 7]),
        request("initech", "soak-8", Op::Certify, LEAKY, vec![]),
        request("initech", "soak-9", Op::Check, LEAKY, vec![]),
        request("initech", "soak-10", Op::Refute, SOUND, vec![]),
    ]
}

/// The reply fields that must be bit-identical between the chaos run and
/// the control run. `checked` is deliberately excluded: a refuting sweep
/// may stop at different prefixes depending on thread interleaving, which
/// is exactly why the audit note records `total`, not `checked`.
const DECISIVE_FIELDS: [&str; 8] = [
    "ok",
    "verdict",
    "value",
    "reason",
    "total",
    "leak",
    "witness_a",
    "witness_b",
];

fn decisive(reply: &Json) -> Vec<(String, String)> {
    DECISIVE_FIELDS
        .iter()
        .filter_map(|name| reply.get(name).map(|v| (name.to_string(), v.render())))
        .collect()
}

/// Two passes over the workload: the second is pure replay (same job
/// keys), so under chaos it proves idempotency holds while frames drop.
fn run_workload(client: &Client) -> Vec<Vec<(String, String)>> {
    let jobs = workload();
    jobs.iter()
        .chain(jobs.iter())
        .map(|req| decisive(&client.request(req).unwrap()))
        .collect()
}

fn tenant_trails(state: &std::path::Path) -> Vec<(String, String)> {
    TENANTS
        .iter()
        .map(|t| {
            let trail = std::fs::read_to_string(state.join(t).join("audit.log")).unwrap();
            (t.to_string(), trail)
        })
        .collect()
}

#[test]
fn chaos_soak_is_outcome_identical_to_fault_free_control() {
    silence_chaos_panics();

    // Control: no proxy, no chaos, a plain client.
    let control_state = temp_dir("control");
    let control = ServerHandle::spawn(ServerConfig {
        state_dir: Some(control_state.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let control_client = Client::with_config(
        &control.addr().to_string(),
        ClientConfig {
            io_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
    );
    let control_replies = run_workload(&control_client);
    let control_stats = control.stop();
    assert!(!control_stats.degraded(), "control: {control_stats:?}");
    let control_trails = tenant_trails(&control_state);

    // Chaos: the same workload through a fault-injecting proxy, against a
    // server whose jobs can be killed by directive.
    let chaos_state = temp_dir("chaos");
    let server = ServerHandle::spawn(ServerConfig {
        state_dir: Some(chaos_state.clone()),
        chaos: true,
        ..ServerConfig::default()
    })
    .unwrap();
    let proxy = ProxyHandle::spawn(server.addr(), FaultPlan::new(SOAK_SEED)).unwrap();
    let chaos_client = Client::with_config(
        &proxy.addr().to_string(),
        ClientConfig {
            // Short read timeout: a dropped frame costs one timeout, not
            // the default ten seconds. Plenty of attempts to ride out the
            // plan's ~1-in-4 frame fault rate.
            io_timeout: Duration::from_millis(500),
            max_attempts: 20,
            base_backoff_ms: 5,
            max_backoff_ms: 100,
            seed: SOAK_SEED,
            ..ClientConfig::default()
        },
    );

    // Two deterministic job kills mid-soak, observed raw (a retrying
    // client would consume the panic frame). The claim is released on the
    // quarantine, so these jobs leave no trace in any trail.
    let kill_a = {
        let mut r = request("acme", "kill-a", Op::Check, SOUND, vec![]);
        r.chaos = Some("panic".to_string());
        r
    };
    let kill_b = {
        let mut r = request("initech", "kill-b", Op::Check, LEAKY, vec![]);
        r.chaos = Some("panic".to_string());
        r
    };
    let mut kill_frames = 0;
    for kill in [&kill_a, &kill_b] {
        let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        enf_serve::write_frame(&mut conn, &kill.to_json()).unwrap();
        let reply = enf_serve::read_frame(&mut conn).unwrap().unwrap();
        assert!(!enf_serve::reply_is_ok(&reply));
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            Some("panicked"),
            "kill reply: {}",
            reply.render()
        );
        assert_eq!(reply.get("retryable"), Some(&Json::Bool(true)));
        kill_frames += 1;
    }
    assert_eq!(kill_frames, 2);

    let chaos_replies = run_workload(&chaos_client);
    let chaos_stats = server.stop();
    proxy.stop();
    let chaos_trails = tenant_trails(&chaos_state);

    // Outcome equivalence: every decisive reply field agrees.
    assert_eq!(control_replies, chaos_replies);

    // Audit equivalence: byte-identical, intact trails per tenant.
    for ((tenant, control_trail), (_, chaos_trail)) in
        control_trails.iter().zip(chaos_trails.iter())
    {
        assert_eq!(
            control_trail, chaos_trail,
            "tenant {tenant}: chaos trail diverged from control"
        );
        assert!(
            enf_policy::verify_chain(chaos_trail).is_intact(),
            "tenant {tenant}: chain broken"
        );
    }

    // The faults really happened: both kills were quarantined, yet every
    // job was served.
    assert_eq!(chaos_stats.quarantined, 2);
    assert!(chaos_stats.served >= workload().len() as u64);
    assert!(chaos_stats.degraded(), "quarantines mark a degraded life");

    let _ = std::fs::remove_dir_all(&control_state);
    let _ = std::fs::remove_dir_all(&chaos_state);
}
