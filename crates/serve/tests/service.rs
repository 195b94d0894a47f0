//! End-to-end service tests: quarantine, admission, idempotency,
//! checkpoint recovery, reply bounds and drain — all over real sockets.

use enf_core::Json;
use enf_serve::{parse_allow, Client, ClientConfig, Op, Request, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::time::Duration;

/// A program that releases only its first input: sound for allow {1}.
const SOUND: &str = "program(2) { y := x1 * 2; }";
/// A program that releases its second input: a leak for allow {1}.
const LEAKY: &str = "program(2) { y := x2; }";
/// A program that never halts: every run exhausts the fuel bound.
const DIVERGING: &str = "program(2) { while true { y := y + 1; } }";

fn quick_client(addr: &str) -> Client {
    Client::with_config(
        addr,
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(5),
            max_attempts: 6,
            base_backoff_ms: 2,
            max_backoff_ms: 50,
            seed: 42,
        },
    )
}

fn base_request(op: Op, program: &str) -> Request {
    Request {
        op,
        tenant: "default".to_string(),
        job: String::new(),
        program: program.to_string(),
        allow: parse_allow("1").unwrap(),
        input: vec![],
        span: 2,
        deadline_ms: None,
        budget: None,
        block: 64,
        fuel: 0,
        chaos: None,
    }
}

fn str_field<'a>(doc: &'a Json, name: &str) -> &'a str {
    doc.get(name).and_then(Json::as_str).unwrap_or("")
}

fn int_field(doc: &Json, name: &str) -> i128 {
    doc.get(name).and_then(Json::as_int).unwrap_or(-1)
}

/// One request, one reply, no retries: a raw frame exchange over a fresh
/// connection, for observing retryable error frames a retrying [`Client`]
/// would consume.
fn raw_exchange(addr: &str, req: &Request) -> Json {
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    enf_serve::write_frame(&mut conn, &req.to_json()).unwrap();
    enf_serve::read_frame(&mut conn).unwrap().unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "enf-serve-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn ping_surveil_certify_end_to_end() {
    let server = ServerHandle::spawn(ServerConfig::default()).unwrap();
    let client = quick_client(&server.addr().to_string());

    let pong = client.request(&base_request(Op::Ping, "")).unwrap();
    assert!(enf_serve::reply_is_ok(&pong));

    // A monitored run that releases.
    let mut ok = base_request(Op::Surveil, SOUND);
    ok.input = vec![21, 999];
    let reply = client.request(&ok).unwrap();
    assert_eq!(str_field(&reply, "verdict"), "released");
    assert_eq!(int_field(&reply, "value"), 42);

    // A monitored run that refuses: x2 flows to y but only x1 is allowed.
    let mut bad = base_request(Op::Surveil, LEAKY);
    bad.input = vec![1, 7];
    let reply = client.request(&bad).unwrap();
    assert_eq!(str_field(&reply, "verdict"), "refused");
    assert_eq!(str_field(&reply, "reason"), "violation");
    assert_eq!(str_field(&reply, "disallowed"), "2");

    // Static certification, certified side and rejected side.
    let mut cert = base_request(Op::Certify, SOUND);
    cert.input = vec![10, 0];
    let reply = client.request(&cert).unwrap();
    assert_eq!(str_field(&reply, "verdict"), "certified");
    assert_eq!(str_field(&reply, "value"), "20");
    let reply = client.request(&base_request(Op::Certify, LEAKY)).unwrap();
    assert_eq!(str_field(&reply, "verdict"), "rejected");

    let stats = server.stop();
    assert!(!stats.degraded(), "clean life: {stats:?}");
    assert!(stats.served >= 5);
}

#[test]
fn check_and_refute_report_verdicts_and_cache() {
    let server = ServerHandle::spawn(ServerConfig::default()).unwrap();
    let client = quick_client(&server.addr().to_string());

    // Same sweep under two distinct job keys: the second is a cache hit.
    let mut first = base_request(Op::Check, SOUND);
    first.job = "job-a".to_string();
    let reply = client.request(&first).unwrap();
    assert_eq!(str_field(&reply, "verdict"), "confirmed");
    assert_eq!(reply.get("cached"), Some(&Json::Bool(false)));
    let total = int_field(&reply, "total");
    assert_eq!(total, 25, "span 2, arity 2: 5^2 inputs");

    let mut second = base_request(Op::Check, SOUND);
    second.job = "job-b".to_string();
    let reply = client.request(&second).unwrap();
    assert_eq!(str_field(&reply, "verdict"), "confirmed");
    assert_eq!(reply.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(int_field(&reply, "total"), total);

    // The refuter's view of a leaky program: a witness pair with equal
    // policy views and distinguishable outputs.
    let reply = client.request(&base_request(Op::Refute, LEAKY)).unwrap();
    assert_eq!(str_field(&reply, "verdict"), "refuted");
    assert_eq!(reply.get("leak"), Some(&Json::Bool(true)));
    let a = reply.get("witness_a").and_then(Json::as_arr).unwrap();
    let b = reply.get("witness_b").and_then(Json::as_arr).unwrap();
    assert_eq!(a[0], b[0], "witness pair agrees on the allowed input");
    assert_ne!(a[1], b[1], "and differs on the disallowed one");
    assert_ne!(str_field(&reply, "out_a"), str_field(&reply, "out_b"));

    // The refuter's view of a sound program: no witness exists.
    let reply = client.request(&base_request(Op::Refute, SOUND)).unwrap();
    assert_eq!(str_field(&reply, "verdict"), "confirmed");
    assert_eq!(reply.get("leak"), Some(&Json::Bool(false)));

    let stats = server.stop();
    assert_eq!(stats.cache_hits, 1);
    assert!(!stats.degraded());
}

/// Two programs whose `check_salt` fingerprints collide under allow {1},
/// span 2 and the default fuel: the first is sound, the second leaks x2.
const COLLIDING_SOUND: &str = "program(2) { r1 := 7475292257068709919; y := x1; }";
const COLLIDING_LEAKY: &str = "program(2) { r1 := 2780062302222203760; y := x2; }";

#[test]
fn colliding_fingerprints_never_share_a_cached_verdict() {
    let fuel = ServerConfig::default().default_fuel;
    let allow = parse_allow("1").unwrap();
    assert_eq!(
        enf_policy::check_salt(COLLIDING_SOUND, allow, 2, fuel, false),
        enf_policy::check_salt(COLLIDING_LEAKY, allow, 2, fuel, false),
        "the pair's fingerprints collide"
    );
    // Across two tenants, then within one.
    for (first_tenant, second_tenant) in [("tenant-b", "tenant-a"), ("default", "default")] {
        let server = ServerHandle::spawn(ServerConfig::default()).unwrap();
        let client = quick_client(&server.addr().to_string());
        let mut sound = base_request(Op::Refute, COLLIDING_SOUND);
        sound.tenant = first_tenant.to_string();
        let reply = client.request(&sound).unwrap();
        assert_eq!(reply.get("leak"), Some(&Json::Bool(false)), "{reply:?}");

        let mut leaky = base_request(Op::Refute, COLLIDING_LEAKY);
        leaky.tenant = second_tenant.to_string();
        let reply = client.request(&leaky).unwrap();
        assert_eq!(str_field(&reply, "verdict"), "refuted", "{reply:?}");
        assert_eq!(reply.get("leak"), Some(&Json::Bool(true)), "{reply:?}");
        assert_eq!(reply.get("cached"), Some(&Json::Bool(false)), "{reply:?}");

        let stats = server.stop();
        assert_eq!(stats.cache_hits, 0);
    }
}

#[test]
fn idempotent_retry_replays_without_rerunning() {
    let state = temp_dir("replay");
    let server = ServerHandle::spawn(ServerConfig {
        state_dir: Some(state.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let client = quick_client(&server.addr().to_string());

    let mut req = base_request(Op::Surveil, SOUND);
    req.tenant = "acme".to_string();
    req.job = "release-once".to_string();
    req.input = vec![5, 0];
    let first = client.request(&req).unwrap();
    assert_eq!(int_field(&first, "value"), 10);

    let audit_path = state.join("acme").join("audit.log");
    let trail_after_first = std::fs::read_to_string(&audit_path).unwrap();

    // The blind retry replays the recorded reply; the audit trail gains
    // no records — the release happened exactly once.
    let second = client.request(&req).unwrap();
    assert_eq!(int_field(&second, "value"), 10);
    assert_eq!(second.get("replayed"), Some(&Json::Bool(true)));
    let trail_after_second = std::fs::read_to_string(&audit_path).unwrap();
    assert_eq!(trail_after_first, trail_after_second);

    let stats = server.stop();
    assert_eq!(stats.replayed, 1);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn panicking_job_is_quarantined() {
    let server = ServerHandle::spawn(ServerConfig {
        workers: 2,
        chaos: true,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    // One raw attempt (no retries): the chaos directive panics the job and
    // the caller still gets a structured, retryable frame.
    let mut kill = base_request(Op::Check, SOUND);
    kill.chaos = Some("panic".to_string());
    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    enf_serve::write_frame(&mut conn, &kill.to_json()).unwrap();
    let reply = enf_serve::read_frame(&mut conn).unwrap().unwrap();
    assert!(!enf_serve::reply_is_ok(&reply));
    assert_eq!(str_field(&reply, "error"), "panicked");
    assert_eq!(reply.get("retryable"), Some(&Json::Bool(true)));

    // The connection that read the job keeps serving.
    enf_serve::write_frame(&mut conn, &base_request(Op::Ping, "").to_json()).unwrap();
    let pong = enf_serve::read_frame(&mut conn).unwrap().unwrap();
    assert_eq!(
        pong.get("pong"),
        Some(&Json::Bool(true)),
        "{}",
        pong.render()
    );

    // The job key was released: the same sweep (no directive) still runs.
    let client = quick_client(&addr);
    let reply = client.request(&base_request(Op::Check, SOUND)).unwrap();
    assert_eq!(str_field(&reply, "verdict"), "confirmed");

    let stats = server.stop();
    assert_eq!(stats.quarantined, 1);
    assert!(stats.degraded(), "a quarantine is a degraded life");
}

#[test]
fn overload_is_shed_with_retry_after() {
    let server = ServerHandle::spawn(ServerConfig {
        workers: 1,
        queue: 1,
        tenant_quota: 1,
        retry_after_ms: 33,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    // Occupy the only worker: a sweep with far more work than its deadline
    // allows — 129^2 inputs, every one burning the full fuel bound — so it
    // holds the worker until the deadline cancels it. The fuel is sized so
    // the engine's wall-clock poll (every 256 inputs) lands soon after the
    // deadline rather than minutes after it.
    let mut slow = base_request(Op::Check, DIVERGING);
    slow.job = "slow".to_string();
    slow.fuel = 125_000;
    slow.span = 64;
    slow.deadline_ms = Some(1_500);
    let occupant = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let one_shot = Client::with_config(
                &addr,
                ClientConfig {
                    max_attempts: 1,
                    ..ClientConfig::default()
                },
            );
            one_shot.request(&slow).unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(400));

    // Same tenant, different job: over quota, shed with the hint.
    let mut second = base_request(Op::Check, SOUND);
    second.job = "shed-me".to_string();
    let reply = raw_exchange(&addr, &second);
    assert!(!enf_serve::reply_is_ok(&reply));
    assert_eq!(str_field(&reply, "error"), "overloaded");
    assert_eq!(reply.get("retryable"), Some(&Json::Bool(true)));
    assert_eq!(int_field(&reply, "retry_after_ms"), 33);

    // A patient client rides the backoff out and eventually succeeds.
    let patient = Client::with_config(
        &addr,
        ClientConfig {
            max_attempts: 200,
            base_backoff_ms: 25,
            max_backoff_ms: 200,
            ..ClientConfig::default()
        },
    );
    let mut third = base_request(Op::Check, SOUND);
    third.job = "patient".to_string();
    let reply = patient.request(&third).unwrap();
    assert_eq!(str_field(&reply, "verdict"), "confirmed");

    let occupied = occupant.join().unwrap();
    assert_eq!(str_field(&occupied, "verdict"), "unknown");

    let stats = server.stop();
    assert!(stats.shed >= 1);
    assert!(!stats.degraded(), "shedding is not degradation: {stats:?}");
}

#[test]
fn a_full_queue_sheds_with_retry_after() {
    let server = ServerHandle::spawn(ServerConfig {
        workers: 1,
        queue: 1,
        retry_after_ms: 33,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let one_shot = |req: Request| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let client = Client::with_config(
                &addr,
                ClientConfig {
                    max_attempts: 1,
                    ..ClientConfig::default()
                },
            );
            client.request(&req).unwrap()
        })
    };

    // Three tenants, so no request meets its tenant's quota. The first
    // holds the only turn until its deadline cancels the sweep, as in
    // `overload_is_shed_with_retry_after`.
    let mut slow = base_request(Op::Check, DIVERGING);
    slow.tenant = "tenant-a".to_string();
    slow.fuel = 125_000;
    slow.span = 64;
    slow.deadline_ms = Some(1_500);
    let occupant = one_shot(slow);
    std::thread::sleep(Duration::from_millis(400));

    // The second takes the one place to wait and completes after it.
    let mut second = base_request(Op::Check, SOUND);
    second.tenant = "tenant-b".to_string();
    let waiter = one_shot(second);
    std::thread::sleep(Duration::from_millis(300));

    // The third finds the place taken and is shed with the hint.
    let mut third = base_request(Op::Check, SOUND);
    third.tenant = "tenant-c".to_string();
    let reply = raw_exchange(&addr, &third);
    assert_eq!(
        str_field(&reply, "error"),
        "overloaded",
        "{}",
        reply.render()
    );
    assert_eq!(str_field(&reply, "detail"), "job queue is full");
    assert_eq!(reply.get("retryable"), Some(&Json::Bool(true)));
    assert_eq!(int_field(&reply, "retry_after_ms"), 33);

    let waited = waiter.join().unwrap();
    assert_eq!(
        str_field(&waited, "verdict"),
        "confirmed",
        "{}",
        waited.render()
    );
    let occupied = occupant.join().unwrap();
    assert_eq!(str_field(&occupied, "verdict"), "unknown");

    let stats = server.stop();
    assert_eq!(stats.shed, 1, "{stats:?}");
    assert!(!stats.degraded(), "shedding is not degradation: {stats:?}");
}

#[test]
fn interrupted_check_resumes_bit_identically() {
    // Control: the same job on a pristine server, uninterrupted.
    let control_state = temp_dir("resume-control");
    let control = ServerHandle::spawn(ServerConfig {
        state_dir: Some(control_state.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let client = quick_client(&control.addr().to_string());
    let mut job = base_request(Op::Check, SOUND);
    job.tenant = "acme".to_string();
    job.job = "big-sweep".to_string();
    job.span = 7; // 15^2 = 225 inputs
    job.block = 32;
    let control_reply = client.request(&job).unwrap();
    assert_eq!(str_field(&control_reply, "verdict"), "confirmed");
    control.stop();
    let control_trail =
        std::fs::read_to_string(control_state.join("acme").join("audit.log")).unwrap();

    // Interrupted: a budget-limited first attempt leaves a checkpoint.
    let state = temp_dir("resume-live");
    let first_life = ServerHandle::spawn(ServerConfig {
        state_dir: Some(state.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let client = quick_client(&first_life.addr().to_string());
    let mut partial = job.clone();
    partial.budget = Some(64);
    let reply = client.request(&partial).unwrap();
    assert_eq!(str_field(&reply, "verdict"), "unknown");
    assert!(int_field(&reply, "checked") < 225);
    let ckpts: Vec<_> = std::fs::read_dir(state.join("acme"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
        .collect();
    assert_eq!(ckpts.len(), 1, "one checkpoint survives the interruption");
    first_life.stop(); // the "crash": server gone, state dir remains

    // Second life: same state dir, same job, no budget — the sweep
    // resumes from the checkpoint and completes.
    let second_life = ServerHandle::spawn(ServerConfig {
        state_dir: Some(state.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let client = quick_client(&second_life.addr().to_string());
    let resumed_reply = client.request(&job).unwrap();
    assert_eq!(str_field(&resumed_reply, "verdict"), "confirmed");
    assert_eq!(resumed_reply.get("resumed"), Some(&Json::Bool(true)));
    assert_eq!(
        int_field(&resumed_reply, "total"),
        int_field(&control_reply, "total")
    );
    let stats = second_life.stop();
    assert_eq!(stats.resumed, 1);

    // Audit-exactness: the interrupted-and-resumed trail is byte-identical
    // to the uninterrupted control trail, and the checkpoint is gone.
    let resumed_trail = std::fs::read_to_string(state.join("acme").join("audit.log")).unwrap();
    assert_eq!(control_trail, resumed_trail);
    assert!(enf_policy::verify_chain(&resumed_trail).is_intact());
    let leftover: Vec<_> = std::fs::read_dir(state.join("acme"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
        .collect();
    assert!(
        leftover.is_empty(),
        "decisive verdict removes the checkpoint"
    );

    let _ = std::fs::remove_dir_all(&control_state);
    let _ = std::fs::remove_dir_all(&state);
}

/// The `.fc` shapes that nest: parentheses, unary minus, nested `if`
/// blocks and a left-nested operator chain, each `n` levels below the
/// top-level block.
fn nested_programs(n: usize) -> [String; 4] {
    [
        format!(
            "program(2) {{ y := {}x1{}; }}",
            "(".repeat(n),
            ")".repeat(n)
        ),
        format!("program(2) {{ y := {}x1; }}", "-".repeat(n)),
        format!(
            "program(2) {{ {} y := x1; {} }}",
            "if x1 == 0 { ".repeat(n),
            "} ".repeat(n)
        ),
        format!("program(2) {{ y := x1{}; }}", " + x1".repeat(n)),
    ]
}

#[test]
fn deeply_nested_program_is_a_usage_error_not_a_dead_worker() {
    let server = ServerHandle::spawn(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    // The deepest programs the parser accepts run every op on a worker's
    // stack.
    for program in nested_programs(enf_flowchart::parser::MAX_DEPTH - 1) {
        for op in [Op::Surveil, Op::Certify, Op::Check] {
            let mut req = base_request(op, &program);
            req.input = vec![0, 0];
            let reply = raw_exchange(&addr, &req);
            assert!(enf_serve::reply_is_ok(&reply), "{}", reply.render());
        }
    }
    // 6 000 nested parentheses (12 KB) once overflowed a worker's stack
    // and took the daemon down; past the bound, every shape is a usage
    // error and the server keeps answering.
    for program in nested_programs(6_000) {
        let mut req = base_request(Op::Surveil, &program);
        req.input = vec![0, 0];
        let reply = raw_exchange(&addr, &req);
        assert_eq!(str_field(&reply, "error"), "usage", "{}", reply.render());
        assert!(str_field(&reply, "detail").contains("nesting deeper than"));
        let pong = raw_exchange(&addr, &base_request(Op::Ping, ""));
        assert!(enf_serve::reply_is_ok(&pong), "{}", pong.render());
    }
    let stats = server.stop();
    assert!(!stats.degraded(), "{stats:?}");
}

#[test]
fn deeply_nested_frame_severs_only_its_connection() {
    use std::io::Write as _;
    let server = ServerHandle::spawn(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let payload = format!("{}\n", "[".repeat(100_000));
    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    conn.write_all(payload.as_bytes()).unwrap();
    // The malformed frame gets no reply: its connection is severed…
    assert!(!matches!(enf_serve::read_frame(&mut conn), Ok(Some(_))));
    // …and the server still answers on a new one.
    let pong = raw_exchange(&addr, &base_request(Op::Ping, ""));
    assert!(enf_serve::reply_is_ok(&pong), "{}", pong.render());
    let stats = server.stop();
    assert!(!stats.degraded(), "{stats:?}");
}

/// `head`, then `fill` repeated, then `tail`: a frame payload of exactly
/// `MAX_FRAME_BYTES`.
fn bound_sized(head: &str, fill: char, tail: &str) -> String {
    let n = enf_serve::MAX_FRAME_BYTES - head.len() - tail.len();
    let payload = format!("{head}{}{tail}", String::from(fill).repeat(n));
    assert_eq!(payload.len(), enf_serve::MAX_FRAME_BYTES);
    payload
}

/// Writes one raw frame payload on a fresh connection and reads the reply
/// through `read_frame`.
fn raw_payload_exchange(addr: &str, payload: &str) -> Result<Option<Json>, enf_serve::FrameError> {
    use std::io::Write as _;
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    conn.write_all(payload.as_bytes()).unwrap();
    enf_serve::read_frame(&mut conn)
}

#[test]
fn a_bound_sized_frame_is_answered_promptly() {
    let server = ServerHandle::spawn(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    // A ping whose unused program string fills the frame to
    // `MAX_FRAME_BYTES`. A decoder quadratic in string length spent over
    // 20 s of CPU on it.
    let payload = bound_sized(r#"{"op":"ping","program":""#, 'p', "\"}\n");
    let start = std::time::Instant::now();
    let reply = raw_payload_exchange(&addr, &payload)
        .expect("a whole reply within 5 s")
        .expect("a reply before EOF");
    let elapsed = start.elapsed();
    assert_eq!(reply.get("pong"), Some(&Json::Bool(true)));
    assert!(
        elapsed < Duration::from_secs(5),
        "answered after {elapsed:?}"
    );
    let stats = server.stop();
    assert!(!stats.degraded(), "{stats:?}");
}

#[test]
fn every_reply_fits_in_one_frame() {
    let server = ServerHandle::spawn(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    // Bound-sized requests whose replies would quote the client's text: a
    // job key (echoed by every reply), an op name, a tenant name and an
    // identifier in a parse error.
    for (payload, detail) in [
        (
            bound_sized(r#"{"op":"ping","job":""#, 'j', "\"}\n"),
            "\"job\" is",
        ),
        (bound_sized(r#"{"op":""#, 'o', "\"}\n"), "unknown op"),
        (
            bound_sized(r#"{"op":"check","program":"p","tenant":""#, 't', "\"}\n"),
            "invalid tenant name",
        ),
        (
            bound_sized(
                r#"{"op":"check","program":"program(1) { y := "#,
                'z',
                "; }\"}\n",
            ),
            "parse error",
        ),
    ] {
        let reply = raw_payload_exchange(&addr, &payload)
            .expect("a reply within the frame bound")
            .expect("a reply before EOF");
        assert_eq!(str_field(&reply, "error"), "usage", "{}", reply.render());
        assert!(
            str_field(&reply, "detail").starts_with(detail),
            "{}",
            reply.render()
        );
    }
    let stats = server.stop();
    assert_eq!(stats.usage_errors, 4, "{stats:?}");
}

#[test]
fn a_trail_has_one_writing_server_at_a_time() {
    let state = temp_dir("one-writer");
    let cfg = || ServerConfig {
        state_dir: Some(state.clone()),
        ..ServerConfig::default()
    };
    let first = ServerHandle::spawn(cfg()).unwrap();
    let second = ServerHandle::spawn(cfg()).unwrap();
    let mut job = base_request(Op::Surveil, SOUND);
    job.tenant = "acme".to_string();
    job.input = vec![3, 0];
    let reply = raw_exchange(&first.addr().to_string(), &job);
    assert_eq!(str_field(&reply, "verdict"), "released");
    // The first server holds acme's trail: the second gets an error
    // reply instead of writing a second chain into the same file.
    let reply = raw_exchange(&second.addr().to_string(), &job);
    assert_eq!(str_field(&reply, "error"), "internal");
    assert!(
        str_field(&reply, "detail").contains("locked by another writer"),
        "{}",
        reply.render()
    );
    let held = std::fs::read_to_string(state.join("acme").join("audit.log")).unwrap();
    first.stop();
    // Released, the trail resumes in the second server and grows.
    let reply = raw_exchange(&second.addr().to_string(), &job);
    assert_eq!(str_field(&reply, "verdict"), "released");
    second.stop();
    let trail = std::fs::read_to_string(state.join("acme").join("audit.log")).unwrap();
    assert!(trail.starts_with(&held) && trail.len() > held.len());
    assert!(enf_policy::verify_chain(&trail).is_intact());
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn drain_finishes_inflight_work() {
    let server = ServerHandle::spawn(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client = quick_client(&addr);
                let mut req = base_request(Op::Check, SOUND);
                req.job = format!("drain-{i}");
                req.span = 3;
                client.request(&req).unwrap()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let stats = server.stop();
    for w in workers {
        let reply = w.join().unwrap();
        // Every job either completed before the drain or was refused with
        // a structured draining frame — never silently dropped.
        if enf_serve::reply_is_ok(&reply) {
            assert_eq!(str_field(&reply, "verdict"), "confirmed");
        } else {
            assert_eq!(str_field(&reply, "error"), "draining");
        }
    }
    assert!(!stats.degraded());
}

#[cfg(unix)]
#[test]
fn unix_socket_roundtrip() {
    use enf_serve::Listener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let path = std::env::temp_dir().join(format!("enf-serve-{}.sock", std::process::id()));
    let listener = Listener::bind_unix(&path).unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let server =
        std::thread::spawn(move || enf_serve::serve(listener, ServerConfig::default(), flag));

    let client = quick_client(&format!("unix:{}", path.display()));
    let mut req = base_request(Op::Surveil, SOUND);
    req.input = vec![4, 4];
    let reply = client.request(&req).unwrap();
    assert_eq!(int_field(&reply, "value"), 8);

    shutdown.store(true, Ordering::SeqCst);
    let stats = server.join().unwrap();
    assert!(!stats.degraded());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_server_on_every_interface_answers_loopback_and_drains() {
    use enf_serve::Listener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let listener = Listener::bind_tcp("0.0.0.0:0").unwrap();
    let bound: std::net::SocketAddr = listener.local_addr_string().parse().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(enf_serve::serve(listener, ServerConfig::default(), flag));
    });

    let client = quick_client(&format!("127.0.0.1:{}", bound.port()));
    let pong = client.request(&base_request(Op::Ping, "")).unwrap();
    assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));

    // The drain wakes the blocked acceptor through loopback.
    shutdown.store(true, Ordering::SeqCst);
    let stats = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("drain hung");
    assert_eq!(stats.served, 1);
    assert!(!stats.degraded());
}
