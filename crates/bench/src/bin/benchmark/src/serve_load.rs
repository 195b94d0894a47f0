//! The two serve workloads: load from inside this process against the
//! real `enf_serve` daemon (`ServerHandle::spawn`, default configuration
//! apart from the state directory).
//!
//! Each run has three measured phases: an open loop with Poisson arrivals
//! at the rate `lo`, the same at `hi`, then a closed loop in segments,
//! each against a server started for it. Open-loop latency runs from when
//! a request was due, not from when it was sent, so a stall is charged to
//! every request it delays. At most two generator threads exist at any
//! time, and each holds at most one connection to the server under load.

use crate::gen;
use crate::layers::{self, check_reply, execute, request, server_fuel, Expected};
use crate::stats::{self, median, ms, quantile};
use crate::trace::{self, Tracer};
use crate::{Metric, Outcome, Settings};
use enf_core::{EvalConfig, Json};
use enf_flowchart::generate::SplitMix;
use enf_policy::verify_chain;
use enf_serve::{
    read_frame, reply_retry_after, write_frame, Client, Op, Request, ServerConfig, ServerHandle,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];
const REQUEST_STREAM: u64 = 0x5e7e;
const SCHEDULE_STREAM: u64 = 0x5c4d;
const THREADS: usize = 2;

/// Each open-loop phase gets this share of `--seconds`, the closed loop
/// the rest.
const OPEN_SHARE: f64 = 0.35;
const CLOSED_SHARE: f64 = 0.3;

/// The closed loop's segments. Each runs against a server started for it,
/// whose start is one timed set-up, so every segment sees the same state
/// (`serve_durable` trails at their fixture length) and the set-ups are
/// spread over the run. Before a segment the generator threads ping for
/// the plan's pause, so the server has accepted their connections and
/// the processors are busy when it begins.
const SEGMENTS: usize = stats::SETUP_REPS;

/// The load plan of one serve workload. Rates are absolute and frozen:
/// they were measured on the seed commit (see the README) and must not
/// follow the program, or a regression would lower its own load.
struct Plan {
    /// Open-loop arrival rates, requests per second.
    lo: f64,
    hi: f64,
    /// Most requests one open-loop phase may send.
    open_cap: usize,
    /// Closed-loop requests per second of `--seconds`.
    closed_per_s: f64,
    /// Most closed-loop requests.
    closed_cap: usize,
    /// Seconds of pings before each closed-loop segment.
    pause_s: f64,
}

/// `serve_oneshot`: every request pays a fresh connection.
const ONESHOT: Plan = Plan {
    lo: 150.0,
    hi: 300.0,
    open_cap: usize::MAX,
    closed_per_s: 120.0,
    closed_cap: usize::MAX,
    pause_s: 0.25,
};

/// `serve_durable`: the caps bound the trail growth. Every append
/// rewrites the whole trail, so bytes written grow with the square of a
/// server's job count; with these caps a run writes about 1.3 GB, under
/// 3 GB. The longer pause lets the disk write back one segment's trails
/// before the next segment begins.
const DURABLE: Plan = Plan {
    lo: 200.0,
    hi: 1600.0,
    open_cap: 1000,
    closed_per_s: 250.0,
    closed_cap: 5000,
    pause_s: 0.5,
};

/// Fixture records written to each tenant's trail before the server
/// starts, so it resumes real trails.
const FIXTURE_RECORDS: usize = 1000;

/// Check and refute programs of `serve_durable` come from this many, so
/// most sweeps are answered from the verdict cache. Each generator thread
/// draws from its own half: two connections that sweep the same cache key
/// at once both write its checkpoint file, and one of them can fail with
/// an internal error when the other renames the shared temporary file
/// away (see the README).
const DURABLE_POOL: u64 = 32;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Phase {
    Warmup,
    Lo,
    Hi,
    Closed,
}

impl Phase {
    fn tag(self) -> u64 {
        self as u64
    }
}

struct Sample {
    phase: Phase,
    req: Request,
    due: Instant,
    sent: Instant,
    done: Instant,
    reply: Result<Json, String>,
    /// Whether a traced run recorded spans for this closed-loop request.
    traced: bool,
}

impl Sample {
    /// A request whose reply has just come in.
    fn new(
        phase: Phase,
        req: Request,
        due: Instant,
        sent: Instant,
        reply: Result<Json, String>,
    ) -> Sample {
        Sample {
            phase,
            req,
            due,
            sent,
            done: Instant::now(),
            reply,
            traced: false,
        }
    }

    fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }
}

/// Which workload a request belongs to, and so how it is built.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Oneshot,
    Durable,
}

/// The `k`-th request of one generator thread in one phase.
fn make_request(kind: Kind, seed: u64, phase: Phase, thread: usize, k: usize) -> Request {
    let index = request_id(phase, thread, k);
    let mut rng = gen::rng(seed, REQUEST_STREAM, index);
    let tenant = TENANTS[(k + thread) % TENANTS.len()];
    let job = format!("s{seed}-{phase:?}-{thread}-{k}");
    let cfg = gen::small(3);
    let op = match kind {
        // ¼ each, in rotation.
        Kind::Oneshot => [Op::Surveil, Op::Certify, Op::Check, Op::Refute][k % 4],
        // ½ surveil, ⅕ certify, 3⁄10 check or refute.
        Kind::Durable => match k % 10 {
            0..=4 => Op::Surveil,
            5 | 6 => Op::Certify,
            _ if rng.below(2) == 0 => Op::Check,
            _ => Op::Refute,
        },
    };
    let sweep = matches!(op, Op::Check | Op::Refute);
    if kind == Kind::Durable && sweep {
        let half = DURABLE_POOL / THREADS as u64;
        let slot = thread as u64 * half + rng.below(half);
        return pool_request(seed, slot, op, tenant, job);
    }
    // A program no other request uses: its sweeps never hit the cache.
    let allow = gen::allow(&mut rng, 3);
    let program = gen::program(seed, REQUEST_STREAM + 3, index, &cfg, false);
    let mut req = request(op, tenant, job, &program.text, allow);
    if sweep {
        req.span = SPAN;
    } else {
        req.input = gen::input(&mut rng, 3, 5);
    }
    req
}

/// Half-width of every serve sweep: 729 inputs of an arity-3 program.
const SPAN: i64 = 4;

/// A sweep of entry `slot` of the `serve_durable` pool. An entry fixes
/// program and policy, so its sweeps share a cache key.
fn pool_request(seed: u64, slot: u64, op: Op, tenant: &str, job: String) -> Request {
    let mut rng = gen::rng(seed, REQUEST_STREAM + 1, slot);
    let allow = gen::allow(&mut rng, 3);
    let program = gen::program(seed, REQUEST_STREAM + 2, slot, &gen::small(3), false);
    let mut req = request(op, tenant, job, &program.text, allow);
    req.span = SPAN;
    req
}

/// Fills the verdict cache with one generator thread's half of the
/// `serve_durable` pool, before a closed-loop segment: a check and a
/// refute of each entry.
fn pool_fill(seed: u64, seg: usize, thread: usize) -> Vec<Request> {
    let half = DURABLE_POOL / THREADS as u64;
    (thread as u64 * half..(thread as u64 + 1) * half)
        .flat_map(|slot| {
            [Op::Check, Op::Refute].map(|op| {
                let tenant = TENANTS[slot as usize % TENANTS.len()];
                let job = format!("s{seed}-fill{seg}-{slot}-{}", op.name());
                pool_request(seed, slot, op, tenant, job)
            })
        })
        .collect()
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One request over a fresh connection, with a span around each call
/// into the protocol layer; a retryable rejection falls back to the
/// retrying client.
fn traced_oneshot(
    tr: &Tracer,
    client: &Client,
    addr: SocketAddr,
    id: u64,
    req: &Request,
) -> Result<Json, String> {
    let root = tr.id();
    let start = Instant::now();
    let attempt = (|| {
        let mut conn = tr
            .span("connect", id, root, || TcpStream::connect(addr))
            .map_err(io_err)?;
        conn.set_nodelay(true).ok();
        conn.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let doc = req.to_json();
        tr.span("protocol.write_frame", id, root, || {
            write_frame(&mut conn, &doc)
        })
        .map_err(io_err)?;
        tr.span("await_reply", id, root, || conn.peek(&mut [0u8; 1]))
            .map_err(io_err)?;
        tr.span("protocol.read_frame", id, root, || read_frame(&mut conn))
            .map_err(io_err)?
            .ok_or_else(|| "server closed without replying".to_string())
    })();
    tr.record(root, 0, id, "request", start);
    match attempt {
        Ok(reply) if reply_retry_after(&reply).is_none() => Ok(reply),
        _ => client.request(req).map_err(io_err),
    }
}

/// One request over a persistent connection.
fn persistent_call(
    tr: &Tracer,
    conn: &mut TcpStream,
    id: u64,
    req: &Request,
) -> Result<Json, String> {
    let root = tr.id();
    let start = Instant::now();
    let doc = req.to_json();
    let reply = tr
        .span("protocol.write_frame", id, root, || write_frame(conn, &doc))
        .map_err(io_err)
        .and_then(|()| {
            tr.span("await_reply", id, root, || conn.peek(&mut [0u8; 1]))
                .map_err(io_err)
        })
        .and_then(|_| {
            tr.span("protocol.read_frame", id, root, || read_frame(conn))
                .map_err(io_err)
        })
        .and_then(|r| r.ok_or_else(|| "server closed the connection".to_string()));
    tr.record(root, 0, id, "request", start);
    reply
}

fn connect(addr: SocketAddr) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect to the server");
    conn.set_nodelay(true).ok();
    conn.set_read_timeout(Some(Duration::from_secs(10))).ok();
    conn
}

fn request_id(phase: Phase, thread: usize, k: usize) -> u64 {
    (phase.tag() << 40) | ((thread as u64) << 32) | k as u64
}

/// Arrival times of one thread's share of a Poisson stream.
fn schedule(
    seed: u64,
    phase: Phase,
    thread: usize,
    rate: f64,
    n: usize,
    t0: Instant,
) -> Vec<Instant> {
    let mut rng: SplitMix = gen::rng(seed, SCHEDULE_STREAM, phase.tag() * 8 + thread as u64);
    let mut at = 0.0;
    (0..n)
        .map(|_| {
            at += gen::poisson_gap(&mut rng, rate / THREADS as f64);
            t0 + Duration::from_secs_f64(at)
        })
        .collect()
}

fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// One generator thread of an open-loop phase of `serve_oneshot`: each
/// request goes out when due, or as soon as the previous one returns.
fn oneshot_open(
    tr: &Tracer,
    addr: SocketAddr,
    phase: Phase,
    reqs: Vec<(u64, Instant, Request)>,
) -> Vec<Sample> {
    let client = Client::new(&addr.to_string());
    reqs.into_iter()
        .map(|(id, due, req)| {
            sleep_until(due);
            let sent = Instant::now();
            let reply = if tr.on() {
                traced_oneshot(tr, &client, addr, id, &req)
            } else {
                client.request(&req).map_err(io_err)
            };
            Sample::new(phase, req, due, sent, reply)
        })
        .collect()
}

/// One generator thread of an open-loop phase of `serve_durable`: frames
/// are pipelined on a persistent connection. The thread writes every
/// frame that is due, then reads replies until the next one is due.
fn durable_open(
    tr: &Tracer,
    addr: SocketAddr,
    phase: Phase,
    reqs: Vec<(u64, Instant, Request)>,
) -> Vec<Sample> {
    let mut conn = connect(addr);
    let mut out = Vec::with_capacity(reqs.len());
    let mut pending: VecDeque<(u64, u64, Instant, Instant, Request)> = VecDeque::new();
    let mut next = reqs.into_iter().peekable();
    let mut buf = [0u8; 1];
    loop {
        while let Some((id, due, _)) = next.peek() {
            if *due > Instant::now() {
                break;
            }
            let (id, due) = (*id, *due);
            let (_, _, req) = next.next().expect("peeked");
            let root = tr.id();
            let sent = Instant::now();
            let doc = req.to_json();
            if let Err(e) = tr.span("protocol.write_frame", id, root, || {
                write_frame(&mut conn, &doc)
            }) {
                out.push(failed(phase, req, due, sent, e));
                continue;
            }
            pending.push_back((id, root, due, sent, req));
        }
        if pending.is_empty() {
            match next.peek() {
                Some((_, due, _)) => {
                    sleep_until(*due);
                    continue;
                }
                None => break,
            }
        }
        // Wait for the oldest reply, but no longer than the next due time.
        let wait = next
            .peek()
            .map(|(_, due, _)| due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_secs(10))
            .max(Duration::from_micros(100));
        conn.set_read_timeout(Some(wait)).ok();
        match conn.peek(&mut buf) {
            Ok(0) => {
                // The server closed the connection: every pending request
                // failed.
                for (_, _, due, sent, req) in pending.drain(..) {
                    out.push(failed(phase, req, due, sent, "connection closed"));
                }
            }
            Ok(_) => {
                conn.set_read_timeout(Some(Duration::from_secs(10))).ok();
                let (id, root, due, sent, req) = pending.pop_front().expect("pending reply");
                let reply = tr
                    .span("protocol.read_frame", id, root, || read_frame(&mut conn))
                    .map_err(io_err)
                    .and_then(|r| r.ok_or_else(|| "connection closed".to_string()));
                tr.record(root, 0, id, "request", sent);
                out.push(Sample::new(phase, req, due, sent, reply));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => {
                for (_, _, due, sent, req) in pending.drain(..) {
                    out.push(failed(phase, req, due, sent, &e));
                }
            }
        }
    }
    out
}

fn failed(
    phase: Phase,
    req: Request,
    due: Instant,
    sent: Instant,
    e: impl std::fmt::Display,
) -> Sample {
    Sample::new(phase, req, due, sent, Err(e.to_string()))
}

/// Pings over `conn` until `until`. Pings touch no trail, cache or
/// idempotency ledger.
fn ping_until(conn: &mut TcpStream, until: Instant) {
    let ping = request(Op::Ping, TENANTS[0], String::new(), "", Default::default()).to_json();
    while Instant::now() < until {
        write_frame(conn, &ping).expect("ping");
        read_frame(conn).expect("pong");
    }
}

/// One generator thread of a closed-loop segment. On its own connection
/// it first sends `fill` and pings until `start`; from then on the next
/// request goes out when the previous reply is in, until `until`.
/// `serve_durable` requests share that connection; `serve_oneshot` ones
/// each open a fresh one.
fn closed(
    kind: Kind,
    tr: &Tracer,
    addr: SocketAddr,
    fill: Vec<Request>,
    reqs: Vec<(u64, Request)>,
    start: Instant,
    until: Instant,
) -> Vec<Sample> {
    let off = Tracer::new(false);
    let client = Client::new(&addr.to_string());
    let mut conn = connect(addr);
    let mut out: Vec<Sample> = fill
        .into_iter()
        .map(|req| {
            let sent = Instant::now();
            let reply = persistent_call(&off, &mut conn, 0, &req);
            Sample::new(Phase::Warmup, req, sent, sent, reply)
        })
        .collect();
    ping_until(&mut conn, start);
    // A oneshot request opens a connection of its own, so the thread
    // closes this one: no thread holds more than one connection.
    let mut conn = (kind == Kind::Durable).then_some(conn);
    for (id, req) in reqs {
        if Instant::now() >= until {
            break;
        }
        // The loop index within this thread, whatever the segment.
        let traced = trace::traced_job(tr, (id & 0xffff_ffff) as usize);
        let t = if traced { tr } else { &off };
        let sent = Instant::now();
        let reply = match (&mut conn, traced) {
            (Some(conn), _) => persistent_call(t, conn, id, &req),
            (None, true) => traced_oneshot(t, &client, addr, id, &req),
            (None, false) => client.request(&req).map_err(io_err),
        };
        let mut x = Sample::new(Phase::Closed, req, sent, sent, reply);
        x.traced = traced;
        out.push(x);
    }
    out
}

/// Pings over persistent connections from every generator thread, so the
/// processors are busy when the measured phases begin.
fn warm_up(addr: SocketAddr, seconds: f64) {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| ping_until(&mut connect(addr), until));
        }
    });
}

/// A started server and every request sent to it.
struct Running {
    handle: ServerHandle,
    state_dir: Option<PathBuf>,
    samples: Vec<Sample>,
}

/// Starts a server ready for load: `serve_oneshot` waits for the first
/// `pong`; `serve_durable` writes fixture trails first, then waits until
/// every tenant has answered one surveil (which resumes its trail).
fn start(kind: Kind, s: &Settings, rep: usize) -> (Running, f64) {
    let state_dir = (kind == Kind::Durable).then(|| {
        let dir = layers::scratch_dir(&format!("durable-{rep}"));
        for t in TENANTS {
            let tdir = dir.join(t);
            std::fs::create_dir_all(&tdir).expect("create tenant dir");
            layers::write_trail(&tdir.join("audit.log"), FIXTURE_RECORDS);
        }
        dir
    });
    let t0 = Instant::now();
    let handle = ServerHandle::spawn(ServerConfig {
        state_dir: state_dir.clone(),
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let mut samples = Vec::new();
    match kind {
        Kind::Oneshot => {
            let client = Client::new(&handle.addr().to_string());
            let ping = request(Op::Ping, TENANTS[0], String::new(), "", Default::default());
            let reply = client.request(&ping).expect("first ping");
            assert!(
                enf_serve::reply_is_ok(&reply),
                "ping answered {}",
                reply.render()
            );
        }
        Kind::Durable => {
            // One connection, accepted before the accept loop first
            // sleeps, so the set-up time is the trails' and not the
            // accept loop's.
            let mut conn = connect(handle.addr());
            for (i, t) in TENANTS.iter().enumerate() {
                let mut req = make_request(kind, s.seed, Phase::Warmup, rep, i * 10);
                req.tenant = t.to_string();
                let sent = Instant::now();
                let reply = persistent_call(&Tracer::new(false), &mut conn, 0, &req);
                samples.push(Sample::new(Phase::Warmup, req, sent, sent, reply));
            }
        }
    }
    let setup = t0.elapsed().as_secs_f64();
    (
        Running {
            handle,
            state_dir,
            samples,
        },
        setup,
    )
}

/// What the servers of a run answered, gathered as each one stops.
#[derive(Default)]
struct Served {
    samples: Vec<Sample>,
    shed: u64,
    /// Sweeps of one program, policy and op answered `cached: false` more
    /// than once by one server: concurrent misses of one cache key.
    dup_miss: usize,
    problems: Vec<String>,
}

impl Served {
    /// Stops a server, checks its trails against the replies it sent and
    /// removes its state.
    fn retire(&mut self, server: Running) {
        self.shed += server.handle.stop().shed;
        if let Some(dir) = &server.state_dir {
            self.problems.extend(check_trails(dir, &server.samples));
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut misses: HashMap<(&str, &str, u64), usize> = HashMap::new();
        for x in &server.samples {
            let Ok(reply) = &x.reply else { continue };
            if matches!(reply.get("cached"), Some(Json::Bool(false))) {
                let key = (
                    x.req.op.name(),
                    x.req.program.as_str(),
                    x.req.allow.to_bits(),
                );
                *misses.entry(key).or_default() += 1;
            }
        }
        self.dup_miss += misses.values().filter(|&&n| n > 1).count();
        self.samples.extend(server.samples);
    }
}

pub fn oneshot(s: &Settings, tr: &Tracer) -> Outcome {
    run(Kind::Oneshot, &ONESHOT, s, tr)
}

pub fn durable(s: &Settings, tr: &Tracer) -> Outcome {
    run(Kind::Durable, &DURABLE, s, tr)
}

fn run(kind: Kind, plan: &Plan, s: &Settings, tr: &Tracer) -> Outcome {
    let open_n = |rate: f64| {
        let n = (rate * OPEN_SHARE * s.seconds).round() as usize;
        n.clamp(THREADS, plan.open_cap)
    };
    let closed_n = ((plan.closed_per_s * s.seconds).round() as usize)
        .clamp(THREADS * SEGMENTS, plan.closed_cap);

    // Every request is built before the window opens.
    let phase_reqs = |phase: Phase, n: usize| -> Vec<Vec<(u64, Request)>> {
        (0..THREADS)
            .map(|th| {
                (0..n.div_ceil(THREADS))
                    .map(|k| {
                        (
                            request_id(phase, th, k),
                            make_request(kind, s.seed, phase, th, k),
                        )
                    })
                    .collect()
            })
            .collect()
    };
    let lo_reqs = phase_reqs(Phase::Lo, open_n(plan.lo));
    let hi_reqs = phase_reqs(Phase::Hi, open_n(plan.hi));
    let closed_reqs = phase_reqs(Phase::Closed, closed_n);
    let probe_jobs: Vec<Request> = if tr.on() {
        [&lo_reqs, &hi_reqs, &closed_reqs]
            .into_iter()
            .flatten()
            .flatten()
            .map(|(_, req)| req.clone())
            .collect()
    } else {
        Vec::new()
    };

    // The open loop: both phases against one server.
    let mut served = Served::default();
    let (mut server, _) = start(kind, s, 0);
    let addr = server.handle.addr();
    warm_up(addr, stats::warmup_seconds(s));
    let (mut cpu, mut written) = (0.0, 0.0);
    let mut phase_wall = BTreeMap::new();
    for (phase, rate, reqs) in [(Phase::Lo, plan.lo, lo_reqs), (Phase::Hi, plan.hi, hi_reqs)] {
        let (c0, b0) = (stats::cpu_seconds(), stats::wchar_bytes());
        let t0 = Instant::now() + Duration::from_millis(10);
        let results: Vec<Vec<Sample>> = std::thread::scope(|scope| {
            let handles: Vec<_> = reqs
                .into_iter()
                .enumerate()
                .map(|(th, reqs)| {
                    let times = schedule(s.seed, phase, th, rate, reqs.len(), t0);
                    let reqs: Vec<(u64, Instant, Request)> = reqs
                        .into_iter()
                        .zip(times)
                        .map(|((id, req), due)| (id, due, req))
                        .collect();
                    scope.spawn(move || match kind {
                        Kind::Oneshot => oneshot_open(tr, addr, phase, reqs),
                        Kind::Durable => durable_open(tr, addr, phase, reqs),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        phase_wall.insert(phase, t0.elapsed().as_secs_f64());
        cpu += stats::cpu_seconds() - c0;
        written += stats::wchar_bytes() - b0;
        server.samples.extend(results.into_iter().flatten());
    }
    served.retire(server);

    // The closed loop: segments, each against a server started for it.
    // Their metrics are interquartile means over segments.
    let per_segment: Vec<usize> = closed_reqs
        .iter()
        .map(|r| r.len().div_ceil(SEGMENTS))
        .collect();
    let mut closed_reqs: Vec<std::vec::IntoIter<(u64, Request)>> =
        closed_reqs.into_iter().map(Vec::into_iter).collect();
    let limit =
        Duration::from_secs_f64((CLOSED_SHARE * s.seconds * 3.0 / SEGMENTS as f64).max(1.0));
    let pause = Duration::from_secs_f64(if s.quick { 0.05 } else { plan.pause_s });
    let mut setups = Vec::new();
    let mut segments: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut probes = Vec::new();
    for seg in 0..SEGMENTS {
        let (mut server, setup) = start(kind, s, seg + 1);
        setups.push(setup);
        let addr = server.handle.addr();
        let t0 = Instant::now() + pause;
        let (results, c0, b0) = std::thread::scope(|scope| {
            let handles: Vec<_> = closed_reqs
                .iter_mut()
                .zip(&per_segment)
                .enumerate()
                .map(|(th, (reqs, &n))| {
                    let fill = match kind {
                        Kind::Durable => pool_fill(s.seed, seg, th),
                        Kind::Oneshot => Vec::new(),
                    };
                    let reqs: Vec<(u64, Request)> = reqs.take(n).collect();
                    scope.spawn(move || closed(kind, tr, addr, fill, reqs, t0, t0 + limit))
                })
                .collect();
            sleep_until(t0);
            let (c0, b0) = (stats::cpu_seconds(), stats::wchar_bytes());
            let results: Vec<Sample> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("generator thread"))
                .collect();
            (results, c0, b0)
        });
        cpu += stats::cpu_seconds() - c0;
        written += stats::wchar_bytes() - b0;
        let measured: Vec<&Sample> = results
            .iter()
            .filter(|x| x.phase == Phase::Closed)
            .collect();
        if let (Some(first), Some(last)) = (
            measured.iter().map(|x| x.sent).min(),
            measured.iter().map(|x| x.done).max(),
        ) {
            segments.push((
                (last - first).as_secs_f64(),
                measured.iter().map(|x| x.latency_ms()).collect(),
            ));
        }
        server.samples.extend(results);
        if tr.on() && seg + 1 == SEGMENTS {
            probes = layers::probe(s, tr, &probe_jobs, Some(addr));
        }
        served.retire(server);
    }
    let closed_wall: f64 = segments.iter().map(|(wall, _)| wall).sum();
    let Served {
        samples: all,
        shed,
        dup_miss,
        problems,
    } = served;

    // Oracle: every reply against in-process execution of its request.
    let mut o = Outcome {
        metrics: probes,
        ..Outcome::default()
    };
    for problem in problems {
        o.mismatch(problem);
    }
    let fuel = server_fuel();
    let eval = EvalConfig::with_threads(1);
    type Key<'a> = (&'static str, &'a str, u64, &'a [enf_core::V], i64);
    let mut memo: HashMap<Key, Result<Expected, String>> = HashMap::new();
    for x in &all {
        let verdict = x.reply.clone().and_then(|reply| {
            let r = &x.req;
            let key = (
                r.op.name(),
                r.program.as_str(),
                r.allow.to_bits(),
                r.input.as_slice(),
                r.span,
            );
            let want = memo
                .entry(key)
                .or_insert_with(|| execute(r, fuel, &eval))
                .clone()?;
            check_reply(r, &reply, &want, fuel)
        });
        o.attempt(verdict.map_err(|e| format!("{} {:?}: {e}", x.req.job, x.req.op)));
    }

    // Metrics.
    let by_phase = |p: Phase| -> Vec<&Sample> { all.iter().filter(|x| x.phase == p).collect() };
    let lat = |xs: &[&Sample]| -> Vec<f64> { xs.iter().map(|x| x.latency_ms()).collect() };
    let (lo, hi, cl) = (
        by_phase(Phase::Lo),
        by_phase(Phase::Hi),
        by_phase(Phase::Closed),
    );
    let measured = lo.len() + hi.len() + cl.len();
    o.metrics
        .push(Metric::new("setup_s", "s", median(&setups), setups.len()));
    let (rate, p50) = stats::window_means(&segments);
    o.metrics.push(Metric::new(
        "throughput_jobs_per_s",
        "jobs/s",
        rate,
        cl.len(),
    ));
    o.metrics
        .push(Metric::new("latency_p50_ms", "ms", p50, cl.len()));
    o.metrics.push(Metric::new(
        "throughput_jobs_per_s.whole",
        "jobs/s",
        cl.len() as f64 / closed_wall,
        cl.len(),
    ));
    for (tag, xs) in [("lo", &lo), ("hi", &hi), ("closed", &cl)] {
        let l = lat(xs);
        if tag != "closed" {
            o.metrics.push(Metric::new(
                &format!("latency_p50_ms.{tag}"),
                "ms",
                median(&l),
                l.len(),
            ));
        }
        o.metrics.push(Metric::new(
            &format!("latency_p99_ms.{tag}"),
            "ms",
            quantile(&l, 0.99),
            l.len(),
        ));
    }
    for (tag, xs, wall) in [
        ("lo", &lo, phase_wall[&Phase::Lo]),
        ("hi", &hi, phase_wall[&Phase::Hi]),
    ] {
        o.metrics.push(Metric::new(
            &format!("offered_rate.{tag}"),
            "jobs/s",
            xs.len() as f64 / wall,
            xs.len(),
        ));
        o.metrics.push(Metric::new(
            &format!("backlog_ratio.{tag}"),
            "ratio",
            backlog_ratio(xs),
            xs.len(),
        ));
    }
    let late: Vec<f64> = lo
        .iter()
        .chain(&hi)
        .map(|x| ms(x.sent.saturating_duration_since(x.due)))
        .collect();
    o.metrics.push(Metric::new(
        "bench.gen_late_ms_p99",
        "ms",
        quantile(&late, 0.99),
        late.len(),
    ));
    o.metrics.push(Metric::new(
        "proc.cpu_s_per_job",
        "s",
        cpu / measured as f64,
        measured,
    ));
    let sweeps: Vec<&Sample> = lo
        .iter()
        .chain(&hi)
        .chain(&cl)
        .copied()
        .filter(|x| matches!(x.req.op, Op::Check | Op::Refute))
        .collect();
    let tuples: i128 = sweeps
        .iter()
        .filter_map(|x| x.reply.as_ref().ok()?.get("total")?.as_int())
        .sum();
    let window = phase_wall.values().sum::<f64>() + closed_wall;
    o.metrics.push(Metric::new(
        "tuples_per_s",
        "inputs/s",
        tuples as f64 / window,
        sweeps.len(),
    ));
    let hits = sweeps
        .iter()
        .filter(|x| {
            matches!(
                x.reply.as_ref().map(|r| r.get("cached")),
                Ok(Some(Json::Bool(true)))
            )
        })
        .count();
    o.metrics.push(Metric::new(
        "serve.cache.hit_ratio",
        "ratio",
        hits as f64 / sweeps.len().max(1) as f64,
        sweeps.len(),
    ));
    o.metrics.push(Metric::new(
        "serve.cache.dup_miss",
        "count",
        dup_miss as f64,
        sweeps.len(),
    ));
    o.metrics.push(Metric::new(
        "serve.shed_ratio",
        "ratio",
        shed as f64 / all.len() as f64,
        all.len(),
    ));
    if kind == Kind::Durable {
        o.metrics.push(Metric::new(
            "write_kb_per_job",
            "KB",
            written / 1024.0 / measured as f64,
            measured,
        ));
    }
    let closed_lat = |traced: bool| -> Vec<f64> {
        cl.iter()
            .filter(|x| x.traced == traced)
            .map(|x| x.latency_ms())
            .collect()
    };
    let untraced = closed_lat(false);
    if kind == Kind::Oneshot {
        o.metrics.push(Metric::new(
            "serve.client.request_ms_p50",
            "ms",
            median(&untraced),
            untraced.len(),
        ));
    }
    if tr.on() {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        o.metrics.push(Metric::new(
            "trace.overhead_ratio",
            "ratio",
            mean(&closed_lat(true)) / mean(&untraced),
            cl.len(),
        ));
    }
    o
}

/// p50 latency of the last second of a phase over that of its first:
/// near 1 when the server keeps up, growing with a backlog.
fn backlog_ratio(xs: &[&Sample]) -> f64 {
    let (Some(first), Some(last)) = (
        xs.iter().map(|x| x.due).min(),
        xs.iter().map(|x| x.due).max(),
    ) else {
        return f64::NAN;
    };
    let window = Duration::from_secs(1).min((last - first) / 2);
    let head: Vec<f64> = xs
        .iter()
        .filter(|x| x.due <= first + window)
        .map(|x| x.latency_ms())
        .collect();
    let tail: Vec<f64> = xs
        .iter()
        .filter(|x| x.due + window >= last)
        .map(|x| x.latency_ms())
        .collect();
    median(&tail) / median(&head)
}

/// Every tenant trail must verify and hold exactly the records its
/// replies imply: the fixtures, one `grant` once anything was released,
/// the attest/refuse/certify/release records of each surveil and certify,
/// and one note per sweep answered without the cache.
fn check_trails(dir: &std::path::Path, all: &[Sample]) -> Vec<String> {
    let mut problems = Vec::new();
    for tenant in TENANTS {
        let text = match std::fs::read_to_string(dir.join(tenant).join("audit.log")) {
            Ok(t) => t,
            Err(e) => {
                problems.push(format!("{tenant}: cannot read trail: {e}"));
                continue;
            }
        };
        if let verdict @ enf_policy::ChainVerdict::Tampered { .. } = verify_chain(&text) {
            problems.push(format!("{tenant}: trail fails verification: {verdict:?}"));
            continue;
        }
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for line in text.lines() {
            let rec = enf_core::json::parse(line).unwrap_or(Json::Null);
            let kind = rec.get("kind").and_then(Json::as_str).unwrap_or("?");
            let message = rec.get("message").and_then(Json::as_str).unwrap_or("");
            let key = match kind {
                "note" if message.starts_with("fixture record") => "fixture",
                "note" if message.starts_with("serve ") => "sweep-note",
                "attest" | "refuse" | "certify" | "release" => "job",
                other => other,
            };
            *counts.entry(key.to_string()).or_default() += 1;
        }
        let (mut job, mut notes, mut released) = (0, 0, false);
        for x in all.iter().filter(|x| x.req.tenant == tenant) {
            let Ok(reply) = &x.reply else { continue };
            let verdict = reply.get("verdict").and_then(Json::as_str).unwrap_or("");
            match x.req.op {
                Op::Surveil if verdict == "released" => {
                    job += 2;
                    released = true;
                }
                Op::Surveil => job += 1,
                Op::Certify => {
                    job += 1;
                    if reply.get("value").is_some() {
                        job += 2;
                        released = true;
                    }
                }
                Op::Check | Op::Refute => {
                    if matches!(reply.get("cached"), Some(Json::Bool(false))) {
                        notes += 1;
                    }
                }
                Op::Ping => {}
            }
        }
        let expect = [
            ("fixture", FIXTURE_RECORDS),
            ("grant", usize::from(released)),
            ("job", job),
            ("sweep-note", notes),
        ];
        let got: Vec<(&str, usize)> = expect
            .iter()
            .map(|(k, _)| (*k, counts.remove(*k).unwrap_or(0)))
            .collect();
        if got.iter().zip(&expect).any(|(g, e)| g.1 != e.1) || !counts.is_empty() {
            problems.push(format!(
                "{tenant}: trail holds {got:?} and {counts:?}, replies imply {expect:?}"
            ));
        }
    }
    problems
}
