//! In-process replay of requests through the library layers: the oracle
//! every reply is checked against, and the per-layer probes of a traced
//! run.
//!
//! A traced run takes a deterministic 1-in-k sample of the workload's own
//! jobs and times each layer's public function on them from outside:
//! request rendering and framing, parsing, bytecode compilation, the
//! enforcer's paths, the certifiers, the sweep engine and the VM. Layers
//! that take no job input (the audit trail, the accept loop) are probed
//! with fixed sizes. The same probes run on every workload, so every
//! workload reports every per-layer metric.

use crate::gen;
use crate::stats::{self, median, ms, us};
use crate::trace::Tracer;
use crate::{Metric, Settings};
use enf_core::{
    try_check_soundness_with, Allow, CancelToken, EvalConfig, Grid, Identity, IndexSet,
    InputDomain, Json, Program as _, SoundnessReport, Verdict, V,
};
use enf_flowchart::{Compiled, ExecValue, Flowchart, FlowchartProgram};
use enf_policy::{
    verify_chain, AuditLog, Capability, CertifyOutcome, Enforcer, FlushPolicy, RunVerdict, Sink,
    Tainted,
};
use enf_serve::{read_frame, write_frame, Client, Op, Request, ServerConfig, ServerHandle};
use enf_static::certify::{certify, Analysis};
use enf_surveillance::dynamic::{SurvConfig, SurvOutcome};
use enf_surveillance::vm::run_surveillance_vm;
use enf_surveillance::VmSurveillance;
use std::collections::BTreeMap;
use std::io::Cursor;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The server's fuel for requests that do not set one.
pub fn server_fuel() -> u64 {
    ServerConfig::default().default_fuel
}

/// A request document as a client builds it.
pub fn request(op: Op, tenant: &str, job: String, program: &str, allow: IndexSet) -> Request {
    Request {
        op,
        tenant: tenant.to_string(),
        job,
        program: program.to_string(),
        allow,
        input: Vec::new(),
        span: 2,
        deadline_ms: None,
        budget: None,
        block: 256,
        fuel: 0,
        chaos: None,
    }
}

/// The half-width a sweep probe uses for a program of this arity: about
/// 70k–84k inputs, the size of a `check_sweep` job and well above the
/// engine's sequential threshold.
pub fn probe_span(arity: usize) -> i64 {
    match arity {
        0 | 1 => 30_000,
        2 => 140,
        3 => 20,
        4 => 8,
        5 => 4,
        _ => 2,
    }
}

pub fn certify_span(a: Analysis) -> &'static str {
    match a {
        Analysis::Surveillance => "certify.surveillance",
        Analysis::ValueRefined => "certify.value_refined",
        Analysis::Relational => "certify.relational",
        Analysis::DynamicPolicy => "certify.dynamic",
        Analysis::Scoped => "certify.scoped",
        Analysis::LatticeCertified => "certify.lattice",
    }
}

/// What a correct server answers to a request: its decisive fields.
#[derive(Clone, Debug, PartialEq)]
pub enum Expected {
    /// `Ok(value)` released, `Err(reason)` refused.
    Surveil(Result<V, String>),
    Certify {
        certified: bool,
        value: Option<String>,
    },
    Check {
        verdict: String,
        total: usize,
    },
    Refute {
        leak: bool,
        total: usize,
    },
}

fn parse(program: &str) -> Result<Flowchart, String> {
    enf_flowchart::parse(program).map_err(|e| format!("parse: {e}"))
}

/// Executes `req` in-process through the library, as a server worker
/// does, on a private in-memory trail.
pub fn execute(req: &Request, fuel: u64, eval: &EvalConfig) -> Result<Expected, String> {
    let fc = parse(&req.program)?;
    if req.op == Op::Refute {
        let program = FlowchartProgram::with_fuel(fc, fuel);
        let arity = program.arity();
        let cov = try_check_soundness_with(
            &Identity::new(program),
            &Allow::from_set(arity, req.allow),
            &Grid::hypercube(arity, -req.span..=req.span),
            false,
            eval,
            &CancelToken::new(),
        )
        .map_err(|e| e.to_string())?;
        return Ok(Expected::Refute {
            leak: cov.verdict == Verdict::Refuted,
            total: cov.total,
        });
    }
    let enforcer = Enforcer::new(fc, req.allow)
        .map_err(|e| e.to_string())?
        .with_fuel(fuel);
    let mut log = AuditLog::in_memory();
    let err = |e: enf_policy::PolicyError| e.to_string();
    Ok(match req.op {
        Op::Surveil => match enforcer
            .surveil(Tainted::new(req.input.clone()), &mut log)
            .map_err(err)?
        {
            RunVerdict::Released(v) => {
                let cap = Capability::issue("oracle", &mut log).map_err(|e| e.to_string())?;
                let value = Sink::new(cap, &mut log)
                    .release(v)
                    .map_err(|e| e.to_string())?;
                Expected::Surveil(Ok(value))
            }
            RunVerdict::Refused(enf_policy::Refusal::Violation { .. }) => {
                Expected::Surveil(Err("violation".to_string()))
            }
            RunVerdict::Refused(enf_policy::Refusal::OutOfFuel { .. }) => {
                Expected::Surveil(Err("out_of_fuel".to_string()))
            }
        },
        Op::Certify => match enforcer
            .certify(Analysis::Surveillance, &mut log)
            .map_err(err)?
        {
            CertifyOutcome::Certified(cert) => {
                let value = if req.input.is_empty() {
                    None
                } else {
                    let v = cert
                        .run(Tainted::new(req.input.clone()), &mut log)
                        .map_err(err)?;
                    let cap = Capability::issue("oracle", &mut log).map_err(|e| e.to_string())?;
                    let value = Sink::new(cap, &mut log)
                        .release(v)
                        .map_err(|e| e.to_string())?;
                    Some(value.to_string())
                };
                Expected::Certify {
                    certified: true,
                    value,
                }
            }
            CertifyOutcome::Rejected { .. } => Expected::Certify {
                certified: false,
                value: None,
            },
        },
        Op::Check | Op::Refute => {
            let out = enforcer
                .sweep(req.span, eval, &CancelToken::new(), &mut log)
                .map_err(err)?;
            Expected::Check {
                verdict: out.verdict().tag().to_string(),
                total: out.total(),
            }
        }
        Op::Ping => return Err("ping has no execution".to_string()),
    })
}

fn field<'a>(reply: &'a Json, key: &str) -> Option<&'a Json> {
    reply.get(key)
}

fn str_field<'a>(reply: &'a Json, key: &str) -> Option<&'a str> {
    field(reply, key).and_then(Json::as_str)
}

fn int_field(reply: &Json, key: &str) -> Option<i128> {
    field(reply, key).and_then(Json::as_int)
}

fn tuple(reply: &Json, key: &str) -> Option<Vec<V>> {
    field(reply, key)?
        .as_arr()?
        .iter()
        .map(|j| j.as_int().and_then(|n| V::try_from(n).ok()))
        .collect()
}

/// Checks a server reply against the in-process answer. A refutation's
/// witness pair is replayed: the two inputs must look the same through
/// the policy and make the program output different values.
pub fn check_reply(req: &Request, reply: &Json, want: &Expected, fuel: u64) -> Result<(), String> {
    if !enf_serve::reply_is_ok(reply) {
        return Err(format!("error reply {}", reply.render()));
    }
    let verdict = str_field(reply, "verdict").unwrap_or("");
    let ok = match want {
        Expected::Surveil(Ok(v)) => {
            verdict == "released" && int_field(reply, "value") == Some(i128::from(*v))
        }
        Expected::Surveil(Err(reason)) => {
            verdict == "refused" && str_field(reply, "reason") == Some(reason)
        }
        Expected::Certify { certified, value } => {
            verdict == if *certified { "certified" } else { "rejected" }
                && str_field(reply, "value") == value.as_deref()
        }
        Expected::Check { verdict: v, total } => {
            verdict == v && int_field(reply, "total") == Some(*total as i128)
        }
        Expected::Refute { leak, total } => {
            let flag = matches!(field(reply, "leak"), Some(Json::Bool(true)));
            flag == *leak
                && int_field(reply, "total") == Some(*total as i128)
                && (!*leak || replay_witness(req, reply, fuel).is_ok())
        }
    };
    if ok {
        Ok(())
    } else {
        let detail = match want {
            Expected::Refute { leak: true, .. } => {
                replay_witness(req, reply, fuel).err().unwrap_or_default()
            }
            _ => String::new(),
        };
        Err(format!(
            "reply {} does not match {want:?} {detail}",
            reply.render()
        ))
    }
}

fn replay_witness(req: &Request, reply: &Json, fuel: u64) -> Result<(), String> {
    let (Some(a), Some(b)) = (tuple(reply, "witness_a"), tuple(reply, "witness_b")) else {
        return Err("leak without a witness pair".to_string());
    };
    let program = FlowchartProgram::with_fuel(parse(&req.program)?, fuel);
    if a.len() != program.arity() || b.len() != program.arity() {
        return Err("witness arity differs from the program's".to_string());
    }
    if req.allow.iter().any(|i| a[i - 1] != b[i - 1]) {
        return Err("witness inputs differ on an allowed index".to_string());
    }
    let (out_a, out_b) = (program.eval(&a), program.eval(&b));
    let shown = |o: &ExecValue| o.to_string();
    if out_a == out_b
        || str_field(reply, "out_a") != Some(&shown(&out_a))
        || str_field(reply, "out_b") != Some(&shown(&out_b))
    {
        return Err(format!(
            "witness replays to {} and {}",
            shown(&out_a),
            shown(&out_b)
        ));
    }
    Ok(())
}

/// Times `f` and records it as a span of request `req`.
fn timed<R>(tr: &Tracer, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, Duration) {
    let id = tr.id();
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    tr.record(id, 0, req, name, start);
    (out, elapsed)
}

const PROBE_JOBS: usize = 16;
const PROBE_SWEEPS: usize = 4;

/// Per-call times of the layers a probe calls, in microseconds, by span
/// name.
struct Calls<'t> {
    tr: &'t Tracer,
    us: BTreeMap<&'static str, Vec<f64>>,
}

impl Calls<'_> {
    fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let (out, d) = timed(self.tr, name, req, f);
        self.us.entry(name).or_default().push(us(d));
        out
    }

    /// `<span>_us_p50` with its sample count.
    fn p50(&self, name: &'static str) -> Metric {
        let v = self.us.get(name).map(Vec::as_slice).unwrap_or_default();
        Metric::new(&format!("{name}_us_p50"), "us", median(v), v.len())
    }
}

/// The per-layer probes of a traced run over the workload's `jobs`.
/// `server` is the workload's own server; without one an in-memory
/// server is spawned for the serve-layer probes.
pub fn probe(
    s: &Settings,
    tr: &Tracer,
    jobs: &[Request],
    server: Option<SocketAddr>,
) -> Vec<Metric> {
    let k = (jobs.len() / PROBE_JOBS).max(1);
    let sample: Vec<(u64, &Request)> = jobs
        .iter()
        .enumerate()
        .step_by(k)
        .take(PROBE_JOBS)
        .map(|(i, r)| (i as u64 + 1, r))
        .collect();

    // Request encoding, framing, parsing, compiling, the enforcer's
    // monitored path and the certifiers, on each sampled job.
    const CERTIFIERS: [Analysis; 4] = [
        Analysis::Surveillance,
        Analysis::ValueRefined,
        Analysis::Relational,
        Analysis::DynamicPolicy,
    ];
    let mut calls = Calls {
        tr,
        us: BTreeMap::new(),
    };
    let mut programs: Vec<(u64, Flowchart, IndexSet)> = Vec::new();
    for &(id, req) in &sample {
        let text = calls.time("json.render", id, || req.to_json().render());
        let doc = calls
            .time("json.parse", id, || enf_core::json::parse(&text))
            .expect("a rendered request parses");
        let mut buf = Vec::new();
        calls
            .time("protocol.write_frame", id, || write_frame(&mut buf, &doc))
            .expect("framing into memory");
        calls
            .time("protocol.read_frame", id, || {
                read_frame(&mut Cursor::new(&buf))
            })
            .expect("a written frame reads back");
        let Ok(fc) = calls.time("flowchart.parse", id, || enf_flowchart::parse(&req.program))
        else {
            continue;
        };
        calls.time("flowchart.compile", id, || Compiled::new(&fc));
        if !fc.has_policy_nodes() {
            let input = if req.input.len() == fc.arity() {
                req.input.clone()
            } else {
                gen::input(&mut gen::rng(s.seed, 0x5e, id), fc.arity(), 5)
            };
            if let Ok(e) = Enforcer::new(fc.clone(), req.allow) {
                let e = e.with_fuel(server_fuel());
                calls
                    .time("enforcer.surveil", id, || {
                        e.surveil(Tainted::new(input), &mut AuditLog::in_memory())
                    })
                    .expect("a sampled program surveils its own arity");
            }
        }
        for a in CERTIFIERS {
            calls.time(certify_span(a), id, || certify(&fc, req.allow, a));
        }
        programs.push((id, fc, req.allow));
    }
    let mut out: Vec<Metric> = [
        "json.render",
        "json.parse",
        "protocol.write_frame",
        "protocol.read_frame",
        "flowchart.parse",
        "flowchart.compile",
        "enforcer.surveil",
    ]
    .into_iter()
    .chain(CERTIFIERS.map(certify_span))
    .map(|name| calls.p50(name))
    .collect();

    // The sweep engine at one and two threads, the enforcer's sweep
    // against a direct call of the engine, and raw VM speed.
    let sweeps: Vec<&(u64, Flowchart, IndexSet)> = programs
        .iter()
        .filter(|(_, fc, _)| !fc.has_policy_nodes())
        .take(if s.quick { 1 } else { PROBE_SWEEPS })
        .collect();
    let fuel = server_fuel();
    let (mut tuples, mut t1_s, mut t2_s, mut direct_s) = (0usize, 0.0, 0.0, 0.0);
    let (mut steps, mut vm_s) = (0u64, 0.0);
    for (id, fc, allow) in &sweeps {
        let span = probe_span(fc.arity());
        let enforcer = Enforcer::new(fc.clone(), *allow)
            .expect("sampled programs bind")
            .with_fuel(fuel);
        let sweep = |threads: usize, name: &'static str| {
            timed(tr, name, *id, || {
                enforcer
                    .sweep(
                        span,
                        &EvalConfig::with_threads(threads),
                        &CancelToken::new(),
                        &mut AuditLog::in_memory(),
                    )
                    .map(|o| o.total())
                    .unwrap_or(0)
            })
        };
        let (total, d1) = sweep(1, "sweep.t1");
        let (_, d2) = sweep(2, "sweep.t2");
        let (_, dd) = timed(tr, "soundness.direct", *id, || {
            let arity = fc.arity();
            try_check_soundness_with(
                &VmSurveillance::new(FlowchartProgram::with_fuel(fc.clone(), fuel), *allow),
                &Allow::from_set(arity, *allow),
                &Grid::hypercube(arity, -span..=span),
                false,
                &EvalConfig::with_threads(2),
                &CancelToken::new(),
            )
            .map(|c| matches!(c.report, Some(SoundnessReport::Sound { .. })))
        });
        tuples += total;
        t1_s += d1.as_secs_f64();
        t2_s += d2.as_secs_f64();
        direct_s += dd.as_secs_f64();

        let compiled = Compiled::new(fc);
        let cfg = SurvConfig::surveillance(*allow).with_fuel(fuel);
        let grid = Grid::hypercube(fc.arity(), -span..=span);
        let (n_steps, d) = timed(tr, "vm.run", *id, || {
            grid.iter_inputs()
                .take(20_000)
                .map(|x| match run_surveillance_vm(&compiled, &x, &cfg) {
                    SurvOutcome::Accepted { steps, .. } | SurvOutcome::Violation { steps, .. } => {
                        steps
                    }
                    SurvOutcome::OutOfFuel => fuel,
                })
                .sum::<u64>()
        });
        steps += n_steps;
        vm_s += d.as_secs_f64();
    }
    let ns = sweeps.len();
    out.extend([
        Metric::new(
            "sweep.tuples_per_s.t1",
            "inputs/s",
            tuples as f64 / t1_s,
            ns,
        ),
        Metric::new(
            "sweep.tuples_per_s.t2",
            "inputs/s",
            tuples as f64 / t2_s,
            ns,
        ),
        Metric::new("sweep.par_efficiency", "ratio", t1_s / (2.0 * t2_s), ns),
        Metric::new(
            "enforcer.sweep_overhead_ratio",
            "ratio",
            t2_s / direct_s,
            ns,
        ),
        Metric::new("vm.steps_per_s", "steps/s", steps as f64 / vm_s, ns),
    ]);
    out.extend(audit_probes(s, tr));
    out.extend(serve_probes(s, tr, &sample, server));
    out
}

/// A scratch directory inside the working directory, private to this
/// process; removed by the caller.
pub fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(crate::RUN_DIR)
        .join(std::process::id().to_string())
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes a trail of `n` fixture records with one persist.
pub fn write_trail(path: &std::path::Path, n: usize) {
    let mut log = AuditLog::create(path, FlushPolicy::Manual).expect("create fixture trail");
    for k in 0..n {
        log.note(&format!("fixture record {k}")).expect("note");
    }
    log.persist().expect("persist fixture trail");
}

/// `AuditLog::note` on a durable trail of 1000 and 4000 records, and
/// resuming and verifying the 4000-record trail.
fn audit_probes(s: &Settings, tr: &Tracer) -> Vec<Metric> {
    let dir = scratch_dir("audit-probe");
    let appends = if s.quick { 3 } else { 20 };
    let reps = 3;
    let mut out = Vec::new();
    for n in [1000usize, 4000] {
        let path = dir.join(format!("n{n}.log"));
        write_trail(&path, n);
        let mut log = AuditLog::resume(&path, FlushPolicy::EveryRecord).expect("resume trail");
        let w0 = stats::wchar_bytes();
        let mut times = Vec::new();
        for i in 0..appends {
            let (r, d) = timed(tr, "audit.append", i as u64, || log.note("probe append"));
            r.expect("append to probe trail");
            times.push(us(d));
        }
        let written = stats::wchar_bytes() - w0;
        out.push(Metric::new(
            &format!("audit.append_us.n{n}"),
            "us",
            median(&times),
            appends,
        ));
        if n == 1000 {
            out.push(Metric::new(
                "audit.write_kb_per_append.n1000",
                "KB",
                written / appends as f64 / 1024.0,
                appends,
            ));
        } else {
            drop(log);
            write_trail(&path, n);
            let mut resume = Vec::new();
            let mut verify = Vec::new();
            for i in 0..reps {
                let (r, d) = timed(tr, "audit.resume", i, || {
                    AuditLog::resume(&path, FlushPolicy::EveryRecord)
                });
                r.expect("resume trail");
                resume.push(ms(d));
                let text = std::fs::read_to_string(&path).expect("read trail");
                let (v, d) = timed(tr, "audit.verify", i, || verify_chain(&text));
                assert!(v.is_intact(), "fixture trail verifies");
                verify.push(ms(d));
            }
            out.push(Metric::new(
                "audit.resume_ms.n4000",
                "ms",
                median(&resume),
                reps as usize,
            ));
            out.push(Metric::new(
                "audit.verify_ms.n4000",
                "ms",
                median(&verify),
                reps as usize,
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The accept loop (fresh-connection `ping` round trip minus a
/// persistent-connection one) and the residence of sampled jobs in the
/// server (persistent-connection round trip), less their in-process
/// execution time.
fn serve_probes(
    s: &Settings,
    tr: &Tracer,
    sample: &[(u64, &Request)],
    server: Option<SocketAddr>,
) -> Vec<Metric> {
    let own = match server {
        Some(_) => None,
        None => Some(ServerHandle::spawn(ServerConfig::default()).expect("spawn probe server")),
    };
    let addr = server.unwrap_or_else(|| own.as_ref().expect("probe server").addr());
    let pings = if s.quick { 20 } else { 200 };
    let ping = request(Op::Ping, "probe", String::new(), "", IndexSet::empty()).to_json();

    let client = Client::new(&addr.to_string());
    let mut fresh = Vec::new();
    for i in 0..pings {
        let (r, d) = timed(tr, "serve.ping_fresh", i, || {
            client.call(&ping, "probe-ping")
        });
        r.expect("fresh ping");
        fresh.push(us(d));
    }
    let mut conn = TcpStream::connect(addr).expect("connect probe");
    conn.set_nodelay(true).ok();
    let mut persistent = Vec::new();
    for i in 0..pings {
        let (r, d) = timed(tr, "serve.ping", i, || {
            write_frame(&mut conn, &ping).map_err(|e| e.to_string())?;
            read_frame(&mut conn).map_err(|e| e.to_string())
        });
        r.expect("persistent ping");
        persistent.push(us(d));
    }

    // Residence: each sampled job again, under the probe tenant and a
    // fresh job key so neither the idempotency ledger nor the workload's
    // trails see it; then its in-process replay.
    let fuel = server_fuel();
    let (mut residence, mut dispatch) = (Vec::new(), Vec::new());
    for &(id, req) in sample {
        let mut probe_req = req.clone();
        probe_req.tenant = "probe".to_string();
        probe_req.job = format!("probe-{}-{id}", s.seed);
        let doc = probe_req.to_json();
        let (reply, d) = timed(tr, "serve.residence", id, || {
            write_frame(&mut conn, &doc).map_err(|e| e.to_string())?;
            read_frame(&mut conn).map_err(|e| e.to_string())
        });
        let ok = matches!(&reply, Ok(Some(r)) if enf_serve::reply_is_ok(r));
        let (_, exec) = timed(tr, "replay.execute", id, || {
            execute(&probe_req, fuel, &EvalConfig::new())
        });
        if ok {
            residence.push(us(d));
            dispatch.push(us(d) - us(exec));
        }
    }
    drop(conn);
    if let Some(h) = own {
        h.stop();
    }
    vec![
        Metric::new(
            "serve.accept_wait_ms",
            "ms",
            (median(&fresh) - median(&persistent)) / 1e3,
            pings as usize,
        ),
        Metric::new(
            "serve.ping_rtt_us_p50",
            "us",
            median(&persistent),
            pings as usize,
        ),
        Metric::new(
            "serve.residence_us_p50",
            "us",
            median(&residence),
            residence.len(),
        ),
        Metric::new(
            "serve.dispatch_us_p50",
            "us",
            median(&dispatch),
            dispatch.len(),
        ),
    ]
}
