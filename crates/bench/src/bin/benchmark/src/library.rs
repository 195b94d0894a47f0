//! The two library workloads: the pipeline the `enforce` CLI is built on,
//! called the way an embedder calls it, one job at a time.

use crate::gen::{self, Program};
use crate::layers;
use crate::stats::{self, median, ms, quantile};
use crate::trace::{self, Tracer};
use crate::{Metric, Outcome, Settings};
use enf_core::{CancelToken, EvalConfig, IndexSet, Verdict};
use enf_flowchart::generate::GenConfig;
use enf_policy::{AuditLog, Enforcer, Engine};
use enf_serve::{Op, Request};
use enf_static::certify::{certify, Analysis, Certification};
use std::time::{Duration, Instant};

const CHECK_STREAM: u64 = 0xc4ec;
const CERTIFY_STREAM: u64 = 0xce27;

/// Fuel for `check_sweep` jobs: far above the longest run of any
/// generated program, so a sweep can only confirm.
const CHECK_FUEL: u64 = 100_000;

/// Sweep workers of a `check_sweep` job. One, not two: on a two-processor
/// virtual machine shared with other tenants, two-thread sweeps spread
/// throughput across ten seeds by 25%, one-thread sweeps by about half
/// that. The per-layer probe still times both thread counts.
const CHECK_THREADS: usize = 1;

/// Check jobs alternate between these shapes: about 69k and 84k inputs.
const CHECK_SHAPES: [(usize, i64); 2] = [(3, 20), (4, 8)];

/// Pool sizes. Jobs cycle through the pool, so the pool, not the run
/// length, fixes which programs a seed measures; it is large enough that
/// the mean job cost of a pool varies little between seeds. A certify
/// job's cost is heavy-tailed (see the README), so its pool holds about
/// as many programs as a run certifies.
const CHECK_POOL: usize = 1024;
const CERTIFY_POOL: usize = 16384;

/// Every fourth certify job is a policy program.
const POLICY_EVERY: usize = 4;

/// A pool entry keeps only the text a user would send; the oracle
/// regenerates the structured program, so the pool stays out of the
/// process's peak memory.
struct CheckJob {
    text: String,
    allow: IndexSet,
    arity: usize,
    span: i64,
}

fn check_program(seed: u64, i: usize) -> Program {
    let (arity, _) = CHECK_SHAPES[i % 2];
    gen::program(seed, CHECK_STREAM + 1, i as u64, &gen::small(arity), false)
}

fn check_job(seed: u64, i: usize, quick: bool) -> CheckJob {
    let (arity, span) = CHECK_SHAPES[i % 2];
    // `--quick` sweeps a few hundred inputs per job instead.
    let span = if quick { span / 5 } else { span };
    let mut rng = gen::rng(seed, CHECK_STREAM, i as u64);
    // A policy that allows every input makes every input its own class,
    // so the sweep keeps one map entry per input; which allocator arenas
    // those land in then moves the process's peak memory by a third from
    // run to run. Such policies are left out.
    let allow = gen::proper_allow(&mut rng, arity);
    CheckJob {
        text: check_program(seed, i).text,
        allow,
        arity,
        span,
    }
}

struct CertifyJob {
    text: String,
    allow: IndexSet,
    policy: bool,
}

fn certify_config() -> GenConfig {
    GenConfig {
        arity: 4,
        stmts: 60,
        ..GenConfig::default()
    }
}

fn is_policy_job(i: usize) -> bool {
    i % POLICY_EVERY == POLICY_EVERY - 1
}

fn certify_program(seed: u64, i: usize) -> Program {
    gen::program(
        seed,
        CERTIFY_STREAM + 1,
        i as u64,
        &certify_config(),
        is_policy_job(i),
    )
}

fn certify_job(seed: u64, i: usize) -> CertifyJob {
    let mut rng = gen::rng(seed, CERTIFY_STREAM, i as u64);
    CertifyJob {
        allow: gen::allow(&mut rng, 4),
        text: certify_program(seed, i).text,
        policy: is_policy_job(i),
    }
}

/// The analyses `enforce certify` runs on a program of this kind.
fn analyses(policy: bool) -> &'static [Analysis] {
    if policy {
        &[Analysis::DynamicPolicy]
    } else {
        &[
            Analysis::Surveillance,
            Analysis::ValueRefined,
            Analysis::Relational,
        ]
    }
}

/// A library workload's set-up: building the inputs of its first
/// [`SETUP_JOBS`] jobs, the way its pool was built.
const SETUP_JOBS: usize = 1024;

/// Times one set-up: builds the first [`SETUP_JOBS`] pool entries again
/// and throws them away.
fn time_setup<T>(n: usize, make: impl Fn(usize) -> T) -> f64 {
    let start = Instant::now();
    let jobs: Vec<T> = (0..n.min(SETUP_JOBS)).map(make).collect();
    std::hint::black_box(jobs);
    start.elapsed().as_secs_f64()
}

/// A closed loop's timings.
struct Loop {
    /// `(sent, done)` of each job, seconds from the loop start.
    jobs: Vec<(f64, f64)>,
    lat_ms: Vec<f64>,
    traced: Vec<bool>,
    /// Time from one job's end to the next one's start: the generator's
    /// own delay.
    gap_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    /// Each timed set-up, in seconds.
    setups: Vec<f64>,
}

/// Runs `job(i)` back to back for `--seconds`, after an untimed warm-up,
/// and returns the loop's timings with each measured job's result.
///
/// [`stats::SETUP_REPS`] times, evenly spread over the loop, it pauses to
/// time `setup`. A slow stretch of the host lasts from milliseconds to
/// seconds, so set-ups timed back to back land in the same one; spread
/// out, their median is the host's usual speed. Job times, the loop's
/// wall time and its processor time leave the pauses out.
fn closed_loop<R>(
    s: &Settings,
    tr: &Tracer,
    mut setup: impl FnMut() -> f64,
    mut job: impl FnMut(usize, &Tracer) -> R,
) -> (Loop, Vec<R>) {
    let off = Tracer::new(false);
    let warm = Instant::now();
    let mut i = 0;
    while warm.elapsed().as_secs_f64() < stats::warmup_seconds(s) {
        job(i, &off);
        i += 1;
    }
    let mut out = Loop {
        jobs: Vec::new(),
        lat_ms: Vec::new(),
        traced: Vec::new(),
        gap_ms: Vec::new(),
        wall_s: 0.0,
        cpu_s: 0.0,
        setups: Vec::new(),
    };
    let mut results = Vec::new();
    let every = s.seconds / stats::SETUP_REPS as f64;
    let (mut paused, mut paused_cpu) = (Duration::ZERO, 0.0);
    let cpu0 = stats::cpu_seconds();
    let start = Instant::now();
    let mut last_done = start;
    // A traced loop covers at least one traced and one untraced block.
    let min_jobs = if tr.on() { 2 * trace::TRACE_BLOCK } else { 1 };
    loop {
        let elapsed = (start.elapsed() - paused).as_secs_f64();
        if out.setups.len() < stats::SETUP_REPS && elapsed >= every * out.setups.len() as f64 {
            let (t, c) = (Instant::now(), stats::cpu_seconds());
            out.setups.push(setup());
            paused_cpu += stats::cpu_seconds() - c;
            paused += t.elapsed();
            last_done = Instant::now();
            continue;
        }
        if results.len() >= min_jobs && elapsed >= s.seconds {
            break;
        }
        let i = results.len();
        let traced = trace::traced_job(tr, i);
        let t0 = Instant::now();
        out.gap_ms.push(ms(t0 - last_done));
        results.push(job(i, if traced { tr } else { &off }));
        last_done = Instant::now();
        out.lat_ms.push(ms(last_done - t0));
        out.jobs.push((
            (t0 - start - paused).as_secs_f64(),
            (last_done - start - paused).as_secs_f64(),
        ));
        out.traced.push(traced);
    }
    out.wall_s = (start.elapsed() - paused).as_secs_f64();
    out.cpu_s = stats::cpu_seconds() - cpu0 - paused_cpu;
    (out, results)
}

/// The end-to-end and loop-level metrics both library workloads report.
fn loop_metrics(o: &mut Outcome, l: &Loop) {
    let n = l.lat_ms.len();
    let (rate, p50) = stats::window_means(&stats::windows(&l.jobs));
    o.metrics.push(Metric::new(
        "setup_s",
        "s",
        median(&l.setups),
        l.setups.len(),
    ));
    o.metrics
        .push(Metric::new("throughput_jobs_per_s", "jobs/s", rate, n));
    o.metrics.push(Metric::new("latency_p50_ms", "ms", p50, n));
    o.metrics.push(Metric::new(
        "throughput_jobs_per_s.whole",
        "jobs/s",
        n as f64 / l.wall_s,
        n,
    ));
    o.metrics.push(Metric::new(
        "latency_p99_ms",
        "ms",
        quantile(&l.lat_ms, 0.99),
        n,
    ));
    o.metrics.push(Metric::new(
        "proc.cpu_s_per_job",
        "s",
        l.cpu_s / n as f64,
        n,
    ));
    o.metrics.push(Metric::new(
        "bench.gen_late_ms_p99",
        "ms",
        quantile(&l.gap_ms, 0.99),
        n,
    ));
    if l.traced.iter().any(|&t| t) {
        let mean = |traced: bool| {
            let v: Vec<f64> = l
                .lat_ms
                .iter()
                .zip(&l.traced)
                .filter(|(_, &t)| t == traced)
                .map(|(&x, _)| x)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        o.metrics.push(Metric::new(
            "trace.overhead_ratio",
            "ratio",
            mean(true) / mean(false),
            n,
        ));
    }
}

/// `check_sweep`: `parse` → `Enforcer::new(…).with_fuel(F)` →
/// `Enforcer::sweep` on [`CHECK_THREADS`] threads, one job at a time.
pub fn check_sweep(s: &Settings, tr: &Tracer) -> Outcome {
    let pool_size = if s.quick { 8 } else { CHECK_POOL };
    let make = |i| check_job(s.seed, i, s.quick);
    let pool: Vec<CheckJob> = (0..pool_size).map(make).collect();
    let eval = EvalConfig::with_threads(CHECK_THREADS);
    let setup = || time_setup(pool_size, make);
    let (l, results) = closed_loop(s, tr, setup, |i, t| {
        let job = &pool[i % pool.len()];
        let req = i as u64 + 1;
        let root = t.id();
        let start = Instant::now();
        let result = (|| {
            let fc = t
                .span("flowchart.parse", req, root, || {
                    enf_flowchart::parse(&job.text)
                })
                .map_err(|e| format!("parse: {e}"))?;
            let enforcer = t
                .span("enforcer.new", req, root, || Enforcer::new(fc, job.allow))
                .map_err(|e| format!("bind: {e}"))?
                .with_fuel(CHECK_FUEL);
            let mut log = AuditLog::in_memory();
            let out = t
                .span("enforcer.sweep", req, root, || {
                    enforcer.sweep(job.span, &eval, &CancelToken::new(), &mut log)
                })
                .map_err(|e| format!("sweep: {e}"))?;
            Ok::<_, String>((out.verdict(), out.checked(), out.total(), log.len()))
        })();
        t.record(root, 0, req, "job", start);
        result
    });

    let mut o = Outcome::default();
    let tuples: usize = results
        .iter()
        .filter_map(|r| r.as_ref().ok().map(|r| r.2))
        .sum();
    // Oracle: the domain size is (2·span + 1)^arity; surveillance with
    // ample fuel is sound, so every sweep confirms over the whole domain
    // and leaves exactly one audit record. A deterministic sample is
    // swept again on the AST engine, one thread, from the flowchart
    // lowered straight from the generator (no text round trip).
    for (i, r) in results.iter().enumerate() {
        let job = &pool[i % pool.len()];
        let total = ((2 * job.span + 1) as usize).pow(job.arity as u32);
        let verdict = match r {
            Ok((v, checked, got_total, records)) => {
                if (*checked, *got_total, *records) != (total, total, 1) {
                    Err(format!(
                        "checked {checked} of {got_total} with {records} records, expected {total} of {total} with 1"
                    ))
                } else if *v != Verdict::Confirmed {
                    Err(format!("verdict {}, expected confirmed", v.tag()))
                } else {
                    Ok(())
                }
            }
            Err(e) => Err(e.clone()),
        };
        o.attempt(verdict.map_err(|e| format!("check job {i}: {e}")));
    }
    let sample = if s.quick { 1 } else { 4 };
    for (i, r) in results.iter().enumerate().take(sample) {
        let job = &pool[i % pool.len()];
        let fc = check_program(s.seed, i % pool.len())
            .structured
            .lower()
            .expect("generated programs lower");
        let reference = Enforcer::new(fc, job.allow)
            .map(|e| e.with_fuel(CHECK_FUEL).with_engine(Engine::Ast))
            .map_err(|e| e.to_string())
            .and_then(|e| {
                e.sweep(
                    job.span,
                    &EvalConfig::with_threads(1),
                    &CancelToken::new(),
                    &mut AuditLog::in_memory(),
                )
                .map(|out| (out.verdict(), out.total()))
                .map_err(|e| e.to_string())
            });
        let got = r.as_ref().map(|r| (r.0, r.2)).map_err(Clone::clone);
        if got != reference {
            o.mismatch(format!(
                "check job {i}: VM sweep {got:?}, AST sweep {reference:?}"
            ));
        }
    }

    loop_metrics(&mut o, &l);
    o.metrics.push(Metric::new(
        "tuples_per_s",
        "inputs/s",
        tuples as f64 / l.wall_s,
        results.len(),
    ));
    if tr.on() {
        let jobs: Vec<Request> = results
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let job = &pool[i % pool.len()];
                let mut req = layers::request(
                    Op::Check,
                    "bench",
                    format!("check-{i}"),
                    &job.text,
                    job.allow,
                );
                req.span = job.span;
                req
            })
            .collect();
        o.metrics.extend(layers::probe(s, tr, &jobs, None));
    }
    o
}

/// `certify_batch`: `parse` → `certify` under every analysis `enforce
/// certify` applies to the program's kind, one job at a time.
pub fn certify_batch(s: &Settings, tr: &Tracer) -> Outcome {
    let pool_size = if s.quick { 16 } else { CERTIFY_POOL };
    let make = |i| certify_job(s.seed, i);
    let pool: Vec<CertifyJob> = (0..pool_size).map(make).collect();
    let setup = || time_setup(pool_size, make);
    let (l, results) = closed_loop(s, tr, setup, |i, t| {
        let job = &pool[i % pool.len()];
        let req = i as u64 + 1;
        let root = t.id();
        let start = Instant::now();
        let result = t
            .span("flowchart.parse", req, root, || {
                enf_flowchart::parse(&job.text)
            })
            .map_err(|e| format!("parse: {e}"))
            .map(|fc| {
                analyses(job.policy)
                    .iter()
                    .map(|&a| {
                        t.span(layers::certify_span(a), req, root, || {
                            certify(&fc, job.allow, a)
                        })
                    })
                    .collect::<Vec<_>>()
            });
        t.record(root, 0, req, "job", start);
        result
    });

    // Oracle: each pool program a job used is certified once more from the
    // flowchart lowered straight from the generator, on two threads; every
    // job on that program must have reached the same verdicts.
    let used = results.len().min(pool.len());
    let reference: Vec<Vec<Certification>> = std::thread::scope(|scope| {
        let certify_slots = |slots: std::ops::Range<usize>| {
            slots
                .map(|slot| {
                    let fc = certify_program(s.seed, slot)
                        .structured
                        .lower()
                        .expect("generated programs lower");
                    analyses(pool[slot].policy)
                        .iter()
                        .map(|&a| certify(&fc, pool[slot].allow, a))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        let half = used / 2;
        let second = scope.spawn(move || certify_slots(half..used));
        let mut first = certify_slots(0..half);
        first.extend(second.join().expect("oracle thread"));
        first
    });
    let mut o = Outcome::default();
    for (i, r) in results.iter().enumerate() {
        let want = &reference[i % pool.len()];
        let verdict = match r {
            Ok(got) if got == want => Ok(()),
            Ok(got) => Err(format!("verdicts {got:?}, expected {want:?}")),
            Err(e) => Err(e.clone()),
        };
        o.attempt(verdict.map_err(|e| format!("certify job {i}: {e}")));
    }

    loop_metrics(&mut o, &l);
    if tr.on() {
        let jobs: Vec<Request> = results
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let job = &pool[i % pool.len()];
                layers::request(
                    Op::Certify,
                    "bench",
                    format!("certify-{i}"),
                    &job.text,
                    job.allow,
                )
            })
            .collect();
        o.metrics.extend(layers::probe(s, tr, &jobs, None));
    }
    o
}
