//! Enforcement overhead: plain interpretation vs the dynamic mechanisms
//! vs the paper's instrumented-flowchart mechanism (E17b's time-domain
//! companion).
//!
//! Expected shape: plain < surveillance ≈ high-water < instrumented
//! (the instrumented form executes roughly twice the boxes through the
//! same interpreter); the timed variant M′ adds a per-decision check.
//!
//! The `stepper_overhead` group prices the engine refactor itself: the
//! seed repository's hand-rolled interpreter loop (frozen in
//! `enf_bench::stepper::run_seed_loop`) against today's `interp::run`,
//! which is the generic `Stepper` driving a `NullMonitor`. The
//! acceptance bar is ≤5% overhead; `exp_all` records the same
//! comparison in `BENCH_results.json`.
//!
//! The `bytecode_vm` group prices the compiled hot path: the
//! register-bytecode VM (and its fused surveillance twin) against the
//! stepper, bar ≥5× steps/s; `exp_all` records the same comparison under
//! the `"bytecode"` key.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enf_core::{IndexSet, Mechanism};
use enf_flowchart::bytecode::Compiled;
use enf_flowchart::generate::loop_program;
use enf_flowchart::interp::{run, ExecConfig};
use enf_flowchart::program::FlowchartProgram;
use enf_surveillance::dynamic::{run_surveillance, SurvConfig};
use enf_surveillance::instrument;
use enf_surveillance::mechanism::Surveillance;
use enf_surveillance::run_surveillance_vm;
use std::hint::black_box;

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("enforcement_overhead");
    for iters in [100i64, 1000] {
        let fc = loop_program(iters, 2);
        let j = IndexSet::single(1);
        let cfg = ExecConfig::default();
        group.bench_with_input(BenchmarkId::new("plain_interp", iters), &fc, |b, fc| {
            b.iter(|| black_box(run(fc, &[0], &cfg)))
        });
        let scfg = SurvConfig::surveillance(j);
        group.bench_with_input(BenchmarkId::new("surveillance", iters), &fc, |b, fc| {
            b.iter(|| black_box(run_surveillance(fc, &[0], &scfg)))
        });
        let hcfg = SurvConfig::highwater(j);
        group.bench_with_input(BenchmarkId::new("highwater", iters), &fc, |b, fc| {
            b.iter(|| black_box(run_surveillance(fc, &[0], &hcfg)))
        });
        let tcfg = SurvConfig::timed(j);
        group.bench_with_input(BenchmarkId::new("timed_m_prime", iters), &fc, |b, fc| {
            b.iter(|| black_box(run_surveillance(fc, &[0], &tcfg)))
        });
        let inst = instrument(&fc, j, false);
        group.bench_with_input(
            BenchmarkId::new("instrumented_flowchart", iters),
            &inst,
            |b, inst| b.iter(|| black_box(inst.run_mech(&[0]))),
        );
    }
    group.finish();

    // Engine-refactor overhead: frozen seed loop vs the stepper engine.
    let mut group = c.benchmark_group("stepper_overhead");
    for iters in [100i64, 1000, 10_000] {
        let fc = loop_program(iters, 2);
        let cfg = ExecConfig::default();
        group.bench_with_input(BenchmarkId::new("seed_loop", iters), &fc, |b, fc| {
            b.iter(|| black_box(enf_bench::stepper::run_seed_loop(fc, &[0], cfg.fuel)))
        });
        group.bench_with_input(BenchmarkId::new("stepper_null", iters), &fc, |b, fc| {
            b.iter(|| black_box(run(fc, &[0], &cfg)))
        });
    }
    group.finish();

    // Compiled hot path: the register-bytecode VM against the stepper it
    // replaces as the default `enforce` engine (acceptance bar ≥5×), plus
    // the fused surveillance VM against the monitor-driven stepper.
    let mut group = c.benchmark_group("bytecode_vm");
    for iters in [100i64, 1000, 10_000] {
        let fc = loop_program(iters, 2);
        let compiled = Compiled::new(&fc);
        let cfg = ExecConfig::default();
        group.bench_with_input(BenchmarkId::new("stepper", iters), &fc, |b, fc| {
            b.iter(|| black_box(run(fc, &[0], &cfg)))
        });
        group.bench_with_input(BenchmarkId::new("vm", iters), &compiled, |b, compiled| {
            b.iter(|| black_box(compiled.run(&[0], &cfg)))
        });
        let scfg = SurvConfig::surveillance(IndexSet::single(1));
        group.bench_with_input(BenchmarkId::new("surveillance_ast", iters), &fc, |b, fc| {
            b.iter(|| black_box(run_surveillance(fc, &[0], &scfg)))
        });
        group.bench_with_input(
            BenchmarkId::new("surveillance_vm", iters),
            &compiled,
            |b, compiled| b.iter(|| black_box(run_surveillance_vm(compiled, &[0], &scfg))),
        );
    }
    group.finish();

    // Mechanism-adapter overhead on a mid-sized program.
    let mut group = c.benchmark_group("mechanism_adapters");
    let fc = loop_program(500, 2);
    let p = FlowchartProgram::new(fc);
    let ms = Surveillance::new(p.clone(), IndexSet::single(1));
    let mh = Surveillance::highwater(p, IndexSet::single(1));
    group.bench_function("surveillance_adapter", |b| {
        b.iter(|| black_box(ms.run(&[0])))
    });
    group.bench_function("highwater_adapter", |b| b.iter(|| black_box(mh.run(&[0]))));
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
