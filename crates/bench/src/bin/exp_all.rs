//! Runs every experiment (E1–E24) and prints the tables EXPERIMENTS.md
//! records. `--markdown` emits GitHub-flavored markdown instead of the
//! aligned terminal form. Also measures checker throughput (sequential vs
//! parallel engine), the stepper-vs-seed-loop interpreter overhead, the
//! checkpointed-sweep overhead (bar ≤3%), the relational-proof vs
//! refutation-sweep cost, the certification cost per node as programs grow
//! (bar: the largest within 2× of the smallest), the bytecode-VM vs stepper
//! speedup (bar ≥5×), and the
//! class-partition vs view-partition speedup (bar ≥10×), and the
//! lane-group vs one-input-at-a-time VM sweep speedup (bar ≥2×), and the
//! dynamic-policy certificate vs bounded-schedule-sweep cost, and the
//! shared multi-clearance lattice sweep vs per-clearance loop (bar ≥3×),
//! and the typed-pipeline (audit-trail) overhead (bar ≤5%), and the
//! durable audit append at 10²–10⁵ records (bar: slowest within 2× of
//! fastest), and the enforcement-service load (fault-free vs
//! chaos-proxied throughput), writing all thirteen to `BENCH_results.json`
//! (`{"throughput": [...], "stepper_overhead": [...],
//! "checkpoint_overhead": [...], "relational": [...],
//! "certify_scaling": [...], "bytecode": [...],
//! "class_eval": [...], "lanes": [...], "schedule": [...], "lattice": [...],
//! "audit": [...], "audit_append": [...], "serve": [...]}`); skip with
//! `--no-bench`, or pass `--quick` for the small-size CI smoke run (same
//! code paths, sub-minute, numbers not publication-grade).

fn main() {
    let markdown = std::env::args().any(|a| a == "--markdown");
    let bench = !std::env::args().any(|a| a == "--no-bench");
    let quick = std::env::args().any(|a| a == "--quick");
    let tables = enf_bench::experiments::run_all();
    let mut failures = 0;
    for t in &tables {
        if markdown {
            println!("{}", t.to_markdown());
        } else {
            println!("{t}");
        }
        if !t.verdict.starts_with("reproduced") {
            failures += 1;
        }
    }
    println!(
        "{} experiments, {} reproduced, {} failed",
        tables.len(),
        tables.len() - failures,
        failures
    );
    if bench {
        let rows = if quick {
            enf_bench::throughput::measure_all_sized(3, 63)
        } else {
            enf_bench::throughput::measure_all(10)
        };
        for r in &rows {
            println!(
                "{:<16} {:>9} tuples  seq {:>10.0} t/s  par({} threads) {:>10.0} t/s  speedup {:.2}x",
                r.checker,
                r.tuples,
                r.seq_tuples_per_sec(),
                r.threads,
                r.par_tuples_per_sec(),
                r.speedup
            );
        }
        let overhead = enf_bench::stepper::measure(if quick { 3 } else { 20 });
        for r in &overhead {
            println!(
                "{:<16} {:>9} steps   seed {:>12.9}s  stepper {:>12.9}s  overhead {:>+6.2}%",
                r.program,
                r.steps,
                r.seed_secs,
                r.stepper_secs,
                r.overhead() * 100.0
            );
        }
        let ckpt = if quick {
            enf_bench::checkpoint::measure_sized(3, &[128])
        } else {
            enf_bench::checkpoint::measure(20)
        };
        for r in &ckpt {
            println!(
                "{:<16} {:<5} {:>9} tuples  plain {:>10.6}s  checkpointed(block {}) {:>10.6}s  overhead {:>+6.2}%",
                r.domain,
                r.partition,
                r.tuples,
                r.plain_secs,
                r.block,
                r.checkpointed_secs,
                r.overhead * 100.0
            );
        }
        let rel = if quick {
            enf_bench::relational::measure_sized(&[1, 2])
        } else {
            enf_bench::relational::measure()
        };
        for r in &rel {
            println!(
                "relational span {:>2} {:>9} inputs  analysis {:>12.9}s  sweep {:>10.6}s  ratio {:.0}x",
                r.span,
                r.inputs,
                r.analysis_secs,
                r.sweep_secs,
                r.ratio()
            );
        }
        let scaling = if quick {
            enf_bench::certify_scaling::measure_sized(&[15, 240], 2)
        } else {
            enf_bench::certify_scaling::measure()
        };
        for r in &scaling {
            println!(
                "certify_scaling {:>4} stmts {:>6.1} nodes  surveillance {:>8.1} ns/node  value_refined {:>8.1} ns/node  relational {:>8.1} ns/node",
                r.stmts, r.nodes, r.ns_per_node[0], r.ns_per_node[1], r.ns_per_node[2]
            );
        }
        let [surv, value, rel_growth] = enf_bench::certify_scaling::growth(&scaling);
        println!(
            "certify_scaling largest/smallest per node: surveillance {surv:.2}x  value_refined {value:.2}x  relational {rel_growth:.2}x (bar <= 2x)"
        );
        let bytecode = if quick {
            enf_bench::vmspeed::measure_bytecode(3, &[100, 1_000])
        } else {
            enf_bench::vmspeed::measure_bytecode(20, &[1_000, 10_000, 100_000])
        };
        for r in &bytecode {
            println!(
                "{:<10}/{:<13} {:>9} steps   stepper {:>10.0} steps/s  vm {:>12.0} steps/s  speedup {:.2}x",
                r.program,
                r.engine,
                r.steps,
                r.stepper_steps_per_sec(),
                r.vm_steps_per_sec(),
                r.speedup()
            );
        }
        let class_eval = enf_bench::vmspeed::measure_class_eval(if quick { 63 } else { 511 });
        for r in &class_eval {
            println!(
                "{:<16} {:>9} tuples  generic {:>10.0} t/s  classes {:>12.0} t/s  speedup {:.2}x",
                r.sweep,
                r.tuples,
                r.generic_tuples_per_sec(),
                r.classes_tuples_per_sec(),
                r.speedup()
            );
        }
        let lanes = if quick {
            enf_bench::vmspeed::measure_lanes(3, 4, &[(3, 3), (4, 2)])
        } else {
            enf_bench::vmspeed::measure_lanes(11, 32, &[(3, 10), (4, 5)])
        };
        for r in &lanes {
            println!(
                "lanes arity {} {:>3} programs x {:>6} inputs  one at a time {:>10.6}s  lane groups {:>10.6}s  speedup {:.2}x (bar >= 2x)",
                r.arity,
                r.programs,
                r.inputs / r.programs.max(1),
                r.per_input_secs,
                r.lanes_secs,
                r.speedup
            );
        }
        let sched = if quick {
            enf_bench::schedule_eval::measure_sized(&[1, 2])
        } else {
            enf_bench::schedule_eval::measure()
        };
        for r in &sched {
            println!(
                "schedule slots {:>2} {:>6} schedules x {:>5} inputs  certificate {:>12.9}s  sweep {:>10.6}s  ratio {:.0}x",
                r.slots,
                r.schedules,
                r.inputs,
                r.analysis_secs,
                r.oracle_secs,
                r.ratio()
            );
        }
        let lattice = if quick {
            enf_bench::lattice_eval::measure_sized(&[4, 6])
        } else {
            enf_bench::lattice_eval::measure()
        };
        for r in &lattice {
            println!(
                "lattice side {:>3} {:>6} inputs x {} clearances ({} distinct)  shared {:>10.6}s  loop {:>10.6}s  ratio {:.1}x",
                r.side,
                r.inputs,
                r.clearances,
                r.distinct,
                r.shared_secs,
                r.per_clearance_secs,
                r.ratio()
            );
        }
        let audit = if quick {
            enf_bench::audit::measure_sized(3, &[10_000])
        } else {
            enf_bench::audit::measure(20)
        };
        for r in &audit {
            println!(
                "audit iters {:>7} {:>9} steps   raw {:>12.9}s  typed {:>12.9}s  overhead {:>+6.2}%",
                r.iters,
                r.steps,
                r.raw_secs,
                r.typed_secs,
                r.overhead * 100.0
            );
        }
        let audit_append = if quick {
            enf_bench::audit::measure_append(&[100, 1_000], 50)
        } else {
            enf_bench::audit::measure_append(&[100, 1_000, 10_000, 100_000], 1_000)
        };
        for r in &audit_append {
            println!(
                "audit_append {:>7} records  {:>5} appends  append p50 {:>8.3} us  grows {:>6.1} B/append",
                r.records, r.appends, r.append_us_p50, r.bytes_per_append
            );
        }
        println!(
            "audit_append slowest/fastest {:.2}x (bar <= 2x)",
            enf_bench::audit::append_spread(&audit_append)
        );
        let serve = if quick {
            enf_bench::serve_eval::measure_sized(24)
        } else {
            enf_bench::serve_eval::measure()
        };
        for r in &serve {
            println!(
                "serve {:<10} {:>5} jobs   {:>10.6}s  {:>8.1} jobs/s  quarantined {:>2}  replayed {:>3}  cache hits {:>3}",
                r.scenario,
                r.jobs,
                r.secs,
                r.jobs_per_sec(),
                r.quarantined,
                r.replayed,
                r.cache_hits
            );
        }
        let json = format!(
            "{{\n\"throughput\": {},\n\"stepper_overhead\": {},\n\"checkpoint_overhead\": {},\n\"relational\": {},\n\"certify_scaling\": {},\n\"bytecode\": {},\n\"class_eval\": {},\n\"lanes\": {},\n\"schedule\": {},\n\"lattice\": {},\n\"audit\": {},\n\"audit_append\": {},\n\"serve\": {}\n}}\n",
            enf_bench::throughput::to_json(&rows),
            enf_bench::stepper::to_json(&overhead),
            enf_bench::checkpoint::to_json(&ckpt),
            enf_bench::relational::to_json(&rel),
            enf_bench::certify_scaling::to_json(&scaling),
            enf_bench::vmspeed::bytecode_to_json(&bytecode),
            enf_bench::vmspeed::class_eval_to_json(&class_eval),
            enf_bench::vmspeed::lanes_to_json(&lanes),
            enf_bench::schedule_eval::to_json(&sched),
            enf_bench::lattice_eval::to_json(&lattice),
            enf_bench::audit::to_json(&audit),
            enf_bench::audit::append_to_json(&audit_append),
            enf_bench::serve_eval::to_json(&serve)
        );
        match std::fs::write("BENCH_results.json", &json) {
            Ok(()) => println!("wrote BENCH_results.json"),
            Err(e) => eprintln!("could not write BENCH_results.json: {e}"),
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
