//! The repository benchmark: four seeded workloads that go from `.fc`
//! program text to a verdict, each checked against an oracle.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1|FILE [--quick]
//! benchmark all [--seed N] [--seconds S] [--out FILE] [--quick]
//! benchmark compare A.json B.json
//! ```
//!
//! A single run prints one line per metric (`workload name value unit
//! n=samples`) and, last, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics, or with `--trace 1` the
//! per-layer ones. See README.md beside this package for the workloads,
//! the metrics and how the layer metrics map onto the end-to-end ones.

mod gen;
mod json;
mod layers;
mod library;
mod report;
mod serve_load;
mod stats;
mod trace;

use trace::Tracer;

pub const WORKLOADS: [&str; 4] = [
    "serve_oneshot",
    "serve_durable",
    "check_sweep",
    "certify_batch",
];

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with tracing on.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_ratio", "ratio"),
    ("proc.cpu_s_per_job", "s"),
    ("bench.gen_late_ms_p99", "ms"),
    ("serve.accept_wait_ms", "ms"),
    ("serve.ping_rtt_us_p50", "us"),
    ("serve.residence_us_p50", "us"),
    ("serve.dispatch_us_p50", "us"),
    ("protocol.write_frame_us_p50", "us"),
    ("protocol.read_frame_us_p50", "us"),
    ("json.render_us_p50", "us"),
    ("json.parse_us_p50", "us"),
    ("flowchart.parse_us_p50", "us"),
    ("flowchart.compile_us_p50", "us"),
    ("enforcer.surveil_us_p50", "us"),
    ("enforcer.sweep_overhead_ratio", "ratio"),
    ("vm.steps_per_s", "steps/s"),
    ("sweep.tuples_per_s.t1", "inputs/s"),
    ("sweep.tuples_per_s.t2", "inputs/s"),
    ("sweep.par_efficiency", "ratio"),
    ("certify.surveillance_us_p50", "us"),
    ("certify.value_refined_us_p50", "us"),
    ("certify.relational_us_p50", "us"),
    ("certify.dynamic_us_p50", "us"),
    ("audit.append_us.n1000", "us"),
    ("audit.append_us.n4000", "us"),
    ("audit.write_kb_per_append.n1000", "KB"),
    ("audit.resume_ms.n4000", "ms"),
    ("audit.verify_ms.n4000", "ms"),
];

/// Scratch space for server state and probe trails, inside the working
/// directory; each process uses its own subdirectory and removes it.
pub const RUN_DIR: &str = ".bench_run";

/// Seconds one run measures when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 20.0;

pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    /// Small inputs and sample counts: about a second per workload, on
    /// the same code paths (the smoke test).
    pub quick: bool,
    pub trace: bool,
    pub spans: Option<String>,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        }
    }
}

/// What a workload measured and how many of its operations failed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations and oracle mismatches, for the error stream.
    pub problems: Vec<String>,
    /// Every figure measured; the lists above pick out the reported ones.
    pub metrics: Vec<Metric>,
    /// Mismatches that are not one operation's (a trail that does not
    /// verify); they make the run incorrect without counting as failed.
    pub mismatches: usize,
}

impl Outcome {
    /// Counts one attempted operation and whether the oracle accepted it.
    pub fn attempt(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.problems.push(e);
        }
    }

    pub fn mismatch(&mut self, problem: String) {
        self.mismatches += 1;
        self.problems.push(problem);
    }
}

/// A finished run: the metrics of the JSON line, and everything else
/// measured.
pub struct Report {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub reported: Vec<Metric>,
    pub other: Vec<Metric>,
    pub problems: Vec<String>,
}

impl Report {
    /// The result line: one JSON object, values with all their digits.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .reported
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    m.value,
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn lines(&self) -> Vec<String> {
        self.reported
            .iter()
            .chain(&self.other)
            .map(|m| {
                format!(
                    "{} {} {} {} n={}",
                    self.workload, m.name, m.value, m.unit, m.samples
                )
            })
            .collect()
    }
}

/// Runs one workload in this process.
pub fn measure(workload: &str, s: &Settings) -> Report {
    let tr = Tracer::new(s.trace);
    let mut o = match workload {
        "serve_oneshot" => serve_load::oneshot(s, &tr),
        "serve_durable" => serve_load::durable(s, &tr),
        "check_sweep" => library::check_sweep(s, &tr),
        "certify_batch" => library::certify_batch(s, &tr),
        other => panic!("unknown workload {other}"),
    };
    o.metrics
        .push(Metric::new("peak_rss_mb", "MB", stats::peak_rss_mb(), 1));
    o.metrics.push(Metric::new(
        "failed_ratio",
        "share",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.attempted as usize,
    ));
    if s.trace {
        let spans = tr.take();
        for (name, times) in trace::self_times_us(&spans) {
            o.metrics.push(Metric::new(
                &format!("span.{name}.self_us_p50"),
                "us",
                stats::median(&times),
                times.len(),
            ));
        }
        if let Some(path) = &s.spans {
            if let Err(e) = trace::write_jsonl(path, &spans) {
                o.mismatch(format!("cannot write spans to {path}: {e}"));
            }
        }
    }
    let _ =
        std::fs::remove_dir_all(std::path::Path::new(RUN_DIR).join(std::process::id().to_string()));
    let _ = std::fs::remove_dir(RUN_DIR);

    let wanted = if s.trace { PER_LAYER } else { END_TO_END };
    let mut reported = Vec::new();
    for (name, unit) in wanted {
        match o.metrics.iter().position(|m| m.name == *name) {
            Some(i) => {
                let m = o.metrics.remove(i);
                if m.unit != *unit || !m.value.is_finite() {
                    o.mismatch(format!(
                        "metric {name} is {} {}, expected a finite value in {unit}",
                        m.value, m.unit
                    ));
                }
                reported.push(m);
            }
            None => o.mismatch(format!("metric {name} was not measured")),
        }
    }
    Report {
        workload: workload.to_string(),
        correct: o.failed == 0 && o.mismatches == 0,
        attempted: o.attempted,
        failed: o.failed,
        reported,
        other: o.metrics,
        problems: o.problems,
    }
}

/// Command-line options shared by every mode.
#[derive(Default)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub spans: Option<String>,
    pub quick: bool,
    pub out: Option<String>,
    pub files: Vec<String>,
}

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(secs > 0.0 && secs <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                a.seconds = Some(secs);
            }
            // `--trace 1` traces; any other value than 0 or 1 traces and
            // names the file the spans are written to.
            "--trace" => match value()?.as_str() {
                "0" => a.trace = false,
                "1" => a.trace = true,
                path => {
                    a.trace = true;
                    a.spans = Some(path.to_string());
                }
            },
            "--quick" => a.quick = true,
            "--out" => a.out = Some(value()?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => a.files.push(file.to_string()),
        }
    }
    Ok(a)
}

impl Args {
    pub fn settings(&self) -> Settings {
        Settings {
            seed: self.seed,
            seconds: self
                .seconds
                .unwrap_or(if self.quick { 1.0 } else { DEFAULT_SECONDS }),
            quick: self.quick,
            trace: self.trace,
            spans: self.spans.clone(),
        }
    }
}

fn run(args: &[String]) -> i32 {
    let a = match parse_args(args) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let Some(workload) = &a.workload else {
        return usage("--workload is required");
    };
    if let Some(extra) = a.files.first() {
        return usage(&format!("unexpected argument {extra:?}"));
    }
    if a.out.is_some() {
        return usage("--out belongs to `all`");
    }
    let report = measure(workload, &a.settings());
    for p in report.problems.iter().take(20) {
        eprintln!("{workload}: {p}");
    }
    for line in report.lines() {
        println!("{line}");
    }
    println!("{}", report.json_line());
    i32::from(!report.correct)
}

fn usage(problem: &str) -> i32 {
    eprintln!("benchmark: {problem}");
    eprintln!(
        "usage: benchmark --workload W --seed N --seconds S --trace 0|1|FILE [--quick]\n       \
         benchmark all [--seed N] [--seconds S] [--out FILE] [--quick]\n       \
         benchmark compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    2
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("all") => report::all(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(bench: &json::Value, key: &str) -> Vec<(String, String)> {
        bench
            .get(key)
            .map(json::Value::arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(json::Value::str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// Every workload at `--quick` size, untraced and traced: no operation
    /// fails and the metrics printed are exactly those BENCHMARK.json
    /// declares.
    #[test]
    fn quick_runs_report_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let bench = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(declared(&bench, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&bench, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<&str> = bench
            .get("workloads")
            .map(json::Value::arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Value::str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for w in WORKLOADS {
            for trace in [false, true] {
                let s = Settings {
                    seed: 7,
                    seconds: 1.0,
                    quick: true,
                    trace,
                    spans: None,
                };
                let r = measure(w, &s);
                assert!(r.correct, "{w} trace={trace}: {:?}", r.problems);
                assert_eq!(r.failed, 0);
                assert!(r.attempted > 0);
                let names: Vec<&str> = r.reported.iter().map(|m| m.name.as_str()).collect();
                let want: Vec<&str> = (if trace { PER_LAYER } else { END_TO_END })
                    .iter()
                    .map(|(n, _)| *n)
                    .collect();
                assert_eq!(names, want, "{w} trace={trace}");
                let line = json::parse(&r.json_line()).expect("result line is JSON");
                assert_eq!(line.get("failed").and_then(json::Value::num), Some(0.0));
            }
        }
    }
}
