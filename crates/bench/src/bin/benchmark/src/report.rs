//! `benchmark all`, which runs every workload in a child process of its
//! own, and `benchmark compare`, which judges two sets of such runs.

use crate::json::{self, Value};
use crate::stats::{median, quartiles};
use crate::{parse_args, WORKLOADS};
use std::io::Write;
use std::process::{Command, Stdio};

/// Runs every workload in its own child process with tracing off, prints
/// each one's metric lines and writes one JSON document for the set.
pub fn all(args: &[String]) -> i32 {
    let a = match parse_args(args) {
        Ok(a) if a.workload.is_none() && a.files.is_empty() && !a.trace => a,
        Ok(_) => return crate::usage("`all` takes --seed, --seconds, --out and --quick"),
        Err(e) => return crate::usage(&e),
    };
    let s = a.settings();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return crate::usage(&format!("cannot locate this executable: {e}")),
    };
    let mut ok = true;
    let mut results = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &s.seed.to_string()])
            .args(["--seconds", &s.seconds.to_string(), "--trace", "0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if s.quick {
            cmd.arg("--quick");
        }
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{w}: cannot start: {e}");
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        let correct = json::parse(last)
            .ok()
            .and_then(|v| match v.get("correct") {
                Some(Value::Bool(c)) => Some(*c),
                _ => None,
            })
            .unwrap_or(false);
        if !out.status.success() || !correct {
            eprintln!("{w}: run failed ({})", out.status);
            ok = false;
        }
        if json::parse(last).is_ok() {
            results.push(format!("{}: {last}", json::quote(w)));
        }
    }
    let doc = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"workloads\": {{{}}}}}",
        s.seed,
        s.seconds,
        results.join(", ")
    );
    if let Some(path) = &a.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{doc}"));
        if let Err(e) = appended {
            eprintln!("cannot append to {path}: {e}");
            ok = false;
        }
    }
    i32::from(!ok)
}

/// One end-to-end metric as BENCHMARK.json declares it.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared_metrics() -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let bench = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    bench
        .get("end_to_end")
        .map(Value::arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m
                    .get("name")
                    .and_then(Value::str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Value::str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Value::num)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// The runs of one `--out` file: one document per line.
fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .num()
        })
        .collect()
}

fn failures(runs: &[Value], workload: &str) -> f64 {
    runs.iter()
        .filter_map(|r| r.get("workloads")?.get(workload)?.get("failed")?.num())
        .sum()
}

/// The verdict on one metric of one workload, by the rule of the
/// choosing-metrics guide: a gain needs nine pairs in ten won and a median
/// shift wider than the parent's own quartile spread; a regression is a
/// median worse by more than the bound; a spread wider than the bound
/// leaves the metric unresolved unless every run of one side beats every
/// run of the other.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (am, bm) = (median(a), median(b));
    let (aq1, aq3) = quartiles(a);
    let worse_by = if lower_is_better { bm - am } else { am - bm } / am.abs();
    let spread = (aq3 - aq1) / am.abs();
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    let b_all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let b_all_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
    if worse_by < 0.0 && wins * 10 >= pairs * 9 && (bm - am).abs() > aq3 - aq1 {
        "better"
    } else if worse_by > bound {
        if spread > bound && !b_all_worse {
            "unresolved"
        } else {
            "worse"
        }
    } else if spread > bound && !b_all_better {
        "unresolved"
    } else {
        "within-bound"
    }
}

/// Compares two sets of `benchmark all --out` runs, A the parent and B
/// the change; exits 1 on a regression.
pub fn compare(args: &[String]) -> i32 {
    let files = match parse_args(args) {
        Ok(a) if a.files.len() == 2 => a.files,
        Ok(_) => return crate::usage("compare takes two result files"),
        Err(e) => return crate::usage(&e),
    };
    let (declared, a, b) = match (declared_metrics(), load(&files[0]), load(&files[1])) {
        (Ok(d), Ok(a), Ok(b)) => (d, a, b),
        (d, a, b) => {
            for e in [d.err(), a.err(), b.err()].into_iter().flatten() {
                eprintln!("compare: {e}");
            }
            return 2;
        }
    };
    println!(
        "{:<14} {:<22} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change", "bound"
    );
    let mut regressions = 0;
    for w in WORKLOADS {
        for d in &declared {
            let (va, vb) = (values(&a, w, &d.name), values(&b, w, &d.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<14} {:<22} missing on one side", d.name);
                regressions += 1;
                continue;
            }
            let verdict = judge(&va, &vb, d.lower_is_better, d.bound);
            regressions += usize::from(verdict == "worse");
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{:.4}, {:.4}] {}", median(v), q1, q3, v.len())
            };
            println!(
                "{w:<14} {:<22} {:>28} {:>28} {:>+7.1}% {:>5.0}%  {verdict}",
                d.name,
                side(&va),
                side(&vb),
                (median(&vb) / median(&va) - 1.0) * 100.0,
                d.bound * 100.0
            );
        }
        let (fa, fb) = (failures(&a, w), failures(&b, w));
        if fb > fa {
            println!("{w:<14} failed operations rose from {fa} to {fb}: worse");
            regressions += 1;
        }
    }
    i32::from(regressions > 0)
}

#[cfg(test)]
mod tests {
    use super::judge;

    #[test]
    fn judge_follows_the_pairing_rule() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 10.0, 9.9];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(judge(&a, &faster, true, 0.1), "better");
        assert_eq!(judge(&a, &slower, true, 0.1), "worse");
        assert_eq!(judge(&a, &same, true, 0.1), "within-bound");
        assert_eq!(judge(&a, &slower, false, 0.1), "better");
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(judge(&noisy, &noisy, true, 0.1), "unresolved");
    }
}
