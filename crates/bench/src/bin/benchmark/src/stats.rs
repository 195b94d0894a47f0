//! Percentiles, quartiles and the process counters read from `/proc`.

use std::time::Duration;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartiles as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method), so spreads printed
/// here match the ones a reader computes from the raw values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let at = |i: usize| -> f64 {
        // Position (n + 1)·i/4, 1-based, clamped to the sample range.
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = (m % 4) as f64 / 4.0;
        let delta = if m / 4 < 1 {
            0.0
        } else if m / 4 > n - 1 {
            1.0
        } else {
            delta
        };
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Seconds of untimed work before a measured loop: on a virtual machine
/// whose processors other tenants share, a processor that has been idle
/// runs slower for about a second once loaded.
pub fn warmup_seconds(s: &crate::Settings) -> f64 {
    if s.quick {
        0.1
    } else {
        1.5
    }
}

/// Timed set-ups of a run, spread over its measured loop; `setup_s` is
/// their median.
pub const SETUP_REPS: usize = 20;

/// Windows a closed loop is cut into.
pub const WINDOWS: usize = 20;

/// Cuts a closed loop into [`WINDOWS`] windows of consecutive
/// completions. `jobs` holds each job's `(sent, done)` in seconds from the
/// loop start; each window is its length in seconds and its latencies in
/// milliseconds.
pub fn windows(jobs: &[(f64, f64)]) -> Vec<(f64, Vec<f64>)> {
    let mut jobs = jobs.to_vec();
    jobs.sort_by(|a, b| a.1.total_cmp(&b.1));
    let per = (jobs.len() / WINDOWS).max(1);
    let mut out = Vec::new();
    let mut from = 0.0;
    // A short tail window would weigh as much as a full one: dropped.
    for chunk in jobs.chunks_exact(per) {
        let until = chunk[chunk.len() - 1].1;
        out.push((
            until - from,
            chunk.iter().map(|(s, d)| (d - s) * 1e3).collect(),
        ));
        from = until;
    }
    out
}

/// The mean of the middle half of `values`: the interquartile mean.
pub fn iqm(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Closed-loop throughput and p50 latency: over windows, the interquartile
/// mean of each window's rate and of each window's p50.
///
/// On a virtual machine whose processors other tenants share, their load
/// slows every job for seconds at a time. A mean over the whole loop
/// moves with the number of such slow stretches that fall inside it; the
/// interquartile mean over windows drops the quarter of windows they slow
/// most, and still averages half of them.
pub fn window_means(windows: &[(f64, Vec<f64>)]) -> (f64, f64) {
    let rates: Vec<f64> = windows
        .iter()
        .map(|(wall, lat)| lat.len() as f64 / wall)
        .collect();
    let p50s: Vec<f64> = windows.iter().map(|(_, lat)| median(lat)).collect();
    (iqm(&rates), iqm(&p50s))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A field of `/proc/self/status` in kB (`VmHWM`, `VmRSS`, …).
fn status_kb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(f64::NAN) / 1024.0
}

/// Bytes this process has passed to `write`-family calls (`wchar` of
/// `/proc/self/io`); counts page-cache writes that never reach a disk.
pub fn wchar_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// User plus system CPU time of this process, in seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 per second
    // on every Linux configuration this runs on).
    let Some(rest) = text.rfind(')').map(|i| &text[i + 2..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Eight values: the lowest two and highest two are dropped.
        assert_eq!(iqm(&[9.0, 1.0, 4.0, 5.0, 100.0, 6.0, 0.0, 3.0]), 4.5);
    }
}
