//! Order statistics over latency samples.

/// The `p`-quantile (0..=1) by nearest rank over an unsorted sample.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The lower decile of repeated timings of one deterministic step.
/// Other guests on the host only ever add time to a repeat, in
/// stretches that can cover most of a run; the fastest tenth is the
/// step's own cost with the least of that added, yet not the single
/// luckiest repeat. A slower step moves every repeat, this one too.
pub fn low_decile(xs: &[f64]) -> f64 {
    quantile(xs, 0.1)
}

/// The medians of `k` consecutive, equal slices of `xs` (in the order
/// given). Their median resists a busy neighbour better than the median
/// of the pooled sample: a slow stretch of a run moves only the slices
/// it falls in.
pub fn slice_medians(xs: &[f64], k: usize) -> Vec<f64> {
    let per = xs.len().div_ceil(k.max(1)).max(1);
    xs.chunks(per).map(median).collect()
}

/// Samples strictly above the `p`-quantile: the tail a percentile
/// claim rests on (the benchmark wants at least ten).
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time this process has used so far, user plus system, seconds
/// (`/proc/self/stat`, in clock ticks of 10 ms).
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name start at 3;
            // utime and stime are fields 14 and 15.
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// Machine-wide CPU ticks so far: (stolen by the hypervisor, all).
/// From the first line of `/proc/stat`, whose eighth value is steal.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.get(7).copied().unwrap_or(0), v.iter().sum())
}
