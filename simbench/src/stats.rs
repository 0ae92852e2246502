//! Small numeric and formatting helpers.

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` of an ascending-sorted slice; 0 if empty.
pub fn rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// `(p50, p99)` of host-time samples in nanoseconds.
pub fn p50_p99(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (rank(samples, 0.5), rank(samples, 0.99))
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A JSON number: finite values in shortest round-trip form, anything
/// else as 0 (JSON has no NaN or infinity).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Escapes `s` for use inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Host nanoseconds per iteration of `f`, run `n` times.
pub fn ns_per(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = std::time::Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Host CPU seconds (user + system, all threads, including threads that
/// already exited) this process has used, or 0 where `/proc` is
/// unavailable. Time the hypervisor steals from the guest is not charged
/// to the process, so unlike wall time this does not grow when other
/// guests share the host's cores.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // After the parenthesised command name, utime and stime are the
    // 12th and 13th fields, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Host seconds [`probe_host`] takes on one thread on the reference host,
/// a quiet 2-vCPU Xeon VM at 2.0 GHz. Host times are scaled to that host's
/// speed.
pub const PROBE_REF_S: f64 = 0.038;

/// Runs a fixed job written in the benchmark itself, independent of the
/// simulator (ordered-map inserts and range lookups, 4 KB copies), on
/// `threads` threads at once, and returns the host seconds until all have
/// finished. On a shared VM the speed at which the host runs this process
/// drifts by a third within minutes as other guests load the machine, and
/// other load can take a whole CPU; this time drifts with both.
pub fn probe_host(threads: usize) -> f64 {
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(probe_job);
        }
    });
    start.elapsed().as_secs_f64()
}

fn probe_job() {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 20
    };
    let mut map = std::collections::BTreeMap::new();
    for i in 0..60_000u64 {
        map.insert(next(), i);
    }
    let mut sum = 0u64;
    for _ in 0..200_000 {
        if let Some((_, v)) = map.range(next()..).next() {
            sum = sum.wrapping_add(*v);
        }
    }
    let src = [7u8; 4096];
    let mut dst = vec![[0u8; 4096]; 256];
    for i in 0..20_000 {
        dst[i % 256].copy_from_slice(&src);
    }
    std::hint::black_box((sum, &dst));
}
