//! Seeded benchmark of the BypassD simulator: host time per simulated op
//! and the modeled virtual-time results, per workload, plus a traced
//! layer ladder that attributes host time to the simulator's layers.
//!
//! A *rep* builds a fresh world from the seed (timed as set-up), runs one
//! fixed-size measured epoch (timed as the measured phase), and checks
//! every output. Epochs are fixed in simulated work, so every virtual
//! metric is a pure function of the seed; only the host times vary. A run
//! repeats reps until the measured phases add up to `--seconds`, and
//! reports the throughput over all the reps' epochs (per wall-clock and
//! per CPU second) and the median set-up time. A fixed probe before and
//! after each rep measures how fast the host runs at the moment, and the
//! timed pass scales every host time to the speed of one reference host,
//! so that other guests loading a shared machine move the figures less.
//! Every rep's virtual outcome must be bit-identical to the first; a
//! mismatch counts as failed ops.
//!
//! See `NOTES.md` for the metric → layer → workload map.

pub mod direct;
pub mod fleet;
pub mod ladder;
pub mod pin;
pub mod probe;
pub mod shared;
pub mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["direct_read_1t", "shared_rw_16p", "fleet_1k_w2"];

/// End-to-end metrics printed with `--trace 0` (name, unit). The three
/// host-time metrics are scaled to the reference host's speed (see
/// [`stats::probe_host`]); the table and the artifact also print them
/// unscaled.
///
/// The virtual per-op percentiles and `fail_ratio` are printed in the
/// table and the artifact but are not part of the result object. The
/// model is deterministic and most ops share a few exact latencies, so an
/// exact percentile or maximum sits on the same value for every seed, and
/// the fleet exposes no per-op latency distribution. `virt_kiops` (in a
/// closed loop, an actor's virtual time per op of any kind is the actor
/// count over it, by Little's law) and `virt_read_us` carry the modeled
/// latency instead. Failures are already reported as `failed` /
/// `attempted`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_ops_per_s", "1/s"),
    ("sim_ops_per_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("virt_kiops", "kop/s"),
    ("virt_read_us", "us"),
];

/// Per-layer metrics printed with `--trace 1` (name, unit).
pub const PER_LAYER: [(&str, &str); 53] = [
    ("sim.handoff_ns", "ns"),
    ("sim.solo_delay_ns", "ns"),
    ("core.pread_ns_p50", "ns"),
    ("core.pread_ns_p99", "ns"),
    ("core.batch_ns_per_read_p50", "ns"),
    ("core.batch_ns_per_read_p99", "ns"),
    ("core.chain_ns_per_lookup_p50", "ns"),
    ("core.chain_ns_per_lookup_p99", "ns"),
    ("hw.translate_ns", "ns"),
    ("ssd.submit_ns", "ns"),
    ("ssd.submit_batch_ns_per_cmd", "ns"),
    ("ssd.reap_ns", "ns"),
    ("offload.verify_ns", "ns"),
    ("os.sys_pread_ns", "ns"),
    ("os.sys_pwrite_ns", "ns"),
    ("os.sys_fsync_ns", "ns"),
    ("ext4.fmap_cold_ns", "ns"),
    ("ext4.fmap_warm_ns", "ns"),
    ("qos.admit_ns", "ns"),
    ("fleet.mono_s", "s"),
    ("fleet.w1_s", "s"),
    ("fleet.w2_s", "s"),
    ("fleet.scaling_w2", "ratio"),
    ("fleet.lane_overhead", "ratio"),
    ("hw.ats_per_op", "1/op"),
    ("hw.iotlb_hit_ratio", "ratio"),
    ("hw.pwc_hit_ratio", "ratio"),
    ("hw.faults", "1/op"),
    ("ssd.reads", "1/op"),
    ("ssd.writes", "1/op"),
    ("ssd.flushes", "1/op"),
    ("ssd.chains", "1/op"),
    ("ssd.chain_hops_per_chain", "ratio"),
    ("ssd.translation_faults", "1/op"),
    ("ssd.qos_throttled", "1/op"),
    ("ssd.qos_deferred", "1/op"),
    ("os.pagecache_hit_ratio", "ratio"),
    ("core.direct_ratio", "ratio"),
    ("fleet.delivered", "1/op"),
    ("fleet.remote_issued", "1/op"),
    ("fleet.revoked_pids", "count"),
    ("fleet.remote_lat_mean_ns", "ns"),
    ("trace.userlib_submit_ns", "ns"),
    ("trace.qos_admission_ns", "ns"),
    ("trace.translate_ns", "ns"),
    ("trace.channel_wait_ns", "ns"),
    ("trace.device_service_ns", "ns"),
    ("trace.completion_poll_ns", "ns"),
    ("trace.user_copy_ns", "ns"),
    ("trace.kernel_fallback_ns", "ns"),
    ("trace.closure_err", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.records_dropped", "count"),
];

/// Deterministic virtual-time outcome of one measured epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Virt {
    /// Simulated application ops completed (a chain lookup is one op, a
    /// 32-read batch is 32).
    pub ops: u64,
    /// Virtual duration of the epoch.
    pub elapsed_ns: u64,
    /// Median and 99th-percentile per-op virtual latency, where the
    /// workload exposes per-op latencies.
    pub percentiles: Option<(u64, u64)>,
    /// 4 KB reads whose latency `read_ns` sums.
    pub reads: u64,
    /// Summed virtual latency of those reads.
    pub read_ns: u64,
    /// FNV-64 over every per-op latency and the run's model counters.
    pub fingerprint: u64,
}

/// One rep: a fresh world built from the seed plus one measured epoch.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds to build the world and warm it up.
    pub setup_s: f64,
    /// Host seconds of the measured epoch.
    pub measured_s: f64,
    /// Host CPU seconds of the measured epoch (all threads).
    pub measured_cpu_s: f64,
    /// The epoch's virtual outcome.
    pub virt: Virt,
    /// Ops whose output was checked (measured ops plus read-backs).
    pub attempted: u64,
    /// Ops that returned an error or wrong bytes.
    pub failed: u64,
    /// Per-layer metrics observed on this rep (traced reps only).
    pub layers: BTreeMap<&'static str, f64>,
    /// `MetricsRegistry` snapshot after the epoch (traced reps only).
    pub registry: String,
}

impl Rep {
    /// Simulated ops per wall-clock second over the measured epoch.
    pub fn ops_per_s(&self) -> f64 {
        self.virt.ops as f64 / self.measured_s
    }
}

/// Simulated ops over all the reps' epochs per second of `secs`, summed
/// over the same reps. Every rep does the same simulated work, so slow
/// reps weigh by the time they took, as in one long measurement.
pub fn per_second(reps: &[Rep], secs: impl Fn(&Rep) -> f64) -> f64 {
    let ops: u64 = reps.iter().map(|r| r.virt.ops).sum();
    ops as f64 / reps.iter().map(secs).sum::<f64>()
}

/// What one workload needs from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Root seed of every generated input.
    pub seed: u64,
    /// Multiplier on the epoch size: 1.0 from the command line; the
    /// package tests set a small value directly.
    pub scale: f64,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Target host seconds of measured epochs.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the timed pass.
    pub trace: bool,
    /// Epoch size multiplier (1.0 from the command line).
    pub scale: f64,
}

impl Opts {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    /// A message naming the bad or missing argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
        let mut kv = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?
                .to_string();
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            kv.insert(key, value);
        }
        let take = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
        let num = |k: &str| -> Result<f64, String> {
            take(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"))
        };
        let workload = take("workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
            ));
        }
        let seed = take("seed")?
            .parse::<u64>()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds = num("seconds")?;
        let trace = match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        if let Some(extra) = kv
            .keys()
            .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
        {
            return Err(format!("unknown flag --{extra}"));
        }
        Ok(Opts {
            workload,
            seed,
            seconds,
            trace,
            scale: 1.0,
        })
    }
}

/// Runs `f` as the only actor of a fresh simulation and returns its
/// value.
pub(crate) fn solo<T: Send + 'static>(
    f: impl FnOnce(&mut bypassd_sim::ActorCtx) -> T + Send + 'static,
) -> T {
    let sim = bypassd_sim::Simulation::new();
    let slot = std::sync::Arc::new(std::sync::Mutex::new(None));
    let out = std::sync::Arc::clone(&slot);
    sim.spawn("simbench", move |ctx| {
        *out.lock().expect("result slot") = Some(f(ctx));
    });
    sim.run();
    let v = slot.lock().expect("result slot").take();
    v.expect("actor finished")
}

/// Runs one rep of `workload`.
pub fn rep(workload: &str, p: Params, traced: bool) -> Rep {
    match workload {
        "direct_read_1t" => direct::rep(p, traced),
        "shared_rw_16p" => shared::rep(p, traced),
        "fleet_1k_w2" => fleet::rep(p, traced),
        other => unreachable!("workload {other} was validated by Opts::parse"),
    }
}

/// A benchmark run's result: the final JSON line plus a readable table.
#[derive(Debug)]
pub struct Report {
    /// Every check passed and every rep's virtual outcome matched.
    pub correct: bool,
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// The metrics of this pass, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The timed pass's host-time metrics before scaling to the reference
    /// host; printed in the table and the artifact only.
    pub unscaled: Vec<(&'static str, f64, &'static str)>,
    /// Median host speed of the timed pass's reps (see [`Speed`]).
    pub host_speed: Option<Speed>,
    /// Whether the reps ran pinned to one host CPU.
    pub pinned: bool,
    /// The epoch's virtual outcome (identical in every rep when correct).
    pub virt: Virt,
    /// Where each per-layer metric came from (traced pass only).
    pub sources: BTreeMap<&'static str, &'static str>,
    /// `MetricsRegistry` snapshot of the traced rep.
    pub registry: String,
}

impl Report {
    /// Share of attempted ops that failed.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line result object.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                stats::json_num(*value)
            );
        }
        s.push_str("}}");
        s
    }

    /// Human-readable table: every metric by name with its unit, then the
    /// unscaled host times, the virtual percentiles and `fail_ratio`.
    pub fn table(&self, workload: &str) -> String {
        let mut s = format!("workload {workload}\n");
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(s, "  {name:<30} {value:>16.6} {unit}");
        }
        for (name, value, unit) in &self.unscaled {
            let _ = writeln!(
                s,
                "  {:<30} {value:>16.6} {unit}",
                format!("unscaled {name}")
            );
        }
        if let Some(v) = self.host_speed {
            let _ = writeln!(s, "  {:<30} {:>16.6} ratio", "host_speed_cpu", v.cpu);
            let _ = writeln!(s, "  {:<30} {:>16.6} ratio", "host_speed_wall", v.wall);
        }
        match self.virt.percentiles {
            Some((p50, p99)) => {
                let _ = writeln!(s, "  {:<30} {:>16.6} us", "virt_p50_us", p50 as f64 / 1e3);
                let _ = writeln!(s, "  {:<30} {:>16.6} us", "virt_p99_us", p99 as f64 / 1e3);
            }
            None => {
                let _ = writeln!(
                    s,
                    "  virt_p50_us / virt_p99_us: not exposed by this workload"
                );
            }
        }
        let _ = writeln!(
            s,
            "  {:<30} {:>16.6} ratio",
            "fail_ratio",
            self.fail_ratio()
        );
        let _ = writeln!(
            s,
            "  virtual fingerprint {:#018x} over {} ops",
            self.virt.fingerprint, self.virt.ops
        );
        s
    }

    /// Artifact written next to the printed result: every metric, the
    /// virtual outcome, metric sources and the registry snapshot.
    pub fn artifact(&self, opts: &Opts) -> String {
        let mut s = format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"trace\": {},\n  \"scale\": {},\n  \
             \"host_parallelism\": {},\n  \"pinned\": {},\n  \"fail_ratio\": {},\n  \
             \"virtual\": {{\"ops\": {}, \
             \"elapsed_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"reads\": {}, \
             \"read_ns\": {}, \"fingerprint\": \"{:#018x}\"}},\n  \
             \"result\": {},\n  \"unscaled\": {{{}}},\n  \"host_speed\": {{\"cpu\": {}, \"wall\": {}}},\n  \"sources\": {{",
            opts.workload,
            opts.seed,
            u8::from(opts.trace),
            stats::json_num(opts.scale),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            self.pinned,
            stats::json_num(self.fail_ratio()),
            self.virt.ops,
            self.virt.elapsed_ns,
            self.virt.percentiles.map_or(0, |p| p.0),
            self.virt.percentiles.map_or(0, |p| p.1),
            self.virt.reads,
            self.virt.read_ns,
            self.virt.fingerprint,
            self.json(),
            self.unscaled
                .iter()
                .map(|(name, value, _)| format!("\"{name}\": {}", stats::json_num(*value)))
                .collect::<Vec<_>>()
                .join(", "),
            stats::json_num(self.host_speed.map_or(0.0, |v| v.cpu)),
            stats::json_num(self.host_speed.map_or(0.0, |v| v.wall)),
        );
        for (i, (name, src)) in self.sources.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    \"{name}\": \"{src}\"");
        }
        let _ = write!(
            s,
            "\n  }},\n  \"registry\": \"{}\"\n}}\n",
            stats::json_escape(&self.registry)
        );
        s
    }
}

/// Environment variables that turn the flight recorder on or resize it
/// in every `System` built while they are set.
const TRACE_ENV: [&str; 3] = [
    "BYPASSD_TRACE",
    "BYPASSD_TRACE_SAMPLE",
    "BYPASSD_TRACE_RING",
];

/// Runs the benchmark as `opts` asks and returns its report.
///
/// # Errors
/// The measured reps could not be pinned to one CPU (see [`pin`]).
pub fn run(opts: &Opts) -> Result<Report, String> {
    // Untraced reps must run untraced whatever the caller's environment
    // says; the traced fleet rep sets `BYPASSD_TRACE` for itself.
    for var in TRACE_ENV {
        std::env::remove_var(var);
    }
    let p = Params {
        seed: opts.seed,
        scale: opts.scale,
    };
    if opts.trace {
        run_traced(&opts.workload, p, opts.seconds)
    } else {
        run_timed(&opts.workload, p, opts.seconds)
    }
}

/// Host threads a workload's measured epoch runs on at once: the fleet's
/// lane workers, or the one thread a single `Simulation` runs at a time.
fn parallelism(workload: &str) -> usize {
    if workload == "fleet_1k_w2" {
        fleet::WORKERS
    } else {
        1
    }
}

/// Pins the measured reps of a single-`Simulation` workload to one CPU.
/// The fleet runs its lanes on several workers and is never pinned.
fn pin_for(workload: &str) -> Result<Option<pin::Pinned>, String> {
    if parallelism(workload) > 1 {
        return Ok(None);
    }
    pin::Pinned::to_one_cpu()
        .map(Some)
        .map_err(|e| format!("cannot pin the measured reps to one CPU: {e}"))
}

/// Reps are repeated until their measured epochs add up to `seconds`,
/// with at least this many so `setup_s` is a median of several set-ups.
const MIN_REPS: usize = 3;

/// Folds the reps' checks into totals; a rep whose virtual outcome
/// differs from the first rep's counts all its ops as failed.
fn tally(reps: &[&Rep]) -> (Virt, u64, u64) {
    let first = reps[0].virt.clone();
    let (mut attempted, mut failed) = (0, 0);
    for r in reps {
        attempted += r.attempted;
        failed += r.failed;
        if r.virt != first {
            failed += first.ops;
        }
    }
    (first, attempted, failed)
}

/// Host speed during one timed rep relative to the reference host, from
/// [`stats::probe_host`] run before and after the rep.
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    /// From a probe on one thread; scales CPU seconds.
    pub cpu: f64,
    /// Scales wall-clock seconds: the geometric mean of the one-thread
    /// speed and that of a probe on as many threads as the workload runs
    /// at once (the same for a one-thread workload). The fleet keeps about
    /// 1.25 of its 2 workers busy, so a CPU taken by other load slows it
    /// less than a two-thread probe and more than a one-thread one. With
    /// one CPU kept busy by another process, the fleet's unscaled
    /// wall-clock throughput fell by 21% and the scaled one by under 1%;
    /// with that CPU busy half the time, by 22% and 12%.
    pub wall: f64,
}

impl Speed {
    /// Probe seconds on one thread and on `threads` threads.
    fn probe(threads: usize) -> (f64, f64) {
        let one = stats::probe_host(1);
        let all = if threads == 1 {
            one
        } else {
            stats::probe_host(threads)
        };
        (one, all)
    }

    fn from_probes(before: (f64, f64), after: (f64, f64)) -> Speed {
        let cpu = stats::PROBE_REF_S / ((before.0 + after.0) / 2.0);
        let all = stats::PROBE_REF_S / ((before.1 + after.1) / 2.0);
        Speed {
            cpu,
            wall: (cpu * all).sqrt(),
        }
    }
}

fn run_timed(workload: &str, p: Params, seconds: f64) -> Result<Report, String> {
    let pin = pin_for(workload)?;
    let threads = parallelism(workload);
    let mut reps: Vec<(Rep, Speed)> = Vec::new();
    let mut measured = 0.0;
    let mut peak_rss = 0.0;
    while reps.len() < MIN_REPS || measured < seconds {
        let before = Speed::probe(threads);
        let r = rep(workload, p, false);
        let speed = Speed::from_probes(before, Speed::probe(threads));
        if reps.is_empty() {
            // Later reps reuse freed memory with varying fragmentation;
            // the first rep's peak is the footprint of one world.
            peak_rss = stats::peak_rss_mib();
        }
        measured += r.measured_s;
        eprintln!(
            "simbench: rep {}: set-up {:.4} s, epoch {:.4} s ({:.2} s cpu), {:.0} ops/s, \
             host speed {:.3} cpu {:.3} wall",
            reps.len(),
            r.setup_s,
            r.measured_s,
            r.measured_cpu_s,
            r.ops_per_s(),
            speed.cpu,
            speed.wall,
        );
        reps.push((r, speed));
    }
    let all: Vec<&Rep> = reps.iter().map(|(r, _)| r).collect();
    let (virt, attempted, failed) = tally(&all);
    // Ops over all the epochs per second summed over the same reps, as
    // in `per_second`, and the median set-up, with host times as `secs`
    // gives them.
    let ops: u64 = all.iter().map(|r| r.virt.ops).sum();
    let rate = |secs: fn(&(Rep, Speed)) -> f64| ops as f64 / reps.iter().map(secs).sum::<f64>();
    let setup = |secs: fn(&(Rep, Speed)) -> f64| {
        let v: Vec<f64> = reps.iter().map(secs).collect();
        stats::median(&v)
    };
    let values = [
        rate(|(r, s)| r.measured_s * s.wall),
        rate(|(r, s)| r.measured_cpu_s * s.cpu),
        setup(|(r, s)| r.setup_s * s.wall),
        peak_rss,
        virt.ops as f64 / virt.elapsed_ns as f64 * 1e6,
        virt.read_ns as f64 / virt.reads.max(1) as f64 / 1e3,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    let median_speed = |f: fn(&Speed) -> f64| {
        let v: Vec<f64> = reps.iter().map(|(_, s)| f(s)).collect();
        stats::median(&v)
    };
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        unscaled: vec![
            ("sim_ops_per_s", rate(|(r, _)| r.measured_s), "1/s"),
            ("sim_ops_per_cpu_s", rate(|(r, _)| r.measured_cpu_s), "1/s"),
            ("setup_s", setup(|(r, _)| r.setup_s), "s"),
        ],
        host_speed: Some(Speed {
            cpu: median_speed(|s| s.cpu),
            wall: median_speed(|s| s.wall),
        }),
        pinned: pin.is_some(),
        virt,
        sources: BTreeMap::new(),
        registry: String::new(),
    })
}

/// The traced pass: alternating untraced and traced reps (so the tracing
/// overhead and the trace-on/off identity are measured on the same
/// workload), pinned like the timed pass, then the unpinned layer ladder.
/// A per-layer metric the workload itself cannot expose comes from the
/// ladder's direct-read rung; the artifact records each metric's source.
fn run_traced(workload: &str, p: Params, seconds: f64) -> Result<Report, String> {
    let pin = pin_for(workload)?;
    let pinned = pin.is_some();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut measured = 0.0;
    while plain.is_empty() || measured < seconds {
        let u = rep(workload, p, false);
        let t = rep(workload, p, true);
        measured += u.measured_s + t.measured_s;
        plain.push(u);
        traced.push(t);
    }
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let (virt, mut attempted, mut failed) = tally(&all);

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut sources: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let vals: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.layers.get(name).copied())
            .collect();
        if !vals.is_empty() {
            layers.insert(name, stats::median(&vals));
            sources.insert(name, "workload");
        }
    }
    layers.insert(
        "trace.overhead_ratio",
        per_second(&traced, |r| r.measured_cpu_s) / per_second(&plain, |r| r.measured_cpu_s),
    );
    sources.insert("trace.overhead_ratio", "workload");

    // The ladder's fleet rungs time 1 and 2 workers against each other,
    // so they need every CPU.
    drop(pin);
    let ladder_start = Instant::now();
    let mut ladder = ladder::run(p.seed, p.scale);
    if PER_LAYER
        .iter()
        .any(|(name, _)| !layers.contains_key(name) && !ladder.metrics.iter().any(|m| m.0 == *name))
    {
        let rung = ladder::direct_rung(p.seed, p.scale);
        ladder.attempted += rung.attempted;
        ladder.failed += rung.failed;
        for (name, value) in rung.layers {
            ladder.metrics.push((name, value, "ladder.direct"));
        }
    }
    attempted += ladder.attempted;
    failed += ladder.failed;
    for (name, value, source) in ladder.metrics {
        if !layers.contains_key(name) {
            layers.insert(name, value);
            sources.insert(name, source);
        }
    }
    eprintln!(
        "simbench: ladder took {:.2} s",
        ladder_start.elapsed().as_secs_f64()
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = *layers
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            (name, v, unit)
        })
        .collect();
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        unscaled: Vec::new(),
        host_speed: None,
        pinned,
        virt,
        sources,
        registry: traced
            .last()
            .map(|r| r.registry.clone())
            .unwrap_or_default(),
    })
}
