//! `fleet_1k_w2`: the `FleetConfig::k1()` scenario (1 000 processes over
//! 4 machine lanes plus the control lane, with remote doorbells, writes,
//! revocations and QoS pressure epochs) on `FleetBuilder::run(2)`. It is
//! the only workload that drives the fleet lane executor, the cross-lane
//! mailbox and driver multiplexing.
//!
//! `FleetBuilder` builds its machines inside `run`, so the timed epoch
//! includes them; set-up is the builder plus a smoke-sized warm-up fleet.
//! The public `FleetReport` exposes no per-op latency distribution; the
//! latency metrics of this workload are the remote-read latencies it
//! does expose (see `NOTES.md`).

use std::collections::BTreeMap;
use std::time::Instant;

use bypassd::{FleetBuilder, FleetConfig, FleetReport};

use crate::{stats, Params, Rep, Virt};

/// Workers of the measured run.
pub const WORKERS: usize = 2;
/// Batched-read rounds per process at scale 1 (`k1()` has 3).
const ROUNDS: f64 = 12.0;

/// The measured scenario for `seed` with `rounds` rounds.
pub fn config(seed: u64, rounds: u32) -> FleetConfig {
    let mut cfg = FleetConfig::k1();
    cfg.seed ^= seed;
    cfg.rounds = rounds;
    cfg
}

fn rounds(scale: f64) -> u32 {
    ((ROUNDS * scale).round() as u32).max(1)
}

/// Remote reads that never completed or completed with an error.
pub fn remote_failures(r: &FleetReport) -> u64 {
    r.lanes.iter().map(|l| l.remote_issued - l.remote_ok).sum()
}

/// Virtual outcome of a fleet run. The reads are the remote 4 KB reads,
/// the only per-op latencies `FleetReport` exposes; the fingerprint is
/// `FleetReport::fingerprint`.
pub fn virt(r: &FleetReport) -> Virt {
    Virt {
        ops: r.total_ops(),
        elapsed_ns: r.lanes.iter().map(|l| l.driver_end).max().unwrap_or(0),
        percentiles: None,
        reads: r.lanes.iter().map(|l| l.remote_done).sum(),
        read_ns: r.lanes.iter().map(|l| l.remote_lat_sum).sum(),
        fingerprint: r.fingerprint(),
    }
}

/// Per-op fleet counters of one report.
pub fn counters(r: &FleetReport) -> BTreeMap<&'static str, f64> {
    let ops = r.total_ops().max(1) as f64;
    let sum = |f: fn(&bypassd::LaneReport) -> u64| r.lanes.iter().map(f).sum::<u64>() as f64;
    let done = sum(|l| l.remote_done);
    BTreeMap::from([
        ("fleet.delivered", r.delivered as f64 / ops),
        ("fleet.remote_issued", sum(|l| l.remote_issued) / ops),
        ("fleet.revoked_pids", sum(|l| l.revoked_pids)),
        (
            "fleet.remote_lat_mean_ns",
            sum(|l| l.remote_lat_sum) / done.max(1.0),
        ),
    ])
}

/// Runs one rep. A traced rep runs with `BYPASSD_TRACE=1`, which turns
/// the flight recorder on in every machine the builder creates; the
/// fingerprint must not change.
pub fn rep(p: Params, traced: bool) -> Rep {
    let setup_start = Instant::now();
    let builder = FleetBuilder::new(config(p.seed, rounds(p.scale)));
    let mut warm_cfg = FleetConfig::smoke();
    warm_cfg.seed ^= p.seed;
    let warm = FleetBuilder::new(warm_cfg).run(WORKERS);
    let setup_s = setup_start.elapsed().as_secs_f64();

    if traced {
        std::env::set_var("BYPASSD_TRACE", "1");
    }
    let measured_start = Instant::now();
    let cpu_start = stats::cpu_seconds();
    let report = builder.run(WORKERS);
    let measured_s = measured_start.elapsed().as_secs_f64();
    let measured_cpu_s = stats::cpu_seconds() - cpu_start;
    if traced {
        std::env::remove_var("BYPASSD_TRACE");
    }

    let mut layers = BTreeMap::new();
    if traced {
        let (direct, fallback): (u64, u64) = report
            .lanes
            .iter()
            .fold((0, 0), |(d, f), l| (d + l.direct_ops, f + l.fallback_ops));
        let ops = report.total_ops().max(1) as f64;
        let sum =
            |f: fn(&bypassd::LaneReport) -> u64| report.lanes.iter().map(f).sum::<u64>() as f64;
        layers.extend(counters(&report));
        layers.insert(
            "core.direct_ratio",
            direct as f64 / (direct + fallback).max(1) as f64,
        );
        layers.insert("ssd.qos_throttled", sum(|l| l.qos_throttled) / ops);
        layers.insert("ssd.qos_deferred", sum(|l| l.qos_deferred) / ops);
    }
    Rep {
        setup_s,
        measured_s,
        measured_cpu_s,
        virt: virt(&report),
        attempted: report.total_ops() + warm.total_ops(),
        failed: remote_failures(&report) + remote_failures(&warm),
        layers,
        registry: String::new(),
    }
}
