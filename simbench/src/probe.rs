//! Model counters and trace stages read from a `System` around a
//! measured epoch. Counters are deterministic for a seed; the stage
//! percentiles are virtual time. Neither depends on host speed.

use std::collections::BTreeMap;

use bypassd::{direct_read_check, Breakdown, System};
use bypassd_sim::rng::Fnv64;
use bypassd_ssd::device::DeviceStats;
use bypassd_trace::{DeviceRecord, OpRecord, Stage};

/// Counter snapshot of one system.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    dev: DeviceStats,
    /// (ATS requests, pages translated, faults).
    iommu: (u64, u64, u64),
    /// (IOTLB hits, IOTLB misses, PWC hits, PWC misses).
    caches: (u64, u64, u64, u64),
    /// Kernel page cache (hits, misses).
    pagecache: (u64, u64),
}

impl Snapshot {
    /// Reads every counter of `sys`.
    pub fn take(sys: &System) -> Snapshot {
        let (iommu, caches) = {
            let g = sys.iommu().lock();
            (g.stats(), g.cache_stats())
        };
        Snapshot {
            dev: sys.device().stats(),
            iommu,
            caches,
            pagecache: sys.kernel().cache_stats(),
        }
    }

    /// Folds the counters into a determinism fingerprint.
    pub fn hash_into(&self, h: &mut Fnv64) {
        let d = &self.dev;
        for v in [
            d.reads,
            d.writes,
            d.read_bytes,
            d.written_bytes,
            d.flushes,
            d.translation_faults,
            d.qos_throttled,
            d.qos_deferred,
            d.chains,
            d.chain_hops,
            d.chain_faults,
            self.iommu.0,
            self.iommu.1,
            self.iommu.2,
            self.caches.0,
            self.caches.1,
            self.caches.2,
            self.caches.3,
            self.pagecache.0,
            self.pagecache.1,
        ] {
            h.write_u64(v);
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Per-op model counters between two snapshots of one epoch of `ops`
/// application ops, plus `core.direct_ratio` from UserLib's
/// (direct, fallback) op counts over the same epoch.
pub fn counters(
    before: &Snapshot,
    after: &Snapshot,
    ops: u64,
    direct_fallback: (u64, u64),
) -> BTreeMap<&'static str, f64> {
    let d = |f: fn(&DeviceStats) -> u64| f(&after.dev) - f(&before.dev);
    let (ih, im, ph, pm) = (
        after.caches.0 - before.caches.0,
        after.caches.1 - before.caches.1,
        after.caches.2 - before.caches.2,
        after.caches.3 - before.caches.3,
    );
    let pc_hits = after.pagecache.0 - before.pagecache.0;
    let pc_misses = after.pagecache.1 - before.pagecache.1;
    let chains = d(|s| s.chains);
    let (direct, fallback) = direct_fallback;
    BTreeMap::from([
        ("hw.ats_per_op", ratio(after.iommu.0 - before.iommu.0, ops)),
        ("hw.iotlb_hit_ratio", ratio(ih, ih + im)),
        ("hw.pwc_hit_ratio", ratio(ph, ph + pm)),
        ("hw.faults", ratio(after.iommu.2 - before.iommu.2, ops)),
        ("ssd.reads", ratio(d(|s| s.reads), ops)),
        ("ssd.writes", ratio(d(|s| s.writes), ops)),
        ("ssd.flushes", ratio(d(|s| s.flushes), ops)),
        ("ssd.chains", ratio(chains, ops)),
        (
            "ssd.chain_hops_per_chain",
            ratio(d(|s| s.chain_hops), chains),
        ),
        (
            "ssd.translation_faults",
            ratio(d(|s| s.translation_faults), ops),
        ),
        ("ssd.qos_throttled", ratio(d(|s| s.qos_throttled), ops)),
        ("ssd.qos_deferred", ratio(d(|s| s.qos_deferred), ops)),
        (
            "os.pagecache_hit_ratio",
            ratio(pc_hits, pc_hits + pc_misses),
        ),
        ("core.direct_ratio", ratio(direct, direct + fallback)),
    ])
}

/// Drained recorder contents of one epoch.
#[derive(Debug, Default)]
pub struct Records {
    /// Device command records.
    pub device: Vec<DeviceRecord>,
    /// Application op records.
    pub ops: Vec<OpRecord>,
}

impl Records {
    /// Moves everything the recorder holds into `self`.
    pub fn drain(&mut self, sys: &System) {
        self.device.extend(sys.recorder().take_device());
        self.ops.extend(sys.recorder().take_ops());
    }

    /// Virtual per-stage p50s and the direct-read closure error.
    pub fn stages(&self) -> BTreeMap<&'static str, f64> {
        let b = Breakdown::build(&self.device, &self.ops);
        let p50 = |s: Stage| b.stage(s).percentile(0.5).as_nanos() as f64;
        BTreeMap::from([
            ("trace.userlib_submit_ns", p50(Stage::UserlibSubmit)),
            ("trace.qos_admission_ns", p50(Stage::QosAdmission)),
            ("trace.translate_ns", p50(Stage::Translate)),
            ("trace.channel_wait_ns", p50(Stage::ChannelWait)),
            ("trace.device_service_ns", p50(Stage::DeviceService)),
            ("trace.completion_poll_ns", p50(Stage::CompletionPoll)),
            ("trace.user_copy_ns", p50(Stage::UserCopy)),
            ("trace.kernel_fallback_ns", p50(Stage::KernelFallback)),
            (
                "trace.closure_err",
                direct_read_check(&self.device, &self.ops).relative_error(),
            ),
        ])
    }
}

/// Records the recorder has dropped (ring overflow) since it was built.
pub fn dropped(sys: &System) -> u64 {
    sys.recorder().counts().dropped
}
