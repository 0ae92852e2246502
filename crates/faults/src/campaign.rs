//! Crash-point campaign runner: record, sweep, shrink.
//!
//! A campaign runs a workload once with recording on to learn its write
//! schedule, then re-executes it under a family of power cuts derived from
//! that schedule:
//!
//! * a **clean cut** before every write event — this covers every
//!   journal-commit boundary and every inter-write instant, because each
//!   commit record and each home-location write is its own event;
//! * sampled **mid-write tears** of multi-sector events (prefix and
//!   scattered-sector variants);
//! * **reorder cuts** that additionally drop a seeded subset of the writes
//!   issued since the last FLUSH barrier, modelling a volatile write cache
//!   that loses un-flushed data out of order.
//!
//! After each cut the harness recovers (power-cycle, remount, fsck, data
//! integrity checks) and reports pass/fail. Failures are shrunk: first the
//! point is simplified to a clean cut, then binary search finds the
//! earliest failing clean cut — a minimal reproducer to hand a human.
//!
//! Everything is derived from `CampaignConfig::seed` plus the recorded
//! schedule, so a campaign is bit-reproducible: running it twice yields
//! byte-identical reports (asserted via [`CampaignReport::fingerprint`]).

use std::fmt;
use std::sync::Arc;

use bypassd_sim::rng::{Fnv64, Rng};

use crate::plane::{Cut, FaultPlane, Tear, WriteEvent, WriteKind};

/// Harness contract: how to run one workload iteration under the plane.
///
/// The runner guarantees the call order per iteration:
/// `plane.reset()` → `prepare` → (arm cut) → `run` → `plane.power_restore()`
/// → `recover_and_check`. `prepare` must build a fresh system *sharing the
/// given plane* (so sequence numbers align across iterations) and do any
/// setup whose writes should not be crash candidates; `run` executes the
/// workload; `recover_and_check` remounts, runs fsck and data-integrity
/// checks, and describes any violation.
pub trait FaultHarness {
    /// Builds fresh state on the shared plane. Writes issued here are
    /// observed (they advance the sequence counter identically in every
    /// iteration) but are not crash-point candidates.
    fn prepare(&self, plane: &Arc<FaultPlane>);
    /// Runs the workload to completion (the plane decides what persists).
    fn run(&self, plane: &Arc<FaultPlane>);
    /// Recovers after the (possible) cut and verifies every invariant.
    fn recover_and_check(&self, plane: &Arc<FaultPlane>) -> Result<(), String>;
}

/// One crash scenario in a campaign, derived from the recorded schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashPoint {
    /// Clean power cut immediately before write `seq`.
    Clean { seq: u64 },
    /// Cut at `seq` where the write itself partially persists.
    Torn {
        seq: u64,
        keep_sectors: u32,
        scatter_salt: u64,
    },
    /// Cut at `cut_seq` that also loses `drop` (sorted, all after the last
    /// flush barrier) from the volatile cache.
    Reorder { cut_seq: u64, drop: Vec<u64> },
}

impl CrashPoint {
    /// The cut this point arms.
    pub fn to_cut(&self) -> Cut {
        match self {
            CrashPoint::Clean { seq } => Cut::at_seq(*seq),
            CrashPoint::Torn {
                seq,
                keep_sectors,
                scatter_salt,
            } => Cut {
                cut_seq: seq + 1,
                drop_before: Vec::new(),
                tear: Some(Tear {
                    seq: *seq,
                    keep_sectors: *keep_sectors,
                    scatter_salt: *scatter_salt,
                }),
            },
            CrashPoint::Reorder { cut_seq, drop } => Cut {
                cut_seq: *cut_seq,
                drop_before: drop.clone(),
                tear: None,
            },
        }
    }

    /// The sequence number the point cuts at (for shrinking/ordering).
    pub fn seq(&self) -> u64 {
        match self {
            CrashPoint::Clean { seq } | CrashPoint::Torn { seq, .. } => *seq,
            CrashPoint::Reorder { cut_seq, .. } => *cut_seq,
        }
    }

    fn absorb(&self, h: &mut Fnv64) {
        match self {
            CrashPoint::Clean { seq } => {
                h.write_u64(1);
                h.write_u64(*seq);
            }
            CrashPoint::Torn {
                seq,
                keep_sectors,
                scatter_salt,
            } => {
                h.write_u64(2);
                h.write_u64(*seq);
                h.write_u64(u64::from(*keep_sectors));
                h.write_u64(*scatter_salt);
            }
            CrashPoint::Reorder { cut_seq, drop } => {
                h.write_u64(3);
                h.write_u64(*cut_seq);
                for d in drop {
                    h.write_u64(*d);
                }
            }
        }
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashPoint::Clean { seq } => write!(f, "clean cut before seq {seq}"),
            CrashPoint::Torn {
                seq,
                keep_sectors,
                scatter_salt,
            } => write!(
                f,
                "torn write at seq {seq} (keep {keep_sectors} sectors, salt {scatter_salt:#x})"
            ),
            CrashPoint::Reorder { cut_seq, drop } => {
                write!(f, "reorder cut at seq {cut_seq} dropping {drop:?}")
            }
        }
    }
}

/// Campaign parameters. All enumeration and sampling derives from `seed`.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed for tear sampling, reorder subsets, and scatter salts.
    pub seed: u64,
    /// Budget: at most this many points run (deterministic stride
    /// subsample when enumeration yields more).
    pub max_points: usize,
    /// Tear variants sampled per multi-sector write event.
    pub tears_per_write: usize,
    /// Emit a reorder point at every Nth eligible write event (0 = none).
    pub reorder_stride: usize,
    /// Extra iterations allowed for shrinking each failure.
    pub shrink_budget: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xB17_FA17,
            max_points: 400,
            tears_per_write: 2,
            reorder_stride: 4,
            shrink_budget: 12,
        }
    }
}

/// One surviving failure, with its shrunk reproducer.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// The point that failed during the sweep.
    pub point: CrashPoint,
    /// The harness's description of the violation.
    pub error: String,
    /// A simpler point that still fails, if shrinking found one.
    pub shrunk: Option<CrashPoint>,
}

/// Outcome of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Seed the campaign derives from.
    pub seed: u64,
    /// Write events (incl. flush barriers) in the recorded schedule.
    pub schedule_len: usize,
    /// Points the enumerator produced before the budget subsample.
    pub points_enumerated: usize,
    /// Points actually executed.
    pub points_run: usize,
    /// Executed points by kind: clean cuts.
    pub clean_points: usize,
    /// Executed points by kind: mid-write tears.
    pub torn_points: usize,
    /// Executed points by kind: reorder cuts.
    pub reorder_points: usize,
    /// Failures (empty on a passing campaign).
    pub failures: Vec<CampaignFailure>,
    /// FNV digest of (seed, schedule, every point, every outcome):
    /// byte-identical across reruns of the same seed+workload.
    pub fingerprint: u64,
}

impl CampaignReport {
    /// True if every crash point recovered cleanly.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable summary (used by tests and EXPERIMENTS.md).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "campaign seed={:#x}: {} points ({} clean, {} torn, {} reorder) over {} write events: {}",
            self.seed,
            self.points_run,
            self.clean_points,
            self.torn_points,
            self.reorder_points,
            self.schedule_len,
            if self.passed() { "PASS" } else { "FAIL" },
        );
        for f in &self.failures {
            s.push_str(&format!("\n  FAIL at {}: {}", f.point, f.error));
            if let Some(m) = &f.shrunk {
                s.push_str(&format!("\n    shrunk to {m}"));
            }
        }
        s
    }
}

/// Enumerates crash points from a recorded schedule. Pure and
/// deterministic in (schedule, cfg).
pub fn enumerate_points(schedule: &[WriteEvent], cfg: &CampaignConfig) -> Vec<CrashPoint> {
    let mut rng = Rng::new(cfg.seed);
    let mut points = Vec::new();
    let mut last_flush_seq = schedule.first().map_or(0, |e| e.seq);
    let mut eligible = 0usize;
    for e in schedule {
        if e.kind == WriteKind::Flush {
            // Cut *at* the barrier with a seeded subset of the window
            // lost: a crash during the flush, after the device's volatile
            // cache internally reordered the un-flushed writes. This is
            // the async-commit scenario journal checksums exist for (a
            // commit record persists while a journaled block before it is
            // lost).
            if cfg.reorder_stride > 0 {
                let drop: Vec<u64> = schedule
                    .iter()
                    .filter(|w| {
                        w.kind != WriteKind::Flush && w.seq >= last_flush_seq && w.seq < e.seq
                    })
                    .map(|w| w.seq)
                    .filter(|_| rng.gen_bool(0.25))
                    .collect();
                if !drop.is_empty() {
                    points.push(CrashPoint::Reorder {
                        cut_seq: e.seq,
                        drop,
                    });
                }
            }
            last_flush_seq = e.seq + 1;
            continue;
        }
        points.push(CrashPoint::Clean { seq: e.seq });
        if e.sectors > 1 {
            let variants = cfg.tears_per_write.min(e.sectors as usize - 1);
            for v in 0..variants {
                let keep = 1 + rng.gen_range(u64::from(e.sectors) - 1) as u32;
                // Alternate prefix tears and scattered tears.
                let salt = if v % 2 == 0 { 0 } else { rng.next_u64() | 1 };
                points.push(CrashPoint::Torn {
                    seq: e.seq,
                    keep_sectors: keep,
                    scatter_salt: salt,
                });
            }
        }
        eligible += 1;
        if cfg.reorder_stride > 0 && eligible.is_multiple_of(cfg.reorder_stride) {
            // Volatile-cache loss: drop a seeded subset of the writes since
            // the last flush barrier (exclusive of the cut write itself).
            let window: Vec<u64> = schedule
                .iter()
                .filter(|w| w.kind != WriteKind::Flush && w.seq >= last_flush_seq && w.seq < e.seq)
                .map(|w| w.seq)
                .collect();
            let drop: Vec<u64> = window
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            if !drop.is_empty() {
                points.push(CrashPoint::Reorder {
                    cut_seq: e.seq,
                    drop,
                });
            }
        }
    }
    points
}

/// Deterministic stride subsample down to `max` points, preserving order.
fn subsample(points: Vec<CrashPoint>, max: usize) -> Vec<CrashPoint> {
    if points.len() <= max || max == 0 {
        return points;
    }
    let n = points.len();
    (0..max).map(|i| points[i * n / max].clone()).collect()
}

fn run_point<H: FaultHarness>(
    h: &H,
    plane: &Arc<FaultPlane>,
    cut: Option<Cut>,
) -> Result<(), String> {
    plane.reset();
    h.prepare(plane);
    if let Some(cut) = cut {
        plane.arm(cut);
    }
    h.run(plane);
    plane.power_restore();
    h.recover_and_check(plane)
}

/// Shrinks a failing point: simplify to a clean cut, then binary-search
/// the earliest failing clean-cut seq. Returns the simplest point found
/// to still fail (paired with its error), if any.
fn shrink<H: FaultHarness>(
    h: &H,
    plane: &Arc<FaultPlane>,
    point: &CrashPoint,
    error: &str,
    budget: usize,
) -> Option<(CrashPoint, String)> {
    let mut remaining = budget;

    let try_point = |p: CrashPoint, remaining: &mut usize| -> Option<String> {
        if *remaining == 0 {
            return None;
        }
        *remaining -= 1;
        run_point(h, plane, Some(p.to_cut())).err()
    };

    // Step 1: does the plain clean cut at the same seq already fail?
    let mut hi = point.seq();
    let mut best = if matches!(point, CrashPoint::Clean { .. }) {
        Some((point.clone(), error.to_owned()))
    } else {
        match try_point(CrashPoint::Clean { seq: hi }, &mut remaining) {
            Some(err) => Some((CrashPoint::Clean { seq: hi }, err)),
            None => return None, // complexity is essential; keep original
        }
    };
    // Step 2: binary descent towards the earliest failing clean cut.
    let mut lo = 0u64;
    while lo < hi && remaining > 0 {
        let mid = lo + (hi - lo) / 2;
        match try_point(CrashPoint::Clean { seq: mid }, &mut remaining) {
            Some(err) => {
                hi = mid;
                best = Some((CrashPoint::Clean { seq: mid }, err));
            }
            None => lo = mid + 1,
        }
    }
    best
}

/// Runs a full campaign. See the module docs for the protocol.
pub fn run_campaign<H: FaultHarness>(
    h: &H,
    plane: &Arc<FaultPlane>,
    cfg: &CampaignConfig,
) -> CampaignReport {
    // Pass 0: record the schedule with no fault armed; this doubles as the
    // baseline (a workload that cannot recover without a crash is a
    // harness bug, reported as a failure at seq u64::MAX).
    plane.reset();
    h.prepare(plane);
    plane.start_recording();
    h.run(plane);
    let schedule = plane.take_schedule();
    let baseline = h.recover_and_check(plane);

    let enumerated = enumerate_points(&schedule, cfg);
    let points_enumerated = enumerated.len();
    let points = subsample(enumerated, cfg.max_points);

    let mut fp = Fnv64::new();
    fp.write_u64(cfg.seed);
    fp.write_u64(schedule.len() as u64);
    for e in &schedule {
        fp.write_u64(e.seq);
        fp.write_u64(e.lba.0);
        fp.write_u64(u64::from(e.sectors));
        fp.write_u64(e.time.as_nanos());
    }

    let mut failures = Vec::new();
    if let Err(e) = baseline {
        failures.push(CampaignFailure {
            point: CrashPoint::Clean { seq: u64::MAX },
            error: format!("baseline (no fault) failed: {e}"),
            shrunk: None,
        });
    }

    let (mut clean, mut torn, mut reorder) = (0usize, 0usize, 0usize);
    let points_run = points.len();
    for p in &points {
        match p {
            CrashPoint::Clean { .. } => clean += 1,
            CrashPoint::Torn { .. } => torn += 1,
            CrashPoint::Reorder { .. } => reorder += 1,
        }
        let outcome = run_point(h, plane, Some(p.to_cut()));
        p.absorb(&mut fp);
        match &outcome {
            Ok(()) => fp.write_u64(0),
            Err(e) => {
                fp.write_u64(1);
                fp.write(e.as_bytes());
            }
        }
        if let Err(error) = outcome {
            let shrunk = shrink(h, plane, p, &error, cfg.shrink_budget).map(|(sp, _)| sp);
            failures.push(CampaignFailure {
                point: p.clone(),
                error,
                shrunk,
            });
        }
    }

    CampaignReport {
        seed: cfg.seed,
        schedule_len: schedule.len(),
        points_enumerated,
        points_run,
        clean_points: clean,
        torn_points: torn,
        reorder_points: reorder,
        failures,
        fingerprint: fp.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypassd_hw::types::Lba;
    use bypassd_sim::time::Nanos;
    use parking_lot::Mutex;

    fn sched(n: u64, sectors: u32) -> Vec<WriteEvent> {
        (0..n)
            .map(|i| WriteEvent {
                seq: i,
                lba: Lba(i * 8),
                sectors,
                time: Nanos(i * 100),
                kind: WriteKind::Raw,
            })
            .collect()
    }

    #[test]
    fn enumeration_is_deterministic() {
        let s = sched(20, 8);
        let cfg = CampaignConfig::default();
        assert_eq!(enumerate_points(&s, &cfg), enumerate_points(&s, &cfg));
    }

    #[test]
    fn enumeration_covers_every_event_with_a_clean_cut() {
        let s = sched(20, 8);
        let cfg = CampaignConfig::default();
        let pts = enumerate_points(&s, &cfg);
        for e in &s {
            assert!(
                pts.iter()
                    .any(|p| matches!(p, CrashPoint::Clean { seq } if *seq == e.seq)),
                "no clean cut for seq {}",
                e.seq
            );
        }
        assert!(pts.iter().any(|p| matches!(p, CrashPoint::Torn { .. })));
        assert!(pts.iter().any(|p| matches!(p, CrashPoint::Reorder { .. })));
    }

    #[test]
    fn reorder_windows_respect_flush_barriers() {
        let mut s = sched(12, 8);
        s[6] = WriteEvent {
            seq: 6,
            lba: Lba(0),
            sectors: 0,
            time: Nanos(600),
            kind: WriteKind::Flush,
        };
        let cfg = CampaignConfig {
            reorder_stride: 1,
            ..CampaignConfig::default()
        };
        for p in enumerate_points(&s, &cfg) {
            if let CrashPoint::Reorder { cut_seq, drop } = p {
                for d in drop {
                    assert!(d < cut_seq);
                    // Nothing from before the barrier may be dropped when
                    // cutting after it.
                    if cut_seq > 6 {
                        assert!(d > 6, "drop {d} crosses flush barrier (cut {cut_seq})");
                    }
                }
            }
        }
    }

    #[test]
    fn subsample_respects_budget_and_keeps_order() {
        let s = sched(100, 8);
        let cfg = CampaignConfig {
            max_points: 17,
            ..CampaignConfig::default()
        };
        let pts = subsample(enumerate_points(&s, &cfg), cfg.max_points);
        assert_eq!(pts.len(), 17);
        let seqs: Vec<u64> = pts.iter().map(CrashPoint::seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    /// A harness over a toy "filesystem": an in-memory array where the
    /// workload writes a checksum-protected pair of cells per step, with a
    /// deliberate bug mode (non-atomic pair) the campaign must catch.
    struct ToyHarness {
        buggy: bool,
        cells: Mutex<Vec<(u64, u64)>>, // (value, checksum)
    }

    impl ToyHarness {
        fn new(buggy: bool) -> Self {
            ToyHarness {
                buggy,
                cells: Mutex::new(Vec::new()),
            }
        }
    }

    impl FaultHarness for ToyHarness {
        fn prepare(&self, _plane: &Arc<FaultPlane>) {
            *self.cells.lock() = vec![(0, 0); 8];
        }

        fn run(&self, plane: &Arc<FaultPlane>) {
            for step in 1..=8u64 {
                let idx = (step - 1) as usize;
                if self.buggy {
                    // Value and checksum written as two separate writes: a
                    // cut between them leaves a torn pair.
                    if plane.on_write(Lba(idx as u64 * 8), 8, None, WriteKind::Raw)
                        == WriteVerdict::Persist
                    {
                        self.cells.lock()[idx].0 = step;
                    }
                    if plane.on_write(Lba(idx as u64 * 8 + 4), 8, None, WriteKind::Raw)
                        == WriteVerdict::Persist
                    {
                        self.cells.lock()[idx].1 = step ^ 0xFF;
                    }
                } else {
                    // Atomic pair: one write.
                    if plane.on_write(Lba(idx as u64 * 8), 8, None, WriteKind::Raw)
                        == WriteVerdict::Persist
                    {
                        self.cells.lock()[idx] = (step, step ^ 0xFF);
                    }
                }
            }
        }

        fn recover_and_check(&self, _plane: &Arc<FaultPlane>) -> Result<(), String> {
            for (i, &(v, c)) in self.cells.lock().iter().enumerate() {
                if v == 0 && c == 0 {
                    continue; // never written: fine
                }
                if c != v ^ 0xFF {
                    return Err(format!("cell {i} torn: value {v} checksum {c}"));
                }
            }
            Ok(())
        }
    }

    use crate::plane::WriteVerdict;

    #[test]
    fn campaign_passes_on_atomic_workload() {
        let plane = Arc::new(FaultPlane::new());
        let report = run_campaign(&ToyHarness::new(false), &plane, &CampaignConfig::default());
        assert!(report.passed(), "{}", report.summary());
        assert!(report.points_run >= 8);
    }

    #[test]
    fn campaign_catches_torn_pair_and_shrinks() {
        let plane = Arc::new(FaultPlane::new());
        let report = run_campaign(&ToyHarness::new(true), &plane, &CampaignConfig::default());
        assert!(!report.passed());
        let f = &report.failures[0];
        let shrunk = f.shrunk.as_ref().expect("shrinker found reproducer");
        // Earliest failing clean cut is between the first pair's writes.
        assert_eq!(shrunk, &CrashPoint::Clean { seq: 1 });
    }

    #[test]
    fn campaign_is_bit_reproducible() {
        let plane = Arc::new(FaultPlane::new());
        let cfg = CampaignConfig::default();
        let a = run_campaign(&ToyHarness::new(true), &plane, &cfg);
        let b = run_campaign(&ToyHarness::new(true), &plane, &cfg);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.summary(), b.summary());
        let c = run_campaign(
            &ToyHarness::new(true),
            &plane,
            &CampaignConfig { seed: 999, ..cfg },
        );
        assert_ne!(a.fingerprint, c.fingerprint);
    }
}
