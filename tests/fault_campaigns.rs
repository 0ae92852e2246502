//! Deterministic fault-injection campaigns through the full stack:
//! arbitrary crash points swept over real workloads, every point checked
//! by remount + fsck + replay-twice idempotence + data integrity against
//! the durable-mark horizon — plus the media-error and completion-loss
//! injection paths end to end.
//!
//! `BYPASSD_CAMPAIGN_POINTS=<n>` bounds each sweep (CI smoke budget);
//! unset, the sweeps cover the full acceptance budget (≥ 200 combined
//! crash points).

use std::sync::Arc;

use bypassd::{CrashLab, CrashWorkload, System, UserProcess};
use bypassd_faults::campaign::CampaignConfig;
use bypassd_faults::plane::FaultPlane;
use bypassd_os::Errno;
use bypassd_sim::Simulation;

/// Per-campaign point budget: the env override, else `full`.
fn budget(full: usize) -> usize {
    std::env::var("BYPASSD_CAMPAIGN_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(full)
}

fn cfg(max_points: usize) -> CampaignConfig {
    CampaignConfig {
        max_points,
        ..CampaignConfig::default()
    }
}

#[test]
fn append_campaign_sweeps_crash_points() {
    let lab = CrashLab::new(CrashWorkload::Append {
        steps: 10,
        blocks_per_step: 3,
    });
    let report = lab.campaign(&cfg(budget(120)));
    println!("{}", report.summary());
    assert!(report.passed(), "{}", report.summary());
    assert_eq!(report.points_run, budget(120).min(report.points_enumerated));
    assert!(report.clean_points > 0, "no clean cuts ran");
    assert!(report.torn_points > 0, "no mid-write tears ran");
    assert!(report.reorder_points > 0, "no reorder cuts ran");
}

#[test]
fn overwrite_campaign_sweeps_crash_points() {
    let lab = CrashLab::new(CrashWorkload::Overwrite {
        steps: 8,
        region_blocks: 12,
    });
    let report = lab.campaign(&cfg(budget(100)));
    println!("{}", report.summary());
    assert!(report.passed(), "{}", report.summary());
    assert_eq!(report.points_run, budget(100).min(report.points_enumerated));
    assert!(report.clean_points > 0 && report.torn_points > 0);
}

#[test]
fn combined_sweep_meets_acceptance_budget() {
    // ≥ 200 distinct crash points across the two workloads (the ISSUE
    // acceptance floor). Skipped under a CI smoke budget.
    if std::env::var("BYPASSD_CAMPAIGN_POINTS").is_ok() {
        return;
    }
    let append = CrashLab::new(CrashWorkload::Append {
        steps: 10,
        blocks_per_step: 3,
    })
    .campaign(&cfg(120));
    let overwrite = CrashLab::new(CrashWorkload::Overwrite {
        steps: 8,
        region_blocks: 12,
    })
    .campaign(&cfg(100));
    assert!(append.passed(), "{}", append.summary());
    assert!(overwrite.passed(), "{}", overwrite.summary());
    assert!(
        append.points_run + overwrite.points_run >= 200,
        "only {} + {} crash points swept",
        append.points_run,
        overwrite.points_run
    );
}

#[test]
fn campaign_is_bit_reproducible_end_to_end() {
    let c = cfg(24);
    let run = || {
        CrashLab::new(CrashWorkload::Append {
            steps: 4,
            blocks_per_step: 2,
        })
        .campaign(&c)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.fingerprint, b.fingerprint, "campaign is not reproducible");
    assert_eq!(a.summary(), b.summary());
    // A different seed explores a different point set.
    let other = CrashLab::new(CrashWorkload::Append {
        steps: 4,
        blocks_per_step: 2,
    })
    .campaign(&CampaignConfig {
        seed: 0xD15EA5E,
        ..c
    });
    assert_ne!(a.fingerprint, other.fingerprint);
}

#[test]
fn broken_recovery_trusting_torn_commits_is_caught() {
    // Mutation test: recovery with journal-checksum validation disabled
    // applies transactions whose journaled blocks were lost by a
    // reorder/at-barrier cut (the async-commit scenario the checksum
    // exists for). The campaign must catch that broken recovery.
    let mut lab = CrashLab::new(CrashWorkload::Append {
        steps: 10,
        blocks_per_step: 3,
    });
    lab.set_validate_journal_checksums(false);
    let report = lab.campaign(&cfg(budget(120)));
    println!("{}", report.summary());
    assert!(
        !report.passed(),
        "checksum-free recovery survived the sweep — the campaign has no teeth"
    );
    // Shrinking still produces actionable reproducers (or the point is
    // already minimal).
    assert!(report
        .failures
        .iter()
        .all(|f| f.shrunk.is_some() || !f.error.is_empty()));
}

#[test]
fn transient_media_errors_are_retried_transparently() {
    let plane = Arc::new(FaultPlane::new());
    let sys = System::builder()
        .capacity(1 << 30)
        .fault_plane(Arc::clone(&plane))
        .build();
    sys.fs().populate("/media", 64 * 4096, 0x5C).unwrap();
    // First timed read and first timed write each fail once.
    plane.fail_reads(vec![0]);
    plane.fail_writes(vec![0]);
    let p = Arc::clone(&plane);
    let sim = Simulation::new();
    sim.spawn("app", move |ctx| {
        let proc = UserProcess::start(&sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/media", true).unwrap();
        let mut buf = vec![0u8; 4096];
        // The transient read error is retried in place: success.
        assert_eq!(t.pread(ctx, fd, &mut buf, 0).unwrap(), 4096);
        assert!(buf.iter().all(|&b| b == 0x5C));
        // Same for the direct overwrite.
        assert_eq!(t.pwrite(ctx, fd, &[0x77; 4096], 0).unwrap(), 4096);
        assert_eq!(t.pread(ctx, fd, &mut buf, 0).unwrap(), 4096);
        assert!(buf.iter().all(|&b| b == 0x77));
        let stats = p.stats();
        assert_eq!(stats.read_errors, 1, "injected read error never fired");
        assert_eq!(stats.write_errors, 1, "injected write error never fired");
    });
    sim.run();
}

#[test]
fn persistent_media_errors_surface_as_eio() {
    let plane = Arc::new(FaultPlane::new());
    let sys = System::builder()
        .capacity(1 << 30)
        .fault_plane(Arc::clone(&plane))
        .build();
    sys.fs().populate("/dying", 16 * 4096, 0x42).unwrap();
    // Every read attempt fails: retries exhaust and EIO surfaces.
    plane.fail_reads((0..64).collect());
    let sim = Simulation::new();
    sim.spawn("app", move |ctx| {
        let proc = UserProcess::start(&sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/dying", false).unwrap();
        let mut buf = vec![0u8; 4096];
        assert_eq!(t.pread(ctx, fd, &mut buf, 0), Err(Errno::Io));
    });
    sim.run();
}

#[test]
fn dropped_completion_is_recovered_by_resubmission() {
    let plane = Arc::new(FaultPlane::new());
    let sys = System::builder()
        .capacity(1 << 30)
        .fault_plane(Arc::clone(&plane))
        .build();
    sys.fs().populate("/lossy", 64 * 4096, 0).unwrap();
    for b in 0..8u64 {
        let (segs, _) = sys
            .fs()
            .resolve(sys.fs().lookup("/lossy").unwrap(), b * 4096, 4096)
            .unwrap();
        sys.device()
            .write_raw(segs[0].0.unwrap(), &[b as u8 + 1; 4096]);
    }
    // Swallow the first queue completion after arming.
    plane.drop_completions(vec![0]);
    let p = Arc::clone(&plane);
    let sim = Simulation::new();
    sim.spawn("app", move |ctx| {
        let proc = UserProcess::start(&sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/lossy", false).unwrap();
        // Batched flight: one CQ entry is lost mid-flight; the flight
        // must re-issue that request and still return correct data.
        let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; 4096]; 8];
        let mut reqs: Vec<bypassd::ReadReq> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| bypassd::ReadReq {
                offset: i as u64 * 4096,
                buf: b.as_mut_slice(),
            })
            .collect();
        let n = t.pread_batch(ctx, fd, &mut reqs).unwrap();
        assert_eq!(n, 8 * 4096);
        drop(reqs);
        for (i, b) in bufs.iter().enumerate() {
            assert!(
                b.iter().all(|&x| x == i as u8 + 1),
                "lost-completion read {i} returned wrong data"
            );
        }
        assert_eq!(p.stats().completions_dropped, 1, "drop never fired");

        // The same loss inside a chain flight: each one-hop chain returns
        // its start block, and the lost one is re-issued.
        let prog = sys
            .kernel()
            .sys_prog_load(ctx, proc.pid(), vec![bypassd_offload::Op::Return])
            .unwrap();
        p.drop_completions(vec![3]);
        let mut blocks: Vec<Vec<u8>> = vec![vec![0u8; 512]; 8];
        let mut chains: Vec<bypassd::ChainReq> = blocks
            .iter_mut()
            .enumerate()
            .map(|(i, b)| bypassd::ChainReq {
                start: i as u64 * 4096,
                regs: [0; bypassd_offload::NUM_REGS],
                buf: b.as_mut_slice(),
            })
            .collect();
        let n = t.pread_chain_batch(ctx, fd, prog, &mut chains).unwrap();
        assert_eq!(n, 8 * 512);
        drop(chains);
        for (i, b) in blocks.iter().enumerate() {
            assert!(
                b.iter().all(|&x| x == i as u8 + 1),
                "lost-completion chain {i} returned wrong data"
            );
        }
        assert_eq!(p.stats().completions_dropped, 2, "chain drop never fired");
    });
    sim.run();
}

/// Every completion of a full-window flight is lost: the flight must
/// abort the lost commands to free their queue slots before it re-issues
/// them, or the sequential re-issue finds the queue full — and every
/// later full-window flight would be pushed off the batched path. The
/// same holds for lost non-blocking write completions.
#[test]
fn lost_completions_do_not_leak_queue_slots() {
    let plane = Arc::new(FaultPlane::new());
    let sys = System::builder()
        .capacity(1 << 30)
        .fault_plane(Arc::clone(&plane))
        .build();
    sys.fs().populate("/lossy", 64 * 4096, 0).unwrap();
    for b in 0..8u64 {
        let (segs, _) = sys
            .fs()
            .resolve(sys.fs().lookup("/lossy").unwrap(), b * 4096, 4096)
            .unwrap();
        sys.device()
            .write_raw(segs[0].0.unwrap(), &[b as u8 + 1; 4096]);
    }
    plane.drop_completions((0..8).collect());
    let p = Arc::clone(&plane);
    let sim = Simulation::new();
    sim.spawn("app", move |ctx| {
        let proc = UserProcess::start(&sys, 0, 0);
        let mut t = proc.thread_with(8, 1 << 20);
        let fd = t.open(ctx, "/lossy", true).unwrap();
        let batch = |t: &mut bypassd::UserThread, ctx: &mut bypassd_sim::ActorCtx| {
            let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; 4096]; 8];
            let mut reqs: Vec<bypassd::ReadReq> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, b)| bypassd::ReadReq {
                    offset: i as u64 * 4096,
                    buf: b.as_mut_slice(),
                })
                .collect();
            assert_eq!(t.pread_batch(ctx, fd, &mut reqs).unwrap(), 8 * 4096);
            drop(reqs);
            bufs
        };
        let mut one = vec![0u8; 4096];
        let mut flight_ns = Vec::new();
        for round in 0..2 {
            let t0 = ctx.now();
            for (i, b) in batch(&mut t, ctx).iter().enumerate() {
                assert!(
                    b.iter().all(|&x| x == i as u8 + 1),
                    "round {round}: read {i} returned wrong data"
                );
            }
            flight_ns.push((ctx.now() - t0).as_nanos());
        }
        let t0 = ctx.now();
        t.pread(ctx, fd, &mut one, 0).unwrap();
        let single_ns = (ctx.now() - t0).as_nanos();
        assert!(
            flight_ns[1] < 4 * single_ns,
            "second flight took {}ns vs {single_ns}ns per single read: not batched",
            flight_ns[1]
        );
        assert_eq!(p.stats().completions_dropped, 8, "drops never fired");
        let (direct, fallback) = proc.op_counts();
        assert_eq!(fallback, 0, "no read left the direct path");
        assert_eq!(direct, 17, "8 re-issued reads, 8 batched, 1 single");

        // A full queue's worth of lost non-blocking write completions.
        p.drop_completions((0..8).collect());
        for i in 0..8u64 {
            let data = vec![i as u8 + 0x40; 4096];
            assert_eq!(t.pwrite_async(ctx, fd, &data, i * 4096).unwrap(), 4096);
        }
        assert_eq!(p.stats().completions_dropped, 16, "write drops never fired");
        for (i, b) in batch(&mut t, ctx).iter().enumerate() {
            assert!(
                b.iter().all(|&x| x == i as u8 + 0x40),
                "read {i} after lost write completions returned wrong data"
            );
        }
    });
    sim.run();
}
