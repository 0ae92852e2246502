//! Each workload at a tiny size with a fixed seed: every named metric is
//! printed with its unit, no op fails, and the traced and untraced
//! passes reach bit-identical virtual outcomes.
//!
//! Run with `cargo test --release --manifest-path simbench/Cargo.toml`.

use std::sync::Mutex;

use simbench::{Opts, Params, Report, END_TO_END, PER_LAYER, WORKLOADS};

/// Worlds hold hundreds of MiB and the fleet's traced rep sets a process
/// environment variable, so the tests run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const SEED: u64 = 7;
const SCALE: f64 = 0.02;

fn run(workload: &str, trace: bool) -> Report {
    simbench::run(&Opts {
        workload: workload.into(),
        seed: SEED,
        seconds: 0.001,
        trace,
        scale: SCALE,
    })
    .expect("benchmark run")
}

fn assert_clean(r: &Report, names: &[(&str, &str)]) {
    assert!(r.correct, "checks failed: {} of {}", r.failed, r.attempted);
    assert_eq!(r.failed, 0);
    assert_eq!(r.fail_ratio(), 0.0);
    assert!(r.attempted > 0);
    let got: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.0, m.2)).collect();
    assert_eq!(got, names);
    let json = r.json();
    for (name, value, unit) in &r.metrics {
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")) && json.contains(unit),
            "{name} missing from {json}"
        );
    }
}

#[test]
fn timed_pass_prints_every_end_to_end_metric() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A caller's trace setting must not turn the untraced reps traced.
    std::env::set_var("BYPASSD_TRACE", "1");
    for w in WORKLOADS {
        let r = run(w, false);
        assert!(std::env::var_os("BYPASSD_TRACE").is_none());
        assert_clean(&r, &END_TO_END);
        for (name, value, _) in &r.metrics {
            assert!(*value > 0.0, "{w}: {name} must never be 0");
        }
        assert!(r.table(w).contains("fail_ratio"));
    }
}

#[test]
fn traced_pass_prints_every_per_layer_metric() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in WORKLOADS {
        let r = run(w, true);
        assert_clean(&r, &PER_LAYER);
        assert_eq!(
            r.sources.len(),
            PER_LAYER.len(),
            "{w}: every metric has a source"
        );
        let overhead = r.metrics.iter().find(|m| m.0 == "trace.overhead_ratio");
        assert!(overhead.is_some_and(|m| m.1 > 0.0));
    }
}

#[test]
fn traced_and_untraced_reps_agree_bit_for_bit() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let p = Params {
        seed: SEED,
        scale: SCALE,
    };
    for w in WORKLOADS {
        let plain = simbench::rep(w, p, false);
        let traced = simbench::rep(w, p, true);
        let again = simbench::rep(w, p, false);
        assert_eq!(plain.virt, traced.virt, "{w}: tracing moved virtual time");
        assert_eq!(plain.virt, again.virt, "{w}: a repeated rep diverged");
        assert_eq!(plain.failed + traced.failed + again.failed, 0);
        let other = simbench::rep(
            w,
            Params {
                seed: SEED + 1,
                ..p
            },
            false,
        );
        assert_ne!(
            plain.virt.fingerprint, other.virt.fingerprint,
            "{w}: the seed must reach the inputs"
        );
    }
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    for w in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "metric {name} ({unit})"
        );
    }
    let listed = text.matches("\"name\": ").count();
    assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn command_line_is_validated() {
    let parse = |s: &str| Opts::parse(s.split_whitespace().map(String::from));
    let ok = parse("--workload fleet_1k_w2 --seed 3 --seconds 10 --trace 1").expect("valid");
    assert_eq!((ok.seed, ok.trace, ok.scale), (3, true, 1.0));
    for bad in [
        "",
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload direct_read_1t --seed -1 --seconds 1 --trace 0",
        "--workload direct_read_1t --seed 1 --seconds 0 --trace 0",
        "--workload direct_read_1t --seed 1 --seconds 1 --trace 2",
        "--workload direct_read_1t --seed 1 --seconds 1 --trace 0 --extra 1",
        "--workload direct_read_1t --seed 1 --seconds 1 --trace 0 --scale 0.5",
        "--workload direct_read_1t --seed 1 --seconds 1 --trace",
    ] {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn lookup_check_rejects_wrong_objects() {
    let key = 4242u64;
    let mut obj = vec![0u8; 512];
    obj[..8].copy_from_slice(&key.to_le_bytes());
    for (i, b) in obj[8..72].iter_mut().enumerate() {
        *b = (key as usize + i) as u8;
    }
    assert!(simbench::direct::object_matches(&obj, key));
    assert!(!simbench::direct::object_matches(&obj, key + 1));
    obj[40] ^= 1;
    assert!(!simbench::direct::object_matches(&obj, key));
}
