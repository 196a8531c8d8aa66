//! The benchmark's own checks: each workload, run twice at a small size
//! under one seed, must repeat — exactly on the caller-pumped `hot_zipf`
//! stack, and within the benchmark's bounds where shard threads draw from
//! a shared latency generator in racing order. Also checks that
//! `BENCHMARK.json` declares every metric the binary prints.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use airphant_perfbench::{run, Outcome, RunConfig, END_TO_END, PER_LAYER};

fn small(trace: bool) -> RunConfig {
    RunConfig {
        seed: 7,
        seconds: 0.0,
        trace,
        small: true,
        out_dir: None,
    }
}

fn run_ok(workload: &str, trace: bool) -> Outcome {
    let out = run(workload, &small(trace)).expect("known workload");
    assert!(out.failures.is_empty(), "{workload}: {:?}", out.failures);
    assert_eq!(out.failed, 0, "{workload}: operations failed");
    out
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("read BENCHMARK.json")
}

/// The `bound` declared for an end-to-end metric.
fn bound(json: &str, name: &str) -> f64 {
    let at = json
        .find(&format!("\"name\": \"{name}\""))
        .unwrap_or_else(|| panic!("{name} missing from BENCHMARK.json"));
    let rest = &json[at..];
    let rest = &rest[rest.find("\"bound\":").expect("bound") + 8..];
    let end = rest.find('}').expect("end of entry");
    rest[..end].trim().parse().expect("numeric bound")
}

/// Metrics read from the simulated clock, and deterministic counts.
const SIMULATED: [&str; 5] = [
    "query_p50_ms",
    "query_p99_ms",
    "capacity_qps",
    "served_frac",
    "write_amp",
];

#[test]
fn hot_zipf_repeats_exactly() {
    let a = run_ok("hot_zipf", false);
    let b = run_ok("hot_zipf", false);
    assert!(!a.counts.is_empty());
    assert_eq!(
        a.counts, b.counts,
        "simulated-clock figures and counts differ"
    );
    for name in SIMULATED {
        assert_eq!(a.get(name), b.get(name), "{name} differs");
    }
}

#[test]
fn traced_hot_zipf_keeps_the_untraced_counts() {
    let untraced = run_ok("hot_zipf", false);
    let traced = run_ok("hot_zipf", true);
    assert_eq!(untraced.counts, traced.counts);
    assert_eq!(
        traced.get("sim.requests_per_query"),
        traced.get("sim.requests_untraced_per_query")
    );
}

#[test]
fn threaded_workloads_agree_within_bounds() {
    let json = benchmark_json();
    for workload in ["cold_sharded_logs", "ingest_live"] {
        let a = run_ok(workload, false);
        let b = run_ok(workload, false);
        for name in SIMULATED {
            let (x, y) = (a.get(name).expect(name), b.get(name).expect(name));
            let allowed = bound(&json, name);
            assert!(
                (x - y).abs() <= allowed * x.abs().max(y.abs()),
                "{workload}: {name} {x} vs {y} differs by more than {allowed}"
            );
        }
    }
}

#[test]
fn benchmark_json_declares_every_metric() {
    let json = benchmark_json();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"better\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares metrics the binary does not print"
    );
}
