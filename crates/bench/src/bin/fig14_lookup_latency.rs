//! Figure 14 (Appendix B-A): term-index lookup latencies — SQLite's cached
//! B-tree traversal vs Airphant's single-round-trip MHT lookup, across all
//! seven datasets. Exit-coded: on every corpus AIRPHANT's mean and p99
//! must be below SQLite's, and every AIRPHANT lookup exactly one round trip.

use airphant::AirphantConfig;
use airphant_bench::report::ms;
use airphant_bench::{paper_datasets, summarize, BenchEnv, EngineKind, Report};
use airphant_storage::LatencyModel;

fn main() {
    let mut report = Report::new(
        "fig14_lookup_latency",
        &["corpus", "engine", "mean_ms", "p99_ms", "max_round_trips"],
    );
    let mut failed = Vec::new();
    for spec in paper_datasets() {
        let config = AirphantConfig::default()
            .with_total_bins(airphant_bench::engines::default_bins(spec.kind))
            .with_seed(1);
        let env = BenchEnv::prepare(spec, &config);
        let workload = env.workload(40, 7);
        let mut rows = Vec::new();
        for kind in [EngineKind::Sqlite, EngineKind::Airphant] {
            let view = env.cloud_view(LatencyModel::gcs_like(), 42);
            let engine = env.open_engine(kind, view);
            let traces: Vec<_> = workload
                .iter()
                .map(|w| engine.lookup(w).expect("lookup").1)
                .collect();
            let latencies: Vec<f64> = traces.iter().map(|t| t.total().as_millis_f64()).collect();
            let stats = summarize(&latencies);
            let one_round_trip = traces.iter().all(|t| t.round_trips() == 1);
            let max_rt = traces.iter().map(|t| t.round_trips()).max().unwrap_or(0);
            report.push(
                vec![
                    spec.name(),
                    kind.label().to_string(),
                    ms(stats.mean_ms),
                    ms(stats.p99_ms),
                    max_rt.to_string(),
                ],
                serde_json::json!({
                    "corpus": spec.name(),
                    "engine": kind.label(),
                    "mean_ms": stats.mean_ms,
                    "p99_ms": stats.p99_ms,
                    "max_round_trips": max_rt,
                }),
            );
            rows.push((stats, one_round_trip));
        }
        let ((sqlite, _), (airphant, one_round_trip)) = (rows[0], rows[1]);
        if !one_round_trip || airphant.mean_ms >= sqlite.mean_ms || airphant.p99_ms >= sqlite.p99_ms
        {
            failed.push(spec.name());
        }
        eprintln!("done: {}", spec.name());
    }
    report.finish();
    println!("paper shape: AIRPHANT up to 2.79× faster on average and 2.81× at p99 —");
    println!("one concurrent batch beats the dependent page descent on every corpus.");
    if !failed.is_empty() {
        eprintln!("FAIL: AIRPHANT slower than SQLite or not one round trip on {failed:?}");
        std::process::exit(1);
    }
    println!("check: AIRPHANT beats SQLite on mean and p99 in one round trip everywhere: OK");
}
