//! The async serving core under open-loop load: max sustainable QPS at a
//! p99 sojourn SLO, with 1k and 10k simulated concurrent clients.
//!
//! Three phases, all on the simulated clock:
//!
//! 1. **Rate sweep** (deterministic, caller-pumped executor): for each
//!    client count, submit `clients` queries at evenly spaced virtual
//!    arrival times for each offered rate and measure the p99 sojourn
//!    (arrival → completion, including virtual queueing behind the
//!    modeled backend slots). The headline is the measured `qps_sim` at
//!    the highest offered rate whose p99 stays under the SLO — the knee
//!    of the latency/throughput curve the paper's cost model prices.
//! 2. **Concurrency check**: burst all 10k arrivals at t=0 through a
//!    4-thread executor and assert `peak_in_flight ≥ 10_000` — 10k
//!    queries in flight over ≤ 8 OS threads, the tentpole claim.
//! 3. **Equality check**: the open-loop, caller-pumped front end must
//!    return byte-for-byte the same hits as the closed-loop, threaded
//!    [`QueryServer`] on an identical workload.
//!
//! Exit-coded: any failed check exits non-zero, like the other gated
//! benches.

use airphant::{
    AsyncQueryServer, AsyncServerConfig, AsyncTicket, Query, QueryOptions, QueryServer,
    SearchResult, Searcher, ServerConfig, StagedEngine, SubmitSpec,
};
use airphant_bench::report::ms;
use airphant_bench::{BenchEnv, DatasetKind, DatasetSpec, Headline, Report};
use airphant_corpus::QueryWorkload;
use airphant_storage::{LatencyModel, SimDuration};
use std::sync::Arc;

/// p99 sojourn SLO the "max sustainable" search is measured against.
const SLO_MS: f64 = 400.0;
/// Offered rates (queries per simulated second) swept per client count.
const RATE_SWEEP: [f64; 5] = [100.0, 250.0, 400.0, 550.0, 700.0];
/// Modeled backend concurrency for the sweep.
const STORAGE_SLOTS: usize = 64;

fn canonical(result: &SearchResult) -> String {
    let mut v: Vec<String> = result
        .hits
        .iter()
        .map(|h| format!("{}#{}+{}:{}", h.blob, h.offset, h.len, h.text))
        .collect();
    v.sort();
    v.join("|")
}

fn open_searcher(env: &BenchEnv, seed: u64) -> Arc<Searcher> {
    let view = env.cloud_view(LatencyModel::gcs_like(), seed);
    Arc::new(Searcher::open(view, "idx/airphant").expect("open airphant"))
}

/// Serve `clients` queries arriving at `rate` qps_sim through a fresh
/// caller-pumped async server; returns `(qps_sim, p99_sojourn_ms)`.
fn run_rate_point(
    env: &BenchEnv,
    workload: &QueryWorkload,
    clients: usize,
    rate: f64,
    report: &mut Report,
) -> (f64, f64) {
    // Fresh latency stream per point so every point replays the same
    // sampled world and only the offered rate differs.
    let searcher = open_searcher(env, 42);
    let server = AsyncQueryServer::start(
        searcher as Arc<dyn StagedEngine>,
        AsyncServerConfig::new()
            .with_executor_threads(0)
            .with_storage_slots(STORAGE_SLOTS),
    );
    let words: Vec<&str> = workload.iter().collect();
    let tickets: Vec<AsyncTicket> = (0..clients)
        .map(|i| {
            let arrival = SimDuration::from_secs_f64(i as f64 / rate);
            server.submit_at(
                Query::term(words[i % words.len()]),
                QueryOptions::new().top_k(10),
                SubmitSpec::new().at(arrival),
            )
        })
        .collect();
    server.drain();
    for t in tickets {
        t.wait().result.expect("admitted and served");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed as usize, clients);
    let p99 = stats.latency_p99_ms;
    report.push(
        vec![
            clients.to_string(),
            format!("{rate:.0}"),
            format!("{:.1}", stats.qps_sim),
            ms(stats.latency_p50_ms),
            ms(p99),
            if p99 <= SLO_MS { "yes" } else { "no" }.to_string(),
        ],
        serde_json::json!({
            "clients": clients,
            "offered_qps": rate,
            "qps_sim": stats.qps_sim,
            "sojourn_p50_ms": stats.latency_p50_ms,
            "sojourn_p99_ms": p99,
            "wait_p99_ms": stats.wait_p99_ms,
            "within_slo": p99 <= SLO_MS,
            "storage_slots": STORAGE_SLOTS,
        }),
    );
    (stats.qps_sim, p99)
}

fn main() {
    let spec = DatasetSpec {
        kind: DatasetKind::Zipf,
        n_docs: 5_000,
        seed: 23,
    };
    let config = airphant::AirphantConfig::default()
        .with_total_bins(1_000)
        .with_seed(1);
    let env = BenchEnv::prepare(spec, &config);
    let workload = QueryWorkload::frequency_weighted(env.profile(), 512, 7);

    let mut ok = true;
    let mut report = Report::new(
        "admission",
        &[
            "clients",
            "offered_qps",
            "qps_sim",
            "sojourn_p50",
            "sojourn_p99",
            "within_slo",
        ],
    );

    // Phase 1: the rate sweep, 1k and 10k concurrent clients.
    let mut sustainable: Vec<(usize, f64)> = Vec::new();
    for &clients in &[1_000usize, 10_000] {
        let mut best: Option<f64> = None;
        for &rate in &RATE_SWEEP {
            let (qps, p99) = run_rate_point(&env, &workload, clients, rate, &mut report);
            if p99 <= SLO_MS {
                best = Some(qps);
            }
        }
        match best {
            Some(qps) => {
                println!(
                    "max sustainable ({clients} clients, p99 ≤ {SLO_MS:.0}ms): {qps:.1} qps_sim"
                );
                sustainable.push((clients, qps));
            }
            None => {
                eprintln!(
                    "FAIL: no swept rate meets the {SLO_MS:.0}ms p99 SLO for {clients} clients"
                );
                ok = false;
            }
        }
    }
    report.finish();

    // Phase 2: 10k in flight at once over 4 executor threads.
    {
        let searcher = open_searcher(&env, 43);
        let threads = 4usize;
        assert!(threads <= 8, "the claim is ≤ 8 OS threads");
        let server = AsyncQueryServer::start(
            searcher as Arc<dyn StagedEngine>,
            AsyncServerConfig::new()
                .with_executor_threads(threads)
                .with_storage_slots(STORAGE_SLOTS),
        );
        let words: Vec<&str> = workload.iter().collect();
        let tickets: Vec<AsyncTicket> = (0..10_000)
            .map(|i| {
                server.submit_at(
                    Query::term(words[i % words.len()]),
                    QueryOptions::new().top_k(10),
                    SubmitSpec::new().at(SimDuration::ZERO),
                )
            })
            .collect();
        for t in tickets {
            t.wait().result.expect("served");
        }
        let stats = server.shutdown();
        println!(
            "burst check: {} completed, peak_in_flight {} over {threads} OS threads",
            stats.completed, stats.peak_in_flight
        );
        if stats.peak_in_flight < 10_000 {
            eprintln!(
                "FAIL: peak_in_flight {} < 10000 — the burst did not overlap",
                stats.peak_in_flight
            );
            ok = false;
        }
        if stats.completed != 10_000 {
            eprintln!(
                "FAIL: only {} of 10000 burst queries completed",
                stats.completed
            );
            ok = false;
        }
    }

    // Phase 3: open-loop results == closed-loop results, byte for byte.
    {
        let searcher = open_searcher(&env, 44);
        let queries: Vec<Query> = workload.iter().take(200).map(Query::term).collect();
        let sync_server = QueryServer::start(
            searcher.clone(),
            ServerConfig::new().with_workers(4).with_queue_capacity(64),
        );
        let sync_results: Vec<String> = queries
            .iter()
            .map(|q| {
                canonical(
                    &sync_server
                        .execute(q, &QueryOptions::new().top_k(10))
                        .expect("sync served"),
                )
            })
            .collect();
        drop(sync_server);
        let async_server = AsyncQueryServer::start(
            searcher as Arc<dyn StagedEngine>,
            AsyncServerConfig::new().with_executor_threads(0),
        );
        let tickets: Vec<AsyncTicket> = queries
            .iter()
            .map(|q| {
                async_server.submit_at(q.clone(), QueryOptions::new().top_k(10), SubmitSpec::new())
            })
            .collect();
        async_server.drain();
        let mut mismatches = 0usize;
        for (i, t) in tickets.into_iter().enumerate() {
            let got = canonical(&t.wait().result.expect("async served"));
            if got != sync_results[i] {
                mismatches += 1;
            }
        }
        println!(
            "equality check: {} queries, {} mismatch(es)",
            queries.len(),
            mismatches
        );
        if mismatches > 0 {
            eprintln!("FAIL: async results diverged from the closed-loop QueryServer");
            ok = false;
        }
    }

    // The headline: sustainable qps with 10k clients (falls back to the
    // 1k figure only if the 10k sweep never met the SLO, which is
    // itself a failure above).
    if let Some(&(clients, qps)) = sustainable.iter().find(|(c, _)| *c == 10_000) {
        Headline::new(
            "admission",
            "sustainable_qps_sim",
            qps,
            "qps",
            serde_json::json!({
                "clients": clients,
                "slo_p99_ms": SLO_MS,
                "storage_slots": STORAGE_SLOTS,
                "rates_swept": RATE_SWEEP,
                "n_docs": 5_000,
            }),
        )
        .write();
    }

    if !ok {
        std::process::exit(1);
    }
    println!("admission bench: all checks OK");
}
