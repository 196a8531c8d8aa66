//! Sharded scaling: shard count vs lookup wait, tail latency, and served
//! throughput on the simulated cloud.
//!
//! Hash-partitioning the corpus across N independent segmented indexes
//! multiplies build and compaction parallelism, but it only helps
//! serving if the shards share their round trips: an N-shard query must
//! still pay one postings batch and one document batch covering every
//! shard, not N of each. This binary:
//!
//! 1. builds the same zipf corpus into sharded layouts of 1, 2, 4, and
//!    8 shards over a simulated gcs-like link;
//! 2. measures mean lookup wait and p99 end-to-end latency of a
//!    frequency-weighted workload at each shard count, asserting the
//!    fan-out invariant `round_trips == 2` and that the 8-shard wait
//!    stays within **1.5×** the single-shard wait;
//! 3. smoke-checks equivalence: every shard count returns the same
//!    result set for the probe queries;
//! 4. serves the workload through a [`QueryServer`] (8 workers) and
//!    reports closed-loop simulated QPS per shard count.
//!
//! Exit code is non-zero if the wait bar or the equivalence check
//! fails, so CI can smoke this binary. The headline metric
//! (`BENCH_sharded.json`) is the 8-shard mean lookup wait.

use airphant::{
    AirphantConfig, Query, QueryOptions, QueryServer, SearchHit, ServerConfig, ShardRouter,
};
use airphant_bench::report::ms;
use airphant_bench::{Headline, Report};
use airphant_corpus::{zipf, QueryWorkload, SyntheticSpec};
use airphant_storage::{InMemoryStore, LatencyModel, ObjectStore, SimulatedCloudStore};
use std::sync::Arc;

const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const SERVE_WORKERS: usize = 8;

fn canonical(hits: &[SearchHit]) -> Vec<(String, u64, u32)> {
    let mut v: Vec<_> = hits
        .iter()
        .map(|h| (h.blob.clone(), h.offset, h.len))
        .collect();
    v.sort();
    v
}

fn main() {
    let n_docs: u64 = if std::env::var("BENCH_LARGE").is_ok() {
        20_000
    } else {
        2_000
    };
    let measure_queries: usize = if std::env::var("BENCH_LARGE").is_ok() {
        256
    } else {
        64
    };
    let store: Arc<dyn ObjectStore> = Arc::new(SimulatedCloudStore::new(
        InMemoryStore::new(),
        LatencyModel::gcs_like(),
        31,
    ));
    let spec = SyntheticSpec {
        n_docs,
        n_vocab: (n_docs / 2).clamp(500, 10_000),
        words_per_doc: 8,
    };
    let corpus = zipf(spec, store.clone(), "corpora/zipf", 13);
    let profile = corpus.profile().expect("profiling");
    let bins = (n_docs / 5).clamp(400, 40_000) as usize;
    let config = AirphantConfig::default().with_total_bins(bins).with_seed(2);
    let workload = QueryWorkload::frequency_weighted(&profile, measure_queries, 5);

    let mut report = Report::new(
        "sharded",
        &["shards", "wait_ms", "p99_ms", "qps_sim", "round_trips"],
    );

    let mut wait_by_shards: Vec<(usize, f64)> = Vec::new();
    let mut reference: Option<Vec<Vec<(String, u64, u32)>>> = None;
    let mut ok = true;

    for &shards in &SHARD_SWEEP {
        let router = ShardRouter::create(store.clone(), format!("idx{shards}"), shards)
            .expect("create layout");
        router.append(&corpus, &config).expect("sharded append");
        let searcher = router.open_searcher().expect("open sharded searcher");

        // --- Direct measurement: wait, tail, round-trip invariant. ---
        let mut wait_sum = 0.0;
        let mut totals: Vec<f64> = Vec::with_capacity(workload.len());
        let mut trips_max = 0u64;
        let mut results: Vec<Vec<(String, u64, u32)>> = Vec::with_capacity(workload.len());
        for word in workload.iter() {
            let r = searcher
                .execute(&Query::term(word), &QueryOptions::new())
                .expect("measure query");
            wait_sum += r.trace.wait().as_millis_f64();
            totals.push(r.trace.total().as_millis_f64());
            trips_max = trips_max.max(r.trace.round_trips());
            results.push(canonical(&r.hits));
        }
        let wait_mean = wait_sum / workload.len() as f64;
        totals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p99 = totals[((totals.len() as f64 * 0.99).ceil() as usize).clamp(1, totals.len()) - 1];
        if trips_max > 2 {
            eprintln!("round-trip violation at {shards} shards: {trips_max} > 2");
            ok = false;
        }
        match &reference {
            None => reference = Some(results),
            Some(expected) => {
                if expected != &results {
                    eprintln!("equivalence violation: {shards} shards disagree with 1 shard");
                    ok = false;
                }
            }
        }

        // --- Served throughput: closed loop through a QueryServer. ---
        let server = QueryServer::start(
            Arc::new(router.open_searcher().expect("open for serving")),
            ServerConfig::new()
                .with_workers(SERVE_WORKERS)
                .with_queue_capacity(SERVE_WORKERS * 4),
        );
        let tickets: Vec<_> = workload
            .iter()
            .map(|word| {
                server
                    .submit(Query::term(word), QueryOptions::new().top_k(10))
                    .expect("server alive")
            })
            .collect();
        for t in tickets {
            t.wait().expect("served query");
        }
        let stats = server.shutdown();

        wait_by_shards.push((shards, wait_mean));
        report.push(
            vec![
                shards.to_string(),
                ms(wait_mean),
                ms(p99),
                format!("{:.1}", stats.qps_sim),
                trips_max.to_string(),
            ],
            serde_json::json!({
                "shards": shards,
                "wait_mean_ms": wait_mean,
                "latency_p99_ms": p99,
                "qps_sim": stats.qps_sim,
                "round_trips_max": trips_max,
                "workers": SERVE_WORKERS,
            }),
        );
        eprintln!("done: {shards} shard(s)");
    }
    report.finish();

    let (_, single_wait) = wait_by_shards[0];
    let (_, eight_wait) = *wait_by_shards.last().expect("sweep non-empty");
    Headline::new(
        "sharded",
        "eight_shard_wait_ms",
        eight_wait,
        "ms",
        serde_json::json!({
            "shards": 8,
            "n_docs": n_docs,
            "queries": measure_queries,
            "vs_single_shard": eight_wait / single_wait,
        }),
    )
    .write();

    let overlap_ok = eight_wait <= 1.5 * single_wait;
    println!(
        "shared round trips (8-shard wait {} within 1.5x single-shard {}): {}",
        ms(eight_wait),
        ms(single_wait),
        if overlap_ok { "OK" } else { "FAIL" }
    );
    println!(
        "paper shape: hash-partitioned fan-out preserves the single-batch property — \
         every shard count pays one postings + one document round trip, waits overlap."
    );
    if !(ok && overlap_ok) {
        std::process::exit(1);
    }
}
