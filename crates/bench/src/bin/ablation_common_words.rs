//! Ablation: effect of the 1% exact common-word bins
//! (§IV-E) on the skewed Windows-like corpus — query latency and bytes
//! fetched for common vs rare words, with and without the reservation.

use airphant::{AirphantConfig, Searcher};
use airphant_bench::report::ms;
use airphant_bench::{paper_datasets, summarize, BenchEnv, DatasetKind, Report};
use airphant_corpus::QueryWorkload;
use airphant_storage::LatencyModel;

fn main() {
    let spec = paper_datasets()
        .into_iter()
        .find(|s| s.kind == DatasetKind::Windows)
        .unwrap();
    let base = AirphantConfig::default()
        .with_total_bins(1_000)
        .with_seed(1);
    let env = BenchEnv::prepare(spec, &base);

    // Split the vocabulary: the 10 most document-frequent words vs 30 rare.
    let by_freq = env.profile().vocabulary_by_frequency();
    let common_words: Vec<String> = by_freq.iter().take(10).map(|(w, _)| w.clone()).collect();
    let rare_words: Vec<String> = by_freq
        .iter()
        .rev()
        .take(30)
        .map(|(w, _)| w.clone())
        .collect();

    let mut report = Report::new(
        "ablation_common_words",
        &[
            "config",
            "word_class",
            "search_ms",
            "bytes/query",
            "fp/query",
        ],
    );
    for (label, fraction) in [("with-common-bins", 0.01f64), ("no-common-bins", 0.0)] {
        let prefix = format!("idx/{label}");
        let config = AirphantConfig::default()
            .with_total_bins(1_000)
            .with_common_fraction(fraction)
            .with_manual_layers(2)
            .with_seed(1);
        let raw = env.cloud_view(LatencyModel::instantaneous(), 0);
        let corpus = airphant_corpus::Corpus::new(
            raw.clone(),
            raw.list("corpora/").expect("list"),
            std::sync::Arc::new(airphant_corpus::LineSplitter),
            std::sync::Arc::new(airphant_corpus::WhitespaceTokenizer),
        );
        airphant::Builder::new(config)
            .build_with_profile(&corpus, &prefix, env.profile().clone())
            .expect("build");
        let view = env.cloud_view(LatencyModel::gcs_like(), 42);
        let searcher = Searcher::open(view, &prefix).expect("open");

        for (class, words) in [("common", &common_words), ("rare", &rare_words)] {
            let workload = QueryWorkload::from_words(words.clone());
            let mut lat = Vec::new();
            let mut bytes = 0u64;
            let mut fp = 0usize;
            for w in workload.iter() {
                let r = searcher.search(w, Some(10)).expect("search");
                lat.push(r.latency().as_millis_f64());
                bytes += r.trace.bytes();
                fp += r.false_positives_removed;
            }
            let stats = summarize(&lat);
            report.push(
                vec![
                    label.to_string(),
                    class.to_string(),
                    ms(stats.mean_ms),
                    (bytes / workload.len() as u64).to_string(),
                    format!("{:.2}", fp as f64 / workload.len() as f64),
                ],
                serde_json::json!({
                    "config": label,
                    "word_class": class,
                    "search_mean_ms": stats.mean_ms,
                    "bytes_per_query": bytes / workload.len() as u64,
                    "fp_per_query": fp as f64 / workload.len() as f64,
                }),
            );
        }
        eprintln!("done: {label}");
    }
    report.finish();
    println!("expected: without the reservation, common words flood their bins' superposts —");
    println!("rare-word queries co-hashed with them fetch more bytes and see more FPs.");
}
