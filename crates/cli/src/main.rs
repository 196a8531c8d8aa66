//! `airphant` — build and query IoU Sketch indexes from the command line.
//!
//! The store is a directory (the [`LocalFsStore`] backend); blob names map
//! to file paths, the way the paper's gcsfuse mount exposes a bucket.
//!
//! ```text
//! airphant build       --store DIR --corpus PREFIX --index PREFIX
//!                      [--bins N] [--f0 F] [--layers L] [--ngram N]
//! airphant search      --store DIR --index PREFIX [WORD...]
//!                      [--or] [--ngram N] [--substring PATTERN] [--gram N]
//!                      [--prefix P] [--fuzzy WORD] [--max-edits K]
//!                      [--top K] [--simulate-cloud] [--timeout-ms MS]
//! airphant bench-serve --store DIR --index PREFIX [WORD...]
//!                      [--corpus PREFIX] [--workers N] [--queue CAP]
//!                      [--queries M] [--cache-kb KB] [--deadline-ms MS]
//!                      [--ngram N] [--top K] [--clients N]
//!                      [--priority-mix H:N:L] [--hedge-pct P]
//! airphant stats       --store DIR --corpus PREFIX
//! ```

use airphant::{
    AdmissionConfig, AirphantConfig, AsyncQueryServer, AsyncServerConfig, Builder,
    CompactionPolicy, Compactor, FlushPolicy, Flusher, HedgeConfig, LiveIndex, Priority, Query,
    QueryOptions, QueryServer, SearchEngine, Searcher, SegmentManager, ServerConfig, ServerStats,
    ShardRouter, StagedEngine, Straggler, SubmitError, SubmitSpec,
};
use airphant_corpus::{Corpus, LineSplitter, NgramTokenizer, Tokenizer, WhitespaceTokenizer};
use airphant_storage::{
    CachedStore, CoalescingStore, LatencyModel, LocalFsStore, ObjectStore, SimDuration,
    SimulatedCloudStore,
};
use std::process::ExitCode;
use std::sync::Arc;

mod args;
use args::Args;

const USAGE: &str = "usage:
  airphant build       --store DIR --corpus PREFIX --index PREFIX [--append]
                       [--shards N] [--bins N] [--f0 F] [--layers L]
                       [--common FRAC] [--ngram N] [--format v1|v2]
  airphant append      --store DIR --index PREFIX [LINE...]
                       [--probe WORD] [--batch N] [--ngram N]
                       [--bins N] [--f0 F] [--layers L] [--common FRAC]
  airphant search      --store DIR --index PREFIX [WORD...]
                       [--or] [--ngram N] [--substring PATTERN] [--gram N]
                       [--prefix P] [--fuzzy WORD] [--max-edits K]
                       [--top K] [--simulate-cloud] [--coalesce]
                       [--timeout-ms MS]
  airphant segments    --store DIR --index PREFIX
  airphant compact     --store DIR --index PREFIX
                       [--max-live N] [--merge K] [--sweep] [--ngram N]
                       [--bins N] [--f0 F] [--layers L] [--common FRAC]
  airphant reshard     --store DIR --index PREFIX (--split | --merge)
                       [--gc] [--ngram N] [--bins N] [--f0 F] [--layers L]
                       [--common FRAC]
  airphant bench-serve --store DIR --index PREFIX [WORD...]
                       [--corpus PREFIX] [--workers N] [--queue CAP]
                       [--queries M] [--cache-kb KB] [--deadline-ms MS]
                       [--ngram N] [--top K] [--coalesce] [--clients N]
                       [--priority-mix H:N:L] [--hedge-pct P]
  airphant bench-ingest --store DIR --index PREFIX [--docs N] [--batch N]
                       [--flush-ms MS] [--bins N] [--f0 F] [--layers L]
                       [--common FRAC]
  airphant stats       --store DIR --corpus PREFIX

Multiple WORDs are combined with AND (--or combines them with OR).
--substring adds a literal-substring predicate; it needs an index built
with --ngram N, and search must pass the same --ngram N (the pattern's
gram size defaults to it, override with --gram). --prefix P matches any
indexed word starting with P (typeahead) and --fuzzy WORD matches words
within --max-edits edits (default 1); both resolve through the v2
segment vocabulary, so they need indexes built with --format v2 (the
default). However the query is
composed, its index lookup is a single batch of concurrent reads.
--timeout-ms MS stops waiting for superposts whose first byte takes
longer than MS simulated milliseconds (per word, the fastest one is
always kept); results stay exact, only more false positives reach the
verify pass. It works on every index kind and query shape. The
store directory is a local object store (one file per blob); a corpus
PREFIX selects every blob under it, parsed as newline-delimited
documents of whitespace keywords (or N-grams under --ngram).

build --append treats --index as a *segmented* index base: the corpus
becomes a new immutable segment published atomically in the manifest
(search then opens the whole live set). build --shards N hash-partitions
the corpus across N independent segmented indexes under --index (each
append adds one segment per non-empty shard); search auto-detects the
sharded layout and fans every query out to all shards in parallel,
merging results in stable doc-id order. `segments` shows the manifest —
generation plus each live segment's prefix, size, source blobs, on-wire
format version, and (for v2 segments) the layer directory's per-section
byte breakdown (per shard for sharded layouts).

--format selects the on-wire segment format the Builder writes
(default v2: an 8-aligned section table readable in place, with a layer
directory that classifies every byte range as Index or Data so tiered
caches can pin the hot index structures). Readers accept both formats
transparently; v1 remains for compatibility with old indexes.
`compact` merges the smallest segments until at most --max-live remain
(--merge at a time, default 4), publishes each swap atomically, then
garbage-collects the superseded blobs; --sweep additionally reclaims
orphaned blobs from crashed builds (only use it when nothing is
appending concurrently). compact's config knobs must match what the
segments were built with.

`reshard` changes a sharded index's partition count *online*
(docs/adr/010-multi-region-replication.md): --split doubles the shards,
--merge halves them (the count must be even). The documents are
migrated into a complete new shard set under the next layout
generation, then one conditional write swings the layout blob — open
searchers keep serving the old generation until they reopen, and a
concurrent reshard loses the CAS with a typed error. The config knobs
must match what the shards were built with. --gc additionally deletes
the superseded generation's blobs right after the cutover; omit it
while readers may still hold the old layout (their queries keep
working against the old blobs until they reopen).

bench-serve drives a closed-loop workload through a QueryServer (--workers
executor threads over one shared Searcher and one shared byte-budgeted
cache, on a simulated gcs-like cloud link) and prints throughput + tail
latency.
The workload cycles the given WORDs, or samples the vocabulary of
--corpus PREFIX when no WORDs are given.

--clients N switches bench-serve to the open-loop front end of the same
core (docs/adr/006-async-admission-core.md): N simulated clients submit
at once and suspend as event-driven state machines over --workers
executor threads, with --queue capping the admitted in-flight set
(watermark load-shedding: Low sheds at 50%, Normal at 80%, High only at
the cap). --priority-mix H:N:L weights the submission classes (default
0:1:0, all Normal); --hedge-pct P re-dispatches a storage batch that
straggles past its observed Pth latency percentile against a replica
backend below the cache. Shed and hedge counters print after the run.

`append` streams documents into the index's in-memory memtable tail
(docs/adr/007-streaming-ingestion.md): each LINE (positional, or one per
stdin line when no positionals are given) is searchable the moment it is
appended — before any durability — and a group-commit flush then
publishes the batches as real segments in the manifest, exactly as
build --append would. --probe WORD searches the live index after the
appends but *before* the flush, demonstrating freshness; --batch N seals
the memtable every N docs (default 4096). The config knobs must match
the existing segments.

bench-ingest drives a synthetic log stream through the same live index
with a background flusher thread (--flush-ms, default 50) and prints
sustained ingest throughput, freshness-probe latency, and the flush
counters. --docs N sizes the stream (default 20000); --batch N is the
group-commit seal threshold (default 1024).

--coalesce inserts the I/O scheduler below the cache: each batch's
overlapping/adjacent ranges merge into fewer larger reads (see
docs/adr/005-io-scheduler.md). The scheduler's counters are printed
after the run.";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let mut args = Args::parse(argv)?;
    match args.command() {
        "build" => build(&mut args),
        "append" => append(&mut args),
        "search" => search(&mut args),
        "segments" => segments(&mut args),
        "compact" => compact(&mut args),
        "reshard" => reshard(&mut args),
        "bench-serve" => bench_serve(&mut args),
        "bench-ingest" => bench_ingest(&mut args),
        "stats" => stats(&mut args),
        other => Err(format!("unknown command: {other}")),
    }
}

fn open_store(args: &mut Args) -> Result<Arc<dyn ObjectStore>, String> {
    let dir = args.required("--store")?;
    let store = LocalFsStore::new(dir).map_err(|e| e.to_string())?;
    Ok(Arc::new(store))
}

/// The document-word parser selected by `--ngram N` (whitespace keywords
/// when absent). Build and search must agree on it.
fn tokenizer_for(ngram: Option<usize>) -> Result<Arc<dyn Tokenizer>, String> {
    match ngram {
        None => Ok(Arc::new(WhitespaceTokenizer)),
        Some(0) => Err("--ngram must be at least 1".into()),
        Some(n) => Ok(Arc::new(NgramTokenizer::new(n))),
    }
}

fn open_corpus(
    args: &mut Args,
    store: Arc<dyn ObjectStore>,
    tokenizer: Arc<dyn Tokenizer>,
) -> Result<Corpus, String> {
    let prefix = args.required("--corpus")?;
    let blobs = store.list(&prefix).map_err(|e| e.to_string())?;
    if blobs.is_empty() {
        return Err(format!("no blobs under corpus prefix {prefix}"));
    }
    Ok(Corpus::new(store, blobs, Arc::new(LineSplitter), tokenizer))
}

/// The shared `--bins/--f0/--layers/--common/--format` config knobs
/// (build and compact must describe the same structure).
fn config_from(args: &mut Args) -> Result<AirphantConfig, String> {
    let mut config = AirphantConfig::default();
    if let Some(bins) = args.optional_parse::<usize>("--bins")? {
        config = config.with_total_bins(bins);
    }
    if let Some(f0) = args.optional_parse::<f64>("--f0")? {
        config = config.with_accuracy(f0);
    }
    if let Some(layers) = args.optional_parse::<usize>("--layers")? {
        config = config.with_manual_layers(layers);
    }
    if let Some(frac) = args.optional_parse::<f64>("--common")? {
        config = config.with_common_fraction(frac);
    }
    if let Some(fmt) = args.optional_parse::<String>("--format")? {
        let format = fmt
            .parse::<airphant::FormatVersion>()
            .map_err(|e| e.to_string())?;
        config = config.with_format(format);
    }
    Ok(config)
}

fn build(args: &mut Args) -> Result<(), String> {
    let store = open_store(args)?;
    let ngram = args.optional_parse::<usize>("--ngram")?;
    let corpus = open_corpus(args, store.clone(), tokenizer_for(ngram)?)?;
    let index = args.required("--index")?;
    let append = args.flag("--append");
    let shards = args.optional_parse::<usize>("--shards")?;
    let config = config_from(args)?;
    args.finish()?;

    // A shard layout under --index (or an explicit --shards N) routes
    // the corpus through the ShardRouter: each non-empty shard gains one
    // segment, published atomically in that shard's manifest.
    if shards.is_some() || ShardRouter::is_sharded(&store, &index) {
        let router = match shards {
            Some(n) => ShardRouter::create(store, &index, n).map_err(|e| e.to_string())?,
            None => ShardRouter::open(store, &index).map_err(|e| e.to_string())?,
        };
        let appends = router.append(&corpus, &config).map_err(|e| e.to_string())?;
        let generations = router.generations().map_err(|e| e.to_string())?;
        println!(
            "sharded {index} across {} shard(s): {} document(s) routed",
            router.shards(),
            appends.iter().map(|a| a.docs).sum::<u64>(),
        );
        for a in &appends {
            match (&a.report, &a.segment_prefix) {
                (Some(report), Some(prefix)) => println!(
                    "  shard {:>3}  {} doc(s) -> {prefix} ({} bytes, generation {})",
                    a.shard,
                    a.docs,
                    report.index_bytes(),
                    generations[a.shard],
                ),
                _ => println!(
                    "  shard {:>3}  0 doc(s) -> no new segment (generation {})",
                    a.shard, generations[a.shard],
                ),
            }
        }
        return Ok(());
    }

    let (report, built_prefix) = if append {
        let mgr = SegmentManager::new(store, &index);
        let (report, prefix) = mgr.append(&corpus, &config).map_err(|e| e.to_string())?;
        let manifest = mgr.manifest().map_err(|e| e.to_string())?;
        println!(
            "appended segment {prefix} (generation {}, {} live segment(s))",
            manifest.generation,
            manifest.segments.len(),
        );
        (report, prefix)
    } else {
        let report = Builder::new(config)
            .build(&corpus, &index)
            .map_err(|e| e.to_string())?;
        (report, index.clone())
    };
    println!(
        "built {built_prefix}: {} docs, {} words, L = {} (L* = {}), expected FP = {}",
        report.docs,
        report.words,
        report.layers,
        report.optimal_layers,
        report
            .expected_fp
            .map(|f| format!("{f:.4}/query"))
            .unwrap_or_else(|| "n/a".into()),
    );
    println!(
        "persisted {} superpost block(s), {} bytes total ({} header, format {})",
        report.blocks,
        report.index_bytes(),
        report.header_bytes,
        report.format,
    );
    Ok(())
}

/// `append`: stream documents into the live memtable tail, prove they
/// are searchable pre-durability, then group-commit them as segments.
fn append(args: &mut Args) -> Result<(), String> {
    let store = open_store(args)?;
    let index = args.required("--index")?;
    let ngram = args.optional_parse::<usize>("--ngram")?;
    let probe = args.optional_parse::<String>("--probe")?;
    let batch = args.optional_parse::<usize>("--batch")?.unwrap_or(4096);
    let config = config_from(args)?;
    let lines = args.positional();
    args.finish()?;

    let idx = LiveIndex::open_with_tokenizer(store, &index, config, tokenizer_for(ngram)?)
        .map_err(|e| e.to_string())?
        .with_policy(FlushPolicy {
            max_docs: batch,
            max_bytes: u64::MAX,
        });
    let mut appended = 0usize;
    if lines.is_empty() {
        for line in std::io::stdin().lines() {
            let line = line.map_err(|e| e.to_string())?;
            if line.is_empty() {
                continue;
            }
            idx.append(&line).map_err(|e| e.to_string())?;
            appended += 1;
        }
    } else {
        for line in &lines {
            idx.append(line).map_err(|e| e.to_string())?;
            appended += 1;
        }
    }
    println!(
        "appended {appended} doc(s): searchable now, {} pending durability",
        idx.pending_docs(),
    );
    if let Some(word) = probe {
        let result = idx
            .execute(&Query::term(&word), &QueryOptions::new())
            .map_err(|e| e.to_string())?;
        println!("pre-flush probe {word:?}: {} hit(s)", result.hits.len());
        for hit in result.hits.iter().take(5) {
            println!("  {}", hit.text);
        }
    }
    let report = idx.flush().map_err(|e| e.to_string())?;
    println!(
        "flushed {} batch(es): {} doc(s), {} corpus byte(s) -> generation {}",
        report.batches, report.docs, report.corpus_bytes, report.generation,
    );
    Ok(())
}

/// `bench-ingest`: a synthetic log stream through the live index with a
/// background flusher, reporting throughput and freshness.
fn bench_ingest(args: &mut Args) -> Result<(), String> {
    let store = open_store(args)?;
    let index = args.required("--index")?;
    let n_docs = args.optional_parse::<usize>("--docs")?.unwrap_or(20_000);
    let batch = args.optional_parse::<usize>("--batch")?.unwrap_or(1_024);
    let flush_ms = args.optional_parse::<u64>("--flush-ms")?.unwrap_or(50);
    let config = config_from(args)?;
    args.finish()?;

    let idx = Arc::new(
        LiveIndex::open(store, &index, config)
            .map_err(|e| e.to_string())?
            .with_policy(FlushPolicy {
                max_docs: batch,
                max_bytes: u64::MAX,
            }),
    );
    let flusher = Flusher::start(idx.clone(), std::time::Duration::from_millis(flush_ms));
    let started = std::time::Instant::now();
    let mut probe_total = std::time::Duration::ZERO;
    let mut probes = 0u32;
    for i in 0..n_docs {
        idx.append(&format!(
            "req{i} svc{} code{} latency{}",
            i % 37,
            i % 7,
            (i * 13) % 113,
        ))
        .map_err(|e| e.to_string())?;
        // Every 512th append, verify the newest doc is already
        // searchable and time the probe.
        if i % 512 == 511 {
            let t = std::time::Instant::now();
            let result = idx
                .execute(&Query::term(format!("req{i}")), &QueryOptions::new())
                .map_err(|e| e.to_string())?;
            probe_total += t.elapsed();
            probes += 1;
            if result.hits.len() != 1 {
                return Err(format!("freshness probe req{i} missed the newest doc"));
            }
        }
    }
    let ingest_wall = started.elapsed();
    let stats = flusher.stop();
    let total_wall = started.elapsed();
    println!(
        "ingested {n_docs} doc(s) in {:.2}s ({:.0} docs/s appended, {:.0} docs/s durable)",
        total_wall.as_secs_f64(),
        n_docs as f64 / ingest_wall.as_secs_f64(),
        n_docs as f64 / total_wall.as_secs_f64(),
    );
    println!(
        "freshness: {probes} probe(s), all served pre-durability, mean {:.2}ms",
        probe_total.as_secs_f64() * 1e3 / f64::from(probes.max(1)),
    );
    println!(
        "flusher: {} flush round(s), {} failure(s), {} doc(s) committed -> generation {}",
        stats.flushes,
        stats.failures,
        stats.docs_flushed,
        idx.generation(),
    );
    if idx.pending_docs() != 0 {
        return Err(format!(
            "{} doc(s) still pending after the final flush",
            idx.pending_docs()
        ));
    }
    Ok(())
}

/// `segments` and `compact` are read-modify commands over an existing
/// segmented index: a missing manifest means a typo'd prefix or a plain
/// (non-`--append`) index, not a healthy empty one.
fn require_manifest(store: &Arc<dyn ObjectStore>, index: &str) -> Result<(), String> {
    if !store.exists(&format!("{index}/manifest")) {
        return Err(format!(
            "no segment manifest under {index} (segmented indexes are created with build --append)"
        ));
    }
    Ok(())
}

/// Print one segmented index's manifest: every live segment's full
/// (shard-qualified, for sharded layouts) prefix, size, and source
/// blobs. `indent` nests shard listings under the layout header.
fn print_manifest(store: &Arc<dyn ObjectStore>, base: &str, indent: &str) -> Result<(), String> {
    let mgr = SegmentManager::new(store.clone(), base);
    let manifest = mgr.manifest().map_err(|e| e.to_string())?;
    println!(
        "{indent}{base}: generation {}, {} live segment(s)",
        manifest.generation,
        manifest.segments.len(),
    );
    for seg in &manifest.segments {
        let prefix = seg.prefix(base);
        let bytes = store
            .usage(&format!("{prefix}/"))
            .map_err(|e| e.to_string())?;
        println!(
            "{indent}  {prefix}  {bytes:>10} bytes  {} corpus blob(s): {}",
            seg.corpus_blobs.len(),
            seg.corpus_blobs.join(", "),
        );
        print_segment_format(store, &prefix, indent)?;
    }
    Ok(())
}

/// Print one segment's on-wire format version and, for v2, the layer
/// directory's per-section byte breakdown.
fn print_segment_format(
    store: &Arc<dyn ObjectStore>,
    prefix: &str,
    indent: &str,
) -> Result<(), String> {
    let searcher = Searcher::open(store.clone(), prefix).map_err(|e| e.to_string())?;
    let fmt = searcher.format();
    match &fmt.directory {
        Some(dir) => {
            println!(
                "{indent}    format v{}: {} index byte(s), {} data byte(s) \
                 in {} superpost block(s)",
                fmt.version,
                dir.index_bytes(),
                dir.data_bytes(),
                dir.data_blocks.len(),
            );
            for s in &dir.sections {
                println!(
                    "{indent}      {:<8} {:>8} B  @{:<8} {:?}",
                    s.kind.name(),
                    s.len,
                    s.offset,
                    s.class,
                );
            }
        }
        None => println!("{indent}    format v{}", fmt.version),
    }
    Ok(())
}

fn segments(args: &mut Args) -> Result<(), String> {
    let store = open_store(args)?;
    let index = args.required("--index")?;
    args.finish()?;
    if ShardRouter::is_sharded(&store, &index) {
        let router = ShardRouter::open(store.clone(), &index).map_err(|e| e.to_string())?;
        // A hole in the layout surfaces as the shard-naming error.
        let bases = router.shard_bases().map_err(|e| e.to_string())?;
        println!("{index}: {} shard(s)", bases.len());
        for base in &bases {
            print_manifest(&store, base, "  ")?;
        }
        return Ok(());
    }
    require_manifest(&store, &index)?;
    print_manifest(&store, &index, "")
}

fn compact(args: &mut Args) -> Result<(), String> {
    let store = open_store(args)?;
    let index = args.required("--index")?;
    let max_live = args.optional_parse::<usize>("--max-live")?.unwrap_or(8);
    let merge = args.optional_parse::<usize>("--merge")?.unwrap_or(4);
    let sweep = args.flag("--sweep");
    let ngram = args.optional_parse::<usize>("--ngram")?;
    let config = config_from(args)?;
    args.finish()?;
    if max_live < 1 {
        return Err("--max-live must be at least 1".into());
    }
    let policy = CompactionPolicy::new()
        .with_max_live_segments(max_live)
        .with_merge_factor(merge)
        .with_orphan_sweep(sweep);

    // Sharded layout: compact every shard (each with its routing filter,
    // so merged rebuilds keep only that shard's slice of shared blobs).
    if ShardRouter::is_sharded(&store, &index) {
        let router = ShardRouter::open(store, &index).map_err(|e| e.to_string())?;
        let bases = router.shard_bases().map_err(|e| e.to_string())?;
        let reports = router
            .compact_with_tokenizer(&config, &policy, tokenizer_for(ngram)?)
            .map_err(|e| e.to_string())?;
        println!("compacted {index}: {} shard(s)", reports.len());
        for (base, report) in bases.iter().zip(&reports) {
            println!(
                "  {base}: {} -> {} live segment(s) in {} round(s), generation {}, \
                 deleted {} superseded + {} orphan blob(s)",
                report.live_before,
                report.live_after,
                report.rounds,
                report.generation,
                report.superseded_blobs_deleted,
                report.orphan_blobs_deleted,
            );
        }
        return Ok(());
    }

    require_manifest(&store, &index)?;
    let mgr = SegmentManager::new(store, &index);
    let report = Compactor::new(&mgr, config)
        .with_tokenizer(tokenizer_for(ngram)?)
        .with_policy(policy)
        .compact()
        .map_err(|e| e.to_string())?;
    println!(
        "compacted {index}: {} -> {} live segment(s) in {} round(s), generation {}",
        report.live_before, report.live_after, report.rounds, report.generation,
    );
    println!(
        "merged away {} segment(s), built {} replacement(s), deleted {} superseded + {} orphan blob(s)",
        report.merged_segment_ids.len(),
        report.new_segment_ids.len(),
        report.superseded_blobs_deleted,
        report.orphan_blobs_deleted,
    );
    Ok(())
}

/// `reshard`: publish a new shard-layout generation with double
/// (`--split`) or half (`--merge`) the partitions, migrating every
/// document through the per-shard routing-filter rebuild path. The old
/// generation keeps serving already-open searchers; `--gc` reclaims it.
fn reshard(args: &mut Args) -> Result<(), String> {
    let store = open_store(args)?;
    let index = args.required("--index")?;
    let split = args.flag("--split");
    let merge = args.flag("--merge");
    let gc = args.flag("--gc");
    let ngram = args.optional_parse::<usize>("--ngram")?;
    let config = config_from(args)?;
    args.finish()?;
    if split == merge {
        return Err("reshard needs exactly one of --split or --merge".into());
    }
    if !ShardRouter::is_sharded(&store, &index) {
        return Err(format!(
            "no shard layout under {index} (sharded indexes are created with build --shards N)"
        ));
    }
    let router = ShardRouter::open(store, &index).map_err(|e| e.to_string())?;
    let splitter: Arc<dyn airphant_corpus::DocSplitter> = Arc::new(LineSplitter);
    let (next, old) = if split {
        router.split(&config, splitter, tokenizer_for(ngram)?)
    } else {
        router.merge(&config, splitter, tokenizer_for(ngram)?)
    }
    .map_err(|e| e.to_string())?;
    println!(
        "resharded {index}: generation {} ({} shard(s)) -> generation {} ({} shard(s))",
        old.generation,
        old.shards,
        next.generation(),
        next.shards(),
    );
    if gc {
        let deleted = next.gc_generation(&old).map_err(|e| e.to_string())?;
        println!(
            "reclaimed generation {}: deleted {deleted} blob(s)",
            old.generation,
        );
    } else {
        println!(
            "generation {} left in place for still-open searchers (pass --gc to reclaim it)",
            old.generation,
        );
    }
    Ok(())
}

/// Compose the [`Query`] AST from the command line's words and options.
///
/// Under `--ngram N` the index holds grams, not whole words, so a bare
/// WORD becomes a substring predicate (its grams prefilter, the verify
/// pass does the exact `contains`); without it, WORDs are exact terms.
#[allow(clippy::too_many_arguments)]
fn compose_query(
    words: &[String],
    any: bool,
    substring: Option<String>,
    ngram: Option<usize>,
    gram: usize,
    prefix: Option<String>,
    fuzzy: Option<String>,
    max_edits: u32,
) -> Result<Query, String> {
    let mut parts: Vec<Query> = Vec::new();
    if !words.is_empty() {
        let terms: Vec<Query> = words
            .iter()
            .map(|w| match ngram {
                Some(n) => Query::substring(w, n),
                None => Query::term(w),
            })
            .collect();
        parts.push(if any {
            Query::any(terms)
        } else {
            Query::all(terms)
        });
    }
    if let Some(pattern) = substring {
        parts.push(Query::substring(pattern, gram));
    }
    if let Some(p) = prefix {
        parts.push(Query::prefix(p));
    }
    if let Some(w) = fuzzy {
        parts.push(Query::fuzzy(w, max_edits));
    }
    match parts.len() {
        0 => Err("search needs at least one WORD, --substring, --prefix, or --fuzzy".into()),
        1 => Ok(parts.pop().expect("one part")),
        _ => Ok(Query::all(parts)),
    }
}

fn search(args: &mut Args) -> Result<(), String> {
    let store = open_store(args)?;
    let index = args.required("--index")?;
    let top_k = args.optional_parse::<usize>("--top")?;
    let simulate = args.flag("--simulate-cloud");
    let coalesce = args.flag("--coalesce");
    let any = args.flag("--or");
    let ngram = args.optional_parse::<usize>("--ngram")?;
    let substring = args.optional_parse::<String>("--substring")?;
    let gram = args
        .optional_parse::<usize>("--gram")?
        .or(ngram)
        .unwrap_or(3);
    let prefix = args.optional_parse::<String>("--prefix")?;
    let fuzzy = args.optional_parse::<String>("--fuzzy")?;
    let max_edits_opt = args.optional_parse::<u32>("--max-edits")?;
    let timeout_ms = args.optional_parse::<u64>("--timeout-ms")?;
    let words = args.positional();
    args.finish()?;
    if substring.is_some() && ngram.is_none() {
        return Err("--substring needs an N-gram index: pass --ngram N matching the build".into());
    }
    if max_edits_opt.is_some() && fuzzy.is_none() {
        return Err("--max-edits only applies together with --fuzzy WORD".into());
    }
    let max_edits = max_edits_opt.unwrap_or(1);

    let store: Arc<dyn ObjectStore> = if simulate {
        Arc::new(SimulatedCloudStore::new(
            store,
            LatencyModel::gcs_like(),
            0xC0FFEE,
        ))
    } else {
        store
    };
    // The I/O scheduler merges each planner batch's overlapping/adjacent
    // ranges into fewer backend reads.
    let scheduler = coalesce.then(|| Arc::new(CoalescingStore::new(store.clone())));
    let store: Arc<dyn ObjectStore> = match &scheduler {
        Some(s) => s.clone(),
        None => store,
    };
    // A shard layout under the prefix means a *sharded* index (created
    // via build --shards): one batch per phase covers every shard. A
    // manifest means a *segmented* index (build --append): open the
    // whole live set instead of one header.
    let sharded = ShardRouter::is_sharded(&store, &index);
    let segmented = store.exists(&format!("{index}/manifest"));

    let query = compose_query(
        &words, any, substring, ngram, gram, prefix, fuzzy, max_edits,
    )?;
    let mut opts = QueryOptions::new().with_top_k(top_k);
    if let Some(ms) = timeout_ms {
        opts = opts.straggler(Straggler::Timeout(SimDuration::from_millis(ms)));
    }
    let result = if sharded {
        let router = ShardRouter::open(store, &index).map_err(|e| e.to_string())?;
        let searcher = router
            .open_searcher_with_tokenizer(tokenizer_for(ngram)?)
            .map_err(|e| e.to_string())?;
        searcher.execute(&query, &opts).map_err(|e| e.to_string())?
    } else if segmented {
        let mgr = SegmentManager::new(store, &index);
        let searcher = mgr
            .open_with_tokenizer(tokenizer_for(ngram)?)
            .map_err(|e| e.to_string())?;
        searcher.execute(&query, &opts).map_err(|e| e.to_string())?
    } else {
        let searcher = Searcher::open_with_tokenizer(store, &index, tokenizer_for(ngram)?)
            .map_err(|e| e.to_string())?;
        searcher.execute(&query, &opts).map_err(|e| e.to_string())?
    };

    println!(
        "{} hit(s) in {} simulated ({} round trip(s), {} requests, {} bytes, {} FP filtered)",
        result.hits.len(),
        result.latency(),
        result.trace.round_trips(),
        result.trace.requests(),
        result.trace.bytes(),
        result.false_positives_removed,
    );
    for hit in &result.hits {
        println!("{}@{}+{}\t{}", hit.blob, hit.offset, hit.len, hit.text);
    }
    if let Some(s) = &scheduler {
        let st = s.stats();
        println!(
            "scheduler: {} range(s) merged away, {} bytes saved, {} backend batch(es)",
            st.merged_ranges, st.bytes_saved, st.backend_batches,
        );
    }
    Ok(())
}

/// Parse `--priority-mix H:N:L` into a repeating class pattern, e.g.
/// `1:2:1` submits High, Normal, Normal, Low, High, ...
fn parse_priority_mix(mix: &str) -> Result<Vec<Priority>, String> {
    let parts: Vec<&str> = mix.split(':').collect();
    if parts.len() != 3 {
        return Err(format!(
            "--priority-mix wants three counts H:N:L, got {mix}"
        ));
    }
    let mut pattern = Vec::new();
    for (class, part) in [Priority::High, Priority::Normal, Priority::Low]
        .into_iter()
        .zip(parts)
    {
        let n: usize = part
            .parse()
            .map_err(|_| format!("bad count in --priority-mix: {part}"))?;
        for _ in 0..n {
            pattern.push(class);
        }
    }
    if pattern.is_empty() {
        return Err("--priority-mix must weight at least one class".into());
    }
    Ok(pattern)
}

/// The latency/cache lines shared by the closed- and open-loop bench-serve
/// report.
fn print_latency_and_cache(stats: &ServerStats) {
    println!(
        "latency ms: p50 {:.1}  p95 {:.1}  p99 {:.1}  (lookup wait p50 {:.1}, p99 {:.1})",
        stats.latency_p50_ms,
        stats.latency_p95_ms,
        stats.latency_p99_ms,
        stats.wait_p50_ms,
        stats.wait_p99_ms,
    );
    match stats.cache_hit_rate() {
        Some(rate) => {
            let (h, m) = stats.cache.expect("rate implies counters");
            println!(
                "shared cache: {:.1}% hit rate ({h} hits / {m} misses)",
                rate * 100.0
            );
        }
        None => println!("shared cache: no traffic"),
    }
}

fn bench_serve(args: &mut Args) -> Result<(), String> {
    let store = open_store(args)?;
    let index = args.required("--index")?;
    let corpus_prefix = args.optional_parse::<String>("--corpus")?;
    let workers = args.optional_parse::<usize>("--workers")?.unwrap_or(4);
    let queue_cap = args.optional_parse::<usize>("--queue")?;
    let queue = queue_cap.unwrap_or(workers * 4);
    let queries = args.optional_parse::<usize>("--queries")?.unwrap_or(200);
    let cache_kb = args.optional_parse::<usize>("--cache-kb")?.unwrap_or(1024);
    let deadline_ms = args.optional_parse::<u64>("--deadline-ms")?;
    let top_k = args.optional_parse::<usize>("--top")?;
    let ngram = args.optional_parse::<usize>("--ngram")?;
    let coalesce = args.flag("--coalesce");
    let clients = args.optional_parse::<usize>("--clients")?;
    let priority_mix = args.optional_parse::<String>("--priority-mix")?;
    let hedge_pct = args.optional_parse::<f64>("--hedge-pct")?;
    let mut words = args.positional();

    // No explicit WORDs: sample the vocabulary of --corpus.
    if words.is_empty() {
        let prefix = corpus_prefix
            .clone()
            .ok_or("bench-serve needs WORDs or --corpus PREFIX to draw a workload from")?;
        let blobs = store.list(&prefix).map_err(|e| e.to_string())?;
        if blobs.is_empty() {
            return Err(format!("no blobs under corpus prefix {prefix}"));
        }
        let corpus = Corpus::new(
            store.clone(),
            blobs,
            Arc::new(LineSplitter),
            tokenizer_for(ngram)?,
        );
        let profile = corpus.profile().map_err(|e| e.to_string())?;
        if profile.n_terms == 0 {
            return Err(format!(
                "corpus under {prefix} has no words to sample a workload from"
            ));
        }
        words = airphant_corpus::QueryWorkload::frequency_weighted(&profile, queries, 7)
            .words()
            .to_vec();
    }
    args.finish()?;

    if let Some(clients) = clients {
        if coalesce {
            return Err(
                "--coalesce applies to the closed-loop server; drop it with --clients".into(),
            );
        }
        return bench_serve_async(BenchServeAsync {
            store,
            index,
            words,
            clients,
            pattern: parse_priority_mix(priority_mix.as_deref().unwrap_or("0:1:0"))?,
            hedge_pct,
            workers,
            queue_cap,
            cache_kb,
            deadline_ms,
            top_k,
            ngram,
        });
    }
    if priority_mix.is_some() || hedge_pct.is_some() {
        return Err("--priority-mix and --hedge-pct need --clients (the async core)".into());
    }

    // The serving stack: local blobs → simulated cloud link → (optional
    // I/O scheduler) → one shared byte-budgeted cache → one shared
    // Searcher → the closed-loop server. The scheduler sits BELOW the
    // cache so that only misses coalesce (ADR-005).
    let sim: Arc<dyn ObjectStore> = Arc::new(SimulatedCloudStore::new(
        store,
        LatencyModel::gcs_like(),
        0xC0FFEE,
    ));
    let scheduler = coalesce.then(|| Arc::new(CoalescingStore::new(sim.clone())));
    let below_cache: Arc<dyn ObjectStore> = match &scheduler {
        Some(s) => s.clone(),
        None => sim,
    };
    let cache = Arc::new(CachedStore::new(below_cache, cache_kb << 10));
    let searcher = Searcher::open_with_tokenizer(
        cache.clone() as Arc<dyn ObjectStore>,
        &index,
        tokenizer_for(ngram)?,
    )
    .map_err(|e| e.to_string())?;

    let mut config = ServerConfig::new()
        .with_workers(workers)
        .with_queue_capacity(queue);
    if let Some(ms) = deadline_ms {
        config = config.with_deadline(SimDuration::from_millis(ms));
    }
    let cache_for_stats = cache.clone();
    let server = QueryServer::start(Arc::new(searcher), config)
        .with_cache_stats(move || cache_for_stats.hit_stats());

    let opts = QueryOptions::new().with_top_k(top_k);
    let mut tickets = Vec::with_capacity(queries);
    for i in 0..queries {
        let word = &words[i % words.len()];
        tickets.push(
            server
                .submit(Query::term(word), opts.clone())
                .map_err(|e| e.to_string())?,
        );
    }
    let mut timeouts = 0usize;
    for t in tickets {
        if t.wait().is_err() {
            timeouts += 1;
        }
    }
    let stats = server.shutdown();

    println!(
        "served {} queries on {} worker(s) (queue {queue}, cache {cache_kb} KiB)",
        stats.completed + stats.timed_out + stats.failed,
        stats.workers,
    );
    println!(
        "throughput: {:.1} q/s simulated ({:.1} q/s wall), makespan {}",
        stats.qps_sim, stats.qps_wall, stats.sim_makespan,
    );
    print_latency_and_cache(&stats);
    if let Some(s) = &scheduler {
        let sched = s.stats();
        println!(
            "i/o scheduler: {} range(s) merged, {} bytes saved, {} backend batch(es)",
            sched.merged_ranges, sched.bytes_saved, sched.backend_batches,
        );
    }
    println!(
        "outcomes: {} ok, {} past deadline, {} failed, {} rejected",
        stats.completed, stats.timed_out, stats.failed, stats.rejected,
    );
    if timeouts != (stats.timed_out + stats.failed) as usize {
        return Err("ticket outcomes disagree with server counters".into());
    }
    Ok(())
}

/// Everything `bench-serve --clients N` needs after flag parsing.
struct BenchServeAsync {
    store: Arc<dyn ObjectStore>,
    index: String,
    words: Vec<String>,
    clients: usize,
    pattern: Vec<Priority>,
    hedge_pct: Option<f64>,
    workers: usize,
    queue_cap: Option<usize>,
    cache_kb: usize,
    deadline_ms: Option<u64>,
    top_k: Option<usize>,
    ngram: Option<usize>,
}

/// `bench-serve --clients N`: burst N simulated clients through the
/// async admission-controlled core (one event-driven state machine per
/// query, suspended while storage batches are in flight) and print the
/// shed/hedge counters next to the usual throughput and tail latency.
fn bench_serve_async(p: BenchServeAsync) -> Result<(), String> {
    // The same stack as the closed-loop server — local blobs → simulated
    // cloud → one shared byte-budgeted cache — but served open-loop.
    // The hedge replica sits BELOW the cache (a duplicate dispatch must
    // race the backend, not the cache it shares with the original).
    let sim: Arc<dyn ObjectStore> = Arc::new(SimulatedCloudStore::new(
        p.store.clone(),
        LatencyModel::gcs_like(),
        0xC0FFEE,
    ));
    let cache = Arc::new(CachedStore::new(sim, p.cache_kb << 10));
    let searcher = Searcher::open_with_tokenizer(
        cache.clone() as Arc<dyn ObjectStore>,
        &p.index,
        tokenizer_for(p.ngram)?,
    )
    .map_err(|e| e.to_string())?;

    let mut config = AsyncServerConfig::new().with_executor_threads(p.workers);
    if let Some(cap) = p.queue_cap {
        config = config.with_admission(AdmissionConfig::with_max_in_flight(cap));
    }
    if let Some(ms) = p.deadline_ms {
        config = config.with_deadline(SimDuration::from_millis(ms));
    }
    if let Some(pct) = p.hedge_pct {
        if !(0.0..100.0).contains(&pct) || pct == 0.0 {
            return Err("--hedge-pct must be a percentile in (0, 100)".into());
        }
        config = config.with_hedge(HedgeConfig {
            percentile: pct / 100.0,
            ..HedgeConfig::default()
        });
    }
    let cache_for_stats = cache.clone();
    let mut server = AsyncQueryServer::start(Arc::new(searcher) as Arc<dyn StagedEngine>, config)
        .with_cache_stats(move || cache_for_stats.hit_stats());
    if p.hedge_pct.is_some() {
        let replica: Arc<dyn ObjectStore> = Arc::new(SimulatedCloudStore::new(
            p.store,
            LatencyModel::gcs_like(),
            0xBEEF,
        ));
        server = server.with_hedge_backend(replica);
    }

    let opts = QueryOptions::new().with_top_k(p.top_k);
    let mut tickets = Vec::with_capacity(p.clients);
    let mut shed = 0u64;
    for i in 0..p.clients {
        let word = &p.words[i % p.words.len()];
        let class = p.pattern[i % p.pattern.len()];
        match server.try_submit(
            Query::term(word),
            opts.clone(),
            SubmitSpec::new().with_class(class),
        ) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::Overloaded { .. }) => shed += 1,
            Err(e) => return Err(e.to_string()),
        }
    }
    let mut failures = 0usize;
    for t in tickets {
        if t.wait().result.is_err() {
            failures += 1;
        }
    }
    let stats = server.shutdown();

    println!(
        "served {} of {} client(s) through the async core on {} executor thread(s)",
        stats.completed, p.clients, p.workers,
    );
    println!(
        "throughput: {:.1} q/s simulated ({:.1} q/s wall), makespan {}, peak in flight {}",
        stats.qps_sim, stats.qps_wall, stats.sim_makespan, stats.peak_in_flight,
    );
    print_latency_and_cache(&stats);
    if let Some(adm) = &stats.admission {
        println!(
            "admission: {} submitted, {} admitted, {} shed \
             (H {} / N {} / L {}, quota {}, deadline {})",
            adm.submitted,
            adm.admitted,
            adm.shed_total(),
            adm.shed_high,
            adm.shed_normal,
            adm.shed_low,
            adm.shed_quota,
            adm.shed_deadline,
        );
    }
    println!(
        "hedging: {} duplicate dispatch(es), {} won the race",
        stats.hedges, stats.hedge_wins,
    );
    println!(
        "outcomes: {} ok, {} past deadline, {} failed, {} shed at submit",
        stats.completed, stats.timed_out, stats.failed, stats.rejected,
    );
    if shed != stats.rejected || failures != (stats.timed_out + stats.failed) as usize {
        return Err("ticket outcomes disagree with server counters".into());
    }
    Ok(())
}

fn stats(args: &mut Args) -> Result<(), String> {
    let store = open_store(args)?;
    let corpus = open_corpus(args, store, Arc::new(WhitespaceTokenizer))?;
    args.finish()?;
    let p = corpus.profile().map_err(|e| e.to_string())?;
    println!("documents: {}", p.n_docs);
    println!("terms:     {}", p.n_terms);
    println!("words:     {}", p.n_words);
    println!("bytes:     {}", p.total_bytes);
    println!("mean distinct words/doc: {:.1}", p.mean_distinct_words());
    println!("max  distinct words/doc: {}", p.max_distinct_words());
    println!("top terms by document frequency:");
    for (word, df) in p.vocabulary_by_frequency().into_iter().take(10) {
        println!("  {df:>8}  {word}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn compose(
        words: &[String],
        any: bool,
        substring: Option<String>,
        ngram: Option<usize>,
        gram: usize,
    ) -> Result<Query, String> {
        compose_query(words, any, substring, ngram, gram, None, None, 1)
    }

    #[test]
    fn compose_words_default_and() {
        let q = compose(&owned(&["a", "b"]), false, None, None, 3).unwrap();
        assert_eq!(q, Query::all([Query::term("a"), Query::term("b")]));
    }

    #[test]
    fn compose_words_or_flag() {
        let q = compose(&owned(&["a", "b"]), true, None, None, 3).unwrap();
        assert_eq!(q, Query::any([Query::term("a"), Query::term("b")]));
    }

    #[test]
    fn compose_substring_alone_and_mixed() {
        let q = compose(&[], false, Some("blk_".into()), Some(3), 3).unwrap();
        assert_eq!(q, Query::substring("blk_", 3));
        let q = compose(&owned(&["err"]), false, Some("disk".into()), None, 4).unwrap();
        assert_eq!(
            q,
            Query::all([
                Query::all([Query::term("err")]),
                Query::substring("disk", 4)
            ])
        );
    }

    #[test]
    fn compose_prefix_and_fuzzy() {
        let q = compose_query(&[], false, None, None, 3, Some("typ".into()), None, 1).unwrap();
        assert_eq!(q, Query::prefix("typ"));
        let q = compose_query(
            &owned(&["err"]),
            false,
            None,
            None,
            3,
            None,
            Some("disk".into()),
            2,
        )
        .unwrap();
        assert_eq!(
            q,
            Query::all([Query::all([Query::term("err")]), Query::fuzzy("disk", 2)])
        );
    }

    #[test]
    fn compose_empty_is_an_error() {
        assert!(compose(&[], false, None, None, 3).is_err());
    }
}
