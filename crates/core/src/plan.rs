//! Two-stage query planning and execution.
//!
//! **Stage 1 — plan.** Walk the [`Query`] AST and collect every distinct
//! lookup atom (terms, phrase words, substring grams) via
//! [`Query::atoms`]. For each segment's in-memory MHT, resolve every
//! atom to its superpost pointers and coalesce *all* resulting ranged
//! reads — across atoms, layers, and segments — into a single request
//! vector, deduplicating identical ranges.
//!
//! **Stage 2 — execute.** Issue the whole vector as **one**
//! [`ObjectStore::get_ranges`] batch (one storage round trip, §III-C),
//! decode each atom's superposts, intersect per atom, evaluate the
//! boolean algebra over the per-atom postings, then fetch the surviving
//! candidate documents in one more batch and run the exact verify pass.
//!
//! The old per-term execution paid one lookup round trip per term/gram
//! (and per segment); the planner pays exactly one regardless of query
//! shape — `trace.round_trips_of(PhaseKind::Postings) == 1` is asserted
//! in the test suite.
//!
//! **Groups.** A sharded query plans each shard as one group of
//! segments. Each group expands Prefix/Fuzzy atoms against its own
//! vocabularies and completes against its own slice of the parts, but
//! the requests of every group go out together: N shards still cost one
//! postings batch and at most one documents batch.
//!
//! [`QueryOptions::straggler`] (§IV-G) picks which parts of that batch a
//! query waits for (`keep_parts`), the same way on every driver.

use crate::query::{Query, QueryOptions, Straggler};
use crate::result::{SearchHit, SearchResult};
use crate::retrieval::BlobResolver;
use crate::searcher::{sample_postings, seed_for, Searcher};
use crate::Result;
use airphant_corpus::Tokenizer;
use airphant_storage::{
    BatchFetch, Fetched, ObjectStore, PhaseKind, QueryTrace, RangeRequest, SimDuration,
};
use iou_sketch::mht::WordLookup;
use iou_sketch::{intersect_views, sample_size_for_top_k, Posting, PostingsList, SuperpostView};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

/// Per-atom postings for each segment, resolved in one storage batch.
pub(crate) type SegmentAtomPostings = Vec<HashMap<String, PostingsList>>;

/// Stage-1 output of the postings phase for one group of segments: its
/// slice of the batch's parts, plus — per segment and atom — the part
/// indices (relative to that slice) whose decoded superposts intersect
/// to that atom's postings.
///
/// Splitting the plan from its completion lets a driver *suspend* between
/// dispatching the requests and decoding the returned batch; the serving
/// core ([`crate::serve`]) parks the query on the simulated clock during
/// that window while a direct `execute` simply calls straight through.
/// Both paths share this code, so their results are byte-for-byte
/// identical by construction.
pub(crate) struct PostingsPlan {
    /// This group's parts of the batch.
    parts: Range<usize>,
    /// Per segment, per atom: `(atom_idx, part indices within `parts`)`.
    fetch_plan: Vec<Vec<(usize, Vec<usize>)>>,
}

/// Plan one group's postings phase: coalesce every superpost pointer —
/// across atoms, layers, and segments — into deduplicated requests
/// appended to `requests`, the batch shared by every group.
pub(crate) fn plan_postings(
    segments: &[&Searcher],
    atoms: &[String],
    requests: &mut Vec<RangeRequest>,
) -> PostingsPlan {
    let base = requests.len();
    let mut request_index: HashMap<(String, u64, u64), usize> = HashMap::new();
    let mut push_request = |req: RangeRequest, requests: &mut Vec<RangeRequest>| -> usize {
        let key = (req.name.clone(), req.offset, req.len);
        *request_index.entry(key).or_insert_with(|| {
            requests.push(req);
            requests.len() - 1 - base
        })
    };

    // Per segment, per atom: the request indices whose decoded superposts
    // intersect to the atom's postings.
    let mut fetch_plan: Vec<Vec<(usize, Vec<usize>)>> = Vec::with_capacity(segments.len());
    for searcher in segments {
        let mut seg_plan = Vec::with_capacity(atoms.len());
        for (atom_idx, atom) in atoms.iter().enumerate() {
            let indices: Vec<usize> = match searcher.mht().lookup(atom) {
                WordLookup::Common(ptr) => vec![push_request(
                    RangeRequest::superpost(
                        searcher.resolve_block(ptr.block),
                        ptr.offset,
                        ptr.len as u64,
                    ),
                    requests,
                )],
                WordLookup::Sketched(ptrs) => ptrs
                    .iter()
                    .map(|p| {
                        push_request(
                            RangeRequest::superpost(
                                searcher.resolve_block(p.block),
                                p.offset,
                                p.len as u64,
                            ),
                            requests,
                        )
                    })
                    .collect(),
            };
            seg_plan.push((atom_idx, indices));
        }
        fetch_plan.push(seg_plan);
    }

    PostingsPlan {
        parts: base..requests.len(),
        fetch_plan,
    }
}

/// The parts of a postings batch a [`Straggler`] policy keeps
/// (`mask[i]`), and their count, bytes, latest first byte and summed
/// transfer: what waiting for only them costs.
pub(crate) struct KeptParts {
    mask: Vec<bool>,
    pub(crate) requests: u64,
    pub(crate) bytes: u64,
    pub(crate) wait: SimDuration,
    pub(crate) download: SimDuration,
}

/// Pick the parts of a postings batch that `policy` keeps. Per group,
/// segment and atom: the `k` layers with the earliest first byte
/// ([`Straggler::Fastest`]), or those whose first byte arrives within
/// the timeout and else the single fastest ([`Straggler::Timeout`]) — so
/// a common word's single exact pointer is always kept. A part kept for
/// one atom is intersected by every atom that points at it: its bytes
/// have arrived anyway. The query is charged the union of the kept parts
/// over all `plans`. `None` keeps every part (always so under
/// [`Straggler::WaitAll`], which allocates nothing): the batch is charged
/// and intersected whole.
pub(crate) fn keep_parts(
    plans: &[PostingsPlan],
    parts: &[Fetched],
    policy: Straggler,
) -> Option<Box<KeptParts>> {
    if policy == Straggler::WaitAll {
        return None;
    }
    let first_byte = |i: usize| parts[i].latency.first_byte;
    let mut mask = vec![false; parts.len()];
    let mut order: Vec<usize> = Vec::new();
    for plan in plans {
        for (_, indices) in plan.fetch_plan.iter().flatten() {
            order.clear();
            order.extend(indices.iter().map(|&i| plan.parts.start + i));
            order.sort_by_key(|&i| first_byte(i));
            let keep = match policy {
                Straggler::WaitAll => order.len(),
                Straggler::Fastest(k) => k,
                Straggler::Timeout(timeout) => order
                    .iter()
                    .take_while(|&&i| first_byte(i) <= timeout)
                    .count(),
            };
            for &i in order.iter().take(keep.max(1)) {
                mask[i] = true;
            }
        }
    }
    if mask.iter().all(|&kept| kept) {
        return None;
    }
    let mut kept = Box::new(KeptParts {
        mask,
        requests: 0,
        bytes: 0,
        wait: SimDuration::ZERO,
        download: SimDuration::ZERO,
    });
    for (part, _) in parts.iter().zip(&kept.mask).filter(|&(_, &k)| k) {
        kept.requests += 1;
        kept.bytes += part.bytes.len() as u64;
        kept.wait = kept.wait.max(part.latency.first_byte);
        kept.download += part.latency.transfer;
    }
    Some(kept)
}

/// Complete one group's postings phase from the fetched batch's `parts`
/// (every group's): decode each distinct kept part of the group's slice
/// at most once, intersect per atom, and charge the decode work as
/// compute on `trace`. `kept` is [`keep_parts`]'s answer (`None` keeps
/// every part). The caller records the batch itself (a direct `execute`
/// in [`lookup_atoms`], the serving core with its possibly-hedged wait).
/// A group that planned no requests resolves every segment to an empty
/// map.
pub(crate) fn complete_postings(
    plan: &PostingsPlan,
    atoms: &[String],
    parts: &[Fetched],
    kept: Option<&KeptParts>,
    trace: &mut QueryTrace,
) -> Result<SegmentAtomPostings> {
    if plan.parts.is_empty() {
        return Ok(plan.fetch_plan.iter().map(|_| HashMap::new()).collect());
    }
    let parts = &parts[plan.parts.clone()];
    let mask = kept.map(|k| &k.mask[plan.parts.clone()]);

    let compute_start = std::time::Instant::now();
    // Validate each distinct range at most once into a zero-copy
    // [`SuperpostView`] over the fetched bytes — no eager `PostingsList`
    // materialization. Views are shared between atoms (hash collisions)
    // and repeats across the query; atoms then intersect lazily over the
    // views, so the only per-atom allocation is the intersection output.
    let mut decoded: Vec<Option<SuperpostView>> = vec![None; parts.len()];
    for seg_plan in &plan.fetch_plan {
        for (_, indices) in seg_plan {
            for &i in indices {
                if decoded[i].is_none() && mask.is_none_or(|m| m[i]) {
                    decoded[i] = Some(SuperpostView::parse(parts[i].bytes.clone())?);
                }
            }
        }
    }

    let mut out: SegmentAtomPostings = Vec::with_capacity(plan.fetch_plan.len());
    for seg_plan in &plan.fetch_plan {
        let mut map = HashMap::with_capacity(atoms.len());
        for (atom_idx, indices) in seg_plan {
            // Exactly the kept parts were decoded above.
            let mut refs: Vec<&SuperpostView> = Vec::with_capacity(indices.len());
            refs.extend(indices.iter().filter_map(|&i| decoded[i].as_ref()));
            let postings = intersect_views(&refs);
            map.insert(atoms[*atom_idx].clone(), postings);
        }
        out.push(map);
    }
    trace.record_compute(SimDuration::from_secs_f64(
        compute_start.elapsed().as_secs_f64(),
    ));
    Ok(out)
}

/// Send `requests` as one batch through the store every group reads
/// (all segments share one store); `None` when there is nothing to fetch.
fn fetch_batch(groups: &[&[&Searcher]], requests: &[RangeRequest]) -> Result<Option<BatchFetch>> {
    match groups.iter().flat_map(|g| g.iter()).next() {
        Some(segment) if !requests.is_empty() => {
            Ok(Some(segment.store_dyn().get_ranges(requests)?))
        }
        _ => Ok(None),
    }
}

/// Resolve each group's atoms against its segments' MHTs and fetch
/// every group's superposts in a single concurrent batch, recording one
/// [`PhaseKind::Postings`] phase on `trace`. Returns, per group and
/// segment, each atom's intersected postings list over the parts
/// `policy` keeps.
fn lookup_atoms(
    groups: &[&[&Searcher]],
    queries: &[GroupQuery],
    policy: Straggler,
    trace: &mut QueryTrace,
) -> Result<Vec<SegmentAtomPostings>> {
    let mut requests: Vec<RangeRequest> = Vec::new();
    let plans: Vec<PostingsPlan> = groups
        .iter()
        .zip(queries)
        .map(|(segments, q)| plan_postings(segments, &q.atoms, &mut requests))
        .collect();

    // --- Execute: one batch of concurrent ranged reads for everything.
    let batch = fetch_batch(groups, &requests)?;
    let parts = batch.as_ref().map_or(&[][..], |b| &b.parts[..]);
    let kept = keep_parts(&plans, parts, policy);
    // Still one round trip: the stragglers were aborted, not re-requested.
    match (&batch, &kept) {
        (None, _) => {}
        (Some(batch), None) => trace.record_batch(PhaseKind::Postings, batch),
        (Some(_), Some(k)) => {
            trace.record_concurrent(PhaseKind::Postings, k.requests, k.bytes, k.wait, k.download)
        }
    }
    plans
        .iter()
        .zip(queries)
        .map(|(plan, q)| complete_postings(plan, &q.atoms, parts, kept.as_deref(), trace))
        .collect()
}

/// Evaluate `query` over one segment's atom postings.
fn evaluate_segment(query: &Query, atom_postings: &HashMap<String, PostingsList>) -> PostingsList {
    query.evaluate(&|w| atom_postings.get(w).cloned().unwrap_or_default())
}

/// One group's query, rewritten against the group's own vocabularies,
/// and its atoms. Expansion stays per group: a shard's query names only
/// terms that shard holds.
struct GroupQuery<'q> {
    query: Cow<'q, Query>,
    atoms: Vec<String>,
}

/// Expand `query` for every group, in group order.
fn expand_groups<'q>(groups: &[&[&Searcher]], query: &'q Query) -> Result<Vec<GroupQuery<'q>>> {
    groups
        .iter()
        .map(|segments| {
            let query = crate::expand::expand_for_segments(query, segments)?;
            let atoms = query.atoms()?;
            Ok(GroupQuery { query, atoms })
        })
        .collect()
}

/// Index-lookup phase only: plan every group, fetch one superpost batch,
/// evaluate the boolean algebra. Returns the union of every segment's
/// candidate postings and the lookup trace (exactly one round trip).
pub(crate) fn lookup_over(
    groups: &[&[&Searcher]],
    query: &Query,
) -> Result<(PostingsList, QueryTrace)> {
    let queries = expand_groups(groups, query)?;
    let mut trace = QueryTrace::new();
    let maps = lookup_atoms(groups, &queries, Straggler::WaitAll, &mut trace)?;
    let mut out = PostingsList::new();
    for (q, maps) in queries.iter().zip(&maps) {
        for map in maps {
            out.union_with(&evaluate_segment(&q.query, map));
        }
    }
    Ok((out, trace))
}

/// Stage-2 output of the document phase for one group: its slice of the
/// document batch plus which segment each part belongs to, so completion
/// can use the right tokenizer.
pub(crate) struct DocPlan {
    /// This group's parts of the batch: one per surviving candidate, in
    /// segment order.
    parts: Range<usize>,
    /// Owning segment index per part.
    doc_segments: Vec<usize>,
    /// Total candidates across segments before sampling/filtering.
    candidates_total: usize,
}

/// Plan one group's document phase from its resolved atom postings:
/// evaluate the boolean algebra per segment, apply the sampled fetch on
/// the single-keyword + top-k fast path (Equation 6), and append a
/// document range per surviving posting to `requests`.
pub(crate) fn plan_documents(
    segments: &[&Searcher],
    query: &Query,
    opts: &QueryOptions,
    maps: &SegmentAtomPostings,
    requests: &mut Vec<RangeRequest>,
) -> DocPlan {
    let base = requests.len();
    let mut candidates_total = 0usize;
    let mut doc_segments: Vec<usize> = Vec::new();
    for (seg_idx, (searcher, map)) in segments.iter().zip(maps).enumerate() {
        let candidates = evaluate_segment(query, map);
        candidates_total += candidates.len();
        let to_fetch: Vec<Posting> = match (query.as_single_term(), opts.top_k) {
            (Some(word), Some(k)) => {
                let is_common = matches!(searcher.mht().lookup(word), WordLookup::Common(_));
                let f0 = if is_common {
                    0.0
                } else {
                    searcher.expected_fp()
                };
                let delta = opts.delta.unwrap_or_else(|| searcher.topk_delta());
                let rk = sample_size_for_top_k(k, candidates.len(), f0, delta);
                sample_postings(&candidates, rk, seed_for(word))
            }
            _ => candidates.iter().copied().collect(),
        };
        let resolver = searcher.mht().string_table();
        for p in &to_fetch {
            let name = resolver.resolve(p.blob).unwrap_or_default().to_owned();
            requests.push(RangeRequest::new(name, p.offset, p.len as u64));
            doc_segments.push(seg_idx);
        }
    }
    DocPlan {
        parts: base..requests.len(),
        doc_segments,
        candidates_total,
    }
}

/// Complete one group's document phase: run the exact verify pass over
/// its slice of the fetched candidate documents (perfect precision,
/// §III-C) and assemble the group's [`SearchResult`], truncated to
/// `top_k`. `requests` and `parts` are the whole document batch (empty
/// when no group planned a document); the caller records the batch on
/// `trace` before calling (a direct execute and the serving core charge
/// different waits). The result carries no trace: the caller attaches
/// the query's.
///
/// This intentionally does not reuse `retrieval::fetch_and_filter`: that
/// helper issues its own `get_ranges` per call with a single blob
/// resolver, while this pass must keep documents from *all* segments
/// (each with its own string table and tokenizer) in one coalesced
/// batch.
pub(crate) fn complete_documents(
    segments: &[&Searcher],
    query: &Query,
    opts: &QueryOptions,
    plan: &DocPlan,
    requests: &[RangeRequest],
    parts: &[Fetched],
    trace: &mut QueryTrace,
) -> SearchResult {
    let mut hits = Vec::new();
    let mut dropped = 0usize;
    if !plan.parts.is_empty() {
        let filter_start = std::time::Instant::now();
        for ((req, part), &seg_idx) in requests[plan.parts.clone()]
            .iter()
            .zip(&parts[plan.parts.clone()])
            .zip(&plan.doc_segments)
        {
            let text = String::from_utf8_lossy(&part.bytes).into_owned();
            let tokenizer = segments[seg_idx].tokenizer();
            let tokens = tokenizer.tokens(&text);
            if query.matches_tokens(&tokens, &text) {
                hits.push(SearchHit {
                    blob: req.name.clone(),
                    offset: req.offset,
                    len: req.len as u32,
                    text,
                });
            } else {
                dropped += 1;
            }
        }
        trace.record_compute(SimDuration::from_secs_f64(
            filter_start.elapsed().as_secs_f64(),
        ));
    }

    if let Some(k) = opts.top_k {
        hits.truncate(k);
    }
    SearchResult {
        hits,
        trace: QueryTrace::new(),
        candidates: plan.candidates_total,
        false_positives_removed: dropped,
    }
}

/// Full planned execution over groups of segments (one group per shard,
/// or a single group for one index): one superpost batch and one
/// document batch, each covering every group, then boolean evaluation
/// and exact verify per group. Returns each group's result (hits
/// truncated to `top_k` per group, no trace) and the query's one trace
/// (empty unless `opts.capture_trace`).
///
/// This is the synchronous driver over the staged halves
/// ([`plan_postings`]/[`complete_postings`],
/// [`plan_documents`]/[`complete_documents`]); the serving core drives
/// the *same* stages for one group with suspension points between
/// dispatch and completion.
pub(crate) fn execute_over(
    groups: &[&[&Searcher]],
    query: &Query,
    opts: &QueryOptions,
) -> Result<(Vec<SearchResult>, QueryTrace)> {
    // Resolve vocabulary atoms (Prefix/Fuzzy/short Substring) to term
    // unions first; each group's expanded query drives BOTH its postings
    // algebra and its verify pass below, which is what makes expansion
    // exact.
    let queries = expand_groups(groups, query)?;
    let mut trace = QueryTrace::new();
    let maps = lookup_atoms(groups, &queries, opts.straggler, &mut trace)?;

    let mut requests: Vec<RangeRequest> = Vec::new();
    let doc_plans: Vec<DocPlan> = groups
        .iter()
        .zip(&queries)
        .zip(&maps)
        .map(|((segments, q), maps)| plan_documents(segments, &q.query, opts, maps, &mut requests))
        .collect();
    let batch = fetch_batch(groups, &requests)?;
    if let Some(batch) = &batch {
        trace.record_batch(PhaseKind::Documents, batch);
    }
    let parts = batch.as_ref().map_or(&[][..], |b| &b.parts[..]);
    let results = groups
        .iter()
        .zip(&queries)
        .zip(&doc_plans)
        .map(|((segments, q), plan)| {
            complete_documents(segments, &q.query, opts, plan, &requests, parts, &mut trace)
        })
        .collect();
    if !opts.capture_trace {
        trace = QueryTrace::new();
    }
    Ok((results, trace))
}

/// [`execute_over`] for a single group: its result, carrying the trace.
pub(crate) fn execute_single(
    segments: &[&Searcher],
    query: &Query,
    opts: &QueryOptions,
) -> Result<SearchResult> {
    let (mut results, trace) = execute_over(&[segments], query, opts)?;
    let mut result = results.pop().expect("one result per group");
    result.trace = trace;
    Ok(result)
}

/// Generic executor for engines without a coalescing planner (the
/// baselines): resolve each atom through the engine's own `lookup` —
/// paying whatever round-trip structure that index imposes — then
/// evaluate the algebra and run one fetch-and-filter verify pass.
///
/// `exact_postings` marks engines whose postings carry no false
/// positives (B-tree, skip list); for a bare top-k term query they may
/// fetch just the first `k` candidates.
pub fn execute_with_lookup(
    lookup: &dyn Fn(&str) -> Result<(PostingsList, QueryTrace)>,
    store: &dyn ObjectStore,
    resolver: &dyn BlobResolver,
    tokenizer: &dyn Tokenizer,
    exact_postings: bool,
    query: &Query,
    opts: &QueryOptions,
) -> Result<SearchResult> {
    let atoms = query.atoms()?;
    let mut trace = QueryTrace::new();
    let mut atom_postings: HashMap<String, PostingsList> = HashMap::with_capacity(atoms.len());
    let mut atom_traces: Vec<QueryTrace> = Vec::with_capacity(atoms.len());
    for atom in &atoms {
        let (list, t) = lookup(atom)?;
        atom_traces.push(t);
        atom_postings.insert(atom.clone(), list);
    }
    // Per-atom lookups carry no data dependency on each other, so a real
    // client issues them concurrently: their waits overlap (max) while
    // each atom's internal chain of dependent reads keeps its depth —
    // the same convention `QueryTrace::merge_parallel` applies to
    // segment fan-out. The baseline still pays its per-atom hierarchy;
    // it just isn't additionally serialized across atoms.
    trace.extend(&QueryTrace::merge_parallel(&atom_traces));
    let candidates = evaluate_segment(query, &atom_postings);

    let mut to_fetch: Vec<Posting> = candidates.iter().copied().collect();
    if exact_postings && query.as_single_term().is_some() {
        if let Some(k) = opts.top_k {
            to_fetch.truncate(k);
        }
    }
    let predicate = |text: &str| {
        let tokens = tokenizer.tokens(text);
        query.matches_tokens(&tokens, text)
    };
    let (mut hits, dropped) =
        crate::retrieval::fetch_and_filter(store, resolver, &to_fetch, &predicate, &mut trace)?;
    if let Some(k) = opts.top_k {
        hits.truncate(k);
    }
    Ok(SearchResult {
        hits,
        trace: if opts.capture_trace {
            trace
        } else {
            QueryTrace::new()
        },
        candidates: candidates.len(),
        false_positives_removed: dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::config::AirphantConfig;
    use airphant_corpus::{Corpus, LineSplitter, NgramTokenizer, WhitespaceTokenizer};
    use airphant_storage::{InMemoryStore, LatencyModel, SimulatedCloudStore};
    use bytes::Bytes;
    use std::sync::Arc;

    fn build(lines: &[&str]) -> (Arc<InMemoryStore>, Searcher) {
        let inner = Arc::new(InMemoryStore::new());
        let store: Arc<dyn ObjectStore> = inner.clone();
        store.put("c/b", Bytes::from(lines.join("\n"))).unwrap();
        let corpus = Corpus::new(
            store.clone(),
            vec!["c/b".into()],
            Arc::new(LineSplitter),
            Arc::new(WhitespaceTokenizer),
        );
        Builder::new(
            AirphantConfig::default()
                .with_total_bins(128)
                .with_manual_layers(2)
                .with_common_fraction(0.0),
        )
        .build(&corpus, "idx")
        .unwrap();
        let searcher = Searcher::open(store, "idx").unwrap();
        (inner, searcher)
    }

    fn texts(r: &SearchResult) -> Vec<&str> {
        let mut v: Vec<&str> = r.hits.iter().map(|h| h.text.as_str()).collect();
        v.sort();
        v
    }

    #[test]
    fn compound_query_is_one_lookup_round_trip() {
        let (_, searcher) = build(&[
            "error disk sda",
            "error network eth0",
            "warn disk sdb",
            "info all good",
        ]);
        let query = Query::all([Query::term("error"), Query::term("disk")]);
        let r = searcher.execute(&query, &QueryOptions::new()).unwrap();
        assert_eq!(texts(&r), vec!["error disk sda"]);
        assert_eq!(
            r.trace.round_trips_of(PhaseKind::Postings),
            1,
            "all terms' superposts in one batch"
        );
        assert_eq!(r.trace.round_trips(), 2, "lookup batch + document batch");
    }

    #[test]
    fn planner_batch_matches_store_accounting() {
        let inner = InMemoryStore::new();
        let store = Arc::new(SimulatedCloudStore::new(
            inner,
            LatencyModel::gcs_like(),
            11,
        ));
        {
            let s: Arc<dyn ObjectStore> = store.clone();
            s.put(
                "c/b",
                Bytes::from_static(b"alpha beta gamma\nbeta gamma delta\ngamma delta"),
            )
            .unwrap();
            let corpus = Corpus::new(
                s.clone(),
                vec!["c/b".into()],
                Arc::new(LineSplitter),
                Arc::new(WhitespaceTokenizer),
            );
            Builder::new(
                AirphantConfig::default()
                    .with_total_bins(64)
                    .with_manual_layers(3)
                    .with_common_fraction(0.0),
            )
            .build(&corpus, "idx")
            .unwrap();
        }
        let searcher = Searcher::open(store.clone(), "idx").unwrap();
        store.reset_stats();
        let query = Query::all([
            Query::term("alpha"),
            Query::term("beta"),
            Query::any([Query::term("gamma"), Query::term("delta")]),
        ]);
        let (postings, trace) = searcher.execute_lookup(&query).unwrap();
        let stats = store.stats();
        assert_eq!(stats.batches, 1, "planner issues exactly one batch");
        assert_eq!(trace.round_trips(), 1);
        assert!(!postings.is_empty());
        // Four distinct sketched atoms x 3 layers, minus any shared bins.
        assert!(stats.read_requests <= 12);
        assert!(stats.read_requests >= 3);
    }

    #[test]
    fn shared_bins_are_fetched_once() {
        // One term queried under two names that collide into the same bins
        // would be pathological to arrange; instead assert the dedup path
        // directly: the same term twice in the AST plans no extra reads.
        let (_, searcher) = build(&["x y", "y z"]);
        let single = searcher.execute_lookup(&Query::term("y")).unwrap().1;
        let double = searcher
            .execute_lookup(&Query::any([Query::term("y"), Query::term("y")]))
            .unwrap()
            .1;
        assert_eq!(single.requests(), double.requests());
    }

    #[test]
    fn substring_inside_boolean_query() {
        let (_, _) = build(&["unused"]);
        // N-gram index for substring + term mixing.
        let inner = Arc::new(InMemoryStore::new());
        let store: Arc<dyn ObjectStore> = inner.clone();
        store
            .put(
                "c/b",
                Bytes::from_static(b"blk_12345 received\nblk_99 deleted\npacket drop"),
            )
            .unwrap();
        let corpus = Corpus::new(
            store.clone(),
            vec!["c/b".into()],
            Arc::new(LineSplitter),
            Arc::new(NgramTokenizer::new(3)),
        );
        Builder::new(
            AirphantConfig::default()
                .with_total_bins(256)
                .with_manual_layers(2)
                .with_common_fraction(0.0),
        )
        .build(&corpus, "ng")
        .unwrap();
        let searcher =
            Searcher::open_with_tokenizer(store, "ng", Arc::new(NgramTokenizer::new(3))).unwrap();
        let q = Query::all([Query::substring("blk_", 3), Query::substring("received", 3)]);
        let r = searcher.execute(&q, &QueryOptions::new()).unwrap();
        assert_eq!(r.hits.len(), 1);
        assert!(r.hits[0].text.contains("blk_12345"));
        assert_eq!(r.trace.round_trips_of(PhaseKind::Postings), 1);
    }

    #[test]
    fn pattern_too_short_is_typed_without_gram_fallback() {
        // A whitespace index has no gram layer to fall back to, so the
        // legacy typed error stands even though the segment has a
        // vocabulary.
        let (_, searcher) = build(&["hello world"]);
        let err = searcher
            .execute(&Query::substring("he", 3), &QueryOptions::new())
            .unwrap_err();
        assert!(matches!(
            err,
            crate::AirphantError::PatternTooShort { ref pattern, n: 3 } if pattern == "he"
        ));
    }

    #[test]
    fn short_pattern_falls_back_to_vocabulary_on_gram_index() {
        let inner = Arc::new(InMemoryStore::new());
        let store: Arc<dyn ObjectStore> = inner.clone();
        store
            .put(
                "c/b",
                Bytes::from_static(b"blk_12345 received\nblk_99 deleted\npacket drop"),
            )
            .unwrap();
        let corpus = Corpus::new(
            store.clone(),
            vec!["c/b".into()],
            Arc::new(LineSplitter),
            Arc::new(NgramTokenizer::new(3)),
        );
        Builder::new(
            AirphantConfig::default()
                .with_total_bins(256)
                .with_manual_layers(2)
                .with_common_fraction(0.0),
        )
        .build(&corpus, "ng")
        .unwrap();
        let searcher =
            Searcher::open_with_tokenizer(store, "ng", Arc::new(NgramTokenizer::new(3))).unwrap();
        // "99" is shorter than the gram size; the vocabulary scan resolves
        // it through the grams that contain it.
        let r = searcher
            .execute(&Query::substring("99", 3), &QueryOptions::new())
            .unwrap();
        assert_eq!(r.hits.len(), 1);
        assert!(r.hits[0].text.contains("blk_99"));
        assert_eq!(r.trace.round_trips_of(PhaseKind::Postings), 1);
        // No match anywhere still answers cleanly (empty, not an error).
        let none = searcher
            .execute(&Query::substring("zq", 3), &QueryOptions::new())
            .unwrap();
        assert!(none.hits.is_empty());
    }

    #[test]
    fn options_trace_capture_toggle() {
        let (_, searcher) = build(&["a b", "b c"]);
        let on = searcher
            .execute(&Query::term("b"), &QueryOptions::new())
            .unwrap();
        assert!(on.trace.requests() > 0);
        let off = searcher
            .execute(&Query::term("b"), &QueryOptions::new().without_trace())
            .unwrap();
        assert_eq!(off.trace.requests(), 0);
        assert_eq!(texts(&on), texts(&off));
    }

    #[test]
    fn empty_query_shapes_return_empty() {
        let (_, searcher) = build(&["a b"]);
        for q in [Query::And(vec![]), Query::Or(vec![]), Query::Phrase(vec![])] {
            let r = searcher.execute(&q, &QueryOptions::new()).unwrap();
            assert!(r.hits.is_empty(), "{q:?} must match nothing");
            assert_eq!(r.trace.round_trips(), 0, "no atoms, no storage traffic");
        }
    }

    // --- Boolean-algebra behavior, migrated from the pre-0.3 shim
    // modules (`search_boolean`/`search_substring` are gone; the engine
    // surface is `execute` only).

    fn boolean_searcher() -> Searcher {
        build(&[
            "error disk",
            "error network",
            "warn disk",
            "info startup",
            "error disk network",
        ])
        .1
    }

    #[test]
    fn and_intersects_or_unions_dnf_composes() {
        let s = boolean_searcher();
        let r = s
            .execute(
                &Query::all([Query::term("error"), Query::term("disk")]),
                &QueryOptions::new(),
            )
            .unwrap();
        assert_eq!(texts(&r), vec!["error disk", "error disk network"]);
        let r = s
            .execute(
                &Query::any([Query::term("warn"), Query::term("info")]),
                &QueryOptions::new(),
            )
            .unwrap();
        assert_eq!(texts(&r), vec!["info startup", "warn disk"]);
        // (error AND network) OR (warn AND disk)
        let q = Query::term("error")
            .and(Query::term("network"))
            .or(Query::term("warn").and(Query::term("disk")));
        let r = s.execute(&q, &QueryOptions::new()).unwrap();
        assert_eq!(
            texts(&r),
            vec!["error disk network", "error network", "warn disk"]
        );
    }

    #[test]
    fn unknown_terms_resolve_empty() {
        let s = boolean_searcher();
        let q = Query::all([Query::term("error"), Query::term("zzz-missing")]);
        assert!(s.execute(&q, &QueryOptions::new()).unwrap().hits.is_empty());
        // OR with a missing term degrades gracefully.
        let q = Query::any([Query::term("info"), Query::term("zzz-missing")]);
        let r = s.execute(&q, &QueryOptions::new()).unwrap();
        assert_eq!(texts(&r), vec!["info startup"]);
    }

    #[test]
    fn empty_and_under_or_keeps_perfect_precision() {
        // Regression: Or([And([]), term]) must behave exactly like the
        // bare term — no false positives admitted by the empty group.
        let s = boolean_searcher();
        let bare = s.search("error", None).unwrap();
        let wrapped = s
            .execute(
                &Query::any([Query::And(vec![]), Query::term("error")]),
                &QueryOptions::new(),
            )
            .unwrap();
        assert_eq!(texts(&bare), texts(&wrapped));
    }

    fn ngram_searcher(lines: &[&str]) -> Searcher {
        let inner = Arc::new(InMemoryStore::new());
        let store: Arc<dyn ObjectStore> = inner.clone();
        store.put("c/ng", Bytes::from(lines.join("\n"))).unwrap();
        let corpus = Corpus::new(
            store.clone(),
            vec!["c/ng".into()],
            Arc::new(LineSplitter),
            Arc::new(NgramTokenizer::new(3)),
        );
        Builder::new(
            AirphantConfig::default()
                .with_total_bins(512)
                .with_manual_layers(2)
                .with_common_fraction(0.0),
        )
        .build(&corpus, "ngx")
        .unwrap();
        Searcher::open_with_tokenizer(store, "ngx", Arc::new(NgramTokenizer::new(3))).unwrap()
    }

    #[test]
    fn substring_spans_word_boundaries_case_insensitively() {
        let s = ngram_searcher(&[
            "PacketResponder terminating",
            "block blk_12345 received",
            "NameSystem.addStoredBlock updated",
        ]);
        let r = s
            .execute(&Query::substring("blk_123", 3), &QueryOptions::new())
            .unwrap();
        assert_eq!(r.hits.len(), 1);
        assert!(r.hits[0].text.contains("blk_12345"));
        // Substring spanning a space, with case folding.
        let r = s
            .execute(&Query::substring("Responder TERM", 3), &QueryOptions::new())
            .unwrap();
        assert_eq!(r.hits.len(), 1);
        // Absent pattern answers empty, not an error.
        let r = s
            .execute(&Query::substring("zzzzzz", 3), &QueryOptions::new())
            .unwrap();
        assert!(r.hits.is_empty());
    }

    #[test]
    fn substring_verify_drops_gram_sharing_decoys() {
        // Document "xabay babx" contains both grams of "abab" ({aba, bab})
        // without containing "abab": the verify pass must drop it.
        let s = ngram_searcher(&["xabay babx", "the abab string"]);
        let r = s
            .execute(&Query::substring("abab", 3), &QueryOptions::new())
            .unwrap();
        assert_eq!(r.hits.len(), 1);
        assert!(r.hits[0].text.contains("abab"));
        assert!(
            r.false_positives_removed >= 1,
            "the gram-sharing decoy must have been filtered"
        );
    }

    #[test]
    fn prefix_and_fuzzy_execute_in_one_postings_batch() {
        let (_, s) = build(&[
            "typeahead rocks",
            "typed queries",
            "typo happens",
            "unrelated line",
        ]);
        let r = s
            .execute(&Query::prefix("typ"), &QueryOptions::new())
            .unwrap();
        assert_eq!(
            texts(&r),
            vec!["typeahead rocks", "typed queries", "typo happens"]
        );
        assert_eq!(
            r.trace.round_trips_of(PhaseKind::Postings),
            1,
            "expansion still pays exactly one postings batch"
        );
        let r = s
            .execute(&Query::fuzzy("tipo", 1), &QueryOptions::new())
            .unwrap();
        assert_eq!(texts(&r), vec!["typo happens"]);
        assert_eq!(r.trace.round_trips_of(PhaseKind::Postings), 1);
    }

    #[test]
    fn prefix_without_vocabulary_is_unsupported() {
        // A v1-format build carries no vocabulary section.
        let inner = Arc::new(InMemoryStore::new());
        let store: Arc<dyn ObjectStore> = inner.clone();
        store.put("c/b", Bytes::from_static(b"alpha beta")).unwrap();
        let corpus = Corpus::new(
            store.clone(),
            vec!["c/b".into()],
            Arc::new(LineSplitter),
            Arc::new(WhitespaceTokenizer),
        );
        Builder::new(
            AirphantConfig::default()
                .with_total_bins(64)
                .with_format(iou_sketch::FormatVersion::V1),
        )
        .build(&corpus, "v1idx")
        .unwrap();
        let s = Searcher::open(store, "v1idx").unwrap();
        let err = s
            .execute(&Query::prefix("al"), &QueryOptions::new())
            .unwrap_err();
        assert!(
            matches!(err, crate::AirphantError::UnsupportedQuery { .. }),
            "got {err:?}"
        );
        // Exact terms still answer on the same v1 segment.
        let r = s
            .execute(&Query::term("alpha"), &QueryOptions::new())
            .unwrap();
        assert_eq!(r.hits.len(), 1);
    }
}
