//! The unified query AST — the single entry point for every kind of
//! lookup Airphant supports.
//!
//! A [`Query`] describes the *whole* predicate up front, which lets the
//! planner ([`crate::plan`]) resolve every term's and gram's superpost
//! pointers from the in-memory MHT and fetch them all in **one**
//! concurrent batch — the paper's single-batch guarantee (§III-C),
//! extended from single keywords to arbitrary boolean/phrase/substring
//! compositions.
//!
//! Semantics follow §IV-F: the query function distributes over the
//! predicate, `Q(⋁_i ⋀_j w_ij) = ⋃_i ⋂_j Q(w_ij)`; substring predicates
//! use the trigram filter-then-verify pipeline; the final document filter
//! restores exactness either way. [`Query::Prefix`] and [`Query::Fuzzy`]
//! atoms are rewritten by the engine into term unions against the
//! segment vocabulary (see `crate::expand`) before planning, so they ride
//! the same single batch.

use crate::error::AirphantError;
use airphant_corpus::{NgramTokenizer, Tokenizer};
use airphant_storage::SimDuration;
use iou_sketch::{levenshtein_within, PostingsList};

/// A composable search predicate.
///
/// The enum is `#[non_exhaustive]`: construct queries through the
/// [`Query::term`]-style constructors and combine them with the fluent
/// [`Query::and`]/[`Query::or`] methods (or the [`Query::all`]/
/// [`Query::any`] variadic forms), and always match with a wildcard arm —
/// future atom kinds are additive, not breaking.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Query {
    /// A single keyword (exact token match under the index's tokenizer).
    Term(String),
    /// All words must occur in the document. Evaluated as a conjunction
    /// (the index stores no positions, so a phrase is its word-set AND;
    /// the document filter still sees the full text).
    Phrase(Vec<String>),
    /// All sub-queries must match.
    And(Vec<Query>),
    /// Any sub-query may match.
    Or(Vec<Query>),
    /// The document text contains `pattern` as a case-insensitive
    /// substring. Requires the index to have been built with an
    /// [`NgramTokenizer`] of size `n`; the planner prefilters on the
    /// pattern's `n`-grams and the verify pass does the exact match.
    /// Patterns shorter than `n` fall back to a vocabulary scan when the
    /// segment carries one (see [`Query::Prefix`] for the vocabulary).
    Substring {
        /// The literal substring to find.
        pattern: String,
        /// The gram size the index was built with.
        n: usize,
    },
    /// Some token of the document starts with `term` (exact bytes, no
    /// case folding — like [`Query::Term`]). Resolved against the segment
    /// vocabulary's sorted term list in `O(m log V)` and expanded to the
    /// union of matching terms; requires a vocabulary-bearing (v2)
    /// segment, else [`AirphantError::UnsupportedQuery`].
    Prefix {
        /// The prefix the token must start with.
        term: String,
    },
    /// Some token of the document is within `max_edits` Levenshtein
    /// distance of `term`. Resolved by a Levenshtein-automaton walk over
    /// the segment vocabulary and expanded to the union of matching
    /// terms; requires a vocabulary-bearing (v2) segment.
    Fuzzy {
        /// The target word.
        term: String,
        /// Maximum Levenshtein distance (insert/delete/substitute).
        max_edits: u32,
    },
}

impl Query {
    /// A single-keyword query.
    pub fn term(word: impl Into<String>) -> Self {
        Query::Term(word.into())
    }

    /// A phrase query (conjunction of its words).
    pub fn phrase<I, S>(words: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Query::Phrase(words.into_iter().map(Into::into).collect())
    }

    /// Conjunction of sub-queries (variadic form; see also the fluent
    /// [`Query::and`]).
    pub fn all(queries: impl IntoIterator<Item = Query>) -> Self {
        Query::And(queries.into_iter().collect())
    }

    /// Disjunction of sub-queries (variadic form; see also the fluent
    /// [`Query::or`]).
    pub fn any(queries: impl IntoIterator<Item = Query>) -> Self {
        Query::Or(queries.into_iter().collect())
    }

    /// A literal-substring query over an `n`-gram index. Matching is
    /// case-insensitive, so the pattern is stored case-folded (a
    /// directly constructed [`Query::Substring`] with uppercase letters
    /// behaves identically, just without the pre-folding).
    pub fn substring(pattern: impl Into<String>, n: usize) -> Self {
        Query::Substring {
            pattern: pattern.into().to_ascii_lowercase(),
            n,
        }
    }

    /// A prefix query: matches documents with a token starting with
    /// `term`. No case folding — prefixes compare exact bytes against the
    /// vocabulary, like [`Query::term`].
    pub fn prefix(term: impl Into<String>) -> Self {
        Query::Prefix { term: term.into() }
    }

    /// A fuzzy query: matches documents with a token within `max_edits`
    /// Levenshtein distance of `term`. No case folding.
    pub fn fuzzy(term: impl Into<String>, max_edits: u32) -> Self {
        Query::Fuzzy {
            term: term.into(),
            max_edits,
        }
    }

    /// Fluent conjunction: `a.and(b)` ≡ `Query::all([a, b])`, flattening
    /// a left-hand `And` so chains stay shallow.
    pub fn and(self, other: impl Into<Query>) -> Self {
        match self {
            Query::And(mut qs) => {
                qs.push(other.into());
                Query::And(qs)
            }
            q => Query::And(vec![q, other.into()]),
        }
    }

    /// Fluent disjunction: `a.or(b)` ≡ `Query::any([a, b])`, flattening a
    /// left-hand `Or`.
    pub fn or(self, other: impl Into<Query>) -> Self {
        match self {
            Query::Or(mut qs) => {
                qs.push(other.into());
                Query::Or(qs)
            }
            q => Query::Or(vec![q, other.into()]),
        }
    }

    /// Start a [`QueryBuilder`] with this query and a top-k bound:
    /// `Query::term("x").and(Query::prefix("ty")).top_k(10)`.
    pub fn top_k(self, k: usize) -> QueryBuilder {
        QueryBuilder::from(self).top_k(k)
    }

    /// Start a [`QueryBuilder`] with this query and explicit options.
    pub fn with_options(self, opts: QueryOptions) -> QueryBuilder {
        QueryBuilder { query: self, opts }
    }

    /// All distinct keyword terms mentioned by the query (Term and Phrase
    /// words), in first-appearance order. Substring grams are not terms;
    /// see [`Query::atoms`].
    pub fn terms(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out
    }

    fn collect_terms<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Query::Term(w) => {
                if !out.contains(&w.as_str()) {
                    out.push(w);
                }
            }
            Query::Phrase(ws) => {
                for w in ws {
                    if !out.contains(&w.as_str()) {
                        out.push(w);
                    }
                }
            }
            Query::And(qs) | Query::Or(qs) => {
                for q in qs {
                    q.collect_terms(out);
                }
            }
            Query::Substring { .. } | Query::Prefix { .. } | Query::Fuzzy { .. } => {}
        }
    }

    /// Every distinct index lookup key the query needs — terms, phrase
    /// words, and substring grams — in first-appearance order. This is the
    /// planner's fetch list: resolving each atom's superpost pointers and
    /// batching them is what keeps any query at one lookup round trip.
    ///
    /// Fails with [`AirphantError::PatternTooShort`] if a substring
    /// pattern is shorter than its gram size (it could not be prefiltered
    /// and would silently degrade to a full scan).
    pub fn atoms(&self) -> crate::Result<Vec<String>> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out)?;
        Ok(out)
    }

    fn collect_atoms(&self, out: &mut Vec<String>) -> crate::Result<()> {
        let push = |w: &str, out: &mut Vec<String>| {
            if !out.iter().any(|have| have == w) {
                out.push(w.to_owned());
            }
        };
        match self {
            Query::Term(w) => push(w, out),
            Query::Phrase(ws) => {
                for w in ws {
                    push(w, out);
                }
            }
            Query::And(qs) | Query::Or(qs) => {
                for q in qs {
                    q.collect_atoms(out)?;
                }
            }
            Query::Substring { pattern, n } => {
                for gram in substring_grams(pattern, *n)? {
                    push(&gram, out);
                }
            }
            Query::Prefix { term } => {
                return Err(AirphantError::UnsupportedQuery {
                    reason: format!(
                        "prefix atom {term:?} must be expanded against an index vocabulary \
                         before planning"
                    ),
                })
            }
            Query::Fuzzy { term, .. } => {
                return Err(AirphantError::UnsupportedQuery {
                    reason: format!(
                        "fuzzy atom {term:?} must be expanded against an index vocabulary \
                         before planning"
                    ),
                })
            }
        }
        Ok(())
    }

    /// Whether the engine must rewrite this query against the segment
    /// vocabulary before planning: any Prefix or Fuzzy node, or a
    /// Substring whose pattern is shorter than its gram size (but not
    /// empty — empty patterns stay a typed [`AirphantError::PatternTooShort`]).
    pub(crate) fn needs_expansion(&self) -> bool {
        match self {
            Query::Prefix { .. } | Query::Fuzzy { .. } => true,
            Query::Substring { pattern, n } => {
                let m = pattern.chars().count();
                m > 0 && m < *n
            }
            Query::And(qs) | Query::Or(qs) => qs.iter().any(Query::needs_expansion),
            Query::Term(_) | Query::Phrase(_) => false,
        }
    }

    /// Evaluate the query over per-atom postings (the `⋃⋂Q(w)` identity).
    /// Unknown atoms resolve to the empty list. Substring patterns too
    /// short to carry grams evaluate to the empty list (use
    /// [`Query::atoms`] up front for the typed error).
    pub fn evaluate(&self, postings_of: &dyn Fn(&str) -> PostingsList) -> PostingsList {
        match self {
            Query::Term(w) => postings_of(w),
            Query::Phrase(ws) => intersect_words(ws.iter().map(String::as_str), postings_of),
            Query::And(qs) => {
                let mut lists = qs.iter().map(|q| q.evaluate(postings_of));
                let first = lists.next().unwrap_or_default();
                lists.fold(first, |acc, l| {
                    if acc.is_empty() {
                        acc
                    } else {
                        acc.intersect(&l)
                    }
                })
            }
            Query::Or(qs) => qs
                .iter()
                .map(|q| q.evaluate(postings_of))
                .fold(PostingsList::new(), |acc, l| acc.union(&l)),
            Query::Substring { pattern, n } => match substring_grams(pattern, *n) {
                Ok(grams) => intersect_words(grams.iter().map(String::as_str), postings_of),
                Err(_) => PostingsList::new(),
            },
            // Unexpanded vocabulary atoms carry no index keys; like
            // too-short substrings they evaluate empty (atoms() reports
            // the typed error up front).
            Query::Prefix { .. } | Query::Fuzzy { .. } => PostingsList::new(),
        }
    }

    /// Whether a document satisfies the query, given its exact word set
    /// and raw text. This is the verify-phase predicate that restores
    /// perfect precision after the statistical prefilter.
    ///
    /// [`Query::Prefix`] and [`Query::Fuzzy`] need the document's *token
    /// list*, which a membership oracle cannot enumerate — they match
    /// nothing through this view. Use [`Query::matches_tokens`] when the
    /// tokens are at hand (the engine always verifies with the expanded
    /// query, so it never hits this limitation).
    pub fn matches_doc(&self, has_word: &dyn Fn(&str) -> bool, text: &str) -> bool {
        // The case-folded text is shared across every Substring node of
        // the AST and only computed when one is actually reached.
        let mut lowered: Option<String> = None;
        self.matches_inner(has_word, None, text, &mut lowered)
    }

    /// Whether a document satisfies the query, given its token list and
    /// raw text — the full-semantics predicate, covering Prefix and Fuzzy
    /// atoms too. This is what linear-scan oracles should use.
    pub fn matches_tokens(&self, tokens: &[String], text: &str) -> bool {
        let has_word = |w: &str| tokens.iter().any(|t| t == w);
        let mut lowered: Option<String> = None;
        self.matches_inner(&has_word, Some(tokens), text, &mut lowered)
    }

    fn matches_inner(
        &self,
        has_word: &dyn Fn(&str) -> bool,
        tokens: Option<&[String]>,
        text: &str,
        lowered: &mut Option<String>,
    ) -> bool {
        match self {
            Query::Term(w) => has_word(w),
            // Empty groups match NOTHING, mirroring `evaluate` (which
            // resolves them to the empty postings list). Were an empty
            // AND vacuously true here, `Or([And([]), term])` would let
            // every sketch false positive through the verify pass.
            Query::Phrase(ws) => !ws.is_empty() && ws.iter().all(|w| has_word(w)),
            Query::And(qs) => {
                !qs.is_empty()
                    && qs
                        .iter()
                        .all(|q| q.matches_inner(has_word, tokens, text, lowered))
            }
            Query::Or(qs) => qs
                .iter()
                .any(|q| q.matches_inner(has_word, tokens, text, lowered)),
            Query::Substring { pattern, .. } => {
                let text_l = lowered.get_or_insert_with(|| text.to_ascii_lowercase());
                if pattern.bytes().any(|b| b.is_ascii_uppercase()) {
                    text_l.contains(&pattern.to_ascii_lowercase())
                } else {
                    text_l.contains(pattern.as_str())
                }
            }
            Query::Prefix { term } => tokens
                .map(|ts| ts.iter().any(|t| t.starts_with(term.as_str())))
                .unwrap_or(false),
            Query::Fuzzy { term, max_edits } => tokens
                .map(|ts| ts.iter().any(|t| levenshtein_within(term, t, *max_edits)))
                .unwrap_or(false),
        }
    }

    /// Whether any node of the query is a [`Query::Substring`].
    pub fn has_substring(&self) -> bool {
        match self {
            Query::Substring { .. } => true,
            Query::And(qs) | Query::Or(qs) => qs.iter().any(Query::has_substring),
            _ => false,
        }
    }

    /// The single word of a bare `Term` query, if that is the whole query.
    /// (The planner uses this to keep the legacy top-k sampled fetch on
    /// the single-keyword fast path.)
    pub fn as_single_term(&self) -> Option<&str> {
        match self {
            Query::Term(w) => Some(w),
            _ => None,
        }
    }
}

impl From<&str> for Query {
    /// A bare string is a [`Query::term`] — lets fluent chains read as
    /// `Query::term("error").and("disk")`.
    fn from(word: &str) -> Self {
        Query::term(word)
    }
}

impl From<String> for Query {
    fn from(word: String) -> Self {
        Query::term(word)
    }
}

fn intersect_words<'a>(
    words: impl Iterator<Item = &'a str>,
    postings_of: &dyn Fn(&str) -> PostingsList,
) -> PostingsList {
    let mut acc: Option<PostingsList> = None;
    for w in words {
        let next = match acc {
            Some(prev) if prev.is_empty() => return prev,
            Some(prev) => prev.intersect(&postings_of(w)),
            None => postings_of(w),
        };
        acc = Some(next);
    }
    acc.unwrap_or_default()
}

/// The distinct, sorted `n`-grams of a substring pattern, or
/// [`AirphantError::PatternTooShort`] when the pattern cannot be
/// prefiltered (`pattern` shorter than `n`, or `n == 0`).
pub(crate) fn substring_grams(pattern: &str, n: usize) -> crate::Result<Vec<String>> {
    if n == 0 || pattern.chars().count() < n {
        return Err(AirphantError::PatternTooShort {
            pattern: pattern.to_owned(),
            n,
        });
    }
    let mut grams = NgramTokenizer::new(n).tokens(pattern);
    grams.sort_unstable();
    grams.dedup();
    debug_assert!(!grams.is_empty(), "pattern of >= n chars yields grams");
    Ok(grams)
}

/// Straggler mitigation for the postings batch (§IV-G).
///
/// The planner always issues every superpost request in one concurrent
/// batch; the policy only decides which of the returned parts the query
/// waits for. Dropping a layer keeps recall (an intersection over fewer
/// layers is a superset) and only admits more candidates for the verify
/// pass to filter. See `docs/adr/011-straggler-policy.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Straggler {
    /// Wait for every layer (the paper's default lookup).
    #[default]
    WaitAll,
    /// Per atom and segment, keep the `k` (at least one) layers whose
    /// first byte arrives first — useful on an index built with spare
    /// layers ([`crate::AirphantConfig::with_overprovision`]).
    Fastest(usize),
    /// Per atom and segment, keep the layers whose first byte arrives
    /// within the timeout; when none does, keep the single fastest one.
    Timeout(SimDuration),
}

/// Per-query execution options.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOptions {
    /// Return at most this many hits. For single-term queries the planner
    /// uses the paper's sampled fetch (Equation 6) to pull far fewer
    /// candidate documents; compound queries fetch all candidates and
    /// truncate after the verify pass.
    pub top_k: Option<usize>,
    /// Override the index's top-K failure probability δ (Equation 6).
    pub delta: Option<f64>,
    /// Capture the per-phase latency trace (on by default). When off, the
    /// returned [`crate::SearchResult::trace`] is empty.
    pub capture_trace: bool,
    /// Which postings parts the query waits for (default: all of them).
    pub straggler: Straggler,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            top_k: None,
            delta: None,
            capture_trace: true,
            straggler: Straggler::WaitAll,
        }
    }
}

impl QueryOptions {
    /// Default options (no top-k bound, trace captured).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the result set to `k` hits.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Set an optional top-k bound (`None` keeps all hits).
    pub fn with_top_k(mut self, k: Option<usize>) -> Self {
        self.top_k = k;
        self
    }

    /// Override the sampling failure probability δ.
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Skip trace capture.
    pub fn without_trace(mut self) -> Self {
        self.capture_trace = false;
        self
    }

    /// Set an optional δ override (`None` keeps the index default).
    pub fn with_delta(mut self, delta: Option<f64>) -> Self {
        self.delta = delta;
        self
    }

    /// Set trace capture explicitly.
    pub fn with_trace(mut self, capture: bool) -> Self {
        self.capture_trace = capture;
        self
    }

    /// Set the straggler policy for the postings batch.
    pub fn straggler(mut self, policy: Straggler) -> Self {
        self.straggler = policy;
        self
    }
}

/// A query paired with its execution options, built fluently:
///
/// ```
/// use airphant::{Query, QueryBuilder};
/// let built = Query::term("error").and(Query::prefix("dis")).top_k(10);
/// let (query, opts) = built.into_parts();
/// assert_eq!(opts.top_k, Some(10));
/// assert!(matches!(query, Query::And(_)));
/// ```
///
/// Pass the parts to any engine's `execute(&query, &opts)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBuilder {
    query: Query,
    opts: QueryOptions,
}

impl QueryBuilder {
    /// Wrap a query with default options.
    pub fn new(query: impl Into<Query>) -> Self {
        QueryBuilder {
            query: query.into(),
            opts: QueryOptions::new(),
        }
    }

    /// AND another predicate onto the query.
    pub fn and(mut self, other: impl Into<Query>) -> Self {
        self.query = self.query.and(other);
        self
    }

    /// OR another predicate onto the query.
    pub fn or(mut self, other: impl Into<Query>) -> Self {
        self.query = self.query.or(other);
        self
    }

    /// Bound the result set to `k` hits.
    pub fn top_k(mut self, k: usize) -> Self {
        self.opts = self.opts.top_k(k);
        self
    }

    /// Override the sampling failure probability δ.
    pub fn delta(mut self, delta: f64) -> Self {
        self.opts = self.opts.delta(delta);
        self
    }

    /// Skip trace capture.
    pub fn without_trace(mut self) -> Self {
        self.opts = self.opts.without_trace();
        self
    }

    /// The query built so far.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The options built so far.
    pub fn options(&self) -> &QueryOptions {
        &self.opts
    }

    /// Split into the `(query, options)` pair engines execute.
    pub fn into_parts(self) -> (Query, QueryOptions) {
        (self.query, self.opts)
    }
}

impl From<Query> for QueryBuilder {
    fn from(query: Query) -> Self {
        QueryBuilder::new(query)
    }
}

impl From<QueryBuilder> for Query {
    fn from(b: QueryBuilder) -> Self {
        b.query
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iou_sketch::PostingsList;

    #[test]
    fn constructors_build_expected_shapes() {
        let q = Query::all([
            Query::term("a"),
            Query::any([Query::term("b"), Query::phrase(["c", "d"])]),
            Query::substring("abc", 3),
        ]);
        assert_eq!(
            q.terms(),
            vec!["a", "b", "c", "d"],
            "terms skip substring grams"
        );
        assert!(q.has_substring());
        assert_eq!(
            q.atoms().unwrap(),
            vec!["a", "b", "c", "d", "abc"],
            "atoms include grams"
        );
    }

    #[test]
    fn atoms_deduplicate_across_branches() {
        let q = Query::any([
            Query::term("x"),
            Query::all([Query::term("x"), Query::term("y")]),
            Query::phrase(["y", "z"]),
        ]);
        assert_eq!(q.atoms().unwrap(), vec!["x", "y", "z"]);
    }

    #[test]
    fn fluent_chain_builds_flattened_ast() {
        let q = Query::term("a").and("b").and(Query::prefix("c"));
        assert_eq!(
            q,
            Query::And(vec![Query::term("a"), Query::term("b"), Query::prefix("c"),])
        );
        let q = Query::term("a").or("b").or("c");
        assert!(matches!(&q, Query::Or(qs) if qs.len() == 3));
    }

    #[test]
    fn builder_carries_query_and_options() {
        let built = Query::term("x").and(Query::prefix("ty")).top_k(10);
        assert_eq!(built.options().top_k, Some(10));
        let (query, opts) = built.delta(1e-4).without_trace().into_parts();
        assert_eq!(
            query,
            Query::term("x").and(Query::prefix("ty")),
            "options chaining leaves the query alone"
        );
        assert_eq!(opts.delta, Some(1e-4));
        assert!(!opts.capture_trace);
    }

    #[test]
    fn unexpanded_vocab_atoms_are_typed_errors() {
        for q in [Query::prefix("ty"), Query::fuzzy("disk", 1)] {
            assert!(
                matches!(q.atoms(), Err(AirphantError::UnsupportedQuery { .. })),
                "{q:?}"
            );
            assert!(q.needs_expansion());
            assert!(q.evaluate(&|_| PostingsList::from_doc_ids(&[1])).is_empty());
        }
        let nested = Query::term("ok").and(Query::fuzzy("disk", 1));
        assert!(nested.needs_expansion());
        assert!(matches!(
            nested.atoms(),
            Err(AirphantError::UnsupportedQuery { .. })
        ));
    }

    #[test]
    fn short_but_nonempty_substring_needs_expansion() {
        assert!(Query::substring("ab", 3).needs_expansion());
        assert!(!Query::substring("abc", 3).needs_expansion());
        // Empty patterns and n == 0 stay hard errors, not fallbacks.
        assert!(!Query::substring("", 3).needs_expansion());
        assert!(!Query::substring("abc", 0).needs_expansion());
    }

    #[test]
    fn matches_tokens_covers_prefix_and_fuzzy() {
        let tokens: Vec<String> = ["error", "disk", "sda1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let text = "error disk sda1";
        assert!(Query::prefix("dis").matches_tokens(&tokens, text));
        assert!(Query::prefix("disk").matches_tokens(&tokens, text));
        assert!(!Query::prefix("disko").matches_tokens(&tokens, text));
        assert!(Query::fuzzy("dusk", 1).matches_tokens(&tokens, text));
        assert!(!Query::fuzzy("dusk", 0).matches_tokens(&tokens, text));
        let q = Query::term("error").and(Query::prefix("sd").or(Query::fuzzy("nope", 1)));
        assert!(q.matches_tokens(&tokens, text));
        // Through the word-oracle view they match nothing (documented).
        let has = |w: &str| tokens.iter().any(|t| t == w);
        assert!(!Query::prefix("dis").matches_doc(&has, text));
        assert!(!Query::fuzzy("dusk", 1).matches_doc(&has, text));
    }

    #[test]
    fn substring_atoms_are_sorted_distinct_grams() {
        let q = Query::substring("abab", 3);
        assert_eq!(q.atoms().unwrap(), vec!["aba", "bab"]);
        // Case-folded like the NgramTokenizer at build time.
        let q = Query::substring("AbA", 3);
        assert_eq!(q.atoms().unwrap(), vec!["aba"]);
    }

    #[test]
    fn short_pattern_is_a_typed_error() {
        for (pattern, n) in [("ab", 3), ("", 3), ("abc", 0)] {
            match Query::substring(pattern, n).atoms() {
                Err(AirphantError::PatternTooShort { pattern: p, n: m }) => {
                    assert_eq!(p, pattern);
                    assert_eq!(m, n);
                }
                other => panic!("expected PatternTooShort, got {other:?}"),
            }
        }
        // Nested under boolean operators too.
        let q = Query::all([Query::term("ok"), Query::substring("x", 3)]);
        assert!(matches!(
            q.atoms(),
            Err(AirphantError::PatternTooShort { .. })
        ));
    }

    #[test]
    fn evaluate_distributes_over_the_predicate() {
        let pa = PostingsList::from_doc_ids(&[1, 2, 3]);
        let pb = PostingsList::from_doc_ids(&[2, 3, 4]);
        let pc = PostingsList::from_doc_ids(&[5]);
        let lookup = |w: &str| match w {
            "a" => pa.clone(),
            "b" => pb.clone(),
            "c" => pc.clone(),
            _ => PostingsList::new(),
        };
        let q = Query::any([
            Query::all([Query::term("a"), Query::term("b")]),
            Query::term("c"),
        ]);
        assert_eq!(q.evaluate(&lookup), PostingsList::from_doc_ids(&[2, 3, 5]));
        // Phrase behaves as AND of its words.
        let q = Query::phrase(["a", "b"]);
        assert_eq!(q.evaluate(&lookup), PostingsList::from_doc_ids(&[2, 3]));
        // Empty operands.
        assert!(Query::And(vec![]).evaluate(&lookup).is_empty());
        assert!(Query::Or(vec![]).evaluate(&lookup).is_empty());
    }

    #[test]
    fn matches_doc_handles_all_variants() {
        let tokens = ["error", "disk"];
        let has = |w: &str| tokens.contains(&w);
        let text = "ERROR Disk sda1 failing";
        assert!(Query::term("error").matches_doc(&has, text));
        assert!(!Query::term("warn").matches_doc(&has, text));
        assert!(Query::phrase(["error", "disk"]).matches_doc(&has, text));
        assert!(Query::substring("disk sda", 3).matches_doc(&has, text));
        assert!(!Query::substring("disk sdb", 3).matches_doc(&has, text));
        let q = Query::all([
            Query::term("error"),
            Query::any([Query::term("nope"), Query::substring("FAIL", 3)]),
        ]);
        assert!(q.matches_doc(&has, text));
        // Empty groups match nothing, agreeing with evaluate(): otherwise
        // Or([And([]), term]) would admit every false positive.
        assert!(!Query::And(vec![]).matches_doc(&|_| false, ""));
        assert!(!Query::Phrase(vec![]).matches_doc(&|_| true, ""));
        assert!(!Query::Or(vec![]).matches_doc(&|_| true, ""));
        let q = Query::any([Query::And(vec![]), Query::term("absent")]);
        assert!(!q.matches_doc(&has, text), "empty AND must not leak FPs");
    }

    #[test]
    fn options_builder() {
        let o = QueryOptions::new().top_k(10).delta(1e-3).without_trace();
        assert_eq!(o.top_k, Some(10));
        assert_eq!(o.delta, Some(1e-3));
        assert!(!o.capture_trace);
        assert!(QueryOptions::default().capture_trace);
    }
}
