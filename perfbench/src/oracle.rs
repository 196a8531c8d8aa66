//! The linear-scan side of the correctness checks: the queries the
//! benchmark generates, an exact inverted index over the generated
//! documents, and the predicate check of every returned hit.

use airphant::{Query, SearchHit};
use airphant_corpus::{Tokenizer, WhitespaceTokenizer};
use std::collections::HashMap;

/// Top-k every benchmark query asks for.
pub const TOP_K: usize = 10;

/// Query class, as reported in the `class.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// One exact term.
    Term,
    /// Two exact terms, both required.
    And,
    /// Every vocabulary term with a given prefix.
    Prefix,
    /// Every vocabulary term within one edit.
    Fuzzy,
}

impl Class {
    /// All classes, in report order.
    pub const ALL: [Class; 4] = [Class::Term, Class::And, Class::Prefix, Class::Fuzzy];

    /// Lower-case label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Class::Term => "term",
            Class::And => "and",
            Class::Prefix => "prefix",
            Class::Fuzzy => "fuzzy",
        }
    }
}

/// A generated query, kept in a form the oracle can evaluate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Spec {
    /// `Query::term`.
    Term(String),
    /// `Query::term(a).and(Query::term(b))`.
    And(String, String),
    /// `Query::prefix`.
    Prefix(String),
    /// `Query::fuzzy` with one edit.
    Fuzzy(String),
}

impl Spec {
    /// The program-side query.
    pub fn query(&self) -> Query {
        match self {
            Spec::Term(w) => Query::term(w.as_str()),
            Spec::And(a, b) => Query::term(a.as_str()).and(Query::term(b.as_str())),
            Spec::Prefix(p) => Query::prefix(p.as_str()),
            Spec::Fuzzy(w) => Query::fuzzy(w.as_str(), 1),
        }
    }

    /// The query's class.
    pub fn class(&self) -> Class {
        match self {
            Spec::Term(_) => Class::Term,
            Spec::And(..) => Class::And,
            Spec::Prefix(_) => Class::Prefix,
            Spec::Fuzzy(_) => Class::Fuzzy,
        }
    }
}

/// Exact inverted index over documents numbered in the order added.
#[derive(Default, Clone)]
pub struct Oracle {
    postings: HashMap<String, Vec<u32>>,
    vocab: Vec<String>,
    docs: u32,
}

impl Oracle {
    /// Add the next document; returns its number.
    pub fn add(&mut self, text: &str) -> u32 {
        let id = self.docs;
        self.docs += 1;
        for token in WhitespaceTokenizer.tokens(text) {
            let list = self.postings.entry(token).or_default();
            if list.last() != Some(&id) {
                list.push(id);
            }
        }
        id
    }

    /// Sort the vocabulary; call after the last `add` and before
    /// counting prefix or fuzzy matches.
    pub fn finish(&mut self) {
        self.vocab = self.postings.keys().cloned().collect();
        self.vocab.sort();
    }

    /// The sorted vocabulary (after [`Oracle::finish`]).
    pub fn vocabulary(&self) -> &[String] {
        &self.vocab
    }

    /// Number of documents added.
    pub fn docs(&self) -> u32 {
        self.docs
    }

    fn list(&self, word: &str, upto: u32) -> &[u32] {
        let l = self.postings.get(word).map_or(&[][..], |v| v.as_slice());
        &l[..l.partition_point(|&d| d < upto)]
    }

    /// True matches of `spec` among the first `upto` documents.
    pub fn matches(&self, spec: &Spec, upto: u32) -> usize {
        match spec {
            Spec::Term(w) => self.list(w, upto).len(),
            Spec::And(a, b) => {
                let (a, b) = (self.list(a, upto), self.list(b, upto));
                let (mut i, mut j, mut n) = (0, 0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            n += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                n
            }
            Spec::Prefix(p) => {
                let start = self.vocab.partition_point(|w| w.as_str() < p.as_str());
                let words = self.vocab[start..]
                    .iter()
                    .take_while(|w| w.starts_with(p.as_str()));
                self.union(words, upto)
            }
            Spec::Fuzzy(t) => {
                let words = self.vocab.iter().filter(|w| within_one_edit(t, w));
                self.union(words, upto)
            }
        }
    }

    fn union<'a>(&self, words: impl Iterator<Item = &'a String>, upto: u32) -> usize {
        let mut all: Vec<u32> = words.flat_map(|w| self.list(w, upto)).copied().collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }
}

/// Levenshtein distance of at most one.
fn within_one_edit(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() - short.len() > 1 {
        return false;
    }
    let prefix = short.iter().zip(long).take_while(|(x, y)| x == y).count();
    if short.len() == long.len() {
        short[prefix..].len() <= 1 || short[prefix + 1..] == long[prefix + 1..]
    } else {
        short[prefix..] == long[prefix + 1..]
    }
}

/// What the checks of one query found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Hits that do not satisfy the query, or more hits than top-k.
    pub wrong: bool,
    /// A compound or expanded query returned other than min(k, truth).
    pub short_exact: bool,
    /// A single-term query returned fewer than min(k, truth) (Eq. 6).
    pub shortfall: bool,
}

/// Check `hits` against the linear-scan predicate and the oracle's count.
pub fn check(spec: &Spec, hits: &[SearchHit], truth: usize) -> Verdict {
    let query = spec.query();
    let wrong = hits.len() > TOP_K
        || hits.iter().any(|h| {
            let tokens = WhitespaceTokenizer.tokens(&h.text);
            !query.matches_tokens(&tokens, &h.text)
        });
    let want = truth.min(TOP_K);
    let exact = hits.len() == want;
    Verdict {
        wrong,
        short_exact: spec.class() != Class::Term && !exact,
        shortfall: spec.class() == Class::Term && hits.len() < want,
    }
}

/// A hit list rendered for byte-for-byte comparison.
pub fn canonical(hits: &[SearchHit]) -> String {
    let mut s = String::new();
    for h in hits {
        s.push_str(&format!("{}#{}+{}:{}\n", h.blob, h.offset, h.len, h.text));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_edit() {
        assert!(within_one_edit("abc", "abc"));
        assert!(within_one_edit("abc", "abd"));
        assert!(within_one_edit("abc", "ab"));
        assert!(within_one_edit("abc", "xabc"));
        assert!(!within_one_edit("abc", "acb"));
        assert!(!within_one_edit("abc", "a"));
    }

    #[test]
    fn counts() {
        let mut o = Oracle::default();
        o.add("blk_1 INFO x");
        o.add("blk_12 INFO");
        o.add("blk_2 WARN x x");
        o.finish();
        assert_eq!(o.matches(&Spec::Term("x".into()), 3), 2);
        assert_eq!(o.matches(&Spec::Term("x".into()), 1), 1);
        assert_eq!(o.matches(&Spec::And("INFO".into(), "x".into()), 3), 1);
        assert_eq!(o.matches(&Spec::Prefix("blk_1".into()), 3), 2);
        assert_eq!(o.matches(&Spec::Fuzzy("blk_3".into()), 3), 2);
    }
}
