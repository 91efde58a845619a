//! Interning vocabulary.
//!
//! Word2vec and the sentiment model operate over dense integer token ids
//! rather than strings. [`Vocab`] interns words to [`TokenId`]s and tracks
//! occurrence counts, which the embedding crate uses for its unigram
//! negative-sampling table and frequency subsampling.

use std::collections::HashMap;

/// Dense identifier of an interned word.
///
/// Ids are assigned in first-seen order starting at zero, so a `TokenId` is
/// always a valid index into [`Vocab`]-sized side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub u32);

impl TokenId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A bidirectional word ⇄ id map with occurrence counts.
///
/// ```
/// use cats_text::Vocab;
/// let mut v = Vocab::new();
/// let a = v.intern("haoping");
/// let b = v.intern("chaping");
/// assert_ne!(a, b);
/// assert_eq!(v.intern("haoping"), a); // idempotent
/// assert_eq!(v.word(a), Some("haoping"));
/// assert_eq!(v.count(a), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Vocab {
    words: Vec<String>,
    counts: Vec<u64>,
    index: HashMap<String, TokenId>,
}

impl Vocab {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `word`, incrementing its occurrence count, and returns its id.
    pub fn intern(&mut self, word: &str) -> TokenId {
        if let Some(&id) = self.index.get(word) {
            self.counts[id.index()] += 1;
            return id;
        }
        let id = TokenId(self.words.len() as u32);
        self.words.push(word.to_owned());
        self.counts.push(1);
        self.index.insert(word.to_owned(), id);
        id
    }

    /// Interns every token of a pre-segmented comment.
    pub fn intern_all<S: AsRef<str>>(&mut self, tokens: &[S]) -> Vec<TokenId> {
        tokens.iter().map(|t| self.intern(t.as_ref())).collect()
    }

    /// Rebuilds a vocabulary from `(word, count)` entries in id order —
    /// the persistence decode path, inverse of [`Vocab::iter`]. Entries
    /// are assigned dense ids in input order with the given counts taken
    /// verbatim, so `Vocab::from_entries(v.iter().map(|(_, w, c)|
    /// (w.to_owned(), c)))` reproduces `v` exactly.
    ///
    /// Returns an error on a duplicate word: two entries can't share an id.
    pub fn from_entries<I: IntoIterator<Item = (String, u64)>>(entries: I) -> Result<Self, String> {
        let mut v = Self::new();
        for (word, count) in entries {
            let id = TokenId(v.words.len() as u32);
            if v.index.insert(word.clone(), id).is_some() {
                return Err(format!("duplicate vocabulary word {word:?}"));
            }
            v.words.push(word);
            v.counts.push(count);
        }
        Ok(v)
    }

    /// Looks up a word without interning it.
    pub fn id(&self, word: &str) -> Option<TokenId> {
        self.index.get(word).copied()
    }

    /// The word behind `id`, if `id` was produced by this vocabulary.
    pub fn word(&self, id: TokenId) -> Option<&str> {
        self.words.get(id.index()).map(String::as_str)
    }

    /// Occurrence count of `id` (zero for foreign ids).
    pub fn count(&self, id: TokenId) -> u64 {
        self.counts.get(id.index()).copied().unwrap_or(0)
    }

    /// Number of distinct interned words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no word has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Total token occurrences seen (the corpus length in tokens).
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates `(id, word, count)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TokenId, &str, u64)> + '_ {
        self.words
            .iter()
            .zip(&self.counts)
            .enumerate()
            .map(|(i, (w, &c))| (TokenId(i as u32), w.as_str(), c))
    }

    /// Ids of the `k` most frequent words, ties broken by id order.
    pub fn top_k(&self, k: usize) -> Vec<TokenId> {
        let mut ids: Vec<TokenId> = (0..self.words.len() as u32).map(TokenId).collect();
        ids.sort_by(|a, b| self.counts[b.index()].cmp(&self.counts[a.index()]).then(a.0.cmp(&b.0)));
        ids.truncate(k);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_sequential_ids() {
        let mut v = Vocab::new();
        for (i, w) in ["a", "b", "c", "d"].iter().enumerate() {
            assert_eq!(v.intern(w), TokenId(i as u32));
        }
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn intern_is_idempotent_and_counts() {
        let mut v = Vocab::new();
        let a = v.intern("x");
        v.intern("x");
        v.intern("x");
        assert_eq!(v.count(a), 3);
        assert_eq!(v.len(), 1);
        assert_eq!(v.total_count(), 3);
    }

    #[test]
    fn lookup_without_interning() {
        let mut v = Vocab::new();
        v.intern("x");
        assert!(v.id("x").is_some());
        assert!(v.id("y").is_none());
        assert_eq!(v.count(TokenId(99)), 0);
        assert_eq!(v.word(TokenId(99)), None);
    }

    #[test]
    fn top_k_orders_by_count_then_id() {
        let mut v = Vocab::new();
        for w in ["a", "b", "b", "c", "c", "c", "d"] {
            v.intern(w);
        }
        let top = v.top_k(2);
        assert_eq!(v.word(top[0]), Some("c"));
        assert_eq!(v.word(top[1]), Some("b"));
        // k larger than vocab is clamped
        assert_eq!(v.top_k(10).len(), 4);
        // tie between a and d broken by id order
        let all = v.top_k(4);
        assert_eq!(v.word(all[2]), Some("a"));
        assert_eq!(v.word(all[3]), Some("d"));
    }

    #[test]
    fn from_entries_is_inverse_of_iter() {
        let mut v = Vocab::new();
        for w in ["a", "b", "b", "c", "a", "a"] {
            v.intern(w);
        }
        let rebuilt = Vocab::from_entries(v.iter().map(|(_, w, c)| (w.to_owned(), c))).unwrap();
        assert_eq!(rebuilt.len(), v.len());
        for (id, w, c) in v.iter() {
            assert_eq!(rebuilt.id(w), Some(id));
            assert_eq!(rebuilt.count(id), c);
            assert_eq!(rebuilt.word(id), Some(w));
        }
        assert!(Vocab::from_entries([("x".to_string(), 1), ("x".to_string(), 2)]).is_err());
    }

    #[test]
    fn intern_all_roundtrips() {
        let mut v = Vocab::new();
        let toks: Vec<String> = ["p", "q", "p"].iter().map(|s| s.to_string()).collect();
        let ids = v.intern_all(&toks);
        assert_eq!(ids[0], ids[2]);
        assert_ne!(ids[0], ids[1]);
    }
}
