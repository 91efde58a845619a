//! The positive set *P* and negative set *N* (paper Table I).
//!
//! The paper builds these sets by expanding a handful of seed words with a
//! word2vec model (each set capped at ~200 words "for computation
//! efficiency"). This module holds the resulting [`Lexicon`] and the counting
//! helpers used by the word-level features; the expansion algorithm itself
//! lives in `cats-embedding::expand`.

use std::collections::HashSet;

/// Positive and negative word sets.
#[derive(Debug, Clone, Default)]
pub struct Lexicon {
    positive: HashSet<String>,
    negative: HashSet<String>,
}

impl Lexicon {
    /// Builds a lexicon from word iterators. A word appearing in both lists
    /// is kept only in the positive set (positive evidence is what fraud
    /// campaigns inject, so ambiguity resolves toward *P*; the expansion
    /// algorithm never produces overlaps in practice).
    pub fn new<P, N>(positive: P, negative: N) -> Self
    where
        P: IntoIterator<Item = String>,
        N: IntoIterator<Item = String>,
    {
        let positive: HashSet<String> = positive.into_iter().collect();
        let negative = negative.into_iter().filter(|w| !positive.contains(w)).collect();
        Self { positive, negative }
    }

    /// An empty lexicon.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether `word` is in the positive set *P*.
    #[inline]
    pub fn is_positive(&self, word: &str) -> bool {
        self.positive.contains(word)
    }

    /// Whether `word` is in the negative set *N*.
    #[inline]
    pub fn is_negative(&self, word: &str) -> bool {
        self.negative.contains(word)
    }

    /// Size of the positive set.
    pub fn positive_len(&self) -> usize {
        self.positive.len()
    }

    /// Size of the negative set.
    pub fn negative_len(&self) -> usize {
        self.negative.len()
    }

    /// Iterates positive words in unspecified order.
    pub fn positive_words(&self) -> impl Iterator<Item = &str> {
        self.positive.iter().map(String::as_str)
    }

    /// Iterates negative words in unspecified order.
    pub fn negative_words(&self) -> impl Iterator<Item = &str> {
        self.negative.iter().map(String::as_str)
    }

    /// Inserts a negative word (unless it is already positive); returns
    /// `false` if it was not inserted.
    pub fn add_negative(&mut self, word: &str) -> bool {
        if self.positive.contains(word) {
            return false;
        }
        self.negative.insert(word.to_owned())
    }

    /// Number of tokens of `tokens` that are in *P* — the per-comment term
    /// of the paper's `averagePositiveNumber` (`|Cᵢʲ ∩ P|` counted with
    /// multiplicity, since a promotional comment repeating a positive word
    /// repeats the promotion).
    pub fn positive_count(&self, tokens: &[String]) -> usize {
        tokens.iter().filter(|t| self.is_positive(t)).count()
    }

    /// Number of tokens of `tokens` that are in *N*.
    pub fn negative_count(&self, tokens: &[String]) -> usize {
        tokens.iter().filter(|t| self.is_negative(t)).count()
    }

    /// `| |Cᵢʲ ∩ P| − |Cᵢʲ ∩ N| |` — the per-comment term of the paper's
    /// `averagePositive/NegativeNumber` feature.
    pub fn positive_negative_diff(&self, tokens: &[String]) -> usize {
        let (mut pos, mut neg) = (0usize, 0usize);
        for t in tokens {
            pos += usize::from(self.is_positive(t));
            neg += usize::from(self.is_negative(t));
        }
        pos.abs_diff(neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex() -> Lexicon {
        Lexicon::new(
            ["hao", "zan", "piaoliang"].map(String::from),
            ["cha", "lan"].map(String::from),
        )
    }

    fn toks(ws: &[&str]) -> Vec<String> {
        ws.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn membership() {
        let l = lex();
        assert!(l.is_positive("hao"));
        assert!(!l.is_positive("cha"));
        assert!(l.is_negative("cha"));
        assert!(!l.is_negative("hao"));
        assert!(!l.is_positive("neutral"));
        assert_eq!(l.positive_len(), 3);
        assert_eq!(l.negative_len(), 2);
    }

    #[test]
    fn overlap_resolves_positive() {
        let l = Lexicon::new(["w".to_string()], ["w".to_string()]);
        assert!(l.is_positive("w"));
        assert!(!l.is_negative("w"));
    }

    #[test]
    fn add_negative_refuses_existing_positive() {
        let mut l = lex();
        assert!(!l.add_negative("hao"));
        assert!(l.add_negative("zaogao"));
        assert!(!l.add_negative("zaogao"), "second insert is a no-op");
    }

    #[test]
    fn counts_with_multiplicity() {
        let l = lex();
        let t = toks(&["hao", "hao", "cha", "x", "zan"]);
        assert_eq!(l.positive_count(&t), 3);
        assert_eq!(l.negative_count(&t), 1);
        assert_eq!(l.positive_negative_diff(&t), 2);
    }

    #[test]
    fn diff_is_absolute() {
        let l = lex();
        let t = toks(&["cha", "lan", "hao"]);
        assert_eq!(l.positive_negative_diff(&t), 1);
        let t2 = toks(&["cha", "lan"]);
        assert_eq!(l.positive_negative_diff(&t2), 2);
    }

    #[test]
    fn empty_lexicon_counts_zero() {
        let l = Lexicon::empty();
        let t = toks(&["hao", "cha"]);
        assert_eq!(l.positive_count(&t), 0);
        assert_eq!(l.negative_count(&t), 0);
    }
}
