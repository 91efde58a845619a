//! The tokenized corpus shared across the workspace.
//!
//! A [`Corpus`] is a flat collection of segmented comments plus the
//! [`Vocab`] interning their words, which is what the word2vec trainer
//! and the sentiment model consume.

use crate::segment::Segmenter;
use crate::token::{TokenId, Vocab};

/// A corpus of tokenized comments with an interning vocabulary.
///
/// Token ids are stored as one flat `Vec<TokenId>` per comment; the
/// embedding trainer iterates comments as sentences.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    vocab: Vocab,
    sentences: Vec<Vec<TokenId>>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one segmented comment, interning its tokens.
    pub fn push_tokens(&mut self, tokens: &[String]) {
        let ids = self.vocab.intern_all(tokens);
        self.sentences.push(ids);
    }

    /// Adds raw text after segmenting it.
    pub fn push_text(&mut self, text: &str, segmenter: &impl Segmenter) {
        let toks = segmenter.segment(text);
        self.push_tokens(&toks);
    }

    /// Adds a batch of raw texts, segmenting them in parallel.
    ///
    /// Segmentation (the CPU-heavy part) fans out across worker threads
    /// with [`Segmenter::segment_borrowed`], so a token is a slice of its
    /// text and is copied only when the vocabulary first meets it.
    /// Interning stays serial in input order, so the resulting vocabulary
    /// ids and sentence order are identical to repeated
    /// [`Corpus::push_text`] calls at any thread count.
    pub fn push_texts<S, T>(&mut self, texts: &[T], segmenter: &S, par: cats_par::Parallelism)
    where
        S: Segmenter + Sync,
        T: AsRef<str> + Sync,
    {
        let segmented: Vec<Vec<&str>> = cats_par::map_indexed(par, texts.len(), |i| {
            let mut toks = Vec::new();
            segmenter.segment_borrowed(texts[i].as_ref(), &mut toks);
            toks
        });
        for toks in &segmented {
            let ids = self.vocab.intern_all(toks);
            self.sentences.push(ids);
        }
    }

    /// The interning vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Sentences as token-id slices.
    pub fn sentences(&self) -> &[Vec<TokenId>] {
        &self.sentences
    }

    /// Number of sentences (comments).
    pub fn len(&self) -> usize {
        self.sentences.len()
    }

    /// Whether the corpus holds no sentences.
    pub fn is_empty(&self) -> bool {
        self.sentences.is_empty()
    }

    /// Total token count across all sentences.
    pub fn token_count(&self) -> usize {
        self.sentences.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::WhitespaceSegmenter;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn corpus_interns_shared_words_once() {
        let mut c = Corpus::new();
        c.push_text("hao hao ping", &WhitespaceSegmenter);
        c.push_text("ping cha", &WhitespaceSegmenter);
        assert_eq!(c.len(), 2);
        assert_eq!(c.vocab().len(), 3);
        assert_eq!(c.token_count(), 5);
        // "ping" in both sentences maps to the same id.
        let s = c.sentences();
        assert_eq!(s[0][2], s[1][0]);
    }

    /// `texts` pushed in parallel at 1, 2 and 8 threads give the corpus
    /// of one `push_text` (owned tokens) per text: the same sentences and
    /// the same vocabulary, ids and counts.
    fn assert_push_texts_matches_serial(texts: &[String]) {
        let mut serial = Corpus::new();
        for t in texts {
            serial.push_text(t, &WhitespaceSegmenter);
        }
        let entries = |c: &Corpus| -> Vec<(TokenId, String, u64)> {
            c.vocab().iter().map(|(id, w, n)| (id, w.to_owned(), n)).collect()
        };
        for threads in [1usize, 2, 8] {
            let mut par = Corpus::new();
            let p = cats_par::Parallelism::with_threads(threads);
            par.push_texts(texts, &WhitespaceSegmenter, p);
            assert_eq!(par.sentences(), serial.sentences(), "threads={threads}");
            assert_eq!(entries(&par), entries(&serial), "threads={threads}");
        }
    }

    #[test]
    fn push_texts_matches_serial_push_text() {
        let texts: Vec<String> =
            (0..64).map(|i| format!("hao w{} ping hao cha{}", i % 7, i % 3)).collect();
        assert_push_texts_matches_serial(&texts);
    }

    #[test]
    fn push_texts_matches_serial_push_text_on_generated_texts() {
        // Words that recur across texts, ASCII and CJK punctuation, runs
        // of ASCII and non-ASCII whitespace, and multi-byte letters.
        const PIECES: &[&str] = &[
            "hao", "cha", "ping", "很好", "é", "🙂", " ", "  ", "\t", "\u{3000}", "\u{a0}", "!",
            "?!", "。", "，", "…", "wow!!", "",
        ];
        let mut rng = StdRng::seed_from_u64(0x00C0_2905);
        let texts: Vec<String> = (0..300)
            .map(|i| match i % 25 {
                0 => String::new(),
                1 => "  \t ".to_string(),
                _ => (0..rng.random_range(0..24usize))
                    .map(|_| PIECES[rng.random_range(0..PIECES.len())])
                    .collect(),
            })
            .collect();
        assert_push_texts_matches_serial(&texts);
    }

    #[test]
    fn empty_corpus() {
        let c = Corpus::new();
        assert!(c.is_empty());
        assert_eq!(c.token_count(), 0);
        assert!(c.vocab().is_empty());
    }

    #[test]
    fn push_empty_comment_keeps_sentence() {
        let mut c = Corpus::new();
        c.push_tokens(&[]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.token_count(), 0);
    }
}
