//! The semantic analyzer (paper §II-B).
//!
//! Responsible for "analyzing the semantic relationships within
//! e-commerce data": it trains a word2vec model on a large comment corpus,
//! uses it to expand seed words into the positive set *P* and negative set
//! *N* (Table I), and provides the sentiment model that scores every
//! comment. Feature extraction consumes the analyzer through
//! [`SemanticAnalyzer`]'s lexicon/sentiment accessors.

use cats_embedding::{expand_lexicon, Embedding, ExpansionConfig, Word2VecConfig, Word2VecTrainer};
use cats_io::io2::{Dec, Enc};
use cats_par::Parallelism;
use cats_sentiment::SentimentModel;
use cats_text::hash::BuildWordHasher;
use cats_text::{Corpus, Lexicon, Segmenter, WhitespaceSegmenter};
use std::collections::HashMap;

/// Configuration of semantic-analyzer training.
#[derive(Debug, Clone, Copy, Default)]
pub struct SemanticConfig {
    /// word2vec hyperparameters.
    pub word2vec: Word2VecConfig,
    /// Lexicon expansion parameters (the paper caps both sets at ~200).
    pub expansion: ExpansionConfig,
    /// Parallelism for corpus segmentation, embedding training and
    /// sentiment training. Overrides `word2vec.parallelism`.
    pub parallelism: Parallelism,
}

/// The trained semantic analyzer: expanded lexicon + sentiment model.
///
/// The word2vec embedding itself is training-time machinery; what the
/// feature extractor needs at run time is the lexicon it produced and the
/// sentiment scorer, which is also what gets persisted (see
/// [`SemanticAnalyzer::to_io2_sections`]). Every constructor also builds
/// the [`TokenTable`] the extractor reads; it is derived from the two
/// parts and never persisted.
#[derive(Debug, Clone)]
pub struct SemanticAnalyzer {
    lexicon: Lexicon,
    sentiment: SentimentModel,
    table: TokenTable,
}

/// What the feature extractor needs to know about one token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TokenInfo {
    /// In the positive set *P*.
    pub positive: bool,
    /// In the negative set *N*.
    pub negative: bool,
    /// The sentiment model's `(log P(w | +), log P(w | −))`.
    pub log_likelihoods: (f64, f64),
}

/// Every word the lexicon or the sentiment vocabulary knows, mapped to
/// a dense id and its [`TokenInfo`], with one shared entry for all other
/// words: one probe answers every per-token question of the 11 features,
/// and the id lets the item's counter key the token by a `u32` instead
/// of hashing its string again.
///
/// Ids run `0..len` in first-seen order over the sentiment vocabulary,
/// then *P*, then *N*; a word in several of them has one id. The table is
/// built from the model alone and is read-only afterwards, so request
/// tokens only probe it: it hashes with the unkeyed
/// [`cats_text::hash::WordHasher`], as a crafted token can choose where
/// its probe starts but cannot lengthen any probe sequence.
#[derive(Debug, Clone)]
pub(crate) struct TokenTable {
    known: HashMap<Box<str>, u32, BuildWordHasher>,
    /// `infos[id]` is the entry of the word with that id.
    infos: Vec<TokenInfo>,
    unknown: TokenInfo,
}

impl TokenTable {
    fn build(lexicon: &Lexicon, sentiment: &SentimentModel) -> Self {
        let words =
            sentiment.vocabulary().chain(lexicon.positive_words()).chain(lexicon.negative_words());
        let most = sentiment.vocab_len() + lexicon.positive_len() + lexicon.negative_len();
        let mut known = HashMap::with_capacity_and_hasher(most, BuildWordHasher::default());
        let mut infos = Vec::with_capacity(most);
        for w in words {
            if !known.contains_key(w) {
                known.insert(Box::from(w), infos.len() as u32);
                infos.push(TokenInfo {
                    positive: lexicon.is_positive(w),
                    negative: lexicon.is_negative(w),
                    log_likelihoods: sentiment.log_likelihoods(w),
                });
            }
        }
        let unknown = TokenInfo {
            positive: false,
            negative: false,
            log_likelihoods: sentiment.unseen_log_likelihoods(),
        };
        Self { known, infos, unknown }
    }

    /// The id and entry of `token`: its own, or no id and the shared
    /// unknown-word entry.
    #[inline]
    pub(crate) fn lookup(&self, token: &str) -> (Option<u32>, &TokenInfo) {
        match self.known.get(token) {
            Some(&id) => (Some(id), &self.infos[id as usize]),
            None => (None, &self.unknown),
        }
    }

    /// The entry of `token`: its own, or the shared unknown-word one.
    #[inline]
    pub(crate) fn get(&self, token: &str) -> &TokenInfo {
        self.lookup(token).1
    }
}

impl SemanticAnalyzer {
    /// Trains the full analyzer:
    ///
    /// 1. builds a [`Corpus`] from `comment_texts` (the paper uses ~70M
    ///    Taobao comments; any scale works),
    /// 2. trains word2vec on it,
    /// 3. expands `positive_seeds` / `negative_seeds` into the lexicon,
    /// 4. trains the sentiment model from `sentiment_positive` /
    ///    `sentiment_negative` labeled review texts.
    pub fn train(
        comment_texts: &[&str],
        positive_seeds: &[String],
        negative_seeds: &[String],
        sentiment_positive: &[&str],
        sentiment_negative: &[&str],
        config: SemanticConfig,
    ) -> Self {
        Self::train_impl(
            comment_texts,
            positive_seeds,
            negative_seeds,
            sentiment_positive,
            sentiment_negative,
            config,
            None,
        )
    }

    /// [`SemanticAnalyzer::train`], with the word2vec epochs — by far the
    /// dominant cost — checkpointing into `ckpt` under the `"w2v"` stage
    /// when a store is given (see
    /// [`Word2VecTrainer::train_checkpointed`]). The analyzer is the same
    /// with or without a store.
    pub(crate) fn train_impl<'a>(
        comment_texts: &[&str],
        positive_seeds: &[String],
        negative_seeds: &[String],
        sentiment_positive: &[&'a str],
        sentiment_negative: &[&'a str],
        config: SemanticConfig,
        ckpt: Option<&cats_io::CheckpointStore>,
    ) -> Self {
        let _span = cats_obs::span!("cats.core.train");
        let seg = WhitespaceSegmenter;
        let par = config.parallelism;
        let mut corpus = Corpus::new();
        {
            let _seg_span = cats_obs::span!("cats.core.train.segment", { comment_texts.len() });
            corpus.push_texts(comment_texts, &seg, par);
        }
        let embedding = {
            let _embed_span = cats_obs::span!("cats.core.train.embed", { comment_texts.len() });
            let w2v = Word2VecConfig { parallelism: par, ..config.word2vec };
            let trainer = Word2VecTrainer::new(w2v);
            match ckpt {
                Some(store) => trainer.train_checkpointed(&corpus, store, "w2v"),
                None => trainer.train(&corpus),
            }
        };
        let lexicon = {
            let _expand_span = cats_obs::span!("cats.core.train.expand");
            expand_lexicon(&embedding, positive_seeds, negative_seeds, config.expansion)
        };

        let sentiment = {
            let _sent_span = cats_obs::span!("cats.core.train.sentiment", {
                sentiment_positive.len() + sentiment_negative.len()
            });
            // Borrowed tokens: the reviews outlive training, so no token
            // is copied on the way to interning.
            let seg_docs = |texts: &[&'a str]| -> Vec<Vec<&'a str>> {
                cats_par::map_chunked(par, texts, |&t| {
                    let mut tokens = Vec::new();
                    seg.segment_borrowed(t, &mut tokens);
                    tokens
                })
            };
            SentimentModel::train_par(
                &seg_docs(sentiment_positive),
                &seg_docs(sentiment_negative),
                par,
            )
        };
        Self::from_parts(lexicon, sentiment)
    }

    /// Trains word2vec and returns the raw embedding too — used by
    /// experiments that inspect neighbourhoods (Table I).
    pub fn train_embedding(comment_texts: &[&str], config: Word2VecConfig) -> Embedding {
        let seg = WhitespaceSegmenter;
        let mut corpus = Corpus::new();
        corpus.push_texts(comment_texts, &seg, config.parallelism);
        Word2VecTrainer::new(config).train(&corpus)
    }

    /// Builds an analyzer from already-trained parts (e.g. deserialized).
    pub fn from_parts(lexicon: Lexicon, sentiment: SentimentModel) -> Self {
        let table = TokenTable::build(&lexicon, &sentiment);
        Self { lexicon, sentiment, table }
    }

    /// The analyzer as its two `CATS-IO2` sections, `(lexicon,
    /// sentiment)`: the lexicon as sorted length-prefixed word lists
    /// (the sets iterate in hash order; sorting makes the layout
    /// canonical) and the sentiment model's flat payload. Pipeline
    /// snapshots and training checkpoints both store these.
    pub(crate) fn to_io2_sections(&self) -> (Vec<u8>, Vec<u8>) {
        let mut pos: Vec<&str> = self.lexicon.positive_words().collect();
        let mut neg: Vec<&str> = self.lexicon.negative_words().collect();
        pos.sort_unstable();
        neg.sort_unstable();
        let mut lexicon = Enc::new();
        for words in [pos, neg] {
            lexicon.u64(words.len() as u64);
            for w in words {
                lexicon.str(w);
            }
        }
        (lexicon.into_bytes(), self.sentiment.to_io2_payload())
    }

    /// Decodes [`SemanticAnalyzer::to_io2_sections`]. Every word count is
    /// checked against the bytes present before it sizes an allocation,
    /// and the lexicon section must be consumed exactly.
    pub(crate) fn from_io2_sections(lexicon: &[u8], sentiment: &[u8]) -> Result<Self, String> {
        let mut d = Dec::new(lexicon);
        let mut read_words = || -> Result<Vec<String>, String> {
            let n = d.u64()? as usize;
            // Every word costs at least its 4-byte length prefix: reject a
            // lying count before trusting it for an allocation.
            if n.checked_mul(4).map_or(true, |b| b > d.remaining()) {
                return Err(format!("lexicon word count {n} exceeds section size"));
            }
            (0..n).map(|_| d.str()).collect()
        };
        let positive = read_words()?;
        let negative = read_words()?;
        if d.remaining() != 0 {
            return Err(format!("{} trailing bytes in lexicon section", d.remaining()));
        }
        let sentiment = SentimentModel::from_io2_payload(sentiment)?;
        Ok(Self::from_parts(Lexicon::new(positive, negative), sentiment))
    }

    /// The expanded positive/negative lexicon.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// The sentiment scorer.
    pub fn sentiment(&self) -> &SentimentModel {
        &self.sentiment
    }

    /// The per-token lookup table of the feature extractor.
    pub(crate) fn token_table(&self) -> &TokenTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature platform-like corpus: promo comments share positive
    /// words, complaints share negative words.
    fn corpus() -> Vec<String> {
        let mut texts = Vec::new();
        for i in 0..400 {
            let v = i % 4;
            texts.push(format!("item great{v} superb{v} lovely{v} fast ship great{v}",));
            texts.push(format!("broken bad{v} awful{v} refund bad{v} slow"));
            texts.push("box arrived parcel store normal day".to_string());
        }
        texts
    }

    fn analyzer() -> SemanticAnalyzer {
        let texts = corpus();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let pos_docs = ["great0 superb0 lovely0", "great1 lovely1 superb2"];
        let neg_docs = ["bad0 awful0 refund", "awful1 bad2 broken"];
        SemanticAnalyzer::train(
            &refs,
            &["great0".to_string()],
            &["bad0".to_string()],
            &pos_docs,
            &neg_docs,
            SemanticConfig {
                word2vec: Word2VecConfig {
                    dim: 16,
                    epochs: 4,
                    min_count: 2,
                    subsample: 0.0,
                    ..Word2VecConfig::default()
                },
                expansion: ExpansionConfig { k: 6, min_similarity: 0.3, max_words: 12 },
                ..SemanticConfig::default()
            },
        )
    }

    #[test]
    fn training_expands_seed_words() {
        let a = analyzer();
        assert!(a.lexicon().is_positive("great0"), "seed kept");
        assert!(a.lexicon().is_negative("bad0"), "seed kept");
        assert!(a.lexicon().positive_len() > 1, "expansion found neighbours");
    }

    #[test]
    fn expanded_sets_are_disjoint() {
        let a = analyzer();
        for w in a.lexicon().negative_words() {
            assert!(!a.lexicon().is_positive(w));
        }
    }

    #[test]
    fn sentiment_scores_follow_training_polarity() {
        let a = analyzer();
        let seg = WhitespaceSegmenter;
        let pos = a.sentiment().score_text("great0 lovely1", &seg);
        let neg = a.sentiment().score_text("bad0 awful1", &seg);
        assert!(pos > 0.6, "{pos}");
        assert!(neg < 0.4, "{neg}");
    }

    #[test]
    fn token_table_gives_every_known_word_one_dense_id() {
        // "hao" and "cha" are in the vocabulary and the lexicon, "zan" in
        // both polarities' training docs, "bang" and "lan" only in the
        // lexicon, "dian" only in the vocabulary.
        let lexicon = Lexicon::new(
            ["hao", "zan", "bang"].map(String::from),
            ["cha", "lan"].map(String::from),
        );
        let docs = |texts: &[&str]| -> Vec<Vec<String>> {
            texts.iter().map(|t| t.split_whitespace().map(String::from).collect()).collect()
        };
        for order in
            [cats_sentiment::FeatureOrder::Unigram, cats_sentiment::FeatureOrder::UnigramBigram]
        {
            let sentiment = SentimentModel::train_with_order(
                &docs(&["hao zan hao", "zan dian"]),
                &docs(&["cha cha", "cha zan"]),
                order,
            );
            let a = SemanticAnalyzer::from_parts(lexicon.clone(), sentiment);
            let (table, sentiment) = (a.token_table(), a.sentiment());
            let words: std::collections::BTreeSet<&str> = sentiment
                .vocabulary()
                .chain(lexicon.positive_words())
                .chain(lexicon.negative_words())
                .collect();
            let mut ids = Vec::new();
            for &w in &words {
                let (id, info) = table.lookup(w);
                let id = id.unwrap_or_else(|| panic!("{w:?} has no id"));
                let (p, n) = sentiment.log_likelihoods(w);
                assert_eq!(info.positive, lexicon.is_positive(w), "{w:?}");
                assert_eq!(info.negative, lexicon.is_negative(w), "{w:?}");
                assert_eq!(info.log_likelihoods.0.to_bits(), p.to_bits(), "{w:?}");
                assert_eq!(info.log_likelihoods.1.to_bits(), n.to_bits(), "{w:?}");
                assert!(std::ptr::eq(info, table.get(w)));
                ids.push(id);
            }
            // One id per word, and the ids are exactly 0..len.
            ids.sort_unstable();
            assert_eq!(ids, (0..words.len() as u32).collect::<Vec<_>>(), "{order:?}");
            for w in ["", "ha", "haozan", "hao ", "dian\u{1}", "zzz", "很好"] {
                let (id, info) = table.lookup(w);
                assert_eq!(id, None, "{w:?}");
                assert!(!info.positive && !info.negative, "{w:?}");
                let (p, n) = sentiment.unseen_log_likelihoods();
                assert_eq!(info.log_likelihoods, (p, n), "{w:?}");
                assert!(std::ptr::eq(info, table.get("zzz")), "one shared unknown entry");
            }
        }
    }

    #[test]
    fn io2_sections_roundtrip_canonically() {
        let a = analyzer();
        let (lexicon, sentiment) = a.to_io2_sections();
        let b = SemanticAnalyzer::from_io2_sections(&lexicon, &sentiment).unwrap();
        assert_eq!(b.to_io2_sections(), (lexicon.clone(), sentiment.clone()));
        assert_eq!(b.lexicon().positive_len(), a.lexicon().positive_len());
        let seg = WhitespaceSegmenter;
        assert_eq!(
            a.sentiment().score_text("great0", &seg),
            b.sentiment().score_text("great0", &seg)
        );
        // A lying word count, a cut word and a trailing byte all fail.
        let mut lying = lexicon.clone();
        lying[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut extended = lexicon.clone();
        extended.push(0);
        for bad in [lying, lexicon[..lexicon.len() - 1].to_vec(), extended] {
            assert!(SemanticAnalyzer::from_io2_sections(&bad, &sentiment).is_err());
        }
    }
}
