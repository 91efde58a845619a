//! # cats-sentiment — comment sentiment substrate
//!
//! The paper's semantic analyzer scores every comment with a pre-trained
//! sentiment model (SnowNLP, trained on large-scale e-commerce review
//! data), producing the `averageSentiment` feature whose class-conditional
//! distributions (Fig 1) separate fraud items (mass near 1.0) from normal
//! items (mass near 0.7).
//!
//! SnowNLP's sentiment component is a multinomial Naive Bayes classifier
//! over segmented words, returning `P(positive | comment)`. This crate is
//! the same model class built from scratch:
//!
//! * [`SentimentModel::train`] fits token likelihoods with Laplace
//!   smoothing from positive- and negative-labeled review corpora;
//! * [`SentimentModel::score`] returns `P(positive)` ∈ [0, 1], computed
//!   with *length-normalized* log-likelihoods (the geometric-mean
//!   per-token likelihood). Normalization keeps long comments from
//!   saturating to exactly 0/1, matching the smooth densities of Fig 1.

use cats_io::io2::{Dec, Enc};
use cats_text::{Segmenter, TokenId, Vocab};

/// Laplace smoothing pseudo-count.
const ALPHA: f64 = 1.0;

/// Version of the binary payload emitted by
/// [`SentimentModel::to_io2_payload`] (the snapshot `sentiment` section).
const SENTIMENT_CODEC_VERSION: u32 = 1;

/// Sharpness of the length-normalized posterior. The per-token average
/// log-likelihood ratio is multiplied by this before the sigmoid; it trades
/// off the saturation of the raw NB posterior (which drives every long
/// comment to exactly 0/1) against the washed-out scores of the pure
/// geometric mean. 2.5 reproduces the paper's Fig 1 shape: promotional
/// comments land near 1.0, organic mildly-positive ones near 0.7.
const TEMPERATURE: f64 = 2.5;

/// Separator joining the two tokens of a bigram feature.
const BIGRAM_SEPARATOR: char = '\u{1}';

/// Emits the model's features of a segmented comment: the tokens
/// themselves, plus joined adjacent pairs in bigram mode.
fn feature_stream(tokens: &[String], order: FeatureOrder) -> Vec<String> {
    match order {
        FeatureOrder::Unigram => tokens.to_vec(),
        FeatureOrder::UnigramBigram => {
            let mut out = Vec::with_capacity(tokens.len() * 2);
            out.extend(tokens.iter().cloned());
            out.extend(tokens.windows(2).map(|w| format!("{}{BIGRAM_SEPARATOR}{}", w[0], w[1])));
            out
        }
    }
}

/// The 8-lane log-likelihood sums of one comment's feature stream.
///
/// Feature `f` lands in lane `f % 8` and the lanes fold pairwise in a
/// fixed order, so a score depends only on the feature stream, to the
/// bit. [`SentimentModel::score`] and the feature extractor's comment
/// kernel both accumulate through this type, so they agree bitwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneSums {
    pos: [f64; 8],
    neg: [f64; 8],
    features: usize,
}

impl LaneSums {
    /// Adds the next feature's `(log P(f | +), log P(f | −))`.
    #[inline]
    pub fn add(&mut self, (log_pos, log_neg): (f64, f64)) {
        let lane = self.features % 8;
        self.pos[lane] += log_pos;
        self.neg[lane] += log_neg;
        self.features += 1;
    }
}

/// Feature order used by the model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FeatureOrder {
    /// Bag of single tokens (SnowNLP's model).
    #[default]
    Unigram,
    /// Single tokens plus adjacent-pair features — captures negation-ish
    /// patterns ("bu hao") a unigram model conflates.
    UnigramBigram,
}

/// A trained multinomial Naive Bayes sentiment scorer.
#[derive(Debug, Clone)]
pub struct SentimentModel {
    order: FeatureOrder,
    vocab: Vocab,
    /// log P(token | positive), indexed by `TokenId`.
    log_pos: Vec<f64>,
    /// log P(token | negative).
    log_neg: Vec<f64>,
    /// log prior of the positive class.
    log_prior_pos: f64,
    log_prior_neg: f64,
    /// log-likelihood assigned to tokens never seen in training.
    log_unseen_pos: f64,
    log_unseen_neg: f64,
}

impl SentimentModel {
    /// Trains a unigram model from segmented positive and negative
    /// documents.
    ///
    /// # Panics
    /// Panics if either corpus is empty — a one-sided sentiment model is
    /// meaningless and would silently score everything identically.
    pub fn train(positive_docs: &[Vec<String>], negative_docs: &[Vec<String>]) -> Self {
        Self::train_with_order(positive_docs, negative_docs, FeatureOrder::Unigram)
    }

    /// Trains with an explicit feature order.
    ///
    /// # Panics
    /// Panics if either corpus is empty.
    pub fn train_with_order(
        positive_docs: &[Vec<String>],
        negative_docs: &[Vec<String>],
        order: FeatureOrder,
    ) -> Self {
        let pos: Vec<Vec<String>> =
            positive_docs.iter().map(|d| feature_stream(d, order)).collect();
        let neg: Vec<Vec<String>> =
            negative_docs.iter().map(|d| feature_stream(d, order)).collect();
        Self::from_streams(&pos, &neg, order)
    }

    /// [`SentimentModel::train`] with feature extraction fanned out over
    /// worker threads. Bit-identical to the serial path at any thread
    /// count: only per-document feature-stream generation runs in
    /// parallel; interning and counting stay serial in input order.
    ///
    /// # Panics
    /// Panics if either corpus is empty.
    pub fn train_par(
        positive_docs: &[Vec<String>],
        negative_docs: &[Vec<String>],
        par: cats_par::Parallelism,
    ) -> Self {
        Self::train_with_order_par(positive_docs, negative_docs, FeatureOrder::Unigram, par)
    }

    /// [`SentimentModel::train_with_order`] with parallel feature
    /// extraction. See [`SentimentModel::train_par`].
    ///
    /// # Panics
    /// Panics if either corpus is empty.
    pub fn train_with_order_par(
        positive_docs: &[Vec<String>],
        negative_docs: &[Vec<String>],
        order: FeatureOrder,
        par: cats_par::Parallelism,
    ) -> Self {
        let pos = cats_par::map_chunked(par, positive_docs, |d| feature_stream(d, order));
        let neg = cats_par::map_chunked(par, negative_docs, |d| feature_stream(d, order));
        Self::from_streams(&pos, &neg, order)
    }

    /// Fits likelihoods from per-document feature streams (already
    /// expanded by [`feature_stream`]). Interning happens here, serially,
    /// positive documents first — the vocabulary layout is a function of
    /// document order alone.
    fn from_streams(
        pos_streams: &[Vec<String>],
        neg_streams: &[Vec<String>],
        order: FeatureOrder,
    ) -> Self {
        assert!(
            !pos_streams.is_empty() && !neg_streams.is_empty(),
            "sentiment training requires both positive and negative documents"
        );
        let mut vocab = Vocab::new();
        let mut pos_counts: Vec<u64> = Vec::new();
        let mut neg_counts: Vec<u64> = Vec::new();

        let tally = |streams: &[Vec<String>],
                     vocab: &mut Vocab,
                     counts: &mut Vec<u64>,
                     other: &mut Vec<u64>| {
            for stream in streams {
                for tok in stream {
                    let id = vocab.intern(tok);
                    if id.index() >= counts.len() {
                        counts.resize(id.index() + 1, 0);
                        other.resize(id.index() + 1, 0);
                    }
                    counts[id.index()] += 1;
                }
            }
        };
        tally(pos_streams, &mut vocab, &mut pos_counts, &mut neg_counts);
        tally(neg_streams, &mut vocab, &mut neg_counts, &mut pos_counts);
        let v = vocab.len();
        pos_counts.resize(v, 0);
        neg_counts.resize(v, 0);

        let pos_total: u64 = pos_counts.iter().sum();
        let neg_total: u64 = neg_counts.iter().sum();
        let pos_denom = pos_total as f64 + ALPHA * (v as f64 + 1.0);
        let neg_denom = neg_total as f64 + ALPHA * (v as f64 + 1.0);

        let log_pos = pos_counts.iter().map(|&c| ((c as f64 + ALPHA) / pos_denom).ln()).collect();
        let log_neg = neg_counts.iter().map(|&c| ((c as f64 + ALPHA) / neg_denom).ln()).collect();

        let n_docs = (pos_streams.len() + neg_streams.len()) as f64;
        Self {
            order,
            vocab,
            log_pos,
            log_neg,
            log_prior_pos: (pos_streams.len() as f64 / n_docs).ln(),
            log_prior_neg: (neg_streams.len() as f64 / n_docs).ln(),
            log_unseen_pos: (ALPHA / pos_denom).ln(),
            log_unseen_neg: (ALPHA / neg_denom).ln(),
        }
    }

    /// Scores a segmented comment: `P(positive)` with length-normalized
    /// token likelihoods. An empty comment scores exactly 0.5.
    ///
    /// The log-likelihood sums run in [`LaneSums`]: the unigram features
    /// first, then (in bigram mode) the bigram ones, in the order the
    /// model was trained on.
    pub fn score(&self, tokens: &[String]) -> f64 {
        let mut sums = LaneSums::default();
        for t in tokens {
            sums.add(self.log_likelihoods(t));
        }
        self.add_bigrams(tokens, &mut sums, &mut String::new());
        self.finish(&sums)
    }

    /// `(log P(f | +), log P(f | −))` of one feature; features never seen
    /// in training share the smoothed unseen pair.
    #[inline]
    pub fn log_likelihoods(&self, feature: &str) -> (f64, f64) {
        match self.vocab.id(feature) {
            Some(TokenId(i)) => (self.log_pos[i as usize], self.log_neg[i as usize]),
            None => (self.log_unseen_pos, self.log_unseen_neg),
        }
    }

    /// Every feature seen in training, in vocabulary order: the tokens,
    /// plus joined pairs in bigram mode.
    pub fn vocabulary(&self) -> impl Iterator<Item = &str> + '_ {
        self.vocab.iter().map(|(_, word, _)| word)
    }

    /// The log-likelihood pair of a feature never seen in training.
    pub fn unseen_log_likelihoods(&self) -> (f64, f64) {
        (self.log_unseen_pos, self.log_unseen_neg)
    }

    /// Adds a comment's bigram features to `sums`, after its unigram ones;
    /// a no-op for a unigram model. `key` is scratch space for the joined
    /// bigram, reused across calls.
    pub fn add_bigrams<S: AsRef<str>>(&self, tokens: &[S], sums: &mut LaneSums, key: &mut String) {
        if self.order != FeatureOrder::UnigramBigram {
            return;
        }
        for w in tokens.windows(2) {
            key.clear();
            key.push_str(w[0].as_ref());
            key.push(BIGRAM_SEPARATOR);
            key.push_str(w[1].as_ref());
            sums.add(self.log_likelihoods(key));
        }
    }

    /// The score of a comment whose feature stream went into `sums`
    /// (0.5 for an empty one).
    pub fn finish(&self, sums: &LaneSums) -> f64 {
        if sums.features == 0 {
            return 0.5;
        }
        let fold = |a: [f64; 8]| {
            let b0 = a[0] + a[4];
            let b1 = a[1] + a[5];
            let b2 = a[2] + a[6];
            let b3 = a[3] + a[7];
            (b0 + b2) + (b1 + b3)
        };
        let (lp, ln) = (fold(sums.pos), fold(sums.neg));
        // Geometric-mean per-feature likelihood, then the prior once.
        let n = sums.features as f64;
        let zp = lp / n + self.log_prior_pos / n;
        let zn = ln / n + self.log_prior_neg / n;
        // σ(T·(zp − zn)) == tempered exp(zp) / (exp(zp) + exp(zn)),
        // overflow-safe.
        1.0 / (1.0 + (TEMPERATURE * (zn - zp)).exp())
    }

    /// Scores raw text, segmenting it first.
    pub fn score_text(&self, text: &str, segmenter: &impl Segmenter) -> f64 {
        self.score(&segmenter.segment(text))
    }

    /// Average score over many segmented comments (0.5 for an empty slice,
    /// matching the empty-comment convention).
    pub fn average_score(&self, comments: &[Vec<String>]) -> f64 {
        if comments.is_empty() {
            return 0.5;
        }
        comments.iter().map(|c| self.score(c)).sum::<f64>() / comments.len() as f64
    }

    /// Vocabulary size seen during training.
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// Encodes the model as a flat binary payload (the `sentiment` section
    /// of a `CATS-IO2` snapshot): codec version, feature order, the
    /// vocabulary as `(word, count)` entries in id order, then the
    /// log-likelihood arrays and scalars. The encoding is canonical —
    /// decode followed by encode reproduces the bytes exactly.
    pub fn to_io2_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(SENTIMENT_CODEC_VERSION);
        e.u8(match self.order {
            FeatureOrder::Unigram => 0,
            FeatureOrder::UnigramBigram => 1,
        });
        e.u64(self.vocab.len() as u64);
        for (_, word, count) in self.vocab.iter() {
            e.str(word);
            e.u64(count);
        }
        e.f64s(&self.log_pos);
        e.f64s(&self.log_neg);
        e.f64(self.log_prior_pos);
        e.f64(self.log_prior_neg);
        e.f64(self.log_unseen_pos);
        e.f64(self.log_unseen_neg);
        e.into_bytes()
    }

    /// Decodes a payload produced by [`SentimentModel::to_io2_payload`].
    pub fn from_io2_payload(bytes: &[u8]) -> Result<Self, String> {
        let mut d = Dec::new(bytes);
        let version = d.u32()?;
        if version != SENTIMENT_CODEC_VERSION {
            return Err(format!(
                "sentiment codec version {version} is newer than supported \
                 ({SENTIMENT_CODEC_VERSION})"
            ));
        }
        let order = match d.u8()? {
            0 => FeatureOrder::Unigram,
            1 => FeatureOrder::UnigramBigram,
            o => return Err(format!("unknown sentiment feature order {o}")),
        };
        let n_words = d.u64()? as usize;
        // Every entry costs at least its 4-byte length prefix and 8-byte
        // count: reject a lying count before trusting it for an allocation.
        if n_words.checked_mul(12).map_or(true, |b| b > d.remaining()) {
            return Err(format!("sentiment vocab count {n_words} exceeds payload size"));
        }
        let mut entries = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            let word = d.str()?;
            let count = d.u64()?;
            entries.push((word, count));
        }
        let vocab = Vocab::from_entries(entries)?;
        let log_pos = d.f64s()?;
        let log_neg = d.f64s()?;
        if log_pos.len() != n_words || log_neg.len() != n_words {
            return Err(format!(
                "sentiment likelihood arrays ({}, {}) do not match vocab size {n_words}",
                log_pos.len(),
                log_neg.len()
            ));
        }
        let model = Self {
            order,
            vocab,
            log_pos,
            log_neg,
            log_prior_pos: d.f64()?,
            log_prior_neg: d.f64()?,
            log_unseen_pos: d.f64()?,
            log_unseen_neg: d.f64()?,
        };
        if d.remaining() != 0 {
            return Err(format!("{} trailing bytes after sentiment payload", d.remaining()));
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn docs(texts: &[&str]) -> Vec<Vec<String>> {
        texts.iter().map(|t| t.split_whitespace().map(|w| w.to_string()).collect()).collect()
    }

    fn model() -> SentimentModel {
        SentimentModel::train(
            &docs(&[
                "good great item love it",
                "great quality good price",
                "love this good good",
                "fine item works great",
            ]),
            &docs(&[
                "bad awful broken return",
                "terrible bad quality awful",
                "broken on arrival bad",
                "worst item terrible return",
            ]),
        )
    }

    #[test]
    fn positive_text_scores_high() {
        let m = model();
        let s =
            m.score(&"good great love".split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(s > 0.8, "score {s}");
    }

    #[test]
    fn negative_text_scores_low() {
        let m = model();
        let s =
            m.score(&"bad awful broken".split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(s < 0.2, "score {s}");
    }

    #[test]
    fn mixed_text_scores_middling() {
        let m = model();
        let s = m.score(&"good bad".split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!((0.25..0.75).contains(&s), "score {s}");
    }

    #[test]
    fn unseen_only_text_is_near_half() {
        let m = model();
        let s = m.score(&"zzz qqq xxx".split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!((0.4..0.6).contains(&s), "score {s}");
    }

    #[test]
    fn empty_comment_is_exactly_half() {
        assert_eq!(model().score(&[]), 0.5);
    }

    #[test]
    fn scores_always_in_unit_interval() {
        let m = model();
        for text in ["good", "bad", "good good good good good good good good", "zzz", ""] {
            let toks: Vec<String> = text.split_whitespace().map(String::from).collect();
            let s = m.score(&toks);
            assert!((0.0..=1.0).contains(&s), "{text} -> {s}");
        }
    }

    #[test]
    fn long_positive_does_not_fully_saturate_vs_short() {
        // Length normalization: 50 repetitions should not push the score
        // meaningfully past a handful of repetitions.
        let m = model();
        let short: Vec<String> = vec!["good".into(); 3];
        let long: Vec<String> = vec!["good".into(); 50];
        let (ss, sl) = (m.score(&short), m.score(&long));
        assert!((ss - sl).abs() < 0.05, "short {ss} long {sl}");
    }

    #[test]
    fn average_score_averages() {
        let m = model();
        let cs = vec![
            "good great".split_whitespace().map(String::from).collect::<Vec<_>>(),
            "bad awful".split_whitespace().map(String::from).collect::<Vec<_>>(),
        ];
        let avg = m.average_score(&cs);
        let manual = (m.score(&cs[0]) + m.score(&cs[1])) / 2.0;
        assert!((avg - manual).abs() < 1e-12);
        assert_eq!(m.average_score(&[]), 0.5);
    }

    #[test]
    fn score_text_segments_first() {
        use cats_text::WhitespaceSegmenter;
        let m = model();
        let a = m.score_text("good great love", &WhitespaceSegmenter);
        let toks: Vec<String> = "good great love".split_whitespace().map(String::from).collect();
        assert!((a - m.score(&toks)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires both")]
    fn one_sided_training_rejected() {
        SentimentModel::train(&docs(&["good"]), &[]);
    }

    #[test]
    fn class_imbalance_shifts_prior_only_slightly_after_normalization() {
        // 9:1 positive-heavy training set; a neutral unseen comment should
        // still land near 0.5 because the prior is also length-normalized.
        let pos: Vec<Vec<String>> = (0..9).map(|_| vec!["good".to_string()]).collect();
        let neg = vec![vec!["bad".to_string()]];
        let m = SentimentModel::train(&pos, &neg);
        let s = m.score(&["zzz".to_string(), "yyy".to_string()]);
        assert!((0.35..0.65).contains(&s), "score {s}");
    }

    #[test]
    fn bigram_model_separates_negated_phrases() {
        // "bu hao" (not good) is negative; "hao" alone positive. A unigram
        // model sees "hao" in both classes; the bigram feature resolves it.
        let pos: Vec<Vec<String>> =
            (0..20).map(|_| docs(&["hao hen hao zhen hao"]).remove(0)).collect();
        let neg: Vec<Vec<String>> =
            (0..20).map(|_| docs(&["bu hao zhen bu hao tui"]).remove(0)).collect();
        let uni = SentimentModel::train_with_order(&pos, &neg, FeatureOrder::Unigram);
        let bi = SentimentModel::train_with_order(&pos, &neg, FeatureOrder::UnigramBigram);
        let probe: Vec<String> = "bu hao".split_whitespace().map(String::from).collect();
        assert!(
            bi.score(&probe) < uni.score(&probe) + 1e-9,
            "bigram model should be at least as negative on 'bu hao': uni {} bi {}",
            uni.score(&probe),
            bi.score(&probe)
        );
        assert!(bi.score(&probe) < 0.4, "{}", bi.score(&probe));
    }

    #[test]
    fn bigram_model_scores_stay_bounded() {
        let m = SentimentModel::train_with_order(
            &docs(&["good great", "great fine"]),
            &docs(&["bad awful", "awful poor"]),
            FeatureOrder::UnigramBigram,
        );
        for text in ["good great", "bad", "zzz yyy xxx", ""] {
            let toks: Vec<String> = text.split_whitespace().map(String::from).collect();
            let s = m.score(&toks);
            assert!((0.0..=1.0).contains(&s) && s.is_finite(), "{text} -> {s}");
        }
    }

    #[test]
    fn parallel_training_is_bit_identical_to_serial() {
        let pos = docs(&["good great item", "love this good", "fine works great", "great price"]);
        let neg = docs(&["bad awful broken", "terrible bad", "worst item return", "broken bad"]);
        for order in [FeatureOrder::Unigram, FeatureOrder::UnigramBigram] {
            let serial = SentimentModel::train_with_order(&pos, &neg, order);
            for threads in [1usize, 2, 8] {
                let par = cats_par::Parallelism::with_threads(threads);
                let parallel = SentimentModel::train_with_order_par(&pos, &neg, order, par);
                // The IO2 payload is canonical (vocabulary in id order),
                // so equal payloads mean equal models.
                assert_eq!(
                    serial.to_io2_payload(),
                    parallel.to_io2_payload(),
                    "order {order:?} threads {threads}"
                );
            }
        }
    }

    /// The scorer before [`LaneSums`]: it materialized the feature stream
    /// and summed it inline. The oracle of the differential test below.
    fn score_from_stream(m: &SentimentModel, tokens: &[String]) -> f64 {
        if tokens.is_empty() {
            return 0.5;
        }
        let mut lp_acc = [0.0f64; 8];
        let mut ln_acc = [0.0f64; 8];
        let mut n_feats = 0usize;
        for (f, tok) in feature_stream(tokens, m.order).iter().enumerate() {
            n_feats += 1;
            let (p, q) = match m.vocab.id(tok) {
                Some(TokenId(i)) => (m.log_pos[i as usize], m.log_neg[i as usize]),
                None => (m.log_unseen_pos, m.log_unseen_neg),
            };
            lp_acc[f % 8] += p;
            ln_acc[f % 8] += q;
        }
        let fold = |a: [f64; 8]| ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]));
        let n = n_feats as f64;
        let zp = fold(lp_acc) / n + m.log_prior_pos / n;
        let zn = fold(ln_acc) / n + m.log_prior_neg / n;
        1.0 / (1.0 + (TEMPERATURE * (zn - zp)).exp())
    }

    #[test]
    fn score_is_bit_identical_to_feature_stream_scorer() {
        const WORDS: &[&str] =
            &["good", "bad", "great", "awful", "很好", "!", "。", "\u{1}", "good\u{1}bad", "zzz"];
        let mut rng = StdRng::seed_from_u64(0x5E17);
        let mut doc = |len: usize| -> Vec<String> {
            (0..len)
                .map(|_| WORDS[(rng.next_u64() % WORDS.len() as u64) as usize].to_string())
                .collect()
        };
        let pos: Vec<Vec<String>> = (0..20).map(|i| doc(1 + i % 9)).collect();
        let neg: Vec<Vec<String>> = (0..20).map(|i| doc(1 + i % 7)).collect();
        let mut mismatches = 0;
        for order in [FeatureOrder::Unigram, FeatureOrder::UnigramBigram] {
            let m = SentimentModel::train_with_order(&pos, &neg, order);
            for case in 0..1500 {
                let len = match case % 10 {
                    0 => 0,
                    1 => 500 + case % 500,
                    _ => case % 37,
                };
                let toks = doc(len);
                if m.score(&toks).to_bits() != score_from_stream(&m, &toks).to_bits() {
                    mismatches += 1;
                    eprintln!("{order:?} case {case}: {toks:?}");
                }
            }
        }
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn io2_payload_roundtrips_bitwise_and_is_canonical() {
        let pos = docs(&["good great item", "love this good", "fine works great"]);
        let neg = docs(&["bad awful broken", "terrible bad", "worst item return"]);
        let probe: Vec<String> =
            "good bad zzz great".split_whitespace().map(String::from).collect();
        for order in [FeatureOrder::Unigram, FeatureOrder::UnigramBigram] {
            let m = SentimentModel::train_with_order(&pos, &neg, order);
            let bytes = m.to_io2_payload();
            let m2 = SentimentModel::from_io2_payload(&bytes).unwrap();
            assert_eq!(m.score(&probe).to_bits(), m2.score(&probe).to_bits(), "{order:?}");
            assert_eq!(m.vocab_len(), m2.vocab_len());
            assert_eq!(bytes, m2.to_io2_payload(), "canonical encoding {order:?}");
        }
    }

    #[test]
    fn io2_payload_rejects_corruption() {
        let m = model();
        let bytes = m.to_io2_payload();
        // Truncation anywhere must error, never panic.
        for cut in [0, 1, 4, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(SentimentModel::from_io2_payload(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Future codec version.
        let mut future = bytes.clone();
        future[0] = 99;
        let err = SentimentModel::from_io2_payload(&future).unwrap_err();
        assert!(err.contains("newer than supported"), "{err}");
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(SentimentModel::from_io2_payload(&long).unwrap_err().contains("trailing"));
    }
}
