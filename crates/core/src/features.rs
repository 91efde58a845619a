//! The feature extractor: the 11 features of Table II.
//!
//! Given an item's comments (segmented), computes:
//!
//! | # | name | definition |
//! |---|------|------------|
//! | 0 | `averagePositiveNumber` | mean count of *P*-words per comment |
//! | 1 | `averagePositive/NegativeNumber` | mean of `abs(#P − #N)` per comment |
//! | 2 | `uniqueWordRatio` | distinct words / total words over all comments |
//! | 3 | `averageSentiment` | mean sentiment score of the comments |
//! | 4 | `averageCommentEntropy` | mean token entropy per comment |
//! | 5 | `averageCommentLength` | mean character length per comment |
//! | 6 | `sumCommentLength` | total character length of all comments |
//! | 7 | `sumPunctuationNumber` | total punctuation tokens |
//! | 8 | `averagePunctuationRatio` | mean punctuation ratio per comment |
//! | 9 | `averageNgramNumber` | mean count of positive 2-grams per comment |
//! | 10 | `averageNgramRatio` | mean ratio of positive 2-grams per comment |
//!
//! Batch extraction is parallel across items via scoped threads — the
//! paper notes its extractor "is implemented in a parallelized style for
//! fast processing".

use crate::semantic::{SemanticAnalyzer, WordKey};
use cats_sentiment::LaneSums;
use cats_text::segment::is_punctuation_token;
use cats_text::{stats, Segmenter, WhitespaceSegmenter};
use serde::{Deserialize, Serialize};

/// Number of features (Table II).
pub const N_FEATURES: usize = 11;

/// Feature display names, in vector order.
pub const FEATURE_NAMES: [&str; N_FEATURES] = [
    "averagePositiveNumber",
    "averagePositive/NegativeNumber",
    "uniqueWordRatio",
    "averageSentiment",
    "averageCommentEntropy",
    "averageCommentLength",
    "sumCommentLength",
    "sumPunctuationNumber",
    "averagePunctuationRatio",
    "averageNgramNumber",
    "averageNgramRatio",
];

/// One item's feature row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector(pub [f64; N_FEATURES]);

impl FeatureVector {
    /// The row as a slice (classifier input shape).
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Named access by Table II name; `None` for unknown names.
    pub fn get(&self, name: &str) -> Option<f64> {
        FEATURE_NAMES.iter().position(|&n| n == name).map(|i| self.0[i])
    }

    /// Whether every component is finite (no NaN/±∞). The detector
    /// quarantines rows that fail this instead of feeding them to the
    /// classifier.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }
}

/// Training-time reference of the 11 feature distributions: per feature,
/// a sorted (and down-sampled to at most [`FeatureReferenceSet::MAX_SAMPLE`]
/// values) sample of the finite training rows. Persisted inside the model
/// artifact (the IO2 `featref` section) so a serving process can anchor a
/// `cats_obs::DriftMonitor` on exactly the distribution the deployed
/// model was trained against.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureReferenceSet {
    /// Training rows the reference was built from (before down-sampling).
    pub rows: u64,
    /// Per-feature sorted samples, in [`FEATURE_NAMES`] order.
    pub per_feature: Vec<Vec<f64>>,
}

impl FeatureReferenceSet {
    /// Per-feature sample cap. Down-sampling keeps evenly spaced order
    /// statistics (quantiles), which is all PSI binning and the KS
    /// statistic consume.
    pub const MAX_SAMPLE: usize = 256;

    /// Builds the reference from training feature rows. Non-finite
    /// values are dropped per feature; columns longer than
    /// [`Self::MAX_SAMPLE`] keep evenly strided order statistics
    /// including both extremes.
    pub fn from_rows(rows: &[FeatureVector]) -> Self {
        let mut per_feature = Vec::with_capacity(N_FEATURES);
        for f in 0..N_FEATURES {
            let mut col: Vec<f64> = rows.iter().map(|r| r.0[f]).filter(|x| x.is_finite()).collect();
            col.sort_by(f64::total_cmp);
            if col.len() > Self::MAX_SAMPLE {
                let n = col.len();
                col = (0..Self::MAX_SAMPLE)
                    .map(|i| col[i * (n - 1) / (Self::MAX_SAMPLE - 1)])
                    .collect();
            }
            per_feature.push(col);
        }
        Self { rows: rows.len() as u64, per_feature }
    }

    /// Whether the reference carries no usable samples.
    pub fn is_empty(&self) -> bool {
        self.per_feature.iter().all(Vec::is_empty)
    }

    /// The reference as named `cats-obs` monitor inputs, in
    /// [`FEATURE_NAMES`] order.
    pub fn references(&self) -> Vec<cats_obs::FeatureReference> {
        self.per_feature
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let name = FEATURE_NAMES.get(i).copied().unwrap_or("extra");
                cats_obs::FeatureReference::new(name, s.clone())
            })
            .collect()
    }
}

/// An item's comments, pre-segmented — the extractor's input unit.
#[derive(Debug, Clone, Default)]
pub struct ItemComments {
    /// Raw comment texts.
    pub texts: Vec<String>,
    /// Segmentation results, parallel to `texts`.
    pub tokens: Vec<Vec<String>>,
}

impl ItemComments {
    /// Segments raw comment texts with the default whitespace segmenter.
    pub fn from_texts<'a, I: IntoIterator<Item = &'a str>>(texts: I) -> Self {
        Self::from_texts_with(texts, &WhitespaceSegmenter)
    }

    /// Segments raw comment texts with an explicit segmenter — e.g. a
    /// `cats_text::DictSegmenter` for delimiter-free (Chinese-style)
    /// platforms. Swapping the segmenter is the only change required to
    /// point CATS at a platform with a different comment orthography.
    pub fn from_texts_with<'a, I: IntoIterator<Item = &'a str>>(
        texts: I,
        segmenter: &impl Segmenter,
    ) -> Self {
        let texts = texts.into_iter();
        let (n, _) = texts.size_hint();
        let mut out = Self { texts: Vec::with_capacity(n), tokens: Vec::with_capacity(n) };
        for t in texts {
            out.tokens.push(segmenter.segment(t));
            out.texts.push(t.to_owned());
        }
        out
    }

    /// Number of comments.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Whether the item has no comments.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }
}

/// An item's segmented comments as the extraction kernel reads them:
/// comment `i` is its raw text and its tokens.
pub trait ItemView {
    /// A token: an owned `String`, or a slice of the comment's text.
    type Token: AsRef<str>;

    /// Number of comments.
    fn comment_count(&self) -> usize;

    /// Raw text and tokens of comment `i`.
    fn comment(&self, i: usize) -> (&str, &[Self::Token]);
}

impl ItemView for ItemComments {
    type Token = String;

    fn comment_count(&self) -> usize {
        self.len()
    }

    fn comment(&self, i: usize) -> (&str, &[String]) {
        (&self.texts[i], &self.tokens[i])
    }
}

impl<V: ItemView + ?Sized> ItemView for &V {
    type Token = V::Token;

    fn comment_count(&self) -> usize {
        (**self).comment_count()
    }

    fn comment(&self, i: usize) -> (&str, &[V::Token]) {
        (**self).comment(i)
    }
}

/// Raw comment texts segmented in one scan into slices of those texts:
/// no text or token is copied. What [`crate::Detector::detect`] builds
/// for an item given as its raw texts.
#[derive(Debug)]
pub struct SegmentedTexts<'a> {
    texts: &'a [String],
    /// The tokens of every comment, in order.
    tokens: Vec<&'a str>,
    /// Comment `i` owns `tokens[ends[i]..ends[i + 1]]`; `ends[0] == 0`.
    ends: Vec<usize>,
}

impl<'a> SegmentedTexts<'a> {
    /// Segments `texts` with `segmenter`.
    pub(crate) fn new(texts: &'a [String], segmenter: &impl Segmenter) -> Self {
        let mut tokens = Vec::new();
        let mut ends = Vec::with_capacity(texts.len() + 1);
        ends.push(0);
        for text in texts {
            segmenter.segment_borrowed(text, &mut tokens);
            ends.push(tokens.len());
        }
        Self { texts, tokens, ends }
    }
}

impl<'a> ItemView for SegmentedTexts<'a> {
    type Token = &'a str;

    fn comment_count(&self) -> usize {
        self.texts.len()
    }

    fn comment(&self, i: usize) -> (&str, &[&'a str]) {
        (&self.texts[i], &self.tokens[self.ends[i]..self.ends[i + 1]])
    }
}

/// An item [`crate::Detector::detect`] accepts: already segmented
/// ([`ItemComments`]), or its raw comment texts (`[String]`),
/// which detect segments with [`WhitespaceSegmenter`] as part of the
/// item's own work — so segmentation runs on the same pool as extraction.
pub trait DetectItem: Sync {
    /// The segmented form.
    type View<'a>: ItemView
    where
        Self: 'a;

    /// Number of comments, known without segmenting.
    fn comment_count(&self) -> usize;

    /// The item segmented (a borrow when it already is).
    fn view(&self) -> Self::View<'_>;
}

impl DetectItem for ItemComments {
    type View<'a> = &'a ItemComments;

    fn comment_count(&self) -> usize {
        self.len()
    }

    fn view(&self) -> &ItemComments {
        self
    }
}

impl DetectItem for [String] {
    type View<'a> = SegmentedTexts<'a>;

    fn comment_count(&self) -> usize {
        self.len()
    }

    fn view(&self) -> SegmentedTexts<'_> {
        SegmentedTexts::new(self, &WhitespaceSegmenter)
    }
}

impl<T: DetectItem + ?Sized> DetectItem for &T {
    type View<'a>
        = T::View<'a>
    where
        Self: 'a;

    fn comment_count(&self) -> usize {
        (**self).comment_count()
    }

    fn view(&self) -> T::View<'_> {
        (**self).view()
    }
}

/// Extracts the 11-feature row for one item.
///
/// An item with zero comments yields the natural zero/neutral values
/// (sentiment 0.5, uniqueWordRatio 1.0, everything else 0) — the detector
/// filters such items out before classification anyway.
pub fn extract(item: &ItemComments, analyzer: &SemanticAnalyzer) -> FeatureVector {
    extract_view(item, analyzer)
}

/// One comment's terms of the 11 features: the per-comment half of the
/// kernel. An item's row is the [`TermSums`] of its comments' terms,
/// divided by its distinct and total words.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommentTerms {
    /// Words in *P*.
    pub positive: usize,
    /// `|#P − #N|`.
    pub polarity_gap: usize,
    /// Sentiment score.
    pub sentiment: f64,
    /// Token entropy in bits.
    pub entropy: f64,
    /// Characters, ASCII whitespace excluded.
    pub chars: usize,
    /// Punctuation tokens.
    pub punctuation: usize,
    /// Punctuation tokens over words (0 for no words).
    pub punctuation_ratio: f64,
    /// Bigrams with a word in *P*.
    pub positive_bigrams: usize,
    /// Positive bigrams over bigram positions (0 for fewer than two
    /// words).
    pub ngram_ratio: f64,
    /// Tokens.
    pub words: usize,
}

/// The per-item fold of [`CommentTerms`]: every sum starts at `0.0` (or
/// 0) and adds the terms in comment order, so equal term sequences give
/// equal rows to the bit, whoever computed the terms.
#[derive(Debug, Clone, Copy, Default)]
pub struct TermSums {
    comments: usize,
    words: usize,
    positive: f64,
    polarity_gap: f64,
    sentiment: f64,
    entropy: f64,
    chars: usize,
    punctuation: usize,
    punctuation_ratio: f64,
    positive_bigrams: f64,
    ngram_ratio: f64,
}

impl TermSums {
    /// Adds the next comment's terms.
    pub fn add(&mut self, t: &CommentTerms) {
        self.comments += 1;
        self.words += t.words;
        self.positive += t.positive as f64;
        self.polarity_gap += t.polarity_gap as f64;
        self.sentiment += t.sentiment;
        self.entropy += t.entropy;
        self.chars += t.chars;
        self.punctuation += t.punctuation;
        self.punctuation_ratio += t.punctuation_ratio;
        self.positive_bigrams += t.positive_bigrams as f64;
        self.ngram_ratio += t.ngram_ratio;
    }

    /// Comments added.
    pub fn comments(&self) -> usize {
        self.comments
    }

    /// Stage 1's evidence: some word in *P*. A positive 2-gram contains
    /// a positive word, so this is the whole "no positive n-grams or
    /// words" test.
    pub fn has_positive_evidence(&self) -> bool {
        self.positive > 0.0
    }

    /// The feature row, given the number of distinct words over the
    /// comments added. No comments give the neutral row of
    /// [`extract`].
    pub fn finish(&self, distinct_words: usize) -> FeatureVector {
        if self.comments == 0 {
            let mut v = [0.0; N_FEATURES];
            v[2] = 1.0; // uniqueWordRatio of nothing
            v[3] = 0.5; // neutral sentiment
            return FeatureVector(v);
        }
        let n = self.comments as f64;
        let unique = if self.words == 0 { 1.0 } else { distinct_words as f64 / self.words as f64 };
        FeatureVector([
            self.positive / n,
            self.polarity_gap / n,
            unique,
            self.sentiment / n,
            self.entropy / n,
            self.chars as f64 / n,
            self.chars as f64,
            self.punctuation as f64,
            self.punctuation_ratio / n,
            self.positive_bigrams / n,
            self.ngram_ratio / n,
        ])
    }
}

/// The terms of one comment given as its text and tokens (slices of
/// the text, or any strings), handing `on_word` the key of each token in
/// order: how the kernel counts it among the item's distinct words.
pub fn comment_terms<'t, T: AsRef<str>>(
    text: &str,
    tokens: &'t [T],
    analyzer: &SemanticAnalyzer,
    mut on_word: impl FnMut(WordKey<'t>),
) -> CommentTerms {
    let mut counter = stats::TokenCounter::with_id_capacity(tokens.len(), tokens.len());
    counted_terms(text, tokens, analyzer, &mut counter, &mut String::new(), &mut on_word)
}

/// The per-comment step of the kernel. Each token costs one probe of the
/// analyzer's token table, which hashes its string once and returns its
/// entry and, for a known word, its dense id; then one insert into
/// `counter`, keyed by that id (an integer hash) or, for an unknown word,
/// by the string; `on_word` gets the same key. The counter gives the
/// comment's entropy and keeps the item's distinct words. `bigram_key`
/// is scratch for the sentiment model's bigram features.
fn counted_terms<'t, T: AsRef<str>>(
    text: &str,
    tokens: &'t [T],
    analyzer: &SemanticAnalyzer,
    counter: &mut stats::TokenCounter<'t>,
    bigram_key: &mut String,
    on_word: &mut impl FnMut(WordKey<'t>),
) -> CommentTerms {
    let table = analyzer.token_table();
    let sentiment = analyzer.sentiment();
    let (mut pos, mut neg, mut punct, mut pos_bigrams) = (0usize, 0usize, 0usize, 0usize);
    let mut prev_pos = false;
    let mut sums = LaneSums::default();
    for (i, t) in tokens.iter().enumerate() {
        let t = t.as_ref();
        let (id, info) = table.lookup(t);
        pos += usize::from(info.positive);
        neg += usize::from(info.negative);
        // A bigram is in G when either of its words is in P.
        pos_bigrams += usize::from(i > 0 && (prev_pos || info.positive));
        prev_pos = info.positive;
        punct += usize::from(is_punctuation_token(t));
        sums.add(info.log_likelihoods);
        match id {
            Some(id) => {
                counter.add_id(id);
                on_word(WordKey::Known(id));
            }
            None => {
                counter.add(t);
                on_word(WordKey::Unknown(t));
            }
        }
    }
    sentiment.add_bigrams(tokens, &mut sums, bigram_key);

    let words = tokens.len();
    let bigram_positions = words.saturating_sub(1);
    CommentTerms {
        positive: pos,
        polarity_gap: pos.abs_diff(neg),
        sentiment: sentiment.finish(&sums),
        entropy: counter.end_comment(words).0,
        chars: stats::char_length(text),
        punctuation: punct,
        punctuation_ratio: if words == 0 { 0.0 } else { punct as f64 / words as f64 },
        positive_bigrams: pos_bigrams,
        ngram_ratio: if bigram_positions == 0 {
            0.0
        } else {
            pos_bigrams as f64 / bigram_positions as f64
        },
        words,
    }
}

/// The extraction kernel, over any [`ItemView`]: owned tokens
/// ([`extract`]) or slices of the raw texts ([`crate::Detector::detect`]).
pub(crate) fn extract_view<V: ItemView + ?Sized>(
    item: &V,
    analyzer: &SemanticAnalyzer,
) -> FeatureVector {
    let (sums, distinct) = sum_view(item, analyzer);
    sums.finish(distinct)
}

/// The [`TermSums`] of an item's comments and its number of distinct
/// words: one pass over each comment's tokens, one counter for the item.
pub(crate) fn sum_view<V: ItemView + ?Sized>(
    item: &V,
    analyzer: &SemanticAnalyzer,
) -> (TermSums, usize) {
    let n = item.comment_count();
    let comment_lens = || (0..n).map(|i| item.comment(i).1.len());
    let total_words: usize = comment_lens().sum();
    let longest = comment_lens().max().unwrap_or(0);
    let mut counter = stats::TokenCounter::with_id_capacity(total_words, longest);
    let mut bigram_key = String::new();
    let mut sums = TermSums::default();
    for c in 0..n {
        let (text, toks) = item.comment(c);
        sums.add(&counted_terms(text, toks, analyzer, &mut counter, &mut bigram_key, &mut |_| {}));
    }
    (sums, counter.distinct())
}

/// Parallel batch extraction: one feature row per item, order-preserving.
///
/// Runs on the `cats-par` work-stealing pool (`n_threads` workers; 0 means
/// "use available parallelism"), so items with heavily skewed comment
/// counts rebalance instead of straggling one static chunk. Accepts owned
/// items or references (`&[ItemComments]` and `&[&ItemComments]` both
/// work), and the output is identical at every thread count.
pub fn extract_batch<T>(
    items: &[T],
    analyzer: &SemanticAnalyzer,
    n_threads: usize,
) -> Vec<FeatureVector>
where
    T: std::borrow::Borrow<ItemComments> + Sync,
{
    map_items(n_threads, items.len(), |i| extract(items[i].borrow(), analyzer))
}

/// Runs `per_item(i)` for every `i in 0..n` on the `cats-par` pool, with
/// results in index order: the `cats.core.extract` span around the whole
/// map and one `cats.core.extract.item` span per item. Item spans record
/// from worker threads through the thread-local stack, so they get real
/// per-item latency percentiles without locking. Both feature paths,
/// [`extract_batch`] and [`crate::Detector::detect`], run through here,
/// so the item span always covers segmentation (a no-op for
/// [`ItemComments`]) plus extraction.
pub(crate) fn map_items<R, F>(n_threads: usize, n: usize, per_item: F) -> Vec<R>
where
    R: Send + Sync,
    F: Fn(usize) -> R + Sync,
{
    let _span = cats_obs::span!("cats.core.extract", { n });
    let par = cats_par::Parallelism::with_threads(n_threads);
    cats_par::map_indexed(par, n, |i| {
        let _item_span = cats_obs::span!("cats.core.extract.item");
        per_item(i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cats_sentiment::SentimentModel;
    use cats_text::Lexicon;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn analyzer() -> SemanticAnalyzer {
        let lex = Lexicon::new(["hao".to_string(), "zan".to_string()], ["cha".to_string()]);
        let docs = |texts: &[&str]| -> Vec<Vec<String>> {
            texts.iter().map(|t| t.split_whitespace().map(String::from).collect()).collect()
        };
        let sent = SentimentModel::train(
            &docs(&["hao zan hao", "zan zan hao"]),
            &docs(&["cha cha", "cha zaogao"]),
        );
        SemanticAnalyzer::from_parts(lex, sent)
    }

    #[test]
    fn feature_names_match_count() {
        assert_eq!(FEATURE_NAMES.len(), N_FEATURES);
        let v = FeatureVector([0.0; N_FEATURES]);
        assert_eq!(v.as_slice().len(), N_FEATURES);
    }

    #[test]
    fn named_access() {
        let mut raw = [0.0; N_FEATURES];
        raw[6] = 42.0;
        let v = FeatureVector(raw);
        assert_eq!(v.get("sumCommentLength"), Some(42.0));
        assert_eq!(v.get("nonsense"), None);
    }

    #[test]
    fn word_level_features_count_lexicon_hits() {
        let a = analyzer();
        // comment 1: "hao hao cha" → pos 2, |2-1|=1
        // comment 2: "zan x" → pos 1, |1-0|=1
        let item = ItemComments::from_texts(["hao hao cha", "zan x"]);
        let v = extract(&item, &a);
        assert!((v.get("averagePositiveNumber").unwrap() - 1.5).abs() < 1e-12);
        assert!((v.get("averagePositive/NegativeNumber").unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unique_word_ratio_is_global_over_item() {
        let a = analyzer();
        // words: hao, hao | hao → 1 distinct / 3 total
        let item = ItemComments::from_texts(["hao hao", "hao"]);
        let v = extract(&item, &a);
        assert!((v.get("uniqueWordRatio").unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn length_features_sum_and_average() {
        let a = analyzer();
        let item = ItemComments::from_texts(["abcd ef", "gh"]);
        let v = extract(&item, &a);
        // chars (no whitespace): 6 and 2
        assert!((v.get("averageCommentLength").unwrap() - 4.0).abs() < 1e-12);
        assert!((v.get("sumCommentLength").unwrap() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn punctuation_features() {
        let a = analyzer();
        let item = ItemComments::from_texts(["hao ! !", "x"]);
        let v = extract(&item, &a);
        assert!((v.get("sumPunctuationNumber").unwrap() - 2.0).abs() < 1e-12);
        // ratios: 2/3 and 0 → mean 1/3
        assert!((v.get("averagePunctuationRatio").unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ngram_features_count_positive_bigrams() {
        let a = analyzer();
        // "hen hao zan": bigrams (hen,hao)+, (hao,zan)+ → count 2, ratio 1.0
        // "x y": none → 0, 0
        let item = ItemComments::from_texts(["hen hao zan", "x y"]);
        let v = extract(&item, &a);
        assert!((v.get("averageNgramNumber").unwrap() - 1.0).abs() < 1e-12);
        assert!((v.get("averageNgramRatio").unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sentiment_feature_averages_comment_scores() {
        let a = analyzer();
        let item = ItemComments::from_texts(["hao zan", "cha cha"]);
        let v = extract(&item, &a);
        let s1 = a.sentiment().score(&item.tokens[0]);
        let s2 = a.sentiment().score(&item.tokens[1]);
        assert!((v.get("averageSentiment").unwrap() - (s1 + s2) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_item_yields_neutral_row() {
        let a = analyzer();
        let v = extract(&ItemComments::default(), &a);
        assert_eq!(v.get("uniqueWordRatio"), Some(1.0));
        assert_eq!(v.get("averageSentiment"), Some(0.5));
        assert_eq!(v.get("sumCommentLength"), Some(0.0));
    }

    #[test]
    fn all_features_finite() {
        let a = analyzer();
        let item = ItemComments::from_texts(["hao ， zan cha ! hao", "", "x"]);
        let v = extract(&item, &a);
        assert!(v.as_slice().iter().all(|x| x.is_finite()), "{v:?}");
    }

    #[test]
    fn batch_matches_sequential_and_preserves_order() {
        let a = analyzer();
        let items: Vec<ItemComments> = (0..37)
            .map(|i| ItemComments::from_texts([format!("hao w{i} zan").as_str(), "cha x"]))
            .collect();
        let seq: Vec<FeatureVector> = items.iter().map(|it| extract(it, &a)).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = extract_batch(&items, &a, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn batch_on_empty_input() {
        let a = analyzer();
        assert!(extract_batch::<ItemComments>(&[], &a, 4).is_empty());
    }

    /// The per-feature composition the single-pass kernel replaced, built
    /// from the public helpers: the oracle of the differential test below.
    fn extract_oracle(item: &ItemComments, analyzer: &SemanticAnalyzer) -> FeatureVector {
        use cats_text::ngram;
        let n = item.len();
        if n == 0 {
            let mut v = [0.0; N_FEATURES];
            v[2] = 1.0;
            v[3] = 0.5;
            return FeatureVector(v);
        }
        let nf = n as f64;
        let lex = analyzer.lexicon();
        let mut distinct = std::collections::HashSet::new();
        let mut total_words = 0usize;
        let mut v = [0.0; N_FEATURES];
        let (mut sum_chars, mut sum_punct) = (0usize, 0usize);
        for (text, toks) in item.texts.iter().zip(&item.tokens) {
            v[0] += lex.positive_count(toks) as f64;
            v[1] += lex.positive_count(toks).abs_diff(lex.negative_count(toks)) as f64;
            for t in toks {
                distinct.insert(t.as_str());
            }
            total_words += toks.len();
            v[3] += analyzer.sentiment().score(toks);
            let st = stats::CommentStats::compute(text, toks);
            v[4] += st.entropy;
            sum_chars += st.chars;
            sum_punct += st.punctuation;
            v[8] += st.punctuation_ratio;
            v[9] += ngram::positive_bigram_count(toks, lex) as f64;
            v[10] += ngram::positive_bigram_ratio(toks, lex);
        }
        FeatureVector([
            v[0] / nf,
            v[1] / nf,
            if total_words == 0 { 1.0 } else { distinct.len() as f64 / total_words as f64 },
            v[3] / nf,
            v[4] / nf,
            sum_chars as f64 / nf,
            sum_chars as f64,
            sum_punct as f64,
            v[8] / nf,
            v[9] / nf,
            v[10] / nf,
        ])
    }

    fn same_bits(a: &FeatureVector, b: &FeatureVector) -> bool {
        a.0.iter().zip(&b.0).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Words of the differential cases: lexicon words, multi-byte and
    /// punctuation tokens, and tokens carrying the bigram separator —
    /// `"hao\u{1}zan"` spells the bigram feature of ("hao", "zan").
    const WORDS: &[&str] = &[
        "hao",
        "zan",
        "cha",
        "lan",
        "很好",
        "差评",
        "x",
        "y",
        "!",
        "。",
        "，",
        "！！",
        "\u{1}",
        "hao\u{1}zan",
        "🙂",
        "é",
    ];

    fn seeded_analyzer(order: cats_sentiment::FeatureOrder, rng: &mut StdRng) -> SemanticAnalyzer {
        let lex = Lexicon::new(
            ["hao", "zan", "很好", "🙂"].map(String::from),
            ["cha", "lan", "差评"].map(String::from),
        );
        let mut docs = |k: usize| -> Vec<Vec<String>> {
            (0..k)
                .map(|_| {
                    let len = 1 + (rng.next_u64() % 12) as usize;
                    (0..len)
                        .map(|_| WORDS[(rng.next_u64() % WORDS.len() as u64) as usize].to_string())
                        .collect()
                })
                .collect()
        };
        let (pos, neg) = (docs(30), docs(30));
        SemanticAnalyzer::from_parts(lex, SentimentModel::train_with_order(&pos, &neg, order))
    }

    /// A word outside the lexicon and the sentiment vocabulary of
    /// [`seeded_analyzer`]: numbered near misses of its words.
    fn unknown_word(k: u64) -> String {
        match k % 3 {
            0 => format!("hao{k}"),
            1 => format!("差评{k}"),
            _ => format!("w{k}x"),
        }
    }

    fn seeded_item(case: usize, rng: &mut StdRng) -> ItemComments {
        let comments = match case % 6 {
            0 => (rng.next_u64() % 2) as usize,
            _ => 1 + (rng.next_u64() % 12) as usize,
        };
        // Every fourth item is unknown-heavy: about half its words come
        // from a pool of unknown words shared by its comments, so they
        // repeat within and across comments.
        let unknown_pool = (case % 4 == 3).then(|| 1 + (rng.next_u64() % 40));
        let texts: Vec<String> = (0..comments)
            .map(|c| {
                let len = match (case + c) % 7 {
                    0 => 0,
                    1 => 200 + (rng.next_u64() % 300) as usize,
                    _ => (rng.next_u64() % 30) as usize,
                };
                // Narrow word ranges give heavily repeated comments; the
                // range starting at "!" gives punctuation-only ones.
                let (lo, hi) = match (case + c) % 5 {
                    0 => (0, 2),
                    1 => (8, 12),
                    _ => (0, WORDS.len()),
                };
                let sep = if (case + c) % 3 == 0 { "" } else { " " };
                (0..len)
                    .map(|_| match unknown_pool {
                        Some(pool) if rng.next_u64() % 2 == 0 => {
                            unknown_word(rng.next_u64() % pool)
                        }
                        _ => WORDS[lo + (rng.next_u64() % (hi - lo) as u64) as usize].to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join(sep)
            })
            .collect();
        ItemComments::from_texts(texts.iter().map(String::as_str))
    }

    /// An item with more than 10,000 distinct unknown words, each used
    /// twice, between known words.
    fn item_of_many_unknown_words(rng: &mut StdRng) -> ItemComments {
        let texts: Vec<String> = (0..48u64)
            .map(|c| {
                (0..700u64)
                    .map(|i| match i % 3 {
                        0 => WORDS[(rng.next_u64() % WORDS.len() as u64) as usize].to_string(),
                        _ => unknown_word(c % 24 * 1000 + i),
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        let item = ItemComments::from_texts(texts.iter().map(String::as_str));
        let distinct: std::collections::HashSet<&String> = item.tokens.iter().flatten().collect();
        assert!(distinct.len() > 10_000, "{} distinct words", distinct.len());
        item
    }

    /// Items whose `extract` differs from the per-feature oracle in any
    /// bit: `cases` seeded items for each of two analyzers per feature
    /// order, and one item of many unknown words per analyzer.
    fn kernel_mismatches(seed: u64, cases: usize) -> usize {
        use cats_sentiment::FeatureOrder;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mismatches = 0;
        for order in [FeatureOrder::Unigram, FeatureOrder::UnigramBigram] {
            for _ in 0..2 {
                let a = seeded_analyzer(order, &mut rng);
                let big = item_of_many_unknown_words(&mut rng);
                let items = (0..cases).map(|case| (case, seeded_item(case, &mut rng)));
                for (case, item) in items.chain([(cases, big)]) {
                    let (got, want) = (extract(&item, &a), extract_oracle(&item, &a));
                    if !same_bits(&got, &want) {
                        mismatches += 1;
                        eprintln!("seed {seed:#x} {order:?} case {case}: {got:?} vs {want:?}");
                    }
                }
            }
        }
        mismatches
    }

    #[test]
    fn extract_is_bit_identical_to_per_feature_oracle() {
        assert_eq!(kernel_mismatches(0xCA75, 250), 0);
    }

    /// 100 times the tier-1 cases, on fresh seeds; run with `--ignored`.
    #[test]
    #[ignore]
    fn extract_is_bit_identical_to_per_feature_oracle_on_many_seeds() {
        let mismatches: usize = (0..100).map(|round| kernel_mismatches(0xCA75 + round, 250)).sum();
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn extract_matches_oracle_after_io2_restore() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let a = seeded_analyzer(cats_sentiment::FeatureOrder::UnigramBigram, &mut rng);
        let (lexicon, sentiment) = a.to_io2_sections();
        let b = SemanticAnalyzer::from_io2_sections(&lexicon, &sentiment).unwrap();
        for case in 0..100 {
            let item = seeded_item(case, &mut rng);
            assert!(same_bits(&extract(&item, &b), &extract_oracle(&item, &a)), "case {case}");
        }
    }

    #[test]
    fn borrowed_tokens_extract_bit_identically() {
        let mut rng = StdRng::seed_from_u64(0x5E67);
        for order in
            [cats_sentiment::FeatureOrder::Unigram, cats_sentiment::FeatureOrder::UnigramBigram]
        {
            let a = seeded_analyzer(order, &mut rng);
            for case in 0..200 {
                let item = seeded_item(case, &mut rng);
                let view = SegmentedTexts::new(&item.texts, &WhitespaceSegmenter);
                assert_eq!(view.comment_count(), item.len());
                assert!(same_bits(&extract_view(&view, &a), &extract(&item, &a)), "case {case}");
            }
        }
    }

    #[test]
    fn batch_accepts_references() {
        let a = analyzer();
        let items: Vec<ItemComments> =
            (0..5).map(|i| ItemComments::from_texts([format!("hao w{i}").as_str()])).collect();
        let refs: Vec<&ItemComments> = items.iter().collect();
        assert_eq!(extract_batch(&refs, &a, 2), extract_batch(&items, &a, 2));
    }
}
