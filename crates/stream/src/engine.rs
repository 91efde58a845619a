//! The streaming engine: ingest → windows → incremental feature sums →
//! verdicts.
//!
//! One [`StreamEngine`] owns the per-item window state of a comment
//! firehose. Ingest is single-threaded and O(1) per event (ring
//! updates, a capped deque push of the text); scoring happens in
//! *flushes* on the virtual stream clock, where every item touched
//! since the last flush is re-scored:
//!
//! 1. each windowed comment gets its 11-feature terms
//!    ([`cats_core::features::CommentTerms`]) once per model: the first
//!    flush that sees it segments it and runs the kernel's per-comment
//!    step, and later flushes reuse the cached terms. A per-item word
//!    multiset, added to when a comment gets terms and taken from when
//!    it leaves the window, gives `uniqueWordRatio`'s distinct words;
//! 2. the item's row is the kernel's fold of those terms in window
//!    order — bit-identical to `features::extract` over the window —
//!    and goes through the detector's own stage rules
//!    ([`cats_core::Detector::filter_decision`]) and
//!    [`cats_core::Detector::score_row`] (one FlatForest descent);
//! 3. each content score is fused with the item's velocity risk
//!    ([`cats_core::fusion`]) and emitted as a [`StreamVerdict`].
//!
//! A flush is one serial pass over the dirty items in id order, on the
//! calling thread: it computes only the terms of comments new since the
//! last one, too little work to pay for a thread pool.
//!
//! ## Memory bound
//!
//! Per-item state is O(1): two fixed-size rings plus a comment deque
//! capped at [`StreamConfig::max_window_comments`] entries (text,
//! cached terms and word keys) and the word multiset of those comments. Items idle
//! longer than [`StreamConfig::idle_evict_ms`] are dropped at flush, so
//! resident state is bounded by the number of items *active within one
//! eviction horizon* — never by trace length. `exp_stream` asserts
//! this by replaying a 2× longer trace and requiring the same peak
//! footprint.

use crate::window::{mix_user, Ring};
use cats_core::features::{comment_terms, CommentTerms, TermSums};
use cats_core::fusion::{fuse_scores, velocity_risk, StreamVerdict, VelocityFeatures};
use cats_core::{
    CatsPipeline, FeatureVector, FilterDecision, ItemComments, SemanticAnalyzer, WordKey,
};
use cats_obs::{Counter, Histogram};
use cats_text::hash::BuildWordHasher;
use cats_text::{Segmenter, WhitespaceSegmenter};
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// Streaming engine configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Long (trend) window span in ms. Must be a multiple of
    /// `long_buckets`.
    pub long_window_ms: u64,
    /// Buckets in the long ring.
    pub long_buckets: usize,
    /// Short (burst) window span in ms. Must be a multiple of
    /// `short_buckets`.
    pub short_window_ms: u64,
    /// Buckets in the short ring.
    pub short_buckets: usize,
    /// Newest comments kept per item for content scoring; the memory
    /// cap on the only unbounded input (text).
    pub max_window_comments: usize,
    /// Virtual ms between scoring flushes.
    pub flush_interval_ms: u64,
    /// Items idle this long are evicted at flush.
    pub idle_evict_ms: u64,
    /// Weight of velocity evidence in score fusion.
    pub fusion_weight: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            long_window_ms: 300_000,
            long_buckets: 30,
            short_window_ms: 30_000,
            short_buckets: 10,
            max_window_comments: 64,
            flush_interval_ms: 10_000,
            idle_evict_ms: 600_000,
            fusion_weight: cats_core::DEFAULT_FUSION_WEIGHT,
        }
    }
}

/// One comment event entering the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct CommentEvent {
    /// Event time on the stream clock (ms).
    pub at_ms: u64,
    /// Target item.
    pub item_id: u64,
    /// Commenting user.
    pub user_id: u64,
    /// The item's public sales volume (stage-1 filter input).
    pub sales_volume: u64,
    /// Raw comment text.
    pub text: String,
}

/// Outcome of ingesting one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Recorded into the item's windows.
    Accepted,
    /// Older than the long window could absorb — dropped (counted in
    /// `cats.stream.late_dropped`).
    LateDropped,
}

/// One dirty item's windowed scoring inputs, drained at a flush
/// boundary — everything a scorer needs except the model itself.
#[derive(Debug, Clone)]
pub struct WindowSlice {
    /// Item id.
    pub item_id: u64,
    /// Highest public sales volume seen on the stream for this item.
    pub sales_volume: u64,
    /// The item's windowed comments (texts + tokens).
    pub comments: ItemComments,
    /// Velocity feature row at the flush watermark.
    pub velocity: VelocityFeatures,
}

/// One windowed comment.
struct WindowComment {
    at_ms: u64,
    text: Box<str>,
    /// What the first flush that saw the comment computed under the
    /// item's `terms_of` analyzer. The comment's words are in the item's
    /// `words` exactly while this is set.
    scored: Option<Scored>,
}

/// A comment's feature terms and the keys of its words.
struct Scored {
    terms: CommentTerms,
    /// One per token: its [`WordKey::Known`] id, or [`UNKNOWN_WORD`],
    /// whose word is the token itself.
    keys: Box<[u32]>,
}

/// The key of a token the model does not know. Token-table ids count
/// the model's words, which are fewer.
const UNKNOWN_WORD: u32 = u32::MAX;

/// A multiset of words, keyed as the kernel counts them ([`WordKey`]):
/// the distinct words of `uniqueWordRatio`, kept up to date as comments
/// enter and leave a window. Unknown words are request strings, so
/// their map keeps the std keyed hasher; known words are table ids.
#[derive(Default)]
struct WordBag {
    known: HashMap<u32, u32, BuildWordHasher>,
    unknown: HashMap<Box<str>, u32>,
    /// Bytes of the entries, and of the unknown words.
    bytes: usize,
}

/// Bytes of a [`WordBag`] entry of a known word.
const KNOWN_ENTRY_BYTES: usize = std::mem::size_of::<(u32, u32)>();
/// Bytes of a [`WordBag`] entry of an unknown word, besides the word.
const UNKNOWN_ENTRY_BYTES: usize = std::mem::size_of::<(Box<str>, u32)>();

impl WordBag {
    /// Puts in the words of a comment whose tokens have `keys`.
    fn insert(&mut self, text: &str, keys: &[u32]) {
        for &id in keys.iter().filter(|&&id| id != UNKNOWN_WORD) {
            let n = self.known.entry(id).or_insert(0);
            if *n == 0 {
                self.bytes += KNOWN_ENTRY_BYTES;
            }
            *n += 1;
        }
        for_each_unknown(text, keys, |word| match self.unknown.get_mut(word) {
            Some(n) => *n += 1,
            None => {
                self.bytes += UNKNOWN_ENTRY_BYTES + word.len();
                self.unknown.insert(word.into(), 1);
            }
        });
    }

    /// Takes out the words of a comment whose tokens have `keys`.
    fn remove(&mut self, text: &str, keys: &[u32]) {
        for id in keys.iter().filter(|&&id| id != UNKNOWN_WORD) {
            if take_one(&mut self.known, id) {
                self.bytes -= KNOWN_ENTRY_BYTES;
            }
        }
        for_each_unknown(text, keys, |word| {
            if take_one(&mut self.unknown, word) {
                self.bytes -= UNKNOWN_ENTRY_BYTES + word.len();
            }
        });
    }

    fn distinct(&self) -> usize {
        self.known.len() + self.unknown.len()
    }
}

/// Calls `f` with each token of `text` whose key in `keys` is
/// [`UNKNOWN_WORD`]; segments the text only when there is one.
fn for_each_unknown(text: &str, keys: &[u32], mut f: impl FnMut(&str)) {
    if !keys.contains(&UNKNOWN_WORD) {
        return;
    }
    let mut tokens = Vec::with_capacity(keys.len());
    WhitespaceSegmenter.segment_borrowed(text, &mut tokens);
    for (word, _) in tokens.into_iter().zip(keys).filter(|&(_, &id)| id == UNKNOWN_WORD) {
        f(word);
    }
}

/// The terms and word keys of one comment under `analyzer`; `tokens`
/// is scratch.
fn score_comment<'t>(
    text: &'t str,
    tokens: &mut Vec<&'t str>,
    analyzer: &SemanticAnalyzer,
) -> Scored {
    tokens.clear();
    WhitespaceSegmenter.segment_borrowed(text, tokens);
    let mut keys = Vec::with_capacity(tokens.len());
    let terms = comment_terms(text, tokens, analyzer, |key| {
        keys.push(match key {
            WordKey::Known(id) => id,
            WordKey::Unknown(_) => UNKNOWN_WORD,
        });
    });
    Scored { terms, keys: keys.into_boxed_slice() }
}

/// Takes one occurrence of `key` out of `counts`; true when it was the
/// last, and its entry went too.
fn take_one<K, Q, S>(counts: &mut HashMap<K, u32, S>, key: &Q) -> bool
where
    K: Borrow<Q> + Hash + Eq,
    Q: Hash + Eq + ?Sized,
    S: BuildHasher,
{
    match counts.get_mut(key) {
        Some(n) if *n > 1 => {
            *n -= 1;
            false
        }
        Some(_) => counts.remove(key).is_some(),
        None => false,
    }
}

/// Per-item sliding-window state. Fixed-size except the capped deque
/// and the word multiset of its comments.
struct ItemState {
    long: Ring,
    short: Ring,
    /// Newest arrival seen (delivery-order max), for gaps + eviction.
    last_at_ms: u64,
    sales_volume: u64,
    /// Windowed comments, newest at the back.
    comments: VecDeque<WindowComment>,
    /// The words of every scored comment.
    words: WordBag,
    /// [`SemanticAnalyzer::instance_id`] of the analyzer behind the
    /// scored comments (0: none yet).
    terms_of: u64,
    /// Bytes of the windowed texts and word keys.
    heap_bytes: usize,
}

impl ItemState {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.long.approx_bytes()
            + self.short.approx_bytes()
            + self.heap_bytes
            + self.words.bytes
            + self.comments.len() * std::mem::size_of::<WindowComment>()
    }

    /// Drops the oldest windowed comment, and its words.
    fn evict_front(&mut self) {
        if let Some(c) = self.comments.pop_front() {
            self.heap_bytes -= c.text.len();
            if let Some(scored) = c.scored {
                self.words.remove(&c.text, &scored.keys);
                self.heap_bytes -= std::mem::size_of_val(&*scored.keys);
            }
        }
    }

    /// Gives every windowed comment not yet scored under `analyzer` its
    /// terms and its words to the multiset, and returns the sums of the
    /// window's terms, folded from zero in window order, and its distinct
    /// words.
    fn refresh(&mut self, analyzer: &SemanticAnalyzer) -> (TermSums, usize) {
        if self.terms_of != analyzer.instance_id() {
            // Word keys are the model's ids: a new model starts the
            // multiset and every comment's terms over.
            self.terms_of = analyzer.instance_id();
            self.words = WordBag::default();
            for c in &mut self.comments {
                if let Some(scored) = c.scored.take() {
                    self.heap_bytes -= std::mem::size_of_val(&*scored.keys);
                }
            }
        }
        let mut sums = TermSums::default();
        let mut tokens = Vec::new();
        for WindowComment { text, scored, .. } in &mut self.comments {
            let text: &str = text;
            let scored = scored.get_or_insert_with(|| {
                let scored = score_comment(text, &mut tokens, analyzer);
                self.words.insert(text, &scored.keys);
                self.heap_bytes += std::mem::size_of_val(&*scored.keys);
                scored
            });
            sums.add(&scored.terms);
        }
        (sums, self.words.distinct())
    }

    /// The velocity feature row at the last trim.
    fn velocity(&self, config: &StreamConfig) -> VelocityFeatures {
        velocity_features(&self.long, &self.short, config.long_window_ms, config.short_window_ms)
    }
}

/// The streaming velocity detector. See the module docs.
pub struct StreamEngine {
    config: StreamConfig,
    items: HashMap<u64, ItemState>,
    /// Items touched since the last flush, iterated in sorted order so
    /// verdict emission order is deterministic.
    dirty: BTreeSet<u64>,
    /// Highest event time seen (the virtual clock).
    watermark_ms: u64,
    /// Virtual time of the last flush.
    last_flush_ms: u64,
    /// Running + peak resident footprint (bytes).
    resident_bytes: usize,
    peak_resident_bytes: usize,
    events: u64,
    late_dropped: u64,
    // Metric handles cached once — recording is atomics-only on the
    // per-event hot path (DESIGN.md §8 convention).
    m_events: Arc<Counter>,
    m_late: Arc<Counter>,
    m_lag: Arc<Histogram>,
}

impl StreamEngine {
    /// A fresh engine.
    ///
    /// # Panics
    /// Panics if a window span is not a whole multiple of its bucket
    /// count (bucket boundaries must tile the window exactly).
    pub fn new(config: StreamConfig) -> Self {
        assert!(
            config.long_buckets > 0 && config.long_window_ms % config.long_buckets as u64 == 0,
            "long window must tile into buckets"
        );
        assert!(
            config.short_buckets > 0 && config.short_window_ms % config.short_buckets as u64 == 0,
            "short window must tile into buckets"
        );
        assert!(config.max_window_comments > 0, "need at least one windowed comment");
        Self {
            config,
            items: HashMap::new(),
            dirty: BTreeSet::new(),
            watermark_ms: 0,
            last_flush_ms: 0,
            resident_bytes: 0,
            peak_resident_bytes: 0,
            events: 0,
            late_dropped: 0,
            m_events: cats_obs::counter("cats.stream.events"),
            m_late: cats_obs::counter("cats.stream.late_dropped"),
            m_lag: cats_obs::histogram("cats.stream.delivery_lag_ms"),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Ingests one event: updates the item's rings, gap histograms and
    /// windowed comments. O(1) amortized; no scoring happens here.
    pub fn ingest(&mut self, ev: &CommentEvent) -> IngestOutcome {
        self.ingest_text(ev, || ev.text.clone())
    }

    /// [`StreamEngine::ingest`], moving the event's text into the window
    /// instead of copying it.
    pub fn ingest_owned(&mut self, mut ev: CommentEvent) -> IngestOutcome {
        let text = std::mem::take(&mut ev.text);
        self.ingest_text(&ev, || text)
    }

    /// [`StreamEngine::ingest`] of `ev` with the text `text` gives, which
    /// is called only for an accepted event.
    fn ingest_text(&mut self, ev: &CommentEvent, text: impl FnOnce() -> String) -> IngestOutcome {
        self.events += 1;
        self.m_events.inc();
        if self.watermark_ms > ev.at_ms {
            self.m_lag.record((self.watermark_ms - ev.at_ms) as f64);
        }
        self.watermark_ms = self.watermark_ms.max(ev.at_ms);

        // A fresh item whose first event is already out of the window
        // would create state that can never score: drop it up front.
        // (Existing items were already accounted; 0 marks "new" for the
        // byte accounting below.)
        let bytes_before = match self.items.get(&ev.item_id) {
            Some(state) => state.approx_bytes(),
            None => {
                let horizon = self.watermark_ms.saturating_sub(self.config.long_window_ms);
                if ev.at_ms < horizon {
                    self.late_dropped += 1;
                    self.m_late.inc();
                    return IngestOutcome::LateDropped;
                }
                0
            }
        };

        let cfg = &self.config;
        let state = self.items.entry(ev.item_id).or_insert_with(|| ItemState {
            long: Ring::new(cfg.long_window_ms / cfg.long_buckets as u64, cfg.long_buckets),
            short: Ring::new(cfg.short_window_ms / cfg.short_buckets as u64, cfg.short_buckets),
            last_at_ms: 0,
            sales_volume: ev.sales_volume,
            // Grown on demand: most items window a few comments, and a
            // windowed comment with its cached terms takes 120 bytes.
            comments: VecDeque::new(),
            words: WordBag::default(),
            terms_of: 0,
            heap_bytes: 0,
        });

        // Delivery-order inter-arrival gap: what the stream actually
        // sees, robust to bounded reordering (|Δ| of adjacent stamps).
        let gap = if state.comments.is_empty() && state.last_at_ms == 0 {
            None
        } else {
            Some(ev.at_ms.abs_diff(state.last_at_ms))
        };
        let user_hash = mix_user(ev.user_id);
        if !state.long.record(ev.at_ms, user_hash, gap) {
            // Beyond even the long window's skew tolerance: the event
            // carries no usable signal at the current clock. (Only
            // reachable for already-resident items, so bytes_before
            // needs no reconciliation — nothing changed.)
            self.late_dropped += 1;
            self.m_late.inc();
            return IngestOutcome::LateDropped;
        }
        state.short.record(ev.at_ms, user_hash, gap);
        state.last_at_ms = state.last_at_ms.max(ev.at_ms);
        state.sales_volume = state.sales_volume.max(ev.sales_volume);

        let text = text().into_boxed_str();
        state.heap_bytes += text.len();
        state.comments.push_back(WindowComment { at_ms: ev.at_ms, text, scored: None });
        while state.comments.len() > self.config.max_window_comments {
            state.evict_front();
        }

        self.resident_bytes = self.resident_bytes + state.approx_bytes() - bytes_before;
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        self.dirty.insert(ev.item_id);
        IngestOutcome::Accepted
    }

    /// Whether the virtual clock has passed the next flush boundary.
    pub fn flush_due(&self) -> bool {
        self.watermark_ms >= self.last_flush_ms + self.config.flush_interval_ms
    }

    /// The first half of a flush: sweeps idle items, drains the dirty
    /// set and trims every dirty item's state to the window ending at
    /// the watermark. Returns the dirty ids in ascending order.
    fn sweep_and_trim(&mut self) -> Vec<u64> {
        self.last_flush_ms = self.watermark_ms;
        let now = self.watermark_ms;

        // Idle sweep first, so evicted items can't be scored.
        let idle = self.config.idle_evict_ms;
        let evicted: Vec<u64> = self
            .items
            .iter()
            .filter(|(_, s)| s.last_at_ms.saturating_add(idle) < now)
            .map(|(&id, _)| id)
            .collect();
        for id in evicted {
            if let Some(s) = self.items.remove(&id) {
                self.resident_bytes -= s.approx_bytes();
            }
            self.dirty.remove(&id);
        }

        let dirty: Vec<u64> = std::mem::take(&mut self.dirty).into_iter().collect();
        let window_start = now.saturating_sub(self.config.long_window_ms);
        for id in &dirty {
            let state = self.items.get_mut(id).expect("dirty item is resident");
            let bytes_before = state.approx_bytes();
            while state.comments.front().is_some_and(|c| c.at_ms < window_start) {
                state.evict_front();
            }
            state.long.advance_to(now);
            state.short.advance_to(now);
            self.resident_bytes = self.resident_bytes + state.approx_bytes() - bytes_before;
        }
        cats_obs::counter("cats.stream.flushes").inc();
        dirty
    }

    /// Sweeps and trims like [`StreamEngine::flush`], and returns each
    /// dirty item's window as raw scoring inputs in ascending item-id
    /// order, its texts segmented here. This is the model-free half of
    /// a flush, for a scorer of its own (and the `perf` layers); the
    /// cached terms stay unused.
    pub fn drain_window_slices(&mut self) -> Vec<WindowSlice> {
        let dirty = self.sweep_and_trim();
        let slices = dirty
            .into_iter()
            .map(|id| {
                let state = &self.items[&id];
                WindowSlice {
                    item_id: id,
                    sales_volume: state.sales_volume,
                    comments: ItemComments::from_texts(state.comments.iter().map(|c| &*c.text)),
                    velocity: state.velocity(&self.config),
                }
            })
            .collect();
        self.publish_gauges();
        slices
    }

    /// Scores every item touched since the last flush and emits one
    /// incremental verdict each (ascending item id). Also sweeps idle
    /// items — the eviction half of the memory bound.
    pub fn flush(&mut self, pipeline: &CatsPipeline) -> Vec<StreamVerdict> {
        self.flush_observing(pipeline, |_| {})
    }

    /// [`StreamEngine::flush`], handing `observe` the feature row of
    /// every window the classifier scored — the rows a drift monitor
    /// reads — in verdict order.
    pub fn flush_observing(
        &mut self,
        pipeline: &CatsPipeline,
        mut observe: impl FnMut(&FeatureVector),
    ) -> Vec<StreamVerdict> {
        let _span = cats_obs::span!("cats.stream.flush", { self.dirty.len() });
        let now = self.watermark_ms;
        let dirty = self.sweep_and_trim();
        let (analyzer, detector) = (pipeline.analyzer(), pipeline.detector());
        let mut verdicts = Vec::with_capacity(dirty.len());
        for item_id in dirty {
            let state = self.items.get_mut(&item_id).expect("dirty item is resident");
            let bytes_before = state.approx_bytes();
            let (sums, distinct) = state.refresh(analyzer);
            self.resident_bytes = self.resident_bytes + state.approx_bytes() - bytes_before;
            // Stage-1 filtered items keep their velocity risk
            // (observability) but score no content evidence, so fusion
            // alone cannot flag them.
            let decision = detector.filter_decision(sums.comments(), state.sales_volume, || {
                sums.has_positive_evidence()
            });
            let cats_score = if decision == FilterDecision::Classified {
                let row = sums.finish(distinct);
                if row.is_finite() {
                    observe(&row);
                }
                detector.score_row(&row)
            } else {
                0.0
            };
            let risk = velocity_risk(&state.velocity(&self.config));
            let fused = fuse_scores(cats_score, risk, self.config.fusion_weight);
            verdicts.push(StreamVerdict {
                item_id,
                at_ms: now,
                window_comments: sums.comments() as u32,
                cats_score,
                velocity_risk: risk,
                fused_score: fused,
                is_fraud: fused >= detector.threshold(),
            });
        }
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        self.publish_gauges();
        cats_obs::counter("cats.stream.verdicts").add(verdicts.len() as u64);
        verdicts
    }

    fn publish_gauges(&self) {
        cats_obs::gauge("cats.stream.resident_items").set(self.items.len() as f64);
        cats_obs::gauge("cats.stream.resident_bytes").set(self.resident_bytes as f64);
        let occupancy: usize = self.items.values().map(|s| s.comments.len()).sum();
        cats_obs::gauge("cats.stream.window_comments").set(occupancy as f64);
    }

    /// Items currently holding window state.
    pub fn resident_items(&self) -> usize {
        self.items.len()
    }

    /// Current approximate resident footprint in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Peak approximate resident footprint in bytes — the number the
    /// memory-bound assertion gates on.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident_bytes
    }

    /// Events ingested (including late drops).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events dropped as older than the long window could absorb.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// The virtual clock (highest event time seen).
    pub fn watermark_ms(&self) -> u64 {
        self.watermark_ms
    }
}

/// Computes the velocity feature row from an item's two rings.
fn velocity_features(
    long: &Ring,
    short: &Ring,
    long_window_ms: u64,
    short_window_ms: u64,
) -> VelocityFeatures {
    let ls = long.stats();
    let ss = short.stats();
    let long_min = long_window_ms as f64 / 60_000.0;
    let short_min = short_window_ms as f64 / 60_000.0;
    let rate_long = ls.count as f64 / long_min;
    let rate_short = ss.count as f64 / short_min;
    let accel = if rate_long > 0.0 { rate_short / rate_long } else { 0.0 };
    let conc_long =
        if ls.count == 0 { 0.0 } else { (1.0 - ls.distinct_est / ls.count as f64).clamp(0.0, 1.0) };
    let conc_short =
        if ss.count == 0 { 0.0 } else { (1.0 - ss.distinct_est / ss.count as f64).clamp(0.0, 1.0) };
    VelocityFeatures([
        rate_long,
        rate_short,
        accel,
        conc_long,
        conc_short,
        ls.gap_entropy,
        ss.gap_entropy,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cats_core::features::extract;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn tiny_config() -> StreamConfig {
        StreamConfig {
            long_window_ms: 60_000,
            long_buckets: 12,
            short_window_ms: 10_000,
            short_buckets: 5,
            max_window_comments: 8,
            flush_interval_ms: 5_000,
            idle_evict_ms: 120_000,
            ..StreamConfig::default()
        }
    }

    fn ev(at_ms: u64, item_id: u64, user_id: u64, text: &str) -> CommentEvent {
        CommentEvent { at_ms, item_id, user_id, sales_volume: 50, text: text.to_string() }
    }

    #[test]
    fn window_comment_cap_holds() {
        let mut e = StreamEngine::new(tiny_config());
        for i in 0..100u64 {
            e.ingest(&ev(i * 10, 1, i, "hao hao hao"));
        }
        assert_eq!(e.items[&1].comments.len(), 8);
        assert_eq!(e.resident_items(), 1);
    }

    #[test]
    fn bytes_accounting_is_consistent() {
        let mut e = StreamEngine::new(tiny_config());
        for i in 0..50u64 {
            e.ingest(&ev(i * 500, i % 3, i, "hao zhen hao bucuo"));
        }
        let expected: usize = e.items.values().map(|s| s.approx_bytes()).sum();
        assert_eq!(e.resident_bytes(), expected);
        assert!(e.peak_resident_bytes() >= e.resident_bytes());
    }

    #[test]
    fn ancient_first_event_is_late_dropped() {
        let mut e = StreamEngine::new(tiny_config());
        e.ingest(&ev(500_000, 1, 1, "hao"));
        assert_eq!(e.ingest(&ev(100, 2, 2, "hao")), IngestOutcome::LateDropped);
        assert_eq!(e.resident_items(), 1);
        assert_eq!(e.late_dropped(), 1);
    }

    #[test]
    fn flush_cadence_follows_virtual_clock() {
        let mut e = StreamEngine::new(tiny_config());
        e.ingest(&ev(1_000, 1, 1, "hao"));
        assert!(!e.flush_due(), "first interval not yet elapsed");
        e.ingest(&ev(6_000, 1, 2, "hao"));
        assert!(e.flush_due());
    }

    #[test]
    fn idle_items_evict_and_release_bytes() {
        let mut e = StreamEngine::new(tiny_config());
        e.ingest(&ev(1_000, 7, 1, "hao hao"));
        // Far-future activity on another item pushes the virtual clock
        // past item 7's idle horizon. The sweep itself needs a fitted
        // pipeline and runs end-to-end in tests/stream.rs; here assert
        // the horizon predicate flush() evicts on.
        e.ingest(&ev(200_000, 8, 2, "hao hao"));
        assert_eq!(e.resident_items(), 2);
        let idle = e.config().idle_evict_ms;
        assert!(e.items[&7].last_at_ms.saturating_add(idle) < e.watermark_ms());
        assert!(e.items[&8].last_at_ms.saturating_add(idle) >= e.watermark_ms());
    }

    /// Words of the differential traces: lexicon words, bigram-model
    /// words, punctuation and multi-byte tokens.
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
        "！！",
        "🙂",
        "hao\u{1}zan",
    ];

    /// A seeded analyzer; `order` picks unigram or unigram+bigram
    /// sentiment.
    fn seeded_analyzer(seed: u64, order: cats_sentiment::FeatureOrder) -> SemanticAnalyzer {
        let mut rng = StdRng::seed_from_u64(seed);
        let lexicon = cats_text::Lexicon::new(
            ["hao", "zan", "很好"].map(String::from),
            ["cha", "lan", "差评"].map(String::from),
        );
        let mut docs = |k: usize| -> Vec<Vec<String>> {
            (0..k)
                .map(|_| {
                    (0..1 + rng.next_u64() % 10)
                        .map(|_| WORDS[(rng.next_u64() % WORDS.len() as u64) as usize].to_string())
                        .collect()
                })
                .collect()
        };
        let (pos, neg) = (docs(20), docs(20));
        let sentiment = cats_sentiment::SentimentModel::train_with_order(&pos, &neg, order);
        SemanticAnalyzer::from_parts(lexicon, sentiment)
    }

    /// A comment of 0–14 known and unknown words, now and then run
    /// together or with doubled spaces.
    fn seeded_comment(rng: &mut StdRng) -> String {
        let sep = [" ", " ", " ", "  ", ""][(rng.next_u64() % 5) as usize];
        (0..rng.next_u64() % 15)
            .map(|_| match rng.next_u64() % 4 {
                0 => format!("w{}", rng.next_u64() % 25),
                _ => WORDS[(rng.next_u64() % WORDS.len() as u64) as usize].to_string(),
            })
            .collect::<Vec<_>>()
            .join(sep)
    }

    /// Window geometry of the differential: a cap of 6 comments, a 60 s
    /// window and a 90 s idle horizon.
    fn differential_config() -> StreamConfig {
        StreamConfig {
            long_window_ms: 60_000,
            long_buckets: 12,
            short_window_ms: 10_000,
            short_buckets: 5,
            max_window_comments: 6,
            flush_interval_ms: 5_000,
            idle_evict_ms: 90_000,
            ..StreamConfig::default()
        }
    }

    /// A generated trace of `n` events. Event times advance 0–1.5 s per
    /// event and lag the watermark by up to the 2 s skew, so delivery is
    /// reordered within it; one event in 40 lags by almost the whole
    /// window, where trims and late drops happen, half of them on items
    /// 40–44 of their own, whose windows then trim to empty. Bursts on
    /// item 0 overflow the cap, and items 20–29 go quiet after the first
    /// quarter, so they are evicted idle. Items 3, 7, … sell too little
    /// for stage 1.
    fn seeded_trace(rng: &mut StdRng, n: usize) -> Vec<CommentEvent> {
        let mut clock = 0u64;
        (0..n)
            .map(|i| {
                clock += rng.next_u64() % 1_500;
                let straggler = rng.next_u64() % 40 == 0;
                let lag = match straggler {
                    true => 55_000 + rng.next_u64() % 8_000,
                    false => rng.next_u64() % 2_000,
                };
                let item_id = match rng.next_u64() % 10 {
                    _ if straggler && rng.next_u64() % 2 == 0 => 40 + rng.next_u64() % 5,
                    0..=2 => 0,
                    3 if i < n / 4 => 20 + rng.next_u64() % 10,
                    _ => 1 + rng.next_u64() % 6,
                };
                CommentEvent {
                    at_ms: clock.saturating_sub(lag),
                    item_id,
                    user_id: rng.next_u64() % 50,
                    sales_volume: if item_id % 4 == 3 { 2 } else { 10 },
                    text: seeded_comment(rng),
                }
            })
            .collect()
    }

    /// The word multiset of `state`'s scored comments, counted afresh
    /// with the kernel's keys under `analyzer`.
    fn recount(state: &ItemState, analyzer: &SemanticAnalyzer) -> BTreeMap<String, u32> {
        let mut counts = BTreeMap::new();
        for c in state.comments.iter().filter(|c| c.scored.is_some()) {
            let mut tokens = Vec::new();
            WhitespaceSegmenter.segment_borrowed(&c.text, &mut tokens);
            comment_terms(&c.text, &tokens, analyzer, |key| {
                *counts.entry(format!("{key:?}")).or_insert(0) += 1;
            });
        }
        counts
    }

    /// The sums of `state`'s cached terms, in window order.
    fn cached_sums(state: &ItemState) -> TermSums {
        let mut sums = TermSums::default();
        for scored in state.comments.iter().filter_map(|c| c.scored.as_ref()) {
            sums.add(&scored.terms);
        }
        sums
    }

    fn bag_counts(bag: &WordBag) -> BTreeMap<String, u32> {
        let known = bag.known.iter().map(|(&id, &n)| (format!("{:?}", WordKey::Known(id)), n));
        let unknown = bag.unknown.iter().map(|(w, &n)| (format!("{:?}", WordKey::Unknown(w)), n));
        known.chain(unknown).collect()
    }

    /// What a differential run reached, so a run that misses a case
    /// fails instead of passing vacuously.
    #[derive(Debug, Default)]
    struct Coverage {
        flushes: usize,
        cap_overflows: usize,
        trimmed: usize,
        idle_evicted: usize,
        empty_windows: usize,
        swaps: usize,
        low_sales: usize,
        no_evidence: usize,
        quarantined: usize,
        flagged: usize,
        cleared: usize,
    }

    /// A pipeline of `analyzer` and a detector fit on 80 windows of
    /// seeded comments with random labels, deciding at `threshold`.
    fn seeded_pipeline(seed: u64, analyzer: SemanticAnalyzer, threshold: f64) -> CatsPipeline {
        let mut rng = StdRng::seed_from_u64(seed);
        let windows: Vec<ItemComments> = (0..80)
            .map(|_| {
                let texts: Vec<String> =
                    (0..1 + rng.next_u64() % 6).map(|_| seeded_comment(&mut rng)).collect();
                ItemComments::from_texts(texts.iter().map(String::as_str))
            })
            .collect();
        let rows: Vec<FeatureVector> = windows.iter().map(|w| extract(w, &analyzer)).collect();
        let labels: Vec<u8> = (0..rows.len()).map(|_| (rng.next_u64() % 2) as u8).collect();
        let config = cats_core::DetectorConfig { threshold, ..Default::default() };
        let mut detector = cats_core::Detector::with_default_classifier(config);
        detector.fit_features(&rows, &labels);
        CatsPipeline::from_parts(analyzer, detector)
    }

    /// The served path before windows cached terms: `oracle`'s
    /// windows, drained as texts, through `CatsPipeline::detect` and
    /// fusion. Checks `got` (a `flush_observing` of the same trace under
    /// `pipeline`) and the rows it `observed` against it, verdict by
    /// verdict and bit for bit. Returns the mismatches.
    fn oracle_mismatches(
        oracle: &mut StreamEngine,
        pipeline: &CatsPipeline,
        got: &[StreamVerdict],
        observed: &[FeatureVector],
        coverage: &mut Coverage,
    ) -> usize {
        let slices = oracle.drain_window_slices();
        let windows: Vec<&ItemComments> = slices.iter().map(|s| &s.comments).collect();
        let sales: Vec<u64> = slices.iter().map(|s| s.sales_volume).collect();
        let reports = pipeline.detect(&windows, &sales);
        let threshold = pipeline.detector().threshold();
        let weight = oracle.config().fusion_weight;
        let mut mismatches = usize::from(got.len() != slices.len());
        for ((s, r), v) in slices.iter().zip(&reports).zip(got) {
            let risk = velocity_risk(&s.velocity);
            let fused = fuse_scores(r.score, risk, weight);
            let want = StreamVerdict {
                item_id: s.item_id,
                at_ms: oracle.watermark_ms(),
                window_comments: s.comments.len() as u32,
                cats_score: r.score,
                velocity_risk: risk,
                fused_score: fused,
                is_fraud: fused >= threshold,
            };
            let same = v.item_id == want.item_id
                && v.at_ms == want.at_ms
                && v.window_comments == want.window_comments
                && v.cats_score.to_bits() == want.cats_score.to_bits()
                && v.velocity_risk.to_bits() == want.velocity_risk.to_bits()
                && v.fused_score.to_bits() == want.fused_score.to_bits()
                && v.is_fraud == want.is_fraud;
            let unscored = r.filter != FilterDecision::Classified && v.cats_score != 0.0;
            if !same || unscored {
                mismatches += 1;
                eprintln!("{:?}: {v:?} vs {want:?}", r.filter);
            }
            match r.filter {
                FilterDecision::Classified => {}
                FilterDecision::FilteredLowSales => coverage.low_sales += 1,
                FilterDecision::FilteredNoPositiveEvidence => coverage.no_evidence += 1,
                FilterDecision::Quarantined => coverage.quarantined += 1,
            }
            coverage.flagged += usize::from(v.is_fraud);
            coverage.cleared += usize::from(!v.is_fraud);
        }
        let want_rows: Vec<&FeatureVector> =
            reports.iter().filter_map(|r| r.features.as_ref()).collect();
        let same_rows = observed.len() == want_rows.len()
            && observed
                .iter()
                .zip(&want_rows)
                .all(|(o, w)| o.0.iter().zip(&w.0).all(|(a, b)| a.to_bits() == b.to_bits()));
        if !same_rows {
            mismatches += 1;
            eprintln!("observed rows differ from the classified reports' features");
        }
        mismatches
    }

    /// Replays a generated trace and checks, at every flush boundary:
    /// each `flush_observing` verdict and observed row against the
    /// drained-window oracle ([`oracle_mismatches`]) on a second engine
    /// fed the same events; each dirty window's row (its cached terms
    /// summed in window order, over the multiset's distinct words) and
    /// evidence against `features::extract` on the same window, bit for
    /// bit; every resident item's multiset against a recount; and the
    /// byte accounting. The model swaps between two pipelines every few
    /// flushes, mid-window. Returns the mismatches.
    fn differential_mismatches(seed: u64, events: usize, coverage: &mut Coverage) -> usize {
        use cats_sentiment::FeatureOrder;
        let mut rng = StdRng::seed_from_u64(seed);
        let pipelines = [
            seeded_pipeline(seed, seeded_analyzer(seed, FeatureOrder::UnigramBigram), 0.5),
            seeded_pipeline(seed ^ 1, seeded_analyzer(seed ^ 0x5EED, FeatureOrder::Unigram), 0.3),
        ];
        let mut e = StreamEngine::new(differential_config());
        let mut oracle = StreamEngine::new(differential_config());
        let mut mismatches = 0;
        let mut model = 0;
        for ev in seeded_trace(&mut rng, events) {
            oracle.ingest(&ev);
            let before = e.items.get(&ev.item_id).map_or(0, |s| s.comments.len());
            let item_id = ev.item_id;
            let outcome = e.ingest_owned(ev);
            let after = e.items.get(&item_id).map_or(0, |s| s.comments.len());
            coverage.cap_overflows +=
                usize::from(outcome == IngestOutcome::Accepted && after == before);
            if !e.flush_due() {
                continue;
            }
            coverage.flushes += 1;
            if coverage.flushes % 4 == 0 {
                model = 1 - model;
                coverage.swaps += 1;
            }
            let pipeline = &pipelines[model];
            let analyzer = pipeline.analyzer();
            let (resident, windowed): (usize, usize) =
                (e.items.len(), e.items.values().map(|s| s.comments.len()).sum());
            let mut observed = Vec::new();
            let verdicts = e.flush_observing(pipeline, |row| observed.push(*row));
            coverage.idle_evicted += resident - e.items.len();
            coverage.trimmed +=
                windowed - e.items.values().map(|s| s.comments.len()).sum::<usize>();
            mismatches += oracle_mismatches(&mut oracle, pipeline, &verdicts, &observed, coverage);
            for id in verdicts.iter().map(|v| v.item_id) {
                let state = &e.items[&id];
                let window = ItemComments::from_texts(state.comments.iter().map(|c| &*c.text));
                coverage.empty_windows += usize::from(window.is_empty());
                let sums = cached_sums(state);
                let got = sums.finish(state.words.distinct());
                let want = extract(&window, analyzer);
                let evidence =
                    window.tokens.iter().flatten().any(|t| analyzer.lexicon().is_positive(t));
                let same_row = got.0.iter().zip(&want.0).all(|(g, w)| g.to_bits() == w.to_bits());
                if !same_row || sums.has_positive_evidence() != evidence {
                    mismatches += 1;
                    eprintln!("seed {seed:#x} item {id}: {got:?} vs {want:?}");
                }
            }
            for (id, state) in &e.items {
                let Some(pipeline) =
                    pipelines.iter().find(|p| p.analyzer().instance_id() == state.terms_of)
                else {
                    continue;
                };
                if bag_counts(&state.words) != recount(state, pipeline.analyzer()) {
                    mismatches += 1;
                    eprintln!("seed {seed:#x} item {id}: word multiset differs from a recount");
                }
            }
            let accounted: usize = e.items.values().map(ItemState::approx_bytes).sum();
            if e.resident_bytes() != accounted {
                mismatches += 1;
                eprintln!(
                    "seed {seed:#x}: {} resident bytes, {accounted} accounted",
                    e.resident_bytes()
                );
            }
        }
        mismatches
    }

    #[test]
    fn flushed_rows_match_batch_extract_on_generated_traces() {
        let mut coverage = Coverage::default();
        let mismatches: usize =
            (0..4).map(|seed| differential_mismatches(0x57AE + seed, 1_500, &mut coverage)).sum();
        assert_eq!(mismatches, 0);
        let c = &coverage;
        let reached = [
            c.cap_overflows,
            c.trimmed,
            c.idle_evicted,
            c.empty_windows,
            c.swaps,
            c.low_sales,
            c.no_evidence,
            c.quarantined,
            c.flagged,
            c.cleared,
        ];
        assert!(reached.iter().all(|&n| n > 0), "a case was never reached: {coverage:?}");
    }

    /// 100 times the tier-1 traces, on fresh seeds; run with `--ignored`.
    #[test]
    #[ignore]
    fn flushed_rows_match_batch_extract_on_many_traces() {
        let mut coverage = Coverage::default();
        let mismatches: usize =
            (0..400).map(|seed| differential_mismatches(0xD1FF + seed, 1_500, &mut coverage)).sum();
        assert_eq!(mismatches, 0, "{coverage:?}");
    }

    #[test]
    fn velocity_row_is_finite_on_empty_rings() {
        let long = Ring::new(10_000, 30);
        let short = Ring::new(3_000, 10);
        let v = velocity_features(&long, &short, 300_000, 30_000);
        assert!(v.is_finite());
        assert!(v.as_slice().iter().all(|&x| x == 0.0));
    }
}
