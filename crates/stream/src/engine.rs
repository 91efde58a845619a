//! The streaming engine: ingest → windows → deterministic batch
//! scoring → incremental verdicts.
//!
//! One [`StreamEngine`] owns the per-item window state of a comment
//! firehose. Ingest is single-threaded and O(1) per event (ring
//! updates, a capped deque push, a tokenizer pass); scoring happens in
//! *flushes* on the virtual stream clock, where every item touched
//! since the last flush is re-scored as a batch:
//!
//! 1. the 11 CATS features are extracted over the item's **windowed**
//!    comments (order-preserving parallel map — bit-identical at any
//!    thread count),
//! 2. the rows are scored by [`cats_core::Detector::score_rows`]
//!    (one branch-lite FlatForest descent per row),
//! 3. each content score is fused with the item's velocity risk
//!    ([`cats_core::fusion`]) and emitted as a [`StreamVerdict`].
//!
//! ## Memory bound
//!
//! Per-item state is O(1): two fixed-size rings plus a comment deque
//! capped at [`StreamConfig::max_window_comments`] entries. Items idle
//! longer than [`StreamConfig::idle_evict_ms`] are dropped at flush, so
//! resident state is bounded by the number of items *active within one
//! eviction horizon* — never by trace length. `exp_stream` asserts
//! this by replaying a 2× longer trace and requiring the same peak
//! footprint.

use crate::window::{mix_user, Ring};
use cats_core::features::extract_batch;
use cats_core::fusion::{fuse_scores, velocity_risk, StreamVerdict, VelocityFeatures};
use cats_core::{CatsPipeline, FilterDecision, ItemComments};
use cats_obs::{Counter, Histogram};
use cats_text::{Segmenter, WhitespaceSegmenter};
use std::collections::{BTreeSet, HashMap, VecDeque};
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
    /// Feature-extraction threads (0 = auto). Verdicts are
    /// bit-identical at every setting.
    pub threads: usize,
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
            threads: 0,
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

/// Per-item sliding-window state. Fixed-size except the capped deque.
struct ItemState {
    long: Ring,
    short: Ring,
    /// Newest arrival seen (delivery-order max), for gaps + eviction.
    last_at_ms: u64,
    sales_volume: u64,
    /// Windowed comments, newest at the back: (at_ms, text, tokens).
    comments: VecDeque<(u64, String, Vec<String>)>,
    /// Bytes currently held by `comments` text + tokens.
    text_bytes: usize,
}

impl ItemState {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.long.approx_bytes()
            + self.short.approx_bytes()
            + self.text_bytes
            + self.comments.len() * std::mem::size_of::<(u64, String, Vec<String>)>()
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
            comments: VecDeque::with_capacity(cfg.max_window_comments.min(16)),
            text_bytes: 0,
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

        let tokens = WhitespaceSegmenter.segment(&ev.text);
        state.text_bytes += ev.text.len() + tokens.iter().map(String::len).sum::<usize>();
        state.comments.push_back((ev.at_ms, ev.text.clone(), tokens));
        while state.comments.len() > self.config.max_window_comments {
            let (_, text, tokens) = state.comments.pop_front().expect("len > cap > 0");
            state.text_bytes -= text.len() + tokens.iter().map(String::len).sum::<usize>();
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

    /// [`StreamEngine::flush`] when due, else no-op. The convenience
    /// the per-event driver loop calls.
    pub fn maybe_flush(&mut self, pipeline: &CatsPipeline) -> Vec<StreamVerdict> {
        if self.flush_due() {
            self.flush(pipeline)
        } else {
            Vec::new()
        }
    }

    /// Sweeps idle items, drains the dirty set, trims every dirty
    /// item's state to the window ending at the watermark, and returns
    /// the windowed scoring inputs in ascending item-id order.
    ///
    /// This is the model-free half of [`StreamEngine::flush`]:
    /// `cats-serve` calls it directly and pushes the slices through its
    /// micro-batcher instead of scoring in place.
    pub fn drain_window_slices(&mut self) -> Vec<WindowSlice> {
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
        let mut slices = Vec::with_capacity(dirty.len());
        for id in dirty {
            let state = self.items.get_mut(&id).expect("dirty item is resident");
            let bytes_before = state.approx_bytes();
            while state.comments.front().is_some_and(|&(at, _, _)| at < window_start) {
                let (_, text, tokens) = state.comments.pop_front().expect("front exists");
                state.text_bytes -= text.len() + tokens.iter().map(String::len).sum::<usize>();
            }
            state.long.advance_to(now);
            state.short.advance_to(now);
            self.resident_bytes = self.resident_bytes + state.approx_bytes() - bytes_before;

            let mut comments = ItemComments::default();
            for (_, text, tokens) in &state.comments {
                comments.texts.push(text.clone());
                comments.tokens.push(tokens.clone());
            }
            slices.push(WindowSlice {
                item_id: id,
                sales_volume: state.sales_volume,
                comments,
                velocity: velocity_features(
                    &state.long,
                    &state.short,
                    self.config.long_window_ms,
                    self.config.short_window_ms,
                ),
            });
        }
        cats_obs::counter("cats.stream.flushes").inc();
        self.publish_gauges();
        slices
    }

    /// Scores every item touched since the last flush and emits one
    /// incremental verdict each (ascending item id). Also sweeps idle
    /// items — the eviction half of the memory bound.
    pub fn flush(&mut self, pipeline: &CatsPipeline) -> Vec<StreamVerdict> {
        let _span = cats_obs::span!("cats.stream.flush", { self.dirty.len() });
        let now = self.watermark_ms;
        let slices = self.drain_window_slices();
        if slices.is_empty() {
            return Vec::new();
        }

        // Content scoring: parallel extraction (order-preserving,
        // thread-count independent) + per-row FlatForest scoring.
        let analyzer = pipeline.analyzer();
        let detector = pipeline.detector();
        let batch: Vec<&ItemComments> = slices.iter().map(|s| &s.comments).collect();
        let rows = extract_batch(&batch, analyzer, self.config.threads);
        let content = detector.score_rows(&rows);
        let threshold = detector.threshold();

        let mut verdicts = Vec::with_capacity(slices.len());
        for (slice, row) in slices.iter().zip(&content) {
            // Stage-1 rule filter, windowed edition: filtered items keep
            // their velocity risk (observability) but score no content
            // evidence, so fusion alone cannot flag them.
            let classified = !slice.comments.is_empty()
                && detector.filter_item(slice.sales_volume, &slice.comments, analyzer)
                    == FilterDecision::Classified;
            let cats_score = if classified { *row } else { 0.0 };
            let risk = velocity_risk(&slice.velocity);
            let fused = fuse_scores(cats_score, risk, self.config.fusion_weight);
            verdicts.push(StreamVerdict {
                item_id: slice.item_id,
                at_ms: now,
                window_comments: slice.comments.len() as u32,
                cats_score,
                velocity_risk: risk,
                fused_score: fused,
                is_fraud: fused >= threshold,
            });
        }
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

    #[test]
    fn velocity_row_is_finite_on_empty_rings() {
        let long = Ring::new(10_000, 30);
        let short = Ring::new(3_000, 10);
        let v = velocity_features(&long, &short, 300_000, 30_000);
        assert!(v.is_finite());
        assert!(v.as_slice().iter().all(|&x| x == 0.0));
    }
}
