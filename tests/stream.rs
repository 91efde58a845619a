//! Integration tests for the streaming velocity lane (`cats-stream`):
//! ring eviction at exact boundary ticks, out-of-order arrivals within
//! the trace's bounded skew, empty-window entropy (no NaNs), idle-item
//! sweeps through a fitted pipeline, and flush verdicts bit-identical to
//! a drained-window `detect` oracle on a platform trace.

use cats_core::fusion::{fuse_scores, velocity_risk};
use cats_core::pipeline::LabeledItem;
use cats_core::semantic::SemanticConfig;
use cats_core::{CatsPipeline, FilterDecision, ItemComments, PipelineConfig, StreamVerdict};
use cats_embedding::Word2VecConfig;
use cats_platform::comment_model::{generate_comment, CommentStyle};
use cats_platform::{datasets, Platform, TemporalTrace, TimedComment, TraceConfig};
use cats_stream::{mix_user, CommentEvent, IngestOutcome, Ring, StreamConfig, StreamEngine};
use rand::{rngs::StdRng, SeedableRng};

fn fraud_item(i: usize) -> ItemComments {
    ItemComments::from_texts([
        format!("hao0 hao0 zan1 ! hao0 bang2 w{i} ， hao0 hao0 zan0 hao1 hao1").as_str(),
        "hen hao0 zan2 ！ hao2 hao0 hao0 bang0 hao0",
    ])
}

fn normal_item(i: usize) -> ItemComments {
    ItemComments::from_texts([format!("shu hao0 kan w{i}").as_str(), "dongxi cha0 le dian"])
}

/// A small fitted pipeline (the `cats-serve` test recipe): real training
/// on a synthetic corpus, cheap enough to run per-test.
fn trained() -> CatsPipeline {
    let mut texts = Vec::new();
    for i in 0..250 {
        let v = i % 3;
        texts.push(format!("hao{v} zan{v} hao{v} bang{v} kuai du"));
        texts.push(format!("cha{v} lan{v} cha{v} huai{v} man du"));
        texts.push("he zi kuai di shou dao".to_string());
    }
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let mut training = Vec::new();
    for i in 0..30 {
        training.push(cats_core::pipeline::LabeledItem { comments: fraud_item(i), label: 1 });
        training.push(cats_core::pipeline::LabeledItem { comments: normal_item(i), label: 0 });
    }
    CatsPipeline::train(
        &refs,
        &["hao0".to_string()],
        &["cha0".to_string()],
        &["hao0 zan0 bang0 hao1", "zan1 hao2 bang1"],
        &["cha0 lan0 huai0", "lan1 cha2 huai2"],
        &training,
        None,
        PipelineConfig::default(),
    )
}

/// A small pipeline fit on `platform` itself, so that the words of its
/// traces are the pipeline's words: its comments train word2vec, its
/// lexicon seeds *P* and *N*, generated organic comments train the
/// sentiment model and its labeled items fit the GBT.
fn trained_on(platform: &Platform, seed: u64) -> CatsPipeline {
    let corpus: Vec<&str> = platform
        .items()
        .iter()
        .flat_map(|i| i.comments.iter().map(|c| c.content.as_str()))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut organic = |style| -> Vec<String> {
        (0..200).map(|_| generate_comment(platform.lexicon(), style, &mut rng)).collect()
    };
    let (pos, neg) =
        (organic(CommentStyle::OrganicPositive), organic(CommentStyle::OrganicNegative));
    let training: Vec<LabeledItem> = platform
        .items()
        .iter()
        .map(|i| LabeledItem {
            comments: ItemComments::from_texts(i.comments.iter().map(|c| c.content.as_str())),
            label: u8::from(i.label.is_fraud()),
        })
        .collect();
    let semantic = SemanticConfig {
        word2vec: Word2VecConfig { dim: 24, epochs: 2, ..Word2VecConfig::default() },
        ..SemanticConfig::default()
    };
    CatsPipeline::train(
        &corpus,
        &platform.lexicon().positive_seeds(),
        &platform.lexicon().negative_seeds(),
        &pos.iter().map(String::as_str).collect::<Vec<_>>(),
        &neg.iter().map(String::as_str).collect::<Vec<_>>(),
        &training,
        None,
        PipelineConfig { semantic, ..PipelineConfig::default() },
    )
}

fn event(at_ms: u64, item_id: u64, user_id: u64) -> CommentEvent {
    CommentEvent {
        at_ms,
        item_id,
        user_id,
        sales_volume: 50,
        text: "hao0 zan0 hao0 bang0".to_string(),
    }
}

fn to_event(ev: &TimedComment) -> CommentEvent {
    CommentEvent {
        at_ms: ev.at_ms,
        item_id: ev.item_id,
        user_id: ev.user_id as u64,
        sales_volume: ev.sales_volume,
        text: ev.content.clone(),
    }
}

/// The oracle of a flush: `engine`'s dirty windows, drained as texts,
/// through `CatsPipeline::detect` and fusion. Returns each verdict with
/// the stage-1 decision `detect` reached.
fn oracle_flush(
    engine: &mut StreamEngine,
    pipeline: &CatsPipeline,
) -> Vec<(StreamVerdict, FilterDecision)> {
    let slices = engine.drain_window_slices();
    let windows: Vec<&ItemComments> = slices.iter().map(|s| &s.comments).collect();
    let sales: Vec<u64> = slices.iter().map(|s| s.sales_volume).collect();
    let reports = pipeline.detect(&windows, &sales);
    let threshold = pipeline.detector().threshold();
    let weight = engine.config().fusion_weight;
    slices
        .iter()
        .zip(reports)
        .map(|(s, r)| {
            let risk = velocity_risk(&s.velocity);
            let fused = fuse_scores(r.score, risk, weight);
            let verdict = StreamVerdict {
                item_id: s.item_id,
                at_ms: engine.watermark_ms(),
                window_comments: s.comments.len() as u32,
                cats_score: r.score,
                velocity_risk: risk,
                fused_score: fused,
                is_fraud: fused >= threshold,
            };
            (verdict, r.filter)
        })
        .collect()
}

/// Replays a trace through two fresh engines fed the same events,
/// flushing both on the virtual clock: `flush` on one, [`oracle_flush`]
/// on the other. Returns the two verdict streams.
fn replay_with_oracle(
    trace: &TemporalTrace,
    pipeline: &CatsPipeline,
) -> (Vec<StreamVerdict>, Vec<(StreamVerdict, FilterDecision)>) {
    let mut engine = StreamEngine::new(StreamConfig::default());
    let mut oracle = StreamEngine::new(StreamConfig::default());
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for ev in &trace.events {
        let ev = to_event(ev);
        engine.ingest(&ev);
        oracle.ingest(&ev);
        if engine.flush_due() {
            got.extend(engine.flush(pipeline));
            want.extend(oracle_flush(&mut oracle, pipeline));
        }
    }
    got.extend(engine.flush(pipeline));
    want.extend(oracle_flush(&mut oracle, pipeline));
    (got, want)
}

#[test]
fn ring_evicts_at_exact_boundary_tick() {
    // 10 buckets of 1 s: the window covers (head-10, head] in bucket
    // units, so an event in bucket 0 survives until head reaches 10.
    let mut ring = Ring::new(1_000, 10);
    assert!(ring.record(0, mix_user(1), None));
    ring.advance_to(9_999); // head = bucket 9: one tick before the edge
    assert_eq!(ring.stats().count, 1, "event must survive to the last covered tick");
    ring.advance_to(10_000); // head = bucket 10: the exact boundary
    assert_eq!(ring.stats().count, 0, "boundary tick must evict bucket 0");
    // A late record aimed at the evicted bucket is rejected; the first
    // still-covered bucket is accepted.
    assert!(!ring.record(0, mix_user(2), None));
    assert!(ring.record(1_000, mix_user(3), None));
    assert_eq!(ring.stats().count, 1);
}

#[test]
fn out_of_order_arrivals_within_bounded_skew_are_accepted() {
    let mut engine = StreamEngine::new(StreamConfig::default());
    assert_eq!(engine.ingest(&event(60_000, 1, 1)), IngestOutcome::Accepted);
    // Delayed delivery 2 s behind the watermark — the trace generator's
    // max skew — must land, and the watermark must not regress.
    assert_eq!(engine.ingest(&event(58_000, 1, 2)), IngestOutcome::Accepted);
    assert_eq!(engine.late_dropped(), 0);
    assert_eq!(engine.watermark_ms(), 60_000);

    // A whole seeded trace with bounded skew sheds nothing.
    let platform = datasets::d0(0.001, 0xBEEF);
    let trace = TemporalTrace::from_platform(
        &platform,
        &TraceConfig { seed: 0xBEEF, ..Default::default() },
    );
    assert!(!trace.is_empty());
    let mut engine = StreamEngine::new(StreamConfig::default());
    for ev in &trace.events {
        assert_eq!(engine.ingest(&to_event(ev)), IngestOutcome::Accepted);
    }
    assert_eq!(engine.late_dropped(), 0);
    assert_eq!(engine.events(), trace.len() as u64);
}

#[test]
fn empty_window_stats_are_zero_not_nan() {
    // A fresh ring reports zeros.
    let ring = Ring::new(3_000, 10);
    let s = ring.stats();
    assert_eq!((s.count, s.distinct_est, s.gap_entropy), (0, 0.0, 0.0));

    // So does one whose entire contents aged out.
    let mut ring = Ring::new(3_000, 10);
    ring.record(0, mix_user(1), None);
    ring.record(100, mix_user(2), Some(100));
    ring.record(2_000, mix_user(3), Some(1_900));
    ring.advance_to(1_000_000);
    let s = ring.stats();
    assert_eq!(s.count, 0);
    assert!(s.distinct_est == 0.0 && s.gap_entropy == 0.0);

    // And the engine's velocity row over a drained window is finite.
    let mut engine = StreamEngine::new(StreamConfig::default());
    engine.ingest(&event(0, 1, 1));
    engine.ingest(&event(400_000, 1, 2)); // old comment falls out of the window
    let slices = engine.drain_window_slices();
    assert_eq!(slices.len(), 1);
    assert!(slices[0].velocity.is_finite());
}

#[test]
fn idle_items_are_swept_at_flush() {
    let pipeline = trained();
    let mut engine = StreamEngine::new(StreamConfig::default());
    engine.ingest(&event(1_000, 7, 1));
    // Far-future activity on another item pushes the virtual clock past
    // item 7's idle horizon (default 600 s), so the flush sweeps it
    // before scoring: one verdict, one resident item.
    engine.ingest(&event(1_000_000, 8, 2));
    assert_eq!(engine.resident_items(), 2);
    let verdicts = engine.flush(&pipeline);
    assert_eq!(verdicts.len(), 1);
    assert_eq!(verdicts[0].item_id, 8);
    assert_eq!(engine.resident_items(), 1);
}

#[test]
fn flush_verdicts_match_a_drained_window_detect_oracle() {
    let platform = datasets::d0(0.001, 0x51DE);
    let pipeline = trained_on(&platform, 0x51DE);
    let trace = TemporalTrace::from_platform(
        &platform,
        &TraceConfig { seed: 0x51DE, ..Default::default() },
    );
    let (got, want) = replay_with_oracle(&trace, &pipeline);
    assert!(!got.is_empty(), "trace must produce verdicts");
    assert_eq!(got.len(), want.len(), "verdict count differs from the oracle");
    for (a, (b, filter)) in got.iter().zip(&want) {
        let same = a.item_id == b.item_id
            && a.at_ms == b.at_ms
            && a.window_comments == b.window_comments
            && a.cats_score.to_bits() == b.cats_score.to_bits()
            && a.velocity_risk.to_bits() == b.velocity_risk.to_bits()
            && a.fused_score.to_bits() == b.fused_score.to_bits()
            && a.is_fraud == b.is_fraud;
        assert!(same, "{filter:?}: flush {a:?} vs oracle {b:?}");
    }
    let classified = want.iter().filter(|(_, d)| *d == FilterDecision::Classified).count();
    let filtered = want
        .iter()
        .filter(|(_, d)| {
            matches!(
                d,
                FilterDecision::FilteredLowSales | FilterDecision::FilteredNoPositiveEvidence
            )
        })
        .count();
    assert!(classified > 0 && filtered > 0, "{classified} classified, {filtered} filtered");
}
