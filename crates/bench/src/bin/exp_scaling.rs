//! Extension — full-pipeline thread scaling.
//!
//! The paper runs CATS on a 40-vCPU server and notes the feature
//! extractor "is implemented in a parallelized style for fast
//! processing". This experiment sweeps the whole training pipeline —
//! corpus segmentation, embedding + sentiment training, detector fit,
//! and batch detection — over thread counts and reports per-stage wall
//! times plus the end-to-end speedup.
//!
//! Each sweep row is bracketed by a [`cats_obs::StageTimer`]; the
//! deepest row's [`cats_obs::RunProfile`] (every span down to word2vec
//! epochs and GBT rounds) is written to `PROFILE_scaling.json`, which
//! `cats-cli metrics` renders. Stage wall times in the table come from
//! `Instant`, not the observer clock, so the table stays meaningful under
//! `CATS_OBS=off` — which is exactly how the observability overhead is
//! measured (see EXPERIMENTS.md).

use cats_bench::{render, setup, Args};
use cats_core::{Detector, DetectorConfig, ItemComments, SemanticAnalyzer};
use cats_embedding::{expand_lexicon, ExpansionConfig, Word2VecConfig, Word2VecTrainer};
use cats_par::Parallelism;
use cats_sentiment::SentimentModel;
use cats_text::{Corpus, Segmenter, WhitespaceSegmenter};
use std::time::Instant;

/// One sweep row: per-stage and total wall times at a thread count.
struct Row {
    threads: usize,
    segment_s: f64,
    embed_s: f64,
    fit_s: f64,
    detect_s: f64,
    profile: cats_obs::RunProfile,
}

impl Row {
    fn total(&self) -> f64 {
        self.segment_s + self.embed_s + self.fit_s + self.detect_s
    }
}

/// Runs the full training + detection pipeline once at `threads`,
/// timing each stage.
fn run_once(
    platform: &cats_platform::Platform,
    items: &[ItemComments],
    sales: &[u64],
    labels: &[u8],
    seed: u64,
    threads: usize,
) -> Row {
    let label = format!("exp_scaling threads={threads}");
    let timer = cats_obs::StageTimer::start(&label);
    let par = Parallelism::with_threads(threads);
    let seg = WhitespaceSegmenter;

    // Stage 1: corpus segmentation (work-stealing batch segmentation).
    let corpus_texts: Vec<&str> = platform
        .items()
        .iter()
        .flat_map(|i| i.comments.iter().map(|c| c.content.as_str()))
        .take(setup::MAX_W2V_COMMENTS)
        .collect();
    let t0 = Instant::now();
    let segment_span = cats_obs::span!("cats.bench.scaling.segment", { corpus_texts.len() });
    let mut corpus = Corpus::new();
    corpus.push_texts(&corpus_texts, &seg, par);
    drop(segment_span);
    let segment_s = t0.elapsed().as_secs_f64();

    // Stage 2: embedding + lexicon expansion + sentiment training.
    let (sent_pos, sent_neg) =
        setup::sentiment_corpus(platform.lexicon(), setup::SENTIMENT_REVIEWS, seed);
    let t0 = Instant::now();
    let embed_span = cats_obs::span!("cats.bench.scaling.embed");
    let w2v = Word2VecConfig { parallelism: par, ..setup::experiment_w2v() };
    let embedding = Word2VecTrainer::new(w2v).train(&corpus);
    let lexicon = expand_lexicon(
        &embedding,
        &platform.lexicon().positive_seeds(),
        &platform.lexicon().negative_seeds(),
        ExpansionConfig::default(),
    );
    let seg_docs = |texts: &[String]| -> Vec<Vec<String>> {
        cats_par::map_chunked(par, texts, |t| seg.segment(t))
    };
    let sentiment = SentimentModel::train_par(&seg_docs(&sent_pos), &seg_docs(&sent_neg), par);
    let analyzer = SemanticAnalyzer::from_parts(lexicon, sentiment);
    drop(embed_span);
    let embed_s = t0.elapsed().as_secs_f64();

    // Stage 3: detector fit (parallel extraction + parallel GBT).
    let t0 = Instant::now();
    let fit_span = cats_obs::span!("cats.bench.scaling.fit", { items.len() });
    let mut detector = Detector::with_default_classifier(DetectorConfig {
        parallelism: par,
        ..DetectorConfig::default()
    });
    detector.fit(items, labels, &analyzer);
    drop(fit_span);
    let fit_s = t0.elapsed().as_secs_f64();

    // Stage 4: batch detection.
    let t0 = Instant::now();
    let detect_span = cats_obs::span!("cats.bench.scaling.detect", { items.len() });
    let reports = detector.detect(items, sales, &analyzer);
    drop(detect_span);
    let detect_s = t0.elapsed().as_secs_f64();
    assert_eq!(reports.len(), items.len());

    Row { threads, segment_s, embed_s, fit_s, detect_s, profile: timer.finish() }
}

fn main() {
    let args = Args::parse(0.02, 0x5CA1);
    let platform = cats_platform::datasets::d0(args.scale, args.seed);
    let items: Vec<ItemComments> = platform.items().iter().map(setup::item_comments).collect();
    let sales: Vec<u64> = platform.items().iter().map(|i| i.sales_volume).collect();
    let labels: Vec<u8> = platform.items().iter().map(setup::item_label).collect();
    let comments: usize = items.iter().map(ItemComments::len).sum();
    println!(
        "== Extension: full-pipeline scaling ({} items, {} comments) ==",
        items.len(),
        comments
    );
    println!(
        "observability: {} (set CATS_OBS=off for the no-op observer baseline)",
        if cats_obs::enabled() { "enabled" } else { "disabled" }
    );

    let cores = cats_par::default_threads();
    let mut rows: Vec<Row> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        if threads > 2 * cores {
            break;
        }
        rows.push(run_once(&platform, &items, &sales, &labels, args.seed, threads));
    }

    let base = rows[0].total();
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                format!("{:.3}", r.segment_s),
                format!("{:.3}", r.embed_s),
                format!("{:.3}", r.fit_s),
                format!("{:.3}", r.detect_s),
                format!("{:.3}", r.total()),
                format!("{:.2}x", base / r.total()),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(
            &[
                "Threads",
                "Segment (s)",
                "Embed (s)",
                "Fit (s)",
                "Detect (s)",
                "Total (s)",
                "Speedup"
            ],
            &table_rows
        )
    );
    println!("machine parallelism: {cores} threads");

    // Deepest sweep row's profile, for `cats-cli metrics` and CI upload.
    let last = rows.last().expect("at least one sweep row");
    std::fs::write("PROFILE_scaling.json", last.profile.to_json())
        .expect("write PROFILE_scaling.json");
    println!("wrote PROFILE_scaling.json (threads={})", last.threads);
}
