//! Determinism guarantees of the parallel runtime (`cats-par`).
//!
//! Every pipeline stage routed through the work-stealing pool promises
//! one of two contracts, both checked here across thread counts:
//!
//! * **bit-identical** — feature extraction, GBT fitting and
//!   cross-validation produce exactly the same bytes at 1, 2 and 8
//!   threads;
//! * **seed-stable** — sharded word2vec is a function of the seed alone
//!   (thread-count independent), and its vectors keep the corpus's
//!   cluster structure.
//!
//! Two digest tests pin the bits themselves: word2vec plus seed
//! expansion, under both word2vec schedules, and the reports `detect`
//! gives on raw-text items at 1 and 2 threads must reproduce recorded
//! checksums, so a speed-up that changes a model or a verdict fails here.

use cats::core::features::{extract_batch, ItemComments};
use cats::core::SemanticAnalyzer;
use cats::embedding::{expand_lexicon, ExpansionConfig, Word2VecConfig, Word2VecTrainer};
use cats::ml::gbt::{GbtConfig, GradientBoostedTrees, SplitMode};
use cats::ml::model_selection::cross_validate_with;
use cats::ml::{Classifier, Dataset};
use cats::sentiment::SentimentModel;
use cats::text::{Corpus, Lexicon};
use cats_par::Parallelism;

fn par(threads: usize) -> Parallelism {
    Parallelism::with_threads(threads)
}

fn analyzer() -> SemanticAnalyzer {
    let lex = Lexicon::new(["hao".to_string()], ["cha".to_string()]);
    let docs = |texts: &[&str]| -> Vec<Vec<String>> {
        texts.iter().map(|t| t.split_whitespace().map(String::from).collect()).collect()
    };
    let sent = SentimentModel::train(&docs(&["hao hao zan"]), &docs(&["cha cha huai"]));
    SemanticAnalyzer::from_parts(lex, sent)
}

#[test]
fn extract_batch_is_bit_identical_across_thread_counts() {
    let a = analyzer();
    let items: Vec<ItemComments> = (0..60)
        .map(|i| {
            ItemComments::from_texts([
                format!("hao hao w{i} zan hao ! cha dian").as_str(),
                format!("dongxi hao x{} cha le", i % 7).as_str(),
            ])
        })
        .collect();
    let baseline = extract_batch(&items, &a, 1);
    for threads in [2usize, 8] {
        let rows = extract_batch(&items, &a, threads);
        assert_eq!(rows.len(), baseline.len());
        for (i, (r, b)) in rows.iter().zip(&baseline).enumerate() {
            for (x, y) in r.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {i} differs at {threads} threads");
            }
        }
    }
}

/// Two shifted Gaussian-ish blobs, deterministic, linearly inseparable
/// enough to grow real trees.
fn blobs(n: usize) -> Dataset {
    let mut d = Dataset::new(4);
    for i in 0..n {
        let j = ((i * 37) % 100) as f64 / 100.0;
        let k = ((i * 61) % 100) as f64 / 100.0;
        d.push(&[1.5 + j, k, j * k, 1.0 - k], 1);
        d.push(&[-1.5 - k, j, -j * k, k], 0);
    }
    d
}

#[test]
fn gbt_fit_is_bit_identical_across_thread_counts() {
    // Crosses both parallel gates: 3000 rows > PAR_MIN_ROWS, and root
    // nodes > PAR_MIN_SPLIT_MEMBERS.
    let data = blobs(1500);
    for mode in [SplitMode::Exact, SplitMode::Histogram { bins: 16 }] {
        let cfg = |p: Parallelism| GbtConfig {
            n_trees: 6,
            split_mode: mode,
            parallelism: p,
            ..GbtConfig::default()
        };
        let mut serial = GradientBoostedTrees::new(cfg(Parallelism::serial()));
        serial.fit(&data);
        for threads in [2usize, 8] {
            let mut parallel = GradientBoostedTrees::new(cfg(par(threads)));
            parallel.fit(&data);
            for i in 0..data.len() {
                assert_eq!(
                    serial.predict_proba(data.row(i)).to_bits(),
                    parallel.predict_proba(data.row(i)).to_bits(),
                    "row {i}, mode {mode:?}, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn cross_validation_is_identical_across_thread_counts() {
    let data = blobs(150);
    let run = |threads: usize| {
        let mut m = GradientBoostedTrees::new(GbtConfig { n_trees: 4, ..GbtConfig::default() });
        cross_validate_with(&mut m, &data, 5, 7, par(threads))
    };
    let baseline = run(1);
    for threads in [2usize, 8] {
        let r = run(threads);
        assert_eq!(r.folds, baseline.folds, "{threads} threads");
        assert_eq!(r.precision.to_bits(), baseline.precision.to_bits());
        assert_eq!(r.recall.to_bits(), baseline.recall.to_bits());
        assert_eq!(r.f1.to_bits(), baseline.f1.to_bits());
        assert_eq!(r.accuracy.to_bits(), baseline.accuracy.to_bits());
    }
}

/// A clustered corpus big enough (≥ 4096 sentences) to engage the
/// deterministic sharded word2vec schedule.
fn clustered_corpus() -> Corpus {
    clustered_corpus_of(4600)
}

/// The first `sentences` sentences of the clustered fixture.
fn clustered_corpus_of(sentences: usize) -> Corpus {
    let mut corpus = Corpus::new();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    for _ in 0..sentences {
        let v = next(4);
        let toks: Vec<String> = match next(3) {
            0 => vec![
                format!("hao{v}"),
                format!("zan{}", next(4)),
                format!("hao{}", next(4)),
                format!("bang{v}"),
                "kuai".to_string(),
            ],
            1 => vec![
                format!("cha{v}"),
                format!("lan{}", next(4)),
                format!("cha{}", next(4)),
                format!("huai{v}"),
                "man".to_string(),
            ],
            _ => vec!["he".to_string(), "zi".to_string(), "kuai".to_string(), "di".to_string()],
        };
        corpus.push_tokens(&toks);
    }
    corpus
}

#[test]
fn deterministic_word2vec_is_seed_stable_across_thread_counts() {
    let corpus = clustered_corpus();
    assert!(corpus.len() >= 4096, "fixture must engage the sharded schedule");
    let train = |threads: usize| {
        let cfg = Word2VecConfig {
            dim: 16,
            epochs: 2,
            min_count: 2,
            subsample: 0.0,
            parallelism: par(threads),
            ..Word2VecConfig::default()
        };
        Word2VecTrainer::new(cfg).train(&corpus)
    };
    let baseline = train(1);
    for threads in [2usize, 8] {
        let emb = train(threads);
        assert_eq!(emb.len(), baseline.len());
        for (word, _) in baseline.words() {
            let a = baseline.vector(word).unwrap();
            let b = emb.vector(word).unwrap();
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{word} differs at {threads} threads");
            }
        }
    }
}

#[test]
fn default_word2vec_preserves_cluster_structure() {
    let corpus = clustered_corpus();
    let cfg = Word2VecConfig {
        dim: 16,
        epochs: 3,
        min_count: 2,
        subsample: 0.0,
        ..Word2VecConfig::default()
    };
    let emb = Word2VecTrainer::new(cfg).train(&corpus);
    // Words that co-occur must end up closer than words that never do.
    let within = emb.similarity("hao0", "hao1").unwrap();
    let across = emb.similarity("hao0", "cha1").unwrap();
    assert!(within > across, "within-cluster sim {within} should beat across-cluster sim {across}");
}

/// CRC32 of a trained embedding (every word, and every trained vector's
/// bits, in vocabulary order) and of the lexicon expanded from it (each
/// polarity's words, sorted).
fn training_digest(corpus: &Corpus) -> (u32, u32) {
    let cfg = Word2VecConfig {
        dim: 16,
        epochs: 3,
        min_count: 2,
        subsample: 0.0,
        ..Word2VecConfig::default()
    };
    let emb = Word2VecTrainer::new(cfg).train(corpus);
    let mut bytes = Vec::new();
    for (word, trained) in emb.words() {
        bytes.extend_from_slice(word.as_bytes());
        bytes.push(0);
        if trained {
            for x in emb.vector(word).expect("trained word has a vector") {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
    }
    let cfg = ExpansionConfig { k: 10, min_similarity: 0.0, max_words: 6 };
    let lexicon = expand_lexicon(&emb, &["hao0".into()], &["cha0".into()], cfg);
    let mut pos: Vec<&str> = lexicon.positive_words().collect();
    let mut neg: Vec<&str> = lexicon.negative_words().collect();
    pos.sort_unstable();
    neg.sort_unstable();
    let words = format!("{}|{}", pos.join(" "), neg.join(" "));
    (cats_io::crc32(&bytes), cats_io::crc32(words.as_bytes()))
}

#[test]
fn trained_embedding_and_lexicon_match_recorded_digests() {
    // The sharded schedule (≥ 4096 sentences), then the serial one.
    // Recorded before the bucketed sampler, cached-norm neighbour query
    // and borrowed-token corpus build.
    let cases = [(4600, (0x5fed_2132, 0x4de2_286d)), (2000, (0xa486_b328, 0x9e46_a0df))];
    for (sentences, want) in cases {
        let corpus = clustered_corpus_of(sentences);
        let got = training_digest(&corpus);
        assert_eq!(got, want, "{sentences} sentences: (vectors, lexicon) CRC32");
    }
}

/// Scraps appended to the digest items' comments: words outside the
/// lexicon and the sentiment vocabulary, ASCII and CJK punctuation, and
/// whitespace the segmenter must split on (or, for U+001C, U+200B and
/// U+FEFF, must not).
const DIGEST_EXTRA: [&str; 12] = [
    "!!",
    "。",
    "，很好",
    "a\u{3000}b",
    "x\u{85}y",
    "u\u{1680}v",
    "p\u{205F}q",
    "z\u{200B}z",
    "\u{FEFF}bom",
    "fs\u{1C}gs\u{1F}us",
    "😀 é ✓",
    "\t\n~ ; :",
];

/// Reports of a detector trained on a small D0 draw, over raw-text items
/// from a second draw with scraps and unknown words mixed in, at
/// `threads` threads: the CRC32 of each report's filter, score bits,
/// verdict and feature bits, in item order.
fn verdict_digest(threads: usize) -> u32 {
    use cats::core::{Detector, DetectorConfig, FilterDecision};
    use cats::platform::comment_model::{generate_comment, CommentStyle};
    use cats::platform::datasets;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let train = datasets::d0(0.003, 91);
    let words = train.lexicon();
    // Half of each polarity, so the other half can be known to the
    // sentiment model alone.
    let half = |w: &[String]| w[..w.len() / 2].to_vec();
    let lexicon = Lexicon::new(half(words.positive()), half(words.negative()));
    let mut rng = StdRng::seed_from_u64(91);
    let mut reviews = |style| -> Vec<Vec<String>> {
        (0..200)
            .map(|_| {
                generate_comment(words, style, &mut rng)
                    .split_whitespace()
                    .map(String::from)
                    .collect()
            })
            .collect()
    };
    let (pos, neg) =
        (reviews(CommentStyle::OrganicPositive), reviews(CommentStyle::OrganicNegative));
    let analyzer = SemanticAnalyzer::from_parts(lexicon, SentimentModel::train(&pos, &neg));
    let train_items: Vec<ItemComments> = train
        .items()
        .iter()
        .map(|i| ItemComments::from_texts(i.comments.iter().map(|c| c.content.as_str())))
        .collect();
    let labels: Vec<u8> = train.items().iter().map(|i| u8::from(i.label.is_fraud())).collect();
    let mut detector = Detector::with_default_classifier(DetectorConfig {
        parallelism: par(threads),
        ..DetectorConfig::default()
    });
    detector.fit(&train_items, &labels, &analyzer);

    let target = datasets::d0(0.003, 92);
    let mut rng = StdRng::seed_from_u64(92);
    let mut sales = Vec::new();
    let items: Vec<Vec<String>> = target
        .items()
        .iter()
        .map(|it| {
            sales.push(if rng.next_u64() % 10 == 0 { 1 } else { it.sales_volume });
            if rng.next_u64() % 20 == 0 {
                return Vec::new();
            }
            it.comments
                .iter()
                .map(|c| {
                    let mut text = c.content.clone();
                    for _ in 0..rng.next_u64() % 4 {
                        text.push(' ');
                        match rng.next_u64() % 3 {
                            0 => text.push_str(DIGEST_EXTRA[(rng.next_u64() % 12) as usize]),
                            _ => text.push_str(&format!("unk{}", rng.next_u64() % 300)),
                        }
                    }
                    text
                })
                .collect()
        })
        .collect();
    let raw: Vec<&[String]> = items.iter().map(Vec::as_slice).collect();
    let reports = detector.detect(&raw, &sales, &analyzer);
    let mut bytes = Vec::new();
    for r in &reports {
        bytes.push(match r.filter {
            FilterDecision::Classified => 0,
            FilterDecision::FilteredLowSales => 1,
            FilterDecision::FilteredNoPositiveEvidence => 2,
            FilterDecision::Quarantined => 3,
        });
        bytes.extend_from_slice(&r.score.to_bits().to_le_bytes());
        bytes.push(u8::from(r.is_fraud));
        for x in r.features.iter().flat_map(|f| f.as_slice()) {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    cats_io::crc32(&bytes)
}

#[test]
fn detect_verdicts_match_recorded_digest() {
    // Recorded before the dense-id token table, id-keyed counting and
    // byte-class segmenter.
    const WANT: u32 = 0xcd87_ad20;
    for threads in [1, 2] {
        assert_eq!(verdict_digest(threads), WANT, "{threads} threads: verdict CRC32");
    }
}
