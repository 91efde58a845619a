//! Property tests for the CATS core: feature extraction invariants,
//! threshold calibration, and the noisy-OR fusion contract. Each property
//! runs over seeded cases, case `c` drawing from `StdRng::seed_from_u64(c)`.

use cats_core::pipeline::{calibrate_balanced_threshold, calibrate_precision_threshold};
use cats_core::{
    features, fuse_scores, velocity_risk, DetectionReport, Detector, DetectorConfig, FeatureVector,
    FilterDecision, ItemComments, SemanticAnalyzer, VelocityFeatures, DEFAULT_FUSION_WEIGHT,
    N_FEATURES, N_VELOCITY_FEATURES,
};
use cats_ml::gbt::{GbtConfig, GradientBoostedTrees};
use cats_ml::{Classifier, Dataset};
use cats_sentiment::SentimentModel;
use cats_text::Lexicon;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Case number and generator for each of `n` cases.
fn cases(n: u64) -> impl Iterator<Item = (u64, StdRng)> {
    (0..n).map(|case| (case, StdRng::seed_from_u64(case)))
}

fn analyzer() -> SemanticAnalyzer {
    let lex = Lexicon::new(["hao".to_string(), "zan".to_string()], ["cha".to_string()]);
    let docs = |texts: &[&str]| -> Vec<Vec<String>> {
        texts.iter().map(|t| t.split_whitespace().map(String::from).collect()).collect()
    };
    let sent = SentimentModel::train(&docs(&["hao zan hao"]), &docs(&["cha cha"]));
    SemanticAnalyzer::from_parts(lex, sent)
}

/// Up to 24 tokens, each a lexicon word, `!` or a random 1–6 letter word.
fn comment_text(rng: &mut StdRng) -> String {
    let n = rng.random_range(0..25usize);
    let toks: Vec<String> = (0..n)
        .map(|_| match rng.random_range(0..5u32) {
            0 => "hao".to_string(),
            1 => "zan".to_string(),
            2 => "cha".to_string(),
            3 => "!".to_string(),
            _ => {
                let len = rng.random_range(1..7usize);
                (0..len).map(|_| (b'a' + rng.random_range(0..26u32) as u8) as char).collect()
            }
        })
        .collect();
    toks.join(" ")
}

fn item(rng: &mut StdRng) -> ItemComments {
    let n = rng.random_range(0..8usize);
    let texts: Vec<String> = (0..n).map(|_| comment_text(rng)).collect();
    ItemComments::from_texts(texts.iter().map(String::as_str))
}

fn classified(index: usize, score: f64, is_fraud: bool) -> DetectionReport {
    DetectionReport {
        index,
        filter: FilterDecision::Classified,
        score,
        is_fraud,
        features: Some(FeatureVector([0.0; N_FEATURES])),
    }
}

#[test]
fn features_always_finite_and_in_natural_ranges() {
    let a = analyzer();
    for (case, mut rng) in cases(48) {
        let v = features::extract(&item(&mut rng), &a);
        for (&x, name) in v.as_slice().iter().zip(features::FEATURE_NAMES) {
            assert!(x.is_finite() && x >= 0.0, "case {case}: {name} = {x}");
        }
        // ratio features bounded by 1
        for name in
            ["uniqueWordRatio", "averageSentiment", "averagePunctuationRatio", "averageNgramRatio"]
        {
            let x = v.get(name).unwrap();
            assert!(x <= 1.0 + 1e-12, "case {case}: {name} = {x}");
        }
        // sums dominate averages
        let (sum, avg) =
            (v.get("sumCommentLength").unwrap(), v.get("averageCommentLength").unwrap());
        assert!(sum >= avg - 1e-9, "case {case}: sum {sum} < average {avg}");
    }
}

fn check_batch_equals_sequential(case: &str, items: &[ItemComments], threads: usize) {
    let a = analyzer();
    let seq: Vec<_> = items.iter().map(|it| features::extract(it, &a)).collect();
    let par = features::extract_batch(items, &a, threads);
    assert_eq!(par, seq, "case {case}: {threads} threads");
}

#[test]
fn batch_extraction_equals_sequential() {
    for (case, mut rng) in cases(48) {
        let n = rng.random_range(0..12usize);
        let items: Vec<ItemComments> = (0..n).map(|_| item(&mut rng)).collect();
        let threads = rng.random_range(1..5usize);
        check_batch_equals_sequential(&case.to_string(), &items, threads);
    }
}

/// Two past failures of `batch_extraction_equals_sequential`.
#[test]
fn batch_extraction_regressions() {
    let items = |groups: &[&[&str]]| -> Vec<ItemComments> {
        groups.iter().map(|texts| ItemComments::from_texts(texts.iter().copied())).collect()
    };
    let first = items(&[&[
        "rsz hao ! ! zan ! hao cha cha cha zan hao ! hao hao umz",
        "hao zan ! cha",
        "hao hao hao zan hao ! ! zan zan ! hao mrlf o cha zan cha ghxc hao cha ! hao zan",
        "zan",
        "! ! ! zan zan ! ovky",
        "hao zan tl uxzyt cha zan cha cha zan hao ! zan zan bshydd !",
        "hao zan cha zan zan cha ! zan",
    ]]);
    check_batch_equals_sequential("regression 1", &first, 2);
    let second = items(&[
        &["hao yk zan aqaqqr hao zu hao cha ! cha ohhr ! ! zru ! ros ! !"],
        &[
            "hao hao jdrve zan",
            "cha zan hao hao lgmuv qdw iwaidi ds ! hao ! zan ! ian ! ! cha zan zan !",
            "hao zan zan cha ! zan a uzxg hao ! cha sj ! ! zan",
            "hao sg cha hao zan zan hao cha zan ! hao qsis ! aefzuq",
            "zan hao q zan zan hao zan cha wva txcjnp ! cha hao sokahd",
            "kpez cha ! obwd hao yfmxfn cha cha lkn tq cha cha",
        ],
        &[
            "cha zan",
            "hao uebk",
            "lrw zan zan hao shv ! hao mkwjn tbzk aasrtg ! h hao !",
            "zan zan zan id zan ! ! zan cha hao cha ! ! hao zan ! ! zan kwn ! nifbm",
            "!",
            "h ! y qstxcf ikibnj zan cha cha hao hao hao hao zan !",
            "vn ! ! cha hao cha ilnp s hao jknduf cha nmx cha cha ! hao hao cha ! !",
        ],
        &[
            "zan zan hao zan cha zan hh hao ! jok cha cha zan hao",
            "zan hao ! m ! ! zan zz cha cha cha ! hao zan yuv hao nxbz hao cha ! zan",
            "zan zan cha ! !",
            "deqp cha a zan hao w cnyg ! ! ! zbk ! cha cha",
            "cha ! ! ! cha !",
        ],
    ]);
    check_batch_equals_sequential("regression 2", &second, 3);
}

#[test]
fn calibration_thresholds_are_valid_scores() {
    for (case, mut rng) in cases(48) {
        let n_scores = rng.random_range(2..40usize);
        let scores: Vec<f64> = (0..n_scores).map(|_| rng.random_range(0.0..1.0)).collect();
        let n_labels = rng.random_range(2..40usize);
        let labels: Vec<u8> = (0..n_labels).map(|_| u8::from(rng.random_bool(0.5))).collect();
        let n = n_scores.min(n_labels);
        let reports: Vec<DetectionReport> =
            scores[..n].iter().enumerate().map(|(i, &s)| classified(i, s, s >= 0.5)).collect();
        let labels = &labels[..n];
        let t1 = calibrate_balanced_threshold(&reports, labels);
        let t2 = calibrate_precision_threshold(&reports, labels, 0.9);
        for t in [t1, t2] {
            assert!((0.0..=1.0).contains(&t), "case {case}: threshold {t}");
        }
    }
}

#[test]
fn precision_calibration_meets_target_when_feasible() {
    for (case, mut rng) in cases(48) {
        let n_pos = rng.random_range(3..20usize);
        let n_neg = rng.random_range(3..20usize);
        // Perfectly separable scores: positives ≥ 0.8, negatives ≤ 0.3.
        let mut reports = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_pos {
            reports.push(classified(i, 0.8 + 0.01 * (i as f64 % 10.0), true));
            labels.push(1u8);
        }
        for i in 0..n_neg {
            reports.push(classified(n_pos + i, 0.3 - 0.01 * (i as f64 % 10.0), false));
            labels.push(0u8);
        }
        let t = calibrate_precision_threshold(&reports, &labels, 1.0);
        // Applying t must reach the target on this holdout.
        let preds: Vec<bool> = reports.iter().map(|r| r.score >= t).collect();
        let m = cats_ml::metrics::BinaryMetrics::compute(&labels, &preds);
        assert!((m.precision - 1.0).abs() < 1e-12, "case {case}: precision {}", m.precision);
        assert!((m.recall - 1.0).abs() < 1e-12, "case {case}: separable data allows full recall");
    }
}

#[test]
fn fusion_is_bounded_and_anchored() {
    for (case, mut rng) in cases(48) {
        let content = rng.random_range(0.0..1.0);
        let risk = rng.random_range(0.0..1.0);
        let weight = rng.random_range(0.0..1.0);
        let fused = fuse_scores(content, risk, weight);
        assert!((0.0..=1.0).contains(&fused), "case {case}: fused {fused} out of [0,1]");
        // Noisy-OR anchors: fusion never lowers the content score, and a
        // certain content verdict stays certain whatever the velocity says.
        assert!(fused >= content - 1e-12, "case {case}: fusion weakened content");
        assert!((fuse_scores(1.0, risk, weight) - 1.0).abs() < 1e-12, "case {case}");
        // Zero-risk (or zero-weight) fusion is the identity on content.
        assert!((fuse_scores(content, 0.0, weight) - content).abs() < 1e-12, "case {case}");
        assert!((fuse_scores(content, risk, 0.0) - content).abs() < 1e-12, "case {case}");
    }
}

#[test]
fn fusion_is_monotone_in_both_inputs() {
    for (case, mut rng) in cases(48) {
        let mut pair = || {
            let (a, b) = (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            (f64::min(a, b), f64::max(a, b))
        };
        let (c0, c1) = pair();
        let (r0, r1) = pair();
        let weight = rng.random_range(0.0..1.0);
        assert!(
            fuse_scores(c0, r0, weight) <= fuse_scores(c1, r0, weight) + 1e-12,
            "case {case}: fusion must be monotone in the content score"
        );
        assert!(
            fuse_scores(c0, r0, weight) <= fuse_scores(c0, r1, weight) + 1e-12,
            "case {case}: fusion must be monotone in the velocity risk"
        );
    }
}

#[test]
fn velocity_risk_alone_never_crosses_the_default_threshold() {
    // The w = 0.5 safety contract (DESIGN.md §13): with zero content
    // evidence, fused = w · risk ≤ 0.5 < the 0.5-exclusive default
    // threshold — velocity bursts alone (a flash sale, a viral item) can
    // never be reported as fraud.
    for (case, mut rng) in cases(48) {
        let v = VelocityFeatures(std::array::from_fn::<f64, N_VELOCITY_FEATURES, _>(|_| {
            rng.random_range(0.0..1e6)
        }));
        let risk = velocity_risk(&v);
        assert!((0.0..=1.0).contains(&risk), "case {case}: velocity risk {risk} out of [0,1]");
        let fused = fuse_scores(0.0, risk, DEFAULT_FUSION_WEIGHT);
        assert!(fused <= DEFAULT_FUSION_WEIGHT + 1e-12, "case {case}: velocity-only fused {fused}");
        assert!(fused < 0.5 + 1e-12, "case {case}: velocity alone crossed the fraud threshold");
    }
}

/// One feature row: each value drawn from [-5, 5), and with probability
/// 1/4 one feature replaced by NaN, +inf or -inf.
fn feature_row(rng: &mut StdRng) -> FeatureVector {
    let mut v: [f64; N_FEATURES] = std::array::from_fn(|_| rng.random_range(-5.0..5.0));
    if rng.random_range(0..4u32) == 0 {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        v[rng.random_range(0..N_FEATURES)] = bad[rng.random_range(0..3usize)];
    }
    FeatureVector(v)
}

#[test]
fn score_rows_is_per_row_predict_proba_and_zero_for_non_finite_rows() {
    let mut rng = StdRng::seed_from_u64(u64::MAX);
    let mut data = Dataset::new(N_FEATURES);
    for _ in 0..200 {
        let v: [f64; N_FEATURES] = std::array::from_fn(|_| rng.random_range(-5.0..5.0));
        data.push(&v, u8::from(v[0] + 0.5 * v[3] > 0.0));
    }
    let mut gbt = GradientBoostedTrees::new(GbtConfig { n_trees: 30, ..GbtConfig::default() });
    gbt.fit(&data);
    let detector = Detector::new(DetectorConfig::default(), gbt.clone());

    for (case, mut rng) in cases(64) {
        let n = rng.random_range(0..24usize);
        let rows: Vec<FeatureVector> = (0..n).map(|_| feature_row(&mut rng)).collect();
        let scores = detector.score_rows(&rows);
        assert_eq!(scores.len(), rows.len(), "case {case}: one score per row");
        for (i, (row, score)) in rows.iter().zip(&scores).enumerate() {
            let want = if row.is_finite() { gbt.predict_proba(row.as_slice()) } else { 0.0 };
            assert_eq!(score.to_bits(), want.to_bits(), "case {case}: row {i} {row:?}");
        }
    }
}
