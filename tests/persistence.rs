//! Integration: detector persistence — train, snapshot to CATS-IO2, restore,
//! and verify identical verdicts (the workflow for shipping a pre-trained
//! CATS to a new platform) — plus the corruption classes of DESIGN.md
//! §10: a truncated, bit-flipped or zero-length snapshot file must
//! surface a typed [`PersistError`], never a panic or a half-loaded
//! model.

use cats::core::pipeline::{PersistError, PipelineSnapshot};
use cats::core::semantic::SemanticConfig;
use cats::core::{CatsPipeline, DetectorConfig, ItemComments, SemanticAnalyzer};
use cats::embedding::{ExpansionConfig, Word2VecConfig};
use cats::ml::gbt::{GbtConfig, GradientBoostedTrees};
use cats::ml::{Classifier, Dataset};
use cats::platform::comment_model::{generate_comment, CommentStyle};
use cats::platform::datasets;
use cats::platform::Platform;
use rand::{rngs::StdRng, SeedableRng};

/// Trains a small analyzer + concrete GBT on a platform's own data —
/// the shared setup for the persistence tests.
fn train_parts(train: &Platform, seed: u64) -> (SemanticAnalyzer, GradientBoostedTrees) {
    let corpus: Vec<&str> =
        train.items().iter().flat_map(|i| i.comments.iter().map(|c| c.content.as_str())).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let pos: Vec<String> = (0..300)
        .map(|_| generate_comment(train.lexicon(), CommentStyle::OrganicPositive, &mut rng))
        .collect();
    let neg: Vec<String> = (0..300)
        .map(|_| generate_comment(train.lexicon(), CommentStyle::OrganicNegative, &mut rng))
        .collect();
    let analyzer = SemanticAnalyzer::train(
        &corpus,
        &train.lexicon().positive_seeds(),
        &train.lexicon().negative_seeds(),
        &pos.iter().map(String::as_str).collect::<Vec<_>>(),
        &neg.iter().map(String::as_str).collect::<Vec<_>>(),
        SemanticConfig {
            word2vec: Word2VecConfig { dim: 24, epochs: 2, ..Word2VecConfig::default() },
            expansion: ExpansionConfig::default(),
            ..SemanticConfig::default()
        },
    );
    let items: Vec<ItemComments> = train
        .items()
        .iter()
        .map(|i| ItemComments::from_texts(i.comments.iter().map(|c| c.content.as_str())))
        .collect();
    let labels: Vec<u8> = train.items().iter().map(|i| u8::from(i.label.is_fraud())).collect();
    let rows = cats::core::features::extract_batch(&items, &analyzer, 0);
    let mut data = Dataset::new(cats::core::N_FEATURES);
    for (r, &l) in rows.iter().zip(&labels) {
        data.push(r.as_slice(), l);
    }
    let mut gbt = GradientBoostedTrees::new(GbtConfig::default());
    gbt.fit(&data);
    (analyzer, gbt)
}

#[test]
fn snapshot_roundtrip_preserves_verdicts() {
    let train = datasets::d0(0.004, 61);
    let (analyzer, gbt) = train_parts(&train, 61);

    // Snapshot → IO2 bytes → restore.
    let snap = CatsPipeline::snapshot(analyzer.clone(), DetectorConfig::default(), gbt.clone());
    let bytes = snap.to_io2_bytes().expect("encode");
    assert!(bytes.len() > 1_000, "snapshot suspiciously small");
    let restored = PipelineSnapshot::from_bytes(&bytes).expect("decode");
    let pipeline = CatsPipeline::restore(restored);

    // Fresh target platform; compare restored pipeline against the
    // original concrete model.
    let target = datasets::d0(0.004, 62);
    let t_items: Vec<ItemComments> = target
        .items()
        .iter()
        .map(|i| ItemComments::from_texts(i.comments.iter().map(|c| c.content.as_str())))
        .collect();
    let t_sales: Vec<u64> = target.items().iter().map(|i| i.sales_volume).collect();
    let reports = pipeline.detect(&t_items, &t_sales);

    let t_rows = cats::core::features::extract_batch(&t_items, &analyzer, 0);
    for (report, row) in reports.iter().zip(&t_rows) {
        if report.features.is_some() {
            let direct = gbt.predict_proba(row.as_slice());
            assert!(
                (report.score - direct).abs() < 1e-12,
                "restored score {} != direct {}",
                report.score,
                direct
            );
        }
    }
}

#[test]
fn snapshot_save_load_save_reports_are_byte_identical() {
    let train = datasets::d0(0.003, 71);
    let (analyzer, gbt) = train_parts(&train, 71);
    let snap = CatsPipeline::snapshot(analyzer, DetectorConfig::default(), gbt);
    assert_eq!(snap.format_version, cats::core::SNAPSHOT_FORMAT_VERSION);

    // The encoding is stable: save → load → save is byte-identical over
    // two generations, so a snapshot survives any number of them.
    let dir = cats::io::ScratchDir::new("cats_persist_gen");
    let paths = [dir.join("gen0.cats"), dir.join("gen1.cats"), dir.join("gen2.cats")];
    snap.save(&paths[0]).expect("save gen0");
    let gen1 = PipelineSnapshot::load(&paths[0]).expect("load gen1");
    assert_eq!(gen1.format_version, cats::core::SNAPSHOT_FORMAT_VERSION);
    gen1.save(&paths[1]).expect("save gen1");
    let gen2 = PipelineSnapshot::load(&paths[1]).expect("load gen2");
    gen2.save(&paths[2]).expect("save gen2");
    let bytes: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).expect("read")).collect();
    assert_eq!(bytes[0], bytes[1], "generation 1 re-saves byte-identically");
    assert_eq!(bytes[1], bytes[2], "generation 2 re-saves byte-identically");

    // And the models behind both generations score byte-identically:
    // serialize the full report streams and compare as strings, the
    // same shape `cats-cli detect` emits.
    let target = datasets::d0(0.003, 72);
    let t_items: Vec<ItemComments> = target
        .items()
        .iter()
        .map(|i| ItemComments::from_texts(i.comments.iter().map(|c| c.content.as_str())))
        .collect();
    let t_sales: Vec<u64> = target.items().iter().map(|i| i.sales_volume).collect();
    let gen1 = CatsPipeline::restore(gen1);
    let gen2 = CatsPipeline::restore(gen2);
    let reports1 = serde_json::to_string(&gen1.detect(&t_items, &t_sales)).expect("reports1");
    let reports2 = serde_json::to_string(&gen2.detect(&t_items, &t_sales)).expect("reports2");
    assert!(reports1.contains("\"score\""), "reports are non-trivial");
    assert_eq!(reports1, reports2, "restored models must score byte-identically");

    // The same model stamped with a future format version in its `meta`
    // section must be rejected — a deployed server never loads a model
    // it can't read.
    let mut future = PipelineSnapshot::from_bytes(&bytes[2]).expect("decode gen2 bytes");
    future.format_version = cats::core::SNAPSHOT_FORMAT_VERSION + 1;
    let future = future.to_io2_bytes().expect("encode future version");
    let err =
        PipelineSnapshot::from_bytes(&future).map(|_| ()).expect_err("future version rejected");
    assert!(err.to_string().contains("newer than supported"), "{err}");
}

#[test]
fn io2_container_corruption_classes_fail_typed_and_never_panic() {
    use cats::io::io2::{is_io2, Io2Builder, Io2File};

    let train = datasets::d0(0.003, 91);
    let (analyzer, gbt) = train_parts(&train, 91);
    let snap = CatsPipeline::snapshot(analyzer, DetectorConfig::default(), gbt);

    let dir = cats::io::ScratchDir::new("cats_persist_io2");
    let path = dir.join("model.cats");

    snap.save(&path).expect("IO2 save");
    let good = std::fs::read(&path).expect("read container bytes");
    assert!(is_io2(&good), "save writes a CATS-IO2 container");
    let restored = PipelineSnapshot::load(&path).expect("intact container loads");
    assert_eq!(restored.format_version, cats::core::SNAPSHOT_FORMAT_VERSION);

    // Truncated mid-section-table: the header promises more entries
    // than the file holds.
    std::fs::write(&path, &good[..24]).expect("truncate table");
    let err = PipelineSnapshot::load(&path).map(|_| ()).expect_err("torn table must fail");
    assert!(
        matches!(err, PersistError::Io(cats::io::IoError::LengthMismatch { .. })),
        "want a typed length mismatch, got: {err}"
    );

    // Truncated mid-payload: the table is intact but a section's bytes
    // run past EOF.
    std::fs::write(&path, &good[..good.len() - 16]).expect("truncate payload");
    let err = PipelineSnapshot::load(&path).map(|_| ()).expect_err("torn payload must fail");
    assert!(
        matches!(err, PersistError::Io(cats::io::IoError::LengthMismatch { .. })),
        "want a typed length mismatch, got: {err}"
    );

    // A single flipped bit inside a section payload: the per-section
    // CRC32 catches it.
    let mut flipped = good.clone();
    let n = flipped.len();
    flipped[n - 2] ^= 0x40;
    std::fs::write(&path, &flipped).expect("bit-flip");
    let err = PipelineSnapshot::load(&path).map(|_| ()).expect_err("bit-flip must fail");
    assert!(
        matches!(err, PersistError::Io(cats::io::IoError::ChecksumMismatch { .. })),
        "want a checksum mismatch, got: {err}"
    );

    // Zero-length file (create-then-crash artifact).
    std::fs::write(&path, b"").expect("empty");
    let err = PipelineSnapshot::load(&path).map(|_| ()).expect_err("empty must fail");
    assert!(
        matches!(err, PersistError::Io(cats::io::IoError::Empty { .. })),
        "want the empty-file error, got: {err}"
    );

    // A container stamped with a future layout version must be rejected
    // up front — this build cannot know how to read it.
    let mut future = good.clone();
    future[8..12].copy_from_slice(&(cats::io::io2::IO2_VERSION + 1).to_le_bytes());
    std::fs::write(&path, &future).expect("future version");
    let err = PipelineSnapshot::load(&path).map(|_| ()).expect_err("future container rejected");
    assert!(err.to_string().contains("newer than supported"), "{err}");

    // An unknown section from a richer future writer is skipped, not
    // fatal: rebuild the container with an extra section and reload.
    let parsed = Io2File::parse(&good, "good").expect("parse good container");
    let mut b = Io2Builder::new();
    for name in parsed.section_names() {
        b.section(name, parsed.section(name).expect("listed section").to_vec());
    }
    b.section("zz-future", b"from a future build".to_vec());
    let with_future = b.finish();
    let reloaded = PipelineSnapshot::from_bytes(&with_future).expect("unknown section skipped");
    assert_eq!(
        reloaded.to_io2_bytes().expect("re-encode").as_slice(),
        good.as_slice(),
        "decoding ignores the unknown section and re-encodes canonically"
    );
}

#[test]
fn corrupt_snapshot_files_fail_typed_and_never_panic() {
    let train = datasets::d0(0.003, 81);
    let (analyzer, gbt) = train_parts(&train, 81);
    let snap = CatsPipeline::snapshot(analyzer, DetectorConfig::default(), gbt);

    let dir = cats::io::ScratchDir::new("cats_persist");
    let path = dir.join("model.snapshot");

    // The happy path: save is atomic + checksummed, load verifies.
    snap.save(&path).expect("save");
    let restored = PipelineSnapshot::load(&path).expect("intact snapshot loads");
    assert_eq!(restored.format_version, cats::core::SNAPSHOT_FORMAT_VERSION);
    let good = std::fs::read(&path).expect("read snapshot bytes");
    assert!(good.len() > 1_000, "snapshot suspiciously small");

    // Truncated mid-payload (torn non-atomic rewrite): the section table
    // declares more bytes than are present.
    std::fs::write(&path, &good[..good.len() / 2]).expect("truncate");
    let err = PipelineSnapshot::load(&path).map(|_| ()).expect_err("truncated must fail");
    assert!(matches!(err, PersistError::Io(_)), "want a typed IO error, got: {err}");

    // A single flipped bit deep in the payload: the section may still
    // decode, so only the checksum catches it.
    let mut flipped = good.clone();
    let n = flipped.len();
    flipped[n - 2] ^= 0x40;
    std::fs::write(&path, &flipped).expect("bit-flip");
    let err = PipelineSnapshot::load(&path).map(|_| ()).expect_err("bit-flip must fail");
    assert!(
        matches!(err, PersistError::Io(cats::io::IoError::ChecksumMismatch { .. })),
        "want a checksum mismatch, got: {err}"
    );

    // Zero-length file (classic create-then-crash artifact).
    std::fs::write(&path, b"").expect("empty");
    let err = PipelineSnapshot::load(&path).map(|_| ()).expect_err("empty must fail");
    assert!(
        matches!(err, PersistError::Io(cats::io::IoError::Empty { .. })),
        "want the empty-file error, got: {err}"
    );
}
