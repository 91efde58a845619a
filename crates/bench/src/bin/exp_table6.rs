//! Table VI — CATS performance on D1.
//!
//! The paper pre-trains the detector on D0 and evaluates on D1, reporting
//! two slices: the overall fraud items (P 0.91 / R 0.90 / F 0.90) and the
//! fraud items labeled with sufficient evidence (P 0.83 / R 0.92 /
//! F 0.87). This binary runs the same transfer: train on a D0-shaped
//! platform, detect on a *differently seeded* D1-shaped platform, and
//! slice by label provenance.

use cats_bench::{render, setup, Args};
use cats_core::pipeline::{calibrate_balanced_threshold, EvaluationSlices};
use cats_core::ItemComments;
use cats_platform::datasets;

fn main() {
    let args = Args::parse(0.01, 0x7AB6);
    println!("== Table VI: train on D0, evaluate on D1 (scale={}) ==", args.scale);

    let d0 = datasets::d0(args.scale * 5.0, args.seed);
    let mut pipeline = setup::train_pipeline(&d0, args.seed);
    println!(
        "trained on D0: {} items, detector = {}",
        d0.items().len(),
        cats_ml::Classifier::name(pipeline.detector().gbt())
    );

    // Calibrate the operating point on a held-out *production-shaped*
    // validation platform (same prevalence as the target): the balanced
    // (P ≈ R) threshold, matching the paper's reported P ≈ R ≈ 0.9 row.
    // Calibrating at deployment prevalence matters — a threshold balanced
    // on the curated 40%-fraud D0 set over-fires at D1's 1.3%.
    let holdout = datasets::d1(args.scale * 0.4, args.seed.wrapping_add(101));
    let h_items: Vec<ItemComments> = holdout.items().iter().map(setup::item_comments).collect();
    let h_sales: Vec<u64> = holdout.items().iter().map(|i| i.sales_volume).collect();
    let h_reports = pipeline.detect(&h_items, &h_sales);
    let h_labels: Vec<u8> = holdout.items().iter().map(setup::item_label).collect();
    let threshold = calibrate_balanced_threshold(&h_reports, &h_labels);
    pipeline.detector_mut().set_threshold(threshold);
    println!("calibrated balanced threshold on holdout: {threshold:.3}");

    let d1 = datasets::d1(args.scale, args.seed.wrapping_add(7));
    let items: Vec<ItemComments> = d1.items().iter().map(setup::item_comments).collect();
    let sales: Vec<u64> = d1.items().iter().map(|i| i.sales_volume).collect();
    let reports = pipeline.detect(&items, &sales);
    let kinds: Vec<_> = d1.items().iter().map(|i| setup::label_kind(i.label)).collect();
    let slices = EvaluationSlices::compute(&reports, &kinds);

    let rows = vec![
        vec![
            "fraud items labeled with sufficient evidences".to_string(),
            render::f3(slices.sufficient_evidence.precision),
            render::f3(slices.sufficient_evidence.recall),
            render::f3(slices.sufficient_evidence.f1),
            "0.83 / 0.92 / 0.87".to_string(),
        ],
        vec![
            "the overall fraud items".to_string(),
            render::f3(slices.overall.precision),
            render::f3(slices.overall.recall),
            render::f3(slices.overall.f1),
            "0.91 / 0.90 / 0.90".to_string(),
        ],
    ];
    println!(
        "{}",
        render::table(&["Category", "Precision", "Recall", "F-score", "Paper P/R/F"], &rows)
    );

    let reported = reports.iter().filter(|r| r.is_fraud).count();
    println!(
        "reported {} frauds among {} items ({} truly fraudulent)",
        reported,
        d1.items().len(),
        d1.items().iter().filter(|i| i.label.is_fraud()).count()
    );
}
