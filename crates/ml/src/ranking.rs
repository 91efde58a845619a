//! Threshold-free ranking metrics: ROC-AUC, precision–recall curves, and
//! average precision.
//!
//! The paper reports single operating points (Tables III & VI), but
//! choosing those points — the balanced threshold of the D1 evaluation,
//! the high-precision deployment threshold of the E-platform run —
//! requires the full score ranking. These utilities back the calibration
//! code in `cats-core` and the `exp_prcurve` experiment.

/// One point of a precision–recall curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// Decision threshold producing this point.
    pub threshold: f64,
    /// Precision at the threshold.
    pub precision: f64,
    /// Recall at the threshold.
    pub recall: f64,
}

/// Sorts `(score, label)` pairs by descending score, NaN scores last.
fn ranked(scores: &[f64], labels: &[u8]) -> Vec<(f64, u8)> {
    assert_eq!(scores.len(), labels.len(), "scores/labels mismatch");
    let mut pairs: Vec<(f64, u8)> = scores.iter().copied().zip(labels.iter().copied()).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Less));
    pairs
}

/// Area under the ROC curve via the rank-sum (Mann–Whitney) formulation,
/// with the standard ½ tie correction. Returns 0.5 when either class is
/// absent (no ranking information).
pub fn roc_auc(scores: &[f64], labels: &[u8]) -> f64 {
    let pairs = ranked(scores, labels);
    let n_pos = pairs.iter().filter(|(_, l)| *l == 1).count() as f64;
    let n_neg = pairs.len() as f64 - n_pos;
    if n_pos == 0.0 || n_neg == 0.0 {
        return 0.5;
    }
    // Walk descending scores; count (pos ranked above neg) pairs, ties ½.
    let mut auc = 0.0;
    let mut neg_seen = 0.0;
    let mut i = 0;
    while i < pairs.len() {
        // group of tied scores
        let mut j = i;
        let mut pos_in_group = 0.0;
        let mut neg_in_group = 0.0;
        while j < pairs.len() && pairs[j].0 == pairs[i].0 {
            if pairs[j].1 == 1 {
                pos_in_group += 1.0;
            } else {
                neg_in_group += 1.0;
            }
            j += 1;
        }
        // each positive in the group beats all negatives seen *after* the
        // group, ties with negatives inside it
        let neg_after = n_neg - neg_seen - neg_in_group;
        auc += pos_in_group * (neg_after + neg_in_group / 2.0);
        neg_seen += neg_in_group;
        i = j;
    }
    auc / (n_pos * n_neg)
}

/// The precision–recall curve: one point per distinct score threshold,
/// highest threshold first. Returns an empty curve when there are no
/// positive labels.
pub fn pr_curve(scores: &[f64], labels: &[u8]) -> Vec<PrPoint> {
    let pairs = ranked(scores, labels);
    let n_pos = pairs.iter().filter(|(_, l)| *l == 1).count() as f64;
    if n_pos == 0.0 {
        return Vec::new();
    }
    let mut curve = Vec::new();
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut i = 0;
    while i < pairs.len() {
        let t = pairs[i].0;
        while i < pairs.len() && pairs[i].0 == t {
            if pairs[i].1 == 1 {
                tp += 1.0;
            } else {
                fp += 1.0;
            }
            i += 1;
        }
        curve.push(PrPoint { threshold: t, precision: tp / (tp + fp), recall: tp / n_pos });
    }
    curve
}

/// Average precision: the PR curve integrated by recall increments
/// (the usual step-wise AP definition). 0 when there are no positives.
pub fn average_precision(scores: &[f64], labels: &[u8]) -> f64 {
    let curve = pr_curve(scores, labels);
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    for p in &curve {
        ap += (p.recall - prev_recall) * p.precision;
        prev_recall = p.recall;
    }
    ap
}

/// Recall achievable at a required precision: the maximum recall among
/// curve points with `precision >= min_precision` (0 if none).
pub fn recall_at_precision(scores: &[f64], labels: &[u8], min_precision: f64) -> f64 {
    pr_curve(scores, labels)
        .into_iter()
        .filter(|p| p.precision >= min_precision)
        .map(|p| p.recall)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking_has_auc_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [1, 1, 0, 0];
        assert!((roc_auc(&scores, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_ranking_has_auc_zero() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [1, 1, 0, 0];
        assert!(roc_auc(&scores, &labels).abs() < 1e-12);
    }

    #[test]
    fn random_constant_scores_have_auc_half() {
        let scores = [0.5; 6];
        let labels = [1, 0, 1, 0, 1, 0];
        assert!((roc_auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_class_auc_is_half() {
        assert_eq!(roc_auc(&[0.3, 0.7], &[1, 1]), 0.5);
        assert_eq!(roc_auc(&[0.3, 0.7], &[0, 0]), 0.5);
    }

    #[test]
    fn auc_known_value_with_one_inversion() {
        // ranking: pos(0.9), neg(0.8), pos(0.7), neg(0.1)
        // pairs: (p1,n1)✓ (p1,n2)✓ (p2,n1)✗ (p2,n2)✓ → 3/4
        let scores = [0.9, 0.8, 0.7, 0.1];
        let labels = [1, 0, 1, 0];
        assert!((roc_auc(&scores, &labels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn pr_curve_monotone_recall_and_endpoints() {
        let scores = [0.9, 0.8, 0.7, 0.6, 0.5];
        let labels = [1, 0, 1, 1, 0];
        let curve = pr_curve(&scores, &labels);
        assert!(curve.windows(2).all(|w| w[0].recall <= w[1].recall));
        assert!((curve.last().unwrap().recall - 1.0).abs() < 1e-12);
        assert!((curve[0].precision - 1.0).abs() < 1e-12, "top point is a TP");
    }

    #[test]
    fn pr_curve_empty_without_positives() {
        assert!(pr_curve(&[0.4, 0.6], &[0, 0]).is_empty());
        assert_eq!(average_precision(&[0.4, 0.6], &[0, 0]), 0.0);
    }

    #[test]
    fn average_precision_perfect_is_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [1, 1, 0, 0];
        assert!((average_precision(&scores, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn average_precision_known_value() {
        // ranking: pos, neg, pos → AP = ½·(1) + ½·(2/3) = 0.8333…
        let scores = [0.9, 0.8, 0.7];
        let labels = [1, 0, 1];
        assert!((average_precision(&scores, &labels) - (0.5 + 0.5 * (2.0 / 3.0))).abs() < 1e-12);
    }

    #[test]
    fn recall_at_precision_tradeoff() {
        let scores = [0.9, 0.8, 0.7, 0.6];
        let labels = [1, 0, 1, 1];
        // precision ≥ 1.0 only at the top point → recall 1/3
        assert!((recall_at_precision(&scores, &labels, 1.0) - 1.0 / 3.0).abs() < 1e-12);
        // precision ≥ 0.75 reachable at full recall (3/4 = .75)
        assert!((recall_at_precision(&scores, &labels, 0.75) - 1.0).abs() < 1e-12);
        // unreachable precision
        assert_eq!(recall_at_precision(&[0.9], &[0], 0.5), 0.0);
    }

    #[test]
    fn ties_handled_in_pr_curve() {
        let scores = [0.5, 0.5, 0.5];
        let labels = [1, 0, 1];
        let curve = pr_curve(&scores, &labels);
        assert_eq!(curve.len(), 1, "one distinct threshold");
        assert!((curve[0].precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((curve[0].recall - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn length_mismatch_rejected() {
        roc_auc(&[0.5], &[1, 0]);
    }
}
