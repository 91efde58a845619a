//! Velocity-feature fusion for the streaming path (`cats-stream`).
//!
//! Batch CATS scores an item's *archive* — every comment it ever
//! received. The streaming path scores the *firehose*: what the item's
//! comment arrivals look like right now, summarized by sliding-window
//! velocity features (rates, commenter concentration, inter-arrival
//! regularity). This module owns the pieces both sides must agree on:
//!
//! * the velocity feature vector layout ([`VelocityFeatures`]),
//! * the deterministic squash from velocity features to a risk score
//!   ([`velocity_risk`]),
//! * the fusion rule combining that risk with the stage-2 classifier's
//!   score over the windowed comments ([`fuse_scores`]),
//! * the incremental verdict record a streaming scorer emits
//!   ([`StreamVerdict`]).
//!
//! Everything here is pure `f64` arithmetic on already-computed
//! features — bit-identical wherever it runs, which is what lets the
//! stream engine promise identical verdicts at any thread count.

use serde::{Deserialize, Serialize};

/// Number of sliding-window velocity features.
pub const N_VELOCITY_FEATURES: usize = 7;

/// Velocity feature names, in vector order. "Long" is the 5-minute
/// ring, "short" the 30-second ring.
pub const VELOCITY_FEATURE_NAMES: [&str; N_VELOCITY_FEATURES] = [
    "ratePerMinLong",
    "ratePerMinShort",
    "burstAcceleration",
    "commenterConcentrationLong",
    "commenterConcentrationShort",
    "gapEntropyLong",
    "gapEntropyShort",
];

/// One item's velocity feature row at some instant of the stream clock.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VelocityFeatures(pub [f64; N_VELOCITY_FEATURES]);

impl VelocityFeatures {
    /// The row as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Whether every component is finite. Empty windows must produce
    /// all-zero rows, never NaN — asserted by the window tests.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }
}

/// Comment rate (per minute) above which the rate component of
/// [`velocity_risk`] saturates toward 1. Hired campaign waves in the
/// temporal traces fire tens of comments per minute at one item;
/// organic items see well under one.
const RATE_SATURATION_PER_MIN: f64 = 12.0;

/// Squashes a velocity row into a fraud-risk score in `[0, 1]`.
///
/// The shape is deliberate, not learned: velocity features have an
/// *a-priori* fraud direction (the Social Fraud Detection survey's
/// burstiness signal), so a transparent monotone rule keeps the
/// streaming path auditable and free of a second training loop.
///
/// * **rate** — an exponential saturation of the short-window rate:
///   zero for idle items, →1 beyond ~3× its saturation rate of 12
///   comments a minute.
///   This is the gate: an item nobody is commenting on carries no
///   velocity risk regardless of the other components.
/// * **concentration** — hired pools recycle commenters, so the
///   long-window repeat-commenter share scales risk up.
/// * **regularity** — rapid-fire waves have machine-like inter-arrival
///   gaps (low entropy); organic arrivals are scattered (high entropy).
pub fn velocity_risk(v: &VelocityFeatures) -> f64 {
    let rate = 1.0 - (-v.0[1] / RATE_SATURATION_PER_MIN).exp();
    let concentration = v.0[3].clamp(0.0, 1.0);
    let regularity = 1.0 / (1.0 + v.0[6].max(0.0));
    (rate * (0.4 + 0.35 * concentration + 0.25 * regularity)).clamp(0.0, 1.0)
}

/// Default weight of the velocity evidence in [`fuse_scores`]: velocity
/// alone (risk 1.0, content score 0.0) cannot cross a 0.5 threshold —
/// content evidence remains necessary, velocity accelerates it.
pub const DEFAULT_FUSION_WEIGHT: f64 = 0.5;

/// Noisy-OR fusion of the stage-2 classifier score over the windowed
/// comments with the velocity risk: `1 − (1−content)·(1−w·risk)`.
///
/// Monotone in both inputs and never *below* the content score, so the
/// streaming verdict can only flag earlier than the batch path would on
/// the same window, never suppress a content-based detection.
pub fn fuse_scores(content_score: f64, velocity_risk: f64, weight: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&weight), "fusion weight in [0,1]");
    1.0 - (1.0 - content_score) * (1.0 - weight * velocity_risk)
}

/// One incremental verdict emitted by a streaming scorer — the unit of
/// the `/v1/ingest` response and of `exp_stream`'s determinism check
/// (two runs are compared verdict-by-verdict on the raw f64 bits).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamVerdict {
    /// Item the verdict is about.
    pub item_id: u64,
    /// Stream watermark (virtual ms) at emission — detection latency is
    /// measured from burst start to this clock.
    pub at_ms: u64,
    /// Comments inside the item's 5-minute window at emission.
    pub window_comments: u32,
    /// Stage-2 classifier score over the windowed comments.
    pub cats_score: f64,
    /// [`velocity_risk`] of the window's velocity features.
    pub velocity_risk: f64,
    /// [`fuse_scores`] of the two.
    pub fused_score: f64,
    /// Whether `fused_score` crossed the detector threshold.
    pub is_fraud: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_item_has_zero_risk() {
        assert_eq!(velocity_risk(&VelocityFeatures::default()), 0.0);
    }

    #[test]
    fn risk_is_monotone_in_rate_and_bounded() {
        let mut prev = 0.0;
        for rate in [0.1, 1.0, 5.0, 20.0, 100.0, 1e6] {
            let v = VelocityFeatures([rate, rate, 1.0, 0.5, 0.5, 2.0, 2.0]);
            let r = velocity_risk(&v);
            assert!(r >= prev, "risk not monotone at rate {rate}");
            assert!((0.0..=1.0).contains(&r));
            prev = r;
        }
    }

    #[test]
    fn fusion_never_lowers_content_score() {
        for content in [0.0, 0.3, 0.7, 0.99] {
            for risk in [0.0, 0.5, 1.0] {
                let fused = fuse_scores(content, risk, DEFAULT_FUSION_WEIGHT);
                assert!(fused >= content);
                assert!(fused <= 1.0);
            }
        }
    }

    #[test]
    fn velocity_alone_cannot_cross_default_threshold() {
        assert!(fuse_scores(0.0, 1.0, DEFAULT_FUSION_WEIGHT) < 0.5 + 1e-12);
    }

    #[test]
    fn name_table_matches_width() {
        assert_eq!(VELOCITY_FEATURE_NAMES.len(), N_VELOCITY_FEATURES);
    }
}
