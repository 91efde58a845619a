//! # cats-obs — zero-dependency observability for the CATS workspace
//!
//! Three pieces, layered bottom-up (DESIGN.md §8):
//!
//! 1. **Metrics registry** ([`metrics`]): named [`Counter`]s,
//!    [`Gauge`]s and fixed-bucket [`Histogram`]s backed by atomics —
//!    handle lookup locks once, recording never does — with a
//!    Prometheus-text exporter. (`cats-serve` serves a snapshot as JSON
//!    through its serde `WireSnapshot`.)
//! 2. **Spans** ([`span`](mod@span)): `let _g = span!("cats.core.detect");`
//!    scoped timers with parent–child nesting, wall/self time and an
//!    items payload, folded into per-stage aggregates.
//! 3. **Run profiles** ([`profile`]): a [`StageTimer`] diffs registry
//!    snapshots around a unit of work and emits a [`RunProfile`] — the
//!    JSON artifact behind `cats-cli --metrics-out` and `exp_scaling`'s
//!    `PROFILE_scaling.json`.
//!
//! Timing flows through a pluggable [`Observer`]: wall clock by
//! default, a [`SimObserver`] for deterministic tests, and a
//! [`NoopObserver`] (also via `CATS_OBS=off`) that turns every span
//! into a single branch for overhead measurements.
//!
//! Metric names follow `cats.<crate>.<stage>.<name>`; the Prometheus
//! exporter sanitizes `.` to `_`.
//!
//! Like `cats-par`, this crate is deliberately dependency-free so it
//! can sit below every other crate in the workspace.

pub mod clock;
pub mod drift;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod sync;

pub use clock::{
    enabled, now_micros, observer, set_observer, NoopObserver, Observer, SimObserver, WallObserver,
};
pub use drift::{
    ks_statistic, psi, DriftConfig, DriftMonitor, DriftVerdict, FeatureDrift, FeatureReference,
};
pub use metrics::{
    counter, gauge, global, histogram, Counter, Gauge, HistSnapshot, Histogram, Registry, Snapshot,
    StageSnapshot,
};
pub use profile::{RunProfile, StageProfile, StageTimer};
pub use span::StageStats;
pub use sync::lock_recover;

/// The SplitMix64 state increment.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The workspace's one SplitMix64 finalizer: a SplitMix64 stream returns
/// `mix64(state)` after each `state += GOLDEN_GAMMA`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
