//! # cats-stream — streaming velocity detection
//!
//! CATS as published scores an *archive*: crawl, extract, classify.
//! This crate scores the *firehose*: comments arrive as a continuous
//! event stream on a virtual millisecond clock, flow through
//! bounded-memory sliding windows, and produce incremental per-item
//! verdicts that fuse the paper's 11 content features with velocity
//! evidence the archive view cannot see — arrival rate, commenter
//! concentration, and inter-arrival burst regularity.
//!
//! Two layers:
//!
//! * [`window`] — the fixed-size primitives: bucketed time rings with
//!   per-bucket counts, a 256-bit distinct-commenter sketch, and a
//!   log₂-binned gap histogram. O(1) memory per item, boundary-exact
//!   eviction.
//! * [`engine`] — the [`StreamEngine`]: single-threaded O(1) ingest,
//!   periodic flushes that re-score every touched item from per-comment
//!   feature terms cached once per model (one FlatForest descent per
//!   item), noisy-OR score fusion, and idle-item eviction. Verdicts are
//!   bit-identical across reruns of the same trace.
//!
//! The event source lives in `cats_platform::stream` (temporal replay
//! with bursty campaign waves); the serving surface is `/v1/ingest` in
//! `cats-serve`; the gate is `exp_stream` in `cats-bench`. Design
//! notes: `DESIGN.md §13`.

pub mod engine;
pub mod window;

pub use engine::{CommentEvent, IngestOutcome, StreamConfig, StreamEngine, WindowSlice};
pub use window::{mix_user, Ring, WindowStats, GAP_BINS};
