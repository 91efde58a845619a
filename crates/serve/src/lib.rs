//! # cats-serve — the online detection service
//!
//! The paper pitches CATS as a third-party service that platforms query
//! for fraud verdicts (§I); this crate is that serving layer, built on
//! `std` only — no async runtime, no HTTP framework, no new third-party
//! dependencies (DESIGN.md §9). Four pieces, layered bottom-up:
//!
//! 1. **Wire format** ([`wire`]): the JSON request/response types for
//!    `POST /v1/score` and `GET /healthz`.
//! 2. **Model slot** ([`model`]): a hand-rolled `ArcSwap` — an
//!    atomically swappable `Arc<VersionedModel>` — plus a file watcher
//!    that hot-swaps `cats-cli train` output into a live server without
//!    dropping a single in-flight request.
//! 3. **Micro-batcher** ([`batcher`]): a bounded request queue drained
//!    by batch workers that coalesce concurrent requests into
//!    size/deadline-bounded batches and score them through one
//!    [`cats_core::CatsPipeline::detect`] call (which fans out onto the
//!    `cats-par` pool). Queue overflow and drain are surfaced as typed
//!    rejections, not stalls.
//! 4. **HTTP server** ([`http`]): the routes `POST /v1/score`,
//!    `POST /v1/ingest` (the `cats-stream` sliding-window lane, flushing
//!    through the same micro-batcher), `GET /healthz` and `GET /metrics`
//!    (the `cats-obs` Prometheus exporter), mapping [`RejectReason`] to
//!    429/503 and draining gracefully on shutdown.
//!    The server and the cluster [`router`] share one private front end
//!    (`listener`): bind, accept loop, connection threads, request limits.
//!
//! A small blocking [`client`] rounds it out: it is what `cats-cli
//! score`, the `exp_serve` load generator and the integration tests
//! speak through. The [`chaos`] module supplies deterministic, seeded
//! fault injection (slow-loris clients, mid-body disconnects, torn
//! snapshot rewrites, worker panics) for the `exp_soak` bench and the
//! failure-model tests (DESIGN.md §10), plus the heavy-tail
//! [`TrafficTrace`] the cluster bench drives load with.
//!
//! On top of the single-process server sits the **cluster layer**
//! (DESIGN.md §11): [`shard`] wraps the server into spawnable shard
//! child processes, [`health`] is the pure ejection/re-admission state
//! machine, and [`router`] consistent-hashes items across the shards,
//! replays sub-requests past dead shards, aggregates `/metrics`, and
//! coordinates rolling model swaps so no request ever observes two
//! model versions.
//!
//! The serving layer also survives *adversarial drift* (DESIGN.md §15):
//! started with a [`cats_obs::DriftMonitor`], the batch workers feed it
//! every classified feature row, `/healthz` reports degraded mode once
//! the verdict escalates, and the [`retrain`] module closes the loop —
//! a [`LabelLagBuffer`] of late-arriving ground truth plus a
//! [`RetrainController`] that retrains on `Critical`, validates the
//! candidate on held-out labels, and promotes through the same hot-swap
//! machinery (or rejects it, keeping the incumbent).
//!
//! Everything is instrumented into the global `cats-obs` registry under
//! `cats.serve.*`: queue depth, batch size, request latency
//! (p50/p95/p99 via `/metrics`), rejection, swap and router
//! retry/ejection counters.

pub mod batcher;
pub mod chaos;
pub mod client;
pub mod health;
pub mod http;
mod listener;
pub mod model;
pub mod retrain;
pub mod router;
pub mod shard;
pub mod wire;

pub use batcher::{
    compute_retry_after, BatchConfig, BatchReply, Batcher, RejectReason, ScoredBatch,
};
pub use chaos::{ChaosPlan, ChaosRng, Fault, TrafficTrace};
pub use client::{ClientError, ScoreClient};
pub use health::{HealthConfig, HealthEvent, ShardHealth, ShardState};
pub use http::{ServeConfig, Server};
pub use model::{load_pipeline_file, ModelSlot, ModelWatcher, VersionedModel};
pub use retrain::{
    LabelLagBuffer, LaggedExample, RetrainConfig, RetrainController, RetrainOutcome,
};
pub use router::{HashRing, Router, RouterConfig};
pub use shard::{announce_ready, start_shard, ShardOpts, ShardProcess, READY_PREFIX};
pub use wire::{
    AdminLoadRequest, AdminLoadResponse, HealthResponse, IngestEvent, IngestRequest,
    IngestResponse, RouterHealthResponse, ScoreItem, ScoreRequest, ScoreResponse, ScoreVerdict,
    ShardHealthInfo, WireSnapshot,
};

#[cfg(test)]
pub(crate) mod testutil {
    //! A tiny trained pipeline (mirrors the `cats-core` pipeline tests)
    //! so serving tests exercise real scoring, not a stub. Training is
    //! the slow part, so tests that need many models train once, encode
    //! `CatsPipeline::to_snapshot`, and [`restore`] as many cheap copies
    //! as they want.

    use cats_core::{CatsPipeline, ItemComments, PipelineConfig, PipelineSnapshot};

    pub fn fraud_item(i: usize) -> ItemComments {
        ItemComments::from_texts([
            format!("hao0 hao0 zan1 ! hao0 bang2 w{i} ， hao0 hao0 zan0 hao1 hao1").as_str(),
            "hen hao0 zan2 ！ hao2 hao0 hao0 bang0 hao0",
        ])
    }

    pub fn normal_item(i: usize) -> ItemComments {
        ItemComments::from_texts([format!("shu hao0 kan w{i}").as_str(), "dongxi cha0 le dian"])
    }

    pub fn trained(threshold_shift: f64) -> CatsPipeline {
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
        let mut pipeline = CatsPipeline::train(
            &refs,
            &["hao0".to_string()],
            &["cha0".to_string()],
            &["hao0 zan0 bang0 hao1", "zan1 hao2 bang1"],
            &["cha0 lan0 huai0", "lan1 cha2 huai2"],
            &training,
            None,
            PipelineConfig::default(),
        );
        if threshold_shift != 0.0 {
            let t = (0.5 + threshold_shift).clamp(0.0, 1.0);
            pipeline.detector_mut().set_threshold(t);
        }
        pipeline
    }

    /// Cheap model copy: restore a snapshot and shift its threshold.
    pub fn restore(bytes: &[u8], threshold_shift: f64) -> CatsPipeline {
        let snap = PipelineSnapshot::from_bytes(bytes).expect("snapshot decodes");
        let mut pipeline = CatsPipeline::restore(snap);
        if threshold_shift != 0.0 {
            let t = (0.5 + threshold_shift).clamp(0.0, 1.0);
            pipeline.detector_mut().set_threshold(t);
        }
        pipeline
    }
}
