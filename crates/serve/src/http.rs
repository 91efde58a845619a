//! The scoring server: the routes one `cats-serve` process answers. It
//! sits behind the front end in the private `listener` module (bind,
//! accept loop, connection threads, request limits), which the cluster
//! router shares. Routes:
//!
//! | route               | behaviour                                          |
//! |---------------------|----------------------------------------------------|
//! | `POST /v1/score`    | parse → [`crate::Batcher::submit_pinned`] → 200    |
//! |                     | (cut into `max_batch_items` parts, one answer)     |
//! | `POST /v1/ingest`   | stream events → windows → scored in place on flush |
//! | `GET /healthz`      | `ok`/`draining`, model version, queue depth        |
//! | `GET /metrics`      | `cats-obs` Prometheus exporter (text format 0.0.4) |
//! | `GET /metrics.json` | serde snapshot of the registry (router merges it)  |
//! | `POST /admin/load`  | install a snapshot file as a tagged model version  |
//!
//! Backpressure maps to status codes, never to stalled sockets: a full
//! queue answers 429 with a `Retry-After` computed from queue depth and
//! the recent drain rate, a draining server answers 503, an oversized
//! body answers 413 — all in microseconds. A request pinned to a model
//! version this process no longer holds answers 409 (the cluster router
//! re-runs it at the current version). `score` maps batcher outcomes
//! through one helper, `await_batch`.

use crate::batcher::{BatchConfig, BatchReply, Batcher, RejectReason, ScoredBatch, WorkerHold};
use crate::listener::{write_json, write_json_error, write_response, Handler, Listener, Request};
use crate::model::ModelSlot;
use crate::wire::{
    AdminLoadRequest, AdminLoadResponse, HealthResponse, IngestResponse, ScoreResponse,
    WireSnapshot,
};
use cats_stream::{CommentEvent, StreamConfig, StreamEngine};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// How long a request waits for its scored batch before 504.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Server tuning knobs (the request limits are front-end constants).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Micro-batcher tuning.
    pub batch: BatchConfig,
    /// Sliding-window tuning for `POST /v1/ingest`.
    pub stream: StreamConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            batch: BatchConfig::default(),
            stream: StreamConfig::default(),
        }
    }
}

struct ServerShared {
    batcher: Batcher,
    slot: Arc<ModelSlot>,
    /// Sliding-window state behind `/v1/ingest`. One engine per server:
    /// ingest holds the lock for its ring updates and, at a flush
    /// boundary, for the flush, which sums cached per-comment terms.
    stream: Mutex<StreamEngine>,
    /// Drift monitor, fed by the batch workers and ingest flushes and
    /// surfaced on `/healthz` as degraded mode (DESIGN.md §15). `None`
    /// when the model carries no feature reference.
    drift: Option<Arc<cats_obs::DriftMonitor>>,
}

/// The running HTTP server: the shared front end plus the batcher and
/// stream state its routes use.
pub struct Server {
    shared: Arc<ServerShared>,
    listener: Listener,
}

impl Server {
    /// Binds `config.addr` and starts serving `slot` immediately.
    pub fn start(slot: Arc<ModelSlot>, config: ServeConfig) -> std::io::Result<Self> {
        Self::start_with_drift(slot, config, None)
    }

    /// [`Server::start`] with a drift monitor: batch workers feed it
    /// every classified feature row, and `/healthz` reports its verdict
    /// (`degraded: true` at warning or worse).
    pub fn start_with_drift(
        slot: Arc<ModelSlot>,
        config: ServeConfig,
        drift: Option<Arc<cats_obs::DriftMonitor>>,
    ) -> std::io::Result<Self> {
        let (listener, shared) = Listener::start(&config.addr, "serve", || ServerShared {
            batcher: Batcher::new_with_drift(slot.clone(), config.batch, drift.clone()),
            slot,
            stream: Mutex::new(StreamEngine::new(config.stream)),
            drift,
        })?;
        Ok(Self { shared, listener })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Current batcher queue depth (exposed for health checks/tests).
    pub fn queue_depth(&self) -> usize {
        self.shared.batcher.queue_depth()
    }

    /// The drift monitor this server was started with, if any.
    pub fn drift(&self) -> Option<&Arc<cats_obs::DriftMonitor>> {
        self.shared.drift.as_ref()
    }

    /// Chaos hook: makes the next `n` batch-worker iterations panic
    /// (see [`Batcher::inject_worker_panic`]); the soak bench uses this
    /// to drive the supervision + 500-recovery path through real
    /// sockets.
    pub fn inject_worker_panic(&self, n: u32) {
        self.shared.batcher.inject_worker_panic(n);
    }

    /// Chaos hook: holds the batch workers before they pop until the
    /// guard drops (see [`Batcher::hold_workers`]), so requests queue
    /// and overflow as they would behind busy workers.
    pub fn hold_workers(&self) -> WorkerHold {
        self.shared.batcher.hold_workers()
    }

    /// Graceful shutdown: stop accepting, answer everything already
    /// accepted (draining the batch queue), then join every thread.
    /// Dropping the server does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Drain the batcher before joining connections: handler threads
        // blocked on a scored batch get their reply and finish fast.
        let batcher = &self.shared.batcher;
        self.listener.shutdown(|| batcher.shutdown());
    }
}

impl Handler for ServerShared {
    fn accepted(&self) {
        cats_obs::counter("cats.serve.http.accepted").inc();
    }

    fn serve(&self, stream: &mut TcpStream, request: &Request) {
        let status = route(stream, self, request);
        cats_obs::histogram("cats.serve.http.latency_ms")
            .record(request.started.elapsed().as_secs_f64() * 1e3);
        cats_obs::counter(match status {
            200 => "cats.serve.http.status.200",
            429 => "cats.serve.http.status.429",
            500 => "cats.serve.http.status.500",
            503 => "cats.serve.http.status.503",
            _ => "cats.serve.http.status.other",
        })
        .inc();
    }

    fn refused(&self) {
        cats_obs::counter("cats.serve.http.bad_request").inc();
    }
}

/// Dispatches one parsed request and returns the response status.
fn route(stream: &mut TcpStream, shared: &ServerShared, request: &Request) -> u16 {
    let body = request.body.as_str();
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/score") => score(stream, shared, body),
        ("POST", "/v1/ingest") => ingest(stream, shared, body),
        ("GET", "/healthz") => {
            let resp = HealthResponse {
                status: if shared.batcher.is_draining() { "draining" } else { "ok" }.to_string(),
                model_version: shared.slot.version(),
                queue_depth: shared.batcher.queue_depth() as u64,
                degraded: shared.drift.as_ref().is_some_and(|m| m.degraded()),
                drift: shared
                    .drift
                    .as_ref()
                    .map(|m| m.verdict().as_str().to_string())
                    .unwrap_or_else(|| "off".to_string()),
            };
            write_json(stream, &resp);
            200
        }
        ("GET", "/metrics") => {
            let text = cats_obs::global().to_prometheus();
            write_response(stream, 200, "text/plain; version=0.0.4", "", &text);
            200
        }
        ("GET", "/metrics.json") => {
            let wire: WireSnapshot = (&cats_obs::global().snapshot()).into();
            write_json(stream, &wire);
            200
        }
        ("POST", "/admin/load") => admin_load(stream, shared, body),
        ("POST" | "GET", _) => {
            write_json_error(stream, 404, "", &format!("no such route: {}", request.path));
            404
        }
        _ => {
            write_json_error(stream, 405, "", &format!("method {} not allowed", request.method));
            405
        }
    }
}

/// Waits for the batch a submit queued and returns it scored. Every
/// other outcome is answered here, and its status returned as the
/// error: a full queue is 429 with a `Retry-After`, a draining server
/// 503, a pin this process no longer holds 409, a timeout 504 and a
/// dropped reply 500.
fn await_batch(
    stream: &mut TcpStream,
    shared: &ServerShared,
    submitted: Result<mpsc::Receiver<BatchReply>, RejectReason>,
) -> Result<ScoredBatch, u16> {
    let rx = match submitted {
        Ok(rx) => rx,
        Err(RejectReason::QueueFull) => {
            // Honest backpressure: promise a retry window derived from
            // how deep the queue is and how fast it has been draining,
            // not a hardcoded guess.
            let retry_after = format!("Retry-After: {}\r\n", shared.batcher.retry_after_secs());
            write_json_error(stream, 429, &retry_after, "queue full, retry later");
            return Err(429);
        }
        Err(RejectReason::Draining) => {
            write_json_error(stream, 503, "", "server is draining");
            return Err(503);
        }
    };
    match rx.recv_timeout(REQUEST_TIMEOUT) {
        Ok(BatchReply::Scored(scored)) => Ok(scored),
        Ok(BatchReply::PinUnavailable { pinned, current }) => {
            // Only pinned submissions get this reply.
            write_json_error(
                stream,
                409,
                "",
                &format!("model version {pinned} is gone (serving v{current})"),
            );
            Err(409)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            write_json_error(stream, 504, "", "scoring timed out");
            Err(504)
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The batch worker panicked after popping this request and
            // dropped the reply sender. The supervisor respawns the
            // worker; this client gets an immediate, explicit 500 — an
            // *answered* failure, never a dropped or stalled socket.
            cats_obs::counter("cats.serve.http.internal_errors").inc();
            write_json_error(stream, 500, "", "internal scoring error");
            Err(500)
        }
    }
}

fn score(stream: &mut TcpStream, shared: &ServerShared, body: &str) -> u16 {
    let (items, pin) = match crate::wire::parse_score_request(body) {
        Ok(parsed) => parsed,
        Err(e) => {
            write_json_error(stream, 400, "", &e);
            return 400;
        }
    };
    let scored = match await_batch(stream, shared, shared.batcher.submit_pinned(items, pin)) {
        Ok(scored) => scored,
        Err(status) => return status,
    };
    let resp = ScoreResponse { model_version: scored.model_version, verdicts: scored.verdicts };
    write_json(stream, &resp);
    200
}

/// `POST /v1/ingest`: feed comment events into the sliding-window
/// engine, under one lock. Ingest is O(1) per event, and each event's
/// text moves into its window. When the batch pushes the virtual clock
/// over a flush boundary, the engine scores every item touched since the
/// last flush in place, with the one model resolved for that flush: each
/// windowed comment's feature terms are computed once and cached, so a
/// flush sums cached terms and runs one FlatForest descent per window
/// before fusing the content score with the item's velocity risk
/// ([`cats_core::fusion`]). Classified window rows go to the drift
/// monitor, as batched rows do. Between flush boundaries the response
/// carries counts only (`verdicts: []`).
///
/// A flush does not go through the micro-batcher, so ingest answers no
/// 429, 503 or 504 and loses no interval's dirty set.
fn ingest(stream: &mut TcpStream, shared: &ServerShared, body: &str) -> u16 {
    let events = match crate::wire::parse_ingest_request(body) {
        Ok(events) => events,
        Err(e) => {
            write_json_error(stream, 400, "", &e);
            return 400;
        }
    };

    let posted = events.len() as u64;
    let (late_dropped, watermark_ms, flushed) = {
        let mut engine = cats_obs::lock_recover(&shared.stream, "cats.serve.http.stream");
        let late_before = engine.late_dropped();
        for ev in events {
            let _ = engine.ingest_owned(CommentEvent {
                at_ms: ev.at_ms,
                item_id: ev.item_id,
                user_id: ev.user_id,
                sales_volume: ev.sales_volume,
                text: ev.text,
            });
        }
        let late = engine.late_dropped() - late_before;
        let flushed = engine.flush_due().then(|| {
            let model = shared.slot.load();
            let verdicts = engine.flush_observing(&model.pipeline, |row| {
                if let Some(monitor) = &shared.drift {
                    monitor.observe_row(&row.0);
                }
            });
            (model.version, verdicts)
        });
        (late, engine.watermark_ms(), flushed)
    };

    let (model_version, verdicts) = match flushed {
        Some((version, verdicts)) => {
            cats_obs::counter("cats.serve.ingest.flushes").inc();
            (version, verdicts)
        }
        None => (shared.slot.version(), Vec::new()),
    };
    let resp = IngestResponse {
        model_version,
        accepted: posted - late_dropped,
        late_dropped,
        watermark_ms,
        verdicts,
    };
    write_json(stream, &resp);
    200
}

/// `POST /admin/load`: parse, validate and install a snapshot file as a
/// router-assigned model version. Invalid files answer 400 and leave
/// the serving model untouched — the same keep-the-old-model contract
/// as the file watcher.
fn admin_load(stream: &mut TcpStream, shared: &ServerShared, body: &str) -> u16 {
    let req: AdminLoadRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => {
            write_json_error(stream, 400, "", &format!("body: {e}"));
            return 400;
        }
    };
    match crate::model::load_pipeline_file(std::path::Path::new(&req.path)) {
        Ok(pipeline) => {
            let version = shared.slot.swap_tagged(pipeline, req.version);
            cats_obs::counter("cats.serve.admin.loads").inc();
            write_json(stream, &AdminLoadResponse { version });
            200
        }
        Err(e) => {
            cats_obs::counter("cats.serve.admin.load_errors").inc();
            write_json_error(stream, 400, "", &format!("load: {e}"));
            400
        }
    }
}
