//! Micro-batching request queue.
//!
//! Concurrent `POST /v1/score` requests land in one bounded queue;
//! batch workers drain it, coalescing whatever is in flight into a
//! batch bounded by [`BatchConfig::max_batch_items`] items and a
//! [`BatchConfig::max_delay`] deadline anchored at the *oldest* pending
//! request, then score the whole batch through a single
//! [`cats_core::CatsPipeline::detect`] call (which fans out across the
//! `cats-par` pool). Items go in as the requests' own comment lists;
//! detect segments each one inside its per-item work, into slices of
//! those strings. Requests are never split: every item of a request
//! is scored by the same model version, in the same batch.
//!
//! Backpressure is typed, not implicit: a full queue rejects with
//! [`RejectReason::QueueFull`] (HTTP 429 upstream) and a draining
//! batcher rejects with [`RejectReason::Draining`] (HTTP 503), so an
//! overloaded server answers fast instead of stalling the socket.
//! [`Batcher::shutdown`] flips the drain flag, lets workers finish
//! everything already queued, and joins them — accepted requests are
//! never dropped.
//!
//! Workers are *supervised* (DESIGN.md §10): each runs its loop under
//! `catch_unwind`, and a panic — a scoring bug, a poisoned lock, an
//! injected chaos fault — respawns the loop in place instead of
//! silently shrinking batch capacity. Requests popped by the panicking
//! iteration have their reply senders dropped, which the HTTP layer
//! answers as a 500: accepted work is always *answered*, never lost.

use crate::model::ModelSlot;
use crate::wire::{filter_str, ScoreItem, ScoreVerdict};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the micro-batcher.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Dispatch a batch once it holds at least this many items. A
    /// single oversized request still dispatches alone (never split).
    pub max_batch_items: usize,
    /// How long the oldest pending request may wait for co-riders
    /// before its batch dispatches anyway.
    pub max_delay: Duration,
    /// Maximum requests waiting in the queue; beyond this, submit
    /// rejects with [`RejectReason::QueueFull`].
    pub queue_capacity: usize,
    /// Batch worker threads draining the queue.
    pub workers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch_items: 64,
            max_delay: Duration::from_millis(10),
            queue_capacity: 256,
            workers: 2,
        }
    }
}

/// Why a submission was rejected instead of queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is at capacity — retry later (HTTP 429).
    QueueFull,
    /// The server is shutting down and no longer accepts work (503).
    Draining,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull => write!(f, "queue full, retry later"),
            Self::Draining => write!(f, "server is draining"),
        }
    }
}

/// The scored result of one submitted request.
#[derive(Debug, Clone)]
pub struct ScoredBatch {
    /// Version of the model that scored every verdict below.
    pub model_version: u64,
    /// One verdict per submitted item, in submission order.
    pub verdicts: Vec<ScoreVerdict>,
}

/// What a worker sends back for one submitted request.
#[derive(Debug, Clone)]
pub enum BatchReply {
    /// The request was scored (by the pinned version when one was given).
    Scored(ScoredBatch),
    /// The request pinned a model version this process no longer holds
    /// (it fell out of the two-generation slot). HTTP answers 409 and
    /// the router re-runs the whole request at the current version.
    PinUnavailable {
        /// The version the request demanded.
        pinned: u64,
        /// The version this process currently serves.
        current: u64,
    },
}

/// One queued request: its items plus the channel the worker answers on.
struct Request {
    items: Vec<ScoreItem>,
    /// Model version this request must be scored by, if pinned.
    pin: Option<u64>,
    enqueued: Instant,
    reply: mpsc::Sender<BatchReply>,
}

struct Shared {
    queue: Mutex<VecDeque<Request>>,
    /// Signalled on enqueue and on drain, so sleeping workers wake.
    notify: Condvar,
    draining: AtomicBool,
    /// Chaos hook: each pending count makes one worker iteration panic
    /// right after it pops its batch (see [`Batcher::inject_worker_panic`]).
    inject_panics: AtomicU32,
    /// Items (not requests) currently queued — the numerator of the
    /// 429 Retry-After estimate.
    queued_items: AtomicU64,
    /// EWMA of the drain rate in items/second, stored as f64 bits; 0
    /// until the first batch completes.
    drain_rate_bits: AtomicU64,
    /// Clock reading (µs) when the last batch finished scoring.
    last_drain_micros: AtomicU64,
    slot: Arc<ModelSlot>,
    config: BatchConfig,
    /// Live drift monitor, when the server runs with one. Workers feed
    /// it every classified item's extracted feature row after scoring —
    /// observation rides the batch path, off the request latency path.
    drift: Option<Arc<cats_obs::DriftMonitor>>,
}

impl Shared {
    /// Records a completed drain of `items` items, updating the EWMA
    /// drain rate (70% history / 30% newest sample).
    fn note_drain(&self, items: u64) {
        let now = cats_obs::now_micros();
        let last = self.last_drain_micros.swap(now, Ordering::Relaxed);
        let dt = now.saturating_sub(last).max(1);
        let sample = items as f64 * 1e6 / dt as f64;
        let old = f64::from_bits(self.drain_rate_bits.load(Ordering::Relaxed));
        let blended = if old > 0.0 { 0.7 * old + 0.3 * sample } else { sample };
        self.drain_rate_bits.store(blended.to_bits(), Ordering::Relaxed);
        cats_obs::gauge("cats.serve.drain.items_per_s").set(blended);
    }
}

/// Seconds an overloaded client should wait before retrying: queued
/// items over the recent drain rate, clamped to `[1, 30]`. With no
/// drain observed yet (rate 0) the answer is the pessimistic cap — an
/// idle-then-slammed server should not promise a 1-second recovery.
pub fn compute_retry_after(queued_items: u64, drain_rate_items_per_sec: f64) -> u64 {
    if drain_rate_items_per_sec <= 1e-9 || !drain_rate_items_per_sec.is_finite() {
        return 30;
    }
    ((queued_items as f64 / drain_rate_items_per_sec).ceil() as u64).clamp(1, 30)
}

/// Waits on `cv`, recovering from poison like [`cats_obs::lock_recover`]
/// (a worker that panicked while holding the queue lock must not take
/// down its siblings with it).
fn wait_recover<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
    name: &str,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, dur) {
        Ok((g, _timeout)) => g,
        Err(poisoned) => {
            cats_obs::counter("cats.obs.lock.poison_recovered").inc();
            eprintln!("cats-obs: recovered poisoned lock {name}");
            poisoned.into_inner().0
        }
    }
}

/// The micro-batching scorer: submit requests, get per-request results.
pub struct Batcher {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Batcher {
    /// Spawns `config.workers` batch workers over the given model slot.
    pub fn new(slot: Arc<ModelSlot>, config: BatchConfig) -> Self {
        Self::new_with_drift(slot, config, None)
    }

    /// [`Batcher::new`] plus a drift monitor fed from every classified
    /// item scored by the workers (DESIGN.md §15).
    pub fn new_with_drift(
        slot: Arc<ModelSlot>,
        config: BatchConfig,
        drift: Option<Arc<cats_obs::DriftMonitor>>,
    ) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            notify: Condvar::new(),
            draining: AtomicBool::new(false),
            inject_panics: AtomicU32::new(0),
            queued_items: AtomicU64::new(0),
            drain_rate_bits: AtomicU64::new(0f64.to_bits()),
            last_drain_micros: AtomicU64::new(cats_obs::now_micros()),
            slot,
            config: config.clone(),
            drift,
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cats-serve-batch-{i}"))
                    .spawn(move || supervise(&shared))
                    .expect("spawn batch worker")
            })
            .collect();
        Self { shared, workers: Mutex::new(workers) }
    }

    /// Chaos hook: makes the next `n` worker batch iterations panic
    /// after popping their requests, exercising the supervision +
    /// dropped-reply (HTTP 500) recovery path end to end.
    pub fn inject_worker_panic(&self, n: u32) {
        self.shared.inject_panics.fetch_add(n, Ordering::AcqRel);
    }

    /// Enqueues a request. On `Ok`, the receiver yields exactly one
    /// [`BatchReply`] once a worker has handled the items; on `Err`,
    /// nothing was enqueued and the caller should answer 429/503.
    pub fn submit(
        &self,
        items: Vec<ScoreItem>,
    ) -> Result<mpsc::Receiver<BatchReply>, RejectReason> {
        self.submit_pinned(items, None)
    }

    /// [`Batcher::submit`] with an optional model-version pin: the
    /// request is scored by exactly that generation, or answered with
    /// [`BatchReply::PinUnavailable`] when the process no longer holds
    /// it.
    pub fn submit_pinned(
        &self,
        items: Vec<ScoreItem>,
        pin: Option<u64>,
    ) -> Result<mpsc::Receiver<BatchReply>, RejectReason> {
        if self.shared.draining.load(Ordering::Acquire) {
            cats_obs::counter("cats.serve.reject.draining").inc();
            return Err(RejectReason::Draining);
        }
        let (reply, rx) = mpsc::channel();
        {
            let mut q = cats_obs::lock_recover(&self.shared.queue, "cats.serve.batch.queue");
            // Re-check under the lock: shutdown() flips the flag before
            // draining the queue, so nothing slips in behind it.
            if self.shared.draining.load(Ordering::Acquire) {
                cats_obs::counter("cats.serve.reject.draining").inc();
                return Err(RejectReason::Draining);
            }
            if q.len() >= self.shared.config.queue_capacity {
                cats_obs::counter("cats.serve.reject.queue_full").inc();
                return Err(RejectReason::QueueFull);
            }
            self.shared.queued_items.fetch_add(items.len() as u64, Ordering::Relaxed);
            q.push_back(Request { items, pin, enqueued: Instant::now(), reply });
            cats_obs::gauge("cats.serve.queue.depth").set(q.len() as f64);
        }
        cats_obs::counter("cats.serve.requests").inc();
        self.shared.notify.notify_one();
        Ok(rx)
    }

    /// Requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        cats_obs::lock_recover(&self.shared.queue, "cats.serve.batch.queue").len()
    }

    /// `Retry-After` seconds for a 429: current queued items over the
    /// EWMA drain rate (see [`compute_retry_after`]).
    pub fn retry_after_secs(&self) -> u64 {
        compute_retry_after(
            self.shared.queued_items.load(Ordering::Relaxed),
            f64::from_bits(self.shared.drain_rate_bits.load(Ordering::Relaxed)),
        )
    }

    /// True once [`Batcher::shutdown`] has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Graceful drain: stop accepting, score everything already queued,
    /// join the workers. Idempotent.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.notify.notify_all();
        let handles =
            std::mem::take(&mut *cats_obs::lock_recover(&self.workers, "cats.serve.batch.workers"));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Runs [`worker_loop`] under supervision: a panic anywhere in the loop
/// is caught, counted, and the loop re-entered in place, so one bad
/// batch (or an injected chaos fault) never shrinks scoring capacity.
fn supervise(shared: &Shared) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared))) {
            // Normal exit: drain finished.
            Ok(()) => return,
            Err(_) => {
                cats_obs::counter("cats.serve.batch.worker_panics").inc();
                cats_obs::counter("cats.serve.batch.worker_respawns").inc();
                eprintln!("cats-serve: batch worker panicked; respawning in place");
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    let batch_size = cats_obs::histogram("cats.serve.batch.items");
    let batch_wait = cats_obs::histogram("cats.serve.batch.wait_ms");
    let depth_gauge = cats_obs::gauge("cats.serve.queue.depth");
    loop {
        // Phase 1: wait for work (or drain + empty queue = exit).
        let mut q = cats_obs::lock_recover(&shared.queue, "cats.serve.batch.queue");
        loop {
            if !q.is_empty() {
                break;
            }
            if shared.draining.load(Ordering::Acquire) {
                return;
            }
            q = wait_recover(
                &shared.notify,
                q,
                Duration::from_millis(50),
                "cats.serve.batch.queue",
            );
        }

        // Phase 2: coalesce. The deadline is anchored at the OLDEST
        // pending request so no request waits longer than max_delay in
        // the window, however many co-riders trickle in after it.
        let deadline = q.front().expect("non-empty queue").enqueued + shared.config.max_delay;
        loop {
            let queued: usize = q.iter().map(|r| r.items.len()).sum();
            if queued >= shared.config.max_batch_items || shared.draining.load(Ordering::Acquire) {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            q = wait_recover(&shared.notify, q, deadline - now, "cats.serve.batch.queue");
            if q.is_empty() {
                // Another worker took everything while we slept.
                break;
            }
        }
        if q.is_empty() {
            continue;
        }

        // Pop whole requests until the item budget is spent. The first
        // request always ships, even if alone it exceeds the budget.
        let mut batch: Vec<Request> = Vec::new();
        let mut items_in_batch = 0usize;
        while let Some(front) = q.front() {
            if !batch.is_empty()
                && items_in_batch + front.items.len() > shared.config.max_batch_items
            {
                break;
            }
            let req = q.pop_front().expect("front exists");
            items_in_batch += req.items.len();
            batch.push(req);
        }
        depth_gauge.set(q.len() as f64);
        shared.queued_items.fetch_sub(items_in_batch as u64, Ordering::Relaxed);
        let more_waiting = !q.is_empty();
        drop(q);
        if more_waiting {
            // Leftovers (e.g. an oversized tail) belong to the next
            // worker — wake one now rather than after scoring.
            shared.notify.notify_one();
        }

        // Chaos hook: fire an injected panic now that the batch is
        // popped — its reply senders drop, clients get 500s, and the
        // supervisor respawns this loop.
        if shared
            .inject_panics
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
            .is_ok()
        {
            panic!("injected batch-worker panic (chaos)");
        }

        // Phase 3: score outside the lock. Requests are grouped by
        // their version pin — one model load per group — so every
        // *request* is still scored by exactly one coherent model even
        // when a coalesced batch mixes pins mid-rolling-swap.
        batch_size.record(items_in_batch as f64);
        if let Some(oldest) = batch.iter().map(|r| r.enqueued).min() {
            batch_wait.record(oldest.elapsed().as_secs_f64() * 1e3);
        }
        let mut groups: Vec<(Option<u64>, Vec<Request>)> = Vec::new();
        for req in batch {
            match groups.iter_mut().find(|(p, _)| *p == req.pin) {
                Some((_, g)) => g.push(req),
                None => groups.push((req.pin, vec![req])),
            }
        }
        for (pin, group) in groups {
            let model = match pin {
                None => shared.slot.load(),
                Some(v) => match shared.slot.load_version(v) {
                    Some(m) => m,
                    None => {
                        // The pinned generation is gone: answer 409 so
                        // the router re-runs at the current version
                        // rather than silently mixing versions.
                        let current = shared.slot.version();
                        cats_obs::counter("cats.serve.batch.pin_unavailable")
                            .add(group.len() as u64);
                        for req in group {
                            let _ =
                                req.reply.send(BatchReply::PinUnavailable { pinned: v, current });
                        }
                        continue;
                    }
                },
            };
            let group_items: usize = group.iter().map(|r| r.items.len()).sum();
            // Each item's comment list goes in as is; detect segments it
            // into slices of these strings.
            let comments: Vec<&[String]> = group
                .iter()
                .flat_map(|r| r.items.iter())
                .map(|it| it.comments.as_slice())
                .collect();
            let sales: Vec<u64> =
                group.iter().flat_map(|r| r.items.iter()).map(|it| it.sales_volume).collect();
            let reports = {
                let _span = cats_obs::span!("cats.serve.batch.detect", { group_items });
                model.pipeline.detect(&comments, &sales)
            };
            cats_obs::counter("cats.serve.items_scored").add(group_items as u64);
            if let Some(monitor) = &shared.drift {
                for rep in &reports {
                    if let Some(f) = &rep.features {
                        monitor.observe_row(&f.0);
                    }
                }
            }

            // Slice the flat report vector back into per-request replies.
            let mut cursor = 0usize;
            for req in group {
                let n = req.items.len();
                let verdicts = reports[cursor..cursor + n]
                    .iter()
                    .zip(&req.items)
                    .map(|(rep, item)| ScoreVerdict {
                        item_id: item.item_id,
                        filter: filter_str(rep.filter).to_string(),
                        score: rep.score,
                        is_fraud: rep.is_fraud,
                    })
                    .collect();
                cursor += n;
                // A hung-up client (timed-out request) is not an error.
                let _ = req.reply.send(BatchReply::Scored(ScoredBatch {
                    model_version: model.version,
                    verdicts,
                }));
            }
        }
        shared.note_drain(items_in_batch as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use cats_core::ItemComments;

    fn slot() -> Arc<ModelSlot> {
        Arc::new(ModelSlot::new(testutil::trained(0.0)))
    }

    /// Unwraps the scored arm (panics on a 409 reply).
    fn scored(reply: BatchReply) -> ScoredBatch {
        match reply {
            BatchReply::Scored(s) => s,
            other => panic!("expected a scored reply, got {other:?}"),
        }
    }

    fn req(id: u64, fraud: bool) -> ScoreItem {
        let item = if fraud {
            testutil::fraud_item(id as usize)
        } else {
            testutil::normal_item(id as usize)
        };
        ScoreItem { item_id: id, sales_volume: 50, comments: item.texts }
    }

    #[test]
    fn single_request_roundtrips_in_order() {
        let batcher = Batcher::new(slot(), BatchConfig::default());
        let rx = batcher.submit(vec![req(1, true), req(2, false), req(3, true)]).unwrap();
        let scored = scored(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        assert_eq!(scored.model_version, 1);
        let ids: Vec<u64> = scored.verdicts.iter().map(|v| v.item_id).collect();
        assert_eq!(ids, vec![1, 2, 3], "verdicts keep request order");
        for v in &scored.verdicts {
            assert!((0.0..=1.0).contains(&v.score));
        }
    }

    #[test]
    fn concurrent_requests_coalesce_but_answer_separately() {
        let batcher = Arc::new(Batcher::new(
            slot(),
            BatchConfig { max_delay: Duration::from_millis(40), ..BatchConfig::default() },
        ));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let b = batcher.clone();
                std::thread::spawn(move || {
                    let rx = b.submit(vec![req(i, i % 2 == 0)]).unwrap();
                    rx.recv_timeout(Duration::from_secs(30)).unwrap()
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let scored = scored(h.join().unwrap());
            assert_eq!(scored.verdicts.len(), 1);
            assert_eq!(scored.verdicts[0].item_id, i as u64, "each caller gets its own item back");
        }
    }

    #[test]
    fn full_queue_rejects_instead_of_stalling() {
        // One slow worker + a long coalescing delay keeps the queue
        // occupied; capacity 1 means the second un-drained submit in
        // the window must bounce.
        let batcher = Batcher::new(
            slot(),
            BatchConfig {
                max_batch_items: 1000,
                max_delay: Duration::from_secs(2),
                queue_capacity: 1,
                workers: 1,
            },
        );
        let _rx1 = batcher.submit(vec![req(1, true)]).unwrap();
        // The worker may pop rx1's request into its coalescing window
        // at any moment, so allow a few attempts: at least one of the
        // next submissions must hit the bounded-queue limit.
        let mut saw_reject = false;
        let mut receivers = Vec::new();
        for i in 0..3 {
            match batcher.submit(vec![req(10 + i, false)]) {
                Err(RejectReason::QueueFull) => {
                    saw_reject = true;
                    break;
                }
                Ok(rx) => receivers.push(rx),
                Err(other) => panic!("unexpected reject: {other:?}"),
            }
        }
        assert!(saw_reject, "bounded queue must reject when full");
        drop(batcher); // drain scores the accepted requests
        for rx in receivers {
            assert!(rx.try_recv().is_ok(), "accepted requests still get scored on drain");
        }
    }

    #[test]
    fn shutdown_drains_accepted_work_then_rejects() {
        let batcher = Batcher::new(
            slot(),
            BatchConfig { max_delay: Duration::from_millis(200), ..BatchConfig::default() },
        );
        let rx = batcher.submit(vec![req(5, true)]).unwrap();
        batcher.shutdown();
        let scored = scored(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        assert_eq!(scored.verdicts.len(), 1, "queued request scored during drain");
        assert_eq!(batcher.submit(vec![req(6, true)]).unwrap_err(), RejectReason::Draining);
        assert!(batcher.is_draining());
        batcher.shutdown(); // idempotent
    }

    #[test]
    fn empty_request_gets_an_empty_scored_batch() {
        let batcher = Batcher::new(slot(), BatchConfig::default());
        let rx = batcher.submit(Vec::new()).unwrap();
        let scored = scored(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        assert!(scored.verdicts.is_empty());
        assert_eq!(scored.model_version, 1);
    }

    #[test]
    fn injected_panic_drops_the_reply_and_the_worker_respawns() {
        let panics = cats_obs::counter("cats.serve.batch.worker_panics");
        let respawns = cats_obs::counter("cats.serve.batch.worker_respawns");
        let (panics_before, respawns_before) = (panics.get(), respawns.get());
        let batcher = Batcher::new(
            slot(),
            BatchConfig {
                workers: 1,
                max_delay: Duration::from_millis(1),
                ..BatchConfig::default()
            },
        );
        batcher.inject_worker_panic(1);
        let rx = batcher.submit(vec![req(1, true)]).unwrap();
        // The panicking iteration drops the reply sender: the caller
        // observes a disconnect (HTTP maps it to 500), never a hang.
        match rx.recv_timeout(Duration::from_secs(30)) {
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
            other => panic!("expected dropped reply after injected panic, got {other:?}"),
        }
        // The reply sender drops mid-unwind, before the supervisor's
        // catch_unwind counts the panic — give it a moment to land.
        let deadline = Instant::now() + Duration::from_secs(5);
        while (panics.get() <= panics_before || respawns.get() <= respawns_before)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(panics.get() > panics_before, "supervisor counted the panic");
        assert!(respawns.get() > respawns_before, "supervisor counted the respawn");
        // The respawned worker (same thread, re-entered loop) keeps scoring.
        let rx = batcher.submit(vec![req(2, false)]).unwrap();
        let scored = scored(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        assert_eq!(scored.verdicts.len(), 1, "scoring capacity survives the panic");
        assert_eq!(scored.verdicts[0].item_id, 2);
    }

    #[test]
    fn pinned_requests_score_on_their_generation_even_mid_batch() {
        // Hold a long coalescing window so pinned-v1 and pinned-v2
        // requests land in the SAME popped batch, then verify each was
        // answered by its own version — the zero-skew invariant the
        // rolling swap depends on.
        let slot = slot();
        let snap = slot.load().pipeline.to_snapshot().to_io2_bytes().unwrap();
        slot.swap_tagged(testutil::restore(&snap, 0.0), 2);
        let batcher = Arc::new(Batcher::new(
            slot,
            BatchConfig {
                max_batch_items: 1000,
                max_delay: Duration::from_millis(150),
                workers: 1,
                ..BatchConfig::default()
            },
        ));
        let rx1 = batcher.submit_pinned(vec![req(1, true)], Some(1)).unwrap();
        let rx2 = batcher.submit_pinned(vec![req(2, true)], Some(2)).unwrap();
        let s1 = scored(rx1.recv_timeout(Duration::from_secs(30)).unwrap());
        let s2 = scored(rx2.recv_timeout(Duration::from_secs(30)).unwrap());
        assert_eq!(s1.model_version, 1, "pinned to the previous generation");
        assert_eq!(s2.model_version, 2, "pinned to the current generation");
    }

    #[test]
    fn unavailable_pin_answers_conflict_not_wrong_version() {
        let batcher = Batcher::new(slot(), BatchConfig::default());
        let rx = batcher.submit_pinned(vec![req(1, true)], Some(99)).unwrap();
        match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
            BatchReply::PinUnavailable { pinned: 99, current: 1 } => {}
            other => panic!("expected PinUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn retry_after_tracks_queue_depth_and_drain_rate() {
        // No drain observed yet: pessimistic cap.
        assert_eq!(compute_retry_after(10, 0.0), 30);
        assert_eq!(compute_retry_after(0, 0.0), 30);
        assert_eq!(compute_retry_after(5, f64::NAN), 30);
        // Fast drain: clamped to the 1s floor, even with nothing queued.
        assert_eq!(compute_retry_after(0, 100.0), 1);
        assert_eq!(compute_retry_after(50, 100.0), 1);
        // Backlog over rate, rounded up.
        assert_eq!(compute_retry_after(250, 100.0), 3);
        assert_eq!(compute_retry_after(1000, 100.0), 10);
        // Deep backlog: clamped to the 30s cap.
        assert_eq!(compute_retry_after(1_000_000, 100.0), 30);
        // A served batcher converges to a sane dynamic value.
        let batcher = Batcher::new(slot(), BatchConfig::default());
        let rx = batcher.submit(vec![req(1, true)]).unwrap();
        let _ = scored(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        let secs = batcher.retry_after_secs();
        assert!((1..=30).contains(&secs), "retry-after {secs} outside [1,30]");
    }

    #[test]
    fn coalesced_mixed_batch_answers_like_segmented_detect() {
        let slot = slot();
        let batcher = Batcher::new(
            slot.clone(),
            BatchConfig { max_delay: Duration::from_millis(200), ..BatchConfig::default() },
        );
        let texts = |strs: &[&str]| strs.iter().map(|t| t.to_string()).collect::<Vec<_>>();
        let odd = [
            texts(&[]),
            texts(&["", " \u{3000} ", "!!。"]),
            texts(&["hao0\u{a0}zan1！很好\u{2028}hao0 ， hao0", "🙂 hao0 ! hao0"]),
            texts(&["cha0 dongxi", "le dian"]),
            // Positive evidence only in a later comment, behind Unicode
            // whitespace or punctuation.
            texts(&["cha0 dongxi", "le\u{3000}hao0"]),
            texts(&["cha0", "", "dian，hao0"]),
        ];
        let mut requests: Vec<Vec<ScoreItem>> = Vec::new();
        for r in 0..6u64 {
            let mut items = vec![req(10 * r, r % 2 == 0), req(10 * r + 1, r % 3 == 0)];
            for (k, comments) in odd.iter().enumerate() {
                let sales_volume = if (r as usize + k) % 3 == 0 { 2 } else { 50 };
                let item_id = 10 * r + 2 + k as u64;
                items.push(ScoreItem { item_id, sales_volume, comments: comments.clone() });
            }
            requests.push(items);
        }
        // Submitted back to back, inside one coalescing window.
        let receivers: Vec<_> =
            requests.iter().map(|items| batcher.submit(items.clone()).unwrap()).collect();

        let model = slot.load();
        let mut filters = std::collections::HashSet::new();
        for (items, rx) in requests.iter().zip(receivers) {
            let scored = scored(rx.recv_timeout(Duration::from_secs(30)).unwrap());
            assert_eq!(scored.verdicts.len(), items.len());
            for (v, item) in scored.verdicts.iter().zip(items) {
                let segmented = ItemComments::from_texts(item.comments.iter().map(String::as_str));
                let want = &model.pipeline.detect(&[segmented], &[item.sales_volume])[0];
                assert_eq!(v.item_id, item.item_id);
                assert_eq!(v.filter, filter_str(want.filter), "item {}", item.item_id);
                assert_eq!(v.score.to_bits(), want.score.to_bits(), "item {}", item.item_id);
                assert_eq!(v.is_fraud, want.is_fraud, "item {}", item.item_id);
                filters.insert(v.filter.clone());
            }
        }
        assert_eq!(filters.len(), 4, "every filter outcome is exercised: {filters:?}");
    }

    #[test]
    fn drift_monitor_sees_every_classified_row() {
        let references: Vec<cats_obs::FeatureReference> = cats_core::FEATURE_NAMES
            .iter()
            .map(|name| {
                cats_obs::FeatureReference::new(
                    *name,
                    (0..64).map(|i| i as f64 / 64.0).collect::<Vec<_>>(),
                )
            })
            .collect();
        let monitor =
            Arc::new(cats_obs::DriftMonitor::new(references, cats_obs::DriftConfig::default()));
        let batcher =
            Batcher::new_with_drift(slot(), BatchConfig::default(), Some(monitor.clone()));
        let rx = batcher.submit(vec![req(1, true), req(2, false), req(3, true)]).unwrap();
        let scored = scored(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        let classified = scored.verdicts.iter().filter(|v| v.filter == "classified").count();
        assert!(classified > 0, "test corpus should classify at least one item");
        assert_eq!(
            monitor.rows_seen(),
            classified,
            "one observed row per classified item, none for filtered items"
        );
    }
}
