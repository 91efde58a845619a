//! Micro-batching request queue.
//!
//! Concurrent `POST /v1/score` requests land in one bounded queue.
//! [`Batcher::submit_pinned`] cuts a request into contiguous parts of at
//! most [`BatchConfig::max_batch_items`] items, each its own queue
//! entry, so idle workers share a large request instead of one worker
//! scoring it alone. Dispatch is *work-conserving*: a worker that finds
//! the queue non-empty pops parts, up to `max_batch_items` items, and
//! scores them at once through one [`cats_core::CatsPipeline::detect`]
//! call per model (which fans out across the `cats-par` pool). Small
//! requests coalesce only when they arrive while every worker is busy;
//! the next free worker takes them together. Items go in as the
//! requests' own comment lists, which detect segments into slices.
//!
//! The model is resolved once per request, at submit, and every part
//! scores on it: the parts of one request never straddle a hot swap.
//! The worker that scores a request's last part sends the reassembled
//! answer, in submission order, on the request's one reply channel.
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
//! silently shrinking batch capacity. A part popped by the panicking
//! iteration never finishes, so its request's reply sender drops once
//! the request's other parts are done, which the HTTP layer answers as
//! a 500: accepted work is always *answered*, never lost.

use crate::model::{ModelSlot, VersionedModel};
use crate::wire::{filter_str, ScoreItem, ScoreVerdict};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the micro-batcher.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Most items in one batch. A larger request is cut into
    /// `ceil(n / max_batch_items)` parts whose sizes differ by at most
    /// one. Values below 1 count as 1.
    pub max_batch_items: usize,
    /// Maximum requests waiting in the queue; beyond this, submit
    /// rejects the whole request with [`RejectReason::QueueFull`]. It
    /// counts requests, not parts: a request cut into parts holds one
    /// place until its last part is popped.
    pub queue_capacity: usize,
    /// Batch worker threads draining the queue.
    pub workers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self { max_batch_items: 64, queue_capacity: 256, workers: 2 }
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

/// One admitted request, shared by the parts it was cut into.
struct Job {
    items: Vec<ScoreItem>,
    /// The model every part scores on, resolved at submit.
    model: Arc<VersionedModel>,
    enqueued: Instant,
    /// Dropped unanswered when a part's worker panics: the last `Arc`
    /// of the job goes with the request's other parts.
    reply: mpsc::Sender<BatchReply>,
    done: Mutex<JobDone>,
}

/// What the parts of a job have finished so far.
struct JobDone {
    /// One verdict vector per part, in part order.
    verdicts: Vec<Vec<ScoreVerdict>>,
    parts_left: usize,
}

/// A contiguous run of a job's items: one queue entry.
struct Part {
    job: Arc<Job>,
    index: usize,
    range: Range<usize>,
}

impl Part {
    fn items(&self) -> &[ScoreItem] {
        &self.job.items[self.range.clone()]
    }

    /// A job's parts are queued back to back and popped in order, so
    /// popping the last one takes the request out of the queue.
    fn is_last(&self) -> bool {
        self.range.end == self.job.items.len()
    }

    /// Files this part's verdicts; the job's last part to finish sends
    /// the whole answer.
    fn finish(self, verdicts: Vec<ScoreVerdict>) {
        let job = &self.job;
        let mut done = cats_obs::lock_recover(&job.done, "cats.serve.batch.job");
        done.verdicts[self.index] = verdicts;
        done.parts_left -= 1;
        if done.parts_left > 0 {
            return;
        }
        let mut all = Vec::with_capacity(job.items.len());
        all.extend(done.verdicts.drain(..).flatten());
        drop(done);
        // A hung-up client (timed-out request) is not an error.
        let _ = job.reply.send(BatchReply::Scored(ScoredBatch {
            model_version: job.model.version,
            verdicts: all,
        }));
    }
}

/// Cuts `n` items into `ceil(n / max)` contiguous ranges whose sizes
/// differ by at most one; no items make one empty range.
fn split(n: usize, max: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    let parts = n.div_ceil(max).max(1);
    let (base, extra) = (n / parts, n % parts);
    (0..parts).map(move |i| {
        let lo = i * base + i.min(extra);
        lo..lo + base + usize::from(i < extra)
    })
}

#[derive(Default)]
struct Queue {
    parts: VecDeque<Part>,
    /// Requests with a part still queued: what `queue_capacity` bounds.
    requests: usize,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled on enqueue and on drain, so sleeping workers wake.
    notify: Condvar,
    draining: AtomicBool,
    /// Chaos hook: each pending count makes one worker iteration panic
    /// right after it pops its batch (see [`Batcher::inject_worker_panic`]).
    inject_panics: AtomicU32,
    /// Chaos hook: while non-zero, workers leave the queue alone unless
    /// draining (see [`Batcher::hold_workers`]).
    holds: AtomicU32,
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

/// Waits (at most 50 ms) for the queue's condvar, recovering from
/// poison like [`cats_obs::lock_recover`] (a worker that panicked while
/// holding the queue lock must not take down its siblings with it).
fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, Duration::from_millis(50)) {
        Ok((g, _timeout)) => g,
        Err(poisoned) => {
            cats_obs::counter("cats.obs.lock.poison_recovered").inc();
            eprintln!("cats-obs: recovered poisoned lock cats.serve.batch.queue");
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
            queue: Mutex::new(Queue::default()),
            notify: Condvar::new(),
            draining: AtomicBool::new(false),
            inject_panics: AtomicU32::new(0),
            holds: AtomicU32::new(0),
            queued_items: AtomicU64::new(0),
            drain_rate_bits: AtomicU64::new(0f64.to_bits()),
            last_drain_micros: AtomicU64::new(cats_obs::now_micros()),
            slot,
            config: BatchConfig {
                max_batch_items: config.max_batch_items.max(1),
                queue_capacity: config.queue_capacity,
                workers: config.workers.max(1),
            },
            drift,
        });
        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cats-serve-batch-{i}"))
                    .spawn(move || supervise(&shared))
                    // `new` keeps its infallible signature (the benchmark
                    // calls it); a process that cannot spawn cannot serve.
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

    /// Chaos hook: workers pop nothing until the guard drops, so
    /// requests queue (and overflow) as behind busy workers, on cue. A
    /// popped batch still finishes, and draining overrides the hold.
    pub fn hold_workers(&self) -> WorkerHold {
        self.shared.holds.fetch_add(1, Ordering::AcqRel);
        WorkerHold { shared: self.shared.clone() }
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
    /// it. The request is admitted or rejected whole, however many
    /// parts it is cut into.
    pub fn submit_pinned(
        &self,
        items: Vec<ScoreItem>,
        pin: Option<u64>,
    ) -> Result<mpsc::Receiver<BatchReply>, RejectReason> {
        let shared = &self.shared;
        let (reply, rx) = mpsc::channel();
        let model = match pin {
            None => Ok(shared.slot.load()),
            Some(v) => shared.slot.load_version(v).ok_or(v),
        };
        let mut q = cats_obs::lock_recover(&shared.queue, "cats.serve.batch.queue");
        // Checked under the lock: shutdown() flips the flag before
        // draining the queue, so nothing slips in behind it.
        if shared.draining.load(Ordering::Acquire) {
            cats_obs::counter("cats.serve.reject.draining").inc();
            return Err(RejectReason::Draining);
        }
        if q.requests >= shared.config.queue_capacity {
            cats_obs::counter("cats.serve.reject.queue_full").inc();
            return Err(RejectReason::QueueFull);
        }
        cats_obs::counter("cats.serve.requests").inc();
        let model = match model {
            Ok(model) => model,
            Err(pinned) => {
                drop(q);
                // The pinned generation is gone: answer 409 so the
                // router re-runs at the current version rather than
                // silently mixing versions.
                cats_obs::counter("cats.serve.batch.pin_unavailable").inc();
                let current = shared.slot.version();
                let _ = reply.send(BatchReply::PinUnavailable { pinned, current });
                return Ok(rx);
            }
        };
        let n = items.len();
        let ranges = split(n, shared.config.max_batch_items);
        let parts = ranges.len();
        let done = JobDone { verdicts: vec![Vec::new(); parts], parts_left: parts };
        let job =
            Arc::new(Job { items, model, enqueued: Instant::now(), reply, done: Mutex::new(done) });
        q.parts.extend(ranges.enumerate().map(|(index, range)| Part {
            job: job.clone(),
            index,
            range,
        }));
        q.requests += 1;
        shared.queued_items.fetch_add(n as u64, Ordering::Relaxed);
        cats_obs::gauge("cats.serve.queue.depth").set(q.requests as f64);
        drop(q);
        for _ in 0..parts.min(shared.config.workers) {
            shared.notify.notify_one();
        }
        Ok(rx)
    }

    /// Requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        cats_obs::lock_recover(&self.shared.queue, "cats.serve.batch.queue").requests
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

/// Guard returned by [`Batcher::hold_workers`]; dropping it releases
/// the workers onto whatever queued up meanwhile.
#[must_use = "the workers are released as soon as the guard drops"]
pub struct WorkerHold {
    shared: Arc<Shared>,
}

impl Drop for WorkerHold {
    fn drop(&mut self) {
        // Release under the queue lock, so a worker between its hold
        // check and its wait cannot miss the wake-up.
        let q = cats_obs::lock_recover(&self.shared.queue, "cats.serve.batch.queue");
        self.shared.holds.fetch_sub(1, Ordering::AcqRel);
        drop(q);
        self.shared.notify.notify_all();
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
        // Wait for work; a draining worker exits once the queue is empty.
        let mut q = cats_obs::lock_recover(&shared.queue, "cats.serve.batch.queue");
        loop {
            let draining = shared.draining.load(Ordering::Acquire);
            if q.parts.is_empty() {
                if draining {
                    return;
                }
            } else if draining || shared.holds.load(Ordering::Acquire) == 0 {
                break;
            }
            q = wait_recover(&shared.notify, q);
        }

        // Work-conserving: pop parts until the item budget is spent. No
        // part exceeds the budget, but the first ships regardless, so a
        // worker never spins on a part it cannot pop.
        let mut batch: Vec<Part> = Vec::new();
        let mut items_in_batch = 0usize;
        while let Some(part) = q.parts.pop_front() {
            if !batch.is_empty()
                && items_in_batch + part.range.len() > shared.config.max_batch_items
            {
                q.parts.push_front(part);
                break;
            }
            items_in_batch += part.range.len();
            q.requests -= usize::from(part.is_last());
            batch.push(part);
        }
        depth_gauge.set(q.requests as f64);
        shared.queued_items.fetch_sub(items_in_batch as u64, Ordering::Relaxed);
        let more_waiting = !q.parts.is_empty();
        drop(q);
        if more_waiting {
            // Leftovers belong to the next worker — wake one now rather
            // than after scoring.
            shared.notify.notify_one();
        }

        // Chaos hook: fire an injected panic now that the batch is
        // popped — its parts never finish, their requests' reply
        // senders drop, clients get 500s, and the supervisor respawns
        // this loop.
        if shared
            .inject_panics
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
            .is_ok()
        {
            panic!("injected batch-worker panic (chaos)");
        }

        // Score outside the lock. Parts are grouped by the model their
        // request resolved at submit — one detect call per group — so
        // every request is still scored by exactly one coherent model
        // even when a coalesced batch mixes versions mid-rolling-swap.
        batch_size.record(items_in_batch as f64);
        if let Some(oldest) = batch.iter().map(|p| p.job.enqueued).min() {
            batch_wait.record(oldest.elapsed().as_secs_f64() * 1e3);
        }
        let mut groups: Vec<(Arc<VersionedModel>, Vec<Part>)> = Vec::new();
        for part in batch {
            match groups.iter_mut().find(|(m, _)| Arc::ptr_eq(m, &part.job.model)) {
                Some((_, g)) => g.push(part),
                None => groups.push((part.job.model.clone(), vec![part])),
            }
        }
        for (model, group) in groups {
            let group_items: usize = group.iter().map(|p| p.range.len()).sum();
            // Each item's comment list goes in as is; detect segments it
            // into slices of these strings.
            let comments: Vec<&[String]> =
                group.iter().flat_map(Part::items).map(|it| it.comments.as_slice()).collect();
            let sales: Vec<u64> =
                group.iter().flat_map(Part::items).map(|it| it.sales_volume).collect();
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

            // Slice the flat report vector back into per-part verdicts.
            let mut cursor = 0usize;
            for part in group {
                let items = part.items();
                let verdicts = reports[cursor..cursor + items.len()]
                    .iter()
                    .zip(items)
                    .map(|(rep, item)| ScoreVerdict {
                        item_id: item.item_id,
                        filter: filter_str(rep.filter).to_string(),
                        score: rep.score,
                        is_fraud: rep.is_fraud,
                    })
                    .collect();
                cursor += items.len();
                part.finish(verdicts);
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

    /// One model trained once per test binary, as snapshot bytes.
    fn snapshot() -> &'static [u8] {
        static SNAPSHOT: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        SNAPSHOT.get_or_init(|| testutil::trained(0.0).to_snapshot().to_io2_bytes().unwrap())
    }

    /// A fresh slot over that model.
    fn slot() -> Arc<ModelSlot> {
        Arc::new(ModelSlot::new(testutil::restore(snapshot(), 0.0)))
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
        let batcher = Arc::new(Batcher::new(slot(), BatchConfig::default()));
        // Held workers let all eight callers queue before any pops, so
        // they ride one batch as they would behind busy workers.
        let hold = batcher.hold_workers();
        let queued = Arc::new(std::sync::Barrier::new(9));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (b, queued) = (batcher.clone(), queued.clone());
                std::thread::spawn(move || {
                    let rx = b.submit(vec![req(i, i % 2 == 0)]).unwrap();
                    queued.wait();
                    rx.recv_timeout(Duration::from_secs(30)).unwrap()
                })
            })
            .collect();
        queued.wait();
        assert_eq!(batcher.queue_depth(), 8, "every caller queued behind the hold");
        drop(hold);
        for (i, h) in handles.into_iter().enumerate() {
            let scored = scored(h.join().unwrap());
            assert_eq!(scored.verdicts.len(), 1);
            assert_eq!(scored.verdicts[0].item_id, i as u64, "each caller gets its own item back");
        }
    }

    /// A 1-slot queue behind a held worker: the first submit queues, the
    /// second bounces at once. Returns the hold and the queued receiver.
    fn overflow_round(batcher: &Batcher, id: u64) -> (WorkerHold, mpsc::Receiver<BatchReply>) {
        let hold = batcher.hold_workers();
        let rx = batcher.submit(vec![req(id, true)]).unwrap();
        assert_eq!(
            batcher.submit(vec![req(id + 1, false)]).unwrap_err(),
            RejectReason::QueueFull,
            "bounded queue must reject when full"
        );
        (hold, rx)
    }

    fn one_slot_queue() -> Batcher {
        Batcher::new(
            slot(),
            BatchConfig { queue_capacity: 1, workers: 1, ..BatchConfig::default() },
        )
    }

    #[test]
    fn full_queue_rejects_instead_of_stalling() {
        let batcher = one_slot_queue();
        let (_hold, rx) = overflow_round(&batcher, 1);
        // Drain overrides the hold and scores the accepted request.
        drop(batcher);
        let scored = scored(rx.try_recv().expect("accepted request scored on drain"));
        assert_eq!(scored.verdicts[0].item_id, 1);
    }

    #[test]
    #[ignore = "200 rounds; run with --ignored"]
    fn full_queue_rejects_on_every_round() {
        let batcher = one_slot_queue();
        for round in 0..200 {
            let (hold, rx) = overflow_round(&batcher, 10 * round);
            drop(hold);
            let scored = scored(rx.recv_timeout(Duration::from_secs(30)).unwrap());
            assert_eq!(scored.verdicts[0].item_id, 10 * round);
        }
    }

    /// Queues 40 requests of 8 items behind held workers, releases them
    /// and checks that they were scored as one 320-item batch.
    fn held_requests_ride_one_batch(batcher: &Batcher) {
        let items = cats_obs::histogram("cats.serve.batch.items");
        let before = items.snapshot();
        let hold = batcher.hold_workers();
        let receivers: Vec<_> = (0..40u64)
            .map(|r| {
                let request = (0..8).map(|k| req(8 * r + k, k % 2 == 0)).collect();
                (r, batcher.submit(request).unwrap())
            })
            .collect();
        assert_eq!(batcher.queue_depth(), 40);
        drop(hold);
        for (r, rx) in receivers {
            let scored = scored(rx.recv_timeout(Duration::from_secs(30)).unwrap());
            let ids: Vec<u64> = scored.verdicts.iter().map(|v| v.item_id).collect();
            assert_eq!(ids, (8 * r..8 * r + 8).collect::<Vec<_>>(), "request {r} answered alone");
        }
        // The histogram is process-wide, but no other test here makes a
        // batch in 320's bucket, (256, 512].
        let diff = items.snapshot().diff(&before);
        let bucket = diff.bounds.partition_point(|b| *b < 320.0);
        assert!(diff.buckets[bucket] >= 1, "the 40 queued requests rode one batch: {diff:?}");
    }

    fn batch_of_320() -> Batcher {
        Batcher::new(slot(), BatchConfig { max_batch_items: 320, ..BatchConfig::default() })
    }

    #[test]
    fn requests_coalesce_only_while_workers_are_busy() {
        held_requests_ride_one_batch(&batch_of_320());
    }

    #[test]
    #[ignore = "200 rounds; run with --ignored"]
    fn requests_coalesce_while_held_on_every_round() {
        let batcher = batch_of_320();
        for _ in 0..200 {
            held_requests_ride_one_batch(&batcher);
        }
    }

    #[test]
    fn shutdown_drains_accepted_work_then_rejects() {
        let batcher = Batcher::new(slot(), BatchConfig::default());
        // Still queued, not popped, when the drain begins.
        let _hold = batcher.hold_workers();
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
        let batcher = Batcher::new(slot(), BatchConfig { workers: 1, ..BatchConfig::default() });
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
        // Hold the worker so pinned-v1 and pinned-v2 requests land in
        // the SAME popped batch, then verify each was answered by its
        // own version — the zero-skew invariant the rolling swap
        // depends on.
        let slot = slot();
        let snap = slot.load().pipeline.to_snapshot().to_io2_bytes().unwrap();
        slot.swap_tagged(testutil::restore(&snap, 0.0), 2);
        let batcher = Batcher::new(slot, BatchConfig { workers: 1, ..BatchConfig::default() });
        let hold = batcher.hold_workers();
        let rx1 = batcher.submit_pinned(vec![req(1, true)], Some(1)).unwrap();
        let rx2 = batcher.submit_pinned(vec![req(2, true)], Some(2)).unwrap();
        drop(hold);
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
        let batcher = Batcher::new(slot.clone(), BatchConfig::default());
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
        // Queued behind a held worker: the 6 requests (48 items) ride
        // one batch.
        let hold = batcher.hold_workers();
        let receivers: Vec<_> =
            requests.iter().map(|items| batcher.submit(items.clone()).unwrap()).collect();
        drop(hold);

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

    /// Batch cap of the split tests: `3 * CAP + 1` items make 4 parts.
    const CAP: usize = 4;

    fn capped(slot: Arc<ModelSlot>) -> Batcher {
        Batcher::new(slot, BatchConfig { max_batch_items: CAP, ..BatchConfig::default() })
    }

    /// `3 * CAP + 1` items: fraud, normal and low-sales ones.
    fn mixed_request() -> Vec<ScoreItem> {
        (0..3 * CAP as u64 + 1)
            .map(|id| {
                let mut item = req(id, id % 3 == 0);
                if id % 5 == 4 {
                    item.sales_volume = 2;
                }
                item
            })
            .collect()
    }

    /// One `detect` call over all of `items`, as verdicts.
    fn offline(pipeline: &cats_core::CatsPipeline, items: &[ScoreItem]) -> Vec<ScoreVerdict> {
        let comments: Vec<&[String]> = items.iter().map(|it| it.comments.as_slice()).collect();
        let sales: Vec<u64> = items.iter().map(|it| it.sales_volume).collect();
        pipeline
            .detect(&comments, &sales)
            .iter()
            .zip(items)
            .map(|(rep, item)| ScoreVerdict {
                item_id: item.item_id,
                filter: filter_str(rep.filter).to_string(),
                score: rep.score,
                is_fraud: rep.is_fraud,
            })
            .collect()
    }

    fn assert_bit_identical(got: &[ScoreVerdict], want: &[ScoreVerdict]) {
        let bits = |v: &ScoreVerdict| (v.item_id, v.filter.clone(), v.score.to_bits(), v.is_fraud);
        assert_eq!(
            got.iter().map(bits).collect::<Vec<_>>(),
            want.iter().map(bits).collect::<Vec<_>>()
        );
    }

    #[test]
    fn split_cuts_contiguous_parts_that_differ_by_at_most_one() {
        let sizes = |n, max| split(n, max).map(|r| r.len()).collect::<Vec<_>>();
        assert_eq!(sizes(128, 64), [64, 64]);
        assert_eq!(sizes(70, 64), [35, 35]);
        assert_eq!(sizes(13, 4), [4, 3, 3, 3]);
        assert_eq!(sizes(64, 64), [64]);
        assert_eq!(sizes(0, 64), [0], "an empty request is one empty part");
        for n in 0..40 {
            for max in 1..9 {
                let parts: Vec<Range<usize>> = split(n, max).collect();
                assert_eq!(parts.len(), n.div_ceil(max).max(1));
                assert_eq!((parts[0].start, parts[parts.len() - 1].end), (0, n));
                assert!(parts.windows(2).all(|w| w[0].end == w[1].start), "{n}/{max}");
                let lens: Vec<usize> = parts.iter().map(Range::len).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(*hi <= max && hi - lo <= 1, "{n}/{max}: {lens:?}");
            }
        }
    }

    #[test]
    fn a_request_over_the_cap_answers_in_order_like_one_detect() {
        let slot = slot();
        let batcher = capped(slot.clone());
        let items = mixed_request();
        let want = offline(&slot.load().pipeline, &items);
        assert!(want.iter().any(|v| v.is_fraud), "a fraud verdict");
        assert!(want.iter().any(|v| v.filter == "classified" && !v.is_fraud), "a normal verdict");
        assert!(want.iter().any(|v| v.filter == "filtered_low_sales"), "a low-sales item");
        let hold = batcher.hold_workers();
        let rx = batcher.submit(items).unwrap();
        {
            let q = batcher.shared.queue.lock().unwrap();
            let lens: Vec<usize> = q.parts.iter().map(|p| p.range.len()).collect();
            assert_eq!(lens, [4, 3, 3, 3], "four queued parts of at most {CAP} items");
            assert_eq!(q.requests, 1, "one queued request");
        }
        drop(hold);
        let scored = scored(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        assert_eq!(scored.model_version, 1);
        assert_bit_identical(&scored.verdicts, &want);
        assert_eq!(batcher.queue_depth(), 0);
    }

    #[test]
    fn a_swap_after_submit_leaves_every_part_on_the_submitted_model() {
        let slot = slot();
        let before = slot.load();
        let batcher = capped(slot.clone());
        let items = mixed_request();
        let hold = batcher.hold_workers();
        let rx = batcher.submit(items.clone()).unwrap();
        // Threshold 1.0: the swapped-in model flags nothing.
        slot.swap(testutil::restore(snapshot(), 0.5));
        let after = offline(&slot.load().pipeline, &items);
        let want = offline(&before.pipeline, &items);
        assert!(after.iter().zip(&want).any(|(a, w)| a.is_fraud != w.is_fraud), "models differ");
        drop(hold);
        let scored = scored(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        assert_eq!(scored.model_version, before.version, "scored on the pre-swap model");
        assert_bit_identical(&scored.verdicts, &want);
    }

    #[test]
    fn a_split_request_with_a_gone_pin_gets_one_conflict() {
        let batcher = capped(slot());
        let rx = batcher.submit_pinned(mixed_request(), Some(99)).unwrap();
        match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
            BatchReply::PinUnavailable { pinned: 99, current: 1 } => {}
            other => panic!("expected PinUnavailable, got {other:?}"),
        }
        match rx.recv_timeout(Duration::from_secs(1)) {
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
            other => panic!("exactly one reply per request, then a hang-up: {other:?}"),
        }
    }

    #[test]
    fn a_panicking_part_disconnects_its_request_at_once() {
        let batcher = capped(slot());
        batcher.inject_worker_panic(1);
        let rx = batcher.submit((0..2 * CAP as u64).map(|id| req(id, id % 2 == 0)).collect());
        // One part's worker panics, the other part is scored: the reply
        // sender drops with the last part, so the caller hears at once.
        match rx.unwrap().recv_timeout(Duration::from_secs(1)) {
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
            other => panic!("expected a dropped reply within 1 s, got {other:?}"),
        }
        let rx = batcher.submit(mixed_request()).unwrap();
        let scored = scored(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        assert_eq!(scored.verdicts.len(), 3 * CAP + 1, "the next request is scored");
    }

    /// Multi-part and 8-item requests race a hot swap between two models
    /// that disagree on fraud verdicts (odd versions flag at 0.5, even
    /// ones at 1.0). Every answer must come from one version and equal
    /// that version's offline `detect`.
    #[test]
    #[ignore = "200 rounds; run with --ignored"]
    fn split_requests_stay_single_version_across_swaps_on_every_round() {
        let slot = slot();
        let items = mixed_request();
        let want = [
            offline(&testutil::restore(snapshot(), 0.0), &items),
            offline(&testutil::restore(snapshot(), 0.5), &items),
        ];
        assert!(want[0][..8].iter().zip(&want[1]).any(|(a, b)| a.is_fraud != b.is_fraud));
        let batcher = capped(slot.clone());
        let check = |rx: mpsc::Receiver<BatchReply>| {
            let scored = scored(rx.recv_timeout(Duration::from_secs(30)).unwrap());
            let want = &want[usize::from(scored.model_version % 2 == 0)];
            assert_bit_identical(&scored.verdicts, &want[..scored.verdicts.len()]);
        };
        for round in 0..200 {
            std::thread::scope(|s| {
                let big = s.spawn(|| batcher.submit(items.clone()).unwrap());
                let small = s.spawn(|| batcher.submit(items[..8].to_vec()).unwrap());
                let shift = if round % 2 == 0 { 0.5 } else { 0.0 };
                slot.swap(testutil::restore(snapshot(), shift));
                check(big.join().unwrap());
                check(small.join().unwrap());
            });
        }
    }
}
