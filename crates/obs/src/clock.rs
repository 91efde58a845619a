//! Time sources for the observability layer.
//!
//! Every duration recorded by [`crate::span!`] and [`crate::StageTimer`]
//! comes from the process-global [`Observer`], so swapping the observer
//! swaps the clock for the whole instrumentation layer at once:
//!
//! * [`WallObserver`] — real monotonic time (the default),
//! * [`SimObserver`] — a manually advanced clock, so tests that already
//!   run the chaos-ingestion simulated clock can drive span timing
//!   deterministically,
//! * [`NoopObserver`] — reports `enabled() == false`, which makes every
//!   span a no-op; used to measure the instrumentation overhead itself.
//!
//! Setting the environment variable `CATS_OBS` to `off`, `0` or `noop`
//! before first use installs the no-op observer (the knob behind the
//! exp_scaling overhead check).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// A pluggable time source / master switch for span recording.
pub trait Observer: Send + Sync {
    /// Current time in microseconds since an arbitrary fixed epoch.
    fn now_micros(&self) -> u64;

    /// When `false`, span enter/exit becomes a no-op (counters and
    /// gauges still record — they are too cheap to gate).
    fn enabled(&self) -> bool {
        true
    }
}

/// Real wall-clock observer: monotonic time since construction.
pub struct WallObserver {
    epoch: Instant,
}

impl WallObserver {
    pub fn new() -> Self {
        Self { epoch: Instant::now() }
    }
}

impl Default for WallObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer for WallObserver {
    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// Simulated clock: time only moves when a test calls
/// [`SimObserver::advance_micros`]. Share it with the instrumented code
/// via `Arc` to advance it mid-run.
#[derive(Default)]
pub struct SimObserver {
    micros: AtomicU64,
}

impl SimObserver {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn advance_micros(&self, delta: u64) {
        self.micros.fetch_add(delta, Ordering::Relaxed);
    }
}

impl Observer for SimObserver {
    fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::Relaxed)
    }
}

/// Disabled observer: spans cost one branch and nothing else.
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn now_micros(&self) -> u64 {
        0
    }

    fn enabled(&self) -> bool {
        false
    }
}

fn slot() -> &'static RwLock<Arc<dyn Observer>> {
    static SLOT: OnceLock<RwLock<Arc<dyn Observer>>> = OnceLock::new();
    SLOT.get_or_init(|| {
        let obs: Arc<dyn Observer> = match std::env::var("CATS_OBS").as_deref() {
            Ok("off") | Ok("0") | Ok("noop") => Arc::new(NoopObserver),
            _ => Arc::new(WallObserver::new()),
        };
        RwLock::new(obs)
    })
}

/// Installs a new process-global observer (tests: pass a
/// [`SimObserver`] or [`NoopObserver`]).
pub fn set_observer(obs: Arc<dyn Observer>) {
    *slot().write().unwrap() = obs;
}

/// The current process-global observer.
pub fn observer() -> Arc<dyn Observer> {
    slot().read().unwrap().clone()
}

/// Whether span recording is currently enabled.
pub fn enabled() -> bool {
    slot().read().unwrap().enabled()
}

/// Current observer time in microseconds.
pub fn now_micros() -> u64 {
    slot().read().unwrap().now_micros()
}
