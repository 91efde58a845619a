//! Spans: scoped timers with parent–child nesting and self-time.
//!
//! `let _g = span!("cats.core.detect");` opens a span that closes when
//! the guard drops. Each completed span records into the process-global
//! registry's per-name [`StageStats`]: count, total/self time, a
//! duration histogram and an items tally.
//!
//! Nesting is tracked per thread: a child's wall time is subtracted
//! from its parent's *self* time, so `self_micros` across all stages
//! partitions the instrumented wall clock without double counting.
//! Worker threads (`cats-par`) each carry their own stack and handle
//! cache, so recording never takes a lock on the hot path.

use crate::clock;
use crate::metrics::{global, Histogram, StageSnapshot};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Aggregate statistics for one span name. All-atomic: recording from
/// worker threads is lock-free.
#[derive(Debug)]
pub struct StageStats {
    count: AtomicU64,
    items: AtomicU64,
    total_micros: AtomicU64,
    self_micros: AtomicU64,
    hist: Histogram,
}

impl StageStats {
    pub(crate) fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            items: AtomicU64::new(0),
            total_micros: AtomicU64::new(0),
            self_micros: AtomicU64::new(0),
            hist: Histogram::exponential_micros(),
        }
    }

    fn record(&self, wall: u64, self_micros: u64, items: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.total_micros.fetch_add(wall, Ordering::Relaxed);
        self.self_micros.fetch_add(self_micros, Ordering::Relaxed);
        self.hist.record(wall as f64);
    }

    pub(crate) fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            count: self.count.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            total_micros: self.total_micros.load(Ordering::Relaxed),
            self_micros: self.self_micros.load(Ordering::Relaxed),
            hist: self.hist.snapshot(),
        }
    }
}

/// One thread's span state.
#[derive(Default)]
struct ThreadCtx {
    /// Per-open-span accumulator of direct children's wall time.
    stack: Vec<u64>,
    /// Per-thread cache of registry handles so span exit stays lock-free.
    stats: HashMap<&'static str, Arc<StageStats>>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx::default());
}

/// RAII span guard: the span closes (and records) when this drops.
/// Hold it in a named binding — `let _span = span!(...)` — because
/// `let _ =` drops immediately.
#[must_use = "a span measures the scope of its guard; bind it with `let _span = ...`"]
pub struct SpanGuard {
    name: &'static str,
    start: u64,
    items: u64,
    obs: Option<Arc<dyn clock::Observer>>,
}

/// Opens a span. Prefer the [`crate::span!`] macro.
pub fn enter(name: &'static str) -> SpanGuard {
    enter_with(name, 0)
}

/// Opens a span carrying an items-processed payload.
pub fn enter_with(name: &'static str, items: u64) -> SpanGuard {
    let obs = clock::observer();
    if !obs.enabled() {
        return SpanGuard { name, start: 0, items: 0, obs: None };
    }
    let start = obs.now_micros();
    CTX.with(|c| c.borrow_mut().stack.push(0));
    SpanGuard { name, start, items, obs: Some(obs) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(obs) = self.obs.take() else {
            return;
        };
        let wall = obs.now_micros().saturating_sub(self.start);
        let (self_micros, stats) = CTX.with(|c| {
            let mut c = c.borrow_mut();
            let child = c.stack.pop().unwrap_or(0);
            if let Some(parent) = c.stack.last_mut() {
                *parent += wall;
            }
            let stats =
                c.stats.entry(self.name).or_insert_with(|| global().stage(self.name)).clone();
            (wall.saturating_sub(child), stats)
        });
        stats.record(wall, self_micros, self.items);
    }
}

/// Opens a span recording into the global registry.
///
/// ```
/// let _span = cats_obs::span!("cats.doc.example");
/// let _span2 = cats_obs::span!("cats.doc.example.items", { 3usize });
/// let _span3 = cats_obs::span!("cats.doc.example.kv", items = 3u64);
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span::enter($name)
    };
    ($name:literal, { $items:expr }) => {
        $crate::span::enter_with($name, $items as u64)
    };
    ($name:literal, items = $items:expr) => {
        $crate::span::enter_with($name, $items as u64)
    };
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::clock::{set_observer, SimObserver, WallObserver};

    /// Span tests mutate the process-global observer/registry, so they
    /// serialize on one lock and measure via snapshot diffs.
    pub(crate) static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn nesting_attributes_self_time_to_the_right_span() {
        let _g = OBS_LOCK.lock().unwrap();
        let sim = Arc::new(SimObserver::new());
        set_observer(sim.clone());
        let before = global().snapshot();

        {
            let _outer = crate::span!("cats.obs.test.outer");
            sim.advance_micros(10);
            {
                let _inner = crate::span!("cats.obs.test.inner", { 7usize });
                sim.advance_micros(5);
            }
            sim.advance_micros(3);
        }

        let d = global().snapshot().diff(&before);
        let outer = &d.stages["cats.obs.test.outer"];
        let inner = &d.stages["cats.obs.test.inner"];
        assert_eq!(inner.count, 1);
        assert_eq!(inner.total_micros, 5);
        assert_eq!(inner.self_micros, 5);
        assert_eq!(inner.items, 7);
        assert_eq!(outer.total_micros, 18);
        assert_eq!(outer.self_micros, 13, "child time subtracted");

        set_observer(Arc::new(WallObserver::new()));
    }

    #[test]
    fn disabled_observer_records_nothing() {
        let _g = OBS_LOCK.lock().unwrap();
        set_observer(Arc::new(crate::clock::NoopObserver));
        let before = global().snapshot();
        {
            let _span = crate::span!("cats.obs.test.noop");
        }
        let d = global().snapshot().diff(&before);
        assert!(
            d.stages.get("cats.obs.test.noop").map_or(true, |s| s.count == 0),
            "noop observer must suppress spans"
        );
        set_observer(Arc::new(WallObserver::new()));
    }
}
