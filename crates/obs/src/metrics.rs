//! Lock-free-ish metrics: named counters, gauges and fixed-bucket
//! histograms backed by atomics.
//!
//! Handle lookup (`registry.counter("name")`) takes a mutex; recording
//! through a handle is atomics only, so `cats-par` worker threads cache
//! a handle once and record without locks. Names follow the
//! `cats.<crate>.<stage>.<name>` scheme documented in DESIGN.md §8.
//!
//! [`Registry::snapshot`] captures a consistent-enough point-in-time
//! copy of every metric; [`Snapshot::diff`] subtracts an earlier
//! snapshot, which is how per-run [`crate::RunProfile`]s are carved out
//! of the process-global, monotonically growing registry.

use crate::span::StageStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point gauge.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram: `bounds` are ascending bucket upper bounds
/// plus one implicit overflow bucket. Recording is a binary search and
/// two relaxed atomic adds; percentiles are estimated by linear
/// interpolation inside the winning bucket.
///
/// Non-finite samples are dropped, and quantiles of an empty histogram
/// are `None` — never a panic (see the `empty_and_nan` tests).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Builds a histogram from the given bucket upper bounds.
    /// Non-finite bounds are dropped; duplicates are merged.
    pub fn new(bounds: &[f64]) -> Self {
        let mut b: Vec<f64> = bounds.iter().copied().filter(|x| x.is_finite()).collect();
        b.sort_by(f64::total_cmp);
        b.dedup();
        let buckets = (0..=b.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: b,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Default duration buckets: powers of two from 1 µs to ~1.2 hours.
    pub fn exponential_micros() -> Self {
        let bounds: Vec<f64> = (0..32).map(|i| (1u64 << i) as f64).collect();
        Self::new(&bounds)
    }

    /// Records one sample. Non-finite samples (NaN, ±inf) are ignored.
    pub fn record(&self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|b| *b < x);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + x).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`, clamped). `None` when
    /// the histogram is empty or `q` is NaN.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }

    /// Point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            bounds: self.bounds.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Plain-data copy of a [`Histogram`]; supports exact bucket-wise
/// subtraction so per-run percentiles can be computed from deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    pub bounds: Vec<f64>,
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: f64,
}

impl HistSnapshot {
    /// Empty snapshot with the default duration buckets.
    pub fn empty() -> Self {
        Histogram::exponential_micros().snapshot()
    }

    /// See [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || q.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // Overflow bucket: clamp to the last finite bound.
                    self.bounds.last().copied().unwrap_or(0.0)
                };
                let frac = (rank - (seen - c)) as f64 / c as f64;
                return Some(lo + (hi - lo).max(0.0) * frac);
            }
        }
        None
    }

    /// Bucket-wise `self - earlier` (saturating). Bounds must match;
    /// mismatched layouts fall back to `self`.
    pub fn diff(&self, earlier: &HistSnapshot) -> HistSnapshot {
        if self.bounds != earlier.bounds || self.buckets.len() != earlier.buckets.len() {
            return self.clone();
        }
        HistSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: (self.sum - earlier.sum).max(0.0),
        }
    }

    /// Bucket-wise `self + other` when the bucket layouts match.
    /// Mismatched layouts cannot be added meaningfully, so the merge
    /// deterministically keeps the "bigger" histogram (by count, then
    /// sum, then layout) — the same winner regardless of argument
    /// order, which keeps [`Snapshot::merge`] commutative.
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        if self.bounds == other.bounds && self.buckets.len() == other.buckets.len() {
            return HistSnapshot {
                bounds: self.bounds.clone(),
                buckets: self
                    .buckets
                    .iter()
                    .zip(&other.buckets)
                    .map(|(a, b)| a.saturating_add(*b))
                    .collect(),
                count: self.count.saturating_add(other.count),
                sum: self.sum + other.sum,
            };
        }
        if hist_rank(self, other) == std::cmp::Ordering::Less {
            other.clone()
        } else {
            self.clone()
        }
    }
}

/// Deterministic total order on histogram snapshots used to break ties
/// when layouts are incompatible: count, then sum, then the layout
/// itself so equal-count/sum snapshots still order consistently.
fn hist_rank(a: &HistSnapshot, b: &HistSnapshot) -> std::cmp::Ordering {
    a.count
        .cmp(&b.count)
        .then(a.sum.total_cmp(&b.sum))
        .then(a.bounds.len().cmp(&b.bounds.len()))
        .then_with(|| {
            for (x, y) in a.bounds.iter().zip(&b.bounds) {
                let o = x.total_cmp(y);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            a.buckets.cmp(&b.buckets)
        })
}

/// Plain-data copy of one span name's aggregate stats.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    pub count: u64,
    pub items: u64,
    pub total_micros: u64,
    pub self_micros: u64,
    pub hist: HistSnapshot,
}

impl StageSnapshot {
    fn diff(&self, earlier: &StageSnapshot) -> StageSnapshot {
        StageSnapshot {
            count: self.count.saturating_sub(earlier.count),
            items: self.items.saturating_sub(earlier.items),
            total_micros: self.total_micros.saturating_sub(earlier.total_micros),
            self_micros: self.self_micros.saturating_sub(earlier.self_micros),
            hist: self.hist.diff(&earlier.hist),
        }
    }

    /// `self + other`: spans observed by two processes are disjoint
    /// events, so every aggregate simply adds.
    fn merge(&self, other: &StageSnapshot) -> StageSnapshot {
        StageSnapshot {
            count: self.count.saturating_add(other.count),
            items: self.items.saturating_add(other.items),
            total_micros: self.total_micros.saturating_add(other.total_micros),
            self_micros: self.self_micros.saturating_add(other.self_micros),
            hist: self.hist.merge(&other.hist),
        }
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    hists: BTreeMap<String, Arc<Histogram>>,
    stages: BTreeMap<String, Arc<StageStats>>,
}

/// Named-metric registry. Handle lookup locks; recording does not.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        g.counters.entry(name.to_string()).or_default().clone()
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        g.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Returns (registering on first use) a histogram with the default
    /// duration buckets.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        g.hists
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::exponential_micros()))
            .clone()
    }

    /// Returns (registering on first use) a histogram with caller-chosen
    /// bucket bounds. Bounds are fixed by whichever call registers first.
    pub fn histogram_with(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        g.hists.entry(name.to_string()).or_insert_with(|| Arc::new(Histogram::new(bounds))).clone()
    }

    pub(crate) fn stage(&self, name: &str) -> Arc<StageStats> {
        let mut g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        g.stages.entry(name.to_string()).or_insert_with(|| Arc::new(StageStats::new())).clone()
    }

    /// Point-in-time copy of every metric, keyed and ordered by name.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let now = crate::clock::now_micros();
        Snapshot {
            counters: g.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: g.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            hists: g.hists.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
            stages: g.stages.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
            taken_at_micros: now,
            gauges_at: g.gauges.keys().map(|k| (k.clone(), now)).collect(),
        }
    }

    /// Prometheus text export (see [`Snapshot::to_prometheus`]).
    pub fn to_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }
}

/// The process-global registry all instrumentation records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Shorthand for `global().counter(name)`.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Shorthand for `global().gauge(name)`.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Shorthand for `global().histogram(name)`.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Plain-data copy of a whole [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub hists: BTreeMap<String, HistSnapshot>,
    pub stages: BTreeMap<String, StageSnapshot>,
    /// Clock reading (µs) when this snapshot was captured; 0 for
    /// hand-built snapshots.
    pub taken_at_micros: u64,
    /// Per-gauge capture timestamps (µs). [`Registry::snapshot`] stamps
    /// every gauge with the snapshot time; [`Snapshot::merge`] keeps
    /// the later writer per gauge, which is what makes gauge merging
    /// latest-by-timestamp rather than order-of-arguments.
    pub gauges_at: BTreeMap<String, u64>,
}

impl Snapshot {
    /// Value of a counter, defaulting to 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `self - earlier` for counters, histograms and stages (entries
    /// absent from `earlier` pass through). Gauges are last-write-wins,
    /// so the later value is kept as-is.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
                .collect(),
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(k, v)| match earlier.hists.get(k) {
                    Some(e) => (k.clone(), v.diff(e)),
                    None => (k.clone(), v.clone()),
                })
                .collect(),
            stages: self
                .stages
                .iter()
                .map(|(k, v)| match earlier.stages.get(k) {
                    Some(e) => (k.clone(), v.diff(e)),
                    None => (k.clone(), v.clone()),
                })
                .collect(),
            taken_at_micros: self.taken_at_micros,
            gauges_at: self.gauges_at.clone(),
        }
    }

    /// Union of two registries, for aggregating shard processes at the
    /// router:
    ///
    /// * counters sum (saturating) — events happened in both places;
    /// * gauges are latest-by-timestamp per key ([`Snapshot::gauges_at`],
    ///   falling back to the snapshot-level [`Snapshot::taken_at_micros`]),
    ///   tie-broken on the value bits so the result never depends on
    ///   argument order;
    /// * histograms add bucket-wise when layouts match
    ///   ([`HistSnapshot::merge`]);
    /// * stages add all aggregates.
    ///
    /// Merge is commutative and associative, so a router can fold any
    /// number of shard snapshots in any order and land on one result.
    pub fn merge(&self, other: &Snapshot) -> Snapshot {
        let mut counters = self.counters.clone();
        for (k, v) in &other.counters {
            let e = counters.entry(k.clone()).or_insert(0);
            *e = e.saturating_add(*v);
        }

        let mut gauges = BTreeMap::new();
        let mut gauges_at = BTreeMap::new();
        let keys: std::collections::BTreeSet<&String> =
            self.gauges.keys().chain(other.gauges.keys()).collect();
        for k in keys {
            let a = self.gauges.get(k).map(|v| (self.gauge_stamp(k), *v));
            let b = other.gauges.get(k).map(|v| (other.gauge_stamp(k), *v));
            let (ts, v) = match (a, b) {
                (Some((ta, va)), Some((tb, vb))) => {
                    // Later timestamp wins; equal stamps fall back to
                    // the larger value bits — arbitrary but symmetric.
                    if (tb, vb.to_bits()) > (ta, va.to_bits()) {
                        (tb, vb)
                    } else {
                        (ta, va)
                    }
                }
                (Some(x), None) | (None, Some(x)) => x,
                (None, None) => unreachable!("key came from one of the maps"),
            };
            gauges.insert(k.clone(), v);
            gauges_at.insert(k.clone(), ts);
        }

        let mut hists = self.hists.clone();
        for (k, v) in &other.hists {
            match hists.entry(k.clone()) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let merged = e.get().merge(v);
                    e.insert(merged);
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
            }
        }

        let mut stages = self.stages.clone();
        for (k, v) in &other.stages {
            match stages.entry(k.clone()) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let merged = e.get().merge(v);
                    e.insert(merged);
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
            }
        }

        Snapshot {
            counters,
            gauges,
            hists,
            stages,
            taken_at_micros: self.taken_at_micros.max(other.taken_at_micros),
            gauges_at,
        }
    }

    /// Capture time of one gauge: its per-key stamp when present, else
    /// the snapshot-level stamp (hand-built snapshots).
    fn gauge_stamp(&self, name: &str) -> u64 {
        self.gauges_at.get(name).copied().unwrap_or(self.taken_at_micros)
    }

    /// Prometheus text format: every line is `name{labels} value` (or
    /// `name value`), names sanitized to `[a-zA-Z0-9_:]`. Histograms and
    /// stages export `_count`/`_sum`-style series plus
    /// `{quantile="..."}` summary lines.
    pub fn to_prometheus(&self) -> String {
        self.to_prometheus_labeled(&[])
    }

    /// [`Snapshot::to_prometheus`] with a fixed label set attached to
    /// every series — e.g. `&[("shard", "2")]` so a router can expose
    /// each shard's registry next to the merged cluster view without
    /// name collisions.
    pub fn to_prometheus_labeled(&self, labels: &[(&str, &str)]) -> String {
        let base = prom_labels(labels);
        let plain = if base.is_empty() { String::new() } else { format!("{{{}}}", base) };
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{}{plain} {v}\n", prom_name(k)));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{}{plain} {}\n", prom_name(k), fmt_f64(*v)));
        }
        for (k, h) in &self.hists {
            prom_summary(&mut out, &prom_name(k), &base, h);
        }
        for (k, s) in &self.stages {
            let name = prom_name(&format!("{k}.micros"));
            prom_summary(&mut out, &name, &base, &s.hist);
            out.push_str(&format!(
                "{}{plain} {}\n",
                prom_name(&format!("{k}.self_micros")),
                s.self_micros
            ));
            if s.items > 0 {
                out.push_str(&format!("{}{plain} {}\n", prom_name(&format!("{k}.items")), s.items));
            }
        }
        out
    }
}

/// Renders a label set as the inside of a `{...}` block (no braces),
/// values escaped per the Prometheus exposition rules.
fn prom_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&prom_name(k));
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

fn prom_summary(out: &mut String, name: &str, base_labels: &str, h: &HistSnapshot) {
    let plain = if base_labels.is_empty() { String::new() } else { format!("{{{base_labels}}}") };
    out.push_str(&format!("{name}_count{plain} {}\n", h.count));
    out.push_str(&format!("{name}_sum{plain} {}\n", fmt_f64(h.sum)));
    for (label, q) in [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)] {
        let qlabel = if base_labels.is_empty() {
            format!("quantile=\"{label}\"")
        } else {
            format!("{base_labels},quantile=\"{label}\"")
        };
        out.push_str(&format!("{name}{{{qlabel}}} {}\n", fmt_f64(h.quantile(q).unwrap_or(0.0))));
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Deterministic, JSON-compatible float formatting (shortest
/// round-trip; NaN/inf mapped to 0 for JSON safety).
pub(crate) fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    v.to_string()
}

/// Sanitizes a dotted metric name for the Prometheus exposition format.
pub(crate) fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("cats.test.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("cats.test.count").get(), 5, "same handle by name");
        let g = r.gauge("cats.test.gauge");
        g.set(2.5);
        assert_eq!(r.gauge("cats.test.gauge").get(), 2.5);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::exponential_micros();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((256.0..=1024.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
        assert!(p99 <= 1024.0, "p99 {p99}");
    }

    #[test]
    fn empty_and_nan_histogram_is_safe() {
        let h = Histogram::exponential_micros();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0, "non-finite samples dropped");
        assert_eq!(h.quantile(0.99), None);
        h.record(3.0);
        assert_eq!(h.quantile(f64::NAN), None, "NaN quantile rejected");
        assert!(h.quantile(-1.0).unwrap() <= h.quantile(2.0).unwrap(), "q clamped");
    }

    #[test]
    fn zero_bucket_histogram_is_safe() {
        let h = Histogram::new(&[]);
        h.record(7.0);
        assert_eq!(h.count(), 1, "overflow bucket still counts");
        assert!(h.quantile(0.5).is_some());
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_buckets() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.histogram("h").record(5.0);
        let before = r.snapshot();
        r.counter("a").add(2);
        r.histogram("h").record(9.0);
        r.histogram("h").record(9.0);
        let delta = r.snapshot().diff(&before);
        assert_eq!(delta.counter("a"), 2);
        let h = &delta.hists["h"];
        assert_eq!(h.count, 2);
        assert!((h.sum - 18.0).abs() < 1e-9);
    }

    #[test]
    fn prometheus_lines_parse_as_name_value() {
        let r = Registry::new();
        r.counter("cats.demo.fetch.pages").add(2);
        r.gauge("cats.demo.loss").set(0.25);
        r.histogram("cats.demo.latency").record(10.0);
        for line in r.to_prometheus().lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(parts.len(), 2, "line {line:?}");
            let name = parts[0];
            let metric = name.split('{').next().unwrap();
            assert!(!metric.is_empty());
            for (i, c) in metric.chars().enumerate() {
                let ok = c.is_ascii_alphabetic()
                    || c == '_'
                    || c == ':'
                    || (i > 0 && c.is_ascii_digit());
                assert!(ok, "bad char {c:?} in {name:?}");
            }
            if let Some(rest) = name.strip_prefix(metric) {
                if !rest.is_empty() {
                    assert!(rest.starts_with('{') && rest.ends_with('}'), "labels {rest:?}");
                }
            }
            parts[1].parse::<f64>().expect("value parses");
        }
    }

    #[test]
    fn merge_sums_overlapping_counters() {
        let a = Registry::new();
        a.counter("shared").add(3);
        a.counter("only_a").add(1);
        let b = Registry::new();
        b.counter("shared").add(4);
        b.counter("only_b").add(9);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.counter("shared"), 7, "overlapping names sum");
        assert_eq!(m.counter("only_a"), 1, "disjoint names pass through");
        assert_eq!(m.counter("only_b"), 9);
    }

    #[test]
    fn merge_gauges_take_latest_by_timestamp() {
        let mut a = Snapshot::default();
        a.gauges.insert("depth".into(), 5.0);
        a.gauges_at.insert("depth".into(), 100);
        let mut b = Snapshot::default();
        b.gauges.insert("depth".into(), 2.0);
        b.gauges_at.insert("depth".into(), 200);
        // b wrote later, so its (smaller) value wins — in both orders.
        assert_eq!(a.merge(&b).gauges["depth"], 2.0);
        assert_eq!(b.merge(&a).gauges["depth"], 2.0);
        assert_eq!(a.merge(&b).gauges_at["depth"], 200, "winning stamp kept");
        // Registry snapshots stamp gauges, so real merges get this too.
        let r = Registry::new();
        r.gauge("g").set(1.0);
        let s = r.snapshot();
        assert_eq!(s.gauges_at["g"], s.taken_at_micros);
    }

    #[test]
    fn merge_hists_add_bucket_wise() {
        let a = Registry::new();
        for v in [1.0, 3.0, 700.0] {
            a.histogram("lat").record(v);
        }
        let b = Registry::new();
        for v in [2.0, 900.0] {
            b.histogram("lat").record(v);
        }
        let m = a.snapshot().merge(&b.snapshot());
        let h = &m.hists["lat"];
        assert_eq!(h.count, 5);
        assert!((h.sum - 1606.0).abs() < 1e-9);
        let ha = a.snapshot().hists["lat"].clone();
        let hb = b.snapshot().hists["lat"].clone();
        for (i, &c) in h.buckets.iter().enumerate() {
            assert_eq!(c, ha.buckets[i] + hb.buckets[i], "bucket {i} adds");
        }
    }

    #[test]
    fn merge_mismatched_hist_layouts_pick_one_side_deterministically() {
        let a = Histogram::new(&[1.0, 2.0]);
        a.record(1.5);
        let b = Histogram::new(&[10.0, 20.0]);
        b.record(15.0);
        b.record(16.0);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let ab = sa.merge(&sb);
        let ba = sb.merge(&sa);
        assert_eq!(ab, ba, "winner independent of argument order");
        assert_eq!(ab.count, 2, "bigger histogram kept whole");
    }

    /// Random snapshot: overlapping key space ("m0".."m5"), integer
    /// gauge values (exact under f64 addition is irrelevant for gauges,
    /// but integer histogram samples keep `sum` exactly associative),
    /// explicit per-gauge stamps.
    fn random_snapshot(seed: u64) -> Snapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut snap = Snapshot { taken_at_micros: rng.next_u64() % 1_000, ..Snapshot::default() };
        for i in 0..6 {
            let key = format!("m{i}");
            if rng.next_u64() % 4 != 0 {
                snap.counters.insert(key.clone(), rng.next_u64() % 1_000);
            }
            if rng.next_u64() % 4 != 0 {
                snap.gauges.insert(key.clone(), (rng.next_u64() % 100) as f64);
                snap.gauges_at.insert(key.clone(), rng.next_u64() % 1_000);
            }
            if rng.next_u64() % 4 != 0 {
                let h = Histogram::exponential_micros();
                for _ in 0..(rng.next_u64() % 20) {
                    h.record((rng.next_u64() % 100_000) as f64);
                }
                snap.hists.insert(key.clone(), h.snapshot());
            }
            if rng.next_u64() % 4 != 0 {
                let h = Histogram::exponential_micros();
                for _ in 0..(rng.next_u64() % 10) {
                    h.record((rng.next_u64() % 10_000) as f64);
                }
                snap.stages.insert(
                    key,
                    StageSnapshot {
                        count: rng.next_u64() % 50,
                        items: rng.next_u64() % 500,
                        total_micros: rng.next_u64() % 10_000,
                        self_micros: rng.next_u64() % 10_000,
                        hist: h.snapshot(),
                    },
                );
            }
        }
        snap
    }

    #[test]
    fn merge_is_commutative_and_associative_on_seeded_registries() {
        for seed in 0..32u64 {
            let a = random_snapshot(seed.wrapping_mul(3).wrapping_add(1));
            let b = random_snapshot(seed.wrapping_mul(5).wrapping_add(2));
            let c = random_snapshot(seed.wrapping_mul(7).wrapping_add(3));
            assert_eq!(a.merge(&b), b.merge(&a), "commutative (seed {seed})");
            assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)), "associative (seed {seed})");
        }
    }
}
