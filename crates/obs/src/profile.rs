//! Per-run profiles: a [`StageTimer`] brackets a unit of work (one CLI
//! invocation, one bench sweep row) and rolls every span and counter
//! recorded in between into a [`RunProfile`] — the machine-readable
//! artifact behind `cats-cli --metrics-out` and `PROFILE_scaling.json`.
//!
//! The registry is process-global and monotonic; the timer snapshots it
//! at start and diffs at finish, so concurrent earlier runs don't leak
//! into the profile as long as runs don't overlap in time.

use crate::clock;
use crate::metrics::{fmt_f64, global, json_escape, Snapshot};

/// Aggregate of one span name inside a run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Sum of `items` payloads (0 when the site passes none).
    pub items: u64,
    /// Total wall time across occurrences.
    pub total_micros: u64,
    /// Wall time minus nested child spans.
    pub self_micros: u64,
    pub p50_micros: f64,
    pub p95_micros: f64,
    pub p99_micros: f64,
}

/// Everything observed during one timed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunProfile {
    pub label: String,
    /// Wall time between start and finish — the one field that is never
    /// deterministic, hence [`RunProfile::to_json_stripped`].
    pub wall_micros: u64,
    /// Stages sorted by name.
    pub stages: Vec<StageProfile>,
    /// Counter deltas sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values at finish, sorted by name.
    pub gauges: Vec<(String, f64)>,
}

impl RunProfile {
    /// Builds a profile from a registry snapshot diff. Stages with no
    /// occurrences inside the run are omitted.
    pub fn from_diff(label: &str, wall_micros: u64, diff: &Snapshot) -> Self {
        let stages = diff
            .stages
            .iter()
            .filter(|(_, s)| s.count > 0)
            .map(|(name, s)| StageProfile {
                name: name.clone(),
                count: s.count,
                items: s.items,
                total_micros: s.total_micros,
                self_micros: s.self_micros,
                p50_micros: s.hist.quantile(0.50).unwrap_or(0.0),
                p95_micros: s.hist.quantile(0.95).unwrap_or(0.0),
                p99_micros: s.hist.quantile(0.99).unwrap_or(0.0),
            })
            .collect();
        let counters = diff.counters.iter().filter(|(_, v)| **v > 0).map(|(k, v)| (k.clone(), *v));
        let gauges = diff.gauges.iter().map(|(k, v)| (k.clone(), *v));
        RunProfile {
            label: label.to_string(),
            wall_micros,
            stages,
            counters: counters.collect(),
            gauges: gauges.collect(),
        }
    }

    /// Looks up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Counter delta by name, defaulting to 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
    }

    /// Hand-rolled JSON document (schema `cats.run_profile.v1`).
    pub fn to_json(&self) -> String {
        self.json_impl(true)
    }

    /// JSON with the non-deterministic `wall_micros` field stripped;
    /// two identical deterministic runs compare byte-equal on this.
    pub fn to_json_stripped(&self) -> String {
        self.json_impl(false)
    }

    fn json_impl(&self, with_wall: bool) -> String {
        let mut out = String::from("{\n  \"schema\": \"cats.run_profile.v1\",\n");
        out.push_str(&format!("  \"label\": \"{}\",\n", json_escape(&self.label)));
        if with_wall {
            out.push_str(&format!("  \"wall_micros\": {},\n", self.wall_micros));
        }
        out.push_str("  \"stages\": [");
        let mut first = true;
        for s in &self.stages {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"items\": {}, \
                 \"total_micros\": {}, \"self_micros\": {}, \"p50_micros\": {}, \
                 \"p95_micros\": {}, \"p99_micros\": {}}}",
                json_escape(&s.name),
                s.count,
                s.items,
                s.total_micros,
                s.self_micros,
                fmt_f64(s.p50_micros),
                fmt_f64(s.p95_micros),
                fmt_f64(s.p99_micros),
            ));
        }
        out.push_str(if first { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"counters\": [");
        first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    {{\"name\": \"{}\", \"value\": {v}}}", json_escape(k)));
        }
        out.push_str(if first { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"gauges\": [");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"value\": {}}}",
                json_escape(k),
                fmt_f64(*v)
            ));
        }
        out.push_str(if first { "]\n}\n" } else { "\n  ]\n}\n" });
        out
    }

    /// Human-readable rendering (the `cats-cli metrics` view).
    pub fn render(&self) -> String {
        let mut out =
            format!("RunProfile: {}  (wall {:.3}s)\n", self.label, self.wall_micros as f64 / 1e6);
        out.push_str(&format!(
            "{:<44} {:>8} {:>10} {:>11} {:>11} {:>9} {:>9}\n",
            "stage", "count", "items", "total(ms)", "self(ms)", "p50(us)", "p95(us)"
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "{:<44} {:>8} {:>10} {:>11.3} {:>11.3} {:>9.1} {:>9.1}\n",
                s.name,
                s.count,
                s.items,
                s.total_micros as f64 / 1e3,
                s.self_micros as f64 / 1e3,
                s.p50_micros,
                s.p95_micros,
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k} {}\n", fmt_f64(*v)));
            }
        }
        out
    }
}

/// Brackets one run: snapshots the global registry at start, diffs at
/// finish, and returns the per-run [`RunProfile`].
pub struct StageTimer {
    label: String,
    start_micros: u64,
    base: Snapshot,
}

impl StageTimer {
    pub fn start(label: &str) -> Self {
        Self {
            label: label.to_string(),
            start_micros: clock::now_micros(),
            base: global().snapshot(),
        }
    }

    pub fn finish(self) -> RunProfile {
        let wall = clock::now_micros().saturating_sub(self.start_micros);
        let diff = global().snapshot().diff(&self.base);
        RunProfile::from_diff(&self.label, wall, &diff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{set_observer, SimObserver, WallObserver};
    use std::sync::Arc;

    #[test]
    fn timer_profiles_only_its_own_window() {
        let _g = crate::span::tests::OBS_LOCK.lock().unwrap();
        let sim = Arc::new(SimObserver::new());
        set_observer(sim.clone());
        crate::counter("cats.obs.test.before").add(9);

        let timer = StageTimer::start("unit");
        crate::counter("cats.obs.test.during").add(2);
        {
            let _span = crate::span!("cats.obs.test.stage", { 4usize });
            sim.advance_micros(100);
        }
        let profile = timer.finish();

        assert_eq!(profile.counter("cats.obs.test.during"), 2);
        assert_eq!(profile.counter("cats.obs.test.before"), 0, "pre-run counts excluded");
        let stage = profile.stage("cats.obs.test.stage").expect("stage present");
        assert_eq!(stage.count, 1);
        assert_eq!(stage.items, 4);
        assert_eq!(stage.total_micros, 100);
        assert!(stage.p50_micros > 0.0);
        set_observer(Arc::new(WallObserver::new()));
    }

    #[test]
    fn stripped_json_hides_wall_clock_only() {
        let profile = RunProfile {
            label: "x".into(),
            wall_micros: 123,
            stages: vec![],
            counters: vec![("c".into(), 1)],
            gauges: vec![("g".into(), 0.5)],
        };
        let full = profile.to_json();
        let stripped = profile.to_json_stripped();
        assert!(full.contains("\"wall_micros\": 123"));
        assert!(!stripped.contains("wall_micros"));
        assert_eq!(full.replace("  \"wall_micros\": 123,\n", ""), stripped);
    }

    #[test]
    fn render_mentions_every_stage_and_counter() {
        let profile = RunProfile {
            label: "demo".into(),
            wall_micros: 2_000_000,
            stages: vec![StageProfile {
                name: "cats.x.y".into(),
                count: 3,
                items: 0,
                total_micros: 1500,
                self_micros: 1200,
                p50_micros: 400.0,
                p95_micros: 700.0,
                p99_micros: 900.0,
            }],
            counters: vec![("cats.x.events".into(), 7)],
            gauges: vec![],
        };
        let text = profile.render();
        assert!(text.contains("cats.x.y"));
        assert!(text.contains("cats.x.events 7"));
        assert!(text.contains("wall 2.000s"));
    }
}
