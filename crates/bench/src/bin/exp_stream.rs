//! Extension — streaming velocity detection: score the firehose, not
//! the archive.
//!
//! Replays the platform as a temporal comment stream
//! ([`cats_platform::stream`]) through the `cats-stream` sliding-window
//! engine and measures, in order:
//!
//! 1. **throughput** — sustained comments/s through ingest + periodic
//!    flush scoring (wall clock);
//! 2. **detection** — latency from each campaign wave's first promo
//!    arrival to the first fraud verdict on that item (virtual ms), and
//!    the catch rate against the batch oracle (the full-archive
//!    [`cats_core::CatsPipeline::detect`] the paper evaluates);
//! 3. **determinism** — a bit-identical verdict stream across a rerun
//!    of the same seeded trace;
//! 4. **memory bound** — a 2× longer trace must not grow the peak
//!    resident footprint (windows are fixed-size; idle items evict).
//!
//! Zero in-skew drops, the catch rate (≥ 0.5 of the oracle), the
//! detection p95 ceiling ([`LATENCY_P95_CEILING_MS`] virtual ms),
//! determinism and the memory bound are hardware-independent and
//! asserted here. The wall-clock ingest rate goes to the stdout table
//! only; `perf/` (`ingest_stream`) measures it.

use cats_bench::{percentile, render, setup, Args};
use cats_core::{CatsPipeline, ItemComments, StreamVerdict};
use cats_platform::{TemporalTrace, TraceConfig};
use cats_stream::{CommentEvent, StreamConfig, StreamEngine};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Ceiling on the wave-start → first-verdict p95, in virtual ms (fixed
/// by the trace seed, not the machine).
const LATENCY_P95_CEILING_MS: f64 = 60_000.0;

/// Replays a trace through a fresh engine of the default windows,
/// flushing on the virtual clock. Returns the verdict stream, the final
/// engine (for memory and drop accounting) and the ingest+score wall
/// time in seconds.
fn replay(
    trace: &TemporalTrace,
    pipeline: &CatsPipeline,
) -> (Vec<StreamVerdict>, StreamEngine, f64) {
    let mut engine = StreamEngine::new(StreamConfig::default());
    let mut verdicts = Vec::new();
    let t0 = Instant::now();
    for ev in &trace.events {
        let _ = engine.ingest(&CommentEvent {
            at_ms: ev.at_ms,
            item_id: ev.item_id,
            user_id: ev.user_id as u64,
            sales_volume: ev.sales_volume,
            text: ev.content.clone(),
        });
        if engine.flush_due() {
            verdicts.extend(engine.flush(pipeline));
        }
    }
    verdicts.extend(engine.flush(pipeline));
    (verdicts, engine, t0.elapsed().as_secs_f64())
}

/// Bit-exact verdict-stream equality (f64 compared by bits, so `-0.0`
/// vs `0.0` or NaN smuggling would fail loudly).
fn verdicts_identical(a: &[StreamVerdict], b: &[StreamVerdict]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.item_id == y.item_id
                && x.at_ms == y.at_ms
                && x.window_comments == y.window_comments
                && x.cats_score.to_bits() == y.cats_score.to_bits()
                && x.velocity_risk.to_bits() == y.velocity_risk.to_bits()
                && x.fused_score.to_bits() == y.fused_score.to_bits()
                && x.is_fraud == y.is_fraud
        })
}

fn main() {
    let args = Args::parse(0.004, 0x57E4);
    let total_t0 = Instant::now();
    let phase = |name: &str, t0: Instant| {
        println!(
            "[phase {name}] {:.2}s (t+{:.2}s)",
            t0.elapsed().as_secs_f64(),
            total_t0.elapsed().as_secs_f64()
        );
    };

    let t0 = Instant::now();
    let platform = setup::d0(args.scale, args.seed);
    println!("== Extension: streaming velocity detection ({} items) ==", platform.items().len());
    println!("training pipeline...");
    let pipeline = setup::train_pipeline(&platform, args.seed);
    let trace_config = TraceConfig { seed: args.seed, ..TraceConfig::default() };
    let trace = TemporalTrace::from_platform(&platform, &trace_config);
    println!(
        "trace: {} events over {} virtual min, {} campaign waves",
        trace.len(),
        trace.config.duration_ms / 60_000,
        trace.waves.len()
    );
    phase("setup", t0);

    // ---- Phase 1: sustained throughput -------------------------------
    let t0 = Instant::now();
    let (verdicts, engine, wall_s) = replay(&trace, &pipeline);
    let sustained = trace.len() as f64 / wall_s;
    assert!(
        engine.late_dropped() == 0,
        "bounded-skew trace must not shed events (skew {} ms < window), dropped {}",
        trace.config.max_skew_ms,
        engine.late_dropped()
    );
    phase("throughput", t0);

    // ---- Phase 2: detection latency + catch rate vs batch oracle -----
    let t0 = Instant::now();
    // Oracle: the archive view — every comment of the whole trace per
    // item, scored once by the batch pipeline.
    let mut archive: BTreeMap<u64, (u64, Vec<String>)> = BTreeMap::new();
    for ev in &trace.events {
        let entry = archive.entry(ev.item_id).or_insert_with(|| (ev.sales_volume, Vec::new()));
        entry.1.push(ev.content.clone());
    }
    let ids: Vec<u64> = archive.keys().copied().collect();
    let items: Vec<ItemComments> = archive
        .values()
        .map(|(_, texts)| ItemComments::from_texts(texts.iter().map(String::as_str)))
        .collect();
    let sales: Vec<u64> = archive.values().map(|&(s, _)| s).collect();
    let oracle_flagged: BTreeSet<u64> = pipeline
        .detect(&items, &sales)
        .iter()
        .filter(|r| r.is_fraud)
        .map(|r| ids[r.index])
        .collect();
    let stream_flagged: BTreeSet<u64> =
        verdicts.iter().filter(|v| v.is_fraud).map(|v| v.item_id).collect();
    let caught = oracle_flagged.intersection(&stream_flagged).count();
    let catch_rate =
        if oracle_flagged.is_empty() { 1.0 } else { caught as f64 / oracle_flagged.len() as f64 };

    // Latency: wave start → first fraud verdict on that item at or
    // after the start, in *virtual* ms (deterministic given the seed).
    let mut latencies: Vec<f64> = Vec::new();
    for w in &trace.waves {
        if let Some(v) =
            verdicts.iter().find(|v| v.item_id == w.item_id && v.is_fraud && v.at_ms >= w.start_ms)
        {
            latencies.push((v.at_ms - w.start_ms) as f64);
        }
    }
    latencies.sort_by(f64::total_cmp);
    let waves_caught = latencies.len();
    let (lat_median, lat_p95) = (percentile(&latencies, 0.50), percentile(&latencies, 0.95));
    assert!(
        catch_rate >= 0.5,
        "stream must catch at least half of what the batch oracle flags, got {catch_rate:.3} \
         ({caught}/{})",
        oracle_flagged.len()
    );
    assert!(
        lat_p95 <= LATENCY_P95_CEILING_MS,
        "stream detection p95 {lat_p95:.0} virtual ms exceeds the {LATENCY_P95_CEILING_MS:.0} ceiling"
    );
    phase("detection", t0);

    // ---- Phase 3: determinism across reruns ---------------------------
    let t0 = Instant::now();
    // Rerun bit-identity: regenerate the trace from the same seed too.
    let rerun_trace = TemporalTrace::from_platform(&platform, &trace_config);
    let (rerun, _, _) = replay(&rerun_trace, &pipeline);
    assert!(
        verdicts_identical(&verdicts, &rerun),
        "verdict stream diverges across reruns of the same seeded trace"
    );
    phase("determinism", t0);

    // ---- Phase 4: memory bound ---------------------------------------
    let t0 = Instant::now();
    let long_config =
        TraceConfig { duration_ms: trace_config.duration_ms * 2, ..trace_config.clone() };
    let long_trace = TemporalTrace::from_platform(&platform, &long_config);
    let (_, long_engine, _) = replay(&long_trace, &pipeline);
    let peak = engine.peak_resident_bytes();
    let peak_2x = long_engine.peak_resident_bytes();
    // Fixed rings + capped deques + idle eviction: doubling the trace
    // must not grow the footprint beyond wave-overlap jitter.
    let memory_bounded = peak_2x as f64 <= peak as f64 * 1.5 + 65_536.0;
    assert!(
        memory_bounded,
        "peak footprint must not scale with trace length: {peak} B (1x) vs {peak_2x} B (2x)"
    );
    phase("memory", t0);

    println!(
        "{}",
        render::table(
            &["Metric", "Value"],
            &[
                vec!["events".into(), trace.len().to_string()],
                vec!["trace (virtual ms)".into(), trace.config.duration_ms.to_string()],
                vec!["late dropped".into(), engine.late_dropped().to_string()],
                vec!["ingest wall (s)".into(), format!("{wall_s:.3}")],
                vec!["sustained comments/s".into(), format!("{sustained:.0}")],
                vec!["flush verdicts".into(), verdicts.len().to_string()],
                vec![
                    "oracle / stream flagged".into(),
                    format!("{} / {}", oracle_flagged.len(), stream_flagged.len())
                ],
                vec!["catch rate vs oracle".into(), format!("{catch_rate:.3}")],
                vec!["waves caught".into(), format!("{waves_caught}/{}", trace.waves.len()),],
                vec!["latency median (virtual ms)".into(), format!("{lat_median:.0}")],
                vec!["latency p95 (virtual ms)".into(), format!("{lat_p95:.0}")],
                vec!["peak resident bytes (1x/2x)".into(), format!("{peak}/{peak_2x}")],
            ],
        )
    );
}
