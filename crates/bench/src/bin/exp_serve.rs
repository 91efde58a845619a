//! Extension — online serving throughput, latency, hot-swap and
//! backpressure.
//!
//! The paper frames CATS as a third-party detection service platforms
//! query (§I); this experiment measures that serving layer end to end
//! through real sockets: concurrent clients POST comment batches to an
//! in-process `cats-serve` instance and the run reports sustained
//! request throughput, request latency percentiles, zero-drop model
//! hot-swap under load, and typed 429 backpressure under a deliberately
//! tiny queue.
//!
//! The serving invariants (zero drops under load and hot-swap, 429s and
//! no broken sockets under overload, overload resolving within 20 s) are
//! asserted here; throughput and latency go to the stdout table only.
//! Serving performance is measured by `perf/` (`score_trickle`,
//! `score_bulk`).

use cats_bench::{percentile, render, setup, Args};
use cats_core::{CatsPipeline, PipelineSnapshot};
use cats_serve::{BatchConfig, ModelSlot, ScoreClient, ScoreItem, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent client threads in the load phases.
const CLIENTS: usize = 4;
/// Items per scoring request.
const ITEMS_PER_REQUEST: usize = 8;
/// Wall-clock length of the sustained-load phase.
const LOAD_SECS: f64 = 2.0;
/// Model swaps performed during the hot-swap phase.
const SWAPS: usize = 5;

/// Outcome of one load phase.
struct LoadStats {
    requests: u64,
    items: u64,
    /// Requests that failed with anything other than 429/503.
    dropped: u64,
    /// 429/503 rejections (expected only in the backpressure phase).
    rejected: u64,
    elapsed_s: f64,
    latencies_ms: Vec<f64>,
    versions_seen: Vec<u64>,
}

/// Hammers `addr` from [`CLIENTS`] threads until `run_for` elapses.
fn drive_load(addr: &str, pool: &[ScoreItem], run_for: Duration) -> LoadStats {
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.to_string();
            let stop = stop.clone();
            let pool = pool.to_vec();
            std::thread::spawn(move || {
                let client = ScoreClient::new(addr).with_timeout(Duration::from_secs(30));
                let mut latencies = Vec::new();
                let mut versions: Vec<u64> = Vec::new();
                let (mut requests, mut items, mut dropped, mut rejected) = (0u64, 0u64, 0u64, 0u64);
                let mut cursor = c * ITEMS_PER_REQUEST;
                while !stop.load(Ordering::Relaxed) {
                    let batch: Vec<ScoreItem> = (0..ITEMS_PER_REQUEST)
                        .map(|k| pool[(cursor + k) % pool.len()].clone())
                        .collect();
                    cursor = (cursor + ITEMS_PER_REQUEST) % pool.len();
                    let t0 = Instant::now();
                    match client.score(&batch) {
                        Ok(resp) => {
                            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                            requests += 1;
                            items += resp.verdicts.len() as u64;
                            if !versions.contains(&resp.model_version) {
                                versions.push(resp.model_version);
                            }
                            assert_eq!(
                                resp.verdicts.len(),
                                batch.len(),
                                "every submitted item gets a verdict"
                            );
                        }
                        Err(cats_serve::ClientError::Http { status: 429 | 503, .. }) => {
                            rejected += 1;
                        }
                        Err(_) => dropped += 1,
                    }
                }
                (latencies, versions, requests, items, dropped, rejected)
            })
        })
        .collect();
    std::thread::sleep(run_for);
    stop.store(true, Ordering::Relaxed);
    let mut out = LoadStats {
        requests: 0,
        items: 0,
        dropped: 0,
        rejected: 0,
        elapsed_s: 0.0,
        latencies_ms: Vec::new(),
        versions_seen: Vec::new(),
    };
    for h in handles {
        let (lat, versions, requests, items, dropped, rejected) = h.join().expect("client thread");
        out.latencies_ms.extend(lat);
        for v in versions {
            if !out.versions_seen.contains(&v) {
                out.versions_seen.push(v);
            }
        }
        out.requests += requests;
        out.items += items;
        out.dropped += dropped;
        out.rejected += rejected;
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    out.latencies_ms.sort_by(f64::total_cmp);
    out.versions_seen.sort_unstable();
    out
}

fn main() {
    let args = Args::parse(0.01, 0x5E12);
    let platform = setup::d0(args.scale, args.seed);
    println!("== Extension: online serving ({} items) ==", platform.items().len());

    println!("training pipeline...");
    let pipeline = setup::train_pipeline(&platform, args.seed);
    let swap_snapshot = pipeline.to_snapshot().to_io2_bytes().expect("snapshot encodes");
    let pool: Vec<ScoreItem> = platform
        .items()
        .iter()
        .map(|it| ScoreItem {
            item_id: it.id,
            sales_volume: it.sales_volume,
            comments: it.comments.iter().map(|c| c.content.clone()).collect(),
        })
        .collect();

    let slot = Arc::new(ModelSlot::new(pipeline));
    let server = Server::start(
        slot.clone(),
        ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() },
    )
    .expect("bind serve socket");
    let addr = server.addr().to_string();
    println!("serving on {addr} ({CLIENTS} clients x {ITEMS_PER_REQUEST} items/request)");

    // Phase 1: sustained load.
    let load = drive_load(&addr, &pool, Duration::from_secs_f64(LOAD_SECS));
    let sustained_rps = load.requests as f64 / load.elapsed_s;
    let items_per_s = load.items as f64 / load.elapsed_s;
    let (p50, p95, p99) = (
        percentile(&load.latencies_ms, 0.50),
        percentile(&load.latencies_ms, 0.95),
        percentile(&load.latencies_ms, 0.99),
    );
    assert_eq!(load.dropped, 0, "sustained load must not drop requests");
    assert_eq!(load.rejected, 0, "default queue must absorb this load");

    // Phase 2: hot-swap under the same load — zero drops allowed.
    let swaps_done = Arc::new(AtomicU64::new(0));
    let swap_stop = Arc::new(AtomicBool::new(false));
    let swapper = {
        let (slot, done, stop) = (slot.clone(), swaps_done.clone(), swap_stop.clone());
        let bytes = swap_snapshot.clone();
        std::thread::spawn(move || {
            for _ in 0..SWAPS {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let snap = PipelineSnapshot::from_bytes(&bytes).expect("swap snapshot decodes");
                slot.swap(CatsPipeline::restore(snap));
                done.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(200));
            }
        })
    };
    let swap_load = drive_load(&addr, &pool, Duration::from_secs_f64(LOAD_SECS));
    swap_stop.store(true, Ordering::Relaxed);
    swapper.join().expect("swapper thread");
    let swaps = swaps_done.load(Ordering::Relaxed);
    assert_eq!(swap_load.dropped, 0, "hot-swap under load must not drop requests");
    assert!(
        swap_load.versions_seen.len() > 1,
        "load must observe more than one model version across {swaps} swaps: {:?}",
        swap_load.versions_seen
    );

    // Phase 3: backpressure probe — a tiny queue plus a long coalescing
    // window must answer 429, quickly, instead of stalling sockets.
    let probe_slot = {
        let snap = PipelineSnapshot::from_bytes(&swap_snapshot).expect("probe snapshot decodes");
        Arc::new(ModelSlot::new(CatsPipeline::restore(snap)))
    };
    let probe = Server::start(
        probe_slot,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            batch: BatchConfig {
                max_batch_items: 10_000,
                max_delay: Duration::from_millis(500),
                queue_capacity: 1,
                workers: 1,
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind probe socket");
    let probe_addr = probe.addr().to_string();
    let probe_t0 = Instant::now();
    let probe_handles: Vec<_> = (0..16)
        .map(|i| {
            let addr = probe_addr.clone();
            let item = pool[i % pool.len()].clone();
            std::thread::spawn(move || {
                let client = ScoreClient::new(addr).with_timeout(Duration::from_secs(30));
                match client.score(&[item]) {
                    Ok(_) => (1u64, 0u64, 0u64),
                    Err(cats_serve::ClientError::Http { status: 429, .. }) => (0, 1, 0),
                    Err(_) => (0, 0, 1),
                }
            })
        })
        .collect();
    let (mut accepted, mut rejected_429, mut failed) = (0u64, 0u64, 0u64);
    for h in probe_handles {
        let (a, r, f) = h.join().expect("probe thread");
        accepted += a;
        rejected_429 += r;
        failed += f;
    }
    let probe_s = probe_t0.elapsed().as_secs_f64();
    probe.shutdown();
    assert!(rejected_429 > 0, "tiny queue must reject some of 16 concurrent requests");
    assert_eq!(failed, 0, "overload must map to 429, not broken sockets");
    assert!(probe_s < 20.0, "overload must resolve fast, took {probe_s:.1}s");

    server.shutdown();

    println!(
        "{}",
        render::table(
            &[
                "Phase",
                "Requests",
                "Duration (s)",
                "RPS",
                "Items/s",
                "p50 (ms)",
                "p95 (ms)",
                "p99 (ms)"
            ],
            &[
                vec![
                    "sustained".into(),
                    load.requests.to_string(),
                    format!("{:.2}", load.elapsed_s),
                    format!("{sustained_rps:.1}"),
                    format!("{items_per_s:.1}"),
                    format!("{p50:.2}"),
                    format!("{p95:.2}"),
                    format!("{p99:.2}"),
                ],
                vec![
                    "hot-swap".into(),
                    swap_load.requests.to_string(),
                    format!("{:.2}", swap_load.elapsed_s),
                    format!("{:.1}", swap_load.requests as f64 / swap_load.elapsed_s),
                    format!("{:.1}", swap_load.items as f64 / swap_load.elapsed_s),
                    format!("{:.2}", percentile(&swap_load.latencies_ms, 0.50)),
                    format!("{:.2}", percentile(&swap_load.latencies_ms, 0.95)),
                    format!("{:.2}", percentile(&swap_load.latencies_ms, 0.99)),
                ],
            ],
        )
    );
    println!(
        "hot-swap: {swaps} swaps, versions seen {:?}, 0 dropped; backpressure: {accepted} accepted / \
         {rejected_429} x 429 / {failed} failed of 16, resolved in {probe_s:.2}s",
        swap_load.versions_seen
    );
}
