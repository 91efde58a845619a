//! Extension — sharded multi-process serving under chaos.
//!
//! Stands up the full cluster stack — shard child *processes* (this
//! same binary re-invoked in `--shard-server` mode), an in-process
//! [`cats_serve::Router`] consistent-hashing items across them — and
//! measures two things the single-process `exp_serve` cannot:
//!
//! * **Scaling** — closed-loop heavy-tail throughput at 1 shard vs 4
//!   shards. The floor is hardware-aware (`0.7 × machine threads`,
//!   capped at the 2.5× the CI machines must clear): a 1-core sandbox
//!   cannot show 4-way scaling and is not asked to.
//! * **Chaos invariants** — with [`cats_serve::TrafficTrace`] heavy-tail
//!   diurnal load running, one shard is SIGKILLed mid-load, must be
//!   ejected, is respawned onto its old address, must be re-admitted
//!   (after a model-version sync), and a rolling swap retags the whole
//!   cluster — all while **zero** requests are lost and **zero**
//!   responses mix model versions.
//!
//! Every invariant is asserted here; the numbers go to the stdout
//! table. Routed throughput is measured by `perf/` (`score_routed`).

use cats_bench::{percentile, render, setup, Args};
use cats_io::ScratchDir;
use cats_serve::{
    Router, RouterConfig, ScoreClient, ScoreItem, ShardOpts, ShardProcess, TrafficTrace,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent client threads driving the router.
const CLIENTS: usize = 6;
/// Items per scoring request.
const ITEMS_PER_REQUEST: usize = 8;
/// Wall-clock length of each scaling measurement.
const SCALE_SECS: f64 = 2.0;
/// Shards in the chaos phase.
const SHARDS: usize = 4;

/// Child mode: run one shard server and park. Must be checked BEFORE
/// `Args::parse` (which rejects unknown flags): argv is
/// `--shard-server <model_path> <addr>`.
fn maybe_run_shard() {
    let raw: Vec<String> = std::env::args().collect();
    let Some(pos) = raw.iter().position(|a| a == "--shard-server") else { return };
    let model_path = raw.get(pos + 1).expect("--shard-server <model> <addr>").clone();
    let addr = raw.get(pos + 2).expect("--shard-server <model> <addr>").clone();
    let server = cats_serve::start_shard(&ShardOpts {
        addr,
        model_path: PathBuf::from(model_path),
        // One worker and one scoring thread per shard: scaling must
        // come from adding shards, not from one shard grabbing every
        // core — that is what makes the 1-vs-4 comparison honest.
        workers: 1,
        score_threads: 1,
    })
    .expect("start shard server");
    cats_serve::announce_ready(&server);
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Spawns `n` shard child processes serving `model`, each on an
/// OS-assigned port.
fn spawn_shards(exe: &Path, model: &Path, n: usize) -> Vec<ShardProcess> {
    (0..n)
        .map(|id| {
            let args = vec![
                "--shard-server".to_string(),
                model.display().to_string(),
                "127.0.0.1:0".to_string(),
            ];
            ShardProcess::spawn(id, exe, &args, Duration::from_secs(60)).expect("spawn shard child")
        })
        .collect()
}

/// Aggregate outcome of one load window.
#[derive(Default)]
struct LoadStats {
    requests: u64,
    items: u64,
    /// Requests that failed outright — the chaos invariant is that this
    /// stays zero even while a shard is being killed.
    lost: u64,
    /// 429/503 rejections.
    rejected: u64,
    latencies_ms: Vec<f64>,
    versions_seen: Vec<u64>,
}

/// Starts [`CLIENTS`] closed-loop client threads hammering `addr` with
/// heavy-tail diurnal traffic until `stop` is raised. Join the handles
/// and fold the per-thread stats with [`collect_load`].
type LoadHandle = std::thread::JoinHandle<LoadStats>;

fn spawn_load(
    addr: &str,
    pool: &[ScoreItem],
    seed: u64,
    stop: &Arc<AtomicBool>,
) -> Vec<LoadHandle> {
    (0..CLIENTS)
        .map(|c| {
            let addr = addr.to_string();
            let stop = stop.clone();
            let pool = pool.to_vec();
            std::thread::spawn(move || {
                let client = ScoreClient::new(addr)
                    .with_timeout(Duration::from_secs(30))
                    .with_connect_timeout(Duration::from_secs(5));
                let mut trace = TrafficTrace::new(seed ^ (c as u64 + 1), pool.len());
                let mut stats = LoadStats::default();
                while !stop.load(Ordering::Relaxed) {
                    let batch: Vec<ScoreItem> =
                        (0..ITEMS_PER_REQUEST).map(|_| pool[trace.draw_item()].clone()).collect();
                    let t0 = Instant::now();
                    match client.score(&batch) {
                        Ok(resp) => {
                            assert_eq!(
                                resp.verdicts.len(),
                                batch.len(),
                                "every submitted item gets a verdict"
                            );
                            stats.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            stats.requests += 1;
                            stats.items += resp.verdicts.len() as u64;
                            if !stats.versions_seen.contains(&resp.model_version) {
                                stats.versions_seen.push(resp.model_version);
                            }
                        }
                        Err(cats_serve::ClientError::Http { status: 429 | 503, .. }) => {
                            stats.rejected += 1;
                        }
                        Err(_) => stats.lost += 1,
                    }
                    // Diurnal shape: back off in the trough, run hot at
                    // the crest.
                    let f = trace.burst_factor();
                    if f < 1.0 {
                        std::thread::sleep(Duration::from_micros((800.0 * (1.0 - f)) as u64));
                    }
                }
                stats
            })
        })
        .collect()
}

fn collect_load(handles: Vec<LoadHandle>) -> LoadStats {
    let mut out = LoadStats::default();
    for h in handles {
        let s = h.join().expect("load client thread");
        out.requests += s.requests;
        out.items += s.items;
        out.lost += s.lost;
        out.rejected += s.rejected;
        out.latencies_ms.extend(s.latencies_ms);
        for v in s.versions_seen {
            if !out.versions_seen.contains(&v) {
                out.versions_seen.push(v);
            }
        }
    }
    out.latencies_ms.sort_by(f64::total_cmp);
    out.versions_seen.sort_unstable();
    out
}

/// Runs a fixed-duration load window against a fresh router over
/// `shards` child processes and returns sustained RPS.
fn measure_rps(exe: &Path, model: &Path, shards: usize, pool: &[ScoreItem], seed: u64) -> f64 {
    let children = spawn_shards(exe, model, shards);
    let addrs: Vec<String> = children.iter().map(|c| c.addr.clone()).collect();
    let router = Router::start(
        addrs,
        RouterConfig {
            initial_artifact: Some(model.display().to_string()),
            ..RouterConfig::default()
        },
    )
    .expect("bind router socket");
    let addr = router.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let handles = spawn_load(&addr, pool, seed, &stop);
    std::thread::sleep(Duration::from_secs_f64(SCALE_SECS));
    stop.store(true, Ordering::Relaxed);
    let stats = collect_load(handles);
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(stats.lost, 0, "scaling window must not lose requests");
    router.shutdown();
    drop(children);
    stats.requests as f64 / elapsed
}

/// Reads a router counter out of the (shared, in-process) registry.
fn counter(snap: &cats_obs::Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn main() {
    maybe_run_shard();
    let args = Args::parse(0.008, 0xC105);
    let platform = setup::d0(args.scale, args.seed);
    println!("== Extension: sharded cluster serving ({} items) ==", platform.items().len());

    println!("training pipeline...");
    let pipeline = setup::train_pipeline(&platform, args.seed);
    let snapshot = pipeline.to_snapshot();
    let dir = ScratchDir::new("cats_cluster");
    let model_v1 = dir.join("model_v1.cats");
    let model_v2 = dir.join("model_v2.cats");
    snapshot.save(&model_v1).expect("write model v1");
    snapshot.save(&model_v2).expect("write model v2");

    let exe = std::env::current_exe().expect("current_exe");
    let pool: Vec<ScoreItem> = platform
        .items()
        .iter()
        .map(|it| ScoreItem {
            item_id: it.id,
            sales_volume: it.sales_volume,
            comments: it.comments.iter().map(|c| c.content.clone()).collect(),
        })
        .collect();

    // ---- Phase A: 1 → 4 shard scaling --------------------------------
    println!("scaling: measuring 1 shard...");
    let rps_1 = measure_rps(&exe, &model_v1, 1, &pool, args.seed);
    println!("scaling: measuring {SHARDS} shards...");
    let rps_4 = measure_rps(&exe, &model_v1, SHARDS, &pool, args.seed);
    let ratio = rps_4 / rps_1.max(1e-9);
    // Hardware-aware floor: a machine with T threads can at best show
    // ~T-way scaling; demand 70% of that, capped at the 2.5× a real
    // 4-core CI runner must clear. (Never below 0.7: even a 1-core box
    // must not get dramatically SLOWER with shards.)
    let floor = (0.7 * cats_par::default_threads() as f64).clamp(0.7, 2.5);
    let scaling_ok = ratio >= floor;
    assert!(
        scaling_ok,
        "1→{SHARDS} shard scaling {ratio:.2}x is below the floor {floor:.2}x \
         ({rps_1:.1} → {rps_4:.1} rps on {} threads)",
        cats_par::default_threads()
    );

    // ---- Phase B: chaos — kill, eject, respawn, re-admit, swap -------
    println!("chaos: {SHARDS} shards under heavy-tail load...");
    let before = cats_obs::global().snapshot();
    let mut children = spawn_shards(&exe, &model_v1, SHARDS);
    let addrs: Vec<String> = children.iter().map(|c| c.addr.clone()).collect();
    let router = Router::start(
        addrs,
        RouterConfig {
            initial_artifact: Some(model_v1.display().to_string()),
            ..RouterConfig::default()
        },
    )
    .expect("bind router socket");
    let addr = router.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let handles = spawn_load(&addr, &pool, args.seed ^ 0xDEAD, &stop);

    // Let the load settle, then murder shard 1 mid-flight.
    std::thread::sleep(Duration::from_millis(500));
    let victim_addr = children[1].addr.clone();
    println!("chaos: SIGKILL shard 1 ({victim_addr})");
    children[1].kill();

    let wait_for_state = |id: usize, want: &str, timeout: Duration| -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            let state = router.shard_states().into_iter().find(|s| s.id == id).map(|s| s.state);
            if state.as_deref() == Some(want) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        false
    };
    assert!(
        wait_for_state(1, "ejected", Duration::from_secs(10)),
        "router never ejected the killed shard"
    );
    println!("chaos: shard 1 ejected; respawning on {victim_addr}");
    let respawn_args =
        vec!["--shard-server".to_string(), model_v1.display().to_string(), victim_addr.clone()];
    children[1] = ShardProcess::spawn(1, &exe, &respawn_args, Duration::from_secs(60))
        .expect("respawn shard 1");
    assert!(
        wait_for_state(1, "live", Duration::from_secs(20)),
        "router never re-admitted the respawned shard"
    );
    println!("chaos: shard 1 re-admitted; rolling swap to v2...");
    let new_version = router.rolling_swap(&model_v2.display().to_string()).expect("rolling swap");
    assert_eq!(new_version, 2, "first swap lands cluster version 2");
    // Keep scoring on the new version for a while.
    std::thread::sleep(Duration::from_millis(600));
    stop.store(true, Ordering::Relaxed);
    let chaos = collect_load(handles);
    let delta = cats_obs::global().snapshot().diff(&before);
    router.shutdown();
    drop(children);

    let ejections = counter(&delta, "cats.serve.router.ejections");
    let readmissions = counter(&delta, "cats.serve.router.readmissions");
    let skew_merges = counter(&delta, "cats.serve.router.skew_merges");
    let retries = counter(&delta, "cats.serve.router.retries");
    let swaps = counter(&delta, "cats.serve.router.swaps");
    let p50 = percentile(&chaos.latencies_ms, 0.50);
    let p95 = percentile(&chaos.latencies_ms, 0.95);

    // The hard invariants this whole PR exists for.
    assert_eq!(chaos.lost, 0, "a shard death must not lose a single response");
    assert_eq!(chaos.rejected, 0, "no backpressure expected at this load");
    assert_eq!(skew_merges, 0, "no response may mix model versions");
    assert!(ejections >= 1, "the killed shard must be ejected");
    assert!(readmissions >= 1, "the respawned shard must be re-admitted");
    assert_eq!(swaps, 1, "exactly one rolling swap");
    assert_eq!(
        chaos.versions_seen,
        vec![1, 2],
        "load must observe exactly versions 1 and 2 (before and after the swap)"
    );

    println!(
        "{}",
        render::table(
            &["Metric", "Value"],
            &[
                vec!["rps 1 shard".into(), format!("{rps_1:.1}")],
                vec![format!("rps {SHARDS} shards"), format!("{rps_4:.1}")],
                vec!["scaling ratio".into(), format!("{ratio:.2}x (floor {floor:.2}x)")],
                vec![
                    "chaos requests / items".into(),
                    format!("{} / {}", chaos.requests, chaos.items)
                ],
                vec![
                    "chaos lost / rejected".into(),
                    format!("{} / {}", chaos.lost, chaos.rejected)
                ],
                vec!["failover retries".into(), retries.to_string()],
                vec!["ejections / readmissions".into(), format!("{ejections} / {readmissions}")],
                vec!["skew merges".into(), skew_merges.to_string()],
                vec![
                    "swaps / versions seen".into(),
                    format!("{swaps} / {:?}", chaos.versions_seen)
                ],
                vec!["chaos p50 / p95 (ms)".into(), format!("{p50:.2} / {p95:.2}")],
            ],
        )
    );
}
