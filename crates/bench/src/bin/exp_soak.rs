//! Robustness — soak test under deterministic chaos injection.
//!
//! The serving stack claims crash-safety end to end: checksummed
//! atomic snapshots, a last-good mirror, supervised batch workers, and
//! checkpoint/resume training (DESIGN.md §10). This experiment attacks
//! every one of those claims at once with a seeded [`ChaosPlan`]:
//! slow-loris clients, mid-body disconnects, torn snapshot rewrites
//! under the live model watcher, injected scoring-worker panics, and a
//! final kill-and-restart that must come back up from the last-good
//! mirror. Separately, a training run is killed mid-checkpoint and
//! resumed; the resumed model must match an uninterrupted run bit for
//! bit.
//!
//! The fault *sequence* is a pure function of `--seed`, so a failure
//! reproduces exactly. Hard invariants, asserted here:
//!
//! * zero lost responses (sockets that died without an HTTP answer);
//! * zero torn responses (2xx bodies that failed to parse, or verdict
//!   counts that disagree with the submitted batch);
//! * every worker panic is matched by a respawn, and panics never
//!   exceed the injected count (no panic storms);
//! * the kill-resumed training run is bit-identical to uninterrupted;
//! * the restart after a torn primary serves from the mirror.

use cats_bench::{render, setup, Args, ScratchDir};
use cats_core::pipeline::LabeledItem;
use cats_core::{CatsPipeline, ItemComments};
use cats_io::CheckpointStore;
use cats_serve::chaos;
use cats_serve::{
    ChaosPlan, ChaosRng, Fault, ModelSlot, ModelWatcher, ScoreClient, ScoreItem, ServeConfig,
    Server,
};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent client threads during the chaos soak.
const CLIENTS: usize = 4;
/// Items per scoring request.
const ITEMS_PER_REQUEST: usize = 8;
/// Chaos ticks; each tick draws at most one fault from the plan.
const TICKS: usize = 400;
/// Pause between chaos ticks.
const TICK: Duration = Duration::from_millis(5);
/// How long a torn snapshot is left on disk before the valid bytes are
/// restored — long enough for the 20ms watcher to observe the tear.
const TORN_WINDOW: Duration = Duration::from_millis(60);
/// Longest wait for the watcher to read a restored snapshot before the
/// next fault may fire; a restore it never reads fails the reload
/// assertion below.
const RESTORE_WAIT: Duration = Duration::from_secs(2);
/// Labeled reviews per polarity for the resume phase (small: the phase
/// trains twice and only determinism matters, not model quality).
const RESUME_SENTIMENT_REVIEWS: usize = 400;

/// Kill/resume bit-identity: train once uninterrupted, once with a
/// simulated `kill -9` after the second checkpoint save, resume, and
/// compare detection scores bitwise.
fn resume_phase(scale: f64, seed: u64, ckpt_root: &Path) -> bool {
    let platform = setup::d0(scale, seed ^ 0x11);
    let corpus: Vec<&str> = platform
        .items()
        .iter()
        .flat_map(|i| i.comments.iter().map(|c| c.content.as_str()))
        .take(setup::MAX_W2V_COMMENTS)
        .collect();
    let (sent_pos, sent_neg) =
        setup::sentiment_corpus(platform.lexicon(), RESUME_SENTIMENT_REVIEWS, seed);
    let sp: Vec<&str> = sent_pos.iter().map(String::as_str).collect();
    let sn: Vec<&str> = sent_neg.iter().map(String::as_str).collect();
    let labeled: Vec<LabeledItem> = platform
        .items()
        .iter()
        .map(|it| LabeledItem { comments: setup::item_comments(it), label: setup::item_label(it) })
        .collect();
    let pos_seeds = platform.lexicon().positive_seeds();
    let neg_seeds = platform.lexicon().negative_seeds();
    let train = |store: &CheckpointStore| {
        CatsPipeline::train_resumable(
            &corpus,
            &pos_seeds,
            &neg_seeds,
            &sp,
            &sn,
            &labeled,
            setup::pipeline_config(),
            store,
        )
    };

    let store_a = CheckpointStore::open(ckpt_root.join("resume_a")).expect("open store A");
    let uninterrupted = train(&store_a);

    let dir_b = ckpt_root.join("resume_b");
    let store_b = CheckpointStore::open(&dir_b).expect("open store B");
    store_b.kill_after_saves(2);
    let killed = catch_unwind(AssertUnwindSafe(|| train(&store_b)));
    assert!(killed.is_err(), "armed kill switch must abort the first training run");
    // "Restart the process": a fresh store over the same directory picks
    // up whatever checkpoints the killed run left behind.
    let store_b = CheckpointStore::open(&dir_b).expect("reopen store B");
    let resumed = train(&store_b);

    let probe: Vec<ItemComments> =
        platform.items().iter().take(64).map(setup::item_comments).collect();
    let sales: Vec<u64> = platform.items().iter().take(64).map(|i| i.sales_volume).collect();
    let a = uninterrupted.detect(&probe, &sales);
    let b = resumed.detect(&probe, &sales);
    a.len() == b.len()
        && a.iter()
            .zip(&b)
            .all(|(x, y)| x.score.to_bits() == y.score.to_bits() && x.is_fraud == y.is_fraud)
}

/// Outcome of the chaos-soak load.
#[derive(Default)]
struct SoakTally {
    requests: u64,
    ok: u64,
    /// Socket died without an HTTP answer — never acceptable.
    lost: u64,
    /// 2xx that failed to parse, or a verdict count that disagrees with
    /// the submitted batch — never acceptable.
    torn: u64,
    /// Typed 429/503 backpressure.
    rejected: u64,
    /// Typed 500 (a batch died with an injected worker panic).
    internal_500: u64,
    /// Any other non-2xx status — unexpected, reported and gated.
    other_http: u64,
    versions_seen: Vec<u64>,
    elapsed_s: f64,
}

/// Per-family injected fault counts (the deterministic plan's output).
#[derive(Default)]
struct Injected {
    slow_loris: u64,
    mid_body: u64,
    torn_rewrite: u64,
    worker_panic: u64,
}

/// Runs the scoring load from [`CLIENTS`] threads until `stop` flips.
fn spawn_load(
    addr: String,
    pool: &[ScoreItem],
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<SoakTally>> {
    (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            let stop = stop.clone();
            let pool = pool.to_vec();
            std::thread::spawn(move || {
                let client = ScoreClient::new(addr).with_timeout(Duration::from_secs(30));
                let mut t = SoakTally::default();
                let mut cursor = c * ITEMS_PER_REQUEST;
                while !stop.load(Ordering::Relaxed) {
                    let batch: Vec<ScoreItem> = (0..ITEMS_PER_REQUEST)
                        .map(|k| pool[(cursor + k) % pool.len()].clone())
                        .collect();
                    cursor = (cursor + ITEMS_PER_REQUEST) % pool.len();
                    t.requests += 1;
                    match client.score(&batch) {
                        Ok(resp) => {
                            if resp.verdicts.len() == batch.len() {
                                t.ok += 1;
                            } else {
                                t.torn += 1;
                            }
                            if !t.versions_seen.contains(&resp.model_version) {
                                t.versions_seen.push(resp.model_version);
                            }
                        }
                        Err(cats_serve::ClientError::Parse(_)) => t.torn += 1,
                        Err(cats_serve::ClientError::Http { status: 429 | 503, .. }) => {
                            t.rejected += 1;
                        }
                        Err(cats_serve::ClientError::Http { status: 500, .. }) => {
                            t.internal_500 += 1;
                        }
                        Err(cats_serve::ClientError::Http { .. }) => t.other_http += 1,
                        Err(
                            cats_serve::ClientError::Io(_)
                            | cats_serve::ClientError::TimedOut(_)
                            | cats_serve::ClientError::Disconnected(_),
                        ) => t.lost += 1,
                    }
                }
                t
            })
        })
        .collect()
}

/// Executes one fault against the live stack and books it.
fn fire(
    fault: Fault,
    addr: SocketAddr,
    server: &Server,
    primary: &Path,
    valid_bytes: &[u8],
    rng: &mut ChaosRng,
    injected: &mut Injected,
) {
    match fault {
        Fault::SlowLoris => {
            injected.slow_loris += 1;
            let _ = chaos::send_slow_loris(addr, 16);
        }
        Fault::MidBodyDisconnect => {
            injected.mid_body += 1;
            let _ = chaos::send_mid_body_disconnect(addr);
        }
        Fault::TornRewrite => {
            injected.torn_rewrite += 1;
            // Non-atomic partial overwrite, left in place long enough
            // for the watcher to read it, then the valid bytes return
            // atomically. The watcher must reject the tear, keep the
            // in-memory model serving, and swap the restore back in.
            let _ = chaos::torn_rewrite(primary, valid_bytes, rng);
            std::thread::sleep(TORN_WINDOW);
            // The next fault waits until the watcher has read the
            // restore: a tear landing within one poll interval would
            // otherwise overwrite it unseen.
            let reloads = cats_obs::counter("cats.serve.model.reloads");
            let before = reloads.get();
            cats_io::atomic_write(primary, valid_bytes).expect("restore primary snapshot");
            let deadline = Instant::now() + RESTORE_WAIT;
            while reloads.get() == before && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Fault::WorkerPanic => {
            injected.worker_panic += 1;
            server.inject_worker_panic(1);
        }
    }
}

fn main() {
    let args = Args::parse(0.01, 0x50AC);
    let ckpt_root = ScratchDir::new("cats_soak");

    // Phase 1: checkpoint/resume bit-identity (trains twice; a smaller
    // platform keeps the doubled cost in check).
    println!("== Robustness soak ==");
    println!("phase 1: kill/resume training bit-identity...");
    let resume_bit_identical = resume_phase((args.scale * 0.4).max(0.002), args.seed, &ckpt_root);
    assert!(resume_bit_identical, "kill-resumed training must be bit-identical to uninterrupted");
    println!("phase 1: resumed run bit-identical to uninterrupted run");

    // Phase 2: chaos soak against a live server + hot-swap watcher.
    let platform = setup::d0(args.scale, args.seed);
    println!("phase 2: training serving pipeline ({} items)...", platform.items().len());
    let pipeline = setup::train_pipeline(&platform, args.seed);
    let pool: Vec<ScoreItem> = platform
        .items()
        .iter()
        .map(|it| ScoreItem {
            item_id: it.id,
            sales_volume: it.sales_volume,
            comments: it.comments.iter().map(|c| c.content.clone()).collect(),
        })
        .collect();

    let primary = ckpt_root.join("model.snapshot");
    let mirror = ckpt_root.join("last_good.snapshot");
    pipeline.to_snapshot().save(&primary).expect("write primary snapshot");
    let valid_bytes = std::fs::read(&primary).expect("read primary snapshot bytes");

    let slot = Arc::new(ModelSlot::new(
        cats_serve::load_pipeline_file(&primary).expect("load primary snapshot"),
    ));
    let server = Server::start(
        slot.clone(),
        ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() },
    )
    .expect("bind soak socket");
    let sock_addr = server.addr();
    let addr = sock_addr.to_string();
    let watcher = ModelWatcher::spawn_with_checkpoint(
        slot.clone(),
        primary.clone(),
        Duration::from_millis(20),
        Some(mirror.clone()),
    );

    let panics0 = cats_obs::counter("cats.serve.batch.worker_panics").get();
    let respawns0 = cats_obs::counter("cats.serve.batch.worker_respawns").get();
    let reloads0 = cats_obs::counter("cats.serve.model.reloads").get();
    let reload_errors0 = cats_obs::counter("cats.serve.model.reload_errors").get();

    println!(
        "phase 2: soaking {addr} for {TICKS} chaos ticks ({CLIENTS} clients x {ITEMS_PER_REQUEST} items/request, seed {:#x})",
        args.seed
    );
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let handles = spawn_load(addr, &pool, &stop);

    let plan = ChaosPlan { seed: args.seed, ..ChaosPlan::default() };
    let mut rng = plan.rng();
    let mut injected = Injected::default();
    for tick in 0..TICKS {
        // Deterministic floor: every fault family fires at least once,
        // early, regardless of what the probabilistic draws produce.
        let forced = match tick {
            2 => Some(Fault::SlowLoris),
            4 => Some(Fault::MidBodyDisconnect),
            6 => Some(Fault::TornRewrite),
            8 => Some(Fault::WorkerPanic),
            _ => None,
        };
        if let Some(fault) = forced.or_else(|| plan.draw(&mut rng)) {
            fire(fault, sock_addr, &server, &primary, &valid_bytes, &mut rng, &mut injected);
        }
        std::thread::sleep(TICK);
    }
    // Settle: leave the primary valid, give the watcher and any
    // outstanding panic tokens time to drain while load still flows.
    cats_io::atomic_write(&primary, &valid_bytes).expect("final snapshot restore");
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);
    let mut tally = SoakTally::default();
    for h in handles {
        let t = h.join().expect("client thread");
        tally.requests += t.requests;
        tally.ok += t.ok;
        tally.lost += t.lost;
        tally.torn += t.torn;
        tally.rejected += t.rejected;
        tally.internal_500 += t.internal_500;
        tally.other_http += t.other_http;
        for v in t.versions_seen {
            if !tally.versions_seen.contains(&v) {
                tally.versions_seen.push(v);
            }
        }
    }
    tally.elapsed_s = started.elapsed().as_secs_f64();
    tally.versions_seen.sort_unstable();

    let worker_panics = cats_obs::counter("cats.serve.batch.worker_panics").get() - panics0;
    let worker_respawns = cats_obs::counter("cats.serve.batch.worker_respawns").get() - respawns0;
    let reloads = cats_obs::counter("cats.serve.model.reloads").get() - reloads0;
    let reload_errors = cats_obs::counter("cats.serve.model.reload_errors").get() - reload_errors0;

    // The robustness invariants.
    assert!(tally.ok > 0, "soak must score something");
    assert_eq!(tally.lost, 0, "chaos soak lost {} responses (want 0)", tally.lost);
    assert_eq!(tally.torn, 0, "chaos soak returned {} torn responses (want 0)", tally.torn);
    assert_eq!(tally.other_http, 0, "unexpected HTTP statuses: {}", tally.other_http);
    let respawn_bound_ok =
        worker_respawns == worker_panics && worker_panics <= injected.worker_panic;
    assert!(
        respawn_bound_ok,
        "respawns must match panics and panics must stay within the injected budget: \
         panics {worker_panics}, respawns {worker_respawns}, injected {}",
        injected.worker_panic
    );
    assert!(
        reload_errors >= injected.torn_rewrite,
        "every torn rewrite must be observed and rejected: {} tears, {} reload errors",
        injected.torn_rewrite,
        reload_errors
    );
    assert!(
        reloads >= injected.torn_rewrite,
        "every restore after a tear must swap back in: {} tears, {} reloads",
        injected.torn_rewrite,
        reloads
    );
    assert!(mirror.exists(), "watcher must maintain the last-good mirror");
    cats_serve::load_pipeline_file(&mirror).expect("last-good mirror stays loadable");

    // Phase 3: kill-and-restart. The "crash" leaves a torn primary; the
    // restart must refuse it and come back up from the mirror.
    println!("phase 3: kill-and-restart from the last-good mirror...");
    watcher.stop();
    server.shutdown();
    let mut crash_rng = ChaosRng::new(args.seed ^ 0xDEAD);
    chaos::torn_rewrite(&primary, &valid_bytes, &mut crash_rng).expect("tear primary");
    assert!(
        cats_serve::load_pipeline_file(&primary).is_err(),
        "torn primary must be rejected at restart"
    );
    let restored = cats_serve::load_pipeline_file(&mirror).expect("mirror restores the model");
    let server2 = Server::start(
        Arc::new(ModelSlot::new(restored)),
        ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() },
    )
    .expect("bind restart socket");
    let probe_batch: Vec<ScoreItem> = pool.iter().take(ITEMS_PER_REQUEST).cloned().collect();
    let client = ScoreClient::new(server2.addr().to_string()).with_timeout(Duration::from_secs(30));
    let resp = client.score(&probe_batch).expect("restarted server answers");
    let restart_ok = resp.verdicts.len() == probe_batch.len();
    assert!(restart_ok, "restarted server must score a full batch");
    server2.shutdown();

    let sustained_rps = tally.requests as f64 / tally.elapsed_s;
    println!(
        "{}",
        render::table(
            &["Metric", "Value"],
            &[
                vec!["requests".into(), tally.requests.to_string()],
                vec!["ok".into(), tally.ok.to_string()],
                vec!["lost".into(), tally.lost.to_string()],
                vec!["torn".into(), tally.torn.to_string()],
                vec!["rejected (429/503)".into(), tally.rejected.to_string()],
                vec!["internal 500".into(), tally.internal_500.to_string()],
                vec!["other HTTP".into(), tally.other_http.to_string()],
                vec!["duration (s)".into(), format!("{:.2}", tally.elapsed_s)],
                vec!["sustained rps".into(), format!("{sustained_rps:.1}")],
                vec!["versions seen".into(), format!("{:?}", tally.versions_seen)],
                vec![
                    "faults (loris/mid/tear/panic)".into(),
                    format!(
                        "{}/{}/{}/{}",
                        injected.slow_loris,
                        injected.mid_body,
                        injected.torn_rewrite,
                        injected.worker_panic
                    ),
                ],
                vec!["panics/respawns".into(), format!("{worker_panics}/{worker_respawns}"),],
                vec!["reloads/reload errors".into(), format!("{reloads}/{reload_errors}"),],
            ],
        )
    );
    println!(
        "soak ok: 0 lost, 0 torn across {} requests; resume bit-identical; restart from mirror ok",
        tally.requests
    );
}
