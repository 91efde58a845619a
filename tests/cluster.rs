//! Integration: the sharded cluster layer — a [`cats::serve::Router`]
//! consistent-hashing items over several shard servers, failing over
//! past dead shards, ejecting and re-admitting them, and rolling model
//! swaps with no version-skewed response.
//!
//! Shards here are in-process [`cats::serve::Server`]s (the router only
//! sees addresses, so process boundaries are irrelevant to routing
//! semantics); the subprocess plumbing is exercised by `exp_cluster`
//! and the `shard` module's own tests.

use cats::core::pipeline::PipelineSnapshot;
use cats::core::semantic::SemanticConfig;
use cats::core::{CatsPipeline, DetectorConfig, ItemComments, SemanticAnalyzer};
use cats::embedding::{ExpansionConfig, Word2VecConfig};
use cats::ml::gbt::{GbtConfig, GradientBoostedTrees};
use cats::ml::{Classifier, Dataset};
use cats::platform::comment_model::{generate_comment, CommentStyle};
use cats::platform::datasets;
use cats::serve::wire::filter_str;
use cats::serve::{
    ChaosRng, HealthConfig, ModelSlot, Router, RouterConfig, ScoreClient, ScoreItem, ScoreRequest,
    ScoreResponse, ServeConfig, Server,
};
use rand::{rngs::StdRng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One-time expensive setup: a trained snapshot, scoring items and
/// their expected offline verdicts (same recipe as tests/serve.rs).
struct Setup {
    snapshot: Vec<u8>,
    items: Vec<ScoreItem>,
    expected: Vec<cats::core::DetectionReport>,
}

fn setup() -> &'static Setup {
    static S: OnceLock<Setup> = OnceLock::new();
    S.get_or_init(|| {
        let train = datasets::d0(0.003, 91);
        let corpus: Vec<&str> = train
            .items()
            .iter()
            .flat_map(|i| i.comments.iter().map(|c| c.content.as_str()))
            .collect();
        let mut rng = StdRng::seed_from_u64(91);
        let pos: Vec<String> = (0..300)
            .map(|_| generate_comment(train.lexicon(), CommentStyle::OrganicPositive, &mut rng))
            .collect();
        let neg: Vec<String> = (0..300)
            .map(|_| generate_comment(train.lexicon(), CommentStyle::OrganicNegative, &mut rng))
            .collect();
        let analyzer = SemanticAnalyzer::train(
            &corpus,
            &train.lexicon().positive_seeds(),
            &train.lexicon().negative_seeds(),
            &pos.iter().map(String::as_str).collect::<Vec<_>>(),
            &neg.iter().map(String::as_str).collect::<Vec<_>>(),
            SemanticConfig {
                word2vec: Word2VecConfig { dim: 24, epochs: 2, ..Word2VecConfig::default() },
                expansion: ExpansionConfig::default(),
                ..SemanticConfig::default()
            },
        );
        let train_items: Vec<ItemComments> = train
            .items()
            .iter()
            .map(|i| ItemComments::from_texts(i.comments.iter().map(|c| c.content.as_str())))
            .collect();
        let labels: Vec<u8> = train.items().iter().map(|i| u8::from(i.label.is_fraud())).collect();
        let rows = cats::core::features::extract_batch(&train_items, &analyzer, 0);
        let mut data = Dataset::new(cats::core::N_FEATURES);
        for (r, &l) in rows.iter().zip(&labels) {
            data.push(r.as_slice(), l);
        }
        let mut gbt = GradientBoostedTrees::new(GbtConfig::default());
        gbt.fit(&data);
        let snapshot = CatsPipeline::snapshot(analyzer, DetectorConfig::default(), gbt)
            .to_io2_bytes()
            .expect("snapshot encodes");

        let target = datasets::d0(0.003, 92);
        let items: Vec<ScoreItem> = target
            .items()
            .iter()
            .map(|it| ScoreItem {
                item_id: it.id,
                sales_volume: it.sales_volume,
                comments: it.comments.iter().map(|c| c.content.clone()).collect(),
            })
            .collect();
        let ics: Vec<ItemComments> = items
            .iter()
            .map(|i| ItemComments::from_texts(i.comments.iter().map(String::as_str)))
            .collect();
        let sales: Vec<u64> = items.iter().map(|i| i.sales_volume).collect();
        let expected = restore(&snapshot).detect(&ics, &sales);
        Setup { snapshot, items, expected }
    })
}

fn restore(bytes: &[u8]) -> CatsPipeline {
    CatsPipeline::restore(PipelineSnapshot::from_bytes(bytes).expect("snapshot decodes"))
}

/// Starts `n` in-process shard servers on OS-assigned ports.
fn start_shards(n: usize) -> Vec<Server> {
    (0..n)
        .map(|_| {
            let slot = Arc::new(ModelSlot::new(restore(&setup().snapshot)));
            Server::start(
                slot,
                ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() },
            )
            .expect("bind shard server")
        })
        .collect()
}

/// A router over `shards` with a fast probe cadence so ejection /
/// re-admission land within test timeouts.
fn start_router(shards: &[Server]) -> Router {
    Router::start(
        shards.iter().map(|s| s.addr().to_string()).collect(),
        RouterConfig {
            health: HealthConfig {
                eject_after: 2,
                readmit_after: 2,
                probe_interval: Duration::from_millis(25),
                probe_timeout: Duration::from_millis(250),
            },
            shard_connect_timeout: Duration::from_millis(250),
            ..RouterConfig::default()
        },
    )
    .expect("start router")
}

fn wait_for_state(router: &Router, id: usize, want: &str, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if router.shard_states().iter().any(|s| s.id == id && s.state == want) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn assert_matches_expected(verdicts: &[cats::serve::ScoreVerdict], offset: usize) {
    let s = setup();
    for (k, v) in verdicts.iter().enumerate() {
        let exp = &s.expected[offset + k];
        assert_eq!(v.item_id, s.items[offset + k].item_id);
        assert_eq!(
            v.score.to_bits(),
            exp.score.to_bits(),
            "item {} routed through the cluster must score bit-identically to offline detect",
            v.item_id
        );
        assert_eq!(v.is_fraud, exp.is_fraud);
    }
}

#[test]
fn routed_scores_are_bit_identical_to_offline_detect() {
    let shards = start_shards(3);
    let router = start_router(&shards);
    let client = ScoreClient::new(router.addr().to_string());
    let s = setup();
    // Chunked so single requests span multiple shards via the ring.
    for (ci, chunk) in s.items.chunks(16).enumerate() {
        let offset = ci * 16;
        let resp = client.score(chunk).expect("routed score succeeds");
        assert_eq!(resp.model_version, 1, "whole cluster serves version 1");
        assert_eq!(resp.verdicts.len(), chunk.len());
        assert_matches_expected(&resp.verdicts, offset);
    }
    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// Sends one raw `POST /v1/score` and returns the status and body.
fn post_score(addr: SocketAddr, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /v1/score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status = raw.get(9..12).and_then(|s| s.parse().ok()).expect("status line");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn routed_generated_requests_match_offline_detect_bit_for_bit() {
    // Generated requests: items drawn with repeats (duplicates within a
    // request), some comment lists emptied, and comments that must be
    // escaped, raw non-ASCII, or written with `\u` escapes, so the router
    // forwards both verbatim and re-escaped comments.
    const EXTRA: [&str; 4] =
        ["quote \" back \\ slash / end", "tab\tnl\n控制\u{1}字符", "😀 é ✓ hao0", ""];
    let shards = start_shards(2);
    let router = start_router(&shards);
    let s = setup();
    let offline = restore(&s.snapshot);
    let mut rng = ChaosRng::new(0xD1FF);
    for r in 0..12 {
        let n = 1 + rng.below(40) as usize;
        let mut items: Vec<ScoreItem> = Vec::with_capacity(n);
        for _ in 0..n {
            if !items.is_empty() && rng.chance(0.2) {
                let again = items[rng.below(items.len() as u64) as usize].clone();
                items.push(again);
                continue;
            }
            let mut item = s.items[rng.below(s.items.len() as u64) as usize].clone();
            if rng.chance(0.1) {
                item.comments.clear();
            }
            for c in item.comments.iter_mut() {
                if rng.chance(0.3) {
                    c.push(' ');
                    c.push_str(EXTRA[rng.below(EXTRA.len() as u64) as usize]);
                }
            }
            items.push(item);
        }
        let mut body = if r % 2 == 0 {
            serde_json::to_string(&items).expect("encode")
        } else {
            serde_json::to_string(&ScoreRequest { items: items.clone(), pin_version: None })
                .expect("encode")
        };
        if r % 3 == 0 {
            body = body.replace('é', "\\u00e9").replace('😀', "\\ud83d\\ude00");
        }
        let (status, answer) = post_score(router.addr(), &body);
        assert_eq!(status, 200, "request {r}: {answer}");
        let resp: ScoreResponse = serde_json::from_str(&answer).expect("score response");
        let ics: Vec<ItemComments> = items
            .iter()
            .map(|i| ItemComments::from_texts(i.comments.iter().map(String::as_str)))
            .collect();
        let sales: Vec<u64> = items.iter().map(|i| i.sales_volume).collect();
        let expected = offline.detect(&ics, &sales);
        assert_eq!(resp.verdicts.len(), items.len(), "request {r}");
        for ((v, item), exp) in resp.verdicts.iter().zip(&items).zip(&expected) {
            assert_eq!(v.item_id, item.item_id, "request {r}: verdict order");
            assert_eq!(v.score.to_bits(), exp.score.to_bits(), "request {r}, item {}", v.item_id);
            assert_eq!(v.is_fraud, exp.is_fraud, "request {r}, item {}", v.item_id);
            assert_eq!(v.filter, filter_str(exp.filter), "request {r}, item {}", v.item_id);
        }
    }
    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

#[test]
fn shard_death_fails_over_without_losing_requests_then_ejects() {
    let mut shards = start_shards(2);
    let router = start_router(&shards);
    let client = ScoreClient::new(router.addr().to_string());
    let s = setup();

    // Kill shard 1 (listener closed, connections refused).
    shards.remove(1).shutdown();

    // Every request must still be answered — items that hash to the
    // dead shard are replayed on the next live shard by the router.
    for (ci, chunk) in s.items.chunks(8).take(6).enumerate() {
        let offset = ci * 8;
        let resp = client.score(chunk).expect("failover must answer every request");
        assert_eq!(resp.verdicts.len(), chunk.len());
        assert_matches_expected(&resp.verdicts, offset);
    }
    assert!(
        wait_for_state(&router, 1, "ejected", Duration::from_secs(10)),
        "dead shard must be ejected: {:?}",
        router.shard_states()
    );
    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

#[test]
fn dead_shard_is_readmitted_after_coming_back() {
    let mut shards = start_shards(2);
    let router = start_router(&shards);
    let victim_addr = shards[1].addr().to_string();
    shards.remove(1).shutdown();
    assert!(
        wait_for_state(&router, 1, "ejected", Duration::from_secs(10)),
        "dead shard must be ejected first"
    );

    // Bring a fresh shard back on the SAME address (retry briefly: the
    // old listener may linger an instant after shutdown).
    let slot = Arc::new(ModelSlot::new(restore(&setup().snapshot)));
    let deadline = Instant::now() + Duration::from_secs(10);
    let revived = loop {
        match Server::start(
            slot.clone(),
            ServeConfig { addr: victim_addr.clone(), ..ServeConfig::default() },
        ) {
            Ok(server) => break server,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("rebind {victim_addr}: {e}"),
        }
    };
    assert!(
        wait_for_state(&router, 1, "live", Duration::from_secs(10)),
        "revived shard must be re-admitted: {:?}",
        router.shard_states()
    );
    // And it serves routed traffic again.
    let client = ScoreClient::new(router.addr().to_string());
    let resp = client.score(&setup().items[..8]).expect("score after re-admission");
    assert_eq!(resp.verdicts.len(), 8);
    router.shutdown();
    revived.shutdown();
    for s in shards {
        s.shutdown();
    }
}

#[test]
fn rolling_swap_is_coordinated_and_single_version_under_load() {
    let shards = start_shards(3);
    let router = start_router(&shards);
    let addr = router.addr().to_string();
    let s = setup();

    // Persist the snapshot as a CATS-IO2 artifact: the swapped-in model
    // must keep producing verdicts bit-identical to the offline
    // expectations restored from the same bytes.
    let dir = cats::io::ScratchDir::new("cats_cluster_test");
    let artifact = dir.join("model_v2.cats");
    std::fs::write(&artifact, &s.snapshot).expect("write IO2 artifact");

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let addr = addr.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let s = setup();
                let client = ScoreClient::new(addr);
                let mut versions: Vec<u64> = Vec::new();
                let mut offset = c * 11;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let lo = offset % s.items.len().saturating_sub(8).max(1);
                    let resp = client
                        .score(&s.items[lo..lo + 8])
                        .expect("no request may fail during a rolling swap");
                    // Bit-identical scores prove the batch was scored by
                    // ONE coherent model — v1 and v2 restore identically,
                    // a half-swapped mix would not.
                    assert_matches_expected(&resp.verdicts, lo);
                    if !versions.contains(&resp.model_version) {
                        versions.push(resp.model_version);
                    }
                    offset += 5;
                }
                versions
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(200));
    let v = router.rolling_swap(&artifact.display().to_string()).expect("rolling swap");
    assert_eq!(v, 2);
    assert_eq!(router.cluster_version(), 2);
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut seen: Vec<u64> = Vec::new();
    for h in clients {
        for v in h.join().expect("client thread") {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![1, 2], "load spans the swap and sees exactly v1 then v2");

    // After the swap, every shard reports the new version.
    let client = ScoreClient::new(addr);
    let resp = client.score(&s.items[..4]).expect("post-swap score");
    assert_eq!(resp.model_version, 2);
    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

#[test]
fn pinned_requests_resolve_old_generation_until_it_ages_out() {
    let shards = start_shards(2);
    let router = start_router(&shards);
    let client = ScoreClient::new(router.addr().to_string());
    let s = setup();

    let dir = cats::io::ScratchDir::new("cats_cluster_pin");
    let artifact = dir.join("model.cats");
    std::fs::write(&artifact, &s.snapshot).expect("write artifact");

    assert_eq!(router.rolling_swap(&artifact.display().to_string()).expect("swap to v2"), 2);
    // v1 is one generation back: a client pin still resolves it.
    let resp = client.score_pinned(&s.items[..4], 1).expect("pin v1 resolves via previous slot");
    assert_eq!(resp.model_version, 1);

    assert_eq!(router.rolling_swap(&artifact.display().to_string()).expect("swap to v3"), 3);
    // v1 is now two generations back — evicted everywhere; the router
    // must forward the shard's 409 instead of silently rescoring on a
    // different version.
    let err = client.score_pinned(&s.items[..4], 1).expect_err("pin v1 is gone after two swaps");
    match err {
        cats::serve::ClientError::Http { status, .. } => assert_eq!(status, 409),
        other => panic!("expected HTTP 409, got {other}"),
    }
    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

#[test]
fn cluster_metrics_are_labeled_and_merged() {
    let shards = start_shards(2);
    let router = start_router(&shards);
    let client = ScoreClient::new(router.addr().to_string());
    let _ = client.score(&setup().items[..4]).expect("score once");

    let text = client.metrics().expect("router /metrics");
    for label in ["shard=\"router\"", "shard=\"0\"", "shard=\"1\"", "shard=\"cluster\""] {
        assert!(text.contains(label), "missing {label} section in router /metrics");
    }
    // The merged section must carry shard-side series (the shards score
    // requests, the router does not).
    assert!(
        text.contains("cats_serve_requests"),
        "merged metrics must include shard request counters"
    );
    // And the JSON aggregate parses back into a snapshot.
    let snap = client.metrics_snapshot().expect("router /metrics.json").into_snapshot();
    assert!(
        snap.counters.keys().any(|k| k.starts_with("cats.serve.")),
        "merged snapshot carries serve counters: {:?}",
        snap.counters.keys().take(5).collect::<Vec<_>>()
    );
    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}
