//! Integration: the online detection service end to end — concurrent
//! clients over real sockets, model hot-swap under load, and typed
//! backpressure. The serving path must agree bit-for-bit with offline
//! [`CatsPipeline::detect`]: the server is a deployment surface, not a
//! second implementation of the model.

use cats::core::pipeline::PipelineSnapshot;
use cats::core::semantic::SemanticConfig;
use cats::core::StreamVerdict;
use cats::core::{CatsPipeline, DetectorConfig, ItemComments, SemanticAnalyzer};
use cats::embedding::{ExpansionConfig, Word2VecConfig};
use cats::ml::gbt::{GbtConfig, GradientBoostedTrees};
use cats::ml::{Classifier, Dataset};
use cats::platform::comment_model::{generate_comment, CommentStyle};
use cats::platform::datasets;
use cats::platform::{TemporalTrace, TraceConfig};
use cats::serve::{
    BatchConfig, ClientError, IngestEvent, IngestResponse, ModelSlot, Router, RouterConfig,
    ScoreClient, ScoreItem, ServeConfig, Server,
};
use cats::stream::{CommentEvent, StreamEngine};
use rand::{rngs::StdRng, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Expensive one-time setup shared by every test in this binary: a
/// trained snapshot (restored per-test — restores are cheap) plus the
/// scoring items and their expected offline verdicts.
struct Setup {
    snapshot: Vec<u8>,
    items: Vec<ScoreItem>,
    expected: Vec<cats::core::DetectionReport>,
}

fn setup() -> &'static Setup {
    static S: OnceLock<Setup> = OnceLock::new();
    S.get_or_init(|| {
        let train = datasets::d0(0.003, 81);
        let corpus: Vec<&str> = train
            .items()
            .iter()
            .flat_map(|i| i.comments.iter().map(|c| c.content.as_str()))
            .collect();
        let mut rng = StdRng::seed_from_u64(81);
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

        // Score a different platform, like a real deployment would.
        let target = datasets::d0(0.003, 82);
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
        assert_eq!(expected.len(), items.len());
        Setup { snapshot, items, expected }
    })
}

fn restore(bytes: &[u8]) -> CatsPipeline {
    CatsPipeline::restore(PipelineSnapshot::from_bytes(bytes).expect("snapshot decodes"))
}

fn start(batch: BatchConfig) -> (Server, Arc<ModelSlot>) {
    let slot = Arc::new(ModelSlot::new(restore(&setup().snapshot)));
    let server = Server::start(
        slot.clone(),
        ServeConfig { addr: "127.0.0.1:0".into(), batch, ..ServeConfig::default() },
    )
    .expect("bind test server");
    (server, slot)
}

/// Asserts a server response against the offline expectation for the
/// item slice starting at `offset`.
fn assert_matches_expected(verdicts: &[cats::serve::ScoreVerdict], offset: usize) {
    let s = setup();
    for (k, v) in verdicts.iter().enumerate() {
        let exp = &s.expected[offset + k];
        assert_eq!(v.item_id, s.items[offset + k].item_id);
        assert_eq!(
            v.score.to_bits(),
            exp.score.to_bits(),
            "item {} must score bit-identically to offline detect",
            v.item_id
        );
        assert_eq!(v.is_fraud, exp.is_fraud);
        assert_eq!(v.filter, cats::serve::wire::filter_str(exp.filter));
    }
}

#[test]
fn concurrent_clients_get_bit_identical_scores() {
    let (server, _slot) = start(BatchConfig::default());
    let addr = server.addr().to_string();
    let n = setup().items.len();
    let chunk = n.div_ceil(4).max(1);
    let handles: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let s = setup();
                let lo = (c * chunk).min(n);
                let hi = ((c + 1) * chunk).min(n);
                let client = ScoreClient::new(addr);
                let resp = client.score(&s.items[lo..hi]).expect("score succeeds");
                assert_eq!(resp.verdicts.len(), hi - lo);
                assert_matches_expected(&resp.verdicts, lo);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown();
}

#[test]
fn a_request_over_the_batch_cap_is_answered_like_offline_detect() {
    // 200 items on the default config (64-item batches): four parts,
    // shared by both workers and reassembled in submission order. The
    // setup has fewer items, so the request runs through them and then
    // starts over.
    let (server, _slot) = start(BatchConfig::default());
    let s = setup();
    let items: Vec<ScoreItem> = s.items.iter().cycle().take(200).cloned().collect();
    let resp = ScoreClient::new(server.addr().to_string()).score(&items).expect("score succeeds");
    assert_eq!(resp.verdicts.len(), 200);
    for chunk in resp.verdicts.chunks(s.items.len()) {
        assert_matches_expected(chunk, 0);
    }
    server.shutdown();
}

#[test]
fn hot_swap_under_load_drops_nothing_and_scores_stay_coherent() {
    // Swaps land between and during batches while requests are
    // continuously in flight.
    let (server, slot) = start(BatchConfig::default());
    let addr = server.addr().to_string();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let swapper = {
        let (slot, stop) = (slot.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut swaps = 0;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                slot.swap(restore(&setup().snapshot));
                swaps += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            swaps
        })
    };

    let clients: Vec<_> = (0..3)
        .map(|c| {
            let addr = addr.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let s = setup();
                let client = ScoreClient::new(addr);
                let mut versions: Vec<u64> = Vec::new();
                let mut requests = 0u64;
                let width = 4usize;
                let mut offset = (c * 7) % s.items.len().saturating_sub(width).max(1);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let hi = (offset + width).min(s.items.len());
                    let resp = client
                        .score(&s.items[offset..hi])
                        .expect("no request may be dropped during hot-swap");
                    // The snapshot restores to an identical model, so a
                    // response scored by ANY single coherent model matches
                    // the offline expectation; a half-swapped model would
                    // not.
                    assert_matches_expected(&resp.verdicts, offset);
                    if !versions.contains(&resp.model_version) {
                        versions.push(resp.model_version);
                    }
                    requests += 1;
                    offset = (offset + 3) % s.items.len().saturating_sub(width).max(1);
                }
                (requests, versions)
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(800));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut all_versions: Vec<u64> = Vec::new();
    let mut total_requests = 0;
    for h in clients {
        let (requests, versions) = h.join().expect("client thread");
        total_requests += requests;
        for v in versions {
            if !all_versions.contains(&v) {
                all_versions.push(v);
            }
        }
    }
    let swaps = swapper.join().expect("swapper thread");
    assert!(total_requests > 0, "load ran");
    assert!(swaps > 1, "swapper swapped");
    assert!(
        all_versions.len() > 1,
        "clients must observe multiple model versions across {swaps} swaps, saw {all_versions:?}"
    );
    server.shutdown();
}

#[test]
fn queue_overflow_answers_429_quickly_instead_of_stalling() {
    // queue_capacity 1 behind a held worker: the one request that
    // queues cannot be popped, so the other concurrent submissions
    // below must bounce with 429.
    let (server, _slot) =
        start(BatchConfig { queue_capacity: 1, workers: 1, ..BatchConfig::default() });
    let addr = server.addr().to_string();
    let hold = server.hold_workers();
    let t0 = Instant::now();
    let (tx, outcomes) = std::sync::mpsc::channel();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let (addr, tx) = (addr.clone(), tx.clone());
            std::thread::spawn(move || {
                let s = setup();
                let client = ScoreClient::new(addr).with_timeout(Duration::from_secs(30));
                let outcome = match client.score(&s.items[i..=i]) {
                    Ok(resp) => {
                        assert_matches_expected(&resp.verdicts, i);
                        Ok(())
                    }
                    Err(ClientError::Http { status, body }) => Err((status, body)),
                    Err(other) => panic!("overload must not break sockets: {other}"),
                };
                tx.send(outcome).expect("collector alive");
            })
        })
        .collect();
    drop(tx);
    let mut accepted = 0;
    let mut rejected = 0;
    let mut tally = |outcome: Result<(), (u16, String)>| match outcome {
        Ok(()) => accepted += 1,
        Err((status, body)) => {
            assert_eq!(status, 429, "overflow maps to 429, got {status}: {body}");
            assert!(body.contains("retry"), "429 body explains itself: {body}");
            rejected += 1;
        }
    };
    // Seven answers arrive while the worker is held: they are the 429s.
    for _ in 0..7 {
        tally(outcomes.recv_timeout(Duration::from_secs(30)).expect("rejects answer while held"));
    }
    assert_eq!(server.queue_depth(), 1, "one request queued behind the held worker");
    drop(hold);
    for outcome in outcomes.iter() {
        tally(outcome);
    }
    for h in handles {
        h.join().expect("probe thread");
    }
    assert!(accepted >= 1, "the queued request is still served");
    assert!(rejected >= 1, "a 1-slot queue cannot absorb 8 concurrent requests");
    assert_eq!((accepted, rejected), (1, 7), "exactly the queued request is served");
    assert!(t0.elapsed() < Duration::from_secs(20), "overload must resolve fast, not stall");
    server.shutdown();
}

#[test]
fn healthz_and_metrics_report_serving_state() {
    let (server, slot) = start(BatchConfig::default());
    let addr = server.addr().to_string();
    let client = ScoreClient::new(addr);

    let health = client.health().expect("healthz");
    assert_eq!(health.status, "ok");
    assert_eq!(health.model_version, 1);

    // Score once, swap once; both must show up in health + metrics.
    let resp = client.score(&setup().items[..4.min(setup().items.len())]).expect("score");
    assert_eq!(resp.model_version, 1);
    slot.swap(restore(&setup().snapshot));
    let health = client.health().expect("healthz after swap");
    assert_eq!(health.model_version, 2);

    let metrics = client.metrics().expect("metrics");
    for series in ["cats_serve_requests", "cats_serve_model_version", "cats_serve_batch_items"] {
        assert!(metrics.contains(series), "missing {series} in /metrics:\n{metrics}");
    }
    server.shutdown();
}

/// One front-end contract case: raw request bytes, whether the client
/// half-closes its write side after sending them, and the status the
/// front end must answer with.
struct Case {
    name: &'static str,
    request: Vec<u8>,
    half_close: bool,
    status: u16,
}

/// Requests every HTTP front end (scoring server and cluster router)
/// must refuse the same way: the shared reader's limits and errors,
/// plus routing misses.
fn front_end_cases() -> Vec<Case> {
    let not_json = "{definitely not json";
    // Just over the 16 KiB head limit and never terminated: the reader
    // consumes every byte before it answers, so the close cannot reset.
    let mut long_head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    long_head.resize(16 * 1024 + 1, b'a');
    let case = |name, request: String, status| Case {
        name,
        request: request.into_bytes(),
        half_close: false,
        status,
    };
    vec![
        case(
            "body is not JSON",
            format!(
                "POST /v1/score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{not_json}",
                not_json.len()
            ),
            400,
        ),
        case(
            "declared body over 8 MiB",
            format!("POST /v1/score HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 8 * 1024 * 1024 + 1),
            413,
        ),
        Case { name: "head over 16 KiB", request: long_head, half_close: false, status: 431 },
        Case {
            name: "client half-closes mid-body",
            request: b"POST /v1/score HTTP/1.1\r\nContent-Length: 100\r\n\r\n[{\"item_id\""
                .to_vec(),
            half_close: true,
            status: 400,
        },
        case("unknown path", "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n".into(), 404),
        case(
            "unsupported method",
            "PUT /v1/score HTTP/1.1\r\nContent-Length: 0\r\n\r\n".into(),
            405,
        ),
    ]
}

/// Runs every [`front_end_cases`] case against the front end at `addr`.
fn assert_front_end_contract(addr: SocketAddr) {
    for case in front_end_cases() {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        stream.write_all(&case.request).expect("write request");
        if case.half_close {
            stream.shutdown(Shutdown::Write).expect("half-close");
        }
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap_or_else(|e| panic!("{}: read: {e}", case.name));
        let status_line = format!("HTTP/1.1 {} ", case.status);
        assert!(raw.starts_with(&status_line), "{}: want {}, got {raw}", case.name, case.status);
        assert!(raw.contains("{\"error\":"), "{}: errors are JSON: {raw}", case.name);
    }
}

#[test]
fn malformed_and_unknown_requests_get_4xx() {
    let (server, _slot) = start(BatchConfig::default());
    assert_front_end_contract(server.addr());
    server.shutdown();
}

#[test]
fn router_refuses_malformed_and_unknown_requests_like_the_server() {
    let (shard, _slot) = start(BatchConfig::default());
    let router = Router::start(vec![shard.addr().to_string()], RouterConfig::default())
        .expect("start router");
    assert_front_end_contract(router.addr());
    router.shutdown();
    shard.shutdown();
}

/// Sends one `POST /v1/ingest` and returns the status and body.
fn post_ingest(addr: SocketAddr, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /v1/ingest HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
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
fn served_ingest_matches_in_process_stream_replay() {
    let platform = datasets::d1(0.0005, 83);
    let trace = TemporalTrace::from_platform(
        &platform,
        &TraceConfig { seed: 83, duration_ms: 3 * 60 * 1000, ..TraceConfig::default() },
    );
    let events: Vec<IngestEvent> = trace
        .events
        .iter()
        .map(|e| IngestEvent {
            at_ms: e.at_ms,
            item_id: e.item_id,
            user_id: u64::from(e.user_id),
            sales_volume: e.sales_volume,
            text: e.content.clone(),
        })
        .collect();
    let (server, _slot) = start(BatchConfig::default());
    let pipeline = restore(&setup().snapshot);
    let mut engine = StreamEngine::new(ServeConfig::default().stream);
    let bits = |v: &StreamVerdict| {
        let scores = [v.cats_score.to_bits(), v.velocity_risk.to_bits(), v.fused_score.to_bits()];
        (v.item_id, v.at_ms, v.window_comments, v.is_fraud, scores)
    };
    let mut flushes = 0;
    for (n, post) in events.chunks(64).enumerate() {
        let body = serde_json::to_string(post).expect("events encode");
        let (status, body) = post_ingest(server.addr(), &body);
        assert_eq!(status, 200, "post {n}: {body}");
        let served: IngestResponse = serde_json::from_str(&body).expect("ingest response parses");

        let late_before = engine.late_dropped();
        for e in post {
            engine.ingest(&CommentEvent {
                at_ms: e.at_ms,
                item_id: e.item_id,
                user_id: e.user_id,
                sales_volume: e.sales_volume,
                text: e.text.clone(),
            });
        }
        let late = engine.late_dropped() - late_before;
        let expected = if engine.flush_due() { engine.flush(&pipeline) } else { Vec::new() };
        assert_eq!(served.accepted, post.len() as u64 - late, "post {n}: accepted");
        assert_eq!(served.late_dropped, late, "post {n}: late_dropped");
        assert_eq!(served.watermark_ms, engine.watermark_ms(), "post {n}: watermark_ms");
        assert_eq!(served.verdicts.len(), expected.len(), "post {n}: verdict count");
        for (got, want) in served.verdicts.iter().zip(&expected) {
            assert_eq!(bits(got), bits(want), "post {n}: item {} verdict", want.item_id);
        }
        flushes += usize::from(!expected.is_empty());
    }
    assert!(flushes >= 5, "the trace must cross several flush boundaries, crossed {flushes}");

    let (status, body) = post_ingest(server.addr(), "[{\"at_ms\": ");
    assert_eq!(status, 400, "malformed ingest body: {body}");
    server.shutdown();
}
