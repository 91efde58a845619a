//! The cluster router: consistent-hash fan-out over shard processes,
//! health-driven ejection/re-admission, failover retries, and the
//! coordinated rolling model swap.
//!
//! ## Routing
//!
//! Items are placed on a consistent-hash ring ([`HashRing`]) keyed by
//! `item_id`, so the same item lands on the same shard run after run
//! (per-shard caches stay warm, and adding a shard only moves ~1/N of
//! the keyspace). A request's items are partitioned by their first
//! *live* preferred shard and fanned out concurrently; each sub-request
//! that fails on transport (shard died or vanished mid-response) walks
//! to the next live shard and replays — safe because scoring is a pure
//! function of the items and the pinned model version.
//!
//! ## Version pinning (zero-skew)
//!
//! Every routed request is pinned to the cluster model version at
//! arrival: each sub-request carries `pin_version` and shards answer
//! with exactly that generation or 409. The response's verdicts are
//! therefore all from ONE model version even when the request spans
//! shards mid-rolling-swap; a 409 (the pinned version fell out of a
//! shard's two-generation window) retries the whole request at the new
//! cluster version. `cats.serve.router.skew_merges` counts responses
//! that would have mixed versions — the chaos bench asserts it stays 0.
//!
//! ## Rolling swap
//!
//! [`Router::rolling_swap`] loads the new snapshot on every live shard
//! under the *next* version tag, then — only after every live shard
//! holds it — bumps the cluster version. In-flight and new requests pin
//! the old version until the bump and resolve via the shards' previous
//! slot; requests after the bump pin the new version. No request can
//! observe both.
//!
//! The router answers HTTP through the same front end as a scoring
//! [`crate::Server`], so it reads requests under the same limits.

use crate::chaos::ChaosRng;
use crate::client::{ClientError, ScoreClient};
use crate::health::{HealthConfig, HealthEvent, ShardHealth, ShardState};
use crate::listener::{write_json, write_json_error, write_response, Handler, Listener, Request};
use crate::wire::{
    parse_score_request, RouterHealthResponse, ScoreItem, ScoreResponse, ScoreVerdict,
    ShardHealthInfo, WireSnapshot,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Whole-request attempts on a version conflict (409 mid-swap).
const MAX_ATTEMPTS: usize = 4;
/// Per-sub-request read/write budget against a shard.
const SHARD_TIMEOUT: Duration = Duration::from_secs(30);

/// Router tuning knobs (the request limits are front-end constants).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address for the router's own HTTP front end.
    pub addr: String,
    /// Ejection / re-admission policy and probe cadence.
    pub health: HealthConfig,
    /// Virtual nodes per shard on the hash ring.
    pub virtual_nodes: usize,
    /// Per-sub-request connect budget (tight: a dead shard must fail
    /// fast so the failover replay stays cheap).
    pub shard_connect_timeout: Duration,
    /// Snapshot artifact the shards were started from, recorded as the
    /// version-1 artifact so late-joining/restarted shards can be
    /// synced before any swap happens.
    pub initial_artifact: Option<String>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            health: HealthConfig::default(),
            virtual_nodes: 64,
            shard_connect_timeout: Duration::from_millis(500),
            initial_artifact: None,
        }
    }
}

/// Consistent-hash ring with virtual nodes.
pub struct HashRing {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

/// SplitMix64 of one key — stable across runs and processes.
fn hash_key(key: u64) -> u64 {
    ChaosRng::new(key).next_u64()
}

impl HashRing {
    /// A ring over `shards` shards with `virtual_nodes` points each.
    pub fn new(shards: usize, virtual_nodes: usize) -> Self {
        let shards = shards.max(1);
        let vnodes = virtual_nodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for s in 0..shards {
            for v in 0..vnodes {
                points.push((hash_key(((s as u64) << 32) | (v as u64 + 1)), s));
            }
        }
        points.sort_unstable();
        Self { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `item_id`.
    pub fn primary(&self, item_id: u64) -> usize {
        self.preference(item_id)[0]
    }

    /// Failover order for `item_id`: the owning shard first, then each
    /// further shard in ring-walk order (every shard appears once).
    pub fn preference(&self, item_id: u64) -> Vec<usize> {
        let h = hash_key(item_id);
        let start = self.points.partition_point(|(p, _)| *p < h) % self.points.len();
        let mut order = Vec::with_capacity(self.shards);
        for i in 0..self.points.len() {
            let (_, s) = self.points[(start + i) % self.points.len()];
            if !order.contains(&s) {
                order.push(s);
                if order.len() == self.shards {
                    break;
                }
            }
        }
        order
    }
}

/// Parent-side record of one shard.
struct ShardSlot {
    id: usize,
    addr: String,
    health: Mutex<ShardHealth>,
    /// Model version last reported by the prober (or set by a swap).
    last_version: AtomicU64,
}

impl ShardSlot {
    fn state(&self) -> ShardState {
        cats_obs::lock_recover(&self.health, "cats.serve.router.health").state()
    }
}

struct RouterShared {
    shards: Vec<ShardSlot>,
    ring: HashRing,
    cluster_version: AtomicU64,
    /// `(path, version)` of the newest successfully distributed
    /// artifact — what a re-admitted shard is synced to.
    last_artifact: Mutex<Option<(String, u64)>>,
    /// Serializes rolling swaps.
    swap_lock: Mutex<()>,
    /// Stops the health prober.
    stop: AtomicBool,
    config: RouterConfig,
}

impl RouterShared {
    fn client(&self, addr: &str) -> ScoreClient {
        ScoreClient::new(addr)
            .with_timeout(SHARD_TIMEOUT)
            .with_connect_timeout(self.config.shard_connect_timeout)
    }

    fn probe_client(&self, addr: &str) -> ScoreClient {
        ScoreClient::new(addr)
            .with_timeout(self.config.health.probe_timeout)
            .with_connect_timeout(self.config.health.probe_timeout)
    }
}

/// The running cluster router.
pub struct Router {
    shared: Arc<RouterShared>,
    listener: Listener,
    prober_thread: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the router over the given shard addresses and starts the
    /// accept loop and the health prober.
    pub fn start(shard_addrs: Vec<String>, config: RouterConfig) -> std::io::Result<Router> {
        let shards = shard_addrs
            .into_iter()
            .enumerate()
            .map(|(id, addr)| ShardSlot {
                id,
                addr,
                health: Mutex::new(ShardHealth::new(&config.health)),
                last_version: AtomicU64::new(1),
            })
            .collect::<Vec<_>>();
        let ring = HashRing::new(shards.len(), config.virtual_nodes);
        let initial = config.initial_artifact.clone().map(|p| (p, 1));
        let addr = config.addr.clone();
        let (listener, shared) = Listener::start(&addr, "router", || RouterShared {
            shards,
            ring,
            cluster_version: AtomicU64::new(1),
            last_artifact: Mutex::new(initial),
            swap_lock: Mutex::new(()),
            stop: AtomicBool::new(false),
            config,
        })?;
        let prober_thread = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("cats-router-probe".into())
                .spawn(move || prober_loop(&shared))
                .expect("spawn router prober")
        };
        Ok(Router { shared, listener, prober_thread: Some(prober_thread) })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The cluster-coordinated model version.
    pub fn cluster_version(&self) -> u64 {
        self.shared.cluster_version.load(Ordering::Acquire)
    }

    /// Per-shard `(id, addr, state, last seen model version)`.
    pub fn shard_states(&self) -> Vec<ShardHealthInfo> {
        shard_states(&self.shared)
    }

    /// Coordinated rolling swap: install `path` on every live shard
    /// under the next version tag, then bump the cluster version. On
    /// any shard failing the load, the swap aborts with the cluster
    /// version unchanged — requests keep pinning the old version, which
    /// every shard still serves (already-advanced shards via their
    /// previous slot).
    pub fn rolling_swap(&self, path: &str) -> Result<u64, String> {
        rolling_swap(&self.shared, path)
    }

    /// Stops accepting, joins the prober and every connection thread.
    /// Dropping the router does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        let (shared, prober) = (&self.shared, &mut self.prober_thread);
        self.listener.shutdown(|| {
            shared.stop.store(true, Ordering::Release);
            if let Some(h) = prober.take() {
                let _ = h.join();
            }
        });
    }
}

/// The shard list of [`Router::shard_states`] and `/healthz`.
fn shard_states(shared: &RouterShared) -> Vec<ShardHealthInfo> {
    shared
        .shards
        .iter()
        .map(|s| ShardHealthInfo {
            id: s.id,
            addr: s.addr.clone(),
            state: s.state().as_str().to_string(),
            model_version: s.last_version.load(Ordering::Relaxed),
        })
        .collect()
}

impl Handler for RouterShared {
    fn serve(&self, stream: &mut TcpStream, request: &Request) {
        route(stream, self, request);
    }
}

fn route(stream: &mut TcpStream, shared: &RouterShared, request: &Request) {
    let body = request.body.as_str();
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/score") => score(stream, shared, body),
        ("GET", "/healthz") => {
            let shards = shard_states(shared);
            let live = shards.iter().filter(|s| s.state == "live").count();
            let version = shared.cluster_version.load(Ordering::Acquire);
            let resp = RouterHealthResponse {
                status: if live > 0 { "ok" } else { "degraded" }.to_string(),
                model_version: version,
                queue_depth: 0,
                cluster_version: version,
                live_shards: live,
                shards,
            };
            write_json(stream, &resp);
        }
        ("GET", "/metrics") => {
            let text = cluster_prometheus(shared);
            write_response(stream, 200, "text/plain; version=0.0.4", "", &text);
        }
        ("GET", "/metrics.json") => {
            let merged = merged_snapshot(shared);
            let wire: WireSnapshot = (&merged).into();
            write_json(stream, &wire);
        }
        ("POST", "/admin/swap") => {
            #[derive(serde::Deserialize)]
            struct SwapReq {
                path: String,
            }
            let req: SwapReq = match serde_json::from_str(body) {
                Ok(r) => r,
                Err(e) => {
                    write_json_error(stream, 400, "", &format!("body: {e}"));
                    return;
                }
            };
            match rolling_swap(shared, &req.path) {
                Ok(version) => {
                    write_response(
                        stream,
                        200,
                        "application/json",
                        "",
                        &format!("{{\"version\":{version}}}"),
                    );
                }
                Err(e) => write_json_error(stream, 502, "", &e),
            }
        }
        ("POST" | "GET", _) => {
            write_json_error(stream, 404, "", &format!("no such route: {}", request.path));
        }
        _ => {
            write_json_error(stream, 405, "", &format!("method {} not allowed", request.method));
        }
    }
}

/// Outcome of one whole-request routing attempt.
enum AttemptError {
    /// Some shard no longer holds the pinned version — retry the whole
    /// request at the (new) cluster version.
    Conflict,
    /// A shard answered an HTTP error that is not ours to retry
    /// (backpressure, bad batch) — forward it.
    Upstream(u16, String),
    /// Every candidate for some sub-request is unreachable.
    AllDown(String),
}

fn score(stream: &mut TcpStream, shared: &RouterShared, body: &str) {
    cats_obs::counter("cats.serve.router.requests").inc();
    let (items, client_pin) = match parse_score_request(body) {
        Ok(parsed) => parsed,
        Err(e) => {
            write_json_error(stream, 400, "", &e);
            return;
        }
    };
    if items.is_empty() {
        let resp = ScoreResponse {
            model_version: client_pin
                .unwrap_or_else(|| shared.cluster_version.load(Ordering::Acquire)),
            verdicts: Vec::new(),
        };
        write_json(stream, &resp);
        return;
    }
    let mut last_err: Option<AttemptError> = None;
    for _ in 0..MAX_ATTEMPTS {
        let pin = client_pin.unwrap_or_else(|| shared.cluster_version.load(Ordering::Acquire));
        match score_once(shared, &items, pin) {
            Ok(verdicts) => {
                write_json(stream, &ScoreResponse { model_version: pin, verdicts });
                return;
            }
            Err(AttemptError::Conflict) if client_pin.is_none() => {
                // Mid-swap: re-pin at the advanced cluster version and
                // replay the whole request.
                cats_obs::counter("cats.serve.router.version_conflicts").inc();
                last_err = Some(AttemptError::Conflict);
            }
            Err(e) => {
                last_err = Some(e);
                break;
            }
        }
    }
    match last_err {
        Some(AttemptError::Upstream(status, body)) => {
            write_response(stream, status, "application/json", "", &body);
        }
        Some(AttemptError::Conflict) => {
            write_json_error(stream, 409, "", "model version conflict persisted across retries");
        }
        Some(AttemptError::AllDown(msg)) => {
            cats_obs::counter("cats.serve.router.unroutable").inc();
            write_json_error(stream, 503, "Retry-After: 1\r\n", &msg);
        }
        None => {
            cats_obs::counter("cats.serve.router.unroutable").inc();
            write_json_error(stream, 503, "Retry-After: 1\r\n", "no route");
        }
    }
}

/// One fan-out attempt at a fixed pin. Returns verdicts in item order.
fn score_once(
    shared: &RouterShared,
    items: &[ScoreItem],
    pin: u64,
) -> Result<Vec<ScoreVerdict>, AttemptError> {
    let n_shards = shared.shards.len();
    // Partition items by their first live preferred shard (primary if
    // none is live — it might be back; the sub-request walk handles it
    // failing again).
    let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
    for (idx, item) in items.iter().enumerate() {
        let pref = shared.ring.preference(item.item_id);
        let target = pref
            .iter()
            .copied()
            .find(|&s| shared.shards[s].state() == ShardState::Live)
            .unwrap_or(pref[0]);
        per_shard[target].push(idx);
    }

    let mut slots: Vec<Option<ScoreVerdict>> = (0..items.len()).map(|_| None).collect();
    let mut errors: Vec<AttemptError> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_shard
            .iter()
            .enumerate()
            .filter(|(_, idxs)| !idxs.is_empty())
            .map(|(target, idxs)| {
                let sub: Vec<ScoreItem> = idxs.iter().map(|&i| items[i].clone()).collect();
                scope.spawn(move || (idxs, sub_score(shared, target, &sub, pin)))
            })
            .collect();
        for h in handles {
            let (idxs, result) = h.join().expect("router sub-request thread");
            match result {
                Ok(verdicts) => {
                    for (&i, v) in idxs.iter().zip(verdicts) {
                        slots[i] = Some(v);
                    }
                }
                Err(e) => errors.push(e),
            }
        }
    });

    // Conflict dominates (the whole request must re-pin), then upstream
    // backpressure, then total unreachability.
    if errors.iter().any(|e| matches!(e, AttemptError::Conflict)) {
        return Err(AttemptError::Conflict);
    }
    if let Some(pos) = errors.iter().position(|e| matches!(e, AttemptError::Upstream(..))) {
        return Err(errors.swap_remove(pos));
    }
    if let Some(pos) = errors.iter().position(|e| matches!(e, AttemptError::AllDown(_))) {
        return Err(errors.swap_remove(pos));
    }
    Ok(slots.into_iter().map(|v| v.expect("every item answered")).collect())
}

/// One sub-request: try the target shard, then walk the remaining
/// shards in ring order, skipping ejected ones (unless everything is
/// ejected, in which case try them anyway — a probe may simply not have
/// noticed a recovery yet).
fn sub_score(
    shared: &RouterShared,
    target: usize,
    items: &[ScoreItem],
    pin: u64,
) -> Result<Vec<ScoreVerdict>, AttemptError> {
    let n = shared.shards.len();
    let candidates: Vec<usize> = (0..n).map(|step| (target + step) % n).collect();
    let mut last_transport = String::new();
    for (round, &sid) in candidates.iter().enumerate() {
        let shard = &shared.shards[sid];
        // Skip known-ejected alternates on the first pass; the second
        // half of the walk (if we get there) has nothing to lose.
        if round > 0 && shard.state() == ShardState::Ejected {
            continue;
        }
        if round > 0 {
            cats_obs::counter("cats.serve.router.retries").inc();
        }
        match shared.client(&shard.addr).score_pinned(items, pin) {
            Ok(resp) => {
                if resp.model_version != pin {
                    // A shard answered with the wrong generation — this
                    // response will NOT be merged (that would be version
                    // skew); count it and re-pin the whole request.
                    cats_obs::counter("cats.serve.router.skew_merges").inc();
                    return Err(AttemptError::Conflict);
                }
                record_success(shared, sid);
                return Ok(resp.verdicts);
            }
            Err(ClientError::Http { status: 409, .. }) => {
                return Err(AttemptError::Conflict);
            }
            Err(ClientError::Http { status, body }) => {
                // Backpressure (429/503) or a bad sub-request: not a
                // shard death — forward, don't eject.
                return Err(AttemptError::Upstream(status, body));
            }
            Err(e @ (ClientError::Io(_) | ClientError::Disconnected(_))) => {
                // Shard dead (refused, reset, died mid-response): count
                // towards ejection and replay on the next live shard —
                // scoring is pure, so the replay is safe.
                cats_obs::counter("cats.serve.router.shard_dead").inc();
                record_failure(shared, sid);
                last_transport = format!("shard {sid}: {e}");
            }
            Err(e @ ClientError::TimedOut(_)) => {
                // Shard slow: also counts towards ejection (a stuck
                // shard is as useless as a dead one) but is tracked
                // separately so operators can tell the failure modes
                // apart.
                cats_obs::counter("cats.serve.router.shard_slow").inc();
                record_failure(shared, sid);
                last_transport = format!("shard {sid}: {e}");
            }
            Err(e) => {
                cats_obs::counter("cats.serve.router.shard_dead").inc();
                record_failure(shared, sid);
                last_transport = format!("shard {sid}: {e}");
            }
        }
    }
    Err(AttemptError::AllDown(format!("no live shard could answer ({last_transport})")))
}

fn record_failure(shared: &RouterShared, sid: usize) {
    let mut h = cats_obs::lock_recover(&shared.shards[sid].health, "cats.serve.router.health");
    if let Some(HealthEvent::Ejected) = h.record_failure() {
        cats_obs::counter("cats.serve.router.ejections").inc();
        eprintln!("cats-router: ejected shard {sid} ({})", shared.shards[sid].addr);
    }
}

fn record_success(shared: &RouterShared, sid: usize) {
    // Routed-request successes reset failure streaks; re-admission is
    // decided by the prober (which also syncs the model version first).
    let mut h = cats_obs::lock_recover(&shared.shards[sid].health, "cats.serve.router.health");
    let _ = h.record_success();
}

/// The health prober: probes every shard each interval, drives the
/// ejection / re-admission state machine, and keeps shard model
/// versions in sync with the cluster version.
fn prober_loop(shared: &Arc<RouterShared>) {
    let interval = shared.config.health.probe_interval;
    let slice =
        Duration::from_millis(interval.as_millis().min(20) as u64).max(Duration::from_millis(1));
    while !shared.stop.load(Ordering::Acquire) {
        for sid in 0..shared.shards.len() {
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            probe_shard(shared, sid);
        }
        let mut slept = Duration::ZERO;
        while slept < interval && !shared.stop.load(Ordering::Acquire) {
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

fn probe_shard(shared: &RouterShared, sid: usize) {
    let shard = &shared.shards[sid];
    match shared.probe_client(&shard.addr).health() {
        Ok(h) => {
            shard.last_version.store(h.model_version, Ordering::Relaxed);
            let event = {
                let mut hh = cats_obs::lock_recover(&shard.health, "cats.serve.router.health");
                hh.record_success()
            };
            match event {
                Some(HealthEvent::ReadyToReadmit) => {
                    // Sync before re-admission: a restarted shard comes
                    // back at v1 and must not serve pinned-v5 traffic.
                    if sync_shard(shared, sid).is_ok() {
                        cats_obs::lock_recover(&shard.health, "cats.serve.router.health")
                            .mark_readmitted();
                        cats_obs::counter("cats.serve.router.readmissions").inc();
                        eprintln!("cats-router: re-admitted shard {sid} ({})", shard.addr);
                    }
                }
                _ => {
                    // A live shard can drift too (fast restart between
                    // probes, before ejection): re-sync it in place.
                    if shard.state() == ShardState::Live
                        && h.model_version != shared.cluster_version.load(Ordering::Acquire)
                    {
                        let _ = sync_shard(shared, sid);
                    }
                }
            }
        }
        Err(_) => record_failure(shared, sid),
    }
}

/// Brings one shard to the cluster model version by replaying the last
/// distributed artifact. No-op when the versions already match.
fn sync_shard(shared: &RouterShared, sid: usize) -> Result<(), String> {
    let shard = &shared.shards[sid];
    let cluster = shared.cluster_version.load(Ordering::Acquire);
    if shard.last_version.load(Ordering::Relaxed) == cluster {
        return Ok(());
    }
    let artifact =
        cats_obs::lock_recover(&shared.last_artifact, "cats.serve.router.artifact").clone();
    let Some((path, version)) = artifact else {
        return Err(format!("no artifact recorded for cluster version {cluster}"));
    };
    if version != cluster {
        return Err(format!("recorded artifact is v{version}, cluster is v{cluster}"));
    }
    shared
        .client(&shard.addr)
        .admin_load(&path, cluster)
        .map_err(|e| format!("sync shard {sid} to v{cluster}: {e}"))?;
    shard.last_version.store(cluster, Ordering::Relaxed);
    cats_obs::counter("cats.serve.router.version_syncs").inc();
    eprintln!("cats-router: synced shard {sid} to model v{cluster}");
    Ok(())
}

fn rolling_swap(shared: &RouterShared, path: &str) -> Result<u64, String> {
    let _guard = cats_obs::lock_recover(&shared.swap_lock, "cats.serve.router.swap");
    let next = shared.cluster_version.load(Ordering::Acquire) + 1;
    // Stage 1: every live shard loads the new generation. Requests keep
    // pinning the old version and resolve against the previous slot on
    // shards that have already advanced.
    for shard in shared.shards.iter().filter(|s| s.state() == ShardState::Live) {
        shared
            .client(&shard.addr)
            .admin_load(path, next)
            .map_err(|e| format!("rolling swap aborted at shard {}: {e}", shard.id))?;
        shard.last_version.store(next, Ordering::Relaxed);
    }
    // Stage 2: record the artifact (re-admissions sync to it), THEN
    // bump the pin source. Order matters: after the bump, every new
    // request pins `next`, so every live shard must already hold it —
    // which stage 1 just guaranteed.
    *cats_obs::lock_recover(&shared.last_artifact, "cats.serve.router.artifact") =
        Some((path.to_string(), next));
    shared.cluster_version.store(next, Ordering::Release);
    cats_obs::counter("cats.serve.router.swaps").inc();
    eprintln!("cats-router: rolling swap complete, cluster at model v{next}");
    Ok(next)
}

/// Merged view over the router's own registry plus every reachable
/// shard's exported snapshot.
fn merged_snapshot(shared: &RouterShared) -> cats_obs::Snapshot {
    let mut merged = cats_obs::global().snapshot();
    for shard in &shared.shards {
        if let Ok(wire) = shared.probe_client(&shard.addr).metrics_snapshot() {
            merged = merged.merge(&wire.into_snapshot());
        }
    }
    merged
}

/// Prometheus text for the whole cluster: each shard's registry labeled
/// `shard="<id>"`, the router's own labeled `shard="router"`, and the
/// merged union labeled `shard="cluster"`.
fn cluster_prometheus(shared: &RouterShared) -> String {
    let own = cats_obs::global().snapshot();
    let mut out = own.to_prometheus_labeled(&[("shard", "router")]);
    let mut merged = own;
    for shard in &shared.shards {
        if let Ok(wire) = shared.probe_client(&shard.addr).metrics_snapshot() {
            let snap = wire.into_snapshot();
            out.push_str(&snap.to_prometheus_labeled(&[("shard", &shard.id.to_string())]));
            merged = merged.merge(&snap);
        }
    }
    out.push_str(&merged.to_prometheus_labeled(&[("shard", "cluster")]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_spreads_keys_roughly_evenly() {
        let ring = HashRing::new(4, 64);
        let mut counts = [0usize; 4];
        for item in 0..10_000u64 {
            counts[ring.primary(item)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (1_000..=5_000).contains(&c),
                "shard {s} owns {c} of 10k keys — ring is badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn ring_assignment_is_deterministic_and_sticky() {
        let a = HashRing::new(4, 64);
        let b = HashRing::new(4, 64);
        for item in 0..500u64 {
            assert_eq!(a.primary(item), b.primary(item), "same ring, same owner");
        }
        // Growing the ring moves only a fraction of the keyspace.
        let bigger = HashRing::new(5, 64);
        let moved = (0..10_000u64).filter(|&i| a.primary(i) != bigger.primary(i)).count();
        assert!(
            moved < 5_000,
            "adding one shard moved {moved}/10000 keys; consistent hashing should move ~1/5"
        );
    }

    #[test]
    fn preference_lists_every_shard_exactly_once() {
        let ring = HashRing::new(4, 16);
        for item in 0..200u64 {
            let mut pref = ring.preference(item);
            assert_eq!(pref[0], ring.primary(item));
            pref.sort_unstable();
            assert_eq!(pref, vec![0, 1, 2, 3], "preference is a permutation of shards");
        }
    }

    #[test]
    fn single_shard_ring_is_degenerate_but_valid() {
        let ring = HashRing::new(1, 8);
        assert_eq!(ring.primary(42), 0);
        assert_eq!(ring.preference(42), vec![0]);
        // Zero-shard input clamps to one.
        assert_eq!(HashRing::new(0, 0).primary(7), 0);
    }
}
