//! Deterministic chaos injection for the serving stack (DESIGN.md §10).
//!
//! Robustness claims are only as good as the faults they were tested
//! against, so this module makes fault injection a first-class,
//! *seeded* capability: a [`ChaosPlan`] plus a seed reproduces the
//! exact same fault sequence on every run, which is what lets the
//! `exp_soak` bench assert hard invariants (zero lost responses, zero
//! torn snapshots swapped in, bounded respawns) instead of "it usually
//! survives". Five fault families, matching the failure model:
//!
//! * **Slow-loris clients** ([`send_slow_loris`]) — dribble a partial
//!   request head, then vanish. Bounded by the per-connection read
//!   timeout; must never occupy a batch worker.
//! * **Mid-body disconnects** ([`send_mid_body_disconnect`]) — a valid
//!   head, half a body, then a hang-up. Answered 400, never stalled.
//! * **Torn snapshot rewrites** ([`torn_rewrite`]) — a non-atomic
//!   partial overwrite of the model file, as a crashed writer would
//!   leave it. The watcher's checksum must reject it and keep serving.
//! * **Scoring-worker panics** ([`crate::Batcher::inject_worker_panic`])
//!   — supervised respawn; in-flight requests answer 500.
//! * **Stalled scoring workers** ([`crate::Batcher::hold_workers`]) —
//!   workers stop popping until the guard drops, so queueing,
//!   coalescing and 429 overflow happen on cue, not by racing a worker.
//!
//! The RNG is SplitMix64 over `cats_obs::mix64`, so the crate stays
//! `std`-only; chaos reproducibility must not depend on an external RNG
//! crate's stream stability.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;

/// Deterministic SplitMix64 stream: same seed, same faults, every run.
#[derive(Debug, Clone)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(cats_obs::GOLDEN_GAMMA);
        cats_obs::mix64(self.0)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `0..n`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// One injected fault, drawn from a [`ChaosPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Dribbled partial request head, then silence.
    SlowLoris,
    /// Valid head, half a body, hang-up.
    MidBodyDisconnect,
    /// Non-atomic partial overwrite of the snapshot file.
    TornRewrite,
    /// Injected batch-worker panic (supervised respawn).
    WorkerPanic,
}

/// Per-tick fault mix for a soak run. Probabilities are independent of
/// wall clock: the fault sequence is a pure function of the seed and
/// the number of [`ChaosPlan::draw`] calls.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed for the fault stream (see [`ChaosPlan::rng`]).
    pub seed: u64,
    /// Probability a tick fires a slow-loris client.
    pub slow_loris: f64,
    /// Probability a tick fires a mid-body disconnect.
    pub mid_body_disconnect: f64,
    /// Probability a tick tears the snapshot file mid-rewrite.
    pub torn_rewrite: f64,
    /// Probability a tick injects a scoring-worker panic.
    pub worker_panic: f64,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        Self {
            seed: 42,
            slow_loris: 0.05,
            mid_body_disconnect: 0.05,
            torn_rewrite: 0.03,
            worker_panic: 0.02,
        }
    }
}

impl ChaosPlan {
    /// The fault stream for this plan's seed.
    pub fn rng(&self) -> ChaosRng {
        ChaosRng::new(self.seed)
    }

    /// Draws at most one fault for this tick, consuming exactly one
    /// uniform draw. Probabilities are stacked in declaration order, so
    /// the fault sequence is reproducible from the seed alone.
    pub fn draw(&self, rng: &mut ChaosRng) -> Option<Fault> {
        let x = rng.next_f64();
        let mut acc = self.slow_loris;
        if x < acc {
            return Some(Fault::SlowLoris);
        }
        acc += self.mid_body_disconnect;
        if x < acc {
            return Some(Fault::MidBodyDisconnect);
        }
        acc += self.torn_rewrite;
        if x < acc {
            return Some(Fault::TornRewrite);
        }
        acc += self.worker_panic;
        if x < acc {
            return Some(Fault::WorkerPanic);
        }
        None
    }
}

/// Slow-loris client: connects, dribbles up to `dribble_bytes` of a
/// request head one byte at a time with tiny pauses, then drops the
/// connection without ever finishing the head. The server must answer
/// 400 (closed mid-request) or reap it on its read timeout — and must
/// never hand the connection to a batch worker.
pub fn send_slow_loris(addr: SocketAddr, dribble_bytes: usize) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    let head =
        b"POST /v1/score HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 1000000\r\n";
    for b in head.iter().take(dribble_bytes) {
        stream.write_all(std::slice::from_ref(b))?;
        stream.flush()?;
        std::thread::sleep(Duration::from_millis(1));
    }
    // Drop without the terminating blank line: the server's next read
    // returns 0 and the connection is answered/reaped immediately.
    Ok(())
}

/// Mid-body disconnect: sends a fully valid head declaring a body, half
/// the body, then hangs up. The server must answer with a 400-class
/// close, not block a worker waiting for bytes that never come.
pub fn send_mid_body_disconnect(addr: SocketAddr) -> std::io::Result<()> {
    let body = br#"{"items":[{"item_id":1,"sales_volume":50,"comments":["hao0 zan0"]}]}"#;
    let head = format!(
        "POST /v1/score HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(head.as_bytes())?;
    stream.write_all(&body[..body.len() / 2])?;
    stream.flush()?;
    Ok(())
}

/// Tears a snapshot rewrite: non-atomically overwrites `path` with a
/// strict prefix of `bytes` (at least 1 byte, never the whole thing),
/// exactly as a writer crashed mid-`fs::write` would leave it. The
/// watcher's checksum/parse validation must reject the file and keep
/// the current model.
pub fn torn_rewrite(path: &Path, bytes: &[u8], rng: &mut ChaosRng) -> std::io::Result<()> {
    assert!(bytes.len() >= 2, "nothing to tear");
    let cut = 1 + rng.below(bytes.len() as u64 - 1) as usize;
    std::fs::write(path, &bytes[..cut])
}

/// Power-law exponent of [`TrafficTrace`]'s item draws; 1.0 would be
/// uniform, larger is a hotter head.
const SKEW: f64 = 3.0;

/// Deterministic heavy-tail traffic shape for cluster benches.
///
/// Real marketplace traffic is nothing like uniform: a few hot items
/// absorb most of the scoring load (so one shard runs hot while others
/// idle — exactly the regime where naive round-robin looks fine and
/// consistent hashing has to prove itself), and volume swings on a
/// diurnal cycle. `TrafficTrace` reproduces both from a seed: item
/// draws follow a power-law over the pool (index `⌊n·u^SKEW⌋`, whose
/// exponent 3 sends ~22 % of draws to the first 1 % of items) and
/// [`TrafficTrace::burst_factor`] modulates offered load sinusoidally
/// over a fixed tick period. Same seed, same trace — the chaos bench's
/// throughput floors stay comparable run to run.
#[derive(Debug, Clone)]
pub struct TrafficTrace {
    rng: ChaosRng,
    pool_size: usize,
    /// Ticks per diurnal cycle.
    burst_period: u64,
    /// Peak-to-mean swing in `[0, 1)`.
    burst_amplitude: f64,
    tick: u64,
}

impl TrafficTrace {
    /// A trace over `pool_size` items with the default cycle (400
    /// ticks, ±60 % swing).
    pub fn new(seed: u64, pool_size: usize) -> Self {
        Self {
            rng: ChaosRng::new(seed),
            pool_size: pool_size.max(1),
            burst_period: 400,
            burst_amplitude: 0.6,
            tick: 0,
        }
    }

    /// Overrides the diurnal cycle shape.
    pub fn with_burst(mut self, period: u64, amplitude: f64) -> Self {
        self.burst_period = period.max(1);
        self.burst_amplitude = amplitude.clamp(0.0, 0.95);
        self
    }

    /// Draws the next item index in `0..pool_size`, heavy-tailed toward
    /// low indexes, and advances the trace one tick.
    pub fn draw_item(&mut self) -> usize {
        self.tick = self.tick.wrapping_add(1);
        let u = self.rng.next_f64();
        ((self.pool_size as f64 * u.powf(SKEW)) as usize).min(self.pool_size - 1)
    }

    /// Load multiplier for the current tick: `1 ± amplitude`, swinging
    /// over one `burst_period`. Callers scale their pacing (or batch
    /// size) by it to reproduce diurnal bursts.
    pub fn burst_factor(&self) -> f64 {
        let phase = (self.tick % self.burst_period) as f64 / self.burst_period as f64;
        1.0 + self.burst_amplitude * (phase * std::f64::consts::TAU).sin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = ChaosPlan::default();
        let (mut a, mut b) = (plan.rng(), plan.rng());
        let sa: Vec<Option<Fault>> = (0..256).map(|_| plan.draw(&mut a)).collect();
        let sb: Vec<Option<Fault>> = (0..256).map(|_| plan.draw(&mut b)).collect();
        assert_eq!(sa, sb, "fault stream is a pure function of the seed");
        assert!(sa.iter().any(Option::is_some), "default mix fires some faults in 256 ticks");
        assert!(sa.iter().any(Option::is_none), "default mix leaves most ticks clean");
    }

    #[test]
    fn different_seeds_diverge() {
        let (mut a, mut b) = (ChaosRng::new(1), ChaosRng::new(2));
        let sa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = ChaosRng::new(7);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f), "{f}");
            assert!(rng.below(10) < 10);
        }
    }

    #[test]
    fn zero_probability_plan_never_fires() {
        let plan = ChaosPlan {
            slow_loris: 0.0,
            mid_body_disconnect: 0.0,
            torn_rewrite: 0.0,
            worker_panic: 0.0,
            ..ChaosPlan::default()
        };
        let mut rng = plan.rng();
        assert!((0..512).all(|_| plan.draw(&mut rng).is_none()));
    }

    #[test]
    fn torn_rewrite_writes_a_strict_prefix() {
        let dir = cats_io::ScratchDir::new("cats_chaos_tear");
        let path = dir.join("snapshot");
        let bytes = b"CATS-IO2 some payload that will be cut";
        let mut rng = ChaosRng::new(3);
        for _ in 0..20 {
            torn_rewrite(&path, bytes, &mut rng).unwrap();
            let torn = std::fs::read(&path).unwrap();
            assert!(!torn.is_empty() && torn.len() < bytes.len());
            assert_eq!(&bytes[..torn.len()], &torn[..], "a tear is a prefix, not noise");
        }
    }

    #[test]
    fn traffic_trace_is_deterministic_and_in_range() {
        let mut a = TrafficTrace::new(11, 500);
        let mut b = TrafficTrace::new(11, 500);
        let da: Vec<usize> = (0..256).map(|_| a.draw_item()).collect();
        let db: Vec<usize> = (0..256).map(|_| b.draw_item()).collect();
        assert_eq!(da, db, "trace is a pure function of the seed");
        assert!(da.iter().all(|&i| i < 500));
    }

    #[test]
    fn traffic_trace_has_a_hot_head() {
        let mut trace = TrafficTrace::new(5, 1000);
        let draws = 20_000;
        let hot = (0..draws).filter(|_| trace.draw_item() < 100).count();
        // Uniform traffic would put ~10% of draws in the first 10% of
        // the pool; its skew concentrates far more.
        assert!(
            hot as f64 / draws as f64 > 0.35,
            "only {hot}/{draws} draws hit the hot head — trace is not heavy-tailed"
        );
    }

    #[test]
    fn burst_factor_swings_and_stays_positive() {
        let mut trace = TrafficTrace::new(1, 10).with_burst(100, 0.6);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..300 {
            trace.draw_item();
            let f = trace.burst_factor();
            assert!(f > 0.0, "{f}");
            lo = lo.min(f);
            hi = hi.max(f);
        }
        assert!(hi > 1.3 && lo < 0.7, "cycle should swing around 1.0: lo={lo} hi={hi}");
    }

    #[test]
    fn chaos_clients_do_not_stall_scoring() {
        // A server under slow-loris + mid-body abuse must keep
        // answering well-formed requests promptly.
        let slot = std::sync::Arc::new(crate::ModelSlot::new(crate::testutil::trained(0.0)));
        let server = crate::Server::start(
            slot,
            crate::ServeConfig { addr: "127.0.0.1:0".into(), ..crate::ServeConfig::default() },
        )
        .unwrap();
        let addr = server.addr();
        for i in 0..4 {
            if i % 2 == 0 {
                let _ = send_slow_loris(addr, 12);
            } else {
                let _ = send_mid_body_disconnect(addr);
            }
        }
        let client =
            crate::ScoreClient::new(addr.to_string()).with_timeout(Duration::from_secs(30));
        let items = vec![crate::ScoreItem {
            item_id: 9,
            sales_volume: 50,
            comments: vec!["hao0 zan0 hao1".into()],
        }];
        let resp = client.score(&items).expect("well-formed request scores despite chaos peers");
        assert_eq!(resp.verdicts.len(), 1);
        assert_eq!(resp.verdicts[0].item_id, 9);
        server.shutdown();
    }
}
