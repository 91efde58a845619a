//! Bounded-memory sliding-window state: bucketed time rings with
//! per-bucket arrival counts, a 256-bit distinct-commenter sketch, and
//! a log₂-bucketed inter-arrival-gap histogram.
//!
//! Every structure here is **fixed-size**: a ring of `n` buckets, each
//! bucket `4 + 32 + 64` bytes of plain counters, regardless of how many
//! events flow through it. That is the memory-bound half of the
//! streaming design (`DESIGN.md §13`); the other half — the capped
//! comment deque — lives in the engine.
//!
//! ## Time model
//!
//! A ring covers the half-open window `(head_end − window, head_end]`
//! where `head_end` is the end of the newest bucket. An event at time
//! `t` lands in absolute bucket `t / bucket_ms`; advancing the ring to
//! a later time clears exactly the buckets that fell out, so **eviction
//! happens at exact bucket boundaries** — an event `window_ms` old is
//! gone, an event `window_ms − 1` old is still counted (asserted by the
//! boundary tests).
//!
//! Out-of-order arrivals within the window are inserted into their
//! proper (older) bucket; counts, the commenter sketch, and rates are
//! therefore *delivery-order independent*. The gap histogram is fed by
//! the engine with delivery-order gaps (the stream's own arrival
//! cadence), which is the signal a streaming detector actually sees.

/// Words in the distinct-commenter bitmap (4 × 64 = 256 bits).
const USER_BITMAP_WORDS: usize = 4;
/// Bits in the distinct-commenter bitmap.
const USER_BITMAP_BITS: u32 = (USER_BITMAP_WORDS * 64) as u32;
/// Inter-arrival gap histogram bins: bin `i` holds gaps in
/// `[2^i − 1, 2^(i+1) − 1)` ms, last bin open-ended.
pub const GAP_BINS: usize = 16;

/// One fixed-size time bucket.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Arrivals in this bucket.
    count: u32,
    /// Distinct-commenter bitmap (hashed user ids).
    users: [u64; USER_BITMAP_WORDS],
    /// Inter-arrival gap histogram (log₂ ms bins).
    gaps: [u32; GAP_BINS],
}

impl Bucket {
    const EMPTY: Bucket = Bucket { count: 0, users: [0; USER_BITMAP_WORDS], gaps: [0; GAP_BINS] };
}

/// Deterministic 64-bit mix of a user id — the bitmap hash: the first
/// output of a SplitMix64 stream seeded with `id`. Pure arithmetic,
/// identical everywhere.
pub fn mix_user(id: u64) -> u64 {
    cats_obs::mix64(id.wrapping_add(cats_obs::GOLDEN_GAMMA))
}

/// Aggregated view of one ring's window, read at feature time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Total arrivals in the window.
    pub count: u64,
    /// Linear-counting estimate of distinct commenters, capped at
    /// `count` (a sketch can never claim more commenters than events).
    pub distinct_est: f64,
    /// Shannon entropy (bits) of the gap histogram; 0.0 for an empty
    /// window — never NaN.
    pub gap_entropy: f64,
}

/// A fixed-size bucketed time ring.
#[derive(Debug, Clone)]
pub struct Ring {
    bucket_ms: u64,
    buckets: Vec<Bucket>,
    /// Absolute index of the newest covered bucket.
    head: u64,
}

impl Ring {
    /// A ring of `n_buckets` buckets of `bucket_ms` each, covering a
    /// `n_buckets * bucket_ms` window ending at the head bucket.
    pub fn new(bucket_ms: u64, n_buckets: usize) -> Self {
        assert!(bucket_ms > 0 && n_buckets > 0, "ring needs positive geometry");
        Self { bucket_ms, buckets: vec![Bucket::EMPTY; n_buckets], head: 0 }
    }

    /// Window span in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.bucket_ms * self.buckets.len() as u64
    }

    /// Advances the head to cover `now_ms`, clearing buckets that fell
    /// out of the window. Never moves backwards.
    pub fn advance_to(&mut self, now_ms: u64) {
        let now_bucket = now_ms / self.bucket_ms;
        if now_bucket <= self.head {
            return;
        }
        let n = self.buckets.len() as u64;
        let stale = (now_bucket - self.head).min(n);
        for i in 0..stale {
            let b = (self.head + 1 + i) % n;
            self.buckets[b as usize] = Bucket::EMPTY;
        }
        self.head = now_bucket;
    }

    /// Records an arrival at `at_ms` by `user_hash` with delivery-order
    /// gap `gap_ms` (`None` for an item's first arrival). Returns
    /// `false` — and records nothing — when `at_ms` is already outside
    /// the window (a late event beyond the skew the window can absorb).
    pub fn record(&mut self, at_ms: u64, user_hash: u64, gap_ms: Option<u64>) -> bool {
        self.advance_to(at_ms);
        let bucket = at_ms / self.bucket_ms;
        let n = self.buckets.len() as u64;
        if bucket + n <= self.head {
            return false;
        }
        let slot = &mut self.buckets[(bucket % n) as usize];
        slot.count += 1;
        let bit = (user_hash % USER_BITMAP_BITS as u64) as usize;
        slot.users[bit / 64] |= 1u64 << (bit % 64);
        if let Some(gap) = gap_ms {
            // log2 bin of (gap+1): gap 0 → bin 0, 1 → 1, 2..3 → bin of
            // ilog2(gap+1), saturating in the last bin.
            let bin = ((gap + 1).ilog2() as usize).min(GAP_BINS - 1);
            slot.gaps[bin] += 1;
        }
        true
    }

    /// Aggregates the live buckets into [`WindowStats`].
    pub fn stats(&self) -> WindowStats {
        let mut count: u64 = 0;
        let mut users = [0u64; USER_BITMAP_WORDS];
        let mut gaps = [0u64; GAP_BINS];
        for b in &self.buckets {
            count += b.count as u64;
            for (acc, w) in users.iter_mut().zip(b.users) {
                *acc |= w;
            }
            for (acc, g) in gaps.iter_mut().zip(b.gaps) {
                *acc += g as u64;
            }
        }

        let set_bits: u32 = users.iter().map(|w| w.count_ones()).sum();
        let distinct_est = if count == 0 {
            0.0
        } else if set_bits >= USER_BITMAP_BITS {
            // Sketch saturated: every slot occupied, the estimate
            // diverges — fall back to the only safe bound.
            count as f64
        } else {
            // Linear counting: m · ln(m / zeros), capped at count.
            let m = USER_BITMAP_BITS as f64;
            let z = (USER_BITMAP_BITS - set_bits) as f64;
            (m * (m / z).ln()).min(count as f64)
        };

        let total_gaps: u64 = gaps.iter().sum();
        let gap_entropy = if total_gaps == 0 {
            0.0
        } else {
            let t = total_gaps as f64;
            -gaps
                .iter()
                .filter(|&&g| g > 0)
                .map(|&g| {
                    let p = g as f64 / t;
                    p * p.log2()
                })
                .sum::<f64>()
        };

        WindowStats { count, distinct_est, gap_entropy }
    }

    /// Fixed memory footprint of this ring in bytes (it never grows).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.buckets.len() * std::mem::size_of::<Bucket>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Ring {
        // 10 buckets × 1000 ms = 10 s window.
        Ring::new(1000, 10)
    }

    #[test]
    fn empty_window_stats_are_zero_not_nan() {
        let s = ring().stats();
        assert_eq!(s.count, 0);
        assert_eq!(s.distinct_est, 0.0);
        assert_eq!(s.gap_entropy, 0.0);
        assert!(s.distinct_est.is_finite() && s.gap_entropy.is_finite());
    }

    #[test]
    fn eviction_at_exact_boundary_tick() {
        let mut r = ring();
        assert!(r.record(500, mix_user(1), None)); // bucket 0
        assert_eq!(r.stats().count, 1);
        // Advance so bucket 0 is the oldest still covered: head 9 covers
        // buckets 0..=9.
        r.advance_to(9_999);
        assert_eq!(r.stats().count, 1, "event must survive to the last covering tick");
        // One more bucket: the exact boundary. Bucket 0 falls out.
        r.advance_to(10_000);
        assert_eq!(r.stats().count, 0, "event must evict exactly at the boundary tick");
    }

    #[test]
    fn late_event_beyond_window_is_rejected() {
        let mut r = ring();
        r.advance_to(20_000); // head bucket 20, window covers 11..=20
        assert!(r.record(11_000, mix_user(2), None), "inside window: accepted");
        assert!(!r.record(10_999, mix_user(3), None), "outside window: rejected");
        assert_eq!(r.stats().count, 1);
    }

    #[test]
    fn out_of_order_within_window_is_order_independent() {
        let events: [(u64, u64); 5] = [(1200, 7), (300, 8), (2500, 7), (900, 9), (2499, 8)];
        let mut sorted = events;
        sorted.sort_unstable();
        let mut a = ring();
        let mut b = ring();
        for &(t, u) in &events {
            assert!(a.record(t, mix_user(u), None));
        }
        for &(t, u) in &sorted {
            assert!(b.record(t, mix_user(u), None));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn distinct_estimate_tracks_distinct_users() {
        let mut same = ring();
        let mut diff = ring();
        for i in 0..20u64 {
            same.record(i * 100, mix_user(42), None);
            diff.record(i * 100, mix_user(i), None);
        }
        let (s, d) = (same.stats(), diff.stats());
        assert!(s.distinct_est <= 2.0, "single commenter estimated at {}", s.distinct_est);
        assert!(d.distinct_est >= 10.0, "20 commenters estimated at {}", d.distinct_est);
        assert!(d.distinct_est <= 20.0, "estimate above count: {}", d.distinct_est);
    }

    #[test]
    fn regular_gaps_have_lower_entropy_than_scattered() {
        let mut regular = ring();
        let mut scattered = ring();
        let mut t = 0u64;
        for i in 0..32u64 {
            regular.record(i * 250, mix_user(i), Some(250));
            let gap = [3u64, 70, 900, 9000, 31, 400, 1, 2400][i as usize % 8];
            t += gap;
            scattered.record(t % 9_999, mix_user(i), Some(gap));
        }
        assert!(regular.stats().gap_entropy < scattered.stats().gap_entropy);
    }

    #[test]
    fn footprint_is_constant_under_load() {
        let mut r = ring();
        let before = r.approx_bytes();
        for i in 0..100_000u64 {
            r.record(i, mix_user(i), Some(1));
        }
        assert_eq!(r.approx_bytes(), before);
    }
}
