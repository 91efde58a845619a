//! Simulated public website of the platform.
//!
//! Serves the three page kinds the paper's crawler walks (§IV-A): shop
//! homepages, per-shop item listings, and per-item comment pages — all
//! paginated JSON. To exercise the collector's cleaning logic the site
//! injects the benign noise a real crawl always encounters:
//!
//! * **duplicate records** (a record re-served on the same page),
//! * **malformed JSON lines** (lines cut mid-record),
//! * **transient errors** (HTTP-5xx equivalents that succeed on retry).
//!
//! On top of that, a [`FaultPlan`] layers the heavier failure modes a
//! week-long production crawl runs into (§VII): rate limiting with an
//! advertised retry-after, sustained per-resource outages, stalled
//! (slow) pages, responses truncated mid-record, pagination drift
//! (re-served and skipped pages), and poisoned records — valid JSON
//! whose fields are semantically absurd. All noise, benign and injected,
//! is deterministic in the site seed.

use std::cell::RefCell;
use std::collections::HashMap;

use cats_platform::Platform;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::records::{CommentRecord, ItemRecord, ShopRecord};

/// Schedule of injected faults, layered on top of the benign noise knobs
/// of [`SiteConfig`]. Probabilities are per request or per record;
/// everything is deterministic in the site seed. [`FaultPlan::none`]
/// (the default) disables every fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability that a page request is answered with the HTTP-429
    /// equivalent ([`FetchError::RateLimited`]).
    pub rate_limit_prob: f64,
    /// Advertised wait on a rate-limited response, simulated seconds.
    pub retry_after_secs: u64,
    /// Fraction of resources (the shop list, one shop's item listing,
    /// one item's comment walk) that suffer a sustained outage.
    pub outage_resource_prob: f64,
    /// Length of an outage window: that many consecutive requests to the
    /// affected resource fail with [`FetchError::Outage`].
    pub outage_len: u64,
    /// Probability that a served page stalls for `stall_secs`.
    pub stall_prob: f64,
    /// Simulated service delay of a stalled page, seconds.
    pub stall_secs: u64,
    /// Probability that a response is cut mid-record: the tail lines of
    /// the page are dropped and the last surviving line is truncated.
    pub truncate_prob: f64,
    /// Probability of pagination drift on a request: the server serves
    /// the previous page again (duplicates) or skips ahead one page
    /// (silently lost records).
    pub drift_prob: f64,
    /// Probability that a record is served poisoned: valid JSON whose
    /// fields are semantically absurd (absurd reliability scores,
    /// impossible dates, impossible prices).
    pub poison_prob: f64,
}

impl FaultPlan {
    /// The empty plan: no injected faults.
    pub fn none() -> Self {
        Self {
            rate_limit_prob: 0.0,
            retry_after_secs: 30,
            outage_resource_prob: 0.0,
            outage_len: 12,
            stall_prob: 0.0,
            stall_secs: 20,
            truncate_prob: 0.0,
            drift_prob: 0.0,
            poison_prob: 0.0,
        }
    }

    /// A plan scaled by a single intensity knob in `[0, 1]`: 0 is
    /// [`FaultPlan::none`], 1 is an aggressively hostile site. The
    /// `exp_chaos` sweep and the CLI `crawl --faults` flag use this.
    pub fn at_intensity(x: f64) -> Self {
        let x = x.clamp(0.0, 1.0);
        Self {
            rate_limit_prob: 0.08 * x,
            outage_resource_prob: 0.12 * x,
            stall_prob: 0.10 * x,
            truncate_prob: 0.08 * x,
            drift_prob: 0.06 * x,
            poison_prob: 0.05 * x,
            ..Self::none()
        }
    }

    /// Whether the plan injects anything at all.
    pub fn is_none(&self) -> bool {
        self.rate_limit_prob == 0.0
            && self.outage_resource_prob == 0.0
            && self.stall_prob == 0.0
            && self.truncate_prob == 0.0
            && self.drift_prob == 0.0
            && self.poison_prob == 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Noise and pagination knobs of the simulated site.
#[derive(Debug, Clone, Copy)]
pub struct SiteConfig {
    /// Records per page.
    pub page_size: usize,
    /// Probability that a served comment record is a duplicate of the
    /// previous one on the page.
    pub duplicate_prob: f64,
    /// Probability that a served record line is malformed JSON.
    pub malformed_prob: f64,
    /// Probability that a page request fails transiently.
    pub error_prob: f64,
    /// Seed for the noise process.
    pub seed: u64,
    /// Injected fault schedule (defaults to [`FaultPlan::none`]).
    pub faults: FaultPlan,
}

impl Default for SiteConfig {
    fn default() -> Self {
        Self {
            page_size: 20,
            duplicate_prob: 0.02,
            malformed_prob: 0.01,
            error_prob: 0.02,
            seed: 0xD00D,
            faults: FaultPlan::none(),
        }
    }
}

/// Why a page fetch failed — the crawler's typed error taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchError {
    /// HTTP-5xx equivalent: retrying the request can succeed.
    Transient,
    /// HTTP-429 equivalent: the server asks the client to back off for
    /// the advertised number of (simulated) seconds.
    RateLimited {
        /// The server's advertised wait, seconds.
        retry_after_secs: u64,
    },
    /// The resource is inside a sustained outage window; immediate
    /// retries will keep failing until the window passes.
    Outage,
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Transient => write!(f, "transient server error"),
            FetchError::RateLimited { retry_after_secs } => {
                write!(f, "rate limited (retry after {retry_after_secs}s)")
            }
            FetchError::Outage => write!(f, "resource outage"),
        }
    }
}

impl std::error::Error for FetchError {}

/// One fetched page: raw JSON lines plus whether more pages follow.
#[derive(Debug, Clone)]
pub struct Page {
    /// One JSON record per line (possibly malformed/duplicated/poisoned).
    pub lines: Vec<String>,
    /// Whether a further page exists.
    pub has_next: bool,
    /// Simulated extra service time of this response (0 unless the page
    /// stalled).
    pub stall_secs: u64,
}

/// The simulated site.
pub struct PublicSite<'a> {
    platform: &'a Platform,
    config: SiteConfig,
    /// Requests served so far per resource `(kind, id)` — drives the
    /// sustained-outage windows. Interior mutability keeps the public
    /// fetch API `&self`, like a real remote server.
    hits: RefCell<HashMap<(u64, u64), u64>>,
}

impl<'a> PublicSite<'a> {
    /// Wraps `platform` behind a public web surface.
    pub fn new(platform: &'a Platform, config: SiteConfig) -> Self {
        Self { platform, config, hits: RefCell::new(HashMap::new()) }
    }

    /// Deterministic per-request RNG: noise depends only on (seed, request
    /// identity), so a retry of the *same* page can succeed/fail
    /// independently while the overall process stays reproducible.
    fn request_rng(&self, kind: u64, id: u64, page: usize, attempt: u32) -> StdRng {
        let mix = self
            .config
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(kind)
            .wrapping_mul(31)
            .wrapping_add(id)
            .wrapping_mul(31)
            .wrapping_add(page as u64)
            .wrapping_mul(31)
            .wrapping_add(u64::from(attempt));
        StdRng::seed_from_u64(mix)
    }

    /// Stable per-resource hash for fault selection (independent of page
    /// and attempt, so a whole resource is either in the outage set or
    /// not).
    fn resource_hash(&self, kind: u64, id: u64) -> u64 {
        let mut h = self.config.seed ^ 0xA076_1D64_78BD_642F;
        for v in [kind, id] {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
            h ^= h >> 29;
            h = h.wrapping_mul(0x9E3779B97F4A7C15);
        }
        h
    }

    /// Records one request against `(kind, id)`, returning the ordinal of
    /// this request (0 for the first ever).
    fn bump_hits(&self, kind: u64, id: u64) -> u64 {
        let mut hits = self.hits.borrow_mut();
        let n = hits.entry((kind, id)).or_insert(0);
        let ordinal = *n;
        *n += 1;
        ordinal
    }

    /// Whether request `ordinal` against the resource falls inside the
    /// resource's outage window.
    fn in_outage(&self, kind: u64, id: u64, ordinal: u64) -> bool {
        let plan = self.config.faults;
        if plan.outage_resource_prob <= 0.0 || plan.outage_len == 0 {
            return false;
        }
        let h = self.resource_hash(kind, id);
        let affected = ((h >> 8) % 1_000_000) as f64 / 1_000_000.0 < plan.outage_resource_prob;
        if !affected {
            return false;
        }
        let start = (h >> 32) % 3; // outage begins within the first requests
        ordinal >= start && ordinal < start + plan.outage_len
    }

    fn serve<T: serde::Serialize + Clone>(
        &self,
        kind: u64,
        id: u64,
        records: &[T],
        page: usize,
        attempt: u32,
        poison: impl Fn(&mut T),
    ) -> Result<Page, FetchError> {
        let plan = self.config.faults;
        let ordinal = self.bump_hits(kind, id);
        if self.in_outage(kind, id, ordinal) {
            return Err(FetchError::Outage);
        }
        let mut rng = self.request_rng(kind, id, page, attempt);
        if rng.random::<f64>() < plan.rate_limit_prob {
            return Err(FetchError::RateLimited { retry_after_secs: plan.retry_after_secs });
        }
        if rng.random::<f64>() < self.config.error_prob {
            return Err(FetchError::Transient);
        }
        let stall_secs = if plan.stall_prob > 0.0 && rng.random::<f64>() < plan.stall_prob {
            plan.stall_secs
        } else {
            0
        };
        // Pagination drift: this request is actually answered with the
        // previous page (re-serve → duplicates) or the next one (skip →
        // silently lost records).
        let mut served_page = page;
        if plan.drift_prob > 0.0 && rng.random::<f64>() < plan.drift_prob {
            if rng.random::<f64>() < 0.5 {
                served_page = page.saturating_sub(1);
            } else {
                served_page = page + 1;
            }
        }

        let start = served_page * self.config.page_size;
        let end = (start + self.config.page_size).min(records.len());
        let mut lines = Vec::with_capacity(end.saturating_sub(start));
        let mut prev: Option<String> = None;
        for r in records.get(start..end).unwrap_or(&[]) {
            let mut record = r.clone();
            if plan.poison_prob > 0.0 && rng.random::<f64>() < plan.poison_prob {
                poison(&mut record);
            }
            let mut line = serde_json::to_string(&record).expect("record serializes");
            if rng.random::<f64>() < self.config.malformed_prob {
                cut_mid_record(&mut line);
            } else if let Some(p) = &prev {
                if rng.random::<f64>() < self.config.duplicate_prob {
                    lines.push(p.clone());
                }
            }
            prev = Some(line.clone());
            lines.push(line);
        }
        // Truncated response: the connection died mid-body — the page's
        // tail lines are gone and the last surviving line is cut.
        if plan.truncate_prob > 0.0 && !lines.is_empty() && rng.random::<f64>() < plan.truncate_prob
        {
            lines.truncate((lines.len() / 2).max(1));
            if let Some(last) = lines.last_mut() {
                cut_mid_record(last);
            }
        }
        Ok(Page { lines, has_next: end < records.len(), stall_secs })
    }

    /// Fetches one page of shop records.
    pub fn shop_page(&self, page: usize, attempt: u32) -> Result<Page, FetchError> {
        let records: Vec<ShopRecord> = self
            .platform
            .shops()
            .iter()
            .map(|s| ShopRecord {
                shop_id: s.id,
                shop_name: s.name.clone(),
                shop_url: s.url.clone(),
            })
            .collect();
        // Shop records carry no numeric fields worth poisoning.
        self.serve(1, 0, &records, page, attempt, |_r| {})
    }

    /// Fetches one page of a shop's item listing.
    pub fn item_page(&self, shop_id: u32, page: usize, attempt: u32) -> Result<Page, FetchError> {
        let records: Vec<ItemRecord> = self
            .platform
            .items()
            .iter()
            .filter(|i| i.shop_id == shop_id)
            .map(|i| ItemRecord {
                item_id: i.id,
                shop_id: i.shop_id,
                item_name: i.name.clone(),
                price_cents: i.price_cents,
                sales_volume: i.sales_volume,
            })
            .collect();
        self.serve(2, u64::from(shop_id), &records, page, attempt, |r: &mut ItemRecord| {
            r.price_cents = u64::MAX;
            r.sales_volume = u64::MAX;
        })
    }

    /// Fetches one page of an item's comments.
    pub fn comment_page(
        &self,
        item_id: u64,
        page: usize,
        attempt: u32,
    ) -> Result<Page, FetchError> {
        let Some(item) = self.platform.item(item_id) else {
            return Ok(Page { lines: Vec::new(), has_next: false, stall_secs: 0 });
        };
        let records: Vec<CommentRecord> = item
            .comments
            .iter()
            .map(|c| {
                let user = self.platform.user(c.user_id).expect("valid user id");
                CommentRecord {
                    item_id: item.id,
                    comment_id: c.id,
                    comment_content: c.content.clone(),
                    nickname: user.nickname.clone(),
                    user_exp_value: user.exp_value,
                    client_information: c.client.name().to_string(),
                    date: c.date.clone(),
                }
            })
            .collect();
        self.serve(3, item_id, &records, page, attempt, |r: &mut CommentRecord| {
            r.user_exp_value = u64::MAX;
            r.date = "0000-00-00 00:00:00".to_string();
            r.comment_content = String::new();
        })
    }
}

/// Truncates a JSON line roughly in half at a char boundary: comments
/// contain multibyte CJK punctuation.
fn cut_mid_record(line: &mut String) {
    let mut cut = line.len() / 2;
    while cut > 0 && !line.is_char_boundary(cut) {
        cut -= 1;
    }
    line.truncate(cut);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cats_platform::{Platform, PlatformConfig};

    fn platform() -> Platform {
        Platform::generate(PlatformConfig {
            seed: 5,
            n_shops: 4,
            n_fraud_items: 10,
            n_normal_items: 30,
            ..PlatformConfig::default()
        })
    }

    fn noiseless(seed: u64) -> SiteConfig {
        SiteConfig {
            duplicate_prob: 0.0,
            malformed_prob: 0.0,
            error_prob: 0.0,
            seed,
            ..SiteConfig::default()
        }
    }

    #[test]
    fn shop_pages_cover_all_shops() {
        let p = platform();
        let site = PublicSite::new(&p, SiteConfig { page_size: 3, ..noiseless(1) });
        let p0 = site.shop_page(0, 0).unwrap();
        assert_eq!(p0.lines.len(), 3);
        assert!(p0.has_next);
        let p1 = site.shop_page(1, 0).unwrap();
        assert_eq!(p1.lines.len(), 1);
        assert!(!p1.has_next);
    }

    #[test]
    fn item_pages_filter_by_shop() {
        let p = platform();
        let site = PublicSite::new(&p, noiseless(1));
        let page = site.item_page(0, 0, 0).unwrap();
        for line in &page.lines {
            let r: ItemRecord = serde_json::from_str(line).unwrap();
            assert_eq!(r.shop_id, 0);
        }
    }

    #[test]
    fn comment_pages_parse_and_paginate() {
        let p = platform();
        let site = PublicSite::new(&p, SiteConfig { page_size: 5, ..noiseless(1) });
        // find an item with >5 comments
        let item = p.items().iter().find(|i| i.comments.len() > 5).expect("dense item");
        let page0 = site.comment_page(item.id, 0, 0).unwrap();
        assert_eq!(page0.lines.len(), 5);
        assert!(page0.has_next);
        let r: CommentRecord = serde_json::from_str(&page0.lines[0]).unwrap();
        assert_eq!(r.item_id, item.id);
        assert!(!r.nickname.is_empty());
    }

    #[test]
    fn unknown_item_serves_empty_page() {
        let p = platform();
        let site = PublicSite::new(&p, noiseless(1));
        let page = site.comment_page(999_999, 0, 0).unwrap();
        assert!(page.lines.is_empty());
        assert!(!page.has_next);
    }

    #[test]
    fn noise_injects_malformed_and_duplicate_lines() {
        let p = platform();
        let site = PublicSite::new(
            &p,
            SiteConfig {
                duplicate_prob: 0.5,
                malformed_prob: 0.3,
                error_prob: 0.0,
                page_size: 50,
                seed: 2,
                faults: FaultPlan::none(),
            },
        );
        let mut malformed = 0;
        let mut total = 0;
        for item in p.items().iter().take(20) {
            let page = site.comment_page(item.id, 0, 0).unwrap();
            for line in &page.lines {
                total += 1;
                if serde_json::from_str::<CommentRecord>(line).is_err() {
                    malformed += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(malformed > 0, "expected some malformed lines");
    }

    #[test]
    fn transient_errors_happen_and_retries_can_succeed() {
        let p = platform();
        let site = PublicSite::new(&p, SiteConfig { error_prob: 0.5, ..noiseless(3) });
        let mut failures = 0;
        let mut recovered = 0;
        for page in 0..40 {
            if site.shop_page(page % 2, page as u32).is_err() {
                failures += 1;
                // a different attempt number re-rolls the noise
                for attempt in 1..10 {
                    if site.shop_page(page % 2, attempt + 100 + page as u32).is_ok() {
                        recovered += 1;
                        break;
                    }
                }
            }
        }
        assert!(failures > 0, "expected transient failures at p=0.5");
        assert!(recovered > 0, "retries should eventually succeed");
    }

    #[test]
    fn requests_are_deterministic_per_attempt() {
        let p = platform();
        let site = PublicSite::new(&p, SiteConfig { error_prob: 0.3, ..noiseless(4) });
        let a = site.shop_page(0, 7).map(|pg| pg.lines);
        let b = site.shop_page(0, 7).map(|pg| pg.lines);
        assert_eq!(a.is_ok(), b.is_ok());
        if let (Ok(a), Ok(b)) = (a, b) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rate_limits_carry_retry_after() {
        let p = platform();
        let site = PublicSite::new(
            &p,
            SiteConfig {
                faults: FaultPlan {
                    rate_limit_prob: 0.9,
                    retry_after_secs: 45,
                    ..FaultPlan::none()
                },
                ..noiseless(6)
            },
        );
        let mut limited = 0;
        for page in 0..20 {
            if let Err(FetchError::RateLimited { retry_after_secs }) = site.shop_page(0, page) {
                assert_eq!(retry_after_secs, 45);
                limited += 1;
            }
        }
        assert!(limited > 0, "expected rate-limited responses at p=0.9");
    }

    #[test]
    fn outage_fails_a_span_of_requests_then_recovers() {
        let p = platform();
        let site = PublicSite::new(
            &p,
            SiteConfig {
                faults: FaultPlan {
                    outage_resource_prob: 1.0, // every resource is affected
                    outage_len: 5,
                    ..FaultPlan::none()
                },
                ..noiseless(7)
            },
        );
        // Hammer one resource: the outage window (≤3 start + 5 long) must
        // show up as consecutive Outage errors, then pass.
        let mut results = Vec::new();
        for attempt in 0..20 {
            results.push(site.shop_page(0, attempt).is_ok());
        }
        let failures = results.iter().filter(|ok| !**ok).count();
        assert_eq!(failures, 5, "outage spans exactly outage_len requests");
        assert!(*results.last().unwrap(), "resource recovers after the window");
    }

    #[test]
    fn poisoned_comments_are_valid_json_with_absurd_fields() {
        let p = platform();
        let site = PublicSite::new(
            &p,
            SiteConfig {
                page_size: 50,
                faults: FaultPlan { poison_prob: 0.8, ..FaultPlan::none() },
                ..noiseless(8)
            },
        );
        let mut poisoned = 0;
        let mut total = 0;
        for item in p.items().iter().take(20) {
            let page = site.comment_page(item.id, 0, 0).unwrap();
            for line in &page.lines {
                let r: CommentRecord = serde_json::from_str(line).expect("poison stays valid JSON");
                total += 1;
                if r.user_exp_value == u64::MAX {
                    assert!(r.date.starts_with("0000"));
                    poisoned += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(poisoned > 0, "expected poisoned records at p=0.8");
    }

    #[test]
    fn truncated_pages_lose_their_tail() {
        let p = platform();
        let site = PublicSite::new(
            &p,
            SiteConfig {
                page_size: 50,
                faults: FaultPlan { truncate_prob: 1.0, ..FaultPlan::none() },
                ..noiseless(9)
            },
        );
        let item = p.items().iter().find(|i| i.comments.len() > 3).expect("dense item");
        let full_len = p.item(item.id).unwrap().comments.len().min(50);
        let page = site.comment_page(item.id, 0, 0).unwrap();
        assert!(page.lines.len() < full_len, "tail lines dropped");
        let last = page.lines.last().unwrap();
        assert!(serde_json::from_str::<CommentRecord>(last).is_err(), "last line cut mid-record");
    }

    #[test]
    fn stalls_mark_pages_slow() {
        let p = platform();
        let site = PublicSite::new(
            &p,
            SiteConfig {
                faults: FaultPlan { stall_prob: 1.0, stall_secs: 20, ..FaultPlan::none() },
                ..noiseless(10)
            },
        );
        let page = site.shop_page(0, 0).unwrap();
        assert_eq!(page.stall_secs, 20);
        let clean = PublicSite::new(&p, noiseless(10));
        assert_eq!(clean.shop_page(0, 0).unwrap().stall_secs, 0);
    }

    #[test]
    fn intensity_zero_is_no_faults() {
        assert!(FaultPlan::at_intensity(0.0).is_none());
        assert!(!FaultPlan::at_intensity(1.0).is_none());
        assert!(FaultPlan::none().is_none());
    }
}
