//! JSON wire format for the scoring API.
//!
//! `POST /v1/score` accepts either a bare array of [`ScoreItem`]s or a
//! `{"items": [...]}` wrapper (the wrapper leaves room for per-request
//! options later without breaking clients). Responses carry the model
//! version that scored the batch, so clients — and the hot-swap tests —
//! can verify that every verdict in a response came from one coherent
//! model.
//!
//! Score bodies are read by one decoder, [`decode_score_request`], which
//! leaves each comment a slice of the body unless it held escapes.
//! [`parse_score_request`] is that decoder plus an owning copy, and
//! [`write_score_request`] writes a wrapped body back from decoded
//! items: a comment that was never unescaped is copied between quotes
//! byte for byte, so the router forwards comments without re-encoding
//! them. The derived `Deserialize` on [`ScoreItem`] and
//! [`ScoreRequest`] is kept as the test oracle for the decoder.

use cats_core::FilterDecision;
use serde::{Deserialize, ErrorKind, Parser, Serialize};
use std::borrow::Cow;
use std::fmt::Write as _;

/// One item to score: the public data CATS consumes (§II-A).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ScoreItem {
    /// Platform item id, echoed back in the verdict.
    pub item_id: u64,
    /// Public sales volume (stage-1 filter input).
    pub sales_volume: u64,
    /// Raw comment texts; segmented server-side.
    pub comments: Vec<String>,
}

/// One verdict on the wire (mirrors the CLI's JSONL report line).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoreVerdict {
    /// Platform item id from the request.
    pub item_id: u64,
    /// Stage-1 outcome (`classified`, `filtered_low_sales`,
    /// `filtered_no_evidence`, `quarantined`).
    pub filter: String,
    /// Fraud score in \[0,1\]; 0 for filtered items.
    pub score: f64,
    /// Final verdict.
    pub is_fraud: bool,
}

/// `POST /v1/score` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoreResponse {
    /// Version of the model slot that scored this whole batch — one
    /// number because the batcher loads the model exactly once per
    /// batch (no request can straddle a swap).
    pub model_version: u64,
    /// One verdict per requested item, in request order.
    pub verdicts: Vec<ScoreVerdict>,
}

/// `GET /healthz` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthResponse {
    /// `"ok"` while accepting, `"draining"` once shutdown has begun.
    pub status: String,
    /// Current model slot version.
    pub model_version: u64,
    /// Requests waiting in the batch queue right now.
    pub queue_depth: u64,
    /// True when the drift monitor holds a `warning`/`critical` verdict:
    /// the server still answers, but scores come from a model whose
    /// training distribution no longer matches live traffic. Defaults
    /// keep pre-drift peers parseable.
    #[serde(default)]
    pub degraded: bool,
    /// Drift verdict string (`stable`/`warning`/`critical`), `"off"`
    /// when the server runs without a monitor, `""` from pre-drift
    /// peers.
    #[serde(default)]
    pub drift: String,
}

/// Error body for non-2xx responses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Human-readable reason.
    pub error: String,
}

/// Serde mirror of [`cats_obs::Snapshot`] for `GET /metrics.json`.
///
/// `cats-obs` is deliberately dependency-free, so it cannot derive
/// serde itself; shards export this mirror and the router converts back
/// to a real [`cats_obs::Snapshot`] to drive [`cats_obs::Snapshot::merge`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireSnapshot {
    pub counters: std::collections::BTreeMap<String, u64>,
    pub gauges: std::collections::BTreeMap<String, f64>,
    #[serde(default)]
    pub gauges_at: std::collections::BTreeMap<String, u64>,
    #[serde(default)]
    pub taken_at_micros: u64,
    pub hists: std::collections::BTreeMap<String, WireHist>,
    pub stages: std::collections::BTreeMap<String, WireStage>,
}

/// Serde mirror of [`cats_obs::HistSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireHist {
    pub bounds: Vec<f64>,
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: f64,
}

/// Serde mirror of [`cats_obs::StageSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireStage {
    pub count: u64,
    pub items: u64,
    pub total_micros: u64,
    pub self_micros: u64,
    pub hist: WireHist,
}

impl From<&cats_obs::HistSnapshot> for WireHist {
    fn from(h: &cats_obs::HistSnapshot) -> Self {
        WireHist {
            bounds: h.bounds.clone(),
            buckets: h.buckets.clone(),
            count: h.count,
            sum: h.sum,
        }
    }
}

impl WireHist {
    fn into_hist(self) -> cats_obs::HistSnapshot {
        cats_obs::HistSnapshot {
            bounds: self.bounds,
            buckets: self.buckets,
            count: self.count,
            sum: self.sum,
        }
    }
}

impl From<&cats_obs::Snapshot> for WireSnapshot {
    fn from(s: &cats_obs::Snapshot) -> Self {
        WireSnapshot {
            counters: s.counters.clone(),
            gauges: s.gauges.clone(),
            gauges_at: s.gauges_at.clone(),
            taken_at_micros: s.taken_at_micros,
            hists: s.hists.iter().map(|(k, h)| (k.clone(), h.into())).collect(),
            stages: s
                .stages
                .iter()
                .map(|(k, st)| {
                    (
                        k.clone(),
                        WireStage {
                            count: st.count,
                            items: st.items,
                            total_micros: st.total_micros,
                            self_micros: st.self_micros,
                            hist: (&st.hist).into(),
                        },
                    )
                })
                .collect(),
        }
    }
}

impl WireSnapshot {
    /// Rebuilds the real [`cats_obs::Snapshot`] this mirror was made
    /// from, so the router can [`cats_obs::Snapshot::merge`] it.
    pub fn into_snapshot(self) -> cats_obs::Snapshot {
        cats_obs::Snapshot {
            counters: self.counters,
            gauges: self.gauges,
            gauges_at: self.gauges_at,
            taken_at_micros: self.taken_at_micros,
            hists: self.hists.into_iter().map(|(k, h)| (k, h.into_hist())).collect(),
            stages: self
                .stages
                .into_iter()
                .map(|(k, st)| {
                    (
                        k,
                        cats_obs::StageSnapshot {
                            count: st.count,
                            items: st.items,
                            total_micros: st.total_micros,
                            self_micros: st.self_micros,
                            hist: st.hist.into_hist(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Stable wire spelling of a stage-1 decision.
pub fn filter_str(filter: FilterDecision) -> &'static str {
    match filter {
        FilterDecision::Classified => "classified",
        FilterDecision::FilteredLowSales => "filtered_low_sales",
        FilterDecision::FilteredNoPositiveEvidence => "filtered_no_evidence",
        FilterDecision::Quarantined => "quarantined",
    }
}

/// `POST /v1/score` wrapped request body. `pin_version` is how the
/// cluster router keeps one logical request on one model version across
/// shards and retries: a pinned request must be scored by exactly that
/// version (the shard answers 409 when it no longer holds it).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoreRequest {
    pub items: Vec<ScoreItem>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub pin_version: Option<u64>,
}

/// One comment text of a decoded score body.
///
/// Only [`decode_score_request`] makes the verbatim form: a string the
/// parser returned borrowed holds no `"`, no `\` and no control
/// character, so it is valid JSON string content as it stands and
/// [`write_score_request`] copies it between quotes. Every other text —
/// one that held escapes, or one borrowed from a [`ScoreItem`] — is
/// escaped on write by `serde::write_str`.
#[derive(Debug, Clone)]
pub struct WireText<'a>(Text<'a>);

#[derive(Debug, Clone)]
enum Text<'a> {
    Verbatim(&'a str),
    Escape(Cow<'a, str>),
}

impl<'a> WireText<'a> {
    /// The comment text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Text::Verbatim(s) => s,
            Text::Escape(s) => s,
        }
    }

    /// True when the text is a slice of the body it was decoded from.
    pub fn is_verbatim(&self) -> bool {
        matches!(self.0, Text::Verbatim(_))
    }

    fn into_string(self) -> String {
        match self.0 {
            Text::Verbatim(s) => s.to_owned(),
            Text::Escape(s) => s.into_owned(),
        }
    }

    fn write(&self, out: &mut String) {
        match &self.0 {
            Text::Verbatim(s) => {
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
            Text::Escape(s) => serde::write_str(out, s),
        }
    }
}

/// A [`ScoreItem`] whose comments borrow from a request body (or from an
/// owned item, through [`ScoreItem::as_wire`]).
#[derive(Debug, Clone)]
pub struct ScoreItemRef<'a> {
    /// Platform item id, echoed back in the verdict.
    pub item_id: u64,
    /// Public sales volume (stage-1 filter input).
    pub sales_volume: u64,
    /// Raw comment texts, in request order.
    pub comments: Vec<WireText<'a>>,
}

impl ScoreItemRef<'_> {
    /// The owned item, copying each comment once.
    pub fn into_owned(self) -> ScoreItem {
        ScoreItem {
            item_id: self.item_id,
            sales_volume: self.sales_volume,
            comments: self.comments.into_iter().map(WireText::into_string).collect(),
        }
    }
}

impl ScoreItem {
    /// This item as [`write_score_request`] input; its comments are
    /// escaped on write.
    pub fn as_wire(&self) -> ScoreItemRef<'_> {
        ScoreItemRef {
            item_id: self.item_id,
            sales_volume: self.sales_volume,
            comments: self
                .comments
                .iter()
                .map(|c| WireText(Text::Escape(Cow::Borrowed(c))))
                .collect(),
        }
    }
}

/// Decodes a score request body — bare array or `{"items": [...]}` with
/// an optional `pin_version` (absent, `null` or a number) — into items
/// whose comments borrow from `body`; only comments that held escapes
/// are copied. Accepts and rejects exactly what the derived
/// `Deserialize` of `Vec<ScoreItem>`, then of [`ScoreRequest`], does:
/// fields in any order, unknown fields skipped, duplicate or missing
/// ones refused, only whitespace after the value.
pub fn decode_score_request(
    body: &str,
) -> Result<(Vec<ScoreItemRef<'_>>, Option<u64>), serde::Error> {
    let mut p = Parser::new(body);
    let decoded = if p.peek()? == b'{' {
        p.begin_object()?;
        let (mut items, mut pin) = (None, None);
        while let Some(key) = p.next_key()? {
            match &*key {
                "items" => field(&mut p, &mut items, "items", read_items)?,
                "pin_version" => field(&mut p, &mut pin, "pin_version", |p| {
                    Ok(if p.try_null()? { None } else { Some(p.u64()?) })
                })?,
                _ => p.skip_value()?,
            }
        }
        (required(&p, items, "items")?, pin.flatten())
    } else {
        (read_items(&mut p)?, None)
    };
    p.finish()?;
    Ok(decoded)
}

/// Reads one struct field into its slot, refusing a second occurrence.
fn field<'a, T>(
    p: &mut Parser<'a>,
    slot: &mut Option<T>,
    name: &str,
    read: impl FnOnce(&mut Parser<'a>) -> Result<T, serde::Error>,
) -> Result<(), serde::Error> {
    if slot.is_some() {
        return Err(p.error(ErrorKind::DuplicateField, format!("duplicate field `{name}`")));
    }
    *slot = Some(read(p)?);
    Ok(())
}

fn required<T>(p: &Parser<'_>, slot: Option<T>, name: &str) -> Result<T, serde::Error> {
    slot.ok_or_else(|| p.error(ErrorKind::MissingField, format!("missing field `{name}`")))
}

fn read_items<'a>(p: &mut Parser<'a>) -> Result<Vec<ScoreItemRef<'a>>, serde::Error> {
    let mut items = Vec::new();
    p.begin_array()?;
    while p.next_element()? {
        p.begin_object()?;
        let (mut item_id, mut sales_volume, mut comments) = (None, None, None);
        while let Some(key) = p.next_key()? {
            match &*key {
                "item_id" => field(p, &mut item_id, "item_id", Parser::u64)?,
                "sales_volume" => field(p, &mut sales_volume, "sales_volume", Parser::u64)?,
                "comments" => field(p, &mut comments, "comments", read_comments)?,
                _ => p.skip_value()?,
            }
        }
        items.push(ScoreItemRef {
            item_id: required(p, item_id, "item_id")?,
            sales_volume: required(p, sales_volume, "sales_volume")?,
            comments: required(p, comments, "comments")?,
        });
    }
    Ok(items)
}

fn read_comments<'a>(p: &mut Parser<'a>) -> Result<Vec<WireText<'a>>, serde::Error> {
    let mut comments = Vec::new();
    p.begin_array()?;
    while p.next_element()? {
        comments.push(WireText(match p.string()? {
            Cow::Borrowed(s) => Text::Verbatim(s),
            owned => Text::Escape(owned),
        }));
    }
    Ok(comments)
}

/// Parses a score request body — bare array or `{"items": [...]}` —
/// returning the owned items plus the optional model-version pin.
pub fn parse_score_request(body: &str) -> Result<(Vec<ScoreItem>, Option<u64>), String> {
    let (items, pin) = decode_score_request(body).map_err(|e| format!("body: {e}"))?;
    Ok((items.into_iter().map(ScoreItemRef::into_owned).collect(), pin))
}

/// Writes a wrapped score body, `{"items":[…],"pin_version":N}` (no
/// `pin_version` when `None`) — the text `serde_json::to_string` gives
/// for the same [`ScoreRequest`], but with verbatim comments copied
/// rather than re-encoded.
pub fn write_score_request<'i, 'a: 'i>(
    items: impl IntoIterator<Item = &'i ScoreItemRef<'a>>,
    pin_version: Option<u64>,
) -> String {
    let mut out = String::from("{\"items\":[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"item_id\":{},\"sales_volume\":{},\"comments\":[",
            item.item_id, item.sales_volume
        );
        for (j, c) in item.comments.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            c.write(&mut out);
        }
        out.push_str("]}");
    }
    out.push(']');
    if let Some(pin) = pin_version {
        let _ = write!(out, ",\"pin_version\":{pin}");
    }
    out.push('}');
    out
}

/// One comment event for `POST /v1/ingest` — the streaming mirror of
/// [`cats_stream::CommentEvent`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct IngestEvent {
    /// Event time on the stream clock (virtual ms).
    pub at_ms: u64,
    /// Target item.
    pub item_id: u64,
    /// Commenting user.
    pub user_id: u64,
    /// The item's public sales volume (stage-1 filter input).
    pub sales_volume: u64,
    /// Raw comment text; segmented server-side.
    pub text: String,
}

/// `POST /v1/ingest` wrapped request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestRequest {
    pub events: Vec<IngestEvent>,
}

/// Parses an ingest request body — bare array or `{"events": [...]}`.
pub fn parse_ingest_request(body: &str) -> Result<Vec<IngestEvent>, String> {
    serde_json::from_str::<Vec<IngestEvent>>(body)
        .or_else(|_| serde_json::from_str::<IngestRequest>(body).map(|w| w.events))
        .map_err(|e| format!("body: {e}"))
}

/// `POST /v1/ingest` response body. `verdicts` is non-empty only when
/// the events pushed the stream clock over a flush boundary; it then
/// carries one incremental [`cats_core::StreamVerdict`] per item
/// touched since the previous flush (ascending item id).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestResponse {
    /// Version of the model that scored `verdicts` (the current slot
    /// version when no flush happened).
    pub model_version: u64,
    /// Events recorded into window state.
    pub accepted: u64,
    /// Events older than the long window could absorb, dropped.
    pub late_dropped: u64,
    /// The stream clock after this request (highest event time seen).
    pub watermark_ms: u64,
    /// Incremental verdicts, empty between flush boundaries.
    pub verdicts: Vec<cats_core::StreamVerdict>,
}

/// `POST /admin/load` request body: install the snapshot file at `path`
/// as model version `version`. Used by the router's rolling-swap
/// coordinator and by operators doing a manual staged deploy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdminLoadRequest {
    /// Snapshot file path, readable by the serving process.
    pub path: String,
    /// Version tag to publish it as (router-assigned, monotonic).
    pub version: u64,
}

/// `POST /admin/load` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdminLoadResponse {
    /// The version now being served.
    pub version: u64,
}

/// One shard's row in the router's `/healthz` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardHealthInfo {
    /// Shard id (position on the hash ring).
    pub id: usize,
    /// Loopback address the shard listens on.
    pub addr: String,
    /// `"live"` or `"ejected"`.
    pub state: String,
    /// Model version last observed by the health prober.
    pub model_version: u64,
}

/// Router `GET /healthz` response: a superset of the single-process
/// [`HealthResponse`] (same leading fields, so [`crate::ScoreClient`]
/// parses either) plus the cluster view.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterHealthResponse {
    /// `"ok"` while ≥1 shard is live, else `"degraded"`.
    pub status: String,
    /// Cluster-coordinated model version.
    pub model_version: u64,
    /// Queue depth summed over live shards at the last probe.
    pub queue_depth: u64,
    /// Same as `model_version` (explicit name for cluster tooling).
    pub cluster_version: u64,
    /// Number of shards currently in the `live` state.
    pub live_shards: usize,
    /// Per-shard detail.
    pub shards: Vec<ShardHealthInfo>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_request_shapes_parse() {
        let bare = r#"[{"item_id":1,"sales_volume":9,"comments":["hao"]}]"#;
        let wrapped = r#"{"items":[{"item_id":1,"sales_volume":9,"comments":["hao"]}]}"#;
        let (bare_items, bare_pin) = parse_score_request(bare).unwrap();
        let (wrapped_items, wrapped_pin) = parse_score_request(wrapped).unwrap();
        assert_eq!(bare_items, wrapped_items);
        assert_eq!(bare_items[0].item_id, 1);
        assert_eq!((bare_pin, wrapped_pin), (None, None), "no pin unless asked");
        assert!(parse_score_request("{oops").unwrap_err().starts_with("body:"));
        assert!(parse_score_request("[]").unwrap().0.is_empty(), "empty batch is legal");
    }

    #[test]
    fn ingest_request_shapes_parse() {
        let bare = r#"[{"at_ms":5,"item_id":1,"user_id":2,"sales_volume":9,"text":"hao"}]"#;
        let wrapped = format!(r#"{{"events":{bare}}}"#);
        let a = parse_ingest_request(bare).unwrap();
        let b = parse_ingest_request(&wrapped).unwrap();
        assert_eq!(a, b);
        assert_eq!(a[0].at_ms, 5);
        assert_eq!(a[0].item_id, 1);
        assert!(parse_ingest_request("{nope").unwrap_err().starts_with("body:"));
        assert!(parse_ingest_request("[]").unwrap().is_empty(), "empty batch is legal");
    }

    #[test]
    fn ingest_response_roundtrips() {
        let resp = IngestResponse {
            model_version: 2,
            accepted: 3,
            late_dropped: 1,
            watermark_ms: 60_000,
            verdicts: vec![cats_core::StreamVerdict {
                item_id: 7,
                at_ms: 60_000,
                window_comments: 4,
                cats_score: 0.25,
                velocity_risk: 0.5,
                fused_score: 0.4375,
                is_fraud: false,
            }],
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: IngestResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.accepted, 3);
        assert_eq!(back.verdicts[0].fused_score, 0.4375);
    }

    #[test]
    fn pinned_requests_carry_their_version() {
        let pinned = r#"{"items":[{"item_id":1,"sales_volume":9,"comments":[]}],"pin_version":4}"#;
        let (items, pin) = parse_score_request(pinned).unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(pin, Some(4));
        // The client-side serializer omits the pin when unset, so plain
        // clients keep producing the PR-5 wire shape byte-for-byte.
        let req = ScoreRequest { items, pin_version: None };
        assert!(!serde_json::to_string(&req).unwrap().contains("pin_version"));
        let req = ScoreRequest { pin_version: Some(9), ..req };
        assert!(serde_json::to_string(&req).unwrap().contains("\"pin_version\":9"));
    }

    #[test]
    fn wire_snapshot_roundtrips_through_json() {
        let r = cats_obs::Registry::new();
        r.counter("c").add(3);
        r.gauge("g").set(1.5);
        r.histogram("h").record(42.0);
        let snap = r.snapshot();
        let wire: WireSnapshot = (&snap).into();
        let json = serde_json::to_string(&wire).unwrap();
        let back: WireSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.into_snapshot(), snap, "lossless mirror");
    }

    #[test]
    fn filter_spelling_matches_the_cli_report_lines() {
        assert_eq!(filter_str(FilterDecision::Classified), "classified");
        assert_eq!(filter_str(FilterDecision::FilteredLowSales), "filtered_low_sales");
        assert_eq!(filter_str(FilterDecision::FilteredNoPositiveEvidence), "filtered_no_evidence");
        assert_eq!(filter_str(FilterDecision::Quarantined), "quarantined");
    }

    #[test]
    fn health_response_accepts_pre_drift_bodies() {
        // A router probing a shard built before the drift monitor must
        // still parse its health body; the new fields default.
        let old = r#"{"status":"ok","model_version":3,"queue_depth":2}"#;
        let h: HealthResponse = serde_json::from_str(old).unwrap();
        assert_eq!(h.model_version, 3);
        assert!(!h.degraded);
        assert_eq!(h.drift, "");
        let new = HealthResponse {
            status: "ok".into(),
            model_version: 3,
            queue_depth: 0,
            degraded: true,
            drift: "critical".into(),
        };
        let json = serde_json::to_string(&new).unwrap();
        let back: HealthResponse = serde_json::from_str(&json).unwrap();
        assert!(back.degraded);
        assert_eq!(back.drift, "critical");
    }

    #[test]
    fn score_response_roundtrips() {
        let resp = ScoreResponse {
            model_version: 3,
            verdicts: vec![ScoreVerdict {
                item_id: 7,
                filter: "classified".into(),
                score: 0.875,
                is_fraud: true,
            }],
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: ScoreResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.model_version, 3);
        assert_eq!(back.verdicts[0].score, 0.875);
    }
}
