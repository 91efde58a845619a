//! Tiny blocking HTTP client for the scoring service.
//!
//! This is the counterpart of [`crate::http`]: one request per
//! connection, `Connection: close`, read-to-EOF. It exists so
//! `cats-cli score`, the `exp_serve` load generator, the router and
//! the integration tests all speak the wire format through one typed
//! implementation instead of hand-rolled socket loops. Score bodies
//! are written by [`crate::wire::write_score_request`], borrowing each
//! item's comments rather than cloning them; the router hands its own
//! pre-written sub-request bodies to the same exchange.
//!
//! Errors are typed finely enough for a retry policy to act on them:
//! [`ClientError::TimedOut`] means the peer is *slow* (it may still
//! answer — retrying elsewhere risks duplicate work), while
//! [`ClientError::Disconnected`] means the peer *died mid-exchange*
//! (the request was definitely not answered — safe and necessary to
//! replay). The cluster router's failover path is built on exactly
//! this distinction.

use crate::wire::{
    write_score_request, AdminLoadRequest, AdminLoadResponse, HealthResponse, ScoreItem,
    ScoreResponse, WireSnapshot,
};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What went wrong with a client call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Connection or socket failure (could not even start the exchange).
    Io(String),
    /// The peer accepted the connection but did not answer within the
    /// read timeout. The peer is slow, not necessarily dead.
    TimedOut(String),
    /// The connection dropped mid-exchange: reset, or EOF before a
    /// complete response arrived. The request was not answered.
    Disconnected(String),
    /// The server answered, but not with a 2xx.
    Http {
        /// Response status code (429 and 503 are the backpressure ones).
        status: u16,
        /// Raw response body (usually a JSON `{"error": ...}`).
        body: String,
    },
    /// The server answered 2xx but the body did not parse.
    Parse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io: {e}"),
            Self::TimedOut(e) => write!(f, "timed out: {e}"),
            Self::Disconnected(e) => write!(f, "disconnected: {e}"),
            Self::Http { status, body } => write!(f, "http {status}: {body}"),
            Self::Parse(e) => write!(f, "parse: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Maps a post-connect socket error to slow-vs-dead: a timeout kind is
/// [`ClientError::TimedOut`], anything else (reset, broken pipe, abort)
/// is [`ClientError::Disconnected`].
fn classify_io(context: &str, e: &std::io::Error) -> ClientError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            ClientError::TimedOut(format!("{context}: {e}"))
        }
        _ => ClientError::Disconnected(format!("{context}: {e}")),
    }
}

/// Blocking client for one `cats-serve` endpoint.
#[derive(Debug, Clone)]
pub struct ScoreClient {
    addr: String,
    timeout: Duration,
    connect_timeout: Option<Duration>,
}

impl ScoreClient {
    /// A client for `addr` (`host:port`) with a 60 s I/O timeout.
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into(), timeout: Duration::from_secs(60), connect_timeout: None }
    }

    /// Overrides the per-call read/write timeout (and the connect
    /// timeout, unless [`ScoreClient::with_connect_timeout`] set one).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Overrides the connect timeout independently of the I/O timeout —
    /// a router probing a possibly-dead shard wants a tight connect
    /// bound without capping legitimate scoring time.
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// The endpoint this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// `POST /v1/score`: returns the verdicts or a typed error (429 and
    /// 503 surface as [`ClientError::Http`] with that status).
    pub fn score(&self, items: &[ScoreItem]) -> Result<ScoreResponse, ClientError> {
        self.score_body(&write_score_request(&wire_items(items), None))
    }

    /// [`ScoreClient::score`] pinned to one model version: the server
    /// scores with exactly that generation or answers 409.
    pub fn score_pinned(
        &self,
        items: &[ScoreItem],
        pin_version: u64,
    ) -> Result<ScoreResponse, ClientError> {
        self.score_body(&write_score_request(&wire_items(items), Some(pin_version)))
    }

    /// `POST /v1/score` with a body that is already written — the
    /// router builds each sub-request body once and re-sends it as is
    /// on failover.
    pub(crate) fn score_body(&self, body: &str) -> Result<ScoreResponse, ClientError> {
        let (status, resp_body) = self.request("POST", "/v1/score", Some(body))?;
        if status != 200 {
            return Err(ClientError::Http { status, body: resp_body });
        }
        serde_json::from_str(&resp_body).map_err(|e| ClientError::Parse(e.to_string()))
    }

    /// `GET /healthz`.
    pub fn health(&self) -> Result<HealthResponse, ClientError> {
        let (status, body) = self.request("GET", "/healthz", None)?;
        if status != 200 {
            return Err(ClientError::Http { status, body });
        }
        serde_json::from_str(&body).map_err(|e| ClientError::Parse(e.to_string()))
    }

    /// `GET /metrics`: the raw Prometheus exposition text.
    pub fn metrics(&self) -> Result<String, ClientError> {
        let (status, body) = self.request("GET", "/metrics", None)?;
        if status != 200 {
            return Err(ClientError::Http { status, body });
        }
        Ok(body)
    }

    /// `GET /metrics.json`: the peer's full metrics snapshot, ready for
    /// [`cats_obs::Snapshot::merge`].
    pub fn metrics_snapshot(&self) -> Result<WireSnapshot, ClientError> {
        let (status, body) = self.request("GET", "/metrics.json", None)?;
        if status != 200 {
            return Err(ClientError::Http { status, body });
        }
        serde_json::from_str(&body).map_err(|e| ClientError::Parse(e.to_string()))
    }

    /// `POST /admin/load`: install a snapshot file as a tagged version.
    pub fn admin_load(&self, path: &str, version: u64) -> Result<AdminLoadResponse, ClientError> {
        let req = AdminLoadRequest { path: path.to_string(), version };
        let body = serde_json::to_string(&req).map_err(|e| ClientError::Parse(e.to_string()))?;
        let (status, resp_body) = self.request("POST", "/admin/load", Some(&body))?;
        if status != 200 {
            return Err(ClientError::Http { status, body: resp_body });
        }
        serde_json::from_str(&resp_body).map_err(|e| ClientError::Parse(e.to_string()))
    }

    /// One request/response exchange; returns (status, body).
    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ClientError> {
        let mut stream = self.connect()?;
        stream.set_read_timeout(Some(self.timeout)).map_err(|e| ClientError::Io(e.to_string()))?;
        stream.set_write_timeout(Some(self.timeout)).map_err(|e| ClientError::Io(e.to_string()))?;
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            self.addr,
            body.len(),
        );
        stream.write_all(request.as_bytes()).map_err(|e| classify_io("write request", &e))?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).map_err(|e| classify_io("read response", &e))?;
        parse_response(&raw)
    }

    /// Connects with the connect timeout (explicit one, else the I/O
    /// timeout), trying every resolved address.
    fn connect(&self) -> Result<TcpStream, ClientError> {
        let timeout = self.connect_timeout.unwrap_or(self.timeout);
        let addrs = self
            .addr
            .to_socket_addrs()
            .map_err(|e| ClientError::Io(format!("resolve {}: {e}", self.addr)))?;
        let mut last = None;
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(s) => return Ok(s),
                Err(e) => last = Some(e),
            }
        }
        Err(match last {
            Some(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                ClientError::TimedOut(format!("connect {}: {e}", self.addr))
            }
            Some(e) => ClientError::Io(format!("connect {}: {e}", self.addr)),
            None => ClientError::Io(format!("connect {}: no addresses resolved", self.addr)),
        })
    }
}

/// Borrows `items` for [`write_score_request`], without copying a
/// comment.
fn wire_items(items: &[ScoreItem]) -> Vec<crate::wire::ScoreItemRef<'_>> {
    items.iter().map(ScoreItem::as_wire).collect()
}

/// Splits a raw HTTP/1.1 response into (status, body), verifying the
/// body is complete against the declared `Content-Length` — a short
/// body means the peer died mid-response, which must surface as
/// [`ClientError::Disconnected`], never as a quiet truncated success.
fn parse_response(raw: &[u8]) -> Result<(u16, String), ClientError> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(|| {
        ClientError::Disconnected("connection closed before the response head completed".into())
    })?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let status_line = head.lines().next().unwrap_or_default();
    // "HTTP/1.1 200 OK" — the status code is the second token.
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::Parse(format!("bad status line: {status_line}")))?;
    let body = String::from_utf8_lossy(&raw[head_end + 4..]).into_owned();
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let declared: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| ClientError::Parse(format!("bad content-length: {value}")))?;
                if body.len() < declared {
                    return Err(ClientError::Disconnected(format!(
                        "connection closed mid-body: got {} of {declared} bytes",
                        body.len()
                    )));
                }
            }
        }
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn response_parsing_handles_status_and_body() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\nhi";
        let (status, body) = parse_response(raw).unwrap();
        assert_eq!(status, 429);
        assert_eq!(body, "hi");
        assert!(parse_response(b"garbage with no terminator").is_err());
        assert!(parse_response(b"NOT-HTTP\r\n\r\n").is_err());
    }

    #[test]
    fn truncated_body_is_a_disconnect_not_a_short_success() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhalf";
        match parse_response(raw) {
            Err(ClientError::Disconnected(msg)) => assert!(msg.contains("mid-body"), "{msg}"),
            other => panic!("expected Disconnected, got {other:?}"),
        }
        // A missing head terminator is the same failure, earlier.
        match parse_response(b"HTTP/1.1 200 OK\r\nContent-") {
            Err(ClientError::Disconnected(_)) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn connect_failure_is_a_typed_io_error() {
        // Port 1 on localhost is essentially never listening.
        let client = ScoreClient::new("127.0.0.1:1").with_timeout(Duration::from_millis(200));
        match client.health() {
            Err(ClientError::Io(msg)) => assert!(msg.contains("connect")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn slow_peer_times_out_dead_peer_disconnects() {
        // Slow: a listener that accepts and never answers → TimedOut.
        let slow = TcpListener::bind("127.0.0.1:0").unwrap();
        let slow_addr = slow.local_addr().unwrap().to_string();
        let slow_thread = std::thread::spawn(move || {
            let (stream, _) = slow.accept().unwrap();
            std::thread::sleep(Duration::from_millis(500));
            drop(stream);
        });
        let client = ScoreClient::new(slow_addr).with_timeout(Duration::from_millis(100));
        match client.health() {
            Err(ClientError::TimedOut(_)) => {}
            other => panic!("expected TimedOut from a silent peer, got {other:?}"),
        }
        slow_thread.join().unwrap();

        // Dead: a listener that sends half a response and drops the
        // connection → Disconnected.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap().to_string();
        let dead_thread = std::thread::spawn(move || {
            let (mut stream, _) = dead.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort");
            // Dropping here resets/closes the socket mid-body.
        });
        let client = ScoreClient::new(dead_addr).with_timeout(Duration::from_secs(5));
        match client.health() {
            Err(ClientError::Disconnected(_)) => {}
            other => panic!("expected Disconnected from a dying peer, got {other:?}"),
        }
        dead_thread.join().unwrap();
    }

    #[test]
    fn connect_timeout_is_independent_of_io_timeout() {
        let client = ScoreClient::new("127.0.0.1:1")
            .with_timeout(Duration::from_secs(60))
            .with_connect_timeout(Duration::from_millis(50));
        // Refused immediately on loopback — just verify it stays typed.
        assert!(matches!(client.health(), Err(ClientError::Io(_))));
    }
}
