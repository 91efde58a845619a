//! The one HTTP/1.1 front end that both [`crate::Server`] and
//! [`crate::Router`] sit behind: the bind, the accept loop, one thread
//! per connection, the request reader with its limits, the response
//! writers, and the staged shutdown. Each front end only supplies a
//! [`Handler`] that answers well-formed requests.
//!
//! Deliberately small: blocking `std::net`, one request per connection
//! (`Connection: close` on every response), no async runtime or HTTP
//! framework. The request limits are constants, the same for both
//! front ends, and every reader failure is answered with a JSON
//! [`ErrorResponse`]. The accept loop polls a non-blocking socket and
//! sleeps 5 ms whenever no connection is waiting, so stopping it only
//! takes a flag.

use crate::wire::ErrorResponse;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest request head (request line + headers) read; beyond it, 431.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest declared request body; beyond it, 413 before any body byte
/// is read.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Read timeout on every accepted socket.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Sleep between accept polls while no connection is waiting.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Name the connection list's lock reports under if it is ever poisoned.
const CONNS_LOCK: &str = "cats.serve.listener.conns";

/// What a front end does with the requests its [`Listener`] reads.
pub(crate) trait Handler: Send + Sync + 'static {
    /// Called on the accept thread for every accepted connection.
    fn accepted(&self) {}

    /// Answers one well-formed request.
    fn serve(&self, stream: &mut TcpStream, request: &Request);

    /// Called for a request the reader refused, before its JSON error
    /// is written.
    fn refused(&self) {}
}

/// One request read off its connection.
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) body: String,
    /// When its connection thread started, before the request was read.
    pub(crate) started: Instant,
}

/// A running accept loop plus its connection threads.
pub(crate) struct Listener {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Listener {
    /// Binds `addr` (port 0 lets the OS pick), then builds the handler,
    /// so a taken address fails before anything else is built. Accepts
    /// on a thread named `cats-{name}-accept`; each connection gets a
    /// thread named `cats-{name}-conn` that reads one request and hands
    /// it to the handler, which is also returned to the owner. A failed
    /// spawn of the accept thread is returned as its error.
    pub(crate) fn start<H: Handler>(
        addr: &str,
        name: &str,
        handler: impl FnOnce() -> H,
    ) -> std::io::Result<(Self, Arc<H>)> {
        let socket = TcpListener::bind(addr)?;
        socket.set_nonblocking(true)?;
        let local_addr = socket.local_addr()?;
        let handler = Arc::new(handler());
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let (stop, conns, handler) = (stop.clone(), conns.clone(), handler.clone());
            let conn_name = format!("cats-{name}-conn");
            std::thread::Builder::new()
                .name(format!("cats-{name}-accept"))
                .spawn(move || accept_loop(&socket, &stop, &conns, &conn_name, &handler))?
        };
        Ok((Self { local_addr, stop, accept_thread: Some(accept_thread), conns }, handler))
    }

    /// The bound address (resolves port 0 to the real port).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Staged shutdown: stop accepting and join the accept thread, run
    /// `drain` (the owner finishing its own work, so connection threads
    /// waiting on it get their answers), then join every connection
    /// thread.
    pub(crate) fn shutdown(&mut self, drain: impl FnOnce()) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        drain();
        let handles = std::mem::take(&mut *cats_obs::lock_recover(&self.conns, CONNS_LOCK));
        for h in handles {
            let _ = h.join();
        }
    }
}

fn accept_loop<H: Handler>(
    socket: &TcpListener,
    stop: &AtomicBool,
    conns: &Mutex<Vec<JoinHandle<()>>>,
    conn_name: &str,
    handler: &Arc<H>,
) {
    while !stop.load(Ordering::Acquire) {
        match socket.accept() {
            Ok((stream, _peer)) => {
                handler.accepted();
                let handler = handler.clone();
                let spawned = std::thread::Builder::new()
                    .name(conn_name.to_string())
                    .spawn(move || serve_connection(stream, &*handler));
                let mut hs = cats_obs::lock_recover(conns, CONNS_LOCK);
                match spawned {
                    Ok(handle) => hs.push(handle),
                    // Out of threads: this one connection is dropped (its
                    // stream went down with the closure) and the loop keeps
                    // accepting, since nothing would restart it.
                    Err(_) => cats_obs::counter("cats.serve.http.spawn_failed").inc(),
                }
                // Reap finished handlers so the list stays bounded
                // under sustained load.
                let mut i = 0;
                while i < hs.len() {
                    if hs[i].is_finished() {
                        let _ = hs.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
            }
            // `WouldBlock` (nobody waiting) or a transient accept error.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn serve_connection(mut stream: TcpStream, handler: &impl Handler) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    match read_request(&mut stream, started) {
        Ok(request) => handler.serve(&mut stream, &request),
        Err((status, msg)) => {
            handler.refused();
            write_json_error(&mut stream, status, "", &msg);
        }
    }
}

/// Parsed request head: method, path and declared body length.
struct RequestHead {
    method: String,
    path: String,
    content_length: usize,
}

/// Parses an HTTP/1.1 request head (everything before the blank line).
fn parse_head(head: &str) -> Result<RequestHead, String> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("missing request path")?.to_string();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| "bad content-length".to_string())?;
            }
        }
    }
    Ok(RequestHead { method, path, content_length })
}

/// Reads one request (head + body) off the stream.
fn read_request(stream: &mut TcpStream, started: Instant) -> Result<Request, (u16, String)> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err((431, "request head too large".into()));
        }
        let n = stream.read(&mut chunk).map_err(|e| (400, format!("read: {e}")))?;
        if n == 0 {
            return Err((400, "connection closed mid-request".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head_str = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let head = parse_head(&head_str).map_err(|e| (400, e))?;
    if head.content_length > MAX_BODY_BYTES {
        return Err((413, format!("body exceeds {MAX_BODY_BYTES} bytes")));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < head.content_length {
        let n = stream.read(&mut chunk).map_err(|e| (400, format!("read body: {e}")))?;
        if n == 0 {
            return Err((400, "connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(head.content_length);
    let body = String::from_utf8(body).map_err(|_| (400, "body is not UTF-8".to_string()))?;
    Ok(Request { method: head.method, path: head.path, body, started })
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &str,
    body: &str,
) {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{extra_headers}Connection: close\r\n\r\n",
        status_text(status),
        body.len(),
    );
    // The client may already be gone; that is its problem, not ours.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Writes `value` as a 200 JSON response.
pub(crate) fn write_json(stream: &mut TcpStream, value: &impl serde::Serialize) {
    let body = serde_json::to_string(value).expect("wire types serialize");
    write_response(stream, 200, "application/json", "", &body);
}

pub(crate) fn write_json_error(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &str,
    msg: &str,
) {
    let body = serde_json::to_string(&ErrorResponse { error: msg.to_string() })
        .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string());
    write_response(stream, status, "application/json", extra_headers, &body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing_extracts_method_path_and_length() {
        let head =
            parse_head("POST /v1/score HTTP/1.1\r\nHost: x\r\ncontent-LENGTH: 42\r\nAccept: */*")
                .unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/v1/score");
        assert_eq!(head.content_length, 42);
        let bare = parse_head("GET /healthz HTTP/1.1").unwrap();
        assert_eq!(bare.content_length, 0, "missing content-length means empty body");
        assert!(parse_head("").is_err());
        assert!(parse_head("GET").is_err(), "path is required");
        assert!(
            parse_head("POST / HTTP/1.1\r\nContent-Length: nope").is_err(),
            "unparseable length is a 400, not a silent zero"
        );
    }

    #[test]
    fn head_terminator_is_found_across_chunk_boundaries() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }

    #[test]
    fn status_lines_cover_the_codes_we_emit() {
        for code in [200, 400, 404, 405, 409, 413, 429, 431, 502, 503, 504] {
            assert!(!status_text(code).is_empty());
        }
        assert_eq!(status_text(409), "Conflict");
        assert_eq!(status_text(500), "Internal Server Error");
        assert_eq!(status_text(599), "Internal Server Error");
    }
}
