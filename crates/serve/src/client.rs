//! The `deptree query` client: one JSON request with retry, jittered
//! exponential backoff, and the retryable/terminal distinction.
//!
//! Retry policy: only pure load/timing failures are retried — connect
//! refused (server restarting behind the same address), socket timeouts,
//! and responses carrying a retryable [`ErrorCode`] (`overloaded`,
//! `draining`, `timeout`). Anything else (parse errors, unknown
//! datasets, budget exhaustion, internal errors) would fail identically
//! on the next attempt, so it is terminal on the first.
//!
//! A refused connection is deliberately in the *retryable* class, on
//! par with a `draining` response: a supervised worker that crashed is
//! respawned behind the same address within its backoff budget, and a
//! gateway (or a plain `deptree query`) that hard-failed on the first
//! `ECONNREFUSED` would turn every respawn window into user-visible
//! errors. `refused_connection_is_ridden_out_across_a_respawn_window`
//! pins this contract.
//!
//! Backoff between attempts is `min(max, base · 2^attempt)` scaled by a
//! uniform jitter in `[0.5, 1.0]`, drawn from the vendored deterministic
//! PRNG so tests can pin the schedule with a seed.
//!
//! Connection reuse: the `*_pooled` variants draw idle keep-alive
//! sockets from a [`ConnPool`] instead of dialing per request, parking
//! the socket back after a response whose `Connection:` header permits
//! it. A parked socket may have been closed by the server at any moment
//! (idle window, drain, restart); a failure before the first response
//! byte on a reused socket is therefore treated as *stale* — the attempt
//! falls through to a fresh dial rather than burning a retry.

use crate::json::Json;
use crate::protocol::{
    content_length_of, read_body, read_head, wants_keep_alive, ErrorCode, FrameClock, ProtoError,
};
use deptree_synth::Rng;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Client knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `127.0.0.1:7411`.
    pub addr: String,
    /// Attempts beyond the first (3 retries = up to 4 attempts).
    pub retries: u32,
    /// First backoff step.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Socket read/write timeout per attempt (covers server compute, so
    /// it should exceed the request's `timeout_ms`).
    pub io_timeout: Duration,
    /// Absolute cap on reading one whole response frame, however slowly
    /// its bytes arrive (`io_timeout` bounds each individual read).
    pub frame_timeout: Duration,
    /// Jitter seed; equal seeds give equal backoff schedules.
    pub seed: u64,
    /// Cap on the response body the client will buffer.
    pub max_response_bytes: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:7411".to_owned(),
            retries: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(75),
            frame_timeout: Duration::from_secs(90),
            seed: 0x5eed,
            max_response_bytes: 16 * 1024 * 1024,
        }
    }
}

/// A decoded server response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Parsed JSON body.
    pub body: Json,
    /// Attempts it took (1 = first try).
    pub attempts: u32,
}

/// A request that failed for good.
#[derive(Debug)]
pub struct ClientError {
    /// The terminal error class (drives the exit code).
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Attempts made before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}, after {} attempt(s))",
            self.message,
            self.code.wire(),
            self.attempts
        )
    }
}

/// One attempt's outcome, before retry policy is applied.
enum Attempt<T> {
    /// Got a well-formed response frame.
    Done(u16, T),
    /// Failed in a way worth retrying.
    Retryable(String),
    /// Failed for good.
    Terminal(ErrorCode, String),
}

/// What the caller-specific policy decided about one well-formed
/// response, inside [`with_retries`].
enum Verdict<R> {
    /// Return this to the caller.
    Accept(R),
    /// Fail terminally with this error class.
    Fail(ErrorCode, String),
    /// Burn a retry and try again.
    Retry(String),
}

/// The one retry loop behind [`query`], [`forward`] and [`fetch_text`]:
/// run `one` up to `retries + 1` times with jittered backoff in between,
/// and let `on_done` judge each well-formed response. `on_done` receives
/// `(status, payload, attempts_so_far, may_retry)`; returning
/// [`Verdict::Retry`] when `may_retry` is false would silently exhaust
/// the loop, so policies check it before retrying on a response.
fn with_retries<T, R>(
    config: &ClientConfig,
    mut one: impl FnMut() -> Attempt<T>,
    mut on_done: impl FnMut(u16, T, u32, bool) -> Verdict<R>,
) -> Result<R, ClientError> {
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut last_retryable = String::new();
    let attempts_max = config.retries.saturating_add(1);
    for attempt in 0..attempts_max {
        if attempt > 0 {
            std::thread::sleep(backoff(config, attempt - 1, &mut rng));
        }
        match one() {
            Attempt::Done(status, payload) => {
                match on_done(status, payload, attempt + 1, attempt + 1 < attempts_max) {
                    Verdict::Accept(out) => return Ok(out),
                    Verdict::Fail(code, message) => {
                        return Err(ClientError {
                            code,
                            message,
                            attempts: attempt + 1,
                        })
                    }
                    Verdict::Retry(msg) => last_retryable = msg,
                }
            }
            Attempt::Retryable(msg) => last_retryable = msg,
            Attempt::Terminal(code, message) => {
                return Err(ClientError {
                    code,
                    message,
                    attempts: attempt + 1,
                })
            }
        }
    }
    Err(ClientError {
        code: ErrorCode::Io,
        message: format!(
            "retries exhausted after {attempts_max} attempt(s); last failure: {last_retryable}"
        ),
        attempts: attempts_max,
    })
}

/// Send `body` to `POST {path}` (or GET when `body` is `None`), retrying
/// retryable failures with jittered exponential backoff. Dials a fresh
/// connection per attempt; see [`query_pooled`] for reuse.
pub fn query(
    config: &ClientConfig,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> Result<Response, ClientError> {
    query_with(None, config, method, path, body)
}

/// [`query`] over a [`ConnPool`]: reuses an idle keep-alive connection
/// when one is parked for `config.addr`, and parks the connection back
/// after a reusable response.
pub fn query_pooled(
    pool: &ConnPool,
    config: &ClientConfig,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> Result<Response, ClientError> {
    query_with(Some(pool), config, method, path, body)
}

fn query_with(
    pool: Option<&ConnPool>,
    config: &ClientConfig,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> Result<Response, ClientError> {
    let payload = body.map(Json::render).unwrap_or_default();
    with_retries(
        config,
        || match one_wire_attempt(config, pool, method, path, Some(payload.as_bytes())) {
            Attempt::Done(status, bytes) => match parse_json_body(&bytes) {
                Ok(json) => Attempt::Done(status, json),
                Err(msg) => Attempt::Retryable(msg),
            },
            Attempt::Retryable(msg) => Attempt::Retryable(msg),
            Attempt::Terminal(code, message) => Attempt::Terminal(code, message),
        },
        |status, json, attempts, may_retry| {
            // A retryable error body still counts against the retry
            // budget: the server answered, but only to say "not now".
            if let Some(code) = response_error_code(status, &json) {
                if code.retryable() && may_retry {
                    return Verdict::Retry(format!("server answered {} ({})", status, code.wire()));
                }
                let message = json
                    .get("error")
                    .and_then(|e| e.str_field("message"))
                    .unwrap_or("request failed")
                    .to_owned();
                return Verdict::Fail(code, message);
            }
            Verdict::Accept(Response {
                status,
                body: json,
                attempts,
            })
        },
    )
}

fn parse_json_body(bytes: &[u8]) -> Result<Json, String> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| "bad response: body is not UTF-8".to_owned())?;
    Json::parse(text).map_err(|e| format!("bad response: {e}"))
}

/// The jittered exponential backoff before retry number `retry` (0-based):
/// `min(max, base · 2^retry) · uniform[0.5, 1.0]`.
pub fn backoff(config: &ClientConfig, retry: u32, rng: &mut Rng) -> Duration {
    let exp = config
        .base_backoff
        .saturating_mul(2u32.saturating_pow(retry.min(16)))
        .min(config.max_backoff);
    exp.mul_f64(rng.random_range(0.5..=1.0))
}

/// The error class of a response, if it is an error at all.
fn response_error_code(status: u16, body: &Json) -> Option<ErrorCode> {
    if let Some(code) = body
        .get("error")
        .and_then(|e| e.str_field("code"))
        .and_then(ErrorCode::from_wire)
    {
        return Some(code);
    }
    match status {
        200 => None,
        408 => Some(ErrorCode::Timeout),
        429 => Some(ErrorCode::Overloaded),
        503 => Some(ErrorCode::Draining),
        _ => Some(ErrorCode::Internal),
    }
}

/// Resolve and connect, trying every resolved address within the
/// attempt: a hostname often resolves to both an IPv6 and an IPv4
/// address while the server listens on only one family, and retrying a
/// single dead address would burn the whole retry budget. Connect
/// refused / timed out on all of them: the server may be mid-restart or
/// draining behind a balancer — worth retrying.
fn connect<T>(config: &ClientConfig) -> Result<TcpStream, Attempt<T>> {
    let addrs: Vec<SocketAddr> = match config.addr.to_socket_addrs() {
        Ok(a) => a.collect(),
        Err(e) => {
            return Err(Attempt::Terminal(
                ErrorCode::InvalidConfig,
                format!("cannot resolve `{}`: {e}", config.addr),
            ))
        }
    };
    if addrs.is_empty() {
        return Err(Attempt::Terminal(
            ErrorCode::InvalidConfig,
            format!("`{}` resolves to nothing", config.addr),
        ));
    }
    let mut stream = None;
    let mut connect_failures = Vec::new();
    for addr in &addrs {
        match TcpStream::connect_timeout(addr, config.connect_timeout) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => connect_failures.push(format!("connect to {addr}: {e}")),
        }
    }
    let Some(stream) = stream else {
        return Err(Attempt::Retryable(connect_failures.join("; ")));
    };
    if let Err(e) = stream
        .set_read_timeout(Some(config.io_timeout))
        .and_then(|()| stream.set_write_timeout(Some(config.io_timeout)))
        // No Nagle: request frames go out in one write; batching them
        // against the delayed ACK adds 40 ms to every reused-connection
        // round trip for nothing.
        .and_then(|()| stream.set_nodelay(true))
    {
        return Err(Attempt::Retryable(format!("socket setup: {e}")));
    }
    Ok(stream)
}

/// A small pool of idle keep-alive connections, keyed by server address.
/// Cloning shares the pool. Parked sockets keep their io timeouts from
/// `connect`; each round trip re-arms its own [`FrameClock`].
#[derive(Debug, Clone, Default)]
pub struct ConnPool {
    idle: Arc<Mutex<HashMap<String, Vec<TcpStream>>>>,
}

/// Idle sockets kept per address. More than a few buys nothing for a
/// closed-loop caller and pins server worker threads.
const MAX_IDLE_PER_ADDR: usize = 4;

impl ConnPool {
    /// An empty pool.
    pub fn new() -> ConnPool {
        ConnPool::default()
    }

    fn take(&self, addr: &str) -> Option<TcpStream> {
        self.lock().get_mut(addr)?.pop()
    }

    fn park(&self, addr: &str, stream: TcpStream) {
        let mut idle = self.lock();
        let conns = idle.entry(addr.to_owned()).or_default();
        if conns.len() < MAX_IDLE_PER_ADDR {
            conns.push(stream);
        }
    }

    /// Idle connections currently parked for `addr`.
    pub fn idle_count(&self, addr: &str) -> usize {
        self.lock().get(addr).map_or(0, Vec::len)
    }

    /// Drop every parked connection (the sockets close on drop).
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Vec<TcpStream>>> {
        self.idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Write one request frame. `body: None` omits the `Content-Type` /
/// `Content-Length` headers entirely (bare GET); `Some` always sends
/// both, even for an empty payload.
fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    host: &str,
    body: Option<&[u8]>,
    connection: &str,
) -> std::io::Result<()> {
    let head = match body {
        Some(payload) => format!(
            "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
            payload.len(),
        ),
        None => format!(
            "{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: {connection}\r\n\r\n"
        ),
    };
    // One write per frame (see the server's `write_raw_response`): split
    // head/body writes + Nagle + delayed ACK stall reused connections.
    let mut frame = head.into_bytes();
    if let Some(payload) = body {
        frame.extend_from_slice(payload);
    }
    stream.write_all(&frame)?;
    stream.flush()
}

/// One request/response exchange on an already-connected socket.
enum RoundTrip {
    /// A whole response frame arrived. `reusable` means its
    /// `Connection:` verdict allows keep-alive *and* no bytes beyond the
    /// frame were read (a server never sends extra bytes unprompted, so
    /// leftovers mean a desynced socket not worth keeping).
    Ok {
        status: u16,
        body: Vec<u8>,
        reusable: bool,
    },
    /// The socket died before a full response: on a reused connection
    /// this is expected staleness (server closed the parked socket), on
    /// a fresh one a retryable transport failure.
    Stale(String),
    /// A protocol-level failure with the server demonstrably alive.
    Err(ProtoError),
}

fn wire_round_trip(
    config: &ClientConfig,
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    connection: &str,
) -> RoundTrip {
    if let Err(e) = write_request(stream, method, path, &config.addr, body, connection) {
        return RoundTrip::Stale(format!("send: {e}"));
    }
    // The whole response frame gets one absolute budget on top of the
    // per-read io timeout, so a drip-feeding server cannot hold the
    // client forever. A malformed or truncated response is
    // indistinguishable from a server killed mid-write; retrying is safe
    // (requests are read-only or idempotent) and usually lands on a
    // healthy serve.
    let clock = FrameClock::start(config.io_timeout, config.frame_timeout);
    let mut carry = Vec::new();
    match read_response_frame(stream, config.max_response_bytes, &clock, &mut carry) {
        Ok(frame) => RoundTrip::Ok {
            status: frame.status,
            body: frame.body,
            reusable: frame.keep_alive && carry.is_empty(),
        },
        Err(ProtoError::Closed) => RoundTrip::Stale("connection closed mid-response".into()),
        Err(e) => RoundTrip::Err(e),
    }
}

/// One attempt at the wire level: take a pooled connection if one
/// exists, fall back to a fresh dial when the pooled socket turns out
/// stale (the server may close a parked connection at any time — that
/// must not burn a retry), park the socket back when the response allows
/// reuse.
fn one_wire_attempt(
    config: &ClientConfig,
    pool: Option<&ConnPool>,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Attempt<Vec<u8>> {
    if let Some(pool) = pool {
        if let Some(mut stream) = pool.take(&config.addr) {
            match wire_round_trip(config, &mut stream, method, path, body, "keep-alive") {
                RoundTrip::Ok {
                    status,
                    body,
                    reusable,
                } => {
                    if reusable {
                        pool.park(&config.addr, stream);
                    }
                    return Attempt::Done(status, body);
                }
                // Stale parked socket: fall through to a fresh dial
                // within the same attempt.
                RoundTrip::Stale(_) => {}
                RoundTrip::Err(e) => return attempt_of_proto(e),
            }
        }
    }
    let mut stream = match connect(config) {
        Ok(s) => s,
        Err(a) => return a,
    };
    let connection = if pool.is_some() {
        "keep-alive"
    } else {
        "close"
    };
    match wire_round_trip(config, &mut stream, method, path, body, connection) {
        RoundTrip::Ok {
            status,
            body,
            reusable,
        } => {
            if reusable {
                if let Some(pool) = pool {
                    pool.park(&config.addr, stream);
                }
            }
            Attempt::Done(status, body)
        }
        RoundTrip::Stale(msg) => Attempt::Retryable(msg),
        RoundTrip::Err(e) => attempt_of_proto(e),
    }
}

/// A response frame kept verbatim, for a proxy that must not rewrite
/// what the worker produced.
#[derive(Debug)]
pub struct RawResponse {
    /// HTTP status.
    pub status: u16,
    /// Body bytes, exactly as received.
    pub body: Vec<u8>,
    /// Attempts it took (1 = first try).
    pub attempts: u32,
}

/// Send one request and return the response frame *verbatim* — status
/// and body bytes untouched — with the same connect/retry/backoff
/// machinery as [`query`].
///
/// This is the gateway's proxy path: forwarding the worker's bytes
/// unmodified is what makes gateway↔worker byte-identity checkable.
/// Responses whose status or embedded error code is retryable
/// (`timeout`, `overloaded`, `draining`) are retried like transport
/// failures; any other response — including errors — is returned as-is,
/// because classifying it is the end client's business, not the proxy's.
pub fn forward(
    config: &ClientConfig,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<RawResponse, ClientError> {
    forward_with(None, config, method, path, body)
}

/// [`forward`] over a [`ConnPool`] — the gateway's steady-state path,
/// where dialing a worker per proxied request would dominate small-query
/// latency.
pub fn forward_pooled(
    pool: &ConnPool,
    config: &ClientConfig,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<RawResponse, ClientError> {
    forward_with(Some(pool), config, method, path, body)
}

fn forward_with(
    pool: Option<&ConnPool>,
    config: &ClientConfig,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<RawResponse, ClientError> {
    let payload = body.unwrap_or_default();
    with_retries(
        config,
        || one_wire_attempt(config, pool, method, path, Some(payload)),
        |status, bytes, attempts, may_retry| {
            if may_retry {
                if let Some(code) = raw_error_code(status, &bytes) {
                    if code.retryable() {
                        return Verdict::Retry(format!(
                            "server answered {status} ({})",
                            code.wire()
                        ));
                    }
                }
            }
            Verdict::Accept(RawResponse {
                status,
                body: bytes,
                attempts,
            })
        },
    )
}

/// Classify a raw response for the proxy's retry decision without
/// disturbing the bytes: prefer the JSON `error.code`, fall back on the
/// status line.
fn raw_error_code(status: u16, body: &[u8]) -> Option<ErrorCode> {
    if status == 200 {
        return None;
    }
    let parsed = std::str::from_utf8(body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .unwrap_or_else(Json::obj);
    response_error_code(status, &parsed)
}

/// Fetch a non-JSON endpoint — the Prometheus `/metrics` exposition — as
/// raw text, with the same connect/retry/backoff machinery as [`query`].
pub fn fetch_text(config: &ClientConfig, path: &str) -> Result<(u16, String), ClientError> {
    fetch_text_with(None, config, path)
}

/// [`fetch_text`] over a [`ConnPool`].
pub fn fetch_text_pooled(
    pool: &ConnPool,
    config: &ClientConfig,
    path: &str,
) -> Result<(u16, String), ClientError> {
    fetch_text_with(Some(pool), config, path)
}

fn fetch_text_with(
    pool: Option<&ConnPool>,
    config: &ClientConfig,
    path: &str,
) -> Result<(u16, String), ClientError> {
    with_retries(
        config,
        || one_wire_attempt(config, pool, "GET", path, None),
        |status, bytes, _attempts, _may_retry| match String::from_utf8(bytes) {
            Ok(text) => Verdict::Accept((status, text)),
            Err(_) => Verdict::Retry("response body is not UTF-8".into()),
        },
    )
}

fn attempt_of_proto<T>(e: ProtoError) -> Attempt<T> {
    match e {
        ProtoError::Timeout => Attempt::Retryable("response timed out".into()),
        ProtoError::Closed => Attempt::Retryable("connection closed mid-response".into()),
        ProtoError::Malformed(m) => Attempt::Retryable(format!("bad response: {m}")),
        ProtoError::TooLarge(what) => {
            Attempt::Terminal(ErrorCode::TooLarge, format!("response {what} too large"))
        }
        ProtoError::Io(m) => Attempt::Retryable(format!("i/o: {m}")),
    }
}

/// One decoded response frame, plus whether the server allows the
/// connection to carry another request.
struct ResponseFrame {
    status: u16,
    body: Vec<u8>,
    keep_alive: bool,
}

/// Read one response frame: status line, headers, `Content-Length` body.
/// Uses the same strict `Content-Length` rules as the server (digits
/// only, no duplicates) — a proxy that is lenient where its server is
/// strict reintroduces the smuggling ambiguity the server closed.
fn read_response_frame(
    stream: &mut TcpStream,
    max_body: usize,
    clock: &FrameClock,
    carry: &mut Vec<u8>,
) -> Result<ResponseFrame, ProtoError> {
    let head = read_head(stream, carry, 8 * 1024, clock)?;
    let head = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or_default();
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ProtoError::Malformed(format!("bad status line `{status_line}`")))?;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ProtoError::Malformed(format!("bad header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let content_length = content_length_of(&headers)?;
    let connection = headers
        .iter()
        .find(|(name, _)| name == "connection")
        .map(|(_, value)| value.as_str());
    let keep_alive = wants_keep_alive(version == "HTTP/1.0", connection);
    if content_length > max_body {
        return Err(ProtoError::TooLarge("body".into()));
    }
    let body = read_body(stream, carry, content_length, clock)?;
    Ok(ResponseFrame {
        status,
        body,
        keep_alive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(addr: &str) -> ClientConfig {
        ClientConfig {
            addr: addr.to_owned(),
            retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            connect_timeout: Duration::from_millis(200),
            io_timeout: Duration::from_millis(500),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn backoff_is_jittered_exponential_and_capped() {
        let config = ClientConfig {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(350),
            ..ClientConfig::default()
        };
        let mut rng = Rng::seed_from_u64(1);
        for retry in 0..8 {
            let cap = Duration::from_millis(100)
                .saturating_mul(2u32.pow(retry))
                .min(Duration::from_millis(350));
            let b = backoff(&config, retry, &mut rng);
            assert!(b <= cap, "retry {retry}: {b:?} > {cap:?}");
            assert!(b >= cap.mul_f64(0.5), "retry {retry}: {b:?} too small");
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let config = ClientConfig::default();
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        for retry in 0..5 {
            assert_eq!(
                backoff(&config, retry, &mut a),
                backoff(&config, retry, &mut b)
            );
        }
    }

    #[test]
    fn connect_refused_exhausts_retries_as_io() {
        // Bind-then-drop guarantees a port with nothing listening.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let err = query(&cfg(&format!("127.0.0.1:{port}")), "GET", "/healthz", None).unwrap_err();
        assert_eq!(err.code, ErrorCode::Io);
        assert_eq!(err.attempts, 3); // 1 + 2 retries
        assert!(
            err.message.contains("retries exhausted after 3 attempt(s)"),
            "the final error must surface how many attempts were made: {err}"
        );
    }

    #[test]
    fn refused_connection_is_ridden_out_across_a_respawn_window() {
        // Satellite of the gateway PR: while a supervised worker is
        // being respawned, its address answers ECONNREFUSED. The client
        // must treat that window like `draining` — retryable with
        // backoff — so the request lands once the worker is back,
        // instead of hard-failing mid-restart.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let server_addr = addr.clone();
        let server = std::thread::spawn(move || {
            // The "respawn": the server only comes up after the client
            // has already eaten at least one refused connect.
            std::thread::sleep(Duration::from_millis(300));
            crate::listener::spawn(crate::listener::ServeConfig {
                addr: server_addr,
                ..Default::default()
            })
            .unwrap()
        });
        let config = ClientConfig {
            addr,
            retries: 30,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(100),
            connect_timeout: Duration::from_millis(250),
            io_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        };
        let resp = query(&config, "GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 200);
        assert!(
            resp.attempts > 1,
            "the respawn window must have cost at least one retry"
        );
        let handle = server.join().unwrap();
        handle.drain();
        handle.join();
    }

    #[test]
    fn forward_keeps_error_bodies_verbatim_and_classifies_for_retry() {
        let body = br#"{"error":{"code":"not_found","message":"x"}}"#;
        assert_eq!(raw_error_code(404, body), Some(ErrorCode::NotFound));
        assert_eq!(raw_error_code(200, b"anything"), None);
        // Unparseable error bodies still classify from the status line.
        assert_eq!(raw_error_code(503, b"<html>"), Some(ErrorCode::Draining));
    }

    #[test]
    fn error_code_classification_prefers_the_body() {
        let body = Json::parse(r#"{"error":{"code":"parse","message":"x"}}"#).unwrap();
        assert_eq!(response_error_code(400, &body), Some(ErrorCode::Parse));
        // No body code: fall back on the status.
        let empty = Json::obj();
        assert_eq!(
            response_error_code(429, &empty),
            Some(ErrorCode::Overloaded)
        );
        assert_eq!(response_error_code(503, &empty), Some(ErrorCode::Draining));
        assert_eq!(response_error_code(200, &empty), None);
    }

    #[test]
    fn pooled_queries_reuse_one_connection() {
        let handle = crate::listener::spawn(crate::listener::ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..Default::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let config = ClientConfig {
            addr: addr.clone(),
            io_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        };
        let pool = ConnPool::new();
        for _ in 0..3 {
            let resp = query_pooled(&pool, &config, "GET", "/healthz", None).unwrap();
            assert_eq!(resp.status, 200);
        }
        assert_eq!(
            pool.idle_count(&addr),
            1,
            "three sequential queries should ride one parked connection"
        );
        handle.drain();
        handle.join();
    }

    #[test]
    fn pooled_query_falls_back_to_a_fresh_dial_on_a_stale_socket() {
        // max_requests_per_conn=1 makes the server announce
        // `Connection: close` on every reply, so nothing is ever parked
        // — and a socket parked across a server restart must be treated
        // as stale, not as a burned retry.
        let handle = crate::listener::spawn(crate::listener::ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_requests_per_conn: 1,
            ..Default::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let config = ClientConfig {
            addr: addr.clone(),
            io_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        };
        let pool = ConnPool::new();
        for _ in 0..2 {
            let resp = query_pooled(&pool, &config, "GET", "/healthz", None).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(
                resp.attempts, 1,
                "a close-per-request server must not cost retries"
            );
        }
        assert_eq!(
            pool.idle_count(&addr),
            0,
            "`Connection: close` replies are not parked"
        );
        handle.drain();
        handle.join();
    }
}
