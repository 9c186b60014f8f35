//! The admin surface: live `/metrics`, `/healthz`, and `/readyz`.
//!
//! A deployed coordinator needs to answer two operational questions without
//! being attached to a debugger: *is it alive* and *is it making progress*.
//! This module provides both over plain HTTP/1.0-style GET handling on top
//! of the same nonblocking [`ByteStream`] abstraction the game traffic
//! uses, so the admin listener shares the service's single-threaded poll
//! loop and never blocks it.
//!
//! - `GET /metrics` renders the shared [`AggregatingRecorder`] as the
//!   deterministic sorted text exposition. Same-seed runs serve
//!   byte-identical bodies.
//! - `GET /healthz` is pure liveness: `200` while the service loop runs,
//!   `503` once it has finished.
//! - `GET /readyz` is readiness: `200` only while at least one session is
//!   attached, the inbound queue has room, the run is not draining, and
//!   the sweep-stall watchdog has seen apply progress within its budget.
//!   The `503` body names the first failing condition, so a probe log is
//!   diagnosable by eye.
//!
//! The health bits live in [`HealthState`], a lock-free pile of atomics
//! written by [`CoordinatorService::poll`](crate::CoordinatorService::poll)
//! and read by the admin responder — no lock is ever shared between the
//! game loop and a probe.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use oes_telemetry::{AggregatingRecorder, Telemetry};

use crate::transport::ByteStream;

/// Shared liveness/readiness bits, written by the service poll loop and
/// read by `/healthz` and `/readyz`. All operations are relaxed atomics:
/// probes want a recent view, not a synchronized one.
#[derive(Debug)]
pub struct HealthState {
    live: AtomicBool,
    draining: AtomicBool,
    stalled: AtomicBool,
    attached: AtomicU64,
    queue_depth: AtomicU64,
    queue_capacity: AtomicU64,
    stalls: AtomicU64,
}

impl Default for HealthState {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthState {
    /// A fresh state: live, not ready (nothing attached yet).
    #[must_use]
    pub fn new() -> Self {
        Self {
            live: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
            attached: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_capacity: AtomicU64::new(u64::MAX),
            stalls: AtomicU64::new(0),
        }
    }

    /// Liveness: the service loop is still running.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.live.load(Ordering::Relaxed)
    }

    /// Readiness: live, at least one attached session, queue room left,
    /// not draining, and not stalled.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.unready_reason().is_none()
    }

    /// Why `/readyz` would answer 503 right now (`None` means ready).
    #[must_use]
    pub fn unready_reason(&self) -> Option<&'static str> {
        if !self.is_live() {
            Some("not live")
        } else if self.draining.load(Ordering::Relaxed) {
            Some("draining")
        } else if self.stalled.load(Ordering::Relaxed) {
            Some("stalled: no apply progress within budget")
        } else if self.attached.load(Ordering::Relaxed) == 0 {
            Some("no attached sessions")
        } else if self.queue_depth.load(Ordering::Relaxed)
            >= self.queue_capacity.load(Ordering::Relaxed)
        {
            Some("inbound queue full")
        } else {
            None
        }
    }

    /// Currently attached (bound) sessions.
    #[must_use]
    pub fn attached(&self) -> u64 {
        self.attached.load(Ordering::Relaxed)
    }

    /// Total inbound frames backlogged across connections.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Whether the stall watchdog currently holds readiness down.
    #[must_use]
    pub fn is_stalled(&self) -> bool {
        self.stalled.load(Ordering::Relaxed)
    }

    /// How many times the watchdog has tripped over the service lifetime.
    #[must_use]
    pub fn stall_count(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Marks the service loop finished: liveness drops, readiness follows.
    pub fn set_finished(&self) {
        self.live.store(false, Ordering::Relaxed);
    }

    /// Publishes one poll cycle's snapshot of the readiness inputs.
    pub fn publish(&self, attached: u64, queue_depth: u64, queue_capacity: u64, draining: bool) {
        self.attached.store(attached, Ordering::Relaxed);
        self.queue_depth.store(queue_depth, Ordering::Relaxed);
        self.queue_capacity
            .store(queue_capacity.max(1), Ordering::Relaxed);
        self.draining.store(draining, Ordering::Relaxed);
    }

    /// Flips the stall bit; counts the trip on a rising edge.
    pub fn set_stalled(&self, stalled: bool) {
        let was = self.stalled.swap(stalled, Ordering::Relaxed);
        if stalled && !was {
            self.stalls.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One admin connection: request bytes in, one response out, then close.
struct AdminConn {
    stream: Box<dyn ByteStream>,
    request: Vec<u8>,
    outbox: VecDeque<u8>,
    responded: bool,
    open: bool,
    /// Virtual-clock time the connection was first polled; the request must
    /// complete within [`AdminServer::idle_timeout_us`] of this or the
    /// connection is reaped.
    first_polled_us: Option<u64>,
}

impl AdminConn {
    fn new(stream: Box<dyn ByteStream>) -> Self {
        Self {
            stream,
            request: Vec::new(),
            outbox: VecDeque::new(),
            responded: false,
            open: true,
            first_polled_us: None,
        }
    }
}

/// A nonblocking responder for the three admin endpoints.
///
/// Feed it accepted streams via [`accept`](Self::accept) and call
/// [`poll`](Self::poll) from the same loop that drives the service; it
/// reads whatever bytes are available, answers complete requests, flushes
/// as far as the transport allows, and closes each connection after its
/// response drains (`Connection: close` semantics — one request per
/// connection, which is exactly what probes and `curl` do).
pub struct AdminServer {
    health: Arc<HealthState>,
    metrics: Arc<AggregatingRecorder>,
    telemetry: Telemetry,
    conns: Vec<AdminConn>,
    idle_timeout_us: u64,
}

impl std::fmt::Debug for AdminServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminServer")
            .field("connections", &self.conns.len())
            .finish_non_exhaustive()
    }
}

/// Largest request head the admin listener will buffer before dropping the
/// connection; probes send a few hundred bytes at most.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Default request-completion deadline: a connection that has not produced
/// a complete request within this many virtual-clock microseconds of its
/// first poll is reaped. Probes complete in one round trip; anything slower
/// (an idle socket, a slow-loris trickle) is holding a conn slot hostage.
pub const ADMIN_IDLE_TIMEOUT_US: u64 = 5_000_000;

impl AdminServer {
    /// Builds a responder over the shared health bits and metrics
    /// aggregator. Request/bad-request counters land in `telemetry` under
    /// `service.admin.*`.
    #[must_use]
    pub fn new(
        health: Arc<HealthState>,
        metrics: Arc<AggregatingRecorder>,
        telemetry: Telemetry,
    ) -> Self {
        Self {
            health,
            metrics,
            telemetry,
            conns: Vec::new(),
            idle_timeout_us: ADMIN_IDLE_TIMEOUT_US,
        }
    }

    /// Overrides the request-completion deadline
    /// ([`ADMIN_IDLE_TIMEOUT_US`] by default).
    #[must_use]
    pub fn with_idle_timeout_us(mut self, idle_timeout_us: u64) -> Self {
        self.idle_timeout_us = idle_timeout_us;
        self
    }

    /// The shared health bits this responder reads.
    #[must_use]
    pub fn health(&self) -> &Arc<HealthState> {
        &self.health
    }

    /// Registers an accepted admin connection.
    pub fn accept(&mut self, stream: Box<dyn ByteStream>) {
        self.conns.push(AdminConn::new(stream));
    }

    /// Admin connections still open.
    #[must_use]
    pub fn open_conns(&self) -> usize {
        self.conns.iter().filter(|c| c.open).count()
    }

    /// One nonblocking cycle: read, respond, flush, reap. Never blocks.
    ///
    /// `now_us` is the caller's clock (the same virtual clock that drives
    /// the service deadlines): a connection that has not completed a
    /// request within the idle timeout of its first poll is reaped, so an
    /// idle or byte-trickling client cannot hold a conn slot forever.
    pub fn poll(&mut self, now_us: u64) {
        for i in 0..self.conns.len() {
            let first = *self.conns[i].first_polled_us.get_or_insert(now_us);
            self.read_request(i);
            self.respond(i);
            Self::flush(&mut self.conns[i]);
            let timed_out = {
                let conn = &self.conns[i];
                conn.open && !conn.responded && now_us.saturating_sub(first) >= self.idle_timeout_us
            };
            if timed_out {
                self.telemetry.counter("service.admin.idle_timeout", -1, 1);
                let conn = &mut self.conns[i];
                conn.stream.shutdown();
                conn.open = false;
            }
        }
        self.conns
            .retain(|c| c.open && !(c.responded && c.outbox.is_empty()));
    }

    fn read_request(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        if !conn.open || conn.responded {
            return;
        }
        let mut buf = [0u8; 1024];
        loop {
            match conn.stream.read_some(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    conn.request.extend_from_slice(&buf[..n]);
                    if conn.request.len() > MAX_REQUEST_BYTES {
                        self.telemetry.counter("service.admin.bad_request", -1, 1);
                        conn.open = false;
                        return;
                    }
                }
                Err(_) => {
                    conn.open = false;
                    return;
                }
            }
        }
    }

    fn respond(&mut self, i: usize) {
        let head_len = {
            let conn = &self.conns[i];
            if !conn.open || conn.responded {
                return;
            }
            let Some(len) = find_head_end(&conn.request) else {
                return;
            };
            len
        };
        let head = String::from_utf8_lossy(&self.conns[i].request[..head_len]).into_owned();
        let response = match parse_request_line(&head) {
            Some((method @ ("GET" | "HEAD"), path)) => {
                self.telemetry.counter("service.admin.request", -1, 1);
                let full = self.route(path);
                if method == "HEAD" {
                    // Headers only, `content-length` still describing the
                    // body a GET would have returned (RFC 9110 §9.3.2).
                    strip_body(full)
                } else {
                    full
                }
            }
            Some(_) => {
                self.telemetry.counter("service.admin.bad_request", -1, 1);
                http_response(405, "text/plain", "method not allowed\n")
            }
            None => {
                self.telemetry.counter("service.admin.bad_request", -1, 1);
                http_response(400, "text/plain", "bad request\n")
            }
        };
        let conn = &mut self.conns[i];
        conn.outbox.extend(response.into_bytes());
        conn.responded = true;
        conn.request.clear();
    }

    fn route(&self, path: &str) -> String {
        match path {
            "/metrics" => http_response(200, "text/plain; version=0.0.4", &self.metrics.render()),
            "/healthz" => {
                if self.health.is_live() {
                    http_response(200, "text/plain", "ok\n")
                } else {
                    http_response(503, "text/plain", "finished\n")
                }
            }
            "/readyz" => match self.health.unready_reason() {
                None => http_response(200, "text/plain", "ready\n"),
                Some(reason) => http_response(503, "text/plain", &format!("{reason}\n")),
            },
            _ => http_response(404, "text/plain", "not found\n"),
        }
    }

    fn flush(conn: &mut AdminConn) {
        if !conn.open {
            return;
        }
        while !conn.outbox.is_empty() {
            // Write straight out of the deque's contiguous front — no
            // per-poll copy of the (possibly large) /metrics body.
            let (front, _) = conn.outbox.as_slices();
            let chunk = &front[..front.len().min(4096)];
            match conn.stream.write_some(chunk) {
                Ok(0) => break,
                Ok(n) => {
                    conn.outbox.drain(..n);
                }
                Err(_) => {
                    conn.open = false;
                    return;
                }
            }
        }
        if conn.responded && conn.outbox.is_empty() {
            conn.stream.shutdown();
        }
    }
}

/// Truncates a rendered response to its head (through the blank line), for
/// `HEAD` responses.
fn strip_body(response: String) -> String {
    match response.find("\r\n\r\n") {
        Some(p) => {
            let mut head = response;
            head.truncate(p + 4);
            head
        }
        None => response,
    }
}

/// The byte length of the request head including the blank line, if the
/// head is complete.
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| bytes.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

/// Splits `GET /path HTTP/1.x` into method and path (query stripped).
fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_ascii_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let path = target.split('?').next().unwrap_or(target);
    Some((method, path))
}

fn http_response(status: u16, content_type: &str, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Service Unavailable",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;

    fn request(server: &mut AdminServer, req: &str) -> String {
        let (mut probe, serviced) = loopback_pair(1 << 16);
        server.accept(Box::new(serviced));
        probe.write_some(req.as_bytes()).unwrap();
        server.poll(0);
        let mut buf = [0u8; 65536];
        let mut out = Vec::new();
        loop {
            match probe.read_some(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
            }
        }
        String::from_utf8(out).unwrap()
    }

    fn server() -> AdminServer {
        AdminServer::new(
            Arc::new(HealthState::new()),
            Arc::new(AggregatingRecorder::new(1)),
            Telemetry::disabled(),
        )
    }

    #[test]
    fn healthz_tracks_liveness() {
        let mut s = server();
        let ok = request(&mut s, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert!(ok.ends_with("ok\n"));
        s.health().set_finished();
        let down = request(&mut s, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(down.starts_with("HTTP/1.1 503"), "{down}");
    }

    #[test]
    fn readyz_names_the_failing_condition() {
        let mut s = server();
        let idle = request(&mut s, "GET /readyz HTTP/1.1\r\n\r\n");
        assert!(idle.starts_with("HTTP/1.1 503"), "{idle}");
        assert!(idle.contains("no attached sessions"), "{idle}");
        s.health().publish(2, 0, 1024, false);
        let ready = request(&mut s, "GET /readyz HTTP/1.1\r\n\r\n");
        assert!(ready.starts_with("HTTP/1.1 200"), "{ready}");
        s.health().set_stalled(true);
        let stalled = request(&mut s, "GET /readyz HTTP/1.1\r\n\r\n");
        assert!(stalled.contains("stalled"), "{stalled}");
        assert_eq!(s.health().stall_count(), 1);
        s.health().set_stalled(false);
        let again = request(&mut s, "GET /readyz HTTP/1.1\r\n\r\n");
        assert!(again.starts_with("HTTP/1.1 200"), "recovery: {again}");
        assert_eq!(s.health().stall_count(), 1, "recovery is not a new trip");
    }

    #[test]
    fn metrics_serves_the_aggregator_rendering() {
        let health = Arc::new(HealthState::new());
        let metrics = Arc::new(AggregatingRecorder::new(2));
        let telemetry = Telemetry::new(metrics.clone());
        telemetry.counter("service.offer", -1, 3);
        let mut s = AdminServer::new(health, metrics.clone(), Telemetry::disabled());
        let body = request(&mut s, "GET /metrics HTTP/1.1\r\nhost: x\r\n\r\n");
        assert!(body.starts_with("HTTP/1.1 200"), "{body}");
        let payload = body.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(payload, metrics.render());
        assert!(payload.contains("oes_counter{name=\"service.offer\"} 3"));
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let mut s = server();
        assert!(request(&mut s, "GET /nope HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 404"));
        assert!(request(&mut s, "POST /metrics HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
        assert!(request(&mut s, "garbage\r\n\r\n").starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn partial_requests_wait_and_connections_close_after_response() {
        let mut s = server();
        let (mut probe, serviced) = loopback_pair(1 << 16);
        s.accept(Box::new(serviced));
        probe.write_some(b"GET /healthz HT").unwrap();
        s.poll(0);
        assert_eq!(s.open_conns(), 1, "incomplete request keeps waiting");
        let mut buf = [0u8; 1024];
        assert_eq!(probe.read_some(&mut buf).unwrap(), 0, "no early response");
        probe.write_some(b"TP/1.1\r\n\r\n").unwrap();
        s.poll(1);
        let n = probe.read_some(&mut buf).unwrap();
        assert!(std::str::from_utf8(&buf[..n])
            .unwrap()
            .starts_with("HTTP/1.1 200"));
        assert_eq!(s.open_conns(), 0, "connection closes once flushed");
    }

    #[test]
    fn head_returns_headers_only_with_get_content_length() {
        let mut s = server();
        let get = request(&mut s, "GET /healthz HTTP/1.1\r\n\r\n");
        let head = request(&mut s, "HEAD /healthz HTTP/1.1\r\n\r\n");
        let get_head = get.split("\r\n\r\n").next().unwrap();
        assert_eq!(
            head,
            format!("{get_head}\r\n\r\n"),
            "HEAD must be the GET response minus the body"
        );
        assert!(
            head.contains("content-length: 3"),
            "content-length still describes the GET body `ok\\n`: {head}"
        );
        // The same holds on a body-bearing endpoint.
        let head_metrics = request(&mut s, "HEAD /metrics HTTP/1.1\r\n\r\n");
        assert!(head_metrics.starts_with("HTTP/1.1 200"), "{head_metrics}");
        assert!(
            head_metrics.ends_with("\r\n\r\n"),
            "no body after the blank line: {head_metrics}"
        );
    }

    #[test]
    fn idle_connections_are_reaped_after_the_deadline() {
        let mut s = server().with_idle_timeout_us(1_000);
        let (mut probe, serviced) = loopback_pair(1 << 16);
        s.accept(Box::new(serviced));
        // Zero bytes sent: the connection may wait, but not forever.
        s.poll(0);
        assert_eq!(s.open_conns(), 1, "within the deadline");
        s.poll(999);
        assert_eq!(s.open_conns(), 1, "still within the deadline");
        s.poll(1_000);
        assert_eq!(s.open_conns(), 0, "reaped at the deadline");
        let mut buf = [0u8; 64];
        assert!(
            matches!(probe.read_some(&mut buf), Ok(0) | Err(_)),
            "no response bytes, stream shut down"
        );
    }

    #[test]
    fn trickling_bytes_do_not_extend_the_deadline() {
        // Slow-loris shape: the client keeps the connection "active" with
        // one header byte per poll but never completes the request. The
        // deadline is measured from first poll, not last activity.
        let mut s = server().with_idle_timeout_us(500);
        let (mut probe, serviced) = loopback_pair(1 << 16);
        s.accept(Box::new(serviced));
        let req = b"GET /metrics HTTP/1.1\r\nx-pad: aaaa"; // never completed
        let mut t = 0u64;
        for byte in req.iter() {
            probe.write_some(std::slice::from_ref(byte)).unwrap();
            s.poll(t);
            assert_eq!(s.open_conns(), 1, "incomplete request within deadline");
            t += 10;
        }
        s.poll(500);
        assert_eq!(s.open_conns(), 0, "trickler reaped at the deadline");
        // A well-behaved probe on a fresh connection is unaffected.
        let ok = request(&mut s, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
    }
}
