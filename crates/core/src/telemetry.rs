//! Zero-dependency live telemetry endpoint for the serve loop.
//!
//! A deliberately minimal HTTP/1.1 listener — `std::net::TcpListener`,
//! no framework, no async — bound for the duration of one [`serve`]
//! call when [`ServeConfig::telemetry_addr`] is set. It answers:
//!
//! * `GET /metrics` — the engine's metric registry (plus the rolling
//!   SLO gauges, tail-sampler tallies, and cache counters) in
//!   Prometheus text exposition format;
//! * `GET /health` — one JSON object with breaker state, live queue
//!   depth/capacity, worker count, and flight-recorder occupancy;
//! * `GET /slo` — the rolling SLO windows as JSON (quantiles, rates,
//!   attainment, burn rate);
//! * `GET /flight` — the flight recorder's ring as JSON.
//!
//! The listener runs on one thread with a non-blocking accept loop that
//! polls a stop flag, so shutdown is bounded by one poll interval plus
//! the connection in hand; each connection is handled synchronously,
//! with a 2 s deadline on its whole request head (a client that has not
//! sent it by then gets 400) and a 2 s write timeout (scrapes are
//! small and local — concurrency here would buy nothing
//! but lock traffic against the serving path). Requests never touch
//! the query queue: a scrape cannot slow a query beyond the shared
//! mutex blips, and a stuck scraper cannot wedge the drain.
//!
//! [`serve`]: crate::serve::serve
//! [`ServeConfig::telemetry_addr`]: crate::serve::ServeConfig::telemetry_addr

use crate::algorithm::GpSsnEngine;
use crate::breaker::BreakerState;
use crate::serve::ServeObs;
use gpssn_obs::Registry;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Everything a scrape needs, borrowed from the serve call.
pub(crate) struct TelemetryCtx<'a, 'e> {
    pub engine: &'a GpSsnEngine<'e>,
    pub tele: &'a ServeObs,
    pub queue_capacity: usize,
    pub workers: usize,
}

/// How long the accept loop sleeps between polls of the stop flag.
const POLL: Duration = Duration::from_millis(10);
/// Deadline for a connection's whole request head, and the write
/// timeout — scrapes are local and small. A deadline rather than a
/// per-`read` timeout: a client trickling one byte at a time must not
/// hold the single listener thread (and so `serve`'s return) for long.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);
/// Cap on the request head we are willing to buffer.
const MAX_HEAD: usize = 8 * 1024;

/// Accept-and-serve loop; returns when `stop` flips. Individual
/// connection errors are dropped (the scraper retries; the service
/// must not care).
pub(crate) fn run_listener(listener: TcpListener, stop: &AtomicBool, ctx: TelemetryCtx<'_, '_>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handle_connection(stream, &ctx);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

fn handle_connection(mut stream: TcpStream, ctx: &TelemetryCtx<'_, '_>) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let head = match read_head(&mut stream) {
        Ok(h) => h,
        Err(_) => {
            return write_response(
                &mut stream,
                "400 Bad Request",
                "text/plain; charset=utf-8",
                "malformed request\n",
            );
        }
    };
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return write_response(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    }
    // Ignore any query string: scrape endpoints take no parameters.
    let path = path.split('?').next().unwrap_or("");
    match path {
        "/metrics" => write_response(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &metrics_prometheus(ctx.engine, ctx.tele),
        ),
        "/health" => write_response(&mut stream, "200 OK", "application/json", &health_json(ctx)),
        "/slo" => {
            let body = format!("{}\n", ctx.tele.slo().to_json(ctx.tele.slo().now_ns()));
            write_response(&mut stream, "200 OK", "application/json", &body)
        }
        "/flight" => {
            let body = format!("{}\n", ctx.tele.flight().to_json());
            write_response(&mut stream, "200 OK", "application/json", &body)
        }
        _ => write_response(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "routes: /metrics /health /slo /flight\n",
        ),
    }
}

/// What [`read_head`] reads: a connection whose reads can be bounded in
/// time.
trait HeadSource: Read {
    fn set_read_timeout(&mut self, timeout: Duration) -> std::io::Result<()>;
}

impl HeadSource for TcpStream {
    fn set_read_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, Some(timeout))
    }
}

/// Reads the request head (through the blank line, or up to
/// [`MAX_HEAD`] bytes) within [`SOCKET_TIMEOUT`] of the call; the routes
/// take no bodies, so anything after it is ignored.
fn read_head(stream: &mut impl HeadSource) -> std::io::Result<String> {
    let deadline = Instant::now() + SOCKET_TIMEOUT;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(left)?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_HEAD {
            break;
        }
    }
    if buf.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "empty request",
        ));
    }
    String::from_utf8(buf)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn breaker_label(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half_open",
    }
}

/// The registry snapshot a scrape reports: the engine's live registry
/// (refreshed with the cache counters and the serve-layer gauges) when
/// a metrics sink is attached and on, otherwise a scratch registry
/// holding just the always-on serve-layer series.
fn scrape_snapshot(engine: &GpSsnEngine<'_>, tele: &ServeObs) -> gpssn_obs::Snapshot {
    match engine.obs_handle().filter(|o| o.metrics_on()) {
        Some(obs) => {
            engine.publish_cache_metrics();
            tele.publish(obs.base_registry());
            obs.base_registry().snapshot()
        }
        None => {
            let reg = Registry::new();
            tele.publish(&reg);
            reg.snapshot()
        }
    }
}

/// `GET /metrics` body (Prometheus text exposition format).
pub(crate) fn metrics_prometheus(engine: &GpSsnEngine<'_>, tele: &ServeObs) -> String {
    scrape_snapshot(engine, tele).to_prometheus()
}

/// The same snapshot as one JSON document (the `metrics` control
/// line). `Snapshot::to_json` ends with a newline for file sinks;
/// control replies embed the document mid-line, so it is trimmed.
pub(crate) fn metrics_json(engine: &GpSsnEngine<'_>, tele: &ServeObs) -> String {
    scrape_snapshot(engine, tele)
        .to_json()
        .trim_end()
        .to_string()
}

/// `GET /health` body: liveness plus the state a load balancer or
/// on-call human checks first.
pub(crate) fn health_json(ctx: &TelemetryCtx<'_, '_>) -> String {
    let breaker = ctx.engine.ch_breaker().state();
    let status = match breaker {
        BreakerState::Closed | BreakerState::HalfOpen => "ok",
        BreakerState::Open => "degraded",
    };
    format!(
        "{{\"status\":\"{}\",\"breaker\":\"{}\",\"queue_depth\":{},\"queue_capacity\":{},\
         \"workers\":{},\"flight_records\":{},\"flight_evicted\":{}}}\n",
        status,
        breaker_label(breaker),
        ctx.tele.queue_depth(),
        ctx.queue_capacity,
        ctx.workers,
        ctx.tele.flight().len(),
        ctx.tele.flight().dropped(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::ErrorKind;

    /// A client's bytes, delivered `chunk` at a time.
    struct Client<'a> {
        bytes: &'a [u8],
        chunk: usize,
    }

    impl Read for Client<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    impl HeadSource for Client<'_> {
        fn set_read_timeout(&mut self, _: Duration) -> std::io::Result<()> {
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any bytes (or printable ones), up to three times the head
        /// cap, with or without a blank line, in any chunking: a head or
        /// a typed error, never a panic, and never more than the cap
        /// plus one read.
        #[test]
        fn read_head_never_panics(
            raw in collection::vec(0u8..=255, 0..3 * MAX_HEAD),
            printable in 0u8..2,
            blank_line_at in 0usize..6 * MAX_HEAD,
            chunk in 1usize..1024,
        ) {
            let mut bytes: Vec<u8> = match printable {
                1 => raw.iter().map(|b| 32 + b % 95).collect(),
                _ => raw,
            };
            if blank_line_at <= bytes.len() {
                bytes.splice(blank_line_at..blank_line_at, *b"\r\n\r\n");
            }
            let mut client = Client { bytes: &bytes, chunk };
            match read_head(&mut client) {
                Ok(head) => {
                    prop_assert!(!head.is_empty());
                    prop_assert!(head.len() < MAX_HEAD + chunk.min(512), "{} bytes", head.len());
                }
                Err(e) => prop_assert!(
                    matches!(e.kind(), ErrorKind::UnexpectedEof | ErrorKind::InvalidData),
                    "{e}"
                ),
            }
        }
    }
}
