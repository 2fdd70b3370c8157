//! The non-blocking connection engine: one reactor thread drives every
//! connection through read → route → write, so idle sockets cost a
//! buffer instead of a thread.
//!
//! Both HTTP planes run on it: the job server ([`crate::server`]) and the
//! fleet coordinator's control plane ([`crate::fleet`]). Each supplies a
//! [`Handler`] — a route from a parsed [`Request`] to a [`Response`] or
//! an [`SvcError`], a stop condition, and (the server only) per-request
//! metrics. Framing is [`crate::http::parse_request`]; the reactor is
//! [`soteria_rt::reactor::Poller`] (epoll on Linux, `poll(2)`
//! elsewhere). Job execution stays on the server's worker pool; the
//! reactor only parses, routes, and shuttles bytes, so a silent or slow
//! client never delays another connection's answer.
//!
//! Per-connection lifecycle:
//!
//! ```text
//! accept → Reading --parse ok--> route → Writing → close
//!             |  \--body too large--> DrainingBody → Writing → close
//!             \--deadline--> 408 → Writing → close
//! ```
//!
//! A request that never parses is answered with its pinned error (400,
//! 408 or 413). Up to 1 MiB of an oversized body is drained before the
//! 413, so the close does not reset the response away when the client
//! sends no more than that.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use soteria_rt::obs::Timer;
use soteria_rt::reactor::{Event, Interest, Poller};

use crate::error::SvcError;
use crate::http::{drain_budget, parse_request, ReadLimits, Request, Response};

/// What a plane plugs into the reactor.
pub(crate) trait Handler {
    /// Answers one parsed request.
    fn route(&self, req: &Request) -> Result<Response, SvcError>;

    /// Whether to stop accepting; the loop returns once the open
    /// connections have settled.
    fn stopped(&self) -> bool;

    /// Records one answered request: the routed path (`/` when the
    /// request never parsed), its status, and its latency timer.
    fn record(&self, _path: &str, _status: u16, _timer: Timer) {}
}

/// The poller key reserved for the listening socket.
const LISTENER_KEY: u64 = u64::MAX;

/// Upper bound on one poll wait, so drain progress is noticed promptly.
const TICK: Duration = Duration::from_millis(25);

const READ_CHUNK: usize = 16 * 1024;

/// What to do with a connection after an I/O pass.
#[derive(PartialEq, Eq)]
enum Next {
    Keep,
    Close,
}

enum Phase {
    /// Accumulating request bytes until `parse_request` completes.
    Reading,
    /// Oversized body rejected; discarding the declared remainder
    /// (bounded) so the close does not RST the 413 away.
    DrainingBody {
        budget: usize,
        err: SvcError,
    },
    /// Response rendered; flushing `out`.
    Writing,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    written: usize,
    /// Reads must make progress before this instant or the request
    /// times out (refreshed on every received chunk: a per-read
    /// timeout, not a whole-request one).
    deadline: Instant,
    timer: Option<Timer>,
    phase: Phase,
}

impl Conn {
    fn new(stream: TcpStream, read_timeout: Duration) -> Conn {
        Conn {
            stream,
            buf: Vec::with_capacity(512),
            out: Vec::new(),
            written: 0,
            deadline: Instant::now() + read_timeout,
            timer: Some(Timer::start(true)),
            phase: Phase::Reading,
        }
    }

    /// Writes as much of `out` as the socket accepts right now.
    fn flush(&mut self) -> Next {
        loop {
            if self.written == self.out.len() {
                let _ = self.stream.flush();
                return Next::Close;
            }
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Next::Close,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Next::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Next::Close,
            }
        }
    }

    /// Records the settled request, renders the response, and starts
    /// writing it. `path` is the routed request path, or `/` when the
    /// request never parsed.
    fn respond(
        &mut self,
        handler: &impl Handler,
        path: &str,
        outcome: Result<Response, SvcError>,
    ) -> Next {
        let resp = outcome.unwrap_or_else(Response::from);
        if let Some(timer) = self.timer.take() {
            handler.record(path, resp.status, timer);
        }
        self.out = resp.render();
        self.written = 0;
        self.phase = Phase::Writing;
        self.flush()
    }

    /// A readable event while accumulating the request.
    fn on_reading(
        &mut self,
        handler: &impl Handler,
        read_timeout: Duration,
        limits: &ReadLimits,
    ) -> Next {
        let mut chunk = [0u8; READ_CHUNK];
        let mut closed = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.deadline = Instant::now() + read_timeout;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        match parse_request(&self.buf, limits) {
            Ok(Some((request, _consumed))) => {
                let outcome = handler.route(&request);
                self.respond(handler, &request.path, outcome)
            }
            Ok(None) if closed => self.respond(
                handler,
                "/",
                Err(SvcError::BadRequest(
                    "connection closed before the request was complete".into(),
                )),
            ),
            Ok(None) => Next::Keep,
            Err(err @ SvcError::PayloadTooLarge { what: "body", .. }) => {
                // Drain at most 1 MiB past the body limit: any body up to
                // that size (a full body one byte over the limit too) is
                // read before the 413, so its sender gets the answer and
                // not a reset, while a larger declared length costs the
                // server no more than that before the close.
                let cap = limits.max_body_bytes.saturating_add(1 << 20);
                let budget = drain_budget(&self.buf).min(cap);
                if budget == 0 || closed {
                    self.respond(handler, "/", Err(err))
                } else {
                    self.buf.clear();
                    self.phase = Phase::DrainingBody { budget, err };
                    Next::Keep
                }
            }
            Err(err) => self.respond(handler, "/", Err(err)),
        }
    }

    /// A readable event while discarding an oversized body.
    fn on_draining(&mut self, handler: &impl Handler, read_timeout: Duration) -> Next {
        let mut chunk = [0u8; READ_CHUNK];
        let mut settle = false;
        loop {
            let Phase::DrainingBody { budget, .. } = &mut self.phase else {
                return Next::Keep;
            };
            if *budget == 0 || settle {
                break;
            }
            let take = chunk.len().min(*budget);
            match self.stream.read(&mut chunk[..take]) {
                Ok(0) => settle = true,
                Ok(n) => {
                    *budget -= n;
                    self.deadline = Instant::now() + read_timeout;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Next::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => settle = true,
            }
        }
        let Phase::DrainingBody { err, .. } =
            std::mem::replace(&mut self.phase, Phase::Writing)
        else {
            return Next::Keep;
        };
        self.respond(handler, "/", Err(err))
    }

    /// The deadline passed without a complete request.
    fn on_deadline(&mut self, handler: &impl Handler) -> Next {
        match std::mem::replace(&mut self.phase, Phase::Writing) {
            Phase::Reading => self.respond(handler, "/", Err(SvcError::RequestTimeout)),
            Phase::DrainingBody { err, .. } => self.respond(handler, "/", Err(err)),
            Phase::Writing => Next::Keep,
        }
    }
}

/// Accepts every pending connection; returns `false` when the listener
/// has failed fatally.
fn accept_all(
    listener: &TcpListener,
    read_timeout: Duration,
    poller: &mut Poller,
    conns: &mut Vec<Option<Conn>>,
) -> bool {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let conn = Conn::new(stream, read_timeout);
                let fd = conn.stream.as_raw_fd();
                let slot = match conns.iter().position(|c| c.is_none()) {
                    Some(i) => i,
                    None => {
                        conns.push(None);
                        conns.len() - 1
                    }
                };
                conns[slot] = Some(conn);
                if poller.register(fd, slot as u64, Interest::Read).is_err() {
                    conns[slot] = None;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

fn close(poller: &mut Poller, conns: &mut [Option<Conn>], slot: usize) {
    if let Some(conn) = conns[slot].take() {
        let _ = poller.deregister(conn.stream.as_raw_fd());
    }
}

/// After an I/O pass left the connection alive, make sure the poller
/// watches the direction it is waiting on.
fn settle_interest(poller: &mut Poller, conns: &[Option<Conn>], slot: usize) {
    if let Some(conn) = conns[slot].as_ref() {
        let interest = match conn.phase {
            Phase::Writing => Interest::Write,
            _ => Interest::Read,
        };
        let _ = poller.modify(conn.stream.as_raw_fd(), slot as u64, interest);
    }
}

/// Runs the reactor until `handler` stops (or the listener fails) and
/// every open connection has settled: accepts, parses, routes, and
/// writes on the calling thread.
pub(crate) fn event_loop(
    listener: &TcpListener,
    read_timeout: Duration,
    limits: &ReadLimits,
    handler: &impl Handler,
) {
    let Ok(mut poller) = Poller::new() else {
        return;
    };
    let mut accepting = poller
        .register(listener.as_raw_fd(), LISTENER_KEY, Interest::Read)
        .is_ok();
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    loop {
        if accepting && handler.stopped() {
            let _ = poller.deregister(listener.as_raw_fd());
            accepting = false;
        }
        if !accepting && conns.iter().all(|c| c.is_none()) {
            break;
        }
        // Wait no longer than the soonest connection deadline (or one
        // tick, so a stop requested elsewhere is noticed).
        let now = Instant::now();
        let mut timeout = TICK;
        for conn in conns.iter().flatten() {
            if !matches!(conn.phase, Phase::Writing) {
                timeout = timeout.min(conn.deadline.saturating_duration_since(now));
            }
        }
        if poller.wait(&mut events, Some(timeout)).is_err() {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        for &ev in &events {
            if ev.key == LISTENER_KEY {
                if accepting && !accept_all(listener, read_timeout, &mut poller, &mut conns) {
                    // Listener died: settle what was accepted and exit.
                    let _ = poller.deregister(listener.as_raw_fd());
                    accepting = false;
                }
                continue;
            }
            let slot = ev.key as usize;
            let Some(conn) = conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                continue;
            };
            let next = match conn.phase {
                Phase::Writing => {
                    if ev.writable || ev.hangup {
                        conn.flush()
                    } else {
                        Next::Keep
                    }
                }
                Phase::Reading => conn.on_reading(handler, read_timeout, limits),
                Phase::DrainingBody { .. } => conn.on_draining(handler, read_timeout),
            };
            match next {
                Next::Close => close(&mut poller, &mut conns, slot),
                Next::Keep => settle_interest(&mut poller, &conns, slot),
            }
        }
        // Deadline sweep: time out requests that stopped making progress.
        let now = Instant::now();
        for slot in 0..conns.len() {
            let Some(conn) = conns[slot].as_mut() else {
                continue;
            };
            if matches!(conn.phase, Phase::Writing) || now < conn.deadline {
                continue;
            }
            match conn.on_deadline(handler) {
                Next::Close => close(&mut poller, &mut conns, slot),
                Next::Keep => settle_interest(&mut poller, &conns, slot),
            }
        }
    }
}
