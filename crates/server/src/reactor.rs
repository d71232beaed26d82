//! The event-driven connection core: ONE reactor thread owns every
//! socket; workers never touch one.
//!
//! ```text
//!            ┌───────────────────────────── reactor thread ─┐
//!  accept ──▶│ listener                                     │
//!            │    │ token per connection                    │
//!            │    ▼                                         │
//!            │ Conn { parser, write cursor, outbox handle } │
//!            │    │ complete Request          ▲ drain       │
//!            └────┼───────────────────────────┼─────────────┘
//!                 ▼ bounded jobs channel      │ Outbox (bounded)
//!            ┌─ worker pool ──────────────────┼─────────────┐
//!            │ route()/call_streamed() ──▶ encoded bytes ───┘
//!            └───────────────────────────────────────────────
//! ```
//!
//! Per-connection state machine:
//!
//! | state | meaning | read interest | write interest |
//! |---|---|---|---|
//! | reading | between requests / request bytes arriving | on | if pending |
//! | dispatched | a request is with the worker pool | **off** | if pending |
//! | draining-close | error/close queued; flush then drop | off | on |
//!
//! Read interest is dropped while a request is in flight, so a client
//! that floods pipelined requests is backpressured by its own TCP
//! window, not by server memory. Responses travel reactor-ward through
//! the connection's bounded [`Outbox`]: the worker pushes encoded
//! bytes and returns. When the queue is full the streaming producer
//! waits for drain progress ([`ConnHandle::push_patient`]) — a client
//! that is merely slower than the worker is ridden out, while one that
//! makes no progress for [`PRODUCER_STALL_TIMEOUT`] (or stretches one
//! response past [`PRODUCER_PATIENCE`]) gets its stream aborted with a
//! close-after-drain, freeing the worker. A worker is bounded by those
//! patience windows, never parked indefinitely on a slow peer.
//!
//! Disconnect rules: clean EOF, hangup/error readiness, a write error,
//! an aborted stream (stalled reader), a non-keep-alive response, 10 s
//! without socket progress while bytes are pending, 10 s idle between
//! requests, 10 s without completing a started request (slowloris), or
//! server shutdown — which closes every registered connection promptly
//! (the waker pipe interrupts the poll; there is no
//! 250 ms-poll-per-thread wart anymore, and `Server::shutdown` with
//! hundreds of idle connections returns well under a second).

use crate::http::{self, Request, Response};
use crate::parser::{ParseError, RequestParser};
use crate::sys::{Event, Interest, Poller};
use crate::AppState;
use gvdb_core::{Outbox, PushError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a connection may sit without socket progress while response
/// bytes are pending (a reader that stops reading), and how long a
/// started request may take to arrive in full (a slowloris dribbling
/// header bytes is cut off at this total budget, holding only an fd
/// meanwhile — never a thread).
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a persistent connection may sit idle between requests.
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(10);

/// Poll timeout: the timer sweep granularity (NOT a per-connection
/// poll — one `epoll_wait` covers every connection, and the waker pipe
/// interrupts it immediately on shutdown or worker completion).
const SWEEP_MS: i32 = 250;

/// Requests answered on one connection before the server rotates it out
/// (bounds how long one client can monopolize a connection slot).
const MAX_REQUESTS_PER_CONNECTION: usize = 10_000;

/// How long a streaming producer keeps retrying a full outbox with zero
/// drain progress before aborting the stream. A client that reads at
/// all — however slowly — resets this window; one that stops reading
/// costs a worker at most this long.
pub(crate) const PRODUCER_STALL_TIMEOUT: Duration = Duration::from_secs(2);

/// Cumulative backpressure-wait budget for one streamed response: even a
/// trickling reader cannot hold a worker past this.
pub(crate) const PRODUCER_PATIENCE: Duration = Duration::from_secs(20);

/// Consecutive [`Poller::wait`] failures tolerated (with a sweep-length
/// back-off between retries) before the reactor declares the poller
/// unusable and shuts the server down.
const MAX_WAIT_ERRORS: u32 = 40;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// One parsed request bound for the worker pool.
pub(crate) struct Job {
    pub conn: Arc<ConnHandle>,
    pub request: Request,
    /// Whether the connection may serve further requests after this one
    /// (false once the rotation budget is spent).
    pub allow_keep_alive: bool,
}

/// The worker-facing side of a connection: push encoded response bytes,
/// then declare the response finished. Every call wakes the reactor so
/// it drains the outbox while the worker moves on.
pub(crate) struct ConnHandle {
    token: u64,
    pub outbox: Outbox,
    shared: Arc<ReactorShared>,
}

impl ConnHandle {
    /// Queue bytes toward the client. Fails when the connection is gone
    /// or the outbox is currently full (see [`Outbox::push`]) — never
    /// blocks. Buffered responses are one push into an empty queue, so
    /// they cannot overflow; streaming producers use
    /// [`ConnHandle::push_patient`] instead.
    pub fn push(&self, bytes: &[u8]) -> Result<(), PushError> {
        let was_empty = self.outbox.push(bytes)?;
        if was_empty {
            self.shared.notify(self.token);
        }
        Ok(())
    }

    /// Queue bytes toward the client, riding out transient backpressure:
    /// on overflow, wait for the reactor to drain and retry. Gives up
    /// with [`PushError::Overflow`] only when the client makes no drain
    /// progress for [`PRODUCER_STALL_TIMEOUT`], or when this response's
    /// cumulative waiting exceeds [`PRODUCER_PATIENCE`] — a worker is
    /// delayed by a slow-but-live reader, never parked on a dead one.
    pub fn push_patient(&self, bytes: &[u8]) -> Result<(), PushError> {
        let start = Instant::now();
        let mut last_progress = start;
        loop {
            match self.push(bytes) {
                Ok(()) => return Ok(()),
                Err(PushError::Closed) => return Err(PushError::Closed),
                Err(PushError::Overflow) => {
                    let now = Instant::now();
                    if now.duration_since(start) >= PRODUCER_PATIENCE
                        || now.duration_since(last_progress) >= PRODUCER_STALL_TIMEOUT
                    {
                        return Err(PushError::Overflow);
                    }
                    if self.outbox.wait_drain(Duration::from_millis(50)) {
                        last_progress = Instant::now();
                    }
                }
            }
        }
    }

    /// The response is complete; `keep_alive` decides whether the
    /// connection survives it.
    pub fn finish(&self, keep_alive: bool) {
        self.outbox.finish(keep_alive);
        self.shared.notify(self.token);
    }
}

/// The handle workers (and [`crate::ShutdownHandle`]) use to wake the
/// reactor out of its poll.
pub(crate) struct ReactorShared {
    ready: Mutex<Vec<u64>>,
    waker: UnixStream,
}

impl ReactorShared {
    /// Flag `token` as having outbox progress and wake the reactor.
    fn notify(&self, token: u64) {
        self.ready.lock().push(token);
        self.wake();
    }

    /// Interrupt the poll (used for shutdown; a full pipe is fine — the
    /// reactor is provably about to wake).
    pub fn wake(&self) {
        let _ = (&self.waker).write(&[1u8]);
    }
}

/// Per-connection reactor-side state (see the module-level table).
struct Conn {
    stream: TcpStream,
    handle: Arc<ConnHandle>,
    parser: RequestParser,
    /// A request is with the worker pool; read interest is parked.
    in_flight: bool,
    /// Flush `write_buf`, then close (error and 503 paths).
    close_after_write: bool,
    write_buf: Vec<u8>,
    write_pos: usize,
    interest: Interest,
    last_activity: Instant,
    /// When the currently-arriving request started, for the slowloris
    /// budget. `None` between requests.
    request_start: Option<Instant>,
    served: usize,
}

impl Conn {
    fn write_pending(&self) -> bool {
        self.write_pos < self.write_buf.len() || self.handle.outbox.status().pending > 0
    }
}

/// The reactor: owns the listener, the waker's read end, every
/// connection, and the sending side of the jobs channel (dropping it on
/// exit is what stops the workers).
pub(crate) struct Reactor {
    poller: Poller,
    listener: TcpListener,
    waker_rx: UnixStream,
    jobs: SyncSender<Job>,
    state: Arc<AppState>,
    shared: Arc<ReactorShared>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    max_connections: usize,
    outbox_bytes: usize,
}

impl Reactor {
    pub fn new(
        listener: TcpListener,
        jobs: SyncSender<Job>,
        state: Arc<AppState>,
        max_connections: usize,
        outbox_bytes: usize,
    ) -> std::io::Result<(Reactor, Arc<ReactorShared>)> {
        listener.set_nonblocking(true)?;
        let (waker_tx, waker_rx) = UnixStream::pair()?;
        waker_tx.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        let shared = Arc::new(ReactorShared {
            ready: Mutex::new(Vec::new()),
            waker: waker_tx,
        });
        Ok((
            Reactor {
                poller,
                listener,
                waker_rx,
                jobs,
                state,
                shared: Arc::clone(&shared),
                conns: HashMap::new(),
                next_token: TOKEN_FIRST_CONN,
                max_connections: max_connections.max(1),
                outbox_bytes: outbox_bytes.max(1),
            },
            shared,
        ))
    }

    /// The event loop; returns when the shutdown flag is set (the waker
    /// interrupts the poll, so that is prompt).
    pub fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut last_sweep = Instant::now();
        let mut wait_errors = 0u32;
        loop {
            events.clear();
            match self.poller.wait(&mut events, SWEEP_MS) {
                Ok(()) => wait_errors = 0,
                Err(e) => {
                    // `wait` already swallows EINTR, so this is a real
                    // poller failure (e.g. EBADF from fd accounting
                    // gone wrong). Back off so a persistent failure
                    // doesn't busy-loop at 100% CPU, and give up on the
                    // server entirely if it never recovers.
                    wait_errors += 1;
                    eprintln!("gvdb-server: reactor poll failed ({wait_errors}): {e}");
                    if wait_errors >= MAX_WAIT_ERRORS {
                        eprintln!("gvdb-server: poller unusable; shutting down");
                        self.state.shutdown.store(true, Ordering::SeqCst);
                    } else {
                        std::thread::sleep(Duration::from_millis(SWEEP_MS as u64));
                    }
                }
            }
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for &event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker(),
                    token => {
                        if event.hangup {
                            self.close_conn(token);
                        } else {
                            if event.readable {
                                self.on_readable(token);
                            }
                            if event.writable {
                                self.pump(token);
                            }
                        }
                    }
                }
            }
            let ready = std::mem::take(&mut *self.shared.ready.lock());
            for token in ready {
                self.pump(token);
            }
            if last_sweep.elapsed() >= Duration::from_millis(SWEEP_MS as u64) {
                self.sweep();
                last_sweep = Instant::now();
            }
        }
        // Shutdown: close every connection now (no "next request
        // boundary" to wait for — idle sockets are just fds here).
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
        // `self.jobs` drops with the reactor: workers drain what was
        // already dispatched (their pushes fail fast against closed
        // outboxes) and exit on the disconnected channel.
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        while matches!((&self.waker_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    if self.conns.len() >= self.max_connections {
                        // Shed load with a closed 503 rather than
                        // accepting a connection we can't track.
                        self.state.rejected.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.write_all(&http::encode_response(
                            &Response::error("503 Service Unavailable", "server is full"),
                            false,
                        ));
                        continue;
                    }
                    // Persistent connections + Nagle = ~40 ms stalls:
                    // small-packet latency IS the product here.
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    let handle = Arc::new(ConnHandle {
                        token,
                        outbox: Outbox::new(self.outbox_bytes),
                        shared: Arc::clone(&self.shared),
                    });
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            handle,
                            parser: RequestParser::new(),
                            in_flight: false,
                            close_after_write: false,
                            write_buf: Vec::new(),
                            write_pos: 0,
                            interest: Interest::READ,
                            last_activity: Instant::now(),
                            request_start: None,
                            served: 0,
                        },
                    );
                    self.state.connections.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Tear a connection down: closing the outbox makes any in-flight
    /// worker's next push fail, so it aborts and frees itself.
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            conn.handle.outbox.close();
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.state.connections.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Drain readable bytes into the parser and dispatch any completed
    /// request. Reading stops the moment a request goes in flight.
    fn on_readable(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.in_flight || conn.close_after_write {
                break;
            }
            let mut buf = [0u8; 16 * 1024];
            match conn.stream.read(&mut buf) {
                Ok(0) => return self.close_conn(token), // clean EOF
                Ok(n) => {
                    conn.parser.feed(&buf[..n]);
                    conn.last_activity = Instant::now();
                    conn.request_start.get_or_insert_with(Instant::now);
                    self.try_dispatch(token);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return self.close_conn(token),
            }
        }
        self.update_interest(token);
    }

    /// If a complete request is buffered, hand it to the worker pool
    /// (or answer 400/413/503 directly for protocol errors and a full
    /// pool — the reactor never computes a real response itself).
    fn try_dispatch(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.in_flight || conn.close_after_write {
            return;
        }
        match conn.parser.try_next() {
            Ok(Some(request)) => {
                conn.request_start = None;
                conn.served += 1;
                let allow_keep_alive = conn.served < MAX_REQUESTS_PER_CONNECTION;
                conn.in_flight = true;
                let job = Job {
                    conn: Arc::clone(&conn.handle),
                    request,
                    allow_keep_alive,
                };
                match self.jobs.try_send(job) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        // Shed load instead of queueing without bound.
                        self.state.rejected.fetch_add(1, Ordering::Relaxed);
                        self.queue_direct(
                            token,
                            &Response::error("503 Service Unavailable", "server is full"),
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => self.close_conn(token),
                }
            }
            Ok(None) => {}
            Err(ParseError::Malformed) => {
                self.state.served.fetch_add(1, Ordering::Relaxed);
                self.queue_direct(
                    token,
                    &Response::error("400 Bad Request", "malformed request"),
                );
            }
            Err(ParseError::BodyTooLarge) => {
                self.state.served.fetch_add(1, Ordering::Relaxed);
                self.queue_direct(
                    token,
                    &Response::error("413 Payload Too Large", "request body too large"),
                );
            }
        }
    }

    /// Queue a reactor-built response (error/shed paths); the
    /// connection closes once it is flushed.
    fn queue_direct(&mut self, token: u64, response: &Response) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.in_flight = false;
        conn.close_after_write = true;
        let bytes = http::encode_response(response, false);
        conn.write_buf.extend_from_slice(&bytes);
        self.pump(token);
    }

    /// Move bytes socket-ward: refill the write cursor from the outbox,
    /// write until the socket would block, and detect response
    /// completion (recycling the connection for its next request). A
    /// genuinely stalled reader is not detected here — the producer
    /// aborts its stream after a patience window and the timer sweep
    /// reaps the connection once pending bytes sit unread for
    /// [`CLIENT_IO_TIMEOUT`].
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.write_pos == conn.write_buf.len() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                let more = conn.handle.outbox.take();
                if more.is_empty() {
                    if conn.in_flight {
                        // `take_done` only reports once the outbox is
                        // drained, atomically — no response byte can be
                        // left behind.
                        if let Some(keep_alive) = conn.handle.outbox.take_done() {
                            conn.in_flight = false;
                            if !keep_alive || self.state.shutdown.load(Ordering::SeqCst) {
                                return self.close_conn(token);
                            }
                            conn.last_activity = Instant::now();
                            // A pipelined follower may already be
                            // buffered: dispatch it without waiting for
                            // readability.
                            self.try_dispatch(token);
                            continue;
                        }
                    } else if conn.close_after_write {
                        return self.close_conn(token);
                    }
                    break;
                }
                conn.write_buf = more;
                continue;
            }
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => return self.close_conn(token),
                Ok(n) => {
                    conn.write_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return self.close_conn(token),
            }
        }
        self.update_interest(token);
    }

    /// Reconcile the poller's interest with the connection's state (one
    /// `epoll_ctl` only when it actually changed).
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = Interest {
            read: !conn.in_flight && !conn.close_after_write,
            write: conn.write_pending(),
        };
        if want != conn.interest {
            if self
                .poller
                .reregister(conn.stream.as_raw_fd(), token, want)
                .is_err()
            {
                return self.close_conn(token);
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.interest = want;
        }
    }

    /// Close timed-out connections. O(connections) once per sweep tick
    /// — NOT a per-connection poll loop; idle connections between
    /// sweeps cost zero CPU.
    fn sweep(&mut self) {
        let now = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                let idle = now.duration_since(conn.last_activity);
                if conn.write_pending() {
                    // Response bytes waiting on a reader that stopped.
                    idle > CLIENT_IO_TIMEOUT
                } else if conn.in_flight {
                    // The worker is computing; the client owes nothing.
                    false
                } else if conn.parser.mid_request() {
                    // A started request must complete within the total
                    // budget, however slowly it dribbles (slowloris).
                    // `request_start` is cleared when a request parses,
                    // so bytes left over behind a completed request have
                    // no start yet — fall back to the idle clock there,
                    // or a client parking trailing garbage after its
                    // last request would hold the slot forever.
                    conn.request_start
                        .map_or(idle > CLIENT_IO_TIMEOUT, |start| {
                            now.duration_since(start) > CLIENT_IO_TIMEOUT
                        })
                } else {
                    idle > KEEP_ALIVE_IDLE
                }
            })
            .map(|(&token, _)| token)
            .collect();
        for token in stale {
            self.close_conn(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::mpsc::{sync_channel, Receiver};

    /// A reactor with one accepted connection, driven by hand (no event
    /// loop): the sweep tests manipulate connection clocks directly.
    fn reactor_with_one_conn() -> (Reactor, TcpStream, Receiver<Job>, u64) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let (jobs, jobs_rx) = sync_channel(4);
        let state = Arc::new(AppState {
            service: Arc::new(gvdb_core::SharedWorkspace::new()),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            active: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            workers: 1,
            backlog: 4,
            api_key: None,
            read_only: Vec::new(),
            repl: None,
            shutdown: Arc::new(AtomicBool::new(false)),
        });
        let (mut reactor, _shared) = Reactor::new(listener, jobs, state, 16, 1024).unwrap();
        let client = TcpStream::connect(addr).expect("connect");
        reactor.accept_ready();
        assert_eq!(reactor.conns.len(), 1, "connection accepted");
        let token = *reactor.conns.keys().next().unwrap();
        (reactor, client, jobs_rx, token)
    }

    fn long_ago() -> Instant {
        Instant::now()
            .checked_sub(CLIENT_IO_TIMEOUT + Duration::from_secs(1))
            .expect("host uptime exceeds the timeout")
    }

    /// Regression: a request parses, trailing partial bytes stay
    /// buffered (`mid_request()` true) but `request_start` was cleared
    /// by the parse. The sweep must fall back to the idle clock — before
    /// the fix this state matched no reap branch and the connection
    /// (and its `max_connections` slot) leaked forever.
    #[test]
    fn sweep_reaps_stale_leftover_bytes_without_a_request_start() {
        let (mut reactor, _client, _jobs_rx, token) = reactor_with_one_conn();
        let conn = reactor.conns.get_mut(&token).unwrap();
        conn.parser.feed(b"GET /nex");
        conn.request_start = None;
        conn.last_activity = long_ago();
        reactor.sweep();
        assert!(
            reactor.conns.is_empty(),
            "stale mid-request connection with no start stamp must be reaped"
        );
    }

    #[test]
    fn sweep_reaps_a_slowloris_past_its_request_budget() {
        let (mut reactor, _client, _jobs_rx, token) = reactor_with_one_conn();
        let conn = reactor.conns.get_mut(&token).unwrap();
        conn.parser.feed(b"GET /dribble");
        conn.request_start = Some(long_ago());
        // Recent socket activity must not save it: the slowloris budget
        // is total time since the request started, not since last byte.
        conn.last_activity = Instant::now();
        reactor.sweep();
        assert!(
            reactor.conns.is_empty(),
            "over-budget request must be reaped"
        );
    }

    #[test]
    fn sweep_keeps_fresh_and_in_flight_connections() {
        let (mut reactor, _client, _jobs_rx, token) = reactor_with_one_conn();
        {
            let conn = reactor.conns.get_mut(&token).unwrap();
            conn.parser.feed(b"GET /");
            conn.request_start = Some(Instant::now());
        }
        reactor.sweep();
        assert_eq!(reactor.conns.len(), 1, "in-budget request survives");

        // A dispatched request stops the client's clocks entirely: the
        // worker is computing, the client owes nothing.
        {
            let conn = reactor.conns.get_mut(&token).unwrap();
            conn.in_flight = true;
            conn.request_start = None;
            conn.last_activity = long_ago();
        }
        reactor.sweep();
        assert_eq!(reactor.conns.len(), 1, "in-flight connection survives");
    }

    #[test]
    fn sweep_reaps_idle_keep_alive_past_budget() {
        let (mut reactor, _client, _jobs_rx, token) = reactor_with_one_conn();
        reactor.conns.get_mut(&token).unwrap().last_activity = long_ago();
        reactor.sweep();
        assert!(reactor.conns.is_empty(), "stale idle connection reaped");
    }
}
