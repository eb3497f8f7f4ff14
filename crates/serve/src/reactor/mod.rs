//! The readiness-driven serve front end: one epoll event loop, N shard
//! workers, explicit admission control.
//!
//! The blocking server ([`crate::Server`]) parks one thread per
//! connection, so connection count — not CPU — caps throughput, and
//! nothing bounds the work queued behind it. This module replaces the
//! front end with a reactor (DESIGN.md §15):
//!
//! - **One event loop** (`epoll`, raw syscalls in [`sys`] following the
//!   `crates/store` mmap precedent) owns the listener, every connection,
//!   and an eventfd the shard workers use to hand finished responses
//!   back. Sockets are nonblocking; per-connection state machines
//!   ([`conn`]) handle JSON-lines framing across arbitrary read
//!   boundaries and resume partial writes when send buffers fill.
//! - **Shard workers** ([`crate::shard`]) own disjoint consistent-hash
//!   ranges of the request key space. The reactor parses on the loop and
//!   submits; a worker drains its queue in one gulp and scores all the
//!   `link_score`s in it with one forward pass on its own thread, so a
//!   group fills from every connection at once and a lone request waits
//!   for nothing.
//! - **Admission control**: each shard queues at most a budget of
//!   pending requests; past it the reactor answers
//!   `{"ok":false,"error":"overloaded"}` immediately instead of
//!   queueing (bounded memory, bounded queueing delay — throughput
//!   degrades gracefully past saturation). A connection cap sheds
//!   whole connections the same way, and idle connections time out.
//!
//! Responses can complete out of submission order (different shards),
//! so the reactor holds a per-connection reorder buffer keyed by a
//! sequence number and writes strictly in request order — the wire
//! contract of the JSON-lines protocol is unchanged.

pub mod conn;

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"), not(miri)))]
pub mod sys;

use std::time::Duration;

/// Tuning knobs for [`ReactorServer::start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Number of shard workers. `0` picks a default from the host's
    /// available parallelism (clamped to 2..=8).
    pub shards: usize,
    /// Admission budget: pending requests each shard queues before the
    /// reactor starts shedding with structured `overloaded` errors.
    pub shard_budget: usize,
    /// Connection cap: accepts beyond it receive one `overloaded` line
    /// and are closed immediately.
    pub max_conns: usize,
    /// Connections idle longer than this (no bytes read, nothing in
    /// flight) are closed with a structured notice.
    pub idle_timeout: Duration,
    /// Per-line framing cap (see [`conn::MAX_LINE_BYTES`]).
    pub max_line_bytes: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            shards: 0,
            shard_budget: 1024,
            max_conns: 4096,
            idle_timeout: Duration::from_secs(60),
            max_line_bytes: conn::MAX_LINE_BYTES,
        }
    }
}

impl ReactorConfig {
    /// The shard count [`ReactorConfig::shards`] resolves to on this host.
    pub fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get).clamp(2, 8)
        }
    }
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"), not(miri)))]
mod imp {
    use std::collections::{BTreeMap, HashMap};
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::{Duration, Instant};

    use super::conn::{Frame, FrameError, LineFramer, WriteBuf};
    use super::sys::{
        Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
    };
    use super::ReactorConfig;
    use crate::protocol::{overloaded_response, parse_request};
    use crate::shard::{CompletionQueue, Job, ShardPool};
    use crate::Service;

    const LISTENER_TOKEN: u64 = 0;
    const WAKE_TOKEN: u64 = 1;
    const FIRST_CONN_TOKEN: u64 = 2;
    /// Upper bound on readiness reports drained per `epoll_wait`.
    const EVENTS_PER_WAIT: usize = 256;
    /// The loop re-checks the stop flag and idle deadlines at least this
    /// often even with no readiness.
    const WAIT_TIMEOUT_MS: i32 = 100;

    /// A running reactor server. Stops (and joins the event loop and all
    /// shard workers) on drop.
    pub struct ReactorServer {
        local_addr: SocketAddr,
        stop: Arc<AtomicBool>,
        wake: Arc<EventFd>,
        thread: Option<thread::JoinHandle<()>>,
        service: Arc<Service>,
    }

    impl std::fmt::Debug for ReactorServer {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ReactorServer")
                .field("local_addr", &self.local_addr)
                .finish_non_exhaustive()
        }
    }

    impl ReactorServer {
        /// Binds `addr` (port 0 for OS-assigned) and starts the event
        /// loop plus the shard worker pool over `service`.
        ///
        /// # Errors
        ///
        /// Any socket/epoll/eventfd setup error.
        pub fn start(service: Arc<Service>, addr: &str, config: ReactorConfig) -> io::Result<Self> {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            let local_addr = listener.local_addr()?;
            let epoll = Epoll::new()?;
            let wake = Arc::new(EventFd::new()?);
            epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
            epoll.add(wake.fd(), EPOLLIN, WAKE_TOKEN)?;

            let stop = Arc::new(AtomicBool::new(false));
            let completions = Arc::new(CompletionQueue::new());
            let worker_wake = Arc::clone(&wake);
            let shards = ShardPool::new(
                &service,
                &completions,
                Arc::new(move || worker_wake.signal()),
                config.resolved_shards(),
                config.shard_budget.max(1),
            );

            let rec = obs::Recorder::with_registry(Arc::clone(service.registry()));
            let mut reactor = Reactor {
                listener,
                epoll,
                wake: Arc::clone(&wake),
                stop: Arc::clone(&stop),
                service: Arc::clone(&service),
                shards,
                completions,
                config,
                conns: HashMap::new(),
                next_token: FIRST_CONN_TOKEN,
                last_sweep: Instant::now(),
                loop_ns: rec.histogram("serve_reactor_loop_ns"),
                shed_total: rec.counter("serve_shed_total"),
                accepted_total: rec.counter("serve_connections_accepted_total"),
                active: rec.gauge("serve_connections_active"),
                overflow_closed: rec.counter("serve_conn_overflow_closed_total"),
                idle_closed: rec.counter("serve_conn_idle_closed_total"),
            };
            let thread = thread::Builder::new()
                .name("rwserve-reactor".to_string())
                .spawn(move || reactor.run())
                .expect("spawn reactor thread");
            Ok(Self { local_addr, stop, wake, thread: Some(thread), service })
        }

        /// The bound address (with the OS-assigned port resolved).
        pub fn local_addr(&self) -> SocketAddr {
            self.local_addr
        }

        /// The service behind the transport.
        pub fn service(&self) -> &Arc<Service> {
            &self.service
        }

        /// Stops the event loop, drains shard workers, joins all threads.
        pub fn shutdown(mut self) {
            self.stop_and_join();
        }

        fn stop_and_join(&mut self) {
            self.stop.store(true, Ordering::Release);
            self.wake.signal();
            if let Some(handle) = self.thread.take() {
                let _ = handle.join();
            }
        }
    }

    impl Drop for ReactorServer {
        fn drop(&mut self) {
            self.stop_and_join();
        }
    }

    /// Per-connection reactor state: the socket, both sans-IO state
    /// machines, and the response reorder buffer.
    struct Conn {
        stream: TcpStream,
        framer: LineFramer,
        out: WriteBuf,
        /// Sequence number the next parsed request will get.
        next_seq: u64,
        /// Next sequence number to append to `out` — responses with
        /// higher seqs wait in `ready` until their predecessors land.
        next_flush: u64,
        /// Completed responses that arrived out of order.
        ready: BTreeMap<u64, String>,
        last_activity: Instant,
        /// Peer closed its write half (EOF read); finish in-flight work,
        /// flush, then close.
        read_done: bool,
        /// Fatal-path flag (framing overflow, HTTP response, idle
        /// timeout): stop reading, flush `out`, close.
        closing: bool,
        /// Whether EPOLLOUT is currently part of the interest mask.
        want_write: bool,
    }

    impl Conn {
        /// True once every accepted request has been answered in order.
        fn drained(&self) -> bool {
            self.next_flush == self.next_seq
        }

        /// Moves contiguous completed responses into the write buffer.
        fn flush_ready(&mut self) {
            while let Some(response) = self.ready.remove(&self.next_flush) {
                self.out.push(response.as_bytes());
                self.out.push(b"\n");
                self.next_flush += 1;
            }
        }

        /// Pushes buffered bytes to the socket. `Err` means the
        /// connection is dead.
        fn flush_out(&mut self) -> io::Result<bool> {
            self.out.flush_to(&mut self.stream)
        }
    }

    struct Reactor {
        listener: TcpListener,
        epoll: Epoll,
        wake: Arc<EventFd>,
        stop: Arc<AtomicBool>,
        service: Arc<Service>,
        shards: ShardPool,
        completions: Arc<CompletionQueue>,
        config: ReactorConfig,
        conns: HashMap<u64, Conn>,
        next_token: u64,
        last_sweep: Instant,
        loop_ns: obs::HistogramHandle,
        shed_total: obs::CounterHandle,
        accepted_total: obs::CounterHandle,
        active: obs::GaugeHandle,
        overflow_closed: obs::CounterHandle,
        idle_closed: obs::CounterHandle,
    }

    impl Reactor {
        fn run(&mut self) {
            let mut events = [EpollEvent::default(); EVENTS_PER_WAIT];
            while !self.stop.load(Ordering::Acquire) {
                let n = match self.epoll.wait(&mut events, WAIT_TIMEOUT_MS) {
                    Ok(n) => n,
                    Err(_) => break, // epoll itself failed; nothing to salvage
                };
                let started = Instant::now();
                for ev in &events[..n] {
                    match ev.data {
                        LISTENER_TOKEN => self.accept_ready(),
                        WAKE_TOKEN => self.wake.drain(),
                        token => self.conn_ready(token, ev.events),
                    }
                }
                self.deliver_completions();
                self.sweep_idle();
                self.loop_ns.record_duration(started.elapsed());
            }
        }

        /// Accepts until the listener would block, shedding connections
        /// past the cap with one structured line.
        fn accept_ready(&mut self) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        self.accepted_total.inc();
                        if self.conns.len() >= self.config.max_conns {
                            self.shed_total.inc();
                            let mut stream = stream;
                            let _ = stream.set_nonblocking(true);
                            let mut line = overloaded_response("connection limit reached");
                            line.push('\n');
                            let _ = stream.write(line.as_bytes());
                            continue; // dropped => closed
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let token = self.next_token;
                        self.next_token += 1;
                        if self.epoll.add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token).is_err()
                        {
                            continue;
                        }
                        self.conns.insert(
                            token,
                            Conn {
                                stream,
                                framer: LineFramer::new(self.config.max_line_bytes),
                                out: WriteBuf::new(),
                                next_seq: 0,
                                next_flush: 0,
                                ready: BTreeMap::new(),
                                last_activity: Instant::now(),
                                read_done: false,
                                closing: false,
                                want_write: false,
                            },
                        );
                        self.active.add(1);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        /// Handles readiness on one connection.
        fn conn_ready(&mut self, token: u64, events: u32) {
            if !self.conns.contains_key(&token) {
                return; // closed earlier in this batch; token never reused
            }
            if events & (EPOLLERR | EPOLLHUP) != 0 {
                self.close(token);
                return;
            }
            if events & EPOLLOUT != 0 {
                let Some(conn) = self.conns.get_mut(&token) else { return };
                match conn.flush_out() {
                    Ok(_) => {}
                    Err(_) => {
                        self.close(token);
                        return;
                    }
                }
            }
            if events & (EPOLLIN | EPOLLRDHUP) != 0 && self.read_ready(token).is_err() {
                self.close(token);
                return;
            }
            self.settle(token);
        }

        /// Reads until WouldBlock, framing and routing each complete
        /// request. `Err` means the connection died mid-read.
        fn read_ready(&mut self, token: u64) -> Result<(), ()> {
            let mut chunk = [0u8; 16 * 1024];
            loop {
                let Some(conn) = self.conns.get_mut(&token) else { return Ok(()) };
                if conn.closing || conn.read_done {
                    return Ok(()); // input no longer welcome
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        // EOF: the peer finished sending (e.g. `nc <<EOF`
                        // half-close). Keep the connection until every
                        // in-flight response has been written back.
                        conn.read_done = true;
                        return Ok(());
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        match conn.framer.push(&chunk[..n]) {
                            Ok(frames) => self.handle_frames(token, frames),
                            Err(FrameError::LineTooLong { limit }) => {
                                self.overflow_closed.inc();
                                let Some(conn) = self.conns.get_mut(&token) else {
                                    return Ok(());
                                };
                                let seq = conn.next_seq;
                                conn.next_seq += 1;
                                let message =
                                    format!("request line exceeds {limit} bytes without a newline");
                                let response = self.service.reject(&message);
                                let Some(conn) = self.conns.get_mut(&token) else {
                                    return Ok(());
                                };
                                conn.ready.insert(seq, response);
                                conn.closing = true;
                                return Ok(());
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return Err(()),
                }
            }
        }

        /// Routes each framed request: parse errors answered inline,
        /// valid requests submitted to their shard, shed when the
        /// shard's admission budget is full.
        fn handle_frames(&mut self, token: u64, frames: Vec<Frame>) {
            for frame in frames {
                match frame {
                    Frame::HttpGet(path) => {
                        let body = crate::server::http_response(&path, &self.service);
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.out.push(body.as_bytes());
                            conn.closing = true; // HTTP/1.0: close after response
                        }
                        return; // headers after the request line are irrelevant
                    }
                    Frame::Line(line) => {
                        let Some(conn) = self.conns.get_mut(&token) else { return };
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        match parse_request(&line) {
                            Err(message) => {
                                let response = self.service.reject(&message);
                                if let Some(conn) = self.conns.get_mut(&token) {
                                    conn.ready.insert(seq, response);
                                }
                            }
                            Ok(request) => {
                                if let Err(_job) =
                                    self.shards.try_submit(Job { conn: token, seq, request })
                                {
                                    self.shed_total.inc();
                                    if let Some(conn) = self.conns.get_mut(&token) {
                                        conn.ready.insert(
                                            seq,
                                            overloaded_response("shard admission budget full"),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        /// Hands every completed response to its connection's reorder
        /// buffer and settles those connections.
        fn deliver_completions(&mut self) {
            let completions = self.completions.drain();
            if completions.is_empty() {
                return;
            }
            let mut touched = Vec::new();
            for c in completions {
                if let Some(conn) = self.conns.get_mut(&c.conn) {
                    if c.seq == conn.next_flush && conn.ready.is_empty() {
                        // In-order arrival — the common case (a client
                        // with one request outstanding can never be
                        // reordered): straight to the write buffer, no
                        // reorder-map churn.
                        conn.out.push(c.response.as_bytes());
                        conn.out.push(b"\n");
                        conn.next_flush += 1;
                    } else {
                        conn.ready.insert(c.seq, c.response);
                    }
                    if !touched.contains(&c.conn) {
                        touched.push(c.conn);
                    }
                }
            }
            for token in touched {
                self.settle(token);
            }
        }

        /// Post-event bookkeeping for one connection: order-preserving
        /// response flush, opportunistic write, EPOLLOUT toggling, and
        /// close-when-done.
        fn settle(&mut self, token: u64) {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            conn.flush_ready();
            if !conn.out.is_empty() && conn.flush_out().is_err() {
                self.close(token);
                return;
            }
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.out.is_empty() && (conn.closing || (conn.read_done && conn.drained())) {
                self.close(token);
                return;
            }
            // Toggle write interest to match reality: EPOLLOUT only while
            // bytes wait, else a busy socket would wake the loop forever.
            let want_write = !conn.out.is_empty();
            if want_write != conn.want_write {
                let mut mask = EPOLLIN | EPOLLRDHUP;
                if want_write {
                    mask |= EPOLLOUT;
                }
                let fd = conn.stream.as_raw_fd();
                if self.epoll.modify(fd, mask, token).is_ok() {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.want_write = want_write;
                    }
                } else {
                    self.close(token);
                }
            }
        }

        /// Closes connections that have been idle (nothing read, nothing
        /// in flight) past the configured timeout. Runs at most every
        /// `WAIT_TIMEOUT_MS`.
        fn sweep_idle(&mut self) {
            if self.last_sweep.elapsed() < Duration::from_millis(WAIT_TIMEOUT_MS as u64) {
                return;
            }
            self.last_sweep = Instant::now();
            let timeout = self.config.idle_timeout;
            let idle: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| {
                    c.last_activity.elapsed() > timeout
                        && c.drained()
                        && c.out.is_empty()
                        && !c.closing
                })
                .map(|(&t, _)| t)
                .collect();
            for token in idle {
                self.idle_closed.inc();
                if let Some(conn) = self.conns.get_mut(&token) {
                    let mut line = crate::protocol::error_response(&format!(
                        "idle timeout after {} ms",
                        timeout.as_millis()
                    ));
                    line.push('\n');
                    conn.out.push(line.as_bytes());
                    conn.closing = true;
                }
                self.settle(token);
            }
        }

        /// Removes a connection. Dropping the stream closes the fd,
        /// which also removes it from the epoll set; the explicit delete
        /// just keeps the set tidy when `try_clone`d fds exist.
        fn close(&mut self, token: u64) {
            if let Some(conn) = self.conns.remove(&token) {
                let _ = self.epoll.delete(conn.stream.as_raw_fd());
                self.active.sub(1);
            }
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
)))]
mod imp {
    use std::io;
    use std::net::SocketAddr;
    use std::sync::Arc;

    use super::ReactorConfig;
    use crate::Service;

    /// Stub on platforms without the epoll reactor (non-Linux, or miri):
    /// [`ReactorServer::start`] fails with `Unsupported`, pointing
    /// callers at the blocking server.
    #[derive(Debug)]
    pub struct ReactorServer {
        never: std::convert::Infallible,
    }

    impl ReactorServer {
        /// Always fails on this platform.
        ///
        /// # Errors
        ///
        /// `Unsupported`, unconditionally.
        pub fn start(
            _service: Arc<Service>,
            _addr: &str,
            _config: ReactorConfig,
        ) -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the epoll reactor requires linux on x86_64/aarch64; use the blocking server",
            ))
        }

        /// Unreachable (the stub cannot be constructed).
        pub fn local_addr(&self) -> SocketAddr {
            match self.never {}
        }

        /// Unreachable (the stub cannot be constructed).
        pub fn service(&self) -> &Arc<Service> {
            match self.never {}
        }

        /// Unreachable (the stub cannot be constructed).
        pub fn shutdown(self) {
            match self.never {}
        }
    }
}

pub use imp::ReactorServer;
