//! The server: a pipelined TCP front end over a shared [`HyperionDb`].
//!
//! Three thread roles, all built on `std` only:
//!
//! * an **accept thread** polls a nonblocking listener and hands fresh
//!   connections to the IO threads round-robin;
//! * **IO threads** own nonblocking connections and run a readiness loop:
//!   read until `WouldBlock`, extract frames ([`FrameBuf`]), answer
//!   `PING`/`STATS` and protocol errors inline, route everything else to the
//!   workers, then flush each connection's outbox until `WouldBlock`;
//! * **workers** are *shard-affine*: a single-key request goes to worker
//!   `shard_of(key) % workers`, so all traffic for one key funnels through
//!   one FIFO queue.  Each worker drains its whole queue per wakeup and
//!   coalesces consecutive runs of the drained jobs — reads into one
//!   [`HyperionDb::multi_get`], puts into one [`WriteBatch`] application,
//!   deletes into one [`HyperionDb::delete_many`] — so concurrent pipelined
//!   clients pay one lock acquisition and one trie descent group per *run*,
//!   not per request.  The drain is the coalescing window: the deeper the
//!   pipelines, the bigger the runs (observable via [`Request::Stats`]).
//!
//! Ordering contract: responses carry request ids and may complete out of
//! order, but operations on the *same key* are executed in arrival order
//! (same key → same shard → same worker queue → FIFO, and run coalescing
//! preserves the relative order of the drained jobs).  Multi-key requests
//! (`MGET`/`BATCH`) are routed by their first key and carry no cross-request
//! ordering guarantee.

use crate::protocol::{
    self, decode_request, encode_response, ErrorCode, FrameBuf, FrameEvent, Request, Response,
    StatsSnapshot,
};
use hyperion_core::db::MAX_KEY_LEN;
use hyperion_core::{BatchSummary, HyperionDb, HyperionError, WriteBatch};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Largest `MGET` key count accepted (bounds the response frame).
const MAX_MGET_KEYS: usize = 65_536;
/// Sleep of the accept poll and of an idle IO/worker wakeup.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Graceful-shutdown phases, advanced monotonically by
/// [`ServerHandle::shutdown`] (see its docs for the full sequence).
mod phase {
    /// Normal operation.
    pub const RUNNING: u8 = 0;
    /// The listener is closed; IO threads take one final read pass, route
    /// every complete buffered frame, then stop reading.
    pub const DRAIN_INPUT: u8 = 1;
    /// Workers drain their queues completely and exit.
    pub const WORKERS_EXIT: u8 = 2;
    /// IO threads flush remaining outbound bytes (bounded by the drain
    /// timeout), close every connection and exit.
    pub const FLUSH: u8 = 3;
}

/// Tunables for [`Server::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Readiness-loop threads owning connections (round-robin assigned).
    pub io_threads: usize,
    /// Shard-affine worker threads executing requests against the store.
    pub workers: usize,
    /// Maximum accepted frame size; larger frames are drained and answered
    /// with [`ErrorCode::FrameTooLarge`].  Clamped to [`protocol::MAX_FRAME`].
    pub max_frame: usize,
    /// Cap on a single scan's `limit` (responses are additionally bounded
    /// to fit one frame).
    pub max_scan_limit: u32,
    /// Simultaneous connection limit; connections over it are accepted and
    /// immediately dropped (counted as rejected).  `0` = unlimited.
    pub max_connections: usize,
    /// Per-worker queue depth past which freshly routed requests are shed
    /// with [`ErrorCode::Overloaded`] instead of queued.  `0` = unlimited.
    pub max_queue_depth: usize,
    /// A connection with no inbound traffic for this long — and nothing
    /// left to send it — is closed.  Zero disables the deadline.
    pub idle_timeout: Duration,
    /// Outbound bytes buffered per connection before the IO thread stops
    /// reading new requests from it (backpressure against slow readers).
    pub outbox_high_water: usize,
    /// A connection that stays above the high-water mark for this long is
    /// evicted as a slow client.  Zero disables eviction.
    pub slow_client_deadline: Duration,
    /// Budget for flushing remaining outbound bytes during graceful
    /// shutdown; connections still backlogged when it expires are cut.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            io_threads: 2,
            workers: 4,
            max_frame: protocol::MAX_FRAME,
            max_scan_limit: 4096,
            max_connections: 1024,
            max_queue_depth: 64 * 1024,
            idle_timeout: Duration::from_secs(60),
            outbox_high_water: 8 << 20,
            slow_client_deadline: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Atomic tallies behind [`Request::Stats`].
#[derive(Default)]
struct StatsCounters {
    requests: AtomicU64,
    errors: AtomicU64,
    read_groups: AtomicU64,
    read_ops: AtomicU64,
    read_keys: AtomicU64,
    write_groups: AtomicU64,
    write_ops: AtomicU64,
    write_keys: AtomicU64,
    scans: AtomicU64,
    shed_requests: AtomicU64,
    evicted_slow_clients: AtomicU64,
    deadline_closed_conns: AtomicU64,
    rejected_connections: AtomicU64,
}

impl StatsCounters {
    /// Merges the request tallies with the db's consolidated statistics
    /// tree ([`HyperionDb::stats`]), so engine behaviour is observable over
    /// the wire through one snapshot.
    fn snapshot(&self, db: &HyperionDb) -> StatsSnapshot {
        let stats = db.stats();
        let (shortcut, optimistic) = (stats.shortcut, stats.optimistic);
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            read_groups: self.read_groups.load(Ordering::Relaxed),
            read_ops: self.read_ops.load(Ordering::Relaxed),
            read_keys: self.read_keys.load(Ordering::Relaxed),
            write_groups: self.write_groups.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            write_keys: self.write_keys.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            shortcut_hits: shortcut.hits,
            shortcut_misses: shortcut.misses,
            shortcut_invalidations: shortcut.invalidations,
            shortcut_entries: shortcut.entries,
            optimistic_hits: optimistic.hits,
            optimistic_retries: optimistic.retries,
            optimistic_fallbacks: optimistic.fallbacks,
            shed_requests: self.shed_requests.load(Ordering::Relaxed),
            evicted_slow_clients: self.evicted_slow_clients.load(Ordering::Relaxed),
            deadline_closed_conns: self.deadline_closed_conns.load(Ordering::Relaxed),
            rejected_connections: self.rejected_connections.load(Ordering::Relaxed),
            failpoint_trips: stats.failpoint_trips,
            poison_recoveries: stats.poison_recoveries,
            stats_version: stats.version,
        }
    }
}

/// Per-connection outbound buffer, shared between the owning IO thread and
/// the workers that answer its requests.
struct Outbox {
    buf: Mutex<Vec<u8>>,
    /// Set by the IO thread when the connection dies so workers stop
    /// encoding responses nobody will read.
    closed: AtomicBool,
}

impl Outbox {
    fn push(&self, id: u32, resp: &Response) {
        if self.closed.load(Ordering::Relaxed) {
            return;
        }
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        encode_response(id, resp, &mut buf);
    }
}

/// A routed request awaiting execution on a worker.
struct Job {
    id: u32,
    outbox: Arc<Outbox>,
    op: JobOp,
}

enum JobOp {
    Get(Vec<u8>),
    MGet(Vec<Vec<u8>>),
    Put(Vec<u8>, u64),
    Del(Vec<u8>),
    Batch(Vec<protocol::BatchEntry>),
    Scan {
        start: Vec<u8>,
        end: Option<Vec<u8>>,
        limit: u32,
        reverse: bool,
    },
}

/// One worker's FIFO queue.
#[derive(Default)]
struct WorkerQueue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

impl WorkerQueue {
    /// Enqueues unless the queue is already at `depth_cap` jobs, in which
    /// case the job is handed back for shedding.
    fn try_push(&self, job: Job, depth_cap: usize) -> Result<(), Job> {
        let mut q = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= depth_cap {
            return Err(job);
        }
        q.push_back(job);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }
}

/// State shared by every server thread.
struct Shared {
    db: Arc<HyperionDb>,
    config: ServerConfig,
    /// Current shutdown phase (one of the [`phase`] constants).
    phase: AtomicU8,
    /// IO threads that have finished their final input pass (the barrier
    /// [`ServerHandle::shutdown`] waits on before retiring the workers).
    drained_io: AtomicUsize,
    /// Live connections (accepted and not yet torn down).
    conn_count: AtomicUsize,
    stats: StatsCounters,
    queues: Vec<WorkerQueue>,
    /// Round-robin cursor for requests with no shard affinity (scans).
    rr: AtomicUsize,
}

impl Shared {
    fn worker_for_key(&self, key: &[u8]) -> usize {
        self.db.shard_of(key) % self.queues.len()
    }

    fn worker_round_robin(&self) -> usize {
        self.rr.fetch_add(1, Ordering::Relaxed) % self.queues.len()
    }
}

/// Namespace for [`Server::start`].
pub struct Server;

/// A running server: join handles plus the shared state.  Dropping the
/// handle shuts the server down gracefully and joins every thread.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    io_threads: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and spawns the
    /// accept, IO and worker threads over `db`.
    pub fn start(
        db: Arc<HyperionDb>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let config = ServerConfig {
            io_threads: config.io_threads.max(1),
            workers: config.workers.max(1),
            max_frame: config.max_frame.clamp(64, protocol::MAX_FRAME),
            max_scan_limit: config.max_scan_limit.max(1),
            // Zero means "unlimited" for both limits.
            max_connections: if config.max_connections == 0 {
                usize::MAX
            } else {
                config.max_connections
            },
            max_queue_depth: if config.max_queue_depth == 0 {
                usize::MAX
            } else {
                config.max_queue_depth
            },
            idle_timeout: config.idle_timeout,
            outbox_high_water: config.outbox_high_water.max(4096),
            slow_client_deadline: config.slow_client_deadline,
            drain_timeout: config.drain_timeout,
        };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            db,
            config,
            phase: AtomicU8::new(phase::RUNNING),
            drained_io: AtomicUsize::new(0),
            conn_count: AtomicUsize::new(0),
            stats: StatsCounters::default(),
            queues: (0..config.workers)
                .map(|_| WorkerQueue::default())
                .collect(),
            rr: AtomicUsize::new(0),
        });

        // Fresh connections flow accept thread -> IO thread through these.
        let inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>> = (0..config.io_threads)
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            let inboxes = inboxes.clone();
            thread::Builder::new()
                .name("hyperion-accept".into())
                .spawn(move || accept_loop(listener, shared, inboxes))?
        };
        let mut io_threads = Vec::with_capacity(config.io_threads);
        for (i, inbox) in inboxes.iter().enumerate() {
            let shared = Arc::clone(&shared);
            let inbox = Arc::clone(inbox);
            io_threads.push(
                thread::Builder::new()
                    .name(format!("hyperion-io-{i}"))
                    .spawn(move || io_loop(shared, inbox))?,
            );
        }
        let mut workers = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let shared = Arc::clone(&shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("hyperion-worker-{w}"))
                    .spawn(move || worker_loop(shared, w))?,
            );
        }
        Ok(ServerHandle {
            local_addr,
            shared,
            accept: Some(accept),
            io_threads,
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the server counters (same numbers as the `STATS`
    /// request, without a round trip).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot(&self.shared.db)
    }

    /// Gracefully stops the server and joins every thread.  Idempotent;
    /// also runs on drop.  The sequence:
    ///
    /// 1. close the listener (the port is free for re-binding as soon as
    ///    this returns) and stop accepting;
    /// 2. IO threads take one final read pass and route every complete
    ///    frame already received, then stop reading;
    /// 3. workers drain their queues to empty and exit — every routed
    ///    request gets a response;
    /// 4. IO threads flush the remaining outbound bytes (bounded by
    ///    [`ServerConfig::drain_timeout`]), close every connection at a
    ///    frame boundary and exit.
    ///
    /// Clients therefore observe complete responses for everything the
    /// server received, followed by a clean EOF — never a torn frame
    /// (unless the drain budget expires on a backlogged connection).
    pub fn shutdown(&mut self) {
        if self.accept.is_none() && self.io_threads.is_empty() && self.workers.is_empty() {
            return;
        }
        self.shared
            .phase
            .store(phase::DRAIN_INPUT, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Barrier: every IO thread finishes routing buffered input before
        // the workers are told their queues are final.  Bounded so a
        // wedged IO thread cannot hang shutdown forever.
        let io_count = self.io_threads.len();
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        while self.shared.drained_io.load(Ordering::Acquire) < io_count && Instant::now() < deadline
        {
            thread::sleep(Duration::from_micros(100));
        }
        self.shared
            .phase
            .store(phase::WORKERS_EXIT, Ordering::SeqCst);
        for q in &self.shared.queues {
            q.ready.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.phase.store(phase::FLUSH, Ordering::SeqCst);
        for io in self.io_threads.drain(..) {
            let _ = io.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// =============================================================================
// accept thread
// =============================================================================

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>>,
) {
    let mut next = 0usize;
    while shared.phase.load(Ordering::Relaxed) == phase::RUNNING {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // At the connection limit the stream is dropped on the
                // floor: the peer sees an immediate close and can back off.
                if shared.conn_count.load(Ordering::Relaxed) >= shared.config.max_connections {
                    shared
                        .stats
                        .rejected_connections
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // Small frames answered promptly matter more than batching
                // here; the protocol already batches at the frame level.
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                shared.conn_count.fetch_add(1, Ordering::Relaxed);
                let mut inbox = inboxes[next % inboxes.len()]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                inbox.push(stream);
                next += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(IDLE_SLEEP),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient accept failures (per-connection resets, fd pressure)
            // must not kill the listener.
            Err(_) => thread::sleep(IDLE_SLEEP),
        }
    }
    // The listener drops here, freeing the port for an immediate re-bind.
}

// =============================================================================
// IO threads
// =============================================================================

/// Why a connection was torn down.  Every close — peer-initiated, error,
/// deadline or shutdown — funnels through [`close_conn`] with exactly one
/// of these, so each close is counted once and the teardown bookkeeping
/// (outbox poisoning, connection-count release) cannot be missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// Peer closed cleanly at a frame boundary.
    PeerClosed,
    /// Peer vanished with a partial frame still buffered.
    MidFrameEof,
    /// Transport error while reading.
    ReadError,
    /// Transport error (or zero-length write) while flushing.
    WriteError,
    /// No inbound traffic past [`ServerConfig::idle_timeout`].
    IdleDeadline,
    /// Outbox above high water past [`ServerConfig::slow_client_deadline`].
    SlowClient,
    /// Graceful shutdown: outbox flushed (or the drain budget expired).
    Drained,
}

/// One nonblocking connection owned by an IO thread.
struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    outbox: Arc<Outbox>,
    /// Bytes taken from the outbox, partially written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Last time inbound bytes arrived (idle-deadline clock).
    last_activity: Instant,
    /// When the outbox first crossed the high-water mark (slow-client
    /// eviction clock); cleared once the backlog drains.
    backlogged_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, max_frame: usize) -> Conn {
        Conn {
            stream,
            frames: FrameBuf::new(max_frame),
            outbox: Arc::new(Outbox {
                buf: Mutex::new(Vec::new()),
                closed: AtomicBool::new(false),
            }),
            wbuf: Vec::new(),
            wpos: 0,
            last_activity: Instant::now(),
            backlogged_since: None,
        }
    }

    /// Moves completed outbox bytes into the write buffer and writes until
    /// `WouldBlock`.  Returns `false` when the connection is dead.
    fn flush(&mut self) -> bool {
        {
            let mut buf = self.outbox.buf.lock().unwrap_or_else(|e| e.into_inner());
            if !buf.is_empty() {
                if self.wbuf.len() == self.wpos {
                    self.wbuf.clear();
                    self.wpos = 0;
                    std::mem::swap(&mut self.wbuf, &mut buf);
                } else {
                    self.wbuf.extend_from_slice(&buf);
                    buf.clear();
                }
            }
        }
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if self.wpos == self.wbuf.len() && !self.wbuf.is_empty() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        true
    }

    fn backlogged(&self, high_water: usize) -> bool {
        self.wbuf.len() - self.wpos >= high_water
    }

    /// Nothing left to send: the write buffer drained and the outbox is
    /// empty (workers may still add to it while the server runs).
    fn output_empty(&self) -> bool {
        self.wpos == self.wbuf.len()
            && self
                .outbox
                .buf
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty()
    }
}

/// The single teardown path: poisons the outbox so workers stop encoding
/// responses, releases the connection slot and counts the close under its
/// reason.  The caller drops the [`Conn`] (closing the socket) afterwards.
fn close_conn(shared: &Shared, conn: &Conn, reason: CloseReason) {
    conn.outbox.closed.store(true, Ordering::Relaxed);
    shared.conn_count.fetch_sub(1, Ordering::Relaxed);
    match reason {
        CloseReason::IdleDeadline => {
            shared
                .stats
                .deadline_closed_conns
                .fetch_add(1, Ordering::Relaxed);
        }
        CloseReason::SlowClient => {
            shared
                .stats
                .evicted_slow_clients
                .fetch_add(1, Ordering::Relaxed);
        }
        CloseReason::PeerClosed
        | CloseReason::MidFrameEof
        | CloseReason::ReadError
        | CloseReason::WriteError
        | CloseReason::Drained => {}
    }
    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
}

fn io_loop(shared: Arc<Shared>, inbox: Arc<Mutex<Vec<TcpStream>>>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut read_chunk = vec![0u8; 64 * 1024];
    let mut idle_rounds = 0u32;
    let mut drained_input = false;
    let mut flush_deadline: Option<Instant> = None;
    loop {
        let current = shared.phase.load(Ordering::Acquire);
        if current != phase::RUNNING {
            // Connections parked in the inbox never got service; release
            // their slots and drop them.
            {
                let mut incoming = inbox.lock().unwrap_or_else(|e| e.into_inner());
                for stream in incoming.drain(..) {
                    shared.conn_count.fetch_sub(1, Ordering::Relaxed);
                    drop(stream);
                }
            }
            if !drained_input {
                // Final input pass: pick up whatever the kernel already
                // buffered and route every complete frame, so pipelined
                // requests that reached the server still execute.
                for conn in &mut conns {
                    final_input_pass(&shared, conn, &mut read_chunk);
                }
                drained_input = true;
                shared.drained_io.fetch_add(1, Ordering::Release);
            }
            // Keep flushing while the workers finish their queues.
            let mut i = 0;
            while i < conns.len() {
                if conns[i].flush() {
                    i += 1;
                } else {
                    close_conn(&shared, &conns[i], CloseReason::WriteError);
                    conns.swap_remove(i);
                }
            }
            if current >= phase::FLUSH {
                let deadline = *flush_deadline
                    .get_or_insert_with(|| Instant::now() + shared.config.drain_timeout);
                if conns.iter().all(|c| c.output_empty()) || Instant::now() >= deadline {
                    for conn in &conns {
                        close_conn(&shared, conn, CloseReason::Drained);
                    }
                    return;
                }
            }
            thread::sleep(IDLE_SLEEP);
            continue;
        }
        let mut active = false;

        {
            let mut incoming = inbox.lock().unwrap_or_else(|e| e.into_inner());
            for stream in incoming.drain(..) {
                conns.push(Conn::new(stream, shared.config.max_frame));
                active = true;
            }
        }

        let mut i = 0;
        while i < conns.len() {
            match service_conn(&shared, &mut conns[i], &mut read_chunk, &mut active) {
                Ok(()) => i += 1,
                Err(reason) => {
                    close_conn(&shared, &conns[i], reason);
                    conns.swap_remove(i);
                    active = true;
                }
            }
        }

        if active {
            idle_rounds = 0;
        } else {
            // Burn a few rounds yielding (a worker is probably about to fill
            // an outbox), then settle into a genuine sleep.
            idle_rounds = idle_rounds.saturating_add(1);
            if idle_rounds < 16 {
                thread::yield_now();
            } else {
                thread::sleep(IDLE_SLEEP);
            }
        }
    }
}

/// Shutdown-time read pass: drains the kernel receive buffer until
/// `WouldBlock`/EOF and routes every complete frame.  Read failures are
/// ignored — the connection is in teardown either way.
fn final_input_pass(shared: &Shared, conn: &mut Conn, chunk: &mut [u8]) {
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => break,
            Ok(n) => {
                conn.frames.extend(&chunk[..n]);
                if n < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    while let Some(event) = conn.frames.next_event() {
        dispatch_event(shared, conn, event);
    }
}

/// Answers or routes one framing event.
fn dispatch_event(shared: &Shared, conn: &Conn, event: FrameEvent) {
    match event {
        FrameEvent::Frame(body) => handle_frame(shared, conn, &body),
        FrameEvent::Oversized { id, len } => {
            shared.stats.requests.fetch_add(1, Ordering::Relaxed);
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            conn.outbox.push(
                id,
                &Response::Error {
                    code: ErrorCode::FrameTooLarge,
                    message: format!(
                        "frame of {len} bytes exceeds the {}-byte limit",
                        shared.config.max_frame
                    ),
                },
            );
        }
    }
}

/// Reads, parses, routes and flushes one connection.  Returns the close
/// reason when the connection should be torn down.
fn service_conn(
    shared: &Shared,
    conn: &mut Conn,
    chunk: &mut [u8],
    active: &mut bool,
) -> Result<(), CloseReason> {
    let config = &shared.config;
    let mut eof = false;
    // Read until WouldBlock — unless the peer is not draining its responses,
    // in which case reading more requests would just grow the backlog.
    if !conn.backlogged(config.outbox_high_water) {
        loop {
            match conn.stream.read(chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.frames.extend(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    *active = true;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(CloseReason::ReadError),
            }
        }
    }
    while let Some(event) = conn.frames.next_event() {
        *active = true;
        dispatch_event(shared, conn, event);
    }
    if eof {
        // Bytes left in the frame buffer mean the peer died mid-frame.
        return Err(if conn.frames.buffered() > 0 {
            CloseReason::MidFrameEof
        } else {
            CloseReason::PeerClosed
        });
    }
    if !conn.flush() {
        return Err(CloseReason::WriteError);
    }
    // Slow-client eviction: a peer that leaves its responses unread past
    // the high-water mark for too long forfeits the connection (and the
    // buffered bytes with it).
    if conn.backlogged(config.outbox_high_water) {
        let since = *conn.backlogged_since.get_or_insert_with(Instant::now);
        if !config.slow_client_deadline.is_zero() && since.elapsed() >= config.slow_client_deadline
        {
            return Err(CloseReason::SlowClient);
        }
    } else {
        conn.backlogged_since = None;
    }
    // Idle deadline: only once nothing is owed to the peer, so a burst of
    // slow responses cannot masquerade as idleness.
    if !config.idle_timeout.is_zero()
        && conn.last_activity.elapsed() >= config.idle_timeout
        && conn.output_empty()
    {
        return Err(CloseReason::IdleDeadline);
    }
    *active |= conn.wpos < conn.wbuf.len();
    Ok(())
}

/// Decodes one frame and either answers it inline or routes it to a worker.
fn handle_frame(shared: &Shared, conn: &Conn, body: &[u8]) {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let (id, request) = match decode_request(body) {
        Ok(decoded) => decoded,
        Err((id, e)) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            conn.outbox.push(
                id,
                &Response::Error {
                    code: e.code,
                    message: e.message,
                },
            );
            return;
        }
    };
    // Validate keys at the door so workers only ever see storable keys.
    let reject = |code: ErrorCode, message: String| {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        conn.outbox.push(id, &Response::Error { code, message });
    };
    let key_ok = |key: &[u8]| key.len() <= MAX_KEY_LEN;
    let too_long = |key: &[u8]| {
        (
            ErrorCode::KeyTooLong,
            format!(
                "key of {} bytes exceeds the maximum of {MAX_KEY_LEN}",
                key.len()
            ),
        )
    };
    let (worker, op) = match request {
        Request::Ping => {
            conn.outbox.push(id, &Response::Pong);
            return;
        }
        Request::Stats => {
            conn.outbox
                .push(id, &Response::Stats(shared.stats.snapshot(&shared.db)));
            return;
        }
        Request::Get { key } => {
            if !key_ok(&key) {
                let (code, msg) = too_long(&key);
                return reject(code, msg);
            }
            (shared.worker_for_key(&key), JobOp::Get(key))
        }
        Request::Put { key, value } => {
            if !key_ok(&key) {
                let (code, msg) = too_long(&key);
                return reject(code, msg);
            }
            (shared.worker_for_key(&key), JobOp::Put(key, value))
        }
        Request::Del { key } => {
            if !key_ok(&key) {
                let (code, msg) = too_long(&key);
                return reject(code, msg);
            }
            (shared.worker_for_key(&key), JobOp::Del(key))
        }
        Request::MGet { keys } => {
            if keys.len() > MAX_MGET_KEYS {
                return reject(
                    ErrorCode::BadArgument,
                    format!(
                        "mget of {} keys exceeds the maximum of {MAX_MGET_KEYS}",
                        keys.len()
                    ),
                );
            }
            if let Some(bad) = keys.iter().find(|k| !key_ok(k)) {
                let (code, msg) = too_long(bad);
                return reject(code, msg);
            }
            let worker = keys
                .first()
                .map(|k| shared.worker_for_key(k))
                .unwrap_or_else(|| shared.worker_round_robin());
            (worker, JobOp::MGet(keys))
        }
        Request::Batch { ops } => {
            if let Some(bad) = ops.iter().map(|op| op.key()).find(|k| !key_ok(k)) {
                let (code, msg) = too_long(bad);
                return reject(code, msg);
            }
            let worker = ops
                .first()
                .map(|op| shared.worker_for_key(op.key()))
                .unwrap_or_else(|| shared.worker_round_robin());
            (worker, JobOp::Batch(ops))
        }
        Request::Scan {
            start,
            end,
            limit,
            reverse,
        } => {
            if limit == 0 {
                return reject(ErrorCode::BadArgument, "scan limit must be >= 1".into());
            }
            (
                shared.worker_round_robin(),
                JobOp::Scan {
                    start,
                    end,
                    limit: limit.min(shared.config.max_scan_limit),
                    reverse,
                },
            )
        }
    };
    // Overload shedding at the routing boundary: a queue over its depth
    // limit answers `Overloaded` immediately instead of absorbing work it
    // cannot keep up with.  Shed requests were never executed, so the
    // client can retry safely.
    let job = Job {
        id,
        outbox: Arc::clone(&conn.outbox),
        op,
    };
    if let Err(shed) = shared.queues[worker].try_push(job, shared.config.max_queue_depth) {
        shared.stats.shed_requests.fetch_add(1, Ordering::Relaxed);
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        shed.outbox.push(
            shed.id,
            &Response::Error {
                code: ErrorCode::Overloaded,
                message: format!("worker queue {worker} is full; retry with backoff"),
            },
        );
    }
}

// =============================================================================
// workers
// =============================================================================

fn worker_loop(shared: Arc<Shared>, index: usize) {
    let queue = &shared.queues[index];
    let mut drained: Vec<Job> = Vec::new();
    loop {
        {
            let mut q = queue.jobs.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if !q.is_empty() {
                    // The whole queue at once: this drain IS the coalescing
                    // window the runs below are cut from.
                    drained.extend(q.drain(..));
                    break;
                }
                // Exit only on an *empty* queue once the drain phase is
                // reached: every routed request gets executed and answered.
                if shared.phase.load(Ordering::Acquire) >= phase::WORKERS_EXIT {
                    return;
                }
                let (guard, _timeout) = queue
                    .ready
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        }
        execute_runs(&shared, &drained);
        drained.clear();
    }
}

/// Cuts the drained jobs into maximal homogeneous runs and executes each
/// run as one store operation.  Run boundaries (not sorting) keep per-key
/// arrival order intact.
fn execute_runs(shared: &Shared, jobs: &[Job]) {
    let mut at = 0;
    while at < jobs.len() {
        let end = match &jobs[at].op {
            JobOp::Get(_) | JobOp::MGet(_) => {
                run_end(jobs, at, |op| matches!(op, JobOp::Get(_) | JobOp::MGet(_)))
            }
            JobOp::Put(..) => run_end(jobs, at, |op| matches!(op, JobOp::Put(..))),
            JobOp::Del(_) => run_end(jobs, at, |op| matches!(op, JobOp::Del(_))),
            JobOp::Batch(_) | JobOp::Scan { .. } => at + 1,
        };
        run_guarded(shared, &jobs[at..end], || match &jobs[at].op {
            JobOp::Get(_) | JobOp::MGet(_) => exec_read_run(shared, &jobs[at..end]),
            JobOp::Put(..) => exec_put_run(shared, &jobs[at..end]),
            JobOp::Del(_) => exec_del_run(shared, &jobs[at..end]),
            JobOp::Batch(ops) => exec_batch(shared, &jobs[at], ops),
            JobOp::Scan {
                start,
                end: bound,
                limit,
                reverse,
            } => exec_scan(shared, &jobs[at], start, bound.as_deref(), *limit, *reverse),
        });
        at = end;
    }
}

/// Executes one coalesced run, absorbing any panic that escapes the store
/// (an injected fault, or a real bug tearing a shard): poisoned shards are
/// recovered and the run retried once; a second death answers every job
/// with a retryable [`ErrorCode::Unavailable`].  Sound because each
/// `exec_*` fn performs its store call *before* pushing any response, so a
/// panicking attempt has answered none of the run's jobs.
fn run_guarded(shared: &Shared, run: &[Job], exec: impl Fn()) {
    for attempt in 0..2 {
        if catch_unwind(AssertUnwindSafe(&exec)).is_ok() {
            return;
        }
        shared.db.recover_poisoned();
        if attempt == 0 {
            continue;
        }
        shared
            .stats
            .errors
            .fetch_add(run.len() as u64, Ordering::Relaxed);
        let resp = Response::Error {
            code: ErrorCode::Unavailable,
            message: "request aborted by a store fault; shard recovered, retry".into(),
        };
        for job in run {
            job.outbox.push(job.id, &resp);
        }
    }
}

fn run_end(jobs: &[Job], at: usize, pred: impl Fn(&JobOp) -> bool) -> usize {
    let mut end = at + 1;
    while end < jobs.len() && pred(&jobs[end].op) {
        end += 1;
    }
    end
}

/// `true` for transient store-side faults that an idempotent client can
/// safely resend.  A poisoned shard is recovered eagerly so the retry lands
/// on a healthy store; a partially-failed batch is transient iff every one
/// of its per-op failures is.
fn transient_error(shared: &Shared, e: &HyperionError) -> bool {
    match e {
        HyperionError::ShardPoisoned { .. } => {
            shared.db.recover_poisoned();
            true
        }
        HyperionError::AllocFailed { .. } | HyperionError::Injected { .. } => true,
        // fold, not `all`: recover every poisoned shard, no short-circuit.
        HyperionError::BatchFailed(report) => report
            .failures
            .iter()
            .fold(true, |acc, (_, e)| transient_error(shared, e) && acc),
        _ => false,
    }
}

fn backend_error(shared: &Shared, e: &HyperionError) -> Response {
    // Transient store-side faults are retryable `Unavailable`; everything
    // else reports a genuine backend defect.
    let code = if transient_error(shared, e) {
        ErrorCode::Unavailable
    } else {
        ErrorCode::Backend
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// One `multi_get` for a whole run of GET/MGET jobs.
fn exec_read_run(shared: &Shared, run: &[Job]) {
    let mut keys: Vec<&[u8]> = Vec::new();
    for job in run {
        match &job.op {
            JobOp::Get(key) => keys.push(key),
            JobOp::MGet(batch) => keys.extend(batch.iter().map(|k| k.as_slice())),
            _ => unreachable!("read run contains a non-read job"),
        }
    }
    shared.stats.read_groups.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .read_ops
        .fetch_add(run.len() as u64, Ordering::Relaxed);
    shared
        .stats
        .read_keys
        .fetch_add(keys.len() as u64, Ordering::Relaxed);
    match shared.db.multi_get(&keys) {
        Ok(values) => {
            let mut offset = 0;
            for job in run {
                match &job.op {
                    JobOp::Get(_) => {
                        job.outbox.push(job.id, &Response::Value(values[offset]));
                        offset += 1;
                    }
                    JobOp::MGet(batch) => {
                        let slice = values[offset..offset + batch.len()].to_vec();
                        job.outbox.push(job.id, &Response::Values(slice));
                        offset += batch.len();
                    }
                    _ => unreachable!(),
                }
            }
        }
        Err(e) => {
            shared
                .stats
                .errors
                .fetch_add(run.len() as u64, Ordering::Relaxed);
            let resp = backend_error(shared, &e);
            for job in run {
                job.outbox.push(job.id, &resp);
            }
        }
    }
}

/// One `WriteBatch` application for a whole run of PUT jobs.
fn exec_put_run(shared: &Shared, run: &[Job]) {
    let mut batch = WriteBatch::with_capacity(run.len());
    for job in run {
        match &job.op {
            JobOp::Put(key, value) => {
                batch.put(key, *value);
            }
            _ => unreachable!("put run contains a non-put job"),
        }
    }
    shared.stats.write_groups.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .write_ops
        .fetch_add(run.len() as u64, Ordering::Relaxed);
    shared
        .stats
        .write_keys
        .fetch_add(run.len() as u64, Ordering::Relaxed);
    match shared.db.apply(&batch) {
        Ok(_) => {
            for job in run {
                job.outbox.push(job.id, &Response::Ok);
            }
        }
        // Batch ops map 1:1 to run jobs in order, and the report lists
        // exactly the failed indices (sorted) — every other put was applied
        // and is acknowledged; only the real casualties see an error.
        Err(HyperionError::BatchFailed(report)) => {
            shared
                .stats
                .errors
                .fetch_add(report.failures.len() as u64, Ordering::Relaxed);
            let mut failed = report.failures.iter().peekable();
            for (i, job) in run.iter().enumerate() {
                match failed.peek() {
                    Some((at, e)) if *at == i => {
                        job.outbox.push(job.id, &backend_error(shared, e));
                        failed.next();
                    }
                    _ => job.outbox.push(job.id, &Response::Ok),
                }
            }
        }
        Err(e) => {
            shared
                .stats
                .errors
                .fetch_add(run.len() as u64, Ordering::Relaxed);
            let resp = backend_error(shared, &e);
            for job in run {
                job.outbox.push(job.id, &resp);
            }
        }
    }
}

/// One `delete_many` for a whole run of DEL jobs — exact per-key presence
/// bools come back positionally.
fn exec_del_run(shared: &Shared, run: &[Job]) {
    let keys: Vec<&[u8]> = run
        .iter()
        .map(|job| match &job.op {
            JobOp::Del(key) => key.as_slice(),
            _ => unreachable!("delete run contains a non-delete job"),
        })
        .collect();
    shared.stats.write_groups.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .write_ops
        .fetch_add(run.len() as u64, Ordering::Relaxed);
    shared
        .stats
        .write_keys
        .fetch_add(keys.len() as u64, Ordering::Relaxed);
    match shared.db.delete_many(&keys) {
        Ok(removed) => {
            for (job, removed) in run.iter().zip(removed) {
                job.outbox.push(job.id, &Response::Deleted(removed));
            }
        }
        Err(e) => {
            shared
                .stats
                .errors
                .fetch_add(run.len() as u64, Ordering::Relaxed);
            let resp = backend_error(shared, &e);
            for job in run {
                job.outbox.push(job.id, &resp);
            }
        }
    }
}

fn exec_batch(shared: &Shared, job: &Job, ops: &[protocol::BatchEntry]) {
    let mut batch = WriteBatch::with_capacity(ops.len());
    for op in ops {
        match op {
            protocol::BatchEntry::Put { key, value } => {
                batch.put(key, *value);
            }
            protocol::BatchEntry::Del { key } => {
                batch.delete(key);
            }
        }
    }
    shared.stats.write_groups.fetch_add(1, Ordering::Relaxed);
    shared.stats.write_ops.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .write_keys
        .fetch_add(ops.len() as u64, Ordering::Relaxed);
    match shared.db.apply(&batch) {
        Ok(BatchSummary {
            inserted,
            updated,
            deleted,
            missing,
        }) => job.outbox.push(
            job.id,
            &Response::Summary {
                inserted: inserted as u32,
                updated: updated as u32,
                deleted: deleted as u32,
                missing: missing as u32,
            },
        ),
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            job.outbox.push(job.id, &backend_error(shared, &e));
        }
    }
}

fn exec_scan(
    shared: &Shared,
    job: &Job,
    start: &[u8],
    end: Option<&[u8]>,
    limit: u32,
    reverse: bool,
) {
    shared.stats.scans.fetch_add(1, Ordering::Relaxed);
    let iter = match (end, reverse) {
        (Some(end), false) => shared.db.range(start..end),
        (None, false) => shared.db.range(start..),
        (Some(end), true) => shared.db.range_rev(start..end),
        (None, true) => shared.db.range_rev(start..),
    };
    // Entries are bounded twice: by the (capped) limit and by what fits in
    // one response frame.
    let mut budget = shared.config.max_frame.saturating_sub(64);
    let mut entries = Vec::new();
    for (key, value) in iter.take(limit as usize) {
        let cost = 2 + key.len() + 8;
        if cost > budget {
            break;
        }
        budget -= cost;
        entries.push((key, value));
    }
    job.outbox.push(job.id, &Response::Entries(entries));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::BatchEntry;
    use hyperion_core::HyperionConfig;

    fn test_db() -> Arc<HyperionDb> {
        Arc::new(HyperionDb::new(4, HyperionConfig::for_strings()))
    }

    fn start(db: Arc<HyperionDb>) -> ServerHandle {
        Server::start(db, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback")
    }

    #[test]
    fn point_ops_roundtrip_through_a_socket() {
        let db = test_db();
        let mut server = start(Arc::clone(&db));
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.ping().expect("ping");
        assert_eq!(client.get(b"missing").unwrap(), None);
        client.put(b"alpha", 1).unwrap();
        client.put(b"beta", 2).unwrap();
        assert_eq!(client.get(b"alpha").unwrap(), Some(1));
        assert_eq!(client.get(b"beta").unwrap(), Some(2));
        assert!(client.del(b"alpha").unwrap());
        assert!(!client.del(b"alpha").unwrap());
        assert_eq!(client.get(b"alpha").unwrap(), None);
        // The same data is visible through the embedded handle.
        assert_eq!(db.get(b"beta").unwrap(), Some(2));
        server.shutdown();
    }

    #[test]
    fn mget_batch_and_scan() {
        let db = test_db();
        let mut server = start(db);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let ack = client
            .batch(&[
                BatchEntry::Put {
                    key: b"k1".to_vec(),
                    value: 10,
                },
                BatchEntry::Put {
                    key: b"k2".to_vec(),
                    value: 20,
                },
                BatchEntry::Put {
                    key: b"k3".to_vec(),
                    value: 30,
                },
                BatchEntry::Del {
                    key: b"k2".to_vec(),
                },
                BatchEntry::Del {
                    key: b"nope".to_vec(),
                },
            ])
            .unwrap();
        assert_eq!(
            (ack.inserted, ack.updated, ack.deleted, ack.missing),
            (3, 0, 1, 1)
        );
        assert_eq!(
            client.mget(&[b"k1", b"k2", b"k3"]).unwrap(),
            vec![Some(10), None, Some(30)]
        );
        assert_eq!(
            client.scan(b"", None, 100, false).unwrap(),
            vec![(b"k1".to_vec(), 10), (b"k3".to_vec(), 30)]
        );
        assert_eq!(
            client.scan(b"", None, 100, true).unwrap(),
            vec![(b"k3".to_vec(), 30), (b"k1".to_vec(), 10)]
        );
        assert_eq!(
            client.scan(b"k1\x00", Some(b"k3"), 100, false).unwrap(),
            vec![]
        );
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_coalesce() {
        let db = test_db();
        let mut server = start(db);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        const N: u64 = 512;
        let mut ids = Vec::new();
        for i in 0..N {
            let key = format!("pipe{i:04}").into_bytes();
            ids.push(client.send(&Request::Put { key, value: i }));
        }
        client.flush().expect("flush");
        for _ in 0..N {
            let (id, resp) = client.recv().expect("recv");
            assert!(ids.contains(&id));
            assert_eq!(resp, Response::Ok);
        }
        let mut ids = Vec::new();
        for i in 0..N {
            let key = format!("pipe{i:04}").into_bytes();
            ids.push((client.send(&Request::Get { key }), i));
        }
        client.flush().expect("flush");
        for _ in 0..N {
            let (id, resp) = client.recv().expect("recv");
            let (_, i) = ids.iter().find(|(sent, _)| *sent == id).expect("known id");
            assert_eq!(resp, Response::Value(Some(*i)));
        }
        let stats = server.stats();
        assert!(
            stats.avg_read_group() > 1.0,
            "pipelined gets should coalesce: {stats:?}"
        );
        assert!(
            stats.avg_write_group() > 1.0,
            "pipelined puts should coalesce: {stats:?}"
        );
        server.shutdown();
    }

    #[test]
    fn same_key_pipeline_is_fifo() {
        let db = test_db();
        let mut server = start(db);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        // put 1, del, put 2, get — arrival order must win for one key.
        let ids = [
            client.send(&Request::Put {
                key: b"k".to_vec(),
                value: 1,
            }),
            client.send(&Request::Del { key: b"k".to_vec() }),
            client.send(&Request::Put {
                key: b"k".to_vec(),
                value: 2,
            }),
            client.send(&Request::Get { key: b"k".to_vec() }),
        ];
        client.flush().expect("flush");
        let mut responses = std::collections::HashMap::new();
        for _ in 0..ids.len() {
            let (id, resp) = client.recv().expect("recv");
            responses.insert(id, resp);
        }
        assert_eq!(responses[&ids[0]], Response::Ok);
        assert_eq!(responses[&ids[1]], Response::Deleted(true));
        assert_eq!(responses[&ids[2]], Response::Ok);
        assert_eq!(responses[&ids[3]], Response::Value(Some(2)));
        server.shutdown();
    }

    #[test]
    fn malformed_frames_get_typed_errors_and_the_connection_survives() {
        let db = test_db();
        let mut server = start(db);
        let mut client = Client::connect(server.local_addr()).expect("connect");

        // A syntactically broken PUT payload (declared length cuts the value
        // short).
        let mut raw = Vec::new();
        protocol::encode_request(
            91,
            &Request::Put {
                key: b"x".to_vec(),
                value: 1,
            },
            &mut raw,
        );
        raw.pop();
        let len = u32::from_le_bytes(raw[..4].try_into().unwrap()) - 1;
        raw[..4].copy_from_slice(&len.to_le_bytes());
        client.send_raw(&raw).expect("send raw");
        let (id, resp) = client.recv().expect("recv");
        assert_eq!(id, 91);
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::BadFrame,
                    ..
                }
            ),
            "{resp:?}"
        );

        // An unknown opcode.
        let mut raw = Vec::new();
        raw.extend_from_slice(&5u32.to_le_bytes());
        raw.push(0x42);
        raw.extend_from_slice(&92u32.to_le_bytes());
        client.send_raw(&raw).expect("send raw");
        let (id, resp) = client.recv().expect("recv");
        assert_eq!(id, 92);
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::UnknownOp,
                    ..
                }
            ),
            "{resp:?}"
        );

        // A key over MAX_KEY_LEN: typed rejection, not a dead socket.
        let id = client.send(&Request::Get {
            key: vec![b'x'; MAX_KEY_LEN + 1],
        });
        client.flush().expect("flush");
        let (rid, resp) = client.recv().expect("recv");
        assert_eq!(rid, id);
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::KeyTooLong,
                    ..
                }
            ),
            "{resp:?}"
        );

        // The connection still works.
        client.put(b"after", 7).unwrap();
        assert_eq!(client.get(b"after").unwrap(), Some(7));
        server.shutdown();
    }

    #[test]
    fn oversized_frames_are_drained_not_fatal() {
        let db = test_db();
        let mut server = Server::start(
            db,
            "127.0.0.1:0",
            ServerConfig {
                max_frame: 4096,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        // 64 KiB declared frame against a 4 KiB limit.
        let mut raw = Vec::new();
        let body_len = 64 * 1024u32;
        raw.extend_from_slice(&body_len.to_le_bytes());
        raw.push(protocol::opcode::PUT);
        raw.extend_from_slice(&77u32.to_le_bytes());
        raw.resize(4 + body_len as usize, 0xAA);
        client.send_raw(&raw).expect("send raw");
        let (id, resp) = client.recv().expect("recv");
        assert_eq!(id, 77, "id recovered from the drained frame header");
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::FrameTooLarge,
                    ..
                }
            ),
            "{resp:?}"
        );
        client.put(b"still-alive", 1).unwrap();
        assert_eq!(client.get(b"still-alive").unwrap(), Some(1));
        server.shutdown();
    }

    #[test]
    fn mid_frame_disconnect_leaves_the_server_healthy() {
        let db = test_db();
        let mut server = start(db);
        {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            // Half a frame, then vanish.
            stream
                .write_all(&[200, 0, 0, 0, protocol::opcode::PUT])
                .unwrap();
        } // dropped here
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.put(b"healthy", 3).unwrap();
        assert_eq!(client.get(b"healthy").unwrap(), Some(3));
        server.shutdown();
    }

    #[test]
    fn stats_roundtrip_over_the_wire() {
        let db = test_db();
        let mut server = start(db);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.put(b"s", 1).unwrap();
        client.get(b"s").unwrap();
        let stats = client.stats().unwrap();
        assert!(stats.requests >= 2, "{stats:?}");
        assert!(
            stats.read_groups >= 1 && stats.write_groups >= 1,
            "{stats:?}"
        );
        server.shutdown();
    }
}
