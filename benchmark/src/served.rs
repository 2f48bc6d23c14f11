//! The two served workloads: a string db behind an in-process `Server` on
//! loopback TCP, driven closed-loop through `Client` (`served_pipelined`) or
//! open-loop through raw nonblocking sockets and `protocol::*`
//! (`served_open`), plus the traced run's window-1 probes and protocol
//! replay.
//!
//! Each connection owns one stripe of keys and is that stripe's only writer,
//! and the server keeps per-key FIFO order for single-key requests, so the
//! value a `Get` must return is known exactly when it is sent — even with
//! dozens of requests in flight.

use crate::gen::{self, Mix, MixOp, StrData, Verb};
use crate::harness::{rss_baseline_mib, Checker, Opts, Outcome, Timings, SETUP_REPEATS};
use crate::inproc::{
    build, build_traced, common_layer_metrics, finish_trace, memory_metrics, overhead_share,
    SetupClock,
};
use crate::openloop::{self, Clock, StepStats, Verdict, Wire};
use crate::spec::LADDER;
use crate::stats::{median, p50_p99_us, sample_ns};
use crate::trace::{Tracer, NO_PARENT};
use hyperion_core::{HyperionConfig, HyperionDb};
use hyperion_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, MAX_FRAME,
};
use hyperion_server::{
    Client, FrameBuf, FrameEvent, Request, Response, Server, ServerConfig, ServerHandle,
};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections (and generator threads): `nproc` of the reference box.
const CONNS: usize = 2;
/// Requests in flight per pipelined connection; refilled at half.
const WINDOW: usize = 64;
/// Entries a served scan asks for.
const SCAN_LIMIT: u32 = 20;
/// Request/response pairs a traced connection keeps for the protocol replay.
const CAPTURE: usize = 20_000;
/// Spans a traced connection keeps.
const MAX_CONN_SPANS: usize = 150_000;

/// The loaded data plus the scan oracle.
struct Stage {
    data: StrData,
    /// Corpus indices of the loaded keys, ascending (= key order).
    loaded_sorted: Vec<u32>,
    /// Positions per connection stripe.
    stripe: usize,
}

impl Stage {
    fn generate(opts: &Opts) -> Stage {
        let keys_n = opts.scale.of(500_000, 2_000);
        let data = StrData::generate(opts.seed, keys_n, 20);
        let mut loaded_sorted: Vec<u32> = data.order[..data.stored].to_vec();
        loaded_sorted.sort_unstable();
        Stage {
            stripe: keys_n / CONNS,
            data,
            loaded_sorted,
        }
    }

    fn pairs(&self) -> impl Iterator<Item = (&[u8], u64)> {
        (0..(self.stripe * CONNS) as u32).map(|p| (self.data.key(p), self.data.value(p)))
    }

    /// The keys a scan from position `pos` must return, in order.
    fn scan_oracle(&self, pos: u32) -> impl Iterator<Item = &[u8]> {
        let ci = self.data.order[pos as usize];
        let at = self.loaded_sorted.partition_point(|&x| x < ci);
        self.loaded_sorted[at..]
            .iter()
            .take(SCAN_LIMIT as usize)
            .map(|&c| self.data.corpus.keys[c as usize].as_slice())
    }
}

/// One connection's model of its stripe: the value every key holds now.
struct Stripe {
    base: u32,
    values: Vec<u64>,
    version: u64,
}

impl Stripe {
    fn new(stage: &Stage, conn: usize) -> Stripe {
        let base = (conn * stage.stripe) as u32;
        Stripe {
            base,
            values: (0..stage.stripe as u32)
                .map(|p| stage.data.value(base + p))
                .collect(),
            version: 0,
        }
    }
}

/// What the answer to a request must be.
#[derive(Clone, Copy)]
enum Expect {
    Value(u64),
    Ok,
    /// Scan from this global position.
    Scan(u32),
    Pong,
}

/// Builds the request for `op` and advances the stripe model.
fn request_for(op: MixOp, stage: &Stage, stripe: &mut Stripe) -> (Request, Expect) {
    let pos = stripe.base + op.pos;
    let key = stage.data.key(pos).to_vec();
    match op.verb {
        Verb::Put | Verb::Insert | Verb::Delete => {
            stripe.version += 1;
            let value = (pos as u64) << 32 | (stripe.version & 0xffff_ffff);
            stripe.values[op.pos as usize] = value;
            (Request::Put { key, value }, Expect::Ok)
        }
        Verb::Scan => (
            Request::Scan {
                start: key,
                end: None,
                limit: SCAN_LIMIT,
                reverse: false,
            },
            Expect::Scan(pos),
        ),
        Verb::Get => (
            Request::Get { key },
            Expect::Value(stripe.values[op.pos as usize]),
        ),
    }
}

/// `true` if `resp` is the answer the model expects.
fn answer_ok(stage: &Stage, expect: Expect, resp: &Response) -> bool {
    match (expect, resp) {
        (Expect::Value(v), Response::Value(got)) => *got == Some(v),
        (Expect::Ok, Response::Ok) | (Expect::Pong, Response::Pong) => true,
        (Expect::Scan(pos), Response::Entries(entries)) => {
            let mut want = stage.scan_oracle(pos);
            entries
                .iter()
                .all(|(k, _)| want.next() == Some(k.as_slice()))
                && want.next().is_none()
        }
        _ => false,
    }
}

/// Starts the server over `db` on an ephemeral loopback port.
fn serve(db: HyperionDb) -> (Arc<HyperionDb>, ServerHandle) {
    let db = Arc::new(db);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .expect("server starts on loopback");
    (db, server)
}

// =============================================================================
// served_pipelined
// =============================================================================

struct Pending {
    sent_ns: u64,
    expect: Expect,
    span: u32,
    /// Kept only by traced runs, for the protocol replay.
    request: Option<Request>,
}

/// What a traced connection records besides its spans.
struct ConnTrace {
    tracer: Tracer,
    captured: Vec<(Request, Response)>,
}

/// One closed-loop round on one connection: keep up to [`WINDOW`] requests
/// in flight, refill when half have been answered.  Every request's latency
/// (send call to answer read) goes to `samples`.
#[allow(clippy::too_many_arguments)]
fn pipelined_round(
    client: &mut Client,
    ops: &[MixOp],
    stage: &Stage,
    stripe: &mut Stripe,
    epoch: Instant,
    samples: &mut Vec<u32>,
    checker: &mut Checker,
    mut trace: Option<&mut ConnTrace>,
) {
    let now = || epoch.elapsed().as_nanos() as u64;
    let names = trace.as_mut().map(|t| {
        [
            t.tracer.name("request"),
            t.tracer.name("client.send"),
            t.tracer.name("client.flush"),
            t.tracer.name("client.recv"),
        ]
    });
    // By id, not by window slot: answers arrive in any order.
    let mut pending: HashMap<u32, Pending> = HashMap::with_capacity(2 * WINDOW);
    let (mut sent, mut in_flight) = (0usize, 0usize);
    while sent < ops.len() || in_flight > 0 {
        let first_in_flush = sent;
        while in_flight < WINDOW && sent < ops.len() {
            let (req, expect) = request_for(ops[sent], stage, stripe);
            let t0 = now();
            let id = client.send(&req);
            let mut span = NO_PARENT;
            if let (Some(t), Some(n)) = (trace.as_mut(), names) {
                if t.tracer.spans().len() < MAX_CONN_SPANS {
                    let t1 = now();
                    span = t.tracer.record(n[0], t0, t0, NO_PARENT, id);
                    t.tracer.record(n[1], t0, t1, span, id);
                }
            }
            let request = trace
                .as_ref()
                .is_some_and(|t| t.captured.len() < CAPTURE)
                .then_some(req);
            pending.insert(
                id,
                Pending {
                    sent_ns: t0,
                    expect,
                    span,
                    request,
                },
            );
            sent += 1;
            in_flight += 1;
        }
        let t0 = now();
        let flushed = client.flush();
        if let (Some(t), Some(n)) = (trace.as_mut(), names) {
            if sent > first_in_flush && t.tracer.spans().len() < MAX_CONN_SPANS {
                t.tracer
                    .record(n[2], t0, now(), NO_PARENT, first_in_flush as u32);
            }
        }
        if let Err(e) = flushed {
            checker.attempt(in_flight as u64);
            checker.failed += in_flight as u64 - 1;
            checker.fail(sent as u64, || format!("flush failed: {e}"));
            return;
        }
        let low = if sent < ops.len() { WINDOW / 2 } else { 0 };
        while in_flight > low {
            let t0 = now();
            let got = client.recv();
            let t1 = now();
            in_flight -= 1;
            match got {
                Ok((id, resp)) => {
                    let Some(p) = pending.remove(&id) else {
                        checker.check(false, sent as u64, || {
                            format!("answer to unknown request id {id}: {resp:?}")
                        });
                        continue;
                    };
                    samples.push(sample_ns((t1 - p.sent_ns) as u128));
                    checker.check(answer_ok(stage, p.expect, &resp), sent as u64, || {
                        format!("request id {id} answered {resp:?}")
                    });
                    if let (Some(t), Some(n)) = (trace.as_mut(), names) {
                        if p.span != NO_PARENT {
                            t.tracer.close(p.span, t1);
                            t.tracer.record(n[3], t0, t1, p.span, id);
                        }
                        if let Some(req) = p.request {
                            t.captured.push((req, resp));
                        }
                    }
                }
                Err(e) => {
                    checker.attempt(in_flight as u64 + 1);
                    checker.failed += in_flight as u64;
                    checker.fail(sent as u64, || format!("recv failed: {e}"));
                    return;
                }
            }
        }
    }
}

/// The pipelined connections with everything each one owns.
struct Pipelined<'a> {
    stage: &'a Stage,
    pools: &'a [Vec<MixOp>],
    clients: Vec<Client>,
    stripes: Vec<Stripe>,
    samples: Vec<Vec<u32>>,
}

impl Pipelined<'_> {
    /// One round on all connections at once: each replays the first
    /// `per_conn` ops of its pool against its current stripe model.  Returns
    /// `(requests, seconds)`; the latencies are left in `self.samples`.
    fn round(
        &mut self,
        per_conn: usize,
        checker: &mut Checker,
        mut traces: Option<&mut Vec<ConnTrace>>,
    ) -> (u64, f64) {
        let epoch = Instant::now();
        let stage = self.stage;
        let mut checkers: Vec<Checker> = (0..CONNS)
            .map(|_| Checker::new("served_pipelined", checker.seed()))
            .collect();
        std::thread::scope(|s| {
            let mut trace_slots: Vec<Option<&mut ConnTrace>> = match traces.as_mut() {
                Some(v) => v.iter_mut().map(Some).collect(),
                None => (0..CONNS).map(|_| None).collect(),
            };
            for ((((client, pool), stripe), (samples, conn_checker)), trace) in self
                .clients
                .iter_mut()
                .zip(self.pools)
                .zip(self.stripes.iter_mut())
                .zip(self.samples.iter_mut().zip(checkers.iter_mut()))
                .zip(trace_slots.drain(..))
            {
                samples.clear();
                let ops = &pool[..per_conn];
                s.spawn(move || {
                    pipelined_round(
                        client,
                        ops,
                        stage,
                        stripe,
                        epoch,
                        samples,
                        conn_checker,
                        trace,
                    )
                });
            }
        });
        let secs = epoch.elapsed().as_secs_f64();
        for c in &checkers {
            checker.absorb(c);
        }
        ((per_conn * CONNS) as u64, secs)
    }
}

fn connect_clients(addr: SocketAddr) -> Vec<Client> {
    (0..CONNS)
        .map(|_| Client::connect(addr).expect("client connects"))
        .collect()
}

pub fn served_pipelined(opts: &Opts) -> Outcome {
    const NAME: &str = "served_pipelined";
    let mut checker = Checker::new(NAME, opts.seed);
    let per_conn = opts.scale.of(150_000, 1_000);
    let mix = Mix {
        put: 5,
        insert: 0,
        delete: 0,
        scan: 0,
    };

    let t = Instant::now();
    let stage = Stage::generate(opts);
    let pools: Vec<Vec<MixOp>> = (0..CONNS)
        .map(|c| gen::mix_pool(opts.seed, 10 + c as u64, stage.stripe, mix, per_conn))
        .collect();
    let gen_s = t.elapsed().as_secs_f64();
    let config = HyperionConfig::for_strings();
    // The connections of one set-up, with fresh stripe models.
    let connect = |server: &ServerHandle| Pipelined {
        stage: &stage,
        pools: &pools,
        clients: connect_clients(server.local_addr()),
        stripes: (0..CONNS).map(|c| Stripe::new(&stage, c)).collect(),
        samples: (0..CONNS).map(|_| Vec::with_capacity(per_conn)).collect(),
    };

    if opts.trace {
        let mut tracer = Tracer::new(Instant::now());
        let (db, built) = build_traced(config, stage.pairs(), &mut checker, &mut tracer);
        let (db, mut server) = serve(db);
        let mut conns = connect(&server);
        let mut out = Outcome::zeroed_per_layer();
        let per_conn = opts.scale.of(50_000, 1_000).min(per_conn);
        let (_, untraced_s) = conns.round(per_conn, &mut checker, None);
        let before = server.stats();
        let mut traces: Vec<ConnTrace> = (0..CONNS)
            .map(|_| ConnTrace {
                tracer: Tracer::new(Instant::now()),
                captured: Vec::new(),
            })
            .collect();
        let (_, traced_s) = conns.round(per_conn, &mut checker, Some(&mut traces));
        let after = server.stats();
        let mut captured = Vec::new();
        for t in traces {
            tracer.absorb(t.tracer);
            captured.extend(t.captured);
        }
        out.set("trace.overhead_share", overhead_share(untraced_s, traced_s));
        server_counter_metrics(&before, &after, &mut out);
        proto_replay(&captured, &mut out);
        // The probes want the server to themselves: how long an idle IO
        // thread stays awake depends on how many connections it polls.
        drop(conns);
        window1_probes(
            server.local_addr(),
            &db,
            &stage,
            opts,
            &mut tracer,
            &mut checker,
            &mut out,
        );
        common_layer_metrics(&mut out, opts, &db, &built, gen_s, stage.stripe * CONNS);
        finish_trace(NAME, opts, &tracer, &mut out);
        server.shutdown();
        return out.counted(&checker);
    }

    let mut out = Outcome::default();
    let mut timings = Timings::default();
    let mut clock = SetupClock {
        gen_s,
        loads: Vec::new(),
    };
    // Every request of every round is timed, so there is no separate latency
    // phase: each set-up gets a third of `--seconds` in rounds, and every
    // round gives one rate and one pair of percentiles.
    for phase in 0..SETUP_REPEATS {
        let rss_before = (phase == 0).then(rss_baseline_mib);
        let t = Instant::now();
        let (db, mut server) = serve(build(config, stage.pairs(), &mut checker).0);
        let mut conns = connect(&server);
        clock.loads.push(t.elapsed().as_secs_f64());
        let mut spent = 0.0;
        loop {
            let (requests, secs) = conns.round(per_conn, &mut checker, None);
            timings.round(requests, secs);
            let mut merged: Vec<u32> = conns.samples.iter().flatten().copied().collect();
            timings.latency_round(&mut merged);
            spent += secs;
            if spent + secs * 0.5 > opts.seconds / SETUP_REPEATS as f64 {
                break;
            }
        }
        if let Some(before) = rss_before {
            memory_metrics(&db, before, &mut out);
        }
        drop(conns);
        server.shutdown();
    }
    timings.finish(&mut out);
    clock.finish(&mut out);
    out.counted(&checker)
}

// =============================================================================
// served_open
// =============================================================================

/// A raw nonblocking connection speaking `protocol::*` directly: the open
/// loop must never block on a read the way `Client::recv` does.
struct RawConn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    frames: FrameBuf,
    rbuf: Vec<u8>,
    next_id: u32,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("raw connection connects");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream.set_nonblocking(true).expect("nonblocking socket");
        RawConn {
            stream,
            wbuf: Vec::new(),
            wpos: 0,
            frames: FrameBuf::new(MAX_FRAME),
            rbuf: vec![0; 64 * 1024],
            next_id: 1,
        }
    }

    /// Writes as much of the pending bytes as the socket takes.
    fn pump_out(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        true
    }

    /// Reads whatever has arrived into the frame buffer.
    fn pump_in(&mut self) -> bool {
        loop {
            match self.stream.read(&mut self.rbuf) {
                Ok(0) => return false,
                Ok(n) => self.frames.extend(&self.rbuf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }
}

/// The open loop's wire: one request per `send`, one write per request.
struct OpenWire<'a> {
    conn: RawConn,
    ops: &'a [MixOp],
    /// Next op of this connection's stream.
    at: usize,
    stage: &'a Stage,
    stripe: &'a mut Stripe,
    /// Requests in flight by id.  Answers come back in any order (one worker
    /// can lag thousands of requests behind the others), so a window indexed
    /// by id would not do.
    pending: HashMap<u32, OpenPending>,
    checker: Checker,
    broken: bool,
    /// Traced runs keep the first request/response pairs for the replay.
    capture: Option<Vec<(Request, Response)>>,
}

struct OpenPending {
    index: u64,
    expect: Expect,
    /// Kept only while the capture still has room.
    request: Option<Request>,
}

impl Wire for OpenWire<'_> {
    fn send(&mut self, index: u64) {
        let op = self.ops[self.at % self.ops.len()];
        self.at += 1;
        let (req, expect) = request_for(op, self.stage, self.stripe);
        let id = self.conn.next_id;
        self.conn.next_id = id.wrapping_add(1).max(1);
        encode_request(id, &req, &mut self.conn.wbuf);
        let request = self
            .capture
            .as_ref()
            .is_some_and(|c| c.len() < CAPTURE)
            .then_some(req);
        self.pending.insert(
            id,
            OpenPending {
                index,
                expect,
                request,
            },
        );
        self.broken |= !self.conn.pump_out();
    }

    fn poll(&mut self, done: &mut Vec<u64>) {
        self.broken |= !self.conn.pump_out();
        self.broken |= !self.conn.pump_in();
        while let Some(event) = self.conn.frames.next_event() {
            let decoded = match &event {
                FrameEvent::Frame(body) => decode_response(body).ok(),
                FrameEvent::Oversized { .. } => None,
            };
            let Some((id, resp)) = decoded else {
                self.checker
                    .check(false, 0, || "undecodable response frame".into());
                continue;
            };
            let Some(p) = self.pending.remove(&id) else {
                self.checker.check(false, 0, || {
                    format!("answer to unknown request id {id}: {resp:?}")
                });
                continue;
            };
            self.checker
                .check(answer_ok(self.stage, p.expect, &resp), p.index, || {
                    format!("request id {id} answered {resp:?}")
                });
            if let (Some(capture), Some(req)) = (self.capture.as_mut(), p.request) {
                capture.push((req, resp));
            }
            done.push(p.index);
        }
    }
}

/// Wall clock of a step.  The generator spins through the gaps between
/// arrivals (all under 100 µs on this ladder; a sleep would overshoot them)
/// and sleeps only through long ones.
struct StepClock(Instant);

impl Clock for StepClock {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn idle(&mut self, until_ns: u64) {
        let gap = until_ns.saturating_sub(self.now_ns());
        if gap > 300_000 {
            std::thread::sleep(Duration::from_nanos(gap - 200_000));
        } else {
            std::thread::sleep(Duration::from_nanos(1));
        }
    }
}

/// Result of one ladder step over all connections.
struct Step {
    stats: StepStats,
    p50_us: f64,
    p99_us: f64,
    verdict: Verdict,
    /// Completions per second of wall time, first send to last answer.
    achieved: f64,
}

/// Share of the mean dwell rung `i` gets: the lowest rung carries the two
/// gated latency metrics, so it dwells twice as long as the others.
fn rung_weight(i: usize) -> f64 {
    let n = LADDER.len() as f64;
    if i == 0 {
        2.0 * n / (n + 1.0)
    } else {
        n / (n + 1.0)
    }
}

/// Runs the whole ladder from this thread.  Returns one [`Step`] per rung
/// and, when `capture` is set, the first request/response pairs seen.
fn run_ladder(
    addr: SocketAddr,
    stage: &Stage,
    pools: &[Vec<MixOp>],
    stripes: &mut [Stripe],
    dwell_s: f64,
    checker: &mut Checker,
    capture: bool,
) -> (Vec<Step>, Vec<(Request, Response)>) {
    let mut wires: Vec<OpenWire> = pools
        .iter()
        .zip(stripes.iter_mut())
        .map(|(ops, stripe)| OpenWire {
            conn: RawConn::connect(addr),
            ops,
            at: 0,
            stage,
            stripe,
            pending: HashMap::new(),
            checker: Checker::new("served_open", checker.seed()),
            broken: false,
            capture: capture.then(Vec::new),
        })
        .collect();
    let mut steps = Vec::new();
    for (i, &(rate, _)) in LADDER.iter().enumerate() {
        let interval_ns = 1_000_000_000 / rate;
        let dwell_ns = (dwell_s * rung_weight(i) * 1e9) as u64;
        let failed_before: u64 = wires.iter().map(|w| w.checker.failed).sum();
        let mut stats = openloop::run_step(
            &mut wires,
            &mut StepClock(Instant::now()),
            interval_ns,
            dwell_ns,
            2_000_000_000,
        );
        // Sent but never answered (timeout, broken connection): failed.
        let unanswered = stats.sent - stats.completed;
        checker.attempt(unanswered);
        checker.failed += unanswered;
        let failed = wires
            .iter()
            .map(|w| w.checker.failed + w.broken as u64)
            .sum::<u64>()
            - failed_before
            + unanswered;
        let (p50_us, p99_us) = if stats.latencies.is_empty() {
            (0.0, 0.0)
        } else {
            p50_p99_us(&mut stats.latencies)
        };
        let verdict = openloop::judge(&stats, p99_us, failed);
        let achieved = stats.completed as f64 / (stats.end_ns.max(1) as f64 / 1e9);
        steps.push(Step {
            stats,
            p50_us,
            p99_us,
            verdict,
            achieved,
        });
    }
    let mut captured = Vec::new();
    for wire in wires {
        checker.absorb(&wire.checker);
        captured.extend(wire.capture.unwrap_or_default());
    }
    (steps, captured)
}

fn ladder_notes(steps: &[Step], out: &mut Outcome) {
    for (step, (rate, _)) in steps.iter().zip(LADDER) {
        out.note(format!(
            "step {rate:>6}/s: {:?} sent={} done={} achieved={:.0}/s p50={:.1}us p99={:.1}us samples={} tail {}/{} late_share={:.4} (>1ms: {:.4}) max_late={:.0}us",
            step.verdict,
            step.stats.sent,
            step.stats.completed,
            step.achieved,
            step.p50_us,
            step.p99_us,
            step.stats.latencies.len(),
            step.stats.tail_completed,
            step.stats.tail_scheduled,
            step.stats.late_share(),
            step.stats.very_late_share(),
            step.stats.max_late_ns as f64 / 1000.0
        ));
    }
}

pub fn served_open(opts: &Opts) -> Outcome {
    const NAME: &str = "served_open";
    let mut checker = Checker::new(NAME, opts.seed);
    let mix = Mix {
        put: 5,
        insert: 0,
        delete: 0,
        scan: 5,
    };
    let dwell_s = opts.seconds / LADDER.len() as f64;
    // One connection's arrivals over the whole ladder.
    let pool_n = LADDER
        .iter()
        .enumerate()
        .map(|(i, (rate, _))| (*rate as f64 * dwell_s * rung_weight(i)) as usize / CONNS + 1)
        .sum::<usize>();

    let t = Instant::now();
    let stage = Stage::generate(opts);
    let pools: Vec<Vec<MixOp>> = (0..CONNS)
        .map(|c| gen::mix_pool(opts.seed, 12 + c as u64, stage.stripe, mix, pool_n))
        .collect();
    let gen_s = t.elapsed().as_secs_f64();
    let config = HyperionConfig::for_strings();
    let fresh_stripes = || {
        (0..CONNS)
            .map(|c| Stripe::new(&stage, c))
            .collect::<Vec<Stripe>>()
    };

    if opts.trace {
        let mut tracer = Tracer::new(Instant::now());
        let (db, built) = build_traced(config, stage.pairs(), &mut checker, &mut tracer);
        let (db, mut server) = serve(db);
        let mut stripes = fresh_stripes();
        let addr = server.local_addr();
        let mut out = Outcome::zeroed_per_layer();
        let before = server.stats();
        let ladder_start = tracer.now();
        let (steps, captured) = run_ladder(
            addr,
            &stage,
            &pools,
            &mut stripes,
            dwell_s,
            &mut checker,
            true,
        );
        let after = server.stats();
        ladder_notes(&steps, &mut out);
        // One span per ladder step; requests are too many to keep one each at
        // the upper rungs, and their latencies are in the step metrics.
        let mut at = ladder_start;
        for (step, (_, tag)) in steps.iter().zip(LADDER) {
            let name = tracer.name(tag);
            tracer.record(name, at, at + step.stats.end_ns, NO_PARENT, 0);
            at += step.stats.end_ns;
            out.set(&format!("server.{tag}.p50_us"), step.p50_us);
            out.set(&format!("server.{tag}.p99_us"), step.p99_us);
        }
        let counted =
            openloop::highest_passing(&steps.iter().map(|s| s.verdict).collect::<Vec<_>>())
                .unwrap_or(0);
        out.set(
            "gen.late_share",
            steps[..=counted]
                .iter()
                .map(|s| s.stats.late_share())
                .fold(0.0, f64::max),
        );
        out.set(
            "gen.max_late_us",
            steps[..=counted]
                .iter()
                .map(|s| s.stats.max_late_ns)
                .max()
                .unwrap_or(0) as f64
                / 1000.0,
        );
        server_counter_metrics(&before, &after, &mut out);
        proto_replay(&captured, &mut out);
        window1_probes(addr, &db, &stage, opts, &mut tracer, &mut checker, &mut out);
        common_layer_metrics(&mut out, opts, &db, &built, gen_s, stage.stripe * CONNS);
        finish_trace(NAME, opts, &tracer, &mut out);
        server.shutdown();
        return out.counted(&checker);
    }

    // Each set-up climbs the whole ladder at a third of the dwell.
    let mut out = Outcome::default();
    let mut timings = Timings::default();
    let mut clock = SetupClock {
        gen_s,
        loads: Vec::new(),
    };
    for phase in 0..SETUP_REPEATS {
        let rss_before = (phase == 0).then(rss_baseline_mib);
        let t = Instant::now();
        let (db, mut server) = serve(build(config, stage.pairs(), &mut checker).0);
        // The ladder opens its own raw connections, but connecting is part
        // of what a client pays.
        drop(connect_clients(server.local_addr()));
        let mut stripes = fresh_stripes();
        clock.loads.push(t.elapsed().as_secs_f64());
        let (mut steps, _) = run_ladder(
            server.local_addr(),
            &stage,
            &pools,
            &mut stripes,
            dwell_s / SETUP_REPEATS as f64,
            &mut checker,
            false,
        );
        out.note(format!("set-up {}:", phase + 1));
        ladder_notes(&steps, &mut out);
        let verdicts: Vec<Verdict> = steps.iter().map(|s| s.verdict).collect();
        out.note(match openloop::highest_passing(&verdicts) {
            Some(i) => format!(
                "highest passing rung: {}/s (p99 <= {} us, no growing backlog)",
                LADDER[i].0,
                openloop::P99_LIMIT_US
            ),
            None => "highest passing rung: none".into(),
        });
        // The gated throughput is the sustained completion rate, which is
        // continuous; the highest passing rung moves in steps of 2x, too
        // coarse to hold a bound, and is printed beside it.
        timings.rate(steps.iter().map(|s| s.achieved).fold(0.0, f64::max));
        // The gated latencies are those of the lowest rung.
        timings.latency_round(&mut steps[0].stats.latencies);
        if let Some(before) = rss_before {
            memory_metrics(&db, before, &mut out);
        }
        server.shutdown();
    }
    timings.finish(&mut out);
    clock.finish(&mut out);
    out.counted(&checker)
}

// =============================================================================
// traced probes
// =============================================================================

/// Coalescing and failure shares from two `ServerHandle::stats` snapshots.
fn server_counter_metrics(
    before: &hyperion_server::StatsSnapshot,
    after: &hyperion_server::StatsSnapshot,
    out: &mut Outcome,
) {
    let d = |f: fn(&hyperion_server::StatsSnapshot) -> u64| (f(after) - f(before)) as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    out.set(
        "server.read_group_size",
        ratio(d(|s| s.read_keys), d(|s| s.read_groups)),
    );
    out.set(
        "server.write_group_size",
        ratio(d(|s| s.write_keys), d(|s| s.write_groups)),
    );
    out.set(
        "server.shed_share",
        ratio(d(|s| s.shed_requests), d(|s| s.requests)),
    );
    out.set(
        "server.error_share",
        ratio(d(|s| s.errors), d(|s| s.requests)),
    );
}

/// Runs `protocol::*` over the very requests and responses of the run: both
/// directions of both frame kinds, and the incremental frame extractor.
fn proto_replay(captured: &[(Request, Response)], out: &mut Outcome) {
    if captured.is_empty() {
        return;
    }
    let n = captured.len() as f64;
    let per = |t: Instant| t.elapsed().as_nanos() as f64 / n;

    let mut wire = Vec::new();
    let t = Instant::now();
    for (i, (req, _)) in captured.iter().enumerate() {
        encode_request(i as u32 + 1, std::hint::black_box(req), &mut wire);
    }
    out.set("proto.encode_request_ns", per(t));
    out.set("proto.request_bytes", wire.len() as f64 / n);

    // Frame extraction, fed in socket-read-sized pieces.
    let mut frames = FrameBuf::new(MAX_FRAME);
    let mut bodies = Vec::with_capacity(captured.len());
    let t = Instant::now();
    for piece in wire.chunks(64 * 1024) {
        frames.extend(piece);
        while let Some(FrameEvent::Frame(body)) = frames.next_event() {
            bodies.push(body);
        }
    }
    out.set("proto.framebuf_ns_per_frame", per(t));

    let t = Instant::now();
    let decoded = bodies
        .iter()
        .filter(|b| decode_request(std::hint::black_box(b)).is_ok())
        .count();
    out.set("proto.decode_request_ns", per(t));
    debug_assert_eq!(decoded, captured.len());

    let mut wire = Vec::new();
    let t = Instant::now();
    for (i, (_, resp)) in captured.iter().enumerate() {
        encode_response(i as u32 + 1, std::hint::black_box(resp), &mut wire);
    }
    out.set("proto.encode_response_ns", per(t));
    out.set("proto.response_bytes", wire.len() as f64 / n);

    let mut frames = FrameBuf::new(MAX_FRAME);
    frames.extend(&wire);
    let mut bodies = Vec::with_capacity(captured.len());
    while let Some(FrameEvent::Frame(body)) = frames.next_event() {
        bodies.push(body);
    }
    let t = Instant::now();
    let decoded = bodies
        .iter()
        .filter(|b| decode_response(std::hint::black_box(b)).is_ok())
        .count();
    out.set("proto.decode_response_ns", per(t));
    debug_assert_eq!(decoded, captured.len());
}

/// Median round trip in µs of `n` window-1 exchanges.
fn median_rtt_us(n: usize, mut exchange: impl FnMut(usize) -> u64) -> f64 {
    let rtts: Vec<f64> = (0..n).map(|i| exchange(i) as f64 / 1000.0).collect();
    median(&rtts)
}

/// A bare TCP echo of the same frame sizes on loopback: the floor under any
/// request.  Returns the median round trip in µs.
fn echo_rtt_us(n: usize, request_bytes: usize, response_bytes: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("echo listener");
    let addr = listener.local_addr().expect("echo address");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("echo accept");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let mut request = vec![0u8; request_bytes];
        let response = vec![0u8; response_bytes];
        while stream.read_exact(&mut request).is_ok() {
            if stream.write_all(&response).is_err() {
                break;
            }
        }
    });
    let mut stream = TcpStream::connect(addr).expect("echo connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let request = vec![0u8; request_bytes];
    let mut response = vec![0u8; response_bytes];
    let rtt = median_rtt_us(n, |_| {
        let t = Instant::now();
        stream.write_all(&request).expect("echo write");
        stream.read_exact(&mut response).expect("echo read");
        t.elapsed().as_nanos() as u64
    });
    drop(stream);
    server.join().expect("echo thread");
    rtt
}

/// Window-1 probes on a server with no other connection: one request in
/// flight at a time, so a round trip is the sum of the stages it crosses and
/// the residuals between probe kinds isolate single stages.  Every figure is
/// a median; on this server they come in two modes (the IO thread catches the
/// next event inside its 16 yield rounds, or has just gone to sleep for
/// 500 µs), and the median reports whichever mode is the common one.
fn window1_probes(
    addr: SocketAddr,
    db: &HyperionDb,
    stage: &Stage,
    opts: &Opts,
    tracer: &mut Tracer,
    checker: &mut Checker,
    out: &mut Outcome,
) {
    let n = opts.scale.of(2_000, 100);
    let mut client = Client::connect(addr).expect("probe client connects");
    let names = [
        tracer.name("client.send"),
        tracer.name("client.flush"),
        tracer.name("client.recv"),
    ];
    // One exchange, spanned; returns the round trip in ns.
    let mut exchange = |tracer: &mut Tracer,
                        root: u16,
                        req: &Request,
                        expect: Expect,
                        i: usize,
                        checker: &mut Checker|
     -> u64 {
        let t0 = tracer.now();
        let id = client.send(req);
        let t1 = tracer.now();
        let flushed = client.flush();
        let t2 = tracer.now();
        let got = client.recv();
        let t3 = tracer.now();
        let span = tracer.record(root, t0, t3, NO_PARENT, id);
        tracer.record(names[0], t0, t1, span, id);
        tracer.record(names[1], t1, t2, span, id);
        tracer.record(names[2], t2, t3, span, id);
        let ok = flushed.is_ok()
            && matches!(&got, Ok((rid, resp)) if *rid == id && answer_ok(stage, expect, resp));
        checker.check(ok, i as u64, || format!("probe {req:?} answered {got:?}"));
        t3 - t0
    };

    let ping = tracer.name("probe.ping");
    for i in 0..n / 10 {
        exchange(tracer, ping, &Request::Ping, Expect::Pong, i, checker); // warm-up
    }
    let ping_us = median_rtt_us(n, |i| {
        exchange(tracer, ping, &Request::Ping, Expect::Pong, i, checker)
    });
    let idle = tracer.name("probe.idle_ping");
    let idle_us = median_rtt_us((n / 20).max(10), |i| {
        std::thread::sleep(Duration::from_millis(5));
        exchange(tracer, idle, &Request::Ping, Expect::Pong, i, checker)
    });

    // Keys for the data probes: spread over both stripes; nothing writes
    // while the probes run, so the db itself is the oracle.
    let total = (stage.stripe * CONNS) as u32;
    let pos_of = |i: usize| (i as u32).wrapping_mul(2_654_435_761) % total;
    let mut db_get_ns = 0u64;
    let get = tracer.name("probe.get");
    let get_us = median_rtt_us(n, |i| {
        let key = stage.data.key(pos_of(i));
        let t = Instant::now();
        let value = db.get(key);
        db_get_ns += t.elapsed().as_nanos() as u64;
        let expect = match value {
            Ok(Some(v)) => Expect::Value(v),
            _ => Expect::Ok, // cannot match a Value response: counted as failed
        };
        exchange(
            tracer,
            get,
            &Request::Get { key: key.to_vec() },
            expect,
            i,
            checker,
        )
    });
    let put = tracer.name("probe.put");
    let put_us = median_rtt_us(n / 2, |i| {
        let key = stage.data.key(pos_of(i));
        let value = db.get(key).ok().flatten().unwrap_or(0);
        exchange(
            tracer,
            put,
            &Request::Put {
                key: key.to_vec(),
                value,
            },
            Expect::Ok,
            i,
            checker,
        )
    });
    let scan = tracer.name("probe.scan");
    let scan_us = median_rtt_us((n / 8).max(10), |i| {
        let pos = pos_of(i);
        let req = Request::Scan {
            start: stage.data.key(pos).to_vec(),
            end: None,
            limit: SCAN_LIMIT,
            reverse: false,
        };
        exchange(tracer, scan, &req, Expect::Scan(pos), i, checker)
    });
    drop(client);

    // The floor: the same bytes through a bare echo.
    let mut frame = Vec::new();
    encode_request(
        1,
        &Request::Get {
            key: stage.data.key(0).to_vec(),
        },
        &mut frame,
    );
    let request_bytes = frame.len();
    frame.clear();
    encode_response(1, &Response::Value(Some(1)), &mut frame);
    let echo_us = echo_rtt_us(n, request_bytes, frame.len());

    let db_get_us = db_get_ns as f64 / n as f64 / 1000.0;
    let proto_us = [
        "proto.encode_request_ns",
        "proto.decode_request_ns",
        "proto.encode_response_ns",
        "proto.decode_response_ns",
    ]
    .iter()
    .map(|m| out.get(m).unwrap_or(0.0))
    .sum::<f64>()
        / 1000.0;
    out.set("net.echo_rtt_us", echo_us);
    out.set("server.ping_rtt_us", ping_us);
    out.set("server.idle_ping_rtt_us", idle_us);
    out.set("server.get_rtt_us", get_us);
    out.set("server.put_rtt_us", put_us);
    out.set("server.scan_rtt_us", scan_us);
    out.set("server.io_overhead_us", ping_us - echo_us);
    out.set("server.idle_wake_us", idle_us - ping_us);
    out.set("server.handoff_us", get_us - ping_us - db_get_us - proto_us);
    out.set("db.get_ns", db_get_us * 1000.0);
    // The client's own costs, from the get probes' child spans.
    let get_children = |tracer: &Tracer, name: &str| {
        tracer.mean_ns_where(name, |s| {
            s.parent != NO_PARENT && tracer.spans()[s.parent as usize].name == get
        })
    };
    out.set("client.send_ns", get_children(tracer, "client.send"));
    out.set(
        "client.flush_us",
        get_children(tracer, "client.flush") / 1000.0,
    );
    out.set(
        "client.recv_wait_us",
        get_children(tracer, "client.recv") / 1000.0,
    );
    out.note(format!(
        "window-1 get: echo {echo_us:.1} + io_overhead {:.1} + handoff {:.1} + db.get {db_get_us:.2} + proto {proto_us:.2} = {:.1} us vs server.get_rtt_us {get_us:.1}",
        ping_us - echo_us,
        get_us - ping_us - db_get_us - proto_us,
        echo_us + (ping_us - echo_us) + (get_us - ping_us - db_get_us - proto_us) + db_get_us + proto_us,
    ));
    out.note(format!(
        "sleep-poll signature: ping {ping_us:.1} us back-to-back, {idle_us:.1} us after 5 ms of silence (idle wake {:.1} us)",
        idle_us - ping_us
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn proto_replay_round_trips_captured_pairs() {
        let captured = vec![
            (
                Request::Get {
                    key: b"alpha".to_vec(),
                },
                Response::Value(Some(7)),
            ),
            (
                Request::Put {
                    key: b"beta".to_vec(),
                    value: 9,
                },
                Response::Ok,
            ),
            (
                Request::Scan {
                    start: b"a".to_vec(),
                    end: None,
                    limit: 2,
                    reverse: false,
                },
                Response::Entries(vec![(b"alpha".to_vec(), 7), (b"beta".to_vec(), 9)]),
            ),
        ];
        let mut out = Outcome::default();
        proto_replay(&captured, &mut out);
        let mut wire = Vec::new();
        for (req, _) in &captured {
            encode_request(1, req, &mut wire);
        }
        assert_eq!(
            out.get("proto.request_bytes"),
            Some(wire.len() as f64 / 3.0)
        );
        for m in [
            "proto.encode_request_ns",
            "proto.decode_request_ns",
            "proto.encode_response_ns",
            "proto.decode_response_ns",
            "proto.framebuf_ns_per_frame",
        ] {
            assert!(out.get(m).unwrap() > 0.0, "{m}");
        }
    }

    #[test]
    fn scan_oracle_and_answers() {
        let opts = Opts {
            seed: 1,
            seconds: 1.0,
            trace: false,
            scale: Scale::Tiny,
        };
        let stage = Stage::generate(&opts);
        let want: Vec<Vec<u8>> = stage.scan_oracle(5).map(<[u8]>::to_vec).collect();
        assert_eq!(want[0], stage.data.key(5));
        assert!(want.windows(2).all(|w| w[0] < w[1]));
        let entries: Vec<(Vec<u8>, u64)> = want.iter().map(|k| (k.clone(), 0)).collect();
        assert!(answer_ok(
            &stage,
            Expect::Scan(5),
            &Response::Entries(entries.clone())
        ));
        assert!(!answer_ok(
            &stage,
            Expect::Scan(5),
            &Response::Entries(entries[1..].to_vec())
        ));
        assert!(!answer_ok(&stage, Expect::Value(1), &Response::Value(None)));
        let mut stripe = Stripe::new(&stage, 1);
        let (req, _) = request_for(
            MixOp {
                verb: Verb::Put,
                pos: 3,
            },
            &stage,
            &mut stripe,
        );
        let Request::Put { value, .. } = req else {
            panic!("not a put")
        };
        let (_, expect) = request_for(
            MixOp {
                verb: Verb::Get,
                pos: 3,
            },
            &stage,
            &mut stripe,
        );
        assert!(answer_ok(&stage, expect, &Response::Value(Some(value))));
    }
}
