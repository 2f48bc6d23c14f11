//! The wire protocol: length-prefixed, pipelined, binary.
//!
//! Every message is one *frame*: a little-endian `u32` length followed by
//! that many body bytes.  A body starts with a one-byte tag (the request
//! opcode or response kind) and a `u32` request id; the payload layout is
//! tag-specific.  Clients may pipeline arbitrarily many request frames
//! before reading responses; responses carry the request id back, and the
//! server may complete them out of order (per-key ordering is preserved for
//! single-key operations — see the [server docs](crate::server)).
//!
//! ```text
//! frame    := len:u32 body
//! body     := tag:u8 id:u32 payload
//! key      := klen:u16 bytes
//! request  := PING | GET key | PUT key value:u64 | DEL key
//!           | MGET n:u32 key*n
//!           | BATCH n:u32 (kind:u8 key [value:u64 if kind=0])*n
//!           | SCAN flags:u8 start:key [end:key if flags&1] limit:u32
//!           | STATS
//! response := PONG | VALUE opt | OK | DELETED removed:u8
//!           | VALUES n:u32 opt*n | SUMMARY u32*4 | ENTRIES n:u32 (key value:u64)*n
//!           | STATS u64*23 | ERROR code:u16 mlen:u16 msg
//! opt      := present:u8 [value:u64 if present]
//! ```
//!
//! Malformed input is a *typed* failure, never a dead connection: a frame
//! whose payload does not parse produces an [`ErrorCode`] response for that
//! frame and the stream continues at the next length prefix (the length
//! field is trusted for resynchronisation; a frame larger than the
//! negotiated maximum is drained and answered with
//! [`ErrorCode::FrameTooLarge`]).

use std::fmt;

/// Hard upper bound on a single frame (requests and responses), before the
/// server's configurable limit.  Bounds per-connection buffering.
pub const MAX_FRAME: usize = 1 << 20;

/// Request opcodes (frame tag of a request body).
#[allow(missing_docs)]
pub mod opcode {
    pub const PING: u8 = 0;
    pub const GET: u8 = 1;
    pub const PUT: u8 = 2;
    pub const DEL: u8 = 3;
    pub const MGET: u8 = 4;
    pub const BATCH: u8 = 5;
    pub const SCAN: u8 = 6;
    pub const STATS: u8 = 7;
}

/// Response kinds (frame tag of a response body).
#[allow(missing_docs)]
pub mod kind {
    pub const PONG: u8 = 0;
    pub const VALUE: u8 = 1;
    pub const OK: u8 = 2;
    pub const DELETED: u8 = 3;
    pub const VALUES: u8 = 4;
    pub const SUMMARY: u8 = 5;
    pub const ENTRIES: u8 = 6;
    pub const STATS: u8 = 7;
    pub const ERROR: u8 = 0xEE;
}

/// Typed protocol failure codes, carried in [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame body did not parse (truncated payload, bad counts, trailing
    /// garbage).  The connection survives: framing resynchronises on the
    /// next length prefix.
    BadFrame = 1,
    /// Unknown request opcode.
    UnknownOp = 2,
    /// A key exceeds the store's maximum key length.
    KeyTooLong = 3,
    /// The store reported a failure (poisoned shard, structural loop).
    Backend = 4,
    /// The frame exceeds the server's maximum frame size; its bytes were
    /// drained and discarded.
    FrameTooLarge = 5,
    /// A structurally valid request with an out-of-range argument (e.g. a
    /// scan limit of zero).
    BadArgument = 6,
    /// The server shed the request before executing it because the target
    /// worker queue was over its depth limit.  Retryable: nothing was
    /// executed; back off and resend.
    Overloaded = 7,
    /// A transient store-side fault (poisoned shard, simulated allocation
    /// failure, injected error).  The shard has been recovered; retryable,
    /// but the failed write may or may not have taken effect.
    Unavailable = 8,
}

impl ErrorCode {
    /// Decodes a wire value.
    pub fn from_u16(value: u16) -> Option<ErrorCode> {
        Some(match value {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnknownOp,
            3 => ErrorCode::KeyTooLong,
            4 => ErrorCode::Backend,
            5 => ErrorCode::FrameTooLarge,
            6 => ErrorCode::BadArgument,
            7 => ErrorCode::Overloaded,
            8 => ErrorCode::Unavailable,
            _ => return None,
        })
    }

    /// `true` for transient conditions worth retrying with backoff
    /// ([`ErrorCode::Overloaded`], [`ErrorCode::Unavailable`]); every other
    /// code reports a defect in the request itself.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::Unavailable)
    }
}

/// A decode failure: the typed code plus a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Machine-readable failure class.
    pub code: ErrorCode,
    /// Detail for logs and error responses.
    pub message: String,
}

impl ProtoError {
    fn bad(message: impl Into<String>) -> ProtoError {
        ProtoError {
            code: ErrorCode::BadFrame,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// One operation of a [`Request::Batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchEntry {
    /// Insert or update `key`.
    Put {
        /// Key bytes.
        key: Vec<u8>,
        /// Value.
        value: u64,
    },
    /// Remove `key`.
    Del {
        /// Key bytes.
        key: Vec<u8>,
    },
}

impl BatchEntry {
    /// The key this entry touches.
    pub fn key(&self) -> &[u8] {
        match self {
            BatchEntry::Put { key, .. } | BatchEntry::Del { key } => key,
        }
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered inline by the IO thread.
    Ping,
    /// Point lookup.
    Get {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// Insert or update.
    Put {
        /// Key bytes.
        key: Vec<u8>,
        /// Value.
        value: u64,
    },
    /// Point delete.
    Del {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// Batched lookup; coalesced into `multi_get` groups server-side.
    MGet {
        /// Keys, answered positionally.
        keys: Vec<Vec<u8>>,
    },
    /// Batched writes; applied as one `WriteBatch`.
    Batch {
        /// Operations in application order.
        ops: Vec<BatchEntry>,
    },
    /// Ordered scan over the half-open key range `[start, end)`, returning
    /// at most `limit` entries.  `reverse` flips the *order of traversal*
    /// (descending from the end bound), not the bounds themselves.
    Scan {
        /// Inclusive lower bound of the range.
        start: Vec<u8>,
        /// Exclusive upper bound, `None` = unbounded.
        end: Option<Vec<u8>>,
        /// Maximum entries returned (server-side cap applies, and a reply
        /// is always truncated to fit one frame).
        limit: u32,
        /// Descending order.
        reverse: bool,
    },
    /// Server counters (coalescing groups, request tallies).
    Stats,
}

/// Server counters returned by [`Request::Stats`] — the observable evidence
/// of per-shard coalescing: `read_keys / read_groups` is the average number
/// of point lookups answered per `multi_get` group, `write_ops /
/// write_groups` the average write requests per `WriteBatch`/`delete_many`
/// application.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total decoded requests.
    pub requests: u64,
    /// Error responses sent.
    pub errors: u64,
    /// Coalesced read groups executed (one `multi_get` call each).
    pub read_groups: u64,
    /// Client requests answered by those groups.
    pub read_ops: u64,
    /// Keys looked up by those groups.
    pub read_keys: u64,
    /// Coalesced write groups executed (one `WriteBatch` apply or
    /// `delete_many` call each).
    pub write_groups: u64,
    /// Client requests answered by those groups.
    pub write_ops: u64,
    /// Keys written/deleted by those groups.
    pub write_keys: u64,
    /// Range scans served.
    pub scans: u64,
    /// Hashed-shortcut probes answered from the table, summed over shards.
    pub shortcut_hits: u64,
    /// Hashed-shortcut probes that fell back to a full root descent.
    pub shortcut_misses: u64,
    /// Shortcut entries killed by structural events.
    pub shortcut_invalidations: u64,
    /// Live shortcut entries across all shards at snapshot time.
    pub shortcut_entries: u64,
    /// Reads served lock-free by the optimistic (seqlock-validated) path.
    pub optimistic_hits: u64,
    /// Optimistic attempts discarded because a writer overlapped.
    pub optimistic_retries: u64,
    /// Reads that exhausted their optimistic attempts and took a shard lock.
    pub optimistic_fallbacks: u64,
    /// Requests shed with [`ErrorCode::Overloaded`] because the target
    /// worker queue was over its depth limit.
    pub shed_requests: u64,
    /// Connections closed because their outbox stayed above the high-water
    /// mark past the slow-client deadline.
    pub evicted_slow_clients: u64,
    /// Connections closed by the idle deadline.
    pub deadline_closed_conns: u64,
    /// Connections dropped at accept time because the server was at its
    /// connection limit.
    pub rejected_connections: u64,
    /// Failpoint sites tripped since startup (0 unless the server was built
    /// with the `failpoints` feature and sites were armed).
    pub failpoint_trips: u64,
    /// Poisoned-shard recoveries performed by the store (a writer died
    /// mid-mutation and the shard was re-adopted).
    pub poison_recoveries: u64,
    /// Version of the store's consolidated statistics tree
    /// ([`hyperion_core::DbStats`]) this snapshot was built from.
    pub stats_version: u64,
}

impl StatsSnapshot {
    /// Average point lookups coalesced per read group.
    pub fn avg_read_group(&self) -> f64 {
        if self.read_groups == 0 {
            0.0
        } else {
            self.read_keys as f64 / self.read_groups as f64
        }
    }

    /// Average keys coalesced per write group.
    pub fn avg_write_group(&self) -> f64 {
        if self.write_groups == 0 {
            0.0
        } else {
            self.write_keys as f64 / self.write_groups as f64
        }
    }

    /// Fraction of shortcut probes answered from the table, 0.0 when the
    /// shortcut is disabled or never probed.
    pub fn shortcut_hit_rate(&self) -> f64 {
        let total = self.shortcut_hits + self.shortcut_misses;
        if total == 0 {
            0.0
        } else {
            self.shortcut_hits as f64 / total as f64
        }
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Get`].
    Value(Option<u64>),
    /// Answer to [`Request::Put`] (outcome is not reported: coalesced puts
    /// flow through the batch engine, which tallies but does not attribute
    /// insert-vs-update per key).
    Ok,
    /// Answer to [`Request::Del`]: whether the key was present.
    Deleted(bool),
    /// Answer to [`Request::MGet`], positionally.
    Values(Vec<Option<u64>>),
    /// Answer to [`Request::Batch`]: `(inserted, updated, deleted, missing)`.
    Summary {
        /// Puts that created a key.
        inserted: u32,
        /// Puts that overwrote.
        updated: u32,
        /// Deletes that removed.
        deleted: u32,
        /// Deletes that missed.
        missing: u32,
    },
    /// Answer to [`Request::Scan`].
    Entries(Vec<(Vec<u8>, u64)>),
    /// Answer to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Typed failure for the request with this frame's id.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// =============================================================================
// encoding
// =============================================================================

/// Reserves a frame header, runs `body`, then patches the length prefix.
fn with_frame(out: &mut Vec<u8>, tag: u8, id: u32, body: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(tag);
    out.extend_from_slice(&id.to_le_bytes());
    body(out);
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

fn put_key(out: &mut Vec<u8>, key: &[u8]) {
    debug_assert!(key.len() <= u16::MAX as usize, "key exceeds wire format");
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key);
}

fn put_opt(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Appends one request frame to `out`.
pub fn encode_request(id: u32, req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Ping => with_frame(out, opcode::PING, id, |_| {}),
        Request::Get { key } => with_frame(out, opcode::GET, id, |o| put_key(o, key)),
        Request::Put { key, value } => with_frame(out, opcode::PUT, id, |o| {
            put_key(o, key);
            o.extend_from_slice(&value.to_le_bytes());
        }),
        Request::Del { key } => with_frame(out, opcode::DEL, id, |o| put_key(o, key)),
        Request::MGet { keys } => with_frame(out, opcode::MGET, id, |o| {
            o.extend_from_slice(&(keys.len() as u32).to_le_bytes());
            for key in keys {
                put_key(o, key);
            }
        }),
        Request::Batch { ops } => with_frame(out, opcode::BATCH, id, |o| {
            o.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for op in ops {
                match op {
                    BatchEntry::Put { key, value } => {
                        o.push(0);
                        put_key(o, key);
                        o.extend_from_slice(&value.to_le_bytes());
                    }
                    BatchEntry::Del { key } => {
                        o.push(1);
                        put_key(o, key);
                    }
                }
            }
        }),
        Request::Scan {
            start,
            end,
            limit,
            reverse,
        } => with_frame(out, opcode::SCAN, id, |o| {
            let mut flags = 0u8;
            if end.is_some() {
                flags |= 1;
            }
            if *reverse {
                flags |= 2;
            }
            o.push(flags);
            put_key(o, start);
            if let Some(end) = end {
                put_key(o, end);
            }
            o.extend_from_slice(&limit.to_le_bytes());
        }),
        Request::Stats => with_frame(out, opcode::STATS, id, |_| {}),
    }
}

/// Appends one response frame to `out`.
pub fn encode_response(id: u32, resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Pong => with_frame(out, kind::PONG, id, |_| {}),
        Response::Value(v) => with_frame(out, kind::VALUE, id, |o| put_opt(o, *v)),
        Response::Ok => with_frame(out, kind::OK, id, |_| {}),
        Response::Deleted(removed) => {
            with_frame(out, kind::DELETED, id, |o| o.push(*removed as u8))
        }
        Response::Values(vs) => with_frame(out, kind::VALUES, id, |o| {
            o.extend_from_slice(&(vs.len() as u32).to_le_bytes());
            for v in vs {
                put_opt(o, *v);
            }
        }),
        Response::Summary {
            inserted,
            updated,
            deleted,
            missing,
        } => with_frame(out, kind::SUMMARY, id, |o| {
            for v in [inserted, updated, deleted, missing] {
                o.extend_from_slice(&v.to_le_bytes());
            }
        }),
        Response::Entries(entries) => with_frame(out, kind::ENTRIES, id, |o| {
            o.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (key, value) in entries {
                put_key(o, key);
                o.extend_from_slice(&value.to_le_bytes());
            }
        }),
        Response::Stats(s) => with_frame(out, kind::STATS, id, |o| {
            for v in [
                s.requests,
                s.errors,
                s.read_groups,
                s.read_ops,
                s.read_keys,
                s.write_groups,
                s.write_ops,
                s.write_keys,
                s.scans,
                s.shortcut_hits,
                s.shortcut_misses,
                s.shortcut_invalidations,
                s.shortcut_entries,
                s.optimistic_hits,
                s.optimistic_retries,
                s.optimistic_fallbacks,
                s.shed_requests,
                s.evicted_slow_clients,
                s.deadline_closed_conns,
                s.rejected_connections,
                s.failpoint_trips,
                s.poison_recoveries,
                s.stats_version,
            ] {
                o.extend_from_slice(&v.to_le_bytes());
            }
        }),
        Response::Error { code, message } => with_frame(out, kind::ERROR, id, |o| {
            o.extend_from_slice(&(*code as u16).to_le_bytes());
            let msg = &message.as_bytes()[..message.len().min(512)];
            o.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            o.extend_from_slice(msg);
        }),
    }
}

// =============================================================================
// decoding
// =============================================================================

/// Sequential little-endian reader over a frame body.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.bytes.len() - self.pos < n {
            return Err(ProtoError::bad(format!(
                "truncated payload: wanted {n} bytes at offset {}, frame has {}",
                self.pos,
                self.bytes.len()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn key(&mut self) -> Result<Vec<u8>, ProtoError> {
        let len = self.u16()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn opt(&mut self) -> Result<Option<u64>, ProtoError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            other => Err(ProtoError::bad(format!("bad option tag {other}"))),
        }
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos != self.bytes.len() {
            return Err(ProtoError::bad(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Decodes a request frame body.  On failure the error carries the request
/// id when at least the 5-byte header parsed (so the server can answer the
/// offending request), 0 otherwise.
pub fn decode_request(body: &[u8]) -> Result<(u32, Request), (u32, ProtoError)> {
    let mut r = Reader::new(body);
    let (tag, id) = match (r.u8(), r.u32()) {
        (Ok(tag), Ok(id)) => (tag, id),
        _ => {
            return Err((
                0,
                ProtoError::bad(format!("frame body of {} bytes has no header", body.len())),
            ))
        }
    };
    let req = (|| -> Result<Request, ProtoError> {
        let req = match tag {
            opcode::PING => Request::Ping,
            opcode::GET => Request::Get { key: r.key()? },
            opcode::PUT => Request::Put {
                key: r.key()?,
                value: r.u64()?,
            },
            opcode::DEL => Request::Del { key: r.key()? },
            opcode::MGET => {
                let n = r.u32()? as usize;
                // A count the frame cannot possibly hold is malformed, not
                // an allocation request.
                if n > body.len() / 2 {
                    return Err(ProtoError::bad(format!("mget count {n} exceeds frame")));
                }
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(r.key()?);
                }
                Request::MGet { keys }
            }
            opcode::BATCH => {
                let n = r.u32()? as usize;
                if n > body.len() / 3 {
                    return Err(ProtoError::bad(format!("batch count {n} exceeds frame")));
                }
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    ops.push(match r.u8()? {
                        0 => BatchEntry::Put {
                            key: r.key()?,
                            value: r.u64()?,
                        },
                        1 => BatchEntry::Del { key: r.key()? },
                        other => return Err(ProtoError::bad(format!("bad batch op kind {other}"))),
                    });
                }
                Request::Batch { ops }
            }
            opcode::SCAN => {
                let flags = r.u8()?;
                if flags & !3 != 0 {
                    return Err(ProtoError::bad(format!("bad scan flags {flags:#04x}")));
                }
                let start = r.key()?;
                let end = if flags & 1 != 0 { Some(r.key()?) } else { None };
                Request::Scan {
                    start,
                    end,
                    limit: r.u32()?,
                    reverse: flags & 2 != 0,
                }
            }
            opcode::STATS => Request::Stats,
            other => {
                return Err(ProtoError {
                    code: ErrorCode::UnknownOp,
                    message: format!("unknown opcode {other:#04x}"),
                })
            }
        };
        r.finish()?;
        Ok(req)
    })();
    match req {
        Ok(req) => Ok((id, req)),
        Err(e) => Err((id, e)),
    }
}

/// Decodes a response frame body into `(request id, response)`.
pub fn decode_response(body: &[u8]) -> Result<(u32, Response), ProtoError> {
    let mut r = Reader::new(body);
    let tag = r.u8()?;
    let id = r.u32()?;
    let resp = match tag {
        kind::PONG => Response::Pong,
        kind::VALUE => Response::Value(r.opt()?),
        kind::OK => Response::Ok,
        kind::DELETED => Response::Deleted(r.u8()? != 0),
        kind::VALUES => {
            let n = r.u32()? as usize;
            if n > body.len() {
                return Err(ProtoError::bad(format!("values count {n} exceeds frame")));
            }
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(r.opt()?);
            }
            Response::Values(vs)
        }
        kind::SUMMARY => Response::Summary {
            inserted: r.u32()?,
            updated: r.u32()?,
            deleted: r.u32()?,
            missing: r.u32()?,
        },
        kind::ENTRIES => {
            let n = r.u32()? as usize;
            if n > body.len() / 2 {
                return Err(ProtoError::bad(format!("entries count {n} exceeds frame")));
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let key = r.key()?;
                entries.push((key, r.u64()?));
            }
            Response::Entries(entries)
        }
        kind::STATS => Response::Stats(StatsSnapshot {
            requests: r.u64()?,
            errors: r.u64()?,
            read_groups: r.u64()?,
            read_ops: r.u64()?,
            read_keys: r.u64()?,
            write_groups: r.u64()?,
            write_ops: r.u64()?,
            write_keys: r.u64()?,
            scans: r.u64()?,
            shortcut_hits: r.u64()?,
            shortcut_misses: r.u64()?,
            shortcut_invalidations: r.u64()?,
            shortcut_entries: r.u64()?,
            optimistic_hits: r.u64()?,
            optimistic_retries: r.u64()?,
            optimistic_fallbacks: r.u64()?,
            shed_requests: r.u64()?,
            evicted_slow_clients: r.u64()?,
            deadline_closed_conns: r.u64()?,
            rejected_connections: r.u64()?,
            failpoint_trips: r.u64()?,
            poison_recoveries: r.u64()?,
            stats_version: r.u64()?,
        }),
        kind::ERROR => {
            let code = r.u16()?;
            let code = ErrorCode::from_u16(code)
                .ok_or_else(|| ProtoError::bad(format!("unknown error code {code}")))?;
            let mlen = r.u16()? as usize;
            let message = String::from_utf8_lossy(r.take(mlen)?).into_owned();
            Response::Error { code, message }
        }
        other => {
            return Err(ProtoError::bad(format!(
                "unknown response kind {other:#04x}"
            )))
        }
    };
    r.finish()?;
    Ok((id, resp))
}

// =============================================================================
// incremental framing
// =============================================================================

/// A framing event produced by [`FrameBuf::next_event`].
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete frame body (tag + id + payload).
    Frame(Vec<u8>),
    /// A frame longer than the configured maximum.  Its body is drained and
    /// discarded; `id` is the request id read from the drained header (0 if
    /// the frame could not even hold one).
    Oversized {
        /// Request id from the oversized frame's header.
        id: u32,
        /// Declared frame length.
        len: u32,
    },
}

/// Incremental frame extractor over a nonblocking byte stream: feed read
/// chunks with [`FrameBuf::extend`], drain complete frames with
/// [`FrameBuf::next_event`].  Oversized frames are skipped without
/// buffering them (the declared length is trusted for resynchronisation),
/// which is what keeps a hostile or buggy client from ballooning server
/// memory or killing the connection.
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    start: usize,
    /// Remaining bytes of an oversized frame to discard.
    skip: u64,
    /// Event to emit once the skip completes.
    skipping: Option<(u32, u32)>,
    max_frame: usize,
}

impl FrameBuf {
    /// Creates an extractor enforcing `max_frame` (clamped to
    /// [`MAX_FRAME`]).
    pub fn new(max_frame: usize) -> FrameBuf {
        FrameBuf {
            buf: Vec::new(),
            start: 0,
            skip: 0,
            skipping: None,
            max_frame: max_frame.min(MAX_FRAME),
        }
    }

    /// Appends raw stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // First burn the bytes an oversized frame still owes us — they never
        // touch the buffer.
        let mut bytes = bytes;
        if self.skip > 0 {
            let burn = (self.skip).min(bytes.len() as u64) as usize;
            self.skip -= burn as u64;
            bytes = &bytes[burn..];
        }
        if !bytes.is_empty() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes currently buffered (excludes drained oversized-frame bytes).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next framing event, or `None` if more bytes are needed.
    pub fn next_event(&mut self) -> Option<FrameEvent> {
        if self.skip > 0 {
            return None; // still draining an oversized frame
        }
        if let Some((id, len)) = self.skipping.take() {
            return Some(FrameEvent::Oversized { id, len });
        }
        let available = self.buf.len() - self.start;
        if available < 4 {
            self.compact();
            return None;
        }
        let at = self.start;
        let len = u32::from_le_bytes(self.buf[at..at + 4].try_into().unwrap()) as usize;
        if len > self.max_frame {
            // Read the header out of the oversized body if we can, so the
            // error response reaches the right request; then enter skip mode
            // for the rest.
            let have_body = available - 4;
            if have_body < 5 && (len as u64) > have_body as u64 {
                // Wait for the 5 header bytes unless the frame is shorter
                // than a header (then it is skippable immediately).
                if len >= 5 {
                    self.compact();
                    return None;
                }
            }
            let id = if len >= 5 && have_body >= 5 {
                u32::from_le_bytes(self.buf[at + 5..at + 9].try_into().unwrap())
            } else {
                0
            };
            let consumed_body = have_body.min(len);
            self.start += 4 + consumed_body;
            self.skip = (len - consumed_body) as u64;
            if self.skip > 0 {
                self.skipping = Some((id, len as u32));
                self.compact();
                return None;
            }
            self.compact();
            return Some(FrameEvent::Oversized {
                id,
                len: len as u32,
            });
        }
        if available < 4 + len {
            self.compact();
            return None;
        }
        let body = self.buf[at + 4..at + 4 + len].to_vec();
        self.start += 4 + len;
        self.compact();
        Some(FrameEvent::Frame(body))
    }

    /// Drops the consumed prefix once it dominates the buffer.
    fn compact(&mut self) {
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut wire = Vec::new();
        encode_request(77, &req, &mut wire);
        let mut fb = FrameBuf::new(MAX_FRAME);
        fb.extend(&wire);
        let Some(FrameEvent::Frame(body)) = fb.next_event() else {
            panic!("no frame for {req:?}");
        };
        let (id, decoded) = decode_request(&body).expect("decode");
        assert_eq!(id, 77);
        assert_eq!(decoded, req);
        assert_eq!(fb.next_event(), None);
    }

    fn roundtrip_response(resp: Response) {
        let mut wire = Vec::new();
        encode_response(9, &resp, &mut wire);
        let mut fb = FrameBuf::new(MAX_FRAME);
        fb.extend(&wire);
        let Some(FrameEvent::Frame(body)) = fb.next_event() else {
            panic!("no frame for {resp:?}");
        };
        let (id, decoded) = decode_response(&body).expect("decode");
        assert_eq!(id, 9);
        assert_eq!(decoded, resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Get { key: b"k".to_vec() });
        roundtrip_request(Request::Put {
            key: b"key".to_vec(),
            value: u64::MAX,
        });
        roundtrip_request(Request::Del { key: vec![] });
        roundtrip_request(Request::MGet {
            keys: vec![b"a".to_vec(), vec![], b"ccc".to_vec()],
        });
        roundtrip_request(Request::Batch {
            ops: vec![
                BatchEntry::Put {
                    key: b"p".to_vec(),
                    value: 1,
                },
                BatchEntry::Del { key: b"d".to_vec() },
            ],
        });
        roundtrip_request(Request::Scan {
            start: b"a".to_vec(),
            end: Some(b"z".to_vec()),
            limit: 100,
            reverse: false,
        });
        roundtrip_request(Request::Scan {
            start: vec![],
            end: None,
            limit: 1,
            reverse: true,
        });
        roundtrip_request(Request::Stats);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Value(Some(42)));
        roundtrip_response(Response::Value(None));
        roundtrip_response(Response::Ok);
        roundtrip_response(Response::Deleted(true));
        roundtrip_response(Response::Values(vec![Some(1), None, Some(u64::MAX)]));
        roundtrip_response(Response::Summary {
            inserted: 1,
            updated: 2,
            deleted: 3,
            missing: 4,
        });
        roundtrip_response(Response::Entries(vec![
            (b"a".to_vec(), 1),
            (b"bb".to_vec(), 2),
        ]));
        roundtrip_response(Response::Stats(StatsSnapshot {
            requests: 9,
            read_groups: 2,
            read_keys: 10,
            shortcut_hits: 7,
            shortcut_misses: 3,
            shortcut_invalidations: 1,
            shortcut_entries: 5,
            optimistic_hits: 11,
            optimistic_retries: 2,
            optimistic_fallbacks: 1,
            shed_requests: 4,
            evicted_slow_clients: 1,
            deadline_closed_conns: 2,
            rejected_connections: 3,
            failpoint_trips: 6,
            poison_recoveries: 1,
            stats_version: 2,
            ..Default::default()
        }));
        roundtrip_response(Response::Error {
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::Unavailable,
            message: "shard recovered".into(),
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::KeyTooLong,
            message: "too long".into(),
        });
    }

    #[test]
    fn frames_arrive_byte_by_byte() {
        let mut wire = Vec::new();
        encode_request(
            1,
            &Request::Get {
                key: b"abc".to_vec(),
            },
            &mut wire,
        );
        encode_request(2, &Request::Ping, &mut wire);
        let mut fb = FrameBuf::new(MAX_FRAME);
        let mut frames = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(FrameEvent::Frame(body)) = fb.next_event() {
                frames.push(body);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(decode_request(&frames[0]).unwrap().0, 1);
        assert_eq!(decode_request(&frames[1]).unwrap().0, 2);
    }

    #[test]
    fn truncated_payload_is_typed_bad_frame() {
        let mut wire = Vec::new();
        encode_request(
            5,
            &Request::Put {
                key: b"xy".to_vec(),
                value: 7,
            },
            &mut wire,
        );
        // Shorten the declared payload: drop the value's last byte and fix
        // the length prefix.
        wire.pop();
        let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) - 1;
        wire[..4].copy_from_slice(&len.to_le_bytes());
        let mut fb = FrameBuf::new(MAX_FRAME);
        fb.extend(&wire);
        let Some(FrameEvent::Frame(body)) = fb.next_event() else {
            panic!("frame expected");
        };
        let (id, err) = decode_request(&body).unwrap_err();
        assert_eq!(id, 5, "error keeps the request id");
        assert_eq!(err.code, ErrorCode::BadFrame);
    }

    #[test]
    fn unknown_opcode_is_typed() {
        let mut wire = Vec::new();
        with_frame(&mut wire, 0x7f, 3, |_| {});
        let mut fb = FrameBuf::new(MAX_FRAME);
        fb.extend(&wire);
        let Some(FrameEvent::Frame(body)) = fb.next_event() else {
            panic!("frame expected");
        };
        let (id, err) = decode_request(&body).unwrap_err();
        assert_eq!(id, 3);
        assert_eq!(err.code, ErrorCode::UnknownOp);
    }

    #[test]
    fn oversized_frame_is_drained_and_stream_resyncs() {
        let mut fb = FrameBuf::new(64);
        // An oversized frame (declared 1000 bytes) with a real header...
        let mut wire = Vec::new();
        wire.extend_from_slice(&1000u32.to_le_bytes());
        wire.push(opcode::PUT);
        wire.extend_from_slice(&55u32.to_le_bytes());
        wire.extend_from_slice(&vec![0xAB; 995]);
        // ...followed by a healthy PING.
        encode_request(56, &Request::Ping, &mut wire);
        // Feed in awkward chunk sizes.
        for chunk in wire.chunks(7) {
            fb.extend(chunk);
        }
        let mut events = Vec::new();
        while let Some(ev) = fb.next_event() {
            events.push(ev);
        }
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(
            events[0],
            FrameEvent::Oversized { id: 55, len: 1000 },
            "id recovered from the drained header"
        );
        let FrameEvent::Frame(body) = &events[1] else {
            panic!("healthy frame must survive the oversized one");
        };
        assert_eq!(decode_request(body).unwrap(), (56, Request::Ping));
    }

    #[test]
    fn oversized_frame_split_across_reads() {
        let mut fb = FrameBuf::new(32);
        let mut wire = Vec::new();
        wire.extend_from_slice(&500u32.to_le_bytes());
        wire.push(opcode::GET);
        wire.extend_from_slice(&9u32.to_le_bytes());
        fb.extend(&wire);
        // Header seen, body still owed: no event yet.
        assert_eq!(fb.next_event(), None);
        fb.extend(&[0u8; 200]);
        assert_eq!(fb.next_event(), None);
        fb.extend(&[0u8; 295]);
        assert_eq!(
            fb.next_event(),
            Some(FrameEvent::Oversized { id: 9, len: 500 })
        );
        // Stream continues cleanly.
        let mut ping = Vec::new();
        encode_request(10, &Request::Ping, &mut ping);
        fb.extend(&ping);
        assert!(matches!(fb.next_event(), Some(FrameEvent::Frame(_))));
    }

    #[test]
    fn stats_snapshot_averages() {
        let s = StatsSnapshot {
            read_groups: 4,
            read_keys: 12,
            write_groups: 2,
            write_keys: 10,
            ..Default::default()
        };
        assert_eq!(s.avg_read_group(), 3.0);
        assert_eq!(s.avg_write_group(), 5.0);
        assert_eq!(StatsSnapshot::default().avg_read_group(), 0.0);
        let s = StatsSnapshot {
            shortcut_hits: 3,
            shortcut_misses: 1,
            ..Default::default()
        };
        assert_eq!(s.shortcut_hit_rate(), 0.75);
        assert_eq!(StatsSnapshot::default().shortcut_hit_rate(), 0.0);
    }

    #[test]
    fn only_transient_codes_are_retryable() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::UnknownOp,
            ErrorCode::KeyTooLong,
            ErrorCode::Backend,
            ErrorCode::FrameTooLarge,
            ErrorCode::BadArgument,
        ] {
            assert!(!code.is_retryable(), "{code:?}");
        }
        assert!(ErrorCode::Overloaded.is_retryable());
        assert!(ErrorCode::Unavailable.is_retryable());
        // And both survive the wire.
        assert_eq!(ErrorCode::from_u16(7), Some(ErrorCode::Overloaded));
        assert_eq!(ErrorCode::from_u16(8), Some(ErrorCode::Unavailable));
    }
}
