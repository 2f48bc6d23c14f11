//! `HyperionDb`: a database-style sharded front end over [`HyperionMap`].
//!
//! The paper's arena design (Section 3.2) shards the key space over up to 256
//! tries to get coarse-grained parallelism.  This module turns that idea into
//! a real front-end API:
//!
//! * **Pluggable partitioning** — the [`Partitioner`] trait decides which
//!   shard owns a key.  [`FirstBytePartitioner`] reproduces the paper's
//!   `T_{k_0}` routing; [`FibonacciPartitioner`] hashes the whole key
//!   (splitmix64 + Fibonacci multiplication) to fix hot-prefix skew;
//!   [`PrefixHashPartitioner`] hashes only a fixed-length key prefix,
//!   balancing shards while keeping every shard's trie prefix-dense; the
//!   order-preserving [`RangePartitioner`] keeps cross-shard scans cheap by
//!   letting range queries prune shards.
//! * **Batched operations** — [`WriteBatch`] groups puts/deletes per shard and
//!   applies each group under a single lock acquisition;
//!   [`HyperionDb::multi_get`] does the same for point lookups, so lock
//!   traffic amortises across operations.
//! * **Typed errors** — the point/batch API returns
//!   [`Result`]`<`[`PutOutcome`]`, `[`HyperionError`]`>` instead of bare
//!   `bool`s: key-too-long, shard-poisoned and per-op batch failure reports
//!   are first-class values.
//! * **Streaming merged scans** — [`HyperionDb::iter`], [`HyperionDb::range`]
//!   and [`HyperionDb::prefix`] return a [`DbScan`]: a hand-over-hand k-way
//!   merge that buffers at most one refilled chunk per shard
//!   ([`HyperionDbBuilder::scan_chunk_size`] entries), so a scan over millions of
//!   keys allocates `O(shards × chunk)` memory instead of a full per-shard
//!   snapshot.  [`HyperionDb::iter_rev`], [`HyperionDb::range_rev`] and
//!   [`HyperionDb::prefix_rev`] run the same merge *descending*: every shard
//!   walks its trie backward and the frontier is a max-heap, with identical
//!   memory bounds and [`RangePartitioner`] shard pruning.
//!
//! ```
//! use hyperion_core::db::{FibonacciPartitioner, HyperionDb, WriteBatch};
//!
//! let db = HyperionDb::builder()
//!     .shards(8)
//!     .partitioner(FibonacciPartitioner)
//!     .build();
//!
//! let mut batch = WriteBatch::new();
//! batch.put(b"user:1", 10).put(b"user:2", 20).delete(b"user:3");
//! let summary = db.apply(&batch).unwrap();
//! assert_eq!(summary.inserted, 2);
//!
//! let got = db.multi_get(&[b"user:1", b"user:9"]).unwrap();
//! assert_eq!(got, vec![Some(10), None]);
//!
//! // Streaming merged scan: globally ordered, bounded memory.
//! let keys: Vec<_> = db.prefix(b"user:").map(|(k, _)| k).collect();
//! assert_eq!(keys, vec![b"user:1".to_vec(), b"user:2".to_vec()]);
//! ```
//!
//! # Locking, optimistic reads and poisoning
//!
//! Every shard is one [`HyperionMap`] in a `Shard` cell guarded by its own
//! [`Mutex`]; a key is always owned by exactly one shard, so per-key
//! operations never take more than one lock.  Writers always lock.  Readers
//! first run **optimistically** without the lock: each shard carries a
//! seqlock version word (`seqlock::MapSeq`) that the write engine
//! holds *odd* for the whole duration of a mutation, so a reader can snapshot
//! the version, run the ordinary single-pass read engine against the shared
//! trie, and accept the result only if the version is unchanged (and even)
//! afterwards.  A reader that keeps colliding with writers falls back to the
//! mutex after a few attempts — the classic seqlock trade: reads cost zero
//! atomic RMWs and scale linearly across cores, writers pay two relaxed
//! stores.
//!
//! An optimistic attempt may observe the trie mid-mutation.  Every such
//! result is discarded by validation; the read engine only has to be
//! *crash-safe* on torn state, not correct.  Three layers guarantee that:
//! bounds-checked container walks clamp torn sizes, cursor descents bound
//! their depth, and the whole attempt runs under `catch_unwind` (with panic
//! output suppressed) so a genuinely inconsistent snapshot unwinds harmlessly
//! and the read retries.  A panic that survives *validation* is a real bug
//! and is re-raised.  Attempts also suppress shortcut publishes
//! (`shortcut::suppress_publish`): entries derived from unvalidated
//! state must never land in the table.
//!
//! Formally, reading the trie while a writer mutates it is a data race on
//! non-atomic memory.  The implementation follows the established seqlock
//! practice (crossbeam's `AtomicCell`, the Linux kernel): the racing reads
//! are confined to bytes the validated path never exposes, arena slabs are
//! never unmapped while the map lives (freed containers stay readable), and
//! the `Release`/`Acquire` fence pairing on the version word orders the data
//! accesses against validation.
//!
//! The typed point/batch API reports a panicked writer as
//! [`HyperionError::ShardPoisoned`].  Read-only aggregates
//! ([`HyperionDb::len`], [`HyperionDb::footprint_bytes`]) and scans *recover*
//! poisoned locks instead: the per-shard tries hold no invariants that span a
//! poisoned critical section, and a scan that silently dropped a shard would
//! return wrong answers.  Recovery clears the poison flag
//! ([`Mutex::clear_poison`]) and forces the shard's seqlock even again, so
//! one recovering reader fully revives a shard whose writer died — later
//! readers go back to the lock-free path and later writers lock normally.

use crate::config::HyperionConfig;
use crate::iter::{prefix_upper_bound, Entries, LowerBound, UpperBound};
use crate::shortcut;
use crate::stats::{DbStats, ReadCounters, ShortcutStats, TrieCounters, DB_STATS_VERSION};
use crate::trie::HyperionMap;
use crate::write::WriteError;
use crate::{KvRead, KvWrite, OrderedRead};
use std::cell::{Cell, UnsafeCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, Once};

/// Maximum number of shards (one per possible leading key byte, as in the
/// paper's arena design).
pub const MAX_SHARDS: usize = 256;

/// Maximum key length accepted by the typed [`HyperionDb`] API.  The trie
/// handles longer keys on big stacks, but its subtree builder recurses two
/// key bytes per level, so a database front end needs a contract: 1 KiB
/// (the DynamoDB/MongoDB ballpark) keeps the recursion comfortably inside a
/// default 2 MiB thread stack even in debug builds.
pub const MAX_KEY_LEN: usize = 1024;

/// Default number of entries a [`DbScan`] buffers per shard between lock
/// acquisitions.
pub const DEFAULT_SCAN_CHUNK: usize = 256;

// =============================================================================
// errors and outcomes
// =============================================================================

/// Typed error surface of the [`HyperionDb`] point and batch operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HyperionError {
    /// The key exceeds [`MAX_KEY_LEN`].
    KeyTooLong {
        /// Length of the offending key.
        len: usize,
        /// The enforced maximum ([`MAX_KEY_LEN`]).
        max: usize,
    },
    /// A writer panicked while holding this shard's lock.
    ShardPoisoned {
        /// Index of the poisoned shard.
        shard: usize,
    },
    /// One or more operations of a [`WriteBatch`] failed; the report lists
    /// what was applied and which ops failed.
    BatchFailed(BatchReport),
    /// The write engine failed to converge on this shard (a broken
    /// structural invariant; see [`crate::WriteError`]).  The old write path
    /// aborted the process after 32 retry attempts instead.
    StructuralLoop {
        /// Index of the shard whose engine failed.
        shard: usize,
    },
    /// An allocation failed mid-write (today raised only by the `mem.alloc`
    /// failpoint simulating OOM).  The shard was re-quiesced and stays
    /// usable; the failed operation may have partially applied, like a
    /// timed-out RPC.  Retryable.
    AllocFailed {
        /// Index of the shard whose allocation failed.
        shard: usize,
    },
    /// A failpoint injected a transient fault (`Action::Error` trips under
    /// the `failpoints` feature).  Same contract as
    /// [`HyperionError::AllocFailed`]: shard usable, outcome of the failed
    /// operation unknown, retryable.
    Injected {
        /// Index of the shard the fault was injected on.
        shard: usize,
    },
}

impl fmt::Display for HyperionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HyperionError::KeyTooLong { len, max } => {
                write!(f, "key of {len} bytes exceeds the maximum of {max}")
            }
            HyperionError::ShardPoisoned { shard } => {
                write!(f, "shard {shard} is poisoned (a writer panicked)")
            }
            HyperionError::StructuralLoop { shard } => {
                write!(
                    f,
                    "write engine failed to converge on shard {shard} (structural loop)"
                )
            }
            HyperionError::AllocFailed { shard } => {
                write!(f, "allocation failed on shard {shard} (simulated OOM)")
            }
            HyperionError::Injected { shard } => {
                write!(f, "injected transient fault on shard {shard}")
            }
            HyperionError::BatchFailed(report) => {
                write!(
                    f,
                    "batch partially failed: {} op(s) applied, {} failed",
                    report.summary.applied(),
                    report.failures.len(),
                )?;
                // The fields are pub, so an empty failures list is
                // constructible; Display must not panic on it.
                if let Some((index, error)) = report.failures.first() {
                    write!(f, " (first: op #{index} — {error})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for HyperionError {}

/// Outcome of a successful [`HyperionDb::put`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// The key was not present before.
    Inserted,
    /// An existing value was overwritten.
    Updated,
}

impl PutOutcome {
    /// `true` if the put created a new key.
    #[inline]
    pub fn was_insert(self) -> bool {
        matches!(self, PutOutcome::Inserted)
    }
}

/// Per-operation tallies of a successfully applied [`WriteBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Puts that created a new key.
    pub inserted: usize,
    /// Puts that overwrote an existing value.
    pub updated: usize,
    /// Deletes that removed a present key.
    pub deleted: usize,
    /// Deletes whose key was absent.
    pub missing: usize,
}

impl BatchSummary {
    /// Total number of operations applied.
    #[inline]
    pub fn applied(&self) -> usize {
        self.inserted + self.updated + self.deleted + self.missing
    }
}

/// Partial-failure report of a [`WriteBatch`]: the summary of everything that
/// *was* applied plus `(op index, error)` for every op that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Tallies of the applied operations.
    pub summary: BatchSummary,
    /// The failed operations, as `(index into the batch, error)` pairs in
    /// batch order.
    pub failures: Vec<(usize, HyperionError)>,
}

// =============================================================================
// partitioners
// =============================================================================

/// Maps keys to shards.  Implementations must be pure functions of the key
/// bytes and shard count: the same key must always land in the same shard.
pub trait Partitioner: Send + Sync {
    /// Returns the shard index for `key`; must be `< shards` (`shards >= 1`).
    fn shard_of(&self, key: &[u8], shards: usize) -> usize;

    /// `true` if `a <= b` implies `shard_of(a) <= shard_of(b)`.  Order
    /// preservation lets range scans prune shards entirely outside the
    /// requested bounds.
    fn is_order_preserving(&self) -> bool {
        false
    }

    /// Short identifier used in diagnostics and benchmark tables.
    fn name(&self) -> &'static str;
}

/// The paper's arena routing: shard by the first key byte, folded round-robin
/// onto the configured shard count (`T_i -> A_{i mod j}`, Section 3.2).
///
/// Faithful to the paper but skew-prone: keys sharing a hot prefix (e.g.
/// `user:`) all serialise on one shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstBytePartitioner;

impl Partitioner for FirstBytePartitioner {
    #[inline]
    fn shard_of(&self, key: &[u8], shards: usize) -> usize {
        key.first().copied().unwrap_or(0) as usize % shards
    }

    fn name(&self) -> &'static str {
        "first-byte"
    }
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash partitioning: splitmix64 over the key bytes, mapped onto the shard
/// range by Fibonacci multiplication (the top bits of `hash * 2^64 / φ`).
///
/// Spreads hot prefixes uniformly across shards, at the cost of making every
/// scan visit every shard (hashing is not order-preserving).
#[derive(Debug, Clone, Copy, Default)]
pub struct FibonacciPartitioner;

impl FibonacciPartitioner {
    /// The 64-bit hash used for routing (exposed for tests/diagnostics).
    #[inline]
    pub fn hash(key: &[u8]) -> u64 {
        let mut h = 0x51_7c_c1_b7_27_22_0a_95u64 ^ (key.len() as u64);
        let mut chunks = key.chunks_exact(8);
        for chunk in &mut chunks {
            h = splitmix64(h ^ u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            h = splitmix64(h ^ u64::from_le_bytes(buf));
        }
        h
    }
}

impl Partitioner for FibonacciPartitioner {
    #[inline]
    fn shard_of(&self, key: &[u8], shards: usize) -> usize {
        // Fibonacci hashing: multiply by 2^64/φ and keep the top bits; the
        // 128-bit product maps the hash uniformly onto [0, shards).
        let fib = Self::hash(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((fib as u128 * shards as u128) >> 64) as usize
    }

    fn name(&self) -> &'static str {
        "fibonacci-hash"
    }
}

/// Locality-preserving hash partitioning: only the key's first
/// `prefix_len` bytes are hashed for shard routing; the tail never affects
/// the route.
///
/// [`FibonacciPartitioner`] balances hot prefixes but destroys per-shard
/// *prefix density*: hashing the whole key scatters keys that share a long
/// prefix across all shards, so every shard's trie sees ~1 key per prefix —
/// sparse, large, path-compressed containers and ~3× slower writes under
/// uniform load (EXPERIMENTS.md "Partitioners under skew").  Routing on a
/// fixed-length prefix keeps *all* keys sharing that prefix on one shard:
/// the trie below every routed prefix is exactly as dense as in an
/// unsharded map, while distinct prefixes still spread uniformly.
///
/// `prefix_len` is the balance/density dial:
///
/// * it must exceed the length of any hot shared prefix, or that prefix
///   serialises on one shard exactly like [`FirstBytePartitioner`] (e.g.
///   `user:`-style keys need `prefix_len > 5`);
/// * every byte *not* covered loses nothing — it stays on the same shard as
///   its siblings.  The default of 2 covers one full container level
///   (Hyperion consumes 16 bits of key per container), which is where the
///   density loss is paid.
#[derive(Debug, Clone, Copy)]
pub struct PrefixHashPartitioner {
    /// Number of leading key bytes that determine the route.
    pub prefix_len: usize,
}

impl PrefixHashPartitioner {
    /// Routes on the first `prefix_len` key bytes (shorter keys are hashed
    /// whole).
    pub fn new(prefix_len: usize) -> PrefixHashPartitioner {
        PrefixHashPartitioner { prefix_len }
    }
}

impl Default for PrefixHashPartitioner {
    /// Routes on the first two key bytes: one full container level of the
    /// trie, the paper's 16-bit partial key.
    fn default() -> PrefixHashPartitioner {
        PrefixHashPartitioner { prefix_len: 2 }
    }
}

impl Partitioner for PrefixHashPartitioner {
    #[inline]
    fn shard_of(&self, key: &[u8], shards: usize) -> usize {
        let prefix = &key[..key.len().min(self.prefix_len)];
        let fib = FibonacciPartitioner::hash(prefix).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((fib as u128 * shards as u128) >> 64) as usize
    }

    fn name(&self) -> &'static str {
        "prefix-hash"
    }
}

/// Order-preserving partitioning: the first two key bytes (zero-padded) are
/// read as a big-endian `u16` and mapped proportionally onto the shard range.
///
/// Because shard assignment is monotone in key order, a range scan only
/// touches the shards overlapping its bounds — cross-shard scans stay cheap
/// even with hundreds of shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct RangePartitioner;

impl Partitioner for RangePartitioner {
    #[inline]
    fn shard_of(&self, key: &[u8], shards: usize) -> usize {
        let hi = key.first().copied().unwrap_or(0) as usize;
        let lo = key.get(1).copied().unwrap_or(0) as usize;
        ((hi << 8 | lo) * shards) >> 16
    }

    fn is_order_preserving(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "range"
    }
}

// =============================================================================
// builder
// =============================================================================

/// Configures and builds a [`HyperionDb`].
///
/// Every knob in one place (each row links to the authoritative setter):
///
/// | Knob | Setter | Default | What it controls |
/// |------|--------|---------|------------------|
/// | shard count | [`shards`](HyperionDbBuilder::shards) | 16 | number of independently locked tries |
/// | shard config | [`config`](HyperionDbBuilder::config) | [`HyperionConfig::default`] | per-shard trie tuning (thresholds, jumps, …) |
/// | routing | [`partitioner`](HyperionDbBuilder::partitioner) | [`FirstBytePartitioner`] | key-to-shard assignment |
/// | scan chunk size | [`scan_chunk_size`](HyperionDbBuilder::scan_chunk_size) | [`DEFAULT_SCAN_CHUNK`] | entries buffered per shard per lock acquisition |
/// | shortcut capacity | [`shortcut_capacity`](HyperionDbBuilder::shortcut_capacity) | [`HyperionConfig::shortcut_capacity`] | per-shard hashed shortcut entries (0 = off) |
///
/// Server-side limits (`max_queue_depth`, connection caps, deadlines) live on
/// [`ServerConfig`](../../hyperion_server/struct.ServerConfig.html), not here:
/// they bound the network front end, not the store.
pub struct HyperionDbBuilder {
    shards: usize,
    config: HyperionConfig,
    partitioner: Arc<dyn Partitioner>,
    scan_chunk: usize,
}

impl Default for HyperionDbBuilder {
    fn default() -> Self {
        HyperionDbBuilder {
            shards: 16,
            config: HyperionConfig::default(),
            partitioner: Arc::new(FirstBytePartitioner),
            scan_chunk: DEFAULT_SCAN_CHUNK,
        }
    }
}

impl HyperionDbBuilder {
    /// Number of shards (clamped to `1..=`[`MAX_SHARDS`]).  Default: 16.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.clamp(1, MAX_SHARDS);
        self
    }

    /// Per-shard trie configuration.  Default: [`HyperionConfig::default`].
    pub fn config(mut self, config: HyperionConfig) -> Self {
        self.config = config;
        self
    }

    /// Key-to-shard routing.  Default: [`FirstBytePartitioner`] (paper
    /// fidelity).
    pub fn partitioner<P: Partitioner + 'static>(mut self, partitioner: P) -> Self {
        self.partitioner = Arc::new(partitioner);
        self
    }

    /// Shared routing instance (for partitioners carrying state).
    pub fn partitioner_arc(mut self, partitioner: Arc<dyn Partitioner>) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Entries a [`DbScan`] buffers per shard between lock acquisitions
    /// (clamped to `>= 1`).  Default: [`DEFAULT_SCAN_CHUNK`].
    pub fn scan_chunk_size(mut self, chunk: usize) -> Self {
        self.scan_chunk = chunk.max(1);
        self
    }

    /// Capacity of each shard's hashed shortcut layer in entries (0 turns
    /// the shortcut off).  Shorthand for setting
    /// [`HyperionConfig::shortcut_capacity`] on the shard configuration.
    pub fn shortcut_capacity(mut self, capacity: usize) -> Self {
        self.config.shortcut_capacity = capacity;
        self
    }

    /// Builds the database.
    pub fn build(self) -> HyperionDb {
        // Install the quiet hook up front (not only on the first optimistic
        // read): a write-only chaos phase must not spray backtraces either.
        install_quiet_panic_hook();
        let mut shards = Vec::with_capacity(self.shards);
        for _ in 0..self.shards {
            shards.push(Shard::new(HyperionMap::with_config(self.config)));
        }
        HyperionDb {
            shards,
            partitioner: self.partitioner,
            scan_chunk: self.scan_chunk,
            scratch: Mutex::new(Vec::new()),
            read_counters: ReadCounters::default(),
        }
    }
}

// =============================================================================
// shards and optimistic reads
// =============================================================================

/// One shard: the trie plus its writer lock.  The map lives *outside* the
/// mutex so optimistic readers can reach it without locking; all mutable
/// access still goes through [`ShardGuard`], which holds the lock.
struct Shard {
    map: UnsafeCell<HyperionMap>,
    lock: Mutex<()>,
    /// Times [`lock_recover`] found this shard poisoned and revived it.
    recoveries: std::sync::atomic::AtomicU64,
}

// SAFETY: `HyperionMap` is `Send` (owned arena memory, no thread affinity).
// It is not `Sync` on its own — `Shard` makes the sharing sound by protocol:
// every `&mut` access goes through `ShardGuard` (mutex held), and the only
// lock-free access is the optimistic read path, whose results are discarded
// unless the shard's seqlock proves no writer ran (module docs, "Locking,
// optimistic reads and poisoning").
unsafe impl Send for Shard {}
unsafe impl Sync for Shard {}

impl Shard {
    fn new(map: HyperionMap) -> Shard {
        Shard {
            map: UnsafeCell::new(map),
            lock: Mutex::new(()),
            recoveries: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The shared view used by optimistic readers.
    ///
    /// # Safety
    ///
    /// The caller must either hold the lock or treat every result derived
    /// from the reference as unvalidated until the seqlock stamp taken
    /// *before* the accesses is revalidated.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    unsafe fn map_unlocked(&self) -> &HyperionMap {
        &*self.map.get()
    }

    /// Wraps an acquired lock token into a guard with map access.
    fn guard<'a>(&'a self, lock: MutexGuard<'a, ()>) -> ShardGuard<'a> {
        ShardGuard {
            map: self.map.get(),
            _lock: lock,
        }
    }
}

/// Locked access to one shard's map; derefs to [`HyperionMap`] so call sites
/// read like the plain `MutexGuard<HyperionMap>` this replaces.
struct ShardGuard<'a> {
    map: *mut HyperionMap,
    _lock: MutexGuard<'a, ()>,
}

impl Deref for ShardGuard<'_> {
    type Target = HyperionMap;

    #[inline]
    fn deref(&self) -> &HyperionMap {
        // SAFETY: the lock is held for the guard's lifetime, so no other
        // mutable access exists (optimistic readers hold only shared views).
        unsafe { &*self.map }
    }
}

impl DerefMut for ShardGuard<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut HyperionMap {
        // SAFETY: as above; optimistic readers racing this `&mut` never let
        // unvalidated results escape.
        unsafe { &mut *self.map }
    }
}

/// Bounded number of lock-free attempts before a read falls back to the
/// shard mutex.  Collisions are rare (a writer must overlap the attempt), so
/// a small bound keeps worst-case latency tight without giving up the fast
/// path on a single unlucky overlap.
const OPTIMISTIC_ATTEMPTS: usize = 3;

thread_local! {
    /// `true` while this thread executes an optimistic read attempt; the
    /// chained panic hook suppresses output for these panics (they are an
    /// expected consequence of reading mid-mutation state and are either
    /// retried or re-raised after validation).
    static IN_OPTIMISTIC: Cell<bool> = const { Cell::new(false) };
}

/// Chains a panic hook (once, process-wide) that stays silent for panics
/// unwinding out of optimistic read attempts.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_OPTIMISTIC.with(|flag| flag.get()) {
                return;
            }
            // Injected faults are expected, caught and converted (or
            // recovered from) upstream; a chaos run should not drown the
            // console in backtraces for them.
            #[cfg(feature = "failpoints")]
            {
                let p = info.payload();
                let injected_message = |s: &str| s.starts_with("failpoint '");
                if p.downcast_ref::<hyperion_mem::failpoint::AllocFailure>()
                    .is_some()
                    || p.downcast_ref::<hyperion_mem::failpoint::InjectedError>()
                        .is_some()
                    || p.downcast_ref::<&str>()
                        .is_some_and(|s| injected_message(s))
                    || p.downcast_ref::<String>()
                        .is_some_and(|s| injected_message(s))
                {
                    return;
                }
            }
            previous(info);
        }));
    });
}

// =============================================================================
// the database
// =============================================================================

/// A thread-safe, sharded Hyperion store with batched operations, pluggable
/// partitioning, typed errors and streaming merged scans.  See the
/// [module documentation](self) for an overview.
pub struct HyperionDb {
    shards: Vec<Shard>,
    partitioner: Arc<dyn Partitioner>,
    scan_chunk: usize,
    /// Reusable per-shard index groups for [`HyperionDb::apply`] /
    /// [`HyperionDb::multi_get`]: one `Vec<usize>` per shard, taken under a
    /// brief lock so repeated batch calls do not reallocate the grouping
    /// scaffolding.  Concurrent batch calls fall back to a fresh allocation.
    scratch: Mutex<Vec<Vec<usize>>>,
    /// Optimistic-read outcome counters (hits / retries / mutex fallbacks),
    /// exposed via [`HyperionDb::stats`] and the server's STATS opcode.
    read_counters: ReadCounters,
}

/// Recovers the guard even if another thread panicked while holding the lock;
/// used by aggregates and scans (see the module docs on poisoning).  Recovery
/// is restorative, not just tolerant: the poison flag is cleared so later
/// lockers stop paying this path, and the shard's seqlock — left odd by a
/// writer that died mid-mutation — is forced even again so optimistic readers
/// resume validating.
fn lock_recover(shard: &Shard) -> ShardGuard<'_> {
    let lock = shard.lock.lock().unwrap_or_else(|poisoned| {
        shard.lock.clear_poison();
        let lock = poisoned.into_inner();
        // SAFETY: the lock is held; `force_quiesce` is the designated
        // exclusive-access repair hook for an abandoned mutation span.
        unsafe { shard.map_unlocked() }.seq.force_quiesce();
        shard
            .recoveries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        lock
    });
    shard.guard(lock)
}

impl HyperionDb {
    /// Returns a builder with the default configuration.
    pub fn builder() -> HyperionDbBuilder {
        HyperionDbBuilder::default()
    }

    /// Convenience constructor: `shards` shards routed by the paper's
    /// [`FirstBytePartitioner`].
    pub fn new(shards: usize, config: HyperionConfig) -> Self {
        HyperionDb::builder().shards(shards).config(config).build()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configured partitioner.
    pub fn partitioner(&self) -> &dyn Partitioner {
        &*self.partitioner
    }

    /// Entries buffered per shard by each scan chunk refill.
    pub fn scan_chunk(&self) -> usize {
        self.scan_chunk
    }

    /// The shard index `key` routes to.
    #[inline]
    pub fn shard_of(&self, key: &[u8]) -> usize {
        let shard = self.partitioner.shard_of(key, self.shards.len());
        debug_assert!(shard < self.shards.len(), "partitioner out of range");
        shard.min(self.shards.len() - 1)
    }

    #[inline]
    fn check_key(key: &[u8]) -> Result<(), HyperionError> {
        if key.len() > MAX_KEY_LEN {
            return Err(HyperionError::KeyTooLong {
                len: key.len(),
                max: MAX_KEY_LEN,
            });
        }
        Ok(())
    }

    /// Locks shard `index` for the typed API, reporting poisoning.
    fn lock_shard(&self, index: usize) -> Result<ShardGuard<'_>, HyperionError> {
        let shard = &self.shards[index];
        let lock = shard
            .lock
            .lock()
            .map_err(|_| HyperionError::ShardPoisoned { shard: index })?;
        Ok(shard.guard(lock))
    }

    /// Runs `read` against shard `index` lock-free under the seqlock
    /// protocol: snapshot the version, run, revalidate.  Returns `None` after
    /// [`OPTIMISTIC_ATTEMPTS`] collisions with writers (caller falls back to
    /// the mutex).  `read` must be re-runnable (`Fn`) and must not leak
    /// side effects from failed attempts — it sees possibly-torn state.
    fn try_optimistic<R>(
        &self,
        index: usize,
        read: &(impl Fn(&HyperionMap) -> R + ?Sized),
    ) -> Option<R> {
        install_quiet_panic_hook();
        // SAFETY: unvalidated shared view; every derived result below is
        // dropped unless `read_validate` proves no writer overlapped.
        let map = unsafe { self.shards[index].map_unlocked() };
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            let Some(stamp) = map.seq.read_begin() else {
                // A writer is mid-mutation (or died there); count the wasted
                // attempt and re-check — writers are short.
                self.read_counters.retry();
                std::hint::spin_loop();
                continue;
            };
            let outcome = shortcut::suppress_publish(|| {
                IN_OPTIMISTIC.with(|flag| flag.set(true));
                let outcome = catch_unwind(AssertUnwindSafe(|| read(map)));
                IN_OPTIMISTIC.with(|flag| flag.set(false));
                outcome
            });
            if map.seq.read_validate(stamp) {
                match outcome {
                    Ok(result) => {
                        self.read_counters.hit();
                        return Some(result);
                    }
                    // No writer ran, yet the read engine panicked: that is a
                    // genuine bug, not a torn snapshot.  Re-raise it.
                    Err(payload) => resume_unwind(payload),
                }
            }
            self.read_counters.retry();
        }
        None
    }

    /// Optimistic read with a typed-error mutex fallback ([`lock_shard`]
    /// semantics: poisoning is reported, not recovered).
    fn read_shard<R>(
        &self,
        index: usize,
        read: impl Fn(&HyperionMap) -> R,
    ) -> Result<R, HyperionError> {
        if let Some(result) = self.try_optimistic(index, &read) {
            return Ok(result);
        }
        self.read_counters.fallback();
        let guard = self.lock_shard(index)?;
        Ok(read(&guard))
    }

    /// Optimistic read with a recovering mutex fallback ([`lock_recover`]
    /// semantics: poisoned shards are revived).
    fn read_shard_recovering<R>(&self, index: usize, read: impl Fn(&HyperionMap) -> R) -> R {
        if let Some(result) = self.try_optimistic(index, &read) {
            return result;
        }
        self.read_counters.fallback();
        read(&lock_recover(&self.shards[index]))
    }

    /// One versioned snapshot of every statistics surface the engine keeps:
    /// the hashed-shortcut counters, the optimistic-read outcomes, the
    /// structural trie counters (all aggregated across shards), the poison
    /// recoveries and the fault-injection trip total.  This is the single
    /// stats entry point — the server's STATS verb and the benchmarks build
    /// on it.
    pub fn stats(&self) -> DbStats {
        let mut shortcut = ShortcutStats::default();
        let mut counters = TrieCounters::default();
        for i in 0..self.shards.len() {
            let (s, c) =
                self.read_shard_recovering(i, |map| (map.shortcut_stats(), map.counters()));
            shortcut.merge(&s);
            counters.merge(&c);
        }
        DbStats {
            version: DB_STATS_VERSION,
            shortcut,
            optimistic: self.read_counters.snapshot(),
            counters,
            poison_recoveries: self.poison_recoveries(),
            #[cfg(feature = "failpoints")]
            failpoint_trips: crate::failpoint::total_trips(),
            #[cfg(not(feature = "failpoints"))]
            failpoint_trips: 0,
        }
    }

    /// Revives every currently poisoned shard (clears the poison flag and
    /// re-evens the abandoned seqlock span) and returns how many were
    /// recovered.  Cheap when nothing is poisoned: only the mutex poison
    /// flags are inspected.  The server's workers call this after catching a
    /// writer panic so one crashed request never wedges a shard.
    pub fn recover_poisoned(&self) -> usize {
        let mut recovered = 0;
        for shard in &self.shards {
            if shard.lock.is_poisoned() {
                drop(lock_recover(shard));
                recovered += 1;
            }
        }
        recovered
    }

    /// Total shard poison recoveries performed over this database's lifetime
    /// (by [`HyperionDb::recover_poisoned`], the recovering read fallback and
    /// the recovering aggregates).
    pub fn poison_recoveries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.recoveries.load(std::sync::atomic::Ordering::Relaxed))
            .sum()
    }

    /// Runs the deep structural validator on every shard under the shard
    /// lock (recovering poisoned shards first).  Test/chaos-harness hook.
    #[doc(hidden)]
    pub fn validate_structure(&self) -> Result<(), String> {
        for (index, shard) in self.shards.iter().enumerate() {
            lock_recover(shard)
                .validate_structure()
                .map_err(|e| format!("shard {index}: {e}"))?;
        }
        Ok(())
    }

    /// Runs a mutation against a locked shard, converting injected failpoint
    /// unwinds ([`hyperion_mem::failpoint::AllocFailure`] /
    /// [`hyperion_mem::failpoint::InjectedError`]) into typed errors.  The
    /// guard stays alive across the catch, so the mutex is *not* poisoned for
    /// these simulated transient faults — the shard is re-quiesced and stays
    /// usable.  Any other panic (including injected `Action::Panic` crashes)
    /// keeps unwinding and poisons the shard like a real writer crash.
    #[cfg(feature = "failpoints")]
    fn mutate<R>(
        guard: &mut ShardGuard<'_>,
        shard: usize,
        f: impl FnOnce(&mut HyperionMap) -> R,
    ) -> Result<R, HyperionError> {
        match catch_unwind(AssertUnwindSafe(|| f(guard))) {
            Ok(result) => Ok(result),
            Err(payload) => {
                let error = if payload
                    .downcast_ref::<hyperion_mem::failpoint::AllocFailure>()
                    .is_some()
                {
                    HyperionError::AllocFailed { shard }
                } else if payload
                    .downcast_ref::<hyperion_mem::failpoint::InjectedError>()
                    .is_some()
                {
                    HyperionError::Injected { shard }
                } else {
                    resume_unwind(payload);
                };
                // The unwind left the mutation span odd; the lock is held, so
                // this is the designated exclusive-access repair point.
                guard.seq.force_quiesce();
                Err(error)
            }
        }
    }

    /// `failpoints` off: a plain call, zero added cost.
    #[cfg(not(feature = "failpoints"))]
    #[inline(always)]
    fn mutate<R>(
        guard: &mut ShardGuard<'_>,
        _shard: usize,
        f: impl FnOnce(&mut HyperionMap) -> R,
    ) -> Result<R, HyperionError> {
        Ok(f(guard))
    }

    // =========================================================================
    // typed point operations
    // =========================================================================

    /// Inserts or updates a key.
    pub fn put(&self, key: &[u8], value: u64) -> Result<PutOutcome, HyperionError> {
        Self::check_key(key)?;
        let shard = self.shard_of(key);
        let mut guard = self.lock_shard(shard)?;
        match Self::mutate(&mut guard, shard, |map| map.try_put(key, value))? {
            Ok(true) => Ok(PutOutcome::Inserted),
            Ok(false) => Ok(PutOutcome::Updated),
            Err(WriteError::StructuralLoop) => Err(HyperionError::StructuralLoop { shard }),
        }
    }

    /// Looks up a key, lock-free in the common case (see the module docs on
    /// optimistic reads).  Keys longer than [`MAX_KEY_LEN`] can never have
    /// been inserted, so they simply resolve to `None`.
    pub fn get(&self, key: &[u8]) -> Result<Option<u64>, HyperionError> {
        if key.len() > MAX_KEY_LEN {
            return Ok(None);
        }
        self.read_shard(self.shard_of(key), |map| map.get(key))
    }

    /// Removes a key.  Returns `true` if it was present.
    pub fn delete(&self, key: &[u8]) -> Result<bool, HyperionError> {
        if key.len() > MAX_KEY_LEN {
            return Ok(false);
        }
        let shard = self.shard_of(key);
        let mut guard = self.lock_shard(shard)?;
        Self::mutate(&mut guard, shard, |map| map.delete(key))
    }

    // =========================================================================
    // batched operations
    // =========================================================================

    /// Takes the reusable per-shard grouping buffers (cleared, sized to the
    /// shard count), or allocates fresh ones if another batch holds them.
    fn take_scratch(&self) -> Vec<Vec<usize>> {
        let mut groups = match self.scratch.try_lock() {
            Ok(mut scratch) => std::mem::take(&mut *scratch),
            Err(_) => Vec::new(),
        };
        groups.resize_with(self.shards.len(), Vec::new);
        for group in &mut groups {
            group.clear();
        }
        groups
    }

    /// Returns grouping buffers to the scratch slot (keeping their
    /// capacity) unless another batch already replenished it.
    fn return_scratch(&self, groups: Vec<Vec<usize>>) {
        if let Ok(mut scratch) = self.scratch.try_lock() {
            if scratch.is_empty() {
                *scratch = groups;
            }
        }
    }

    /// Looks up many keys with one lock acquisition *and one resume-scan
    /// descent group* per shard instead of one full descent per key:
    /// each shard's probes route through [`HyperionMap::get_many`], which
    /// sorts them in transformed key space and resumes its container scans
    /// across consecutive keys (the read-side mirror of `put_many`).  Each
    /// per-shard batch runs optimistically first, like [`HyperionDb::get`].
    /// `results[i]` corresponds to `keys[i]`.
    pub fn multi_get(&self, keys: &[&[u8]]) -> Result<Vec<Option<u64>>, HyperionError> {
        let mut results = vec![None; keys.len()];
        let mut groups = self.take_scratch();
        for (i, key) in keys.iter().enumerate() {
            if key.len() <= MAX_KEY_LEN {
                groups[self.shard_of(key)].push(i);
            }
        }
        let mut shard_keys: Vec<&[u8]> = Vec::new();
        for (shard, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            shard_keys.clear();
            shard_keys.extend(group.iter().map(|&i| keys[i]));
            let values = match self.read_shard(shard, |map| map.get_many(&shard_keys)) {
                Ok(values) => values,
                Err(e) => {
                    self.return_scratch(groups);
                    return Err(e);
                }
            };
            for (&i, value) in group.iter().zip(values) {
                results[i] = value;
            }
        }
        self.return_scratch(groups);
        Ok(results)
    }

    /// Removes many keys with one lock acquisition per involved shard,
    /// mirroring [`HyperionDb::multi_get`]: each shard's keys route through
    /// [`HyperionMap::delete_many`], which applies them in sorted order for
    /// container-cache locality.  `results[i]` is `true` iff `keys[i]` was
    /// present; keys longer than [`MAX_KEY_LEN`] can never have been
    /// inserted, so they simply resolve to `false`.  [`WriteBatch`] delete
    /// runs flow through the same per-shard path (see [`HyperionDb::apply`]).
    pub fn delete_many(&self, keys: &[&[u8]]) -> Result<Vec<bool>, HyperionError> {
        let mut results = vec![false; keys.len()];
        let mut groups = self.take_scratch();
        for (i, key) in keys.iter().enumerate() {
            if key.len() <= MAX_KEY_LEN {
                groups[self.shard_of(key)].push(i);
            }
        }
        let mut shard_keys: Vec<&[u8]> = Vec::new();
        for (shard, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut guard = match self.lock_shard(shard) {
                Ok(guard) => guard,
                Err(e) => {
                    self.return_scratch(groups);
                    return Err(e);
                }
            };
            shard_keys.clear();
            shard_keys.extend(group.iter().map(|&i| keys[i]));
            let removed = match Self::mutate(&mut guard, shard, |map| map.delete_many(&shard_keys))
            {
                Ok(removed) => removed,
                Err(e) => {
                    drop(guard);
                    self.return_scratch(groups);
                    return Err(e);
                }
            };
            for (&i, removed) in group.iter().zip(removed) {
                results[i] = removed;
            }
        }
        self.return_scratch(groups);
        Ok(results)
    }

    /// Applies a [`WriteBatch`], acquiring each involved shard's lock exactly
    /// once.  Operations on the same key keep their batch order (a key always
    /// routes to one shard, and per-shard application preserves batch order).
    ///
    /// On success returns the [`BatchSummary`].  If some operations fail
    /// (over-long keys, poisoned shards) the rest are still applied and the
    /// error carries a [`BatchReport`] with per-op indices.
    pub fn apply(&self, batch: &WriteBatch) -> Result<BatchSummary, HyperionError> {
        let mut summary = BatchSummary::default();
        let mut failures: Vec<(usize, HyperionError)> = Vec::new();
        let mut groups = self.take_scratch();
        for (i, op) in batch.ops.iter().enumerate() {
            match Self::check_key(op.key()) {
                Ok(()) => groups[self.shard_of(op.key())].push(i),
                Err(e) => failures.push((i, e)),
            }
        }
        for (shard, group) in groups.iter_mut().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut guard = match self.lock_shard(shard) {
                Ok(guard) => guard,
                Err(e) => {
                    failures.extend(group.iter().map(|&i| (i, e.clone())));
                    continue;
                }
            };
            // Stable-sort the shard's ops by key: ops on the same key keep
            // batch order (so the final state matches sequential
            // application), while ops on distinct keys commute.  Runs of
            // puts on strictly distinct keys then flow through the write
            // engine's sorted batch path — one locality-aware descent per
            // run instead of one full descent per key.
            group.sort_by(|&a, &b| batch.ops[a].key().cmp(batch.ops[b].key()));
            let mut at = 0usize;
            while at < group.len() {
                let mut run = at;
                while run < group.len() {
                    let BatchOp::Put { key, .. } = &batch.ops[group[run]] else {
                        break;
                    };
                    // A duplicate key ends the run: its ops must apply (and
                    // count) in batch order, one at a time.
                    if run > at && key.as_slice() <= batch.ops[group[run - 1]].key() {
                        break;
                    }
                    run += 1;
                }
                if run - at >= 2 {
                    let pairs: Vec<(&[u8], u64)> = group[at..run]
                        .iter()
                        .map(|&i| match &batch.ops[i] {
                            BatchOp::Put { key, value } => (key.as_slice(), *value),
                            BatchOp::Delete { .. } => unreachable!("run holds puts only"),
                        })
                        .collect();
                    match Self::mutate(&mut guard, shard, |map| {
                        map.try_put_many(pairs.iter().copied())
                    }) {
                        Ok(Ok(inserted)) => {
                            summary.inserted += inserted;
                            summary.updated += (run - at) - inserted;
                        }
                        Ok(Err(WriteError::StructuralLoop)) => {
                            let e = HyperionError::StructuralLoop { shard };
                            failures.extend(group[at..run].iter().map(|&i| (i, e.clone())));
                        }
                        Err(e) => {
                            failures.extend(group[at..run].iter().map(|&i| (i, e.clone())));
                        }
                    }
                    at = run;
                    continue;
                }
                // Coalesce runs of deletes the same way: one
                // `HyperionMap::delete_many` call per run, under the one lock
                // this shard already holds.  Duplicate keys are fine — the
                // group is stable-sorted and `delete_many` preserves arrival
                // order among equals, so outcomes match sequential deletes.
                let mut del_run = at;
                while del_run < group.len()
                    && matches!(&batch.ops[group[del_run]], BatchOp::Delete { .. })
                {
                    del_run += 1;
                }
                if del_run - at >= 2 {
                    let keys: Vec<&[u8]> = group[at..del_run]
                        .iter()
                        .map(|&i| batch.ops[i].key())
                        .collect();
                    match Self::mutate(&mut guard, shard, |map| map.delete_many(&keys)) {
                        Ok(removed) => {
                            for removed in removed {
                                if removed {
                                    summary.deleted += 1;
                                } else {
                                    summary.missing += 1;
                                }
                            }
                        }
                        Err(e) => {
                            failures.extend(group[at..del_run].iter().map(|&i| (i, e.clone())));
                        }
                    }
                    at = del_run;
                    continue;
                }
                let i = group[at];
                match &batch.ops[i] {
                    BatchOp::Put { key, value } => {
                        match Self::mutate(&mut guard, shard, |map| map.try_put(key, *value)) {
                            Ok(Ok(true)) => summary.inserted += 1,
                            Ok(Ok(false)) => summary.updated += 1,
                            Ok(Err(WriteError::StructuralLoop)) => {
                                failures.push((i, HyperionError::StructuralLoop { shard }));
                            }
                            Err(e) => failures.push((i, e)),
                        }
                    }
                    BatchOp::Delete { key } => {
                        match Self::mutate(&mut guard, shard, |map| map.delete(key)) {
                            Ok(true) => summary.deleted += 1,
                            Ok(false) => summary.missing += 1,
                            Err(e) => failures.push((i, e)),
                        }
                    }
                }
                at += 1;
            }
        }
        self.return_scratch(groups);
        if failures.is_empty() {
            Ok(summary)
        } else {
            failures.sort_by_key(|(i, _)| *i);
            Err(HyperionError::BatchFailed(BatchReport {
                summary,
                failures,
            }))
        }
    }

    // =========================================================================
    // aggregates (recovering; see module docs on poisoning)
    // =========================================================================

    /// Total number of keys across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.read_shard_recovering(i, |map| map.len()))
            .sum()
    }

    /// `true` if no shard stores any key.
    pub fn is_empty(&self) -> bool {
        (0..self.shards.len()).all(|i| self.read_shard_recovering(i, |map| map.is_empty()))
    }

    /// Total logical memory footprint across all shards.
    pub fn footprint_bytes(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.read_shard_recovering(i, |map| map.footprint_bytes()))
            .sum()
    }

    /// Per-shard key counts — the load-balance fingerprint of the configured
    /// partitioner.
    pub fn shard_lens(&self) -> Vec<usize> {
        (0..self.shards.len())
            .map(|i| self.read_shard_recovering(i, |map| map.len()))
            .collect()
    }

    // =========================================================================
    // streaming merged scans
    // =========================================================================

    /// Globally ordered iteration over all key/value pairs.
    ///
    /// The scan is *streaming*: each shard contributes a bounded chunk
    /// ([`HyperionDb::scan_chunk`] entries) that is refilled hand-over-hand
    /// under a brief lock, so memory stays `O(shards × chunk)` no matter how
    /// large the database is.  Keys written behind the scan's progress point
    /// after their chunk was taken are not observed (chunk-granular snapshot
    /// semantics).
    pub fn iter(&self) -> DbScan<'_> {
        DbScan::new(self, Vec::new(), false, UpperBound::Unbounded)
    }

    /// Globally ordered iteration over the keys within `bounds` (streaming,
    /// see [`HyperionDb::iter`]).  With an order-preserving partitioner only
    /// the shards overlapping the bounds are visited.
    pub fn range<K, R>(&self, bounds: R) -> DbScan<'_>
    where
        K: AsRef<[u8]> + ?Sized,
        R: RangeBounds<K>,
    {
        let (start, exclusive) = match bounds.start_bound() {
            Bound::Unbounded => (Vec::new(), false),
            Bound::Included(s) => (s.as_ref().to_vec(), false),
            Bound::Excluded(s) => (s.as_ref().to_vec(), true),
        };
        let end = match bounds.end_bound() {
            Bound::Unbounded => UpperBound::Unbounded,
            Bound::Excluded(e) => UpperBound::Excluded(e.as_ref().to_vec()),
            Bound::Included(e) => UpperBound::Included(e.as_ref().to_vec()),
        };
        DbScan::new(self, start, exclusive, end)
    }

    /// Globally ordered iteration over all keys starting with `prefix`
    /// (streaming, see [`HyperionDb::iter`]).
    pub fn prefix(&self, prefix: &[u8]) -> DbScan<'_> {
        let end = match prefix_upper_bound(prefix) {
            Some(end) => UpperBound::Excluded(end),
            None => UpperBound::Unbounded,
        };
        DbScan::new(self, prefix.to_vec(), false, end)
    }

    /// Globally ordered iteration over all key/value pairs in *descending*
    /// key order (streaming like [`HyperionDb::iter`]; every shard walks its
    /// trie backward and the merge runs max-heap-first).
    pub fn iter_rev(&self) -> DbScan<'_> {
        DbScan::new_rev(self, UpperBound::Unbounded, LowerBound::Unbounded)
    }

    /// Globally ordered iteration over the keys within `bounds` in
    /// *descending* key order.  The reverse walk starts at the upper bound
    /// and stops below the lower one; with an order-preserving partitioner
    /// only the shards overlapping the bounds are visited, exactly like the
    /// forward [`HyperionDb::range`].
    pub fn range_rev<K, R>(&self, bounds: R) -> DbScan<'_>
    where
        K: AsRef<[u8]> + ?Sized,
        R: RangeBounds<K>,
    {
        let lower = match bounds.start_bound() {
            Bound::Unbounded => LowerBound::Unbounded,
            Bound::Included(s) => LowerBound::Included(s.as_ref().to_vec()),
            Bound::Excluded(s) => LowerBound::Excluded(s.as_ref().to_vec()),
        };
        let upper = match bounds.end_bound() {
            Bound::Unbounded => UpperBound::Unbounded,
            Bound::Excluded(e) => UpperBound::Excluded(e.as_ref().to_vec()),
            Bound::Included(e) => UpperBound::Included(e.as_ref().to_vec()),
        };
        DbScan::new_rev(self, upper, lower)
    }

    /// Globally ordered iteration over all keys starting with `prefix`, in
    /// *descending* key order (streaming, see [`HyperionDb::iter_rev`]).
    pub fn prefix_rev(&self, prefix: &[u8]) -> DbScan<'_> {
        let upper = match prefix_upper_bound(prefix) {
            Some(end) => UpperBound::Excluded(end),
            None => UpperBound::Unbounded,
        };
        DbScan::new_rev(self, upper, LowerBound::Included(prefix.to_vec()))
    }

    /// Invokes `f` for every key/value pair in ascending key order until `f`
    /// returns `false`.  Thin adapter over [`HyperionDb::iter`].
    pub fn for_each<F: FnMut(&[u8], u64) -> bool>(&self, f: &mut F) -> bool {
        for (key, value) in self.iter() {
            if !f(&key, value) {
                return false;
            }
        }
        true
    }

    // Recovering variants backing the capability-trait impls (bool/Option
    // surface).  The key length contract is shared with the typed API: if
    // any write path accepted over-long keys, the typed `get`/`delete` (which
    // treat them as impossible) could neither see nor remove them — and the
    // stack-depth bound MAX_KEY_LEN exists for would be bypassed.  The bool
    // surface has no error channel and silently dropping a write would read
    // as "updated", so a violation panics (before any lock is taken — no
    // poisoning).

    pub(crate) fn put_recovering(&self, key: &[u8], value: u64) -> bool {
        assert!(
            key.len() <= MAX_KEY_LEN,
            "key of {} bytes exceeds MAX_KEY_LEN ({MAX_KEY_LEN}); \
             use HyperionDb::put for a typed error instead",
            key.len()
        );
        lock_recover(&self.shards[self.shard_of(key)]).put(key, value)
    }

    pub(crate) fn get_recovering(&self, key: &[u8]) -> Option<u64> {
        self.read_shard_recovering(self.shard_of(key), |map| map.get(key))
    }

    pub(crate) fn delete_recovering(&self, key: &[u8]) -> bool {
        lock_recover(&self.shards[self.shard_of(key)]).delete(key)
    }
}

impl fmt::Debug for HyperionDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HyperionDb")
            .field("shards", &self.shards.len())
            .field("partitioner", &self.partitioner.name())
            .field("scan_chunk", &self.scan_chunk)
            .finish()
    }
}

// =============================================================================
// write batches
// =============================================================================

/// One operation of a [`WriteBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum BatchOp {
    Put { key: Vec<u8>, value: u64 },
    Delete { key: Vec<u8> },
}

impl BatchOp {
    #[inline]
    fn key(&self) -> &[u8] {
        match self {
            BatchOp::Put { key, .. } | BatchOp::Delete { key } => key,
        }
    }
}

/// A group of put/delete operations applied with one lock acquisition per
/// involved shard (see [`HyperionDb::apply`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    ops: Vec<BatchOp>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Creates an empty batch with capacity for `n` operations.
    pub fn with_capacity(n: usize) -> WriteBatch {
        WriteBatch {
            ops: Vec::with_capacity(n),
        }
    }

    /// Queues an insert/update.
    pub fn put(&mut self, key: &[u8], value: u64) -> &mut WriteBatch {
        self.ops.push(BatchOp::Put {
            key: key.to_vec(),
            value,
        });
        self
    }

    /// Queues a deletion.
    pub fn delete(&mut self, key: &[u8]) -> &mut WriteBatch {
        self.ops.push(BatchOp::Delete { key: key.to_vec() });
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Removes all queued operations, keeping the allocation.
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

// =============================================================================
// streaming merged scan
// =============================================================================

/// Refill state of one shard's stream within a [`DbScan`].
enum StreamState {
    /// The next refill seeks to `seek` and resumes in the scan direction.
    /// `None` seeks to the far end of the shard in that direction (only used
    /// by a reverse scan's initial unbounded seek; forward scans always carry
    /// a start key, the empty key meaning "everything").  When `inclusive`
    /// is false the walk resumes *past* the seek key — the hand-over-hand
    /// resume protocol after a chunk's last buffered key, via
    /// [`crate::Cursor::seek_exclusive`] / [`crate::Cursor::seek_for_pred_exclusive`].
    Pending {
        seek: Option<Vec<u8>>,
        inclusive: bool,
    },
    /// The shard has no further in-bound keys.
    Exhausted,
}

/// One shard's contribution to the merge: a bounded buffer of pre-fetched
/// entries plus the resume state for the next refill.
struct ShardStream {
    shard: usize,
    buf: VecDeque<(Vec<u8>, u64)>,
    state: StreamState,
}

/// The merge frontier of a [`DbScan`]: a min-heap for ascending scans, a
/// max-heap for descending ones.  Keys are unique across shards (each key
/// routes to exactly one shard), so `(key, stream, value)` ordering is total.
enum MergeHeap {
    Min(BinaryHeap<Reverse<(Vec<u8>, usize, u64)>>),
    Max(BinaryHeap<(Vec<u8>, usize, u64)>),
}

impl MergeHeap {
    fn with_capacity(reverse: bool, capacity: usize) -> MergeHeap {
        if reverse {
            MergeHeap::Max(BinaryHeap::with_capacity(capacity))
        } else {
            MergeHeap::Min(BinaryHeap::with_capacity(capacity))
        }
    }

    #[inline]
    fn push(&mut self, key: Vec<u8>, stream: usize, value: u64) {
        match self {
            MergeHeap::Min(heap) => heap.push(Reverse((key, stream, value))),
            MergeHeap::Max(heap) => heap.push((key, stream, value)),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(Vec<u8>, usize, u64)> {
        match self {
            MergeHeap::Min(heap) => heap.pop().map(|Reverse(entry)| entry),
            MergeHeap::Max(heap) => heap.pop(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            MergeHeap::Min(heap) => heap.len(),
            MergeHeap::Max(heap) => heap.len(),
        }
    }
}

/// A streaming, globally ordered k-way merge over the shards of a
/// [`HyperionDb`]; returned by [`HyperionDb::iter`], [`HyperionDb::range`],
/// [`HyperionDb::prefix`] and their `_rev` counterparts.
///
/// Unlike a snapshot merge, the scan holds no lock while the caller consumes
/// it *and* never materialises a shard: each shard stream buffers at most one
/// chunk ([`HyperionDb::scan_chunk`] entries), refilled hand-over-hand by
/// re-seeking past the last buffered key under a brief lock.  Peak buffered
/// entries are therefore bounded by `shards × chunk`
/// ([`DbScan::peak_buffered`] reports the observed maximum).
///
/// A reverse scan runs the same machinery mirrored: every shard stream walks
/// its trie backward (the [`crate::Cursor`] reverse engine), the merge
/// frontier is a max-heap, and refills resume *below* the chunk's smallest
/// key.  [`RangePartitioner`] shard pruning applies to both directions.
pub struct DbScan<'a> {
    db: &'a HyperionDb,
    streams: Vec<ShardStream>,
    heap: MergeHeap,
    /// `true` for a descending scan.
    reverse: bool,
    /// Forward stop bound (checked per key while ascending).
    end: UpperBound,
    /// Reverse stop bound (checked per key while descending).
    lower: LowerBound,
    chunk: usize,
    peak_buffered: usize,
}

impl<'a> DbScan<'a> {
    fn new(db: &'a HyperionDb, start: Vec<u8>, exclusive: bool, end: UpperBound) -> DbScan<'a> {
        let lower = LowerBound::Unbounded; // forward: handled by the seek
        Self::build(db, false, Some(start), !exclusive, end, lower)
    }

    fn new_rev(db: &'a HyperionDb, upper: UpperBound, lower: LowerBound) -> DbScan<'a> {
        // The reverse walk starts at the upper bound: translate it into the
        // initial backward seek (`None` = the far end of each shard).
        let (seek, inclusive) = match &upper {
            UpperBound::Unbounded => (None, true),
            UpperBound::Excluded(e) => (Some(e.clone()), false),
            UpperBound::Included(e) => (Some(e.clone()), true),
        };
        Self::build(db, true, seek, inclusive, upper, lower)
    }

    fn build(
        db: &'a HyperionDb,
        reverse: bool,
        seek: Option<Vec<u8>>,
        inclusive: bool,
        end: UpperBound,
        lower: LowerBound,
    ) -> DbScan<'a> {
        // With an order-preserving partitioner, only the shards overlapping
        // [lower, end] can hold in-bound keys — in either direction.
        let n = db.shards.len();
        let (lo, hi) = if db.partitioner.is_order_preserving() {
            let lo = match &lower {
                LowerBound::Unbounded => 0,
                LowerBound::Excluded(s) | LowerBound::Included(s) => {
                    db.partitioner.shard_of(s, n).min(n - 1)
                }
            };
            let lo = match (reverse, &seek) {
                // A forward scan's lower bound is its seek key.
                (false, Some(s)) => lo.max(db.partitioner.shard_of(s, n).min(n - 1)),
                _ => lo,
            };
            let hi = match &end {
                UpperBound::Unbounded => n - 1,
                UpperBound::Excluded(e) | UpperBound::Included(e) => {
                    db.partitioner.shard_of(e, n).min(n - 1)
                }
            };
            (lo, hi.max(lo))
        } else {
            (0, n - 1)
        };
        let mut scan = DbScan {
            db,
            streams: (lo..=hi)
                .map(|shard| ShardStream {
                    shard,
                    buf: VecDeque::new(),
                    state: StreamState::Pending {
                        seek: seek.clone(),
                        inclusive,
                    },
                })
                .collect(),
            heap: MergeHeap::with_capacity(reverse, hi - lo + 1),
            reverse,
            end,
            lower,
            chunk: db.scan_chunk,
            peak_buffered: 0,
        };
        for i in 0..scan.streams.len() {
            scan.promote_head(i);
        }
        scan
    }

    /// Fetches the next chunk for stream `i` — optimistically first, with a
    /// recovering lock fallback.  The whole seek-and-collect runs as one
    /// re-runnable attempt: if a writer moves the chunk's containers
    /// mid-fetch, seqlock validation discards the partial chunk and the next
    /// attempt re-seeks from the same resume key, so the merged scan never
    /// observes a half-mutated shard (chunk-granular snapshot semantics, as
    /// before).
    fn refill(&mut self, i: usize) {
        let StreamState::Pending { seek, inclusive } =
            std::mem::replace(&mut self.streams[i].state, StreamState::Exhausted)
        else {
            return;
        };
        let shard = self.streams[i].shard;
        let reverse = self.reverse;
        let chunk = self.chunk;
        let (end, lower) = (&self.end, &self.lower);
        let fetch = |map: &HyperionMap| {
            let mut cursor = map.cursor();
            match (&seek, reverse, inclusive) {
                (None, true, _) => cursor.seek_last(),
                (None, false, _) => cursor.seek(&[]),
                (Some(k), true, true) => cursor.seek_for_pred(k),
                (Some(k), true, false) => cursor.seek_for_pred_exclusive(k),
                (Some(k), false, true) => cursor.seek(k),
                (Some(k), false, false) => cursor.seek_exclusive(k),
            }
            let mut buf = Vec::with_capacity(chunk);
            let mut ran_dry = false;
            while buf.len() < chunk {
                let next = if reverse {
                    cursor.prev()
                } else {
                    cursor.next()
                };
                let Some((key, value)) = next else {
                    ran_dry = true;
                    break;
                };
                let in_bound = if reverse {
                    lower.admits(&key)
                } else {
                    end.admits(&key)
                };
                if !in_bound {
                    ran_dry = true;
                    break;
                }
                buf.push((key, value));
            }
            (buf, ran_dry)
        };
        let (buf, ran_dry) = self.db.read_shard_recovering(shard, fetch);
        let stream = &mut self.streams[i];
        stream.buf = buf.into();
        if !ran_dry {
            if let Some((last, _)) = stream.buf.back() {
                stream.state = StreamState::Pending {
                    seek: Some(last.clone()),
                    inclusive: false,
                };
            }
        }
    }

    /// Moves the head of stream `i` into the merge heap, refilling first if
    /// the buffer ran empty.
    fn promote_head(&mut self, i: usize) {
        if self.streams[i].buf.is_empty() {
            self.refill(i);
            self.note_peak();
        }
        if let Some((key, value)) = self.streams[i].buf.pop_front() {
            self.heap.push(key, i, value);
        }
    }

    #[inline]
    fn buffered(&self) -> usize {
        self.heap.len() + self.streams.iter().map(|s| s.buf.len()).sum::<usize>()
    }

    #[inline]
    fn note_peak(&mut self) {
        self.peak_buffered = self.peak_buffered.max(self.buffered());
    }

    /// `true` for a descending scan.
    pub fn is_reverse(&self) -> bool {
        self.reverse
    }

    /// Entries currently buffered across all shard streams (including the
    /// merge heap).  Bounded by `shards × chunk`.
    pub fn buffered_entries(&self) -> usize {
        self.buffered()
    }

    /// The maximum number of simultaneously buffered entries observed so far.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }
}

impl Iterator for DbScan<'_> {
    type Item = (Vec<u8>, u64);

    fn next(&mut self) -> Option<(Vec<u8>, u64)> {
        let (key, i, value) = self.heap.pop()?;
        self.promote_head(i);
        Some((key, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Everything buffered has already passed the bound checks, so it will
        // be yielded: the buffered count is an honest lower bound.  The upper
        // bound is unknown until every stream is exhausted.
        let buffered = self.buffered();
        let live = self
            .streams
            .iter()
            .any(|s| matches!(s.state, StreamState::Pending { .. }));
        (buffered, if live { None } else { Some(buffered) })
    }
}

impl std::iter::FusedIterator for DbScan<'_> {}

impl KvRead for HyperionDb {
    fn get(&self, key: &[u8]) -> Option<u64> {
        self.get_recovering(key)
    }

    fn len(&self) -> usize {
        HyperionDb::len(self)
    }

    fn memory_footprint(&self) -> usize {
        self.footprint_bytes()
    }

    fn name(&self) -> &'static str {
        "hyperion-db"
    }
}

impl KvWrite for HyperionDb {
    fn put(&mut self, key: &[u8], value: u64) -> bool {
        self.put_recovering(key, value)
    }

    fn delete(&mut self, key: &[u8]) -> bool {
        self.delete_recovering(key)
    }
}

impl OrderedRead for HyperionDb {
    fn for_each_from(&self, start: &[u8], f: &mut dyn FnMut(&[u8], u64) -> bool) {
        for (key, value) in self.range(start..) {
            if !f(&key, value) {
                return;
            }
        }
    }

    fn iter_from(&self, start: &[u8]) -> Entries<'_> {
        Entries::from_lazy(self.range(start..))
    }

    fn range_iter(&self, start: &[u8], end: &[u8]) -> Entries<'_> {
        Entries::from_lazy(self.range(start..end))
    }

    /// Overrides the default with a bounded probe: each shard is asked for its
    /// first key `>= start` (one cursor step under the lock) instead of
    /// starting a chunked scan.  With an order-preserving partitioner, shards
    /// below `start`'s shard cannot hold in-bound keys and shard `i`'s keys
    /// all precede shard `i + 1`'s, so the probe starts at `shard_of(start)`
    /// and stops at the first shard that yields anything.
    fn seek_first(&self, start: &[u8]) -> Option<(Vec<u8>, u64)> {
        let probe = |i: usize| {
            self.read_shard_recovering(i, |map| {
                let mut cursor = map.cursor();
                cursor.seek(start);
                cursor.next()
            })
        };
        if self.partitioner.is_order_preserving() {
            let lo = self.shard_of(start);
            (lo..self.shards.len()).find_map(probe)
        } else {
            (0..self.shards.len()).filter_map(probe).min()
        }
    }

    /// Overrides the full forward walk with a bounded probe: each shard is
    /// asked for its greatest key (one reverse-cursor step under the lock).
    /// With an order-preserving partitioner, shard `i`'s keys all precede
    /// shard `i + 1`'s, so the probe walks the shards from the top down and
    /// stops at the first hit.
    fn last(&self) -> Option<(Vec<u8>, u64)> {
        let probe = |i: usize| self.read_shard_recovering(i, |map| map.last());
        if self.partitioner.is_order_preserving() {
            (0..self.shards.len()).rev().find_map(probe)
        } else {
            (0..self.shards.len()).filter_map(probe).max()
        }
    }

    /// Overrides the walk-to-bound default with a bounded probe, the mirror
    /// of [`OrderedRead::seek_first`]: each shard answers its own
    /// predecessor query under a brief lock, and order preservation prunes
    /// shards above the bound.
    fn pred(&self, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        let probe = |i: usize| self.read_shard_recovering(i, |map| map.pred(key));
        if self.partitioner.is_order_preserving() {
            let hi = self.shard_of(key);
            (0..=hi).rev().find_map(probe)
        } else {
            (0..self.shards.len()).filter_map(probe).max()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn sample_db(partitioner: impl Partitioner + 'static, shards: usize) -> HyperionDb {
        HyperionDb::builder()
            .shards(shards)
            .partitioner(partitioner)
            .build()
    }

    #[test]
    fn typed_point_operations() {
        let db = sample_db(FirstBytePartitioner, 8);
        assert_eq!(db.put(b"alpha", 1), Ok(PutOutcome::Inserted));
        assert_eq!(db.put(b"alpha", 2), Ok(PutOutcome::Updated));
        assert_eq!(db.get(b"alpha"), Ok(Some(2)));
        assert_eq!(db.delete(b"alpha"), Ok(true));
        assert_eq!(db.delete(b"alpha"), Ok(false));
        assert_eq!(db.get(b"alpha"), Ok(None));
    }

    #[test]
    fn over_long_keys_are_typed_errors() {
        let db = sample_db(FirstBytePartitioner, 4);
        let long = vec![7u8; MAX_KEY_LEN + 1];
        assert_eq!(
            db.put(&long, 1),
            Err(HyperionError::KeyTooLong {
                len: MAX_KEY_LEN + 1,
                max: MAX_KEY_LEN
            })
        );
        // Reads of impossible keys are absences, not errors.
        assert_eq!(db.get(&long), Ok(None));
        assert_eq!(db.delete(&long), Ok(false));
        // The trait/shim write path shares the contract: a store reachable
        // through both surfaces must agree on what can exist.  With no error
        // channel on the bool surface, violations are loud.
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| db.put_recovering(&long, 1)))
                .is_err();
        assert!(
            panicked,
            "bool write surface must reject over-long keys loudly"
        );
        assert_eq!(KvRead::get(&db, &long), None);
        assert_eq!(db.len(), 0);
        // The boundary length is accepted.
        let exact = vec![7u8; MAX_KEY_LEN];
        assert_eq!(db.put(&exact, 1), Ok(PutOutcome::Inserted));
        assert_eq!(db.get(&exact), Ok(Some(1)));
    }

    #[test]
    fn shard_poisoning_is_reported() {
        let db = Arc::new(sample_db(FirstBytePartitioner, 4));
        db.put(b"victim", 1).unwrap();
        let shard = db.shard_of(b"victim");
        // Poison the shard by panicking while holding its lock.
        let db2 = Arc::clone(&db);
        let _ = std::thread::spawn(move || {
            let _guard = db2.shards[shard].lock.lock().unwrap();
            panic!("poison the shard");
        })
        .join();
        assert_eq!(
            db.put(b"victim", 2),
            Err(HyperionError::ShardPoisoned { shard })
        );
        // Aggregates and scans recover.
        assert_eq!(db.len(), 1);
        assert_eq!(db.iter().count(), 1);
        assert_eq!(KvRead::get(&*db, b"victim"), Some(1));
    }

    #[test]
    fn panicking_writer_does_not_wedge_or_corrupt_readers() {
        let db = Arc::new(sample_db(FirstBytePartitioner, 4));
        db.put(b"victim", 1).unwrap();
        let shard = db.shard_of(b"victim");
        let before = db.stats().optimistic;
        // Die *inside a mutation span*, exactly like a writer panicking
        // mid-structural-change: the lock is poisoned AND the shard's seqlock
        // is parked odd, so optimistic reads cannot validate.
        let db2 = Arc::clone(&db);
        let _ = std::thread::spawn(move || {
            let guard = db2.lock_shard(shard).unwrap();
            let _span = guard.seq.mutation();
            panic!("writer dies mid-mutation");
        })
        .join();
        // The typed write path reports the poisoning...
        assert_eq!(
            db.put(b"victim", 2),
            Err(HyperionError::ShardPoisoned { shard })
        );
        // ...while a recovering reader clears the poison, re-evens the
        // seqlock and still returns the committed value (the dead writer's
        // span applied no changes).
        assert_eq!(KvRead::get(&*db, b"victim"), Some(1));
        let recovered = db.stats().optimistic;
        assert!(
            recovered.fallbacks > before.fallbacks,
            "a read against the parked seqlock must have taken the lock"
        );
        // The shard is fully revived: writes succeed again and subsequent
        // reads validate lock-free.
        assert_eq!(db.put(b"victim", 2), Ok(PutOutcome::Updated));
        assert_eq!(db.get(b"victim"), Ok(Some(2)));
        let after = db.stats().optimistic;
        assert!(
            after.hits > recovered.hits,
            "post-recovery reads must run lock-free again"
        );
    }

    /// Injected alloc failures surface as typed `AllocFailed` without
    /// poisoning, injected panics poison-and-recover via
    /// `recover_poisoned`, and the trie stays structurally valid throughout.
    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_faults_surface_typed_and_recover() {
        use crate::failpoint::{self, Action, Policy};
        let db = sample_db(FirstBytePartitioner, 2);
        for i in 0..512u64 {
            db.put(format!("warm{i:04}").as_bytes(), i).unwrap();
        }
        failpoint::set_seed(1);

        // Simulated OOM: typed error, shard stays usable, no poison.
        failpoint::arm("mem.alloc", Policy::new(Action::AllocFail).max_trips(1));
        let mut alloc_failed = 0;
        for i in 0..512u64 {
            match db.put(format!("oom{i:04}").as_bytes(), i) {
                Ok(_) => {}
                Err(HyperionError::AllocFailed { .. }) => alloc_failed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(alloc_failed, 1, "the armed trip must surface exactly once");
        assert_eq!(db.poison_recoveries(), 0, "AllocFail must not poison");
        failpoint::disarm("mem.alloc");

        // Simulated writer crash: the shard poisons, `recover_poisoned`
        // revives it, and the recovery is counted.
        failpoint::arm("write.splice", Policy::new(Action::Panic).max_trips(1));
        let mut poisoned = 0;
        for i in 0..2048u64 {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                db.put(format!("crash{i:05}").as_bytes(), i)
            })) {
                Ok(Ok(_)) | Ok(Err(HyperionError::ShardPoisoned { .. })) => {}
                Ok(Err(e)) => panic!("unexpected error: {e}"),
                Err(_) => poisoned += 1,
            }
        }
        assert_eq!(poisoned, 1, "the armed crash must fire exactly once");
        assert_eq!(db.recover_poisoned(), 1);
        assert_eq!(db.poison_recoveries(), 1);
        failpoint::disarm_all();

        // Fully usable and structurally valid afterwards.
        assert_eq!(db.put(b"after", 9), Ok(PutOutcome::Inserted));
        assert_eq!(db.get(b"after"), Ok(Some(9)));
        db.validate_structure().unwrap();
    }

    #[test]
    fn write_batch_groups_and_applies_in_order() {
        let db = sample_db(FibonacciPartitioner, 8);
        let mut batch = WriteBatch::with_capacity(5);
        batch
            .put(b"k1", 1)
            .put(b"k2", 2)
            .put(b"k1", 10) // same key again: batch order must win
            .delete(b"k2")
            .delete(b"nope");
        let summary = db.apply(&batch).unwrap();
        assert_eq!(summary.inserted, 2);
        assert_eq!(summary.updated, 1);
        assert_eq!(summary.deleted, 1);
        assert_eq!(summary.missing, 1);
        assert_eq!(summary.applied(), 5);
        assert_eq!(db.get(b"k1"), Ok(Some(10)));
        assert_eq!(db.get(b"k2"), Ok(None));
    }

    #[test]
    fn batch_partial_failure_reports_indices() {
        let db = sample_db(FirstBytePartitioner, 4);
        let long = vec![1u8; MAX_KEY_LEN + 1];
        let mut batch = WriteBatch::new();
        batch.put(b"good", 1).put(&long, 2).put(b"also-good", 3);
        let err = db.apply(&batch).unwrap_err();
        let HyperionError::BatchFailed(report) = &err else {
            panic!("expected BatchFailed, got {err:?}");
        };
        assert_eq!(report.summary.inserted, 2, "valid ops still applied");
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].0, 1, "op index of the bad key");
        assert!(matches!(
            report.failures[0].1,
            HyperionError::KeyTooLong { .. }
        ));
        assert_eq!(db.get(b"good"), Ok(Some(1)));
        assert_eq!(db.get(b"also-good"), Ok(Some(3)));
        // The error is displayable.
        assert!(err.to_string().contains("1 failed"));
    }

    #[test]
    fn multi_get_matches_single_gets() {
        for db in [
            sample_db(FirstBytePartitioner, 8),
            sample_db(FibonacciPartitioner, 8),
            sample_db(RangePartitioner, 8),
        ] {
            for i in 0..500u64 {
                db.put(format!("key{:04}", i * 7 % 1000).as_bytes(), i)
                    .unwrap();
            }
            let probes: Vec<Vec<u8>> = (0..40)
                .map(|i| format!("key{:04}", i * 25).into_bytes())
                .collect();
            let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
            let batch = db.multi_get(&refs).unwrap();
            for (key, got) in refs.iter().zip(&batch) {
                assert_eq!(
                    *got,
                    db.get(key).unwrap(),
                    "{}",
                    String::from_utf8_lossy(key)
                );
            }
        }
    }

    #[test]
    fn delete_many_matches_single_deletes() {
        for db in [
            sample_db(FirstBytePartitioner, 8),
            sample_db(FibonacciPartitioner, 8),
            sample_db(RangePartitioner, 8),
        ] {
            let mut oracle = BTreeMap::new();
            for i in 0..500u64 {
                let key = format!("key{:04}", i * 7 % 1000).into_bytes();
                db.put(&key, i).unwrap();
                oracle.insert(key, i);
            }
            // Hits, misses, duplicates and an over-long key in one call.
            let long = vec![9u8; MAX_KEY_LEN + 1];
            let mut probes: Vec<Vec<u8>> = (0..40)
                .map(|i| format!("key{:04}", i * 30).into_bytes())
                .collect();
            probes.push(probes[0].clone()); // duplicate: second must miss
            probes.push(long);
            let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
            let removed = db.delete_many(&refs).unwrap();
            for (i, key) in refs.iter().enumerate() {
                // The last probe is over-long (can never exist) and the one
                // before it duplicates probes[0] (already removed): both miss.
                let expected = if i >= refs.len() - 2 {
                    false
                } else {
                    oracle.remove(*key).is_some()
                };
                assert_eq!(removed[i], expected, "probe {i}");
                assert_eq!(db.get(key).unwrap(), None);
            }
            assert_eq!(db.len(), oracle.len());
        }
    }

    #[test]
    fn batch_delete_runs_match_sequential_semantics() {
        let db = sample_db(FibonacciPartitioner, 4);
        for i in 0..100u64 {
            db.put(format!("k{i:03}").as_bytes(), i).unwrap();
        }
        let mut batch = WriteBatch::new();
        // A long delete run (coalesced through delete_many), including a
        // duplicate key and a miss, then a put after the run.
        for i in 0..50u64 {
            batch.delete(format!("k{i:03}").as_bytes());
        }
        batch.delete(b"k000"); // duplicate: must count as missing
        batch.delete(b"absent");
        batch.put(b"k000", 777);
        let summary = db.apply(&batch).unwrap();
        assert_eq!(summary.deleted, 50);
        assert_eq!(summary.missing, 2);
        assert_eq!(summary.inserted, 1, "put after delete run re-inserts");
        assert_eq!(db.get(b"k000"), Ok(Some(777)));
        assert_eq!(db.len(), 51);
    }

    #[test]
    fn partitioners_cover_all_shards_and_respect_bounds() {
        for n in [1usize, 3, 8, 67, 256] {
            for p in [
                &FirstBytePartitioner as &dyn Partitioner,
                &FibonacciPartitioner,
                &RangePartitioner,
            ] {
                for i in 0..2000u64 {
                    let key = splitmix64(i).to_be_bytes();
                    let shard = p.shard_of(&key, n);
                    assert!(shard < n, "{} out of range for {n} shards", p.name());
                }
                assert!(p.shard_of(&[], n) < n, "{} empty key", p.name());
            }
        }
    }

    #[test]
    fn range_partitioner_is_monotone() {
        let p = RangePartitioner;
        for n in [2usize, 5, 16, 256] {
            let mut last = 0usize;
            for hi in 0..=255u8 {
                let shard = p.shard_of(&[hi, 0], n);
                assert!(shard >= last, "monotonicity violated at {hi:#x}/{n}");
                last = shard;
            }
            assert_eq!(p.shard_of(&[0xff, 0xff, 0xff], n), n - 1);
        }
    }

    #[test]
    fn fibonacci_fixes_hot_prefix_skew() {
        let shards = 16;
        let first = sample_db(FirstBytePartitioner, shards);
        let hashed = sample_db(FibonacciPartitioner, shards);
        for i in 0..4000u64 {
            // 100% hot prefix: every key starts with "user:".
            let key = format!("user:{i:06}");
            first.put(key.as_bytes(), i).unwrap();
            hashed.put(key.as_bytes(), i).unwrap();
        }
        let first_max = *first.shard_lens().iter().max().unwrap();
        assert_eq!(
            first_max, 4000,
            "first-byte routing serialises the hot prefix"
        );
        let hashed_lens = hashed.shard_lens();
        let hashed_max = *hashed_lens.iter().max().unwrap();
        let hashed_min = *hashed_lens.iter().min().unwrap();
        assert!(
            hashed_max < 4000 / shards * 2 && hashed_min > 0,
            "hash routing must spread the hot prefix, got {hashed_lens:?}"
        );
    }

    #[test]
    fn scans_match_reference_for_every_partitioner() {
        for p in [
            Box::new(FirstBytePartitioner) as Box<dyn Partitioner>,
            Box::new(FibonacciPartitioner),
            Box::new(RangePartitioner),
        ] {
            let name = p.name();
            let db = HyperionDb::builder()
                .shards(7)
                .partitioner_arc(Arc::from(p))
                .scan_chunk_size(16) // small chunks: force many hand-over-hand refills
                .build();
            let mut reference = BTreeMap::new();
            for i in 0..1500u64 {
                let key = format!("k{:05}", i * 37 % 3000).into_bytes();
                db.put(&key, i).unwrap();
                reference.insert(key, i);
            }
            let expected: Vec<_> = reference.iter().map(|(k, v)| (k.clone(), *v)).collect();
            let got: Vec<_> = db.iter().collect();
            assert_eq!(got, expected, "{name} full scan");

            let lo = b"k00500".to_vec();
            let hi = b"k02000".to_vec();
            let got: Vec<_> = db.range(&lo[..]..&hi[..]).collect();
            let expected_range: Vec<_> = reference
                .range(lo.clone()..hi.clone())
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, expected_range, "{name} bounded range");

            // Inclusive end and excluded start.
            use std::ops::Bound;
            let got: Vec<_> = db
                .range::<[u8], _>((Bound::Excluded(&lo[..]), Bound::Included(&hi[..])))
                .collect();
            let expected_ex: Vec<_> = reference
                .range::<Vec<u8>, _>((Bound::Excluded(&lo), Bound::Included(&hi)))
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, expected_ex, "{name} excluded/included bounds");

            let got: Vec<_> = db.prefix(b"k01").collect();
            let expected_prefix: Vec<_> = reference
                .iter()
                .filter(|(k, _)| k.starts_with(b"k01"))
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, expected_prefix, "{name} prefix");
        }
    }

    #[test]
    fn scan_memory_stays_bounded_by_chunks() {
        let db = HyperionDb::builder().shards(4).scan_chunk_size(8).build();
        for i in 0..5000u64 {
            db.put(format!("{i:08}").as_bytes(), i).unwrap();
        }
        let mut scan = db.iter();
        let mut n = 0usize;
        while scan.next().is_some() {
            n += 1;
            assert!(
                scan.buffered_entries() <= 4 * 8,
                "buffer exceeded shards×chunk"
            );
        }
        assert_eq!(n, 5000);
        assert!(scan.peak_buffered() <= 4 * 8);
    }

    #[test]
    fn scan_size_hint_is_honest_and_fused() {
        let db = HyperionDb::builder().shards(3).scan_chunk_size(4).build();
        for i in 0..100u64 {
            db.put(&i.to_be_bytes(), i).unwrap();
        }
        let mut scan = db.iter();
        let mut remaining = 100usize;
        loop {
            let (lo, hi) = scan.size_hint();
            assert!(
                lo <= remaining,
                "lower bound {lo} above true count {remaining}"
            );
            if let Some(hi) = hi {
                assert!(
                    hi >= remaining,
                    "upper bound {hi} below true count {remaining}"
                );
            }
            if scan.next().is_none() {
                break;
            }
            remaining -= 1;
        }
        assert_eq!(remaining, 0);
        // Fused: keeps returning None.
        assert_eq!(scan.next(), None);
        assert_eq!(scan.next(), None);
        assert_eq!(scan.size_hint(), (0, Some(0)));
    }

    #[test]
    fn seek_first_agrees_across_partitioners() {
        let dbs = [
            sample_db(FirstBytePartitioner, 16),
            sample_db(FibonacciPartitioner, 16),
            sample_db(RangePartitioner, 16),
        ];
        let mut reference = BTreeMap::new();
        for i in 0..400u64 {
            let key = (i * 163 % 1000).to_be_bytes();
            for db in &dbs {
                db.put(&key, i).unwrap();
            }
            reference.insert(key.to_vec(), i);
        }
        for probe in [0u64, 1, 499, 500, 999, 1000, u64::MAX] {
            let start = probe.to_be_bytes();
            let expected = reference
                .range(start.to_vec()..)
                .next()
                .map(|(k, v)| (k.clone(), *v));
            for db in &dbs {
                assert_eq!(
                    OrderedRead::seek_first(db, &start),
                    expected,
                    "{} seek_first({probe})",
                    db.partitioner().name()
                );
            }
        }
    }

    #[test]
    fn reverse_scans_match_reference_for_every_partitioner() {
        for p in [
            Box::new(FirstBytePartitioner) as Box<dyn Partitioner>,
            Box::new(FibonacciPartitioner),
            Box::new(RangePartitioner),
        ] {
            let name = p.name();
            let db = HyperionDb::builder()
                .shards(7)
                .partitioner_arc(Arc::from(p))
                .scan_chunk_size(16) // small chunks: force many hand-over-hand refills
                .build();
            let mut reference = BTreeMap::new();
            for i in 0..1500u64 {
                let key = format!("k{:05}", i * 37 % 3000).into_bytes();
                db.put(&key, i).unwrap();
                reference.insert(key, i);
            }
            let expected: Vec<_> = reference
                .iter()
                .rev()
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            let got: Vec<_> = db.iter_rev().collect();
            assert_eq!(got, expected, "{name} full reverse scan");

            let lo = b"k00500".to_vec();
            let hi = b"k02000".to_vec();
            let got: Vec<_> = db.range_rev(&lo[..]..&hi[..]).collect();
            let expected_range: Vec<_> = reference
                .range(lo.clone()..hi.clone())
                .rev()
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, expected_range, "{name} bounded reverse range");

            use std::ops::Bound;
            let got: Vec<_> = db
                .range_rev::<[u8], _>((Bound::Excluded(&lo[..]), Bound::Included(&hi[..])))
                .collect();
            let expected_ex: Vec<_> = reference
                .range::<Vec<u8>, _>((Bound::Excluded(&lo), Bound::Included(&hi)))
                .rev()
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, expected_ex, "{name} reverse excluded/included bounds");

            let got: Vec<_> = db.prefix_rev(b"k01").map(|(k, _)| k).collect();
            let mut expected_prefix: Vec<_> = reference
                .keys()
                .filter(|k| k.starts_with(b"k01"))
                .cloned()
                .collect();
            expected_prefix.reverse();
            assert_eq!(got, expected_prefix, "{name} reverse prefix");
        }
    }

    #[test]
    fn reverse_scan_memory_stays_bounded_by_chunks() {
        let db = HyperionDb::builder().shards(4).scan_chunk_size(8).build();
        for i in 0..5000u64 {
            db.put(format!("{i:08}").as_bytes(), i).unwrap();
        }
        let mut scan = db.iter_rev();
        assert!(scan.is_reverse());
        let mut n = 0usize;
        let mut last: Option<Vec<u8>> = None;
        while let Some((key, _)) = scan.next() {
            n += 1;
            if let Some(prev) = &last {
                assert!(key < *prev, "reverse scan not descending");
            }
            last = Some(key);
            assert!(
                scan.buffered_entries() <= 4 * 8,
                "buffer exceeded shards×chunk"
            );
        }
        assert_eq!(n, 5000);
        assert!(scan.peak_buffered() <= 4 * 8);
    }

    #[test]
    fn last_and_pred_agree_across_partitioners() {
        let dbs = [
            sample_db(FirstBytePartitioner, 16),
            sample_db(FibonacciPartitioner, 16),
            sample_db(RangePartitioner, 16),
        ];
        let mut reference = BTreeMap::new();
        for i in 0..400u64 {
            let key = (i * 163 % 1000).to_be_bytes();
            for db in &dbs {
                db.put(&key, i).unwrap();
            }
            reference.insert(key.to_vec(), i);
        }
        let expected_last = reference.iter().next_back().map(|(k, v)| (k.clone(), *v));
        for probe in [0u64, 1, 499, 500, 999, 1000, u64::MAX] {
            let key = probe.to_be_bytes();
            let expected = reference
                .range(..key.to_vec())
                .next_back()
                .map(|(k, v)| (k.clone(), *v));
            for db in &dbs {
                assert_eq!(
                    OrderedRead::last(db),
                    expected_last,
                    "{} last",
                    db.partitioner().name()
                );
                assert_eq!(
                    OrderedRead::pred(db, &key),
                    expected,
                    "{} pred({probe})",
                    db.partitioner().name()
                );
            }
        }
        let empty = sample_db(RangePartitioner, 4);
        assert_eq!(OrderedRead::last(&empty), None);
        assert_eq!(OrderedRead::pred(&empty, b"x"), None);
    }

    #[test]
    fn empty_db_and_empty_key() {
        let db = sample_db(RangePartitioner, 5);
        assert!(db.is_empty());
        assert_eq!(db.iter().next(), None);
        db.put(b"", 42).unwrap();
        assert_eq!(db.get(b""), Ok(Some(42)));
        assert_eq!(db.iter().next(), Some((Vec::new(), 42)));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn ordered_read_trait_surface() {
        let db = sample_db(FibonacciPartitioner, 6);
        for i in 0..300u64 {
            db.put(&(i * 3).to_be_bytes(), i).unwrap();
        }
        let start = 150u64.to_be_bytes();
        let end = 600u64.to_be_bytes();
        assert_eq!(db.range_count(&start, &end), 150);
        assert_eq!(
            OrderedRead::seek_first(&db, &start),
            Some((150u64.to_be_bytes().to_vec(), 50))
        );
        let got: Vec<_> = db.iter_from(&start).take(3).map(|(_, v)| v).collect();
        assert_eq!(got, vec![50, 51, 52]);
    }

    #[test]
    fn stats_tree_aggregates_every_surface() {
        let db = HyperionDb::builder()
            .shards(4)
            .shortcut_capacity(1 << 8)
            .build();
        for i in 0..2_000u64 {
            db.put(&i.to_be_bytes(), i).unwrap();
        }
        for i in 0..2_000u64 {
            assert_eq!(db.get(&i.to_be_bytes()).unwrap(), Some(i));
        }
        let s = db.stats();
        assert_eq!(s.version, DB_STATS_VERSION);
        // The read loop ran unopposed, so every get validated lock-free.
        assert!(s.optimistic.hits >= 2_000, "hits: {:?}", s.optimistic);
        // Point descents probed the shortcut table on every locked access.
        assert!(
            s.shortcut.hits + s.shortcut.misses > 0,
            "shortcut: {:?}",
            s.shortcut
        );
        assert_eq!(s.poison_recoveries, 0);
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(
            HyperionDb::new(0, HyperionConfig::default()).shard_count(),
            1
        );
        assert_eq!(
            HyperionDb::new(10_000, HyperionConfig::default()).shard_count(),
            MAX_SHARDS
        );
    }
}
