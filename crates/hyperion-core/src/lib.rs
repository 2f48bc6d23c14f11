//! # hyperion-core
//!
//! A from-scratch Rust implementation of **Hyperion**, the trie-based
//! main-memory key-value store presented in *Hyperion: Building the largest
//! in-memory search tree* (SIGMOD 2019).
//!
//! Hyperion is an `m`-ary trie with `m = 65,536`: each container encodes a
//! 16-bit partial key, split into two 8-bit levels of T-nodes and S-nodes that
//! are stored as an exact-fit, linearly scanned byte stream.  Memory
//! efficiency comes from:
//!
//! * an exact-fit container layout that grows in 32-byte increments,
//! * delta encoding of sibling key characters,
//! * recursively embedded child containers,
//! * path compression of unique key suffixes,
//! * a custom memory manager handing out 5-byte Hyperion Pointers
//!   (the [`hyperion_mem`] crate),
//! * optional key pre-processing for uniformly distributed keys.
//!
//! Performance features (jump successors, per-node jump tables, container
//! jump tables and vertical container splits) keep the linear scans short.
//!
//! ## Cursors and lazy iterators
//!
//! Ordered traversal is cursor-first: [`HyperionMap::iter`],
//! [`HyperionMap::range`] and [`HyperionMap::prefix`] return *lazy* iterators
//! that walk the container byte stream incrementally (module [`iter`]), and
//! [`HyperionMap::cursor`] exposes the underlying seekable [`Cursor`]:
//!
//! ```
//! use hyperion_core::HyperionMap;
//!
//! let mut index = HyperionMap::new();
//! index.put(b"that", 1);
//! index.put(b"the", 2);
//! index.put(b"to", 3);
//! assert_eq!(index.get(b"the"), Some(2));
//!
//! // Lazy, ordered iteration — no intermediate Vec is materialised.
//! let th_keys: Vec<_> = index.prefix(b"th").map(|(key, _)| key).collect();
//! assert_eq!(th_keys, vec![b"that".to_vec(), b"the".to_vec()]);
//!
//! // Range queries use standard range syntax.
//! assert_eq!(index.range(&b"the"[..]..).count(), 2);
//!
//! // Seek-and-step with an explicit cursor.
//! let mut cur = index.cursor();
//! cur.seek(b"th");
//! assert_eq!(cur.next(), Some((b"that".to_vec(), 1)));
//! ```
//!
//! ## Sharded front end
//!
//! The concurrency layer is the [`db`] module: [`HyperionDb`] shards the key
//! space over up to 256 per-lock tries (the paper's arenas, Section 3.2)
//! behind a database-style API — a pluggable [`Partitioner`], batched
//! operations ([`WriteBatch`], [`HyperionDb::multi_get`]), a typed
//! [`HyperionError`]/[`PutOutcome`] surface, and streaming merged scans
//! ([`DbScan`]) whose memory is bounded by `shards × chunk` regardless of
//! database size.
//!
//! ## Trait hierarchy
//!
//! The capabilities of an index structure are split into composable traits
//! (implemented by Hyperion and by every baseline in `hyperion-baselines`):
//!
//! * [`KvRead`] — point reads: `get` / `contains` / `len` /
//!   `memory_footprint`,
//! * [`KvWrite`] — mutations: `put` / `delete`,
//! * [`OrderedRead`] — ordered traversal: `for_each_from`, `iter_from`,
//!   `range_iter`, `prefix_iter`, plus the backward queries `last` and
//!   `pred` (requires [`KvRead`]),
//! * [`KvStore`] / [`OrderedKvStore`] — auto-implemented combinations for
//!   trait objects (`Box<dyn OrderedKvStore>`).

pub mod builder;
pub mod config;
pub mod container;
pub mod db;
#[cfg(feature = "failpoints")]
pub mod failpoint;
pub mod iter;
pub mod keys;
pub mod node;
pub mod read;
pub mod scan;
pub(crate) mod seqlock;
pub mod shortcut;
pub mod stats;
pub mod trie;
pub mod write;

pub use config::HyperionConfig;
pub use db::{
    BatchReport, BatchSummary, DbScan, FibonacciPartitioner, FirstBytePartitioner, HyperionDb,
    HyperionDbBuilder, HyperionError, Partitioner, PrefixHashPartitioner, PutOutcome,
    RangePartitioner, WriteBatch,
};
pub use iter::{Cursor, Entries, Iter, Prefix, Range};
pub use shortcut::Shortcut;
pub use stats::{DbStats, OptimisticReadStats, ShortcutStats, TrieAnalysis, TrieCounters};
pub use trie::HyperionMap;
pub use write::WriteError;

/// Point-read capabilities shared by every index structure in the workspace.
///
/// This is the read half of the old monolithic `KeyValueStore` trait; ordered
/// traversal lives in [`OrderedRead`] so unordered structures (hash tables)
/// only implement what they can honour.
pub trait KvRead {
    /// Returns the value stored for `key`, if any.
    fn get(&self, key: &[u8]) -> Option<u64>;

    /// `true` if `key` is present.
    fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Number of keys stored.
    fn len(&self) -> usize;

    /// `true` if the store holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical memory footprint in bytes (data structure + payload).
    fn memory_footprint(&self) -> usize;

    /// Short identifier used in benchmark tables.
    fn name(&self) -> &'static str;
}

/// Write capabilities of an index structure.
pub trait KvWrite {
    /// Inserts or updates `key`; returns `true` if the key was not present.
    fn put(&mut self, key: &[u8], value: u64) -> bool;

    /// Removes `key`; returns `true` if it was present.
    fn delete(&mut self, key: &[u8]) -> bool;
}

/// Ordered traversal over an index structure.
///
/// Implementors must provide [`OrderedRead::for_each_from`]; everything else
/// has a default implementation.  Structures with a native incremental cursor
/// (Hyperion) override [`OrderedRead::iter_from`] and
/// [`OrderedRead::range_iter`] to return lazy iterators; the defaults
/// materialise only the requested slice of the key space via the callback
/// walk (a bounded range never copies the tail beyond its end bound).
///
/// All keys and bounds are in the structure's *original* (external) key
/// space.  One caveat for implementations that transform keys internally:
/// `HyperionMap` with [`HyperionConfig::with_preprocessing`] relies on the
/// paper's zero-bit-injection transform, which is order-preserving only
/// among keys of uniform width (>= 4 bytes); mixing key widths under
/// pre-processing yields unspecified iteration order, so that configuration
/// requires fixed-width keys (e.g. 8-byte encoded integers).
pub trait OrderedRead: KvRead {
    /// Invokes `f(key, value)` for every key `>= start` in ascending order
    /// until `f` returns `false`.
    fn for_each_from(&self, start: &[u8], f: &mut dyn FnMut(&[u8], u64) -> bool);

    /// Returns an ordered iterator over all keys `>= start`.
    fn iter_from(&self, start: &[u8]) -> Entries<'_> {
        let mut out = Vec::new();
        self.for_each_from(start, &mut |k, v| {
            out.push((k.to_vec(), v));
            true
        });
        Entries::from_sorted_vec(out)
    }

    /// Returns an ordered iterator over the half-open key range
    /// `[start, end)`.  The default stops the underlying walk at the end
    /// bound instead of materialising the whole tail.
    fn range_iter(&self, start: &[u8], end: &[u8]) -> Entries<'_> {
        let mut out = Vec::new();
        self.for_each_from(start, &mut |k, v| {
            if k >= end {
                return false;
            }
            out.push((k.to_vec(), v));
            true
        });
        Entries::from_sorted_vec(out)
    }

    /// Returns an ordered iterator over all keys starting with `prefix`.
    fn prefix_iter(&self, prefix: &[u8]) -> Entries<'_> {
        match iter::prefix_upper_bound(prefix) {
            Some(end) => self.range_iter(prefix, &end),
            None => self.iter_from(prefix),
        }
    }

    /// Counts the keys in `[start, end)`.
    fn range_count(&self, start: &[u8], end: &[u8]) -> usize {
        self.range_iter(start, end).count()
    }

    /// Returns the smallest key `>= start` with its value.  The default
    /// stops the underlying walk after the first hit.
    fn seek_first(&self, start: &[u8]) -> Option<(Vec<u8>, u64)> {
        let mut first = None;
        self.for_each_from(start, &mut |k, v| {
            first = Some((k.to_vec(), v));
            false
        });
        first
    }

    /// Returns the greatest stored key with its value, or `None` when the
    /// store is empty.  The default walks the whole key space forward;
    /// structures with a backward walk (Hyperion's reverse cursor, the
    /// baselines' right-spine descents) override it with an `O(depth)`
    /// implementation.
    fn last(&self) -> Option<(Vec<u8>, u64)> {
        let mut last = None;
        self.for_each_from(&[], &mut |k, v| {
            last = Some((k.to_vec(), v));
            true
        });
        last
    }

    /// Returns the greatest key *strictly less than* `key` with its value —
    /// the predecessor query, the mirror of [`OrderedRead::seek_first`].
    /// The default walks forward up to `key` and keeps the last in-bound
    /// pair; backward-capable structures override it.
    fn pred(&self, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        let mut pred = None;
        self.for_each_from(&[], &mut |k, v| {
            if k >= key {
                return false;
            }
            pred = Some((k.to_vec(), v));
            true
        });
        pred
    }
}

/// A full read/write key-value store (`KvRead + KvWrite`), auto-implemented.
/// Exists so benchmark harnesses can hold `Box<dyn KvStore>`.
pub trait KvStore: KvRead + KvWrite {}
impl<T: KvRead + KvWrite + ?Sized> KvStore for T {}

/// A full *ordered* read/write key-value store (`OrderedRead + KvWrite`),
/// auto-implemented.  Hash tables implement [`KvStore`] but not this.
pub trait OrderedKvStore: OrderedRead + KvWrite {}
impl<T: OrderedRead + KvWrite + ?Sized> OrderedKvStore for T {}
