//! # hyperion
//!
//! Facade crate for the Hyperion reproduction.  It re-exports the Hyperion
//! trie ([`hyperion_core`]), its custom memory manager ([`hyperion_mem`]),
//! the baseline index structures used in the paper's evaluation
//! ([`hyperion_baselines`]) and the workload generators
//! ([`hyperion_workloads`]).
//!
//! The public API is cursor/iterator-first: ordered reads return lazy
//! iterators that walk the container byte stream incrementally, and the
//! capability traits ([`KvRead`], [`KvWrite`], [`OrderedRead`]) are split so
//! that every structure only promises what it can honour.
//!
//! ```
//! use hyperion::HyperionMap;
//!
//! let mut map = HyperionMap::new();
//! map.put(b"hello", 1);
//! map.put(b"help", 2);
//! map.put(b"hermit", 3);
//! assert_eq!(map.get(b"hello"), Some(1));
//!
//! // Lazy prefix and range iteration (no intermediate Vec):
//! let hel: Vec<_> = map.prefix(b"hel").map(|(key, _)| key).collect();
//! assert_eq!(hel, vec![b"hello".to_vec(), b"help".to_vec()]);
//! assert_eq!(map.range(&b"hel"[..]..&b"hem"[..]).count(), 2);
//!
//! // Seekable cursor over the container byte stream:
//! let mut cur = map.cursor();
//! cur.seek(b"help");
//! assert_eq!(cur.next(), Some((b"help".to_vec(), 2)));
//!
//! // The map composes with std iterator traits:
//! let copy: HyperionMap = map.iter().collect();
//! assert_eq!(copy.len(), 3);
//! ```
//!
//! ## The sharded front end
//!
//! Multi-threaded workloads go through [`HyperionDb`], the database-style
//! layer over the paper's arena sharding (Section 3.2): a builder-configured
//! store with pluggable key partitioning, batched writes and lookups, typed
//! errors and streaming merged scans whose memory stays bounded at
//! `shards × chunk` entries no matter how large the database grows.
//!
//! ```
//! use hyperion::{FibonacciPartitioner, HyperionDb, WriteBatch};
//!
//! let db = HyperionDb::builder()
//!     .shards(8)
//!     .partitioner(FibonacciPartitioner) // spreads hot prefixes
//!     .build();
//!
//! let mut batch = WriteBatch::new();
//! batch.put(b"user:1:name", 100).put(b"user:1:score", 42);
//! db.apply(&batch).unwrap();
//!
//! assert_eq!(db.multi_get(&[b"user:1:score"]).unwrap(), vec![Some(42)]);
//! assert_eq!(db.prefix(b"user:1:").count(), 2);
//! ```
//!
//! ## The network front end
//!
//! [`server`] puts a [`HyperionDb`] behind a TCP socket: a
//! pipelined length-prefixed binary protocol served by a nonblocking
//! readiness loop and shard-affine workers that coalesce concurrent
//! in-flight requests into `multi_get` / `WriteBatch` / `delete_many`
//! groups.  [`Server`] starts it, and [`Client`] talks to it (synchronously
//! or pipelined).

pub use hyperion_baselines as baselines;
pub use hyperion_core as core;
pub use hyperion_mem as mem;
pub use hyperion_server as server;
pub use hyperion_workloads as workloads;

pub use hyperion_core::{
    BatchReport, BatchSummary, Cursor, DbScan, DbStats, Entries, FibonacciPartitioner,
    FirstBytePartitioner, HyperionConfig, HyperionDb, HyperionDbBuilder, HyperionError,
    HyperionMap, Iter, KvRead, KvStore, KvWrite, OrderedKvStore, OrderedRead, Partitioner, Prefix,
    PutOutcome, Range, RangePartitioner, WriteBatch, WriteError,
};
pub use hyperion_mem::MemoryManager;
pub use hyperion_server::{Client, Server, ServerConfig, ServerHandle};
