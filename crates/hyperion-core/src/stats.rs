//! Structural statistics of a Hyperion trie.
//!
//! The paper's Section 4.3 attributes Hyperion's memory efficiency to delta
//! encoding, embedded containers and path compression and quantifies each.
//! [`TrieAnalysis`] gathers the same numbers for an arbitrary trie instance so
//! that EXPERIMENTS.md can report them alongside the paper's values.

/// Running counters updated by mutating operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrieCounters {
    /// Embedded containers ejected into standalone containers.
    pub ejections: u64,
    /// Vertical container splits performed.
    pub splits: u64,
    /// Split attempts aborted (skewed key range or too-small halves).
    pub split_aborts: u64,
    /// Container jump table rebuilds.
    pub cjt_rebuilds: u64,
}

/// Counter snapshot of the hashed shortcut layer ([`crate::shortcut`]).
///
/// `hits / (hits + misses)` is the fraction of point descents that skipped
/// the upper trie levels; `entries / slots` the table occupancy.  A
/// disabled shortcut reports all zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShortcutStats {
    /// Probes answered from the table (descent skipped upper levels).
    pub hits: u64,
    /// Probes that fell back to a full root descent.
    pub misses: u64,
    /// Entries killed by structural events (frees, moves, whole-map
    /// clears).
    pub invalidations: u64,
    /// Live entries currently in the table.
    pub entries: u64,
    /// Slots allocated (the table grows lazily toward its capacity).
    pub slots: u64,
}

impl ShortcutStats {
    /// Fraction of probes answered from the table, 0.0 when never probed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Element-wise sum, for aggregating per-shard tables.
    pub fn merge(&mut self, other: &ShortcutStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.entries += other.entries;
        self.slots += other.slots;
    }
}

/// Live counters of the optimistic (seqlock-validated) read path of
/// [`crate::HyperionDb`], updated with `Relaxed` atomics so hot read paths
/// pay one uncontended increment, never a lock.
#[derive(Debug, Default)]
pub struct ReadCounters {
    hits: std::sync::atomic::AtomicU64,
    retries: std::sync::atomic::AtomicU64,
    fallbacks: std::sync::atomic::AtomicU64,
}

impl ReadCounters {
    /// Records an optimistic attempt that validated cleanly.
    #[inline]
    pub fn hit(&self) {
        self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records an optimistic attempt discarded because the shard's version
    /// moved (or was mid-mutation when the attempt started).
    #[inline]
    pub fn retry(&self) {
        self.retries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records a read that exhausted its optimistic attempts and took the
    /// shard mutex.
    #[inline]
    pub fn fallback(&self) {
        self.fallbacks
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Consistent-enough snapshot for diagnostics (individually `Relaxed`
    /// loads; the counters are monotone).
    pub fn snapshot(&self) -> OptimisticReadStats {
        OptimisticReadStats {
            hits: self.hits.load(std::sync::atomic::Ordering::Relaxed),
            retries: self.retries.load(std::sync::atomic::Ordering::Relaxed),
            fallbacks: self.fallbacks.load(std::sync::atomic::Ordering::Relaxed),
        }
    }
}

/// Counter snapshot of the optimistic read path (see [`ReadCounters`]).
///
/// `hits / (hits + fallbacks)` is the fraction of reads served without ever
/// touching a shard mutex; `retries` counts discarded attempts (each retried
/// in place before falling back).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptimisticReadStats {
    /// Reads served lock-free (final attempt validated).
    pub hits: u64,
    /// Attempts discarded because a writer was active or the version moved.
    pub retries: u64,
    /// Reads that exhausted their attempts and took the shard mutex.
    pub fallbacks: u64,
}

impl OptimisticReadStats {
    /// Fraction of reads served without locking, 0.0 when never read.
    pub fn lock_free_rate(&self) -> f64 {
        let total = self.hits + self.fallbacks;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Layout version of the [`DbStats`] tree; bumped whenever fields are added
/// or removed so wire consumers (the server STATS verb) can tell encodings
/// apart.
pub const DB_STATS_VERSION: u64 = 2;

/// The unified statistics tree of a [`crate::HyperionDb`], returned by
/// [`crate::HyperionDb::stats`].
///
/// Consolidates what used to be three separate surfaces — the per-shard
/// shortcut counters ([`ShortcutStats`]), the optimistic read counters
/// ([`OptimisticReadStats`]) and the ad-hoc fields the server's STATS verb
/// merged on its own (poison recoveries, failpoint trips) — into one
/// versioned snapshot taken at a single call site and encoded once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Layout version ([`DB_STATS_VERSION`]).
    pub version: u64,
    /// Hashed shortcut layer counters, merged across shards.
    pub shortcut: ShortcutStats,
    /// Optimistic (seqlock-validated) read path counters.
    pub optimistic: OptimisticReadStats,
    /// Structural mutation counters, merged across shards.
    pub counters: TrieCounters,
    /// Shards recovered after a writer panicked mid-mutation.
    pub poison_recoveries: u64,
    /// Failpoint activations so far (0 unless the `failpoints` feature is
    /// enabled and sites are armed).
    pub failpoint_trips: u64,
}

impl TrieCounters {
    /// Element-wise sum, for aggregating per-shard tries.
    pub fn merge(&mut self, other: &TrieCounters) {
        self.ejections += other.ejections;
        self.splits += other.splits;
        self.split_aborts += other.split_aborts;
        self.cjt_rebuilds += other.cjt_rebuilds;
    }
}

/// Result of a full structural walk ([`crate::HyperionMap::analyze`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrieAnalysis {
    /// Real (standalone or chain-slot) containers.
    pub containers: u64,
    /// Chained extended-bin groups created by container splits.
    pub chained_groups: u64,
    /// Embedded containers currently nested inside parents.
    pub embedded_containers: u64,
    /// T-nodes (first 8 bits of a 16-bit partial key).
    pub t_nodes: u64,
    /// S-nodes (second 8 bits of a 16-bit partial key).
    pub s_nodes: u64,
    /// Nodes whose key character is delta-encoded (no explicit key byte).
    pub delta_encoded_nodes: u64,
    /// Path-compressed nodes.
    pub pc_nodes: u64,
    /// Total suffix bytes stored in path-compressed nodes.
    pub pc_suffix_bytes: u64,
    /// Values stored (should equal the number of non-empty keys).
    pub values: u64,
    /// Jump-successor offsets present.
    pub jump_successors: u64,
    /// T-node jump tables present.
    pub tnode_jump_tables: u64,
    /// Bytes used inside containers (header `size` fields summed).
    pub container_used_bytes: u64,
    /// Bytes allocated for containers (chunk capacities summed).
    pub container_capacity_bytes: u64,
    /// Embedded containers ejected so far (copied from the counters).
    pub ejections: u64,
    /// Container splits performed so far (copied from the counters).
    pub splits: u64,
}

impl TrieAnalysis {
    /// Bytes saved by delta encoding (one key byte per delta-encoded node).
    pub fn delta_encoding_savings(&self) -> u64 {
        self.delta_encoded_nodes
    }

    /// Internal fragmentation inside containers (allocated minus used).
    pub fn internal_fragmentation(&self) -> u64 {
        self.container_capacity_bytes
            .saturating_sub(self.container_used_bytes)
    }

    /// Total number of internal trie nodes.
    pub fn nodes(&self) -> u64 {
        self.t_nodes + self.s_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let a = TrieAnalysis {
            t_nodes: 10,
            s_nodes: 20,
            delta_encoded_nodes: 12,
            container_used_bytes: 100,
            container_capacity_bytes: 128,
            ..Default::default()
        };
        assert_eq!(a.nodes(), 30);
        assert_eq!(a.delta_encoding_savings(), 12);
        assert_eq!(a.internal_fragmentation(), 28);
    }

    #[test]
    fn shortcut_hit_rate_and_merge() {
        assert_eq!(ShortcutStats::default().hit_rate(), 0.0);
        let mut a = ShortcutStats {
            hits: 3,
            misses: 1,
            invalidations: 2,
            entries: 5,
            slots: 8,
        };
        assert_eq!(a.hit_rate(), 0.75);
        a.merge(&ShortcutStats {
            hits: 1,
            misses: 3,
            invalidations: 0,
            entries: 1,
            slots: 8,
        });
        assert_eq!(a.hits + a.misses, 8);
        assert_eq!(a.hit_rate(), 0.5);
        assert_eq!(a.slots, 16);
    }
}
