//! Per-layer probes shared by the traced runs: the bare-trie mirror of a db,
//! the standalone `MemoryManager` replay, and the counters read from the
//! public stats surfaces.  Everything here measures from outside.

use crate::gen::permutation;
use crate::harness::Outcome;
use hyperion_core::{HyperionConfig, HyperionDb, HyperionMap};
use hyperion_mem::MemoryManager;
use std::hint::black_box;
use std::time::Instant;

/// Shards of every db the benchmark builds.
pub const SHARDS: usize = 8;

/// Eight bare `HyperionMap`s holding exactly what the db's shards hold
/// (routed with `db.shard_of`): the `trie` / `iter` layer without the db's
/// locking, routing and error handling around it.
pub struct Mirror {
    pub maps: Vec<HyperionMap>,
    /// Keys written to the maps so far (loads and replayed puts).
    pub puts: u64,
    put_many_ns: u64,
    put_many_keys: u64,
}

impl Mirror {
    pub fn new(config: HyperionConfig) -> Mirror {
        Mirror {
            maps: (0..SHARDS)
                .map(|_| HyperionMap::with_config(config))
                .collect(),
            puts: 0,
            put_many_ns: 0,
            put_many_keys: 0,
        }
    }

    /// Mirrors one load batch: the pairs go to their shards' maps through
    /// `put_many`, as `WriteBatch` application does inside the db.
    pub fn load_batch(&mut self, db: &HyperionDb, pairs: &[(&[u8], u64)]) {
        let mut groups: Vec<Vec<(&[u8], u64)>> = vec![Vec::new(); SHARDS];
        for &(key, value) in pairs {
            groups[db.shard_of(key)].push((key, value));
        }
        for (map, group) in self.maps.iter_mut().zip(&groups) {
            if group.is_empty() {
                continue;
            }
            let t = Instant::now();
            map.put_many(group.iter().copied());
            self.put_many_ns += t.elapsed().as_nanos() as u64;
            self.put_many_keys += group.len() as u64;
        }
        self.puts += pairs.len() as u64;
    }

    /// `(allocations, frees)` served so far by the maps' memory managers.
    pub fn alloc_counts(&self) -> (u64, u64) {
        self.maps.iter().fold((0, 0), |(a, f), m| {
            let s = m.memory_manager().stats();
            (a + s.total_allocations, f + s.total_frees)
        })
    }

    /// Structure, allocator-shape and load metrics read off the mirror.
    pub fn report(&self, out: &mut Outcome) {
        if self.put_many_keys > 0 {
            out.set(
                "trie.put_many_ns_per_key",
                self.put_many_ns as f64 / self.put_many_keys as f64,
            );
        }
        let (mut splits, mut ejections, mut rebuilds) = (0u64, 0u64, 0u64);
        let (mut containers, mut embedded, mut used, mut capacity) = (0u64, 0u64, 0u64, 0u64);
        let (mut nodes, mut delta, mut pc, mut values) = (0u64, 0u64, 0u64, 0u64);
        let (mut segments, mut empty, mut total, mut heap_cap, mut heap_over) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for map in &self.maps {
            let c = map.counters();
            splits += c.splits;
            ejections += c.ejections;
            rebuilds += c.cjt_rebuilds;
            let a = map.analyze();
            containers += a.containers;
            embedded += a.embedded_containers;
            used += a.container_used_bytes;
            capacity += a.container_capacity_bytes;
            nodes += a.nodes();
            delta += a.delta_encoded_nodes;
            pc += a.pc_nodes;
            values += a.values;
            let m = map.memory_manager().stats();
            segments += m.materialised_segments;
            empty += m.empty_bytes();
            total += m.total_bytes();
            heap_cap += m.heap_capacity_bytes;
            heap_over += m.over_allocation_bytes();
        }
        let share = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        let kputs = self.puts as f64 / 1000.0;
        if kputs > 0.0 {
            out.set("trie.splits_per_kput", splits as f64 / kputs);
            out.set("trie.ejections_per_kput", ejections as f64 / kputs);
            out.set("trie.cjt_rebuilds_per_kput", rebuilds as f64 / kputs);
        }
        out.set("trie.containers_per_kkey", share(containers * 1000, values));
        out.set("trie.container_fill", share(used, capacity));
        out.set(
            "trie.embedded_share",
            share(embedded, embedded + containers),
        );
        out.set("trie.delta_share", share(delta, nodes));
        out.set("trie.pc_share", share(pc, values));
        out.set("mem.segments", segments as f64);
        out.set("mem.empty_share", share(empty, total));
        out.set("mem.heap_overalloc_share", share(heap_over, heap_cap));
    }

    /// Times the allocator alone: a standalone `MemoryManager` is fed the
    /// size-class histogram the mirror's managers ended up with (scaled to
    /// at most `MAX_REPLAY` live allocations), then every allocation is
    /// resolved in shuffled order, grown by the write path's growth step, and
    /// freed.
    pub fn mem_replay(&self, seed: u64, out: &mut Outcome) {
        const MAX_REPLAY: u64 = 200_000;
        // (request size, live chunks) per size class, summed over the maps.
        let mut classes: Vec<(usize, u64)> = Vec::new();
        for map in &self.maps {
            let stats = map.memory_manager().stats();
            let extended_avg = stats
                .superbins
                .first()
                .filter(|sb| sb.allocated_chunks > 0)
                .map_or(0, |sb| {
                    (stats.heap_requested_bytes / sb.allocated_chunks) as usize
                });
            for sb in &stats.superbins {
                if sb.allocated_chunks == 0 {
                    continue;
                }
                let size = if sb.superbin == 0 {
                    extended_avg.max(2048)
                } else {
                    sb.chunk_size
                };
                match classes.iter_mut().find(|(s, _)| *s == size) {
                    Some(slot) => slot.1 += sb.allocated_chunks,
                    None => classes.push((size, sb.allocated_chunks)),
                }
            }
        }
        classes.sort_unstable();
        let live: u64 = classes.iter().map(|c| c.1).sum();
        if live == 0 {
            return;
        }
        let scale = (MAX_REPLAY as f64 / live as f64).min(1.0);
        let mut sizes: Vec<usize> = Vec::new();
        for &(size, count) in &classes {
            let n = ((count as f64 * scale).round() as usize).max(1);
            sizes.extend(std::iter::repeat(size).take(n));
        }
        // Interleave the classes the way a growing trie does, not class by class.
        let order = permutation(sizes.len(), seed);
        let sizes: Vec<usize> = order.iter().map(|&i| sizes[i as usize]).collect();
        let n = sizes.len() as f64;

        let mut mm = MemoryManager::new();
        let t = Instant::now();
        let mut hps: Vec<_> = sizes.iter().map(|&s| mm.allocate(black_box(s)).0).collect();
        out.set("mem.alloc_ns", t.elapsed().as_nanos() as f64 / n);

        let t = Instant::now();
        for &i in &order {
            black_box(mm.resolve(black_box(hps[i as usize])));
        }
        out.set("mem.resolve_ns", t.elapsed().as_nanos() as f64 / n);

        let t = Instant::now();
        for (hp, &size) in hps.iter_mut().zip(&sizes) {
            *hp = mm
                .reallocate(*hp, hyperion_mem::growth_rounded_size(size + 32))
                .0;
        }
        out.set("mem.realloc_ns", t.elapsed().as_nanos() as f64 / n);

        let t = Instant::now();
        for &i in &order {
            mm.free(hps[i as usize]);
        }
        out.set("mem.free_ns", t.elapsed().as_nanos() as f64 / n);
    }
}

/// Counters the db itself exposes: shortcut behaviour and shard balance.
/// `puts` is the number of keys written to the db so far.
pub fn db_counters(db: &HyperionDb, puts: u64, out: &mut Outcome) {
    shortcut_metrics(db, puts, out);
    let lens = db.shard_lens();
    let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
    if mean > 0.0 {
        out.set(
            "db.shard_skew",
            lens.iter().copied().max().unwrap_or(0) as f64 / mean,
        );
    }
}

/// The shortcut layer's counters from `db.stats()`.
pub fn shortcut_metrics(db: &HyperionDb, puts: u64, out: &mut Outcome) {
    let s = db.stats().shortcut;
    out.set("shortcut.hit_rate", s.hit_rate());
    out.set(
        "shortcut.occupancy",
        if s.slots == 0 {
            0.0
        } else {
            s.entries as f64 / s.slots as f64
        },
    );
    if puts > 0 {
        out.set(
            "shortcut.invalidations_per_kput",
            s.invalidations as f64 * 1000.0 / puts as f64,
        );
    }
}

/// Mean cost of `TransformedKey::new` over `keys`, timed as one block (a
/// single call is far below the clock's resolution).
pub fn transform_ns<'k>(keys: impl Iterator<Item = &'k [u8]> + Clone, preprocess: bool) -> f64 {
    let n = keys.clone().count().max(1);
    let t = Instant::now();
    for key in keys {
        black_box(hyperion_core::keys::TransformedKey::new(black_box(key), preprocess).as_slice());
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_core::db::{FibonacciPartitioner, WriteBatch};

    #[test]
    fn mirror_holds_what_the_db_holds_and_reports_counts_that_repeat() {
        let run = || {
            let config = HyperionConfig::for_integers();
            let db = HyperionDb::builder()
                .shards(SHARDS)
                .config(config)
                .partitioner(FibonacciPartitioner)
                .build();
            let mut mirror = Mirror::new(config);
            let keys: Vec<[u8; 8]> = (0..20_000u64)
                .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_be_bytes())
                .collect();
            for chunk in keys.chunks(4096) {
                let pairs: Vec<(&[u8], u64)> = chunk.iter().map(|k| (&k[..], 7)).collect();
                let mut batch = WriteBatch::with_capacity(pairs.len());
                for (k, v) in &pairs {
                    batch.put(k, *v);
                }
                db.apply(&batch).unwrap();
                mirror.load_batch(&db, &pairs);
            }
            assert_eq!(
                mirror.maps.iter().map(|m| m.len()).collect::<Vec<_>>(),
                db.shard_lens()
            );
            let mut out = Outcome::default();
            mirror.report(&mut out);
            mirror.mem_replay(1, &mut out);
            db_counters(&db, 20_000, &mut out);
            out
        };
        let (a, b) = (run(), run());
        for name in crate::spec::EXACT_COUNTS {
            assert_eq!(a.get(name), b.get(name), "{name} must repeat exactly");
        }
        assert!(a.get("trie.container_fill").unwrap() > 0.3);
        assert!(a.get("mem.alloc_ns").unwrap() > 0.0);
        assert!(a.get("db.shard_skew").unwrap() >= 1.0);
    }
}
