//! The Hyperion trie: a carefully growing 65,536-ary trie stored in
//! exact-fit containers (paper Section 3).
//!
//! Every container encodes a 16-bit partial key as a two-level internal trie
//! of T-nodes (first 8 bits) and S-nodes (second 8 bits).  Children are
//! referenced through 5-byte Hyperion Pointers, embedded directly into the
//! parent container, or stored as path-compressed suffixes.  All updates keep
//! the siblings ordered, which enables delta encoding, early miss detection
//! and fast ordered range queries.
//!
//! Point reads go through the single-pass read engine in [`crate::read`]
//! ([`HyperionMap::get`], [`HyperionMap::contains_key`], and the batched
//! [`HyperionMap::get_many`]); ordered reads live in [`crate::iter`] (the
//! cursor / lazy iterators).  Every mutation — [`HyperionMap::put`], the
//! sorted batch path [`HyperionMap::put_many`], [`HyperionMap::delete`] —
//! delegates to the single-pass write engine in [`crate::write`], which
//! documents the descent, split and gap-coalescing protocol the read engine
//! mirrors.

use crate::config::HyperionConfig;
use crate::container::{ContainerHandle, ContainerRef};
use crate::keys::{postprocess_key, preprocess_key, TransformedKey};
use crate::node::{
    is_invalid, is_t_node, parse_pc_node, parse_s_node, parse_t_node, ChildKind, NodeType,
    TNODE_JT_ENTRIES, TNODE_JT_STRIDE,
};
use crate::scan::{collect_s_records, collect_t_records};
use crate::seqlock::MapSeq;
use crate::shortcut::Shortcut;
use crate::stats::{ShortcutStats, TrieAnalysis, TrieCounters};
use crate::write::{WriteEngine, WriteError};
use crate::{Entries, KvRead, KvWrite, OrderedRead};
use hyperion_mem::{HyperionPointer, MemoryManager};
use std::borrow::Cow;

/// A memory-efficient ordered map from byte-string keys to `u64` values.
///
/// This is the single-threaded core of Hyperion; [`crate::HyperionDb`]
/// shards keys over multiple `HyperionMap` arenas for thread-safe access.
pub struct HyperionMap {
    mm: MemoryManager,
    config: HyperionConfig,
    root: Option<HyperionPointer>,
    empty_key_value: Option<u64>,
    len: usize,
    counters: TrieCounters,
    pub(crate) shortcut: Shortcut,
    /// Seqlock version word read by the optimistic readers of
    /// [`crate::HyperionDb`]; bumped odd/even around every mutation below.
    pub(crate) seq: MapSeq,
}

impl HyperionMap {
    /// Creates an empty map with the default configuration.
    pub fn new() -> Self {
        Self::with_config(HyperionConfig::default())
    }

    /// Creates an empty map with the given configuration.
    pub fn with_config(config: HyperionConfig) -> Self {
        HyperionMap {
            mm: MemoryManager::new(),
            config,
            root: None,
            empty_key_value: None,
            len: 0,
            counters: TrieCounters::default(),
            shortcut: Shortcut::new(config.shortcut_capacity),
            seq: MapSeq::new(),
        }
    }

    /// The configuration this map was created with.
    pub fn config(&self) -> &HyperionConfig {
        &self.config
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no key is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Structural counters (ejections, splits, ...).
    pub fn counters(&self) -> TrieCounters {
        self.counters
    }

    /// Counter snapshot of the hashed shortcut layer (all zeros when the
    /// shortcut is disabled via [`HyperionConfig::shortcut_capacity`]).
    pub fn shortcut_stats(&self) -> ShortcutStats {
        self.shortcut.stats()
    }

    /// Structural events (splits, ejections, aborted splits) the write engine
    /// noted on this map's seqlock — the torn-read hazard rate optimistic
    /// readers' retry counters are measured against.
    pub fn structural_events(&self) -> u64 {
        self.seq.structural_events()
    }

    /// Access to the underlying memory manager (read-only), e.g. for
    /// collecting the per-superbin statistics of Figures 14 and 16.
    pub fn memory_manager(&self) -> &MemoryManager {
        &self.mm
    }

    /// Logical memory footprint in bytes (segments + heap held by the
    /// allocator, plus the map header itself).
    pub fn footprint_bytes(&self) -> usize {
        self.mm.footprint_bytes() as usize
            + self.shortcut.footprint_bytes()
            + std::mem::size_of::<Self>()
    }

    fn transform<'k>(&self, key: &'k [u8]) -> Cow<'k, [u8]> {
        if self.config.key_preprocessing {
            Cow::Owned(preprocess_key(key))
        } else {
            Cow::Borrowed(key)
        }
    }

    fn restore_key(&self, key: &[u8]) -> Vec<u8> {
        if self.config.key_preprocessing {
            postprocess_key(key).unwrap_or_else(|| key.to_vec())
        } else {
            key.to_vec()
        }
    }

    /// The root pointer of the trie (cursor entry point; also used by
    /// external structure diagnostics together with
    /// [`HyperionMap::memory_manager`]).
    pub fn root_pointer(&self) -> Option<HyperionPointer> {
        self.root
    }

    /// The value stored under the empty key, if any (crate-internal).
    pub(crate) fn empty_key_value(&self) -> Option<u64> {
        self.empty_key_value
    }

    /// Applies the configured key pre-processing (crate-internal).
    pub(crate) fn transform_key<'k>(&self, key: &'k [u8]) -> Cow<'k, [u8]> {
        self.transform(key)
    }

    /// Undoes the configured key pre-processing (crate-internal).
    pub(crate) fn restore_key_bytes(&self, key: &[u8]) -> Vec<u8> {
        self.restore_key(key)
    }

    // =====================================================================
    // get (delegates to the single-pass read engine in `crate::read`)
    // =====================================================================

    /// Looks up a key and returns its value, if present.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let key = TransformedKey::new(key, self.config.key_preprocessing);
        if key.is_empty() {
            return self.empty_key_value;
        }
        self.lookup_transformed(&key, true)
    }

    /// `true` if the key is present.
    ///
    /// Shares the read engine's fast path with [`HyperionMap::get`] but stops
    /// at the record match without reading the value word.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        let key = TransformedKey::new(key, self.config.key_preprocessing);
        if key.is_empty() {
            return self.empty_key_value.is_some();
        }
        self.lookup_transformed(&key, false).is_some()
    }

    // =====================================================================
    // put (delegates to the single-pass write engine in `crate::write`)
    // =====================================================================

    /// Inserts or updates a key.  Returns `true` if the key was not present
    /// before.
    ///
    /// # Panics
    /// Panics if the write engine fails to converge (a broken structural
    /// invariant; see [`WriteError::StructuralLoop`]).  Use
    /// [`HyperionMap::try_put`] for a typed error instead.
    pub fn put(&mut self, key: &[u8], value: u64) -> bool {
        self.try_put(key, value)
            .expect("write engine failed to converge")
    }

    /// Inserts or updates a key, surfacing engine failures as a typed error
    /// instead of panicking.  Returns `Ok(true)` if the key was not present
    /// before.
    pub fn try_put(&mut self, key: &[u8], value: u64) -> Result<bool, WriteError> {
        let _span = self.seq.mutation();
        // Declared after the span so it drops first: a deferred failpoint
        // trip firing at op end still unwinds inside the mutation span.
        #[cfg(feature = "failpoints")]
        let _fp_op = hyperion_mem::failpoint::op_guard();
        let key = self.transform(key).into_owned();
        if key.is_empty() {
            let inserted = self.empty_key_value.is_none();
            self.empty_key_value = Some(value);
            if inserted {
                self.len += 1;
            }
            return Ok(inserted);
        }
        Ok(self.write_transformed(vec![(key, value)])? == 1)
    }

    /// Inserts or updates many keys in one locality-aware pass.
    ///
    /// The pairs may arrive in any order and may contain duplicate keys (the
    /// last value wins, like sequential puts).  Internally the keys are
    /// sorted (in transformed key space) so the write engine descends once
    /// per shared prefix, resumes its container scans across consecutive
    /// keys, and splices runs of new records through one coalesced gap per
    /// edit site instead of one memmove per key.  Returns the number of keys
    /// that were not present before.
    ///
    /// # Panics
    /// Panics if the write engine fails to converge; use
    /// [`HyperionMap::try_put_many`] for a typed error.
    pub fn put_many<'k, I>(&mut self, pairs: I) -> usize
    where
        I: IntoIterator<Item = (&'k [u8], u64)>,
    {
        self.try_put_many(pairs)
            .expect("write engine failed to converge")
    }

    /// [`HyperionMap::put_many`] with a typed error surface.
    pub fn try_put_many<'k, I>(&mut self, pairs: I) -> Result<usize, WriteError>
    where
        I: IntoIterator<Item = (&'k [u8], u64)>,
    {
        let _span = self.seq.mutation();
        #[cfg(feature = "failpoints")]
        let _fp_op = hyperion_mem::failpoint::op_guard();
        let mut entries: Vec<(Vec<u8>, u64)> = Vec::new();
        let mut empty_key: Option<u64> = None;
        for (key, value) in pairs {
            let key = self.transform(key).into_owned();
            if key.is_empty() {
                empty_key = Some(value);
            } else {
                entries.push((key, value));
            }
        }
        let mut inserted = 0usize;
        if let Some(value) = empty_key {
            if self.empty_key_value.is_none() {
                self.len += 1;
                inserted += 1;
            }
            self.empty_key_value = Some(value);
        }
        // Stable sort + last-wins dedup: equal keys keep arrival order, so
        // keeping the final element of each run matches sequential puts.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut deduped: Vec<(Vec<u8>, u64)> = Vec::with_capacity(entries.len());
        for entry in entries {
            match deduped.last_mut() {
                Some(last) if last.0 == entry.0 => *last = entry,
                _ => deduped.push(entry),
            }
        }
        inserted += self.write_transformed(deduped)?;
        Ok(inserted)
    }

    /// Applies strictly ascending, de-duplicated transformed-key entries
    /// through the write engine and maintains `root` / `len`.
    fn write_transformed(&mut self, entries: Vec<(Vec<u8>, u64)>) -> Result<usize, WriteError> {
        if entries.is_empty() {
            return Ok(0);
        }
        let root = match self.root {
            Some(root) => root,
            None => {
                let c = ContainerRef::create(&mut self.mm, &[]);
                let hp = c.handle().stored_pointer();
                self.root = Some(hp);
                hp
            }
        };
        let mut new_root = root;
        let mut inserted = 0usize;
        let run = |this: &mut HyperionMap, new_root: &mut HyperionPointer, inserted: &mut usize| {
            let HyperionMap {
                mm,
                config,
                counters,
                shortcut,
                seq,
                ..
            } = this;
            let mut engine = WriteEngine::new(mm, config, counters, shortcut, seq);
            engine.write_into_pointer(new_root, 0, &entries, inserted)
        };
        #[cfg(not(feature = "failpoints"))]
        let result = run(self, &mut new_root, &mut inserted);
        // A deferred failpoint trip unwinds out of the engine at a top-level
        // visit boundary.  The out-parameters are current there, so commit
        // them exactly like the Err path before re-raising — the completed
        // visits are real and the old root allocation may be freed.
        #[cfg(feature = "failpoints")]
        let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(self, &mut new_root, &mut inserted)
        })) {
            Ok(result) => result,
            Err(payload) => {
                if new_root != root {
                    self.root = Some(new_root);
                }
                self.len += inserted;
                self.shortcut.clear();
                std::panic::resume_unwind(payload);
            }
        };
        // Commit progress even on failure: a split may have freed the old
        // root allocation, and the inserts applied before the failure are
        // real.  On `StructuralLoop` the failing container's own tally is
        // indeterminate and the map must be treated as corrupt, but the
        // committed state keeps reads from walking freed memory.
        if new_root != root {
            self.root = Some(new_root);
        }
        self.len += inserted;
        if let Err(err) = result {
            // The failed write may have freed or moved containers without
            // unwinding to the hooks that keep the shortcut coherent —
            // invalidate everything rather than trust any entry.
            self.shortcut.clear();
            return Err(err);
        }
        Ok(inserted)
    }

    // =====================================================================
    // delete
    // =====================================================================

    /// Removes a key.  Returns `true` if the key was present.
    pub fn delete(&mut self, key: &[u8]) -> bool {
        let _span = self.seq.mutation();
        #[cfg(feature = "failpoints")]
        let _fp_op = hyperion_mem::failpoint::op_guard();
        let key = self.transform(key).into_owned();
        if key.is_empty() {
            let removed = self.empty_key_value.take().is_some();
            if removed {
                self.len -= 1;
            }
            return removed;
        }
        let Some(root) = self.root else {
            return false;
        };
        let (new_root, removed, now_empty) = {
            let HyperionMap {
                mm,
                config,
                counters,
                shortcut,
                seq,
                ..
            } = self;
            let mut engine = WriteEngine::new(mm, config, counters, shortcut, seq);
            engine.delete_in_pointer(root, &key, 0)
        };
        if removed {
            self.len -= 1;
        }
        if now_empty {
            self.mm.free(new_root);
            self.root = None;
            // The freed root is the last container: no prefix remains valid.
            self.shortcut.clear();
        } else if new_root != root {
            self.root = Some(new_root);
        }
        removed
    }

    /// Removes many keys in one locality-aware pass.  `results[i]` is `true`
    /// iff `keys[i]` was present when its delete applied; duplicate keys are
    /// fine (the first occurrence removes, later ones report `false`, exactly
    /// like sequential deletes).
    ///
    /// The deletions are applied in sorted key order (stable, so duplicates
    /// keep arrival order) — consecutive deletes then revisit the same
    /// containers while they are still cache-hot, the read-side mirror of
    /// the [`HyperionMap::put_many`] / [`HyperionMap::get_many`] sort.  Each
    /// delete still descends on its own: a structural delete (record removal,
    /// gap shrink) invalidates any resume point a batched walk could carry.
    pub fn delete_many(&mut self, keys: &[&[u8]]) -> Vec<bool> {
        let _span = self.seq.mutation();
        #[cfg(feature = "failpoints")]
        let _fp_op = hyperion_mem::failpoint::op_guard();
        let mut results = vec![false; keys.len()];
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_by(|&a, &b| keys[a as usize].cmp(keys[b as usize]));
        for &i in &order {
            results[i as usize] = self.delete(keys[i as usize]);
        }
        results
    }

    // =====================================================================
    // ordered iteration / range queries
    // =====================================================================
    //
    // The traversal engine lives in `crate::iter`: a stateful cursor walks
    // the container byte stream incrementally.  The lazy iterator entry
    // points (`iter`, `range`, `prefix`, `cursor`) are defined next to it;
    // the callback helpers below are thin adapters over the same cursor.

    /// Invokes `f(key, value)` for every key greater than or equal to `start`
    /// in ascending order, until `f` returns `false` (paper Section 3.1,
    /// "Operations").  Returns `false` if the callback stopped the scan.
    ///
    /// Thin adapter over [`HyperionMap::cursor`].
    pub fn range_from<F: FnMut(&[u8], u64) -> bool>(&self, start: &[u8], f: &mut F) -> bool {
        let mut cursor = self.cursor();
        cursor.seek(start);
        while let Some((key, value)) = cursor.next() {
            if !f(&key, value) {
                return false;
            }
        }
        true
    }

    /// Invokes `f` for every key/value pair in ascending key order.
    pub fn for_each<F: FnMut(&[u8], u64) -> bool>(&self, f: &mut F) -> bool {
        self.range_from(&[], f)
    }

    /// Counts the keys in `[low, high)`.
    pub fn range_count(&self, low: &[u8], high: &[u8]) -> usize {
        self.range(low..high).count()
    }

    /// Collects all key/value pairs (mostly useful in tests).
    pub fn to_vec(&self) -> Vec<(Vec<u8>, u64)> {
        self.iter().collect()
    }

    // =====================================================================
    // structural analysis (memory-efficiency statistics)
    // =====================================================================

    /// Walks the whole trie and gathers the structural statistics the paper
    /// reports in Section 4.3 (delta-encoded nodes, embedded containers,
    /// path-compressed bytes, container sizes).
    pub fn analyze(&self) -> TrieAnalysis {
        let mut a = TrieAnalysis::default();
        if let Some(root) = self.root {
            self.analyze_pointer(root, &mut a);
        }
        a.ejections = self.counters.ejections;
        a.splits = self.counters.splits;
        a
    }

    fn analyze_pointer(&self, hp: HyperionPointer, a: &mut TrieAnalysis) {
        if hp.superbin() == 0 && self.mm.is_chained(hp) {
            a.chained_groups += 1;
            for index in self.mm.chained_valid_slots(hp) {
                let c =
                    ContainerRef::open(&self.mm, ContainerHandle::ChainSlot { head: hp, index });
                a.containers += 1;
                a.container_used_bytes += c.size() as u64;
                a.container_capacity_bytes += c.capacity() as u64;
                self.analyze_region(&c, c.stream_start(), c.stream_end(), a);
            }
        } else {
            let c = ContainerRef::open(&self.mm, ContainerHandle::Standalone(hp));
            a.containers += 1;
            a.container_used_bytes += c.size() as u64;
            a.container_capacity_bytes += c.capacity() as u64;
            self.analyze_region(&c, c.stream_start(), c.stream_end(), a);
        }
    }

    fn analyze_region(&self, c: &ContainerRef, start: usize, end: usize, a: &mut TrieAnalysis) {
        for t in collect_t_records(c, start, end) {
            a.t_nodes += 1;
            if !t.explicit_key {
                a.delta_encoded_nodes += 1;
            }
            if t.value_offset.is_some() {
                a.values += 1;
            }
            if t.has_js {
                a.jump_successors += 1;
            }
            if t.has_jt {
                a.tnode_jump_tables += 1;
            }
            for s in collect_s_records(c, &t, end) {
                a.s_nodes += 1;
                if !s.explicit_key {
                    a.delta_encoded_nodes += 1;
                }
                if s.value_offset.is_some() {
                    a.values += 1;
                }
                match s.child {
                    ChildKind::None => {}
                    ChildKind::PathCompressed => {
                        let (has_value, _, range) =
                            parse_pc_node(c.bytes(), s.child_offset.unwrap());
                        a.pc_nodes += 1;
                        a.pc_suffix_bytes += range.len() as u64;
                        if has_value {
                            a.values += 1;
                        }
                    }
                    ChildKind::Embedded => {
                        a.embedded_containers += 1;
                        let child_off = s.child_offset.unwrap();
                        let size = c.bytes()[child_off] as usize;
                        self.analyze_region(c, child_off + 1, child_off + size, a);
                    }
                    ChildKind::Pointer => {
                        self.analyze_pointer(c.read_hp(s.child_offset.unwrap()), a);
                    }
                }
            }
        }
    }
}

impl Default for HyperionMap {
    fn default() -> Self {
        Self::new()
    }
}

impl KvRead for HyperionMap {
    fn get(&self, key: &[u8]) -> Option<u64> {
        HyperionMap::get(self, key)
    }

    /// Overrides the `get`-based default with the value-free fast path.
    fn contains(&self, key: &[u8]) -> bool {
        HyperionMap::contains_key(self, key)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_footprint(&self) -> usize {
        self.footprint_bytes()
    }

    fn name(&self) -> &'static str {
        if self.config.key_preprocessing {
            "hyperion_p"
        } else {
            "hyperion"
        }
    }
}

impl KvWrite for HyperionMap {
    fn put(&mut self, key: &[u8], value: u64) -> bool {
        HyperionMap::put(self, key, value)
    }

    fn delete(&mut self, key: &[u8]) -> bool {
        HyperionMap::delete(self, key)
    }
}

impl OrderedRead for HyperionMap {
    fn for_each_from(&self, start: &[u8], f: &mut dyn FnMut(&[u8], u64) -> bool) {
        let mut wrapper = |k: &[u8], v: u64| f(k, v);
        self.range_from(start, &mut wrapper);
    }

    /// Overrides the eager default with the native lazy cursor; the wrapped
    /// [`crate::Range`] is double-ended, so `next_back` stays lazy too.
    fn iter_from(&self, start: &[u8]) -> Entries<'_> {
        Entries::from_bidi(self.range(start..))
    }

    /// Overrides the bounded default with the native lazy cursor.
    fn range_iter(&self, start: &[u8], end: &[u8]) -> Entries<'_> {
        Entries::from_bidi(self.range(start..end))
    }

    /// Overrides the full forward walk with the reverse cursor.
    fn last(&self) -> Option<(Vec<u8>, u64)> {
        HyperionMap::last(self)
    }

    /// Overrides the forward walk-to-bound with the reverse cursor.
    fn pred(&self, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        HyperionMap::pred(self, key)
    }
}

impl std::fmt::Debug for HyperionMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Extend<(Vec<u8>, u64)> for HyperionMap {
    /// Routes through [`HyperionMap::put_many`]: the keys are sorted and
    /// applied in one locality-aware pass of the write engine.
    fn extend<I: IntoIterator<Item = (Vec<u8>, u64)>>(&mut self, iter: I) {
        let pairs: Vec<(Vec<u8>, u64)> = iter.into_iter().collect();
        self.put_many(pairs.iter().map(|(k, v)| (k.as_slice(), *v)));
    }
}

impl<'k> Extend<(&'k [u8], u64)> for HyperionMap {
    /// Routes through [`HyperionMap::put_many`]: the keys are sorted and
    /// applied in one locality-aware pass of the write engine.
    fn extend<I: IntoIterator<Item = (&'k [u8], u64)>>(&mut self, iter: I) {
        self.put_many(iter);
    }
}

impl FromIterator<(Vec<u8>, u64)> for HyperionMap {
    fn from_iter<I: IntoIterator<Item = (Vec<u8>, u64)>>(iter: I) -> Self {
        let mut map = HyperionMap::new();
        map.extend(iter);
        map
    }
}

impl<'k> FromIterator<(&'k [u8], u64)> for HyperionMap {
    fn from_iter<I: IntoIterator<Item = (&'k [u8], u64)>>(iter: I) -> Self {
        let mut map = HyperionMap::new();
        map.extend(iter);
        map
    }
}

impl<'a> IntoIterator for &'a HyperionMap {
    type Item = (Vec<u8>, u64);
    type IntoIter = crate::iter::Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for HyperionMap {
    type Item = (Vec<u8>, u64);
    type IntoIter = std::vec::IntoIter<(Vec<u8>, u64)>;

    /// Consumes the map.  The containers are drained into a sorted `Vec`
    /// first; the underlying arena memory is released with the map.
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl HyperionMap {
    /// Test-only structural invariant check: walks every container and
    /// verifies header consistency (size / free fields), record ordering and
    /// delta encoding, region containment of every record, jump-successor
    /// and jump-table targets, container-jump-table entries, and that the
    /// total number of stored values matches [`HyperionMap::len`].  Returns
    /// a description of the first violation found.
    #[doc(hidden)]
    pub fn validate_structure(&self) -> Result<(), String> {
        let mut values: usize = usize::from(self.empty_key_value.is_some());
        let Some(root) = self.root else {
            return if values == self.len {
                Ok(())
            } else {
                Err(format!("empty trie but len is {}", self.len))
            };
        };
        let mut pending = vec![root];
        while let Some(hp) = pending.pop() {
            let handles: Vec<ContainerHandle> = if hp.superbin() == 0 && self.mm.is_chained(hp) {
                self.mm
                    .chained_valid_slots(hp)
                    .into_iter()
                    .map(|index| ContainerHandle::ChainSlot { head: hp, index })
                    .collect()
            } else {
                vec![ContainerHandle::Standalone(hp)]
            };
            for handle in handles {
                let c = ContainerRef::open(&self.mm, handle);
                if c.size() > c.capacity() {
                    return Err(format!(
                        "{handle:?}: size {} exceeds capacity {}",
                        c.size(),
                        c.capacity()
                    ));
                }
                if c.stream_start() > c.size() {
                    return Err(format!(
                        "{handle:?}: stream start {} past size {}",
                        c.stream_start(),
                        c.size()
                    ));
                }
                let expected_free = (c.capacity() - c.size()).min(255);
                if c.free_field() != expected_free {
                    return Err(format!(
                        "{handle:?}: free field {} but capacity-size is {expected_free}",
                        c.free_field()
                    ));
                }
                let mut prev_cjt_key: Option<u8> = None;
                for (key, off) in c.cjt_entries() {
                    let target = c.stream_start() + off as usize;
                    if target >= c.stream_end() {
                        return Err(format!("{handle:?}: CJT entry {key} past stream end"));
                    }
                    match parse_t_node(c.bytes(), target, None) {
                        Some(t) if t.explicit_key && t.key == key => {}
                        other => {
                            return Err(format!(
                                "{handle:?}: CJT entry {key}@{target} does not reference an \
                                 explicit T record with that key ({other:?})"
                            ));
                        }
                    }
                    if prev_cjt_key.is_some_and(|p| key <= p) {
                        return Err(format!("{handle:?}: CJT keys not ascending at {key}"));
                    }
                    prev_cjt_key = Some(key);
                }
                self.validate_region(
                    &c,
                    c.stream_start(),
                    c.stream_end(),
                    &handle,
                    &mut pending,
                    &mut values,
                )?;
            }
        }
        if values != self.len {
            return Err(format!(
                "trie stores {values} values but len is {}",
                self.len
            ));
        }
        Ok(())
    }

    fn validate_region(
        &self,
        c: &ContainerRef,
        start: usize,
        end: usize,
        handle: &ContainerHandle,
        pending: &mut Vec<HyperionPointer>,
        values: &mut usize,
    ) -> Result<(), String> {
        let bytes = c.bytes();
        let mut pos = start;
        let mut prev_t: Option<u8> = None;
        while pos < end && !is_invalid(bytes[pos]) {
            if !is_t_node(bytes[pos]) {
                return Err(format!("{handle:?}: S record at T position {pos}"));
            }
            let Some(t) = parse_t_node(bytes, pos, prev_t) else {
                return Err(format!("{handle:?}: unparsable T record at {pos}"));
            };
            if prev_t.is_none() && !t.explicit_key {
                return Err(format!(
                    "{handle:?}: first T record of region {start} is delta-encoded"
                ));
            }
            if t.explicit_key && prev_t.is_some_and(|p| t.key <= p) {
                return Err(format!(
                    "{handle:?}: T records out of order at {pos} (key {})",
                    t.key
                ));
            }
            if t.header_end > end {
                return Err(format!("{handle:?}: T record at {pos} spills past region"));
            }
            if t.node_type == NodeType::LeafWithValue {
                *values += 1;
            }
            let mut spos = t.header_end;
            let mut prev_s: Option<u8> = None;
            while spos < end && !is_invalid(bytes[spos]) && !is_t_node(bytes[spos]) {
                let Some(s) = parse_s_node(bytes, spos, prev_s) else {
                    return Err(format!("{handle:?}: unparsable S record at {spos}"));
                };
                if prev_s.is_none() && !s.explicit_key {
                    return Err(format!(
                        "{handle:?}: first S child of T@{pos} is delta-encoded"
                    ));
                }
                if s.explicit_key && prev_s.is_some_and(|p| s.key <= p) {
                    return Err(format!(
                        "{handle:?}: S records out of order at {spos} (key {})",
                        s.key
                    ));
                }
                if s.end > end {
                    return Err(format!("{handle:?}: S record at {spos} spills past region"));
                }
                if s.node_type == NodeType::LeafWithValue {
                    *values += 1;
                }
                match s.child {
                    ChildKind::None => {}
                    ChildKind::PathCompressed => {
                        let child_off = s.child_offset.expect("pc child offset");
                        let (has_value, _, range) = parse_pc_node(bytes, child_off);
                        if range.end > s.end {
                            return Err(format!(
                                "{handle:?}: PC node at {child_off} spills past its S record"
                            ));
                        }
                        if has_value {
                            *values += 1;
                        }
                    }
                    ChildKind::Embedded => {
                        let child_off = s.child_offset.expect("embedded child offset");
                        let size = bytes[child_off] as usize;
                        if size < 2 {
                            return Err(format!(
                                "{handle:?}: empty embedded container at {child_off}"
                            ));
                        }
                        if child_off + size > s.end {
                            return Err(format!(
                                "{handle:?}: embedded container at {child_off} spills past its \
                                 S record"
                            ));
                        }
                        self.validate_region(
                            c,
                            child_off + 1,
                            child_off + size,
                            handle,
                            pending,
                            values,
                        )?;
                    }
                    ChildKind::Pointer => {
                        pending.push(c.read_hp(s.child_offset.expect("pointer child offset")));
                    }
                }
                prev_s = Some(s.key);
                spos = s.end;
            }
            // Jump successor must point exactly at the next T sibling (or the
            // end of the walked run).
            if let Some(js_off) = t.js_offset {
                let v = c.read_u16(js_off) as usize;
                if v != 0 && t.offset + v != spos {
                    return Err(format!(
                        "{handle:?}: T@{} js target {} but true next sibling {spos}",
                        t.offset,
                        t.offset + v
                    ));
                }
            }
            // Jump-table entries must reference explicit-key S children of
            // this T record with keys within the slot bound.
            if let Some(jt_off) = t.jt_offset {
                for slot in 0..TNODE_JT_ENTRIES {
                    let v = c.read_u16(jt_off + slot * 2) as usize;
                    if v == 0 {
                        continue;
                    }
                    let target = t.offset + v;
                    if target <= t.offset || target >= spos {
                        return Err(format!(
                            "{handle:?}: T@{} jt slot {slot} target {target} outside children",
                            t.offset
                        ));
                    }
                    match parse_s_node(bytes, target, None) {
                        Some(s)
                            if s.explicit_key
                                && (s.key as usize) <= TNODE_JT_STRIDE * (slot + 1) => {}
                        other => {
                            return Err(format!(
                                "{handle:?}: T@{} jt slot {slot} bad target ({other:?})",
                                t.offset
                            ));
                        }
                    }
                }
            }
            prev_t = Some(t.key);
            pos = spos;
        }
        if pos != end && !(pos < end && is_invalid(bytes[pos]) && start == c.stream_start()) {
            // Embedded bodies are exact-fit; the top-level stream may only
            // stop early at zeroed (never-written) bytes, which `stream_end`
            // should already exclude.
            return Err(format!(
                "{handle:?}: region [{start}, {end}) ends early at {pos}"
            ));
        }
        Ok(())
    }

    /// Test-only consistency check: verifies that every jump-successor offset
    /// points exactly at the next T sibling (or the end of the used region).
    /// Returns a description of the first violation found.
    #[doc(hidden)]
    pub fn validate_jump_offsets(&self) -> Result<(), String> {
        let Some(root) = self.root else { return Ok(()) };
        let mut pending = vec![root];
        while let Some(hp) = pending.pop() {
            let handles: Vec<ContainerHandle> = if hp.superbin() == 0 && self.mm.is_chained(hp) {
                self.mm
                    .chained_valid_slots(hp)
                    .into_iter()
                    .map(|index| ContainerHandle::ChainSlot { head: hp, index })
                    .collect()
            } else {
                vec![ContainerHandle::Standalone(hp)]
            };
            for handle in handles {
                let c = ContainerRef::open(&self.mm, handle);
                let end = c.stream_end();
                let records = collect_t_records(&c, c.stream_start(), end);
                for t in &records {
                    if let Some(js_off) = t.js_offset {
                        let v = c.read_u16(js_off) as usize;
                        if v != 0 {
                            // Re-derive the true next sibling by record walking.
                            let mut p = t.header_end;
                            let bytes = c.bytes();
                            while p < end && !is_invalid(bytes[p]) && !is_t_node(bytes[p]) {
                                let s = parse_s_node(bytes, p, None).unwrap();
                                p = s.end;
                            }
                            if t.offset + v != p {
                                return Err(format!(
                                    "{handle:?}: T at {} key {} js target {} but true next {}",
                                    t.offset,
                                    t.key,
                                    t.offset + v,
                                    p
                                ));
                            }
                        }
                    }
                    for s in collect_s_records(&c, t, end) {
                        if s.child == ChildKind::Pointer {
                            pending.push(c.read_hp(s.child_offset.unwrap()));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression test: removing a *delta-encoded* T record used to re-parse
    /// it with no predecessor context, report the raw delta as its key, and
    /// re-encode the successor sibling's delta against that wrong key —
    /// silently corrupting the byte stream (wrong/garbage key bytes surfaced
    /// by `get` misses and impossible keys in iteration).  Found by the
    /// `HyperionDb` stress test; fixed in `remove_s_record`.
    #[test]
    fn delete_reencodes_successor_of_delta_encoded_sibling() {
        let mut map = HyperionMap::new();
        let mut reference = std::collections::BTreeMap::new();
        let mut x: u64 = 0x9e3779b9;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        // Interleaved short prefixes create sibling T records one delta
        // apart; the delete mix removes middle siblings of delta chains.
        for round in 0..20_000u64 {
            let key = format!("t{}:{:06}", step() % 8, step() % 4000).into_bytes();
            if step() % 4 == 0 {
                map.delete(&key);
                reference.remove(&key);
            } else {
                let v = step();
                map.put(&key, v);
                reference.insert(key, v);
            }
            if round % 997 == 0 {
                let got: Vec<_> = map.iter().collect();
                let expected: Vec<_> = reference.iter().map(|(k, v)| (k.clone(), *v)).collect();
                assert_eq!(got, expected, "stream corrupt after round {round}");
            }
        }
        for (k, v) in &reference {
            assert_eq!(
                map.get(k),
                Some(*v),
                "lost {:?}",
                String::from_utf8_lossy(k)
            );
        }
        assert_eq!(map.len(), reference.len());
    }

    #[test]
    fn put_get_small_words() {
        // The running example from the paper (Figure 1).
        let words: &[&[u8]] = &[b"a", b"and", b"be", b"that", b"the", b"to"];
        let mut map = HyperionMap::new();
        for (i, w) in words.iter().enumerate() {
            assert!(map.put(w, i as u64), "{:?} should be new", w);
        }
        assert_eq!(map.len(), words.len());
        for (i, w) in words.iter().enumerate() {
            assert_eq!(map.get(w), Some(i as u64), "lookup {:?}", w);
        }
        assert_eq!(map.get(b"th"), None);
        assert_eq!(map.get(b"toa"), None);
        assert_eq!(map.get(b""), None);
    }

    #[test]
    fn overwrite_keeps_len() {
        let mut map = HyperionMap::new();
        assert!(map.put(b"key", 1));
        assert!(!map.put(b"key", 2));
        assert_eq!(map.get(b"key"), Some(2));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn empty_key_is_supported() {
        let mut map = HyperionMap::new();
        assert!(map.put(b"", 42));
        assert_eq!(map.get(b""), Some(42));
        assert_eq!(map.len(), 1);
        assert!(map.delete(b""));
        assert_eq!(map.get(b""), None);
        assert_eq!(map.len(), 0);
    }

    #[test]
    fn ordered_iteration_matches_sorted_input() {
        let mut map = HyperionMap::new();
        let keys: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("key-{:05}", i * 7919 % 1000).into_bytes())
            .collect();
        for (i, k) in keys.iter().enumerate() {
            map.put(k, i as u64);
        }
        let mut expected: Vec<Vec<u8>> = keys.clone();
        expected.sort();
        expected.dedup();
        let got: Vec<Vec<u8>> = map.to_vec().into_iter().map(|(k, _)| k).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn prefix_keys_coexist() {
        let mut map = HyperionMap::new();
        map.put(b"a", 1);
        map.put(b"ab", 2);
        map.put(b"abc", 3);
        map.put(b"abcd", 4);
        map.put(b"abcdefghij", 5);
        for (k, v) in [
            (&b"a"[..], 1),
            (b"ab", 2),
            (b"abc", 3),
            (b"abcd", 4),
            (b"abcdefghij", 5),
        ] {
            assert_eq!(map.get(k), Some(v), "{:?}", k);
        }
        assert_eq!(map.get(b"abcde"), None);
        assert_eq!(map.len(), 5);
    }

    #[test]
    fn delete_removes_only_target() {
        let mut map = HyperionMap::new();
        map.put(b"alpha", 1);
        map.put(b"alphabet", 2);
        map.put(b"beta", 3);
        assert!(map.delete(b"alpha"));
        assert!(!map.delete(b"alpha"));
        assert_eq!(map.get(b"alpha"), None);
        assert_eq!(map.get(b"alphabet"), Some(2));
        assert_eq!(map.get(b"beta"), Some(3));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn range_from_respects_start_and_stop() {
        let mut map = HyperionMap::new();
        for i in 0..100u64 {
            map.put(format!("k{:03}", i).as_bytes(), i);
        }
        let mut seen = Vec::new();
        map.range_from(b"k050", &mut |k, v| {
            seen.push((k.to_vec(), v));
            seen.len() < 10
        });
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[0].0, b"k050".to_vec());
        assert_eq!(seen[9].0, b"k059".to_vec());
    }

    #[test]
    fn preprocessing_round_trips_keys() {
        let mut map = HyperionMap::with_config(HyperionConfig::with_preprocessing());
        let keys: Vec<[u8; 8]> = (0..500u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_be_bytes())
            .collect();
        for (i, k) in keys.iter().enumerate() {
            map.put(k, i as u64);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(map.get(k), Some(i as u64));
        }
        // Iteration must return the original (un-transformed) keys in order.
        let mut sorted = keys.clone();
        sorted.sort();
        let got: Vec<Vec<u8>> = map.to_vec().into_iter().map(|(k, _)| k).collect();
        assert_eq!(got, sorted.iter().map(|k| k.to_vec()).collect::<Vec<_>>());
    }

    #[test]
    fn many_random_integer_keys() {
        let mut map = HyperionMap::with_config(HyperionConfig::for_integers());
        let mut reference = std::collections::BTreeMap::new();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x.to_be_bytes();
            map.put(&key, i);
            reference.insert(key.to_vec(), i);
        }
        assert_eq!(map.len(), reference.len());
        for (k, v) in &reference {
            assert_eq!(map.get(k), Some(*v));
        }
        let got = map.to_vec();
        let expected: Vec<(Vec<u8>, u64)> = reference.into_iter().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn sequential_integers_trigger_ejections() {
        let mut map = HyperionMap::with_config(HyperionConfig::for_integers());
        for i in 0..50_000u64 {
            map.put(&i.to_be_bytes(), i);
        }
        for i in (0..50_000u64).step_by(997) {
            assert_eq!(map.get(&i.to_be_bytes()), Some(i));
        }
        let analysis = map.analyze();
        assert!(analysis.containers >= 1);
        assert!(
            analysis.delta_encoded_nodes > 0,
            "sequential keys must delta-encode"
        );
        assert_eq!(map.len(), 50_000);
    }

    #[test]
    fn analysis_counts_are_consistent() {
        let mut map = HyperionMap::new();
        for i in 0..2000u64 {
            map.put(format!("prefix-{:08}", i).as_bytes(), i);
        }
        let a = map.analyze();
        assert_eq!(a.values, 2000);
        assert!(a.t_nodes > 0 && a.s_nodes > 0);
        assert!(a.container_used_bytes <= a.container_capacity_bytes);
    }
}
