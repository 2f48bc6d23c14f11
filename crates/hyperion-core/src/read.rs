//! The single-pass read engine.
//!
//! Every point lookup ([`HyperionMap::get`], [`HyperionMap::contains_key`])
//! and every batched lookup ([`HyperionMap::get_many`], and through it
//! [`crate::HyperionDb::multi_get`]) goes through this module.  It mirrors
//! the shape of the write engine in [`crate::write`]: one descent per key
//! group, container scans seeded by the acceleration structures and *resumed*
//! across consecutive sorted keys.
//!
//! # The point-get fast path
//!
//! A point lookup costs, per container: one container-jump-table probe, a
//! T-record walk, an S-record walk, and a child hop.  The fast path strips
//! all of it to the bone:
//!
//! * **No allocation.**  The key transform uses [`TransformedKey`]
//!   (borrowed bytes, or an inline stack buffer under key pre-processing)
//!   instead of an owned `Vec` per lookup.
//! * **No recursion.**  Embedded containers narrow the `[start, end)` window
//!   of the *same* byte stream, so the descent is a loop, not a call chain.
//! * **One-pass CJT probe.**  [`crate::scan::cjt_seed`] stops at the first
//!   entry past the target instead of reading every slot of every group
//!   (live entries are ascending; cleared slots are zero).
//! * **Lean finds.**  The record searches ([`crate::scan`]'s
//!   `t_find_scalar`/`s_find_scalar`) delta-decode only the key byte per
//!   record, skip mismatches by lengths derived from the flag byte, and
//!   parse the full record header exactly once — at the match.
//!
//! # The resume protocol (shared with `write`)
//!
//! [`HyperionMap::get_many`] sorts its probes in transformed key space and
//! then descends exactly like [`HyperionMap::put_many`]: the T-level loop
//! (`t_find_from_scalar`) continues from the *previous* probe's position
//! carrying its delta-decoding predecessor, the S-level loop
//! (`s_find_from_scalar`) resumes the same way, and probes sharing a 2-byte
//! prefix descend into their child exactly once.  The resume is *adaptive*:
//! the jump-table probes only accept seeds past the current position, so a
//! sparse batch jumps between probes like a point get while a dense batch
//! walks each record at most once.  Misses simply leave their `None` in
//! place and hand the scan position to the next probe.
//!
//! Pointer hops are not taken inline: each level's descents are gathered
//! into a frontier and processed in windows of `DESCENT_WINDOW` descents, each
//! window touching all its target containers (the cache misses overlap in
//! the memory subsystem) before running the dependent record walks.  A
//! point get serialises one miss per level; a batch pays a whole window's
//! misses concurrently.
//!
//! `DbScan` chunk refills and the `Range`/`Prefix` iterators share the seek
//! side of this protocol through [`crate::Cursor::seek`]/`seek_exclusive`
//! (CJT-seeded T-walks, jump-table seeded S-walks on the seek path, and an
//! exclusive-bound resume that replaced the skip-equal re-yield filter).

use crate::container::{ContainerHandle, ContainerRef};
use crate::keys::TransformedKey;
use crate::node::{parse_pc_node, NodeType, SNode, TNode, VALUE_SIZE};
use crate::scan::{s_find_from_scalar, s_find_scalar, t_find_from_scalar, t_find_scalar, Resume};
use crate::trie::HyperionMap;
use hyperion_mem::HyperionPointer;

/// A deferred pointer descent of the batched read: the probes
/// `order[lo..hi]` continue below container pointer `hp` at key depth
/// `depth`.
struct Descent {
    hp: HyperionPointer,
    depth: usize,
    lo: usize,
    hi: usize,
}

/// Shared immutable context of one `get_many` batch.
struct BatchCtx<'a> {
    /// Probe indices sorted by transformed key.
    order: &'a [u32],
    /// Transformed probe keys, indexed by original position.
    probes: &'a [&'a [u8]],
}

/// Descents per prefetch window: each window's containers are touched
/// (memory-level parallel) before the dependent record walks run, without
/// prefetching so far ahead that the lines age out of L1/L2 again.
const DESCENT_WINDOW: usize = 64;

/// The first eight key bytes as a big-endian integer (zero-padded), so that
/// `u64` order equals memcmp order on the prefix.
#[inline]
fn prefix8(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(buf)
}

/// Hints the CPU to pull the first two cache lines of a container into
/// cache.  Advisory only; a no-op target never affects correctness.
#[inline(always)]
fn prefetch(ptr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(ptr as *const i8, _MM_HINT_T0);
        // Prefetch is a hint: touching past a small container is harmless
        // (`wrapping_add` keeps the address computation defined).
        _mm_prefetch(ptr.wrapping_add(64) as *const i8, _MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        // `PRFM PLDL1KEEP` is the AArch64 analogue of `_mm_prefetch(T0)`:
        // load prefetch into L1 with temporal reuse.  There is no stable
        // aarch64 prefetch intrinsic, so the instruction is emitted directly;
        // like its x86 counterpart it never faults on bad addresses.
        std::arch::asm!(
            "prfm pldl1keep, [{line0}]",
            "prfm pldl1keep, [{line1}]",
            line0 = in(reg) ptr,
            line1 = in(reg) ptr.wrapping_add(64),
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = ptr;
}

impl HyperionMap {
    /// The point-lookup fast path over a transformed, non-empty key.
    ///
    /// With `read_value` unset the lookup answers presence only: it stops at
    /// the record match and returns a dummy `Some(0)` without touching the
    /// value word (the [`HyperionMap::contains_key`] path).
    pub(crate) fn lookup_transformed(&self, key: &[u8], read_value: bool) -> Option<u64> {
        debug_assert!(!key.is_empty());
        let mm = self.memory_manager();
        // Consult the hashed shortcut first: a hit jumps straight to the
        // deepest cached container on the key's path, skipping the upper
        // levels of the descent (one dependent cache miss each).
        let (mut hp, mut rest): (_, &[u8]) = match self.shortcut.probe(key) {
            Some((d, cached)) => (cached, &key[d..]),
            None => (self.root_pointer()?, key),
        };
        'containers: loop {
            let (slot, ptr, capacity) = mm
                .resolve_for_read(hp, rest[0])
                .expect("chained pointer without valid slot");
            let handle = match slot {
                Some(index) => ContainerHandle::ChainSlot { head: hp, index },
                None => ContainerHandle::Standalone(hp),
            };
            let c = ContainerRef::from_parts(handle, ptr, capacity);
            let mut start = c.stream_start();
            let mut end = c.stream_end();
            let mut top = true;
            // Embedded containers narrow the window on the same byte stream:
            // the descent is iterative, not recursive.
            loop {
                let t = t_find_scalar(&c, start, end, rest[0], top)?;
                if rest.len() == 1 {
                    return match t.node_type {
                        NodeType::LeafWithValue if read_value => {
                            Some(c.read_u64(t.value_offset.expect("leaf value offset")))
                        }
                        NodeType::LeafWithValue => Some(0),
                        _ => None,
                    };
                }
                let s = s_find_scalar(&c, t.header_end, end, rest[1], (t.offset, t.jt_offset))?;
                if rest.len() == 2 {
                    return match s.node_type {
                        NodeType::LeafWithValue if read_value => {
                            Some(c.read_u64(s.value_offset.expect("leaf value offset")))
                        }
                        NodeType::LeafWithValue => Some(0),
                        _ => None,
                    };
                }
                match s.child {
                    crate::node::ChildKind::None => return None,
                    crate::node::ChildKind::Pointer => {
                        hp = c.read_hp(s.child_offset.expect("pointer child offset"));
                        rest = &rest[2..];
                        // Completed hop: remember it so the next point get
                        // for this prefix skips everything above.
                        self.shortcut.publish(&key[..key.len() - rest.len()], hp);
                        continue 'containers;
                    }
                    crate::node::ChildKind::Embedded => {
                        let child_off = s.child_offset.expect("embedded child offset");
                        let size = c.bytes()[child_off] as usize;
                        start = child_off + 1;
                        end = child_off + size;
                        rest = &rest[2..];
                        top = false;
                    }
                    crate::node::ChildKind::PathCompressed => {
                        let child_off = s.child_offset.expect("pc child offset");
                        let bytes = c.bytes();
                        let header = bytes[child_off];
                        if header & 0x80 == 0 {
                            return None;
                        }
                        let total = (header & 0x7f) as usize;
                        let suffix = &bytes[child_off + 1 + VALUE_SIZE..child_off + total];
                        if suffix != &rest[2..] {
                            return None;
                        }
                        return Some(if read_value {
                            c.read_u64(child_off + 1)
                        } else {
                            0
                        });
                    }
                }
            }
        }
    }

    /// Looks up many keys in one locality-aware pass.  `results[i]`
    /// corresponds to `keys[i]`; duplicate keys, missing keys and the empty
    /// key are all fine.
    ///
    /// Probes are sorted in transformed key space and applied through the
    /// resume protocol shared with [`HyperionMap::put_many`] (see the
    /// [module documentation](self)): one descent per shared prefix, one
    /// container-record walk per batch per container instead of one per key.
    pub fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<u64>> {
        let mut results = vec![None; keys.len()];
        if keys.is_empty() {
            return results;
        }
        let preprocess = self.config().key_preprocessing;
        let transformed: Vec<TransformedKey> = keys
            .iter()
            .map(|k| TransformedKey::new(k, preprocess))
            .collect();
        let probes: Vec<&[u8]> = transformed.iter().map(|t| t.as_slice()).collect();
        // Sort probes in transformed key space.  Comparing boxed key slices
        // through two indirections per comparison dominated large batches;
        // tagging each probe with its first eight bytes (big-endian, so
        // integer order equals memcmp order) turns almost the whole sort
        // into branch-free u64 comparisons — only runs that tie on the full
        // eight-byte prefix fall back to slice comparison.
        let mut tagged: Vec<(u64, u32)> = probes
            .iter()
            .enumerate()
            .map(|(i, p)| (prefix8(p), i as u32))
            .collect();
        tagged.sort_unstable();
        let mut i = 0usize;
        while i < tagged.len() {
            let mut j = i + 1;
            while j < tagged.len() && tagged[j].0 == tagged[i].0 {
                j += 1;
            }
            if j - i > 1 {
                tagged[i..j].sort_by(|&(_, a), &(_, b)| probes[a as usize].cmp(probes[b as usize]));
            }
            i = j;
        }
        let order: Vec<u32> = tagged.into_iter().map(|(_, i)| i).collect();
        // Empty keys sort first and live out-of-line.
        let mut first = 0;
        while first < order.len() && probes[order[first] as usize].is_empty() {
            results[order[first] as usize] = self.empty_key_value();
            first += 1;
        }
        if let Some(root) = self.root_pointer() {
            let ctx = BatchCtx {
                order: &order,
                probes: &probes,
            };
            // Level-by-level descent: each level's pointer hops are gathered
            // into a frontier and processed in windows — every window first
            // touches all its containers (the loads overlap in the memory
            // subsystem), then runs the dependent record walks.  A point
            // get serialises one cache miss per level; the batch pays the
            // same misses for a whole window concurrently.
            // Seed the initial frontier from the shortcut: each sorted run
            // of probes whose cached prefix matches starts its descent at
            // the deep container instead of the root.  Runs without a cache
            // hit coalesce into root descents exactly as before.
            let mut frontier: Vec<Descent> = Vec::new();
            let mut lo = first;
            while lo < order.len() {
                let k = probes[order[lo] as usize];
                if let Some((d, hp)) = self.shortcut.probe(k) {
                    let mut hi = lo + 1;
                    while hi < order.len() {
                        let k2 = probes[order[hi] as usize];
                        if k2.len() > d && k2[..d] == k[..d] {
                            hi += 1;
                        } else {
                            break;
                        }
                    }
                    frontier.push(Descent {
                        hp,
                        depth: d,
                        lo,
                        hi,
                    });
                    lo = hi;
                } else {
                    // Skip to the end of this two-byte prefix run — every
                    // key in it would probe the same table slots — and fold
                    // adjacent missing runs into one root descent.
                    let mut hi = lo + 1;
                    if k.len() >= 2 {
                        while hi < order.len() {
                            let k2 = probes[order[hi] as usize];
                            if k2.len() >= 2 && k2[..2] == k[..2] {
                                hi += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    match frontier.last_mut() {
                        Some(run) if run.depth == 0 && run.hi == lo => run.hi = hi,
                        _ => frontier.push(Descent {
                            hp: root,
                            depth: 0,
                            lo,
                            hi,
                        }),
                    }
                    lo = hi;
                }
            }
            let mut next: Vec<Descent> = Vec::new();
            let mm = self.memory_manager();
            while !frontier.is_empty() {
                for window in frontier.chunks(DESCENT_WINDOW) {
                    if window.len() > 1 {
                        for d in window {
                            let hint = probes[order[d.lo] as usize][d.depth];
                            if let Some((_, ptr, _)) = mm.resolve_for_read(d.hp, hint) {
                                prefetch(ptr);
                            }
                        }
                    }
                    for d in window {
                        self.read_pointer(d, &ctx, &mut results, &mut next);
                    }
                }
                frontier.clear();
                std::mem::swap(&mut frontier, &mut next);
            }
        }
        results
    }

    /// Resolves the container(s) behind one [`Descent`] and dispatches its
    /// sorted probe range to them.  Chained extended bins route whole runs
    /// per slot with one valid-slot lookup and a binary search, like the
    /// write engine.
    fn read_pointer(
        &self,
        d: &Descent,
        ctx: &BatchCtx,
        results: &mut [Option<u64>],
        next: &mut Vec<Descent>,
    ) {
        let mm = self.memory_manager();
        let (depth, mut lo, hi) = (d.depth, d.lo, d.hi);
        while lo < hi {
            let hint = ctx.probes[ctx.order[lo] as usize][depth];
            // One allocation-free metadata pass resolves the container (and,
            // for chained heads, the slot owning `hint`); the run boundary
            // comes from the next valid slot above it.
            let (slot, ptr, capacity) = mm
                .resolve_for_read(d.hp, hint)
                .expect("chained pointer without valid slot");
            let (handle, cut) = match slot {
                Some(index) => {
                    let hint_block = (hint >> 5) as usize;
                    let cut = match mm.chained_next_valid_slot(d.hp, hint_block) {
                        Some(next_slot) => {
                            let boundary = (next_slot * 32) as u8;
                            lo + ctx.order[lo..hi]
                                .partition_point(|&i| ctx.probes[i as usize][depth] < boundary)
                        }
                        None => hi,
                    };
                    (ContainerHandle::ChainSlot { head: d.hp, index }, cut)
                }
                None => (ContainerHandle::Standalone(d.hp), hi),
            };
            let c = ContainerRef::from_parts(handle, ptr, capacity);
            self.read_region(
                &c,
                c.stream_start(),
                c.stream_end(),
                true,
                depth,
                lo,
                cut,
                ctx,
                results,
                next,
            );
            lo = cut;
        }
    }

    /// The T-level resume loop: walks one region's T records once, handing
    /// each group of probes sharing `key[depth]` to its T record.  Misses
    /// leave their results `None` and donate their scan position to the next
    /// probe.
    #[allow(clippy::too_many_arguments)]
    fn read_region(
        &self,
        c: &ContainerRef,
        start: usize,
        end: usize,
        top: bool,
        depth: usize,
        lo: usize,
        hi: usize,
        ctx: &BatchCtx,
        results: &mut [Option<u64>],
        next: &mut Vec<Descent>,
    ) {
        let mut state = Resume {
            pos: start,
            prev: None,
        };
        let mut i = lo;
        while i < hi {
            let target = ctx.probes[ctx.order[i] as usize][depth];
            let mut j = i + 1;
            while j < hi && ctx.probes[ctx.order[j] as usize][depth] == target {
                j += 1;
            }
            if let Some(t) = t_find_from_scalar(c, &mut state, end, target, top) {
                self.read_t_group(c, &t, end, depth, i, j, ctx, results, next);
            }
            i = j;
        }
    }

    /// Applies a group of probes sharing `key[depth]` below the T record `t`:
    /// probes terminating here read the T value, the rest resume-scan the S
    /// children.
    #[allow(clippy::too_many_arguments)]
    fn read_t_group(
        &self,
        c: &ContainerRef,
        t: &TNode,
        end: usize,
        depth: usize,
        lo: usize,
        hi: usize,
        ctx: &BatchCtx,
        results: &mut [Option<u64>],
        next: &mut Vec<Descent>,
    ) {
        let mut i = lo;
        // Sorted probes put the (possibly duplicated) exact-prefix key first.
        while i < hi && ctx.probes[ctx.order[i] as usize].len() == depth + 1 {
            if t.node_type == NodeType::LeafWithValue {
                results[ctx.order[i] as usize] =
                    Some(c.read_u64(t.value_offset.expect("leaf value")));
            }
            i += 1;
        }
        let jt = (t.offset, t.jt_offset);
        let mut state = Resume {
            pos: t.header_end,
            prev: None,
        };
        while i < hi {
            let target = ctx.probes[ctx.order[i] as usize][depth + 1];
            let mut j = i + 1;
            while j < hi && ctx.probes[ctx.order[j] as usize][depth + 1] == target {
                j += 1;
            }
            if let Some(s) = s_find_from_scalar(c, &mut state, end, target, jt) {
                self.read_s_group(c, &s, depth, i, j, ctx, results, next);
            }
            i = j;
        }
    }

    /// Applies a group of probes sharing `key[..depth + 2]` below the S
    /// record `s`: value reads here, then one deferred descent (or inline
    /// embedded/path-compressed handling) for the whole rest of the group.
    #[allow(clippy::too_many_arguments)]
    fn read_s_group(
        &self,
        c: &ContainerRef,
        s: &SNode,
        depth: usize,
        lo: usize,
        hi: usize,
        ctx: &BatchCtx,
        results: &mut [Option<u64>],
        next: &mut Vec<Descent>,
    ) {
        let mut i = lo;
        while i < hi && ctx.probes[ctx.order[i] as usize].len() == depth + 2 {
            if s.node_type == NodeType::LeafWithValue {
                results[ctx.order[i] as usize] =
                    Some(c.read_u64(s.value_offset.expect("leaf value")));
            }
            i += 1;
        }
        if i == hi {
            return;
        }
        match s.child {
            crate::node::ChildKind::None => {}
            crate::node::ChildKind::PathCompressed => {
                let child_off = s.child_offset.expect("pc child offset");
                let (has_value, value, range) = parse_pc_node(c.bytes(), child_off);
                if has_value {
                    let suffix = &c.bytes()[range];
                    for &idx in &ctx.order[i..hi] {
                        if &ctx.probes[idx as usize][depth + 2..] == suffix {
                            results[idx as usize] = Some(value);
                        }
                    }
                }
            }
            crate::node::ChildKind::Embedded => {
                let child_off = s.child_offset.expect("embedded child offset");
                let size = c.bytes()[child_off] as usize;
                self.read_region(
                    c,
                    child_off + 1,
                    child_off + size,
                    false,
                    depth + 2,
                    i,
                    hi,
                    ctx,
                    results,
                    next,
                );
            }
            crate::node::ChildKind::Pointer => {
                let hp = c.read_hp(s.child_offset.expect("pointer child offset"));
                // Batched reads warm the shortcut for later point gets.
                self.shortcut
                    .publish(&ctx.probes[ctx.order[i] as usize][..depth + 2], hp);
                next.push(Descent {
                    hp,
                    depth: depth + 2,
                    lo: i,
                    hi,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HyperionConfig;
    use crate::container::{CJT_ENTRY_SIZE, HEADER_SIZE};
    use crate::node::parse_t_node;
    use crate::scan::cjt_seed;
    use std::collections::BTreeMap;

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn sample(config: HyperionConfig, n: u64, seed: u64) -> (HyperionMap, BTreeMap<Vec<u8>, u64>) {
        let mut map = HyperionMap::with_config(config);
        let mut reference = BTreeMap::new();
        let mut x = seed;
        for i in 0..n {
            let key = if i % 2 == 0 {
                xorshift(&mut x).to_be_bytes().to_vec()
            } else {
                format!("k{:06}", xorshift(&mut x) % 200_000).into_bytes()
            };
            map.put(&key, i);
            reference.insert(key, i);
        }
        (map, reference)
    }

    #[test]
    fn fast_path_agrees_with_oracle_on_hits_and_misses() {
        let (map, reference) = sample(HyperionConfig::default(), 30_000, 0x9e3779b9);
        let mut x = 0xdecafu64;
        for (k, v) in reference.iter().step_by(7) {
            assert_eq!(map.get(k), Some(*v));
            assert!(map.contains_key(k));
            // Perturbed keys: misses through every exit of the fast path.
            let mut longer = k.clone();
            longer.push((xorshift(&mut x) & 0xff) as u8);
            assert_eq!(map.get(&longer), reference.get(&longer).copied());
            let shorter = &k[..k.len() - 1];
            assert_eq!(map.get(shorter), reference.get(shorter).copied());
        }
    }

    #[test]
    fn get_many_is_order_faithful_with_duplicates_and_misses() {
        let (map, reference) = sample(HyperionConfig::default(), 20_000, 0xfeed);
        let mut x = 0xabcdu64;
        let mut probes: Vec<Vec<u8>> = Vec::new();
        for (k, _) in reference.iter().step_by(13) {
            probes.push(k.clone());
            probes.push(k.clone()); // duplicate probe
            let mut miss = k.clone();
            miss.push(0xff);
            probes.push(miss);
        }
        probes.push(Vec::new()); // empty key (absent)
                                 // Shuffle so the engine has to restore input order itself.
        for i in (1..probes.len()).rev() {
            let j = (xorshift(&mut x) as usize) % (i + 1);
            probes.swap(i, j);
        }
        let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
        let got = map.get_many(&refs);
        assert_eq!(got.len(), probes.len());
        for (probe, result) in probes.iter().zip(&got) {
            assert_eq!(*result, reference.get(probe).copied(), "probe {probe:x?}");
        }
    }

    #[test]
    fn get_many_under_preprocessing() {
        let mut map = HyperionMap::with_config(HyperionConfig::with_preprocessing());
        let mut reference = BTreeMap::new();
        let mut x = 0x1234_5678u64;
        for i in 0..10_000u64 {
            let key = xorshift(&mut x).to_be_bytes();
            map.put(&key, i);
            reference.insert(key.to_vec(), i);
        }
        let probes: Vec<Vec<u8>> = reference
            .keys()
            .step_by(3)
            .cloned()
            .chain((0..64u64).map(|i| i.to_be_bytes().to_vec()))
            .collect();
        let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
        let got = map.get_many(&refs);
        for (probe, result) in probes.iter().zip(&got) {
            assert_eq!(*result, reference.get(probe).copied());
        }
    }

    /// Reference implementation of the old exhaustive CJT probe, for
    /// differential testing of the early-exit rewrite.
    fn cjt_seed_exhaustive(
        c: &ContainerRef,
        target: u8,
        after: usize,
        end: usize,
    ) -> Option<usize> {
        if c.jt_groups() == 0 {
            return None;
        }
        let bytes = c.bytes();
        let mut best: Option<(u8, u32)> = None;
        for i in 0..c.jt_groups() * crate::container::CJT_GROUP {
            let off = HEADER_SIZE + i * CJT_ENTRY_SIZE;
            let raw = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
            if raw == 0 {
                continue;
            }
            let key = (raw & 0xff) as u8;
            if key <= target && best.map(|(k, _)| key >= k).unwrap_or(true) {
                best = Some((key, raw >> 8));
            }
        }
        let (_, offset) = best?;
        let candidate = c.stream_start() + offset as usize;
        (candidate > after && candidate < end).then_some(candidate)
    }

    /// Regression: after container-jump-table rebuilds (and the offset
    /// fix-ups that deletes apply to surviving entries), the one-pass
    /// `cjt_seed` must return exactly what the exhaustive probe returns for
    /// every possible target byte, and every entry must still reference an
    /// explicit T record with its own key.
    #[test]
    fn cjt_seed_is_exact_after_rebuilds() {
        let mut map = HyperionMap::with_config(HyperionConfig::for_integers());
        let mut x = 0xc1a0u64;
        // Enough keys to force CJT rebuilds in the root-level containers,
        // with interleaved deletes so cleared/fixed-up entries appear too.
        for i in 0..60_000u64 {
            let key = xorshift(&mut x).to_be_bytes();
            map.put(&key, i);
            if i % 5 == 0 {
                map.delete(&xorshift(&mut x).to_be_bytes());
            }
        }
        assert!(
            map.counters().cjt_rebuilds > 0,
            "workload must trigger jump-table rebuilds"
        );
        let mm = map.memory_manager();
        let root = map.root_pointer().expect("non-empty trie");
        let handles: Vec<ContainerHandle> = if root.superbin() == 0 && mm.is_chained(root) {
            mm.chained_valid_slots(root)
                .into_iter()
                .map(|index| ContainerHandle::ChainSlot { head: root, index })
                .collect()
        } else {
            vec![ContainerHandle::Standalone(root)]
        };
        let mut seen_entries = 0usize;
        for handle in handles {
            let c = ContainerRef::open(mm, handle);
            let (start, end) = (c.stream_start(), c.stream_end());
            for target in 0..=255u8 {
                assert_eq!(
                    cjt_seed(&c, target, start, end),
                    cjt_seed_exhaustive(&c, target, start, end),
                    "{handle:?}: target {target}"
                );
            }
            for (key, off) in c.cjt_entries() {
                seen_entries += 1;
                // `after` one below the stream start so the first entry (at
                // relative offset 0) is not suppressed by the bound check.
                let seeded = cjt_seed(&c, key, start - 1, end);
                assert_eq!(
                    seeded,
                    Some(start + off as usize),
                    "{handle:?}: entry {key} must seed its own exact offset"
                );
                let t =
                    parse_t_node(c.bytes(), start + off as usize, None).expect("CJT target parses");
                assert!(t.explicit_key, "{handle:?}: CJT target must be explicit");
                assert_eq!(t.key, key, "{handle:?}: CJT target key");
            }
        }
        assert!(seen_entries > 0, "root containers must carry CJT entries");
    }
}
