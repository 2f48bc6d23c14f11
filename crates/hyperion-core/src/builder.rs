//! Construction of fresh node streams.
//!
//! When a put operation has to materialise a brand-new subtree (first key of a
//! container, conversion of a path-compressed node that gained a sibling,
//! attachment of a child below an existing S-node), the bytes for that subtree
//! are built here and then spliced into the container in one go.
//!
//! The builder consumes two key bytes per level (T key + S key), stores values
//! inline, encodes unique suffixes as path-compressed nodes, nests small
//! subtrees as embedded containers and falls back to allocating real child
//! containers (referenced by Hyperion Pointers) when a subtree outgrows the
//! one-byte embedded size field.

use crate::config::HyperionConfig;
use crate::container::ContainerRef;
use crate::node::{
    delta_for, encode_pc_node, make_s_flag, make_t_flag, pc_fits, ChildKind, NodeType,
    TNODE_JT_ENTRIES, TNODE_JT_SIZE, TNODE_JT_STRIDE,
};
use crate::shortcut::Shortcut;
use hyperion_mem::MemoryManager;

/// One entry to encode: the remaining key suffix and its value.
pub type Entry = (Vec<u8>, u64);

/// Parent size beyond which even single-suffix children are spilled into
/// real containers instead of path-compressed nodes (see
/// [`StreamBuilder::with_parent_size`]).  A PC node costs up to 127 bytes of
/// parent; a Hyperion Pointer costs 5, so spilling *shrinks* the parent.
const PC_SPILL_SIZE: usize = 128 * 1024;

/// Builds node streams, allocating real child containers when necessary.
pub struct StreamBuilder<'a> {
    mm: &'a mut MemoryManager,
    config: &'a HyperionConfig,
    /// Size of the container the stream will be spliced into; 0 when unknown
    /// (fresh containers).  See [`StreamBuilder::with_parent_size`].
    parent_size: usize,
    /// When set, every real child container allocated by [`encode_child`](
    /// StreamBuilder::encode_child) is published to the hashed shortcut
    /// layer under its absolute transformed-key prefix, so bulk loads warm
    /// the cache as they build.  See [`StreamBuilder::with_shortcut`].
    shortcut: Option<&'a Shortcut>,
    /// Absolute transformed-key bytes consumed above the stream being built;
    /// grows by one byte per T/S level descended.
    prefix: Vec<u8>,
    /// Whether T records emitted at the current level may carry jump
    /// successors / jump tables.  Only top-level T records of *real*
    /// containers may: the write engine's offset fix-up after byte-shifting
    /// edits ([`crate::write`]'s `collect_fixes`) walks top-level records
    /// exclusively, so jumps inside embedded bodies would go stale on the
    /// first edit.  Defaults to off; [`StreamBuilder::with_jumps`] enables it
    /// for top-level splices, and [`StreamBuilder::encode_child`] re-derives
    /// it per child body.
    emit_jumps: bool,
    /// Whether any T record of the stream currently being built carries a
    /// jump.  [`StreamBuilder::encode_child`] scopes this per body: a body
    /// that received jumps must not be embedded even when it fits, because
    /// nested subtrees collapsing into 5-byte pointers can shrink a
    /// predicted-standalone body back under the embed limit.
    jumps_emitted: bool,
}

impl<'a> StreamBuilder<'a> {
    /// Creates a builder borrowing the trie's memory manager and configuration.
    pub fn new(mm: &'a mut MemoryManager, config: &'a HyperionConfig) -> Self {
        StreamBuilder {
            mm,
            config,
            parent_size: 0,
            shortcut: None,
            prefix: Vec::new(),
            emit_jumps: false,
            jumps_emitted: false,
        }
    }

    /// Allows jump successors / jump tables on the T records of the stream
    /// built by [`StreamBuilder::build_stream`].  Pass `true` only when the
    /// stream is spliced at the top level of a real container (see the field
    /// note on `emit_jumps`).
    pub fn with_jumps(mut self, on: bool) -> Self {
        self.emit_jumps = on;
        self
    }

    /// Publishes allocated child containers to `shortcut`.  `prefix` is the
    /// absolute transformed-key prefix the entries handed to
    /// [`StreamBuilder::build_stream`] (or the S-record/child entry points)
    /// were stripped of.
    pub fn with_shortcut(mut self, shortcut: &'a Shortcut, prefix: &[u8]) -> Self {
        if shortcut.is_enabled() {
            self.shortcut = Some(shortcut);
            self.prefix = prefix.to_vec();
        }
        self
    }

    /// Declares the current size of the destination container so child
    /// encoding can respond to eject pressure.
    ///
    /// Embedded containers are only ever *ejected* when a write descends
    /// through them ([`crate::write`]'s `make_room`), so a container that
    /// keeps receiving brand-new subtrees — and cannot split, like a chain
    /// slot already covering a single 32-key block — would grow embeds
    /// without bound and overflow the 19-bit container size field.  Past the
    /// eject threshold the builder therefore stops nesting: multi-key
    /// children go straight into real child containers (5-byte pointers in
    /// the parent), and past `PC_SPILL_SIZE` (128 KiB) even unique suffixes
    /// do.
    pub fn with_parent_size(mut self, size: usize) -> Self {
        self.parent_size = size;
        self
    }

    /// Builds a node stream (starting at the T level) for the given sorted,
    /// de-duplicated entries.  `prev_t_key` is the key of the T sibling that
    /// will precede the stream at its destination (for delta encoding).
    ///
    /// Entry suffixes must be non-empty and strictly ascending.
    pub fn build_stream(&mut self, prev_t_key: Option<u8>, entries: &[Entry]) -> Vec<u8> {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(entries.iter().all(|(k, _)| !k.is_empty()));
        let mut out = Vec::new();
        let mut prev_t = prev_t_key;
        let mut i = 0;
        while i < entries.len() {
            let t_key = entries[i].0[0];
            let mut j = i;
            while j < entries.len() && entries[j].0[0] == t_key {
                j += 1;
            }
            let group = &entries[i..j];
            self.emit_t_group(&mut out, prev_t, t_key, group);
            prev_t = Some(t_key);
            i = j;
        }
        out
    }

    /// Builds one or more S-node records for entries that all live below an
    /// existing T-node.  Entry suffixes start with the S key byte.
    /// `prev_s_key` is the key of the S sibling preceding the insertion point.
    pub fn build_s_records(&mut self, prev_s_key: Option<u8>, entries: &[Entry]) -> Vec<u8> {
        self.build_s_records_inner(prev_s_key, entries, false).0
    }

    /// Shared S-record emission.  With `seed_explicit` set, the last record
    /// at or below each jump-table slot bound (a seed target) is emitted with
    /// an explicit key byte — jump-table entries may only reference
    /// explicit-key records, because a seeded scan has no predecessor
    /// context — and reported back as `(key, start offset)`.
    fn build_s_records_inner(
        &mut self,
        prev_s_key: Option<u8>,
        entries: &[Entry],
        seed_explicit: bool,
    ) -> (Vec<u8>, Vec<(u8, usize)>) {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(entries.iter().all(|(k, _)| !k.is_empty()));
        let mut out = Vec::new();
        let mut seeds = Vec::new();
        let mut prev_s = prev_s_key;
        let mut i = 0;
        while i < entries.len() {
            let s_key = entries[i].0[0];
            let mut j = i;
            while j < entries.len() && entries[j].0[0] == s_key {
                j += 1;
            }
            let group = &entries[i..j];
            // A record is a seed target when some slot bound (a multiple of
            // the stride) separates it from its successor: it is then the
            // greatest record at or below that bound.
            let is_seed = seed_explicit && {
                let bound = ((s_key as usize).div_ceil(TNODE_JT_STRIDE) * TNODE_JT_STRIDE)
                    .max(TNODE_JT_STRIDE);
                bound <= TNODE_JT_STRIDE * TNODE_JT_ENTRIES
                    && entries.get(j).map_or(true, |e| (e.0[0] as usize) > bound)
            };
            if is_seed {
                seeds.push((s_key, out.len()));
            }
            self.emit_s_record(&mut out, if is_seed { None } else { prev_s }, s_key, group);
            prev_s = Some(s_key);
            i = j;
        }
        (out, seeds)
    }

    fn emit_t_group(&mut self, out: &mut Vec<u8>, prev_t: Option<u8>, t_key: u8, group: &[Entry]) {
        // A suffix of length 1 terminates at the T-node itself.
        let t_value = group.iter().find(|(k, _)| k.len() == 1).map(|(_, v)| *v);
        let s_entries: Vec<Entry> = group
            .iter()
            .filter(|(k, _)| k.len() >= 2)
            .map(|(k, v)| (k[1..].to_vec(), *v))
            .collect();
        let node_type = if t_value.is_some() {
            NodeType::LeafWithValue
        } else if s_entries.is_empty() {
            NodeType::LeafNoValue
        } else {
            NodeType::Inner
        };
        // Emit the jump structures straight from the builder when the child
        // count warrants them: retrofitting them through the write engine's
        // lazy maintenance only happens on later write descents, so purely
        // bulk-loaded containers would serve every read with a linear
        // S-record walk until then.
        let s_child_count = {
            let mut count = 0usize;
            let mut last: Option<u8> = None;
            for (k, _) in &s_entries {
                if last != Some(k[0]) {
                    count += 1;
                    last = Some(k[0]);
                }
            }
            count
        };
        let has_js = self.emit_jumps
            && self.config.jump_successor
            && s_child_count >= self.config.jump_successor_threshold;
        let has_jt = self.emit_jumps
            && self.config.tnode_jump_table
            && s_child_count >= self.config.tnode_jump_table_threshold;
        if has_js || has_jt {
            self.jumps_emitted = true;
        }
        let t_start = out.len();
        let delta = delta_for(prev_t, t_key, self.config.delta_encoding);
        out.push(make_t_flag(node_type, delta.unwrap_or(0), has_js, has_jt));
        if delta.is_none() {
            out.push(t_key);
        }
        if let Some(v) = t_value {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let js_pos = out.len();
        if has_js {
            out.extend_from_slice(&[0; 2]);
        }
        let jt_pos = out.len();
        if has_jt {
            out.resize(out.len() + TNODE_JT_SIZE, 0);
        }
        let header_len = out.len() - t_start;
        // S children in order.
        self.prefix.push(t_key);
        let (s_stream, seeds) = self.build_s_records_inner(None, &s_entries, has_jt);
        self.prefix.pop();
        out.extend_from_slice(&s_stream);
        if has_js {
            // The jump successor points from the T record past its whole
            // subtree; 0 stays if the span exceeds 16 bits ("walk instead").
            let js_value = out.len() - t_start;
            if js_value <= u16::MAX as usize {
                out[js_pos..js_pos + 2].copy_from_slice(&(js_value as u16).to_le_bytes());
            }
        }
        if has_jt {
            // Slot i references the greatest explicit-key child with key
            // <= stride * (i + 1); ascending overwrite mirrors the write
            // engine's fill.
            let mut slots = [0u16; TNODE_JT_ENTRIES];
            for (key, off) in &seeds {
                let rel = header_len + off;
                if rel > u16::MAX as usize {
                    break;
                }
                let first_slot = (*key as usize).div_ceil(TNODE_JT_STRIDE).saturating_sub(1);
                for slot in slots.iter_mut().skip(first_slot) {
                    *slot = rel as u16;
                }
            }
            for (i, v) in slots.iter().enumerate() {
                out[jt_pos + i * 2..jt_pos + i * 2 + 2].copy_from_slice(&v.to_le_bytes());
            }
        }
    }

    fn emit_s_record(&mut self, out: &mut Vec<u8>, prev_s: Option<u8>, s_key: u8, group: &[Entry]) {
        let s_value = group.iter().find(|(k, _)| k.len() == 1).map(|(_, v)| *v);
        let children: Vec<Entry> = group
            .iter()
            .filter(|(k, _)| k.len() >= 2)
            .map(|(k, v)| (k[1..].to_vec(), *v))
            .collect();
        let node_type = if s_value.is_some() {
            NodeType::LeafWithValue
        } else if children.is_empty() {
            NodeType::LeafNoValue
        } else {
            NodeType::Inner
        };
        self.prefix.push(s_key);
        let (child_kind, child_bytes) = self.encode_child(&children);
        self.prefix.pop();
        let delta = delta_for(prev_s, s_key, self.config.delta_encoding);
        out.push(make_s_flag(node_type, delta.unwrap_or(0), child_kind));
        if delta.is_none() {
            out.push(s_key);
        }
        if let Some(v) = s_value {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&child_bytes);
    }

    /// Encodes the child payload for the given child entries (suffixes below
    /// an S-node).  Chooses, in order of preference: no child, a
    /// path-compressed node, an embedded container, a real child container —
    /// degrading towards real containers when the destination is under eject
    /// pressure (see [`StreamBuilder::with_parent_size`]).
    pub fn encode_child(&mut self, children: &[Entry]) -> (ChildKind, Vec<u8>) {
        if children.is_empty() {
            return (ChildKind::None, Vec::new());
        }
        let pressure = self.parent_size >= self.config.eject_threshold;
        if children.len() == 1 && pc_fits(children[0].0.len()) && self.parent_size < PC_SPILL_SIZE {
            let (suffix, value) = &children[0];
            return (
                ChildKind::PathCompressed,
                encode_pc_node(suffix, Some(*value)),
            );
        }
        // Jumps are only legal in real containers; enable them for the child
        // body when it looks destined for the Pointer branch below (every
        // entry needs its 8-byte value plus at least one structure byte, so
        // `9 * len` lower-bounding past `embedded_max` usually settles it).
        // The prediction is not airtight — nested subtrees collapsing into
        // 5-byte pointers can shrink the body back under the embed limit —
        // so a body that actually received jumps is forced standalone.
        // Rebuilding it jump-free instead would re-run nested allocations,
        // leaking the first build's child containers and their shortcut
        // entries.
        let standalone = pressure || children.len() * 9 >= self.config.embedded_max;
        let saved_jumps = self.emit_jumps;
        let saved_emitted = self.jumps_emitted;
        self.emit_jumps = standalone;
        self.jumps_emitted = false;
        let body = self.build_stream(None, children);
        let body_has_jumps = self.jumps_emitted;
        self.emit_jumps = saved_jumps;
        self.jumps_emitted = saved_emitted;
        if !pressure && !body_has_jumps && body.len() < self.config.embedded_max {
            let mut bytes = Vec::with_capacity(body.len() + 1);
            bytes.push((body.len() + 1) as u8);
            bytes.extend_from_slice(&body);
            (ChildKind::Embedded, bytes)
        } else {
            let container = ContainerRef::create(self.mm, &body);
            let hp = container.handle().stored_pointer();
            if let Some(shortcut) = self.shortcut {
                // Fresh subtree at a cacheable depth: seed it so the keys
                // just bulk-loaded are warm before their first read.
                shortcut.publish(&self.prefix, hp);
            }
            (ChildKind::Pointer, hp.to_bytes().to_vec())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{parse_s_node, parse_t_node};

    fn build(entries: &[(&[u8], u64)]) -> (Vec<u8>, MemoryManager) {
        let mut mm = MemoryManager::new();
        let config = HyperionConfig::default();
        let mut sorted: Vec<Entry> = entries.iter().map(|(k, v)| (k.to_vec(), *v)).collect();
        sorted.sort();
        let bytes = {
            let mut b = StreamBuilder::new(&mut mm, &config);
            b.build_stream(None, &sorted)
        };
        (bytes, mm)
    }

    #[test]
    fn single_short_key_becomes_t_leaf() {
        let (bytes, _mm) = build(&[(b"a", 7)]);
        let t = parse_t_node(&bytes, 0, None).unwrap();
        assert_eq!(t.key, b'a');
        assert_eq!(t.node_type, NodeType::LeafWithValue);
        assert_eq!(t.header_end, bytes.len());
    }

    #[test]
    fn two_byte_key_becomes_t_plus_s() {
        let (bytes, _mm) = build(&[(b"be", 9)]);
        let t = parse_t_node(&bytes, 0, None).unwrap();
        assert_eq!(t.key, b'b');
        assert_eq!(t.node_type, NodeType::Inner);
        let s = parse_s_node(&bytes, t.header_end, None).unwrap();
        assert_eq!(s.key, b'e');
        assert_eq!(s.node_type, NodeType::LeafWithValue);
        assert_eq!(s.child, ChildKind::None);
        assert_eq!(s.end, bytes.len());
    }

    #[test]
    fn long_key_uses_path_compression() {
        let (bytes, _mm) = build(&[(b"theorem", 1)]);
        let t = parse_t_node(&bytes, 0, None).unwrap();
        assert_eq!(t.key, b't');
        let s = parse_s_node(&bytes, t.header_end, None).unwrap();
        assert_eq!(s.key, b'h');
        assert_eq!(s.child, ChildKind::PathCompressed);
        let (has_value, value, range) = crate::node::parse_pc_node(&bytes, s.child_offset.unwrap());
        assert!(has_value);
        assert_eq!(value, 1);
        assert_eq!(&bytes[range], b"eorem");
    }

    #[test]
    fn sibling_keys_share_t_node_and_use_delta() {
        // Paper Figure 6: container C3 stores "at" and "e".
        let (bytes, _mm) = build(&[(b"at", 10), (b"e", 20)]);
        let t_a = parse_t_node(&bytes, 0, None).unwrap();
        assert_eq!(t_a.key, b'a');
        let s_t = parse_s_node(&bytes, t_a.header_end, None).unwrap();
        assert_eq!(s_t.key, b't');
        assert_eq!(s_t.node_type, NodeType::LeafWithValue);
        let t_e = parse_t_node(&bytes, s_t.end, Some(t_a.key)).unwrap();
        assert_eq!(t_e.key, b'e');
        assert!(!t_e.explicit_key, "delta 4 fits in three bits");
    }

    #[test]
    fn shared_prefix_groups_under_one_t_node() {
        // Paper Figure 6: C3* stores "at" and "ae"; e precedes t among siblings.
        let (bytes, _mm) = build(&[(b"at", 1), (b"ae", 2)]);
        let t = parse_t_node(&bytes, 0, None).unwrap();
        assert_eq!(t.key, b'a');
        let s_e = parse_s_node(&bytes, t.header_end, None).unwrap();
        assert_eq!(s_e.key, b'e');
        let s_t = parse_s_node(&bytes, s_e.end, Some(s_e.key)).unwrap();
        assert_eq!(s_t.key, b't');
        assert!(
            s_t.explicit_key,
            "delta 15 exceeds three bits, explicit key required"
        );
    }

    #[test]
    fn multiple_long_children_become_embedded_container() {
        let (bytes, _mm) = build(&[(b"common-alpha", 1), (b"common-beta", 2)]);
        let t = parse_t_node(&bytes, 0, None).unwrap();
        let s = parse_s_node(&bytes, t.header_end, None).unwrap();
        assert_eq!(s.child, ChildKind::Embedded);
        // The embedded body itself is a valid node stream.
        let emb = s.child_offset.unwrap();
        let size = bytes[emb] as usize;
        assert!(size > 2);
        let inner_t = parse_t_node(&bytes[..emb + size], emb + 1, None).unwrap();
        assert_eq!(inner_t.key, b'm');
    }

    #[test]
    fn huge_subtree_spills_into_real_container() {
        // Many children with long suffixes cannot fit in a 255-byte embedded
        // container, so the builder must allocate a real child container.
        let mut entries: Vec<(Vec<u8>, u64)> = Vec::new();
        for i in 0..64u8 {
            entries.push((
                format!("pp{:02}-rather-long-suffix", i).into_bytes(),
                i as u64,
            ));
        }
        entries.sort();
        let mut mm = MemoryManager::new();
        let config = HyperionConfig::default();
        let bytes = {
            let mut b = StreamBuilder::new(&mut mm, &config);
            b.build_stream(None, &entries)
        };
        let t = parse_t_node(&bytes, 0, None).unwrap();
        let s = parse_s_node(&bytes, t.header_end, None).unwrap();
        assert_eq!(s.child, ChildKind::Pointer);
        let stats = mm.stats();
        assert!(
            stats.allocated_chunks() > 1,
            "a child container was allocated"
        );
    }

    #[test]
    fn delta_disabled_stores_explicit_keys() {
        let mut mm = MemoryManager::new();
        let config = HyperionConfig {
            delta_encoding: false,
            ..Default::default()
        };
        let entries: Vec<Entry> = vec![(b"a".to_vec(), 1), (b"b".to_vec(), 2)];
        let bytes = {
            let mut b = StreamBuilder::new(&mut mm, &config);
            b.build_stream(None, &entries)
        };
        let t_a = parse_t_node(&bytes, 0, None).unwrap();
        let t_b = parse_t_node(&bytes, t_a.header_end, Some(t_a.key)).unwrap();
        assert!(t_a.explicit_key);
        assert!(t_b.explicit_key, "delta encoding disabled");
        assert_eq!(t_b.key, b'b');
    }
}
