//! Linear scanning of a container's node stream.
//!
//! Hyperion deliberately trades SIMD comparisons and fixed offsets for a
//! compact exact-fit layout that is scanned linearly (paper Figure 2d).  The
//! helpers in this module walk the pre-order byte stream, using the optional
//! acceleration structures when they are present:
//!
//! * the *container jump table* to start the T-node walk close to the target,
//! * per-T-node *jump successor* offsets to skip over a T-node's S children,
//! * per-T-node *jump tables* to start the S-node walk close to the target.
//!
//! Two families of walks share those seeds.  The write engine's
//! [`t_scan`]/[`s_scan`] parse every visited record, because an edit needs
//! the insertion point, the delta predecessor and the successor.  The read
//! engine's finds (`t_find_scalar`, `t_find_from_scalar` and their S
//! twins) decode only each record's key byte, skip mismatches by lengths
//! derived from the flag byte, and parse the match exactly once.

use crate::container::{ContainerRef, CJT_ENTRY_SIZE, HEADER_SIZE};
use crate::node::{
    is_invalid, is_t_node, parse_s_node, parse_t_node, SNode, TNode, HP_SIZE, JS_SIZE,
    TNODE_JT_ENTRIES, TNODE_JT_SIZE, TNODE_JT_STRIDE, VALUE_SIZE,
};

/// Result of scanning for a T-node with a given partial key.
#[derive(Debug)]
pub struct TScan {
    /// The matching T-node, if present.
    pub found: Option<TNode>,
    /// Offset where a new T record with the target key must be inserted to
    /// keep the siblings ordered.
    pub insert_at: usize,
    /// Key of the last T sibling smaller than the target (delta-encoding
    /// predecessor for an insertion).
    pub prev_key: Option<u8>,
    /// The first T sibling greater than the target, if any (its delta field
    /// must be re-encoded after an insertion).
    pub successor: Option<TNode>,
    /// Number of T records visited (used to decide when to grow the container
    /// jump table).
    pub scanned: usize,
}

/// Result of scanning a T-node's children for an S-node with a given key.
#[derive(Debug)]
pub struct SScan {
    /// The matching S-node, if present.
    pub found: Option<SNode>,
    /// Offset where a new S record must be inserted.
    pub insert_at: usize,
    /// Key of the last S sibling smaller than the target.
    pub prev_key: Option<u8>,
    /// The first S sibling greater than the target, if any.
    pub successor: Option<SNode>,
    /// Number of S children visited before stopping.
    pub visited: usize,
}

/// Returns the offset of the record following `t`'s children, i.e. the next T
/// sibling (or the end of the used region).  Uses the jump-successor offset
/// when present, otherwise walks the S records.
pub fn skip_t_children(c: &ContainerRef, t: &TNode, end: usize) -> usize {
    if let Some(js_off) = t.js_offset {
        let v = c.read_u16(js_off) as usize;
        if v != 0 {
            return (t.offset + v).min(end);
        }
    }
    let bytes = c.bytes();
    let mut pos = t.header_end;
    while pos < end {
        let flag = bytes[pos];
        if is_invalid(flag) || is_t_node(flag) {
            break;
        }
        let s = parse_s_node(bytes, pos, None).expect("corrupt S record");
        pos = s.end;
    }
    pos.min(end)
}

/// Best container-jump-table seed for `target`: the position of the greatest
/// entry with key `<= target`, if it lies strictly inside `(after, end)`.
/// Entries always reference explicit-key T records, so a caller resuming at
/// the returned position needs no predecessor context.
///
/// The table's live entries are ascending by key (cleared entries are zero),
/// so the scan stops at the first entry past the target instead of reading
/// every slot of every group.
pub fn cjt_seed(c: &ContainerRef, target: u8, after: usize, end: usize) -> Option<usize> {
    let groups = c.jt_groups();
    if groups == 0 {
        return None;
    }
    let bytes = c.bytes();
    let mut best: Option<u32> = None;
    for i in 0..groups * crate::container::CJT_GROUP {
        let off = HEADER_SIZE + i * CJT_ENTRY_SIZE;
        let raw = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        if raw == 0 {
            continue;
        }
        if (raw & 0xff) as u8 > target {
            // Live keys ascend: no later entry can improve on `best`.
            break;
        }
        best = Some(raw >> 8);
    }
    let candidate = c.stream_start() + best? as usize;
    (candidate > after && candidate < end).then_some(candidate)
}

/// Best T-node jump-table seed for `target` below the T record at
/// `t_offset` (jump table at `jt_off`): the position of the greatest usable
/// slot, if it lies strictly inside `(after, end)`.  Slot entries reference
/// explicit-key S records with keys no greater than
/// [`TNODE_JT_STRIDE`]` * (slot + 1)`.
pub fn tnode_jt_seed(
    c: &ContainerRef,
    t_offset: usize,
    jt_off: usize,
    target: u8,
    after: usize,
    end: usize,
) -> Option<usize> {
    if (target as usize) < TNODE_JT_STRIDE {
        return None;
    }
    let max_slot = (target as usize / TNODE_JT_STRIDE)
        .saturating_sub(1)
        .min(TNODE_JT_ENTRIES - 1);
    for slot in (0..=max_slot).rev() {
        let v = c.read_u16(jt_off + slot * 2) as usize;
        if v != 0 {
            let candidate = t_offset + v;
            return (candidate > after && candidate < end).then_some(candidate);
        }
    }
    None
}

/// Scans the region `[start, end)` for the T-node with partial key `target`.
///
/// `use_cjt` enables the container jump table (only valid when `start` is the
/// container's stream start).
pub fn t_scan(c: &ContainerRef, start: usize, end: usize, target: u8, use_cjt: bool) -> TScan {
    t_scan_from(c, start, end, None, target, use_cjt)
}

/// Like [`t_scan`], but resumes from a mid-region position: `start` is the
/// offset of some T record (or the region end) and `prev_key` the key of the
/// record preceding it.  The write engine uses this to continue a batch scan
/// from the previous key's position instead of the region start.
pub fn t_scan_from(
    c: &ContainerRef,
    start: usize,
    end: usize,
    resume_prev: Option<u8>,
    target: u8,
    use_cjt: bool,
) -> TScan {
    let bytes = c.bytes();
    let mut pos = start;
    let mut prev_key: Option<u8> = resume_prev;
    // Container jump table: start scanning at the greatest entry with
    // key <= target.  The true predecessor is unknown after a jump, which is
    // safe: inserts fall back to an explicit key byte.
    if use_cjt {
        if let Some(candidate) = cjt_seed(c, target, pos, end) {
            pos = candidate;
            prev_key = None;
        }
    }
    let mut scanned = 0usize;
    loop {
        if pos >= end || is_invalid(bytes[pos]) {
            return TScan {
                found: None,
                insert_at: pos.min(end),
                prev_key,
                successor: None,
                scanned,
            };
        }
        debug_assert!(is_t_node(bytes[pos]), "expected T record at {pos}");
        let t = parse_t_node(bytes, pos, prev_key).expect("corrupt T record");
        scanned += 1;
        if t.key == target {
            return TScan {
                found: Some(t),
                insert_at: pos,
                prev_key,
                successor: None,
                scanned,
            };
        }
        if t.key > target {
            return TScan {
                found: None,
                insert_at: pos,
                prev_key,
                successor: Some(t),
                scanned,
            };
        }
        prev_key = Some(t.key);
        pos = skip_t_children(c, &t, end);
    }
}

/// Scans the S children of `t` for the S-node with partial key `target`.
pub fn s_scan(c: &ContainerRef, t: &TNode, end: usize, target: u8) -> SScan {
    s_scan_from(
        c,
        t.header_end,
        end,
        None,
        target,
        Some((t.offset, t.jt_offset)),
    )
}

/// Like [`s_scan`], but resumes from a mid-run position: `start` is the
/// offset of some S record (or the end of the run) and `resume_prev` the key
/// of the S sibling preceding it.  `jt` carries the owning T record's offset
/// and jump-table offset for seeding the initial position.
pub fn s_scan_from(
    c: &ContainerRef,
    start: usize,
    end: usize,
    resume_prev: Option<u8>,
    target: u8,
    jt: Option<(usize, Option<usize>)>,
) -> SScan {
    let bytes = c.bytes();
    let mut pos = start;
    let mut prev_key: Option<u8> = resume_prev;
    // T-node jump table: start the child walk at the greatest usable slot.
    if let Some((t_offset, Some(jt_off))) = jt {
        if let Some(candidate) = tnode_jt_seed(c, t_offset, jt_off, target, pos, end) {
            pos = candidate;
            prev_key = None;
        }
    }
    let mut visited = 0usize;
    loop {
        if pos >= end || is_invalid(bytes[pos]) || is_t_node(bytes[pos]) {
            return SScan {
                found: None,
                insert_at: pos.min(end),
                prev_key,
                successor: None,
                visited,
            };
        }
        let s = parse_s_node(bytes, pos, prev_key).expect("corrupt S record");
        visited += 1;
        if s.key == target {
            return SScan {
                found: Some(s),
                insert_at: pos,
                prev_key,
                successor: None,
                visited,
            };
        }
        if s.key > target {
            return SScan {
                found: None,
                insert_at: pos,
                prev_key,
                successor: Some(s),
                visited,
            };
        }
        prev_key = Some(s.key);
        pos = s.end;
    }
}

/// Walks all T records of a region, returning `(offset, key, explicit)` per
/// record.  Used for structural maintenance (jump-table rebuilds, splits,
/// offset fix-ups) and for the statistics collector.
pub fn collect_t_records(c: &ContainerRef, start: usize, end: usize) -> Vec<TNode> {
    let bytes = c.bytes();
    let mut out = Vec::new();
    let mut pos = start;
    let mut prev_key = None;
    while pos < end && !is_invalid(bytes[pos]) {
        debug_assert!(is_t_node(bytes[pos]));
        let t = parse_t_node(bytes, pos, prev_key).expect("corrupt T record");
        prev_key = Some(t.key);
        pos = {
            // Do not trust jump offsets during maintenance walks: walk records.
            let mut p = t.header_end;
            while p < end && !is_invalid(bytes[p]) && !is_t_node(bytes[p]) {
                let s = parse_s_node(bytes, p, None).expect("corrupt S record");
                p = s.end;
            }
            p
        };
        out.push(t);
    }
    out
}

/// Walks all T records of a region like [`collect_t_records`], but hops over
/// each record's children via its jump successor when present.  Only valid
/// when the container is in a consistent state (no byte shift in flight):
/// the write engine's offset fix-ups keep jump successors exact, so walks
/// performed *between* edits (container-jump-table rebuilds) can trust them.
pub fn collect_t_records_trusted(c: &ContainerRef, start: usize, end: usize) -> Vec<TNode> {
    collect_t_records_trusted_bounded(c, start, end, None)
}

/// Like [`collect_t_records_trusted`], but stops before the first record
/// whose key exceeds `max_key` (when given).  The reverse cursor uses this
/// as its per-frame checkpoint pass: one forward scan of the region records
/// every sibling offset at or below the seek bound, and the walk then plays
/// the checkpoints back in descending order — siblings above the bound are
/// never even collected.
pub fn collect_t_records_trusted_bounded(
    c: &ContainerRef,
    start: usize,
    end: usize,
    max_key: Option<u8>,
) -> Vec<TNode> {
    let bytes = c.bytes();
    let mut out = Vec::new();
    let mut pos = start;
    let mut prev_key = None;
    while pos < end && !is_invalid(bytes[pos]) {
        // An S flag here means the stream is torn (optimistic reverse reader
        // racing a writer): stop collecting — the seqlock validation
        // discards whatever was gathered so far.
        if !is_t_node(bytes[pos]) {
            break;
        }
        let t = parse_t_node(bytes, pos, prev_key).expect("corrupt T record");
        if max_key.is_some_and(|m| t.key > m) {
            break;
        }
        prev_key = Some(t.key);
        pos = skip_t_children(c, &t, end);
        out.push(t);
    }
    out
}

/// Walks all S records belonging to `t`, in order.
pub fn collect_s_records(c: &ContainerRef, t: &TNode, end: usize) -> Vec<SNode> {
    collect_s_records_bounded(c, t, end, None)
}

/// Like [`collect_s_records`], but stops before the first child whose key
/// exceeds `max_key` (when given) — the S-level checkpoint pass of the
/// reverse cursor.
pub fn collect_s_records_bounded(
    c: &ContainerRef,
    t: &TNode,
    end: usize,
    max_key: Option<u8>,
) -> Vec<SNode> {
    collect_s_records_from(c, t.header_end, end, max_key)
}

/// S-record collection resuming at an arbitrary record offset `start` (the
/// first S child of a T record, or a T-node jump-table target — both start
/// explicit-key records, so no predecessor context is needed).  Stops at the
/// run's end (next T record / invalid byte / `end`) or before the first key
/// above `max_key`.
pub fn collect_s_records_from(
    c: &ContainerRef,
    start: usize,
    end: usize,
    max_key: Option<u8>,
) -> Vec<SNode> {
    let bytes = c.bytes();
    let mut out = Vec::new();
    let mut pos = start;
    let mut prev_key = None;
    while pos < end && !is_invalid(bytes[pos]) && !is_t_node(bytes[pos]) {
        let s = parse_s_node(bytes, pos, prev_key).expect("corrupt S record");
        if max_key.is_some_and(|m| s.key > m) {
            break;
        }
        prev_key = Some(s.key);
        pos = s.end;
        out.push(s);
    }
    out
}

// ---------------------------------------------------------------------------
// lean finds of the read engine
// ---------------------------------------------------------------------------

/// Resume state of a lean batched scan: the offset of the next unvisited
/// record and the delta-decoding predecessor key at that offset, carried
/// across the probes of one sorted batch by [`t_find_from_scalar`] and
/// [`s_find_from_scalar`].
pub(crate) struct Resume {
    /// Offset of the next unvisited record (or the region end).
    pub(crate) pos: usize,
    /// Key of the record preceding `pos`, `None` when `pos` starts a run.
    pub(crate) prev: Option<u8>,
}

/// `true` if the record stores an inline value (`NodeType::LeafWithValue`).
#[inline(always)]
fn flag_has_value(flag: u8) -> bool {
    flag & 0b11 == 0b11
}

/// Offset just past the S record at `pos`, derived from the flag byte alone
/// (no `SNode` is materialised).
#[inline(always)]
pub(crate) fn s_record_end(bytes: &[u8], pos: usize) -> usize {
    let flag = bytes[pos];
    let explicit = (flag >> 3) & 0b111 == 0;
    let mut cursor =
        pos + 1 + explicit as usize + if flag_has_value(flag) { VALUE_SIZE } else { 0 };
    match (flag >> 6) & 0b11 {
        0 => {}
        1 => cursor += HP_SIZE,
        2 => cursor += (bytes[cursor] as usize).max(1),
        _ => cursor += ((bytes[cursor] & 0x7f) as usize).max(1),
    }
    cursor
}

/// Offset of the T sibling following the record at `pos`, using the
/// jump-successor offset when present and a lean S-record walk otherwise.
#[inline]
pub(crate) fn t_skip(bytes: &[u8], pos: usize, end: usize) -> usize {
    let flag = bytes[pos];
    let explicit = (flag >> 3) & 0b111 == 0;
    let mut cursor =
        pos + 1 + explicit as usize + if flag_has_value(flag) { VALUE_SIZE } else { 0 };
    if flag & (1 << 6) != 0 {
        let v = u16::from_le_bytes([bytes[cursor], bytes[cursor + 1]]) as usize;
        if v != 0 {
            return (pos + v).min(end);
        }
        cursor += JS_SIZE;
    }
    if flag & (1 << 7) != 0 {
        cursor += TNODE_JT_SIZE;
    }
    let mut p = cursor;
    while p < end {
        let f = bytes[p];
        if is_invalid(f) || is_t_node(f) {
            break;
        }
        p = s_record_end(bytes, p);
    }
    p.min(end)
}

/// The point T find in `[start, end)`: decodes only each record's key
/// byte, skips mismatching records by flag-derived lengths, parses the
/// match exactly once.  `use_cjt` seeds the start position from the
/// container jump table (valid only when `start` is the container's stream
/// start).
pub(crate) fn t_find_scalar(
    c: &ContainerRef,
    start: usize,
    end: usize,
    target: u8,
    use_cjt: bool,
) -> Option<TNode> {
    let bytes = c.bytes();
    let mut pos = start;
    if use_cjt {
        if let Some(seed) = cjt_seed(c, target, pos, end) {
            pos = seed;
        }
    }
    // The first visited record is always explicit-key (region starts and CJT
    // targets are), so a zero predecessor never leaks into a decoded key.
    let mut prev: u8 = 0;
    while pos < end {
        let flag = bytes[pos];
        if is_invalid(flag) {
            return None;
        }
        // An S flag here means the stream is torn (optimistic reader racing
        // a writer): miss gracefully, the seqlock validation discards it.
        if !is_t_node(flag) {
            return None;
        }
        let delta = (flag >> 3) & 0b111;
        let key = if delta == 0 {
            bytes[pos + 1]
        } else {
            prev.wrapping_add(delta)
        };
        if key >= target {
            if key > target {
                return None;
            }
            return parse_t_node(bytes, pos, Some(prev));
        }
        prev = key;
        pos = t_skip(bytes, pos, end);
    }
    None
}

/// Resume-capable T find: continues from (and updates) `state` so a sorted
/// batch walks each record at most once.  On a match the state resumes past
/// the record's subtree; on a miss it rests at the first record past the
/// target with its true delta predecessor, so the next probe continues from
/// there.  `use_cjt` seeds from the container jump table, and only seeds
/// past `state.pos` are taken.
pub(crate) fn t_find_from_scalar(
    c: &ContainerRef,
    state: &mut Resume,
    end: usize,
    target: u8,
    use_cjt: bool,
) -> Option<TNode> {
    let bytes = c.bytes();
    if use_cjt {
        if let Some(seed) = cjt_seed(c, target, state.pos, end) {
            state.pos = seed;
            state.prev = None;
        }
    }
    loop {
        let pos = state.pos;
        if pos >= end {
            return None;
        }
        let flag = bytes[pos];
        if is_invalid(flag) {
            return None;
        }
        // Torn stream (see `t_find_scalar`): miss instead of asserting.
        if !is_t_node(flag) {
            return None;
        }
        let delta = (flag >> 3) & 0b111;
        let key = if delta == 0 {
            bytes[pos + 1]
        } else {
            state.prev.unwrap_or(0).wrapping_add(delta)
        };
        if key >= target {
            if key > target {
                return None;
            }
            let t = parse_t_node(bytes, pos, state.prev);
            // Resume past this record's subtree for the next probe.
            state.pos = t_skip(bytes, pos, end);
            state.prev = Some(key);
            return t;
        }
        state.prev = Some(key);
        state.pos = t_skip(bytes, pos, end);
    }
}

/// Resume-capable S find below the T record described by `jt` (its offset
/// and jump-table offset); same state contract as [`t_find_from_scalar`].
pub(crate) fn s_find_from_scalar(
    c: &ContainerRef,
    state: &mut Resume,
    end: usize,
    target: u8,
    jt: (usize, Option<usize>),
) -> Option<SNode> {
    let bytes = c.bytes();
    if let (t_off, Some(jt_off)) = jt {
        if let Some(seed) = tnode_jt_seed(c, t_off, jt_off, target, state.pos, end) {
            state.pos = seed;
            state.prev = None;
        }
    }
    loop {
        let pos = state.pos;
        if pos >= end {
            return None;
        }
        let flag = bytes[pos];
        if is_invalid(flag) || is_t_node(flag) {
            return None;
        }
        let delta = (flag >> 3) & 0b111;
        let key = if delta == 0 {
            bytes[pos + 1]
        } else {
            state.prev.unwrap_or(0).wrapping_add(delta)
        };
        if key >= target {
            if key > target {
                return None;
            }
            let s = parse_s_node(bytes, pos, state.prev);
            state.pos = s_record_end(bytes, pos);
            state.prev = Some(key);
            return s;
        }
        state.prev = Some(key);
        state.pos = s_record_end(bytes, pos);
    }
}

/// The point S find among the children starting at `start`; `jt` carries
/// the owning T record's offset and jump-table offset for seeding.
pub(crate) fn s_find_scalar(
    c: &ContainerRef,
    start: usize,
    end: usize,
    target: u8,
    jt: (usize, Option<usize>),
) -> Option<SNode> {
    let bytes = c.bytes();
    let mut pos = start;
    if let (t_off, Some(jt_off)) = jt {
        if let Some(seed) = tnode_jt_seed(c, t_off, jt_off, target, pos, end) {
            pos = seed;
        }
    }
    let mut prev: u8 = 0;
    while pos < end {
        let flag = bytes[pos];
        if is_invalid(flag) || is_t_node(flag) {
            return None;
        }
        let delta = (flag >> 3) & 0b111;
        let key = if delta == 0 {
            bytes[pos + 1]
        } else {
            prev.wrapping_add(delta)
        };
        if key >= target {
            if key > target {
                return None;
            }
            return parse_s_node(bytes, pos, Some(prev));
        }
        prev = key;
        pos = s_record_end(bytes, pos);
    }
    None
}
