//! Stateful cursors and lazy ordered iterators over the Hyperion trie.
//!
//! This module is the single traversal engine for every ordered read: the
//! [`Cursor`] walks the container/node byte stream *incrementally* with an
//! explicit frame stack, so keys are produced one at a time without ever
//! materialising the key set.  Everything else — [`Iter`], [`Range`],
//! [`Prefix`], the callback helpers (`range_from`, `for_each`) and the
//! [`crate::OrderedRead`] trait plumbing — is a thin adapter over it.
//!
//! ```
//! use hyperion_core::HyperionMap;
//!
//! let map: HyperionMap = [(b"that".to_vec(), 1), (b"the".to_vec(), 2), (b"to".to_vec(), 3)]
//!     .into_iter()
//!     .collect();
//!
//! // Lazy range scan: no Vec of keys is built behind the scenes.
//! let hits: Vec<_> = map.range(&b"th"[..]..&b"ti"[..]).map(|(k, _)| k).collect();
//! assert_eq!(hits, vec![b"that".to_vec(), b"the".to_vec()]);
//!
//! // Seek-and-step with an explicit cursor.
//! let mut cur = map.cursor();
//! cur.seek(b"the");
//! assert_eq!(cur.next(), Some((b"the".to_vec(), 2)));
//! assert_eq!(cur.next(), Some((b"to".to_vec(), 3)));
//! assert_eq!(cur.next(), None);
//! ```

use crate::container::{ContainerHandle, ContainerRef};
use crate::node::{
    is_invalid, is_t_node, parse_pc_node, parse_s_node, parse_t_node, ChildKind, SNode, TNode,
};
use crate::scan::{
    cjt_seed, collect_s_records_from, collect_t_records_trusted_bounded, skip_t_children,
    tnode_jt_seed,
};
use crate::trie::HyperionMap;
use hyperion_mem::HyperionPointer;
use std::cmp::Ordering;
use std::ops::{Bound, RangeBounds};

/// Computes the exclusive upper bound of the key range sharing `prefix`:
/// the smallest byte string greater than every key starting with `prefix`.
/// Returns `None` when no such bound exists (`prefix` is empty or all `0xff`).
pub fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(&last) = end.last() {
        if last == 0xff {
            end.pop();
        } else {
            *end.last_mut().unwrap() += 1;
            return Some(end);
        }
    }
    None
}

/// `true` if every key below the subtree identified by `prefix` is strictly
/// smaller than `start` (prune condition for seeks).
#[inline]
fn subtree_before_start(prefix: &[u8], start: &[u8]) -> bool {
    let l = prefix.len().min(start.len());
    prefix[..l] < start[..l]
}

/// One suspended position inside the depth-first walk of the trie.
///
/// The stack discipline mirrors the byte-stream layout: a `Tops` frame walks
/// the T records of one container region, pushing one `Subs` frame per
/// T record; a `Subs` frame walks that T-node's S children, pushing child
/// frames (embedded regions, standalone containers, chained bins or
/// path-compressed emissions) on top of itself.  When a `Subs` frame is
/// exhausted it has, as a side effect, discovered the offset of the next
/// T sibling and writes it back into its parent `Tops` frame.
///
/// `Tops` and `Subs` frames carry the *resolved* [`ContainerRef`] (raw
/// pointer + capacity), not just the handle: the container is opened once
/// when the frame is created instead of on every advance step.  The cached
/// pointer stays valid because the cursor's shared borrow of the map
/// prevents any reallocation while frames are live.
enum Frame {
    /// Iterate the valid slots of a chained extended bin in key order.
    Chain {
        head: HyperionPointer,
        slots: Vec<usize>,
        next: usize,
        base: usize,
    },
    /// Walk the T records of the region `[pos, end)` of one container.
    Tops {
        c: ContainerRef,
        pos: usize,
        end: usize,
        prev_key: Option<u8>,
        base: usize,
    },
    /// Walk the S children of the current T record, starting at `pos`.
    Subs {
        c: ContainerRef,
        pos: usize,
        end: usize,
        prev_key: Option<u8>,
        base: usize,
    },
    /// A fully materialised pending emission (path-compressed suffix).
    Emit { key: Vec<u8>, value: u64 },
}

/// One suspended position of the *backward* walk.
///
/// The byte stream only links forward (delta-encoded siblings, jump
/// successors), so the reverse engine works by *checkpointing*: when a region
/// is entered, one forward scan records every sibling offset (bounded by the
/// seek target — siblings above the bound are never collected), and the
/// resulting records are pushed in ascending order so the stack pops them in
/// descending order.  Each frame expands on pop: a `Region` expands to its
/// `TRec`s, a `TRec` to its value emission plus its `SRec`s, an `SRec` to its
/// value emission plus its child subtree — always pushing what must be
/// emitted *last* (the shortest key) first.
enum RevFrame {
    /// A pointer child (chained extended bin or standalone container).
    Pointer { hp: HyperionPointer, base: usize },
    /// One slot of a chained extended bin, visited in descending slot order.
    Slot {
        head: HyperionPointer,
        index: usize,
        base: usize,
    },
    /// The T records of the region `[start, end)` of one container.
    Region {
        c: ContainerRef,
        start: usize,
        end: usize,
        base: usize,
    },
    /// One checkpointed T record with its children region.
    TRec {
        c: ContainerRef,
        t: TNode,
        end: usize,
        base: usize,
    },
    /// One checkpointed S record.
    SRec {
        c: ContainerRef,
        s: SNode,
        base: usize,
    },
    /// A deferred run of S records `[start, end)` below a jump-table seed:
    /// expanded lazily only when the walk backtracks past the seed.
    SRun {
        c: ContainerRef,
        start: usize,
        end: usize,
        base: usize,
    },
    /// Emit `prefix[..len]` with `value`; pops after every deeper frame, so
    /// the truncated prefix is exactly the key that terminates here.
    EmitAt { len: usize, value: u64 },
    /// A fully materialised pending emission (path-compressed suffix).
    EmitKey { key: Vec<u8>, value: u64 },
}

/// Per-level pruning decision of the backward walk: which sibling keys of a
/// region at key depth `base` can still reach keys within the seek bound.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LevelCut {
    /// No restriction (bound already passed, or this path is below it).
    All,
    /// Only siblings with key `<= byte` can hold in-bound keys.
    UpTo(u8),
    /// Every key below this path exceeds the bound: skip the region.
    Nothing,
}

impl LevelCut {
    #[inline]
    fn max_key(self) -> Option<u8> {
        match self {
            LevelCut::All => None,
            LevelCut::UpTo(b) => Some(b),
            LevelCut::Nothing => unreachable!("Nothing regions are never scanned"),
        }
    }
}

/// A stateful, *bidirectional* cursor over a [`HyperionMap`].
///
/// The cursor walks the exact-fit container byte stream incrementally: each
/// [`Cursor::next`] call parses just enough T/S records to reach the next
/// key/value pair, in ascending key order.  [`Cursor::seek`] repositions the
/// cursor at the first key `>= target`, pruning whole subtrees (and using
/// jump successors to skip over their byte ranges) on the way down.
///
/// The backward walk mirrors it: [`Cursor::seek_last`] positions past the
/// greatest key, [`Cursor::seek_for_pred`] just after the last key
/// `<= target`, and [`Cursor::prev`] steps to strictly smaller keys.  Because
/// the byte stream only links forward, the reverse engine checkpoints each
/// region it enters with one bounded forward scan (recording the sibling
/// offsets at or below the seek target) and replays the checkpoints in
/// descending order — see the `RevFrame` docs in this module's source.
///
/// Direction can be switched mid-walk: the reference point is always the
/// *last returned key* (or, before anything was returned, the seek target).
/// `next()` returns the smallest stored key strictly greater than that
/// reference, `prev()` the greatest strictly smaller one — neither ever
/// returns the same key twice in a row.
///
/// Keys handed out are in the *original* key space: when the map was built
/// with key pre-processing, the cursor transforms the seek target and
/// restores emitted keys transparently.  Pre-processing is order-preserving
/// only for keys of uniform width (see
/// [`crate::HyperionConfig::with_preprocessing`]); with mixed key widths the
/// cursor's order follows the transformed byte stream, not the original keys.
pub struct Cursor<'a> {
    map: &'a HyperionMap,
    stack: Vec<Frame>,
    /// Backward frame stack; live only while `backward` is set.
    rstack: Vec<RevFrame>,
    /// Current (transformed) key prefix along the active root-to-node path.
    prefix: Vec<u8>,
    /// Transformed seek bound; emission starts at the first key `>= start`
    /// (`> start` for an exclusive seek).
    start: Vec<u8>,
    /// Exclusive seek bound: the resume protocol used by `DbScan` chunk
    /// refills and excluded range starts — skip a key equal to the bound.
    exclusive: bool,
    /// Set once the first in-bound key was emitted; disables bound checks.
    started: bool,
    /// The empty key is stored out-of-line and emitted before the root walk.
    pending_empty: bool,
    /// `true` while the cursor walks backward (`prev` steps).
    backward: bool,
    /// Transformed backward seek bound (`None` after `seek_last`): emission
    /// starts at the last key `<= bound` (`< bound` when not inclusive).
    bound: Option<Vec<u8>>,
    /// Whether a key equal to the backward bound is yielded.
    bound_inclusive: bool,
    /// The empty key sorts first, so the backward walk emits it *last*.
    rpending_empty: bool,
    /// Last key returned by `next`/`prev` (transformed space), the reference
    /// point for direction turn-arounds.  Buffer reused across steps.
    last_key: Vec<u8>,
    has_last: bool,
    /// Pending forward continuation of a shortcut-seeded seek: the cached
    /// container only covers keys strictly extending `start[..d]`, so when
    /// the seeded walk runs dry the cursor re-seeks (without the shortcut)
    /// at the prefix's exclusive upper bound.  `None` both when no seeding
    /// happened and when nothing sorts above the subtree (all-`0xff` prefix).
    fwd_cont: Option<Vec<u8>>,
    /// Pending backward continuation of a shortcut-seeded predecessor seek:
    /// the seeded prefix itself, re-entered as an *inclusive* backward bound
    /// (a key equal to the prefix lives in the parent container, not below
    /// the cached one, so the continuation must admit it).
    bwd_cont: Option<Vec<u8>>,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor positioned at the first key of the map.
    pub fn new(map: &'a HyperionMap) -> Cursor<'a> {
        let mut cursor = Cursor {
            map,
            stack: Vec::new(),
            rstack: Vec::new(),
            prefix: Vec::new(),
            start: Vec::new(),
            exclusive: false,
            started: false,
            pending_empty: false,
            backward: false,
            bound: None,
            bound_inclusive: false,
            rpending_empty: false,
            last_key: Vec::new(),
            has_last: false,
            fwd_cont: None,
            bwd_cont: None,
        };
        cursor.seek(&[]);
        cursor
    }

    /// Repositions the cursor at the first key `>= target` (original key
    /// space).  Seeking past the last key leaves the cursor exhausted.
    pub fn seek(&mut self, target: &[u8]) {
        self.seek_impl(target, false);
    }

    /// Repositions the cursor at the first key *strictly greater than*
    /// `target` — the resume primitive: a scan that consumed up to some key
    /// continues after it without re-yielding or re-comparing it.  Used by
    /// `DbScan` chunk refills and excluded range start bounds.
    pub fn seek_exclusive(&mut self, target: &[u8]) {
        self.seek_impl(target, true);
    }

    fn seek_impl(&mut self, target: &[u8], exclusive: bool) {
        // Re-fill the owned bound in place: repeated seeks (chunked scans
        // re-seek per refill) reuse the buffer instead of allocating.
        let transformed = self.map.transform_key(target);
        self.start.clear();
        self.start.extend_from_slice(&transformed);
        self.exclusive = exclusive;
        self.seek_fwd_start(true);
    }

    /// (Re-)enters forward mode with `self.start`/`self.exclusive` already
    /// set — the shared tail of `seek_impl` and the `next()` turn-around.
    ///
    /// With `use_shortcut` set, the hashed shortcut layer is probed with the
    /// seek target: on a hit at depth `d` the descent starts directly at the
    /// cached deep container (prefix pre-filled, container/T-node jump
    /// tables still seed within it), skipping every level above.  The cached
    /// container only holds keys strictly extending `start[..d]`, so the
    /// rest of the key space is deferred as a continuation re-seek at the
    /// prefix's upper bound (see [`Cursor::next_transformed`]); keys in
    /// `[start, upper_bound)` all carry the prefix, so none are skipped.
    fn seek_fwd_start(&mut self, use_shortcut: bool) {
        self.started = false;
        self.has_last = false;
        self.backward = false;
        self.prefix.clear();
        self.stack.clear();
        self.rstack.clear();
        self.rpending_empty = false;
        self.pending_empty = true;
        self.fwd_cont = None;
        self.bwd_cont = None;
        let Some(root) = self.map.root_pointer() else {
            return;
        };
        if use_shortcut {
            if let Some((d, hp)) = self.map.shortcut.probe(&self.start) {
                self.fwd_cont = prefix_upper_bound(&self.start[..d]);
                let Cursor { prefix, start, .. } = self;
                prefix.extend_from_slice(&start[..d]);
                self.push_pointer(hp, d);
                return;
            }
        }
        self.push_pointer(root, 0);
    }

    /// Positions the cursor just past the greatest key: the next
    /// [`Cursor::prev`] returns the last key/value pair of the map.
    pub fn seek_last(&mut self) {
        self.bound = None;
        self.seek_back_start(false, false);
    }

    /// Positions the cursor just past the last key `<= target` (original key
    /// space): the next [`Cursor::prev`] returns that key — the predecessor
    /// seek, mirroring [`Cursor::seek`] on the other side.
    pub fn seek_for_pred(&mut self, target: &[u8]) {
        self.seek_back_impl(target, true);
    }

    /// Positions the cursor just past the last key *strictly less than*
    /// `target` — the backward resume primitive used by reverse `DbScan`
    /// chunk refills and by [`HyperionMap::pred`].
    pub fn seek_for_pred_exclusive(&mut self, target: &[u8]) {
        self.seek_back_impl(target, false);
    }

    fn seek_back_impl(&mut self, target: &[u8], inclusive: bool) {
        let transformed = self.map.transform_key(target);
        let mut bound = self.bound.take().unwrap_or_default();
        bound.clear();
        bound.extend_from_slice(&transformed);
        self.bound = Some(bound);
        self.seek_back_start(inclusive, true);
    }

    /// (Re-)enters backward mode with `self.bound` already set.
    ///
    /// With `use_shortcut` set, the hashed shortcut layer is probed with the
    /// bound (skipped after `seek_last`, which has none): on a hit at depth
    /// `d` the backward walk starts inside the cached deep container.  Keys
    /// at or below the prefix itself — including the prefix key, which lives
    /// in the *parent* container — and the out-of-line empty key re-enter
    /// through an inclusive continuation re-seek at the prefix (see
    /// [`Cursor::prev_transformed`]).
    fn seek_back_start(&mut self, inclusive: bool, use_shortcut: bool) {
        self.bound_inclusive = inclusive;
        self.started = false;
        self.has_last = false;
        self.backward = true;
        self.prefix.clear();
        self.stack.clear();
        self.rstack.clear();
        self.pending_empty = false;
        self.rpending_empty = true;
        self.fwd_cont = None;
        self.bwd_cont = None;
        let Some(root) = self.map.root_pointer() else {
            return;
        };
        if use_shortcut {
            let hit = self
                .bound
                .as_deref()
                .and_then(|b| self.map.shortcut.probe(b));
            if let Some((d, hp)) = hit {
                let seeded = self.bound.as_deref().expect("probed bound")[..d].to_vec();
                self.prefix.extend_from_slice(&seeded);
                self.bwd_cont = Some(seeded);
                self.rpending_empty = false;
                self.rstack.push(RevFrame::Pointer { hp, base: d });
                return;
            }
        }
        self.rstack.push(RevFrame::Pointer { hp: root, base: 0 });
    }

    /// Records the last returned key (transformed space) for turn-arounds.
    #[inline]
    fn remember(&mut self, key: &[u8]) {
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.has_last = true;
    }

    /// Returns the next key/value pair in ascending order, or `None` when the
    /// map is exhausted.
    ///
    /// When the cursor is in backward mode, this *turns around*: it returns
    /// the smallest key strictly greater than the last returned key (or, if
    /// nothing was returned since the seek, the first key the backward seek
    /// bound excludes upward).  The turn-around re-seeks, so alternating
    /// `next`/`prev` costs a descent per switch.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(Vec<u8>, u64)> {
        if self.backward {
            if self.has_last {
                let anchor = std::mem::take(&mut self.last_key);
                self.start.clear();
                self.start.extend_from_slice(&anchor);
                self.last_key = anchor;
                self.exclusive = true;
                self.seek_fwd_start(true);
                // The last returned key stays the reference point: if this
                // step comes up dry, a later `prev()` must anchor on it
                // (exclusively), not on the re-seek bound.
                self.has_last = true;
            } else {
                match self.bound.take() {
                    // After `seek_last` the cursor sits past every key.
                    None => return None,
                    Some(bound) => {
                        self.start.clear();
                        self.start.extend_from_slice(&bound);
                        self.bound = Some(bound);
                        // Backward-inclusive bound b admits b itself, so the
                        // forward continuation starts strictly above it.
                        self.exclusive = self.bound_inclusive;
                        self.seek_fwd_start(true);
                    }
                }
            }
        }
        let (key, value) = self.next_transformed()?;
        self.remember(&key);
        Some((self.map.restore_key_bytes(&key), value))
    }

    /// Returns the previous key/value pair in descending order, or `None`
    /// when the walk reached below the first key.
    ///
    /// In forward mode this turns around symmetrically to [`Cursor::next`]:
    /// it returns the greatest key strictly smaller than the last returned
    /// key (or, with nothing returned since the seek, the last key below the
    /// forward seek bound).
    pub fn prev(&mut self) -> Option<(Vec<u8>, u64)> {
        if !self.backward {
            if self.has_last {
                let anchor = std::mem::take(&mut self.last_key);
                let mut bound = self.bound.take().unwrap_or_default();
                bound.clear();
                bound.extend_from_slice(&anchor);
                self.last_key = anchor;
                self.bound = Some(bound);
                self.seek_back_start(false, true);
                // Keep the reference point across the turn-around (see
                // `next`): a dry backward step must not forget it.
                self.has_last = true;
            } else {
                let mut bound = self.bound.take().unwrap_or_default();
                bound.clear();
                bound.extend_from_slice(&self.start);
                self.bound = Some(bound);
                // A forward-exclusive seek at t admits everything <= t on
                // the backward side; an inclusive one only everything < t.
                let inclusive = self.exclusive;
                self.seek_back_start(inclusive, true);
            }
        }
        let (key, value) = self.prev_transformed()?;
        self.remember(&key);
        Some((self.map.restore_key_bytes(&key), value))
    }

    /// `true` if `key` (transformed space) is within the seek bound; flips
    /// `started` on the first hit so later comparisons are skipped.
    #[inline]
    fn passes(&mut self, key: &[u8]) -> bool {
        if self.started {
            return true;
        }
        let within = if self.exclusive {
            key > self.start.as_slice()
        } else {
            key >= self.start.as_slice()
        };
        if within {
            self.started = true;
        }
        within
    }

    /// Pushes the frame(s) for the container(s) referenced by `hp`.
    fn push_pointer(&mut self, hp: HyperionPointer, base: usize) {
        // A torn pointer read (optimistic reader racing a writer) could cycle
        // the descent through an ancestor container; a quiescent trie's depth
        // is bounded by its longest key.  The panic is caught by the
        // optimistic read's unwind backstop and the attempt retried.
        assert!(
            self.stack.len() < (1 << 16) && base < (1 << 20),
            "cursor descent exceeded any plausible trie depth (torn read?)"
        );
        let mm = self.map.memory_manager();
        if hp.superbin() == 0 && mm.is_chained(hp) {
            self.stack.push(Frame::Chain {
                head: hp,
                slots: mm.chained_valid_slots(hp),
                next: 0,
                base,
            });
        } else {
            let c = ContainerRef::open(mm, ContainerHandle::Standalone(hp));
            let (pos, end) = (self.seek_seed(&c, base), c.stream_end());
            self.stack.push(Frame::Tops {
                c,
                pos,
                end,
                prev_key: None,
                base,
            });
        }
    }

    /// The initial S-walk position below the T record `t` for a cursor at
    /// key depth `base`: when the cursor is still seeking and `t` lies
    /// exactly on the seek path, the T-node jump table seeds the best
    /// explicit-key slot; otherwise the walk starts at the first child.
    /// Either position starts an explicit-key record, so the walk resumes
    /// without a delta predecessor.
    fn subs_seed(&self, c: &ContainerRef, t: &TNode, base: usize, end: usize) -> usize {
        let default = t.header_end;
        let Some(jt_off) = t.jt_offset.filter(|_| self.on_seek_path(base)) else {
            return default;
        };
        tnode_jt_seed(c, t.offset, jt_off, self.start[base], default, end).unwrap_or(default)
    }

    /// `true` while the cursor is still seeking and the path walked so far
    /// equals the seek prefix up to `base` (with a target byte at `base`):
    /// only then may a jump table skip records, because everything skipped
    /// sorts below the seek target and would be pruned anyway.
    fn on_seek_path(&self, base: usize) -> bool {
        !self.started
            && base < self.start.len()
            && self.prefix.len() >= base
            && self.prefix[..base] == self.start[..base]
    }

    /// The initial T-walk position for a container entered at key depth
    /// `base`: when the cursor is still seeking and this container lies
    /// exactly on the seek path, the container jump table seeds its best
    /// entry; off the seek path the walk starts at the stream start.
    ///
    /// Seeding is sound because every T record skipped over has a key below
    /// the seek byte, so its whole subtree precedes the seek target — the
    /// walk would have pruned it record by record.  CJT entries reference
    /// explicit-key records, so the walk resumes without a predecessor.
    fn seek_seed(&self, c: &ContainerRef, base: usize) -> usize {
        let default = c.stream_start();
        if !self.on_seek_path(base) {
            return default;
        }
        cjt_seed(c, self.start[base], default, c.stream_end()).unwrap_or(default)
    }

    /// [`Cursor::next_transformed_inner`] plus the shortcut-continuation
    /// protocol: a shortcut-seeded seek only walks the cached deep subtree,
    /// so when that walk runs dry the cursor re-seeks — without the shortcut
    /// — at the seeded prefix's upper bound and keeps going.  The turn-around
    /// reference point survives the re-seek.
    fn next_transformed(&mut self) -> Option<(Vec<u8>, u64)> {
        loop {
            if let Some(pair) = self.next_transformed_inner() {
                return Some(pair);
            }
            let cont = self.fwd_cont.take()?;
            let saved_has_last = self.has_last;
            self.start.clear();
            self.start.extend_from_slice(&cont);
            self.exclusive = false;
            self.seek_fwd_start(false);
            self.has_last = saved_has_last;
        }
    }

    /// The traversal engine: advances the frame stack until the next
    /// key/value pair (in transformed key space) is produced.
    fn next_transformed_inner(&mut self) -> Option<(Vec<u8>, u64)> {
        if self.pending_empty {
            self.pending_empty = false;
            if let Some(v) = self.map.empty_key_value() {
                if self.passes(&[]) {
                    return Some((Vec::new(), v));
                }
            }
        }
        loop {
            let frame = self.stack.pop()?;
            match frame {
                Frame::Emit { key, value } => {
                    if self.passes(&key) {
                        return Some((key, value));
                    }
                }
                Frame::Chain {
                    head,
                    slots,
                    mut next,
                    base,
                } => {
                    self.prefix.truncate(base);
                    if next >= slots.len() {
                        continue;
                    }
                    let index = slots[next];
                    next += 1;
                    self.stack.push(Frame::Chain {
                        head,
                        slots,
                        next,
                        base,
                    });
                    let handle = ContainerHandle::ChainSlot { head, index };
                    let c = ContainerRef::open(self.map.memory_manager(), handle);
                    let (pos, end) = (self.seek_seed(&c, base), c.stream_end());
                    self.stack.push(Frame::Tops {
                        c,
                        pos,
                        end,
                        prev_key: None,
                        base,
                    });
                }
                Frame::Tops {
                    c,
                    mut pos,
                    end,
                    mut prev_key,
                    base,
                } => {
                    self.prefix.truncate(base);
                    let bytes = c.bytes();
                    if pos >= end || is_invalid(bytes[pos]) {
                        continue; // region exhausted: frame stays popped
                    }
                    let t = parse_t_node(bytes, pos, prev_key).expect("corrupt T record");
                    prev_key = Some(t.key);
                    self.prefix.push(t.key);
                    if !self.started && subtree_before_start(&self.prefix, &self.start) {
                        // The whole T subtree precedes the seek target: use the
                        // jump successor (when present) to skip its byte range.
                        pos = skip_t_children(&c, &t, end);
                        self.stack.push(Frame::Tops {
                            c,
                            pos,
                            end,
                            prev_key,
                            base,
                        });
                        continue;
                    }
                    let value = t.value_offset.map(|off| c.read_u64(off));
                    self.stack.push(Frame::Tops {
                        c: c.clone(),
                        pos,
                        end,
                        prev_key,
                        base,
                    });
                    // While still seeking along the target path, the T-node
                    // jump table (when present) positions the S walk close
                    // to the target byte — same pruning argument as
                    // `seek_seed`, one level down.
                    let sub_pos = self.subs_seed(&c, &t, base + 1, end);
                    // The Subs frame discovers the next T sibling offset and
                    // writes it back into the Tops frame when it pops.
                    self.stack.push(Frame::Subs {
                        c,
                        pos: sub_pos,
                        end,
                        prev_key: None,
                        base: base + 1,
                    });
                    if let Some(value) = value {
                        let key = self.prefix.clone();
                        if self.passes(&key) {
                            return Some((key, value));
                        }
                    }
                }
                Frame::Subs {
                    c,
                    mut pos,
                    end,
                    mut prev_key,
                    base,
                } => {
                    self.prefix.truncate(base);
                    let bytes = c.bytes();
                    if pos >= end || is_invalid(bytes[pos]) || is_t_node(bytes[pos]) {
                        // All S children consumed: `pos` is the next T sibling.
                        if let Some(Frame::Tops { pos: t_pos, .. }) = self.stack.last_mut() {
                            *t_pos = pos;
                        }
                        continue;
                    }
                    let s = parse_s_node(bytes, pos, prev_key).expect("corrupt S record");
                    pos = s.end;
                    prev_key = Some(s.key);
                    self.prefix.push(s.key);
                    if !self.started && subtree_before_start(&self.prefix, &self.start) {
                        self.prefix.pop();
                        self.stack.push(Frame::Subs {
                            c,
                            pos,
                            end,
                            prev_key,
                            base,
                        });
                        continue;
                    }
                    let value = s.value_offset.map(|off| c.read_u64(off));
                    // Push the child subtree above the resumed Subs frame so it
                    // is visited *after* the value stored at this node
                    // (shorter keys sort first).
                    match s.child {
                        ChildKind::None => {
                            self.stack.push(Frame::Subs {
                                c,
                                pos,
                                end,
                                prev_key,
                                base,
                            });
                        }
                        ChildKind::PathCompressed => {
                            let (has_value, pc_value, range) =
                                parse_pc_node(bytes, s.child_offset.expect("pc child offset"));
                            let emit = has_value.then(|| {
                                let mut key = self.prefix.clone();
                                key.extend_from_slice(&bytes[range]);
                                (key, pc_value)
                            });
                            self.stack.push(Frame::Subs {
                                c,
                                pos,
                                end,
                                prev_key,
                                base,
                            });
                            if let Some((key, value)) = emit {
                                self.stack.push(Frame::Emit { key, value });
                            }
                        }
                        ChildKind::Embedded => {
                            let child_off = s.child_offset.expect("embedded child offset");
                            let size = bytes[child_off] as usize;
                            self.stack.push(Frame::Subs {
                                c: c.clone(),
                                pos,
                                end,
                                prev_key,
                                base,
                            });
                            self.stack.push(Frame::Tops {
                                c,
                                pos: child_off + 1,
                                end: child_off + size,
                                prev_key: None,
                                base: base + 1,
                            });
                        }
                        ChildKind::Pointer => {
                            let hp = c.read_hp(s.child_offset.expect("pointer child offset"));
                            self.stack.push(Frame::Subs {
                                c,
                                pos,
                                end,
                                prev_key,
                                base,
                            });
                            self.push_pointer(hp, base + 1);
                        }
                    }
                    if let Some(value) = value {
                        let key = self.prefix.clone();
                        if self.passes(&key) {
                            return Some((key, value));
                        }
                    }
                }
            }
        }
    }

    /// `true` if `key` (transformed space) is within the backward seek bound;
    /// flips `started` on the first hit.  Keys are produced in descending
    /// order, so once one key passes every later key passes too.
    #[inline]
    fn passes_back(&mut self, key: &[u8]) -> bool {
        if self.started {
            return true;
        }
        let within = match &self.bound {
            None => true,
            Some(b) => {
                if self.bound_inclusive {
                    key <= b.as_slice()
                } else {
                    key < b.as_slice()
                }
            }
        };
        if within {
            self.started = true;
        }
        within
    }

    /// Pruning decision for a region at key depth `base` during the backward
    /// descent: the *minimum* key below a sibling with key byte `k` is
    /// exactly `prefix[..base] ++ [k]`, so a sibling can be skipped as soon
    /// as that candidate exceeds the bound — and since siblings ascend, the
    /// checkpoint scan can stop at the first over-bound key byte.
    fn rev_level_cut(&self, base: usize) -> LevelCut {
        if self.started {
            return LevelCut::All;
        }
        let Some(bound) = &self.bound else {
            return LevelCut::All;
        };
        let b = bound.as_slice();
        if base <= b.len() {
            match self.prefix[..base].cmp(&b[..base]) {
                Ordering::Less => LevelCut::All,
                Ordering::Greater => LevelCut::Nothing,
                Ordering::Equal => {
                    if base == b.len() {
                        // Every key below extends the bound: strictly greater.
                        LevelCut::Nothing
                    } else {
                        LevelCut::UpTo(b[base])
                    }
                }
            }
        } else {
            // The path is already longer than the bound: in bound only if it
            // compares below; extending an exact bound match exceeds it.
            match self.prefix[..b.len()].cmp(b) {
                Ordering::Less => LevelCut::All,
                _ => LevelCut::Nothing,
            }
        }
    }

    /// [`Cursor::prev_transformed_inner`] plus the shortcut-continuation
    /// protocol mirroring [`Cursor::next_transformed`]: when the seeded
    /// backward walk runs dry, re-enter below (and including) the seeded
    /// prefix via an inclusive backward re-seek without the shortcut.
    fn prev_transformed(&mut self) -> Option<(Vec<u8>, u64)> {
        loop {
            if let Some(pair) = self.prev_transformed_inner() {
                return Some(pair);
            }
            let cont = self.bwd_cont.take()?;
            let saved_has_last = self.has_last;
            let mut bound = self.bound.take().unwrap_or_default();
            bound.clear();
            bound.extend_from_slice(&cont);
            self.bound = Some(bound);
            self.seek_back_start(true, false);
            self.has_last = saved_has_last;
        }
    }

    /// The backward traversal engine: advances the reverse frame stack until
    /// the next key/value pair in *descending* (transformed) key order is
    /// produced.
    fn prev_transformed_inner(&mut self) -> Option<(Vec<u8>, u64)> {
        loop {
            let Some(frame) = self.rstack.pop() else {
                // The empty key is the global minimum: emitted after the
                // whole trie walk is exhausted.
                if self.rpending_empty {
                    self.rpending_empty = false;
                    if let Some(v) = self.map.empty_key_value() {
                        if self.passes_back(&[]) {
                            return Some((Vec::new(), v));
                        }
                    }
                }
                return None;
            };
            match frame {
                RevFrame::Pointer { hp, base } => {
                    // Same torn-pointer cycle guard as the forward
                    // `push_pointer`: bound the descent, let the optimistic
                    // read backstop catch the panic.
                    assert!(
                        self.rstack.len() < (1 << 16) && base < (1 << 20),
                        "reverse descent exceeded any plausible trie depth (torn read?)"
                    );
                    self.prefix.truncate(base);
                    let mm = self.map.memory_manager();
                    if hp.superbin() == 0 && mm.is_chained(hp) {
                        // Ascending pushes pop in descending slot order.
                        for index in mm.chained_valid_slots(hp) {
                            self.rstack.push(RevFrame::Slot {
                                head: hp,
                                index,
                                base,
                            });
                        }
                    } else {
                        let c = ContainerRef::open(mm, ContainerHandle::Standalone(hp));
                        let (start, end) = (c.stream_start(), c.stream_end());
                        self.rstack.push(RevFrame::Region {
                            c,
                            start,
                            end,
                            base,
                        });
                    }
                }
                RevFrame::Slot { head, index, base } => {
                    self.prefix.truncate(base);
                    let handle = ContainerHandle::ChainSlot { head, index };
                    let c = ContainerRef::open(self.map.memory_manager(), handle);
                    let (start, end) = (c.stream_start(), c.stream_end());
                    self.rstack.push(RevFrame::Region {
                        c,
                        start,
                        end,
                        base,
                    });
                }
                RevFrame::Region {
                    c,
                    start,
                    end,
                    base,
                } => {
                    self.prefix.truncate(base);
                    let cut = self.rev_level_cut(base);
                    if cut == LevelCut::Nothing {
                        continue;
                    }
                    // While still seeking, the container jump table bounds
                    // the checkpoint pass from below: records before the
                    // greatest entry <= the target byte are deferred as a
                    // lazy sub-region (re-expanded only if the walk
                    // backtracks past the seed), so a predecessor seek scans
                    // one CJT span instead of the whole region.
                    let mut scan_start = start;
                    if let LevelCut::UpTo(byte) = cut {
                        if start == c.stream_start() {
                            if let Some(seed) = cjt_seed(&c, byte, start, end) {
                                self.rstack.push(RevFrame::Region {
                                    c: c.clone(),
                                    start,
                                    end: seed,
                                    base,
                                });
                                scan_start = seed;
                            }
                        }
                    }
                    // Checkpoint pass: one bounded forward scan records the
                    // sibling offsets; ascending pushes pop in reverse.
                    for t in collect_t_records_trusted_bounded(&c, scan_start, end, cut.max_key()) {
                        self.rstack.push(RevFrame::TRec {
                            c: c.clone(),
                            t,
                            end,
                            base,
                        });
                    }
                }
                RevFrame::TRec { c, t, end, base } => {
                    self.prefix.truncate(base);
                    self.prefix.push(t.key);
                    // The T value is the shortest key of this subtree: in
                    // descending order it pops after every S child.
                    if let Some(off) = t.value_offset {
                        self.rstack.push(RevFrame::EmitAt {
                            len: base + 1,
                            value: c.read_u64(off),
                        });
                    }
                    let cut = self.rev_level_cut(base + 1);
                    if cut != LevelCut::Nothing {
                        // Same seeding as `Region`, one level down: the
                        // T-node jump table bounds the S checkpoint pass,
                        // deferring the records below the seed.
                        let mut scan_start = t.header_end;
                        if let LevelCut::UpTo(byte) = cut {
                            if let Some(jt_off) = t.jt_offset {
                                if let Some(seed) =
                                    tnode_jt_seed(&c, t.offset, jt_off, byte, t.header_end, end)
                                {
                                    self.rstack.push(RevFrame::SRun {
                                        c: c.clone(),
                                        start: t.header_end,
                                        end: seed,
                                        base: base + 1,
                                    });
                                    scan_start = seed;
                                }
                            }
                        }
                        for s in collect_s_records_from(&c, scan_start, end, cut.max_key()) {
                            self.rstack.push(RevFrame::SRec {
                                c: c.clone(),
                                s,
                                base: base + 1,
                            });
                        }
                    }
                }
                RevFrame::SRun {
                    c,
                    start,
                    end,
                    base,
                } => {
                    let cut = self.rev_level_cut(base);
                    if cut == LevelCut::Nothing {
                        continue;
                    }
                    for s in collect_s_records_from(&c, start, end, cut.max_key()) {
                        self.rstack.push(RevFrame::SRec {
                            c: c.clone(),
                            s,
                            base,
                        });
                    }
                }
                RevFrame::SRec { c, s, base } => {
                    self.prefix.truncate(base);
                    self.prefix.push(s.key);
                    // Value first (pops last): the key ending here is shorter
                    // than everything in the child subtree.
                    if let Some(off) = s.value_offset {
                        self.rstack.push(RevFrame::EmitAt {
                            len: base + 1,
                            value: c.read_u64(off),
                        });
                    }
                    match s.child {
                        ChildKind::None => {}
                        ChildKind::PathCompressed => {
                            let (has_value, pc_value, range) =
                                parse_pc_node(c.bytes(), s.child_offset.expect("pc child offset"));
                            if has_value {
                                let mut key = self.prefix.clone();
                                key.extend_from_slice(&c.bytes()[range]);
                                self.rstack.push(RevFrame::EmitKey {
                                    key,
                                    value: pc_value,
                                });
                            }
                        }
                        ChildKind::Embedded => {
                            let child_off = s.child_offset.expect("embedded child offset");
                            let size = c.bytes()[child_off] as usize;
                            self.rstack.push(RevFrame::Region {
                                c,
                                start: child_off + 1,
                                end: child_off + size,
                                base: base + 1,
                            });
                        }
                        ChildKind::Pointer => {
                            let hp = c.read_hp(s.child_offset.expect("pointer child offset"));
                            self.rstack.push(RevFrame::Pointer { hp, base: base + 1 });
                        }
                    }
                }
                RevFrame::EmitAt { len, value } => {
                    self.prefix.truncate(len);
                    if self.started || self.passes_back_prefix() {
                        return Some((self.prefix.clone(), value));
                    }
                }
                RevFrame::EmitKey { key, value } => {
                    if self.passes_back(&key) {
                        return Some((key, value));
                    }
                }
            }
        }
    }

    /// [`Cursor::passes_back`] on the current prefix, split out to satisfy
    /// the borrow checker (the prefix is both the key and cursor state).
    #[inline]
    fn passes_back_prefix(&mut self) -> bool {
        let within = match &self.bound {
            None => true,
            Some(b) => {
                if self.bound_inclusive {
                    self.prefix.as_slice() <= b.as_slice()
                } else {
                    self.prefix.as_slice() < b.as_slice()
                }
            }
        };
        if within {
            self.started = true;
        }
        within
    }
}

impl Iterator for Cursor<'_> {
    type Item = (Vec<u8>, u64);

    fn next(&mut self) -> Option<(Vec<u8>, u64)> {
        Cursor::next(self)
    }
}

impl std::fmt::Debug for Cursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cursor")
            .field(
                "depth",
                &if self.backward {
                    self.rstack.len()
                } else {
                    self.stack.len()
                },
            )
            .field("backward", &self.backward)
            .field("started", &self.started)
            .finish()
    }
}

/// Exclusive or inclusive upper bound of a [`Range`] or a reverse
/// [`crate::DbScan`] (original key space).
pub(crate) enum UpperBound {
    Unbounded,
    Excluded(Vec<u8>),
    Included(Vec<u8>),
}

impl UpperBound {
    #[inline]
    pub(crate) fn admits(&self, key: &[u8]) -> bool {
        match self {
            UpperBound::Unbounded => true,
            UpperBound::Excluded(end) => key < end.as_slice(),
            UpperBound::Included(end) => key <= end.as_slice(),
        }
    }
}

/// Exclusive or inclusive lower bound of a [`Range`] or a reverse
/// [`crate::DbScan`] (original key space); checked by the backward walk,
/// which cannot rely on the forward cursor's seek bound.
pub(crate) enum LowerBound {
    Unbounded,
    Excluded(Vec<u8>),
    Included(Vec<u8>),
}

impl LowerBound {
    #[inline]
    pub(crate) fn admits(&self, key: &[u8]) -> bool {
        match self {
            LowerBound::Unbounded => true,
            LowerBound::Excluded(start) => key > start.as_slice(),
            LowerBound::Included(start) => key >= start.as_slice(),
        }
    }
}

/// Lazy iterator over all key/value pairs of a [`HyperionMap`] in ascending
/// key order.  Created by [`HyperionMap::iter`].
///
/// Covers the whole map, so the number of remaining entries is known exactly:
/// [`Iterator::size_hint`] is tight and [`ExactSizeIterator`] is implemented.
/// [`DoubleEndedIterator`] walks from the other end with a second (lazily
/// created) backward cursor; the exact count makes the two ends meet without
/// any key comparison.
pub struct Iter<'a> {
    cursor: Cursor<'a>,
    /// Backward cursor, created on the first `next_back` call.
    back: Option<Cursor<'a>>,
    remaining: usize,
}

impl Iterator for Iter<'_> {
    type Item = (Vec<u8>, u64);

    #[inline]
    fn next(&mut self) -> Option<(Vec<u8>, u64)> {
        if self.remaining == 0 {
            return None;
        }
        match self.cursor.next() {
            Some(pair) => {
                self.remaining -= 1;
                Some(pair)
            }
            None => {
                debug_assert_eq!(self.remaining, 0, "cursor ended early");
                self.remaining = 0;
                None
            }
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<(Vec<u8>, u64)> {
        if self.remaining == 0 {
            return None;
        }
        let back = self.back.get_or_insert_with(|| {
            let mut cursor = Cursor::new(self.cursor.map);
            cursor.seek_last();
            cursor
        });
        match back.prev() {
            Some(pair) => {
                self.remaining -= 1;
                Some(pair)
            }
            None => {
                debug_assert_eq!(self.remaining, 0, "backward cursor ended early");
                self.remaining = 0;
                None
            }
        }
    }
}

impl ExactSizeIterator for Iter<'_> {}
impl std::iter::FusedIterator for Iter<'_> {}

/// Lazy iterator over a contiguous key range of a [`HyperionMap`].  Created
/// by [`HyperionMap::range`].
///
/// How many keys fall inside the bounds is unknown until the walk finishes,
/// so [`Iterator::size_hint`] honestly reports a lower bound of zero; the
/// upper bound is the number of keys the map can still yield.
///
/// [`DoubleEndedIterator`] is implemented with a second backward cursor
/// seeked to the end bound: `range(..).rev()` walks the bounds in descending
/// order, and the two ends never yield the same key (each end remembers the
/// other's last key and stops at the crossing).
pub struct Range<'a> {
    cursor: Cursor<'a>,
    /// Backward cursor, created on the first `next_back` call.
    back: Option<Cursor<'a>>,
    start: LowerBound,
    end: UpperBound,
    /// Last key yielded by the forward end (crossing detection).  Reused
    /// buffer + flag instead of `Option<Vec<u8>>`: forward-only scans pay
    /// one memcpy per yield, never a per-key allocation.
    front_key: Vec<u8>,
    has_front: bool,
    /// Last key yielded by the backward end (crossing detection).
    back_key: Vec<u8>,
    has_back: bool,
    done: bool,
    /// Upper bound on the remaining yields (total map size minus yields).
    at_most: usize,
}

impl Iterator for Range<'_> {
    type Item = (Vec<u8>, u64);

    fn next(&mut self) -> Option<(Vec<u8>, u64)> {
        if self.done {
            return None;
        }
        // Excluded start bounds are handled by `Cursor::seek_exclusive`, so
        // every yielded key only needs the upper-bound check.
        let Some((key, value)) = self.cursor.next() else {
            self.done = true;
            return None;
        };
        if !self.end.admits(&key) {
            self.done = true;
            return None;
        }
        // Meeting the backward end exhausts the range.
        if self.has_back && key >= self.back_key {
            self.done = true;
            return None;
        }
        self.at_most = self.at_most.saturating_sub(1);
        self.front_key.clear();
        self.front_key.extend_from_slice(&key);
        self.has_front = true;
        Some((key, value))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            (0, Some(0))
        } else {
            (0, Some(self.at_most))
        }
    }
}

impl DoubleEndedIterator for Range<'_> {
    fn next_back(&mut self) -> Option<(Vec<u8>, u64)> {
        if self.done {
            return None;
        }
        let back = match &mut self.back {
            Some(back) => back,
            None => {
                let mut cursor = Cursor::new(self.cursor.map);
                match &self.end {
                    UpperBound::Unbounded => cursor.seek_last(),
                    UpperBound::Excluded(end) => cursor.seek_for_pred_exclusive(end),
                    UpperBound::Included(end) => cursor.seek_for_pred(end),
                }
                self.back.insert(cursor)
            }
        };
        let Some((key, value)) = back.prev() else {
            self.done = true;
            return None;
        };
        if !self.start.admits(&key) {
            self.done = true;
            return None;
        }
        if self.has_front && key <= self.front_key {
            self.done = true;
            return None;
        }
        self.at_most = self.at_most.saturating_sub(1);
        self.back_key.clear();
        self.back_key.extend_from_slice(&key);
        self.has_back = true;
        Some((key, value))
    }
}

impl std::iter::FusedIterator for Range<'_> {}

/// Lazy iterator over all keys sharing a prefix.  Created by
/// [`HyperionMap::prefix`].  Double-ended like [`Range`].
pub struct Prefix<'a>(Range<'a>);

impl Iterator for Prefix<'_> {
    type Item = (Vec<u8>, u64);

    #[inline]
    fn next(&mut self) -> Option<(Vec<u8>, u64)> {
        self.0.next()
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for Prefix<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<(Vec<u8>, u64)> {
        self.0.next_back()
    }
}

impl std::iter::FusedIterator for Prefix<'_> {}

impl HyperionMap {
    /// Returns a [`Cursor`] positioned at the first key.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor::new(self)
    }

    /// Lazily iterates over all key/value pairs in ascending key order.
    /// The iterator is double-ended: `.rev()` walks in descending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            cursor: Cursor::new(self),
            back: None,
            remaining: self.len(),
        }
    }

    /// Returns the greatest key with its value, or `None` on an empty map.
    ///
    /// ```
    /// use hyperion_core::HyperionMap;
    ///
    /// let mut map = HyperionMap::new();
    /// map.put(b"a", 1);
    /// map.put(b"b", 2);
    /// assert_eq!(map.last(), Some((b"b".to_vec(), 2)));
    /// ```
    pub fn last(&self) -> Option<(Vec<u8>, u64)> {
        let mut cursor = Cursor::new(self);
        cursor.seek_last();
        cursor.prev()
    }

    /// Returns the greatest key *strictly less than* `key` with its value
    /// (the predecessor query), or `None` when no stored key sorts below
    /// `key`.
    ///
    /// ```
    /// use hyperion_core::HyperionMap;
    ///
    /// let mut map = HyperionMap::new();
    /// map.put(b"a", 1);
    /// map.put(b"c", 3);
    /// assert_eq!(map.pred(b"c"), Some((b"a".to_vec(), 1)));
    /// assert_eq!(map.pred(b"b"), Some((b"a".to_vec(), 1)));
    /// assert_eq!(map.pred(b"a"), None);
    /// ```
    pub fn pred(&self, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        let mut cursor = Cursor::new(self);
        cursor.seek_for_pred_exclusive(key);
        cursor.prev()
    }

    /// Lazily iterates over the keys within `bounds`, in ascending order.
    ///
    /// Accepts any [`RangeBounds`] over byte-string-like keys:
    ///
    /// ```
    /// use hyperion_core::HyperionMap;
    ///
    /// let mut map = HyperionMap::new();
    /// map.put(b"a", 1);
    /// map.put(b"b", 2);
    /// map.put(b"c", 3);
    /// let keys: Vec<_> = map.range(&b"a"[..]..&b"c"[..]).map(|(k, _)| k).collect();
    /// assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec()]);
    /// assert_eq!(map.range(&b"b"[..]..).count(), 2);
    /// ```
    pub fn range<K, R>(&self, bounds: R) -> Range<'_>
    where
        K: AsRef<[u8]> + ?Sized,
        R: RangeBounds<K>,
    {
        let mut cursor = Cursor::new(self);
        let start = match bounds.start_bound() {
            Bound::Unbounded => LowerBound::Unbounded,
            Bound::Included(start) => {
                cursor.seek(start.as_ref());
                LowerBound::Included(start.as_ref().to_vec())
            }
            Bound::Excluded(start) => {
                cursor.seek_exclusive(start.as_ref());
                LowerBound::Excluded(start.as_ref().to_vec())
            }
        };
        let end = match bounds.end_bound() {
            Bound::Unbounded => UpperBound::Unbounded,
            Bound::Excluded(end) => UpperBound::Excluded(end.as_ref().to_vec()),
            Bound::Included(end) => UpperBound::Included(end.as_ref().to_vec()),
        };
        Range {
            cursor,
            back: None,
            start,
            end,
            front_key: Vec::new(),
            has_front: false,
            back_key: Vec::new(),
            has_back: false,
            done: false,
            at_most: self.len(),
        }
    }

    /// Lazily iterates over all keys starting with `prefix`, in ascending
    /// order.
    ///
    /// ```
    /// use hyperion_core::HyperionMap;
    ///
    /// let mut map = HyperionMap::new();
    /// map.put(b"the", 1);
    /// map.put(b"that", 2);
    /// map.put(b"to", 3);
    /// let th: Vec<_> = map.prefix(b"th").map(|(k, _)| k).collect();
    /// assert_eq!(th, vec![b"that".to_vec(), b"the".to_vec()]);
    /// ```
    pub fn prefix(&self, prefix: &[u8]) -> Prefix<'_> {
        let mut cursor = Cursor::new(self);
        cursor.seek(prefix);
        let end = match prefix_upper_bound(prefix) {
            Some(end) => UpperBound::Excluded(end),
            None => UpperBound::Unbounded,
        };
        Prefix(Range {
            cursor,
            back: None,
            start: LowerBound::Included(prefix.to_vec()),
            end,
            front_key: Vec::new(),
            has_front: false,
            back_key: Vec::new(),
            has_back: false,
            done: false,
            at_most: self.len(),
        })
    }
}

/// A type-erased ordered iterator over `(key, value)` pairs, the return type
/// of the [`crate::OrderedRead`] iterator methods.
///
/// Structures with a native cursor (Hyperion) return a lazy variant; the
/// default trait implementation materialises via the callback walk, which is
/// what the pointer-based baselines use.
pub struct Entries<'a> {
    inner: EntriesInner<'a>,
    /// Optional exclusive upper bound in the original key space.
    end: Option<Vec<u8>>,
    done: bool,
}

enum EntriesInner<'a> {
    /// An eagerly collected, sorted snapshot.
    Sorted(std::vec::IntoIter<(Vec<u8>, u64)>),
    /// A lazily advancing iterator (e.g. a Hyperion [`Cursor`]).
    Lazy(Box<dyn Iterator<Item = (Vec<u8>, u64)> + 'a>),
    /// A lazily advancing double-ended iterator (e.g. a Hyperion [`Range`]):
    /// `next_back` stays lazy instead of materialising the tail.
    Bidi(Box<dyn DoubleEndedIterator<Item = (Vec<u8>, u64)> + 'a>),
}

impl<'a> Entries<'a> {
    /// Wraps an eagerly collected vector of pairs (must be sorted by key).
    pub fn from_sorted_vec(pairs: Vec<(Vec<u8>, u64)>) -> Entries<'a> {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0));
        Entries {
            inner: EntriesInner::Sorted(pairs.into_iter()),
            end: None,
            done: false,
        }
    }

    /// Wraps a lazy iterator that yields pairs in ascending key order.
    pub fn from_lazy<I>(iter: I) -> Entries<'a>
    where
        I: Iterator<Item = (Vec<u8>, u64)> + 'a,
    {
        Entries {
            inner: EntriesInner::Lazy(Box::new(iter)),
            end: None,
            done: false,
        }
    }

    /// Wraps a lazy *double-ended* iterator (ascending from the front,
    /// descending from the back); [`Entries::next_back`] then walks the tail
    /// without materialising it.
    pub fn from_bidi<I>(iter: I) -> Entries<'a>
    where
        I: DoubleEndedIterator<Item = (Vec<u8>, u64)> + 'a,
    {
        Entries {
            inner: EntriesInner::Bidi(Box::new(iter)),
            end: None,
            done: false,
        }
    }

    /// Restricts the iterator to keys strictly below `end`, keeping the
    /// tighter bound if one is already set.
    pub fn below(mut self, end: Vec<u8>) -> Entries<'a> {
        self.end = Some(match self.end.take() {
            Some(existing) => existing.min(end),
            None => end,
        });
        self
    }
}

impl Iterator for Entries<'_> {
    type Item = (Vec<u8>, u64);

    fn next(&mut self) -> Option<(Vec<u8>, u64)> {
        if self.done {
            return None;
        }
        let next = match &mut self.inner {
            EntriesInner::Sorted(it) => it.next(),
            EntriesInner::Lazy(it) => it.next(),
            EntriesInner::Bidi(it) => it.next(),
        };
        match next {
            Some((key, value)) => {
                if let Some(end) = &self.end {
                    if key.as_slice() >= end.as_slice() {
                        // Ascending front: everything still inside the inner
                        // iterator sorts at or above this key, so the whole
                        // iterator (both ends) is exhausted.
                        self.done = true;
                        return None;
                    }
                }
                Some((key, value))
            }
            None => {
                self.done = true;
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        let (lower, upper) = match &self.inner {
            EntriesInner::Sorted(it) => it.size_hint(),
            EntriesInner::Lazy(it) => it.size_hint(),
            EntriesInner::Bidi(it) => it.size_hint(),
        };
        // An end bound can cut the walk short, making the inner lower bound
        // dishonest; without one the inner hints pass through unchanged.
        if self.end.is_some() {
            (0, upper)
        } else {
            (lower, upper)
        }
    }
}

impl DoubleEndedIterator for Entries<'_> {
    /// Yields the remaining entries from the greatest key downward.
    ///
    /// Sorted and bidirectional inners step backward natively; a plain lazy
    /// inner is drained into a sorted snapshot on the first back step (the
    /// eager baselines hand over sorted vectors, so this fallback only
    /// triggers for custom `from_lazy` sources).
    fn next_back(&mut self) -> Option<(Vec<u8>, u64)> {
        if self.done {
            return None;
        }
        if matches!(self.inner, EntriesInner::Lazy(_)) {
            let EntriesInner::Lazy(it) = std::mem::replace(
                &mut self.inner,
                EntriesInner::Sorted(Vec::new().into_iter()),
            ) else {
                unreachable!()
            };
            self.inner = EntriesInner::Sorted(it.collect::<Vec<_>>().into_iter());
        }
        loop {
            let next = match &mut self.inner {
                EntriesInner::Sorted(it) => it.next_back(),
                EntriesInner::Bidi(it) => it.next_back(),
                EntriesInner::Lazy(_) => unreachable!("lazy inner drained above"),
            };
            let Some((key, value)) = next else {
                self.done = true;
                return None;
            };
            if let Some(end) = &self.end {
                if key.as_slice() >= end.as_slice() {
                    // Descending back end: out-of-bound keys come first;
                    // skip them until the walk drops below the bound.
                    continue;
                }
            }
            return Some((key, value));
        }
    }
}

impl std::iter::FusedIterator for Entries<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_map(n: u64) -> (HyperionMap, BTreeMap<Vec<u8>, u64>) {
        let mut map = HyperionMap::new();
        let mut reference = BTreeMap::new();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mix of short string keys and raw integer keys.
            let key = if i % 3 == 0 {
                format!("k{:06}", x % 100_000).into_bytes()
            } else {
                x.to_be_bytes().to_vec()
            };
            map.put(&key, i);
            reference.insert(key, i);
        }
        (map, reference)
    }

    #[test]
    fn cursor_yields_all_keys_in_order() {
        let (map, reference) = sample_map(5_000);
        let got: Vec<_> = map.iter().collect();
        let expected: Vec<_> = reference.into_iter().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn cursor_seek_matches_btreemap_range() {
        let (map, reference) = sample_map(3_000);
        for probe in [
            &b""[..],
            b"k0",
            b"k05",
            b"k099999",
            b"zzz",
            &[0x00],
            &[0x80, 0x00],
            &[0xff, 0xff, 0xff],
        ] {
            let mut cur = map.cursor();
            cur.seek(probe);
            let got: Vec<_> = (&mut cur).take(50).collect();
            let expected: Vec<_> = reference
                .range(probe.to_vec()..)
                .take(50)
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, expected, "seek {probe:?}");
        }
    }

    #[test]
    fn seek_past_end_is_exhausted() {
        let (map, _) = sample_map(500);
        let mut cur = map.cursor();
        cur.seek(&[0xff; 16]);
        assert_eq!(cur.next(), None);
        // A cursor can be re-seeked after exhaustion.
        cur.seek(&[]);
        assert!(cur.next().is_some());
    }

    #[test]
    fn range_bounds_semantics() {
        let mut map = HyperionMap::new();
        for b in [b"a", b"b", b"c", b"d"] {
            map.put(b, b[0] as u64);
        }
        let keys = |r: Range| r.map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(
            keys(map.range(&b"b"[..]..&b"d"[..])),
            vec![b"b".to_vec(), b"c".to_vec()]
        );
        assert_eq!(
            keys(map.range(&b"b"[..]..=&b"d"[..])),
            vec![b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
        assert_eq!(keys(map.range(&b"b"[..]..&b"b"[..])), Vec::<Vec<u8>>::new());
        assert_eq!(map.range::<[u8], _>(..).count(), 4);
        use std::ops::Bound;
        let after_b: Vec<_> = map
            .range::<[u8], _>((Bound::Excluded(&b"b"[..]), Bound::Unbounded))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(after_b, vec![b"c".to_vec(), b"d".to_vec()]);
    }

    #[test]
    fn prefix_iteration_with_0xff_boundary() {
        let mut map = HyperionMap::new();
        map.put(&[0xff, 0x01], 1);
        map.put(&[0xff, 0xff], 2);
        map.put(&[0xff, 0xff, 0x00], 3);
        map.put(&[0xfe], 4);
        assert_eq!(map.prefix(&[0xff]).count(), 3);
        assert_eq!(map.prefix(&[0xff, 0xff]).count(), 2);
        assert_eq!(map.prefix(&[]).count(), 4);
    }

    #[test]
    fn prefix_upper_bound_edge_cases() {
        assert_eq!(prefix_upper_bound(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_upper_bound(&[0x01, 0xff]), Some(vec![0x02]));
        assert_eq!(prefix_upper_bound(&[0xff, 0xff]), None);
        assert_eq!(prefix_upper_bound(&[]), None);
    }

    #[test]
    fn empty_key_is_iterated_first() {
        let mut map = HyperionMap::new();
        map.put(b"", 7);
        map.put(b"a", 1);
        let got: Vec<_> = map.iter().collect();
        assert_eq!(got, vec![(Vec::new(), 7), (b"a".to_vec(), 1)]);
        let mut cur = map.cursor();
        cur.seek(b"a");
        assert_eq!(cur.next(), Some((b"a".to_vec(), 1)));
    }

    #[test]
    fn iteration_restores_preprocessed_keys() {
        let mut map = HyperionMap::with_config(crate::HyperionConfig::with_preprocessing());
        let mut reference = BTreeMap::new();
        let mut x: u64 = 99;
        for i in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = x.to_be_bytes();
            map.put(&key, i);
            reference.insert(key.to_vec(), i);
        }
        let got: Vec<_> = map.iter().collect();
        let expected: Vec<_> = reference.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(got, expected);
        // Seek in original key space must also work under pre-processing.
        let mid = expected[1000].0.clone();
        let mut cur = map.cursor();
        cur.seek(&mid);
        assert_eq!(cur.next(), Some(expected[1000].clone()));
    }

    #[test]
    fn iter_is_exact_size_and_fused() {
        let (map, reference) = sample_map(2_000);
        let mut iter = map.iter();
        assert_eq!(iter.len(), reference.len());
        assert_eq!(iter.size_hint(), (reference.len(), Some(reference.len())));
        for remaining in (0..reference.len()).rev() {
            assert!(iter.next().is_some());
            assert_eq!(iter.len(), remaining);
        }
        assert_eq!(iter.next(), None);
        assert_eq!(iter.next(), None, "fused after exhaustion");
        assert_eq!(iter.size_hint(), (0, Some(0)));
        // `count` and friends can rely on the exact hint.
        assert_eq!(map.iter().count(), reference.len());
    }

    #[test]
    fn range_and_prefix_size_hints_are_honest() {
        let (map, reference) = sample_map(1_000);
        let total = reference.len();
        let mut range = map.range(&b"k"[..]..&b"l"[..]);
        let (lo, hi) = range.size_hint();
        assert_eq!(lo, 0, "bounded range cannot promise entries");
        assert_eq!(hi, Some(total));
        let mut yielded = 0usize;
        while let Some(_) = range.next() {
            yielded += 1;
            let (lo, hi) = range.size_hint();
            assert_eq!(lo, 0);
            assert!(hi.unwrap() <= total - yielded);
        }
        assert!(yielded > 0);
        assert_eq!(range.next(), None, "fused after exhaustion");
        assert_eq!(range.size_hint(), (0, Some(0)));

        let mut prefix = map.prefix(b"k");
        assert_eq!(prefix.size_hint().0, 0);
        assert_eq!(prefix.size_hint().1, Some(total));
        assert_eq!(prefix.by_ref().count(), yielded);
        assert_eq!(prefix.next(), None);
        assert_eq!(prefix.size_hint(), (0, Some(0)));
    }

    #[test]
    fn entries_size_hint_passthrough_and_bounded() {
        let pairs: Vec<(Vec<u8>, u64)> = (0..10u64).map(|i| (vec![i as u8], i)).collect();
        let entries = Entries::from_sorted_vec(pairs.clone());
        assert_eq!(entries.size_hint(), (10, Some(10)));
        let bounded = Entries::from_sorted_vec(pairs).below(vec![5]);
        assert_eq!(bounded.size_hint().0, 0, "end bound may cut the walk short");
        assert_eq!(bounded.count(), 5);
    }

    #[test]
    fn reverse_cursor_yields_all_keys_in_descending_order() {
        let (map, reference) = sample_map(5_000);
        let mut cur = map.cursor();
        cur.seek_last();
        let mut got = Vec::new();
        while let Some(pair) = cur.prev() {
            got.push(pair);
        }
        let expected: Vec<_> = reference.into_iter().rev().collect();
        assert_eq!(got, expected);
        assert_eq!(cur.prev(), None, "exhausted backward cursor stays dry");
    }

    #[test]
    fn seek_for_pred_matches_btreemap() {
        let (map, reference) = sample_map(3_000);
        for probe in [
            &b""[..],
            b"k0",
            b"k05",
            b"k099999",
            b"zzz",
            &[0x00],
            &[0x80, 0x00],
            &[0xff, 0xff, 0xff],
        ] {
            // Inclusive: last key <= probe.
            let mut cur = map.cursor();
            cur.seek_for_pred(probe);
            let got: Vec<_> = std::iter::from_fn(|| cur.prev()).take(50).collect();
            let expected: Vec<_> = reference
                .range(..=probe.to_vec())
                .rev()
                .take(50)
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, expected, "seek_for_pred {probe:?}");
            // Exclusive: last key < probe.
            let mut cur = map.cursor();
            cur.seek_for_pred_exclusive(probe);
            let got: Vec<_> = std::iter::from_fn(|| cur.prev()).take(50).collect();
            let expected: Vec<_> = reference
                .range(..probe.to_vec())
                .rev()
                .take(50)
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, expected, "seek_for_pred_exclusive {probe:?}");
        }
    }

    #[test]
    fn last_and_pred_queries() {
        let (map, reference) = sample_map(2_000);
        assert_eq!(
            map.last(),
            reference.iter().next_back().map(|(k, v)| (k.clone(), *v))
        );
        for (k, _) in reference.iter().step_by(97) {
            let expected = reference
                .range(..k.clone())
                .next_back()
                .map(|(k, v)| (k.clone(), *v));
            assert_eq!(map.pred(k), expected, "pred {k:x?}");
        }
        assert_eq!(HyperionMap::new().last(), None);
        assert_eq!(HyperionMap::new().pred(b"anything"), None);
        assert_eq!(map.pred(b""), None, "nothing sorts below the empty key");
    }

    #[test]
    fn cursor_turn_around_steps_to_neighbours() {
        let mut map = HyperionMap::new();
        for b in [b"a", b"b", b"c", b"d", b"e"] {
            map.put(b, b[0] as u64);
        }
        let mut cur = map.cursor();
        cur.seek(b"c");
        assert_eq!(cur.next(), Some((b"c".to_vec(), b'c' as u64)));
        // prev() after next() steps to the strict predecessor of the last
        // returned key, not back to the same key.
        assert_eq!(cur.prev(), Some((b"b".to_vec(), b'b' as u64)));
        assert_eq!(cur.prev(), Some((b"a".to_vec(), b'a' as u64)));
        assert_eq!(cur.prev(), None);
        // And next() after prev() steps to the strict successor of the last
        // returned key ("a" is the reference point even after the None).
        assert_eq!(cur.next(), Some((b"b".to_vec(), b'b' as u64)));

        // Turn-around before anything was returned anchors on the target.
        let mut cur = map.cursor();
        cur.seek(b"c");
        assert_eq!(cur.prev(), Some((b"b".to_vec(), b'b' as u64)));
        let mut cur = map.cursor();
        cur.seek_exclusive(b"c");
        assert_eq!(cur.prev(), Some((b"c".to_vec(), b'c' as u64)));
        let mut cur = map.cursor();
        cur.seek_for_pred(b"c");
        assert_eq!(cur.next(), Some((b"d".to_vec(), b'd' as u64)));
        let mut cur = map.cursor();
        cur.seek_for_pred_exclusive(b"c");
        assert_eq!(cur.next(), Some((b"c".to_vec(), b'c' as u64)));
        // After seek_last the cursor sits past every key: next() is dry but
        // prev() still returns the last key.
        let mut cur = map.cursor();
        cur.seek_last();
        assert_eq!(cur.next(), None);
        assert_eq!(cur.prev(), Some((b"e".to_vec(), b'e' as u64)));
    }

    #[test]
    fn iter_rev_matches_btreemap() {
        let (map, reference) = sample_map(4_000);
        let got: Vec<_> = map.iter().rev().collect();
        let expected: Vec<_> = reference
            .iter()
            .rev()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(got, expected);
        // Meet-in-the-middle: consume from both ends alternately.
        let mut iter = map.iter();
        let mut front = Vec::new();
        let mut back = Vec::new();
        while let Some(pair) = iter.next() {
            front.push(pair);
            match iter.next_back() {
                Some(pair) => back.push(pair),
                None => break,
            }
        }
        back.reverse();
        front.extend(back);
        let all: Vec<_> = reference.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(front, all, "two-ended consumption covers every key once");
    }

    #[test]
    fn range_and_prefix_rev_match_btreemap() {
        let (map, reference) = sample_map(3_000);
        let ranges: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (b"k0".to_vec(), b"k06".to_vec()),
            (Vec::new(), vec![0xff; 4]),
            (b"a".to_vec(), b"z".to_vec()),
            (vec![0x10], vec![0xf0]),
        ];
        for (lo, hi) in &ranges {
            let got: Vec<_> = map.range(&lo[..]..&hi[..]).rev().collect();
            let expected: Vec<_> = reference
                .range(lo.clone()..hi.clone())
                .rev()
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, expected, "rev range {lo:x?}..{hi:x?}");
            // Inclusive end.
            let got: Vec<_> = map.range(&lo[..]..=&hi[..]).rev().collect();
            let expected: Vec<_> = reference
                .range(lo.clone()..=hi.clone())
                .rev()
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, expected, "rev inclusive range {lo:x?}..={hi:x?}");
        }
        for prefix in [&b"k0"[..], b"k00", b"", &[0x80]] {
            let got: Vec<_> = map.prefix(prefix).rev().map(|(k, _)| k).collect();
            let mut expected: Vec<_> = reference
                .keys()
                .filter(|k| k.starts_with(prefix))
                .cloned()
                .collect();
            expected.reverse();
            assert_eq!(got, expected, "rev prefix {prefix:x?}");
        }
        // Two-ended range consumption never yields a key twice.
        let mut range = map.range(&b"k"[..]..&b"l"[..]);
        let mut seen = std::collections::BTreeSet::new();
        while let Some((k, _)) = range.next() {
            assert!(seen.insert(k), "front re-yielded a key");
            let Some((k, _)) = range.next_back() else {
                break;
            };
            assert!(seen.insert(k), "back re-yielded a key");
        }
        let expected = reference.range(b"k".to_vec()..b"l".to_vec()).count();
        assert_eq!(seen.len(), expected);
    }

    #[test]
    fn reverse_iteration_restores_preprocessed_keys() {
        let mut map = HyperionMap::with_config(crate::HyperionConfig::with_preprocessing());
        let mut reference = BTreeMap::new();
        let mut x: u64 = 7;
        for i in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = x.to_be_bytes();
            map.put(&key, i);
            reference.insert(key.to_vec(), i);
        }
        let got: Vec<_> = map.iter().rev().collect();
        let expected: Vec<_> = reference
            .iter()
            .rev()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(got, expected);
        let mid = expected[1000].0.clone();
        assert_eq!(
            map.pred(&mid),
            reference
                .range(..mid.clone())
                .next_back()
                .map(|(k, v)| (k.clone(), *v))
        );
    }

    #[test]
    fn empty_key_is_reverse_iterated_last() {
        let mut map = HyperionMap::new();
        map.put(b"", 7);
        map.put(b"a", 1);
        let got: Vec<_> = map.iter().rev().collect();
        assert_eq!(got, vec![(b"a".to_vec(), 1), (Vec::new(), 7)]);
        assert_eq!(map.pred(b"a"), Some((Vec::new(), 7)));
        assert_eq!(map.last(), Some((b"a".to_vec(), 1)));
        let mut only_empty = HyperionMap::new();
        only_empty.put(b"", 9);
        assert_eq!(only_empty.last(), Some((Vec::new(), 9)));
        assert_eq!(only_empty.pred(b""), None);
    }

    #[test]
    fn entries_are_double_ended() {
        let pairs: Vec<(Vec<u8>, u64)> = (0..10u64).map(|i| (vec![i as u8], i)).collect();
        // Sorted inner.
        let entries = Entries::from_sorted_vec(pairs.clone());
        let got: Vec<_> = entries.rev().map(|(_, v)| v).collect();
        assert_eq!(got, (0..10u64).rev().collect::<Vec<_>>());
        // Bounded back end skips out-of-bound entries.
        let bounded = Entries::from_sorted_vec(pairs.clone()).below(vec![5]);
        let got: Vec<_> = bounded.rev().map(|(_, v)| v).collect();
        assert_eq!(got, vec![4, 3, 2, 1, 0]);
        // Lazy inner falls back to a drained snapshot.
        let lazy = Entries::from_lazy(pairs.clone().into_iter()).below(vec![7]);
        let got: Vec<_> = lazy.rev().map(|(_, v)| v).collect();
        assert_eq!(got, vec![6, 5, 4, 3, 2, 1, 0]);
        // Bidi inner (the Hyperion override path) stays lazy.
        let (map, reference) = sample_map(500);
        let entries = Entries::from_bidi(map.range::<[u8], _>(..));
        let got: Vec<_> = entries.rev().collect();
        let expected: Vec<_> = reference
            .iter()
            .rev()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn lazy_iteration_stops_early_without_full_walk() {
        let (map, reference) = sample_map(20_000);
        // Taking 3 items from a lazy iterator must agree with the reference.
        let got: Vec<_> = map.iter().take(3).collect();
        let expected: Vec<_> = reference
            .iter()
            .take(3)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(got, expected);
    }
}
