//! The single-pass write engine.
//!
//! Every mutation of the trie — point puts, sorted batch puts, deletes —
//! goes through the `WriteEngine` in this module.  The engine replaces the
//! old retry-loop write path (which restarted the whole container descent
//! after every embedded-container ejection, up to 32 attempts) with a *write
//! cursor*: a descent that visits every container region exactly once per
//! key group and performs structural changes **in place** at the point where
//! they are discovered.
//!
//! # The descent protocol
//!
//! A write positions itself exactly like the read-side [`crate::Cursor`]:
//!
//! 1. **T level** — `t_scan_from` walks the T records of a region, seeding
//!    its start position from the *container jump table* (CJT) and resuming
//!    from the previous key's position when several sorted keys are applied
//!    to the same region (no rescan from region start).
//! 2. **S level** — `s_scan_from` walks the matched T record's children,
//!    seeded by the per-T-node jump table, again resuming across consecutive
//!    keys.
//! 3. **Child level** — path-compressed rewrites, embedded-region recursion
//!    or a pointer hop into a child container.
//!
//! The cursor carries a `Frame` per region: the resolved container (by
//! registry index, so a reallocation updates every holder at once), and the
//! chain of enclosing embedded containers with their eject contexts.
//!
//! # Structural changes without restarts
//!
//! Before splicing bytes into a region the engine calls `make_room`: while an
//! enclosing embedded container would overflow (or the surrounding container
//! passes the eject threshold), the *outermost* embedded container on the
//! path is ejected into a standalone container — and instead of restarting,
//! the engine **remaps** every live frame and offset through the eject (the
//! moved byte range shifts by a constant) and continues exactly where it
//! was.  All edits are logged as `Event`s (grow / shrink / eject) in the
//! per-container-visit `Site`; suspended frames re-synchronise lazily
//! against the log when control returns to them.
//!
//! # Gap coalescing
//!
//! When a batch of sorted keys misses in the same spot (between the same two
//! existing records), the engine builds **one** node stream for the whole
//! run and opens **one** gap (`Container::insert_gap`) for it, instead of
//! one memmove per record.  Runs are bounded by `MAX_SPLICE_BYTES` so a
//! giant batch cannot blow the 19-bit container size field; the T-level loop
//! then resumes at the splice point.  Containers are checked against the
//! split threshold between key groups, so a batch splits a container as
//! eagerly as point puts do (vertical splits, paper Figure 11).
//!
//! # Errors
//!
//! The old `assert!(attempts <= 32)` process abort is gone.  The only loop
//! left — ejecting enclosing embeds until the edit fits — is bounded by the
//! embed nesting depth; if it ever fails to converge the engine returns
//! [`WriteError::StructuralLoop`], surfaced as a typed error through
//! [`crate::HyperionDb`].

use crate::builder::StreamBuilder;
use crate::config::HyperionConfig;
use crate::container::{ContainerHandle, ContainerRef, CJT_GROUP, CJT_MAX_GROUPS, HEADER_SIZE};
use crate::node::{
    delta_for, delta_of, is_invalid, is_t_node, parse_pc_node, parse_s_node, parse_t_node,
    ChildKind, NodeType, SNode, TNode, HP_SIZE, JS_SIZE, TNODE_JT_ENTRIES, TNODE_JT_SIZE,
    TNODE_JT_STRIDE, VALUE_SIZE,
};
use crate::scan::{
    collect_s_records, collect_t_records_trusted, s_scan, s_scan_from, skip_t_children, t_scan,
    t_scan_from,
};
use crate::seqlock::MapSeq;
use crate::shortcut::Shortcut;
use crate::stats::TrieCounters;
use hyperion_mem::{HyperionPointer, MemoryManager};

/// Lower bound of the adaptive splice cap (the old fixed cap): even a
/// container already past its split threshold still coalesces runs of this
/// many bytes.
pub(crate) const MAX_SPLICE_BYTES: usize = 3072;

/// Upper bound of the adaptive splice cap.  Together with the split
/// threshold ceiling (208 KiB at maximum split delay) this keeps transient
/// container growth far below the 19-bit container size field.
const MAX_SPLICE_CAP: usize = 48 * 1024;

/// Slop added to `make_room` requests so follow-up fix-ups (sibling delta
/// re-encoding materialising an explicit key byte) cannot overflow an
/// embedded container that was measured only for the primary splice.
const ROOM_SLOP: usize = 8;

/// Defensive bound on consecutive ejections for a single edit.  Embeds nest
/// at most ~85 deep (each costs ≥ 3 bytes of a ≤ 255-byte body chain), so
/// hitting this bound means a structural invariant is broken.
const MAX_EJECTS_PER_EDIT: usize = 130;

/// Typed failure of the write engine.
///
/// The engine performs a bounded number of in-place structural changes per
/// edit; exceeding the bound indicates a broken structural invariant.  The
/// error is surfaced through [`crate::HyperionDb`] as
/// [`crate::HyperionError::StructuralLoop`] instead of aborting the process
/// (the old write path panicked after 32 retry attempts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WriteError {
    /// A single edit required more structural changes than the nesting depth
    /// of the trie allows; the map should be considered corrupt.
    StructuralLoop,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::StructuralLoop => {
                write!(f, "write engine failed to converge (structural loop)")
            }
        }
    }
}

impl std::error::Error for WriteError {}

/// One pending offset-field adjustment gathered before a byte shift.
enum Fix {
    /// Add `delta` to the u16 at `pos` (jump successor / T-node jump table).
    U16 { pos: usize, delta: i64 },
    /// Zero the u16 at `pos` (the target was removed).
    U16Clear { pos: usize },
    /// Add `delta` to the offset part of the container-jump-table entry at `pos`.
    Cjt { pos: usize, delta: i64 },
    /// Zero the container-jump-table entry at `pos`.
    CjtClear { pos: usize },
}

/// A byte-shift performed by the low-level plumbing, recorded so the batch
/// layer can convert it into a [`Event`] with the right container id.
enum RawEdit {
    Grow { at: usize, len: usize },
    Shrink { at: usize, len: usize },
}

/// A structural edit inside a [`Site`]; suspended frames replay events to
/// re-synchronise their offsets.
enum Event {
    /// `len` bytes inserted at `at` in container `cid`; offsets `>= at`
    /// shift right.
    Grow { cid: usize, at: usize, len: usize },
    /// `len` bytes removed at `at` in container `cid`; offsets `>= at + len`
    /// shift left.
    Shrink { cid: usize, at: usize, len: usize },
    /// The embedded container whose size byte sat at `embed_off` in
    /// container `old` was ejected: its body `[lo, hi)` moved into the fresh
    /// standalone container `new` (starting at [`HEADER_SIZE`]), and the
    /// embed was replaced by a 5-byte Hyperion Pointer.
    Eject {
        old: usize,
        embed_off: usize,
        lo: usize,
        hi: usize,
        new: usize,
    },
}

/// An enclosing embedded container on the descent path: the flag byte of the
/// S record owning it, and the offset of its size byte (both in the frame's
/// container).
#[derive(Clone, Copy)]
struct EmbedCtx {
    s_flag: usize,
    child: usize,
}

/// The write cursor's per-region context: which container the region lives
/// in (registry index) and the enclosing embedded containers, outermost
/// first.  Frames are cheap to clone; each recursion level owns one and
/// re-synchronises it against the event log after a callee returns.
#[derive(Clone)]
struct Frame {
    cid: usize,
    embeds: Vec<EmbedCtx>,
}

impl Frame {
    fn top() -> Frame {
        Frame {
            cid: 0,
            embeds: Vec::new(),
        }
    }

    /// Offsets of the enclosing embed size bytes (the legacy "embed chain").
    fn chain(&self) -> Vec<usize> {
        self.embeds.iter().map(|e| e.child).collect()
    }
}

/// A deferred Hyperion-Pointer write-back: container `child` was ejected out
/// of `(cid, off)`; if the child's HP changes later (its container was
/// reallocated while growing), the parent field must be rewritten.
struct Link {
    epoch: usize,
    cid: usize,
    off: usize,
    child: usize,
}

/// Per-container-visit state of the write cursor: the registry of open
/// containers (index-addressed so a reallocation is visible to every frame),
/// the event log, and pending HP write-backs.
struct Site {
    regs: Vec<ContainerRef>,
    events: Vec<Event>,
    links: Vec<Link>,
}

impl Site {
    fn new(c: ContainerRef) -> Site {
        Site {
            regs: vec![c],
            events: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Replays `events[*epoch..]` onto `frame` and the raw offsets `offs`
    /// (all located in `frame.cid`'s container), advancing `epoch`.
    fn sync(&self, epoch: &mut usize, frame: &mut Frame, offs: &mut [&mut usize]) {
        for event in &self.events[*epoch..] {
            match *event {
                Event::Grow { cid, at, len } if cid == frame.cid => {
                    for e in frame.embeds.iter_mut() {
                        if e.s_flag >= at {
                            e.s_flag += len;
                        }
                        if e.child >= at {
                            e.child += len;
                        }
                    }
                    for o in offs.iter_mut() {
                        if **o >= at {
                            **o += len;
                        }
                    }
                }
                Event::Shrink { cid, at, len } if cid == frame.cid => {
                    for e in frame.embeds.iter_mut() {
                        debug_assert!(e.s_flag < at || e.s_flag >= at + len);
                        if e.s_flag >= at + len {
                            e.s_flag -= len;
                        }
                        debug_assert!(e.child < at || e.child >= at + len);
                        if e.child >= at + len {
                            e.child -= len;
                        }
                    }
                    for o in offs.iter_mut() {
                        debug_assert!(**o < at || **o >= at + len, "anchor in shrunk range");
                        if **o >= at + len {
                            **o -= len;
                        }
                    }
                }
                Event::Eject {
                    old,
                    embed_off,
                    lo,
                    hi,
                    new,
                } if old == frame.cid => {
                    let inside = frame.embeds.first().is_some_and(|e| e.child == embed_off);
                    if inside {
                        // This frame's region lies inside the moved body: the
                        // ejected embed disappears from the chain and every
                        // offset shifts by a constant into the new container.
                        frame.embeds.remove(0);
                        for e in frame.embeds.iter_mut() {
                            debug_assert!(e.s_flag >= lo && e.s_flag < hi);
                            e.s_flag = HEADER_SIZE + (e.s_flag - lo);
                            e.child = HEADER_SIZE + (e.child - lo);
                        }
                        for o in offs.iter_mut() {
                            // `hi` itself is a valid anchor: an insert point
                            // at the end of the embedded body.
                            debug_assert!(**o >= lo && **o <= hi, "anchor outside ejected body");
                            **o = HEADER_SIZE + (**o - lo);
                        }
                        frame.cid = new;
                    } else {
                        // The frame encloses (or precedes) the ejected embed:
                        // the embed's bytes were replaced by a 5-byte HP.
                        let shift = HP_SIZE as isize - (hi - embed_off) as isize;
                        for e in frame.embeds.iter_mut() {
                            debug_assert!(e.child < embed_off || e.child >= hi);
                            if e.s_flag >= hi {
                                e.s_flag = (e.s_flag as isize + shift) as usize;
                            }
                            if e.child >= hi {
                                e.child = (e.child as isize + shift) as usize;
                            }
                        }
                        for o in offs.iter_mut() {
                            debug_assert!(**o < embed_off || **o >= hi);
                            if **o >= hi {
                                **o = (**o as isize + shift) as usize;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        *epoch = self.events.len();
    }

    /// Replays `events[epoch..]` onto a single point, which — unlike frame
    /// anchors — may also sit *inside* a later-ejected body (HP write-back
    /// positions do).  Returns the point's current `(cid, off)`.
    fn sync_point(&self, epoch: usize, mut cid: usize, mut off: usize) -> (usize, usize) {
        for event in &self.events[epoch..] {
            match *event {
                Event::Grow { cid: c, at, len } if c == cid && off >= at => {
                    off += len;
                }
                Event::Shrink { cid: c, at, len } if c == cid && off >= at + len => {
                    off -= len;
                }
                Event::Eject {
                    old,
                    embed_off,
                    lo,
                    hi,
                    new,
                } if old == cid => {
                    if off >= lo && off < hi {
                        cid = new;
                        off = HEADER_SIZE + (off - lo);
                    } else if off >= hi {
                        off =
                            (off as isize + HP_SIZE as isize - (hi - embed_off) as isize) as usize;
                    }
                }
                _ => {}
            }
        }
        (cid, off)
    }

    /// The bounds of the region `frame` addresses: the innermost embedded
    /// body, or the whole node stream.
    fn region(&self, frame: &Frame) -> (usize, usize) {
        let c = &self.regs[frame.cid];
        match frame.embeds.last() {
            Some(e) => {
                let size = c.bytes()[e.child] as usize;
                (e.child + 1, e.child + size)
            }
            None => (c.stream_start(), c.stream_end()),
        }
    }
}

/// Outcome of one `write_tops` pass over a region.
struct TopsOutcome {
    /// Entries consumed (the top-level loop may stop early at a split
    /// boundary; embedded regions always consume everything).
    consumed: usize,
    /// How many of the consumed entries created a new key.
    inserted: usize,
    /// Total T records walked across the visit (container-jump-table
    /// trigger).  A point put contributes its single scan; a batch's resumed
    /// scans sum to roughly one walk of the container — either way the
    /// trigger reflects how much linear scanning the container costs, which
    /// a per-scan maximum under resumed batch scans never did (batch-built
    /// containers used to end up with no jump table at all).
    scanned: usize,
}

/// The write engine: a borrow of the map's memory manager, configuration and
/// structural counters for the duration of one mutation.
pub(crate) struct WriteEngine<'a> {
    mm: &'a mut MemoryManager,
    config: &'a HyperionConfig,
    counters: &'a mut TrieCounters,
    /// The map's hashed shortcut layer.  The engine keeps it coherent while
    /// applying its event log: whenever the container pointer stored in a
    /// parent S-node changes or is freed (splits, reallocations, subtree
    /// deletes), the entry for that prefix is retagged or invalidated, and
    /// completed descents publish fresh entries so writes warm the cache.
    shortcut: &'a Shortcut,
    /// The owning map's seqlock.  The engine never moves it itself — the
    /// trie-level entry points open the mutation span — but it asserts the
    /// span is held (the version is odd) on entry and notes structural
    /// events (splits, ejections) against it, since those are the moments a
    /// concurrent optimistic reader is most likely to observe torn state.
    seq: &'a MapSeq,
    /// Byte shifts performed by the low-level plumbing since the last drain;
    /// the batch layer converts them into [`Event`]s.
    edits: Vec<RawEdit>,
}

impl<'a> WriteEngine<'a> {
    pub(crate) fn new(
        mm: &'a mut MemoryManager,
        config: &'a HyperionConfig,
        counters: &'a mut TrieCounters,
        shortcut: &'a Shortcut,
        seq: &'a MapSeq,
    ) -> WriteEngine<'a> {
        seq.assert_mutating();
        WriteEngine {
            mm,
            config,
            counters,
            shortcut,
            seq,
            edits: Vec::new(),
        }
    }

    /// Byte cap of one coalesced splice into `c`: a quarter of the
    /// container's current split threshold (clamped to
    /// `[MAX_SPLICE_BYTES, MAX_SPLICE_CAP]`), so large sorted runs coalesce
    /// proportionally to how far the container is allowed to grow before the
    /// next split check instead of stopping at a fixed 3 KiB.
    fn splice_cap(&self, c: &ContainerRef) -> usize {
        (self.config.split_threshold(c.split_delay()) / 4).clamp(MAX_SPLICE_BYTES, MAX_SPLICE_CAP)
    }

    fn resolve_handle(&self, hp: HyperionPointer, hint: u8) -> ContainerHandle {
        if hp.superbin() == 0 && self.mm.is_chained(hp) {
            let (index, _, _) = self
                .mm
                .resolve_chained(hp, hint)
                .expect("chained pointer without valid slot");
            ContainerHandle::ChainSlot { head: hp, index }
        } else {
            ContainerHandle::Standalone(hp)
        }
    }

    // =====================================================================
    // batch descent: pointer -> container -> T level -> S level -> children
    // =====================================================================

    /// Applies `entries` (strictly ascending full keys, suffixes starting at
    /// `depth` all non-empty) below the container(s) referenced by `*stored`.
    ///
    /// Progress is reported through the out-parameters so that a mid-batch
    /// engine failure leaves the caller with the last *committed* stored
    /// pointer (splits free the old allocation — returning the stale HP
    /// would dangle) and the inserts applied so far; only the failing
    /// container visit's own tally is indeterminate.
    pub(crate) fn write_into_pointer(
        &mut self,
        stored: &mut HyperionPointer,
        depth: usize,
        entries: &[(Vec<u8>, u64)],
        inserted: &mut usize,
    ) -> Result<(), WriteError> {
        debug_assert!(!entries.is_empty());
        let mut rest = entries;
        while !rest.is_empty() {
            // Crash-consistent boundary for deferred failpoint trips — but
            // only at the top-level loop: nested descents hold pending HP
            // write-backs in the enclosing visits, and the enclosing top
            // container may itself have moved without `*stored` hearing yet.
            #[cfg(feature = "failpoints")]
            if depth == 0 {
                hyperion_mem::failpoint::safe_point();
            }
            let hint = rest[0].0[depth];
            let (handle, group_len) = if stored.superbin() == 0 && self.mm.is_chained(*stored) {
                // Slot routing is monotone in the first key byte (chunk
                // `key >> 5`, falling back to the next valid slot below), so
                // one valid-slot lookup and a binary search bound the whole
                // same-slot run — no per-entry probing.
                let valid = self.mm.chained_valid_slots(*stored);
                let hint_block = (hint >> 5) as usize;
                let index = valid
                    .iter()
                    .copied()
                    .filter(|&slot| slot <= hint_block)
                    .max()
                    .expect("chained pointer without valid slot");
                let j = match valid.iter().copied().find(|&slot| slot > hint_block) {
                    Some(next) => {
                        let boundary = (next * 32) as u8;
                        rest.partition_point(|(key, _)| key[depth] < boundary)
                    }
                    None => rest.len(),
                };
                (
                    ContainerHandle::ChainSlot {
                        head: *stored,
                        index,
                    },
                    j,
                )
            } else {
                (ContainerHandle::Standalone(*stored), rest.len())
            };
            let (consumed, n, new_stored) =
                self.write_container(handle, depth, &rest[..group_len])?;
            debug_assert!(consumed >= 1, "write_container must make progress");
            *inserted += n;
            *stored = new_stored;
            rest = &rest[consumed..];
        }
        Ok(())
    }

    /// Applies a prefix of `entries` to one container, then performs the
    /// deferred maintenance (HP write-backs, container-jump-table rebuild,
    /// vertical split).  Returns `(entries consumed, inserted, stored HP)`.
    fn write_container(
        &mut self,
        handle: ContainerHandle,
        depth: usize,
        entries: &[(Vec<u8>, u64)],
    ) -> Result<(usize, usize, HyperionPointer), WriteError> {
        let mut site = Site::new(ContainerRef::open(self.mm, handle));
        let outcome = self.write_tops(&mut site, Frame::top(), depth, entries, true)?;
        self.flush_links(&mut site);
        let c = &mut site.regs[0];
        if self.config.container_jump_table
            && outcome.scanned >= self.config.container_jump_table_scan_limit
        {
            // Site sits at this call only: the mid-split rebuild in
            // `rebuild_split_halves` runs after the old container is freed,
            // where even a deferred trip schedule should not add noise.
            hyperion_mem::fail_point!("write.cjt_rebuild");
            self.rebuild_container_jump_table(c);
            self.edits.clear();
        }
        let split = if self.config.container_split {
            self.maybe_split(c)
        } else {
            None
        };
        // After an in-chain split (also `None`) the old slot block is freed
        // and `c`'s bytes must not be touched — only the handle-derived
        // stored pointer is still meaningful.
        let stored = split.unwrap_or_else(|| c.handle().stored_pointer());
        Ok((outcome.consumed, outcome.inserted, stored))
    }

    /// Writes every pending Hyperion-Pointer write-back (innermost first)
    /// *without* discharging the links: containers that keep growing are
    /// re-flushed later.  Used to make the container bytes coherent before
    /// the write cursor re-reads a child pointer mid-group.
    fn flush_links_keep(&mut self, site: &mut Site) {
        for i in (0..site.links.len()).rev() {
            let link = &site.links[i];
            let current = site.regs[link.child].handle().stored_pointer();
            let (cid, off) = site.sync_point(link.epoch, link.cid, link.off);
            if site.regs[cid].read_hp(off) != current {
                site.regs[cid].write_hp(off, current);
            }
        }
    }

    /// Discharges the pending write-back anchored at `(cid, off)` and every
    /// link parented inside the released child's container subtree.  Called
    /// after a pointer-path descent took over that subtree: the descent
    /// performs its own write-backs (possibly splitting or reallocating the
    /// containers), so this site's cached `ContainerRef`s for the subtree —
    /// and therefore its links — are no longer authoritative.
    fn release_subtree_links(&mut self, site: &mut Site, cid: usize, off: usize) {
        let mut released: Vec<usize> = Vec::new();
        let mut k = 0;
        // Links are created outermost-first, so one forward pass sees every
        // parent before the links it owns.
        while k < site.links.len() {
            let link = &site.links[k];
            let (link_cid, link_off) = site.sync_point(link.epoch, link.cid, link.off);
            if (link_cid == cid && link_off == off) || released.contains(&link_cid) {
                released.push(site.links[k].child);
                site.links.remove(k);
            } else {
                k += 1;
            }
        }
    }

    /// Rewrites every ejected child's Hyperion Pointer whose container was
    /// reallocated after the eject, and discharges the links.
    fn flush_links(&mut self, site: &mut Site) {
        self.flush_links_keep(site);
        site.links.clear();
    }

    /// The T-level loop of the write cursor: walks one region's T records,
    /// resuming the scan across consecutive keys, splicing coalesced runs of
    /// new subtrees at misses and descending at hits.
    ///
    /// `top` marks the top-level call for a container (enables CJT seeding
    /// and between-group split checks); embedded regions pass `false`.
    fn write_tops(
        &mut self,
        site: &mut Site,
        mut frame: Frame,
        depth: usize,
        entries: &[(Vec<u8>, u64)],
        top: bool,
    ) -> Result<TopsOutcome, WriteError> {
        let mut epoch = site.events.len();
        let (mut pos, _) = site.region(&frame);
        let mut prev: Option<u8> = None;
        let mut first_scan = true;
        let mut inserted = 0usize;
        let mut scanned_total = 0usize;
        let mut i = 0usize;
        while i < entries.len() {
            let (_, region_end) = site.region(&frame);
            let target = entries[i].0[depth];
            let ts = t_scan_from(
                &site.regs[frame.cid],
                pos,
                region_end,
                prev,
                target,
                top && first_scan,
            );
            first_scan = false;
            scanned_total += ts.scanned;
            match ts.found {
                None => {
                    // Coalesced run: every consecutive entry whose first byte
                    // sorts before the successor record joins one splice.
                    let cap = self.splice_cap(&site.regs[frame.cid]);
                    let limit = ts.successor.as_ref().map(|s| s.key);
                    let mut est = splice_estimate(&entries[i].0, depth);
                    let mut j = i + 1;
                    while j < entries.len() {
                        let k0 = entries[j].0[depth];
                        if limit.is_some_and(|l| k0 >= l) {
                            break;
                        }
                        let e = splice_estimate(&entries[j].0, depth);
                        if est + e > cap {
                            break;
                        }
                        est += e;
                        j += 1;
                    }
                    let capped =
                        j < entries.len() && !limit.is_some_and(|l| entries[j].0[depth] >= l);
                    let run: Vec<(Vec<u8>, u64)> = entries[i..j]
                        .iter()
                        .map(|(k, v)| (k[depth..].to_vec(), *v))
                        .collect();
                    let stream = {
                        let parent_size = site.regs[frame.cid].size();
                        let mut b = StreamBuilder::new(self.mm, self.config)
                            .with_parent_size(parent_size)
                            .with_shortcut(self.shortcut, &entries[i].0[..depth])
                            .with_jumps(top);
                        b.build_stream(ts.prev_key, &run)
                    };
                    self.edits.clear();
                    let mut at = ts.insert_at;
                    self.make_room(
                        site,
                        &mut frame,
                        &mut epoch,
                        stream.len() + ROOM_SLOP,
                        &mut [&mut at],
                    )?;
                    self.grow_level(site, &frame, at, stream.len(), true);
                    site.regs[frame.cid].bytes_mut()[at..at + stream.len()]
                        .copy_from_slice(&stream);
                    let last_key = *run.last().map(|(k, _)| &k[0]).expect("non-empty run");
                    if let Some(succ) = &ts.successor {
                        self.fix_sibling_delta_level(
                            site,
                            &frame,
                            at + stream.len(),
                            succ.key,
                            Some(last_key),
                        );
                    }
                    // The events just logged all lie at or after the splice
                    // point; no live anchor of this level shifts.
                    epoch = site.events.len();
                    inserted += j - i;
                    if capped {
                        // The run was cut inside a T group: rescan the just
                        // written records so the next key finds its T record.
                        pos = at;
                        prev = ts.prev_key;
                    } else {
                        pos = at + stream.len();
                        prev = Some(last_key);
                    }
                    i = j;
                }
                Some(t) => {
                    let mut j = i + 1;
                    while j < entries.len() && entries[j].0[depth] == t.key {
                        j += 1;
                    }
                    let mut t_off = t.offset;
                    let (group_inserted, next_pos) = self.write_t_group(
                        site,
                        &mut frame,
                        &mut epoch,
                        &mut t_off,
                        ts.prev_key,
                        depth,
                        &entries[i..j],
                    )?;
                    inserted += group_inserted;
                    pos = next_pos;
                    prev = Some(t.key);
                    i = j;
                }
            }
            if top {
                // Group boundary: no suspended frame references the event
                // log here, so pending HP write-backs can be flushed and the
                // log truncated — keeping both the log and the per-link
                // replay cost proportional to one group, not the batch.
                self.flush_links(site);
                site.events.clear();
                epoch = 0;
                if i < entries.len() {
                    let c = &site.regs[0];
                    if self.config.container_split
                        && c.size() >= self.config.split_threshold(c.split_delay())
                    {
                        // Stop early so the container is split before it
                        // grows further; the caller re-dispatches the
                        // remaining keys.
                        break;
                    }
                }
            }
        }
        Ok(TopsOutcome {
            consumed: i,
            inserted,
            scanned: scanned_total,
        })
    }

    /// Applies a group of entries sharing `key[depth]` below the T record at
    /// `t_off`.  Returns the insert count and the offset just past the T
    /// subtree (the resume position for the next T sibling).
    #[allow(clippy::too_many_arguments)]
    fn write_t_group(
        &mut self,
        site: &mut Site,
        frame: &mut Frame,
        epoch: &mut usize,
        t_off: &mut usize,
        t_prev_key: Option<u8>,
        depth: usize,
        entries: &[(Vec<u8>, u64)],
    ) -> Result<(usize, usize), WriteError> {
        let mut inserted = 0usize;
        let mut i = 0usize;
        // A suffix of length one terminates at the T record itself.
        if entries[0].0.len() == depth + 1 {
            let t = parse_t_node(site.regs[frame.cid].bytes(), *t_off, t_prev_key)
                .expect("T record for value update");
            if let Some(off) = t.value_offset {
                site.regs[frame.cid].write_u64(off, entries[0].1);
            } else {
                self.make_room(site, frame, epoch, VALUE_SIZE + ROOM_SLOP, &mut [t_off])?;
                let value_pos = *t_off + 1 + t.explicit_key as usize;
                self.grow_level(site, &frame.clone(), value_pos, VALUE_SIZE, false);
                site.sync(epoch, frame, &mut [t_off]);
                let c = &mut site.regs[frame.cid];
                c.write_u64(*t_off + 1 + t.explicit_key as usize, entries[0].1);
                let flag = c.bytes()[*t_off];
                c.bytes_mut()[*t_off] = (flag & !0b11) | NodeType::LeafWithValue as u8;
                inserted += 1;
            }
            i = 1;
        }
        let mut children_seen = 0usize;
        let mut s_inserted_any = false;
        if i < entries.len() {
            // S-level loop, resuming the child scan across consecutive keys.
            let t = parse_t_node(site.regs[frame.cid].bytes(), *t_off, t_prev_key)
                .expect("T record for child walk");
            let jt = Some((t.offset, t.jt_offset));
            let mut s_pos = t.header_end;
            let mut s_prev: Option<u8> = None;
            let mut first_scan = true;
            while i < entries.len() {
                let (_, region_end) = site.region(frame);
                let target = entries[i].0[depth + 1];
                let ss = s_scan_from(
                    &site.regs[frame.cid],
                    s_pos,
                    region_end,
                    s_prev,
                    target,
                    if first_scan { jt } else { None },
                );
                first_scan = false;
                children_seen += ss.visited;
                match ss.found {
                    None => {
                        let cap = self.splice_cap(&site.regs[frame.cid]);
                        let limit = ss.successor.as_ref().map(|s| s.key);
                        let mut est = splice_estimate(&entries[i].0, depth + 1);
                        let mut j = i + 1;
                        while j < entries.len() {
                            let k1 = entries[j].0[depth + 1];
                            if limit.is_some_and(|l| k1 >= l) {
                                break;
                            }
                            let e = splice_estimate(&entries[j].0, depth + 1);
                            if est + e > cap {
                                break;
                            }
                            est += e;
                            j += 1;
                        }
                        let capped = j < entries.len()
                            && !limit.is_some_and(|l| entries[j].0[depth + 1] >= l);
                        let run: Vec<(Vec<u8>, u64)> = entries[i..j]
                            .iter()
                            .map(|(k, v)| (k[depth + 1..].to_vec(), *v))
                            .collect();
                        let stream = {
                            let parent_size = site.regs[frame.cid].size();
                            let mut b = StreamBuilder::new(self.mm, self.config)
                                .with_parent_size(parent_size)
                                .with_shortcut(self.shortcut, &entries[i].0[..depth + 1]);
                            b.build_s_records(ss.prev_key, &run)
                        };
                        self.edits.clear();
                        let mut at = ss.insert_at;
                        self.make_room(
                            site,
                            frame,
                            epoch,
                            stream.len() + ROOM_SLOP,
                            &mut [&mut at, t_off],
                        )?;
                        self.grow_level(site, &frame.clone(), at, stream.len(), false);
                        site.regs[frame.cid].bytes_mut()[at..at + stream.len()]
                            .copy_from_slice(&stream);
                        let last_key = *run.last().map(|(k, _)| &k[0]).expect("non-empty run");
                        if let Some(succ) = &ss.successor {
                            self.fix_sibling_delta_level(
                                site,
                                &frame.clone(),
                                at + stream.len(),
                                succ.key,
                                Some(last_key),
                            );
                        }
                        // Self-inflicted events only; anchors precede them.
                        *epoch = site.events.len();
                        inserted += j - i;
                        s_inserted_any = true;
                        children_seen += j - i;
                        if capped {
                            s_pos = at;
                            s_prev = ss.prev_key;
                        } else {
                            s_pos = at + stream.len();
                            s_prev = Some(last_key);
                        }
                        i = j;
                    }
                    Some(s) => {
                        let mut j = i + 1;
                        while j < entries.len() && entries[j].0[depth + 1] == s.key {
                            j += 1;
                        }
                        let mut s_off = s.offset;
                        let (group_inserted, new_any, next_s) = self.write_s_group(
                            site,
                            frame,
                            epoch,
                            &mut s_off,
                            t_off,
                            ss.prev_key,
                            depth,
                            &entries[i..j],
                        )?;
                        inserted += group_inserted;
                        s_inserted_any |= new_any;
                        children_seen += 1;
                        s_pos = next_s;
                        s_prev = Some(s.key);
                        i = j;
                    }
                }
            }
        }
        // Jump maintenance mirrors the point-put policy: after new children
        // were added at the top level of a container, the T record may earn
        // a jump successor and a jump table.
        if frame.embeds.is_empty() && s_inserted_any {
            self.maintain_t_jumps_level(site, frame, epoch, *t_off, children_seen);
        }
        let c = &site.regs[frame.cid];
        let t = parse_t_node(c.bytes(), *t_off, t_prev_key).expect("T record after group");
        let (_, region_end) = site.region(frame);
        Ok((inserted, skip_t_children(c, &t, region_end)))
    }

    /// Applies a group of entries sharing `key[..depth + 2]` below the S
    /// record at `s_off`.  Returns `(inserted, any structural insert, offset
    /// just past the S record)`.
    #[allow(clippy::too_many_arguments)]
    fn write_s_group(
        &mut self,
        site: &mut Site,
        frame: &mut Frame,
        epoch: &mut usize,
        s_off: &mut usize,
        t_off: &mut usize,
        s_prev_key: Option<u8>,
        depth: usize,
        entries: &[(Vec<u8>, u64)],
    ) -> Result<(usize, bool, usize), WriteError> {
        let mut inserted = 0usize;
        let mut structural = false;
        let mut i = 0usize;
        // A suffix of length two terminates at the S record itself.
        if entries[0].0.len() == depth + 2 {
            let s = parse_s_node(site.regs[frame.cid].bytes(), *s_off, s_prev_key)
                .expect("S record for value update");
            if let Some(off) = s.value_offset {
                site.regs[frame.cid].write_u64(off, entries[0].1);
            } else {
                self.make_room(
                    site,
                    frame,
                    epoch,
                    VALUE_SIZE + ROOM_SLOP,
                    &mut [s_off, t_off],
                )?;
                let value_pos = *s_off + 1 + s.explicit_key as usize;
                self.grow_level(site, &frame.clone(), value_pos, VALUE_SIZE, false);
                site.sync(epoch, frame, &mut [s_off, t_off]);
                let c = &mut site.regs[frame.cid];
                c.write_u64(*s_off + 1 + s.explicit_key as usize, entries[0].1);
                let flag = c.bytes()[*s_off];
                c.bytes_mut()[*s_off] = (flag & !0b11) | NodeType::LeafWithValue as u8;
                inserted += 1;
                structural = true;
            }
            i = 1;
        }
        // Child dispatch loop: a huge group sharing this 2-byte prefix is
        // fed to the child in size-bounded chunks.  Encoding the whole group
        // at once could build a child body past the 19-bit container size
        // field; after each chunk the S record is re-read, because the child
        // kind upgrades along the way (None -> PC/Embedded -> Pointer), and
        // the later chunks flow through the split-checked pointer path.
        while i < entries.len() {
            let s = parse_s_node(site.regs[frame.cid].bytes(), *s_off, s_prev_key)
                .expect("S record for child edit");
            let cap = self.splice_cap(&site.regs[frame.cid]);
            let chunk_end = |entries: &[(Vec<u8>, u64)], from: usize| -> usize {
                let mut est = 0usize;
                let mut j = from;
                while j < entries.len() {
                    let e = splice_estimate(&entries[j].0, depth + 2);
                    if j > from && est + e > cap {
                        break;
                    }
                    est += e;
                    j += 1;
                }
                j
            };
            match s.child {
                ChildKind::None => {
                    let j = chunk_end(entries, i);
                    let run: Vec<(Vec<u8>, u64)> = entries[i..j]
                        .iter()
                        .map(|(k, v)| (k[depth + 2..].to_vec(), *v))
                        .collect();
                    let (kind, bytes) = {
                        let parent_size = site.regs[frame.cid].size();
                        let mut b = StreamBuilder::new(self.mm, self.config)
                            .with_parent_size(parent_size)
                            .with_shortcut(self.shortcut, &entries[i].0[..depth + 2]);
                        b.encode_child(&run)
                    };
                    self.edits.clear();
                    let mut at = s.end;
                    self.make_room(
                        site,
                        frame,
                        epoch,
                        bytes.len() + ROOM_SLOP,
                        &mut [&mut at, s_off, t_off],
                    )?;
                    self.grow_level(site, &frame.clone(), at, bytes.len(), false);
                    site.regs[frame.cid].bytes_mut()[at..at + bytes.len()].copy_from_slice(&bytes);
                    self.set_child_kind(&mut site.regs[frame.cid], *s_off, kind);
                    // Self-inflicted events only; anchors precede the splice.
                    *epoch = site.events.len();
                    inserted += j - i;
                    structural = true;
                    i = j;
                }
                ChildKind::Pointer => {
                    // Child containers run their own split checks; the whole
                    // rest of the group can descend at once.
                    let group = &entries[i..];
                    let hp_pos = s.child_offset.expect("pointer child offset");
                    // An earlier chunk may have ejected this child (and
                    // nested children) and grown them, with the HP
                    // write-backs still pending — make the bytes coherent
                    // before trusting them, then hand the subtree's
                    // write-back responsibility to the pointer path.
                    self.flush_links_keep(site);
                    let child_hp = site.regs[frame.cid].read_hp(hp_pos);
                    let mut new_hp = child_hp;
                    let mut n = 0usize;
                    let result = self.write_into_pointer(&mut new_hp, depth + 2, group, &mut n);
                    // Commit the child's new stored pointer even on failure:
                    // a split may have freed the old allocation.
                    if new_hp != child_hp {
                        site.regs[frame.cid].write_hp(hp_pos, new_hp);
                    }
                    self.release_subtree_links(site, frame.cid, hp_pos);
                    // Publish the descent target: retags the entry if the
                    // child moved (the old allocation may be freed) and warms
                    // the cache for the keys just written.
                    if result.is_ok() {
                        self.shortcut.publish(&group[0].0[..depth + 2], new_hp);
                    } else {
                        self.shortcut.invalidate(&group[0].0[..depth + 2]);
                    }
                    inserted += n;
                    result?;
                    i = entries.len();
                }
                ChildKind::Embedded => {
                    let j = chunk_end(entries, i);
                    let child_off = s.child_offset.expect("embedded child offset");
                    let mut child_frame = frame.clone();
                    child_frame.embeds.push(EmbedCtx {
                        s_flag: *s_off,
                        child: child_off,
                    });
                    let out =
                        self.write_tops(site, child_frame, depth + 2, &entries[i..j], false)?;
                    debug_assert_eq!(out.consumed, j - i);
                    site.sync(epoch, frame, &mut [s_off, t_off]);
                    inserted += out.inserted;
                    structural |= out.inserted > 0;
                    i = j;
                }
                ChildKind::PathCompressed => {
                    let j = chunk_end(entries, i);
                    let (n, any) = self.write_pc_group(
                        site,
                        frame,
                        epoch,
                        s_off,
                        t_off,
                        &s,
                        depth,
                        &entries[i..j],
                    )?;
                    inserted += n;
                    structural |= any;
                    i = j;
                }
            }
        }
        let c = &site.regs[frame.cid];
        let s = parse_s_node(c.bytes(), *s_off, s_prev_key).expect("S record after group");
        Ok((inserted, structural, s.end))
    }

    /// Merges a group of new suffixes into an existing path-compressed node,
    /// rewriting it as whatever child encoding now fits.
    #[allow(clippy::too_many_arguments)]
    fn write_pc_group(
        &mut self,
        site: &mut Site,
        frame: &mut Frame,
        epoch: &mut usize,
        s_off: &mut usize,
        t_off: &mut usize,
        s: &SNode,
        depth: usize,
        group: &[(Vec<u8>, u64)],
    ) -> Result<(usize, bool), WriteError> {
        hyperion_mem::fail_point!("write.pc_rewrite");
        let child_off = s.child_offset.expect("pc child offset");
        let c = &site.regs[frame.cid];
        let (has_value, pc_value, range) = parse_pc_node(c.bytes(), child_off);
        let suffix: Vec<u8> = c.bytes()[range].to_vec();
        let total = (c.bytes()[child_off] & 0x7f) as usize;
        // Pure value update: a single entry matching the stored suffix.
        if group.len() == 1 && has_value && group[0].0[depth + 2..] == suffix[..] {
            site.regs[frame.cid].write_u64(child_off + 1, group[0].1);
            return Ok((0, false));
        }
        let mut merged: Vec<(Vec<u8>, u64)> = group
            .iter()
            .map(|(k, v)| (k[depth + 2..].to_vec(), *v))
            .collect();
        let mut updates = 0usize;
        match merged.binary_search_by(|(k, _)| k.as_slice().cmp(&suffix)) {
            Ok(_) => {
                // One entry overwrites the stored suffix's value.
                if has_value {
                    updates = 1;
                }
            }
            Err(idx) => {
                merged.insert(idx, (suffix, if has_value { pc_value } else { 0 }));
            }
        }
        let (kind, bytes) = {
            let parent_size = site.regs[frame.cid].size();
            let mut b = StreamBuilder::new(self.mm, self.config)
                .with_parent_size(parent_size)
                .with_shortcut(self.shortcut, &group[0].0[..depth + 2]);
            b.encode_child(&merged)
        };
        self.edits.clear();
        let mut at = child_off;
        let need = bytes.len().saturating_sub(total) + ROOM_SLOP;
        self.make_room(site, frame, epoch, need, &mut [&mut at, s_off, t_off])?;
        match bytes.len().cmp(&total) {
            std::cmp::Ordering::Greater => {
                self.grow_level(site, &frame.clone(), at + total, bytes.len() - total, false);
            }
            std::cmp::Ordering::Less => {
                self.shrink_level(site, &frame.clone(), at + bytes.len(), total - bytes.len());
            }
            std::cmp::Ordering::Equal => {}
        }
        // The grow/shrink happened past `at`; anchors are unaffected.
        *epoch = site.events.len();
        site.regs[frame.cid].bytes_mut()[at..at + bytes.len()].copy_from_slice(&bytes);
        self.set_child_kind(&mut site.regs[frame.cid], *s_off, kind);
        Ok((group.len() - updates, true))
    }

    // =====================================================================
    // in-place room making (ejects without restarts)
    // =====================================================================

    /// Ensures `need` bytes can be spliced into the frame's region without
    /// overflowing an enclosing embedded container or pushing the real
    /// container past the eject threshold, ejecting enclosing embeds (and
    /// remapping `frame` plus the `tracked` offsets) until the edit fits.
    fn make_room(
        &mut self,
        site: &mut Site,
        frame: &mut Frame,
        epoch: &mut usize,
        need: usize,
        tracked: &mut [&mut usize],
    ) -> Result<(), WriteError> {
        debug_assert_eq!(*epoch, site.events.len(), "stale epoch entering make_room");
        hyperion_mem::fail_point!("write.splice");
        let mut attempts = 0usize;
        loop {
            if frame.embeds.is_empty() {
                return Ok(());
            }
            let c = &site.regs[frame.cid];
            let overflow = frame
                .embeds
                .iter()
                .any(|e| c.bytes()[e.child] as usize + need > self.config.embedded_max)
                || c.size() + need > self.config.eject_threshold;
            if !overflow {
                return Ok(());
            }
            attempts += 1;
            if attempts > MAX_EJECTS_PER_EDIT {
                return Err(WriteError::StructuralLoop);
            }
            self.eject_outermost(site, frame, epoch, tracked);
        }
    }

    /// Ejects the outermost embedded container on the frame's path into a
    /// standalone container (paper Figure 8) and remaps the frame and the
    /// tracked offsets through the move — the write cursor keeps its
    /// position; no restart.
    fn eject_outermost(
        &mut self,
        site: &mut Site,
        frame: &mut Frame,
        epoch: &mut usize,
        tracked: &mut [&mut usize],
    ) {
        hyperion_mem::fail_point!("write.eject");
        let ctx = frame.embeds[0];
        let old = frame.cid;
        let size = site.regs[old].bytes()[ctx.child] as usize;
        let (lo, hi) = (ctx.child + 1, ctx.child + size);
        let body: Vec<u8> = site.regs[old].bytes()[lo..hi].to_vec();
        let child = ContainerRef::create(self.mm, &body);
        let child_hp = child.handle().stored_pointer();
        // Replace the embed with a 5-byte HP in the old container.  The
        // byte shifts are fully described by the Eject event; the raw edits
        // from the plumbing are redundant and dropped.
        match size.cmp(&HP_SIZE) {
            std::cmp::Ordering::Greater => {
                self.shrink_stream(
                    &mut site.regs[old],
                    &[],
                    ctx.child + HP_SIZE,
                    size - HP_SIZE,
                );
            }
            std::cmp::Ordering::Less => {
                self.grow_stream(
                    &mut site.regs[old],
                    &[],
                    ctx.child + size,
                    HP_SIZE - size,
                    false,
                );
            }
            std::cmp::Ordering::Equal => {}
        }
        self.edits.clear();
        site.regs[old].write_hp(ctx.child, child_hp);
        self.set_child_kind(&mut site.regs[old], ctx.s_flag, ChildKind::Pointer);
        self.counters.ejections += 1;
        self.seq.note_structural();
        let new = site.regs.len();
        site.regs.push(child);
        site.events.push(Event::Eject {
            old,
            embed_off: ctx.child,
            lo,
            hi,
            new,
        });
        site.links.push(Link {
            epoch: site.events.len(),
            cid: old,
            off: ctx.child,
            child: new,
        });
        site.sync(epoch, frame, tracked);
    }

    // =====================================================================
    // event-logging wrappers over the byte-shift plumbing
    // =====================================================================

    fn grow_level(&mut self, site: &mut Site, frame: &Frame, at: usize, len: usize, t_ins: bool) {
        debug_assert!(self.edits.is_empty());
        let chain = frame.chain();
        self.grow_stream(&mut site.regs[frame.cid], &chain, at, len, t_ins);
        self.flush_edits(site, frame.cid);
    }

    fn shrink_level(&mut self, site: &mut Site, frame: &Frame, at: usize, len: usize) {
        debug_assert!(self.edits.is_empty());
        let chain = frame.chain();
        self.shrink_stream(&mut site.regs[frame.cid], &chain, at, len);
        self.flush_edits(site, frame.cid);
    }

    fn fix_sibling_delta_level(
        &mut self,
        site: &mut Site,
        frame: &Frame,
        offset: usize,
        node_key: u8,
        new_prev_key: Option<u8>,
    ) {
        debug_assert!(self.edits.is_empty());
        let chain = frame.chain();
        self.fix_sibling_delta(
            &mut site.regs[frame.cid],
            &chain,
            offset,
            node_key,
            new_prev_key,
        );
        self.flush_edits(site, frame.cid);
    }

    fn maintain_t_jumps_level(
        &mut self,
        site: &mut Site,
        frame: &Frame,
        epoch: &mut usize,
        t_offset: usize,
        child_count: usize,
    ) {
        debug_assert!(self.edits.is_empty());
        debug_assert!(frame.embeds.is_empty());
        self.maintain_t_jumps(&mut site.regs[frame.cid], t_offset, child_count);
        self.flush_edits(site, frame.cid);
        // The grows happened inside the T header, after `t_offset`: no live
        // anchor of the caller shifts, but its epoch must pass the events.
        *epoch = site.events.len();
    }

    fn flush_edits(&mut self, site: &mut Site, cid: usize) {
        for edit in self.edits.drain(..) {
            site.events.push(match edit {
                RawEdit::Grow { at, len } => Event::Grow { cid, at, len },
                RawEdit::Shrink { at, len } => Event::Shrink { cid, at, len },
            });
        }
    }

    // =====================================================================
    // byte-shift plumbing: offset fix-ups for js / jt / container jump table
    // =====================================================================

    fn set_child_kind(&mut self, c: &mut ContainerRef, s_flag_offset: usize, kind: ChildKind) {
        let flag = c.bytes()[s_flag_offset];
        c.bytes_mut()[s_flag_offset] = (flag & 0b0011_1111) | ((kind as u8) << 6);
    }

    fn collect_fixes(
        &self,
        c: &ContainerRef,
        at: usize,
        len: usize,
        is_insert: bool,
        t_record_inserted: bool,
    ) -> Vec<Fix> {
        let mut fixes = Vec::new();
        let stream_start = c.stream_start();
        let delta = if is_insert { len as i64 } else { -(len as i64) };
        // Container jump table entries.
        for i in 0..c.jt_groups() * CJT_GROUP {
            let pos = HEADER_SIZE + i * 4;
            let raw = u32::from_le_bytes(c.bytes()[pos..pos + 4].try_into().unwrap());
            if raw == 0 {
                continue;
            }
            let target = stream_start + (raw >> 8) as usize;
            if is_insert {
                if target >= at {
                    fixes.push(Fix::Cjt { pos, delta });
                }
            } else if target >= at + len {
                fixes.push(Fix::Cjt { pos, delta });
            } else if target >= at {
                fixes.push(Fix::CjtClear { pos });
            }
        }
        // Per-T-node jump successors and jump tables.  Only top-level T
        // records *before* the edit point can hold jumps that cross it (jump
        // targets never reach past the record's next sibling), so the walk
        // stops at `at` — and it hops over each record's children via the
        // jump successor and seeds from the container jump table instead of
        // re-walking every S record like a maintenance scan.
        let bytes = c.bytes();
        let stream_end = c.stream_end();
        let mut pos = stream_start;
        for i in 0..c.jt_groups() * CJT_GROUP {
            let entry_pos = HEADER_SIZE + i * 4;
            let raw = u32::from_le_bytes(bytes[entry_pos..entry_pos + 4].try_into().unwrap());
            if raw == 0 {
                continue;
            }
            let target = stream_start + (raw >> 8) as usize;
            if target < at && target > pos {
                pos = target;
            }
        }
        while pos < at && pos < stream_end && !is_invalid(bytes[pos]) {
            // Keys are irrelevant here (only offsets matter), so parsing
            // without predecessor context is fine.
            let Some(t) = parse_t_node(bytes, pos, None) else {
                break;
            };
            if let Some(js_off) = t.js_offset {
                let v = c.read_u16(js_off) as usize;
                if v != 0 {
                    let target = t.offset + v;
                    if is_insert {
                        let shift = target > at || (target == at && !t_record_inserted);
                        if shift {
                            fixes.push(Fix::U16 { pos: js_off, delta });
                        }
                    } else if target >= at + len {
                        fixes.push(Fix::U16 { pos: js_off, delta });
                    } else if target > at {
                        fixes.push(Fix::U16Clear { pos: js_off });
                    }
                }
            }
            if let Some(jt_off) = t.jt_offset {
                for slot in 0..TNODE_JT_ENTRIES {
                    let pos = jt_off + slot * 2;
                    let v = c.read_u16(pos) as usize;
                    if v == 0 {
                        continue;
                    }
                    let target = t.offset + v;
                    if is_insert {
                        if target >= at {
                            fixes.push(Fix::U16 { pos, delta });
                        }
                    } else if target >= at + len {
                        fixes.push(Fix::U16 { pos, delta });
                    } else if target >= at {
                        fixes.push(Fix::U16Clear { pos });
                    }
                }
            }
            pos = skip_t_children(c, &t, stream_end);
        }
        fixes
    }

    fn apply_fixes(
        &self,
        c: &mut ContainerRef,
        fixes: &[Fix],
        at: usize,
        len: usize,
        is_insert: bool,
    ) {
        let adjust = |pos: usize| -> usize {
            if is_insert {
                if pos >= at {
                    pos + len
                } else {
                    pos
                }
            } else if pos >= at + len {
                pos - len
            } else {
                pos
            }
        };
        for fix in fixes {
            match fix {
                Fix::U16 { pos, delta } => {
                    let pos = adjust(*pos);
                    let v = c.read_u16(pos) as i64 + delta;
                    if v > 0 && v <= u16::MAX as i64 {
                        c.write_u16(pos, v as u16);
                    } else {
                        // The jump no longer fits into 16 bits: disable it (0
                        // means "walk the records"), never store a wrong jump.
                        c.write_u16(pos, 0);
                    }
                }
                Fix::U16Clear { pos } => {
                    let pos = adjust(*pos);
                    c.write_u16(pos, 0);
                }
                Fix::Cjt { pos, delta } => {
                    let pos = adjust(*pos);
                    let raw = u32::from_le_bytes(c.bytes()[pos..pos + 4].try_into().unwrap());
                    let key = raw & 0xff;
                    let offset = (raw >> 8) as i64 + delta;
                    debug_assert!(offset >= 0);
                    let new_raw = key | ((offset as u32) << 8);
                    c.bytes_mut()[pos..pos + 4].copy_from_slice(&new_raw.to_le_bytes());
                }
                Fix::CjtClear { pos } => {
                    let pos = adjust(*pos);
                    c.bytes_mut()[pos..pos + 4].copy_from_slice(&0u32.to_le_bytes());
                }
            }
        }
    }

    pub(crate) fn grow_stream(
        &mut self,
        c: &mut ContainerRef,
        embed_chain: &[usize],
        at: usize,
        len: usize,
        t_record_inserted: bool,
    ) {
        // The "a new T sibling now starts at the insertion point" special case
        // only applies when the record is inserted at the top level of the
        // container; a T record inserted inside an embedded body still lives
        // within some top-level T's child region, so jump successors pointing
        // at the insertion point must shift.
        let top_level_t_insert = t_record_inserted && embed_chain.is_empty();
        let fixes = self.collect_fixes(c, at, len, true, top_level_t_insert);
        c.insert_gap(self.mm, at, len);
        for &off in embed_chain {
            let b = c.bytes()[off] as usize;
            debug_assert!(b + len <= 255, "embedded container size overflow");
            c.bytes_mut()[off] = (b + len) as u8;
        }
        self.apply_fixes(c, &fixes, at, len, true);
        self.edits.push(RawEdit::Grow { at, len });
    }

    pub(crate) fn shrink_stream(
        &mut self,
        c: &mut ContainerRef,
        embed_chain: &[usize],
        at: usize,
        len: usize,
    ) {
        let fixes = self.collect_fixes(c, at, len, false, false);
        c.remove_range(at, len);
        for &off in embed_chain {
            let b = c.bytes()[off] as usize;
            debug_assert!(b >= len);
            c.bytes_mut()[off] = (b - len) as u8;
        }
        self.apply_fixes(c, &fixes, at, len, false);
        self.edits.push(RawEdit::Shrink { at, len });
    }

    /// Re-encodes the delta field of the sibling at `offset` after its
    /// predecessor changed to `new_prev_key` (or disappeared).
    fn fix_sibling_delta(
        &mut self,
        c: &mut ContainerRef,
        embed_chain: &[usize],
        offset: usize,
        node_key: u8,
        new_prev_key: Option<u8>,
    ) {
        let flag = c.bytes()[offset];
        if delta_of(flag) == 0 {
            return;
        }
        match delta_for(new_prev_key, node_key, self.config.delta_encoding) {
            Some(d) => {
                c.bytes_mut()[offset] = (flag & !(0b111 << 3)) | (d << 3);
            }
            None => {
                // The delta no longer fits: materialise an explicit key byte.
                self.grow_stream(c, embed_chain, offset + 1, 1, false);
                let flag = c.bytes()[offset];
                c.bytes_mut()[offset] = flag & !(0b111 << 3);
                c.bytes_mut()[offset + 1] = node_key;
            }
        }
    }

    // =====================================================================
    // jump successor / jump table maintenance
    // =====================================================================

    fn maintain_t_jumps(&mut self, c: &mut ContainerRef, t_offset: usize, visited: usize) {
        // The thresholds compare against the T record's *actual* child count.
        // The caller's visited count is only a lower bound — a batch's
        // resumed scans visit each child once across the whole batch, so a
        // per-descent count would leave batch-built T records without jumps
        // (and their readers scanning hundreds of S records linearly).  The
        // count walk is lean (flag-derived record ends) and only runs while
        // a jump structure is actually missing.
        let t0 = parse_t_node(c.bytes(), t_offset, None).expect("T record for jump maintenance");
        let needs_js = self.config.jump_successor && !t0.has_js;
        let needs_jt = self.config.tnode_jump_table && !t0.has_jt;
        if !needs_js && !needs_jt {
            return;
        }
        let child_count = visited.max(count_s_children(c, t0.header_end, c.stream_end()));
        if needs_js && child_count >= self.config.jump_successor_threshold {
            let t = parse_t_node(c.bytes(), t_offset, None).expect("T record for js maintenance");
            if !t.has_js {
                let js_pos = t
                    .value_offset
                    .map(|v| v + VALUE_SIZE)
                    .unwrap_or(t.offset + 1 + t.explicit_key as usize);
                let next_t = skip_t_children(c, &t, c.stream_end());
                self.grow_stream(c, &[], js_pos, JS_SIZE, false);
                let flag = c.bytes()[t_offset];
                c.bytes_mut()[t_offset] = flag | (1 << 6);
                let js_value = next_t + JS_SIZE - t.offset;
                if js_value <= u16::MAX as usize {
                    c.write_u16(js_pos, js_value as u16);
                }
            }
        }
        if needs_jt && child_count >= self.config.tnode_jump_table_threshold {
            let t = parse_t_node(c.bytes(), t_offset, None).expect("T record for jt maintenance");
            if !t.has_jt {
                let jt_pos = t
                    .js_offset
                    .map(|o| o + JS_SIZE)
                    .or(t.value_offset.map(|v| v + VALUE_SIZE))
                    .unwrap_or(t.offset + 1 + t.explicit_key as usize);
                self.grow_stream(c, &[], jt_pos, TNODE_JT_SIZE, false);
                let flag = c.bytes()[t_offset];
                c.bytes_mut()[t_offset] = flag | (1 << 7);
                // Jump-table entries may only reference *explicit-key*
                // S records (a seeded scan has no predecessor context).
                // Sorted batch streams delta-encode nearly every sibling, so
                // a table built over them would have nothing usable to point
                // at — all slots would fall back to the first child and the
                // seeded walk would be as linear as no table at all.
                // Materialise an explicit key byte for the best seed of
                // every slot first, one record at a time (each grow shifts
                // the offsets behind it).
                loop {
                    let t = parse_t_node(c.bytes(), t_offset, None).expect("T record for jt fill");
                    let children = collect_s_records(c, &t, c.stream_end());
                    let mut convert: Option<(usize, u8)> = None;
                    'slots: for slot in 0..TNODE_JT_ENTRIES {
                        let bound = TNODE_JT_STRIDE * (slot + 1);
                        for s in children.iter().rev() {
                            if (s.key as usize) <= bound {
                                if !s.explicit_key {
                                    convert = Some((s.offset, s.key));
                                }
                                continue 'slots;
                            }
                        }
                    }
                    let Some((offset, key)) = convert else { break };
                    self.grow_stream(c, &[], offset + 1, 1, false);
                    let flag = c.bytes()[offset];
                    c.bytes_mut()[offset] = flag & !(0b111 << 3);
                    c.bytes_mut()[offset + 1] = key;
                }
                // Fill the entries: slot i references the greatest explicit-key
                // S child with key <= 16 * (i + 1).
                let t = parse_t_node(c.bytes(), t_offset, None).expect("T record after jt insert");
                let jt_off = t.jt_offset.expect("jt offset just created");
                let children = collect_s_records(c, &t, c.stream_end());
                let mut entries = [0u16; TNODE_JT_ENTRIES];
                for s in &children {
                    if !s.explicit_key {
                        continue;
                    }
                    let rel = (s.offset - t.offset) as u16;
                    let first_slot = (s.key as usize).div_ceil(TNODE_JT_STRIDE).saturating_sub(1);
                    for entry in entries.iter_mut().skip(first_slot) {
                        *entry = rel;
                    }
                }
                for (i, v) in entries.iter().enumerate() {
                    c.write_u16(jt_off + i * 2, *v);
                }
            }
        }
    }

    fn rebuild_container_jump_table(&mut self, c: &mut ContainerRef) {
        // The rebuild runs between edits, when jump successors are exact:
        // the trusted walk hops over children instead of re-parsing every
        // S record (the untrusting walk made rebuilds the dominant cost of
        // the whole insert path).
        //
        // Entries may only reference *explicit-key* T records (a seeded scan
        // has no predecessor context), but sorted batch streams delta-encode
        // most T siblings — sampling only what happens to be explicit left
        // batch-built containers without a usable table.  The rebuild
        // therefore samples evenly over *all* records and materialises an
        // explicit key byte for each sampled record first, one at a time
        // (each grow shifts the offsets behind it, so re-walk after each).
        let max_entries = CJT_MAX_GROUPS * CJT_GROUP;
        loop {
            let stream_start = c.stream_start();
            let records = collect_t_records_trusted(c, stream_start, c.stream_end());
            // Below two groups' worth of records a table saves almost no
            // walking (jump-successor hops already bound the walk) but costs
            // 28 bytes plus explicit-key conversions per container — on the
            // string data sets most containers are this small.
            if records.len() < 2 * CJT_GROUP {
                return;
            }
            // Half-density sampling: one entry per two records bounds the
            // post-seed walk at two hops for half the table (and half the
            // explicit-key conversion bytes) of a full-density table.
            let take = (records.len() / 2).clamp(CJT_GROUP, max_entries);
            let mut convert: Option<(usize, u8)> = None;
            for i in 0..take {
                let t = &records[i * records.len() / take];
                if !t.explicit_key {
                    convert = Some((t.offset, t.key));
                    break;
                }
            }
            let Some((offset, key)) = convert else {
                let mut entries = Vec::with_capacity(take);
                for i in 0..take {
                    let t = &records[i * records.len() / take];
                    entries.push((t.key, (t.offset - stream_start) as u32));
                }
                entries.dedup_by_key(|(k, _)| *k);
                c.set_cjt_entries(self.mm, &entries);
                self.counters.cjt_rebuilds += 1;
                return;
            };
            self.grow_stream(c, &[], offset + 1, 1, false);
            let flag = c.bytes()[offset];
            c.bytes_mut()[offset] = flag & !(0b111 << 3);
            c.bytes_mut()[offset + 1] = key;
        }
    }

    // =====================================================================
    // vertical container splits (paper Figure 11)
    // =====================================================================

    fn maybe_split(&mut self, c: &mut ContainerRef) -> Option<HyperionPointer> {
        let threshold = self.config.split_threshold(c.split_delay());
        if c.size() < threshold {
            return None;
        }
        let stream_start = c.stream_start();
        let stream_end = c.stream_end();
        let (range_start, range_end) = match c.handle() {
            ContainerHandle::Standalone(_) => (0usize, 256usize),
            ContainerHandle::ChainSlot { head, index } => {
                let valid = self.mm.chained_valid_slots(head);
                let next = valid
                    .iter()
                    .copied()
                    .filter(|&i| i > index)
                    .min()
                    .unwrap_or(8);
                (index * 32, next * 32)
            }
        };
        if range_end - range_start <= 32 {
            // A chain slot covering a single 32-key block has no legal cut;
            // skip the record walk entirely.
            return self.abort_split(c);
        }
        // The split runs between edits, when jump successors are exact, so
        // the record walk can hop over children (see the rebuild above).
        let records = collect_t_records_trusted(c, stream_start, stream_end);
        if records.len() < 2 {
            return self.abort_split(c);
        }
        // Find the multiple-of-32 cut that best balances the two halves.
        let mut best: Option<(usize, usize)> = None; // (cut_block, cut_record_idx)
        let mut best_imbalance = usize::MAX;
        for cut_block in 1..8usize {
            let cut_key = cut_block * 32;
            if cut_key <= range_start || cut_key >= range_end {
                continue;
            }
            let Some(idx) = records.iter().position(|t| (t.key as usize) >= cut_key) else {
                continue;
            };
            if idx == 0 {
                continue;
            }
            let cut_offset = records[idx].offset;
            let left = cut_offset - stream_start;
            let right = stream_end - cut_offset;
            if left < self.config.split_min_part || right < self.config.split_min_part {
                continue;
            }
            let imbalance = left.abs_diff(right);
            if imbalance < best_imbalance {
                best_imbalance = imbalance;
                best = Some((cut_block, idx));
            }
        }
        let Some((cut_block, cut_idx)) = best else {
            return self.abort_split(c);
        };
        let cut_offset = records[cut_idx].offset;
        let left: Vec<u8> = c.bytes()[stream_start..cut_offset].to_vec();
        let mut right: Vec<u8> = c.bytes()[cut_offset..stream_end].to_vec();
        // The first record of the right half may no longer have a predecessor:
        // force an explicit key byte.  The record grows by one byte, so its
        // own jump-successor / jump-table offsets (which point past its
        // children, relative to the record start) must grow by one as well.
        if delta_of(right[0]) != 0 {
            let first = &records[cut_idx];
            right[0] &= !(0b111 << 3);
            right.insert(1, first.key);
            if let Some(js_off) = first.js_offset {
                let pos = js_off - cut_offset + 1;
                let v = u16::from_le_bytes([right[pos], right[pos + 1]]);
                if v != 0 {
                    let bumped = v.checked_add(1).unwrap_or(0).to_le_bytes();
                    right[pos..pos + 2].copy_from_slice(&bumped);
                }
            }
            if let Some(jt_off) = first.jt_offset {
                for slot in 0..TNODE_JT_ENTRIES {
                    let pos = jt_off - cut_offset + 1 + slot * 2;
                    let v = u16::from_le_bytes([right[pos], right[pos + 1]]);
                    if v != 0 {
                        let bumped = v.checked_add(1).unwrap_or(0).to_le_bytes();
                        right[pos..pos + 2].copy_from_slice(&bumped);
                    }
                }
            }
        }
        hyperion_mem::fail_point!("write.split");
        self.counters.splits += 1;
        self.seq.note_structural();
        match c.handle() {
            ContainerHandle::Standalone(old_hp) => {
                let head = self.mm.allocate_chained();
                let slot_a = range_start / 32;
                let mut left_c = ContainerRef::create_chain_slot(self.mm, head, slot_a, &left);
                let mut right_c = ContainerRef::create_chain_slot(self.mm, head, cut_block, &right);
                self.mm.free(old_hp);
                self.rebuild_split_halves(&mut left_c, &mut right_c);
                Some(head)
            }
            ContainerHandle::ChainSlot { head, index } => {
                let mut left_c = ContainerRef::create_chain_slot(self.mm, head, index, &left);
                let mut right_c = ContainerRef::create_chain_slot(self.mm, head, cut_block, &right);
                self.rebuild_split_halves(&mut left_c, &mut right_c);
                None
            }
        }
    }

    /// Rebuilds the container jump tables of a split's two halves.
    ///
    /// A split copies the raw node streams, dropping the source container's
    /// jump table — and under sorted input (batches, sequential keys) the
    /// left half may never be written again, so no later visit would ever
    /// rebuild it: readers would walk its T records linearly forever.
    fn rebuild_split_halves(&mut self, left: &mut ContainerRef, right: &mut ContainerRef) {
        if self.config.container_jump_table {
            self.rebuild_container_jump_table(left);
            self.rebuild_container_jump_table(right);
            // The rebuild's explicit-key conversions logged raw edits against
            // the halves; no event log spans a split, so drop them.
            self.edits.clear();
        }
    }

    fn abort_split(&mut self, c: &mut ContainerRef) -> Option<HyperionPointer> {
        let delay = c.split_delay();
        if delay < 3 {
            c.set_split_delay(delay + 1);
        }
        self.counters.split_aborts += 1;
        self.seq.note_structural();
        None
    }

    // =====================================================================
    // delete
    // =====================================================================

    /// Removes the suffix of `full` past `depth` below `hp`.  The key is
    /// threaded as `(full, depth)` rather than a bare suffix so the Pointer
    /// arm knows the absolute prefix of every container it frees or moves —
    /// the shortcut entry for that prefix must die or move in the same
    /// event.  Returns `(stored HP, removed, container now empty)`.
    pub(crate) fn delete_in_pointer(
        &mut self,
        hp: HyperionPointer,
        full: &[u8],
        depth: usize,
    ) -> (HyperionPointer, bool, bool) {
        let key = &full[depth..];
        let handle = self.resolve_handle(hp, key[0]);
        let mut c = ContainerRef::open(self.mm, handle);
        let start = c.stream_start();
        let end = c.stream_end();
        let removed = self.delete_in_region(&mut c, start, end, &[], full, depth);
        self.edits.clear();
        let empty = c.stream_end() == c.stream_start()
            && matches!(c.handle(), ContainerHandle::Standalone(_));
        (c.handle().stored_pointer(), removed, empty)
    }

    fn delete_in_region(
        &mut self,
        c: &mut ContainerRef,
        region_start: usize,
        region_end: usize,
        embed_chain: &[usize],
        full: &[u8],
        depth: usize,
    ) -> bool {
        let key = &full[depth..];
        let is_top = embed_chain.is_empty();
        let ts = t_scan(c, region_start, region_end, key[0], is_top);
        let Some(t) = ts.found else {
            return false;
        };
        let region_end_now = |c: &ContainerRef, chain: &[usize]| -> usize {
            if let Some(&outer) = chain.last() {
                outer + c.bytes()[outer] as usize
            } else {
                c.stream_end()
            }
        };
        if key.len() == 1 {
            if t.node_type != NodeType::LeafWithValue {
                return false;
            }
            let has_children = {
                let end = region_end_now(c, embed_chain);
                t.header_end < end
                    && !is_invalid(c.bytes()[t.header_end])
                    && !is_t_node(c.bytes()[t.header_end])
            };
            if has_children {
                self.shrink_stream(c, embed_chain, t.value_offset.unwrap(), VALUE_SIZE);
                let flag = c.bytes()[t.offset];
                c.bytes_mut()[t.offset] = (flag & !0b11) | NodeType::Inner as u8;
            } else {
                self.remove_t_record(c, embed_chain, &t, ts.prev_key);
            }
            return true;
        }
        let ss = s_scan(c, &t, region_end, key[1]);
        let Some(s) = ss.found else {
            return false;
        };
        if key.len() == 2 {
            if s.node_type != NodeType::LeafWithValue {
                return false;
            }
            if s.child != ChildKind::None {
                self.shrink_stream(c, embed_chain, s.value_offset.unwrap(), VALUE_SIZE);
                let flag = c.bytes()[s.offset];
                c.bytes_mut()[s.offset] = (flag & !0b11) | NodeType::Inner as u8;
            } else {
                self.remove_s_record(c, embed_chain, &t, &s, ts.prev_key, ss.prev_key);
            }
            return true;
        }
        let remaining = &key[2..];
        match s.child {
            ChildKind::None => false,
            ChildKind::PathCompressed => {
                let child_off = s.child_offset.unwrap();
                let (has_value, _, range) = parse_pc_node(c.bytes(), child_off);
                if !has_value || &c.bytes()[range] != remaining {
                    return false;
                }
                let total = (c.bytes()[child_off] & 0x7f) as usize;
                self.shrink_stream(c, embed_chain, child_off, total);
                self.set_child_kind(c, s.offset, ChildKind::None);
                self.cleanup_childless_s(c, embed_chain, &t, s.offset, ts.prev_key, ss.prev_key);
                true
            }
            ChildKind::Pointer => {
                let hp_pos = s.child_offset.unwrap();
                let child_hp = c.read_hp(hp_pos);
                let (new_hp, removed, child_empty) =
                    self.delete_in_pointer(child_hp, full, depth + 2);
                if !removed {
                    return false;
                }
                if child_empty {
                    // The allocator may reissue this pointer for an
                    // unrelated subtree — the cached entry must die with it.
                    self.mm.free(new_hp);
                    self.shortcut.invalidate(&full[..depth + 2]);
                    self.shrink_stream(c, embed_chain, hp_pos, HP_SIZE);
                    self.set_child_kind(c, s.offset, ChildKind::None);
                    self.cleanup_childless_s(
                        c,
                        embed_chain,
                        &t,
                        s.offset,
                        ts.prev_key,
                        ss.prev_key,
                    );
                } else if new_hp != child_hp {
                    c.write_hp(hp_pos, new_hp);
                    self.shortcut.publish(&full[..depth + 2], new_hp);
                }
                true
            }
            ChildKind::Embedded => {
                let child_off = s.child_offset.unwrap();
                let emb_size = c.bytes()[child_off] as usize;
                let mut chain = embed_chain.to_vec();
                chain.push(child_off);
                let removed = self.delete_in_region(
                    c,
                    child_off + 1,
                    child_off + emb_size,
                    &chain,
                    full,
                    depth + 2,
                );
                if !removed {
                    return false;
                }
                if c.bytes()[child_off] as usize <= 1 {
                    self.shrink_stream(c, embed_chain, child_off, c.bytes()[child_off] as usize);
                    self.set_child_kind(c, s.offset, ChildKind::None);
                    self.cleanup_childless_s(
                        c,
                        embed_chain,
                        &t,
                        s.offset,
                        ts.prev_key,
                        ss.prev_key,
                    );
                }
                true
            }
        }
    }

    /// Removes an S record that has become value-less and child-less; cascades
    /// to the owning T record if it, too, becomes useless.
    fn cleanup_childless_s(
        &mut self,
        c: &mut ContainerRef,
        embed_chain: &[usize],
        t: &TNode,
        s_offset: usize,
        t_prev_key: Option<u8>,
        s_prev_key: Option<u8>,
    ) {
        let s = parse_s_node(c.bytes(), s_offset, s_prev_key.or(Some(0)))
            .expect("S record for cleanup");
        // Recompute the key from the original scan (prev may be None for the
        // first child); parse_s_node only needs prev for the key value.
        if s.node_type == NodeType::LeafWithValue || s.child != ChildKind::None {
            return;
        }
        self.remove_s_record(c, embed_chain, t, &s, t_prev_key, s_prev_key);
    }

    fn remove_s_record(
        &mut self,
        c: &mut ContainerRef,
        embed_chain: &[usize],
        t: &TNode,
        s: &SNode,
        t_prev_key: Option<u8>,
        s_prev_key: Option<u8>,
    ) {
        // Successor S sibling (if any) needs its delta re-encoded.  The check
        // must stop at the end of the *current region*: the byte after an
        // embedded container's body belongs to the enclosing scope.
        let region_limit = if let Some(&outer) = embed_chain.last() {
            outer + c.bytes()[outer] as usize
        } else {
            c.stream_end()
        };
        let succ_key = if s.end < region_limit
            && !is_invalid(c.bytes()[s.end])
            && !is_t_node(c.bytes()[s.end])
        {
            parse_s_node(c.bytes(), s.end, Some(s.key)).map(|n| n.key)
        } else {
            None
        };
        self.shrink_stream(c, embed_chain, s.offset, s.end - s.offset);
        if let Some(sk) = succ_key {
            self.fix_sibling_delta(c, embed_chain, s.offset, sk, s_prev_key);
        }
        // Remove the T record if it has no children and no value left.
        let region_end = if let Some(&outer) = embed_chain.last() {
            outer + c.bytes()[outer] as usize
        } else {
            c.stream_end()
        };
        // Re-parse with the *true* predecessor key: a delta-encoded T record
        // parsed with `None` would report its raw delta as the key, and that
        // wrong key would cascade into the successor's delta re-encoding in
        // `remove_t_record`, corrupting the stream.
        let t = parse_t_node(c.bytes(), t.offset, t_prev_key).expect("T record for cleanup");
        let has_children = t.header_end < region_end
            && !is_invalid(c.bytes()[t.header_end])
            && !is_t_node(c.bytes()[t.header_end]);
        if !has_children && t.node_type != NodeType::LeafWithValue {
            self.remove_t_record(c, embed_chain, &t, t_prev_key);
        }
    }

    fn remove_t_record(
        &mut self,
        c: &mut ContainerRef,
        embed_chain: &[usize],
        t: &TNode,
        prev_key: Option<u8>,
    ) {
        let region_end = if let Some(&outer) = embed_chain.last() {
            outer + c.bytes()[outer] as usize
        } else {
            c.stream_end()
        };
        let succ = if t.header_end < region_end && !is_invalid(c.bytes()[t.header_end]) {
            parse_t_node(c.bytes(), t.header_end, Some(t.key))
        } else {
            None
        };
        let succ_key = succ.map(|n| n.key);
        self.shrink_stream(c, embed_chain, t.offset, t.header_end - t.offset);
        if let Some(sk) = succ_key {
            self.fix_sibling_delta(c, embed_chain, t.offset, sk, prev_key);
        }
    }
}

/// Worst-case byte cost of one entry inside a coalesced splice (flag bytes,
/// key bytes, value, path-compressed header per level).
fn splice_estimate(key: &[u8], depth: usize) -> usize {
    2 * (key.len() - depth) + 24
}

/// Counts the S records starting at `from`, stopping at the next T record,
/// invalid memory or `end`.  Used by the jump maintenance to compare a
/// T record's true child count against the acceleration thresholds.
fn count_s_children(c: &ContainerRef, from: usize, end: usize) -> usize {
    let bytes = c.bytes();
    let mut pos = from;
    let mut count = 0usize;
    while pos < end && !is_invalid(bytes[pos]) && !is_t_node(bytes[pos]) {
        let s = parse_s_node(bytes, pos, None).expect("corrupt S record");
        pos = s.end;
        count += 1;
    }
    count
}
