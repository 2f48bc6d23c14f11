//! Containers: the nodes of the 65,536-ary Hyperion trie.
//!
//! A container is one chunk obtained from the memory manager.  It starts with
//! a 4-byte header (paper Figure 3), optionally followed by a container jump
//! table, followed by the node stream (T/S records in pre-order).
//!
//! ```text
//! header bits  0..19  size  (bytes in use, including the header)
//!             19..27  free  (unused bytes at the end, capped at 255)
//!             27..30  J     (container jump table size in groups of 7 entries)
//!             30..32  S     (split delay)
//! ```
//!
//! The free field is advisory, as in the paper: the authoritative free count
//! always comes from the memory manager.

use crate::node::HP_SIZE;
use hyperion_mem::{HyperionPointer, MemoryManager};

/// Size of the container header in bytes.
pub const HEADER_SIZE: usize = 4;
/// Initial allocation size of a fresh container (28 bytes of payload).
pub const INITIAL_CONTAINER_SIZE: usize = 32;
/// Containers grow in increments of this many bytes.
pub const CONTAINER_INCREMENT: usize = 32;
/// Size of one container-jump-table entry (1 key byte + 24-bit offset).
pub const CJT_ENTRY_SIZE: usize = 4;
/// Entries are added in groups of seven.
pub const CJT_GROUP: usize = 7;
/// Maximum number of groups (7 * 7 = 49 entries).
pub const CJT_MAX_GROUPS: usize = 7;

/// Identifies where a container lives: either a standalone allocation or one
/// slot of a chained extended bin created by a vertical container split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainerHandle {
    /// A regular allocation addressed by one Hyperion Pointer.
    Standalone(HyperionPointer),
    /// Slot `index` of the chained extended bin headed by `head`.
    ChainSlot {
        /// HP of the chain head.
        head: HyperionPointer,
        /// Slot index within the chain (0..8).
        index: usize,
    },
}

impl ContainerHandle {
    /// The HP that the parent stores for this container (the chain head for
    /// chain slots).
    pub fn stored_pointer(&self) -> HyperionPointer {
        match self {
            ContainerHandle::Standalone(hp) => *hp,
            ContainerHandle::ChainSlot { head, .. } => *head,
        }
    }
}

/// A working reference to an open container: raw pointer + capacity + handle.
///
/// The reference is only valid while the owning [`MemoryManager`] is alive and
/// no other `ContainerRef` to the same chunk performs a reallocation.  The
/// trie upholds this by operating on one root-to-leaf path at a time; the
/// read-only [`crate::Cursor`] clones references into its frame stack, which
/// is sound because the cursor's shared borrow of the map rules out
/// reallocation for its whole lifetime.
#[derive(Clone)]
pub struct ContainerRef {
    handle: ContainerHandle,
    ptr: *mut u8,
    capacity: usize,
}

impl ContainerRef {
    /// Opens an existing container.
    pub fn open(mm: &MemoryManager, handle: ContainerHandle) -> ContainerRef {
        let (ptr, capacity) = match handle {
            ContainerHandle::Standalone(hp) => (mm.resolve(hp), mm.capacity(hp)),
            ContainerHandle::ChainSlot { head, index } => {
                let ptr = mm
                    .chained_ptr(head, index)
                    .expect("opening void chain slot");
                (ptr, mm.chained_capacity(head, index))
            }
        };
        ContainerRef {
            handle,
            ptr,
            capacity,
        }
    }

    /// Wraps an already-resolved allocation (crate-internal fast path: the
    /// read engine resolves handle, pointer and capacity in one metadata
    /// pass via [`MemoryManager::resolve_for_read`]).
    #[inline]
    pub(crate) fn from_parts(
        handle: ContainerHandle,
        ptr: *mut u8,
        capacity: usize,
    ) -> ContainerRef {
        ContainerRef {
            handle,
            ptr,
            capacity,
        }
    }

    /// Allocates and initialises a new standalone container whose node stream
    /// is `payload`.
    pub fn create(mm: &mut MemoryManager, payload: &[u8]) -> ContainerRef {
        let needed = (HEADER_SIZE + payload.len()).max(INITIAL_CONTAINER_SIZE);
        let rounded = needed.div_ceil(CONTAINER_INCREMENT) * CONTAINER_INCREMENT;
        let (hp, capacity) = mm.allocate(rounded);
        let mut c = ContainerRef {
            handle: ContainerHandle::Standalone(hp),
            ptr: mm.resolve(hp),
            capacity,
        };
        c.set_size(HEADER_SIZE + payload.len());
        c.bytes_mut()[HEADER_SIZE..HEADER_SIZE + payload.len()].copy_from_slice(payload);
        c.refresh_free_field();
        c
    }

    /// Initialises chain slot `index` of `head` with the given node stream.
    pub fn create_chain_slot(
        mm: &mut MemoryManager,
        head: HyperionPointer,
        index: usize,
        payload: &[u8],
    ) -> ContainerRef {
        let needed = (HEADER_SIZE + payload.len()).max(INITIAL_CONTAINER_SIZE);
        let (ptr, capacity) = mm.chained_set(head, index, needed);
        let mut c = ContainerRef {
            handle: ContainerHandle::ChainSlot { head, index },
            ptr,
            capacity,
        };
        c.set_size(HEADER_SIZE + payload.len());
        c.bytes_mut()[HEADER_SIZE..HEADER_SIZE + payload.len()].copy_from_slice(payload);
        c.refresh_free_field();
        c
    }

    /// The container's handle (may change after a reallocation).
    #[inline]
    pub fn handle(&self) -> ContainerHandle {
        self.handle
    }

    /// Usable capacity of the underlying allocation.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Immutable view of the whole allocation.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // Safety: ptr/capacity describe a live allocation owned by the memory
        // manager; no aliasing mutable access exists while `self` is borrowed.
        unsafe { std::slice::from_raw_parts(self.ptr, self.capacity) }
    }

    /// Mutable view of the whole allocation.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        // Safety: see `bytes`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.capacity) }
    }

    // ----- header ------------------------------------------------------------

    #[inline]
    fn header(&self) -> u32 {
        u32::from_le_bytes(self.bytes()[..4].try_into().unwrap())
    }

    #[inline]
    fn set_header(&mut self, header: u32) {
        self.bytes_mut()[..4].copy_from_slice(&header.to_le_bytes());
    }

    /// Bytes in use, including the header and jump table.
    #[inline]
    pub fn size(&self) -> usize {
        (self.header() & 0x7ffff) as usize
    }

    /// Updates the size field and the derived free field.
    pub fn set_size(&mut self, size: usize) {
        debug_assert!(
            size <= self.capacity,
            "size {size} > capacity {}",
            self.capacity
        );
        // A hard assert even in release builds: overflowing the 19-bit size
        // field would silently corrupt the free/jump-table header bits.
        assert!(size < (1 << 19), "container size field overflow");
        let header = (self.header() & !0x7ffff) | size as u32;
        self.set_header(header);
        self.refresh_free_field();
    }

    /// Unused bytes at the end of the allocation (capped at 255 in the header;
    /// the authoritative value comes from the memory manager).
    #[inline]
    pub fn free_field(&self) -> usize {
        ((self.header() >> 19) & 0xff) as usize
    }

    fn refresh_free_field(&mut self) {
        let free = (self.capacity - self.size()).min(255) as u32;
        let header = (self.header() & !(0xff << 19)) | (free << 19);
        self.set_header(header);
    }

    /// Number of 7-entry groups in the container jump table.
    #[inline]
    pub fn jt_groups(&self) -> usize {
        ((self.header() >> 27) & 0b111) as usize
    }

    fn set_jt_groups(&mut self, groups: usize) {
        debug_assert!(groups <= CJT_MAX_GROUPS);
        let header = (self.header() & !(0b111 << 27)) | ((groups as u32) << 27);
        self.set_header(header);
    }

    /// Split delay `s` used in the split condition (Equation 4).
    #[inline]
    pub fn split_delay(&self) -> u8 {
        ((self.header() >> 30) & 0b11) as u8
    }

    /// Updates the split delay.
    pub fn set_split_delay(&mut self, delay: u8) {
        let header = (self.header() & !(0b11 << 30)) | ((delay as u32 & 0b11) << 30);
        self.set_header(header);
    }

    /// Offset of the first node-stream byte (after the header and the jump
    /// table).
    #[inline]
    pub fn stream_start(&self) -> usize {
        HEADER_SIZE + self.jt_groups() * CJT_GROUP * CJT_ENTRY_SIZE
    }

    /// Offset just past the last used node-stream byte.
    ///
    /// Clamped to the allocation's capacity: an optimistic reader racing a
    /// writer can observe a torn 19-bit `size` field that exceeds the
    /// capacity it paired with, and every scan loop bounds itself by this
    /// offset.  The clamp keeps such a read inside the allocation (the
    /// result is discarded at seqlock validation); for quiescent containers
    /// `size <= capacity` always holds and the clamp is a no-op.
    #[inline]
    pub fn stream_end(&self) -> usize {
        self.size().min(self.capacity)
    }

    // ----- byte-level editing ------------------------------------------------

    /// Ensures the allocation can hold at least `needed` bytes, growing it
    /// through the memory manager with the gap-growth headroom of
    /// [`hyperion_mem::growth_rounded_size`] (small-class changes copy the
    /// whole container, so growth skips classes geometrically).  Returns
    /// `true` if the handle (HP) changed and the parent's stored pointer
    /// must be updated.
    pub fn ensure_capacity(&mut self, mm: &mut MemoryManager, needed: usize) -> bool {
        if needed <= self.capacity {
            return false;
        }
        let rounded = hyperion_mem::growth_rounded_size(needed).div_ceil(CONTAINER_INCREMENT)
            * CONTAINER_INCREMENT;
        match self.handle {
            ContainerHandle::Standalone(hp) => {
                let (new_hp, capacity) = mm.reallocate(hp, rounded);
                self.ptr = mm.resolve(new_hp);
                self.capacity = capacity;
                let changed = new_hp != hp;
                self.handle = ContainerHandle::Standalone(new_hp);
                self.refresh_free_field();
                changed
            }
            ContainerHandle::ChainSlot { head, index } => {
                let (ptr, capacity) = mm.chained_realloc(head, index, rounded);
                self.ptr = ptr;
                self.capacity = capacity;
                self.refresh_free_field();
                false
            }
        }
    }

    /// Opens a gap of `len` bytes at offset `at`, shifting the tail of the
    /// used region to the right.  The gap is zero-filled.  Returns `true` if
    /// the HP changed.
    pub fn insert_gap(&mut self, mm: &mut MemoryManager, at: usize, len: usize) -> bool {
        let size = self.size();
        debug_assert!(
            at >= HEADER_SIZE && at <= size,
            "insert_gap at {at} size {size}"
        );
        let hp_changed = self.ensure_capacity(mm, size + len);
        let bytes = self.bytes_mut();
        bytes.copy_within(at..size, at + len);
        bytes[at..at + len].fill(0);
        self.set_size(size + len);
        hp_changed
    }

    /// Removes `len` bytes starting at `at`, shifting the tail left and
    /// zero-filling the vacated space at the end (required so the scan
    /// algorithm can rely on zeroed memory marking invalid nodes).
    pub fn remove_range(&mut self, at: usize, len: usize) {
        let size = self.size();
        debug_assert!(at >= HEADER_SIZE && at + len <= size);
        let bytes = self.bytes_mut();
        bytes.copy_within(at + len..size, at);
        bytes[size - len..size].fill(0);
        self.set_size(size - len);
    }

    // ----- typed accessors ----------------------------------------------------

    /// Reads a little-endian u16 at `offset`.
    #[inline]
    pub fn read_u16(&self, offset: usize) -> u16 {
        u16::from_le_bytes(self.bytes()[offset..offset + 2].try_into().unwrap())
    }

    /// Writes a little-endian u16 at `offset`.
    #[inline]
    pub fn write_u16(&mut self, offset: usize, value: u16) {
        self.bytes_mut()[offset..offset + 2].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a little-endian u64 at `offset`.
    #[inline]
    pub fn read_u64(&self, offset: usize) -> u64 {
        u64::from_le_bytes(self.bytes()[offset..offset + 8].try_into().unwrap())
    }

    /// Writes a little-endian u64 at `offset`.
    #[inline]
    pub fn write_u64(&mut self, offset: usize, value: u64) {
        self.bytes_mut()[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads the Hyperion Pointer stored at `offset`.
    #[inline]
    pub fn read_hp(&self, offset: usize) -> HyperionPointer {
        let mut buf = [0u8; HP_SIZE];
        buf.copy_from_slice(&self.bytes()[offset..offset + HP_SIZE]);
        HyperionPointer::from_bytes(buf)
    }

    /// Writes a Hyperion Pointer at `offset`.
    #[inline]
    pub fn write_hp(&mut self, offset: usize, hp: HyperionPointer) {
        self.bytes_mut()[offset..offset + HP_SIZE].copy_from_slice(&hp.to_bytes());
    }

    // ----- container jump table ------------------------------------------------

    /// Returns the container-jump-table entries as `(key, offset)` pairs.
    /// Offsets are relative to [`ContainerRef::stream_start`].
    pub fn cjt_entries(&self) -> Vec<(u8, u32)> {
        let groups = self.jt_groups();
        let mut out = Vec::with_capacity(groups * CJT_GROUP);
        for i in 0..groups * CJT_GROUP {
            let off = HEADER_SIZE + i * CJT_ENTRY_SIZE;
            let raw = u32::from_le_bytes(self.bytes()[off..off + 4].try_into().unwrap());
            if raw == 0 {
                continue;
            }
            out.push(((raw & 0xff) as u8, raw >> 8));
        }
        out
    }

    /// Replaces the container jump table with `entries` (sorted by key,
    /// offsets relative to the *new* stream start).  Grows or shrinks the
    /// jump-table region, shifting the node stream accordingly.  Returns
    /// `true` if the HP changed.
    pub fn set_cjt_entries(&mut self, mm: &mut MemoryManager, entries: &[(u8, u32)]) -> bool {
        let new_groups = entries.len().div_ceil(CJT_GROUP).min(CJT_MAX_GROUPS);
        let old_start = self.stream_start();
        let new_start = HEADER_SIZE + new_groups * CJT_GROUP * CJT_ENTRY_SIZE;
        let mut hp_changed = false;
        if new_start > old_start {
            hp_changed = self.insert_gap(mm, old_start, new_start - old_start);
        } else if new_start < old_start {
            self.remove_range(new_start, old_start - new_start);
        }
        self.set_jt_groups(new_groups);
        // Clear the table region, then write the entries.
        let table_len = new_groups * CJT_GROUP * CJT_ENTRY_SIZE;
        self.bytes_mut()[HEADER_SIZE..HEADER_SIZE + table_len].fill(0);
        for (i, (key, offset)) in entries.iter().take(new_groups * CJT_GROUP).enumerate() {
            let raw = (*key as u32) | (*offset << 8);
            let off = HEADER_SIZE + i * CJT_ENTRY_SIZE;
            self.bytes_mut()[off..off + 4].copy_from_slice(&raw.to_le_bytes());
        }
        hp_changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> MemoryManager {
        MemoryManager::new()
    }

    #[test]
    fn create_sets_header_and_payload() {
        let mut mm = mk();
        let c = ContainerRef::create(&mut mm, &[1, 2, 3]);
        assert_eq!(c.size(), HEADER_SIZE + 3);
        assert_eq!(c.capacity(), INITIAL_CONTAINER_SIZE);
        assert_eq!(&c.bytes()[HEADER_SIZE..HEADER_SIZE + 3], &[1, 2, 3]);
        assert_eq!(c.free_field(), INITIAL_CONTAINER_SIZE - HEADER_SIZE - 3);
        assert_eq!(c.jt_groups(), 0);
        assert_eq!(c.split_delay(), 0);
    }

    #[test]
    fn insert_gap_grows_in_32_byte_steps() {
        let mut mm = mk();
        let mut c = ContainerRef::create(&mut mm, &[0xAA; 20]);
        let size_before = c.size();
        c.insert_gap(&mut mm, HEADER_SIZE + 10, 30);
        assert_eq!(c.size(), size_before + 30);
        assert_eq!(c.capacity(), 64);
        // Original bytes preserved around the gap.
        assert!(c.bytes()[HEADER_SIZE..HEADER_SIZE + 10]
            .iter()
            .all(|&b| b == 0xAA));
        assert!(c.bytes()[HEADER_SIZE + 10..HEADER_SIZE + 40]
            .iter()
            .all(|&b| b == 0));
        assert!(c.bytes()[HEADER_SIZE + 40..HEADER_SIZE + 50]
            .iter()
            .all(|&b| b == 0xAA));
    }

    #[test]
    fn remove_range_zeroes_tail() {
        let mut mm = mk();
        let mut c = ContainerRef::create(&mut mm, &[0xBB; 24]);
        c.remove_range(HEADER_SIZE + 4, 8);
        assert_eq!(c.size(), HEADER_SIZE + 16);
        assert!(c.bytes()[HEADER_SIZE..HEADER_SIZE + 16]
            .iter()
            .all(|&b| b == 0xBB));
        assert!(c.bytes()[HEADER_SIZE + 16..].iter().all(|&b| b == 0));
    }

    #[test]
    fn handle_changes_when_size_class_changes() {
        let mut mm = mk();
        let mut c = ContainerRef::create(&mut mm, &[0xCC; 20]);
        let before = c.handle();
        // Grow well past the 32-byte class.
        c.insert_gap(&mut mm, HEADER_SIZE, 200);
        assert_ne!(c.handle(), before);
        // The payload moved with the reallocation.
        assert!(c.bytes()[HEADER_SIZE + 200..HEADER_SIZE + 220]
            .iter()
            .all(|&b| b == 0xCC));
    }

    #[test]
    fn free_field_reports_up_to_255_bytes_exactly() {
        let mut mm = mk();
        let mut c = ContainerRef::create(&mut mm, &[0xEE; 300]);
        c.set_split_delay(3);
        let mut seen_wide = false;
        while c.size() > HEADER_SIZE {
            let free = c.capacity() - c.size();
            assert_eq!(c.free_field(), free.min(255), "size {}", c.size());
            seen_wide |= (128..=255).contains(&free);
            c.remove_range(HEADER_SIZE, 1);
        }
        assert!(seen_wide, "no state with 128..=255 free bytes visited");
        assert!(c.capacity() - c.size() > 255);
        assert_eq!(c.free_field(), 255, "free field saturates at 255");
        // A saturated free field leaves the neighbouring header fields alone.
        assert_eq!(c.jt_groups(), 0);
        assert_eq!(c.split_delay(), 3);
        assert_eq!(c.size(), HEADER_SIZE);
    }

    #[test]
    fn split_delay_roundtrip() {
        let mut mm = mk();
        let mut c = ContainerRef::create(&mut mm, &[]);
        assert_eq!(c.split_delay(), 0);
        c.set_split_delay(3);
        assert_eq!(c.split_delay(), 3);
        assert_eq!(c.size(), HEADER_SIZE, "split delay must not disturb size");
    }

    #[test]
    fn container_jump_table_roundtrip() {
        let mut mm = mk();
        let mut c = ContainerRef::create(&mut mm, &[7u8; 10]);
        let entries = vec![(10u8, 0u32), (80, 100), (200, 250)];
        c.set_cjt_entries(&mut mm, &entries);
        assert_eq!(c.jt_groups(), 1);
        assert_eq!(c.stream_start(), HEADER_SIZE + 28);
        assert_eq!(c.cjt_entries(), entries);
        // Payload shifted but intact.
        assert!(c.bytes()[c.stream_start()..c.stream_start() + 10]
            .iter()
            .all(|&b| b == 7));
        // Shrink back to no table.
        c.set_cjt_entries(&mut mm, &[]);
        assert_eq!(c.jt_groups(), 0);
        assert!(c.bytes()[HEADER_SIZE..HEADER_SIZE + 10]
            .iter()
            .all(|&b| b == 7));
    }

    #[test]
    fn u64_and_hp_accessors_roundtrip() {
        let mut mm = mk();
        let mut c = ContainerRef::create(&mut mm, &[0u8; 20]);
        c.write_u64(HEADER_SIZE, 0xdead_beef_cafe_babe);
        assert_eq!(c.read_u64(HEADER_SIZE), 0xdead_beef_cafe_babe);
        let hp = HyperionPointer::new(5, 6, 7, 8);
        c.write_hp(HEADER_SIZE + 8, hp);
        assert_eq!(c.read_hp(HEADER_SIZE + 8), hp);
        c.write_u16(HEADER_SIZE + 14, 0x1234);
        assert_eq!(c.read_u16(HEADER_SIZE + 14), 0x1234);
    }

    #[test]
    fn chain_slot_containers_work() {
        let mut mm = mk();
        let head = mm.allocate_chained();
        let mut c = ContainerRef::create_chain_slot(&mut mm, head, 3, &[9u8; 50]);
        assert_eq!(c.size(), HEADER_SIZE + 50);
        let before_cap = c.capacity();
        c.insert_gap(&mut mm, HEADER_SIZE, 5000);
        assert!(c.capacity() > before_cap);
        assert!(matches!(
            c.handle(),
            ContainerHandle::ChainSlot { index: 3, .. }
        ));
        // Re-open and verify persistence.
        let c2 = ContainerRef::open(&mm, ContainerHandle::ChainSlot { head, index: 3 });
        assert_eq!(c2.size(), HEADER_SIZE + 5050);
    }
}
