//! Bit-level encoding of the T-nodes and S-nodes that make up a container's
//! internal two-level trie (paper Figure 5).
//!
//! Every node starts with a single flag byte:
//!
//! ```text
//! bit 0-1  type   00 invalid, 01 inner, 10 leaf without value, 11 leaf with value
//! bit 2    k      0 = T-node (first 8 bits of the partial key), 1 = S-node
//! bit 3-5  delta  difference to the preceding sibling key (0 = explicit key byte follows)
//! T-node:  bit 6 js (jump successor present), bit 7 jt (jump table present)
//! S-node:  bit 6-7 child flag: 00 none, 01 Hyperion Pointer, 10 embedded container,
//!          11 path-compressed node
//! ```
//!
//! Record layout after the flag byte (fields present only when flagged):
//!
//! * T-node: `[key byte][value u64][js offset u16][jump table 15 x u16]`
//! * S-node: `[key byte][value u64][child payload]`
//!
//! All multi-byte integers are little-endian.  A flag byte of zero marks
//! invalid (unused, zero-initialised) container memory.

/// Size of an inline value in bytes.
pub const VALUE_SIZE: usize = 8;
/// Size of an encoded Hyperion Pointer in bytes.
pub const HP_SIZE: usize = 5;
/// Size of a jump-successor offset in bytes.
pub const JS_SIZE: usize = 2;
/// Key-space width of one T-node jump-table slot: slot `i` covers target
/// keys up to `TNODE_JT_STRIDE * (i + 1)`.  The paper's 16 balances seeded
/// walk length (≤ 16 records) against table size; measurements with stride
/// 8 showed no read gain for twice the table bytes.
pub const TNODE_JT_STRIDE: usize = 16;
/// Number of entries in a T-node jump table.
pub const TNODE_JT_ENTRIES: usize = 256 / TNODE_JT_STRIDE - 1;
/// Size of a T-node jump table in bytes.
pub const TNODE_JT_SIZE: usize = TNODE_JT_ENTRIES * 2;
/// Maximum encodable delta between sibling keys (3 bits).
pub const MAX_DELTA: u8 = 7;
/// Maximum total size of a path-compressed node (7-bit size field).
pub const PC_MAX_SIZE: usize = 127;

/// Node type stored in the two least significant bits of the flag byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeType {
    /// Zero-initialised / unused memory.
    Invalid = 0,
    /// Inner node: no key terminates here.
    Inner = 1,
    /// A key terminates here but carries no value.
    LeafNoValue = 2,
    /// A key terminates here and carries an 8-byte value.
    LeafWithValue = 3,
}

impl NodeType {
    /// Decodes the node type from a flag byte.
    #[inline]
    pub fn from_flag(byte: u8) -> NodeType {
        match byte & 0b11 {
            0 => NodeType::Invalid,
            1 => NodeType::Inner,
            2 => NodeType::LeafNoValue,
            _ => NodeType::LeafWithValue,
        }
    }

    /// `true` if a key terminates at this node.
    #[inline]
    pub fn is_leaf(self) -> bool {
        matches!(self, NodeType::LeafNoValue | NodeType::LeafWithValue)
    }

    /// `true` if the node stores an inline value.
    #[inline]
    pub fn has_value(self) -> bool {
        self == NodeType::LeafWithValue
    }
}

/// Child reference kind stored in bits 6-7 of an S-node flag byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChildKind {
    /// No child container exists.
    None = 0,
    /// A 5-byte Hyperion Pointer to a child container follows.
    Pointer = 1,
    /// An embedded container follows (1 size byte + body).
    Embedded = 2,
    /// A path-compressed node follows (1 header byte + optional value + suffix).
    PathCompressed = 3,
}

impl ChildKind {
    /// Decodes the child kind from an S-node flag byte.
    #[inline]
    pub fn from_flag(byte: u8) -> ChildKind {
        match (byte >> 6) & 0b11 {
            0 => ChildKind::None,
            1 => ChildKind::Pointer,
            2 => ChildKind::Embedded,
            _ => ChildKind::PathCompressed,
        }
    }
}

/// Returns `true` if the flag byte denotes a T-node (k flag clear).
#[inline(always)]
pub fn is_t_node(flag: u8) -> bool {
    flag & 0b100 == 0
}

/// Returns `true` if the flag byte marks unused memory.
#[inline(always)]
pub fn is_invalid(flag: u8) -> bool {
    flag & 0b11 == 0
}

/// Delta field (bits 3-5) of a flag byte; 0 means an explicit key byte follows.
#[inline]
pub fn delta_of(flag: u8) -> u8 {
    (flag >> 3) & 0b111
}

/// Builds a T-node flag byte.
#[inline]
pub fn make_t_flag(node_type: NodeType, delta: u8, js: bool, jt: bool) -> u8 {
    debug_assert!(delta <= MAX_DELTA);
    (node_type as u8) | ((delta & 0b111) << 3) | ((js as u8) << 6) | ((jt as u8) << 7)
}

/// Builds an S-node flag byte.
#[inline]
pub fn make_s_flag(node_type: NodeType, delta: u8, child: ChildKind) -> u8 {
    debug_assert!(delta <= MAX_DELTA);
    (node_type as u8) | 0b100 | ((delta & 0b111) << 3) | ((child as u8) << 6)
}

/// A decoded T-node record.
#[derive(Clone, Copy, Debug)]
pub struct TNode {
    /// Offset of the flag byte within the container.
    pub offset: usize,
    /// Resolved 8-bit partial key (delta applied).
    pub key: u8,
    /// Node type.
    pub node_type: NodeType,
    /// `true` if the key byte is stored explicitly (delta field is 0).
    pub explicit_key: bool,
    /// `true` if a jump-successor offset is present.
    pub has_js: bool,
    /// `true` if a T-node jump table is present.
    pub has_jt: bool,
    /// Offset of the 8-byte value, if present.
    pub value_offset: Option<usize>,
    /// Offset of the 2-byte jump-successor field, if present.
    pub js_offset: Option<usize>,
    /// Offset of the jump table (15 x u16), if present.
    pub jt_offset: Option<usize>,
    /// Offset just past the T record header; the first S child (or the next
    /// T sibling) starts here.
    pub header_end: usize,
}

/// A decoded S-node record.
#[derive(Clone, Copy, Debug)]
pub struct SNode {
    /// Offset of the flag byte within the container.
    pub offset: usize,
    /// Resolved 8-bit partial key (delta applied).
    pub key: u8,
    /// Node type.
    pub node_type: NodeType,
    /// `true` if the key byte is stored explicitly (delta field is 0).
    pub explicit_key: bool,
    /// Child reference kind.
    pub child: ChildKind,
    /// Offset of the 8-byte value, if present.
    pub value_offset: Option<usize>,
    /// Offset of the child payload (HP bytes, embedded size byte or PC header).
    pub child_offset: Option<usize>,
    /// Offset just past the whole S record including its child payload.
    pub end: usize,
}

/// Parses the T-node record starting at `offset`.
///
/// `prev_key` is the key of the preceding T sibling, used to resolve delta
/// encoding.  Returns `None` if the byte at `offset` is not a valid T-node.
pub fn parse_t_node(bytes: &[u8], offset: usize, prev_key: Option<u8>) -> Option<TNode> {
    let flag = *bytes.get(offset)?;
    if is_invalid(flag) || !is_t_node(flag) {
        return None;
    }
    let node_type = NodeType::from_flag(flag);
    let delta = delta_of(flag);
    let has_js = flag & (1 << 6) != 0;
    let has_jt = flag & (1 << 7) != 0;
    let mut cursor = offset + 1;
    let (key, explicit_key) = if delta == 0 {
        let k = *bytes.get(cursor)?;
        cursor += 1;
        (k, true)
    } else {
        (prev_key.unwrap_or(0).wrapping_add(delta), false)
    };
    let value_offset = if node_type.has_value() {
        let off = cursor;
        cursor += VALUE_SIZE;
        Some(off)
    } else {
        None
    };
    let js_offset = if has_js {
        let off = cursor;
        cursor += JS_SIZE;
        Some(off)
    } else {
        None
    };
    let jt_offset = if has_jt {
        let off = cursor;
        cursor += TNODE_JT_SIZE;
        Some(off)
    } else {
        None
    };
    Some(TNode {
        offset,
        key,
        node_type,
        explicit_key,
        has_js,
        has_jt,
        value_offset,
        js_offset,
        jt_offset,
        header_end: cursor,
    })
}

/// Parses the S-node record starting at `offset`.
///
/// `prev_key` is the key of the preceding S sibling under the same T-node.
/// Returns `None` if the byte at `offset` is not a valid S-node.
pub fn parse_s_node(bytes: &[u8], offset: usize, prev_key: Option<u8>) -> Option<SNode> {
    let flag = *bytes.get(offset)?;
    if is_invalid(flag) || is_t_node(flag) {
        return None;
    }
    let node_type = NodeType::from_flag(flag);
    let delta = delta_of(flag);
    let child = ChildKind::from_flag(flag);
    let mut cursor = offset + 1;
    let (key, explicit_key) = if delta == 0 {
        let k = *bytes.get(cursor)?;
        cursor += 1;
        (k, true)
    } else {
        (prev_key.unwrap_or(0).wrapping_add(delta), false)
    };
    let value_offset = if node_type.has_value() {
        let off = cursor;
        cursor += VALUE_SIZE;
        Some(off)
    } else {
        None
    };
    let child_offset;
    match child {
        ChildKind::None => {
            child_offset = None;
        }
        ChildKind::Pointer => {
            child_offset = Some(cursor);
            cursor += HP_SIZE;
        }
        ChildKind::Embedded => {
            child_offset = Some(cursor);
            let size = *bytes.get(cursor)? as usize;
            cursor += size.max(1);
        }
        ChildKind::PathCompressed => {
            child_offset = Some(cursor);
            let header = *bytes.get(cursor)?;
            let size = (header & 0x7f) as usize;
            cursor += size.max(1);
        }
    }
    Some(SNode {
        offset,
        key,
        node_type,
        explicit_key,
        child,
        value_offset,
        child_offset,
        end: cursor,
    })
}

/// Decodes a path-compressed node at `offset` into `(has_value, value, suffix range)`.
pub fn parse_pc_node(bytes: &[u8], offset: usize) -> (bool, u64, std::ops::Range<usize>) {
    let header = bytes[offset];
    let has_value = header & 0x80 != 0;
    let total = (header & 0x7f) as usize;
    let mut cursor = offset + 1;
    let value = if has_value {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&bytes[cursor..cursor + VALUE_SIZE]);
        cursor += VALUE_SIZE;
        u64::from_le_bytes(buf)
    } else {
        0
    };
    (has_value, value, cursor..offset + total)
}

/// Encodes a path-compressed node for `suffix` with an optional value.
///
/// # Panics
/// Panics if the resulting node would exceed [`PC_MAX_SIZE`]; callers must
/// check [`pc_fits`] first.
pub fn encode_pc_node(suffix: &[u8], value: Option<u64>) -> Vec<u8> {
    let total = 1 + if value.is_some() { VALUE_SIZE } else { 0 } + suffix.len();
    assert!(total <= PC_MAX_SIZE, "path-compressed node too large");
    let mut out = Vec::with_capacity(total);
    out.push((total as u8) | if value.is_some() { 0x80 } else { 0 });
    if let Some(v) = value {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(suffix);
    out
}

/// Returns `true` if a suffix of the given length (with a value) fits into a
/// single path-compressed node.
#[inline]
pub fn pc_fits(suffix_len: usize) -> bool {
    1 + VALUE_SIZE + suffix_len <= PC_MAX_SIZE
}

/// Computes the delta field for a new sibling following `prev_key`: returns
/// `Some(delta)` when the difference is representable in three bits (and
/// non-zero), otherwise `None` (an explicit key byte is required).
#[inline]
pub fn delta_for(prev_key: Option<u8>, key: u8, delta_enabled: bool) -> Option<u8> {
    if !delta_enabled {
        return None;
    }
    let prev = prev_key?;
    let diff = key.wrapping_sub(prev);
    if (1..=MAX_DELTA).contains(&diff) {
        Some(diff)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_flag_roundtrip() {
        let flag = make_t_flag(NodeType::LeafWithValue, 5, true, false);
        assert!(is_t_node(flag));
        assert!(!is_invalid(flag));
        assert_eq!(NodeType::from_flag(flag), NodeType::LeafWithValue);
        assert_eq!(delta_of(flag), 5);
        assert!(flag & (1 << 6) != 0);
        assert!(flag & (1 << 7) == 0);
    }

    #[test]
    fn s_flag_roundtrip() {
        let flag = make_s_flag(NodeType::Inner, 0, ChildKind::Embedded);
        assert!(!is_t_node(flag));
        assert_eq!(NodeType::from_flag(flag), NodeType::Inner);
        assert_eq!(ChildKind::from_flag(flag), ChildKind::Embedded);
        assert_eq!(delta_of(flag), 0);
    }

    #[test]
    fn zero_byte_is_invalid() {
        assert!(is_invalid(0));
        assert!(parse_t_node(&[0u8; 4], 0, None).is_none());
        assert!(parse_s_node(&[0u8; 4], 0, None).is_none());
    }

    #[test]
    fn parse_t_node_with_explicit_key_and_value() {
        let mut bytes = vec![make_t_flag(NodeType::LeafWithValue, 0, false, false), b'a'];
        bytes.extend_from_slice(&42u64.to_le_bytes());
        let t = parse_t_node(&bytes, 0, None).unwrap();
        assert_eq!(t.key, b'a');
        assert!(t.explicit_key);
        assert_eq!(t.node_type, NodeType::LeafWithValue);
        assert_eq!(t.value_offset, Some(2));
        assert_eq!(t.header_end, 10);
    }

    #[test]
    fn parse_t_node_with_delta_key() {
        let bytes = vec![make_t_flag(NodeType::Inner, 4, false, false)];
        let t = parse_t_node(&bytes, 0, Some(b'a')).unwrap();
        assert_eq!(t.key, b'a' + 4);
        assert!(!t.explicit_key);
        assert_eq!(t.header_end, 1);
    }

    #[test]
    fn parse_s_node_with_pointer_child() {
        let mut bytes = vec![make_s_flag(NodeType::Inner, 0, ChildKind::Pointer), b'x'];
        bytes.extend_from_slice(&[1, 2, 3, 4, 5]);
        let s = parse_s_node(&bytes, 0, None).unwrap();
        assert_eq!(s.key, b'x');
        assert_eq!(s.child, ChildKind::Pointer);
        assert_eq!(s.child_offset, Some(2));
        assert_eq!(s.end, 7);
    }

    #[test]
    fn parse_s_node_with_embedded_child() {
        // Embedded container of total size 3 (size byte + 2 body bytes).
        let bytes = vec![
            make_s_flag(NodeType::Inner, 0, ChildKind::Embedded),
            b'x',
            3,
            0xAA,
            0xBB,
        ];
        let s = parse_s_node(&bytes, 0, None).unwrap();
        assert_eq!(s.child, ChildKind::Embedded);
        assert_eq!(s.child_offset, Some(2));
        assert_eq!(s.end, 5);
    }

    #[test]
    fn pc_node_roundtrip() {
        let enc = encode_pc_node(b"suffix", Some(7));
        let (has_value, value, range) = parse_pc_node(&enc, 0);
        assert!(has_value);
        assert_eq!(value, 7);
        assert_eq!(&enc[range], b"suffix");

        let enc = encode_pc_node(b"tail", None);
        let (has_value, _, range) = parse_pc_node(&enc, 0);
        assert!(!has_value);
        assert_eq!(&enc[range], b"tail");
    }

    #[test]
    fn delta_for_respects_three_bit_limit() {
        assert_eq!(delta_for(Some(10), 13, true), Some(3));
        assert_eq!(delta_for(Some(10), 17, true), Some(7));
        assert_eq!(delta_for(Some(10), 18, true), None);
        assert_eq!(delta_for(Some(10), 10, true), None);
        assert_eq!(delta_for(None, 13, true), None);
        assert_eq!(delta_for(Some(10), 13, false), None);
    }

    #[test]
    fn s_node_with_value_and_child() {
        // A key terminates here (with value) AND a longer key continues via HP.
        let mut bytes = vec![
            make_s_flag(NodeType::LeafWithValue, 0, ChildKind::Pointer),
            b'k',
        ];
        bytes.extend_from_slice(&99u64.to_le_bytes());
        bytes.extend_from_slice(&[9, 9, 9, 9, 9]);
        let s = parse_s_node(&bytes, 0, None).unwrap();
        assert_eq!(s.node_type, NodeType::LeafWithValue);
        assert_eq!(s.value_offset, Some(2));
        assert_eq!(s.child_offset, Some(10));
        assert_eq!(s.end, 15);
    }
}
