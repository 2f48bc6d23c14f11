//! Tunable parameters of the Hyperion trie.
//!
//! The defaults follow Section 4.1 of the paper: embedded containers are
//! ejected when the surrounding (real) container exceeds 8 KiB for integer
//! keys and 16 KiB for variable-length string keys; containers are split once
//! they exceed `16 KiB + 64 KiB * split_delay`.

/// Configuration of a [`crate::HyperionMap`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HyperionConfig {
    /// Eject embedded containers once the surrounding real container grows
    /// beyond this size (bytes).  Paper default: 8 KiB for integer keys,
    /// 16 KiB for strings.
    pub eject_threshold: usize,
    /// Maximum size of an embedded container in bytes (hard limit 255 because
    /// the size field is a single byte; the paper uses 256).
    pub embedded_max: usize,
    /// Enable delta encoding of sibling key characters (Section 3.3).
    pub delta_encoding: bool,
    /// Enable the jump-successor offsets appended to T-nodes (Section 3.3).
    pub jump_successor: bool,
    /// Minimum number of S-children before a jump-successor offset is added.
    /// Paper default: 2.
    pub jump_successor_threshold: usize,
    /// Enable T-node jump tables (Section 3.3).
    pub tnode_jump_table: bool,
    /// Minimum number of S-children before a T-node jump table is created.
    pub tnode_jump_table_threshold: usize,
    /// Enable container jump tables (Section 3.3).
    pub container_jump_table: bool,
    /// Number of T-nodes scanned in one lookup before the container jump
    /// table is grown / rebalanced.  Paper default: 8.
    pub container_jump_table_scan_limit: usize,
    /// Enable vertical container splitting (Section 3.3).
    pub container_split: bool,
    /// Base size `a` of the split condition `size >= a + b * s` (bytes).
    pub split_base: usize,
    /// Increment `b` of the split condition (bytes).
    pub split_increment: usize,
    /// Minimum size of each split candidate; smaller splits are aborted.
    pub split_min_part: usize,
    /// Enable the optional key pre-processor (zero-bit injection, Section 3.4).
    pub key_preprocessing: bool,
    /// Capacity (in entries, rounded up to a power of two) of the hashed
    /// shortcut layer mapping transformed-key prefixes to deep containers
    /// ([`crate::shortcut`]); 0 disables it.  The table allocates lazily and
    /// costs 16 bytes per slot once warm.
    pub shortcut_capacity: usize,
}

impl Default for HyperionConfig {
    fn default() -> Self {
        HyperionConfig {
            eject_threshold: 16 * 1024,
            embedded_max: 255,
            delta_encoding: true,
            jump_successor: true,
            jump_successor_threshold: 2,
            tnode_jump_table: true,
            tnode_jump_table_threshold: 24,
            container_jump_table: true,
            container_jump_table_scan_limit: 8,
            container_split: true,
            split_base: 16 * 1024,
            split_increment: 64 * 1024,
            split_min_part: 3 * 1024,
            key_preprocessing: false,
            shortcut_capacity: 1 << 16,
        }
    }
}

impl HyperionConfig {
    /// Paper configuration for fixed-size integer keys (8 KiB eject threshold).
    pub fn for_integers() -> Self {
        HyperionConfig {
            eject_threshold: 8 * 1024,
            ..Default::default()
        }
    }

    /// Paper configuration for variable-length string keys (16 KiB eject
    /// threshold, better path-compression utilisation).
    pub fn for_strings() -> Self {
        HyperionConfig {
            eject_threshold: 16 * 1024,
            ..Default::default()
        }
    }

    /// Configuration with key pre-processing enabled ("Hyperion_p" in the
    /// paper), intended for uniformly distributed keys such as random
    /// integers or cryptographic hashes.
    ///
    /// The zero-bit-injection transform is order-preserving only among keys
    /// of uniform width (at least 4 bytes): keys shorter than 4 bytes pass
    /// through untransformed, so mixing key widths under this configuration
    /// yields unspecified ordering for cursors, iterators and range queries.
    /// Use fixed-width keys (e.g. [`crate::keys::encode_u64`]) — point
    /// lookups (`get`/`put`/`delete`) are unaffected either way.
    pub fn with_preprocessing() -> Self {
        HyperionConfig {
            eject_threshold: 8 * 1024,
            key_preprocessing: true,
            ..Default::default()
        }
    }

    /// A minimal configuration with every optional acceleration structure
    /// disabled; used by the ablation benchmarks.
    pub fn baseline_no_optimizations() -> Self {
        HyperionConfig {
            delta_encoding: false,
            jump_successor: false,
            tnode_jump_table: false,
            container_jump_table: false,
            container_split: false,
            key_preprocessing: false,
            shortcut_capacity: 0,
            ..Default::default()
        }
    }

    /// Returns the split threshold for a container with the given split delay
    /// `s` (Equation 4 of the paper).
    #[inline]
    pub fn split_threshold(&self, split_delay: u8) -> usize {
        self.split_base + self.split_increment * split_delay as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = HyperionConfig::default();
        assert_eq!(c.split_base, 16 * 1024);
        assert_eq!(c.split_increment, 64 * 1024);
        assert_eq!(c.jump_successor_threshold, 2);
        assert_eq!(c.container_jump_table_scan_limit, 8);
        assert!(!c.key_preprocessing);
    }

    #[test]
    fn split_threshold_follows_equation_four() {
        let c = HyperionConfig::default();
        assert_eq!(c.split_threshold(0), 16 * 1024);
        assert_eq!(c.split_threshold(1), 80 * 1024);
        assert_eq!(c.split_threshold(3), 208 * 1024);
    }

    #[test]
    fn integer_and_string_profiles_differ_in_eject_threshold() {
        assert_eq!(HyperionConfig::for_integers().eject_threshold, 8 * 1024);
        assert_eq!(HyperionConfig::for_strings().eject_threshold, 16 * 1024);
    }
}
