//! Warren–Salmon node path keys.
//!
//! §3.2: every branch node carries "a unique key" so a remote processor can
//! name it; keys live either in "a hashed list of pointers" or a sorted
//! table searched by binary search (§4.2.3). A [`NodeKey`] encodes the path
//! from the root: a leading 1 *placeholder bit* followed by 3 bits per level
//! (the octant index at each descent). The placeholder disambiguates
//! depth — `0b1_000` (child 0 of root) differs from `0b1` (root) — exactly
//! the construction of Warren & Salmon's hashed oct-tree.

use std::fmt;

/// A path key identifying one node of an oct-tree (up to 21 levels deep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeKey(u64);

impl NodeKey {
    /// The root of the tree.
    pub const ROOT: NodeKey = NodeKey(1);

    /// Construct from a raw key value (must have its placeholder bit set).
    pub fn from_raw(raw: u64) -> Option<NodeKey> {
        (raw != 0 && (raw.leading_zeros().is_multiple_of(3) || raw == 1) && {
            // placeholder must be at a bit position ≡ 0 (mod 3) from the low
            // end: positions 0, 3, 6, ...
            let top = 63 - raw.leading_zeros();
            top.is_multiple_of(3)
        })
        .then_some(NodeKey(raw))
    }

    /// Raw 64-bit representation (what travels in messages).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Key of this node's `oct`-th child (`oct < 8`).
    ///
    /// # Panics
    /// Debug-asserts `oct < 8` and that the tree is not deeper than 21
    /// levels.
    #[inline]
    pub fn child(self, oct: u8) -> NodeKey {
        debug_assert!(oct < 8);
        debug_assert!(self.level() < 21, "key overflow at level {}", self.level());
        NodeKey((self.0 << 3) | oct as u64)
    }

    /// Key of the parent; `None` for the root.
    #[inline]
    pub fn parent(self) -> Option<NodeKey> {
        (self != Self::ROOT).then_some(NodeKey(self.0 >> 3))
    }

    /// Depth below the root (root = 0).
    #[inline]
    pub fn level(self) -> u32 {
        (63 - self.0.leading_zeros()) / 3
    }

    /// The octant taken at the last descent; `None` for the root.
    #[inline]
    pub fn last_octant(self) -> Option<u8> {
        (self != Self::ROOT).then_some((self.0 & 0b111) as u8)
    }

    /// The octant the path takes at the descent from `level` to `level + 1`
    /// (`level < self.level()`): the `level`-th entry of [`NodeKey::path`].
    #[inline]
    pub fn octant_at(self, level: u32) -> u8 {
        debug_assert!(level < self.level(), "level {level} not above {}", self.level());
        ((self.0 >> (3 * (self.level() - 1 - level))) & 0b111) as u8
    }

    /// Whether `self` is an ancestor of (or equal to) `other`.
    pub fn is_ancestor_of(self, other: NodeKey) -> bool {
        let dl = other.level().checked_sub(self.level());
        match dl {
            Some(shift) => (other.0 >> (3 * shift)) == self.0,
            None => false,
        }
    }

    /// The octant path from the root to this node, outermost first.
    pub fn path(self) -> Vec<u8> {
        let l = self.level();
        (0..l).rev().map(|i| ((self.0 >> (3 * i)) & 0b111) as u8).collect()
    }

    /// Rebuild a key from an octant path.
    pub fn from_path(path: &[u8]) -> NodeKey {
        path.iter().fold(Self::ROOT, |k, &oct| k.child(oct))
    }
}

impl fmt::Display for NodeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "root")?;
        for oct in self.path() {
            write!(f, ".{oct}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn root_properties() {
        assert_eq!(NodeKey::ROOT.level(), 0);
        assert_eq!(NodeKey::ROOT.parent(), None);
        assert_eq!(NodeKey::ROOT.last_octant(), None);
        assert_eq!(NodeKey::ROOT.raw(), 1);
        assert_eq!(NodeKey::ROOT.to_string(), "root");
    }

    #[test]
    fn child_parent_roundtrip() {
        let k = NodeKey::ROOT.child(5).child(0).child(7);
        assert_eq!(k.level(), 3);
        assert_eq!(k.last_octant(), Some(7));
        assert_eq!(k.parent().unwrap().last_octant(), Some(0));
        assert_eq!(k.path(), vec![5, 0, 7]);
        assert_eq!(NodeKey::from_path(&[5, 0, 7]), k);
        assert_eq!(k.to_string(), "root.5.0.7");
    }

    #[test]
    fn placeholder_disambiguates_depth() {
        // child 0 of root must differ from root itself.
        let c0 = NodeKey::ROOT.child(0);
        assert_ne!(c0, NodeKey::ROOT);
        assert_eq!(c0.level(), 1);
        // ...and child 0 of child 0 differs again.
        assert_ne!(c0.child(0), c0);
    }

    #[test]
    fn ancestry() {
        let a = NodeKey::ROOT.child(3);
        let b = a.child(1).child(6);
        assert!(NodeKey::ROOT.is_ancestor_of(b));
        assert!(a.is_ancestor_of(b));
        assert!(a.is_ancestor_of(a));
        assert!(!b.is_ancestor_of(a));
        assert!(!NodeKey::ROOT.child(2).is_ancestor_of(b));
    }

    #[test]
    fn keys_are_unique_across_small_tree() {
        // Enumerate every node in a full 4-level oct-tree; all keys distinct.
        let mut keys = std::collections::HashSet::new();
        fn walk(k: NodeKey, depth: u32, keys: &mut std::collections::HashSet<u64>) {
            assert!(keys.insert(k.raw()), "duplicate {k}");
            if depth > 0 {
                for oct in 0..8 {
                    walk(k.child(oct), depth - 1, keys);
                }
            }
        }
        walk(NodeKey::ROOT, 4, &mut keys);
        assert_eq!(keys.len(), 1 + 8 + 64 + 512 + 4096);
    }

    #[test]
    fn from_raw_validation() {
        assert_eq!(NodeKey::from_raw(0), None);
        assert_eq!(NodeKey::from_raw(1), Some(NodeKey::ROOT));
        assert_eq!(NodeKey::from_raw(0b1_101), Some(NodeKey::ROOT.child(5)));
        // placeholder bit in an invalid position (level fraction)
        assert_eq!(NodeKey::from_raw(0b10), None);
        assert_eq!(NodeKey::from_raw(0b100), None);
    }

    proptest! {
        #[test]
        fn path_roundtrip(path in proptest::collection::vec(0u8..8, 0..21)) {
            let k = NodeKey::from_path(&path);
            prop_assert_eq!(k.path(), path.clone());
            prop_assert_eq!(k.level() as usize, path.len());
            let digits: Vec<u8> = (0..k.level()).map(|l| k.octant_at(l)).collect();
            prop_assert_eq!(digits, path.clone());
        }

        #[test]
        fn sibling_keys_sort_by_octant(path in proptest::collection::vec(0u8..8, 0..20), a in 0u8..8, b in 0u8..8) {
            let parent = NodeKey::from_path(&path);
            let (ka, kb) = (parent.child(a), parent.child(b));
            prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        }
    }
}
