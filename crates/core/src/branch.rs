//! Branch-node lookup (§4.2.3).
//!
//! "We implement two schemes for locating branch nodes. Both schemes compute
//! a unique key for each branch node. The first scheme maintains a hash
//! table of these keys along with pointers to the branch nodes themselves.
//! The second scheme maintains a sorted table of keys. Branch nodes are
//! located using a binary search of this sorted table." The paper found no
//! significant performance difference because each lookup amortizes over an
//! entire subtree interaction. Only the sorted table is kept: at the
//! hundreds to low thousands of branches the paper's tables produce, the
//! two differ by a few nanoseconds a lookup (DESIGN.md, A3).

use bhut_tree::NodeId;

/// Sorted-table lookup with binary search: resolves a branch key (raw
/// `NodeKey` bits) to the local tree node.
#[derive(Debug, Clone, Default)]
pub struct SortedLookup {
    table: Vec<(u64, NodeId)>,
}

impl SortedLookup {
    pub fn new(entries: impl IntoIterator<Item = (u64, NodeId)>) -> Self {
        let mut table: Vec<(u64, NodeId)> = entries.into_iter().collect();
        table.sort_unstable_by_key(|&(k, _)| k);
        table.dedup_by_key(|&mut (k, _)| k);
        SortedLookup { table }
    }

    #[inline]
    pub fn find(&self, key_raw: u64) -> Option<NodeId> {
        self.table.binary_search_by_key(&key_raw, |&(k, _)| k).ok().map(|i| self.table[i].1)
    }

    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhut_morton::NodeKey;

    #[test]
    fn finds_every_entry_and_no_other_key() {
        let mut e = Vec::new();
        for oct in 0..8u8 {
            let k = NodeKey::ROOT.child(oct);
            e.push((k.raw(), 100 + oct as NodeId));
            e.push((k.child(3).raw(), 200 + oct as NodeId));
        }
        let s = SortedLookup::new(e.clone());
        assert_eq!(s.len(), e.len());
        for (k, id) in &e {
            assert_eq!(s.find(*k), Some(*id));
        }
        assert_eq!(s.find(NodeKey::ROOT.child(1).child(1).raw()), None);
    }

    #[test]
    fn empty_lookup() {
        let s = SortedLookup::default();
        assert!(s.is_empty());
        assert_eq!(s.find(1), None);
    }

    #[test]
    fn sorted_dedups() {
        let s = SortedLookup::new(vec![(5, 1), (5, 2), (7, 3)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.find(7), Some(3));
    }
}
