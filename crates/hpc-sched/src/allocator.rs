//! Whole-node allocation.
//!
//! ARCHER2 allocates whole nodes to jobs, and the power model has no
//! placement sensitivity (switch power is load-insensitive), so the
//! allocator just tracks the free set. Nodes are handed out lowest-id-first
//! to keep allocation deterministic for reproducible campaigns.
//!
//! The free and offline sets are bitsets: node `i` is bit `i % 64` of word
//! `i / 64`, and each set keeps a running count of its members. A
//! paper-scale campaign starts and releases about 18 M nodes, and each of
//! those is one bit operation; an allocation is a scan over the words that
//! takes the set bits of each with `trailing_zeros`, so it picks the same
//! lowest ids an ordered set would.

use hpc_topo::NodeId;

/// Nodes per bitset word.
const WORD_BITS: u32 = u64::BITS;

/// A set of node ids below a fixed bound, as a bitset with its size.
#[derive(Debug, Clone)]
struct NodeSet {
    words: Vec<u64>,
    len: u32,
}

impl NodeSet {
    /// No node of a `total`-node machine.
    fn empty(total: u32) -> Self {
        NodeSet { words: vec![0; total.div_ceil(WORD_BITS) as usize], len: 0 }
    }

    /// Every node of a `total`-node machine; the bits past `total` in the
    /// last word stay clear.
    fn full(total: u32) -> Self {
        let mut set = NodeSet::empty(total);
        set.words.fill(u64::MAX);
        let tail = total % WORD_BITS;
        if tail != 0 {
            *set.words.last_mut().expect("a partial word exists") = (1 << tail) - 1;
        }
        set.len = total;
        set
    }

    /// Word index and bit mask of `id`.
    fn slot(id: NodeId) -> (usize, u64) {
        ((id.0 / WORD_BITS) as usize, 1 << (id.0 % WORD_BITS))
    }

    fn contains(&self, id: NodeId) -> bool {
        let (w, bit) = Self::slot(id);
        self.words.get(w).is_some_and(|word| word & bit != 0)
    }

    /// Add `id` (which must lie below the bound); `false` if it was there.
    ///
    /// Test, then set. The branch-free form (set the bit, then add the
    /// bool test to `len`) is miscompiled by rustc 1.95 in optimised
    /// builds without debug assertions: under `release`'s assert the count
    /// stays put while the bit is set.
    fn insert(&mut self, id: NodeId) -> bool {
        let added = !self.contains(id);
        if added {
            let (w, bit) = Self::slot(id);
            self.words[w] |= bit;
            self.len += 1;
        }
        added
    }

    /// Remove `id`; `false` if it was not there.
    fn remove(&mut self, id: NodeId) -> bool {
        let present = self.contains(id);
        if present {
            let (w, bit) = Self::slot(id);
            self.words[w] &= !bit;
            self.len -= 1;
        }
        present
    }

    /// Remove and return the `n` lowest members, in ascending order.
    /// The caller checks that the set holds at least `n`.
    fn take_lowest(&mut self, n: u32) -> Vec<NodeId> {
        let mut picked = Vec::with_capacity(n as usize);
        for (w, word) in (0..).zip(&mut self.words) {
            if picked.len() == n as usize {
                break;
            }
            while *word != 0 && picked.len() < n as usize {
                picked.push(NodeId(w * WORD_BITS + word.trailing_zeros()));
                *word &= *word - 1;
            }
        }
        self.len -= n;
        picked
    }
}

/// Tracks which nodes are free, busy or offline (failed/draining).
#[derive(Debug, Clone)]
pub struct NodeAllocator {
    free: NodeSet,
    offline: NodeSet,
    total: u32,
}

impl NodeAllocator {
    /// All `total` nodes start free.
    pub fn new(total: u32) -> Self {
        NodeAllocator { free: NodeSet::full(total), offline: NodeSet::empty(total), total }
    }

    /// Total node count (free + busy + offline).
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Currently free node count.
    pub fn free_count(&self) -> u32 {
        self.free.len
    }

    /// Currently offline node count.
    pub fn offline_count(&self) -> u32 {
        self.offline.len
    }

    /// Currently busy node count.
    pub fn busy_count(&self) -> u32 {
        self.total - self.free_count() - self.offline_count()
    }

    /// Take a *free* node offline (failure or drain). Returns `false` if
    /// the node was not free (busy or already offline) — the caller must
    /// first reclaim it from its job.
    pub fn take_offline(&mut self, id: NodeId) -> bool {
        if self.free.remove(id) {
            self.offline.insert(id);
            true
        } else {
            false
        }
    }

    /// Bring an offline node back into the free pool.
    ///
    /// # Panics
    /// Panics if the node was not offline.
    pub fn bring_online(&mut self, id: NodeId) {
        assert!(self.offline.remove(id), "{id} was not offline");
        self.free.insert(id);
    }

    /// Bring an offline node back into the free pool; `false` (and no state
    /// change) if the node was not offline. The form fault-driven repair
    /// paths use, where overlapping fault domains can emit a repair for a
    /// node that was never taken down.
    pub fn try_bring_online(&mut self, id: NodeId) -> bool {
        if self.offline.remove(id) {
            self.free.insert(id);
            true
        } else {
            false
        }
    }

    /// Is a specific node offline?
    pub fn is_offline(&self, id: NodeId) -> bool {
        self.offline.contains(id)
    }

    /// Allocate `n` nodes (lowest ids first); `None` if not enough are free.
    pub fn allocate(&mut self, n: u32) -> Option<Vec<NodeId>> {
        if n > self.free_count() {
            return None;
        }
        Some(self.free.take_lowest(n))
    }

    /// Return nodes to the free pool.
    ///
    /// # Panics
    /// Panics if a node is already free (double release) or out of range.
    pub fn release(&mut self, nodes: &[NodeId]) {
        for &id in nodes {
            assert!(id.0 < self.total, "node {id} out of range");
            assert!(self.free.insert(id), "double release of {id}");
        }
    }

    /// Is a specific node free?
    pub fn is_free(&self, id: NodeId) -> bool {
        self.free.contains(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut a = NodeAllocator::new(10);
        assert_eq!(a.free_count(), 10);
        let got = a.allocate(4).unwrap();
        assert_eq!(got.len(), 4);
        assert_eq!(a.free_count(), 6);
        assert_eq!(a.busy_count(), 4);
        a.release(&got);
        assert_eq!(a.free_count(), 10);
    }

    #[test]
    fn allocation_is_lowest_id_first() {
        let mut a = NodeAllocator::new(10);
        let got = a.allocate(3).unwrap();
        assert_eq!(got, vec![NodeId(0), NodeId(1), NodeId(2)]);
        a.release(&[NodeId(1)]);
        let next = a.allocate(2).unwrap();
        assert_eq!(next, vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn insufficient_nodes_returns_none_without_side_effects() {
        let mut a = NodeAllocator::new(5);
        let _ = a.allocate(3).unwrap();
        assert!(a.allocate(3).is_none());
        assert_eq!(a.free_count(), 2);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut a = NodeAllocator::new(5);
        let got = a.allocate(1).unwrap();
        a.release(&got);
        a.release(&got);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_release_panics() {
        let mut a = NodeAllocator::new(5);
        a.allocate(5).unwrap();
        a.release(&[NodeId(99)]);
    }

    #[test]
    fn is_free_tracks_state() {
        let mut a = NodeAllocator::new(3);
        assert!(a.is_free(NodeId(0)));
        let got = a.allocate(1).unwrap();
        assert!(!a.is_free(got[0]));
    }

    #[test]
    fn offline_lifecycle() {
        let mut a = NodeAllocator::new(4);
        assert!(a.take_offline(NodeId(2)));
        assert_eq!(a.offline_count(), 1);
        assert_eq!(a.free_count(), 3);
        assert_eq!(a.busy_count(), 0);
        assert!(a.is_offline(NodeId(2)));
        // Offline nodes are never allocated.
        let got = a.allocate(3).unwrap();
        assert!(!got.contains(&NodeId(2)));
        assert!(a.allocate(1).is_none(), "nothing left");
        a.bring_online(NodeId(2));
        assert_eq!(a.allocate(1).unwrap(), vec![NodeId(2)]);
    }

    #[test]
    fn busy_node_cannot_go_offline_directly() {
        let mut a = NodeAllocator::new(2);
        let got = a.allocate(1).unwrap();
        assert!(!a.take_offline(got[0]), "busy node must be reclaimed first");
    }

    #[test]
    #[should_panic(expected = "was not offline")]
    fn bring_online_requires_offline() {
        let mut a = NodeAllocator::new(2);
        a.bring_online(NodeId(0));
    }

    #[test]
    fn zero_allocation_is_empty() {
        let mut a = NodeAllocator::new(3);
        assert_eq!(a.allocate(0).unwrap(), Vec::<NodeId>::new());
        assert_eq!(a.free_count(), 3);
    }
}
