//! Replica placement: which nodes hold which cluster clips.
//!
//! Every cluster clip `c` is stored on `r` of the `N` nodes. The map is
//! a seeded node permutation striped round-robin: replica `j` of clip
//! `c` lands on the node at permutation position `(c·r + j) mod N`.
//! Because the values `c·r + j` enumerate the consecutive integers
//! `0..K·r`, the assignment is **exactly balanced** (every node holds
//! `⌈K·r/N⌉` or `⌊K·r/N⌋` clips), the `r` replicas of one clip are
//! **distinct** whenever `r ≤ N`, and the node-local catalog index of a
//! replica is the closed form `(c·r + j) / N` — dense `0..` per node,
//! no lookup tables on the hot path. The seeded permutation plays the
//! role of the paper's `disk(C)`/`row(C)` jitter one tier up: it
//! decorrelates which *nodes* co-host which clips without disturbing
//! the balance arithmetic.

use cms_core::{ClipId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The cluster placement map. Cheap to clone; all queries are O(r) or
/// better and allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    nodes: u32,
    replication: u32,
    clips: u64,
    /// Permutation position → node id.
    perm: Vec<u32>,
    /// Node id → permutation position (inverse of `perm`).
    inv: Vec<u32>,
}

impl Placement {
    /// Builds the placement map for `clips` cluster clips over `nodes`
    /// nodes with `replication`-way replication, shuffled by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `replication` is not in
    /// `1..=nodes` — [`crate::ClusterConfig::validate`] rejects such
    /// configurations before a `Placement` is ever built.
    #[must_use]
    pub fn new(nodes: u32, replication: u32, clips: u64, seed: u64) -> Self {
        assert!(nodes > 0, "placement needs at least one node");
        assert!(replication >= 1 && replication <= nodes, "replication must be in 1..=nodes");
        let mut perm: Vec<u32> = (0..nodes).collect();
        // Fisher–Yates with a seeded generator: deterministic for a given
        // (nodes, seed) pair, independent of replication and catalog.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x706c_6163_656d_656e);
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..(i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let mut inv = vec![0u32; nodes as usize];
        for (pos, &node) in perm.iter().enumerate() {
            inv[node as usize] = pos as u32;
        }
        Placement { nodes, replication, clips, perm, inv }
    }

    /// Number of nodes `N`.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Replication degree `r`.
    #[must_use]
    pub fn replication(&self) -> u32 {
        self.replication
    }

    /// Cluster catalog size `K`.
    #[must_use]
    pub fn clips(&self) -> u64 {
        self.clips
    }

    /// The node holding replica `j` of cluster clip `c`.
    #[must_use]
    pub fn replica(&self, clip: ClipId, j: u32) -> NodeId {
        debug_assert!(j < self.replication);
        let v = clip.raw() * u64::from(self.replication) + u64::from(j);
        NodeId(self.perm[(v % u64::from(self.nodes)) as usize])
    }

    /// Iterates the `r` replica nodes of `clip`, in replica order
    /// (distinct nodes whenever `r ≤ N`).
    pub fn replicas(&self, clip: ClipId) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.replication).map(move |j| self.replica(clip, j))
    }

    /// The node-local catalog index of `clip` on `node`, or `None` when
    /// that node holds no replica of it.
    #[must_use]
    pub fn local_id(&self, clip: ClipId, node: NodeId) -> Option<ClipId> {
        let pos = u64::from(*self.inv.get(node.idx())?);
        let n = u64::from(self.nodes);
        let r = u64::from(self.replication);
        for j in 0..r {
            let v = clip.raw() * r + j;
            if v % n == pos {
                return Some(ClipId(v / n));
            }
        }
        None
    }

    /// The cluster clip whose replica sits at node-local index `local`
    /// on `node`, or `None` when the slot is beyond the node's catalog.
    #[must_use]
    pub fn cluster_clip(&self, node: NodeId, local: ClipId) -> Option<ClipId> {
        let pos = u64::from(*self.inv.get(node.idx())?);
        let v = local.raw() * u64::from(self.nodes) + pos;
        let c = v / u64::from(self.replication);
        (c < self.clips).then_some(ClipId(c))
    }

    /// Number of clips stored on `node` — `⌈K·r/N⌉` or `⌊K·r/N⌋`,
    /// exactly balanced across the cluster.
    #[must_use]
    pub fn node_clips(&self, node: NodeId) -> u64 {
        let Some(&pos) = self.inv.get(node.idx()) else { return 0 };
        let total = self.clips * u64::from(self.replication);
        let pos = u64::from(pos);
        if total > pos {
            (total - pos - 1) / u64::from(self.nodes) + 1
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn replicas_are_distinct_and_in_range() {
        let p = Placement::new(8, 3, 40, 7);
        for c in 0..40 {
            let set: BTreeSet<NodeId> = p.replicas(ClipId(c)).collect();
            assert_eq!(set.len(), 3, "clip{c} replicas collide");
            assert!(set.iter().all(|n| n.raw() < 8));
        }
    }

    #[test]
    fn assignment_is_exactly_balanced() {
        let p = Placement::new(8, 3, 40, 7);
        let counts: Vec<u64> = (0..8).map(|n| p.node_clips(NodeId(n))).collect();
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 40 * 3, "every replica is assigned exactly once");
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "balance within one clip: {counts:?}");
    }

    #[test]
    fn local_ids_are_dense_and_invertible() {
        let p = Placement::new(5, 2, 17, 3);
        for node in 0..5u32 {
            let node = NodeId(node);
            let mut locals = Vec::new();
            for c in 0..17 {
                if let Some(local) = p.local_id(ClipId(c), node) {
                    // Round-trip back to the cluster clip.
                    assert_eq!(p.cluster_clip(node, local), Some(ClipId(c)));
                    locals.push(local.raw());
                }
            }
            locals.sort_unstable();
            let expect: Vec<u64> = (0..p.node_clips(node)).collect();
            assert_eq!(locals, expect, "{node} locals must be dense 0..count");
        }
    }

    #[test]
    fn local_id_is_none_off_replica() {
        let p = Placement::new(6, 2, 12, 11);
        for c in 0..12 {
            let clip = ClipId(c);
            let replicas: BTreeSet<NodeId> = p.replicas(clip).collect();
            for n in 0..6 {
                let node = NodeId(n);
                assert_eq!(p.local_id(clip, node).is_some(), replicas.contains(&node));
            }
        }
    }

    #[test]
    fn seed_changes_the_permutation_not_the_balance() {
        let a = Placement::new(16, 2, 64, 1);
        let b = Placement::new(16, 2, 64, 2);
        assert_ne!(a, b, "different seeds give different shuffles");
        assert_eq!(a, Placement::new(16, 2, 64, 1), "same seed replays");
        for n in 0..16 {
            assert_eq!(a.node_clips(NodeId(n)), b.node_clips(NodeId(n)));
        }
    }

    #[test]
    fn single_replica_and_full_replication_edge_cases() {
        let single = Placement::new(4, 1, 8, 0);
        for c in 0..8 {
            assert_eq!(single.replicas(ClipId(c)).count(), 1);
        }
        let full = Placement::new(4, 4, 8, 0);
        for c in 0..8 {
            let set: BTreeSet<NodeId> = full.replicas(ClipId(c)).collect();
            assert_eq!(set.len(), 4, "full replication hits every node");
            assert_eq!(full.node_clips(NodeId(0)), 8);
        }
    }
}
