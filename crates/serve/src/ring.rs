//! Deterministic consistent-hash ring for the cluster tier.
//!
//! Placement must be a *pure function* of `(seed, membership, clip)` —
//! the same discipline shard selection follows (`shard::shard_of`) —
//! so every client and every node computes identical routing without a
//! coordination service, and a replayed trace routes identically at any
//! `--jobs` level and in any process. The ring therefore derives every
//! point from [`splitmix64`]: node `n`
//! contributes `vnodes` points at
//! `splitmix64(splitmix64(seed ^ RING_SALT) ^ (n << 32 | v))`, and a
//! clip hashes to `splitmix64(mixed_seed ^ clip)`, landing on the first
//! point clockwise.
//!
//! Vnodes exist because clip popularity is Zipf-like (PAPERS.md): with
//! one point per node, the arc lengths — and under a skewed trace, the
//! *request* shares — vary wildly. With the default
//! [`DEFAULT_VNODES`] points per node the per-node key share stays
//! within a small factor of `1/N` (pinned by `tests/ring_props.rs`).
//!
//! Replication walks the ring clockwise from the primary point
//! collecting *distinct* nodes: [`HashRing::owners`] returns the `R`
//! replicas in deterministic priority order. Membership is static (a
//! `--peers` list shared by every member); removing or adding one node
//! moves only the keys whose owner set involved that node — the
//! minimal-movement property the proptests pin.

use crate::shard::splitmix64;

/// Vnode count per node when the caller does not choose one. 64 points
/// keeps the balance factor under ~1.5 on Zipf traces (see
/// `tests/ring_props.rs`) while ring construction stays trivially cheap
/// for the single-digit node counts the cluster tier targets.
pub const DEFAULT_VNODES: usize = 64;

/// Salt folded into the ring seed so ring hashing can never collide
/// with shard selection or fault-plan hashing derived from the same
/// user seed.
const RING_SALT: u64 = 0xC1A5_7E12_0000_0008;

/// A deterministic consistent-hash ring over `nodes` members.
///
/// The ring is immutable: membership changes build a new ring (the
/// membership list is static configuration, not a gossip protocol).
/// Construction sorts the vnode points once; lookups are a binary
/// search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(point, node)` sorted by point; ties broken by node index so
    /// construction order can never leak into placement.
    points: Vec<(u64, usize)>,
    nodes: usize,
    vnodes: usize,
    seed: u64,
}

impl HashRing {
    /// A ring over `nodes` members with [`DEFAULT_VNODES`] points each.
    ///
    /// # Panics
    /// If `nodes` is zero.
    pub fn new(seed: u64, nodes: usize) -> Self {
        HashRing::with_vnodes(seed, nodes, DEFAULT_VNODES)
    }

    /// A ring with an explicit vnode count per node.
    ///
    /// # Panics
    /// If `nodes` or `vnodes` is zero.
    pub fn with_vnodes(seed: u64, nodes: usize, vnodes: usize) -> Self {
        assert!(nodes > 0, "a ring needs at least one node");
        assert!(vnodes > 0, "a ring needs at least one vnode per node");
        let mixed = splitmix64(seed ^ RING_SALT);
        let mut points = Vec::with_capacity(nodes * vnodes);
        for node in 0..nodes {
            for v in 0..vnodes {
                let point = splitmix64(mixed ^ (((node as u64) << 32) | v as u64));
                points.push((point, node));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            nodes,
            vnodes,
            seed,
        }
    }

    /// The member count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Vnode points per node.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The seed the ring was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Where `key` lands on the ring (index into `points`).
    fn point_of(&self, key: u64) -> usize {
        let h = splitmix64(splitmix64(self.seed ^ RING_SALT) ^ key);
        // First point at or after the hash, wrapping at the top.
        match self.points.binary_search(&(h, usize::MAX)) {
            Ok(i) | Err(i) => i % self.points.len(),
        }
    }

    /// The primary owner of `key`.
    pub fn node_of(&self, key: u64) -> usize {
        self.points[self.point_of(key)].1
    }

    /// The first `replicas` *distinct* nodes clockwise from `key`'s
    /// point — the replica set, primary first. `replicas` is clamped to
    /// the member count, so asking for more replicas than nodes returns
    /// every node (in ring order).
    pub fn owners(&self, key: u64, replicas: usize) -> Vec<usize> {
        let mut owners = Vec::with_capacity(replicas.clamp(1, self.nodes));
        self.owners_into(key, replicas, &mut owners);
        owners
    }

    /// [`HashRing::owners`] into a caller's buffer, which is cleared
    /// first: a caller that keeps one buffer looks owners up without
    /// allocating.
    pub fn owners_into(&self, key: u64, replicas: usize, owners: &mut Vec<usize>) {
        let want = replicas.clamp(1, self.nodes);
        let start = self.point_of(key);
        owners.clear();
        for i in 0..self.points.len() {
            let node = self.points[(start + i) % self.points.len()].1;
            if !owners.contains(&node) {
                owners.push(node);
                if owners.len() == want {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_is_deterministic_and_order_free() {
        let a = HashRing::new(7, 5);
        let b = HashRing::new(7, 5);
        assert_eq!(a, b);
        // A different seed is a different ring.
        assert_ne!(a, HashRing::new(8, 5));
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = HashRing::new(0x5EED_2007, 1);
        for key in 0..1_000u64 {
            assert_eq!(ring.node_of(key), 0);
            assert_eq!(ring.owners(key, 1), vec![0]);
            // Over-asking is clamped, never panics.
            assert_eq!(ring.owners(key, 3), vec![0]);
        }
    }

    #[test]
    fn owners_are_distinct_primary_first() {
        let ring = HashRing::new(42, 5);
        for key in 0..2_000u64 {
            let owners = ring.owners(key, 3);
            assert_eq!(owners.len(), 3);
            assert_eq!(owners[0], ring.node_of(key));
            let mut dedup = owners.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "owners must be distinct: {owners:?}");
        }
    }

    #[test]
    fn owners_into_a_reused_buffer_equals_owners() {
        let ring = HashRing::new(42, 5);
        let mut buf = vec![9, 9, 9, 9, 9, 9];
        for key in 0..2_000u64 {
            for replicas in [1, 2, 3, 7] {
                ring.owners_into(key, replicas, &mut buf);
                assert_eq!(buf, ring.owners(key, replicas));
            }
        }
    }

    #[test]
    fn full_replication_reaches_every_node() {
        let ring = HashRing::new(9, 4);
        for key in 0..64u64 {
            let mut owners = ring.owners(key, 4);
            owners.sort_unstable();
            assert_eq!(owners, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn every_node_owns_some_keys() {
        let ring = HashRing::new(0x5EED_2007, 8);
        let mut counts = vec![0u64; 8];
        for key in 0..10_000u64 {
            counts[ring.node_of(key)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "some node owns nothing: {counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = HashRing::new(0, 0);
    }
}
