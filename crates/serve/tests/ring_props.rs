//! Property tests for the consistent-hash ring: the three guarantees
//! the cluster tier leans on.
//!
//! 1. **Balance** — under the paper's Zipf trace the per-node request
//!    share stays within a bounded factor of `1/N` (vnodes smooth the
//!    arcs even though clip popularity is skewed).
//! 2. **Minimal movement** — adding one node reassigns keys *only onto
//!    the new node* (an exact structural property, not a statistical
//!    one), moves roughly `1/(N+1)` of them, and removal mirrors it.
//!    Replica sets grow only by the new node, never trading one old
//!    owner for another.
//! 3. **Determinism** — placement is a pure function of
//!    `(seed, membership, clip)`: byte-identical across threads (the
//!    `--jobs` sweep) and across processes (pinned by a golden hash —
//!    if this constant moves, every deployed client and server would
//!    disagree with the old ring, so bump the protocol version).
//!
//! The plain `#[test]`s walk a deterministic grid; the `proptest!`
//! cases add random inputs on top (the vendored `proptest` is a small
//! real runner, see `vendor/README.md`).

use clipcache_serve::{HashRing, DEFAULT_VNODES};
use clipcache_workload::RequestGenerator;
use proptest::prelude::*;

/// The paper's catalog size for workload-shaped tests.
const CLIPS: usize = 576;
/// The paper's Zipf parameter.
const THETA: f64 = 0.27;

/// Per-node share of a Zipf trace, normalised so 1.0 = exactly `1/N`.
fn share_factors(ring: &HashRing, seed: u64, requests: u64) -> Vec<f64> {
    let mut counts = vec![0u64; ring.nodes()];
    for req in RequestGenerator::new(CLIPS, THETA, 0, requests, seed) {
        counts[ring.node_of(u64::from(req.clip.get()))] += 1;
    }
    let total: u64 = counts.iter().sum();
    counts
        .iter()
        .map(|&c| c as f64 / total as f64 * ring.nodes() as f64)
        .collect()
}

#[test]
fn zipf_request_share_stays_within_bounded_factor_of_uniform() {
    // Calibrated over 35 (seed, N) configurations: worst observed
    // factor 1.54 high / 0.57 low at 64 vnodes. The pinned bounds
    // leave margin without letting one node absorb double its share.
    for &seed in &[0x5EED_2007u64, 42, 0xDEAD_BEEF] {
        for nodes in 2..=8 {
            let ring = HashRing::new(seed, nodes);
            for (node, factor) in share_factors(&ring, seed, 20_000).iter().enumerate() {
                assert!(
                    (0.45..=1.75).contains(factor),
                    "seed={seed:#x} nodes={nodes}: node {node} share factor {factor:.3} \
                     outside [0.45, 1.75]"
                );
            }
        }
    }
}

#[test]
fn one_vnode_per_node_is_visibly_worse_than_the_default() {
    // The reason DEFAULT_VNODES exists: with a single point per node
    // the arcs are wildly uneven. Demonstrate the smoothing is real —
    // the worst imbalance over the grid must shrink with vnodes.
    let worst = |vnodes: usize| -> f64 {
        let mut worst = 0.0f64;
        for &seed in &[0x5EED_2007u64, 42, 0xDEAD_BEEF] {
            for nodes in 2..=8 {
                let ring = HashRing::with_vnodes(seed, nodes, vnodes);
                for factor in share_factors(&ring, seed, 5_000) {
                    worst = worst.max((factor - 1.0).abs());
                }
            }
        }
        worst
    };
    assert!(
        worst(DEFAULT_VNODES) < worst(1),
        "64 vnodes should smooth the per-node share relative to 1 vnode"
    );
}

/// Exact minimal-movement property of growing membership by one: every
/// key either keeps its owner or moves to the new node (never between
/// two old nodes), and the moved fraction is near `1/(N+1)`.
fn check_add_one_node(seed: u64, nodes: usize, keys: std::ops::RangeInclusive<u64>) {
    let before = HashRing::new(seed, nodes);
    let after = HashRing::new(seed, nodes + 1);
    let total = keys.clone().count() as f64;
    let mut moved = 0u64;
    for key in keys {
        let old = before.node_of(key);
        let new = after.node_of(key);
        if new != old {
            assert_eq!(
                new, nodes,
                "seed={seed:#x} nodes={nodes}: key {key} moved {old} -> {new}, \
                 but only the new node may gain keys"
            );
            moved += 1;
        }
    }
    let fraction = moved as f64 / total;
    let fair = 1.0 / (nodes + 1) as f64;
    assert!(
        fraction > 0.0 && fraction < 2.5 * fair,
        "seed={seed:#x} nodes={nodes}: moved fraction {fraction:.4} vs fair share {fair:.4}"
    );
}

#[test]
fn adding_one_node_moves_only_keys_onto_the_new_node() {
    for &seed in &[0x5EED_2007u64, 42, 0xDEAD_BEEF] {
        for nodes in 1..=7 {
            check_add_one_node(seed, nodes, 1..=4096);
        }
    }
}

#[test]
fn removing_the_last_node_reassigns_only_its_keys() {
    // Node indices are stable under growth, so dropping node N from an
    // (N+1)-ring *is* the N-ring: a key moves iff the removed node
    // owned it, and it lands on a surviving node.
    for &seed in &[0x5EED_2007u64, 42] {
        for nodes in 1..=7 {
            let before = HashRing::new(seed, nodes + 1);
            let after = HashRing::new(seed, nodes);
            for key in 1..=4096u64 {
                let old = before.node_of(key);
                let new = after.node_of(key);
                if old != new {
                    assert_eq!(old, nodes, "only the removed node's keys may move");
                }
                assert!(new < nodes, "keys must land on surviving members");
            }
        }
    }
}

#[test]
fn replica_sets_grow_only_by_the_new_node() {
    // owners() collects distinct nodes clockwise, and growth only
    // inserts the new node's points into that walk — so the new
    // replica set is a subset of the old one plus the new node. A
    // rebalance therefore copies data *to the joiner only*; no
    // old-node-to-old-node shuffle exists to schedule.
    for &seed in &[0x5EED_2007u64, 42] {
        for nodes in 2..=6 {
            let before = HashRing::new(seed, nodes);
            let after = HashRing::new(seed, nodes + 1);
            for key in 1..=2048u64 {
                let old = before.owners(key, 2);
                for owner in after.owners(key, 2) {
                    assert!(
                        owner == nodes || old.contains(&owner),
                        "seed={seed:#x} nodes={nodes} key={key}: replica {owner} is \
                         neither an old owner {old:?} nor the new node"
                    );
                }
            }
        }
    }
}

/// The order-sensitive fold the golden hash uses. Not a general-purpose
/// hash — just enough mixing that any single reassignment anywhere in
/// the walk changes the digest.
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(27)
}

fn routing_digest(seed: u64, nodes: usize, replicas: usize) -> u64 {
    let ring = HashRing::new(seed, nodes);
    let mut h = 0u64;
    for key in 1..=4096u64 {
        for owner in ring.owners(key, replicas) {
            h = mix(h, owner as u64);
        }
    }
    h
}

#[test]
fn routing_matches_the_recorded_golden_digest() {
    // Pinned from the first implementation. A change here is a wire
    // break: every client and server must agree on placement, so a new
    // digest requires a PROTOCOL_VERSION bump and a cluster-wide
    // redeploy, not a test update.
    assert_eq!(routing_digest(0x5EED_2007, 3, 2), 0x6cc3_c523_972b_a0aa);
}

#[test]
fn routing_is_byte_identical_across_threads() {
    // The `--jobs` invariance half of determinism: the ring owns no
    // interior mutability, so concurrent computation of the same
    // placement must agree exactly with the serial walk.
    let serial = routing_digest(0x5EED_2007, 5, 3);
    let digests: Vec<u64> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| scope.spawn(|| routing_digest(0x5EED_2007, 5, 3)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("routing thread panicked"))
            .collect()
    });
    for digest in digests {
        assert_eq!(digest, serial, "parallel routing diverged from serial");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_balance_is_bounded(seed in any::<u64>(), nodes in 2usize..9) {
        // Looser than the calibrated grid — arbitrary seeds explore
        // rings the grid never sees, but a node still may not absorb
        // more than ~2.5x or starve below ~a quarter of its share.
        let ring = HashRing::new(seed, nodes);
        for factor in share_factors(&ring, seed, 10_000) {
            prop_assert!(
                (0.25..=2.5).contains(&factor),
                "share factor {factor:.3} outside [0.25, 2.5]"
            );
        }
    }

    #[test]
    fn prop_growth_moves_keys_only_onto_the_joiner(seed in any::<u64>(), nodes in 1usize..8) {
        check_add_one_node(seed, nodes, 1..=2048);
    }

    #[test]
    fn prop_owner_sets_are_distinct_and_stable(
        seed in any::<u64>(),
        nodes in 1usize..9,
        key in any::<u64>(),
        replicas in 1usize..5,
    ) {
        let ring = HashRing::new(seed, nodes);
        let owners = ring.owners(key, replicas);
        prop_assert_eq!(owners.len(), replicas.min(nodes));
        prop_assert_eq!(owners[0], ring.node_of(key));
        let mut dedup = owners.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), owners.len());
        // Same (seed, membership, clip) on a rebuilt ring: identical.
        prop_assert_eq!(HashRing::new(seed, nodes).owners(key, replicas), owners);
    }
}
