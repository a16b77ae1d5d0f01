//! Property tests of the point-level sweep engine: submission order and
//! results must be invariant under the worker count.
//!
//! The plain `#[test]` below walks a deterministic grid; the
//! `proptest!` cases add arbitrary point counts and job counts on top
//! (the vendored `proptest` is a small real runner, see
//! `vendor/README.md`).

use clipcache_experiments::sweep::run_points;
use clipcache_workload::{RequestGenerator, Trace};
use proptest::prelude::*;

/// SplitMix64 — an arbitrary per-point computation whose output depends
/// only on the point, never on the executing thread.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn outputs(n: u64, jobs: usize) -> Vec<u64> {
    let points: Vec<u64> = (0..n).collect();
    run_points(&points, jobs, |i, &p| mix(p) ^ (i as u64))
}

#[test]
fn ordering_is_jobs_invariant_on_a_grid() {
    for n in [0u64, 1, 2, 7, 64, 257] {
        let serial = outputs(n, 1);
        assert_eq!(serial.len(), n as usize);
        for jobs in [2usize, 3, 4, 8, 33] {
            assert_eq!(serial, outputs(n, jobs), "n={n} jobs={jobs}");
        }
    }
}

/// Partition a seeded trace into shards, digest each shard's requests
/// under `jobs` workers, and fold. The digest must not depend on the
/// worker count — the property the sharded serving layer's loadgen
/// relies on when it replays per-shard sub-traces from client threads.
fn partitioned_digest(shards: usize, jobs: usize) -> Vec<u64> {
    let trace = Trace::from_generator(RequestGenerator::new(40, 0.27, 0, 400, 0x5EED));
    let parts = trace.partition_by(shards, |_, r| {
        (mix(r.clip.get() as u64) % shards as u64) as usize
    });
    run_points(&parts, jobs, |i, part| {
        part.iter().fold(i as u64, |acc, r| {
            mix(acc ^ mix(r.clip.get() as u64) ^ r.at.get())
        })
    })
}

#[test]
fn partitioned_replay_is_jobs_invariant_on_a_grid() {
    for shards in [1usize, 2, 4, 8] {
        let serial = partitioned_digest(shards, 1);
        for jobs in [2usize, 3, 8] {
            assert_eq!(
                serial,
                partitioned_digest(shards, jobs),
                "shards={shards} jobs={jobs}"
            );
        }
    }
}

proptest! {
    #[test]
    fn ordering_is_jobs_invariant(n in 0u64..200, jobs in 1usize..32) {
        prop_assert_eq!(outputs(n, 1), outputs(n, jobs));
    }

    #[test]
    fn every_index_is_visited_once(n in 1u64..200, jobs in 1usize..32) {
        let points: Vec<u64> = (0..n).collect();
        let indices = run_points(&points, jobs, |i, _| i);
        prop_assert_eq!(indices, (0..n as usize).collect::<Vec<_>>());
    }

    #[test]
    fn partitioned_replay_is_jobs_invariant(shards in 1usize..9, jobs in 1usize..16) {
        prop_assert_eq!(partitioned_digest(shards, 1), partitioned_digest(shards, jobs));
    }
}
