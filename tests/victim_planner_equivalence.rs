//! Differential test for the shared Figure 4 victim planner.
//!
//! Simple picks victims by keying each resident once and selecting the
//! cheapest prefix (min-scan, then one sort of the tail once the prefix
//! outgrows the scan bound). DYNSimple merges the heads of its rank
//! index's `(retained stamps, size)` groups, and re-plans a prefix past
//! the same bound with Simple's keyed sort. The reference here is the
//! straightforward planner that sorts every resident by `(key, id)`, built
//! only from public state: `rank_key` / `byte_freq`, `resident_clips` and
//! `used`/`capacity`. Every request must produce the same admit decision
//! and the same `evicted()` sequence under both.
//!
//! Equi-sized repositories make keys tie often (equal sizes, equal oracle
//! frequencies, equal reference counts over equal windows), so the id
//! tie-break decides those victims. Pruned histories tie too: every
//! pruned resident keys 0. A repository where every clip has its own size
//! puts each resident in a group of its own.

use clipcache::core::policies::dyn_simple::{DynAdmission, DynSimpleCache, EvictionMode};
use clipcache::core::policies::simple::{SimpleAdmission, SimpleCache};
use clipcache::core::{AccessOutcome, ClipCache};
use clipcache::media::{
    paper, Bandwidth, ByteSize, ClipId, MediaType, Repository, RepositoryBuilder,
};
use clipcache::workload::{RequestGenerator, Timestamp, Trace};
use proptest::prelude::*;
use std::sync::Arc;

/// The sort-based Figure 4 planner: sort every resident but `incoming`
/// ascending by `(key, id)`, over-collect until `incoming` fits, then
/// (two-pass) evict descending by size, ties to the lower id, until it
/// fits.
fn reference_plan(
    cache: &dyn ClipCache,
    repo: &Repository,
    incoming: ClipId,
    key: &dyn Fn(ClipId) -> f64,
    two_pass: bool,
) -> Vec<ClipId> {
    let need = repo.size_of(incoming);
    let free = cache.capacity() - cache.used();
    let mut candidates: Vec<ClipId> = cache
        .resident_clips()
        .into_iter()
        .filter(|&c| c != incoming)
        .collect();
    candidates.sort_by(|&a, &b| {
        key(a)
            .partial_cmp(&key(b))
            .expect("keys are finite")
            .then_with(|| a.cmp(&b))
    });
    let mut victim_bytes = ByteSize::ZERO;
    let mut over_collected = 0;
    for &c in &candidates {
        if free + victim_bytes >= need {
            break;
        }
        victim_bytes += repo.size_of(c);
        over_collected += 1;
    }
    candidates.truncate(over_collected);
    if two_pass {
        candidates.sort_by(|&a, &b| {
            repo.size_of(b)
                .cmp(&repo.size_of(a))
                .then_with(|| a.cmp(&b))
        });
    }
    let mut freed = free;
    let mut plan = Vec::new();
    for &v in &candidates {
        if freed >= need {
            break;
        }
        freed += repo.size_of(v);
        plan.push(v);
    }
    plan
}

/// Replay `requests` through `cache`, asserting each outcome equals the
/// reference planner's. `key(cache, clip, now)` is the policy's public
/// victim key; `bypass` streams a clip worth no more than the best clip
/// it would displace; `between(cache, i, now)` runs before request `i`.
/// Returns the most evictions one request made.
fn assert_matches_reference<C: ClipCache>(
    cache: &mut C,
    repo: &Repository,
    requests: &[(ClipId, Timestamp)],
    two_pass: bool,
    bypass: bool,
    key: impl Fn(&C, ClipId, Timestamp) -> f64,
    mut between: impl FnMut(&mut C, usize, Timestamp),
) -> usize {
    let mut widest = 0;
    for (i, &(clip, now)) in requests.iter().enumerate() {
        between(cache, i, now);
        let was_resident = cache.contains(clip);
        let plan = (!was_resident && repo.size_of(clip) <= cache.capacity())
            .then(|| reference_plan(&*cache, repo, clip, &|c| key(cache, c, now), two_pass));
        let outcome = cache.access(clip, now);
        let expected = match plan {
            None if was_resident => AccessOutcome::Hit,
            None => AccessOutcome::Miss {
                admitted: false,
                evicted: vec![],
            },
            Some(plan) => {
                // Read after the access: DYNSimple records the reference
                // before it values the incoming clip.
                let incoming_value = key(cache, clip, now);
                let displaced_max = plan
                    .iter()
                    .map(|&v| key(cache, v, now))
                    .fold(f64::NEG_INFINITY, f64::max);
                if bypass && !plan.is_empty() && incoming_value <= displaced_max {
                    AccessOutcome::Miss {
                        admitted: false,
                        evicted: vec![],
                    }
                } else {
                    AccessOutcome::Miss {
                        admitted: true,
                        evicted: plan,
                    }
                }
            }
        };
        assert_eq!(
            outcome,
            expected,
            "{}: request {i} ({clip} at {now:?}) diverges from the sort-based planner",
            cache.name()
        );
        widest = widest.max(outcome.evicted().len());
    }
    widest
}

fn requests_for(repo: &Repository, theta: f64, count: u64, seed: u64) -> Vec<(ClipId, Timestamp)> {
    Trace::from_generator(RequestGenerator::new(repo.len(), theta, 0, count, seed))
        .iter()
        .map(|r| (r.clip, r.at))
        .collect()
}

/// No work between requests.
fn no_pruning<C>(_: &mut C, _: usize, _: Timestamp) {}

/// Every DYNSimple configuration: K ∈ {1, 2, 32}, two-pass and
/// single-pass eviction, always-admit and bypass. With `prune =
/// Some((every, horizon))`, histories older than `horizon` ticks are
/// pruned before every `every`-th request.
fn check_dynsimple(
    repo: &Arc<Repository>,
    capacity: ByteSize,
    requests: &[(ClipId, Timestamp)],
    prune: Option<(usize, u64)>,
) {
    for k in [1, 2, 32] {
        for eviction in [EvictionMode::TwoPass, EvictionMode::SinglePass] {
            for admission in [DynAdmission::Always, DynAdmission::Bypass] {
                let mut cache =
                    DynSimpleCache::with_admission(Arc::clone(repo), capacity, k, admission);
                cache.set_eviction_mode(eviction);
                assert_matches_reference(
                    &mut cache,
                    repo,
                    requests,
                    eviction == EvictionMode::TwoPass,
                    admission == DynAdmission::Bypass,
                    |c, clip, now| c.rank_key(clip, now),
                    |c, i, now| {
                        if let Some((every, horizon)) = prune {
                            if i > 0 && i % every == 0 {
                                c.prune_history(Timestamp(now.0.saturating_sub(horizon)));
                            }
                        }
                    },
                );
            }
        }
    }
}

/// `n` clips of pairwise distinct sizes, from 1 MB to about `n` MB in a
/// scrambled order: every resident sits in a rank-index group of its own.
fn distinct_sized_repository(n: usize) -> Repository {
    let mut b = RepositoryBuilder::new();
    for i in 0..n as u64 {
        let mb = 1 + (i * 37) % n as u64;
        b = b.push(
            MediaType::Video,
            ByteSize::mb(mb) + ByteSize(i),
            Bandwidth::mbps(4),
        );
    }
    b.build().unwrap()
}

/// `simple` and `simple-bypass` under the given oracle frequencies.
fn check_simple(
    repo: &Arc<Repository>,
    capacity: ByteSize,
    freqs: &[f64],
    requests: &[(ClipId, Timestamp)],
) {
    for admission in [SimpleAdmission::Always, SimpleAdmission::Bypass] {
        let mut cache = SimpleCache::new(Arc::clone(repo), capacity, freqs, admission);
        assert_matches_reference(
            &mut cache,
            repo,
            requests,
            false,
            admission == SimpleAdmission::Bypass,
            |c, clip, _| c.byte_freq(clip),
            no_pruning,
        );
    }
}

/// Oracle frequencies drawn from a few levels, so equal sizes tie.
fn tiered_freqs(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| ((i.wrapping_mul(seed | 1) >> 3) % 4) as f64 * 0.25)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn planners_agree_on_variable_sized_repositories(
        n in 8usize..96,
        ratio in 0.05f64..0.6,
        theta in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let repo = Arc::new(paper::variable_sized_repository_of(n));
        let capacity = repo.cache_capacity_for_ratio(ratio);
        let requests = requests_for(&repo, theta, 400, seed);
        check_dynsimple(&repo, capacity, &requests, None);
        check_simple(&repo, capacity, &tiered_freqs(n, seed), &requests);
    }

    #[test]
    fn planners_agree_on_equi_sized_repositories(
        n in 8usize..96,
        ratio in 0.05f64..0.6,
        theta in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let repo = Arc::new(paper::equi_sized_repository_of(n, ByteSize::mb(10)));
        let capacity = repo.cache_capacity_for_ratio(ratio);
        let requests = requests_for(&repo, theta, 400, seed);
        check_dynsimple(&repo, capacity, &requests, None);
        check_simple(&repo, capacity, &vec![1.0 / n as f64; n], &requests);
        check_simple(&repo, capacity, &tiered_freqs(n, seed), &requests);
    }

    #[test]
    fn planners_agree_on_distinct_sized_repositories(
        n in 8usize..96,
        ratio in 0.05f64..0.6,
        theta in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let repo = Arc::new(distinct_sized_repository(n));
        let capacity = repo.cache_capacity_for_ratio(ratio);
        let requests = requests_for(&repo, theta, 400, seed);
        check_dynsimple(&repo, capacity, &requests, None);
    }

    #[test]
    fn planners_agree_when_huge_windows_round_keys_together(
        n in 8usize..96,
        ratio in 0.05f64..0.6,
        theta in 0.0f64..0.9,
        seed in any::<u64>(),
        equi in any::<bool>(),
    ) {
        let repo = Arc::new(if equi {
            paper::equi_sized_repository_of(n, ByteSize::mb(10))
        } else {
            paper::variable_sized_repository_of(n)
        });
        let capacity = repo.cache_capacity_for_ratio(ratio);
        // The second half runs 2^56 ticks later. There a window of about
        // 2^56 ticks rounds to the same f64 as its 15 neighbours, so
        // residents from the first half with distinct oldest stamps tie
        // on key, and ids, not stamps, order them.
        let mut requests = requests_for(&repo, theta, 400, seed);
        for r in &mut requests[200..] {
            r.1 = Timestamp(r.1 .0 + (1 << 56));
        }
        check_dynsimple(&repo, capacity, &requests, None);
    }

    #[test]
    fn planners_agree_when_histories_are_pruned_between_requests(
        n in 8usize..96,
        ratio in 0.05f64..0.6,
        theta in 0.0f64..0.9,
        seed in any::<u64>(),
        every in 1usize..40,
        horizon in 1u64..60,
        equi in any::<bool>(),
    ) {
        let repo = Arc::new(if equi {
            paper::equi_sized_repository_of(n, ByteSize::mb(10))
        } else {
            paper::variable_sized_repository_of(n)
        });
        let capacity = repo.cache_capacity_for_ratio(ratio);
        let requests = requests_for(&repo, theta, 400, seed);
        check_dynsimple(&repo, capacity, &requests, Some((every, horizon)));
    }
}

/// A clip as large as the whole cache displaces all 24 small residents —
/// far past the planner's min-scan bound of 8 — so the sorted-tail
/// fallback chooses most of the victims: Simple's, and DYNSimple's
/// re-plan past its merge bound. With the histories pruned just before
/// the big clip arrives, most of the 24 tie at key 0 and go by id.
#[test]
fn large_admission_runs_the_sorted_tail_fallback() {
    let mut b = RepositoryBuilder::new();
    for i in 0..24u64 {
        b = b.push(
            MediaType::Audio,
            ByteSize::mb(1 + i % 3),
            Bandwidth::kbps(300),
        );
    }
    let small_bytes: ByteSize = (0..24u64).map(|i| ByteSize::mb(1 + i % 3)).sum();
    let repo = Arc::new(
        b.push(MediaType::Video, small_bytes, Bandwidth::mbps(4))
            .build()
            .unwrap(),
    );
    let big = ClipId::from_index(24);
    // Scrambled, repeated references give the small clips distinct rates;
    // the big clip then evicts them all, and the small clips evict it.
    let mut clips: Vec<ClipId> = (0..72u32)
        .map(|i| ClipId::from_index((i * 7 % 24) as usize))
        .collect();
    clips.push(big);
    clips.extend((0..24).map(ClipId::from_index));
    clips.push(big);
    let requests: Vec<(ClipId, Timestamp)> = clips
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, Timestamp(i as u64 + 1)))
        .collect();

    for k in [1, 2, 32] {
        for eviction in [EvictionMode::TwoPass, EvictionMode::SinglePass] {
            for prune in [false, true] {
                let mut cache = DynSimpleCache::new(Arc::clone(&repo), small_bytes, k);
                cache.set_eviction_mode(eviction);
                let widest = assert_matches_reference(
                    &mut cache,
                    &repo,
                    &requests,
                    eviction == EvictionMode::TwoPass,
                    false,
                    |c, clip, now| c.rank_key(clip, now),
                    |c, i, now| {
                        if prune && i == 72 {
                            assert!(c.prune_history(Timestamp(now.0 - 4)) >= 20);
                        }
                    },
                );
                assert_eq!(
                    widest, 24,
                    "K={k} {eviction:?} prune={prune}: the big clip must displace every small clip"
                );
            }
        }
    }
    let freqs: Vec<f64> = (0..25).map(|i| f64::from(i % 5) / 10.0).collect();
    let mut cache = SimpleCache::new(
        Arc::clone(&repo),
        small_bytes,
        &freqs,
        SimpleAdmission::Always,
    );
    let widest = assert_matches_reference(
        &mut cache,
        &repo,
        &requests,
        false,
        false,
        |c, clip, _| c.byte_freq(clip),
        no_pruning,
    );
    assert_eq!(
        widest, 24,
        "Simple: the big clip must displace every small clip"
    );
}
