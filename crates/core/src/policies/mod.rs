//! Cache-policy implementations.
//!
//! Each submodule implements one technique from the paper (or a baseline)
//! as a [`ClipCache`](crate::cache::ClipCache). The shared miss-handling
//! skeleton lives in `admit_with_evictions`: policies supply a victim chooser
//! and the skeleton guarantees the capacity invariant.
//!
//! The paper's footnote 2 taxonomizes greedy techniques as recency-,
//! frequency-, size-, function-based, or randomized. Where each
//! implementation sits, what signal drives its victim choice, and which
//! [`victim-index backend`](crate::victim_index) it supports — *scan+heap*
//! means the score is **access-local** (a resident's score changes only
//! when that clip is accessed, so a heap stays valid between accesses);
//! *scan only* means the score is **time-varying** (it drifts with the
//! clock or with other clips' accesses, so every eviction must re-rank):
//!
//! | Policy | Taxonomy | Victim signal | History kept off-cache? | Victim index backend |
//! |---|---|---|---|---|
//! | `Random` | randomized | uniform | no | scan+heap |
//! | `LRU` / `MRU` / `FIFO` | recency | last reference / admission | no | own recency list (both spellings; O(1) victim) |
//! | `LFU` | frequency | lifetime count | count survives eviction | scan+heap |
//! | `LFU-DA` | frequency + aging | `L + count` | no | scan+heap |
//! | `SIZE` | size | largest first | no | scan+heap |
//! | `LRU-K` (± CRP) | recency | K-th-last reference | K timestamps | scan+heap |
//! | **`LRU-SK`** | recency + size | `d_K · size` | K timestamps | scan only (`d_K` ages with time) |
//! | `GreedyDual` | function | `L + cost/size` | no | scan+heap (naive mode scan only) |
//! | `GreedyDual-Freq` | function + frequency | `L + nref/size` | no | scan+heap |
//! | **`IGD`** | function + aging | `L + nref/(d₁·size)` | no | scan only (`d₁` ages with time) |
//! | `GDS-Popularity` | function (byte-hit) | `L + f̂·cost` | count survives | scan+heap |
//! | `Simple` (± bypass) | off-line | oracle `f/size` | oracle | scan only (batch repack; cheapest prefix) |
//! | **`DYNSimple`** (± bypass) | frequency + size | estimated `f̂/size` | K timestamps | own rank index (rates age with time, but not their order within a `(stamps, size)` group) |
//! | `BlockLruK` | recency over blocks | block LRU-K | K timestamps | scan only (partial evictions) |
//! | `Belady` | clairvoyant | next reference | full future | scan only (trace-driven) |
//!
//! Bold rows are the paper's contributions.
//!
//! Simple and DYNSimple share Figure 4's shape. Simple keys each resident
//! once on a miss and takes the cheapest prefix that frees enough room by
//! min-scan (sorting the remaining candidates once only when a miss
//! displaces many residents), so a typical miss costs O(residents + n/64):
//! the walk visits the resident set, not every clip slot of the
//! repository. DYNSimple keeps its residents in a rank index grouped by
//! retained-stamp count and size, and a miss keys only the head of each
//! non-empty group (see [`dyn_simple`]); a prefix past the min-scan bound
//! falls back to Simple's keyed sort.

pub mod belady;
pub mod block_lru_k;
pub mod dyn_simple;
pub mod gd_freq;
pub mod gds_pop;
pub mod greedy_dual;
pub mod igd;
pub mod lfu;
pub mod lfu_da;
pub mod lru;
pub mod lru_k;
pub mod lru_sk;
pub mod random;
pub mod simple;
pub mod size;
mod victim_plan;

use crate::cache::{AccessEvent, EvictionSink};
use crate::space::CacheSpace;
use crate::victim_index::VictimIndex;
use clipcache_media::{ByteSize, ClipId};

/// A policy's victim order, as the shared admit/complete skeletons see it.
///
/// `peek` must return the current victim **without** dequeuing it — on a
/// chunked repository a victim may give up only part of its tail, so a
/// partially trimmed victim must stay ranked for the next miss.
/// `on_evict` fires only when a victim becomes fully absent and must drop
/// the policy's victim-index entry (and any per-clip metadata that dies
/// with eviction).
pub(crate) trait VictimSource {
    /// The clip the policy would evict next (must be resident).
    fn peek(&mut self, space: &CacheSpace) -> ClipId;
    /// A victim became fully absent.
    fn on_evict(&mut self, clip: ClipId);
}

/// [`VictimSource`] over a [`VictimIndex`]: peek the minimum, deregister
/// on full eviction. Decision-identical to the historical pop-the-minimum
/// contract (see [`VictimIndex::peek_min`]).
pub(crate) struct IndexVictims<'a, P: PartialOrd + Copy>(pub &'a mut VictimIndex<P>);

impl<P: PartialOrd + Copy> VictimSource for IndexVictims<'_, P> {
    fn peek(&mut self, _space: &CacheSpace) -> ClipId {
        self.0.peek_min().0
    }

    fn on_evict(&mut self, clip: ClipId) {
        self.0.remove(clip);
    }
}

/// [`VictimSource`] for scan-ranked policies with no index to maintain:
/// the closure re-ranks residents on every query.
pub(crate) struct ScanVictims<F: FnMut(&CacheSpace) -> ClipId>(pub F);

impl<F: FnMut(&CacheSpace) -> ClipId> VictimSource for ScanVictims<F> {
    fn peek(&mut self, space: &CacheSpace) -> ClipId {
        (self.0)(space)
    }

    fn on_evict(&mut self, _clip: ClipId) {}
}

/// The shared miss path: evict victims chosen by `source` until
/// `incoming` fits, then materialize it.
///
/// Victims are reclaimed **tail-inward**: each victim sheds the shortest
/// run of tail chunks that covers the remaining deficit, in one step
/// ([`CacheSpace::trim_tail`]), so on a chunked repository the last
/// victim may survive as a resident prefix instead of leaving entirely.
/// On an unchunked repository every clip is one chunk and this degenerates
/// to exactly the historical whole-clip eviction loop.
///
/// Evicted ids (full departures only) stream into `sink` in eviction
/// order, so the path allocates nothing itself.
///
/// Returns the event (`admitted = false` iff the clip can never fit).
///
/// # Panics
/// If `source` peeks a non-resident clip (a policy bug).
pub(crate) fn admit_with_evictions(
    space: &mut CacheSpace,
    incoming: ClipId,
    source: &mut impl VictimSource,
    sink: &mut dyn EvictionSink,
) -> AccessEvent {
    if !space.can_ever_fit(incoming) {
        // Larger than the entire cache: stream without caching.
        return AccessEvent::Miss { admitted: false };
    }
    let size = space.size_of(incoming);
    while size > space.free() {
        trim_victim(space, size - space.free(), source, sink);
    }
    space.insert(incoming);
    AccessEvent::Miss { admitted: true }
}

/// The shared prefix-completion path: evict until `clip`'s missing tail
/// fits, then extend its partial prefix to full residency.
///
/// Same `source` contract as [`admit_with_evictions`]. The caller must
/// ensure `source` never peeks `clip` itself (policies deregister the
/// clip from their victim order first). Termination is guaranteed:
/// `clip` was admitted once, so its full size fits the capacity, and its
/// resident prefix is never reclaimed here.
pub(crate) fn complete_with_evictions(
    space: &mut CacheSpace,
    clip: ClipId,
    source: &mut impl VictimSource,
    sink: &mut dyn EvictionSink,
) {
    let tail = space.tail_bytes(clip);
    while tail > space.free() {
        let victim = trim_victim(space, tail - space.free(), source, sink);
        debug_assert_ne!(
            victim, clip,
            "policy chose the completing clip as its own victim"
        );
    }
    space.complete(clip);
}

/// Trim `source`'s current victim by `deficit` bytes
/// ([`CacheSpace::trim_tail`]), reporting the eviction if it left
/// entirely. Returns the victim.
fn trim_victim(
    space: &mut CacheSpace,
    deficit: ByteSize,
    source: &mut impl VictimSource,
    sink: &mut dyn EvictionSink,
) -> ClipId {
    let victim = source.peek(space);
    if space.trim_tail(victim, deficit) {
        source.on_evict(victim);
        sink.record_eviction(victim);
    }
    victim
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Helpers shared by policy unit tests.

    use crate::cache::ClipCache;
    use clipcache_media::{paper, Bandwidth, ByteSize, MediaType, Repository, RepositoryBuilder};
    use clipcache_workload::{Request, Timestamp};
    use std::sync::Arc;

    /// A tiny repository of five clips with sizes 10, 20, 30, 40, 50 MB.
    pub fn tiny_repo() -> Arc<Repository> {
        let mut b = RepositoryBuilder::new();
        for size_mb in [10u64, 20, 30, 40, 50] {
            b = b.push(MediaType::Video, ByteSize::mb(size_mb), Bandwidth::mbps(4));
        }
        Arc::new(b.build().unwrap())
    }

    /// A repository of `n` equal 10 MB clips.
    pub fn equi_repo(n: usize) -> Arc<Repository> {
        Arc::new(paper::equi_sized_repository_of(n, ByteSize::mb(10)))
    }

    /// Drive a cache with clip ids, assigning timestamps 1, 2, …; returns
    /// the number of hits.
    pub fn drive(cache: &mut dyn ClipCache, clips: &[u32]) -> usize {
        let mut hits = 0;
        for (i, &c) in clips.iter().enumerate() {
            let out = cache.access(clipcache_media::ClipId::new(c), Timestamp(i as u64 + 1));
            if out.is_hit() {
                hits += 1;
            }
        }
        hits
    }

    /// Drive a cache with full requests; returns hits.
    pub fn drive_requests(cache: &mut dyn ClipCache, reqs: &[Request]) -> usize {
        reqs.iter()
            .filter(|r| cache.access(r.clip, r.at).is_hit())
            .count()
    }

    /// Replay `clips` against two caches and assert every access outcome
    /// (including eviction order) and the final residency agree — the
    /// backend-equivalence harness used by the per-policy scan-vs-heap
    /// tests.
    pub fn assert_equivalent_on(a: &mut dyn ClipCache, b: &mut dyn ClipCache, clips: &[u32]) {
        for (i, &c) in clips.iter().enumerate() {
            let at = Timestamp(i as u64 + 1);
            let clip = clipcache_media::ClipId::new(c);
            let oa = a.access(clip, at);
            let ob = b.access(clip, at);
            assert_eq!(
                oa,
                ob,
                "{} vs {} diverge at request {i} ({clip})",
                a.name(),
                b.name()
            );
        }
        assert_eq!(a.resident_clips(), b.resident_clips());
        assert_eq!(a.used(), b.used());
    }

    /// Assert the capacity invariant and residency/used consistency.
    pub fn assert_invariants(cache: &dyn ClipCache, repo: &Repository) {
        assert!(
            cache.used() <= cache.capacity(),
            "{}: used {} > capacity {}",
            cache.name(),
            cache.used(),
            cache.capacity()
        );
        let full: ByteSize = cache
            .resident_clips()
            .iter()
            .map(|&c| repo.size_of(c))
            .sum();
        let partial: ByteSize = cache
            .partial_clips()
            .iter()
            .map(|&(c, p)| repo.prefix_bytes(c, p))
            .sum();
        assert_eq!(
            full + partial,
            cache.used(),
            "{}: resident sizes disagree with used()",
            cache.name()
        );
        for (c, p) in cache.partial_clips() {
            assert!(
                p > 0 && p < repo.chunks_of(c),
                "{}: {c} reported partial with out-of-range prefix {p}",
                cache.name()
            );
        }
    }
}
