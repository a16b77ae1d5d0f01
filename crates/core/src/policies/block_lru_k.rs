//! The naive block-partitioned LRU-K of the paper's footnote 3.
//!
//! "Partition both the cache and each object into equi-sized blocks and use
//! LRU-K to manage the cached blocks." A clip reference touches every one
//! of its blocks (they share timestamps); the request is a hit only when
//! *all* blocks are resident. Each clip occupies `ceil(size/block)` whole
//! blocks, so a block larger than a clip wastes cache space — the trade-off
//! the footnote calls out: big blocks waste space, small blocks multiply
//! the bookkeeping.
//!
//! Because all of a clip's blocks carry identical LRU-K keys, victim
//! selection works clip-at-a-time: pick the resident clip with the oldest
//! K-th reference and peel blocks off it until enough block slots are free
//! (partial evictions are possible and leave the donor clip un-hittable).
//! Partial evictions mutate a victim's standing without an access to it,
//! so BlockLRU-K stays on the scan victim-index backend (see the taxonomy
//! in [`crate::policies`]).

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::history::ReferenceHistory;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::Timestamp;
use std::sync::Arc;

/// Block-partitioned LRU-K.
#[derive(Debug, Clone)]
pub struct BlockLruKCache {
    repo: Arc<Repository>,
    history: ReferenceHistory,
    block_size: ByteSize,
    /// Total block slots in the cache.
    capacity_blocks: u64,
    /// Resident block count per clip.
    resident_blocks: Vec<u64>,
    used_blocks: u64,
}

impl BlockLruKCache {
    /// Create a block-partitioned LRU-K cache.
    ///
    /// # Panics
    /// If `k == 0` or `block_size` is zero.
    pub fn new(repo: Arc<Repository>, capacity: ByteSize, block_size: ByteSize, k: usize) -> Self {
        assert!(block_size > ByteSize::ZERO, "block size must be positive");
        let n = repo.len();
        BlockLruKCache {
            history: ReferenceHistory::new(n, k),
            block_size,
            capacity_blocks: capacity.as_u64() / block_size.as_u64(),
            resident_blocks: vec![0; n],
            used_blocks: 0,
            repo,
        }
    }

    /// Blocks needed to hold `clip` entirely.
    pub fn blocks_of(&self, clip: ClipId) -> u64 {
        let size = self.repo.size_of(clip).as_u64();
        size.div_ceil(self.block_size.as_u64())
    }

    /// The configured block size.
    pub fn block_size(&self) -> ByteSize {
        self.block_size
    }

    fn free_blocks(&self) -> u64 {
        self.capacity_blocks - self.used_blocks
    }

    /// The LRU-K victim among clips holding resident blocks.
    fn victim(&self, exclude: ClipId) -> Option<ClipId> {
        self.resident_blocks
            .iter()
            .enumerate()
            .filter(|&(i, &blocks)| blocks > 0 && ClipId::from_index(i) != exclude)
            .map(|(i, _)| ClipId::from_index(i))
            .min_by_key(|&c| {
                let kth = self.history.kth_last(c).unwrap_or(Timestamp::ZERO);
                let last = self.history.last(c).unwrap_or(Timestamp::ZERO);
                (kth, last, c)
            })
    }
}

impl ClipCache for BlockLruKCache {
    fn name(&self) -> String {
        format!("BlockLRU-{}(block={})", self.history.k(), self.block_size)
    }

    fn capacity(&self) -> ByteSize {
        // The usable capacity is whole blocks.
        ByteSize::bytes(self.capacity_blocks * self.block_size.as_u64())
    }

    fn used(&self) -> ByteSize {
        ByteSize::bytes(self.used_blocks * self.block_size.as_u64())
    }

    fn contains(&self, clip: ClipId) -> bool {
        self.resident_blocks[clip.index()] == self.blocks_of(clip)
    }

    fn resident_clips(&self) -> Vec<ClipId> {
        self.resident_blocks
            .iter()
            .enumerate()
            .filter(|&(i, &blocks)| blocks > 0 && blocks == self.blocks_of(ClipId::from_index(i)))
            .map(|(i, _)| ClipId::from_index(i))
            .collect()
    }

    fn access_into(
        &mut self,
        clip: ClipId,
        now: Timestamp,
        evictions: &mut dyn EvictionSink,
    ) -> AccessEvent {
        self.history.record(clip, now);
        if self.contains(clip) {
            return AccessEvent::Hit;
        }
        let need = self.blocks_of(clip);
        if need > self.capacity_blocks {
            return AccessEvent::Miss { admitted: false };
        }
        let have = self.resident_blocks[clip.index()];
        let mut missing = need - have;
        while self.free_blocks() < missing {
            let victim = self
                .victim(clip)
                .expect("eviction requested with no block donors");
            let take = (missing - self.free_blocks()).min(self.resident_blocks[victim.index()]);
            self.resident_blocks[victim.index()] -= take;
            self.used_blocks -= take;
            if self.resident_blocks[victim.index()] == 0 {
                evictions.record_eviction(victim);
            } else {
                // Partially evicted: no longer hittable, but blocks remain.
            }
            // A partially-peeled victim has the same LRU-K key; peel it to
            // zero before moving on (the min_by_key would re-select it).
            missing = need - self.resident_blocks[clip.index()];
        }
        self.resident_blocks[clip.index()] = need;
        self.used_blocks += missing;
        AccessEvent::Miss { admitted: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::AccessOutcome;
    use clipcache_media::{Bandwidth, MediaType, RepositoryBuilder};

    /// Clips of 25, 10, 30 MB → with 10 MB blocks: 3, 1, 3 blocks.
    fn repo() -> Arc<Repository> {
        let b = RepositoryBuilder::new()
            .push(MediaType::Video, ByteSize::mb(25), Bandwidth::mbps(4))
            .push(MediaType::Audio, ByteSize::mb(10), Bandwidth::kbps(300))
            .push(MediaType::Video, ByteSize::mb(30), Bandwidth::mbps(4));
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn block_rounding_wastes_space() {
        let c = BlockLruKCache::new(repo(), ByteSize::mb(100), ByteSize::mb(10), 2);
        assert_eq!(c.blocks_of(ClipId::new(1)), 3); // 25 MB → 3 blocks
        assert_eq!(c.blocks_of(ClipId::new(2)), 1);
        assert_eq!(c.blocks_of(ClipId::new(3)), 3);
    }

    #[test]
    fn hit_requires_all_blocks() {
        let mut c = BlockLruKCache::new(repo(), ByteSize::mb(100), ByteSize::mb(10), 2);
        assert!(!c.access(ClipId::new(1), Timestamp(1)).is_hit());
        assert!(c.contains(ClipId::new(1)));
        assert!(c.access(ClipId::new(1), Timestamp(2)).is_hit());
        // 3 blocks in use (5 MB of the third is padding).
        assert_eq!(c.used(), ByteSize::mb(30));
    }

    #[test]
    fn partial_eviction_breaks_hits() {
        // 40 MB cache = 4 blocks. Clip 1 (3 blocks) + clip 2 (1 block)
        // fill it; clip 3 (3 blocks) must peel blocks from a victim.
        let mut c = BlockLruKCache::new(repo(), ByteSize::mb(40), ByteSize::mb(10), 2);
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2));
        assert_eq!(c.used(), ByteSize::mb(40));
        let out = c.access(ClipId::new(3), Timestamp(3));
        assert!(matches!(out, AccessOutcome::Miss { admitted: true, .. }));
        assert!(c.contains(ClipId::new(3)));
        // Clip 1 lost its blocks (oldest K-th ref) — fully evicted here.
        assert!(!c.contains(ClipId::new(1)));
        assert!(c.used() <= c.capacity());
    }

    #[test]
    fn capacity_rounds_down_to_blocks() {
        let c = BlockLruKCache::new(repo(), ByteSize::mb(35), ByteSize::mb(10), 2);
        assert_eq!(c.capacity(), ByteSize::mb(30)); // 3 usable blocks
    }

    #[test]
    fn oversized_clip_not_admitted() {
        let mut c = BlockLruKCache::new(repo(), ByteSize::mb(20), ByteSize::mb(10), 2);
        let out = c.access(ClipId::new(3), Timestamp(1)); // needs 3 > 2 blocks
        assert_eq!(
            out,
            AccessOutcome::Miss {
                admitted: false,
                evicted: vec![]
            }
        );
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_rejected() {
        BlockLruKCache::new(repo(), ByteSize::mb(10), ByteSize::ZERO, 2);
    }
}
