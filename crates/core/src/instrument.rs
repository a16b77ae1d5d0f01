//! Instrumentation: wrap any policy and record per-clip accounting.
//!
//! [`InstrumentedCache`] is a transparent [`ClipCache`] decorator that
//! counts, per clip, how often it was requested, hit, admitted and
//! evicted — the data one needs to answer "why is my hit rate what it
//! is?" for a production deployment. The `composition` experiment
//! aggregates the same facts per media type; this wrapper exposes them
//! per clip and for any policy without touching the policy code.

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use clipcache_media::{ByteSize, ClipId};
use clipcache_workload::Timestamp;

/// Per-clip counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClipCounters {
    /// Requests for this clip.
    pub requests: u64,
    /// Requests serviced from cache.
    pub hits: u64,
    /// Requests where only a head prefix was resident (display started
    /// from cache while the tail streamed in). Not counted in `hits`.
    pub prefix_hits: u64,
    /// Times the clip was materialized.
    pub admissions: u64,
    /// Times the clip was swapped out.
    pub evictions: u64,
}

impl ClipCounters {
    /// This clip's own hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Admissions that were later undone — a measure of churn. An
    /// admission still resident at the end of the run is not counted.
    pub fn churn(&self) -> u64 {
        self.evictions
    }
}

/// A transparent per-clip accounting wrapper around any policy.
pub struct InstrumentedCache {
    inner: Box<dyn ClipCache>,
    counters: Vec<ClipCounters>,
    /// Scratch eviction buffer reused across accesses (no steady-state
    /// allocation on the wrapped access path).
    scratch: Vec<ClipId>,
}

impl InstrumentedCache {
    /// Wrap `inner`, tracking `n_clips` clips.
    pub fn new(inner: Box<dyn ClipCache>, n_clips: usize) -> Self {
        InstrumentedCache {
            inner,
            counters: vec![ClipCounters::default(); n_clips],
            scratch: Vec::new(),
        }
    }

    /// The counters for one clip.
    pub fn counters(&self, clip: ClipId) -> ClipCounters {
        self.counters[clip.index()]
    }

    /// The `top` clips by eviction count (churn), descending.
    pub fn churn_leaders(&self, top: usize) -> Vec<(ClipId, ClipCounters)> {
        let mut rows: Vec<(ClipId, ClipCounters)> = self
            .counters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.evictions > 0)
            .map(|(i, &c)| (ClipId::from_index(i), c))
            .collect();
        rows.sort_by_key(|&(id, c)| (std::cmp::Reverse(c.evictions), id));
        rows.truncate(top);
        rows
    }

    /// Consume the wrapper, returning the inner policy.
    pub fn into_inner(self) -> Box<dyn ClipCache> {
        self.inner
    }
}

impl ClipCache for InstrumentedCache {
    fn name(&self) -> String {
        format!("Instrumented<{}>", self.inner.name())
    }

    fn capacity(&self) -> ByteSize {
        self.inner.capacity()
    }

    fn used(&self) -> ByteSize {
        self.inner.used()
    }

    fn contains(&self, clip: ClipId) -> bool {
        self.inner.contains(clip)
    }

    fn resident_clips(&self) -> Vec<ClipId> {
        self.inner.resident_clips()
    }

    fn partial_prefix(&self, clip: ClipId) -> u32 {
        self.inner.partial_prefix(clip)
    }

    fn partial_clips(&self) -> Vec<(ClipId, u32)> {
        self.inner.partial_clips()
    }

    /// Restoring a snapshot is not a request: it reaches the inner
    /// policy uncounted.
    fn restore_prefix(&mut self, clip: ClipId, prefix: u32, now: Timestamp) {
        self.inner.restore_prefix(clip, prefix, now);
    }

    fn inform_frequencies(&mut self, frequencies: &[f64]) {
        self.inner.inform_frequencies(frequencies);
    }

    fn access_into(
        &mut self,
        clip: ClipId,
        now: Timestamp,
        evictions: &mut dyn EvictionSink,
    ) -> AccessEvent {
        self.scratch.clear();
        let event = self.inner.access_into(clip, now, &mut self.scratch);
        let c = &mut self.counters[clip.index()];
        c.requests += 1;
        match event {
            AccessEvent::Hit => c.hits += 1,
            AccessEvent::PrefixHit { .. } => c.prefix_hits += 1,
            AccessEvent::Miss { admitted } => {
                if admitted {
                    c.admissions += 1;
                }
            }
        }
        for i in 0..self.scratch.len() {
            let v = self.scratch[i];
            self.counters[v.index()].evictions += 1;
            evictions.record_eviction(v);
        }
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PolicyKind;
    use crate::snapshot::CacheSnapshot;
    use clipcache_media::paper;
    use std::sync::Arc;

    #[test]
    fn counters_track_outcomes() {
        let repo = Arc::new(paper::equi_sized_repository_of(
            3,
            clipcache_media::ByteSize::mb(10),
        ));
        let inner = PolicyKind::Lru.build(
            Arc::clone(&repo),
            clipcache_media::ByteSize::mb(10),
            1,
            None,
        );
        let mut cache = InstrumentedCache::new(inner, 3);
        cache.access(ClipId::new(1), Timestamp(1)); // admit 1
        cache.access(ClipId::new(1), Timestamp(2)); // hit 1
        cache.access(ClipId::new(2), Timestamp(3)); // evict 1, admit 2
        let c1 = cache.counters(ClipId::new(1));
        assert_eq!(c1.requests, 2);
        assert_eq!(c1.hits, 1);
        assert_eq!(c1.admissions, 1);
        assert_eq!(c1.evictions, 1);
        assert_eq!(c1.hit_rate(), 0.5);
        let c2 = cache.counters(ClipId::new(2));
        assert_eq!(c2.admissions, 1);
        assert_eq!(c2.evictions, 0);
        assert!(cache.name().starts_with("Instrumented<"));
    }

    #[test]
    fn churn_leaders_sorted() {
        let repo = Arc::new(paper::equi_sized_repository_of(
            4,
            clipcache_media::ByteSize::mb(10),
        ));
        let inner = PolicyKind::Fifo.build(
            Arc::clone(&repo),
            clipcache_media::ByteSize::mb(10),
            1,
            None,
        );
        let mut cache = InstrumentedCache::new(inner, 4);
        // FIFO, 1 slot: cycling 1,2,1,2,3 evicts 1 twice, 2 twice.
        for (t, id) in [1u32, 2, 1, 2, 3].iter().enumerate() {
            cache.access(ClipId::new(*id), Timestamp(t as u64 + 1));
        }
        let leaders = cache.churn_leaders(10);
        assert_eq!(leaders.len(), 2);
        assert_eq!(leaders[0].1.evictions, 2);
        // Deterministic id tie-break.
        assert!(leaders[0].0 < leaders[1].0 || leaders[0].1.evictions > leaders[1].1.evictions);
    }

    #[test]
    fn transparent_delegation() {
        let repo = Arc::new(paper::variable_sized_repository_of(6));
        let capacity = repo.cache_capacity_for_ratio(0.5);
        let mk = || PolicyKind::DynSimple { k: 2 }.build(Arc::clone(&repo), capacity, 1, None);
        let mut plain = mk();
        let mut wrapped = InstrumentedCache::new(mk(), 6);
        for (t, id) in [1u32, 2, 3, 1, 4, 5, 6, 1, 2].iter().enumerate() {
            let a = plain.access(ClipId::new(*id), Timestamp(t as u64 + 1));
            let b = wrapped.access(ClipId::new(*id), Timestamp(t as u64 + 1));
            assert_eq!(a, b);
        }
        assert_eq!(plain.resident_clips(), wrapped.resident_clips());
        assert_eq!(plain.used(), wrapped.used());

        // A chunked policy looks chunked through the wrapper: three 8 MB
        // clips at 1 MB chunks in 12 MB leave clip 1 as a 4-chunk prefix.
        let repo = Arc::new(
            paper::equi_sized_repository_of(3, ByteSize::mb(8)).with_chunk_size(ByteSize::mb(1)),
        );
        let mk = || PolicyKind::Lru.build(Arc::clone(&repo), ByteSize::mb(12), 1, None);
        let mut plain = mk();
        let mut wrapped = InstrumentedCache::new(mk(), 3);
        for (t, id) in [1u32, 2].iter().enumerate() {
            let a = plain.access(ClipId::new(*id), Timestamp(t as u64 + 1));
            let b = wrapped.access(ClipId::new(*id), Timestamp(t as u64 + 1));
            assert_eq!(a, b);
        }
        assert_eq!(plain.partial_clips(), vec![(ClipId::new(1), 4)]);
        assert_eq!(plain.partial_clips(), wrapped.partial_clips());
        assert_eq!(wrapped.partial_prefix(ClipId::new(1)), 4);
        let snap = |c: &dyn ClipCache| CacheSnapshot::take(c, PolicyKind::Lru, Timestamp(2));
        assert_eq!(snap(plain.as_ref()), snap(&wrapped));

        // Restoring a prefix through the wrapper is exact and uncounted.
        let mut restored = InstrumentedCache::new(mk(), 3);
        restored.restore_prefix(ClipId::new(1), 4, Timestamp(1));
        assert_eq!(restored.partial_clips(), vec![(ClipId::new(1), 4)]);
        assert_eq!(restored.counters(ClipId::new(1)), ClipCounters::default());
    }
}
