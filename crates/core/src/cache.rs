//! The `ClipCache` trait: the common interface of every policy.
//!
//! The primary entry point is [`ClipCache::access_into`], which reports
//! evictions through a caller-supplied [`EvictionSink`] so the steady
//! state allocates nothing: drivers keep one sink (a reusable
//! `Vec<ClipId>`, an [`EvictionCount`], or [`DiscardEvictions`]) for the
//! whole run. [`ClipCache::access`] is the allocating compatibility
//! wrapper returning the classic [`AccessOutcome`].

use clipcache_media::{ByteSize, ClipId};
use clipcache_workload::Timestamp;

/// The outcome of one cache access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The clip was cache resident; the request is serviced locally.
    Hit,
    /// The head of the clip was resident but its tail was not: display can
    /// start from the prefix while the tail streams in. Only chunk-granular
    /// policies over a chunked repository produce this.
    PrefixHit {
        /// Resident prefix length at access time, in chunks (≥ 1).
        resident: u32,
        /// Total chunk count of the clip.
        total: u32,
        /// Clips swapped out to make room for the tail, in eviction order.
        evicted: Vec<ClipId>,
    },
    /// The clip was not resident and had to be fetched from the server.
    Miss {
        /// Whether the clip was materialized in the cache afterwards.
        /// False only for bypass policies and for clips larger than the
        /// whole cache.
        admitted: bool,
        /// Clips swapped out to make room, in eviction order.
        evicted: Vec<ClipId>,
    },
}

impl AccessOutcome {
    /// True for a full cache hit (a prefix hit is not a full hit).
    #[inline]
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// True when display starts from cache-resident bytes immediately
    /// (a full hit or a prefix hit).
    #[inline]
    pub fn starts_display(&self) -> bool {
        matches!(self, AccessOutcome::Hit | AccessOutcome::PrefixHit { .. })
    }

    /// The clips evicted by this access (empty on a hit).
    pub fn evicted(&self) -> &[ClipId] {
        match self {
            AccessOutcome::Hit => &[],
            AccessOutcome::PrefixHit { evicted, .. } => evicted,
            AccessOutcome::Miss { evicted, .. } => evicted,
        }
    }
}

/// The allocation-free outcome of one access: what happened, with the
/// evicted clips reported through the caller's [`EvictionSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessEvent {
    /// The clip was cache resident; the request is serviced locally.
    Hit,
    /// The head of the clip was resident but its tail was not; display
    /// starts from the prefix while the tail streams in.
    PrefixHit {
        /// Resident prefix length at access time, in chunks (≥ 1).
        resident: u32,
        /// Total chunk count of the clip.
        total: u32,
    },
    /// The clip was not resident.
    Miss {
        /// Whether the clip was materialized in the cache afterwards.
        admitted: bool,
    },
}

impl AccessEvent {
    /// True for a full cache hit (a prefix hit is not a full hit).
    #[inline]
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessEvent::Hit)
    }

    /// True when display starts from cache-resident bytes immediately
    /// (a full hit or a prefix hit).
    #[inline]
    pub fn starts_display(&self) -> bool {
        matches!(self, AccessEvent::Hit | AccessEvent::PrefixHit { .. })
    }
}

/// Receives evicted clip ids during [`ClipCache::access_into`], in
/// eviction order.
pub trait EvictionSink {
    /// Record one eviction.
    fn record_eviction(&mut self, clip: ClipId);
}

/// Collect evicted ids (clear between accesses to reuse the allocation).
impl EvictionSink for Vec<ClipId> {
    #[inline]
    fn record_eviction(&mut self, clip: ClipId) {
        self.push(clip);
    }
}

/// Count evictions without storing them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionCount(pub usize);

impl EvictionSink for EvictionCount {
    #[inline]
    fn record_eviction(&mut self, _clip: ClipId) {
        self.0 += 1;
    }
}

/// Ignore evictions entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscardEvictions;

impl EvictionSink for DiscardEvictions {
    #[inline]
    fn record_eviction(&mut self, _clip: ClipId) {}
}

/// A cache of clips driven by a reference string.
///
/// Implementations must maintain `used() ≤ capacity()` at all times and must
/// be deterministic given their construction-time seed.
///
/// The trait requires `Send` so a `Box<dyn ClipCache>` can move behind a
/// shard mutex in the concurrent serving layer; every policy is plain
/// owned data (plus `Arc<Repository>`), so the bound costs nothing.
pub trait ClipCache: Send {
    /// A human-readable policy name, e.g. `"DYNSimple(K=32)"`.
    fn name(&self) -> String;

    /// The fixed byte capacity `S_T`.
    fn capacity(&self) -> ByteSize;

    /// Bytes currently occupied by resident clips.
    fn used(&self) -> ByteSize;

    /// Whether `clip` is currently resident.
    fn contains(&self, clip: ClipId) -> bool;

    /// The ids of all resident clips (order unspecified).
    ///
    /// Used for the paper's *theoretical hit rate* metric (Figure 6.a),
    /// which sums the accurate access frequencies of resident clips.
    fn resident_clips(&self) -> Vec<ClipId>;

    /// Service a request for `clip` issued at virtual time `now`,
    /// reporting evictions through `evictions`.
    ///
    /// This is the hot path: implementations must not allocate on hits
    /// and must reuse internal scratch buffers on misses, so a driver
    /// that supplies a reusable sink runs allocation-free after warmup.
    /// Timestamps must be strictly increasing across calls.
    fn access_into(
        &mut self,
        clip: ClipId,
        now: Timestamp,
        evictions: &mut dyn EvictionSink,
    ) -> AccessEvent;

    /// Service a request for `clip`, returning the evicted ids in a
    /// fresh `Vec` — the allocating convenience wrapper around
    /// [`ClipCache::access_into`].
    fn access(&mut self, clip: ClipId, now: Timestamp) -> AccessOutcome {
        let mut evicted = Vec::new();
        match self.access_into(clip, now, &mut evicted) {
            AccessEvent::Hit => AccessOutcome::Hit,
            AccessEvent::PrefixHit { resident, total } => AccessOutcome::PrefixHit {
                resident,
                total,
                evicted,
            },
            AccessEvent::Miss { admitted } => AccessOutcome::Miss { admitted, evicted },
        }
    }

    /// Resident prefix length of `clip` in chunks when the clip is only
    /// **partially** resident; 0 when absent or fully resident. Whole-clip
    /// policies never hold partial prefixes (the default); chunk-granular
    /// policies report their trimmed prefixes here.
    fn partial_prefix(&self, _clip: ClipId) -> u32 {
        0
    }

    /// All partially resident clips as `(clip, resident_prefix_chunks)`,
    /// in id order. Empty for whole-clip policies (the default).
    fn partial_clips(&self) -> Vec<(ClipId, u32)> {
        Vec::new()
    }

    /// Re-materialize the first `prefix` chunks of `clip` during snapshot
    /// restore. Whole-clip policies never snapshot partial prefixes, so
    /// the default re-materializes the full clip via a normal access;
    /// chunk-granular policies restore the exact prefix.
    fn restore_prefix(&mut self, clip: ClipId, _prefix: u32, now: Timestamp) {
        let _ = self.access_into(clip, now, &mut DiscardEvictions);
    }

    /// Inform the policy of new accurate access frequencies.
    ///
    /// Only meaningful for off-line policies (Simple), which are defined
    /// as having oracle knowledge: when an experiment shifts the request
    /// distribution, the oracle is re-informed through this hook. On-line
    /// policies ignore it (the default).
    fn inform_frequencies(&mut self, _frequencies: &[f64]) {}

    /// Free bytes remaining.
    fn free(&self) -> ByteSize {
        self.capacity().saturating_sub(self.used())
    }

    /// Number of resident clips.
    fn resident_count(&self) -> usize {
        self.resident_clips().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_helpers() {
        assert!(AccessOutcome::Hit.is_hit());
        assert!(AccessOutcome::Hit.evicted().is_empty());
        let out = AccessOutcome::Miss {
            admitted: true,
            evicted: vec![ClipId::new(4)],
        };
        assert_eq!(out.evicted(), &[ClipId::new(4)]);
    }

    #[test]
    fn event_helpers_and_sinks() {
        assert!(AccessEvent::Hit.is_hit());
        assert!(!AccessEvent::Miss { admitted: true }.is_hit());

        let mut vec_sink: Vec<ClipId> = Vec::new();
        vec_sink.record_eviction(ClipId::new(2));
        vec_sink.record_eviction(ClipId::new(5));
        assert_eq!(vec_sink, vec![ClipId::new(2), ClipId::new(5)]);

        let mut count = EvictionCount::default();
        count.record_eviction(ClipId::new(1));
        count.record_eviction(ClipId::new(1));
        assert_eq!(count.0, 2);

        DiscardEvictions.record_eviction(ClipId::new(9));
    }
}
