//! Cache snapshot and restore: surviving a device restart.
//!
//! An FMC phone reboots; the clips on its disk survive, but the cache
//! manager's in-memory metadata (reference histories, GreedyDual
//! priorities) does not. [`CacheSnapshot`] captures what durably exists —
//! the resident clip set and the virtual clock — and [`restore`] rebuilds
//! a working cache from it by re-materializing every resident clip into a
//! fresh policy instance.
//!
//! The restore is *residency-exact* but *metadata-approximate*: every
//! restored clip looks like it was referenced exactly once, just now, so
//! the policy relearns popularity over the next few hundred requests
//! (the integration test bounds the transient). Because the snapshot's
//! resident bytes fit the capacity by construction, re-materialization
//! never needs to evict — except under [`crate::policies::block_lru_k`],
//! whose block rounding can overflow a byte-exact set; its restore is
//! best-effort.

use crate::cache::ClipCache;
use crate::registry::{BuildError, PolicySpec};
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::Timestamp;
use std::sync::Arc;

/// The snapshot schema version this build writes and understands.
///
/// Serialized snapshots carry `"version"` so a binary restoring an
/// on-disk checkpoint written by a different schema fails loudly instead
/// of restoring garbage. Version 2 added chunk-granular residency: the
/// `resident` list holds fully resident clips and `partial` holds
/// `[clip, prefix_chunks]` pairs. Version 1 (whole-clip residency, no
/// `partial` field) is rejected by name, as are snapshots without the
/// field — a v1 restore under a chunked repository would silently drop
/// every partial prefix.
pub const SNAPSHOT_VERSION: u64 = 2;

/// A durable snapshot of a cache's contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// The policy that was running.
    pub policy: PolicySpec,
    /// The byte capacity.
    pub capacity: ByteSize,
    /// The virtual clock at snapshot time.
    pub tick: Timestamp,
    /// The fully resident clip set, in id order.
    pub resident: Vec<ClipId>,
    /// Partially resident clips as `(clip, resident_prefix_chunks)`, in
    /// id order. Empty for whole-clip policies and unchunked repositories.
    pub partial: Vec<(ClipId, u32)>,
}

impl CacheSnapshot {
    /// Capture a snapshot of `cache` at virtual time `tick`.
    pub fn take(cache: &dyn ClipCache, policy: impl Into<PolicySpec>, tick: Timestamp) -> Self {
        let mut resident = cache.resident_clips();
        resident.sort();
        let mut partial = cache.partial_clips();
        partial.sort();
        CacheSnapshot {
            policy: policy.into(),
            capacity: cache.capacity(),
            tick,
            resident,
            partial,
        }
    }

    /// Serialize to JSON (the durable on-disk form):
    /// `{"version":2,"policy":"dynsimple:2","capacity":…,"tick":…,"resident":[…],"partial":[[id,chunks],…]}`.
    /// The policy is stored as its
    /// [`spelling`](crate::registry::PolicyKind::spelling) so the file
    /// round-trips through the hand-rolled `workload::json` parser and
    /// stays human-editable. Spellings older builds stored with a victim
    /// index suffix (`lfu@heap`) still parse.
    pub fn to_json(&self) -> String {
        let ids: Vec<String> = self.resident.iter().map(|c| c.get().to_string()).collect();
        let partials: Vec<String> = self
            .partial
            .iter()
            .map(|(c, p)| format!("[{},{}]", c.get(), p))
            .collect();
        format!(
            "{{\"version\":{},\"policy\":\"{}\",\"capacity\":{},\"tick\":{},\"resident\":[{}],\"partial\":[{}]}}",
            SNAPSHOT_VERSION,
            self.policy.spelling(),
            self.capacity.as_u64(),
            self.tick.get(),
            ids.join(","),
            partials.join(",")
        )
    }

    /// Deserialize from JSON (the [`to_json`](Self::to_json) shape).
    ///
    /// A `version` other than [`SNAPSHOT_VERSION`] is rejected loudly,
    /// naming both versions — a checkpoint written by the whole-clip v1
    /// schema (or a future one) must never be restored as if it were
    /// understood. Snapshots without the field are treated as v1.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let v = clipcache_workload::json::parse(json)?;
        Self::from_value(&v)
    }

    /// Deserialize from an already-parsed JSON value — the entry point
    /// for callers that embed a snapshot inside a larger document (the
    /// serve layer's durable checkpoint files).
    pub fn from_value(v: &clipcache_workload::json::Json) -> Result<Self, String> {
        let version = match v.get("version") {
            Some(version) => version
                .as_u64()
                .ok_or("snapshot `version` must be a non-negative integer")?,
            // Pre-versioning files predate chunk-granular residency: v1.
            None => 1,
        };
        if version != SNAPSHOT_VERSION {
            return Err(format!(
                "snapshot version {version} is not supported (this build reads \
                 version {SNAPSHOT_VERSION}, which added chunk-granular residency; \
                 version 1 snapshots are whole-clip and cannot express partial \
                 prefixes); refusing to restore"
            ));
        }
        let policy = v
            .get("policy")
            .and_then(|p| p.as_str())
            .ok_or("snapshot needs a `policy` spelling string")?
            .parse::<PolicySpec>()?;
        let capacity = v
            .get("capacity")
            .and_then(|n| n.as_u64())
            .ok_or("snapshot needs an integer `capacity`")?;
        let tick = v
            .get("tick")
            .and_then(|n| n.as_u64())
            .ok_or("snapshot needs an integer `tick`")?;
        let mut resident = Vec::new();
        for id in v
            .get("resident")
            .and_then(|r| r.as_array())
            .ok_or("snapshot needs a `resident` id array")?
        {
            let id = id
                .as_u64()
                .filter(|&id| id >= 1 && id <= u32::MAX as u64)
                .ok_or("resident ids must be positive 32-bit integers")?;
            resident.push(ClipId::new(id as u32));
        }
        let mut partial = Vec::new();
        for pair in v
            .get("partial")
            .and_then(|p| p.as_array())
            .ok_or("snapshot needs a `partial` [clip, prefix_chunks] array")?
        {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("partial entries must be [clip, prefix_chunks] pairs")?;
            let id = pair[0]
                .as_u64()
                .filter(|&id| id >= 1 && id <= u32::MAX as u64)
                .ok_or("partial clip ids must be positive 32-bit integers")?;
            let chunks = pair[1]
                .as_u64()
                .filter(|&p| p >= 1 && p <= u32::MAX as u64)
                .ok_or("partial prefix lengths must be positive 32-bit integers")?;
            partial.push((ClipId::new(id as u32), chunks as u32));
        }
        Ok(CacheSnapshot {
            policy,
            capacity: ByteSize::bytes(capacity),
            tick: Timestamp(tick),
            resident,
            partial,
        })
    }
}

/// Rebuild a cache from a snapshot.
///
/// Returns the restored cache and the virtual time at which the caller
/// should resume issuing requests (one tick per re-materialized clip has
/// been consumed).
pub fn restore(
    snapshot: &CacheSnapshot,
    repo: Arc<Repository>,
    seed: u64,
    frequencies: Option<&[f64]>,
) -> Result<(Box<dyn ClipCache>, Timestamp), BuildError> {
    let mut cache = snapshot
        .policy
        .try_build(repo, snapshot.capacity, seed, frequencies)?;
    let mut tick = snapshot.tick;
    for &clip in &snapshot.resident {
        tick = tick.next();
        cache.access(clip, tick);
    }
    for &(clip, prefix) in &snapshot.partial {
        tick = tick.next();
        cache.restore_prefix(clip, prefix, tick);
    }
    Ok((cache, tick))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PolicyKind;
    use clipcache_media::paper;
    use clipcache_workload::RequestGenerator;

    fn warmed(policy: PolicyKind, repo: &Arc<Repository>) -> (Box<dyn ClipCache>, Timestamp) {
        let freqs = vec![1.0 / repo.len() as f64; repo.len()];
        let mut cache = policy.build(
            Arc::clone(repo),
            repo.cache_capacity_for_ratio(0.2),
            1,
            Some(&freqs),
        );
        let mut last = Timestamp::ZERO;
        for req in RequestGenerator::new(repo.len(), 0.27, 0, 1_500, 3) {
            last = req.at;
            cache.access(req.clip, req.at);
        }
        (cache, last)
    }

    #[test]
    fn restore_reproduces_residency_exactly() {
        let repo = Arc::new(paper::variable_sized_repository_of(48));
        for policy in [
            PolicyKind::DynSimple { k: 2 },
            PolicyKind::Igd,
            PolicyKind::GreedyDual,
            PolicyKind::LruK { k: 2 },
            PolicyKind::Simple,
        ] {
            let (cache, tick) = warmed(policy, &repo);
            let snap = CacheSnapshot::take(cache.as_ref(), policy, tick);
            let freqs = vec![1.0 / repo.len() as f64; repo.len()];
            let (restored, next_tick) = restore(&snap, Arc::clone(&repo), 1, Some(&freqs)).unwrap();
            let mut a = cache.resident_clips();
            let mut b = restored.resident_clips();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{policy}: residency must restore exactly");
            assert_eq!(restored.used(), cache.used(), "{policy}");
            assert_eq!(
                next_tick.get(),
                tick.get() + snap.resident.len() as u64,
                "{policy}"
            );
        }
    }

    #[test]
    fn snapshot_json_round_trip() {
        let repo = Arc::new(paper::variable_sized_repository_of(12));
        let (cache, tick) = warmed(PolicyKind::Lru, &repo);
        let snap = CacheSnapshot::take(cache.as_ref(), PolicyKind::Lru, tick);
        let json = snap.to_json();
        assert!(
            json.starts_with(&format!("{{\"version\":{SNAPSHOT_VERSION},")),
            "snapshots must declare their schema version: {json}"
        );
        let back = CacheSnapshot::from_json(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn other_snapshot_versions_are_rejected_loudly() {
        let repo = Arc::new(paper::variable_sized_repository_of(12));
        let (cache, tick) = warmed(PolicyKind::Lru, &repo);
        let json = CacheSnapshot::take(cache.as_ref(), PolicyKind::Lru, tick).to_json();
        // Old (whole-clip v1) and future schemas must both fail by name,
        // not restore garbage.
        for other in [
            json.replace("\"version\":2", "\"version\":1"),
            json.replace("\"version\":2", "\"version\":999"),
            json.replace("\"version\":2", "\"version\":0"),
        ] {
            let err = CacheSnapshot::from_json(&other).unwrap_err();
            assert!(err.contains("not supported"), "weak rejection: {err}");
            assert!(
                err.contains("version 2"),
                "rejection must name the supported version: {err}"
            );
        }
        // The v1 rejection explains what v1 could not express.
        let err =
            CacheSnapshot::from_json(&json.replace("\"version\":2", "\"version\":1")).unwrap_err();
        assert!(
            err.contains("whole-clip"),
            "v1 rejection must say why: {err}"
        );
        // Non-integer versions are malformed, not silently defaulted.
        assert!(
            CacheSnapshot::from_json(&json.replace("\"version\":2", "\"version\":\"2\"")).is_err()
        );
        // Pre-versioning snapshots (no field) read as v1 → rejected too.
        let legacy = json.replace("\"version\":2,", "");
        let err = CacheSnapshot::from_json(&legacy).unwrap_err();
        assert!(
            err.contains("version 1"),
            "missing field must read as v1: {err}"
        );
    }

    #[test]
    fn partial_prefixes_round_trip_and_restore() {
        // A chunked repo under LRU: force a partial prefix by admitting a
        // clip that only fits after trimming a victim's tail.
        let repo =
            Arc::new(paper::variable_sized_repository_of(12).with_chunk_size(ByteSize::mb(100)));
        let spec = PolicySpec::from(PolicyKind::Lru);
        let mut cache = spec.build(
            Arc::clone(&repo),
            repo.cache_capacity_for_ratio(0.2),
            1,
            None,
        );
        let mut tick = Timestamp::ZERO;
        for req in RequestGenerator::new(repo.len(), 0.27, 0, 600, 11) {
            tick = req.at;
            cache.access(req.clip, req.at);
        }
        let snap = CacheSnapshot::take(cache.as_ref(), spec, tick);
        assert!(
            !snap.partial.is_empty(),
            "trace must leave at least one partial prefix for the round-trip to mean anything"
        );
        let json = snap.to_json();
        assert!(
            json.contains("\"partial\":[["),
            "partials must serialize: {json}"
        );
        let back = CacheSnapshot::from_json(&json).unwrap();
        assert_eq!(snap, back);
        let (restored, _) = restore(&back, Arc::clone(&repo), 1, None).unwrap();
        let mut a = cache.resident_clips();
        let mut b = restored.resident_clips();
        a.sort();
        b.sort();
        assert_eq!(a, b, "full residency must restore exactly");
        assert_eq!(restored.partial_clips(), cache.partial_clips());
        assert_eq!(restored.used(), cache.used());
    }

    #[test]
    fn legacy_heap_spellings_restore_as_the_bare_kind() {
        let repo = Arc::new(paper::variable_sized_repository_of(24));
        let (cache, last) = warmed(PolicyKind::GreedyDual, &repo);
        let json = CacheSnapshot::take(cache.as_ref(), PolicyKind::GreedyDual, last).to_json();
        assert!(json.contains("\"policy\":\"greedydual\""), "{json}");
        for legacy in ["greedydual@heap", "greedydual-heap", "gd-heap"] {
            let old = json.replace("\"greedydual\"", &format!("\"{legacy}\""));
            let snap = CacheSnapshot::from_json(&old).unwrap();
            assert_eq!(snap.policy.kind, PolicyKind::GreedyDual, "{legacy}");
            assert_eq!(snap.to_json(), json, "{legacy} is rewritten bare");
            let (restored, _) = restore(&snap, Arc::clone(&repo), 1, None).unwrap();
            let mut a = cache.resident_clips();
            let mut b = restored.resident_clips();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{legacy}: residency must restore exactly");
        }
    }

    #[test]
    fn restart_transient_is_bounded() {
        // Continuous run vs snapshot-restart-resume: hit rates over the
        // post-restart segment agree within a few points once the policy
        // relearns its metadata.
        let repo = Arc::new(paper::variable_sized_repository_of(96));
        let policy = PolicyKind::DynSimple { k: 2 };
        let capacity = repo.cache_capacity_for_ratio(0.15);
        let all: Vec<_> = RequestGenerator::new(96, 0.27, 0, 8_000, 9).collect();
        let (warm, rest) = all.split_at(4_000);

        // Continuous.
        let mut continuous = policy.build(Arc::clone(&repo), capacity, 1, None);
        for r in warm {
            continuous.access(r.clip, r.at);
        }
        let cont_hits = rest
            .iter()
            .filter(|r| continuous.access(r.clip, r.at).is_hit())
            .count();

        // Snapshot at the split, restart, resume.
        let mut first = policy.build(Arc::clone(&repo), capacity, 1, None);
        let mut tick = Timestamp::ZERO;
        for r in warm {
            tick = r.at;
            first.access(r.clip, r.at);
        }
        let snap = CacheSnapshot::take(first.as_ref(), policy, tick);
        let (mut resumed, mut next) = restore(&snap, Arc::clone(&repo), 1, None).unwrap();
        let resumed_hits = rest
            .iter()
            .filter(|r| {
                next = next.next();
                resumed.access(r.clip, next).is_hit()
            })
            .count();

        let gap = (cont_hits as f64 - resumed_hits as f64).abs() / rest.len() as f64;
        assert!(
            gap < 0.05,
            "restart transient too large: continuous {cont_hits}, resumed {resumed_hits}"
        );
    }
}
