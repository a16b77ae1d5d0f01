//! Pass 1 of Figure 4 by keyed scan: the cheapest residents, in ascending
//! `(key, id)` order, until the incoming clip fits. Simple plans every
//! miss this way. DYNSimple merges the heads of its rank index instead,
//! and uses this planner only for a prefix longer than [`MIN_SCAN_BOUND`].
//!
//! Each resident's key is computed once per miss into a reused scratch
//! vector of `(key, clip)` pairs; collecting them walks the resident set,
//! O(residents + n/64) for `n` clips. A miss usually displaces one or two
//! residents, so the prefix is taken by repeated min-scan (O(residents)
//! per victim); a prefix longer than [`MIN_SCAN_BOUND`] sorts the
//! remaining candidates once instead, which keeps the worst case at
//! O(residents · log residents).
//! Both steps work in place: the miss path allocates nothing once the
//! scratch vector has reached its high-water mark.

use crate::cache::{AccessEvent, EvictionSink};
use crate::space::CacheSpace;
use clipcache_media::ClipId;
use std::cmp::Ordering;

/// Victims taken by min-scan before the remaining candidates are sorted.
pub(crate) const MIN_SCAN_BOUND: usize = 8;

/// Victim order: ascending key, ties to the lower id (a total order,
/// because keys are finite and ids unique).
pub(crate) fn cheaper(a: &(f64, ClipId), b: &(f64, ClipId)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .expect("rank keys are finite")
        .then_with(|| a.1.cmp(&b.1))
}

/// Fill `keyed` with every resident except `incoming`, each keyed once by
/// `key`, and cut it to the shortest cheapest prefix that frees room for
/// `incoming`, in ascending `(key, id)` order.
pub(crate) fn cheapest_prefix(
    keyed: &mut Vec<(f64, ClipId)>,
    space: &CacheSpace,
    incoming: ClipId,
    key: impl Fn(ClipId) -> f64,
) {
    keyed.clear();
    keyed.extend(
        space
            .iter_resident()
            .filter(|&c| c != incoming)
            .map(|c| (key(c), c)),
    );
    let need = space.size_of(incoming);
    let mut freed = space.free();
    let mut taken = 0;
    while freed < need && taken < keyed.len() {
        if taken < MIN_SCAN_BOUND {
            let min = (taken..keyed.len())
                .min_by(|&i, &j| cheaper(&keyed[i], &keyed[j]))
                .expect("range is non-empty");
            keyed.swap(taken, min);
        } else if taken == MIN_SCAN_BOUND {
            keyed[taken..].sort_unstable_by(cheaper);
        }
        freed += space.size_of(keyed[taken].1);
        taken += 1;
    }
    debug_assert!(freed >= need, "victim plan must free enough space");
    keyed.truncate(taken);
}

/// Evict `victims` in order, reporting each to `sink`, then materialize
/// `incoming`.
pub(crate) fn evict_and_admit(
    space: &mut CacheSpace,
    victims: &[(f64, ClipId)],
    incoming: ClipId,
    sink: &mut dyn EvictionSink,
) -> AccessEvent {
    for &(_, victim) in victims {
        space.remove(victim);
        sink.record_eviction(victim);
    }
    space.insert(incoming);
    AccessEvent::Miss { admitted: true }
}
