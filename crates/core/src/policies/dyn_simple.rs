//! DYNSimple — the paper's flagship contribution (Section 4.1, Figure 4).
//!
//! Simple made on-line: instead of oracle frequencies, DYNSimple estimates
//! each clip's frequency of access from the timestamps of its last K
//! references. At time `t`, the arrival rate of requests for clip `x` is
//! `a(x) = K / (t − t_K(x))` (using however many references are known for
//! clips with fewer than K), and the estimated frequency is
//! `f̂(x) = a(x) / Σ_j a(j)`. Since the normalizer is shared by every
//! clip, victim *ranking* needs only `a(x)/size(x)`.
//!
//! Victim selection follows Figure 4's two-pass shape:
//!
//! 1. walk residents in ascending `f̂/size` order, over-collecting victims
//!    until `free + Σ victim sizes ≥ size(incoming)`;
//! 2. evict from that victim set in **descending size** order, stopping as
//!    soon as the incoming clip fits — sparing small candidates that the
//!    first pass over-collected.
//!
//! History is kept for non-resident clips too (that is what makes the
//! estimates work); the paper's proposed metadata-retention rule is exposed
//! via [`DynSimpleCache::prune_history`].
//!
//! The rank key `a(x)/size(x)` ages with the clock, but its order within a
//! group does not. The key is `(c / max(now − o, 1)) / size`, where `c ≤ K`
//! is the number of retained stamps and `o` the oldest of them. Among
//! residents that share `(c, size)`, a later `o` never has a smaller key at
//! any `now`, because IEEE division is monotone. So a `RankIndex` keeps
//! each `(c, size)` group in `(o, id)` order, updated on hit, admission,
//! eviction and [`DynSimpleCache::prune_history`]. A group's cheapest
//! members are its leading run of equal keys, and a miss keys only those
//! runs: it merges the group heads into the same ascending `(key, id)`
//! prefix a scan of every resident would take. It walks a bit set of the
//! size classes that hold residents and, inside each, only the groups
//! that do, so a miss costs O(classes/64 + non-empty groups · log r) for
//! `r` residents, however large K or the number of distinct sizes. A
//! prefix longer than the planner's min-scan bound is re-planned by the
//! keyed sort DYNSimple shares with Simple, which keeps the worst case at
//! O(r · log r).

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::history::{rate, ReferenceHistory};
use crate::policies::victim_plan::{cheaper, cheapest_prefix, evict_and_admit, MIN_SCAN_BOUND};
use crate::space::CacheSpace;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::Timestamp;
use std::sync::Arc;

/// Bits per word of the occupied-class set.
const WORD: usize = u64::BITS as usize;

/// A resident's place in its size class: its retained-stamp count, its
/// oldest stamp and its id, packed high to low, so that integer order is
/// `(count, oldest, id)` order and each group is one run of a class.
type Entry = u128;

fn entry(count: usize, oldest: Timestamp, clip: ClipId) -> Entry {
    (Entry::from(count as u32) << 96) | (Entry::from(oldest.0) << 32) | Entry::from(clip.get())
}

fn count_of(entry: Entry) -> usize {
    (entry >> 96) as usize
}

fn oldest_of(entry: Entry) -> Timestamp {
    Timestamp((entry >> 32) as u64)
}

fn clip_of(entry: Entry) -> ClipId {
    ClipId::new(entry as u32)
}

/// One group's offer in a merge: the cheapest untaken member of the
/// group's leading equal-key run. The group is `members(class)[..end]`
/// from member `pos` on.
#[derive(Debug, Clone, Copy)]
struct Head {
    key: f64,
    clip: ClipId,
    class: usize,
    pos: usize,
    end: usize,
}

/// DYNSimple's exact rank index (see the module docs).
///
/// Each size class owns the fixed slice `entries[start[s]..start[s + 1]]`,
/// room for as many of its clips as can be resident at once. Its first
/// `len[s]` slots hold its residents in ascending `(count, oldest, id)`
/// order, so each `(count, size)` group is one run, ordered by
/// `(oldest, id)`. A pruned history (count 0) has no stamp and is filed
/// under stamp 0, so that group is in id order, as its keys all tie at 0.
/// The slices are sized at construction, so updates never allocate.
///
/// The index keeps no per-clip state: a resident is filed under its
/// current history, so the caller removes it before its history changes
/// and inserts it after.
#[derive(Debug, Clone)]
struct RankIndex {
    /// The repository, whose size classes are the index's.
    repo: Arc<Repository>,
    /// Class `s`'s slice of `entries` starts at `start[s]` (one extra end).
    start: Vec<usize>,
    /// Residents per class.
    len: Vec<usize>,
    entries: Vec<Entry>,
    /// Bit set of the classes with residents.
    occupied: Vec<u64>,
    /// Merge scratch, one head per non-empty group (sized at
    /// construction).
    heads: Vec<Head>,
}

impl RankIndex {
    fn new(repo: Arc<Repository>, capacity: ByteSize, k: usize) -> Self {
        let classes = repo.size_classes().len();
        // A class holds at most its clips, and at most as many of them as
        // fit in the cache at once: count its clips, cap them, and lay the
        // classes out end to end.
        let mut start = vec![0; classes + 1];
        for clip in repo.ids() {
            start[repo.size_class(clip) + 1] += 1;
        }
        for (s, size) in repo.size_classes().iter().enumerate() {
            start[s + 1] = start[s] + start[s + 1].min((capacity.0 / size.0) as usize);
        }
        let most_residents = start[classes];
        // One head per group with a resident: `K + 1` counts per class.
        let groups = most_residents.min(classes * (k + 1));
        RankIndex {
            entries: vec![0; most_residents],
            start,
            len: vec![0; classes],
            occupied: vec![0; classes.div_ceil(WORD)],
            heads: Vec::with_capacity(groups),
            repo,
        }
    }

    /// The most clips that can be resident at once.
    fn most_residents(&self) -> usize {
        self.entries.len()
    }

    /// The residents of class `s`, in ascending `(count, oldest, id)`
    /// order.
    fn members(&self, s: usize) -> &[Entry] {
        &self.entries[self.start[s]..self.start[s] + self.len[s]]
    }

    /// Where `history` files `clip`: its class and entry.
    fn slot(&self, clip: ClipId, history: &ReferenceHistory) -> (usize, Entry) {
        let oldest = history.oldest_known(clip).unwrap_or(Timestamp::ZERO);
        let class = self.repo.size_class(clip);
        (class, entry(history.known(clip), oldest, clip))
    }

    /// The rank key of member `e` of class `s`: bit for bit
    /// [`DynSimpleCache::rank_key`], which divides by the same size.
    #[inline]
    fn key(&self, s: usize, e: Entry, now: Timestamp) -> f64 {
        let rate = match count_of(e) {
            0 => 0.0,
            count => rate(count, oldest_of(e), now),
        };
        rate / self.repo.size_classes()[s].as_f64()
    }

    /// File resident `clip` under its current history.
    fn insert(&mut self, clip: ClipId, history: &ReferenceHistory) {
        let (s, e) = self.slot(clip, history);
        let at = self.members(s).partition_point(|&m| m < e);
        let (from, len) = (self.start[s], self.len[s]);
        assert!(
            from + len < self.start[s + 1],
            "rank index class {s} overflows its slice"
        );
        self.entries
            .copy_within(from + at..from + len, from + at + 1);
        self.entries[from + at] = e;
        self.len[s] += 1;
        self.occupied[s / WORD] |= 1 << (s % WORD);
    }

    /// Drop resident `clip`, filed under its current history.
    fn remove(&mut self, clip: ClipId, history: &ReferenceHistory) {
        let (s, e) = self.slot(clip, history);
        let at = self
            .members(s)
            .binary_search(&e)
            .expect("a resident is filed under its history");
        let (from, len) = (self.start[s], self.len[s]);
        self.entries
            .copy_within(from + at + 1..from + len, from + at);
        self.len[s] -= 1;
        if self.len[s] == 0 {
            self.occupied[s / WORD] &= !(1 << (s % WORD));
        }
    }

    /// Forget every resident.
    fn clear(&mut self) {
        self.len.fill(0);
        self.occupied.fill(0);
    }

    /// The offer of the group in class `s` whose members run from `pos`
    /// to `end`: its first member not in `taken`, keyed, and the lowest
    /// untaken id of its equal-key run.
    fn head(
        &self,
        s: usize,
        mut pos: usize,
        end: usize,
        now: Timestamp,
        taken: &[(f64, ClipId)],
    ) -> Option<Head> {
        let is_taken = |clip: ClipId| taken.iter().any(|&(_, t)| t == clip);
        let members = &self.members(s)[..end];
        while pos < end && is_taken(clip_of(members[pos])) {
            pos += 1;
        }
        let &first = members.get(pos)?;
        let key = self.key(s, first, now);
        let mut clip = clip_of(first);
        // Keys never fall along a group, so its cheapest members are the
        // leading run of equal keys. A pruned group's members share stamp
        // 0 and so are in id order already: its first untaken member wins.
        if count_of(first) != 0 {
            for &other in &members[pos + 1..] {
                if self.key(s, other, now) != key {
                    break;
                }
                let other = clip_of(other);
                if other < clip && !is_taken(other) {
                    clip = other;
                }
            }
        }
        Some(Head {
            key,
            clip,
            class: s,
            pos,
            end,
        })
    }

    /// Fill `victims` with the cheapest residents in ascending `(key, id)`
    /// order until `incoming` fits, merging the group heads — the prefix
    /// `cheapest_prefix` takes over all residents. Returns `false`, with
    /// `victims` incomplete, once the prefix reaches [`MIN_SCAN_BOUND`]
    /// victims without freeing enough room.
    fn cheapest_prefix(
        &mut self,
        victims: &mut Vec<(f64, ClipId)>,
        space: &CacheSpace,
        incoming: ClipId,
        now: Timestamp,
    ) -> bool {
        victims.clear();
        let need = space.size_of(incoming);
        let mut freed = space.free();
        if freed >= need {
            return true;
        }
        let mut heads = std::mem::take(&mut self.heads);
        heads.clear();
        for (w, &word) in self.occupied.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let s = w * WORD + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // Each group is the run of one count: walk them in turn.
                let members = self.members(s);
                let mut pos = 0;
                while pos < members.len() {
                    let next = Entry::from(count_of(members[pos]) as u32 + 1) << 96;
                    let end = members.partition_point(|&m| m < next);
                    heads.extend(self.head(s, pos, end, now, victims));
                    pos = end;
                }
            }
        }
        let mut complete = true;
        while freed < need {
            if victims.len() == MIN_SCAN_BOUND {
                complete = false;
                break;
            }
            let Some(i) = (0..heads.len()).min_by(|&a, &b| {
                cheaper(
                    &(heads[a].key, heads[a].clip),
                    &(heads[b].key, heads[b].clip),
                )
            }) else {
                break;
            };
            let taken = heads[i];
            victims.push((taken.key, taken.clip));
            freed += space.size_of(taken.clip);
            match self.head(taken.class, taken.pos, taken.end, now, victims) {
                Some(next) => heads[i] = next,
                None => {
                    heads.swap_remove(i);
                }
            }
        }
        debug_assert!(
            !complete || freed >= need,
            "victim plan must free enough space"
        );
        self.heads = heads;
        complete
    }
}

/// Admission behaviour of DYNSimple.
///
/// The paper's Section 2 closes with "A future research direction is to
/// consider scenarios where the cache manager does not materialize an
/// unpopular clip" — [`DynAdmission::Bypass`] is that scenario: a missed
/// clip is streamed without caching when its estimated value per byte is
/// below that of every clip it would displace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynAdmission {
    /// Always materialize the referenced clip (the paper's default).
    Always,
    /// Stream low-value clips without caching them.
    Bypass,
}

/// Which victim-selection shape to use — the ablation knob for Figure 4's
/// two-pass design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionMode {
    /// Figure 4: over-collect the cheapest candidates, then evict from
    /// that set in descending size order, sparing over-collected small
    /// clips (the paper's design, our default).
    TwoPass,
    /// Ablation: evict in plain ascending `f̂/size` order until the
    /// incoming clip fits — no sparing pass.
    SinglePass,
}

/// The on-line Dynamic Simple policy.
#[derive(Debug, Clone)]
pub struct DynSimpleCache {
    space: CacheSpace,
    history: ReferenceHistory,
    index: RankIndex,
    admission: DynAdmission,
    eviction: EvictionMode,
    /// Scratch `(rank key, clip)` victim plan reused across misses, sized
    /// for every resident on the first miss (no per-miss allocation).
    victims: Vec<(f64, ClipId)>,
}

impl DynSimpleCache {
    /// Create an empty DYNSimple cache estimating frequencies from the
    /// last `k` references (the paper evaluates K = 2 and K = 32 and
    /// recommends K = 2 as sufficient).
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new(repo: Arc<Repository>, capacity: ByteSize, k: usize) -> Self {
        DynSimpleCache::with_admission(repo, capacity, k, DynAdmission::Always)
    }

    /// Create a DYNSimple cache with an explicit admission mode.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn with_admission(
        repo: Arc<Repository>,
        capacity: ByteSize,
        k: usize,
        admission: DynAdmission,
    ) -> Self {
        let n = repo.len();
        DynSimpleCache {
            index: RankIndex::new(Arc::clone(&repo), capacity, k),
            victims: Vec::new(),
            space: CacheSpace::new(repo, capacity),
            history: ReferenceHistory::new(n, k),
            admission,
            eviction: EvictionMode::TwoPass,
        }
    }

    /// Switch the victim-selection shape (ablation; see [`EvictionMode`]).
    pub fn set_eviction_mode(&mut self, eviction: EvictionMode) {
        self.eviction = eviction;
    }

    /// The configured history depth K.
    pub fn k(&self) -> usize {
        self.history.k()
    }

    /// Read access to the reference history.
    pub fn history(&self) -> &ReferenceHistory {
        &self.history
    }

    /// The estimated frequency of access to `clip` at time `now`:
    /// `a(clip) / Σ a(j)` over all clips with any recorded history.
    ///
    /// O(n); used by tests and the estimate-quality experiment. Victim
    /// selection uses the cheaper unnormalized rate.
    pub fn estimated_frequency(&self, clip: ClipId, now: Timestamp) -> f64 {
        let total: f64 = self
            .space
            .repo()
            .ids()
            .map(|c| self.history.arrival_rate(c, now))
            .sum();
        if total == 0.0 {
            0.0
        } else {
            self.history.arrival_rate(clip, now) / total
        }
    }

    /// All estimated frequencies at `now`, indexed by `ClipId::index()`.
    pub fn estimated_frequencies(&self, now: Timestamp) -> Vec<f64> {
        let rates: Vec<f64> = self
            .space
            .repo()
            .ids()
            .map(|c| self.history.arrival_rate(c, now))
            .collect();
        let total: f64 = rates.iter().sum();
        if total == 0.0 {
            rates
        } else {
            rates.into_iter().map(|r| r / total).collect()
        }
    }

    /// The victim-ranking key `a(x)/size(x)` (ascending = evict first).
    pub fn rank_key(&self, clip: ClipId, now: Timestamp) -> f64 {
        self.history.arrival_rate(clip, now) / self.space.size_of(clip).as_f64()
    }

    /// Apply the metadata-retention rule: forget histories whose latest
    /// reference is older than `horizon`. Returns the number pruned.
    pub fn prune_history(&mut self, horizon: Timestamp) -> usize {
        let pruned = self.history.prune_older_than(horizon);
        if pruned > 0 {
            // Pruned residents lost the stamps they were filed under.
            self.index.clear();
            for clip in self.space.iter_resident() {
                self.index.insert(clip, &self.history);
            }
        }
        pruned
    }

    /// Figure 4's victim selection. Fills `self.victims` with the clips to
    /// evict, in eviction order, each with its rank key.
    fn plan_victims(&mut self, incoming: ClipId, now: Timestamp) {
        let mut victims = std::mem::take(&mut self.victims);
        // Room for every resident, taken on the first miss: the keyed
        // sort below fills the scratch with all of them.
        victims.clear();
        victims.reserve_exact(self.index.most_residents());
        // Pass 1: the cheapest residents by f̂/size (ties: lower id
        // first), over-collected until the incoming clip would fit. A
        // prefix past the index's merge bound keys every resident once
        // and sorts.
        if !self
            .index
            .cheapest_prefix(&mut victims, &self.space, incoming, now)
        {
            cheapest_prefix(&mut victims, &self.space, incoming, |c| {
                self.rank_key(c, now)
            });
        }
        debug_assert!(
            victims
                .iter()
                .all(|&(key, c)| key.to_bits() == self.rank_key(c, now).to_bits()),
            "the index keys victims as rank_key does"
        );
        // Pass 2: evict descending by size until the clip fits, sparing
        // over-collected small candidates (ties: lower id first). The
        // SinglePass ablation keeps the pass-1 (ascending value) order,
        // whose every victim is needed.
        if self.eviction == EvictionMode::TwoPass {
            let size = |c: ClipId| self.space.size_of(c);
            victims.sort_unstable_by(|a, b| size(b.1).cmp(&size(a.1)).then_with(|| a.1.cmp(&b.1)));
            let (need, mut freed, mut planned) = (size(incoming), self.space.free(), 0);
            while freed < need && planned < victims.len() {
                freed += size(victims[planned].1);
                planned += 1;
            }
            victims.truncate(planned);
        }
        self.victims = victims;
    }
}

impl ClipCache for DynSimpleCache {
    fn name(&self) -> String {
        match self.admission {
            DynAdmission::Always => format!("DYNSimple(K={})", self.history.k()),
            DynAdmission::Bypass => format!("DYNSimple(K={},bypass)", self.history.k()),
        }
    }

    fn capacity(&self) -> ByteSize {
        self.space.capacity()
    }

    fn used(&self) -> ByteSize {
        self.space.used()
    }

    fn contains(&self, clip: ClipId) -> bool {
        self.space.contains(clip)
    }

    fn resident_clips(&self) -> Vec<ClipId> {
        self.space.resident_ids()
    }

    fn access_into(
        &mut self,
        clip: ClipId,
        now: Timestamp,
        evictions: &mut dyn EvictionSink,
    ) -> AccessEvent {
        if self.space.contains(clip) {
            self.index.remove(clip, &self.history);
            self.history.record(clip, now);
            self.index.insert(clip, &self.history);
            return AccessEvent::Hit;
        }
        self.history.record(clip, now);
        if !self.space.can_ever_fit(clip) {
            return AccessEvent::Miss { admitted: false };
        }
        self.plan_victims(clip, now);
        if self.admission == DynAdmission::Bypass {
            // Stream without caching when the incoming clip's estimated
            // value per byte is at most that of a clip it would displace.
            let incoming_value = self.rank_key(clip, now);
            if self.victims.iter().any(|&(key, _)| incoming_value <= key) {
                return AccessEvent::Miss { admitted: false };
            }
        }
        for &(_, victim) in &self.victims {
            self.index.remove(victim, &self.history);
        }
        self.index.insert(clip, &self.history);
        evict_and_admit(&mut self.space, &self.victims, clip, evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{assert_invariants, drive, tiny_repo};

    #[test]
    fn estimates_track_access_rates() {
        let repo = tiny_repo();
        let mut c = DynSimpleCache::new(repo, ByteSize::mb(150), 2);
        // Clip 1 referenced every other tick, clip 2 every 4 ticks.
        for t in 1..=16 {
            if t % 2 == 1 {
                c.access(ClipId::new(1), Timestamp(t));
            } else if t % 4 == 0 {
                c.access(ClipId::new(2), Timestamp(t));
            } else {
                c.access(ClipId::new(3), Timestamp(t));
            }
        }
        let now = Timestamp(17);
        let f1 = c.estimated_frequency(ClipId::new(1), now);
        let f2 = c.estimated_frequency(ClipId::new(2), now);
        assert!(f1 > f2, "f1 = {f1}, f2 = {f2}");
        let all = c.estimated_frequencies(now);
        let total: f64 = all.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn evicts_lowest_rate_per_byte() {
        let repo = tiny_repo();
        let mut c = DynSimpleCache::new(repo, ByteSize::mb(60), 2);
        // Clip 1 (10 MB) hot, clip 5 (50 MB) referenced once, long ago.
        c.access(ClipId::new(5), Timestamp(1));
        for t in 2..=9 {
            c.access(ClipId::new(1), Timestamp(t));
        }
        // Incoming 20 MB clip: clip 5 has far lower a/size.
        let out = c.access(ClipId::new(2), Timestamp(10));
        assert_eq!(out.evicted(), &[ClipId::new(5)]);
        assert!(c.contains(ClipId::new(1)));
    }

    #[test]
    fn second_pass_spares_small_over_collected_victims() {
        // Construct: free space 0, need 40 MB. Candidates by ascending
        // value: clip 1 (10 MB, coldest), clip 5 (50 MB, warmer).
        // Pass 1 over-collects both (10 < 40, 10+50 ≥ 40); pass 2 evicts
        // the 50 MB clip first, which alone suffices → clip 1 is spared.
        let repo = tiny_repo();
        let mut c = DynSimpleCache::new(repo, ByteSize::mb(60), 2);
        c.access(ClipId::new(1), Timestamp(1)); // coldest (oldest, small)
        c.access(ClipId::new(5), Timestamp(50));
        c.access(ClipId::new(5), Timestamp(51)); // clip 5 warm but bigger
        let out = c.access(ClipId::new(4), Timestamp(52)); // 40 MB
        assert_eq!(out.evicted(), &[ClipId::new(5)]);
        assert!(c.contains(ClipId::new(1)), "small victim must be spared");
    }

    #[test]
    fn history_survives_eviction() {
        let repo = tiny_repo();
        let mut c = DynSimpleCache::new(repo, ByteSize::mb(50), 2);
        c.access(ClipId::new(4), Timestamp(1));
        c.access(ClipId::new(5), Timestamp(2)); // evicts 4
        assert!(!c.contains(ClipId::new(4)));
        assert_eq!(c.history().last(ClipId::new(4)), Some(Timestamp(1)));
    }

    #[test]
    fn prune_history_forgets_stale_clips() {
        let repo = tiny_repo();
        let mut c = DynSimpleCache::new(repo, ByteSize::mb(100), 2);
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(50));
        assert_eq!(c.prune_history(Timestamp(10)), 1);
        assert_eq!(c.history().last(ClipId::new(1)), None);
        assert_eq!(c.history().last(ClipId::new(2)), Some(Timestamp(50)));
    }

    #[test]
    fn invariants_under_churn() {
        let repo = tiny_repo();
        let mut c = DynSimpleCache::new(Arc::clone(&repo), ByteSize::mb(70), 2);
        drive(&mut c, &[1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 3, 1, 4, 2, 5]);
        assert_invariants(&c, &repo);
    }

    #[test]
    fn rank_index_files_each_resident_under_its_history() {
        let repo = tiny_repo();
        for k in [1, 2, 32] {
            let mut c = DynSimpleCache::new(Arc::clone(&repo), ByteSize::mb(70), k);
            let mut t = 0;
            for (round, clips) in [[1u32, 2, 3, 1, 4], [5, 2, 1, 3, 3], [4, 1, 2, 5, 1]]
                .iter()
                .enumerate()
            {
                for &clip in clips {
                    t += 1;
                    c.access(ClipId::new(clip), Timestamp(t));
                }
                if round == 1 {
                    assert!(c.prune_history(Timestamp(t - 2)) > 0);
                }
                let index = &c.index;
                let mut filed = Vec::new();
                for s in 0..index.len.len() {
                    let members = index.members(s);
                    assert!(
                        members.windows(2).all(|w| w[0] < w[1]),
                        "class {s} out of order"
                    );
                    let set = index.occupied[s / WORD] & (1 << (s % WORD)) != 0;
                    assert_eq!(set, !members.is_empty(), "class {s}'s bit");
                    filed.extend(members.iter().map(|&e| (s, e)));
                }
                let mut want: Vec<(usize, Entry)> = c
                    .resident_clips()
                    .into_iter()
                    .map(|clip| index.slot(clip, &c.history))
                    .collect();
                want.sort_unstable();
                assert_eq!(filed, want, "K={k} after t={t}");
            }
        }
    }

    #[test]
    fn name_includes_k() {
        let c = DynSimpleCache::new(tiny_repo(), ByteSize::mb(10), 32);
        assert_eq!(c.name(), "DYNSimple(K=32)");
    }
}
