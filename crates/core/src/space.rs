//! Shared residency and capacity bookkeeping.
//!
//! Every policy delegates the "which clips are resident, how many bytes are
//! used" state to [`CacheSpace`], so the capacity invariant lives in exactly
//! one place. The structure is dense (indexed by [`ClipId::index`]) because
//! repositories are fixed, known universes of clips.
//!
//! Residency is **chunk-granular**: each clip is resident as a *prefix* of
//! `p` chunks out of its total (see [`Repository::chunks_of`]). Storing the
//! prefix length — rather than a per-chunk bitmap — makes the prefix-retention
//! invariant ("never keep chunk `k+1` without chunk `k`") structural: it is
//! impossible to represent an orphaned tail chunk. Whole-clip caching is the
//! degenerate case where every clip has exactly one chunk, so `p ∈ {0, 1}`.

use clipcache_media::{ByteSize, ClipId, Repository};
use std::sync::Arc;

/// How much of a clip is resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// No chunk of the clip is resident.
    Absent,
    /// The first `n` chunks are resident (`0 < n < chunks_of(clip)`).
    Partial(u32),
    /// Every chunk of the clip is resident.
    Full,
}

/// Residency map + byte accounting for one cache.
#[derive(Debug, Clone)]
pub struct CacheSpace {
    repo: Arc<Repository>,
    capacity: ByteSize,
    used: ByteSize,
    /// Resident prefix length of each clip, in chunks (0 = absent).
    prefix: Vec<u32>,
    /// Total chunk count of each clip (always ≥ 1), precomputed.
    chunks: Vec<u32>,
    /// Clips with any residency (partial or full).
    resident_count: usize,
}

impl CacheSpace {
    /// Create an empty cache over `repo` with byte capacity `capacity`.
    pub fn new(repo: Arc<Repository>, capacity: ByteSize) -> Self {
        let n = repo.len();
        let chunks = repo.ids().map(|id| repo.chunks_of(id)).collect();
        CacheSpace {
            repo,
            capacity,
            used: ByteSize::ZERO,
            prefix: vec![0; n],
            chunks,
            resident_count: 0,
        }
    }

    /// The repository this cache serves.
    #[inline]
    pub fn repo(&self) -> &Repository {
        &self.repo
    }

    /// The byte capacity `S_T`.
    #[inline]
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently used.
    #[inline]
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Free bytes.
    #[inline]
    pub fn free(&self) -> ByteSize {
        self.capacity.saturating_sub(self.used)
    }

    /// Whether `clip` is **fully** resident.
    #[inline]
    pub fn contains(&self, clip: ClipId) -> bool {
        self.prefix[clip.index()] == self.chunks[clip.index()]
    }

    /// How much of `clip` is resident.
    #[inline]
    pub fn residency(&self, clip: ClipId) -> Residency {
        let p = self.prefix[clip.index()];
        if p == 0 {
            Residency::Absent
        } else if p == self.chunks[clip.index()] {
            Residency::Full
        } else {
            Residency::Partial(p)
        }
    }

    /// Resident prefix length of `clip`, in chunks (0 = absent).
    #[inline]
    pub fn resident_prefix(&self, clip: ClipId) -> u32 {
        self.prefix[clip.index()]
    }

    /// Total chunk count of `clip` (≥ 1).
    #[inline]
    pub fn chunks_of(&self, clip: ClipId) -> u32 {
        self.chunks[clip.index()]
    }

    /// Number of clips with any residency (partial or full).
    #[inline]
    pub fn resident_count(&self) -> usize {
        self.resident_count
    }

    /// Size of `clip` per the repository.
    #[inline]
    pub fn size_of(&self, clip: ClipId) -> ByteSize {
        self.repo.size_of(clip)
    }

    /// Bytes of `clip` currently resident.
    #[inline]
    pub fn resident_bytes(&self, clip: ClipId) -> ByteSize {
        // [`Repository::prefix_bytes`] off the cached chunk count, so no
        // division: a full prefix is the clip, a shorter one whole chunks.
        let p = self.prefix[clip.index()];
        if p == self.chunks[clip.index()] {
            self.size_of(clip)
        } else {
            ByteSize::bytes(self.repo.chunk_size().as_u64() * u64::from(p))
        }
    }

    /// Bytes of `clip` **not** resident (its missing tail).
    #[inline]
    pub fn tail_bytes(&self, clip: ClipId) -> ByteSize {
        self.size_of(clip) - self.resident_bytes(clip)
    }

    /// Whether `clip` could ever fit (size ≤ capacity).
    #[inline]
    pub fn can_ever_fit(&self, clip: ClipId) -> bool {
        self.size_of(clip) <= self.capacity
    }

    /// Whether `clip` fits in the current free space.
    #[inline]
    pub fn fits_now(&self, clip: ClipId) -> bool {
        self.size_of(clip) <= self.free()
    }

    /// All **fully** resident clip ids, in id order.
    pub fn resident_ids(&self) -> Vec<ClipId> {
        self.prefix
            .iter()
            .zip(self.chunks.iter())
            .enumerate()
            .filter(|&(_, (&p, &t))| p == t)
            .map(|(i, _)| ClipId::from_index(i))
            .collect()
    }

    /// Iterate clip ids with **any** residency (partial or full) without
    /// allocating. Victim scans use this: a partially resident clip still
    /// holds bytes and must stay evictable.
    pub fn iter_resident(&self) -> impl Iterator<Item = ClipId> + '_ {
        self.prefix
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0)
            .map(|(i, _)| ClipId::from_index(i))
    }

    /// All partially resident clips as `(clip, resident_prefix)`, in id
    /// order. Empty for whole-clip policies and unchunked repositories.
    pub fn partials(&self) -> Vec<(ClipId, u32)> {
        self.prefix
            .iter()
            .zip(self.chunks.iter())
            .enumerate()
            .filter(|&(_, (&p, &t))| p > 0 && p < t)
            .map(|(i, (&p, _))| (ClipId::from_index(i), p))
            .collect()
    }

    /// Materialize `clip` in full.
    ///
    /// # Panics
    /// If the clip is already (partially) resident or does not fit in free
    /// space — policies must evict first; violating this is a policy bug.
    pub fn insert(&mut self, clip: ClipId) {
        assert!(
            self.prefix[clip.index()] == 0,
            "{clip} inserted while already resident"
        );
        let size = self.size_of(clip);
        assert!(
            size <= self.free(),
            "{clip} ({size}) exceeds free space ({free})",
            free = self.free()
        );
        self.prefix[clip.index()] = self.chunks[clip.index()];
        self.resident_count += 1;
        self.used += size;
    }

    /// Materialize the first `prefix` chunks of `clip` (snapshot restore).
    ///
    /// # Panics
    /// If the clip is already resident, `prefix` is zero or out of range,
    /// or the prefix bytes do not fit in free space.
    pub fn insert_prefix(&mut self, clip: ClipId, prefix: u32) {
        assert!(
            self.prefix[clip.index()] == 0,
            "{clip} inserted while already resident"
        );
        let total = self.chunks[clip.index()];
        assert!(
            prefix > 0 && prefix <= total,
            "{clip}: prefix {prefix} out of range (1..={total})"
        );
        let bytes = self.repo.prefix_bytes(clip, prefix);
        assert!(
            bytes <= self.free(),
            "{clip} prefix ({bytes}) exceeds free space ({free})",
            free = self.free()
        );
        self.prefix[clip.index()] = prefix;
        self.resident_count += 1;
        self.used += bytes;
    }

    /// Swap `clip` out entirely (whatever prefix is resident).
    ///
    /// # Panics
    /// If the clip is not resident at all.
    pub fn remove(&mut self, clip: ClipId) {
        assert!(
            self.prefix[clip.index()] > 0,
            "{clip} evicted while not resident"
        );
        self.used -= self.resident_bytes(clip);
        self.prefix[clip.index()] = 0;
        self.resident_count -= 1;
    }

    /// Reclaim at least `deficit` bytes from `clip`'s tail: release the
    /// shortest run of whole tail chunks whose bytes cover `deficit`, or
    /// the whole clip if no shorter run does. A zero deficit releases
    /// nothing.
    ///
    /// O(1): the surviving prefix is computed, not walked, and equals
    /// what trimming one tail chunk at a time until `deficit` is freed
    /// (or the clip is gone) reaches.
    ///
    /// Returns `true` when the clip is now fully absent.
    ///
    /// # Panics
    /// If the clip is not resident at all.
    pub fn trim_tail(&mut self, clip: ClipId, deficit: ByteSize) -> bool {
        let i = clip.index();
        let p = self.prefix[i];
        assert!(p > 0, "{clip} trimmed while not resident");
        if deficit == ByteSize::ZERO {
            return false;
        }
        let resident = self.resident_bytes(clip).as_u64();
        let cs = self.repo.chunk_size().as_u64();
        // Any prefix shorter than the whole clip is whole chunks, so the
        // longest one within `resident - deficit` bytes is a division
        // (and shorter than `p`, since the deficit is positive). A
        // one-chunk prefix — every unchunked clip — simply goes.
        let keep = match resident.checked_sub(deficit.as_u64()) {
            Some(left) if p > 1 => left / cs,
            _ => 0,
        };
        self.used -= ByteSize::bytes(resident - cs * keep);
        self.prefix[i] = keep as u32;
        if keep == 0 {
            self.resident_count -= 1;
            true
        } else {
            false
        }
    }

    /// Extend a partial prefix to full residency (tail prefetch landed).
    ///
    /// # Panics
    /// If the clip is not partially resident or the tail does not fit in
    /// free space — policies must evict first.
    pub fn complete(&mut self, clip: ClipId) {
        let p = self.prefix[clip.index()];
        let total = self.chunks[clip.index()];
        assert!(
            p > 0 && p < total,
            "{clip} completed while not partially resident (prefix {p}/{total})"
        );
        let tail = self.tail_bytes(clip);
        assert!(
            tail <= self.free(),
            "{clip} tail ({tail}) exceeds free space ({free})",
            free = self.free()
        );
        self.used += tail;
        self.prefix[clip.index()] = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipcache_media::paper;

    fn space(cap_gb: u64) -> CacheSpace {
        let repo = Arc::new(paper::variable_sized_repository_of(12));
        CacheSpace::new(repo, ByteSize::gb(cap_gb))
    }

    /// Same repo, 100 MB chunks → the multi-GB videos have many chunks.
    fn chunked_space(cap_gb: u64) -> CacheSpace {
        let repo =
            Arc::new(paper::variable_sized_repository_of(12).with_chunk_size(ByteSize::mb(100)));
        CacheSpace::new(repo, ByteSize::gb(cap_gb))
    }

    #[test]
    fn insert_remove_accounting() {
        let mut s = space(10);
        let big = ClipId::new(1); // 3.5 GB video
        let small = ClipId::new(2); // 8.8 MB audio
        assert_eq!(s.used(), ByteSize::ZERO);
        s.insert(big);
        s.insert(small);
        assert_eq!(s.used(), ByteSize::bytes(3_508_800_000));
        assert_eq!(s.resident_count(), 2);
        assert!(s.contains(big));
        s.remove(big);
        assert!(!s.contains(big));
        assert_eq!(s.used(), ByteSize::bytes(8_800_000));
        assert_eq!(s.resident_count(), 1);
    }

    #[test]
    fn fits_checks() {
        let mut s = space(4);
        assert!(s.can_ever_fit(ClipId::new(1))); // 3.5 GB in 4 GB
        assert!(s.fits_now(ClipId::new(1)));
        s.insert(ClipId::new(1));
        assert!(!s.fits_now(ClipId::new(3))); // 1.8 GB doesn't fit in 0.5 GB
        assert!(s.fits_now(ClipId::new(2)));
    }

    #[test]
    fn clip_larger_than_cache() {
        let s = space(1);
        assert!(!s.can_ever_fit(ClipId::new(1))); // 3.5 GB in 1 GB cache
        assert!(s.can_ever_fit(ClipId::new(5))); // 0.9 GB
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut s = space(10);
        s.insert(ClipId::new(2));
        s.insert(ClipId::new(2));
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn remove_absent_panics() {
        let mut s = space(10);
        s.remove(ClipId::new(2));
    }

    #[test]
    #[should_panic(expected = "exceeds free space")]
    fn overfill_panics() {
        let mut s = space(4);
        s.insert(ClipId::new(1)); // 3.5 GB
        s.insert(ClipId::new(3)); // 1.8 GB > 0.5 GB free
    }

    #[test]
    fn resident_ids_in_order() {
        let mut s = space(10);
        s.insert(ClipId::new(5));
        s.insert(ClipId::new(2));
        assert_eq!(s.resident_ids(), vec![ClipId::new(2), ClipId::new(5)]);
        assert_eq!(s.iter_resident().count(), 2);
    }

    #[test]
    fn unchunked_residency_is_binary() {
        let mut s = space(10);
        let c = ClipId::new(1);
        assert_eq!(s.residency(c), Residency::Absent);
        assert_eq!(s.chunks_of(c), 1);
        s.insert(c);
        assert_eq!(s.residency(c), Residency::Full);
        assert_eq!(s.resident_prefix(c), 1);
        assert!(!s.trim_tail(c, ByteSize::ZERO)); // nothing owed, nothing shed
        assert!(s.trim_tail(c, ByteSize::bytes(1))); // one chunk → trimming == eviction
        assert_eq!(s.residency(c), Residency::Absent);
        assert_eq!(s.used(), ByteSize::ZERO);
    }

    #[test]
    fn trim_tail_walks_inward_and_frees_chunk_bytes() {
        let mut s = chunked_space(10);
        let c = ClipId::new(1); // 3.5 GB → 35 × 100 MB chunks
        assert_eq!(s.chunks_of(c), 35);
        s.insert(c);
        let full = s.used();
        assert!(!s.trim_tail(c, ByteSize::bytes(1))); // one byte owed → one chunk
        assert_eq!(s.residency(c), Residency::Partial(34));
        assert_eq!(full - s.used(), ByteSize::mb(100));
        assert!(!s.contains(c)); // partial ≠ full residency
        assert_eq!(s.resident_count(), 1); // ...but still holds bytes
        assert_eq!(s.partials(), vec![(c, 34)]);
        assert_eq!(s.resident_ids(), vec![]); // full-only view
        assert_eq!(s.iter_resident().collect::<Vec<_>>(), vec![c]);
        // 250 MB owed → the shortest covering run is three chunks.
        assert!(!s.trim_tail(c, ByteSize::mb(250)));
        assert_eq!(s.residency(c), Residency::Partial(31));
        assert_eq!(full - s.used(), ByteSize::mb(400));
        // A deficit at or above the resident bytes takes the whole clip.
        assert!(s.trim_tail(c, ByteSize::mb(3_100)));
        assert_eq!(s.used(), ByteSize::ZERO);
        assert_eq!(s.resident_count(), 0);
    }

    #[test]
    fn trim_last_partial_chunk_first() {
        // 3.5 GB / 100 MB = exactly 35 chunks; clip 3 is 1.8 GB = 18 chunks.
        // Use a chunk size that doesn't divide the clip: 1.8 GB / 700 MB →
        // 3 chunks, last one 400 MB.
        let repo =
            Arc::new(paper::variable_sized_repository_of(12).with_chunk_size(ByteSize::mb(700)));
        let mut s = CacheSpace::new(repo, ByteSize::gb(10));
        let c = ClipId::new(3);
        assert_eq!(s.chunks_of(c), 3);
        s.insert(c);
        let full = s.used();
        assert!(!s.trim_tail(c, ByteSize::bytes(1))); // sheds the short 400 MB tail chunk
        assert_eq!(full - s.used(), s.size_of(c) - ByteSize::mb(1400));
        assert!(!s.trim_tail(c, ByteSize::bytes(1))); // sheds a full 700 MB chunk
        assert!(s.trim_tail(c, ByteSize::bytes(1))); // sheds the head chunk → gone
        assert_eq!(s.used(), ByteSize::ZERO);
        assert_eq!(s.resident_count(), 0);
        // One byte past the short tail chunk: the tail plus one full chunk.
        s.insert(c);
        let tail = s.size_of(c) - ByteSize::mb(1400);
        assert!(!s.trim_tail(c, tail + ByteSize::bytes(1)));
        assert_eq!(s.residency(c), Residency::Partial(1));
        assert_eq!(s.used(), ByteSize::mb(700));
    }

    #[test]
    fn complete_restores_full_residency() {
        let mut s = chunked_space(10);
        let c = ClipId::new(1);
        s.insert(c);
        assert!(!s.trim_tail(c, ByteSize::mb(200)));
        assert_eq!(s.tail_bytes(c), ByteSize::mb(200));
        assert!(s.tail_bytes(c) <= s.free());
        s.complete(c);
        assert_eq!(s.residency(c), Residency::Full);
        assert_eq!(s.used(), s.size_of(c));
    }

    #[test]
    fn insert_prefix_accounts_prefix_bytes() {
        let mut s = chunked_space(10);
        let c = ClipId::new(1);
        s.insert_prefix(c, 5);
        assert_eq!(s.residency(c), Residency::Partial(5));
        assert_eq!(s.used(), ByteSize::mb(500));
        assert_eq!(s.resident_bytes(c), ByteSize::mb(500));
        s.remove(c); // remove works on partials too
        assert_eq!(s.used(), ByteSize::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_prefix_rejects_overlong_prefix() {
        let mut s = chunked_space(10);
        s.insert_prefix(ClipId::new(1), 36); // clip has 35 chunks
    }

    #[test]
    #[should_panic(expected = "not partially resident")]
    fn complete_on_full_clip_panics() {
        let mut s = chunked_space(10);
        s.insert(ClipId::new(1));
        s.complete(ClipId::new(1));
    }
}
