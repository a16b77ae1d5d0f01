//! The clip repository (`S_DB` in the paper's Table 1).
//!
//! Beyond the paper's whole-clip model, a repository can be *chunked*
//! ([`Repository::with_chunk_size`]): every clip is then addressed as a
//! run of fixed-size chunks ([`ChunkId`]), and caches may keep a clip's
//! head chunks (a *prefix*) while evicting its tail. An unchunked
//! repository — the default, and any chunk size at or above the largest
//! clip — treats each clip as exactly one chunk, which reproduces the
//! paper's whole-clip behavior bit for bit.

use crate::clip::{ChunkId, Clip, ClipId, MediaType};
use crate::error::MediaError;
use crate::units::{Bandwidth, ByteSize, Duration};

/// The server-side database of clips.
///
/// Clips are stored densely, indexed by [`ClipId::index`]. The repository is
/// immutable after construction; policies and workload generators borrow it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repository {
    clips: Vec<Clip>,
    total_size: ByteSize,
    max_clip_size: ByteSize,
    max_display_bandwidth: Bandwidth,
    /// Chunk length for chunk-granular residency; `ByteSize::ZERO` means
    /// unchunked (every clip is a single chunk — whole-clip behavior).
    chunk_size: ByteSize,
}

impl Repository {
    /// Build a repository from a dense clip list (ids must be 1..=n in order).
    ///
    /// Use [`RepositoryBuilder`] for incremental construction with
    /// validation.
    pub fn from_clips(clips: Vec<Clip>) -> Result<Self, MediaError> {
        if clips.is_empty() {
            return Err(MediaError::EmptyRepository);
        }
        for (i, c) in clips.iter().enumerate() {
            if c.id.index() != i {
                return Err(MediaError::DuplicateClip { id: c.id.get() });
            }
            if c.size == ByteSize::ZERO {
                return Err(MediaError::ZeroSizedClip { id: c.id.get() });
            }
        }
        let total_size = clips.iter().map(|c| c.size).sum();
        let max_clip_size = clips.iter().map(|c| c.size).max().unwrap_or(ByteSize::ZERO);
        let max_display_bandwidth = clips
            .iter()
            .map(|c| c.display_bandwidth)
            .max()
            .unwrap_or(Bandwidth::ZERO);
        Ok(Repository {
            clips,
            total_size,
            max_clip_size,
            max_display_bandwidth,
            chunk_size: ByteSize::ZERO,
        })
    }

    /// Set the chunk length for chunk-granular residency.
    ///
    /// `ByteSize::ZERO` means unchunked; any chunk size at or above the
    /// largest clip is equivalent (every clip is one chunk), so the
    /// whole-clip model is always the degenerate case of this one.
    pub fn with_chunk_size(mut self, chunk_size: ByteSize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Number of clips (`N` in Table 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.clips.len()
    }

    /// True when the repository holds no clips (never true post-construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.clips.is_empty()
    }

    /// Total database size `S_DB = Σ size(i)`.
    #[inline]
    pub fn total_size(&self) -> ByteSize {
        self.total_size
    }

    /// The largest single clip. The paper assumes the cache exceeds this.
    #[inline]
    pub fn max_clip_size(&self) -> ByteSize {
        self.max_clip_size
    }

    /// The highest display-bandwidth requirement across clips.
    #[inline]
    pub fn max_display_bandwidth(&self) -> Bandwidth {
        self.max_display_bandwidth
    }

    /// Look up a clip. Panics if `id` is out of range — ids come from the
    /// workload generator which is constructed against this repository.
    #[inline]
    pub fn clip(&self, id: ClipId) -> &Clip {
        &self.clips[id.index()]
    }

    /// Look up a clip, returning `None` when out of range.
    #[inline]
    pub fn get(&self, id: ClipId) -> Option<&Clip> {
        self.clips.get(id.index())
    }

    /// Size of a clip in bytes.
    #[inline]
    pub fn size_of(&self, id: ClipId) -> ByteSize {
        self.clip(id).size
    }

    /// Iterate over all clips in id order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Clip> {
        self.clips.iter()
    }

    /// Iterate over all clip ids in order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = ClipId> + '_ {
        (0..self.clips.len()).map(ClipId::from_index)
    }

    /// Derive a cache capacity `S_T` from a `S_T / S_DB` ratio.
    #[inline]
    pub fn cache_capacity_for_ratio(&self, ratio: f64) -> ByteSize {
        self.total_size.scale(ratio)
    }

    /// The repository-wide chunk length. `ByteSize::ZERO` means unchunked.
    #[inline]
    pub fn chunk_size(&self) -> ByteSize {
        self.chunk_size
    }

    /// True when residency is chunk-granular (a non-zero chunk size was set).
    #[inline]
    pub fn is_chunked(&self) -> bool {
        self.chunk_size != ByteSize::ZERO
    }

    /// Number of chunks of a clip: `ceil(size / chunk_size)`, and exactly 1
    /// when unchunked or when the chunk size covers the whole clip.
    #[inline]
    pub fn chunks_of(&self, id: ClipId) -> u32 {
        let size = self.size_of(id).as_u64();
        let cs = self.chunk_size.as_u64();
        if cs == 0 {
            1
        } else {
            (size.div_ceil(cs)).max(1) as u32
        }
    }

    /// Bytes covered by the first `chunks` chunks of a clip.
    ///
    /// The last chunk of a clip may be short, so a full prefix
    /// (`chunks == chunks_of(id)`) is exactly the clip size.
    /// Panics if `chunks` exceeds the clip's chunk count.
    #[inline]
    pub fn prefix_bytes(&self, id: ClipId, chunks: u32) -> ByteSize {
        let total = self.chunks_of(id);
        assert!(
            chunks <= total,
            "{id}: prefix of {chunks} chunks exceeds chunk count {total}"
        );
        if chunks == total {
            self.size_of(id)
        } else {
            ByteSize::bytes(self.chunk_size.as_u64() * u64::from(chunks))
        }
    }

    /// Bytes of one specific chunk (the last chunk may be short).
    /// Panics if `k` is out of range for the clip.
    #[inline]
    pub fn chunk_bytes(&self, id: ClipId, k: u32) -> ByteSize {
        let total = self.chunks_of(id);
        assert!(k < total, "{id}: chunk index {k} out of range (< {total})");
        self.prefix_bytes(id, k + 1) - self.prefix_bytes(id, k)
    }

    /// Address chunk `k` of a clip. Panics if `k` is out of range.
    #[inline]
    pub fn chunk(&self, id: ClipId, k: u32) -> ChunkId {
        assert!(
            k < self.chunks_of(id),
            "{id}: chunk index {k} out of range (< {})",
            self.chunks_of(id)
        );
        ChunkId::new(id, k)
    }
}

/// Incremental, validating repository construction.
///
/// ```
/// use clipcache_media::{RepositoryBuilder, MediaType, ByteSize, Bandwidth};
///
/// let repo = RepositoryBuilder::new()
///     .push(MediaType::Video, ByteSize::gb(1), Bandwidth::mbps(4))
///     .push(MediaType::Audio, ByteSize::mb(9), Bandwidth::kbps(300))
///     .build()
///     .unwrap();
/// assert_eq!(repo.len(), 2);
/// assert_eq!(repo.total_size(), ByteSize::bytes(1_009_000_000));
/// ```
#[derive(Debug, Default)]
pub struct RepositoryBuilder {
    clips: Vec<Clip>,
    chunk_size: ByteSize,
}

impl RepositoryBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the chunk length for chunk-granular residency
    /// (see [`Repository::with_chunk_size`]).
    pub fn chunk_size(mut self, chunk_size: ByteSize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Append a clip; the id is assigned sequentially (1-based) and the
    /// duration derived from size and display rate.
    pub fn push(mut self, media: MediaType, size: ByteSize, bw: Bandwidth) -> Self {
        let id = ClipId::from_index(self.clips.len());
        self.clips
            .push(Clip::with_derived_duration(id, media, size, bw));
        self
    }

    /// Append a clip with an explicit duration.
    pub fn push_with_duration(
        mut self,
        media: MediaType,
        size: ByteSize,
        bw: Bandwidth,
        duration: Duration,
    ) -> Self {
        let id = ClipId::from_index(self.clips.len());
        self.clips.push(Clip::new(id, media, size, bw, duration));
        self
    }

    /// Append `n` identical clips.
    pub fn push_uniform(
        mut self,
        n: usize,
        media: MediaType,
        size: ByteSize,
        bw: Bandwidth,
    ) -> Self {
        for _ in 0..n {
            let id = ClipId::from_index(self.clips.len());
            self.clips
                .push(Clip::with_derived_duration(id, media, size, bw));
        }
        self
    }

    /// Number of clips added so far.
    pub fn len(&self) -> usize {
        self.clips.len()
    }

    /// True when no clips have been added yet.
    pub fn is_empty(&self) -> bool {
        self.clips.is_empty()
    }

    /// Finalize and validate.
    pub fn build(self) -> Result<Repository, MediaError> {
        Repository::from_clips(self.clips).map(|r| r.with_chunk_size(self.chunk_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_repo() -> Repository {
        RepositoryBuilder::new()
            .push(MediaType::Video, ByteSize::gb(2), Bandwidth::mbps(4))
            .push(MediaType::Audio, ByteSize::mb(5), Bandwidth::kbps(300))
            .push(MediaType::Video, ByteSize::gb(1), Bandwidth::mbps(4))
            .build()
            .unwrap()
    }

    #[test]
    fn totals_and_max() {
        let r = small_repo();
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_size(), ByteSize::bytes(3_005_000_000));
        assert_eq!(r.max_clip_size(), ByteSize::gb(2));
        assert_eq!(r.max_display_bandwidth(), Bandwidth::mbps(4));
    }

    #[test]
    fn lookup() {
        let r = small_repo();
        assert_eq!(r.clip(ClipId::new(2)).media, MediaType::Audio);
        assert_eq!(r.size_of(ClipId::new(3)), ByteSize::gb(1));
        assert!(r.get(ClipId::new(4)).is_none());
    }

    #[test]
    fn ids_iterate_in_order() {
        let r = small_repo();
        let ids: Vec<u32> = r.ids().map(|i| i.get()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn cache_capacity_ratio() {
        let r = small_repo();
        let cap = r.cache_capacity_for_ratio(0.5);
        assert_eq!(cap, ByteSize::bytes(1_502_500_000));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            RepositoryBuilder::new().build().unwrap_err(),
            MediaError::EmptyRepository
        );
    }

    #[test]
    fn zero_sized_rejected() {
        let err = RepositoryBuilder::new()
            .push(MediaType::Audio, ByteSize::ZERO, Bandwidth::kbps(300))
            .build()
            .unwrap_err();
        assert_eq!(err, MediaError::ZeroSizedClip { id: 1 });
    }

    #[test]
    fn non_dense_ids_rejected() {
        let clips = vec![Clip::with_derived_duration(
            ClipId::new(2),
            MediaType::Audio,
            ByteSize::mb(1),
            Bandwidth::kbps(300),
        )];
        assert_eq!(
            Repository::from_clips(clips).unwrap_err(),
            MediaError::DuplicateClip { id: 2 }
        );
    }

    #[test]
    fn push_uniform_appends_identical_clips() {
        let r = RepositoryBuilder::new()
            .push_uniform(4, MediaType::Video, ByteSize::gb(1), Bandwidth::mbps(4))
            .build()
            .unwrap();
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|c| c.size == ByteSize::gb(1)));
    }

    #[test]
    fn unchunked_repo_is_one_chunk_per_clip() {
        let r = small_repo();
        assert!(!r.is_chunked());
        for id in r.ids() {
            assert_eq!(r.chunks_of(id), 1);
            assert_eq!(r.prefix_bytes(id, 1), r.size_of(id));
            assert_eq!(r.chunk_bytes(id, 0), r.size_of(id));
            assert_eq!(r.chunk(id, 0), ChunkId::new(id, 0));
        }
    }

    #[test]
    fn chunk_size_at_or_above_largest_clip_is_degenerate() {
        let r = small_repo().with_chunk_size(ByteSize::gb(2));
        assert!(r.is_chunked());
        for id in r.ids() {
            assert_eq!(r.chunks_of(id), 1);
            assert_eq!(r.prefix_bytes(id, 1), r.size_of(id));
        }
    }

    #[test]
    fn chunk_geometry_with_short_last_chunk() {
        // clip#2 is 5 MB; 2 MB chunks → 3 chunks, last one 1 MB.
        let r = small_repo().with_chunk_size(ByteSize::mb(2));
        let id = ClipId::new(2);
        assert_eq!(r.chunks_of(id), 3);
        assert_eq!(r.prefix_bytes(id, 0), ByteSize::ZERO);
        assert_eq!(r.prefix_bytes(id, 1), ByteSize::mb(2));
        assert_eq!(r.prefix_bytes(id, 2), ByteSize::mb(4));
        assert_eq!(r.prefix_bytes(id, 3), ByteSize::mb(5));
        assert_eq!(r.chunk_bytes(id, 0), ByteSize::mb(2));
        assert_eq!(r.chunk_bytes(id, 2), ByteSize::mb(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chunk_index_out_of_range_panics() {
        let r = small_repo().with_chunk_size(ByteSize::mb(2));
        let _ = r.chunk_bytes(ClipId::new(2), 3);
    }

    #[test]
    fn builder_sets_chunk_size() {
        let r = RepositoryBuilder::new()
            .push(MediaType::Audio, ByteSize::mb(5), Bandwidth::kbps(300))
            .chunk_size(ByteSize::mb(1))
            .build()
            .unwrap();
        assert_eq!(r.chunk_size(), ByteSize::mb(1));
        assert_eq!(r.chunks_of(ClipId::new(1)), 5);
    }
}
