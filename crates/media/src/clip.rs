//! Clips and their immutable attributes.

use crate::units::{Bandwidth, ByteSize, Duration};
use std::fmt;

/// The identity of a clip in the repository.
///
/// Clip ids are **1-based**, matching the paper's "We number clips from 1 to
/// 576". Id 0 is reserved as invalid; constructors reject it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClipId(u32);

impl ClipId {
    /// Construct a clip id. Panics on 0 (ids are 1-based).
    #[inline]
    pub fn new(id: u32) -> Self {
        assert!(id != 0, "clip ids are 1-based; 0 is invalid");
        ClipId(id)
    }

    /// The raw 1-based id.
    #[inline]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// The 0-based index into repository-parallel arrays.
    #[inline]
    pub const fn index(self) -> usize {
        (self.0 - 1) as usize
    }

    /// Construct from a 0-based index.
    #[inline]
    pub fn from_index(idx: usize) -> Self {
        ClipId::new(idx as u32 + 1)
    }
}

impl fmt::Display for ClipId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clip#{}", self.0)
    }
}

/// The identity of one fixed-size chunk of a clip.
///
/// Chunk indexes are **0-based** and count from the head of the clip:
/// chunk 0 is the first bytes a display session needs, so a cache that
/// keeps a clip's chunks `0..k` holds a *prefix* that can mask startup
/// latency while the tail streams in. The chunk length itself is a
/// repository-wide property ([`crate::Repository::chunk_size`]); an
/// unchunked repository treats every clip as a single chunk, which is the
/// degenerate whole-clip case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId {
    /// The clip this chunk belongs to.
    pub clip: ClipId,
    /// The 0-based chunk index from the head of the clip.
    pub index: u32,
}

impl ChunkId {
    /// Construct a chunk id.
    #[inline]
    pub fn new(clip: ClipId, index: u32) -> Self {
        ChunkId { clip, index }
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.clip, self.index)
    }
}

/// The media type of a clip.
///
/// The paper's repository is half audio (300 Kbps display rate) and half
/// video (4 Mbps): "Odd numbered clips are video and even numbered clips are
/// audio."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaType {
    /// An audio clip (paper default display rate: 300 Kbps).
    Audio,
    /// A video clip (paper default display rate: 4 Mbps).
    Video,
}

impl MediaType {
    /// The paper's display-bandwidth requirement for this media type.
    #[inline]
    pub fn paper_display_bandwidth(self) -> Bandwidth {
        match self {
            MediaType::Audio => Bandwidth::kbps(300),
            MediaType::Video => Bandwidth::mbps(4),
        }
    }
}

impl fmt::Display for MediaType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaType::Audio => write!(f, "audio"),
            MediaType::Video => write!(f, "video"),
        }
    }
}

/// A clip: an immutable continuous-media object.
///
/// A clip's `size` and `display_bandwidth` drive every policy decision in
/// the workspace; `duration` is carried for the latency/streaming substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clip {
    /// The clip's 1-based identity.
    pub id: ClipId,
    /// The clip's media type.
    pub media: MediaType,
    /// Size in bytes (`size(i)` in the paper's Table 1).
    pub size: ByteSize,
    /// Display-bandwidth requirement (`B_Display(i)`).
    pub display_bandwidth: Bandwidth,
    /// Display time of the clip.
    pub duration: Duration,
}

impl Clip {
    /// Construct a clip with an explicit duration.
    pub fn new(
        id: ClipId,
        media: MediaType,
        size: ByteSize,
        display_bandwidth: Bandwidth,
        duration: Duration,
    ) -> Self {
        Clip {
            id,
            media,
            size,
            display_bandwidth,
            duration,
        }
    }

    /// Construct a clip whose duration is derived from size and display rate.
    pub fn with_derived_duration(
        id: ClipId,
        media: MediaType,
        size: ByteSize,
        display_bandwidth: Bandwidth,
    ) -> Self {
        let secs = if display_bandwidth.as_bps() == 0 {
            0
        } else {
            size.as_u64() * 8 / display_bandwidth.as_bps()
        };
        Clip {
            id,
            media,
            size,
            display_bandwidth,
            duration: Duration::secs(secs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_id_is_one_based() {
        let id = ClipId::new(1);
        assert_eq!(id.get(), 1);
        assert_eq!(id.index(), 0);
        assert_eq!(ClipId::from_index(0), id);
        assert_eq!(ClipId::from_index(575).get(), 576);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn clip_id_zero_rejected() {
        let _ = ClipId::new(0);
    }

    #[test]
    fn media_type_paper_bandwidths() {
        assert_eq!(
            MediaType::Audio.paper_display_bandwidth(),
            Bandwidth::kbps(300)
        );
        assert_eq!(
            MediaType::Video.paper_display_bandwidth(),
            Bandwidth::mbps(4)
        );
    }

    #[test]
    fn derived_duration() {
        // 3.6 GB at 4 Mbps = 7200 s = 2 h.
        let c = Clip::with_derived_duration(
            ClipId::new(1),
            MediaType::Video,
            ByteSize::bytes(3_600_000_000),
            Bandwidth::mbps(4),
        );
        assert_eq!(c.duration, Duration::hours(2));
    }

    #[test]
    fn clip_id_display() {
        assert_eq!(ClipId::new(7).to_string(), "clip#7");
    }
}
