//! Aggregate statistics over a repository.
//!
//! Used by examples and the experiment harness to print a summary of the
//! database being simulated (clip counts per media type, size histogram,
//! `S_DB`, largest clip).

use crate::clip::MediaType;
use crate::repository::Repository;
use crate::units::ByteSize;
use std::collections::BTreeMap;
use std::fmt;

/// Summary statistics for a repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogStats {
    /// Total clip count.
    pub clips: usize,
    /// Number of audio clips.
    pub audio_clips: usize,
    /// Number of video clips.
    pub video_clips: usize,
    /// Total database size (`S_DB`).
    pub total_size: ByteSize,
    /// Largest clip size.
    pub max_clip_size: ByteSize,
    /// Smallest clip size.
    pub min_clip_size: ByteSize,
    /// Histogram of clip counts per distinct size.
    pub size_histogram: BTreeMap<ByteSize, usize>,
}

impl CatalogStats {
    /// Compute statistics for `repo`.
    pub fn of(repo: &Repository) -> Self {
        let mut audio = 0usize;
        let mut video = 0usize;
        let mut hist: BTreeMap<ByteSize, usize> = BTreeMap::new();
        let mut min = ByteSize::bytes(u64::MAX);
        for c in repo.iter() {
            match c.media {
                MediaType::Audio => audio += 1,
                MediaType::Video => video += 1,
            }
            *hist.entry(c.size).or_insert(0) += 1;
            min = min.min(c.size);
        }
        CatalogStats {
            clips: repo.len(),
            audio_clips: audio,
            video_clips: video,
            total_size: repo.total_size(),
            max_clip_size: repo.max_clip_size(),
            min_clip_size: min,
            size_histogram: hist,
        }
    }

    /// Mean clip size in bytes.
    pub fn mean_clip_size(&self) -> ByteSize {
        if self.clips == 0 {
            ByteSize::ZERO
        } else {
            self.total_size / self.clips as u64
        }
    }

    /// True when every clip shares one size (the equi-sized repositories of
    /// Figures 3 and 5.a).
    pub fn is_equi_sized(&self) -> bool {
        self.size_histogram.len() == 1
    }
}

impl fmt::Display for CatalogStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} clips ({} video, {} audio), S_DB = {}",
            self.clips, self.video_clips, self.audio_clips, self.total_size
        )?;
        writeln!(
            f,
            "clip sizes: min {}, mean {}, max {}",
            self.min_clip_size,
            self.mean_clip_size(),
            self.max_clip_size
        )?;
        for (size, count) in &self.size_histogram {
            writeln!(f, "  {count:4} clips of {size}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn paper_repo_stats() {
        let stats = CatalogStats::of(&paper::variable_sized_repository());
        assert_eq!(stats.clips, 576);
        assert_eq!(stats.audio_clips, 288);
        assert_eq!(stats.video_clips, 288);
        assert_eq!(stats.size_histogram.len(), 6);
        assert!(stats.size_histogram.values().all(|&count| count == 96));
        assert_eq!(stats.min_clip_size, ByteSize::bytes(2_200_000));
        assert_eq!(stats.max_clip_size, ByteSize::bytes(3_500_000_000));
        assert!(!stats.is_equi_sized());
    }

    #[test]
    fn equi_repo_stats() {
        let stats = CatalogStats::of(&paper::equi_sized_repository());
        assert!(stats.is_equi_sized());
        assert_eq!(stats.mean_clip_size(), ByteSize::gb(1));
    }

    #[test]
    fn display_renders() {
        let stats = CatalogStats::of(&paper::variable_sized_repository_of(6));
        let text = stats.to_string();
        assert!(text.contains("6 clips (3 video, 3 audio)"));
        assert!(text.contains("3.5 GB"));
    }
}
