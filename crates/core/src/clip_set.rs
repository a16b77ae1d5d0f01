//! A fixed bit set over clip indices.
//!
//! Residency and victim scores are stored densely, one slot per clip of
//! the repository, but a cache holds only a fraction of the repository at
//! a time — a sharded service's shard sees about one clip in four. A
//! `ClipSet` marks the occupied slots so that scans visit only those:
//! iteration costs O(members + n/64) instead of O(n). It yields clips in
//! ascending id order, the order every scan's tie-break depends on.

use clipcache_media::ClipId;

/// Bits per word.
const WORD: usize = u64::BITS as usize;

/// A set of clips over a universe of `n` clip slots, `n.div_ceil(64)`
/// words, iterated in ascending id order.
#[derive(Debug, Clone)]
pub(crate) struct ClipSet {
    words: Vec<u64>,
    len: usize,
}

impl ClipSet {
    /// An empty set over `n` clip slots (indices `0..n`).
    pub(crate) fn new(n: usize) -> Self {
        ClipSet {
            words: vec![0; n.div_ceil(WORD)],
            len: 0,
        }
    }

    /// Number of clips in the set.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no clip.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add `clip`; returns `true` if it was not already present.
    ///
    /// # Panics
    /// If `clip` lies beyond the set's word range.
    #[inline]
    pub(crate) fn insert(&mut self, clip: ClipId) -> bool {
        let i = clip.index();
        let word = &mut self.words[i / WORD];
        let bit = 1 << (i % WORD);
        let fresh = *word & bit == 0;
        *word |= bit;
        // Counted with a branch: rustc 1.95.0 miscompiles the branchless
        // `self.len += usize::from(fresh)` here at `-O` (the bit is set but
        // the count is not), which `insert_twice_and_remove_absent_are_no_ops`
        // catches under `--release`.
        if fresh {
            self.len += 1;
        }
        fresh
    }

    /// Drop `clip`; returns `true` if it was present (absent: no-op).
    ///
    /// # Panics
    /// If `clip` lies beyond the set's word range.
    #[inline]
    pub(crate) fn remove(&mut self, clip: ClipId) -> bool {
        let i = clip.index();
        let word = &mut self.words[i / WORD];
        let bit = 1 << (i % WORD);
        let present = *word & bit != 0;
        *word &= !bit;
        if present {
            self.len -= 1;
        }
        present
    }

    /// The clips in the set, in ascending id order.
    pub(crate) fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            base: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Ascending-order iterator over a [`ClipSet`] (see [`ClipSet::iter`]).
#[derive(Debug, Clone)]
pub(crate) struct Iter<'a> {
    words: &'a [u64],
    /// Index of the word `bits` was read from.
    base: usize,
    /// The unvisited members of word `base`.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = ClipId;

    #[inline]
    fn next(&mut self) -> Option<ClipId> {
        while self.bits == 0 {
            self.base += 1;
            self.bits = *self.words.get(self.base)?;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(ClipId::from_index(self.base * WORD + bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(set: &ClipSet) -> Vec<usize> {
        set.iter().map(ClipId::index).collect()
    }

    #[test]
    fn sizes_words_for_every_universe() {
        for (n, words) in [(0, 0), (1, 1), (63, 1), (64, 1), (65, 2), (576, 9)] {
            let set = ClipSet::new(n);
            assert_eq!(set.words.len(), words, "n = {n}");
            assert!(set.is_empty());
            assert_eq!(ids(&set), Vec::<usize>::new(), "n = {n}");
        }
    }

    #[test]
    fn iterates_ascending_across_word_boundaries() {
        for n in [1usize, 63, 64, 65, 576] {
            let mut set = ClipSet::new(n);
            // Every boundary slot that exists in this universe, inserted
            // in descending order so the iteration order is the set's own.
            let mut want: Vec<usize> = [0, 1, 62, 63, 64, 65, 127, 128, 511, 512, 575]
                .into_iter()
                .filter(|&i| i < n)
                .collect();
            for &i in want.iter().rev() {
                assert!(set.insert(ClipId::from_index(i)), "n = {n}, i = {i}");
            }
            want.sort_unstable();
            assert_eq!(ids(&set), want, "n = {n}");
            assert_eq!(set.len(), want.len());
        }
    }

    #[test]
    fn full_universe_round_trips() {
        for n in [1usize, 63, 64, 65, 576] {
            let mut set = ClipSet::new(n);
            for i in 0..n {
                set.insert(ClipId::from_index(i));
            }
            assert_eq!(set.len(), n);
            assert_eq!(ids(&set), (0..n).collect::<Vec<_>>(), "n = {n}");
            for i in (0..n).step_by(2) {
                assert!(set.remove(ClipId::from_index(i)));
            }
            assert_eq!(ids(&set), (1..n).step_by(2).collect::<Vec<_>>());
            assert_eq!(set.len(), n / 2);
        }
    }

    #[test]
    fn insert_twice_and_remove_absent_are_no_ops() {
        let mut set = ClipSet::new(65);
        let (a, b) = (ClipId::from_index(64), ClipId::from_index(3));
        assert!(set.insert(a));
        assert!(!set.insert(a));
        assert_eq!(set.len(), 1);
        assert!(!set.remove(b)); // never present
        assert_eq!(set.len(), 1);
        assert!(set.remove(a));
        assert!(!set.remove(a)); // already gone
        assert!(set.is_empty());
        assert_eq!(ids(&set), Vec::<usize>::new());
    }

    #[test]
    #[should_panic]
    fn slot_beyond_the_words_panics() {
        ClipSet::new(64).insert(ClipId::from_index(64));
    }
}
