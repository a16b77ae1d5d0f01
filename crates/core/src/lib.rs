//! # clipcache-core
//!
//! The paper's primary contribution: greedy cache-management policies for a
//! repository of continuous-media clips.
//!
//! Every policy implements the [`ClipCache`] trait: the cache is driven with
//! a sequence of `(clip, timestamp)` accesses and reports hits, admissions
//! and evictions. The byte capacity invariant (`used ≤ capacity`) is
//! enforced by the shared [`space::CacheSpace`] bookkeeping and verified by
//! property tests.
//!
//! ## Implemented techniques
//!
//! Prior art studied by the paper (Section 3):
//!
//! * [`policies::simple::SimpleCache`] — the off-line Simple heuristic
//!   \[11\]: pack clips by byte-freq = frequency ÷ size (plus the
//!   no-admission *bypass* variant mentioned in Section 3.3),
//! * [`policies::lru_k::LruKCache`] — LRU-K \[14\],
//! * [`policies::greedy_dual::GreedyDualCache`] — GreedyDual \[18\] with
//!   the Cao–Irani inflation-value implementation \[3\] (plus the naive
//!   subtract-everything formulation for cross-validation),
//! * [`policies::gd_freq::GdFreqCache`] — GreedyDual-Freq \[4\],
//! * [`policies::gds_pop::GdsPopularityCache`] — GDS-Popularity \[13\],
//! * [`policies::random::RandomCache`] — the random-victim yardstick,
//! * [`policies::block_lru_k::BlockLruKCache`] — footnote 3's naive
//!   block-partitioned LRU-K.
//!
//! The paper's novel techniques (Section 4):
//!
//! * [`policies::dyn_simple::DynSimpleCache`] — **DYNSimple**: Simple made
//!   on-line by estimating frequencies from the last K reference times,
//! * [`policies::igd::IgdCache`] — **IGD**: interval-based GreedyDual whose
//!   priority ages with the time since last reference,
//! * [`policies::lru_sk::LruSKCache`] — **LRU-SK**: LRU-K weighted by size.
//!
//! Extra baselines for the shootout example: LRU, MRU, FIFO, LFU.
//!
//! ## Conventions
//!
//! * Time is virtual: one tick per request ([`Timestamp`]).
//! * Every referenced clip is materialized in the cache (the paper's
//!   stated assumption), except for `SimpleBypass` and for clips larger
//!   than the entire cache, which are streamed without caching.
//! * All randomized decisions (Random victims, GreedyDual tie-breaks) come
//!   from a seeded [`Pcg64`], so runs are deterministic.
//! * Victim selection runs on a [`victim_index::VictimIndex`], which
//!   answers from a lazy min-heap or a scan, switching between them by
//!   the width of the tie bands it drains. The two make identical
//!   eviction decisions; only the lookup cost differs. The scan walks a
//!   bit set of the resident clips in id order, so it costs
//!   O(residents + n/64) for a repository of `n` clips, not O(n).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod clip_set;
pub mod heap;
pub mod history;
pub mod instrument;
pub mod policies;
pub mod registry;
pub mod snapshot;
pub mod space;
pub mod victim_index;

pub use cache::{
    AccessEvent, AccessOutcome, ClipCache, DiscardEvictions, EvictionCount, EvictionSink,
};
pub use clipcache_media::{ByteSize, Clip, ClipId, Repository};
pub use clipcache_workload::{Pcg64, Timestamp};
pub use registry::{PolicyKind, PolicySpec};
pub use victim_index::VictimIndex;
