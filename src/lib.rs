//! # clipcache
//!
//! Umbrella crate for the clipcache workspace: a complete reproduction of
//! "Greedy Cache Management Techniques for Mobile Devices" (Ghandeharizadeh
//! & Shayandeh, ICDE 2007).
//!
//! Re-exports the public API of every workspace crate:
//!
//! * [`media`] — clips, repositories, byte units,
//! * [`workload`] — deterministic Zipfian request generation and traces,
//! * [`core`] — the cache-policy library (the paper's contribution),
//! * [`sim`] — the client/server streaming simulator and metrics,
//! * [`serve`] — the sharded concurrent cache service, TCP front-end and
//!   closed-loop load harness,
//! * [`experiments`] — per-figure experiment harness.

pub use clipcache_core as core;

/// The types most programs need, in one import.
///
/// ```
/// use clipcache::prelude::*;
/// use std::sync::Arc;
///
/// let repo = Arc::new(paper::variable_sized_repository_of(24));
/// let mut cache = PolicyKind::DynSimple { k: 2 }
///     .build(Arc::clone(&repo), repo.cache_capacity_for_ratio(0.25), 7, None);
/// let trace = Trace::from_generator(RequestGenerator::new(24, 0.27, 0, 500, 1));
/// let report = simulate(cache.as_mut(), &repo, trace.requests(),
///                       &SimulationConfig::default());
/// assert!(report.hit_rate() > 0.0);
/// ```
pub mod prelude {
    pub use clipcache_core::{
        AccessEvent, AccessOutcome, ClipCache, EvictionSink, PolicyKind, PolicySpec, Timestamp,
    };
    pub use clipcache_media::{paper, Bandwidth, ByteSize, Clip, ClipId, Repository};
    pub use clipcache_sim::runner::{simulate, SimulationConfig, SimulationReport};
    pub use clipcache_workload::{Pcg64, Request, RequestGenerator, Trace, Zipf};
}
pub use clipcache_experiments as experiments;
pub use clipcache_media as media;
pub use clipcache_serve as serve;
pub use clipcache_sim as sim;
pub use clipcache_workload as workload;
