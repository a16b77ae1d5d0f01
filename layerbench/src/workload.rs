//! The four workloads and the seeded request stream each one replays.
//!
//! Every workload runs 4 shards, θ = 0.27 Zipf and a cache of a quarter
//! of the repository; they differ in the layer that carries most of a
//! request's time (see README.md for why each exists).

use clipcache_core::PolicySpec;
use clipcache_media::{paper, ByteSize, ClipId, Repository};
use clipcache_serve::protocol::{encode_command, Command};
use clipcache_workload::{Pcg64, ShiftedZipf, Zipf};
use std::sync::Arc;

/// Shards per service.
pub const SHARDS: usize = 4;
/// Zipf parameter of the clip popularity.
pub const THETA: f64 = 0.27;
/// Cache budget as a fraction of the repository's bytes.
pub const CACHE_RATIO: f64 = 0.25;
/// Chunk size of the `durable-mixed` repository.
pub const CHUNK: ByteSize = ByteSize::mb(4);
/// Every `PROBE_EVERY`-th request of `durable-mixed` is a `GETRANGE`.
pub const PROBE_EVERY: u64 = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100-clip repository, LRU, memory-only, depth 32.
    NetLru,
    /// The paper's 576 clips under DYNSimple (K = 2), memory-only, depth 32.
    PolicyDynSimple,
    /// 576 chunked clips, LRU, durable, GETs with one probe in four, depth 32.
    DurableMixed,
    /// Two ring members (R = 2), LRU, two connections, one request at a time.
    ClusterRing,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::NetLru,
        Workload::PolicyDynSimple,
        Workload::DurableMixed,
        Workload::ClusterRing,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetLru => "net-lru",
            Workload::PolicyDynSimple => "policy-dynsimple",
            Workload::DurableMixed => "durable-mixed",
            Workload::ClusterRing => "cluster-ring",
        }
    }

    /// Parse a `--workload` spelling.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Clips in the repository.
    pub fn clips(self) -> usize {
        match self {
            Workload::NetLru => 100,
            _ => paper::PAPER_CLIP_COUNT,
        }
    }

    /// The policy every shard runs.
    pub fn policy(self) -> PolicySpec {
        let spelling = match self {
            Workload::PolicyDynSimple => "dynsimple:2",
            _ => "lru",
        };
        spelling.parse().expect("fixed policy spellings parse")
    }

    /// Whether the service persists its shards.
    pub fn durable(self) -> bool {
        self == Workload::DurableMixed
    }

    /// Cluster members (1 = a standalone server).
    pub fn members(self) -> usize {
        match self {
            Workload::ClusterRing => 2,
            _ => 1,
        }
    }

    /// Requests per pipelined window on one connection.
    pub fn depth(self) -> usize {
        match self {
            Workload::ClusterRing => 1,
            _ => 32,
        }
    }

    /// Requests sent before timing starts, enough to fill the caches.
    pub fn warmup(self) -> u64 {
        match self {
            Workload::ClusterRing => 10_000,
            _ => 40_000,
        }
    }

    /// How the workload's service flushes state (recorded in results).
    pub fn flush_policy(self) -> &'static str {
        if self.durable() {
            "wal-sync=off checkpoint-every=128 segment-bytes=4194304"
        } else {
            "memory-only"
        }
    }

    /// The repository the workload serves.
    pub fn repository(self) -> Repository {
        let repo = paper::variable_sized_repository_of(self.clips());
        if self.durable() {
            repo.with_chunk_size(CHUNK)
        } else {
            repo
        }
    }
}

/// One request of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `GET clip`.
    Get(ClipId),
    /// `GETRANGE clip chunk`.
    Range(ClipId, u32),
}

impl Op {
    /// The clip the request names.
    pub fn clip(self) -> ClipId {
        match self {
            Op::Get(c) | Op::Range(c, _) => c,
        }
    }

    /// The wire command.
    pub fn command(self) -> Command {
        match self {
            Op::Get(c) => Command::Get(c),
            Op::Range(c, k) => Command::GetRange(c, k),
        }
    }

    /// Append the request's binary frame to `out`.
    pub fn encode(self, out: &mut Vec<u8>) {
        encode_command(&self.command(), out);
    }
}

/// The endless request stream of a workload, a pure function of the
/// seed: clips from a Zipf over the repository, and for
/// `durable-mixed` every fourth request a probe of a uniformly drawn
/// chunk of its clip.
pub struct Stream {
    zipf: ShiftedZipf,
    clip_rng: Pcg64,
    chunk_rng: Pcg64,
    probes: bool,
    repo: Arc<Repository>,
    issued: u64,
}

impl Stream {
    /// The stream of `workload` at `seed` over `repo`.
    pub fn new(workload: Workload, seed: u64, repo: Arc<Repository>) -> Stream {
        Stream {
            zipf: ShiftedZipf::new(Zipf::new(repo.len(), THETA), 0),
            clip_rng: Pcg64::seed_from_u64_stream(seed, 1),
            chunk_rng: Pcg64::seed_from_u64_stream(seed, 2),
            probes: workload == Workload::DurableMixed,
            repo,
            issued: 0,
        }
    }
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.issued += 1;
        let clip = self.zipf.sample(&mut self.clip_rng);
        if self.probes && self.issued.is_multiple_of(PROBE_EVERY) {
            let chunks = self.repo.chunks_of(clip);
            let chunk = self.chunk_rng.next_bounded(u64::from(chunks)) as u32;
            return Some(Op::Range(clip, chunk));
        }
        Some(Op::Get(clip))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipcache_serve::{CacheService, ServiceConfig};

    fn frames(workload: Workload, seed: u64, n: usize) -> Vec<u8> {
        let repo = Arc::new(workload.repository());
        let mut out = Vec::new();
        for op in Stream::new(workload, seed, repo).take(n) {
            op.encode(&mut out);
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        for w in Workload::ALL {
            assert_eq!(frames(w, 42, 5000), frames(w, 42, 5000), "{}", w.name());
            assert_ne!(frames(w, 42, 5000), frames(w, 43, 5000), "{}", w.name());
        }
    }

    #[test]
    fn same_seed_gives_the_same_expected_hits() {
        let hits = |w: Workload, seed: u64| {
            let repo = Arc::new(w.repository());
            let capacity = repo.cache_capacity_for_ratio(CACHE_RATIO);
            let svc = CacheService::new(
                Arc::clone(&repo),
                ServiceConfig::new(w.policy(), SHARDS, capacity, seed),
                None,
            )
            .expect("workload policies build");
            for op in Stream::new(w, seed, repo).take(20_000) {
                match op {
                    Op::Get(c) => {
                        svc.get(c).expect("stream clips exist");
                    }
                    Op::Range(c, k) => {
                        svc.get_range(c, k).expect("stream chunks are in range");
                    }
                }
            }
            svc.stats()
        };
        for w in Workload::ALL {
            let a = hits(w, 9);
            assert_eq!(a, hits(w, 9), "{}", w.name());
            assert!(a.hits > 0 && a.misses > 0, "{}: {a:?}", w.name());
        }
    }

    #[test]
    fn only_durable_mixed_probes_and_in_range() {
        for w in Workload::ALL {
            let repo = Arc::new(w.repository());
            let ops: Vec<Op> = Stream::new(w, 5, Arc::clone(&repo)).take(4000).collect();
            let probes = ops.iter().filter(|op| matches!(op, Op::Range(..))).count();
            let expected = if w == Workload::DurableMixed { 1000 } else { 0 };
            assert_eq!(probes, expected, "{}", w.name());
            for op in ops {
                if let Op::Range(c, k) = op {
                    assert!(k < repo.chunks_of(c));
                }
            }
        }
    }
}
