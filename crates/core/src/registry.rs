//! Policy registry: construct any policy by descriptor.
//!
//! The experiment harness and examples configure runs with a
//! [`PolicyKind`]; [`PolicyKind::build`] instantiates the matching
//! [`ClipCache`] on the default scan victim-index backend. A
//! [`PolicySpec`] pairs a kind with an explicit [`VictimBackend`] —
//! spelled `<policy>@heap` on the command line — for heap-accelerated
//! victim selection on the policies whose priorities are access-local
//! (see the taxonomy in [`crate::policies`]). Off-line policies (Simple)
//! additionally need the workload's accurate frequencies.

use crate::cache::ClipCache;
use crate::policies::block_lru_k::BlockLruKCache;
use crate::policies::dyn_simple::DynSimpleCache;
use crate::policies::gd_freq::GdFreqCache;
use crate::policies::gds_pop::GdsPopularityCache;
use crate::policies::greedy_dual::{GdMode, GreedyDualCache};
use crate::policies::igd::IgdCache;
use crate::policies::lfu::LfuCache;
use crate::policies::lru::{RecencyCache, RecencyVariant};
use crate::policies::lru_k::LruKCache;
use crate::policies::lru_sk::LruSKCache;
use crate::policies::random::RandomCache;
use crate::policies::simple::{SimpleAdmission, SimpleCache};
use crate::victim_index::VictimBackend;
use clipcache_media::{ByteSize, Repository};
use std::fmt;
use std::sync::Arc;

/// Why a policy could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An off-line policy was requested without oracle frequencies.
    MissingFrequencies {
        /// The policy that needed them.
        policy: String,
    },
    /// The heap victim-index backend was requested for a policy whose
    /// eviction priorities are time-varying (scan-only).
    UnsupportedBackend {
        /// The policy that cannot run on the requested backend.
        policy: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingFrequencies { policy } => {
                write!(f, "{policy} requires oracle frequencies")
            }
            BuildError::UnsupportedBackend { policy } => {
                write!(
                    f,
                    "{policy} has time-varying priorities and only supports \
                     the scan victim-index backend"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A descriptor naming a policy and its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Random victims (the paper's yardstick).
    Random,
    /// Least-recently-used.
    Lru,
    /// Most-recently-used.
    Mru,
    /// First-in first-out.
    Fifo,
    /// Least-frequently-used (lifetime counts).
    Lfu,
    /// LFU with dynamic aging (Dilley & Arlitt) — pollution-free LFU.
    LfuDa,
    /// LRU-K with history depth `k`.
    LruK {
        /// History depth; the paper's figures use K = 2 ("LRU-2").
        k: usize,
    },
    /// LRU-K with a Correlated Reference Period (O'Neil et al.).
    LruKCrp {
        /// History depth.
        k: usize,
        /// Correlated Reference Period in ticks.
        crp: u64,
    },
    /// The paper's LRU-SK with history depth `k`.
    LruSK {
        /// History depth; the paper's figures use K = 2 ("LRU-S2").
        k: usize,
    },
    /// SIZE: evict the largest resident clip (web-caching baseline).
    Size,
    /// GreedyDual (Cao–Irani inflation implementation).
    GreedyDual,
    /// GreedyDual with `cost = fetch time` over a link of the given rate.
    /// Degenerate (`cost/size` is constant); see
    /// [`crate::policies::greedy_dual::CostModel::FetchTime`].
    GreedyDualFetchTime {
        /// The modelled fetch-link bandwidth, in Mbps.
        mbps: u64,
    },
    /// GreedyDual with Cao–Irani's packet cost (`2 + size/536`).
    GreedyDualPackets,
    /// GreedyDual with `cost = startup latency of a miss` over a link of
    /// the given rate — the useful latency-minimizing objective.
    GreedyDualLatency {
        /// The modelled link bandwidth, in Mbps.
        mbps: u64,
    },
    /// GreedyDual in Young's naive formulation (for cross-validation).
    GreedyDualNaive,
    /// GreedyDual-Freq (Cherkasova & Ciardo).
    GdFreq,
    /// GDS-Popularity (Jin & Bestavros) — byte-hit objective.
    GdsPopularity,
    /// The paper's interval-based GreedyDual.
    Igd,
    /// Off-line Simple (needs accurate frequencies).
    Simple,
    /// Off-line Simple with the bypass admission variant.
    SimpleBypass,
    /// The paper's DYNSimple with history depth `k`.
    DynSimple {
        /// History depth for frequency estimation (paper: 2 or 32).
        k: usize,
    },
    /// DYNSimple with the no-materialize admission variant (the paper's
    /// Section 2 future-work scenario).
    DynSimpleBypass {
        /// History depth for frequency estimation.
        k: usize,
    },
    /// Footnote 3's block-partitioned LRU-K.
    BlockLruK {
        /// History depth.
        k: usize,
        /// Block size in bytes.
        block_bytes: u64,
    },
}

impl PolicyKind {
    /// All policy kinds the paper's figures evaluate, with paper defaults.
    pub fn paper_lineup() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Simple,
            PolicyKind::LruK { k: 2 },
            PolicyKind::GreedyDual,
            PolicyKind::Random,
            PolicyKind::DynSimple { k: 32 },
            PolicyKind::DynSimple { k: 2 },
            PolicyKind::Igd,
            PolicyKind::LruSK { k: 2 },
            PolicyKind::GdFreq,
        ]
    }

    /// Whether this policy needs oracle frequencies at construction.
    pub fn is_offline(&self) -> bool {
        matches!(self, PolicyKind::Simple | PolicyKind::SimpleBypass)
    }

    /// Whether this policy's eviction priorities are access-local, making
    /// it eligible for the heap victim-index backend. Time-varying
    /// policies (IGD, LRU-SK, DYNSimple, BlockLRU-K, the off-line
    /// oracles, naive GreedyDual) are scan-only — see the taxonomy in
    /// [`crate::policies`].
    pub fn supports_heap(&self) -> bool {
        matches!(
            self,
            PolicyKind::Random
                | PolicyKind::Lru
                | PolicyKind::Mru
                | PolicyKind::Fifo
                | PolicyKind::Lfu
                | PolicyKind::LfuDa
                | PolicyKind::LruK { .. }
                | PolicyKind::LruKCrp { .. }
                | PolicyKind::Size
                | PolicyKind::GreedyDual
                | PolicyKind::GreedyDualFetchTime { .. }
                | PolicyKind::GreedyDualPackets
                | PolicyKind::GreedyDualLatency { .. }
                | PolicyKind::GdFreq
                | PolicyKind::GdsPopularity
        )
    }

    /// Instantiate the policy.
    ///
    /// `seed` feeds any internal randomness (Random victims, GreedyDual
    /// tie-breaks); `frequencies` supplies the oracle for off-line
    /// policies.
    ///
    /// ```
    /// use clipcache_core::{PolicyKind, Timestamp};
    /// use clipcache_media::{paper, ClipId};
    /// use std::sync::Arc;
    ///
    /// let repo = Arc::new(paper::variable_sized_repository_of(12));
    /// let mut cache = PolicyKind::DynSimple { k: 2 }
    ///     .build(Arc::clone(&repo), repo.cache_capacity_for_ratio(0.5), 7, None);
    /// assert!(!cache.access(ClipId::new(1), Timestamp(1)).is_hit()); // cold
    /// assert!(cache.access(ClipId::new(1), Timestamp(2)).is_hit());  // warm
    /// ```
    ///
    /// # Panics
    /// If an off-line policy is built without `frequencies`; use
    /// [`PolicyKind::try_build`] for a fallible variant.
    pub fn build(
        &self,
        repo: Arc<Repository>,
        capacity: ByteSize,
        seed: u64,
        frequencies: Option<&[f64]>,
    ) -> Box<dyn ClipCache> {
        self.try_build(repo, capacity, seed, frequencies)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Instantiate the policy, reporting configuration errors instead of
    /// panicking.
    pub fn try_build(
        &self,
        repo: Arc<Repository>,
        capacity: ByteSize,
        seed: u64,
        frequencies: Option<&[f64]>,
    ) -> Result<Box<dyn ClipCache>, BuildError> {
        PolicySpec::from(*self).try_build(repo, capacity, seed, frequencies)
    }

    /// The canonical command-line spelling — the inverse of
    /// [`FromStr`](std::str::FromStr): `kind.spelling().parse()` yields
    /// `kind` for every variant. This is the durable form snapshots
    /// store (unlike [`Display`](fmt::Display), which is presentational
    /// and not parseable).
    pub fn spelling(&self) -> String {
        match *self {
            PolicyKind::Random => "random".into(),
            PolicyKind::Lru => "lru".into(),
            PolicyKind::Mru => "mru".into(),
            PolicyKind::Fifo => "fifo".into(),
            PolicyKind::Lfu => "lfu".into(),
            PolicyKind::LfuDa => "lfu-da".into(),
            PolicyKind::LruK { k } => format!("lru-{k}"),
            PolicyKind::LruKCrp { k, crp } => format!("lru-{k}:crp={crp}"),
            PolicyKind::LruSK { k } => format!("lru-s{k}"),
            PolicyKind::Size => "size".into(),
            PolicyKind::GreedyDual => "greedydual".into(),
            PolicyKind::GreedyDualFetchTime { mbps } => format!("gd-fetch:{mbps}"),
            PolicyKind::GreedyDualPackets => "gd-packets".into(),
            PolicyKind::GreedyDualLatency { mbps } => format!("gd-latency:{mbps}"),
            PolicyKind::GreedyDualNaive => "greedydual-naive".into(),
            PolicyKind::GdFreq => "gd-freq".into(),
            PolicyKind::GdsPopularity => "gds-popularity".into(),
            PolicyKind::Igd => "igd".into(),
            PolicyKind::Simple => "simple".into(),
            PolicyKind::SimpleBypass => "simple-bypass".into(),
            PolicyKind::DynSimple { k } => format!("dynsimple:{k}"),
            PolicyKind::DynSimpleBypass { k } => format!("dynsimple-bypass:{k}"),
            PolicyKind::BlockLruK { k, block_bytes } => {
                if block_bytes % 1_000_000 == 0 {
                    format!("block-lru{k}:{}", block_bytes / 1_000_000)
                } else {
                    format!("block-lru{k}:{block_bytes}b")
                }
            }
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PolicyKind::Random => write!(f, "Random"),
            PolicyKind::Lru => write!(f, "LRU"),
            PolicyKind::Mru => write!(f, "MRU"),
            PolicyKind::Fifo => write!(f, "FIFO"),
            PolicyKind::Lfu => write!(f, "LFU"),
            PolicyKind::LfuDa => write!(f, "LFU-DA"),
            PolicyKind::LruK { k } => write!(f, "LRU-{k}"),
            PolicyKind::LruKCrp { k, crp } => write!(f, "LRU-{k}(CRP={crp})"),
            PolicyKind::LruSK { k } => write!(f, "LRU-S{k}"),
            PolicyKind::Size => write!(f, "SIZE"),
            PolicyKind::GreedyDual => write!(f, "GreedyDual"),
            PolicyKind::GreedyDualFetchTime { mbps } => {
                write!(f, "GreedyDual(cost=fetch@{mbps}Mbps)")
            }
            PolicyKind::GreedyDualPackets => write!(f, "GreedyDual(cost=packets)"),
            PolicyKind::GreedyDualLatency { mbps } => {
                write!(f, "GreedyDual(cost=latency@{mbps}Mbps)")
            }
            PolicyKind::GreedyDualNaive => write!(f, "GreedyDual(naive)"),
            PolicyKind::GdFreq => write!(f, "GreedyDual-Freq"),
            PolicyKind::GdsPopularity => write!(f, "GDS-Popularity"),
            PolicyKind::Igd => write!(f, "IGD"),
            PolicyKind::Simple => write!(f, "Simple"),
            PolicyKind::SimpleBypass => write!(f, "Simple(bypass)"),
            PolicyKind::DynSimple { k } => write!(f, "DYNSimple(K={k})"),
            PolicyKind::DynSimpleBypass { k } => write!(f, "DYNSimple(K={k},bypass)"),
            PolicyKind::BlockLruK { k, block_bytes } => {
                write!(f, "BlockLRU-{k}(block={})", ByteSize::bytes(block_bytes))
            }
        }
    }
}

/// One canonical example spelling per [`PolicyKind`] variant, in
/// registry order. The unknown-policy error embeds this list so a typo
/// surfaces every accepted form; `registry::tests::help_text_in_sync`
/// proves each entry parses and that every variant is represented.
pub const SPELLING_EXAMPLES: &[&str] = &[
    "random",
    "lru",
    "mru",
    "fifo",
    "lfu",
    "lfu-da",
    "lru-2",
    "lru-2:crp=3",
    "lru-s2",
    "size",
    "greedydual",
    "gd-fetch:8",
    "gd-packets",
    "gd-latency:1",
    "greedydual-naive",
    "gd-freq",
    "gds-popularity",
    "igd",
    "simple",
    "simple-bypass",
    "dynsimple:2",
    "dynsimple-bypass:2",
    "block-lru2:10",
];

/// The help text the unknown-policy error carries: every valid spelling
/// (one example per variant) plus the `@heap`/`@scan` backend suffix.
pub fn spelling_help() -> String {
    format!(
        "valid policies: {}; heap-eligible policies also accept an \
         `@heap` suffix (e.g. `lru@heap`, `greedydual@heap`)",
        SPELLING_EXAMPLES.join(", ")
    )
}

/// Parse a policy from its command-line spelling.
///
/// Accepted forms (case-insensitive): `random`, `lru`, `mru`, `fifo`,
/// `lfu`, `lfu-da`, `size`, `lru-K` (e.g. `lru-2`), `lru-sK`
/// (e.g. `lru-s2`), `lru-K:crp=N`, `greedydual`,
/// `greedydual-naive`, `gd-freq`, `gds-popularity`, `igd`, `simple`,
/// `simple-bypass`, `dynsimple:K` (e.g. `dynsimple:2`),
/// `dynsimple-bypass:K`, `block-lruK:MB` (e.g. `block-lru2:10`; append
/// `b` for a byte-exact block size), `gd-fetch:Mbps`, `gd-latency:Mbps`.
///
/// To select a victim-index backend, parse a [`PolicySpec`] instead: it
/// accepts the same spellings with an optional `@scan`/`@heap` suffix.
impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().to_ascii_lowercase();
        let parse_num = |v: &str, what: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("invalid {what} in policy '{s}'"))
        };
        Ok(match t.as_str() {
            "random" => PolicyKind::Random,
            "lru" => PolicyKind::Lru,
            "mru" => PolicyKind::Mru,
            "fifo" => PolicyKind::Fifo,
            "lfu" => PolicyKind::Lfu,
            "lfu-da" | "lfuda" => PolicyKind::LfuDa,
            "size" => PolicyKind::Size,
            "greedydual" | "gd" => PolicyKind::GreedyDual,
            "greedydual-naive" | "gd-naive" => PolicyKind::GreedyDualNaive,
            "gd-freq" | "greedydual-freq" => PolicyKind::GdFreq,
            "gds-popularity" | "gds-pop" => PolicyKind::GdsPopularity,
            "greedydual-packets" | "gd-packets" => PolicyKind::GreedyDualPackets,
            "igd" => PolicyKind::Igd,
            "simple" => PolicyKind::Simple,
            "simple-bypass" => PolicyKind::SimpleBypass,
            _ => {
                if let Some(rest) = t.strip_prefix("gd-fetch:") {
                    PolicyKind::GreedyDualFetchTime {
                        mbps: parse_num(rest, "Mbps")?,
                    }
                } else if let Some(rest) = t.strip_prefix("gd-latency:") {
                    PolicyKind::GreedyDualLatency {
                        mbps: parse_num(rest, "Mbps")?,
                    }
                } else if let Some(rest) = t.strip_prefix("dynsimple-bypass:") {
                    PolicyKind::DynSimpleBypass {
                        k: parse_num(rest, "K")? as usize,
                    }
                } else if let Some(rest) = t.strip_prefix("dynsimple:") {
                    PolicyKind::DynSimple {
                        k: parse_num(rest, "K")? as usize,
                    }
                } else if t == "dynsimple" {
                    PolicyKind::DynSimple { k: 2 }
                } else if let Some(rest) = t.strip_prefix("lru-s") {
                    PolicyKind::LruSK {
                        k: parse_num(rest, "K")? as usize,
                    }
                } else if let Some(rest) = t.strip_prefix("block-lru") {
                    let (k, size) = rest
                        .split_once(':')
                        .ok_or_else(|| format!("block-lru needs K:MB in '{s}'"))?;
                    // A trailing `b` gives the block size in bytes
                    // (snapshots use it for non-whole-MB blocks).
                    let block_bytes = match size.strip_suffix('b') {
                        Some(bytes) => parse_num(bytes, "block bytes")?,
                        None => parse_num(size, "block MB")? * 1_000_000,
                    };
                    PolicyKind::BlockLruK {
                        k: parse_num(k, "K")? as usize,
                        block_bytes,
                    }
                } else if let Some(rest) = t.strip_prefix("lru-") {
                    match rest.split_once(":crp=") {
                        Some((k, crp)) => PolicyKind::LruKCrp {
                            k: parse_num(k, "K")? as usize,
                            crp: parse_num(crp, "CRP")?,
                        },
                        None => PolicyKind::LruK {
                            k: parse_num(rest, "K")? as usize,
                        },
                    }
                } else {
                    return Err(format!("unknown policy '{s}'; {}", spelling_help()));
                }
            }
        })
    }
}

/// A policy descriptor paired with the victim-index backend to run it on.
///
/// The backend is an implementation detail: it never changes a policy's
/// decisions (the backend-equivalence suite enforces identical outcome
/// sequences), so [`Display`](fmt::Display) shows the kind alone and a
/// heap-backed cache reports the same [`ClipCache::name`] as its scan
/// twin. The parseable [`PolicySpec::spelling`] appends `@heap` when the
/// heap backend is selected; `@scan` is the default and omitted. The
/// recency kinds (LRU, MRU, FIFO) accept both spellings but build the
/// same recency list under either ([`crate::policies::lru`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicySpec {
    /// The policy to construct.
    pub kind: PolicyKind,
    /// The victim-index backend to construct it on.
    pub backend: VictimBackend,
}

impl From<PolicyKind> for PolicySpec {
    fn from(kind: PolicyKind) -> Self {
        PolicySpec {
            kind,
            backend: VictimBackend::Scan,
        }
    }
}

impl PolicySpec {
    /// Pair a kind with an explicit backend.
    pub fn with_backend(kind: PolicyKind, backend: VictimBackend) -> Self {
        PolicySpec { kind, backend }
    }

    /// The canonical command-line spelling — the kind's spelling with
    /// `@heap` appended when the heap backend is selected. The inverse of
    /// [`FromStr`](std::str::FromStr) for every valid spec.
    pub fn spelling(&self) -> String {
        match self.backend {
            VictimBackend::Scan => self.kind.spelling(),
            VictimBackend::Heap => format!("{}@heap", self.kind.spelling()),
        }
    }

    /// Instantiate the policy on the selected backend.
    ///
    /// # Panics
    /// On configuration errors; use [`PolicySpec::try_build`] for a
    /// fallible variant.
    pub fn build(
        &self,
        repo: Arc<Repository>,
        capacity: ByteSize,
        seed: u64,
        frequencies: Option<&[f64]>,
    ) -> Box<dyn ClipCache> {
        self.try_build(repo, capacity, seed, frequencies)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Instantiate the policy on the selected backend, reporting
    /// configuration errors instead of panicking.
    pub fn try_build(
        &self,
        repo: Arc<Repository>,
        capacity: ByteSize,
        seed: u64,
        frequencies: Option<&[f64]>,
    ) -> Result<Box<dyn ClipCache>, BuildError> {
        let backend = self.backend;
        if backend == VictimBackend::Heap && !self.kind.supports_heap() {
            return Err(BuildError::UnsupportedBackend {
                policy: self.kind.to_string(),
            });
        }
        if self.kind.is_offline() && frequencies.is_none() {
            return Err(BuildError::MissingFrequencies {
                policy: self.kind.to_string(),
            });
        }
        Ok(match self.kind {
            PolicyKind::Random => {
                Box::new(RandomCache::with_backend(repo, capacity, seed, backend))
            }
            PolicyKind::Lru => Box::new(RecencyCache::new(repo, capacity, RecencyVariant::Lru)),
            PolicyKind::Mru => Box::new(RecencyCache::new(repo, capacity, RecencyVariant::Mru)),
            PolicyKind::Fifo => Box::new(RecencyCache::new(repo, capacity, RecencyVariant::Fifo)),
            PolicyKind::Lfu => Box::new(LfuCache::with_backend(repo, capacity, backend)),
            PolicyKind::LfuDa => Box::new(crate::policies::lfu_da::LfuDaCache::with_backend(
                repo, capacity, backend,
            )),
            PolicyKind::LruK { k } => {
                Box::new(LruKCache::with_options(repo, capacity, k, 0, backend))
            }
            PolicyKind::LruKCrp { k, crp } => {
                Box::new(LruKCache::with_options(repo, capacity, k, crp, backend))
            }
            PolicyKind::LruSK { k } => Box::new(LruSKCache::new(repo, capacity, k)),
            PolicyKind::Size => Box::new(crate::policies::size::SizeCache::with_backend(
                repo, capacity, backend,
            )),
            PolicyKind::GreedyDual => {
                Box::new(GreedyDualCache::with_backend(repo, capacity, seed, backend))
            }
            PolicyKind::GreedyDualFetchTime { mbps } => Box::new(GreedyDualCache::with_options(
                repo,
                capacity,
                seed,
                crate::policies::greedy_dual::CostModel::FetchTime(
                    clipcache_media::Bandwidth::mbps(mbps),
                ),
                GdMode::Inflation,
                backend,
            )),
            PolicyKind::GreedyDualPackets => Box::new(GreedyDualCache::with_options(
                repo,
                capacity,
                seed,
                crate::policies::greedy_dual::CostModel::Packets,
                GdMode::Inflation,
                backend,
            )),
            PolicyKind::GreedyDualLatency { mbps } => Box::new(GreedyDualCache::with_options(
                repo,
                capacity,
                seed,
                crate::policies::greedy_dual::CostModel::StartupLatency(
                    clipcache_media::Bandwidth::mbps(mbps),
                ),
                GdMode::Inflation,
                backend,
            )),
            PolicyKind::GreedyDualNaive => Box::new(GreedyDualCache::with_options(
                repo,
                capacity,
                seed,
                crate::policies::greedy_dual::CostModel::Uniform,
                GdMode::Naive,
                backend,
            )),
            PolicyKind::GdFreq => {
                Box::new(GdFreqCache::with_backend(repo, capacity, seed, backend))
            }
            PolicyKind::GdsPopularity => Box::new(GdsPopularityCache::with_backend(
                repo, capacity, seed, backend,
            )),
            PolicyKind::Igd => Box::new(IgdCache::new(repo, capacity, seed)),
            PolicyKind::Simple => Box::new(SimpleCache::new(
                repo,
                capacity,
                frequencies.expect("Simple requires oracle frequencies"),
                SimpleAdmission::Always,
            )),
            PolicyKind::SimpleBypass => Box::new(SimpleCache::new(
                repo,
                capacity,
                frequencies.expect("Simple(bypass) requires oracle frequencies"),
                SimpleAdmission::Bypass,
            )),
            PolicyKind::DynSimple { k } => Box::new(DynSimpleCache::new(repo, capacity, k)),
            PolicyKind::DynSimpleBypass { k } => Box::new(DynSimpleCache::with_admission(
                repo,
                capacity,
                k,
                crate::policies::dyn_simple::DynAdmission::Bypass,
            )),
            PolicyKind::BlockLruK { k, block_bytes } => Box::new(BlockLruKCache::new(
                repo,
                capacity,
                ByteSize::bytes(block_bytes),
                k,
            )),
        })
    }
}

/// The kind alone: the backend never shows in presentation names, so
/// figure legends and CSV columns are identical across backends.
impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.kind.fmt(f)
    }
}

/// Parse a policy spec: any [`PolicyKind`] spelling, with an optional
/// `@scan`/`@heap` backend suffix (e.g. `greedydual@heap`, `lfu@scan`).
/// The pre-unification spelling `greedydual-heap` (and `gd-heap`) is
/// accepted as a legacy alias for `greedydual@heap` so old snapshots
/// restore. Requesting `@heap` for a scan-only policy is an error.
impl std::str::FromStr for PolicySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().to_ascii_lowercase();
        if t == "greedydual-heap" || t == "gd-heap" {
            return Ok(PolicySpec::with_backend(
                PolicyKind::GreedyDual,
                VictimBackend::Heap,
            ));
        }
        let (kind_part, backend) = match t.rsplit_once('@') {
            Some((kind_part, backend)) => (kind_part, backend.parse::<VictimBackend>()?),
            None => (t.as_str(), VictimBackend::Scan),
        };
        let kind: PolicyKind = kind_part.parse()?;
        if backend == VictimBackend::Heap && !kind.supports_heap() {
            return Err(format!(
                "policy '{kind_part}' has time-varying priorities and does \
                 not support the heap victim-index backend"
            ));
        }
        Ok(PolicySpec { kind, backend })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::tiny_repo;
    use clipcache_workload::Timestamp;

    #[test]
    fn build_all_online_policies() {
        let repo = tiny_repo();
        let kinds = [
            PolicyKind::Random,
            PolicyKind::Lru,
            PolicyKind::Mru,
            PolicyKind::Fifo,
            PolicyKind::Lfu,
            PolicyKind::LfuDa,
            PolicyKind::LruK { k: 2 },
            PolicyKind::LruKCrp { k: 2, crp: 3 },
            PolicyKind::LruSK { k: 2 },
            PolicyKind::Size,
            PolicyKind::GreedyDual,
            PolicyKind::GreedyDualFetchTime { mbps: 8 },
            PolicyKind::GreedyDualLatency { mbps: 1 },
            PolicyKind::GreedyDualPackets,
            PolicyKind::GreedyDualNaive,
            PolicyKind::GdFreq,
            PolicyKind::GdsPopularity,
            PolicyKind::Igd,
            PolicyKind::DynSimple { k: 2 },
            PolicyKind::DynSimpleBypass { k: 2 },
            PolicyKind::BlockLruK {
                k: 2,
                block_bytes: 10_000_000,
            },
        ];
        for kind in kinds {
            let mut cache = kind.build(Arc::clone(&repo), ByteSize::mb(60), 1, None);
            // Display name matches the cache's own name.
            assert_eq!(cache.name(), kind.to_string(), "{kind:?}");
            // Smoke-drive each policy.
            for (i, id) in [1u32, 2, 3, 1, 4, 5, 1, 2].iter().enumerate() {
                cache.access(clipcache_media::ClipId::new(*id), Timestamp(i as u64 + 1));
                assert!(cache.used() <= cache.capacity());
            }
        }
    }

    #[test]
    fn build_offline_with_frequencies() {
        let repo = tiny_repo();
        let f = vec![0.4, 0.3, 0.2, 0.05, 0.05];
        for kind in [PolicyKind::Simple, PolicyKind::SimpleBypass] {
            assert!(kind.is_offline());
            let cache = kind.build(Arc::clone(&repo), ByteSize::mb(50), 1, Some(&f));
            assert_eq!(cache.name(), kind.to_string());
        }
    }

    #[test]
    #[should_panic(expected = "requires oracle frequencies")]
    fn offline_without_frequencies_panics() {
        PolicyKind::Simple.build(tiny_repo(), ByteSize::mb(10), 1, None);
    }

    #[test]
    fn paper_lineup_contains_novel_techniques() {
        let lineup = PolicyKind::paper_lineup();
        assert!(lineup.contains(&PolicyKind::Igd));
        assert!(lineup.contains(&PolicyKind::DynSimple { k: 2 }));
        assert!(lineup.contains(&PolicyKind::LruSK { k: 2 }));
    }

    #[test]
    fn try_build_reports_missing_frequencies() {
        let err = PolicyKind::Simple
            .try_build(tiny_repo(), ByteSize::mb(10), 1, None)
            .err()
            .expect("must fail without frequencies");
        assert_eq!(
            err,
            crate::registry::BuildError::MissingFrequencies {
                policy: "Simple".into()
            }
        );
        assert!(err.to_string().contains("oracle frequencies"));
        // On-line policies never need them.
        assert!(PolicyKind::Lru
            .try_build(tiny_repo(), ByteSize::mb(10), 1, None)
            .is_ok());
    }

    /// One value per `PolicyKind` variant (plus a second BlockLruK with a
    /// non-whole-MB block) — the exhaustive list the spelling and
    /// help-text tests check against. Adding a variant without extending
    /// this list fails `help_text_in_sync`.
    fn exhaustive_kinds() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Random,
            PolicyKind::Lru,
            PolicyKind::Mru,
            PolicyKind::Fifo,
            PolicyKind::Lfu,
            PolicyKind::LfuDa,
            PolicyKind::LruK { k: 2 },
            PolicyKind::LruKCrp { k: 2, crp: 3 },
            PolicyKind::LruSK { k: 4 },
            PolicyKind::Size,
            PolicyKind::GreedyDual,
            PolicyKind::GreedyDualFetchTime { mbps: 8 },
            PolicyKind::GreedyDualPackets,
            PolicyKind::GreedyDualLatency { mbps: 1 },
            PolicyKind::GreedyDualNaive,
            PolicyKind::GdFreq,
            PolicyKind::GdsPopularity,
            PolicyKind::Igd,
            PolicyKind::Simple,
            PolicyKind::SimpleBypass,
            PolicyKind::DynSimple { k: 32 },
            PolicyKind::DynSimpleBypass { k: 2 },
            PolicyKind::BlockLruK {
                k: 2,
                block_bytes: 3_000_000,
            },
            PolicyKind::BlockLruK {
                k: 3,
                block_bytes: 1_234_567,
            },
        ]
    }

    #[test]
    fn spelling_round_trips_every_variant() {
        for kind in exhaustive_kinds() {
            assert_eq!(
                kind.spelling().parse::<PolicyKind>().as_ref(),
                Ok(&kind),
                "spelling {:?} must parse back",
                kind.spelling()
            );
        }
    }

    #[test]
    fn parse_policy_spellings() {
        let cases: &[(&str, PolicyKind)] = &[
            ("random", PolicyKind::Random),
            ("LRU", PolicyKind::Lru),
            ("lfu-da", PolicyKind::LfuDa),
            ("size", PolicyKind::Size),
            ("lru-2", PolicyKind::LruK { k: 2 }),
            ("lru-3:crp=5", PolicyKind::LruKCrp { k: 3, crp: 5 }),
            ("lru-s2", PolicyKind::LruSK { k: 2 }),
            ("greedydual", PolicyKind::GreedyDual),
            ("gd-freq", PolicyKind::GdFreq),
            ("gds-pop", PolicyKind::GdsPopularity),
            ("igd", PolicyKind::Igd),
            ("simple", PolicyKind::Simple),
            ("simple-bypass", PolicyKind::SimpleBypass),
            ("dynsimple", PolicyKind::DynSimple { k: 2 }),
            ("dynsimple:32", PolicyKind::DynSimple { k: 32 }),
            ("dynsimple-bypass:2", PolicyKind::DynSimpleBypass { k: 2 }),
            (
                "block-lru2:10",
                PolicyKind::BlockLruK {
                    k: 2,
                    block_bytes: 10_000_000,
                },
            ),
        ];
        for (text, expect) in cases {
            assert_eq!(&text.parse::<PolicyKind>().unwrap(), expect, "{text}");
        }
        assert!("nonsense".parse::<PolicyKind>().is_err());
        assert!("lru-x".parse::<PolicyKind>().is_err());
        assert!("block-lru2".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn help_text_in_sync_with_registry() {
        use std::collections::HashSet;
        use std::mem::discriminant;
        // Every example spelling in the help text parses back.
        let parsed: Vec<PolicyKind> = SPELLING_EXAMPLES
            .iter()
            .map(|s| s.parse().unwrap_or_else(|e| panic!("{s}: {e}")))
            .collect();
        // Together the examples cover every variant the registry builds,
        // and name nothing the registry doesn't know.
        let covered: HashSet<_> = parsed.iter().map(discriminant).collect();
        let all_kinds = exhaustive_kinds();
        let all: HashSet<_> = all_kinds.iter().map(discriminant).collect();
        for kind in &all_kinds {
            assert!(
                covered.contains(&discriminant(kind)),
                "help text lacks a spelling example for {kind:?}"
            );
        }
        assert_eq!(covered, all, "help text names variants the registry lacks");

        // The unknown-policy error carries the full help, @heap hint
        // included, through both the kind and the spec parser.
        for err in [
            "nonsense".parse::<PolicyKind>().unwrap_err(),
            "nonsense@heap".parse::<PolicySpec>().unwrap_err(),
        ] {
            for example in SPELLING_EXAMPLES {
                assert!(err.contains(example), "error misses '{example}': {err}");
            }
            assert!(err.contains("@heap"), "error misses the @heap hint: {err}");
        }
    }

    /// Every heap-eligible kind, for the PolicySpec tests below.
    fn heap_eligible_kinds() -> Vec<PolicyKind> {
        [
            PolicyKind::Random,
            PolicyKind::Lru,
            PolicyKind::Mru,
            PolicyKind::Fifo,
            PolicyKind::Lfu,
            PolicyKind::LfuDa,
            PolicyKind::LruK { k: 2 },
            PolicyKind::LruKCrp { k: 2, crp: 3 },
            PolicyKind::Size,
            PolicyKind::GreedyDual,
            PolicyKind::GreedyDualFetchTime { mbps: 8 },
            PolicyKind::GreedyDualPackets,
            PolicyKind::GreedyDualLatency { mbps: 1 },
            PolicyKind::GdFreq,
            PolicyKind::GdsPopularity,
        ]
        .into_iter()
        .inspect(|k| assert!(k.supports_heap(), "{k:?} must be heap-eligible"))
        .collect()
    }

    #[test]
    fn policy_spec_spelling_round_trips_on_both_backends() {
        use crate::victim_index::VictimBackend;
        for kind in heap_eligible_kinds() {
            for backend in [VictimBackend::Scan, VictimBackend::Heap] {
                let spec = PolicySpec::with_backend(kind, backend);
                assert_eq!(
                    spec.spelling().parse::<PolicySpec>().as_ref(),
                    Ok(&spec),
                    "spelling {:?} must parse back",
                    spec.spelling()
                );
                // The scan spelling stays suffix-free (and byte-identical
                // to the kind's own spelling).
                if backend == VictimBackend::Scan {
                    assert_eq!(spec.spelling(), kind.spelling());
                } else {
                    assert!(spec.spelling().ends_with("@heap"));
                }
                // Presentation name never encodes the backend.
                assert_eq!(spec.to_string(), kind.to_string());
            }
        }
        // An explicit @scan suffix is accepted too.
        assert_eq!(
            "lfu@scan".parse::<PolicySpec>(),
            Ok(PolicySpec::from(PolicyKind::Lfu))
        );
    }

    #[test]
    fn legacy_heap_spelling_parses_to_unified_spec() {
        for legacy in ["greedydual-heap", "gd-heap", " GreedyDual-Heap "] {
            assert_eq!(
                legacy.parse::<PolicySpec>(),
                Ok(PolicySpec::with_backend(
                    PolicyKind::GreedyDual,
                    crate::victim_index::VictimBackend::Heap
                )),
                "{legacy}"
            );
        }
        // The bare kind no longer knows the heap spelling.
        assert!("greedydual-heap".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn heap_backend_rejected_for_time_varying_policies() {
        use crate::victim_index::VictimBackend;
        assert!("igd@heap".parse::<PolicySpec>().is_err());
        assert!("dynsimple:2@heap".parse::<PolicySpec>().is_err());
        assert!("greedydual-naive@heap".parse::<PolicySpec>().is_err());
        let err = PolicySpec::with_backend(PolicyKind::LruSK { k: 2 }, VictimBackend::Heap)
            .try_build(tiny_repo(), ByteSize::mb(10), 1, None)
            .err()
            .expect("scan-only policy must reject the heap backend");
        assert!(matches!(err, BuildError::UnsupportedBackend { .. }));
        assert!(err.to_string().contains("scan victim-index backend"));
    }

    #[test]
    fn heap_specs_build_with_scan_identical_names_and_decisions() {
        use crate::policies::testutil::drive_requests;
        use crate::victim_index::VictimBackend;
        use clipcache_media::ClipId;
        use clipcache_workload::Request;
        let repo = tiny_repo();
        let trace: Vec<Request> = [1u32, 2, 3, 1, 4, 5, 1, 2, 3, 5, 4, 2, 1, 3]
            .iter()
            .enumerate()
            .map(|(i, &c)| Request::new(Timestamp(i as u64 + 1), ClipId::new(c)))
            .collect();
        for kind in heap_eligible_kinds() {
            let mut scan =
                PolicySpec::from(kind).build(Arc::clone(&repo), ByteSize::mb(60), 1, None);
            let mut heap = PolicySpec::with_backend(kind, VictimBackend::Heap).build(
                Arc::clone(&repo),
                ByteSize::mb(60),
                1,
                None,
            );
            assert_eq!(scan.name(), heap.name(), "{kind:?}");
            assert_eq!(heap.name(), kind.to_string(), "{kind:?}");
            let scan_hits = drive_requests(scan.as_mut(), &trace);
            let heap_hits = drive_requests(heap.as_mut(), &trace);
            assert_eq!(scan_hits, heap_hits, "{kind:?}");
            assert_eq!(scan.resident_clips(), heap.resident_clips(), "{kind:?}");
        }
    }
}
