//! Steady-state allocation accounting for the sink-based access path.
//!
//! The `access_into` rework removed the per-miss `Vec` of evicted clips
//! and the per-plan scratch vectors from the hot loop: policies own
//! reusable buffers and callers supply an [`EvictionSink`]. This test
//! pins that property with a counting global allocator:
//!
//! * every registry policy makes **zero** allocations replaying a trace
//!   it has already warmed up on (scratch buffers reached capacity,
//!   sorts are in-place, the sink is a no-op);
//! * so does every policy whose victim index can run on its lazy heap,
//!   on a hit-heavy replay long enough that a heap keeping every stale
//!   entry would have to grow: the heap compacts in place once stale
//!   entries outnumber live ones.
//!
//! The allocator counts only on a thread inside [`counting`], so the
//! harness's own threads, which allocate while a test runs, never add
//! to the count; `allocations_on_other_threads_are_not_counted` pins
//! that.

use clipcache::core::{ClipCache, DiscardEvictions, EvictionCount, PolicyKind, PolicySpec};
use clipcache::media::{paper, Bandwidth, ByteSize, ClipId, MediaType, RepositoryBuilder};
use clipcache::workload::{Request, RequestGenerator, Timestamp, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread is inside [`counting`]. Const-initialised
    /// and without a destructor, so the allocator can read it at any
    /// point of a thread's life without allocating.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn drive(cache: &mut dyn ClipCache, requests: &[Request]) -> u64 {
    let mut hits = 0u64;
    for req in requests {
        if cache
            .access_into(req.clip, req.at, &mut DiscardEvictions)
            .is_hit()
        {
            hits += 1;
        }
    }
    hits
}

/// Allocations performed by `f` on the calling thread.
fn counting<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn steady_state_access_path_does_not_allocate() {
    let repo = Arc::new(paper::variable_sized_repository_of(64));
    let capacity = repo.cache_capacity_for_ratio(0.125);
    let freqs = vec![1.0 / repo.len() as f64; repo.len()];
    let trace = Trace::from_generator(RequestGenerator::new(repo.len(), 0.27, 0, 2_000, 11));
    let requests: Vec<Request> = trace.iter().copied().collect();

    // Every online registry policy (Belady needs the trace itself;
    // BlockLruK's block maps grow with residency churn — both are out of
    // scope for the zero-alloc claim).
    let lineup = [
        PolicyKind::Random,
        PolicyKind::Lru,
        PolicyKind::Mru,
        PolicyKind::Fifo,
        PolicyKind::Lfu,
        PolicyKind::LfuDa,
        PolicyKind::Size,
        PolicyKind::LruK { k: 2 },
        PolicyKind::LruKCrp { k: 2, crp: 3 },
        PolicyKind::LruSK { k: 2 },
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
        PolicyKind::DynSimple { k: 2 },
        PolicyKind::DynSimple { k: 32 },
        PolicyKind::DynSimpleBypass { k: 2 },
    ];
    // LRU on 4 MB chunks: victims give up tails and prefixes complete.
    let chunked_repo =
        Arc::new(paper::variable_sized_repository_of(64).with_chunk_size(ByteSize::mb(4)));
    let chunked = [(PolicyKind::Lru, &chunked_repo)];
    for (spec, repo) in lineup.map(|kind| (kind, &repo)).into_iter().chain(chunked) {
        let mut cache = spec.build(Arc::clone(repo), capacity, 7, Some(&freqs));
        // Warm-up pass: scratch buffers and per-clip histories grow to
        // their high-water marks here, where allocation is expected.
        drive(cache.as_mut(), &requests);
        // Steady state: replaying the identical trace must not allocate.
        let (allocs, hits) = counting(|| drive(cache.as_mut(), &requests));
        let spelling = spec.spelling();
        assert_eq!(
            allocs, 0,
            "{spelling}: {allocs} allocations in a steady-state replay"
        );
        assert!(hits > 0, "{spelling}: warmed cache must produce hits");
    }

    // The Simple/DYNSimple victim planner's sorted-tail fallback: a clip
    // as large as the cache displaces all 24 small residents, past the
    // planner's min-scan bound, on every cycle of the trace.
    let mut b = RepositoryBuilder::new();
    for _ in 0..24 {
        b = b.push(MediaType::Audio, ByteSize::mb(1), Bandwidth::kbps(300));
    }
    let big = b.push(MediaType::Video, ByteSize::mb(24), Bandwidth::mbps(4));
    let big_repo = Arc::new(big.build().unwrap());
    let cycle: Vec<Request> = (0..100)
        .map(|i| Request::new(Timestamp(i as u64 + 1), ClipId::from_index(i % 25)))
        .collect();
    let big_freqs = vec![1.0 / 25.0; 25];
    for kind in [PolicyKind::Simple, PolicyKind::DynSimple { k: 2 }] {
        let mut cache = kind.build(Arc::clone(&big_repo), ByteSize::mb(24), 7, Some(&big_freqs));
        drive(cache.as_mut(), &cycle);
        let (allocs, evictions) = counting(|| {
            let mut evictions = EvictionCount::default();
            for req in &cycle {
                cache.access_into(req.clip, req.at, &mut evictions);
            }
            evictions.0
        });
        assert_eq!(
            allocs, 0,
            "{kind}: {allocs} allocations on the fallback path"
        );
        assert!(
            evictions >= 4 * 24,
            "{kind}: the large clip must displace every small clip each cycle"
        );
    }

    // A hit-heavy replay on a cache for most of the repository: nearly
    // every request rewrites one resident's score, which the lazy heap
    // files as a new entry. 40k requests are far more entries than the
    // warm-up left room for, so only compaction keeps the steady state
    // allocation-free. The `@heap` spellings parse everywhere these
    // policies once had a heap backend; they build the same policies.
    let hit_heavy_trace =
        Trace::from_generator(RequestGenerator::new(repo.len(), 0.27, 0, 40_000, 5));
    let hit_heavy: Vec<Request> = hit_heavy_trace.iter().copied().collect();
    let big = repo.cache_capacity_for_ratio(0.9);
    for kind in [
        PolicyKind::Random,
        PolicyKind::Lfu,
        PolicyKind::LfuDa,
        PolicyKind::Size,
        PolicyKind::LruK { k: 2 },
        PolicyKind::LruKCrp { k: 2, crp: 3 },
        PolicyKind::GreedyDual,
        PolicyKind::GreedyDualFetchTime { mbps: 8 },
        PolicyKind::GreedyDualPackets,
        PolicyKind::GreedyDualLatency { mbps: 1 },
        PolicyKind::GdFreq,
        PolicyKind::GdsPopularity,
    ] {
        let spelling = format!("{}@heap", kind.spelling());
        let spec: PolicySpec = spelling.parse().expect("heap spellings parse");
        let mut cache = spec.build(Arc::clone(&repo), big, 7, None);
        drive(cache.as_mut(), &hit_heavy);
        let (allocs, hits) = counting(|| drive(cache.as_mut(), &hit_heavy));
        assert_eq!(
            allocs, 0,
            "{spelling}: {allocs} allocations in a hit-heavy steady-state replay"
        );
        assert!(
            hits * 10 > hit_heavy.len() as u64 * 7,
            "{spelling}: the replay must be hit-heavy ({hits} hits)"
        );
    }
}

#[test]
fn allocations_on_other_threads_are_not_counted() {
    let (go, done) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        // Spawned before counting starts: the spawn itself allocates.
        s.spawn(|| {
            while !go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let made: Vec<Vec<u8>> = (0..100).map(|n| vec![0; n + 1]).collect();
            std::hint::black_box(made);
            done.store(true, Ordering::Release);
        });
        // The handshake is two atomics, so this thread allocates
        // nothing while the other one allocates 101 times.
        let (allocs, ()) = counting(|| {
            go.store(true, Ordering::Release);
            while !done.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        assert_eq!(allocs, 0, "another thread's allocations were counted");
    });
}
