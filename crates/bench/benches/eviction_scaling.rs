//! Victim-selection scaling: the paper's conclusion proposes "tree-based
//! data structures to minimize the complexity of identifying a victim".
//! This bench compares the scan victim index against the lazy-heap
//! backend as the repository grows, confirming when the tree pays off —
//! and where it doesn't. A scan walks only the resident clips (a bit set
//! over the `n` clip slots), so one costs O(residents + n/64).
//!
//! The scaling rows run the paper's variable-sized repository pattern,
//! where GreedyDual priorities rarely tie and the heap's amortized
//! O(log n) pop beats the scan over residents, which grow with n at a
//! fixed cache ratio (the gap widens with n; LFU's
//! totally-ordered tuple scores make the heap cost nearly flat). A
//! separate group runs the equi-sized repository: there every resident
//! shares `cost/size`, each eviction is a cache-wide tie (the paper's
//! Section 3.3 observation that equi-sized GreedyDual degenerates to
//! Random), and draining the tie band through the heap costs more than
//! one linear scan — the documented adversarial case for the heap
//! backend. A chunked group runs LRU on the paper's repository cut into
//! 4 MB chunks, where each victim sheds only the tail it must: those rows
//! carry the per-miss cost of trimming victims, and since LRU's victim
//! comes off a recency list on either backend, they stay flat as the
//! repository grows. A sparse group runs LRU
//! and DYNSimple on the paper's 576 clips with a cache of 1/16 of their
//! bytes — one shard's share of the repository in the sharded service —
//! where the scan visits the few residents, not all 576 slots.

use clipcache_core::{DiscardEvictions, PolicyKind, PolicySpec, VictimBackend};
use clipcache_media::{paper, ByteSize, Repository};
use clipcache_workload::{RequestGenerator, Trace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn replay(spec: PolicySpec, repo: &Arc<Repository>, trace: &Trace, ratio: f64) -> u64 {
    let capacity = repo.cache_capacity_for_ratio(ratio);
    let mut cache = spec.build(Arc::clone(repo), capacity, 7, None);
    let mut hits = 0u64;
    for req in trace.iter() {
        if cache
            .access_into(req.clip, req.at, &mut DiscardEvictions)
            .is_hit()
        {
            hits += 1;
        }
    }
    hits
}

fn bench_eviction_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("victim_selection_scaling");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    for n in [576usize, 2_304, 9_216] {
        // The paper's six-class size pattern, cache for 12.5% of the
        // bytes: misses evict multiple small clips per large admission,
        // and priorities almost never tie.
        let repo = Arc::new(paper::variable_sized_repository_of(n));
        let trace = Trace::from_generator(RequestGenerator::new(n, 0.27, 0, 5_000, 13));

        for kind in [PolicyKind::GreedyDual, PolicyKind::Lfu] {
            for backend in [VictimBackend::Scan, VictimBackend::Heap] {
                let spec = PolicySpec::with_backend(kind, backend);
                let label = format!("{kind}@{}", backend.spelling());
                group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                    b.iter(|| black_box(replay(spec, &repo, &trace, 0.125)));
                });
            }
        }
        // The paper's conclusion also names DYNSimple/LRU-SK as needing
        // tree-accelerated victim selection. Both keys are time-varying.
        // LRU-SK stays on the scan backend, so its row documents the
        // per-victim scan cost as the repository grows. DYNSimple keeps
        // its own rank index: a miss keys only the head of each non-empty
        // (retained stamps, size) group, so its row stays nearly flat.
        for kind in [PolicyKind::DynSimple { k: 2 }, PolicyKind::LruSK { k: 2 }] {
            group.bench_with_input(BenchmarkId::new(kind.to_string(), n), &n, |b, _| {
                b.iter(|| black_box(replay(PolicySpec::from(kind), &repo, &trace, 0.125)));
            });
        }
    }
    group.finish();

    // Chunk-granular residency: 4 MB chunks turn a 3.5 GB video into 875
    // chunks, and a miss trims each victim by the bytes still owed. LRU
    // reads its victim off a recency list on either backend, so one row
    // per size shows the O(1) victim as the repository grows.
    let mut chunked = c.benchmark_group("victim_selection_chunked");
    chunked.sample_size(10);
    chunked.measurement_time(Duration::from_secs(2));
    chunked.warm_up_time(Duration::from_millis(300));
    for n in [576usize, 2_304, 9_216] {
        let repo =
            Arc::new(paper::variable_sized_repository_of(n).with_chunk_size(ByteSize::mb(4)));
        let trace = Trace::from_generator(RequestGenerator::new(n, 0.27, 0, 5_000, 13));
        let spec = PolicySpec::from(PolicyKind::Lru);
        chunked.bench_with_input(
            BenchmarkId::new(PolicyKind::Lru.to_string(), n),
            &n,
            |b, _| {
                b.iter(|| black_box(replay(spec, &repo, &trace, 0.125)));
            },
        );
    }
    chunked.finish();

    // Sparse residency: a cache for 1/16 of the paper repository's bytes
    // holds a few dozen of its 576 clips, and every miss scans only those.
    let mut sparse = c.benchmark_group("victim_selection_sparse");
    sparse.sample_size(10);
    sparse.measurement_time(Duration::from_secs(2));
    sparse.warm_up_time(Duration::from_millis(300));
    let n = 576usize;
    let repo = Arc::new(paper::variable_sized_repository_of(n));
    let trace = Trace::from_generator(RequestGenerator::new(n, 0.27, 0, 5_000, 13));
    for kind in [PolicyKind::Lru, PolicyKind::DynSimple { k: 2 }] {
        sparse.bench_with_input(BenchmarkId::new(kind.to_string(), n), &n, |b, _| {
            b.iter(|| black_box(replay(PolicySpec::from(kind), &repo, &trace, 1.0 / 16.0)));
        });
    }
    sparse.finish();

    // Adversarial case: equal 10 MB clips make every GreedyDual eviction
    // a cache-wide tie (averaging hundreds of clips per draw), and the
    // heap pops and re-files the whole tie band where the scan reads it
    // in one pass.
    let mut adversary = c.benchmark_group("victim_selection_equi_tie_band");
    adversary.sample_size(10);
    adversary.measurement_time(Duration::from_secs(2));
    adversary.warm_up_time(Duration::from_millis(300));
    let n = 9_216usize;
    let repo = Arc::new(paper::equi_sized_repository_of(n, ByteSize::mb(10)));
    let trace = Trace::from_generator(RequestGenerator::new(n, 0.27, 0, 5_000, 13));
    for backend in [VictimBackend::Scan, VictimBackend::Heap] {
        let spec = PolicySpec::with_backend(PolicyKind::GreedyDual, backend);
        adversary.bench_with_input(BenchmarkId::new(backend.spelling(), n), &n, |b, _| {
            b.iter(|| black_box(replay(spec, &repo, &trace, 0.125)));
        });
    }
    adversary.finish();
}

criterion_group!(benches, bench_eviction_scaling);
criterion_main!(benches);
