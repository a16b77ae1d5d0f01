//! Victim-selection scaling: the paper's conclusion proposes "tree-based
//! data structures to minimize the complexity of identifying a victim".
//! This bench compares the O(n)-scan victim index against the lazy-heap
//! backend as the repository grows, confirming when the tree pays off —
//! and where it doesn't.
//!
//! The scaling rows run the paper's variable-sized repository pattern,
//! where GreedyDual priorities rarely tie and the heap's amortized
//! O(log n) pop beats the O(n) scan (the gap widens with n; LFU's
//! totally-ordered tuple scores make the heap cost nearly flat). A
//! separate group runs the equi-sized repository: there every resident
//! shares `cost/size`, each eviction is a cache-wide tie (the paper's
//! Section 3.3 observation that equi-sized GreedyDual degenerates to
//! Random), and draining the tie band through the heap costs more than
//! one linear scan — the documented adversarial case for the heap
//! backend.

use clipcache_core::{DiscardEvictions, PolicyKind, PolicySpec, VictimBackend};
use clipcache_media::{paper, ByteSize, Repository};
use clipcache_workload::{RequestGenerator, Trace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn replay(spec: PolicySpec, repo: &Arc<Repository>, trace: &Trace) -> u64 {
    let capacity = repo.cache_capacity_for_ratio(0.125);
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
                    b.iter(|| black_box(replay(spec, &repo, &trace)));
                });
            }
        }
        // The paper's conclusion also names DYNSimple/LRU-SK as needing
        // tree-accelerated victim selection; these rows document their
        // O(n)-per-victim scan cost as the repository grows (both are
        // time-varying, so they stay on the scan backend). DYNSimple keys
        // each resident once per miss and min-scans the cheapest prefix.
        for kind in [PolicyKind::DynSimple { k: 2 }, PolicyKind::LruSK { k: 2 }] {
            group.bench_with_input(BenchmarkId::new(kind.to_string(), n), &n, |b, _| {
                b.iter(|| black_box(replay(PolicySpec::from(kind), &repo, &trace)));
            });
        }
    }
    group.finish();

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
            b.iter(|| black_box(replay(spec, &repo, &trace)));
        });
    }
    adversary.finish();
}

criterion_group!(benches, bench_eviction_scaling);
criterion_main!(benches);
