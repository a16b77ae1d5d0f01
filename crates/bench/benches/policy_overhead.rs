//! Processor-utilization microbenchmarks (the paper's Section 1 metric:
//! "Processor utilization quantifies the complexity of a design and its
//! implementation").
//!
//! Measures the wall time each policy needs to service the paper's
//! 10,000-request Zipfian trace against the 576-clip repository at
//! `S_T/S_DB = 0.125`, i.e. the cost of the bookkeeping alone — every
//! policy sees the identical reference string and the hot loop drives
//! the zero-allocation `access_into` path with a no-op eviction sink.

use clipcache_core::{DiscardEvictions, PolicyKind, PolicySpec};
use clipcache_media::paper;
use clipcache_workload::{RequestGenerator, ShiftedZipf, Trace, Zipf};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_policies(c: &mut Criterion) {
    let repo = Arc::new(paper::variable_sized_repository());
    let n = repo.len();
    let trace = Trace::from_generator(RequestGenerator::paper(n, 42));
    let freqs = ShiftedZipf::new(Zipf::paper(n), 0).frequencies();
    let capacity = repo.cache_capacity_for_ratio(0.125);

    let mut group = c.benchmark_group("policy_overhead_10k_requests");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    let lineup = [
        PolicySpec::from(PolicyKind::Random),
        PolicySpec::from(PolicyKind::Lru),
        PolicySpec::from(PolicyKind::Lfu),
        PolicySpec::from(PolicyKind::LfuDa),
        PolicySpec::from(PolicyKind::Size),
        PolicySpec::from(PolicyKind::LruK { k: 2 }),
        PolicySpec::from(PolicyKind::LruSK { k: 2 }),
        PolicySpec::from(PolicyKind::GreedyDual),
        PolicySpec::from(PolicyKind::GreedyDualNaive),
        PolicySpec::from(PolicyKind::GdFreq),
        PolicySpec::from(PolicyKind::Igd),
        PolicySpec::from(PolicyKind::Simple),
        PolicySpec::from(PolicyKind::DynSimple { k: 2 }),
        PolicySpec::from(PolicyKind::DynSimple { k: 32 }),
        PolicySpec::from(PolicyKind::DynSimpleBypass { k: 2 }),
    ];
    for spec in lineup {
        group.bench_with_input(
            BenchmarkId::from_parameter(spec.spelling()),
            &spec,
            |b, spec| {
                b.iter(|| {
                    let mut cache = spec.build(Arc::clone(&repo), capacity, 7, Some(&freqs));
                    let mut hits = 0u64;
                    for req in trace.iter() {
                        if cache
                            .access_into(req.clip, req.at, &mut DiscardEvictions)
                            .is_hit()
                        {
                            hits += 1;
                        }
                    }
                    black_box(hits)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
