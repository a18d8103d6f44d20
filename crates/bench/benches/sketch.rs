//! Criterion micro-benchmarks for the SpaceSaving sketch — the
//! per-tuple instrumentation cost that must stay negligible next to
//! operator work (paper §3.2: "most of the resources ... should be
//! dedicated to the application, and not collecting statistics").

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use streamloc_engine::Key;
use streamloc_sketch::{CountMin, ExactCounter, SpaceSaving};
use streamloc_workloads::{SplitMix64, Zipf};

fn zipf_stream(n: usize, domain: usize) -> Vec<u64> {
    let zipf = Zipf::new(domain, 1.0);
    let mut rng = SplitMix64::new(7);
    (0..n).map(|_| zipf.sample(&mut rng) as u64).collect()
}

fn bench_offer(c: &mut Criterion) {
    let stream = zipf_stream(100_000, 1_000_000);
    let mut group = c.benchmark_group("sketch/offer");
    group.throughput(Throughput::Elements(stream.len() as u64));
    for capacity in [1_000usize, 10_000, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("space_saving", capacity),
            &capacity,
            |b, &capacity| {
                b.iter(|| {
                    let mut sketch = SpaceSaving::new(capacity);
                    for &k in &stream {
                        sketch.offer(black_box(k));
                    }
                    sketch.len()
                });
            },
        );
    }
    group.bench_function("count_min_4x16k", |b| {
        b.iter(|| {
            let mut cm = CountMin::new(4, 16_384);
            for &k in &stream {
                cm.offer(black_box(&k));
            }
            cm.total()
        });
    });
    group.bench_function("exact_counter", |b| {
        b.iter(|| {
            let mut counter = ExactCounter::new();
            for &k in &stream {
                counter.offer(black_box(k));
            }
            counter.len()
        });
    });
    group.finish();
}

fn bench_merge_and_query(c: &mut Criterion) {
    let capacity = 10_000;
    let mut a = SpaceSaving::new(capacity);
    let mut b = SpaceSaving::new(capacity);
    for k in zipf_stream(200_000, 500_000) {
        a.offer(k);
    }
    for k in zipf_stream(200_000, 500_000).iter().map(|k| k + 1_000) {
        b.offer(k);
    }
    let mut group = c.benchmark_group("sketch");
    group.bench_function("merge_10k", |bencher| {
        bencher.iter(|| SpaceSaving::merged(black_box(&a), black_box(&b), capacity).len());
    });
    group.bench_function("top_1000", |bencher| {
        bencher.iter(|| black_box(&a).top_k(1000).len());
    });
    group.bench_function("iter_all", |bencher| {
        bencher.iter(|| black_box(&a).iter().map(|e| e.count).sum::<u64>());
    });
    group.finish();
}

fn bench_offer_weighted(c: &mut Criterion) {
    // Heavy weights force the documented O(distinct counts) bucket
    // walk: each offer may leapfrog many buckets instead of the O(1)
    // amortized unit-increment path.
    let mut rng = SplitMix64::new(11);
    let weighted: Vec<(u64, u64)> = zipf_stream(100_000, 1_000_000)
        .into_iter()
        .map(|k| (k, 1 + rng.next_u64() % 1_000_000_000))
        .collect();
    let mut group = c.benchmark_group("sketch/offer_weighted");
    group.throughput(Throughput::Elements(weighted.len() as u64));
    for capacity in [1_000usize, 10_000] {
        group.bench_with_input(
            BenchmarkId::new("space_saving_heavy", capacity),
            &capacity,
            |b, &capacity| {
                b.iter(|| {
                    let mut sketch = SpaceSaving::new(capacity);
                    for &(k, w) in &weighted {
                        sketch.offer_weighted(black_box(k), black_box(w));
                    }
                    sketch.len()
                });
            },
        );
    }
    group.finish();
}

/// The `live-drain` tracker shape: a 134,477-tuple job of `(Key, Key)`
/// pairs with about 15k distinct pairs, into a 50k-pair sketch. Nothing
/// is evicted, so every offer updates a plain counter and every ordered
/// read sorts the counters on demand.
fn bench_live_drain_shape(c: &mut Criterion) {
    const CAPACITY: usize = 50_000;
    let zipf = Zipf::new(15_000, 0.5);
    let mut rng = SplitMix64::new(13);
    let pairs: Vec<(Key, Key)> = (0..134_477)
        .map(|_| {
            let id = zipf.sample(&mut rng) as u64;
            (Key::new(id % 512), Key::new(1 << 20 | id))
        })
        .collect();
    let mut unfilled = SpaceSaving::new(CAPACITY);
    for &pair in &pairs {
        unfilled.offer(pair);
    }
    assert!(
        unfilled.len() < CAPACITY,
        "the live-drain sketch never fills"
    );

    let mut group = c.benchmark_group("sketch/live_drain");
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.bench_function("offer_pairs_50k", |b| {
        b.iter(|| {
            let mut sketch = SpaceSaving::new(CAPACITY);
            for &pair in &pairs {
                sketch.offer(black_box(pair));
            }
            sketch.len()
        });
    });
    group.finish();

    let mut group = c.benchmark_group("sketch/unfilled");
    group.bench_function("iter_all", |b| {
        b.iter(|| black_box(&unfilled).iter().map(|e| e.count).sum::<u64>());
    });
    group.bench_function("top_1000", |b| {
        b.iter(|| black_box(&unfilled).top_k(1000).len());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_offer,
    bench_offer_weighted,
    bench_merge_and_query,
    bench_live_drain_shape
);
criterion_main!(benches);
