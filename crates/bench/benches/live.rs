//! Criterion benchmark for the live (threaded) data plane: wall-clock
//! cost of pushing a fixed Zipf stream through the source → A → B
//! chain in batches of `LiveRuntime::BATCH` — the micro-scale view of
//! the `hotpath` binary's throughput bench.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use streamloc_engine::{
    CountOperator, Grouping, Key, LiveConfig, LiveRuntime, Placement, SourceRate, Topology, Tuple,
};
use streamloc_workloads::{SplitMix64, Zipf};

const SERVERS: usize = 3;
const TOTAL: usize = 30_000;

fn zipf_chain(stream: &Arc<Vec<u64>>) -> Topology {
    let per_source = TOTAL / SERVERS;
    let stream = Arc::clone(stream);
    let mut b = Topology::builder();
    let s = b.source("S", SERVERS, SourceRate::Saturate, move |i| {
        let stream = Arc::clone(&stream);
        let mut next = i * per_source;
        let end = (i + 1) * per_source;
        Box::new(move || {
            if next == end {
                return None;
            }
            let k = stream[next];
            next += 1;
            Some(Tuple::new([Key::new(k), Key::new(k)], 0))
        })
    });
    let a = b.stateful("A", SERVERS, CountOperator::factory());
    let bb = b.stateful("B", SERVERS, CountOperator::factory());
    b.connect(s, a, Grouping::fields(0));
    b.connect(a, bb, Grouping::fields(1));
    b.build().unwrap()
}

fn bench_live_pipeline(c: &mut Criterion) {
    let stream: Arc<Vec<u64>> = Arc::new({
        let zipf = Zipf::new(1_000, 1.0);
        let mut rng = SplitMix64::new(0x2a2a);
        (0..TOTAL).map(|_| zipf.sample(&mut rng) as u64).collect()
    });
    let mut group = c.benchmark_group("live/pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(TOTAL as u64));
    group.bench_function(BenchmarkId::new("batch", LiveRuntime::BATCH), |b| {
        b.iter(|| {
            let topo = zipf_chain(&stream);
            let placement = Placement::aligned(&topo, SERVERS);
            let rt = LiveRuntime::start(topo, placement, SERVERS, LiveConfig::default());
            rt.join().len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_live_pipeline);
criterion_main!(benches);
