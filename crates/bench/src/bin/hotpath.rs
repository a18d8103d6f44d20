//! Hot-path bench: live throughput, manager rebuild latency, and
//! span-tracing overhead, emitting `BENCH_throughput.json`,
//! `BENCH_rebuild.json` and `BENCH_span_overhead.json` at the workspace
//! root.

fn main() {
    let quick = streamloc_bench::quick_mode();
    let (_, tpath) = streamloc_bench::hotpath::bench_throughput(quick);
    println!("wrote {}", tpath.display());
    let (_, rpath) = streamloc_bench::hotpath::bench_rebuild(quick);
    println!("wrote {}", rpath.display());
    let (span, spath) = streamloc_bench::hotpath::bench_span_overhead(quick);
    println!("wrote {}", spath.display());
    let overhead = span.overhead();
    assert!(
        overhead <= 0.05,
        "span sampling at 1/64 must cost <= 5% throughput, got {:.2}%",
        overhead * 100.0
    );
}
