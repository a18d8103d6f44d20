//! Live source pacing. A test binary of its own: it times a run, so no
//! other test may share the cores with it.

use std::time::Instant;

use streamloc_engine::{
    CountOperator, Grouping, Key, LiveConfig, LiveRuntime, Placement, SourceRate, Topology, Tuple,
};

/// A paced source keeps its rate: tuple `k` is due `k / rate` after it
/// started, so the time it spends generating and routing does not slow
/// it down, and it never runs ahead of its due time.
#[test]
fn a_paced_source_keeps_its_rate() {
    let (rate, total) = (400_000.0, 200_000u64);
    let mut b = Topology::builder();
    let s = b.source("S", 1, SourceRate::PerSecond(rate), move |_| {
        let mut left = total;
        Box::new(move || {
            left = left.checked_sub(1)?;
            Some(Tuple::new([Key::new(left % 64)], 0))
        })
    });
    let a = b.stateful("A", 1, CountOperator::factory());
    b.connect(s, a, Grouping::fields(0));
    let topo = b.build().unwrap();
    let placement = Placement::aligned(&topo, 1);
    let started = Instant::now();
    let reports = LiveRuntime::start(topo, placement, 1, LiveConfig::default()).join();
    let elapsed = started.elapsed().as_secs_f64();
    let counted: u64 = reports
        .iter()
        .filter(|r| r.po == a)
        .flat_map(|r| r.state.values())
        .filter_map(|v| v.as_count())
        .sum();
    assert_eq!(counted, total);
    let achieved = total as f64 / elapsed;
    assert!(achieved >= 0.85 * rate, "{achieved:.0} of {rate} tuples/s");
    // A source stages 64 tuples at a time: the last stage is due
    // `(total - 64) / rate` after the start.
    let earliest = (total - 64) as f64 / rate;
    assert!(
        elapsed >= earliest,
        "{elapsed:.3} s, due no earlier than {earliest:.3} s"
    );
}
