//! Live source pacing and hand-off latency. A test binary of its own:
//! it times runs, so no other test may share the cores with it.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use streamloc_engine::{
    CountOperator, Grouping, Key, LiveConfig, LiveRuntime, OpContext, Operator, Placement,
    SourceRate, Topology, Tuple,
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

/// Records, for every tuple, the time it arrived minus the due time its
/// source stamped into field 1, in nanoseconds since `clock`.
struct LatencySink {
    clock: Instant,
    out: Arc<Mutex<Vec<u64>>>,
}

impl Operator for LatencySink {
    fn process(&mut self, tuple: Tuple, _: &mut OpContext<'_>) {
        let now = self.clock.elapsed().as_nanos() as u64;
        let due = tuple.key(1).value();
        self.out.lock().unwrap().push(now.saturating_sub(due));
    }
}

/// A slow open loop is not held for full stages or batches. Like an
/// open-loop benchmark, the source saturates the runtime but its
/// generator sleeps until each tuple is due, here at 5k tuples/s into
/// four placement tags. A 64-tuple stage takes 12.8 ms to fill, and a
/// 64-tuple batch per destination four stages, so waiting for either
/// would put the median delay at tens of milliseconds. Stages and send
/// buffers close after a 100 µs linger instead.
#[test]
fn a_slow_open_loop_is_not_held_for_full_batches() {
    let (rate, total, tags) = (5_000.0, 2_500u64, 4);
    let clock = Instant::now();
    let mut b = Topology::builder();
    let s = b.source("S", 1, SourceRate::Saturate, move |_| {
        let mut next = 0u64;
        let start = clock.elapsed();
        Box::new(move || {
            if next == total {
                return None;
            }
            let due = start + Duration::from_secs_f64(next as f64 / rate);
            if let Some(wait) = due.checked_sub(clock.elapsed()) {
                std::thread::sleep(wait);
            }
            next += 1;
            let due_ns = Key::new(due.as_nanos() as u64);
            Some(Tuple::new([Key::new(next % 64), due_ns], 0))
        })
    });
    let delays = Arc::new(Mutex::new(Vec::new()));
    let sinks = Arc::clone(&delays);
    let a = b.stateless(
        "A",
        tags,
        Box::new(move |_| {
            let out = Arc::clone(&sinks);
            Box::new(LatencySink { clock, out })
        }),
    );
    b.connect(s, a, Grouping::fields(0));
    let topo = b.build().unwrap();
    let placement = Placement::aligned(&topo, tags);
    let _ = LiveRuntime::start(topo, placement, tags, LiveConfig::default()).join();
    let mut delays = std::mem::take(&mut *delays.lock().unwrap());
    assert_eq!(delays.len() as u64, total);
    delays.sort_unstable();
    let median = Duration::from_nanos(delays[delays.len() / 2]);
    assert!(
        median <= Duration::from_millis(5),
        "median sink time minus due time {median:?}"
    );
}
