//! `LiveRuntime::start` spawns every shard thread before any source
//! produces: a saturating source that ran at once would compete with
//! the rest of the start. A binary of its own, as it counts the
//! process's threads.

#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use streamloc::engine::{
    CountOperator, Grouping, Key, LiveConfig, LiveRuntime, Placement, SourceRate, Topology, Tuple,
};

/// The process's threads, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("a Threads line")
        .trim()
        .parse()
        .expect("a count")
}

/// Sixteen saturating sources, a shard each, feed two counters. Every
/// generator notes the process's threads when it produces its first
/// tuple; each must see every shard thread, as many as right after
/// `start` returned. Shards end only after `stop`, so the count holds
/// still until then.
#[test]
fn sources_produce_only_once_every_shard_runs() {
    const SOURCES: usize = 16;
    let seen: Arc<Mutex<Vec<usize>>> = Arc::default();
    let mut b = Topology::builder();
    let log = Arc::clone(&seen);
    let s = b.source("S", SOURCES, SourceRate::Saturate, move |i| {
        let log = Arc::clone(&log);
        let mut c = i as u64;
        Box::new(move || {
            if c == i as u64 {
                log.lock().unwrap().push(threads());
            }
            c += SOURCES as u64;
            Some(Tuple::new([Key::new(c % 100)], 0))
        })
    });
    let a = b.stateful("A", 2, CountOperator::factory());
    b.connect(s, a, Grouping::fields(0));
    let topo = b.build().unwrap();
    let placement = Placement::aligned(&topo, 2);
    let rt = LiveRuntime::start(topo, placement, 2, LiveConfig::default());
    let running = threads();
    let deadline = Instant::now() + Duration::from_secs(30);
    while seen.lock().unwrap().len() < SOURCES {
        assert!(Instant::now() < deadline, "a source never produced");
        std::thread::sleep(Duration::from_millis(1));
    }
    rt.stop();
    let _ = rt.join();
    let seen = seen.lock().unwrap();
    let early = seen.iter().filter(|&&n| n < running).count();
    assert_eq!(
        early, 0,
        "{early} of {SOURCES} sources ran during start: {seen:?} of {running}"
    );
}
