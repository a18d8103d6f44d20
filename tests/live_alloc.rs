//! The live data plane in steady state allocates (next to) nothing:
//! send buffers, source stages and forwarded batches come from the
//! deployment's spare buffers, and every consumed batch goes back
//! there. A test binary of its own, as it installs a counting global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streamloc::engine::{
    CountOperator, Grouping, Key, LiveConfig, LiveRuntime, Placement, SourceRate, Topology, Tuple,
};

/// Counts every allocation and reallocation of the process.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Tuples before the measured window: every key's state exists, every
/// queue and channel has grown, and the spare list is filled.
const WARM: u64 = 200_000;
/// Tuples in the measured window.
const MEASURED: u64 = 1_000_000;
/// Tuples after it, so the window closes with the pipeline still full.
const TAIL: u64 = 100_000;
const KEYS: u64 = 1_000;

/// Allocations per 1,000 tuples the window may see. Without recycled
/// buffers (a fresh stage and send buffer per batch, at a batch of 64)
/// this test measured 82–99 on 2 vCPUs; with them, 0.27–0.95, by
/// estimate mostly the blocks of the cross-shard channels (one per 31
/// messages). One new allocation per batch on one hop adds ~4.
const BOUND_PER_1000: f64 = 2.0;

/// A saturating source feeds two keyed hops on two placement tags,
/// source → A → B. The source reads the allocation counter when it
/// emits tuple `WARM` and tuple `WARM + MEASURED`; every shard
/// allocates between the two reads, and the per-key counts at the end
/// are exact.
#[test]
fn a_steady_live_pipeline_allocates_almost_nothing() {
    let window = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let marks = Arc::clone(&window);
    let mut b = Topology::builder();
    let s = b.source("S", 1, SourceRate::Saturate, move |_| {
        let marks = Arc::clone(&marks);
        let mut c = 0u64;
        Box::new(move || {
            match c {
                WARM => marks[0].store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed),
                n if n == WARM + MEASURED => {
                    marks[1].store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
                }
                n if n == WARM + MEASURED + TAIL => return None,
                _ => {}
            }
            let k = (c.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % KEYS;
            c += 1;
            Some(Tuple::new([Key::new(k), Key::new((7 * k + 3) % KEYS)], 0))
        })
    });
    let a = b.stateful("A", 2, CountOperator::factory());
    let bb = b.stateful("B", 2, CountOperator::factory());
    b.connect(s, a, Grouping::fields(0));
    b.connect(a, bb, Grouping::fields(1));
    let topo = b.build().unwrap();
    let placement = Placement::aligned(&topo, 2);
    let reports = LiveRuntime::start(topo, placement, 2, LiveConfig::default()).join();

    let total = WARM + MEASURED + TAIL;
    for po in [a, bb] {
        let counted: u64 = reports
            .iter()
            .filter(|r| r.po == po)
            .flat_map(|r| r.state.values())
            .filter_map(|v| v.as_count())
            .sum();
        assert_eq!(counted, total, "{po:?} counted every tuple");
    }
    let allocs = window[1].load(Ordering::Relaxed) - window[0].load(Ordering::Relaxed);
    let per_1000 = allocs as f64 * 1_000.0 / MEASURED as f64;
    println!("{allocs} allocations over {MEASURED} tuples: {per_1000:.3} per 1,000 tuples");
    assert!(
        per_1000 < BOUND_PER_1000,
        "{per_1000:.3} allocations per 1,000 tuples in steady state (bound {BOUND_PER_1000})"
    );
}
