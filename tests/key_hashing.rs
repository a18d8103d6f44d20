//! The process-seeded key hasher under structured keys, and the live
//! runtime's conversions between its maps and `std`'s at the public
//! boundary (state probes, crash restores, final reports).

use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streamloc::engine::{
    splitmix64, CountOperator, FnOperator, Grouping, HashRouter, Key, KeyRouter, LiveConfig,
    LiveRuntime, OpContext, Placement, SourceRate, StateValue, Topology, Tuple,
};
use streamloc::routing::RoutingTable;
use streamloc::sketch::{KeyState, SpaceSaving};

/// Key sets whose bits a weak mix would drop, `n` keys each:
/// multiples of 2³² and of 2⁴⁸ (there are only 2¹⁶ of those),
/// sequential keys, and keys that share their low 32 bits.
fn structured_keys(n: u64) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("multiples of 2^32", (0..n).map(|k| k << 32).collect()),
        (
            "multiples of 2^48",
            (0..n.min(1 << 16)).map(|k| k << 48).collect(),
        ),
        ("sequential", (0..n).collect()),
        (
            "equal low 32 bits",
            (0..n)
                .map(|k| (splitmix64(k) << 32) | 0x9e37_79b9)
                .collect(),
        ),
    ]
}

/// The largest bucket over the mean, with `hashes` masked to at most
/// 2¹⁶ buckets and at least 16 hashes a bucket on average (a random
/// function's largest of 2¹⁶ buckets at a mean of 1 is already ≈ 7×
/// the mean, so a smaller set gets fewer buckets). `shift` picks the
/// bits: 0 for the low ones that index a table, 48 for the high ones
/// (hashbrown's 7-bit tags).
fn max_over_mean(hashes: &[u64], shift: u32) -> f64 {
    let bits = (hashes.len() as u64 / 16).ilog2().min(16);
    let mut buckets = vec![0u32; 1 << bits];
    for &h in hashes {
        buckets[((h >> shift) & ((1 << bits) - 1)) as usize] += 1;
    }
    let max = *buckets.iter().max().expect("buckets");
    f64::from(max) * buckets.len() as f64 / hashes.len() as f64
}

/// Structured keys and pairs spread over a table's buckets like random
/// ones: no bucket holds more than 4× the mean, in the low bits or the
/// high ones, for single keys (routing tables, operator state) and for
/// `(k, k)` and `(k, c)` pairs (the pair sketch).
#[test]
fn structured_keys_spread_over_buckets() {
    let state = KeyState::default();
    let mut sets: Vec<(String, Vec<u64>)> = Vec::new();
    for (name, keys) in structured_keys(1 << 20) {
        let single = keys.iter().map(|&k| state.hash_one(Key::new(k))).collect();
        let same = keys
            .iter()
            .map(|&k| state.hash_one((Key::new(k), Key::new(k))));
        let constant = keys
            .iter()
            .map(|&k| state.hash_one((Key::new(k), Key::new(42))));
        sets.push((name.to_owned(), single));
        sets.push((format!("pairs (k, k), k {name}"), same.collect()));
        sets.push((format!("pairs (k, 42), k {name}"), constant.collect()));
    }
    for (name, hashes) in &sets {
        for (bits, shift) in [("low", 0), ("high", 48)] {
            let spread = max_over_mean(hashes, shift);
            assert!(
                spread <= 4.0,
                "{name}: the fullest {bits}-bit bucket holds {spread:.1}× the mean"
            );
        }
    }
}

/// The time `fill` takes, at best of `reps` runs.
fn best_of(reps: usize, mut fill: impl FnMut() -> usize) -> Duration {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(fill());
            t.elapsed()
        })
        .min()
        .expect("at least one rep")
}

/// Filling a routing table and a pair sketch with a million structured
/// keys (a quarter from each set) takes at most 3× as long as with
/// random keys: keys that collided would make every insert probe the
/// ones before it. An unoptimized build fills 2¹⁶ keys, which still
/// makes colliding keys quadratically slower, in a fraction of a
/// second.
#[test]
fn structured_keys_fill_as_fast_as_random_ones() {
    let n: u64 = if cfg!(debug_assertions) {
        1 << 16
    } else {
        1 << 20
    };
    let structured: Vec<u64> = structured_keys(n / 4)
        .into_iter()
        .flat_map(|(_, k)| k)
        .collect();
    let random: Vec<u64> = (0..n).map(splitmix64).collect();
    let table = |keys: &[u64]| {
        let mut table = RoutingTable::new();
        for &k in keys {
            table.insert(Key::new(k), (k % 4) as u32);
        }
        table.len()
    };
    let sketch = |keys: &[u64]| {
        let mut sketch = SpaceSaving::new(keys.len());
        let (same, constant) = keys.split_at(keys.len() / 2);
        for &k in same {
            sketch.offer((Key::new(k), Key::new(k)));
        }
        for &k in constant {
            sketch.offer((Key::new(k), Key::new(42)));
        }
        sketch.len()
    };
    // Host noise only slows a run down: the best of a few runs each is
    // the fair comparison.
    for (name, fill) in [
        ("RoutingTable", &table as &dyn Fn(&[u64]) -> usize),
        ("SpaceSaving", &sketch),
    ] {
        let slow = best_of(2, || fill(&structured));
        let fast = best_of(2, || fill(&random));
        let ratio = slow.as_secs_f64() / fast.as_secs_f64();
        assert!(
            ratio <= 3.0,
            "{name}: structured keys took {slow:?}, random ones {fast:?} ({ratio:.1}×)"
        );
    }
}

/// Tuple `i` of the round-trip stream: 600 keys that are multiples of
/// 2³², visited in a stride.
fn data(i: u64) -> Tuple {
    Tuple::new([Key::new(((i * 7) % 600) << 32)], 0)
}

/// A key the filter drops: the source sends it while the test holds the
/// stream.
const HOLD: Key = Key::new(u64::MAX);

fn counts(state: &HashMap<Key, StateValue>) -> HashMap<Key, u64> {
    let count = |v: &StateValue| v.as_count().expect("a count");
    state.iter().map(|(&k, v)| (k, count(v))).collect()
}

/// Per `A` instance, the counts of `tuples` under hash routing.
fn reference(tuples: impl Iterator<Item = Tuple>, instances: usize) -> Vec<HashMap<Key, u64>> {
    let mut want = vec![HashMap::new(); instances];
    for t in tuples {
        let to = HashRouter.route(t.key(0), instances) as usize;
        *want[to].entry(t.key(0)).or_default() += 1;
    }
    want
}

/// The live runtime keeps its state maps under the process seed and
/// converts at the public boundary. A state probe, a crash that
/// restores a checkpoint, a probe of the restored state and the final
/// reports must each equal a single-threaded reference key by key.
/// The stream holds between its two phases (the source sends keys a
/// filter drops), so no tuple is in flight while the test probes,
/// checkpoints and crashes.
#[test]
fn state_survives_every_map_conversion_of_a_live_run() {
    const FIRST: u64 = 20_000;
    const SECOND: u64 = 10_000;
    const INSTANCES: usize = 2;
    let release = Arc::new(AtomicBool::new(false));
    let mut b = Topology::builder();
    let gate = Arc::clone(&release);
    let s = b.source("S", 1, SourceRate::PerSecond(200_000.0), move |_| {
        let gate = Arc::clone(&gate);
        let mut next = 0u64;
        Box::new(move || {
            if next == FIRST && !gate.load(Ordering::Acquire) {
                return Some(Tuple::new([HOLD], 0));
            }
            next += 1;
            (next <= FIRST + SECOND).then(|| data(next - 1))
        })
    });
    let filter = b.stateless(
        "F",
        1,
        Box::new(|_| {
            Box::new(FnOperator(|t: Tuple, ctx: &mut OpContext<'_>| {
                if t.key(0) != HOLD {
                    ctx.emit(t);
                }
            }))
        }),
    );
    let a = b.stateful("A", INSTANCES, CountOperator::factory());
    b.connect(s, filter, Grouping::fields(0));
    b.connect(filter, a, Grouping::fields(0));
    let topo = b.build().expect("a valid chain");
    let placement = Placement::aligned(&topo, INSTANCES);
    let mut rt = LiveRuntime::start(topo, placement, INSTANCES, LiveConfig::default());

    let first = reference((0..FIRST).map(data), INSTANCES);
    let probe = |rt: &LiveRuntime, i| counts(&rt.probe_state(a, i).expect("instance alive"));
    let deadline = Instant::now() + Duration::from_secs(60);
    while (0..INSTANCES)
        .map(|i| probe(&rt, i).values().sum::<u64>())
        .sum::<u64>()
        < FIRST
    {
        assert!(Instant::now() < deadline, "the first phase never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    for (i, want) in first.iter().enumerate() {
        assert_eq!(&probe(&rt, i), want, "probe of A{i}");
    }
    let checkpoint = rt.checkpoint_now();
    assert_eq!(
        checkpoint.total_keys(),
        first.iter().map(HashMap::len).sum()
    );
    rt.crash_instance(a, 0);
    for (i, want) in first.iter().enumerate() {
        assert_eq!(&probe(&rt, i), want, "probe of A{i} after A0's crash");
    }

    release.store(true, Ordering::Release);
    let reports = rt.join();
    let all = reference((0..FIRST + SECOND).map(data), INSTANCES);
    for r in reports.iter().filter(|r| r.po == a) {
        assert_eq!(
            counts(&r.state),
            all[r.instance],
            "final state of A{}",
            r.instance
        );
    }
}
