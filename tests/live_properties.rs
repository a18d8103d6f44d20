//! Property tests for the live multi-threaded runtime: conservation
//! and unique ownership must hold under real thread interleavings,
//! not just the simulator's deterministic schedule.

use proptest::prelude::*;
use streamloc::engine::{
    CountOperator, Grouping, HashRouter, Key, KeyRouter, LiveConfig, LiveReconfig, LiveRuntime,
    ModuloRouter, PoId, Placement, SourceRate, Topology, Tuple,
};
use std::sync::Arc;

struct Chain {
    topo: Topology,
    source: PoId,
    a: PoId,
    b: PoId,
}

fn build(n: usize, keys: u64, total: u64, seed: u64) -> Chain {
    let mut b = Topology::builder();
    let s = b.source("S", n, SourceRate::Saturate, move |i| {
        let mut c = seed ^ ((i as u64) << 48);
        let mut left = total / n as u64;
        Box::new(move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            c = c.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let k = (c >> 7) % keys;
            Some(Tuple::new([Key::new(k), Key::new(k)], 0))
        })
    });
    let a = b.stateful("A", n, CountOperator::factory());
    let bb = b.stateful("B", n, CountOperator::factory());
    b.connect(s, a, Grouping::fields(0));
    b.connect(a, bb, Grouping::fields(1));
    Chain {
        topo: b.build().unwrap(),
        source: s,
        a,
        b: bb,
    }
}

proptest! {
    // Threads are expensive; a few diverse cases suffice.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn live_conservation_under_interleaving(
        n in 1usize..5,
        keys in 1u64..40,
        seed in any::<u64>(),
    ) {
        let total = 20_000u64;
        let chain = build(n, keys, total, seed);
        let placement = Placement::aligned(&chain.topo, n);
        let (src, a_po, b_po) = (chain.source, chain.a, chain.b);
        let rt = LiveRuntime::start(chain.topo, placement, n, LiveConfig::default());
        let reports = rt.join();
        let expected = (total / n as u64) * n as u64;
        let emitted: u64 = reports
            .iter()
            .filter(|r| r.po == src)
            .map(|r| r.processed)
            .sum();
        prop_assert_eq!(emitted, expected);
        for po in [a_po, b_po] {
            let counted: u64 = reports
                .iter()
                .filter(|r| r.po == po)
                .flat_map(|r| r.state.values())
                .filter_map(|v| v.as_count())
                .sum();
            prop_assert_eq!(counted, expected, "operator {:?}", po);
        }
    }

    #[test]
    fn live_migration_conserves_under_interleaving(
        n in 2usize..5,
        keys in 4u64..24,
        seed in any::<u64>(),
        stale_routers in any::<bool>(),
    ) {
        let total = 40_000u64;
        // Rate-limit so the stream outlives the reconfiguration.
        let mut b = Topology::builder();
        let s = b.source("S", n, SourceRate::PerSecond(100_000.0), move |i| {
            let mut c = seed ^ ((i as u64) << 48);
            let mut left = total / n as u64;
            Box::new(move || {
                if left == 0 {
                    return None;
                }
                left -= 1;
                c = c.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let k = (c >> 7) % keys;
                Some(Tuple::new([Key::new(k), Key::new(k)], 0))
            })
        });
        let a = b.stateful("A", n, CountOperator::factory());
        let bb = b.stateful("B", n, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        let hop = b.connect(a, bb, Grouping::fields(1));
        let topo = b.build().unwrap();
        let placement = Placement::aligned(&topo, n);
        let rt = LiveRuntime::start(topo, placement, n, LiveConfig::default());

        let migrations: Vec<(PoId, Key, usize, usize)> = (0..keys)
            .filter_map(|k| {
                let key = Key::new(k);
                let old = HashRouter.route(key, n) as usize;
                let new = (k % n as u64) as usize;
                (old != new).then_some((bb, key, old, new))
            })
            .collect();
        // Stale routers: A keeps routing by hash, so every later tuple
        // of a moved key is forwarded from its old owner to the new one.
        let routers = if stale_routers {
            Vec::new()
        } else {
            vec![(a, hop, Arc::new(ModuloRouter) as Arc<dyn KeyRouter>)]
        };
        rt.reconfigure(LiveReconfig { routers, migrations });

        let reports = rt.join();
        let expected = (total / n as u64) * n as u64;
        let counted: u64 = reports
            .iter()
            .filter(|r| r.po == bb)
            .flat_map(|r| r.state.values())
            .filter_map(|v| v.as_count())
            .sum();
        prop_assert_eq!(counted, expected, "live migration lost/duplicated tuples");

        // Unique ownership, at the table-designated owner.
        for r in reports.iter().filter(|r| r.po == bb) {
            for &k in r.state.keys() {
                prop_assert_eq!(r.instance, (k.value() % n as u64) as usize);
            }
        }
    }
}
