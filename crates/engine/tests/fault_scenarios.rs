//! Seeded fault-scenario acceptance and regression tests, for both
//! runtimes. They run with every `cargo test`.
//!
//! The two acceptance scenarios of the robustness milestone:
//!
//! * a POI crash during the ⑤ `PROPAGATE` phase combined with a
//!   dropped ⑥ `MIGRATE` runs to completion twice with identical tuple
//!   counts and final key→state maps (determinism under faults);
//! * a manager death mid-wave degrades the deployment to pure hash
//!   routing with zero lost state, after the wave retried and aborted
//!   within its deadline.
//!
//! `recorded_fault_seeds_*` pins the seeds that exercised recovery
//! bugs while this protocol was built — they must keep draining and
//! stay deterministic forever.

use std::collections::HashMap;
use std::sync::Arc;
use streamloc_engine::{
    ClusterSpec, ControlClass, CountOperator, EdgeId, FaultEvent, FaultPlan, Grouping, HashRouter,
    Key, KeyRouter, LiveConfig, LiveReconfig, LiveRuntime, ModuloRouter, Placement, PoId,
    ReconfigError, ReconfigPlan, SimConfig, Simulation, SourceRate, Topology, Tuple, WaveConfig,
};

const KEYS: u64 = 12;
const PARALLELISM: usize = 3;
const TOTAL: u64 = 18_000;

fn finite_sim() -> Simulation {
    paced_sim(20_000.0)
}

/// [`finite_sim`] with each source emitting `rate` tuples/s.
fn paced_sim(rate: f64) -> Simulation {
    let mut b = Topology::builder();
    let s = b.source("S", PARALLELISM, SourceRate::PerSecond(rate), |i| {
        let mut c = i as u64;
        let mut left = TOTAL / PARALLELISM as u64;
        Box::new(move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            c = c.wrapping_add(0x9e37_79b9);
            let k = c % KEYS;
            Some(Tuple::new([Key::new(k), Key::new(k)], 64))
        })
    });
    let a = b.stateful("A", PARALLELISM, CountOperator::factory());
    let bb = b.stateful("B", PARALLELISM, CountOperator::factory());
    b.connect(s, a, Grouping::fields(0));
    b.connect(a, bb, Grouping::fields(1));
    let topo = b.build().unwrap();
    let placement = Placement::aligned(&topo, PARALLELISM);
    Simulation::new(
        topo,
        ClusterSpec::lan_10g(PARALLELISM),
        placement,
        SimConfig::default(),
    )
}

fn modulo_plan(sim: &Simulation, name: &str) -> ReconfigPlan {
    let topo = sim.topology();
    let dest = topo.po_by_name(name).unwrap();
    let edge = topo.in_edges(dest)[0];
    let src = topo.edge(edge).from();
    let dest_pois = sim.poi_ids(dest);
    let routers = sim
        .poi_ids(src)
        .into_iter()
        .map(|p| (p, edge, Arc::new(ModuloRouter) as Arc<dyn KeyRouter>))
        .collect();
    let hash = HashRouter;
    let migrations = (0..KEYS)
        .filter_map(|k| {
            let key = Key::new(k);
            let old = hash.route(key, PARALLELISM) as usize;
            let new = (k % PARALLELISM as u64) as usize;
            (old != new).then(|| (dest_pois[old], key, dest_pois[new]))
        })
        .collect();
    ReconfigPlan { routers, migrations }
}

/// Canonical run outcome: `(sink tuples, per-instance sorted key→count
/// maps, reconfig errors in order)` — equal outcomes mean the runs
/// were behaviourally identical.
type Outcome = (u64, Vec<Vec<(Key, u64)>>, Vec<ReconfigError>);

fn outcome_of(sim: &Simulation) -> Outcome {
    let mut states = Vec::new();
    for name in ["S", "A", "B"] {
        let po = sim.topology().po_by_name(name).unwrap();
        for poi in sim.poi_ids(po) {
            let mut m: Vec<(Key, u64)> = sim
                .poi_state(poi)
                .iter()
                .map(|(&k, v)| (k, v.as_count().unwrap()))
                .collect();
            m.sort_unstable();
            states.push(m);
        }
    }
    let errors = sim
        .metrics()
        .windows()
        .iter()
        .flat_map(|w| w.reconfig_errors.iter().copied())
        .collect();
    (sim.metrics().total_sink(), states, errors)
}

/// Acceptance scenario 1 driver: crash an A instance while the wave is
/// propagating, and drop the first ⑥ `MIGRATE` on top of it.
fn crash_during_propagate_run() -> Outcome {
    let mut sim = finite_sim();
    sim.set_auto_checkpoint(Some(2));
    // Crash A#1 one window after the wave starts — while ⑤ is in
    // flight — and lose the first state transfer entirely.
    let a_poi = sim.poi_ids(sim.topology().po_by_name("A").unwrap())[1];
    sim.install_fault_plan(
        FaultPlan::new()
            .with(FaultEvent::CrashPoi {
                poi: a_poi.index(),
                window: 5,
            })
            .with(FaultEvent::DropControl {
                class: ControlClass::Migrate,
                occurrence: 0,
            }),
    );
    sim.run(4);
    sim.start_reconfiguration(modulo_plan(&sim, "A")).unwrap();
    let spent = sim.run_until_drained(800);
    assert!(spent < 800, "faulted pipeline failed to drain");
    outcome_of(&sim)
}

#[test]
fn crash_during_propagate_with_dropped_migrate_is_deterministic() {
    let first = crash_during_propagate_run();
    let second = crash_during_propagate_run();
    assert!(first.0 > 0, "the pipeline should still make progress");
    assert_eq!(
        first, second,
        "same fault plan must reproduce identical tuple counts, states and errors"
    );
}

#[test]
fn manager_death_degrades_to_hash_with_zero_lost_state() {
    let mut sim = finite_sim();
    // The manager dies in the first step after the wave starts, while
    // acks are still outstanding — before ⑤ is released. (Once ⑤ is
    // out, the wave is self-propagating and survives a manager death.)
    sim.install_fault_plan(FaultPlan::new().with(FaultEvent::KillManager { window: 4 }));
    sim.run(4);
    let wave = WaveConfig {
        deadline_windows: 6,
        max_retries: 2,
        backoff: 2,
    };
    let wave_start = sim.window_index();
    sim.start_reconfiguration_with(modulo_plan(&sim, "A"), wave)
        .unwrap();
    let spent = sim.run_until_drained(800);
    assert!(spent < 800, "pipeline failed to drain after manager death");

    assert!(sim.manager_down());
    assert!(sim.degraded_to_hash(), "must fall back to pure hash routing");
    // The wave aborted within its (deadline × retries) budget.
    let abort_window = sim
        .metrics()
        .windows()
        .iter()
        .position(|w| w.reconfig_errors.contains(&ReconfigError::Aborted))
        .expect("the orphaned wave must abort") as u64;
    let budget = 6 * (1 + 2 + 4) + 2; // deadline × Σ backoff^k, + slack
    assert!(
        abort_window <= wave_start + budget,
        "abort at window {abort_window}, wave started at {wave_start}"
    );
    // Degraded, not broken: a new wave is refused...
    assert!(sim.start_reconfiguration(ReconfigPlan::empty()).is_err());
    // ...and zero state was lost: full conservation, unique ownership.
    let a_po = sim.topology().po_by_name("A").unwrap();
    let mut owner: HashMap<Key, usize> = HashMap::new();
    let mut total = 0u64;
    for poi in sim.poi_ids(a_po) {
        for (&k, v) in sim.poi_state(poi) {
            assert!(owner.insert(k, poi.index()).is_none(), "split key {k}");
            total += v.as_count().unwrap();
        }
    }
    assert_eq!(total, TOTAL, "manager death must not lose state");
    // Whole-table fallback: every key sits at its hash owner.
    let hash = HashRouter;
    let a_pois = sim.poi_ids(a_po);
    for (&k, &owner_poi) in &owner {
        let expect = a_pois[hash.route(k, PARALLELISM) as usize].index();
        assert_eq!(owner_poi, expect, "key {k} not at its hash owner");
    }
}

/// Per-key counts of operator `name`; panics on a key held by two
/// instances (split state).
fn unsplit_counts(sim: &Simulation, name: &str) -> HashMap<Key, u64> {
    let po = sim.topology().po_by_name(name).unwrap();
    let mut counts = HashMap::new();
    for poi in sim.poi_ids(po) {
        for (&k, v) in sim.poi_state(poi) {
            let fresh = counts.insert(k, v.as_count().unwrap()).is_none();
            assert!(fresh, "key {k} of {name} held by two instances");
        }
    }
    counts
}

/// Roll-forward with data still flowing: at 300 tuples/s per source
/// the stream outlives a faulted wave's recovery. Each single dropped
/// ③ or ⑤ makes the first attempt miss its deadline; the restaged
/// attempt force-applies the rest of the wave. It must end with the
/// fault-free run's routers, exact counts and no split key.
#[test]
fn a_dropped_wave_message_rolls_forward_with_data_flowing() {
    let reference = {
        let mut sim = paced_sim(300.0);
        sim.run(4);
        sim.start_reconfiguration(modulo_plan(&sim, "A")).unwrap();
        assert!(sim.run_until_drained(2_000) < 2_000);
        sim.checkpoint()
            .unwrap()
            .router_fingerprint(KEYS, PARALLELISM)
    };
    let reconfs = (0..9).map(|o| (ControlClass::SendReconf, o));
    let propagates = (0..21).map(|o| (ControlClass::Propagate, o));
    for (class, occurrence) in reconfs.chain(propagates) {
        let case = format!("dropped {class:?} #{occurrence}");
        let mut sim = paced_sim(300.0);
        sim.install_fault_plan(
            FaultPlan::new().with(FaultEvent::DropControl { class, occurrence }),
        );
        sim.run(4);
        sim.start_reconfiguration(modulo_plan(&sim, "A")).unwrap();
        let started = sim.window_index();
        while sim.reconfig_active() {
            assert!(
                sim.window_index() - started < 21,
                "{case}: wave still active"
            );
            sim.step();
        }
        assert!(!sim.is_drained(), "{case}: the stream drained first");
        assert!(sim.run_until_drained(2_000) < 2_000, "{case}: no drain");

        let windows = sim.metrics().windows();
        let dropped: u64 = windows.iter().map(|w| w.dropped_control).sum();
        assert_eq!(dropped, 1, "{case}");
        let errors: Vec<_> = windows.iter().flat_map(|w| &w.reconfig_errors).collect();
        assert_eq!(errors, [&ReconfigError::Timeout { attempt: 0 }], "{case}");
        let routers = sim
            .checkpoint()
            .unwrap()
            .router_fingerprint(KEYS, PARALLELISM);
        assert!(
            routers == reference,
            "{case}: routers differ from a fault-free run"
        );
        for name in ["A", "B"] {
            let total: u64 = unsplit_counts(&sim, name).values().sum();
            assert_eq!(total, TOTAL, "{case}: {name}");
        }
    }
}

/// Without rollback an instance can crash after it applied while a ⑥
/// it shipped is still in transit (here: dropped and awaiting
/// retransmission). The respawn must not restore that key from the
/// checkpoint, or the key would be split when the ⑥ lands.
#[test]
fn respawn_after_apply_skips_state_in_transit() {
    let mut sim = paced_sim(300.0);
    sim.set_auto_checkpoint(Some(2));
    sim.install_fault_plan(FaultPlan::new().with(FaultEvent::DropControl {
        class: ControlClass::Migrate,
        occurrence: 0,
    }));
    sim.run(4);
    let plan = modulo_plan(&sim, "A");
    // The first ⑥ is the first key of the lowest-numbered old owner.
    let (sender, key, _) = *plan.migrations.iter().min_by_key(|m| m.0).unwrap();
    assert!(sim.poi_state(sender).contains_key(&key));
    sim.start_reconfiguration(plan).unwrap();
    while sim.poi_state(sender).contains_key(&key) {
        sim.step();
    }
    sim.crash_poi(sender, None);
    assert!(
        !sim.poi_state(sender).contains_key(&key),
        "the respawn restored a key whose state is in transit"
    );
    assert!(sim.run_until_drained(2_000) < 2_000);
    unsplit_counts(&sim, "A");
    unsplit_counts(&sim, "B");
}

/// A ③ of a retry that is delayed past the instance's force-apply must
/// be dropped when it lands: restaging an applied instance would forget
/// where its keys went and buffer again for state it already received.
/// The wave starts at window 4, and ③ are counted in instance order:
/// S0's root ⑤ is dropped, so S0, A and B miss the first deadline; B2
/// crashes after its ack, and attempt 1 (window 20) restages S0, A0–A2
/// and B0–B2 as ③ #9–#15. A0's (#10) is delayed past its force-apply,
/// and B2's (#15) is lost, so the wave is still running when A0's ③
/// lands.
#[test]
fn a_delayed_reconf_reaching_an_applied_instance_is_dropped() {
    let mut sim = paced_sim(300.0);
    let b2 = sim.poi_ids(sim.topology().po_by_name("B").unwrap())[2];
    let (reconf, propagate) = (ControlClass::SendReconf, ControlClass::Propagate);
    sim.install_fault_plan(
        FaultPlan::new()
            .with(FaultEvent::DropControl {
                class: propagate,
                occurrence: 0,
            })
            .with(FaultEvent::CrashPoi {
                poi: b2.index(),
                window: 6,
            })
            .with(FaultEvent::DelayControl {
                class: reconf,
                occurrence: 10,
                windows: 3,
            })
            .with(FaultEvent::DropControl {
                class: reconf,
                occurrence: 15,
            }),
    );
    sim.run(4);
    sim.start_reconfiguration(modulo_plan(&sim, "A")).unwrap();
    assert!(
        sim.run_until_drained(2_000) < 2_000,
        "pipeline failed to drain"
    );
    let windows = sim.metrics().windows();
    let errors: Vec<_> = windows.iter().flat_map(|w| &w.reconfig_errors).collect();
    let timeouts = [0, 1].map(|attempt| ReconfigError::Timeout { attempt });
    assert_eq!(
        errors,
        [&timeouts[0], &timeouts[1]],
        "completed on attempt 2"
    );
    let total: u64 = unsplit_counts(&sim, "A").values().sum();
    assert_eq!(total, TOTAL, "A lost nothing: the crash was at B");
    unsplit_counts(&sim, "B");
}

/// The crash plan of [`crash_during_propagate_run`] with data still
/// flowing: the crashed A instance is restaged, not rolled back, and no
/// key ends up split.
#[test]
fn crash_during_propagate_with_data_flowing_splits_no_key() {
    let mut sim = paced_sim(300.0);
    sim.set_auto_checkpoint(Some(2));
    let a_poi = sim.poi_ids(sim.topology().po_by_name("A").unwrap())[1];
    sim.install_fault_plan(
        FaultPlan::new()
            .with(FaultEvent::CrashPoi {
                poi: a_poi.index(),
                window: 5,
            })
            .with(FaultEvent::DropControl {
                class: ControlClass::Migrate,
                occurrence: 0,
            }),
    );
    sim.run(4);
    sim.start_reconfiguration(modulo_plan(&sim, "A")).unwrap();
    assert!(sim.run_until_drained(2_000) < 2_000);
    let b: u64 = unsplit_counts(&sim, "B").values().sum();
    assert_eq!(b, TOTAL, "B lost nothing: the crash was at A");
    unsplit_counts(&sim, "A");
}

/// Seeds recorded while building the recovery protocol: each one
/// previously exposed a hang, a conservation bug or a nondeterministic
/// ordering. They must drain and reproduce exactly, forever.
const REGRESSION_SEEDS: [u64; 6] = [3, 7, 42, 0x2a5f, 0xC0FFEE, 0xDEAD_BEEF];

fn seeded_run(seed: u64) -> Outcome {
    let mut sim = finite_sim();
    sim.set_auto_checkpoint(Some(3));
    let n_pois = PARALLELISM * 3;
    sim.install_fault_plan(FaultPlan::random(seed, n_pois, 25));
    sim.run(4);
    // A seed may have killed the manager already; a refused wave is a
    // legitimate outcome to reproduce.
    let _ = sim.start_reconfiguration(modulo_plan(&sim, "A"));
    let spent = sim.run_until_drained(800);
    assert!(spent < 800, "seed {seed}: pipeline failed to drain");
    outcome_of(&sim)
}

#[test]
fn recorded_fault_seeds_drain_and_reproduce() {
    for seed in REGRESSION_SEEDS {
        let first = seeded_run(seed);
        let second = seeded_run(seed);
        assert_eq!(first, second, "seed {seed} is nondeterministic");
    }
}

// ---- live-runtime fault scenarios ---------------------------------

/// Rate-limited finite chain for the live runtime, mirroring the sim
/// topology. Returns the builder handles the tests need: `(topology,
/// source po, A po, S→A edge)`.
fn live_chain(total: u64, rate: f64) -> (Topology, PoId, PoId, EdgeId) {
    let mut b = Topology::builder();
    let s = b.source("S", PARALLELISM, SourceRate::PerSecond(rate), move |i| {
        let mut c = i as u64;
        let mut left = total / PARALLELISM as u64;
        Box::new(move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            c = c.wrapping_add(0x9e37_79b9);
            let k = c % KEYS;
            Some(Tuple::new([Key::new(k), Key::new(k)], 0))
        })
    });
    let a = b.stateful("A", PARALLELISM, CountOperator::factory());
    let bb = b.stateful("B", PARALLELISM, CountOperator::factory());
    let hop = b.connect(s, a, Grouping::fields(0));
    b.connect(a, bb, Grouping::fields(1));
    (b.build().unwrap(), s, a, hop)
}

fn live_modulo_plan(source: PoId, a: PoId, hop: EdgeId) -> LiveReconfig {
    let hash = HashRouter;
    let migrations = (0..KEYS)
        .filter_map(|k| {
            let key = Key::new(k);
            let old = hash.route(key, PARALLELISM) as usize;
            let new = (k % PARALLELISM as u64) as usize;
            (old != new).then_some((a, key, old, new))
        })
        .collect();
    LiveReconfig {
        routers: vec![(source, hop, Arc::new(ModuloRouter))],
        migrations,
    }
}

/// A dropped live ⑥ `MIGRATE` loses the key's state (at-most-once) but
/// must never wedge the pipeline: the new owner adopts the orphaned
/// key when it drains, and `join()` returns.
#[test]
fn live_wave_with_dropped_migrate_still_drains() {
    let total = 60_000u64;
    let (topo, s, a, hop) = live_chain(total, 50_000.0);
    let placement = Placement::aligned(&topo, PARALLELISM);
    let rt = LiveRuntime::start(topo, placement, PARALLELISM, LiveConfig::default());
    rt.install_fault_plan(FaultPlan::new().with(FaultEvent::DropControl {
        class: ControlClass::Migrate,
        occurrence: 0,
    }));
    std::thread::sleep(std::time::Duration::from_millis(20));
    rt.reconfigure_with_deadline(live_modulo_plan(s, a, hop), WaveConfig::default())
        .expect("wave completes; only a migration was lost");
    let reports = rt.join();
    // No tuple was silently discarded: every emitted tuple was
    // processed somewhere at A (original owner, buffer release or
    // orphan adoption).
    let a_processed: u64 = reports
        .iter()
        .filter(|r| r.po == a)
        .map(|r| r.processed)
        .sum();
    assert_eq!(a_processed, total);
}

/// Lost ③ `SEND_RECONF`: the wave driver misses its first deadline,
/// then the retry restages and force-applies — the wave still
/// completes and conserves every tuple.
#[test]
fn live_wave_retries_after_lost_send_reconf() {
    // Slow enough that the stream comfortably outlives a missed
    // deadline plus the retry (~0.65 s of wave worst case vs ~2 s of
    // stream per source).
    let total = 60_000u64;
    let (topo, s, a, hop) = live_chain(total, 10_000.0);
    let placement = Placement::aligned(&topo, PARALLELISM);
    let rt = LiveRuntime::start(topo, placement, PARALLELISM, LiveConfig::default());
    rt.install_fault_plan(FaultPlan::new().with(FaultEvent::DropControl {
        class: ControlClass::SendReconf,
        occurrence: 1,
    }));
    std::thread::sleep(std::time::Duration::from_millis(20));
    let wave = WaveConfig {
        deadline_windows: 3,
        max_retries: 2,
        backoff: 1,
    };
    rt.reconfigure_with_deadline(live_modulo_plan(s, a, hop), wave)
        .expect("retry must recover the lost stage message");
    let reports = rt.join();
    let a_processed: u64 = reports
        .iter()
        .filter(|r| r.po == a)
        .map(|r| r.processed)
        .sum();
    assert_eq!(a_processed, total);
}

/// Lost root ⑤ `PROPAGATE`: one source never hears the wave release,
/// so it and everything downstream of it miss the first deadline. The
/// retry force-applies at each straggler, the source included; the
/// wave completes and both stages process every tuple.
#[test]
fn live_wave_recovers_from_dropped_root_propagate() {
    let total = 60_000u64;
    let (topo, s, a, hop) = live_chain(total, 10_000.0);
    let placement = Placement::aligned(&topo, PARALLELISM);
    let rt = LiveRuntime::start(topo, placement, PARALLELISM, LiveConfig::default());
    rt.install_fault_plan(FaultPlan::new().with(FaultEvent::DropControl {
        class: ControlClass::Propagate,
        occurrence: 0,
    }));
    std::thread::sleep(std::time::Duration::from_millis(20));
    let wave = WaveConfig {
        deadline_windows: 3,
        max_retries: 2,
        backoff: 1,
    };
    rt.reconfigure_with_deadline(live_modulo_plan(s, a, hop), wave)
        .expect("force-apply must recover the lost root propagate");
    let mut processed: HashMap<PoId, u64> = HashMap::new();
    for r in rt.join().iter().filter(|r| r.po != s) {
        *processed.entry(r.po).or_default() += r.processed;
    }
    assert_eq!(processed.len(), 2, "A and B both report");
    for (po, n) in processed {
        assert_eq!(n, total, "{po:?}");
    }
}

/// An injected ③ `SEND_RECONF` delay must be honored to its configured
/// duration (here 2 windows = 200 ms), not a fixed 50 ms: the staged
/// acks cannot all arrive before the delayed message is delivered, so
/// the whole wave takes at least that long — and still completes.
#[test]
fn live_control_delay_honors_configured_duration() {
    let total = 120_000u64;
    let (topo, s, a, hop) = live_chain(total, 40_000.0);
    let placement = Placement::aligned(&topo, PARALLELISM);
    let rt = LiveRuntime::start(topo, placement, PARALLELISM, LiveConfig::default());
    rt.install_fault_plan(FaultPlan::new().with(FaultEvent::DelayControl {
        class: ControlClass::SendReconf,
        occurrence: 0,
        windows: 2,
    }));
    std::thread::sleep(std::time::Duration::from_millis(20));
    let started = std::time::Instant::now();
    rt.reconfigure_with_deadline(live_modulo_plan(s, a, hop), WaveConfig::default())
        .expect("a delayed stage message still completes the wave");
    let elapsed = started.elapsed();
    assert!(
        elapsed >= std::time::Duration::from_millis(200),
        "2-window delay must hold the wave ≥ 200 ms, took {elapsed:?}"
    );
    let reports = rt.join();
    let a_processed: u64 = reports
        .iter()
        .filter(|r| r.po == a)
        .map(|r| r.processed)
        .sum();
    assert_eq!(a_processed, total);
}

/// Regression for the ⑤ release path: when a delayed root `Propagate`
/// hits a root that exited mid-wave, the failed send must mark the
/// root as exited so the wave finishes with a `Nack` on its *first*
/// attempt instead of burning the deadline and its retries.
#[test]
fn live_delayed_propagate_to_dead_root_nacks_fast() {
    // A tiny stream: the sources exhaust (and exit) long before the
    // 3-window delayed Propagate comes due.
    let (topo, s, a, hop) = live_chain(3_000, 1_000_000.0);
    let placement = Placement::aligned(&topo, PARALLELISM);
    let rt = LiveRuntime::start(topo, placement, PARALLELISM, LiveConfig::default());
    let mut plan = FaultPlan::new();
    for occurrence in 0..PARALLELISM as u64 {
        plan = plan.with(FaultEvent::DelayControl {
            class: ControlClass::Propagate,
            occurrence,
            windows: 3,
        });
    }
    rt.install_fault_plan(plan);
    // Let the pipeline drain completely: every instance exits.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let wave = WaveConfig {
        deadline_windows: 20,
        max_retries: 2,
        backoff: 2,
    };
    let started = std::time::Instant::now();
    let result = rt.reconfigure_with_deadline(live_modulo_plan(s, a, hop), wave);
    let elapsed = started.elapsed();
    assert!(
        matches!(result, Err(ReconfigError::Nack)),
        "exited participants must surface as Nack, got {result:?}"
    );
    // First-attempt budget is 2 s; with exits tracked on the failed
    // delayed sends the wave must conclude well within it rather than
    // retrying (which would take over 6 s).
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "wave stalled {elapsed:?} instead of tracking the dead roots"
    );
    let _ = rt.join();
}

/// Data-plane loss: two seeded `DropBatch` events vaporize a
/// `Msg::Batch` each, mid-flight. The pipeline must keep draining
/// (at-most-once — no retransmit, no wedge) and the drop counters must
/// close the books exactly: every routed tuple was either processed at
/// A or B or sits in `live_batch_dropped_tuples_total`.
#[test]
fn live_batch_drop_drains_and_accounts_for_every_tuple() {
    use streamloc_engine::MetricsRegistry;

    let total = 60_000u64;
    let (topo, _s, a, _hop) = live_chain(total, 50_000.0);
    let placement = Placement::aligned(&topo, PARALLELISM);
    let registry = Arc::new(MetricsRegistry::new());
    let config = LiveConfig {
        metrics: Some(Arc::clone(&registry)),
        ..LiveConfig::default()
    };
    let rt = LiveRuntime::start(topo, placement, PARALLELISM, config);
    // Arm the plan immediately: occurrences count batches sent after
    // arming, so the 1st and 6th in-flight batches are lost.
    rt.install_fault_plan(
        FaultPlan::new()
            .with(FaultEvent::DropBatch { occurrence: 0 })
            .with(FaultEvent::DropBatch { occurrence: 5 }),
    );
    let reports = rt.join();

    let snapshot: HashMap<String, u64> = registry.snapshot().into_iter().collect();
    let get = |name: &str| snapshot.get(name).copied().unwrap_or(0);

    let drops = get("live_batch_drops_total");
    let dropped_tuples = get("live_batch_dropped_tuples_total");
    assert_eq!(drops, 2, "both seeded occurrences must fire exactly once");
    assert!(
        (2..=2 * 64).contains(&dropped_tuples),
        "2 dropped batches of <= 64 tuples, got {dropped_tuples}"
    );

    let processed_a: u64 = reports
        .iter()
        .filter(|r| r.po == a)
        .map(|r| r.processed)
        .sum();
    let processed_b: u64 = reports
        .iter()
        .filter(|r| r.po.index() == 2)
        .map(|r| r.processed)
        .sum();
    assert!(
        processed_a < total || processed_b < total,
        "dropped batches must actually lose tuples"
    );
    // Conservation: sends are counted before the fault gate, so routed
    // tuples = processed (at A and B) + dropped, with nothing counted
    // twice and nothing leaking.
    assert_eq!(
        get("live_tuples_routed_total"),
        processed_a + processed_b + dropped_tuples,
        "drop accounting must close the books"
    );
}

/// Crash-respawn in the live runtime: after `checkpoint_now`, a
/// crashed instance comes back with the checkpointed counts and keeps
/// counting forward from there. A crashed source restores nothing, so
/// crashing one probes none of its siblings: it does not wait for a
/// sibling whose generator blocks.
#[test]
fn live_crash_respawns_from_checkpoint() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    // Two sources, each generating ≤ 10k tuples/s on its own, so the
    // runtime sees saturating sources. While `open` is false every
    // generator blocks, and with it its shard: it answers no probe.
    let open = Arc::new(AtomicBool::new(true));
    let gate = Arc::clone(&open);
    let mut b = Topology::builder();
    let s = b.source("S", 2, SourceRate::Saturate, move |_| {
        let gate = Arc::clone(&gate);
        Box::new(move || loop {
            std::thread::sleep(Duration::from_micros(100));
            if gate.load(Ordering::Acquire) {
                return Some(Tuple::new([Key::new(1)], 0));
            }
        })
    });
    let a = b.stateful("A", 1, CountOperator::factory());
    b.connect(s, a, Grouping::fields(0));
    let topo = b.build().unwrap();
    let placement = Placement::aligned(&topo, 1);
    let mut rt = LiveRuntime::start(topo, placement, 1, LiveConfig::default());
    std::thread::sleep(Duration::from_millis(60));

    let cp = rt.checkpoint_now();
    assert!(cp.total_keys() > 0, "checkpoint captured live state");
    let at_cp = rt
        .last_checkpoint()
        .unwrap()
        .total_keys();
    assert_eq!(at_cp, cp.total_keys());
    let cp_count = rt
        .probe_state(a, 0)
        .unwrap()
        .values()
        .filter_map(|v| v.as_count())
        .sum::<u64>();

    rt.crash_instance(a, 0);
    let after_crash = rt
        .probe_state(a, 0)
        .expect("respawned instance answers probes")
        .values()
        .filter_map(|v| v.as_count())
        .sum::<u64>();
    // Counts are monotone from the restored snapshot: everything since
    // the checkpoint is lost (at-most-once), nothing before it is.
    assert!(
        after_crash >= 1 && after_crash <= cp_count + 10_000,
        "restored count {after_crash} not anchored at checkpoint ({cp_count})"
    );

    // With every generator blocked, a probe of the sibling would wait
    // until `opener` gives up on the crash and opens the gate.
    open.store(false, Ordering::Release);
    let (crashed, wait) = std::sync::mpsc::channel::<()>();
    let opener = {
        let open = Arc::clone(&open);
        std::thread::spawn(move || {
            let _ = wait.recv_timeout(Duration::from_secs(1));
            open.store(true, Ordering::Release);
        })
    };
    let started = Instant::now();
    rt.crash_instance(s, 0);
    let took = started.elapsed();
    drop(crashed);
    opener.join().unwrap();
    assert!(
        took < Duration::from_millis(500),
        "crashing a source probed its sibling"
    );

    rt.stop();
    let reports = rt.join();
    assert!(reports.iter().any(|r| r.po == a));
}

/// Crash-respawn keeps one owner per key: the checkpoint predates a
/// wave, so it still lists keys the crashed old owner has since
/// shipped to its siblings. The respawn must skip the keys a sibling
/// holds, so no key ends up held by two instances.
#[test]
fn live_crash_after_a_wave_restores_no_key_held_by_a_sibling() {
    let (topo, s, a, hop) = live_chain(60_000, 50_000.0);
    let placement = Placement::aligned(&topo, PARALLELISM);
    let mut rt = LiveRuntime::start(topo, placement, PARALLELISM, LiveConfig::default());
    std::thread::sleep(std::time::Duration::from_millis(20));
    let plan = live_modulo_plan(s, a, hop);
    let (_, moved, old_owner, _) = plan.migrations[0];
    // Keys only arrive before the wave: what a probe sees here, the
    // checkpoint taken next holds too.
    let held = rt.probe_state(a, old_owner).unwrap();
    assert!(
        held.contains_key(&moved),
        "the checkpoint must hold a key the wave moves"
    );
    let _ = rt.checkpoint_now();
    rt.reconfigure(plan);
    rt.crash_instance(a, old_owner);
    let reports = rt.join();
    let mut owners: HashMap<Key, usize> = HashMap::new();
    for r in reports.iter().filter(|r| r.po == a) {
        for &key in r.state.keys() {
            let first = owners.insert(key, r.instance);
            assert!(
                first.is_none(),
                "key {key} held by A instances {first:?} and {}",
                r.instance
            );
        }
    }
}

/// Crash isolation inside a shard. On one placement tag every operator
/// instance shares one shard thread: A counts field 0 and B field 1 of
/// the same paced stream. Crashing A mid-stream loses A's state and the
/// messages queued behind the crash until A's own queue runs dry. B,
/// busy on the same thread throughout, loses nothing: its per-key
/// counts equal the stream's exactly.
#[test]
fn live_crash_spares_a_co_located_instance() {
    let total = 100_000u64;
    let tuple = |c: u64| Tuple::new([Key::new(c % 97), Key::new(c % 89)], 0);
    let mut b = Topology::builder();
    let s = b.source("S", 1, SourceRate::PerSecond(200_000.0), move |_| {
        let mut c = 0u64;
        Box::new(move || {
            c += 1;
            (c <= total).then(|| tuple(c))
        })
    });
    let a = b.stateful("A", 1, CountOperator::factory());
    let bb = b.stateful("B", 1, CountOperator::factory());
    b.connect(s, a, Grouping::fields(0));
    b.connect(s, bb, Grouping::fields(1));
    let topo = b.build().unwrap();
    let placement = Placement::aligned(&topo, 1);
    let rt = LiveRuntime::start(topo, placement, 1, LiveConfig::default());
    std::thread::sleep(std::time::Duration::from_millis(100));
    rt.crash_instance(a, 0);
    let reports = rt.join();

    let mut want: [HashMap<Key, u64>; 2] = Default::default();
    for t in (1..=total).map(tuple) {
        for (field, counts) in want.iter_mut().enumerate() {
            *counts.entry(t.key(field)).or_default() += 1;
        }
    }
    let report = |po: PoId| reports.iter().find(|r| r.po == po).expect("one instance");
    let counts = |po: PoId| -> HashMap<Key, u64> {
        let state = report(po).state.iter();
        state.map(|(&k, v)| (k, v.as_count().unwrap())).collect()
    };
    assert_eq!(counts(bb), want[1], "the co-located instance lost tuples");
    assert_eq!(report(bb).processed, total);
    // A restarts from empty state: it counts only what it processed
    // after the crash, and no key above the stream's count.
    let a_counts = counts(a);
    let after: u64 = a_counts.values().sum();
    assert!(a_counts.iter().all(|(k, &n)| n <= want[0][k]));
    assert!(after < report(a).processed, "A processed nothing before the crash");
    assert!(report(a).processed <= total);
}
