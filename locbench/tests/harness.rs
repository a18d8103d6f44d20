//! Tests of the benchmark itself: its output checks catch a planted
//! fault, its timing shims are transparent, the simulator's exact
//! outputs repeat, every workload passes its check on the held-out
//! seed, and the metric tables match `BENCHMARK.json`.

use locbench::check::Reference;
use locbench::live::LiveTrace;
use locbench::report::{END_TO_END, PER_LAYER};
use locbench::spans::Spans;
use locbench::{drain, simdrift, RunConfig, HELD_OUT_SEED, WORKLOADS};

const SEED: u64 = 7;

fn drain_setup(seed: u64) -> (drain::Input, drain::Expected, locbench::tables::Partitioned) {
    let input = drain::Input::generate(seed);
    let tables = input.tables(&mut Spans::new(false));
    let expected = drain::Expected::compute(&input, &tables);
    (input, expected, tables)
}

#[test]
fn planted_fault_is_reported() {
    let (input, mut expected, tables) = drain_setup(SEED);
    let (clean, _) = drain::run_job(&input, &expected, &tables, None, &mut Spans::new(false));
    assert_eq!(clean.failed, 0, "an unmodified reference must match");
    // Drop the first tuple from the reference: the run now holds one
    // extra location count and one extra hashtag count.
    expected.reference = Reference::count(&input.pairs()[1..]);
    let (job, _) = drain::run_job(&input, &expected, &tables, None, &mut Spans::new(false));
    assert_eq!(job.failed, 2);
}

#[test]
fn traced_drain_matches_untraced() {
    let (input, expected, tables) = drain_setup(SEED);
    let (plain, plain_states) =
        drain::run_job(&input, &expected, &tables, None, &mut Spans::new(false));
    let mut trace = LiveTrace::new(drain::SERVERS);
    let mut spans = Spans::new(true);
    let (traced, traced_states) =
        drain::run_job(&input, &expected, &tables, Some(&mut trace), &mut spans);
    assert_eq!(plain.failed, 0);
    assert_eq!(traced.failed, 0);
    assert_eq!(
        traced_states, plain_states,
        "shims changed the final states"
    );
    assert_eq!(traced.locality.to_bits(), plain.locality.to_bits());
    assert_eq!(traced.hashtag_loads, plain.hashtag_loads);
    assert!(spans.spans().iter().any(|s| s.name == "LiveRuntime::start"));

    let mut m = locbench::Metrics::new(PER_LAYER);
    trace.report(&mut m);
    assert!(m.get("engine.live.op_ns_per_tuple") > 0.0);
    assert!(m.get("engine.router.keys_per_call") > 1.0);
    assert!(m.get("sketch.observe_ns_per_tuple") > 0.0);
    assert!(m.get("engine.live.batch_fill") > 1.0);
    let hit = m.get("engine.router.table_hit_share");
    assert!(hit > 0.5 && hit <= 1.0, "table hit share {hit}");
}

#[test]
fn sim_drift_exact_metrics_repeat() {
    let input = simdrift::Input::generate(SEED, 1);
    let reference = Reference::count(input.pairs());
    let a = simdrift::simulate(&input, &reference, false, &mut Spans::new(false));
    let b = simdrift::simulate(&input, &reference, false, &mut Spans::new(false));
    assert_eq!(a.exact.locality.to_bits(), b.exact.locality.to_bits());
    assert_eq!(a.exact.imbalance.to_bits(), b.exact.imbalance.to_bits());
    assert_eq!(a.exact.cluster_tps.to_bits(), b.exact.cluster_tps.to_bits());
    assert_eq!(a.exact.migrations, b.exact.migrations);
    assert!(a.exact.migrations > 0, "the manager must have moved state");
    assert_eq!(a.failed, b.failed);
    // The traced pass only adds observers and times `estimate` after
    // the last period, so it reproduces the exact outputs too.
    let traced = simdrift::simulate(&input, &reference, true, &mut Spans::new(true));
    assert_eq!(traced.exact, a.exact);
}

/// Runs `workload` on the held-out seed. The live workloads run
/// full-size jobs and open loops whatever `seconds` is (it only sets how
/// often they repeat); for `sim-drift` it sets the stream length.
fn held_out(workload: &str, seconds: u64) {
    let cfg = RunConfig {
        seed: HELD_OUT_SEED,
        seconds,
        trace: false,
    };
    let out = locbench::run(workload, &cfg).expect("known workload");
    assert!(
        out.correct(),
        "{workload}: {} of {} operations failed on the held-out seed",
        out.failed,
        out.attempted
    );
    for (name, value, _) in out.end_to_end.iter() {
        assert!(value > 0.0, "{workload}: {name} is {value}");
    }
}

#[test]
fn live_drain_passes_on_held_out_seed() {
    held_out("live-drain", 1);
}

#[test]
fn live_online_passes_on_held_out_seed() {
    held_out("live-online", 1);
}

/// Fails while the manager leaves the state of keys that drop out of
/// its routing tables behind and a later migration overwrites it (see
/// `README.md`, "Known failure"). The stream must span several
/// reconfiguration periods for a key to leave the tables and return:
/// four seconds' worth spans three.
#[test]
fn sim_drift_passes_on_held_out_seed() {
    held_out("sim-drift", 4);
}

#[test]
fn unknown_workload_is_refused() {
    let cfg = RunConfig {
        seed: 1,
        seconds: 1,
        trace: false,
    };
    assert!(locbench::run("nope", &cfg).is_none());
    assert_eq!(WORKLOADS.len(), 3);
}

/// The `"name"` values inside the JSON array that follows `key`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\": [")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_owned())
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = names_in(&json, key);
        let ours: Vec<String> = table.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(listed, ours, "{key} differs from the harness table");
        for (name, unit) in table {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
    for w in names_in(&json, "workloads") {
        assert!(WORKLOADS.contains(&w.as_str()), "unknown workload {w}");
    }
}
