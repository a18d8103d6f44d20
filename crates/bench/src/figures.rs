//! One driver function per paper figure. Each prints the series the
//! paper plots and writes `results/<figure>.csv`; `EXPERIMENTS.md`
//! records the comparison against the published curves. [`EXPERIMENTS`]
//! lists them once, for the `streamloc` CLI and `all_figures`.

use std::path::PathBuf;

use streamloc_core::{Manager, ManagerConfig, PartitionerKind, ReconfigPolicy};
use streamloc_engine::{
    ClusterSpec, CountOperator, Grouping, Placement, SimConfig, Simulation, SourceRate, Topology,
};
use streamloc_workloads::{loc_key, tag_key, TwitterConfig, TwitterWorkload};

use crate::csv::{f1, f3, CsvWriter};
use crate::flickr_runs::run_flickr;
use crate::replay::{replay_locality, tables_from_batch, weekly_imbalance};
use crate::synthetic_runs::{run_synthetic, RoutingStrategy};

/// A figure driver: takes the quick flag, returns the CSV's path.
pub type FigureFn = fn(bool) -> PathBuf;

/// Every experiment of the evaluation, in the order they run: its name
/// (also the name of its CSV under `results/` and of its bin), what it
/// measures, and its driver.
pub const EXPERIMENTS: &[(&str, &str, FigureFn)] = &[
    ("fig07", "throughput vs parallelism (6 panels)", fig07),
    ("fig08", "throughput vs data locality", fig08),
    ("fig09", "throughput vs tuple size", fig09),
    ("fig10", "transient hashtag correlations", fig10),
    ("fig11", "locality & balance over 25 weeks", fig11),
    ("fig12", "locality vs edges considered", fig12),
    ("fig13", "reconfiguration throughput timelines", fig13),
    ("fig14", "avg throughput vs parallelism, 1 Gb/s", fig14),
    ("ablation_partitioner", "multilevel vs greedy vs hash", ablation_partitioner),
    ("ablation_period", "reconfiguration period sweep", ablation_period),
    ("ablation_alpha", "imbalance bound α sweep", ablation_alpha),
    ("ablation_racks", "flat vs rack-aware partitioning", ablation_racks),
    ("ablation_estimator", "always vs gain-gated reconfiguration", ablation_estimator),
    ("ablation_balance", "hash vs PKG vs DKG under skew", ablation_balance),
    ("ablation_latency", "latency at fixed offered load", ablation_latency),
];

/// Simulation windows per synthetic measurement (100 ms each).
fn synthetic_windows(quick: bool) -> usize {
    if quick {
        15
    } else {
        40
    }
}

/// Fig. 7: throughput vs parallelism for locality ∈ {60, 100}% and
/// padding ∈ {0, 8 kB, 20 kB}, three routing strategies.
pub fn fig07(quick: bool) -> PathBuf {
    let mut csv = CsvWriter::create(
        "fig07",
        &["locality", "padding", "parallelism", "strategy", "ktuples_per_s"],
    );
    let windows = synthetic_windows(quick);
    println!("Fig. 7 — throughput (Ktuples/s) vs parallelism");
    for &locality in &[0.6, 1.0] {
        for &padding in &[0u32, 8 * 1024, 20 * 1024] {
            println!("\n  locality={:.0}% padding={}B", locality * 100.0, padding);
            println!("  par   locality-aware   hash-based   worst-case");
            for parallelism in 1..=6usize {
                let mut cells = Vec::new();
                for strategy in RoutingStrategy::all() {
                    // On one server every strategy is all-local; the
                    // non-local synthetic draw needs n >= 2.
                    let eff_locality = if parallelism == 1 { 1.0 } else { locality };
                    let run =
                        run_synthetic(parallelism, eff_locality, padding, strategy, windows);
                    csv.row(&[
                        f1(locality * 100.0),
                        padding.to_string(),
                        parallelism.to_string(),
                        strategy.label().to_owned(),
                        f1(run.throughput / 1e3),
                    ]);
                    cells.push(run.throughput / 1e3);
                }
                println!(
                    "  {parallelism:>3}   {:>14.1}   {:>10.1}   {:>10.1}",
                    cells[0], cells[1], cells[2]
                );
            }
        }
    }
    csv.finish()
}

/// Fig. 8: throughput vs data locality (60–100%), padding 12 kB,
/// parallelism ∈ {2, 4, 6}.
pub fn fig08(quick: bool) -> PathBuf {
    let mut csv = CsvWriter::create(
        "fig08",
        &["parallelism", "locality", "strategy", "ktuples_per_s"],
    );
    let windows = synthetic_windows(quick);
    let padding = 12 * 1024;
    let step = if quick { 20 } else { 5 };
    println!("Fig. 8 — throughput (Ktuples/s) vs locality, padding 12 kB");
    for &parallelism in &[2usize, 4, 6] {
        println!("\n  parallelism={parallelism}");
        println!("  loc%   locality-aware   hash-based   worst-case");
        for locality_pct in (60..=100).step_by(step) {
            let locality = locality_pct as f64 / 100.0;
            let mut cells = Vec::new();
            for strategy in RoutingStrategy::all() {
                let run = run_synthetic(parallelism, locality, padding, strategy, windows);
                csv.row(&[
                    parallelism.to_string(),
                    locality_pct.to_string(),
                    strategy.label().to_owned(),
                    f1(run.throughput / 1e3),
                ]);
                cells.push(run.throughput / 1e3);
            }
            println!(
                "  {locality_pct:>4}   {:>14.1}   {:>10.1}   {:>10.1}",
                cells[0], cells[1], cells[2]
            );
        }
    }
    csv.finish()
}

/// Fig. 9: throughput vs padding (0–5 kB), locality 80%, parallelism
/// ∈ {2, 4, 6}.
pub fn fig09(quick: bool) -> PathBuf {
    let mut csv = CsvWriter::create(
        "fig09",
        &["parallelism", "padding", "strategy", "ktuples_per_s"],
    );
    let windows = synthetic_windows(quick);
    let locality = 0.8;
    let step = if quick { 2500 } else { 1000 };
    println!("Fig. 9 — throughput (Ktuples/s) vs padding, locality 80%");
    for &parallelism in &[2usize, 4, 6] {
        println!("\n  parallelism={parallelism}");
        println!("  padding   locality-aware   hash-based   worst-case");
        for padding in (0..=5000u32).step_by(step) {
            let mut cells = Vec::new();
            for strategy in RoutingStrategy::all() {
                let run = run_synthetic(parallelism, locality, padding, strategy, windows);
                csv.row(&[
                    parallelism.to_string(),
                    padding.to_string(),
                    strategy.label().to_owned(),
                    f1(run.throughput / 1e3),
                ]);
                cells.push(run.throughput / 1e3);
            }
            println!(
                "  {padding:>7}   {:>14.1}   {:>10.1}   {:>10.1}",
                cells[0], cells[1], cells[2]
            );
        }
    }
    csv.finish()
}

/// Fig. 10: daily frequency of one flash-event hashtag in three
/// locations, showing the transient correlations that motivate online
/// reconfiguration.
pub fn fig10(_quick: bool) -> PathBuf {
    let mut csv = CsvWriter::create("fig10", &["day", "location", "frequency"]);
    let mut workload = TwitterWorkload::new(TwitterConfig::default());

    // Pick a hashtag that flashes in three different locations in
    // three different weeks (the paper's #nevertrump moves between
    // Florida, Virginia and Texas within March 2016).
    let mut chosen: Option<(usize, Vec<(usize, usize)>)> = None; // tag, [(week, loc)]
    'outer: for tag in 0..100 {
        let mut spikes = Vec::new();
        for week in 1..10 {
            for ev in workload.events(week) {
                if ev.hashtag == tag {
                    spikes.push((week, ev.location));
                }
            }
        }
        let mut locs: Vec<usize> = spikes.iter().map(|&(_, l)| l).collect();
        locs.dedup();
        if spikes.len() >= 3 && locs.len() >= 3 {
            chosen = Some((tag, spikes));
            break 'outer;
        }
    }
    let (tag, spikes) = chosen.unwrap_or((0, vec![(1, 0), (3, 1), (5, 2)]));
    let locations: Vec<usize> = {
        let mut l: Vec<usize> = spikes.iter().map(|&(_, loc)| loc).collect();
        l.dedup();
        l.truncate(3);
        l
    };
    let last_week = spikes.iter().map(|&(w, _)| w).max().unwrap_or(5);

    println!("Fig. 10 — daily occurrences of #tag{tag} per location");
    println!("  day   {}", locations
        .iter()
        .map(|l| format!("loc{l:<6}"))
        .collect::<Vec<_>>()
        .join(" "));
    let tag_k = tag_key(tag);
    for day in 0..(last_week + 2) * 7 {
        let batch = workload.day(day);
        let mut row = vec![day.to_string()];
        let mut cells = Vec::new();
        for &loc in &locations {
            let loc_k = loc_key(loc);
            let count = batch
                .iter()
                .filter(|&&(l, t)| l == loc_k && t == tag_k)
                .count();
            csv.row(&[day.to_string(), loc.to_string(), count.to_string()]);
            cells.push(count);
        }
        row.extend(cells.iter().map(ToString::to_string));
        if cells.iter().any(|&c| c > 0) {
            println!(
                "  {day:>3}   {}",
                cells
                    .iter()
                    .map(|c| format!("{c:<9}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
    }
    csv.finish()
}

/// Fig. 11: locality (a) and load balance (b) over 25 weeks for
/// online, offline and hash routing at parallelism 6.
pub fn fig11(quick: bool) -> PathBuf {
    let mut csv = CsvWriter::create(
        "fig11",
        &[
            "week",
            "hash_locality",
            "offline_locality",
            "online_locality",
            "hash_balance",
            "offline_balance",
            "online_balance",
        ],
    );
    let servers = 6;
    let weeks = if quick { 8 } else { 25 };
    let mut workload = TwitterWorkload::new(TwitterConfig::default());
    let mut offline = None;
    let mut online = None;
    println!("Fig. 11 — locality / load balance over {weeks} weeks, parallelism 6");
    println!("  week   hash     offline   online   | balance: hash  offline  online");
    for week in 0..weeks {
        let batch = workload.week(week);
        let loc_hash = replay_locality(&batch, None, servers);
        let loc_off = replay_locality(&batch, offline.as_ref(), servers);
        let loc_on = replay_locality(&batch, online.as_ref(), servers);
        let bal_hash = weekly_imbalance(&batch, None, servers);
        let bal_off = weekly_imbalance(&batch, offline.as_ref(), servers);
        let bal_on = weekly_imbalance(&batch, online.as_ref(), servers);
        println!(
            "  {week:>4}   {:>5.1}%   {:>6.1}%   {:>5.1}%  |          {:>5.3}  {:>6.3}  {:>6.3}",
            loc_hash * 100.0,
            loc_off * 100.0,
            loc_on * 100.0,
            bal_hash,
            bal_off,
            bal_on
        );
        csv.row(&[
            week.to_string(),
            f3(loc_hash),
            f3(loc_off),
            f3(loc_on),
            f3(bal_hash),
            f3(bal_off),
            f3(bal_on),
        ]);
        if week == 0 {
            offline = Some(tables_from_batch(&batch, servers, 100_000, usize::MAX, 1.03));
        }
        online = Some(tables_from_batch(&batch, servers, 100_000, usize::MAX, 1.03));
    }
    csv.finish()
}

/// Fig. 12: locality achieved vs number of pair edges used for
/// partitioning, for parallelism 2–6.
pub fn fig12(quick: bool) -> PathBuf {
    let mut csv = CsvWriter::create("fig12", &["parallelism", "edges", "locality"]);
    let mut workload = TwitterWorkload::new(TwitterConfig::default());
    // Train on one week, evaluate on the following week.
    let train = workload.week(2);
    let eval = workload.week(3);
    let edge_counts: &[usize] = if quick {
        &[10, 1_000, 100_000]
    } else {
        &[10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000]
    };
    println!("Fig. 12 — locality vs edges considered (train week 2, eval week 3)");
    print!("  edges    ");
    for p in 2..=6 {
        print!("  n={p}   ");
    }
    println!();
    for &edges in edge_counts {
        print!("  {edges:>8}");
        for parallelism in 2..=6usize {
            let tables = tables_from_batch(&train, parallelism, 1_000_000, edges, 1.03);
            let locality = replay_locality(&eval, Some(&tables), parallelism);
            csv.row(&[parallelism.to_string(), edges.to_string(), f3(locality)]);
            print!("  {:>5.1}%", locality * 100.0);
        }
        println!();
    }
    csv.finish()
}

/// Fig. 13: throughput timelines with/without reconfiguration for
/// network ∈ {10, 1} Gb/s and padding ∈ {4, 8, 12} kB, parallelism 6.
pub fn fig13(quick: bool) -> PathBuf {
    let mut csv = CsvWriter::create(
        "fig13",
        &["network_gbps", "padding", "second", "without", "with"],
    );
    let servers = 6;
    let seconds = if quick { 12 } else { 30 };
    let period = seconds / 3;
    println!("Fig. 13 — throughput timeline, reconfiguration every {period}s (1 s ↔ 1 paper-minute)");
    for &gbps in &[10.0, 1.0] {
        for &padding_kb in &[4u32, 8, 12] {
            let padding = padding_kb * 1024;
            let without = run_flickr(servers, gbps, padding, None, seconds);
            let with = run_flickr(servers, gbps, padding, Some(period), seconds);
            println!("\n  network={gbps}Gb/s padding={padding_kb}kB");
            println!("  t(s)   w/o reconf   w/ reconf  (Ktuples/s)");
            let wps = 10;
            for second in 0..seconds {
                let avg = |series: &[f64]| {
                    series[second * wps..(second + 1) * wps].iter().sum::<f64>() / wps as f64
                };
                let w0 = avg(&without.timeline) / 1e3;
                let w1 = avg(&with.timeline) / 1e3;
                csv.row(&[
                    gbps.to_string(),
                    padding.to_string(),
                    second.to_string(),
                    f1(w0),
                    f1(w1),
                ]);
                if second % 2 == 0 {
                    println!("  {second:>4}   {w0:>10.1}   {w1:>9.1}");
                }
            }
            println!(
                "  steady: {:.1} → {:.1} Ktuples/s (×{:.2})",
                without.steady_throughput / 1e3,
                with.steady_throughput / 1e3,
                with.steady_throughput / without.steady_throughput
            );
        }
    }
    csv.finish()
}

/// Fig. 14: average throughput vs parallelism (2–6), padding 4 kB,
/// 1 Gb/s network, with vs without reconfiguration.
pub fn fig14(quick: bool) -> PathBuf {
    let mut csv = CsvWriter::create(
        "fig14",
        &["parallelism", "without_ktuples", "with_ktuples"],
    );
    let seconds = if quick { 9 } else { 21 };
    let period = seconds / 3;
    println!("Fig. 14 — avg throughput vs parallelism, 4 kB tuples, 1 Gb/s");
    println!("  par   w/o reconf   w/ reconf   (Ktuples/s)");
    for parallelism in 2..=6usize {
        let without = run_flickr(parallelism, 1.0, 4 * 1024, None, seconds);
        let with = run_flickr(parallelism, 1.0, 4 * 1024, Some(period), seconds);
        csv.row(&[
            parallelism.to_string(),
            f1(without.steady_throughput / 1e3),
            f1(with.steady_throughput / 1e3),
        ]);
        println!(
            "  {parallelism:>3}   {:>10.1}   {:>9.1}",
            without.steady_throughput / 1e3,
            with.steady_throughput / 1e3
        );
    }
    csv.finish()
}

/// Ablation: partitioner quality (multilevel vs greedy vs hash) on
/// live correlated traffic.
pub fn ablation_partitioner(quick: bool) -> PathBuf {
    let mut csv = CsvWriter::create(
        "ablation_partitioner",
        &["partitioner", "expected_locality", "achieved_locality", "imbalance"],
    );
    let servers = 6;
    let windows = if quick { 20 } else { 50 };
    println!("Ablation — partitioner choice (Twitter-like live run, {servers} servers)");
    println!("  partitioner   expected   achieved   imbalance");
    for (kind, label) in [
        (PartitionerKind::Multilevel, "multilevel"),
        (PartitionerKind::Greedy, "greedy"),
        (PartitionerKind::Hash, "hash"),
    ] {
        let workload = TwitterWorkload::new(TwitterConfig {
            tuples_per_day: 4_000,
            ..TwitterConfig::default()
        });
        let mut builder = Topology::builder();
        let w = workload.clone();
        let s = builder.source("S", servers, SourceRate::Saturate, move |i| {
            w.clone().source(i, servers, 512)
        });
        let a = builder.stateful("A", servers, CountOperator::factory());
        let b = builder.stateful("B", servers, CountOperator::factory());
        builder.connect(s, a, Grouping::fields(0));
        let hop = builder.connect(a, b, Grouping::fields(1));
        let topology = builder.build().expect("valid chain");
        let placement = Placement::aligned(&topology, servers);
        let mut sim = Simulation::new(
            topology,
            ClusterSpec::lan_10g(servers),
            placement,
            SimConfig::default(),
        );
        let mut manager = Manager::attach(
            &mut sim,
            ManagerConfig {
                partitioner: kind,
                ..ManagerConfig::default()
            },
        );
        sim.run(windows);
        let summary = manager.reconfigure(&mut sim).expect("no wave running");
        sim.run(windows);
        let achieved = sim.metrics().edge_locality(hop, windows + windows / 3);
        let b_pois = sim.poi_ids(sim.topology().po_by_name("B").unwrap());
        let imbalance = sim.metrics().load_imbalance(&b_pois, windows + windows / 3);
        csv.row(&[
            label.to_owned(),
            f3(summary.expected_locality),
            f3(achieved),
            f3(imbalance),
        ]);
        println!(
            "  {label:<11}   {:>7.1}%   {:>7.1}%   {:>9.3}",
            summary.expected_locality * 100.0,
            achieved * 100.0,
            imbalance
        );
    }
    csv.finish()
}

/// Ablation: reconfiguration period vs achieved locality on the
/// drifting workload (replay, 20 weeks).
pub fn ablation_period(quick: bool) -> PathBuf {
    let mut csv = CsvWriter::create("ablation_period", &["period_weeks", "avg_locality"]);
    let servers = 6;
    let weeks = if quick { 10 } else { 20 };
    println!("Ablation — reconfiguration period (drifting workload, {weeks} weeks)");
    println!("  period(w)   avg locality");
    for period in [1usize, 2, 4, 8] {
        let mut workload = TwitterWorkload::new(TwitterConfig::default());
        let mut tables = None;
        let mut sum = 0.0;
        let mut measured = 0usize;
        for week in 0..weeks {
            let batch = workload.week(week);
            if week >= 1 {
                sum += replay_locality(&batch, tables.as_ref(), servers);
                measured += 1;
            }
            if week % period == 0 {
                tables = Some(tables_from_batch(&batch, servers, 100_000, usize::MAX, 1.03));
            }
        }
        let avg = sum / measured as f64;
        csv.row(&[period.to_string(), f3(avg)]);
        println!("  {period:>9}   {:>10.1}%", avg * 100.0);
    }
    csv.finish()
}

/// Ablation: imbalance bound α vs locality/balance trade-off.
pub fn ablation_alpha(_quick: bool) -> PathBuf {
    let mut csv = CsvWriter::create(
        "ablation_alpha",
        &["alpha", "expected_locality", "next_week_locality", "next_week_imbalance"],
    );
    let servers = 6;
    let mut workload = TwitterWorkload::new(TwitterConfig::default());
    let train = workload.week(1);
    let eval = workload.week(2);
    println!("Ablation — imbalance bound α (train week 1, eval week 2)");
    println!("  alpha   expected   next-week locality   next-week imbalance");
    for &alpha in &[1.0, 1.03, 1.1, 1.3, 1.5, 2.0] {
        let tables = tables_from_batch(&train, servers, 100_000, usize::MAX, alpha);
        let locality = replay_locality(&eval, Some(&tables), servers);
        let imbalance = weekly_imbalance(&eval, Some(&tables), servers);
        csv.row(&[
            alpha.to_string(),
            f3(tables.expected_locality),
            f3(locality),
            f3(imbalance),
        ]);
        println!(
            "  {alpha:>5}   {:>7.1}%   {:>18.1}%   {:>19.3}",
            tables.expected_locality * 100.0,
            locality * 100.0,
            imbalance
        );
    }
    csv.finish()
}

/// Ablation: flat vs rack-aware partitioning on a hierarchical
/// cluster with a constrained uplink (paper §6 future work).
pub fn ablation_racks(quick: bool) -> PathBuf {
    use streamloc_workloads::{FlickrConfig, FlickrWorkload};
    let mut csv = CsvWriter::create(
        "ablation_racks",
        &[
            "mode",
            "ktuples_per_s",
            "server_locality",
            "rack_locality",
        ],
    );
    let servers = 6;
    let windows = if quick { 60 } else { 150 };
    println!("Ablation — rack-aware routing (2 racks × 3 servers, 1.2 Gb/s uplinks)");
    println!("  mode         throughput   server-locality   rack-locality");
    for (rack_aware, label) in [(false, "flat"), (true, "rack-aware")] {
        // Few, very heavy countries: each correlation group exceeds
        // the per-server balance cap, so the partitioner *must* split
        // groups across servers — the case rack-awareness exists for.
        let workload = FlickrWorkload::new(FlickrConfig {
            padding: 2 * 1024,
            countries: 5,
            tags: 20_000,
            zipf_s: 0.6,
            correlation: 0.95,
            ..FlickrConfig::default()
        });
        let mut builder = Topology::builder();
        let s = builder.source("photos", servers, SourceRate::Saturate, move |i| {
            workload.source(i)
        });
        let a = builder.stateful("by_tag", servers, CountOperator::factory());
        let b = builder.stateful("by_country", servers, CountOperator::factory());
        builder.connect(s, a, Grouping::fields(0));
        let hop = builder.connect(a, b, Grouping::fields(1));
        let topology = builder.build().expect("valid chain");
        let cluster = ClusterSpec::lan_10g(servers).with_racks(2, 1.2e9);
        let placement = Placement::aligned(&topology, servers);
        let mut sim = Simulation::new(topology, cluster, placement, SimConfig::default());
        let mut manager = Manager::attach(
            &mut sim,
            ManagerConfig {
                rack_aware,
                ..ManagerConfig::default()
            },
        );
        sim.run(windows / 3);
        manager.reconfigure(&mut sim).expect("no wave running");
        sim.run(windows);
        let skip = windows / 3 + 20;
        let tput = sim.metrics().avg_throughput(skip);
        let server_loc = sim.metrics().edge_locality(hop, skip);
        let rack_loc = sim.metrics().edge_rack_locality(hop, skip);
        csv.row(&[
            label.to_owned(),
            f1(tput / 1e3),
            f3(server_loc),
            f3(rack_loc),
        ]);
        println!(
            "  {label:<10}   {:>8.1}k    {:>13.1}%   {:>12.1}%",
            tput / 1e3,
            server_loc * 100.0,
            rack_loc * 100.0
        );
    }
    csv.finish()
}

/// Ablation: unconditional periodic reconfiguration vs the §6 impact
/// estimator gating it on predicted locality gain, on both a drifting
/// and a stable workload. On the stable stream the estimator should
/// deploy once and then stop paying migration costs.
pub fn ablation_estimator(quick: bool) -> PathBuf {
    use streamloc_workloads::{FlickrConfig, FlickrWorkload};
    let mut csv = CsvWriter::create(
        "ablation_estimator",
        &["workload", "policy", "reconfigurations", "migrations", "avg_locality"],
    );
    let servers = 6;
    let periods = if quick { 8 } else { 16 };
    let windows_per_period = 30;
    println!("Ablation — reconfigure always vs only-when-beneficial (gain ≥ 5%)");
    println!("  workload   policy       reconfigs   migrations   avg locality");
    for workload_kind in ["drifting", "stable"] {
        for (threshold, label) in [(None, "always"), (Some(0.05), "estimator")] {
            let mut builder = Topology::builder();
            let src_name = if workload_kind == "drifting" {
                "tweets"
            } else {
                "photos"
            };
            let s = if workload_kind == "drifting" {
                let workload = TwitterWorkload::new(TwitterConfig {
                    locations: 100,
                    hashtags: 5_000,
                    tuples_per_day: 4_000,
                    fresh_per_week: 100,
                    ..TwitterConfig::default()
                });
                builder.source(src_name, servers, SourceRate::Saturate, move |i| {
                    workload.clone().source(i, servers, 512)
                })
            } else {
                let workload = FlickrWorkload::new(FlickrConfig {
                    padding: 512,
                    ..FlickrConfig::default()
                });
                builder.source(src_name, servers, SourceRate::Saturate, move |i| {
                    workload.source(i)
                })
            };
            let a = builder.stateful("first", servers, CountOperator::factory());
            let b = builder.stateful("second", servers, CountOperator::factory());
            builder.connect(s, a, Grouping::fields(0));
            let hop = builder.connect(a, b, Grouping::fields(1));
            let topology = builder.build().expect("valid chain");
            let placement = Placement::aligned(&topology, servers);
            let mut sim = Simulation::new(
                topology,
                ClusterSpec::lan_10g(servers),
                placement,
                SimConfig::default(),
            );
            let mut manager = Manager::attach(&mut sim, ManagerConfig::default());
            let mut reconfigs = 0usize;
            let mut migrations = 0usize;
            let mut locality_sum = 0.0;
            for period in 0..periods {
                let skip = sim.metrics().windows().len();
                sim.run(windows_per_period);
                if period >= 1 {
                    locality_sum += sim.metrics().edge_locality(hop, skip + 5);
                }
                let outcome = match threshold {
                    None => manager.reconfigure(&mut sim).ok(),
                    Some(min_gain) => manager
                        .reconfigure_if_beneficial(
                            &mut sim,
                            ReconfigPolicy {
                                min_locality_gain: min_gain,
                                ..ReconfigPolicy::default()
                            },
                        )
                        .ok()
                        .flatten(),
                };
                if let Some(summary) = outcome {
                    reconfigs += 1;
                    migrations += summary.migrations;
                }
            }
            let avg_locality = locality_sum / (periods - 1) as f64;
            csv.row(&[
                workload_kind.to_owned(),
                label.to_owned(),
                reconfigs.to_string(),
                migrations.to_string(),
                f3(avg_locality),
            ]);
            println!(
                "  {workload_kind:<8}   {label:<10}   {reconfigs:>8}   {migrations:>10}   {:>11.1}%",
                avg_locality * 100.0
            );
        }
    }
    csv.finish()
}

/// Ablation: load balance under key skew — hash vs partial key
/// grouping vs a DKG-style heavy-hitter table vs the manager's tables
/// (paper §5.2 baselines).
pub fn ablation_balance(quick: bool) -> PathBuf {
    use std::sync::Arc;
    use streamloc_core::RoutingTable;
    use streamloc_engine::{HashRouter, Key, KeyRouter, PartialKeyRouter, Tuple};
    use streamloc_workloads::Zipf;

    let mut csv = CsvWriter::create(
        "ablation_balance",
        &["policy", "imbalance", "ktuples_per_s"],
    );
    let servers = 6;
    let keys = 10_000usize;
    let windows = if quick { 40 } else { 100 };

    // DKG-style table: the exact heavy hitters are explicitly packed
    // onto the least-loaded instances; the tail stays hashed.
    let zipf = Zipf::new(keys, 1.2);
    let mut heavy: Vec<(u64, f64)> = (0..200u64).map(|r| (r, zipf.pmf(r as usize))).collect();
    heavy.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let mut loads = vec![0.0f64; servers];
    let mut dkg = RoutingTable::new();
    for (key, weight) in heavy {
        let (idx, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("servers > 0");
        dkg.insert(Key::new(key), idx as u32);
        loads[idx] += weight;
    }

    let policies: Vec<(&str, Arc<dyn KeyRouter>)> = vec![
        ("hash", Arc::new(HashRouter)),
        ("pkg", Arc::new(PartialKeyRouter::new(servers))),
        ("dkg-table", Arc::new(dkg)),
    ];

    println!("Ablation — load balance under Zipf(1.2) skew, {servers} servers");
    println!("  policy      imbalance   throughput");
    for (label, router) in policies {
        let mut builder = Topology::builder();
        let s = builder.source("S", servers, SourceRate::Saturate, move |i| {
            let zipf = Zipf::new(keys, 1.2);
            let mut rng = streamloc_workloads::SplitMix64::new(0x5eed ^ i as u64);
            Box::new(move || {
                let k: u64 = zipf.sample(&mut rng) as u64;
                Some(Tuple::new([Key::new(k)], 256))
            })
        });
        let a = builder.stateful("A", servers, CountOperator::factory());
        builder.connect(s, a, Grouping::fields_with(0, router));
        let topology = builder.build().expect("valid chain");
        let placement = Placement::aligned(&topology, servers);
        let mut sim = Simulation::new(
            topology,
            ClusterSpec::lan_10g(servers),
            placement,
            SimConfig::default(),
        );
        sim.run(windows);
        let pois = sim.poi_ids(sim.topology().po_by_name("A").expect("A"));
        let imbalance = sim.metrics().load_imbalance(&pois, windows / 3);
        let tput = sim.metrics().avg_throughput(windows / 3);
        csv.row(&[label.to_owned(), f3(imbalance), f1(tput / 1e3)]);
        println!("  {label:<9}   {imbalance:>9.3}   {:>8.1}k", tput / 1e3);
    }
    csv.finish()
}

/// Ablation: end-to-end latency under a fixed offered load — the
/// paper motivates stream processing with millisecond results (§1);
/// locality removes NIC queueing from the critical path.
pub fn ablation_latency(quick: bool) -> PathBuf {
    use crate::synthetic_runs::RoutingStrategy;
    use streamloc_workloads::SyntheticWorkload;

    let mut csv = CsvWriter::create(
        "ablation_latency",
        &["strategy", "offered_ktuples", "throughput_ktuples", "avg_latency_ms", "max_latency_ms"],
    );
    let servers = 4;
    let padding = 8 * 1024;
    let windows = if quick { 40 } else { 100 };
    println!("Ablation — latency at fixed offered load ({servers} servers, 8 kB tuples)");
    println!("  (latency resolution = one 100 ms simulation window; 0.0 ms = same-window)");
    println!("  strategy         offered   achieved   avg latency   max latency");
    for strategy in RoutingStrategy::all() {
        // Offer ~70% of the locality-aware capacity so queues stay
        // finite for the fast strategy but grow for the slow ones.
        let offered_per_source = 60_000.0;
        let workload = SyntheticWorkload::new(servers, 0.8, padding, 0xbe9c);
        let (router_sa, router_ab) = strategy.routers(servers);
        let mut builder = Topology::builder();
        let s = builder.source(
            "S",
            servers,
            SourceRate::PerSecond(offered_per_source),
            move |i| workload.source(i),
        );
        let a = builder.stateful("A", servers, CountOperator::factory());
        let b = builder.stateful("B", servers, CountOperator::factory());
        builder.connect(s, a, Grouping::fields_with(0, router_sa));
        builder.connect(a, b, Grouping::fields_with(1, router_ab));
        let topology = builder.build().expect("valid chain");
        let placement = Placement::aligned(&topology, servers);
        let mut sim = Simulation::new(
            topology,
            ClusterSpec::lan_10g(servers),
            placement,
            SimConfig::default(),
        );
        sim.run(windows);
        let skip = windows / 2;
        let throughput = sim.metrics().avg_throughput(skip);
        let avg_ms = sim.metrics().avg_latency(skip) * 1e3;
        let max_ms = sim.metrics().max_latency(skip) * 1e3;
        csv.row(&[
            strategy.label().to_owned(),
            f1(offered_per_source * servers as f64 / 1e3),
            f1(throughput / 1e3),
            f1(avg_ms),
            f1(max_ms),
        ]);
        println!(
            "  {:<14}   {:>6.0}k   {:>7.1}k   {:>8.1} ms   {:>8.1} ms",
            strategy.label(),
            offered_per_source * servers as f64 / 1e3,
            throughput / 1e3,
            avg_ms,
            max_ms
        );
    }
    csv.finish()
}
