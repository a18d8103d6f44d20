//! The `streamloc` command-line entry point: run the paper's
//! experiments and a quick demo without hunting for bench binaries.
//!
//! ```bash
//! cargo run --release --bin streamloc -- list
//! cargo run --release --bin streamloc -- figure fig11
//! cargo run --release --bin streamloc -- all --quick
//! cargo run --release --bin streamloc -- demo
//! ```

use std::process::ExitCode;

use streamloc_bench::figures::EXPERIMENTS;

fn usage() {
    println!(
        "streamloc — locality-aware routing in stateful streaming applications\n\
         (reproduction of Caneill et al., Middleware 2016)\n\n\
         USAGE:\n  \
         streamloc list                 list every experiment\n  \
         streamloc figure <name> [--quick]   run one experiment\n  \
         streamloc all [--quick]       run the whole evaluation\n  \
         streamloc demo                 60-second end-to-end demo\n  \
         streamloc about                paper & substitution summary\n\n\
         Results land in results/<name>.csv; see EXPERIMENTS.md for the\n\
         paper-vs-measured record."
    );
}

fn run_figure(name: &str, quick: bool) -> bool {
    match EXPERIMENTS.iter().find(|(n, ..)| *n == name) {
        Some((name, desc, run)) => {
            println!("=== {name}: {desc} ===\n");
            let path = run(quick);
            println!("\nwrote {}", path.display());
            true
        }
        None => {
            eprintln!("unknown experiment {name:?}; try `streamloc list`");
            false
        }
    }
}

fn demo() {
    use streamloc::engine::{
        ClusterSpec, CountOperator, Grouping, Key, Placement, SimConfig, Simulation, SourceRate,
        Topology, Tuple,
    };
    use streamloc::routing::{Manager, ManagerConfig};

    let servers = 4;
    let mut builder = Topology::builder();
    let source = builder.source("messages", servers, SourceRate::Saturate, |i| {
        let mut c = i as u64;
        Box::new(move || {
            c = c.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let region = c % 64;
            let topic = if c % 10 < 8 {
                region + 64
            } else {
                64 + (c >> 8) % 64
            };
            Some(Tuple::new([Key::new(region), Key::new(topic)], 2048))
        })
    });
    let by_region = builder.stateful("by_region", servers, CountOperator::factory());
    let by_topic = builder.stateful("by_topic", servers, CountOperator::factory());
    builder.connect(source, by_region, Grouping::fields(0));
    let hop = builder.connect(by_region, by_topic, Grouping::fields(1));
    let topology = builder.build().expect("valid demo topology");
    let placement = Placement::aligned(&topology, servers);
    let mut sim = Simulation::new(
        topology,
        ClusterSpec::lan_10g(servers),
        placement,
        SimConfig::default(),
    );
    let mut manager = Manager::attach(&mut sim, ManagerConfig::default());

    sim.run(80);
    println!(
        "hash routing   : {:>7.0} tuples/s at {:>4.1}% locality",
        sim.metrics().avg_throughput(40),
        sim.metrics().edge_locality(hop, 40) * 100.0
    );
    let summary = manager.reconfigure(&mut sim).expect("no wave running");
    println!(
        "reconfigured   : expected locality {:.1}%, {} key states migrated",
        summary.expected_locality * 100.0,
        summary.migrations
    );
    sim.run(80);
    println!(
        "locality-aware : {:>7.0} tuples/s at {:>4.1}% locality",
        sim.metrics().avg_throughput(100),
        sim.metrics().edge_locality(hop, 100) * 100.0
    );
}

fn about() {
    println!(
        "Reproduces: Caneill, El Rheddane, Leroy, De Palma —\n\
         \"Locality-Aware Routing in Stateful Streaming Applications\",\n\
         ACM/IFIP/USENIX Middleware 2016 (DOI 10.1145/2988336.2988340).\n\n\
         The paper's Storm cluster and Twitter/Flickr datasets are\n\
         substituted with a deterministic cluster simulator and\n\
         statistically matched generators (see DESIGN.md §2); the\n\
         reproduction target is the shape of every figure, recorded in\n\
         EXPERIMENTS.md."
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick") || streamloc_bench::quick_mode();
    let positional: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    match positional.as_slice() {
        ["list"] => {
            println!("experiments ({} total):", EXPERIMENTS.len());
            for (name, desc, _) in EXPERIMENTS {
                println!("  {name:<22} {desc}");
            }
            ExitCode::SUCCESS
        }
        ["figure", name] => {
            if run_figure(name, quick) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        ["all"] => {
            for (i, (name, _, _)) in EXPERIMENTS.iter().enumerate() {
                println!("\n[{}/{}]", i + 1, EXPERIMENTS.len());
                run_figure(name, quick);
            }
            ExitCode::SUCCESS
        }
        ["demo"] => {
            demo();
            ExitCode::SUCCESS
        }
        ["about"] => {
            about();
            ExitCode::SUCCESS
        }
        _ => {
            usage();
            if positional.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
