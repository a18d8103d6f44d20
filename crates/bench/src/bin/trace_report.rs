//! Renders a per-wave timeline summary from a JSONL event trace.
//!
//! ```bash
//! # Summarize an existing trace dump:
//! cargo run --release -p streamloc-bench --bin trace-report results/fault_recovery_trace.jsonl
//!
//! # No argument: run a small seeded demo (one wave under fault
//! # injection), write results/trace_demo.jsonl and the matching CSV
//! # time series, then summarize it:
//! cargo run --release -p streamloc-bench --bin trace-report
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use streamloc_bench::csv::{results_dir, CsvWriter};
use streamloc_bench::latency::format_ns;
use streamloc_core::{Manager, ManagerConfig};
use streamloc_engine::obs::export::{csv_rows, parse_jsonl, write_jsonl, CSV_HEADER};
use streamloc_engine::{
    ClusterSpec, ControlClass, CountOperator, FaultEvent, FaultPlan, Grouping, Key,
    MetricsRegistry, Placement, SimConfig, Simulation, SourceRate, SpanSampler, Topology,
    TraceEvent, TraceEventKind, Tuple,
};

fn main() {
    let events = match std::env::args().nth(1) {
        Some(path) => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            });
            let events = parse_jsonl(&text).unwrap_or_else(|e| {
                eprintln!("error: {path}: {e}");
                std::process::exit(2);
            });
            println!("trace: {path}");
            events
        }
        None => demo_trace(),
    };
    report(&events);
}

/// Runs a small deterministic S → A → B pipeline through one
/// manager-driven reconfiguration wave with a crash and a delayed ⑤,
/// dumps the trace and CSV time series under `results/`, and returns
/// the events.
fn demo_trace() -> Vec<TraceEvent> {
    const KEYS: u64 = 24;
    const PARALLELISM: usize = 3;

    let mut b = Topology::builder();
    let s = b.source("S", PARALLELISM, SourceRate::PerSecond(20_000.0), |i| {
        let mut c = i as u64;
        Box::new(move || {
            c = c.wrapping_add(0x9e37_79b9);
            // Skewed keys so the manager finds locality to exploit.
            let k = (c % KEYS).min(c % 7);
            Some(Tuple::new([Key::new(k), Key::new(k)], 64))
        })
    });
    let a = b.stateful("A", PARALLELISM, CountOperator::factory());
    let bb = b.stateful("B", PARALLELISM, CountOperator::factory());
    b.connect(s, a, Grouping::fields(0));
    b.connect(a, bb, Grouping::fields(1));
    let topo = b.build().expect("demo topology");
    let placement = Placement::aligned(&topo, PARALLELISM);
    let mut sim = Simulation::new(
        topo,
        ClusterSpec::lan_10g(PARALLELISM),
        placement,
        SimConfig::default(),
    );

    sim.enable_tracing(16_384);
    let registry = Arc::new(MetricsRegistry::new());
    sim.attach_metrics(&registry);
    // Sample 1 key in 4 so the timeline also shows span begin/hop/end
    // lines alongside the wave protocol.
    sim.enable_span_tracing(SpanSampler::new(0xC0FFEE, 4), Some(Arc::clone(&registry)));
    let mut manager = Manager::attach(&mut sim, ManagerConfig::default());
    manager.attach_metrics(&registry);
    sim.install_fault_plan(
        FaultPlan::new()
            .with(FaultEvent::CrashPoi { poi: 4, window: 12 })
            .with(FaultEvent::DelayControl {
                class: ControlClass::Propagate,
                occurrence: 0,
                windows: 2,
            }),
    );

    sim.run(8);
    manager.reconfigure(&mut sim).expect("demo wave accepted");
    sim.run(24);

    let events = sim.take_trace_events();
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join("trace_demo.jsonl");
    let file = std::fs::File::create(&path).expect("create trace dump");
    write_jsonl(&events, std::io::BufWriter::new(file)).expect("write trace dump");
    println!("trace: {} ({} events)", path.display(), events.len());

    let mut csv = CsvWriter::create("trace_demo_timeseries", CSV_HEADER);
    for row in csv_rows(sim.metrics()) {
        csv.row(&row);
    }
    println!("time series: {}", csv.finish().display());
    events
}

/// One aggregated timeline line: an event kind seen `count` times over
/// a window span.
struct StepLine {
    first_window: u64,
    last_window: u64,
    count: u64,
    bytes: u64,
    /// Accumulated span time (queue + proc of hops), nanoseconds.
    span_ns: u64,
    /// Slowest end-to-end span seen, nanoseconds.
    span_max_ns: u64,
    /// Hops that crossed a server boundary.
    remote_hops: u64,
    detail: String,
}

fn report(events: &[TraceEvent]) {
    if events.is_empty() {
        println!("no events.");
        return;
    }
    let first = events.first().expect("non-empty");
    let last = events.last().expect("non-empty");
    let waves: Vec<u64> = {
        let mut w: Vec<u64> = events.iter().filter_map(|e| e.wave).collect();
        w.sort_unstable();
        w.dedup();
        w
    };
    println!(
        "{} events, windows {}..{}, {} wave(s)\n",
        events.len(),
        first.window,
        last.window,
        waves.len()
    );

    for &wave in &waves {
        println!("-- wave {wave} --");
        print_timeline(events.iter().filter(|e| e.wave == Some(wave)));
    }

    let unattributed: Vec<&TraceEvent> = events.iter().filter(|e| e.wave.is_none()).collect();
    if !unattributed.is_empty() {
        println!("-- no wave --");
        print_timeline(unattributed.into_iter());
    }
}

fn print_timeline<'a>(events: impl Iterator<Item = &'a TraceEvent>) {
    // Aggregate by kind name, keeping first-seen order via seq.
    let mut lines: BTreeMap<(u64, &'static str), StepLine> = BTreeMap::new();
    let mut order: Vec<&'static str> = Vec::new();
    for e in events {
        let name = e.kind.name();
        if !order.contains(&name) {
            order.push(name);
        }
        let slot = order.iter().position(|&n| n == name).expect("just pushed") as u64;
        let line = lines.entry((slot, name)).or_insert_with(|| StepLine {
            first_window: e.window,
            last_window: e.window,
            count: 0,
            bytes: 0,
            span_ns: 0,
            span_max_ns: 0,
            remote_hops: 0,
            detail: String::new(),
        });
        line.first_window = line.first_window.min(e.window);
        line.last_window = line.last_window.max(e.window);
        line.count += 1;
        match e.kind {
            TraceEventKind::SendMetrics { bytes, .. }
            | TraceEventKind::MigrateSent { bytes, .. } => line.bytes += bytes,
            TraceEventKind::WaveStarted {
                routers,
                migrations,
                attempt,
            } => {
                line.detail =
                    format!("routers={routers} migrations={migrations} attempt={attempt}");
            }
            TraceEventKind::WaveCompleted { duration_windows } => {
                line.detail = format!("took {duration_windows} window(s)");
            }
            TraceEventKind::WaveRolledBack { attempt } => {
                line.detail = format!("attempt={attempt}");
            }
            TraceEventKind::SpanHop {
                queue_ns,
                proc_ns,
                remote,
                ..
            } => {
                line.span_ns += queue_ns + proc_ns;
                line.remote_hops += u64::from(remote);
            }
            TraceEventKind::SpanEnd { total_ns, .. } => {
                line.span_max_ns = line.span_max_ns.max(total_ns);
            }
            _ => {}
        }
    }
    for ((_, name), line) in &lines {
        let span = if line.first_window == line.last_window {
            format!("window {:>4}", line.first_window)
        } else {
            format!("windows {}..{}", line.first_window, line.last_window)
        };
        let mut extras = Vec::new();
        if line.count > 1 {
            extras.push(format!("x{}", line.count));
        }
        if line.bytes > 0 {
            extras.push(format!("{} bytes", line.bytes));
        }
        if line.span_ns > 0 {
            extras.push(format!(
                "Σ {} ({} remote)",
                format_ns(line.span_ns),
                line.remote_hops
            ));
        }
        if line.span_max_ns > 0 {
            extras.push(format!("max {}", format_ns(line.span_max_ns)));
        }
        if !line.detail.is_empty() {
            extras.push(line.detail.clone());
        }
        println!("  {span:<16} {name:<18} {}", extras.join("  "));
    }
    println!();
}
