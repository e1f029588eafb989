//! The four workloads and their untraced, end-to-end measurement.
//!
//! Each workload is a closed batch job driven from this one process: an
//! operation is a set-up phase (timed as `setup_s`) followed by the timed
//! phase (`run_s`), and the next operation starts only when the previous
//! one has finished and passed its output checks. README.md records why
//! each workload was chosen and which layers it exercises.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use fancy_apps::{uniform_pair_flows, Scenario, ScenarioSpec};
use fancy_bench::caida_exp::{load_table3_traces, run_table3_with, Table3Row};
use fancy_bench::env::{BenchEnv, Scale};
use fancy_bench::netwide::{run_netwide, NetwideConfig, NetwideReport};
use fancy_bench::runner::{Sweep, SweepReport};
use fancy_sim::{Bridge, LinkConfig, Network, Node, SimDuration, SimTime, SinkNode};
use fancy_tcp::UdpSource;
use fancy_topo::{isp_backbone, Routes, Topology};
use fancy_traffic::synthesis_count;

use crate::util::{fnv, median, quantile, Tally};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["fwd_chain", "backbone", "netwide", "table3"];

/// Cells of the forwarding sweep.
pub const FWD_CELLS: u64 = 16;
/// Bridges between the UDP source and the sink of one forwarding cell.
pub const FWD_BRIDGES: usize = 6;
/// Switches of the `backbone` topology and its fixed generator seed.
pub const BACKBONE_SWITCHES: usize = 100;
pub const TOPO_SEED: u64 = 0xBE9C;
/// Simulated horizon of `backbone`; its TCP flows last this long too.
pub const BACKBONE_SECS: u64 = 4;
/// Switches of the `netwide` topology.
pub const NETWIDE_SWITCHES: usize = 24;
/// Failed edges of one `netwide` run, spread over the edge list.
pub const NETWIDE_FAILED_EDGES: usize = 4;
/// The fixed Table 3 loss rate (percent).
pub const TABLE3_LOSS_PCT: f64 = 10.0;

/// One workload operation's measurements and simulated outputs.
pub struct OpResult {
    pub setup_s: f64,
    pub run_s: f64,
    /// Simulated outputs that a pure-speed change must leave identical.
    pub digest: Vec<(&'static str, u64)>,
}

/// End-to-end result of one untraced run.
pub struct E2e {
    pub run_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub digest: Vec<(&'static str, u64)>,
    pub notes: Vec<String>,
}

// ---------------------------------------------------------------------
// fwd_chain
// ---------------------------------------------------------------------

/// One forwarding cell: a 1 Gbps UDP source sending 1500 B datagrams
/// for 200 ms of simulated time through six bridges into a sink (node
/// ids: source 0, bridges 1..=6, sink 7). `wrap` lets the traced run put
/// its timing delegate around every node.
pub fn forwarding_net(seed: u64, wrap: &dyn Fn(Box<dyn Node>) -> Box<dyn Node>) -> Network {
    let mut net = Network::new(seed);
    let until = SimTime::ZERO + SimDuration::from_millis(200);
    let link = LinkConfig::new(2_000_000_000, SimDuration::from_micros(10));
    let src = net.add_node(wrap(Box::new(UdpSource::new(
        1,
        0x0A000001,
        1_000_000_000,
        1500,
        until,
    ))));
    let mut prev = src;
    for _ in 0..FWD_BRIDGES {
        let b = net.add_node(wrap(Box::new(Bridge::two_port())));
        net.connect(prev, b, link);
        prev = b;
    }
    let sink = net.add_node(wrap(Box::<SinkNode>::default()));
    net.connect(prev, sink, link);
    net
}

/// The forwarding sweep: 16 cells, serial, seeded from `seed`.
pub fn fwd_sweep(seed: u64) -> Sweep<u64> {
    Sweep::new("fwd_chain", (0..FWD_CELLS).collect::<Vec<_>>())
        .threads(1)
        .seed(seed)
}

/// Build the sweep's 16 networks (the set-up of one operation).
pub fn fwd_networks(
    sweep: &Sweep<u64>,
    wrap: &dyn Fn(Box<dyn Node>) -> Box<dyn Node>,
) -> Vec<Mutex<Option<Network>>> {
    (0..FWD_CELLS)
        .map(|c| Mutex::new(Some(forwarding_net(sweep.cell_seed(c as usize) ^ c, wrap))))
        .collect()
}

/// What one forwarding cell delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FwdCell {
    pub sent: u64,
    pub received: u64,
    pub congestion_drops: u64,
}

/// Run every prebuilt network through `Sweep::run` and check that each
/// sink received every datagram sent, with no congestion drops.
/// `on_cell` runs each cell's network to its end (the traced run times
/// it and reads its counters there).
pub fn fwd_run(
    sweep: &Sweep<u64>,
    nets: &[Mutex<Option<Network>>],
    on_cell: &(dyn Fn(usize, &mut Network) + Sync),
) -> Result<(Vec<FwdCell>, SweepReport), String> {
    let (cells, report) = sweep.run(|&c, ctx| {
        let mut net = nets[c as usize]
            .lock()
            .expect("network slot poisoned")
            .take()
            .expect("each network runs once");
        on_cell(c as usize, &mut net);
        ctx.absorb(&net);
        FwdCell {
            sent: net.node::<UdpSource>(0).sent(),
            received: net.node::<SinkNode>(FWD_BRIDGES + 1).packets,
            congestion_drops: net.kernel.records.congestion_drops,
        }
    });
    for (i, c) in cells.iter().enumerate() {
        if c.sent == 0 || c.received != c.sent || c.congestion_drops != 0 {
            return Err(format!("cell {i}: {c:?}"));
        }
    }
    if report.cache_hits != 0 {
        return Err(format!("{} cells served from a cache", report.cache_hits));
    }
    Ok((cells, report))
}

fn fwd_chain_op(seed: u64) -> Result<OpResult, String> {
    let t = Instant::now();
    let sweep = fwd_sweep(seed);
    let nets = fwd_networks(&sweep, &|n| n);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (cells, report) = fwd_run(&sweep, &nets, &|_, net| net.run_to_end())?;
    let run_s = t.elapsed().as_secs_f64();
    Ok(OpResult {
        setup_s,
        run_s,
        digest: vec![
            ("events", report.telemetry.events_dispatched),
            ("delivered", cells.iter().map(|c| c.received).sum()),
            ("detections", 0),
        ],
    })
}

// ---------------------------------------------------------------------
// backbone
// ---------------------------------------------------------------------

/// The `backbone` scenario: FANcY on every edge of the 100-switch
/// backbone, two TCP pair flows per switch lasting the whole horizon.
pub fn backbone_spec(topo: Topology, seed: u64) -> ScenarioSpec {
    let n = topo.len();
    ScenarioSpec::topology(topo)
        .seed(seed)
        .pair_flows(uniform_pair_flows(
            n,
            2,
            2_000_000,
            BACKBONE_SECS as f64,
            seed,
        ))
}

pub fn backbone_topology() -> Result<Topology, String> {
    isp_backbone(BACKBONE_SWITCHES, TOPO_SEED).map_err(|e| format!("topology: {e}"))
}

pub fn backbone_horizon() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(BACKBONE_SECS)
}

/// No failure is injected, so any gray drop or detection is wrong.
pub fn backbone_check(sc: &Scenario) -> Result<(), String> {
    let rec = &sc.net.kernel.records;
    if rec.total_gray_drops() != 0 || !rec.detections.is_empty() {
        return Err(format!(
            "{} gray drops and {} detections without a failure",
            rec.total_gray_drops(),
            rec.detections.len()
        ));
    }
    if sc.net.kernel.telemetry.events_dispatched == 0 {
        return Err("no events".into());
    }
    Ok(())
}

fn backbone_op(seed: u64) -> Result<OpResult, String> {
    let t = Instant::now();
    let topo = backbone_topology()?;
    let mut sc = backbone_spec(topo, seed)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    sc.net.run_until(backbone_horizon());
    let run_s = t.elapsed().as_secs_f64();
    backbone_check(&sc)?;
    let tel = &sc.net.kernel.telemetry;
    Ok(OpResult {
        setup_s,
        run_s,
        digest: vec![
            ("events", tel.events_dispatched),
            ("forwarded", tel.packets_forwarded),
            ("detections", sc.net.kernel.records.detections.len() as u64),
        ],
    })
}

// ---------------------------------------------------------------------
// netwide
// ---------------------------------------------------------------------

pub fn netwide_topology() -> Result<Topology, String> {
    isp_backbone(NETWIDE_SWITCHES, TOPO_SEED).map_err(|e| format!("topology: {e}"))
}

/// The failed edges: a deterministic spread over the edge list.
pub fn netwide_edges(topo: &Topology) -> Vec<usize> {
    let step = topo.edges.len() / NETWIDE_FAILED_EDGES;
    (0..NETWIDE_FAILED_EDGES).map(|i| i * step).collect()
}

/// Serial cells, one shard worker.
pub fn netwide_config(topo: &Topology) -> NetwideConfig {
    NetwideConfig {
        edges: Some(netwide_edges(topo)),
        threads: 1,
        shards: 1,
        ..NetwideConfig::default()
    }
}

/// Every failed edge detected, every SPIDER-protected one rerouted
/// within its analytic bound, and the recovery verifier satisfied.
pub fn netwide_check(r: &NetwideReport) -> Result<(), String> {
    if r.coverage != 1.0 {
        return Err(format!("coverage {}", r.coverage));
    }
    if r.reroutes_within_bound != r.reroutes_measured {
        return Err(format!(
            "{} of {} reroutes within bound",
            r.reroutes_within_bound, r.reroutes_measured
        ));
    }
    if r.recovery_violations != 0 {
        return Err(format!("{} recovery violations", r.recovery_violations));
    }
    if r.outcomes.iter().any(|o| !o.protected) {
        return Err("a failed edge is not SPIDER-protected".into());
    }
    Ok(())
}

pub fn netwide_digest(r: &NetwideReport) -> Vec<(&'static str, u64)> {
    let mut det: Vec<u64> = Vec::new();
    for o in &r.outcomes {
        det.extend([o.detection_s.to_bits(), o.reroute_s.to_bits(), o.flaps]);
    }
    vec![
        ("events", r.shard_breakdown.iter().map(|s| s.events).sum()),
        ("windows", r.shard_breakdown.iter().map(|s| s.windows).sum()),
        (
            "detections",
            r.outcomes.iter().filter(|o| o.detected).count() as u64,
        ),
        ("detection_hash", fnv(&det)),
    ]
}

fn netwide_op(seed: u64) -> Result<OpResult, String> {
    let t = Instant::now();
    let topo = netwide_topology()?;
    Routes::compute(&topo).map_err(|e| format!("routes: {e}"))?;
    let cfg = netwide_config(&topo);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = run_netwide(&topo, &cfg, &BenchEnv::from_env().scale(), seed)
        .map_err(|e| format!("run_netwide: {e}"))?;
    let run_s = t.elapsed().as_secs_f64();
    netwide_check(&report)?;
    Ok(OpResult {
        setup_s,
        run_s,
        digest: netwide_digest(&report),
    })
}

// ---------------------------------------------------------------------
// table3
// ---------------------------------------------------------------------

pub fn table3_scale() -> Scale {
    BenchEnv::from_env().scale()
}

/// A fresh, empty trace directory under the run's work directory.
pub fn fresh_dir(work: &Path, tag: &str) -> Result<PathBuf, String> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = work.join(format!("{tag}-{n}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The timed phase: one Table 3 row from the traces compiled in `dir`.
/// Replaying must not synthesize anything, and every cell must succeed.
pub fn table3_row(seed: u64, dir: &Path) -> Result<Table3Row, String> {
    let synth = synthesis_count();
    let rows = run_table3_with(&table3_scale(), seed, &[TABLE3_LOSS_PCT], Some(dir))
        .map_err(|e| format!("cell error: {e}"))?;
    let resynth = synthesis_count() - synth;
    if resynth != 0 {
        return Err(format!("replay synthesized {resynth} traces"));
    }
    match rows.as_slice() {
        [row] if row.tpr_bytes.is_finite() && row.tpr_prefixes.is_finite() => Ok(*row),
        _ => Err(format!("bad rows {rows:?}")),
    }
}

pub fn table3_digest(row: &Table3Row) -> Vec<(&'static str, u64)> {
    vec![
        ("tpr_bytes", row.tpr_bytes.to_bits()),
        ("tpr_prefixes", row.tpr_prefixes.to_bits()),
        ("detection_s", row.detection_s.to_bits()),
        ("false_positives", row.false_positives.to_bits()),
    ]
}

fn table3_op(seed: u64, work: &Path) -> Result<OpResult, String> {
    let dir = fresh_dir(work, "table3")?;
    let t = Instant::now();
    let handles = load_table3_traces(&table3_scale(), seed, Some(&dir));
    let setup_s = t.elapsed().as_secs_f64();
    if !handles.iter().all(|h| h.compiled()) {
        return Err("set-up did not compile its traces".into());
    }
    drop(handles);
    let t = Instant::now();
    let row = table3_row(seed, &dir)?;
    let run_s = t.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(OpResult {
        setup_s,
        run_s,
        digest: table3_digest(&row),
    })
}

// ---------------------------------------------------------------------
// The untraced run.
// ---------------------------------------------------------------------

/// An operation slower than this counts as timed out (each takes well
/// under 5 s; a whole run must end within 180 s).
const OP_LIMIT_S: f64 = 60.0;

/// One operation of `workload`.
pub fn op(workload: &str, seed: u64, work: &Path) -> Result<OpResult, String> {
    let r = match workload {
        "fwd_chain" => fwd_chain_op(seed),
        "backbone" => backbone_op(seed),
        "netwide" => netwide_op(seed),
        "table3" => table3_op(seed, work),
        other => Err(format!("unknown workload {other}")),
    }?;
    if r.setup_s + r.run_s > OP_LIMIT_S {
        return Err(format!("timed out: {:.1} s", r.setup_s + r.run_s));
    }
    Ok(r)
}

/// Run operations for `seconds` after one warm-up, checking each. Every
/// operation must produce the same digest: the inputs are the same.
pub fn run_e2e(workload: &str, seed: u64, seconds: f64, work: &Path, tally: &mut Tally) -> E2e {
    let mut out = E2e {
        run_s: Vec::new(),
        setup_s: Vec::new(),
        digest: Vec::new(),
        notes: Vec::new(),
    };
    let record = |out: &mut E2e, tally: &mut Tally, r: &OpResult| {
        if out.digest.is_empty() {
            out.digest = r.digest.clone();
        } else if out.digest != r.digest {
            tally.fail(
                workload,
                format!(
                    "digest changed between runs: {:?} vs {:?}",
                    out.digest, r.digest
                ),
            );
        }
    };
    // Warm-up: checked, not timed.
    if let Some(r) = tally.attempt(workload, || op(workload, seed, work)) {
        record(&mut out, tally, &r);
    }
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || out.run_s.len() < 3 {
        if let Some(r) = tally.attempt(workload, || op(workload, seed, work)) {
            record(&mut out, tally, &r);
            out.run_s.push(r.run_s);
            out.setup_s.push(r.setup_s);
        }
        if tally.attempted > 10_000 || (out.run_s.is_empty() && tally.failed > 3) {
            break;
        }
    }
    if !out.run_s.is_empty() {
        out.notes.push(format!(
            "run_s median {:.6} q1 {:.6} q3 {:.6} n {}; setup_s median {:.6} n {}",
            median(&out.run_s),
            quantile(&out.run_s, 0.25),
            quantile(&out.run_s, 0.75),
            out.run_s.len(),
            median(&out.setup_s),
            out.setup_s.len(),
        ));
    }
    out
}
