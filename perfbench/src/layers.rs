//! The traced run: per-layer metrics, measured from outside the program.
//!
//! Spans time the calls into each crate's public functions, and
//! deterministic work counters are read after each run. Node callbacks
//! are timed by [`Timed`], a `Node` delegate the benchmark puts around
//! every node of a replica network; the kernel's self time is what is
//! left of `run_until` after the callbacks. A replica counts only if its
//! `TelemetryCounters` and detections equal those of the untraced run of
//! the same inputs; a mismatch is a failed operation.
//!
//! Every run prints every per-layer metric. A layer that a workload does
//! not exercise reads 0.

use std::any::Any;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fancy_analysis::recovery::{self, RecoveryContract};
use fancy_analysis::timeline::TimelineReport;
use fancy_apps::{
    service_prefix, uniform_pair_flows, PairFlow, Scenario, ScenarioError, ScenarioSpec,
};
use fancy_bench::caida_exp::{load_table3_traces, run_trace_failure};
use fancy_bench::netwide::{directed_victim, EdgeOutcome, RECOVERY_LOSS_BUDGET_NS};
use fancy_bench::runner::Sweep;
use fancy_core::FancySwitch;
use fancy_metrics::{Labels, MetricsHub, Snapshot, Value};
use fancy_net::{mix64, Prefix};
use fancy_sim::{
    Bridge, DetectionScope, DetectorKind, DropCause, Fib, GrayFailure, Kernel, Network, Node,
    PacketRef, SharedRecorder, SimDuration, SimTime, SinkNode, TelemetryCounters, TraceEvent,
    TraceSink,
};
use fancy_tcp::{FlowConfig, ReceiverHost, SenderHost, UdpSource};
use fancy_topo::{Routes, Topology};
use fancy_traffic::{synthesis_count, SyntheticTrace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::util::{allocs, count_allocs, median, quantile, tail_percentile, Tally};
use crate::workloads::{self as wl, fresh_dir};
use crate::Metrics;

/// Per-layer metrics: name and unit. README.md maps each to the
/// end-to-end metric it should move.
pub const PER_LAYER: [(&str, &str); 66] = [
    // fancy-sim scheduler and dispatch
    ("sim.events", "count"),
    ("sim.arrivals", "count"),
    ("sim.timers", "count"),
    ("sim.queue_hw", "count"),
    ("sim.timer_hw", "count"),
    ("sim.pool_hw", "count"),
    ("sim.pool_recycled", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.kernel.self_s", "s"),
    ("sim.event.push_pop_near_ns", "ns"),
    ("sim.event.push_pop_near_ns.q1", "ns"),
    ("sim.event.push_pop_near_ns.q3", "ns"),
    ("sim.event.push_pop_rto_ns", "ns"),
    ("sim.event.push_pop_rto_ns.q1", "ns"),
    ("sim.event.push_pop_rto_ns.q3", "ns"),
    ("sim.pool.check_in_out_ns", "ns"),
    ("sim.pool.check_in_out_ns.q1", "ns"),
    ("sim.pool.check_in_out_ns.q3", "ns"),
    ("sim.steady_allocs_per_event", "count"),
    // fancy-sim links, TM and end nodes
    ("sim.link.busy_s", "s"),
    ("sim.link.wire_pkts", "count"),
    ("sim.link.congestion_drops", "count"),
    ("sim.failure.gray_drops", "count"),
    ("sim.sink.busy_s", "s"),
    // fancy-sim sharded executor
    ("sim.shard.run_s", "s"),
    ("sim.shard.windows", "count"),
    ("sim.shard.null_windows", "count"),
    ("sim.shard.msgs", "count"),
    // fancy-core FANcY pipeline
    ("core.switch.busy_s", "s"),
    ("core.switch.calls", "count"),
    ("core.switch.ns_per_call", "ns"),
    ("core.fsm_transitions", "count"),
    ("core.detections", "count"),
    ("core.zoom_steps", "count"),
    ("core.reroutes", "count"),
    // fancy-tcp hosts
    ("tcp.sender.busy_s", "s"),
    ("tcp.receiver.busy_s", "s"),
    ("tcp.udp.busy_s", "s"),
    ("tcp.calls", "count"),
    ("tcp.rto", "count"),
    ("tcp.fast_retx", "count"),
    // fancy-metrics and fancy-trace
    ("obs.on_over_off", "ratio"),
    ("metrics.series", "count"),
    ("metrics.export_s", "s"),
    ("trace.events", "count"),
    ("trace.merge_s", "s"),
    // fancy-topo and fancy-apps build
    ("topo.routes_s", "s"),
    ("apps.build_s", "s"),
    ("apps.build_sharded_s", "s"),
    // fancy-traffic
    ("traffic.compile_s", "s"),
    ("traffic.replay_s", "s"),
    ("traffic.flows", "count"),
    ("traffic.prefixes", "count"),
    ("traffic.synth_runs", "count"),
    // fancy-bench runner
    ("runner.cells", "count"),
    ("runner.cell_ms", "ms"),
    ("runner.cell_ms_tail", "ms"),
    ("runner.busy_frac", "ratio"),
    // fancy-analysis
    ("analysis.timeline_s", "s"),
    ("analysis.verify_s", "s"),
    // allocator
    ("alloc.count", "count"),
    ("alloc.per_event", "count"),
    // the benchmark itself
    ("bench.trace_overhead", "ratio"),
    ("bench.traced_run_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.replicas", "count"),
];

// ---------------------------------------------------------------------
// The timing delegate.
// ---------------------------------------------------------------------

/// Node kinds the delegate accumulates time for, and the metric each
/// kind's busy time is reported under.
const KINDS: [&str; 7] = [
    "core.switch.busy_s",
    "tcp.sender.busy_s",
    "tcp.receiver.busy_s",
    "tcp.udp.busy_s",
    "sim.link.busy_s",
    "sim.sink.busy_s",
    "other nodes",
];

static BUSY_NS: [AtomicU64; KINDS.len()] = [const { AtomicU64::new(0) }; KINDS.len()];
static CALLS: [AtomicU64; KINDS.len()] = [const { AtomicU64::new(0) }; KINDS.len()];

fn kind_of(node: &dyn Node) -> usize {
    let a = node.as_any();
    if a.is::<FancySwitch>() {
        0
    } else if a.is::<SenderHost>() {
        1
    } else if a.is::<ReceiverHost>() {
        2
    } else if a.is::<UdpSource>() {
        3
    } else if a.is::<Bridge>() {
        4
    } else if a.is::<SinkNode>() {
        5
    } else {
        6
    }
}

/// Times every callback of the node it wraps and forwards `as_any`, so
/// downcasts through `Network::node` still reach the inner node.
struct Timed {
    inner: Box<dyn Node>,
    kind: usize,
}

impl Timed {
    fn span<R>(&mut self, f: impl FnOnce(&mut dyn Node) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut *self.inner);
        BUSY_NS[self.kind].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        CALLS[self.kind].fetch_add(1, Ordering::Relaxed);
        r
    }
}

impl Node for Timed {
    fn on_start(&mut self, ctx: &mut Kernel) {
        self.span(|n| n.on_start(ctx))
    }
    fn on_packet(&mut self, ctx: &mut Kernel, port: usize, pkt: PacketRef) {
        self.span(|n| n.on_packet(ctx, port, pkt))
    }
    fn on_timer(&mut self, ctx: &mut Kernel, token: u64) {
        self.span(|n| n.on_timer(ctx, token))
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

pub fn wrap(node: Box<dyn Node>) -> Box<dyn Node> {
    let kind = kind_of(&*node);
    Box::new(Timed { inner: node, kind })
}

/// Busy nanoseconds and calls per kind accumulated so far.
fn spans() -> [(u64, u64); KINDS.len()] {
    std::array::from_fn(|k| {
        (
            BUSY_NS[k].load(Ordering::Relaxed),
            CALLS[k].load(Ordering::Relaxed),
        )
    })
}

/// The traced time split of one or more replica runs.
#[derive(Default)]
struct Split {
    rounds: u64,
    traced_s: f64,
    run_until_s: f64,
    busy_s: [f64; KINDS.len()],
    calls: [u64; KINDS.len()],
}

impl Split {
    /// Run one traced round. `f` returns the round's traced time, the
    /// part of it spent inside `run_until`, and its result; the node
    /// callbacks it ran are read from the delegate's counters.
    fn round<R>(
        &mut self,
        f: impl FnOnce() -> Result<(f64, f64, R), String>,
    ) -> Result<(f64, R), String> {
        let before = spans();
        let (traced_s, run_until_s, r) = f()?;
        let after = spans();
        for k in 0..KINDS.len() {
            self.busy_s[k] += (after[k].0 - before[k].0) as f64 / 1e9;
            self.calls[k] += after[k].1 - before[k].1;
        }
        self.traced_s += traced_s;
        self.run_until_s += run_until_s;
        self.rounds += 1;
        Ok((traced_s, r))
    }

    /// Per-round means: every node kind's busy time, the kernel's self
    /// time and the unattributed rest add up to `bench.traced_run_s`.
    fn report(&self, m: &mut Metrics) {
        m.insert("bench.replicas", self.rounds as f64);
        if self.rounds == 0 {
            return;
        }
        let r = self.rounds as f64;
        let nodes: f64 = self.busy_s.iter().sum();
        for (k, name) in KINDS.iter().enumerate().take(KINDS.len() - 1) {
            m.insert(name, self.busy_s[k] / r);
        }
        m.insert("sim.kernel.self_s", (self.run_until_s - nodes) / r);
        m.insert("bench.traced_run_s", self.traced_s / r);
        // Callbacks of node kinds without a metric of their own count
        // as unattributed.
        m.insert(
            "bench.unattributed_s",
            (self.traced_s - self.run_until_s + self.busy_s[KINDS.len() - 1]) / r,
        );
        let sw_calls = self.calls[0] as f64 / r;
        m.insert("core.switch.calls", sw_calls);
        if sw_calls > 0.0 {
            m.insert(
                "core.switch.ns_per_call",
                self.busy_s[0] / r * 1e9 / sw_calls,
            );
        }
        m.insert(
            "tcp.calls",
            (self.calls[1] + self.calls[2] + self.calls[3]) as f64 / r,
        );
    }
}

fn timed_run_until(net: &mut Network, until: SimTime, acc: &mut f64) {
    let t = Instant::now();
    net.run_until(until);
    *acc += t.elapsed().as_secs_f64();
}

/// Take node `id` (of type `T`) out of `net`, leaving `placeholder`.
fn move_out<T: Node + 'static>(net: &mut Network, id: usize, placeholder: T) -> Box<dyn Node> {
    Box::new(std::mem::replace(net.node_mut::<T>(id), placeholder))
}

/// Move the nodes of a spec-built scenario into a fresh network, each
/// wrapped in [`Timed`], with the same seed and the same node and connect
/// order. The scenario keeps cheap placeholders and must not be run.
pub(crate) fn rewrap(sc: &mut Scenario) -> Result<Network, String> {
    let n = sc.net.node_count();
    let mut nodes: Vec<Option<Box<dyn Node>>> = (0..n).map(|_| None).collect();
    let mut take = |id: usize, node: Box<dyn Node>| -> Result<(), String> {
        match nodes.get_mut(id) {
            Some(slot @ None) => {
                *slot = Some(node);
                Ok(())
            }
            _ => Err(format!("node {id} listed twice or out of range")),
        }
    };
    let net = &mut sc.net;
    for &id in &sc.switches {
        let placeholder = FancySwitch::new(Fib::new(), sc.layout.clone(), Vec::new(), 0);
        take(id, move_out(net, id, placeholder))?;
    }
    for &id in &sc.senders {
        take(id, move_out(net, id, SenderHost::new(0, Vec::new())))?;
    }
    for &id in &sc.receivers {
        take(id, move_out(net, id, ReceiverHost::new()))?;
    }
    for &id in &sc.udp_sources {
        let placeholder = UdpSource::new(0, 0, 1, 1, SimTime::ZERO);
        take(id, move_out(net, id, placeholder))?;
    }
    for &id in &sc.bridges {
        take(id, move_out(net, id, Bridge::two_port()))?;
    }
    let mut net = Network::new(sc.seed);
    for (id, node) in nodes.into_iter().enumerate() {
        let node = node.ok_or(format!("node {id} has no role in the scenario"))?;
        net.add_node(wrap(node));
    }
    for l in 0..sc.net.kernel.link_count() {
        let link = sc.net.kernel.link(l);
        let id = net.connect(link.ends[0].0, link.ends[1].0, link.cfg);
        if id != l || net.kernel.link(id).ends != link.ends {
            return Err(format!("link {l} reconnected differently"));
        }
    }
    Ok(net)
}

/// The deterministic outputs a replica must reproduce.
#[derive(Debug, PartialEq)]
pub(crate) struct Outputs {
    pub(crate) telemetry: TelemetryCounters,
    detections: Vec<(u64, usize, usize, DetectionScope, DetectorKind)>,
    gray_drops: u64,
}

pub(crate) fn outputs(net: &Network) -> Outputs {
    let rec = &net.kernel.records;
    Outputs {
        telemetry: net.kernel.telemetry,
        detections: rec
            .detections
            .iter()
            .map(|d| (d.time.0, d.node, d.port, d.scope.clone(), d.detector))
            .collect(),
        gray_drops: rec.total_gray_drops(),
    }
}

fn same<T: PartialEq + std::fmt::Debug>(
    what: &str,
    replica: &T,
    original: &T,
) -> Result<(), String> {
    if replica == original {
        Ok(())
    } else {
        Err(format!(
            "{what} replica differs: {replica:?} vs {original:?}"
        ))
    }
}

// ---------------------------------------------------------------------
// Counters read after a run.
// ---------------------------------------------------------------------

fn put_telemetry(m: &mut Metrics, t: &TelemetryCounters) {
    m.insert("sim.events", t.events_dispatched as f64);
    m.insert("sim.arrivals", t.packet_arrivals as f64);
    m.insert("sim.timers", t.timers_fired as f64);
    m.insert("sim.queue_hw", t.queue_high_water as f64);
    m.insert("sim.timer_hw", t.timer_high_water as f64);
    m.insert("sim.pool_hw", t.pool_high_water as f64);
    m.insert("sim.pool_recycled", t.pool_recycled as f64);
    m.insert("sim.link.wire_pkts", t.packets_forwarded as f64);
    m.insert("sim.link.congestion_drops", t.congestion_drops as f64);
    m.insert("sim.failure.gray_drops", t.packets_gray_dropped as f64);
}

/// Sum of a counter over all its label sets.
fn counter_total(s: &Snapshot, name: &str) -> u64 {
    s.samples
        .iter()
        .filter(|x| x.name == name)
        .map(|x| match &x.value {
            Value::Counter(v) => *v,
            _ => 0,
        })
        .sum()
}

/// The `fancy_*` protocol counters of a hub-on run.
fn put_hub_counters(m: &mut Metrics, s: &Snapshot) {
    m.insert(
        "core.fsm_transitions",
        counter_total(s, "fancy_fsm_transitions_total") as f64,
    );
    let zoom = s
        .merged_histogram("fancy_zoom_depth")
        .map_or(0, |h| h.count());
    m.insert("core.zoom_steps", zoom as f64);
    m.insert(
        "core.reroutes",
        counter_total(s, "fancy_reroutes_total") as f64,
    );
    m.insert("tcp.rto", counter_total(s, "fancy_tcp_rto_total") as f64);
    m.insert(
        "tcp.fast_retx",
        counter_total(s, "fancy_tcp_fast_retx_total") as f64,
    );
    m.insert("metrics.series", s.len() as f64);
}

/// The metrics plane's export path: serialize, parse back and merge.
fn export_s(snaps: &[Snapshot]) -> Result<f64, String> {
    let t = Instant::now();
    let mut merged = Snapshot::default();
    for s in snaps {
        let parsed = Snapshot::parse_jsonl(&s.to_jsonl()).map_err(|e| format!("jsonl: {e}"))?;
        if &parsed != s {
            return Err("snapshot changed through its JSONL round trip".into());
        }
        merged.merge(&parsed);
    }
    std::hint::black_box(&merged);
    Ok(t.elapsed().as_secs_f64())
}

fn recorder() -> SharedRecorder {
    SharedRecorder::new(4096)
}

fn trace_events(recs: &[SharedRecorder]) -> u64 {
    recs.iter().map(|r| r.len() as u64 + r.dropped()).sum()
}

fn ratio(num: &[f64], den: &[f64]) -> f64 {
    if num.is_empty() || den.is_empty() {
        return 0.0;
    }
    median(num) / median(den)
}

fn put_cells(m: &mut Metrics, threads: usize, wall_s: f64, cell_s: &[f64]) {
    if cell_s.is_empty() {
        return;
    }
    let ms: Vec<f64> = cell_s.iter().map(|s| s * 1e3).collect();
    m.insert("runner.cells", cell_s.len() as f64);
    m.insert("runner.cell_ms", median(&ms));
    let tail = tail_percentile(ms.len())
        .map_or(*ms.iter().max_by(|a, b| a.total_cmp(b)).unwrap(), |p| {
            quantile(&ms, f64::from(p) / 100.0)
        });
    m.insert("runner.cell_ms_tail", tail);
    m.insert(
        "runner.busy_frac",
        cell_s.iter().sum::<f64>() / (threads as f64 * wall_s),
    );
}

/// Deadline-driven rounds: at least `min` rounds, then until `seconds`
/// have passed since `start`.
fn more_rounds(start: Instant, seconds: f64, done: usize, min: usize) -> bool {
    done < min || start.elapsed().as_secs_f64() < seconds
}

// ---------------------------------------------------------------------
// fwd_chain: every cell wrapped directly.
// ---------------------------------------------------------------------

/// One pass over the forwarding sweep.
struct FwdPass {
    wall_s: f64,
    run_until_s: f64,
    cell_s: Vec<f64>,
    cells: Vec<TelemetryCounters>,
    total: TelemetryCounters,
    allocs: u64,
}

fn fwd_pass(
    sweep: &Sweep<u64>,
    wrapper: &dyn Fn(Box<dyn Node>) -> Box<dyn Node>,
    prepare: &dyn Fn(usize, &mut Network),
    count: bool,
) -> Result<FwdPass, String> {
    let nets = wl::fwd_networks(sweep, wrapper);
    for (i, slot) in nets.iter().enumerate() {
        prepare(i, slot.lock().expect("poisoned").as_mut().expect("built"));
    }
    let per_cell: Mutex<Vec<(usize, TelemetryCounters, f64)>> = Mutex::new(Vec::new());
    count_allocs(count);
    let a = allocs();
    let t = Instant::now();
    let r = wl::fwd_run(sweep, &nets, &|c, net| {
        let t = Instant::now();
        net.run_to_end();
        let secs = t.elapsed().as_secs_f64();
        per_cell
            .lock()
            .expect("poisoned")
            .push((c, net.kernel.telemetry, secs));
    });
    let wall_s = t.elapsed().as_secs_f64();
    count_allocs(false);
    let allocs = allocs() - a;
    let (_, report) = r?;
    let mut per_cell = per_cell.into_inner().expect("poisoned");
    per_cell.sort_by_key(|c| c.0);
    Ok(FwdPass {
        wall_s,
        run_until_s: per_cell.iter().map(|c| c.2).sum(),
        cell_s: per_cell.iter().map(|c| c.2).collect(),
        cells: per_cell.iter().map(|c| c.1).collect(),
        total: report.telemetry,
        allocs,
    })
}

fn fwd_chain(seed: u64, seconds: f64, start: Instant, m: &mut Metrics, tally: &mut Tally) {
    let sweep = wl::fwd_sweep(seed);
    let plain = |n: Box<dyn Node>| n;
    let nothing = |_: usize, _: &mut Network| {};
    // Reference pass: counts allocations, so it is not timed.
    let Some(reference) = tally.attempt("fwd_chain reference", || {
        fwd_pass(&sweep, &plain, &nothing, true)
    }) else {
        return;
    };
    m.insert("alloc.count", reference.allocs as f64);
    m.insert(
        "alloc.per_event",
        reference.allocs as f64 / reference.total.events_dispatched.max(1) as f64,
    );
    put_telemetry(m, &reference.total);

    let (mut off, mut on, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut split = Split::default();
    let mut last_off: Option<FwdPass> = None;
    let mut round = 0;
    while more_rounds(start, seconds, round, 1) {
        round += 1;
        if let Some(p) = tally.attempt("fwd_chain untraced", || {
            let p = fwd_pass(&sweep, &plain, &nothing, false)?;
            same("fwd_chain untraced", &p.cells, &reference.cells)?;
            Ok(p)
        }) {
            off.push(p.wall_s);
            last_off = Some(p);
        }

        // A metrics hub and a flight recorder on every cell.
        let hubs: Vec<MetricsHub> = (0..wl::FWD_CELLS).map(|_| MetricsHub::new()).collect();
        let recs: Vec<SharedRecorder> = (0..wl::FWD_CELLS).map(|_| recorder()).collect();
        let observe = |i: usize, net: &mut Network| {
            net.kernel.set_metrics(hubs[i].clone());
            net.kernel.set_tracer(Box::new(recs[i].clone()));
        };
        if let Some(p) = tally.attempt("fwd_chain observed", || {
            let p = fwd_pass(&sweep, &plain, &observe, false)?;
            same("fwd_chain observed", &p.cells, &reference.cells)?;
            Ok(p)
        }) {
            on.push(p.wall_s);
            let snaps: Vec<Snapshot> = hubs.iter().map(MetricsHub::snapshot).collect();
            let mut merged = Snapshot::default();
            snaps.iter().for_each(|s| merged.merge(s));
            put_hub_counters(m, &merged);
            m.insert("trace.events", trace_events(&recs) as f64);
            if let Some(e) = tally.attempt("fwd_chain export", || export_s(&snaps)) {
                m.insert("metrics.export_s", e);
            }
        }

        // Every node wrapped in the timing delegate.
        if let Some(t) = tally.attempt("fwd_chain traced", || {
            let (t, p) = split.round(|| {
                let p = fwd_pass(&sweep, &wrap, &nothing, false)?;
                Ok((p.wall_s, p.run_until_s, p))
            })?;
            same("fwd_chain traced", &p.cells, &reference.cells)?;
            Ok(t)
        }) {
            traced.push(t);
        }
    }
    let events = reference.total.events_dispatched.max(1) as f64;
    if let Some(p) = &last_off {
        m.insert("sim.ns_per_event", median(&off) * 1e9 / events);
        put_cells(m, 1, p.wall_s, &p.cell_s);
    }
    m.insert("obs.on_over_off", ratio(&on, &off));
    m.insert("bench.trace_overhead", ratio(&traced, &off));
    split.report(m);
}

// ---------------------------------------------------------------------
// backbone: the spec-built scenario's nodes moved into a replica.
// ---------------------------------------------------------------------

fn backbone(seed: u64, seconds: f64, start: Instant, m: &mut Metrics, tally: &mut Tally) {
    let Some(topo) = tally.attempt("backbone topology", wl::backbone_topology) else {
        return;
    };
    let horizon = wl::backbone_horizon();
    let (mut routes_s, mut build_s) = (Vec::new(), Vec::new());
    let mut build = || -> Result<Scenario, String> {
        let t = Instant::now();
        Routes::compute(&topo).map_err(|e| format!("routes: {e}"))?;
        routes_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let sc = wl::backbone_spec(topo.clone(), seed)
            .build()
            .map_err(|e| format!("build: {e}"))?;
        build_s.push(t.elapsed().as_secs_f64());
        Ok(sc)
    };
    // Reference run: counts allocations, so it is not timed.
    let Some(reference) = tally.attempt("backbone reference", || {
        let mut sc = build()?;
        count_allocs(true);
        let a = allocs();
        sc.net.run_until(horizon);
        count_allocs(false);
        let n = allocs() - a;
        wl::backbone_check(&sc)?;
        Ok((outputs(&sc.net), n, sc))
    }) else {
        return;
    };
    let (reference, n_allocs, sc) = reference;
    put_telemetry(m, &reference.telemetry);
    m.insert(
        "core.detections",
        sc.net.kernel.records.detections.len() as f64,
    );
    drop(sc);
    m.insert("alloc.count", n_allocs as f64);
    m.insert(
        "alloc.per_event",
        n_allocs as f64 / reference.telemetry.events_dispatched.max(1) as f64,
    );

    let (mut off, mut on, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut split = Split::default();
    let mut round = 0;
    while more_rounds(start, seconds, round, 1) {
        round += 1;
        if let Some(t) = tally.attempt("backbone untraced", || {
            let mut sc = build()?;
            let t = Instant::now();
            sc.net.run_until(horizon);
            let t = t.elapsed().as_secs_f64();
            same("backbone untraced", &outputs(&sc.net), &reference)?;
            Ok(t)
        }) {
            off.push(t);
        }
        if let Some((t, snap, rec)) = tally.attempt("backbone observed", || {
            let mut sc = build()?;
            let (hub, rec) = (MetricsHub::new(), recorder());
            sc.net.kernel.set_metrics(hub.clone());
            sc.net.kernel.set_tracer(Box::new(rec.clone()));
            let t = Instant::now();
            sc.net.run_until(horizon);
            let t = t.elapsed().as_secs_f64();
            same("backbone observed", &outputs(&sc.net), &reference)?;
            Ok((t, hub.snapshot(), rec))
        }) {
            on.push(t);
            put_hub_counters(m, &snap);
            m.insert("trace.events", trace_events(&[rec]) as f64);
            if let Some(e) = tally.attempt("backbone export", || export_s(&[snap])) {
                m.insert("metrics.export_s", e);
            }
        }
        if let Some(t) = tally.attempt("backbone traced", || {
            let mut sc = build()?;
            let mut net = rewrap(&mut sc)?;
            let (t, out) = split.round(|| {
                let mut ru = 0.0;
                timed_run_until(&mut net, horizon, &mut ru);
                Ok((ru, ru, outputs(&net)))
            })?;
            same("backbone traced", &out, &reference)?;
            Ok(t)
        }) {
            traced.push(t);
        }
    }
    if !off.is_empty() {
        m.insert(
            "sim.ns_per_event",
            median(&off) * 1e9 / reference.telemetry.events_dispatched.max(1) as f64,
        );
    }
    m.insert("topo.routes_s", median(&routes_s));
    m.insert("apps.build_s", median(&build_s));
    m.insert("obs.on_over_off", ratio(&on, &off));
    m.insert("bench.trace_overhead", ratio(&traced, &off));
    split.report(m);
}

// ---------------------------------------------------------------------
// table3: the runner sweep replayed with per-cell spans, and one cell's
// spec-built scenario moved into a wrapped replica.
// ---------------------------------------------------------------------

/// Stratified sample of `n` ranks from the top `top_frac` of the trace:
/// the sampling `run_table3_with` does, repeated here to know its cells.
/// The replayed row must equal the untraced one, which checks the copy.
fn sample_failures(trace: &SyntheticTrace, top_frac: f64, n: usize, seed: u64) -> Vec<usize> {
    let top = ((trace.prefixes_by_rank.len() as f64 * top_frac) as usize).max(n);
    let top = top.min(trace.prefixes_by_rank.len());
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let lo = i * top / n;
            let hi = ((i + 1) * top / n).max(lo + 1);
            rng.gen_range(lo..hi)
        })
        .collect()
}

/// Dedicated counters scale with the trace: 500 of 250 K prefixes.
fn dedicated_count(trace: &SyntheticTrace) -> usize {
    ((trace.prefixes_by_rank.len() as f64) * (500.0 / 250_000.0))
        .round()
        .max(4.0) as usize
}

/// One Table 3 cell's scenario, as `run_trace_failure` builds it, and the
/// failure it injects on the scenario's fault edge.
pub(crate) struct T3Cell {
    pub(crate) sc: Scenario,
    pub(crate) failure: GrayFailure,
    failed: Prefix,
    fail_at: SimTime,
    dedicated: bool,
}

pub(crate) fn t3_cell(
    trace: &SyntheticTrace,
    rank: usize,
    seed: u64,
    duration: SimDuration,
) -> Result<T3Cell, String> {
    let failed = trace.prefixes_by_rank[rank];
    let dedicated: Vec<Prefix> = trace.top_prefixes(dedicated_count(trace));
    let is_dedicated = dedicated.contains(&failed);
    let sc = ScenarioSpec::linear()
        .seed(seed)
        .flows(trace.flows.clone())
        .high_priority(dedicated)
        .build()
        .map_err(|e: ScenarioError| format!("build: {e}"))?;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA11);
    let horizon = duration.as_secs_f64();
    let fail_at =
        SimTime::ZERO + SimDuration::from_secs_f64(rng.gen_range(1.0..(horizon * 0.4).max(1.5)));
    Ok(T3Cell {
        sc,
        failure: GrayFailure::single_entry(failed, wl::TABLE3_LOSS_PCT / 100.0, fail_at),
        failed,
        fail_at,
        dedicated: is_dedicated,
    })
}

/// Detection latency as `run_trace_failure` attributes it.
fn t3_detection(c: &T3Cell, net: &Network) -> Option<u64> {
    let records = &net.kernel.records;
    let d = if c.dedicated {
        records.first_entry_detection(c.failed)
    } else {
        let s1 = c.sc.switches[0];
        let port = c.sc.monitored_edge().port_a;
        let path = net
            .node::<FancySwitch>(s1)
            .tree_hasher(port)
            .hash_path(c.failed);
        records
            .detections
            .iter()
            .filter(|d| d.detector == DetectorKind::HashTree)
            .find(|d| matches!(&d.scope, DetectionScope::HashPath(p) if p == &path))
    };
    d.map(|d| d.time.duration_since(c.fail_at).as_nanos())
}

/// The untraced original of cell 0 of a Table 3 sweep seeded with
/// `base`: `run_trace_failure` run by the sweep runner, which folds the
/// cell's telemetry into its report.
pub(crate) fn t3_original(
    trace: &SyntheticTrace,
    rank: usize,
    base: u64,
    duration: SimDuration,
) -> Result<(TelemetryCounters, Option<f64>), String> {
    let (out, report) = Sweep::new("table3 cell", vec![0u8])
        .seed(base)
        .threads(1)
        .try_run(|_, ctx| run_trace_failure(trace, rank, wl::TABLE3_LOSS_PCT, duration, ctx))
        .map_err(|e| format!("cell error: {e}"))?;
    Ok((report.telemetry, out[0].detection_s))
}

/// A rebuilt cell agrees with its original: same telemetry and the same
/// detection latency (compared in the seconds the original reports).
pub(crate) fn t3_check(
    net: &Network,
    c: &T3Cell,
    original: &(TelemetryCounters, Option<f64>),
    what: &str,
) -> Result<(), String> {
    same(what, &net.kernel.telemetry, &original.0)?;
    let d = t3_detection(c, net).map(|n| SimDuration(n).as_secs_f64());
    same(what, &d.map(f64::to_bits), &original.1.map(f64::to_bits))
}

fn table3(
    seed: u64,
    seconds: f64,
    start: Instant,
    work: &Path,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let scale = wl::table3_scale();
    let loss = wl::TABLE3_LOSS_PCT;
    let Some(dir) = tally.attempt("table3 dir", || fresh_dir(work, "table3-traced")) else {
        return;
    };
    let synth = synthesis_count();
    let t = Instant::now();
    let handles = load_table3_traces(&scale, seed, Some(&dir));
    m.insert("traffic.compile_s", t.elapsed().as_secs_f64());
    if synthesis_count() - synth != handles.len() as u64 {
        tally.fail(
            "table3 compile",
            "did not synthesize each trace once".into(),
        );
    }
    m.insert(
        "traffic.flows",
        handles.iter().map(|h| h.trace.flows.len()).sum::<usize>() as f64,
    );
    m.insert(
        "traffic.prefixes",
        handles
            .iter()
            .map(|h| h.trace.prefixes_by_rank.len())
            .sum::<usize>() as f64,
    );
    let replays: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(load_table3_traces(&scale, seed, Some(&dir)));
            t.elapsed().as_secs_f64()
        })
        .collect();
    m.insert("traffic.replay_s", median(&replays));

    // The untraced row.
    let synth = synthesis_count();
    let t = Instant::now();
    let Some(row) = tally.attempt("table3 untraced", || wl::table3_row(seed, &dir)) else {
        return;
    };
    let off_s = t.elapsed().as_secs_f64();
    m.insert("traffic.synth_runs", (synthesis_count() - synth) as f64);
    println!(
        "table3 {loss}% row: tpr_bytes {:.4} tpr_prefixes {:.4} detection_s {:.4}",
        row.tpr_bytes, row.tpr_prefixes, row.detection_s
    );

    // The same sweep replayed with a span around each cell; counts
    // allocations and reads the runner's telemetry.
    let jobs: Vec<(usize, usize)> = handles
        .iter()
        .enumerate()
        .flat_map(|(ti, h)| {
            sample_failures(
                &h.trace,
                0.04,
                scale.trace_failures / handles.len().max(1),
                seed ^ ti as u64,
            )
            .into_iter()
            .map(move |r| (ti, r))
        })
        .collect();
    let base = mix64(seed ^ (loss as u64) << 32);
    let sweep = Sweep::new(format!("table3 {loss}%"), jobs.clone()).seed(base);
    let replay = tally.attempt("table3 runner replay", || {
        count_allocs(true);
        let a = allocs();
        let t = Instant::now();
        let r = sweep.try_run(|&(ti, rank), ctx| {
            let t = Instant::now();
            let o = run_trace_failure(&handles[ti].trace, rank, loss, scale.duration, ctx);
            o.map(|o| (o, t.elapsed().as_secs_f64()))
        });
        let wall = t.elapsed().as_secs_f64();
        count_allocs(false);
        let n = allocs() - a;
        let (cells, report) = r.map_err(|e| format!("cell error: {e}"))?;
        let total_w: f64 = cells.iter().map(|c| c.0.weight).sum();
        let det_w: f64 = cells
            .iter()
            .filter(|c| c.0.detection_s.is_some())
            .map(|c| c.0.weight)
            .sum();
        same(
            "table3 runner",
            &(det_w / total_w).to_bits(),
            &row.tpr_bytes.to_bits(),
        )?;
        Ok((cells, report, wall, n))
    });
    if let Some((cells, report, wall, n)) = &replay {
        put_telemetry(m, &report.telemetry);
        let detected = cells.iter().filter(|c| c.0.detection_s.is_some()).count();
        m.insert("core.detections", detected as f64);
        m.insert("alloc.count", *n as f64);
        m.insert(
            "alloc.per_event",
            *n as f64 / report.telemetry.events_dispatched.max(1) as f64,
        );
        let cell_s: Vec<f64> = cells.iter().map(|c| c.1).collect();
        put_cells(m, report.threads, *wall, &cell_s);
        m.insert(
            "sim.ns_per_event",
            off_s * 1e9 / report.telemetry.events_dispatched.max(1) as f64,
        );
    }

    // One cell three ways: untraced, observed, wrapped.
    let (ti, rank) = jobs[0];
    let trace = &handles[ti].trace;
    let cell_seed = sweep.cell_seed(0);
    let Some(reference) = tally.attempt("table3 cell original", || {
        t3_original(trace, rank, base, scale.duration)
    }) else {
        return;
    };
    let check = |net: &Network, c: &T3Cell, what: &str| t3_check(net, c, &reference, what);
    let until = SimTime::ZERO + scale.duration;
    let (mut off, mut on, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut split = Split::default();
    let mut round = 0;
    while more_rounds(start, seconds, round, 1) {
        round += 1;
        if let Some(t) = tally.attempt("table3 cell untraced", || {
            let mut c = t3_cell(trace, rank, cell_seed, scale.duration)?;
            let e = c.sc.fault().clone();
            c.sc.net.kernel.add_failure(e.link, e.a, c.failure.clone());
            let t = Instant::now();
            c.sc.net.run_until(until);
            let t = t.elapsed().as_secs_f64();
            check(&c.sc.net, &c, "table3 cell untraced")?;
            Ok(t)
        }) {
            off.push(t);
        }
        if let Some(t) = tally.attempt("table3 cell observed", || {
            let mut c = t3_cell(trace, rank, cell_seed, scale.duration)?;
            let e = c.sc.fault().clone();
            c.sc.net.kernel.add_failure(e.link, e.a, c.failure.clone());
            let (hub, rec) = (MetricsHub::new(), recorder());
            c.sc.net.kernel.set_metrics(hub.clone());
            c.sc.net.kernel.set_tracer(Box::new(rec.clone()));
            let t = Instant::now();
            c.sc.net.run_until(until);
            let t = t.elapsed().as_secs_f64();
            check(&c.sc.net, &c, "table3 cell observed")?;
            let snap = hub.snapshot();
            put_hub_counters(m, &snap);
            m.insert("trace.events", trace_events(&[rec]) as f64);
            m.insert("metrics.export_s", export_s(&[snap])?);
            Ok(t)
        }) {
            on.push(t);
        }
        if let Some(t) = tally.attempt("table3 cell traced", || {
            let mut c = t3_cell(trace, rank, cell_seed, scale.duration)?;
            let mut net = rewrap(&mut c.sc)?;
            let e = c.sc.fault().clone();
            net.kernel.add_failure(e.link, e.a, c.failure.clone());
            let (t, net) = split.round(|| {
                let mut ru = 0.0;
                timed_run_until(&mut net, until, &mut ru);
                Ok((ru, ru, net))
            })?;
            check(&net, &c, "table3 cell traced")?;
            Ok(t)
        }) {
            traced.push(t);
        }
    }
    m.insert("obs.on_over_off", ratio(&on, &off));
    m.insert("bench.trace_overhead", ratio(&traced, &off));
    split.report(m);
}

// ---------------------------------------------------------------------
// netwide: each cell replayed from the sharded scenario's public calls.
// ---------------------------------------------------------------------

/// Keeps the causal chain of a failure episode (the events the reroute
/// and recovery checks read) and counts every event offered.
#[derive(Clone, Default)]
struct Chain(Arc<Mutex<(Vec<TraceEvent>, u64)>>);

impl TraceSink for Chain {
    fn record(&mut self, ev: &TraceEvent) {
        let keep = matches!(
            ev,
            TraceEvent::Reroute { .. }
                | TraceEvent::Detection { .. }
                | TraceEvent::Failover { .. }
                | TraceEvent::RerouteDamp { .. }
                | TraceEvent::BackupAlarm { .. }
                | TraceEvent::PacketDrop {
                    cause: DropCause::Gray | DropCause::NoBackup,
                    ..
                }
        );
        let mut g = self.0.lock().expect("chain poisoned");
        g.1 += 1;
        if keep {
            g.0.push(ev.clone());
        }
    }
}

/// Span totals of a netwide replay.
#[derive(Default, Clone, Copy)]
struct NwSpans {
    build: f64,
    run: f64,
    export: f64,
    merge: f64,
    timeline: f64,
    verify: f64,
    cell: f64,
}

/// What one replayed cell reproduces of `EdgeOutcome`.
#[derive(Debug, PartialEq)]
pub(crate) struct NwOut {
    detected: bool,
    detection_s: u64,
    cross_talk: u64,
    protected: bool,
    reroute_s: u64,
    bound_s: u64,
    recovery_ok: bool,
    flaps: u64,
    metrics_jsonl: String,
    shard_events: Vec<u64>,
}

pub(crate) fn nw_expected(o: &EdgeOutcome) -> NwOut {
    NwOut {
        detected: o.detected,
        detection_s: o.detection_s.to_bits(),
        cross_talk: o.cross_talk,
        protected: o.protected,
        reroute_s: o.reroute_s.to_bits(),
        bound_s: o.bound_s.to_bits(),
        recovery_ok: o.recovery_ok,
        flaps: o.flaps,
        metrics_jsonl: o.metrics_jsonl.clone(),
        shard_events: o.shard_stats.iter().map(|s| s.events).collect(),
    }
}

/// Per-cell counters of a replay.
#[derive(Default)]
struct NwCounts {
    telemetry: TelemetryCounters,
    merged: Snapshot,
    windows: u64,
    null_windows: u64,
    msgs: u64,
    detections: u64,
    trace_events: u64,
}

/// Replay one netwide cell the way `run_netwide` runs it, with a span
/// around each public call. Without `observe`, no hubs or recorders are
/// attached and only the run itself is compared.
#[allow(clippy::too_many_arguments)]
fn nw_cell(
    topo: &Topology,
    routes: &Routes,
    edge: usize,
    seed: u64,
    observe: bool,
    sp: &mut NwSpans,
    counts: &mut NwCounts,
) -> Result<NwOut, String> {
    let cell_t = Instant::now();
    let cfg = wl::netwide_config(topo);
    let n = topo.len();
    let name = topo.edges[edge].name.clone();
    let (src, dst) = directed_victim(topo, routes, edge).ok_or("edge carries no traffic")?;
    let victim = service_prefix(dst);
    let duration = SimDuration::from_secs(4);
    let fail_at = SimTime::ZERO + SimDuration::from_secs_f64(1.5);
    let mut flows = uniform_pair_flows(n, cfg.per_switch_flows, cfg.rate_bps, 1.0, seed);
    for k in 0..4u64 {
        for rep in 0..4u64 {
            flows.push(PairFlow {
                src,
                dst,
                start: SimTime(
                    rep * 1_000_000_000 + k * 130_000_000 + (mix64(seed ^ k) % 50_000_000),
                ),
                cfg: FlowConfig::for_rate(cfg.rate_bps, 1.0),
            });
        }
    }
    let t = Instant::now();
    let mut sc = ScenarioSpec::topology(topo.clone())
        .seed(seed)
        .high_priority(vec![victim])
        .pair_flows(flows)
        .protect(&name)
        .build_sharded()
        .map_err(|e| format!("build_sharded: {e}"))?;
    sp.build += t.elapsed().as_secs_f64();
    let shards = sc.shard_count();
    let chains: Vec<Chain> = (0..shards).map(|_| Chain::default()).collect();
    let hubs: Vec<MetricsHub> = (0..shards).map(|_| MetricsHub::new()).collect();
    if observe {
        for s in 0..shards {
            sc.net
                .shard_mut(s)
                .kernel
                .set_tracer(Box::new(chains[s].clone()));
            sc.net.shard_mut(s).kernel.set_metrics(hubs[s].clone());
        }
    }
    sc.fail_edge(edge, GrayFailure::single_entry(victim, cfg.loss, fail_at));
    let t = Instant::now();
    sc.run_until(SimTime::ZERO + duration, 1);
    sp.run += t.elapsed().as_secs_f64();

    let (up_node, up_port) = (topo.edges[edge].a, sc.edges[edge].port_a);
    let detections = sc.detections();
    let upstream = detections
        .iter()
        .filter(|d| d.time >= fail_at)
        .find(|d| d.node == up_node && d.port == up_port);
    let detection_s = upstream.map_or(-1.0, |d| d.time.duration_since(fail_at).as_secs_f64());
    let cross_talk = detections
        .iter()
        .filter(|d| d.time >= fail_at && !(d.node == up_node && d.port == up_port))
        .count() as u64;
    counts.telemetry.absorb(&sc.merged_telemetry());
    counts.detections += detections.len() as u64;
    for st in sc.net.stats() {
        counts.windows += st.windows;
        counts.null_windows += st.null_windows;
        counts.msgs += st.msgs_sent;
    }
    let p = sc.protected.first().ok_or("edge not protected")?.clone();
    let mut out = NwOut {
        detected: upstream.is_some(),
        detection_s: detection_s.to_bits(),
        cross_talk,
        protected: true,
        reroute_s: 0,
        bound_s: p.bound.as_secs_f64().to_bits(),
        recovery_ok: true,
        flaps: 0,
        metrics_jsonl: String::new(),
        shard_events: sc.net.stats().iter().map(|s| s.events).collect(),
    };
    if observe {
        let onset = sc.first_drop(victim).unwrap_or(fail_at);
        let t = Instant::now();
        let events = merge_streams(&chains);
        sp.merge += t.elapsed().as_secs_f64();
        counts.trace_events += chains
            .iter()
            .map(|c| c.0.lock().expect("poisoned").1)
            .sum::<u64>();
        let t = Instant::now();
        let timeline = TimelineReport::from_events(&events);
        sp.timeline += t.elapsed().as_secs_f64();
        out.reroute_s = timeline
            .first_reroute_ns
            .map_or(-1.0, |t| t.saturating_sub(onset.0) as f64 / 1e9)
            .to_bits();
        if p.backups.iter().any(|(pre, _)| *pre == victim) {
            let mut contract = RecoveryContract::new(
                u64::from(victim.0),
                p.bound.as_nanos(),
                RECOVERY_LOSS_BUDGET_NS,
            );
            contract.onset_ns = Some(onset.0);
            let t = Instant::now();
            let verdict = recovery::verify(&events, &contract);
            sp.verify += t.elapsed().as_secs_f64();
            out.recovery_ok = verdict.pass();
            out.flaps = verdict.flaps;
        }
        if let Some(d) = upstream {
            hubs[0].with(|r| {
                r.observe(
                    fancy_bench::netwide::EDGE_DETECTION_METRIC,
                    Labels::new().with("edge", name.as_str()),
                    d.time.duration_since(fail_at).as_nanos(),
                );
            });
        }
        let t = Instant::now();
        let merged = sc.merged_metrics();
        out.metrics_jsonl = merged.to_jsonl();
        let parsed =
            Snapshot::parse_jsonl(&out.metrics_jsonl).map_err(|e| format!("jsonl: {e}"))?;
        counts.merged.merge(&parsed);
        sp.export += t.elapsed().as_secs_f64();
    }
    sp.cell += cell_t.elapsed().as_secs_f64();
    Ok(out)
}

/// One observed replay of a netwide cell, for the self-tests.
#[cfg(test)]
pub(crate) fn nw_replay(
    topo: &Topology,
    routes: &Routes,
    edge: usize,
    seed: u64,
) -> Result<NwOut, String> {
    nw_cell(
        topo,
        routes,
        edge,
        seed,
        true,
        &mut NwSpans::default(),
        &mut NwCounts::default(),
    )
}

fn merge_streams(chains: &[Chain]) -> Vec<TraceEvent> {
    fancy_sim::trace::merge_shard_streams(
        chains
            .iter()
            .map(|c| c.0.lock().expect("poisoned").0.clone())
            .collect(),
    )
}

fn netwide(seed: u64, seconds: f64, start: Instant, m: &mut Metrics, tally: &mut Tally) {
    let Some(topo) = tally.attempt("netwide topology", wl::netwide_topology) else {
        return;
    };
    let t = Instant::now();
    let Some(routes) = tally.attempt("netwide routes", || {
        Routes::compute(&topo).map_err(|e| format!("routes: {e}"))
    }) else {
        return;
    };
    m.insert("topo.routes_s", t.elapsed().as_secs_f64());
    let cfg = wl::netwide_config(&topo);
    let edges = wl::netwide_edges(&topo);
    let seeds = Sweep::new("netwide", edges.clone()).seed(seed);
    let scale = wl::table3_scale();

    let (mut off_runs, mut on_runs, mut cell_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut untraced = Vec::new();
    let (mut total, mut passes) = (NwSpans::default(), 0u32);
    let mut round = 0;
    while more_rounds(start, seconds, round, 2) {
        round += 1;
        let counted = round == 1;
        let Some((report, t)) = tally.attempt("netwide untraced", || {
            count_allocs(counted);
            let a = allocs();
            let t = Instant::now();
            let r = fancy_bench::netwide::run_netwide(&topo, &cfg, &scale, seed);
            let t = t.elapsed().as_secs_f64();
            count_allocs(false);
            let n = allocs() - a;
            let r = r.map_err(|e| format!("run_netwide: {e}"))?;
            wl::netwide_check(&r)?;
            if counted {
                m.insert("alloc.count", n as f64);
            }
            Ok((r, t))
        }) else {
            return;
        };
        if !counted {
            untraced.push(t);
        }
        // Replay every cell with its hubs and recorders, then without.
        let mut sp = NwSpans::default();
        let mut counts = NwCounts::default();
        let ok = tally.attempt("netwide replay", || {
            for (i, &e) in edges.iter().enumerate() {
                let before = sp.cell;
                let got = nw_cell(
                    &topo,
                    &routes,
                    e,
                    seeds.cell_seed(i),
                    true,
                    &mut sp,
                    &mut counts,
                )?;
                cell_s.push(sp.cell - before);
                same("netwide cell", &got, &nw_expected(&report.outcomes[i]))?;
            }
            Ok(())
        });
        if ok.is_none() {
            continue;
        }
        let mut plain = NwSpans::default();
        let mut plain_counts = NwCounts::default();
        let ok = tally.attempt("netwide replay unobserved", || {
            for (i, &e) in edges.iter().enumerate() {
                let got = nw_cell(
                    &topo,
                    &routes,
                    e,
                    seeds.cell_seed(i),
                    false,
                    &mut plain,
                    &mut plain_counts,
                )?;
                let want = nw_expected(&report.outcomes[i]);
                same(
                    "netwide unobserved cell",
                    &got.shard_events,
                    &want.shard_events,
                )?;
                same(
                    "netwide unobserved cell",
                    &got.detection_s,
                    &want.detection_s,
                )?;
            }
            same(
                "netwide unobserved",
                &plain_counts.telemetry,
                &counts.telemetry,
            )
        });
        if ok.is_some() {
            on_runs.push(sp.run);
            off_runs.push(plain.run);
        }
        for (a, b) in [
            (&mut total.build, sp.build),
            (&mut total.run, sp.run),
            (&mut total.export, sp.export),
            (&mut total.merge, sp.merge),
            (&mut total.timeline, sp.timeline),
            (&mut total.verify, sp.verify),
            (&mut total.cell, sp.cell),
        ] {
            *a += b;
        }
        passes += 1;
        if counted {
            put_telemetry(m, &counts.telemetry);
            put_hub_counters(m, &counts.merged);
            m.insert("core.detections", counts.detections as f64);
            m.insert("sim.shard.windows", counts.windows as f64);
            m.insert("sim.shard.null_windows", counts.null_windows as f64);
            m.insert("sim.shard.msgs", counts.msgs as f64);
            m.insert("trace.events", counts.trace_events as f64);
            let ev = counts.telemetry.events_dispatched.max(1) as f64;
            m.insert("alloc.per_event", m["alloc.count"] / ev);
        }
    }
    if passes == 0 {
        return;
    }
    let p = f64::from(passes);
    m.insert("apps.build_sharded_s", total.build / p);
    m.insert("sim.shard.run_s", total.run / p);
    m.insert("metrics.export_s", total.export / p);
    m.insert("trace.merge_s", total.merge / p);
    m.insert("analysis.timeline_s", total.timeline / p);
    m.insert("analysis.verify_s", total.verify / p);
    m.insert("bench.traced_run_s", total.cell / p);
    let spans =
        total.build + total.run + total.export + total.merge + total.timeline + total.verify;
    m.insert("bench.unattributed_s", (total.cell - spans) / p);
    m.insert("bench.replicas", p);
    m.insert("obs.on_over_off", ratio(&on_runs, &off_runs));
    if !untraced.is_empty() {
        let wall = median(&untraced);
        m.insert("bench.trace_overhead", total.cell / p / wall);
        m.insert("sim.ns_per_event", wall * 1e9 / m["sim.events"].max(1.0));
        // Busy fraction: the last replay's cells over the run_netwide wall.
        let last = &cell_s[cell_s.len() - edges.len().min(cell_s.len())..];
        put_cells(m, 1, wall, last);
    }
}

// ---------------------------------------------------------------------

/// The traced run of `workload`: every per-layer metric, 0 where the
/// workload does not exercise the layer.
pub fn run(workload: &str, seed: u64, seconds: f64, work: &Path, tally: &mut Tally) -> Metrics {
    let start = Instant::now();
    let mut m: Metrics = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    crate::micro::run(&mut m);
    let steady = m["sim.steady_allocs_per_event"];
    tally.attempted += 1;
    if steady != 0.0 {
        tally.fail(
            "scheduler",
            format!("{steady} allocations per steady-state event"),
        );
    }
    match workload {
        "fwd_chain" => fwd_chain(seed, seconds, start, &mut m, tally),
        "backbone" => backbone(seed, seconds, start, &mut m, tally),
        "netwide" => netwide(seed, seconds, start, &mut m, tally),
        "table3" => table3(seed, seconds, start, work, &mut m, tally),
        other => tally.fail("workload", format!("unknown workload {other}")),
    }
    m
}
