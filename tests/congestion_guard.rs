//! The partial-deployment congestion guard (footnote 2 of the paper).
//!
//! When FANcY runs between *remote* switches, congestion at an unmonitored
//! middle hop drops packets between the two counting points, which would be
//! misread as a gray failure. The guard polls queue-depth telemetry of the
//! watched links and discards measurements taken while any watched queue
//! ran long.

use fancy::core::{CongestionGuard, FancyInput, FancyLayout, FancySwitch, TimerConfig, TreeParams};
use fancy::prelude::*;
use fancy::sim::{LinkConfig, Network, SimDuration};
use fancy::tcp::{ReceiverHost, SenderHost};

const VICTIM: Prefix = Prefix(0x0A_77_01);
const HOST_ADDR: u32 = 0x01_00_00_01;
const F1_ADDR: u32 = 0x0C_00_01_01;
const F2_ADDR: u32 = 0x0C_00_02_01;

/// `n` flows toward the victim, one every 100 ms, each at `bps`.
fn victim_flows(n: u64, bps: u64) -> Vec<ScheduledFlow> {
    (0..n)
        .map(|i| ScheduledFlow {
            start: SimTime(i * 100_000_000),
            dst: VICTIM.host(1),
            cfg: FlowConfig::for_rate(bps, 1.0),
        })
        .collect()
}

fn layout() -> FancyLayout {
    FancyInput {
        high_priority: vec![VICTIM],
        memory_bytes_per_port: 1 << 20,
        tree: TreeParams::paper_default(),
        timers: TimerConfig::paper_default().for_link_delay(SimDuration::from_millis(10)),
    }
    .translate()
    .unwrap()
}

/// Host and F1 behind port 0, everything else out of port 1.
fn fib() -> Fib {
    let mut fib = Fib::new();
    fib.route(Prefix::from_addr(HOST_ADDR), 0);
    fib.route(Prefix::from_addr(F1_ADDR), 0);
    fib.default_route(1);
    fib
}

/// host — F1 — legacy (bottleneck) — F2 — receiver. Optionally injects a
/// genuine gray failure (drop fraction) on the F1→legacy hop at t = 2 s.
/// Returns (network, f1).
fn remote_pair(
    with_guard: bool,
    offered_bps: u64,
    gray: Option<f64>,
    seed: u64,
) -> (Network, usize) {
    let flows = victim_flows(40, offered_bps / 20);
    let layout = layout();
    let mut net = Network::new(seed);
    let host = net.add_node(Box::new(SenderHost::new(HOST_ADDR, flows)));
    let mut f1_node = FancySwitch::new(fib(), layout.clone(), vec![1], 1);
    f1_node.addr = F1_ADDR;
    f1_node.control_dst.insert(1, F2_ADDR);
    let f1 = net.add_node(Box::new(f1_node));
    let legacy = net.add_node(Box::new(PlainSwitch::new(fib())));
    let mut f2_node = FancySwitch::new(fib(), layout, Vec::new(), 2);
    f2_node.addr = F2_ADDR;
    let f2 = net.add_node(Box::new(f2_node));
    let rx = net.add_node(Box::new(ReceiverHost::new()));

    let edge = LinkConfig::new(1_000_000_000, SimDuration::from_micros(10));
    let hop = LinkConfig::new(1_000_000_000, SimDuration::from_millis(5));
    // The legacy hop toward F2 is a bottleneck with a small queue.
    let bottleneck =
        LinkConfig::new(20_000_000, SimDuration::from_millis(5)).with_tm_capacity(15_000);
    net.connect(host, f1, edge);
    let l_f1 = net.connect(f1, legacy, hop);
    let bn = net.connect(legacy, f2, bottleneck);
    net.connect(f2, rx, edge);
    if let Some(p) = gray {
        net.kernel.add_failure(
            l_f1,
            f1,
            GrayFailure::single_entry(VICTIM, p, SimTime(2_000_000_000)),
        );
    }

    if with_guard {
        let sw: &mut FancySwitch = net.node_mut(f1);
        sw.guards.insert(
            1,
            CongestionGuard {
                threshold_bytes: 8_000,
                window: SimDuration::from_millis(25),
                watched: vec![(bn, legacy)],
            },
        );
    }
    net.run_until(SimTime(6_000_000_000));
    (net, f1)
}

#[test]
fn unguarded_remote_pair_misreads_middle_hop_congestion() {
    // Offer 40 Mbps into a 20 Mbps bottleneck: heavy congestion drops
    // between the counting points look exactly like gray loss to an
    // unguarded remote pair.
    let (net, _f1) = remote_pair(false, 120_000_000, None, 9);
    assert!(
        net.kernel.records.congestion_drops > 50,
        "scenario must congest the middle hop"
    );
    assert!(
        !net.kernel.records.detections.is_empty(),
        "without the guard, middle-hop congestion is (mis)flagged"
    );
    assert_eq!(
        net.kernel.records.total_gray_drops(),
        0,
        "no real gray failure"
    );
}

#[test]
fn guard_discards_congestion_tainted_measurements() {
    let (net, f1) = remote_pair(true, 120_000_000, None, 9);
    assert!(net.kernel.records.congestion_drops > 50);
    let sw: &FancySwitch = net.node(f1);
    assert!(
        sw.stats.discarded_sessions > 0,
        "guard must discard tainted sessions"
    );
    let false_positives = net
        .kernel
        .records
        .detections
        .iter()
        .filter(|d| {
            matches!(
                d.scope,
                DetectionScope::Entry(_) | DetectionScope::HashPath(_)
            )
        })
        .count();
    assert_eq!(
        false_positives,
        0,
        "guarded pair must not flag congestion: {:?}",
        net.kernel.records.detections.first()
    );
}

#[test]
fn guard_does_not_block_detection_of_a_real_gray_failure() {
    // Light offered load (no congestion) + a genuine 30% gray failure:
    // the guard stays out of the way and the failure is still localized.
    let (net, f1) = remote_pair(true, 5_000_000, Some(0.3), 10);
    let sw: &FancySwitch = net.node(f1);
    assert_eq!(
        sw.stats.discarded_sessions, 0,
        "no congestion → nothing discarded"
    );
    let det = net
        .kernel
        .records
        .first_entry_detection(VICTIM)
        .expect("real gray failure must still be detected with the guard on");
    assert!(det.time >= SimTime(2_000_000_000));
}

#[test]
fn guarded_clean_run_is_silent() {
    let (net, f1) = remote_pair(true, 5_000_000, None, 11);
    let sw: &FancySwitch = net.node(f1);
    assert_eq!(sw.stats.discarded_sessions, 0);
    assert!(net.kernel.records.detections.is_empty());
}

/// host — F1 ═ legacy (bottleneck) — F2 — receiver, plus a second FANcY
/// peer F3 on F1's port 2. F1 monitors ports 1 and 2, and both ports'
/// guards watch the same congested bottleneck with the same window, so
/// their polls tie at every instant and the first to poll takes (and
/// resets) the link's backlog mark. Returns the per-port discarded
/// sessions and the run's trace as JSONL.
fn shared_watch_run() -> ((u64, u64), String) {
    let layout = layout();
    let mut net = Network::new(9);
    let recorder = SharedRecorder::new(1 << 20);
    net.kernel.set_tracer(Box::new(recorder.clone()));
    let host = net.add_node(Box::new(SenderHost::new(
        HOST_ADDR,
        victim_flows(20, 6_000_000),
    )));
    let mut f1_node = FancySwitch::new(fib(), layout.clone(), vec![1, 2], 1);
    f1_node.addr = F1_ADDR;
    f1_node.control_dst.insert(1, F2_ADDR);
    let f1 = net.add_node(Box::new(f1_node));
    let legacy = net.add_node(Box::new(PlainSwitch::new(fib())));
    let mut f2_node = FancySwitch::new(fib(), layout.clone(), Vec::new(), 2);
    f2_node.addr = F2_ADDR;
    let f2 = net.add_node(Box::new(f2_node));
    let rx = net.add_node(Box::new(ReceiverHost::new()));
    let f3 = net.add_node(Box::new(FancySwitch::new(fib(), layout, Vec::new(), 3)));

    let edge = LinkConfig::new(1_000_000_000, SimDuration::from_micros(10));
    let hop = LinkConfig::new(1_000_000_000, SimDuration::from_millis(5));
    let bottleneck =
        LinkConfig::new(20_000_000, SimDuration::from_millis(5)).with_tm_capacity(15_000);
    net.connect(host, f1, edge);
    net.connect(f1, legacy, hop);
    let bn = net.connect(legacy, f2, bottleneck);
    net.connect(f2, rx, edge);
    net.connect(f1, f3, hop); // F1 port 2

    let sw: &mut FancySwitch = net.node_mut(f1);
    for port in [2, 1] {
        sw.guards.insert(
            port,
            CongestionGuard {
                threshold_bytes: 8_000,
                window: SimDuration::from_millis(25),
                watched: vec![(bn, legacy)],
            },
        );
    }
    net.run_until(SimTime(3_000_000_000));
    assert!(net.kernel.records.congestion_drops > 50, "must congest");
    assert_eq!(recorder.dropped(), 0, "ring sized for the whole trace");
    let sw: &FancySwitch = net.node(f1);
    let discarded = (sw.discarded_sessions(1), sw.discarded_sessions(2));
    (discarded, recorder.to_jsonl())
}

#[test]
fn guards_sharing_a_watched_link_poll_in_a_fixed_order() {
    let (discarded, trace) = shared_watch_run();
    assert!(
        discarded.0 + discarded.1 > 0,
        "the shared link must taint some sessions: {discarded:?}"
    );
    for run in 1..8 {
        let (d, t) = shared_watch_run();
        assert_eq!(d, discarded, "run {run}: per-port discards differ");
        assert!(t == trace, "run {run}: trace bytes differ");
    }
}
