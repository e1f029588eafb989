//! The steady-state hot paths allocate nothing.
//!
//! Once the timing wheel has made a full revolution and the packet
//! pool's free list is warm, one cycle of pool check-in → arrival and
//! timer push → pop → check-out must not touch the heap. Observability
//! must not add allocations either: a FANcY link with a metrics hub and
//! a full flight recorder attached allocates exactly as much per window
//! as the same link with neither, and metric updates on existing series
//! allocate nothing. A counting global allocator measures this directly,
//! so a change that starts allocating per event fails `cargo test`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fancy::core::prelude::*;
use fancy::net::Prefix;
use fancy::sim::event::{Event, EventQueue};
use fancy::sim::metrics::{Kind, Labels, MetricsHub, Registry, Value};
use fancy::sim::pool::PacketPool;
use fancy::sim::{
    Fib, LinkConfig, Network, Packet, PacketBuilder, PacketKind, SharedRecorder, SimDuration,
    SimTime,
};
use fancy::tcp::{ReceiverHost, UdpSource};

/// Counts allocations (and reallocations) made by the current thread.
/// Per-thread, so the test harness's other threads cannot disturb the
/// count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count_one();
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(p, l, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A stamped packet for direct pool use (outside the kernel, which
/// normally stamps uids at check-in).
fn stamped_packet(uid: u64) -> Packet {
    let mut p =
        PacketBuilder::new(1, 0x0A000001, 1500, PacketKind::Udp { flow: 0, seq: uid }).build();
    p.uid = uid + 1;
    p
}

/// One steady-state scheduler cycle: check a packet into the slab,
/// schedule its arrival plus a timer, pop both, check the packet out.
/// `t` advances 10 µs per call so the wheel cursor sweeps its buckets
/// like a real run.
fn scheduler_cycle(q: &mut EventQueue, pool: &mut PacketPool, t: &mut u64, i: u64) {
    let r = pool.insert(stamped_packet(i));
    q.push_arrival(SimTime(*t), 0, 0, r);
    q.push_timer(SimTime(*t), 0, i);
    while let Some((_, ev)) = q.pop() {
        if let Event::Arrival { pkt, .. } = ev {
            pool.remove(pkt);
        }
    }
    *t += 10_000;
}

#[test]
fn steady_state_scheduler_path_does_not_allocate() {
    let mut q = EventQueue::new();
    let mut pool = PacketPool::new();
    let mut t = 0u64;
    // Warm the wheel through a full revolution (2048 slots × 16.4 µs ≈
    // 33.6 ms of sim time; 10 µs steps need ≳3400 cycles) and the pool's
    // free list.
    for i in 0..8_192 {
        scheduler_cycle(&mut q, &mut pool, &mut t, i);
    }
    let before = allocs();
    // Two events (one arrival, one timer) per cycle.
    let cycles = 100_000;
    for i in 0..cycles {
        scheduler_cycle(&mut q, &mut pool, &mut t, i);
    }
    let allocated = allocs() - before;
    assert_eq!(
        allocated,
        0,
        "{allocated} allocations over {} steady-state events",
        2 * cycles
    );
}

/// A two-switch FANcY link (S1 monitors its port 1 toward S2) fed by two
/// UDP sources: one to a dedicated-counter entry, one counted by the
/// hash tree, so both session kinds cycle through their FSMs.
fn fancy_udp_link() -> Network {
    let dedicated = 0x0A_00_00_05;
    let mut input = FancyInput {
        high_priority: vec![Prefix::from_addr(dedicated)],
        memory_bytes_per_port: 1 << 20,
        tree: TreeParams::paper_default(),
        timers: TimerConfig::paper_default(),
    };
    input.timers = input.timers.for_link_delay(SimDuration::from_millis(1));
    let layout = input.translate().expect("layout");
    let until = SimTime::ZERO + SimDuration::from_secs(10);

    let mut net = Network::new(11);
    let udp_a = net.add_node(Box::new(UdpSource::new(
        0x01_00_00_01,
        dedicated,
        8_000_000,
        1000,
        until,
    )));
    let udp_b = net.add_node(Box::new(UdpSource::new(
        0x01_00_00_02,
        0x0B_00_00_07,
        8_000_000,
        1000,
        until,
    )));
    let mut fib1 = Fib::new();
    fib1.default_route(1);
    let s1 = net.add_node(Box::new(FancySwitch::new(fib1, layout.clone(), vec![1], 1)));
    let mut fib2 = Fib::new();
    fib2.default_route(1);
    let s2 = net.add_node(Box::new(FancySwitch::new(fib2, layout, Vec::new(), 2)));
    let rx = net.add_node(Box::new(ReceiverHost::new()));

    let edge = LinkConfig::new(10_000_000_000, SimDuration::from_micros(10));
    let core = LinkConfig::new(10_000_000_000, SimDuration::from_millis(1));
    net.connect(udp_a, s1, edge); // s1 port 0
    net.connect(s1, s2, core); // s1 port 1, s2 port 0
    net.connect(s2, rx, edge); // s2 port 1
    net.connect(udp_b, s1, edge); // s1 port 2
    net
}

/// Sum of `fancy_fsm_transitions_total` over every label set.
fn fsm_transitions(hub: &MetricsHub) -> u64 {
    hub.snapshot()
        .samples
        .iter()
        .filter(|s| s.name == "fancy_fsm_transitions_total")
        .map(|s| match s.value {
            Value::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// Run the link for 1 s of warm-up, then count the allocations of the
/// next second (20 dedicated and 5 tree counting sessions). Returns the
/// allocations and the FSM transitions counted in the window.
fn link_window(observed: bool) -> (u64, u64) {
    const RING: usize = 256;
    let mut net = fancy_udp_link();
    let hub = MetricsHub::new();
    let rec = SharedRecorder::new(RING);
    if observed {
        net.kernel.set_metrics(hub.clone());
        net.kernel.set_tracer(Box::new(rec.clone()));
    }
    net.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let (transitions, evicted) = (fsm_transitions(&hub), rec.dropped());
    if observed {
        assert_eq!(rec.len(), RING, "the recorder must be at capacity");
    }
    let before = allocs();
    net.run_until(SimTime::ZERO + SimDuration::from_secs(2));
    let allocated = allocs() - before;
    if observed {
        assert!(rec.dropped() > evicted, "the window must record events");
    }
    (allocated, fsm_transitions(&hub) - transitions)
}

#[test]
fn observability_adds_no_steady_state_allocations() {
    let (plain, _) = link_window(false);
    let (observed, transitions) = link_window(true);
    assert!(
        transitions >= 50,
        "only {transitions} FSM transitions in the window"
    );
    assert_eq!(
        observed,
        plain,
        "a metrics hub and a full flight recorder added {} allocations over \
         {transitions} FSM transitions",
        observed as i64 - plain as i64
    );
}

#[test]
fn registry_updates_on_existing_series_do_not_allocate() {
    let mut r = Registry::new();
    let edge = Labels::new().with("edge", "s1↔s2");
    let c = r.id("c_total", &edge, Kind::Counter);
    let g = r.id("g", &edge, Kind::Gauge);
    let h = r.id("h", &edge, Kind::Histogram);
    // First touch builds each value (and the string-keyed series).
    r.add_id(c, 1);
    r.gauge_set_id(g, 1);
    r.observe_id(h, 1);
    r.inc("s_total", Labels::new());
    r.gauge_max("s_gauge", Labels::new(), 1);
    r.observe("s_hist", Labels::new(), 1);
    let before = allocs();
    for v in 0..1_000u64 {
        r.add_id(c, v);
        r.gauge_set_id(g, v);
        r.gauge_max_id(g, v);
        r.observe_id(h, v);
        r.inc("s_total", Labels::new());
        r.gauge_set("s_gauge", Labels::new(), v);
        r.gauge_max("s_gauge", Labels::new(), v);
        r.observe("s_hist", Labels::new(), v);
    }
    let allocated = allocs() - before;
    assert_eq!(allocated, 0, "{allocated} allocations over 8000 updates");
    assert_eq!(r.snapshot().len(), 6);
}
