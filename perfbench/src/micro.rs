//! Kernel micro-benchmarks: the timing wheel, the packet pool, and the
//! zero-allocation steady state of the scheduler path. Each timing is a
//! set of samples reported as median and quartiles.

use std::hint::black_box;
use std::time::Instant;

use fancy_sim::event::{Event, EventQueue};
use fancy_sim::pool::PacketPool;
use fancy_sim::{Packet, PacketBuilder, PacketKind, SimTime};

use crate::util::{allocs, count_allocs, median, quantile};
use crate::Metrics;

/// A stamped packet for direct pool use (outside the kernel, which
/// normally stamps uids at check-in).
fn stamped_packet(uid: u64) -> Packet {
    let mut p =
        PacketBuilder::new(1, 0x0A000001, 1500, PacketKind::Udp { flow: 0, seq: uid }).build();
    p.uid = uid + 1;
    p
}

/// One steady-state scheduler cycle: check a packet into the pool,
/// schedule its arrival plus a timer, pop both, check the packet out.
/// Simulated time advances 10 µs per cycle so the wheel cursor sweeps
/// its buckets as in a real run.
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

/// Samples of ns per call of `f`, `iters` calls per sample, after one
/// warm-up sample.
fn samples(n: usize, iters: u64, mut f: impl FnMut()) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    for s in 0..=n {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if s > 0 {
            out.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    out
}

fn put_quartiles(m: &mut Metrics, base: [&'static str; 3], v: &[f64]) {
    m.insert(base[0], median(v));
    m.insert(base[1], quantile(v, 0.25));
    m.insert(base[2], quantile(v, 0.75));
}

/// Allocations per event over `n` steady-state cycles, after warming the
/// wheel through more than one revolution (2048 slots × 16.4 µs of
/// simulated time) and the pool's free list. Two events per cycle.
pub fn steady_allocs_per_event(n: u64) -> f64 {
    let mut q = EventQueue::new();
    let mut pool = PacketPool::new();
    let mut t = 0u64;
    for i in 0..8_192 {
        scheduler_cycle(&mut q, &mut pool, &mut t, i);
    }
    count_allocs(true);
    let before = allocs();
    for i in 0..n {
        scheduler_cycle(&mut q, &mut pool, &mut t, i);
    }
    let counted = allocs() - before;
    count_allocs(false);
    counted as f64 / (2 * n) as f64
}

/// Run the micro-benchmarks into `m`.
pub fn run(m: &mut Metrics) {
    const N: usize = 15;
    // Near-wheel steady state: every link delay and detection timer of
    // a FANcY run is far below the wheel's 33.6 ms horizon.
    let (mut q, mut pool, mut t, mut i) = (EventQueue::new(), PacketPool::new(), 0u64, 0u64);
    let near = samples(N, 20_000, || {
        i += 1;
        scheduler_cycle(&mut q, &mut pool, &mut t, i);
    });
    put_quartiles(
        m,
        [
            "sim.event.push_pop_near_ns",
            "sim.event.push_pop_near_ns.q1",
            "sim.event.push_pop_near_ns.q3",
        ],
        &near,
    );
    // RTO mix: every 16th cycle also schedules a 200 ms timer, which
    // goes through the overflow heap and its migration path.
    let (mut q, mut pool, mut t, mut j) = (EventQueue::new(), PacketPool::new(), 0u64, 0u64);
    let rto = samples(N, 20_000, || {
        j += 1;
        if j % 16 == 0 {
            q.push_timer(SimTime(t + 200_000_000), 1, j);
        }
        scheduler_cycle(&mut q, &mut pool, &mut t, j);
    });
    put_quartiles(
        m,
        [
            "sim.event.push_pop_rto_ns",
            "sim.event.push_pop_rto_ns.q1",
            "sim.event.push_pop_rto_ns.q3",
        ],
        &rto,
    );
    let mut pool = PacketPool::new();
    let mut k = 0u64;
    let pool_ns = samples(N, 100_000, || {
        k += 1;
        let r = pool.insert(stamped_packet(k));
        black_box(pool.get(r).size);
        black_box(pool.remove(r));
    });
    put_quartiles(
        m,
        [
            "sim.pool.check_in_out_ns",
            "sim.pool.check_in_out_ns.q1",
            "sim.pool.check_in_out_ns.q3",
        ],
        &pool_ns,
    );
    m.insert(
        "sim.steady_allocs_per_event",
        steady_allocs_per_event(200_000),
    );
}
