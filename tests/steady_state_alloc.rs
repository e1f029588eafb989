//! The steady-state scheduler path allocates nothing.
//!
//! Once the timing wheel has made a full revolution and the packet
//! pool's free list is warm, one cycle of pool check-in → arrival and
//! timer push → pop → check-out must not touch the heap. A counting
//! global allocator measures this directly, so a scheduler or pool
//! change that starts allocating per event fails `cargo test`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fancy::sim::event::{Event, EventQueue};
use fancy::sim::pool::PacketPool;
use fancy::sim::{Packet, PacketBuilder, PacketKind, SimTime};

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
