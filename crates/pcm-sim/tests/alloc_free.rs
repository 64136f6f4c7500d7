//! The memory system's steady-state loop allocates nothing.
//!
//! A counting global allocator tallies every allocation made on the test
//! thread. A paper-geometry `MemorySystem` is warmed up with a seeded
//! request stream plus periodic rank-refresh batches until every queue,
//! heap and buffer has reached its working capacity; the next 200k
//! requests, driven through the same `advance_into` / `enqueue` /
//! `enqueue_rank_refresh` calls, must then make no allocation at all.

use pcm_rng::Rng;
use pcm_sim::{Completion, Cycle, MemConfig, MemOp, MemorySystem, ServiceClass, SimError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (per thread, so the test
    /// harness's own threads do not count).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local with no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Requests in the warm-up and again in the measured phase.
const REQUESTS: u64 = 200_000;

/// Cycles the driver waits before retrying a full queue.
const STALL: Cycle = 32;

/// Rows per bank the stream touches. Wear counters are kept per written
/// row, so a bounded footprint lets the warm-up write every row it will
/// ever write (a first write to a row is a legitimate one-off
/// allocation).
const HOT_ROWS: u32 = 16;

/// A seeded request stream plus a round-robin rank-refresh planner, in
/// the shape of the simulator's own refresh policy: every `stagger`
/// cycles the next rank, if no demand access for it is queued, gets a
/// burst refreshing one row in each of its banks. Like the policy, the
/// planner keeps a bounded number of refresh rows in flight, so the
/// refresh queue has a steady depth.
struct Driver {
    rng: Rng,
    mem: MemorySystem,
    done: Vec<Completion>,
    rows: Vec<(u32, u32)>,
    arrival: Cycle,
    next_tick: Cycle,
    stagger: Cycle,
    next_rank: u32,
    submitted: u64,
    completed: u64,
    refreshes_in_flight: u64,
}

impl Driver {
    fn new() -> Self {
        let mut config = MemConfig::paper_baseline();
        config.geometry.rows_per_bank = 4096;
        let banks = config.geometry.banks_per_rank;
        let stagger = config.timing.refresh_period_cycles() / Cycle::from(config.geometry.ranks);
        Self {
            rng: Rng::seed_from_u64(0xA110_CF4E),
            mem: MemorySystem::new(config).unwrap(),
            done: Vec::new(),
            rows: Vec::with_capacity(banks as usize),
            arrival: 0,
            next_tick: stagger,
            stagger,
            next_rank: 0,
            submitted: 0,
            completed: 0,
            refreshes_in_flight: 0,
        }
    }

    fn advance(&mut self, cycle: Cycle) {
        self.mem.advance_into(cycle, &mut self.done).unwrap();
        self.completed += self.done.len() as u64;
        let refreshes = self
            .done
            .iter()
            .filter(|c| c.class == ServiceClass::RankRefresh);
        self.refreshes_in_flight -= refreshes.count() as u64;
        self.done.clear();
    }

    fn tick(&mut self) {
        let g = self.mem.config().geometry;
        let rank = self.next_rank;
        self.next_rank = (rank + 1) % g.ranks;
        if !self.mem.rank_queue_empty(rank)
            || self.refreshes_in_flight >= 2 * u64::from(g.banks_per_rank)
        {
            return;
        }
        self.rows.clear();
        for bank in 0..g.banks_per_rank {
            let row = self.rng.gen_below(u64::from(HOT_ROWS)) as u32;
            self.rows.push((bank, row));
        }
        self.mem.enqueue_rank_refresh(rank, &self.rows).unwrap();
        self.submitted += self.rows.len() as u64;
        self.refreshes_in_flight += self.rows.len() as u64;
    }

    /// Issues one demand request, running the refresh ticks that fall
    /// before its arrival.
    fn request(&mut self) {
        let g = self.mem.config().geometry;
        // Mostly sparse arrivals, with back-to-back bursts that fill the
        // queues and stall the driver.
        self.arrival += if self.rng.gen_bool(0.1) {
            0
        } else {
            self.rng.gen_below(64)
        };
        while self.next_tick <= self.arrival {
            let at = self.next_tick;
            self.advance(at);
            self.tick();
            self.next_tick += self.stagger;
        }
        if self.arrival > self.mem.now() {
            self.advance(self.arrival);
        }
        // A quarter of the stream hammers one bank so requests queue
        // behind each other and preempt that bank's refreshes.
        let row_span = u64::from(g.row_bytes) * u64::from(g.total_banks());
        let addr = if self.rng.gen_bool(0.25) {
            self.rng.gen_below(u64::from(HOT_ROWS)) * row_span
                + self.rng.gen_below(u64::from(g.row_bytes))
        } else {
            self.rng.gen_below(u64::from(HOT_ROWS) * row_span)
        };
        let (op, class) = match self.rng.gen_below(3) {
            0 => (MemOp::Read, ServiceClass::Read),
            1 => (MemOp::Write, ServiceClass::Write),
            _ => (MemOp::Write, ServiceClass::ResetOnlyWrite),
        };
        loop {
            match self.mem.enqueue(op, addr, class) {
                Ok(_) => break,
                Err(SimError::QueueFull { .. }) => {
                    let next = self.mem.now() + STALL;
                    self.advance(next);
                }
                Err(e) => panic!("unexpected simulator error: {e}"),
            }
        }
        self.submitted += 1;
    }
}

#[test]
fn steady_state_loop_makes_no_allocation() {
    let mut d = Driver::new();
    for _ in 0..REQUESTS {
        d.request();
    }
    let before = allocations();
    for _ in 0..REQUESTS {
        d.request();
    }
    let steady = allocations() - before;

    d.completed += d.mem.drain().len() as u64;
    let stats = d.mem.stats();
    assert!(stats.refreshes_completed > 100_000, "{stats:?}");
    assert!(stats.refreshes_preempted > 1_000, "{stats:?}");
    assert_eq!(d.completed, d.submitted, "every request completes once");
    assert_eq!(
        steady, 0,
        "{steady} allocations over {REQUESTS} steady-state requests"
    );
}
