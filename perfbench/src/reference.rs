//! Fixed reference loops that gauge the host's speed at the moment.
//!
//! On a host shared with other tenants, the same simulation runs at very
//! different speeds from minute to minute. Two loops slow down with it:
//! independent random reads over a table much larger than the private
//! caches (memory traffic), and a small event loop of binary-heap pushes
//! and pops with data-dependent branches (the simulator's own shape of
//! work). The benchmark times both right before and right after each
//! repetition, takes the geometric mean, and rescales the repetition's
//! host times to a nominal reference speed ([`NOMINAL_NS`]), so that
//! host times taken in a slow minute and in a quick one can be compared.
//!
//! The loops are the benchmark's own code and call nothing in the library,
//! so a change to the library moves the simulation's host time and leaves
//! the reference alone.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crate::span::Stamp;

/// Words in the memory loop's table: 16 MiB of `u32`.
const WORDS: usize = 4 << 20;
/// Reads in one pass of the memory loop.
const READS: u32 = 1_000_000;
/// Words in the event loop's state table: 512 KiB of `u64`.
const STATE: usize = 1 << 16;
/// Events pending in the event loop's heap.
const PENDING: u32 = 4096;
/// Events handled in one pass of the event loop.
const EVENTS: u32 = 100_000;

/// The geometric mean of the two loops' times, in ns, at the nominal
/// reference speed: about what it was on the measuring machine (a 2-vCPU
/// Xeon KVM guest) in its quick phases. Rescaled host times read as
/// seconds on that machine then.
pub const NOMINAL_NS: f64 = 7.4e6;

/// The reference loops' tables, allocated and touched once.
pub struct Reference {
    table: Vec<u32>,
    state: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

/// One step of a xorshift generator.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            table: (0..WORDS as u32).collect(),
            state: vec![0; STATE],
            heap: BinaryHeap::with_capacity(PENDING as usize),
        }
    }

    /// Host time of one pass of each loop, in ns: their geometric mean.
    pub fn ns(&mut self) -> f64 {
        let memory = self.memory_ns() as f64;
        let events = self.events_ns() as f64;
        (memory * events).sqrt()
    }

    fn memory_ns(&self) -> u64 {
        let t0 = Stamp::now();
        let mut x: u64 = black_box(7);
        let mut acc = 0u64;
        for _ in 0..READS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            acc = acc.wrapping_add(self.table[(x >> 20) as usize % WORDS] as u64);
        }
        black_box(acc);
        t0.ns()
    }

    fn events_ns(&mut self) -> u64 {
        self.state.fill(0);
        self.heap.clear();
        let t0 = Stamp::now();
        let mut x: u64 = black_box(0x1234_5678);
        for id in 0..PENDING {
            self.heap.push(Reverse((xorshift(&mut x) % 1000, id)));
        }
        for _ in 0..EVENTS {
            let Reverse((t, id)) = self.heap.pop().expect("the heap never empties");
            let slot = (xorshift(&mut x) as usize ^ id as usize) % STATE;
            let s = self.state[slot];
            let d = if s & 3 == 0 {
                x % 97
            } else if s & 4 == 0 {
                1 + s % 13
            } else {
                x % 1000
            };
            self.state[slot] = s.wrapping_add(t ^ d);
            self.heap.push(Reverse((t + d, id)));
        }
        black_box(&self.state);
        t0.ns()
    }
}
