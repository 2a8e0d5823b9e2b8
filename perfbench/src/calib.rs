//! Host-speed calibration.
//!
//! The hosts this benchmark runs on change speed by a quarter or more
//! for seconds to tens of seconds at a time (neighbours on shared
//! cores and caches), which no median over a 35-second run can hide.
//! So every timed segment is bracketed by a fixed reference workload
//! that lives here, outside the program, and each segment's host time
//! is also reported scaled to the speed at which the reference takes
//! [`REFERENCE_NOMINAL_S`]. The program cannot change the reference,
//! so a real slowdown of the program still shows in full.
//!
//! The reference has two halves because the simulator's slowdowns
//! have two causes: an event loop over a binary heap (core-bound, like
//! the discrete-event executor) and lookups in a hash map far larger
//! than the core's caches (like the roofline cost cache). In three
//! identical 35-second runs of `offline-tune` on a 2-vCPU host, the
//! run medians of unscaled time spread by 21%; scaled by the heap half
//! alone by 8%, by the map half alone by 10%, and by their sum by 0.2%.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Host seconds the reference takes at nominal speed, a fixed scale
/// (it takes 25-40 ms on a 2-vCPU x86-64 host); scaled times read as
/// if every segment ran at that speed.
pub const REFERENCE_NOMINAL_S: f64 = 0.025;

/// Events pushed through the heap half per call.
const HEAP_EVENTS: u64 = 100_000;
/// Lookups in the hash-map half per call.
const MAP_LOOKUPS: u64 = 75_000;
/// Distinct keys the hash map grows to.
const MAP_KEYS: u64 = 200_000;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A miniature discrete-event loop: a binary heap of timestamps and
/// a hashed table of `f64` accumulators.
fn heap_half(seed: u64) -> f64 {
    let mut rng = seed | 1;
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::with_capacity(4096);
    let mut table = vec![0.0f64; 1 << 15];
    for i in 0..HEAP_EVENTS {
        heap.push(Reverse((xorshift(&mut rng) >> 20, i)));
        if heap.len() > 2048 {
            let Reverse((t, id)) = heap.pop().expect("heap is non-empty");
            let slot = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 49) as usize;
            table[slot] = table[slot] * 0.5 + (t as f64).sqrt() * 1e-3;
        }
    }
    table.iter().sum()
}

/// Memoized lookups over a key space larger than the caches.
fn map_half(seed: u64) -> f64 {
    let mut rng = seed | 1;
    let mut memo: HashMap<(u64, u32), f64> = HashMap::new();
    let mut acc = 0.0;
    for i in 0..MAP_LOOKUPS {
        let key = (xorshift(&mut rng) % MAP_KEYS, (i % 7) as u32);
        acc += *memo.entry(key).or_insert_with(|| (key.0 as f64).sqrt());
    }
    acc
}

/// Host seconds one reference call takes right now.
fn reference_s() -> f64 {
    let t0 = Instant::now();
    black_box(heap_half(black_box(0x005E_E5A3)));
    black_box(map_half(black_box(0x12_345)));
    t0.elapsed().as_secs_f64()
}

/// Time of a phase, in host seconds and in nominal seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    pub host_s: f64,
    pub nominal_s: f64,
}

/// A stopwatch that runs the reference between segments: each
/// segment's host time is scaled by the mean of the reference times
/// just before and just after it. The reference runs while the
/// stopwatch is stopped, so it never counts as the program's time.
#[derive(Debug)]
pub struct Stopwatch {
    lap: Timing,
    last_reference_s: f64,
    since: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        let last_reference_s = reference_s();
        Stopwatch {
            lap: Timing::default(),
            last_reference_s,
            since: Instant::now(),
        }
    }

    /// End the current segment and start the next one.
    pub fn split(&mut self) {
        let host_s = self.since.elapsed().as_secs_f64();
        let reference = reference_s();
        let speed = REFERENCE_NOMINAL_S / (0.5 * (self.last_reference_s + reference));
        self.lap.host_s += host_s;
        self.lap.nominal_s += host_s * speed;
        self.last_reference_s = reference;
        self.since = Instant::now();
    }

    /// End the current segment and return the time of every segment
    /// since the previous lap.
    pub fn lap(&mut self) -> Timing {
        self.split();
        std::mem::take(&mut self.lap)
    }
}
