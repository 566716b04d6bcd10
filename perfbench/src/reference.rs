//! The reference kernel: fixed work that host timings are divided by.
//!
//! On a shared virtual machine the speed of a virtual CPU swings with what
//! other tenants run on the same physical core: by up to twofold in bursts
//! of about a second, and by a third for minutes at a time. A run cannot
//! wait that out, so the benchmark times each piece of work (one policy's
//! serving run, one spec's set-up, one grid point) next to a run of this
//! kernel on the same CPU, and reports the piece in units of the kernel's
//! time ("ref"). The kernel is code of this package only, so it stays the
//! same when the program under test changes, and it mixes the kinds of work
//! the simulator does so that contention slows it about as much: an event
//! heap with log-distributed gaps over a table larger than the L1 cache,
//! string-keyed map lookups with dynamic calls, floating-point functions and
//! short-lived allocations, and independent integer chains.

use crate::thread_cpu_s;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A discrete-event loop: pop the earliest event, draw an exponential gap,
/// touch a 256 KiB table, push the event back.
fn event_heap() -> u64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15;
    let mut heap = BinaryHeap::with_capacity(4096);
    let mut table = vec![0u64; 1 << 15];
    let mask = table.len() - 1;
    for id in 0..4096u64 {
        heap.push(Reverse((xorshift(&mut rng) % 100_000, id)));
    }
    let mut acc = 0u64;
    for _ in 0..40_000 {
        let Reverse((t, id)) = heap.pop().expect("the heap never empties");
        let u = (xorshift(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
        let gap = (-(u + 1e-12).ln() * 1000.0) as u64;
        let slot = xorshift(&mut rng) as usize & mask;
        table[slot] = table[slot].wrapping_add(t ^ id);
        acc = acc.wrapping_add(table[t as usize & mask]);
        heap.push(Reverse((t + gap, id)));
    }
    acc
}

/// Lookups by function name, dynamic calls to floating-point functions and
/// a short-lived vector per step.
fn named_lookups() -> u64 {
    let names: Vec<String> = (0..12).map(|i| format!("function-{i}")).collect();
    let mut state: HashMap<String, Vec<f64>> =
        names.iter().map(|n| (n.clone(), vec![1.0; 8])).collect();
    let models: [Box<dyn Fn(f64) -> f64>; 4] = [
        Box::new(|x: f64| x.exp().min(1e9)),
        Box::new(|x: f64| (x + 1.0).ln()),
        Box::new(|x: f64| x.powf(0.7)),
        Box::new(|x: f64| x * 1.0001),
    ];
    let mut rng = 0x1234_5678_9ABC_DEF1;
    let mut acc = 0.0f64;
    for i in 0..25_000usize {
        let r = xorshift(&mut rng);
        let slots = state
            .get_mut(&names[(r % 12) as usize])
            .expect("every name is in the map");
        let y = models[i % 4]((r >> 40) as f64 / (1u64 << 24) as f64);
        slots[i % 8] += y;
        let parts: Vec<f64> = (0..6).map(|k| y * k as f64).collect();
        acc += black_box(parts).iter().sum::<f64>() + slots[(i + 3) % 8];
        if acc > 1e12 {
            acc = 0.0;
        }
    }
    acc as u64
}

/// Four independent integer chains.
fn integer_chains() -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..2_000_000u64 {
        a = black_box(a ^ (a << 13)).wrapping_add(i);
        b = (b ^ (b >> 7)).wrapping_add(a);
        c = (c ^ (c << 17)).wrapping_mul(3);
        d = d.rotate_left(5) ^ c;
    }
    a ^ b ^ c ^ d
}

/// CPU seconds of one run of the reference kernel on the calling thread.
pub fn reference_s() -> f64 {
    let started = thread_cpu_s();
    black_box(event_heap());
    black_box(named_lookups());
    black_box(integer_chains());
    thread_cpu_s() - started
}
