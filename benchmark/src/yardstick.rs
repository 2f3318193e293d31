//! The yardstick: a slice of fixed work timed between the cells of a pass,
//! so that host times can be read against the machine's speed at that
//! moment instead of against the wall alone.
//!
//! The reference box is two cores of a shared host. For tens of seconds
//! at a time everything on it runs 1.3–2× slower (no steal time shows, CPU
//! time follows the wall: the cores themselves are slower, as under a busy
//! sibling hyperthread), and a run of any length the contract allows sits
//! inside one such phase. The same binary with the same seed then reads
//! 14–43 % apart from run to run (quartile spread), which no bound can
//! gate. A slice is ~40 ms of the kind of work the simulator does — a
//! sort, an arithmetic chain, ordered-map churn with small allocations, a
//! binary-heap event loop, open-addressed table probing, dynamic dispatch
//! over queues — none of it simulator code, so a change to the simulator
//! cannot move it.
//!
//! `slowdown` = mean slice time ÷ [`REF_SLICE_S`]. Set-up time is divided
//! by it. The simulator's windows are more sensitive than the slice: over
//! 150 s of alternating slices and windows on each of the six workloads,
//! window time followed `slowdown^1.5` (run-to-run spread 14–43 % raw,
//! 6–18 % divided by `slowdown`, 4–6 % divided by `slowdown^1.5`; the
//! optimum lay between 1.3 and 1.7 on every workload), so windows are
//! divided by `slowdown^`[`WINDOW_EXPONENT`]. Both runs of a comparison are
//! corrected alike; a wrong exponent leaves noise, not bias.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host seconds one slice takes on the reference box in its fast phase. A
/// "reference second" (`ref_s`) is a second at that speed.
pub const REF_SLICE_S: f64 = 0.038;

/// Window time scales with the slice's slowdown to this power (measured,
/// see the module doc).
pub const WINDOW_EXPONENT: f64 = 1.5;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Sorts a megabyte of pseudo-random words.
fn sort(n: usize) -> u64 {
    let mut s = 7u64;
    let mut v: Vec<u64> = (0..n).map(|_| xorshift(&mut s)).collect();
    v.sort_unstable();
    v[n / 2]
}

/// Four independent arithmetic chains.
fn chains(n: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..n {
        a = a.wrapping_mul(3).wrapping_add(i);
        b = (b ^ (b >> 7)).wrapping_add(a & 1);
        c = c.rotate_left(5) ^ i;
        d = d.wrapping_add(c & 0xff).wrapping_mul(5);
    }
    a ^ b ^ c ^ d
}

/// Ordered-map churn: insert into and remove small vectors under 4096 keys.
fn map_churn(n: u64) -> u64 {
    let mut m: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut s = 1u64;
    let mut acc = 0u64;
    for i in 0..n {
        let k = xorshift(&mut s) % 4096;
        m.entry(k).or_default().push(i);
        if i % 3 == 0 {
            if let Some(v) = m.remove(&((s >> 20) % 4096)) {
                acc += v.len() as u64;
            }
        }
    }
    acc + m.len() as u64
}

/// A timer wheel's worth of pop-earliest / push-later on a binary heap.
fn heap_loop(n: u64) -> u64 {
    let mut h = BinaryHeap::new();
    let mut s = 3u64;
    let mut now = 0u64;
    for id in 0..4096u32 {
        h.push(Reverse((xorshift(&mut s) % 100_000, id)));
    }
    for i in 0..n {
        let Some(Reverse((t, id))) = h.pop() else {
            break;
        };
        now = t;
        h.push(Reverse((
            now + 1 + xorshift(&mut s) % 100_000,
            id ^ i as u32,
        )));
    }
    now
}

/// Linear probing with data-dependent branches in a 512 KiB table.
fn table_probe(n: u64) -> u64 {
    const MASK: usize = (1 << 16) - 1;
    let mut t = vec![0u64; MASK + 1];
    let mut s = 5u64;
    let mut acc = 0u64;
    for _ in 0..n {
        let r = xorshift(&mut s);
        let mut i = r as usize & MASK;
        let mut probes = 0;
        while t[i] != 0 && t[i] & 0xff != r & 0xff && probes < 8 {
            i = (i + 1) & MASK;
            probes += 1;
        }
        if t[i] == 0 {
            t[i] = r | 1;
        } else if r & 0x300 == 0 {
            t[i] = 0;
            acc += 1;
        } else {
            acc += t[i] >> 60;
        }
    }
    acc
}

type Inbox = VecDeque<(u32, u64)>;

trait Node {
    fn fire(&mut self, q: &mut Inbox, x: u64) -> u64;
}

struct Batcher(u64, Vec<u64>);
struct Forwarder(u64);
struct Delay(VecDeque<u64>);

impl Node for Batcher {
    fn fire(&mut self, q: &mut Inbox, x: u64) -> u64 {
        self.1.push(x);
        if self.1.len() > 16 {
            let batch = std::mem::take(&mut self.1);
            self.0 = batch.iter().fold(self.0, |a, b| a.wrapping_add(*b));
        }
        q.push_back(((x % 64) as u32, x.wrapping_mul(31).wrapping_add(1)));
        self.0
    }
}

impl Node for Forwarder {
    fn fire(&mut self, q: &mut Inbox, x: u64) -> u64 {
        self.0 ^= x;
        if x & 3 == 0 {
            q.push_back(((self.0 % 64) as u32, x >> 1));
        }
        q.push_back((((x >> 8) % 64) as u32, x ^ self.0));
        self.0
    }
}

impl Node for Delay {
    fn fire(&mut self, q: &mut Inbox, x: u64) -> u64 {
        self.0.push_back(x);
        if self.0.len() > 8 {
            let y = self.0.pop_front().unwrap_or(0);
            q.push_back(((y % 64) as u32, y.wrapping_add(x)));
        }
        self.0.len() as u64
    }
}

/// Messages routed between 64 boxed nodes of three kinds through one queue.
fn dispatch(n: u64) -> u64 {
    let mut nodes: Vec<Box<dyn Node>> = (0..64u64)
        .map(|i| -> Box<dyn Node> {
            match i % 3 {
                0 => Box::new(Batcher(i, Vec::new())),
                1 => Box::new(Forwarder(i)),
                _ => Box::new(Delay(VecDeque::new())),
            }
        })
        .collect();
    let mut q = Inbox::new();
    q.push_back((0, 12_345));
    let mut acc = 0u64;
    let mut s = 9u64;
    for _ in 0..n {
        let (i, x) = q
            .pop_front()
            .unwrap_or_else(|| ((xorshift(&mut s) % 64) as u32, s));
        acc ^= nodes[i as usize].fire(&mut q, x);
        if q.len() > 1024 {
            q.truncate(16);
        }
    }
    acc
}

/// One slice of fixed work; the checksum keeps the optimiser from deleting it.
fn slice() -> u64 {
    black_box(sort(1 << 17))
        ^ black_box(chains(4_000_000))
        ^ black_box(map_churn(50_000))
        ^ black_box(heap_loop(70_000))
        ^ black_box(table_probe(500_000))
        ^ black_box(dispatch(400_000))
}

/// Slices timed over one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Yardstick {
    total: Duration,
    slices: u32,
}

impl Yardstick {
    /// Runs and times one slice.
    pub fn tick(&mut self) {
        let t = Instant::now();
        black_box(slice());
        self.total += t.elapsed();
        self.slices += 1;
    }

    /// Host time spent in slices.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Mean slice time over [`REF_SLICE_S`]: how much slower than the
    /// reference box in its fast phase the machine ran (1 when no slice was
    /// timed).
    pub fn slowdown(&self) -> f64 {
        if self.slices == 0 {
            return 1.0;
        }
        self.total.as_secs_f64() / f64::from(self.slices) / REF_SLICE_S
    }

    /// `window` host seconds in reference seconds.
    pub fn window_ref_s(&self, window: f64) -> f64 {
        window / self.slowdown().powf(WINDOW_EXPONENT)
    }

    /// `setup` host seconds in reference seconds.
    pub fn setup_ref_s(&self, setup: f64) -> f64 {
        setup / self.slowdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_is_fixed_work() {
        assert_eq!(slice(), slice());
    }

    #[test]
    fn slowdown_is_mean_slice_time_over_the_reference() {
        assert_eq!(Yardstick::default().slowdown(), 1.0);
        let y = Yardstick {
            total: Duration::from_secs_f64(4.0 * REF_SLICE_S),
            slices: 2,
        };
        assert!((y.slowdown() - 2.0).abs() < 1e-9);
        assert!((y.setup_ref_s(3.0) - 1.5).abs() < 1e-9);
        assert!((y.window_ref_s(3.0) - 3.0 / 2f64.powf(WINDOW_EXPONENT)).abs() < 1e-9);
    }

    #[test]
    fn tick_accumulates() {
        let mut y = Yardstick::default();
        y.tick();
        y.tick();
        assert_eq!(y.slices, 2);
        assert!(y.total() > Duration::ZERO && y.slowdown() > 0.0);
    }
}
