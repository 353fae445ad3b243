//! The machine-speed calibration kernel.
//!
//! This sandbox's speed moves by up to 1.45× in plateaus of 30–150 s and
//! by ±15 % within seconds, separately on each of its two vCPUs — a
//! neighbour on the sibling hardware thread, by its signature: latency-
//! bound code (a dependent ALU chain, a pointer chase) barely moves,
//! throughput-bound code does. A plateau outlasts a run, so no statistic
//! of a run's own timings can see past it. Instead every timed call is
//! bracketed by this fixed, throughput-bound piece of work, and host time
//! is reported as `time × REFERENCE_S ÷ (kernel time beside it)`.
//!
//! The kernel belongs to the benchmark, not the engine, so an engine
//! change cannot move it; on another machine it rescales every host-time
//! metric of parent and change by the same factor. Its two ingredients
//! are the ones that tracked the engine best in ten-minute side-by-side
//! traces: allocator churn followed the strong mode (window-mean CV of
//! an L2C cell 13 % raw, 3.5 % scaled), queue/heap traffic the mild one
//! (4–5 % raw, 3 % scaled). Over 14 same-seed runs the scaled
//! `us_per_inj` spread 3 % (`l2c_indep`) and 5 % (`ccx_indep`) where the
//! unscaled floor spread 9 % and 15 %.

use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// What one kernel pass takes on this sandbox when it is quiet; scaling
/// by it keeps the reported numbers in real quiet-machine seconds.
pub const REFERENCE_S: f64 = 0.008;

/// Runs the kernel once and returns its wall time in seconds.
pub fn kernel_s() -> f64 {
    let t = Instant::now();
    let mut x = 99u32;
    let mut next = || {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        x
    };

    // Allocator churn: 64 live blocks of 16–527 bytes, replaced in turn.
    let mut ring: Vec<Vec<u8>> = (0..64).map(|_| Vec::new()).collect();
    for i in 0..150_000usize {
        ring[i & 63] = Vec::with_capacity(16 + ((next() >> 10) & 511) as usize);
    }
    black_box(&ring);

    // Queue and heap traffic: two pushes, and two pops two times in three.
    let mut fifo: VecDeque<(u64, u32)> = VecDeque::new();
    let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..60_000u32 {
        let v = u64::from(next());
        fifo.push_back((v, i));
        heap.push((v >> 3, i));
        if i % 3 != 0 {
            acc ^= fifo.pop_front().map_or(0, |e| e.0);
            acc = acc.wrapping_add(heap.pop().map_or(0, |e| e.0));
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_takes_a_measurable_time() {
        let s = kernel_s();
        assert!(s > 0.0 && s < 5.0, "{s}");
    }
}
