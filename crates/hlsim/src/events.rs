//! The accelerated-mode event queue (DESIGN.md, *Event queue*).

use std::collections::VecDeque;

/// Event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(test, derive(PartialOrd, Ord))]
pub enum Ev {
    /// Hardware thread `.0` runs: applies a completed access, issues
    /// its next op.
    Wake(u8),
    /// The functional DMA engine streams its next frame.
    DmaFrame,
}

/// Pending events in the order they fire: by cycle, and among equal
/// cycles in the order they were scheduled.
///
/// The live set is small — at most one wake per hardware thread plus
/// the DMA frame, all within `L2_MISS_LATENCY + compute_per_op` cycles
/// of now — and most pushes carry the largest delta there is, so a
/// sorted ring beats a heap: the common push appends, the rest shift a
/// few 16-byte entries, and `pop` and `next_cycle` read the front.
#[derive(Debug, Default)]
pub struct EventQueue {
    ring: VecDeque<(u64, Ev)>,
    /// Tests can route a whole `System` through the heap scheduler this
    /// queue replaced, to compare complete runs.
    #[cfg(test)]
    heap: Option<heap::HeapQueue>,
}

impl Clone for EventQueue {
    fn clone(&self) -> Self {
        let EventQueue {
            ring,
            #[cfg(test)]
            heap,
        } = self;
        EventQueue {
            ring: ring.clone(),
            #[cfg(test)]
            heap: heap.clone(),
        }
    }

    /// Copies `source`'s events into this queue's ring in place.
    fn clone_from(&mut self, source: &Self) {
        let EventQueue {
            ring,
            #[cfg(test)]
            heap,
        } = source;
        self.ring.clone_from(ring);
        #[cfg(test)]
        self.heap.clone_from(heap);
    }
}

impl EventQueue {
    /// Schedules `ev` at `cycle`, behind every event already due then.
    pub fn push(&mut self, cycle: u64, ev: Ev) {
        #[cfg(test)]
        if let Some(heap) = &mut self.heap {
            return heap.push(cycle, ev);
        }
        if self.ring.back().is_none_or(|last| last.0 <= cycle) {
            self.ring.push_back((cycle, ev));
        } else {
            let at = self.ring.partition_point(|e| e.0 <= cycle);
            self.ring.insert(at, (cycle, ev));
        }
    }

    /// The cycle of the next event to fire.
    pub fn next_cycle(&self) -> Option<u64> {
        #[cfg(test)]
        if let Some(heap) = &self.heap {
            return heap.next_cycle();
        }
        self.ring.front().map(|e| e.0)
    }

    /// Takes the next event to fire.
    pub fn pop(&mut self) -> Option<(u64, Ev)> {
        #[cfg(test)]
        if let Some(heap) = &mut self.heap {
            return heap.pop();
        }
        self.ring.pop_front()
    }
}

#[cfg(test)]
pub(crate) mod heap {
    //! The scheduler the ring replaced, kept verbatim as its oracle:
    //! a min-heap on `(cycle, seq)` with `seq` counting pushes.

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::{Ev, EventQueue};

    #[derive(Debug, Clone, Default)]
    pub(crate) struct HeapQueue {
        seq: u64,
        events: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    }

    impl HeapQueue {
        pub(crate) fn push(&mut self, cycle: u64, ev: Ev) {
            self.seq += 1;
            self.events.push(Reverse((cycle, self.seq, ev)));
        }

        pub(crate) fn next_cycle(&self) -> Option<u64> {
            self.events.peek().map(|Reverse((c, _, _))| *c)
        }

        pub(crate) fn pop(&mut self) -> Option<(u64, Ev)> {
            self.events.pop().map(|Reverse((c, _, ev))| (c, ev))
        }
    }

    impl EventQueue {
        /// An empty queue served by the heap scheduler.
        pub(crate) fn on_heap() -> Self {
            EventQueue {
                heap: Some(HeapQueue::default()),
                ..EventQueue::default()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use nestsim_harness::{check_with, Config, Source};

    use super::heap::HeapQueue;
    use super::*;
    use crate::system::{DMA_FRAME_CYCLES, L2_HIT_LATENCY, L2_MISS_LATENCY, POLL_RETRY};
    use crate::workload::BENCHMARKS;

    /// The ring and the heap scheduler fed the same pushes; every pop
    /// is checked against the oracle's.
    #[derive(Clone, Default)]
    struct Twins {
        ring: EventQueue,
        heap: HeapQueue,
        /// `System::cycle`: the latest cycle popped.
        now: u64,
        live: usize,
        pushed: u64,
    }

    impl Twins {
        fn push(&mut self, delta: u64) {
            // 256 consecutive pushes carry distinct payloads, so any
            // two events that can tie are told apart.
            let ev = match self.pushed % 257 {
                256 => Ev::DmaFrame,
                n => Ev::Wake(n as u8),
            };
            self.pushed += 1;
            self.live += 1;
            self.ring.push(self.now + delta, ev);
            self.heap.push(self.now + delta, ev);
        }

        /// Pops one event from both; `true` if another event of the
        /// same cycle was pending behind it.
        fn pop(&mut self) -> bool {
            assert_eq!(self.ring.next_cycle(), self.heap.next_cycle());
            let got = self.ring.pop();
            assert_eq!(got, self.heap.pop());
            let Some((cycle, _)) = got else {
                return false;
            };
            self.live -= 1;
            self.now = self.now.max(cycle);
            self.ring.next_cycle() == Some(cycle)
        }
    }

    /// A delay the simulator schedules: thread start-up stagger, DMA
    /// frame, hit, poll retry, miss, completion — with or without a
    /// real profile's compute time.
    fn delta(src: &mut Source) -> u64 {
        let base = match src.below(8) {
            0 => 0,
            1 => 1,
            2 => src.below(8),
            3 => DMA_FRAME_CYCLES,
            4 => L2_HIT_LATENCY,
            5 => POLL_RETRY,
            _ => L2_MISS_LATENCY,
        };
        let compute = BENCHMARKS[src.index(BENCHMARKS.len())].compute_per_op as u64;
        base + if src.bool() { compute } else { 0 }
    }

    #[test]
    fn ring_pops_what_the_heap_scheduler_pops() {
        // Counted out here, where shrinking cannot trip on them.
        let ties = Cell::new(0u64);
        let bursts = Cell::new(0u64);
        let forks = Cell::new(0u64);

        fn act(src: &mut Source, q: &mut Twins, ties: &Cell<u64>, bursts: &Cell<u64>) {
            let pop = |q: &mut Twins| ties.set(ties.get() + u64::from(q.pop()));
            // Zero pops, so a shrunk case is a short one.
            match src.below(64) {
                28..=56 if q.live < 160 => q.push(delta(src)),
                // `run_until`: everything due by some cycle.
                57..=62 => {
                    let target = q.now + src.below(2 * L2_MISS_LATENCY);
                    while q.ring.next_cycle().is_some_and(|c| c <= target) {
                        pop(q);
                    }
                    assert!(q.heap.next_cycle().is_none_or(|c| c > target));
                    q.now = q.now.max(target);
                }
                // A barrier release: every thread wakes next cycle.
                63 if q.live < 160 => {
                    for _ in 0..64 {
                        q.push(1);
                    }
                    bursts.set(bursts.get() + 1);
                }
                _ => pop(q),
            }
        }

        check_with(
            Config::with_cases(48),
            "ring_pops_what_the_heap_scheduler_pops",
            |src| {
                let mut q = Twins::default();
                for t in 0..64 {
                    q.push(t % 8);
                }
                for _ in 0..1_500 {
                    act(src, &mut q, &ties, &bursts);
                    if src.below(400) == 399 {
                        // A snapshot taken mid-run goes its own way.
                        let mut fork = q.clone();
                        for _ in 0..300 {
                            act(src, &mut fork, &ties, &bursts);
                        }
                        forks.set(forks.get() + 1);
                    }
                }
                while q.live > 0 {
                    ties.set(ties.get() + u64::from(q.pop()));
                }
                assert_eq!((q.ring.pop(), q.heap.pop()), (None, None));
            },
        );

        println!(
            "ties popped: {}, 64-push bursts: {}, forks: {}",
            ties.get(),
            bursts.get(),
            forks.get()
        );
        assert!(ties.get() >= 200, "only {} ties", ties.get());
        assert!(bursts.get() >= 1 && forks.get() >= 1);
    }
}
