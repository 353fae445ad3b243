//! Deficit-round-robin (DRR) fair-share scheduling across tenants.
//!
//! Each tenant owns a FIFO of queued jobs and a *deficit counter*.
//! Tenants take turns in ring order; on each visit a tenant's deficit
//! grows by `quantum × weight`, and it may dequeue jobs whose cost fits
//! the accumulated deficit. A saturating tenant therefore cannot starve
//! a light one: every ring cycle hands every backlogged tenant the same
//! weighted service opportunity, so the light tenant's first job waits
//! at most `ceil(cost / (quantum × weight))` cycles regardless of how
//! deep the heavy tenant's backlog is (locked by the tests below).
//!
//! The scheduler is pure data structure — no clock, no randomness —
//! so identical enqueue/dequeue sequences yield identical service
//! orders on every run.

use std::collections::{BTreeMap, VecDeque};

#[derive(Debug)]
struct Queued<T> {
    item: T,
    cost: u64,
}

#[derive(Debug)]
struct Tenant<T> {
    weight: u64,
    deficit: u64,
    /// True when the tenant's next ring visit should accrue a quantum.
    fresh: bool,
    queue: VecDeque<Queued<T>>,
}

/// A deficit-round-robin scheduler over items of type `T`.
#[derive(Debug)]
pub struct DrrScheduler<T> {
    quantum: u64,
    tenants: BTreeMap<String, Tenant<T>>,
    /// Backlogged tenants in service order.
    ring: VecDeque<String>,
    rounds: u64,
    len: usize,
}

impl<T> DrrScheduler<T> {
    /// A scheduler granting `quantum` cost units per visit per unit of
    /// tenant weight (zero is treated as one).
    pub fn new(quantum: u64) -> Self {
        DrrScheduler {
            quantum: quantum.max(1),
            tenants: BTreeMap::new(),
            ring: VecDeque::new(),
            rounds: 0,
            len: 0,
        }
    }

    /// Number of queued items across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Quantum grants handed out so far (the `svc.scheduler.rounds`
    /// counter).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Appends an item to `tenant`'s FIFO with the given service cost.
    /// `weight` updates the tenant's DRR weight (latest submit wins).
    pub fn enqueue(&mut self, tenant: &str, weight: u32, item: T, cost: u64) {
        let t = self.tenants.entry(tenant.to_string()).or_insert(Tenant {
            weight: 1,
            deficit: 0,
            fresh: true,
            queue: VecDeque::new(),
        });
        t.weight = u64::from(weight.max(1));
        if t.queue.is_empty() {
            t.deficit = 0;
            t.fresh = true;
            self.ring.push_back(tenant.to_string());
        }
        t.queue.push_back(Queued { item, cost });
        self.len += 1;
    }

    /// Dequeues the next item under DRR order, or `None` when idle.
    pub fn dequeue(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        loop {
            let name = self.ring.front()?.clone();
            let Some(t) = self.tenants.get_mut(&name) else {
                self.ring.pop_front();
                continue;
            };
            if t.queue.is_empty() {
                // Stale ring entry (e.g. after `remove`): the tenant
                // left the backlog, so its deficit resets.
                t.deficit = 0;
                self.ring.pop_front();
                continue;
            }
            if t.fresh {
                t.fresh = false;
                t.deficit = t
                    .deficit
                    .saturating_add(self.quantum.saturating_mul(t.weight));
                self.rounds += 1;
            }
            let head_cost = t.queue.front().map_or(0, |q| q.cost);
            if head_cost <= t.deficit {
                t.deficit -= head_cost;
                let item = t.queue.pop_front()?.item;
                self.len -= 1;
                if t.queue.is_empty() {
                    t.deficit = 0;
                    self.ring.pop_front();
                }
                return Some(item);
            }
            // Deficit too small for the head job: move to the back of
            // the ring, keeping the deficit so it accrues next visit.
            self.ring.pop_front();
            self.ring.push_back(name);
            t.fresh = true;
        }
    }

    /// Removes every queued item matching `pred`; returns how many
    /// were removed.
    pub fn remove(&mut self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let mut removed = 0;
        for t in self.tenants.values_mut() {
            let before = t.queue.len();
            t.queue.retain(|q| !pred(&q.item));
            removed += before - t.queue.len();
        }
        self.len -= removed;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_tenant_is_not_starved_by_a_saturating_one() {
        let mut s = DrrScheduler::new(10);
        for i in 0..100 {
            s.enqueue("heavy", 1, ("heavy", i), 10);
        }
        s.enqueue("light", 1, ("light", 0), 10);
        // Bounded wait: with equal weights and cost == quantum, the
        // light tenant's only job must surface within one full ring
        // cycle — i.e. among the first two dequeues, never behind the
        // heavy tenant's 100-job backlog.
        let first: Vec<_> = (0..2).filter_map(|_| s.dequeue()).collect();
        assert!(
            first.contains(&("light", 0)),
            "light job starved: {first:?}"
        );
    }

    #[test]
    fn weights_scale_service_proportionally() {
        let mut s = DrrScheduler::new(1);
        for i in 0..40 {
            s.enqueue("gold", 3, ("gold", i), 1);
            s.enqueue("econ", 1, ("econ", i), 1);
        }
        // Over the first 24 grants, gold should get ~3x econ's share.
        let served: Vec<_> = (0..24).filter_map(|_| s.dequeue()).collect();
        let gold = served.iter().filter(|(t, _)| *t == "gold").count();
        let econ = served.iter().filter(|(t, _)| *t == "econ").count();
        assert_eq!(gold + econ, 24);
        assert_eq!(gold, 18, "weight-3 tenant should earn 3/4 of grants");
        assert_eq!(econ, 6);
    }

    #[test]
    fn oversized_jobs_accrue_deficit_across_cycles() {
        let mut s = DrrScheduler::new(2);
        s.enqueue("t", 1, "big", 7);
        // cost 7 with quantum 2 needs four visits' worth of deficit.
        assert_eq!(s.dequeue(), Some("big"));
        assert_eq!(s.rounds(), 4);
    }

    #[test]
    fn fifo_within_a_tenant_and_deterministic_order() {
        let mut s = DrrScheduler::new(10);
        s.enqueue("a", 1, 1, 1);
        s.enqueue("a", 1, 2, 1);
        s.enqueue("b", 1, 3, 1);
        let order: Vec<_> = std::iter::from_fn(|| s.dequeue()).collect();
        // Tenant a drains its deficit-funded backlog first (both jobs
        // fit one quantum), then b; within a tenant, FIFO.
        assert_eq!(order, vec![1, 2, 3]);
        assert!(s.is_empty());
    }

    #[test]
    fn remove_cancels_queued_items() {
        let mut s = DrrScheduler::new(10);
        s.enqueue("a", 1, 1, 1);
        s.enqueue("a", 1, 2, 1);
        assert_eq!(s.remove(|&i| i == 1), 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.dequeue(), Some(2));
        assert_eq!(s.dequeue(), None);
    }
}
