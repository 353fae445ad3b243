//! Shard leases with deadlines, heartbeats, and re-dispatch backoff.
//!
//! The table is pure state-machine logic over a caller-supplied
//! millisecond clock — no threads, no sockets, no wall time — so every
//! transition is unit-testable deterministically. The server machine
//! feeds it the loop's millisecond ticks.
//!
//! Per-shard life cycle:
//!
//! ```text
//!            acquire                    complete
//! Available ─────────▶ Leased{deadline} ─────────▶ Done
//!     ▲                    │
//!     │   deadline passed  │ heartbeat: deadline ← now + lease_ms
//!     └────────────────────┘
//!       (or holder's connection dropped)
//!       not_before ← now + backoff · 2^min(attempt, 4)
//! ```
//!
//! Expiry is **lazy**: deadlines are checked whenever any worker asks
//! for work, so a dead worker's shard is re-dispatched the next time a
//! live worker goes idle — no timer thread. Completion is accepted
//! from any worker regardless of lease state (determinism makes every
//! execution of a shard byte-identical, so the first result wins and
//! later duplicates are dropped by shard id).

/// Timing policy for leases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// Lease duration: time a worker gets between heartbeats before
    /// its shard is considered abandoned.
    pub lease_ms: u64,
    /// Heartbeat cadence advertised to workers (must be well under
    /// `lease_ms` so a slow sample doesn't expire a healthy lease).
    pub heartbeat_ms: u64,
    /// Base re-dispatch backoff; doubles per failed attempt (capped at
    /// 16×) so a poisoned shard doesn't hot-loop through workers.
    pub backoff_ms: u64,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            lease_ms: 30_000,
            heartbeat_ms: 2_000,
            backoff_ms: 50,
        }
    }
}

impl LeaseConfig {
    /// Backoff before re-dispatch attempt `attempt` (1-based count of
    /// prior failures): `backoff_ms · 2^min(attempt-1, 4)`.
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        self.backoff_ms << (attempt.saturating_sub(1)).min(4)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Leasable once `not_before` passes.
    Available { not_before: u64 },
    /// Held by `worker` until `deadline` (heartbeats extend it).
    Leased { worker: u32, deadline: u64 },
    /// Completed; further submissions are duplicates.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    state: SlotState,
    /// Failed dispatch attempts so far (drives the backoff).
    failures: u32,
    /// Whether this shard was ever granted (a later grant is a
    /// re-dispatch).
    ever_granted: bool,
    /// Tick of the most recent grant, for the latency histogram.
    granted_at: u64,
}

/// What [`LeaseTable::acquire`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// Lease granted on shard `id`.
    Shard {
        /// The granted shard id.
        id: u32,
        /// True when another worker held this shard before.
        redispatch: bool,
    },
    /// Nothing leasable; retry in `ms`.
    Wait {
        /// Suggested retry delay.
        ms: u64,
    },
    /// Every shard is done.
    Done,
}

/// Outcome of an acquire call: the grant plus how many stale leases
/// the lazy expiry pass reclaimed on the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquired {
    /// Leases whose deadline had passed (now available again).
    pub expired: u64,
    /// The decision for the requesting worker.
    pub grant: Grant,
}

/// Outcome of a completion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// First completion of this shard; results were accepted.
    Accepted {
        /// Ticks from the most recent grant to this completion.
        latency_ms: u64,
    },
    /// The shard was already done; results must be dropped.
    Duplicate,
}

/// The lease state over all shards of one round.
#[derive(Debug, Clone)]
pub struct LeaseTable {
    slots: Vec<Slot>,
    cfg: LeaseConfig,
    done: usize,
}

impl LeaseTable {
    /// A table with `shards` slots, all immediately available.
    pub fn new(shards: usize, cfg: LeaseConfig) -> Self {
        LeaseTable {
            slots: vec![
                Slot {
                    state: SlotState::Available { not_before: 0 },
                    failures: 0,
                    ever_granted: false,
                    granted_at: 0,
                };
                shards
            ],
            cfg,
            done: 0,
        }
    }

    /// The timing policy.
    pub fn config(&self) -> &LeaseConfig {
        &self.cfg
    }

    /// True once every shard completed.
    pub fn all_done(&self) -> bool {
        self.done == self.slots.len()
    }

    /// Number of completed shards.
    pub fn completed(&self) -> usize {
        self.done
    }

    /// Expires stale leases, then grants the lowest-id available shard
    /// to `worker` (or says how long to wait).
    pub fn acquire(&mut self, worker: u32, now: u64) -> Acquired {
        let expired = self.expire_stale(now);
        if self.all_done() {
            return Acquired {
                expired,
                grant: Grant::Done,
            };
        }
        let mut next_ready: Option<u64> = None;
        for (id, slot) in self.slots.iter_mut().enumerate() {
            match slot.state {
                SlotState::Available { not_before } if not_before <= now => {
                    let redispatch = slot.ever_granted;
                    slot.state = SlotState::Leased {
                        worker,
                        deadline: now + self.cfg.lease_ms,
                    };
                    slot.ever_granted = true;
                    slot.granted_at = now;
                    return Acquired {
                        expired,
                        grant: Grant::Shard {
                            id: id as u32,
                            redispatch,
                        },
                    };
                }
                SlotState::Available { not_before } => {
                    let wait = not_before - now;
                    next_ready = Some(next_ready.map_or(wait, |w| w.min(wait)));
                }
                SlotState::Leased { deadline, .. } => {
                    let wait = deadline.saturating_sub(now).max(1);
                    next_ready = Some(next_ready.map_or(wait, |w| w.min(wait)));
                }
                SlotState::Done => {}
            }
        }
        // Everything pending is leased or backing off: poll again when
        // the nearest deadline/backoff lapses (bounded by the heartbeat
        // cadence so a lost wakeup can't stall the campaign).
        let ms = next_ready
            .unwrap_or(self.cfg.heartbeat_ms)
            .clamp(1, self.cfg.heartbeat_ms.max(1));
        Acquired {
            expired,
            grant: Grant::Wait { ms },
        }
    }

    /// Extends `worker`'s lease on `shard`; false when the worker no
    /// longer holds it (expired and possibly re-dispatched) — the
    /// worker should abandon the shard.
    pub fn heartbeat(&mut self, worker: u32, shard: u32, now: u64) -> bool {
        match self.slots.get_mut(shard as usize) {
            Some(slot) => match slot.state {
                SlotState::Leased { worker: holder, .. } if holder == worker => {
                    slot.state = SlotState::Leased {
                        worker,
                        deadline: now + self.cfg.lease_ms,
                    };
                    true
                }
                _ => false,
            },
            None => false,
        }
    }

    /// Records a completed shard. The first completion wins whatever
    /// the lease state — determinism makes every execution of a shard
    /// identical, so results from an expired lease are still exact.
    pub fn complete(&mut self, shard: u32, now: u64) -> Completion {
        let Some(slot) = self.slots.get_mut(shard as usize) else {
            return Completion::Duplicate;
        };
        if slot.state == SlotState::Done {
            return Completion::Duplicate;
        }
        slot.state = SlotState::Done;
        self.done += 1;
        Completion::Accepted {
            latency_ms: now.saturating_sub(slot.granted_at),
        }
    }

    /// Releases every lease held by `worker` (its connection dropped);
    /// the shards re-enter the pool after backoff. Returns how many
    /// leases were released.
    pub fn release_worker(&mut self, worker: u32, now: u64) -> u64 {
        let cfg = self.cfg;
        let mut released = 0;
        for slot in &mut self.slots {
            if let SlotState::Leased { worker: holder, .. } = slot.state {
                if holder == worker {
                    slot.failures += 1;
                    slot.state = SlotState::Available {
                        not_before: now + cfg.backoff_for(slot.failures),
                    };
                    released += 1;
                }
            }
        }
        released
    }

    fn expire_stale(&mut self, now: u64) -> u64 {
        let cfg = self.cfg;
        let mut expired = 0;
        for slot in &mut self.slots {
            if let SlotState::Leased { deadline, .. } = slot.state {
                if deadline <= now {
                    slot.failures += 1;
                    slot.state = SlotState::Available {
                        not_before: now + cfg.backoff_for(slot.failures),
                    };
                    expired += 1;
                }
            }
        }
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LeaseConfig {
        LeaseConfig {
            lease_ms: 100,
            heartbeat_ms: 10,
            backoff_ms: 8,
        }
    }

    #[test]
    fn grants_shards_in_id_order_then_waits() {
        let mut t = LeaseTable::new(2, cfg());
        assert_eq!(
            t.acquire(1, 0).grant,
            Grant::Shard {
                id: 0,
                redispatch: false
            }
        );
        assert_eq!(
            t.acquire(2, 0).grant,
            Grant::Shard {
                id: 1,
                redispatch: false
            }
        );
        assert!(matches!(t.acquire(3, 0).grant, Grant::Wait { .. }));
    }

    #[test]
    fn expired_lease_is_redispatched_after_backoff() {
        let mut t = LeaseTable::new(1, cfg());
        assert!(matches!(t.acquire(1, 0).grant, Grant::Shard { .. }));
        // Before the deadline: still leased.
        let a = t.acquire(2, 99);
        assert_eq!(a.expired, 0);
        assert!(matches!(a.grant, Grant::Wait { .. }));
        // At the deadline: expired, but backing off (8ms, attempt 1).
        let a = t.acquire(2, 100);
        assert_eq!(a.expired, 1);
        assert_eq!(a.grant, Grant::Wait { ms: 8 });
        // After backoff: re-dispatched.
        let a = t.acquire(2, 108);
        assert_eq!(
            a.grant,
            Grant::Shard {
                id: 0,
                redispatch: true
            }
        );
    }

    #[test]
    fn backoff_doubles_per_failure_and_caps() {
        let c = cfg();
        assert_eq!(c.backoff_for(1), 8);
        assert_eq!(c.backoff_for(2), 16);
        assert_eq!(c.backoff_for(5), 128);
        assert_eq!(c.backoff_for(50), 128, "shift capped at 16x");
    }

    #[test]
    fn heartbeat_extends_only_the_holder() {
        let mut t = LeaseTable::new(1, cfg());
        assert!(matches!(t.acquire(1, 0).grant, Grant::Shard { .. }));
        assert!(t.heartbeat(1, 0, 90), "holder extends");
        // Extended to 190; still held at 150.
        assert_eq!(t.acquire(2, 150).expired, 0);
        assert!(!t.heartbeat(2, 0, 150), "non-holder is refused");
        assert!(!t.heartbeat(1, 7, 150), "unknown shard is refused");
    }

    #[test]
    fn heartbeat_after_expiry_tells_the_worker_to_abandon() {
        let mut t = LeaseTable::new(1, cfg());
        assert!(matches!(t.acquire(1, 0).grant, Grant::Shard { .. }));
        let a = t.acquire(2, 200); // expires worker 1's lease
        assert_eq!(a.expired, 1);
        assert!(!t.heartbeat(1, 0, 201), "stale holder must abandon");
    }

    #[test]
    fn first_completion_wins_duplicates_are_dropped() {
        let mut t = LeaseTable::new(1, cfg());
        assert!(matches!(t.acquire(1, 10).grant, Grant::Shard { .. }));
        assert_eq!(t.complete(0, 60), Completion::Accepted { latency_ms: 50 });
        assert!(t.all_done());
        assert_eq!(t.complete(0, 70), Completion::Duplicate);
        assert_eq!(t.acquire(2, 80).grant, Grant::Done);
    }

    #[test]
    fn completion_from_an_expired_lease_still_counts() {
        let mut t = LeaseTable::new(1, cfg());
        assert!(matches!(t.acquire(1, 0).grant, Grant::Shard { .. }));
        let _ = t.acquire(2, 200); // expire it
        assert!(matches!(t.complete(0, 201), Completion::Accepted { .. }));
        assert!(t.all_done());
    }

    #[test]
    fn disconnect_releases_every_lease_of_that_worker() {
        let mut t = LeaseTable::new(3, cfg());
        assert!(matches!(t.acquire(1, 0).grant, Grant::Shard { .. }));
        assert!(matches!(t.acquire(1, 0).grant, Grant::Shard { .. }));
        assert!(matches!(t.acquire(2, 0).grant, Grant::Shard { .. }));
        assert_eq!(t.release_worker(1, 10), 2);
        // Worker 2's lease survives; the released two come back after
        // backoff.
        let a = t.acquire(3, 18);
        assert_eq!(
            a.grant,
            Grant::Shard {
                id: 0,
                redispatch: true
            }
        );
    }
}
