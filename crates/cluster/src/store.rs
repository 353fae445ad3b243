//! Content-addressed result store: the service-side generalization of
//! the repro grid's cell cache.
//!
//! Jobs are keyed by their **determinism key**,
//! [`JobWire::result_key`]: the job's wire encoding with the
//! execution-only knobs `snapshot_interval` and `lane_width` pinned to
//! zero — the same key the repro grid's cell cache uses. Two
//! submissions with equal keys deduplicate to one execution; every
//! subscriber receives the single output.
//!
//! The store is pure data (BTree maps, no clock, no hashing
//! randomness).

use crate::proto::JobWire;
use nestsim_core::inject::{GoldenRef, InjectionRecord};
use nestsim_telemetry::Recorder;
use std::collections::BTreeMap;

/// A job's determinism key ([`JobWire::result_key`]): canonical bytes
/// of its result-affecting fields.
pub type JobKey = Vec<u8>;

/// Everything an execution produces; what subscribers receive.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutput {
    /// Error-free reference of the campaign.
    pub golden: GoldenRef,
    /// Injection records in sample order.
    pub records: Vec<InjectionRecord>,
    /// Merged per-run telemetry (null when telemetry was off).
    pub merged: Recorder,
    /// The execution's engine telemetry: how it ran, never what it
    /// computed (null when telemetry was off, and for a cell that
    /// workers ran, whose submissions carry only the server's
    /// counters).
    pub engine: Recorder,
}

/// One subscriber of a cell: a (connection, ticket) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subscriber {
    /// Connection id of the subscribing client.
    pub conn: u64,
    /// Ticket identifying the subscription.
    pub ticket: u64,
}

#[derive(Debug)]
enum CellState {
    /// Waiting in the scheduler.
    Queued,
    /// Handed to an execution slot.
    Running,
    /// Executed; output cached for future submits.
    Ready(ExecOutput),
}

#[derive(Debug)]
struct Cell {
    job: JobWire,
    state: CellState,
    subs: Vec<Subscriber>,
    /// Fair-share identity of the first submitter — used to re-enqueue
    /// after a crash.
    tenant: String,
    weight: u32,
    crashes: u64,
}

/// What a [`ResultStore::subscribe`] call found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscribeOutcome {
    /// First submission of this key: the cell was created and must be
    /// enqueued with the scheduler.
    New,
    /// Joined an existing queued or running cell (a dedup hit).
    Joined,
    /// The key already completed (a dedup hit); the caller streams the
    /// cached output immediately and no subscription is registered.
    Cached,
}

/// What became of a cell after a crash.
#[derive(Debug)]
pub enum CrashOutcome {
    /// Retry: re-enqueue the key under the original tenant.
    Requeue {
        /// Fair-share tenant to charge.
        tenant: String,
        /// DRR weight to requeue with.
        weight: u32,
        /// Service cost (the job's sample count).
        cost: u64,
    },
    /// Retries exhausted: the cell was dropped; notify these
    /// subscribers of the failure.
    Fail {
        /// Subscribers awaiting the now-failed job.
        subs: Vec<Subscriber>,
    },
}

/// What became of a subscription after [`ResultStore::unsubscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsubscribeOutcome {
    /// The cell keeps other subscribers (or keeps running for the
    /// cache) — nothing else to do.
    Kept,
    /// The last subscriber of a *queued* cell left: the cell was
    /// removed and the key must be pulled from the scheduler.
    RemovedQueued,
    /// No such subscription existed.
    NotSubscribed,
}

/// The content-addressed store of campaign cells.
#[derive(Debug, Default)]
pub struct ResultStore {
    cells: BTreeMap<JobKey, Cell>,
}

impl ResultStore {
    /// An empty store.
    pub fn new() -> Self {
        ResultStore::default()
    }

    /// Number of cells (queued, running, and cached).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the store holds no cells at all.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cached output for `key`, when it already completed.
    pub fn ready(&self, key: &JobKey) -> Option<&ExecOutput> {
        match self.cells.get(key) {
            Some(Cell {
                state: CellState::Ready(out),
                ..
            }) => Some(out),
            _ => None,
        }
    }

    /// Registers `sub` for `key`, creating the cell on first sight.
    pub fn subscribe(
        &mut self,
        key: &JobKey,
        job: &JobWire,
        tenant: &str,
        weight: u32,
        sub: Subscriber,
    ) -> SubscribeOutcome {
        match self.cells.get_mut(key) {
            None => {
                self.cells.insert(
                    key.clone(),
                    Cell {
                        job: job.clone(),
                        state: CellState::Queued,
                        subs: vec![sub],
                        tenant: tenant.to_string(),
                        weight,
                        crashes: 0,
                    },
                );
                SubscribeOutcome::New
            }
            Some(cell) => match cell.state {
                CellState::Ready(_) => SubscribeOutcome::Cached,
                CellState::Queued | CellState::Running => {
                    cell.subs.push(sub);
                    SubscribeOutcome::Joined
                }
            },
        }
    }

    /// Current subscribers of `key` (empty when unknown).
    pub fn subscribers(&self, key: &JobKey) -> &[Subscriber] {
        self.cells.get(key).map_or(&[], |c| &c.subs)
    }

    /// Whether `key` is currently executing.
    pub fn is_running(&self, key: &JobKey) -> bool {
        matches!(
            self.cells.get(key),
            Some(Cell {
                state: CellState::Running,
                ..
            })
        )
    }

    /// Marks a queued cell as executing; returns the job to hand to
    /// the execution slot (`None` if the key is not queued — e.g. it
    /// was cancelled between scheduling decisions).
    pub fn start(&mut self, key: &JobKey) -> Option<JobWire> {
        let cell = self.cells.get_mut(key)?;
        match cell.state {
            CellState::Queued => {
                cell.state = CellState::Running;
                Some(cell.job.clone())
            }
            _ => None,
        }
    }

    /// Completes a running cell: caches `output` and drains the
    /// subscribers to fan the result out to.
    pub fn complete(&mut self, key: &JobKey, output: ExecOutput) -> Vec<Subscriber> {
        match self.cells.get_mut(key) {
            Some(cell) => {
                cell.state = CellState::Ready(output);
                std::mem::take(&mut cell.subs)
            }
            None => Vec::new(),
        }
    }

    /// Records a crash of `key`'s execution. Up to `max_retries`
    /// crashes re-enqueue the job; beyond that the cell is dropped and
    /// its subscribers are returned for failure notification.
    pub fn crash(&mut self, key: &JobKey, max_retries: u64) -> Option<CrashOutcome> {
        let cell = self.cells.get_mut(key)?;
        cell.crashes += 1;
        if cell.crashes <= max_retries {
            cell.state = CellState::Queued;
            Some(CrashOutcome::Requeue {
                tenant: cell.tenant.clone(),
                weight: cell.weight,
                cost: cell.job.spec.samples.max(1),
            })
        } else {
            let cell = self.cells.remove(key)?;
            Some(CrashOutcome::Fail { subs: cell.subs })
        }
    }

    /// Removes one subscription from `key`'s cell.
    ///
    /// A running cell always survives (its output will be cached even
    /// with nobody waiting); a queued cell is dropped once its last
    /// subscriber leaves, and the caller must then remove the key from
    /// the scheduler too.
    pub fn unsubscribe(&mut self, key: &JobKey, ticket: u64) -> UnsubscribeOutcome {
        let Some(cell) = self.cells.get_mut(key) else {
            return UnsubscribeOutcome::NotSubscribed;
        };
        let before = cell.subs.len();
        cell.subs.retain(|s| s.ticket != ticket);
        if cell.subs.len() == before {
            return UnsubscribeOutcome::NotSubscribed;
        }
        if cell.subs.is_empty() && matches!(cell.state, CellState::Queued) {
            self.cells.remove(key);
            return UnsubscribeOutcome::RemovedQueued;
        }
        UnsubscribeOutcome::Kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::AdaptiveRoundWire;
    use nestsim_core::CampaignSpec;
    use nestsim_models::ComponentKind;
    use nestsim_telemetry::TelemetryConfig;

    fn job(samples: u64) -> JobWire {
        JobWire {
            benchmark: "radi".into(),
            spec: CampaignSpec {
                samples,
                ..JobWire::default().spec
            },
            ..JobWire::default()
        }
    }

    fn key(job: &JobWire) -> JobKey {
        job.result_key().unwrap()
    }

    #[test]
    fn key_ignores_execution_only_fields() {
        let a = job(8);
        let mut b = job(8);
        b.spec.snapshot_interval = a.spec.snapshot_interval.wrapping_add(1_000);
        b.spec.lane_width = a.spec.lane_width.wrapping_add(3);
        assert_eq!(key(&a), key(&b));
        let mut c = job(8);
        c.spec.seed = 999;
        assert_ne!(key(&a), key(&c));
        let mut d = job(8);
        d.adaptive = Some(AdaptiveRoundWire {
            start: [0, 0, 0],
            alloc: [1, 2, 3],
        });
        assert_ne!(key(&a), key(&d));
    }

    #[test]
    fn key_changes_with_every_result_field() {
        let base = job(8);
        let edits: [fn(&mut JobWire); 11] = [
            |j| j.benchmark.push('x'),
            |j| j.spec.component = ComponentKind::Mcu,
            |j| j.spec.samples += 1,
            |j| j.spec.seed += 1,
            |j| j.spec.length_scale += 1,
            |j| j.spec.cosim_cap += 1,
            |j| j.spec.check_interval += 1,
            |j| j.spec.lane_cluster += 1,
            |j| j.telemetry = Some(TelemetryConfig::default()),
            // A trace capacity exists only with telemetry on.
            |j| j.telemetry = Some(TelemetryConfig { trace_capacity: 1 }),
            |j| {
                j.adaptive = Some(AdaptiveRoundWire {
                    start: [0; 3],
                    alloc: [0; 3],
                })
            },
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut j = base.clone();
            edit(&mut j);
            assert_ne!(key(&base), key(&j), "edit {i}");
        }
    }

    #[test]
    fn lifecycle_new_join_complete_cached() {
        let mut st = ResultStore::new();
        let j = job(4);
        let key = key(&j);
        let s1 = Subscriber {
            conn: 1,
            ticket: 10,
        };
        let s2 = Subscriber {
            conn: 2,
            ticket: 20,
        };
        assert_eq!(st.subscribe(&key, &j, "a", 1, s1), SubscribeOutcome::New);
        assert_eq!(st.subscribe(&key, &j, "b", 1, s2), SubscribeOutcome::Joined);
        assert!(st.start(&key).is_some());
        assert!(st.start(&key).is_none(), "double start must not happen");
        let out = ExecOutput {
            golden: GoldenRef {
                digest: 1,
                cycles: 2,
            },
            records: Vec::new(),
            merged: Recorder::null(),
            engine: Recorder::null(),
        };
        let subs = st.complete(&key, out);
        assert_eq!(subs, vec![s1, s2]);
        assert!(st.ready(&key).is_some());
        assert_eq!(
            st.subscribe(
                &key,
                &j,
                "c",
                1,
                Subscriber {
                    conn: 3,
                    ticket: 30
                }
            ),
            SubscribeOutcome::Cached
        );
    }

    /// A finished cell streams to its subscribers in the order they
    /// subscribed, so the machine's sends, and every schedule `mck`
    /// replays, do not depend on a hasher. With sixteen subscribers a
    /// hash order all but never passes; with two it passes half the time.
    #[test]
    fn completion_fans_out_in_subscription_order() {
        let mut st = ResultStore::new();
        let j = job(4);
        let key = key(&j);
        let subs: Vec<Subscriber> = (0..16)
            .map(|i| Subscriber {
                conn: 100 - i,
                ticket: 7 * i + 3,
            })
            .collect();
        for &sub in &subs {
            st.subscribe(&key, &j, "a", 1, sub);
        }
        st.start(&key);
        let out = ExecOutput {
            golden: GoldenRef {
                digest: 1,
                cycles: 2,
            },
            records: Vec::new(),
            merged: Recorder::null(),
            engine: Recorder::null(),
        };
        assert_eq!(st.complete(&key, out), subs);
    }

    #[test]
    fn crash_requeues_then_fails() {
        let mut st = ResultStore::new();
        let j = job(4);
        let key = key(&j);
        st.subscribe(
            &key,
            &j,
            "a",
            2,
            Subscriber {
                conn: 1,
                ticket: 10,
            },
        );
        st.start(&key);
        match st.crash(&key, 1) {
            Some(CrashOutcome::Requeue {
                tenant,
                weight,
                cost,
            }) => {
                assert_eq!(tenant, "a");
                assert_eq!(weight, 2);
                assert_eq!(cost, 4);
            }
            other => panic!("expected requeue, got {other:?}"),
        }
        st.start(&key);
        match st.crash(&key, 1) {
            Some(CrashOutcome::Fail { subs }) => assert_eq!(subs.len(), 1),
            other => panic!("expected fail, got {other:?}"),
        }
        assert!(st.is_empty());
    }

    #[test]
    fn last_queued_unsubscribe_drops_the_cell() {
        let mut st = ResultStore::new();
        let j = job(4);
        let key = key(&j);
        st.subscribe(
            &key,
            &j,
            "a",
            1,
            Subscriber {
                conn: 1,
                ticket: 10,
            },
        );
        st.subscribe(
            &key,
            &j,
            "a",
            1,
            Subscriber {
                conn: 1,
                ticket: 11,
            },
        );
        assert_eq!(st.unsubscribe(&key, 10), UnsubscribeOutcome::Kept);
        assert_eq!(st.unsubscribe(&key, 11), UnsubscribeOutcome::RemovedQueued);
        assert_eq!(st.unsubscribe(&key, 11), UnsubscribeOutcome::NotSubscribed);
        assert!(st.is_empty());
        // A running cell survives its last unsubscribe (cache-to-be).
        st.subscribe(
            &key,
            &j,
            "a",
            1,
            Subscriber {
                conn: 1,
                ticket: 12,
            },
        );
        st.start(&key);
        assert_eq!(st.unsubscribe(&key, 12), UnsubscribeOutcome::Kept);
        assert_eq!(st.len(), 1);
    }
}
