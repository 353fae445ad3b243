//! The one message set of the campaign server, version 6
//! ([`PROTOCOL_VERSION`]): server ↔ worker on tags 0–9, server ↔
//! client after them. Every [`crate::frame`] carries one [`Message`],
//! through one [`Message::encode`] and one [`Message::decode`]; a frame
//! only a server sends earns the peer an `Error` naming it.
//!
//! ```text
//! both    Hello{version, tenant} → HelloAck{id}, or Error and a close
//! worker  RequestShard → Assign{shard, job, …} or Wait{ms, done}
//!         Heartbeat{shard} → HeartbeatAck{current}   (between samples)
//!         Submit{shard, runs, …} → SubmitAck{accepted}
//! client  SubmitJob{req, priority, job} → Accepted{req, ticket, …} or
//!         Rejected, then Chunk{start, records}* and
//!         Done{golden, merged} or Failed
//!         Cancel{ticket} → Cancelled, QueryStats → Stats   (any time)
//! ```
//!
//! A worker reads exactly one reply per message it sends, so neither
//! side ever needs concurrent reads on one connection.
//!
//! The job description ([`JobWire`]) deliberately carries the campaign
//! *spec*, not the campaign *data*: workers re-derive the golden
//! reference, snapshot ladder, and drawn samples from the seed, which
//! the platform's determinism makes bit-identical in every process —
//! the same replay-determinism motif RepTFD uses for failure
//! reproduction. The server cross-checks the golden reference
//! digest returned with every submission to detect a worker whose
//! re-derivation diverged (version skew, cosmic irony).

use std::io::{self, Read, Write};

use nestsim_core::campaign::CampaignSpec;
use nestsim_core::inject::{GoldenRef, InjectionRecord};
use nestsim_hlsim::workload::{by_name, BenchProfile};
use nestsim_models::ComponentKind;
use nestsim_telemetry::{Recorder, TelemetryConfig};

use crate::frame::{read_frame, write_frame};
use crate::shard::Shard;
use crate::wire::{
    get_golden, get_record, get_recorder, put_golden, put_record, put_recorder, Reader, WireError,
    Writer,
};

/// Protocol version spoken by this build; `Hello` with any other
/// version is refused with an `Error` reply. Version 7 adds the engine
/// telemetry to `Done`; 6 drops `Progress`
/// (tag 15) and the worker id of `RequestShard` and `Heartbeat`; 5
/// carries both conversations in one [`Message`], 4 added the service's
/// messages, 3 [`JobWire::adaptive`] and 2 the lane fields.
pub const PROTOCOL_VERSION: u16 = 7;

/// The one version check, which the server runs on `Hello`: the
/// refusal it sends as `Error` when `version` is not this build's.
pub fn check_version(version: u16) -> Result<(), String> {
    if version == PROTOCOL_VERSION {
        Ok(())
    } else {
        Err(format!(
            "protocol version mismatch: peer speaks {version}, this build speaks {PROTOCOL_VERSION}"
        ))
    }
}

/// One adaptive round, described for the wire: where each stratum's
/// deterministic sample stream resumes and how many samples it
/// contributes — the very value the round loop plans with. Workers
/// re-derive the round's injection specs from `(seed, benchmark,
/// stratum, j)` with `nestsim_core::adaptive::draw_round`, so the
/// round's `samples` count equals `alloc` summed and shard planning is
/// unchanged.
pub use nestsim_core::adaptive::StratifiedRound as AdaptiveRoundWire;

/// Everything a worker needs to reconstruct one campaign cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobWire {
    /// Benchmark name (resolved via the workload registry).
    pub benchmark: String,
    /// The cell. `workers` does not travel — each worker is its own
    /// process — and reads 1.
    pub spec: CampaignSpec,
    /// The per-run telemetry configuration, when recorders should be
    /// produced.
    pub telemetry: Option<TelemetryConfig>,
    /// When present, this job is one round of an adaptive campaign:
    /// workers draw the round's stratified samples instead of the
    /// fixed-count stream (and `spec.samples` is the round total).
    pub adaptive: Option<AdaptiveRoundWire>,
}

impl JobWire {
    /// Describes `spec` (for `profile`) as a wire job.
    pub fn from_spec(
        profile: &BenchProfile,
        spec: &CampaignSpec,
        telemetry: Option<&TelemetryConfig>,
    ) -> Self {
        JobWire {
            benchmark: profile.name.to_string(),
            spec: CampaignSpec {
                workers: 1,
                ..*spec
            },
            telemetry: telemetry.copied(),
            adaptive: None,
        }
    }

    /// Describes one round of `spec`: the fixed-count cell itself for
    /// `None`, otherwise the same cell with `samples` pinned to the
    /// round total and the round descriptor attached.
    pub fn for_round(
        profile: &BenchProfile,
        spec: &CampaignSpec,
        telemetry: Option<&TelemetryConfig>,
        strata: Option<&AdaptiveRoundWire>,
    ) -> Self {
        let job = JobWire::from_spec(profile, spec, telemetry);
        match strata {
            None => job,
            Some(round) => JobWire {
                spec: CampaignSpec {
                    samples: round.alloc.iter().sum(),
                    ..job.spec
                },
                adaptive: Some(*round),
                ..job
            },
        }
    }

    /// Resolves the benchmark against this build's workload registry.
    pub fn profile(&self) -> Result<&'static BenchProfile, WireError> {
        by_name(&self.benchmark).ok_or_else(|| format!("unknown benchmark {:?}", self.benchmark))
    }

    /// The job's determinism key: its [`put_job`] bytes with the
    /// execution-only `snapshot_interval` and `lane_width` zeroed. The
    /// byte-identity contract guarantees those two cannot change
    /// results, so two jobs with equal keys produce the same bytes —
    /// the key the service deduplicates and the repro grid caches on.
    pub fn result_key(&self) -> Result<Vec<u8>, WireError> {
        let result_fields = JobWire {
            spec: CampaignSpec {
                snapshot_interval: 0,
                lane_width: 0,
                ..self.spec
            },
            ..self.clone()
        };
        let mut w = Writer::new();
        put_job(&mut w, &result_fields)?;
        Ok(w.into_bytes())
    }
}

impl Default for JobWire {
    /// An empty L2C cell on no benchmark: a placeholder job.
    fn default() -> Self {
        JobWire {
            benchmark: String::new(),
            spec: CampaignSpec {
                workers: 1,
                ..CampaignSpec::new(ComponentKind::L2c, 0)
            },
            telemetry: None,
            adaptive: None,
        }
    }
}

/// One completed injection run inside a [`Message::Submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunWire {
    /// Sample index (position-independent — the dedupe/merge key).
    pub sample: u64,
    /// The run's record.
    pub record: InjectionRecord,
    /// The run's telemetry recorder (null when telemetry is off).
    pub recorder: Recorder,
}

/// A completed shard travelling back to the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitWire {
    /// The submitting worker.
    pub worker: u32,
    /// The completed shard.
    pub shard: u32,
    /// The worker's independently derived golden reference — the
    /// server cross-checks it against every other submission.
    pub golden: GoldenRef,
    /// Accelerated-mode cycles forward-simulated for this lease alone
    /// (a worker's walk runs on across its leases; the server sums).
    pub forward: u64,
    /// Ladder-rung restores performed for this lease alone.
    pub restores: u64,
    /// The shard's runs, in shard order.
    pub runs: Vec<RunWire>,
}

/// A protocol message (the u8 tag leading every payload): the
/// worker conversation's tags 0–9, then the client's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Worker or client → server: first message on a connection.
    Hello {
        /// The speaker's [`PROTOCOL_VERSION`].
        version: u16,
        /// The service's fair-share tenant; empty from a worker.
        tenant: String,
    },
    /// Server → worker or client: handshake accepted.
    HelloAck {
        /// The connection's id, minted from the one counter workers and
        /// clients share: never handed out twice.
        id: u32,
    },
    /// Worker → server: ready for work.
    RequestShard,
    /// Server → worker: a shard lease.
    Assign {
        /// The leased shard.
        shard: Shard,
        /// The campaign cell it belongs to (boxed: the one large field
        /// of the message set).
        job: Box<JobWire>,
        /// Lease duration; the shard is re-dispatched if no heartbeat
        /// or submission arrives within it.
        lease_ms: u64,
        /// How often the worker should heartbeat while running.
        heartbeat_ms: u64,
    },
    /// Server → worker: nothing leasable right now.
    Wait {
        /// Suggested retry delay.
        ms: u64,
        /// True when every shard is complete — the worker should exit.
        done: bool,
    },
    /// Worker → server: still alive on this shard.
    Heartbeat {
        /// The shard it is working on.
        shard: u32,
    },
    /// Server → worker: heartbeat reply.
    HeartbeatAck {
        /// False when the worker no longer holds the lease (it expired
        /// and was re-dispatched) — the worker should abandon the
        /// shard instead of submitting duplicate work.
        current: bool,
    },
    /// Worker → server: a completed shard.
    Submit(SubmitWire),
    /// Server → worker: submission reply.
    SubmitAck {
        /// False when the shard was already completed by another
        /// worker (idempotent dedupe) — the results were dropped.
        accepted: bool,
    },
    /// Any speaker: fatal protocol error; the connection closes.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Client → service: submit one campaign job.
    SubmitJob {
        /// Client-chosen request id, echoed in the admission reply.
        req: u64,
        /// Scheduling priority (DRR weight; 0 is treated as 1).
        priority: u32,
        /// The job itself.
        job: JobWire,
    },
    /// Service → client: the job (or an existing identical one) is in.
    Accepted {
        /// Echo of the submit's request id.
        req: u64,
        /// Server-assigned ticket identifying this subscription.
        ticket: u64,
        /// True when the submit deduplicated onto an existing cell.
        dedup: bool,
        /// Queue depth after admission (observability).
        queue_depth: u64,
    },
    /// Service → client: admission failure, explicit backpressure
    /// instead of unbounded queueing.
    Rejected {
        /// Echo of the submit's request id.
        req: u64,
        /// Why the job was turned away.
        reason: String,
        /// Queue depth at rejection time.
        queue_depth: u64,
    },
    /// Client → service: abandon a ticket.
    Cancel {
        /// The ticket to cancel.
        ticket: u64,
    },
    /// Service → client: the cancellation is confirmed.
    Cancelled {
        /// The cancelled ticket.
        ticket: u64,
    },
    /// Service → client: a contiguous slice of a job's records.
    Chunk {
        /// The ticket this slice belongs to.
        ticket: u64,
        /// Sample index of the first record in `records`.
        start: u64,
        /// The records themselves, in sample order.
        records: Vec<InjectionRecord>,
    },
    /// Service → client: terminal success, with the golden reference
    /// and merged telemetry (the records travelled as chunks).
    Done {
        /// The completed ticket.
        ticket: u64,
        /// Error-free reference of the campaign.
        golden: GoldenRef,
        /// Merged per-run telemetry (null when telemetry was off).
        merged: Recorder,
        /// The execution's engine telemetry (`ExecOutput::engine`).
        engine: Recorder,
    },
    /// Service → client: terminal failure, the job crashed more times
    /// than the service retries.
    Failed {
        /// The failed ticket.
        ticket: u64,
        /// Last crash reason.
        reason: String,
    },
    /// Client → service: ask for the `svc.*` telemetry snapshot.
    QueryStats,
    /// Service → client: the telemetry snapshot.
    Stats {
        /// Counters and histograms of the service itself.
        recorder: Recorder,
    },
}

const TAG_HELLO: u8 = 0;
const TAG_HELLO_ACK: u8 = 1;
const TAG_REQUEST: u8 = 2;
const TAG_ASSIGN: u8 = 3;
const TAG_WAIT: u8 = 4;
const TAG_HEARTBEAT: u8 = 5;
const TAG_HEARTBEAT_ACK: u8 = 6;
const TAG_SUBMIT: u8 = 7;
const TAG_SUBMIT_ACK: u8 = 8;
const TAG_ERROR: u8 = 9;
const TAG_SUBMIT_JOB: u8 = 10;
const TAG_ACCEPTED: u8 = 11;
const TAG_REJECTED: u8 = 12;
const TAG_CANCEL: u8 = 13;
const TAG_CANCELLED: u8 = 14;
const TAG_CHUNK: u8 = 16;
const TAG_DONE: u8 = 17;
const TAG_FAILED: u8 = 18;
const TAG_QUERY_STATS: u8 = 19;
const TAG_STATS: u8 = 20;

/// Encodes a [`JobWire`] field-by-field: inside `Assign` and
/// `SubmitJob`, and as [`JobWire::result_key`]. Telemetry travels as a
/// flag and a trace capacity, which is 0 when the flag is off.
pub fn put_job(w: &mut Writer, j: &JobWire) -> Result<(), WireError> {
    let s = &j.spec;
    w.str(&j.benchmark);
    let component = ComponentKind::ALL
        .iter()
        .position(|&c| c == s.component)
        .ok_or_else(|| {
            format!(
                "component {:?} missing from ComponentKind::ALL",
                s.component
            )
        })?;
    w.u8(component as u8);
    w.u64(s.samples);
    w.u64(s.seed);
    w.u64(s.length_scale);
    w.u64(s.cosim_cap);
    w.u64(s.check_interval);
    w.u64(s.snapshot_interval);
    w.u64(s.lane_cluster);
    w.u64(s.lane_width);
    w.bool(j.telemetry.is_some());
    w.u64(j.telemetry.map_or(0, |c| c.trace_capacity as u64));
    match &j.adaptive {
        None => w.bool(false),
        Some(a) => {
            w.bool(true);
            for v in a.start.iter().chain(a.alloc.iter()) {
                w.u64(*v);
            }
        }
    }
    Ok(())
}

/// Decodes a [`JobWire`] written by [`put_job`]; the trace capacity of
/// a telemetry-off job is read and ignored.
pub fn get_job(r: &mut Reader<'_>) -> Result<JobWire, WireError> {
    Ok(JobWire {
        benchmark: r.str()?,
        spec: CampaignSpec {
            component: *ComponentKind::ALL
                .get(r.u8()? as usize)
                .ok_or("unknown component tag")?,
            samples: r.u64()?,
            seed: r.u64()?,
            length_scale: r.u64()?,
            cosim_cap: r.u64()?,
            check_interval: r.u64()?,
            workers: 1,
            snapshot_interval: r.u64()?,
            lane_cluster: r.u64()?,
            lane_width: r.u64()?,
        },
        telemetry: {
            let on = r.bool()?;
            let trace_capacity = r.u64()? as usize;
            on.then_some(TelemetryConfig { trace_capacity })
        },
        adaptive: if r.bool()? {
            Some(AdaptiveRoundWire {
                start: [r.u64()?, r.u64()?, r.u64()?],
                alloc: [r.u64()?, r.u64()?, r.u64()?],
            })
        } else {
            None
        },
    })
}

impl Message {
    /// Serializes the message to a frame payload. The only failure is
    /// a domain value missing from its `ALL` table — a schema bug, but
    /// one that must surface as an error on the sender, not a panic
    /// inside the connection handler.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut w = Writer::new();
        match self {
            Message::Hello { version, tenant } => {
                w.u8(TAG_HELLO);
                w.u16(*version);
                w.str(tenant);
            }
            Message::HelloAck { id } => {
                w.u8(TAG_HELLO_ACK);
                w.u32(*id);
            }
            Message::RequestShard => {
                w.u8(TAG_REQUEST);
            }
            Message::Assign {
                shard,
                job,
                lease_ms,
                heartbeat_ms,
            } => {
                w.u8(TAG_ASSIGN);
                w.u32(shard.id);
                w.u64(shard.start);
                w.u64(shard.len);
                put_job(&mut w, job)?;
                w.u64(*lease_ms);
                w.u64(*heartbeat_ms);
            }
            Message::Wait { ms, done } => {
                w.u8(TAG_WAIT);
                w.u64(*ms);
                w.bool(*done);
            }
            Message::Heartbeat { shard } => {
                w.u8(TAG_HEARTBEAT);
                w.u32(*shard);
            }
            Message::HeartbeatAck { current } => {
                w.u8(TAG_HEARTBEAT_ACK);
                w.bool(*current);
            }
            Message::Submit(s) => {
                w.u8(TAG_SUBMIT);
                w.u32(s.worker);
                w.u32(s.shard);
                put_golden(&mut w, &s.golden);
                w.u64(s.forward);
                w.u64(s.restores);
                w.u32(s.runs.len() as u32);
                for run in &s.runs {
                    w.u64(run.sample);
                    put_record(&mut w, &run.record)?;
                    put_recorder(&mut w, &run.recorder)?;
                }
            }
            Message::SubmitAck { accepted } => {
                w.u8(TAG_SUBMIT_ACK);
                w.bool(*accepted);
            }
            Message::Error { message } => {
                w.u8(TAG_ERROR);
                w.str(message);
            }
            Message::SubmitJob { req, priority, job } => {
                w.u8(TAG_SUBMIT_JOB);
                w.u64(*req);
                w.u32(*priority);
                put_job(&mut w, job)?;
            }
            Message::Accepted {
                req,
                ticket,
                dedup,
                queue_depth,
            } => {
                w.u8(TAG_ACCEPTED);
                w.u64(*req);
                w.u64(*ticket);
                w.bool(*dedup);
                w.u64(*queue_depth);
            }
            Message::Rejected {
                req,
                reason,
                queue_depth,
            } => {
                w.u8(TAG_REJECTED);
                w.u64(*req);
                w.str(reason);
                w.u64(*queue_depth);
            }
            Message::Cancel { ticket } => {
                w.u8(TAG_CANCEL);
                w.u64(*ticket);
            }
            Message::Cancelled { ticket } => {
                w.u8(TAG_CANCELLED);
                w.u64(*ticket);
            }
            Message::Chunk {
                ticket,
                start,
                records,
            } => {
                w.u8(TAG_CHUNK);
                w.u64(*ticket);
                w.u64(*start);
                w.u32(records.len() as u32);
                for rec in records {
                    put_record(&mut w, rec)?;
                }
            }
            Message::Done {
                ticket,
                golden,
                merged,
                engine,
            } => {
                w.u8(TAG_DONE);
                w.u64(*ticket);
                put_golden(&mut w, golden);
                put_recorder(&mut w, merged)?;
                put_recorder(&mut w, engine)?;
            }
            Message::Failed { ticket, reason } => {
                w.u8(TAG_FAILED);
                w.u64(*ticket);
                w.str(reason);
            }
            Message::QueryStats => {
                w.u8(TAG_QUERY_STATS);
            }
            Message::Stats { recorder } => {
                w.u8(TAG_STATS);
                put_recorder(&mut w, recorder)?;
            }
        }
        Ok(w.into_bytes())
    }

    /// Deserializes a frame payload; the whole payload must be
    /// consumed.
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            TAG_HELLO => Message::Hello {
                version: r.u16()?,
                tenant: r.str()?,
            },
            TAG_HELLO_ACK => Message::HelloAck { id: r.u32()? },
            TAG_REQUEST => Message::RequestShard,
            TAG_ASSIGN => Message::Assign {
                shard: Shard {
                    id: r.u32()?,
                    start: r.u64()?,
                    len: r.u64()?,
                },
                job: Box::new(get_job(&mut r)?),
                lease_ms: r.u64()?,
                heartbeat_ms: r.u64()?,
            },
            TAG_WAIT => Message::Wait {
                ms: r.u64()?,
                done: r.bool()?,
            },
            TAG_HEARTBEAT => Message::Heartbeat { shard: r.u32()? },
            TAG_HEARTBEAT_ACK => Message::HeartbeatAck { current: r.bool()? },
            TAG_SUBMIT => {
                let worker = r.u32()?;
                let shard = r.u32()?;
                let golden = get_golden(&mut r)?;
                let forward = r.u64()?;
                let restores = r.u64()?;
                let n = r.u32()?;
                let mut runs = Vec::with_capacity(n.min(1 << 16) as usize);
                for _ in 0..n {
                    runs.push(RunWire {
                        sample: r.u64()?,
                        record: get_record(&mut r)?,
                        recorder: get_recorder(&mut r)?,
                    });
                }
                Message::Submit(SubmitWire {
                    worker,
                    shard,
                    golden,
                    forward,
                    restores,
                    runs,
                })
            }
            TAG_SUBMIT_ACK => Message::SubmitAck {
                accepted: r.bool()?,
            },
            TAG_ERROR => Message::Error { message: r.str()? },
            TAG_SUBMIT_JOB => Message::SubmitJob {
                req: r.u64()?,
                priority: r.u32()?,
                job: get_job(&mut r)?,
            },
            TAG_ACCEPTED => Message::Accepted {
                req: r.u64()?,
                ticket: r.u64()?,
                dedup: r.bool()?,
                queue_depth: r.u64()?,
            },
            TAG_REJECTED => Message::Rejected {
                req: r.u64()?,
                reason: r.str()?,
                queue_depth: r.u64()?,
            },
            TAG_CANCEL => Message::Cancel { ticket: r.u64()? },
            TAG_CANCELLED => Message::Cancelled { ticket: r.u64()? },
            TAG_CHUNK => {
                let ticket = r.u64()?;
                let start = r.u64()?;
                let n = r.u32()?;
                let mut records = Vec::with_capacity(n.min(1 << 16) as usize);
                for _ in 0..n {
                    records.push(get_record(&mut r)?);
                }
                Message::Chunk {
                    ticket,
                    start,
                    records,
                }
            }
            TAG_DONE => Message::Done {
                ticket: r.u64()?,
                golden: get_golden(&mut r)?,
                merged: get_recorder(&mut r)?,
                engine: get_recorder(&mut r)?,
            },
            TAG_FAILED => Message::Failed {
                ticket: r.u64()?,
                reason: r.str()?,
            },
            TAG_QUERY_STATS => Message::QueryStats,
            TAG_STATS => Message::Stats {
                recorder: get_recorder(&mut r)?,
            },
            t => return Err(format!("unknown message tag {t}")),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Writes `msg` as one frame: the blocking send of the worker and the
/// service client.
pub fn send(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    let payload = msg
        .encode()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    write_frame(w, &payload)
}

/// Reads one frame and decodes it: the blocking receive matching
/// [`send`].
pub fn recv(r: &mut impl Read) -> io::Result<Message> {
    let payload = read_frame(r)?;
    Message::decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_core::Outcome;

    fn sample_record(k: u64) -> InjectionRecord {
        InjectionRecord {
            outcome: Outcome::ALL[(k % 6) as usize],
            bit: (k * 7) as usize,
            inject_cycle: 1_000 + k,
            cosim_cycles: 40 + k,
            erroneous_output_cycle: k.is_multiple_of(2).then_some(2_000 + k),
            propagation_latency: k.is_multiple_of(3).then_some(17 + k),
            corrupted_line_count: (k % 5) as usize,
            rollback_distance: k.is_multiple_of(4).then_some(256 + k),
        }
    }

    /// One or more instances of every message variant.
    fn variants() -> Vec<Message> {
        let job = JobWire {
            benchmark: "radi".to_string(),
            spec: CampaignSpec {
                component: ComponentKind::Pcie,
                samples: 120,
                seed: 2015,
                length_scale: 100,
                cosim_cap: 20_000,
                check_interval: 16,
                workers: 1,
                snapshot_interval: 2_000,
                lane_cluster: 8,
                lane_width: 64,
            },
            telemetry: Some(TelemetryConfig {
                trace_capacity: 4096,
            }),
            adaptive: None,
        };
        let adaptive_job = JobWire {
            spec: CampaignSpec {
                samples: 11,
                ..job.spec
            },
            adaptive: Some(AdaptiveRoundWire {
                start: [128, 40, 7],
                alloc: [5, 4, 2],
            }),
            ..job.clone()
        };
        let mut stats = Recorder::active(&TelemetryConfig { trace_capacity: 4 });
        stats.count(nestsim_telemetry::names::SVC_JOBS_SUBMITTED, 2);
        vec![
            Message::Hello {
                version: PROTOCOL_VERSION,
                tenant: String::new(),
            },
            Message::Hello {
                version: PROTOCOL_VERSION,
                tenant: "alice".to_string(),
            },
            Message::HelloAck { id: 3 },
            Message::RequestShard,
            Message::Assign {
                shard: Shard {
                    id: 2,
                    start: 20,
                    len: 10,
                },
                job: Box::new(job.clone()),
                lease_ms: 30_000,
                heartbeat_ms: 2_000,
            },
            Message::Assign {
                shard: Shard {
                    id: 9,
                    start: 0,
                    len: 11,
                },
                job: Box::new(adaptive_job),
                lease_ms: 30_000,
                heartbeat_ms: 2_000,
            },
            Message::Wait {
                ms: 50,
                done: false,
            },
            Message::Wait { ms: 0, done: true },
            Message::Heartbeat { shard: 2 },
            Message::HeartbeatAck { current: false },
            Message::Submit(SubmitWire {
                worker: 3,
                shard: 2,
                golden: GoldenRef {
                    digest: 0xfeed,
                    cycles: 5_000,
                },
                forward: 123,
                restores: 4,
                runs: (0..7)
                    .map(|k| RunWire {
                        sample: 20 + k,
                        record: sample_record(k),
                        recorder: Recorder::null(),
                    })
                    .collect(),
            }),
            Message::SubmitAck { accepted: true },
            Message::Error {
                message: "bad version".to_string(),
            },
            Message::SubmitJob {
                req: 1,
                priority: 7,
                job: job.clone(),
            },
            Message::Accepted {
                req: 1,
                ticket: 42,
                dedup: true,
                queue_depth: 3,
            },
            Message::Rejected {
                req: 2,
                reason: "queue full".to_string(),
                queue_depth: 64,
            },
            Message::Cancel { ticket: 42 },
            Message::Cancelled { ticket: 42 },
            Message::Chunk {
                ticket: 42,
                start: 256,
                records: (0..3).map(sample_record).collect(),
            },
            Message::Done {
                ticket: 42,
                golden: GoldenRef {
                    digest: 0xfeed,
                    cycles: 1_000,
                },
                merged: Recorder::null(),
                engine: Recorder::null(),
            },
            Message::Failed {
                ticket: 42,
                reason: "crashed 3 times".to_string(),
            },
            Message::QueryStats,
            Message::Stats { recorder: stats },
        ]
    }

    #[test]
    fn every_message_variant_round_trips() {
        for msg in variants() {
            let bytes = msg.encode().unwrap();
            assert_eq!(Message::decode(&bytes).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn every_variant_round_trips() {
        // Through the blocking pair: every variant framed back to back on
        // one stream comes out whole and in order.
        let msgs = variants();
        let mut stream = Vec::new();
        for msg in &msgs {
            send(&mut stream, msg).unwrap();
        }
        let mut r = &stream[..];
        for msg in &msgs {
            assert_eq!(&recv(&mut r).unwrap(), msg);
        }
        assert!(r.is_empty(), "no bytes left over");
        assert!(recv(&mut r).is_err(), "end of stream is an error");
    }

    #[test]
    fn job_spec_round_trips_the_campaign_parameters() {
        let profile = by_name("fft").unwrap();
        let spec = CampaignSpec {
            workers: 8,
            ..CampaignSpec::quick(ComponentKind::Mcu, 40)
        };
        let cfg = TelemetryConfig { trace_capacity: 64 };
        let job = JobWire::from_spec(profile, &spec, Some(&cfg));
        assert_eq!(job.profile().unwrap().name, "fft");
        let mut w = Writer::new();
        put_job(&mut w, &job).unwrap();
        let back = get_job(&mut Reader::new(&w.into_bytes())).unwrap();
        assert_eq!(back.spec.workers, 1, "wire jobs pin workers to 1");
        assert_eq!(
            CampaignSpec { workers: 1, ..spec },
            back.spec,
            "all other fields survive"
        );
        assert_eq!(back.telemetry, Some(cfg));
        assert_eq!(JobWire::from_spec(profile, &spec, None).telemetry, None);
    }

    /// A telemetry-off job's trace capacity is not part of the job:
    /// whatever a peer writes there decodes to the same job and the
    /// same result key, so the two submissions share one execution.
    #[test]
    fn telemetry_off_capacity_is_not_a_result_field() {
        let spec = CampaignSpec::quick(ComponentKind::L2c, 8);
        let job = JobWire::from_spec(by_name("radi").unwrap(), &spec, None);
        let mut w = Writer::new();
        put_job(&mut w, &job).unwrap();
        let mut bytes = w.into_bytes();
        // The capacity is the u64 between the telemetry flag and the
        // adaptive flag, the last nine bytes of a fixed-count job.
        let cap = bytes.len() - 9;
        assert_eq!(bytes[cap - 1], 0, "telemetry flag is off");
        bytes[cap..cap + 8].copy_from_slice(&4096u64.to_le_bytes());
        let patched = get_job(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(patched, job);
        assert_eq!(patched.result_key().unwrap(), job.result_key().unwrap());
    }

    /// The `put_job` bytes of one adaptive-round MCU job with telemetry
    /// on: the encoding inside `Assign` and `SubmitJob`, and the
    /// service's determinism key, fixed field for field.
    #[test]
    fn job_encoding_is_pinned() {
        let spec = CampaignSpec {
            component: ComponentKind::Mcu,
            samples: 40,
            seed: 2015,
            length_scale: 100,
            cosim_cap: 20_000,
            check_interval: 16,
            workers: 8,
            snapshot_interval: 2_000,
            lane_cluster: 4,
            lane_width: 32,
        };
        let round = AdaptiveRoundWire {
            start: [128, 40, 7],
            alloc: [5, 4, 2],
        };
        let job = JobWire {
            adaptive: Some(round),
            ..JobWire::from_spec(
                by_name("fft").unwrap(),
                &spec,
                Some(&TelemetryConfig { trace_capacity: 64 }),
            )
        };
        let mut w = Writer::new();
        put_job(&mut w, &job).unwrap();
        let bytes = w.into_bytes();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, JOB_HEX);
        assert_eq!(get_job(&mut Reader::new(&bytes)).unwrap(), job);
    }

    /// `fft` MCU, 40 samples, seed 2015, scale 100, cap 20000, check 16,
    /// snapshot 2000, cluster 4, width 32, telemetry 64, round
    /// start [128, 40, 7] alloc [5, 4, 2] — little-endian, field order.
    const JOB_HEX: &str = concat!(
        "03000000666674",
        "01",
        "2800000000000000",
        "df07000000000000",
        "6400000000000000",
        "204e000000000000",
        "1000000000000000",
        "d007000000000000",
        "0400000000000000",
        "2000000000000000",
        "01",
        "4000000000000000",
        "01",
        "8000000000000000",
        "2800000000000000",
        "0700000000000000",
        "0500000000000000",
        "0400000000000000",
        "0200000000000000",
    );

    #[test]
    fn unknown_tag_and_trailing_bytes_are_errors() {
        let err = Message::decode(&[200]).unwrap_err();
        assert!(err.contains("unknown message tag 200"), "{err}");
        for msg in [Message::HelloAck { id: 1 }, Message::QueryStats] {
            let mut bytes = msg.encode().unwrap();
            bytes.push(0);
            assert!(Message::decode(&bytes).is_err(), "trailing bytes: {msg:?}");
        }
    }

    /// Version 6 retired `Progress`: a version-5 peer's tag-15 frame is
    /// an unknown tag, and its `Hello` is refused.
    #[test]
    fn version_5_hellos_and_progress_frames_are_refused() {
        let mut w = Writer::new();
        w.u8(15);
        w.u64(42);
        w.bool(true);
        w.u64(0);
        w.u64(128);
        let err = Message::decode(&w.into_bytes()).unwrap_err();
        assert!(err.contains("unknown message tag 15"), "{err}");
        let err = check_version(5).unwrap_err();
        assert!(err.contains("peer speaks 5"), "{err}");
    }

    #[test]
    fn empty_payload_is_an_error_not_a_panic() {
        assert!(Message::decode(&[]).is_err());
    }
}
