//! Blocking client of the campaign server — what
//! [`crate::coordinator::RemoteExecutor`] submits its rounds through,
//! and what tenants and the smoke tests use.
//!
//! The client pipelines submissions: send every `SubmitJob` up front,
//! then demultiplex the server's interleaved `Accepted` / `Chunk` /
//! `Done` stream by request id and ticket. The result of a
//! completed job is reassembled into a [`CampaignResult`] that
//! compares byte-identical to in-process execution (records, counts,
//! golden reference, and merged telemetry; engine counters and
//! worker-sample splits are execution telemetry and are left null).

use crate::proto::{self, JobWire, Message, PROTOCOL_VERSION};
use nestsim_core::inject::InjectionRecord;
use nestsim_core::{CampaignResult, OutcomeCounts};
use nestsim_telemetry::{CampaignTelemetry, Recorder};
use std::net::TcpStream;

/// How one submitted job ended.
#[derive(Debug)]
pub enum JobOutcome {
    /// Completed; the result is byte-identical to local execution.
    Done(Box<CampaignResult>),
    /// Turned away at admission (backpressure or invalid job).
    Rejected(String),
    /// Accepted but failed after exhausting crash retries.
    Failed(String),
}

/// A connected, greeted service client.
#[derive(Debug)]
pub struct SvcClient {
    stream: TcpStream,
}

#[derive(Debug, Default)]
struct Slot {
    ticket: Option<u64>,
    records: Vec<InjectionRecord>,
    outcome: Option<JobOutcome>,
}

impl SvcClient {
    /// Connects to a service and performs the protocol handshake.
    pub fn connect(addr: &str, tenant: &str) -> Result<SvcClient, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("connect to {addr} failed: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay failed: {e}"))?;
        let mut client = SvcClient { stream };
        client.send(&Message::Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_string(),
        })?;
        match client.recv()? {
            Message::HelloAck { .. } => Ok(client),
            Message::Error { message } => Err(format!("service rejected hello: {message}")),
            other => Err(format!("unexpected hello reply {other:?}")),
        }
    }

    /// Submits one job and blocks until it resolves.
    pub fn run_job(&mut self, job: &JobWire, priority: u32) -> Result<JobOutcome, String> {
        let mut outcomes = self.run_jobs(&[(job.clone(), priority)])?;
        outcomes
            .pop()
            .ok_or_else(|| "no outcome returned".to_string())
    }

    /// Submits every job, pipelined, and blocks until all resolve.
    /// Outcomes are returned in submission order.
    pub fn run_jobs(&mut self, jobs: &[(JobWire, u32)]) -> Result<Vec<JobOutcome>, String> {
        for (req, (job, priority)) in jobs.iter().enumerate() {
            self.send(&Message::SubmitJob {
                req: req as u64,
                priority: *priority,
                job: job.clone(),
            })?;
        }
        let mut slots: Vec<Slot> = jobs.iter().map(|_| Slot::default()).collect();
        while slots.iter().any(|s| s.outcome.is_none()) {
            let msg = self.recv()?;
            self.dispatch(msg, jobs, &mut slots)?;
        }
        Ok(slots.into_iter().filter_map(|s| s.outcome).collect())
    }

    /// Fetches the service's `svc.*` telemetry snapshot. Call only
    /// with no submissions in flight, or stream frames will interleave.
    pub fn stats(&mut self) -> Result<Recorder, String> {
        self.send(&Message::QueryStats)?;
        match self.recv()? {
            Message::Stats { recorder } => Ok(recorder),
            other => Err(format!("unexpected stats reply {other:?}")),
        }
    }

    fn dispatch(
        &mut self,
        msg: Message,
        jobs: &[(JobWire, u32)],
        slots: &mut [Slot],
    ) -> Result<(), String> {
        let by_ticket = |slots: &mut [Slot], ticket: u64| -> Result<usize, String> {
            slots
                .iter()
                .position(|s| s.ticket == Some(ticket))
                .ok_or_else(|| format!("server referenced unknown ticket {ticket}"))
        };
        match msg {
            Message::Accepted { req, ticket, .. } => {
                let slot = slots
                    .get_mut(req as usize)
                    .ok_or_else(|| format!("unknown request id {req}"))?;
                slot.ticket = Some(ticket);
            }
            Message::Rejected { req, reason, .. } => {
                let slot = slots
                    .get_mut(req as usize)
                    .ok_or_else(|| format!("unknown request id {req}"))?;
                slot.outcome = Some(JobOutcome::Rejected(reason));
            }
            Message::Chunk {
                ticket,
                start,
                records,
            } => {
                let i = by_ticket(slots, ticket)?;
                let slot = &mut slots[i];
                if start != slot.records.len() as u64 {
                    return Err(format!(
                        "stream gap for ticket {ticket}: chunk starts at {start}, have {}",
                        slot.records.len()
                    ));
                }
                slot.records.extend(records);
            }
            Message::Done {
                ticket,
                golden,
                merged,
                engine,
            } => {
                let i = by_ticket(slots, ticket)?;
                let slot = &mut slots[i];
                let (job, _) = jobs.get(i).ok_or_else(|| format!("no job for slot {i}"))?;
                let streamed = slot.records.len() as u64;
                if streamed != job.spec.samples {
                    return Err(format!(
                        "ticket {ticket} ended with {streamed} records, the job has {}",
                        job.spec.samples
                    ));
                }
                let profile = job.profile()?;
                let mut counts = OutcomeCounts::default();
                for rec in &slot.records {
                    counts.record(rec.outcome);
                }
                slot.outcome = Some(JobOutcome::Done(Box::new(CampaignResult {
                    benchmark: profile.name,
                    component: job.spec.component,
                    counts,
                    records: std::mem::take(&mut slot.records),
                    golden,
                    telemetry: CampaignTelemetry {
                        merged,
                        worker_samples: Vec::new(),
                        engine,
                    },
                    adaptive: None,
                })));
            }
            Message::Failed { ticket, reason } => {
                let i = by_ticket(slots, ticket)?;
                slots[i].outcome = Some(JobOutcome::Failed(reason));
            }
            Message::Cancelled { .. } => {}
            Message::Error { message } => {
                return Err(format!("service error: {message}"));
            }
            other => return Err(format!("unexpected server frame {other:?}")),
        }
        Ok(())
    }

    fn send(&mut self, msg: &Message) -> Result<(), String> {
        proto::send(&mut self.stream, msg).map_err(|e| format!("send failed: {e}"))
    }

    fn recv(&mut self) -> Result<Message, String> {
        proto::recv(&mut self.stream).map_err(|e| format!("recv failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use nestsim_core::inject::GoldenRef;
    use nestsim_core::CampaignSpec;
    use nestsim_hlsim::workload::by_name;
    use nestsim_models::ComponentKind;
    use std::net::TcpListener;

    fn recv(stream: &mut TcpStream) -> Message {
        Message::decode(&read_frame(stream).expect("a frame")).expect("it decodes")
    }

    fn send(stream: &mut TcpStream, msg: &Message) {
        write_frame(stream, &msg.encode().expect("it encodes")).expect("the frame is sent");
    }

    /// A server that ends a four-sample job with `Done` and no `Chunk`
    /// has lost the job's records: the client reports an error rather
    /// than a short result.
    #[test]
    fn a_done_without_every_record_is_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            assert!(matches!(recv(&mut stream), Message::Hello { .. }));
            send(&mut stream, &Message::HelloAck { id: 1 });
            let Message::SubmitJob { req, .. } = recv(&mut stream) else {
                panic!("expected a SubmitJob");
            };
            let accepted = Message::Accepted {
                req,
                ticket: 9,
                dedup: false,
                queue_depth: 0,
            };
            send(&mut stream, &accepted);
            let done = Message::Done {
                ticket: 9,
                golden: GoldenRef {
                    digest: 1,
                    cycles: 2,
                },
                merged: Recorder::null(),
                engine: Recorder::null(),
            };
            send(&mut stream, &done);
        });
        let spec = CampaignSpec::quick(ComponentKind::L2c, 4);
        let job = JobWire::from_spec(by_name("radi").expect("radi"), &spec, None);
        let mut client = SvcClient::connect(&addr, "t").expect("connect");
        let err = client
            .run_job(&job, 1)
            .expect_err("a short stream is an error");
        assert!(err.contains("ended with 0 records"), "{err}");
        peer.join().expect("the scripted peer ran");
    }
}
