//! The campaign worker's TCP driver: sockets, sleeps, and the real
//! simulation engine wrapped around the pure [`WorkerMachine`].
//!
//! All protocol decisions live in [`crate::worker_machine`]; this
//! module only performs the actions the machine emits — write a
//! frame and read the single reply, sleep, produce the run at one
//! position of the shard, crash — and feeds the outcomes back as
//! events. The very same machine is driven by the `crates/mck`
//! simulator under a virtual clock.
//!
//! The machine asks for one position at a time, so `Executed` events,
//! chaos options and heartbeats stay sample-granular; the driver
//! answers from a small buffer it fills by running the whole
//! same-trajectory group that starts at the position through
//! [`ShardWalk::run_group`] — the walk the in-process engine runs its
//! shards on, so a clustered cell shares restores, warm-ups and lane
//! batches here as it does there. A group holds at most 64 samples,
//! far inside a lease.
//!
//! A worker carries **no campaign state of its own** — everything it
//! needs is the seed-derived pair every executor builds
//! ([`CellBase`], [`Round`]), recomputed from the
//! [`crate::proto::JobWire`], and determinism makes that recomputation
//! bit-identical in every process. The round is cached per job and the
//! base per *campaign*, so a worker that leases ten shards of one
//! campaign pays for one golden pass, including across the rounds of a
//! persistent-worker adaptive campaign. The golden pass captures the
//! ladder [`rung_budget`] gives the job — the base alone for a
//! fixed-count cell — and one [`ShardWalk`] per job runs every lease of
//! it: leases go out in position order, so its cursor walks the cell
//! forward once, as one in-process worker thread's does. A lease behind
//! the cursor (a re-dispatch) restores from the rung below its entry.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nestsim_core::campaign::{rung_budget, CampaignSpec, CellBase, Round, ShardCell, ShardWalk};

use crate::proto::{recv, send, JobWire, RunWire};
use crate::worker_machine::{WorkerAction, WorkerEnd, WorkerEvent, WorkerMachine};

pub use crate::worker_machine::{WorkerOptions, WorkerStats};

/// The job with its round-varying fields (`samples`, `adaptive`)
/// zeroed out: the key a [`CellBase`] is cached under. Golden reference
/// and ladder depend on neither, so consecutive adaptive rounds on a
/// persistent worker reuse one golden pass.
fn base_key(job: &JobWire) -> JobWire {
    JobWire {
        spec: CampaignSpec {
            samples: 0,
            ..job.spec
        },
        adaptive: None,
        ..job.clone()
    }
}

/// The per-job derivation cache: everything recomputed from the seed,
/// and the one walk every lease of the job runs on.
struct JobState {
    key: JobWire,
    /// The ladder's rung budget, [`rung_budget`] of the job.
    budget: usize,
    base: CellBase,
    round: Round,
    walk: ShardWalk,
}

impl JobState {
    /// Builds the derivation for `job`, recycling `prev`'s base when
    /// the jobs differ only in their round (the persistent adaptive
    /// worker's hot path). Shard positions address the round's entry
    /// order, whichever plan drew it. A job that is no runnable cell
    /// ([`CampaignSpec::check`]) is an error, not a panic.
    fn build(job: &JobWire, prev: Option<JobState>) -> Result<JobState, String> {
        let profile = job.profile()?;
        job.spec.check(profile)?;
        let budget = rung_budget(job.adaptive.is_some(), &job.spec);
        // A `prev` of another cell is dropped before the capture, so its
        // systems are parked for this one's to refill.
        let mut base =
            match prev.filter(|p| base_key(&p.key) == base_key(job) && p.budget == budget) {
                Some(prev) => prev.base,
                None => CellBase::capture(profile, &job.spec, budget),
            };
        let round = base.draw(profile, &job.spec, job.adaptive.as_ref());
        if round.samples.len() as u64 != job.spec.samples {
            return Err(format!(
                "the round draws {} samples but the job says {}",
                round.samples.len(),
                job.spec.samples
            ));
        }
        let walk = ShardWalk::new(job.spec.lane_width as usize);
        Ok(JobState {
            key: job.clone(),
            budget,
            base,
            round,
            walk,
        })
    }
}

fn proto_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Connects to a coordinator and works until it says `done` (or a
/// chaos option fires). Returns what was accomplished.
pub fn run_worker(addr: &str, opts: &WorkerOptions) -> io::Result<WorkerStats> {
    let mut stream = TcpStream::connect(addr)?;
    // Strictly request/response small frames: Nagle + delayed ACK
    // would add ~40ms per round trip.
    stream.set_nodelay(true)?;
    let start = Instant::now(); // heartbeats only: results come from the worker machine
    let mut machine = WorkerMachine::new(opts.clone());
    let mut job_state: Option<JobState> = None;
    let mut pending: VecDeque<WorkerAction> = machine
        .step(now_ms(&start), WorkerEvent::Start)
        .into_iter()
        .collect();
    loop {
        let Some(act) = pending.pop_front() else {
            return Err(proto_err("worker machine stalled without finishing".into()));
        };
        match act {
            WorkerAction::Send { msg } => {
                send(&mut stream, &msg)?;
                let reply = recv(&mut stream)?;
                let acts = machine.step(now_ms(&start), WorkerEvent::Received { msg: reply });
                pending.extend(acts);
            }
            WorkerAction::Sleep { ms } => {
                std::thread::sleep(Duration::from_millis(ms));
                pending.extend(machine.step(now_ms(&start), WorkerEvent::Woke));
            }
            WorkerAction::Crash => {
                if machine.options().process_exit_on_crash {
                    std::process::exit(17);
                }
                return Ok(machine.stats());
            }
            WorkerAction::Finish { end } => {
                return match end {
                    WorkerEnd::Done | WorkerEnd::Stalled => Ok(machine.stats()),
                    WorkerEnd::Failed(message) => Err(proto_err(message)),
                };
            }
            WorkerAction::Execute { pos } => {
                let job = machine
                    .current_job()
                    .expect("Execute implies an active assignment")
                    .clone();
                if job_state.as_ref().is_none_or(|s| s.key != job) {
                    job_state = Some(JobState::build(&job, job_state.take()).map_err(proto_err)?);
                }
                let state = job_state.as_mut().expect("job state was just built");
                run_assignment(&mut stream, &mut machine, state, pos, &start, &mut pending)?;
            }
        }
    }
}

/// The worker command line, `--connect HOST:PORT [--crash-after N]
/// [--stall-after N]`, that `nestsim-worker` and `repro worker` share:
/// runs the worker and returns the process's exit code — failure, with
/// the usage line, on a bad command line, and failure on a run that
/// ends in an error. A crash (`--crash-after`) exits the process with
/// code 17. `program` names the command in what it prints.
pub fn worker_main(program: &str, args: &[String]) -> ExitCode {
    let (addr, opts) = match parse_worker_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!(
                "{e}\nusage: {program} --connect HOST:PORT [--crash-after N] [--stall-after N]"
            );
            return ExitCode::FAILURE;
        }
    };
    match run_worker(&addr, &opts) {
        Ok(stats) => {
            eprintln!(
                "{program}: {} shards completed ({} duplicate, {} abandoned), {} samples",
                stats.shards_completed,
                stats.shards_duplicate,
                stats.shards_abandoned,
                stats.samples_run
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{program}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The server address and options [`worker_main`]'s arguments name. A
/// worker process exits on a crash.
fn parse_worker_args(args: &[String]) -> Result<(String, WorkerOptions), String> {
    let mut addr = None;
    let mut opts = WorkerOptions {
        process_exit_on_crash: true,
        ..WorkerOptions::default()
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        let count = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--connect" => addr = Some(value()?.clone()),
            "--crash-after" => opts.crash_after_samples = Some(count(value()?)?),
            "--stall-after" => opts.stall_after_samples = Some(count(value()?)?),
            other => return Err(format!("unknown worker option {other}")),
        }
    }
    let addr = addr.ok_or("missing --connect HOST:PORT")?;
    Ok((addr, opts))
}

fn now_ms(start: &Instant) -> u64 {
    start.elapsed().as_millis() as u64
}

/// Drives the machine through one whole assignment on the job's walk,
/// reporting the forward cycles and restores it spends on this lease.
/// Returns once the machine has moved off the shard (submitted,
/// abandoned, stalled, crashed, or failed), pushing any remaining
/// actions back to the outer loop.
fn run_assignment(
    stream: &mut TcpStream,
    machine: &mut WorkerMachine,
    state: &mut JobState,
    first_pos: u64,
    start: &Instant,
    pending: &mut VecDeque<WorkerAction>,
) -> io::Result<()> {
    let shard = machine
        .current_shard()
        .expect("Execute implies an active assignment");
    let (forward0, restores0) = (state.walk.forward_cycles(), state.walk.restores());
    // Finished runs of the group the last `Execute` started, in
    // position order; dropped if the shard is abandoned.
    let mut ready = VecDeque::new();
    let mut local: VecDeque<WorkerAction> = VecDeque::new();
    local.push_back(WorkerAction::Execute { pos: first_pos });
    loop {
        if machine.current_shard() != Some(shard) {
            // The machine left the shard; whatever it asked for next
            // belongs to the outer loop.
            pending.extend(local.drain(..));
            return Ok(());
        }
        let Some(act) = local.pop_front() else {
            return Err(proto_err("worker machine stalled mid-shard".into()));
        };
        match act {
            WorkerAction::Execute { pos } => {
                if ready.is_empty() {
                    let span = &state.round.order[pos as usize..shard.range().end as usize];
                    let cell =
                        ShardCell::new(&state.base, &state.round, state.key.telemetry.as_ref());
                    ready.extend(state.walk.run_group(cell, span));
                }
                let (sample, record, recorder) =
                    ready.pop_front().expect("a group holds its first sample");
                debug_assert_eq!(sample, state.round.order[pos as usize]);
                let run = RunWire {
                    sample: sample as u64,
                    record,
                    recorder,
                };
                let acts = machine.step(
                    now_ms(start),
                    WorkerEvent::Executed {
                        run,
                        golden: state.base.golden,
                        forward: state.walk.forward_cycles() - forward0,
                        restores: state.walk.restores() - restores0,
                    },
                );
                local.extend(acts);
            }
            WorkerAction::Send { msg } => {
                send(stream, &msg)?;
                let reply = recv(stream)?;
                let acts = machine.step(now_ms(start), WorkerEvent::Received { msg: reply });
                local.extend(acts);
            }
            other => {
                // Sleep/Crash/Finish always follow the machine leaving
                // the shard, so the scope check above fields them; keep
                // them for the outer loop regardless.
                local.push_front(other);
                pending.extend(local.drain(..));
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_hlsim::workload::by_name;
    use nestsim_models::ComponentKind;

    fn build_err(job: &JobWire) -> String {
        match JobState::build(job, None) {
            Ok(_) => panic!("an invalid job must not build"),
            Err(e) => e,
        }
    }

    /// A job off the wire that is no runnable cell is refused with the
    /// reason, where capturing its base would panic the worker.
    #[test]
    fn an_invalid_job_is_an_error_not_a_panic() {
        let pcie = CampaignSpec::quick(ComponentKind::Pcie, 1);
        let fileless = JobWire::from_spec(by_name("barn").unwrap(), &pcie, None);
        let err = build_err(&fileless);
        assert!(err.contains("input file"), "{err}");

        let mut zero = JobWire::from_spec(
            by_name("radi").unwrap(),
            &CampaignSpec::quick(ComponentKind::L2c, 1),
            None,
        );
        zero.spec.check_interval = 0;
        let err = build_err(&zero);
        assert!(err.contains("check_interval must be >= 1"), "{err}");
    }
}
