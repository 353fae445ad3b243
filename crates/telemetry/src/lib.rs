//! # nestsim-telemetry
//!
//! Zero-dependency campaign observability: monotonic counters,
//! log-bucketed histograms, and a bounded ring-buffer event trace,
//! bundled in a [`Recorder`] that merges **associatively** — sharded
//! campaign workers each record into their own per-run recorder and the
//! campaign folds them back together in sample order, so the merged
//! telemetry is bit-identical no matter how many workers ran (the same
//! property the campaign layer already guarantees for its
//! `OutcomeCounts`).
//!
//! Everything is deterministic by construction: no wall clocks, no
//! atomics, no map types with nondeterministic iteration order. The
//! JSON-lines export ([`Recorder::to_jsonl`]) is therefore byte-stable
//! across worker counts and across runs, which makes telemetry itself a
//! testable artifact (see `tests/telemetry_invariants.rs` at the
//! workspace root).
//!
//! A disabled ([`Recorder::null`]) recorder turns every hook into a
//! cheap branch-on-null no-op, so instrumented hot paths carry no
//! observability tax — enforced by the `ci.sh` bench-regression gate,
//! not just asserted.
//!
//! ```
//! use nestsim_telemetry::{names, EventKind, Recorder, TelemetryConfig};
//!
//! let mut rec = Recorder::active(&TelemetryConfig::default());
//! rec.count(names::INJECT_RUNS, 1);
//! rec.record_hist(names::H_COSIM_RESIDENCY, 1_234);
//! rec.event(42, "l2c", EventKind::BitFlip, 7);
//! assert_eq!(rec.counter(names::INJECT_RUNS), 1);
//! assert!(rec.to_jsonl().contains("\"kind\":\"BitFlip\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
#[cfg(test)]
mod names_check;
pub mod recorder;
pub mod trace;

pub use hist::{Histogram, NUM_BUCKETS};
pub use recorder::{CampaignTelemetry, Recorder, TelemetryConfig};
pub use trace::{EventKind, ExitReason, Trace, TraceEvent};

/// Canonical counter / histogram names, shared by every instrumented
/// crate so exports and tests agree on the schema.
pub mod names {
    /// Counter: completed injection runs.
    pub const INJECT_RUNS: &str = "inject.runs";
    /// Counter: co-simulation windows entered.
    pub const COSIM_ENTER: &str = "cosim.enter";
    /// Counter: co-simulation exits via a state-converged check
    /// (identical / benign-only / arch-mappable — Fig. 2 step 7).
    pub const COSIM_EXIT_CONVERGED: &str = "cosim.exit.converged";
    /// Counter: co-simulation exits because the cycle cap ran out
    /// (Sec. 4.2 persists-past-cap path).
    pub const COSIM_EXIT_CAP: &str = "cosim.exit.cap";
    /// Counter: co-simulation aborted by a trap or the watchdog — the
    /// injected error diverged execution inside the window.
    pub const COSIM_EXIT_MISMATCH: &str = "cosim.exit.mismatch";
    /// Counter: target-vs-golden comparisons performed.
    pub const GOLDEN_COMPARES: &str = "golden.compares";
    /// Counter: runs classified Vanished without a state transfer back
    /// (Fig. 2 steps 8–9 early termination).
    pub const EARLY_TERM_VANISHED: &str = "early_term.vanished";
    /// Counter: runs that hit the cap with the error still confined to
    /// unmapped microarchitectural state (Sec. 4.2 "persists").
    pub const EARLY_TERM_PERSIST: &str = "early_term.persist";
    /// Counter: high-level → RTL state transfers (co-sim attach).
    pub const STATE_TRANSFER_TO_RTL: &str = "state_transfer.to_rtl";
    /// Counter: RTL → high-level state transfers (co-sim detach).
    pub const STATE_TRANSFER_TO_HIGH: &str = "state_transfer.to_high";
    /// Counter: full-system snapshot clones taken.
    pub const SNAPSHOT_CLONES: &str = "snapshot.clones";

    /// Counter: live snapshot-ladder rungs after capture+truncation
    /// (engine telemetry — kept outside the merged per-run recorder so
    /// the merged export stays engine- and sharding-independent).
    pub const LADDER_RUNGS: &str = "ladder.rungs";
    /// Counter: rungs the ladder's capture pass cloned, thinned ones
    /// included (engine telemetry — what the ladder cost to build).
    pub const LADDER_CAPTURES: &str = "ladder.captures";
    /// Counter: worker restores from a ladder rung (engine telemetry).
    pub const LADDER_RESTORES: &str = "ladder.restores";
    /// Counter: accelerated-mode cycles forward-simulated by campaign
    /// workers to reach injection entry points (engine telemetry; the
    /// quantity the ladder exists to shrink).
    pub const FORWARD_CYCLES: &str = "campaign.forward_cycles";
    /// Counter: campaign cells served from the cross-figure cell cache.
    pub const CELL_CACHE_HITS: &str = "cell_cache.hits";
    /// Counter: campaign cells computed because the cache had no entry.
    pub const CELL_CACHE_MISSES: &str = "cell_cache.misses";

    /// Histogram: co-simulation cycles per injection run.
    pub const H_COSIM_RESIDENCY: &str = "cosim.residency";
    /// Histogram: warm-up cycles per injection run.
    pub const H_WARMUP: &str = "warmup.cycles";
    /// Histogram: error-propagation latency (Fig. 8), when observed.
    pub const H_PROPAGATION: &str = "propagation.latency";
    /// Histogram: corrupted lines left behind at detach.
    pub const H_CORRUPTED_LINES: &str = "corrupted.lines";
    /// Histogram: backed DRAM lines captured per snapshot clone.
    pub const H_SNAPSHOT_DRAM_LINES: &str = "snapshot.dram_lines";
    /// Histogram: resident L2 lines captured per snapshot clone.
    pub const H_SNAPSHOT_RESIDENT_LINES: &str = "snapshot.resident_lines";
    /// Histogram: backed DRAM lines held per ladder rung (engine
    /// telemetry — rung storage footprint).
    pub const H_LADDER_RUNG_DRAM_LINES: &str = "ladder.rung.dram_lines";
    /// Histogram: resident L2 lines held per ladder rung (engine
    /// telemetry).
    pub const H_LADDER_RUNG_RESIDENT_LINES: &str = "ladder.rung.resident_lines";

    /// Histogram: L2C input-queue occupancy, sampled at check points.
    pub const H_Q_L2C_IQ: &str = "queue.l2c.iq";
    /// Histogram: L2C output-queue occupancy.
    pub const H_Q_L2C_OQ: &str = "queue.l2c.oq";
    /// Histogram: L2C miss-buffer occupancy.
    pub const H_Q_L2C_MB: &str = "queue.l2c.mb";
    /// Histogram: MCU request-queue occupancy.
    pub const H_Q_MCU_RQ: &str = "queue.mcu.rq";
    /// Histogram: MCU return-queue occupancy.
    pub const H_Q_MCU_RETQ: &str = "queue.mcu.retq";
    /// Histogram: total crossbar request-side FIFO occupancy.
    pub const H_Q_CCX_PCX: &str = "queue.ccx.pcx";
    /// Histogram: total crossbar return-side FIFO occupancy.
    pub const H_Q_CCX_CPX: &str = "queue.ccx.cpx";
    /// Histogram: PCIe staging-buffer occupancy.
    pub const H_Q_PCIE_BUF: &str = "queue.pcie.buf";

    /// Counter: cluster shards planned by the coordinator.
    pub const CLUSTER_SHARDS: &str = "cluster.shards";
    /// Counter: shard leases granted to workers.
    pub const CLUSTER_LEASES_GRANTED: &str = "cluster.leases.granted";
    /// Counter: leases whose deadline passed without completion (hung
    /// or straggling worker).
    pub const CLUSTER_LEASES_EXPIRED: &str = "cluster.leases.expired";
    /// Counter: leases released early because the owning worker's
    /// connection dropped (killed worker).
    pub const CLUSTER_LEASES_RELEASED: &str = "cluster.leases.released";
    /// Counter: shards handed to a second (or later) worker after a
    /// lease expiry/release — the re-dispatch path.
    pub const CLUSTER_REDISPATCHES: &str = "cluster.leases.redispatched";
    /// Counter: shard submissions accepted (first completion).
    pub const CLUSTER_SHARDS_COMPLETED: &str = "cluster.shards.completed";
    /// Counter: duplicate shard submissions dropped by the idempotent
    /// merge (a re-dispatched shard completed twice).
    pub const CLUSTER_SHARDS_DUPLICATE: &str = "cluster.shards.duplicate";
    /// Counter: protocol frames sent by the coordinator.
    pub const CLUSTER_FRAMES_SENT: &str = "cluster.frames.sent";
    /// Counter: protocol frames received by the coordinator.
    pub const CLUSTER_FRAMES_RECEIVED: &str = "cluster.frames.received";
    /// Counter: payload bytes sent by the coordinator.
    pub const CLUSTER_BYTES_SENT: &str = "cluster.bytes.sent";
    /// Counter: payload bytes received by the coordinator.
    pub const CLUSTER_BYTES_RECEIVED: &str = "cluster.bytes.received";
    /// Counter: workers that completed the protocol handshake.
    pub const CLUSTER_WORKERS_CONNECTED: &str = "cluster.workers.connected";
    /// Counter: worker connections that ended abnormally (I/O error or
    /// EOF while still holding work).
    pub const CLUSTER_WORKERS_DISCONNECTED: &str = "cluster.workers.disconnected";
    /// Counter: wait/backoff replies sent to idle workers while every
    /// pending shard was leased or backing off.
    pub const CLUSTER_BACKOFF_WAITS: &str = "cluster.backoff.waits";
    /// Counter: heartbeats processed by the coordinator.
    pub const CLUSTER_HEARTBEATS: &str = "cluster.heartbeats";
    /// Histogram: wall-clock latency of completed shards, in
    /// milliseconds from (last) lease grant to accepted submission.
    pub const H_CLUSTER_SHARD_MS: &str = "cluster.shard.latency_ms";
    /// Histogram: samples per completed shard.
    pub const H_CLUSTER_SHARD_SAMPLES: &str = "cluster.shard.samples";
    /// Histogram: payload bytes per accepted shard submission.
    pub const H_CLUSTER_SUBMIT_BYTES: &str = "cluster.submit.bytes";

    /// Counter: lane batches formed by the lane-batched campaign engine
    /// (shared carrier universes driven; engine telemetry).
    pub const LANES_BATCHES: &str = "lanes.batches";
    /// Counter: lanes retired inside a batch (Vanished or Persist)
    /// without touching the scalar path.
    pub const LANES_RETIRED_EARLY: &str = "lanes.retired_early";
    /// Counter: lanes finished on the scalar path — batch leavers, each
    /// on a driver forked off the carrier (readiness or output
    /// divergence, arch-mappable or erroneous exit, the program's end,
    /// abort, cap).
    pub const LANES_SCALAR_FALLBACKS: &str = "lanes.scalar_fallbacks";

    /// Counter: window carriers attached by the campaign engine — one
    /// uninjected warm-up per (instance, grid entry) window a walk ran,
    /// which every sample of the window forks off (engine telemetry).
    pub const WARM_CARRIERS: &str = "warm.carriers";
    /// Counter: warm-up cycles the window carriers ran, each from its
    /// entry point to its last sample's injection cycle (engine
    /// telemetry).
    pub const WARM_CYCLES: &str = "warm.cycles";

    /// Counter: DRAM arena chunks (64 pages, one heap allocation each)
    /// the systems of a campaign walk allocated — its cursor, window
    /// carriers and forks — over their storage's life, which a refill
    /// and parked storage carry on (engine telemetry). A walk that
    /// refills its systems allocates them once, so windows after the
    /// first add few or none.
    pub const DRAM_CHUNKS_ALLOCATED: &str = "dram.chunks_allocated";
    /// Counter: DRAM pages the same systems copied out of shared arenas
    /// on a first write (engine telemetry).
    pub const DRAM_PAGES_COPIED: &str = "dram.pages_copied";
    /// Counter: systems a campaign refilled from storage an earlier
    /// walk or cell of the process parked (engine telemetry).
    pub const STORAGE_SYSTEMS_TAKEN: &str = "storage.systems_taken";
    /// Counter: systems a campaign built because none was parked
    /// (engine telemetry).
    pub const STORAGE_SYSTEMS_BUILT: &str = "storage.systems_built";
    /// Counter: co-simulation drivers — system, port and sides — a
    /// campaign's walks took from the set a dropped walk of their
    /// component parked (engine telemetry).
    pub const STORAGE_DRIVERS_TAKEN: &str = "storage.drivers_taken";
    /// Counter: drivers a campaign's walks built because they had none
    /// to refill (engine telemetry).
    pub const STORAGE_DRIVERS_BUILT: &str = "storage.drivers_built";

    // The `postflip.*` engine counters: runs and their co-simulation
    // cycles after the flip, by how co-simulation ended, then by whether
    // the run's output was clean or erroneous by then. The cycles sum to
    // the records' `cosim_cycles`.
    /// Counter: runs where a golden compare found the run identical to its golden, clean output (engine telemetry).
    pub const POSTFLIP_RUNS_IDENTICAL_CLEAN: &str = "postflip.runs.identical.clean";
    /// Counter: runs where a golden compare found the run identical to its golden, erroneous output (engine telemetry).
    pub const POSTFLIP_RUNS_IDENTICAL_ERRONEOUS: &str = "postflip.runs.identical.erroneous";
    /// Counter: runs where a golden compare found differences no tick can read (invalid slots' payloads, dead fields), clean output (engine telemetry).
    pub const POSTFLIP_RUNS_BENIGN_CLEAN: &str = "postflip.runs.benign.clean";
    /// Counter: runs where a golden compare found differences no tick can read (invalid slots' payloads, dead fields), erroneous output (engine telemetry).
    pub const POSTFLIP_RUNS_BENIGN_ERRONEOUS: &str = "postflip.runs.benign.erroneous";
    /// Counter: runs where a golden compare found differences only in state the accelerated model holds, clean output (engine telemetry).
    pub const POSTFLIP_RUNS_ARCH_CLEAN: &str = "postflip.runs.arch.clean";
    /// Counter: runs where a golden compare found differences only in state the accelerated model holds, erroneous output (engine telemetry).
    pub const POSTFLIP_RUNS_ARCH_ERRONEOUS: &str = "postflip.runs.arch.erroneous";
    /// Counter: runs where the program ended, clean output (engine telemetry).
    pub const POSTFLIP_RUNS_ENDED_CLEAN: &str = "postflip.runs.ended.clean";
    /// Counter: runs where the program ended, erroneous output (engine telemetry).
    pub const POSTFLIP_RUNS_ENDED_ERRONEOUS: &str = "postflip.runs.ended.erroneous";
    /// Counter: runs where the system trapped or passed its watchdog, clean output (engine telemetry).
    pub const POSTFLIP_RUNS_ABORTED_CLEAN: &str = "postflip.runs.aborted.clean";
    /// Counter: runs where the system trapped or passed its watchdog, erroneous output (engine telemetry).
    pub const POSTFLIP_RUNS_ABORTED_ERRONEOUS: &str = "postflip.runs.aborted.erroneous";
    /// Counter: runs where the co-simulation cap struck, clean output (engine telemetry).
    pub const POSTFLIP_RUNS_CAP_CLEAN: &str = "postflip.runs.cap.clean";
    /// Counter: runs where the co-simulation cap struck, erroneous output (engine telemetry).
    pub const POSTFLIP_RUNS_CAP_ERRONEOUS: &str = "postflip.runs.cap.erroneous";
    /// Counter: post-flip co-simulation cycles of runs where a golden compare found the run identical to its golden, clean output (engine telemetry).
    pub const POSTFLIP_CYCLES_IDENTICAL_CLEAN: &str = "postflip.cycles.identical.clean";
    /// Counter: post-flip co-simulation cycles of runs where a golden compare found the run identical to its golden, erroneous output (engine telemetry).
    pub const POSTFLIP_CYCLES_IDENTICAL_ERRONEOUS: &str = "postflip.cycles.identical.erroneous";
    /// Counter: post-flip co-simulation cycles of runs where a golden compare found differences no tick can read (invalid slots' payloads, dead fields), clean output (engine telemetry).
    pub const POSTFLIP_CYCLES_BENIGN_CLEAN: &str = "postflip.cycles.benign.clean";
    /// Counter: post-flip co-simulation cycles of runs where a golden compare found differences no tick can read (invalid slots' payloads, dead fields), erroneous output (engine telemetry).
    pub const POSTFLIP_CYCLES_BENIGN_ERRONEOUS: &str = "postflip.cycles.benign.erroneous";
    /// Counter: post-flip co-simulation cycles of runs where a golden compare found differences only in state the accelerated model holds, clean output (engine telemetry).
    pub const POSTFLIP_CYCLES_ARCH_CLEAN: &str = "postflip.cycles.arch.clean";
    /// Counter: post-flip co-simulation cycles of runs where a golden compare found differences only in state the accelerated model holds, erroneous output (engine telemetry).
    pub const POSTFLIP_CYCLES_ARCH_ERRONEOUS: &str = "postflip.cycles.arch.erroneous";
    /// Counter: post-flip co-simulation cycles of runs where the program ended, clean output (engine telemetry).
    pub const POSTFLIP_CYCLES_ENDED_CLEAN: &str = "postflip.cycles.ended.clean";
    /// Counter: post-flip co-simulation cycles of runs where the program ended, erroneous output (engine telemetry).
    pub const POSTFLIP_CYCLES_ENDED_ERRONEOUS: &str = "postflip.cycles.ended.erroneous";
    /// Counter: post-flip co-simulation cycles of runs where the system trapped or passed its watchdog, clean output (engine telemetry).
    pub const POSTFLIP_CYCLES_ABORTED_CLEAN: &str = "postflip.cycles.aborted.clean";
    /// Counter: post-flip co-simulation cycles of runs where the system trapped or passed its watchdog, erroneous output (engine telemetry).
    pub const POSTFLIP_CYCLES_ABORTED_ERRONEOUS: &str = "postflip.cycles.aborted.erroneous";
    /// Counter: post-flip co-simulation cycles of runs where the co-simulation cap struck, clean output (engine telemetry).
    pub const POSTFLIP_CYCLES_CAP_CLEAN: &str = "postflip.cycles.cap.clean";
    /// Counter: post-flip co-simulation cycles of runs where the co-simulation cap struck, erroneous output (engine telemetry).
    pub const POSTFLIP_CYCLES_CAP_ERRONEOUS: &str = "postflip.cycles.cap.erroneous";
    /// Counter: accelerated cycles phase 3 ran from the transfer back to the program's end (engine telemetry).
    pub const POSTFLIP_RUN_TO_END_CYCLES: &str = "postflip.run_to_end_cycles";

    /// Counter: rounds executed by the adaptive sampling engine
    /// (engine telemetry; sequential-stopping trace).
    pub const ADAPTIVE_ROUNDS: &str = "adaptive.rounds";
    /// Counter: samples run by the adaptive engine before the stop
    /// rule fired (engine telemetry).
    pub const ADAPTIVE_SAMPLES: &str = "adaptive.samples";
    /// Counter: samples saved versus the fixed-count budget the stop
    /// policy replaced (engine telemetry; the adaptive engine's win).
    pub const ADAPTIVE_SAMPLES_SAVED: &str = "adaptive.samples_saved";
    /// Counter: cumulative samples allocated to the address stratum.
    pub const ADAPTIVE_ALLOC_ADDRESS: &str = "adaptive.alloc.address";
    /// Counter: cumulative samples allocated to the control stratum.
    pub const ADAPTIVE_ALLOC_CONTROL: &str = "adaptive.alloc.control";
    /// Counter: cumulative samples allocated to the datapath stratum.
    pub const ADAPTIVE_ALLOC_DATA: &str = "adaptive.alloc.data";

    /// Counter: client connections accepted by the campaign service.
    pub const SVC_CLIENTS_CONNECTED: &str = "svc.clients.connected";
    /// Counter: campaign jobs submitted to the service (before
    /// admission control).
    pub const SVC_JOBS_SUBMITTED: &str = "svc.jobs.submitted";
    /// Counter: submissions refused by admission control (bounded
    /// queue depth — the explicit backpressure reply).
    pub const SVC_ADMISSION_REJECTED: &str = "svc.admission.rejected";
    /// Counter: submissions that attached to an already queued,
    /// running, or cached execution of the same determinism key — the
    /// content-addressed dedup path.
    pub const SVC_DEDUP_HITS: &str = "svc.dedup.hits";
    /// Counter: executions started by the service scheduler.
    pub const SVC_EXECS_STARTED: &str = "svc.execs.started";
    /// Counter: executions that crashed and were requeued.
    pub const SVC_EXEC_CRASHES: &str = "svc.exec.crashes";
    /// Counter: jobs completed and fanned out to their subscribers.
    pub const SVC_JOBS_COMPLETED: &str = "svc.jobs.completed";
    /// Counter: tickets cancelled by their client.
    pub const SVC_JOBS_CANCELLED: &str = "svc.jobs.cancelled";
    /// Counter: deficit-round-robin scheduler rounds (tenant-queue
    /// visits that granted at least one job).
    pub const SVC_SCHED_ROUNDS: &str = "svc.scheduler.rounds";
    /// Histogram: queue depth observed at each admission decision.
    pub const H_SVC_QUEUE_DEPTH: &str = "svc.queue.depth";

    /// Counter: QRR-protected injection runs.
    pub const QRR_RUNS: &str = "qrr.runs";
    /// Counter: runs where logic parity detected the flip.
    pub const QRR_DETECTED: &str = "qrr.detected";
    /// Counter: replay recoveries attempted by the QRR controller.
    pub const QRR_REPLAY_ATTEMPTS: &str = "qrr.replay.attempts";
    /// Counter: detected runs that recovered the error-free output.
    pub const QRR_RECOVERED: &str = "qrr.recovered";
    /// Counter: detected runs that failed to recover.
    pub const QRR_FAILED: &str = "qrr.failed";
    /// Histogram: cycles from detection to resumed normal operation.
    pub const H_QRR_RECOVERY: &str = "qrr.recovery.cycles";

    /// Every canonical name, in one table, so deserializers can re-intern
    /// wire strings back to the `&'static str` keys [`super::Recorder`]
    /// uses internally (see [`resolve`]).
    pub const ALL: &[&str] = &[
        INJECT_RUNS,
        COSIM_ENTER,
        COSIM_EXIT_CONVERGED,
        COSIM_EXIT_CAP,
        COSIM_EXIT_MISMATCH,
        GOLDEN_COMPARES,
        EARLY_TERM_VANISHED,
        EARLY_TERM_PERSIST,
        STATE_TRANSFER_TO_RTL,
        STATE_TRANSFER_TO_HIGH,
        SNAPSHOT_CLONES,
        LADDER_RUNGS,
        LADDER_CAPTURES,
        LADDER_RESTORES,
        FORWARD_CYCLES,
        CELL_CACHE_HITS,
        CELL_CACHE_MISSES,
        H_COSIM_RESIDENCY,
        H_WARMUP,
        H_PROPAGATION,
        H_CORRUPTED_LINES,
        H_SNAPSHOT_DRAM_LINES,
        H_SNAPSHOT_RESIDENT_LINES,
        H_LADDER_RUNG_DRAM_LINES,
        H_LADDER_RUNG_RESIDENT_LINES,
        H_Q_L2C_IQ,
        H_Q_L2C_OQ,
        H_Q_L2C_MB,
        H_Q_MCU_RQ,
        H_Q_MCU_RETQ,
        H_Q_CCX_PCX,
        H_Q_CCX_CPX,
        H_Q_PCIE_BUF,
        CLUSTER_SHARDS,
        CLUSTER_LEASES_GRANTED,
        CLUSTER_LEASES_EXPIRED,
        CLUSTER_LEASES_RELEASED,
        CLUSTER_REDISPATCHES,
        CLUSTER_SHARDS_COMPLETED,
        CLUSTER_SHARDS_DUPLICATE,
        CLUSTER_FRAMES_SENT,
        CLUSTER_FRAMES_RECEIVED,
        CLUSTER_BYTES_SENT,
        CLUSTER_BYTES_RECEIVED,
        CLUSTER_WORKERS_CONNECTED,
        CLUSTER_WORKERS_DISCONNECTED,
        CLUSTER_BACKOFF_WAITS,
        CLUSTER_HEARTBEATS,
        H_CLUSTER_SHARD_MS,
        H_CLUSTER_SHARD_SAMPLES,
        H_CLUSTER_SUBMIT_BYTES,
        LANES_BATCHES,
        LANES_RETIRED_EARLY,
        LANES_SCALAR_FALLBACKS,
        WARM_CARRIERS,
        WARM_CYCLES,
        DRAM_CHUNKS_ALLOCATED,
        DRAM_PAGES_COPIED,
        STORAGE_SYSTEMS_TAKEN,
        STORAGE_SYSTEMS_BUILT,
        STORAGE_DRIVERS_TAKEN,
        STORAGE_DRIVERS_BUILT,
        POSTFLIP_RUNS_IDENTICAL_CLEAN,
        POSTFLIP_RUNS_IDENTICAL_ERRONEOUS,
        POSTFLIP_RUNS_BENIGN_CLEAN,
        POSTFLIP_RUNS_BENIGN_ERRONEOUS,
        POSTFLIP_RUNS_ARCH_CLEAN,
        POSTFLIP_RUNS_ARCH_ERRONEOUS,
        POSTFLIP_RUNS_ENDED_CLEAN,
        POSTFLIP_RUNS_ENDED_ERRONEOUS,
        POSTFLIP_RUNS_ABORTED_CLEAN,
        POSTFLIP_RUNS_ABORTED_ERRONEOUS,
        POSTFLIP_RUNS_CAP_CLEAN,
        POSTFLIP_RUNS_CAP_ERRONEOUS,
        POSTFLIP_CYCLES_IDENTICAL_CLEAN,
        POSTFLIP_CYCLES_IDENTICAL_ERRONEOUS,
        POSTFLIP_CYCLES_BENIGN_CLEAN,
        POSTFLIP_CYCLES_BENIGN_ERRONEOUS,
        POSTFLIP_CYCLES_ARCH_CLEAN,
        POSTFLIP_CYCLES_ARCH_ERRONEOUS,
        POSTFLIP_CYCLES_ENDED_CLEAN,
        POSTFLIP_CYCLES_ENDED_ERRONEOUS,
        POSTFLIP_CYCLES_ABORTED_CLEAN,
        POSTFLIP_CYCLES_ABORTED_ERRONEOUS,
        POSTFLIP_CYCLES_CAP_CLEAN,
        POSTFLIP_CYCLES_CAP_ERRONEOUS,
        POSTFLIP_RUN_TO_END_CYCLES,
        QRR_RUNS,
        QRR_DETECTED,
        QRR_REPLAY_ATTEMPTS,
        QRR_RECOVERED,
        QRR_FAILED,
        H_QRR_RECOVERY,
        ADAPTIVE_ROUNDS,
        ADAPTIVE_SAMPLES,
        ADAPTIVE_SAMPLES_SAVED,
        ADAPTIVE_ALLOC_ADDRESS,
        ADAPTIVE_ALLOC_CONTROL,
        ADAPTIVE_ALLOC_DATA,
        SVC_CLIENTS_CONNECTED,
        SVC_JOBS_SUBMITTED,
        SVC_ADMISSION_REJECTED,
        SVC_DEDUP_HITS,
        SVC_EXECS_STARTED,
        SVC_EXEC_CRASHES,
        SVC_JOBS_COMPLETED,
        SVC_JOBS_CANCELLED,
        SVC_SCHED_ROUNDS,
        H_SVC_QUEUE_DEPTH,
    ];

    /// Trace-event component labels that cross process boundaries.
    /// Kept alongside the metric names so [`resolve`] can intern every
    /// `&'static str` a [`super::Recorder`] may carry.
    pub const COMPONENTS: &[&str] = &[
        "l2c", "mcu", "ccx", "pcie", "L2C", "MCU", "CCX", "PCIe", "campaign", "cosim", "qrr",
        "cluster", "svc",
    ];

    /// Re-interns a dynamically decoded name (e.g. read off a network
    /// socket) back to the canonical `&'static str` it was serialized
    /// from. Returns `None` for names outside the schema — callers
    /// decide whether that is a protocol error or ignorable.
    pub fn resolve(name: &str) -> Option<&'static str> {
        ALL.iter()
            .chain(COMPONENTS.iter())
            .find(|&&n| n == name)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::{names, names_check};
    use std::path::Path;

    /// `(path, source)` of every `.rs` file under `dir`, build output,
    /// the schema and its checker's fixtures aside.
    fn sources(dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir)
            .expect("readable source tree")
            .flatten()
        {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() && name != "target" && name != ".git" {
                sources(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs")
                && !path.ends_with("telemetry/src/lib.rs")
                && !path.ends_with("telemetry/src/names_check.rs")
            {
                let text = std::fs::read_to_string(&path).expect("readable source");
                out.push((path.display().to_string(), text));
            }
        }
    }

    /// The registry is coherent: no two names share a string (a merge
    /// would fold two meanings into one counter), every name constant is
    /// in `ALL` once (else `resolve` refuses it on the wire), and every
    /// registered name is counted somewhere in the repository as
    /// `names::X` (no dead schema).
    #[test]
    fn every_name_is_unique_registered_and_counted() {
        let src = include_str!("lib.rs");
        let start = src.find("pub mod names {").expect("the names module");
        let end = start + src[start..].find("\n}\n").expect("its end");
        let mut decl = names_check::parse_names(&src[start..end]);
        let offset = src[..start].matches('\n').count() as u32;
        for line in decl
            .consts
            .iter_mut()
            .map(|c| &mut c.2)
            .chain(decl.all.iter_mut().map(|a| &mut a.1))
        {
            *line += offset;
        }
        assert_eq!(decl.all.len(), names::ALL.len(), "the parsed ALL");
        for (ident, value, _) in &decl.consts {
            assert_eq!(
                names::resolve(value),
                Some(value.as_str()),
                "{ident} does not resolve"
            );
        }
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        sources(&root, &mut files);
        let uses: Vec<(String, String, u32)> = files
            .iter()
            .flat_map(|(path, text)| {
                names_check::collect_uses(text)
                    .into_iter()
                    .map(move |(ident, line)| (path.clone(), ident, line))
            })
            .collect();
        let findings = names_check::check_names("crates/telemetry/src/lib.rs", &decl, &uses);
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
