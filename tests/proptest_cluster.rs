//! Property-based tests for the distributed campaign layer: shard
//! planning and the wire protocol.
//!
//! The cluster's byte-identity guarantee rests on two properties that
//! must hold for *every* sample count, shard size, and completion
//! order — not just the ones the end-to-end tests happen to exercise:
//!
//! 1. a shard plan is an **exact cover** of the sample index space
//!    (every position in exactly one shard), and the cover is
//!    **permutation-invariant**: shards may complete in any order, on
//!    any worker, and re-assembly by position still touches each
//!    sample exactly once;
//! 2. the wire codecs are exact inverses, so what a worker computed is
//!    what the coordinator merges.
//!
//! Run on the in-repo `nestsim-harness` runner; failures carry a
//! `NESTSIM_PROP_SEED=<seed>` replay handle.

use nestsim_harness::{properties, Source};

use nestsim::cluster::frame::{read_frame, write_frame};
use nestsim::cluster::lease::{Completion, Grant, LeaseTable};
use nestsim::cluster::proto::{AdaptiveRoundWire, JobWire, Message, RunWire, SubmitWire};
use nestsim::cluster::{auto_shard_size, plan_shards, LeaseConfig, Shard};
use nestsim::core::inject::{GoldenRef, InjectionRecord};
use nestsim::core::{CampaignSpec, Outcome};
use nestsim::models::ComponentKind;
use nestsim::telemetry::{names, EventKind, Recorder, TelemetryConfig};

/// Fisher–Yates driven by the property source.
fn shuffle<T>(src: &mut Source, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, src.index(i + 1));
    }
}

/// One random byte-level corruption: flip a bit, overwrite a byte,
/// truncate, or insert.
fn mutate(src: &mut Source, bytes: &mut Vec<u8>) {
    match src.index(4) {
        0 if !bytes.is_empty() => {
            let i = src.index(bytes.len());
            bytes[i] ^= 1 << src.index(8);
        }
        1 if !bytes.is_empty() => {
            let i = src.index(bytes.len());
            bytes[i] = src.u8();
        }
        2 => bytes.truncate(src.index(bytes.len() + 1)),
        _ => {
            let i = src.index(bytes.len() + 1);
            bytes.insert(i, src.u8());
        }
    }
}

/// How many `Message` variants there are: the arms of
/// [`generator_index`] number them `0..VARIANTS`.
const VARIANTS: usize = 20;

/// The arm of [`arbitrary_message`] that draws each variant. There is
/// no `_` arm, so a new variant does not compile until it is given an
/// index here, and with it a generator arm.
fn generator_index(msg: &Message) -> usize {
    match msg {
        Message::Hello { .. } => 0,
        Message::HelloAck { .. } => 1,
        Message::RequestShard => 2,
        Message::Assign { .. } => 3,
        Message::Wait { .. } => 4,
        Message::Heartbeat { .. } => 5,
        Message::HeartbeatAck { .. } => 6,
        Message::Submit(_) => 7,
        Message::SubmitAck { .. } => 8,
        Message::Error { .. } => 9,
        Message::SubmitJob { .. } => 10,
        Message::Accepted { .. } => 11,
        Message::Rejected { .. } => 12,
        Message::Cancel { .. } => 13,
        Message::Cancelled { .. } => 14,
        Message::Chunk { .. } => 15,
        Message::Done { .. } => 16,
        Message::Failed { .. } => 17,
        Message::QueryStats => 18,
        Message::Stats { .. } => 19,
    }
}

/// An arbitrary message of either conversation, every variant drawn,
/// for the round-trip property and the decoder fuzz.
fn arbitrary_message(src: &mut Source) -> Message {
    let arm = src.index(VARIANTS);
    let msg = match arm {
        0 => Message::Hello {
            version: src.u64() as u16,
            tenant: src.lowercase_string(0, 16),
        },
        1 => Message::HelloAck {
            id: src.u64() as u32,
        },
        2 => Message::RequestShard,
        3 => Message::Assign {
            shard: Shard {
                id: src.u64() as u32,
                start: src.below(1 << 40),
                len: src.range_u64(1, 1 << 20),
            },
            job: Box::new(arbitrary_job(src)),
            lease_ms: src.u64(),
            heartbeat_ms: src.u64(),
        },
        4 => Message::Wait {
            ms: src.u64(),
            done: src.bool(),
        },
        5 => Message::Heartbeat {
            shard: src.u64() as u32,
        },
        6 => Message::HeartbeatAck {
            current: src.bool(),
        },
        7 => Message::Submit(SubmitWire {
            worker: src.u64() as u32,
            shard: src.u64() as u32,
            golden: arbitrary_golden(src),
            forward: src.u64(),
            restores: src.u64(),
            runs: (0..src.index(4))
                .map(|_| RunWire {
                    sample: src.u64(),
                    record: arbitrary_record(src),
                    recorder: arbitrary_recorder(src),
                })
                .collect(),
        }),
        8 => Message::SubmitAck {
            accepted: src.bool(),
        },
        9 => Message::Error {
            message: src.lowercase_string(0, 64),
        },
        10 => Message::SubmitJob {
            req: src.u64(),
            priority: src.u64() as u32,
            job: arbitrary_job(src),
        },
        11 => Message::Accepted {
            req: src.u64(),
            ticket: src.u64(),
            dedup: src.bool(),
            queue_depth: src.u64(),
        },
        12 => Message::Rejected {
            req: src.u64(),
            reason: src.lowercase_string(0, 64),
            queue_depth: src.u64(),
        },
        13 => Message::Cancel { ticket: src.u64() },
        14 => Message::Cancelled { ticket: src.u64() },
        15 => Message::Chunk {
            ticket: src.u64(),
            start: src.u64(),
            records: (0..src.index(8)).map(|_| arbitrary_record(src)).collect(),
        },
        16 => Message::Done {
            ticket: src.u64(),
            golden: arbitrary_golden(src),
            merged: arbitrary_recorder(src),
            engine: arbitrary_recorder(src),
        },
        17 => Message::Failed {
            ticket: src.u64(),
            reason: src.lowercase_string(0, 64),
        },
        18 => Message::QueryStats,
        _ => Message::Stats {
            recorder: arbitrary_recorder(src),
        },
    };
    assert_eq!(generator_index(&msg), arm, "arm {arm} drew {msg:?}");
    msg
}

fn arbitrary_golden(src: &mut Source) -> GoldenRef {
    GoldenRef {
        digest: src.u64(),
        cycles: src.u64(),
    }
}

fn arbitrary_record(src: &mut Source) -> InjectionRecord {
    let opt = |src: &mut Source| src.bool().then(|| src.u64());
    InjectionRecord {
        outcome: Outcome::ALL[src.index(Outcome::ALL.len())],
        bit: src.below(1 << 20) as usize,
        inject_cycle: src.u64(),
        cosim_cycles: src.u64(),
        erroneous_output_cycle: opt(src),
        propagation_latency: opt(src),
        corrupted_line_count: src.below(64) as usize,
        rollback_distance: opt(src),
    }
}

/// A null recorder, or an active one holding counters, histograms and
/// trace events under schema names; the events may overrun the ring.
fn arbitrary_recorder(src: &mut Source) -> Recorder {
    if src.bool() {
        return Recorder::null();
    }
    let mut rec = Recorder::active(&TelemetryConfig {
        trace_capacity: src.index(8),
    });
    let name = |src: &mut Source| names::ALL[src.index(names::ALL.len())];
    for _ in 0..src.index(4) {
        // Below 2^32, so counts folded into one name cannot overflow.
        rec.count(name(src), src.below(1 << 32));
    }
    for _ in 0..src.index(4) {
        let hist = name(src);
        for _ in 0..src.range_usize_inclusive(1, 4) {
            rec.record_hist(hist, src.u64());
        }
    }
    for _ in 0..src.index(12) {
        let component = names::COMPONENTS[src.index(names::COMPONENTS.len())];
        let kind = EventKind::ALL[src.index(EventKind::ALL.len())];
        rec.event(src.u64(), component, kind, src.u64());
    }
    rec
}

fn arbitrary_job(src: &mut Source) -> JobWire {
    JobWire {
        benchmark: src.lowercase_string(1, 8),
        spec: CampaignSpec {
            component: ComponentKind::ALL[src.index(ComponentKind::ALL.len())],
            samples: src.below(10_000),
            seed: src.u64(),
            length_scale: src.range_u64(1, 1_000),
            cosim_cap: src.range_u64(1, 200_000),
            check_interval: src.range_u64(1, 64),
            workers: 1,
            snapshot_interval: src.range_u64(1, 10_000),
            lane_cluster: src.range_u64(1, 64),
            lane_width: src.range_u64(1, 64),
        },
        telemetry: src.bool().then(|| TelemetryConfig {
            trace_capacity: src.index(10_000),
        }),
        adaptive: if src.bool() {
            Some(AdaptiveRoundWire {
                start: [src.u64(), src.u64(), src.u64()],
                alloc: [src.u64(), src.u64(), src.u64()],
            })
        } else {
            None
        },
    }
}

properties! {
    /// Every position in `0..total` lands in exactly one shard, shard
    /// ids are dense and in position order, and no shard is empty.
    fn shard_plan_is_an_exact_cover(src) {
        let total = src.range_u64(1, 4_096);
        let shard_size = src.range_u64(1, total + 8);
        let shards = plan_shards(total, shard_size);
        let mut seen = vec![0u32; total as usize];
        for (k, s) in shards.iter().enumerate() {
            assert_eq!(s.id as usize, k, "shard ids must be dense");
            assert!(s.len > 0, "no empty shards");
            assert!(s.len <= shard_size);
            for pos in s.range() {
                seen[pos as usize] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "shard plan must cover every position exactly once"
        );
        // Position order: shard k ends where shard k+1 begins.
        for w in shards.windows(2) {
            assert_eq!(w[0].start + w[0].len, w[1].start);
        }
    }

    /// The cover is permutation-invariant: whatever order shards
    /// complete in (crash re-dispatch reorders them arbitrarily),
    /// assembling by position touches each sample index exactly once
    /// and reproduces the identity permutation after sorting.
    fn shard_cover_is_permutation_invariant(src) {
        let total = src.range_u64(1, 2_048);
        let workers = src.range_usize_inclusive(1, 32);
        let mut shards = plan_shards(total, auto_shard_size(total, workers));
        shuffle(src, &mut shards);
        let mut assembled: Vec<u64> = Vec::with_capacity(total as usize);
        for s in &shards {
            assembled.extend(s.range());
        }
        assembled.sort_unstable();
        let identity: Vec<u64> = (0..total).collect();
        assert_eq!(
            assembled, identity,
            "re-assembly must be the identity permutation for any completion order"
        );
    }

    /// Auto shard sizing always yields a valid plan with enough shards
    /// to keep every worker busy (when there are enough samples).
    fn auto_shard_size_keeps_workers_busy(src) {
        let total = src.range_u64(1, 100_000);
        let workers = src.range_usize_inclusive(1, 128);
        let size = auto_shard_size(total, workers);
        assert!(size >= 1);
        let shards = plan_shards(total, size);
        let covered: u64 = shards.iter().map(|s| s.len).sum();
        assert_eq!(covered, total);
        if total >= workers as u64 {
            assert!(
                shards.len() >= workers,
                "{} shards cannot feed {workers} workers ({total} samples)",
                shards.len()
            );
        }
    }

    /// Messages of both conversations survive the wire byte-exactly —
    /// encode then decode is the identity for arbitrary field values.
    fn control_messages_roundtrip(src) {
        for _ in 0..8 {
            let msg = arbitrary_message(src);
            let decoded = Message::decode(&msg.encode().expect("encode")).expect("decode");
            assert_eq!(decoded, msg);
        }
    }

    /// An empty submission (the degenerate data-plane frame) also
    /// round-trips; full submissions with records and recorders are
    /// covered by the cluster crate's unit tests and the end-to-end
    /// byte-identity tests.
    fn empty_submit_roundtrips(src) {
        let msg = Message::Submit(SubmitWire {
            worker: src.u64() as u32,
            shard: src.u64() as u32,
            golden: arbitrary_golden(src),
            forward: src.u64(),
            restores: src.u64(),
            runs: Vec::new(),
        });
        let decoded = Message::decode(&msg.encode().expect("encode")).expect("decode");
        assert_eq!(decoded, msg);
    }

    /// Fuzz the payload decoder: random byte-level corruption of a
    /// valid encoded message — bit flips, truncation, insertions,
    /// overwrites — must never panic `Message::decode`. Every mutant
    /// yields `Ok` or `Err`, and a mutant that still decodes is a real
    /// message, so it must re-encode cleanly.
    fn corrupted_payloads_never_panic_the_decoder(src) {
        let msg = arbitrary_message(src);
        let mut bytes = msg.encode().expect("encode");
        for _ in 0..src.range_usize_inclusive(1, 8) {
            mutate(src, &mut bytes);
        }
        if let Ok(decoded) = Message::decode(&bytes) {
            decoded.encode().expect("a decoded message must re-encode");
        }
    }

    /// Fuzz the framing layer the same way: corrupting the header or
    /// body of a valid frame must yield `Ok` or an `io::Error` from
    /// `read_frame`, never a panic — and never an attempt to allocate
    /// a payload larger than the frame cap.
    fn corrupted_frames_never_panic_the_reader(src) {
        let payload_len = src.index(64);
        let payload: Vec<u8> = (0..payload_len).map(|_| src.u8()).collect();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("write_frame");
        for _ in 0..src.range_usize_inclusive(1, 8) {
            mutate(src, &mut framed);
        }
        let _ = read_frame(&mut &framed[..]);
    }

    /// First-writer-wins is exactly-once under *any* interleaving of
    /// acquire, heartbeat, expiry, disconnect-release, and duplicate
    /// completion on a deterministic clock: every shard is accepted
    /// exactly once, never double-counted, never dropped.
    fn lease_table_is_exactly_once_under_chaos(src) {
        let shards = src.range_usize_inclusive(1, 12);
        let cfg = LeaseConfig {
            lease_ms: src.range_u64(5, 60),
            heartbeat_ms: src.range_u64(1, 10),
            backoff_ms: src.range_u64(1, 12),
        };
        let mut table = LeaseTable::new(shards, cfg);
        let workers = src.range_u64(1, 5) as u32;
        let mut now = 0u64;
        let mut accepted = vec![0u32; shards];
        let record_accept = |accepted: &mut [u32], shard: u32| {
            let shard = shard as usize;
            accepted[shard] += 1;
            assert_eq!(
                accepted[shard], 1,
                "shard {shard} accepted twice — double count"
            );
        };
        for _ in 0..src.range_usize_inclusive(20, 200) {
            if table.all_done() {
                break;
            }
            // Sometimes jump past the lease (forcing expiry), mostly
            // crawl within it.
            now += src.below(2 * cfg.lease_ms);
            match src.index(5) {
                0 | 1 => {
                    let got = table.acquire(src.below(workers as u64) as u32, now);
                    if let Grant::Shard { id, .. } = got.grant {
                        assert_eq!(
                            accepted[id as usize], 0,
                            "granted a shard that already completed"
                        );
                    }
                }
                2 => {
                    // Heartbeat an arbitrary (worker, shard) pair —
                    // stale holders and unknown shards must be refused,
                    // never corrupted.
                    let _ = table.heartbeat(
                        src.below(workers as u64) as u32,
                        src.below(shards as u64 + 2) as u32,
                        now,
                    );
                }
                3 => {
                    // Complete an arbitrary shard — including ones the
                    // "wrong" worker holds (an expired lease's late
                    // submission) and already-done ones (a duplicate).
                    let shard = src.below(shards as u64) as u32;
                    match table.complete(shard, now) {
                        Completion::Accepted { .. } => record_accept(&mut accepted, shard),
                        Completion::Duplicate => assert_eq!(
                            accepted[shard as usize], 1,
                            "duplicate verdict on a never-accepted shard"
                        ),
                    }
                }
                _ => {
                    let _ = table.release_worker(src.below(workers as u64) as u32, now);
                }
            }
        }
        // Drain: whatever chaos happened, every remaining shard must
        // still be dispatchable and complete exactly once — nothing
        // lost.
        let mut stalls = 0;
        while !table.all_done() {
            stalls += 1;
            assert!(stalls < 10_000, "campaign cannot drain: a shard was lost");
            match table.acquire(0, now).grant {
                Grant::Shard { id, .. } => {
                    assert_eq!(accepted[id as usize], 0, "re-granted a completed shard");
                    match table.complete(id, now) {
                        Completion::Accepted { .. } => record_accept(&mut accepted, id),
                        Completion::Duplicate => panic!("fresh grant completed as duplicate"),
                    }
                }
                Grant::Wait { ms } => now += ms.max(1),
                Grant::Done => break,
            }
        }
        assert!(table.all_done());
        assert_eq!(table.completed(), shards);
        assert!(
            accepted.iter().all(|&c| c == 1),
            "exactly-once violated: {accepted:?}"
        );
    }

    /// The targeted exactly-once race: a lease expires mid-flight, the
    /// shard is re-dispatched, and *both* holders submit — in either
    /// order. Exactly one submission is accepted, whatever the
    /// timings.
    fn late_completion_after_redispatch_is_deduped(src) {
        let cfg = LeaseConfig {
            lease_ms: src.range_u64(5, 60),
            heartbeat_ms: src.range_u64(1, 10),
            backoff_ms: src.range_u64(1, 12),
        };
        let mut table = LeaseTable::new(1, cfg);
        assert!(matches!(
            table.acquire(1, 0).grant,
            Grant::Shard { id: 0, redispatch: false }
        ));
        // Jump past worker 1's deadline, then past the re-dispatch
        // backoff, until worker 2 holds the shard.
        let mut now = cfg.lease_ms + src.below(cfg.lease_ms);
        let mut stalls = 0;
        loop {
            match table.acquire(2, now).grant {
                Grant::Shard { id: 0, redispatch } => {
                    assert!(redispatch, "second grant must be a re-dispatch");
                    break;
                }
                Grant::Wait { ms } => now += ms.max(1),
                other => panic!("unexpected grant: {other:?}"),
            }
            stalls += 1;
            assert!(stalls < 1_000, "re-dispatch never happened");
        }
        // Both holders submit at random times; shard-id dedupe makes
        // the order irrelevant — whichever lands first wins.
        now += src.below(cfg.lease_ms);
        let first = table.complete(0, now);
        now += src.below(cfg.lease_ms);
        let second = table.complete(0, now);
        assert!(matches!(first, Completion::Accepted { .. }));
        assert_eq!(second, Completion::Duplicate);
        assert!(table.all_done());
        assert_eq!(table.completed(), 1);
    }
}
