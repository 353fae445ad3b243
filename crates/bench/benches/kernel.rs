//! Simulation-kernel hot paths: bit-state operations and per-cycle
//! component ticks. These rates bound the co-simulation mode's
//! cycles/second (Table 2's "steps 3–10" row).
//!
//! Runs on the in-repo `nestsim-harness` bench runner and writes
//! `BENCH_kernel.json` at the workspace root.

use std::collections::VecDeque;
use std::hint::black_box;

use nestsim_arch::{DramContents, L2BankArch, L2Geometry};
use nestsim_core::cosim::{bank_reply_due, COSIM_DRAM_LATENCY};
use nestsim_harness::bench::Suite;
use nestsim_hlsim::events::{Ev, EventQueue};
use nestsim_hlsim::system::{DMA_FRAME_CYCLES, L2_HIT_LATENCY, L2_MISS_LATENCY, POLL_RETRY};
use nestsim_hlsim::workload::by_name;
use nestsim_hlsim::{System, SystemConfig};
use nestsim_models::ccx::{CcxInputs, CcxOutputs, CcxWarm};
use nestsim_models::fields::{shift_queue_down, Guard};
use nestsim_models::l2c::{L2cInputs, L2cOutputs, L2cWarm};
use nestsim_models::mcu::{McuInputs, McuOutputs, McuWarm};
use nestsim_models::{Ccx, L2cBank, Mcu, Pcie, UncoreRtl};
use nestsim_proto::addr::{BankId, McuId, PAddr, ThreadId, NUM_CORES, NUM_L2_BANKS};
use nestsim_proto::{CpxPacket, DramCmd, DramCmdKind, DramResp, PcxKind, PcxPacket, ReqId};
use nestsim_rtl::{BitBuf, FlopClass, FlopSpace, FlopSpaceBuilder};

fn bitbuf_ops(suite: &mut Suite) {
    let mut buf = BitBuf::zeroed(32 * 1024);
    suite.bench("kernel/bitbuf", "read_bits_64", || {
        black_box(buf.read_bits(black_box(12_345), 64))
    });
    suite.bench("kernel/bitbuf", "write_bits_64", || {
        buf.write_bits(black_box(12_345), 64, black_box(0xdead_beef))
    });
    // One packet slot (a 139-bit PCX entry) at an unaligned offset.
    suite.bench("kernel/bitbuf", "read_span_139", || {
        black_box(buf.read_span(black_box(12_345), 139))
    });
    suite.bench("kernel/bitbuf", "write_span_139", || {
        buf.write_span(
            black_box(12_345),
            139,
            black_box([0xdead_beef, 0xfeed, 0x7ff]),
        )
    });
    let other = BitBuf::zeroed(32 * 1024);
    suite.bench("kernel/bitbuf", "diff_count_32k", || {
        black_box(buf.diff_count(&other))
    });
}

fn pcx(i: u64) -> PcxPacket {
    PcxPacket {
        id: ReqId(i + 1),
        thread: ThreadId::new((i % 64) as usize),
        kind: if i.is_multiple_of(3) {
            PcxKind::Store
        } else {
            PcxKind::Load
        },
        addr: PAddr::new(0x1000_0000 + (i % 512) * 8 * 64),
        data: i,
    }
}

fn component_ticks(suite: &mut Suite) {
    // `l2c_active` is the flop-level bank of an injection's
    // co-simulation window; `l2c_warm` is the same traffic on the
    // slot-image bank an injection warms up on.
    l2c_active(suite, "l2c_active", L2cBank::new(BankId::new(0)));
    let arch = L2BankArch::for_bank(L2Geometry::default(), 0);
    l2c_active(suite, "l2c_warm", L2cWarm::new(BankId::new(0), arch));

    // The bank as it spends most co-simulated cycles: one miss on its
    // DRAM round trip, nothing arriving, nothing to do — a settled tick.
    let mut bank = L2cBank::new(BankId::new(0));
    bank.tick(&L2cInputs {
        pcx: Some(pcx(1)),
        dram_resp: None,
    });
    for _ in 0..16 {
        bank.tick(&L2cInputs::default());
    }
    assert!(!bank.idle() && !bank.flops().changed());
    suite.bench("kernel/tick", "l2c_settled", || {
        black_box(bank.tick(black_box(&L2cInputs::default())))
    });

    // `mcu_warm` is the same stimulus on the plain-field controller an
    // injection warms up on and returns to when its golden retires.
    mcu_fills(suite, "mcu", Mcu::new(McuId::new(0)));
    mcu_fills(suite, "mcu_warm", McuWarm::new(McuId::new(0)));

    let mut mem = DramContents::new();

    let mut ccx = Ccx::new();
    let ready = [true; 8];
    let mut k = 0u64;
    suite.bench("kernel/tick", "ccx", || {
        let mut inp = CcxInputs::default();
        let core = (k % 8) as usize;
        if ccx.core_ready(core) {
            inp.from_cores[core] = Some(pcx(k));
        }
        k += 1;
        black_box(ccx.tick(&inp, &ready))
    });

    // `ccx_loaded` saturates the flop-level crossbar; `ccx_cosim` offers
    // at the rate counted in a `ccx_indep` campaign (0.74 requests and
    // 0.71 returns a tick over 420,000 co-simulated cycles, a quarter of
    // the requests L2 hits), the tick of an injection's co-simulation
    // window while its golden lives. `ccx_warm` is that same traffic on
    // the packet crossbar an injection warms up on and returns to when
    // its golden retires.
    ccx_closed_loop(suite, "ccx_loaded", Ccx::new(), 256);
    ccx_closed_loop(suite, "ccx_cosim", Ccx::new(), 24);
    ccx_closed_loop(suite, "ccx_warm", CcxWarm::new(), 24);

    let mut pcie = Pcie::new();
    pcie.program(nestsim_proto::pcie::DmaDescriptor {
        dst: nestsim_proto::addr::region::INPUT_BASE,
        len: 1 << 26,
        stream_seed: 7,
    });
    suite.bench("kernel/tick", "pcie", || black_box(pcie.tick(&mut mem)));
}

/// The bank models `l2c_active` drives: flops and images.
trait Bank {
    fn ready(&self) -> bool;
    fn tick(&mut self, inp: &L2cInputs) -> L2cOutputs;
}

impl Bank for L2cBank {
    fn ready(&self) -> bool {
        L2cBank::ready(self)
    }
    fn tick(&mut self, inp: &L2cInputs) -> L2cOutputs {
        L2cBank::tick(self, inp)
    }
}

impl Bank for L2cWarm {
    fn ready(&self) -> bool {
        L2cWarm::ready(self)
    }
    fn tick(&mut self, inp: &L2cInputs) -> L2cOutputs {
        L2cWarm::tick(self, inp)
    }
}

/// The bank as an L2C campaign drives it (`L2cDriver::step`): a request
/// offered whenever the input queue has room, every fill answered after
/// the co-simulation DRAM latency, so the pipeline, the miss buffer and
/// both queues stay busy and no tick settles.
fn l2c_active(suite: &mut Suite, name: &str, mut bank: impl Bank) {
    let mut fills: VecDeque<(u64, DramCmd)> = VecDeque::new();
    let (mut cyc, mut i) = (0u64, 0u64);
    suite.bench("kernel/tick", name, || {
        cyc += 1;
        let due = fills.front().is_some_and(|(due, _)| *due <= cyc);
        let inp = L2cInputs {
            pcx: bank.ready().then(|| pcx(i)),
            dram_resp: due
                .then(|| fills.pop_front().unwrap().1)
                .map(|cmd| DramResp {
                    tag: cmd.tag,
                    bank: cmd.bank,
                    line: cmd.line,
                    data: [cyc; 8],
                    is_writeback_ack: false,
                }),
        };
        i += 1;
        let out = bank.tick(&inp);
        if let Some(cmd) = out.dram_cmd.clone() {
            if cmd.kind == DramCmdKind::Fill {
                fills.push_back((cyc + COSIM_DRAM_LATENCY, cmd));
            }
        }
        black_box(out)
    });
}

/// The controller models `mcu_fills` drives: flops and plain fields.
trait Controller {
    fn ready(&self, is_writeback: bool) -> bool;
    fn tick(&mut self, inp: &McuInputs, mem: &mut DramContents) -> McuOutputs;
}

impl Controller for Mcu {
    fn ready(&self, is_writeback: bool) -> bool {
        Mcu::ready(self, is_writeback)
    }
    fn tick(&mut self, inp: &McuInputs, mem: &mut DramContents) -> McuOutputs {
        Mcu::tick(self, inp, mem)
    }
}

impl Controller for McuWarm {
    fn ready(&self, is_writeback: bool) -> bool {
        McuWarm::ready(self, is_writeback)
    }
    fn tick(&mut self, inp: &McuInputs, mem: &mut DramContents) -> McuOutputs {
        McuWarm::tick(self, inp, mem)
    }
}

/// A fill offered whenever the request queue has room, over 512 lines
/// of one DRAM bank's rows.
fn mcu_fills(suite: &mut Suite, name: &str, mut mcu: impl Controller) {
    let mut mem = DramContents::new();
    let mut step = mcu_stimulus();
    suite.bench("kernel/tick", name, || black_box(step(&mut mcu, &mut mem)));
}

fn mcu_stimulus<C: Controller>() -> impl FnMut(&mut C, &mut DramContents) -> McuOutputs {
    let mut j = 0u64;
    move |mcu, mem| {
        let inp = McuInputs {
            cmd: mcu.ready(false).then(|| {
                DramCmd::fill(
                    (j % 200) as u32,
                    BankId::new(0),
                    nestsim_proto::LineAddr::new((j % 512) * 8),
                )
            }),
        };
        j += 1;
        mcu.tick(&inp, mem)
    }
}

/// The crossbar models `ccx_closed_loop` drives: flops and images.
trait Crossbar {
    fn core_ready(&self, c: usize) -> bool;
    fn bank_ready(&self, k: usize) -> bool;
    fn tick(&mut self, inp: &CcxInputs, ready: &[bool; NUM_L2_BANKS]) -> CcxOutputs;
}

impl Crossbar for Ccx {
    fn core_ready(&self, c: usize) -> bool {
        Ccx::core_ready(self, c)
    }
    fn bank_ready(&self, k: usize) -> bool {
        Ccx::bank_ready(self, k)
    }
    fn tick(&mut self, inp: &CcxInputs, ready: &[bool; NUM_L2_BANKS]) -> CcxOutputs {
        Ccx::tick(self, inp, ready)
    }
}

impl Crossbar for CcxWarm {
    fn core_ready(&self, c: usize) -> bool {
        CcxWarm::core_ready(self, c)
    }
    fn bank_ready(&self, k: usize) -> bool {
        CcxWarm::bank_ready(self, k)
    }
    fn tick(&mut self, inp: &CcxInputs, ready: &[bool; NUM_L2_BANKS]) -> CcxOutputs {
        CcxWarm::tick(self, inp, ready)
    }
}

/// Times `ccx`'s tick in [`closed_loop`].
fn ccx_closed_loop<X: Crossbar>(suite: &mut Suite, name: &str, mut ccx: X, offer_per_256: u64) {
    let mut step = closed_loop(offer_per_256);
    suite.bench("kernel/tick", name, || black_box(step(&mut ccx)));
}

/// One cycle of the crossbar in `CcxDriver::step`'s closed loop:
/// requests *and* returns in flight, to banks scattered so the arbiters
/// contend, and every delivered request coming back on its bank port
/// when `cosim::bank_reply_due` says: a quarter of them hits. `tick/ccx`
/// offers one request a cycle and no returns, which arbitration barely
/// notices. Each core offers with probability `offer_per_256`/256 a
/// cycle when its FIFO has room.
fn closed_loop<X: Crossbar>(offer_per_256: u64) -> impl FnMut(&mut X) -> CcxOutputs {
    let ready = [true; NUM_L2_BANKS];
    // Each bank's replies to hits and to misses, each queue in due order.
    let mut bank_q: [[VecDeque<(u64, CpxPacket)>; 2]; NUM_L2_BANKS] = Default::default();
    let (mut cyc, mut n) = (0u64, 0u64);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    move |ccx| {
        cyc += 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut inp = CcxInputs::default();
        for c in 0..NUM_CORES {
            if (x >> (8 * c)) & 0xff < offer_per_256 && ccx.core_ready(c) {
                n += 1;
                inp.from_cores[c] = Some(PcxPacket {
                    thread: ThreadId::new(c * 8 + (n % 8) as usize),
                    addr: PAddr::new(0x1000_0000 + (n.wrapping_mul(0x9e37_79b9) >> 7) % 4096 * 64),
                    ..pcx(n)
                });
            }
        }
        for (k, [hits, misses]) in bank_q.iter_mut().enumerate() {
            let due = |q: &VecDeque<(u64, CpxPacket)>| q.front().map_or(u64::MAX, |(d, _)| *d);
            let q = if due(misses) <= due(hits) {
                misses
            } else {
                hits
            };
            if due(q) <= cyc && ccx.bank_ready(k) {
                inp.from_banks[k] = q.pop_front().map(|(_, p)| p);
            }
        }
        let out = ccx.tick(&inp, &ready);
        for (qs, p) in bank_q.iter_mut().zip(&out.to_banks) {
            if let Some(p) = p {
                let resident = p.id.0.is_multiple_of(4);
                let reply = (
                    bank_reply_due(cyc, resident),
                    CpxPacket::reply_to(p, p.data),
                );
                qs[usize::from(!resident)].push_back(reply);
            }
        }
        out
    }
}

/// A queue of `depth` packed slots (valid bit, then `leaves`, then
/// `words` 64-bit words) after `pad` bits, so it sits where the real
/// one does in its component's flop space.
fn queue(pad: usize, depth: usize, leaves: &[usize], words: usize) -> (FlopSpace, Vec<Guard>) {
    let mut b = FlopSpaceBuilder::new("queue");
    b.field_array("pad", pad / 64, 64, FlopClass::Inactive);
    if !pad.is_multiple_of(64) {
        b.field("pad.tail", pad % 64, FlopClass::Inactive);
    }
    let guards = (0..depth)
        .map(|i| {
            let valid = b.field(format!("q[{i}].valid"), 1, FlopClass::Target);
            let start = b.declared_bits();
            for (l, &width) in leaves.iter().enumerate() {
                b.field(format!("q[{i}].f{l}"), width, FlopClass::Target);
            }
            b.field_array(&format!("q[{i}].w"), words, 64, FlopClass::Target);
            let end = b.declared_bits();
            Guard { valid, start, end }
        })
        .collect();
    (b.build(), guards)
}

fn queue_pops(suite: &mut Suite) {
    // One head pop of a collapsing queue; the cost does not depend on
    // what the slots hold. Shapes and offsets are the real ones (the
    // models' `flop_layout_is_pinned` tests spell them out).
    let (mut f, guards) = queue(0, 8, &[2, 6, 32, 34, 64], 0);
    assert_eq!(guards[7].end, 8 * 139);
    suite.bench("kernel/queue_pop", "l2c_iq", || {
        shift_queue_down(&mut f, black_box(&guards))
    });
    let (mut f, guards) = queue(8 * 43 + 4 + 4 * 513, 4, &[8, 3, 28, 1], 8);
    assert_eq!(guards[3].end - guards[0].start + 1, 4 * 553);
    suite.bench("kernel/queue_pop", "mcu_retq", || {
        shift_queue_down(&mut f, black_box(&guards))
    });
}

fn attaches(suite: &mut Suite) {
    // Building the model a driver attaches. The PCIe engine is a copy
    // of its per-process flop prototype; the crossbar, the L2 bank and
    // the DRAM controller attach as their fault-free models (the bank
    // with its transferred arrays) and build their flops only at the
    // golden snapshot.
    let arch = L2BankArch::for_bank(L2Geometry::default(), 0);
    suite.bench("kernel/attach", "l2c", || {
        black_box(L2cWarm::new(BankId::new(0), arch.clone()))
    });
    suite.bench("kernel/attach", "mcu", || {
        black_box(McuWarm::new(McuId::new(0)))
    });
    suite.bench("kernel/attach", "ccx", || black_box(CcxWarm::new()));
    suite.bench("kernel/attach", "pcie", || black_box(Pcie::new()));
}

fn snapshots(suite: &mut Suite) {
    // Fig. 2 step 1 from a positioned shard cursor: `radi`/100 at cycle
    // 2,000, its pages shared as `ShardWalk::seek` leaves them. `clone`
    // restores into a new system; `clone_from` refills one that an
    // injection ran to the end, the restore of every injection of a
    // shard but the first.
    let mut cursor = System::new(SystemConfig {
        length_scale: 100,
        ..SystemConfig::new(by_name("radi").unwrap())
    });
    cursor.run_until(2_000);
    cursor.share_pages();
    suite.bench("kernel/snapshot", "clone", || black_box(cursor.clone()));
    let mut spare = cursor.clone();
    spare.run_to_end();
    suite.bench("kernel/snapshot", "clone_from", || {
        spare.clone_from(black_box(&cursor));
        black_box(spare.cycle())
    });

    // The walk between two entries of a shard: a `flui`/20 cursor that
    // shared its pages at an entry, had one system refilled from it and
    // released, then runs the 2,000 cycles to the next entry — writing
    // in place into the pages it shared. Each iteration first puts the
    // cursor there: a refill from the rung at cycle 20,000 and the
    // 2,000 cycles that dirty its pages.
    let mut rung = System::new(SystemConfig {
        length_scale: 20,
        ..SystemConfig::new(by_name("flui").unwrap())
    });
    rung.run_until(20_000);
    rung.share_pages();
    let (mut cursor, mut group) = (rung.clone(), rung.clone());
    suite.bench("kernel/snapshot", "advance", || {
        cursor.clone_from(&rung);
        cursor.run_until(22_000);
        cursor.share_pages();
        group.clone_from(&cursor);
        group.release_pages();
        cursor.run_until(24_000);
        black_box(cursor.dram().backed_lines())
    });
}

fn golden_compare(suite: &mut Suite) {
    // The per-check cost of the Fig. 2 step-7 comparison.
    let bank = L2cBank::new(BankId::new(0));
    let golden = bank.clone();
    suite.bench("kernel/golden_compare", "l2c_flop_diff", || {
        black_box(bank.flops().diff_count(golden.flops()))
    });
    suite.bench("kernel/golden_compare", "l2c_arch_diff", || {
        black_box(bank.arch().differs(golden.arch()))
    });
}

fn accelerated_mode(suite: &mut Suite) {
    // A whole accelerated run, the unit the golden pass, ladder
    // forward-sim and every run-to-end are made of: `radi` is short and
    // barrier-heavy, `flui` is 130K cycles of mostly L2 misses.
    for (name, bench, length_scale) in [
        ("radi100_run_to_end", "radi", 100),
        ("flui20_run_to_end", "flui", 20),
    ] {
        let base = System::new(SystemConfig {
            length_scale,
            ..SystemConfig::new(by_name(bench).unwrap())
        });
        suite.bench("kernel/accel", name, || {
            black_box(base.clone().run_to_end())
        });
    }

    // One pop and one push on a queue holding one wake per hardware
    // thread, with the delays the simulator schedules in the mix of a
    // miss-bound run (`flui`'s `compute_per_op`; three in four accesses
    // miss), the rare DMA frame and poll retry included.
    let compute = by_name("flui").unwrap().compute_per_op as u64;
    let (miss, hit) = (L2_MISS_LATENCY + compute, L2_HIT_LATENCY + compute);
    let deltas = [
        miss,
        miss,
        hit,
        miss,
        miss,
        1 + compute,
        miss,
        miss,
        hit,
        miss,
        DMA_FRAME_CYCLES,
        miss,
        miss,
        POLL_RETRY,
        miss,
        miss,
    ];
    let mut queue = EventQueue::default();
    for t in 0..64u8 {
        queue.push(u64::from(t % 8), Ev::Wake(t));
    }
    let mut i = 0;
    suite.bench("kernel/event_queue", "push_pop", || {
        let (cycle, ev) = queue.pop().expect("64 events are live");
        i = (i + 1) % deltas.len();
        queue.push(cycle + deltas[i], ev);
        black_box(cycle)
    });
}

fn main() {
    let mut suite = Suite::new("kernel");
    bitbuf_ops(&mut suite);
    component_ticks(&mut suite);
    queue_pops(&mut suite);
    attaches(&mut suite);
    golden_compare(&mut suite);
    accelerated_mode(&mut suite);
    // Last: freeing their 256 KiB page chunks shifts glibc's heap
    // thresholds, and `kernel/accel`'s clone-run-drop loop read 1.3x
    // slower when it ran after them.
    snapshots(&mut suite);
    suite.finish();
}
