//! Simulation-kernel hot paths: bit-state operations and per-cycle
//! component ticks. These rates bound the co-simulation mode's
//! cycles/second (Table 2's "steps 3–10" row).
//!
//! Runs on the in-repo `nestsim-harness` bench runner and writes
//! `BENCH_kernel.json` at the workspace root (`--smoke` or
//! `NESTSIM_BENCH_SMOKE=1` for the 1-iteration CI gate).

use std::collections::VecDeque;
use std::hint::black_box;

use nestsim_arch::DramContents;
use nestsim_core::cosim::COSIM_BANK_LATENCY;
use nestsim_harness::bench::Suite;
use nestsim_models::ccx::CcxInputs;
use nestsim_models::l2c::L2cInputs;
use nestsim_models::mcu::McuInputs;
use nestsim_models::{Ccx, L2cBank, Mcu, Pcie, UncoreRtl};
use nestsim_proto::addr::{BankId, McuId, PAddr, ThreadId, NUM_CORES, NUM_L2_BANKS};
use nestsim_proto::{CpxPacket, PcxKind, PcxPacket, ReqId};
use nestsim_rtl::BitBuf;

fn bitbuf_ops(suite: &mut Suite) {
    let mut buf = BitBuf::zeroed(32 * 1024);
    suite.bench("kernel/bitbuf", "read_bits_64", || {
        black_box(buf.read_bits(black_box(12_345), 64))
    });
    suite.bench("kernel/bitbuf", "write_bits_64", || {
        buf.write_bits(black_box(12_345), 64, black_box(0xdead_beef))
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
    let mut bank = L2cBank::new(BankId::new(0));
    let mut i = 0u64;
    suite.bench("kernel/tick", "l2c", || {
        let inp = L2cInputs {
            pcx: if bank.ready() { Some(pcx(i)) } else { None },
            dram_resp: None,
        };
        i += 1;
        black_box(bank.tick(&inp))
    });

    let mut mcu = Mcu::new(McuId::new(0));
    let mut mem = DramContents::new();
    let mut j = 0u64;
    suite.bench("kernel/tick", "mcu", || {
        let inp = McuInputs {
            cmd: if mcu.ready(false) {
                Some(nestsim_proto::DramCmd::fill(
                    (j % 200) as u32,
                    BankId::new(0),
                    nestsim_proto::LineAddr::new((j % 512) * 8),
                ))
            } else {
                None
            },
        };
        j += 1;
        black_box(mcu.tick(&inp, &mut mem))
    });

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

    // The crossbar as a CCX campaign drives it (`CcxDriver::step`):
    // requests *and* returns in flight, saturated — every core offers
    // whenever its FIFO has room, to banks scattered so the arbiters
    // contend, and every delivered request comes back on its bank port
    // after the functional-bank latency. `tick/ccx` above offers one
    // request a cycle and no returns, which arbitration barely notices.
    let mut ccx = Ccx::new();
    let mut bank_q: [VecDeque<(u64, CpxPacket)>; NUM_L2_BANKS] = Default::default();
    let (mut cyc, mut n) = (0u64, 0u64);
    suite.bench("kernel/tick", "ccx_loaded", || {
        cyc += 1;
        let mut inp = CcxInputs::default();
        for c in 0..NUM_CORES {
            if ccx.core_ready(c) {
                n += 1;
                inp.from_cores[c] = Some(PcxPacket {
                    thread: ThreadId::new(c * 8 + (n % 8) as usize),
                    addr: PAddr::new(0x1000_0000 + (n.wrapping_mul(0x9e37_79b9) >> 7) % 4096 * 64),
                    ..pcx(n)
                });
            }
        }
        for (k, q) in bank_q.iter_mut().enumerate() {
            if ccx.bank_ready(k) && q.front().is_some_and(|(due, _)| *due <= cyc) {
                inp.from_banks[k] = q.pop_front().map(|(_, p)| p);
            }
        }
        let out = ccx.tick(&inp, &ready);
        for (q, p) in bank_q.iter_mut().zip(&out.to_banks) {
            if let Some(p) = p {
                q.push_back((cyc + COSIM_BANK_LATENCY, CpxPacket::reply_to(p, p.data)));
            }
        }
        black_box(out)
    });

    let mut pcie = Pcie::new();
    pcie.program(nestsim_proto::pcie::DmaDescriptor {
        dst: nestsim_proto::addr::region::INPUT_BASE,
        len: 1 << 26,
        stream_seed: 7,
    });
    suite.bench("kernel/tick", "pcie", || black_box(pcie.tick(&mut mem)));
}

fn golden_compare(suite: &mut Suite) {
    // The per-check cost of the Fig. 2 step-7 comparison.
    let bank = L2cBank::new(BankId::new(0));
    let golden = bank.clone();
    suite.bench("kernel/golden_compare", "l2c_flop_diff", || {
        black_box(bank.flops().diff_count(golden.flops()))
    });
    suite.bench("kernel/golden_compare", "l2c_arch_diff", || {
        black_box(bank.arch().diff_slots(golden.arch()).len())
    });
}

fn main() {
    let mut suite = Suite::new("kernel");
    bitbuf_ops(&mut suite);
    component_ticks(&mut suite);
    golden_compare(&mut suite);
    suite.finish();
}
