//! The 18 benchmark workloads of Table 5.
//!
//! Each paper benchmark (6 SPLASH-2, 9 PARSEC-2.1, 3 Phoenix MapReduce)
//! is modeled as a deterministic multi-threaded kernel with a
//! per-benchmark *memory-access signature*: pointer-chase fraction
//! (Barnes, Raytrace), stride pattern (FFT, LU), scatter stores (Radix),
//! shared-table intensity (Ferret, Streamcluster), control-sensitive
//! loads, synchronisation frequency, output volume, and — for the 12
//! benchmarks with input files — an input file streamed in via PCIe DMA
//! and folded into the output (so corrupted input is observable as an
//! output mismatch, the paper's key PCIe finding).
//!
//! Execution lengths are the paper's Table 5 cycle counts divided by
//! `CYCLE_SCALE = 1000`; input files are divided by 1024 (DESIGN.md
//! scale-down constants).

use nestsim_proto::addr::PAddr;
use nestsim_proto::pcie::DmaDescriptor;
use nestsim_stats::seed::SplitRng;
use nestsim_stats::SeedSeq;

use crate::layout;
use crate::thread::{LoadUse, Op};

/// Cycle scale-down factor vs. the paper (Table 5 lengths are divided
/// by this).
pub const CYCLE_SCALE: u64 = 1000;
/// Input-file scale-down factor vs. the paper.
pub const INPUT_SCALE: u64 = 1024;
/// Average modeled memory latency used to budget the op count.
const AVG_MEM_LATENCY: u64 = 22;
/// Probability of an instruction-fetch op in the main mix.
const IFETCH_FRAC: f64 = 0.03;

/// Benchmark suite of origin (Table 5 grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPLASH-2 [Woo 95].
    Splash2,
    /// PARSEC-2.1 [Bienia 11].
    Parsec,
    /// Phoenix MapReduce [Yoo 09].
    Phoenix,
}

impl core::fmt::Display for Suite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Suite::Splash2 => "SPLASH-2",
            Suite::Parsec => "PARSEC-2.1",
            Suite::Phoenix => "Phoenix",
        })
    }
}

/// Static description of one benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchProfile {
    /// Short name as used in the paper's figures (e.g. `"barn"`).
    pub name: &'static str,
    /// Full benchmark name.
    pub long_name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// Paper's error-free execution length in Mcycles (Table 5).
    pub paper_mcycles: u64,
    /// Paper's input file size in bytes (0 = no input file).
    pub paper_input_bytes: u64,
    /// Fraction of main-loop loads that are pointer chases.
    pub pointer_frac: f64,
    /// Fraction of main-loop ops that are control-sensitive loads.
    pub control_frac: f64,
    /// Fraction of main-loop ops that are stores.
    pub store_frac: f64,
    /// Fraction of main-loop ops that read the shared table.
    pub shared_frac: f64,
    /// Stride (in words) of the private data-array walk.
    pub stride_words: u64,
    /// Words of the private data array each thread touches.
    pub working_set_words: u64,
    /// Compute cycles between consecutive ops.
    pub compute_per_op: u32,
    /// Ops between barrier synchronisations (0 = no periodic barriers).
    pub barrier_every: u64,
    /// Ops between shared atomic-counter updates (0 = none).
    pub atomic_every: u64,
    /// Output words written per thread.
    pub output_words: u64,
}

impl BenchProfile {
    /// Scaled error-free length target in cycles.
    pub fn target_cycles(&self) -> u64 {
        self.paper_mcycles * 1_000_000 / CYCLE_SCALE
    }

    /// Scaled input-file size in bytes (0 = no input file), rounded to
    /// whole cache lines.
    pub fn input_bytes(&self) -> u64 {
        (self.paper_input_bytes / INPUT_SCALE) / 64 * 64
    }

    /// Whether this benchmark has an input file (and therefore
    /// participates in PCIe error-injection campaigns, Sec. 3.2).
    pub fn has_input_file(&self) -> bool {
        self.input_bytes() > 0
    }

    /// DMA descriptor for this benchmark's input file.
    pub fn dma_descriptor(&self, seed: u64) -> DmaDescriptor {
        DmaDescriptor {
            dst: layout::input_word(0),
            len: self.input_bytes(),
            stream_seed: seed,
        }
    }
}

macro_rules! bench {
    ($name:literal, $long:literal, $suite:ident, $mc:literal, $input:literal,
     ptr=$ptr:literal, ctrl=$ctrl:literal, st=$st:literal, sh=$sh:literal,
     stride=$stride:literal, ws=$ws:literal, comp=$comp:literal,
     barrier=$bar:literal, atomic=$atm:literal, out=$out:literal) => {
        BenchProfile {
            name: $name,
            long_name: $long,
            suite: Suite::$suite,
            paper_mcycles: $mc,
            paper_input_bytes: $input,
            pointer_frac: $ptr,
            control_frac: $ctrl,
            store_frac: $st,
            shared_frac: $sh,
            stride_words: $stride,
            working_set_words: $ws,
            compute_per_op: $comp,
            barrier_every: $bar,
            atomic_every: $atm,
            output_words: $out,
        }
    };
}

/// The 18 benchmarks of Table 5 (paper lengths and input sizes).
pub const BENCHMARKS: [BenchProfile; 18] = [
    bench!(
        "barn",
        "Barnes",
        Splash2,
        413,
        0,
        ptr = 0.30,
        ctrl = 0.06,
        st = 0.15,
        sh = 0.15,
        stride = 1,
        ws = 2048,
        comp = 10,
        barrier = 2000,
        atomic = 0,
        out = 16
    ),
    bench!(
        "chol",
        "Cholesky",
        Splash2,
        531,
        1_782_579,
        ptr = 0.18,
        ctrl = 0.08,
        st = 0.25,
        sh = 0.10,
        stride = 3,
        ws = 3072,
        comp = 12,
        barrier = 1500,
        atomic = 0,
        out = 24
    ),
    bench!(
        "fft",
        "FFT",
        Splash2,
        862,
        0,
        ptr = 0.02,
        ctrl = 0.04,
        st = 0.30,
        sh = 0.05,
        stride = 17,
        ws = 4096,
        comp = 8,
        barrier = 1000,
        atomic = 0,
        out = 32
    ),
    bench!(
        "lu-c",
        "LU-contiguous",
        Splash2,
        215,
        0,
        ptr = 0.01,
        ctrl = 0.05,
        st = 0.35,
        sh = 0.05,
        stride = 4,
        ws = 2048,
        comp = 8,
        barrier = 500,
        atomic = 0,
        out = 16
    ),
    bench!(
        "radi",
        "Radix",
        Splash2,
        120,
        0,
        ptr = 0.02,
        ctrl = 0.04,
        st = 0.50,
        sh = 0.05,
        stride = 29,
        ws = 4096,
        comp = 6,
        barrier = 400,
        atomic = 64,
        out = 16
    ),
    bench!(
        "rayt",
        "Raytrace",
        Splash2,
        1005,
        4_718_592,
        ptr = 0.35,
        ctrl = 0.07,
        st = 0.10,
        sh = 0.30,
        stride = 1,
        ws = 2048,
        comp = 14,
        barrier = 4000,
        atomic = 0,
        out = 24
    ),
    bench!(
        "blsc",
        "Blackscholes",
        Parsec,
        164,
        264_192,
        ptr = 0.01,
        ctrl = 0.03,
        st = 0.10,
        sh = 0.10,
        stride = 2,
        ws = 1024,
        comp = 30,
        barrier = 3000,
        atomic = 0,
        out = 32
    ),
    bench!(
        "body",
        "Bodytrack",
        Parsec,
        571,
        2_621_440,
        ptr = 0.12,
        ctrl = 0.07,
        st = 0.22,
        sh = 0.20,
        stride = 5,
        ws = 2048,
        comp = 12,
        barrier = 1200,
        atomic = 128,
        out = 24
    ),
    bench!(
        "ferr",
        "Ferret",
        Parsec,
        763,
        4_928_307,
        ptr = 0.15,
        ctrl = 0.06,
        st = 0.15,
        sh = 0.40,
        stride = 7,
        ws = 2048,
        comp = 10,
        barrier = 2500,
        atomic = 0,
        out = 16
    ),
    bench!(
        "flui",
        "Fluidanimate",
        Parsec,
        842,
        1_363_148,
        ptr = 0.10,
        ctrl = 0.10,
        st = 0.30,
        sh = 0.15,
        stride = 2,
        ws = 3072,
        comp = 9,
        barrier = 400,
        atomic = 96,
        out = 24
    ),
    bench!(
        "freq",
        "Freqmine",
        Parsec,
        353,
        8_388_608,
        ptr = 0.25,
        ctrl = 0.08,
        st = 0.20,
        sh = 0.25,
        stride = 1,
        ws = 2048,
        comp = 11,
        barrier = 2000,
        atomic = 0,
        out = 16
    ),
    bench!(
        "stre",
        "Streamcluster",
        Parsec,
        695,
        0,
        ptr = 0.03,
        ctrl = 0.05,
        st = 0.18,
        sh = 0.30,
        stride = 11,
        ws = 6144,
        comp = 7,
        barrier = 800,
        atomic = 160,
        out = 32
    ),
    bench!(
        "swap",
        "Swaptions",
        Parsec,
        591,
        0,
        ptr = 0.02,
        ctrl = 0.04,
        st = 0.12,
        sh = 0.08,
        stride = 2,
        ws = 1024,
        comp = 25,
        barrier = 5000,
        atomic = 0,
        out = 32
    ),
    bench!(
        "vips",
        "Vips",
        Parsec,
        1003,
        7_969_178,
        ptr = 0.04,
        ctrl = 0.06,
        st = 0.40,
        sh = 0.10,
        stride = 8,
        ws = 4096,
        comp = 9,
        barrier = 1500,
        atomic = 0,
        out = 48
    ),
    bench!(
        "x264",
        "X264",
        Parsec,
        881,
        2_936_012,
        ptr = 0.08,
        ctrl = 0.08,
        st = 0.30,
        sh = 0.15,
        stride = 5,
        ws = 3072,
        comp = 10,
        barrier = 1000,
        atomic = 192,
        out = 32
    ),
    bench!(
        "p-lr",
        "Linear regression",
        Phoenix,
        54,
        113_246_208,
        ptr = 0.01,
        ctrl = 0.03,
        st = 0.10,
        sh = 0.05,
        stride = 1,
        ws = 1024,
        comp = 6,
        barrier = 0,
        atomic = 128,
        out = 8
    ),
    bench!(
        "p-sm",
        "String match",
        Phoenix,
        248,
        113_246_208,
        ptr = 0.02,
        ctrl = 0.12,
        st = 0.08,
        sh = 0.10,
        stride = 1,
        ws = 1024,
        comp = 7,
        barrier = 0,
        atomic = 96,
        out = 8
    ),
    bench!(
        "p-wc",
        "Word count",
        Phoenix,
        566,
        103_809_024,
        ptr = 0.03,
        ctrl = 0.06,
        st = 0.20,
        sh = 0.15,
        stride = 1,
        ws = 2048,
        comp = 8,
        barrier = 0,
        atomic = 32,
        out = 16
    ),
];

/// Looks up a benchmark by its short name.
pub fn by_name(name: &str) -> Option<&'static BenchProfile> {
    BENCHMARKS.iter().find(|b| b.name == name)
}

/// The benchmarks with input files, used for PCIe injection (Sec. 3.2:
/// "12 applications have input data file ... used for PCIe error
/// injection runs").
pub fn with_input_files() -> impl Iterator<Item = &'static BenchProfile> {
    BENCHMARKS.iter().filter(|b| b.has_input_file())
}

/// Execution phase of the deterministic program generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    PollInput,
    CheckHeader,
    ScanInput { i: u64 },
    InputBarrier,
    Main,
    FinishBarrier,
    WriteFinal,
    Done,
}

/// `op_idx` reduced modulo each period of the main loop, and the strided
/// walk's position `(op_idx * stride_words) % working_set_words`, kept
/// by counting: the four remainders by runtime divisors were a
/// measurable share of every op.
#[derive(Debug, Clone, Copy, Default)]
struct MainLoopPos {
    barrier: u64,
    output: u64,
    atomic: u64,
    stride: u64,
}

/// `(r + step) % modulus` for `r, step < modulus`. A period of zero
/// means "never" and its position is not read.
fn step_mod(r: u64, step: u64, modulus: u64) -> u64 {
    let next = r + step;
    if next >= modulus {
        next - modulus
    } else {
        next
    }
}

/// Deterministic per-thread op-stream generator.
///
/// Each call to [`ProgGen::next_op`] yields the thread's next operation;
/// the stream is a pure function of `(profile, campaign seed, thread)`,
/// so golden and erroneous runs replay identically until an injected
/// error actually changes an observed value.
#[derive(Debug, Clone)]
pub struct ProgGen {
    profile: &'static BenchProfile,
    thread: usize,
    threads: usize,
    rng: SplitRng,
    phase: Phase,
    op_idx: u64,
    pos: MainLoopPos,
    stride_step: u64,
    ops_total: u64,
    out_idx: u64,
    output_every: u64,
    ptr: u64,
    input_loads: u64,
    input_step: u64,
}

impl ProgGen {
    /// Creates the generator for `thread` of `threads`, with lengths
    /// additionally divided by `length_scale` (1 = full scaled length;
    /// tests use larger factors for speed).
    pub fn new(
        profile: &'static BenchProfile,
        seed: SeedSeq,
        thread: usize,
        threads: usize,
        length_scale: u64,
    ) -> Self {
        let rng = seed
            .derive("workload")
            .derive(profile.name)
            .derive_index(thread as u64)
            .rng();
        let target = profile.target_cycles() / length_scale.max(1);
        let input_loads = if profile.has_input_file() {
            let slice_words = (profile.input_bytes() / 8) / threads as u64;
            slice_words.clamp(1, 256)
        } else {
            0
        };
        let input_cycles = input_loads * 30;
        let ops_total = target
            .saturating_sub(input_cycles)
            .div_euclid(profile.compute_per_op as u64 + AVG_MEM_LATENCY)
            .max(64);
        let output_every = (ops_total / profile.output_words.max(1)).max(1);
        let slice_words = ((profile.input_bytes() / 8) / threads as u64).max(1);
        let input_step = slice_words.checked_div(input_loads).unwrap_or(1).max(1);
        ProgGen {
            profile,
            thread,
            threads,
            rng,
            phase: if profile.has_input_file() {
                Phase::PollInput
            } else {
                Phase::Main
            },
            op_idx: 0,
            pos: MainLoopPos::default(),
            stride_step: profile.stride_words % profile.working_set_words,
            ops_total,
            out_idx: 0,
            output_every,
            ptr: layout::ptr_ring_entry(thread, 0).raw(),
            input_loads,
            input_step,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &'static BenchProfile {
        self.profile
    }

    /// Main-loop ops this thread will execute.
    pub fn ops_total(&self) -> u64 {
        self.ops_total
    }

    /// Informs the generator that a pointer-chase load returned `value`
    /// (the next pointer).
    pub fn set_pointer(&mut self, value: u64) {
        self.ptr = value;
    }

    /// The current pointer-chase cursor.
    pub fn pointer(&self) -> u64 {
        self.ptr
    }

    /// Soft-error injection into the program's control state: perturbs
    /// the op-stream generator (the analogue of corrupting a core's
    /// branch/loop registers).
    pub fn perturb_control(&mut self, mask: u64) {
        self.rng.xor_state(mask);
    }

    /// Produces the thread's next operation.
    pub fn next_op(&mut self) -> Op {
        let p = self.profile;
        match self.phase {
            Phase::PollInput => {
                self.phase = Phase::CheckHeader;
                Op::Load {
                    addr: crate::system::doorbell_addr(),
                    use_: LoadUse::Poll { expect: 1 },
                }
            }
            Phase::CheckHeader => {
                self.phase = Phase::ScanInput { i: 0 };
                Op::Load {
                    addr: crate::system::doorbell_addr().offset(8),
                    use_: LoadUse::Control {
                        expect: p.input_bytes(),
                    },
                }
            }
            Phase::ScanInput { i } => {
                if i + 1 >= self.input_loads {
                    self.phase = Phase::InputBarrier;
                } else {
                    self.phase = Phase::ScanInput { i: i + 1 };
                }
                let slice_words = ((p.input_bytes() / 8) / self.threads as u64).max(1);
                let w = self.thread as u64 * slice_words + i * self.input_step;
                Op::Load {
                    addr: layout::input_word(w),
                    use_: LoadUse::Data,
                }
            }
            Phase::InputBarrier => {
                self.phase = Phase::Main;
                Op::Barrier
            }
            Phase::Main => {
                if self.op_idx >= self.ops_total {
                    self.phase = Phase::FinishBarrier;
                    return self.next_op();
                }
                let idx = self.op_idx;
                let at = self.pos;
                self.op_idx += 1;
                self.pos = MainLoopPos {
                    barrier: step_mod(at.barrier, 1, p.barrier_every),
                    output: step_mod(at.output, 1, self.output_every),
                    atomic: step_mod(at.atomic, 1, p.atomic_every),
                    stride: step_mod(at.stride, self.stride_step, p.working_set_words),
                };
                if p.barrier_every > 0 && at.barrier == p.barrier_every - 1 {
                    return Op::Barrier;
                }
                if at.output == self.output_every - 1 && self.out_idx + 1 < p.output_words {
                    let out = self.out_idx;
                    self.out_idx += 1;
                    return Op::StoreAcc {
                        addr: layout::output_word(self.thread, out, p.output_words),
                    };
                }
                if p.atomic_every > 0 && at.atomic == p.atomic_every / 2 {
                    let c = self.rng.below(layout::SHARED_CTR_COUNT);
                    return Op::Atomic {
                        addr: layout::shared_counter(c),
                        add: 1,
                    };
                }
                let r = self.rng.f64();
                let mut acc_threshold = p.control_frac;
                if r < acc_threshold {
                    let j = self.rng.below(layout::CTRL_TABLE_LEN);
                    return Op::Load {
                        addr: layout::ctrl_entry(self.thread, j),
                        use_: LoadUse::Control {
                            expect: layout::ctrl_value(self.thread, j),
                        },
                    };
                }
                acc_threshold += p.pointer_frac;
                if r < acc_threshold {
                    return Op::Load {
                        addr: PAddr::new(self.ptr),
                        use_: LoadUse::Pointer,
                    };
                }
                acc_threshold += p.store_frac;
                if r < acc_threshold {
                    let i = self.rng.below(p.working_set_words);
                    return Op::StoreAcc {
                        addr: layout::data_word(self.thread, i),
                    };
                }
                acc_threshold += p.shared_frac;
                if r < acc_threshold {
                    let i = self.rng.below(layout::SHARED_TABLE_WORDS / 8) * 8;
                    return Op::Load {
                        addr: layout::shared_word(i),
                        use_: LoadUse::Data,
                    };
                }
                acc_threshold += IFETCH_FRAC;
                if r < acc_threshold {
                    return Op::Ifetch {
                        addr: PAddr::new(
                            nestsim_proto::addr::region::TEXT_BASE.raw() + (idx % 256) * 8,
                        ),
                    };
                }
                // Strided private data-array walk.
                Op::Load {
                    addr: layout::data_word(self.thread, at.stride),
                    use_: LoadUse::Data,
                }
            }
            Phase::FinishBarrier => {
                self.phase = Phase::WriteFinal;
                Op::Barrier
            }
            Phase::WriteFinal => {
                self.phase = Phase::Done;
                Op::StoreAcc {
                    addr: layout::output_word(
                        self.thread,
                        p.output_words.saturating_sub(1),
                        p.output_words,
                    ),
                }
            }
            Phase::Done => Op::Halt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `next_op` as it was with a remainder per period, body verbatim:
    /// the oracle of `counted_positions_match_the_remainders`.
    impl ProgGen {
        fn next_op_reference(&mut self) -> Op {
            let p = self.profile;
            match self.phase {
                Phase::PollInput => {
                    self.phase = Phase::CheckHeader;
                    Op::Load {
                        addr: crate::system::doorbell_addr(),
                        use_: LoadUse::Poll { expect: 1 },
                    }
                }
                Phase::CheckHeader => {
                    self.phase = Phase::ScanInput { i: 0 };
                    Op::Load {
                        addr: crate::system::doorbell_addr().offset(8),
                        use_: LoadUse::Control {
                            expect: p.input_bytes(),
                        },
                    }
                }
                Phase::ScanInput { i } => {
                    if i + 1 >= self.input_loads {
                        self.phase = Phase::InputBarrier;
                    } else {
                        self.phase = Phase::ScanInput { i: i + 1 };
                    }
                    let slice_words = ((p.input_bytes() / 8) / self.threads as u64).max(1);
                    let w = self.thread as u64 * slice_words + i * self.input_step;
                    Op::Load {
                        addr: layout::input_word(w),
                        use_: LoadUse::Data,
                    }
                }
                Phase::InputBarrier => {
                    self.phase = Phase::Main;
                    Op::Barrier
                }
                Phase::Main => {
                    if self.op_idx >= self.ops_total {
                        self.phase = Phase::FinishBarrier;
                        return self.next_op_reference();
                    }
                    let idx = self.op_idx;
                    self.op_idx += 1;
                    if p.barrier_every > 0 && idx % p.barrier_every == p.barrier_every - 1 {
                        return Op::Barrier;
                    }
                    if idx % self.output_every == self.output_every - 1
                        && self.out_idx + 1 < p.output_words
                    {
                        let out = self.out_idx;
                        self.out_idx += 1;
                        return Op::StoreAcc {
                            addr: layout::output_word(self.thread, out, p.output_words),
                        };
                    }
                    if p.atomic_every > 0 && idx % p.atomic_every == p.atomic_every / 2 {
                        let c = self.rng.below(layout::SHARED_CTR_COUNT);
                        return Op::Atomic {
                            addr: layout::shared_counter(c),
                            add: 1,
                        };
                    }
                    let r = self.rng.f64();
                    let mut acc_threshold = p.control_frac;
                    if r < acc_threshold {
                        let j = self.rng.below(layout::CTRL_TABLE_LEN);
                        return Op::Load {
                            addr: layout::ctrl_entry(self.thread, j),
                            use_: LoadUse::Control {
                                expect: layout::ctrl_value(self.thread, j),
                            },
                        };
                    }
                    acc_threshold += p.pointer_frac;
                    if r < acc_threshold {
                        return Op::Load {
                            addr: PAddr::new(self.ptr),
                            use_: LoadUse::Pointer,
                        };
                    }
                    acc_threshold += p.store_frac;
                    if r < acc_threshold {
                        let i = self.rng.below(p.working_set_words);
                        return Op::StoreAcc {
                            addr: layout::data_word(self.thread, i),
                        };
                    }
                    acc_threshold += p.shared_frac;
                    if r < acc_threshold {
                        let i = self.rng.below(layout::SHARED_TABLE_WORDS / 8) * 8;
                        return Op::Load {
                            addr: layout::shared_word(i),
                            use_: LoadUse::Data,
                        };
                    }
                    acc_threshold += IFETCH_FRAC;
                    if r < acc_threshold {
                        return Op::Ifetch {
                            addr: PAddr::new(
                                nestsim_proto::addr::region::TEXT_BASE.raw() + (idx % 256) * 8,
                            ),
                        };
                    }
                    // Strided private data-array walk.
                    let i = (idx * p.stride_words) % p.working_set_words;
                    Op::Load {
                        addr: layout::data_word(self.thread, i),
                        use_: LoadUse::Data,
                    }
                }
                Phase::FinishBarrier => {
                    self.phase = Phase::WriteFinal;
                    Op::Barrier
                }
                Phase::WriteFinal => {
                    self.phase = Phase::Done;
                    Op::StoreAcc {
                        addr: layout::output_word(
                            self.thread,
                            p.output_words.saturating_sub(1),
                            p.output_words,
                        ),
                    }
                }
                Phase::Done => Op::Halt,
            }
        }
    }

    #[test]
    fn counted_positions_match_the_remainders() {
        let mut strided = 0u64;
        for p in &BENCHMARKS {
            let ws = p.working_set_words;
            for thread in [0, 7, 63] {
                for length_scale in [20, 100, 500] {
                    let mut new = ProgGen::new(p, SeedSeq::new(5), thread, 64, length_scale);
                    let mut old = new.clone();
                    let disturb_at = new.ops_total() / 3;
                    for n in 0u64.. {
                        if n == disturb_at {
                            // A core-register flip and a pointer load
                            // landing mid-stream move neither position.
                            new.perturb_control(1 << 17);
                            old.perturb_control(1 << 17);
                            new.set_pointer(layout::ptr_ring_entry(thread, 9).raw());
                            old.set_pointer(layout::ptr_ring_entry(thread, 9).raw());
                        }
                        let op = new.next_op();
                        assert_eq!(op, old.next_op_reference(), "{} op {n}", p.name);
                        let array = layout::data_word(thread, 0)..layout::data_word(thread, ws);
                        if matches!(op, Op::Load { addr, use_: LoadUse::Data } if array.contains(&addr))
                        {
                            strided += 1;
                        }
                        if op == Op::Halt {
                            assert!(n >= new.ops_total(), "{} halted early", p.name);
                            break;
                        }
                    }
                }
            }
        }
        assert!(strided > 10_000, "only {strided} strided loads compared");
    }

    #[test]
    fn table5_has_18_benchmarks_with_paper_lengths() {
        assert_eq!(BENCHMARKS.len(), 18);
        assert_eq!(by_name("barn").unwrap().paper_mcycles, 413);
        assert_eq!(by_name("rayt").unwrap().paper_mcycles, 1005);
        assert_eq!(by_name("p-lr").unwrap().paper_mcycles, 54);
    }

    #[test]
    fn twelve_benchmarks_have_input_files() {
        assert_eq!(with_input_files().count(), 12);
        assert!(!by_name("barn").unwrap().has_input_file());
        assert!(by_name("chol").unwrap().has_input_file());
    }

    #[test]
    fn generator_is_deterministic() {
        let p = by_name("fft").unwrap();
        let seed = SeedSeq::new(7);
        let mut a = ProgGen::new(p, seed, 3, 64, 100);
        let mut b = ProgGen::new(p, seed, 3, 64, 100);
        for _ in 0..500 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn generator_terminates_with_halt() {
        let p = by_name("radi").unwrap();
        let mut g = ProgGen::new(p, SeedSeq::new(1), 0, 64, 1000);
        let mut steps = 0u64;
        loop {
            if g.next_op() == Op::Halt {
                break;
            }
            steps += 1;
            assert!(steps < 1_000_000, "runaway generator");
        }
        // Halt is sticky.
        assert_eq!(g.next_op(), Op::Halt);
    }

    #[test]
    fn input_benchmark_starts_with_doorbell_poll() {
        let p = by_name("p-lr").unwrap();
        let mut g = ProgGen::new(p, SeedSeq::new(1), 0, 64, 100);
        match g.next_op() {
            Op::Load {
                use_: LoadUse::Poll { expect: 1 },
                ..
            } => {}
            other => panic!("expected doorbell poll, got {other:?}"),
        }
        match g.next_op() {
            Op::Load {
                use_: LoadUse::Control { expect },
                ..
            } => assert_eq!(expect, p.input_bytes()),
            other => panic!("expected header check, got {other:?}"),
        }
    }

    #[test]
    fn op_mix_matches_profile_roughly() {
        let p = by_name("barn").unwrap(); // pointer-heavy
        let mut g = ProgGen::new(p, SeedSeq::new(3), 5, 64, 10);
        let (mut ptr, mut total) = (0u32, 0u32);
        for _ in 0..g.ops_total().min(5_000) {
            match g.next_op() {
                Op::Load {
                    use_: LoadUse::Pointer,
                    ..
                } => {
                    ptr += 1;
                    total += 1;
                }
                Op::Halt => break,
                _ => total += 1,
            }
        }
        let frac = ptr as f64 / total as f64;
        assert!(
            (frac - p.pointer_frac).abs() < 0.08,
            "pointer frac {frac:.3} vs profile {}",
            p.pointer_frac
        );
    }

    #[test]
    fn ops_budget_tracks_target_cycles() {
        let short = by_name("radi").unwrap();
        let long = by_name("rayt").unwrap();
        let gs = ProgGen::new(short, SeedSeq::new(1), 0, 64, 1);
        let gl = ProgGen::new(long, SeedSeq::new(1), 0, 64, 1);
        assert!(gl.ops_total() > gs.ops_total() * 4);
    }

    #[test]
    fn all_generated_addresses_are_valid() {
        use nestsim_proto::addr::region;
        for p in &BENCHMARKS {
            let mut g = ProgGen::new(p, SeedSeq::new(9), 63, 64, 1000);
            for _ in 0..2000 {
                let op = g.next_op();
                let addr = match op {
                    Op::Load { addr, .. }
                    | Op::StoreAcc { addr }
                    | Op::Atomic { addr, .. }
                    | Op::Ifetch { addr } => addr,
                    Op::Halt => break,
                    _ => continue,
                };
                assert!(region::is_valid(addr), "{}: bad addr {addr}", p.name);
                assert!(addr.is_aligned(8), "{}: misaligned {addr}", p.name);
            }
        }
    }
}
