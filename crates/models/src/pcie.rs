//! Flip-flop-level model of the PCI Express I/O controller.
//!
//! Per the paper's setup (Sec. 3.2), PCIe is exercised as the DMA engine
//! that transfers each benchmark's input data file into the input-staging
//! region of memory. The model:
//!
//! * assembles inbound link data into frames in **staging registers**
//!   (one 64-bit word per cycle — flips here corrupt input *data*, which
//!   is why the paper observes higher OMM rates for PCIe),
//! * buffers frames in the architectural **RX buffer** (Table 1's
//!   high-level uncore state),
//! * drains frames to memory under **flow-control credits**, and
//! * on completion writes a **doorbell word** carrying the transfer
//!   length; applications validate it before consuming the input
//!   (a corrupted `active`/length path therefore hangs or traps the
//!   application).
//!
//! Link-layer LCRC flops are [`FlopClass::CrcProtected`] and excluded
//! from injection (Table 4: 19.1% of PCIe flops).

use std::sync::OnceLock;

use nestsim_arch::{LineBackend, PcieBuffers};
use nestsim_proto::addr::{PAddr, LINE_BYTES};
use nestsim_proto::pcie::{stream_word, DmaDescriptor};
use nestsim_rtl::{FieldHandle, FlopClass, FlopSpace, FlopSpaceBuilder};

use crate::{ComponentKind, UncoreRtl};

/// Maximum outstanding flow-control credits.
pub const CREDIT_MAX: u64 = 8;
/// Cycles between credit replenishments.
pub const CREDIT_REFILL_CYCLES: u64 = 4;
/// RX buffer capacity in frames.
pub const RX_FRAMES: u64 = 16;
/// Lane-deskew ring depth in 64-bit link words.
const DESKEW_DEPTH: usize = 48;

/// Architectural (high-level) state of the PCIe controller: the Table 1
/// transfer buffers plus the driver-visible descriptor/progress MMIO
/// registers (these are architecturally readable by software, so they
/// transfer between simulation modes rather than being warm-up state —
/// see DESIGN.md substitutions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcieArchState {
    /// RX/TX transfer buffers.
    pub bufs: PcieBuffers,
    /// Destination base address of the active transfer.
    pub dst: u64,
    /// Transfer length in bytes.
    pub len: u64,
    /// Synthetic-file stream seed.
    pub seed: u64,
    /// Bytes streamed from the host so far.
    pub pos: u64,
    /// Bytes drained to memory so far.
    pub drain_pos: u64,
    /// Frames currently resident in the RX buffer.
    pub occ: u64,
    /// RX write pointer (words).
    pub wr_ptr: u64,
    /// RX read pointer (words).
    pub rd_ptr: u64,
    /// Whether a transfer is in progress.
    pub active: bool,
}

impl PcieArchState {
    /// Idle state (no transfer programmed).
    pub fn idle() -> Self {
        PcieArchState {
            bufs: PcieBuffers::new(),
            dst: 0,
            len: 0,
            seed: 0,
            pos: 0,
            drain_pos: 0,
            occ: 0,
            wr_ptr: 0,
            rd_ptr: 0,
            active: false,
        }
    }
}

/// Per-cycle outputs from the controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcieOutputs {
    /// Physical address of a line written to memory this cycle, if any.
    pub wrote: Option<PAddr>,
    /// Set on the cycle the completion doorbell is written.
    pub completed: bool,
}

/// Flip-flop-level model of the PCIe DMA controller.
#[derive(Debug)]
pub struct Pcie {
    flops: FlopSpace,
    bufs: PcieBuffers,

    dst: FieldHandle,
    len: FieldHandle,
    seed_lo: FieldHandle,
    seed_hi: FieldHandle,
    pos: FieldHandle,
    drain_pos: FieldHandle,
    active: FieldHandle,

    staging: [FieldHandle; 8],
    widx: FieldHandle,
    deskew: [FieldHandle; DESKEW_DEPTH],
    lane_count: FieldHandle,
    feed_pos: FieldHandle,
    wr_ptr: FieldHandle,
    rd_ptr: FieldHandle,
    occ: FieldHandle,
    credits: FieldHandle,
    credit_timer: FieldHandle,
    seq: FieldHandle,

    write_block: bool,
}

pub use nestsim_proto::pcie::doorbell_addr;

// Hand-written so that `clone_from` copies into the bits and buffers it
// holds. Both destructure every field: a new field fails to compile
// here until it is copied.
impl Clone for Pcie {
    fn clone(&self) -> Self {
        Pcie {
            flops: self.flops.clone(),
            bufs: self.bufs.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Pcie {
            flops,
            bufs,
            dst,
            len,
            seed_lo,
            seed_hi,
            pos,
            drain_pos,
            active,
            staging,
            widx,
            deskew,
            lane_count,
            feed_pos,
            wr_ptr,
            rd_ptr,
            occ,
            credits,
            credit_timer,
            seq,
            write_block,
        } = source;
        self.flops.clone_from(flops);
        self.bufs.clone_from(bufs);
        self.dst = *dst;
        self.len = *len;
        self.seed_lo = *seed_lo;
        self.seed_hi = *seed_hi;
        self.pos = *pos;
        self.drain_pos = *drain_pos;
        self.active = *active;
        self.staging = *staging;
        self.widx = *widx;
        self.deskew = *deskew;
        self.lane_count = *lane_count;
        self.feed_pos = *feed_pos;
        self.wr_ptr = *wr_ptr;
        self.rd_ptr = *rd_ptr;
        self.occ = *occ;
        self.credits = *credits;
        self.credit_timer = *credit_timer;
        self.seq = *seq;
        self.write_block = *write_block;
    }
}

impl Pcie {
    /// Creates an idle controller: a copy of the per-process prototype,
    /// so the field names are formatted once.
    pub fn new() -> Self {
        Self::prototype().clone()
    }

    fn prototype() -> &'static Pcie {
        static PROTOTYPE: OnceLock<Pcie> = OnceLock::new();
        PROTOTYPE.get_or_init(Self::build)
    }

    fn build() -> Self {
        let mut b = FlopSpaceBuilder::new("pcie");
        let dst = b.field("desc.dst", 34, FlopClass::Target);
        let len = b.field("desc.len", 27, FlopClass::Target);
        let seed_lo = b.field("desc.seed_lo", 32, FlopClass::Target);
        let seed_hi = b.field("desc.seed_hi", 32, FlopClass::Target);
        let pos = b.field("desc.pos", 27, FlopClass::Target);
        let drain_pos = b.field("desc.drain_pos", 27, FlopClass::Target);
        let active = b.field("desc.active", 1, FlopClass::Target);

        let staging: [FieldHandle; 8] =
            core::array::from_fn(|i| b.field(format!("staging.w{i}"), 64, FlopClass::Target));
        let widx = b.field("staging.widx", 4, FlopClass::Target);
        let wr_ptr = b.field("rx.wr_ptr", 10, FlopClass::Target);
        let rd_ptr = b.field("rx.rd_ptr", 10, FlopClass::Target);
        let occ = b.field("rx.occ", 8, FlopClass::Target);
        // Flow control is on the link's timing-critical path.
        let credits = b.field("fc.credits", 4, FlopClass::TimingCritical);
        let credit_timer = b.field("fc.timer", 3, FlopClass::Target);
        let seq = b.field("link.seq", 16, FlopClass::Target);

        // Configuration (BAR/link width): survives reset. No tick reads
        // either.
        b.dead_field("cfg.bar", 34, FlopClass::Config);
        b.dead_field("cfg.link_width", 4, FlopClass::Config);

        // Lane-deskew ring: inbound link words rest here for a cycle
        // before being staged (Table 4: PCIe is 80.9% target). A flip
        // in an occupied lane register corrupts exactly one input word;
        // flips in idle registers are overwritten as the ring rotates.
        let deskew: [FieldHandle; DESKEW_DEPTH] =
            core::array::from_fn(|i| b.field(format!("lane.deskew[{i}]"), 64, FlopClass::Target));
        let lane_count = b.field("lane.count", 6, FlopClass::Target);
        let feed_pos = b.field("lane.feed_pos", 27, FlopClass::Target);

        // LCRC generation/check registers: CRC-protected (19.1%), and
        // read by no tick.
        b.dead_array("lcrc.shift", 16, 64, FlopClass::CrcProtected);

        let flops = b.build();
        let head = flops.field_bit_index(deskew[0], 0);
        assert!(
            (deskew.iter().enumerate()).all(|(i, &d)| flops.field_bit_index(d, 0) == head + 64 * i)
        );
        let mut p = Pcie {
            flops,
            bufs: PcieBuffers::new(),
            dst,
            len,
            seed_lo,
            seed_hi,
            pos,
            drain_pos,
            active,
            staging,
            widx,
            deskew,
            lane_count,
            feed_pos,
            wr_ptr,
            rd_ptr,
            occ,
            credits,
            credit_timer,
            seq,
            write_block: false,
        };
        p.flops.write(p.credits, CREDIT_MAX);
        p
    }

    /// Programs a DMA transfer (the "driver" writing the descriptor).
    pub fn program(&mut self, desc: DmaDescriptor) {
        self.flops.write(self.dst, desc.dst.raw());
        self.flops.write(self.len, desc.len);
        self.flops
            .write(self.seed_lo, desc.stream_seed & 0xffff_ffff);
        self.flops.write(self.seed_hi, desc.stream_seed >> 32);
        self.flops.write(self.pos, 0);
        self.flops.write(self.drain_pos, 0);
        self.flops.write(self.widx, 0);
        self.flops.write(self.feed_pos, 0);
        self.flops.write(self.lane_count, 0);
        self.flops.write_bool(self.active, desc.len > 0);
    }

    /// True if a transfer is in progress.
    pub fn active(&self) -> bool {
        self.flops.read_bool(self.active)
    }

    /// True if the engine holds no undrained data.
    pub fn idle(&self) -> bool {
        !self.active() && self.flops.read(self.occ) == 0
    }

    /// Engages or releases the QRR-style write disable.
    pub fn set_write_block(&mut self, block: bool) {
        self.write_block = block;
    }

    /// Current staging-buffer occupancy (sampled by campaign telemetry).
    pub fn buffer_occupancy(&self) -> usize {
        self.flops.read(self.occ) as usize
    }

    /// Captures the architectural state (mixed-mode state transfer).
    pub fn arch(&self) -> PcieArchState {
        let raw_pos = self.flops.read(self.pos);
        PcieArchState {
            bufs: self.bufs.clone(),
            dst: self.flops.read(self.dst),
            len: self.flops.read(self.len),
            seed: self.flops.read(self.seed_lo) | (self.flops.read(self.seed_hi) << 32),
            // Architectural progress is frame-granular; a partially
            // staged frame is microarchitectural and will be re-streamed.
            pos: raw_pos - (raw_pos % LINE_BYTES),
            drain_pos: self.flops.read(self.drain_pos),
            occ: self.flops.read(self.occ),
            wr_ptr: self.flops.read(self.wr_ptr),
            rd_ptr: self.flops.read(self.rd_ptr),
            active: self.flops.read_bool(self.active),
        }
    }

    /// Restores architectural state (mixed-mode state transfer into RTL).
    pub fn load_arch(&mut self, a: PcieArchState) {
        self.bufs = a.bufs;
        self.load_stream(a.dst, a.len, a.seed, a.pos, a.active);
        self.flops.write(self.drain_pos, a.drain_pos);
        self.flops.write(self.occ, a.occ);
        self.flops.write(self.wr_ptr, a.wr_ptr);
        self.flops.write(self.rd_ptr, a.rd_ptr);
    }

    /// An idle controller that resumes a transfer of `len` bytes to
    /// `dst` at byte `pos`, in place (the Table 1 state transfer at
    /// attach): [`load_arch`](Self::load_arch) on [`Pcie::new`] of empty
    /// buffers, nothing drained past `pos` and nothing resident, written
    /// into the bits and buffers this controller holds.
    pub fn resume(&mut self, dst: u64, len: u64, seed: u64, pos: u64, active: bool) {
        self.clone_from(Self::prototype());
        self.load_stream(dst, len, seed, pos, active);
        self.flops.write(self.drain_pos, pos);
    }

    /// The descriptor, the stream position and the lane pipeline of a
    /// transfer at byte `pos`.
    fn load_stream(&mut self, dst: u64, len: u64, seed: u64, pos: u64, active: bool) {
        self.flops.write(self.dst, dst);
        self.flops.write(self.len, len);
        self.flops.write(self.seed_lo, seed & 0xffff_ffff);
        self.flops.write(self.seed_hi, seed >> 32);
        // A partially staged frame lives in microarchitectural registers
        // (not architectural state); round the stream position down to
        // the last completed frame so the partial words are re-streamed.
        // The synthetic stream is position-addressed, so this is exact.
        let pos_frame = pos - (pos % LINE_BYTES);
        self.flops.write(self.pos, pos_frame);
        self.flops.write_bool(self.active, active);
        self.flops.write(self.widx, 0);
        // The lane pipeline is microarchitectural. Prime it with the
        // next stream word (deterministically derived from the
        // architectural position) so a freshly attached engine runs in
        // lockstep with one that streamed the whole transfer — the
        // mixed-mode warm-up equivalence for this component.
        if active && pos_frame < len {
            let w = stream_word(seed, pos_frame / 8);
            self.flops.write(self.deskew[0], w);
            self.flops.write(self.lane_count, 1);
            self.flops.write(self.feed_pos, pos_frame + 8);
        } else {
            self.flops.write(self.feed_pos, pos_frame);
            self.flops.write(self.lane_count, 0);
        }
    }

    /// Number of word-differences in the transfer buffers vs. `other`
    /// (golden comparison of the architectural buffers).
    pub fn buffer_diff(&self, other: &Pcie) -> usize {
        self.bufs.diff_count(&other.bufs)
    }

    /// Shifts the deskew ring down one register, a zero entering at
    /// the tail. The registers are declared back to back (asserted in
    /// `build`), so the 47 that move do so in one pass.
    fn shift_deskew(&mut self) {
        let head = self.flops.field_bit_index(self.deskew[0], 0);
        self.flops
            .move_down(head + 64, head, 64 * (DESKEW_DEPTH - 1));
        self.flops.write(self.deskew[DESKEW_DEPTH - 1], 0);
    }

    fn seed_value(&self) -> u64 {
        self.flops.read(self.seed_lo) | (self.flops.read(self.seed_hi) << 32)
    }

    /// Advances the controller one cycle, writing drained frames to
    /// memory through `mem`.
    pub fn tick(&mut self, mem: &mut dyn LineBackend) -> PcieOutputs {
        let mut out = PcieOutputs::default();

        // ── Credit replenishment ────────────────────────────────────
        let t = self.flops.read(self.credit_timer) + 1;
        if t >= CREDIT_REFILL_CYCLES {
            self.flops.write(self.credit_timer, 0);
            let c = self.flops.read(self.credits);
            if c < CREDIT_MAX {
                self.flops.write(self.credits, c + 1);
            }
        } else {
            self.flops.write(self.credit_timer, t);
        }

        // ── Drain one buffered frame to memory ──────────────────────
        let occ = self.flops.read(self.occ);
        let credits = self.flops.read(self.credits);
        if occ > 0 && credits > 0 && !self.write_block {
            let rd = self.flops.read(self.rd_ptr);
            let frame: [u64; 8] = core::array::from_fn(|i| self.bufs.rx_read(rd as usize + i));
            let dpos = self.flops.read(self.drain_pos);
            let addr = PAddr::new(self.flops.read(self.dst).wrapping_add(dpos));
            mem.write_line(addr.line(), frame);
            out.wrote = Some(addr);
            self.flops.write(self.rd_ptr, (rd + 8) % 1024);
            self.flops.write(self.occ, occ - 1);
            self.flops.write(self.credits, credits - 1);
            self.flops.write(
                self.drain_pos,
                dpos.wrapping_add(LINE_BYTES) & ((1 << 27) - 1),
            );
        }

        // ── Stream: host link → deskew lane → staging ───────────────
        if self.flops.read_bool(self.active) {
            let pos = self.flops.read(self.pos);
            let len = self.flops.read(self.len);
            // Consume the oldest word of the deskew shift pipe
            // (stage 0), shifting the pipe down — T2-style shifting
            // structure, so stale bits flush out and cold/warm copies
            // converge bitwise (the Fig. 5 premise).
            let lane_count = self.flops.read(self.lane_count);
            if pos < len && lane_count > 0 {
                let w = self.flops.read(self.deskew[0]);
                self.shift_deskew();
                self.flops.write(self.lane_count, lane_count - 1);
                let widx = self.flops.read(self.widx) % 8;
                self.flops.write(self.staging[widx as usize], w);
                let seq = self.flops.read(self.seq);
                self.flops.write(self.seq, seq.wrapping_add(1));
                let new_pos = pos + 8;
                self.flops.write(self.pos, new_pos);
                if widx == 7 {
                    // Frame complete → move staging into the RX buffer
                    // (space permitting).
                    let occ_now = self.flops.read(self.occ);
                    if occ_now < RX_FRAMES {
                        let wr = self.flops.read(self.wr_ptr);
                        for i in 0..8usize {
                            let v = self.flops.read(self.staging[i]);
                            self.bufs.rx_write(wr as usize + i, v);
                        }
                        self.flops.write(self.wr_ptr, (wr + 8) % 1024);
                        self.flops.write(self.occ, occ_now + 1);
                        self.flops.write(self.widx, 0);
                    } else {
                        // Buffer full: hold the frame (rewind pos so the
                        // last word is re-streamed next cycle).
                        self.flops.write(self.pos, pos);
                    }
                } else {
                    self.flops.write(self.widx, widx + 1);
                }
            }
            // Deposit the next link word at the tail of the pipe.
            let lane_count = self.flops.read(self.lane_count);
            let feed = self.flops.read(self.feed_pos);
            if feed < len && lane_count < self.deskew.len() as u64 {
                let w = stream_word(self.seed_value(), feed / 8);
                self.flops
                    .write(self.deskew[(lane_count as usize) % self.deskew.len()], w);
                self.flops.write(self.lane_count, lane_count + 1);
                self.flops.write(self.feed_pos, feed + 8);
            }
            if pos >= len && self.flops.read(self.occ) == 0 && !self.write_block {
                // ── Completion: write the doorbell ──────────────────
                let mut line = mem.read_line(doorbell_addr().line());
                line[0] = 1; // ready flag
                line[1] = len; // byte count for software validation
                mem.write_line(doorbell_addr().line(), line);
                self.flops.write_bool(self.active, false);
                out.completed = true;
            }
        }

        out
    }
}

impl Default for Pcie {
    fn default() -> Self {
        Pcie::new()
    }
}

impl UncoreRtl for Pcie {
    fn kind(&self) -> ComponentKind {
        ComponentKind::Pcie
    }

    fn flops(&self) -> &FlopSpace {
        &self.flops
    }

    fn flops_mut(&mut self) -> &mut FlopSpace {
        &mut self.flops
    }

    fn is_benign_diff(&self, golden: &Self, bit: usize) -> bool {
        // The PCIe engine has no valid-guarded queues among its flops
        // (the RX buffer is architectural state); staging registers are
        // benign only while the engine is inactive in both copies.
        let f = self.flops.field_of_bit(bit);
        (f.name.starts_with("staging.w") || f.name.starts_with("lane."))
            && !self.flops.read_bool(self.active)
            && !golden.flops.read_bool(golden.active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_arch::DramContents;
    use nestsim_proto::addr::region;

    fn desc(len: u64) -> DmaDescriptor {
        DmaDescriptor {
            dst: region::INPUT_BASE,
            len,
            stream_seed: 0x1234,
        }
    }

    fn run(p: &mut Pcie, mem: &mut DramContents, cycles: usize) -> bool {
        let mut completed = false;
        for _ in 0..cycles {
            completed |= p.tick(mem).completed;
        }
        completed
    }

    #[test]
    fn transfers_whole_file_and_rings_doorbell() {
        let mut mem = DramContents::new();
        let mut p = Pcie::new();
        p.program(desc(256)); // 4 frames
        let done = run(&mut p, &mut mem, 200);
        assert!(done);
        assert!(p.idle());
        // Every word matches the synthetic stream.
        for w in 0..32u64 {
            let a = PAddr::new(region::INPUT_BASE.raw() + w * 8);
            assert_eq!(mem.read_word(a), stream_word(0x1234, w), "word {w}");
        }
        // Doorbell carries the ready flag and the length.
        let db = mem.read_line(doorbell_addr().line());
        assert_eq!(db[0], 1);
        assert_eq!(db[1], 256);
    }

    #[test]
    fn throughput_is_roughly_eight_cycles_per_frame() {
        let mut mem = DramContents::new();
        let mut p = Pcie::new();
        p.program(desc(64 * 100));
        let mut cycles = 0;
        while !p.tick(&mut mem).completed {
            cycles += 1;
            assert!(cycles < 10_000, "transfer did not complete");
        }
        assert!((800..1200).contains(&cycles), "took {cycles} cycles");
    }

    #[test]
    fn garbage_an_idle_engine_holds_never_reaches_an_output() {
        // The compare calls staging and lane registers benign while the
        // engine is inactive in both copies, and a run may end there as
        // Vanished. That is exact only if a transfer programmed later
        // overwrites every such register before a tick reads it: fill
        // them with random garbage in an idle engine, then run a random
        // transfer on it and on its clean twin.
        let mut rng = nestsim_harness::rng::HarnessRng::new(0x1d1e_0b5e);
        for case in 0..24 {
            let mut mem_g = DramContents::new();
            let mut g = Pcie::new();
            g.program(desc(8 * (1 + rng.below(40))));
            while !g.idle() {
                g.tick(&mut mem_g);
            }
            let (mut t, mut mem_t) = (g.clone(), mem_g.clone());
            let mut flipped = 0;
            for bit in 0..t.flops().num_flops() {
                if t.is_benign_diff(&g, bit) && rng.next_u64() & 1 == 1 {
                    t.flops_mut().flip(bit);
                    flipped += 1;
                }
            }
            assert!(
                flipped > 100,
                "case {case}: only {flipped} benign bits flipped"
            );
            let d = DmaDescriptor {
                dst: region::INPUT_BASE,
                len: 8 * (1 + rng.below(200)),
                stream_seed: rng.next_u64(),
            };
            t.program(d);
            g.program(d);
            for cycle in 0..4_000 {
                assert_eq!(
                    t.tick(&mut mem_t),
                    g.tick(&mut mem_g),
                    "case {case} cycle {cycle}"
                );
            }
            assert!(!g.active(), "case {case}: the transfer did not finish");
            assert!(mem_t == mem_g, "case {case}: memory differs");
        }
    }

    #[test]
    fn staging_flip_corrupts_exactly_one_input_word() {
        let mut mem_t = DramContents::new();
        let mut mem_g = DramContents::new();
        let mut t = Pcie::new();
        t.program(desc(512));
        let mut g = t.clone();
        // Let a few words stream, then flip a staging bit in the target.
        for _ in 0..3 {
            t.tick(&mut mem_t);
            g.tick(&mut mem_g);
        }
        let bit = t
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "staging.w1")
            .map(|f| f.offset + 9)
            .unwrap();
        t.flops_mut().flip(bit);
        for _ in 0..300 {
            t.tick(&mut mem_t);
            g.tick(&mut mem_g);
        }
        // Exactly one memory word differs between the two runs.
        let mut diffs = 0;
        for w in 0..64u64 {
            let a = PAddr::new(region::INPUT_BASE.raw() + w * 8);
            if mem_t.read_word(a) != mem_g.read_word(a) {
                diffs += 1;
            }
        }
        assert_eq!(diffs, 1);
    }

    #[test]
    fn active_flip_kills_transfer_and_doorbell() {
        let mut mem = DramContents::new();
        let mut p = Pcie::new();
        p.program(desc(1024));
        for _ in 0..10 {
            p.tick(&mut mem);
        }
        let bit = p
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "desc.active")
            .map(|f| f.offset)
            .unwrap();
        p.flops_mut().flip(bit);
        let done = run(&mut p, &mut mem, 2000);
        assert!(!done, "killed transfer must never complete");
        assert_eq!(mem.read_line(doorbell_addr().line())[0], 0);
    }

    #[test]
    fn pos_flip_skips_or_repeats_data() {
        let mut mem_t = DramContents::new();
        let mut mem_g = DramContents::new();
        let mut t = Pcie::new();
        t.program(desc(1024));
        let mut g = t.clone();
        for _ in 0..40 {
            t.tick(&mut mem_t);
            g.tick(&mut mem_g);
        }
        let bit = t
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "desc.pos")
            .map(|f| f.offset + 7) // +128 bytes
            .unwrap();
        t.flops_mut().flip(bit);
        for _ in 0..2000 {
            t.tick(&mut mem_t);
            g.tick(&mut mem_g);
        }
        // Many input words differ (skipped region).
        let mut diffs = 0;
        for w in 0..128u64 {
            let a = PAddr::new(region::INPUT_BASE.raw() + w * 8);
            if mem_t.read_word(a) != mem_g.read_word(a) {
                diffs += 1;
            }
        }
        assert!(diffs > 4, "only {diffs} words differ");
    }

    #[test]
    fn arch_round_trip_preserves_progress() {
        let mut mem = DramContents::new();
        let mut p = Pcie::new();
        p.program(desc(4096));
        for _ in 0..100 {
            p.tick(&mut mem);
        }
        let a = p.arch();
        let mut q = Pcie::new();
        q.load_arch(a.clone());
        assert_eq!(q.arch(), a);
        // The restored engine finishes the transfer correctly.
        let done = run(&mut q, &mut mem, 10_000);
        assert!(done);
        for w in 0..(4096 / 8) as u64 {
            let addr = PAddr::new(region::INPUT_BASE.raw() + w * 8);
            assert_eq!(mem.read_word(addr), stream_word(0x1234, w), "word {w}");
        }
    }

    #[test]
    fn one_move_deskew_shift_matches_the_per_register_loop() {
        let mut rng = nestsim_harness::rng::HarnessRng::new(0x5eed_0020);
        let mut p = Pcie::new();
        for _ in 0..8 {
            for bit in 0..p.flops.num_flops() {
                if rng.next_u64() & 1 == 1 {
                    p.flops.flip(bit);
                }
            }
            // The shift as it was, body verbatim.
            let mut want = p.flops.clone();
            for i in 1..p.deskew.len() {
                let v = want.read(p.deskew[i]);
                want.write(p.deskew[i - 1], v);
            }
            let last = p.deskew.len() - 1;
            want.write(p.deskew[last], 0);

            p.shift_deskew();
            assert_eq!(p.flops.diff_count(&want), 0);
        }
    }

    #[test]
    fn flop_layout_is_pinned() {
        // Global bit indices are sample identities (see the L2C twin of
        // this test). Spelled out here, not derived from `Pcie::new`.
        use FlopClass::{Config, CrcProtected, Target, TimingCritical};
        let mut want: Vec<(String, usize, FlopClass)> = vec![
            ("desc.dst".into(), 34, Target),
            ("desc.len".into(), 27, Target),
            ("desc.seed_lo".into(), 32, Target),
            ("desc.seed_hi".into(), 32, Target),
            ("desc.pos".into(), 27, Target),
            ("desc.drain_pos".into(), 27, Target),
            ("desc.active".into(), 1, Target),
        ];
        want.extend((0..8).map(|i| (format!("staging.w{i}"), 64, Target)));
        want.extend([
            ("staging.widx".into(), 4, Target),
            ("rx.wr_ptr".into(), 10, Target),
            ("rx.rd_ptr".into(), 10, Target),
            ("rx.occ".into(), 8, Target),
            ("fc.credits".into(), 4, TimingCritical),
            ("fc.timer".into(), 3, Target),
            ("link.seq".into(), 16, Target),
            ("cfg.bar".into(), 34, Config),
            ("cfg.link_width".into(), 4, Config),
        ]);
        want.extend((0..48).map(|i| (format!("lane.deskew[{i}]"), 64, Target)));
        want.push(("lane.count".into(), 6, Target));
        want.push(("lane.feed_pos".into(), 27, Target));
        want.extend((0..16).map(|i| (format!("lcrc.shift[{i}]"), 64, CrcProtected)));

        let p = Pcie::new();
        let fields = p.flops().fields();
        assert_eq!(fields.len(), 90);
        assert_eq!(p.flops().num_flops(), 4_914);
        assert_eq!(fields.len(), want.len());
        let mut offset = 0;
        for (f, (name, width, class)) in fields.iter().zip(&want) {
            assert_eq!(
                (&f.name, f.width, f.offset, f.class),
                (name, *width, offset, *class)
            );
            offset += width;
        }
        // Reset values: credits full, everything else zero.
        assert_eq!(p.flops.read(p.credits), CREDIT_MAX);
        assert_eq!(p.flops().raw_bits().count_ones(), 1);
    }

    #[test]
    fn census_matches_table4_shape() {
        use nestsim_rtl::FlopClass;
        let p = Pcie::new();
        let census: std::collections::HashMap<_, _> =
            p.flops().class_census().into_iter().collect();
        let total = p.flops().num_flops() as f64;
        let target = census[&FlopClass::Target] as f64;
        let crc = census[&FlopClass::CrcProtected] as f64;
        assert!(target / total > 0.7, "target share {:.2}", target / total);
        assert!(crc / total > 0.1, "crc share {:.2}", crc / total);
        assert_eq!(census[&FlopClass::Inactive], 0); // Table 4: 0%
    }
}
