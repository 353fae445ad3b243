//! The event-driven full-system simulator (accelerated mode).

use std::collections::VecDeque;

use nestsim_arch::mem::{refill_table, WORDS_PER_LINE};
use nestsim_arch::{BuildU64Hasher, DramContents, L2BankArch, L2Geometry};
use nestsim_proto::addr::{l2_bank_of, mcu_of_bank, BankId, LineAddr, McuId, PAddr, ThreadId};
use nestsim_proto::pcie::{stream_word, DmaDescriptor};
use nestsim_proto::{CpxKind, CpxPacket, PcxKind, PcxPacket, ReqId, Topology};
use nestsim_stats::SeedSeq;

use crate::events::{Ev, EventQueue};
use crate::layout;
use crate::thread::{
    control_error_path, ControlErrorPath, LoadUse, Op, ThreadCtx, ThreadState, TrapCause,
};
use crate::workload::{BenchProfile, ProgGen};

/// Re-export of the DMA doorbell address (see `nestsim-proto`).
pub use nestsim_proto::pcie::doorbell_addr;

/// Functional L2 hit latency in cycles (includes crossbar transit).
pub const L2_HIT_LATENCY: u64 = 20;
/// Functional L2 miss latency in cycles (adds the DRAM round trip).
pub const L2_MISS_LATENCY: u64 = 100;
/// Doorbell-poll retry interval in cycles.
pub const POLL_RETRY: u64 = 64;
/// Cycles per DMA frame in the functional PCIe model (matches the RTL
/// engine's steady-state rate of one 64-bit word per cycle).
pub const DMA_FRAME_CYCLES: u64 = 8;
/// Request ids must fit the RTL models' 32-bit flop fields.
pub const UNCORE_REQ_ID_LIMIT: u64 = 1 << 32;

/// Which traffic, if any, is diverted out of the functional models and
/// into an RTL component under co-simulation (Fig. 1b ②).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterceptMode {
    /// Pure accelerated mode.
    None,
    /// L2C co-simulation: requests to this bank leave via the outbox.
    Bank(BankId),
    /// MCU co-simulation: DRAM traffic of the two banks this MCU serves
    /// leaves via the outbox.
    McuPair(McuId),
    /// CCX co-simulation: every core request leaves via the outbox.
    AllRequests,
    /// PCIe co-simulation: the functional DMA engine is suspended; the
    /// RTL engine (driven by the mixed-mode platform) writes memory.
    PcieDma,
}

/// Messages leaving the system toward the co-simulated RTL component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutMsg {
    /// A core request packet (L2C or CCX co-simulation).
    Pcx(PcxPacket),
    /// A cache fill request from a functional bank (MCU co-simulation).
    DramFill {
        /// Requesting bank.
        bank: BankId,
        /// Line to fetch.
        line: LineAddr,
    },
    /// A dirty-eviction writeback from a functional bank (MCU
    /// co-simulation).
    DramWriteback {
        /// Evicting bank.
        bank: BankId,
        /// Line written back.
        line: LineAddr,
        /// Line data.
        data: [u64; 8],
    },
}

/// Final status of an application run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunResult {
    /// All threads halted; `digest` summarises the output region.
    Completed {
        /// Output-region digest.
        digest: u64,
        /// Total cycles executed.
        cycles: u64,
    },
    /// A thread trapped (Unexpected Termination).
    Trapped {
        /// The trapping thread.
        thread: ThreadId,
        /// Why it trapped.
        cause: TrapCause,
        /// When it trapped.
        cycle: u64,
    },
    /// The watchdog expired or no forward progress was possible.
    Hang {
        /// Cycle at which the hang was declared.
        cycle: u64,
    },
}

impl RunResult {
    /// True for the `Completed` variant.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunResult::Completed { .. })
    }

    /// The output digest, if completed.
    pub fn digest(&self) -> Option<u64> {
        match self {
            RunResult::Completed { digest, .. } => Some(*digest),
            _ => None,
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The benchmark to run.
    pub profile: &'static BenchProfile,
    /// SoC topology.
    pub topology: Topology,
    /// Campaign seed (drives the workload generators and the input
    /// file contents).
    pub seed: u64,
    /// Additional division of the benchmark length (1 = the full
    /// DESIGN.md-scaled length; tests use larger factors).
    pub length_scale: u64,
    /// Watchdog limit in cycles (`None` → 10× the length target).
    pub watchdog_cycles: Option<u64>,
    /// L2 bank geometry.
    pub l2_geometry: L2Geometry,
}

impl SystemConfig {
    /// Full-length configuration on the T2 topology.
    pub fn new(profile: &'static BenchProfile) -> Self {
        SystemConfig {
            profile,
            topology: Topology::t2(),
            seed: 42,
            length_scale: 1,
            watchdog_cycles: None,
            l2_geometry: L2Geometry::default(),
        }
    }

    /// Heavily shortened configuration for unit tests and doc examples.
    pub fn smoke_test(profile: &'static BenchProfile) -> Self {
        SystemConfig {
            length_scale: 500,
            ..SystemConfig::new(profile)
        }
    }
}

/// A processor-core register class targeted by core-side error
/// injection — the baseline for the Fig. 4 uncore-vs-core comparison.
/// These are the architectural/pipeline registers the cited core
/// studies ([Cho 13], [Sanda 08]) inject into, at our modeling
/// granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreReg {
    /// The running data accumulator (64 bits) — datapath registers.
    Acc,
    /// The pointer-chase cursor (34 bits) — address registers.
    Ptr,
    /// The in-flight load-return register (64 bits).
    Pending,
    /// The op-stream generator state (64 bits) — branch/loop control.
    Control,
}

impl CoreReg {
    /// All register classes with their widths in bits.
    pub const ALL: [(CoreReg, u32); 4] = [
        (CoreReg::Acc, 64),
        (CoreReg::Ptr, 34),
        (CoreReg::Pending, 64),
        (CoreReg::Control, 64),
    ];
}

/// Functional DMA engine state.
#[derive(Debug, Clone)]
struct FuncDma {
    desc: DmaDescriptor,
    pos: u64,
    active: bool,
    suspended: bool,
}

/// Deterministic size metrics of one system snapshot (what a
/// [`System::clone`] actually captures). Campaign telemetry records
/// these instead of wall-clock times so the numbers are reproducible
/// across machines and worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotCost {
    /// Cycle the snapshot was taken at.
    pub cycle: u64,
    /// Hardware threads captured.
    pub threads: usize,
    /// Backed (written-at-least-once) DRAM lines captured.
    pub dram_lines: usize,
    /// Valid lines across all L2 bank tag arrays.
    pub resident_l2_lines: usize,
    /// Entries in the last-store tracking map (rollback analysis state).
    pub tracked_stores: usize,
}

/// The full-system simulator.
///
/// Cloning a `System` captures a complete snapshot (Fig. 2 step 1 uses
/// these as the restart points for error-injection runs). The DRAM
/// image is paged and copy-on-write, so a clone copies only the pages
/// this system still holds privately — none right after
/// [`share_pages`](System::share_pages). `clone_from` refills an
/// existing system and reuses every buffer it holds — bank arrays,
/// thread and event storage, maps, the page table and every arena
/// chunk — so a restore into a system that ran before allocates next to
/// nothing. The last-store table and the page table are refilled in
/// place when they can hold the source's entries
/// ([`refill_table`]): they reallocate only for a source with more
/// entries than they ever had room for.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    cycle: u64,
    events: EventQueue,
    threads: Vec<ThreadCtx>,
    /// Pending loaded value per thread (applied at the completion wake).
    pending_value: Vec<u64>,
    l2: Vec<L2BankArch>,
    dram: DramContents,
    dma: FuncDma,
    barrier_mask: u64,
    barrier_count: u32,
    halted: u32,
    /// The cycle the last thread halted on, once every thread has: the
    /// clock runs on past it.
    ended: u64,
    next_req: u64,
    trap: Option<(ThreadId, TrapCause, u64)>,
    watchdog: u64,

    intercept: InterceptMode,
    outbox: VecDeque<OutMsg>,
    /// Thread accesses waiting on a fill from a co-simulated MCU, as
    /// `(bank, line, thread)` in arrival order: one entry per waiting
    /// access, so no more than there are threads.
    pending_fills: Vec<(u8, u64, u8)>,

    last_store: StoreMap,
    /// Whether stores are recorded in `last_store` (`untrack_stores`).
    track_stores: bool,
    tainted: LineSet,
    first_taint_read: Option<u64>,
}

type StoreMap = std::collections::HashMap<u64, u64, BuildU64Hasher>;
type LineSet = std::collections::HashSet<u64, BuildU64Hasher>;

// Hand-written so that `clone_from` reuses every buffer. Both methods
// destructure every field: a field added to `System` fails to compile
// here until it is copied.
impl Clone for System {
    fn clone(&self) -> Self {
        let System {
            cfg,
            cycle,
            events,
            threads,
            pending_value,
            l2,
            dram,
            dma,
            barrier_mask,
            barrier_count,
            halted,
            ended,
            next_req,
            trap,
            watchdog,
            intercept,
            outbox,
            pending_fills,
            last_store,
            track_stores,
            tainted,
            first_taint_read,
        } = self;
        System {
            cfg: cfg.clone(),
            cycle: *cycle,
            events: events.clone(),
            threads: threads.clone(),
            pending_value: pending_value.clone(),
            l2: l2.clone(),
            dram: dram.clone(),
            dma: dma.clone(),
            barrier_mask: *barrier_mask,
            barrier_count: *barrier_count,
            halted: *halted,
            ended: *ended,
            next_req: *next_req,
            trap: *trap,
            watchdog: *watchdog,
            intercept: *intercept,
            outbox: outbox.clone(),
            pending_fills: pending_fills.clone(),
            last_store: last_store.clone(),
            track_stores: *track_stores,
            tainted: tainted.clone(),
            first_taint_read: *first_taint_read,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let System {
            cfg,
            cycle,
            events,
            threads,
            pending_value,
            l2,
            dram,
            dma,
            barrier_mask,
            barrier_count,
            halted,
            ended,
            next_req,
            trap,
            watchdog,
            intercept,
            outbox,
            pending_fills,
            last_store,
            track_stores,
            tainted,
            first_taint_read,
        } = source;
        self.cfg.clone_from(cfg);
        self.cycle = *cycle;
        self.events.clone_from(events);
        self.threads.clone_from(threads);
        self.pending_value.clone_from(pending_value);
        self.l2.clone_from(l2);
        self.dram.clone_from(dram);
        self.dma.clone_from(dma);
        self.barrier_mask = *barrier_mask;
        self.barrier_count = *barrier_count;
        self.halted = *halted;
        self.ended = *ended;
        self.next_req = *next_req;
        self.trap = *trap;
        self.watchdog = *watchdog;
        self.intercept = *intercept;
        self.outbox.clone_from(outbox);
        self.pending_fills.clone_from(pending_fills);
        refill_table(&mut self.last_store, last_store);
        self.track_stores = *track_stores;
        self.tainted.clone_from(tainted);
        self.first_taint_read = *first_taint_read;
    }
}

impl System {
    /// Builds the system: writes the program image, programs the DMA
    /// engine (if the benchmark has an input file), and readies all
    /// threads at cycle 0.
    pub fn new(cfg: SystemConfig) -> Self {
        Self::with_queue(cfg, EventQueue::default())
    }

    /// [`new`](Self::new) on `events`, an empty queue: [`renew`](Self::renew)
    /// of a system that holds no storage yet.
    fn with_queue(cfg: SystemConfig, events: EventQueue) -> Self {
        let mut sys = System {
            cfg: cfg.clone(),
            cycle: 0,
            events,
            threads: Vec::new(),
            pending_value: Vec::new(),
            l2: Vec::new(),
            dram: DramContents::new(),
            dma: FuncDma {
                desc: cfg.profile.dma_descriptor(0),
                pos: 0,
                active: false,
                suspended: false,
            },
            barrier_mask: 0,
            barrier_count: 0,
            halted: 0,
            ended: 0,
            next_req: 0,
            trap: None,
            watchdog: 0,
            intercept: InterceptMode::None,
            outbox: VecDeque::new(),
            pending_fills: Vec::new(),
            last_store: StoreMap::default(),
            track_stores: true,
            tainted: LineSet::default(),
            first_taint_read: None,
        };
        sys.renew(cfg);
        sys
    }

    /// Becomes what [`new`](Self::new)`(cfg)` builds, in the storage this
    /// system holds — bank arrays, thread, event and outbox buffers, the
    /// tables, the page table and every arena chunk — whatever it held
    /// before: a system parked for reuse starts a new cell here, and
    /// allocates only where `cfg` needs more room than it ever had.
    /// `new` is this on a system that holds nothing.
    pub fn renew(&mut self, cfg: SystemConfig) {
        // Every field is named: a new one fails to compile here until
        // it is reset.
        let System {
            cfg: my_cfg,
            cycle,
            events,
            threads,
            pending_value,
            l2,
            dram,
            dma,
            barrier_mask,
            barrier_count,
            halted,
            ended,
            next_req,
            trap,
            watchdog,
            intercept,
            outbox,
            pending_fills,
            last_store,
            track_stores,
            tainted,
            first_taint_read,
        } = self;
        let threads_n = cfg.topology.total_threads();
        let seed = SeedSeq::new(cfg.seed);
        // The image is the bulk of the state and most of it is never
        // written again. It arrives with every page shared, so clones
        // of the base copy no page.
        layout::image_into(dram, threads_n, cfg.profile.working_set_words);

        let dma_seed = seed.derive("input-file").seed();
        *dma = FuncDma {
            desc: cfg.profile.dma_descriptor(dma_seed),
            pos: 0,
            active: cfg.profile.has_input_file(),
            suspended: false,
        };

        threads.clear();
        threads.extend((0..threads_n).map(|t| {
            ThreadCtx::new(
                ThreadId::new(t),
                ProgGen::new(cfg.profile, seed, t, threads_n, cfg.length_scale.max(1)),
            )
        }));
        pending_value.clear();
        pending_value.resize(threads_n, 0);
        let banks = cfg.topology.l2_banks;
        l2.truncate(banks);
        for (b, bank) in l2.iter_mut().enumerate() {
            bank.reset_for_bank(cfg.l2_geometry, b);
        }
        let have = l2.len();
        l2.extend((have..banks).map(|b| L2BankArch::for_bank(cfg.l2_geometry, b)));

        *watchdog = cfg.watchdog_cycles.unwrap_or_else(|| {
            cfg.profile.target_cycles() / cfg.length_scale.max(1) * 10 + 500_000
        });
        *cycle = 0;
        events.clear();
        (*barrier_mask, *barrier_count, *halted, *ended) = (0, 0, 0, 0);
        *next_req = 1;
        *trap = None;
        *intercept = InterceptMode::None;
        outbox.clear();
        pending_fills.clear();
        last_store.clear();
        *track_stores = true;
        tainted.clear();
        *first_taint_read = None;
        *my_cfg = cfg;
        // Kick every thread at cycle 0 (staggered one apart for a
        // deterministic, realistic ramp).
        for t in 0..threads_n {
            self.schedule(t as u64 % 8, Ev::Wake(t as u8));
        }
        if self.dma.active {
            self.schedule(DMA_FRAME_CYCLES, Ev::DmaFrame);
        }
    }

    // ── Introspection ───────────────────────────────────────────────

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The benchmark profile being run.
    pub fn profile(&self) -> &'static BenchProfile {
        self.cfg.profile
    }

    /// The pending trap, if a thread has trapped.
    pub fn trap(&self) -> Option<(ThreadId, TrapCause, u64)> {
        self.trap
    }

    /// True once every thread has halted.
    pub fn all_halted(&self) -> bool {
        self.halted as usize == self.threads.len()
    }

    /// The watchdog limit in cycles.
    pub fn watchdog(&self) -> u64 {
        self.watchdog
    }

    /// Overrides the watchdog limit (error-injection runs use
    /// `2 × error-free length + margin`).
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.watchdog = cycles;
    }

    /// The DMA descriptor for this run's input file.
    pub fn dma_descriptor(&self) -> DmaDescriptor {
        self.dma.desc
    }

    /// Functional DMA progress: `(bytes_streamed, active)`.
    pub fn dma_progress(&self) -> (u64, bool) {
        (self.dma.pos, self.dma.active)
    }

    /// Architectural state of one functional L2 bank.
    pub fn bank_arch(&self, bank: BankId) -> &L2BankArch {
        &self.l2[bank.index()]
    }

    /// Replaces a bank's architectural state (mixed-mode state transfer
    /// back from RTL, Fig. 2 step 10), copying `arch` into the arrays the
    /// bank holds.
    pub fn set_bank_arch(&mut self, bank: BankId, arch: &L2BankArch) {
        self.l2[bank.index()].clone_from(arch);
    }

    /// Read-only DRAM contents.
    pub fn dram(&self) -> &DramContents {
        &self.dram
    }

    /// Mutable DRAM contents (used by the mixed-mode platform to apply
    /// co-simulation overlays and to let the RTL PCIe engine write).
    pub fn dram_mut(&mut self) -> &mut DramContents {
        &mut self.dram
    }

    /// Makes every DRAM page this system holds privately a shared,
    /// immutable one ([`DramContents::freeze`]), copying nothing: the
    /// step to take before a system is cloned many times (a fresh base,
    /// a ladder rung, a cursor parked at an entry point), so that each
    /// clone copies the page table. This system's next write takes the
    /// pages back if every such clone is gone (or released) by then, and
    /// otherwise each first write to a page copies that page. Simulated
    /// state is unchanged.
    pub fn share_pages(&mut self) {
        self.dram.freeze();
    }

    /// Lets go of every DRAM page ([`DramContents::release`]), keeping
    /// the buffers: the step to take when a finished system is parked
    /// for a later `clone_from`, so that it stops pinning the pages of
    /// the system it was cloned from and that one can write in place
    /// again. The system's memory reads as all-zero afterwards; it is
    /// only fit to be refilled.
    pub fn release_pages(&mut self) {
        self.dram.release();
    }

    /// [`release_pages`](Self::release_pages) for a system parked for
    /// another campaign, which also frees its DRAM arena chunks
    /// ([`DramContents::release_storage`]): it keeps the buffers its
    /// configuration sizes — bank arrays, thread, event and outbox
    /// storage, the tables — and none that the pages one run dirtied
    /// sized.
    pub fn park(&mut self) {
        self.dram.release_storage();
    }

    // ── Taint / rollback bookkeeping (Sec. 5 analyses) ──────────────

    /// Marks memory lines corrupted by an injected error; the first
    /// subsequent core load of a tainted line is recorded as the error
    /// reaching the cores (Fig. 8's propagation latency).
    pub fn mark_tainted(&mut self, lines: impl IntoIterator<Item = LineAddr>) {
        // Extends a set: membership is insensitive to iteration order.
        self.tainted.extend(lines.into_iter().map(|l| l.raw()));
    }

    /// Cycle at which a core first loaded a tainted line, if it has.
    pub fn first_taint_read(&self) -> Option<u64> {
        self.first_taint_read
    }

    /// Size metrics of a snapshot (clone) taken right now.
    pub fn snapshot_cost(&self) -> SnapshotCost {
        SnapshotCost {
            cycle: self.cycle,
            threads: self.threads.len(),
            dram_lines: self.dram.backed_lines(),
            resident_l2_lines: self.l2.iter().map(|b| b.valid_lines()).sum(),
            tracked_stores: self.last_store.len(),
        }
    }

    /// Cycle at which a core last stored to `line` (None = never; the
    /// line's contents date from the program image / DMA, i.e. cycle 0).
    /// Feeds the Fig. 9 required-rollback-distance analysis.
    pub fn last_store_cycle(&self, line: LineAddr) -> Option<u64> {
        self.last_store.get(&line.raw()).copied()
    }

    /// Stops recording stores for [`last_store_cycle`](Self::last_store_cycle)
    /// from here on, for a run whose last stores nobody reads any more:
    /// a golden pass that captures no rung, or an injection run past its
    /// rollback analysis. Nothing the run computes changes. A refill
    /// copies the setting of its source, and [`renew`](Self::renew)
    /// records again.
    pub fn untrack_stores(&mut self) {
        self.track_stores = false;
    }

    // ── Interception (co-simulation coupling) ───────────────────────

    /// Sets the interception mode (entering/leaving co-simulation).
    pub fn set_intercept(&mut self, mode: InterceptMode) {
        if matches!(mode, InterceptMode::PcieDma) {
            self.dma.suspended = true;
        } else if matches!(self.intercept, InterceptMode::PcieDma) {
            self.dma.suspended = false;
        }
        self.intercept = mode;
    }

    /// Resynchronises the functional DMA engine after PCIe
    /// co-simulation: `pos` bytes transferred, `active` still running.
    pub fn resume_dma(&mut self, pos: u64, active: bool) {
        self.dma.pos = pos;
        self.dma.active = active;
        self.dma.suspended = false;
        if active {
            self.schedule(DMA_FRAME_CYCLES, Ev::DmaFrame);
        }
    }

    /// Takes the oldest message destined for the co-simulated RTL
    /// component. Drivers empty the outbox every cycle with
    /// `while let Some(msg) = sys.pop_outbox()`, in place.
    pub fn pop_outbox(&mut self) -> Option<OutMsg> {
        self.outbox.pop_front()
    }

    /// Delivers a return packet from the co-simulated component to the
    /// cores. A packet whose id/thread do not match any waiting request
    /// is a protocol violation — the receiving core takes a trap, as a
    /// SPARC core does on an unexpected CPX packet. (Ghost and
    /// misrouted packets created by injected errors therefore surface
    /// as Unexpected Termination, matching the paper's observation that
    /// control-related uncore corruption skews towards UT.)
    pub fn deliver_cpx(&mut self, cpx: CpxPacket) {
        // A corrupted thread field may name a hardware thread that does
        // not exist on this topology (e.g. the reduced 4-thread Fig. 7
        // configuration); the violation is attributed to the strand the
        // interconnect would physically deliver to.
        let victim = cpx.thread.index() % self.threads.len();
        // A request waits on the strand that issued it, and strand `i`
        // is `ThreadId::new(i)`, so only the strand the packet names can
        // own it. An unknown id, or a known one on the wrong strand, is
        // not the requester's packet: the request stays in flight.
        let ti = cpx.thread.index();
        if self
            .threads
            .get(ti)
            .is_none_or(|th| th.pending_req != Some(cpx.id))
        {
            self.raise_trap(victim, TrapCause::UncoreError);
            return;
        }
        self.threads[ti].pending_req = None;
        if cpx.kind == CpxKind::Error {
            self.raise_trap(ti, TrapCause::UncoreError);
            return;
        }
        self.note_taint_on_load(ti, self.threads[ti].current);
        self.pending_value[ti] = cpx.data;
        let compute = self.threads[ti].gen.profile().compute_per_op as u64;
        self.schedule(1 + compute, Ev::Wake(ti as u8));
    }

    /// Delivers a DRAM fill to a functional bank (MCU co-simulation).
    /// Installs the line and completes every thread access waiting on
    /// it. A fill that never arrives leaves the waiters blocked — the
    /// Hang path for dropped commands.
    pub fn deliver_fill(&mut self, bank: BankId, line: LineAddr, data: [u64; 8]) {
        if let Some((victim, vdata)) = self.l2[bank.index()].install(line, data) {
            self.outbox.push_back(OutMsg::DramWriteback {
                bank,
                line: victim,
                data: vdata,
            });
        }
        let key = (bank.index() as u8, line.raw());
        let mut i = 0;
        while let Some(&(b, l, t)) = self.pending_fills.get(i) {
            if (b, l) != key {
                i += 1;
                continue;
            }
            self.pending_fills.remove(i);
            let ti = t as usize;
            let Some(op) = self.threads[ti].current else {
                continue;
            };
            let slot = op_addr(op).and_then(|a| self.l2[l2_bank_of(a).index()].slot_of(a.line()));
            let value = self.perform_word_op(ti, op, slot);
            self.pending_value[ti] = value;
            let compute = self.threads[ti].gen.profile().compute_per_op as u64;
            self.schedule(1 + compute, Ev::Wake(t));
        }
    }

    // ── Execution ───────────────────────────────────────────────────

    fn schedule(&mut self, delta: u64, ev: Ev) {
        self.events.push(self.cycle + delta, ev);
    }

    fn raise_trap(&mut self, t: usize, cause: TrapCause) {
        if self.trap.is_none() {
            self.trap = Some((self.threads[t].id, cause, self.cycle));
        }
    }

    fn is_intercepted_request(&self, bank: BankId) -> bool {
        match self.intercept {
            InterceptMode::Bank(b) => b == bank,
            InterceptMode::AllRequests => true,
            _ => false,
        }
    }

    fn is_intercepted_dram(&self, bank: BankId) -> bool {
        matches!(self.intercept, InterceptMode::McuPair(m) if m == mcu_of_bank(bank))
    }

    fn alloc_req(&mut self) -> ReqId {
        let id = self.next_req;
        self.next_req += 1;
        assert!(id < UNCORE_REQ_ID_LIMIT, "request id overflow");
        ReqId(id)
    }

    /// Records a store for the rollback analysis.
    fn note_store(&mut self, addr: PAddr) {
        if self.track_stores {
            self.last_store.insert(addr.line().raw(), self.cycle);
        }
    }

    fn note_taint_on_load(&mut self, _t: usize, op: Option<Op>) {
        if self.first_taint_read.is_some() || self.tainted.is_empty() {
            return;
        }
        if let Some(Op::Load { addr, .. } | Op::Ifetch { addr }) = op {
            if self.tainted.contains(&addr.line().raw()) {
                self.first_taint_read = Some(self.cycle);
            }
        }
    }

    /// Performs the word-level semantics of `op` against its line,
    /// resident at `slot` of its bank (`None`: not resident), returning
    /// the value the thread will consume.
    fn perform_word_op(&mut self, t: usize, op: Op, slot: Option<usize>) -> u64 {
        match op {
            Op::Load { addr, .. } | Op::Ifetch { addr } => {
                self.note_taint_on_load(t, Some(op));
                let bank = &mut self.l2[l2_bank_of(addr).index()];
                match slot {
                    Some(s) => {
                        bank.touch_dir_at(s, self.threads[t].id.core().index());
                        bank.read_word_at(s, addr)
                    }
                    None => 0xdead_dead_dead_dead,
                }
            }
            Op::StoreAcc { addr } => {
                if let Some(s) = slot {
                    let value = self.threads[t].acc;
                    self.l2[l2_bank_of(addr).index()].write_word_at(s, addr, value);
                }
                self.note_store(addr);
                0
            }
            Op::Atomic { addr, add } => {
                let bank = &mut self.l2[l2_bank_of(addr).index()];
                let old = slot.map_or(0, |s| {
                    let v = bank.read_word_at(s, addr);
                    bank.write_word_at(s, addr, v.wrapping_add(add));
                    v
                });
                self.note_store(addr);
                old
            }
            _ => 0,
        }
    }

    /// Issues a memory operation functionally (no interception), or
    /// defers it when the DRAM side is intercepted.
    fn functional_access(&mut self, t: usize, op: Op, addr: PAddr) {
        let bank = l2_bank_of(addr);
        let (slot, latency) = match self.l2[bank.index()].slot_of(addr.line()) {
            Some(slot) => (slot, L2_HIT_LATENCY),
            None if self.is_intercepted_dram(bank) => {
                // Defer: the fill goes out to the co-simulated MCU.
                let (b, l) = (bank.index() as u8, addr.line().raw());
                if !(self.pending_fills.iter()).any(|&(wb, wl, _)| (wb, wl) == (b, l)) {
                    self.outbox.push_back(OutMsg::DramFill {
                        bank,
                        line: addr.line(),
                    });
                }
                self.pending_fills.push((b, l, t as u8));
                return;
            }
            None => (
                self.fill_from_dram(bank.index(), addr.line()),
                L2_MISS_LATENCY,
            ),
        };
        let value = self.perform_word_op(t, op, Some(slot));
        self.pending_value[t] = value;
        let compute = self.threads[t].gen.profile().compute_per_op as u64;
        self.schedule(latency + compute, Ev::Wake(t as u8));
    }

    /// Synchronous miss: fills `line` from DRAM, evicting through DRAM,
    /// and returns the slot it now occupies.
    fn fill_from_dram(&mut self, bank: usize, line: LineAddr) -> usize {
        let data = self.dram.line(line).unwrap_or(&[0; WORDS_PER_LINE]);
        let (slot, evicted) = self.l2[bank].install_at(line, data);
        if let Some((victim, vdata)) = evicted {
            self.dram.write_line(victim, vdata);
        }
        slot
    }

    /// Issues `op` for thread `t`.
    fn issue(&mut self, t: usize, op: Op) {
        self.threads[t].ops_issued += 1;
        match op {
            Op::Halt => {
                self.threads[t].state = ThreadState::Halted;
                self.threads[t].current = None;
                self.halted += 1;
                self.ended = self.cycle;
            }
            Op::Barrier => {
                let live: u32 = self.threads.iter().filter(|th| th.is_live()).count() as u32;
                if self.barrier_count + 1 >= live {
                    // Last arrival: release everyone.
                    let mask = self.barrier_mask;
                    self.barrier_mask = 0;
                    self.barrier_count = 0;
                    for u in 0..self.threads.len() {
                        if mask >> u & 1 == 1 {
                            self.threads[u].state = ThreadState::Ready;
                            self.schedule(1, Ev::Wake(u as u8));
                        }
                    }
                    self.threads[t].state = ThreadState::Ready;
                    self.schedule(1, Ev::Wake(t as u8));
                } else {
                    self.threads[t].state = ThreadState::WaitBarrier;
                    self.barrier_mask |= 1 << t;
                    self.barrier_count += 1;
                }
            }
            Op::Load { addr, .. }
            | Op::Ifetch { addr }
            | Op::StoreAcc { addr }
            | Op::Atomic { addr, .. } => {
                if let Err(cause) = ThreadCtx::validate(addr) {
                    self.raise_trap(t, cause);
                    return;
                }
                self.threads[t].current = Some(op);
                self.threads[t].state = ThreadState::WaitMem;
                if let Op::Load {
                    use_: LoadUse::Poll { .. },
                    ..
                } = op
                {
                    // Doorbell polls are uncached (volatile MMIO-style
                    // reads): they must observe DMA writes to memory
                    // directly and never allocate a stale cached copy.
                    self.pending_value[t] = self.dram.read_word(addr);
                    let compute = self.threads[t].gen.profile().compute_per_op as u64;
                    self.schedule(L2_MISS_LATENCY + compute, Ev::Wake(t as u8));
                    return;
                }
                let bank = l2_bank_of(addr);
                if self.is_intercepted_request(bank) {
                    let id = self.alloc_req();
                    let (kind, data) = match op {
                        Op::Load { .. } => (PcxKind::Load, 0),
                        Op::Ifetch { .. } => (PcxKind::Ifetch, 0),
                        Op::StoreAcc { .. } => (PcxKind::Store, self.threads[t].acc),
                        Op::Atomic { add, .. } => (PcxKind::Atomic, add),
                        _ => unreachable!(),
                    };
                    if kind.writes() {
                        self.note_store(addr);
                    }
                    let pkt = PcxPacket {
                        id,
                        thread: self.threads[t].id,
                        kind,
                        addr,
                        data,
                    };
                    self.threads[t].pending_req = Some(id);
                    self.outbox.push_back(OutMsg::Pcx(pkt));
                } else {
                    self.functional_access(t, op, addr);
                }
            }
        }
    }

    /// Applies the consumed value of the completed op, then issues the
    /// thread's next op.
    fn complete_and_continue(&mut self, t: usize) {
        let op = self.threads[t].current.take();
        let value = self.pending_value[t];
        if let Some(Op::Load { use_, .. }) = op {
            match use_ {
                LoadUse::Data => self.threads[t].fold(value),
                LoadUse::Discard => {}
                LoadUse::Pointer => self.threads[t].gen.set_pointer(value),
                LoadUse::Poll { expect } => {
                    if value != expect {
                        // Retry the same load later.
                        let retry = op.unwrap();
                        self.threads[t].current = Some(retry);
                        let t8 = t as u8;
                        self.threads[t].state = ThreadState::Ready;
                        self.schedule_poll_retry(t8, retry);
                        return;
                    }
                }
                LoadUse::Control { expect } => {
                    if value != expect {
                        match control_error_path(value) {
                            ControlErrorPath::WildStore { addr } => {
                                if let Err(_cause) = ThreadCtx::validate(addr) {
                                    self.raise_trap(t, TrapCause::WildStore);
                                    return;
                                }
                                // A valid-but-wrong address: silently
                                // corrupt that memory.
                                let bank = &mut self.l2[l2_bank_of(addr).index()];
                                if let Some(s) = bank.slot_of(addr.line()) {
                                    bank.write_word_at(s, addr, value);
                                } else {
                                    let mut line = self.dram.read_line(addr.line());
                                    line[(addr.line_offset() / 8) as usize] = value;
                                    self.dram.write_line(addr.line(), line);
                                }
                                self.note_store(addr);
                            }
                            ControlErrorPath::RunawayLoop => {
                                self.threads[t].state = ThreadState::RunawayLoop;
                                return;
                            }
                            ControlErrorPath::SilentCorruption => {
                                let th = &mut self.threads[t];
                                th.acc ^= value.wrapping_mul(0x2545_f491_4f6c_dd1d);
                            }
                        }
                    }
                }
            }
        }
        self.threads[t].state = ThreadState::Ready;
        let next = self.threads[t].gen.next_op();
        self.issue(t, next);
    }

    fn schedule_poll_retry(&mut self, t: u8, op: Op) {
        let ti = t as usize;
        self.threads[ti].state = ThreadState::WaitMem;
        self.threads[ti].current = Some(op);
        // Re-access after the retry interval.
        self.schedule(POLL_RETRY, Ev::Wake(t));
        // Mark as a retry needing re-issue rather than value application.
        self.pending_value[ti] = RETRY_SENTINEL;
    }

    /// Coherent DMA write: drops any cached copy of the line (coherent
    /// I/O, as on the T2) and writes DRAM. Also used by the mixed-mode
    /// platform to apply the co-simulated PCIe engine's memory writes.
    pub fn coherent_dma_write(&mut self, line: LineAddr, data: [u64; 8]) {
        let bank = nestsim_proto::addr::l2_bank_of_line(line);
        self.l2[bank.index()].invalidate_line(line);
        self.dram.write_line(line, data);
    }

    fn dma_frame(&mut self) {
        if self.dma.suspended || !self.dma.active {
            return;
        }
        let desc = self.dma.desc;
        if self.dma.pos < desc.len {
            let word0 = self.dma.pos / 8;
            let addr = PAddr::new(desc.dst.raw() + self.dma.pos);
            let data: [u64; 8] =
                core::array::from_fn(|i| stream_word(desc.stream_seed, word0 + i as u64));
            self.coherent_dma_write(addr.line(), data);
            self.dma.pos += 64;
            self.schedule(DMA_FRAME_CYCLES, Ev::DmaFrame);
        } else {
            // Completion doorbell.
            let mut line = self.dram.read_line(doorbell_addr().line());
            line[0] = 1;
            line[1] = desc.len;
            self.coherent_dma_write(doorbell_addr().line(), line);
            self.dma.active = false;
        }
    }

    /// Processes the next pending event, if any. Returns `false` when
    /// the event queue is empty.
    fn step_event(&mut self) -> bool {
        let Some((cycle, ev)) = self.events.pop() else {
            return false;
        };
        self.cycle = self.cycle.max(cycle);
        match ev {
            Ev::DmaFrame => self.dma_frame(),
            Ev::Wake(t) => {
                let ti = t as usize;
                match self.threads[ti].state {
                    ThreadState::WaitMem => {
                        if self.threads[ti].pending_req.is_some() {
                            // Still waiting on an intercepted uncore
                            // response; spurious wake.
                        } else if self.pending_value[ti] == RETRY_SENTINEL
                            && matches!(
                                self.threads[ti].current,
                                Some(Op::Load {
                                    use_: LoadUse::Poll { .. },
                                    ..
                                })
                            )
                        {
                            // Poll retry: re-issue the access.
                            let op = self.threads[ti].current.unwrap();
                            let Op::Load { addr, .. } = op else {
                                unreachable!()
                            };
                            // Uncached MMIO-style re-read (see issue()).
                            self.pending_value[ti] = self.dram.read_word(addr);
                            let compute = self.threads[ti].gen.profile().compute_per_op as u64;
                            self.schedule(L2_MISS_LATENCY + compute, Ev::Wake(t));
                        } else {
                            self.complete_and_continue(ti);
                        }
                    }
                    ThreadState::Ready => {
                        let next = self.threads[ti].gen.next_op();
                        self.issue(ti, next);
                    }
                    ThreadState::WaitBarrier | ThreadState::RunawayLoop | ThreadState::Halted => {}
                }
            }
        }
        true
    }

    /// Runs accelerated until `target` (processes all events at cycles
    /// ≤ `target`, none once a thread trapped or every thread halted).
    /// The clock reaches `target` on every path, so a system that has
    /// stopped still tells time to whatever it drives.
    pub fn run_until(&mut self, target: u64) {
        while self.trap.is_none() && !self.all_halted() {
            match self.events.next_cycle() {
                Some(c) if c <= target => {
                    self.step_event();
                }
                _ => break,
            }
        }
        self.cycle = self.cycle.max(target);
    }

    /// Runs the application to its end (completion, trap, or hang).
    pub fn run_to_end(&mut self) -> RunResult {
        loop {
            if let Some((thread, cause, cycle)) = self.trap {
                return RunResult::Trapped {
                    thread,
                    cause,
                    cycle,
                };
            }
            if self.all_halted() {
                return RunResult::Completed {
                    digest: self.output_digest(),
                    cycles: self.ended,
                };
            }
            match self.events.next_cycle() {
                Some(c) if c > self.watchdog => {
                    return RunResult::Hang { cycle: c };
                }
                Some(_) => {
                    self.step_event();
                }
                None => {
                    // Deadlock / runaway loops: no more progress.
                    return RunResult::Hang { cycle: self.cycle };
                }
            }
        }
    }

    /// Reads the coherent value of the word at `addr` (L2 if resident,
    /// else DRAM).
    pub fn coherent_word(&self, addr: PAddr) -> u64 {
        let bank = &self.l2[l2_bank_of(addr).index()];
        match bank.slot_of(addr.line()) {
            Some(s) => bank.read_word_at(s, addr),
            None => self.dram.read_word(addr),
        }
    }

    /// Digest of the application's output region (plus per-thread
    /// accumulators), the Output Mismatch observable.
    pub fn output_digest(&self) -> u64 {
        let words = self.cfg.profile.output_words;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for t in 0..self.threads.len() {
            for i in 0..words {
                let v = self.coherent_word(layout::output_word(t, i, words));
                h = (h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(3);
            }
        }
        h
    }

    /// Flips one bit of a core register (core-side soft-error
    /// injection, the Fig. 4 baseline). Unlike uncore injection this
    /// needs no co-simulation: the corrupted state is architectural.
    pub fn flip_core_register_bit(&mut self, thread: usize, reg: CoreReg, bit: u32) {
        let ti = thread % self.threads.len();
        match reg {
            CoreReg::Acc => self.threads[ti].acc ^= 1u64 << (bit % 64),
            CoreReg::Ptr => {
                let p = self.threads[ti].gen.pointer() ^ (1u64 << (bit % 34));
                self.threads[ti].gen.set_pointer(p);
            }
            CoreReg::Pending => self.pending_value[ti] ^= 1u64 << (bit % 64),
            CoreReg::Control => self.threads[ti].gen.perturb_control(1u64 << (bit % 64)),
        }
    }

    /// Serves a request packet against the functional memory system
    /// immediately, returning the reply and whether the line was
    /// resident before (a hit) or was filled from DRAM (a miss). Used by
    /// the CCX co-simulation driver: packets emerging from the RTL
    /// crossbar are served by the functional banks (which remain
    /// high-level during CCX co-simulation) regardless of which bank
    /// port they arrived on — the address, possibly corrupted in flight,
    /// decides what happens.
    pub fn service_request_functionally(&mut self, pkt: &PcxPacket) -> (CpxPacket, bool) {
        let bank = l2_bank_of(pkt.addr).index();
        let line = pkt.addr.line();
        let (slot, resident) = match self.l2[bank].slot_of(line) {
            Some(slot) => (slot, true),
            None => (self.fill_from_dram(bank, line), false),
        };
        let value = match pkt.kind {
            PcxKind::Load | PcxKind::Ifetch => {
                if self.tainted.contains(&line.raw()) && self.first_taint_read.is_none() {
                    self.first_taint_read = Some(self.cycle);
                }
                self.l2[bank].touch_dir_at(slot, pkt.thread.core().index());
                self.l2[bank].read_word_at(slot, pkt.addr)
            }
            PcxKind::Store => {
                self.l2[bank].write_word_at(slot, pkt.addr, pkt.data);
                self.note_store(pkt.addr);
                0
            }
            PcxKind::Atomic => {
                let old = self.l2[bank].read_word_at(slot, pkt.addr);
                self.l2[bank].write_word_at(slot, pkt.addr, old.wrapping_add(pkt.data));
                self.note_store(pkt.addr);
                old
            }
        };
        (CpxPacket::reply_to(pkt, value), resident)
    }

    /// Debug summary of thread states (diagnostics).
    pub fn thread_state_summary(&self) -> Vec<(usize, String, Option<Op>, u64)> {
        self.threads
            .iter()
            .enumerate()
            .map(|(i, t)| (i, format!("{:?}", t.state), t.current, t.ops_issued))
            .collect()
    }

    /// Count of threads currently blocked awaiting an intercepted
    /// uncore response.
    pub fn waiting_on_uncore(&self) -> usize {
        let requests = (self.threads.iter())
            .filter(|th| th.pending_req.is_some())
            .count();
        requests + self.pending_fills.len()
    }
}

/// The address `op` accesses, if it accesses memory.
fn op_addr(op: Op) -> Option<PAddr> {
    match op {
        Op::Load { addr, .. }
        | Op::Ifetch { addr }
        | Op::StoreAcc { addr }
        | Op::Atomic { addr, .. } => Some(addr),
        Op::Barrier | Op::Halt => None,
    }
}

/// Sentinel marking a pending poll retry (never a real loaded value
/// because retries only apply to doorbell polls, which load 0 or 1).
const RETRY_SENTINEL: u64 = 0xfeed_face_0000_0001;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;

    fn smoke(name: &str) -> System {
        System::new(SystemConfig::smoke_test(by_name(name).unwrap()))
    }

    fn drain_outbox(sys: &mut System) -> Vec<OutMsg> {
        std::iter::from_fn(|| sys.pop_outbox()).collect()
    }

    #[test]
    fn systems_of_one_shape_share_one_program_image() {
        let seeded = |name: &str, seed| {
            System::new(SystemConfig {
                seed,
                ..SystemConfig::smoke_test(by_name(name).unwrap())
            })
        };
        // The image does not depend on the seed.
        let (mut a, b) = (seeded("radi", 1), seeded("radi", 2));
        assert!(a.dram() == b.dram());
        assert_eq!((a.dram().private_pages(), b.dram().private_pages()), (0, 0));

        // A write through one system is invisible to the other and to
        // one built afterwards.
        let addr = layout::data_word(0, 0);
        let word = b.dram().read_word(addr);
        let mut line = a.dram().read_line(addr.line());
        line[0] = !word;
        a.dram_mut().write_line(addr.line(), line);
        assert_eq!(a.dram().private_pages(), 1);
        assert_eq!(b.dram().read_word(addr), word);
        assert_eq!(seeded("radi", 3).dram().read_word(addr), word);

        // `fft` has `radi`'s working set and takes the same image;
        // `barn`'s is half that and gets its own.
        let ws = |name: &str| by_name(name).unwrap().working_set_words;
        assert_eq!(ws("fft"), ws("radi"));
        assert_ne!(ws("barn"), ws("radi"));
        assert!(seeded("fft", 1).dram() == b.dram());
        assert!(seeded("barn", 1).dram() != b.dram());
        assert_eq!(layout::tests::images_held(64, ws("radi")), 1);
        assert_eq!(layout::tests::images_held(64, ws("barn")), 1);
    }

    #[test]
    fn whole_runs_on_the_ring_match_the_heap_scheduler() {
        // One barrier-heavy short run, one long run of mostly misses,
        // one with the DMA stream, doorbell polls and their retries.
        for (name, length_scale) in [("radi", 100), ("flui", 20), ("p-lr", 100)] {
            let cfg = SystemConfig {
                length_scale,
                ..SystemConfig::new(by_name(name).unwrap())
            };
            let mut ring = System::new(cfg.clone());
            let mut heap = System::with_queue(cfg, EventQueue::on_heap());
            // Pausing is part of the contract: `run_until` peeks.
            for target in [0, 7, 1_000, 1_001, 4_000] {
                ring.run_until(target);
                heap.run_until(target);
                assert_eq!(ring.cycle(), heap.cycle(), "{name} at {target}");
            }
            let got = ring.run_to_end();
            assert!(got.is_completed(), "{name}: {got:?}");
            assert_eq!(got, heap.run_to_end(), "{name}");
            assert_eq!(ring.cycle(), heap.cycle(), "{name}");
            assert_eq!(ring.snapshot_cost(), heap.snapshot_cost(), "{name}");
            assert!(ring.dram() == heap.dram(), "{name}: memory");
        }
    }

    #[test]
    fn no_input_benchmark_completes() {
        let mut sys = smoke("radi");
        let r = sys.run_to_end();
        assert!(r.is_completed(), "got {r:?}");
    }

    #[test]
    fn input_benchmark_completes_after_dma() {
        let mut sys = smoke("blsc");
        let r = sys.run_to_end();
        assert!(r.is_completed(), "got {r:?}");
        // Doorbell rang.
        assert_eq!(sys.coherent_word(doorbell_addr()), 1);
    }

    #[test]
    fn the_clock_runs_on_after_the_program_ends_or_traps() {
        let mut done = smoke("radi");
        let end = match done.run_to_end() {
            RunResult::Completed { cycles, .. } => cycles,
            other => panic!("radi must complete, got {other:?}"),
        };
        assert!(done.all_halted());
        done.run_until(end + 100);
        assert_eq!(done.cycle(), end + 100);
        done.run_until(end + 50);
        assert_eq!(done.cycle(), end + 100, "the clock never runs back");
        let again = done.run_to_end();
        assert!(
            matches!(again, RunResult::Completed { cycles, .. } if cycles == end),
            "the run still ended where it ended: {again:?}"
        );

        let mut trapped = smoke("radi");
        trapped.deliver_cpx(CpxPacket {
            id: ReqId(u64::MAX),
            thread: ThreadId::new(0),
            kind: CpxKind::Error,
            data: 0,
        });
        assert!(trapped.trap().is_some());
        trapped.run_until(1_000);
        assert_eq!(trapped.cycle(), 1_000);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = smoke("fft").run_to_end();
        let b = smoke("fft").run_to_end();
        assert_eq!(a, b);
    }

    #[test]
    fn different_benchmarks_have_different_digests() {
        let a = smoke("radi").run_to_end().digest().unwrap();
        let b = smoke("lu-c").run_to_end().digest().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn snapshot_clone_resumes_identically() {
        let mut sys = smoke("lu-c");
        sys.run_until(2_000);
        let mut snap = sys.clone();
        let a = sys.run_to_end();
        let b = snap.run_to_end();
        assert_eq!(a, b);
    }

    /// What the refill oracle compares besides memory and bank arrays.
    fn observe(sys: &System) -> impl PartialEq + std::fmt::Debug {
        (
            sys.snapshot_cost(),
            sys.output_digest(),
            sys.first_taint_read(),
            sys.waiting_on_uncore(),
            sys.trap(),
            sys.dma_progress(),
            sys.dram().private_pages(),
        )
    }

    fn assert_same(want: &System, got: &System, what: &str) {
        assert_eq!(observe(want), observe(got), "{what}");
        assert!(want.dram() == got.dram(), "{what}: memory");
        let banks = want.config().topology.l2_banks;
        assert_eq!(banks, got.config().topology.l2_banks, "{what}: topology");
        for b in (0..banks).map(BankId::new) {
            assert!(want.bank_arch(b) == got.bank_arch(b), "{what}: {b:?}");
        }
    }

    /// Ends interception as a driver's detach does — every message still
    /// in the outbox served functionally — and runs to the end.
    fn settle(mut sys: System) -> (RunResult, System) {
        sys.set_intercept(InterceptMode::None);
        while let Some(msg) = sys.pop_outbox() {
            match msg {
                OutMsg::Pcx(p) => {
                    let (reply, _) = sys.service_request_functionally(&p);
                    sys.deliver_cpx(reply);
                }
                OutMsg::DramFill { bank, line } => {
                    let data = sys.dram().read_line(line);
                    sys.deliver_fill(bank, line, data);
                }
                OutMsg::DramWriteback { line, data, .. } => sys.dram_mut().write_line(line, data),
            }
        }
        (sys.run_to_end(), sys)
    }

    /// Every data line of threads `0..threads`.
    fn data_lines(threads: usize) -> Vec<LineAddr> {
        (0..threads)
            .flat_map(|t| (0..512).map(move |i| layout::data_word(t, i).line()))
            .collect()
    }

    #[test]
    fn refilled_spare_matches_a_clone() {
        // The spare comes from another profile on another topology (4
        // threads, `barn`'s page set), has private pages, and has seen
        // a tainted read.
        let mut spare = {
            let mut cfg = SystemConfig::smoke_test(by_name("barn").unwrap());
            cfg.topology = nestsim_proto::Topology::reduced();
            let mut sys = System::new(cfg);
            sys.run_until(200);
            sys.mark_tainted(data_lines(4));
            sys.run_until(2_000);
            let line = layout::data_word(3, 7).line();
            sys.dram_mut().write_line(line, [7; WORDS_PER_LINE]);
            sys
        };
        assert!(spare.dram().private_pages() > 0);
        assert!(spare.first_taint_read().is_some());

        // Sources: fills deferred to an MCU, requests out to an L2 bank,
        // a tainted read; the last two with their private pages, then
        // frozen.
        let mut mcu = smoke("fft");
        mcu.set_intercept(InterceptMode::McuPair(McuId::new(0)));
        mcu.run_until(4_000);
        let mut bank = smoke("radi");
        bank.run_until(1_000);
        bank.set_intercept(InterceptMode::Bank(BankId::new(0)));
        bank.run_until(6_000);
        let mut tainted = smoke("fft");
        tainted.run_until(500);
        tainted.mark_tainted(data_lines(64));
        tainted.run_until(3_000);
        assert!(!mcu.pending_fills.is_empty() && spare.pending_fills.is_empty());
        assert!(bank.waiting_on_uncore() > 0);
        assert!(tainted.first_taint_read().is_some() && !tainted.all_halted());

        // The MCU's writebacks wait in the outbox: it wrote no page.
        assert_eq!(mcu.dram().private_pages(), 0);
        assert!(bank.dram().private_pages() > 0 && tainted.dram().private_pages() > 0);
        let frozen = |sys: &System| {
            let mut sys = sys.clone();
            sys.share_pages();
            sys
        };
        let sources = [
            ("mcu", mcu),
            ("bank", bank.clone()),
            ("bank, frozen", frozen(&bank)),
            ("tainted", tainted.clone()),
            ("tainted, frozen", frozen(&tainted)),
        ];
        for (name, source) in sources {
            let want = source.clone();
            spare.clone_from(&source);
            assert_same(&want, &spare, name);
            let (want_end, want) = settle(want);
            let (got_end, got) = settle(spare);
            assert!(want_end.is_completed(), "{name}: {want_end:?}");
            assert_eq!(got_end, want_end, "{name}: run to end");
            assert_same(&want, &got, &format!("{name}, at the end"));
            // A finished run is the next refill's spare, as in a shard.
            spare = got;
        }
    }

    #[test]
    fn renewed_system_matches_a_new_one() {
        // A parked system renewed for another cell: it ran on another
        // topology and profile, holds private pages, a tainted read and a
        // last-store table, and stopped tracking stores; it must end as a
        // new one, before and after both run to the end.
        let mut used = {
            let mut cfg = SystemConfig::smoke_test(by_name("barn").unwrap());
            cfg.topology = nestsim_proto::Topology::reduced();
            let mut sys = System::new(cfg);
            sys.run_until(200);
            sys.mark_tainted(data_lines(4));
            sys.run_until(2_000);
            sys.untrack_stores();
            sys.run_until(2_500);
            let line = layout::data_word(3, 7).line();
            sys.dram_mut().write_line(line, [7; WORDS_PER_LINE]);
            sys
        };
        assert!(used.dram().private_pages() > 0 && used.first_taint_read().is_some());
        for bench in ["fft", "radi"] {
            let cfg = SystemConfig::smoke_test(by_name(bench).unwrap());
            let want = System::new(cfg.clone());
            used.park();
            used.renew(cfg);
            assert_same(&want, &used, bench);
            let (want_end, want) = settle(want);
            let (got_end, got) = settle(used);
            assert!(want_end.is_completed(), "{bench}: {want_end:?}");
            assert_eq!(got_end, want_end, "{bench}: run to end");
            assert_same(&want, &got, &format!("{bench}, at the end"));
            used = got;
        }
    }

    #[test]
    fn corrupted_memory_produces_output_mismatch() {
        let mut golden = smoke("fft");
        let gr = golden.run_to_end();
        // Corrupt every thread's data array at start: some corrupted
        // word is certain to be read even at smoke scale.
        let mut sys = smoke("fft");
        for t in 0..64 {
            for i in 0..512 {
                let addr = layout::data_word(t, i);
                let mut line = sys.dram().read_line(addr.line());
                line[(addr.line_offset() / 8) as usize] ^= 0x4;
                sys.dram_mut().write_line(addr.line(), line);
            }
        }
        let r = sys.run_to_end();
        assert!(r.is_completed());
        assert_ne!(r.digest(), gr.digest(), "corruption must change output");
    }

    #[test]
    fn corrupted_pointer_traps_or_diverges() {
        let mut sys = smoke("barn");
        // Corrupt a pointer-ring entry to an invalid address.
        let addr = layout::ptr_ring_entry(2, 1);
        let mut line = sys.dram.read_line(addr.line());
        line[(addr.line_offset() / 8) as usize] = 0xdead_0001_0003; // misaligned + invalid
        sys.dram_mut().write_line(addr.line(), line);
        let golden = smoke("barn").run_to_end();
        let r = sys.run_to_end();
        assert_ne!(r, golden);
        assert!(
            matches!(r, RunResult::Trapped { .. }),
            "corrupted pointer should trap, got {r:?}"
        );
    }

    #[test]
    fn corrupted_control_value_diverges() {
        let golden = smoke("flui").run_to_end();
        let mut sys = smoke("flui");
        // Corrupt every control sentinel of every thread.
        for t in 0..64 {
            for j in 0..layout::CTRL_TABLE_LEN {
                let addr = layout::ctrl_entry(t, j);
                let mut line = sys.dram().read_line(addr.line());
                line[(addr.line_offset() / 8) as usize] ^= 0xff00;
                sys.dram_mut().write_line(addr.line(), line);
            }
        }
        let r = sys.run_to_end();
        assert_ne!(r, golden, "control corruption must change the outcome");
    }

    #[test]
    fn dead_doorbell_hangs() {
        let mut sys = smoke("blsc");
        sys.set_watchdog(300_000);
        // Kill the DMA before it completes.
        sys.dma.active = false;
        let r = sys.run_to_end();
        assert!(matches!(r, RunResult::Hang { .. }), "got {r:?}");
    }

    #[test]
    fn intercepted_bank_requests_leave_via_outbox() {
        let mut sys = smoke("radi");
        sys.run_until(1_000);
        sys.set_intercept(InterceptMode::Bank(BankId::new(0)));
        sys.run_until(6_000);
        let msgs = drain_outbox(&mut sys);
        assert!(!msgs.is_empty(), "no traffic reached bank 0");
        for m in &msgs {
            match m {
                OutMsg::Pcx(p) => assert_eq!(p.bank().index(), 0),
                other => panic!("unexpected message {other:?}"),
            }
        }
        assert!(sys.waiting_on_uncore() > 0);
    }

    #[test]
    fn delivered_response_unblocks_thread() {
        let mut sys = smoke("radi");
        sys.run_until(1_000);
        sys.set_intercept(InterceptMode::Bank(BankId::new(0)));
        sys.run_until(6_000);
        let msgs = drain_outbox(&mut sys);
        let OutMsg::Pcx(p) = &msgs[0] else {
            panic!("expected pcx");
        };
        let waiting_before = sys.waiting_on_uncore();
        sys.deliver_cpx(CpxPacket::reply_to(p, 7));
        assert_eq!(sys.waiting_on_uncore(), waiting_before - 1);
    }

    #[test]
    fn ghost_response_traps_receiving_core() {
        // An unexpected return packet is a protocol violation: the
        // receiving core traps (UT), as on real SPARC hardware. The
        // original requester stays blocked.
        let mut sys = smoke("radi");
        sys.run_until(1_000);
        sys.set_intercept(InterceptMode::Bank(BankId::new(0)));
        sys.run_until(6_000);
        let msgs = drain_outbox(&mut sys);
        let OutMsg::Pcx(p) = &msgs[0] else {
            panic!("expected pcx");
        };
        let mut ghost = CpxPacket::reply_to(p, 7);
        ghost.id = ReqId(0xfff_ffff); // unknown id
        let before = sys.waiting_on_uncore();
        sys.deliver_cpx(ghost);
        assert_eq!(sys.waiting_on_uncore(), before, "requester still blocked");
        assert!(
            matches!(sys.trap(), Some((_, TrapCause::UncoreError, _))),
            "ghost packet must trap"
        );
    }

    #[test]
    fn misrouted_response_leaves_the_request_in_flight() {
        // The right id on the wrong strand (a flipped thread field):
        // the receiver traps and the requester keeps waiting.
        let mut sys = smoke("radi");
        sys.run_until(1_000);
        sys.set_intercept(InterceptMode::Bank(BankId::new(0)));
        sys.run_until(6_000);
        let msgs = drain_outbox(&mut sys);
        let OutMsg::Pcx(p) = &msgs[0] else {
            panic!("expected pcx");
        };
        let mut stray = CpxPacket::reply_to(p, 7);
        stray.thread = ThreadId::new((p.thread.index() + 1) % 64);
        let before = sys.waiting_on_uncore();
        sys.deliver_cpx(stray);
        assert_eq!(sys.waiting_on_uncore(), before, "requester still blocked");
        assert!(matches!(sys.trap(), Some((t, TrapCause::UncoreError, _)) if t == stray.thread));
    }

    #[test]
    fn ghost_packet_to_nonexistent_thread_traps_without_panicking() {
        // Reduced topology (4 threads): a corrupted thread field can
        // name strand 8..63; delivery must trap, not panic.
        let mut cfg = SystemConfig::smoke_test(by_name("fft").unwrap());
        cfg.topology = nestsim_proto::Topology::reduced();
        let mut sys = System::new(cfg);
        sys.run_until(1_000);
        sys.set_intercept(InterceptMode::Bank(BankId::new(0)));
        sys.run_until(8_000);
        let ghost = CpxPacket {
            id: ReqId(0xdead),
            thread: ThreadId::new(17), // beyond the 4-thread topology
            kind: nestsim_proto::CpxKind::LoadReturn,
            data: 0,
        };
        sys.deliver_cpx(ghost);
        assert!(matches!(sys.trap(), Some((_, TrapCause::UncoreError, _))));
    }

    #[test]
    fn error_packet_traps_thread() {
        let mut sys = smoke("radi");
        sys.run_until(1_000);
        sys.set_intercept(InterceptMode::Bank(BankId::new(0)));
        sys.run_until(6_000);
        let msgs = drain_outbox(&mut sys);
        let OutMsg::Pcx(p) = &msgs[0] else {
            panic!("expected pcx");
        };
        sys.deliver_cpx(CpxPacket::error_for(p));
        assert!(matches!(sys.trap(), Some((_, TrapCause::UncoreError, _))));
    }

    #[test]
    fn mcu_intercept_defers_fills() {
        let mut sys = smoke("fft");
        sys.set_intercept(InterceptMode::McuPair(McuId::new(0)));
        sys.run_until(4_000);
        let msgs = drain_outbox(&mut sys);
        let fills: Vec<_> = msgs
            .iter()
            .filter_map(|m| match m {
                OutMsg::DramFill { bank, line } => Some((*bank, *line)),
                _ => None,
            })
            .collect();
        assert!(!fills.is_empty(), "no fills were deferred");
        for (bank, _) in &fills {
            assert!(bank.index() < 2, "only banks 0/1 are served by MCU 0");
        }
        // Deliver one fill; its waiters unblock.
        let (bank, line) = fills[0];
        let data = sys.dram().read_line(line);
        let before = sys.waiting_on_uncore();
        sys.deliver_fill(bank, line, data);
        assert!(sys.waiting_on_uncore() < before);
    }

    #[test]
    fn taint_read_is_recorded() {
        let mut sys = smoke("fft");
        sys.run_until(500);
        // Taint every thread's data array; some line will be read.
        let lines: Vec<_> = (0..64)
            .flat_map(|t| (0..512).map(move |i| layout::data_word(t, i).line()))
            .collect();
        sys.mark_tainted(lines);
        assert_eq!(sys.first_taint_read(), None);
        sys.run_to_end();
        assert!(sys.first_taint_read().is_some());
    }

    #[test]
    fn last_store_cycle_tracks_program_stores() {
        let mut sys = smoke("radi");
        sys.run_to_end();
        // Output region was written by every thread.
        let out0 = layout::output_word(0, 0, sys.profile().output_words);
        assert!(sys.last_store_cycle(out0.line()).is_some());
        // The shared read-only table was never stored to.
        assert_eq!(sys.last_store_cycle(layout::shared_word(0).line()), None);
    }

    #[test]
    fn pcie_intercept_suspends_functional_dma() {
        let mut sys = smoke("blsc");
        sys.set_intercept(InterceptMode::PcieDma);
        sys.run_until(50_000);
        let (pos, active) = sys.dma_progress();
        assert_eq!(pos, 0, "functional DMA must not advance");
        assert!(active);
        // Resume as if RTL transferred 128 bytes.
        sys.set_intercept(InterceptMode::None);
        sys.resume_dma(128, true);
        let r = sys.run_to_end();
        assert!(r.is_completed(), "got {r:?}");
    }

    #[test]
    fn wild_store_error_path_traps() {
        // Force every control sentinel to a value whose error path is a
        // wild store to an invalid address: the OS-lite must trap (UT).
        // control_error_path is deterministic in the bad value, so scan
        // for one that picks WildStore with an invalid target.
        use crate::thread::{control_error_path, ControlErrorPath};
        let bad = (0u64..10_000)
            .map(|i| i.wrapping_mul(0x1234_5678_9abc) ^ 0xff00)
            .find(|&v| {
                matches!(
                    control_error_path(v),
                    ControlErrorPath::WildStore { addr }
                        if ThreadCtx::validate(addr).is_err()
                )
            })
            .expect("some value picks an invalid wild store");
        let mut sys = smoke("flui");
        for t in 0..64 {
            for j in 0..layout::CTRL_TABLE_LEN {
                let addr = layout::ctrl_entry(t, j);
                let mut line = sys.dram().read_line(addr.line());
                line[(addr.line_offset() / 8) as usize] = bad;
                sys.dram_mut().write_line(addr.line(), line);
            }
        }
        let r = sys.run_to_end();
        assert!(
            matches!(
                r,
                RunResult::Trapped {
                    cause: TrapCause::WildStore,
                    ..
                }
            ),
            "wild store must trap: {r:?}"
        );
    }

    #[test]
    fn runaway_loop_error_path_hangs() {
        use crate::thread::{control_error_path, ControlErrorPath};
        let bad = (0u64..10_000)
            .map(|i| i.wrapping_mul(0x9e37_79b9) | 1)
            .find(|&v| matches!(control_error_path(v), ControlErrorPath::RunawayLoop))
            .expect("some value picks a runaway loop");
        let mut sys = smoke("flui");
        sys.set_watchdog(400_000);
        for t in 0..64 {
            for j in 0..layout::CTRL_TABLE_LEN {
                let addr = layout::ctrl_entry(t, j);
                let mut line = sys.dram().read_line(addr.line());
                line[(addr.line_offset() / 8) as usize] = bad;
                sys.dram_mut().write_line(addr.line(), line);
            }
        }
        let r = sys.run_to_end();
        assert!(
            matches!(r, RunResult::Hang { .. }),
            "runaway must hang: {r:?}"
        );
    }

    #[test]
    fn core_register_flip_api_reaches_each_register_class() {
        let mut sys = smoke("radi");
        sys.run_until(1_000);
        let before = sys.clone();
        for (i, (reg, width)) in CoreReg::ALL.iter().enumerate() {
            sys.flip_core_register_bit(i, *reg, width - 1);
        }
        // Flips landed: the runs now diverge.
        let a = sys.run_to_end();
        let b = before.clone().run_to_end();
        assert_ne!(a, b, "core flips must perturb the run");
    }

    #[test]
    fn error_free_length_scales_with_profile() {
        let mk = |name: &str| {
            let mut cfg = SystemConfig::new(by_name(name).unwrap());
            cfg.length_scale = 50;
            System::new(cfg)
        };
        let short = mk("radi").run_to_end();
        let long = mk("fft").run_to_end();
        match (short, long) {
            (RunResult::Completed { cycles: cs, .. }, RunResult::Completed { cycles: cl, .. }) => {
                assert!(cl > cs, "fft ({cl}) should outlast radix ({cs})");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
