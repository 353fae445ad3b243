//! Physical addresses, cache-line addresses, and SoC address carving.
//!
//! The modeled SoC uses 64-byte cache lines. Cache lines are interleaved
//! across the 8 L2 banks using address bits `[8:6]` (the three bits just
//! above the line offset), matching the OpenSPARC T2 bank-hash scheme at
//! our scaled geometry. Each DRAM controller (MCU) serves two adjacent L2
//! banks, as in the T2 (Sec. 6, footnote 12 of the paper).

/// Bytes per cache line.
pub const LINE_BYTES: u64 = 64;
/// log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;
/// Number of L2 cache banks in the modeled SoC.
pub const NUM_L2_BANKS: usize = 8;
/// Number of DRAM controllers in the modeled SoC.
pub const NUM_MCUS: usize = 4;
/// Number of processor cores in the modeled SoC.
pub const NUM_CORES: usize = 8;
/// Hardware threads per core.
pub const THREADS_PER_CORE: usize = 8;
/// Total hardware threads.
pub const NUM_THREADS: usize = NUM_CORES * THREADS_PER_CORE;

/// A physical byte address in the modeled SoC.
///
/// Newtype over `u64` so that byte addresses, line addresses, and plain
/// data values cannot be confused (C-NEWTYPE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PAddr(u64);

impl PAddr {
    /// Creates a physical address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        PAddr(raw)
    }

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache line containing this address.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }

    /// Returns the byte offset within the cache line.
    #[inline]
    pub const fn line_offset(self) -> u64 {
        self.0 & (LINE_BYTES - 1)
    }

    /// Returns this address advanced by `bytes`.
    #[must_use]
    pub const fn offset(self, bytes: u64) -> Self {
        PAddr(self.0.wrapping_add(bytes))
    }

    /// Returns `true` if the address is naturally aligned for an access
    /// of `size` bytes (`size` must be a power of two).
    #[inline]
    pub const fn is_aligned(self, size: u64) -> bool {
        self.0 & (size - 1) == 0
    }
}

impl From<u64> for PAddr {
    fn from(raw: u64) -> Self {
        PAddr(raw)
    }
}

impl From<PAddr> for u64 {
    fn from(a: PAddr) -> Self {
        a.0
    }
}

impl core::fmt::Display for PAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

impl core::fmt::LowerHex for PAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A cache-line address (a physical address shifted right by
/// [`LINE_SHIFT`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the physical byte address of the first byte of the line.
    pub const fn base(self) -> PAddr {
        PAddr(self.0 << LINE_SHIFT)
    }
}

impl core::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Identifier of an L2 cache bank (0..[`NUM_L2_BANKS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BankId(u8);

impl BankId {
    /// Creates a bank id.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_L2_BANKS`.
    #[inline]
    pub fn new(index: usize) -> Self {
        assert!(index < NUM_L2_BANKS, "bank index {index} out of range");
        BankId(index as u8)
    }

    /// Returns the bank index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all bank ids.
    pub fn all() -> impl Iterator<Item = BankId> {
        (0..NUM_L2_BANKS).map(|i| BankId(i as u8))
    }
}

impl core::fmt::Display for BankId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "l2c{}", self.0)
    }
}

/// Identifier of a DRAM controller (0..[`NUM_MCUS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct McuId(u8);

impl McuId {
    /// Creates an MCU id.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_MCUS`.
    #[inline]
    pub fn new(index: usize) -> Self {
        assert!(index < NUM_MCUS, "mcu index {index} out of range");
        McuId(index as u8)
    }

    /// Returns the MCU index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all MCU ids.
    pub fn all() -> impl Iterator<Item = McuId> {
        (0..NUM_MCUS).map(|i| McuId(i as u8))
    }
}

impl core::fmt::Display for McuId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "mcu{}", self.0)
    }
}

/// Identifier of a processor core (0..[`NUM_CORES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(u8);

impl CoreId {
    /// Creates a core id.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_CORES`.
    #[inline]
    pub fn new(index: usize) -> Self {
        assert!(index < NUM_CORES, "core index {index} out of range");
        CoreId(index as u8)
    }

    /// Returns the core index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all core ids.
    pub fn all() -> impl Iterator<Item = CoreId> {
        (0..NUM_CORES).map(|i| CoreId(i as u8))
    }
}

impl core::fmt::Display for CoreId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Global hardware-thread identifier (0..[`NUM_THREADS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(u8);

impl ThreadId {
    /// Creates a thread id.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_THREADS`.
    #[inline]
    pub fn new(index: usize) -> Self {
        assert!(index < NUM_THREADS, "thread index {index} out of range");
        ThreadId(index as u8)
    }

    /// Returns the global thread index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the core this hardware thread belongs to.
    #[inline]
    pub fn core(self) -> CoreId {
        CoreId((self.0 as usize / THREADS_PER_CORE) as u8)
    }

    /// Returns the thread's index within its core.
    pub const fn local_index(self) -> usize {
        self.0 as usize % THREADS_PER_CORE
    }

    /// Iterates over all thread ids.
    pub fn all() -> impl Iterator<Item = ThreadId> {
        (0..NUM_THREADS).map(|i| ThreadId(i as u8))
    }
}

impl core::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Returns the L2 bank serving the cache line containing `addr`.
///
/// Banks are interleaved on address bits `[8:6]`.
#[inline]
pub fn l2_bank_of(addr: PAddr) -> BankId {
    BankId(((addr.raw() >> LINE_SHIFT) & (NUM_L2_BANKS as u64 - 1)) as u8)
}

/// Returns the L2 bank serving a cache line.
#[inline]
pub fn l2_bank_of_line(line: LineAddr) -> BankId {
    BankId((line.raw() & (NUM_L2_BANKS as u64 - 1)) as u8)
}

/// Returns the DRAM controller behind an L2 bank.
///
/// Each MCU serves two adjacent banks (T2 pairing).
#[inline]
pub fn mcu_of_bank(bank: BankId) -> McuId {
    McuId((bank.index() / 2) as u8)
}

/// Well-known regions of the modeled physical address space.
///
/// The OS-lite runtime in `nestsim-hlsim` treats accesses outside these
/// regions as fatal traps (the "Unexpected Termination" outcome).
pub mod region {
    use super::PAddr;

    /// Base of the code/static region.
    pub const TEXT_BASE: PAddr = PAddr::new(0x0001_0000);
    /// Base of the shared heap region.
    pub const HEAP_BASE: PAddr = PAddr::new(0x1000_0000);
    /// Size of the shared heap region in bytes (256 MiB).
    pub const HEAP_SIZE: u64 = 0x1000_0000;
    /// Base of the input-file staging region (PCIe DMA target).
    pub const INPUT_BASE: PAddr = PAddr::new(0x4000_0000);
    /// Size of the input staging region (256 MiB).
    pub const INPUT_SIZE: u64 = 0x1000_0000;
    /// Base of the application output region.
    pub const OUTPUT_BASE: PAddr = PAddr::new(0x6000_0000);
    /// Size of the output region (64 MiB).
    pub const OUTPUT_SIZE: u64 = 0x0400_0000;
    /// Base of the per-thread stack region.
    pub const STACK_BASE: PAddr = PAddr::new(0x7000_0000);
    /// Size of the stack region (64 MiB).
    pub const STACK_SIZE: u64 = 0x0400_0000;

    /// Returns `true` if `addr` lies in any valid application region.
    #[inline]
    pub fn is_valid(addr: PAddr) -> bool {
        let a = addr.raw();
        in_range(a, TEXT_BASE.raw(), 0x0100_0000)
            || in_range(a, HEAP_BASE.raw(), HEAP_SIZE)
            || in_range(a, INPUT_BASE.raw(), INPUT_SIZE)
            || in_range(a, OUTPUT_BASE.raw(), OUTPUT_SIZE)
            || in_range(a, STACK_BASE.raw(), STACK_SIZE)
    }

    fn in_range(a: u64, base: u64, size: u64) -> bool {
        a >= base && a < base + size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_math_round_trips() {
        let a = PAddr::new(0x1234_5678);
        assert_eq!(a.line().base().raw(), 0x1234_5640);
        assert_eq!(a.line_offset(), 0x38);
        assert_eq!(a.line().base().line(), a.line());
    }

    #[test]
    fn bank_interleave_covers_all_banks() {
        let mut seen = [false; NUM_L2_BANKS];
        for i in 0..NUM_L2_BANKS as u64 {
            let a = PAddr::new(region::HEAP_BASE.raw() + i * LINE_BYTES);
            seen[l2_bank_of(a).index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn consecutive_lines_hit_different_banks() {
        let a = PAddr::new(0x1000_0000);
        let b = PAddr::new(0x1000_0040);
        assert_ne!(l2_bank_of(a), l2_bank_of(b));
    }

    #[test]
    fn same_line_same_bank() {
        let a = PAddr::new(0x1000_0000);
        let b = PAddr::new(0x1000_003f);
        assert_eq!(l2_bank_of(a), l2_bank_of(b));
        assert_eq!(a.line(), b.line());
    }

    #[test]
    fn mcu_pairs_banks() {
        assert_eq!(mcu_of_bank(BankId::new(0)), mcu_of_bank(BankId::new(1)));
        assert_ne!(mcu_of_bank(BankId::new(1)), mcu_of_bank(BankId::new(2)));
        assert_eq!(mcu_of_bank(BankId::new(7)).index(), 3);
    }

    #[test]
    fn thread_id_maps_to_core() {
        let t = ThreadId::new(13);
        assert_eq!(t.core().index(), 1);
        assert_eq!(t.local_index(), 5);
    }

    #[test]
    fn regions_disjoint_and_valid() {
        assert!(region::is_valid(region::HEAP_BASE));
        assert!(region::is_valid(region::OUTPUT_BASE));
        assert!(!region::is_valid(PAddr::new(0x0000_0008)));
        assert!(!region::is_valid(PAddr::new(0xffff_ffff_0000)));
    }

    #[test]
    fn alignment_checks() {
        assert!(PAddr::new(0x40).is_aligned(8));
        assert!(!PAddr::new(0x41).is_aligned(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bank_id_bounds_checked() {
        let _ = BankId::new(8);
    }
}
