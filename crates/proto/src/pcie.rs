//! PCI Express DMA traffic.
//!
//! In the paper's setup, "PCIe I/O is used to transfer the application's
//! input data files" (Sec. 3.2). We model the I/O controller as a DMA
//! engine that streams file payload frames from a (simulated) host into
//! the input-staging region of physical memory.

use crate::addr::PAddr;

/// A DMA transfer descriptor programmed into the PCIe controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DmaDescriptor {
    /// Destination physical address of the first byte.
    pub dst: PAddr,
    /// Total transfer length in bytes.
    pub len: u64,
    /// Seed identifying the source file contents (the synthetic "file"
    /// is a deterministic byte stream derived from this seed).
    pub stream_seed: u64,
}

/// Physical address of the DMA completion doorbell word.
///
/// The DMA engine writes `[1, transfer_len]` to this line when an input
/// transfer completes; applications poll word 0 and validate word 1.
pub fn doorbell_addr() -> PAddr {
    use crate::addr::{region, LINE_BYTES};
    PAddr::new(region::INPUT_BASE.raw() + region::INPUT_SIZE - LINE_BYTES)
}

/// Deterministic synthetic file contents: returns the 8-byte word at
/// word-offset `w` of the stream identified by `seed`.
///
/// Benchmarks derive both the DMA payload and their expected input
/// checksums from this function, so a corrupted DMA write is detectable
/// as an application output mismatch.
pub fn stream_word(seed: u64, w: u64) -> u64 {
    // SplitMix64 over (seed, w); cheap, deterministic, well mixed.
    let mut z = seed ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_seed_sensitive() {
        assert_eq!(stream_word(5, 9), stream_word(5, 9));
        assert_ne!(stream_word(5, 9), stream_word(6, 9));
        assert_ne!(stream_word(5, 9), stream_word(5, 10));
    }
}
