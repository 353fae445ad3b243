//! PCIe transfer buffers: the I/O controller's high-level uncore state.
//!
//! Table 1 lists the PCIe controller's high-level state as its RX (8 KB)
//! and TX (4 KB) transfer buffers. The modeled DMA engine stages inbound
//! frames in the RX buffer before writing them to memory; the TX buffer
//! holds outbound frames (unused by the input-file workloads but still
//! part of the architectural state and the Fig. 5 warm-up comparison).

/// RX buffer size in 64-bit words (8 KB).
pub const RX_WORDS: usize = 8 * 1024 / 8;
/// TX buffer size in 64-bit words (4 KB).
pub const TX_WORDS: usize = 4 * 1024 / 8;

/// The PCIe controller's architectural transfer buffers.
#[derive(Debug, PartialEq, Eq)]
pub struct PcieBuffers {
    rx: Vec<u64>,
    tx: Vec<u64>,
}

// Hand-written so that `clone_from` copies into the buffers it holds.
impl Clone for PcieBuffers {
    fn clone(&self) -> Self {
        PcieBuffers {
            rx: self.rx.clone(),
            tx: self.tx.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.rx.clone_from(&source.rx);
        self.tx.clone_from(&source.tx);
    }
}

impl PcieBuffers {
    /// Creates zeroed buffers of the Table 1 sizes.
    pub fn new() -> Self {
        PcieBuffers {
            rx: vec![0; RX_WORDS],
            tx: vec![0; TX_WORDS],
        }
    }

    /// Reads RX word `i` (wrapping at the buffer size).
    pub fn rx_read(&self, i: usize) -> u64 {
        self.rx[i % RX_WORDS]
    }

    /// Writes RX word `i` (wrapping at the buffer size).
    pub fn rx_write(&mut self, i: usize, v: u64) {
        self.rx[i % RX_WORDS] = v;
    }

    /// Number of words differing from `other` across both buffers.
    pub fn diff_count(&self, other: &PcieBuffers) -> usize {
        self.rx
            .iter()
            .zip(&other.rx)
            .chain(self.tx.iter().zip(&other.tx))
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl Default for PcieBuffers {
    fn default() -> Self {
        PcieBuffers::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_table1() {
        let b = PcieBuffers::new();
        assert_eq!(b.rx.len() * 8, 8 * 1024);
        assert_eq!(b.tx.len() * 8, 4 * 1024);
    }

    #[test]
    fn rw_wraps() {
        let mut b = PcieBuffers::new();
        b.rx_write(RX_WORDS + 3, 9);
        assert_eq!(b.rx_read(3), 9);
    }

    #[test]
    fn diff_counts_words() {
        let mut a = PcieBuffers::new();
        let b = PcieBuffers::new();
        a.rx_write(0, 1);
        a.rx_write(5, 2);
        assert_eq!(a.diff_count(&b), 2);
    }
}
