//! Logic-parity error-detection model.
//!
//! QRR (Sec. 6 of the paper) pairs replay recovery with logic parity
//! [Mitra 00]: flip-flops are grouped, each group's parity is predicted by
//! an XOR tree, and a mismatch raises an error signal. Signals from many
//! detectors are *aggregated*, so the QRR controller observes a detection
//! a few cycles after the flip (Sec. 6.2 discusses this latency and the
//! associated write-disable race).
//!
//! We model parity behaviourally *per group*: the detector tracks the
//! parity of each XOR-tree group, so a single flip (odd parity in its
//! group) is detected [`ParityDetector::aggregation_latency`] cycles
//! after injection, while an **even number of flips landing in the same
//! group cancels out and escapes detection** — the classic multi-bit
//! blind spot of logic parity, exercised by the burst-injection
//! extension experiments. The structural information ([`ParityPlan`]:
//! group count and sizes) also feeds the XOR-tree area/power cost model
//! of Table 6.

use crate::field::{FlopClass, FlopSpace};

/// Default number of flops sharing one parity bit/XOR tree.
pub const DEFAULT_GROUP_BITS: usize = 16;

/// Default error-signal aggregation latency in cycles (Sec. 6.2: routing
/// and OR-ing many detector outputs takes "multiple cycles").
pub const DEFAULT_AGGREGATION_LATENCY: u64 = 3;

/// How covered flops are assigned to XOR-tree groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupLayout {
    /// Consecutive flops share a tree (cheap routing; adjacent-bit
    /// bursts can cancel under one tree).
    Blocked,
    /// Adjacent flops go to *different* trees (parity interleaving —
    /// the standard mitigation for multi-bit upsets, at some routing
    /// cost).
    Interleaved,
}

/// Structural parity plan for a component: which flops are covered and
/// how they are grouped into XOR trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityPlan {
    component: String,
    /// Sorted global bit indices covered by parity.
    covered: Vec<usize>,
    group_bits: usize,
    layout: GroupLayout,
}

impl ParityPlan {
    /// Builds the plan used by QRR for `space`: parity covers all
    /// [`FlopClass::Target`] flops. Timing-critical, configuration and
    /// protected flops are excluded (they are hardened or already
    /// protected; Sec. 6.4).
    pub fn for_qrr(space: &FlopSpace) -> Self {
        Self::with_group_bits(space, DEFAULT_GROUP_BITS)
    }

    /// Builds a QRR plan with an explicit XOR-tree group size.
    pub fn with_group_bits(space: &FlopSpace, group_bits: usize) -> Self {
        Self::with_layout(space, group_bits, GroupLayout::Blocked)
    }

    /// Builds a QRR plan with interleaved group assignment (adjacent
    /// covered flops under different XOR trees).
    pub fn for_qrr_interleaved(space: &FlopSpace) -> Self {
        Self::with_layout(space, DEFAULT_GROUP_BITS, GroupLayout::Interleaved)
    }

    /// Builds a QRR plan with explicit group size and layout.
    pub fn with_layout(space: &FlopSpace, group_bits: usize, layout: GroupLayout) -> Self {
        assert!(group_bits > 0, "group size must be positive");
        let covered = space.bits_where(|c| c == FlopClass::Target);
        ParityPlan {
            component: space.component().to_string(),
            covered,
            group_bits,
            layout,
        }
    }

    /// The group-assignment layout.
    pub fn layout(&self) -> GroupLayout {
        self.layout
    }

    /// Component name.
    pub fn component(&self) -> &str {
        &self.component
    }

    /// Number of parity-covered flops.
    pub fn covered_flops(&self) -> usize {
        self.covered.len()
    }

    /// Returns `true` if the flop at `bit` is parity-covered.
    pub fn covers(&self, bit: usize) -> bool {
        self.covered.binary_search(&bit).is_ok()
    }

    /// Number of parity groups (XOR trees + parity flops).
    pub fn group_count(&self) -> usize {
        self.covered.len().div_ceil(self.group_bits)
    }

    /// Flops per group (tree fan-in).
    pub fn group_bits(&self) -> usize {
        self.group_bits
    }

    /// The parity group (XOR tree) index covering `bit`, if covered.
    ///
    /// Under [`GroupLayout::Blocked`], consecutive covered flops share
    /// a group — the physical-layout assumption behind the multi-bit
    /// blind spot: an upset striking adjacent flops can flip two bits
    /// under the same tree. Under [`GroupLayout::Interleaved`],
    /// adjacent flops land under different trees.
    pub fn group_of(&self, bit: usize) -> Option<usize> {
        let idx = self.covered.binary_search(&bit).ok()?;
        Some(match self.layout {
            GroupLayout::Blocked => idx / self.group_bits,
            GroupLayout::Interleaved => idx % self.group_count().max(1),
        })
    }
}

/// Behavioural parity detector with aggregation latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityDetector {
    plan: ParityPlan,
    aggregation_latency: u64,
    /// Groups whose tracked parity is currently odd (erroneous).
    odd_groups: Vec<usize>,
    /// Pending detection (cycle at which the aggregated signal reaches
    /// the QRR controller), if an error has been sensed.
    pending: Option<u64>,
}

impl ParityDetector {
    /// Creates a detector over `plan` with the default aggregation latency.
    pub fn new(plan: ParityPlan) -> Self {
        Self::with_latency(plan, DEFAULT_AGGREGATION_LATENCY)
    }

    /// Creates a detector with an explicit aggregation latency.
    pub fn with_latency(plan: ParityPlan, aggregation_latency: u64) -> Self {
        ParityDetector {
            plan,
            aggregation_latency,
            odd_groups: Vec::new(),
            pending: None,
        }
    }

    /// The structural plan behind this detector.
    pub fn plan(&self) -> &ParityPlan {
        &self.plan
    }

    /// Aggregation latency in cycles.
    pub fn aggregation_latency(&self) -> u64 {
        self.aggregation_latency
    }

    /// Notifies the detector that the flop at `bit` was flipped at
    /// `cycle`: the bit's group parity toggles. Returns the cycle at
    /// which the aggregated error signal will reach the QRR controller,
    /// or `None` if the flop is uncovered **or the flip cancelled a
    /// previous flip in the same XOR-tree group** (the multi-bit blind
    /// spot: even parity looks clean).
    pub fn observe_flip(&mut self, bit: usize, cycle: u64) -> Option<u64> {
        let group = self.plan.group_of(bit)?;
        if let Some(i) = self.odd_groups.iter().position(|&g| g == group) {
            // Second flip under the same tree: parity back to even.
            self.odd_groups.swap_remove(i);
            if self.odd_groups.is_empty() {
                self.pending = None;
            }
            return None;
        }
        self.odd_groups.push(group);
        let at = cycle + self.aggregation_latency;
        self.pending = Some(self.pending.map_or(at, |p| p.min(at)));
        self.pending
    }

    /// Polls the detector: returns `true` exactly once, at the first
    /// cycle ≥ the scheduled detection cycle.
    pub fn fired(&mut self, cycle: u64) -> bool {
        match self.pending {
            Some(at) if cycle >= at => {
                self.pending = None;
                true
            }
            _ => false,
        }
    }

    /// Returns `true` if a detection is scheduled but not yet delivered.
    pub fn is_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Clears any pending detection and tracked group parities (used
    /// when recovery resets state).
    pub fn clear(&mut self) {
        self.pending = None;
        self.odd_groups.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{FlopClass, FlopSpaceBuilder};

    fn space() -> FlopSpace {
        let mut b = FlopSpaceBuilder::new("c");
        b.field("a", 40, FlopClass::Target);
        b.field("cfg", 4, FlopClass::Config);
        b.field("tc", 8, FlopClass::TimingCritical);
        b.field("ecc", 16, FlopClass::EccProtected);
        b.build()
    }

    #[test]
    fn plan_covers_only_target_class() {
        let s = space();
        let p = ParityPlan::for_qrr(&s);
        assert_eq!(p.covered_flops(), 40);
        assert!(p.covers(0));
        assert!(!p.covers(41)); // config
        assert!(!p.covers(45)); // timing-critical
        assert!(!p.covers(50)); // ecc
    }

    #[test]
    fn group_count_rounds_up() {
        let s = space();
        let p = ParityPlan::with_group_bits(&s, 16);
        assert_eq!(p.group_count(), 3); // ceil(40/16)
    }

    #[test]
    fn detection_fires_after_latency() {
        let s = space();
        let mut d = ParityDetector::with_latency(ParityPlan::for_qrr(&s), 3);
        assert_eq!(d.observe_flip(5, 100), Some(103));
        assert!(!d.fired(101));
        assert!(!d.fired(102));
        assert!(d.fired(103));
        assert!(!d.fired(104)); // delivered once
    }

    #[test]
    fn uncovered_flip_never_detected() {
        let s = space();
        let mut d = ParityDetector::new(ParityPlan::for_qrr(&s));
        assert_eq!(d.observe_flip(41, 0), None); // config flop
        assert!(!d.is_pending());
        assert!(!d.fired(1_000_000));
    }

    #[test]
    fn clear_cancels_pending() {
        let s = space();
        let mut d = ParityDetector::new(ParityPlan::for_qrr(&s));
        d.observe_flip(0, 10);
        d.clear();
        assert!(!d.fired(1_000));
    }

    #[test]
    fn double_flip_in_same_group_escapes_detection() {
        let s = space();
        let plan = ParityPlan::with_group_bits(&s, 16);
        let mut d = ParityDetector::with_latency(plan, 3);
        // Bits 0 and 1 share XOR tree 0.
        assert!(d.observe_flip(0, 10).is_some());
        assert_eq!(d.observe_flip(1, 10), None, "even parity looks clean");
        assert!(!d.is_pending());
        assert!(!d.fired(1_000));
    }

    #[test]
    fn double_flip_across_groups_is_detected() {
        let s = space();
        let plan = ParityPlan::with_group_bits(&s, 16);
        let mut d = ParityDetector::with_latency(plan, 3);
        assert!(d.observe_flip(0, 10).is_some()); // group 0
        assert!(d.observe_flip(17, 10).is_some()); // group 1
        assert!(d.fired(13));
    }

    #[test]
    fn interleaved_layout_splits_adjacent_bits() {
        let s = space();
        let plan = ParityPlan::for_qrr_interleaved(&s);
        assert_ne!(plan.group_of(0), plan.group_of(1));
        let mut d = ParityDetector::with_latency(plan, 3);
        // The adjacent-bit burst that blocked layout misses is caught.
        assert!(d.observe_flip(0, 10).is_some());
        assert!(d.observe_flip(1, 10).is_some());
        assert!(d.fired(13));
    }

    #[test]
    fn group_of_maps_consecutive_covered_bits() {
        let s = space();
        let plan = ParityPlan::with_group_bits(&s, 16);
        assert_eq!(plan.group_of(0), Some(0));
        assert_eq!(plan.group_of(15), Some(0));
        assert_eq!(plan.group_of(16), Some(1));
        assert_eq!(plan.group_of(41), None); // config flop, uncovered
    }
}
