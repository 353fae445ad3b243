//! Fixture for R9 `determinism-taint` rooted by the policy table: this
//! file is lint input, not compiled code. The self-test analyzes it as
//! a file under `crates/arch/src/`, a crate the table pins to
//! `determinism-taint`, so every fn here is a root — although none of
//! them builds a `CampaignResult` or is reached from one.

use std::collections::HashMap;

pub struct LineTable {
    lines: HashMap<u64, u64>,
}

impl LineTable {
    // Declaring a hash-typed field and probing it are order-free.
    pub fn get(&self, addr: u64) -> Option<u64> {
        self.lines.get(&addr).copied()
    }

    pub fn first_dirty(&self) -> Option<u64> {
        for (addr, v) in self.lines.iter() { //~ determinism-taint
            if *v != 0 {
                return Some(*addr);
            }
        }
        None
    }
}

pub fn stamp() -> u64 {
    let t = std::time::Instant::now(); //~ determinism-taint
    t.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let _t = std::time::Instant::now();
    }
}
