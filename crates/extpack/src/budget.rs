//! The memory-budget accounting hook.
//!
//! Every byte of run buffer, merge head, and emission batch the external
//! packer holds is charged here before use and released after, so tests
//! can assert that peak resident buffer usage never exceeded
//! [`ExtPackConfig::memory_budget_bytes`](crate::ExtPackConfig::memory_budget_bytes).

use std::cell::Cell;

/// Tracks current and peak accounted bytes against a budget.
///
/// The accountant does not *enforce* the budget — the packer sizes its
/// buffers and fan-ins so charges stay within it (above a small floor: a
/// merge needs at least two heads and a run buffer at least one record)
/// — it records what was actually held so the bound is checkable from
/// outside.
#[derive(Debug)]
pub struct BudgetAccountant {
    budget: u64,
    current: Cell<u64>,
    peak: Cell<u64>,
}

impl BudgetAccountant {
    /// A fresh accountant for `budget` bytes.
    pub fn new(budget: u64) -> BudgetAccountant {
        BudgetAccountant {
            budget,
            current: Cell::new(0),
            peak: Cell::new(0),
        }
    }

    /// Charges `bytes` of resident buffer memory.
    pub fn charge(&self, bytes: u64) {
        let now = self.current.get() + bytes;
        self.current.set(now);
        self.peak.set(self.peak.get().max(now));
    }

    /// Releases `bytes` previously charged. Saturating: a release can
    /// never drive the ledger negative.
    pub fn release(&self, bytes: u64) {
        self.current.set(self.current.get().saturating_sub(bytes));
    }

    /// The budget this accountant was created with.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently charged.
    pub fn current(&self) -> u64 {
        self.current.get()
    }

    /// The high-water mark of charged bytes.
    pub fn peak(&self) -> u64 {
        self.peak.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let b = BudgetAccountant::new(100);
        b.charge(30);
        b.charge(50);
        b.release(60);
        b.charge(10);
        assert_eq!(b.current(), 30);
        assert_eq!(b.peak(), 80);
        assert_eq!(b.budget(), 100);
    }

    #[test]
    fn release_saturates() {
        let b = BudgetAccountant::new(10);
        b.charge(5);
        b.release(100);
        assert_eq!(b.current(), 0);
        assert_eq!(b.peak(), 5);
    }
}
