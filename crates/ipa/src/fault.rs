//! Deliberate fault injection for the summary analysis.
//!
//! Mirrors `hlo::fault`: the differential fuzz gate (`cargo fuzzgate`)
//! needs proof that the oracle can *see* a wrong purity summary, not just
//! that none was produced. When armed, [`crate::Summaries::compute`] and
//! every [`crate::SummaryCache`] read deliberately erase every effect
//! fact (MOD sets, extern/indirect call bits, trap, termination and
//! syntactic-effect bits), claiming every function is pure — which makes
//! pure-call deletion and cross-call store forwarding misfire observably
//! on any program whose calls have effects.
//! The paper's syntactic test is a projection of the summaries
//! ([`crate::FuncSummary::syntactic_removable`]), so the fault reaches
//! `--no-ipa` builds too: their `pure_calls` stage deletes by it.
//!
//! The flag is thread-local so a fuzz campaign arming it cannot perturb
//! concurrent tests in the same process.

use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Arms or disarms the planted summary fault on this thread.
pub fn arm(on: bool) {
    ARMED.with(|a| a.set(on));
}

/// True when the fault is armed on this thread.
pub fn armed() -> bool {
    ARMED.with(Cell::get)
}

/// RAII guard that arms the fault and disarms it on drop.
#[derive(Debug)]
pub struct FaultGuard(());

impl FaultGuard {
    /// Arms the fault until the guard is dropped.
    pub fn arm() -> Self {
        arm(true);
        FaultGuard(())
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        arm(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_arms_and_disarms() {
        assert!(!armed());
        {
            let _g = FaultGuard::arm();
            assert!(armed());
        }
        assert!(!armed());
    }
}
