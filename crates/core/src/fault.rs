//! Deliberate fault injection for exercising the verification stack.
//!
//! The differential fuzzer (`hlo-fuzz`) and the shrinker-soundness tests
//! need a *known-bad* optimizer to prove the oracle actually catches
//! miscompiles and that the shrinker preserves them while minimizing.
//! This module provides that: when armed, [`inline_call`] corrupts the
//! first integer `Add` it splices into a caller (it becomes a `Sub`) — a
//! realistic single-operator transcription bug.
//!
//! The switch is thread-local and **off by default**, so production code
//! paths are unaffected; arming it only perturbs optimizations performed
//! on the arming thread (the optimizer runs entirely on its calling
//! thread, so a fault armed in one test never leaks into another).
//!
//! [`inline_call`]: crate::inline_call

use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Arms or disarms fault injection on the current thread.
pub fn arm(on: bool) {
    ARMED.with(|a| a.set(on));
}

/// Whether fault injection is currently armed on this thread.
pub fn armed() -> bool {
    ARMED.with(|a| a.get())
}

/// RAII guard: arms fault injection for its lifetime, disarming on drop
/// (including on panic, so a failing test cannot poison its thread).
#[derive(Debug)]
pub struct FaultGuard(());

impl FaultGuard {
    /// Arms fault injection until the guard is dropped.
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
