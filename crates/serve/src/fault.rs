//! Planted fault for oracle-sensitivity testing of the incremental
//! partition cache.
//!
//! When armed, [`crate::incremental::partition_keys`] drops the
//! cone-hash component from every partition key, leaving only the member
//! ids and the budget-share basis — so an edit that changes a function's
//! body (but not its size) produces the *same* partition key, and the
//! daemon splices a stale cached body into the response. This is the
//! "stale cone key deliberately reused" bug class the incremental fuzz
//! oracle must be able to catch; `cargo fuzzgate` arms it and fails if
//! no divergence is found.
//!
//! Unlike `hlo::fault` (thread-local, armed and observed on the same
//! thread), this flag is **process-global**: the daemon's connection
//! threads compute partition keys, while the test arms the fault from its
//! own thread. Arming takes a process-wide window lock, so two fault-armed
//! tests serialize instead of sharing a window — and tests that must
//! observe the fault *disarmed* (anything asserting clean incremental
//! behaviour while a fault-armed test may run in the same process) hold
//! the same window via [`exclusion`]. A second `arm` on the same thread
//! deadlocks; don't nest guards.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

static STALE_PARTITION_KEYS: AtomicBool = AtomicBool::new(false);
static WINDOW: Mutex<()> = Mutex::new(());

fn window() -> MutexGuard<'static, ()> {
    WINDOW.lock().unwrap_or_else(|e| e.into_inner())
}

/// True while a [`FaultGuard`] is live: partition keys must be computed
/// without their cone-hash component.
pub fn stale_partition_keys_armed() -> bool {
    STALE_PARTITION_KEYS.load(Ordering::SeqCst)
}

/// Blocks until no [`FaultGuard`] is live and keeps the fault disarmed
/// while the returned guard is held. Tests whose assertions depend on
/// clean partition keys take this so a concurrently scheduled
/// fault-armed test cannot corrupt them.
pub fn exclusion() -> MutexGuard<'static, ()> {
    let w = window();
    debug_assert!(!stale_partition_keys_armed());
    w
}

/// RAII guard arming the stale-partition-key fault for its lifetime.
#[derive(Debug)]
pub struct FaultGuard {
    _window: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// Arms the fault, blocking until any live guard or [`exclusion`]
    /// window is released.
    pub fn arm() -> FaultGuard {
        let w = window();
        STALE_PARTITION_KEYS.store(true, Ordering::SeqCst);
        FaultGuard { _window: w }
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        STALE_PARTITION_KEYS.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_arms_and_disarms() {
        {
            let _g = FaultGuard::arm();
            assert!(stale_partition_keys_armed());
        }
        let _w = exclusion();
        assert!(!stale_partition_keys_armed());
    }
}
