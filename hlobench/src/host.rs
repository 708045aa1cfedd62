//! Host-speed normalization.
//!
//! The 2-vCPU guest the benchmark was built on runs at a speed that
//! drifts with its neighbours' load, with almost no steal time to show
//! for it: within one set of ten `suite-cp` runs, the raw p50 latency
//! ranged from 19.6 to 33.4 ms (normalized as below, 21.2 to 23.4 ms).
//! No bound can absorb the raw range, so the gated
//! times are not raw wall clock. Every run times a small calibration
//! kernel — this file's own code, not the program's — at most every
//! [`PROBE_GAP`] between operations, and divides each time it reports
//! by the host's slowdown measured next to it: the median kernel time
//! in the same tenth of the measured phase (for set-up, the probes just
//! before and after it) over [`REFERENCE_MS`]. A time is therefore
//! reported in milliseconds of the reference host. The kernel and the
//! operations swing together: in two logs of a few minutes, 10-second
//! medians of `suite-cp` latency spread 6–16% raw and 1–2% normalized
//! (interquartile range over median), and across 30 runs the workloads'
//! raw latencies scaled with the kernel's speed to the power 0.92–1.10.
//!
//! The kernel is a branchy register machine and an allocating ordered
//! map of short strings, the two kinds of work the optimizer and the VM
//! do. It runs on the measuring thread while nothing of the program
//! runs: between two operations of a closed loop, after the operation's
//! threads have joined, or while the daemon is idle between requests.
//! A change that left threads of its own running would slow the kernel
//! and flatter its normalized times; such a change shows in the raw
//! wall-clock p50 and the host speed that every run prints and the
//! traced run reports (`bench.wall_latency_ms_p50`, `bench.host_speed`).

use crate::stats::{pct_or_zero, BLOCKS};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the reference host, ms: about its median on the
/// guest the baselines in `hlobench/baseline/` were measured on.
pub const REFERENCE_MS: f64 = 1.5;

/// Least time between two probes of a measured phase: about 4% of it is
/// spent in the kernel.
pub const PROBE_GAP: Duration = Duration::from_millis(50);

/// Probes taken before and after each set-up.
const SETUP_PROBES: usize = 5;

/// Kernel times of one run, ms.
#[derive(Debug, Default)]
pub struct HostClock {
    last: Option<Instant>,
    /// The block of the measured phase that [`HostClock::tick`] files
    /// its probes under.
    block: usize,
    by_block: Vec<Vec<f64>>,
    all: Vec<f64>,
}

impl HostClock {
    /// Times the kernel once.
    fn probe(&mut self) -> f64 {
        let start = Instant::now();
        kernel();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.all.push(ms);
        self.last = Some(Instant::now());
        ms
    }

    /// Starts filing probes under `block`.
    pub fn enter(&mut self, block: usize) {
        self.block = block;
        if self.by_block.len() <= block {
            self.by_block.resize(block + 1, Vec::new());
        }
    }

    /// Probes the host if [`PROBE_GAP`] has passed since the last probe.
    /// Call it between operations only.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= PROBE_GAP) {
            let ms = self.probe();
            self.enter(self.block);
            self.by_block[self.block].push(ms);
        }
    }

    /// The host's slowdown over each block entered: its median kernel
    /// time over the reference (1 for a block without probes).
    pub fn slowdowns(&self) -> Vec<f64> {
        self.by_block
            .iter()
            .map(|p| {
                if p.is_empty() {
                    1.0
                } else {
                    pct_or_zero(p, 0.5) / REFERENCE_MS
                }
            })
            .collect()
    }

    /// Runs `make`, returning its result and its duration in seconds of
    /// the reference host, normalized by probes just before and after.
    pub fn time_setup<S>(&mut self, make: impl FnOnce() -> S) -> (S, f64) {
        let mut near: Vec<f64> = (0..SETUP_PROBES).map(|_| self.probe()).collect();
        let start = Instant::now();
        let state = make();
        let wall_s = start.elapsed().as_secs_f64();
        near.extend((0..SETUP_PROBES).map(|_| self.probe()));
        (state, wall_s * REFERENCE_MS / pct_or_zero(&near, 0.5))
    }

    /// The host's speed over the whole run relative to the reference
    /// (below 1 on a slower host).
    pub fn speed(&self) -> f64 {
        REFERENCE_MS / pct_or_zero(&self.all, 0.5)
    }

    /// Probes taken.
    pub fn probes(&self) -> u64 {
        self.all.len() as u64
    }
}

/// The measured phase of a closed loop: [`BLOCKS`] equal time slices of
/// `seconds`, each repeating `round(slice, clock)` until its share is
/// spent (once at least), with the clock filing its probes under the
/// slice. `round` calls [`HostClock::tick`] between its operations.
/// Returns the phase's duration.
pub fn sliced(
    seconds: f64,
    clock: &mut HostClock,
    mut round: impl FnMut(usize, &mut HostClock),
) -> Duration {
    let start = Instant::now();
    for slice in 0..BLOCKS {
        clock.enter(slice);
        let end = seconds * (slice + 1) as f64 / BLOCKS as f64;
        loop {
            round(slice, clock);
            if start.elapsed().as_secs_f64() >= end {
                break;
            }
        }
    }
    start.elapsed()
}

fn kernel() {
    black_box(interpret());
    black_box(ordered_map());
}

/// A small register machine: data-dependent branches over integer work.
fn interpret() -> u64 {
    let code: [u8; 8] = [0, 1, 2, 3, 1, 0, 2, 3];
    let mut r = [1u64, 2, 3, 4];
    let mut pc = 0usize;
    for _ in 0..150_000u32 {
        match code[pc & 7] {
            0 => {
                r[0] = r[0]
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(r[1])
            }
            1 => r[1] ^= r[0] >> 7,
            2 => {
                r[2] = if r[2] & 1 == 0 {
                    (r[2] / 2).wrapping_add(r[3])
                } else {
                    r[2].wrapping_mul(3).wrapping_add(1)
                }
            }
            _ => r[3] = r[3].rotate_left(5) ^ r[2],
        }
        pc += 1 + (r[1] as usize & 1);
    }
    r.iter().fold(0, |a, &b| a ^ b)
}

/// An ordered map from short strings to growing lists over a xorshift
/// stream: allocation, pointer chasing and string compares.
fn ordered_map() -> u64 {
    let mut m: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut x = 0x1234_5678_9abc_def1u64;
    for i in 0..3_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        m.entry(format!("k{}", x % 4_000)).or_default().push(i);
    }
    m.values().map(|v| v.len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_filed_by_block_and_normalize_set_up() {
        let mut c = HostClock::default();
        c.enter(0);
        c.tick();
        // Within the gap: no second probe.
        c.tick();
        c.enter(2);
        std::thread::sleep(PROBE_GAP);
        c.tick();
        let s = c.slowdowns();
        assert_eq!(s.len(), 3);
        assert!(s[0] > 0.0 && s[2] > 0.0);
        assert_eq!(s[1], 1.0, "a block without probes is not scaled");
        let (v, setup_s) = c.time_setup(|| 7);
        assert_eq!(v, 7);
        assert!(setup_s > 0.0);
        assert_eq!(c.probes(), 2 + 2 * SETUP_PROBES as u64);
        assert!(c.speed() > 0.0);
    }
}
