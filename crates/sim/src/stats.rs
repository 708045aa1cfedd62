//! Simulation statistics — Figure 7's quantities.

/// Counters and derived metrics from one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimStats {
    /// Modeled cycles.
    pub cycles: f64,
    /// Instructions retired, including modeled call overhead.
    pub retired: u64,
    /// I-cache accesses (instruction fetches).
    pub icache_accesses: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache accesses (program data + save/restore + stack args +
    /// library traffic).
    pub dcache_accesses: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
    /// Branches executed (conditional + calls + returns).
    pub branches: u64,
    /// Branches mispredicted.
    pub mispredicts: u64,
}

impl SimStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.cycles / self.retired as f64
        }
    }

    /// I-cache miss fraction in `[0, 1]`.
    pub fn icache_miss_rate(&self) -> f64 {
        rate(self.icache_misses, self.icache_accesses)
    }

    /// D-cache miss fraction in `[0, 1]`.
    pub fn dcache_miss_rate(&self) -> f64 {
        rate(self.dcache_misses, self.dcache_accesses)
    }

    /// Branch misprediction fraction in `[0, 1]`.
    pub fn branch_miss_rate(&self) -> f64 {
        rate(self.mispredicts, self.branches)
    }
}

fn rate(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl std::fmt::Display for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycles {:.0} (CPI {:.3}), I$ {}/{} ({:.2}%), D$ {}/{} ({:.2}%), br {}/{} ({:.2}%)",
            self.cycles,
            self.cpi(),
            self.icache_misses,
            self.icache_accesses,
            self.icache_miss_rate() * 100.0,
            self.dcache_misses,
            self.dcache_accesses,
            self.dcache_miss_rate() * 100.0,
            self.mispredicts,
            self.branches,
            self.branch_miss_rate() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = SimStats {
            cycles: 100.0,
            retired: 50,
            icache_accesses: 50,
            icache_misses: 5,
            dcache_accesses: 20,
            dcache_misses: 2,
            branches: 10,
            mispredicts: 1,
        };
        assert_eq!(s.cpi(), 2.0);
        assert_eq!(s.icache_miss_rate(), 0.1);
        assert_eq!(s.dcache_miss_rate(), 0.1);
        assert_eq!(s.branch_miss_rate(), 0.1);
    }

    #[test]
    fn empty_stats_are_zero_not_nan() {
        let s = SimStats::default();
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.icache_miss_rate(), 0.0);
        assert_eq!(s.branch_miss_rate(), 0.0);
    }
}
