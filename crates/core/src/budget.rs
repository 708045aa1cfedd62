//! The compile-time budget and its staging (paper §2.2, Figure 2).

/// Tracks the compile-time cost estimate `C = Σ size(R)²` against the
/// budget `B = C₀ · (1 + β/100)`, apportioned across passes so "not all of
/// the budget is used up in the first pass".
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    limit: u64,
    current: u64,
    stages: Vec<u64>,
}

impl Budget {
    /// Creates a budget from the initial cost, the growth percentage
    /// (the paper's default is 100; Figure 8 sweeps 25–1000) and the
    /// cumulative per-pass fractions (e.g. `[0.25, 0.5, 0.75, 1.0]`).
    ///
    /// # Panics
    /// Panics if `stage_fractions` is empty.
    pub fn new(initial_cost: u64, budget_percent: u64, stage_fractions: &[f64]) -> Self {
        assert!(
            !stage_fractions.is_empty(),
            "at least one budget stage is required"
        );
        let headroom = (initial_cost as f64) * (budget_percent as f64 / 100.0);
        let limit = initial_cost + headroom as u64;
        let stages = stage_fractions
            .iter()
            .map(|f| initial_cost + (headroom * f.clamp(0.0, 1.0)) as u64)
            .collect();
        Budget {
            limit,
            current: initial_cost,
            stages,
        }
    }

    /// The overall ceiling `B`.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// The ceiling for pass `p` (clamped to the last stage).
    pub fn stage_limit(&self, pass: usize) -> u64 {
        self.stages[pass.min(self.stages.len() - 1)]
    }

    /// Current cost estimate `C`.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// True while `C < B` — the driver's loop condition.
    pub fn open(&self) -> bool {
        self.current < self.limit
    }

    /// Whether adding `delta` keeps `C` within the stage ceiling for
    /// `pass`.
    pub fn fits(&self, pass: usize, delta: u64) -> bool {
        self.current.saturating_add(delta) <= self.stage_limit(pass)
    }

    /// Records `delta` of new cost.
    pub fn charge(&mut self, delta: u64) {
        self.current = self.current.saturating_add(delta);
    }

    /// Replaces the running estimate with a freshly measured cost (the
    /// driver recalibrates from real sizes after each pass, as the paper's
    /// "optimize and recalibrate" steps do).
    pub fn recalibrate(&mut self, measured: u64) {
        self.current = measured;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_doubles_cost() {
        let b = Budget::new(1000, 100, &[0.25, 0.5, 0.75, 1.0]);
        assert_eq!(b.limit(), 2000);
        assert_eq!(b.stage_limit(0), 1250);
        assert_eq!(b.stage_limit(3), 2000);
        assert_eq!(b.stage_limit(9), 2000); // clamped
    }

    #[test]
    fn fits_respects_stage_not_total() {
        let mut b = Budget::new(1000, 100, &[0.2, 1.0]);
        assert!(b.fits(0, 200));
        assert!(!b.fits(0, 201));
        assert!(b.fits(1, 1000));
        b.charge(200);
        assert!(!b.fits(0, 1));
        assert!(b.fits(1, 800));
    }

    #[test]
    fn open_tracks_limit() {
        let mut b = Budget::new(100, 50, &[1.0]);
        assert!(b.open());
        b.charge(50);
        assert!(!b.open());
    }

    #[test]
    fn recalibrate_replaces_estimate() {
        let mut b = Budget::new(100, 100, &[1.0]);
        b.charge(75);
        b.recalibrate(120);
        assert_eq!(b.current(), 120);
        assert!(b.open());
    }

    #[test]
    fn zero_percent_budget_blocks_everything() {
        let b = Budget::new(100, 0, &[1.0]);
        assert!(!b.open());
        assert!(!b.fits(0, 1));
        assert!(b.fits(0, 0));
    }

    #[test]
    #[should_panic(expected = "at least one budget stage")]
    fn empty_stages_panic() {
        let _ = Budget::new(1, 1, &[]);
    }
}
