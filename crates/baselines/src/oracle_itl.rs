//! The Oracle on-page locking model (§2.3).
//!
//! Oracle stores locks on the data pages themselves: a lock byte per
//! row plus an Interested Transaction List (ITL) with a finite number
//! of slots per page. There is no lock memory to tune; instead:
//!
//! * disk/page space is permanently consumed for lock bookkeeping (the
//!   ITL grows with concurrency and shrinks only on reorganization);
//! * when a page's ITL is exhausted, any transaction wanting to lock
//!   *any* row of that page must wait — effectively page-level locking;
//! * waiters sleep-wake-poll rather than queue, so lock grants are not
//!   FIFO (a later transaction can "jump the queue").
//!
//! The model here is a page-table simulation plus an analytic Poisson
//! approximation for ITL-exhaustion probability, used by the policy
//! comparison experiment.

/// Per-page ITL configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleItl {
    /// ITL slots initially allocated per page (Oracle's INITRANS,
    /// default 1–2; each slot is 24 bytes).
    pub initrans: u32,
    /// Maximum ITL slots a page can grow to (MAXTRANS / free space
    /// permitting).
    pub maxtrans: u32,
    /// Bytes per ITL slot (24 in Oracle).
    pub itl_slot_bytes: u64,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Rows per page.
    pub rows_per_page: u64,
}

impl Default for OracleItl {
    fn default() -> Self {
        OracleItl {
            initrans: 2,
            maxtrans: 255,
            itl_slot_bytes: 24,
            page_bytes: 8192,
            rows_per_page: 100,
        }
    }
}

impl OracleItl {
    /// Permanent on-page overhead at a given grown ITL size, in bytes
    /// per page. This space is never reclaimed without a reorg — one of
    /// the §2.3 criticisms.
    fn page_overhead_bytes(&self, grown_slots: u32) -> u64 {
        u64::from(grown_slots.clamp(self.initrans, self.maxtrans)) * self.itl_slot_bytes
    }

    /// Overhead across a table of `pages` pages whose ITLs have grown
    /// to `grown_slots`.
    pub fn table_overhead_bytes(&self, pages: u64, grown_slots: u32) -> u64 {
        pages * self.page_overhead_bytes(grown_slots)
    }

    /// Probability that a new transaction finds every usable ITL slot
    /// occupied on a page, given concurrent writers arriving on the
    /// page as Poisson with mean `lambda`, and `slots` usable slots.
    ///
    /// `P(N >= slots)` for `N ~ Poisson(lambda)`.
    fn itl_wait_probability(lambda: f64, slots: u32) -> f64 {
        assert!(lambda >= 0.0 && lambda.is_finite());
        if slots == 0 {
            return 1.0; // P(N >= 0) = 1
        }
        // P(N < slots) = sum_{k<slots} e^-λ λ^k / k!
        let mut term = (-lambda).exp(); // k = 0
        let mut cdf = term;
        for k in 1..slots {
            term *= lambda / k as f64;
            cdf += term;
        }
        (1.0 - cdf).clamp(0.0, 1.0)
    }

    /// Effective usable slots when free page space limits ITL growth:
    /// a page with `free_bytes` of slack can host that many more slots
    /// beyond INITRANS, capped at MAXTRANS.
    fn usable_slots(&self, free_bytes: u64) -> u32 {
        let extra = (free_bytes / self.itl_slot_bytes) as u32;
        (self.initrans + extra).min(self.maxtrans)
    }

    /// Expected fraction of row-lock attempts that stall on ITL
    /// exhaustion for a workload with `concurrent_writers` spread over
    /// `pages` hot pages.
    pub fn expected_itl_wait_fraction(
        &self,
        concurrent_writers: u64,
        pages: u64,
        free_bytes: u64,
    ) -> f64 {
        if pages == 0 {
            return 1.0;
        }
        let lambda = concurrent_writers as f64 / pages as f64;
        Self::itl_wait_probability(lambda, self.usable_slots(free_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_permanent_and_grows() {
        let m = OracleItl::default();
        assert_eq!(m.page_overhead_bytes(2), 48);
        assert_eq!(m.page_overhead_bytes(10), 240);
        // Clamped to maxtrans.
        assert_eq!(m.page_overhead_bytes(10_000), 255 * 24);
        assert_eq!(m.table_overhead_bytes(1000, 10), 240_000);
    }

    #[test]
    fn wait_probability_poisson_tail() {
        // λ=0: never waits.
        assert_eq!(OracleItl::itl_wait_probability(0.0, 2), 0.0);
        // Huge λ with few slots: nearly always waits.
        assert!(OracleItl::itl_wait_probability(50.0, 2) > 0.999);
        // More slots → lower probability.
        let p2 = OracleItl::itl_wait_probability(3.0, 2);
        let p8 = OracleItl::itl_wait_probability(3.0, 8);
        assert!(p2 > p8);
        // Sanity: P(N >= 1) = 1 - e^-λ.
        let p = OracleItl::itl_wait_probability(1.0, 1);
        assert!((p - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn free_space_limits_growth() {
        let m = OracleItl::default();
        assert_eq!(m.usable_slots(0), 2);
        assert_eq!(m.usable_slots(240), 12);
        assert_eq!(m.usable_slots(1 << 20), 255);
    }

    #[test]
    fn hot_page_contention_shows_the_weakness() {
        let m = OracleItl::default();
        // 130 writers hammering 10 hot pages with a full page (no room
        // for ITL growth): page-level blocking is near certain.
        let f = m.expected_itl_wait_fraction(130, 10, 0);
        assert!(f > 0.99, "got {f}");
        // The same writers over a million pages: negligible.
        let f = m.expected_itl_wait_fraction(130, 1_000_000, 0);
        assert!(f < 1e-6, "got {f}");
    }

    #[test]
    fn degenerate_inputs() {
        let m = OracleItl::default();
        assert_eq!(m.expected_itl_wait_fraction(10, 0, 0), 1.0);
        assert_eq!(OracleItl::itl_wait_probability(2.5, 0), 1.0);
    }
}
