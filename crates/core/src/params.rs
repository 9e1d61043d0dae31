//! The modelling parameters of Table 1, with the paper's values as
//! defaults.

/// One mebibyte.
pub const MIB: u64 = 1024 * 1024;

/// All tunable constants of the algorithm (paper Table 1 plus the block
/// geometry of §2.2). Constructing via [`TunerParams::default`] yields
/// exactly the shipped DB2 9 values; the ablation benches override
/// individual fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerParams {
    /// Floor component: lock memory never drops below this many bytes
    /// (`minLockMemory = MAX(2 MB, 500 × locksize × num_applications)`).
    pub min_lock_memory_floor_bytes: u64,
    /// Floor component: lock structures guaranteed per connected
    /// application.
    pub min_locks_per_application: u64,
    /// `maxLockMemory` as a fraction of `databaseMemory` (0.20).
    pub max_lock_memory_fraction: f64,
    /// The SQL compiler's stable view of lock memory as a fraction of
    /// `databaseMemory` (0.10).
    pub sql_compiler_fraction: f64,
    /// `C1`: fraction of database overflow memory lock memory may
    /// consume (`LMOmax = C1 × overflow`), 0.65.
    pub overflow_consumption_fraction: f64,
    /// `minFreeLockMemory`: grow when less than this fraction of the
    /// lock structures is free (0.50).
    pub min_free_fraction: f64,
    /// `maxFreeLockMemory`: shrink when more than this fraction is free
    /// (0.60).
    pub max_free_fraction: f64,
    /// `δ_reduce`: fraction of current size released per interval while
    /// shrinking (0.05).
    pub delta_reduce: f64,
    /// `P`: per-application cap while memory is ample (98).
    pub app_percent_max: f64,
    /// Exponent of the attenuation curve (3).
    pub app_percent_exponent: f64,
    /// Absolute floor of `lockPercentPerApplication` (1).
    pub app_percent_min: f64,
    /// `refreshPeriodForAppPercent`: recompute the cap after this many
    /// lock-structure requests (0x80 = 128).
    pub app_percent_refresh_period: u64,
    /// Bytes per lock structure (`locksize`).
    pub lock_struct_bytes: u64,
    /// Bytes per allocation block (128 KiB).
    pub block_bytes: u64,
    /// Multiplier applied while escalations persist under constrained
    /// overflow ("lock memory will double each tuning interval").
    pub escalation_growth_factor: f64,
}

impl Default for TunerParams {
    fn default() -> Self {
        TunerParams {
            min_lock_memory_floor_bytes: 2 * MIB,
            min_locks_per_application: 500,
            max_lock_memory_fraction: 0.20,
            sql_compiler_fraction: 0.10,
            overflow_consumption_fraction: 0.65,
            min_free_fraction: 0.50,
            max_free_fraction: 0.60,
            delta_reduce: 0.05,
            app_percent_max: 98.0,
            app_percent_exponent: 3.0,
            app_percent_min: 1.0,
            app_percent_refresh_period: 0x80,
            lock_struct_bytes: 64,
            block_bytes: 128 * 1024,
            escalation_growth_factor: 2.0,
        }
    }
}

impl TunerParams {
    /// Check internal consistency; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let in_unit = |v: f64| (0.0..=1.0).contains(&v) && v.is_finite();
        if !in_unit(self.max_lock_memory_fraction) || self.max_lock_memory_fraction == 0.0 {
            return Err("max_lock_memory_fraction must be in (0, 1]".into());
        }
        if !in_unit(self.sql_compiler_fraction) {
            return Err("sql_compiler_fraction must be in [0, 1]".into());
        }
        if !in_unit(self.overflow_consumption_fraction) {
            return Err("overflow_consumption_fraction must be in [0, 1]".into());
        }
        if !in_unit(self.min_free_fraction) || !in_unit(self.max_free_fraction) {
            return Err("free fractions must be in [0, 1]".into());
        }
        if self.min_free_fraction > self.max_free_fraction {
            return Err("min_free_fraction must not exceed max_free_fraction".into());
        }
        if self.min_free_fraction >= 1.0 {
            return Err("min_free_fraction must be < 1 (target size would be infinite)".into());
        }
        if !in_unit(self.delta_reduce) {
            return Err("delta_reduce must be in [0, 1]".into());
        }
        if !(self.app_percent_max.is_finite() && self.app_percent_max > 0.0) {
            return Err("app_percent_max must be positive".into());
        }
        if self.app_percent_min > self.app_percent_max {
            return Err("app_percent_min must not exceed app_percent_max".into());
        }
        if !(self.app_percent_exponent.is_finite() && self.app_percent_exponent > 0.0) {
            return Err("app_percent_exponent must be positive".into());
        }
        if self.lock_struct_bytes == 0 || self.block_bytes == 0 {
            return Err("lock_struct_bytes and block_bytes must be non-zero".into());
        }
        if self.block_bytes < self.lock_struct_bytes {
            return Err("a block must hold at least one lock structure".into());
        }
        if !(self.escalation_growth_factor.is_finite() && self.escalation_growth_factor >= 1.0) {
            return Err("escalation_growth_factor must be >= 1".into());
        }
        Ok(())
    }

    /// Round `bytes` **up** to a whole number of blocks (all lock-memory
    /// resizes are in integral 128 KiB blocks, §3.2).
    pub fn round_up_to_block(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.block_bytes) * self.block_bytes
    }

    /// Round `bytes` to the **nearest** whole number of blocks (the
    /// paper specifies nearest for the δ_reduce step).
    pub fn round_to_nearest_block(&self, bytes: u64) -> u64 {
        let b = self.block_bytes;
        ((bytes + b / 2) / b) * b
    }

    /// Lock structures per block.
    pub fn slots_per_block(&self) -> u64 {
        self.block_bytes / self.lock_struct_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let p = TunerParams::default();
        assert_eq!(p.min_lock_memory_floor_bytes, 2 * 1024 * 1024);
        assert_eq!(p.min_locks_per_application, 500);
        assert_eq!(p.max_lock_memory_fraction, 0.20);
        assert_eq!(p.sql_compiler_fraction, 0.10);
        assert_eq!(p.overflow_consumption_fraction, 0.65);
        assert_eq!(p.min_free_fraction, 0.50);
        assert_eq!(p.max_free_fraction, 0.60);
        assert_eq!(p.delta_reduce, 0.05);
        assert_eq!(p.app_percent_max, 98.0);
        assert_eq!(p.app_percent_exponent, 3.0);
        assert_eq!(p.app_percent_refresh_period, 128); // 0x80
        assert_eq!(p.block_bytes, 131_072);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn rounding() {
        let p = TunerParams::default();
        assert_eq!(p.round_up_to_block(0), 0);
        assert_eq!(p.round_up_to_block(1), 131_072);
        assert_eq!(p.round_up_to_block(131_072), 131_072);
        assert_eq!(p.round_up_to_block(131_073), 262_144);
        assert_eq!(p.round_to_nearest_block(65_536), 131_072); // exactly half rounds up
        assert_eq!(p.round_to_nearest_block(65_535), 0);
        assert_eq!(p.round_to_nearest_block(200_000), 262_144);
    }

    #[test]
    fn validation_rejects_inverted_band() {
        let p = TunerParams {
            min_free_fraction: 0.7,
            max_free_fraction: 0.6,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(TunerParams {
            max_lock_memory_fraction: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TunerParams {
            delta_reduce: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TunerParams {
            block_bytes: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TunerParams {
            escalation_growth_factor: 0.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TunerParams {
            app_percent_min: 99.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn slots_per_block_default() {
        assert_eq!(TunerParams::default().slots_per_block(), 2048);
    }

    #[test]
    fn clone_roundtrip() {
        // The parameters are plain data: a copy compares equal.
        let p = TunerParams::default();
        let back = p;
        assert_eq!(p, back);
    }
}
