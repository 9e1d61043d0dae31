//! The SQL Server 2005 lock-memory model, as described in §2.3.
//!
//! Documented behaviour the paper cites:
//!
//! * the engine initially allocates memory for 2500 locks;
//! * lock memory may grow dynamically, but only up to **60 %** of the
//!   total database-engine memory;
//! * escalation triggers when lock memory consumption reaches **40 %**
//!   of engine memory — not configurable;
//! * a single statement acquiring **5000** row locks escalates
//!   unconditionally — not configurable (the paper notes a single
//!   reporting query therefore escalates easily);
//! * no clear statement that lock memory is ever returned (no shrink).

/// The SQL Server 2005 policy constants and state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqlServerModel {
    /// Total database-engine memory.
    pub engine_memory_bytes: u64,
    /// Bytes per lock structure (kept equal to the DB2 model's so the
    /// comparison is about policy, not geometry).
    pub lock_struct_bytes: u64,
    /// Locks allocated at startup (2500).
    pub initial_locks: u64,
    /// Escalation threshold as a fraction of engine memory (0.40).
    pub escalation_threshold: f64,
    /// Growth ceiling as a fraction of engine memory (0.60).
    pub growth_ceiling: f64,
    /// Row locks one statement may hold before unconditional
    /// escalation (5000).
    pub per_statement_lock_limit: u64,
}

impl SqlServerModel {
    /// Create the model for a given engine memory size.
    pub fn new(engine_memory_bytes: u64) -> Self {
        SqlServerModel {
            engine_memory_bytes,
            lock_struct_bytes: 64,
            initial_locks: 2500,
            escalation_threshold: 0.40,
            growth_ceiling: 0.60,
            per_statement_lock_limit: 5000,
        }
    }

    /// Initial lock memory in bytes.
    pub fn initial_bytes(&self) -> u64 {
        self.initial_locks * self.lock_struct_bytes
    }

    /// Absolute growth ceiling in bytes (60 % of engine memory).
    pub fn max_bytes(&self) -> u64 {
        (self.growth_ceiling * self.engine_memory_bytes as f64) as u64
    }

    /// Lock-memory level at which escalations begin (40 %).
    fn escalation_bytes(&self) -> u64 {
        (self.escalation_threshold * self.engine_memory_bytes as f64) as u64
    }

    /// Synchronous growth grant: grow freely below the ceiling.
    pub fn sync_growth(&self, wanted_bytes: u64, current_bytes: u64) -> u64 {
        let room = self.max_bytes().saturating_sub(current_bytes);
        wanted_bytes.min(room)
    }

    /// Should the engine escalate based on total lock memory?
    pub fn memory_pressure_escalation(&self, used_bytes: u64) -> bool {
        used_bytes >= self.escalation_bytes()
    }

    /// The per-application cap expressed as a percentage of the current
    /// pool, so it plugs into the same `MAXLOCKS`-style check the DB2
    /// lock manager performs. SQL Server's limit is an absolute 5000
    /// row locks (~2 structures each under our geometry).
    pub fn app_cap_percent(&self, total_pool_slots: u64) -> f64 {
        if total_pool_slots == 0 {
            return 100.0;
        }
        let cap_slots = self.per_statement_lock_limit * 2;
        (cap_slots as f64 / total_pool_slots as f64 * 100.0).min(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn documented_constants() {
        let m = SqlServerModel::new(4 * GIB);
        assert_eq!(m.initial_locks, 2500);
        assert_eq!(m.per_statement_lock_limit, 5000);
        assert_eq!(m.escalation_threshold, 0.40);
        assert_eq!(m.growth_ceiling, 0.60);
        assert_eq!(m.initial_bytes(), 2500 * 64);
    }

    #[test]
    fn thresholds_scale_with_memory() {
        let m = SqlServerModel::new(10 * GIB);
        assert_eq!(m.max_bytes(), 6 * GIB);
        assert_eq!(m.escalation_bytes(), 4 * GIB);
        assert!(m.memory_pressure_escalation(4 * GIB));
        assert!(!m.memory_pressure_escalation(4 * GIB - 1));
    }

    #[test]
    fn growth_capped_at_sixty_percent() {
        let m = SqlServerModel::new(GIB);
        assert_eq!(m.sync_growth(1 << 20, 0), 1 << 20);
        let near_max = m.max_bytes() - 100;
        assert_eq!(m.sync_growth(1 << 20, near_max), 100);
        assert_eq!(m.sync_growth(1 << 20, m.max_bytes()), 0);
    }

    #[test]
    fn app_cap_is_absolute_5000_locks() {
        let m = SqlServerModel::new(GIB);
        // Pool of 100k slots: cap = 10000 slots = 10%.
        assert!((m.app_cap_percent(100_000) - 10.0).abs() < 1e-9);
        // Tiny pool: cap saturates at 100%.
        assert_eq!(m.app_cap_percent(5000), 100.0);
        assert_eq!(m.app_cap_percent(0), 100.0);
    }

    #[test]
    fn single_reporting_query_escalates() {
        // The paper's §2.3 observation: 5000 locks is easily exceeded
        // by one reporting query regardless of available memory.
        let m = SqlServerModel::new(64 * GIB); // memory is plentiful
        let pool_slots = 10_000_000; // plenty of lock memory too
        let cap = m.app_cap_percent(pool_slots);
        let query_slots = 500_000 * 2; // a 500k-row scan
        let share = query_slots as f64 / pool_slots as f64 * 100.0;
        assert!(share > cap, "the query blows through the fixed cap");
    }
}
