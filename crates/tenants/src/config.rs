//! Directory configuration.

use std::time::Duration;

use locktune_service::{ConfigError, ServiceConfig};

/// Why a [`TenantsConfig`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum TenantsConfigError {
    /// `machine_budget_bytes` cannot cover even one tenant's floor.
    BudgetBelowFloor {
        /// Configured machine budget.
        budget: u64,
        /// Configured per-tenant floor.
        floor: u64,
    },
    /// `floor_bytes` is smaller than one pool block — a tenant could
    /// then hold a budget it cannot allocate a single block under.
    FloorBelowBlock {
        /// Configured floor.
        floor: u64,
        /// The pool block size from the service template.
        block: u64,
    },
    /// `quantum_bytes == 0`: the arbiter could never move anything.
    ZeroQuantum,
    /// The per-tenant service template failed its own validation.
    Service(ConfigError),
}

impl std::fmt::Display for TenantsConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantsConfigError::BudgetBelowFloor { budget, floor } => write!(
                f,
                "machine budget ({budget} B) below the per-tenant floor ({floor} B)"
            ),
            TenantsConfigError::FloorBelowBlock { floor, block } => write!(
                f,
                "per-tenant floor ({floor} B) below one pool block ({block} B)"
            ),
            TenantsConfigError::ZeroQuantum => f.write_str("quantum_bytes must be >= 1"),
            TenantsConfigError::Service(e) => write!(f, "service template: {e}"),
        }
    }
}

impl std::error::Error for TenantsConfigError {}

impl From<ConfigError> for TenantsConfigError {
    fn from(e: ConfigError) -> Self {
        TenantsConfigError::Service(e)
    }
}

impl TenantsConfigError {
    /// Suggested process exit code, matching the service's convention
    /// (`2` config mistake, `3` environment failure).
    pub fn exit_code(&self) -> i32 {
        match self {
            TenantsConfigError::Service(e) => e.exit_code(),
            _ => 2,
        }
    }
}

/// Configuration of a [`TenantDirectory`].
///
/// [`TenantDirectory`]: crate::TenantDirectory
#[derive(Debug, Clone, Copy)]
pub struct TenantsConfig {
    /// The machine-wide lock-memory budget every tenant's pool draws
    /// from. The ledger partitions exactly this many bytes between
    /// tenant budgets and the free pool.
    pub machine_budget_bytes: u64,
    /// Per-tenant floor: the arbiter never takes a budget below this,
    /// so a quiet tenant always keeps enough to come back to life
    /// without re-negotiating.
    pub floor_bytes: u64,
    /// Per-tenant ceiling, `0` = limited only by the machine budget.
    /// A cap on how much one tenant can absorb, whatever its benefit.
    pub ceiling_bytes: u64,
    /// Bytes a tenant is granted at creation (clamped to
    /// `[floor_bytes, ceiling]` and the free pool). With `--tenants N`
    /// the server sets this to an equal split of the machine budget.
    pub initial_grant_bytes: u64,
    /// Most bytes one arbitration moves. Small quanta make the
    /// rebalance gradual (the paper caps per-interval resizes for the
    /// same reason); the arbiter runs every interval, so a sustained
    /// imbalance still converges quickly.
    pub quantum_bytes: u64,
    /// Minimum benefit gap (recipient − donor, in pressure-per-MiB
    /// units) before a donation happens. Hysteresis: near-equal
    /// benefits must not cause budget to slosh back and forth.
    pub hysteresis: f64,
    /// Wake-up period of the arbiter thread. `Duration::ZERO` spawns
    /// no thread — budgets then stay wherever creation (or manual
    /// [`TenantDirectory::arbitrate_now`] calls) put them, which is
    /// exactly the "static split" baseline the A/B experiment runs.
    ///
    /// [`TenantDirectory::arbitrate_now`]: crate::TenantDirectory::arbitrate_now
    pub arbiter_interval: Duration,
    /// Template for every tenant's service. `tenant_id` and
    /// `initial_lock_bytes` are overridden per tenant; everything else
    /// applies as-is.
    pub service: ServiceConfig,
}

impl Default for TenantsConfig {
    fn default() -> Self {
        const MIB: u64 = 1024 * 1024;
        TenantsConfig {
            machine_budget_bytes: 256 * MIB,
            floor_bytes: 2 * MIB,
            ceiling_bytes: 0,
            initial_grant_bytes: 8 * MIB,
            quantum_bytes: 4 * MIB,
            hysteresis: 0.05,
            arbiter_interval: Duration::from_secs(30),
            service: ServiceConfig::default(),
        }
    }
}

impl TenantsConfig {
    /// A configuration for tests and stress drivers: small budgets,
    /// millisecond arbitration so donations happen within a test run.
    pub fn fast(shards: usize) -> Self {
        const MIB: u64 = 1024 * 1024;
        TenantsConfig {
            machine_budget_bytes: 64 * MIB,
            floor_bytes: 2 * MIB,
            initial_grant_bytes: 4 * MIB,
            quantum_bytes: 2 * MIB,
            arbiter_interval: Duration::from_millis(100),
            service: ServiceConfig::fast(shards),
            ..Default::default()
        }
    }

    /// The effective per-tenant ceiling.
    pub fn effective_ceiling(&self) -> u64 {
        if self.ceiling_bytes == 0 {
            self.machine_budget_bytes
        } else {
            self.ceiling_bytes.max(self.floor_bytes)
        }
    }

    /// Validate the configuration (including the service template).
    pub fn validate(&self) -> Result<(), TenantsConfigError> {
        if self.machine_budget_bytes < self.floor_bytes {
            return Err(TenantsConfigError::BudgetBelowFloor {
                budget: self.machine_budget_bytes,
                floor: self.floor_bytes,
            });
        }
        let block = self.service.params.block_bytes;
        if self.floor_bytes < block {
            return Err(TenantsConfigError::FloorBelowBlock {
                floor: self.floor_bytes,
                block,
            });
        }
        if self.quantum_bytes == 0 {
            return Err(TenantsConfigError::ZeroQuantum);
        }
        self.service.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(TenantsConfig::default().validate().is_ok());
        assert!(TenantsConfig::fast(4).validate().is_ok());
    }

    #[test]
    fn bad_configs_rejected() {
        let mut c = TenantsConfig::fast(2);
        c.quantum_bytes = 0;
        assert_eq!(c.validate(), Err(TenantsConfigError::ZeroQuantum));
        let mut c = TenantsConfig::fast(2);
        c.floor_bytes = 1;
        assert!(matches!(
            c.validate(),
            Err(TenantsConfigError::FloorBelowBlock { .. })
        ));
        let mut c = TenantsConfig::fast(2);
        c.machine_budget_bytes = 1;
        assert!(matches!(
            c.validate(),
            Err(TenantsConfigError::BudgetBelowFloor { .. })
        ));
    }
}
