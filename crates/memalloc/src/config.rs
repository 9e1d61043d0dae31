//! Pool geometry.

/// Geometry of the lock memory pool.
///
/// The defaults reproduce the paper: 128 KiB blocks (32 `LOCKLIST`
/// pages) holding "approximately 2000 locks" each — with a 64-byte lock
/// structure a block holds exactly 2048.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Bytes per allocation block.
    pub block_bytes: u64,
    /// Bytes per lock structure.
    pub lock_struct_bytes: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            block_bytes: 128 * 1024,
            lock_struct_bytes: 64,
        }
    }
}

impl PoolConfig {
    /// Create a config, validating the geometry.
    ///
    /// # Panics
    /// Panics if either size is zero or a block cannot hold at least one
    /// lock structure.
    pub fn new(block_bytes: u64, lock_struct_bytes: u64) -> Self {
        assert!(block_bytes > 0, "block size must be non-zero");
        assert!(
            lock_struct_bytes > 0,
            "lock structure size must be non-zero"
        );
        assert!(
            block_bytes >= lock_struct_bytes,
            "a block must hold at least one lock structure"
        );
        PoolConfig {
            block_bytes,
            lock_struct_bytes,
        }
    }

    /// Lock structures per block.
    #[inline]
    pub fn slots_per_block(&self) -> u32 {
        (self.block_bytes / self.lock_struct_bytes) as u32
    }

    /// Number of whole blocks needed to provide at least `bytes` of lock
    /// memory (DB2 rounds all lock-memory resizes to whole blocks).
    #[inline]
    pub fn blocks_for_bytes(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.block_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_geometry() {
        let c = PoolConfig::default();
        assert_eq!(c.block_bytes, 131_072);
        // "approximately 2000 locks" per 128 KiB block.
        assert_eq!(c.slots_per_block(), 2048);
    }

    #[test]
    fn blocks_for_bytes_rounds_up() {
        let c = PoolConfig::default();
        assert_eq!(c.blocks_for_bytes(0), 0);
        assert_eq!(c.blocks_for_bytes(1), 1);
        assert_eq!(c.blocks_for_bytes(131_072), 1);
        assert_eq!(c.blocks_for_bytes(131_073), 2);
        assert_eq!(c.blocks_for_bytes(400 * 1024), 4); // 0.4 MB -> 4 blocks
    }

    #[test]
    #[should_panic(expected = "at least one lock structure")]
    fn rejects_oversized_lock_struct() {
        PoolConfig::new(64, 128);
    }

    #[test]
    fn custom_geometry() {
        let c = PoolConfig::new(1024, 64);
        assert_eq!(c.slots_per_block(), 16);
        assert_eq!(c.blocks_for_bytes(4096), 4);
    }
}
