//! The pre-DB2 9 static configuration.

/// Fixed `LOCKLIST` + fixed `MAXLOCKS`: the configuration the paper's
/// §5.1 experiment shows collapsing. The lock memory never grows or
/// shrinks; an application exceeding `maxlocks_percent` of it
/// escalates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticPolicy {
    /// Fixed lock memory size in bytes (§5.1 uses 0.4 MB).
    pub locklist_bytes: u64,
    /// Fixed `MAXLOCKS` percentage (DB2's historical default: 10).
    pub maxlocks_percent: f64,
}

impl StaticPolicy {
    /// The §5.1 experiment configuration: 0.4 MB for a 130-client
    /// OLTP system.
    pub fn figure7() -> Self {
        StaticPolicy {
            locklist_bytes: 400 * 1024,
            maxlocks_percent: 10.0,
        }
    }
}

impl Default for StaticPolicy {
    fn default() -> Self {
        StaticPolicy {
            locklist_bytes: 4 * 1024 * 1024,
            maxlocks_percent: 10.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_config() {
        let p = StaticPolicy::figure7();
        assert_eq!(p.locklist_bytes, 409_600);
        assert_eq!(p.maxlocks_percent, 10.0);
    }
}
