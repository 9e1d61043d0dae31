//! Lockable resources: tables and rows.
#![warn(clippy::missing_inline_in_public_items)]

use std::fmt;

/// A table identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// A row identifier, unique within its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

/// A lockable resource.
///
/// The two-level hierarchy (table → row) is what lock escalation
/// collapses: many `Row` locks become one `Table` lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceId {
    /// A whole table.
    Table(TableId),
    /// One row of a table.
    Row(TableId, RowId),
}

impl ResourceId {
    /// The table this resource belongs to (itself for tables).
    #[inline]
    pub fn table(&self) -> TableId {
        match self {
            ResourceId::Table(t) => *t,
            ResourceId::Row(t, _) => *t,
        }
    }

    /// True for row-level resources.
    #[inline]
    pub fn is_row(&self) -> bool {
        matches!(self, ResourceId::Row(..))
    }
}

impl fmt::Display for ResourceId {
    #[inline(never)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceId::Table(t) => write!(f, "table#{}", t.0),
            ResourceId::Row(t, r) => write!(f, "table#{}.row#{}", t.0, r.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_extraction() {
        let t = TableId(7);
        assert_eq!(ResourceId::Table(t).table(), t);
        assert_eq!(ResourceId::Row(t, RowId(9)).table(), t);
        assert!(ResourceId::Row(t, RowId(9)).is_row());
        assert!(!ResourceId::Table(t).is_row());
    }

    #[test]
    fn display() {
        assert_eq!(ResourceId::Table(TableId(1)).to_string(), "table#1");
        assert_eq!(
            ResourceId::Row(TableId(1), RowId(2)).to_string(),
            "table#1.row#2"
        );
    }

    #[test]
    fn hash_and_eq_distinguish_rows() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(ResourceId::Row(TableId(1), RowId(1)));
        s.insert(ResourceId::Row(TableId(1), RowId(2)));
        s.insert(ResourceId::Row(TableId(2), RowId(1)));
        s.insert(ResourceId::Table(TableId(1)));
        assert_eq!(s.len(), 4);
    }
}
