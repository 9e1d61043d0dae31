//! Performance memory consumers (PMCs) and their neediness signal.
//!
//! The paper divides consumers into performance-related (bufferpool,
//! sort, package cache — more memory means faster, never failure) and
//! functional (lock memory — too little means escalation, modelled as a
//! deterministic heap). STMM ranks PMCs by *benefit*: how much of their
//! demand is unmet. The least-needy PMC donates first; the neediest
//! receives freed memory first.

/// The kinds of heap in the database shared memory set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapKind {
    /// Main-memory page cache.
    BufferPool,
    /// Sort/hash work areas.
    SortHeap,
    /// Compiled statement cache.
    PackageCache,
}

/// All PMC kinds, in a stable order.
pub const ALL_HEAPS: [HeapKind; 3] = [
    HeapKind::BufferPool,
    HeapKind::SortHeap,
    HeapKind::PackageCache,
];

impl std::fmt::Display for HeapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HeapKind::BufferPool => "bufferpool",
            HeapKind::SortHeap => "sortheap",
            HeapKind::PackageCache => "pkgcache",
        };
        f.write_str(s)
    }
}

/// One performance heap: a size, a floor, and a demand signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfHeap {
    /// Which heap.
    pub kind: HeapKind,
    /// Current configured size in bytes.
    pub size: u64,
    /// Floor below which STMM will not shrink it.
    pub min: u64,
    /// Bytes the workload could productively use right now.
    pub demand: u64,
}

impl PerfHeap {
    /// Create a heap.
    ///
    /// # Panics
    /// Panics if `size < min`.
    pub fn new(kind: HeapKind, size: u64, min: u64, demand: u64) -> Self {
        assert!(size >= min, "heap size below its floor");
        PerfHeap {
            kind,
            size,
            min,
            demand,
        }
    }

    /// Unmet demand as a fraction of demand: 0 (satisfied) to 1
    /// (starving). This is the STMM neediness ranking key.
    pub fn neediness(&self) -> f64 {
        if self.demand == 0 {
            return 0.0;
        }
        let unmet = self.demand.saturating_sub(self.size);
        unmet as f64 / self.demand as f64
    }

    /// Bytes this heap can donate without dropping below its floor.
    pub fn donatable(&self) -> u64 {
        self.size.saturating_sub(self.min)
    }

    /// Bytes this heap would like to receive.
    pub fn wanted(&self) -> u64 {
        self.demand.saturating_sub(self.size)
    }

    /// Shrink by up to `bytes`; returns the bytes actually donated.
    pub fn donate(&mut self, bytes: u64) -> u64 {
        let give = bytes.min(self.donatable());
        self.size -= give;
        give
    }

    /// Grow by `bytes`.
    pub fn receive(&mut self, bytes: u64) {
        self.size += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(size: u64, min: u64, demand: u64) -> PerfHeap {
        PerfHeap::new(HeapKind::SortHeap, size, min, demand)
    }

    #[test]
    fn neediness_scale() {
        assert_eq!(heap(100, 0, 100).neediness(), 0.0); // satisfied
        assert_eq!(heap(50, 0, 100).neediness(), 0.5);
        assert_eq!(heap(0, 0, 100).neediness(), 1.0);
        assert_eq!(heap(200, 0, 100).neediness(), 0.0); // over-provisioned
        assert_eq!(heap(50, 0, 0).neediness(), 0.0); // no demand
    }

    #[test]
    fn donation_respects_floor() {
        let mut h = heap(100, 30, 100);
        assert_eq!(h.donatable(), 70);
        assert_eq!(h.donate(50), 50);
        assert_eq!(h.size, 50);
        assert_eq!(h.donate(50), 20, "floor stops the donation");
        assert_eq!(h.size, 30);
        assert_eq!(h.donate(10), 0);
    }

    #[test]
    fn receive_and_wanted() {
        let mut h = heap(40, 0, 100);
        assert_eq!(h.wanted(), 60);
        h.receive(25);
        assert_eq!(h.size, 65);
        assert_eq!(h.wanted(), 35);
        let over = heap(150, 0, 100);
        assert_eq!(over.wanted(), 0);
    }

    #[test]
    #[should_panic(expected = "below its floor")]
    fn size_under_floor_rejected() {
        PerfHeap::new(HeapKind::BufferPool, 10, 20, 0);
    }
}
