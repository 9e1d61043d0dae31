//! Figure 6 — the §4 worked example, reproduced as a deterministic
//! trace of the real tuner + memory model + block pool.
//!
//! The paper walks through T0…Tn on a bar chart of memory state:
//!
//! * T0: steady state, 4 % of database memory allocated to locks, half
//!   used;
//! * T1: surge to 3 % used — contained in the existing allocation;
//! * T2: tuning interval grows the allocation to restore 50 % free,
//!   shrinking sort (no overflow consumed);
//! * T3: 267 % surge to 8 % used — free space absorbs most, 2 % comes
//!   synchronously from overflow (10 % → 8 %);
//! * T4: tuning interval restores the overflow goal from donor heaps
//!   and sizes the lock memory for 50 % free;
//! * T5: pressure returns to the T0 level — 87.5 % of the lock memory
//!   is now empty;
//! * T6…Tn: 5 %-per-interval decay until 60 % free.

use locktune_core::TunerParams;
use locktune_memalloc::{LockMemoryPool, PoolConfig, SlotHandle};
use locktune_memory::{DatabaseMemory, HeapKind, IntervalReport, MemoryConfig, PerfHeap, Stmm};
use locktune_metrics::TimeSeries;
use locktune_sim::SimTime;

use crate::report::Report;

const MIB: u64 = 1024 * 1024;
/// Total database memory for the example: 1000 MB, so 1 % = 10 MB.
const DB: u64 = 1000 * MIB;

/// Keeps the pool's used-slot count at a target by holding handles.
struct Occupancy {
    held: Vec<SlotHandle>,
}

impl Occupancy {
    fn new() -> Self {
        Occupancy { held: Vec::new() }
    }

    /// Adjust the pool occupancy to `target` slots. Frees LIFO so tail
    /// blocks become entirely free, as the §2.2 discipline produces.
    fn set(&mut self, pool: &mut LockMemoryPool, target: u64) {
        while (self.held.len() as u64) < target {
            match pool.allocate() {
                Ok(h) => self.held.push(h),
                Err(_) => break, // caller will grow synchronously
            }
        }
        while (self.held.len() as u64) > target {
            let h = self.held.pop().expect("non-empty");
            pool.free(h).expect("live handle");
        }
    }
}

/// The figure's bars: allocated, used and free-overflow lock memory as
/// percentages of database memory, sampled at each labelled time.
struct Bars {
    alloc: TimeSeries,
    used: TimeSeries,
    overflow: TimeSeries,
}

impl Bars {
    fn sample(&mut self, pool: &LockMemoryPool, mem: &DatabaseMemory, t: u64) -> (f64, f64, f64) {
        let pct = |bytes: u64| bytes as f64 / DB as f64 * 100.0;
        let (alloc, used, overflow) = (
            pct(pool.total_bytes()),
            pct(pool.used_bytes()),
            pct(mem.overflow_free()),
        );
        let at = SimTime::from_secs(t);
        self.alloc.push(at, alloc);
        self.used.push(at, used);
        self.overflow.push(at, overflow);
        (alloc, used, overflow)
    }
}

/// One tuning interval for 100 applications, applied to `pool`.
fn interval(
    stmm: &mut Stmm,
    mem: &mut DatabaseMemory,
    pool: &mut LockMemoryPool,
) -> IntervalReport {
    let stats = pool.stats();
    stmm.run_interval(mem, &stats, 100, 0, |target| {
        pool.resize_to_blocks(target / pool.config().block_bytes);
        pool.total_bytes()
    })
}

fn pct_to_slots(pct: f64) -> u64 {
    ((pct / 100.0 * DB as f64) as u64) / 64
}

/// Run the worked example and report each labelled time.
pub fn run() -> Report {
    let mut report = Report::new(
        "fig6",
        "worked example: combined synchronous & asynchronous tuning (§4)",
    );
    let params = TunerParams::default();
    let config = MemoryConfig {
        total_bytes: DB,
        overflow_goal_fraction: 0.10,
    };
    // 70% bufferpool, 14% sort (over-provisioned: the least needy
    // donor), 2% package cache, 4% lock memory, 10% overflow.
    let mut mem = DatabaseMemory::new(
        config,
        vec![
            PerfHeap::new(HeapKind::BufferPool, 700 * MIB, 100 * MIB, 900 * MIB),
            PerfHeap::new(HeapKind::SortHeap, 140 * MIB, 10 * MIB, 40 * MIB),
            PerfHeap::new(HeapKind::PackageCache, 20 * MIB, 5 * MIB, 20 * MIB),
        ],
        40 * MIB,
    );
    let mut pool = LockMemoryPool::with_bytes(PoolConfig::default(), 40 * MIB);
    let mut stmm = Stmm::new(params, 40 * MIB);
    let mut occ = Occupancy::new();
    let mut bars = Bars {
        alloc: TimeSeries::new("lock_alloc_pct"),
        used: TimeSeries::new("lock_used_pct"),
        overflow: TimeSeries::new("overflow_pct"),
    };
    let mut t = 0u64;

    // T0: steady state — 4% allocated, 2% used, 10% overflow.
    occ.set(&mut pool, pct_to_slots(2.0));
    let (a, u, o) = bars.sample(&pool, &mem, t);
    report.check(
        "T0: 4% of memory allocated to locks, half unused, overflow 10%",
        format!("alloc {a:.1}%, used {u:.1}%, overflow {o:.1}%"),
        (3.9..4.1).contains(&a) && (1.9..2.1).contains(&u) && (9.9..10.1).contains(&o),
    );

    // T1: surge 2% -> 3% used, contained within the allocation.
    t += 30;
    occ.set(&mut pool, pct_to_slots(3.0));
    let grew = pool.total_bytes() != 40 * MIB;
    let (a, u, o) = bars.sample(&pool, &mem, t);
    report.check(
        "T1: surge to 3% used needs no overflow memory",
        format!("alloc {a:.1}%, used {u:.1}%, overflow {o:.1}%, synchronous growth: {grew}"),
        !grew && (9.9..10.1).contains(&o),
    );

    // T2: tuning interval — grow to 50% free from donor heaps.
    t += 30;
    interval(&mut stmm, &mut mem, &mut pool);
    let sort_after_t2 = mem.heap(HeapKind::SortHeap).size;
    let (a, _u, o) = bars.sample(&pool, &mem, t);
    report.check(
        "T2: STMM grows lock memory to 50% free by shrinking sort, overflow untouched",
        format!(
            "alloc {a:.1}% (target 6%), sort shrank to {} MB, overflow {o:.1}%",
            sort_after_t2 / MIB
        ),
        (5.9..6.1).contains(&a) && sort_after_t2 < 140 * MIB && (9.9..10.1).contains(&o),
    );

    // T3: 267% surge to 8% used; free space absorbs 3%, the extra 2%
    // comes synchronously from overflow.
    t += 30;
    let target_slots = pct_to_slots(8.0);
    // Simulate the lock manager's synchronous path: exhaust, then grow
    // from overflow within the LMOmax bound.
    loop {
        occ.set(&mut pool, target_slots);
        if pool.used_slots() >= target_slots {
            break;
        }
        let bytes = stmm.sync_growth(&mut mem, params.block_bytes, pool.total_bytes(), 100);
        assert!(bytes > 0, "unexpected synchronous growth denial");
        pool.grow_blocks(bytes / params.block_bytes);
    }
    debug_assert_eq!(mem.lock_memory(), pool.total_bytes());
    let (a, u, o) = bars.sample(&pool, &mem, t);
    report.check(
        "T3: 267% surge to 8% used; ~2% taken synchronously; overflow 10% -> 8%",
        format!("alloc {a:.1}%, used {u:.1}%, overflow {o:.1}%"),
        (7.9..8.2).contains(&u) && (7.7..8.2).contains(&o),
    );

    // T4: tuning interval — restore overflow goal, 50% free again.
    t += 30;
    interval(&mut stmm, &mut mem, &mut pool);
    let (a, _u, o) = bars.sample(&pool, &mem, t);
    report.check(
        "T4: heaps reduced to meet the 50%-free objective and reclaim the overflow goal",
        format!(
            "alloc {a:.1}% (target 16%), overflow {o:.1}%, LMO {}",
            mem.lock_from_overflow()
        ),
        (15.9..16.2).contains(&a) && (9.9..10.1).contains(&o) && mem.lock_from_overflow() == 0,
    );

    // T5: pressure returns to the T0 level; 87.5% of lock memory empty.
    t += 30;
    occ.set(&mut pool, pct_to_slots(2.0));
    let free_frac = pool.free_fraction() * 100.0;
    let (_a, _u, _o) = bars.sample(&pool, &mem, t);
    report.check(
        "T5: most of the lock memory is now empty (87.5%)",
        format!("free fraction {free_frac:.1}%"),
        (87.0..88.0).contains(&free_frac),
    );

    // T6..Tn: 5%-per-interval decay until maxFree (60%) is reached.
    let mut intervals = 0;
    let before_decay = pool.total_bytes();
    loop {
        t += 30;
        let r = interval(&mut stmm, &mut mem, &mut pool);
        bars.sample(&pool, &mem, t);
        if r.released_bytes == 0 {
            break;
        }
        // Gradual: never more than ~5% (+1 block rounding).
        assert!(
            r.released_bytes
                <= (0.05 * (r.lock_bytes_after + r.released_bytes) as f64) as u64
                    + params.block_bytes
        );
        intervals += 1;
        assert!(intervals < 100, "decay must terminate");
    }
    let final_alloc = pool.total_bytes();
    let target_floor = 2.5 * (pct_to_slots(2.0) * 64) as f64;
    report.check(
        "T6..Tn: slow 5%/interval reduction until maxFreeLockMemory (60%) free",
        format!(
            "{} intervals of decay, {} MB -> {} MB (floor {:.0} MB)",
            intervals,
            before_decay / MIB,
            final_alloc / MIB,
            target_floor / MIB as f64,
        ),
        intervals >= 10 && (final_alloc as f64) < 0.6 * before_decay as f64,
    );

    report.series = vec![bars.alloc, bars.used, bars.overflow];
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn worked_example_matches_paper() {
        let r = super::run();
        assert!(r.all_pass(), "\n{}", r.render());
    }
}
