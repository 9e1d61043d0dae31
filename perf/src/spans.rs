//! The harness's own span recorder. Spans are taken **around** calls
//! into the program's layers, from this package's files only; spans
//! inside the program are a later change (ROADMAP item 5).
//!
//! A workload's transaction loop is generic over [`Tracer`]: the
//! untraced run monomorphises it with [`Off`], whose methods are empty
//! and inline away, so end-to-end numbers never pay for tracing. The
//! traced run uses [`Recorder`], which samples one transaction in
//! [`Recorder::period`] into a fixed-capacity in-memory buffer and is
//! written out only after the run ends.

use std::io::Write;
use std::time::Instant;

/// "No parent": the span is a transaction root.
pub const NO_PARENT: u32 = u32::MAX;

/// Layer boundaries the harness times. The name says which layer's
/// public function the span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    Txn,
    ServiceLock,
    ServiceLockChunk,
    ServiceTuningTick,
    ServiceUnlockAll,
    ClientSend,
    ClientFlush,
    ClientWaitBatch,
    ClientWaitLocks,
    ClientWaitCommit,
    ClusterLockMany,
    ClusterUnlockAll,
}

impl SpanName {
    pub const ALL: [SpanName; 12] = [
        SpanName::Txn,
        SpanName::ServiceLock,
        SpanName::ServiceLockChunk,
        SpanName::ServiceTuningTick,
        SpanName::ServiceUnlockAll,
        SpanName::ClientSend,
        SpanName::ClientFlush,
        SpanName::ClientWaitBatch,
        SpanName::ClientWaitLocks,
        SpanName::ClientWaitCommit,
        SpanName::ClusterLockMany,
        SpanName::ClusterUnlockAll,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Txn => "txn",
            SpanName::ServiceLock => "service.lock",
            SpanName::ServiceLockChunk => "service.lock_chunk",
            SpanName::ServiceTuningTick => "service.tuning_tick",
            SpanName::ServiceUnlockAll => "service.unlock_all",
            SpanName::ClientSend => "client.send",
            SpanName::ClientFlush => "client.flush",
            SpanName::ClientWaitBatch => "client.wait_batch",
            SpanName::ClientWaitLocks => "client.wait_locks",
            SpanName::ClientWaitCommit => "client.wait_commit",
            SpanName::ClusterLockMany => "cluster.lock_many",
            SpanName::ClusterUnlockAll => "cluster.unlock_all",
        }
    }
}

/// One fixed-size span record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    /// Index of the causing span in the same recorder, or
    /// [`NO_PARENT`].
    pub parent: u32,
    /// Transaction ordinal on the recording thread; every span of one
    /// transaction carries the same value.
    pub txn: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a transaction loop calls at each layer boundary.
pub trait Tracer: Send {
    /// A transaction starts; decides whether it is sampled.
    fn txn_begin(&mut self);
    /// Run `f`, recording a span around it when the current
    /// transaction is sampled.
    fn span<R>(&mut self, name: SpanName, f: impl FnOnce() -> R) -> R;
    /// The transaction ended.
    fn txn_end(&mut self);
}

/// Tracing off: every call compiles to the bare `f()`.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn txn_begin(&mut self) {}

    #[inline(always)]
    fn span<R>(&mut self, _name: SpanName, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn txn_end(&mut self) {}
}

/// Per-thread sampling recorder.
pub struct Recorder {
    epoch: Instant,
    /// Sample one transaction in this many.
    period: u64,
    seen: u64,
    spans: Vec<Span>,
    /// Open spans of the current sampled transaction, innermost last.
    /// Empty while the current transaction is not sampled.
    open: Vec<u32>,
    /// Sampled transactions skipped because the buffer was full.
    pub dropped_txns: u64,
}

/// Spans kept per recording thread. A sampled transaction needs at
/// most ~25 records, so this holds a few thousand of them per thread;
/// beyond it, sampled transactions are counted as dropped instead of
/// growing the buffer mid-measurement.
pub const CAPACITY: usize = 1 << 16;

/// Headroom a transaction must find free to be sampled.
const TXN_RESERVE: usize = 64;

impl Recorder {
    /// `epoch` is shared by every recorder of a run so spans from
    /// different threads share a time base.
    pub fn new(epoch: Instant, period: u64) -> Recorder {
        Recorder {
            epoch,
            period: period.max(1),
            seen: 0,
            spans: Vec::with_capacity(CAPACITY),
            open: Vec::with_capacity(8),
            dropped_txns: 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, name: SpanName) -> u32 {
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            txn: self.seen,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    fn close_span(&mut self, idx: u32) {
        self.spans[idx as usize].end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
    }
}

impl Tracer for Recorder {
    fn txn_begin(&mut self) {
        self.seen += 1;
        if !self.seen.is_multiple_of(self.period) {
            return;
        }
        if self.spans.len() + TXN_RESERVE > CAPACITY {
            self.dropped_txns += 1;
            return;
        }
        self.open_span(SpanName::Txn);
    }

    fn span<R>(&mut self, name: SpanName, f: impl FnOnce() -> R) -> R {
        // A transaction with more layer calls than the reserve (the
        // DSS scan's chunks) stops recording children at capacity but
        // still closes what it opened.
        if self.open.is_empty() || self.spans.len() >= CAPACITY {
            return f();
        }
        let idx = self.open_span(name);
        let r = f();
        self.close_span(idx);
        r
    }

    fn txn_end(&mut self) {
        if let Some(&root) = self.open.first() {
            debug_assert_eq!(self.open.len(), 1, "child span left open");
            self.close_span(root);
        }
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (children are clipped to
/// the parent and overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.clamp(p.start_ns, p.end_ns);
            let end = s.end_ns.clamp(p.start_ns, p.end_ns);
            children[s.parent as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut frontier = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(frontier);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals over a set of recorders, for the layer table.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    pub durations_ns: Vec<u64>,
    pub self_ns: Vec<u64>,
}

/// Group durations and self times by span name (indexed like
/// [`SpanName::ALL`]).
pub fn by_name(recorders: &[Recorder]) -> Vec<NameStats> {
    let mut stats = vec![NameStats::default(); SpanName::ALL.len()];
    for rec in recorders {
        let selfs = self_times(rec.spans());
        for (s, own) in rec.spans().iter().zip(selfs) {
            let slot = &mut stats[s.name as usize];
            slot.durations_ns.push(s.duration_ns());
            slot.self_ns.push(own);
        }
    }
    stats
}

/// Write every span as one JSON object per line. `id` and `parent`
/// index spans within one recorder (`rec`); recorders come in seat
/// order, one set per traced stretch, so `rec % threads` is the client
/// thread.
pub fn write_jsonl(
    path: &std::path::Path,
    recorders: &[Recorder],
    threads: usize,
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (rec_idx, rec) in recorders.iter().enumerate() {
        let thread = rec_idx % threads.max(1);
        for (idx, s) in rec.spans().iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"rec\": {rec_idx}, \"thread\": {thread}, \"id\": {idx}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"txn\": {}}}",
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.txn
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            txn: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover() {
        let spans = [
            // root 0..100
            span(SpanName::Txn, NO_PARENT, 0, 100),
            // two sequential children: 10..30, 40..70
            span(SpanName::ClientSend, 0, 10, 30),
            span(SpanName::ClientWaitBatch, 0, 40, 70),
            // a grandchild inside the second child: 45..55
            span(SpanName::ServiceLock, 2, 45, 55),
            // an overlapping child 60..80 counts 70..80 once more
            span(SpanName::ClientWaitCommit, 0, 60, 80),
            // a child leaking past its parent is clipped to 90..100
            span(SpanName::ClientFlush, 0, 90, 130),
        ];
        let own = self_times(&spans);
        // root: 100 − (20 + 30 + 10 + 10) = 30
        assert_eq!(own[0], 30);
        assert_eq!(own[1], 20);
        // second child: 30 − grandchild 10 = 20
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 20);
        assert_eq!(own[5], 40);
    }

    #[test]
    fn recorder_samples_one_in_period_and_links_parents() {
        let mut rec = Recorder::new(Instant::now(), 4);
        for _ in 0..8 {
            rec.txn_begin();
            let v = rec.span(SpanName::ServiceLock, || 7);
            assert_eq!(v, 7);
            rec.span(SpanName::ServiceUnlockAll, || ());
            rec.txn_end();
        }
        // transactions 4 and 8 are sampled: root + two children each
        let spans = rec.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].name, SpanName::Txn);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert_eq!((spans[0].txn, spans[3].txn), (4, 8));
        assert_eq!(spans[4].parent, 3);
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
        }
        let own = self_times(spans);
        assert!(own[0] <= spans[0].duration_ns());
    }

    #[test]
    fn off_runs_the_closure() {
        let mut off = Off;
        off.txn_begin();
        assert_eq!(off.span(SpanName::Txn, || 3), 3);
        off.txn_end();
    }
}
