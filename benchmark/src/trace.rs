//! Tracing from outside the program: a timing [`BlockSource`] that wraps a
//! session's source, the accounting of a query span into store and engine
//! time, and the replay that times the core bounders.
//!
//! The engine is run through the public
//! `fastframe_engine::executor::execute_progressive`, which accepts any
//! `&dyn BlockSource`; every call the engine makes into the store therefore
//! passes through [`TimedSource`], which records it as a child span of the
//! query. Per-round observer callbacks mark the engine's round spans.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fastframe_core::bounder::{BoundContext, BounderKind};
use fastframe_core::delta::DeltaBudget;
use fastframe_engine::progressive::Snapshot;
use fastframe_store::bitmap::BlockBitmapIndex;
use fastframe_store::block::{BlockId, BlockLayout};
use fastframe_store::catalog::Catalog;
use fastframe_store::source::{BlockRef, BlockSource};
use fastframe_store::table::{StoreResult, Table};
use fastframe_store::zone::ZoneMap;

/// Interval buffers; scan workers pick one each, so recording a span rarely
/// waits on another thread.
const SHARDS: usize = 8;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: Cell<Option<usize>> = const { Cell::new(None) };
}

fn shard() -> usize {
    SHARD.with(|s| {
        s.get().unwrap_or_else(|| {
            let i = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(Some(i));
            i
        })
    })
}

/// A [`BlockSource`] that forwards every call to `inner` and records the
/// store-side work: block reads as spans (busy time summed across worker
/// threads), group enumeration as spans, and index lookups as counts.
///
/// It forwards `distinct_group_tuples` rather than inheriting the default
/// implementation, so a source's memoized enumeration (the segment reader)
/// stays in effect under tracing.
pub struct TimedSource<'a> {
    inner: &'a dyn BlockSource,
    origin: Instant,
    reads: [Mutex<Vec<(u64, u64)>>; SHARDS],
    enumerations: Mutex<Vec<(u64, u64)>>,
    read_rows: AtomicU64,
    index_lookups: AtomicU64,
}

impl<'a> TimedSource<'a> {
    /// Wraps `inner`; span times count from now.
    pub fn new(inner: &'a dyn BlockSource) -> Self {
        Self {
            inner,
            origin: Instant::now(),
            reads: Default::default(),
            enumerations: Mutex::default(),
            read_rows: AtomicU64::new(0),
            index_lookups: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the wrapper was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn record_read<'s>(
        &'s self,
        start: u64,
        block: StoreResult<BlockRef<'s>>,
    ) -> StoreResult<BlockRef<'s>> {
        let end = self.now_ns();
        if let Ok(b) = &block {
            self.read_rows.fetch_add(b.len() as u64, Ordering::Relaxed);
        }
        self.reads[shard()]
            .lock()
            .expect("span buffers are never poisoned: pushes cannot panic")
            .push((start, end));
        block
    }

    /// Accounts the query span `[start, end]` into store and engine time and
    /// consumes the recorded spans.
    pub fn account(self, start: u64, end: u64) -> StoreAccount {
        let mut reads: Vec<(u64, u64)> = self
            .reads
            .into_iter()
            .flat_map(|m| m.into_inner().expect("span buffers are never poisoned"))
            .collect();
        let enumerations = self
            .enumerations
            .into_inner()
            .expect("span buffers are never poisoned");
        let read_busy_ns = reads.iter().map(|(s, e)| e - s).sum();
        let enumerate_ns = enumerations.iter().map(|(s, e)| e - s).sum();
        let read_calls = reads.len() as u64;
        let enumerate_calls = enumerations.len() as u64;
        let mut children = enumerations;
        children.append(&mut reads);
        let outside = children
            .iter()
            .filter(|&&(s, e)| s < start || e > end)
            .count();
        StoreAccount {
            span_ns: end - start,
            store_covered_ns: covered_ns(&mut children),
            outside_children: outside,
            read_calls,
            read_busy_ns,
            read_rows: self.read_rows.into_inner(),
            enumerate_calls,
            enumerate_ns,
            index_lookups: self.index_lookups.into_inner(),
        }
    }
}

/// Length of the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// One query span split into the store time its child spans cover and the
/// engine's own time, with the store-side counts behind it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreAccount {
    /// The query span: the `execute_progressive` call.
    pub span_ns: u64,
    /// The part of the span covered by at least one store span.
    pub store_covered_ns: u64,
    /// Store spans that fall outside the query span (must be 0).
    pub outside_children: usize,
    /// Block reads.
    pub read_calls: u64,
    /// Time inside block reads, summed across threads.
    pub read_busy_ns: u64,
    /// Rows of the blocks read.
    pub read_rows: u64,
    /// Group enumerations.
    pub enumerate_calls: u64,
    /// Time inside group enumeration.
    pub enumerate_ns: u64,
    /// Bitmap-index and zone-map lookups.
    pub index_lookups: u64,
}

impl StoreAccount {
    /// The engine's self time: the span minus the part store spans cover.
    pub fn engine_self_ns(&self) -> u64 {
        self.span_ns.saturating_sub(self.store_covered_ns)
    }

    /// Whether store time plus engine self time accounts for the span: every
    /// store span lies inside it, so their union fits in it, and the union
    /// is no longer than the store's summed busy time.
    ///
    /// # Errors
    ///
    /// What does not add up.
    pub fn check(&self) -> Result<(), String> {
        if self.outside_children > 0 {
            return Err(format!(
                "{} store spans lie outside their query span",
                self.outside_children
            ));
        }
        if self.store_covered_ns > self.span_ns
            || self.store_covered_ns > self.read_busy_ns + self.enumerate_ns
        {
            return Err(format!("store and engine time do not add up: {self:?}"));
        }
        Ok(())
    }
}

impl BlockSource for TimedSource<'_> {
    fn schema(&self) -> &Table {
        self.inner.schema()
    }

    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }

    fn layout(&self) -> &BlockLayout {
        self.inner.layout()
    }

    fn catalog(&self) -> &Catalog {
        self.inner.catalog()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn bitmap_index(&self, column: &str) -> Option<&BlockBitmapIndex> {
        self.index_lookups.fetch_add(1, Ordering::Relaxed);
        self.inner.bitmap_index(column)
    }

    fn zone_map(&self, column: &str) -> Option<&ZoneMap> {
        self.index_lookups.fetch_add(1, Ordering::Relaxed);
        self.inner.zone_map(column)
    }

    fn read_block(&self, block: BlockId) -> StoreResult<BlockRef<'_>> {
        let start = self.now_ns();
        self.record_read(start, self.inner.read_block(block))
    }

    fn read_block_projected(
        &self,
        block: BlockId,
        projection: Option<&[usize]>,
    ) -> StoreResult<BlockRef<'_>> {
        let start = self.now_ns();
        self.record_read(start, self.inner.read_block_projected(block, projection))
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn block_rows(&self, block: BlockId) -> std::ops::Range<usize> {
        self.inner.block_rows(block)
    }

    fn distinct_group_tuples(&self, columns: &[usize]) -> StoreResult<Vec<Vec<u32>>> {
        let start = self.now_ns();
        let tuples = self.inner.distinct_group_tuples(columns);
        let end = self.now_ns();
        self.enumerations
            .lock()
            .expect("span buffers are never poisoned: pushes cannot panic")
            .push((start, end));
        tuples
    }
}

/// Core-layer cost of one query's sampling schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayCost {
    /// Time in `observe_batch`.
    pub observe: Duration,
    /// Time in `interval`.
    pub interval: Duration,
}

/// Replays per-round, per-group sample counts through the core bounders.
///
/// The core layer is not reachable from outside the engine, so the traced
/// run feeds each query's schedule — how many samples each group gained in
/// each round, read off its snapshots — through a fresh estimator per
/// group, with values drawn cyclically from real rows of the target column.
#[derive(Debug, Clone)]
pub struct Replay {
    values: Vec<f64>,
    range: (f64, f64),
    rows: u64,
}

impl Replay {
    /// Values of the replay pool.
    const POOL: usize = 1 << 16;

    /// A replay drawing values of `column` from the first blocks of
    /// `source`, with the column's catalog range.
    ///
    /// # Errors
    ///
    /// Store errors reading the blocks or resolving the column.
    pub fn from_source(source: &dyn BlockSource, column: &str) -> StoreResult<Self> {
        let index = source.schema().column_index(column)?;
        let mut values = Vec::with_capacity(Self::POOL);
        for block in 0..source.num_blocks() {
            let block = source.read_block(BlockId(block))?;
            let col = block.table().column_at(index);
            values.extend(block.rows().filter_map(|r| col.numeric_value(r)));
            if values.len() >= Self::POOL {
                break;
            }
        }
        assert!(!values.is_empty(), "the target column has values");
        Ok(Self {
            values,
            range: source.catalog().range_bounds(column)?,
            rows: source.num_rows() as u64,
        })
    }

    /// Times `kind`'s estimators over the schedule of `snapshots`, with the
    /// OptStop δ decay of a query whose budget `delta` is split evenly across
    /// its groups.
    pub fn run(&self, kind: BounderKind, snapshots: &[Snapshot], delta: f64) -> ReplayCost {
        let groups = snapshots.iter().map(|s| s.groups.len()).min().unwrap_or(0);
        let mut estimators: Vec<_> = (0..groups).map(|_| kind.make_estimator()).collect();
        let mut seen = vec![0u64; groups];
        let mut cursor = 0usize;
        let mut batch = Vec::new();
        let mut cost = ReplayCost::default();
        let budget = DeltaBudget::new(delta / groups.max(1) as f64)
            .expect("the benchmark's delta is a valid probability");
        for (round, snapshot) in snapshots.iter().enumerate() {
            for (g, estimator) in estimators.iter_mut().enumerate() {
                let samples = snapshot.groups[g].samples;
                let fresh = samples.saturating_sub(seen[g]) as usize;
                seen[g] = samples.max(seen[g]);
                if fresh == 0 {
                    continue;
                }
                batch.clear();
                batch.extend((0..fresh).map(|i| self.values[(cursor + i) % self.values.len()]));
                cursor = (cursor + fresh) % self.values.len();
                let t = Instant::now();
                estimator.observe_batch(std::hint::black_box(&batch));
                cost.observe += t.elapsed();
            }
            let ctx = BoundContext::new(
                self.range.0,
                self.range.1,
                self.rows,
                budget.optstop_round(round + 1),
            )
            .expect("catalog ranges and row counts form a valid context");
            let t = Instant::now();
            for estimator in &estimators {
                std::hint::black_box(estimator.interval(&ctx));
            }
            cost.interval += t.elapsed();
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastframe_store::column::Column;
    use fastframe_store::scramble::Scramble;

    fn scramble() -> Scramble {
        let n = 1_000;
        let table = Table::new(vec![
            Column::float("v", (0..n).map(f64::from).collect()),
            Column::categorical(
                "g",
                &(0..n).map(|i| format!("g{}", i % 4)).collect::<Vec<_>>(),
            ),
        ])
        .unwrap();
        Scramble::build_with(&table, 1, 25, 0.0).unwrap()
    }

    #[test]
    fn union_of_overlapping_spans() {
        assert_eq!(covered_ns(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(covered_ns(&mut [(0, 10), (2, 3)]), 10);
        assert_eq!(covered_ns(&mut []), 0);
    }

    #[test]
    fn the_wrapper_forwards_and_counts() {
        let inner = scramble();
        let timed = TimedSource::new(&inner);
        let start = timed.now_ns();
        assert_eq!(timed.num_rows(), 1_000);
        let g = timed.schema().column_index("g").unwrap();
        assert_eq!(
            timed.distinct_group_tuples(&[g]).unwrap(),
            inner.distinct_group_tuples(&[g]).unwrap()
        );
        assert_eq!(timed.read_block(BlockId(3)).unwrap().len(), 25);
        assert!(timed.bitmap_index("g").is_some());
        let end = timed.now_ns();
        let account = timed.account(start, end);
        assert_eq!(account.read_calls, 1);
        assert_eq!(account.read_rows, 25);
        assert_eq!(account.enumerate_calls, 1);
        assert_eq!(account.index_lookups, 1);
        assert_eq!(account.check(), Ok(()));
    }

    #[test]
    fn a_span_outside_its_query_fails_the_accounting() {
        let inner = scramble();
        let timed = TimedSource::new(&inner);
        timed.read_block(BlockId(0)).unwrap();
        let start = timed.now_ns();
        let account = timed.account(start, start + 1);
        assert!(account.check().is_err());
    }
}
