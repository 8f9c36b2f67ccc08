//! The [`BlockSource`] scan abstraction: anything that can serve scramble
//! blocks to the engine.
//!
//! The paper's engine only ever touches data at block granularity (§4.2), so
//! the entire scan path — planning, predicate evaluation, aggregation —
//! needs nothing beyond "give me block *b*" plus catalog-level metadata.
//! [`BlockSource`] captures exactly that surface, with two implementations:
//!
//! * the in-memory [`Scramble`](crate::scramble::Scramble), whose
//!   `read_block` is a zero-copy view into the permuted table, and
//! * the on-disk [`SegmentReader`](crate::persist::SegmentReader), which
//!   decodes blocks on demand so working sets larger than memory can be
//!   scanned block-by-block.
//!
//! Both expose the same layout, catalog, bitmap indexes and zone maps, so
//! the planner makes identical skip decisions and the executor produces
//! bit-identical results whichever backing the table has.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::bitmap::BlockBitmapIndex;
use crate::block::{BlockId, BlockLayout};
use crate::catalog::Catalog;
use crate::table::{StoreResult, Table};
use crate::zone::ZoneMap;

/// The decoded contents of one block, referencing either the backing
/// in-memory table (zero copy) or a table decoded on demand from disk.
#[derive(Debug)]
pub struct BlockRef<'a> {
    data: BlockData<'a>,
    rows: Range<usize>,
}

#[derive(Debug)]
enum BlockData<'a> {
    Borrowed(&'a Table),
    Owned(Table),
}

impl<'a> BlockRef<'a> {
    /// A zero-copy view of rows `rows` of a larger backing table.
    pub fn borrowed(table: &'a Table, rows: Range<usize>) -> Self {
        Self {
            data: BlockData::Borrowed(table),
            rows,
        }
    }

    /// An owned block decoded on demand; every row of `table` belongs to the
    /// block.
    pub fn owned(table: Table) -> Self {
        let rows = 0..table.num_rows();
        Self {
            data: BlockData::Owned(table),
            rows,
        }
    }

    /// The table holding the block's rows. Columns appear in the same order
    /// and with the same dictionaries as the source's
    /// [`schema`](BlockSource::schema), so expressions and predicates bound
    /// against the schema evaluate directly against this table.
    pub fn table(&self) -> &Table {
        match &self.data {
            BlockData::Borrowed(t) => t,
            BlockData::Owned(t) => t,
        }
    }

    /// The row indices of [`Self::table`] that belong to this block.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Number of rows in the block.
    pub fn len(&self) -> usize {
        self.rows.end - self.rows.start
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// A source of scramble blocks: the engine's entire view of a table.
///
/// Implementations must be cheap to query for metadata (layout, catalog,
/// indexes — all resident) and may be lazy about the data itself:
/// [`Self::read_block`] is the only operation that touches row storage.
///
/// `Sync` is required because the partitioned scan pipeline shares one
/// source across its worker threads.
pub trait BlockSource: Sync {
    /// The schema table: column names, types and dictionaries, in the exact
    /// order and encoding of every [`BlockRef::table`]. For in-memory
    /// sources this is the full data table; lazy sources return a zero-row
    /// table. Use it for *binding* (name → index resolution, dictionary
    /// lookups), never for row access — row counts must come from
    /// [`Self::num_rows`].
    fn schema(&self) -> &Table;

    /// Total number of rows.
    fn num_rows(&self) -> usize;

    /// The block layout (row ↔ block mapping).
    fn layout(&self) -> &BlockLayout;

    /// Catalog of the *original* (pre-permutation) table.
    fn catalog(&self) -> &Catalog;

    /// The seed of the scramble permutation (recorded for reproducibility).
    fn seed(&self) -> u64;

    /// Block bitmap index over a categorical column, if one exists.
    fn bitmap_index(&self, column: &str) -> Option<&BlockBitmapIndex>;

    /// Zone map over a numeric column, if one exists.
    fn zone_map(&self, column: &str) -> Option<&ZoneMap>;

    /// Reads one block.
    ///
    /// # Errors
    ///
    /// In-memory sources never fail; lazy sources report I/O errors and
    /// chunk-level corruption detected on decode.
    fn read_block(&self, block: BlockId) -> StoreResult<BlockRef<'_>>;

    /// Reads one block, decoding only the given columns (projection
    /// pushdown).
    ///
    /// `projection` lists the column indexes the caller will touch; `None`
    /// means all of them. The returned block's table keeps every column at
    /// its schema *position* — so indexes bound against
    /// [`Self::schema`] stay valid — but columns outside the projection may
    /// be zero-row placeholders. Callers must not read rows of
    /// out-of-projection columns.
    ///
    /// The default implementation ignores the projection and delegates to
    /// [`Self::read_block`], which is the right answer for in-memory
    /// sources (their blocks are zero-copy views, so there is nothing to
    /// skip); lazy sources override it to decode — and checksum — only the
    /// chunks a query references (see
    /// [`SegmentReader`](crate::persist::SegmentReader)). The flip side:
    /// corruption confined to an out-of-projection chunk goes *undetected*
    /// by a projected read that a full [`Self::read_block`] would have
    /// failed on.
    ///
    /// # Errors
    ///
    /// Same as [`Self::read_block`].
    fn read_block_projected(
        &self,
        block: BlockId,
        projection: Option<&[usize]>,
    ) -> StoreResult<BlockRef<'_>> {
        let _ = projection;
        self.read_block(block)
    }

    /// Total number of blocks.
    fn num_blocks(&self) -> usize {
        self.layout().num_blocks()
    }

    /// The row range of one block.
    fn block_rows(&self, block: BlockId) -> Range<usize> {
        self.layout().rows_of(block)
    }

    /// The distinct dictionary-code tuples of the given columns, in
    /// **first-appearance order** over storage (block 0, row 0 onward).
    /// Non-categorical columns contribute `u32::MAX`. The engine derives
    /// its per-group aggregate views from this, so the order is part of the
    /// bit-identical-results contract between backings.
    ///
    /// Enumeration is lazy and costs at most one O(rows) pass with no
    /// per-row allocation (the kernel packs each row's codes into one `u64`
    /// key); the pass ends early once every possible tuple has appeared.
    /// Both built-in backings memoize the result per column list, so only
    /// the first grouped query of each GROUP BY shape pays the pass; this
    /// default does not memoize.
    ///
    /// # Errors
    ///
    /// Whatever [`Self::read_block_projected`] reports.
    fn distinct_group_tuples(&self, columns: &[usize]) -> StoreResult<Vec<Vec<u32>>> {
        let blocks =
            (0..self.num_blocks()).map(|b| self.read_block_projected(BlockId(b), Some(columns)));
        distinct_tuples(self.schema(), columns, blocks)
    }
}

/// Above this many possible code tuples (the product of the columns'
/// dictionary sizes), the group-universe kernel marks seen tuples in a hash
/// set instead of a dense bitmap, so the bitmap never exceeds 2 MiB.
const DENSE_TUPLE_LIMIT: u64 = 1 << 24;

/// The tuples [`distinct_tuples`] has seen: a bitmap of packed keys, or a
/// set of the tuples themselves.
enum Seen {
    Dense(Vec<u64>),
    Hashed(HashSet<Box<[u32]>>),
}

/// The group-universe kernel: the distinct code tuples of `columns`
/// (indexes into `schema`) over `blocks`, in first-appearance order.
///
/// `blocks` must come in storage order; a resident table may come as one
/// block. Each row's codes, read from the raw code slices, are packed into a
/// mixed-radix `u64` key (radix = dictionary length; a non-categorical
/// column contributes the constant `u32::MAX`, radix 1), and a row is new if
/// its key is unmarked in a dense bitmap. Above [`DENSE_TUPLE_LIMIT`]
/// possible tuples, or once a code lies outside its dictionary (so its key
/// could collide), the tuples go into a hash set instead. Only new tuples
/// allocate.
///
/// On the bitmap path the pass stops as soon as every possible tuple has
/// appeared: blocks share the schema's dictionaries (see
/// [`BlockRef::table`]), so later rows cannot add one. The result is the
/// same as a full pass. When every combination of dictionary entries
/// occurs — always for one column whose dictionary was built from the
/// data — only the rows up to the last new tuple are read.
///
/// # Errors
///
/// The first error `blocks` yields.
pub(crate) fn distinct_tuples<'a>(
    schema: &Table,
    columns: &[usize],
    blocks: impl IntoIterator<Item = StoreResult<BlockRef<'a>>>,
) -> StoreResult<Vec<Vec<u32>>> {
    let radix = |ci: usize| schema.column_at(ci).cardinality().map_or(1, |n| n.max(1));
    let radices: Vec<u64> = columns.iter().map(|&ci| radix(ci) as u64).collect();
    let possible = radices.iter().try_fold(1u64, |n, &r| n.checked_mul(r));
    let mut seen = match possible {
        Some(n) if n <= DENSE_TUPLE_LIMIT => Seen::Dense(vec![0; n.div_ceil(64) as usize]),
        _ => Seen::Hashed(HashSet::new()),
    };
    let (mut tuple, mut tuples) = (vec![0u32; columns.len()], Vec::<Vec<u32>>::new());
    for block in blocks {
        let block = block?;
        let codes: Vec<Option<&[u32]>> = columns
            .iter()
            .map(|&ci| block.table().column_at(ci).category_codes())
            .collect();
        for row in block.rows() {
            let (mut key, mut packed) = (0u64, true);
            for ((slot, codes), &radix) in tuple.iter_mut().zip(&codes).zip(&radices) {
                *slot = codes.map_or(u32::MAX, |c| c[row]);
                let digit = codes.map_or(0, |_| u64::from(*slot));
                packed &= digit < radix;
                key = key.wrapping_mul(radix).wrapping_add(digit);
            }
            if !packed && matches!(seen, Seen::Dense(_)) {
                seen = Seen::Hashed(tuples.iter().map(|t| t.as_slice().into()).collect());
            }
            let new = match &mut seen {
                Seen::Dense(bits) => {
                    // New if the bit was clear before it is set.
                    let (word, bit) = (&mut bits[(key / 64) as usize], 1u64 << (key % 64));
                    std::mem::replace(word, *word | bit) & bit == 0
                }
                Seen::Hashed(set) => !set.contains(&tuple[..]) && set.insert(tuple.clone().into()),
            };
            if new {
                tuples.push(tuple.clone());
                let saturated = possible == Some(tuples.len() as u64);
                if saturated && matches!(seen, Seen::Dense(_)) {
                    return Ok(tuples);
                }
            }
        }
    }
    Ok(tuples)
}

/// Memoized [`BlockSource::distinct_group_tuples`] results, by column list.
///
/// An entry is a pure function of the stored data, so it never goes stale
/// and clones of a source share one memo.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupUniverseMemo(Arc<Mutex<Universes>>);
type Universes = HashMap<Vec<usize>, Vec<Vec<u32>>>;

impl GroupUniverseMemo {
    /// The memoized tuples for `columns`; on a miss, computed by `enumerate`
    /// (without holding the lock) and stored.
    ///
    /// # Errors
    ///
    /// Whatever `enumerate` reports; a failed enumeration is not stored.
    pub(crate) fn get_or_enumerate(
        &self,
        columns: &[usize],
        enumerate: impl FnOnce() -> StoreResult<Vec<Vec<u32>>>,
    ) -> StoreResult<Vec<Vec<u32>>> {
        if let Some(tuples) = self.entries().get(columns) {
            return Ok(tuples.clone());
        }
        let tuples = enumerate()?;
        self.entries().insert(columns.to_vec(), tuples.clone());
        Ok(tuples)
    }

    /// Locks the entries, recovering a poisoned lock: entries are inserted
    /// whole, so a panic elsewhere cannot leave a half-written one.
    fn entries(&self) -> MutexGuard<'_, Universes> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn borrowed_block_ref_windows_the_backing_table() {
        let t = Table::new(vec![Column::float("x", vec![1.0, 2.0, 3.0, 4.0])]).unwrap();
        let b = BlockRef::borrowed(&t, 2..4);
        assert_eq!(b.rows(), 2..4);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.table().column("x").unwrap().numeric_value(2), Some(3.0));
    }

    #[test]
    fn owned_block_ref_covers_all_rows() {
        let t = Table::new(vec![Column::float("x", vec![1.0, 2.0])]).unwrap();
        let b = BlockRef::owned(t);
        assert_eq!(b.rows(), 0..2);
        let empty = BlockRef::owned(Table::new(vec![]).unwrap());
        assert!(empty.is_empty());
    }

    use crate::scramble::Scramble;

    /// The per-row `Vec` loop the kernel replaced, kept as its reference:
    /// allocate and hash every row's tuple, emit it on first insert.
    fn reference(source: &dyn BlockSource, columns: &[usize]) -> Vec<Vec<u32>> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for block in 0..source.num_blocks() {
            let block = source.read_block(BlockId(block)).unwrap();
            for row in block.rows() {
                let codes: Vec<u32> = columns
                    .iter()
                    .map(|&ci| {
                        block
                            .table()
                            .column_at(ci)
                            .category_code(row)
                            .unwrap_or(u32::MAX)
                    })
                    .collect();
                if seen.insert(codes.clone()) {
                    out.push(codes);
                }
            }
        }
        out
    }

    /// The kernel fed one block at a time, as a segment reader feeds it.
    fn per_block(source: &dyn BlockSource, columns: &[usize]) -> Vec<Vec<u32>> {
        let blocks = (0..source.num_blocks()).map(|b| source.read_block(BlockId(b)));
        distinct_tuples(source.schema(), columns, blocks).unwrap()
    }

    /// A categorical column of `rows` pseudo-random codes over a
    /// `cardinality`-entry dictionary (every entry present in the
    /// dictionary, not necessarily in the data). Codes repeat every
    /// `period` rows, so tuples of such columns repeat too.
    fn codes_column(name: &str, rows: usize, cardinality: usize, salt: u64, period: u64) -> Column {
        let dictionary: Vec<String> = (0..cardinality).map(|i| format!("{name}{i}")).collect();
        let codes = (0..rows as u64)
            .map(|i| i % period)
            .map(|i| ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt) >> 17) % cardinality as u64)
            .map(|c| c as u32)
            .collect();
        Column::categorical_from_codes(name, std::sync::Arc::new(dictionary), codes)
    }

    fn assert_kernel_matches_reference(table: &Table, block_size: usize, columns: &[usize]) {
        let scramble = Scramble::build_with(table, 5, block_size, 0.0).unwrap();
        let expected = reference(&scramble, columns);
        assert_eq!(
            per_block(&scramble, columns),
            expected,
            "{columns:?} per block"
        );
        let whole = scramble.distinct_group_tuples(columns).unwrap();
        assert_eq!(whole, expected, "{columns:?} whole table");
        assert_eq!(
            scramble.distinct_group_tuples(columns).unwrap(),
            expected,
            "memo hit"
        );
    }

    #[test]
    fn kernel_matches_the_reference_on_the_dense_path() {
        let rows = 1_000;
        let table = Table::new(vec![
            codes_column("a", rows, 3, 1, 1_000),
            codes_column("b", rows, 5, 2, 1_000),
            codes_column("c", rows, 7, 3, 1_000),
            Column::float("x", (0..rows).map(|i| i as f64).collect()),
        ])
        .unwrap();
        // Single-row blocks, and 7-row blocks with a final partial block.
        for block_size in [1, 7, 25, rows] {
            for columns in [&[0][..], &[0, 1], &[2, 0, 1], &[3], &[1, 3, 0]] {
                assert_kernel_matches_reference(&table, block_size, columns);
            }
        }
        // The numeric column contributes a constant `u32::MAX`.
        let scramble = Scramble::build_with(&table, 5, 25, 0.0).unwrap();
        assert_eq!(
            scramble.distinct_group_tuples(&[3]).unwrap(),
            vec![vec![u32::MAX]]
        );
        assert_eq!(
            scramble.distinct_group_tuples(&[0, 1, 2]).unwrap().len(),
            105
        );
    }

    #[test]
    fn kernel_matches_the_reference_above_the_dense_limit() {
        let rows = 2_000;
        // 5_000² possible tuples: the tuple hash set. Every column repeats
        // after 300 rows, so the set must also recognise tuples it has
        // already seen.
        let table = Table::new(vec![
            codes_column("a", rows, 5_000, 4, 300),
            codes_column("b", rows, 5_000, 5, 300),
        ])
        .unwrap();
        const { assert!(5_000u64 * 5_000 > DENSE_TUPLE_LIMIT) };
        for block_size in [1, 33] {
            assert_kernel_matches_reference(&table, block_size, &[0, 1]);
            assert_kernel_matches_reference(&table, block_size, &[1]);
        }
    }

    #[test]
    fn codes_outside_the_dictionary_fall_back_to_the_tuple_set() {
        // The schema's dictionaries have 3 and 5 entries, but the block
        // holds larger codes: packed, (0, 7) would collide with (1, 2).
        let schema = Table::new(vec![
            codes_column("a", 0, 3, 0, 1),
            codes_column("b", 0, 5, 0, 1),
        ])
        .unwrap();
        let dictionary = std::sync::Arc::new((0..8).map(|i| i.to_string()).collect::<Vec<_>>());
        let column = |name, codes: &[u32]| {
            Column::categorical_from_codes(name, dictionary.clone(), codes.to_vec())
        };
        let block = Table::new(vec![
            column("a", &[1, 0, 1, 0, 2, 0]),
            column("b", &[2, 7, 2, 7, 4, 7]),
        ])
        .unwrap();
        let blocks = [Ok(BlockRef::borrowed(&block, 0..6))];
        assert_eq!(
            distinct_tuples(&schema, &[0, 1], blocks).unwrap(),
            [[1, 2], [0, 7], [2, 4]]
        );
    }

    #[test]
    fn kernel_handles_empty_input_and_propagates_errors() {
        let table = Table::new(vec![codes_column("a", 10, 3, 1, 10)]).unwrap();
        assert!(distinct_tuples(&table, &[0], []).unwrap().is_empty());
        // One row holds one of the three possible tuples, so the pass goes
        // on to the failing block.
        let failing = [
            Ok(BlockRef::borrowed(&table, 0..1)),
            Err(crate::table::StoreError::corrupt("seg", "bad chunk")),
        ];
        assert!(distinct_tuples(&table, &[0], failing).is_err());
    }

    #[test]
    fn kernel_stops_once_every_possible_tuple_has_appeared() {
        let dictionary = |n: u32| std::sync::Arc::new((0..n).map(|i| i.to_string()).collect());
        let table = Table::new(vec![
            Column::categorical_from_codes("a", dictionary(2), vec![1, 1, 0, 0, 1, 0, 1]),
            Column::categorical_from_codes("b", dictionary(3), vec![2, 2, 0, 1, 1, 2, 0]),
        ])
        .unwrap();
        // Rows 0..5 hold all three `b` values; the block after them is
        // never pulled, so its error does not surface.
        let blocks = || {
            [
                Ok(BlockRef::borrowed(&table, 0..2)),
                Ok(BlockRef::borrowed(&table, 2..5)),
                Err(crate::table::StoreError::corrupt("seg", "bad chunk")),
            ]
        };
        assert_eq!(
            distinct_tuples(&table, &[1], blocks()).unwrap(),
            [[2], [0], [1]]
        );
        // Four of the six `(a, b)` pairs occur in those rows: the pass
        // reads on and meets the error.
        assert!(distinct_tuples(&table, &[0, 1], blocks()).is_err());
        // The sixth pair appears in the last row.
        let whole = [
            Ok(BlockRef::borrowed(&table, 0..7)),
            Err(crate::table::StoreError::corrupt("seg", "bad chunk")),
        ];
        assert_eq!(
            distinct_tuples(&table, &[0, 1], whole).unwrap(),
            [[1, 2], [0, 0], [0, 1], [1, 1], [0, 2], [1, 0]]
        );
    }

    #[test]
    fn memo_enumerates_once_per_column_list_and_clones_share_it() {
        let memo = GroupUniverseMemo::default();
        let calls = std::cell::Cell::new(0);
        let enumerate = |tuples: Vec<Vec<u32>>| {
            calls.set(calls.get() + 1);
            Ok(tuples)
        };
        assert_eq!(
            memo.get_or_enumerate(&[0], || enumerate(vec![vec![1]]))
                .unwrap(),
            [[1]]
        );
        assert_eq!(
            memo.get_or_enumerate(&[0], || enumerate(vec![vec![9]]))
                .unwrap(),
            [[1]]
        );
        let clone = memo.clone();
        assert_eq!(
            clone
                .get_or_enumerate(&[0], || enumerate(vec![vec![9]]))
                .unwrap(),
            [[1]]
        );
        assert_eq!(
            memo.get_or_enumerate(&[0, 1], || enumerate(vec![vec![1, 2]]))
                .unwrap(),
            [[1, 2]]
        );
        assert_eq!(calls.get(), 2);
        // A failed enumeration is reported and not stored.
        let failed = memo.get_or_enumerate(&[2], || Err(crate::table::StoreError::EmptyTable));
        assert!(failed.is_err());
        assert_eq!(
            memo.get_or_enumerate(&[2], || enumerate(vec![vec![3]]))
                .unwrap(),
            [[3]]
        );
    }

    #[test]
    fn a_poisoned_memo_lock_is_recovered_not_a_panic() {
        let memo = GroupUniverseMemo::default();
        memo.get_or_enumerate(&[0], || Ok(vec![vec![1]])).unwrap();
        let poisoner = memo.clone();
        let outcome = std::thread::spawn(move || {
            let _guard = poisoner.0.lock().unwrap();
            panic!("poisoning the memo lock on purpose");
        })
        .join();
        assert!(outcome.is_err());
        assert!(memo.0.is_poisoned());
        let hit = memo.get_or_enumerate(&[0], || unreachable!("memo hit expected"));
        assert_eq!(hit.unwrap(), [[1]]);
        assert_eq!(
            memo.get_or_enumerate(&[1], || Ok(vec![vec![2]])).unwrap(),
            [[2]]
        );
    }
}
