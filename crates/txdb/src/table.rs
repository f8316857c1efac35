//! Row storage for a single table, with primary-key and secondary indexes.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

use crate::error::{Result, TxdbError};
use crate::index::RangeIndex;
use crate::predicate::Predicate;
use crate::row::{Row, RowId};
use crate::schema::TableSchema;
use crate::txn::{Snapshot, LIVE_TXN};
use crate::value::Value;

/// Version stamp of a row slot's *newest* version. A slot without a
/// stamp is pristine: committed before every snapshot, visible to all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    /// Transaction that wrote this version (0 = pristine/pre-MVCC).
    pub begin: u64,
    /// Transaction that deleted or superseded it ([`LIVE_TXN`] = live).
    pub end: u64,
}

/// One superseded version of a row. Its end stamp is implicit: the
/// `begin` of its successor in the chain (or of the current version).
#[derive(Debug, Clone)]
struct OldVersion {
    begin: u64,
    row: Row,
}

/// One table: schema + rows + indexes.
///
/// All mutations bump a `version` counter; readers (notably the policy's
/// statistics cache) use it to detect staleness cheaply.
///
/// # MVCC layout
///
/// `rows` always holds the *newest* version of each slot. Slots touched
/// by in-flight (or not-yet-vacuumed) transactions additionally carry a
/// begin/end stamp in `stamps` and superseded versions in `older` — newest
/// last, each version's end being its successor's begin. A slot with no
/// stamp is visible to every snapshot, so a fully vacuumed table
/// ([`Table::mvcc_clean`]) reads exactly like the pre-MVCC storage with
/// zero per-row overhead. Indexes (hash, range, PK) are maintained on
/// the *union* of all versions' keys; readers resolve visibility at
/// fetch time, so bucket maintenance is unchanged and an index fetch on
/// a dirty table is a superset that must be re-verified against the
/// visible version.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: BTreeMap<RowId, Row>,
    next_row_id: u64,
    version: u64,
    /// Mutations attributable to *committed* work (direct writes and
    /// committed transactions; never rolled-back ones). The statistics
    /// cache keys its staleness bound off this counter so an aborted
    /// transaction doesn't burn the recompute budget.
    committed_version: u64,
    /// Version stamps for slots with MVCC state (absent = pristine).
    stamps: HashMap<RowId, Stamp>,
    /// Superseded version chains, oldest first (absent = no history).
    older: HashMap<RowId, Vec<OldVersion>>,
    /// Composite-PK index (empty map when the table has no declared PK).
    pk_index: HashMap<Vec<Value>, RowId>,
    /// Secondary hash indexes: column name -> value -> row ids.
    indexes: HashMap<String, HashMap<Value, Vec<RowId>>>,
    /// Ordered indexes for range predicates: column name -> B-tree index.
    range_indexes: HashMap<String, RangeIndex>,
}

/// The partition a join key falls into under a `partitions`-way
/// partitioned hash build. Both sides of a join route through this one
/// function, so a key's build rows and its probes always meet in the
/// same partition. Uses [`Value`]'s canonical hash (integral floats
/// collapse onto their integer value), matching the cross-type equality
/// the join maps key on. Deterministic within a process, which is all
/// the executor needs — partition assignment never escapes a query.
pub fn join_key_partition(value: &Value, partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    (h.finish() % partitions.max(1) as u64) as usize
}

/// Insert `rid` into an ascending hash-index bucket, keeping it sorted.
/// RowIds are allocated monotonically, so regular inserts hit the O(1)
/// append fast path; only rollback re-inserts and key updates pay the
/// binary search. Sorted buckets let the join loops and index probes use
/// bucket order directly as the canonical ascending-RowId stream order.
/// Idempotent: re-inserting a present rid is a no-op, so MVCC version
/// maintenance can re-assert keys shared between versions of a row.
fn bucket_insert(bucket: &mut Vec<RowId>, rid: RowId) {
    match bucket.last() {
        Some(&last) if last >= rid => {
            if let Err(pos) = bucket.binary_search(&rid) {
                bucket.insert(pos, rid);
            }
        }
        _ => bucket.push(rid),
    }
}

/// Add `rid` to `value`'s hash-index bucket, cloning the key only when
/// it opens a new bucket. NULLs are never indexed.
fn index_insert(map: &mut HashMap<Value, Vec<RowId>>, value: &Value, rid: RowId) {
    if value.is_null() {
        return;
    }
    match map.get_mut(value) {
        Some(bucket) => bucket_insert(bucket, rid),
        None => {
            map.insert(value.clone(), vec![rid]);
        }
    }
}

/// Remove `rid` from `value`'s hash-index bucket, dropping the bucket
/// when it empties. Buckets are ascending and duplicate-free, so one
/// binary search finds the entry.
fn index_remove(map: &mut HashMap<Value, Vec<RowId>>, value: &Value, rid: RowId) {
    if value.is_null() {
        return;
    }
    if let Some(ids) = map.get_mut(value) {
        if let Ok(pos) = ids.binary_search(&rid) {
            ids.remove(pos);
        }
        if ids.is_empty() {
            map.remove(value);
        }
    }
}

/// One column's rows grouped by borrowed value during an index build:
/// each distinct value gets a dense group number, and each non-null row
/// is recorded with its group in scan (ascending RowId) order. Deciding
/// whether to keep the column needs only the two counts, and a rejected
/// column never allocates a bucket.
#[derive(Default)]
struct Grouping<'t> {
    groups: HashMap<&'t Value, usize>,
    members: Vec<(RowId, usize)>,
}

impl<'t> Grouping<'t> {
    fn add(&mut self, value: &'t Value, rid: RowId) {
        let next = self.groups.len();
        let group = *self.groups.entry(value).or_insert(next);
        self.members.push((rid, group));
    }

    /// The index: one exactly sized, ascending bucket per value, keyed
    /// by a clone of the value.
    fn into_buckets(self) -> HashMap<Value, Vec<RowId>> {
        let mut sizes = vec![0usize; self.groups.len()];
        for &(_, group) in &self.members {
            sizes[group] += 1;
        }
        let mut buckets: Vec<Vec<RowId>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (rid, group) in self.members {
            buckets[group].push(rid);
        }
        self.groups
            .into_iter()
            .map(|(v, group)| (v.clone(), std::mem::take(&mut buckets[group])))
            .collect()
    }
}

/// Primary-key tuple of `row` under `schema` (empty if no declared PK).
/// A free function so cell writers can read it while holding the row
/// mutably.
fn pk_tuple(schema: &TableSchema, row: &Row) -> Vec<Value> {
    schema
        .primary_key()
        .iter()
        .map(|c| {
            let idx = schema.column_index(c).expect("validated schema");
            row.get(idx).cloned().unwrap_or(Value::Null)
        })
        .collect()
}

impl Table {
    /// Create an empty table. Secondary indexes are automatically created
    /// for every primary-key, unique and foreign-key column.
    pub fn new(schema: TableSchema) -> Result<Table> {
        schema.validate()?;
        let mut auto_indexed: Vec<String> = Vec::new();
        for pk in schema.primary_key() {
            auto_indexed.push(pk.clone());
        }
        for c in schema.columns() {
            if c.unique && !auto_indexed.contains(&c.name) {
                auto_indexed.push(c.name.clone());
            }
        }
        for fk in schema.foreign_keys() {
            if !auto_indexed.contains(&fk.column) {
                auto_indexed.push(fk.column.clone());
            }
        }
        let mut t = Table {
            schema,
            rows: BTreeMap::new(),
            next_row_id: 1,
            version: 0,
            committed_version: 0,
            stamps: HashMap::new(),
            older: HashMap::new(),
            pk_index: HashMap::new(),
            indexes: HashMap::new(),
            range_indexes: HashMap::new(),
        };
        for col in auto_indexed {
            t.indexes.insert(col, HashMap::new());
        }
        Ok(t)
    }

    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Mutable access to the schema, for applying annotations after the
    /// fact. Does not affect stored data.
    pub fn schema_mut(&mut self) -> &mut TableSchema {
        &mut self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Monotonically increasing mutation counter.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Mutation counter restricted to committed work: direct writes and
    /// committed transactions bump it; transactional writes that later
    /// roll back do not. The statistics cache bounds its staleness on
    /// this counter.
    pub fn committed_version(&self) -> u64 {
        self.committed_version
    }

    /// Credit `n` committed mutations (called once per table at commit
    /// with the transaction's write count).
    pub(crate) fn bump_committed(&mut self, n: u64) {
        self.committed_version += n;
    }

    /// Whether the table carries no MVCC state: every slot is a single
    /// committed version visible to all snapshots. Clean tables read
    /// through the exact pre-MVCC code paths.
    pub fn mvcc_clean(&self) -> bool {
        self.stamps.is_empty() && self.older.is_empty()
    }

    /// Number of version stamps plus superseded versions currently held
    /// — the garbage vacuum exists to reclaim. Zero on a
    /// fully vacuumed table.
    pub fn mvcc_versions(&self) -> usize {
        self.stamps.len() + self.older.values().map(Vec::len).sum::<usize>()
    }

    /// Row ids carrying version stamps, in ascending order. These are
    /// the only rows a snapshot scan must resolve through
    /// [`Table::visible_row`]; every unstamped slot's newest version is
    /// visible to every snapshot, so a full scan can merge-walk this
    /// (usually tiny) list against its RowId-ordered stream instead of
    /// probing the stamp map once per row.
    pub fn stamped_rids_sorted(&self) -> Vec<RowId> {
        let mut rids: Vec<RowId> = self.stamps.keys().copied().collect();
        rids.sort_unstable();
        rids
    }

    /// Resolve the version of `rid` visible to `snap`, if any: the
    /// current version when the snapshot sees its begin stamp (and not
    /// its delete stamp), else the newest chain version whose begin it
    /// sees. An unstamped slot is visible to everyone.
    pub fn visible_row(&self, rid: RowId, snap: &Snapshot) -> Option<&Row> {
        let Some(st) = self.stamps.get(&rid) else {
            return self.rows.get(&rid);
        };
        if snap.sees(st.begin) {
            return if st.end != LIVE_TXN && snap.sees(st.end) {
                None
            } else {
                self.rows.get(&rid)
            };
        }
        // Walk the chain newest-first; the first version whose begin the
        // snapshot sees is the visible one (its implicit end is the
        // successor's begin, which the snapshot just failed to see).
        self.older
            .get(&rid)?
            .iter()
            .rev()
            .find(|v| snap.sees(v.begin))
            .map(|v| &v.row)
    }

    /// Iterate the rows visible to `snap` in ascending RowId order —
    /// the MVCC counterpart of [`Table::scan`]. On a clean table this
    /// yields exactly what `scan` yields.
    pub fn scan_visible<'t>(
        &'t self,
        snap: &'t Snapshot,
    ) -> impl Iterator<Item = (RowId, &'t Row)> + 't {
        self.rows
            .keys()
            .filter_map(move |&rid| self.visible_row(rid, snap).map(|row| (rid, row)))
    }

    /// Create an additional secondary index on `column`.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        self.create_indexes(&[column], |_, _| true).map(drop)
    }

    /// Create hash indexes on several columns in one scan of the rows,
    /// keeping a column only when `keep(distinct, non_null)` accepts its
    /// count of distinct non-null values and of non-null rows. Values are
    /// grouped by reference (see `Grouping`), so each kept key is cloned
    /// once, and a rejected column clones nothing. Returns the indexed
    /// columns in argument order. An unknown column, or one already
    /// indexed or named twice, is an error and creates nothing.
    pub fn create_indexes(
        &mut self,
        columns: &[&str],
        keep: impl Fn(usize, usize) -> bool,
    ) -> Result<Vec<String>> {
        let mut positions = Vec::with_capacity(columns.len());
        for (i, &column) in columns.iter().enumerate() {
            positions.push(self.schema.require_column(column)?);
            if self.indexes.contains_key(column) || columns[..i].contains(&column) {
                return Err(TxdbError::DuplicateIndex {
                    table: self.schema.name().to_string(),
                    column: column.to_string(),
                });
            }
        }
        let mut groupings: Vec<Grouping> = columns.iter().map(|_| Grouping::default()).collect();
        for (&rid, row) in &self.rows {
            for (&idx, grouping) in positions.iter().zip(&mut groupings) {
                if let Some(v) = row.get(idx).filter(|v| !v.is_null()) {
                    grouping.add(v, rid);
                }
            }
        }
        let built: Vec<(String, HashMap<Value, Vec<RowId>>)> = columns
            .iter()
            .zip(groupings)
            .filter(|(_, g)| keep(g.groups.len(), g.members.len()))
            .map(|(column, g)| (column.to_string(), g.into_buckets()))
            .collect();
        let created = built.iter().map(|(column, _)| column.clone()).collect();
        self.indexes.extend(built);
        Ok(created)
    }

    /// Whether a secondary index exists on `column`.
    pub fn has_index(&self, column: &str) -> bool {
        self.indexes.contains_key(column)
    }

    /// Create an ordered (range) index on `column`.
    pub fn create_range_index(&mut self, column: &str) -> Result<()> {
        self.schema.require_column(column)?;
        if self.range_indexes.contains_key(column) {
            return Err(TxdbError::DuplicateIndex {
                table: self.schema.name().to_string(),
                column: column.to_string(),
            });
        }
        let idx = self.schema.column_index(column).expect("checked above");
        let mut index = RangeIndex::new();
        for (&rid, row) in &self.rows {
            index.insert(row.get(idx).cloned().unwrap_or(Value::Null), rid);
        }
        self.range_indexes.insert(column.to_string(), index);
        Ok(())
    }

    /// Whether an ordered index exists on `column`.
    pub fn has_range_index(&self, column: &str) -> bool {
        self.range_indexes.contains_key(column)
    }

    /// Row ids whose `column` value lies within the bounds, via the
    /// ordered index (falls back to a scan when no index exists).
    pub fn range_lookup(
        &self,
        column: &str,
        lo: std::ops::Bound<&Value>,
        hi: std::ops::Bound<&Value>,
    ) -> Result<Vec<RowId>> {
        if let Some(index) = self.range_indexes.get(column) {
            return Ok(index.range(lo, hi));
        }
        let idx = self.schema.require_column(column)?;
        let in_lo = |v: &Value| match lo {
            std::ops::Bound::Included(b) => v.partial_cmp(b).is_some_and(|o| o.is_ge()),
            std::ops::Bound::Excluded(b) => v.partial_cmp(b).is_some_and(|o| o.is_gt()),
            std::ops::Bound::Unbounded => true,
        };
        let in_hi = |v: &Value| match hi {
            std::ops::Bound::Included(b) => v.partial_cmp(b).is_some_and(|o| o.is_le()),
            std::ops::Bound::Excluded(b) => v.partial_cmp(b).is_some_and(|o| o.is_lt()),
            std::ops::Bound::Unbounded => true,
        };
        Ok(self
            .rows
            .iter()
            .filter(|(_, row)| {
                row.get(idx)
                    .is_some_and(|v| !v.is_null() && in_lo(v) && in_hi(v))
            })
            .map(|(&rid, _)| rid)
            .collect())
    }

    /// Validate a row against the schema (arity, types, NOT NULL) without
    /// inserting it.
    pub fn validate_row(&self, row: &Row) -> Result<()> {
        if row.arity() != self.schema.arity() {
            return Err(TxdbError::ArityMismatch {
                table: self.schema.name().to_string(),
                expected: self.schema.arity(),
                got: row.arity(),
            });
        }
        for (i, col) in self.schema.columns().iter().enumerate() {
            let v = row.get(i).expect("arity checked");
            if v.is_null() {
                if !col.nullable {
                    return Err(TxdbError::NotNullViolation {
                        table: self.schema.name().to_string(),
                        column: col.name.clone(),
                    });
                }
            } else if !v.conforms_to(col.ty) {
                return Err(TxdbError::TypeMismatch {
                    expected: col.ty,
                    got: format!("{v} ({:?})", v.data_type()),
                    context: format!("{}.{}", self.schema.name(), col.name),
                });
            }
        }
        Ok(())
    }

    /// Primary-key tuple of a row (empty if no declared PK).
    pub fn pk_of(&self, row: &Row) -> Vec<Value> {
        pk_tuple(&self.schema, row)
    }

    /// Insert a row, enforcing type, NOT NULL, PK and UNIQUE constraints.
    /// (Foreign keys are enforced one level up by the database, which can
    /// see the referenced tables.)
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        let rid = self.insert_checked(row)?;
        self.committed_version += 1;
        Ok(rid)
    }

    /// The constraint checks, row-id allocation and indexing shared by
    /// [`Table::insert`] and [`Table::mvcc_insert`], which differ only
    /// in how they account for the new version.
    fn insert_checked(&mut self, row: Row) -> Result<RowId> {
        self.validate_row(&row)?;
        let pk = self.pk_of(&row);
        if !pk.is_empty() && self.pk_index.contains_key(&pk) {
            return Err(TxdbError::DuplicateKey {
                table: self.schema.name().to_string(),
                key: format!("{pk:?}"),
            });
        }
        for (i, col) in self.schema.columns().iter().enumerate() {
            if col.unique && !self.schema.is_pk_column(&col.name) {
                let v = row.get(i).expect("arity checked");
                if !v.is_null() && !self.lookup(&col.name, v)?.is_empty() {
                    return Err(TxdbError::DuplicateKey {
                        table: self.schema.name().to_string(),
                        key: format!("{}={v}", col.name),
                    });
                }
            }
        }
        let rid = RowId(self.next_row_id);
        self.insert_physical(rid, row);
        Ok(rid)
    }

    /// Fetch a row by id.
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.rows.get(&rid)
    }

    /// Fetch a row by primary-key tuple.
    pub fn get_by_pk(&self, pk: &[Value]) -> Option<(RowId, &Row)> {
        let rid = *self.pk_index.get(pk)?;
        self.rows.get(&rid).map(|r| (rid, r))
    }

    /// Delete a row by id, returning it.
    pub fn delete(&mut self, rid: RowId) -> Result<Row> {
        let row = self
            .remove_physical(rid)
            .ok_or_else(|| TxdbError::NoSuchRow {
                table: self.schema.name().to_string(),
            })?;
        self.committed_version += 1;
        Ok(row)
    }

    /// Update one column of a row, returning the previous value.
    pub fn update(&mut self, rid: RowId, column: &str, value: Value) -> Result<Value> {
        self.validate_update(rid, column, &value)?;
        self.replay_update(rid, column, value)
    }

    /// The NOT NULL, type, presence and uniqueness checks shared by
    /// [`Table::update`] and [`Table::mvcc_update`]. Returns the column's
    /// position. Uniqueness is judged against the *other* rows.
    fn validate_update(&self, rid: RowId, column: &str, value: &Value) -> Result<usize> {
        let idx = self.schema.require_column(column)?;
        let col = &self.schema.columns()[idx];
        if value.is_null() && !col.nullable {
            return Err(TxdbError::NotNullViolation {
                table: self.schema.name().to_string(),
                column: column.to_string(),
            });
        }
        if !value.conforms_to(col.ty) {
            return Err(TxdbError::TypeMismatch {
                expected: col.ty,
                got: format!("{value}"),
                context: format!("{}.{}", self.schema.name(), column),
            });
        }
        if !self.rows.contains_key(&rid) {
            return Err(TxdbError::NoSuchRow {
                table: self.schema.name().to_string(),
            });
        }
        let pk = self.schema.primary_key();
        let is_pk = self.schema.is_pk_column(column);
        if is_pk && pk.len() > 1 {
            // A column of a composite key is judged by the whole new key.
            let row = self.rows.get(&rid).expect("presence checked");
            let mut key = pk_tuple(&self.schema, row);
            key[pk.iter().position(|c| c == column).expect("a PK column")] = value.clone();
            if let Some(&existing) = self.pk_index.get(&key).filter(|&&r| r != rid) {
                return Err(TxdbError::DuplicateKey {
                    table: self.schema.name().to_string(),
                    key: format!("{key:?} (held by {existing})"),
                });
            }
        }
        let is_unique = col.unique || (is_pk && pk.len() == 1);
        if is_unique && !value.is_null() {
            if let Some(existing) = self.lookup(column, value)?.iter().find(|&&r| r != rid) {
                return Err(TxdbError::DuplicateKey {
                    table: self.schema.name().to_string(),
                    key: format!("{column}={value} (held by {existing})"),
                });
            }
        }
        Ok(idx)
    }

    /// Exact size of the hash-index bucket for `column = value`, or
    /// `None` when no hash index exists on the column. O(1); used by the
    /// shared planner as an exact selectivity when statistics are
    /// unavailable.
    pub fn index_bucket_len(&self, column: &str, value: &Value) -> Option<usize> {
        self.indexes
            .get(column)
            .map(|map| map.get(value).map_or(0, Vec::len))
    }

    /// Borrowed hash-index bucket for `column = value` (ascending
    /// RowIds), or `None` when no hash index exists on the column. The
    /// zero-copy sibling of [`Table::lookup`] for hot join loops.
    pub fn index_bucket(&self, column: &str, value: &Value) -> Option<&[RowId]> {
        self.indexes
            .get(column)
            .map(|map| map.get(value).map_or(&[][..], Vec::as_slice))
    }

    /// Every bucket of the hash index on `column`: each distinct non-null
    /// value with its ascending RowIds, in no particular order, or `None`
    /// when no hash index exists. While the table is dirty (see
    /// [`Table::mvcc_clean`]) the buckets hold the keys of every version,
    /// so only a clean table's buckets describe its rows exactly.
    pub fn index_buckets(
        &self,
        column: &str,
    ) -> Option<impl Iterator<Item = (&Value, &[RowId])> + '_> {
        self.indexes
            .get(column)
            .map(|map| map.iter().map(|(v, ids)| (v, ids.as_slice())))
    }

    /// Number of distinct values in the hash index on `column`, or `None`
    /// when no hash index exists. O(1); used by the planner's join-size
    /// estimates as an exact statistic maintained for free.
    pub fn index_distinct(&self, column: &str) -> Option<usize> {
        self.indexes.get(column).map(HashMap::len)
    }

    /// The ordered index on `column`, when one exists — the merge-join
    /// path walks its entries in key order.
    pub fn range_index(&self, column: &str) -> Option<&RangeIndex> {
        self.range_indexes.get(column)
    }

    /// Row ids matching `column = value`, via index when available.
    /// Always in ascending RowId order: index buckets are maintained
    /// sorted (see `bucket_insert`) and the scan fallback iterates the
    /// row store in id order. A nonexistent column is an error — it used
    /// to yield an empty set, which turned a bad join column into silent
    /// empty (wrong) join output instead of a diagnosable failure.
    pub fn lookup(&self, column: &str, value: &Value) -> Result<Vec<RowId>> {
        if let Some(map) = self.indexes.get(column) {
            return Ok(map.get(value).cloned().unwrap_or_default());
        }
        let idx = self.schema.require_column(column)?;
        Ok(self
            .rows
            .iter()
            .filter(|(_, row)| row.get(idx) == Some(value))
            .map(|(&rid, _)| rid)
            .collect())
    }

    /// Build-side map for a hash join: every live row's `column` value to
    /// the ascending RowIds holding it, in one scan. NULL keys never join;
    /// NaN keys are likewise excluded (SQL join semantics: `NaN = NaN` is
    /// not a match, even though the engine's canonical [`Value`] equality
    /// — built for hashing — would collapse them). Keys borrow from the
    /// rows, so building allocates only the buckets.
    pub fn join_map(&self, column: &str) -> Result<HashMap<&Value, Vec<RowId>>> {
        let idx = self.schema.require_column(column)?;
        let mut map: HashMap<&Value, Vec<RowId>> = HashMap::new();
        for (&rid, row) in &self.rows {
            let Some(v) = row.get(idx) else { continue };
            if v.is_excluded_join_key() {
                continue;
            }
            // Scan order is ascending RowId, so buckets stay sorted.
            map.entry(v).or_default().push(rid);
        }
        Ok(map)
    }

    /// [`Table::join_map`] restricted to a pre-filtered RowId set: only
    /// the given rows (ascending, as produced by an access-path fetch)
    /// enter the build map, so a selective build-side pushdown probe
    /// shrinks the hash build from `|table|` to `|filtered|` insertions.
    /// Same key semantics as the full map: NULL and NaN keys never join.
    /// Ids not (or no longer) live are skipped — the access path only
    /// returns live ids, so this is defensive.
    pub fn join_map_filtered(
        &self,
        column: &str,
        rids: &[RowId],
    ) -> Result<HashMap<&Value, Vec<RowId>>> {
        let idx = self.schema.require_column(column)?;
        let mut map: HashMap<&Value, Vec<RowId>> = HashMap::new();
        for &rid in rids {
            let Some(row) = self.rows.get(&rid) else {
                continue;
            };
            let Some(v) = row.get(idx) else { continue };
            if v.is_excluded_join_key() {
                continue;
            }
            // `rids` is ascending, so buckets stay sorted.
            map.entry(v).or_default().push(rid);
        }
        Ok(map)
    }

    /// Partitioned build input for a budget-constrained hash join: one
    /// scan splits the build side into `partitions` ascending RowId
    /// lists by [`join_key_partition`] of the join key, except that rows
    /// whose key appears in `hot` (the plan's MCV-identified heavy
    /// hitters, a handful at most) go straight into the returned
    /// always-resident hot map instead of skewing one partition.
    /// Restricted to `rids` when a build-side pushdown supplied one
    /// (same defensive skip of dead ids as [`Table::join_map_filtered`]).
    /// Same key semantics as [`Table::join_map`]: NULL and NaN never
    /// join. Scan/`rids` order is ascending, so partition lists and hot
    /// buckets stay sorted — re-probing them preserves the executor's
    /// canonical ascending-RowId bucket contract.
    #[allow(clippy::type_complexity)]
    pub fn partition_join_rids(
        &self,
        column: &str,
        rids: Option<&[RowId]>,
        partitions: usize,
        hot: &[Value],
    ) -> Result<(Vec<Vec<RowId>>, HashMap<&Value, Vec<RowId>>)> {
        let idx = self.schema.require_column(column)?;
        let mut parts: Vec<Vec<RowId>> = vec![Vec::new(); partitions.max(1)];
        let mut hot_map: HashMap<&Value, Vec<RowId>> = HashMap::new();
        // Borrow keys from the rows like the resident maps do. The rid
        // list goes through `self.rows.get` in both arms so the borrowed
        // keys carry the table's lifetime, not the loop's.
        let owned: Vec<RowId>;
        let rids: &[RowId] = match rids {
            Some(rids) => rids,
            None => {
                owned = self.rows.keys().copied().collect();
                &owned
            }
        };
        for &rid in rids {
            let Some(v) = self.rows.get(&rid).and_then(|r| r.get(idx)) else {
                continue;
            };
            if v.is_excluded_join_key() {
                continue;
            }
            // The hot list is tiny (MCV-limited), so a linear membership
            // scan beats hashing it.
            if hot.iter().any(|h| h == v) {
                hot_map.entry(v).or_default().push(rid);
            } else {
                parts[join_key_partition(v, partitions.max(1))].push(rid);
            }
        }
        Ok((parts, hot_map))
    }

    /// Iterate all `(RowId, &Row)` pairs in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> + '_ {
        self.rows.iter().map(|(&rid, row)| (rid, row))
    }

    /// [`Table::scan`] restricted to the inclusive RowId range
    /// `lo..=hi` — one morsel of a parallel scan. Concatenating the
    /// streams of [`Table::morsel_ranges`] in range order reproduces
    /// the full scan exactly.
    pub fn scan_range(&self, lo: RowId, hi: RowId) -> impl Iterator<Item = (RowId, &Row)> + '_ {
        self.rows.range(lo..=hi).map(|(&rid, row)| (rid, row))
    }

    /// Split the table's physical slots into inclusive `(lo, hi)` RowId
    /// ranges of at most `morsel_rows` slots each, in ascending order —
    /// the morsel boundaries a parallel scan's workers claim. One walk
    /// over the keys; the ranges partition the live RowId set exactly.
    pub fn morsel_ranges(&self, morsel_rows: usize) -> Vec<(RowId, RowId)> {
        let morsel_rows = morsel_rows.max(1);
        let mut ranges = Vec::with_capacity(self.rows.len().div_ceil(morsel_rows));
        let mut start: Option<RowId> = None;
        let mut filled = 0usize;
        let mut last = RowId(0);
        for &rid in self.rows.keys() {
            if start.is_none() {
                start = Some(rid);
            }
            filled += 1;
            last = rid;
            if filled == morsel_rows {
                ranges.push((start.take().expect("range in progress"), rid));
                filled = 0;
            }
        }
        if let Some(lo) = start {
            ranges.push((lo, last));
        }
        ranges
    }

    /// [`Table::join_map`] restricted to the inclusive RowId range
    /// `lo..=hi` — one morsel of a parallel hash build. Buckets stay
    /// sorted (range order is ascending), and merging the partial maps
    /// of [`Table::morsel_ranges`] in range order by appending buckets
    /// reproduces the full build map exactly.
    pub fn join_map_range(
        &self,
        column: &str,
        lo: RowId,
        hi: RowId,
    ) -> Result<HashMap<&Value, Vec<RowId>>> {
        let idx = self.schema.require_column(column)?;
        let mut map: HashMap<&Value, Vec<RowId>> = HashMap::new();
        for (&rid, row) in self.rows.range(lo..=hi) {
            let Some(v) = row.get(idx) else { continue };
            if v.is_excluded_join_key() {
                continue;
            }
            map.entry(v).or_default().push(rid);
        }
        Ok(map)
    }

    /// Rows satisfying a predicate, in ascending RowId order.
    ///
    /// Routes through the shared cost-aware planner
    /// (`crate::sql::plan::choose_table_access`): sargable conjuncts of
    /// the predicate become index probes, priced with exact hash-bucket
    /// sizes (no statistics are available on a bare table), and multiple
    /// selective probes are intersected. The full predicate is always
    /// re-evaluated on the fetched rows, so the probes only need to be a
    /// superset of the matching set.
    pub fn select(&self, pred: &Predicate) -> Result<Vec<(RowId, &Row)>> {
        self.select_with_stats(pred, None)
    }

    /// [`Table::select`] with optional table statistics for probe pricing
    /// (the [`Database`](crate::database::Database) facade passes its
    /// cached stats, giving the typed API the same cost model as the SQL
    /// planner).
    pub fn select_with_stats(
        &self,
        pred: &Predicate,
        stats: Option<&crate::stats::TableStats>,
    ) -> Result<Vec<(RowId, &Row)>> {
        use crate::sql::plan::{choose_table_access, Sarg};
        let sargs: Vec<Sarg> = pred
            .sargable_leaves()
            .into_iter()
            .enumerate()
            .map(|(i, (column, op, value))| Sarg {
                conjunct: i,
                column: column.to_string(),
                op,
                value: value.clone(),
            })
            .collect();
        let (access, _est, _consumed) = choose_table_access(self, stats, &sargs);
        match access.fetch_row_ids(self)? {
            Some(rids) => {
                let mut out = Vec::with_capacity(rids.len());
                for rid in rids {
                    let row = &self.rows[&rid];
                    if pred.eval(&self.schema, row)? {
                        out.push((rid, row));
                    }
                }
                Ok(out)
            }
            None => {
                let mut out = Vec::new();
                for (&rid, row) in &self.rows {
                    if pred.eval(&self.schema, row)? {
                        out.push((rid, row));
                    }
                }
                Ok(out)
            }
        }
    }

    /// Value of `column` for the given row.
    pub fn value_of(&self, rid: RowId, column: &str) -> Result<Value> {
        let idx = self.schema.require_column(column)?;
        let row = self.rows.get(&rid).ok_or_else(|| TxdbError::NoSuchRow {
            table: self.schema.name().to_string(),
        })?;
        Ok(row.get(idx).cloned().unwrap_or(Value::Null))
    }

    fn index_row(&mut self, rid: RowId, row: &Row) {
        for (col, map) in self.indexes.iter_mut() {
            let idx = self.schema.column_index(col).expect("validated schema");
            index_insert(map, row.get(idx).unwrap_or(&Value::Null), rid);
        }
        for (col, index) in self.range_indexes.iter_mut() {
            let idx = self.schema.column_index(col).expect("validated schema");
            index.insert(row.get(idx).cloned().unwrap_or(Value::Null), rid);
        }
    }

    fn unindex_row(&mut self, rid: RowId, row: &Row) {
        for (col, map) in self.indexes.iter_mut() {
            let idx = self.schema.column_index(col).expect("validated schema");
            index_remove(map, row.get(idx).unwrap_or(&Value::Null), rid);
        }
        for (col, index) in self.range_indexes.iter_mut() {
            let idx = self.schema.column_index(col).expect("validated schema");
            index.remove(row.get(idx).unwrap_or(&Value::Null), rid);
        }
    }

    // ----- MVCC operations (used by the database's transaction API) -----
    //
    // Writes stamp versions with the writing transaction's id; commit
    // publishes them by removing the id from the active set (no stamp
    // rewriting), rollback unwinds them via the `mvcc_rollback_*` ops,
    // and `vacuum` reclaims versions no snapshot can reach. Indexes hold
    // the union of all versions' keys (adds are idempotent, removals
    // drop one row id), so uniqueness/FK checks through raw `lookup` are
    // conservative supersets while a table is dirty: they may reject
    // against a version that is not committed-visible, which is the
    // first-committer-wins bias snapshot isolation wants.

    /// Check that `txn` (reading through `snap`, its own snapshot) may
    /// write row `rid`: the newest version must be one the transaction
    /// can see. A newer invisible version means another transaction got
    /// there first — [`TxdbError::Serialization`], the later writer
    /// aborts.
    pub(crate) fn mvcc_write_check(&self, rid: RowId, txn: u64, snap: &Snapshot) -> Result<()> {
        let no_such = || TxdbError::NoSuchRow {
            table: self.schema.name().to_string(),
        };
        let conflict = |what: &str| TxdbError::Serialization {
            table: self.schema.name().to_string(),
            detail: format!("row {rid} was {what} by a concurrent transaction"),
        };
        let Some(st) = self.stamps.get(&rid) else {
            return if self.rows.contains_key(&rid) {
                Ok(())
            } else {
                Err(no_such())
            };
        };
        if st.end != LIVE_TXN {
            // Deleted: gone if we could see the delete, conflict if not.
            return if snap.sees(st.end) {
                Err(no_such())
            } else {
                Err(conflict("deleted"))
            };
        }
        if st.begin == txn || snap.sees(st.begin) {
            Ok(())
        } else {
            Err(conflict("updated"))
        }
    }

    /// Insert a row on behalf of transaction `txn`: same validation as
    /// [`Table::insert`], but the new version is stamped `begin = txn`
    /// so it stays invisible to other snapshots until commit.
    pub(crate) fn mvcc_insert(&mut self, row: Row, txn: u64) -> Result<RowId> {
        let rid = self.insert_checked(row)?;
        self.stamps.insert(
            rid,
            Stamp {
                begin: txn,
                end: LIVE_TXN,
            },
        );
        Ok(rid)
    }

    /// Update one column of `rid` on behalf of transaction `txn`
    /// (caller has already passed [`Table::mvcc_write_check`]). A first
    /// touch of a foreign row pushes the previous version onto the
    /// chain and returns `true`; re-touching a version this transaction
    /// already owns edits it in place (index keys swap as in the
    /// pre-MVCC path) and returns `false`.
    pub(crate) fn mvcc_update(
        &mut self,
        rid: RowId,
        column: &str,
        value: Value,
        txn: u64,
    ) -> Result<(Value, bool)> {
        let idx = self.validate_update(rid, column, &value)?;
        let st = self.stamps.get(&rid).copied();
        if st.is_some_and(|s| s.begin == txn && s.end == LIVE_TXN) {
            // Own uncommitted version: edit in place, swapping index keys.
            let old = self.set_cell(rid, idx, value).expect("presence checked");
            return Ok((old, false));
        }
        let row = self.rows.get_mut(&rid).expect("presence checked");
        let old_pk = self
            .schema
            .is_pk_column(column)
            .then(|| pk_tuple(&self.schema, row));
        self.older.entry(rid).or_default().push(OldVersion {
            begin: st.map_or(0, |s| s.begin),
            row: row.clone(),
        });
        self.stamps.insert(
            rid,
            Stamp {
                begin: txn,
                end: LIVE_TXN,
            },
        );
        let old = row.set(idx, value.clone()).expect("index in range");
        // The PK index tracks the newest version's key.
        if let Some(old_pk) = old_pk {
            let new_pk = pk_tuple(&self.schema, row);
            if old_pk != new_pk {
                if self.pk_index.get(&old_pk) == Some(&rid) {
                    self.pk_index.remove(&old_pk);
                }
                self.pk_index.insert(new_pk, rid);
            }
        }
        // The superseded version keeps its index keys (readers may still
        // resolve to it); the new version only *adds* its key.
        if let Some(map) = self.indexes.get_mut(column) {
            if !value.is_null() {
                bucket_insert(map.entry(value.clone()).or_default(), rid);
            }
        }
        if let Some(index) = self.range_indexes.get_mut(column) {
            index.insert(value, rid);
        }
        self.version += 1;
        Ok((old, true))
    }

    /// Delete `rid` on behalf of transaction `txn` (caller has already
    /// passed [`Table::mvcc_write_check`]): the row is only stamped
    /// `end = txn` — storage, indexes and PK entry stay until vacuum so
    /// concurrent snapshots keep reading the old version.
    pub(crate) fn mvcc_delete(&mut self, rid: RowId, txn: u64) -> Result<Row> {
        let row = self
            .rows
            .get(&rid)
            .cloned()
            .ok_or_else(|| TxdbError::NoSuchRow {
                table: self.schema.name().to_string(),
            })?;
        let st = self.stamps.entry(rid).or_insert(Stamp {
            begin: 0,
            end: LIVE_TXN,
        });
        st.end = txn;
        self.version += 1;
        Ok(row)
    }

    /// Roll back an insert: the stamped row vanishes entirely.
    pub(crate) fn mvcc_rollback_insert(&mut self, rid: RowId) {
        self.remove_physical(rid);
    }

    /// Roll back a version-pushing update: pop the superseded version
    /// off the chain, restore it as the current row, and drop the
    /// aborted version's index keys (re-asserting any it shared with
    /// surviving versions).
    pub(crate) fn mvcc_rollback_update(&mut self, rid: RowId) {
        let Some(chain) = self.older.get_mut(&rid) else {
            return;
        };
        let Some(restored) = chain.pop() else {
            return;
        };
        let remaining: Vec<Row> = chain.iter().map(|v| v.row.clone()).collect();
        if chain.is_empty() {
            self.older.remove(&rid);
        }
        if restored.begin == 0 && remaining.is_empty() {
            self.stamps.remove(&rid);
        } else {
            self.stamps.insert(
                rid,
                Stamp {
                    begin: restored.begin,
                    end: LIVE_TXN,
                },
            );
        }
        let Some(aborted) = self.rows.insert(rid, restored.row.clone()) else {
            return;
        };
        self.unindex_row(rid, &aborted);
        self.index_row(rid, &restored.row);
        for row in &remaining {
            self.index_row(rid, row);
        }
        let aborted_pk = self.pk_of(&aborted);
        let restored_pk = self.pk_of(&restored.row);
        if aborted_pk != restored_pk && !aborted_pk.is_empty() {
            if self.pk_index.get(&aborted_pk) == Some(&rid) {
                self.pk_index.remove(&aborted_pk);
            }
            self.pk_index.insert(restored_pk, rid);
        }
        self.version += 1;
    }

    /// Roll back a delete: clear the end stamp (collapsing back to
    /// pristine when nothing else distinguishes the slot).
    pub(crate) fn mvcc_rollback_delete(&mut self, rid: RowId) {
        if let Some(st) = self.stamps.get_mut(&rid) {
            st.end = LIVE_TXN;
            if st.begin == 0 && !self.older.contains_key(&rid) {
                self.stamps.remove(&rid);
            }
        }
        self.version += 1;
    }

    /// Reclaim version garbage: drop every version no current or future
    /// snapshot can reach, judged by `all_see` (true when every active
    /// snapshot sees the given transaction — with no transactions in
    /// flight, every committed stamp qualifies and the table collapses
    /// back to pristine). Returns the number of stamps and superseded
    /// versions reclaimed. Purely physical: `version()` is unchanged.
    pub(crate) fn vacuum(&mut self, all_see: &dyn Fn(u64) -> bool) -> usize {
        let rids: Vec<RowId> = self.stamps.keys().copied().collect();
        let mut reclaimed = 0;
        for rid in rids {
            let st = *self.stamps.get(&rid).expect("collected above");
            if st.end != LIVE_TXN && all_see(st.end) {
                // The delete is visible to everyone; a snapshot that sees
                // the end stamp sees every begin below it (ids are handed
                // out before commit), so the whole slot is unreachable.
                let chain = self.older.remove(&rid).unwrap_or_default();
                reclaimed += 1 + chain.len();
                if let Some(row) = self.rows.remove(&rid) {
                    self.unindex_row(rid, &row);
                    let pk = self.pk_of(&row);
                    if !pk.is_empty() && self.pk_index.get(&pk) == Some(&rid) {
                        self.pk_index.remove(&pk);
                    }
                }
                for v in &chain {
                    self.unindex_row(rid, &v.row);
                }
                self.stamps.remove(&rid);
                continue;
            }
            let chain = self.older.remove(&rid).unwrap_or_default();
            if !chain.is_empty() {
                // A chain version's end is its successor's begin; once
                // everyone sees that commit, the version is unreachable.
                let ends: Vec<u64> = (0..chain.len())
                    .map(|i| chain.get(i + 1).map_or(st.begin, |v| v.begin))
                    .collect();
                let mut kept: Vec<OldVersion> = Vec::new();
                let mut dropped: Vec<Row> = Vec::new();
                for (v, end) in chain.into_iter().zip(ends) {
                    if all_see(end) {
                        dropped.push(v.row);
                        reclaimed += 1;
                    } else {
                        kept.push(v);
                    }
                }
                for row in &dropped {
                    self.unindex_row(rid, row);
                }
                if !dropped.is_empty() {
                    // Re-assert keys the dropped versions shared with
                    // survivors (adds are idempotent).
                    if let Some(cur) = self.rows.get(&rid).cloned() {
                        self.index_row(rid, &cur);
                    }
                    let kept_rows: Vec<Row> = kept.iter().map(|v| v.row.clone()).collect();
                    for row in &kept_rows {
                        self.index_row(rid, row);
                    }
                }
                if !kept.is_empty() {
                    self.older.insert(rid, kept);
                }
            }
            if st.end == LIVE_TXN && !self.older.contains_key(&rid) && all_see(st.begin) {
                // Committed-to-everyone live version: back to pristine.
                self.stamps.remove(&rid);
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Rows visible to `snap` that satisfy `pred`, in ascending RowId
    /// order — the MVCC counterpart of [`Table::select`]. Always scans:
    /// index fetches on a dirty table are version supersets, and a
    /// superseded version can match where the newest does not, so the
    /// scan over resolved versions is the only exact path. Dirty tables
    /// are a transient state, so this never costs on clean reads.
    pub fn select_snapshot(&self, pred: &Predicate, snap: &Snapshot) -> Result<Vec<(RowId, &Row)>> {
        let mut out = Vec::new();
        for &rid in self.rows.keys() {
            let Some(row) = self.visible_row(rid, snap) else {
                continue;
            };
            if pred.eval(&self.schema, row)? {
                out.push((rid, row));
            }
        }
        Ok(out)
    }

    /// [`Table::join_map`] over the rows visible to `snap`: same key
    /// semantics (NULL and NaN never join), buckets ascending.
    pub fn join_map_visible<'t>(
        &'t self,
        column: &str,
        snap: &Snapshot,
    ) -> Result<HashMap<&'t Value, Vec<RowId>>> {
        let idx = self.schema.require_column(column)?;
        let mut map: HashMap<&Value, Vec<RowId>> = HashMap::new();
        for &rid in self.rows.keys() {
            let Some(row) = self.visible_row(rid, snap) else {
                continue;
            };
            let Some(v) = row.get(idx) else { continue };
            if v.is_excluded_join_key() {
                continue;
            }
            map.entry(v).or_default().push(rid);
        }
        Ok(map)
    }

    /// Whether some version of `rid` still carries `key` in column
    /// `col_idx` from the perspective of `snap`'s owner — the liveness
    /// test behind foreign-key child checks. True when the visible
    /// version matches, and also (conservatively) when another in-flight
    /// transaction's newest version matches: that version may yet
    /// commit, so the reference must block, consistent with first
    /// committer wins.
    pub(crate) fn fk_reference_alive(
        &self,
        rid: RowId,
        col_idx: usize,
        key: &Value,
        snap: &Snapshot,
    ) -> bool {
        if let Some(row) = self.visible_row(rid, snap) {
            if row.get(col_idx) == Some(key) {
                return true;
            }
        }
        if let Some(st) = self.stamps.get(&rid) {
            if st.end == LIVE_TXN && !snap.sees(st.begin) {
                if let Some(row) = self.rows.get(&rid) {
                    if row.get(col_idx) == Some(key) {
                        return true;
                    }
                }
            }
        }
        false
    }

    // ----- physical row writers -----
    // These bypass constraint checks (callers validated first, or are
    // restoring state that was valid) but keep every index consistent.
    // The checked writers above are these plus their validation.

    /// Re-insert a row under a specific id, bypassing constraint checks
    /// (the state being restored was valid when first written). Pins
    /// `next_row_id` monotonicity past `rid`. Used by log replay and
    /// snapshot restore as well as tests.
    pub(crate) fn insert_physical(&mut self, rid: RowId, row: Row) {
        self.index_row(rid, &row);
        let pk = self.pk_of(&row);
        if !pk.is_empty() {
            self.pk_index.insert(pk, rid);
        }
        self.next_row_id = self.next_row_id.max(rid.0 + 1);
        self.rows.insert(rid, row);
        self.version += 1;
    }

    /// Remove a row and every index entry for it, returning it (`None`
    /// when the row does not exist). Any MVCC state attached to the slot
    /// goes with it.
    pub(crate) fn remove_physical(&mut self, rid: RowId) -> Option<Row> {
        self.stamps.remove(&rid);
        self.older.remove(&rid);
        let row = self.rows.remove(&rid)?;
        self.unindex_row(rid, &row);
        let pk = self.pk_of(&row);
        if !pk.is_empty() {
            self.pk_index.remove(&pk);
        }
        self.version += 1;
        Some(row)
    }

    /// Overwrite one cell in place, swapping index keys and fixing the
    /// PK entry, without constraint checks — the one cell writer behind
    /// [`Table::update`], log replay and in-place MVCC edits. Returns the
    /// previous value (`None` when the row does not exist).
    fn set_cell(&mut self, rid: RowId, col_idx: usize, value: Value) -> Option<Value> {
        let column = &self.schema.columns()[col_idx].name;
        let row = self.rows.get_mut(&rid)?;
        let old_pk = self
            .schema
            .is_pk_column(column)
            .then(|| pk_tuple(&self.schema, row));
        let old = row.set(col_idx, value).expect("index in range");
        if let Some(old_pk) = old_pk {
            let new_pk = pk_tuple(&self.schema, row);
            if old_pk != new_pk {
                self.pk_index.remove(&old_pk);
                self.pk_index.insert(new_pk, rid);
            }
        }
        let new = row.get(col_idx).expect("index in range");
        if let Some(map) = self.indexes.get_mut(column) {
            index_remove(map, &old, rid);
            index_insert(map, new, rid);
        }
        if let Some(index) = self.range_indexes.get_mut(column) {
            index.remove(&old, rid);
            index.insert(new.clone(), rid);
        }
        self.version += 1;
        Some(old)
    }

    // ----- physical operations used by log replay / snapshot restore -----

    /// [`Table::insert_physical`] plus the committed-mutation credit a
    /// replayed (i.e. committed) insert deserves.
    pub(crate) fn replay_insert(&mut self, rid: RowId, row: Row) {
        self.insert_physical(rid, row);
        self.committed_version += 1;
    }

    /// Overwrite one cell without constraint checks, keeping every index
    /// and the committed-mutation counter consistent. [`Table::update`]
    /// is this after its checks; log replay calls it directly (the value
    /// was validated when it first committed).
    pub(crate) fn replay_update(
        &mut self,
        rid: RowId,
        column: &str,
        value: Value,
    ) -> Result<Value> {
        let idx = self.schema.require_column(column)?;
        match self.set_cell(rid, idx, value) {
            Some(old) => {
                self.committed_version += 1;
                Ok(old)
            }
            None => Err(TxdbError::NoSuchRow {
                table: self.schema.name().to_string(),
            }),
        }
    }

    /// The allocation and mutation counters `(next_row_id, version,
    /// committed_version)` — snapshot dumps persist them so a restored
    /// table keeps allocating and versioning where the original left off.
    pub(crate) fn version_counters(&self) -> (u64, u64, u64) {
        (self.next_row_id, self.version, self.committed_version)
    }

    /// Overwrite the allocation and mutation counters (snapshot restore;
    /// replayed mutations then keep counting from these).
    pub(crate) fn set_version_counters(
        &mut self,
        next_row_id: u64,
        version: u64,
        committed_version: u64,
    ) {
        self.next_row_id = self.next_row_id.max(next_row_id);
        self.version = version;
        self.committed_version = committed_version;
    }

    /// Columns with a secondary hash index, sorted (catalog metadata for
    /// snapshots and rebuilt twins).
    pub fn indexed_columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = self.indexes.keys().map(String::as_str).collect();
        cols.sort_unstable();
        cols
    }

    /// Columns with an ordered range index, sorted.
    pub fn range_indexed_columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = self.range_indexes.keys().map(String::as_str).collect();
        cols.sort_unstable();
        cols
    }

    /// Drop a secondary hash index (undo path for an index creation whose
    /// log append failed). Auto-created indexes are never dropped through
    /// the public surface.
    pub(crate) fn drop_index(&mut self, column: &str) {
        self.indexes.remove(column);
    }

    /// Drop an ordered range index (undo path; see [`Table::drop_index`]).
    pub(crate) fn drop_range_index(&mut self, column: &str) {
        self.range_indexes.remove(column);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::TableSchema;
    use crate::value::DataType;

    fn movie_table() -> Table {
        let schema = TableSchema::builder("movie")
            .column("movie_id", DataType::Int)
            .column("title", DataType::Text)
            .column("genre", DataType::Text)
            .nullable_column("rating", DataType::Float)
            .primary_key(&["movie_id"])
            .build()
            .unwrap();
        Table::new(schema).unwrap()
    }

    /// Incremental hash-index maintenance (inserts, deletes, updates that
    /// move rows between buckets, empty buckets and NULLs) leaves exactly
    /// the buckets a fresh build over the final rows produces.
    #[test]
    fn maintained_buckets_equal_a_fresh_rebuild() {
        let mut t = movie_table();
        t.create_index("genre").unwrap();
        t.create_index("rating").unwrap();
        let genres = ["Drama", "Crime", "Horror", "Western"];
        let mut rids = Vec::new();
        for i in 0..40i64 {
            let rating = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Float((i % 4) as f64)
            };
            let genre = genres[(i % 3) as usize];
            let row = Row::new(vec![
                Value::Int(i),
                format!("m{i}").into(),
                genre.into(),
                rating,
            ]);
            rids.push(t.insert(row).unwrap());
        }
        for (k, &rid) in rids.iter().enumerate() {
            match k % 4 {
                0 => drop(t.delete(rid).unwrap()),
                1 => drop(t.update(rid, "genre", genres[k % 4 + 2].into()).unwrap()),
                2 => drop(t.update(rid, "rating", Value::Null).unwrap()),
                _ => drop(t.update(rid, "rating", Value::Float(9.0)).unwrap()),
            }
        }
        for rid in t.lookup("genre", &"Horror".into()).unwrap() {
            t.update(rid, "genre", "Drama".into()).unwrap();
        }
        // Every "Horror" row moved away: its bucket must be gone.
        assert_eq!(t.index_bucket_len("genre", &"Horror".into()), Some(0));
        let mut fresh = t.clone();
        fresh.indexes.clear();
        fresh
            .create_indexes(&t.indexed_columns(), |_, _| true)
            .unwrap();
        assert_eq!(fresh.indexed_columns(), ["genre", "movie_id", "rating"]);
        assert_eq!(t.indexes, fresh.indexes);
    }

    /// `create_indexes` builds the kept columns in one scan and rejects
    /// bad requests before building anything.
    #[test]
    fn create_indexes_keeps_only_accepted_columns() {
        let mut t = movie_table();
        for i in 0..10i64 {
            let genre = if i % 2 == 0 { "Drama" } else { "Crime" };
            t.insert(row![i, format!("m{i}"), genre, 1.0]).unwrap();
        }
        // Titles are all distinct, genres take two values.
        let kept = t
            .create_indexes(&["title", "genre"], |distinct, non_null| {
                distinct < non_null
            })
            .unwrap();
        assert_eq!(kept, ["genre"]);
        assert!(!t.has_index("title"));
        assert_eq!(t.index_distinct("genre"), Some(2));
        assert!(matches!(
            t.create_indexes(&["rating", "genre"], |_, _| true),
            Err(TxdbError::DuplicateIndex { .. })
        ));
        assert!(t
            .create_indexes(&["rating", "rating"], |_, _| true)
            .is_err());
        assert!(t.create_indexes(&["rating", "bogus"], |_, _| true).is_err());
        assert!(!t.has_index("rating"), "a failed request creates nothing");
    }

    #[test]
    fn insert_get_delete() {
        let mut t = movie_table();
        let rid = t.insert(row![1, "Forrest Gump", "Drama", 8.8]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get(rid).unwrap().get(1).unwrap().as_text(),
            Some("Forrest Gump")
        );
        let deleted = t.delete(rid).unwrap();
        assert_eq!(deleted.get(0).unwrap().as_int(), Some(1));
        assert!(t.is_empty());
        assert!(t.get(rid).is_none());
        assert!(t.delete(rid).is_err());
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut t = movie_table();
        t.insert(row![1, "A", "Drama", 5.0]).unwrap();
        let err = t.insert(row![1, "B", "Action", 6.0]).unwrap_err();
        assert!(matches!(err, TxdbError::DuplicateKey { .. }));
        // After deleting, the key is free again.
        let (rid, _) = t.get_by_pk(&[Value::Int(1)]).unwrap();
        t.delete(rid).unwrap();
        t.insert(row![1, "B", "Action", 6.0]).unwrap();
    }

    #[test]
    fn type_and_null_validation() {
        let mut t = movie_table();
        assert!(matches!(
            t.insert(row!["one", "A", "Drama", 5.0]).unwrap_err(),
            TxdbError::TypeMismatch { .. }
        ));
        assert!(matches!(
            t.insert(Row::new(vec![
                Value::Int(1),
                Value::Null,
                "g".into(),
                Value::Null
            ]))
            .unwrap_err(),
            TxdbError::NotNullViolation { .. }
        ));
        // Nullable column accepts NULL.
        t.insert(Row::new(vec![
            Value::Int(1),
            "A".into(),
            "g".into(),
            Value::Null,
        ]))
        .unwrap();
        assert!(matches!(
            t.insert(row![2, "B", "g"]).unwrap_err(),
            TxdbError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn unique_column_enforced() {
        let schema = TableSchema::builder("customer")
            .column("customer_id", DataType::Int)
            .column("email", DataType::Text)
            .unique()
            .primary_key(&["customer_id"])
            .build()
            .unwrap();
        let mut t = Table::new(schema).unwrap();
        t.insert(row![1, "a@x.org"]).unwrap();
        assert!(t.insert(row![2, "a@x.org"]).is_err());
        t.insert(row![2, "b@x.org"]).unwrap();
        assert!(t.update(RowId(2), "email", "a@x.org".into()).is_err());
        t.update(RowId(2), "email", "c@x.org".into()).unwrap();
    }

    #[test]
    fn lookup_uses_index_and_scan_consistently() {
        let mut t = movie_table();
        t.create_index("genre").unwrap();
        for i in 0..20 {
            let genre = if i % 2 == 0 { "Drama" } else { "Action" };
            t.insert(row![i, format!("M{i}"), genre, 5.0]).unwrap();
        }
        let via_index = t.lookup("genre", &Value::Text("Drama".into())).unwrap();
        assert_eq!(via_index.len(), 10);
        // title is unindexed -> scan path.
        let via_scan = t.lookup("title", &Value::Text("M3".into())).unwrap();
        assert_eq!(via_scan.len(), 1);
        assert!(t.has_index("genre"));
        assert!(!t.has_index("title"));
    }

    #[test]
    fn select_with_predicate() {
        let mut t = movie_table();
        for i in 0..10 {
            let genre = if i < 3 { "Drama" } else { "Action" };
            t.insert(row![i, format!("M{i}"), genre, i as f64]).unwrap();
        }
        let pred = Predicate::eq("genre", "Drama");
        assert_eq!(t.select(&pred).unwrap().len(), 3);
        let pred2 = Predicate::eq("genre", "Action").and(Predicate::cmp(
            "rating",
            crate::predicate::CmpOp::Ge,
            8.0,
        ));
        assert_eq!(t.select(&pred2).unwrap().len(), 2);
    }

    #[test]
    fn select_intersects_multiple_hash_indexes() {
        let mut t = movie_table();
        t.create_index("genre").unwrap();
        t.create_index("title").unwrap();
        for i in 0..200i64 {
            let genre = ["Drama", "Action", "Comedy", "Noir", "Docu"][i as usize % 5];
            // Few distinct titles so both buckets are non-trivial.
            t.insert(row![i, format!("T{}", i % 10), genre, 1.0])
                .unwrap();
        }
        let pred = Predicate::eq("genre", "Noir").and(Predicate::eq("title", "T3"));
        let via_planner: Vec<_> = t.select(&pred).unwrap().iter().map(|(r, _)| *r).collect();
        // Scan path for the ground truth (wrap so nothing is sargable).
        let scan_pred =
            Predicate::contains("genre", "Noir").and(Predicate::contains("title", "T3"));
        let scanned: Vec<_> = t
            .select(&scan_pred)
            .unwrap()
            .iter()
            .map(|(r, _)| *r)
            .collect();
        assert_eq!(via_planner, scanned);
        assert!(!via_planner.is_empty(), "fixture must produce matches");
        // Mixed sargable/non-sargable conjunction: probes from the
        // sargable leaves only, full predicate still re-checked.
        let mixed = Predicate::eq("genre", "Noir").and(Predicate::contains("title", "T3"));
        let got: Vec<_> = t.select(&mixed).unwrap().iter().map(|(r, _)| *r).collect();
        assert_eq!(got, via_planner);
    }

    #[test]
    fn buckets_stay_sorted_through_updates_and_rollback() {
        let mut t = movie_table();
        t.create_index("genre").unwrap();
        for i in 0..10i64 {
            let genre = if i % 2 == 0 { "Drama" } else { "Action" };
            t.insert(row![i, format!("M{i}"), genre, 1.0]).unwrap();
        }
        let sorted = |ids: &[RowId]| ids.windows(2).all(|w| w[0] < w[1]);
        // Moving an early row into the other bucket re-inserts a small
        // rid after larger ones — the bucket must stay ascending.
        t.update(RowId(1), "genre", "Action".into()).unwrap();
        let action = t.lookup("genre", &Value::Text("Action".into())).unwrap();
        assert!(sorted(&action), "bucket out of order: {action:?}");
        assert!(action.contains(&RowId(1)));
        // Rollback re-insert of an old rid (insert_physical) likewise.
        // RowId(3) holds movie_id 2, a Drama row.
        let row = t.get(RowId(3)).unwrap().clone();
        t.remove_physical(RowId(3));
        t.insert_physical(RowId(3), row);
        let drama = t.lookup("genre", &Value::Text("Drama".into())).unwrap();
        assert!(sorted(&drama), "bucket out of order: {drama:?}");
        assert!(drama.contains(&RowId(3)));
        // Borrowed bucket agrees with the cloning lookup.
        assert_eq!(
            t.index_bucket("genre", &Value::Text("Drama".into()))
                .unwrap(),
            drama.as_slice()
        );
        assert!(t.index_bucket("title", &Value::Text("M1".into())).is_none());
    }

    #[test]
    fn lookup_unknown_column_is_an_error() {
        let mut t = movie_table();
        t.insert(row![1, "A", "Drama", 5.0]).unwrap();
        // The old API silently returned an empty set here, which turned a
        // bad join column into empty (wrong) join output.
        let err = t.lookup("no_such", &Value::Int(1)).unwrap_err();
        assert!(matches!(err, TxdbError::UnknownColumn { .. }), "{err}");
        assert!(t.join_map("no_such").is_err());
    }

    #[test]
    fn join_map_excludes_null_and_nan_and_stays_sorted() {
        let mut t = movie_table();
        t.insert(row![1, "A", "g", 2.0]).unwrap();
        t.insert(Row::new(vec![
            Value::Int(2),
            "B".into(),
            "g".into(),
            Value::Null,
        ]))
        .unwrap();
        t.insert(row![3, "C", "g", f64::NAN]).unwrap();
        t.insert(row![4, "D", "g", 2.0]).unwrap();
        let map = t.join_map("rating").unwrap();
        // NULL (rid 2) and NaN (rid 3) keys never join.
        assert_eq!(map.len(), 1);
        let bucket = map.get(&Value::Float(2.0)).unwrap();
        assert_eq!(bucket, &vec![RowId(1), RowId(4)]);
        // Int/Float canonical hashing: an Int key probes the same bucket.
        assert_eq!(map.get(&Value::Int(2)), Some(bucket));
        assert!(!map.contains_key(&Value::Float(f64::NAN)));
    }

    #[test]
    fn index_distinct_and_range_index_accessors() {
        let mut t = movie_table();
        t.create_index("genre").unwrap();
        t.create_range_index("rating").unwrap();
        for i in 0..10i64 {
            let genre = if i % 2 == 0 { "Drama" } else { "Action" };
            t.insert(row![i, format!("M{i}"), genre, (i % 3) as f64])
                .unwrap();
        }
        assert_eq!(t.index_distinct("genre"), Some(2));
        assert_eq!(t.index_distinct("rating"), None);
        assert_eq!(t.range_index("rating").unwrap().distinct(), 3);
        assert!(t.range_index("genre").is_none());
    }

    #[test]
    fn index_bucket_len_is_exact() {
        let mut t = movie_table();
        t.create_index("genre").unwrap();
        for i in 0..30i64 {
            let genre = if i % 3 == 0 { "Drama" } else { "Action" };
            t.insert(row![i, format!("M{i}"), genre, 1.0]).unwrap();
        }
        assert_eq!(
            t.index_bucket_len("genre", &Value::Text("Drama".into())),
            Some(10)
        );
        assert_eq!(
            t.index_bucket_len("genre", &Value::Text("Nope".into())),
            Some(0)
        );
        assert_eq!(t.index_bucket_len("title", &Value::Text("M1".into())), None);
    }

    #[test]
    fn select_via_index_matches_full_scan() {
        let mut t = movie_table();
        t.create_index("genre").unwrap();
        for i in 0..50 {
            let genre = ["Drama", "Action", "Comedy"][i % 3];
            t.insert(row![i as i64, format!("M{i}"), genre, 1.0])
                .unwrap();
        }
        let pred = Predicate::eq("genre", "Comedy");
        let with_index: Vec<_> = t.select(&pred).unwrap().iter().map(|(r, _)| *r).collect();
        // Force the scan path with a non-equality predicate wrapper.
        let scan_pred = Predicate::contains("genre", "Comedy");
        let scanned: Vec<_> = t
            .select(&scan_pred)
            .unwrap()
            .iter()
            .map(|(r, _)| *r)
            .collect();
        assert_eq!(with_index, scanned);
    }

    #[test]
    fn update_maintains_indexes_and_pk() {
        let mut t = movie_table();
        t.create_index("genre").unwrap();
        let rid = t.insert(row![1, "A", "Drama", 5.0]).unwrap();
        t.update(rid, "genre", "Action".into()).unwrap();
        assert!(t
            .lookup("genre", &Value::Text("Drama".into()))
            .unwrap()
            .is_empty());
        assert_eq!(
            t.lookup("genre", &Value::Text("Action".into())).unwrap(),
            vec![rid]
        );
        // PK update moves the pk index entry.
        t.update(rid, "movie_id", Value::Int(42)).unwrap();
        assert!(t.get_by_pk(&[Value::Int(1)]).is_none());
        assert_eq!(t.get_by_pk(&[Value::Int(42)]).unwrap().0, rid);
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let mut t = movie_table();
        let v0 = t.version();
        let rid = t.insert(row![1, "A", "Drama", 5.0]).unwrap();
        assert!(t.version() > v0);
        let v1 = t.version();
        t.update(rid, "title", "B".into()).unwrap();
        assert!(t.version() > v1);
        let v2 = t.version();
        t.delete(rid).unwrap();
        assert!(t.version() > v2);
    }

    #[test]
    fn physical_ops_restore_state() {
        let mut t = movie_table();
        t.create_index("genre").unwrap();
        let rid = t.insert(row![1, "A", "Drama", 5.0]).unwrap();
        let row = t.get(rid).unwrap().clone();
        t.remove_physical(rid);
        assert!(t.is_empty());
        assert!(t
            .lookup("genre", &Value::Text("Drama".into()))
            .unwrap()
            .is_empty());
        t.insert_physical(rid, row);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.lookup("genre", &Value::Text("Drama".into())).unwrap(),
            vec![rid]
        );
        assert_eq!(t.get_by_pk(&[Value::Int(1)]).unwrap().0, rid);
        // next_row_id must not collide with the restored row.
        let rid2 = t.insert(row![2, "B", "Action", 1.0]).unwrap();
        assert_ne!(rid, rid2);
    }

    #[test]
    fn range_index_maintained_through_mutations() {
        use std::ops::Bound;
        let mut t = movie_table();
        t.create_range_index("rating").unwrap();
        for i in 0..10 {
            t.insert(row![i, format!("M{i}"), "Drama", i as f64])
                .unwrap();
        }
        let ids = t
            .range_lookup(
                "rating",
                Bound::Included(&Value::Float(3.0)),
                Bound::Excluded(&Value::Float(6.0)),
            )
            .unwrap();
        assert_eq!(ids.len(), 3); // ratings 3,4,5
                                  // Update moves a row across the boundary.
        let rid = ids[0];
        t.update(rid, "rating", Value::Float(9.5)).unwrap();
        let ids = t
            .range_lookup(
                "rating",
                Bound::Included(&Value::Float(3.0)),
                Bound::Excluded(&Value::Float(6.0)),
            )
            .unwrap();
        assert_eq!(ids.len(), 2);
        // Delete removes from the index.
        let high = t
            .range_lookup(
                "rating",
                Bound::Included(&Value::Float(9.0)),
                Bound::Unbounded,
            )
            .unwrap();
        assert_eq!(high, vec![rid, RowId(10)]);
        t.delete(rid).unwrap();
        let high = t
            .range_lookup(
                "rating",
                Bound::Included(&Value::Float(9.0)),
                Bound::Unbounded,
            )
            .unwrap();
        assert_eq!(high, vec![RowId(10)]);
        // Physical rollback ops keep it consistent too.
        let row9 = t.get(RowId(10)).unwrap().clone();
        t.remove_physical(RowId(10));
        assert!(t
            .range_lookup(
                "rating",
                Bound::Included(&Value::Float(9.0)),
                Bound::Unbounded
            )
            .unwrap()
            .is_empty());
        t.insert_physical(RowId(10), row9);
        assert_eq!(
            t.range_lookup(
                "rating",
                Bound::Included(&Value::Float(9.0)),
                Bound::Unbounded
            )
            .unwrap(),
            vec![RowId(10)]
        );
    }

    #[test]
    fn range_lookup_without_index_scans() {
        use std::ops::Bound;
        let mut t = movie_table();
        for i in 0..10 {
            t.insert(row![i, format!("M{i}"), "Drama", i as f64])
                .unwrap();
        }
        assert!(!t.has_range_index("rating"));
        let scan = t
            .range_lookup(
                "rating",
                Bound::Included(&Value::Float(2.0)),
                Bound::Included(&Value::Float(4.0)),
            )
            .unwrap();
        assert_eq!(scan.len(), 3);
        // Agreement with the indexed path.
        t.create_range_index("rating").unwrap();
        let indexed = t
            .range_lookup(
                "rating",
                Bound::Included(&Value::Float(2.0)),
                Bound::Included(&Value::Float(4.0)),
            )
            .unwrap();
        assert_eq!(scan, indexed);
        assert!(t.create_range_index("rating").is_err(), "duplicate index");
    }

    #[test]
    fn composite_pk() {
        let schema = TableSchema::builder("reservation")
            .column("customer_id", DataType::Int)
            .column("screening_id", DataType::Int)
            .column("no_tickets", DataType::Int)
            .primary_key(&["customer_id", "screening_id"])
            .build()
            .unwrap();
        let mut t = Table::new(schema).unwrap();
        t.insert(row![1, 10, 2]).unwrap();
        t.insert(row![1, 11, 2]).unwrap();
        t.insert(row![2, 10, 1]).unwrap();
        assert!(t.insert(row![1, 10, 5]).is_err());
        assert_eq!(
            t.get_by_pk(&[Value::Int(1), Value::Int(11)])
                .unwrap()
                .1
                .get(2),
            Some(&Value::Int(2))
        );
    }
}
