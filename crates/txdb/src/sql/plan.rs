//! Cost-aware planning for `SELECT`: access paths, multi-index AND,
//! cardinality-ordered joins and staged predicate pushdown.
//!
//! The executor used to materialize the whole base table and evaluate
//! `WHERE` after joins; this module decides, per statement, how to touch
//! as few rows as possible. Planning has five steps:
//!
//! 1. **Conjunct extraction.** The `WHERE` tree is split at top-level
//!    `AND`s. Each conjunct is classified by the set of FROM-tables it
//!    references: *base-only* conjuncts (every column resolves —
//!    unambiguously — to the base table) are evaluated before joins
//!    multiply rows; all other conjuncts are assigned to the earliest
//!    join level at which every table they reference is bound (step 5).
//!    If *any* conjunct fails to resolve over the joined layout, the plan
//!    degrades to the conservative shape — full scan, FROM-order joins,
//!    every conjunct evaluated post-join in original order — preserving
//!    the executor's lazy per-row error semantics byte for byte.
//!
//! 2. **Sargability.** A base-only conjunct is *sargable* when it has the
//!    shape `column <op> literal` with `op ∈ {=, <, <=, >, >=}` and the
//!    literal coerces to the column type. Equality conjuncts can be served
//!    by a hash index ([`Table::lookup`]); all sargable shapes can be
//!    served by an ordered [`RangeIndex`] when
//!    one exists on the column (equality becomes the degenerate range
//!    `[v, v]`). Conjuncts on the same column are folded into a single
//!    bound pair, so `price > 5 AND price <= 9` probes the index once.
//!    `!=`, `LIKE`, `IS NULL`, `OR` and `NOT` are never sargable and stay
//!    as filters. `NULL` literals never match under `WHERE`, so indexes
//!    (which exclude NULLs) are always safe to substitute for a scan.
//!
//! 3. **Index-vs-scan choice.** Every sargable candidate is priced with
//!    the table statistics from [`crate::stats`]: equality via
//!    [`ColumnStats::eq_selectivity`] (exact for values tracked in the
//!    MCV list, uniform over the remaining distinct values otherwise),
//!    ranges via [`Histogram::range_selectivity`](crate::stats::Histogram::range_selectivity) when the column is
//!    numeric/date (falling back to the classic 1/3 guess without a
//!    histogram). The cheapest candidate wins; an index path is only
//!    chosen when its estimated selectivity is at or below
//!    [`INDEX_SELECTIVITY_THRESHOLD`] — for predicates that keep most of
//!    the table, a sequential scan avoids the index's pointer-chasing and
//!    sort overhead and degrades gracefully, in the spirit of the robust
//!    hybrid-join literature.
//!
//! 4. **Multi-index AND.** When several sargable conjuncts hit *different*
//!    indexed columns, their RowId sets are fetched independently and
//!    intersected (smallest set first, via a sorted merge). Fetching a
//!    probe costs roughly `selectivity × rows`, so a probe joins the
//!    intersection only when its estimated selectivity is at or below
//!    [`INTERSECT_SELECTIVITY_THRESHOLD`] — a poorly selective conjunct
//!    is cheaper to apply as a residual filter over the already-small
//!    intersection than to fetch wholesale. The combined selectivity
//!    comes from the correlation-aware estimator (see *Selectivity
//!    estimation* below), and a probe whose joint statistics against an
//!    already-chosen equality show it would barely shrink the
//!    intersection is declined outright.
//!
//! 5. **Join ordering and pushdown.** Per-table post-filter cardinality is
//!    estimated from [`TableStats`] (`row_count ×` the combined
//!    selectivity of the single-table conjuncts assigned to that table,
//!    using the composite estimator below). Joins are then ordered
//!    greedily smallest-estimate-first instead of FROM-order, restricted
//!    to joins whose already-bound side is in the stream (the FROM-order
//!    continuation always remains eligible, so the greedy pass cannot dead
//!    end). Each non-base conjunct is evaluated at the earliest join
//!    level where all its tables are bound, pruning tuples before later
//!    joins multiply them. The executor restores the canonical FROM-order
//!    row order afterwards, so reordering is invisible in results.
//!
//! The chosen conjuncts are *consumed*: the executor does not re-evaluate
//! the predicate the access path already guarantees. Everything else stays
//! in [`SelectPlan::pushed`] / [`SelectPlan::stages`].
//!
//! # Join strategies
//!
//! Every join step carries a [`JoinStrategy`], assigned after the join
//! order is fixed by walking the execution order with a running estimate
//! of the outer tuple count (base rows surviving the access path, then
//! multiplied per join by the right side's average bucket size — exact
//! index distinct counts when available, [`TableStats`] otherwise):
//!
//! - [`IndexProbe`](JoinStrategy::IndexProbe) whenever a hash index
//!   exists on the join column: the sorted bucket is borrowed per outer
//!   tuple at O(1), no setup cost — probing itself is unbeatable, so it
//!   is never priced against the others (only its optional pre-filter
//!   is, see *Build-side pushdown*).
//! - Otherwise the two one-pass strategies are priced against each
//!   other. [`BuildHash`](JoinStrategy::BuildHash) costs
//!   [`HASH_BUILD_COST_FACTOR`]` × |right| + outer` (one hashing pass
//!   over the right side, then O(1) probes);
//!   [`MergeRange`](JoinStrategy::MergeRange) costs
//!   `|right| + outer × log₂(outer)` (walk the pre-built ordered index,
//!   sort the outer keys) and is only eligible when *both* sides of the
//!   ON key have an ordered index. Small outer streams against large
//!   right sides favour the merge (no build allocation at all); big
//!   streams amortize the build and favour the hash map.
//!
//! Before this layer, an unindexed join column degraded to a scan of the
//! right table *per outer tuple* inside [`Table::lookup`] — an
//! O(outer × inner) blowup, the robustness failure the dynamic
//! hybrid-hash literature warns about. The executor preserves
//! ascending-RowId canonical order under every strategy (hash buckets
//! are built in scan order; the merge path computes per-tuple matches,
//! then emits in stream order), so strategy choice — like join
//! reordering — is invisible in results. All strategies share the same
//! key semantics: NULL and NaN keys never join, and Int/Float keys
//! compare numerically.
//!
//! # Build-side pushdown
//!
//! A join-side conjunct that references only the join's own table (e.g.
//! `screening.price > 11.0` on a `JOIN screening`) used to run purely as
//! a residual filter *after* the join produced its tuples — the build
//! side was always hashed (or the ordered index always walked) in full.
//! Strategy assignment now prices the join table's own access path over
//! those conjuncts, exactly as the base table's is priced: the sargable
//! ones among them go through `choose_table_access` with the join
//! table's cached statistics, and when the resulting probe set is
//! selective enough that fetching it plus building over the filtered
//! rows beats the unfiltered strategy
//! ([`HASH_BUILD_COST_FACTOR`]` × |right|` for the hash build,
//! `|right| + outer × log₂(outer)` for the merge), the join step carries
//! that path in [`PlannedJoin::build_access`]:
//!
//! - [`BuildHash`](JoinStrategy::BuildHash) builds its key → RowIds map
//!   only over the fetched RowId set
//!   ([`Table::join_map_filtered`](crate::table::Table::join_map_filtered)),
//!   shrinking the build from `|right|` to `selectivity × |right|`
//!   insertions.
//! - [`MergeRange`](JoinStrategy::MergeRange) intersects each matched
//!   bucket with the fetched set; when one of the probes bounds the join
//!   key itself, the ordered-index walk is additionally clamped to those
//!   bounds ([`RangeIndex::entries_range`]).
//!
//! The filtered estimate can flip the build-vs-merge choice in either
//! direction: a selective probe makes a filtered hash build cheaper than
//! walking the full ordered index, while a probe on the join key makes a
//! clamped merge cheaper than any build. Conjuncts consumed by the
//! pushdown are dropped from the residual stages — the fetched set
//! already guarantees them (same exactness machinery as base-table
//! consumption, including the NaN-bucket reconciliation) — so they are
//! never evaluated twice.
//!
//! [`IndexProbe`](JoinStrategy::IndexProbe) joins price the pushdown
//! too, against the probe work it saves rather than a build: fetching
//! the filtered set costs about `selectivity × |right|` once and shrinks
//! every probed bucket's intersection by the same factor, so it is
//! accepted exactly when `fetch + selectivity × probes < probes` (with
//! `probes = outer × avg_bucket`) — a large outer stream against a
//! selective conjunct takes the pre-filter, a handful of point probes
//! keeps the bare bucket. The executor intersects each probed bucket
//! with the fetched set, mirroring the merge path.
//!
//! # Memory budget
//!
//! [`PlanOptions::memory_budget`] bounds the executor's auxiliary
//! memory (see [`super::budget`] for the charge model). Planning reacts
//! in two places. A [`BuildHash`](JoinStrategy::BuildHash) whose priced
//! build-map footprint ([`super::budget::join_build_bytes`] over the
//! post-pushdown cardinality and distinct-key estimates) exceeds the
//! budget's build share is priced with one extra pass over the build
//! side — the partitioning cost — which can flip the choice to
//! [`MergeRange`](JoinStrategy::MergeRange) (which materializes
//! nothing) when both sides are ordered. If the hash build still wins,
//! the step carries [`PlannedJoin::partitions`] > 1 and the executor
//! runs the partitioned build: one partition's map resident at a time,
//! merged back into canonical ascending-RowId order. The join column's
//! MCV statistics supply [`PlannedJoin::hot_keys`] — keys holding at
//! least [`HOT_KEY_FRACTION`] of the build side — which bypass
//! partitioning on a small always-resident map, so skew cannot inflate
//! one partition past the share. The executor re-checks the decision at
//! run time against actual row counts, so a stale estimate degrades
//! (or stays in place) correctly; structures with no graceful fallback
//! fail atomically with
//! [`TxdbError::ResourceExhausted`](crate::TxdbError).
//!
//! `choose_table_access` is shared with the typed API:
//! [`Table::select`](crate::table::Table::select) routes its predicate
//! through the same candidate pricing (with exact hash-bucket sizes when
//! no statistics are available) instead of its former smallest-bucket
//! heuristic.
//!
//! # Selectivity estimation
//!
//! Leaf predicates are priced from [`TableStats`]: equality from the MCV
//! list (clamped to the least tracked frequency for untracked values),
//! ranges from the histogram with the boundary value's equality mass
//! subtracted for strict (`Bound::Excluded`) bounds, both scaled by the
//! column's fill rate so predicates on NULL-heavy columns stop
//! over-estimating (comparisons never match NULL). Conjunctions combine
//! correlation-aware instead of multiplying blindly:
//!
//! - `a = x AND b = y` over a column pair with joint (2-D) MCV
//!   statistics ([`crate::stats::JointStats`], computed for low-distinct
//!   pairs during the stats pass) is priced from the *observed* joint
//!   frequency — the independence product under-estimates badly when the
//!   columns are correlated (city ↔ country), which mis-prices the
//!   intersection cutoff, join order and the build-vs-merge choice.
//! - Conjunct pairs without joint evidence combine with **exponential
//!   backoff**: selectivities sorted ascending contribute
//!   `s₁ · s₂^½ · s₃^¼ · …`, so the most selective conjunct counts in
//!   full while further conjuncts are progressively discounted — the
//!   estimator stays honest about *unknown* correlation instead of
//!   compounding confident errors. Range conjuncts on the same column
//!   are folded into a single histogram probe first (they are the same
//!   dimension, not a correlation hazard).
//!
//! Bad estimates — not bad algorithms — are what flip plans to
//! pathological shapes (cf. the robust dynamic hybrid hash join
//! literature), so the differential suite holds the estimator to
//! absolute q-error bounds against actual result sizes.

use std::ops::Bound;

use crate::database::Database;
use crate::error::{Result, TxdbError};
use crate::index::RangeIndex;
use crate::row::RowId;
use crate::stats::{ColumnStats, TableStats};
use crate::table::Table;
use crate::value::{DataType, Value};

use super::ast::{ColumnRef, SelectStmt, SqlExpr};
use super::budget::{build_partition_count, join_build_bytes};
use crate::predicate::CmpOp;

/// Estimated fraction of rows a predicate may keep while an index lookup
/// is still considered cheaper than a sequential scan.
pub const INDEX_SELECTIVITY_THRESHOLD: f64 = 0.3;

/// The deliberately tight budget of [`PlanOptions::tight_budget`]: small
/// enough that realistic unindexed joins cross the build share and
/// partition, large enough that the other tracked structures (probe
/// sets, sort keys, group maps) never overrun on ordinary data — so the
/// differential suite can run every generated query under it and demand
/// byte-identical results.
pub const TIGHT_BUDGET_BYTES: usize = 64 * 1024;

/// A join key is *hot* when its MCV-tracked bucket holds at least this
/// fraction of the build side's rows — big enough that pinning the
/// bucket resident beats re-materializing it inside a partition.
pub const HOT_KEY_FRACTION: f64 = 1.0 / 16.0;

/// At most this many hot keys get the dedicated resident path; the MCV
/// list is sorted by descending count, so these are the heaviest.
pub const HOT_KEY_LIMIT: usize = 8;

/// Per-row cost weight of inserting into a hash-join build map relative
/// to walking a pre-built ordered index (hashing + bucket allocation vs.
/// a pointer advance). Used when pricing [`JoinStrategy::BuildHash`]
/// against [`JoinStrategy::MergeRange`].
pub const HASH_BUILD_COST_FACTOR: f64 = 2.0;

/// Default rows per morsel of a parallel scan or hash build: large
/// enough that claiming a morsel (one atomic increment) is noise
/// against the per-row work, small enough that a 4-worker pool
/// load-balances a 10k-row table.
pub const MORSEL_ROWS: usize = 1024;

/// A table must hold at least this many rows before the planner
/// parallelizes its scan or hash build: below it, spawning scoped
/// workers costs more than the fetch itself. Two default morsels — the
/// smallest split where a second worker has a whole morsel to claim.
pub const PARALLEL_ROW_THRESHOLD: usize = 2 * MORSEL_ROWS;

/// Estimated fraction of rows a *secondary* probe may keep while fetching
/// its RowId set for the intersection is still considered cheaper than
/// filtering the primary probe's (already small) result. Fetch cost is
/// proportional to the probe's own cardinality, so this is tighter than
/// [`INDEX_SELECTIVITY_THRESHOLD`].
pub const INTERSECT_SELECTIVITY_THRESHOLD: f64 = 0.2;

/// One output position of a (possibly joined) row stream.
#[derive(Debug, Clone)]
pub struct Slot {
    /// Ordinal of the owning table in FROM-order (0 = base table).
    pub table_ord: usize,
    /// Column index within the owning table's schema.
    pub col_idx: usize,
    /// Owning table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// Column type.
    pub ty: DataType,
}

/// Column layout of the row stream produced by `FROM base JOIN ...`.
#[derive(Debug, Clone)]
pub struct Layout {
    pub slots: Vec<Slot>,
    /// Number of tables (base + joins).
    pub tables: usize,
}

impl Layout {
    /// Build the full layout for a SELECT (base table plus all joins).
    pub fn build(db: &Database, sel: &SelectStmt) -> Result<Layout> {
        let mut layout = Layout {
            slots: Vec::new(),
            tables: 0,
        };
        layout.push_table(db, &sel.table)?;
        for join in &sel.joins {
            layout.push_table(db, &join.table)?;
        }
        Ok(layout)
    }

    fn push_table(&mut self, db: &Database, table: &str) -> Result<()> {
        let t = db.table(table)?;
        let ord = self.tables;
        for (i, c) in t.schema().columns().iter().enumerate() {
            self.slots.push(Slot {
                table_ord: ord,
                col_idx: i,
                table: table.to_string(),
                column: c.name.clone(),
                ty: c.ty,
            });
        }
        self.tables += 1;
        Ok(())
    }

    /// Resolve a column reference over the whole layout: exactly one slot
    /// must match (qualified references match name + table).
    pub fn resolve(&self, r: &ColumnRef) -> Result<usize> {
        self.resolve_prefix(r, self.tables)
    }

    /// Resolve against only the first `tables` tables — used for join keys,
    /// which (as before the planner) may only reference tables already in
    /// the FROM-order stream.
    pub fn resolve_prefix(&self, r: &ColumnRef, tables: usize) -> Result<usize> {
        let mut found: Option<usize> = None;
        for (i, s) in self.slots.iter().enumerate() {
            if s.table_ord >= tables {
                break;
            }
            if s.column == r.column && r.table.as_ref().is_none_or(|rt| rt == &s.table) {
                if found.is_some() {
                    return Err(TxdbError::Parse(format!(
                        "ambiguous column reference `{r}`"
                    )));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| TxdbError::UnknownColumn {
            table: r.table.clone().unwrap_or_else(|| "<any>".into()),
            column: r.column.clone(),
        })
    }
}

/// One index probe of an access path: fetches a RowId set from a single
/// index, to be intersected with its siblings.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexProbe {
    /// Hash-index point lookup: `column = value`.
    Eq { column: String, value: Value },
    /// Ordered-index range probe over `column`.
    Range {
        column: String,
        lo: Bound<Value>,
        hi: Bound<Value>,
        /// Whether a NaN cell satisfies every folded conjunct. The
        /// engine's comparison semantics collapse `NaN <op> float` to
        /// `Equal`, so NaN cells pass `>=`/`<=` (against a float
        /// literal) but fail `<`, `>` and `=` — while the ordered index
        /// sorts NaN above every number, i.e. inside the range exactly
        /// when the upper bound is unbounded. [`IndexProbe::fetch`]
        /// reconciles the two so consumed conjuncts and the typed
        /// superset invariant stay exact.
        include_nan: bool,
    },
}

impl IndexProbe {
    /// The probed column.
    pub fn column(&self) -> &str {
        match self {
            IndexProbe::Eq { column, .. } | IndexProbe::Range { column, .. } => column,
        }
    }

    /// Fetch the probe's RowId set, sorted ascending.
    pub fn fetch(&self, table: &Table) -> Result<Vec<RowId>> {
        match self {
            IndexProbe::Eq { column, value } => {
                // `lookup` guarantees ascending RowId order (buckets are
                // maintained sorted; the scan fallback walks id order).
                table.lookup(column, value)
            }
            IndexProbe::Range {
                column,
                lo,
                hi,
                include_nan,
            } => {
                // RangeIndex::range already returns ascending ids.
                let mut rids = table.range_lookup(column, lo.as_ref(), hi.as_ref())?;
                // NaN cells sort above every number in the ordered index,
                // so they land in the fetched range exactly when the
                // upper bound is unbounded — which may disagree with
                // whether predicate evaluation accepts them (see
                // `include_nan`). Add or strip the NaN bucket to match.
                let nan_in_range = matches!(hi, Bound::Unbounded);
                if *include_nan != nan_in_range {
                    let nan = Value::Float(f64::NAN);
                    let nan_ids =
                        table.range_lookup(column, Bound::Included(&nan), Bound::Included(&nan))?;
                    if !nan_ids.is_empty() {
                        if *include_nan {
                            rids.extend(nan_ids);
                            rids.sort_unstable();
                        } else {
                            rids.retain(|r| nan_ids.binary_search(r).is_err());
                        }
                    }
                }
                Ok(rids)
            }
        }
    }

    /// Whether `row` would be in this probe's fetched set if it were the
    /// table's newest version — the per-row form of [`IndexProbe::fetch`].
    /// MVCC-visible execution uses it to re-verify consumed conjuncts
    /// against the *visible* version of a row: indexes hold the union of
    /// every version's keys, so a fetched set read under a snapshot is a
    /// superset that may admit rids whose visible cell no longer matches.
    pub fn matches_row(&self, table: &Table, row: &crate::row::Row) -> Result<bool> {
        let idx = table.schema().require_column(self.column())?;
        let cell = row.get(idx).unwrap_or(&Value::Null);
        if cell.is_null() {
            // Neither index kind ever holds NULL cells.
            return Ok(false);
        }
        Ok(match self {
            // Hash buckets are keyed by canonical value equality.
            IndexProbe::Eq { value, .. } => cell == value,
            IndexProbe::Range {
                lo,
                hi,
                include_nan,
                ..
            } => {
                if matches!(cell, Value::Float(f) if f.is_nan()) {
                    // NaN sorts above every number; `fetch` adds or strips
                    // the NaN bucket to match predicate semantics.
                    *include_nan
                } else {
                    use crate::index::OrdKey;
                    use std::cmp::Ordering;
                    let above_lo = match lo {
                        Bound::Unbounded => true,
                        Bound::Included(v) => OrdKey::cmp_values(cell, v) != Ordering::Less,
                        Bound::Excluded(v) => OrdKey::cmp_values(cell, v) == Ordering::Greater,
                    };
                    let below_hi = match hi {
                        Bound::Unbounded => true,
                        Bound::Included(v) => OrdKey::cmp_values(cell, v) != Ordering::Greater,
                        Bound::Excluded(v) => OrdKey::cmp_values(cell, v) == Ordering::Less,
                    };
                    above_lo && below_hi
                }
            }
        })
    }
}

/// How the executor reaches the base table's rows.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Sequential scan of all rows.
    FullScan,
    /// One or more index probes; their RowId sets are intersected
    /// (smallest actual set first).
    Index(Vec<IndexProbe>),
}

impl AccessPath {
    /// Short form for logs/tests: `scan`, `index_eq(col)`,
    /// `index_range(col)`, `index_and(col1&col2)`.
    pub fn describe(&self) -> String {
        match self {
            AccessPath::FullScan => "scan".to_string(),
            AccessPath::Index(probes) => match probes.as_slice() {
                [IndexProbe::Eq { column, .. }] => format!("index_eq({column})"),
                [IndexProbe::Range { column, .. }] => format!("index_range({column})"),
                many => {
                    let cols: Vec<&str> = many.iter().map(IndexProbe::column).collect();
                    format!("index_and({})", cols.join("&"))
                }
            },
        }
    }

    /// Fetch and intersect the probes' RowId sets; `None` for a scan.
    /// The result is sorted ascending (canonical scan order).
    pub fn fetch_row_ids(&self, table: &Table) -> Result<Option<Vec<RowId>>> {
        let AccessPath::Index(probes) = self else {
            return Ok(None);
        };
        let mut sets = Vec::with_capacity(probes.len());
        for p in probes {
            sets.push(p.fetch(table)?);
        }
        // Intersect smallest-first: the running result can only shrink, so
        // starting from the smallest set minimizes merge work.
        sets.sort_by_key(Vec::len);
        let mut iter = sets.into_iter();
        let mut acc = iter.next().unwrap_or_default();
        for set in iter {
            if acc.is_empty() {
                break;
            }
            acc = intersect_sorted(&acc, &set);
        }
        Ok(Some(acc))
    }

    /// Per-row form of [`AccessPath::fetch_row_ids`]: whether `row`
    /// satisfies every probe. `FullScan` matches everything. Used by
    /// MVCC-visible execution to re-verify a superset fetch against the
    /// visible version of each row.
    pub fn matches_row(&self, table: &Table, row: &crate::row::Row) -> Result<bool> {
        let AccessPath::Index(probes) = self else {
            return Ok(true);
        };
        for p in probes {
            if !p.matches_row(table, row)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Two-pointer intersection of ascending RowId vectors. Shared with the
/// executor's merge join, which intersects matched buckets with a
/// build-side pushdown's fetched RowId set.
pub(crate) fn intersect_sorted(a: &[RowId], b: &[RowId]) -> Vec<RowId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Execution knobs of the planner: the memory budget and intra-query
/// parallelism. They shape memory behaviour and the plan's operators,
/// never results.
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Execution memory budget in bytes. When set, every materializing
    /// executor structure charges an [`ExecBudget`](super::budget::ExecBudget);
    /// hash builds whose priced footprint exceeds the build share
    /// degrade to the partitioned path (see
    /// [`PlannedJoin::partitions`]), and anything else that overruns
    /// fails atomically with
    /// [`TxdbError::ResourceExhausted`](crate::error::TxdbError).
    /// `None` (the default) tracks nothing and never degrades. Never
    /// affects results — only memory behavior and the plan's build
    /// shape.
    pub memory_budget: Option<usize>,
    /// Degree of intra-query parallelism: base-table scans and hash-join
    /// builds over at least [`parallel_row_threshold`](Self::parallel_row_threshold)
    /// rows split into [`morsel_rows`](Self::morsel_rows)-sized morsels
    /// executed on a scoped-thread pool of this many workers (see
    /// `sql::pool`). `1` — the default — is today's exact serial code
    /// path; the default is overridable via the `TXDB_THREADS`
    /// environment variable (read once per process). Never affects
    /// results: every parallel merge recombines locally-ordered partials
    /// into the canonical ascending-RowId order, byte-identical to the
    /// serial stream.
    pub worker_threads: usize,
    /// Rows per morsel of a parallel scan or build ([`MORSEL_ROWS`] by
    /// default). Tests and the differential `parallel` shape shrink it
    /// so tiny corpus tables still exercise the parallel operators.
    pub morsel_rows: usize,
    /// Minimum table rows before the planner parallelizes an operator
    /// over it ([`PARALLEL_ROW_THRESHOLD`] by default).
    pub parallel_row_threshold: usize,
}

/// The process-wide `TXDB_THREADS` override for
/// [`PlanOptions::worker_threads`], read once: unset, unparsable or
/// zero means the serial default of 1.
fn default_worker_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("TXDB_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1)
    })
}

impl Default for PlanOptions {
    fn default() -> PlanOptions {
        PlanOptions {
            // The `tight-budget` feature flips the *default* to the
            // differential suite's tight budget, so CI can run the whole
            // test suite with the degradation paths live.
            memory_budget: if cfg!(feature = "tight-budget") {
                Some(TIGHT_BUDGET_BYTES)
            } else {
                None
            },
            worker_threads: default_worker_threads(),
            morsel_rows: MORSEL_ROWS,
            parallel_row_threshold: PARALLEL_ROW_THRESHOLD,
        }
    }
}

impl PlanOptions {
    /// The PR 6 robustness shape: the full planner under a deliberately
    /// tight [`memory_budget`](PlanOptions::memory_budget)
    /// ([`TIGHT_BUDGET_BYTES`]). Hash builds that cross the build share
    /// partition (with MCV hot keys pinned resident) and every
    /// materializing structure is tracked — a differential suite shape,
    /// which must agree byte-for-byte with the unbudgeted planner on
    /// every generated query.
    pub fn tight_budget() -> PlanOptions {
        PlanOptions {
            memory_budget: Some(TIGHT_BUDGET_BYTES),
            ..PlanOptions::default()
        }
    }

    /// The PR 9 parallel shape: the full planner with a 4-worker morsel
    /// pool, thresholds shrunk so even the differential corpus's tiny
    /// tables split into multiple morsels — every eligible scan and
    /// hash build actually runs parallel. Must agree byte-for-byte with
    /// the reference executor on every generated query; production
    /// defaults keep the larger [`MORSEL_ROWS`] /
    /// [`PARALLEL_ROW_THRESHOLD`] and opt in via `TXDB_THREADS`.
    pub fn parallel() -> PlanOptions {
        PlanOptions {
            worker_threads: 4,
            morsel_rows: 4,
            parallel_row_threshold: 8,
            ..PlanOptions::default()
        }
    }

    /// The degree of parallelism the planner grants an operator over
    /// `rows` input rows: the configured pool size when the row count
    /// clears [`parallel_row_threshold`](Self::parallel_row_threshold),
    /// serial otherwise. The executor additionally clamps to the actual
    /// morsel count at run time.
    pub(crate) fn parallel_degree(&self, rows: usize) -> usize {
        if self.worker_threads > 1 && rows >= self.parallel_row_threshold.max(2) {
            self.worker_threads
        } else {
            1
        }
    }
}

/// How one join step reaches the matching rows of its right (newly
/// joined) table. Chosen by the planner from index availability and the
/// build-vs-probe cost model (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Per-outer-tuple probe of the right side's sorted hash-index
    /// bucket — today's path, kept whenever a hash index exists on the
    /// join column. Falls back to a per-key scan when the index
    /// disappears under the plan (defensive; the planner never picks it
    /// for an unindexed column).
    IndexProbe,
    /// Build a key → RowIds map over the whole right side once
    /// ([`Table::join_map`]), then probe it per outer tuple. NULL and
    /// NaN keys are excluded at build time (SQL join semantics); Int and
    /// Float keys unify through [`Value`]'s canonical hash/equality.
    BuildHash,
    /// Merge the outer tuples (sorted by join key) against the right
    /// side's ordered index entries — no build allocation at all. Only
    /// eligible when both sides of the ON key have an ordered index.
    MergeRange,
}

impl JoinStrategy {
    /// Short form for plan summaries: `probe`, `hash`, `merge`.
    pub fn describe(&self) -> &'static str {
        match self {
            JoinStrategy::IndexProbe => "probe",
            JoinStrategy::BuildHash => "hash",
            JoinStrategy::MergeRange => "merge",
        }
    }
}

/// One join with its key references resolved (in FROM-order semantics, so
/// resolution errors are independent of the chosen execution order).
#[derive(Debug, Clone)]
pub struct PlannedJoin {
    /// Index into `sel.joins`.
    pub from_idx: usize,
    /// FROM ordinal of the newly joined table (`from_idx + 1`).
    pub table_ord: usize,
    /// Joined table name.
    pub table: String,
    /// Layout position of the already-bound side of the ON key.
    pub left_slot: usize,
    /// Join column on the newly joined table.
    pub right_col: String,
    /// How the executor reaches this table's matching rows.
    pub strategy: JoinStrategy,
    /// Build-side pushdown: the access path over this table's own
    /// single-table conjuncts, when pre-filtering the build side was
    /// priced cheaper than the unfiltered strategy. `FullScan` means no
    /// pushdown — the whole right side is hashed/walked, and every
    /// join-side conjunct runs as a staged residual filter.
    pub build_access: AccessPath,
    /// Number of build-side hash partitions for a
    /// [`BuildHash`](JoinStrategy::BuildHash) step. `1` is the ordinary
    /// in-place build; `> 1` means the priced build footprint exceeded
    /// the memory budget's build share, so the executor hash-partitions
    /// the build side and keeps only one partition's map resident at a
    /// time (hot keys aside), merging matches back into the canonical
    /// ascending-RowId, outer-stream order.
    pub partitions: usize,
    /// Join keys whose MCV statistics mark them *hot* (≥
    /// [`HOT_KEY_FRACTION`] of the build side): when the build
    /// partitions, their buckets are built once into a small dedicated
    /// map that stays resident across all partitions, so the skewed
    /// majority of probes never waits on partition scheduling. Empty
    /// unless `partitions > 1`.
    pub hot_keys: Vec<Value>,
    /// The planner's estimated stream cardinality *after* this join
    /// executes — the running outer estimate of the strategy-assignment
    /// pass (`assign_strategies`) advanced past this step. `EXPLAIN`
    /// prints it per operator node so estimator drift is visible
    /// mid-plan, not only at the final result.
    pub estimated_rows: f64,
    /// Workers granted to this step's hash build
    /// (`PlanOptions::parallel_degree` over the rows entering the
    /// build). `1` is the serial build; `> 1` splits the in-place build
    /// into morsel-built partial maps merged in morsel order — or, when
    /// [`partitions`](Self::partitions) `> 1`, runs the (embarrassingly
    /// parallel) partitions on the worker pool. Either way the merged
    /// result is byte-identical to the serial build. Only meaningful
    /// for [`BuildHash`](JoinStrategy::BuildHash) steps.
    pub build_workers: usize,
}

/// The plan for one `SELECT`: access path, join order, staged filters.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    /// Full column layout (base + joins), always in FROM order.
    pub layout: Layout,
    /// How base-table rows are produced.
    pub access: AccessPath,
    /// Base-only conjuncts evaluated before joins (excluding any the
    /// access path already guarantees).
    pub pushed: Vec<SqlExpr>,
    /// Joins in execution order (a permutation of FROM order).
    pub join_order: Vec<PlannedJoin>,
    /// `stages[k]` holds the conjuncts evaluated right after
    /// `join_order[k]` executes — the earliest level at which all their
    /// tables are bound.
    pub stages: Vec<Vec<SqlExpr>>,
    /// Estimated fraction of base rows surviving the access path.
    pub estimated_selectivity: f64,
    /// Estimated post-filter row count per FROM ordinal (drives the
    /// greedy join order).
    pub table_cards: Vec<f64>,
    /// Estimated base-table rows surviving the access path *and* every
    /// pushed filter — the planner's cardinality claim the differential
    /// estimator-accuracy harness holds against actual result sizes
    /// (q-error).
    pub estimated_base_rows: f64,
    /// Workers granted to the base-table fetch
    /// (`PlanOptions::parallel_degree` over the base table's rows).
    /// `1` lowers to the serial `Scan`/`IndexScan` leaf — today's exact
    /// code path; `> 1` lowers to the morsel-parallel `Exchange` leaf,
    /// which fuses the pushed filter into its workers and merges
    /// partials back into canonical ascending-RowId order.
    pub scan_workers: usize,
    /// Rows per morsel for this plan's parallel operators (from
    /// [`PlanOptions::morsel_rows`]; the executor clamps workers to the
    /// actual morsel count at run time).
    pub morsel_rows: usize,
}

impl SelectPlan {
    /// Conjuncts evaluated at join levels (flattened, for diagnostics).
    pub fn staged_count(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// Whether the join execution order differs from FROM order.
    pub fn joins_reordered(&self) -> bool {
        self.join_order
            .iter()
            .enumerate()
            .any(|(i, j)| j.from_idx != i)
    }

    /// Number of joins whose build side is pre-filtered by its own
    /// access path (see [`PlannedJoin::build_access`]). Used by tests and
    /// the differential tally to assert the pushdown path executes.
    pub fn prefiltered_join_count(&self) -> usize {
        self.join_order
            .iter()
            .filter(|j| j.build_access != AccessPath::FullScan)
            .count()
    }

    /// Number of joins whose hash build runs partitioned under the
    /// memory budget (see [`PlannedJoin::partitions`]). Used by tests
    /// and the differential tally to assert the degradation path
    /// executes.
    pub fn partitioned_count(&self) -> usize {
        self.join_order.iter().filter(|j| j.partitions > 1).count()
    }

    /// Number of operators this plan runs on the worker pool: the
    /// parallel base fetch plus every parallel hash build. Used by the
    /// differential tally to assert the parallel operators actually
    /// execute under the `parallel` shape.
    pub fn parallel_count(&self) -> usize {
        usize::from(self.scan_workers > 1)
            + self
                .join_order
                .iter()
                .filter(|j| j.strategy == JoinStrategy::BuildHash && j.build_workers > 1)
                .count()
    }

    /// One-line summary, e.g.
    /// `index_and(genre&rating) sel=0.012 pushed=1 staged=2 order=[1:probe,0:hash+pf]`
    /// — `+pf` marks a join whose build side is pre-filtered by a
    /// pushdown access path, `+partN` a hash build running in `N`
    /// budget-bounded partitions (`+hot` when MCV hot keys ride the
    /// dedicated resident path).
    pub fn describe(&self) -> String {
        let order: Vec<String> = self
            .join_order
            .iter()
            .map(|j| {
                let pf = if j.build_access == AccessPath::FullScan {
                    ""
                } else {
                    "+pf"
                };
                let part = if j.partitions > 1 {
                    format!(
                        "+part{}{}",
                        j.partitions,
                        if j.hot_keys.is_empty() { "" } else { "+hot" }
                    )
                } else {
                    String::new()
                };
                format!("{}:{}{pf}{part}", j.from_idx, j.strategy.describe())
            })
            .collect();
        format!(
            "{} sel={:.3} pushed={} staged={} order=[{}]",
            self.access.describe(),
            self.estimated_selectivity,
            self.pushed.len(),
            self.staged_count(),
            order.join(",")
        )
    }
}

/// Split a WHERE tree at top-level `AND`s.
fn conjuncts(expr: &SqlExpr, out: &mut Vec<SqlExpr>) {
    match expr {
        SqlExpr::And(a, b) => {
            conjuncts(a, out);
            conjuncts(b, out);
        }
        other => out.push(other.clone()),
    }
}

/// The set of FROM ordinals referenced by `expr`, or `Err` when any
/// column fails to resolve (unknown or ambiguous) over the full layout.
fn referenced_ords(layout: &Layout, expr: &SqlExpr, out: &mut Vec<usize>) -> Result<()> {
    let mut push = |c: &ColumnRef| -> Result<()> {
        let slot = layout.resolve(c)?;
        let ord = layout.slots[slot].table_ord;
        if !out.contains(&ord) {
            out.push(ord);
        }
        Ok(())
    };
    match expr {
        SqlExpr::Cmp { column, .. }
        | SqlExpr::Like { column, .. }
        | SqlExpr::IsNull { column, .. } => push(column),
        SqlExpr::And(a, b) | SqlExpr::Or(a, b) => {
            referenced_ords(layout, a, out)?;
            referenced_ords(layout, b, out)
        }
        SqlExpr::Not(a) => referenced_ords(layout, a, out),
    }
}

/// A sargable candidate: conjunct index, column, op, coerced literal.
pub(crate) struct Sarg {
    pub conjunct: usize,
    pub column: String,
    pub op: CmpOp,
    pub value: Value,
}

/// Map a value onto the histogram's numeric axis (same convention as
/// [`crate::stats`]).
fn numeric_axis(v: &Value) -> Option<f64> {
    match v {
        Value::Date(d) => Some(d.day_number() as f64),
        other => other.as_float(),
    }
}

/// Selectivity of `column = value` as a fraction of **all** rows: the
/// MCV/uniform estimate (a fraction of non-null values) scaled by the
/// fill rate, since an equality never matches NULL.
fn eq_selectivity(stats: Option<&ColumnStats>, value: &Value) -> f64 {
    match stats {
        Some(s) => s.eq_selectivity(value) * s.fill_rate(),
        None => 1.0 / 3.0,
    }
}

/// Selectivity of a range probe as a fraction of **all** rows. The
/// histogram treats both bounds inclusively (it only sees the numeric
/// axis), so for a strict bound the boundary value's own equality mass is
/// subtracted — `x > hi` no longer prices like `x >= hi` on integer
/// columns — and the non-null histogram fraction is scaled by the fill
/// rate, since comparisons never match NULL.
fn range_selectivity(stats: Option<&ColumnStats>, lo: &Bound<Value>, hi: &Bound<Value>) -> f64 {
    let Some(s) = stats else { return 1.0 / 3.0 };
    let Some(h) = &s.histogram else {
        return 1.0 / 3.0 * s.fill_rate();
    };
    let lo_f = match lo {
        Bound::Included(v) | Bound::Excluded(v) => numeric_axis(v),
        Bound::Unbounded => Some(h.min),
    };
    let hi_f = match hi {
        Bound::Included(v) | Bound::Excluded(v) => numeric_axis(v),
        Bound::Unbounded => Some(h.max),
    };
    let mut est = match (lo_f, hi_f) {
        (Some(a), Some(b)) => h.range_selectivity(a, b),
        _ => return 1.0 / 3.0 * s.fill_rate(),
    };
    // Subtract only when the boundary lies inside the histogram's value
    // range — outside it the histogram already contributes no mass, and
    // `eq_selectivity`'s uniform estimate for an unseen value would
    // subtract phantom rows (e.g. `x > -1000` pricing below 1.0).
    let mut exclude_boundary = |b: &Bound<Value>| {
        if let Bound::Excluded(v) = b {
            if numeric_axis(v).is_some_and(|x| x >= h.min && x <= h.max) {
                est -= s.eq_selectivity(v);
            }
        }
    };
    exclude_boundary(lo);
    exclude_boundary(hi);
    (est.max(0.0) * s.fill_rate()).clamp(0.0, 1.0)
}

/// Per-column accumulator while folding sargable conjuncts into one
/// range probe.
struct ColumnBounds<'a> {
    column: &'a str,
    bounds: (Bound<Value>, Bound<Value>),
    used: Vec<usize>,
    /// Whether a NaN cell satisfies *every* folded conjunct: only
    /// non-strict comparisons against a float literal accept NaN under
    /// the engine's `partial_cmp` collapse (see
    /// [`IndexProbe::Range::include_nan`]).
    nan_ok: bool,
}

/// Whether a NaN cell passes `cell <op> value` under predicate
/// evaluation semantics.
fn nan_passes(op: CmpOp, value: &Value) -> bool {
    matches!(op, CmpOp::Ge | CmpOp::Le) && matches!(value, Value::Float(_))
}

/// Fold `op value` into an accumulating bound pair.
fn tighten(bounds: &mut (Bound<Value>, Bound<Value>), op: CmpOp, value: &Value) {
    let (lo, hi) = bounds;
    match op {
        CmpOp::Eq => {
            *lo = tighter_lo(lo, Bound::Included(value.clone()));
            *hi = tighter_hi(hi, Bound::Included(value.clone()));
        }
        CmpOp::Gt => *lo = tighter_lo(lo, Bound::Excluded(value.clone())),
        CmpOp::Ge => *lo = tighter_lo(lo, Bound::Included(value.clone())),
        CmpOp::Lt => *hi = tighter_hi(hi, Bound::Excluded(value.clone())),
        CmpOp::Le => *hi = tighter_hi(hi, Bound::Included(value.clone())),
        CmpOp::Ne => {}
    }
}

fn tighter_lo(current: &Bound<Value>, new: Bound<Value>) -> Bound<Value> {
    let newer = match (&current, &new) {
        (Bound::Unbounded, _) => true,
        (_, Bound::Unbounded) => false,
        (Bound::Included(c) | Bound::Excluded(c), Bound::Included(n) | Bound::Excluded(n)) => {
            match n.partial_cmp(c) {
                Some(std::cmp::Ordering::Greater) => true,
                Some(std::cmp::Ordering::Equal) => {
                    // Excluded is tighter than Included for a lower bound.
                    matches!(new, Bound::Excluded(_)) && matches!(current, Bound::Included(_))
                }
                _ => false,
            }
        }
    };
    if newer {
        new
    } else {
        current.clone()
    }
}

fn tighter_hi(current: &Bound<Value>, new: Bound<Value>) -> Bound<Value> {
    let newer = match (&current, &new) {
        (Bound::Unbounded, _) => true,
        (_, Bound::Unbounded) => false,
        (Bound::Included(c) | Bound::Excluded(c), Bound::Included(n) | Bound::Excluded(n)) => {
            match n.partial_cmp(c) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Equal) => {
                    matches!(new, Bound::Excluded(_)) && matches!(current, Bound::Included(_))
                }
                _ => false,
            }
        }
    };
    if newer {
        new
    } else {
        current.clone()
    }
}

/// Price every sargable candidate against `table` and assemble the access
/// path: the cheapest probe below [`INDEX_SELECTIVITY_THRESHOLD`] becomes
/// primary; further probes on *other* columns join the intersection while
/// estimated at or below [`INTERSECT_SELECTIVITY_THRESHOLD`].
///
/// With statistics, equality is priced from the MCV list and ranges from
/// the histogram. Without (the typed `Table::select` path), equality uses
/// the exact hash-bucket size — an exact statistic maintained for free —
/// and ranges fall back to the uninformative 1/3 guess, which never
/// clears the thresholds.
///
/// Joint statistics feed the intersection decision: an equality probe
/// whose tracked joint frequency against an already-chosen equality shows
/// it would shrink the intersection by less than
/// [`INTERSECT_SELECTIVITY_THRESHOLD`] is declined — fetching a
/// (near-)redundant RowId set and merging it is pure waste next to
/// filtering the primary probe's rows. The combined estimate uses joint
/// frequencies and exponential backoff instead of the independence
/// product. Backoff alone never declines a probe: it widens the estimate
/// to hedge *unknown* correlation, while a decline needs the positive
/// evidence only joint statistics provide.
///
/// Returns `(path, estimated selectivity, consumed sarg indices)`.
pub(crate) fn choose_table_access(
    table: &Table,
    stats: Option<&TableStats>,
    sargs: &[Sarg],
) -> (AccessPath, f64, Vec<usize>) {
    if sargs.is_empty() || table.is_empty() {
        return (AccessPath::FullScan, 1.0, Vec::new());
    }
    let nrows = table.len() as f64;
    // (probe, estimated selectivity, consumed sarg indices)
    let mut candidates: Vec<(IndexProbe, f64, Vec<usize>)> = Vec::new();
    for (i, s) in sargs.iter().enumerate() {
        if s.op == CmpOp::Eq && table.has_index(&s.column) {
            let est = match stats {
                Some(st) => eq_selectivity(st.column(&s.column), &s.value),
                None => table.index_bucket_len(&s.column, &s.value).unwrap_or(0) as f64 / nrows,
            };
            candidates.push((
                IndexProbe::Eq {
                    column: s.column.clone(),
                    value: s.value.clone(),
                },
                est,
                vec![i],
            ));
        }
    }
    // Range probes over an ordered index, folding per-column bounds.
    let mut by_column: Vec<ColumnBounds> = Vec::new();
    for (i, s) in sargs.iter().enumerate() {
        if !table.has_range_index(&s.column) {
            continue;
        }
        // NaN cannot fold into ordered bounds (`partial_cmp` is `None`, so
        // `tighten` would silently drop it while the conjunct got marked
        // consumed). Leave such conjuncts as plain filters, where they
        // evaluate to false as before.
        if matches!(&s.value, Value::Float(f) if f.is_nan()) {
            continue;
        }
        match by_column.iter_mut().find(|b| b.column == s.column) {
            Some(b) => {
                tighten(&mut b.bounds, s.op, &s.value);
                b.used.push(i);
                b.nan_ok &= nan_passes(s.op, &s.value);
            }
            None => {
                let mut bounds = (Bound::Unbounded, Bound::Unbounded);
                tighten(&mut bounds, s.op, &s.value);
                by_column.push(ColumnBounds {
                    column: &s.column,
                    bounds,
                    used: vec![i],
                    nan_ok: nan_passes(s.op, &s.value),
                });
            }
        }
    }
    for b in by_column {
        let (lo, hi) = b.bounds;
        let est = match stats {
            Some(st) => range_selectivity(st.column(b.column), &lo, &hi),
            None => 1.0 / 3.0,
        };
        candidates.push((
            IndexProbe::Range {
                column: b.column.to_string(),
                lo,
                hi,
                include_nan: b.nan_ok,
            },
            est,
            b.used,
        ));
    }
    // Cheapest-first; the stable sort keeps candidate insertion order on
    // ties, so plans are deterministic.
    candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut probes: Vec<IndexProbe> = Vec::new();
    let mut consumed: Vec<usize> = Vec::new();
    // Chosen probe estimates, with the (column, value) of equality probes
    // so the combined estimate can pair them through joint statistics.
    let mut chosen: Vec<(f64, Option<(String, Value)>)> = Vec::new();
    for (probe, est, used) in candidates {
        let threshold = if probes.is_empty() {
            INDEX_SELECTIVITY_THRESHOLD
        } else {
            INTERSECT_SELECTIVITY_THRESHOLD
        };
        if est > threshold {
            break;
        }
        // One probe per column: a second probe on the same column (e.g. a
        // hash and a range index both exist) cannot shrink the result.
        if probes.iter().any(|p| p.column() == probe.column()) {
            continue;
        }
        // Joint-stats redundancy check: decline a probe whose observed
        // conditional shrink against an already-chosen equality is too
        // small to pay for fetching its RowId set. (`continue`, not
        // `break` — a later candidate on an uncorrelated column may still
        // shrink the intersection.)
        if !chosen.is_empty() {
            if let (IndexProbe::Eq { column, value }, Some(st)) = (&probe, stats) {
                let redundant = chosen.iter().any(|(pest, info)| {
                    info.as_ref().is_some_and(|(pc, pv)| {
                        st.joint_selectivity(pc, pv, column, value)
                            .is_some_and(|j| {
                                j / pest.max(f64::MIN_POSITIVE) > INTERSECT_SELECTIVITY_THRESHOLD
                            })
                    })
                });
                if redundant {
                    continue;
                }
            }
        }
        for u in used {
            if !consumed.contains(&u) {
                consumed.push(u);
            }
        }
        let eq_info = match &probe {
            IndexProbe::Eq { column, value } => Some((column.clone(), value.clone())),
            IndexProbe::Range { .. } => None,
        };
        chosen.push((est, eq_info));
        probes.push(probe);
    }
    if probes.is_empty() {
        return (AccessPath::FullScan, 1.0, Vec::new());
    }
    let combined = combine_probe_estimates(stats, &chosen);
    consumed.sort_unstable();
    (AccessPath::Index(probes), combined, consumed)
}

/// Combined selectivity of the chosen probes: equality pairs with joint
/// statistics contribute their observed joint frequency as a single term
/// and the terms combine with [`backoff_and`].
fn combine_probe_estimates(
    stats: Option<&TableStats>,
    chosen: &[(f64, Option<(String, Value)>)],
) -> f64 {
    if chosen.len() < 2 {
        return chosen.iter().map(|(est, _)| est).product();
    }
    let mut used = vec![false; chosen.len()];
    let mut terms: Vec<f64> = Vec::new();
    if let Some(st) = stats {
        for a in 0..chosen.len() {
            if used[a] {
                continue;
            }
            let Some((ca, va)) = &chosen[a].1 else {
                continue;
            };
            for b in a + 1..chosen.len() {
                if used[b] {
                    continue;
                }
                let Some((cb, vb)) = &chosen[b].1 else {
                    continue;
                };
                if let Some(s) = st.joint_selectivity(ca, va, cb, vb) {
                    terms.push(s);
                    used[a] = true;
                    used[b] = true;
                    break;
                }
            }
        }
    }
    for (i, (est, _)) in chosen.iter().enumerate() {
        if !used[i] {
            terms.push(*est);
        }
    }
    backoff_and(terms)
}

/// Combine AND'd conjunct selectivities with exponential backoff: sorted
/// ascending, `s₁ · s₂^½ · s₃^¼ · …`. The most selective conjunct counts
/// in full; each further conjunct contributes with a halved exponent, so
/// unknown correlation cannot compound into an arbitrarily over-confident
/// under-estimate the way the raw product does.
fn backoff_and(mut sels: Vec<f64>) -> f64 {
    sels.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut combined = 1.0f64;
    let mut exponent = 1.0f64;
    for s in sels {
        combined *= s.clamp(0.0, 1.0).powf(exponent);
        exponent /= 2.0;
    }
    combined.clamp(0.0, 1.0)
}

/// Flatten an `AND` tree into its conjuncts, borrowed.
fn and_parts<'e>(expr: &'e SqlExpr, out: &mut Vec<&'e SqlExpr>) {
    match expr {
        SqlExpr::And(a, b) => {
            and_parts(a, out);
            and_parts(b, out);
        }
        other => out.push(other),
    }
}

/// Estimated fraction of a single table's rows kept by the conjunction of
/// `parts`:
///
/// 1. range conjuncts on the *same* column are folded into one bound
///    pair and priced as a single range term (`price > 5 AND price <= 9`
///    is one histogram probe, not a product of two); an equality on a
///    column that also carries range conjuncts folds into that bound
///    pair too — same dimension, not a correlation hazard;
/// 2. remaining equality pairs whose columns carry joint statistics are
///    priced from the observed joint frequency (one term for the pair);
/// 3. everything else is priced per conjunct;
/// 4. the terms are combined with [`backoff_and`].
fn and_selectivity(stats: &TableStats, layout: &Layout, parts: &[&SqlExpr]) -> f64 {
    let resolve = |c: &ColumnRef| -> Option<&str> {
        let slot = layout.resolve(c).ok()?;
        Some(layout.slots[slot].column.as_str())
    };
    /// Per-column fold of range conjuncts into one bound pair.
    struct Fold<'a> {
        column: &'a str,
        bounds: (Bound<Value>, Bound<Value>),
        conjuncts: Vec<usize>,
    }
    let mut used = vec![false; parts.len()];
    let mut terms: Vec<f64> = Vec::new();
    // Equality leaves eligible for joint-stats pairing.
    let mut eqs: Vec<(usize, &str, &Value)> = Vec::new();
    // Foldable comparison leaves, accumulated per column.
    let mut folds: Vec<Fold> = Vec::new();
    for (i, e) in parts.iter().enumerate() {
        let SqlExpr::Cmp { column, op, value } = e else {
            continue;
        };
        if value.is_null() || matches!(value, Value::Float(f) if f.is_nan()) {
            continue; // NULL/NaN literals stay generic leaves.
        }
        let Some(col) = resolve(column) else { continue };
        match op {
            CmpOp::Eq => eqs.push((i, col, value)),
            CmpOp::Gt | CmpOp::Ge | CmpOp::Lt | CmpOp::Le => {
                match folds.iter_mut().find(|f| f.column == col) {
                    Some(f) => {
                        tighten(&mut f.bounds, *op, value);
                        f.conjuncts.push(i);
                    }
                    None => {
                        let mut bounds = (Bound::Unbounded, Bound::Unbounded);
                        tighten(&mut bounds, *op, value);
                        folds.push(Fold {
                            column: col,
                            bounds,
                            conjuncts: vec![i],
                        });
                    }
                }
            }
            CmpOp::Ne => {}
        }
    }
    // An equality on a column that also has range conjuncts is the same
    // dimension: fold it into the column's bound pair (backoff against
    // its own range would under-estimate a redundant predicate) and
    // withdraw it from joint pairing.
    eqs.retain(|&(i, col, value)| {
        if let Some(f) = folds.iter_mut().find(|f| f.column == col) {
            tighten(&mut f.bounds, CmpOp::Eq, value);
            f.conjuncts.push(i);
            false
        } else {
            true
        }
    });
    // Joint-stats pairing: an observed 2-D frequency replaces both
    // marginals with one honest term.
    for a in 0..eqs.len() {
        let (ia, ca, va) = eqs[a];
        if used[ia] {
            continue;
        }
        for &(ib, cb, vb) in &eqs[a + 1..] {
            if used[ib] || ca == cb {
                continue;
            }
            if let Some(s) = stats.joint_selectivity(ca, va, cb, vb) {
                terms.push(s);
                used[ia] = true;
                used[ib] = true;
                break;
            }
        }
    }
    // Per-column folded ranges: one histogram probe per column. Fold
    // conjuncts are disjoint from the paired equalities (folded
    // equalities were withdrawn from `eqs` above), so none is used yet.
    // Bounds collapsed to a single point (an equality tightened both
    // sides) price as that value's equality mass — the zero-width
    // histogram overlap would price it at 0.
    for f in folds {
        let term = match (&f.bounds.0, &f.bounds.1) {
            (Bound::Included(a), Bound::Included(b)) if a == b => {
                eq_selectivity(stats.column(f.column), a)
            }
            (lo, hi) => range_selectivity(stats.column(f.column), lo, hi),
        };
        terms.push(term);
        for i in f.conjuncts {
            used[i] = true;
        }
    }
    for (i, e) in parts.iter().enumerate() {
        if !used[i] {
            terms.push(expr_selectivity(stats, layout, e));
        }
    }
    backoff_and(terms)
}

/// Estimated fraction of a single table's rows kept by `expr`, from that
/// table's statistics. Composite shapes use the textbook combinators —
/// OR → inclusion–exclusion, NOT → complement — while AND defers to
/// [`and_selectivity`] (joint statistics, range folding and exponential
/// backoff); leaves use the MCV/histogram estimates scaled by the column
/// fill rate (LIKE falls back to the 1/3 guess).
fn expr_selectivity(stats: &TableStats, layout: &Layout, expr: &SqlExpr) -> f64 {
    let col_stats = |c: &ColumnRef| -> Option<&ColumnStats> {
        let slot = layout.resolve(c).ok()?;
        stats.column(&layout.slots[slot].column)
    };
    match expr {
        SqlExpr::Cmp { column, op, value } => {
            let stats = col_stats(column);
            match op {
                CmpOp::Eq => eq_selectivity(stats, value),
                CmpOp::Ne => {
                    // `col <> v` keeps non-null rows that are not `v`;
                    // NULL comparisons never match, so the complement is
                    // of the fill rate, not of 1.
                    let fill = stats.map_or(1.0, ColumnStats::fill_rate);
                    (fill - eq_selectivity(stats, value)).clamp(0.0, 1.0)
                }
                CmpOp::Gt => {
                    range_selectivity(stats, &Bound::Excluded(value.clone()), &Bound::Unbounded)
                }
                CmpOp::Ge => {
                    range_selectivity(stats, &Bound::Included(value.clone()), &Bound::Unbounded)
                }
                CmpOp::Lt => {
                    range_selectivity(stats, &Bound::Unbounded, &Bound::Excluded(value.clone()))
                }
                CmpOp::Le => {
                    range_selectivity(stats, &Bound::Unbounded, &Bound::Included(value.clone()))
                }
            }
        }
        SqlExpr::Like { .. } => 1.0 / 3.0,
        SqlExpr::IsNull { column, negated } => {
            let null_frac = col_stats(column).map_or(0.1, ColumnStats::null_fraction);
            if *negated {
                1.0 - null_frac
            } else {
                null_frac
            }
        }
        SqlExpr::And(..) => {
            let mut parts = Vec::new();
            and_parts(expr, &mut parts);
            and_selectivity(stats, layout, &parts)
        }
        SqlExpr::Or(a, b) => {
            let (sa, sb) = (
                expr_selectivity(stats, layout, a),
                expr_selectivity(stats, layout, b),
            );
            (sa + sb - sa * sb).clamp(0.0, 1.0)
        }
        SqlExpr::Not(a) => (1.0 - expr_selectivity(stats, layout, a)).clamp(0.0, 1.0),
    }
}

/// Resolve every join's ON key in FROM-order semantics (identical errors
/// to the pre-planner executor, regardless of execution order).
fn resolve_joins(db: &Database, layout: &Layout, sel: &SelectStmt) -> Result<Vec<PlannedJoin>> {
    let mut out = Vec::with_capacity(sel.joins.len());
    for (ji, join) in sel.joins.iter().enumerate() {
        let (cur_ref, new_ref) = if join.left.table.as_deref().is_some_and(|t| t == join.table) {
            (&join.right, &join.left)
        } else {
            (&join.left, &join.right)
        };
        let left_slot = layout.resolve_prefix(cur_ref, ji + 1)?;
        let right = db.table(&join.table)?;
        let right_idx = right.schema().require_column(&new_ref.column)?;
        out.push(PlannedJoin {
            from_idx: ji,
            table_ord: ji + 1,
            table: join.table.clone(),
            left_slot,
            right_col: right.schema().columns()[right_idx].name.clone(),
            strategy: JoinStrategy::IndexProbe,
            build_access: AccessPath::FullScan,
            partitions: 1,
            hot_keys: Vec::new(),
            estimated_rows: 0.0,
            build_workers: 1,
        });
    }
    Ok(out)
}

/// Build a sargable candidate from a `column <op> literal` conjunct, if
/// the shape qualifies: `op ≠ <>`, non-NULL literal that coerces to the
/// column type without becoming NULL. The single definition of
/// sargability shared by the base-table and build-side extractions, so
/// the two planners cannot drift apart.
fn sarg_from_cmp(
    column: &str,
    op: CmpOp,
    value: &Value,
    ty: DataType,
    conjunct: usize,
) -> Option<Sarg> {
    if op == CmpOp::Ne || value.is_null() {
        return None;
    }
    let coerced = value.coerce_to(ty).ok()?;
    if coerced.is_null() {
        return None;
    }
    Some(Sarg {
        conjunct,
        column: column.to_string(),
        op,
        value: coerced,
    })
}

/// Sargable candidates among the join-side conjuncts bound at a single
/// join table (`ords == [table_ord]`), extracted exactly like the base
/// table's (see [`sarg_from_cmp`]). [`Sarg::conjunct`] indexes into
/// `joinside`, so a consumed probe maps back to the conjunct it
/// guarantees.
fn joinside_sargs(
    layout: &Layout,
    joinside: &[(SqlExpr, Vec<usize>)],
    table_ord: usize,
) -> Vec<Sarg> {
    let mut sargs = Vec::new();
    for (i, (expr, ords)) in joinside.iter().enumerate() {
        if ords.as_slice() != [table_ord] {
            continue;
        }
        let SqlExpr::Cmp { column, op, value } = expr else {
            continue;
        };
        // Every column of this conjunct resolved to `table_ord` when the
        // ord set was computed, so resolution cannot fail here.
        let Ok(slot) = layout.resolve(column) else {
            continue;
        };
        let slot = &layout.slots[slot];
        sargs.extend(sarg_from_cmp(&slot.column, *op, value, slot.ty, i));
    }
    sargs
}

/// Pick a [`JoinStrategy`] (and optionally a build-side pushdown access
/// path) for every join step, walking the execution order with a running
/// estimate of the outer tuple count.
///
/// A hash index on the join column keeps today's per-key bucket probe.
/// Otherwise the one-pass strategies are priced per the module docs:
/// building a hash map costs [`HASH_BUILD_COST_FACTOR`]`× |right|` plus
/// one O(1) probe per outer tuple; merging costs one ordered-index walk
/// (`|right|`) plus sorting the outer keys (`outer × log₂ outer`), and is
/// only eligible when both sides of the ON key have an ordered index.
/// The join table's own access path over its single-table conjuncts
/// enters the pricing: a filtered build costs the probe fetch
/// (`≈ selectivity × |right|`) plus the build over the filtered rows, and a filtered merge clamps its walk when one probe
/// bounds the join key itself. The cheapest variant wins; ties prefer
/// the pre-filtered variant, then the merge (no build allocation).
///
/// The outer estimate advances by the right side's average bucket size —
/// exact index distinct counts when available, [`TableStats`] otherwise —
/// scaled by the pushdown selectivity when the build side is
/// pre-filtered (still clamped at ≥1× growth).
///
/// Returns the indices of `joinside` conjuncts consumed by a pushdown
/// (their access path already guarantees them, so they must leave the
/// residual stages).
fn assign_strategies(
    db: &Database,
    layout: &Layout,
    join_order: &mut [PlannedJoin],
    mut outer_est: f64,
    joinside: &[(SqlExpr, Vec<usize>)],
    opts: &PlanOptions,
) -> Result<Vec<usize>> {
    let mut consumed = Vec::new();
    for pj in join_order.iter_mut() {
        let right = db.table(&pj.table)?;
        let nrows = right.len() as f64;
        // Rows actually entering the build/merge/probe after any
        // pushdown — feeds the outer-estimate advance below.
        let mut eff_rows = nrows;
        // Average bucket size of the join key: rows per distinct value.
        // Also the entry estimate for pricing a build map's footprint.
        let distinct = right
            .index_distinct(&pj.right_col)
            .or_else(|| right.range_index(&pj.right_col).map(RangeIndex::distinct))
            .map(|d| d as f64)
            .or_else(|| {
                db.with_stats(&pj.table, |s| {
                    s.column(&pj.right_col).map(|c| c.distinct as f64)
                })
                .ok()
                .flatten()
            })
            .unwrap_or(nrows);
        // Estimated bytes of a hash build over `rows` of this join key,
        // and whether that crosses the budget's build share (forcing the
        // partitioned path, priced as one extra pass over the build).
        let build_bytes =
            |rows: f64| join_build_bytes(rows.max(0.0) as usize, distinct.max(1.0) as usize);
        let partition_penalty = |rows: f64| match opts.memory_budget {
            Some(b) if build_partition_count(build_bytes(rows), b) > 1 => rows,
            _ => 0.0,
        };

        // Build-side pushdown candidate: the join table's own access
        // path over the conjuncts bound at this level.
        let mut pushdown: Option<(AccessPath, f64, Vec<usize>)> = None;
        if !right.is_empty() {
            let sargs = joinside_sargs(layout, joinside, pj.table_ord);
            if !sargs.is_empty() {
                let (access, est, used) = db.with_stats(&pj.table, |stats| {
                    choose_table_access(right, Some(stats), &sargs)
                })?;
                if let AccessPath::Index(_) = access {
                    let joinside_used: Vec<usize> =
                        used.iter().map(|&u| sargs[u].conjunct).collect();
                    pushdown = Some((access, est, joinside_used));
                }
            }
        }

        pj.strategy = if right.has_index(&pj.right_col) {
            // Per-outer-tuple bucket probes touch only matching rows, so
            // probing itself is never beaten — but a selective pushdown
            // can still pay: fetching the filtered set once (≈ est ×
            // |right|) shrinks every probed bucket's intersection by the
            // same factor. Worth it exactly when the fetch undercuts the
            // probe work it saves.
            if let Some((_, est, _)) = &pushdown {
                let probe_cost = outer_est * (nrows / distinct.max(1.0));
                if est * nrows + est * probe_cost < probe_cost {
                    let (access, est, used) = pushdown.expect("checked above");
                    eff_rows = est * nrows;
                    pj.build_access = access;
                    consumed.extend(used);
                }
            }
            JoinStrategy::IndexProbe
        } else {
            let left_slot = &layout.slots[pj.left_slot];
            let both_ordered = right.has_range_index(&pj.right_col)
                && db
                    .table(&left_slot.table)
                    .is_ok_and(|t| t.has_range_index(&left_slot.column));
            let sort_cost = outer_est * outer_est.max(2.0).log2();
            let build_cost = HASH_BUILD_COST_FACTOR * nrows + outer_est + partition_penalty(nrows);
            let merge_cost = if both_ordered {
                nrows + sort_cost
            } else {
                f64::INFINITY
            };

            let (build_pd_cost, merge_pd_cost) = match &pushdown {
                Some((AccessPath::Index(probes), est, _)) => {
                    let filtered = est * nrows;
                    // Fetching the probes costs about the filtered
                    // cardinality (same convention as the intersection
                    // pricing in the module docs).
                    let fetch = filtered;
                    let build = fetch
                        + HASH_BUILD_COST_FACTOR * filtered
                        + outer_est
                        + partition_penalty(filtered);
                    let merge = if both_ordered {
                        // A probe on the join key clamps the ordered
                        // walk; otherwise every entry is still visited
                        // and only the buckets shrink.
                        let walk = if probes.iter().any(|p| p.column() == pj.right_col) {
                            filtered
                        } else {
                            nrows
                        };
                        fetch + walk + sort_cost
                    } else {
                        f64::INFINITY
                    };
                    (build, merge)
                }
                _ => (f64::INFINITY, f64::INFINITY),
            };

            // Cheapest variant wins; `<=` makes later candidates win
            // ties, so the preference order is merge+pushdown, then
            // build+pushdown, then plain merge, then plain build. Under
            // a tight budget the partition penalty shifts oversized
            // builds toward the merge (which materializes nothing).
            let mut choice = (JoinStrategy::BuildHash, false, build_cost);
            if merge_cost <= choice.2 {
                choice = (JoinStrategy::MergeRange, false, merge_cost);
            }
            if build_pd_cost <= choice.2 {
                choice = (JoinStrategy::BuildHash, true, build_pd_cost);
            }
            if merge_pd_cost <= choice.2 {
                choice = (JoinStrategy::MergeRange, true, merge_pd_cost);
            }
            if choice.1 {
                let (access, est, used) = pushdown.expect("pushdown variant chosen");
                eff_rows = est * nrows;
                pj.build_access = access;
                consumed.extend(used);
            }
            choice.0
        };

        // Budget-driven build shape: a hash build whose priced footprint
        // crosses the build share partitions, and the MCV-identified hot
        // keys of the join column ride the dedicated resident path.
        if pj.strategy == JoinStrategy::BuildHash {
            if let Some(budget) = opts.memory_budget {
                let parts = build_partition_count(build_bytes(eff_rows), budget);
                if parts > 1 {
                    pj.partitions = parts;
                    pj.hot_keys = hot_join_keys(db, &pj.table, &pj.right_col, nrows)?;
                }
            }
            // Degree of build parallelism, from the rows actually
            // entering the build (the pushdown estimate when one was
            // chosen, the exact table size otherwise). The executor
            // clamps to the actual morsel/partition count at run time.
            pj.build_workers = opts.parallel_degree(eff_rows.max(0.0) as usize);
        }
        outer_est *= (eff_rows / distinct.max(1.0)).max(1.0);
        pj.estimated_rows = outer_est;
    }
    Ok(consumed)
}

/// The join keys of `table.column` whose MCV-tracked buckets hold at
/// least [`HOT_KEY_FRACTION`] of the table's rows — the heavy hitters a
/// partitioned build pins in its always-resident map. The MCV list is
/// sorted by descending count, so the first [`HOT_KEY_LIMIT`] qualifying
/// entries are the heaviest. NULL/NaN never join and are skipped.
fn hot_join_keys(db: &Database, table: &str, column: &str, rows: f64) -> Result<Vec<Value>> {
    db.with_stats(table, |stats| {
        stats.column(column).map_or_else(Vec::new, |c| {
            c.most_common
                .iter()
                .filter(|(v, n)| !v.is_excluded_join_key() && *n as f64 >= HOT_KEY_FRACTION * rows)
                .take(HOT_KEY_LIMIT)
                .map(|(v, _)| v.clone())
                .collect()
        })
    })
}

/// Greedily order joins smallest-estimated-table-first, restricted to
/// joins whose bound-side key is already in the stream. The remaining
/// join with the smallest FROM index is always eligible (its key resolves
/// within the FROM prefix, and all earlier tables are either bound or
/// themselves remaining with smaller index — contradiction), so the
/// greedy pass always terminates with a complete order.
fn greedy_join_order(joins: Vec<PlannedJoin>, layout: &Layout, cards: &[f64]) -> Vec<PlannedJoin> {
    let mut remaining = joins;
    let mut order = Vec::with_capacity(remaining.len());
    let mut bound = vec![false; layout.tables];
    bound[0] = true;
    while !remaining.is_empty() {
        let mut best: Option<usize> = None;
        for (i, j) in remaining.iter().enumerate() {
            let left_ord = layout.slots[j.left_slot].table_ord;
            if !bound[left_ord] {
                continue;
            }
            // Strict `<` keeps the first-seen candidate on ties, and
            // `remaining` preserves FROM order, so ties break toward the
            // smaller FROM index — deterministic without an explicit
            // tie-break clause.
            let better = match best {
                None => true,
                Some(b) => cards[j.table_ord] < cards[remaining[b].table_ord],
            };
            if better {
                best = Some(i);
            }
        }
        let pick = best.expect("FROM-order continuation is always eligible");
        let j = remaining.remove(pick);
        bound[j.table_ord] = true;
        order.push(j);
    }
    order
}

/// Plan a `SELECT` with the default (fully enabled) optimizer.
pub fn plan_select(db: &Database, sel: &SelectStmt) -> Result<SelectPlan> {
    plan_select_with(db, sel, &PlanOptions::default())
}

/// Plan a `SELECT`: partition the WHERE clause, choose the access path,
/// order the joins and assign each conjunct its evaluation stage.
pub fn plan_select_with(db: &Database, sel: &SelectStmt, opts: &PlanOptions) -> Result<SelectPlan> {
    let layout = Layout::build(db, sel)?;
    let base = db.table(&sel.table)?;
    let schema = base.schema();
    let joins = resolve_joins(db, &layout, sel)?;
    let njoins = joins.len();

    let mut all = Vec::new();
    if let Some(expr) = &sel.where_clause {
        conjuncts(expr, &mut all);
    }

    // Classify each conjunct by the FROM ordinals it references. An
    // unresolvable (unknown or ambiguous) column anywhere in the WHERE
    // clause disables pushdown, index use and reordering entirely: the
    // seed executor raised the resolution error lazily, per evaluated
    // joined row, so any filtering before the join could change *whether*
    // the error surfaces at all. The conservative plan evaluates every
    // conjunct post-join in original order — byte-identical behaviour,
    // including errors.
    let mut ord_sets: Vec<Vec<usize>> = Vec::with_capacity(all.len());
    let mut conservative = false;
    for expr in &all {
        let mut ords = Vec::new();
        if referenced_ords(&layout, expr, &mut ords).is_err() {
            conservative = true;
            break;
        }
        ord_sets.push(ords);
    }
    if conservative {
        let mut stages = vec![Vec::new(); njoins];
        let mut pushed = Vec::new();
        if njoins == 0 {
            // With no joins the post-join stream *is* the base stream;
            // compile-time resolution failures fall back to deferred
            // per-row evaluation, preserving lazy error order.
            pushed = all;
        } else {
            stages[njoins - 1] = all;
        }
        let table_cards = table_row_counts(db, &layout);
        // Conservatism is about WHERE-clause error semantics; the join
        // strategy is orthogonal, so unindexed joins still avoid the
        // quadratic fallback. No build-side pushdown though: an
        // unresolvable WHERE clause means no conjunct was classified, so
        // there is nothing safe to push (`joinside` is empty).
        let mut join_order = joins;
        assign_strategies(
            db,
            &layout,
            &mut join_order,
            table_cards[0].max(1.0),
            &[],
            opts,
        )?;
        let estimated_base_rows = table_cards[0];
        return Ok(SelectPlan {
            layout,
            access: AccessPath::FullScan,
            pushed,
            join_order,
            stages,
            estimated_selectivity: 1.0,
            table_cards,
            estimated_base_rows,
            scan_workers: opts.parallel_degree(base.len()),
            morsel_rows: opts.morsel_rows,
        });
    }

    let mut pushed: Vec<SqlExpr> = Vec::new();
    let mut joinside: Vec<(SqlExpr, Vec<usize>)> = Vec::new();
    let mut sargs: Vec<Sarg> = Vec::new();
    for (expr, ords) in all.into_iter().zip(ord_sets) {
        if ords.iter().any(|&o| o != 0) {
            joinside.push((expr, ords));
            continue;
        }
        if let SqlExpr::Cmp { column, op, value } = &expr {
            if let Some(idx) = schema.column_index(&column.column) {
                let ty = schema.columns()[idx].ty;
                sargs.extend(sarg_from_cmp(&column.column, *op, value, ty, pushed.len()));
            }
        }
        pushed.push(expr);
    }

    // Price the sargable candidates with cached statistics.
    let (access, estimated_selectivity, consumed_sargs) = if sargs.is_empty() || base.is_empty() {
        (AccessPath::FullScan, 1.0, Vec::new())
    } else {
        db.with_stats(&sel.table, |stats| {
            choose_table_access(base, Some(stats), &sargs)
        })?
    };
    let consumed: Vec<usize> = consumed_sargs.iter().map(|&i| sargs[i].conjunct).collect();

    // Honest post-filter estimate of the base table, over *all* base
    // conjuncts (consumed and residual): feeds `estimated_base_rows`, the
    // join-order cards and the join-strategy outer estimate. When every
    // conjunct was consumed, the access-path estimate already covers them
    // (including joint pairing/backoff), so the extra stats pass is
    // skipped — point-lookup planning stays cheap.
    let mut base_sel = estimated_selectivity;
    if !base.is_empty() && pushed.len() > consumed.len() {
        db.with_stats(&sel.table, |stats| {
            let parts: Vec<&SqlExpr> = pushed.iter().collect();
            base_sel = and_selectivity(stats, &layout, &parts);
        })?;
    }
    let estimated_base_rows = base.len() as f64 * base_sel.clamp(0.0, 1.0);

    // Drop consumed conjuncts (the access path already guarantees them).
    let pushed: Vec<SqlExpr> = pushed
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !consumed.contains(i))
        .map(|(_, e)| e)
        .collect();

    // Estimated post-filter cardinality per FROM table: the base estimate
    // above, and row count times the selectivity of the single-table
    // staged conjuncts for join sides. Join cards only drive the greedy
    // join order, so single-join and join-free plans skip that pass.
    let mut table_cards = table_row_counts(db, &layout);
    table_cards[0] = estimated_base_rows;
    if njoins > 1 {
        for j in &joins {
            let single: Vec<&SqlExpr> = joinside
                .iter()
                .filter(|(_, ords)| ords.as_slice() == [j.table_ord])
                .map(|(e, _)| e)
                .collect();
            if single.is_empty() || db.table(&j.table)?.is_empty() {
                continue;
            }
            let mut sel_est = 1.0f64;
            db.with_stats(&j.table, |stats| {
                sel_est = and_selectivity(stats, &layout, &single);
            })?;
            table_cards[j.table_ord] *= sel_est.clamp(0.0, 1.0);
        }
    }

    let mut join_order = greedy_join_order(joins, &layout, &table_cards);
    // Outer estimate entering the first join: base rows surviving the
    // access path and pushed filters.
    let consumed_joinside = assign_strategies(
        db,
        &layout,
        &mut join_order,
        estimated_base_rows.max(1.0),
        &joinside,
        opts,
    )?;
    // Drop the conjuncts a build-side pushdown consumed: the join's
    // filtered access path already guarantees them, so evaluating them
    // again as residual filters would be pure waste.
    let joinside: Vec<(SqlExpr, Vec<usize>)> = joinside
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !consumed_joinside.contains(i))
        .map(|(_, e)| e)
        .collect();

    // Assign every join-side conjunct its evaluation stage: the earliest
    // point in execution order at which all referenced tables are bound.
    let mut stages: Vec<Vec<SqlExpr>> = vec![Vec::new(); njoins];
    let mut bound_after: Vec<Vec<usize>> = Vec::with_capacity(njoins);
    let mut bound = vec![0usize];
    for j in &join_order {
        bound.push(j.table_ord);
        bound_after.push(bound.clone());
    }
    for (expr, ords) in joinside {
        let stage = bound_after
            .iter()
            .position(|b| ords.iter().all(|o| b.contains(o)))
            .expect("all ords bound after the last join");
        stages[stage].push(expr);
    }

    Ok(SelectPlan {
        layout,
        access,
        pushed,
        join_order,
        stages,
        estimated_selectivity,
        table_cards,
        estimated_base_rows,
        scan_workers: opts.parallel_degree(base.len()),
        morsel_rows: opts.morsel_rows,
    })
}

/// Live row count per FROM ordinal (one catalog lookup per table, not
/// per slot — slots are grouped by ordinal).
fn table_row_counts(db: &Database, layout: &Layout) -> Vec<f64> {
    let mut counts = vec![0.0; layout.tables];
    let mut next_ord = 0usize;
    for slot in &layout.slots {
        if slot.table_ord == next_ord {
            counts[next_ord] = db.table(&slot.table).map_or(0.0, |t| t.len() as f64);
            next_ord += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_statement;
    use crate::sql::Statement;
    use crate::{row, Database, TableSchema};

    fn plan(db: &Database, sql: &str) -> SelectPlan {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        plan_select(db, &sel).unwrap()
    }

    /// movies with a PK hash index on movie_id, a hash index on genre
    /// (3 skewed values) and a range index on rating.
    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("movie")
                .column("movie_id", crate::DataType::Int)
                .column("title", crate::DataType::Text)
                .column("genre", crate::DataType::Text)
                .nullable_column("rating", crate::DataType::Float)
                .primary_key(&["movie_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("screening")
                .column("screening_id", crate::DataType::Int)
                .column("movie_id", crate::DataType::Int)
                .column("price", crate::DataType::Float)
                .primary_key(&["screening_id"])
                .foreign_key("movie_id", "movie", "movie_id")
                .build()
                .unwrap(),
        )
        .unwrap();
        {
            let t = db.table_mut("movie").unwrap();
            t.create_index("genre").unwrap();
            t.create_range_index("rating").unwrap();
        }
        for i in 0..100i64 {
            // genre: 80% Drama, 15% Action, 5% Noir.
            let genre = if i % 20 == 19 {
                "Noir"
            } else if i % 20 >= 16 {
                "Action"
            } else {
                "Drama"
            };
            db.insert(
                "movie",
                row![i, format!("M{i}"), genre, (i % 50) as f64 / 5.0],
            )
            .unwrap();
        }
        for i in 0..50i64 {
            db.insert("screening", row![i, i % 100, 10.0 + (i % 7) as f64])
                .unwrap();
        }
        db
    }

    /// Adds a tiny `award` table referencing `movie` so three-table joins
    /// (star shape: both joins hang off the base) can be planned.
    fn db_with_awards() -> Database {
        let mut db = db();
        db.create_table(
            TableSchema::builder("award")
                .column("award_id", crate::DataType::Int)
                .column("movie_id", crate::DataType::Int)
                .primary_key(&["award_id"])
                .foreign_key("movie_id", "movie", "movie_id")
                .build()
                .unwrap(),
        )
        .unwrap();
        for i in 0..5i64 {
            db.insert("award", row![i, i * 7]).unwrap();
        }
        db
    }

    #[test]
    fn pk_equality_uses_hash_index() {
        let db = db();
        let p = plan(&db, "SELECT * FROM movie WHERE movie_id = 42");
        assert_eq!(p.access.describe(), "index_eq(movie_id)");
        assert!(
            p.estimated_selectivity <= 0.02,
            "sel {}",
            p.estimated_selectivity
        );
        assert!(p.pushed.is_empty(), "eq conjunct must be consumed");
        assert_eq!(p.staged_count(), 0);
    }

    #[test]
    fn selective_genre_uses_index_common_genre_scans() {
        let db = db();
        let rare = plan(&db, "SELECT * FROM movie WHERE genre = 'Noir'");
        assert_eq!(rare.access.describe(), "index_eq(genre)");
        // 80% of rows are Drama: a scan beats the index.
        let common = plan(&db, "SELECT * FROM movie WHERE genre = 'Drama'");
        assert_eq!(common.access.describe(), "scan");
        assert_eq!(common.pushed.len(), 1, "filter still applied");
    }

    #[test]
    fn range_predicate_uses_range_index_and_folds_bounds() {
        let db = db();
        let p = plan(
            &db,
            "SELECT * FROM movie WHERE rating > 8.0 AND rating <= 9.0",
        );
        assert_eq!(p.access.describe(), "index_range(rating)");
        assert!(p.pushed.is_empty(), "both bounds folded into the probe");
        let AccessPath::Index(probes) = &p.access else {
            panic!()
        };
        let IndexProbe::Range { lo, hi, .. } = &probes[0] else {
            panic!()
        };
        assert_eq!(*lo, Bound::Excluded(Value::Float(8.0)));
        assert_eq!(*hi, Bound::Included(Value::Float(9.0)));
    }

    #[test]
    fn multi_conjunct_intersects_multiple_indexes() {
        let db = db();
        let p = plan(
            &db,
            "SELECT * FROM movie WHERE genre = 'Noir' AND rating > 8.0 AND rating <= 9.0",
        );
        assert_eq!(p.access.describe(), "index_and(genre&rating)");
        assert!(
            p.pushed.is_empty(),
            "all three conjuncts consumed by the intersection, got {:?}",
            p.pushed
        );
        // Combined estimate backs off over the probe estimates.
        assert!(
            p.estimated_selectivity < 0.05,
            "sel {}",
            p.estimated_selectivity
        );
    }

    #[test]
    fn intersection_orders_probes_cheapest_first() {
        let db = db();
        let p = plan(
            &db,
            "SELECT * FROM movie WHERE rating > 8.0 AND rating <= 9.0 AND genre = 'Noir'",
        );
        let AccessPath::Index(probes) = &p.access else {
            panic!("expected intersection, got {}", p.access.describe())
        };
        // genre='Noir' (5%) is cheaper than the ~10% rating band and must
        // lead the probe list regardless of conjunct order in the SQL.
        assert_eq!(probes[0].column(), "genre");
        assert_eq!(probes[1].column(), "rating");
    }

    #[test]
    fn poorly_selective_conjunct_stays_a_filter() {
        let db = db();
        // movie_id = 7 is a 1% point probe; genre = 'Drama' keeps 80% of
        // the table — fetching its RowId set would cost more than
        // filtering the point probe's single row.
        let p = plan(
            &db,
            "SELECT * FROM movie WHERE movie_id = 7 AND genre = 'Drama'",
        );
        assert_eq!(p.access.describe(), "index_eq(movie_id)");
        assert_eq!(p.pushed.len(), 1, "Drama conjunct must stay a filter");
    }

    #[test]
    fn wide_range_falls_back_to_scan() {
        let db = db();
        let p = plan(&db, "SELECT * FROM movie WHERE rating >= 0.0");
        assert_eq!(p.access.describe(), "scan");
    }

    #[test]
    fn unindexed_column_scans() {
        let db = db();
        let p = plan(&db, "SELECT * FROM movie WHERE title = 'M7'");
        assert_eq!(p.access.describe(), "scan");
        assert_eq!(p.pushed.len(), 1);
    }

    #[test]
    fn disjunction_is_not_sargable() {
        let db = db();
        let p = plan(
            &db,
            "SELECT * FROM movie WHERE movie_id = 1 OR movie_id = 2",
        );
        assert_eq!(p.access.describe(), "scan");
        assert_eq!(p.pushed.len(), 1);
    }

    #[test]
    fn base_conjunct_pushed_joined_conjunct_staged() {
        let db = db();
        let p = plan(
            &db,
            "SELECT movie.title FROM movie \
             JOIN screening ON screening.movie_id = movie.movie_id \
             WHERE movie.movie_id = 3 AND screening.price > 11.0",
        );
        assert_eq!(p.access.describe(), "index_eq(movie_id)");
        assert!(p.pushed.is_empty());
        assert_eq!(p.staged_count(), 1, "price predicate runs at join level");
        assert_eq!(p.stages[0].len(), 1);
    }

    #[test]
    fn joins_ordered_by_estimated_cardinality() {
        let db = db_with_awards();
        // FROM order puts the 50-row screening join before the 5-row
        // award join; the greedy order flips them.
        let p = plan(
            &db,
            "SELECT movie.title FROM movie \
             JOIN screening ON screening.movie_id = movie.movie_id \
             JOIN award ON award.movie_id = movie.movie_id",
        );
        assert_eq!(p.join_order.len(), 2);
        assert_eq!(p.join_order[0].table, "award");
        assert_eq!(p.join_order[1].table, "screening");
        assert!(p.joins_reordered());
        assert!(p.table_cards[2] < p.table_cards[1]);
    }

    #[test]
    fn filtered_join_side_reorders_ahead() {
        let db = db_with_awards();
        // award(5) still smallest, but a selective filter on screening
        // (price band keeps ~1/7) must shrink screening's estimate below
        // its raw 50 rows.
        let p = plan(
            &db,
            "SELECT movie.title FROM movie \
             JOIN screening ON screening.movie_id = movie.movie_id \
             JOIN award ON award.movie_id = movie.movie_id \
             WHERE screening.price = 12.0",
        );
        assert!(p.table_cards[1] < 50.0, "cards {:?}", p.table_cards);
        // The price conjunct is staged at screening's level, wherever
        // that lands in execution order.
        let screening_step = p
            .join_order
            .iter()
            .position(|j| j.table == "screening")
            .unwrap();
        assert_eq!(p.stages[screening_step].len(), 1);
    }

    #[test]
    fn chained_join_respects_binding_constraint() {
        let mut db = db_with_awards();
        // A table referencing screening (not movie): the chain forces
        // review after screening no matter how small review is.
        db.create_table(
            TableSchema::builder("review")
                .column("review_id", crate::DataType::Int)
                .column("screening_id", crate::DataType::Int)
                .primary_key(&["review_id"])
                .foreign_key("screening_id", "screening", "screening_id")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert("review", row![0, 0]).unwrap();
        let p = plan(
            &db,
            "SELECT movie.title FROM movie \
             JOIN screening ON screening.movie_id = movie.movie_id \
             JOIN review ON review.screening_id = screening.screening_id",
        );
        let screening_step = p
            .join_order
            .iter()
            .position(|j| j.table == "screening")
            .unwrap();
        let review_step = p
            .join_order
            .iter()
            .position(|j| j.table == "review")
            .unwrap();
        assert!(
            screening_step < review_step,
            "review joins on screening and must execute after it"
        );
    }

    #[test]
    fn ambiguous_unqualified_column_is_not_pushed() {
        let db = db();
        // `movie_id` exists in both tables: resolution over the joined
        // layout is ambiguous, so the conjunct must stay at the final
        // stage (the executor surfaces the error lazily, as before the
        // planner).
        let p = plan(
            &db,
            "SELECT movie.title FROM movie \
             JOIN screening ON screening.movie_id = movie.movie_id \
             WHERE movie_id = 3",
        );
        assert_eq!(p.access.describe(), "scan");
        assert!(!p.joins_reordered());
        assert_eq!(p.stages.last().unwrap().len(), 1);
    }

    #[test]
    fn contradictory_equalities_consume_only_chosen() {
        let db = db();
        let p = plan(
            &db,
            "SELECT * FROM movie WHERE movie_id = 1 AND movie_id = 2",
        );
        assert_eq!(p.access.describe(), "index_eq(movie_id)");
        // One equality drives the probe (one probe per column), the other
        // must remain a filter.
        assert_eq!(p.pushed.len(), 1);
    }

    #[test]
    fn empty_table_scans() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("t")
                .column("id", crate::DataType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let p = plan(&db, "SELECT * FROM t WHERE id = 1");
        assert_eq!(p.access.describe(), "scan");
    }

    #[test]
    fn nan_literal_is_not_sargable_for_ranges() {
        let db = db();
        // 'NaN' coerces to Float(NaN) against the rating column; it must
        // stay a filter (evaluating to false), never a consumed bound.
        let p = plan(
            &db,
            "SELECT * FROM movie WHERE rating > 9.0 AND rating > 'NaN'",
        );
        match &p.access {
            AccessPath::Index(_) => {
                assert_eq!(p.pushed.len(), 1, "NaN conjunct must stay pushed");
            }
            AccessPath::FullScan => {
                assert_eq!(p.pushed.len(), 2);
            }
        }
    }

    /// 1600 rows with a hash-indexed 16-value `city` column that fully
    /// determines a hash-indexed 8-value `country` column (two cities per
    /// country) — the correlated pair joint statistics are built for.
    fn correlated_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("shop")
                .column("id", crate::DataType::Int)
                .column("city", crate::DataType::Text)
                .column("country", crate::DataType::Text)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        {
            let t = db.table_mut("shop").unwrap();
            t.create_index("city").unwrap();
            t.create_index("country").unwrap();
        }
        for i in 0..1600i64 {
            let c = i % 16;
            db.insert("shop", row![i, format!("C{c}"), format!("K{}", c / 2)])
                .unwrap();
        }
        db
    }

    #[test]
    fn joint_stats_decline_redundant_intersection_probe() {
        let db = correlated_db();
        // city = 'C3' (6.25%) fully implies country = 'K1': fetching the
        // 12.5% country bucket shrinks the intersection by nothing.
        let sql = "SELECT id FROM shop WHERE city = 'C3' AND country = 'K1'";
        let p = plan(&db, sql);
        assert_eq!(p.access.describe(), "index_eq(city)", "{}", p.describe());
        assert_eq!(p.pushed.len(), 1, "declined conjunct stays a filter");
        // The estimate is the honest joint frequency, not the 0.78%
        // independence product.
        assert!(
            (p.estimated_base_rows - 100.0).abs() < 5.0,
            "base rows {}",
            p.estimated_base_rows
        );
    }

    #[test]
    fn contradictory_pair_still_intersects() {
        let db = correlated_db();
        // city = 'C3' belongs to 'K1'; 'K7' never co-occurs with it. The
        // joint estimate is near zero, so the intersection (which empties
        // immediately) is kept and the combined estimate collapses.
        let p = plan(
            &db,
            "SELECT id FROM shop WHERE city = 'C3' AND country = 'K7'",
        );
        assert_eq!(
            p.access.describe(),
            "index_and(city&country)",
            "{}",
            p.describe()
        );
        assert!(
            p.estimated_base_rows < 2.0,
            "provably-disjoint pair, got {}",
            p.estimated_base_rows
        );
    }

    #[test]
    fn backoff_dampens_uncorrelated_conjunct_product() {
        let db = db();
        // genre (3 distinct) and rating (50 distinct): no joint stats, so
        // the pair combines with exponential backoff instead of the raw
        // product.
        let s_noir = plan(&db, "SELECT * FROM movie WHERE genre = 'Noir'").estimated_selectivity;
        let s_band = plan(
            &db,
            "SELECT * FROM movie WHERE rating > 8.0 AND rating <= 9.0",
        )
        .estimated_selectivity;
        let p = plan(
            &db,
            "SELECT * FROM movie WHERE genre = 'Noir' AND rating > 8.0 AND rating <= 9.0",
        );
        let expect = s_noir.min(s_band) * s_noir.max(s_band).sqrt();
        assert!(
            (p.estimated_selectivity - expect).abs() < 1e-9,
            "backoff combination: got {}, want {expect}",
            p.estimated_selectivity
        );
        assert!(p.estimated_selectivity > s_noir * s_band);
    }

    #[test]
    fn same_column_equality_folds_into_range_not_backoff() {
        let db = db();
        // rating = 8.0 AND rating > 7.0 is fully redundant: the estimate
        // must collapse to the equality's own mass, not backoff the two
        // same-dimension conjuncts against each other.
        let eq_only = plan(&db, "SELECT * FROM movie WHERE rating = 8.0").estimated_base_rows;
        let redundant = plan(
            &db,
            "SELECT * FROM movie WHERE rating = 8.0 AND rating > 7.0",
        )
        .estimated_base_rows;
        assert!(
            (redundant - eq_only).abs() < 1e-9,
            "redundant range must not discount the equality: {redundant} vs {eq_only}"
        );
    }

    #[test]
    fn excluded_bound_outside_histogram_subtracts_nothing() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("t")
                .column("id", crate::DataType::Int)
                .column("x", crate::DataType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.table_mut("t").unwrap().create_range_index("x").unwrap();
        for i in 0..100i64 {
            db.insert("t", row![i, i]).unwrap();
        }
        // The boundary -1000 holds no mass: `x > -1000` keeps everything
        // and must not subtract a phantom unseen-value estimate.
        let p = plan(&db, "SELECT id FROM t WHERE x > -1000");
        assert!(
            (p.estimated_base_rows - 100.0).abs() < 1e-6,
            "got {}",
            p.estimated_base_rows
        );
    }

    #[test]
    fn excluded_bound_prices_below_included() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("t")
                .column("id", crate::DataType::Int)
                .column("x", crate::DataType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.table_mut("t").unwrap().create_range_index("x").unwrap();
        for i in 0..100i64 {
            db.insert("t", row![i, i]).unwrap();
        }
        let gt = plan(&db, "SELECT id FROM t WHERE x > 90").estimated_selectivity;
        let ge = plan(&db, "SELECT id FROM t WHERE x >= 90").estimated_selectivity;
        // Strict `>` excludes the boundary value's own mass (~1 row).
        assert!(gt < ge, "x > 90 ({gt}) must price below x >= 90 ({ge})");
        assert!(
            ((ge - gt) - 0.01).abs() < 5e-3,
            "difference is the boundary's equality mass, got {}",
            ge - gt
        );
    }

    #[test]
    fn null_heavy_column_scales_by_fill_rate() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("m")
                .column("id", crate::DataType::Int)
                .nullable_column("rating", crate::DataType::Float)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.table_mut("m")
            .unwrap()
            .create_range_index("rating")
            .unwrap();
        // 90% NULL: a predicate matching every non-null row still keeps
        // only 10% of the table.
        for i in 0..100i64 {
            let rating = if i < 90 {
                Value::Null
            } else {
                Value::Float((i - 90) as f64)
            };
            db.insert("m", row![i, rating]).unwrap();
        }
        let p = plan(&db, "SELECT id FROM m WHERE rating >= 0.0");
        assert!(
            p.estimated_selectivity <= 0.12,
            "NULL-heavy column must scale by fill rate, got {}",
            p.estimated_selectivity
        );
        // 10% clears the index threshold a 100% estimate missed.
        assert_eq!(p.access.describe(), "index_range(rating)");
    }

    #[test]
    fn intersect_sorted_basics() {
        let a: Vec<RowId> = [1u64, 3, 5, 7].map(RowId).to_vec();
        let b: Vec<RowId> = [2u64, 3, 4, 7, 9].map(RowId).to_vec();
        assert_eq!(intersect_sorted(&a, &b), vec![RowId(3), RowId(7)]);
        assert_eq!(intersect_sorted(&a, &[]), Vec::<RowId>::new());
    }

    #[test]
    fn describe_is_stable() {
        let db = db();
        let p = plan(&db, "SELECT * FROM movie WHERE movie_id = 42");
        assert!(p.describe().starts_with("index_eq(movie_id) sel="));
    }

    /// Two tables joined on a column pair with *no* hash index on the
    /// right side; `ordered` adds range indexes on both key columns.
    fn unindexed_join_db(ordered: bool) -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("l")
                .column("l_id", crate::DataType::Int)
                .column("k", crate::DataType::Int)
                .primary_key(&["l_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("r")
                .column("r_id", crate::DataType::Int)
                .column("k", crate::DataType::Int)
                .primary_key(&["r_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        for i in 0..200i64 {
            db.insert("l", row![i, i % 50]).unwrap();
            db.insert("r", row![i, i % 50]).unwrap();
        }
        if ordered {
            db.table_mut("l").unwrap().create_range_index("k").unwrap();
            db.table_mut("r").unwrap().create_range_index("k").unwrap();
        }
        db
    }

    #[test]
    fn hash_indexed_join_column_keeps_index_probe() {
        let db = db();
        // screening.movie_id is an FK, auto hash-indexed.
        let p = plan(
            &db,
            "SELECT movie.title FROM movie \
             JOIN screening ON screening.movie_id = movie.movie_id",
        );
        assert_eq!(p.join_order[0].strategy, JoinStrategy::IndexProbe);
    }

    #[test]
    fn unindexed_join_column_builds_hash() {
        let db = unindexed_join_db(false);
        let p = plan(&db, "SELECT l.l_id FROM l JOIN r ON r.k = l.k");
        assert_eq!(p.join_order[0].strategy, JoinStrategy::BuildHash);
        assert!(p.describe().contains("0:hash"), "{}", p.describe());
    }

    #[test]
    fn ordered_sides_with_small_outer_merge() {
        let db = unindexed_join_db(true);
        // A selective base probe shrinks the outer estimate far below the
        // right side's row count: the merge walk beats the hash build.
        let p = plan(
            &db,
            "SELECT l.l_id FROM l JOIN r ON r.k = l.k WHERE l.l_id = 7",
        );
        assert_eq!(p.join_order[0].strategy, JoinStrategy::MergeRange);
        // With the whole table as outer stream, sorting the outer keys
        // costs more than one hashing pass: BuildHash wins.
        let p = plan(&db, "SELECT l.l_id FROM l JOIN r ON r.k = l.k");
        assert_eq!(p.join_order[0].strategy, JoinStrategy::BuildHash);
    }

    /// [`unindexed_join_db`] plus a selective, hash-indexed `tag` column
    /// on the right table (~1% per value) — the build-side pushdown
    /// candidate.
    fn pushdown_db(ordered: bool) -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("l")
                .column("l_id", crate::DataType::Int)
                .column("k", crate::DataType::Int)
                .primary_key(&["l_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("r")
                .column("r_id", crate::DataType::Int)
                .column("k", crate::DataType::Int)
                .column("tag", crate::DataType::Int)
                .primary_key(&["r_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.table_mut("r").unwrap().create_index("tag").unwrap();
        for i in 0..200i64 {
            db.insert("l", row![i, i % 50]).unwrap();
            db.insert("r", row![i, i % 50, i % 100]).unwrap();
        }
        if ordered {
            db.table_mut("l").unwrap().create_range_index("k").unwrap();
            db.table_mut("r").unwrap().create_range_index("k").unwrap();
        }
        db
    }

    #[test]
    fn selective_build_conjunct_prefilters_hash_join() {
        let db = pushdown_db(false);
        let p = plan(
            &db,
            "SELECT l.l_id FROM l JOIN r ON r.k = l.k WHERE r.tag = 7",
        );
        assert_eq!(p.join_order[0].strategy, JoinStrategy::BuildHash);
        assert_eq!(
            p.join_order[0].build_access.describe(),
            "index_eq(tag)",
            "{}",
            p.describe()
        );
        assert_eq!(p.prefiltered_join_count(), 1);
        // The consumed conjunct must leave the residual stage — it would
        // otherwise be evaluated twice.
        assert_eq!(p.staged_count(), 0, "{}", p.describe());
        assert!(p.describe().contains("0:hash+pf"), "{}", p.describe());
    }

    #[test]
    fn unselective_build_conjunct_stays_a_staged_filter() {
        let db = pushdown_db(false);
        // `tag >= 0` keeps everything; no index path clears the
        // threshold, so the build side stays unfiltered and the conjunct
        // stays staged.
        let p = plan(
            &db,
            "SELECT l.l_id FROM l JOIN r ON r.k = l.k WHERE r.tag >= 0",
        );
        assert_eq!(p.join_order[0].build_access, AccessPath::FullScan);
        assert_eq!(p.prefiltered_join_count(), 0);
        assert_eq!(p.staged_count(), 1);
    }

    #[test]
    fn selective_probe_flips_merge_to_filtered_build() {
        let db = pushdown_db(true);
        // Without the tag conjunct the tiny outer stream merges against
        // the ordered index (the PR 3 choice)...
        let p = plan(
            &db,
            "SELECT l.l_id FROM l JOIN r ON r.k = l.k WHERE l.l_id = 7",
        );
        assert_eq!(p.join_order[0].strategy, JoinStrategy::MergeRange);
        // ...but a 1% probe on the build side makes the filtered hash
        // build cheaper than walking all 200 index entries.
        let p = plan(
            &db,
            "SELECT l.l_id FROM l JOIN r ON r.k = l.k WHERE l.l_id = 7 AND r.tag = 7",
        );
        assert_eq!(p.join_order[0].strategy, JoinStrategy::BuildHash);
        assert_eq!(p.join_order[0].build_access.describe(), "index_eq(tag)");
        assert_eq!(p.staged_count(), 0, "{}", p.describe());
    }

    #[test]
    fn join_key_probe_clamps_merge_walk() {
        let db = pushdown_db(true);
        // A selective bound on the join key itself: the merge walk can be
        // clamped to the probe's range, beating both the full walk and
        // the filtered hash build.
        let p = plan(
            &db,
            "SELECT l.l_id FROM l JOIN r ON r.k = l.k WHERE l.l_id = 7 AND r.k < 3",
        );
        assert_eq!(p.join_order[0].strategy, JoinStrategy::MergeRange);
        assert_eq!(
            p.join_order[0].build_access.describe(),
            "index_range(k)",
            "{}",
            p.describe()
        );
        assert!(p.describe().contains("0:merge+pf"), "{}", p.describe());
        assert_eq!(p.staged_count(), 0, "{}", p.describe());
    }

    #[test]
    fn indexed_join_pushdown_prefilters_when_priced_cheaper() {
        let mut db = pushdown_db(false);
        db.table_mut("r").unwrap().create_index("k").unwrap();
        let p = plan(
            &db,
            "SELECT l.l_id FROM l JOIN r ON r.k = l.k WHERE r.tag = 7",
        );
        assert_eq!(p.join_order[0].strategy, JoinStrategy::IndexProbe);
        // A selective build-side conjunct pre-filters the probed buckets:
        // fetching the ~2 tagged rows once beats intersecting nothing
        // while 200 outer tuples each probe a 4-row bucket unfiltered.
        assert_eq!(
            p.join_order[0].build_access,
            AccessPath::Index(vec![IndexProbe::Eq {
                column: "tag".into(),
                value: Value::Int(7),
            }])
        );
        assert_eq!(p.staged_count(), 0, "consumed by the pre-filter");
        assert!(p.describe().contains("0:probe+pf"), "{}", p.describe());
    }

    #[test]
    fn indexed_join_pushdown_declined_when_probes_are_cheaper() {
        // `r_id` is the primary key, so the join key is already indexed.
        let db = pushdown_db(false);
        let p = plan(
            &db,
            "SELECT l.l_id FROM l JOIN r ON r.r_id = l.l_id \
             WHERE l.l_id = 7 AND r.tag = 7",
        );
        assert_eq!(p.join_order[0].strategy, JoinStrategy::IndexProbe);
        // One surviving outer tuple probing a unique-key bucket touches
        // ~1 row; the pre-filter would fetch 2 — keep the plain probe.
        assert_eq!(p.join_order[0].build_access, AccessPath::FullScan);
        assert_eq!(p.staged_count(), 1);
    }

    #[test]
    fn conservative_plan_still_assigns_strategies() {
        let db = unindexed_join_db(false);
        // `no_such` disables pushdown/reordering (lazy error semantics),
        // but the join itself must not degrade to the quadratic fallback.
        let p = plan(
            &db,
            "SELECT l.l_id FROM l JOIN r ON r.k = l.k WHERE no_such = 1",
        );
        assert_eq!(p.access.describe(), "scan");
        assert_eq!(p.join_order[0].strategy, JoinStrategy::BuildHash);
    }
}
