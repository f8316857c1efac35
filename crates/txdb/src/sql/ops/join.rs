//! The three join operators, one per [`JoinStrategy`]:
//! `IndexProbeJoin` (per-tuple index probes, with a lookup fallback for
//! legacy strategy-less plans), `BuildHashJoin` (in-place build map,
//! degrading to the partitioned + hot-key variant under budget
//! pressure), and `MergeRangeJoin` (tandem walk of the ordered index).
//!
//! Every strategy yields per-tuple buckets in ascending-RowId order and
//! emits in outer stream order — the canonical order both executors
//! share. All transient auxiliary structures (pushdown probe sets,
//! build maps, partition lists, merge match buffers) charge the budget
//! while they live and release together when the step's output is
//! assembled, so a node's charges are gone before its parent charges
//! anything.

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Bound;
use std::rc::Rc;

use crate::error::Result;
use crate::index::OrdKey;
use crate::row::{Row, RowId};
use crate::table::{join_key_partition, Table};
use crate::value::Value;

use super::expr::{join_key_excluded, NULL_VALUE};
use super::{Batch, ExecCtx, NodeStats, Operator, Vis};
use crate::sql::budget::{
    build_partition_count, join_build_bytes, ExecBudget, JOIN_MAP_ENTRY_BYTES, JOIN_MAP_RID_BYTES,
};
use crate::sql::plan::{intersect_sorted, AccessPath, IndexProbe, PlannedJoin, Slot};
use crate::sql::pool::{effective_workers, morsel_bounds, scatter};

/// Priced bytes of a build map: bucket storage plus per-entry overhead.
fn join_map_priced_bytes(map: &HashMap<&Value, Vec<RowId>>) -> usize {
    map.values().map(Vec::len).sum::<usize>() * JOIN_MAP_RID_BYTES
        + map.len() * JOIN_MAP_ENTRY_BYTES
}

/// Morsel-parallel in-place hash build: workers claim contiguous chunks
/// of the build side — RowId ranges of a full build, index-order chunks
/// of the pushdown's fetched set — and build partial maps that merge in
/// morsel order. Every bucket is then the concatenation of ascending
/// sub-buckets, so the merged map is byte-identical to the serial build.
///
/// Budget protocol: workers charge each partial map to a
/// [`SharedBudget`](crate::sql::budget::SharedBudget) lease as it
/// materializes; the lease is absorbed back (even on failure, so injected
/// exhaustion stays sticky), the merge consumes the partials, their bytes
/// are released, and the *caller* charges the merged map through the
/// serial account exactly like the serial path. The partials' summed
/// footprint never exceeds the worst case the caller's `fits` probe
/// admitted, so against a real limit the lease charges cannot fail.
///
/// Returns the map and the worker count actually used (demoted when the
/// build yields fewer morsels than planned workers).
fn parallel_build_map<'t>(
    right: &'t Table,
    right_col: &str,
    build_rids: Option<&[RowId]>,
    workers: usize,
    morsel_rows: usize,
    budget: &ExecBudget,
) -> Result<(HashMap<&'t Value, Vec<RowId>>, usize)> {
    enum Morsels<'f> {
        Ranges(Vec<(RowId, RowId)>),
        Chunks(&'f [RowId], Vec<(usize, usize)>),
    }
    let morsels = match build_rids {
        None => Morsels::Ranges(right.morsel_ranges(morsel_rows)),
        Some(f) => Morsels::Chunks(f, morsel_bounds(f.len(), morsel_rows)),
    };
    let count = match &morsels {
        Morsels::Ranges(r) => r.len(),
        Morsels::Chunks(_, b) => b.len(),
    };
    let workers = effective_workers(workers, count);
    let lease = budget.lease();
    let parts = scatter(workers, count, |m| {
        let map = match &morsels {
            Morsels::Ranges(ranges) => {
                let (lo, hi) = ranges[m];
                right.join_map_range(right_col, lo, hi)?
            }
            Morsels::Chunks(fetched, bounds) => {
                let (start, end) = bounds[m];
                right.join_map_filtered(right_col, &fetched[start..end])?
            }
        };
        let bytes = join_map_priced_bytes(&map);
        lease.charge(bytes)?;
        Ok((map, bytes))
    });
    budget.absorb(&lease);
    let parts = parts?;
    let partial_bytes: usize = parts.iter().map(|(_, b)| *b).sum();
    let mut merged: HashMap<&Value, Vec<RowId>> = HashMap::new();
    for (part, _) in parts {
        for (k, mut bucket) in part {
            merged.entry(k).or_default().append(&mut bucket);
        }
    }
    budget.release(partial_bytes);
    Ok((merged, workers))
}

/// Per-outer-tuple match buckets for a merge join: walk the right side's
/// ordered-index entries once, in tandem with the outer keys sorted by
/// the canonical value order. `keys[i]` is `None` when tuple `i`'s key
/// never joins. The result is indexed by tuple position, so the caller
/// emits in original stream order — canonical order is preserved without
/// any re-sorting.
///
/// `filter` is the build-side pushdown's fetched RowId set: matched
/// buckets are intersected with it (both sides ascending, so the
/// intersection stays in canonical order), and when the pushdown probes
/// the join key itself the entries walk is clamped to those bounds
/// instead of visiting the whole index. Without a filter the buckets are
/// borrowed straight from the index — no allocation at all.
fn merge_match_buckets<'t>(
    right: &'t Table,
    right_col: &str,
    keys: &[Option<&Value>],
    filter: Option<&[RowId]>,
    clamp: Option<(Bound<&Value>, Bound<&Value>)>,
) -> Vec<Cow<'t, [RowId]>> {
    const EMPTY: &[RowId] = &[];
    let index = right
        .range_index(right_col)
        .expect("plan chose MergeRange only with an ordered index");
    let entries: Vec<(&Value, &[RowId])> = match clamp {
        Some((lo, hi)) => index
            .entries_range(lo, hi)
            .filter(|(v, _)| !join_key_excluded(v))
            .collect(),
        None => index
            .entries()
            .filter(|(v, _)| !join_key_excluded(v))
            .collect(),
    };
    let mut matches: Vec<Cow<'t, [RowId]>> = vec![Cow::Borrowed(EMPTY); keys.len()];
    let mut order: Vec<usize> = (0..keys.len()).filter(|&i| keys[i].is_some()).collect();
    order.sort_by(|&a, &b| {
        OrdKey::cmp_values(keys[a].expect("filtered"), keys[b].expect("filtered"))
    });
    let mut e = 0usize;
    // Duplicate outer keys are adjacent in `order` and land on the same
    // entry, so the (possibly intersected) bucket is computed once per
    // entry and cloned for repeats — a memcpy at worst, instead of
    // re-walking the filter set per outer tuple.
    let mut prev: Option<(usize, usize)> = None; // (entry idx, tuple idx)
    for &ti in &order {
        let k = keys[ti].expect("filtered");
        while e < entries.len() && OrdKey::cmp_values(entries[e].0, k).is_lt() {
            e += 1;
        }
        if e < entries.len() && OrdKey::cmp_values(entries[e].0, k).is_eq() {
            matches[ti] = match prev {
                Some((pe, pti)) if pe == e => matches[pti].clone(),
                _ => {
                    prev = Some((e, ti));
                    match filter {
                        Some(f) => Cow::Owned(intersect_sorted(entries[e].1, f)),
                        None => Cow::Borrowed(entries[e].1),
                    }
                }
            };
        }
    }
    matches
}

/// Per-outer-tuple match buckets for a budget-degraded hash join: the
/// build side is split into `nparts` RowId partitions (plan-identified
/// `hot` keys diverted into one small always-resident map), and only one
/// partition's hash map is resident at a time. Each probe key lives in
/// exactly one partition — or in the hot map — so filling `matched[ti]`
/// across passes appends at most one bucket per tuple and the result is
/// indexed by tuple position in ascending-RowId bucket order, the same
/// contract the in-place build satisfies. Byte charges: the partition
/// lists and hot map for the whole call, plus one resident partition map
/// at a time — that per-partition charge is what bounds the peak and
/// what an exhausted budget fails on, before any output is assembled.
///
/// With `workers > 1` the partitions — embarrassingly parallel, since
/// every probe key routes to exactly one partition XOR the hot map —
/// are claimed by pool workers instead of walked in sequence: each
/// worker builds its partition's resident map, probes the shared outer
/// keys, and returns positional `(tuple, bucket)` contributions that
/// merge without regard to completion order (at most one bucket ever
/// lands on a tuple, so ascending-RowId bucket order is preserved).
/// Concurrency is clamped so the resident maps' combined worst case
/// stays within the remaining budget: the partitioned variant exists to
/// bound the peak, and parallelism must not undo that. Returns the
/// matches and the worker count actually used.
#[allow(clippy::too_many_arguments)]
fn partitioned_join_matches(
    right: &Table,
    right_col: &str,
    build_rids: Option<&[RowId]>,
    nparts: usize,
    hot: &[Value],
    keys: &[Option<&Value>],
    budget: &ExecBudget,
    workers: usize,
) -> Result<(Vec<Vec<RowId>>, usize)> {
    let (parts, hot_map) = right.partition_join_rids(right_col, build_rids, nparts, hot)?;
    let setup = (parts.iter().map(Vec::len).sum::<usize>()
        + hot_map.values().map(Vec::len).sum::<usize>())
        * JOIN_MAP_RID_BYTES
        + hot_map.len() * JOIN_MAP_ENTRY_BYTES;
    budget.charge(setup)?;
    let mut matched: Vec<Vec<RowId>> = vec![Vec::new(); keys.len()];
    // Hot pass: heavy hitters join straight from the resident map, never
    // inflating a partition.
    for (ti, key) in keys.iter().enumerate() {
        if let Some(b) = key.and_then(|k| hot_map.get(k)) {
            matched[ti].extend_from_slice(b);
        }
    }
    // Clamp parallelism to however many worst-case resident maps the
    // remaining budget can hold at once (1 = the classic serial passes).
    let worst_part = parts
        .iter()
        .map(|p| p.len() * (JOIN_MAP_RID_BYTES + JOIN_MAP_ENTRY_BYTES))
        .max()
        .unwrap_or(0);
    let concurrent = match budget.limit() {
        Some(limit) if worst_part > 0 => (limit.saturating_sub(budget.used()) / worst_part).max(1),
        _ => workers,
    };
    let nonempty = parts.iter().filter(|p| !p.is_empty()).count();
    let workers = effective_workers(workers.min(concurrent), nonempty);
    if workers > 1 {
        let lease = budget.lease();
        let contribs = scatter(workers, nparts, |p| {
            let prids = &parts[p];
            let mut contrib: Vec<(usize, Vec<RowId>)> = Vec::new();
            if prids.is_empty() {
                return Ok(contrib);
            }
            let map = right.join_map_filtered(right_col, prids)?;
            let bytes = prids.len() * JOIN_MAP_RID_BYTES + map.len() * JOIN_MAP_ENTRY_BYTES;
            lease.charge(bytes)?;
            for (ti, key) in keys.iter().enumerate() {
                let Some(k) = key else { continue };
                if join_key_partition(k, nparts) != p {
                    continue;
                }
                if let Some(b) = map.get(k) {
                    contrib.push((ti, b.clone()));
                }
            }
            lease.release(bytes);
            Ok(contrib)
        });
        budget.absorb(&lease);
        for (ti, mut bucket) in contribs?.into_iter().flatten() {
            matched[ti].append(&mut bucket);
        }
    } else {
        for (p, prids) in parts.iter().enumerate() {
            if prids.is_empty() {
                continue;
            }
            let map = right.join_map_filtered(right_col, prids)?;
            let bytes = prids.len() * JOIN_MAP_RID_BYTES + map.len() * JOIN_MAP_ENTRY_BYTES;
            budget.charge(bytes)?;
            for (ti, key) in keys.iter().enumerate() {
                let Some(k) = key else { continue };
                // A key routes to exactly one partition; skip the probe
                // work on every other pass.
                if join_key_partition(k, nparts) != p {
                    continue;
                }
                if let Some(b) = map.get(k) {
                    matched[ti].extend_from_slice(b);
                }
            }
            budget.release(bytes);
        }
    }
    budget.release(setup);
    Ok((matched, workers))
}

/// Clamp bounds for a merge walk: the bounds of the pushdown probe on
/// the join key itself, when one exists. The fetched `filter` set is
/// what guarantees exactness (it reconciles NaN and intersects all
/// probes); the clamp only narrows the walk.
fn join_key_clamp<'p>(
    access: &'p AccessPath,
    right_col: &str,
) -> Option<(Bound<&'p Value>, Bound<&'p Value>)> {
    let AccessPath::Index(probes) = access else {
        return None;
    };
    probes
        .iter()
        .find(|p| p.column() == right_col)
        .map(|p| match p {
            IndexProbe::Eq { value, .. } => (Bound::Included(value), Bound::Included(value)),
            IndexProbe::Range { lo, hi, .. } => (lo.as_ref(), hi.as_ref()),
        })
}

/// State every join operator shares: the planned join step, its build
/// table, and the per-step accessors over the outer stream.
struct JoinCore<'a> {
    cx: Rc<ExecCtx<'a>>,
    right: &'a Table,
    pj: &'a PlannedJoin,
}

impl<'a> JoinCore<'a> {
    fn left_slot(&self) -> &'a Slot {
        &self.cx.layout.slots[self.pj.left_slot]
    }

    fn left_pos(&self) -> usize {
        self.cx.exec_pos[self.left_slot().table_ord]
    }

    /// Fetch the build-side pushdown's RowId set (skipped when the outer
    /// stream is empty — nothing to probe with) and charge its bytes.
    /// Returns the set and the step's running charge total.
    fn fetch_build_rids(&self, count: usize) -> Result<(Option<Vec<RowId>>, usize)> {
        let build_rids: Option<Vec<RowId>> = if count > 0 {
            self.pj.build_access.fetch_row_ids(self.right)?
        } else {
            None
        };
        let mut charged = 0usize;
        if let Some(rids) = &build_rids {
            let bytes = rids.len() * JOIN_MAP_RID_BYTES;
            self.cx.budget.charge(bytes)?;
            charged += bytes;
        }
        Ok((build_rids, charged))
    }

    /// Outer-tuple join keys for the strategies that stage matches per
    /// tuple (merge, partitioned): `None` marks a key that never joins.
    fn outer_keys(
        &self,
        tuples: &[&'a Row],
        stride: usize,
        count: usize,
    ) -> Vec<Option<&'a Value>> {
        let left_slot = self.left_slot();
        let left_pos = self.left_pos();
        (0..count)
            .map(|ti| {
                let key = tuples[ti * stride + left_pos]
                    .get(left_slot.col_idx)
                    .unwrap_or(&NULL_VALUE);
                (!join_key_excluded(key)).then_some(key)
            })
            .collect()
    }

    fn prefilter_suffix(&self) -> String {
        match &self.pj.build_access {
            AccessPath::FullScan => String::new(),
            access => format!(", prefilter={}", access.describe()),
        }
    }

    /// Visibility of the build table under this tree's snapshot.
    fn vis(&self) -> Vis<'_> {
        self.cx.vis(self.right)
    }

    /// Per-rid re-verification for visible execution: both the probed
    /// buckets and the pushdown's fetched set hold the union of every
    /// version's keys, so the *visible* version must still carry the
    /// outer join key and satisfy the consumed build-side conjuncts.
    fn verify_visible(&self, row: &Row, right_idx: usize, key: &Value) -> Result<bool> {
        Ok(row.get(right_idx) == Some(key) && self.pj.build_access.matches_row(self.right, row)?)
    }

    /// Column index of the build-side join key, for re-verification.
    fn right_idx(&self) -> Result<usize> {
        self.right.schema().require_column(&self.pj.right_col)
    }
}

/// The probe-loop epilogue shared by every strategy: emit the matched
/// bucket behind the outer tuple in bucket (ascending-RowId) order,
/// carrying FROM-order RowIds along when canonicalization will need
/// them.
struct JoinOutput<'a> {
    out: Vec<&'a Row>,
    out_rids: Vec<RowId>,
}

impl<'a> JoinOutput<'a> {
    fn new() -> JoinOutput<'a> {
        JoinOutput {
            out: Vec::new(),
            out_rids: Vec::new(),
        }
    }

    fn emit(
        &mut self,
        core: &JoinCore<'a>,
        right_idx: usize,
        key: &Value,
        bucket: &[RowId],
        t: &[&'a Row],
        t_rids: &[RowId],
    ) -> Result<()> {
        let right = core.right;
        let needs_canonical = core.cx.needs_canonical;
        let vis = core.vis();
        for &rid in bucket {
            let rrow = match vis {
                Vis::All => right.get(rid).expect("lookup returned live id"),
                // Under a snapshot the bucket is a version superset:
                // resolve the visible version and re-verify the match.
                Vis::Snap(_) => {
                    let Some(r) = vis.row(right, rid) else {
                        continue;
                    };
                    if !core.verify_visible(r, right_idx, key)? {
                        continue;
                    }
                    r
                }
            };
            self.out.extend_from_slice(t);
            self.out.push(rrow);
            if needs_canonical {
                self.out_rids.extend_from_slice(t_rids);
                self.out_rids.push(rid);
            }
        }
        Ok(())
    }

    fn into_batch(self, stride: usize) -> Batch<'a> {
        Batch::Tuples {
            tuples: self.out,
            rids: self.out_rids,
            stride: stride + 1,
        }
    }
}

/// Per-tuple index probes into the build side, intersected with the
/// build-side pushdown's fetched set when the planner priced one in. A
/// per-key scan fallback is kept for the strategy-less planner
/// generations, whose plans may probe unindexed columns.
pub(super) struct IndexProbeJoin<'a> {
    core: JoinCore<'a>,
    child: Box<dyn Operator<'a> + 'a>,
    out: Option<Batch<'a>>,
    stats: Option<NodeStats>,
}

impl<'a> IndexProbeJoin<'a> {
    pub(super) fn new(
        cx: Rc<ExecCtx<'a>>,
        child: Box<dyn Operator<'a> + 'a>,
        right: &'a Table,
        pj: &'a PlannedJoin,
    ) -> IndexProbeJoin<'a> {
        IndexProbeJoin {
            core: JoinCore { cx, right, pj },
            child,
            out: None,
            stats: None,
        }
    }

    fn apply(&mut self, input: Batch<'a>) -> Result<Batch<'a>> {
        let Batch::Tuples {
            tuples,
            rids,
            stride,
        } = input
        else {
            unreachable!("joins run on the borrowed tuple stream")
        };
        let core = &self.core;
        let right = core.right;
        let left_slot = core.left_slot();
        let left_pos = core.left_pos();
        let count = tuples.len() / stride;
        let right_idx = core.right_idx()?;
        let (build_rids, step_charged) = core.fetch_build_rids(count)?;
        let mut output = JoinOutput::new();
        for ti in 0..count {
            let t = &tuples[ti * stride..(ti + 1) * stride];
            let key = t[left_pos].get(left_slot.col_idx).unwrap_or(&NULL_VALUE);
            if join_key_excluded(key) {
                continue;
            }
            // Probe the bucket, then intersect with the build-side
            // pushdown's fetched set — the consumed conjuncts must hold,
            // exactly as the merge path enforces through its filter.
            let scan_bucket;
            let bucket: &[RowId] = match (right.index_bucket(&core.pj.right_col, key), &build_rids)
            {
                (Some(b), None) => b,
                (Some(b), Some(f)) => {
                    scan_bucket = intersect_sorted(b, f);
                    &scan_bucket
                }
                (None, filter) => {
                    let mut looked = right.lookup(&core.pj.right_col, key)?;
                    if let Some(f) = filter {
                        looked = intersect_sorted(&looked, f);
                    }
                    scan_bucket = looked;
                    &scan_bucket
                }
            };
            let t_rids = if core.cx.needs_canonical {
                &rids[ti * stride..(ti + 1) * stride]
            } else {
                &[]
            };
            output.emit(core, right_idx, key, bucket, t, t_rids)?;
        }
        core.cx.budget.release(step_charged);
        Ok(output.into_batch(stride))
    }

    fn describe_node(&self) -> String {
        format!(
            "IndexProbeJoin [{}.{}{}]",
            self.core.pj.table,
            self.core.pj.right_col,
            self.core.prefilter_suffix()
        )
    }

    fn estimate(&self) -> Option<f64> {
        Some(self.core.pj.estimated_rows)
    }
}

operator_impl!(IndexProbeJoin, core);

/// Classic build-side hash join, with two budget-driven variants: the
/// plan (or an exec-time degradation when the worst-case in-place
/// footprint no longer fits) may switch to the partitioned build, where
/// plan-identified hot keys stay in a small always-resident map and only
/// one partition's map is resident at a time.
pub(super) struct BuildHashJoin<'a> {
    core: JoinCore<'a>,
    child: Box<dyn Operator<'a> + 'a>,
    /// Partition count the node actually ran with (for `EXPLAIN
    /// ANALYZE`: exec-time degradation is invisible in the plan).
    ran_partitions: Option<usize>,
    /// Build workers the node actually ran with, when the plan granted
    /// it more than one (for `EXPLAIN ANALYZE`: the executor demotes
    /// when the build yields fewer morsels or the budget cannot hold
    /// concurrent partition maps; 1 = the build was effectively serial).
    ran_workers: Option<usize>,
    out: Option<Batch<'a>>,
    stats: Option<NodeStats>,
}

impl<'a> BuildHashJoin<'a> {
    pub(super) fn new(
        cx: Rc<ExecCtx<'a>>,
        child: Box<dyn Operator<'a> + 'a>,
        right: &'a Table,
        pj: &'a PlannedJoin,
    ) -> BuildHashJoin<'a> {
        BuildHashJoin {
            core: JoinCore { cx, right, pj },
            child,
            ran_partitions: None,
            ran_workers: None,
            out: None,
            stats: None,
        }
    }

    fn apply(&mut self, input: Batch<'a>) -> Result<Batch<'a>> {
        let Batch::Tuples {
            tuples,
            rids,
            stride,
        } = input
        else {
            unreachable!("joins run on the borrowed tuple stream")
        };
        let core = &self.core;
        let right = core.right;
        let pj = core.pj;
        let budget = core.cx.budget;
        let left_slot = core.left_slot();
        let left_pos = core.left_pos();
        let count = tuples.len() / stride;
        let right_idx = core.right_idx()?;
        let vis = core.vis();
        // Under a snapshot the build map is keyed on *visible* cells
        // (`join_map_visible`), so the pushdown's fetched set and the
        // partitioned variant — both built from newest versions only —
        // are bypassed; the consumed conjuncts are re-verified per rid
        // in `emit` instead.
        let (build_rids, mut step_charged) = if vis.is_all() {
            core.fetch_build_rids(count)?
        } else {
            (None, 0)
        };

        // Build partitions for this step: the plan's decision from
        // cardinality estimates, or an exec-time degradation when the
        // worst-case in-place footprint (every key distinct) no longer
        // fits the remaining budget. 1 is the classic resident build.
        let nparts = if count > 0 && vis.is_all() {
            let entering = build_rids.as_ref().map_or(right.len(), Vec::len);
            let worst = join_build_bytes(entering, entering);
            if pj.partitions > 1 {
                pj.partitions
            } else if budget.fits(worst) {
                1
            } else {
                build_partition_count(worst, budget.limit().unwrap_or(usize::MAX)).max(2)
            }
        } else {
            1
        };
        self.ran_partitions = Some(nparts);

        let build_map = if count > 0 && nparts == 1 {
            // The snapshot build stays serial: `join_map_visible` keys
            // on visible cells, which has no morsel decomposition yet.
            let map = match (vis, &build_rids) {
                (Vis::Snap(s), _) => right.join_map_visible(&pj.right_col, s)?,
                (Vis::All, rids) => {
                    if pj.build_workers > 1 {
                        let (map, ran) = parallel_build_map(
                            right,
                            &pj.right_col,
                            rids.as_deref(),
                            pj.build_workers,
                            self.core.cx.morsel_rows,
                            budget,
                        )?;
                        self.ran_workers = Some(ran);
                        map
                    } else {
                        match rids {
                            Some(rids) => right.join_map_filtered(&pj.right_col, rids)?,
                            None => right.join_map(&pj.right_col)?,
                        }
                    }
                }
            };
            // The actual footprint is at most the worst case `fits`
            // admitted above, so against a real limit this charge
            // cannot fail — only an injected fault trips it.
            let bytes = join_map_priced_bytes(&map);
            budget.charge(bytes)?;
            step_charged += bytes;
            Some(map)
        } else {
            None
        };
        let keys: Option<Vec<Option<&Value>>> =
            (count > 0 && nparts > 1).then(|| self.core.outer_keys(&tuples, stride, count));
        let partitioned_matches = match &keys {
            Some(keys) => {
                // nparts > 1 implied Vis::All, so the planned workers
                // apply directly (the clamp inside may still demote).
                let (matched, ran) = partitioned_join_matches(
                    right,
                    &pj.right_col,
                    build_rids.as_deref(),
                    nparts,
                    &pj.hot_keys,
                    keys,
                    budget,
                    pj.build_workers,
                )?;
                if pj.build_workers > 1 {
                    self.ran_workers = Some(ran);
                }
                Some(matched)
            }
            None => None,
        };

        let mut output = JoinOutput::new();
        for ti in 0..count {
            let t = &tuples[ti * stride..(ti + 1) * stride];
            let key = t[left_pos].get(left_slot.col_idx).unwrap_or(&NULL_VALUE);
            if join_key_excluded(key) {
                continue;
            }
            // Both variants fill buckets in ascending-RowId order: the
            // build map fills in scan order and partitioned matches
            // re-merge in rid order.
            let bucket: &[RowId] = match (&build_map, &partitioned_matches) {
                (Some(map), _) => map.get(key).map_or(&[][..], Vec::as_slice),
                (None, Some(matches)) => &matches[ti],
                (None, None) => unreachable!("count > 0 built one of the variants"),
            };
            let t_rids = if self.core.cx.needs_canonical {
                &rids[ti * stride..(ti + 1) * stride]
            } else {
                &[]
            };
            output.emit(&self.core, right_idx, key, bucket, t, t_rids)?;
        }
        budget.release(step_charged);
        Ok(output.into_batch(stride))
    }

    fn describe_node(&self) -> String {
        let pj = self.core.pj;
        let mut params = format!("{}.{}", pj.table, pj.right_col);
        params.push_str(&format!(", partitions={}", pj.partitions));
        if let Some(ran) = self.ran_partitions {
            if ran != pj.partitions {
                params.push_str(&format!(", ran_partitions={ran}"));
            }
        }
        if !pj.hot_keys.is_empty() {
            params.push_str(&format!(", hot={}", pj.hot_keys.len()));
        }
        if pj.build_workers > 1 {
            params.push_str(&format!(", workers={}", pj.build_workers));
            if let Some(ran) = self.ran_workers {
                if ran != pj.build_workers {
                    params.push_str(&format!(", ran_workers={ran}"));
                }
            }
        }
        params.push_str(&self.core.prefilter_suffix());
        format!("BuildHashJoin [{params}]")
    }

    fn estimate(&self) -> Option<f64> {
        Some(self.core.pj.estimated_rows)
    }
}

operator_impl!(BuildHashJoin, core);

/// Merge join over the build side's ordered index: outer keys and index
/// entries walk in tandem, optionally clamped to the pushdown's bounds
/// on the join key.
pub(super) struct MergeRangeJoin<'a> {
    core: JoinCore<'a>,
    child: Box<dyn Operator<'a> + 'a>,
    out: Option<Batch<'a>>,
    stats: Option<NodeStats>,
}

impl<'a> MergeRangeJoin<'a> {
    pub(super) fn new(
        cx: Rc<ExecCtx<'a>>,
        child: Box<dyn Operator<'a> + 'a>,
        right: &'a Table,
        pj: &'a PlannedJoin,
    ) -> MergeRangeJoin<'a> {
        MergeRangeJoin {
            core: JoinCore { cx, right, pj },
            child,
            out: None,
            stats: None,
        }
    }

    fn apply(&mut self, input: Batch<'a>) -> Result<Batch<'a>> {
        let Batch::Tuples {
            tuples,
            rids,
            stride,
        } = input
        else {
            unreachable!("joins run on the borrowed tuple stream")
        };
        let core = &self.core;
        let right = core.right;
        let pj = core.pj;
        let budget = core.cx.budget;
        let count = tuples.len() / stride;
        let (build_rids, mut step_charged) = core.fetch_build_rids(count)?;

        let merge_matches = if count > 0 {
            let keys = core.outer_keys(&tuples, stride, count);
            let clamp = if build_rids.is_some() {
                join_key_clamp(&pj.build_access, &pj.right_col)
            } else {
                None
            };
            let matches =
                merge_match_buckets(right, &pj.right_col, &keys, build_rids.as_deref(), clamp);
            // Only the intersected (owned) buckets are new memory;
            // borrowed buckets live in the index.
            let bytes = matches
                .iter()
                .map(|b| match b {
                    Cow::Owned(v) => v.len() * JOIN_MAP_RID_BYTES,
                    Cow::Borrowed(_) => 0,
                })
                .sum::<usize>();
            budget.charge(bytes)?;
            step_charged += bytes;
            Some(matches)
        } else {
            None
        };

        let left_slot = core.left_slot();
        let left_pos = core.left_pos();
        let right_idx = core.right_idx()?;
        let mut output = JoinOutput::new();
        for ti in 0..count {
            let t = &tuples[ti * stride..(ti + 1) * stride];
            let key = t[left_pos].get(left_slot.col_idx).unwrap_or(&NULL_VALUE);
            if join_key_excluded(key) {
                continue;
            }
            let matches = merge_matches.as_ref().expect("count > 0 staged matches");
            let t_rids = if core.cx.needs_canonical {
                &rids[ti * stride..(ti + 1) * stride]
            } else {
                &[]
            };
            output.emit(core, right_idx, key, &matches[ti], t, t_rids)?;
        }
        budget.release(step_charged);
        Ok(output.into_batch(stride))
    }

    fn describe_node(&self) -> String {
        format!(
            "MergeRangeJoin [{}.{}{}]",
            self.core.pj.table,
            self.core.pj.right_col,
            self.core.prefilter_suffix()
        )
    }

    fn estimate(&self) -> Option<f64> {
        Some(self.core.pj.estimated_rows)
    }
}

operator_impl!(MergeRangeJoin, core);
