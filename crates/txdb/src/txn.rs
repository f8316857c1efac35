//! Multi-version concurrency control: transaction ids, snapshots, and
//! the transaction handle.
//!
//! The engine keeps every row as a version chain (see
//! [`Table`](crate::Table)); this module owns the bookkeeping that makes
//! those chains mean something. A [`TxnManager`] allocates monotonically
//! increasing transaction ids and tracks the active set; every reader
//! works through a [`Snapshot`] — a watermark plus the set of
//! transactions that were in flight when it was taken — so a `SELECT`
//! sees exactly the versions committed before it began, regardless of
//! what writers do concurrently. Commit publishes a transaction's
//! versions simply by removing its id from the active set (stamps are
//! written at write time and never rewritten); rollback unwinds the
//! recorded [`ChangeRecord`]s in reverse; superseded versions linger as
//! garbage until vacuum reclaims everything the oldest active snapshot
//! can no longer reach. The same buffered records double as the durable
//! commit batch: on a database opened from disk, commit frames them into
//! the write-ahead log (see [`crate::wal`]) before publishing.
//!
//! Write-write conflicts use first-committer-wins: a transaction that
//! tries to modify a row whose newest version it cannot see aborts with
//! [`TxdbError::Serialization`](crate::TxdbError). There is no SSI
//! (write-skew is possible), and the whole scheme is single-process —
//! see `ARCHITECTURE.md` for the full rules and limits.

use std::collections::BTreeMap;

use crate::error::Result;
use crate::predicate::Predicate;
use crate::row::{Row, RowId};
use crate::value::Value;
use crate::wal::ChangeRecord;
use crate::Database;

/// End-stamp value of a version that has not been deleted or superseded.
pub(crate) const LIVE_TXN: u64 = u64::MAX;

/// A consistent read position: every version committed before the
/// snapshot was taken is visible, everything else is not.
///
/// Concretely, [`Snapshot::sees`] admits a transaction id when it lies
/// below the `watermark` (the next id to be allocated at snapshot time)
/// and was not in the active set at that moment — plus the owning
/// transaction's id, so a transaction always reads its own writes.
/// Snapshots are plain values: cheap to clone, safe to hold across
/// statements, and independent of any storage borrow, which is what
/// lets a reader and a writer interleave without blocking each other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The next transaction id at snapshot time; ids at or above this
    /// started after the snapshot and are invisible.
    watermark: u64,
    /// Ids below the watermark that were uncommitted at snapshot time
    /// (sorted ascending).
    active: Vec<u64>,
    /// The transaction this snapshot belongs to, when taken inside one:
    /// its own writes are visible to it.
    own: Option<u64>,
}

impl Snapshot {
    pub(crate) fn new(watermark: u64, active: Vec<u64>, own: Option<u64>) -> Snapshot {
        Snapshot {
            watermark,
            active,
            own,
        }
    }

    /// Whether a version stamped by transaction `txn` is visible to this
    /// snapshot. Stamp 0 marks pristine pre-MVCC state, visible to all.
    pub fn sees(&self, txn: u64) -> bool {
        txn == 0
            || self.own == Some(txn)
            || (txn < self.watermark && self.active.binary_search(&txn).is_err())
    }

    /// The next transaction id at the time this snapshot was taken.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The owning transaction's id, when the snapshot was taken inside
    /// an explicit transaction.
    pub fn own_txn(&self) -> Option<u64> {
        self.own
    }
}

#[derive(Debug, Clone)]
struct TxnState {
    snapshot: Snapshot,
    /// The transaction's change records, in write order. Rollback
    /// unwinds them in reverse (`Update` only when it pushed a version);
    /// commit frames them into the WAL as one batch.
    writes: Vec<ChangeRecord>,
}

/// Allocates transaction ids and tracks the active set — the source of
/// truth every [`Snapshot`] is cut from.
///
/// Ids start at 1 and increase monotonically (0 is reserved for
/// pristine pre-MVCC stamps). Each active transaction holds the
/// snapshot it was born with and the list of writes to unwind on
/// rollback. The manager is a passive registry: all storage mutation
/// goes through [`Database`]'s transaction API, which
/// consults it for snapshots, conflict checks and the vacuum horizon.
#[derive(Debug, Clone)]
pub struct TxnManager {
    next: u64,
    active: BTreeMap<u64, TxnState>,
}

impl Default for TxnManager {
    fn default() -> TxnManager {
        TxnManager {
            next: 1,
            active: BTreeMap::new(),
        }
    }
}

impl TxnManager {
    /// Number of transactions currently in flight.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Whether transaction `txn` is currently in flight.
    pub fn is_active(&self, txn: u64) -> bool {
        self.active.contains_key(&txn)
    }

    /// The oldest in-flight transaction id, when any — the vacuum
    /// horizon: versions only reachable below it are reclaimable.
    pub fn oldest_active(&self) -> Option<u64> {
        self.active.keys().next().copied()
    }

    pub(crate) fn begin(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        let snapshot = Snapshot::new(id, self.active.keys().copied().collect(), Some(id));
        self.active.insert(
            id,
            TxnState {
                snapshot,
                writes: Vec::new(),
            },
        );
        id
    }

    /// A detached latest-committed snapshot: sees everything committed
    /// so far, nothing in flight.
    pub(crate) fn latest_snapshot(&self) -> Snapshot {
        Snapshot::new(self.next, self.active.keys().copied().collect(), None)
    }

    pub(crate) fn snapshot_of(&self, txn: u64) -> Option<Snapshot> {
        self.active.get(&txn).map(|s| s.snapshot.clone())
    }

    pub(crate) fn record(&mut self, txn: u64, op: ChangeRecord) {
        if let Some(state) = self.active.get_mut(&txn) {
            state.writes.push(op);
        }
    }

    pub(crate) fn writes_len(&self, txn: u64) -> usize {
        self.active.get(&txn).map_or(0, |s| s.writes.len())
    }

    /// Drop `txn` from the active set, returning its write log (commit
    /// keeps the versions and frames the records to the WAL, rollback
    /// unwinds them).
    pub(crate) fn finish(&mut self, txn: u64) -> Option<Vec<ChangeRecord>> {
        self.active.remove(&txn).map(|s| s.writes)
    }

    /// Raise the id allocator so it never re-issues ids at or below
    /// `max_seen` (recovery re-seeds the watermark from the log).
    pub(crate) fn advance_past(&mut self, max_seen: u64) {
        self.next = self.next.max(max_seen + 1);
    }

    /// The next transaction id that would be allocated. Snapshot dumps
    /// persist this so a restored database never re-issues an id that
    /// already stamped a row version.
    pub(crate) fn next_txn_id(&self) -> u64 {
        self.next
    }

    /// Whether every active snapshot sees transaction `txn` — the
    /// reclamation test vacuum applies to version stamps. False for any
    /// in-flight transaction (its own snapshot would claim to see it).
    pub(crate) fn all_see(&self, txn: u64) -> bool {
        !self.active.contains_key(&txn) && self.active.values().all(|s| s.snapshot.sees(txn))
    }
}

/// An open transaction handle: an RAII guard over the id-based
/// transaction API on [`Database`] (`txn_begin` / `txn_insert` / …).
/// Every method delegates to the `txn_*` call of the same name, so
/// mutations made through it are atomic and isolated exactly as there:
/// reads go through the transaction's own [`Snapshot`] (own writes
/// included). The guard's one addition is the end of the transaction:
/// it is committed only by [`Transaction::try_commit`], and rolled back
/// by [`Transaction::rollback`] or when the handle drops.
///
/// The guard holds the mutable borrow for the transaction's whole
/// extent; sessions that interleave with other work (like the SQL shell)
/// hold the raw id instead.
#[derive(Debug)]
pub struct Transaction<'db> {
    db: &'db mut Database,
    id: u64,
    finished: bool,
}

impl<'db> Transaction<'db> {
    pub(crate) fn new(db: &'db mut Database) -> Transaction<'db> {
        let id = db.txn_begin();
        Transaction {
            db,
            id,
            finished: false,
        }
    }

    /// The transaction's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Insert a row (FK-enforcing).
    pub fn insert(&mut self, table: &str, row: Row) -> Result<RowId> {
        self.db.txn_insert(self.id, table, row)
    }

    /// Delete a row (referential RESTRICT).
    pub fn delete(&mut self, table: &str, rid: RowId) -> Result<Row> {
        self.db.txn_delete(self.id, table, rid)
    }

    /// Update one column of a row.
    pub fn update(&mut self, table: &str, rid: RowId, column: &str, value: Value) -> Result<Value> {
        self.db.txn_update(self.id, table, rid, column, value)
    }

    /// Read rows through the transaction's snapshot (sees its own
    /// uncommitted writes, not those of concurrent transactions).
    pub fn select(&self, table: &str, pred: &Predicate) -> Result<Vec<(RowId, Row)>> {
        self.db.txn_select(self.id, table, pred)
    }

    /// Read-only view of the underlying database.
    pub fn db(&self) -> &Database {
        self.db
    }

    /// Number of mutations recorded so far.
    pub fn pending_ops(&self) -> usize {
        self.db.txn_pending_ops(self.id)
    }

    /// Make all changes permanent. On a durable database a commit whose
    /// log append fails is rolled back — nothing was published — and the
    /// error comes back here; `Ok` means the writes are visible (and, on a
    /// durable database, logged).
    pub fn try_commit(mut self) -> Result<()> {
        self.finished = true;
        self.db.txn_commit(self.id)
    }

    /// Explicitly roll back (equivalent to dropping the handle).
    pub fn rollback(self) {
        drop(self);
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.db.txn_rollback(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::TableSchema;
    use crate::value::DataType;

    fn db_with_t() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("t")
                .column("id", DataType::Int)
                .column("name", DataType::Text)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn commit_persists() {
        let mut db = db_with_t();
        let mut txn = db.begin();
        txn.insert("t", row![1, "a"]).unwrap();
        txn.insert("t", row![2, "b"]).unwrap();
        assert_eq!(txn.pending_ops(), 2);
        txn.try_commit().unwrap();
        assert_eq!(db.table("t").unwrap().len(), 2);
    }

    #[test]
    fn drop_rolls_back() {
        let mut db = db_with_t();
        {
            let mut txn = db.begin();
            txn.insert("t", row![1, "a"]).unwrap();
        }
        assert_eq!(db.table("t").unwrap().len(), 0);
    }

    #[test]
    fn explicit_rollback() {
        let mut db = db_with_t();
        db.insert("t", row![1, "a"]).unwrap();
        let mut txn = db.begin();
        let rid = txn.select("t", &Predicate::eq("id", 1)).unwrap()[0].0;
        txn.update("t", rid, "name", "z".into()).unwrap();
        txn.delete("t", rid).unwrap();
        txn.insert("t", row![2, "b"]).unwrap();
        txn.rollback();
        let rows = db.select("t", &Predicate::True).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.get(1).unwrap().as_text(), Some("a"));
    }

    #[test]
    fn rollback_restores_in_reverse_order() {
        let mut db = db_with_t();
        db.insert("t", row![1, "a"]).unwrap();
        {
            let mut txn = db.begin();
            let rid = txn.select("t", &Predicate::eq("id", 1)).unwrap()[0].0;
            // Update the same cell twice; rollback must restore the oldest.
            txn.update("t", rid, "name", "x".into()).unwrap();
            txn.update("t", rid, "name", "y".into()).unwrap();
        }
        let rows = db.select("t", &Predicate::True).unwrap();
        assert_eq!(rows[0].1.get(1).unwrap().as_text(), Some("a"));
    }

    #[test]
    fn transaction_sees_own_writes() {
        let mut db = db_with_t();
        let mut txn = db.begin();
        txn.insert("t", row![1, "a"]).unwrap();
        assert_eq!(txn.select("t", &Predicate::eq("id", 1)).unwrap().len(), 1);
        txn.try_commit().unwrap();
    }

    #[test]
    fn snapshot_visibility_rules() {
        // watermark 10, txn 4 was active, own id 7.
        let snap = Snapshot::new(10, vec![4], Some(7));
        assert!(snap.sees(0), "pristine stamps visible to all");
        assert!(snap.sees(3), "committed before the snapshot");
        assert!(!snap.sees(4), "active at snapshot time");
        assert!(snap.sees(7), "own writes");
        assert!(!snap.sees(10), "started after the snapshot");
        assert!(!snap.sees(12), "started after the snapshot");
    }
}
