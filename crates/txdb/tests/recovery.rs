//! Crash-consistency harness for the change log (WAL) and snapshot
//! checkpoints.
//!
//! The central invariant: after *any* crash — a log torn at any frame
//! boundary, a partially written frame, a flipped payload byte, a log
//! append that failed mid-commit — reopening the data directory yields
//! exactly the last committed state, nothing more and nothing less.
//!
//! The harness drives a fixed transactional workload, records a shadow
//! SQL dump after every commit, then mutilates the on-disk log at every
//! frame boundary and checks the recovered database against the shadow
//! that matches the surviving prefix of `Commit` records.

use std::path::{Path, PathBuf};

use cat_txdb::database::{SNAPSHOT_FILE, WAL_FILE};
use cat_txdb::wal::log::APPEND_CHUNK_BYTES;
use cat_txdb::{
    dump_sql, row, scan_wal, ChangeRecord, DataType, Database, Predicate, TableSchema, TxdbError,
    Value, WalOptions,
};

/// A fresh, empty scratch directory under the system temp dir, unique
/// per test name and process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("txdb-recovery-tests")
        .join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Open without fsync: these tests exercise crash *consistency* (what
/// replay makes of the bytes that did reach the file), not the fsync
/// policy, and the full boundary sweep reopens the directory hundreds
/// of times.
fn open_fast(dir: &Path) -> Database {
    Database::open_with(dir, WalOptions { fsync: false }).expect("open")
}

fn accounts_schema() -> TableSchema {
    TableSchema::builder("account")
        .column("id", DataType::Int)
        .column("balance", DataType::Int)
        .nullable_column("note", DataType::Text)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

/// Physical row id of the account with primary key `id` (latest
/// committed state). The mutation API is row-id-based.
fn rid_of(db: &Database, id: i64) -> cat_txdb::RowId {
    let hits = db.select("account", &Predicate::eq("id", id)).unwrap();
    assert_eq!(hits.len(), 1, "account id {id} not unique/present");
    hits[0].0
}

/// The canonical committed state of a database, for equality checks:
/// the SQL dump (schema + rows) plus every table's physical row ids
/// (the dump alone would not catch a replay that renumbers rows).
type Shadow = (String, Vec<(String, Vec<u64>)>);

fn observed_state(db: &Database) -> Shadow {
    let dump = dump_sql(db).expect("no active txns when observing state");
    let mut rids = Vec::new();
    for t in db.table_names() {
        let ids: Vec<u64> = db.table(t).unwrap().scan().map(|(rid, _)| rid.0).collect();
        rids.push((t.to_string(), ids));
    }
    (dump, rids)
}

// ---------------------------------------------------------------------
// Basic durability
// ---------------------------------------------------------------------

#[test]
fn drop_and_reopen_recovers_committed_state() {
    let dir = scratch("drop-reopen");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    // Auto-commit writes...
    for i in 0..10i64 {
        db.insert("account", row![i, 100 * i, Value::Null]).unwrap();
    }
    // ...an explicit committed transaction...
    let (rid3, rid7) = (rid_of(&db, 3), rid_of(&db, 7));
    let txn = db.txn_begin();
    db.txn_update(txn, "account", rid3, "balance", Value::Int(-1))
        .unwrap();
    db.txn_delete(txn, "account", rid7).unwrap();
    db.txn_insert(txn, "account", row![77, 7, "seventy-seven"])
        .unwrap();
    db.txn_commit(txn).unwrap();
    // ...a rolled-back transaction (must leave no trace)...
    let txn = db.txn_begin();
    db.txn_insert(txn, "account", row![666, 0, Value::Null])
        .unwrap();
    db.txn_rollback(txn).unwrap();
    // ...and an uncommitted transaction still open at the "crash".
    let open_txn = db.txn_begin();
    db.txn_insert(open_txn, "account", row![999, 0, Value::Null])
        .unwrap();

    // Observe the state as a fresh reader sees it (committed only) by
    // rolling back the straggler on a clone; the on-disk files never saw
    // the uncommitted writes at all.
    let mut observer = db.clone();
    observer.txn_rollback(open_txn).unwrap();
    let expect = observed_state(&observer);

    drop(db); // crash: no close(), no checkpoint
    let reopened = open_fast(&dir);
    assert_eq!(observed_state(&reopened), expect);
    // The id allocator never rewinds below any id the log has seen:
    // every logged txn id stays smaller than the new watermark.
    let scan = scan_wal(&std::fs::read(dir.join(WAL_FILE)).unwrap())
        .unwrap()
        .expect("log exists");
    let max_logged = scan
        .records
        .iter()
        .filter_map(ChangeRecord::txn)
        .max()
        .unwrap();
    assert!(reopened.snapshot().watermark() > max_logged);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopened_database_keeps_accepting_writes() {
    let dir = scratch("reopen-write");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    db.insert("account", row![1, 10, Value::Null]).unwrap();
    drop(db);

    let mut db = open_fast(&dir);
    // PK uniqueness survived recovery.
    assert!(db.insert("account", row![1, 99, Value::Null]).is_err());
    db.insert("account", row![2, 20, Value::Null]).unwrap();
    let txn = db.txn_begin();
    db.txn_insert(txn, "account", row![3, 30, Value::Null])
        .unwrap();
    db.txn_commit(txn).unwrap();
    drop(db);

    let db = open_fast(&dir);
    assert_eq!(db.table("account").unwrap().len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commit_spanning_many_append_chunks_recovers() {
    // One transaction whose framed records are several times the WAL's
    // append chunk: every chunk must reach the file, in order.
    let dir = scratch("big-commit");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    let log_before = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    let records_before = db.wal_appended_records();
    let txn = db.txn_begin();
    for i in 0..3000i64 {
        let note = format!("{i:06}-{}", "x".repeat(100));
        db.txn_insert(txn, "account", row![i, i * 7, note]).unwrap();
    }
    db.txn_commit(txn).unwrap();
    let grown = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len() - log_before;
    assert!(
        grown > 4 * APPEND_CHUNK_BYTES as u64,
        "batch spans several chunks: {grown} bytes"
    );
    // Every insert plus the commit marker is counted once.
    let scan = scan_wal(&std::fs::read(dir.join(WAL_FILE)).unwrap())
        .unwrap()
        .expect("log exists");
    assert_eq!(scan.records.len() as u64, db.wal_appended_records());
    assert!(db.wal_appended_records() - records_before > 3000);
    let expect = observed_state(&db);
    drop(db);
    let reopened = open_fast(&dir);
    assert_eq!(reopened.table("account").unwrap().len(), 3000);
    assert_eq!(observed_state(&reopened), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

#[test]
fn checkpoint_truncates_log_and_preserves_state() {
    let dir = scratch("checkpoint");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    for i in 0..20i64 {
        db.insert("account", row![i, i, Value::Null]).unwrap();
    }
    assert!(db.wal_appended_records() > 0);
    db.checkpoint().unwrap();
    assert_eq!(db.wal_appended_records(), 0, "checkpoint truncates the log");
    // Writes after the checkpoint land in the fresh log.
    db.insert("account", row![100, 1, "post-checkpoint"])
        .unwrap();
    let expect = observed_state(&db);
    drop(db);

    let reopened = open_fast(&dir);
    assert_eq!(observed_state(&reopened), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_refuses_active_transactions() {
    let dir = scratch("checkpoint-guard");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    let txn = db.txn_begin();
    db.txn_insert(txn, "account", row![1, 1, Value::Null])
        .unwrap();
    let err = db.checkpoint().unwrap_err();
    assert!(
        matches!(
            &err,
            TxdbError::ActiveTransactions { operation, count: 1 } if operation == "checkpoint"
        ),
        "got {err:?}"
    );
    db.txn_commit(txn).unwrap();
    db.checkpoint().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_memory_database_refuses_checkpoint() {
    let mut db = Database::new();
    let err = db.checkpoint().unwrap_err();
    assert!(matches!(err, TxdbError::Io { .. }), "got {err:?}");
}

#[test]
fn stale_log_after_interrupted_checkpoint_is_discarded() {
    // Simulate a crash *between* "snapshot renamed into place" and "log
    // truncated": the old-generation log sits next to the new-generation
    // snapshot. Its contents are already inside the snapshot — replaying
    // them twice would double-apply.
    let dir = scratch("stale-log");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    db.insert("account", row![1, 10, Value::Null]).unwrap();
    drop(db);
    let stale_log = std::fs::read(dir.join(WAL_FILE)).unwrap();

    let mut db = open_fast(&dir);
    db.checkpoint().unwrap();
    let expect = observed_state(&db);
    drop(db);
    // Put the pre-checkpoint log back, as the interrupted crash left it.
    std::fs::write(dir.join(WAL_FILE), &stale_log).unwrap();

    let reopened = open_fast(&dir);
    assert_eq!(observed_state(&reopened), expect);
    assert_eq!(
        reopened.table("account").unwrap().len(),
        1,
        "no double apply"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn log_newer_than_snapshot_is_corrupt() {
    let dir = scratch("newer-log");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    db.checkpoint().unwrap(); // snapshot generation 1, log generation 1
    drop(db);
    // Losing the snapshot leaves a generation-1 log with no base to
    // apply on: recovery must refuse, not silently replay onto empty.
    std::fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();
    let err = Database::open(&dir).unwrap_err();
    assert!(matches!(err, TxdbError::Corrupt(_)), "got {err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Torn-log sweep: kill the log at every frame boundary
// ---------------------------------------------------------------------

/// Drive a workload of explicit transactions, recording a shadow dump
/// after every durable point (the DDL record, then every commit).
/// Returns the shadow states: `shadows[k]` is the expected observable
/// state once the first `k` durable points have been replayed.
fn committed_workload(dir: &Path) -> Vec<Shadow> {
    let mut db = open_fast(dir);
    let mut shadows = Vec::new();
    shadows.push(observed_state(&db)); // empty database, nothing replayed
    db.create_table(accounts_schema()).unwrap();
    shadows.push(observed_state(&db)); // DDL applied
    let mut commit = |db: &mut Database, ops: &dyn Fn(&mut Database, u64)| {
        let txn = db.txn_begin();
        ops(db, txn);
        db.txn_commit(txn).unwrap();
        shadows.push(observed_state(db));
    };
    commit(&mut db, &|db, t| {
        for i in 0..4i64 {
            db.txn_insert(t, "account", row![i, 10 * i, Value::Null])
                .unwrap();
        }
    });
    commit(&mut db, &|db, t| {
        let rid2 = rid_of(db, 2);
        db.txn_update(t, "account", rid2, "balance", Value::Int(777))
            .unwrap();
        db.txn_insert(t, "account", row![9, 9, "nine"]).unwrap();
    });
    commit(&mut db, &|db, t| {
        let (rid0, rid9) = (rid_of(db, 0), rid_of(db, 9));
        db.txn_delete(t, "account", rid0).unwrap();
        db.txn_update(t, "account", rid9, "note", Value::Null)
            .unwrap();
    });
    commit(&mut db, &|db, t| {
        let (rid1, rid9) = (rid_of(db, 1), rid_of(db, 9));
        db.txn_insert(t, "account", row![12, 1, Value::Null])
            .unwrap();
        db.txn_delete(t, "account", rid9).unwrap();
        db.txn_update(t, "account", rid1, "balance", Value::Int(-5))
            .unwrap();
    });
    drop(db); // crash, not close: the log holds everything
    shadows
}

/// How many durable points the first `k` records of the log hold: a
/// `Commit` publishes its batch, and DDL records apply immediately.
/// (Auto-commit txn-0 writes would count too; this workload has none.)
fn commits_in_prefix(records: &[ChangeRecord], k: usize) -> usize {
    records[..k]
        .iter()
        .filter(|r| {
            matches!(
                r,
                ChangeRecord::Commit { .. }
                    | ChangeRecord::CreateTable { .. }
                    | ChangeRecord::DropTable { .. }
                    | ChangeRecord::CreateIndex { .. }
            )
        })
        .count()
}

#[test]
fn torn_log_recovers_last_committed_prefix_at_every_boundary() {
    let dir = scratch("torn-sweep");
    let shadows = committed_workload(&dir);
    let wal_path = dir.join(WAL_FILE);
    let pristine = std::fs::read(&wal_path).unwrap();
    let scan = scan_wal(&pristine).unwrap().expect("log has a header");
    assert_eq!(
        commits_in_prefix(&scan.records, scan.records.len()),
        shadows.len() - 1,
        "workload and log disagree on commit count"
    );

    // Boundaries to kill at: the header end, plus just-past every frame —
    // and for each, also a cut *inside* the following frame (torn write).
    let mut cuts: Vec<(u64, usize)> = Vec::new(); // (cut at byte, frames fully kept)
    let mut starts = vec![cat_txdb::wal::WAL_HEADER_LEN];
    starts.extend(scan.frame_ends.iter().copied());
    for (frames_kept, &start) in starts.iter().enumerate() {
        cuts.push((start, frames_kept));
        let next_end = scan.frame_ends.get(frames_kept).copied();
        if let Some(end) = next_end {
            // Mid-frame cuts: 1 byte in (inside the length word) and 1
            // byte short of whole (payload truncated).
            cuts.push((start + 1, frames_kept));
            cuts.push((end - 1, frames_kept));
        }
    }

    for (cut, frames_kept) in cuts {
        std::fs::write(&wal_path, &pristine[..cut as usize]).unwrap();
        let reopened = open_fast(&dir);
        let expect = &shadows[commits_in_prefix(&scan.records, frames_kept)];
        assert_eq!(
            &observed_state(&reopened),
            expect,
            "cut at byte {cut} ({frames_kept} whole frames) recovered the wrong state"
        );
        // Recovery truncated the torn tail: the next open must replay
        // identically even though we do not restore the pristine bytes.
        // (Close the first handle: the directory admits one at a time.)
        drop(reopened);
        let again = open_fast(&dir);
        assert_eq!(
            &observed_state(&again),
            expect,
            "recovery is not idempotent at {cut}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_crc_byte_discards_the_final_record() {
    let dir = scratch("crc-flip");
    let shadows = committed_workload(&dir);
    let wal_path = dir.join(WAL_FILE);
    let pristine = std::fs::read(&wal_path).unwrap();
    let scan = scan_wal(&pristine).unwrap().expect("log has a header");
    let frames = scan.frame_ends.len();
    assert!(frames >= 2);

    // Flip one byte in the payload of the final frame (its record is the
    // last Commit): the CRC no longer matches, the whole final batch is
    // an uncommitted tail, and recovery lands on the prior commit.
    let mut bytes = pristine;
    let last = *scan.frame_ends.last().unwrap() as usize;
    bytes[last - 1] ^= 0xFF;
    std::fs::write(&wal_path, &bytes).unwrap();
    let reopened = open_fast(&dir);
    let expect = &shadows[commits_in_prefix(&scan.records, frames - 1)];
    assert_eq!(&observed_state(&reopened), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_log_corruption_stops_replay_at_the_damage() {
    // A flipped byte in the *middle* of the log: everything after it is
    // indistinguishable from a torn tail, so recovery keeps the clean
    // prefix and drops the rest. (Documented limit: no per-frame
    // resynchronization — see ARCHITECTURE.md.)
    let dir = scratch("mid-corrupt");
    let shadows = committed_workload(&dir);
    let wal_path = dir.join(WAL_FILE);
    let pristine = std::fs::read(&wal_path).unwrap();
    let scan = scan_wal(&pristine).unwrap().expect("log has a header");
    let frames = scan.frame_ends.len();
    let mid = frames / 2;
    let mut bytes = pristine;
    let target = scan.frame_ends[mid] as usize - 1; // last payload byte of frame `mid`
    bytes[target] ^= 0x55;
    std::fs::write(&wal_path, &bytes).unwrap();
    let reopened = open_fast(&dir);
    let expect = &shadows[commits_in_prefix(&scan.records, mid)];
    assert_eq!(&observed_state(&reopened), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_magic_number_fails_loudly() {
    let dir = scratch("foreign-magic");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    drop(db);
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[0] = b'X';
    std::fs::write(&wal_path, &bytes).unwrap();
    let err = Database::open(&dir).unwrap_err();
    assert!(matches!(err, TxdbError::Corrupt(_)), "got {err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Fault injection: the log append itself fails mid-commit
// ---------------------------------------------------------------------

#[test]
fn commit_is_atomic_under_append_failure_at_every_record() {
    // A committing transaction appends [Begin, writes.., Commit] as one
    // batch. Fail the append after every possible number of records
    // written: the commit must report an error, the in-memory state must
    // roll back, and recovery from the (torn) file must agree.
    let batch_len = 5; // Begin + 3 writes + Commit
    for fail_after in 0..batch_len {
        let dir = scratch(&format!("fault-{fail_after}"));
        let mut db = open_fast(&dir);
        db.create_table(accounts_schema()).unwrap();
        db.insert("account", row![1, 10, Value::Null]).unwrap();
        db.insert("account", row![2, 20, Value::Null]).unwrap();
        let expect = observed_state(&db);

        let txn = db.txn_begin();
        let (rid1, rid2) = (rid_of(&db, 1), rid_of(&db, 2));
        db.txn_insert(txn, "account", row![3, 30, Value::Null])
            .unwrap();
        db.txn_update(txn, "account", rid1, "balance", Value::Int(0))
            .unwrap();
        db.txn_delete(txn, "account", rid2).unwrap();
        db.wal_fail_appends_after(fail_after);
        let err = db.txn_commit(txn).unwrap_err();
        assert!(matches!(err, TxdbError::Io { .. }), "got {err:?}");

        // In memory: fully rolled back, transaction gone, writes invisible.
        assert!(!db.has_active_txns());
        assert_eq!(
            observed_state(&db),
            expect,
            "fail_after={fail_after}: memory state leaked"
        );

        // On disk: whatever partial batch hit the file has no Commit
        // record, so recovery discards it.
        drop(db);
        let reopened = open_fast(&dir);
        assert_eq!(
            observed_state(&reopened),
            expect,
            "fail_after={fail_after}: partial batch visible after recovery"
        );
        // And the recovered database still takes writes.
        let mut reopened = reopened;
        reopened
            .insert("account", row![50, 5, Value::Null])
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn direct_write_is_atomic_under_append_failure() {
    let dir = scratch("fault-direct");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    db.insert("account", row![1, 10, Value::Null]).unwrap();
    let expect = observed_state(&db);

    db.wal_fail_appends_after(0);
    assert!(matches!(
        db.insert("account", row![2, 20, Value::Null]).unwrap_err(),
        TxdbError::Io { .. }
    ));
    assert_eq!(observed_state(&db), expect, "failed insert leaked");

    let rid1 = rid_of(&db, 1);
    db.wal_fail_appends_after(0);
    assert!(matches!(
        db.update("account", rid1, "balance", Value::Int(0))
            .unwrap_err(),
        TxdbError::Io { .. }
    ));
    assert_eq!(observed_state(&db), expect, "failed update leaked");

    db.wal_fail_appends_after(0);
    assert!(matches!(
        db.delete("account", rid1).unwrap_err(),
        TxdbError::Io { .. }
    ));
    assert_eq!(observed_state(&db), expect, "failed delete leaked");

    drop(db);
    let reopened = open_fast(&dir);
    assert_eq!(observed_state(&reopened), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_direct_writes_leave_the_version_alone() {
    let dir = scratch("fault-version");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    db.insert("account", row![1, 10, Value::Null]).unwrap();
    let expect = observed_state(&db);
    let versions = |db: &Database| {
        let t = db.table("account").unwrap();
        (t.version(), t.committed_version())
    };
    let before = versions(&db);
    let rid1 = rid_of(&db, 1);

    db.wal_fail_appends_after(0);
    assert!(matches!(
        db.delete("account", rid1).unwrap_err(),
        TxdbError::Io { .. }
    ));
    assert_eq!(observed_state(&db), expect, "failed delete leaked");
    assert_eq!(versions(&db), before, "failed delete moved the version");

    db.wal_fail_appends_after(0);
    assert!(matches!(
        db.update("account", rid1, "balance", Value::Int(0))
            .unwrap_err(),
        TxdbError::Io { .. }
    ));
    assert_eq!(observed_state(&db), expect, "failed update leaked");
    assert_eq!(versions(&db), before, "failed update moved the version");

    db.wal_fail_appends_after(0);
    assert!(matches!(
        db.insert("account", row![2, 20, Value::Null]).unwrap_err(),
        TxdbError::Io { .. }
    ));
    assert_eq!(versions(&db), before, "failed insert moved the version");

    drop(db);
    let reopened = open_fast(&dir);
    assert_eq!(observed_state(&reopened), expect);
    assert_eq!(versions(&reopened), before, "recovered version");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reopen `dir` (dropping `db` first: the directory is locked while it
/// lives) and require the recovered state to equal `expect`.
fn assert_recovers(db: Database, dir: &Path, expect: &Shadow) {
    drop(db);
    let reopened = open_fast(dir);
    assert_eq!(&observed_state(&reopened), expect, "recovered state");
    drop(reopened);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn transaction_handle_surfaces_a_failed_commit() {
    let dir = scratch("fault-handle");
    let mut db = open_fast(&dir);
    db.create_table(accounts_schema()).unwrap();
    db.insert("account", row![1, 10, Value::Null]).unwrap();
    db.insert("account", row![2, 20, Value::Null]).unwrap();
    let expect = observed_state(&db);
    let (rid1, rid2) = (rid_of(&db, 1), rid_of(&db, 2));

    db.wal_fail_appends_after(0);
    let mut txn = db.begin();
    txn.insert("account", row![3, 30, Value::Null]).unwrap();
    txn.update("account", rid1, "balance", Value::Int(0))
        .unwrap();
    txn.delete("account", rid2).unwrap();
    let err = txn.try_commit().unwrap_err();
    assert!(matches!(err, TxdbError::Io { .. }), "got {err:?}");
    assert!(!db.has_active_txns());
    assert_eq!(observed_state(&db), expect, "failed commit leaked");
    assert_recovers(db, &dir, &expect);
}

/// A cinema-like booking schema with the paper's reserve / cancel /
/// change procedures, on a durable database.
fn booking_db(dir: &Path) -> Database {
    use cat_txdb::{ParamDef, ParamExpr, ProcOp, Procedure};
    let mut db = open_fast(dir);
    db.create_table(
        TableSchema::builder("customer")
            .column("customer_id", DataType::Int)
            .column("name", DataType::Text)
            .primary_key(&["customer_id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("reservation")
            .column("customer_id", DataType::Int)
            .column("screening_id", DataType::Int)
            .column("no_tickets", DataType::Int)
            .primary_key(&["customer_id", "screening_id"])
            .foreign_key("customer_id", "customer", "customer_id")
            .build()
            .unwrap(),
    )
    .unwrap();
    db.insert("customer", row![1, "Ada"]).unwrap();
    db.insert("customer", row![2, "Grace"]).unwrap();
    db.insert("reservation", row![1, 10, 2]).unwrap();
    let key = |b: cat_txdb::procedure::ProcedureBuilder| {
        b.param(ParamDef::entity(
            "customer_id",
            DataType::Int,
            "customer",
            "customer_id",
        ))
        .param(ParamDef::scalar("screening_id", DataType::Int))
    };
    let filter = || {
        vec![
            ("customer_id".to_string(), ParamExpr::param("customer_id")),
            ("screening_id".to_string(), ParamExpr::param("screening_id")),
        ]
    };
    let reserve = key(Procedure::builder("reserve"))
        .param(ParamDef::scalar("no_tickets", DataType::Int))
        .insert_params(
            "reservation",
            &["customer_id", "screening_id", "no_tickets"],
        );
    let cancel = key(Procedure::builder("cancel")).op(ProcOp::Delete {
        table: "reservation".into(),
        filter: filter(),
    });
    let change = key(Procedure::builder("change"))
        .param(ParamDef::scalar("no_tickets", DataType::Int))
        .op(ProcOp::Update {
            table: "reservation".into(),
            set: vec![("no_tickets".into(), ParamExpr::param("no_tickets"))],
            filter: filter(),
        });
    for p in [reserve, cancel, change] {
        db.register_procedure(p.build().unwrap()).unwrap();
    }
    db
}

#[test]
fn procedure_call_is_atomic_under_append_failure() {
    let args = |c: i64, s: i64, n: Option<i64>| {
        let mut a = vec![
            ("customer_id".to_string(), Value::Int(c)),
            ("screening_id".to_string(), Value::Int(s)),
        ];
        a.extend(n.map(|n| ("no_tickets".to_string(), Value::Int(n))));
        a
    };
    for (name, call_args) in [
        ("reserve", args(2, 10, Some(3))),
        ("cancel", args(1, 10, None)),
        ("change", args(1, 10, Some(5))),
    ] {
        let dir = scratch(&format!("fault-call-{name}"));
        let mut db = booking_db(&dir);
        let expect = observed_state(&db);
        db.wal_fail_appends_after(0);
        let err = db.call(name, &call_args).unwrap_err();
        assert!(matches!(err, TxdbError::Io { .. }), "{name}: got {err:?}");
        assert!(!db.has_active_txns(), "{name}: transaction left open");
        assert_eq!(observed_state(&db), expect, "{name}: failed call leaked");
        assert_recovers(db, &dir, &expect);
    }
}

#[test]
fn procedure_call_logs_its_writes_between_begin_and_commit() {
    let dir = scratch("call-records");
    let mut db = booking_db(&dir);
    let args = |n: i64| {
        vec![
            ("customer_id".to_string(), Value::Int(2)),
            ("screening_id".to_string(), Value::Int(10)),
            ("no_tickets".to_string(), Value::Int(n)),
        ]
    };
    for (name, args) in [
        ("reserve", args(3)),
        ("change", args(4)),
        ("cancel", args(4)[..2].to_vec()),
    ] {
        let before = db.wal_appended_records();
        let outcome = db.call(name, &args).unwrap();
        assert_eq!(outcome.rows_affected, 1, "{name}");
        assert_eq!(
            db.wal_appended_records() - before,
            outcome.rows_affected as u64 + 2,
            "{name}: Begin + one record per affected row + Commit"
        );
    }
    let expect = observed_state(&db);
    assert_recovers(db, &dir, &expect);
}

#[test]
fn sql_autocommit_dml_is_atomic_under_append_failure() {
    for stmt in [
        "INSERT INTO account VALUES (3, 30, 'new')",
        "UPDATE account SET balance = 0 WHERE id >= 1",
        "DELETE FROM account WHERE id = 2",
    ] {
        let dir = scratch(&format!("fault-sql-{}", &stmt[..6]));
        let mut db = open_fast(&dir);
        db.create_table(accounts_schema()).unwrap();
        db.insert("account", row![1, 10, Value::Null]).unwrap();
        db.insert("account", row![2, 20, Value::Null]).unwrap();
        let expect = observed_state(&db);
        db.wal_fail_appends_after(0);
        let err = cat_txdb::sql::execute(&mut db, stmt).unwrap_err();
        assert!(matches!(err, TxdbError::Io { .. }), "{stmt}: got {err:?}");
        assert!(!db.has_active_txns(), "{stmt}: transaction left open");
        assert_eq!(observed_state(&db), expect, "{stmt}: failed write leaked");
        assert_recovers(db, &dir, &expect);
    }
}

#[test]
fn single_op_transactions_are_atomic_under_append_failure() {
    // With another transaction open, the typed writes run as single-op
    // transactions instead of the pristine direct path.
    type Write = fn(&mut Database) -> cat_txdb::Result<()>;
    let writes: [(&str, Write); 3] = [
        ("insert", |db| {
            db.insert("account", row![3, 30, Value::Null]).map(drop)
        }),
        ("update", |db| {
            let rid = rid_of(db, 1);
            db.update("account", rid, "balance", Value::Int(0))
                .map(drop)
        }),
        ("delete", |db| {
            let rid = rid_of(db, 2);
            db.delete("account", rid).map(drop)
        }),
    ];
    for (name, write) in writes {
        let dir = scratch(&format!("fault-single-op-{name}"));
        let mut db = open_fast(&dir);
        db.create_table(accounts_schema()).unwrap();
        db.insert("account", row![1, 10, Value::Null]).unwrap();
        db.insert("account", row![2, 20, Value::Null]).unwrap();
        let expect = observed_state(&db);
        let bystander = db.txn_begin();
        db.wal_fail_appends_after(0);
        let err = write(&mut db).unwrap_err();
        assert!(matches!(err, TxdbError::Io { .. }), "{name}: got {err:?}");
        assert_eq!(db.txns().active_count(), 1, "{name}: transaction left open");
        assert!(db.txns().is_active(bystander));
        db.txn_rollback(bystander).unwrap();
        assert_eq!(observed_state(&db), expect, "{name}: failed write leaked");
        assert_recovers(db, &dir, &expect);
    }
}
