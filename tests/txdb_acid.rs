//! Transactional integrity of the database substrate under the actual
//! workload shape the agent produces (procedure calls over the cinema
//! schema), plus seeded property checks of atomicity and index
//! consistency over random operation sequences.

use cat_corpus::{generate_cinema, CinemaConfig};
use cat_txdb::{
    DataType, Database, Predicate, Row, RowId, TableSchema, Transaction, TxdbError, Value,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[test]
fn procedure_failures_never_leak_partial_state() {
    let mut db = generate_cinema(&CinemaConfig::small(31)).expect("db");
    let versions_before: Vec<(String, u64)> = db
        .table_names()
        .iter()
        .map(|t| (t.to_string(), db.table(t).unwrap().version()))
        .collect();
    // Fail in every way the reservation procedure can fail.
    let attempts: Vec<Vec<(String, Value)>> = vec![
        // Unknown customer.
        vec![
            ("customer_id".into(), Value::Int(999_999)),
            ("screening_id".into(), Value::Int(1)),
            ("ticket_amount".into(), Value::Int(2)),
        ],
        // Unknown screening.
        vec![
            ("customer_id".into(), Value::Int(1)),
            ("screening_id".into(), Value::Int(999_999)),
            ("ticket_amount".into(), Value::Int(2)),
        ],
        // Type error.
        vec![
            ("customer_id".into(), Value::Text("not a number".into())),
            ("screening_id".into(), Value::Int(1)),
            ("ticket_amount".into(), Value::Int(2)),
        ],
        // Missing argument (only two given).
        vec![
            ("customer_id".into(), Value::Int(1)),
            ("screening_id".into(), Value::Int(1)),
        ],
    ];
    for args in attempts {
        assert!(db.call("ticket_reservation", &args).is_err());
    }
    for (t, v) in versions_before {
        assert_eq!(
            db.table(&t).unwrap().version(),
            v,
            "table {t} mutated by a failed procedure"
        );
    }
}

#[test]
fn referential_integrity_is_global() {
    let mut db = generate_cinema(&CinemaConfig::small(32)).expect("db");
    // Deleting any movie with screenings must fail...
    let (srid_movie, _) = {
        let s = db.table("screening").unwrap().scan().next().unwrap().1;
        let movie_id = s.get(1).unwrap().clone();
        db.table("movie").unwrap().get_by_pk(&[movie_id]).unwrap()
    };
    assert!(matches!(
        db.delete("movie", srid_movie).unwrap_err(),
        TxdbError::ForeignKeyViolation { .. }
    ));
    // ...until its screenings (and their reservations) are gone.
    let movie_id = db
        .table("movie")
        .unwrap()
        .get(srid_movie)
        .unwrap()
        .get(0)
        .unwrap()
        .clone();
    let screening_rids: Vec<_> = db
        .select("screening", &Predicate::eq("movie_id", movie_id.clone()))
        .unwrap()
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    let mut txn = db.begin();
    for srid in &screening_rids {
        let sid = txn
            .db()
            .table("screening")
            .unwrap()
            .value_of(*srid, "screening_id")
            .unwrap();
        let res_rids: Vec<_> = txn
            .select("reservation", &Predicate::eq("screening_id", sid))
            .unwrap()
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        for rr in res_rids {
            txn.delete("reservation", rr).unwrap();
        }
        txn.delete("screening", *srid).unwrap();
    }
    // The actor link table references movies too.
    let link_rids: Vec<_> = txn
        .select("movie_actor", &Predicate::eq("movie_id", movie_id))
        .unwrap()
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    for lr in link_rids {
        txn.delete("movie_actor", lr).unwrap();
    }
    txn.delete("movie", srid_movie).unwrap();
    txn.try_commit().unwrap();
    assert!(db.table("movie").unwrap().get(srid_movie).is_none());
}

#[test]
fn cascading_cleanup_rolls_back_atomically() {
    let mut db = generate_cinema(&CinemaConfig::small(33)).expect("db");
    let total_before: usize = db.total_rows();
    {
        let mut txn = db.begin();
        // Delete a bunch of reservations, then drop the txn (rollback).
        let rids: Vec<_> = txn
            .select("reservation", &Predicate::True)
            .unwrap()
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        for r in rids {
            txn.delete("reservation", r).unwrap();
        }
        // Through the transaction's own snapshot the table is empty
        // (physical slots persist as MVCC versions until vacuum).
        assert!(txn
            .select("reservation", &Predicate::True)
            .unwrap()
            .is_empty());
        // no commit
    }
    assert_eq!(db.total_rows(), total_before);
}

/// One random mutation against the `(id, name)` table `t`.
enum Op {
    Insert(i64, String),
    Delete(i64),
    Update(i64, String),
}

fn random_ops(rng: &mut StdRng, max: usize) -> Vec<Op> {
    let name = |rng: &mut StdRng| {
        let len = rng.random_range(1..=8usize);
        (0..len)
            .map(|_| char::from(b'a' + rng.random_range(0..26u8)))
            .collect::<String>()
    };
    (0..rng.random_range(1..=max))
        .map(|_| match rng.random_range(0..3u8) {
            0 => Op::Insert(rng.random_range(0..50), name(rng)),
            1 => Op::Delete(rng.random_range(0..50)),
            _ => Op::Update(rng.random_range(0..50), name(rng)),
        })
        .collect()
}

/// A fresh `t(id PK, name)` table with `seed_ops`' inserts applied.
fn seeded_t(seed_ops: Vec<Op>) -> Database {
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
    for op in seed_ops {
        if let Op::Insert(k, s) = op {
            let _ = db.insert("t", Row::new(vec![Value::Int(k), Value::Text(s)]));
        }
    }
    db
}

/// Apply `ops` inside `txn`, ignoring individual failures (duplicate
/// keys, missing rows).
fn apply(txn: &mut Transaction<'_>, ops: &[Op]) {
    let rid_of = |txn: &Transaction<'_>, k: i64| {
        let hits = txn.select("t", &Predicate::eq("id", k)).unwrap();
        hits.first().map(|(rid, _)| *rid)
    };
    for op in ops {
        let _ = match op {
            Op::Insert(k, s) => txn
                .insert("t", Row::new(vec![Value::Int(*k), Value::Text(s.clone())]))
                .map(drop),
            Op::Delete(k) => match rid_of(txn, *k) {
                Some(rid) => txn.delete("t", rid).map(drop),
                None => Ok(()),
            },
            Op::Update(k, s) => match rid_of(txn, *k) {
                Some(rid) => txn
                    .update("t", rid, "name", Value::Text(s.clone()))
                    .map(drop),
                None => Ok(()),
            },
        };
    }
}

fn rows_of(db: &Database) -> Vec<(i64, String)> {
    let mut rows: Vec<(i64, String)> = db
        .table("t")
        .unwrap()
        .scan()
        .map(|(_, r)| {
            (
                r.get(0).unwrap().as_int().unwrap(),
                r.get(1).unwrap().as_text().unwrap().to_string(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// Rollback restores the exact pre-transaction state, even when
/// individual operations inside the transaction fail.
#[test]
fn aborted_transaction_is_invisible() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xAB0 + seed);
        let mut db = seeded_t(random_ops(&mut rng, 20));
        let before = rows_of(&db);
        let ops = random_ops(&mut rng, 30);
        apply(&mut db.begin(), &ops); // dropped without commit: rolls back
        assert_eq!(rows_of(&db), before, "seed {seed}");
    }
}

/// Hash-index lookups on the primary key and on an indexed column agree
/// with a scan after arbitrary committed mutations.
#[test]
fn index_agrees_with_scan() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x1D0 + seed);
        let mut db = seeded_t(random_ops(&mut rng, 20));
        db.table_mut("t").unwrap().create_index("name").unwrap();
        let ops = random_ops(&mut rng, 60);
        let mut txn = db.begin();
        apply(&mut txn, &ops);
        txn.try_commit().unwrap();
        let t = db.table("t").unwrap();
        let names: Vec<Value> = t.scan().map(|(_, r)| r.get(1).unwrap().clone()).collect();
        let probes = (0..50)
            .map(|k| (0, Value::Int(k)))
            .chain(names.into_iter().map(|n| (1, n)))
            .chain([(1, Value::Text("absent".into()))]);
        for (col, probe) in probes {
            let column = ["id", "name"][col];
            let mut via_index = t.lookup(column, &probe).unwrap();
            via_index.sort();
            let via_scan: Vec<RowId> = t
                .scan()
                .filter(|(_, r)| r.get(col) == Some(&probe))
                .map(|(rid, _)| rid)
                .collect();
            assert_eq!(via_index, via_scan, "seed {seed}, {column} = {probe:?}");
        }
    }
}
