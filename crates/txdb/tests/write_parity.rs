//! Error parity across the write entry points.
//!
//! The engine takes a write through several doors: the typed `Database`
//! methods (pristine autocommit, or a single-op transaction while another
//! transaction is open), the id-based `txn_*` API, SQL autocommit, a SQL
//! session and a stored procedure. Every door must reject the same
//! constraint violation with the same [`TxdbError`] variant and leave the
//! committed state untouched.

use cat_txdb::sql::{self, Session};
use cat_txdb::{
    dump_sql, DataType, Database, ParamDef, ParamExpr, Predicate, ProcOp, Procedure, Row, RowId,
    TableSchema, TxdbError, Value,
};

/// `owner(id PK, email UNIQUE, age NOT NULL)`, `pet(id PK, owner_id
/// FK -> owner.id, name)` and `reservation(customer_id, screening_id,
/// tickets)` keyed on both ids. Owner 1 has pet 1; owner 2 has none.
/// The reservations are (1, 10) and (2, 20).
fn seeded() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("owner")
            .column("id", DataType::Int)
            .column("email", DataType::Text)
            .unique()
            .column("age", DataType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("pet")
            .column("id", DataType::Int)
            .column("owner_id", DataType::Int)
            .column("name", DataType::Text)
            .primary_key(&["id"])
            .foreign_key("owner_id", "owner", "id")
            .build()
            .unwrap(),
    )
    .unwrap();
    let owner = |id: i64, email: &str, age: i64| {
        Row::new(vec![
            Value::Int(id),
            Value::Text(email.into()),
            Value::Int(age),
        ])
    };
    db.create_table(
        TableSchema::builder("reservation")
            .column("customer_id", DataType::Int)
            .column("screening_id", DataType::Int)
            .column("tickets", DataType::Int)
            .primary_key(&["customer_id", "screening_id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.insert("owner", owner(1, "a@x", 30)).unwrap();
    db.insert("owner", owner(2, "b@x", 40)).unwrap();
    db.insert(
        "pet",
        Row::new(vec![
            Value::Int(1),
            Value::Int(1),
            Value::Text("rex".into()),
        ]),
    )
    .unwrap();
    for (customer, screening) in [(1, 10), (2, 20)] {
        db.insert("reservation", reservation(customer, screening))
            .unwrap();
    }
    db
}

/// [`seeded`] plus reservation (1, 20).
fn seeded_with_1_20() -> Database {
    let mut db = seeded();
    db.insert("reservation", reservation(1, 20)).unwrap();
    db
}

fn reservation(customer: i64, screening: i64) -> Row {
    Row::new(vec![
        Value::Int(customer),
        Value::Int(screening),
        Value::Int(2),
    ])
}

/// A row's primary key as `(column, value)` pairs.
type Key = &'static [(&'static str, i64)];

/// One write, addressed by primary key so every entry point can express it.
enum Write {
    Insert(&'static str, Vec<Value>),
    Update(&'static str, Key, &'static str, Value),
    Delete(&'static str, Key),
}

/// The entry points under test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    /// `Database::{insert, update, delete}` with no transaction in flight.
    Pristine,
    /// The same methods while another transaction is open.
    SingleOpTxn,
    /// `txn_insert` / `txn_update` / `txn_delete`, then rollback.
    TxnApi,
    /// `sql::execute`.
    SqlAutocommit,
    /// `BEGIN` then the statement in a `Session`.
    SqlSession,
    /// `Database::call` on a procedure performing the write.
    Procedure,
}

const PATHS: [Path; 6] = [
    Path::Pristine,
    Path::SingleOpTxn,
    Path::TxnApi,
    Path::SqlAutocommit,
    Path::SqlSession,
    Path::Procedure,
];

/// The row id holding primary key `key`, or an id no row has.
fn rid_of(db: &Database, table: &str, key: Key) -> RowId {
    let pred = Predicate::all(key.iter().map(|&(c, v)| Predicate::eq(c, v)));
    db.select(table, &pred)
        .unwrap()
        .first()
        .map_or(RowId(999_999), |(rid, _)| *rid)
}

fn typed(db: &mut Database, w: &Write) -> Result<usize, TxdbError> {
    match w {
        Write::Insert(t, cells) => db.insert(t, Row::new(cells.clone())).map(|_| 1),
        Write::Update(t, key, col, v) => {
            let rid = rid_of(db, t, key);
            db.update(t, rid, col, v.clone()).map(|_| 1)
        }
        Write::Delete(t, key) => {
            let rid = rid_of(db, t, key);
            db.delete(t, rid).map(|_| 1)
        }
    }
}

fn txn_api(db: &mut Database, txn: u64, w: &Write) -> Result<usize, TxdbError> {
    match w {
        Write::Insert(t, cells) => db.txn_insert(txn, t, Row::new(cells.clone())).map(|_| 1),
        Write::Update(t, key, col, v) => {
            let rid = rid_of(db, t, key);
            db.txn_update(txn, t, rid, col, v.clone()).map(|_| 1)
        }
        Write::Delete(t, key) => {
            let rid = rid_of(db, t, key);
            db.txn_delete(txn, t, rid).map(|_| 1)
        }
    }
}

/// `key` as a SQL conjunction.
fn sql_where(key: Key) -> String {
    let eqs: Vec<String> = key.iter().map(|(c, v)| format!("{c} = {v}")).collect();
    eqs.join(" AND ")
}

fn sql_text(w: &Write) -> String {
    match w {
        Write::Insert(t, cells) => {
            let lits: Vec<String> = cells.iter().map(Value::to_sql_literal).collect();
            format!("INSERT INTO {t} VALUES ({})", lits.join(", "))
        }
        Write::Update(t, key, col, v) => {
            format!(
                "UPDATE {t} SET {col} = {} WHERE {}",
                v.to_sql_literal(),
                sql_where(key)
            )
        }
        Write::Delete(t, key) => format!("DELETE FROM {t} WHERE {}", sql_where(key)),
    }
}

fn affected(r: sql::QueryResult) -> usize {
    match r {
        sql::QueryResult::Inserted(n)
        | sql::QueryResult::Updated(n)
        | sql::QueryResult::Deleted(n) => n,
        other => panic!("not a write result: {other:?}"),
    }
}

/// A procedure performing `w`, with one parameter per value. Each
/// parameter takes its argument's own type (the column's for NULL), so
/// binding succeeds and the op itself meets the violation.
fn procedure_for(db: &Database, w: &Write) -> (Procedure, Vec<(String, Value)>) {
    let param_ty = |t: &str, col: &str, v: &Value| {
        v.data_type()
            .unwrap_or_else(|| db.schema_of(t).unwrap().column(col).unwrap().ty)
    };
    let mut b = Procedure::builder("write");
    let mut args = Vec::new();
    // One `key_<column>` parameter per key column, and the filter on them.
    let key: Key = match w {
        Write::Insert(..) => &[],
        Write::Update(_, key, ..) | Write::Delete(_, key) => key,
    };
    let mut filter = Vec::new();
    for &(c, v) in key {
        let name = format!("key_{c}");
        b = b.param(ParamDef::scalar(name.as_str(), DataType::Int));
        filter.push((c.to_string(), ParamExpr::param(name.as_str())));
        args.push((name, Value::Int(v)));
    }
    match w {
        Write::Insert(t, cells) => {
            let cols: Vec<String> = db
                .schema_of(t)
                .unwrap()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect();
            for (c, v) in cols.iter().zip(cells) {
                b = b.param(ParamDef::scalar(c.as_str(), param_ty(t, c, v)));
                args.push((c.clone(), v.clone()));
            }
            b = b.op(ProcOp::Insert {
                table: t.to_string(),
                values: cols.iter().map(|c| ParamExpr::param(c.as_str())).collect(),
                columns: cols,
            });
        }
        Write::Update(t, _, col, v) => {
            b = b
                .param(ParamDef::scalar("v", param_ty(t, col, v)))
                .op(ProcOp::Update {
                    table: t.to_string(),
                    set: vec![(col.to_string(), ParamExpr::param("v"))],
                    filter,
                });
            args.push(("v".into(), v.clone()));
        }
        Write::Delete(t, _) => {
            b = b.op(ProcOp::Delete {
                table: t.to_string(),
                filter,
            });
        }
    }
    (b.build().unwrap(), args)
}

/// Run `w` through `path` on a fresh seeded database. Returns the
/// outcome and the database after any open transaction is finished.
fn run(path: Path, w: &Write) -> (Result<usize, TxdbError>, Database) {
    run_on(seeded, path, w)
}

/// [`run`] on a fresh database from `seed`.
fn run_on(seed: fn() -> Database, path: Path, w: &Write) -> (Result<usize, TxdbError>, Database) {
    let mut db = seed();
    if path == Path::Procedure {
        let (proc, _) = procedure_for(&db, w);
        db.register_procedure(proc).unwrap();
    }
    let before = committed(&db);
    let out = match path {
        Path::Pristine => typed(&mut db, w),
        Path::SingleOpTxn => {
            let other = db.txn_begin();
            let out = typed(&mut db, w);
            assert!(
                db.txns().is_active(other),
                "the bystander transaction ended"
            );
            assert_eq!(
                db.txns().active_count(),
                1,
                "a single-op transaction leaked"
            );
            db.txn_rollback(other).unwrap();
            out
        }
        Path::TxnApi => {
            let txn = db.txn_begin();
            let out = txn_api(&mut db, txn, w);
            db.txn_rollback(txn).unwrap();
            out
        }
        Path::SqlAutocommit => sql::execute(&mut db, &sql_text(w)).map(affected),
        Path::SqlSession => {
            let mut s = Session::new();
            s.execute(&mut db, "BEGIN").unwrap();
            let out = s.execute(&mut db, &sql_text(w)).map(affected);
            if out.is_err() {
                assert_eq!(
                    s.open_txn(),
                    None,
                    "a failed statement left the session open"
                );
            } else {
                s.execute(&mut db, "ROLLBACK").unwrap();
            }
            out
        }
        Path::Procedure => {
            let (_, args) = procedure_for(&db, w);
            db.call("write", &args).map(|o| o.rows_affected)
        }
    };
    assert!(!db.has_active_txns(), "{path:?}: transaction left open");
    if out.is_err() {
        assert_eq!(
            committed(&db),
            before,
            "{path:?}: failed write changed state"
        );
    }
    (out, db)
}

/// Committed state: the SQL dump plus every table's row ids.
fn committed(db: &Database) -> (String, Vec<Vec<u64>>) {
    let ids = db
        .table_names()
        .iter()
        .map(|t| db.table(t).unwrap().scan().map(|(rid, _)| rid.0).collect())
        .collect();
    (dump_sql(db).unwrap(), ids)
}

/// The variant name of an error (`NotNullViolation`, `DuplicateKey`, …).
fn variant(e: &TxdbError) -> String {
    format!("{e:?}")
        .chars()
        .take_while(|c| c.is_alphanumeric())
        .collect()
}

/// Run `w` through every path and require the same error variant.
fn assert_rejected_everywhere(name: &str, w: &Write, expected: &str) {
    for path in PATHS {
        let (out, _) = run(path, w);
        match out {
            Err(e) => assert_eq!(variant(&e), expected, "{name} via {path:?}: {e}"),
            Ok(n) => panic!("{name} via {path:?}: accepted ({n} rows)"),
        }
    }
}

fn int(i: i64) -> Value {
    Value::Int(i)
}

fn text(s: &str) -> Value {
    Value::Text(s.into())
}

#[test]
fn not_null_violations_agree() {
    assert_rejected_everywhere(
        "insert NULL age",
        &Write::Insert("owner", vec![int(3), text("c@x"), Value::Null]),
        "NotNullViolation",
    );
    assert_rejected_everywhere(
        "update age to NULL",
        &Write::Update("owner", &[("id", 2)], "age", Value::Null),
        "NotNullViolation",
    );
}

#[test]
fn type_mismatches_agree() {
    assert_rejected_everywhere(
        "insert fractional age",
        &Write::Insert("owner", vec![int(3), text("c@x"), Value::Float(1.5)]),
        "TypeMismatch",
    );
    assert_rejected_everywhere(
        "update age to a fraction",
        &Write::Update("owner", &[("id", 2)], "age", Value::Float(1.5)),
        "TypeMismatch",
    );
}

#[test]
fn duplicate_primary_keys_agree() {
    assert_rejected_everywhere(
        "insert existing id",
        &Write::Insert("owner", vec![int(1), text("c@x"), int(1)]),
        "DuplicateKey",
    );
    assert_rejected_everywhere(
        "update id onto another row's",
        &Write::Update("owner", &[("id", 2)], "id", int(1)),
        "DuplicateKey",
    );
}

#[test]
fn duplicate_unique_values_agree() {
    assert_rejected_everywhere(
        "insert taken email",
        &Write::Insert("owner", vec![int(3), text("a@x"), int(1)]),
        "DuplicateKey",
    );
    assert_rejected_everywhere(
        "update email onto another row's",
        &Write::Update("owner", &[("id", 2)], "email", text("a@x")),
        "DuplicateKey",
    );
}

#[test]
fn missing_parents_agree() {
    assert_rejected_everywhere(
        "insert pet of owner 99",
        &Write::Insert("pet", vec![int(2), int(99), text("tom")]),
        "ForeignKeyViolation",
    );
    assert_rejected_everywhere(
        "move pet to owner 99",
        &Write::Update("pet", &[("id", 1)], "owner_id", int(99)),
        "ForeignKeyViolation",
    );
    assert_rejected_everywhere(
        "delete an owner with a pet",
        &Write::Delete("owner", &[("id", 1)]),
        "ForeignKeyViolation",
    );
}

#[test]
fn missing_rows_agree() {
    // The row-id doors name a row that does not exist; the set-based
    // doors (SQL and procedures) select nothing and report zero rows.
    for w in [
        Write::Update("owner", &[("id", 99)], "age", int(1)),
        Write::Delete("owner", &[("id", 99)]),
    ] {
        for path in PATHS {
            let (out, db) = run(path, &w);
            match path {
                Path::Pristine | Path::SingleOpTxn | Path::TxnApi => {
                    let e = out.expect_err("a missing row was written");
                    assert_eq!(variant(&e), "NoSuchRow", "{path:?}: {e}");
                }
                Path::SqlAutocommit | Path::SqlSession | Path::Procedure => {
                    assert_eq!(out.unwrap(), 0, "{path:?}");
                    assert_eq!(committed(&db), committed(&seeded()), "{path:?}");
                }
            }
        }
    }
}

#[test]
fn valid_writes_agree() {
    // The same writes without a violation succeed everywhere with the
    // same row count and the same committed state.
    for w in [
        Write::Insert("owner", vec![int(3), text("c@x"), int(50)]),
        Write::Update("owner", &[("id", 2)], "age", int(41)),
        Write::Update("owner", &[("id", 2)], "id", int(7)),
        Write::Delete("pet", &[("id", 1)]),
    ] {
        let mut states = Vec::new();
        for path in [Path::Pristine, Path::SqlAutocommit, Path::Procedure] {
            let (out, db) = run(path, &w);
            assert_eq!(out.unwrap(), 1, "{path:?}");
            states.push((path, committed(&db).0));
        }
        for (path, dump) in &states[1..] {
            assert_eq!(
                dump, &states[0].1,
                "{path:?} disagrees with the typed write"
            );
        }
    }
}

#[test]
fn composite_keys_are_judged_whole() {
    // Customer 1 already holds (1, 10), but a column of a two-column key
    // is not unique on its own: moving (2, 20) to customer 1 is legal
    // while (1, 20) is free...
    let w = Write::Update(
        "reservation",
        &[("customer_id", 2), ("screening_id", 20)],
        "customer_id",
        int(1),
    );
    let mut states = Vec::new();
    for path in PATHS {
        let (out, db) = run(path, &w);
        assert_eq!(out.unwrap(), 1, "{path:?}");
        if !matches!(path, Path::TxnApi | Path::SqlSession) {
            assert_eq!(
                rid_of(
                    &db,
                    "reservation",
                    &[("customer_id", 1), ("screening_id", 20)]
                ),
                rid_of(
                    &seeded(),
                    "reservation",
                    &[("customer_id", 2), ("screening_id", 20)]
                ),
                "{path:?}: the row did not move to (1, 20)"
            );
            states.push((path, committed(&db).0));
        }
    }
    for (path, dump) in &states[1..] {
        assert_eq!(
            dump, &states[0].1,
            "{path:?} disagrees with the typed write"
        );
    }
    // ... and a duplicate key once (1, 20) exists, through every door.
    for path in PATHS {
        match run_on(seeded_with_1_20, path, &w).0 {
            Err(e) => assert_eq!(variant(&e), "DuplicateKey", "{path:?}: {e}"),
            Ok(n) => panic!("{path:?}: accepted ({n} rows)"),
        }
    }
}
