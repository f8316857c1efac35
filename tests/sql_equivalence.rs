//! Cross-checking the SQL layer against the typed API: the same logical
//! operations through both paths must agree.

use cat_corpus::{generate_cinema, CinemaConfig};
use cat_txdb::sql::{execute, execute_script};
use cat_txdb::{row, CmpOp, Database, Predicate, Value};

/// Rebuild the generated cinema movie table through SQL and compare
/// contents with the generator's typed inserts.
#[test]
fn bulk_load_matches_typed_inserts() {
    let typed = generate_cinema(&CinemaConfig::small(41)).expect("db");
    let mut sql_db = Database::new();
    execute(
        &mut sql_db,
        "CREATE TABLE movie (movie_id INT PRIMARY KEY, title TEXT NOT NULL,
                             genre TEXT NOT NULL, year INT NOT NULL, rating FLOAT)",
    )
    .expect("create");
    // Script the inserts from the typed database.
    let mut script = String::new();
    for (_, r) in typed.table("movie").unwrap().scan() {
        script.push_str(&format!(
            "INSERT INTO movie VALUES ({}, {}, {}, {}, {});\n",
            r.get(0).unwrap().to_sql_literal(),
            r.get(1).unwrap().to_sql_literal(),
            r.get(2).unwrap().to_sql_literal(),
            r.get(3).unwrap().to_sql_literal(),
            r.get(4).unwrap().to_sql_literal(),
        ));
    }
    execute_script(&mut sql_db, &script).expect("load");
    assert_eq!(
        sql_db.table("movie").unwrap().len(),
        typed.table("movie").unwrap().len()
    );

    // Same predicate through both paths.
    let pred = Predicate::eq("genre", "Drama");
    let typed_hits = typed.select("movie", &pred).unwrap().len();
    let sql_hits = execute(&mut sql_db, "SELECT * FROM movie WHERE genre = 'Drama'")
        .unwrap()
        .rows()
        .unwrap()
        .rows
        .len();
    assert_eq!(typed_hits, sql_hits);
}

#[test]
fn sql_join_matches_manual_join() {
    let mut db = generate_cinema(&CinemaConfig::small(42)).expect("db");
    // SQL path.
    let rs = execute(
        &mut db,
        "SELECT movie.title, screening.date FROM screening \
         JOIN movie ON screening.movie_id = movie.movie_id",
    )
    .unwrap();
    let sql_rows = rs.rows().unwrap().rows.len();
    // Typed path: every screening joins exactly one movie.
    assert_eq!(sql_rows, db.table("screening").unwrap().len());
}

#[test]
fn sql_update_delete_match_typed() {
    let mut a = generate_cinema(&CinemaConfig::small(43)).expect("db a");
    let mut b = generate_cinema(&CinemaConfig::small(43)).expect("db b");
    // SQL on a.
    execute(
        &mut a,
        "UPDATE movie SET rating = 9.9 WHERE genre = 'Drama'",
    )
    .unwrap();
    // Typed on b.
    let rids: Vec<_> = b
        .select("movie", &Predicate::eq("genre", "Drama"))
        .unwrap()
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    for rid in rids {
        b.update("movie", rid, "rating", Value::Float(9.9)).unwrap();
    }
    let ratings = |db: &Database| -> Vec<String> {
        db.table("movie")
            .unwrap()
            .scan()
            .map(|(_, r)| r.get(4).unwrap().render())
            .collect()
    };
    assert_eq!(ratings(&a), ratings(&b));

    // Deletes must agree too (reservations are unreferenced).
    let n_sql = match execute(&mut a, "DELETE FROM reservation WHERE no_tickets >= 3").unwrap() {
        cat_txdb::sql::QueryResult::Deleted(n) => n,
        other => panic!("{other:?}"),
    };
    let rids: Vec<_> = b
        .select("reservation", &Predicate::cmp("no_tickets", CmpOp::Ge, 3))
        .unwrap()
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    assert_eq!(n_sql, rids.len());
    for rid in rids {
        b.delete("reservation", rid).unwrap();
    }
    assert_eq!(
        a.table("reservation").unwrap().len(),
        b.table("reservation").unwrap().len()
    );
}

#[test]
fn sql_literal_escaping_in_practice() {
    let mut db = Database::new();
    execute(&mut db, "CREATE TABLE t (id INT PRIMARY KEY, s TEXT)").unwrap();
    db.insert("t", row![1, "O'Hara; DROP TABLE t"]).unwrap();
    let rs = execute(&mut db, "SELECT s FROM t WHERE s LIKE '%hara%'").unwrap();
    assert_eq!(rs.rows().unwrap().rows.len(), 1);
    // The table survived the hostile-looking value.
    assert!(db.table("t").is_ok());
}
