//! Differential test: every generated `SELECT` must produce identical
//! results through the planned executor (multi-index AND, join
//! reordering, staged predicate pushdown, bounded top-k, tuple
//! streaming) and the naive materialize-everything reference executor.
//! Each query additionally runs under the tight-budget, snapshot,
//! parallel and durable shapes (see [`SHAPES`]), so every execution
//! mode is pinned to the same semantics.
//!
//! The generator is seeded and exhaustive-ish: random schemas get random
//! hash/range indexes, random data includes NULLs, duplicates and
//! cross-type numeric values, and queries cover two- and three-table
//! joins (star- and chain-shaped, exercising both the reorder greedy and
//! its binding constraint), multi-conjunct WHERE clauses over indexed
//! columns (exercising the intersection cutoff), WHERE trees,
//! aggregation, grouping, ordering and limits. Join keys include
//! unindexed float columns with NULL and NaN on both sides and a
//! cross-type Int = Float key, so every join strategy of the execution
//! layer (index probe, build-side hash, merge over ordered indexes) is
//! exercised and tallied. Join-side single-table conjuncts over randomly
//! indexed columns make the build-side pushdown fire (tallied too).
//! `screening.country` is fully
//! determined by `screening.city` — a correlated, randomly indexed
//! column pair the joint-statistics estimator must price (and whose
//! redundant intersection probes it must decline) without changing
//! results. An estimator-accuracy harness additionally tallies the
//! q-error of estimated base-table cardinality against actual result
//! sizes on the join-free queries, and a dedicated correlated fixture
//! asserts the joint-stats/backoff estimator prices it nearly exactly.
//! The implementations share the parser, the
//! value model and the join-key exclusion rule
//! (`Value::is_excluded_join_key` — NULL/NaN never join; its behavior
//! itself is pinned by hand-written unit tests in `exec.rs`), but not
//! the planner or execution strategy code, so agreement here is strong
//! evidence the planner preserves semantics.

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use cat_txdb::sql::{
    execute, execute_select_at, execute_select_reference, execute_select_with, parse_statement,
    plan_select, JoinStrategy, PlanOptions, Statement,
};
use cat_txdb::{row, DataType, Database, TableSchema, Value};

const GENRES: &[&str] = &["Drama", "Crime", "Horror", "Comedy", "Noir", "Sci-Fi"];
const CITIES: &[&str] = &["Berlin", "Munich", "Hamburg", "Cologne", "Vienna", "Linz"];
const COUNTRIES: &[&str] = &["Germany", "Austria"];

/// The country a city belongs to — `screening.country` is fully
/// determined by `screening.city`, the correlated column pair whose joint
/// statistics the estimator must exploit (independence would price
/// `city = 'Berlin' AND country = 'Germany'` as the product of two
/// marginals when the true joint frequency is the city's own).
fn country_of(city: &Value) -> Value {
    match city {
        Value::Text(c) => Value::Text(
            match c.as_str() {
                "Vienna" | "Linz" => "Austria",
                _ => "Germany",
            }
            .to_string(),
        ),
        _ => Value::Null,
    }
}

/// A random movie/screening/review database. Row counts, index placement
/// and value skew all depend on the seed. `review` references both
/// `movie` (star-shaped second join) and `screening` (chain-shaped).
fn random_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("movie")
            .column("movie_id", DataType::Int)
            .column("title", DataType::Text)
            .nullable_column("genre", DataType::Text)
            .nullable_column("rating", DataType::Float)
            .column("year", DataType::Int)
            .primary_key(&["movie_id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("screening")
            .column("screening_id", DataType::Int)
            .column("movie_id", DataType::Int)
            .nullable_column("city", DataType::Text)
            .nullable_column("country", DataType::Text)
            .column("price", DataType::Float)
            .nullable_column("rank", DataType::Float)
            .primary_key(&["screening_id"])
            .foreign_key("movie_id", "movie", "movie_id")
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("review")
            .column("review_id", DataType::Int)
            .column("movie_id", DataType::Int)
            .column("screening_id", DataType::Int)
            .column("stars", DataType::Int)
            .primary_key(&["review_id"])
            .foreign_key("movie_id", "movie", "movie_id")
            .foreign_key("screening_id", "screening", "screening_id")
            .build()
            .unwrap(),
    )
    .unwrap();

    let n_movies = rng.random_range(1..=40i64);
    for i in 0..n_movies {
        let genre = if rng.random_bool(0.15) {
            Value::Null
        } else {
            Value::Text(GENRES.choose(rng).unwrap().to_string())
        };
        let rating = if rng.random_bool(0.2) {
            Value::Null
        } else if rng.random_bool(0.05) {
            // NaN cells: the range-probe NaN reconciliation and the
            // OrdKey total order must agree with predicate evaluation.
            Value::Float(f64::NAN)
        } else {
            Value::Float(rng.random_range(10..=100) as f64 / 10.0)
        };
        db.insert(
            "movie",
            row![
                i,
                format!("M{}", rng.random_range(0..25i64)),
                genre,
                rating,
                rng.random_range(1950..=2022i64)
            ],
        )
        .unwrap();
    }
    let n_screenings = rng.random_range(0..=60i64);
    for i in 0..n_screenings {
        let city = if rng.random_bool(0.1) {
            Value::Null
        } else {
            Value::Text(CITIES.choose(rng).unwrap().to_string())
        };
        // rank: NULL/NaN-bearing float, mostly integral so joining it
        // against the Int `review.stars` column produces real cross-type
        // (Int = Float) matches.
        let rank = if rng.random_bool(0.1) {
            Value::Null
        } else if rng.random_bool(0.05) {
            Value::Float(f64::NAN)
        } else if rng.random_bool(0.2) {
            Value::Float(rng.random_range(1..=10i64) as f64 + 0.5)
        } else {
            Value::Float(rng.random_range(1..=10i64) as f64)
        };
        // country is a pure function of city (NULL city → NULL country):
        // the strongest correlation shape, where the independence product
        // is maximally wrong.
        let country = country_of(&city);
        db.insert(
            "screening",
            row![
                i,
                rng.random_range(0..n_movies),
                city,
                country,
                rng.random_range(50..=200i64) as f64 / 10.0,
                rank
            ],
        )
        .unwrap();
    }
    // Reviews: sometimes fewer than movies (so the review join shrinks
    // the stream and the greedy reorder prefers it), sometimes more.
    if n_screenings > 0 {
        let n_reviews = rng.random_range(0..=30i64);
        for i in 0..n_reviews {
            db.insert(
                "review",
                row![
                    i,
                    rng.random_range(0..n_movies),
                    rng.random_range(0..n_screenings),
                    rng.random_range(1..=10i64)
                ],
            )
            .unwrap();
        }
    }
    // Random index placement: the planner must behave identically with
    // any subset of indexes available.
    {
        let t = db.table_mut("movie").unwrap();
        if rng.random_bool(0.5) {
            t.create_index("genre").unwrap();
        }
        if rng.random_bool(0.5) {
            t.create_range_index("rating").unwrap();
        }
        if rng.random_bool(0.3) {
            t.create_range_index("year").unwrap();
        }
    }
    {
        let t = db.table_mut("screening").unwrap();
        if rng.random_bool(0.5) {
            t.create_range_index("price").unwrap();
        }
        if rng.random_bool(0.3) {
            t.create_range_index("rank").unwrap();
        }
        // A hash index on city (~17% per value) makes join-side city
        // equalities build-side-pushdown candidates on the rank-key join.
        if rng.random_bool(0.5) {
            t.create_index("city").unwrap();
        }
        // Indexing the correlated country column too makes
        // `city = x AND country = y` a multi-index AND candidate that
        // only the joint statistics price (and decline) correctly.
        if rng.random_bool(0.5) {
            t.create_index("country").unwrap();
        }
    }
    if rng.random_bool(0.4) {
        db.table_mut("review")
            .unwrap()
            .create_index("stars")
            .unwrap();
    }
    if rng.random_bool(0.3) {
        db.table_mut("review")
            .unwrap()
            .create_range_index("stars")
            .unwrap();
    }
    db
}

/// How many joined tables a generated query has (0, 1 or 2 joins) and
/// what kind of join key it uses.
#[derive(Clone, Copy, PartialEq)]
enum JoinShape {
    None,
    Screening,
    /// movie JOIN screening JOIN review — the review join's ON side is
    /// either movie (star) or screening (chain).
    Three {
        chain: bool,
    },
    /// movie JOIN screening ON screening.rank = movie.rating — a float
    /// join key with NULL and NaN on *both* sides and no hash index on
    /// the right column (`rank` carries at most a range index), so the
    /// planner must pick `BuildHash` or `MergeRange`.
    RankKey,
    /// movie JOIN screening (FK) JOIN review ON review.stars =
    /// screening.rank — a cross-type Int = Float join key; `stars` is
    /// randomly hash- and/or range-indexed, covering every strategy.
    StarsRank,
}

/// A random WHERE conjunct/tree in SQL text form.
fn random_predicate(rng: &mut StdRng, depth: usize, shape: JoinShape) -> String {
    let joined = shape != JoinShape::None;
    let three = matches!(shape, JoinShape::Three { .. } | JoinShape::StarsRank);
    let leaf = |rng: &mut StdRng| -> String {
        // Mostly-qualified columns when a join is present, but sometimes
        // the ambiguous unqualified `movie_id` or an unknown column: both
        // paths must then agree on *whether* the error surfaces (the seed
        // raised it lazily, only when a joined row was actually evaluated).
        if joined && rng.random_bool(0.1) {
            return format!("movie_id = {}", rng.random_range(0..40i64));
        }
        if rng.random_bool(0.03) {
            return "no_such_column = 1".to_string();
        }
        let cols: &[(&str, u8)] = if three {
            &[
                ("movie.genre", 0),
                ("movie.rating", 1),
                ("movie.year", 2),
                ("screening.city", 3),
                ("screening.country", 6),
                ("screening.price", 1),
                ("review.stars", 5),
            ]
        } else if joined {
            &[
                ("movie.genre", 0),
                ("movie.rating", 1),
                ("movie.year", 2),
                ("screening.city", 3),
                ("screening.country", 6),
                ("screening.price", 1),
            ]
        } else {
            &[
                ("movie_id", 2),
                ("genre", 0),
                ("rating", 1),
                ("year", 2),
                ("title", 4),
            ]
        };
        let (col, kind) = cols.choose(rng).unwrap();
        let op = ["=", "<", "<=", ">", ">=", "<>"].choose(rng).unwrap();
        match kind {
            0 => {
                if rng.random_bool(0.2) {
                    format!(
                        "{col} IS {}NULL",
                        if rng.random_bool(0.5) { "NOT " } else { "" }
                    )
                } else if rng.random_bool(0.2) {
                    format!("{col} LIKE '%{}%'", &GENRES.choose(rng).unwrap()[..2])
                } else {
                    format!("{col} = '{}'", GENRES.choose(rng).unwrap())
                }
            }
            1 => format!("{col} {op} {}", rng.random_range(10..=200i64) as f64 / 10.0),
            2 => format!("{col} {op} {}", rng.random_range(-5..=2025i64)),
            3 => format!("{col} = '{}'", CITIES.choose(rng).unwrap()),
            5 => format!("{col} {op} {}", rng.random_range(0..=11i64)),
            6 => format!("{col} = '{}'", COUNTRIES.choose(rng).unwrap()),
            _ => format!("{col} = 'M{}'", rng.random_range(0..25i64)),
        }
    };
    if depth == 0 || rng.random_bool(0.4) {
        return leaf(rng);
    }
    match rng.random_range(0..3u8) {
        0 => format!(
            "({} AND {})",
            random_predicate(rng, depth - 1, shape),
            random_predicate(rng, depth - 1, shape)
        ),
        1 => format!(
            "({} OR {})",
            random_predicate(rng, depth - 1, shape),
            random_predicate(rng, depth - 1, shape)
        ),
        _ => format!("NOT ({})", random_predicate(rng, depth - 1, shape)),
    }
}

/// A multi-conjunct WHERE over (mostly) indexable base columns: 2–4
/// sargable leaves ANDed flat, the shape the multi-index AND planner
/// consumes. Qualified when a join is present.
fn multi_conjunct_predicate(rng: &mut StdRng, shape: JoinShape) -> String {
    let joined = shape != JoinShape::None;
    let q = |c: &str| {
        if joined {
            format!("movie.{c}")
        } else {
            c.to_string()
        }
    };
    let mut leaves: Vec<String> = Vec::new();
    let n = rng.random_range(2..=4usize);
    for _ in 0..n {
        let leaf = match rng.random_range(0..5u8) {
            0 => format!("{} = '{}'", q("genre"), GENRES.choose(rng).unwrap()),
            1 => format!(
                "{} {} {}",
                q("rating"),
                [">", ">=", "<", "<="].choose(rng).unwrap(),
                rng.random_range(10..=100) as f64 / 10.0
            ),
            2 => format!(
                "{} {} {}",
                q("year"),
                [">", ">=", "<", "<=", "="].choose(rng).unwrap(),
                rng.random_range(1950..=2022i64)
            ),
            3 => format!("{} = {}", q("movie_id"), rng.random_range(0..40i64)),
            _ => {
                if matches!(shape, JoinShape::Three { .. } | JoinShape::StarsRank) {
                    format!("review.stars >= {}", rng.random_range(1..=10i64))
                } else {
                    format!("{} = '{}'", q("genre"), GENRES.choose(rng).unwrap())
                }
            }
        };
        leaves.push(leaf);
    }
    leaves.join(" AND ")
}

/// A conjunct (or two, ANDed) referencing only a *joined* table — the
/// shape the build-side pushdown can consume when the matching index
/// exists and the selectivity estimate clears the threshold. Includes
/// bounds on the rank-key join's own key, so the clamped merge walk is
/// exercised too. `None` for join-free queries.
fn joinside_pushdown_predicate(rng: &mut StdRng, shape: JoinShape) -> Option<String> {
    let mut leaves: Vec<String> = Vec::new();
    match shape {
        JoinShape::None => return None,
        JoinShape::Screening | JoinShape::RankKey => {
            // Sometimes the explicitly correlated (matched or mismatched)
            // city+country pair: the joint-stats pricing — and the
            // redundant-probe decline — must survive on the build side
            // too.
            if rng.random_bool(0.3) {
                let city = CITIES.choose(rng).unwrap();
                let country = if rng.random_bool(0.7) {
                    let Value::Text(c) = country_of(&Value::Text(city.to_string())) else {
                        unreachable!()
                    };
                    c
                } else {
                    COUNTRIES.choose(rng).unwrap().to_string()
                };
                return Some(format!(
                    "screening.city = '{city}' AND screening.country = '{country}'"
                ));
            }
            leaves.push(format!(
                "screening.city = '{}'",
                CITIES.choose(rng).unwrap()
            ));
            leaves.push(format!(
                "screening.country = '{}'",
                COUNTRIES.choose(rng).unwrap()
            ));
            leaves.push(format!(
                "screening.price {} {}",
                ["<", "<=", ">", ">="].choose(rng).unwrap(),
                rng.random_range(50..=200i64) as f64 / 10.0
            ));
            if shape == JoinShape::RankKey {
                // A bound on the join key itself: eligible to clamp the
                // merge walk when rank carries a range index.
                leaves.push(format!(
                    "screening.rank {} {}",
                    ["<", "<=", ">", ">="].choose(rng).unwrap(),
                    rng.random_range(1..=10i64)
                ));
            }
        }
        JoinShape::Three { .. } | JoinShape::StarsRank => {
            leaves.push(format!("review.stars = {}", rng.random_range(1..=10i64)));
            leaves.push(format!(
                "review.stars {} {}",
                ["<", "<=", ">", ">="].choose(rng).unwrap(),
                rng.random_range(1..=10i64)
            ));
            leaves.push(format!(
                "screening.city = '{}'",
                CITIES.choose(rng).unwrap()
            ));
        }
    }
    let n = rng.random_range(1..=2usize);
    let mut picked: Vec<String> = Vec::new();
    for _ in 0..n {
        let leaf = leaves.choose(rng).unwrap().clone();
        if !picked.contains(&leaf) {
            picked.push(leaf);
        }
    }
    Some(picked.join(" AND "))
}

/// A random WHERE body for `shape`: multi-conjunct sargable, join-side
/// pushdown-eligible, or a general predicate tree.
fn random_where(rng: &mut StdRng, shape: JoinShape) -> String {
    if rng.random_bool(0.25) {
        if let Some(p) = joinside_pushdown_predicate(rng, shape) {
            return p;
        }
    }
    if rng.random_bool(0.35) {
        multi_conjunct_predicate(rng, shape)
    } else {
        random_predicate(rng, 2, shape)
    }
}

fn join_clause(shape: JoinShape) -> &'static str {
    match shape {
        JoinShape::None => "",
        JoinShape::Screening => " JOIN screening ON screening.movie_id = movie.movie_id",
        JoinShape::Three { chain: false } => {
            " JOIN screening ON screening.movie_id = movie.movie_id \
             JOIN review ON review.movie_id = movie.movie_id"
        }
        JoinShape::Three { chain: true } => {
            " JOIN screening ON screening.movie_id = movie.movie_id \
             JOIN review ON review.screening_id = screening.screening_id"
        }
        JoinShape::RankKey => " JOIN screening ON screening.rank = movie.rating",
        JoinShape::StarsRank => {
            " JOIN screening ON screening.movie_id = movie.movie_id \
             JOIN review ON review.stars = screening.rank"
        }
    }
}

/// A random SELECT over the movie/screening/review schema.
fn random_select(rng: &mut StdRng) -> String {
    let shape = match rng.random_range(0..12u8) {
        0..=3 => JoinShape::None,
        4..=5 => JoinShape::Screening,
        6 => JoinShape::RankKey,
        7 => JoinShape::Three { chain: false },
        8 => JoinShape::Three { chain: true },
        _ => JoinShape::StarsRank,
    };
    let joined = shape != JoinShape::None;
    let three = matches!(shape, JoinShape::Three { .. } | JoinShape::StarsRank);
    let mut sql = String::new();
    let aggregate = rng.random_bool(0.3);
    if aggregate {
        let group_col = if rng.random_bool(0.6) {
            Some(if joined { "movie.genre" } else { "genre" })
        } else {
            None
        };
        let aggs: &[&str] = if three {
            &[
                "count(*)",
                "min(screening.price)",
                "sum(review.stars)",
                "max(review.stars)",
                "avg(movie.rating)",
            ]
        } else if joined {
            &[
                "count(*)",
                "min(screening.price)",
                "max(screening.price)",
                "sum(screening.price)",
                "avg(movie.rating)",
            ]
        } else {
            &[
                "count(*)",
                "count(rating)",
                "min(rating)",
                "max(year)",
                "sum(year)",
                "avg(rating)",
            ]
        };
        let mut items: Vec<String> = Vec::new();
        if let Some(g) = group_col {
            items.push(g.to_string());
        }
        for _ in 0..rng.random_range(1..=2usize) {
            items.push(aggs.choose(rng).unwrap().to_string());
        }
        sql.push_str(&format!("SELECT {} FROM movie", items.join(", ")));
        sql.push_str(join_clause(shape));
        if rng.random_bool(0.7) {
            sql.push_str(&format!(" WHERE {}", random_where(rng, shape)));
        }
        if let Some(g) = group_col {
            sql.push_str(&format!(" GROUP BY {g}"));
            if rng.random_bool(0.5) {
                sql.push_str(&format!(" ORDER BY {g}"));
            }
            if rng.random_bool(0.3) {
                sql.push_str(&format!(" LIMIT {}", rng.random_range(0..5usize)));
            }
        }
    } else {
        let projection = if three {
            ["*", "movie.title, screening.city, review.stars"]
                .choose(rng)
                .unwrap()
                .to_string()
        } else if joined {
            ["*", "movie.title, screening.city, screening.price"]
                .choose(rng)
                .unwrap()
                .to_string()
        } else {
            ["*", "title, rating", "movie_id, year"]
                .choose(rng)
                .unwrap()
                .to_string()
        };
        sql.push_str(&format!("SELECT {projection} FROM movie"));
        sql.push_str(join_clause(shape));
        if rng.random_bool(0.8) {
            sql.push_str(&format!(" WHERE {}", random_where(rng, shape)));
        }
        if rng.random_bool(0.6) {
            let col = if three {
                ["movie.rating", "screening.price", "review.stars"]
                    .choose(rng)
                    .unwrap()
            } else if joined {
                ["movie.rating", "screening.price", "movie.year"]
                    .choose(rng)
                    .unwrap()
            } else {
                ["rating", "year", "title", "movie_id"].choose(rng).unwrap()
            };
            sql.push_str(&format!(
                " ORDER BY {col}{}",
                if rng.random_bool(0.5) { " DESC" } else { "" }
            ));
        }
        if rng.random_bool(0.5) {
            sql.push_str(&format!(" LIMIT {}", rng.random_range(0..30usize)));
        }
    }
    sql
}

/// The planner shapes the suite compares against the reference
/// executor, by matrix name: the default planner and its execution
/// modes. `TXDB_DIFF_SHAPE` (the CI matrix variable) restricts one
/// run to a single named shape.
const SHAPES: &[&str] = &["default", "tight_budget", "snapshot", "parallel", "durable"];

fn shape_options(name: &str) -> PlanOptions {
    match name {
        "default" => PlanOptions::default(),
        "tight_budget" => PlanOptions::tight_budget(),
        // The PR 8 snapshot shape runs the default planner through an
        // explicit MVCC snapshot (special-cased at the call site).
        "snapshot" => PlanOptions::default(),
        // The PR 9 parallel shape: 4 workers with morsels shrunk far
        // below the production size, so the corpus's small tables still
        // split into real parallel work.
        "parallel" => PlanOptions::parallel(),
        // The PR 10 durable shape runs the default planner against a
        // twin database whose contents went through the write-ahead log
        // and crash recovery (special-cased at the call site).
        "durable" => PlanOptions::default(),
        other => panic!("TXDB_DIFF_SHAPE={other} names no planner shape (one of {SHAPES:?})"),
    }
}

/// The shapes this run compares: all of them, or just the one named by
/// `TXDB_DIFF_SHAPE` (validated eagerly so a typo fails loudly instead
/// of silently comparing nothing).
fn shapes_under_test() -> Vec<&'static str> {
    match std::env::var("TXDB_DIFF_SHAPE") {
        Ok(name) => {
            let name = SHAPES
                .iter()
                .copied()
                .find(|s| *s == name)
                .unwrap_or_else(|| {
                    panic!("TXDB_DIFF_SHAPE={name} names no planner shape (one of {SHAPES:?})")
                });
            vec![name]
        }
        Err(_) => SHAPES.to_vec(),
    }
}

/// Build the durable twin of `db` for the PR 10 `durable` shape: its
/// whole contents flow through the SQL path of a WAL-attached database
/// (every insert logged), the twin is dropped *without* a checkpoint,
/// and reopening replays the log — so every query against the twin is a
/// query against crash-recovered state. fsync stays off: the sweep
/// reopens per seed and crash *consistency* is the property under test.
/// Returns the twin and its scratch directory (caller removes it).
fn durable_twin(db: &Database, tag: u64) -> (Database, std::path::PathBuf) {
    let dir = std::env::temp_dir()
        .join("txdb-differential")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = cat_txdb::WalOptions { fsync: false };
    let mut twin = Database::open_with(&dir, opts).expect("open durable twin");
    // Seed through the typed API (SQL text cannot round-trip NaN): every
    // create_table/create_index logs a DDL record, every insert an
    // auto-commit data record. Parents before children for the FK checks.
    let mut ordered: Vec<&str> = Vec::new();
    let mut remaining: Vec<&str> = db.table_names().to_vec();
    while !remaining.is_empty() {
        remaining.retain(|t| {
            let ready = db
                .table(t)
                .unwrap()
                .schema()
                .foreign_keys()
                .iter()
                .all(|fk| fk.ref_table == *t || ordered.contains(&fk.ref_table.as_str()));
            if ready {
                ordered.push(t);
            }
            !ready
        });
    }
    for t in &ordered {
        let table = db.table(t).unwrap();
        twin.create_table(table.schema().clone()).expect("twin DDL");
        for col in table.indexed_columns() {
            // PK/unique/FK columns are auto-indexed at create_table.
            if !twin.table(t).unwrap().has_index(col) {
                twin.create_index(t, col).expect("twin index");
            }
        }
        for col in table.range_indexed_columns() {
            if !twin.table(t).unwrap().has_range_index(col) {
                twin.create_range_index(t, col).expect("twin range index");
            }
        }
        for (_, row) in table.scan() {
            twin.insert(t, row.clone()).expect("twin insert");
        }
    }
    drop(twin); // crash, not close: reopen must replay the log
    let twin =
        Database::open_with(&dir, cat_txdb::WalOptions { fsync: false }).expect("reopen twin");
    (twin, dir)
}

/// Run `sql` through the reference executor and every planner shape
/// under test — the default planner, the tight-budget shape (degraded,
/// partition-where-needed execution), the snapshot shape, the parallel
/// shape (4 morsel workers) and — when a twin is supplied — the durable
/// shape (the same query against a database recovered from its
/// write-ahead log); all must agree (results and error-ness) — memory
/// degradation,
/// intra-query parallelism and a trip through the log may flip plans,
/// never results.
fn check_all_paths_agree(
    db: &mut Database,
    durable: Option<&Database>,
    sql: &str,
    context: &str,
) -> bool {
    let stmt = parse_statement(sql)
        .unwrap_or_else(|e| panic!("generator produced unparsable SQL `{sql}`: {e}"));
    let Statement::Select(sel) = stmt else {
        unreachable!()
    };
    let reference = execute_select_reference(db, &sel);
    let outcomes: Vec<(&str, Result<cat_txdb::sql::ResultSet, cat_txdb::TxdbError>)> =
        shapes_under_test()
            .into_iter()
            .filter_map(|name| {
                let result = if name == "default" {
                    // The default shape goes through `execute` so the
                    // statement-dispatch layer is exercised too.
                    execute(db, sql).map(|r| r.rows().unwrap().clone())
                } else if name == "snapshot" {
                    // With no transactions in flight every table is
                    // vacuum-clean, so reading through an explicit
                    // snapshot must be byte-identical to the default.
                    let snap = db.snapshot();
                    execute_select_at(db, &sel, &shape_options(name), Some(&snap))
                } else if name == "durable" {
                    // Same planner, but the data made a round trip
                    // through the WAL and crash recovery. Callers whose
                    // database mutates mid-run pass no twin; the shape
                    // is covered by the main generated sweep.
                    execute_select_with(durable?, &sel, &shape_options(name))
                } else {
                    execute_select_with(db, &sel, &shape_options(name))
                };
                Some((name, result))
            })
            .collect();
    match &reference {
        Ok(r) => {
            for (name, result) in &outcomes {
                match result {
                    Ok(rs) => assert_eq!(rs, r, "{context}, query `{sql}` ({name} shape)"),
                    Err(e) => panic!(
                        "{context}, query `{sql}`: {name} shape errored ({e}) where the reference succeeded"
                    ),
                }
            }
            true
        }
        Err(_) => {
            // All paths must reject too (e.g. aggregate over text).
            for (name, result) in &outcomes {
                assert!(
                    result.is_err(),
                    "{context}, query `{sql}`: {name} shape succeeded where the reference errored"
                );
            }
            false
        }
    }
}

/// The q-error of one cardinality estimate: `max(est/actual, actual/est)`
/// with both sides floored at one row, so empty results and sub-row
/// estimates stay finite. 1.0 is a perfect estimate.
fn q_error(estimated: f64, actual: usize) -> f64 {
    let est = estimated.max(1.0);
    let act = (actual as f64).max(1.0);
    (est / act).max(act / est)
}

/// Estimated base-table cardinality vs. actual result size for a
/// join-free, non-aggregate, unlimited SELECT — the shape where the
/// result *is* the filtered base table. Returns the (estimate, actual)
/// q-error under the default planner, or `None` when the query does not
/// qualify or errors.
fn base_card_q_error(db: &mut Database, sql: &str) -> Option<f64> {
    let Statement::Select(sel) = parse_statement(sql).ok()? else {
        return None;
    };
    if !sel.joins.is_empty() || sel.limit.is_some() || sel.projection.has_aggregates() {
        return None;
    }
    let plan = plan_select(db, &sel).ok()?;
    let actual = execute_select_with(db, &sel, &PlanOptions::default())
        .ok()?
        .rows
        .len();
    Some(q_error(plan.estimated_base_rows, actual))
}

#[test]
fn planned_and_reference_executors_agree_on_generated_queries() {
    let mut checked = 0usize;
    let mut three_table = 0usize;
    // How often each join strategy actually executes across the run —
    // all three must appear, or the generator stopped covering the
    // join-execution layer. `pushdowns` tallies joins whose build side
    // ran pre-filtered through its own access path.
    let (mut probes, mut hashes, mut merges) = (0usize, 0usize, 0usize);
    let mut pushdowns = 0usize;
    // Joins the tight-budget planner partitions — proves the degraded
    // build path actually executes across the byte-identical run above.
    let mut partitioned = 0usize;
    // Operators the parallel shape actually grants workers (parallel
    // scans plus parallel hash builds) — proves the morsel-driven path
    // executes across the byte-identical run, rather than every query
    // falling below the row threshold and demoting to serial.
    let mut parallel_ops = 0usize;
    // Estimator-accuracy tally: log-sum of per-query q-errors (estimated
    // base-table cardinality vs. actual result size) for the join-free
    // queries where the two are comparable.
    let (mut q_log_sum, mut q_count, mut q_worst) = (0.0f64, 0usize, 0.0f64);
    // Whether this run compares the durable shape at all (skip the twin
    // setup cost when the CI matrix pinned a different shape).
    let durable_in_run = shapes_under_test().contains(&"durable");
    let mut durable_checked = 0usize;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xD1FF + seed);
        let mut db = random_db(&mut rng);
        // The read-only query sweep leaves `db` untouched, so one twin —
        // seeded through the WAL, "crashed", recovered — serves the
        // whole seed.
        let twin = durable_in_run.then(|| durable_twin(&db, seed));
        for _ in 0..50 {
            let sql = random_select(&mut rng);
            if sql.contains("JOIN review") {
                three_table += 1;
            }
            if let Statement::Select(sel) = parse_statement(&sql).unwrap() {
                if let Ok(plan) = plan_select(&db, &sel) {
                    for j in &plan.join_order {
                        match j.strategy {
                            JoinStrategy::IndexProbe => probes += 1,
                            JoinStrategy::BuildHash => hashes += 1,
                            JoinStrategy::MergeRange => merges += 1,
                        }
                    }
                    pushdowns += plan.prefiltered_join_count();
                }
                if let Ok(plan) =
                    cat_txdb::sql::plan_select_with(&db, &sel, &PlanOptions::tight_budget())
                {
                    partitioned += plan.partitioned_count();
                }
                if let Ok(plan) =
                    cat_txdb::sql::plan_select_with(&db, &sel, &PlanOptions::parallel())
                {
                    parallel_ops += plan.parallel_count();
                }
            }
            if let Some(q) = base_card_q_error(&mut db, &sql) {
                q_log_sum += q.ln();
                q_count += 1;
                q_worst = q_worst.max(q);
            }
            if check_all_paths_agree(
                &mut db,
                twin.as_ref().map(|(t, _)| t),
                &sql,
                &format!("seed {seed}"),
            ) {
                checked += 1;
                if durable_in_run {
                    durable_checked += 1;
                }
            }
        }
        if let Some((twin, dir)) = twin {
            drop(twin);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(
        checked > 1500,
        "only {checked} queries compared — generator degenerated"
    );
    assert!(
        !durable_in_run || durable_checked > 1500,
        "only {durable_checked} queries compared against recovered-from-WAL state"
    );
    assert!(
        three_table > 200,
        "only {three_table} three-table joins generated — generator degenerated"
    );
    assert!(
        probes > 100 && hashes > 100 && merges > 0,
        "join strategies under-covered: probe {probes}, hash {hashes}, merge {merges}"
    );
    println!(
        "strategy tally: probe {probes}, hash {hashes}, merge {merges}, \
         pushdown {pushdowns}, partitioned {partitioned}, parallel {parallel_ops}"
    );
    assert!(
        pushdowns > 0,
        "build-side pushdown never executed — generator stopped covering it"
    );
    assert!(
        partitioned > 0,
        "the tight-budget shape never partitioned a build — degradation path uncovered"
    );
    assert!(
        parallel_ops > 0,
        "the parallel shape never granted an operator workers — morsel path uncovered"
    );
    let q_geo = (q_log_sum / q_count.max(1) as f64).exp();
    println!("estimator tally: {q_count} join-free queries, geo-mean q-error {q_geo:.2}, worst {q_worst:.1}");
    assert!(
        q_count > 150,
        "only {q_count} queries fed the estimator-accuracy tally"
    );
    assert!(
        q_geo < 10.0,
        "geo-mean q-error degenerated: {q_geo:.2} over {q_count} queries"
    );
}

/// On the correlated city ↔ country fixture, the joint-stats/backoff
/// estimator's base-cardinality q-error must stay near exact. Covers
/// matched pairs (joint frequency ≫ product), contradictory pairs (joint
/// ≈ 0 ≪ product) and the NULL-city rows (fill-rate scaling).
#[test]
fn correlated_fixture_q_error_is_near_exact() {
    let mut rng = StdRng::seed_from_u64(0xC0FF);
    let mut db = random_db(&mut rng);
    // Deterministic bulk rows so the screening table is large enough for
    // stable statistics: every city equally common, country derived.
    for i in 1000..3000i64 {
        let city = Value::Text(CITIES[(i % 6) as usize].to_string());
        let country = country_of(&city);
        db.insert(
            "screening",
            row![i, 0, city, country, 10.0 + (i % 7) as f64, 1.0],
        )
        .unwrap();
    }
    {
        let t = db.table_mut("screening").unwrap();
        t.create_index("city").ok();
        t.create_index("country").ok();
    }
    let (mut corr_log, mut n) = (0.0f64, 0usize);
    for city in CITIES {
        for country in COUNTRIES {
            let sql = format!(
                "SELECT screening_id FROM screening \
                 WHERE city = '{city}' AND country = '{country}'"
            );
            let corr = base_card_q_error(&mut db, &sql).expect("join-free query must qualify");
            corr_log += corr.ln();
            n += 1;
        }
    }
    let corr_geo = (corr_log / n as f64).exp();
    println!("correlated fixture over {n} queries: geo-mean q-error {corr_geo:.2}");
    // The matched pairs are priced (nearly) exactly from the joint MCVs.
    assert!(
        corr_geo < 1.5,
        "joint stats should make the fixture nearly exact, got {corr_geo:.3}"
    );
}

/// Mutating between queries must keep the paths agreeing even while the
/// statistics cache serves bounded-stale stats (guards both the version
/// check and the staleness bound: plans may be priced wrong, results may
/// not).
#[test]
fn agreement_survives_interleaved_writes() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut db = random_db(&mut rng);
    for i in 0..200 {
        if rng.random_bool(0.3) {
            let id = 1000 + i as i64;
            db.insert(
                "movie",
                row![
                    id,
                    format!("M{}", id % 25),
                    GENRES.choose(&mut rng).unwrap().to_string(),
                    rng.random_range(10..=100) as f64 / 10.0,
                    2000
                ],
            )
            .unwrap();
        }
        let sql = random_select(&mut rng);
        // No durable twin here: the database mutates between queries and
        // the twin would go stale. The generated sweep covers the shape.
        check_all_paths_agree(&mut db, None, &sql, "interleaved");
    }
}

/// Skewed hot-key fixture: one join key holds ~50% of a 10k-row build
/// side. Under a budget far below the in-place build-map footprint the
/// planner must partition the build, pin the hot key on the resident
/// path, and still produce byte-identical results — across plain joins,
/// aggregation and ordering shapes.
#[test]
fn skewed_hot_key_join_degrades_identically_under_budget() {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("probe")
            .column("p_id", DataType::Int)
            .column("k", DataType::Int)
            .primary_key(&["p_id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("build")
            .column("b_id", DataType::Int)
            .column("k", DataType::Int)
            .column("grp", DataType::Int)
            .primary_key(&["b_id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for i in 0..10_000i64 {
        let k = if rng.random_bool(0.5) { 42 } else { i };
        db.insert("build", row![i, k, i % 7]).unwrap();
    }
    for i in 0..60i64 {
        let k = match i % 4 {
            0 => 42,         // hot
            1 => i,          // maybe-tail
            2 => 20_000 + i, // guaranteed miss
            _ => 9_999,      // cold tail probe
        };
        db.insert("probe", row![i, k]).unwrap();
    }
    let budget = PlanOptions {
        memory_budget: Some(256 * 1024),
        ..PlanOptions::default()
    };
    let unbudgeted = PlanOptions {
        memory_budget: None,
        ..PlanOptions::default()
    };
    let mut partitioned = 0usize;
    for sql in [
        "SELECT probe.p_id, build.b_id FROM probe JOIN build ON build.k = probe.k",
        "SELECT build.grp, COUNT(*) FROM probe JOIN build ON build.k = probe.k GROUP BY build.grp",
        "SELECT probe.p_id FROM probe JOIN build ON build.k = probe.k ORDER BY build.b_id DESC LIMIT 25",
    ] {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            unreachable!()
        };
        let plan = cat_txdb::sql::plan_select_with(&db, &sel, &budget).unwrap();
        partitioned += plan.partitioned_count();
        if plan.partitioned_count() > 0 {
            assert!(
                plan.join_order
                    .iter()
                    .any(|j| j.hot_keys.contains(&Value::Int(42))),
                "hot key missing from partitioned plan: {}",
                plan.describe()
            );
        }
        let degraded = execute_select_with(&db, &sel, &budget).unwrap();
        let full = execute_select_with(&db, &sel, &unbudgeted).unwrap();
        let reference = execute_select_reference(&db, &sel).unwrap();
        assert_eq!(degraded, reference, "budgeted vs reference: {sql}");
        assert_eq!(full, reference, "unbudgeted vs reference: {sql}");
    }
    assert!(
        partitioned > 0,
        "the fixture never exercised the partitioned build"
    );
}
