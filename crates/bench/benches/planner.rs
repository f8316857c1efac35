//! Planner/executor hot paths, one median per group: indexed point
//! lookups, range scans and top-k ORDER BY + LIMIT over 50k rows,
//! multi-index AND, correlated-pair estimation, three-table join
//! ordering, unindexed hash and merge joins, build-side pushdown,
//! budget-partitioned joins (skewed and near-distinct keys), MVCC
//! snapshot reads under a concurrent writer, morsel-parallel scans and
//! hash builds, mixed read/write throughput, buffered WAL commits,
//! snapshot-based recovery and `CandidateSet::refine` over the cinema
//! corpus.
//!
//! Every group first asserts that its timed path agrees with an
//! independent one — the naive reference executor
//! (`execute_select_reference`), the forward walk (`refine_by_walk`),
//! the serial or unbudgeted plan, or log replay vs snapshot load
//! (`dump_sql`) — and then times only the planned path.
//!
//! Every timing sample is paired with a run of a fixed std-only
//! calibration kernel ([`calibration_kernel`]). `BENCH_PR14.json`
//! records the kernel's median next to the group medians, and
//! `scripts/bench_compare.rs` gates each group's `median / calibration`
//! against a committed baseline — so a slowdown in shared code (say
//! `Table::scan`) shows up instead of cancelling out.
//!
//! Run with: `cargo bench -p cat-bench --bench planner`

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use cat_corpus::{generate_cinema, CinemaConfig};
use cat_policy::{Attribute, CandidateSet};
use cat_txdb::sql::{
    execute, execute_select_at, execute_select_reference, execute_select_with, parse_statement,
    plan_select, JoinStrategy, PlanOptions, Statement,
};
use cat_txdb::{dump_sql, row, DataType, Database, RowId, TableSchema, Value, WalOptions};

/// A synthetic single-table database big enough that access paths
/// dominate: `n` rows, hash index on the PK, range index on `price`.
fn listings(n: usize) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("listing")
            .column("listing_id", DataType::Int)
            .column("name", DataType::Text)
            .column("bucket", DataType::Int)
            .column("price", DataType::Float)
            .primary_key(&["listing_id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    {
        let t = db.table_mut("listing").unwrap();
        t.create_index("bucket").unwrap();
        t.create_range_index("price").unwrap();
    }
    for i in 0..n as i64 {
        db.insert(
            "listing",
            row![
                i,
                format!("L{}", i % 997),
                i % 1000,
                (i % 5000) as f64 / 10.0
            ],
        )
        .expect("insert");
    }
    db
}

/// One bench run: the calibration samples and, per group, the median
/// of its calibrated samples (see [`time`]).
#[derive(Default)]
struct Run {
    calibration_ns: Vec<f64>,
    groups: Vec<(String, f64)>,
}

/// Wall time one sample of a group aims for; fast routines repeat
/// within a sample until they fill it.
const SAMPLE_NS: f64 = 5e6;

/// Samples per group.
const SAMPLES: usize = 100;

/// Time [`SAMPLES`] samples of `routine` for `group`. Each sample runs the
/// calibration kernel once and then the routine, so both see the
/// machine in the same state; the group records the median of the
/// per-sample ratios `routine / kernel`.
fn time<O>(run: &mut Run, group: &str, mut routine: impl FnMut() -> O) {
    let t = Instant::now();
    black_box(routine());
    let once = t.elapsed().as_nanos().max(1) as f64;
    let iters = (SAMPLE_NS / once).clamp(1.0, 1e6) as u32;
    let mut ratios = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        black_box(calibration_kernel());
        let kernel = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let per_iter = t.elapsed().as_nanos() as f64 / f64::from(iters);
        run.calibration_ns.push(kernel);
        ratios.push(per_iter / kernel);
    }
    let ratio = median(&mut ratios);
    println!("{group:<32} {ratio:>12.6} calibrations ({SAMPLES} samples × {iters} iters)");
    run.groups.push((group.to_string(), ratio));
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Assert the planned executor agrees with the reference executor on
/// `sql`, then time the planned path.
fn run_planned(run: &mut Run, group: &str, db: &mut Database, sql: &str) {
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };
    let planned = execute(db, sql).expect("planned");
    let reference = execute_select_reference(db, &sel).expect("reference");
    assert_eq!(
        planned.rows().expect("rows"),
        &reference,
        "paths disagree on {sql}"
    );
    // `execute` needs &mut for the general statement API; SELECT only
    // reads (plus the interior stats cache).
    time(run, group, || execute(db, sql).expect("planned"));
}

/// The machine calibration: std-only work shaped like the executor's
/// hot paths — hash-build 64k LCG-generated `u64` keys, probe every key
/// and a miss next to it, then sort the keys. It uses no repository
/// code, so no change to the workspace can move it; only the machine
/// (and the toolchain's std) can.
fn calibration_kernel() -> u64 {
    const N: usize = 1 << 16;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..N)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 11
        })
        .collect();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(N);
    for (i, &k) in keys.iter().enumerate() {
        map.insert(k, i as u64);
    }
    let mut acc = 0u64;
    for &k in &keys {
        acc = acc.wrapping_add(map.get(&k).copied().unwrap_or(0));
        acc = acc.wrapping_add(map.get(&(k ^ 1)).copied().unwrap_or(1));
    }
    keys.sort_unstable();
    acc ^ keys[N / 2]
}

fn bench_point_lookup(run: &mut Run) {
    let mut db = listings(50_000);
    run_planned(
        run,
        "planner_point_lookup_50k",
        &mut db,
        "SELECT name FROM listing WHERE listing_id = 31337",
    );
}

fn bench_selective_eq(run: &mut Run) {
    let mut db = listings(50_000);
    run_planned(
        run,
        "planner_selective_eq_50k",
        &mut db,
        "SELECT name FROM listing WHERE bucket = 123",
    );
}

fn bench_range_scan(run: &mut Run) {
    let mut db = listings(50_000);
    run_planned(
        run,
        "planner_range_50k",
        &mut db,
        "SELECT name, price FROM listing WHERE price >= 10.0 AND price < 25.0",
    );
}

fn bench_top_k(run: &mut Run) {
    let mut db = listings(50_000);
    run_planned(
        run,
        "planner_topk_50k",
        &mut db,
        "SELECT name, price FROM listing ORDER BY price DESC LIMIT 10",
    );
}

/// Listings with deliberately mid-selectivity buckets (~2% each), so a
/// single hash probe leaves real residual filtering on the table below —
/// the shape where intersecting a second (range) probe pays off.
fn listings_coarse(n: usize) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("listing")
            .column("listing_id", DataType::Int)
            .column("name", DataType::Text)
            .column("bucket", DataType::Int)
            .column("price", DataType::Float)
            .primary_key(&["listing_id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    {
        let t = db.table_mut("listing").unwrap();
        t.create_index("bucket").unwrap();
        t.create_range_index("price").unwrap();
    }
    for i in 0..n as i64 {
        db.insert(
            "listing",
            row![i, format!("L{}", i % 997), i % 50, (i % 5000) as f64 / 10.0],
        )
        .expect("insert");
    }
    db
}

fn bench_multi_index_and(run: &mut Run) {
    let mut db = listings_coarse(50_000);
    // bucket = 7 keeps 2% (1000 rows); the price band keeps 4%: the
    // planner intersects the two RowId sets and touches only the ~40
    // surviving rows.
    run_planned(
        run,
        "planner_multi_index_and_50k",
        &mut db,
        "SELECT name FROM listing WHERE bucket = 7 AND price >= 10.0 AND price < 30.0",
    );
}

/// A star schema for three-table joins: every movie has `fanout`
/// screenings, but only 1% of movies hold an award. The greedy order
/// joins the tiny award table first instead of building the full
/// movie×screening intermediate.
fn awards_db(movies: usize, fanout: usize) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("movie")
            .column("movie_id", DataType::Int)
            .column("title", DataType::Text)
            .primary_key(&["movie_id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    db.create_table(
        TableSchema::builder("screening")
            .column("screening_id", DataType::Int)
            .column("movie_id", DataType::Int)
            .column("price", DataType::Float)
            .primary_key(&["screening_id"])
            .foreign_key("movie_id", "movie", "movie_id")
            .build()
            .expect("schema"),
    )
    .expect("create");
    db.create_table(
        TableSchema::builder("award")
            .column("award_id", DataType::Int)
            .column("movie_id", DataType::Int)
            .column("year", DataType::Int)
            .primary_key(&["award_id"])
            .foreign_key("movie_id", "movie", "movie_id")
            .build()
            .expect("schema"),
    )
    .expect("create");
    for i in 0..movies as i64 {
        db.insert("movie", row![i, format!("M{i}")])
            .expect("insert");
    }
    for m in 0..movies as i64 {
        for s in 0..fanout as i64 {
            db.insert(
                "screening",
                row![m * fanout as i64 + s, m, 10.0 + (s % 7) as f64],
            )
            .expect("insert");
        }
    }
    for a in 0..(movies / 100).max(1) as i64 {
        db.insert("award", row![a, a * 97 % movies as i64, 2000 + a % 22])
            .expect("insert");
    }
    db
}

/// Like [`run_planned`], additionally asserting the plan uses
/// `expect_strategy` somewhere.
fn run_join(
    run: &mut Run,
    group: &str,
    db: &mut Database,
    sql: &str,
    expect_strategy: JoinStrategy,
) {
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };
    let plan = plan_select(db, &sel).expect("plan");
    assert!(
        plan.join_order
            .iter()
            .any(|j| j.strategy == expect_strategy),
        "expected {expect_strategy:?} in plan, got {}",
        plan.describe()
    );
    run_planned(run, group, db, sql);
}

/// Two ~10k-row tables joined on a column with no index at all: the
/// planner builds one hash map and probes it.
fn bench_join_unindexed_hash(run: &mut Run) {
    let mut db = Database::new();
    for t in ["lt", "rt"] {
        db.create_table(
            TableSchema::builder(t)
                .column("id", DataType::Int)
                .column("k", DataType::Int)
                .primary_key(&["id"])
                .build()
                .expect("schema"),
        )
        .expect("create");
    }
    for i in 0..10_000i64 {
        db.insert("lt", row![i, i]).expect("insert");
        db.insert("rt", row![i, i]).expect("insert");
    }
    run_join(
        run,
        "join_unindexed_hash_10k",
        &mut db,
        "SELECT lt.id, rt.id FROM lt JOIN rt ON rt.k = lt.k",
        JoinStrategy::BuildHash,
    );
}

/// A selective outer stream (indexed point band on the base) against a
/// 10k-row right side where both join columns carry ordered indexes and
/// neither a hash index: the planner merges instead of building.
fn bench_join_merge_range(run: &mut Run) {
    let mut db = Database::new();
    for t in ["lt", "rt"] {
        db.create_table(
            TableSchema::builder(t)
                .column("id", DataType::Int)
                .column("k", DataType::Int)
                .primary_key(&["id"])
                .build()
                .expect("schema"),
        )
        .expect("create");
        let tab = db.table_mut(t).unwrap();
        tab.create_range_index("k").unwrap();
    }
    // Ordered index on the base PK so the id band is an index probe — a
    // ~1% outer stream, the regime where the merge beats the hash build.
    db.table_mut("lt")
        .unwrap()
        .create_range_index("id")
        .unwrap();
    for i in 0..10_000i64 {
        db.insert("lt", row![i, i % 2000]).expect("insert");
        db.insert("rt", row![i, i % 2000]).expect("insert");
    }
    run_join(
        run,
        "join_merge_range_10k",
        &mut db,
        "SELECT lt.id, rt.id FROM lt JOIN rt ON rt.k = lt.k WHERE lt.id >= 4000 AND lt.id < 4100",
        JoinStrategy::MergeRange,
    );
}

/// A 10k-row build side with an unindexed join key and a selective,
/// hash-indexed filter column (1% per value): the build-side pushdown
/// fetches the ~100 matching rows through the index and hashes only
/// those.
fn bench_join_pushdown(run: &mut Run) {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("lt")
            .column("id", DataType::Int)
            .column("k", DataType::Int)
            .primary_key(&["id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    db.create_table(
        TableSchema::builder("rt")
            .column("id", DataType::Int)
            .column("k", DataType::Int)
            .column("v", DataType::Int)
            .primary_key(&["id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    db.table_mut("rt").unwrap().create_index("v").unwrap();
    for i in 0..1_000i64 {
        db.insert("lt", row![i, i % 500]).expect("insert");
    }
    for i in 0..10_000i64 {
        db.insert("rt", row![i, i % 500, i % 100]).expect("insert");
    }
    let sql = "SELECT lt.id, rt.id FROM lt JOIN rt ON rt.k = lt.k WHERE rt.v = 7";
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };
    let plan = plan_select(&db, &sel).expect("plan");
    assert!(
        plan.prefiltered_join_count() > 0,
        "expected a build-side pushdown in the plan, got {}",
        plan.describe()
    );
    assert_eq!(
        plan.join_order[0].strategy,
        JoinStrategy::BuildHash,
        "fixture must exercise the filtered hash build, got {}",
        plan.describe()
    );
    run_planned(run, "join_pushdown_10k", &mut db, sql);
}

/// A skewed join fixture: `build` has 10k rows with one key holding half
/// of them (the MCV-visible heavy hitter), `probe` streams 1k rows that
/// hit the hot key, the tail and misses. Returns the database plus the
/// query both budgeted-join groups time.
fn skewed_join_db(hot_every: i64) -> (Database, &'static str) {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("probe")
            .column("p_id", DataType::Int)
            .column("k", DataType::Int)
            .primary_key(&["p_id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    db.create_table(
        TableSchema::builder("build")
            .column("b_id", DataType::Int)
            .column("k", DataType::Int)
            .primary_key(&["b_id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    for i in 0..10_000i64 {
        let k = if hot_every > 0 && i % hot_every == 0 {
            42
        } else {
            i
        };
        db.insert("build", row![i, k]).expect("insert");
    }
    for i in 0..1_000i64 {
        let k = match i % 100 {
            0 => 42,
            m => i * 7 % 10_000 + m % 2 * 20_000,
        };
        db.insert("probe", row![i, k]).expect("insert");
    }
    (
        db,
        "SELECT probe.p_id, build.b_id FROM probe JOIN build ON build.k = probe.k",
    )
}

/// Shared body of the memory-robustness groups: the query planned and
/// executed under a 256 KiB budget — partitioned build, hot keys (when
/// the fixture has them) on the always-resident path — after checking
/// it against the unbudgeted in-place build.
fn run_budgeted_join(run: &mut Run, group: &str, db: &mut Database, sql: &str, expect_hot: bool) {
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };
    let unbudgeted = PlanOptions {
        memory_budget: None,
        ..PlanOptions::default()
    };
    let budgeted = PlanOptions {
        memory_budget: Some(256 * 1024),
        ..PlanOptions::default()
    };
    let before_plan = cat_txdb::sql::plan_select_with(db, &sel, &unbudgeted).expect("plan");
    assert_eq!(
        before_plan.join_order[0].strategy,
        JoinStrategy::BuildHash,
        "fixture must exercise the hash build, got {}",
        before_plan.describe()
    );
    assert_eq!(
        before_plan.partitioned_count(),
        0,
        "baseline must not partition"
    );
    let after_plan = cat_txdb::sql::plan_select_with(db, &sel, &budgeted).expect("plan");
    assert!(
        after_plan.partitioned_count() > 0,
        "budgeted plan must partition the build, got {}",
        after_plan.describe()
    );
    assert_eq!(
        !after_plan.join_order[0].hot_keys.is_empty(),
        expect_hot,
        "hot-key detection mismatch: {:?}",
        after_plan.join_order[0].hot_keys
    );
    // Sanity: degraded execution stays byte-identical.
    let full = execute_select_with(db, &sel, &unbudgeted).expect("unbudgeted");
    let degraded = execute_select_with(db, &sel, &budgeted).expect("budgeted");
    assert_eq!(degraded, full, "degraded path disagrees on {sql}");

    time(run, group, || {
        execute_select_with(db, &sel, &budgeted).expect("budgeted")
    });
}

fn bench_join_skew_hotkey(run: &mut Run) {
    // Every other build row carries the hot key: the budgeted plan must
    // route it through the resident hot map.
    let (mut db, sql) = skewed_join_db(2);
    run_budgeted_join(run, "join_skew_hotkey_10k", &mut db, sql, true);
}

fn bench_join_partitioned_budget(run: &mut Run) {
    // Near-distinct keys (no heavy hitter): the budget alone drives the
    // partitioned build, with no hot-key path in play.
    let (mut db, sql) = skewed_join_db(0);
    run_budgeted_join(run, "join_partitioned_budget_10k", &mut db, sql, false);
}

/// A 10k-row table where a hash-indexed 13-value `city` column fully
/// determines a hash-indexed 5-value `country` column. The query probes a
/// rare city (10 rows) plus its own country (~17% — the 0.1% × 17%
/// independence product clears the intersection cutoff): fetching the
/// ~1.7k-row country bucket into the intersection would shrink nothing —
/// the true joint selectivity equals the city's marginal. The joint-stats
/// estimator sees the redundancy, declines the probe, and runs the
/// country conjunct as a residual filter over the 10 city rows.
fn bench_correlated_and(run: &mut Run) {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("shop")
            .column("id", DataType::Int)
            .column("city", DataType::Text)
            .column("country", DataType::Text)
            .primary_key(&["id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    {
        let t = db.table_mut("shop").unwrap();
        t.create_index("city").unwrap();
        t.create_index("country").unwrap();
    }
    for i in 0..10_000i64 {
        // Cities 0-11 split ~832 rows each; city 12 holds only the last
        // 10 rows (so the wasted intersection merge walks the whole
        // country bucket) and shares country K0 with cities 0 and 1.
        let city = if i >= 9_990 { 12 } else { i % 12 };
        let country = match city {
            0 | 1 | 12 => 0,
            c => 1 + (c - 2) / 3,
        };
        db.insert("shop", row![i, format!("C{city}"), format!("K{country}")])
            .expect("insert");
    }
    let sql = "SELECT id FROM shop WHERE city = 'C12' AND country = 'K0'";
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };
    let plan = plan_select(&db, &sel).expect("plan");
    assert_eq!(
        plan.access.describe(),
        "index_eq(city)",
        "joint stats must decline the redundant country probe, got {}",
        plan.describe()
    );
    let reference = execute_select_reference(&db, &sel).expect("reference");
    let planned = execute(&mut db, sql).expect("planned");
    assert_eq!(
        planned.rows().expect("rows"),
        &reference,
        "paths disagree on {sql}"
    );

    // Run the pre-parsed statement: the ~3µs query is small enough that
    // re-parsing the SQL string would otherwise dominate.
    let opts = PlanOptions::default();
    time(run, "correlated_and_10k", || {
        execute_select_with(&db, &sel, &opts).expect("correlated")
    });
}

fn bench_join3(run: &mut Run) {
    let mut db = awards_db(5_000, 10);
    run_planned(
        run,
        "planner_join3_award_5k",
        &mut db,
        "SELECT movie.title, screening.price FROM movie \
         JOIN screening ON screening.movie_id = movie.movie_id \
         JOIN award ON award.movie_id = movie.movie_id \
         WHERE screening.price >= 12.0",
    );
}

fn bench_refine(run: &mut Run) {
    // The cinema corpus at production-ish scale; the policy refines on an
    // indexed local attribute and on a joined attribute.
    let mut db = generate_cinema(&CinemaConfig {
        movies: 400,
        actors: 600,
        customers: 5000,
        screenings: 4000,
        reservations: 2000,
        seed: 7,
    })
    .expect("corpus");
    db.table_mut("customer")
        .unwrap()
        .create_index("name")
        .unwrap();
    let cs = CandidateSet::all(&db, "customer").expect("candidates");
    // A name guaranteed to exist: read it off the first row.
    let name = db
        .table("customer")
        .unwrap()
        .scan()
        .next()
        .unwrap()
        .1
        .get(1)
        .unwrap()
        .clone();
    let attr = Attribute::local("customer", "name");
    {
        let mut a = cs.clone();
        let mut b = cs.clone();
        a.refine(&db, &attr, &name).expect("refine");
        b.refine_by_walk(&db, &attr, &name).expect("walk");
        assert_eq!(a.rows, b.rows, "refine paths disagree");
    }
    time(run, "refine_cinema_5k", || {
        let mut cs2 = cs.clone();
        cs2.refine(&db, &attr, &name).expect("refine")
    });

    let value = Value::Text("Crime".into());
    let movie_cs = CandidateSet::all(&db, "movie").expect("candidates");
    let genre = Attribute::local("movie", "genre");
    let has_genre_col = db
        .table("movie")
        .unwrap()
        .schema()
        .column("genre")
        .is_some();
    if has_genre_col {
        db.table_mut("movie").unwrap().create_index("genre").ok();
        let mut a = movie_cs.clone();
        let mut b = movie_cs.clone();
        a.refine(&db, &genre, &value).expect("refine");
        b.refine_by_walk(&db, &genre, &value).expect("walk");
        assert_eq!(a.rows, b.rows, "refine paths disagree");
        time(run, "refine_cinema_movie_genre", || {
            let mut cs2 = movie_cs.clone();
            cs2.refine(&db, &genre, &value).expect("refine")
        });
    }
}

/// Reading through an MVCC snapshot: a full scan and an index probe run
/// through an explicit snapshot while a concurrent writer holds
/// uncommitted versions over 1% of the rows, so every row access
/// resolves visibility (and index fetches re-verify against the visible
/// version). The results must match the clean-table reads taken before
/// the writer started.
fn bench_mvcc_visibility(run: &mut Run) {
    let mut db = listings(10_000);
    // `bucket >= 0` is not sargable here (the range index is on
    // `price`), so the first query is a genuine full scan; the second
    // probes the `bucket` hash index.
    let scan_sql = "SELECT count(*) FROM listing WHERE bucket >= 0";
    let probe_sql = "SELECT price FROM listing WHERE bucket = 500";
    let Statement::Select(scan_sel) = parse_statement(scan_sql).expect("parse") else {
        panic!("not a select")
    };
    let Statement::Select(probe_sel) = parse_statement(probe_sql).expect("parse") else {
        panic!("not a select")
    };
    let opts = PlanOptions::default();
    let scan_clean = execute_select_with(&db, &scan_sel, &opts).expect("scan");
    let probe_clean = execute_select_with(&db, &probe_sel, &opts).expect("probe");

    // Dirty the table: a writer updates every 100th row and stays open
    // across the measurement, so the snapshot path has real version
    // chains to resolve (including rows the probe below touches).
    let rids: Vec<_> = (0..10_000i64)
        .step_by(100)
        .map(|i| {
            db.table("listing")
                .unwrap()
                .get_by_pk(&[Value::Int(i)])
                .expect("pk row")
                .0
        })
        .collect();
    let writer = db.txn_begin();
    for rid in rids {
        db.txn_update(writer, "listing", rid, "price", Value::Float(-1.0))
            .expect("txn update");
    }
    let snap = db.snapshot();
    // Sanity: the writer's versions are invisible — the snapshot reads
    // are byte-identical to the clean-table runs above.
    assert_eq!(
        execute_select_at(&db, &scan_sel, &opts, Some(&snap)).expect("scan"),
        scan_clean
    );
    assert_eq!(
        execute_select_at(&db, &probe_sel, &opts, Some(&snap)).expect("probe"),
        probe_clean
    );

    time(run, "mvcc_visibility_scan_10k", || {
        let s = execute_select_at(&db, &scan_sel, &opts, Some(&snap)).expect("scan");
        let p = execute_select_at(&db, &probe_sel, &opts, Some(&snap)).expect("probe");
        (s, p)
    });
    db.txn_rollback(writer).expect("rollback");
}

/// The morsel-parallel `Exchange` leaf at 4 workers on a 10k-row table
/// with no usable index — an expensive multi-conjunct filter (`LIKE`
/// plus two comparisons) over every row, fanned out across morsel
/// workers. Its median tracks the machine's hardware threads — see the
/// thread-count sensitivity note in BENCHMARKS.md.
fn bench_parallel_scan(run: &mut Run) {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("doc")
            .column("doc_id", DataType::Int)
            .column("cat", DataType::Int)
            .column("title", DataType::Text)
            .column("body", DataType::Text)
            .primary_key(&["doc_id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    let filler = "lorem-ipsum-dolor-sit-amet-".repeat(4);
    for i in 0..10_000i64 {
        db.insert(
            "doc",
            row![
                i,
                i % 7,
                format!("title-{:04}", i % 997),
                format!("{filler}{i}")
            ],
        )
        .expect("insert");
    }
    // `title LIKE '%-00%'` keeps ~1% of rows; the other conjuncts trim
    // further. None of the filter columns is indexed, so every shape
    // walks all 10k rows.
    let sql = "SELECT doc_id, body FROM doc \
               WHERE title LIKE '%-00%' AND cat <> 3 AND doc_id > 100";
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };
    let serial = PlanOptions {
        worker_threads: 1,
        ..PlanOptions::default()
    };
    let parallel = PlanOptions {
        worker_threads: 4,
        ..PlanOptions::default()
    };
    let plan = cat_txdb::sql::plan_select_with(&db, &sel, &parallel).expect("plan");
    assert!(
        plan.parallel_count() > 0,
        "fixture must grant the scan workers, got {}",
        plan.describe()
    );
    // Result identity: the parallel morsel merge is byte-identical to
    // the serial stream and to the naive reference.
    let reference = execute_select_reference(&db, &sel).expect("reference");
    let one = execute_select_with(&db, &sel, &serial).expect("serial");
    let four = execute_select_with(&db, &sel, &parallel).expect("parallel");
    assert_eq!(one, reference, "serial disagrees on {sql}");
    assert_eq!(four, one, "parallel disagrees on {sql}");

    time(run, "parallel_scan_10k", || {
        execute_select_with(&db, &sel, &parallel).expect("parallel")
    });
}

/// A 4-worker hash build over a duplicate-heavy 10k-row build side
/// (every key holds ~10 rows), so the parallel partial maps carry real
/// bucket traffic and the morsel merge has appends to do on every key.
fn bench_parallel_build_hash(run: &mut Run) {
    let mut db = Database::new();
    for t in ["probe", "build"] {
        db.create_table(
            TableSchema::builder(t)
                .column("id", DataType::Int)
                .column("k", DataType::Int)
                .primary_key(&["id"])
                .build()
                .expect("schema"),
        )
        .expect("create");
    }
    for i in 0..10_000i64 {
        db.insert("build", row![i, i % 1000]).expect("insert");
    }
    for i in 0..500i64 {
        db.insert("probe", row![i, i * 3 % 1500]).expect("insert");
    }
    let sql = "SELECT probe.id, build.id FROM probe JOIN build ON build.k = probe.k";
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };
    let serial = PlanOptions {
        worker_threads: 1,
        ..PlanOptions::default()
    };
    let parallel = PlanOptions {
        worker_threads: 4,
        ..PlanOptions::default()
    };
    let plan = cat_txdb::sql::plan_select_with(&db, &sel, &parallel).expect("plan");
    assert!(
        plan.join_order
            .iter()
            .any(|j| j.strategy == JoinStrategy::BuildHash && j.build_workers > 1),
        "fixture must grant the build workers, got {}",
        plan.describe()
    );
    let reference = execute_select_reference(&db, &sel).expect("reference");
    let one = execute_select_with(&db, &sel, &serial).expect("serial");
    let four = execute_select_with(&db, &sel, &parallel).expect("parallel");
    assert_eq!(one, reference, "serial disagrees on {sql}");
    assert_eq!(four, one, "parallel disagrees on {sql}");

    time(run, "parallel_build_hash_10k", || {
        execute_select_with(&db, &sel, &parallel).expect("parallel")
    });
}

/// Mixed read/write throughput: each iteration races two writer
/// threads — 25 bank-transfer transactions each under the write lock —
/// against a reader draining 20 snapshot queries (4 morsel workers)
/// under read locks, `std::thread::scope` joining all three. Transfers
/// conserve the total balance and every read asserts it, so the group
/// doubles as a liveness + consistency check.
fn bench_mixed_read_write(run: &mut Run) {
    use std::sync::RwLock;

    const ACCOUNTS: i64 = 2_000;
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("account")
            .column("id", DataType::Int)
            .column("balance", DataType::Int)
            .primary_key(&["id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    for i in 0..ACCOUNTS {
        db.insert("account", row![i, 100i64]).expect("insert");
    }
    let db = RwLock::new(db);
    let sql = "SELECT sum(balance) FROM account";
    let Statement::Select(sel) = parse_statement(sql).expect("parse") else {
        panic!("not a select")
    };

    let round = |reader_opts: &PlanOptions| {
        std::thread::scope(|s| {
            for w in 0..2i64 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..25i64 {
                        let from = (w * 977 + i * 13) % ACCOUNTS;
                        let to = (w * 499 + i * 31 + 1) % ACCOUNTS;
                        if from == to {
                            continue;
                        }
                        let mut guard = db.write().unwrap();
                        let txn = guard.txn_begin();
                        for (id, delta) in [(from, -5i64), (to, 5)] {
                            let hit = guard
                                .txn_select(txn, "account", &cat_txdb::Predicate::eq("id", id))
                                .expect("txn select");
                            let (rid, row) = &hit[0];
                            let bal = row.get(1).unwrap().as_int().unwrap();
                            guard
                                .txn_update(
                                    txn,
                                    "account",
                                    *rid,
                                    "balance",
                                    Value::Int(bal + delta),
                                )
                                .expect("txn update");
                        }
                        guard.txn_commit(txn).expect("commit");
                    }
                });
            }
            for _ in 0..20 {
                let guard = db.read().unwrap();
                let snap = guard.snapshot();
                let total = execute_select_at(&guard, &sel, reader_opts, Some(&snap))
                    .expect("snapshot read");
                assert_eq!(
                    total.rows[0][0],
                    Value::Int(ACCOUNTS * 100),
                    "torn read under write contention"
                );
            }
        })
    };

    let parallel = PlanOptions {
        worker_threads: 4,
        ..PlanOptions::default()
    };
    time(run, "mixed_read_write_2k", || round(&parallel));
}

/// Logged commit latency over a 2,000-account table: each round commits
/// 50 single-row update transactions, each an independent
/// `[Begin, Update, Commit]` batch appended to the write-ahead log as
/// one buffered write, with flushing left to the OS (`fsync: false`) so
/// the median prices the engine's logging code rather than the disk.
fn bench_wal_commit(run: &mut Run) {
    const ACCOUNTS: i64 = 2_000;
    let dir = std::env::temp_dir().join(format!("txdb-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::open_with(&dir, WalOptions { fsync: false }).expect("open durable db");
    db.create_table(
        TableSchema::builder("account")
            .column("id", DataType::Int)
            .column("balance", DataType::Int)
            .primary_key(&["id"])
            .build()
            .expect("schema"),
    )
    .expect("create");
    let rids: Vec<RowId> = (0..ACCOUNTS)
        .map(|i| db.insert("account", row![i, 100i64]).expect("insert"))
        .collect();
    fn round(db: &mut Database, rids: &[RowId], salt: &mut i64) {
        for k in 0..50i64 {
            let rid = rids[((*salt * 53 + k * 17) % rids.len() as i64) as usize];
            let txn = db.txn_begin();
            db.txn_update(txn, "account", rid, "balance", Value::Int(*salt + k))
                .expect("txn update");
            db.txn_commit(txn).expect("commit");
        }
        *salt += 1;
    }

    let mut salt = 1i64;
    time(run, "wal_commit_2k", || round(&mut db, &rids, &mut salt));
    assert!(db.wal_appended_records() > 0, "commits never hit the log");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery cost of a 10,000-row database: the setup inserts 10k rows
/// into a durable database and "crashes" (drops without closing),
/// leaving the whole history in the log; a twin directory holds the
/// identical state folded into a checkpoint snapshot. After checking
/// that log replay and snapshot load rebuild the same database, the
/// group times `Database::open` of the checkpointed twin — the startup
/// path `CHECKPOINT` buys.
fn bench_recovery_replay(run: &mut Run) {
    const ROWS: i64 = 10_000;
    const NOFSYNC: WalOptions = WalOptions { fsync: false };
    let base = std::env::temp_dir().join(format!("txdb-bench-recovery-{}", std::process::id()));
    let seed = |name: &str| -> Database {
        let dir = base.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Database::open_with(&dir, NOFSYNC).expect("open durable db");
        db.create_table(
            TableSchema::builder("item")
                .column("id", DataType::Int)
                .column("bucket", DataType::Int)
                .column("label", DataType::Text)
                .primary_key(&["id"])
                .build()
                .expect("schema"),
        )
        .expect("create");
        for i in 0..ROWS {
            db.insert("item", row![i, i % 97, format!("item-{i}")])
                .expect("insert");
        }
        db
    };
    let log_dir = base.join("log");
    drop(seed("log")); // crash: the log carries every record
    let snap_dir = base.join("snapshot");
    let mut db = seed("snapshot");
    db.checkpoint().expect("checkpoint");
    drop(db);

    // Both startup paths must reconstruct the same database.
    let replayed = Database::open_with(&log_dir, NOFSYNC).expect("replay");
    let restored = Database::open_with(&snap_dir, NOFSYNC).expect("restore");
    assert!(!replayed.table_names().is_empty(), "log was not replayed");
    assert_eq!(
        dump_sql(&replayed).expect("dump"),
        dump_sql(&restored).expect("dump"),
        "replay and snapshot disagree"
    );
    drop((replayed, restored));

    time(run, "recovery_replay_10k", || {
        Database::open_with(&snap_dir, NOFSYNC).expect("restore")
    });
    let _ = std::fs::remove_dir_all(&base);
}

/// Write `BENCH_PR14.json`: the median of every calibration sample at
/// the top level and one median (ns) per group — the group's median
/// calibrated ratio scaled by that calibration median, i.e. its time at
/// the run's typical machine speed. `bench_compare` divides each group
/// median by the calibration median before gating, which recovers the
/// calibrated ratio.
fn write_report(mut run: Run) {
    let calibration = median(&mut run.calibration_ns);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR14.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_PR14.json");
    writeln!(
        f,
        "{{\n  \"pr\": 14,\n  \"bench\": \"planner\",\n  \"unit\": \"ns\",\n  \
         \"calibration_median_ns\": {calibration:.1},\n  \"results\": ["
    )
    .unwrap();
    for (i, (group, ratio)) in run.groups.iter().enumerate() {
        writeln!(
            f,
            "    {{\"name\": \"{group}\", \"median_ns\": {:.1}}}{}",
            ratio * calibration,
            if i + 1 < run.groups.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(f, "  ]\n}}").unwrap();
    println!("\nwrote {path} (calibration median {calibration:.0} ns)");
}

fn main() {
    let mut run = Run::default();
    bench_point_lookup(&mut run);
    bench_selective_eq(&mut run);
    bench_range_scan(&mut run);
    bench_top_k(&mut run);
    bench_multi_index_and(&mut run);
    bench_correlated_and(&mut run);
    bench_join3(&mut run);
    bench_join_unindexed_hash(&mut run);
    bench_join_merge_range(&mut run);
    bench_join_pushdown(&mut run);
    bench_join_skew_hotkey(&mut run);
    bench_join_partitioned_budget(&mut run);
    bench_mvcc_visibility(&mut run);
    bench_parallel_scan(&mut run);
    bench_parallel_build_hash(&mut run);
    bench_mixed_read_write(&mut run);
    bench_wal_commit(&mut run);
    bench_recovery_replay(&mut run);
    bench_refine(&mut run);
    write_report(run);
}
