//! Synthesis builds hash indexes on the askable local columns of every
//! table a task parameter identifies, and the identification reads use
//! them: refine probes a bucket, full-table entropy and inventory come
//! from the buckets, and an exact answer is one probe. None of that may
//! change a result. Each test compares a corpus database with the
//! identification indexes against the same database without them.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use cat_core::create_identification_indexes;
use cat_corpus::{
    generate_cinema, generate_flights, generate_hotel, CinemaConfig, FlightConfig, HotelConfig,
};
use cat_datagen::extract_tasks;
use cat_policy::select::entropy_and_coverage;
use cat_policy::{
    enumerate_attributes, run_identification, Attribute, CandidateSet, DataAwarePolicy,
    SimulationConfig,
};
use cat_txdb::{Database, Result, Row, Value};

/// `plain` and a copy of it with the identification indexes, plus the
/// indexed `(table, column)` pairs.
fn with_indexes(plain: &Database) -> (Database, Vec<(String, String)>) {
    let mut indexed = plain.clone();
    let created = create_identification_indexes(&mut indexed, &extract_tasks(plain));
    (indexed, created)
}

/// The tables the indexes were built for.
fn indexed_tables(created: &[(String, String)]) -> Vec<&str> {
    let mut tables: Vec<&str> = created.iter().map(|(t, _)| t.as_str()).collect();
    tables.dedup();
    tables
}

fn local_attributes(db: &Database, table: &str) -> Vec<Attribute> {
    enumerate_attributes(db, table, 0)
}

/// Entropy and coverage as bits, so that equal means bit-identical.
fn score_bits(db: &Database, cs: &CandidateSet, attr: &Attribute) -> Result<(u64, u64)> {
    entropy_and_coverage(db, cs, attr).map(|(h, c)| (h.to_bits(), c.to_bits()))
}

/// Every local attribute scores and inventories alike on both databases.
fn assert_reads_agree(plain: &Database, indexed: &Database, cs: &CandidateSet, label: &str) {
    for attr in local_attributes(plain, &cs.table) {
        assert_eq!(
            score_bits(indexed, cs, &attr),
            score_bits(plain, cs, &attr),
            "{label}: entropy and coverage of {} over {} candidates",
            attr.key(),
            cs.len()
        );
        assert_eq!(
            cs.distinct_values(indexed, &attr),
            cs.distinct_values(plain, &attr),
            "{label}: distinct values of {} over {} candidates",
            attr.key(),
            cs.len()
        );
    }
}

/// Refine both databases' candidate sets in lockstep, the way a dialogue
/// does (answers a hidden target would give, on random attributes), and
/// compare the rows after every step and the reads of every set.
fn assert_corpus_agrees(plain: &Database, corpus: &str, seed: u64) {
    let (indexed, created) = with_indexes(plain);
    assert!(!created.is_empty(), "{corpus}: some column is indexed");
    let mut rng = StdRng::seed_from_u64(seed);
    for table in indexed_tables(&created) {
        let full = CandidateSet::all(plain, table).unwrap();
        assert_reads_agree(plain, &indexed, &full, &format!("{corpus} {table} full"));
        let attrs = enumerate_attributes(plain, table, 3);
        for episode in 0..8 {
            let mut on_plain = full.clone();
            let mut on_indexed = full.clone();
            for step in 0..3 {
                if on_plain.len() <= 1 {
                    break;
                }
                let target = on_plain.rows[rng.random_range(0..on_plain.len())];
                let attr = &attrs[rng.random_range(0..attrs.len())];
                let values = CandidateSet::values_for_row(plain, attr, target).unwrap();
                let Some(value) = values.first() else {
                    continue;
                };
                on_plain.refine(plain, attr, value).unwrap();
                on_indexed.refine(&indexed, attr, value).unwrap();
                let label = format!("{corpus} {table} episode {episode} step {step}");
                assert_eq!(
                    on_indexed.rows,
                    on_plain.rows,
                    "{label}: refine on {}",
                    attr.key()
                );
                assert_reads_agree(plain, &indexed, &on_plain, &label);
            }
        }
    }
}

#[test]
fn reads_agree_on_cinema() {
    let plain = generate_cinema(&CinemaConfig {
        customers: 3000,
        ..CinemaConfig::default()
    })
    .unwrap();
    assert_corpus_agrees(&plain, "cinema", 11);
}

#[test]
fn reads_agree_on_flights() {
    assert_corpus_agrees(
        &generate_flights(&FlightConfig::default()).unwrap(),
        "flights",
        12,
    );
}

#[test]
fn reads_agree_on_hotels() {
    assert_corpus_agrees(
        &generate_hotel(&HotelConfig::default()).unwrap(),
        "hotel",
        13,
    );
}

/// The data-aware policy asks the same questions in the same order with
/// and without the indexes, over seeded identification episodes.
#[test]
fn policy_choices_agree() {
    let corpora = [
        (
            "cinema",
            generate_cinema(&CinemaConfig {
                customers: 3000,
                ..CinemaConfig::default()
            })
            .unwrap(),
        ),
        (
            "flights",
            generate_flights(&FlightConfig::default()).unwrap(),
        ),
        ("hotel", generate_hotel(&HotelConfig::default()).unwrap()),
    ];
    let config = SimulationConfig::default();
    for (corpus, plain) in &corpora {
        let (indexed, created) = with_indexes(plain);
        for table in indexed_tables(&created) {
            let rows = CandidateSet::all(plain, table).unwrap().rows;
            let mut on_plain = DataAwarePolicy::default();
            let mut on_indexed = DataAwarePolicy::default();
            let mut rng = StdRng::seed_from_u64(0x1D);
            for episode in 0..10u64 {
                let target = rows[rng.random_range(0..rows.len())];
                let expected =
                    run_identification(plain, table, target, &mut on_plain, &config, episode)
                        .unwrap();
                let got =
                    run_identification(&indexed, table, target, &mut on_indexed, &config, episode)
                        .unwrap();
                assert_eq!(got, expected, "{corpus} {table} episode {episode}");
            }
        }
    }
}

/// A candidate set taken before a delete and an insert has the table's
/// row count but not its rows: the reads must walk it (and meet the
/// deleted row, as without the indexes) rather than answer from the
/// buckets. A set taken afterwards is the whole table again.
#[test]
fn a_stale_full_set_falls_back_to_the_walk() {
    let plain = generate_cinema(&CinemaConfig {
        customers: 1000,
        ..CinemaConfig::default()
    })
    .unwrap();
    let (mut indexed, _) = with_indexes(&plain);
    let mut plain = plain;
    let stale = CandidateSet::all(&plain, "customer").unwrap();
    // A customer without reservations can be deleted.
    let reserved: Vec<Value> = plain
        .table("reservation")
        .unwrap()
        .scan()
        .map(|(_, row)| row.get(0).unwrap().clone())
        .collect();
    let customers = plain.table("customer").unwrap();
    let (victim, template) = customers
        .scan()
        .find(|(_, row)| !reserved.contains(row.get(0).unwrap()))
        .map(|(rid, row)| (rid, row.clone()))
        .unwrap();
    let mut values = template.values().to_vec();
    values[0] = Value::Int(1_000_000);
    values[3] = Value::Text("stale@example.org".into());
    for db in [&mut plain, &mut indexed] {
        db.delete("customer", victim).unwrap();
        db.insert("customer", Row::new(values.clone())).unwrap();
        assert_eq!(db.table("customer").unwrap().len(), stale.len());
    }
    for attr in local_attributes(&plain, "customer") {
        let walked = score_bits(&plain, &stale, &attr);
        assert!(walked.is_err(), "the walk meets the deleted row");
        assert_eq!(
            score_bits(&indexed, &stale, &attr),
            walked,
            "{}",
            attr.key()
        );
        assert_eq!(
            stale.distinct_values(&indexed, &attr),
            stale.distinct_values(&plain, &attr),
            "{}",
            attr.key()
        );
    }
    let fresh = CandidateSet::all(&plain, "customer").unwrap();
    assert_reads_agree(&plain, &indexed, &fresh, "after delete and insert");
}

/// While a transaction holds an uncommitted update, the buckets hold the
/// keys of both versions, so the reads walk the rows instead, as they do
/// without the indexes.
#[test]
fn a_dirty_table_reads_like_the_walk() {
    let plain = generate_cinema(&CinemaConfig {
        customers: 1000,
        ..CinemaConfig::default()
    })
    .unwrap();
    let (mut indexed, _) = with_indexes(&plain);
    let mut plain = plain;
    let rid = CandidateSet::all(&plain, "customer").unwrap().rows[7];
    let city = Attribute::local("customer", "city");
    let old = plain
        .table("customer")
        .unwrap()
        .value_of(rid, "city")
        .unwrap();
    for db in [&mut plain, &mut indexed] {
        let txn = db.txn_begin();
        db.txn_update(txn, "customer", rid, "city", "Atlantis".into())
            .unwrap();
        assert!(!db.table("customer").unwrap().mvcc_clean());
    }
    let full = CandidateSet::all(&plain, "customer").unwrap();
    assert_reads_agree(&plain, &indexed, &full, "dirty customer table");
    for value in [old, Value::Text("Atlantis".into())] {
        let (mut on_plain, mut on_indexed) = (full.clone(), full.clone());
        on_plain.refine(&plain, &city, &value).unwrap();
        on_indexed.refine(&indexed, &city, &value).unwrap();
        assert_eq!(on_indexed.rows, on_plain.rows, "refine on city = {value}");
        assert!(on_plain.rows.contains(&rid) == (value == Value::Text("Atlantis".into())));
    }
}

/// What gets an index: askable, non-key, not near-unique local columns of
/// identified tables.
#[test]
fn near_unique_and_keyed_columns_get_no_index() {
    let plain = generate_cinema(&CinemaConfig {
        customers: 3000,
        ..CinemaConfig::default()
    })
    .unwrap();
    let (indexed, created) = with_indexes(&plain);
    let customer: Vec<&str> = created
        .iter()
        .filter(|(t, _)| t == "customer")
        .map(|(_, c)| c.as_str())
        .collect();
    // `email` is UNIQUE (indexed already), `phone` near-unique,
    // `customer_id` the primary key.
    assert_eq!(customer, ["name", "city"]);
    let t = indexed.table("customer").unwrap();
    assert!(!t.has_index("phone"));
    // Screenings are identified too; their movie FK is join glue.
    assert!(created
        .iter()
        .all(|(t, c)| !(t == "screening" && c == "movie_id")));
    assert!(created.iter().any(|(t, _)| t == "screening"));
    // The indexes live on the tables only: the plain copy has none.
    assert!(!plain.table("customer").unwrap().has_index("name"));
}
