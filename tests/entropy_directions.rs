//! The data-aware policy scores a joined attribute in one of two
//! directions: forward, along the join path from every candidate, or in
//! reverse, from the attribute table's value groups back through the FK
//! indexes to the candidates they reach. Table cardinalities pick the
//! direction, so both must give bit-identical entropies and coverages,
//! or the agent's questions would depend on the data's size.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use cat_corpus::{
    generate_cinema, generate_flights, generate_hotel, CinemaConfig, FlightConfig, HotelConfig,
};
use cat_policy::select::{entropy_and_coverage_in, priced_direction, Direction};
use cat_policy::{enumerate_attributes, Attribute, CandidateSet};
use cat_txdb::Database;

/// Forward and reverse agree to the bit on every attribute within three
/// hops of `cs.table`.
fn assert_directions_agree(db: &Database, cs: &CandidateSet, label: &str) {
    for attr in enumerate_attributes(db, &cs.table, 3) {
        let (hf, cf) = entropy_and_coverage_in(db, cs, &attr, Direction::Forward).unwrap();
        let (hr, cr) = entropy_and_coverage_in(db, cs, &attr, Direction::Reverse).unwrap();
        assert_eq!(
            (hf.to_bits(), cf.to_bits()),
            (hr.to_bits(), cr.to_bits()),
            "{label}: {} over {} {} candidates: forward ({hf}, {cf}) vs reverse ({hr}, {cr})",
            attr.key(),
            cs.len(),
            cs.table
        );
    }
}

/// The full set of `table`, sets refined the way a dialogue refines them
/// (answers a hidden target would give, one to three per set), and a
/// random subset.
fn candidate_sets(db: &Database, table: &str, seed: u64) -> Vec<CandidateSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let full = CandidateSet::all(db, table).unwrap();
    let attrs = enumerate_attributes(db, table, 3);
    let mut sets = vec![full.clone()];
    for k in 0..6 {
        let mut cs = full.clone();
        for _ in 0..=(k % 3) {
            if cs.len() <= 1 {
                break;
            }
            let target = cs.rows[rng.random_range(0..cs.len())];
            let attr = &attrs[rng.random_range(0..attrs.len())];
            let values = CandidateSet::values_for_row(db, attr, target).unwrap();
            if values.is_empty() {
                continue;
            }
            let value = &values[rng.random_range(0..values.len())];
            cs.refine(db, attr, value).unwrap();
            assert!(cs.rows.contains(&target), "refine kept the target");
            sets.push(cs.clone());
        }
    }
    let mut subset = full;
    subset.rows.retain(|_| rng.random_bool(0.3));
    sets.push(subset);
    sets
}

fn assert_corpus_agrees(db: &Database, corpus: &str, seed: u64) {
    for table in db.table_names() {
        for (i, cs) in candidate_sets(db, table, seed).iter().enumerate() {
            assert_directions_agree(db, cs, &format!("{corpus} {table} set {i}"));
        }
    }
}

#[test]
fn directions_agree_on_cinema() {
    let db = generate_cinema(&CinemaConfig::default()).unwrap();
    assert_corpus_agrees(&db, "cinema", 1);
}

#[test]
fn directions_agree_on_small_cinemas() {
    for seed in 0..4 {
        let db = generate_cinema(&CinemaConfig::small(seed)).unwrap();
        assert_corpus_agrees(&db, &format!("small cinema {seed}"), 100 + seed);
    }
}

#[test]
fn directions_agree_on_flights() {
    let db = generate_flights(&FlightConfig::default()).unwrap();
    assert_corpus_agrees(&db, "flights", 2);
}

#[test]
fn directions_agree_on_hotels() {
    let db = generate_hotel(&HotelConfig::default()).unwrap();
    assert_corpus_agrees(&db, "hotel", 3);
}

fn joined(db: &Database, entity: &str, key: &str) -> Attribute {
    enumerate_attributes(db, entity, 3)
        .into_iter()
        .find(|a| a.key() == key)
        .unwrap_or_else(|| panic!("{key} is askable for {entity}"))
}

/// A few hundred reservations reach the movies of 5,000 customers: the
/// reverse walk from the movie table is far cheaper than three probes
/// per customer.
#[test]
fn customer_movie_title_goes_reverse_at_5k_customers() {
    let db = generate_cinema(&CinemaConfig {
        customers: 5000,
        ..CinemaConfig::default()
    })
    .unwrap();
    let cs = CandidateSet::all(&db, "customer").unwrap();
    let title = joined(&db, "customer", "movie.title");
    assert_eq!(title.path.len(), 3);
    assert_eq!(priced_direction(&db, &cs, &title), Direction::Reverse);
    assert_directions_agree(&db, &cs, "cinema 5k customers");
}

/// One probe per remaining flight beats walking back from every flight
/// of every airline.
#[test]
fn flight_airline_goes_forward_on_a_refined_set() {
    let db = generate_flights(&FlightConfig {
        flights: 700,
        ..FlightConfig::default()
    })
    .unwrap();
    let mut cs = CandidateSet::all(&db, "flight").unwrap();
    let day = Attribute::local("flight", "day_name");
    let first_day = CandidateSet::values_for_row(&db, &day, cs.rows[0]).unwrap();
    cs.refine(&db, &day, &first_day[0]).unwrap();
    assert!((60..=140).contains(&cs.len()), "{} flights", cs.len());
    let airline = joined(&db, "flight", "airline.name");
    assert_eq!(priced_direction(&db, &cs, &airline), Direction::Forward);
    // Local columns never walk.
    assert_eq!(priced_direction(&db, &cs, &day), Direction::Forward);
    assert_directions_agree(&db, &cs, "flights on one day");
}
