//! # cat-corpus — synthetic corpora and databases for CAT experiments
//!
//! Everything the CAT reproduction's experiments run against:
//!
//! * [`cinema`] — the paper's demo database (Figure 3 schema plus actors),
//!   with the three demo transactions (reserve / cancel / list) registered
//!   as stored procedures.
//! * [`flightdb`] — a relational flight database standing in for the ATIS
//!   domain in the policy experiments.
//! * [`atis`] — a synthetic ATIS-like slot-annotated NLU corpus with the
//!   real corpus' intent skew. Real ATIS is an LDC corpus behind a
//!   licence, so it cannot ship with the repository; the experiments
//!   need only its shape (intent skew, a closed entity inventory, slot
//!   annotations), which the generator reproduces from a seed.
//! * [`names`] — the deterministic entity banks behind the generators.

pub mod atis;
pub mod cinema;
pub mod flightdb;
pub mod hotel;
pub mod names;

pub use atis::{generate_atis, train_test_split, AtisConfig, INTENT_WEIGHTS};
pub use cinema::{
    cinema_procedures, cinema_schema, generate_cinema, CinemaConfig, CINEMA_ANNOTATIONS,
};
pub use flightdb::{
    flight_procedures, flight_schema, generate_flights, FlightConfig, FLIGHT_ANNOTATIONS,
};
pub use hotel::{generate_hotel, hotel_schema, HotelConfig, HOTEL_ANNOTATIONS};
