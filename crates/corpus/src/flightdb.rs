//! Relational flights database — the "ATIS dataset" side of the paper's
//! policy evaluation, rebuilt as an OLTP database. Real ATIS is an LDC
//! corpus behind a licence and holds utterances, not tables; the policy
//! experiments need a flight schema with realistic value skew to ask
//! questions over, which a seeded generator provides.

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use cat_txdb::{
    AskPreference, DataType, Database, ParamDef, ParamExpr, ProcOp, Procedure, Row, TableSchema,
    Value,
};

use crate::names;

/// The canonical schema-annotation file for the flight domain.
pub const FLIGHT_ANNOTATIONS: &str = r#"
# CAT schema annotations for the flight domain.
table passenger
  column name ask=preferred awareness=0.98
  column city awareness=0.9

table flight
  column day_name awareness=0.85 display="day of travel"
  column period awareness=0.75 display="time of day"
  column price ask=avoid awareness=0.3
  column stops awareness=0.5

table airline
  column name ask=preferred awareness=0.8 display="airline"

table airport
  column city ask=preferred awareness=0.95
  column code awareness=0.3

task book_flight
  request "i want to book a flight"
  request "book {seats} seats on a flight"
  request "get me a plane ticket"

task flight_info
  request "tell me about a flight"
  request "i need information on a flight"

slot passenger_name source=passenger.name
  inform "my name is {passenger_name}"
  inform "the booking is for {passenger_name}"

slot passenger_city source=passenger.city
  inform "i live in {passenger_city}"

slot airline_name source=airline.name
  inform "i fly with {airline_name}"
  inform "the airline is {airline_name}"

slot day_name source=flight.day_name
  inform "i travel on {day_name}"
  inform "the flight is on {day_name}"

slot period source=flight.period
  inform "in the {period}"
  inform "i prefer the {period}"

slot seats source=range:1..5
  inform "i need {seats} seats"
"#;

/// Size parameters for the generated flights database.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    pub airlines: usize,
    pub airports: usize,
    pub flights: usize,
    pub passengers: usize,
    pub seed: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            airlines: 12,
            airports: 30,
            flights: 500,
            passengers: 200,
            seed: 42,
        }
    }
}

impl FlightConfig {
    /// Small configuration for fast tests.
    pub fn small(seed: u64) -> FlightConfig {
        FlightConfig {
            airlines: 5,
            airports: 10,
            flights: 60,
            passengers: 30,
            seed,
        }
    }
}

/// Build the flights schema (no data).
pub fn flight_schema(db: &mut Database) -> cat_txdb::Result<()> {
    db.create_table(
        TableSchema::builder("airline")
            .column("airline_id", DataType::Int)
            .column("name", DataType::Text)
            .ask(AskPreference::Preferred)
            .awareness(0.8)
            .primary_key(&["airline_id"])
            .build()?,
    )?;
    db.create_table(
        TableSchema::builder("airport")
            .column("airport_id", DataType::Int)
            .column("code", DataType::Text)
            .unique()
            .awareness(0.3)
            .column("city", DataType::Text)
            .ask(AskPreference::Preferred)
            .awareness(0.95)
            .primary_key(&["airport_id"])
            .build()?,
    )?;
    db.create_table(
        TableSchema::builder("flight")
            .column("flight_id", DataType::Int)
            .column("airline_id", DataType::Int)
            .column("from_airport", DataType::Int)
            .column("to_airport", DataType::Int)
            .column("day_name", DataType::Text)
            .awareness(0.85)
            .column("period", DataType::Text)
            .awareness(0.75)
            .column("price", DataType::Float)
            .awareness(0.3)
            .column("stops", DataType::Int)
            .awareness(0.5)
            .primary_key(&["flight_id"])
            .foreign_key("airline_id", "airline", "airline_id")
            .foreign_key("from_airport", "airport", "airport_id")
            .foreign_key("to_airport", "airport", "airport_id")
            .build()?,
    )?;
    db.create_table(
        TableSchema::builder("passenger")
            .column("passenger_id", DataType::Int)
            .column("name", DataType::Text)
            .ask(AskPreference::Preferred)
            .awareness(0.98)
            .column("city", DataType::Text)
            .awareness(0.9)
            .primary_key(&["passenger_id"])
            .build()?,
    )?;
    db.create_table(
        TableSchema::builder("booking")
            .column("passenger_id", DataType::Int)
            .column("flight_id", DataType::Int)
            .column("seats", DataType::Int)
            .awareness(0.9)
            .primary_key(&["passenger_id", "flight_id"])
            .foreign_key("passenger_id", "passenger", "passenger_id")
            .foreign_key("flight_id", "flight", "flight_id")
            .build()?,
    )?;
    Ok(())
}

/// Register the flight transactions.
pub fn flight_procedures(db: &mut Database) -> cat_txdb::Result<()> {
    db.register_procedure(
        Procedure::builder("book_flight")
            .describe("Book seats on a flight")
            .param(
                ParamDef::entity("passenger_id", DataType::Int, "passenger", "passenger_id")
                    .describe("passenger account"),
            )
            .param(
                ParamDef::entity("flight_id", DataType::Int, "flight", "flight_id")
                    .describe("flight to book"),
            )
            .param(ParamDef::scalar("seats", DataType::Int).describe("number of seats"))
            .op(ProcOp::Insert {
                table: "booking".into(),
                columns: vec!["passenger_id".into(), "flight_id".into(), "seats".into()],
                values: vec![
                    ParamExpr::param("passenger_id"),
                    ParamExpr::param("flight_id"),
                    ParamExpr::param("seats"),
                ],
            })
            .build()?,
    )?;
    db.register_procedure(
        Procedure::builder("flight_info")
            .describe("Look up a flight")
            .param(
                ParamDef::entity("flight_id", DataType::Int, "flight", "flight_id")
                    .describe("flight of interest"),
            )
            .op(ProcOp::Select {
                table: "flight".into(),
                filter: vec![("flight_id".into(), ParamExpr::param("flight_id"))],
                columns: None,
            })
            .build()?,
    )?;
    Ok(())
}

/// Generate the full flights database.
pub fn generate_flights(config: &FlightConfig) -> cat_txdb::Result<Database> {
    let mut db = Database::new();
    flight_schema(&mut db)?;
    flight_procedures(&mut db)?;
    let mut rng = StdRng::seed_from_u64(config.seed);

    let n_airlines = config.airlines.min(names::AIRLINES.len());
    for (i, name) in names::AIRLINES.iter().take(n_airlines).enumerate() {
        db.insert(
            "airline",
            Row::new(vec![
                Value::Int(i as i64 + 1),
                Value::Text(name.to_string()),
            ]),
        )?;
    }

    let n_airports = config.airports.min(names::CITIES.len());
    for (i, city) in names::CITIES.iter().take(n_airports).enumerate() {
        let code: String = city.chars().filter(|c| c.is_alphabetic()).take(3).collect();
        let code = format!("{}{}", code.to_uppercase(), i);
        db.insert(
            "airport",
            Row::new(vec![
                Value::Int(i as i64 + 1),
                Value::Text(code),
                Value::Text(city.to_string()),
            ]),
        )?;
    }

    for i in 0..config.flights {
        let airline = rng.random_range(1..=n_airlines as i64);
        let from = rng.random_range(1..=n_airports as i64);
        let mut to = rng.random_range(1..=n_airports as i64);
        while to == from {
            to = rng.random_range(1..=n_airports as i64);
        }
        let day = *names::DAY_NAMES.choose(&mut rng).expect("non-empty");
        let period = *names::PERIODS.choose(&mut rng).expect("non-empty");
        let price = rng.random_range(59..=899) as f64;
        let stops = if rng.random_bool(0.7) {
            0
        } else {
            rng.random_range(1..=2i64)
        };
        db.insert(
            "flight",
            Row::new(vec![
                Value::Int(i as i64 + 1),
                Value::Int(airline),
                Value::Int(from),
                Value::Int(to),
                Value::Text(day.into()),
                Value::Text(period.into()),
                Value::Float(price),
                Value::Int(stops),
            ]),
        )?;
    }

    for i in 0..config.passengers {
        let first = *names::FIRST_NAMES.choose(&mut rng).expect("non-empty");
        let last = *names::LAST_NAMES.choose(&mut rng).expect("non-empty");
        let city = *names::CITIES.choose(&mut rng).expect("non-empty");
        db.insert(
            "passenger",
            Row::new(vec![
                Value::Int(i as i64 + 1),
                Value::Text(format!("{first} {last}")),
                Value::Text(city.to_string()),
            ]),
        )?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_consistent_database() {
        let db = generate_flights(&FlightConfig::small(1)).unwrap();
        assert_eq!(db.table("airline").unwrap().len(), 5);
        assert_eq!(db.table("airport").unwrap().len(), 10);
        assert_eq!(db.table("flight").unwrap().len(), 60);
        assert!(db.procedure("book_flight").is_ok());
    }

    #[test]
    fn flights_never_loop_to_same_airport() {
        let db = generate_flights(&FlightConfig::small(2)).unwrap();
        for (_, row) in db.table("flight").unwrap().scan() {
            assert_ne!(row.get(2), row.get(3), "from == to");
        }
    }

    #[test]
    fn book_flight_procedure() {
        let mut db = generate_flights(&FlightConfig::small(3)).unwrap();
        db.call(
            "book_flight",
            &[
                ("passenger_id".into(), Value::Int(1)),
                ("flight_id".into(), Value::Int(1)),
                ("seats".into(), Value::Int(2)),
            ],
        )
        .unwrap();
        assert_eq!(db.table("booking").unwrap().len(), 1);
        // Duplicate booking violates the composite PK.
        assert!(db
            .call(
                "book_flight",
                &[
                    ("passenger_id".into(), Value::Int(1)),
                    ("flight_id".into(), Value::Int(1)),
                    ("seats".into(), Value::Int(1)),
                ],
            )
            .is_err());
    }

    #[test]
    fn deterministic() {
        let a = generate_flights(&FlightConfig::small(9)).unwrap();
        let b = generate_flights(&FlightConfig::small(9)).unwrap();
        let prices = |db: &Database| -> Vec<String> {
            db.table("flight")
                .unwrap()
                .scan()
                .map(|(_, r)| r.get(6).unwrap().render())
                .collect()
        };
        assert_eq!(prices(&a), prices(&b));
    }
}
