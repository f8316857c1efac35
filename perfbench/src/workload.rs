//! The workloads: which database the agent is synthesized over, how it is
//! stored, which goals the simulated users pursue, and how a goal is
//! verified against the database afterwards.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::RngExt;

use cat_core::{AnnotationFile, CatBuilder, ConversationalAgent, SynthesisReport, UserGoal};
use cat_corpus::{
    cinema_procedures, cinema_schema, flight_procedures, flight_schema, generate_cinema,
    generate_flights, CinemaConfig, FlightConfig, CINEMA_ANNOTATIONS, FLIGHT_ANNOTATIONS,
};
use cat_txdb::{Database, Predicate, ProcOutcome, Row, RowId, Value};

/// Seed of the synthesized agent's surface realizer. Fixed: the workload
/// seed only drives what the simulated users do.
const AGENT_SEED: u64 = 2022;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Domain {
    Cinema { customers: usize },
    Flight { flights: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub domain: Domain,
    /// Open the database from a data directory (WAL, fsync per commit).
    pub durable: bool,
    /// Share of identification answers typed with typos.
    pub p_misspell: f64,
    /// Dialogues each synthesized agent serves in a run: a few seconds'
    /// worth, so that a run has several agents.
    pub dialogues_per_agent: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "booking_cinema_50k",
        domain: Domain::Cinema { customers: 50_000 },
        durable: true,
        p_misspell: 0.2,
        dialogues_per_agent: 34,
    },
    Workload {
        name: "lookup_flight_10k",
        domain: Domain::Flight { flights: 10_000 },
        durable: false,
        p_misspell: 0.2,
        dialogues_per_agent: 40,
    },
    Workload {
        name: "booking_cinema_200_typos",
        domain: Domain::Cinema { customers: 200 },
        durable: true,
        p_misspell: 0.5,
        dialogues_per_agent: 400,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    pub fn is_booking(&self) -> bool {
        matches!(self.domain, Domain::Cinema { .. })
    }

    /// The procedure a dialogue of this workload runs.
    pub fn task(&self) -> &'static str {
        match self.domain {
            Domain::Cinema { .. } => "ticket_reservation",
            Domain::Flight { .. } => "flight_info",
        }
    }

    /// The table whose rows the dialogue has to identify first.
    pub fn entity_table(&self) -> &'static str {
        match self.domain {
            Domain::Cinema { .. } => "customer",
            Domain::Flight { .. } => "flight",
        }
    }

    fn annotations(&self) -> &'static str {
        match self.domain {
            Domain::Cinema { .. } => CINEMA_ANNOTATIONS,
            Domain::Flight { .. } => FLIGHT_ANNOTATIONS,
        }
    }

    pub fn annotation_file(&self) -> AnnotationFile {
        AnnotationFile::parse(self.annotations()).expect("the corpus annotations parse")
    }

    fn generate(&self) -> cat_txdb::Result<Database> {
        match self.domain {
            Domain::Cinema { customers } => generate_cinema(&CinemaConfig {
                customers,
                ..CinemaConfig::default()
            }),
            Domain::Flight { flights } => generate_flights(&FlightConfig {
                flights,
                ..FlightConfig::default()
            }),
        }
    }

    fn create_schema(&self, db: &mut Database) -> cat_txdb::Result<()> {
        match self.domain {
            Domain::Cinema { .. } => {
                cinema_schema(db)?;
                cinema_procedures(db)
            }
            Domain::Flight { .. } => {
                flight_schema(db)?;
                flight_procedures(db)
            }
        }
    }

    /// Generate the corpus, load it (durably when the workload says so)
    /// and synthesize the agent. `scratch` holds the data directory.
    pub fn setup(&self, scratch: &Path) -> Result<Setup, String> {
        let start = Instant::now();
        let generated = self
            .generate()
            .map_err(|e| format!("generate corpus: {e}"))?;
        let generate_s = start.elapsed().as_secs_f64();

        let t = Instant::now();
        let (db, data_dir) = if self.durable {
            let dir = scratch.to_path_buf();
            let mut db = Database::open(&dir).map_err(|e| format!("open {dir:?}: {e}"))?;
            self.create_schema(&mut db)
                .map_err(|e| format!("create durable schema: {e}"))?;
            copy_rows(&generated, &mut db).map_err(|e| format!("load rows: {e}"))?;
            drop(generated);
            (db, Some(dir))
        } else {
            (generated, None)
        };
        let load_s = if self.durable {
            t.elapsed().as_secs_f64()
        } else {
            0.0
        };

        let (agent, report) = CatBuilder::new(db)
            .with_annotations(&self.annotation_file())
            .map_err(|e| format!("apply annotations: {e}"))?
            .with_seed(AGENT_SEED)
            .synthesize();
        Ok(Setup {
            agent,
            report,
            data_dir,
            generate_s,
            load_s,
            total_s: start.elapsed().as_secs_f64(),
        })
    }
}

pub struct Setup {
    pub agent: ConversationalAgent,
    pub report: SynthesisReport,
    pub data_dir: Option<PathBuf>,
    pub generate_s: f64,
    pub load_s: f64,
    /// Corpus generation, load and synthesis together.
    pub total_s: f64,
}

/// Copy every row of `src` into `dst` in one transaction, parents before
/// children so that foreign keys hold at each insert.
fn copy_rows(src: &Database, dst: &mut Database) -> cat_txdb::Result<()> {
    let mut order: Vec<&str> = Vec::new();
    let mut pending = src.table_names();
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|&name| {
            let ready = src.schema_of(name).is_ok_and(|s| {
                s.foreign_keys()
                    .iter()
                    .all(|fk| fk.ref_table == name || order.contains(&fk.ref_table.as_str()))
            });
            if ready {
                order.push(name);
            }
            !ready
        });
        assert!(
            pending.len() < before,
            "foreign-key cycle among {pending:?}"
        );
    }
    let mut txn = dst.begin(); // rolled back if dropped on an error
    for name in order {
        for (_, row) in src.table(name)?.scan() {
            txn.insert(name, row.clone())?;
        }
    }
    txn.try_commit()
}

/// A goal plus the utterance that opens its dialogue.
pub struct Goal {
    pub goal: UserGoal,
    pub opening: String,
}

/// Draws seeded goals over the agent's database.
pub struct GoalDrawer {
    workload: Workload,
    entities: Vec<RowId>,
    screenings: Vec<RowId>,
}

impl GoalDrawer {
    pub fn new(workload: Workload, db: &Database) -> GoalDrawer {
        let rows = |t: &str| -> Vec<RowId> {
            db.table(t)
                .map(|t| t.scan().map(|(rid, _)| rid).collect())
                .unwrap_or_default()
        };
        GoalDrawer {
            workload,
            entities: rows(workload.entity_table()),
            screenings: if workload.is_booking() {
                rows("screening")
            } else {
                Vec::new()
            },
        }
    }

    pub fn draw(&self, db: &Database, rng: &mut StdRng) -> Goal {
        let entity = *self
            .entities
            .choose(rng)
            .expect("entity table is not empty");
        if !self.workload.is_booking() {
            return Goal {
                goal: UserGoal {
                    task: self.workload.task().into(),
                    targets: vec![("flight_id".into(), entity)],
                    scalars: Vec::new(),
                },
                opening: "tell me about a flight".into(),
            };
        }
        // Re-booking a pair is a (correctly) rejected duplicate, not a
        // dialogue failure, so draw until the pair is unbooked.
        let mut customer = entity;
        let mut screening = *self.screenings.choose(rng).expect("screenings exist");
        while is_booked(db, customer, screening) {
            customer = *self.entities.choose(rng).expect("customers exist");
            screening = *self.screenings.choose(rng).expect("screenings exist");
        }
        let tickets = rng.random_range(1..=6i64);
        Goal {
            goal: UserGoal {
                task: self.workload.task().into(),
                targets: vec![
                    ("customer_id".into(), customer),
                    ("screening_id".into(), screening),
                ],
                scalars: vec![("ticket_amount".into(), tickets.to_string())],
            },
            opening: format!("i want to buy {tickets} tickets"),
        }
    }
}

/// The entity table behind a procedure parameter: both domains name an
/// entity parameter, and its table's key column, `<table>_id`.
pub fn table_of(param: &str) -> &str {
    param.strip_suffix("_id").unwrap_or(param)
}

/// The key of entity row `rid` of `table`.
pub fn key_of(db: &Database, table: &str, rid: RowId) -> Value {
    db.table(table)
        .and_then(|t| t.value_of(rid, &format!("{table}_id")))
        .expect("entity row has a key")
}

/// The reservations of one (customer key, screening key) pair.
fn reservations(db: &Database, customer: &Value, screening: &Value) -> Vec<(RowId, Row)> {
    let pred = Predicate::eq("customer_id", customer.clone())
        .and(Predicate::eq("screening_id", screening.clone()));
    db.select("reservation", &pred)
        .expect("cinema database has reservations")
}

fn is_booked(db: &Database, customer: RowId, screening: RowId) -> bool {
    let customer = key_of(db, "customer", customer);
    let screening = key_of(db, "screening", screening);
    !reservations(db, &customer, &screening).is_empty()
}

fn target(goal: &UserGoal, param: &str) -> RowId {
    goal.targets
        .iter()
        .find(|(p, _)| p == param)
        .map(|(_, rid)| *rid)
        .expect("goal names the target")
}

/// A booking goal's expected reservation: (customer key, screening key,
/// ticket count).
pub type Booking = (Value, Value, i64);

pub fn expected_booking(db: &Database, goal: &UserGoal) -> Booking {
    let tickets = goal.scalars[0]
        .1
        .parse()
        .expect("ticket count is an integer");
    (
        key_of(db, "customer", target(goal, "customer_id")),
        key_of(db, "screening", target(goal, "screening_id")),
        tickets,
    )
}

/// Whether a committed reservation matches the booking exactly.
pub fn booking_present(db: &Database, booking: &Booking) -> bool {
    let (customer, screening, tickets) = booking;
    let tickets_col = db
        .schema_of("reservation")
        .ok()
        .and_then(|s| s.column_index("no_tickets"));
    reservations(db, customer, screening)
        .iter()
        .any(|(_, row)| tickets_col.and_then(|i| row.get(i)) == Some(&Value::Int(*tickets)))
}

/// Check a lookup's returned flight rows: every row must be the stored
/// row with that key (an output check), and one of them must be the
/// target (the goal check). `Err` is a wrong output. An outcome without
/// flight rows (the agent ran another task) misses the goal.
pub fn lookup_found_target(
    db: &Database,
    goal: &UserGoal,
    outcome: &ProcOutcome,
) -> Result<bool, String> {
    let Some(key_col) = outcome.columns.iter().position(|c| c == "flight_id") else {
        return Ok(false);
    };
    let want = key_of(db, "flight", target(goal, "flight_id"));
    let mut found = false;
    for row in &outcome.rows {
        let key = row.get(key_col).ok_or("short flight_info row")?;
        let stored = db
            .select("flight", &Predicate::eq("flight_id", key.clone()))
            .map_err(|e| e.to_string())?;
        match stored.as_slice() {
            [(_, r)] if r.values() == row.as_slice() => {}
            _ => return Err(format!("flight_info returned {row:?}, which is not stored")),
        }
        found |= *key == want;
    }
    Ok(found)
}
