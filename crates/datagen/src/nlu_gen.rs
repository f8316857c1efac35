//! NLU training-data synthesis: fill developer templates with live
//! database values, augment with paraphrases and typo noise (paper §3,
//! "Natural Language Understanding").

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use cat_nlg::{NoiseModel, Paraphraser, Template};
use cat_nlu::{Gazetteer, NluExample, SlotAnnotation};
use cat_txdb::{Database, Value};

use crate::extract::TaskSpec;

/// Where the values for a slot's placeholder come from.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSource {
    /// Sample distinct values of a database column (CAT's "fill the
    /// placeholders with actual data stored in the database").
    Column { table: String, column: String },
    /// Sample an integer range (e.g. ticket counts).
    Range { lo: i64, hi: i64 },
    /// Sample from a fixed list.
    OneOf(Vec<String>),
}

/// The developer-provided linguistic input: a few templates per task and
/// per slot (paper Figure 3 — the only manual NLU effort CAT requires).
#[derive(Debug, Clone, Default)]
pub struct TemplateSet {
    /// task name -> request-intent templates (may contain placeholders).
    pub request: HashMap<String, Vec<String>>,
    /// slot name -> inform-intent templates (each mentioning that slot).
    pub inform: HashMap<String, Vec<String>>,
    /// slot name -> value source.
    pub sources: HashMap<String, ValueSource>,
}

impl TemplateSet {
    pub fn new() -> TemplateSet {
        TemplateSet::default()
    }

    /// Add a request template for a task.
    pub fn add_request(&mut self, task: &str, template: &str) -> &mut Self {
        self.request
            .entry(task.to_string())
            .or_default()
            .push(template.to_string());
        self
    }

    /// Add an inform template for a slot.
    pub fn add_inform(&mut self, slot: &str, template: &str) -> &mut Self {
        self.inform
            .entry(slot.to_string())
            .or_default()
            .push(template.to_string());
        self
    }

    /// Declare where a slot's values come from.
    pub fn add_source(&mut self, slot: &str, source: ValueSource) -> &mut Self {
        self.sources.insert(slot.to_string(), source);
        self
    }

    /// All slot names with a declared source.
    pub fn slots(&self) -> Vec<&str> {
        self.sources.keys().map(String::as_str).collect()
    }
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct DataGenConfig {
    /// Rendered examples per template variant.
    pub per_template: usize,
    /// Run the paraphraser over every template.
    pub paraphrase: bool,
    /// Maximum paraphrase variants per template.
    pub max_paraphrases: usize,
    /// Fraction of examples additionally emitted with typo noise.
    pub noise_fraction: f64,
    /// Typo intensity (edits per 20 chars) for the noisy copies.
    pub noise_rate: f64,
    pub seed: u64,
}

impl Default for DataGenConfig {
    fn default() -> Self {
        DataGenConfig {
            per_template: 8,
            paraphrase: true,
            max_paraphrases: 6,
            noise_fraction: 0.2,
            noise_rate: 1.0,
            seed: 42,
        }
    }
}

/// Built-in examples for the domain-independent intents every agent needs
/// (these ship with CAT; the developer does not write them).
pub fn builtin_general_examples() -> Vec<NluExample> {
    let bank: &[(&str, &[&str])] = &[
        (
            "affirm",
            &[
                "yes",
                "yes please",
                "yeah",
                "yep",
                "sure",
                "that is right",
                "correct",
                "exactly",
                "sounds good",
                "ok do it",
                "go ahead",
                "confirm",
            ],
        ),
        (
            "deny",
            &[
                "no",
                "nope",
                "no thanks",
                "that is wrong",
                "not that one",
                "incorrect",
                "no that is not right",
                "negative",
            ],
        ),
        (
            "abort",
            &[
                "cancel that",
                "abort",
                "stop",
                "forget it",
                "never mind",
                "quit",
                "stop the task",
                "i changed my mind, stop",
                "leave it",
            ],
        ),
        (
            "greet",
            &[
                "hello",
                "hi",
                "hey",
                "good morning",
                "good evening",
                "hi there",
            ],
        ),
        (
            "bye",
            &[
                "bye",
                "goodbye",
                "see you",
                "that is all",
                "thanks bye",
                "have a nice day",
            ],
        ),
        (
            "thank",
            &[
                "thanks",
                "thank you",
                "thanks a lot",
                "cheers",
                "great, thanks",
            ],
        ),
        (
            "cannot_answer",
            &[
                "i do not know",
                "no idea",
                "i don't know that",
                "i can't remember",
                "i do not have that",
                "not sure",
                "i don't recall",
            ],
        ),
    ];
    bank.iter()
        .flat_map(|(intent, texts)| texts.iter().map(move |t| NluExample::plain(*t, *intent)))
        .collect()
}

/// The non-null values of each sampled `(table, column)`, borrowed from
/// the database and collected on first use.
type ColumnValues<'a> = HashMap<(&'a str, &'a str), Vec<&'a Value>>;

/// Sample a value for a slot from its source. A column is sampled over
/// its non-null values, collected once per generation into `columns`;
/// only the chosen value is rendered.
fn sample_value<'a>(
    db: &'a Database,
    source: &'a ValueSource,
    columns: &mut ColumnValues<'a>,
    rng: &mut StdRng,
) -> Option<String> {
    match source {
        ValueSource::Column { table, column } => {
            let values = match columns.entry((table, column)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let t = db.table(table).ok()?;
                    let idx = t.schema().column_index(column)?;
                    e.insert(
                        t.scan()
                            .filter_map(|(_, row)| row.get(idx))
                            .filter(|v| !v.is_null())
                            .collect(),
                    )
                }
            };
            values.choose(rng).map(|v| v.render())
        }
        ValueSource::Range { lo, hi } => Some(rng.random_range(*lo..=*hi).to_string()),
        ValueSource::OneOf(options) => options.choose(rng).cloned(),
    }
}

/// Generate the full NLU training set for a set of tasks: request-intent
/// examples, inform-intent examples and the built-in general intents, with
/// paraphrase and noise augmentation.
pub fn generate_nlu_data(
    db: &Database,
    tasks: &[TaskSpec],
    templates: &TemplateSet,
    config: &DataGenConfig,
) -> Vec<NluExample> {
    let mut columns = ColumnValues::new();
    generate_with(templates, tasks, config, |source, rng| {
        sample_value(db, source, &mut columns, rng)
    })
}

/// [`generate_nlu_data`] with the placeholder sampler passed in.
fn generate_with<'t>(
    templates: &'t TemplateSet,
    tasks: &[TaskSpec],
    config: &DataGenConfig,
    mut sample: impl FnMut(&'t ValueSource, &mut StdRng) -> Option<String>,
) -> Vec<NluExample> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let paraphraser = Paraphraser::new(config.max_paraphrases, config.seed);
    let noise = NoiseModel::new(config.noise_rate);
    let mut out = Vec::new();

    let mut emit = |intent: &str, src: &str, out: &mut Vec<NluExample>, rng: &mut StdRng| {
        let Ok(template) = Template::parse(src) else {
            return;
        };
        let variants = if config.paraphrase {
            paraphraser.expand(&template)
        } else {
            vec![template]
        };
        for variant in variants {
            for _ in 0..config.per_template {
                // Bind each placeholder.
                let mut bindings: Vec<(String, String)> = Vec::new();
                let mut ok = true;
                for ph in variant.placeholders() {
                    match templates.sources.get(ph).and_then(|s| sample(s, rng)) {
                        Some(v) => bindings.push((ph.to_string(), v)),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let refs: Vec<(&str, &str)> = bindings
                    .iter()
                    .map(|(n, v)| (n.as_str(), v.as_str()))
                    .collect();
                let Ok((text, slots)) = variant.render(&refs) else {
                    continue;
                };
                let to_example = |text: &str, slots: &[cat_nlg::RenderedSlot]| NluExample {
                    text: text.to_string(),
                    intent: intent.to_string(),
                    slots: slots
                        .iter()
                        .map(|s| SlotAnnotation {
                            slot: s.slot.clone(),
                            start: s.start,
                            end: s.end,
                            value: s.value.clone(),
                        })
                        .collect(),
                };
                out.push(to_example(&text, &slots));
                if rng.random_bool(config.noise_fraction.clamp(0.0, 1.0)) {
                    let (noisy_text, noisy_slots) = noise.corrupt(&text, &slots, rng);
                    out.push(to_example(&noisy_text, &noisy_slots));
                }
            }
        }
    };

    for task in tasks {
        if let Some(task_templates) = templates.request.get(&task.name) {
            for src in task_templates {
                emit(&task.request_intent(), src, &mut out, &mut rng);
            }
        }
    }
    for (slot, slot_templates) in &templates.inform {
        let _ = slot;
        for src in slot_templates {
            emit("inform", src, &mut out, &mut rng);
        }
    }
    // The built-in general intents (affirm/deny/abort/...) have tiny
    // phrase banks; replicate them so the class priors stay balanced
    // against the template-generated mass — otherwise a bare "hello" is
    // swamped by the thousands of request/inform examples whose politeness
    // prefixes also contain greeting words.
    let builtin = builtin_general_examples();
    let factor = (out.len() / (builtin.len().max(1) * 2)).max(1);
    for _ in 0..factor {
        out.extend(builtin.iter().cloned());
    }
    out
}

/// Build the runtime gazetteer: every slot backed by a database column
/// gets that column's live values as its inventory.
pub fn build_gazetteer(db: &Database, templates: &TemplateSet) -> Gazetteer {
    let mut g = Gazetteer::new();
    for (slot, source) in &templates.sources {
        if let ValueSource::Column { table, column } = source {
            if let Ok(t) = db.table(table) {
                if let Some(idx) = t.schema().column_index(column) {
                    for (_, row) in t.scan() {
                        if let Some(v) = row.get(idx) {
                            if !v.is_null() {
                                g.add(slot, &v.render());
                            }
                        }
                    }
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use cat_txdb::{DataType, Row, TableSchema};

    fn movie_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("movie")
                .column("movie_id", DataType::Int)
                .column("title", DataType::Text)
                .primary_key(&["movie_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        for (i, t) in ["Forrest Gump", "Heat", "Alien"].iter().enumerate() {
            db.insert(
                "movie",
                Row::new(vec![Value::Int(i as i64 + 1), (*t).into()]),
            )
            .unwrap();
        }
        db
    }

    fn template_set() -> TemplateSet {
        let mut ts = TemplateSet::new();
        ts.add_request(
            "ticket_reservation",
            "i want to buy {ticket_amount} tickets",
        )
        .add_inform("movie_title", "the movie title is {movie_title}")
        .add_inform("movie_title", "i want to watch {movie_title}")
        .add_source(
            "movie_title",
            ValueSource::Column {
                table: "movie".into(),
                column: "title".into(),
            },
        )
        .add_source("ticket_amount", ValueSource::Range { lo: 1, hi: 8 });
        ts
    }

    fn task() -> TaskSpec {
        TaskSpec {
            name: "ticket_reservation".into(),
            description: "Reserve tickets".into(),
            params: vec![],
            is_write: true,
        }
    }

    #[test]
    fn generates_annotated_examples_from_db_values() {
        let db = movie_db();
        let cfg = DataGenConfig {
            per_template: 4,
            noise_fraction: 0.0,
            ..Default::default()
        };
        let data = generate_nlu_data(&db, &[task()], &template_set(), &cfg);
        // Inform examples carry movie_title slots filled with real titles.
        let informs: Vec<&NluExample> = data.iter().filter(|e| e.intent == "inform").collect();
        assert!(!informs.is_empty());
        for ex in &informs {
            assert_eq!(ex.slots.len(), 1);
            let s = &ex.slots[0];
            assert_eq!(s.slot, "movie_title");
            assert_eq!(&ex.text[s.start..s.end], s.value);
            assert!(
                ["Forrest Gump", "Heat", "Alien"].contains(&s.value.as_str()),
                "value from the database, got `{}`",
                s.value
            );
        }
        // Request examples exist with the right intent.
        assert!(data
            .iter()
            .any(|e| e.intent == "request_ticket_reservation"));
        // Built-in general intents included.
        assert!(data.iter().any(|e| e.intent == "affirm"));
        assert!(data.iter().any(|e| e.intent == "cannot_answer"));
    }

    #[test]
    fn paraphrasing_multiplies_variety() {
        let db = movie_db();
        let base = DataGenConfig {
            per_template: 2,
            paraphrase: false,
            noise_fraction: 0.0,
            ..Default::default()
        };
        let with = DataGenConfig {
            paraphrase: true,
            ..base
        };
        let plain = generate_nlu_data(&db, &[task()], &template_set(), &base);
        let expanded = generate_nlu_data(&db, &[task()], &template_set(), &with);
        assert!(expanded.len() > plain.len());
        // Paraphrased examples keep valid spans.
        for ex in &expanded {
            for s in &ex.slots {
                assert_eq!(
                    &ex.text[s.start..s.end],
                    s.value,
                    "bad span in `{}`",
                    ex.text
                );
            }
        }
    }

    #[test]
    fn noise_adds_corrupted_copies_with_valid_spans() {
        let db = movie_db();
        let cfg = DataGenConfig {
            per_template: 6,
            noise_fraction: 1.0,
            noise_rate: 1.5,
            ..Default::default()
        };
        let data = generate_nlu_data(&db, &[task()], &template_set(), &cfg);
        for ex in &data {
            for s in &ex.slots {
                assert_eq!(&ex.text[s.start..s.end], s.value);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let db = movie_db();
        let cfg = DataGenConfig::default();
        let a = generate_nlu_data(&db, &[task()], &template_set(), &cfg);
        let b = generate_nlu_data(&db, &[task()], &template_set(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn gazetteer_mirrors_database() {
        let db = movie_db();
        let g = build_gazetteer(&db, &template_set());
        assert_eq!(g.values("movie_title").len(), 3);
        assert!(g.resolve("movie_title", "forrest gump", 0.9).is_some());
        // Range-sourced slots have no inventory.
        assert!(g.values("ticket_amount").is_empty());
    }

    /// The column sampler before it borrowed values: renders the whole
    /// column on every draw, then chooses. Kept to pin that the borrowed,
    /// collected-once sampler makes the same RNG draws and so the same
    /// training set.
    fn render_all_sample_value(
        db: &Database,
        source: &ValueSource,
        rng: &mut StdRng,
    ) -> Option<String> {
        match source {
            ValueSource::Column { table, column } => {
                let t = db.table(table).ok()?;
                let idx = t.schema().column_index(column)?;
                let values: Vec<String> = t
                    .scan()
                    .filter_map(|(_, row)| row.get(idx))
                    .filter(|v| !v.is_null())
                    .map(|v| v.render())
                    .collect();
                values.choose(rng).cloned()
            }
            ValueSource::Range { lo, hi } => Some(rng.random_range(*lo..=*hi).to_string()),
            ValueSource::OneOf(options) => options.choose(rng).cloned(),
        }
    }

    #[test]
    fn borrowed_sampler_matches_render_all_sampler_on_cinema() {
        let mut db = cat_corpus::generate_cinema(&cat_corpus::CinemaConfig::default()).unwrap();
        // NULLs in a sampled column must be skipped identically.
        let rids: Vec<_> = db
            .table("customer")
            .unwrap()
            .scan()
            .map(|(rid, _)| rid)
            .step_by(3)
            .collect();
        for rid in rids {
            db.update("customer", rid, "phone", Value::Null).unwrap();
        }
        let column = |table: &str, column: &str| ValueSource::Column {
            table: table.into(),
            column: column.into(),
        };
        let mut ts = TemplateSet::new();
        ts.add_request(
            "ticket_reservation",
            "i want to buy {ticket_amount} tickets",
        )
        .add_request(
            "ticket_reservation",
            "book {movie_title} for {customer_name}",
        )
        .add_inform("customer_name", "my name is {customer_name}")
        .add_inform("customer_phone", "my phone is {customer_phone}")
        .add_inform("movie_rating", "it is rated {movie_rating}")
        .add_inform("movie_title", "i want to watch {movie_title}")
        .add_inform("actor_name", "the movie stars {actor_name}")
        .add_inform("screening_date", "i want to go on {screening_date}")
        .add_inform("ticket_amount", "{ticket_amount} seats please")
        .add_source("customer_name", column("customer", "name"))
        .add_source("customer_phone", column("customer", "phone"))
        .add_source("movie_rating", column("movie", "rating"))
        .add_source("movie_title", column("movie", "title"))
        .add_source("actor_name", column("actor", "name"))
        .add_source("screening_date", column("screening", "date"))
        .add_source("ticket_amount", ValueSource::Range { lo: 1, hi: 8 });
        let cfg = DataGenConfig::default();
        let borrowed = generate_nlu_data(&db, &[task()], &ts, &cfg);
        let rendered = generate_with(&ts, &[task()], &cfg, |source, rng| {
            render_all_sample_value(&db, source, rng)
        });
        assert!(borrowed.len() > 100);
        assert_eq!(borrowed, rendered);
    }

    #[test]
    fn missing_source_skips_template_gracefully() {
        let db = movie_db();
        let mut ts = template_set();
        ts.add_request("ticket_reservation", "book me {unsourced_slot} now");
        let cfg = DataGenConfig {
            noise_fraction: 0.0,
            ..Default::default()
        };
        let data = generate_nlu_data(&db, &[task()], &ts, &cfg);
        assert!(data.iter().all(|e| !e.text.contains("unsourced_slot")));
    }
}
