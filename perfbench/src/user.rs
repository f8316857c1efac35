//! The simulated user: speaks natural language to
//! `ConversationalAgent::respond` in a closed loop and times every call.
//!
//! Its replies follow `cat_core::harness::run_nl_dialogue`: truthful
//! answers from the database, typos on a share of them, offered options
//! picked by ordinal, confirmations accepted. Unlike that user it
//! - answers again, without the carrier phrase, when asked to rephrase;
//! - picks an option offered a second time by its words, not its number;
//! - repeats its request when the agent has dropped the task or pursues
//!   another one (a misheard request);
//! - gives up on a question the agent keeps asking after three answers
//!   (counted afresh each time it repeats its request).
//!
//! The harness user says "i do not know" when asked to rephrase or when
//! the agent has dropped the task, repeats an ordinal the agent misparses,
//! confirms a task it did not ask for, and answers a repeated question
//! forever. A few such dialogues then dominated its turn counts, and each
//! taught the agent's awareness model something that steered later
//! dialogues, so results swung with how many dialogues a run happened to
//! fit.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use cat_core::{AgentResponse, ConversationalAgent, UserGoal};
use cat_nlg::NoiseModel;
use cat_txdb::{follow_path, join_path, ProcOutcome, RowId};

/// Give up after this many user turns (the harness default).
const MAX_TURNS: usize = 30;
/// Typo intensity of a misspelled answer (the harness default).
const NOISE_RATE: f64 = 1.0;
/// Times the user answers one question before saying it does not know:
/// the first answer and two retypes.
const ANSWERS_PER_QUESTION: usize = 3;

/// The kind of agent turn, from `AgentResponse::action`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Identify,
    Offer,
    AskSlot,
    Confirm,
    Execute,
    Other,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Identify,
        Kind::Offer,
        Kind::AskSlot,
        Kind::Confirm,
        Kind::Execute,
        Kind::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Identify => "identify",
            Kind::Offer => "offer",
            Kind::AskSlot => "ask_slot",
            Kind::Confirm => "confirm",
            Kind::Execute => "execute",
            Kind::Other => "other",
        }
    }

    fn of(response: &AgentResponse) -> Kind {
        match response.action.as_str() {
            _ if response.executed.is_some() => Kind::Execute,
            "a:identify_entity" => Kind::Identify,
            "a:offer_options" => Kind::Offer,
            "a:ask_slot" => Kind::AskSlot,
            "a:confirm_task" => Kind::Confirm,
            "a:report_success" | "a:report_failure" => Kind::Execute,
            _ => Kind::Other,
        }
    }
}

pub struct Turn {
    pub kind: Kind,
    pub respond_ms: f64,
    /// Time of `agent.nlu().parse` on the utterance (traced runs only).
    pub parse_us: Option<f64>,
}

pub struct Dialogue {
    pub turns: Vec<Turn>,
    /// The final response's executed procedure, if any.
    pub executed: Option<ProcOutcome>,
    pub corrections: usize,
    /// Change-log records appended during the dialogue.
    pub wal_records: u64,
    /// Turns whose change-log growth did not match what they executed.
    pub wal_mismatches: Vec<String>,
}

impl Dialogue {
    pub fn agent_ms(&self) -> f64 {
        self.turns.iter().map(|t| t.respond_ms).sum()
    }
}

/// Run one dialogue pursuing `goal`. `seed` drives the user's phrasing and
/// typos; `traced` additionally times the NLU parse of every utterance.
pub fn run_dialogue(
    agent: &mut ConversationalAgent,
    goal: &UserGoal,
    opening: &str,
    p_misspell: f64,
    seed: u64,
    traced: bool,
) -> Dialogue {
    let mut user = User {
        goal,
        opening,
        p_misspell,
        noise: NoiseModel::new(NOISE_RATE),
        rng: StdRng::seed_from_u64(seed),
        answered: HashMap::new(),
        offers: 0,
    };
    let durable = agent.db().is_durable();
    let wal_start = agent.db().wal_appended_records();
    let mut dialogue = Dialogue {
        turns: Vec::new(),
        executed: None,
        corrections: 0,
        wal_records: 0,
        wal_mismatches: Vec::new(),
    };
    agent.reset_session();
    let mut utterance = opening.to_string();
    loop {
        let parse_us = traced.then(|| {
            let t = Instant::now();
            std::hint::black_box(agent.nlu().parse(&utterance));
            t.elapsed().as_secs_f64() * 1e6
        });
        let wal_before = agent.db().wal_appended_records();
        let t = Instant::now();
        let response = agent.respond(&utterance);
        let respond_ms = t.elapsed().as_secs_f64() * 1e3;
        if durable {
            // A committed write logs Begin, one record per row, Commit; a
            // read or a refused write logs nothing.
            let expected = match &response.executed {
                Some(o) if o.rows_affected > 0 => o.rows_affected as u64 + 2,
                _ => 0,
            };
            let logged = agent.db().wal_appended_records() - wal_before;
            if logged != expected {
                dialogue.wal_mismatches.push(format!(
                    "turn `{utterance}` -> {}: {logged} log records, expected {expected}",
                    response.action
                ));
            }
        }
        dialogue.corrections += response.corrections.len();
        dialogue.turns.push(Turn {
            kind: Kind::of(&response),
            respond_ms,
            parse_us,
        });
        if response.executed.is_some() || dialogue.turns.len() >= MAX_TURNS {
            dialogue.executed = response.executed;
            break;
        }
        utterance = user.reply(agent, &response);
    }
    dialogue.wal_records = agent.db().wal_appended_records() - wal_start;
    dialogue
}

struct User<'a> {
    goal: &'a UserGoal,
    opening: &'a str,
    p_misspell: f64,
    noise: NoiseModel,
    rng: StdRng,
    /// Answers given per question since the request was last made.
    answered: HashMap<String, usize>,
    /// Offers answered in this dialogue.
    offers: usize,
}

impl User<'_> {
    fn reply(&mut self, agent: &ConversationalAgent, response: &AgentResponse) -> String {
        if !serves_goal(agent, self.goal, response) {
            // The agent misheard the request and pursues another task.
            return self.restate();
        }
        match response.action.as_str() {
            "a:confirm_task" => "yes please".into(),
            "a:offer_options" => {
                let options = agent.pending_options().unwrap_or_default();
                let pick = self
                    .goal
                    .targets
                    .iter()
                    .find_map(|(_, rid)| options.iter().position(|(_, r)| r == rid))
                    .unwrap_or(0);
                // The ordinal first; offered again, even after repeating
                // the request, the option's own words.
                self.offers += 1;
                if self.offers == 1 {
                    (pick + 1).to_string()
                } else {
                    options
                        .get(pick)
                        .map_or_else(|| "1".into(), |(label, _)| label.clone())
                }
            }
            "a:ask_slot" => {
                let text = response.text.to_lowercase();
                self.goal
                    .scalars
                    .iter()
                    .find(|(name, _)| text.contains(&name.replace('_', " ")))
                    .or_else(|| self.goal.scalars.first())
                    .map_or_else(|| "1".into(), |(_, v)| v.clone())
            }
            // A question, or a request to say the answer again: answer the
            // pending question (retyped, so a typo may not recur), but not
            // endlessly when the agent keeps asking it.
            "a:identify_entity" | "a:clarify" => {
                let value = agent.pending_question_key().and_then(|key| {
                    (self.count(&key) <= ANSWERS_PER_QUESTION)
                        .then(|| answer_from_db(agent, self.goal, &key))
                        .flatten()
                });
                let Some(value) = value else {
                    return "i do not know".into();
                };
                // Asked to rephrase, the user drops the carrier phrase.
                let carriers: &[&str] = match response.action.as_str() {
                    "a:clarify" => &["{}"],
                    _ => &["it is {}", "{}", "i think it is {}", "that would be {}"],
                };
                let carrier = carriers.choose(&mut self.rng).expect("non-empty");
                let text = carrier.replace("{}", &value);
                if self.rng.random_bool(self.p_misspell) {
                    self.noise.corrupt(&text, &[], &mut self.rng).0
                } else {
                    text
                }
            }
            // The agent dropped the task (a misheard abort or goodbye).
            "a:greet" | "a:bye" | "a:acknowledge_abort" | "a:report_failure" => self.restate(),
            _ => "i do not know".into(),
        }
    }

    fn restate(&mut self) -> String {
        self.answered.clear();
        self.opening.into()
    }

    /// Count one more answer to question `key`; returns the count so far.
    fn count(&mut self, key: &str) -> usize {
        let n = self.answered.entry(key.to_string()).or_default();
        *n += 1;
        *n
    }
}

/// Whether the agent's turn works towards the user's task: it confirms
/// that task, asks for one of its values, or identifies one of its
/// entities.
fn serves_goal(agent: &ConversationalAgent, goal: &UserGoal, response: &AgentResponse) -> bool {
    match response.action.as_str() {
        "a:confirm_task" => response
            .text
            .to_lowercase()
            .contains(&goal.task.replace('_', " ")),
        "a:ask_slot" => !goal.scalars.is_empty(),
        "a:identify_entity" | "a:offer_options" => agent
            .active_identification_table()
            .is_none_or(|table| target_row(agent, goal, &table).is_some()),
        _ => true,
    }
}

/// The goal's target row in entity table `table`, if the goal has one.
fn target_row(agent: &ConversationalAgent, goal: &UserGoal, table: &str) -> Option<RowId> {
    let task = agent.tasks().iter().find(|t| t.name == goal.task)?;
    goal.targets
        .iter()
        .find(|(p, _)| {
            task.param(p)
                .and_then(|pp| pp.entity.as_ref())
                .is_some_and(|(t, _)| t == table)
        })
        .map(|(_, rid)| *rid)
}

/// The target row's value for the asked attribute (the first non-null one
/// for a multi-valued joined attribute).
fn answer_from_db(agent: &ConversationalAgent, goal: &UserGoal, attr_key: &str) -> Option<String> {
    let (attr_table, attr_column) = attr_key.split_once('.')?;
    let table = agent.active_identification_table()?;
    let rid = target_row(agent, goal, &table)?;
    let db = agent.db();
    if attr_table == table {
        let v = db.table(&table).ok()?.value_of(rid, attr_column).ok()?;
        return (!v.is_null()).then(|| v.render());
    }
    let path = join_path(db, &table, attr_table)?;
    let target_table = db.table(attr_table).ok()?;
    follow_path(db, &path, rid)
        .into_iter()
        .filter_map(|r| target_table.value_of(r, attr_column).ok())
        .find(|v| !v.is_null())
        .map(|v| v.render())
}
