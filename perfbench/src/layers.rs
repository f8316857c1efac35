//! Per-layer measurements of a traced run. Each times the benchmark's own
//! calls into one crate's public functions, or reads a counter the crate
//! already exposes; nothing here reaches inside a layer.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use cat_core::ConversationalAgent;
use cat_datagen::{
    build_gazetteer, extract_tasks, generate_nlu_data, simulate_flows, DataGenConfig,
    SelfPlayConfig,
};
use cat_dm::FlowModel;
use cat_nlu::{NluConfig, NluExample, NluPipeline};
use cat_policy::{CandidateSet, DataAwarePolicy, SimulatedUser, SimulationConfig, SlotSelector};
use cat_txdb::{Database, Value};

use crate::stats::{mean, median, percentile, Metrics};
use crate::user::{Dialogue, Kind};
use crate::workload::{
    booking_present, expected_booking, key_of, lookup_found_target, table_of, Booking, Goal,
    GoalDrawer, Workload,
};

/// `Database::call`s timed after the dialogues.
const CALLS: usize = 40;
/// Minimum repetitions and time budget of the cold full-table `choose`.
const CHOOSE_FULL_REPS: usize = 3;
const CHOOSE_FULL_BUDGET: Duration = Duration::from_millis(1000);
/// Time budget of the identification replay.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Time the synthesis stages `CatBuilder::synthesize` runs, each called
/// again with the inputs synthesis used: `db` is the synthesized agent's
/// database, annotations applied and data loaded. Returns the hash of the
/// training examples.
pub fn time_stages(w: Workload, db: &Database, m: &mut Metrics) -> u64 {
    let templates = w.annotation_file().template_set();
    let tasks = extract_tasks(db);
    let (nlu_data, nlu_data_s) =
        timed(|| generate_nlu_data(db, &tasks, &templates, &DataGenConfig::default()));
    let (gazetteer, gazetteer_s) = timed(|| build_gazetteer(db, &templates));
    let (nlu, nlu_train_s) =
        timed(|| NluPipeline::train_with(&nlu_data, gazetteer, NluConfig::default()));
    let (flows, selfplay_s) = timed(|| simulate_flows(&tasks, &SelfPlayConfig::default()));
    let (flow_model, dm_train_s) = timed(|| FlowModel::train(&flows));
    std::hint::black_box((nlu, flow_model));
    m.add("datagen.nlu_data_s", nlu_data_s, "s");
    m.add("datagen.gazetteer_s", gazetteer_s, "s");
    m.add("datagen.selfplay_s", selfplay_s, "s");
    m.add("datagen.nlu_examples", nlu_data.len() as f64, "count");
    m.add("nlu.train_s", nlu_train_s, "s");
    m.add("dm.train_s", dm_train_s, "s");
    hash_examples(&nlu_data)
}

/// FNV-1a over the training examples in the order synthesis produced
/// them: text, intent and slot spans.
fn hash_examples(examples: &[NluExample]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes.iter().chain(&[0xff]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for e in examples {
        feed(e.text.as_bytes());
        feed(e.intent.as_bytes());
        for s in &e.slots {
            feed(s.slot.as_bytes());
            feed(&s.start.to_le_bytes());
            feed(&s.end.to_le_bytes());
            feed(s.value.as_bytes());
        }
    }
    h
}

/// Print this run's synthesis fingerprint and flag any earlier run of the
/// same workload and seed, recorded in `dir/fingerprints.tsv`, that
/// synthesized a different agent. Flagging never fails the run: the
/// spread is real and the bounds are sized for it.
pub fn fingerprint(workload: &str, seed: u64, counts: &[usize], hash: Option<u64>, dir: &Path) {
    let hash = hash.map_or_else(|| "-".to_string(), |h| format!("{h:016x}"));
    println!(
        "fingerprint {workload} seed {seed}: datagen.nlu_examples {counts:?} examples_hash {hash}"
    );
    if counts.iter().any(|c| *c != counts[0]) {
        println!("FLAG: set-ups of one run synthesized different agents: nlu_examples {counts:?}");
    }
    let log = dir.join("fingerprints.tsv");
    let earlier = std::fs::read_to_string(&log).unwrap_or_default();
    for line in earlier.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let [w, s, c, h] = f[..] else { continue };
        if w != workload || s != seed.to_string() {
            continue;
        }
        let count_differs = c.parse::<usize>().is_ok_and(|c| c != counts[0]);
        let hash_differs = h != "-" && hash != "-" && h != hash;
        if count_differs || hash_differs {
            println!(
                "FLAG: seed {seed} synthesized a different agent in an earlier run \
                 (nlu_examples {c} vs {}, examples_hash {h} vs {hash})",
                counts[0]
            );
            break;
        }
    }
    let _ = std::fs::create_dir_all(dir);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
    {
        let _ = writeln!(f, "{workload}\t{seed}\t{}\t{hash}", counts[0]);
    }
}

/// The layers measured on the last agent of a traced run, after its
/// dialogues: `Database::call` timings, then the policy's.
pub fn after_dialogues(
    w: Workload,
    agent: &mut ConversationalAgent,
    seed: u64,
    traced_goals: &[Goal],
    bookings: &mut Vec<Booking>,
    m: &mut Metrics,
) -> Result<(), String> {
    let calls = time_calls(w, agent, seed, bookings)?;
    m.add("txdb.call_ms.p50", median(&calls), "ms");
    m.add("txdb.call_ms.p95", percentile(&calls, 95.0), "ms");
    policy_layers(w, agent, traced_goals, seed, m)
}

/// Time `Database::call` of the workload's procedure on the agent's
/// database. Bookings go to fresh (customer, screening) pairs and join
/// `bookings` for the durability check; lookups must return their row.
fn time_calls(
    w: Workload,
    agent: &mut ConversationalAgent,
    seed: u64,
    bookings: &mut Vec<Booking>,
) -> Result<Vec<f64>, String> {
    let drawer = GoalDrawer::new(w, agent.db());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xca11);
    let mut times = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        let goal = drawer.draw(agent.db(), &mut rng).goal;
        let db = agent.db();
        // Rendered text, as the agent passes its bound values.
        let args: Vec<(String, Value)> = goal
            .targets
            .iter()
            .map(|(param, rid)| (param.clone(), key_of(db, table_of(param), *rid).render()))
            .chain(goal.scalars.iter().cloned())
            .map(|(param, value)| (param, Value::Text(value)))
            .collect();
        let booking = w.is_booking().then(|| expected_booking(db, &goal));
        let (outcome, secs) = timed(|| agent.db_mut().call(w.task(), &args));
        let outcome = outcome.map_err(|e| format!("call {}: {e}", w.task()))?;
        times.push(secs * 1e3);
        let ok = match booking {
            Some(b) => {
                let present = booking_present(agent.db(), &b);
                bookings.push(b);
                present
            }
            None => lookup_found_target(agent.db(), &goal, &outcome)?,
        };
        if !ok {
            return Err(format!("call {} did not do what it was asked", w.task()));
        }
    }
    Ok(times)
}

/// Per-turn layers of the traced dialogues, and the tracing overhead
/// against the untraced ones of the same run.
pub fn dialogue_layers(traced: &[&Dialogue], untraced_ms: &[f64], m: &mut Metrics) {
    let n = traced.len().max(1) as f64;
    let parse_us: Vec<f64> = traced
        .iter()
        .flat_map(|d| d.turns.iter().filter_map(|t| t.parse_us))
        .collect();
    m.add("nlu.parse_us.p50", median(&parse_us), "us");
    m.add("nlu.parse_us.p95", percentile(&parse_us, 95.0), "us");
    let corrections: Vec<f64> = traced.iter().map(|d| d.corrections as f64).collect();
    m.add("nlu.corrections", mean(&corrections), "count/dialogue");
    for kind in Kind::ALL {
        let ms: Vec<f64> = traced
            .iter()
            .flat_map(|d| {
                d.turns
                    .iter()
                    .filter(|t| t.kind == kind)
                    .map(|t| t.respond_ms)
            })
            .collect();
        let name = kind.name();
        m.add(format!("core.turn_ms.{name}.p50"), median(&ms), "ms");
        m.add(
            format!("core.turn_ms.{name}.p95"),
            percentile(&ms, 95.0),
            "ms",
        );
        m.add(
            format!("core.turns.{name}"),
            ms.len() as f64 / n,
            "count/dialogue",
        );
    }
    let traced_ms: Vec<f64> = traced.iter().map(|d| d.agent_ms()).collect();
    let overhead = (median(&traced_ms) / median(untraced_ms) - 1.0) * 100.0;
    m.add("trace.overhead_pct", overhead, "%");
}

/// The policy's cache counters after the dialogues, a cold full-table
/// `choose`, and a replay of identification episodes for the run's
/// targets with `SimulatedUser`.
fn policy_layers(
    w: Workload,
    agent: &ConversationalAgent,
    goals: &[Goal],
    seed: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    let cache = &agent.policy().cache;
    let (hits, misses) = cache.stats();
    m.add("policy.cache_hits", hits as f64, "count");
    m.add("policy.cache_misses", misses as f64, "count");
    m.add("policy.hit_rate", cache.hit_rate(), "ratio");
    m.add("policy.cache_entries", cache.len() as f64, "count");

    let db = agent.db();
    let err = |e: cat_txdb::TxdbError| e.to_string();
    let full = CandidateSet::all(db, w.entity_table()).map_err(err)?;
    let mut cold = Vec::new();
    let start = Instant::now();
    while cold.len() < CHOOSE_FULL_REPS || start.elapsed() < CHOOSE_FULL_BUDGET {
        let mut policy = DataAwarePolicy::default();
        let (choice, secs) = timed(|| policy.choose(db, &full, &[]));
        std::hint::black_box(choice);
        cold.push(secs * 1e3);
    }
    m.add("policy.choose_full_ms", median(&cold), "ms");

    // One policy across the replay, as one agent serves many users.
    let config = SimulationConfig::default();
    let mut policy = DataAwarePolicy::default();
    let (mut choose_ms, mut refine_ms, mut candidates) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let targets = goals.iter().flat_map(|g| &g.goal.targets);
    for (i, (param, target)) in targets.enumerate() {
        if start.elapsed() > REPLAY_BUDGET {
            break;
        }
        let mut cs = CandidateSet::all(db, table_of(param)).map_err(err)?;
        let mut user = SimulatedUser::new(*target, seed ^ (i as u64).wrapping_mul(7919));
        let mut asked: Vec<String> = Vec::new();
        while cs.len() > config.offer_threshold && asked.len() < config.max_turns {
            candidates.push(cs.len() as f64);
            let (attr, secs) = timed(|| policy.choose(db, &cs, &asked));
            choose_ms.push(secs * 1e3);
            let Some(attr) = attr else { break };
            let key = attr.key();
            asked.push(key.clone());
            match user.answer(db, &attr).map_err(err)? {
                Some(value) => {
                    policy.record_outcome(&key, true);
                    let (n, secs) = timed(|| cs.refine(db, &attr, &value));
                    n.map_err(err)?;
                    refine_ms.push(secs * 1e3);
                }
                None => policy.record_outcome(&key, false),
            }
        }
    }
    m.add("policy.choose_ms.p50", median(&choose_ms), "ms");
    m.add("policy.choose_ms.p95", percentile(&choose_ms, 95.0), "ms");
    m.add("policy.refine_ms.p50", median(&refine_ms), "ms");
    m.add("policy.refine_ms.p95", percentile(&refine_ms, 95.0), "ms");
    m.add("policy.candidates.p50", median(&candidates), "count");
    Ok(())
}
