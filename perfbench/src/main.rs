//! Turn-latency benchmark for synthesized CAT agents.
//!
//! Seeded simulated users speak natural language to
//! `ConversationalAgent::respond` after `CatBuilder::synthesize`, one user
//! at a time, in a closed loop on one thread. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports per-layer metrics, timed around the benchmark's
//! own calls into each crate and read from counters the crates expose.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload booking_cinema_200_typos --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A dialogue fails when a check
//! finds a wrong output in it; a goal the dialogue did not reach is not a
//! failure but lowers `task_success`. The exit code is 1 when an output or
//! durability check failed. Data directories and the synthesis
//! fingerprint log live under `.bench_tmp/` in the working directory.

mod layers;
mod stats;
mod user;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use cat_core::ConversationalAgent;
use cat_txdb::Database;

use stats::{mean, median, percentile, Metrics};
use user::{run_dialogue, Dialogue};
use workload::{
    booking_present, expected_booking, lookup_found_target, Booking, Goal, GoalDrawer, Workload,
    WORKLOADS,
};

/// Agents synthesized per run, at least: `setup_s` is the median of
/// their set-ups.
const MIN_AGENTS: usize = 3;
const SCRATCH: &str = ".bench_tmp";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or(format!(
                    "unknown workload `{value}`; known: {}",
                    WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
                ))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A data directory removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(workload: &str, n: usize) -> Result<ScratchDir, String> {
        let path = Path::new(SCRATCH).join(format!("{workload}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {path:?}: {e}"))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The dialogues of one run, pooled over its agents.
#[derive(Default)]
struct Record {
    dialogues: Vec<Dialogue>,
    /// Whether each dialogue's goal verifiably happened.
    verified: Vec<bool>,
    /// Whether a check found a wrong output in each dialogue.
    wrong: Vec<bool>,
    /// Whether each dialogue was traced.
    traced: Vec<bool>,
    /// Time spent in dialogues (set-ups excluded).
    elapsed_s: f64,
    /// Closed-loop time of each dialogue, simulated user included.
    wall_ms: Vec<f64>,
    /// Wrong outputs: log records that do not match a turn, lookup rows
    /// that are not stored, bookings lost across a reopen.
    errors: Vec<String>,
}

impl Record {
    fn attempted(&self) -> usize {
        self.dialogues.len()
    }

    fn failed(&self) -> usize {
        self.wrong.iter().filter(|w| **w).count()
    }

    fn succeeded(&self) -> usize {
        self.verified.iter().filter(|v| **v).count()
    }

    /// The traced dialogues and the untraced ones.
    fn split_by_trace(&self) -> (Vec<&Dialogue>, Vec<&Dialogue>) {
        let mut split = (Vec::new(), Vec::new());
        for (d, &traced) in self.dialogues.iter().zip(&self.traced) {
            if traced {
                split.0.push(d);
            } else {
                split.1.push(d);
            }
        }
        split
    }
}

/// What one agent's batch leaves for the checks after it.
struct Batch {
    /// Committed bookings the durability check must find again.
    bookings: Vec<Booking>,
    /// Goals of the traced dialogues.
    traced_goals: Vec<Goal>,
}

/// Serve the workload's batch of dialogues with one agent, one user at a
/// time, checking each outcome. With `trace`, every other dialogue is
/// traced; the rest give the untraced baseline of `trace.overhead_pct`.
fn serve(
    w: Workload,
    agent: &mut ConversationalAgent,
    seed: u64,
    trace: bool,
    rec: &mut Record,
) -> Batch {
    let drawer = GoalDrawer::new(w, agent.db());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Batch {
        bookings: Vec::new(),
        traced_goals: Vec::new(),
    };
    let start = Instant::now();
    for i in 0..w.dialogues_per_agent {
        let goal = drawer.draw(agent.db(), &mut rng);
        let traced = trace && i % 2 == 0;
        let user_seed = seed ^ (i as u64).wrapping_mul(2_654_435_761);
        let t = Instant::now();
        let d = run_dialogue(
            agent,
            &goal.goal,
            &goal.opening,
            w.p_misspell,
            user_seed,
            traced,
        );
        rec.wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let errors_before = rec.errors.len();
        rec.errors.extend(d.wal_mismatches.iter().cloned());
        let db = agent.db();
        let verified = if w.is_booking() {
            let booking = expected_booking(db, &goal.goal);
            let ok = booking_present(db, &booking);
            if ok {
                batch.bookings.push(booking);
            }
            ok
        } else {
            d.executed.as_ref().is_some_and(|outcome| {
                lookup_found_target(db, &goal.goal, outcome).unwrap_or_else(|e| {
                    rec.errors.push(e);
                    false
                })
            })
        };
        rec.dialogues.push(d);
        rec.verified.push(verified);
        rec.wrong.push(rec.errors.len() > errors_before);
        rec.traced.push(traced);
        if traced {
            batch.traced_goals.push(goal);
        }
    }
    rec.elapsed_s += start.elapsed().as_secs_f64();
    batch
}

/// Drop the agent, reopen its data directory and find every committed
/// booking again.
fn check_durability(
    agent: ConversationalAgent,
    dir: &Path,
    bookings: &[Booking],
) -> Result<(), String> {
    let live_rows = agent
        .db()
        .table("reservation")
        .map_err(|e| e.to_string())?
        .len();
    drop(agent);
    let db = Database::open(dir).map_err(|e| format!("reopen {dir:?}: {e}"))?;
    let reopened_rows = db.table("reservation").map_err(|e| e.to_string())?.len();
    if reopened_rows != live_rows {
        return Err(format!(
            "durability: {live_rows} reservations before reopen, {reopened_rows} after"
        ));
    }
    let missing = bookings.iter().filter(|b| !booking_present(&db, b)).count();
    if missing > 0 {
        return Err(format!(
            "durability: {missing} of {} verified bookings missing after reopen",
            bookings.len()
        ));
    }
    Ok(())
}

/// Synthesize fresh agents and serve a batch with each until the
/// dialogues have taken `--seconds`. A fixed batch per agent keeps what
/// the agent learns online (user awareness, cached entropies, booked
/// seats) on the same trajectory however fast the machine is.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let mut rec = Record::default();
    let mut setup_times = Vec::new();
    let mut example_counts = Vec::new();
    let mut examples_hash = None;
    // Per-layer metrics: set-up layers of the first agent, post-dialogue
    // layers of the last.
    let mut first = Metrics::default();
    let mut last = Metrics::default();
    let mut n = 0;
    while n < MIN_AGENTS || rec.elapsed_s < args.seconds {
        let dir = ScratchDir::new(w.name, n)?;
        let mut setup = w.setup(&dir.0)?;
        setup_times.push(setup.total_s);
        example_counts.push(setup.report.n_nlu_examples);
        if args.trace && n == 0 {
            first.add("corpus.generate_s", setup.generate_s, "s");
            first.add("txdb.load_s", setup.load_s, "s");
            examples_hash = Some(layers::time_stages(w, setup.agent.db(), &mut first));
        }
        let seed = args.seed ^ (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let before = rec.attempted();
        let mut batch = serve(w, &mut setup.agent, seed, args.trace, &mut rec);
        let ok = rec.verified[before..].iter().filter(|v| **v).count();
        let turns: usize = rec.dialogues[before..].iter().map(|d| d.turns.len()).sum();
        let ms: Vec<f64> = rec.dialogues[before..]
            .iter()
            .map(Dialogue::agent_ms)
            .collect();
        println!(
            "agent {n}: nlu_examples {}, {ok}/{} goals met, {:.2} turns and {:.3} ms per dialogue (median)",
            setup.report.n_nlu_examples,
            rec.attempted() - before,
            turns as f64 / (rec.attempted() - before) as f64,
            median(&ms),
        );
        n += 1;
        if args.trace && n >= MIN_AGENTS && rec.elapsed_s >= args.seconds {
            layers::after_dialogues(
                w,
                &mut setup.agent,
                seed,
                &batch.traced_goals,
                &mut batch.bookings,
                &mut last,
            )
            .unwrap_or_else(|e| rec.errors.push(e));
        }
        if let Some(data_dir) = setup.data_dir.take() {
            if let Err(e) = check_durability(setup.agent, &data_dir, &batch.bookings) {
                rec.errors.push(e);
            }
        }
    }
    layers::fingerprint(
        w.name,
        args.seed,
        &example_counts,
        examples_hash,
        Path::new(SCRATCH),
    );

    let mut metrics = Metrics::default();
    if args.trace {
        metrics.extend(first);
        let verified_wal: Vec<f64> = rec
            .dialogues
            .iter()
            .zip(&rec.verified)
            .filter_map(|(d, ok)| ok.then_some(d.wal_records as f64))
            .collect();
        metrics.add("txdb.wal_records_per_booking", mean(&verified_wal), "count");
        let (traced, untraced) = rec.split_by_trace();
        let untraced_ms: Vec<f64> = untraced.into_iter().map(Dialogue::agent_ms).collect();
        layers::dialogue_layers(&traced, &untraced_ms, &mut metrics);
        metrics.extend(last);
    } else {
        let dialogue_ms: Vec<f64> = rec.dialogues.iter().map(Dialogue::agent_ms).collect();
        let turn_ms: Vec<f64> = rec
            .dialogues
            .iter()
            .flat_map(|d| d.turns.iter().map(|t| t.respond_ms))
            .collect();
        let turns: Vec<f64> = rec.dialogues.iter().map(|d| d.turns.len() as f64).collect();
        let attempted = rec.attempted() as f64;
        metrics.add("setup_s", median(&setup_times), "s");
        metrics.add("dialogue_ms.p50", median(&dialogue_ms), "ms");
        // Not p90: a few in a hundred 50k-customer dialogues score two
        // cold questions, so a run's p90 jumps between two modes.
        metrics.add("dialogue_ms.p75", percentile(&dialogue_ms, 75.0), "ms");
        metrics.add("turn_ms.p95", percentile(&turn_ms, 95.0), "ms");
        // The median dialogue's rate: a rare multi-second clarify would
        // move a run's dialogue count over its time by a quarter.
        metrics.add("dialogues_per_s", 1e3 / median(&rec.wall_ms), "1/s");
        metrics.add("turns_per_dialogue", mean(&turns), "count");
        metrics.add("task_success", rec.succeeded() as f64 / attempted, "ratio");
        metrics.add("peak_rss_mb", stats::peak_rss_mb()?, "MB");
    }

    let correct = rec.errors.is_empty();
    for e in rec.errors.iter().take(10) {
        eprintln!("perfbench: check failed: {e}");
    }
    println!(
        "{} seed {} trace {}: {} agents, {} dialogues ({} verified) in {:.2} s; set-ups {:?} s",
        w.name,
        args.seed,
        u8::from(args.trace),
        n,
        rec.attempted(),
        rec.succeeded(),
        rec.elapsed_s,
        setup_times,
    );
    print!("{}", metrics.table());
    println!(
        "{}",
        metrics.result_json(correct, rec.attempted(), rec.failed())
    );
    Ok(correct)
}
