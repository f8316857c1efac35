//! # cat-policy — the data-aware dialogue policy (the paper's §4)
//!
//! The core runtime contribution of CAT: deciding *which attribute to ask
//! the user for next* when a transaction parameter requires uniquely
//! identifying a database entity (the screening to book, the customer
//! account, …).
//!
//! The decision combines, per candidate attribute:
//!
//! 1. **Informativeness** — Shannon entropy of the attribute over the
//!    *live candidate set* (the rows still matching everything the user
//!    said), including attributes of FK-joined tables ([`attribute`],
//!    [`candidates`], [`select::candidate_entropy`]);
//! 2. **User awareness** — a Beta-posterior estimate of whether the user
//!    can answer at all, seeded from schema annotations and updated online
//!    ([`awareness`]);
//! 3. **Developer annotations** — `AskPreference` weights from the schema
//!    (IDs are `Avoid`, paper Figure 4).
//!
//! Entropies are served from a version-checked [`cache::StatsCache`], the
//! "integrated caching strategy" behind the paper's millisecond latencies.
//! No retraining is needed when data changes: the candidate set and the
//! entropies are always computed against the live database.
//!
//! A cold entropy is computed straight from `Table` storage and the FK
//! hash indexes, not through the SQL planner. A joined attribute is
//! scored in whichever direction the table cardinalities price cheaper
//! ([`select::entropy_and_coverage`]): forward along the join path from
//! every candidate, or in reverse from the attribute table's value groups
//! back to the candidates they reach. A question about 50k customers'
//! movies thus costs the few hundred reservations that reach a movie,
//! not three index probes per customer. Both directions give
//! bit-identical scores, so the chosen question never depends on the
//! direction.
//!
//! [`simulate`] provides the identification-episode harness used by the
//! §4 experiments (data-aware vs [`select::StaticPolicy`] vs
//! [`select::RandomPolicy`]).

pub mod attribute;
pub mod awareness;
pub mod cache;
pub mod candidates;
pub mod explain;
pub mod select;
pub mod simulate;

pub use attribute::{enumerate_attributes, Attribute};
pub use awareness::AwarenessModel;
pub use cache::StatsCache;
pub use candidates::CandidateSet;
pub use explain::{render_explanations, AttributeExplanation};
pub use select::{
    candidate_entropy, weighted_entropy, DataAwareConfig, DataAwarePolicy, RandomPolicy,
    SlotSelector, StaticPolicy,
};
pub use simulate::{
    run_batch, run_identification, BatchResult, EpisodeResult, SimulatedUser, SimulationConfig,
};
