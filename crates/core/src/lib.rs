//! # cat-core — the CAT framework
//!
//! A Rust reproduction of *"Demonstrating CAT: Synthesizing Data-Aware
//! Conversational Agents for Transactional Databases"* (Gassen et al.,
//! VLDB 2022). Given an OLTP database, its transactions (stored
//! procedures) and a handful of natural-language templates, CAT
//! *synthesizes* a conversational agent:
//!
//! 1. **Offline** ([`builder::CatBuilder`]): the task model is extracted
//!    from the procedure definitions; NLU training data is rendered from
//!    templates filled with live database values (and augmented with
//!    paraphrases and typo noise); dialogue flows come from self-play; the
//!    NLU pipeline and the Markov flow model are trained on the result.
//! 2. **Runtime** ([`agent::ConversationalAgent`]): utterances go through
//!    NLU, state tracking and the *data-aware* identification policy —
//!    which attribute to ask next is decided from live entropies over the
//!    candidate set, joined tables included, weighted by learned user
//!    awareness — and confirmed tasks execute as ACID transactions.
//!
//! ```
//! use cat_core::{AnnotationFile, CatBuilder};
//! use cat_txdb::{Database, DataType, TableSchema, ParamDef, ProcOp, ParamExpr, Procedure, row};
//!
//! let mut db = Database::new();
//! db.create_table(
//!     TableSchema::builder("movie")
//!         .column("movie_id", DataType::Int)
//!         .column("title", DataType::Text)
//!         .primary_key(&["movie_id"])
//!         .build().unwrap(),
//! ).unwrap();
//! db.insert("movie", row![1, "Forrest Gump"]).unwrap();
//! db.register_procedure(
//!     Procedure::builder("movie_info")
//!         .param(ParamDef::entity("movie_id", DataType::Int, "movie", "movie_id"))
//!         .op(ProcOp::Select {
//!             table: "movie".into(),
//!             filter: vec![("movie_id".into(), ParamExpr::param("movie_id"))],
//!             columns: None,
//!         })
//!         .build().unwrap(),
//! ).unwrap();
//!
//! let annotations = AnnotationFile::parse(r#"
//! task movie_info
//!   request "tell me about a movie"
//! slot movie_title source=movie.title
//!   inform "the movie is {movie_title}"
//! "#).unwrap();
//!
//! let (mut agent, report) = CatBuilder::new(db)
//!     .with_annotations(&annotations).unwrap()
//!     .synthesize();
//! assert_eq!(report.n_tasks, 1);
//! let reply = agent.respond("tell me about a movie");
//! assert!(!reply.text.is_empty());
//! ```

pub mod agent;
pub mod annotation;
pub mod builder;
pub mod harness;

pub use agent::{AgentResponse, ConversationalAgent};
pub use annotation::{
    AnnotationError, AnnotationFile, ColumnAnnotation, SlotAnnotationDecl, TableAnnotation,
    TaskAnnotation,
};
pub use builder::{create_identification_indexes, CatBuilder, SynthesisReport};
pub use harness::{
    random_cinema_goal, reservation_exists_for, run_nl_batch, run_nl_dialogue, BatchOutcome,
    DialogueOutcome, NlUserConfig, UserGoal,
};
