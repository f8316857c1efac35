//! `CatBuilder` — the synthesis pipeline (the left half of the paper's
//! Figure 2): schema + transactions + a few templates in, a trained,
//! database-integrated conversational agent out.

use cat_datagen::{
    build_gazetteer, extract_tasks, generate_nlu_data, simulate_flows, DataGenConfig,
    SelfPlayConfig, TaskSpec, TemplateSet,
};
use cat_dm::FlowModel;
use cat_nlu::{NluConfig, NluPipeline};
use cat_policy::{DataAwareConfig, DataAwarePolicy};
use cat_txdb::{AskPreference, Database};

use crate::agent::ConversationalAgent;
use crate::annotation::{AnnotationError, AnnotationFile};

/// Summary of what the synthesis produced (reported to the developer and
/// asserted on by tests).
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisReport {
    pub n_tasks: usize,
    pub n_nlu_examples: usize,
    pub n_flows: usize,
    pub n_gazetteer_slots: usize,
    pub intents: Vec<String>,
}

/// Builder for synthesizing a [`ConversationalAgent`].
pub struct CatBuilder {
    db: Database,
    templates: TemplateSet,
    datagen: DataGenConfig,
    selfplay: SelfPlayConfig,
    nlu: NluConfig,
    policy: DataAwareConfig,
    seed: u64,
}

impl CatBuilder {
    /// Start from a database with registered procedures.
    pub fn new(db: Database) -> CatBuilder {
        CatBuilder {
            db,
            templates: TemplateSet::new(),
            datagen: DataGenConfig::default(),
            selfplay: SelfPlayConfig::default(),
            nlu: NluConfig::default(),
            policy: DataAwareConfig::default(),
            seed: 42,
        }
    }

    /// Provide templates programmatically.
    pub fn with_templates(mut self, templates: TemplateSet) -> CatBuilder {
        self.templates = templates;
        self
    }

    /// Apply an annotation file: column annotations onto the schema,
    /// task/slot templates into the template set.
    pub fn with_annotations(
        mut self,
        file: &AnnotationFile,
    ) -> Result<CatBuilder, AnnotationError> {
        file.apply_to(&mut self.db)?;
        let ts = file.template_set();
        // Merge (annotation templates extend any programmatic ones).
        for (task, reqs) in ts.request {
            for r in reqs {
                self.templates.add_request(&task, &r);
            }
        }
        for (slot, informs) in ts.inform {
            for i in informs {
                self.templates.add_inform(&slot, &i);
            }
        }
        for (slot, source) in ts.sources {
            self.templates.add_source(&slot, source);
        }
        Ok(self)
    }

    /// Override data-generation parameters.
    pub fn with_datagen_config(mut self, cfg: DataGenConfig) -> CatBuilder {
        self.datagen = cfg;
        self
    }

    /// Override self-play parameters.
    pub fn with_selfplay_config(mut self, cfg: SelfPlayConfig) -> CatBuilder {
        self.selfplay = cfg;
        self
    }

    /// Override NLU pipeline parameters.
    pub fn with_nlu_config(mut self, cfg: NluConfig) -> CatBuilder {
        self.nlu = cfg;
        self
    }

    /// Override the data-aware policy configuration (ablations).
    pub fn with_policy_config(mut self, cfg: DataAwareConfig) -> CatBuilder {
        self.policy = cfg;
        self
    }

    /// Master seed for all stochastic steps.
    pub fn with_seed(mut self, seed: u64) -> CatBuilder {
        self.seed = seed;
        self
    }

    /// Run the full synthesis: extract tasks, generate + train NLU,
    /// self-play + train DM, wire the data-aware policy, build the
    /// identification indexes, and bind the agent to the database.
    pub fn synthesize(mut self) -> (ConversationalAgent, SynthesisReport) {
        let tasks = extract_tasks(&self.db);
        create_identification_indexes(&mut self.db, &tasks);
        let nlu_data = generate_nlu_data(&self.db, &tasks, &self.templates, &self.datagen);
        let gazetteer = build_gazetteer(&self.db, &self.templates);
        let n_gazetteer_slots = gazetteer.slots().len();
        let nlu = NluPipeline::train_with(&nlu_data, gazetteer, self.nlu.clone());
        let flows = simulate_flows(&tasks, &self.selfplay);
        let flow_model = FlowModel::train(&flows);
        let mut intents: Vec<String> = nlu_data.iter().map(|e| e.intent.clone()).collect();
        intents.sort();
        intents.dedup();
        let report = SynthesisReport {
            n_tasks: tasks.len(),
            n_nlu_examples: nlu_data.len(),
            n_flows: flows.len(),
            n_gazetteer_slots,
            intents,
        };
        let agent = ConversationalAgent::assemble(
            self.db,
            tasks,
            self.templates,
            nlu,
            flow_model,
            DataAwarePolicy::new(self.policy),
            self.seed,
        );
        (agent, report)
    }
}

/// A column whose distinct values reach this share of its non-null rows
/// gets no identification index. Such a near-unique column (a phone
/// number) would cost about one bucket per row, and one answer narrows
/// the candidates to a handful, which a walk refines cheaply.
const NEAR_UNIQUE_SHARE: f64 = 0.9;

/// Build the identification indexes: a hash index on every askable local
/// column (`ask != Never`, not a foreign key) of each table a task
/// parameter identifies, unless the column is already indexed (a primary
/// key or UNIQUE column) or near-unique (see [`NEAR_UNIQUE_SHARE`]). Each
/// table is scanned once for all of its columns. The indexes serve the
/// identification reads of the live candidate set (refine, full-table
/// entropy and inventory, exact answers) without changing any of their
/// results. They are built on the live tables, not through
/// [`Database::create_index`]: nothing is logged, so the write-ahead log
/// and a reopen stay as they were, and the agent rebuilds them at its
/// next synthesis. Returns the indexed `(table, column)` pairs.
pub fn create_identification_indexes(
    db: &mut Database,
    tasks: &[TaskSpec],
) -> Vec<(String, String)> {
    let mut tables: Vec<String> = tasks
        .iter()
        .flat_map(|task| &task.params)
        .filter_map(|param| param.entity.as_ref().map(|(table, _)| table.clone()))
        .collect();
    tables.sort_unstable();
    tables.dedup();
    let mut created = Vec::new();
    for table in tables {
        let Ok(t) = db.table_mut(&table) else {
            continue;
        };
        let schema = t.schema();
        let columns: Vec<String> = schema
            .columns()
            .iter()
            .filter(|c| c.ask != AskPreference::Never)
            .filter(|c| schema.foreign_key_on(&c.name).is_none() && !t.has_index(&c.name))
            .map(|c| c.name.clone())
            .collect();
        let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
        let kept = t
            .create_indexes(&columns, |distinct, non_null| {
                (distinct as f64) < NEAR_UNIQUE_SHARE * non_null as f64
            })
            .expect("the table's own, distinct, unindexed columns");
        created.extend(kept.into_iter().map(|column| (table.clone(), column)));
    }
    created
}

impl std::fmt::Debug for CatBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CatBuilder")
            .field("tables", &self.db.table_names().len())
            .field("seed", &self.seed)
            .finish()
    }
}
