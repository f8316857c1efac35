//! The runtime conversational agent: NLU → state tracking → data-aware
//! identification → confirmation → transactional execution (the right
//! half of the paper's Figure 2).

use cat_datagen::{TaskSpec, TemplateSet, ValueSource};
use cat_dm::{AgentAct, DialogueState, FlowModel, Phase, UserAct};
use cat_nlg::SurfaceRealizer;
use cat_nlu::fuzzy::best_match;
use cat_nlu::{NluPipeline, NluResult};
use cat_policy::{Attribute, CandidateSet, DataAwarePolicy, SimulationConfig, SlotSelector};
use cat_txdb::{join_path, Database, ProcOutcome, Result, RowId, TxdbError, Value};

/// Everything the agent says back for one user turn.
#[derive(Debug, Clone)]
pub struct AgentResponse {
    /// The natural-language reply.
    pub text: String,
    /// The abstract action label (e.g. `a:identify_entity`) — what the
    /// dialogue-flow layer sees.
    pub action: String,
    /// When a transaction was executed this turn, its outcome.
    pub executed: Option<ProcOutcome>,
    /// Misspelling corrections applied to the user's values (raw, used).
    pub corrections: Vec<(String, String)>,
}

/// Identification sub-dialogue state for one entity parameter. A dialogue
/// can hold several at once: a user booking tickets may volunteer the
/// movie title (constraining the screening) while the agent is still
/// identifying their customer account.
#[derive(Debug, Clone)]
struct IdentContext {
    param: String,
    table: String,
    key_column: String,
    cs: CandidateSet,
    asked: Vec<String>,
    /// The attribute the agent just asked about (free-text answers are
    /// resolved against its value inventory).
    pending: Option<Attribute>,
    /// Offered options (display text, row id) awaiting a pick.
    offering: Option<Vec<(String, RowId)>>,
}

/// A fully synthesized conversational agent bound to its database.
pub struct ConversationalAgent {
    db: Database,
    tasks: Vec<TaskSpec>,
    templates: TemplateSet,
    nlu: NluPipeline,
    flow_model: FlowModel,
    policy: DataAwarePolicy,
    surface: SurfaceRealizer,
    state: DialogueState,
    idents: Vec<IdentContext>,
    /// Which identification context the last question belongs to.
    active_ident: Option<String>,
    sim: SimulationConfig,
    transcript: Vec<(String, String)>,
}

impl ConversationalAgent {
    /// Assemble an agent from its trained parts (used by `CatBuilder`).
    pub fn assemble(
        db: Database,
        tasks: Vec<TaskSpec>,
        templates: TemplateSet,
        nlu: NluPipeline,
        flow_model: FlowModel,
        policy: DataAwarePolicy,
        seed: u64,
    ) -> ConversationalAgent {
        ConversationalAgent {
            db,
            tasks,
            templates,
            nlu,
            flow_model,
            policy,
            surface: SurfaceRealizer::new(seed),
            state: DialogueState::new(),
            idents: Vec::new(),
            active_ident: None,
            sim: SimulationConfig::default(),
            transcript: Vec::new(),
        }
    }

    /// Read-only access to the live database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access (e.g. to apply data drift between dialogues; the
    /// data-aware policy adapts without retraining).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The extracted task model.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// The learned dialogue-flow model (for inspection/evaluation).
    pub fn flow_model(&self) -> &FlowModel {
        &self.flow_model
    }

    /// The data-aware policy (for inspection: cache stats, awareness).
    pub fn policy(&self) -> &DataAwarePolicy {
        &self.policy
    }

    /// The trained NLU pipeline (for inspection/evaluation).
    pub fn nlu(&self) -> &NluPipeline {
        &self.nlu
    }

    /// The attribute key of the question currently awaiting an answer
    /// (identification questions only), e.g. `movie.title`.
    pub fn pending_question_key(&self) -> Option<String> {
        let param = self.active_ident.as_ref()?;
        let ident = self.idents.iter().find(|c| &c.param == param)?;
        ident.pending.as_ref().map(|a| a.key())
    }

    /// The options currently offered to the user (label, row id), if the
    /// last agent turn was an offer.
    pub fn pending_options(&self) -> Option<Vec<(String, RowId)>> {
        let param = self.active_ident.as_ref()?;
        let ident = self.idents.iter().find(|c| &c.param == param)?;
        ident.offering.clone()
    }

    /// The table being identified by the active identification context.
    pub fn active_identification_table(&self) -> Option<String> {
        let param = self.active_ident.as_ref()?;
        self.idents
            .iter()
            .find(|c| &c.param == param)
            .map(|c| c.table.clone())
    }

    /// Export the learned user-awareness observations (persist across
    /// sessions; see [`cat_policy::AwarenessModel::export`]).
    pub fn export_awareness(&self) -> Vec<(String, f64, f64)> {
        self.policy.awareness.export()
    }

    /// Merge previously exported awareness observations into this agent.
    pub fn import_awareness(&mut self, rows: &[(String, f64, f64)]) {
        self.policy.awareness.import(rows);
    }

    /// Transcript of the session so far as (speaker, text).
    pub fn transcript(&self) -> &[(String, String)] {
        &self.transcript
    }

    /// Reset the dialogue session (keeps models, database and learned
    /// awareness).
    pub fn reset_session(&mut self) {
        self.state = DialogueState::new();
        self.idents.clear();
        self.active_ident = None;
        self.transcript.clear();
    }

    /// What the learned flow model would do next (advisory / evaluation).
    pub fn suggest_next_action(&self) -> (String, f64) {
        self.flow_model.predict(&self.state.history_labels())
    }

    /// Process one user utterance and produce the agent's reply.
    pub fn respond(&mut self, user_text: &str) -> AgentResponse {
        self.transcript.push(("user".into(), user_text.to_string()));
        let parsed = self.nlu.parse(user_text);
        let mut corrections: Vec<(String, String)> = parsed
            .slots
            .iter()
            .filter(|s| s.raw.to_lowercase() != s.value.to_lowercase() && s.confidence < 1.0)
            .map(|s| (s.raw.clone(), s.value.clone()))
            .collect();

        let response = self.handle(user_text, &parsed, &mut corrections);
        let mut response = match response {
            Ok(r) => r,
            Err(e) => {
                let text = self.surface.report_failure(&e.to_string());
                self.state.observe_agent(&AgentAct::ReportFailure);
                AgentResponse {
                    text,
                    action: "a:report_failure".into(),
                    executed: None,
                    corrections: Vec::new(),
                }
            }
        };
        if !corrections.is_empty() {
            let notes: Vec<String> = corrections
                .iter()
                .map(|(raw, used)| self.surface.note_correction(raw, used))
                .collect();
            response.text = format!("{} {}", notes.join(" "), response.text);
            response.corrections = corrections;
        }
        self.transcript
            .push(("agent".into(), response.text.clone()));
        response
    }

    // ----- internal dialogue logic -----

    fn handle(
        &mut self,
        user_text: &str,
        parsed: &NluResult,
        corrections: &mut Vec<(String, String)>,
    ) -> Result<AgentResponse> {
        let intent = parsed.intent.as_str();

        // Task-independent intents first.
        if let Some(task_name) = intent.strip_prefix("request_") {
            self.state.observe_user(&UserAct::RequestTask {
                task: task_name.to_string(),
            });
            self.idents.clear();
            self.active_ident = None;
            self.apply_slots(parsed)?;
            return self.advance();
        }
        match intent {
            "greet" => {
                self.state.observe_user(&UserAct::Greet);
                if self.state.task.is_some() {
                    return self.advance();
                }
                let text = self.surface.greeting();
                self.state.observe_agent(&AgentAct::Greet);
                return Ok(self.reply(text, "a:greet"));
            }
            "bye" => {
                self.state.observe_user(&UserAct::Bye);
                let text = self.surface.goodbye();
                self.state.observe_agent(&AgentAct::Bye);
                return Ok(self.reply(text, "a:bye"));
            }
            "thank" => {
                self.state.observe_user(&UserAct::Thank);
                let text = self.surface.you_are_welcome();
                return Ok(self.reply(text, "a:bye"));
            }
            "abort" => {
                self.state.observe_user(&UserAct::Abort);
                self.idents.clear();
                self.active_ident = None;
                let text = self.surface.acknowledge_abort();
                self.state.observe_agent(&AgentAct::AcknowledgeAbort);
                return Ok(self.reply(text, "a:acknowledge_abort"));
            }
            "affirm" if self.state.phase == Phase::Confirming => {
                self.state.observe_user(&UserAct::Affirm);
                return self.execute_task();
            }
            "deny" if self.state.phase == Phase::Confirming => {
                self.state.observe_user(&UserAct::Deny);
                let text = "OK, what should I change?".to_string();
                return Ok(self.reply(text, "a:clarify"));
            }
            "cannot_answer" => {
                self.state.observe_user(&UserAct::CannotAnswer);
                if let Some(ident) = self.active_context_mut() {
                    if let Some(attr) = ident.pending.take() {
                        let key = attr.key();
                        ident.asked.push(key.clone());
                        self.policy.record_outcome(&key, false);
                    }
                }
                return self.advance();
            }
            _ => {}
        }

        // Slot-bearing or free-text input while a task is active.
        if self.state.task.is_none() {
            self.state.observe_user(&UserAct::Unknown);
            let text = self.surface.clarify();
            self.state.observe_agent(&AgentAct::Clarify);
            return Ok(self.reply(text, "a:clarify"));
        }
        self.state.observe_user(&UserAct::Inform {
            slots: parsed.slots.iter().map(|s| s.slot.clone()).collect(),
        });
        // An open offer takes precedence: "1" is a pick, not a ticket count.
        if self.try_offer_pick(user_text)? {
            return self.advance();
        }
        let any_applied = self.apply_slots(parsed)?;
        if !any_applied {
            // Try resolving free text against the pending question.
            if !self.try_pending_answer(user_text, corrections)?
                && !self.try_offer_pick(user_text)?
            {
                // If a scalar slot was pending, take the raw text.
                if let Some(pending) = self.state.pending_param.clone() {
                    if self.scalar_param(&pending).is_some() {
                        let v = user_text.trim().to_string();
                        if self.validate_scalar(&pending, &v) {
                            self.state.bind(&pending, v);
                            return self.advance();
                        }
                    }
                }
                let text = self.surface.clarify();
                self.state.observe_agent(&AgentAct::Clarify);
                return Ok(self.reply(text, "a:clarify"));
            }
        }
        self.advance()
    }

    fn context_mut(&mut self, param: &str) -> Option<&mut IdentContext> {
        self.idents.iter_mut().find(|c| c.param == param)
    }

    fn active_context_mut(&mut self) -> Option<&mut IdentContext> {
        let param = self.active_ident.clone()?;
        self.context_mut(&param)
    }

    /// Apply parsed slots: scalars bind directly; column-backed slots
    /// become identification constraints on the entity parameter with the
    /// shortest FK path to the slot's table. Returns whether anything
    /// applied.
    fn apply_slots(&mut self, parsed: &NluResult) -> Result<bool> {
        let Some(task_name) = self.state.task.clone() else {
            return Ok(false);
        };
        let Some(task) = self.tasks.iter().find(|t| t.name == task_name).cloned() else {
            return Ok(false);
        };
        let mut applied = false;
        for slot in &parsed.slots {
            // Scalar parameter with the same name?
            if task
                .param(&slot.slot)
                .is_some_and(|p| !p.needs_identification())
            {
                if self.validate_scalar(&slot.slot, &slot.value) {
                    self.state.bind(&slot.slot, slot.value.clone());
                    applied = true;
                }
                continue;
            }
            // Column-backed slot -> constraint on some entity parameter.
            let Some(ValueSource::Column { table, column }) =
                self.templates.sources.get(&slot.slot).cloned()
            else {
                continue;
            };
            // Candidate entity params: unbound, reachable; prefer the
            // shortest join path (a movie title constrains the screening
            // via one hop, not the customer via three).
            let target = task
                .params
                .iter()
                .filter(|p| p.needs_identification())
                .filter(|p| !self.state.bound.contains_key(&p.name))
                .filter_map(|p| {
                    let (etable, _) = p.entity.as_ref().expect("entity param");
                    join_path(&self.db, etable, &table).map(|path| (p.clone(), path))
                })
                .min_by_key(|(_, path)| path.len());
            let Some((param, path)) = target else {
                continue;
            };
            self.ensure_ident(&task, &param.name)?;
            let attr = Attribute {
                table: table.clone(),
                column: column.clone(),
                path,
            };
            let col_ty = self
                .db
                .table(&table)?
                .schema()
                .column(&column)
                .map(|c| c.ty)
                .unwrap_or(cat_txdb::DataType::Text);
            let value =
                Value::parse_as(col_ty, &slot.value).unwrap_or(Value::Text(slot.value.clone()));
            let db = &self.db;
            let ident = self
                .idents
                .iter_mut()
                .find(|c| c.param == param.name)
                .expect("ensured above");
            // Apply tentatively: a volunteered value that matches *nothing*
            // is far more likely a misparse (the NLU tagged the wrong slot)
            // than a real constraint, and must not wipe out identification
            // progress.
            let mut trial = ident.cs.clone();
            if trial.refine(db, &attr, &value)? == 0 && !ident.cs.is_empty() {
                continue;
            }
            ident.cs = trial;
            if !ident.asked.contains(&attr.key()) {
                ident.asked.push(attr.key());
            }
            if self.active_ident.as_deref() == Some(param.name.as_str()) {
                ident.pending = None;
                ident.offering = None;
            }
            applied = true;
        }
        Ok(applied)
    }

    /// Resolve free text as the answer to the pending identification
    /// question (on the active context).
    fn try_pending_answer(
        &mut self,
        user_text: &str,
        corrections: &mut Vec<(String, String)>,
    ) -> Result<bool> {
        let Some(param) = self.active_ident.clone() else {
            return Ok(false);
        };
        let Some(ident) = self.idents.iter().find(|c| c.param == param) else {
            return Ok(false);
        };
        let Some(attr) = ident.pending.clone() else {
            return Ok(false);
        };
        let text = user_text.trim();
        // Typed parse first (numbers, dates), then fuzzy text match.
        let col_ty = self
            .db
            .table(&attr.table)?
            .schema()
            .column(&attr.column)
            .map(|c| c.ty)
            .unwrap_or(cat_txdb::DataType::Text);
        let resolved = match Value::parse_as(col_ty, text).ok() {
            // An exact answer on an indexed column is one probe.
            Some(v) if ident.cs.index_contains(&self.db, &attr, &v) => Some(v),
            parsed => {
                // Inventory: distinct values of the attribute over the
                // candidates.
                let inventory = ident.cs.distinct_values(&self.db, &attr)?;
                parsed.filter(|v| inventory.contains(v)).or_else(|| {
                    let rendered: Vec<String> = inventory.iter().map(Value::render).collect();
                    best_match(text, rendered.iter().map(String::as_str), 0.72).map(|(i, sim)| {
                        if sim < 1.0 && rendered[i].to_lowercase() != text.to_lowercase() {
                            corrections.push((text.to_string(), rendered[i].clone()));
                        }
                        inventory[i].clone()
                    })
                })
            }
        };
        let Some(value) = resolved else {
            return Ok(false);
        };
        let key = attr.key();
        let db = &self.db;
        let ident = self
            .idents
            .iter_mut()
            .find(|c| c.param == param)
            .expect("checked above");
        ident.cs.refine(db, &attr, &value)?;
        ident.asked.push(key.clone());
        ident.pending = None;
        self.policy.record_outcome(&key, true);
        Ok(true)
    }

    /// Resolve free text as a pick from offered options.
    fn try_offer_pick(&mut self, user_text: &str) -> Result<bool> {
        let Some(ident) = self.active_context_mut() else {
            return Ok(false);
        };
        let Some(options) = ident.offering.clone() else {
            return Ok(false);
        };
        let labels: Vec<&str> = options.iter().map(|(l, _)| l.as_str()).collect();
        // Accept a 1-based ordinal or a (fuzzy) label.
        let pick = user_text
            .trim()
            .parse::<usize>()
            .ok()
            .and_then(|i| i.checked_sub(1))
            .filter(|&i| i < options.len())
            .or_else(|| best_match(user_text.trim(), labels.iter().copied(), 0.7).map(|(i, _)| i));
        let Some(i) = pick else { return Ok(false) };
        let (_, rid) = options[i];
        ident.cs.rows = vec![rid];
        ident.offering = None;
        Ok(true)
    }

    /// Make sure an identification context exists for `param`.
    fn ensure_ident(&mut self, task: &TaskSpec, param: &str) -> Result<()> {
        if self.idents.iter().any(|c| c.param == param) {
            return Ok(());
        }
        let p = task
            .param(param)
            .ok_or_else(|| TxdbError::BadProcedureArgs {
                procedure: task.name.clone(),
                detail: format!("unknown parameter `{param}`"),
            })?;
        let (table, key_column) = p
            .entity
            .clone()
            .ok_or_else(|| TxdbError::BadProcedureArgs {
                procedure: task.name.clone(),
                detail: format!("parameter `{param}` is not an entity"),
            })?;
        self.idents.push(IdentContext {
            param: param.to_string(),
            table: table.clone(),
            key_column,
            cs: CandidateSet::all(&self.db, &table)?,
            asked: Vec::new(),
            pending: None,
            offering: None,
        });
        Ok(())
    }

    /// Drive the agenda: fill the next parameter, confirm, or execute.
    fn advance(&mut self) -> Result<AgentResponse> {
        let Some(task_name) = self.state.task.clone() else {
            let text = self.surface.greeting();
            self.state.observe_agent(&AgentAct::Greet);
            return Ok(self.reply(text, "a:greet"));
        };
        let Some(task) = self.tasks.iter().find(|t| t.name == task_name).cloned() else {
            self.state.reset_task();
            let text = self.surface.report_failure("that task is not available");
            self.state.observe_agent(&AgentAct::ReportFailure);
            return Ok(self.reply(text, "a:report_failure"));
        };

        for param in &task.params {
            if self.state.bound.contains_key(&param.name) {
                continue;
            }
            if !param.needs_identification() {
                self.state.observe_agent(&AgentAct::AskSlot {
                    slot: param.name.clone(),
                });
                self.state.pending_param = Some(param.name.clone());
                self.active_ident = None;
                let text = self.surface.ask_slot(&param.human_name);
                return Ok(self.reply(text, "a:ask_slot"));
            }
            // Entity identification.
            self.ensure_ident(&task, &param.name)?;
            let unique_rid = {
                let ident = self.context_mut(&param.name).expect("ensured");
                ident
                    .cs
                    .unique()
                    .map(|rid| (rid, ident.table.clone(), ident.key_column.clone()))
            };
            if let Some((rid, table, key_column)) = unique_rid {
                let key_value = self.db.table(&table)?.value_of(rid, &key_column)?;
                self.idents.retain(|c| c.param != param.name);
                if self.active_ident.as_deref() == Some(param.name.as_str()) {
                    self.active_ident = None;
                }
                self.state.bind(&param.name, key_value.render());
                continue; // next parameter
            }
            let ident = self.context_mut(&param.name).expect("ensured");
            if ident.cs.is_empty() {
                let table = ident.table.clone();
                let entity = table.replace('_', " ");
                ident.asked.clear();
                ident.pending = None;
                ident.offering = None;
                let fresh = CandidateSet::all(&self.db, &table)?;
                self.context_mut(&param.name).expect("present").cs = fresh;
                let text = self.surface.no_matches(&entity);
                self.state.observe_agent(&AgentAct::Clarify);
                return Ok(self.reply(text, "a:clarify"));
            }
            if ident.cs.len() <= self.sim.offer_threshold {
                return self.offer_options(&task, &param.name, usize::MAX);
            }
            // Ask the data-aware policy for the best attribute.
            let (asked, cs_snapshot) = {
                let ident = self.context_mut(&param.name).expect("present");
                (ident.asked.clone(), ident.cs.clone())
            };
            match self.policy.choose(&self.db, &cs_snapshot, &asked) {
                Some(attr) => {
                    let human = attr.human_name(&self.db);
                    let ident = self.context_mut(&param.name).expect("present");
                    ident.pending = Some(attr);
                    ident.offering = None;
                    self.active_ident = Some(param.name.clone());
                    let text = self.surface.ask_slot(&human);
                    self.state.observe_agent(&AgentAct::IdentifyEntity {
                        param: param.name.clone(),
                    });
                    return Ok(self.reply(text, "a:identify_entity"));
                }
                None => {
                    // Nothing useful left: offer the head of the list.
                    return self.offer_options(&task, &param.name, 5);
                }
            }
        }

        // All parameters bound.
        if task.is_write && self.state.phase != Phase::Confirming {
            let args: Vec<(String, String)> = self
                .state
                .bound
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            let text = self.surface.confirm_task(&task.name, &args);
            self.state.observe_agent(&AgentAct::ConfirmTask {
                task: task.name.clone(),
            });
            return Ok(self.reply(text, "a:confirm_task"));
        }
        if !task.is_write {
            return self.execute_task();
        }
        // Confirming and we got here without affirm/deny: re-confirm.
        let args: Vec<(String, String)> = self
            .state
            .bound
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let text = self.surface.confirm_task(&task.name, &args);
        self.state.observe_agent(&AgentAct::ConfirmTask {
            task: task.name.clone(),
        });
        Ok(self.reply(text, "a:confirm_task"))
    }

    fn offer_options(
        &mut self,
        task: &TaskSpec,
        param_name: &str,
        limit: usize,
    ) -> Result<AgentResponse> {
        let human = task
            .param(param_name)
            .map(|p| p.human_name.clone())
            .unwrap_or_else(|| param_name.replace('_', " "));
        let (table, rows) = {
            let ident = self.context_mut(param_name).expect("context exists");
            (
                ident.table.clone(),
                ident
                    .cs
                    .rows
                    .iter()
                    .take(limit)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        };
        let display = display_columns(&self.db, &table);
        let mut options = Vec::new();
        for rid in rows {
            let t = self.db.table(&table)?;
            let parts: Vec<String> = display
                .iter()
                .filter_map(|col| {
                    let v = t.value_of(rid, col).ok()?;
                    if v.is_null() {
                        None
                    } else {
                        Some(format!("{}: {}", col.replace('_', " "), v.render()))
                    }
                })
                .collect();
            options.push((parts.join(", "), rid));
        }
        let labels: Vec<String> = options
            .iter()
            .enumerate()
            .map(|(i, (l, _))| format!("({}) {}", i + 1, l))
            .collect();
        {
            let ident = self.context_mut(param_name).expect("context exists");
            ident.offering = Some(options);
            ident.pending = None;
        }
        self.active_ident = Some(param_name.to_string());
        let text = self.surface.offer_options(&human, &labels);
        self.state.observe_agent(&AgentAct::OfferOptions {
            param: param_name.to_string(),
        });
        Ok(self.reply(text, "a:offer_options"))
    }

    fn execute_task(&mut self) -> Result<AgentResponse> {
        let Some(task_name) = self.state.task.clone() else {
            let text = self.surface.clarify();
            return Ok(self.reply(text, "a:clarify"));
        };
        let args: Vec<(String, Value)> = self
            .state
            .bound
            .iter()
            .map(|(k, v)| (k.clone(), Value::Text(v.clone())))
            .collect();
        self.state.observe_agent(&AgentAct::Execute {
            task: task_name.clone(),
        });
        match self.db.call(&task_name, &args) {
            Ok(outcome) => {
                self.state.observe_agent(&AgentAct::ReportSuccess);
                self.state.reset_task();
                self.idents.clear();
                self.active_ident = None;
                let mut text = self.surface.report_success(&task_name);
                if !outcome.rows.is_empty() {
                    let rendered: Vec<String> = outcome
                        .rows
                        .iter()
                        .take(5)
                        .map(|row| {
                            row.iter()
                                .map(Value::render)
                                .collect::<Vec<_>>()
                                .join(" | ")
                        })
                        .collect();
                    text = format!(
                        "{text} I found: {}{}",
                        rendered.join("; "),
                        if outcome.rows.len() > 5 {
                            " (and more)"
                        } else {
                            ""
                        }
                    );
                }
                Ok(AgentResponse {
                    text,
                    action: "a:report_success".into(),
                    executed: Some(outcome),
                    corrections: Vec::new(),
                })
            }
            Err(e) => {
                self.state.observe_agent(&AgentAct::ReportFailure);
                self.state.reset_task();
                self.idents.clear();
                self.active_ident = None;
                let text = self.surface.report_failure(&e.to_string());
                Ok(AgentResponse {
                    text,
                    action: "a:report_failure".into(),
                    executed: None,
                    corrections: Vec::new(),
                })
            }
        }
    }

    fn reply(&self, text: String, action: &str) -> AgentResponse {
        AgentResponse {
            text,
            action: action.to_string(),
            executed: None,
            corrections: Vec::new(),
        }
    }

    /// Parameter spec of a scalar (non-entity) param of the active task.
    fn scalar_param(&self, name: &str) -> Option<&cat_datagen::TaskParam> {
        let task = self
            .tasks
            .iter()
            .find(|t| Some(&t.name) == self.state.task.as_ref())?;
        task.param(name).filter(|p| !p.needs_identification())
    }

    /// Whether `value` parses as the declared type of scalar param `name`.
    fn validate_scalar(&self, name: &str, value: &str) -> bool {
        match self.scalar_param(name) {
            Some(p) => Value::parse_as(p.ty, value).is_ok(),
            None => false,
        }
    }
}

/// Pick up to three human-friendly display columns for offers: the
/// non-key columns with the highest awareness priors (what a user would
/// recognize the entity by).
fn display_columns(db: &Database, table: &str) -> Vec<String> {
    let Ok(t) = db.table(table) else {
        return Vec::new();
    };
    let mut cols: Vec<_> = t
        .schema()
        .columns()
        .iter()
        .filter(|c| !t.schema().is_pk_column(&c.name))
        .filter(|c| t.schema().foreign_key_on(&c.name).is_none())
        .collect();
    cols.sort_by(|a, b| {
        b.awareness_prior
            .partial_cmp(&a.awareness_prior)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out: Vec<String> = cols.iter().take(3).map(|c| c.name.clone()).collect();
    if out.is_empty() {
        out.push(t.schema().columns()[0].name.clone());
    }
    out
}

impl std::fmt::Debug for ConversationalAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConversationalAgent")
            .field("tasks", &self.tasks.len())
            .field("turns", &self.state.turns)
            .field("active_task", &self.state.task)
            .finish()
    }
}
