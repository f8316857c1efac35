//! The candidate set: the entities that still match everything the user
//! has said, tracked explicitly at runtime (paper §4: "we … explicitly keep
//! track of the candidates").

use std::collections::HashSet;

use cat_txdb::{follow_path, Database, JoinHop, Result, RowId, Table, TxdbError, Value};

use crate::attribute::Attribute;

/// The set of candidate rows of one entity table, plus the constraints
/// that produced it.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// The entity table being identified.
    pub table: String,
    /// Row ids still in play, ascending.
    pub rows: Vec<RowId>,
    /// Constraints applied so far (attribute key, value).
    pub constraints: Vec<(String, Value)>,
}

impl CandidateSet {
    /// All rows of `table`.
    pub fn all(db: &Database, table: &str) -> Result<CandidateSet> {
        let t = db.table(table)?;
        Ok(CandidateSet {
            table: table.to_string(),
            rows: t.scan().map(|(rid, _)| rid).collect(),
            constraints: Vec::new(),
        })
    }

    /// Number of remaining candidates.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether exactly one candidate remains.
    pub fn is_unique(&self) -> bool {
        self.rows.len() == 1
    }

    /// The unique candidate, if identification is complete.
    pub fn unique(&self) -> Option<RowId> {
        match self.rows.as_slice() {
            [rid] => Some(*rid),
            _ => None,
        }
    }

    /// The values a candidate row exhibits for an attribute. Local columns
    /// give at most one value; joined attributes may give several (e.g.
    /// all actors of a movie). NULLs are omitted.
    pub fn values_for_row(db: &Database, attr: &Attribute, rid: RowId) -> Result<Vec<Value>> {
        if attr.path.is_empty() {
            let v = db.table(&attr.table)?.value_of(rid, &attr.column)?;
            return Ok(if v.is_null() { Vec::new() } else { vec![v] });
        }
        let target = db.table(&attr.table)?;
        let mut out = Vec::new();
        for reached in follow_path(db, &attr.path, rid) {
            let v = target.value_of(reached, &attr.column)?;
            if !v.is_null() && !out.contains(&v) {
                out.push(v);
            }
        }
        Ok(out)
    }

    /// The distinct values `attr` takes over the candidates, in
    /// first-seen order: candidates ascending, each candidate's values in
    /// [`CandidateSet::values_for_row`] order. Values are hashed by
    /// reference and cloned once each, so this is one pass over the
    /// candidates rather than a scan of the inventory per value.
    ///
    /// Over the whole table, a local attribute with an exact index (see
    /// [`exact_index`]) reads the same list from the index: one value per
    /// bucket, ordered by the bucket's first (smallest) RowId and cloned
    /// from that row, which is where the walk first meets it.
    pub fn distinct_values(&self, db: &Database, attr: &Attribute) -> Result<Vec<Value>> {
        let target = db.table(&attr.table)?;
        let idx = target.schema().require_column(&attr.column)?;
        if let Some(buckets) = exact_index(db, attr)
            .filter(|t| self.is_whole(t))
            .and_then(|t| t.index_buckets(&attr.column))
        {
            let mut firsts: Vec<RowId> = buckets
                .filter_map(|(_, ids)| ids.first().copied())
                .collect();
            firsts.sort_unstable();
            return firsts
                .into_iter()
                .map(|rid| {
                    target
                        .get(rid)
                        .and_then(|row| row.get(idx))
                        .cloned()
                        .ok_or_else(|| no_such_row(&attr.table))
                })
                .collect();
        }
        let mut seen: HashSet<&Value> = HashSet::new();
        let mut out = Vec::new();
        for &rid in &self.rows {
            let walked;
            let reached = if attr.path.is_empty() {
                std::slice::from_ref(&rid)
            } else {
                walked = follow_path(db, &attr.path, rid);
                walked.as_slice()
            };
            for &r in reached {
                let row = target.get(r).ok_or_else(|| no_such_row(&attr.table))?;
                if let Some(v) = row.get(idx).filter(|v| !v.is_null()) {
                    if seen.insert(v) {
                        out.push(v.clone());
                    }
                }
            }
        }
        Ok(out)
    }

    /// Restrict to candidates whose attribute values contain `value`.
    /// Returns the number of remaining candidates. The constraint is
    /// recorded (it keys the statistics cache and drives explanations).
    ///
    /// A local attribute with an exact index (see [`exact_index`]) is one
    /// bucket probe and a galloping intersection with the candidates,
    /// borrowing the bucket: at most the candidate walk's cost, and far
    /// less when either side is small. A joined attribute whose column
    /// is hash-indexed is an index-lookup-and-intersect on `RowId` sets:
    /// one probe finds every row of the attribute table holding `value`,
    /// `BackPath` walks the FK path *backwards* from that set (each hop is
    /// an indexed lookup on the FK columns, which the engine
    /// auto-indexes), and a sorted merge intersects the result with the
    /// candidate set. Cost scales with the number of matches, not with
    /// |candidates| × path length. Otherwise the per-candidate forward
    /// walk runs.
    pub fn refine(&mut self, db: &Database, attr: &Attribute, value: &Value) -> Result<usize> {
        let target = db.table(&attr.table)?;
        if let Some(bucket) =
            exact_index(db, attr).and_then(|t| t.index_bucket(&attr.column, value))
        {
            self.keep_matching(bucket);
        } else if !attr.path.is_empty() && target.has_index(&attr.column) {
            let frontier = target.lookup(&attr.column, value)?;
            let matching = BackPath::new(db, &attr.path).walk(frontier);
            self.keep_matching(&matching);
        } else {
            self.refine_by_walk(db, attr, value)?;
        }
        self.constraints.push((attr.key(), value.clone()));
        Ok(self.rows.len())
    }

    /// Whether one probe of an exact index on a local attribute's column
    /// (see [`exact_index`]) finds a candidate with `value`. `false` when
    /// none has it or no such index serves the attribute.
    pub fn index_contains(&self, db: &Database, attr: &Attribute, value: &Value) -> bool {
        exact_index(db, attr)
            .and_then(|t| t.index_bucket(&attr.column, value))
            .is_some_and(|bucket| !intersect_positions(&self.rows, bucket).is_empty())
    }

    /// Keep the candidates that occur in ascending `matching`.
    fn keep_matching(&mut self, matching: &[RowId]) {
        self.rows = intersect_positions(&self.rows, matching)
            .into_iter()
            .map(|i| self.rows[i])
            .collect();
    }

    /// Whether the set holds exactly the live rows of `t`, so that a read
    /// over it may come from `t`'s indexes. Most sets fail the length
    /// check; a set that passes it is compared row by row, since a delete
    /// and an insert keep the count but change the rows.
    pub(crate) fn is_whole(&self, t: &Table) -> bool {
        self.rows.len() == t.len() && self.rows.iter().copied().eq(t.scan().map(|(rid, _)| rid))
    }

    /// The fallback when no index serves the attribute (and the
    /// reference implementation): walk the join path forward from every
    /// candidate and compare the reached values in place. Exposed for
    /// differential tests and benchmarks.
    #[doc(hidden)]
    pub fn refine_by_walk(
        &mut self,
        db: &Database,
        attr: &Attribute,
        value: &Value,
    ) -> Result<usize> {
        let target = db.table(&attr.table)?;
        let idx = target.schema().require_column(&attr.column)?;
        let mut kept = Vec::with_capacity(self.rows.len());
        for &rid in &self.rows {
            let walked;
            let reached = if attr.path.is_empty() {
                std::slice::from_ref(&rid)
            } else {
                walked = follow_path(db, &attr.path, rid);
                walked.as_slice()
            };
            for &r in reached {
                let row = target.get(r).ok_or_else(|| no_such_row(&attr.table))?;
                if row.get(idx).is_some_and(|v| !v.is_null() && v == value) {
                    kept.push(rid);
                    break;
                }
            }
        }
        self.rows = kept;
        Ok(self.rows.len())
    }

    /// A short signature of the constraint list, used as a cache key
    /// component. Order-sensitive by design: dialogue order is stable
    /// within a session, and collisions across sessions are harmless
    /// (the table version still guards correctness).
    pub fn signature(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.table.hash(&mut h);
        for (k, v) in &self.constraints {
            k.hash(&mut h);
            v.hash(&mut h);
        }
        // The row list itself matters when the table changed underneath.
        self.rows.len().hash(&mut h);
        h.finish()
    }

    /// Render the first `limit` candidates using a display column.
    pub fn render_options(
        &self,
        db: &Database,
        display_column: &str,
        limit: usize,
    ) -> Result<Vec<String>> {
        let t = db.table(&self.table)?;
        t.schema().require_column(display_column)?;
        self.rows
            .iter()
            .take(limit)
            .map(|&rid| Ok(t.value_of(rid, display_column)?.render()))
            .collect()
    }

    /// The primary-key value(s) of the unique candidate, if identified.
    /// Errors if the table has no primary key.
    pub fn unique_pk(&self, db: &Database) -> Result<Option<Vec<Value>>> {
        let Some(rid) = self.unique() else {
            return Ok(None);
        };
        let t = db.table(&self.table)?;
        if t.schema().primary_key().is_empty() {
            return Err(TxdbError::InvalidValue(format!(
                "table `{}` has no primary key",
                self.table
            )));
        }
        let row = t.get(rid).ok_or_else(|| TxdbError::NoSuchRow {
            table: self.table.clone(),
        })?;
        Ok(Some(t.pk_of(row)))
    }
}

/// The attribute's table when reads of the attribute may come from the
/// hash index on its column: the attribute is local, its column is
/// indexed, and the table is clean (see [`Table::mvcc_clean`]), so each
/// bucket holds exactly the rows whose current value is its key. A dirty
/// table's buckets also hold the keys of other versions.
pub(crate) fn exact_index<'a>(db: &'a Database, attr: &Attribute) -> Option<&'a Table> {
    let t = db.table(&attr.table).ok()?;
    (attr.path.is_empty() && t.mvcc_clean() && t.has_index(&attr.column)).then_some(t)
}

fn no_such_row(table: &str) -> TxdbError {
    TxdbError::NoSuchRow {
        table: table.to_string(),
    }
}

/// One FK hop of an attribute's join path, resolved for walking it from
/// its far end back towards the entity table.
struct BackHop<'a> {
    /// Table the walk is at (the hop's `to_table`).
    at: &'a Table,
    /// Position of the join column in `at`.
    at_column: usize,
    /// Table the walk steps to (the hop's `from_table`).
    to: &'a Table,
    /// Join column in `to`, probed through its FK hash index.
    to_column: &'a str,
}

/// An attribute's FK path resolved once (tables and column positions),
/// to walk many frontiers back to the entity table. Equivalent to
/// following every `hop.reversed()` with [`follow_hop`] in reverse order,
/// without the per-row name lookups and key clones; an unresolvable path
/// reaches nothing, as [`follow_hop`] treats a missing table or column.
///
/// [`follow_hop`]: cat_txdb::follow_hop
pub(crate) struct BackPath<'a> {
    hops: Option<Vec<BackHop<'a>>>,
}

impl<'a> BackPath<'a> {
    pub(crate) fn new(db: &'a Database, path: &'a [JoinHop]) -> BackPath<'a> {
        let hops = path
            .iter()
            .rev()
            .map(|hop| {
                let at = db.table(&hop.to_table).ok()?;
                Some(BackHop {
                    at,
                    at_column: at.schema().column_index(&hop.to_column)?,
                    to: db.table(&hop.from_table).ok()?,
                    to_column: &hop.from_column,
                })
            })
            .collect();
        BackPath { hops }
    }

    /// The rows of the path's first table (the entity table) that reach
    /// any row of `frontier` (rows of its last table), ascending and
    /// deduplicated. An empty path returns `frontier` itself.
    pub(crate) fn walk(&self, mut frontier: Vec<RowId>) -> Vec<RowId> {
        let Some(hops) = &self.hops else {
            return Vec::new();
        };
        for hop in hops {
            let mut next: Vec<RowId> = Vec::new();
            for &rid in &frontier {
                let Some(key) = hop.at.get(rid).and_then(|row| row.get(hop.at_column)) else {
                    continue;
                };
                if key.is_null() {
                    continue;
                }
                match hop.to.index_bucket(hop.to_column, key) {
                    Some(bucket) => next.extend_from_slice(bucket),
                    None => next.extend(hop.to.lookup(hop.to_column, key).unwrap_or_default()),
                }
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        frontier
    }
}

/// Positions in `rows` of the ids that also occur in `other`, ascending.
/// Both slices must be ascending and duplicate-free. Walks the shorter
/// slice and gallops through the longer one, so a few matches against a
/// large candidate set cost a few binary searches, and two sets of equal
/// size cost one merge.
pub(crate) fn intersect_positions(rows: &[RowId], other: &[RowId]) -> Vec<usize> {
    let mut out = Vec::new();
    if rows.len() <= other.len() {
        let mut rest = other;
        for (i, rid) in rows.iter().enumerate() {
            rest = &rest[gallop(rest, *rid)..];
            match rest.first() {
                None => break,
                Some(r) if r == rid => out.push(i),
                Some(_) => {}
            }
        }
    } else {
        let mut lo = 0;
        for rid in other {
            lo += gallop(&rows[lo..], *rid);
            match rows.get(lo) {
                None => break,
                Some(r) if r == rid => out.push(lo),
                Some(_) => {}
            }
        }
    }
    out
}

/// Index of the first element of ascending `s` that is `>= x`, found by
/// exponential search from the front: O(log k) for an answer at `k`.
fn gallop(s: &[RowId], x: RowId) -> usize {
    let mut step = 1;
    while step <= s.len() && s[step - 1] < x {
        step *= 2;
    }
    let lo = step / 2;
    lo + s[lo..step.min(s.len())].partition_point(|y| *y < x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cat_corpus_testlike::*;

    /// A tiny local fixture (cinema-shaped, but self-contained so this
    /// crate does not depend on cat-corpus).
    mod cat_corpus_testlike {
        use cat_txdb::{DataType, Database, Row, TableSchema, Value};

        pub fn movie_db() -> Database {
            let mut db = Database::new();
            db.create_table(
                TableSchema::builder("movie")
                    .column("movie_id", DataType::Int)
                    .column("title", DataType::Text)
                    .column("genre", DataType::Text)
                    .primary_key(&["movie_id"])
                    .build()
                    .unwrap(),
            )
            .unwrap();
            db.create_table(
                TableSchema::builder("actor")
                    .column("actor_id", DataType::Int)
                    .column("name", DataType::Text)
                    .primary_key(&["actor_id"])
                    .build()
                    .unwrap(),
            )
            .unwrap();
            db.create_table(
                TableSchema::builder("movie_actor")
                    .column("movie_id", DataType::Int)
                    .column("actor_id", DataType::Int)
                    .primary_key(&["movie_id", "actor_id"])
                    .foreign_key("movie_id", "movie", "movie_id")
                    .foreign_key("actor_id", "actor", "actor_id")
                    .build()
                    .unwrap(),
            )
            .unwrap();
            let movies = [
                (1, "Heat", "Crime"),
                (2, "Alien", "Horror"),
                (3, "Fargo", "Crime"),
            ];
            for (id, t, g) in movies {
                db.insert("movie", Row::new(vec![Value::Int(id), t.into(), g.into()]))
                    .unwrap();
            }
            let actors = [
                (1, "Al Pacino"),
                (2, "Robert De Niro"),
                (3, "Sigourney Weaver"),
            ];
            for (id, n) in actors {
                db.insert("actor", Row::new(vec![Value::Int(id), n.into()]))
                    .unwrap();
            }
            for (m, a) in [(1, 1), (1, 2), (2, 3), (3, 2)] {
                db.insert("movie_actor", Row::new(vec![Value::Int(m), Value::Int(a)]))
                    .unwrap();
            }
            db
        }
    }
    use crate::attribute::{enumerate_attributes, Attribute};
    use cat_txdb::Value;

    #[test]
    fn all_and_refine_local() {
        let db = movie_db();
        let mut cs = CandidateSet::all(&db, "movie").unwrap();
        assert_eq!(cs.len(), 3);
        assert!(!cs.is_unique());
        let genre = Attribute::local("movie", "genre");
        let n = cs
            .refine(&db, &genre, &Value::Text("Crime".into()))
            .unwrap();
        assert_eq!(n, 2);
        let title = Attribute::local("movie", "title");
        cs.refine(&db, &title, &Value::Text("Heat".into())).unwrap();
        assert!(cs.is_unique());
        assert_eq!(cs.unique_pk(&db).unwrap().unwrap(), vec![Value::Int(1)]);
        assert_eq!(cs.constraints.len(), 2);
    }

    #[test]
    fn refine_via_join_path() {
        let db = movie_db();
        let attrs = enumerate_attributes(&db, "movie", 2);
        let actor_name = attrs.iter().find(|a| a.key() == "actor.name").unwrap();
        let mut cs = CandidateSet::all(&db, "movie").unwrap();
        // De Niro appears in Heat and Fargo.
        let n = cs
            .refine(&db, actor_name, &Value::Text("Robert De Niro".into()))
            .unwrap();
        assert_eq!(n, 2);
        // Pacino narrows to Heat.
        let n = cs
            .refine(&db, actor_name, &Value::Text("Al Pacino".into()))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(cs.unique_pk(&db).unwrap().unwrap(), vec![Value::Int(1)]);
    }

    #[test]
    fn refine_to_empty_on_contradiction() {
        let db = movie_db();
        let mut cs = CandidateSet::all(&db, "movie").unwrap();
        let genre = Attribute::local("movie", "genre");
        cs.refine(&db, &genre, &Value::Text("Crime".into()))
            .unwrap();
        cs.refine(&db, &genre, &Value::Text("Horror".into()))
            .unwrap();
        assert!(cs.is_empty());
        assert_eq!(cs.unique(), None);
    }

    #[test]
    fn values_for_row_multi_valued() {
        let db = movie_db();
        let attrs = enumerate_attributes(&db, "movie", 2);
        let actor_name = attrs.iter().find(|a| a.key() == "actor.name").unwrap();
        let (heat_rid, _) = db
            .table("movie")
            .unwrap()
            .get_by_pk(&[Value::Int(1)])
            .unwrap();
        let values = CandidateSet::values_for_row(&db, actor_name, heat_rid).unwrap();
        assert_eq!(values.len(), 2, "Heat has two actors");
    }

    #[test]
    fn signature_changes_with_constraints() {
        let db = movie_db();
        let mut cs = CandidateSet::all(&db, "movie").unwrap();
        let s0 = cs.signature();
        cs.refine(
            &db,
            &Attribute::local("movie", "genre"),
            &Value::Text("Crime".into()),
        )
        .unwrap();
        assert_ne!(s0, cs.signature());
    }

    #[test]
    fn indexed_refine_matches_forward_walk() {
        // Same dialogue against an indexed and an unindexed database must
        // keep identical candidates, for local and joined attributes.
        let plain = movie_db();
        let mut indexed = movie_db();
        indexed
            .table_mut("movie")
            .unwrap()
            .create_index("genre")
            .unwrap();
        indexed
            .table_mut("actor")
            .unwrap()
            .create_index("name")
            .unwrap();
        let attrs = enumerate_attributes(&plain, "movie", 2);
        let actor_name = attrs.iter().find(|a| a.key() == "actor.name").unwrap();
        let genre = Attribute::local("movie", "genre");
        let steps: [(&Attribute, Value); 2] = [
            (&genre, Value::Text("Crime".into())),
            (actor_name, Value::Text("Robert De Niro".into())),
        ];
        let mut cs_walk = CandidateSet::all(&plain, "movie").unwrap();
        let mut cs_indexed = CandidateSet::all(&indexed, "movie").unwrap();
        for (attr, value) in &steps {
            cs_walk.refine_by_walk(&plain, attr, value).unwrap();
            cs_indexed.refine(&indexed, attr, value).unwrap();
            assert_eq!(cs_walk.rows, cs_indexed.rows, "diverged on {}", attr.key());
        }
        assert_eq!(cs_indexed.rows.len(), 2, "Heat and Fargo: Crime + De Niro");
        // A value nobody has empties the set through the indexed path too.
        cs_indexed
            .refine(&indexed, &genre, &Value::Text("Western".into()))
            .unwrap();
        assert!(cs_indexed.is_empty());
    }

    #[test]
    fn distinct_values_match_the_naive_inventory() {
        let db = movie_db();
        let attrs = enumerate_attributes(&db, "movie", 2);
        let naive = |cs: &CandidateSet, attr: &Attribute| {
            let mut inventory: Vec<Value> = Vec::new();
            for &rid in &cs.rows {
                for v in CandidateSet::values_for_row(&db, attr, rid).unwrap() {
                    if !inventory.contains(&v) {
                        inventory.push(v);
                    }
                }
            }
            inventory
        };
        let all = CandidateSet::all(&db, "movie").unwrap();
        let mut crime = all.clone();
        crime
            .refine(
                &db,
                &Attribute::local("movie", "genre"),
                &Value::Text("Crime".into()),
            )
            .unwrap();
        for cs in [&all, &crime] {
            for attr in &attrs {
                assert_eq!(
                    cs.distinct_values(&db, attr).unwrap(),
                    naive(cs, attr),
                    "{} over {} movies",
                    attr.key(),
                    cs.len()
                );
            }
        }
        // De Niro plays in Heat and Fargo but is listed once, after
        // Heat's first actor.
        let actor_name = attrs.iter().find(|a| a.key() == "actor.name").unwrap();
        let names: Vec<String> = all
            .distinct_values(&db, actor_name)
            .unwrap()
            .iter()
            .map(Value::render)
            .collect();
        assert_eq!(names, ["Al Pacino", "Robert De Niro", "Sigourney Weaver"]);
    }

    #[test]
    fn intersect_positions_matches_a_naive_filter() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // An ascending id list of up to 300 candidates, each kept with
        // probability `p`.
        fn draw(rng: &mut StdRng, p: f64) -> Vec<RowId> {
            (0..rng.random_range(0..300u64))
                .filter(|_| rng.random_bool(p))
                .map(RowId)
                .collect()
        }
        let mut rng = StdRng::seed_from_u64(0x1A7);
        for _ in 0..200 {
            let a = draw(&mut rng, 0.5);
            let p = [0.01, 0.1, 0.5, 0.9][rng.random_range(0..4usize)];
            let b = draw(&mut rng, p);
            let expected: Vec<usize> = (0..a.len()).filter(|&i| b.contains(&a[i])).collect();
            assert_eq!(intersect_positions(&a, &b), expected);
            let back: Vec<usize> = (0..b.len()).filter(|&i| a.contains(&b[i])).collect();
            assert_eq!(intersect_positions(&b, &a), back);
        }
    }

    #[test]
    fn render_options() {
        let db = movie_db();
        let cs = CandidateSet::all(&db, "movie").unwrap();
        let opts = cs.render_options(&db, "title", 2).unwrap();
        assert_eq!(opts.len(), 2);
        assert!(cs.render_options(&db, "bogus", 2).is_err());
    }

    /// A seeded random `customer(customer_id, name, city)` table with
    /// few distinct names and cities, hash-indexed on `name` for half the
    /// seeds so both refinement paths run.
    fn random_customers(seed: u64) -> cat_txdb::Database {
        use cat_txdb::{DataType, Row, TableSchema};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = cat_txdb::Database::new();
        db.create_table(
            TableSchema::builder("customer")
                .column("customer_id", DataType::Int)
                .column("name", DataType::Text)
                .column("city", DataType::Text)
                .primary_key(&["customer_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        if rng.random_bool(0.5) {
            db.table_mut("customer")
                .unwrap()
                .create_index("name")
                .unwrap();
        }
        for i in 0..rng.random_range(1..60i64) {
            let name = format!("name{}", rng.random_range(0..6u8));
            let city = format!("city{}", rng.random_range(0..4u8));
            db.insert(
                "customer",
                Row::new(vec![Value::Int(i), name.into(), city.into()]),
            )
            .unwrap();
        }
        db
    }

    /// Refinement keeps exactly the rows whose attribute equals the
    /// probe value, in order.
    #[test]
    fn refine_keeps_exactly_matching_rows() {
        for seed in 0..64u64 {
            let db = random_customers(0x5E1 + seed);
            let mut cs = CandidateSet::all(&db, "customer").unwrap();
            let before = cs.rows.clone();
            let value = Value::Text(format!("name{}", seed % 7));
            cs.refine(&db, &Attribute::local("customer", "name"), &value)
                .unwrap();
            let t = db.table("customer").unwrap();
            let expected: Vec<RowId> = before
                .into_iter()
                .filter(|&rid| t.value_of(rid, "name").unwrap() == value)
                .collect();
            assert_eq!(cs.rows, expected, "seed {seed}");
        }
    }

    /// Refining twice on the same (attribute, value) changes nothing.
    #[test]
    fn refine_is_idempotent() {
        for seed in 0..64u64 {
            let db = random_customers(0x1DE + seed);
            let mut cs = CandidateSet::all(&db, "customer").unwrap();
            let city = Attribute::local("customer", "city");
            let value = Value::Text(format!("city{}", seed % 4));
            cs.refine(&db, &city, &value).unwrap();
            let once = cs.rows.clone();
            cs.refine(&db, &city, &value).unwrap();
            assert_eq!(cs.rows, once, "seed {seed}");
        }
    }
}
