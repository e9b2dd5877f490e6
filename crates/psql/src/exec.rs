//! The PSQL executor.

use crate::ast::Query;
use crate::database::{Backlinks, PictorialDatabase};
use crate::error::PsqlError;
use crate::functions::{FunctionRegistry, PictorialFn};
use crate::join::{picture_join, JoinStats};
use crate::picture::Picture;
use crate::plan::{self, Filter, Plan, ResolvedColumn, Source, Term};
use crate::result::{ResultSet, ResultSink};
use pictorial_relational::{Relation, Row, TupleId, Value, ValueRef};
use rtree_geom::SpatialObject;
use rtree_index::{BatchScratch, ItemId, SearchScratch};
use std::borrow::Cow;
use std::collections::HashSet;
use std::ops::Bound::{Included, Unbounded};

/// Plans and executes a query with the built-in pictorial functions.
pub fn execute(db: &PictorialDatabase, query: &Query) -> Result<ResultSet, PsqlError> {
    let functions = FunctionRegistry::with_builtins();
    execute_with_scratch(db, query, &functions, &mut SearchScratch::new())
}

/// Plans and executes reusing a caller-owned [`SearchScratch`].
///
/// The concurrent query service keeps one scratch per worker thread and
/// threads it through every request that worker serves, so steady-state
/// query execution allocates nothing for tree traversal. The scratch is
/// plain reusable buffer space — it carries no state between calls.
pub fn execute_with_scratch(
    db: &PictorialDatabase,
    query: &Query,
    functions: &FunctionRegistry,
    scratch: &mut SearchScratch,
) -> Result<ResultSet, PsqlError> {
    let plan = plan::plan(db, query)?;
    execute_plan_with_scratch(db, &plan, functions, scratch)
}

/// Executes an already-built plan with a caller-owned scratch.
pub fn execute_plan_with_scratch(
    db: &PictorialDatabase,
    plan: &Plan,
    functions: &FunctionRegistry,
    scratch: &mut SearchScratch,
) -> Result<ResultSet, PsqlError> {
    let mut result = ResultSet::default();
    execute_plan_into(db, plan, functions, scratch, &mut result)?;
    Ok(result)
}

/// Executes an already-built plan into `sink`, which receives the
/// result as it is written: values, names and labels borrowed from
/// `db`, nothing owned made for them on the way. On an error `sink`
/// holds whatever was written before it (the column names and some
/// rows, if a pictorial function fails part-way), for the caller to
/// discard.
pub fn execute_plan_into(
    db: &PictorialDatabase,
    plan: &Plan,
    functions: &FunctionRegistry,
    scratch: &mut SearchScratch,
    sink: &mut impl ResultSink,
) -> Result<(), PsqlError> {
    let executor = Executor::bind(db, plan, functions)?;
    let rows = executor.candidate_rows(scratch)?;
    let rows = executor.qualify(rows)?;
    executor.write(rows, sink)
}

/// [`execute_with_scratch`] over a pack of queries, in input order, each
/// failure in its own slot. Kept only because `sysbench`'s
/// `psql.execute_batch_us` probe calls it.
pub fn execute_batch_with_scratch(
    db: &PictorialDatabase,
    queries: &[Query],
    functions: &FunctionRegistry,
    scratch: &mut BatchScratch,
) -> Vec<Result<ResultSet, PsqlError>> {
    queries
        .iter()
        .map(|q| execute_with_scratch(db, q, functions, scratch))
        .collect()
}

/// One plan bound to one database: every name the plan holds is looked
/// up once, and the row loops only index.
///
/// Candidate rows are **flat**: one `Vec<TupleId>` holding
/// `plan.relations.len()` tuple ids per row, in `from` order.
struct Executor<'a> {
    db: &'a PictorialDatabase,
    plan: &'a Plan,
    functions: &'a FunctionRegistry,
    /// `plan.relations`, bound; its length is the row stride.
    relations: Vec<&'a Relation>,
    /// `plan.calls`, bound.
    calls: Vec<BoundCall<'a>>,
}

/// A pictorial function call, bound; a failed lookup is reported by
/// the first row that would have called it.
struct BoundCall<'a> {
    function: Result<PictorialFn, PsqlError>,
    column: ResolvedColumn,
    picture: Result<&'a Picture, PsqlError>,
}

impl<'a> Executor<'a> {
    fn bind(
        db: &'a PictorialDatabase,
        plan: &'a Plan,
        functions: &'a FunctionRegistry,
    ) -> Result<Self, PsqlError> {
        let mut relations = Vec::with_capacity(plan.relations.len());
        for name in &plan.relations {
            relations.push(db.catalog().relation(name)?);
        }
        let calls = plan
            .calls
            .iter()
            .map(|call| BoundCall {
                function: functions.function(&call.function),
                column: call.column,
                picture: (call.picture.as_deref())
                    .map_err(PsqlError::clone)
                    .and_then(|picture| db.picture(picture)),
            })
            .collect();
        Ok(Executor {
            db,
            plan,
            functions,
            relations,
            calls,
        })
    }

    /// Produces candidate rows. A spatial source answers in object-id
    /// order, whichever tree serves it (DESIGN.md §6), each object's
    /// tuples in [`Backlinks`] order.
    fn candidate_rows(&self, scratch: &mut SearchScratch) -> Result<Vec<TupleId>, PsqlError> {
        let (db, plan) = (self.db, self.plan);
        match &plan.source {
            Source::FullScan => Ok(self.relations[0].scan().map(|(tid, _)| tid).collect()),
            Source::IndexRange { column, lo, hi } => {
                let rel_name = &plan.relations[0];
                let index = db.catalog().index(rel_name, column).ok_or_else(|| {
                    PsqlError::Internal(format!("planner chose missing index {rel_name}.{column}"))
                })?;
                let lo = lo.as_ref().map_or(Unbounded, Included);
                let hi = hi.as_ref().map_or(Unbounded, Included);
                Ok(index
                    .range((lo, hi))
                    .flat_map(|(_, tids)| tids.iter().copied())
                    .collect())
            }
            Source::Window { loc, op, window } => {
                let pic = db.picture(&loc.picture)?;
                let mut objs = pic.search_window_fast(*op, window, scratch);
                objs.sort_unstable();
                Ok(self.objects_to_rows(loc.column, &objs))
            }
            Source::Nearest { loc, k, point } => {
                let pic = db.picture(&loc.picture)?;
                // Ascending by `(distance, id)`, as the picture returns it.
                let objs = pic.nearest_fast(*point, *k, scratch);
                Ok(self.objects_to_rows(loc.column, &objs))
            }
            Source::Nested {
                loc,
                op,
                inner,
                inner_loc,
            } => {
                // The inner mapping's qualifying rows, each pointing into
                // the inner picture through `inner_loc`. It shares this
                // query's scratch: the inner searches are done (and their
                // results copied out) before the outer searches begin.
                let inner = Executor::bind(db, inner, self.functions)?;
                let inner_rows = inner.candidate_rows(scratch)?;
                let inner_rows = inner.qualify(inner_rows)?;
                let inner_picture = db.picture(&inner_loc.picture)?;

                // "The binding of the top level window is dynamically done
                // during the evaluation of the query": search the outer
                // picture once per inner location, by its MBR, and refine
                // each candidate against the location itself.
                let pic = db.picture(&loc.picture)?;
                let mut objs: Vec<u64> = Vec::new();
                for row in inner_rows.chunks_exact(inner.relations.len()) {
                    let at = inner_loc.column;
                    let Some(obj_id) = inner.tuple(row, at.rel)?.get(at.col).as_pointer() else {
                        continue;
                    };
                    let inner_obj = inner_picture.object(obj_id).ok_or_else(|| {
                        PsqlError::Semantic(format!("dangling pointer {obj_id} in nested result"))
                    })?;
                    for cand in pic.candidates(*op, &inner_obj.mbr(), scratch, None) {
                        let outer_obj = pic.object(cand).ok_or_else(|| {
                            PsqlError::Internal(format!("search returned unknown object {cand}"))
                        })?;
                        if op.eval_objects(&outer_obj, &inner_obj) {
                            objs.push(cand);
                        }
                    }
                    // Compacted as it outgrows the picture, so it holds
                    // at most twice the picture's objects.
                    if objs.len() > pic.len() {
                        objs.sort_unstable();
                        objs.dedup();
                    }
                }
                objs.sort_unstable();
                objs.dedup();
                Ok(self.objects_to_rows(loc.column, &objs))
            }
            Source::Juxtapose { left, right, op } => {
                let lp = db.picture(&left.picture)?;
                let rp = db.picture(&right.picture)?;
                // The planner put `left` in relation 0, so pairs sort by
                // the first `from` relation's id. Sorting before the refine
                // costs more than sorting only its survivors, but the refine
                // then reads the left picture's objects in id order, which
                // saves more than that at 1M objects (EXT-45).
                let mut pairs = picture_join(lp, rp, *op, &mut JoinStats::default());
                pairs.sort_unstable();
                let left_links = self.backlinks(left.column);
                let right_links = self.backlinks(right.column);
                let mut rows = Vec::new();
                for (ItemId(lo), ItemId(ro)) in pairs {
                    let lobj = lp.object(lo).ok_or_else(|| {
                        PsqlError::Internal(format!("join produced unknown left object {lo}"))
                    })?;
                    let robj = rp.object(ro).ok_or_else(|| {
                        PsqlError::Internal(format!("join produced unknown right object {ro}"))
                    })?;
                    if !op.eval_objects(&lobj, &robj) {
                        continue;
                    }
                    for &lt in left_links.map_or(&[][..], |links| links.tuples(lo)) {
                        for &rt in right_links.map_or(&[][..], |links| links.tuples(ro)) {
                            rows.extend_from_slice(&[lt, rt]);
                        }
                    }
                }
                Ok(rows)
            }
        }
    }

    /// The backward pointers of a `loc` column of one of the plan's
    /// relations, if it is associated with a picture.
    fn backlinks(&self, column: ResolvedColumn) -> Option<&'a Backlinks> {
        let col_name = &self.relations[column.rel].schema().columns()[column.col].name;
        self.db
            .backlinks(&self.plan.relations[column.rel], col_name)
    }

    /// Maps qualifying object ids back to tuples of relation 0 (forward
    /// direct search through the backward pointers, §2.1).
    fn objects_to_rows(&self, column: ResolvedColumn, objs: &[u64]) -> Vec<TupleId> {
        let Some(links) = self.backlinks(column) else {
            return Vec::new();
        };
        let mut rows = Vec::with_capacity(objs.len());
        for &obj in objs {
            rows.extend_from_slice(links.tuples(obj));
        }
        rows
    }

    /// The candidate rows that qualify, in output order: the `where`
    /// filter, then order by and limit.
    fn qualify(&self, mut rows: Vec<TupleId>) -> Result<Vec<TupleId>, PsqlError> {
        let plan = self.plan;
        let stride = self.relations.len();

        // Qualifying rows stay where they are.
        if let Some(filter) = &plan.filter {
            let mut kept = 0;
            for at in (0..rows.len()).step_by(stride) {
                if self.qualifies(filter, &rows[at..at + stride])? {
                    rows.copy_within(at..at + stride, kept);
                    kept += stride;
                }
            }
            rows.truncate(kept);
        }

        // Ordering and limit (before projection so the sort key need not be
        // selected).
        let limit = plan.limit.unwrap_or(usize::MAX);
        if let Some((key, ascending)) = plan.order_by {
            let mut keyed: Vec<(ValueRef<'a>, &[TupleId])> =
                Vec::with_capacity(rows.len() / stride);
            for row in rows.chunks_exact(stride) {
                keyed.push((self.tuple(row, key.rel)?.get(key.col), row));
            }
            // Stable: ties keep the source's order.
            keyed.sort_by(|a, b| {
                if ascending {
                    a.0.cmp(&b.0)
                } else {
                    b.0.cmp(&a.0)
                }
            });
            rows = keyed
                .iter()
                .take(limit)
                .flat_map(|(_, row)| row.iter().copied())
                .collect();
        }
        rows.truncate(limit.saturating_mul(stride));
        Ok(rows)
    }

    /// Writes qualifying rows into `sink`: the projection (including
    /// aggregates), then the highlights.
    fn write(&self, rows: Vec<TupleId>, sink: &mut impl ResultSink) -> Result<(), PsqlError> {
        let plan = self.plan;
        let stride = self.relations.len();
        let row_count = rows.len() / stride;

        // From here on the rows are gathered a column at a time: each
        // pass below reads one plane, or one picture's labels, for every
        // row before the next pass starts, so its cache misses are
        // independent loads the core overlaps, and none allocates per
        // row — values, pointers and labels stay borrowed until the sink
        // takes them. Each tuple is fetched once, for its values and
        // for the objects it highlights alike: `stride` tuples per row.
        let mut tuples: Vec<Row<'a>> = Vec::with_capacity(rows.len());
        for (&tid, relation) in rows.iter().zip(self.relations.iter().cycle()) {
            tuples.push(relation.get(tid)?);
        }
        // Column `source` of every row, in row order.
        let column = |source: ResolvedColumn| {
            tuples
                .iter()
                .skip(source.rel)
                .step_by(stride)
                .map(move |tuple| tuple.get(source.col))
        };
        let aggregate = |term: &Term| match *term {
            Term::Call(i) => self.functions.is_aggregate(&plan.calls[i].function),
            Term::Column(_) => false,
        };
        if plan.projection.iter().any(|p| aggregate(&p.term)) {
            // §2.1's aggregate pictorial functions (northest-of, …): the
            // qualifying rows collapse to a single output row; every target
            // must be an aggregate over a loc column.
            let mut out = Vec::with_capacity(plan.projection.len());
            for p in &plan.projection {
                match p.term {
                    Term::Call(i) if aggregate(&p.term) => {
                        let call = &self.calls[i];
                        let mut objects = Vec::with_capacity(row_count);
                        for row in tuples.chunks_exact(stride) {
                            objects.push(self.object_of(row[call.column.rel], call)?.into_owned());
                        }
                        let function = &plan.calls[i].function;
                        out.push(self.functions.apply_aggregate(function, &objects)?);
                    }
                    _ => {
                        return Err(PsqlError::Semantic(
                            "aggregate queries may only select aggregate functions".into(),
                        ))
                    }
                }
            }
            self.write_columns(sink);
            sink.rows(1);
            sink.row();
            for value in &out {
                sink.value(value.as_ref());
            }
        } else {
            // One pass per plain column; `plain[k * row_count + r]` is
            // row `r`'s value of the `k`-th plain column.
            let mut plain: Vec<ValueRef<'a>> =
                Vec::with_capacity(row_count * plan.projection.len());
            for p in &plan.projection {
                if let Term::Column(source) = p.term {
                    plain.extend(column(source));
                }
            }
            // A pictorial function is applied as its row is written, so
            // a query can fail after its first rows.
            self.write_columns(sink);
            sink.rows(row_count);
            for (r, row) in tuples.chunks_exact(stride).enumerate() {
                sink.row();
                let mut k = 0;
                for p in &plan.projection {
                    match p.term {
                        Term::Column(_) => {
                            sink.value(plain[k * row_count + r]);
                            k += 1;
                        }
                        Term::Call(i) => {
                            let call = &self.calls[i];
                            let value = self.apply(call, row[call.column.rel])?;
                            sink.value(value.as_ref());
                        }
                    }
                }
            }
        }

        // Highlights: every qualifying tuple's associated loc objects,
        // once per picture, in row order. One pass gathers each `loc`
        // source's pointers, one looks their labels up, and only then
        // are they de-duplicated; `objects[s * row_count + r]` is row
        // `r`'s object of source `s`.
        let sources = &plan.highlights;
        let mut pictures: Vec<&'a Picture> = Vec::with_capacity(sources.len());
        for source in sources {
            pictures.push(self.db.picture(&source.loc.picture)?);
        }
        let cells = row_count * sources.len();
        let mut objects: Vec<Option<u64>> = Vec::with_capacity(cells);
        for source in sources {
            objects.extend(column(source.loc.column).map(ValueRef::as_pointer));
        }
        let mut labels: Vec<&'a str> = Vec::with_capacity(cells);
        for (picture, objects) in pictures.iter().zip(objects.chunks_exact(row_count.max(1))) {
            let label = |object: &Option<u64>| object.and_then(|o| picture.label(o));
            labels.extend(objects.iter().map(|o| label(o).unwrap_or("")));
        }
        let mut seen: HashSet<(usize, u64)> = HashSet::with_capacity(cells);
        let mut marked: Vec<(usize, u64)> = Vec::with_capacity(cells);
        for r in 0..row_count {
            for (s, source) in sources.iter().enumerate() {
                let at = s * row_count + r;
                if let Some(object) = objects[at] {
                    if seen.insert((source.slot, object)) {
                        marked.push((at, object));
                    }
                }
            }
        }
        sink.highlights(marked.len());
        for (at, object) in marked {
            let picture = &sources[at / row_count].loc.picture;
            sink.highlight(picture, object, labels[at]);
        }
        Ok(())
    }

    /// Writes the output column names.
    fn write_columns(&self, sink: &mut impl ResultSink) {
        sink.columns(self.plan.projection.len());
        for p in &self.plan.projection {
            sink.column(&p.name);
        }
    }

    /// The tuple a row holds for relation `rel`.
    fn tuple(&self, row: &[TupleId], rel: usize) -> Result<Row<'a>, PsqlError> {
        Ok(self.relations[rel].get(row[rel])?)
    }

    /// The spatial object a call's pointer column of `tuple` refers to.
    fn object_of(
        &self,
        tuple: Row<'a>,
        call: &BoundCall<'a>,
    ) -> Result<Cow<'a, SpatialObject>, PsqlError> {
        let obj_id = tuple
            .get(call.column.col)
            .as_pointer()
            .ok_or_else(|| PsqlError::Semantic("NULL loc in pictorial function".into()))?;
        let picture = call.picture.as_ref().map_err(PsqlError::clone)?;
        picture
            .object(obj_id)
            .ok_or_else(|| PsqlError::Semantic(format!("dangling pointer {obj_id}")))
    }

    fn apply(&self, call: &BoundCall<'a>, tuple: Row<'a>) -> Result<Value, PsqlError> {
        let object = self.object_of(tuple, call)?;
        let function = call.function.as_ref().map_err(PsqlError::clone)?;
        Ok(function(&object))
    }

    fn qualifies(&self, filter: &Filter, row: &[TupleId]) -> Result<bool, PsqlError> {
        match filter {
            Filter::Compare(Term::Column(rc), op, rhs) => {
                Ok(op.eval(self.tuple(row, rc.rel)?.get(rc.col), rhs.as_ref()))
            }
            Filter::Compare(Term::Call(i), op, rhs) => {
                let call = &self.calls[*i];
                let left = self.apply(call, self.tuple(row, call.column.rel)?)?;
                Ok(op.eval(left.as_ref(), rhs.as_ref()))
            }
            Filter::And(a, b) => Ok(self.qualifies(a, row)? && self.qualifies(b, row)?),
            Filter::Or(a, b) => Ok(self.qualifies(a, row)? || self.qualifies(b, row)?),
            Filter::Not(e) => Ok(!self.qualifies(e, row)?),
        }
    }
}

/// Convenience used by examples and benches: parse + execute.
pub fn query(db: &PictorialDatabase, text: &str) -> Result<ResultSet, PsqlError> {
    let q: Query = crate::parser::parse_query(text)?;
    execute(db, &q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> PictorialDatabase {
        PictorialDatabase::with_us_map()
    }

    fn names(result: &ResultSet, col: &str) -> Vec<String> {
        let mut v: Vec<String> = result
            .column(col)
            .unwrap()
            .into_iter()
            .map(Value::to_string)
            .collect();
        v.sort();
        v
    }

    #[test]
    fn figure_2_1_direct_spatial_search() {
        // "Find all cities in the Eastern US with population > 450,000."
        let db = db();
        let result = query(
            &db,
            "select city, state, population, loc from cities on us-map \
             at loc covered-by {82.5 +- 17.5, 25 +- 20} where population > 450000",
        )
        .unwrap();
        let cities = names(&result, "city");
        assert!(cities.contains(&"New York".to_string()));
        assert!(cities.contains(&"Boston".to_string()));
        assert!(cities.contains(&"Washington".to_string()));
        assert!(!cities.contains(&"Chicago".to_string()));
        assert!(!cities.contains(&"Los Angeles".to_string()));
        // Pictorial channel highlights the same qualifying objects.
        assert_eq!(result.highlights.len(), result.rows.len());
        assert!(result.highlights.iter().all(|h| h.picture == "us-map"));
    }

    #[test]
    fn figure_2_2_juxtaposition() {
        // Cities with their time zones — the geographic join.
        let db = db();
        let result = query(
            &db,
            "select city, zone from cities, time-zones on us-map, time-zone-map \
             at cities.loc covered-by time-zones.loc",
        )
        .unwrap();
        // Every city lands in exactly one vertical band.
        assert_eq!(result.len(), 42);
        let find = |city: &str| {
            result
                .rows
                .iter()
                .find(|r| r[0] == Value::str(city))
                .map(|r| r[1].to_string())
                .unwrap()
        };
        assert_eq!(find("Seattle"), "Pacific");
        assert_eq!(find("Denver"), "Mountain");
        assert_eq!(find("Chicago"), "Central");
        assert_eq!(find("New York"), "Eastern");
    }

    #[test]
    fn nested_mapping_lakes_in_eastern_states() {
        let db = db();
        let result = query(
            &db,
            "select lake from lakes on lake-map at lakes.loc covered-by \
             (select states.loc from states on state-map \
              at states.loc covered-by {78 +- 22, 25 +- 25})",
        )
        .unwrap();
        let lakes = names(&result, "lake");
        // The window [56,100]x[0,50] covers the Great Lakes state box
        // [60,72]x[26,40] and Florida [64,74]x[0,10]; Erie sits inside
        // the former, Okeechobee inside the latter.
        assert!(lakes.contains(&"Erie".to_string()), "{lakes:?}");
        assert!(lakes.contains(&"Okeechobee".to_string()), "{lakes:?}");
        // Great Salt (west) must not qualify, and Ontario straddles
        // state boxes so it is covered by none.
        assert!(!lakes.contains(&"Great Salt".to_string()));
        assert!(!lakes.contains(&"Ontario".to_string()));
    }

    #[test]
    fn index_scan_equals_full_scan() {
        let db = db();
        let indexed = query(&db, "select city from cities where population >= 6000000").unwrap();
        // Same query phrased to defeat the index (Ne is unindexable, so
        // force full scan via an OR).
        let scanned = query(
            &db,
            "select city from cities where population >= 6000000 or population >= 9000000000",
        )
        .unwrap();
        assert_eq!(names(&indexed, "city"), names(&scanned, "city"));
        assert!(indexed.len() >= 5);
    }

    #[test]
    fn pictorial_functions_in_select_and_where() {
        let db = db();
        let result = query(
            &db,
            "select lake, area(loc) from lakes where area(loc) >= 20",
        )
        .unwrap();
        // Superior (8x3 = 24) and Michigan (3x6.5 = 19.5)? Michigan is
        // 19.5 < 20, so only Superior qualifies.
        assert_eq!(names(&result, "lake"), vec!["Superior"]);
        assert_eq!(result.columns[1], "area(loc)");
    }

    #[test]
    fn overlapping_and_disjoined_windows() {
        let db = db();
        // Time zones overlapping the central window.
        let overlap = query(
            &db,
            "select zone from time-zones on time-zone-map \
             at loc overlapping {50 +- 10, 25 +- 25}",
        )
        .unwrap();
        let zones = names(&overlap, "zone");
        // [40,60] shares area with Mountain [20,42] and Central [42,62];
        // Eastern starts at 62 and is untouched.
        assert_eq!(zones, vec!["Central", "Mountain"]);
        let disjoint = query(
            &db,
            "select zone from time-zones on time-zone-map \
             at loc disjoined {10 +- 9, 25 +- 25}",
        )
        .unwrap();
        let dz = names(&disjoint, "zone");
        assert_eq!(dz, vec!["Central", "Eastern", "Mountain"]);
    }

    #[test]
    fn star_select_without_clauses() {
        let db = db();
        let result = query(&db, "select * from time-zones").unwrap();
        assert_eq!(result.len(), 4);
        assert_eq!(result.columns, vec!["zone", "hour-diff", "loc"]);
    }

    #[test]
    fn covering_window() {
        // Which time zone covers downtown Chicago's block?
        let db = db();
        let result = query(
            &db,
            "select zone from time-zones on time-zone-map \
             at loc covering {53 +- 1, 32 +- 1}",
        )
        .unwrap();
        assert_eq!(names(&result, "zone"), vec!["Central"]);
    }

    #[test]
    fn segments_on_highway_map() {
        let db = db();
        // Highway sections crossing the midwest window.
        let result = query(
            &db,
            "select hwy-name, hwy-section from highways on highway-map \
             at loc overlapping {50 +- 10, 30 +- 12} where hwy-name = 'I-90'",
        )
        .unwrap();
        assert!(!result.is_empty());
        assert!(result
            .column("hwy-name")
            .unwrap()
            .iter()
            .all(|v| **v == Value::str("I-90")));
    }

    #[test]
    fn aggregate_northest_of_highway() {
        // The paper's §2.1 example: the northest coordinate of any point
        // in a highway — I-90 ends in Seattle (y = 46), its highest point.
        let db = db();
        let result = query(
            &db,
            "select northest-of(loc), count-of(loc) from highways \
             where hwy-name = 'I-90'",
        )
        .unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.rows[0][0], Value::Float(46.0));
        assert_eq!(result.rows[0][1], Value::Int(7));
    }

    #[test]
    fn aggregate_with_spatial_restriction() {
        // Count cities inside the Eastern window.
        let db = db();
        let result = query(
            &db,
            "select count-of(loc) from cities on us-map \
             at loc covered-by {82.5 +- 17.5, 25 +- 20}",
        )
        .unwrap();
        assert_eq!(result.rows[0][0], Value::Int(12));
    }

    #[test]
    fn mixing_aggregates_and_columns_rejected() {
        let db = db();
        let err = query(&db, "select city, count-of(loc) from cities").unwrap_err();
        assert!(matches!(err, crate::error::PsqlError::Semantic(_)));
    }

    #[test]
    fn aggregate_over_empty_set() {
        let db = db();
        let result = query(
            &db,
            "select northest-of(loc), count-of(loc) from cities on us-map \
             at loc covered-by {0 +- 0.1, 0 +- 0.1}",
        )
        .unwrap();
        assert_eq!(result.rows[0][0], Value::Null);
        assert_eq!(result.rows[0][1], Value::Int(0));
    }

    #[test]
    fn order_by_and_limit_execution() {
        let db = db();
        let result = query(
            &db,
            "select city, population from cities order by population desc limit 3",
        )
        .unwrap();
        let cities: Vec<String> = result
            .column("city")
            .unwrap()
            .into_iter()
            .map(Value::to_string)
            .collect();
        assert_eq!(cities, vec!["New York", "Los Angeles", "Chicago"]);
        // Ascending, string keys.
        let result2 = query(&db, "select zone from time-zones order by zone limit 2").unwrap();
        let zones: Vec<String> = result2
            .column("zone")
            .unwrap()
            .into_iter()
            .map(Value::to_string)
            .collect();
        assert_eq!(zones, vec!["Central", "Eastern"]);
        // Order key need not be projected.
        let result3 = query(
            &db,
            "select city from cities order by population desc limit 1",
        )
        .unwrap();
        assert_eq!(result3.rows[0][0], Value::str("New York"));
    }

    #[test]
    fn nearest_query_ranks_by_distance() {
        // Three cities nearest downtown Chicago, closest first. The
        // query point sits on Chicago itself, so Chicago leads.
        let db = db();
        let result = query(
            &db,
            "select city from cities on us-map at loc nearest 3 {53 +- 0, 32 +- 0}",
        )
        .unwrap();
        let cities: Vec<String> = result
            .column("city")
            .unwrap()
            .into_iter()
            .map(Value::to_string)
            .collect();
        assert_eq!(cities.len(), 3);
        assert_eq!(cities[0], "Chicago");
        // k larger than the population returns everything.
        let all = query(
            &db,
            "select city from cities on us-map at loc nearest 1000 {53 +- 0, 32 +- 0}",
        )
        .unwrap();
        assert_eq!(all.len(), 42);
    }

    #[test]
    fn predefined_location_in_at_clause() {
        // §2.2: "The location variable may just be a name of a location
        // predefined outside the retrieve mapping."
        let mut db = db();
        db.define_location("gulf-coast", rtree_geom::Rect::new(38.0, 5.0, 55.0, 14.0));
        let result = query(
            &db,
            "select city from cities on us-map at loc covered-by gulf-coast",
        )
        .unwrap();
        let cities = names(&result, "city");
        assert!(cities.contains(&"Houston".to_string()), "{cities:?}");
        assert!(cities.contains(&"New Orleans".to_string()));
        assert!(!cities.contains(&"Chicago".to_string()));
    }

    #[test]
    fn batched_execution_matches_single_execution() {
        let db = db();
        let texts = [
            // Window searches over two pictures, all four operators.
            "select city from cities on us-map at loc covered-by {82.5 +- 17.5, 25 +- 20}",
            "select zone from time-zones on time-zone-map at loc overlapping {50 +- 10, 25 +- 25}",
            "select zone from time-zones on time-zone-map at loc covering {53 +- 1, 32 +- 1}",
            "select zone from time-zones on time-zone-map at loc disjoined {10 +- 9, 25 +- 25}",
            "select city from cities on us-map at loc covered-by {40 +- 20, 25 +- 20}",
            // Nearest, plain relational, aggregate and join plans.
            "select city from cities on us-map at loc nearest 3 {53 +- 0, 32 +- 0}",
            "select city from cities where population >= 6000000",
            "select count-of(loc) from cities on us-map at loc covered-by {82.5 +- 17.5, 25 +- 20}",
            "select city, zone from cities, time-zones on us-map, time-zone-map \
             at cities.loc covered-by time-zones.loc",
            // A planning failure must surface in its slot, not abort the batch.
            "select nonsense from cities",
        ];
        let queries: Vec<Query> = texts
            .iter()
            .map(|t| crate::parser::parse_query(t).unwrap())
            .collect();
        let functions = FunctionRegistry::with_builtins();
        let mut batch = rtree_index::BatchScratch::new();
        let batched = execute_batch_with_scratch(&db, &queries, &functions, &mut batch);
        assert_eq!(batched.len(), queries.len());
        let mut scratch = SearchScratch::new();
        for (i, q) in queries.iter().enumerate() {
            let single = execute_with_scratch(&db, q, &functions, &mut scratch);
            match (&batched[i], &single) {
                (Ok(b), Ok(s)) => {
                    assert_eq!(b.columns, s.columns, "query {i} columns");
                    assert_eq!(b.rows, s.rows, "query {i} rows");
                    assert_eq!(b.highlights, s.highlights, "query {i} highlights");
                }
                (Err(b), Err(s)) => assert_eq!(b, s, "query {i} error"),
                (b, s) => panic!("query {i}: batched {b:?} vs single {s:?}"),
            }
        }
    }

    #[test]
    fn two_loc_columns_into_one_picture_highlight_an_object_once() {
        use pictorial_relational::{Column, ColumnType, Schema};
        use rtree_geom::{Point, Rect};

        let mut db = PictorialDatabase::new(rtree_index::RTreeConfig::PAPER);
        db.create_picture("pic", Rect::new(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        db.catalog_mut()
            .create_relation(
                "routes",
                Schema::new(vec![
                    Column::new("route", ColumnType::Str),
                    Column::new("origin", ColumnType::Pointer),
                    Column::new("destination", ColumnType::Pointer),
                ])
                .unwrap(),
            )
            .unwrap();
        db.associate("routes", "origin", "pic").unwrap();
        db.associate("routes", "destination", "pic").unwrap();
        let mut stop = |x: f64, label: &str| {
            db.add_object("pic", SpatialObject::Point(Point::new(x, 1.0)), label)
                .unwrap()
        };
        let (a, b, c) = (stop(1.0, "A"), stop(2.0, "B"), stop(3.0, "C"));
        for (route, origin, destination) in [("ab", a, b), ("ba", b, a), ("aa", a, a), ("cb", c, b)]
        {
            db.insert(
                "routes",
                vec![
                    route.into(),
                    Value::Pointer(origin),
                    Value::Pointer(destination),
                ],
            )
            .unwrap();
        }

        let result = query(&db, "select route from routes").unwrap();
        assert_eq!(result.len(), 4);
        let marked: Vec<(&str, u64, &str)> = result
            .highlights
            .iter()
            .map(|h| (h.picture.as_str(), h.object, h.label.as_str()))
            .collect();
        // Row order, origin before destination, each object once.
        assert_eq!(marked, [("pic", a, "A"), ("pic", b, "B"), ("pic", c, "C")]);
        // Either column drives a direct search through its own backlinks.
        let from_b = query(
            &db,
            "select route from routes on pic at origin covered-by {2 +- 0.5, 1 +- 0.5}",
        )
        .unwrap();
        assert_eq!(names(&from_b, "route"), ["ba"]);
        let into_b = query(
            &db,
            "select route from routes on pic at destination covered-by {2 +- 0.5, 1 +- 0.5}",
        )
        .unwrap();
        assert_eq!(names(&into_b, "route"), ["ab", "cb"]);
    }

    /// A point outside a triangle but inside its MBR, two triangles
    /// that share no point but whose MBRs overlap, and a segment passing
    /// the point inside its MBR: every source, from either side and
    /// either `from` order, gives the exact answer, and `disjoined` is
    /// the complement of `overlapping`.
    #[test]
    fn a_point_in_a_triangles_mbr_is_disjoined_from_it_from_every_side() {
        use pictorial_relational::{Column, ColumnType, Schema};
        use rtree_geom::{Point, Rect, Region, Segment};

        let mut db = PictorialDatabase::new(rtree_index::RTreeConfig::PAPER);
        let frame = Rect::new(0.0, 0.0, 10.0, 10.0);
        let triangle = Region::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap();
        let upper = Region::new(vec![
            Point::new(10.0, 10.0),
            Point::new(10.0, 1.0),
            Point::new(1.0, 10.0),
        ])
        .unwrap();
        for (relation, column, picture, object) in [
            ("tris", "tri", "tri-map", SpatialObject::Region(triangle)),
            ("tops", "top", "top-map", SpatialObject::Region(upper)),
            (
                "pts",
                "pt",
                "pt-map",
                SpatialObject::Point(Point::new(9.0, 9.0)),
            ),
            (
                "segs",
                "seg",
                "seg-map",
                SpatialObject::Segment(Segment::new(Point::new(0.0, 10.0), Point::new(10.0, 0.0))),
            ),
        ] {
            db.create_picture(picture, frame).unwrap();
            db.catalog_mut()
                .create_relation(
                    relation,
                    Schema::new(vec![
                        Column::new(column, ColumnType::Str),
                        Column::new("loc", ColumnType::Pointer),
                    ])
                    .unwrap(),
                )
                .unwrap();
            db.associate(relation, "loc", picture).unwrap();
            let ptr = db.add_object(picture, object, column).unwrap();
            db.insert(relation, vec![column.into(), Value::Pointer(ptr)])
                .unwrap();
        }
        let cases = [
            ("select tri, pt from tris, pts on tri-map, pt-map at tris.loc overlapping pts.loc", 0),
            ("select pt, tri from pts, tris on pt-map, tri-map at pts.loc disjoined tris.loc", 1),
            ("select tri, pt from tris, pts on tri-map, pt-map at tris.loc disjoined pts.loc", 1),
            (
                "select tri from tris on tri-map at loc disjoined (select pts.loc from pts on pt-map)",
                1,
            ),
            ("select pt, tri from pts, tris on pt-map, tri-map at pts.loc overlapping tris.loc", 0),
            (
                "select pt from pts on pt-map at loc disjoined (select tris.loc from tris on tri-map)",
                1,
            ),
            ("select tri from tris on tri-map at loc overlapping {9 +- 0, 9 +- 0}", 0),
            ("select seg, pt from segs, pts on seg-map, pt-map at segs.loc overlapping pts.loc", 0),
            ("select pt, seg from pts, segs on pt-map, seg-map at segs.loc disjoined pts.loc", 1),
            (
                "select seg from segs on seg-map at loc overlapping (select pts.loc from pts on pt-map)",
                0,
            ),
            ("select seg from segs on seg-map at loc overlapping {9 +- 0, 9 +- 0}", 0),
            ("select seg from segs on seg-map at loc disjoined {9 +- 0, 9 +- 0}", 1),
            ("select tri, top from tris, tops on tri-map, top-map at tris.loc overlapping tops.loc", 0),
            ("select top, tri from tops, tris on top-map, tri-map at tris.loc overlapping tops.loc", 0),
            ("select tri, top from tris, tops on tri-map, top-map at tris.loc disjoined tops.loc", 1),
            ("select top, tri from tops, tris on top-map, tri-map at tops.loc disjoined tris.loc", 1),
            (
                "select top from tops on top-map at loc overlapping (select tris.loc from tris on tri-map)",
                0,
            ),
        ];
        for packed in [false, true] {
            if packed {
                db.pack_all();
            }
            for (text, rows) in cases {
                assert_eq!(
                    query(&db, text).unwrap().len(),
                    rows,
                    "{text} (packed {packed})"
                );
            }
        }
    }

    /// I-90#1 runs above Oregon through a corner of its rectangle's
    /// MBR: a window query over that rectangle, a juxtaposition and a
    /// nested mapping all answer the segment's exact relation to it.
    #[test]
    fn a_highway_in_a_states_mbr_answers_alike_from_every_source() {
        let db = db();
        for op in ["overlapping", "disjoined"] {
            let answers = [
                format!("select hwy-name, hwy-section from highways on highway-map at loc {op} {{6.5 +- 6.5, 39 +- 3}}"),
                format!(
                    "select hwy-name, hwy-section from highways, states on highway-map, state-map \
                     at highways.loc {op} states.loc where state = 'Oregon'"
                ),
                format!(
                    "select hwy-name, hwy-section from highways on highway-map at loc {op} \
                     (select states.loc from states on state-map where state = 'Oregon')"
                ),
            ]
            .map(|text| query(&db, &text).unwrap().rows);
            // Row for row: each source answers by ascending highway id.
            assert_eq!(answers[0], answers[1], "{op}: window vs juxtaposition");
            assert_eq!(answers[0], answers[2], "{op}: window vs nested mapping");
            let i90_1 = vec![Value::str("I-90"), Value::Int(1)];
            assert_eq!(answers[0].contains(&i90_1), op == "disjoined", "{op}");
        }
    }

    #[test]
    fn a_function_over_a_column_with_no_picture_fails_only_on_a_row() {
        use pictorial_relational::{Column, ColumnType, Schema};

        let mut db = PictorialDatabase::new(rtree_index::RTreeConfig::PAPER);
        db.catalog_mut()
            .create_relation(
                "marks",
                Schema::new(vec![
                    Column::new("mark", ColumnType::Str),
                    Column::new("spot", ColumnType::Pointer),
                ])
                .unwrap(),
            )
            .unwrap();
        // The plan holds the missing association; no row, no error.
        for text in [
            "select area(spot) from marks",
            "select mark from marks where area(spot) > 1",
        ] {
            assert!(query(&db, text).unwrap().is_empty(), "{text}");
        }
        db.insert("marks", vec!["x".into(), Value::Pointer(0)])
            .unwrap();
        let missing = PsqlError::Semantic("marks.spot has no picture association".into());
        for text in [
            "select area(spot) from marks",
            "select mark from marks where area(spot) > 1",
        ] {
            assert_eq!(query(&db, text), Err(missing.clone()), "{text}");
        }
    }

    #[test]
    fn juxtaposition_with_residual_order_by_and_limit() {
        // Two tuple ids per row: the residual reads both relations, the
        // sort key comes from either, the limit cuts whole rows, and the
        // highlights follow the rows that are left.
        let db = db();
        const JOIN: &str = "from cities, time-zones on us-map, time-zone-map \
                            at cities.loc covered-by time-zones.loc";
        let all = query(
            &db,
            &format!("select city, zone, population, hour-diff {JOIN}"),
        )
        .unwrap();
        assert_eq!(all.len(), 42);
        let qualifying =
            |row: &&Vec<Value>| row[2] > Value::Int(500_000) && row[3] >= Value::Int(-7);
        let expect = |mut rows: Vec<&Vec<Value>>, limit: usize| {
            rows.truncate(limit);
            let mut marked: Vec<(String, String)> = Vec::new();
            for row in &rows {
                for (picture, label) in [("us-map", &row[0]), ("time-zone-map", &row[1])] {
                    let mark = (picture.to_owned(), label.to_string());
                    if !marked.contains(&mark) {
                        marked.push(mark);
                    }
                }
            }
            let rows: Vec<Vec<Value>> = rows.iter().map(|r| r[..2].to_vec()).collect();
            (rows, marked)
        };
        let marks = |result: &ResultSet| -> Vec<(String, String)> {
            result
                .highlights
                .iter()
                .map(|h| (h.picture.clone(), h.label.clone()))
                .collect()
        };

        // Key from relation 0, descending.
        let mut rows: Vec<&Vec<Value>> = all.rows.iter().filter(qualifying).collect();
        assert!(rows.len() > 5 && rows.len() < 42, "{}", rows.len());
        rows.sort_by(|a, b| b[2].cmp(&a[2]));
        let (rows, marked) = expect(rows, 5);
        let got = query(
            &db,
            &format!(
                "select city, zone {JOIN} where population > 500000 and hour-diff >= -7 \
                 order by population desc limit 5"
            ),
        )
        .unwrap();
        assert_eq!(got.rows, rows);
        assert_eq!(marks(&got), marked);

        // Key from relation 1: ties keep the join's row order.
        let mut rows: Vec<&Vec<Value>> = all.rows.iter().filter(qualifying).collect();
        rows.sort_by(|a, b| a[1].cmp(&b[1]));
        let (rows, marked) = expect(rows, 7);
        let got = query(
            &db,
            &format!(
                "select city, zone {JOIN} where population > 500000 and hour-diff >= -7 \
                 order by zone limit 7"
            ),
        )
        .unwrap();
        assert_eq!(got.rows, rows);
        assert_eq!(marks(&got), marked);

        // Two relations need the juxtaposition to pair their tuples.
        assert!(matches!(
            query(&db, "select city, zone from cities, time-zones"),
            Err(PsqlError::Semantic(_))
        ));
    }

    #[test]
    fn empty_window_returns_nothing() {
        let db = db();
        let result = query(
            &db,
            "select city from cities on us-map at loc covered-by {0 +- 0.5, 0 +- 0.5}",
        )
        .unwrap();
        assert!(result.is_empty());
        assert!(result.highlights.is_empty());
    }

    #[test]
    fn degenerate_windows_are_safe_and_deterministic() {
        // Hostile window literals whose arithmetic leaves the finite
        // plane (a 400-digit literal parses to infinity; `inf - inf` is
        // NaN) must come back as *typed* errors through the executor,
        // never as a panic or a NaN-poisoned R-tree descent.
        let db = db();
        let huge = "9".repeat(400); // f64::from_str → +inf
        for text in [
            // Overflowing center, overflowing extent, and the inf-inf
            // NaN case, through both the at-clause and nearest.
            format!("select city from cities on us-map at loc covered-by {{{huge} +- 1, 25 +- 20}}"),
            format!("select city from cities on us-map at loc covered-by {{82.5 +- {huge}, 25 +- 20}}"),
            format!("select city from cities on us-map at loc overlapping {{{huge} +- {huge}, 25 +- 20}}"),
            format!("select city from cities on us-map at loc nearest 3 {{{huge} +- {huge}, 25 +- 0}}"),
        ] {
            match query(&db, &text) {
                Err(PsqlError::Parse(msg)) => assert!(msg.contains("finite"), "{text}: {msg}"),
                other => panic!("{text}: expected typed parse error, got {other:?}"),
            }
        }

        // Zero-area (point) windows are the legal degenerate case: all
        // four operators must answer, deterministically, on reruns.
        for op in ["covered-by", "overlapping", "covering", "disjoined"] {
            let text =
                format!("select city from cities on us-map at loc {op} {{53 +- 0, 32 +- 0}}");
            let first = query(&db, &text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let again = query(&db, &text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(first.rows, again.rows, "{text} nondeterministic");
        }
    }

    #[test]
    fn order_by_with_nan_keys_is_total_and_stable() {
        // exec's order-by comparator must be a total order even when the
        // key column contains NaN (total_cmp, not partial_cmp): every
        // row survives the sort, NaN lands at a deterministic end, and
        // reruns agree.
        let mut db = db();
        let obj = db
            .add_object(
                "state-map",
                rtree_geom::SpatialObject::Region(rtree_geom::Region::rectangle(
                    rtree_geom::Rect::new(1.0, 1.0, 2.0, 2.0),
                )),
                "Nanland",
            )
            .unwrap();
        db.insert(
            "states",
            vec!["Nanland".into(), f64::NAN.into(), Value::Pointer(obj)],
        )
        .unwrap();
        let total = db.catalog().relation("states").unwrap().len();

        let asc = query(&db, "select state from states order by population-density").unwrap();
        let desc = query(
            &db,
            "select state from states order by population-density desc",
        )
        .unwrap();
        assert_eq!(asc.len(), total, "sort dropped rows");
        assert_eq!(desc.len(), total, "sort dropped rows");
        // total_cmp orders NaN above every finite float: last ascending,
        // first descending.
        assert_eq!(asc.rows[total - 1][0], Value::str("Nanland"));
        assert_eq!(desc.rows[0][0], Value::str("Nanland"));
        let again = query(&db, "select state from states order by population-density").unwrap();
        assert_eq!(asc.rows, again.rows, "NaN sort nondeterministic");
    }
}
