//! The PSQL executor.

use crate::ast::{ColumnRef, Expr, Operand, Query};
use crate::database::PictorialDatabase;
use crate::error::PsqlError;
use crate::functions::FunctionRegistry;
use crate::join::{picture_join, JoinStats};
use crate::plan::{self, Access, Plan, Projection, ResolvedColumn, SpatialStrategy};
use crate::result::{Highlight, ResultSet};
use crate::spatial::SpatialOp;
use pictorial_relational::{ColumnType, TupleId, Value};
use rtree_geom::SpatialObject;
use rtree_index::{BatchScratch, ItemId, SearchScratch};

/// Plans and executes a query with the built-in pictorial functions.
pub fn execute(db: &PictorialDatabase, query: &Query) -> Result<ResultSet, PsqlError> {
    execute_with(db, query, &FunctionRegistry::with_builtins())
}

/// Plans and executes with a caller-supplied function registry
/// (application-defined extensions, §2.1).
pub fn execute_with(
    db: &PictorialDatabase,
    query: &Query,
    functions: &FunctionRegistry,
) -> Result<ResultSet, PsqlError> {
    let plan = plan::plan(db, query)?;
    execute_plan(db, &plan, functions)
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

/// Executes an already-built plan.
pub fn execute_plan(
    db: &PictorialDatabase,
    plan: &Plan,
    functions: &FunctionRegistry,
) -> Result<ResultSet, PsqlError> {
    // One scratch per plan execution: every tree search in this query
    // (including the per-inner-tuple searches of nested mappings) reuses
    // the same traversal buffers instead of allocating per query.
    let mut scratch = SearchScratch::new();
    execute_plan_with_scratch(db, plan, functions, &mut scratch)
}

/// Executes an already-built plan with a caller-owned scratch.
pub fn execute_plan_with_scratch(
    db: &PictorialDatabase,
    plan: &Plan,
    functions: &FunctionRegistry,
    scratch: &mut SearchScratch,
) -> Result<ResultSet, PsqlError> {
    let rows = candidate_rows(db, plan, functions, scratch)?;
    finish_rows(db, plan, functions, rows)
}

/// Plans and executes a pack of queries, reusing a caller-owned
/// [`BatchScratch`], and returns per-query results **in input order**.
///
/// Queries whose plans are direct spatial searches (`at … covered-by /
/// overlapping / covering / disjoined` windows, or `at … nearest`) are
/// grouped by target picture and executed through the picture's batched
/// paths ([`search_windows_batch`](crate::picture::Picture::search_windows_batch) /
/// [`nearest_batch`](crate::picture::Picture::nearest_batch)): the
/// frozen tree traverses them in spatial (Z-order) groups over one
/// shared scratch, so a batch of nearby windows touches each hot node
/// once instead of once per query. Every other plan shape — and any
/// query that fails to plan — executes exactly as
/// [`execute_with_scratch`] would. Per-query results are bit-identical
/// to one-at-a-time execution either way.
pub fn execute_batch_with_scratch(
    db: &PictorialDatabase,
    queries: &[Query],
    functions: &FunctionRegistry,
    batch: &mut BatchScratch,
) -> Vec<Result<ResultSet, PsqlError>> {
    let plans: Vec<Result<Plan, PsqlError>> = queries.iter().map(|q| plan::plan(db, q)).collect();
    let mut out: Vec<Option<Result<ResultSet, PsqlError>>> = Vec::new();
    out.resize_with(queries.len(), || None);

    // Group batchable plans by (kind, picture name).
    let mut window_groups: Vec<(String, Vec<usize>)> = Vec::new();
    let mut nearest_groups: Vec<(String, Vec<usize>)> = Vec::new();
    let push = |groups: &mut Vec<(String, Vec<usize>)>, picture: &str, i: usize| match groups
        .iter_mut()
        .find(|(name, _)| name == picture)
    {
        Some((_, idxs)) => idxs.push(i),
        None => groups.push((picture.to_owned(), vec![i])),
    };
    for (i, planned) in plans.iter().enumerate() {
        match planned {
            Ok(plan) => match &plan.spatial {
                SpatialStrategy::Window { picture, .. } => push(&mut window_groups, picture, i),
                SpatialStrategy::Nearest { picture, .. } => push(&mut nearest_groups, picture, i),
                _ => {
                    out[i] = Some(execute_plan_with_scratch(
                        db,
                        plan,
                        functions,
                        batch.search(),
                    ));
                }
            },
            Err(e) => out[i] = Some(Err(e.clone())),
        }
    }

    for (picture_name, idxs) in window_groups {
        match db.picture(&picture_name) {
            Ok(pic) => {
                let specs: Vec<(SpatialOp, rtree_geom::Rect)> = idxs
                    .iter()
                    .map(|&i| match &plans[i] {
                        Ok(Plan {
                            spatial: SpatialStrategy::Window { op, window, .. },
                            ..
                        }) => (*op, *window),
                        _ => unreachable!("window group holds only window plans"),
                    })
                    .collect();
                let per_query = pic.search_windows_batch(&specs, batch);
                for (&i, objs) in idxs.iter().zip(&per_query) {
                    let plan = plans[i].as_ref().expect("grouped plans are Ok");
                    let SpatialStrategy::Window { column, .. } = &plan.spatial else {
                        unreachable!()
                    };
                    out[i] = Some(
                        objects_to_rows(db, plan, *column, objs)
                            .and_then(|rows| finish_rows(db, plan, functions, rows)),
                    );
                }
            }
            Err(_) => {
                // Missing picture: fall back so each query reports its
                // own error exactly as the single-query path would.
                for &i in &idxs {
                    let plan = plans[i].as_ref().expect("grouped plans are Ok");
                    out[i] = Some(execute_plan_with_scratch(
                        db,
                        plan,
                        functions,
                        batch.search(),
                    ));
                }
            }
        }
    }

    for (picture_name, idxs) in nearest_groups {
        match db.picture(&picture_name) {
            Ok(pic) => {
                let specs: Vec<(rtree_geom::Point, usize)> = idxs
                    .iter()
                    .map(|&i| match &plans[i] {
                        Ok(Plan {
                            spatial: SpatialStrategy::Nearest { k, point, .. },
                            ..
                        }) => (*point, *k),
                        _ => unreachable!("nearest group holds only nearest plans"),
                    })
                    .collect();
                let per_query = pic.nearest_batch(&specs, batch);
                for (&i, objs) in idxs.iter().zip(&per_query) {
                    let plan = plans[i].as_ref().expect("grouped plans are Ok");
                    let SpatialStrategy::Nearest { column, .. } = &plan.spatial else {
                        unreachable!()
                    };
                    out[i] = Some(
                        objects_to_rows(db, plan, *column, objs)
                            .and_then(|rows| finish_rows(db, plan, functions, rows)),
                    );
                }
            }
            Err(_) => {
                for &i in &idxs {
                    let plan = plans[i].as_ref().expect("grouped plans are Ok");
                    out[i] = Some(execute_plan_with_scratch(
                        db,
                        plan,
                        functions,
                        batch.search(),
                    ));
                }
            }
        }
    }

    out.into_iter()
        .map(|r| r.expect("every query executed"))
        .collect()
}

/// Turns candidate rows into a [`ResultSet`]: residual filter, order
/// by, limit, projection (including aggregates) and highlights.
fn finish_rows(
    db: &PictorialDatabase,
    plan: &Plan,
    functions: &FunctionRegistry,
    rows: Vec<Vec<TupleId>>,
) -> Result<ResultSet, PsqlError> {
    // Residual where-clause.
    #[allow(unused_mut)]
    let mut kept: Vec<Vec<TupleId>> = Vec::new();
    for row in rows {
        let keep = match &plan.residual {
            Some(expr) => eval_expr(db, plan, functions, &row, expr)?,
            None => true,
        };
        if keep {
            kept.push(row);
        }
    }

    // Ordering and limit (before projection so the sort key need not be
    // selected).
    if let Some((key, ascending)) = &plan.order_by {
        let mut keyed: Vec<(Value, Vec<TupleId>)> = Vec::with_capacity(kept.len());
        for row in kept {
            let v = column_value(db, plan, &row, *key)?.clone();
            keyed.push((v, row));
        }
        keyed.sort_by(|a, b| {
            if *ascending {
                a.0.cmp(&b.0)
            } else {
                b.0.cmp(&a.0)
            }
        });
        kept = keyed.into_iter().map(|(_, row)| row).collect();
    }
    if let Some(n) = plan.limit {
        kept.truncate(n);
    }

    // Projection.
    let columns: Vec<String> = plan
        .projection
        .iter()
        .map(|p| match p {
            Projection::Column { name, .. } | Projection::Function { name, .. } => name.clone(),
        })
        .collect();
    let has_aggregate = plan.projection.iter().any(
        |p| matches!(p, Projection::Function { function, .. } if functions.is_aggregate(function)),
    );
    let mut out_rows = Vec::with_capacity(if has_aggregate { 1 } else { kept.len() });
    if has_aggregate {
        // §2.1's aggregate pictorial functions (northest-of, …): the
        // qualifying rows collapse to a single output row; every target
        // must be an aggregate over a loc column.
        let mut out = Vec::with_capacity(plan.projection.len());
        for p in &plan.projection {
            match p {
                Projection::Function { function, arg, .. } if functions.is_aggregate(function) => {
                    let mut objects = Vec::with_capacity(kept.len());
                    for row in &kept {
                        objects.push(object_of(db, plan, row, *arg)?);
                    }
                    out.push(functions.apply_aggregate(function, &objects)?);
                }
                _ => {
                    return Err(PsqlError::Semantic(
                        "aggregate queries may only select aggregate functions".into(),
                    ))
                }
            }
        }
        out_rows.push(out);
    } else {
        for row in &kept {
            let mut out = Vec::with_capacity(plan.projection.len());
            for p in &plan.projection {
                match p {
                    Projection::Column { source, .. } => {
                        out.push(column_value(db, plan, row, *source)?.clone());
                    }
                    Projection::Function {
                        function,
                        arg,
                        name: _,
                    } => {
                        let obj = object_of(db, plan, row, *arg)?;
                        out.push(functions.apply(function, &obj)?);
                    }
                }
            }
            out_rows.push(out);
        }
    }

    // Highlights: every qualifying tuple's associated loc objects. Which
    // columns those are is a property of the plan's relations, resolved
    // once; the row loop only follows pointers.
    let mut loc_sources = Vec::new();
    for (rel_idx, rel_name) in plan.relations.iter().enumerate() {
        let rel = db.catalog().relation(rel_name)?;
        for (col_name, picture_name) in db.loc_columns(rel_name) {
            if let Some(col_idx) = rel.schema().index_of(col_name) {
                loc_sources.push((
                    rel_idx,
                    rel,
                    col_idx,
                    picture_name,
                    db.picture(picture_name)?,
                ));
            }
        }
    }
    let mut highlights: Vec<Highlight> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for row in &kept {
        for &(rel_idx, rel, col_idx, picture_name, picture) in &loc_sources {
            if let Some(obj) = rel.get(row[rel_idx])?[col_idx].as_pointer() {
                if seen.insert((picture_name, obj)) {
                    highlights.push(Highlight {
                        picture: picture_name.to_owned(),
                        object: obj,
                        label: picture.label(obj).unwrap_or("").to_owned(),
                    });
                }
            }
        }
    }

    Ok(ResultSet {
        columns,
        rows: out_rows,
        highlights,
    })
}

/// Produces candidate rows (one `TupleId` per `from`-relation).
fn candidate_rows(
    db: &PictorialDatabase,
    plan: &Plan,
    functions: &FunctionRegistry,
    scratch: &mut SearchScratch,
) -> Result<Vec<Vec<TupleId>>, PsqlError> {
    match &plan.spatial {
        SpatialStrategy::None => {
            let rel_name = &plan.relations[0];
            let rel = db.catalog().relation(rel_name)?;
            let tids: Vec<TupleId> = match &plan.access {
                Access::FullScan => rel.scan().map(|(tid, _)| tid).collect(),
                Access::IndexRange { column, lo, hi } => {
                    let index = db.catalog().index(rel_name, column).ok_or_else(|| {
                        PsqlError::Internal(format!(
                            "planner chose missing index {rel_name}.{column}"
                        ))
                    })?;
                    index
                        .range(lo.as_ref(), hi.as_ref())
                        .into_iter()
                        .map(|(_, tid)| tid)
                        .collect()
                }
            };
            Ok(tids.into_iter().map(|t| vec![t]).collect())
        }
        SpatialStrategy::Window {
            column,
            picture,
            op,
            window,
        } => {
            let pic = db.picture(picture)?;
            let objs = pic.search_window_fast(*op, window, scratch);
            objects_to_rows(db, plan, *column, &objs)
        }
        SpatialStrategy::Nearest {
            column,
            picture,
            k,
            point,
        } => {
            let pic = db.picture(picture)?;
            // Rows come back ascending by distance; objects_to_rows
            // preserves that order for the result set.
            let objs = pic.nearest_fast(*point, *k, scratch);
            objects_to_rows(db, plan, *column, &objs)
        }
        SpatialStrategy::Nested {
            column,
            picture,
            op,
            inner,
        } => {
            // Execute the inner mapping; its single projected column is a
            // loc pointer into the inner picture. It shares this query's
            // scratch: the inner searches are done (and their results
            // copied out) before the outer searches begin.
            let inner_result = execute_plan_with_scratch(db, inner, functions, scratch)?;
            let (inner_rel, inner_col) = match &inner.projection[0] {
                Projection::Column { source, .. } => {
                    let rel_name = inner.relations[source.rel].as_str();
                    (rel_name, loc_column_name(db, rel_name, *source)?)
                }
                Projection::Function { .. } => {
                    return Err(PsqlError::Semantic(
                        "nested mapping must select a loc column".into(),
                    ))
                }
            };
            let inner_picture_name = db.association(inner_rel, inner_col).ok_or_else(|| {
                PsqlError::Semantic(format!("{inner_rel}.{inner_col} has no picture"))
            })?;
            let inner_picture = db.picture(inner_picture_name)?;

            // "The binding of the top level window is dynamically done
            // during the evaluation of the query": search the outer
            // picture once per inner location.
            let pic = db.picture(picture)?;
            let mut objs: Vec<u64> = Vec::new();
            let mut dedupe = std::collections::HashSet::new();
            for row in &inner_result.rows {
                let Some(obj_id) = row[0].as_pointer() else {
                    continue;
                };
                let inner_obj = inner_picture.object(obj_id).ok_or_else(|| {
                    PsqlError::Semantic(format!("dangling pointer {obj_id} in nested result"))
                })?;
                for cand in
                    pic.search_window_fast(SpatialOp::Overlapping, &inner_obj.mbr(), scratch)
                {
                    let outer_obj = pic.object(cand).ok_or_else(|| {
                        PsqlError::Internal(format!("search returned unknown object {cand}"))
                    })?;
                    if op.eval_objects(outer_obj, inner_obj) && dedupe.insert(cand) {
                        objs.push(cand);
                    }
                }
                // Disjointness cannot be found via overlap candidates.
                if *op == SpatialOp::Disjoined {
                    for cand in pic.object_ids() {
                        let outer_obj = pic.object(cand).ok_or_else(|| {
                            PsqlError::Internal(format!("object id {cand} out of range"))
                        })?;
                        if op.eval_objects(outer_obj, inner_obj) && dedupe.insert(cand) {
                            objs.push(cand);
                        }
                    }
                }
            }
            objects_to_rows(db, plan, *column, &objs)
        }
        SpatialStrategy::Juxtapose {
            left,
            left_picture,
            right,
            right_picture,
            op,
        } => {
            let lp = db.picture(left_picture)?;
            let rp = db.picture(right_picture)?;
            let mut join_stats = JoinStats::default();
            // Frozen joins are bit-identical to pointer-tree joins (same
            // pair order, same stats) and are used whenever both sides
            // are packed; buffered delta writes merge in as extra join
            // terms (see `picture_join`).
            let pairs = picture_join(lp, rp, *op, &mut join_stats);
            let lrel = &plan.relations[left.rel];
            let rrel = &plan.relations[right.rel];
            let lcol = loc_column_name(db, lrel, *left)?;
            let rcol = loc_column_name(db, rrel, *right)?;
            let mut rows = Vec::new();
            for (ItemId(lo), ItemId(ro)) in pairs {
                let lobj = lp.object(lo).ok_or_else(|| {
                    PsqlError::Internal(format!("join produced unknown left object {lo}"))
                })?;
                let robj = rp.object(ro).ok_or_else(|| {
                    PsqlError::Internal(format!("join produced unknown right object {ro}"))
                })?;
                if !op.eval_objects(lobj, robj) {
                    continue;
                }
                for &lt in db.tuples_of_object(lrel, lcol, lo) {
                    for &rt in db.tuples_of_object(rrel, rcol, ro) {
                        // Row slots are ordered by from-position.
                        let mut row = vec![TupleId(0); 2];
                        row[left.rel] = lt;
                        row[right.rel] = rt;
                        rows.push(row);
                    }
                }
            }
            Ok(rows)
        }
    }
}

/// Maps qualifying object ids back to tuples of relation 0 (forward
/// direct search through the backward pointers, §2.1).
fn objects_to_rows(
    db: &PictorialDatabase,
    plan: &Plan,
    column: ResolvedColumn,
    objs: &[u64],
) -> Result<Vec<Vec<TupleId>>, PsqlError> {
    let rel_name = &plan.relations[column.rel];
    let col_name = loc_column_name(db, rel_name, column)?;
    let mut rows = Vec::new();
    for &obj in objs {
        for &tid in db.tuples_of_object(rel_name, col_name, obj) {
            rows.push(vec![tid]);
        }
    }
    Ok(rows)
}

fn loc_column_name<'a>(
    db: &'a PictorialDatabase,
    rel_name: &str,
    rc: ResolvedColumn,
) -> Result<&'a str, PsqlError> {
    let schema = db.catalog().relation(rel_name)?.schema();
    Ok(&schema.columns()[rc.col].name)
}

fn column_value<'a>(
    db: &'a PictorialDatabase,
    plan: &Plan,
    row: &[TupleId],
    rc: ResolvedColumn,
) -> Result<&'a Value, PsqlError> {
    let rel_name = &plan.relations[rc.rel];
    let rel = db.catalog().relation(rel_name)?;
    Ok(&rel.get(row[rc.rel])?[rc.col])
}

/// The spatial object a pointer column of this row refers to.
fn object_of(
    db: &PictorialDatabase,
    plan: &Plan,
    row: &[TupleId],
    rc: ResolvedColumn,
) -> Result<SpatialObject, PsqlError> {
    let rel_name = &plan.relations[rc.rel];
    let rel = db.catalog().relation(rel_name)?;
    let schema = rel.schema();
    debug_assert_eq!(schema.columns()[rc.col].ty, ColumnType::Pointer);
    let value = &rel.get(row[rc.rel])?[rc.col];
    let obj_id = value
        .as_pointer()
        .ok_or_else(|| PsqlError::Semantic("NULL loc in pictorial function".into()))?;
    let col_name = &schema.columns()[rc.col].name;
    let picture = db.association(rel_name, col_name).ok_or_else(|| {
        PsqlError::Semantic(format!("{rel_name}.{col_name} has no picture association"))
    })?;
    db.picture(picture)?
        .object(obj_id)
        .cloned()
        .ok_or_else(|| PsqlError::Semantic(format!("dangling pointer {obj_id}")))
}

fn eval_expr(
    db: &PictorialDatabase,
    plan: &Plan,
    functions: &FunctionRegistry,
    row: &[TupleId],
    expr: &Expr,
) -> Result<bool, PsqlError> {
    match expr {
        Expr::Compare { lhs, op, rhs } => {
            let left = match lhs {
                Operand::Column(cr) => resolve_value(db, plan, row, cr)?,
                Operand::Function { name, arg } => {
                    let rc = resolve_ref(db, plan, arg)?;
                    let obj = object_of(db, plan, row, rc)?;
                    functions.apply(name, &obj)?
                }
            };
            Ok(op.eval(&left, rhs))
        }
        Expr::And(a, b) => {
            Ok(eval_expr(db, plan, functions, row, a)? && eval_expr(db, plan, functions, row, b)?)
        }
        Expr::Or(a, b) => {
            Ok(eval_expr(db, plan, functions, row, a)? || eval_expr(db, plan, functions, row, b)?)
        }
        Expr::Not(e) => Ok(!eval_expr(db, plan, functions, row, e)?),
    }
}

fn resolve_ref(
    db: &PictorialDatabase,
    plan: &Plan,
    cr: &ColumnRef,
) -> Result<ResolvedColumn, PsqlError> {
    plan::Resolver {
        db,
        from: &plan.relations,
    }
    .resolve(cr)
}

fn resolve_value(
    db: &PictorialDatabase,
    plan: &Plan,
    row: &[TupleId],
    cr: &ColumnRef,
) -> Result<Value, PsqlError> {
    let rc = resolve_ref(db, plan, cr)?;
    Ok(column_value(db, plan, row, rc)?.clone())
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
