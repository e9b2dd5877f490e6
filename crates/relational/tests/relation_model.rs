//! Random insert / delete / get / scan against a row-heap model
//! (`Vec<Option<Vec<Value>>>`: a slot per tuple, `None` once deleted),
//! through a `Catalog` with an index on every column. All four
//! column types carry NULLs; the float column carries `-0.0` and NaN; the
//! string column carries empty and multi-byte strings. After every
//! delete, every index's postings are checked against the model, and so
//! are random bounded and one-sided ranges over it.

use pictorial_relational::{
    Catalog, Column, ColumnType, RelationalError, Row, Schema, TupleId, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Bound::{Included, Unbounded};

type Model = Vec<Option<Vec<Value>>>;

const COLUMNS: [&str; 4] = ["s", "i", "f", "p"];

/// `Value`'s `PartialEq` calls NaN unequal to itself; `Debug` text tells
/// every typed value apart, `-0.0` from `0.0` included.
fn text(values: impl IntoIterator<Item = Value>) -> Vec<String> {
    values.into_iter().map(|v| format!("{v:?}")).collect()
}

fn row_text(row: Row<'_>) -> Vec<String> {
    text(row.iter().map(|v| v.to_value()))
}

fn random_tuple(rng: &mut StdRng) -> Vec<Value> {
    const STRS: [&str; 7] = ["", "a", "ab", "Zürich", "湖", "zz", "a\u{0}b"];
    const FLOATS: [f64; 6] = [-0.0, 0.0, 1.5, -2.25, f64::NAN, f64::INFINITY];
    let mut tuple = vec![
        Value::str(STRS[rng.gen_range(0..STRS.len())]),
        Value::Int(rng.gen_range(-50i64..50)),
        Value::Float(FLOATS[rng.gen_range(0..FLOATS.len())]),
        Value::Pointer(rng.gen_range(0u64..40)),
    ];
    for v in &mut tuple {
        if rng.gen_bool(0.15) {
            *v = Value::Null;
        }
    }
    tuple
}

fn check_get(catalog: &Catalog, model: &Model, id: u64) {
    let got = catalog.relation("r").unwrap().get(TupleId(id));
    match model.get(id as usize).and_then(Option::as_ref) {
        Some(tuple) => {
            let row = got.expect("live tuple");
            assert_eq!(row.len(), 4);
            assert_eq!(row_text(row), text(tuple.iter().cloned()), "tuple {id}");
            for (col, value) in tuple.iter().enumerate() {
                assert_eq!(row.get(col).cmp(&value.as_ref()), std::cmp::Ordering::Equal);
            }
        }
        None => assert!(matches!(got, Err(RelationalError::NoSuchTuple(t)) if t == id)),
    }
}

fn check_scan(catalog: &Catalog, model: &Model) {
    let relation = catalog.relation("r").unwrap();
    let got: Vec<(u64, Vec<String>)> = relation
        .scan()
        .map(|(tid, row)| (tid.0, row_text(row)))
        .collect();
    let expect: Vec<(u64, Vec<String>)> = model
        .iter()
        .enumerate()
        .filter_map(|(i, t)| Some((i as u64, text(t.as_ref()?.iter().cloned()))))
        .collect();
    assert_eq!(got, expect);
    assert_eq!(relation.len(), expect.len());
}

/// Every index's `(key, tid)` postings equal the model's live tuples'.
fn check_indexes(catalog: &Catalog, model: &Model, indexed: usize) {
    for (col, name) in COLUMNS.iter().enumerate().take(indexed) {
        let index = catalog.index("r", name).expect("index exists");
        assert!(
            index.values().all(|tids| !tids.is_empty()),
            "empty key on {name}"
        );
        let mut got: Vec<(Value, u64)> = index
            .iter()
            .flat_map(|(k, tids)| tids.iter().map(|tid| (k.clone(), tid.0)))
            .collect();
        let mut expect: Vec<(Value, u64)> = model
            .iter()
            .enumerate()
            .filter_map(|(i, t)| Some((t.as_ref()?[col].clone(), i as u64)))
            .collect();
        got.sort();
        expect.sort();
        let render = |postings: &[(Value, u64)]| -> Vec<String> {
            postings.iter().map(|(k, t)| format!("{k:?}@{t}")).collect()
        };
        assert_eq!(render(&got), render(&expect), "index on {name}");
    }
}

/// The tuple ids an index holds for `lo ≤ key ≤ hi`, either bound
/// optional, in the order the executor reads them.
fn range_tids(catalog: &Catalog, column: &str, lo: Option<&Value>, hi: Option<&Value>) -> Vec<u64> {
    let index = catalog.index("r", column).expect("index exists");
    let lo = lo.map_or(Unbounded, Included);
    let hi = hi.map_or(Unbounded, Included);
    index
        .range((lo, hi))
        .flat_map(|(_, tids)| tids.iter().map(|tid| tid.0))
        .collect()
}

/// Random `[lo, hi]` ranges over every index, bounds drawn from the
/// column's live keys: key order by `Value`'s `Ord`, a key's tuples in
/// insertion order, which is slot order here. Includes `lo == hi` and
/// both one-sided forms; never `lo > hi`, which the planner never builds.
fn check_ranges(catalog: &Catalog, model: &Model, indexed: usize, rng: &mut StdRng) {
    for (col, name) in COLUMNS.iter().enumerate().take(indexed) {
        let mut live: Vec<(Value, u64)> = model
            .iter()
            .enumerate()
            .filter_map(|(i, t)| Some((t.as_ref()?[col].clone(), i as u64)))
            .collect();
        if live.is_empty() {
            assert!(range_tids(catalog, name, None, None).is_empty());
            continue;
        }
        live.sort();
        for _ in 0..4 {
            let a = &live[rng.gen_range(0..live.len())].0;
            let b = &live[rng.gen_range(0..live.len())].0;
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let (lo, hi) = match rng.gen_range(0u32..4) {
                0 => (Some(lo), Some(lo)),
                1 => (Some(lo), None),
                2 => (None, Some(hi)),
                _ => (Some(lo), Some(hi)),
            };
            let expect: Vec<u64> = live
                .iter()
                .filter(|(k, _)| lo.is_none_or(|l| k >= l) && hi.is_none_or(|h| k <= h))
                .map(|&(_, tid)| tid)
                .collect();
            assert_eq!(
                range_tids(catalog, name, lo, hi),
                expect,
                "range [{lo:?}, {hi:?}] on {name}"
            );
        }
    }
}

fn run(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Range bounds draw from their own stream, so the operation sequence
    // is the same with or without range checks.
    let mut bounds = StdRng::seed_from_u64(!seed);
    let mut catalog = Catalog::new();
    let schema = Schema::new(vec![
        Column::new("s", ColumnType::Str),
        Column::new("i", ColumnType::Int),
        Column::new("f", ColumnType::Float),
        Column::new("p", ColumnType::Pointer),
    ])
    .unwrap();
    catalog.create_relation("r", schema).unwrap();
    let mut model: Model = Vec::new();
    let mut indexed = 0;
    let mut deletes = 0;
    for step in 0..3_000 {
        // Indexes arrive one by one, each back-filled from what is live.
        if step % 700 == 0 && indexed < COLUMNS.len() {
            catalog.create_index("r", COLUMNS[indexed]).unwrap();
            indexed += 1;
            check_indexes(&catalog, &model, indexed);
        }
        let id = rng.gen_range(0..model.len() as u64 + 3);
        match rng.gen_range(0u32..100) {
            0..=44 => {
                let tuple = random_tuple(&mut rng);
                let tid = catalog.insert("r", tuple.clone()).unwrap();
                assert_eq!(tid, TupleId(model.len() as u64), "ids are slots");
                model.push(Some(tuple));
            }
            45..=69 => {
                let got = catalog.delete("r", TupleId(id));
                match model.get_mut(id as usize).and_then(Option::take) {
                    Some(tuple) => assert_eq!(text(got.unwrap()), text(tuple)),
                    None => assert!(matches!(got, Err(RelationalError::NoSuchTuple(_)))),
                }
                deletes += 1;
                check_indexes(&catalog, &model, indexed);
                check_ranges(&catalog, &model, indexed, &mut bounds);
            }
            70..=94 => check_get(&catalog, &model, id),
            _ => check_scan(&catalog, &model),
        }
        // A wrongly typed or sized tuple changes nothing.
        if step % 97 == 0 {
            let before = model.len();
            assert!(catalog.insert("r", vec![Value::Int(1)]).is_err());
            assert!(catalog
                .insert(
                    "r",
                    vec![Value::Int(1), Value::Int(1), Value::Null, Value::Null]
                )
                .is_err());
            assert_eq!(catalog.relation("r").unwrap().scan().count(), {
                model.iter().flatten().count()
            });
            assert_eq!(model.len(), before);
        }
    }
    check_scan(&catalog, &model);
    assert_eq!(indexed, COLUMNS.len());
    assert!(deletes > 500 && model.iter().flatten().count() > 200);
    // A slot past the last never resolves.
    check_get(&catalog, &model, model.len() as u64);
    check_get(&catalog, &model, u64::MAX);
}

#[test]
fn relation_matches_row_model_at_seed_1985() {
    run(1985);
}

#[test]
fn relation_matches_row_model_at_seed_2718() {
    run(2718);
}

#[test]
fn relation_matches_row_model_at_seed_3141() {
    run(3141);
}
