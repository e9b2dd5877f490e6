//! The catalog: named relations and their secondary indexes.

use crate::error::RelationalError;
use crate::heap::{Relation, TupleId};
use crate::schema::Schema;
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// An index on one alphanumeric column: each key's tuples, keys in
/// [`Value`]'s order, a key's tuples in insertion order. No key holds an
/// empty list.
pub type Index = BTreeMap<Value, Vec<TupleId>>;

/// A database catalog: relations by name, plus B-tree indexes on
/// alphanumeric columns. Index maintenance is automatic for inserts and
/// deletes that go through the catalog.
///
/// `Clone` shares every relation and index with the original and costs
/// O(#relations + #indexes): the snapshot publication path of the query
/// service clones the whole database per write. A mutation copies just
/// the relation it touches (its few column planes, not a box per tuple)
/// and that relation's indexes, and only while a clone still shares
/// them.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    relations: HashMap<String, Arc<Relation>>,
    /// `relation → its indexes` as `(column index, column name, index)`:
    /// a probe borrows both names, and a write walks only the indexes of
    /// the relation it touches.
    indexes: HashMap<String, Vec<(usize, String, Arc<Index>)>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Creates a relation.
    pub fn create_relation(&mut self, name: &str, schema: Schema) -> Result<(), RelationalError> {
        if self.relations.contains_key(name) {
            return Err(RelationalError::RelationExists(name.to_owned()));
        }
        self.relations
            .insert(name.to_owned(), Arc::new(Relation::new(name, schema)));
        Ok(())
    }

    /// Borrows a relation.
    pub fn relation(&self, name: &str) -> Result<&Relation, RelationalError> {
        self.relations
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| RelationalError::NoSuchRelation(name.to_owned()))
    }

    /// Relation names, sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.relations.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Creates an index on `relation.column`, back-filling existing
    /// tuples.
    pub fn create_index(&mut self, relation: &str, column: &str) -> Result<(), RelationalError> {
        let rel = self
            .relations
            .get(relation)
            .ok_or_else(|| RelationalError::NoSuchRelation(relation.to_owned()))?;
        let idx = rel
            .schema()
            .index_of(column)
            .ok_or_else(|| RelationalError::NoSuchColumn(column.to_owned()))?;
        let mut index = Index::new();
        for (tid, row) in rel.scan() {
            index.entry(row.get(idx).to_value()).or_default().push(tid);
        }
        let index = Arc::new(index);
        let indexes = self.indexes.entry(relation.to_owned()).or_default();
        match indexes.iter_mut().find(|(_, name, _)| name == column) {
            Some(existing) => existing.2 = index,
            None => indexes.push((idx, column.to_owned(), index)),
        }
        Ok(())
    }

    /// The index on `relation.column`, if one exists.
    pub fn index(&self, relation: &str, column: &str) -> Option<&Index> {
        self.indexes
            .get(relation)?
            .iter()
            .find(|(_, name, _)| name == column)
            .map(|(_, _, index)| index.as_ref())
    }

    /// Inserts a tuple, maintaining all indexes on the relation.
    pub fn insert(
        &mut self,
        relation: &str,
        tuple: Vec<Value>,
    ) -> Result<TupleId, RelationalError> {
        let rel = self
            .relations
            .get_mut(relation)
            .map(Arc::make_mut)
            .ok_or_else(|| RelationalError::NoSuchRelation(relation.to_owned()))?;
        let tid = rel.insert(tuple)?;
        if let Some(indexes) = self.indexes.get_mut(relation) {
            let row = rel.get(tid)?;
            for (idx, _, index) in indexes {
                Arc::make_mut(index)
                    .entry(row.get(*idx).to_value())
                    .or_default()
                    .push(tid);
            }
        }
        Ok(tid)
    }

    /// Deletes a tuple, maintaining all indexes on the relation.
    pub fn delete(&mut self, relation: &str, tid: TupleId) -> Result<Vec<Value>, RelationalError> {
        let rel = self
            .relations
            .get_mut(relation)
            .map(Arc::make_mut)
            .ok_or_else(|| RelationalError::NoSuchRelation(relation.to_owned()))?;
        let tuple = rel.delete(tid)?;
        for (idx, _, index) in self.indexes.get_mut(relation).into_iter().flatten() {
            let index = Arc::make_mut(index);
            if let Some(tids) = index.get_mut(&tuple[*idx]) {
                tids.retain(|&t| t != tid);
                if tids.is_empty() {
                    index.remove(&tuple[*idx]);
                }
            }
        }
        Ok(tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn catalog_with_cities() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_relation(
            "cities",
            Schema::new(vec![
                Column::new("city", ColumnType::Str),
                Column::new("population", ColumnType::Int),
            ])
            .unwrap(),
        )
        .unwrap();
        cat
    }

    #[test]
    fn create_and_lookup() {
        let cat = catalog_with_cities();
        assert!(cat.relation("cities").is_ok());
        assert!(cat.relation("nope").is_err());
        assert_eq!(cat.relation_names(), vec!["cities"]);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut cat = catalog_with_cities();
        let schema = Schema::new(vec![]).unwrap();
        assert!(matches!(
            cat.create_relation("cities", schema),
            Err(RelationalError::RelationExists(_))
        ));
    }

    #[test]
    fn index_backfill_and_maintenance() {
        let mut cat = catalog_with_cities();
        let a = cat
            .insert("cities", vec!["Boston".into(), 4_900_000i64.into()])
            .unwrap();
        cat.create_index("cities", "population").unwrap();
        // Backfilled.
        assert_eq!(
            cat.index("cities", "population").unwrap()[&Value::Int(4_900_000)],
            [a]
        );
        // Maintained on insert.
        let b = cat
            .insert("cities", vec!["Miami".into(), 6_100_000i64.into()])
            .unwrap();
        assert_eq!(
            cat.index("cities", "population").unwrap()[&Value::Int(6_100_000)],
            [b]
        );
        // Maintained on delete.
        cat.delete("cities", a).unwrap();
        assert!(!cat
            .index("cities", "population")
            .unwrap()
            .contains_key(&Value::Int(4_900_000)));
        // Range through the index.
        let big = cat
            .index("cities", "population")
            .unwrap()
            .range(Value::Int(1_000_000)..);
        assert_eq!(big.count(), 1);
    }

    #[test]
    fn index_on_missing_column_rejected() {
        let mut cat = catalog_with_cities();
        assert!(cat.create_index("cities", "altitude").is_err());
        assert!(cat.create_index("towns", "city").is_err());
    }
}
