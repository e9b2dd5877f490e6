//! The pictorial database: pictures + relations + their associations.
//!
//! Realizes Figure 1.1's integrated architecture: the alphanumeric
//! processor is a [`Catalog`] of relations with B-tree indexes, the
//! pictorial processor a set of [`Picture`]s with packed R-trees, and the
//! association between them is the `loc` pointer column (§2.1) plus the
//! *backward* map from objects to tuples maintained here.

use crate::error::PsqlError;
use crate::picture::Picture;
use pictorial_relational::{Catalog, ColumnType, Schema, TupleId, Value};
use rtree_geom::{Rect, SpatialObject};
use rtree_index::RTreeConfig;
use std::collections::HashMap;
use std::sync::Arc;

/// One `loc` (pointer) column of a relation: the picture it points into
/// and the backward pointers from that picture's objects to the tuples.
#[derive(Debug, Clone)]
struct LocColumn {
    column: String,
    picture: String,
    /// Shared between clones until one inserts.
    backlinks: Arc<Backlinks>,
}

/// The backward pointers of one `loc` column: object id → the tuples
/// pointing at it, in insertion order.
///
/// Object ids are dense per picture and append-only, and nearly every
/// object is pointed at by exactly one tuple, so the map is an array
/// indexed by object id holding that one tuple inline. Whatever does not
/// fit a slot lives in `overflow`: an object with several tuples (its
/// slot reads [`SPILLED`]) and a pointer at or past the picture's length
/// when its tuple arrived (no slot is grown for it, so a hostile
/// `Pointer(u64::MAX)` costs one map entry).
#[derive(Debug, Clone, Default)]
pub(crate) struct Backlinks {
    /// `dense[object]` is the object's one tuple, [`VACANT`] or
    /// [`SPILLED`]; never longer than the picture.
    dense: Vec<TupleId>,
    overflow: HashMap<u64, Vec<TupleId>>,
}

/// Slot of an object no tuple points at (or whose tuples sit in the
/// overflow map without a slot having been claimed for them).
const VACANT: TupleId = TupleId(u64::MAX);
/// Slot of an object whose tuples are listed in the overflow map.
const SPILLED: TupleId = TupleId(u64::MAX - 1);

impl Backlinks {
    /// Tuples pointing at `object`, oldest first.
    pub(crate) fn tuples(&self, object: u64) -> &[TupleId] {
        let slot = usize::try_from(object).ok().and_then(|i| self.dense.get(i));
        match slot {
            Some(tid) if *tid < SPILLED => std::slice::from_ref(tid),
            // A vacant slot can still have overflow entries: pointers
            // that arrived before the picture grew past them.
            _ => self.overflow.get(&object).map_or(&[], Vec::as_slice),
        }
    }

    /// Records that `tid` points at `object` of a picture currently
    /// holding `picture_len` objects.
    fn insert(&mut self, object: u64, tid: TupleId, picture_len: usize) {
        let index = usize::try_from(object).ok().filter(|&i| i < picture_len);
        let Some(index) = index else {
            self.overflow.entry(object).or_default().push(tid);
            return;
        };
        if self.dense.len() <= index {
            self.dense.resize(index + 1, VACANT);
        }
        let slot = &mut self.dense[index];
        // A tuple id that collides with a marker cannot sit in a slot.
        if *slot == VACANT && tid < SPILLED && !self.overflow.contains_key(&object) {
            *slot = tid;
            return;
        }
        let list = self.overflow.entry(object).or_default();
        if *slot < SPILLED {
            list.push(*slot);
        }
        list.push(tid);
        *slot = SPILLED;
    }

    /// Forgets that `tid` points at `object`.
    fn remove(&mut self, object: u64, tid: TupleId) {
        let slot = usize::try_from(object)
            .ok()
            .and_then(|i| self.dense.get_mut(i));
        match slot {
            Some(slot) if *slot < SPILLED => {
                if *slot == tid {
                    *slot = VACANT;
                }
            }
            _ => {
                if let Some(list) = self.overflow.get_mut(&object) {
                    list.retain(|&t| t != tid);
                }
            }
        }
    }
}

/// The integrated pictorial + alphanumeric database PSQL runs against.
///
/// The read path (planning + execution of `select` mappings) takes
/// `&self` only, and its one piece of interior mutability is a `Sync`,
/// write-once cell per never-queried, never-packed [`Picture`] (the
/// first query builds that picture's tree in it), so a shared database
/// is `Sync`-safe to query from many threads at once; mutation requires
/// `&mut self`. The concurrent query service exploits this by cloning the
/// database, mutating the copy, and publishing it as a fresh immutable
/// snapshot.
///
/// `Clone` is **structurally shared**: pictures, relations, indexes and
/// backlink maps sit behind [`Arc`]s, so a clone costs O(#pictures +
/// #relations) and a mutation copies only what it touches, through
/// [`Arc::make_mut`] — [`add_object`](Self::add_object) one picture's
/// delta (its packed generation stays shared, see [`Picture`]),
/// [`insert`](Self::insert) one relation and its backlink maps. Nothing
/// written through a clone is ever visible through the original.
#[derive(Debug, Clone)]
pub struct PictorialDatabase {
    catalog: Catalog,
    pictures: HashMap<String, Arc<Picture>>,
    /// `relation → its loc columns`, in association order.
    loc_columns: HashMap<String, Vec<LocColumn>>,
    /// Named location constants usable in `at`-clauses (§2.2: "a name of
    /// a location predefined outside the retrieve mapping").
    locations: HashMap<String, Rect>,
    config: RTreeConfig,
}

impl PictorialDatabase {
    /// Creates an empty database whose pictures index with `config`.
    pub fn new(config: RTreeConfig) -> Self {
        PictorialDatabase {
            catalog: Catalog::new(),
            pictures: HashMap::new(),
            loc_columns: HashMap::new(),
            locations: HashMap::new(),
            config,
        }
    }

    /// The alphanumeric catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (for creating relations and indexes).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Creates a picture.
    pub fn create_picture(&mut self, name: &str, frame: Rect) -> Result<(), PsqlError> {
        if self.pictures.contains_key(name) {
            return Err(PsqlError::Semantic(format!(
                "picture {name:?} already exists"
            )));
        }
        let picture = Picture::new(name, frame, self.config);
        self.pictures.insert(name.to_owned(), Arc::new(picture));
        Ok(())
    }

    /// Borrows a picture.
    pub fn picture(&self, name: &str) -> Result<&Picture, PsqlError> {
        self.pictures
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| PsqlError::Semantic(format!("no such picture {name:?}")))
    }

    /// Every picture, in no particular order.
    pub fn pictures(&self) -> impl Iterator<Item = &Picture> {
        self.pictures.values().map(Arc::as_ref)
    }

    /// Adds an object to a picture, returning the pointer value for `loc`
    /// columns. While a clone of this database still shares the picture,
    /// this first copies its delta part (never its packed generation).
    pub fn add_object(
        &mut self,
        picture: &str,
        object: SpatialObject,
        label: &str,
    ) -> Result<u64, PsqlError> {
        let picture = self
            .pictures
            .get_mut(picture)
            .map(Arc::make_mut)
            .ok_or_else(|| PsqlError::Semantic(format!("no such picture {picture:?}")))?;
        Ok(picture.add(object, label))
    }

    /// Declares that `relation.column` points into `picture` — one
    /// association per picture a relation is tied to ("a pictorial
    /// relation could be associated with more than one picture", §2.1).
    pub fn associate(
        &mut self,
        relation: &str,
        column: &str,
        picture: &str,
    ) -> Result<(), PsqlError> {
        let rel = self.catalog.relation(relation)?;
        let col_idx = match rel.schema().index_of(column) {
            Some(i) if rel.schema().columns()[i].ty == ColumnType::Pointer => i,
            Some(_) => {
                return Err(PsqlError::Semantic(format!(
                    "{relation}.{column} is not a pointer column"
                )))
            }
            None => {
                return Err(PsqlError::Semantic(format!(
                    "no column {column:?} in {relation:?}"
                )))
            }
        };
        let picture_len = self.picture(picture)?.len();
        // Backfill backward pointers for tuples inserted before the
        // association was declared, so association order doesn't matter.
        let mut backlinks = Backlinks::default();
        for (tid, row) in rel.scan() {
            if let Some(obj) = row.get(col_idx).as_pointer() {
                backlinks.insert(obj, tid, picture_len);
            }
        }
        let entry = LocColumn {
            column: column.to_owned(),
            picture: picture.to_owned(),
            backlinks: Arc::new(backlinks),
        };
        let columns = self.loc_columns.entry(relation.to_owned()).or_default();
        match columns.iter_mut().find(|c| c.column == column) {
            Some(existing) => *existing = entry,
            None => columns.push(entry),
        }
        Ok(())
    }

    fn loc_column(&self, relation: &str, column: &str) -> Option<&LocColumn> {
        self.loc_columns
            .get(relation)?
            .iter()
            .find(|c| c.column == column)
    }

    /// The picture `relation.column` points into.
    pub fn association(&self, relation: &str, column: &str) -> Option<&str> {
        self.loc_column(relation, column)
            .map(|c| c.picture.as_str())
    }

    /// The `loc` (pointer) columns of a relation as `(column, picture)`,
    /// in association order.
    pub fn loc_columns<'a>(
        &'a self,
        relation: &str,
    ) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        self.loc_columns
            .get(relation)
            .into_iter()
            .flatten()
            .map(|c| (c.column.as_str(), c.picture.as_str()))
    }

    /// Inserts a tuple, maintaining indexes and object→tuple backlinks
    /// for every associated pointer column.
    pub fn insert(&mut self, relation: &str, tuple: Vec<Value>) -> Result<TupleId, PsqlError> {
        let tid = self.catalog.insert(relation, tuple)?;
        let stored = self.catalog.relation(relation)?;
        let (schema, row) = (stored.schema(), stored.get(tid)?);
        for loc in self.loc_columns.get_mut(relation).into_iter().flatten() {
            let pointer = schema
                .index_of(&loc.column)
                .and_then(|i| row.get(i).as_pointer());
            if let Some(obj) = pointer {
                let picture_len = self.pictures.get(&loc.picture).map_or(0, |p| p.len());
                Arc::make_mut(&mut loc.backlinks).insert(obj, tid, picture_len);
            }
        }
        Ok(tid)
    }

    /// Deletes a tuple, maintaining indexes and backlinks.
    pub fn delete(&mut self, relation: &str, tid: TupleId) -> Result<Vec<Value>, PsqlError> {
        let tuple = self.catalog.delete(relation, tid)?;
        let schema = self.catalog.relation(relation)?.schema();
        for loc in self.loc_columns.get_mut(relation).into_iter().flatten() {
            let pointer = schema
                .index_of(&loc.column)
                .and_then(|i| tuple[i].as_pointer());
            if let Some(obj) = pointer {
                Arc::make_mut(&mut loc.backlinks).remove(obj, tid);
            }
        }
        Ok(tuple)
    }

    /// Tuples whose `relation.column` pointer equals `object` — the
    /// forward direct search of §2.1 ("the identifier's value … is used
    /// to select the relation's tuples … when it retrieves using the
    /// picture").
    pub fn tuples_of_object(&self, relation: &str, column: &str, object: u64) -> &[TupleId] {
        self.backlinks(relation, column)
            .map_or(&[], |links| links.tuples(object))
    }

    /// The backward pointers of `relation.column`, for callers that
    /// follow many of them: the names are resolved once.
    pub(crate) fn backlinks(&self, relation: &str, column: &str) -> Option<&Backlinks> {
        self.loc_column(relation, column)
            .map(|c| c.backlinks.as_ref())
    }

    /// Defines (or replaces) a named location constant for `at`-clauses:
    /// `at loc covered-by eastern-us` resolves `eastern-us` through this
    /// registry.
    pub fn define_location(&mut self, name: &str, window: Rect) {
        self.locations.insert(name.to_owned(), window);
    }

    /// Looks up a named location.
    pub fn location(&self, name: &str) -> Option<Rect> {
        self.locations.get(name).copied()
    }

    /// Re-packs every picture's R-tree (done once after bulk loading).
    pub fn pack_all(&mut self) {
        for pic in self.pictures.values_mut() {
            Arc::make_mut(pic).pack();
        }
    }

    /// Folds every nonempty delta tree back into a freshly packed +
    /// frozen main tree, leaving untouched pictures alone. Returns the
    /// number of pictures merged. Like [`pack_all`](Self::pack_all), the
    /// server runs this on a snapshot clone, off every lock, and installs
    /// the result with [`adopt_merge`](Self::adopt_merge).
    pub fn merge_deltas(&mut self) -> usize {
        let mut merged = 0;
        for pic in self.pictures.values_mut() {
            if pic.needs_merge() {
                Arc::make_mut(pic).pack();
                merged += 1;
            }
        }
        merged
    }

    /// Installs a rebuild into `self`, the database as it is *now*:
    /// `merged` is a clone of `base` after [`pack_all`](Self::pack_all)
    /// or [`merge_deltas`](Self::merge_deltas), and `self` descends from
    /// `base` by whatever was written while the rebuild packed. Each
    /// picture whose generation the rebuild replaced replaces its
    /// counterpart here, after the objects added since `base` — ids
    /// `[merged.len, self.len)` — are re-added into its delta, so no
    /// write is lost and ids are kept.
    ///
    /// Returns `false`, leaving `self` untouched, when some rebuilt
    /// picture no longer serves `base`'s generation here: another pack
    /// was published meanwhile, and the rebuild is stale.
    pub fn adopt_merge(&mut self, base: &PictorialDatabase, merged: &PictorialDatabase) -> bool {
        let mut adopted = Vec::new();
        for (name, packed) in &merged.pictures {
            let (Some(before), Some(current)) = (base.pictures.get(name), self.pictures.get(name))
            else {
                return false;
            };
            if packed.generation() == before.generation() {
                continue;
            }
            if current.generation() != before.generation() {
                return false;
            }
            let mut packed = Picture::clone(packed);
            for id in packed.len() as u64..current.len() as u64 {
                let object = current.object(id).expect("id below len").into_owned();
                packed.add(object, current.label(id).expect("id below len"));
            }
            adopted.push((name.clone(), Arc::new(packed)));
        }
        self.pictures.extend(adopted);
        true
    }

    /// Total objects buffered in delta trees across all pictures.
    pub fn delta_len(&self) -> usize {
        self.pictures.values().map(|p| p.delta_len()).sum()
    }

    /// `true` while no packed picture has lost its frozen compilation to
    /// a dynamic write — the write path's invariant: inserts buffer in
    /// delta trees and the frozen main tree keeps serving. A packed
    /// generation owns its arena, so this now holds by construction; it
    /// stays as the observable form of that guarantee (STATS, the
    /// fuzzer). (Never-packed pictures don't count against this.)
    pub fn frozen_intact(&self) -> bool {
        self.pictures
            .values()
            .filter(|p| p.packed_len() > 0)
            .all(|p| p.frozen().is_some())
    }

    /// Builds the synthetic US database of `rtree-workload`: pictures
    /// `us-map`, `state-map`, `time-zone-map`, `lake-map`, `highway-map`
    /// and relations `cities`, `states`, `time-zones`, `lakes`,
    /// `highways`, all packed — the standing example of §2.
    pub fn with_us_map() -> Self {
        use rtree_workload::usmap;

        let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
        let frame = usmap::FRAME;
        for pic in [
            "us-map",
            "state-map",
            "time-zone-map",
            "lake-map",
            "highway-map",
        ] {
            db.create_picture(pic, frame).expect("fresh picture");
        }

        let mk = |cols: &[(&str, ColumnType)]| {
            Schema::new(
                cols.iter()
                    .map(|&(n, t)| pictorial_relational::Column::new(n, t))
                    .collect(),
            )
            .expect("valid schema")
        };

        // cities(city, state, population, loc) on us-map.
        db.catalog_mut()
            .create_relation(
                "cities",
                mk(&[
                    ("city", ColumnType::Str),
                    ("state", ColumnType::Str),
                    ("population", ColumnType::Int),
                    ("loc", ColumnType::Pointer),
                ]),
            )
            .expect("fresh relation");
        db.associate("cities", "loc", "us-map").expect("assoc");
        for c in usmap::cities() {
            let obj = db
                .add_object("us-map", SpatialObject::Point(c.location), c.name)
                .expect("picture exists");
            db.insert(
                "cities",
                vec![
                    c.name.into(),
                    c.state.into(),
                    c.population.into(),
                    Value::Pointer(obj),
                ],
            )
            .expect("valid tuple");
        }
        db.catalog_mut()
            .create_index("cities", "population")
            .expect("index");

        // states(state, population-density, loc) on state-map.
        db.catalog_mut()
            .create_relation(
                "states",
                mk(&[
                    ("state", ColumnType::Str),
                    ("population-density", ColumnType::Float),
                    ("loc", ColumnType::Pointer),
                ]),
            )
            .expect("fresh relation");
        db.associate("states", "loc", "state-map").expect("assoc");
        for (i, s) in usmap::states().into_iter().enumerate() {
            let density = 20.0 + (i as f64 * 13.7) % 90.0; // synthetic
            let obj = db
                .add_object("state-map", SpatialObject::Region(s.region.clone()), s.name)
                .expect("picture exists");
            db.insert(
                "states",
                vec![s.name.into(), density.into(), Value::Pointer(obj)],
            )
            .expect("valid tuple");
        }

        // time-zones(zone, hour-diff, loc) on time-zone-map.
        db.catalog_mut()
            .create_relation(
                "time-zones",
                mk(&[
                    ("zone", ColumnType::Str),
                    ("hour-diff", ColumnType::Int),
                    ("loc", ColumnType::Pointer),
                ]),
            )
            .expect("fresh relation");
        db.associate("time-zones", "loc", "time-zone-map")
            .expect("assoc");
        for (name, hour_diff, region) in usmap::time_zones() {
            let obj = db
                .add_object("time-zone-map", SpatialObject::Region(region), name)
                .expect("picture exists");
            db.insert(
                "time-zones",
                vec![name.into(), hour_diff.into(), Value::Pointer(obj)],
            )
            .expect("valid tuple");
        }

        // lakes(lake, area, volume, loc) on lake-map.
        db.catalog_mut()
            .create_relation(
                "lakes",
                mk(&[
                    ("lake", ColumnType::Str),
                    ("area", ColumnType::Float),
                    ("volume", ColumnType::Float),
                    ("loc", ColumnType::Pointer),
                ]),
            )
            .expect("fresh relation");
        db.associate("lakes", "loc", "lake-map").expect("assoc");
        for (name, area, volume, region) in usmap::lakes() {
            let obj = db
                .add_object("lake-map", SpatialObject::Region(region), name)
                .expect("picture exists");
            db.insert(
                "lakes",
                vec![name.into(), area.into(), volume.into(), Value::Pointer(obj)],
            )
            .expect("valid tuple");
        }

        // highways(hwy-name, hwy-section, loc) on highway-map.
        db.catalog_mut()
            .create_relation(
                "highways",
                mk(&[
                    ("hwy-name", ColumnType::Str),
                    ("hwy-section", ColumnType::Int),
                    ("loc", ColumnType::Pointer),
                ]),
            )
            .expect("fresh relation");
        db.associate("highways", "loc", "highway-map")
            .expect("assoc");
        for h in usmap::highways() {
            let label = format!("{}#{}", h.highway, h.section);
            let obj = db
                .add_object("highway-map", SpatialObject::Segment(h.segment), &label)
                .expect("picture exists");
            db.insert(
                "highways",
                vec![
                    h.highway.into(),
                    (h.section as i64).into(),
                    Value::Pointer(obj),
                ],
            )
            .expect("valid tuple");
        }

        db.pack_all();
        // The Figure 2.1 window as a predefined location (§2.2).
        db.define_location("eastern-us", usmap::EASTERN_WINDOW);
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::Point;

    #[test]
    fn us_map_loads() {
        let db = PictorialDatabase::with_us_map();
        assert_eq!(db.catalog().relation("cities").unwrap().len(), 42);
        assert_eq!(db.picture("us-map").unwrap().len(), 42);
        assert_eq!(db.picture("time-zone-map").unwrap().len(), 4);
        assert_eq!(db.association("cities", "loc"), Some("us-map"));
        db.picture("us-map")
            .unwrap()
            .tree()
            .validate_with(false)
            .unwrap();
        // pack_all freezes every picture, so the query hot path serves
        // from the contiguous arena.
        for pic in ["us-map", "state-map", "time-zone-map", "lake-map"] {
            assert!(db.picture(pic).unwrap().frozen().is_some(), "{pic}");
        }
    }

    #[test]
    fn backlinks_resolve_objects_to_tuples() {
        let db = PictorialDatabase::with_us_map();
        let pic = db.picture("us-map").unwrap();
        // Find the object labelled "Boston" and map it back to a tuple.
        let boston = pic
            .object_ids()
            .find(|&id| pic.label(id) == Some("Boston"))
            .unwrap();
        let tids = db.tuples_of_object("cities", "loc", boston);
        assert_eq!(tids.len(), 1);
        let tuple = db
            .catalog()
            .relation("cities")
            .unwrap()
            .get(tids[0])
            .unwrap();
        assert_eq!(tuple.get(0), pictorial_relational::ValueRef::Str("Boston"));
    }

    #[test]
    fn delete_clears_backlink() {
        let mut db = PictorialDatabase::with_us_map();
        let pic = db.picture("us-map").unwrap();
        let boston = pic
            .object_ids()
            .find(|&id| pic.label(id) == Some("Boston"))
            .unwrap();
        let tid = db.tuples_of_object("cities", "loc", boston)[0];
        db.delete("cities", tid).unwrap();
        assert!(db.tuples_of_object("cities", "loc", boston).is_empty());
    }

    #[test]
    fn associate_after_insert_backfills_backlinks() {
        // Tuples inserted before associate() must still be reachable
        // through the picture.
        let mut db = things_db();
        let obj = db
            .add_object("pic", SpatialObject::Point(Point::new(1.0, 1.0)), "a")
            .unwrap();
        // Insert BEFORE associating.
        let tid = db
            .insert("things", vec!["a".into(), Value::Pointer(obj)])
            .unwrap();
        assert!(db.tuples_of_object("things", "loc", obj).is_empty());
        db.associate("things", "loc", "pic").unwrap();
        assert_eq!(db.tuples_of_object("things", "loc", obj), &[tid]);
    }

    /// `things(name, loc)` and an empty picture `pic`, not associated.
    fn things_db() -> PictorialDatabase {
        let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
        db.create_picture("pic", Rect::new(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        db.catalog_mut()
            .create_relation(
                "things",
                Schema::new(vec![
                    pictorial_relational::Column::new("name", ColumnType::Str),
                    pictorial_relational::Column::new("loc", ColumnType::Pointer),
                ])
                .unwrap(),
            )
            .unwrap();
        db
    }

    #[test]
    fn backlinks_match_a_hash_map_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        /// The backward map as it used to be kept.
        type Model = HashMap<u64, Vec<TupleId>>;
        // Pointers that must never claim a slot.
        const FAR: [u64; 3] = [u64::MAX, u64::MAX - 1, 1 << 40];

        fn check(db: &PictorialDatabase, model: &Model, what: &str) {
            let len = db.picture("pic").unwrap().len() as u64;
            for obj in (0..len + 12).chain(FAR) {
                assert_eq!(
                    db.tuples_of_object("things", "loc", obj),
                    model.get(&obj).map_or(&[][..], Vec::as_slice),
                    "object {obj} {what}"
                );
            }
            if let Some(loc) = db.loc_columns.get("things").and_then(|c| c.first()) {
                assert!(
                    loc.backlinks.dense.len() as u64 <= len,
                    "a slot was grown past the picture {what}"
                );
            }
        }

        for seed in [1985u64, 2718, 3141] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut db = things_db();
            let mut model = Model::new();
            // (tuple, the object it points at), live tuples only.
            let mut live: Vec<(TupleId, u64)> = Vec::new();
            let mut removed: Vec<u64> = Vec::new();
            let mut snapshot: Option<(PictorialDatabase, Model)> = None;

            for step in 0..1500 {
                if step == 300 {
                    // Declared after tuples exist: the backfill must
                    // find every one of them, in insertion order.
                    check(&db, &Model::new(), "before the association");
                    db.associate("things", "loc", "pic").unwrap();
                    check(&db, &model, "after the backfill");
                }
                if step == 900 {
                    snapshot = Some((db.clone(), model.clone()));
                }
                let len = db.picture("pic").unwrap().len() as u64;
                match rng.gen_range(0..10) {
                    0..=2 => {
                        let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                        db.add_object("pic", SpatialObject::Point(at), "o").unwrap();
                    }
                    3..=7 => {
                        let obj = match rng.gen_range(0..12) {
                            // An object of the picture, often one that
                            // already has tuples.
                            0..=5 if len > 0 => rng.gen_range(0..len),
                            6 if !live.is_empty() => live[rng.gen_range(0..live.len())].1,
                            // A pointer whose tuple was deleted.
                            7 if !removed.is_empty() => removed[rng.gen_range(0..removed.len())],
                            // At, past and far past the picture's length.
                            8 => len,
                            9 => len + rng.gen_range(1..10u64),
                            10 => FAR[rng.gen_range(0..FAR.len())],
                            _ => {
                                db.insert("things", vec!["null".into(), Value::Null])
                                    .unwrap();
                                continue;
                            }
                        };
                        let tid = db
                            .insert("things", vec!["t".into(), Value::Pointer(obj)])
                            .unwrap();
                        model.entry(obj).or_default().push(tid);
                        live.push((tid, obj));
                    }
                    _ if !live.is_empty() => {
                        let (tid, obj) = live.swap_remove(rng.gen_range(0..live.len()));
                        db.delete("things", tid).unwrap();
                        model.get_mut(&obj).unwrap().retain(|&t| t != tid);
                        removed.push(obj);
                    }
                    _ => {}
                }
                if step >= 300 && step % 7 == 0 {
                    check(&db, &model, &format!("at step {step} of seed {seed}"));
                }
            }
            check(&db, &model, "at the end");
            // Everything written since the clone stayed out of it.
            let (old_db, old_model) = snapshot.unwrap();
            check(&old_db, &old_model, "in the earlier clone");
        }
    }

    #[test]
    fn associate_rejects_non_pointer_column() {
        let mut db = PictorialDatabase::with_us_map();
        assert!(db.associate("cities", "population", "us-map").is_err());
        assert!(db.associate("cities", "nope", "us-map").is_err());
        assert!(db.associate("cities", "loc", "no-map").is_err());
    }

    #[test]
    fn duplicate_picture_rejected() {
        let mut db = PictorialDatabase::with_us_map();
        assert!(db
            .create_picture("us-map", Rect::new(0.0, 0.0, 1.0, 1.0))
            .is_err());
    }

    #[test]
    fn dynamic_object_and_tuple_insert() {
        let mut db = PictorialDatabase::with_us_map();
        let obj = db
            .add_object(
                "us-map",
                SpatialObject::Point(Point::new(50.0, 25.0)),
                "Springfield",
            )
            .unwrap();
        let tid = db
            .insert(
                "cities",
                vec![
                    "Springfield".into(),
                    "IL".into(),
                    600_000i64.into(),
                    Value::Pointer(obj),
                ],
            )
            .unwrap();
        assert_eq!(db.tuples_of_object("cities", "loc", obj), &[tid]);
        assert_eq!(db.catalog().relation("cities").unwrap().len(), 43);
    }
}
