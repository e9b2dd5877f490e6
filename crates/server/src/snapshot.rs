//! Snapshot-isolated sharing of the pictorial database.
//!
//! Readers (query workers) and writers (the admin path: re-PACK, load
//! picture) never contend on the database itself. The database lives
//! inside an immutable, epoch-stamped [`DatabaseSnapshot`] behind an
//! [`Arc`]; publication replaces the whole `Arc` at once, so a query
//! either sees the old database or the new one — never a half-built tree.
//!
//! A worker pins the current snapshot once per dequeued batch, under the
//! publication mutex for the length of an `Arc::clone`. Writers hold
//! that mutex *only for the pointer swap* — snapshot construction
//! (clone + mutate, or re-pack) happens entirely outside it.
//!
//! Snapshots are **structurally shared**: `PictorialDatabase::clone`
//! copies a handful of `Arc`s, and a mutation copies only what it
//! touches — an insert, one picture's delta (at most `merge_threshold`
//! objects), never a packed generation. So publishing a write costs
//! O(delta) and consecutive snapshots share the packed objects, labels,
//! trees, relations and backlink maps. A packed generation is freed by
//! reference counting once the last snapshot holding it is dropped —
//! which is why a worker drops its pin before it blocks for more work.

use psql::database::PictorialDatabase;
use std::sync::{Arc, Mutex};

/// An immutable, epoch-stamped view of the whole pictorial database.
#[derive(Debug)]
pub struct DatabaseSnapshot {
    /// Publication epoch: 1 for the snapshot the server started with,
    /// +1 for every publication since.
    pub epoch: u64,
    /// The database (pictures + packed R-trees + relations). Immutable:
    /// there is deliberately no way to get `&mut` through a snapshot.
    pub db: PictorialDatabase,
}

/// The publication point: one atomically-swapped current snapshot.
#[derive(Debug)]
pub struct SnapshotCell {
    slot: Mutex<Arc<DatabaseSnapshot>>,
}

impl SnapshotCell {
    /// Wraps the initial database as epoch-1.
    pub fn new(db: PictorialDatabase) -> Self {
        SnapshotCell {
            slot: Mutex::new(Arc::new(DatabaseSnapshot { epoch: 1, db })),
        }
    }

    /// Epoch of the currently-published snapshot.
    pub fn current_epoch(&self) -> u64 {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).epoch
    }

    /// Pins the current snapshot: takes the publication lock for the
    /// duration of an `Arc::clone`.
    pub fn load(&self) -> Arc<DatabaseSnapshot> {
        Arc::clone(&self.slot.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Publishes `db` as the next snapshot and returns its epoch. The
    /// lock is held only for the swap itself.
    pub fn publish(&self, db: PictorialDatabase) -> u64 {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        let epoch = slot.epoch + 1;
        *slot = Arc::new(DatabaseSnapshot { epoch, db });
        epoch
    }

    /// Read-modify-publish: clones the current database (structurally
    /// shared, so cheap), applies `mutate` to the clone *outside any
    /// lock*, then publishes the result. Concurrent readers keep serving
    /// from the old snapshot throughout.
    ///
    /// Concurrent `update`s serialize only at the final swap; the last
    /// publication wins (admin operations are expected to be rare and
    /// externally coordinated).
    pub fn update(&self, mutate: impl FnOnce(&mut PictorialDatabase)) -> u64 {
        let base = self.load();
        let mut db = base.db.clone();
        drop(base); // release the pin before the (possibly long) mutation
        mutate(&mut db);
        self.publish(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::Rect;
    use rtree_index::RTreeConfig;

    fn tiny_db() -> PictorialDatabase {
        let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
        db.create_picture("p", Rect::new(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        db
    }

    #[test]
    fn epochs_advance_and_loads_follow() {
        let cell = SnapshotCell::new(tiny_db());
        let s1 = cell.load();
        assert_eq!(s1.epoch, 1);
        // No publication in between: same Arc.
        let s1b = cell.load();
        assert!(Arc::ptr_eq(&s1, &s1b));

        let e2 = cell.update(|db| {
            db.create_picture("q", Rect::new(0.0, 0.0, 1.0, 1.0))
                .unwrap();
        });
        assert_eq!(e2, 2);
        assert_eq!(cell.current_epoch(), 2);
        let s2 = cell.load();
        assert_eq!(s2.epoch, 2);
        assert!(s2.db.picture("q").is_ok());
        // The old pin still serves the old view.
        assert!(s1.db.picture("q").is_err());
    }

    #[test]
    fn update_mutates_a_clone_not_the_published_snapshot() {
        let cell = SnapshotCell::new(tiny_db());
        let before = cell.load();
        cell.update(|db| {
            db.create_picture("added", Rect::new(0.0, 0.0, 1.0, 1.0))
                .unwrap();
        });
        assert!(before.db.picture("added").is_err(), "old snapshot mutated");
        assert!(cell.load().db.picture("added").is_ok());
    }

    #[test]
    fn concurrent_readers_see_only_whole_snapshots() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cell = Arc::new(SnapshotCell::new(tiny_db()));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut observed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = cell.load();
                    // Each published epoch k has pictures p, e2..ek —
                    // i.e. exactly `epoch` pictures. A torn snapshot
                    // would break this invariant.
                    let mut count = 0;
                    for i in 2..=snap.epoch {
                        if snap.db.picture(&format!("e{i}")).is_ok() {
                            count += 1;
                        }
                    }
                    assert_eq!(count, snap.epoch - 1, "torn snapshot");
                    observed = observed.max(snap.epoch);
                }
                observed
            }));
        }
        for i in 2..=20u64 {
            let got = cell.update(|db| {
                db.create_picture(&format!("e{i}"), Rect::new(0.0, 0.0, 1.0, 1.0))
                    .unwrap();
            });
            assert_eq!(got, i);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.current_epoch(), 20);
    }
}
