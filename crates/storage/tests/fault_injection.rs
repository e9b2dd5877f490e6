//! End-to-end fault-injection tests: corruption detection and
//! crash/reopen behaviour of the page-resident tree.
//!
//! The unit tests in `src/` cover each mechanism in isolation; these
//! tests drive whole trees through [`FaultPager`] and assert the
//! crash-safety contract of DESIGN.md §9:
//!
//! * damage is *detected* — bit flips and torn writes surface as
//!   [`StorageError::Corrupt`], never as a garbage decode or a panic;
//! * the [`DiskRTree`] rebuild-and-swap commit is *atomic* — a crash at
//!   any write during `store_with_meta` leaves the previous image
//!   readable and correct.

use rtree_geom::{Point, Rect};
use rtree_index::{ItemId, RTree, RTreeConfig, SearchStats};
use rtree_storage::fault::{FaultKind, FaultPager, FaultScript};
use rtree_storage::{BufferPool, DiskRTree, Pager, StorageError};

fn sample_tree(n: u64, stride: u64) -> RTree {
    let mut t = RTree::new(RTreeConfig::PAPER);
    for i in 0..n {
        let x = (i * stride % 1009) as f64;
        let y = (i * 91 % 997) as f64;
        t.insert(Rect::from_point(Point::new(x, y)), ItemId(i));
    }
    t
}

fn sorted_hits(disk: &DiskRTree, pager: &Pager, window: &Rect) -> Vec<ItemId> {
    let pool = BufferPool::new(pager, 64);
    let mut stats = SearchStats::default();
    let mut v = disk.search_within(&pool, window, &mut stats).unwrap();
    v.sort();
    v
}

#[test]
fn bit_flip_in_node_page_fails_search_as_corrupt() {
    let tree = sample_tree(300, 37);
    let pager = Pager::temp().unwrap();
    let disk = DiskRTree::store_with_meta(&tree, &pager).unwrap();

    // Flip one bit in the root page behind the pager's back.
    let mut raw = pager.read_page_raw(disk.root()).unwrap();
    raw.bytes_mut()[40] ^= 0x04;
    pager.write_page_raw(disk.root(), &raw).unwrap();

    let pool = BufferPool::new(&pager, 16);
    let mut stats = SearchStats::default();
    let err = disk
        .search_within(&pool, &Rect::new(0.0, 0.0, 2000.0, 2000.0), &mut stats)
        .unwrap_err();
    match err {
        StorageError::Corrupt { page, ref reason } => {
            assert_eq!(page, disk.root());
            assert!(reason.contains("checksum"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn crash_at_every_write_during_restore_rolls_back() {
    // Store image A, snapshot the file, then for EVERY physical write k
    // of a replacement store of image B: restore the snapshot, crash at
    // write k (torn), reopen cold, and demand image A — bit-for-bit the
    // same query answers. The final trial (k past the end) commits B.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("fault-restore-matrix-{}.db", std::process::id()));
    let tree_a = sample_tree(120, 37);
    let tree_b = sample_tree(240, 53);
    let window = Rect::new(50.0, 50.0, 800.0, 800.0);

    {
        let pager = Pager::create(&path).unwrap();
        DiskRTree::store_with_meta(&tree_a, &pager).unwrap();
    }
    let snapshot = std::fs::read(&path).unwrap();
    let expect_a = {
        let pager = Pager::open(&path).unwrap();
        let disk = DiskRTree::open_default(&pager).unwrap();
        sorted_hits(&disk, &pager, &window)
    };

    // Dry run to count B's writes (node pages + 1 meta slot).
    let total_writes = {
        let pager = Pager::open(&path).unwrap();
        let faulty = FaultPager::new(&pager, FaultScript::new());
        DiskRTree::store_with_meta(&tree_b, &faulty).unwrap();
        faulty.writes_seen()
    };
    assert!(total_writes > 3, "matrix needs several crash points");

    for k in 1..=total_writes + 1 {
        std::fs::write(&path, &snapshot).unwrap();
        let crashed = {
            let pager = Pager::open(&path).unwrap();
            let script = FaultScript::new().on_write(k, FaultKind::TornWrite, true);
            let faulty = FaultPager::new(&pager, script);
            DiskRTree::store_with_meta(&tree_b, &faulty).is_err()
        };
        assert_eq!(crashed, k <= total_writes, "crash point {k}");

        let pager = Pager::open(&path).unwrap();
        let disk = DiskRTree::open_default(&pager)
            .unwrap_or_else(|e| panic!("crash point {k}: open failed: {e}"));
        if crashed {
            assert_eq!(disk.epoch(), 1, "crash point {k}: must roll back to A");
            assert_eq!(disk.len(), tree_a.len(), "crash point {k}");
            assert_eq!(
                sorted_hits(&disk, &pager, &window),
                expect_a,
                "crash point {k}: rolled-back image must answer as A"
            );
        } else {
            assert_eq!(disk.epoch(), 2, "no fault fired: B committed");
            assert_eq!(disk.len(), tree_b.len());
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_write_without_crash_is_reported_and_file_still_opens() {
    let path = std::env::temp_dir().join(format!("fault-failwrite-{}.db", std::process::id()));
    let tree_a = sample_tree(80, 37);
    {
        let pager = Pager::create(&path).unwrap();
        DiskRTree::store_with_meta(&tree_a, &pager).unwrap();
    }
    {
        let pager = Pager::open(&path).unwrap();
        let script = FaultScript::new().on_write(3, FaultKind::FailWrite, false);
        let faulty = FaultPager::new(&pager, script);
        let err = DiskRTree::store_with_meta(&sample_tree(160, 53), &faulty).unwrap_err();
        assert!(!err.is_corrupt(), "plain write failure is I/O: {err:?}");
    }
    let pager = Pager::open(&path).unwrap();
    let disk = DiskRTree::open_default(&pager).unwrap();
    assert_eq!(disk.len(), tree_a.len(), "aborted store left A committed");
}

#[test]
fn transient_read_fails_once_then_search_succeeds() {
    let tree = sample_tree(200, 37);
    let pager = Pager::temp().unwrap();
    let disk = DiskRTree::store_with_meta(&tree, &pager).unwrap();

    let script = FaultScript::new().on_read(1, FaultKind::TransientRead, false);
    let faulty = FaultPager::new(&pager, script);
    let pool = BufferPool::new(&faulty, 32);
    let window = Rect::new(0.0, 0.0, 500.0, 500.0);
    let mut stats = SearchStats::default();
    let err = disk.search_within(&pool, &window, &mut stats).unwrap_err();
    assert!(
        !err.is_corrupt(),
        "transient EIO is not corruption: {err:?}"
    );
    // Nothing was cached from the failed read; the retry re-faults.
    let got = disk.search_within(&pool, &window, &mut stats).unwrap();
    let mut expect = {
        let mut s = SearchStats::default();
        tree.search_within(&window, &mut s)
    };
    expect.sort();
    let mut got = got;
    got.sort();
    assert_eq!(got, expect);
}
