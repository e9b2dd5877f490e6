//! Crash/reopen differential: rebuild a committed [`DiskRTree`] from a
//! 60-item "pre" tree to an 80-item "post" tree with
//! [`DiskRTree::store_with_meta`] through [`FaultPager`], crashing at
//! every physical write, and run the full oracle battery on every
//! survivor — deep structural validation of the page image plus
//! engine-vs-linear-scan search on the pages.
//!
//! A rebuild appends fresh pages and commits with one meta flip, so the
//! contract is exact: every crash point reopens to "pre" at epoch 1, and
//! only the fault-free control run commits "post", at epoch 2.

use rtree_geom::{Point, Rect};
use rtree_index::{ItemId, RTree, RTreeConfig, SearchStats};
use rtree_oracle::{reference, validate_deep, DeepChecks, TreeImage};
use rtree_storage::fault::{FaultKind, FaultPager, FaultScript};
use rtree_storage::{BufferPool, DiskRTree, Pager};

fn sorted(mut ids: Vec<ItemId>) -> Vec<ItemId> {
    ids.sort_unstable_by_key(|&ItemId(i)| i);
    ids
}

fn windows() -> [Rect; 3] {
    [
        Rect::new(0.0, 0.0, 250.0, 250.0),
        Rect::new(40.0, 40.0, 120.0, 150.0),
        Rect::new(100.0, 0.0, 100.0, 200.0), // degenerate line
    ]
}

/// Everything the oracle can say about a reopened image that must hold
/// exactly `items`.
fn battery(at: &str, pager: &Pager, disk: &DiskRTree, items: &[(Rect, ItemId)]) {
    let windows = windows();
    let config = RTreeConfig::PAPER;
    // Smaller than the tree, so the searches below also miss and evict.
    let pool = BufferPool::new(pager, 16);
    let img = TreeImage::of_disk_tree(disk, &pool, config.max_entries, config.min_entries)
        .unwrap_or_else(|e| panic!("{at}: image dump failed: {e}"));
    validate_deep(&img, DeepChecks::dynamic())
        .unwrap_or_else(|e| panic!("{at}: survivor fails validate_deep: {e}"));
    for w in &windows {
        let got = disk
            .search_within(&pool, w, &mut SearchStats::default())
            .unwrap_or_else(|e| panic!("{at}: search failed: {e}"));
        let expect = sorted(reference::window_items(items, w, true));
        assert_eq!(sorted(got), expect, "{at}: survivor diverges on {w:?}");
    }
}

#[test]
fn crash_survivors_validate_deep_and_match_oracle() {
    let path =
        std::env::temp_dir().join(format!("oracle-crash-survivor-{}.db", std::process::id()));
    let items: Vec<(Rect, ItemId)> = (0..90)
        .map(|i| {
            let x = (i * 37 % 211) as f64;
            let y = (i * 53 % 197) as f64;
            (Rect::from_point(Point::new(x, y)), ItemId(i))
        })
        .collect();
    let pre_items = &items[..60];
    let post_items = &items[10..]; // inserts 60..90, removes 0..10

    // "post" is "pre" reshaped by Guttman inserts and deletes.
    let mut pre = RTree::new(RTreeConfig::PAPER);
    for &(mbr, id) in pre_items {
        pre.insert(mbr, id);
    }
    let mut post = pre.clone();
    for &(mbr, id) in &items[60..] {
        post.insert(mbr, id);
    }
    for &(mbr, id) in &items[..10] {
        assert!(post.remove(mbr, id), "{id:?} is in the pre tree");
    }

    {
        let pager = Pager::create(&path).expect("create db file");
        DiskRTree::store_with_meta(&pre, &pager).expect("commit pre");
    }
    let snapshot = std::fs::read(&path).expect("snapshot");

    // Count the rebuild's physical writes on a fault-free run.
    let total_writes = {
        let pager = Pager::open(&path).expect("open");
        let faulty = FaultPager::new(&pager, FaultScript::new());
        DiskRTree::store_with_meta(&post, &faulty).expect("fault-free rebuild");
        faulty.writes_seen()
    };
    assert!(total_writes > 3, "matrix needs several crash points");

    for k in 1..=total_writes {
        std::fs::write(&path, &snapshot).expect("restore snapshot");
        {
            let pager = Pager::open(&path).expect("open");
            let script = FaultScript::new().on_write(k, FaultKind::TornWrite, true);
            let faulty = FaultPager::new(&pager, script);
            assert!(
                DiskRTree::store_with_meta(&post, &faulty).is_err(),
                "crash point {k} must abort"
            );
        }
        let pager = Pager::open(&path).expect("open survivor");
        let disk = DiskRTree::open_default(&pager)
            .unwrap_or_else(|e| panic!("crash point {k}: open failed: {e}"));
        assert_eq!(
            (disk.epoch(), disk.len()),
            (1, pre_items.len()),
            "crash point {k}: must reopen to pre"
        );
        battery(&format!("crash point {k}"), &pager, &disk, pre_items);
    }

    // Control: with no fault the rebuild commits "post" as epoch 2.
    std::fs::write(&path, &snapshot).expect("restore snapshot");
    {
        let pager = Pager::open(&path).expect("open");
        DiskRTree::store_with_meta(&post, &pager).expect("control rebuild");
    }
    let pager = Pager::open(&path).expect("reopen control");
    let disk = DiskRTree::open_default(&pager).expect("open control");
    assert_eq!(
        (disk.epoch(), disk.len()),
        (2, post_items.len()),
        "control must commit post"
    );
    battery("control", &pager, &disk, post_items);
    let _ = std::fs::remove_file(&path);
}
