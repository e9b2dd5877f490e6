//! On-disk compatibility: a page file and a WAL written by the code as
//! it stood before the checksum kernel, the staged node-page writer and
//! the borrowed node view (`tests/golden/*.db`, committed) must open and
//! verify page for page, answer as the trees they were built from — and
//! the same inputs must produce the same files, byte for byte, today.
//!
//! The files are small on purpose (M = 8, 50 points; 30 WAL records):
//! what they pin is every format the storage layer writes — node pages,
//! the meta pair, WAL pages, the footer tag and the CRC over each.

use rtree_geom::{Point, Rect};
use rtree_index::{ItemId, RTree, RTreeConfig, SearchStats};
use rtree_storage::{BufferPool, DiskRTree, PageId, Pager, Wal, PAGE_SIZE};
use std::path::PathBuf;

const GOLDEN_TREE: &[u8] = include_bytes!("golden/disk_tree.db");
const GOLDEN_WAL: &[u8] = include_bytes!("golden/wal.db");

/// A scratch file of this test's own, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> TempFile {
        TempFile(std::env::temp_dir().join(format!("golden-{tag}-{}.db", std::process::id())))
    }

    fn holding(tag: &str, bytes: &[u8]) -> TempFile {
        let file = TempFile::new(tag);
        std::fs::write(&file.0, bytes).expect("write scratch copy");
        file
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn sample_tree() -> RTree {
    let mut tree = RTree::new(RTreeConfig::with_branching(8));
    for i in 0..50u64 {
        let (x, y) = ((i * 37 % 101) as f64, (i * 91 % 97) as f64);
        let mbr = Rect::new(x, y, x + (i % 3) as f64, y + (i % 5) as f64 * 0.5);
        tree.insert(mbr, ItemId(i));
    }
    tree
}

fn sample_records() -> Vec<Vec<u8>> {
    (0..30usize)
        .map(|i| format!("record-{i}-{}", "x".repeat(i * 37 % 300)).into_bytes())
        .collect()
}

/// Commits the sample tree to a fresh page file at `path`.
fn write_tree_file(path: &std::path::Path) {
    let pager = Pager::create(path).expect("create");
    DiskRTree::store_with_meta(&sample_tree(), &pager).expect("store");
}

/// Appends the sample records to a fresh WAL at `path`, syncing (and so
/// closing a page) after every seventh.
fn write_wal_file(path: &std::path::Path) {
    let mut wal = Wal::create(Pager::create(path).expect("create"));
    for (i, rec) in sample_records().iter().enumerate() {
        wal.append(rec).expect("append");
        if i % 7 == 6 {
            wal.sync().expect("sync");
        }
    }
    wal.sync().expect("sync");
}

#[test]
fn golden_page_file_opens_verifies_and_answers() {
    let file = TempFile::holding("tree-open", GOLDEN_TREE);
    let pager = Pager::open(&file.0).expect("open");
    assert_eq!(pager.page_count() as usize * PAGE_SIZE, GOLDEN_TREE.len());
    for id in (0..pager.page_count()).map(PageId) {
        pager
            .read_page(id)
            .unwrap_or_else(|e| panic!("{id} fails today's verify: {e}"));
    }

    let tree = sample_tree();
    let disk = DiskRTree::open_default(&pager).expect("open tree");
    assert_eq!((disk.len(), disk.depth()), (tree.len(), tree.depth()));
    assert_eq!(disk.pages() as usize, tree.node_count());
    let pool = BufferPool::new(&pager, 4);
    assert_eq!(
        disk.dump_nodes(&pool).expect("dump").len(),
        tree.node_count()
    );
    for window in [
        Rect::new(-1.0, -1.0, 200.0, 200.0),
        Rect::new(10.0, 10.0, 60.0, 50.0),
        Rect::new(500.0, 500.0, 501.0, 501.0),
    ] {
        let (mut a, mut b) = (SearchStats::default(), SearchStats::default());
        let mut want = tree.search_within(&window, &mut a);
        let mut got = disk.search_within(&pool, &window, &mut b).expect("search");
        want.sort();
        got.sort();
        assert_eq!(got, want, "{window:?}");
        assert_eq!(b.nodes_visited, a.nodes_visited, "{window:?}");
    }
    let probe = Point::new(37.0, 91.0);
    let (mut a, mut b) = (SearchStats::default(), SearchStats::default());
    assert_eq!(
        disk.point_query(&pool, probe, &mut b).expect("point"),
        tree.point_query(probe, &mut a)
    );
}

#[test]
fn todays_page_file_is_the_golden_one_byte_for_byte() {
    let file = TempFile::new("tree-write");
    write_tree_file(&file.0);
    let written = std::fs::read(&file.0).expect("read back");
    assert_eq!(written.len(), GOLDEN_TREE.len(), "file length");
    for (page, (now, then)) in written
        .chunks(PAGE_SIZE)
        .zip(GOLDEN_TREE.chunks(PAGE_SIZE))
        .enumerate()
    {
        assert!(now == then, "page {page} differs from the golden image");
    }
}

#[test]
fn golden_wal_replays_and_todays_wal_is_the_golden_one() {
    let file = TempFile::holding("wal-open", GOLDEN_WAL);
    let (wal, replayed) = Wal::open(Pager::open(&file.0).expect("open")).expect("replay");
    assert_eq!(replayed, sample_records());
    assert_eq!(wal.page_span() as usize * PAGE_SIZE, GOLDEN_WAL.len());

    let file = TempFile::new("wal-write");
    write_wal_file(&file.0);
    assert!(
        std::fs::read(&file.0).expect("read back") == GOLDEN_WAL,
        "the WAL image differs from the golden one"
    );
}
