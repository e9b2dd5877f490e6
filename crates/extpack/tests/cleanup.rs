//! Satellite guarantee: spill-run temp files are cleaned up on success
//! AND on error/panic, via the [`SpillDir`] RAII guard.

use packed_rtree_core::PackStrategy;
use rtree_extpack::{pack_external, pack_external_into, ExtPackConfig, SpillDir};
use rtree_geom::Rect;
use rtree_index::{ItemId, RTreeConfig};
use rtree_storage::{DiskRTree, FaultKind, FaultPager, FaultScript, Pager};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

fn items(n: u64) -> Vec<(Rect, ItemId)> {
    (0..n)
        .map(|i| {
            let x = ((i * 2654435761) % 10_007) as f64;
            let y = ((i * 40503) % 9973) as f64;
            (Rect::new(x, y, x + 1.0, y + 1.0), ItemId(i))
        })
        .collect()
}

fn cfg(budget: u64) -> ExtPackConfig {
    ExtPackConfig {
        memory_budget_bytes: budget,
        strategy: PackStrategy::NearestNeighbor,
        threads: 1,
        tree: RTreeConfig::PAPER,
    }
}

fn entry_count(dir: &Path) -> usize {
    std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
}

/// A scratch parent directory for this test, itself cleaned up on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path =
            std::env::temp_dir().join(format!("extpack-cleanup-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path).expect("scratch dir");
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn spill_dir_empty_after_successful_pack() {
    let scratch = Scratch::new("ok");
    {
        let dir = SpillDir::create_in(&scratch.0).expect("spill dir");
        let spill = dir.create_pager().expect("spill pager");
        let dest = Pager::temp().expect("dest");
        let (tree, stats) =
            pack_external_into(items(5_000), &cfg(16 * 1024), &dest, &spill).expect("pack");
        assert_eq!(tree.len(), 5_000);
        assert!(stats.spill_pages > 0, "must have spilled");
        assert_eq!(entry_count(&scratch.0), 1, "spill dir exists during pack");
    }
    assert_eq!(
        entry_count(&scratch.0),
        0,
        "scratch must be empty after the guard drops"
    );
}

#[test]
fn spill_dir_empty_after_failed_pack() {
    let scratch = Scratch::new("err");
    {
        let dir = SpillDir::create_in(&scratch.0).expect("spill dir");
        let spill = dir.create_pager().expect("spill pager");
        let faulty = FaultPager::new(
            &spill,
            FaultScript::new().on_write(3, FaultKind::FailWrite, false),
        );
        let dest = Pager::temp().expect("dest");
        let result = pack_external_into(items(5_000), &cfg(16 * 1024), &dest, &faulty);
        assert!(result.is_err(), "fault must abort the pack");
        assert!(DiskRTree::open_default(&dest).is_err());
    }
    assert_eq!(
        entry_count(&scratch.0),
        0,
        "scratch must be empty after an aborted pack"
    );
}

/// This process's `pack_external` spill directories in the system temp
/// dir. The directory is shared and the name carries only the pid, so a
/// census sees every pack in flight in this test binary: the tests that
/// take one hold [`TEMP_DIR_CENSUS`] from their first count to their
/// last, which makes each the only such pack while it looks.
fn my_spill_dirs() -> usize {
    let mine = format!("extpack-spill-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .map(|d| {
            d.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with(&mine))
                .count()
        })
        .unwrap_or(0)
}

static TEMP_DIR_CENSUS: Mutex<()> = Mutex::new(());

fn census() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; its verdict is its own.
    TEMP_DIR_CENSUS.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn pack_external_leaves_no_temp_dirs_behind_on_panic() {
    // Count this process's extpack spill dirs in the system temp dir
    // before and after a pack whose *input stream* panics mid-way.
    let _alone = census();
    let before = my_spill_dirs();

    let dest = Pager::temp().expect("dest");
    let config = cfg(16 * 1024);
    let during = std::cell::Cell::new(0);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let stream = items(10_000).into_iter().map(|(r, id)| {
            if id.0 == 7_000 {
                during.set(my_spill_dirs());
                panic!("simulated producer failure");
            }
            (r, id)
        });
        let _ = pack_external(stream, &config, &dest);
    }));
    assert!(result.is_err(), "the stream must have panicked");
    assert_eq!(
        during.get(),
        before + 1,
        "the pack's own spill dir exists when its stream panics"
    );
    assert_eq!(
        my_spill_dirs(),
        before,
        "no extpack spill dir may survive the unwind"
    );
}

#[test]
fn pack_external_cleans_temp_dir_on_success() {
    let _alone = census();
    let before = my_spill_dirs();
    let dest = Pager::temp().expect("dest");
    let (tree, _) = pack_external(items(5_000), &cfg(16 * 1024), &dest).expect("pack");
    assert_eq!(tree.len(), 5_000);
    assert_eq!(
        my_spill_dirs(),
        before,
        "spill dir must be gone after return"
    );
}
