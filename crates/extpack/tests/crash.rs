//! Crash coverage for the external packer (FaultPager-driven).
//!
//! Two files are in play during an external pack: the spill file (run
//! generation + merges) and the destination file (node pages + meta
//! pair). Faults on either must leave the destination in one of exactly
//! two states after reopen: the previously committed tree, or a cleanly
//! detected "no valid meta" — never a half-written index that opens.

use packed_rtree_core::PackStrategy;
use rtree_extpack::{pack_external_into, ExtPackConfig, ExtPackError};
use rtree_geom::Rect;
use rtree_index::{ItemId, RTreeConfig};
use rtree_oracle::{validate_deep, DeepChecks, TreeImage};
use rtree_storage::{BufferPool, DiskRTree, FaultKind, FaultPager, FaultScript, Pager};

fn items(n: u64) -> Vec<(Rect, ItemId)> {
    let mut state = 0xDEADBEEFCAFEF00Du64;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 40) as f64 / 64.0;
            let y = ((state >> 16) & 0xFFFFFF) as f64 / 64.0;
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

/// Counts the physical writes a clean pack performs on each store, so
/// the crash sweeps know the index space to script faults into, and
/// returns the clean pack's intermediate merge count.
fn clean_write_counts(n: u64, budget: u64) -> (u64, u64, u32) {
    let dest = Pager::temp().expect("dest");
    let spill = Pager::temp().expect("spill");
    let (_, stats) = pack_external_into(items(n), &cfg(budget), &dest, &spill).expect("clean pack");
    (
        dest.stats().writes(),
        spill.stats().writes(),
        stats.intermediate_merges,
    )
}

#[test]
fn spill_write_failure_aborts_without_committing() {
    let (_, spill_writes, intermediate_merges) = clean_write_counts(800, 8 * 1024);
    assert!(spill_writes > 4, "workload must actually spill");
    // 8 KiB affords two merge heads, so the 20 initial runs go through
    // the sequential reduce rounds, whose writes the faults below cover.
    assert!(
        intermediate_merges > 0,
        "workload must run reduce rounds, got {intermediate_merges}"
    );
    // Fail an early, a middle, and a late spill write.
    for nth in [1, spill_writes / 2, spill_writes - 1] {
        let dest = Pager::temp().expect("dest");
        let spill = Pager::temp().expect("spill");
        let faulty = FaultPager::new(
            &spill,
            FaultScript::new().on_write(nth, FaultKind::FailWrite, false),
        );
        let err = pack_external_into(items(800), &cfg(8 * 1024), &dest, &faulty)
            .expect_err("pack must fail");
        assert!(matches!(err, ExtPackError::Storage(_)), "{err}");
        // Nothing was committed: the destination opens as "no tree".
        let reopen = DiskRTree::open_default(&dest);
        assert!(reopen.is_err(), "no meta must be committed (write {nth})");
    }
}

#[test]
fn torn_spill_page_surfaces_as_corruption_on_merge_read() {
    let (_, spill_writes, _) = clean_write_counts(800, 8 * 1024);
    // Tear a spill page without crashing: the pack continues until the
    // merge reads the torn page back, which must fail CRC verification
    // (never decode garbage into the tree).
    let dest = Pager::temp().expect("dest");
    let spill = Pager::temp().expect("spill");
    let faulty = FaultPager::new(
        &spill,
        FaultScript::new().on_write(spill_writes / 3, FaultKind::TornWrite, false),
    );
    let err =
        pack_external_into(items(800), &cfg(8 * 1024), &dest, &faulty).expect_err("pack must fail");
    match err {
        // The torn write itself reports EIO, which aborts the pack —
        // or, had it gone unnoticed, the merge read reports corruption.
        ExtPackError::Storage(e) => {
            assert!(DiskRTree::open_default(&dest).is_err());
            drop(e);
        }
        other => panic!("unexpected error: {other}"),
    }
}

#[test]
fn dest_crash_sweep_fresh_file_never_commits_partial_tree() {
    let (dest_writes, _, _) = clean_write_counts(600, 8 * 1024);
    assert!(dest_writes > 20, "need a multi-page emission to sweep");
    // Crash at every destination write, including the final meta flip.
    for nth in 1..=dest_writes {
        let dest = Pager::temp().expect("dest");
        let spill = Pager::temp().expect("spill");
        let faulty = FaultPager::new(
            &dest,
            FaultScript::new().on_write(nth, FaultKind::TornWrite, true),
        );
        let result = pack_external_into(items(600), &cfg(8 * 1024), &faulty, &spill);
        assert!(result.is_err(), "crash at write {nth} must abort the pack");
        // Reopen the underlying file as recovery would.
        match DiskRTree::open_default(&dest) {
            Err(e) => assert!(e.is_corrupt(), "write {nth}: {e:?}"),
            Ok(tree) => {
                // The crash hit after the commit point (inside the second
                // meta slot write): the committed tree must be complete.
                let pool = BufferPool::new(&dest, 64);
                let img = TreeImage::of_disk_tree(&tree, &pool, 4, 2)
                    .unwrap_or_else(|e| panic!("write {nth}: unreadable tree: {e}"));
                validate_deep(&img, DeepChecks::packed())
                    .unwrap_or_else(|e| panic!("write {nth}: invalid tree: {e}"));
                assert_eq!(tree.len(), 600, "write {nth}");
            }
        }
    }
}

#[test]
fn dest_crash_mid_emission_preserves_previous_tree() {
    let (dest_writes, _, _) = clean_write_counts(600, 8 * 1024);
    for nth in [1, dest_writes / 2, dest_writes - 2] {
        let dest = Pager::temp().expect("dest");
        let spill_a = Pager::temp().expect("spill a");
        // Commit tree A cleanly.
        let (tree_a, _) =
            pack_external_into(items(300), &cfg(8 * 1024), &dest, &spill_a).expect("tree A");
        assert_eq!(tree_a.len(), 300);

        // Pack tree B through a crashing destination.
        let spill_b = Pager::temp().expect("spill b");
        let faulty = FaultPager::new(
            &dest,
            FaultScript::new().on_write(nth, FaultKind::TornWrite, true),
        );
        let result = pack_external_into(items(600), &cfg(8 * 1024), &faulty, &spill_b);
        assert!(result.is_err(), "crash at write {nth} must abort");

        // Recovery sees tree A, bit for bit.
        let recovered = DiskRTree::open_default(&dest).expect("previous tree survives");
        assert_eq!(recovered.root(), tree_a.root(), "write {nth}");
        assert_eq!(recovered.epoch(), tree_a.epoch(), "write {nth}");
        assert_eq!(recovered.len(), 300, "write {nth}");
        let pool = BufferPool::new(&dest, 64);
        let img = TreeImage::of_disk_tree(&recovered, &pool, 4, 2).expect("readable");
        validate_deep(&img, DeepChecks::packed()).expect("tree A still valid");
    }
}

#[test]
fn transient_spill_read_aborts_cleanly() {
    let dest = Pager::temp().expect("dest");
    let spill = Pager::temp().expect("spill");
    let faulty = FaultPager::new(
        &spill,
        FaultScript::new().on_read(2, FaultKind::TransientRead, false),
    );
    let err =
        pack_external_into(items(800), &cfg(8 * 1024), &dest, &faulty).expect_err("pack must fail");
    assert!(matches!(err, ExtPackError::Storage(_)));
    assert!(DiskRTree::open_default(&dest).is_err());
}
