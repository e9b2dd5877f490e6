//! **EXT-24**: the crash/reopen matrix — scripted fault injection
//! against the page-resident tree's two writers, over every (or a
//! sampled set of) physical write positions, across several seeds.
//!
//! For each seed the harness commits a baseline image, snapshots the
//! file, then repeatedly replays a deterministic rebuild with a
//! simulated crash at write *k* (torn or dropped write, then total I/O
//! failure), reopens the file cold, and classifies what recovery sees:
//!
//! * `DiskRTree::store_with_meta` (rebuild-and-swap) must roll back to
//!   the previous image at **every** crash point — same epoch, same
//!   query answers — or commit fully when no fault fires;
//! * the out-of-core external pack must preserve the previous image
//!   wherever it crashes (or commit fully inside the meta flip), and a
//!   spill-file fault must never disturb the destination.
//!
//! Any violation fails the run with a nonzero exit. Environment:
//! `CRASH_SEEDS` (comma-separated, default `7,42,1985`) and
//! `CRASH_POINTS` (crash points sampled per phase, `0` = every write,
//! the default).
//!
//! Run with: `cargo run --release -p rtree-bench --bin crash_matrix`

use rtree_bench::report::Table;
use rtree_geom::Rect;
use rtree_index::{ItemId, RTree, RTreeConfig, SearchStats};
use rtree_storage::fault::{FaultKind, FaultPager, FaultScript};
use rtree_storage::{BufferPool, DiskRTree, Pager};
use rtree_workload::{points, rng, PAPER_UNIVERSE};
use std::io;
use std::path::PathBuf;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_seeds() -> Vec<u64> {
    std::env::var("CRASH_SEEDS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<u64>| !v.is_empty())
        .unwrap_or_else(|| vec![7, 42, 1985])
}

/// Crash points to exercise: all of `1..=total`, or `budget` evenly
/// spaced ones (always including the first and last write).
fn crash_points(total: u64, budget: u64) -> Vec<u64> {
    if budget == 0 || budget >= total {
        return (1..=total).collect();
    }
    let mut ks: Vec<u64> = (0..budget)
        .map(|i| 1 + i * (total - 1) / (budget - 1).max(1))
        .collect();
    ks.dedup();
    ks
}

fn scratch(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "crash-matrix-{tag}-{seed}-{}.db",
        std::process::id()
    ))
}

fn tree_of(seed: u64, n: usize, branching: usize) -> RTree {
    let mut r = rng(seed);
    let mut tree = RTree::new(RTreeConfig::with_branching(branching));
    for (i, p) in points::uniform(&mut r, &PAPER_UNIVERSE, n)
        .into_iter()
        .enumerate()
    {
        tree.insert(Rect::from_point(p), ItemId(i as u64));
    }
    tree
}

/// One alternating fault kind per crash point, so the matrix covers both
/// torn and dropped writes.
fn kind_for(k: u64) -> FaultKind {
    if k % 2 == 1 {
        FaultKind::TornWrite
    } else {
        FaultKind::FailWrite
    }
}

struct DiskOutcome {
    trials: u64,
    rollbacks: u64,
    violations: u64,
}

fn disk_matrix(seed: u64, budget: u64) -> io::Result<DiskOutcome> {
    let path = scratch("disk", seed);
    let tree_a = tree_of(seed, 150, 8);
    let tree_b = tree_of(seed ^ 0xb00b5, 260, 8);
    let window = {
        let (w, h) = (PAPER_UNIVERSE.width() * 0.4, PAPER_UNIVERSE.height() * 0.4);
        Rect::new(
            PAPER_UNIVERSE.min_x,
            PAPER_UNIVERSE.min_y,
            PAPER_UNIVERSE.min_x + w,
            PAPER_UNIVERSE.min_y + h,
        )
    };
    let answers = |pager: &Pager, disk: &DiskRTree| -> io::Result<Vec<ItemId>> {
        let pool = BufferPool::new(pager, 64);
        let mut stats = SearchStats::default();
        let mut v = disk.search_within(&pool, &window, &mut stats)?;
        v.sort();
        Ok(v)
    };

    {
        let pager = Pager::create(&path)?;
        DiskRTree::store_with_meta(&tree_a, &pager)?;
    }
    let snapshot = std::fs::read(&path)?;
    let expect_a = {
        let pager = Pager::open(&path)?;
        let disk = DiskRTree::open_default(&pager)?;
        answers(&pager, &disk)?
    };

    let total_writes = {
        let pager = Pager::open(&path)?;
        let faulty = FaultPager::new(&pager, FaultScript::new());
        DiskRTree::store_with_meta(&tree_b, &faulty)?;
        faulty.writes_seen()
    };

    let mut out = DiskOutcome {
        trials: 0,
        rollbacks: 0,
        violations: 0,
    };
    for k in crash_points(total_writes, budget) {
        out.trials += 1;
        std::fs::write(&path, &snapshot)?;
        {
            let pager = Pager::open(&path)?;
            let script = FaultScript::new().on_write(k, kind_for(k), true);
            let faulty = FaultPager::new(&pager, script);
            if DiskRTree::store_with_meta(&tree_b, &faulty).is_ok() {
                eprintln!("seed {seed} disk k={k}: store survived its own crash");
                out.violations += 1;
                continue;
            }
        }
        let pager = Pager::open(&path)?;
        match DiskRTree::open_default(&pager) {
            Ok(disk) if disk.epoch() == 1 && disk.len() == tree_a.len() => {
                match answers(&pager, &disk) {
                    Ok(hits) if hits == expect_a => out.rollbacks += 1,
                    Ok(_) => {
                        eprintln!("seed {seed} disk k={k}: rolled-back image answers wrong");
                        out.violations += 1;
                    }
                    Err(e) => {
                        eprintln!("seed {seed} disk k={k}: rolled-back image unreadable: {e}");
                        out.violations += 1;
                    }
                }
            }
            Ok(disk) => {
                eprintln!(
                    "seed {seed} disk k={k}: unexpected epoch {} / len {}",
                    disk.epoch(),
                    disk.len()
                );
                out.violations += 1;
            }
            Err(e) => {
                eprintln!("seed {seed} disk k={k}: reopen failed: {e}");
                out.violations += 1;
            }
        }
    }

    // Control: with no fault the replacement must commit as epoch 2.
    std::fs::write(&path, &snapshot)?;
    {
        let pager = Pager::open(&path)?;
        DiskRTree::store_with_meta(&tree_b, &pager)?;
        let disk = DiskRTree::open_default(&pager)?;
        if disk.epoch() != 2 || disk.len() != tree_b.len() {
            eprintln!("seed {seed} disk control: commit did not land");
            out.violations += 1;
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok(out)
}

struct ExtOutcome {
    trials: u64,
    preserved: u64,
    committed: u64,
    violations: u64,
}

/// Crash matrix for the out-of-core external packer: tree A is committed
/// in the destination file, then an external pack of tree B is crashed
/// at every destination write (torn/dropped, then total I/O failure) and
/// at sampled spill-file writes. Reopen must see tree A bit-for-bit —
/// or, only when the crash hit inside the final meta flip, a complete
/// tree B. A spill fault must never disturb the destination at all.
fn extpack_matrix(seed: u64, budget: u64) -> io::Result<ExtOutcome> {
    use rtree_extpack::{pack_external_into, ExtPackConfig};

    let path = scratch("extpack", seed);
    let mut r = rng(seed ^ 0xec7);
    let pts = points::uniform(&mut r, &PAPER_UNIVERSE, 900);
    let items: Vec<(Rect, ItemId)> = pts
        .iter()
        .enumerate()
        .map(|(i, &p)| (Rect::from_point(p), ItemId(i as u64)))
        .collect();
    let (items_a, items_b) = (&items[..300], &items[..900]);
    let cfg = ExtPackConfig::new(8 * 1024); // tight: forces spilling
    let window = Rect::new(
        PAPER_UNIVERSE.min_x,
        PAPER_UNIVERSE.min_y,
        PAPER_UNIVERSE.min_x + PAPER_UNIVERSE.width() * 0.4,
        PAPER_UNIVERSE.min_y + PAPER_UNIVERSE.height() * 0.4,
    );
    let answers = |pager: &Pager, disk: &DiskRTree| -> io::Result<Vec<ItemId>> {
        let pool = BufferPool::new(pager, 64);
        let mut stats = SearchStats::default();
        let mut v = disk.search_within(&pool, &window, &mut stats)?;
        v.sort();
        Ok(v)
    };

    // Commit tree A, snapshot the file.
    {
        let pager = Pager::create(&path)?;
        let spill = Pager::temp()?;
        pack_external_into(items_a.iter().copied(), &cfg, &pager, &spill)
            .map_err(|e| io::Error::other(e.to_string()))?;
    }
    let snapshot = std::fs::read(&path)?;
    let (epoch_a, expect_a) = {
        let pager = Pager::open(&path)?;
        let disk = DiskRTree::open_default(&pager)?;
        (disk.epoch(), answers(&pager, &disk)?)
    };

    // Count the physical writes of a clean B pack on each store.
    let (dest_writes, spill_writes) = {
        let pager = Pager::open(&path)?;
        let dest = FaultPager::new(&pager, FaultScript::new());
        let spill_pager = Pager::temp()?;
        let spill = FaultPager::new(&spill_pager, FaultScript::new());
        pack_external_into(items_b.iter().copied(), &cfg, &dest, &spill)
            .map_err(|e| io::Error::other(e.to_string()))?;
        (dest.writes_seen(), spill.writes_seen())
    };

    let mut out = ExtOutcome {
        trials: 0,
        preserved: 0,
        committed: 0,
        violations: 0,
    };

    // Phase 1: crash the destination at every (sampled) write.
    for k in crash_points(dest_writes, budget) {
        out.trials += 1;
        std::fs::write(&path, &snapshot)?;
        {
            let pager = Pager::open(&path)?;
            let faulty = FaultPager::new(&pager, FaultScript::new().on_write(k, kind_for(k), true));
            let spill = Pager::temp()?;
            if pack_external_into(items_b.iter().copied(), &cfg, &faulty, &spill).is_ok() {
                eprintln!("seed {seed} extpack dest k={k}: pack survived its own crash");
                out.violations += 1;
                continue;
            }
        }
        let pager = Pager::open(&path)?;
        match DiskRTree::open_default(&pager) {
            Ok(disk) if disk.epoch() == epoch_a && disk.len() == 300 => {
                match answers(&pager, &disk) {
                    Ok(hits) if hits == expect_a => out.preserved += 1,
                    _ => {
                        eprintln!("seed {seed} extpack dest k={k}: tree A answers wrong");
                        out.violations += 1;
                    }
                }
            }
            Ok(disk) if disk.len() == 900 => out.committed += 1, // crash inside meta flip
            Ok(disk) => {
                eprintln!(
                    "seed {seed} extpack dest k={k}: unexpected epoch {} / len {}",
                    disk.epoch(),
                    disk.len()
                );
                out.violations += 1;
            }
            Err(e) => {
                eprintln!("seed {seed} extpack dest k={k}: reopen failed: {e}");
                out.violations += 1;
            }
        }
    }

    // Phase 2: fail spill-file writes — the destination must be
    // untouched (still exactly tree A).
    for k in crash_points(spill_writes, budget) {
        out.trials += 1;
        std::fs::write(&path, &snapshot)?;
        {
            let pager = Pager::open(&path)?;
            let spill_pager = Pager::temp()?;
            let spill = FaultPager::new(
                &spill_pager,
                FaultScript::new().on_write(k, kind_for(k), true),
            );
            if pack_external_into(items_b.iter().copied(), &cfg, &pager, &spill).is_ok() {
                eprintln!("seed {seed} extpack spill k={k}: pack survived its own crash");
                out.violations += 1;
                continue;
            }
        }
        let pager = Pager::open(&path)?;
        match DiskRTree::open_default(&pager) {
            Ok(disk) if disk.epoch() == epoch_a && disk.len() == 300 => {
                match answers(&pager, &disk) {
                    Ok(hits) if hits == expect_a => out.preserved += 1,
                    _ => {
                        eprintln!("seed {seed} extpack spill k={k}: tree A answers wrong");
                        out.violations += 1;
                    }
                }
            }
            _ => {
                eprintln!("seed {seed} extpack spill k={k}: spill fault disturbed the dest");
                out.violations += 1;
            }
        }
    }

    let _ = std::fs::remove_file(&path);
    Ok(out)
}

fn main() -> io::Result<()> {
    let seeds = env_seeds();
    let budget = env_u64("CRASH_POINTS", 0);
    println!(
        "EXT-24 — crash/reopen matrix (seeds {seeds:?}, points/phase: {})",
        {
            if budget == 0 {
                "all".to_string()
            } else {
                budget.to_string()
            }
        }
    );
    println!();

    let mut table = Table::new([
        "seed",
        "disk trials",
        "rollbacks",
        "ext trials",
        "preserved",
        "committed",
        "violations",
    ]);
    let mut violations = 0u64;
    for &seed in &seeds {
        let d = disk_matrix(seed, budget)?;
        let e = extpack_matrix(seed, budget)?;
        violations += d.violations + e.violations;
        table.row([
            seed.to_string(),
            d.trials.to_string(),
            d.rollbacks.to_string(),
            e.trials.to_string(),
            e.preserved.to_string(),
            e.committed.to_string(),
            (d.violations + e.violations).to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("disk = rebuild-and-swap commit: every crash point must roll back");
    println!("bit-for-bit (DESIGN.md §9);");
    println!("ext = out-of-core external pack: a crash anywhere in the pipeline");
    println!("preserves the previous tree (or commits fully inside the meta flip),");
    println!("and spill-file faults never disturb the destination (DESIGN.md §15).");
    if violations > 0 {
        return Err(io::Error::other(format!(
            "{violations} crash-safety violations"
        )));
    }
    println!("\nPASS — no crash-safety violations.");
    Ok(())
}
