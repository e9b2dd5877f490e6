//! Every table/figure report binary must run to completion and print its
//! key findings — the experiment index of DESIGN.md, executable.
//!
//! These run the debug binaries at reduced scale where the binaries allow
//! it (they are all seed-deterministic), so this is a correctness smoke
//! test, not a performance run.

use std::process::Command;

fn run(bin: &str) -> String {
    // The default seed, whatever the caller's environment says: Table 1
    // is compared against a golden file taken at it.
    let out = Command::new(bin)
        .env_remove("PACKED_RTREE_SEED")
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8")
}

#[test]
fn table1_reports_paper_shape() {
    // EXPERIMENTS.md's "Measured" rows are lines of this file: Table 1 at
    // the default seed, byte for byte (debug and release print the same).
    let out = run(env!("CARGO_BIN_EXE_table1"));
    assert_eq!(out, include_str!("golden/table1.txt"));
}

#[test]
fn fig2_1_runs_query_and_map() {
    let out = run(env!("CARGO_BIN_EXE_fig2_1"));
    assert!(out.contains("r-tree search on us-map"));
    assert!(out.contains("New York"));
    assert!(out.contains("Figure 2.1b"));
}

#[test]
fn fig2_2_shows_join_pruning() {
    let out = run(env!("CARGO_BIN_EXE_fig2_2"));
    assert!(out.contains("(42 rows)"));
    assert!(out.contains("simultaneous R-tree search"));
}

#[test]
fn fig3_1_dumps_trees() {
    let out = run(env!("CARGO_BIN_EXE_fig3_1"));
    assert!(out.contains("level="));
    assert!(out.contains("Figure 3.2"));
}

#[test]
fn fig3_3_shows_degrading_pruning() {
    let out = run(env!("CARGO_BIN_EXE_fig3_3"));
    assert!(out.contains("root entries hit"));
}

#[test]
fn fig3_4_recovers_clusters() {
    let out = run(env!("CARGO_BIN_EXE_fig3_4"));
    assert!(out.contains("PACK (fig 3.4b)"));
    assert!(out.contains("[0.000,1.000]x[0.000,1.000]"));
}

#[test]
fn fig3_6_confirms_theorem() {
    let out = run(env!("CARGO_BIN_EXE_fig3_6"));
    assert!(out.contains("NO zero-overlap grouping exists"));
    assert!(!out.contains("UNEXPECTED"));
}

#[test]
fn fig3_7_contrasts_coverage() {
    let out = run(env!("CARGO_BIN_EXE_fig3_7"));
    assert!(out.contains("8.7x") || out.contains("coverage is"));
}

#[test]
fn fig3_8_renders_levels() {
    let out = run(env!("CARGO_BIN_EXE_fig3_8"));
    assert!(out.contains("Figure 3.8a"));
    assert!(out.contains("Figure 3.8b"));
}

#[test]
fn thm3_2_verifies_disjointness() {
    let out = run(env!("CARGO_BIN_EXE_thm3_2"));
    assert!(out.contains("true"));
    assert!(!out.contains("false"));
}
