//! Every deterministic table/figure report binary must run to completion
//! and print, byte for byte, the stdout recorded in `golden/` at the
//! default seed — the experiment index of DESIGN.md, executable. A
//! change that moves a paper figure has to re-take its golden file, so
//! it says so in its diff.
//!
//! These run the debug binaries; debug and release print the same bytes.
//! `pack_scaling` and `io_sweep` print timings and are not pinned.

use std::process::Command;

/// `bin`'s stdout at `seed`, or at the default seed whatever the
/// caller's environment says: every golden file is taken at it.
fn run(bin: &str, seed: Option<u64>) -> String {
    let mut command = Command::new(bin);
    match seed {
        Some(seed) => command.env("PACKED_RTREE_SEED", seed.to_string()),
        None => command.env_remove("PACKED_RTREE_SEED"),
    };
    let out = command.output().unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8")
}

/// One test per binary: its stdout equals `golden/<bin>.txt`.
macro_rules! golden {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            let out = run(env!(concat!("CARGO_BIN_EXE_", stringify!($bin))), None);
            assert_eq!(
                out,
                include_str!(concat!("golden/", stringify!($bin), ".txt")),
                "{} no longer prints its golden stdout",
                stringify!($bin)
            );
        }
    )*};
}

// EXPERIMENTS.md's "Measured" rows for Table 1 are lines of `table1.txt`.
golden!(
    table1,
    fig2_1,
    fig2_2,
    fig3_1,
    fig3_3,
    fig3_4,
    fig3_6,
    fig3_7,
    fig3_8,
    thm3_2,
    ablation_pack,
    ablation_split,
    fanout_sweep,
    selectivity_sweep,
    update_degradation,
);

/// At seed 8 the windows that touch the most root entries visit fewer
/// nodes than those that touch the fewest: `fig3_3` must say "fewer",
/// not a negative "more".
#[test]
fn fig3_3_reports_a_negative_difference_as_fewer() {
    let out = run(env!("CARGO_BIN_EXE_fig3_3"), Some(8));
    let words: Vec<&str> = out.split_whitespace().collect();
    assert!(
        !words
            .windows(2)
            .any(|w| w[0].starts_with('-') && w[0].ends_with('%') && w[1] == "more"),
        "{out}"
    );
    assert!(out.contains("% fewer nodes"), "{out}");
}
