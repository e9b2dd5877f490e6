//! Every deterministic table/figure report binary must run to completion
//! and print, byte for byte, the stdout recorded in `golden/` at the
//! default seed — the experiment index of DESIGN.md, executable. A
//! change that moves a paper figure has to re-take its golden file, so
//! it says so in its diff.
//!
//! These run the debug binaries; debug and release print the same bytes.
//! `pack_scaling` and `io_sweep` print timings and are not pinned.

use std::process::Command;

fn run(bin: &str) -> String {
    // The default seed, whatever the caller's environment says: every
    // golden file is taken at it.
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

/// One test per binary: its stdout equals `golden/<bin>.txt`.
macro_rules! golden {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            let out = run(env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
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
