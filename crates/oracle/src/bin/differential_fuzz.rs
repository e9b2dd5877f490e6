//! Bounded differential fuzz run for CI and local use.
//!
//! ```text
//! cargo run --release -p rtree-oracle --bin differential_fuzz
//! ORACLE_FUZZ_SEEDS=1,2,3 ORACLE_FUZZ_CASES=500 cargo run ...
//! ```
//!
//! Exits non-zero if any engine-vs-oracle divergence is found, printing
//! each shrunken counterexample with the `(seed, case)` pair that
//! reproduces it deterministically.

use rtree_oracle::run_seeds;
use std::process::ExitCode;

fn main() -> ExitCode {
    let seeds: Vec<u64> = match std::env::var("ORACLE_FUZZ_SEEDS") {
        Ok(s) => match s.split(',').map(|p| p.trim().parse()).collect() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("ORACLE_FUZZ_SEEDS must be a comma-separated list of u64: {e}");
                return ExitCode::from(2);
            }
        },
        Err(_) => vec![1985, 2718, 3141],
    };
    let cases: usize = match std::env::var("ORACLE_FUZZ_CASES") {
        Ok(s) => match s.trim().parse() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("ORACLE_FUZZ_CASES must be a usize: {e}");
                return ExitCode::from(2);
            }
        },
        Err(_) => 200,
    };

    println!(
        "differential fuzz: {} seed(s) × {cases} case(s), five levels \
         (geom predicates against convex-shape ground truth, tree queries \
         with frozen identity, PSQL end-to-end, mixed read/write \
         frozen+delta, mixed geometry with window queries), every PSQL and \
         k-NN answer in object-id order",
        seeds.len()
    );
    let divergences = run_seeds(&seeds, cases);
    if divergences.is_empty() {
        println!("ok: engine and oracle agree on every generated case");
        ExitCode::SUCCESS
    } else {
        for d in &divergences {
            eprintln!("{d}");
        }
        eprintln!(
            "{} divergence(s); reproduce with ORACLE_FUZZ_SEEDS=<seed>",
            divergences.len()
        );
        ExitCode::FAILURE
    }
}
