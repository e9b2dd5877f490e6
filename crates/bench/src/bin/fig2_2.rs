//! **Figure 2.2**: juxtaposition — synthesizing information from two
//! pictures of the same geographic area, with the join-cost comparison
//! that motivates simultaneous R-tree search.
//!
//! Run with: `cargo run -p rtree-bench --bin fig2_2`

use psql::database::PictorialDatabase;
use psql::exec::query;
use psql::join::{nested_loop_join, rtree_join, JoinStats};
use psql::render::render;
use psql::SpatialOp;
use rtree_bench::report::Table;

fn main() {
    let db = PictorialDatabase::with_us_map();
    let text = "select city, zone from cities, time-zones \
                on us-map, time-zone-map \
                at cities.loc covered-by time-zones.loc";
    println!("Figure 2.2 — cities juxtaposed with time zones\n");
    println!("PSQL> {text}\n");
    let result = query(&db, text).expect("valid query");
    println!("Figure 2.2c — juxtaposed output:\n{result}");

    println!("Figure 2.2a/b — the two input pictures:");
    println!(
        "{}",
        render(db.picture("us-map").expect("exists"), &[], 80, 20)
    );
    println!(
        "{}",
        render(db.picture("time-zone-map").expect("exists"), &[], 80, 20)
    );

    // Join cost: simultaneous descent vs nested loop.
    let served = |name| db.picture(name).expect("exists").frozen().expect("packed");
    let (a, b) = (served("us-map"), served("time-zone-map"));
    let mut table = Table::new(["method", "node pairs", "candidates"]);
    let mut fast = JoinStats::default();
    rtree_join(a, b, SpatialOp::CoveredBy, &mut fast);
    table.row([
        "simultaneous R-tree search".to_string(),
        fast.node_pairs_visited.to_string(),
        fast.candidates.to_string(),
    ]);
    let mut slow = JoinStats::default();
    nested_loop_join(a, b, SpatialOp::CoveredBy, &mut slow);
    table.row([
        "nested loop".to_string(),
        slow.node_pairs_visited.to_string(),
        slow.candidates.to_string(),
    ]);
    println!("join cost:\n{}", table.render());
}
