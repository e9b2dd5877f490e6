//! The paper's Figure 2.2 and nested mappings: juxtaposition of
//! dissimilar pictures over one geographic area ("geographic join") and
//! location binding across query levels.
//!
//! Run with: `cargo run --example juxtaposition`

use packed_rtree::psql::database::PictorialDatabase;
use packed_rtree::psql::exec::query;
use packed_rtree::psql::join::{nested_loop_join, rtree_join, JoinStats};
use packed_rtree::psql::SpatialOp;

fn main() {
    let db = PictorialDatabase::with_us_map();

    // Figure 2.2: cities juxtaposed with time zones — information from
    // two pictures of the same area combined by spatial relationship.
    let text = "select city, zone, hour-diff \
                from cities, time-zones \
                on us-map, time-zone-map \
                at cities.loc covered-by time-zones.loc";
    println!("PSQL> {text}\n");
    let result = query(&db, text).expect("valid query");
    println!("{result}");

    // The engine ran this as a simultaneous descent of both R-trees;
    // show how much that pruning buys over the nested-loop baseline.
    let cities_tree = db.picture("us-map").unwrap().frozen().unwrap();
    let zones_tree = db.picture("time-zone-map").unwrap().frozen().unwrap();
    let mut fast = JoinStats::default();
    let mut slow = JoinStats::default();
    rtree_join(cities_tree, zones_tree, SpatialOp::CoveredBy, &mut fast);
    nested_loop_join(cities_tree, zones_tree, SpatialOp::CoveredBy, &mut slow);
    println!(
        "simultaneous R-tree search: {} node pairs; nested loop: {} pairs\n",
        fast.node_pairs_visited, slow.node_pairs_visited
    );

    // The paper's nested mapping: lakes covered by some Eastern state,
    // the inner mapping's locations binding the outer at-clause.
    let text2 = "select lake, area, lakes.loc \
                 from lakes \
                 on lake-map \
                 at lakes.loc covered-by \
                 (select states.loc from states on state-map \
                  at states.loc covered-by {78 +- 22, 25 +- 25})";
    println!("PSQL> {text2}\n");
    let result2 = query(&db, text2).expect("valid query");
    println!("{result2}");

    // Indirect spatial search (§1 requirement 3): find by alphanumeric
    // attribute, then use the association to place objects on the map.
    let text3 = "select city, population, loc from cities where population > 9000000";
    println!("PSQL> {text3}\n");
    let result3 = query(&db, text3).expect("valid query");
    println!("{result3}");
    println!(
        "highlighted on us-map: {:?}",
        result3
            .highlights
            .iter()
            .map(|h| h.label.as_str())
            .collect::<Vec<_>>()
    );
}
