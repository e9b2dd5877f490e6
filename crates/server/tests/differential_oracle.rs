//! End-to-end differential: PSQL query text through a running server —
//! wire protocol, worker pool, snapshot handle, planner, packed R-tree
//! search — against the brute-force oracle evaluating the same operator
//! over the picture's objects directly. Any layer that drops, duplicates
//! or mislabels a row, or answers out of object-id order, shows up as a
//! mismatch.

use psql::database::PictorialDatabase;
use psql::SpatialOp;
use psql_server::client::Client;
use psql_server::server::{Server, ServerConfig};
use rtree_geom::Rect;
use rtree_oracle::reference;
use std::time::Duration;

const OPS: [SpatialOp; 4] = [
    SpatialOp::Covering,
    SpatialOp::CoveredBy,
    SpatialOp::Overlapping,
    SpatialOp::Disjoined,
];

/// Windows over the 100×50 frame whose centre/half-extent decompositions
/// are exact in both decimal and binary, so the query text round-trips
/// through the lexer bit-for-bit.
fn windows() -> Vec<Rect> {
    vec![
        Rect::new(0.0, 0.0, 100.0, 50.0),
        Rect::new(0.0, 0.0, 50.0, 25.0),
        Rect::new(50.0, 25.0, 100.0, 50.0),
        Rect::new(60.0, 10.0, 90.0, 40.0),
        Rect::new(25.0, 0.0, 25.0, 50.0),  // degenerate line
        Rect::new(30.0, 20.0, 30.0, 20.0), // degenerate point
    ]
}

#[test]
fn served_queries_match_oracle() {
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client =
        Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).expect("connect");

    // The oracle's view: the same deterministic us-map content, local.
    let db = PictorialDatabase::with_us_map();
    let pic = db.picture("us-map").expect("picture");
    let objects: Vec<_> = pic
        .object_ids()
        .map(|id| pic.object(id).expect("id enumerated").into_owned())
        .collect();
    let labels: Vec<String> = pic
        .object_ids()
        .map(|id| pic.label(id).expect("labelled").to_owned())
        .collect();

    for w in windows() {
        let cx = (w.min_x + w.max_x) / 2.0;
        let cy = (w.min_y + w.max_y) / 2.0;
        let dx = (w.max_x - w.min_x) / 2.0;
        let dy = (w.max_y - w.min_y) / 2.0;
        for op in OPS {
            let text = format!(
                "select city from cities on us-map at loc {} {{{cx} +- {dx}, {cy} +- {dy}}}",
                op.name()
            );
            let (_, result) = client.query_expect_result(&text).expect("query");
            let got: Vec<String> = result
                .rows
                .iter()
                .map(|row| {
                    row.first()
                        .and_then(|v| v.as_str())
                        .expect("city is a string")
                        .to_owned()
                })
                .collect();
            let expect: Vec<String> = reference::window_objects(&objects, op, &w)
                .into_iter()
                .map(|id| labels[id as usize].clone())
                .collect();
            assert_eq!(
                got, expect,
                "op {op}, window {w:?}: served rows diverge from oracle ({text:?})"
            );
        }
    }
    server.stop();
}
