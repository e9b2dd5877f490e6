//! Pins what PSQL answers, byte for byte: each query's `ResultSet`
//! (columns, every row's typed values, every highlight) or its error is
//! rendered to text and hashed with FNV-1a twice — as it comes (the
//! order digest) and with its lines sorted (the set digest) — and the
//! digests are committed. A change to how relations store or hand out
//! tuples must leave every digest where it is; one that only reorders
//! an answer moves its order digest alone.
//!
//! Four databases: the US map of §2, a 20 011-tuple `sites`-shaped
//! relation with NULLs in every column, deleted tuples, a float column
//! (`-0.0` included) and two indexes, one built before the deletes and
//! one after, a small `routes` relation whose three `loc` columns
//! make the highlights' de-duplication show, and a grid of points whose
//! nearest neighbours tie.
//!
//! The R-tree is an access path (§2.1): which tree answers must not
//! change what the client reads. So `sites`, `routes` and the grid are
//! each built at three tree shapes — M = 4 packed, M = 16 packed and
//! M = 4 never packed — and every shape must render every pinned text
//! byte for byte alike.

use pictorial_relational::{Column, ColumnType, Schema, TupleId, Value};
use psql::database::PictorialDatabase;
use psql::exec::query;
use psql::ResultSet;
use rtree_geom::{Point, Rect, SpatialObject};
use rtree_index::RTreeConfig;
use std::fmt::Write;

const SITES: u64 = 20_011;

/// SplitMix64 of `i`: the dataset's one source of variety.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sites_db(config: RTreeConfig, packed: bool) -> PictorialDatabase {
    let mut db = PictorialDatabase::new(config);
    db.create_picture("site-map", Rect::new(0.0, 0.0, 1000.0, 1000.0))
        .unwrap();
    let schema = Schema::new(vec![
        Column::new("site", ColumnType::Str),
        Column::new("weight", ColumnType::Int),
        Column::new("score", ColumnType::Float),
        Column::new("loc", ColumnType::Pointer),
    ])
    .unwrap();
    db.catalog_mut().create_relation("sites", schema).unwrap();
    db.associate("sites", "loc", "site-map").unwrap();
    db.catalog_mut().create_index("sites", "weight").unwrap();
    let mut tids = Vec::new();
    for i in 0..SITES {
        let h = mix(i);
        let p = Point::new(
            (h % 100_000) as f64 / 100.0,
            ((h >> 20) % 100_000) as f64 / 100.0,
        );
        let object = db
            .add_object("site-map", SpatialObject::Point(p), &format!("o{i}"))
            .unwrap();
        let null = |m: u64, r: u64| i % m == r;
        let site = if null(97, 13) {
            Value::Null
        } else {
            format!("s{i}").into()
        };
        let weight = if null(89, 5) {
            Value::Null
        } else {
            ((i % 1000) as i64).into()
        };
        let score = match (h >> 40) % 1000 {
            _ if null(83, 7) => Value::Null,
            0 => Value::Float(-0.0),
            s => Value::Float(s as f64 / 97.0 - 0.5),
        };
        let loc = if null(101, 3) {
            Value::Null
        } else {
            Value::Pointer(object)
        };
        tids.push(db.insert("sites", vec![site, weight, score, loc]).unwrap());
    }
    for (i, &tid) in tids.iter().enumerate() {
        if i % 53 == 0 || i % 211 == 17 {
            db.delete("sites", tid).unwrap();
        }
    }
    db.catalog_mut().create_index("sites", "site").unwrap();
    if packed {
        db.pack_all();
    }
    db
}

/// Every typed value, row and highlight, one per line.
fn render(result: &Result<ResultSet, psql::PsqlError>) -> String {
    let mut out = String::new();
    match result {
        Err(e) => writeln!(out, "error: {e}").unwrap(),
        Ok(set) => {
            writeln!(out, "columns {:?}", set.columns).unwrap();
            for row in &set.rows {
                writeln!(out, "row {row:?}").unwrap();
            }
            for h in &set.highlights {
                writeln!(out, "highlight {} {} {:?}", h.picture, h.object, h.label).unwrap();
            }
        }
    }
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest of the rendered lines sorted: what the answer holds,
/// whatever order it comes in.
fn set_digest(rendered: &str) -> u64 {
    let mut lines: Vec<&str> = rendered.lines().collect();
    lines.sort_unstable();
    fnv1a(lines.join("\n").as_bytes())
}

/// A fixture built at each tree shape its answers must not depend on.
fn at_every_shape(
    build: fn(RTreeConfig, bool) -> PictorialDatabase,
) -> Vec<(&'static str, PictorialDatabase)> {
    vec![
        ("M = 4 packed", build(RTreeConfig::PAPER, true)),
        (
            "M = 16 packed",
            build(RTreeConfig::with_branching(16), true),
        ),
        ("M = 4 never packed", build(RTreeConfig::PAPER, false)),
    ]
}

/// Checks every `(query, order digest, set digest)` against each of
/// `dbs`, reporting all mismatches at once. The order digest hashes the
/// rendering as it comes; the set digest its lines sorted, so an answer
/// that only moved its rows moves the first alone.
fn check(dbs: &[(&str, PictorialDatabase)], pinned: &[(&str, u64, u64)]) {
    let mut wrong = Vec::new();
    for (shape, db) in dbs {
        for &(text, order, set) in pinned {
            let rendered = render(&query(db, text));
            let got = (fnv1a(rendered.as_bytes()), set_digest(&rendered));
            if got != (order, set) {
                let head: String = rendered.lines().take(4).collect::<Vec<_>>().join(" | ");
                wrong.push(format!(
                    "{shape}: {:#018x}, {:#018x} for {text:?} ({head})",
                    got.0, got.1
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}

#[test]
fn us_map_results_are_pinned() {
    check(
        &[("M = 4 packed", PictorialDatabase::with_us_map())],
        &[
            (
                "select city, state, population, loc from cities on us-map \
                 at loc covered-by {82.5 +- 17.5, 25 +- 20} where population > 450000",
                0xfee184f1168c8a39,
                0xa0828871bd10d417,
            ),
            (
                "select city, zone, hour-diff from cities, time-zones on us-map, time-zone-map \
                 at cities.loc covered-by time-zones.loc",
                0xcadc3f7b0117f20e,
                0x901d7f3b1690e2e0,
            ),
            (
                "select city, zone from cities, time-zones on us-map, time-zone-map \
                 at cities.loc covered-by time-zones.loc where population > 100000000",
                0x9fdeb680325f5d3d,
                0x1523a50500b44d45,
            ),
            (
                "select zone, city from time-zones, cities on time-zone-map, us-map \
                 at cities.loc covered-by time-zones.loc limit 0",
                0x19033aeecb4ab24d,
                0xa1825ee31fa87bf5,
            ),
            (
                "select lake from lakes on lake-map at lakes.loc covered-by \
                 (select states.loc from states on state-map \
                  at states.loc covered-by {78 +- 22, 25 +- 25})",
                0xb44028414d78aa72,
                0xaf7ab580b690ce90,
            ),
            // The inner plan's residual, order and limit decide which
            // locations drive the outer searches.
            (
                "select lake from lakes on lake-map at lakes.loc covered-by \
                 (select states.loc from states on state-map \
                  where state <> 'NY' order by state desc limit 3)",
                0xbe9889c0298b7e34,
                0xccfec9021703ee0a,
            ),
            // An inner column with no picture, and two relations no
            // at-clause pairs: errors whichever stage raises them.
            (
                "select lake from lakes on lake-map at lakes.loc covered-by \
                 (select states.state from states on state-map)",
                0x838b9bbfb36804af,
                0x35ef3127dede1b1f,
            ),
            (
                "select city, zone from cities, time-zones",
                0xe1a21c57f2f0eda6,
                0xcc61980acb97ccc8,
            ),
            // `disjoined` and `overlapping` from either side of a
            // juxtaposition and as a nested mapping: every US-map region
            // is a rectangle, whose MBR decides against a point or
            // another rectangle.
            (
                "select lake, zone from lakes, time-zones on lake-map, time-zone-map \
                 at lakes.loc disjoined time-zones.loc",
                0xd968f85199871cfc,
                0x650603daf3039396,
            ),
            (
                "select zone, lake from time-zones, lakes on time-zone-map, lake-map \
                 at lakes.loc disjoined time-zones.loc",
                0x44bf0d9040aedf22,
                0x5ac1aa67c330528a,
            ),
            (
                "select states.state, city from states, cities on state-map, us-map \
                 at states.loc overlapping cities.loc",
                0x367e00252bf4bbb0,
                0xf5932fc884dbb174,
            ),
            (
                "select states.state, city from cities, states on us-map, state-map \
                 at states.loc overlapping cities.loc",
                0x7a85e86acacfbd80,
                0xf5932fc884dbb174,
            ),
            (
                // 286 rows: a segment is exact against a region, so the
                // three sections that meet a state's MBR but not the state
                // (I-90#1 and Oregon, I-10#1 and Nevada-Utah, I-95#3 and
                // Great Lakes) are disjoined from it.
                "select hwy-name, state from highways, states on highway-map, state-map \
                 at highways.loc disjoined states.loc",
                0xd8de0121555828ed,
                0x0b780f60aa458a91,
            ),
            (
                "select city from cities on us-map at loc disjoined \
                 (select states.loc from states on state-map \
                  where state = 'Mountain' or state = 'New England')",
                0x7f19e1f176930b88,
                0xa8ba0650c548a444,
            ),
            (
                "select state from states on state-map at loc disjoined \
                 (select cities.loc from cities on us-map where population > 2000000)",
                0x06fc305999d1110b,
                0x6caaf856a8ae1dff,
            ),
            // Each operator against one window per picture: the
            // highway window holds I-95#2, which crosses it diagonally,
            // and meets I-10#7's MBR but not the segment; the state and
            // lake windows straddle region edges.
            (
                "select hwy-name, hwy-section from highways on highway-map \
                 at loc covering {67 +- 2, 13.75 +- 2.25}",
                0xd5133e118285e9b6,
                0xc99b47ada6423878,
            ),
            (
                "select hwy-name, hwy-section from highways on highway-map \
                 at loc covered-by {67 +- 2, 13.75 +- 2.25}",
                0xd5133e118285e9b6,
                0xc99b47ada6423878,
            ),
            (
                "select hwy-name, hwy-section from highways on highway-map \
                 at loc overlapping {67 +- 2, 13.75 +- 2.25}",
                0x9d2555ce0d3a8535,
                0x8c5b6366d033c801,
            ),
            (
                "select hwy-name, hwy-section from highways on highway-map \
                 at loc disjoined {67 +- 2, 13.75 +- 2.25}",
                0x8abc8144ac7d81af,
                0x9d5804f1329f6f63,
            ),
            (
                "select state from states on state-map at loc covering {17 +- 7, 31.5 +- 11.5}",
                0x01461f3bf540b223,
                0x884d47639865f5db,
            ),
            (
                "select state from states on state-map at loc covered-by {17 +- 7, 31.5 +- 11.5}",
                0x8cb1e1ef28517aae,
                0x63dde89a7d1b4bba,
            ),
            (
                "select state from states on state-map at loc overlapping {17 +- 7, 31.5 +- 11.5}",
                0x4d305f6360dc83a2,
                0x6b186ef1c72a9448,
            ),
            (
                "select state from states on state-map at loc disjoined {17 +- 7, 31.5 +- 11.5}",
                0x5e810e23b7709534,
                0xa1867afc2f0c95f6,
            ),
            (
                "select lake from lakes on lake-map at loc covering {57 +- 5, 37 +- 5}",
                0x0baae9dbfd30d14b,
                0x79a5a38873573603,
            ),
            (
                "select lake from lakes on lake-map at loc covered-by {57 +- 5, 37 +- 5}",
                0xf2643d7d1185c4ca,
                0xab0bc90db9ce40a8,
            ),
            (
                "select lake from lakes on lake-map at loc overlapping {57 +- 5, 37 +- 5}",
                0xe1ca3efd4916ca14,
                0x16d719985f3ef386,
            ),
            (
                "select lake from lakes on lake-map at loc disjoined {57 +- 5, 37 +- 5}",
                0x9ea43cc3c9e16297,
                0xab4f4adf4a337849,
            ),
            (
                "select city, loc from cities on us-map at loc nearest 7 {53 +- 0, 32 +- 0}",
                0x8ed7524e7dd7ed6c,
                0xb8178ef050f58694,
            ),
            (
                "select city, population from cities where population >= 6000000",
                0x4c6c0fdc6d14dc1a,
                0xd1ec0b0d3806a3e6,
            ),
            (
                "select state, population-density from states \
                 order by population-density desc limit 5",
                0x5f560251f8af6e09,
                0x0ac12dd89460f9bf,
            ),
            (
                "select city, population from cities order by population desc limit 3",
                0x9a28e96daef2c374,
                0x6108bb43f440da3e,
            ),
            (
                "select zone from time-zones order by zone limit 2",
                0x5be6000d1851fa87,
                0xe80e25b4e0199eeb,
            ),
            (
                "select lake, area, volume from lakes where area > 5.5 or volume < 100",
                0xf368ca52d56c21a5,
                0x0682cdff570ac175,
            ),
            (
                "select zone, hour-diff from time-zones where zone <> 'Central'",
                0xa89ed7e3db27d25c,
                0xa738b083e22ce01e,
            ),
            (
                "select hwy-name, hwy-section from highways where hwy-section >= 3",
                0xbb2e2bb48fb7001d,
                0xc1c851c42f6a702d,
            ),
            (
                "select northest-of(loc), count-of(loc) from highways",
                0x754b1587edb33812,
                0x36494c3a2cdcc78e,
            ),
            (
                "select lake, area(loc) from lakes where area(loc) >= 20",
                0x9278dfd7680e02a0,
                0xb1d23495603735c4,
            ),
        ],
    );
}

#[test]
fn sites_results_are_pinned() {
    let dbs = at_every_shape(sites_db);
    for (_, db) in &dbs {
        let sites = db.catalog().relation("sites").unwrap();
        assert_eq!(sites.len(), 19_540, "20 011 inserted, 471 deleted");
        assert!(sites.get(TupleId(0)).is_err(), "tuple 0 was deleted");
    }
    check(
        &dbs,
        &[
            (
                "select site, weight, score, loc from sites",
                0xfa89c4c21548301d,
                0x09e463b3715f57a5,
            ),
            (
                "select site, score, loc from sites on site-map \
                 at loc covered-by {500 +- 60, 500 +- 60}",
                0x160e5d1f0c659d2f,
                0x8882156bb1f9aadb,
            ),
            (
                "select site, weight, loc from sites on site-map \
                 at loc nearest 40 {250 +- 0, 750 +- 0}",
                0x9fc6527800e4db4f,
                0xc197de2eacb2ac47,
            ),
            (
                "select site, loc from sites where site >= 's1999'",
                0x24d852ead3d261e7,
                0x6e6407ffa29b80bb,
            ),
            (
                "select site, weight from sites where weight = 7",
                0xe8031da9c785a8b2,
                0x5c786b8a35e0c98e,
            ),
            (
                "select site, weight from sites where weight >= 990 and weight < 995.5",
                0xadad014ad12b7a53,
                0xb9d833a92e10bccb,
            ),
            (
                "select site, score from sites where score < -0.49 or score > 9.7",
                0x023cc56112a7081e,
                0x4e86b51a2a907dde,
            ),
            (
                "select site, score from sites where score < 0 order by score desc limit 30",
                0x269eda8ea74f1e57,
                0x193f8570f20f4379,
            ),
            (
                "select site, weight from sites where not weight > 3 and loc > 100",
                0x220d529cdf317cff,
                0xb937a4e0a590de25,
            ),
            (
                "select site, weight from sites order by site desc limit 50",
                0x0f0e68aafa0765f3,
                0x64ea031581f49fa3,
            ),
            (
                "select site, weight from sites order by weight limit 60",
                0xb4e24886231b7691,
                0xc4b2e938fef4b8d7,
            ),
            (
                "select site, score from sites order by score desc limit 70",
                0x88f56de3f981d8aa,
                0xd04e8b7be930000a,
            ),
            (
                "select site, score from sites order by score limit 70",
                0xda70e9febf42daa7,
                0x688feb4f2241cc7d,
            ),
            (
                "select site, score, weight from sites on site-map \
                 at loc covered-by {300 +- 80, 600 +- 80} where weight < 500 \
                 order by score limit 15",
                0x9d470a03f8078f75,
                0x4c3f497fcba5aba7,
            ),
            (
                "select northest-of(loc), count-of(loc) from sites on site-map \
                 at loc covered-by {700 +- 40, 200 +- 40}",
                0xe48939b73e1a45d2,
                0x8159cc13ceb168b0,
            ),
            (
                "select site, x(loc), y(loc) from sites on site-map \
                 at loc covered-by {100 +- 30, 900 +- 30} where score > 4",
                0x1b9165ed6ca87aca,
                0xdcde866d240ae3d6,
            ),
        ],
    );
}

/// Routes between stops: `origin` and `destination` are two `loc`
/// columns of one relation into one picture, `depot` a third into
/// another. Several tuples share an object, some `loc`s are NULL between
/// rows, and one tuple is deleted; a packed `stop-map` keeps two
/// objects in its delta. The highlights of these queries are where the
/// de-duplication on `(picture, object)` shows.
fn routes_db(config: RTreeConfig, packed: bool) -> PictorialDatabase {
    let mut db = PictorialDatabase::new(config);
    db.create_picture("stop-map", Rect::new(0.0, 0.0, 100.0, 100.0))
        .unwrap();
    db.create_picture("depot-map", Rect::new(0.0, 0.0, 100.0, 100.0))
        .unwrap();
    let schema = Schema::new(vec![
        Column::new("route", ColumnType::Str),
        Column::new("length", ColumnType::Int),
        Column::new("origin", ColumnType::Pointer),
        Column::new("destination", ColumnType::Pointer),
        Column::new("depot", ColumnType::Pointer),
    ])
    .unwrap();
    db.catalog_mut().create_relation("routes", schema).unwrap();
    db.associate("routes", "origin", "stop-map").unwrap();
    db.associate("routes", "destination", "stop-map").unwrap();
    db.associate("routes", "depot", "depot-map").unwrap();
    let stops: Vec<u64> = (0..12u64)
        .map(|i| {
            let p = Point::new((i * 8 + 3) as f64, ((i * 37) % 97) as f64);
            db.add_object("stop-map", SpatialObject::Point(p), &format!("stop{i}"))
                .unwrap()
        })
        .collect();
    let depots: Vec<u64> = (0..3u64)
        .map(|i| {
            let p = Point::new((i * 40 + 10) as f64, 50.0);
            db.add_object("depot-map", SpatialObject::Point(p), &format!("depot{i}"))
                .unwrap()
        })
        .collect();
    if packed {
        db.pack_all();
    }
    // Two stops arrive after the pack and sit in the delta.
    for i in 12..14u64 {
        let p = Point::new((i * 7) as f64, (i * 5) as f64);
        let object = db
            .add_object("stop-map", SpatialObject::Point(p), &format!("late{i}"))
            .unwrap();
        assert_eq!(object, i);
    }
    let mut tids = Vec::new();
    for i in 0..40u64 {
        let h = mix(i);
        // Few stops for many routes: most objects carry several tuples,
        // and a route may start and end at one stop.
        let stop = |k: u64| Value::Pointer(stops.get((k % 14) as usize).copied().unwrap_or(k % 14));
        let origin = if i % 7 == 3 { Value::Null } else { stop(h % 5) };
        let destination = if i % 9 == 4 {
            Value::Null
        } else {
            stop((h >> 8) % 14)
        };
        let depot = if i % 4 == 1 {
            Value::Null
        } else {
            Value::Pointer(depots[((h >> 16) % 3) as usize])
        };
        let length = ((h >> 24) % 500) as i64;
        let row = vec![
            format!("r{i}").into(),
            length.into(),
            origin,
            destination,
            depot,
        ];
        tids.push(db.insert("routes", row).unwrap());
    }
    db.delete("routes", tids[10]).unwrap();
    db
}

#[test]
fn routes_highlights_are_pinned() {
    check(
        &at_every_shape(routes_db),
        &[
            (
                "select route, length from routes",
                0x5014986fd04f2961,
                0xd562d63988a8916d,
            ),
            (
                "select route, origin, destination, depot from routes",
                0x42dd6933e8f9ed01,
                0xd1c0e7a8ec3d5de5,
            ),
            (
                "select route from routes on stop-map \
                 at origin covered-by {20 +- 20, 50 +- 50}",
                0xfed9ebc4fa25503b,
                0x7643826f71f052d5,
            ),
            (
                "select route, length from routes on stop-map \
                 at destination overlapping {60 +- 40, 50 +- 50} \
                 order by length desc limit 9",
                0x3561ce9e6096b16d,
                0x638a151140000be5,
            ),
            (
                "select route, depot from routes where length > 200 order by route limit 12",
                0x115203de68d3dc48,
                0x75c9d76c12d77cee,
            ),
            (
                "select route, x(origin) from routes on stop-map \
                 at origin covered-by {20 +- 20, 50 +- 50}",
                0xaf0a4558989ef3c7,
                0x2cb27cf65c969983,
            ),
            (
                "select count-of(destination) from routes where length < 250",
                0xdae8234e5e249080,
                0xe05424dcdeabed8a,
            ),
            // A pictorial function meets a NULL `loc` after the first rows.
            (
                "select route, x(destination) from routes",
                0xdae8234e5e249080,
                0xe05424dcdeabed8a,
            ),
        ],
    );
}

/// A 50 × 50 grid of points at spacing 2 over `grid-map`, one `grid`
/// tuple per point, inserted row by row. Every cell centre has four
/// sites at one distance and eight at the next.
fn grid_db(config: RTreeConfig, packed: bool) -> PictorialDatabase {
    let mut db = PictorialDatabase::new(config);
    db.create_picture("grid-map", Rect::new(0.0, 0.0, 100.0, 100.0))
        .unwrap();
    let schema = Schema::new(vec![
        Column::new("site", ColumnType::Str),
        Column::new("loc", ColumnType::Pointer),
    ])
    .unwrap();
    db.catalog_mut().create_relation("grid", schema).unwrap();
    db.associate("grid", "loc", "grid-map").unwrap();
    for i in 0..2_500u32 {
        let p = Point::new(f64::from(i % 50 * 2), f64::from(i / 50 * 2));
        let object = db
            .add_object("grid-map", SpatialObject::Point(p), &format!("g{i}"))
            .unwrap();
        let row = vec![format!("g{i}").into(), Value::Pointer(object)];
        db.insert("grid", row).unwrap();
    }
    if packed {
        db.pack_all();
    }
    db
}

/// `nearest 2` cuts through the four sites tied around (25, 25), and
/// `nearest 5` through the eight tied behind them: the smallest ids win
/// each tie, whichever tree is searched.
#[test]
fn nearest_ties_are_pinned() {
    check(
        &at_every_shape(grid_db),
        &[
            (
                "select site, loc from grid on grid-map at loc nearest 2 {25 +- 0, 25 +- 0}",
                0xad6f309d348dbd9f,
                0x237be46ce83c3b87,
            ),
            (
                "select site, loc from grid on grid-map at loc nearest 5 {25 +- 0, 25 +- 0}",
                0x8d06db11ba84e3ce,
                0x57c629b1e124db84,
            ),
        ],
    );
}
