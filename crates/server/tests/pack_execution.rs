//! End-to-end check of pipelined queries: a backlog sent behind a
//! parked `#sleep` is answered query by query, and every response must
//! match single-query execution of the same text — same rows, same
//! columns, correct id routing. A malformed query, or one whose deadline
//! passes while it is parked, is answered in its own slot, and the plan
//! cache serves the backlog.

use psql::database::PictorialDatabase;
use psql_server::client::Client;
use psql_server::protocol::Response;
use psql_server::server::{Server, ServerConfig};
use std::collections::HashMap;
use std::time::Duration;

/// A server over the US map with one worker, and a client on it.
fn one_worker_server() -> (Server, Client) {
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 64,
            max_batch: 32,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let client =
        Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).expect("connect");
    (server, client)
}

#[test]
fn pipelined_pack_answers_every_query_as_single_execution_does() {
    let (server, mut client) = one_worker_server();

    // A parked query, answered after the backlog sent behind it.
    let sleep_id = client.send_query("#sleep 200").expect("send sleep");

    let texts = [
        "select city from cities on us-map at loc covered-by {82.5 +- 17.5, 25 +- 20}",
        "select zone from time-zones on time-zone-map at loc overlapping {50 +- 10, 25 +- 25}",
        "select city from cities on us-map at loc nearest 3 {53 +- 0, 32 +- 0}",
        "select city from cities where population >= 6000000",
        "select zone from time-zones on time-zone-map at loc covering {53 +- 1, 32 +- 1}",
        "select city from cities on us-map at loc disjoined {10 +- 9, 25 +- 25}",
        "select count-of(loc) from cities on us-map at loc covered-by {82.5 +- 17.5, 25 +- 20}",
        "select city, zone from cities, time-zones on us-map, time-zone-map \
         at cities.loc covered-by time-zones.loc",
        // One malformed query: its error must land in its own slot.
        "select nonsense from cities",
    ];
    let mut ids = Vec::new();
    for text in &texts {
        ids.push(client.send_query(text).expect("pipeline query"));
    }

    // Collect one response per request, keyed by id (arrival order is
    // not part of the contract).
    let mut responses: HashMap<u64, Response> = HashMap::new();
    for _ in 0..=texts.len() {
        let resp = client.read_response().expect("response");
        let id = match &resp {
            Response::Result { id, .. }
            | Response::Error { id, .. }
            | Response::Timeout { id }
            | Response::Overloaded { id, .. } => *id,
            other => panic!("unexpected response {other:?}"),
        };
        responses.insert(id, resp);
    }
    assert!(responses.contains_key(&sleep_id), "sleep answered");

    // Differential: each served result equals local single-query
    // execution of the same text against the same database.
    let db = PictorialDatabase::with_us_map();
    for (text, id) in texts.iter().zip(&ids) {
        let local = psql::parse_query(text).and_then(|q| psql::exec::execute(&db, &q));
        match (&responses[id], local) {
            (Response::Result { result, .. }, Ok(expect)) => {
                assert_eq!(result.columns, expect.columns, "{text}");
                assert_eq!(result.rows, expect.rows, "{text}");
                assert_eq!(result.highlights, expect.highlights, "{text}");
            }
            (Response::Error { message, .. }, Err(e)) => {
                assert_eq!(message, &e.to_string(), "{text}");
            }
            (served, local) => panic!("{text}: served {served:?} vs local {local:?}"),
        }
    }

    server.stop();
}

#[test]
fn pack_reuses_cached_plans() {
    // The same texts pipelined twice behind a `#sleep`: the first round
    // prepares and caches every plan, the second must execute the cached
    // plans (full hits) and answer identically.
    let (server, mut client) = one_worker_server();
    let texts = [
        "select city from cities on us-map at loc covered-by {82.5 +- 17.5, 25 +- 20}",
        "select zone from time-zones on time-zone-map at loc overlapping {50 +- 10, 25 +- 25}",
        "select city from cities on us-map at loc nearest 3 {53 +- 0, 32 +- 0}",
        "select city from cities where population >= 6000000",
    ];
    let mut rounds: Vec<Vec<Response>> = Vec::new();
    for _ in 0..2 {
        let sleep_id = client.send_query("#sleep 200").expect("send sleep");
        let ids: Vec<u64> = texts
            .iter()
            .map(|text| client.send_query(text).expect("pipeline query"))
            .collect();
        let mut responses: HashMap<u64, Response> = HashMap::new();
        for _ in 0..=texts.len() {
            let resp = client.read_response().expect("response");
            let Response::Result { id, .. } = &resp else {
                panic!("unexpected response {resp:?}");
            };
            responses.insert(*id, resp);
        }
        assert!(responses.contains_key(&sleep_id), "sleep answered");
        rounds.push(
            ids.iter()
                .map(|id| responses.remove(id).expect("answered"))
                .collect(),
        );
    }
    for (first, second) in rounds[0].iter().zip(&rounds[1]) {
        match (first, second) {
            (Response::Result { result: a, .. }, Response::Result { result: b, .. }) => {
                assert_eq!(a, b)
            }
            other => panic!("unexpected responses {other:?}"),
        }
    }
    let stats = client.stats().expect("stats");
    let plan_cache = &stats[stats.find("\"plan_cache\":").expect("plan_cache in stats")..];
    assert_eq!(
        json_u64(plan_cache, "\"misses\":"),
        texts.len() as u64,
        "{stats}"
    );
    assert_eq!(
        json_u64(plan_cache, "\"hits\":"),
        texts.len() as u64,
        "{stats}"
    );

    server.stop();
}

#[test]
fn parked_query_past_its_deadline_gets_timeout_without_poisoning_its_neighbours() {
    // A query that sleeps 100 ms on a 50 ms deadline waits out its sleep
    // parked; when it is due, its deadline has passed, so it is answered
    // Timeout without executing. The queries pipelined around it must be
    // answered as single execution answers them.
    let (server, mut client) = one_worker_server();
    let healthy = [
        "select zone from time-zones on time-zone-map at loc overlapping {50 +- 10, 25 +- 25}",
        "select city from cities where population >= 6000000",
        "select city from cities on us-map at loc nearest 3 {53 +- 0, 32 +- 0}",
    ];
    let mut healthy_ids = vec![client.send_query(healthy[0]).expect("pipeline query")];
    let doomed_id = client
        .send_query_with_timeout(
            "#sleep 100 select city from cities on us-map at loc covered-by {82.5 +- 17.5, 25 +- 20}",
            50,
        )
        .expect("send doomed");
    for text in &healthy[1..] {
        healthy_ids.push(client.send_query(text).expect("pipeline query"));
    }

    let mut responses: HashMap<u64, Response> = HashMap::new();
    for _ in 0..(1 + healthy.len()) {
        let resp = client.read_response().expect("response");
        let id = match &resp {
            Response::Result { id, .. }
            | Response::Error { id, .. }
            | Response::Timeout { id }
            | Response::Overloaded { id, .. } => *id,
            other => panic!("unexpected response {other:?}"),
        };
        responses.insert(id, resp);
    }

    assert!(
        matches!(responses[&doomed_id], Response::Timeout { .. }),
        "doomed query should time out: {:?}",
        responses[&doomed_id]
    );
    let db = PictorialDatabase::with_us_map();
    for (text, id) in healthy.iter().zip(&healthy_ids) {
        let local = psql::parse_query(text)
            .and_then(|q| psql::exec::execute(&db, &q))
            .expect("runs locally");
        match &responses[id] {
            Response::Result { result, .. } => {
                assert!(!result.rows.is_empty(), "{text} returned nothing");
                assert_eq!(result.rows, local.rows, "{text}");
            }
            other => panic!("{text}: healthy neighbour poisoned: {other:?}"),
        }
    }

    let stats = client.stats().expect("stats");
    assert!(json_u64(&stats, "\"timeout\":") >= 1, "{stats}");
    server.stop();
}

/// Extracts the integer following `key` from a flat JSON string.
fn json_u64(json: &str, key: &str) -> u64 {
    let at = json.find(key).unwrap_or_else(|| panic!("{key} in {json}"));
    json[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer after key")
}
