//! The thread-model contract of the event-driven core: connections are
//! slab entries on the reactor, not threads. Opening many connections
//! must not grow the process thread count at all — the regression this
//! guards against is the old thread-per-connection accept loop (and its
//! leaked `JoinHandle`s).

#![cfg(target_os = "linux")]

use psql::database::PictorialDatabase;
use psql_server::client::Client;
use psql_server::server::{Server, ServerConfig};
use std::time::Duration;

/// Reads the live thread count from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

#[test]
fn connections_do_not_spawn_threads() {
    let before = thread_count();
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // Baseline after the server's fixed complement is up (reactor +
    // rebuild + workers).
    let baseline = thread_count();
    assert_eq!(baseline - before, 1 + 1 + 2, "the fixed complement");

    // 64 live connections, each proven active with a ping.
    let mut clients: Vec<Client> = (0..64)
        .map(|_| Client::connect_timeout(addr, Duration::from_secs(30)).expect("connect"))
        .collect();
    for c in &mut clients {
        c.ping().expect("ping");
    }

    let with_connections = thread_count();
    assert_eq!(
        with_connections, baseline,
        "64 connections changed the thread count ({baseline} -> {with_connections}): \
         connections must be reactor slab entries, not threads"
    );

    // And closing them leaks nothing either (the old accept loop kept a
    // JoinHandle per connection forever).
    drop(clients);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if thread_count() == baseline {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "thread count did not settle back to {baseline}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.stop();
}
