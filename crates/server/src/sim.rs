//! A seeded simulation of the whole request path in one thread, with no
//! socket, no thread and no sleep. Four peers talk to the server through
//! their connection machines (`reactor::Conn`); the database side runs
//! through the same calls the server's threads make (`handle_frame`,
//! `serve`, `rebuild`); and a crash drops everything but the WAL file,
//! then recovers from it. A seed picks the order of every step, so a
//! failure names its seed and step and replays exactly.
//!
//! Checks:
//! * every request is answered exactly once, matched by id (a crash
//!   loses the requests in flight with their connections);
//! * query rows equal `psql::exec::query` on the base database, compared
//!   sorted, since a `REPACK` moves traversal order;
//! * every acknowledged insert is in the live `us-map` with its object,
//!   and nothing is there that no peer sent — after a crash too;
//! * a random window search over `us-map` equals brute force.

use crate::metrics::Metrics;
use crate::protocol::{decode_response, encode_request, FrameDecoder, Request, Response};
use crate::reactor::Conn;
use crate::server::{handle_frame, rebuild, recover, serve, ServerConfig, Shared};
use pictorial_relational::Value;
use psql::database::PictorialDatabase;
use psql::SpatialOp;
use rtree_geom::{Point, Rect, SpatialObject};
use rtree_index::SearchScratch;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// splitmix64: a fixed-seed stream.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fewer than `max` random bytes.
    pub(crate) fn bytes(&mut self, max: usize) -> Vec<u8> {
        let n = self.below(max);
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// The picture every insert goes to.
const PICTURE: &str = "us-map";
const PEERS: usize = 4;

/// A request a peer sent and has not yet seen answered.
enum Sent {
    Query(String),
    Insert(String),
    Ping,
    Repack,
}

/// One client: its connection machine on the server side, and its end
/// of the socket.
struct Peer {
    conn: Conn,
    token: u64,
    /// Bytes the peer wrote that have not reached its machine.
    wire: Vec<u8>,
    /// What the peer has read of the machine's answers.
    inbox: FrameDecoder,
    pending: HashMap<u64, Sent>,
}

impl Peer {
    fn new(generation: u64, index: usize) -> Peer {
        Peer {
            conn: Conn::default(),
            token: generation << 32 | index as u64,
            wire: Vec::new(),
            inbox: FrameDecoder::new(),
            pending: HashMap::new(),
        }
    }
}

/// What one seed's run saw.
#[derive(Debug, Default)]
struct Tally {
    crashes: usize,
    /// Rebuilds published: background merges and `REPACK`s.
    merges: u64,
    answers: usize,
    acked_inserts: usize,
    rows_checked: usize,
}

/// The simulated world around the database side: everything that
/// outlives a crash, and the peers, which a crash replaces.
struct World {
    seed: u64,
    step: usize,
    rng: Rng,
    base: PictorialDatabase,
    /// Objects `us-map` holds before any insert.
    base_len: u64,
    expected: HashMap<String, Vec<Vec<Value>>>,
    peers: Vec<Peer>,
    generation: u64,
    next_id: u64,
    /// Every insert any peer sent, by label.
    sent: HashMap<String, SpatialObject>,
    acked: HashSet<String>,
    scratch: SearchScratch,
    tally: Tally,
}

fn config() -> ServerConfig {
    ServerConfig {
        merge_threshold: 8,
        // No deadline passes in a run: every query is answered by value.
        default_deadline: Duration::from_secs(3600),
        ..ServerConfig::default()
    }
}

/// Starts the database side: the base database with the WAL replayed.
fn start(wal: &Path) -> Shared {
    let mut db = PictorialDatabase::with_us_map();
    let (wal, _) = recover(&mut db, wal).expect("recover the WAL");
    Shared::new(db, config(), Some(wal), Metrics::default()).expect("database side")
}

impl World {
    fn new(seed: u64) -> World {
        let base = PictorialDatabase::with_us_map();
        let base_len = base.picture(PICTURE).expect("us-map").len() as u64;
        World {
            seed,
            step: 0,
            rng: Rng(seed),
            base,
            base_len,
            expected: HashMap::new(),
            peers: (0..PEERS).map(|i| Peer::new(1, i)).collect(),
            generation: 1,
            next_id: 1,
            sent: HashMap::new(),
            acked: HashSet::new(),
            scratch: SearchScratch::new(),
            tally: Tally::default(),
        }
    }

    #[track_caller]
    fn check(&self, holds: bool, what: impl FnOnce() -> String) {
        assert!(holds, "seed {} step {}: {}", self.seed, self.step, what());
    }

    fn coordinate(&mut self, max: usize) -> f64 {
        self.rng.below(max * 4) as f64 / 4.0
    }

    fn window(&mut self) -> Rect {
        let (x, y) = (self.coordinate(100), self.coordinate(50));
        let (w, h) = (self.coordinate(40), self.coordinate(25));
        Rect::new(x, y, (x + w).min(100.0), (y + h).min(50.0))
    }

    /// A peer writes one request frame.
    fn write(&mut self) {
        let p = self.rng.below(PEERS);
        let id = self.next_id;
        self.next_id += 1;
        let (request, sent) = match self.rng.below(20) {
            0..=8 => {
                let w = self.window();
                let op = ["covered-by", "overlapping"][self.rng.below(2)];
                let text = format!(
                    "select city, state, population from cities on us-map at loc {op} \
                     {{{} +- {}, {} +- {}}}",
                    (w.min_x + w.max_x) / 2.0,
                    (w.max_x - w.min_x) / 2.0,
                    (w.min_y + w.max_y) / 2.0,
                    (w.max_y - w.min_y) / 2.0,
                );
                let request = Request::Query {
                    id,
                    timeout_ms: 0,
                    text: text.clone(),
                };
                (request, Sent::Query(text))
            }
            9..=16 => {
                let label = format!("sim-{id}");
                let object =
                    SpatialObject::Point(Point::new(self.coordinate(100), self.coordinate(50)));
                self.sent.insert(label.clone(), object.clone());
                let request = Request::Insert {
                    id,
                    picture: PICTURE.into(),
                    label: label.clone(),
                    object,
                };
                (request, Sent::Insert(label))
            }
            17..=18 => (Request::Ping { id }, Sent::Ping),
            _ => (Request::Repack { id }, Sent::Repack),
        };
        let payload = encode_request(&request);
        let peer = &mut self.peers[p];
        peer.wire
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        peer.wire.extend_from_slice(&payload);
        peer.pending.insert(id, sent);
    }

    /// 1–256 of a peer's bytes reach its machine.
    fn deliver(&mut self, shared: &Shared, p: usize, most: usize) {
        let peer = &mut self.peers[p];
        let n = most.min(peer.wire.len());
        let bytes: Vec<u8> = peer.wire.drain(..n).collect();
        let token = peer.token;
        let poisoned = peer
            .conn
            .on_bytes(&bytes, |f| handle_frame(f, token, shared));
        self.check(!poisoned, || "a well-framed stream was poisoned".into());
    }

    /// The completion list is handed to the machines.
    fn complete(&mut self, shared: &Shared) {
        let mut done = Vec::new();
        shared.notifier.take(&mut done);
        for (token, frame) in done {
            let peer = self.peers.iter().position(|p| p.token == token);
            self.check(peer.is_some(), || format!("an answer for token {token:#x}"));
            self.peers[peer.expect("checked")].conn.on_frame(&frame);
        }
    }

    /// A peer's socket takes up to `most` bytes, and the peer reads every
    /// whole answer among them.
    fn read(&mut self, p: usize, most: usize) {
        let peer = &mut self.peers[p];
        let n = most.min(peer.conn.unsent().len());
        peer.inbox.extend(&peer.conn.unsent()[..n]);
        peer.conn.wrote(n);
        let mut answers = Vec::new();
        while let Some(frame) = peer.inbox.next_frame().expect("well framed") {
            answers.push(decode_response(&frame).expect("a response"));
        }
        for response in answers {
            self.answered(p, response);
        }
    }

    fn answered(&mut self, p: usize, response: Response) {
        self.tally.answers += 1;
        let id = match &response {
            Response::Result { id, .. }
            | Response::Error { id, .. }
            | Response::Timeout { id }
            | Response::Overloaded { id, .. }
            | Response::Pong { id }
            | Response::Stats { id, .. }
            | Response::Done { id, .. } => *id,
        };
        let sent = self.peers[p].pending.remove(&id);
        self.check(sent.is_some(), || {
            format!("{response:?} answers nothing outstanding on peer {p}")
        });
        match (sent.expect("checked"), response) {
            (Sent::Query(_) | Sent::Insert(_) | Sent::Repack, Response::Overloaded { .. }) => {}
            (Sent::Query(text), Response::Result { result, .. }) => {
                let base = &self.base;
                let want = self.expected.entry(text.clone()).or_insert_with(|| {
                    let mut rows = psql::exec::query(base, &text).expect("oracle").rows;
                    rows.sort();
                    rows
                });
                let mut got = result.rows;
                got.sort();
                let holds = got == *want;
                self.check(holds, || format!("{text}: rows {got:?}"));
                self.tally.rows_checked += got.len();
            }
            (Sent::Insert(label), Response::Done { .. }) => {
                self.acked.insert(label);
                self.tally.acked_inserts += 1;
            }
            (Sent::Ping, Response::Pong { .. }) | (Sent::Repack, Response::Done { .. }) => {}
            (_, other) => self.check(false, || format!("unexpected {other:?}")),
        }
    }

    /// Every acknowledged insert is in `us-map` with its object, nothing
    /// is there that no peer sent, and a random window search over it
    /// equals brute force.
    fn check_picture(&mut self, shared: &Shared) {
        let snapshot = shared.snapshots.load();
        let pic = snapshot.db.picture(PICTURE).expect("us-map");
        let mut seen = HashSet::new();
        for id in self.base_len..pic.len() as u64 {
            let label = pic.label(id).expect("label");
            let object = pic.object(id).expect("object");
            let sent = self.sent.get(label);
            self.check(sent == Some(&*object), || {
                format!("object {id} {label:?} {object:?} is not one a peer sent")
            });
            self.check(seen.insert(label.to_owned()), || {
                format!("{label:?} is in the picture twice")
            });
        }
        for label in &self.acked {
            self.check(seen.contains(label), || {
                format!("acknowledged insert {label:?} is lost")
            });
        }

        let window = self.window();
        let op = [
            SpatialOp::Covering,
            SpatialOp::CoveredBy,
            SpatialOp::Overlapping,
            SpatialOp::Disjoined,
        ][self.rng.below(4)];
        let mut found = pic.search_window_fast(op, &window, &mut self.scratch);
        found.sort_unstable();
        let brute: Vec<u64> = pic
            .object_ids()
            .filter(|&id| op.eval_window(&pic.object(id).expect("object"), &window))
            .collect();
        self.check(found == brute, || {
            format!("{op:?} {window:?}: search {found:?}, brute force {brute:?}")
        });
    }

    /// A crash took the database side: the machines and everything in
    /// flight go with it, and the peers reconnect.
    fn crashed(&mut self) {
        self.tally.crashes += 1;
        self.generation += 1;
        self.peers = (0..PEERS).map(|i| Peer::new(self.generation, i)).collect();
    }
}

/// Runs one seed for `steps` steps, then lets every request still in
/// flight be answered.
fn run(seed: u64, steps: usize, wal: &Path) -> Tally {
    let _ = std::fs::remove_file(wal);
    let mut world = World::new(seed);
    let mut shared = start(wal);
    let mut jobs = Vec::new();
    let mut waiting = Vec::new();
    let mut scratch = SearchScratch::new();
    for step in 0..steps {
        world.step = step;
        match world.rng.below(100) {
            0 => {
                world.tally.merges += shared.metrics.merges.get();
                drop(shared);
                world.crashed();
                shared = start(wal);
                world.check_picture(&shared);
            }
            1..=22 => world.write(),
            23..=47 => {
                let (p, most) = (world.rng.below(PEERS), 1 + world.rng.below(256));
                world.deliver(&shared, p, most);
            }
            48..=59 => {
                let max = shared.config.max_batch;
                shared
                    .queue
                    .pop_batch_timeout(&mut jobs, max, Duration::ZERO);
                serve(&shared, &jobs, &mut scratch);
                jobs.clear();
                world.check_picture(&shared);
            }
            60..=64 => {
                shared
                    .repacks
                    .pop_batch_timeout(&mut waiting, usize::MAX, Duration::ZERO);
                rebuild(&shared, &mut waiting);
                world.check_picture(&shared);
            }
            65..=79 => world.complete(&shared),
            _ => {
                let (p, most) = (world.rng.below(PEERS), world.rng.below(4096));
                world.read(p, most);
            }
        }
    }

    // Quiesce: every byte delivered, every job served, every REPACK
    // rebuilt, every answer read.
    world.step = steps;
    for p in 0..PEERS {
        world.deliver(&shared, p, usize::MAX);
    }
    let max = shared.config.max_batch;
    while shared
        .queue
        .pop_batch_timeout(&mut jobs, max, Duration::ZERO)
        .is_some_and(|n| n > 0)
    {
        serve(&shared, &jobs, &mut scratch);
        jobs.clear();
    }
    shared
        .repacks
        .pop_batch_timeout(&mut waiting, usize::MAX, Duration::ZERO);
    rebuild(&shared, &mut waiting);
    world.complete(&shared);
    for p in 0..PEERS {
        world.read(p, usize::MAX);
        let left = world.peers[p].pending.len();
        world.check(left == 0, || {
            format!("peer {p}: {left} requests unanswered")
        });
        world.check(world.peers[p].conn.unsent().is_empty(), || {
            format!("peer {p}: answers unread")
        });
    }
    world.check_picture(&shared);
    world.tally.merges += shared.metrics.merges.get();
    drop(shared);
    let _ = std::fs::remove_file(wal);
    world.tally
}

/// The whole request path at three fixed seeds. A run that fails names
/// the seed and step of the first check that broke.
#[test]
fn whole_request_path_at_fixed_seeds() {
    let dir: PathBuf = std::env::temp_dir();
    for seed in [1985u64, 2718, 3141] {
        let wal = dir.join(format!("psql-sim-{}-{seed}.wal", std::process::id()));
        let tally = run(seed, 10_000, &wal);
        println!("seed {seed}: {tally:?}");
        assert!(tally.crashes >= 50, "seed {seed}: {tally:?}");
        assert!(tally.acked_inserts >= 100, "seed {seed}: {tally:?}");
        assert!(tally.rows_checked >= 100, "seed {seed}: {tally:?}");
    }
}
