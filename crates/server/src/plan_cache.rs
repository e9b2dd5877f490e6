//! A bounded cached-plan table keyed by PSQL query text.
//!
//! Interactive pictorial workloads repeat themselves — the same window
//! query pans across a map, the same juxtaposition refreshes on a timer
//! — so the server caches both stages of query preparation:
//!
//! 1. **Parse cache:** query text → [`Arc<Query>`]. The AST depends
//!    only on the text, never on data, so a parse-cache entry is valid
//!    forever.
//! 2. **Plan cache:** each entry may also pin the compiled [`Plan`],
//!    stamped with the snapshot epoch it was planned against. Plans
//!    embed data-dependent choices (access paths, spatial strategy), so
//!    a plan is served only while the executing snapshot's epoch
//!    matches; a stale stamp falls back to re-planning and restamps.
//!
//! Eviction is LRU over a bounded entry count. The epoch stamp is all
//! the invalidation there is: every publication — an insert batch, a
//! background merge, a `REPACK` — bumps the epoch, so no plan compiled
//! against an earlier snapshot's trees is ever served against a later
//! one.
//!
//! Locking: one mutex over the table, held only for HashMap operations —
//! parsing and planning (the expensive parts) run outside the lock. Two
//! threads may race to prepare the same text; both succeed, last insert
//! wins, and the loser's work is wasted rather than serialized.

use psql::ast::Query;
use psql::plan::Plan;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One cached preparation of a query text.
struct Entry {
    query: Arc<Query>,
    /// Compiled plan stamped with the snapshot epoch it is valid for.
    plan: Option<(u64, Arc<Plan>)>,
    /// Logical clock of the entry's last use, for LRU eviction.
    last_used: u64,
}

struct State {
    map: HashMap<String, Entry>,
    /// Monotone logical clock; bumped on every touch.
    tick: u64,
}

/// What a cache probe found for a query text.
pub enum Prepared {
    /// Nothing cached — the caller parses (and plans) from scratch, then
    /// offers the results back via [`PlanCache::store`].
    Miss,
    /// The AST is cached but no plan is valid for the executing epoch.
    Query(Arc<Query>),
    /// Both stages cached and valid: execute directly.
    Plan(Arc<Query>, Arc<Plan>),
}

/// The bounded LRU table. Capacity `0` disables caching entirely (every
/// probe misses, every store is dropped).
pub struct PlanCache {
    capacity: usize,
    state: Mutex<State>,
}

impl PlanCache {
    /// A cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            state: Mutex::new(State {
                map: HashMap::new(),
                tick: 0,
            }),
        }
    }

    /// Probes the cache for `text`, wanting a plan valid at `epoch`.
    pub fn prepare(&self, text: &str, epoch: u64) -> Prepared {
        if self.capacity == 0 {
            return Prepared::Miss;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.tick += 1;
        let tick = state.tick;
        let Some(entry) = state.map.get_mut(text) else {
            return Prepared::Miss;
        };
        entry.last_used = tick;
        match &entry.plan {
            Some((stamp, plan)) if *stamp == epoch => {
                Prepared::Plan(Arc::clone(&entry.query), Arc::clone(plan))
            }
            _ => Prepared::Query(Arc::clone(&entry.query)),
        }
    }

    /// Offers a freshly prepared query (and optionally its plan, stamped
    /// with `epoch`) back to the cache. Returns `true` when the insert
    /// evicted an older entry to make room.
    pub fn store(&self, text: &str, query: Arc<Query>, plan: Option<(u64, Arc<Plan>)>) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.tick += 1;
        let tick = state.tick;
        if let Some(entry) = state.map.get_mut(text) {
            entry.last_used = tick;
            entry.query = query;
            if plan.is_some() {
                entry.plan = plan;
            }
            return false;
        }
        let mut evicted = false;
        if state.map.len() >= self.capacity {
            // Linear LRU scan: the capacity is small (hundreds), misses
            // are already paying a parse, and this keeps the entry flat.
            if let Some(oldest) = state
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                state.map.remove(&oldest);
                evicted = true;
            }
        }
        state.map.insert(
            text.to_owned(),
            Entry {
                query,
                plan,
                last_used: tick,
            },
        );
        evicted
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psql::database::PictorialDatabase;

    fn prep(text: &str, db: &PictorialDatabase) -> (Arc<Query>, Arc<Plan>) {
        let q = Arc::new(psql::parse_query(text).expect("parse"));
        let p = Arc::new(psql::plan::plan(db, &q).expect("plan"));
        (q, p)
    }

    const Q1: &str = "select city from cities on us-map at loc covered-by {82.5 +- 17.5, 25 +- 20}";
    const Q2: &str = "select zone from time-zones";

    #[test]
    fn miss_store_hit_cycle() {
        let db = PictorialDatabase::with_us_map();
        let cache = PlanCache::new(4);
        assert!(matches!(cache.prepare(Q1, 1), Prepared::Miss));
        let (q, p) = prep(Q1, &db);
        cache.store(Q1, Arc::clone(&q), Some((1, Arc::clone(&p))));
        match cache.prepare(Q1, 1) {
            Prepared::Plan(cq, cp) => {
                assert!(Arc::ptr_eq(&cq, &q));
                assert!(Arc::ptr_eq(&cp, &p));
            }
            _ => panic!("expected full plan hit"),
        }
        // A different epoch demotes the hit to parse-only.
        assert!(matches!(cache.prepare(Q1, 2), Prepared::Query(_)));
    }

    #[test]
    fn restamping_updates_the_epoch() {
        let db = PictorialDatabase::with_us_map();
        let cache = PlanCache::new(4);
        let (q, p) = prep(Q1, &db);
        cache.store(Q1, Arc::clone(&q), Some((1, Arc::clone(&p))));
        // Re-plan at epoch 3 and store over the stale stamp.
        cache.store(Q1, q, Some((3, p)));
        assert!(matches!(cache.prepare(Q1, 3), Prepared::Plan(..)));
        assert!(matches!(cache.prepare(Q1, 1), Prepared::Query(_)));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let db = PictorialDatabase::with_us_map();
        let cache = PlanCache::new(2);
        let (q1, _) = prep(Q1, &db);
        let (q2, _) = prep(Q2, &db);
        assert!(!cache.store(Q1, q1, None));
        assert!(!cache.store(Q2, q2, None));
        // Touch Q1 so Q2 is the LRU victim.
        assert!(matches!(cache.prepare(Q1, 1), Prepared::Query(_)));
        let (q3, _) = prep("select population from cities", &db);
        assert!(cache.store("select population from cities", q3, None));
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.prepare(Q2, 1), Prepared::Miss));
        assert!(matches!(cache.prepare(Q1, 1), Prepared::Query(_)));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let db = PictorialDatabase::with_us_map();
        let cache = PlanCache::new(0);
        let (q, p) = prep(Q1, &db);
        assert!(!cache.store(Q1, q, Some((1, p))));
        assert!(matches!(cache.prepare(Q1, 1), Prepared::Miss));
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_plan_executes_identically() {
        use psql::functions::FunctionRegistry;
        use rtree_index::SearchScratch;

        let db = PictorialDatabase::with_us_map();
        let functions = FunctionRegistry::with_builtins();
        let mut scratch = SearchScratch::new();
        let (q, p) = prep(Q1, &db);
        let direct =
            psql::exec::execute_with_scratch(&db, &q, &functions, &mut scratch).expect("direct");
        let via_plan = psql::exec::execute_plan_with_scratch(&db, &p, &functions, &mut scratch)
            .expect("via plan");
        assert_eq!(direct, via_plan);
    }
}
