//! A bounded cached-plan table keyed by PSQL query text.
//!
//! Interactive pictorial workloads repeat themselves — the same window
//! query pans across a map, the same juxtaposition refreshes on a timer
//! — so the server caches each text's compiled [`Plan`], stamped with
//! the snapshot epoch it was planned against. Plans embed data-dependent
//! choices (access paths, spatial strategy), so a plan is served only
//! while the executing snapshot's epoch matches; a stale stamp is a miss
//! that parses and plans again and restamps the entry.
//!
//! Eviction is LRU over a bounded entry count. The epoch stamp is all
//! the invalidation there is: every publication — an insert batch, a
//! background merge, a `REPACK` — bumps the epoch, so no plan compiled
//! against an earlier snapshot's trees is ever served against a later
//! one.
//!
//! The table is plain data: the thread that answers queries (the
//! reactor, or the simulation) owns it, and nothing else reads it.

use psql::plan::Plan;
use std::collections::HashMap;
use std::sync::Arc;

/// One cached plan: the epoch it is valid for, and the plan.
struct Entry {
    epoch: u64,
    plan: Arc<Plan>,
    /// Logical clock of the entry's last use, for LRU eviction.
    last_used: u64,
}

/// The bounded LRU table. Capacity `0` disables caching entirely (every
/// probe misses, every store is dropped).
pub struct PlanCache {
    capacity: usize,
    map: HashMap<String, Entry>,
    /// Monotone logical clock; bumped on every touch.
    tick: u64,
}

impl PlanCache {
    /// A cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            map: HashMap::new(),
            tick: 0,
        }
    }

    /// The plan cached for `text` if it is stamped with `epoch`; `None`
    /// is a miss, and the caller parses, plans and offers the plan back
    /// through [`PlanCache::store`].
    pub fn get(&mut self, text: &str, epoch: u64) -> Option<Arc<Plan>> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        let entry = self.map.get_mut(text)?;
        entry.last_used = self.tick;
        (entry.epoch == epoch).then(|| Arc::clone(&entry.plan))
    }

    /// Caches `plan` for `text`, stamped with `epoch`, replacing any
    /// older stamp. Returns `true` when the insert evicted another entry
    /// to make room.
    pub fn store(&mut self, text: &str, epoch: u64, plan: Arc<Plan>) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.tick += 1;
        let entry = Entry {
            epoch,
            plan,
            last_used: self.tick,
        };
        if let Some(existing) = self.map.get_mut(text) {
            *existing = entry;
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            // Linear LRU scan: the capacity is small (hundreds), misses
            // are already paying a parse, and this keeps the entry flat.
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                evicted = true;
            }
        }
        self.map.insert(text.to_owned(), entry);
        evicted
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
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

    fn prep(text: &str, db: &PictorialDatabase) -> Arc<Plan> {
        let q = psql::parse_query(text).expect("parse");
        Arc::new(psql::plan::plan(db, &q).expect("plan"))
    }

    const Q1: &str = "select city from cities on us-map at loc covered-by {82.5 +- 17.5, 25 +- 20}";
    const Q2: &str = "select zone from time-zones";

    #[test]
    fn miss_store_hit_cycle() {
        let db = PictorialDatabase::with_us_map();
        let mut cache = PlanCache::new(4);
        assert!(cache.get(Q1, 1).is_none());
        let p = prep(Q1, &db);
        cache.store(Q1, 1, Arc::clone(&p));
        let cp = cache.get(Q1, 1).expect("expected a plan hit");
        assert!(Arc::ptr_eq(&cp, &p));
        // A different epoch is a miss.
        assert!(cache.get(Q1, 2).is_none());
    }

    #[test]
    fn restamping_updates_the_epoch() {
        let db = PictorialDatabase::with_us_map();
        let mut cache = PlanCache::new(4);
        let p = prep(Q1, &db);
        cache.store(Q1, 1, Arc::clone(&p));
        // Re-plan at epoch 3 and store over the stale stamp.
        cache.store(Q1, 3, p);
        assert!(cache.get(Q1, 3).is_some());
        assert!(cache.get(Q1, 1).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let db = PictorialDatabase::with_us_map();
        let mut cache = PlanCache::new(2);
        assert!(!cache.store(Q1, 1, prep(Q1, &db)));
        assert!(!cache.store(Q2, 1, prep(Q2, &db)));
        // Touch Q1 so Q2 is the LRU victim.
        assert!(cache.get(Q1, 1).is_some());
        let q3 = "select population from cities";
        assert!(cache.store(q3, 1, prep(q3, &db)));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(Q2, 1).is_none());
        assert!(cache.get(Q1, 1).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let db = PictorialDatabase::with_us_map();
        let mut cache = PlanCache::new(0);
        assert!(!cache.store(Q1, 1, prep(Q1, &db)));
        assert!(cache.get(Q1, 1).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_plan_executes_identically() {
        use psql::functions::FunctionRegistry;
        use rtree_index::SearchScratch;

        let db = PictorialDatabase::with_us_map();
        let functions = FunctionRegistry::with_builtins();
        let mut scratch = SearchScratch::new();
        let q = psql::parse_query(Q1).expect("parse");
        let p = prep(Q1, &db);
        let direct =
            psql::exec::execute_with_scratch(&db, &q, &functions, &mut scratch).expect("direct");
        let via_plan = psql::exec::execute_plan_with_scratch(&db, &p, &functions, &mut scratch)
            .expect("via plan");
        assert_eq!(direct, via_plan);
    }
}
