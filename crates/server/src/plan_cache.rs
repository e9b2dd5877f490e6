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
//! Eviction is exact LRU over a bounded entry count, in O(1): each entry
//! owns a slot of a doubly linked ring ordered by last use, a probe
//! moves its slot to the newest end, and a full table hands the oldest
//! slot, key buffers included, to the text being stored. The epoch
//! stamp is all the invalidation there is: every publication — an
//! insert batch, a background merge, a `REPACK` — bumps the epoch, so no
//! plan compiled against an earlier snapshot's trees is ever served
//! against a later one.
//!
//! The table is plain data: the thread that answers queries (the
//! reactor, or the simulation) owns it, and nothing else reads it.

use psql::plan::Plan;
use std::collections::HashMap;
use std::sync::Arc;

/// One cached plan: the epoch it is valid for, the plan, and its slot
/// in the recency list.
struct Entry {
    epoch: u64,
    plan: Arc<Plan>,
    slot: u32,
}

/// A slot's neighbours in the recency list, a ring through slot 0, which
/// holds no entry: its `newer` is the least recently used slot and its
/// `older` the most recently used.
#[derive(Clone, Copy)]
struct Link {
    /// The slot used more recently.
    newer: u32,
    /// The slot used less recently.
    older: u32,
}

/// The bounded LRU table. Capacity `0` disables caching entirely (every
/// probe misses, every store is dropped).
pub struct PlanCache {
    capacity: usize,
    map: HashMap<String, Entry>,
    /// By slot: the recency ring, and the text the slot's entry is filed
    /// under in `map` (a copy, so the oldest can be evicted by it).
    links: Vec<Link>,
    texts: Vec<String>,
}

impl PlanCache {
    /// A cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            map: HashMap::new(),
            links: vec![Link { newer: 0, older: 0 }],
            texts: vec![String::new()],
        }
    }

    /// The plan cached for `text` if it is stamped with `epoch`; `None`
    /// is a miss, and the caller parses, plans and offers the plan back
    /// through [`PlanCache::store`]. A probe of a cached text counts as
    /// a use whatever its stamp.
    pub fn get(&mut self, text: &str, epoch: u64) -> Option<Arc<Plan>> {
        if self.capacity == 0 {
            return None;
        }
        let entry = self.map.get(text)?;
        let (slot, plan) = (
            entry.slot,
            (entry.epoch == epoch).then(|| Arc::clone(&entry.plan)),
        );
        self.touch(slot);
        plan
    }

    /// Caches `plan` for `text`, stamped with `epoch`, replacing any
    /// older stamp. Returns `true` when the insert evicted another entry
    /// to make room.
    pub fn store(&mut self, text: &str, epoch: u64, plan: Arc<Plan>) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(entry) = self.map.get_mut(text) {
            (entry.epoch, entry.plan) = (epoch, plan);
            let slot = entry.slot;
            self.touch(slot);
            return false;
        }
        if self.map.len() < self.capacity {
            let slot = self.links.len() as u32;
            self.links.push(Link { newer: 0, older: 0 });
            self.texts.push(text.to_owned());
            self.map
                .insert(text.to_owned(), Entry { epoch, plan, slot });
            self.link_newest(slot);
            return false;
        }
        // Full: the least recently used slot takes the new text, reusing
        // both copies of the old one's bytes.
        let slot = self.links[0].newer;
        self.unlink(slot);
        let text_of = &mut self.texts[slot as usize];
        let removed = self.map.remove_entry(text_of.as_str());
        let mut key = removed.map(|(key, _)| key).unwrap_or_default();
        key.clear();
        key.push_str(text);
        text_of.clear();
        text_of.push_str(text);
        self.map.insert(key, Entry { epoch, plan, slot });
        self.link_newest(slot);
        true
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves `slot` to the most recently used end of the ring.
    fn touch(&mut self, slot: u32) {
        if self.links[0].older != slot {
            self.unlink(slot);
            self.link_newest(slot);
        }
    }

    /// Takes `slot` out of the ring.
    fn unlink(&mut self, slot: u32) {
        let Link { newer, older } = self.links[slot as usize];
        self.links[newer as usize].older = older;
        self.links[older as usize].newer = newer;
    }

    /// Puts `slot`, which is in no ring, at the most recently used end.
    fn link_newest(&mut self, slot: u32) {
        let newest = self.links[0].older;
        self.links[slot as usize] = Link {
            newer: 0,
            older: newest,
        };
        self.links[newest as usize].newer = slot;
        self.links[0].older = slot;
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
    fn eviction_follows_exact_lru_order_against_a_model() {
        let db = PictorialDatabase::with_us_map();
        let plan = prep(Q2, &db);
        let mut cache = PlanCache::new(5);
        // The model: texts from least to most recently used.
        let mut model: Vec<String> = Vec::new();
        let mut state = 1985u64;
        for step in 0..4000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let text = format!("q{}", (state >> 33) % 9);
            let at = model.iter().position(|t| *t == text);
            if (state >> 20).is_multiple_of(3) {
                let hit = cache.get(&text, 1).is_some();
                assert_eq!(hit, at.is_some(), "step {step}: probe of {text}");
                if let Some(at) = at {
                    let t = model.remove(at);
                    model.push(t);
                }
            } else {
                let evicted = cache.store(&text, 1, Arc::clone(&plan));
                let expect_evicted = at.is_none() && model.len() == 5;
                assert_eq!(evicted, expect_evicted, "step {step}: store of {text}");
                match at {
                    Some(at) => {
                        model.remove(at);
                    }
                    None if expect_evicted => {
                        model.remove(0);
                    }
                    None => {}
                }
                model.push(text);
            }
            assert_eq!(cache.len(), model.len(), "step {step}");
        }
        for text in &model {
            assert!(cache.get(text, 1).is_some(), "{text} was kept");
        }
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
