//! Store-backed lazy world: summaries resident, blocks on demand.
//!
//! A [`LazyWorld`] opens a chunked snapshot and keeps only the
//! world-global tables (ontology, venues, institutions) plus a compact
//! per-scholar summary — interned name-pool indexes and interest topic
//! ids, a few bytes per scholar — in memory. Everything else (full
//! scholar records, papers, reviews) stays in `minaret-store` and is
//! decoded one community block at a time on first touch, through a
//! small FIFO block cache. Coauthors never cross community blocks (see
//! [`crate::COMMUNITY_BLOCK`]), so a single block read resolves every
//! reference one scholar's profile needs.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use minaret_ontology::{Ontology, TopicId};
use minaret_store::{Store, StoreError};

use crate::ids::{InstitutionId, ScholarId, VenueId};
use crate::model::{Institution, Paper, ReviewRecord, Scholar, Venue};
use crate::persist;

/// How many decoded blocks the cache keeps before evicting the oldest.
/// Profiles built from a block are memoized downstream (ProfileStore),
/// so re-decodes only happen for scholars never profiled before.
const BLOCK_CACHE_CAP: usize = 32;

/// One decoded community block of a [`LazyWorld`]: the scholars, the
/// papers they led, their reviews, and the per-scholar lookup tables a
/// profile build needs.
#[derive(Debug)]
pub struct WorldBlock {
    start: usize,
    scholars: Vec<Scholar>,
    papers: Vec<Paper>,
    reviews: Vec<ReviewRecord>,
    /// Local scholar index -> indexes into `papers`, in global order.
    papers_by_author: Vec<Vec<u32>>,
    /// Local scholar index -> indexes into `reviews`, in global order.
    reviews_by_scholar: Vec<Vec<u32>>,
}

impl WorldBlock {
    fn assemble(
        start: usize,
        scholars: Vec<Scholar>,
        papers: Vec<Paper>,
        reviews: Vec<ReviewRecord>,
    ) -> Self {
        let n = scholars.len();
        let mut papers_by_author = vec![Vec::new(); n];
        for (pi, p) in papers.iter().enumerate() {
            for &a in &p.authors {
                papers_by_author[a.index() - start].push(pi as u32);
            }
        }
        let mut reviews_by_scholar = vec![Vec::new(); n];
        for (ri, r) in reviews.iter().enumerate() {
            reviews_by_scholar[r.reviewer.index() - start].push(ri as u32);
        }
        Self {
            start,
            scholars,
            papers,
            reviews,
            papers_by_author,
            reviews_by_scholar,
        }
    }

    /// First scholar id in the block.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of scholars in the block.
    pub fn len(&self) -> usize {
        self.scholars.len()
    }

    /// True when the block holds no scholars.
    pub fn is_empty(&self) -> bool {
        self.scholars.is_empty()
    }

    /// True when `id` belongs to this block.
    pub fn contains(&self, id: ScholarId) -> bool {
        (self.start..self.start + self.scholars.len()).contains(&id.index())
    }

    fn local(&self, id: ScholarId) -> usize {
        debug_assert!(self.contains(id), "scholar outside its block");
        id.index() - self.start
    }

    /// Scholar by id (must belong to this block).
    pub fn scholar(&self, id: ScholarId) -> &Scholar {
        &self.scholars[self.local(id)]
    }

    /// Papers authored by `id`, in global paper order — identical to
    /// what the eager world's derived table yields.
    pub fn papers_of(&self, id: ScholarId) -> Vec<&Paper> {
        self.papers_by_author[self.local(id)]
            .iter()
            .map(|&pi| &self.papers[pi as usize])
            .collect()
    }

    /// Review records of `id`, in global review order.
    pub fn reviews_of(&self, id: ScholarId) -> Vec<&ReviewRecord> {
        self.reviews_by_scholar[self.local(id)]
            .iter()
            .map(|&ri| &self.reviews[ri as usize])
            .collect()
    }
}

/// Interned per-scholar summaries: the streamed snapshot's name strings
/// come from a small pool, so each scholar costs two `u16` pool indexes
/// plus its interest ids — a 10^6-scholar world stays tens of MB.
struct Summaries {
    pool: Vec<Arc<str>>,
    names: Vec<(u16, u16)>,
    interest_off: Vec<u32>,
    interest_flat: Vec<TopicId>,
}

impl Summaries {
    fn with_capacity(n: usize) -> Self {
        Self {
            pool: Vec::new(),
            names: Vec::with_capacity(n),
            interest_off: {
                let mut v = Vec::with_capacity(n + 1);
                v.push(0);
                v
            },
            interest_flat: Vec::new(),
        }
    }

    fn intern(&mut self, seen: &mut HashMap<String, u16>, s: String) -> u16 {
        if let Some(&i) = seen.get(&s) {
            return i;
        }
        let i = self.pool.len() as u16;
        self.pool.push(Arc::from(s.as_str()));
        seen.insert(s, i);
        i
    }

    fn push(
        &mut self,
        seen: &mut HashMap<String, u16>,
        given: String,
        family: String,
        interests: Vec<TopicId>,
    ) {
        let g = self.intern(seen, given);
        let f = self.intern(seen, family);
        self.names.push((g, f));
        self.interest_flat.extend(interests);
        self.interest_off.push(self.interest_flat.len() as u32);
    }

    fn get(&self, i: usize) -> (&str, &str, &[TopicId]) {
        let (g, f) = self.names[i];
        let (lo, hi) = (
            self.interest_off[i] as usize,
            self.interest_off[i + 1] as usize,
        );
        (
            &self.pool[g as usize],
            &self.pool[f as usize],
            &self.interest_flat[lo..hi],
        )
    }
}

/// A world opened from a chunked snapshot without materializing it.
pub struct LazyWorld {
    store: Arc<Store>,
    meta: persist::StreamMeta,
    ontology: Ontology,
    venues: Vec<Venue>,
    institutions: Vec<Institution>,
    summaries: Summaries,
    cache: Mutex<BlockCache>,
}

struct BlockCache {
    map: HashMap<usize, Arc<WorldBlock>>,
    order: VecDeque<usize>,
}

impl std::fmt::Debug for LazyWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyWorld")
            .field("scholars", &self.meta.scholars)
            .field("seed", &self.meta.seed)
            .field("chunks", &self.meta.chunks)
            .finish()
    }
}

impl LazyWorld {
    /// Opens the chunked snapshot in `store`, if one exists, loading
    /// only the global tables and the per-scholar summaries. `Ok(None)`
    /// means the store holds no chunked snapshot.
    pub fn open(store: Arc<Store>) -> Result<Option<Arc<LazyWorld>>, StoreError> {
        let Some(meta) = persist::get_stream_meta(&store)? else {
            return Ok(None);
        };
        let section = |key: &[u8], what: &'static str| -> Result<Vec<u8>, StoreError> {
            store.get(key)?.ok_or(StoreError::Codec {
                what,
                detail: "world snapshot is missing this section".into(),
            })
        };
        let tables =
            persist::decode_ontology(&section(b"world/ontology", "world ontology section")?)?;
        let ontology = Ontology::from_tables(tables).map_err(|e| StoreError::Codec {
            what: "world ontology section",
            detail: e.to_string(),
        })?;
        let venues = persist::decode_venues(&section(b"world/venues", "world venues section")?)?;
        let institutions = persist::decode_institutions(&section(
            b"world/institutions",
            "world institutions section",
        )?)?;
        let mut summaries = Summaries::with_capacity(meta.scholars as usize);
        let mut seen = HashMap::new();
        for k in 0..meta.chunks as usize {
            let chunk = persist::decode_summaries(&section(
                &persist::chunk_key(k, "summaries"),
                "world summaries section",
            )?)?;
            for ((given, family), interests) in chunk.names.into_iter().zip(chunk.interests) {
                summaries.push(&mut seen, given, family, interests);
            }
        }
        if summaries.names.len() != meta.scholars as usize {
            return Err(StoreError::Codec {
                what: "world summaries section",
                detail: format!(
                    "summaries cover {} scholars, meta says {}",
                    summaries.names.len(),
                    meta.scholars
                ),
            });
        }
        Ok(Some(Arc::new(LazyWorld {
            store,
            meta,
            ontology,
            venues,
            institutions,
            summaries,
            cache: Mutex::new(BlockCache {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
        })))
    }

    /// Number of scholars in the world.
    pub fn scholar_count(&self) -> usize {
        self.meta.scholars as usize
    }

    /// Number of papers in the world; paper ids are dense below it.
    pub fn paper_count(&self) -> usize {
        self.meta.papers as usize
    }

    /// The generation seed the snapshot was built from.
    pub fn seed(&self) -> u64 {
        self.meta.seed
    }

    /// The simulation's current year.
    pub fn current_year(&self) -> u32 {
        self.meta.current_year
    }

    /// The topic ontology.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// All venues (resident).
    pub fn venues(&self) -> &[Venue] {
        &self.venues
    }

    /// All institutions (resident).
    pub fn institutions(&self) -> &[Institution] {
        &self.institutions
    }

    /// Venue by id.
    pub fn venue(&self, id: VenueId) -> &Venue {
        &self.venues[id.index()]
    }

    /// Institution by id.
    pub fn institution(&self, id: InstitutionId) -> &Institution {
        &self.institutions[id.index()]
    }

    /// The compact summary of scholar `i`: given name, family name,
    /// ground-truth interest topics.
    pub fn summary(&self, i: usize) -> (&str, &str, &[TopicId]) {
        self.summaries.get(i)
    }

    /// The decoded community block containing `id`, from cache or by a
    /// point read against the store.
    pub fn block_for(&self, id: ScholarId) -> Result<Arc<WorldBlock>, StoreError> {
        self.block(id.index() / self.meta.block as usize)
    }

    /// The decoded community block `b`.
    pub fn block(&self, b: usize) -> Result<Arc<WorldBlock>, StoreError> {
        if let Some(hit) = self.cache.lock().expect("block cache poisoned").map.get(&b) {
            return Ok(hit.clone());
        }
        let section = |key: Vec<u8>, what: &'static str| -> Result<Vec<u8>, StoreError> {
            self.store.get(&key)?.ok_or(StoreError::Codec {
                what,
                detail: format!("chunk {b} missing from world snapshot"),
            })
        };
        let scholars = persist::decode_scholars(&section(
            persist::chunk_key(b, "scholars"),
            "world chunk scholars section",
        )?)?;
        let papers = persist::decode_papers(&section(
            persist::chunk_key(b, "papers"),
            "world chunk papers section",
        )?)?;
        let reviews = persist::decode_reviews(&section(
            persist::chunk_key(b, "reviews"),
            "world chunk reviews section",
        )?)?;
        let block = Arc::new(WorldBlock::assemble(
            b * self.meta.block as usize,
            scholars,
            papers,
            reviews,
        ));
        let mut cache = self.cache.lock().expect("block cache poisoned");
        let cache = &mut *cache;
        if let std::collections::hash_map::Entry::Vacant(slot) = cache.map.entry(b) {
            slot.insert(block.clone());
            cache.order.push_back(b);
            while cache.order.len() > BLOCK_CACHE_CAP {
                if let Some(evict) = cache.order.pop_front() {
                    cache.map.remove(&evict);
                }
            }
        }
        Ok(block)
    }
}
