//! World snapshot and load through `minaret-store`.
//!
//! A [`World`] is fully determined by its raw entity tables, the
//! ontology, and the current year — [`World::assemble`] recomputes
//! every derived view from those. So a snapshot persists exactly that,
//! as versioned sections under `world/…` keys, each wrapped in the
//! store codec's `[magic][tag][version]` envelope.
//! [`stream_snapshot_world`] writes the entity tables one community
//! block at a time (its documentation lists the keys);
//! [`load_world_streamed`] decodes every section and reassembles, and
//! the result is byte-identical to the generated world (string fields
//! verbatim, adjacency ordering preserved via [`Ontology::to_tables`]).
//! [`crate::LazyWorld`] serves the same snapshot one block at a time.

use std::collections::HashMap;

use minaret_ontology::{Ontology, OntologyTables, TopicId, TopicRow};
use minaret_store::{Reader, Store, StoreError, Writer};

use crate::ids::{InstitutionId, PaperId, ScholarId, VenueId};
use crate::model::{AffiliationSpan, Institution, Paper, ReviewRecord, Scholar, Venue, VenueKind};
use crate::stream::{StreamingGenerator, COMMUNITY_BLOCK};
use crate::world::{World, WorldStats};

/// Envelope tags for the world sections.
mod tag {
    pub const ONTOLOGY: u8 = 0x4F; // 'O'
    pub const SCHOLARS: u8 = 0x53; // 'S'
    pub const PAPERS: u8 = 0x50; // 'P'
    pub const VENUES: u8 = 0x56; // 'V'
    pub const INSTITUTIONS: u8 = 0x49; // 'I'
    pub const REVIEWS: u8 = 0x52; // 'R'
    pub const STREAM_META: u8 = 0x57; // 'W'
    pub const SUMMARIES: u8 = 0x55; // 'U'
}

/// Current world-snapshot format version (shared by all sections).
pub const WORLD_FORMAT_VERSION: u8 = 1;

const KEY_ONTOLOGY: &[u8] = b"world/ontology";
const KEY_VENUES: &[u8] = b"world/venues";
const KEY_INSTITUTIONS: &[u8] = b"world/institutions";
const KEY_STREAM_META: &[u8] = b"world/meta2";

pub(crate) fn chunk_key(chunk: usize, section: &str) -> Vec<u8> {
    format!("world/chunk/{chunk:08}/{section}").into_bytes()
}

/// Provenance recorded alongside a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Number of scholars in the snapshotted world.
    pub scholars: u32,
    /// The generation seed the world was built from.
    pub seed: u64,
    /// The world's current (simulation) year.
    pub current_year: u32,
}

/// Provenance and layout of a chunked snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StreamMeta {
    pub scholars: u32,
    pub seed: u64,
    pub current_year: u32,
    /// Scholars per chunk at write time (always [`COMMUNITY_BLOCK`]).
    pub block: u32,
    /// Number of chunks written.
    pub chunks: u32,
    pub papers: u64,
    pub reviews: u64,
}

/// Per-chunk progress reported by [`stream_snapshot_world`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamProgress {
    /// Chunk ordinal just written (0-based).
    pub chunk: usize,
    /// Total chunks the snapshot will contain.
    pub chunks_total: usize,
    /// Scholars written so far.
    pub scholars_done: usize,
    /// Papers in this chunk.
    pub papers: usize,
    /// Reviews in this chunk.
    pub reviews: usize,
    /// Encoded bytes of this chunk (scholars + papers + reviews +
    /// summaries sections).
    pub bytes: usize,
}

/// Aggregate result of a streamed snapshot — enough to report
/// [`WorldStats`] without ever holding the world in memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamTotals {
    /// Scholars written.
    pub scholars: usize,
    /// Papers written.
    pub papers: usize,
    /// Venues written.
    pub venues: usize,
    /// Institutions written.
    pub institutions: usize,
    /// Review records written.
    pub reviews: usize,
    /// Scholars whose full name is shared with at least one other.
    pub colliding_scholars: usize,
    /// Total authorship edges (for mean papers per scholar).
    pub authorships: usize,
    /// Chunks written.
    pub chunks: usize,
    /// Total encoded chunk bytes written.
    pub bytes: u64,
    /// Largest single chunk's encoded bytes — the streaming path's
    /// peak-resident proxy.
    pub peak_chunk_bytes: usize,
}

impl StreamTotals {
    /// The same summary [`World::stats`] computes on a materialized
    /// world.
    pub fn stats(&self) -> WorldStats {
        WorldStats {
            scholars: self.scholars,
            papers: self.papers,
            venues: self.venues,
            institutions: self.institutions,
            reviews: self.reviews,
            colliding_scholars: self.colliding_scholars,
            mean_papers_per_scholar: if self.scholars == 0 {
                0.0
            } else {
                self.authorships as f64 / self.scholars as f64
            },
        }
    }
}

/// Streams `gen`'s world into `store` as a chunked snapshot, writing
/// each chunk as it is produced so peak memory is one community block.
/// Keys, in the sorted order they are written:
///
/// | key                          | payload                         |
/// |------------------------------|---------------------------------|
/// | `world/chunk/{k}/papers`     | papers led by chunk `k`         |
/// | `world/chunk/{k}/reviews`    | reviews by chunk `k`            |
/// | `world/chunk/{k}/scholars`   | scholar table of chunk `k`      |
/// | `world/chunk/{k}/summaries`  | names + interests of chunk `k`  |
/// | `world/institutions`         | institution table               |
/// | `world/meta2`                | counts, seed, block/chunk shape |
/// | `world/ontology`             | verbatim ontology tables        |
/// | `world/venues`               | venue table                     |
///
/// The snapshot replaces the store's previous one only when it is
/// complete ([`Store::publish`]), so an interrupted write leaves the
/// old world whole. `on_chunk` fires after each chunk is handed to the
/// writer.
pub fn stream_snapshot_world(
    store: &Store,
    gen: &StreamingGenerator,
    mut on_chunk: impl FnMut(&StreamProgress),
) -> Result<StreamTotals, StoreError> {
    let cfg = gen.config();
    let chunks_total = cfg.scholars.div_ceil(COMMUNITY_BLOCK);
    let mut totals = StreamTotals {
        scholars: 0,
        papers: 0,
        venues: gen.venues().len(),
        institutions: gen.institutions().len(),
        reviews: 0,
        colliding_scholars: 0,
        authorships: 0,
        chunks: 0,
        bytes: 0,
        peak_chunk_bytes: 0,
    };
    // Full-name collision counting via 64-bit name hashes keeps the
    // accumulator a few MB even at 10^6 scholars.
    let mut name_counts: HashMap<u64, u32> = HashMap::new();
    let mut table = store.writer()?;
    for chunk in gen.chunks(COMMUNITY_BLOCK) {
        let scholars = encode_scholars(&chunk.scholars);
        let papers = encode_papers(&chunk.papers);
        let reviews = encode_reviews(&chunk.reviews);
        let summaries = encode_summaries(&chunk.scholars);
        let bytes = scholars.len() + papers.len() + reviews.len() + summaries.len();
        table.add(&chunk_key(chunk.index, "papers"), &papers)?;
        table.add(&chunk_key(chunk.index, "reviews"), &reviews)?;
        table.add(&chunk_key(chunk.index, "scholars"), &scholars)?;
        table.add(&chunk_key(chunk.index, "summaries"), &summaries)?;
        for s in &chunk.scholars {
            *name_counts.entry(name_hash(s)).or_insert(0) += 1;
        }
        totals.scholars += chunk.scholars.len();
        totals.papers += chunk.papers.len();
        totals.reviews += chunk.reviews.len();
        totals.authorships += chunk.papers.iter().map(|p| p.authors.len()).sum::<usize>();
        totals.chunks += 1;
        totals.bytes += bytes as u64;
        totals.peak_chunk_bytes = totals.peak_chunk_bytes.max(bytes);
        on_chunk(&StreamProgress {
            chunk: chunk.index,
            chunks_total,
            scholars_done: totals.scholars,
            papers: chunk.papers.len(),
            reviews: chunk.reviews.len(),
            bytes,
        });
    }
    totals.colliding_scholars = name_counts
        .values()
        .filter(|&&c| c > 1)
        .map(|&c| c as usize)
        .sum();
    table.add(KEY_INSTITUTIONS, &encode_institutions(gen.institutions()))?;
    table.add(
        KEY_STREAM_META,
        &encode_stream_meta(StreamMeta {
            scholars: totals.scholars as u32,
            seed: cfg.seed,
            current_year: cfg.end_year,
            block: COMMUNITY_BLOCK as u32,
            chunks: totals.chunks as u32,
            papers: totals.papers as u64,
            reviews: totals.reviews as u64,
        }),
    )?;
    table.add(KEY_ONTOLOGY, &encode_ontology(&gen.ontology().to_tables()))?;
    table.add(KEY_VENUES, &encode_venues(gen.venues()))?;
    store.publish(table)?;
    Ok(totals)
}

fn name_hash(s: &Scholar) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s
        .given_name
        .as_bytes()
        .iter()
        .chain(&[0x1f])
        .chain(s.family_name.as_bytes())
    {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Loads a chunked snapshot into a fully materialized [`World`],
/// if the store holds one. The eager counterpart of
/// [`crate::LazyWorld::open`], used by the server which keeps the whole
/// world resident.
pub fn load_world_streamed(store: &Store) -> Result<Option<(World, SnapshotMeta)>, StoreError> {
    let Some(meta_bytes) = store.get(KEY_STREAM_META)? else {
        return Ok(None);
    };
    let meta = decode_stream_meta(&meta_bytes)?;
    let section = |key: &[u8], what: &'static str| -> Result<Vec<u8>, StoreError> {
        store.get(key)?.ok_or(StoreError::Codec {
            what,
            detail: "world snapshot is missing this section".into(),
        })
    };
    let ontology_tables = decode_ontology(&section(KEY_ONTOLOGY, "world ontology section")?)?;
    let ontology = Ontology::from_tables(ontology_tables).map_err(|e| StoreError::Codec {
        what: "world ontology section",
        detail: e.to_string(),
    })?;
    let venues = decode_venues(&section(KEY_VENUES, "world venues section")?)?;
    let institutions =
        decode_institutions(&section(KEY_INSTITUTIONS, "world institutions section")?)?;
    let mut scholars = Vec::with_capacity(meta.scholars as usize);
    let mut papers = Vec::with_capacity(meta.papers as usize);
    let mut reviews = Vec::with_capacity(meta.reviews as usize);
    for k in 0..meta.chunks as usize {
        scholars.extend(decode_scholars(&section(
            &chunk_key(k, "scholars"),
            "world chunk scholars section",
        )?)?);
        papers.extend(decode_papers(&section(
            &chunk_key(k, "papers"),
            "world chunk papers section",
        )?)?);
        reviews.extend(decode_reviews(&section(
            &chunk_key(k, "reviews"),
            "world chunk reviews section",
        )?)?);
    }
    let world = World::assemble(
        ontology,
        meta.current_year,
        scholars,
        papers,
        venues,
        institutions,
        reviews,
    );
    let meta = SnapshotMeta {
        scholars: meta.scholars,
        seed: meta.seed,
        current_year: meta.current_year,
    };
    Ok(Some((world, meta)))
}

/// A 64-bit FNV-1a fingerprint of the world's encoded sections — two
/// worlds fingerprint equal iff every entity table (and the ontology)
/// is byte-identical. The golden the chunk-invariance tests pin.
pub fn world_fingerprint(world: &World) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for bytes in [
        encode_ontology(&world.ontology.to_tables()),
        encode_scholars(world.scholars()),
        encode_papers(world.papers()),
        encode_venues(world.venues()),
        encode_institutions(world.institutions()),
        encode_reviews(world.reviews()),
    ] {
        for b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn encode_stream_meta(meta: StreamMeta) -> Vec<u8> {
    let mut w = Writer::versioned(tag::STREAM_META, WORLD_FORMAT_VERSION);
    w.u32(meta.scholars);
    w.u64(meta.seed);
    w.u32(meta.current_year);
    w.u32(meta.block);
    w.u32(meta.chunks);
    w.u64(meta.papers);
    w.u64(meta.reviews);
    w.finish()
}

pub(crate) fn decode_stream_meta(bytes: &[u8]) -> Result<StreamMeta, StoreError> {
    let (mut r, _) = Reader::versioned(
        "world stream meta section",
        bytes,
        tag::STREAM_META,
        WORLD_FORMAT_VERSION,
    )?;
    let meta = StreamMeta {
        scholars: r.u32()?,
        seed: r.u64()?,
        current_year: r.u32()?,
        block: r.u32()?,
        chunks: r.u32()?,
        papers: r.u64()?,
        reviews: r.u64()?,
    };
    r.expect_end()?;
    Ok(meta)
}

pub(crate) fn get_stream_meta(store: &Store) -> Result<Option<StreamMeta>, StoreError> {
    match store.get(KEY_STREAM_META)? {
        Some(bytes) => Ok(Some(decode_stream_meta(&bytes)?)),
        None => Ok(None),
    }
}

/// Encodes the compact per-scholar summaries (names + interests) the
/// lazy startup path indexes from.
fn encode_summaries(scholars: &[Scholar]) -> Vec<u8> {
    let mut w = Writer::versioned(tag::SUMMARIES, WORLD_FORMAT_VERSION);
    w.u32(scholars.len() as u32);
    for s in scholars {
        w.str(&s.given_name);
        w.str(&s.family_name);
        write_topic_ids(&mut w, &s.interests);
    }
    w.finish()
}

pub(crate) struct SummaryChunk {
    pub names: Vec<(String, String)>,
    pub interests: Vec<Vec<TopicId>>,
}

pub(crate) fn decode_summaries(bytes: &[u8]) -> Result<SummaryChunk, StoreError> {
    let (mut r, _) = Reader::versioned(
        "world summaries section",
        bytes,
        tag::SUMMARIES,
        WORLD_FORMAT_VERSION,
    )?;
    let n = r.u32()? as usize;
    let mut names = Vec::with_capacity(n);
    let mut interests = Vec::with_capacity(n);
    for _ in 0..n {
        let given = r.str()?.to_string();
        let family = r.str()?.to_string();
        names.push((given, family));
        interests.push(read_topic_ids(&mut r)?);
    }
    r.expect_end()?;
    Ok(SummaryChunk { names, interests })
}

fn write_topic_ids(w: &mut Writer, ids: &[TopicId]) {
    w.u32(ids.len() as u32);
    for t in ids {
        w.u32(t.index() as u32);
    }
}

fn read_topic_ids(r: &mut Reader<'_>) -> Result<Vec<TopicId>, StoreError> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(TopicId::from_index(r.u32()? as usize));
    }
    Ok(out)
}

fn encode_ontology(tables: &OntologyTables) -> Vec<u8> {
    let mut w = Writer::versioned(tag::ONTOLOGY, WORLD_FORMAT_VERSION);
    w.u32(tables.topics.len() as u32);
    for t in &tables.topics {
        w.str(&t.label);
        w.str(&t.normalized);
        w.u32(t.aliases.len() as u32);
        for a in &t.aliases {
            w.str(a);
        }
    }
    for rows in [&tables.parents, &tables.children, &tables.related] {
        for row in rows.iter() {
            write_topic_ids(&mut w, row);
        }
    }
    w.finish()
}

pub(crate) fn decode_ontology(bytes: &[u8]) -> Result<OntologyTables, StoreError> {
    let (mut r, _) = Reader::versioned(
        "world ontology section",
        bytes,
        tag::ONTOLOGY,
        WORLD_FORMAT_VERSION,
    )?;
    let n = r.u32()? as usize;
    let mut topics = Vec::with_capacity(n);
    for _ in 0..n {
        let label = r.str()?.to_string();
        let normalized = r.str()?.to_string();
        let alias_count = r.u32()? as usize;
        let mut aliases = Vec::with_capacity(alias_count);
        for _ in 0..alias_count {
            aliases.push(r.str()?.to_string());
        }
        topics.push(TopicRow {
            label,
            normalized,
            aliases,
        });
    }
    let mut read_rows = || -> Result<Vec<Vec<TopicId>>, StoreError> {
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(read_topic_ids(&mut r)?);
        }
        Ok(rows)
    };
    let parents = read_rows()?;
    let children = read_rows()?;
    let related = read_rows()?;
    r.expect_end()?;
    Ok(OntologyTables {
        topics,
        parents,
        children,
        related,
    })
}

fn encode_scholars(scholars: &[Scholar]) -> Vec<u8> {
    let mut w = Writer::versioned(tag::SCHOLARS, WORLD_FORMAT_VERSION);
    w.u32(scholars.len() as u32);
    for s in scholars {
        w.u32(s.id.0);
        w.str(&s.given_name);
        w.str(&s.family_name);
        w.u32(s.affiliations.len() as u32);
        for a in &s.affiliations {
            w.u32(a.institution.0);
            w.u32(a.from_year);
            w.u32(a.to_year);
        }
        write_topic_ids(&mut w, &s.interests);
        w.u32(s.active_since);
    }
    w.finish()
}

pub(crate) fn decode_scholars(bytes: &[u8]) -> Result<Vec<Scholar>, StoreError> {
    let (mut r, _) = Reader::versioned(
        "world scholars section",
        bytes,
        tag::SCHOLARS,
        WORLD_FORMAT_VERSION,
    )?;
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = ScholarId(r.u32()?);
        let given_name = r.str()?.to_string();
        let family_name = r.str()?.to_string();
        let span_count = r.u32()? as usize;
        let mut affiliations = Vec::with_capacity(span_count);
        for _ in 0..span_count {
            affiliations.push(AffiliationSpan {
                institution: InstitutionId(r.u32()?),
                from_year: r.u32()?,
                to_year: r.u32()?,
            });
        }
        let interests = read_topic_ids(&mut r)?;
        let active_since = r.u32()?;
        out.push(Scholar {
            id,
            given_name,
            family_name,
            affiliations,
            interests,
            active_since,
        });
    }
    r.expect_end()?;
    Ok(out)
}

fn encode_papers(papers: &[Paper]) -> Vec<u8> {
    let mut w = Writer::versioned(tag::PAPERS, WORLD_FORMAT_VERSION);
    w.u32(papers.len() as u32);
    for p in papers {
        w.u32(p.id.0);
        w.str(&p.title);
        w.u32(p.year);
        w.u32(p.venue.0);
        w.u32(p.authors.len() as u32);
        for a in &p.authors {
            w.u32(a.0);
        }
        write_topic_ids(&mut w, &p.topics);
        w.u32(p.citations);
    }
    w.finish()
}

pub(crate) fn decode_papers(bytes: &[u8]) -> Result<Vec<Paper>, StoreError> {
    let (mut r, _) = Reader::versioned(
        "world papers section",
        bytes,
        tag::PAPERS,
        WORLD_FORMAT_VERSION,
    )?;
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = PaperId(r.u32()?);
        let title = r.str()?.to_string();
        let year = r.u32()?;
        let venue = VenueId(r.u32()?);
        let author_count = r.u32()? as usize;
        let mut authors = Vec::with_capacity(author_count);
        for _ in 0..author_count {
            authors.push(ScholarId(r.u32()?));
        }
        let topics = read_topic_ids(&mut r)?;
        let citations = r.u32()?;
        out.push(Paper {
            id,
            title,
            year,
            venue,
            authors,
            topics,
            citations,
        });
    }
    r.expect_end()?;
    Ok(out)
}

fn encode_venues(venues: &[Venue]) -> Vec<u8> {
    let mut w = Writer::versioned(tag::VENUES, WORLD_FORMAT_VERSION);
    w.u32(venues.len() as u32);
    for v in venues {
        w.u32(v.id.0);
        w.str(&v.name);
        w.u8(match v.kind {
            VenueKind::Journal => 0,
            VenueKind::Conference => 1,
        });
        write_topic_ids(&mut w, &v.topics);
    }
    w.finish()
}

pub(crate) fn decode_venues(bytes: &[u8]) -> Result<Vec<Venue>, StoreError> {
    let (mut r, _) = Reader::versioned(
        "world venues section",
        bytes,
        tag::VENUES,
        WORLD_FORMAT_VERSION,
    )?;
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = VenueId(r.u32()?);
        let name = r.str()?.to_string();
        let kind = match r.u8()? {
            0 => VenueKind::Journal,
            1 => VenueKind::Conference,
            other => {
                return Err(StoreError::Codec {
                    what: "world venues section",
                    detail: format!("unknown venue kind byte {other}"),
                })
            }
        };
        let topics = read_topic_ids(&mut r)?;
        out.push(Venue {
            id,
            name,
            kind,
            topics,
        });
    }
    r.expect_end()?;
    Ok(out)
}

fn encode_institutions(institutions: &[Institution]) -> Vec<u8> {
    let mut w = Writer::versioned(tag::INSTITUTIONS, WORLD_FORMAT_VERSION);
    w.u32(institutions.len() as u32);
    for i in institutions {
        w.u32(i.id.0);
        w.str(&i.name);
        w.str(&i.country);
    }
    w.finish()
}

pub(crate) fn decode_institutions(bytes: &[u8]) -> Result<Vec<Institution>, StoreError> {
    let (mut r, _) = Reader::versioned(
        "world institutions section",
        bytes,
        tag::INSTITUTIONS,
        WORLD_FORMAT_VERSION,
    )?;
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Institution {
            id: InstitutionId(r.u32()?),
            name: r.str()?.to_string(),
            country: r.str()?.to_string(),
        });
    }
    r.expect_end()?;
    Ok(out)
}

fn encode_reviews(reviews: &[ReviewRecord]) -> Vec<u8> {
    let mut w = Writer::versioned(tag::REVIEWS, WORLD_FORMAT_VERSION);
    w.u32(reviews.len() as u32);
    for rv in reviews {
        w.u32(rv.reviewer.0);
        w.u32(rv.venue.0);
        w.u32(rv.year);
        w.u32(rv.turnaround_days);
        w.u8(rv.quality);
    }
    w.finish()
}

pub(crate) fn decode_reviews(bytes: &[u8]) -> Result<Vec<ReviewRecord>, StoreError> {
    let (mut r, _) = Reader::versioned(
        "world reviews section",
        bytes,
        tag::REVIEWS,
        WORLD_FORMAT_VERSION,
    )?;
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(ReviewRecord {
            reviewer: ScholarId(r.u32()?),
            venue: VenueId(r.u32()?),
            year: r.u32()?,
            turnaround_days: r.u32()?,
            quality: r.u8()?,
        });
    }
    r.expect_end()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::generator::WorldGenerator;
    use minaret_store::StoreConfig;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("minaret-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_world() -> (World, WorldConfig) {
        let cfg = WorldConfig::sized(60);
        let world = WorldGenerator::new(cfg.clone()).generate();
        (world, cfg)
    }

    #[test]
    fn streamed_snapshot_round_trips_exactly() {
        let dir = tmp_dir("streamed");
        let (world, cfg) = small_world();
        {
            let store = Store::open(&dir, StoreConfig::default()).unwrap();
            let gen = StreamingGenerator::new(cfg.clone());
            let mut progress = Vec::new();
            let totals = stream_snapshot_world(&store, &gen, |p| progress.push(*p)).unwrap();
            assert_eq!(totals.chunks, progress.len());
            assert_eq!(progress.last().unwrap().scholars_done, cfg.scholars);
            assert!(totals.peak_chunk_bytes <= totals.bytes as usize);
            assert_eq!(
                totals.stats(),
                world.stats(),
                "streamed totals must reproduce eager WorldStats"
            );
        }
        // A fresh process: open the store and load.
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        let (loaded, meta) = load_world_streamed(&store)
            .unwrap()
            .expect("snapshot present");
        assert_eq!(
            meta,
            SnapshotMeta {
                scholars: cfg.scholars as u32,
                seed: cfg.seed,
                current_year: world.current_year,
            }
        );
        assert_eq!(world_fingerprint(&loaded), world_fingerprint(&world));
        assert_eq!(loaded.current_year, world.current_year);
        assert_eq!(loaded.scholars(), world.scholars());
        assert_eq!(loaded.papers(), world.papers());
        assert_eq!(loaded.venues(), world.venues());
        assert_eq!(loaded.institutions(), world.institutions());
        assert_eq!(loaded.reviews(), world.reviews());
        assert_eq!(
            loaded.ontology.to_tables(),
            world.ontology.to_tables(),
            "ontology tables must round-trip verbatim"
        );
        // Spot-check a derived view to confirm reassembly ran.
        for s in world.scholars().iter().take(5) {
            assert_eq!(loaded.papers_of(s.id), world.papers_of(s.id));
        }
        drop(store);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A regeneration that dies part-way leaves the previous world
    /// whole: never one world's early chunks under another's meta.
    #[test]
    fn an_interrupted_regeneration_never_mixes_two_worlds() {
        let dir = tmp_dir("interrupted");
        let config = |seed| WorldConfig {
            seed,
            ..WorldConfig::sized(3000) // three community blocks
        };
        let seed_one = world_fingerprint(&WorldGenerator::new(config(1)).generate());
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        stream_snapshot_world(&store, &StreamingGenerator::new(config(1)), |_| {}).unwrap();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stream_snapshot_world(&store, &StreamingGenerator::new(config(2)), |_| {
                panic!("crash after chunk 0")
            })
        }));
        assert!(crashed.is_err());
        drop(store);

        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "{name:?} survived the reopen"
            );
        }
        let (world, meta) = load_world_streamed(&store).unwrap().expect("snapshot");
        assert_eq!(meta.seed, 1);
        assert_eq!(world_fingerprint(&world), seed_one);
        drop(store);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn empty_store_loads_nothing() {
        let dir = tmp_dir("empty");
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert!(load_world_streamed(&store).unwrap().is_none());
        drop(store);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn future_version_is_rejected_descriptively() {
        let dir = tmp_dir("future");
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        let mut w = Writer::versioned(tag::STREAM_META, WORLD_FORMAT_VERSION + 1);
        w.u32(1);
        w.u64(2);
        w.u32(3);
        w.u32(COMMUNITY_BLOCK as u32);
        w.u32(1);
        w.u64(4);
        w.u64(5);
        let mut table = store.writer().unwrap();
        table.add(KEY_STREAM_META, &w.finish()).unwrap();
        store.publish(table).unwrap();
        let err = load_world_streamed(&store).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("format version"), "{msg}");
        assert!(msg.contains("migrate or regenerate"), "{msg}");
        drop(store);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn lazy_world_serves_blocks_identical_to_eager() {
        let dir = tmp_dir("lazy");
        let cfg = WorldConfig::sized(2600); // three community blocks
        let world = WorldGenerator::new(cfg.clone()).generate();
        let store = std::sync::Arc::new(Store::open(&dir, StoreConfig::default()).unwrap());
        stream_snapshot_world(&store, &StreamingGenerator::new(cfg.clone()), |_| {}).unwrap();
        let lazy = crate::LazyWorld::open(store.clone())
            .unwrap()
            .expect("chunked snapshot present");
        assert_eq!(lazy.scholar_count(), world.scholars().len());
        assert_eq!(lazy.paper_count(), world.papers().len());
        assert_eq!(lazy.current_year(), world.current_year);
        assert_eq!(lazy.venues(), world.venues());
        assert_eq!(lazy.institutions(), world.institutions());
        for (i, s) in world.scholars().iter().enumerate() {
            let (given, family, interests) = lazy.summary(i);
            assert_eq!(given, s.given_name);
            assert_eq!(family, s.family_name);
            assert_eq!(interests, s.interests);
        }
        // Point reads across all three blocks match the eager tables.
        for idx in [0usize, 1, 1023, 1024, 2047, 2048, 2599, 777, 1500] {
            let id = crate::ScholarId(idx as u32);
            let block = lazy.block_for(id).unwrap();
            assert!(block.contains(id));
            assert_eq!(block.scholar(id), world.scholar(id));
            let eager_papers: Vec<_> = world
                .papers_of(id)
                .iter()
                .map(|&p| world.paper(p))
                .collect();
            assert_eq!(block.papers_of(id), eager_papers);
            let eager_reviews: Vec<_> = world.reviews_of(id).collect();
            assert_eq!(block.reviews_of(id), eager_reviews);
        }
        drop(lazy);
        drop(store);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn lazy_block_cache_reuses_decoded_blocks() {
        let dir = tmp_dir("lazy-cache");
        let cfg = WorldConfig::sized(80);
        let store = std::sync::Arc::new(Store::open(&dir, StoreConfig::default()).unwrap());
        stream_snapshot_world(&store, &StreamingGenerator::new(cfg), |_| {}).unwrap();
        let lazy = crate::LazyWorld::open(store.clone()).unwrap().unwrap();
        let a = lazy.block_for(crate::ScholarId(3)).unwrap();
        let b = lazy.block_for(crate::ScholarId(70)).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "same block must come from cache"
        );
        drop(lazy);
        drop(store);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
