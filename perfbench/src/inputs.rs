//! Seeded workload inputs: manuscripts, request bodies, the Zipf replay
//! sequence and contested assignment batches. The same workload seed
//! gives byte-identical requests; the server only ever sees the bytes.

use minaret_assign::manuscript_from_submission;
use minaret_core::{EditorConfig, ManuscriptDetails};
use minaret_json::Value;
use minaret_ontology::{normalize_label, KeywordExpander};
use minaret_synth::{SubmissionGenerator, SubmissionSpec, World, WorldConfig, WorldGenerator};

/// Scholars in the served world.
pub const SCHOLARS: usize = 10_000;
/// Seed of the served world (the server's default).
pub const WORLD_SEED: u64 = 42;

/// Salts keep the input streams of one workload seed independent.
const SALT_TIMED: u64 = 0x7469_6d65_6400_0001;
const SALT_ZIPF: u64 = 0x7a69_7066_0000_0003;
const SALT_THEMES: u64 = 0x7468_656d_6500_0004;
const SALT_SHUFFLE: u64 = 0x7374_7261_7461_0005;
/// The set-up stream's seed, used in place of the workload seed.
const SETUP_SEED: u64 = 0x7365_7475_7000_0002;
/// The seed of the submissions whose breadths are the reference.
const REFERENCE_SEED: u64 = 0x7265_6665_7200_0006;
/// Submissions in the reference distribution.
const REFERENCE_DRAWS: usize = 2_048;
/// Candidates drawn per input when matching inputs to the reference.
const STRATUM: usize = 8;

/// The world the server generates for the same scholars and seed.
pub fn world() -> World {
    WorldGenerator::new(WorldConfig {
        seed: WORLD_SEED,
        ..WorldConfig::sized(SCHOLARS)
    })
    .generate()
}

/// SplitMix64: a tiny generator whose output is fixed by its seed
/// alone, independent of any library's stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `len` draws from `0..pool` with Zipf weights `1 / (rank + 1)^s`.
pub fn zipf_sequence(seed: u64, pool: usize, exponent: f64, len: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..pool)
        .map(|r| 1.0 / ((r + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(pool);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cumulative.push(acc);
    }
    let mut rng = SplitMix::new(seed ^ SALT_ZIPF);
    (0..len)
        .map(|_| {
            let u = rng.next_f64();
            cumulative.partition_point(|&c| c <= u).min(pool - 1)
        })
        .collect()
}

/// One manuscript as the editor submits it.
#[derive(Debug, Clone)]
pub struct Manuscript {
    /// The pipeline's view of it.
    pub details: ManuscriptDetails,
    /// Its `/recommend` request body.
    pub body: Vec<u8>,
}

impl Manuscript {
    /// A manuscript and its `/recommend` body.
    pub fn from_details(details: &ManuscriptDetails) -> Manuscript {
        Manuscript {
            details: details.clone(),
            body: manuscript_json(details).to_json().into_bytes(),
        }
    }

    fn new(world: &World, spec: &SubmissionSpec, title: String) -> Manuscript {
        let mut details = manuscript_from_submission(world, spec);
        details.title = title;
        Manuscript::from_details(&details)
    }
}

fn manuscript_json(m: &ManuscriptDetails) -> Value {
    Value::object()
        .set("title", m.title.as_str())
        .set(
            "keywords",
            m.keywords
                .iter()
                .map(|k| Value::from(k.as_str()))
                .collect::<Vec<_>>(),
        )
        .set(
            "authors",
            m.authors
                .iter()
                .map(|a| Value::object().set("name", a.name.as_str()))
                .collect::<Vec<_>>(),
        )
        .set("target_venue", m.target_venue.as_str())
}

/// How many distinct labels `keywords` send to the sources: each one's
/// ontology expansion plus the keyword itself, as the pipeline searches
/// them with the server's default expansion settings. Request cost
/// grows with it.
pub fn breadth(world: &World, keywords: &[String]) -> usize {
    let expander = KeywordExpander::new(&world.ontology, EditorConfig::default().expansion);
    let mut labels = std::collections::BTreeSet::new();
    for kw in keywords.iter().filter(|k| !k.trim().is_empty()) {
        if let Ok(expanded) = expander.expand(kw) {
            labels.extend(expanded.iter().map(|e| normalize_label(&e.label)));
        }
        labels.insert(normalize_label(kw));
    }
    labels.len()
}

/// Which input stream a draw comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The timed requests, drawn from the workload seed.
    Timed,
    /// Untimed set-up requests (warm-ups, the cold-start data dir). They
    /// are the same for every workload seed, so set-up does the same work
    /// in every run, and no title is shared with a timed request.
    SetUp,
}

impl Stream {
    /// The generator seed for `seed`, and the tag that makes titles unique.
    fn seed_and_tag(self, seed: u64) -> (u64, String) {
        match self {
            Stream::Timed => (seed ^ SALT_TIMED, format!("timed {seed}")),
            Stream::SetUp => (SETUP_SEED, "set-up".to_string()),
        }
    }
}

/// The reference breadths every draw is matched to, sorted: those of
/// [`REFERENCE_DRAWS`] submissions from a stream no workload seed changes.
fn reference_breadths(world: &World) -> Vec<usize> {
    let mut generator = SubmissionGenerator::new(world, REFERENCE_SEED);
    let mut breadths: Vec<usize> = (0..REFERENCE_DRAWS)
        .map(|_| breadth(world, &submission(&mut generator).keywords))
        .collect();
    breadths.sort_unstable();
    breadths
}

fn submission(generator: &mut SubmissionGenerator) -> SubmissionSpec {
    generator
        .generate()
        .expect("a 10^4-scholar world always yields submissions")
}

/// Draws `count` items whose breadths follow `reference` (sorted):
/// `STRATUM × count` candidates come from `draw`, and for each of the
/// reference's quantiles `(k + ½) / count` in turn the unused candidate
/// nearest to it in breadth is taken; the picks are then shuffled. Every
/// seed so gets nearly the same breadths, the generator's own mix of
/// narrow and broad inputs, which keeps a run's total work steady across
/// seeds while the inputs themselves still vary.
fn matched<T>(
    rng: &mut SplitMix,
    count: usize,
    reference: &[usize],
    mut draw: impl FnMut() -> T,
    breadth: impl Fn(&T) -> usize,
) -> Vec<T> {
    let mut pool: Vec<Option<(usize, T)>> = (0..STRATUM * count)
        .map(|_| {
            let item = draw();
            Some((breadth(&item), item))
        })
        .collect();
    let mut picks: Vec<T> = (0..count)
        .map(|k| {
            let target = reference[(2 * k + 1) * reference.len() / (2 * count)];
            let (_, nearest) = pool
                .iter()
                .enumerate()
                .filter_map(|(j, c)| c.as_ref().map(|(b, _)| (b.abs_diff(target), j)))
                .min()
                .expect("more candidates than picks");
            pool[nearest].take().expect("a candidate is taken once").1
        })
        .collect();
    for i in (1..picks.len()).rev() {
        picks.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    picks
}

/// `count` manuscripts of `stream` from [`SubmissionGenerator`], matched
/// to the reference breadths, each with a title no other input of the
/// run shares, so every one misses the result cache.
pub fn manuscripts(world: &World, seed: u64, count: usize, stream: Stream) -> Vec<Manuscript> {
    let (base, tag) = stream.seed_and_tag(seed);
    let mut generator = SubmissionGenerator::new(world, base);
    let mut rng = SplitMix::new(base ^ SALT_SHUFFLE);
    let specs = matched(
        &mut rng,
        count,
        &reference_breadths(world),
        || submission(&mut generator),
        |spec| breadth(world, &spec.keywords),
    );
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let title = format!("{} [{tag}.{i}]", spec.title);
            Manuscript::new(world, spec, title)
        })
        .collect()
}

/// The `count` narrowest of `2 × count` timed manuscripts, in the order
/// they were drawn: the lower half of the generator's breadths, whose
/// pipelines are the cheaper half, so that a restart's own work (WAL
/// recovery, snapshot load) is a larger share of each cold start.
pub fn narrow_manuscripts(world: &World, seed: u64, count: usize) -> Vec<Manuscript> {
    let drawn = manuscripts(world, seed, 2 * count, Stream::Timed);
    let mut by_breadth: Vec<(usize, usize)> = drawn
        .iter()
        .enumerate()
        .map(|(i, m)| (breadth(world, &m.details.keywords), i))
        .collect();
    by_breadth.sort_unstable();
    let mut keep: Vec<usize> = by_breadth[..count].iter().map(|&(_, i)| i).collect();
    keep.sort_unstable();
    keep.into_iter().map(|i| drawn[i].clone()).collect()
}

/// One `/assign` batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The batch's manuscripts.
    pub manuscripts: Vec<ManuscriptDetails>,
    /// Its `/assign` request body.
    pub body: Vec<u8>,
}

/// Contested batches of `stream`: each batch's papers share one of
/// `themes` keyword sets (matched to the reference breadths), so their best
/// reviewers overlap, and `max_load` is 1, so the load limit binds.
#[allow(clippy::too_many_arguments)]
pub fn contested_batches(
    world: &World,
    seed: u64,
    stream: Stream,
    batches: usize,
    papers: usize,
    themes: usize,
    reviewers_per_paper: usize,
    max_load: usize,
) -> Vec<Batch> {
    let (base, tag) = stream.seed_and_tag(seed);
    let reference = reference_breadths(world);
    let mut theme_source = SubmissionGenerator::new(world, base ^ SALT_THEMES);
    let mut paper_source = SubmissionGenerator::new(world, base);
    let mut rng = SplitMix::new(base ^ SALT_THEMES ^ SALT_SHUFFLE);
    (0..batches)
        .map(|b| {
            let keyword_sets: Vec<Vec<String>> = matched(
                &mut rng,
                themes,
                &reference,
                || submission(&mut theme_source).keywords,
                |keywords| breadth(world, keywords),
            );
            let manuscripts: Vec<ManuscriptDetails> = (0..papers)
                .map(|p| {
                    let mut spec = submission(&mut paper_source);
                    spec.keywords = keyword_sets[p % themes].clone();
                    let mut m = manuscript_from_submission(world, &spec);
                    m.title = format!("{} [{tag} batch {b}.{p}]", spec.title);
                    m
                })
                .collect();
            let body = Value::object()
                .set(
                    "manuscripts",
                    manuscripts.iter().map(manuscript_json).collect::<Vec<_>>(),
                )
                .set(
                    "spec",
                    Value::object()
                        .set("reviewers_per_paper", reviewers_per_paper)
                        .set("max_load", max_load),
                )
                .to_json()
                .into_bytes();
            Batch { manuscripts, body }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The first draws of `zipf_sequence(7, 16, 1.0, _)`.
    const PINNED_ZIPF: &[usize] = &[1, 9, 0, 1, 10, 0, 0, 13, 1, 0, 3, 0];
    /// FNV-1a of `manuscripts(small_world(), 3, 12, Stream::Timed)` bodies.
    const PINNED_MANUSCRIPTS: u64 = 11_999_603_700_967_043_831;

    fn small_world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| {
            WorldGenerator::new(WorldConfig {
                seed: WORLD_SEED,
                ..WorldConfig::sized(300)
            })
            .generate()
        })
    }

    #[test]
    fn zipf_sequence_reproduces_and_is_skewed() {
        let a = zipf_sequence(7, 16, 1.0, 5_000);
        assert_eq!(a, zipf_sequence(7, 16, 1.0, 5_000));
        assert_ne!(a, zipf_sequence(8, 16, 1.0, 5_000));
        assert!(a.iter().all(|&i| i < 16));
        let count = |k| a.iter().filter(|&&i| i == k).count();
        assert!(count(0) > 3 * count(15), "rank 0 must dominate rank 15");
        // Pinned prefix: a change to the sequence shows here.
        assert_eq!(&a[..12], PINNED_ZIPF);
    }

    #[test]
    fn matched_takes_the_candidate_nearest_each_reference_quantile() {
        // Candidates 100, 99, …, 69; reference quantiles at 1/8, 3/8, 5/8
        // and 7/8 of 0..100 are 12, 37, 62 and 87.
        let reference: Vec<usize> = (0..100).collect();
        let mut next = 0;
        let picks = matched(
            &mut SplitMix::new(1),
            4,
            &reference,
            || {
                next += 1;
                101 - next
            },
            |&x| x,
        );
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        // 12, 37 and 62 all lie below every candidate: the three
        // narrowest go to them; 87 is nearest 87.
        assert_eq!(sorted, [69, 70, 71, 87]);
        assert_ne!(picks, sorted, "picks are shuffled");
    }

    #[test]
    fn splitmix_is_fixed_by_its_seed() {
        let mut r = SplitMix::new(0);
        // Reference values of SplitMix64 from seed 0.
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn manuscripts_reproduce_byte_for_byte_and_never_repeat_a_title() {
        let world = small_world();
        let a = manuscripts(world, 3, 12, Stream::Timed);
        let b = manuscripts(world, 3, 12, Stream::Timed);
        assert!(a.iter().zip(&b).all(|(x, y)| x.body == y.body));
        let bodies: Vec<u8> = a.iter().flat_map(|m| m.body.clone()).collect();
        assert_eq!(crate::check::fnv1a(&bodies), PINNED_MANUSCRIPTS);
        let warm = manuscripts(world, 3, 12, Stream::SetUp);
        let mut titles: Vec<&str> = a
            .iter()
            .chain(&warm)
            .map(|m| m.details.title.as_str())
            .collect();
        titles.sort_unstable();
        titles.dedup();
        assert_eq!(titles.len(), 24);
        assert_ne!(a[0].body, manuscripts(world, 4, 1, Stream::Timed)[0].body);
        // The set-up stream ignores the workload seed.
        let warm_other_seed = manuscripts(world, 4, 12, Stream::SetUp);
        assert!(warm
            .iter()
            .zip(&warm_other_seed)
            .all(|(x, y)| x.body == y.body));
    }

    #[test]
    fn narrow_manuscripts_are_the_lower_half_of_the_draw() {
        let world = small_world();
        let drawn = manuscripts(world, 3, 12, Stream::Timed);
        let narrow = narrow_manuscripts(world, 3, 6);
        assert_eq!(narrow.len(), 6);
        let b = |m: &Manuscript| breadth(world, &m.details.keywords);
        let widest_kept = narrow.iter().map(b).max().unwrap();
        let left_out = drawn
            .iter()
            .filter(|m| !narrow.iter().any(|n| n.body == m.body));
        assert!(left_out.map(b).all(|x| x >= widest_kept));
    }

    #[test]
    fn batches_reproduce_and_share_keyword_sets() {
        let world = small_world();
        let a = contested_batches(world, 5, Stream::Timed, 2, 10, 3, 3, 1);
        let b = contested_batches(world, 5, Stream::Timed, 2, 10, 3, 3, 1);
        assert!(a.iter().zip(&b).all(|(x, y)| x.body == y.body));
        for batch in &a {
            assert_eq!(batch.manuscripts.len(), 10);
            assert_eq!(batch.manuscripts[0].keywords, batch.manuscripts[3].keywords);
        }
        let body = String::from_utf8(a[0].body.clone()).unwrap();
        assert!(body.contains("\"max_load\":1"), "{body}");
    }
}
