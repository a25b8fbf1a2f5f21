//! Versioned binary codec for [`SourceProfile`] and the store-backed
//! profile cache.
//!
//! A simulated source's view of a scholar is deterministic, so a
//! profile built once can be persisted and served from disk on the next
//! process start instead of being rebuilt (and re-allocating its string
//! fields) from the world. The encoding uses the `minaret-store` codec
//! envelope — `[magic][tag][version]` — so a data directory written by
//! a newer build is rejected with a descriptive
//! [`StoreError::VersionMismatch`] rather than misparsed.
//!
//! Decoding failures on the read path are treated as cache misses by
//! [`crate::ProfileStore`]: the profile is rebuilt from the world and
//! re-persisted. The store is a cache of deterministic computation, so
//! rebuilding is always safe — but a *corrupt* store file is still
//! surfaced at open time by the engine's checksums.

use std::sync::Arc;

use minaret_store::{Reader, StoreError, Writer};
use minaret_synth::ScholarId;

use crate::record::{
    AffiliationRecord, SourceMetrics, SourceProfile, SourcePublication, SourceReview,
};
use crate::spec::SourceKind;
use crate::vocab::Vocabulary;

/// Envelope tag for encoded scholar profiles.
pub const TAG_PROFILE: u8 = 0x70; // 'p'
/// Current profile encoding version.
pub const PROFILE_FORMAT_VERSION: u8 = 1;

/// The store key a profile is persisted under: namespaced by the
/// source's key prefix so the six sources' views never collide.
#[must_use]
pub fn profile_key(kind: SourceKind, id: ScholarId) -> Vec<u8> {
    format!("profile/{}/{:08}", kind.prefix(), id.index()).into_bytes()
}

fn kind_to_byte(kind: SourceKind) -> u8 {
    SourceKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("SourceKind::ALL covers every variant") as u8
}

fn kind_from_byte(b: u8) -> Result<SourceKind, StoreError> {
    SourceKind::ALL
        .get(b as usize)
        .copied()
        .ok_or(StoreError::Codec {
            what: "scholar profile",
            detail: format!("unknown source kind byte {b}"),
        })
}

/// Encodes a profile into its versioned binary form.
///
/// Every field round-trips exactly — strings verbatim, options via
/// presence bytes — so a decoded profile is indistinguishable from the
/// freshly built one and recommendations computed from either are
/// byte-identical. Vocabulary entries are written as their printed
/// text; comparison forms are not persisted.
#[must_use]
pub fn encode_profile(p: &SourceProfile) -> Vec<u8> {
    let mut w = Writer::versioned(TAG_PROFILE, PROFILE_FORMAT_VERSION);
    w.u8(kind_to_byte(p.source));
    w.str(&p.key);
    w.str(p.display_name());
    w.opt_str(p.affiliation());
    w.opt_str(p.country.as_deref());
    w.u32(p.affiliation_history.len() as u32);
    for a in &p.affiliation_history {
        w.str(&a.institution);
        w.str(&a.country);
        w.u32(a.from_year);
        w.u32(a.to_year);
    }
    w.u32(p.interests().len() as u32);
    for i in p.interests() {
        w.str(i.text());
    }
    w.u32(p.publications.len() as u32);
    for pubrec in &p.publications {
        w.str(pubrec.title());
        w.u32(pubrec.year);
        w.str(pubrec.venue_name().text());
        w.u32(pubrec.coauthor_names().len() as u32);
        for c in pubrec.coauthor_names() {
            w.str(c.text());
        }
        w.u32(pubrec.keywords().len() as u32);
        for k in pubrec.keywords() {
            w.str(k.text());
        }
        w.opt_u32(pubrec.citations);
    }
    w.opt_u64(p.metrics.citations);
    w.opt_u32(p.metrics.h_index);
    w.opt_u32(p.metrics.i10_index);
    w.u32(p.reviews.len() as u32);
    for r in &p.reviews {
        w.str(r.venue_name().text());
        w.u32(r.year);
        w.u32(r.turnaround_days);
        match r.quality {
            Some(q) => {
                w.u8(1);
                w.u8(q);
            }
            None => w.u8(0),
        }
    }
    w.u32(p.truth.0);
    w.finish()
}

/// Decodes a profile previously written by [`encode_profile`],
/// resolving venue names, topic labels and co-author names through
/// `vocab`, the decoding source's table.
pub fn decode_profile(bytes: &[u8], vocab: &Vocabulary) -> Result<SourceProfile, StoreError> {
    let (mut r, _version) = Reader::versioned(
        "scholar profile",
        bytes,
        TAG_PROFILE,
        PROFILE_FORMAT_VERSION,
    )?;
    let source = kind_from_byte(r.u8()?)?;
    let key = r.str()?.to_string();
    let display_name = r.str()?.to_string();
    let affiliation = r.opt_string()?;
    let country = r.opt_string()?;
    let n = r.u32()? as usize;
    let mut affiliation_history = Vec::with_capacity(n);
    for _ in 0..n {
        affiliation_history.push(AffiliationRecord {
            institution: r.str()?.to_string(),
            country: r.str()?.to_string(),
            from_year: r.u32()?,
            to_year: r.u32()?,
        });
    }
    let n = r.u32()? as usize;
    let mut interests = Vec::with_capacity(n);
    for _ in 0..n {
        interests.push(vocab.label(r.str()?));
    }
    let n = r.u32()? as usize;
    let mut publications = Vec::with_capacity(n);
    for _ in 0..n {
        let title = r.str()?.to_string();
        let year = r.u32()?;
        let venue_name = vocab.label(r.str()?);
        let m = r.u32()? as usize;
        let mut coauthor_names = Vec::with_capacity(m);
        for _ in 0..m {
            coauthor_names.push(vocab.name(r.str()?));
        }
        let m = r.u32()? as usize;
        let mut keywords = Vec::with_capacity(m);
        for _ in 0..m {
            keywords.push(vocab.label(r.str()?));
        }
        let citations = r.opt_u32()?;
        publications.push(Arc::new(SourcePublication::new(
            title,
            year,
            venue_name,
            coauthor_names,
            keywords,
            citations,
        )));
    }
    let metrics = SourceMetrics {
        citations: r.opt_u64()?,
        h_index: r.opt_u32()?,
        i10_index: r.opt_u32()?,
    };
    let n = r.u32()? as usize;
    let mut reviews = Vec::with_capacity(n);
    for _ in 0..n {
        let venue_name = vocab.label(r.str()?);
        let year = r.u32()?;
        let turnaround_days = r.u32()?;
        let quality = match r.u8()? {
            0 => None,
            1 => Some(r.u8()?),
            other => {
                return Err(StoreError::Codec {
                    what: "scholar profile",
                    detail: format!("review quality presence byte must be 0 or 1, got {other}"),
                })
            }
        };
        reviews.push(Arc::new(SourceReview::new(
            venue_name,
            year,
            turnaround_days,
            quality,
        )));
    }
    let truth = ScholarId(r.u32()?);
    r.expect_end()?;
    let mut profile = SourceProfile::new(source, key, display_name, affiliation, interests, truth);
    profile.country = country;
    profile.affiliation_history = affiliation_history;
    profile.publications = publications;
    profile.metrics = metrics;
    profile.reviews = reviews;
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_profile() -> SourceProfile {
        let v = Vocabulary::new();
        let mut p = SourceProfile::new(
            SourceKind::Orcid,
            "orcid:0000-0002".into(),
            "L. Zhou".into(),
            Some("University of Tartu".into()),
            vec![v.label("semantic web"), v.label("databases")],
            ScholarId(42),
        );
        p.affiliation_history = vec![AffiliationRecord {
            institution: "MIT".into(),
            country: "USA".into(),
            from_year: 2001,
            to_year: 2008,
        }];
        p.publications = vec![Arc::new(SourcePublication::new(
            "Linked Data at Scale".into(),
            2017,
            v.label("EDBT"),
            vec![v.name("A. Author")],
            vec![v.label("rdf")],
            None,
        ))];
        p.metrics = SourceMetrics {
            citations: Some(12_345),
            h_index: None,
            i10_index: Some(9),
        };
        p.reviews = vec![
            Arc::new(SourceReview::new(v.label("VLDB"), 2018, 14, Some(5))),
            Arc::new(SourceReview::new(v.label("EDBT"), 2019, 30, None)),
        ];
        p
    }

    #[test]
    fn profile_round_trips_exactly() {
        let p = rich_profile();
        let bytes = encode_profile(&p);
        let vocab = Vocabulary::new();
        let decoded = decode_profile(&bytes, &vocab).unwrap();
        // Equality covers the forms too: the merge key, the normalized
        // titles and every entry's normalized label or parsed name.
        assert_eq!(decoded, p);
        assert_eq!(decoded.merge_key(), "l|zhou|university of tartu");
        assert_eq!(
            decoded.publications[0].normalized_title(),
            "linked data at scale"
        );
        // Equal printed strings decoded through one table share one
        // entry: within a profile, and across decodes.
        let again = decode_profile(&bytes, &vocab).unwrap();
        let venue = decoded.publications[0].venue_name();
        assert!(Arc::ptr_eq(venue, decoded.reviews[1].venue_name()));
        assert!(Arc::ptr_eq(venue, again.publications[0].venue_name()));
        assert!(Arc::ptr_eq(&decoded.interests()[1], &again.interests()[1]));
        assert!(Arc::ptr_eq(
            &decoded.publications[0].keywords()[0],
            &again.publications[0].keywords()[0]
        ));
        assert!(Arc::ptr_eq(
            &decoded.publications[0].coauthor_names()[0],
            &again.publications[0].coauthor_names()[0]
        ));
        // Five labels (two interests, two venues, one keyword), one name.
        assert_eq!(vocab.len(), 6);
    }

    #[test]
    fn every_source_kind_round_trips() {
        for kind in SourceKind::ALL {
            let mut p = rich_profile();
            p.source = kind;
            let decoded = decode_profile(&encode_profile(&p), &Vocabulary::new()).unwrap();
            assert_eq!(decoded.source, kind);
        }
    }

    #[test]
    fn future_version_is_a_descriptive_error() {
        let p = rich_profile();
        let mut bytes = encode_profile(&p);
        bytes[2] = PROFILE_FORMAT_VERSION + 1; // bump the version byte
        let err = decode_profile(&bytes, &Vocabulary::new()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("scholar profile"), "{msg}");
        assert!(msg.contains("format version"), "{msg}");
    }

    #[test]
    fn truncated_profile_is_an_error_not_a_panic() {
        let bytes = encode_profile(&rich_profile());
        let vocab = Vocabulary::new();
        for cut in 0..bytes.len() {
            assert!(
                decode_profile(&bytes[..cut], &vocab).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn profile_keys_are_namespaced_per_source() {
        let a = profile_key(SourceKind::GoogleScholar, ScholarId(7));
        let b = profile_key(SourceKind::Dblp, ScholarId(7));
        assert_ne!(a, b);
        assert!(String::from_utf8(a).unwrap().starts_with("profile/gs/"));
    }
}
