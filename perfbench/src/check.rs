//! Output checks on every response, and the run's response fingerprint.

use std::collections::{HashMap, HashSet};

use minaret_core::ManuscriptDetails;
use minaret_json::Value;

/// The only response field that differs between runs of the same
/// inputs: the server's own phase timings.
pub const TIMINGS_KEY: &str = "timings_ms";

fn parse(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    minaret_json::parse(text).map_err(|e| format!("body is not JSON: {e}"))
}

/// Checks a `/recommend` answer for `manuscript`: ranks contiguous from
/// 1, `total_score` non-increasing, no manuscript author recommended,
/// and not degraded. Returns the parsed body.
pub fn recommend(body: &[u8], manuscript: &ManuscriptDetails) -> Result<Value, String> {
    let v = parse(body)?;
    if v.get("degraded").and_then(Value::as_bool) != Some(false) {
        return Err("response is degraded or lacks the degraded flag".into());
    }
    let recs = v
        .get("recommendations")
        .and_then(Value::as_array)
        .ok_or("no recommendations array")?;
    let authors: HashSet<&str> = manuscript.authors.iter().map(|a| a.name.as_str()).collect();
    let mut previous = f64::INFINITY;
    for (i, r) in recs.iter().enumerate() {
        if r.get("rank").and_then(Value::as_u64) != Some(i as u64 + 1) {
            return Err(format!("rank at position {i} is not {}", i + 1));
        }
        let score = r
            .get("total_score")
            .and_then(Value::as_f64)
            .ok_or("recommendation without total_score")?;
        if score > previous {
            return Err(format!("total_score rises at rank {}", i + 1));
        }
        previous = score;
        let name = r.get("name").and_then(Value::as_str).unwrap_or_default();
        if authors.contains(name) {
            return Err(format!("manuscript author {name:?} recommended"));
        }
    }
    Ok(v)
}

/// Checks an `/assign` answer: one entry per paper with exactly
/// `reviewers_per_paper` reviewers, none of them the paper's own
/// author, and a load table whose loads never exceed `max_load` and sum
/// to the assignments made. Loads are checked on the answer's own load
/// table, because distinct scholars can share a display name. Returns
/// the parsed body.
pub fn assign(
    body: &[u8],
    manuscripts: &[ManuscriptDetails],
    reviewers_per_paper: usize,
    max_load: usize,
) -> Result<Value, String> {
    let v = parse(body)?;
    let papers = v
        .get("papers")
        .and_then(Value::as_array)
        .ok_or("no papers array")?;
    if papers.len() != manuscripts.len() {
        return Err(format!(
            "{} papers answered for {} submitted",
            papers.len(),
            manuscripts.len()
        ));
    }
    let mut per_name: HashMap<&str, usize> = HashMap::new();
    for (paper, manuscript) in papers.iter().zip(manuscripts) {
        let reviewers = paper
            .get("reviewers")
            .and_then(Value::as_array)
            .ok_or("paper without reviewers")?;
        if reviewers.len() != reviewers_per_paper {
            return Err(format!(
                "{} reviewers for {:?}, want {reviewers_per_paper}",
                reviewers.len(),
                manuscript.title
            ));
        }
        let authors: HashSet<&str> = manuscript.authors.iter().map(|a| a.name.as_str()).collect();
        for r in reviewers {
            let name = r.get("name").and_then(Value::as_str).unwrap_or_default();
            if authors.contains(name) {
                return Err(format!("author {name:?} reviews own paper"));
            }
            *per_name.entry(name).or_default() += 1;
        }
    }
    let loads = v
        .get("loads")
        .and_then(Value::as_array)
        .ok_or("no loads array")?;
    let mut total = 0;
    let mut listed: HashMap<&str, usize> = HashMap::new();
    for l in loads {
        let name = l.get("name").and_then(Value::as_str).unwrap_or_default();
        let load = l
            .get("load")
            .and_then(Value::as_u64)
            .ok_or("load without a count")? as usize;
        if load == 0 || load > max_load {
            return Err(format!(
                "{name:?} carries {load} papers, max_load {max_load}"
            ));
        }
        total += load;
        *listed.entry(name).or_default() += load;
    }
    if total != papers.len() * reviewers_per_paper || listed != per_name {
        return Err("load table disagrees with the per-paper assignments".into());
    }
    Ok(v)
}

/// `body` with the top-level timings object removed, re-serialized.
/// A body that is not a JSON object is returned unchanged.
pub fn strip_timings(body: &[u8]) -> Vec<u8> {
    match parse(body) {
        Ok(Value::Object(fields)) => Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != TIMINGS_KEY)
                .collect(),
        )
        .to_json()
        .into_bytes(),
        _ => body.to_vec(),
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds per-request body hashes, in request order, into the run's
/// fingerprint.
pub fn fingerprint(hashes: &[u64]) -> u64 {
    let bytes: Vec<u8> = hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_core::AuthorInput;

    fn manuscript(authors: &[&str]) -> ManuscriptDetails {
        ManuscriptDetails {
            title: "T".into(),
            keywords: vec!["RDF".into()],
            authors: authors.iter().map(|a| AuthorInput::named(*a)).collect(),
            target_venue: "J".into(),
        }
    }

    #[test]
    fn strip_removes_timings_and_nothing_else() {
        let a = br#"{"title":"T","n":1,"timings_ms":{"extraction":1.5},"x":[{"timings_ms":2}]}"#;
        let b = br#"{"title":"T","n":1,"timings_ms":{"extraction":9.25},"x":[{"timings_ms":2}]}"#;
        let c = br#"{"title":"T","n":2,"timings_ms":{"extraction":1.5},"x":[{"timings_ms":2}]}"#;
        assert_eq!(
            strip_timings(a),
            br#"{"title":"T","n":1,"x":[{"timings_ms":2}]}"#.to_vec()
        );
        assert_eq!(fnv1a(&strip_timings(a)), fnv1a(&strip_timings(b)));
        assert_ne!(fnv1a(&strip_timings(a)), fnv1a(&strip_timings(c)));
        assert_eq!(strip_timings(b"not json"), b"not json".to_vec());
    }

    #[test]
    fn fingerprint_depends_on_order() {
        assert_ne!(fingerprint(&[1, 2]), fingerprint(&[2, 1]));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn recommend_checks_ranks_scores_and_authors() {
        let m = manuscript(&["Ann Author"]);
        let ok = br#"{"degraded":false,"recommendations":[
            {"rank":1,"name":"X","total_score":0.9},{"rank":2,"name":"Y","total_score":0.9}]}"#;
        assert!(recommend(ok, &m).is_ok());
        for bad in [
            &br#"{"degraded":true,"recommendations":[]}"#[..],
            br#"{"degraded":false,"recommendations":[{"rank":2,"name":"X","total_score":1}]}"#,
            br#"{"degraded":false,"recommendations":[{"rank":1,"name":"X","total_score":0.1},
                {"rank":2,"name":"Y","total_score":0.2}]}"#,
            br#"{"degraded":false,"recommendations":[{"rank":1,"name":"Ann Author","total_score":1}]}"#,
        ] {
            assert!(recommend(bad, &m).is_err(), "{}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn assign_checks_counts_loads_and_authors() {
        let ms = vec![manuscript(&["A"]), manuscript(&["B"])];
        let body = |p1: &[&str], p2: &[&str], loads: &[(&str, u64)]| {
            let names = |ns: &[&str]| {
                ns.iter()
                    .map(|n| format!(r#"{{"name":"{n}"}}"#))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let loads = loads
                .iter()
                .map(|(n, l)| format!(r#"{{"name":"{n}","load":{l}}}"#))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                r#"{{"papers":[{{"reviewers":[{}]}},{{"reviewers":[{}]}}],"loads":[{loads}]}}"#,
                names(p1),
                names(p2)
            )
            .into_bytes()
        };
        let ok = body(
            &["X", "Y"],
            &["Z", "W"],
            &[("X", 1), ("Y", 1), ("Z", 1), ("W", 1)],
        );
        assert!(assign(&ok, &ms, 2, 1).is_ok());
        // Two scholars sharing a display name are two load entries.
        let namesakes = body(
            &["X", "Y"],
            &["X", "W"],
            &[("X", 1), ("X", 1), ("Y", 1), ("W", 1)],
        );
        assert!(assign(&namesakes, &ms, 2, 1).is_ok());
        let overloaded = body(&["X", "Y"], &["X", "W"], &[("X", 2), ("Y", 1), ("W", 1)]);
        assert!(assign(&overloaded, &ms, 2, 1).is_err());
        assert!(assign(&overloaded, &ms, 2, 2).is_ok());
        let short = body(&["X"], &["Z", "W"], &[("X", 1), ("Z", 1), ("W", 1)]);
        assert!(assign(&short, &ms, 2, 1).is_err());
        let own = body(
            &["A", "Y"],
            &["Z", "W"],
            &[("A", 1), ("Y", 1), ("Z", 1), ("W", 1)],
        );
        assert!(assign(&own, &ms, 2, 1).is_err());
        let miscounted = body(&["X", "Y"], &["Z", "W"], &[("X", 1), ("Y", 1), ("Z", 1)]);
        assert!(assign(&miscounted, &ms, 2, 1).is_err());
    }
}
