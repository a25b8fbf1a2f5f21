//! Ranking-quality metrics.
//!
//! All functions take the *graded relevance* of a ranked list (relevance
//! of the item at position i, best-first) and, where needed, the ideal
//! relevance pool. Binary metrics threshold the grades.

/// Precision@k: fraction of the top-k with relevance above `threshold`.
pub fn precision_at_k(relevances: &[f64], k: usize, threshold: f64) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let top = &relevances[..k.min(relevances.len())];
    if top.is_empty() {
        return 0.0;
    }
    top.iter().filter(|&&r| r > threshold).count() as f64 / k as f64
}

/// Recall@k: fraction of all `total_relevant` items that appear in the
/// top-k (by the same threshold).
pub fn recall_at_k(relevances: &[f64], k: usize, total_relevant: usize, threshold: f64) -> f64 {
    if total_relevant == 0 {
        return 0.0;
    }
    let top = &relevances[..k.min(relevances.len())];
    // Clamped: callers passing a `total_relevant` inconsistent with the
    // ranked list (possible when the list comes from a noisier view than
    // the pool) must not report recall > 1.
    (top.iter().filter(|&&r| r > threshold).count() as f64 / total_relevant as f64).min(1.0)
}

/// Discounted cumulative gain at k.
pub fn dcg_at_k(relevances: &[f64], k: usize) -> f64 {
    relevances
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, &r)| r / ((i + 2) as f64).log2())
        .sum()
}

/// Normalized DCG@k. `ideal_pool` is the relevance of every candidate in
/// the universe (any order); the ideal ranking is its descending sort.
pub fn ndcg_at_k(relevances: &[f64], ideal_pool: &[f64], k: usize) -> f64 {
    let mut ideal = ideal_pool.to_vec();
    ideal.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let idcg = dcg_at_k(&ideal, k);
    if idcg <= 0.0 {
        return 0.0;
    }
    (dcg_at_k(relevances, k) / idcg).min(1.0)
}

/// Mean reciprocal rank of the first item above `threshold`.
pub fn reciprocal_rank(relevances: &[f64], threshold: f64) -> f64 {
    relevances
        .iter()
        .position(|&r| r > threshold)
        .map(|i| 1.0 / (i + 1) as f64)
        .unwrap_or(0.0)
}

/// Kendall's tau-a rank correlation between two rankings of the same item
/// set. Items are identified by the value at each position of `a` and
/// `b`; items present in only one ranking are ignored. Returns a value in
/// `[-1, 1]`; `1.0` for identical orders, `-1.0` for reversed. Returns
/// `1.0` when fewer than two common items exist (no evidence of
/// disagreement).
pub fn kendall_tau<T: Eq + std::hash::Hash + Clone>(a: &[T], b: &[T]) -> f64 {
    use std::collections::HashMap;
    let pos_b: HashMap<&T, usize> = b.iter().enumerate().map(|(i, x)| (x, i)).collect();
    let common: Vec<usize> = a.iter().filter_map(|x| pos_b.get(x).copied()).collect();
    let n = common.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            if common[i] < common[j] {
                concordant += 1;
            } else if common[i] > common[j] {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

/// Mean of a slice; `0.0` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn precision_counts_threshold_exceedances() {
        let rels = [1.0, 0.0, 0.6, 0.0, 0.9];
        assert!((precision_at_k(&rels, 5, 0.5) - 3.0 / 5.0).abs() < 1e-12);
        assert!((precision_at_k(&rels, 1, 0.5) - 1.0).abs() < 1e-12);
        assert_eq!(precision_at_k(&rels, 0, 0.5), 0.0);
        // k larger than the list divides by k, penalizing short lists.
        assert!((precision_at_k(&[1.0], 5, 0.5) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn recall_divides_by_pool() {
        let rels = [1.0, 0.0, 0.6];
        assert!((recall_at_k(&rels, 3, 4, 0.5) - 0.5).abs() < 1e-12);
        assert_eq!(recall_at_k(&rels, 3, 0, 0.5), 0.0);
    }

    #[test]
    fn ndcg_is_one_for_ideal_ranking() {
        let pool = [0.9, 0.5, 0.2, 0.0];
        let ranked = [0.9, 0.5, 0.2, 0.0];
        assert!((ndcg_at_k(&ranked, &pool, 4) - 1.0).abs() < 1e-12);
        let reversed = [0.0, 0.2, 0.5, 0.9];
        assert!(ndcg_at_k(&reversed, &pool, 4) < 1.0);
    }

    #[test]
    fn ndcg_empty_pool_is_zero() {
        assert_eq!(ndcg_at_k(&[0.5], &[], 3), 0.0);
        assert_eq!(ndcg_at_k(&[0.5], &[0.0, 0.0], 3), 0.0);
    }

    #[test]
    fn reciprocal_rank_finds_first_hit() {
        assert_eq!(reciprocal_rank(&[0.0, 0.0, 0.9], 0.5), 1.0 / 3.0);
        assert_eq!(reciprocal_rank(&[0.9], 0.5), 1.0);
        assert_eq!(reciprocal_rank(&[0.1, 0.2], 0.5), 0.0);
    }

    #[test]
    fn kendall_tau_extremes() {
        let a = [1, 2, 3, 4];
        let rev = [4, 3, 2, 1];
        assert!((kendall_tau(&a, &a) - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&a, &rev) + 1.0).abs() < 1e-12);
        // One swap out of 6 pairs: (6-2*1-... ) -> (5-1)/6
        let swapped = [2, 1, 3, 4];
        assert!((kendall_tau(&a, &swapped) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_tau_ignores_noncommon_items() {
        let a = [1, 2, 3, 99];
        let b = [1, 2, 3, 100];
        assert!((kendall_tau(&a, &b) - 1.0).abs() < 1e-12);
        // Degenerate: no overlap.
        assert_eq!(kendall_tau(&[1, 2], &[3, 4]), 1.0);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn metrics_are_bounded(rels in proptest::collection::vec(0.0f64..=1.0, 0..20), k in 1usize..25) {
            prop_assert!((0.0..=1.0).contains(&precision_at_k(&rels, k, 0.5)));
            prop_assert!((0.0..=1.0).contains(&recall_at_k(&rels, k, 10, 0.5)));
            prop_assert!((0.0..=1.0 + 1e-12).contains(&ndcg_at_k(&rels, &rels, k)));
            prop_assert!((0.0..=1.0).contains(&reciprocal_rank(&rels, 0.5)));
        }

        #[test]
        fn tau_symmetric(perm in Just(()).prop_flat_map(|_| proptest::sample::subsequence((0..10u32).collect::<Vec<_>>(), 2..10))) {
            let mut rev = perm.clone();
            rev.reverse();
            let t1 = kendall_tau(&perm, &rev);
            let t2 = kendall_tau(&rev, &perm);
            prop_assert!((t1 - t2).abs() < 1e-12);
        }
    }
}
