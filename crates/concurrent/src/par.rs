//! Deterministic data-parallel helpers.
//!
//! The pipeline's Phase-2/Phase-3 work is a pure per-candidate map:
//! every decision and score depends only on that candidate plus shared
//! read-only inputs, and a source's profile builds are a pure map over
//! scholar ids. [`chunked_map`] exploits that by splitting the
//! slice into contiguous chunks, mapping each chunk on its own thread,
//! and concatenating the per-chunk outputs **in chunk order** — so the
//! result is element-for-element identical to `items.iter().map(f)`,
//! just computed on more cores. Callers then apply ordering-sensitive
//! steps (partition, sort, tie-breaks) sequentially on the combined
//! output, which is what keeps parallel runs byte-identical to
//! sequential ones.

/// Below this many items the spawn cost outweighs the win; map inline.
pub const MIN_PARALLEL_ITEMS: usize = 64;

/// Resolves a parallelism knob: `0` means "all available cores".
pub fn effective_parallelism(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Maps `f` over `items`, using up to `parallelism` threads (`0` = all
/// cores), preserving order exactly. Falls back to an inline sequential
/// map for small inputs or `parallelism <= 1`; those inputs never ask
/// the OS for the core count. A panic inside `f` propagates to the
/// caller, as it would sequentially.
pub fn chunked_map<T, R, F>(items: &[T], parallelism: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = if items.len() < MIN_PARALLEL_ITEMS || parallelism == 1 {
        1
    } else {
        effective_parallelism(parallelism).min(items.len())
    };
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(workers);
    let f = &f;
    let per_chunk: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    per_chunk.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_map_is_order_preserving_and_complete() {
        let items: Vec<u64> = (0..1000).collect();
        let sequential: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for parallelism in [0, 1, 2, 3, 7, 64] {
            let parallel = chunked_map(&items, parallelism, |x| x * 3 + 1);
            assert_eq!(parallel, sequential, "parallelism={parallelism}");
        }
    }

    #[test]
    fn small_inputs_stay_inline() {
        // Below the threshold the result must still be correct (the
        // inline path), including the empty slice.
        let empty: Vec<u32> = Vec::new();
        assert!(chunked_map(&empty, 4, |x| *x).is_empty());
        let items: Vec<u32> = (0..10).collect();
        assert_eq!(
            chunked_map(&items, 4, |x| x + 1),
            (1..11).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn effective_parallelism_resolves_zero_to_cores() {
        assert!(effective_parallelism(0) >= 1);
        assert_eq!(effective_parallelism(3), 3);
    }

    #[test]
    fn panics_propagate_like_sequential_maps() {
        let items: Vec<u32> = (0..200).collect();
        let result = std::panic::catch_unwind(|| {
            chunked_map(&items, 4, |x| {
                if *x == 150 {
                    panic!("scripted map panic");
                }
                *x
            })
        });
        assert!(result.is_err());
    }
}
