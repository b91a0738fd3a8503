//! Deterministic shard planning.
//!
//! A plan is a pure function of the points' factories and the configured
//! pool size — never of runtime timing or of which workers happen to be
//! alive — so the *set* of shards (and therefore the merged output) is
//! identical run to run for a given `--workers` value. Scheduling (which
//! worker runs which shard, in what order) is free to vary; merging happens
//! in shard order, not completion order.
//!
//! Grids list factories from small to large and a two-level factory costs
//! far more to map than a single-level one, so equal-count halves would hand
//! one worker all the expensive points. Instead a shard is one factory's
//! run of consecutive points, capped at ⌈n / workers⌉ points; idle workers
//! pull the next queued shard. Keeping a factory's points together keeps
//! the factory build sharing and lane batching inside one worker.

use std::ops::Range;

/// Splits `0..n` (`n` = the number of `keys`) into contiguous, non-empty
/// ranges covering every index exactly once, in order.
///
/// A new range starts wherever the key (a point's factory) differs from the
/// previous one, and after every ⌈n / workers⌉ points of one range. A run
/// of equal keys is therefore cut into ⌈n / workers⌉-sized pieces with a
/// shorter last piece. `n == 0` or `workers == 0` yields no ranges.
pub fn plan_shards<K, I>(keys: I, workers: usize) -> Vec<Range<usize>>
where
    K: PartialEq,
    I: IntoIterator<Item = K>,
    I::IntoIter: ExactSizeIterator,
{
    let keys = keys.into_iter();
    let total = keys.len();
    if total == 0 || workers == 0 {
        return Vec::new();
    }
    let cap = total.div_ceil(workers);
    let mut ranges = Vec::new();
    let mut start = 0;
    let mut previous: Option<K> = None;
    for (i, key) in keys.enumerate() {
        if i > start && (i - start == cap || previous.as_ref() != Some(&key)) {
            ranges.push(start..i);
            start = i;
        }
        previous = Some(key);
    }
    ranges.push(start..total);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks every plan invariant: `0..n` covered in order with no empty
    /// shard, at most ⌈n / workers⌉ points per shard, one key per shard, and
    /// a cut exactly where the key changes.
    fn check(keys: &[u8], workers: usize) {
        let n = keys.len();
        let ranges = plan_shards(keys, workers);
        let mut next = 0;
        for r in &ranges {
            assert_eq!(r.start, next, "contiguous coverage ({keys:?}/{workers})");
            assert!(!r.is_empty(), "no empty shards ({keys:?}/{workers})");
            assert!(
                r.len() <= n.div_ceil(workers),
                "capped ({keys:?}/{workers})"
            );
            assert!(
                keys[r.clone()].iter().all(|k| *k == keys[r.start]),
                "one factory per shard ({keys:?}/{workers})"
            );
            next = r.end;
        }
        assert_eq!(next, n, "full coverage ({keys:?}/{workers})");
        for i in 1..n {
            if keys[i] != keys[i - 1] {
                assert!(
                    ranges.iter().any(|r| r.start == i),
                    "cut at the factory change {i} ({keys:?}/{workers})"
                );
            }
        }
    }

    #[test]
    fn plans_cover_in_order_cap_shards_and_cut_at_every_factory_change() {
        // Every key sequence over two factories up to length 10, plus runs
        // of three factories, at every pool size up to past the length.
        for n in 0..=10usize {
            for mask in 0..(1u32 << n) {
                let keys: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
                for workers in 1..=n + 2 {
                    check(&keys, workers);
                }
            }
        }
        for workers in 1..=9 {
            check(&[0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 0], workers);
        }
    }

    #[test]
    fn plan_is_deterministic_and_splits_one_factory_into_capped_pieces() {
        let one = [(); 10];
        assert_eq!(plan_shards(one, 3), plan_shards(one, 3));
        assert_eq!(plan_shards(one, 3), vec![0..4, 4..8, 8..10]);
        assert_eq!(plan_shards([(); 4], 2), vec![0..2, 2..4]);
        assert_eq!(plan_shards([(); 3], 8), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn factory_changes_cut_shards_below_the_cap() {
        // Cheap single-level points first, expensive two-level ones last:
        // the two-level run gets shards of its own, cut at the cap, instead
        // of riding in one equal-count half with the cheap points.
        let keys = [1, 1, 1, 2, 2, 2, 2, 2, 2];
        assert_eq!(plan_shards(keys, 2), vec![0..3, 3..8, 8..9]);
        assert_eq!(plan_shards(keys, 3), vec![0..3, 3..6, 6..9]);
        // Two points per factory: one shard per factory at any pool size
        // that does not cap below two.
        let pairs = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5];
        assert_eq!(plan_shards(pairs, 2).len(), 5);
        assert_eq!(plan_shards(pairs, 4).len(), 5);
    }

    #[test]
    fn degenerate_plans_are_empty() {
        assert!(plan_shards([0u8; 0], 4).is_empty());
        assert!(plan_shards([1, 2, 3, 4], 0).is_empty());
    }
}
