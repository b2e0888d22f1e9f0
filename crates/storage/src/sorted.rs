//! Searches over sorted slices: binary search partitions and galloping
//! (exponential) search.
//!
//! Galloping search is the "leapfrogging" strategy of Hwang–Lin / Demaine et
//! al. referenced in Section 6.2 of the paper: seeking forward from a known
//! position to the first element `≥ target` costs `O(log d)` where `d` is the
//! distance advanced, which is what makes leapfrog-style intersection
//! adaptive.

use crate::value::Val;

/// Number of elements in the sorted slice that are `≤ a`.
#[inline]
pub fn count_le(vals: &[Val], a: Val) -> usize {
    vals.partition_point(|&v| v <= a)
}

/// Number of elements in the sorted slice that are `< a`.
#[inline]
pub fn count_lt(vals: &[Val], a: Val) -> usize {
    vals.partition_point(|&v| v < a)
}

/// Index of the first element `≥ a` starting the search from position
/// `from`, using galloping (doubling) steps followed by a binary search in
/// the final bracket. Returns `vals.len()` if every element from `from`
/// onwards is `< a`.
///
/// Cost is `O(log(result − from + 1))` comparisons, so a full left-to-right
/// scan by repeated `gallop_ge` calls is adaptive in the total distance
/// travelled.
pub fn gallop_ge(vals: &[Val], from: usize, a: Val) -> usize {
    let n = vals.len();
    if from >= n {
        return n;
    }
    if vals[from] >= a {
        return from;
    }
    // Invariant: vals[from + lo] < a. Double the step until we overshoot.
    let mut step = 1usize;
    let mut lo = 0usize; // offset known to be < a
    loop {
        let probe = from + lo + step;
        if probe >= n {
            // Binary search in (from+lo, n).
            let tail = &vals[from + lo + 1..];
            return from + lo + 1 + tail.partition_point(|&v| v < a);
        }
        if vals[probe] >= a {
            let seg = &vals[from + lo + 1..=probe];
            return from + lo + 1 + seg.partition_point(|&v| v < a);
        }
        lo += step;
        step *= 2;
    }
}

/// Index of the first element `> a` starting from `from`, by galloping.
pub fn gallop_gt(vals: &[Val], from: usize, a: Val) -> usize {
    if a == Val::MAX {
        return vals.len();
    }
    gallop_ge(vals, from, a + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_bounds() {
        let v = [1, 3, 3, 5, 9];
        assert_eq!(count_le(&v, 0), 0);
        assert_eq!(count_le(&v, 1), 1);
        assert_eq!(count_le(&v, 3), 3);
        assert_eq!(count_le(&v, 4), 3);
        assert_eq!(count_le(&v, 9), 5);
        assert_eq!(count_le(&v, 100), 5);
        assert_eq!(count_lt(&v, 3), 1);
        assert_eq!(count_lt(&v, 1), 0);
        assert_eq!(count_lt(&v, 10), 5);
    }

    #[test]
    fn gallop_matches_linear_scan() {
        let v: Vec<Val> = vec![2, 4, 4, 8, 16, 23, 42, 99, 100, 101];
        for from in 0..=v.len() {
            for a in -1..110 {
                let expect = v
                    .iter()
                    .enumerate()
                    .skip(from)
                    .find(|(_, &x)| x >= a)
                    .map(|(i, _)| i)
                    .unwrap_or(v.len());
                assert_eq!(gallop_ge(&v, from, a), expect, "from={from} a={a}");
            }
        }
    }

    #[test]
    fn gallop_gt_skips_equals() {
        let v: Vec<Val> = vec![5, 5, 5, 7];
        assert_eq!(gallop_gt(&v, 0, 5), 3);
        assert_eq!(gallop_gt(&v, 0, 4), 0);
        assert_eq!(gallop_gt(&v, 0, 7), 4);
    }

    #[test]
    fn gallop_on_empty_and_past_end() {
        let v: Vec<Val> = vec![];
        assert_eq!(gallop_ge(&v, 0, 5), 0);
        let v = vec![1, 2];
        assert_eq!(gallop_ge(&v, 2, 0), 2);
        assert_eq!(gallop_ge(&v, 5, 0), 2);
    }
}
