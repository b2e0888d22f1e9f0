//! The `SortedList` building block (Appendix E.1, Proposition E.2).
//!
//! A sorted dictionary keyed by domain values, carrying an arbitrary payload
//! per key (the `ConstraintTree` stores child-node handles). Supports the
//! five operations of Prop E.2 — `Find`, `FindLub`, `insert`, `Delete`,
//! `DeleteInterval` — each in `O(log N)` (amortized for `DeleteInterval`,
//! whose cost is charged to the earlier insertions of the deleted keys).

use std::collections::BTreeMap;

use crate::Val;

/// A sorted key → payload dictionary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortedList<T> {
    map: BTreeMap<Val, T>,
}

impl<T> SortedList<T> {
    /// An empty list.
    pub fn new() -> Self {
        SortedList {
            map: BTreeMap::new(),
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no key is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `Find(v)`: payload stored under `v`, if any.
    pub fn find(&self, v: Val) -> Option<&T> {
        self.map.get(&v)
    }

    /// `FindLub(v)`: the smallest key `v' ≥ v`, with its payload.
    pub fn find_lub(&self, v: Val) -> Option<(Val, &T)> {
        self.map.range(v..).next().map(|(&k, t)| (k, t))
    }

    /// `insert(v)`: stores `payload` under `v`, returning the previous
    /// payload if the key existed.
    pub fn insert(&mut self, v: Val, payload: T) -> Option<T> {
        self.map.insert(v, payload)
    }

    /// `Delete(v)`: removes the key, returning its payload.
    pub fn delete(&mut self, v: Val) -> Option<T> {
        self.map.remove(&v)
    }

    /// `DeleteInterval` over the *closed* range `[lo, hi]`: removes every
    /// key inside and returns the removed entries in order. (The paper
    /// phrases this with open intervals; over integers `(l, r)` equals
    /// `[l+1, r−1]` and callers translate.)
    pub fn delete_range_closed(&mut self, lo: Val, hi: Val) -> Vec<(Val, T)> {
        if lo > hi {
            return Vec::new();
        }
        let keys: Vec<Val> = self.map.range(lo..=hi).map(|(&k, _)| k).collect();
        keys.into_iter()
            .map(|k| {
                let t = self.map.remove(&k).expect("key just seen");
                (k, t)
            })
            .collect()
    }

    /// Iterates `(key, payload)` in increasing key order.
    pub fn iter(&self) -> impl Iterator<Item = (Val, &T)> {
        self.map.iter().map(|(&k, t)| (k, t))
    }

    /// Iterates keys in increasing order.
    pub fn keys(&self) -> impl Iterator<Item = Val> + '_ {
        self.map.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_and_lub() {
        let mut l = SortedList::new();
        l.insert(5, "five");
        l.insert(9, "nine");
        l.insert(2, "two");
        assert_eq!(l.find(5), Some(&"five"));
        assert_eq!(l.find(4), None);
        assert_eq!(l.find_lub(3), Some((5, &"five")));
        assert_eq!(l.find_lub(5), Some((5, &"five")));
        assert_eq!(l.find_lub(10), None);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn delete_single_and_range() {
        let mut l = SortedList::new();
        for v in [1, 3, 5, 7, 9] {
            l.insert(v, v * 10);
        }
        assert_eq!(l.delete(5), Some(50));
        assert_eq!(l.delete(5), None);
        let removed = l.delete_range_closed(2, 8);
        assert_eq!(removed, vec![(3, 30), (7, 70)]);
        assert_eq!(l.keys().collect::<Vec<_>>(), vec![1, 9]);
        assert!(l.delete_range_closed(100, 50).is_empty());
    }

    #[test]
    fn insert_replaces_payload() {
        let mut l = SortedList::new();
        assert_eq!(l.insert(1, 'a'), None);
        assert_eq!(l.insert(1, 'b'), Some('a'));
        assert_eq!(l.find(1), Some(&'b'));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut l = SortedList::new();
        for v in [9, 1, 5] {
            l.insert(v, ());
        }
        assert_eq!(l.keys().collect::<Vec<_>>(), vec![1, 5, 9]);
        assert!(!l.is_empty());
    }
}
