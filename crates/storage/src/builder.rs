//! Incremental relation builder.

use crate::error::StorageError;
use crate::trie::TrieRelation;
use crate::value::{Tuple, Val, MAX_DOMAIN_VALUE};

/// Accumulates tuples and produces a [`TrieRelation`].
///
/// ```
/// use minesweeper_storage::RelationBuilder;
/// let r = RelationBuilder::new("R", 2)
///     .tuple(&[1, 2])
///     .tuple(&[1, 3])
///     .build()
///     .unwrap();
/// assert_eq!(r.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RelationBuilder {
    name: String,
    arity: usize,
    tuples: Vec<Tuple>,
    error: Option<StorageError>,
}

impl RelationBuilder {
    /// Starts a builder for a relation with the given name and arity.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        assert!(arity >= 1, "relations must have arity >= 1");
        RelationBuilder {
            name: name.into(),
            arity,
            tuples: Vec::new(),
            error: None,
        }
    }

    /// Adds one tuple (by slice). Errors are deferred to [`build`].
    ///
    /// [`build`]: RelationBuilder::build
    pub fn tuple(mut self, t: &[Val]) -> Self {
        self.push(t);
        self
    }

    /// Adds one tuple in place (for loops where the builder is owned).
    pub fn push(&mut self, t: &[Val]) {
        if self.error.is_some() {
            return;
        }
        if t.len() != self.arity {
            self.error = Some(StorageError::ArityMismatch {
                relation: self.name.clone(),
                expected: self.arity,
                got: t.len(),
            });
            return;
        }
        if let Some(&v) = t.iter().find(|&&v| !(0..=MAX_DOMAIN_VALUE).contains(&v)) {
            self.error = Some(StorageError::ValueOutOfDomain {
                relation: self.name.clone(),
                value: v,
            });
            return;
        }
        self.tuples.push(t.to_vec());
    }

    /// Adds many tuples.
    pub fn extend<'a>(mut self, it: impl IntoIterator<Item = &'a [Val]>) -> Self {
        for t in it {
            self.push(t);
        }
        self
    }

    /// Sorts, deduplicates, and freezes the relation.
    pub fn build(self) -> Result<TrieRelation, StorageError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut tuples = self.tuples;
        tuples.sort_unstable();
        tuples.dedup();
        Ok(TrieRelation::from_sorted_unique(
            self.name, self.arity, &tuples,
        ))
    }
}

/// Builds a unary relation from a value iterator.
pub fn unary(name: impl Into<String>, values: impl IntoIterator<Item = Val>) -> TrieRelation {
    let mut b = RelationBuilder::new(name, 1);
    for v in values {
        b.push(&[v]);
    }
    b.build().expect("unary relation build")
}

/// Builds a binary relation from a pair iterator.
pub fn binary(
    name: impl Into<String>,
    pairs: impl IntoIterator<Item = (Val, Val)>,
) -> TrieRelation {
    let mut b = RelationBuilder::new(name, 2);
    for (x, y) in pairs {
        b.push(&[x, y]);
    }
    b.build().expect("binary relation build")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_and_dedups() {
        let r = RelationBuilder::new("R", 2)
            .tuple(&[5, 5])
            .tuple(&[1, 2])
            .tuple(&[5, 5])
            .build()
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.to_tuples(), vec![vec![1, 2], vec![5, 5]]);
    }

    #[test]
    fn builder_reports_first_error() {
        let err = RelationBuilder::new("R", 2)
            .tuple(&[1, 2])
            .tuple(&[1])
            .tuple(&[3, 4])
            .build()
            .unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { got: 1, .. }));
    }

    #[test]
    fn unary_and_binary_helpers() {
        let u = unary("U", [3, 1, 2]);
        assert_eq!(u.first_column(), &[1, 2, 3]);
        let b = binary("B", [(2, 1), (1, 9)]);
        assert_eq!(b.to_tuples(), vec![vec![1, 9], vec![2, 1]]);
    }

    #[test]
    fn extend_adds_every_row() {
        let rows: Vec<Vec<Val>> = vec![vec![1, 1], vec![2, 2]];
        let b = RelationBuilder::new("R", 2).extend(rows.iter().map(|r| r.as_slice()));
        assert_eq!(b.build().unwrap().len(), 2);
    }
}
