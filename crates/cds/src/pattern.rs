//! Patterns and the specialization partial order (Section 4.2).
//!
//! A *pattern* `p = ⟨p₁, …, p_k⟩` has components that are either equality
//! values or wildcards `˚`. Pattern `p'` is a **specialization** of `p`
//! (written `p' ⪯ p`) when `p'ᵢ = pᵢ` wherever `pᵢ` is an equality — i.e.
//! `p'` may turn wildcards into equalities but never the reverse. The
//! *principal filter* `G(t₁, …, t_i)` of a prefix consists of all CDS nodes
//! whose pattern generalizes `⟨t₁, …, t_i⟩`; Proposition 4.2 shows it is a
//! chain for β-acyclic queries under a nested elimination order.
//!
//! The **meet** `p ∧ q` (most general common specialization) exists whenever
//! `p` and `q` are *compatible* (agree on shared equality positions) and is
//! computed componentwise; Algorithm 6 uses suffix meets to build the
//! shadow chain for general queries.

use std::fmt;

use crate::Val;

/// One pattern component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternComp {
    /// Equality component `= v`.
    Eq(Val),
    /// Wildcard component `˚`.
    Star,
}

impl PatternComp {
    /// True for an equality component.
    pub fn is_eq(&self) -> bool {
        matches!(self, PatternComp::Eq(_))
    }
}

/// A pattern: a sequence of equality/wildcard components.
///
/// ```
/// use minesweeper_cds::{Pattern, PatternComp::{Eq, Star}};
/// let p = Pattern(vec![Eq(3), Star]);
/// let q = Pattern(vec![Star, Star]);
/// assert!(p.specializes(&q));                       // p ⪯ q
/// assert!(p.matches_prefix(&[3, 99]));
/// assert_eq!(p.meet(&Pattern(vec![Star, Eq(7)])),   // componentwise meet
///            Some(Pattern(vec![Eq(3), Eq(7)])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Pattern(pub Vec<PatternComp>);

impl Pattern {
    /// The empty pattern (the root of the CDS).
    pub fn empty() -> Self {
        Pattern(Vec::new())
    }

    /// A pattern of all equalities, matching exactly one prefix.
    pub fn all_eq(vals: &[Val]) -> Self {
        Pattern(vals.iter().map(|&v| PatternComp::Eq(v)).collect())
    }

    /// A pattern of `k` wildcards.
    pub fn all_star(k: usize) -> Self {
        Pattern(vec![PatternComp::Star; k])
    }

    /// Length of the pattern.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty pattern.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of equality components (the pattern's *size* in the credit
    /// accounting of Appendix G.2).
    pub fn eq_count(&self) -> usize {
        self.0.iter().filter(|c| c.is_eq()).count()
    }

    /// 1-based position of the last equality component, or 0 if none — the
    /// `i₀ = max{k : p̄_k ≠ ˚}` of Algorithm 3 line 11.
    pub fn last_eq_position(&self) -> usize {
        self.0
            .iter()
            .rposition(|c| c.is_eq())
            .map(|i| i + 1)
            .unwrap_or(0)
    }

    /// `self ⪯ other`: is `self` a specialization of `other`? Requires equal
    /// lengths.
    pub fn specializes(&self, other: &Pattern) -> bool {
        self.len() == other.len()
            && self.0.iter().zip(&other.0).all(|(s, o)| match o {
                PatternComp::Star => true,
                PatternComp::Eq(v) => *s == PatternComp::Eq(*v),
            })
    }

    /// True when the two patterns are comparable in the specialization
    /// order.
    pub fn comparable(&self, other: &Pattern) -> bool {
        self.specializes(other) || other.specializes(self)
    }

    /// Does a concrete prefix match this pattern (pattern generalizes the
    /// all-equality pattern of the prefix)?
    pub fn matches_prefix(&self, prefix: &[Val]) -> bool {
        self.len() == prefix.len()
            && self.0.iter().zip(prefix).all(|(c, &v)| match c {
                PatternComp::Star => true,
                PatternComp::Eq(u) => *u == v,
            })
    }

    /// The meet `self ∧ other` under specialization: componentwise, an
    /// equality wins over a wildcard. Returns `None` when the patterns are
    /// incompatible (two different equalities at one position) — never the
    /// case inside a principal filter.
    pub fn meet(&self, other: &Pattern) -> Option<Pattern> {
        if self.len() != other.len() {
            return None;
        }
        let mut out = Vec::with_capacity(self.len());
        for (a, b) in self.0.iter().zip(&other.0) {
            match (a, b) {
                (PatternComp::Star, x) | (x, PatternComp::Star) => out.push(*x),
                (PatternComp::Eq(u), PatternComp::Eq(v)) => {
                    if u != v {
                        return None;
                    }
                    out.push(PatternComp::Eq(*u));
                }
            }
        }
        Some(Pattern(out))
    }

    /// The prefix of this pattern of the given length.
    pub fn prefix(&self, len: usize) -> Pattern {
        Pattern(self.0[..len].to_vec())
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match c {
                PatternComp::Eq(v) => write!(f, "{v}")?,
                PatternComp::Star => write!(f, "*")?,
            }
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PatternComp::{Eq, Star};

    #[test]
    fn specialization_examples_from_figure_4() {
        // P(u) = ⟨3,˚,10⟩ ⪯ P(v) = ⟨˚,˚,10⟩ (Figure 4).
        let u = Pattern(vec![Eq(3), Star, Eq(10)]);
        let v = Pattern(vec![Star, Star, Eq(10)]);
        assert!(u.specializes(&v));
        assert!(!v.specializes(&u));
        assert!(u.comparable(&v));
    }

    #[test]
    fn incomparable_patterns() {
        let a = Pattern(vec![Eq(1), Star]);
        let b = Pattern(vec![Star, Eq(2)]);
        assert!(!a.comparable(&b));
        // Their meet is ⟨1,2⟩.
        assert_eq!(a.meet(&b), Some(Pattern(vec![Eq(1), Eq(2)])));
    }

    #[test]
    fn meet_of_incompatible_is_none() {
        let a = Pattern(vec![Eq(1)]);
        let b = Pattern(vec![Eq(2)]);
        assert_eq!(a.meet(&b), None);
        assert_eq!(a.meet(&Pattern::all_star(2)), None, "length mismatch");
    }

    #[test]
    fn meet_laws_on_compatible_patterns() {
        // meet is the greatest lower bound: p∧q ⪯ p, p∧q ⪯ q; idempotent;
        // commutative.
        let p = Pattern(vec![Eq(1), Star, Star, Eq(4)]);
        let q = Pattern(vec![Eq(1), Eq(2), Star, Star]);
        let m = p.meet(&q).unwrap();
        assert!(m.specializes(&p));
        assert!(m.specializes(&q));
        assert_eq!(p.meet(&q), q.meet(&p));
        assert_eq!(p.meet(&p), Some(p.clone()));
        assert_eq!(m, Pattern(vec![Eq(1), Eq(2), Star, Eq(4)]));
    }

    #[test]
    fn prefix_matching() {
        let p = Pattern(vec![Star, Eq(7)]);
        assert!(p.matches_prefix(&[100, 7]));
        assert!(!p.matches_prefix(&[100, 8]));
        assert!(!p.matches_prefix(&[100]));
        assert!(Pattern::empty().matches_prefix(&[]));
    }

    #[test]
    fn last_eq_position_and_counts() {
        assert_eq!(Pattern::all_star(3).last_eq_position(), 0);
        assert_eq!(Pattern(vec![Star, Eq(5), Star]).last_eq_position(), 2);
        assert_eq!(Pattern::all_eq(&[1, 2]).last_eq_position(), 2);
        assert_eq!(Pattern(vec![Star, Eq(5), Star]).eq_count(), 1);
        assert_eq!(Pattern::all_eq(&[1, 2, 3]).eq_count(), 3);
    }

    #[test]
    fn display_formatting() {
        let p = Pattern(vec![Eq(2), Star, Eq(7)]);
        assert_eq!(p.to_string(), "⟨2,*,7⟩");
        assert_eq!(Pattern::empty().to_string(), "⟨⟩");
    }

    #[test]
    fn specialization_is_a_partial_order() {
        let pats = [
            Pattern(vec![Star, Star]),
            Pattern(vec![Eq(1), Star]),
            Pattern(vec![Star, Eq(2)]),
            Pattern(vec![Eq(1), Eq(2)]),
        ];
        // Reflexive.
        for p in &pats {
            assert!(p.specializes(p));
        }
        // Antisymmetric.
        for p in &pats {
            for q in &pats {
                if p.specializes(q) && q.specializes(p) {
                    assert_eq!(p, q);
                }
            }
        }
        // Transitive.
        for p in &pats {
            for q in &pats {
                for r in &pats {
                    if p.specializes(q) && q.specializes(r) {
                        assert!(p.specializes(r));
                    }
                }
            }
        }
        // ⟨1,2⟩ is the bottom of this filter.
        let bottom = &pats[3];
        for p in &pats {
            assert!(bottom.specializes(p));
        }
    }
}
