//! Certificates (Section 2.2, Appendix B).
//!
//! An *argument* is a set of symbolic comparisons `R[x] θ S[y]` between
//! index-tuple variables (Definition 2.2); a *certificate* is an argument
//! that pins down the witnesses of the join across all instances that
//! satisfy it (Definition 2.3). Deciding whether an argument is a
//! certificate is semantic, so what the library computes is
//! [`canonical_certificate_size`] — the Proposition 2.6 construction
//! bounding the optimal certificate by `r · N` comparisons, evaluated
//! exactly on an instance (per attribute: equality chains within equal
//! values plus one inequality chain across distinct values). The unit
//! tests evaluate arguments against concrete databases to replay the
//! paper's Examples B.1, B.2 and 2.4.
//!
//! The *measured* certificate proxy used in the paper's experiments
//! (Figure 2) is the `FindGap` count reported in
//! [`minesweeper_storage::ExecStats`].

use minesweeper_storage::{Database, Val};
use std::collections::BTreeMap;

use crate::query::{Query, QueryError};

/// The Proposition 2.6 canonical certificate size for an instance: for each
/// GAO attribute, every trie node carrying a value of that attribute is a
/// variable; equal values are chained with equalities and distinct values
/// with inequalities, totalling (#variables − 1) comparisons per non-empty
/// attribute column, summed over atoms. This is an upper bound on the
/// optimal certificate size `|C| ≤ r·N`.
pub fn canonical_certificate_size(db: &Database, query: &Query) -> Result<u64, QueryError> {
    query.validate(db)?;
    // Attribute → multiset of values across all (atom, level) pairs.
    // Atoms sharing a physical relation still contribute one variable set
    // per atom occurrence (atoms(Q) is a multiset of indexed relations).
    let mut per_attr: BTreeMap<usize, u64> = BTreeMap::new(); // attr → #variables
    let mut distinct: BTreeMap<usize, std::collections::BTreeSet<Val>> = BTreeMap::new();
    for atom in &query.atoms {
        let rel = db.relation(atom.rel);
        if rel.is_empty() {
            continue;
        }
        for (level, &attr) in atom.attrs.iter().enumerate() {
            let col = rel.level_column(level);
            *per_attr.entry(attr).or_default() += col.len() as u64;
            distinct
                .entry(attr)
                .or_default()
                .extend(col.iter().copied());
        }
    }
    // Per attribute: (#variables − #distinct) equalities + (#distinct − 1)
    // inequalities = #variables − 1.
    let mut total = 0u64;
    for (attr, vars) in per_attr {
        let d = distinct[&attr].len() as u64;
        debug_assert!(d >= 1);
        total += (vars - d) + (d - 1);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minesweeper_storage::{builder, NodeId, RelId};

    /// A variable `R[x]`: a relation and a (1-based) index tuple.
    struct VarRef {
        rel: RelId,
        index: Vec<usize>,
    }

    impl VarRef {
        fn new(rel: RelId, index: &[usize]) -> Self {
            VarRef {
                rel,
                index: index.to_vec(),
            }
        }

        /// Walks the trie by coordinates. `None` when a coordinate is out
        /// of range (the variable does not exist in this instance — cf.
        /// Example 2.4, where `I(N+1)` defines variables `I(N)` does not).
        fn resolve(&self, db: &Database) -> Option<Val> {
            let rel = db.relation(self.rel);
            if self.index.is_empty() || self.index.len() > rel.arity() {
                return None;
            }
            let mut node: NodeId = rel.root();
            for &coord in &self.index {
                if coord < 1 || coord > rel.child_count(node) {
                    return None;
                }
                node = rel.child(node, coord);
            }
            Some(rel.value(node))
        }
    }

    /// One symbolic comparison of the form (3): `lhs θ rhs`.
    enum Comparison {
        Lt(VarRef, VarRef),
        Eq(VarRef, VarRef),
        Gt(VarRef, VarRef),
    }

    impl Comparison {
        fn holds(&self, db: &Database) -> Option<bool> {
            let (l, r, f): (&VarRef, &VarRef, fn(Val, Val) -> bool) = match self {
                Comparison::Lt(l, r) => (l, r, |a, b| a < b),
                Comparison::Eq(l, r) => (l, r, |a, b| a == b),
                Comparison::Gt(l, r) => (l, r, |a, b| a > b),
            };
            Some(f(l.resolve(db)?, r.resolve(db)?))
        }
    }

    /// A set of comparisons (Definition 2.2).
    struct Argument(Vec<Comparison>);

    impl Argument {
        fn size(&self) -> usize {
            self.0.len()
        }

        /// Does the instance satisfy every comparison? `None` when some
        /// comparison refers to a variable the instance does not define.
        fn satisfied_by(&self, db: &Database) -> Option<bool> {
            let mut all = true;
            for c in &self.0 {
                all &= c.holds(db)?;
            }
            Some(all)
        }
    }

    /// Example B.1: R = [N], S = {(N+1, i+N)}; the argument
    /// {R[N] < S\[1\]} is satisfied and certifies emptiness.
    #[test]
    fn example_b1_argument() {
        let n = 10usize;
        let mut db = Database::new();
        let r = db.add(builder::unary("R", 1..=n as Val)).unwrap();
        let s = db
            .add(builder::binary(
                "S",
                (1..=n as Val).map(|i| (n as Val + 1, i + n as Val)),
            ))
            .unwrap();
        let arg = Argument(vec![Comparison::Lt(
            VarRef::new(r, &[n]),
            VarRef::new(s, &[1]),
        )]);
        assert_eq!(arg.satisfied_by(&db), Some(true));
        assert_eq!(arg.size(), 1);
    }

    /// Example B.2: the argument {R[N] = S\[1\]} is satisfied when
    /// S = {(N, 10i)}.
    #[test]
    fn example_b2_argument() {
        let n = 10usize;
        let mut db = Database::new();
        let r = db.add(builder::unary("R", 1..=n as Val)).unwrap();
        let s = db
            .add(builder::binary(
                "S",
                (1..=n as Val).map(|i| (n as Val, 10 * i)),
            ))
            .unwrap();
        let arg = Argument(vec![Comparison::Eq(
            VarRef::new(r, &[n]),
            VarRef::new(s, &[1]),
        )]);
        assert_eq!(arg.satisfied_by(&db), Some(true));
    }

    /// Example 2.4's K instance fails the certificate {R\[1\]=T\[1\], R\[2\]=T\[2\]}.
    #[test]
    fn example_2_4_violation() {
        let n: Val = 5;
        let mut db = Database::new();
        let r = db.add(builder::unary("R", 1..=n)).unwrap();
        // K: T = {(1, 2i)} ∪ {(3, 3i)} — T[2] = 3 ≠ R[2] = 2.
        let t = db
            .add(builder::binary(
                "T",
                (1..=n)
                    .map(|i| (1, 2 * i))
                    .chain((1..=n).map(|i| (3, 3 * i))),
            ))
            .unwrap();
        let arg = Argument(vec![
            Comparison::Eq(VarRef::new(r, &[1]), VarRef::new(t, &[1])),
            Comparison::Eq(VarRef::new(r, &[2]), VarRef::new(t, &[2])),
        ]);
        assert_eq!(arg.satisfied_by(&db), Some(false));
    }

    #[test]
    fn unresolved_variables_return_none() {
        let mut db = Database::new();
        let r = db.add(builder::unary("R", [1, 2])).unwrap();
        assert_eq!(VarRef::new(r, &[3]).resolve(&db), None);
        assert_eq!(VarRef::new(r, &[0]).resolve(&db), None);
        let arg = Argument(vec![Comparison::Gt(
            VarRef::new(r, &[3]),
            VarRef::new(r, &[1]),
        )]);
        assert_eq!(arg.satisfied_by(&db), None);
    }

    #[test]
    fn resolve_multi_level() {
        let mut db = Database::new();
        let s = db
            .add(builder::binary("S", [(1, 10), (1, 20), (5, 7)]))
            .unwrap();
        assert_eq!(VarRef::new(s, &[1]).resolve(&db), Some(1));
        assert_eq!(VarRef::new(s, &[1, 2]).resolve(&db), Some(20));
        assert_eq!(VarRef::new(s, &[2, 1]).resolve(&db), Some(7));
        assert_eq!(VarRef::new(s, &[2, 2]).resolve(&db), None);
    }

    #[test]
    fn canonical_size_is_linear_in_input() {
        // Bow-tie R(X) ⋈ S(X,Y) ⋈ T(Y): per Prop 2.6 the canonical
        // certificate has (#vars − 1) comparisons per attribute.
        let mut db = Database::new();
        let r = db.add(builder::unary("R", [1, 2, 3])).unwrap();
        let s = db.add(builder::binary("S", [(1, 4), (2, 5)])).unwrap();
        let t = db.add(builder::unary("T", [4, 5])).unwrap();
        let q = Query::new(2).atom(r, &[0]).atom(s, &[0, 1]).atom(t, &[1]);
        // X variables: R has 3, S level-0 has 2 → 5 vars, 3 distinct values
        //   → 2 equalities + 2 inequalities = 4.
        // Y variables: S level-1 has 2, T has 2 → 4 vars, 2 distinct → 2
        //   equalities + 1 inequality = 3.
        assert_eq!(canonical_certificate_size(&db, &q).unwrap(), 7);
    }

    #[test]
    fn canonical_size_skips_empty_relations() {
        let mut db = Database::new();
        let r = db.add(builder::unary("R", [])).unwrap();
        let s = db.add(builder::unary("S", [1, 2])).unwrap();
        let q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
        assert_eq!(canonical_certificate_size(&db, &q).unwrap(), 1);
    }
}
