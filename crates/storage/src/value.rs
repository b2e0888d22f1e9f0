//! Value and tuple types.
//!
//! The paper assumes all attribute domains are ℕ. We model domain values as
//! `i64` so that the sentinel probe value `−1` (used by `getProbePoint` when
//! no constraint applies yet, cf. Appendix D.1) and the `±∞` endpoints of gap
//! constraints have natural representations. Workload generators only emit
//! values in `0..=MAX_DOMAIN_VALUE`.

/// A domain value. The paper's domains are ℕ; we use a signed 64-bit integer
/// so `−1` (the initial probe sentinel) and the infinity sentinels fit.
pub type Val = i64;

/// Sentinel for `−∞` (the value of an index tuple with coordinate `0`,
/// convention (1) of the paper).
pub const NEG_INF: Val = Val::MIN;

/// Sentinel for `+∞` (the value of an index tuple with coordinate `len+1`,
/// convention (2) of the paper).
pub const POS_INF: Val = Val::MAX;

/// Largest domain value workload generators are allowed to produce. Keeping
/// a gap below [`POS_INF`] lets interval arithmetic use plain `+1`/`−1`
/// without overflow checks on the hot path.
pub const MAX_DOMAIN_VALUE: Val = Val::MAX / 4;

/// A tuple of domain values. Tuples are always materialized in the
/// relation's own attribute order (which is consistent with the GAO).
pub type Tuple = Vec<Val>;

/// Formats a value, rendering the sentinels as `-inf` / `+inf`.
pub fn fmt_val(v: Val) -> String {
    if v == NEG_INF {
        "-inf".to_string()
    } else if v == POS_INF {
        "+inf".to_string()
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_order_around_domain() {
        // Evaluated through variables so the relationships are checked as
        // data, not constant-folded assertions.
        let (lo, hi, max_dom) = (NEG_INF, POS_INF, MAX_DOMAIN_VALUE);
        assert!(lo < -1);
        assert!(max_dom < hi);
        assert!(lo < hi);
    }

    #[test]
    fn sentinel_formatting() {
        assert_eq!(fmt_val(NEG_INF), "-inf");
        assert_eq!(fmt_val(POS_INF), "+inf");
        assert_eq!(fmt_val(42), "42");
        assert_eq!(fmt_val(-1), "-1");
    }
}
