//! Lock modes, the compatibility matrix and the conversion lattice.
//!
//! The six modes are the classic multi-granularity set (Gray et al.)
//! that DB2 uses for tables and rows:
//!
//! * `IS` / `IX` — intention share / intention exclusive (table level,
//!   announcing row-level S / X locks underneath),
//! * `S` — share, `U` — update (share that intends to convert to X;
//!   compatible with S but not with another U),
//! * `SIX` — share + intention exclusive,
//! * `X` — exclusive.
#![warn(clippy::missing_inline_in_public_items)]

use std::fmt;

/// A lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockMode {
    /// Intention share.
    IS,
    /// Intention exclusive.
    IX,
    /// Share.
    S,
    /// Share with intention exclusive.
    SIX,
    /// Update: read now, intending to convert to `X`.
    U,
    /// Exclusive.
    X,
}

use LockMode::*;

/// All modes, in lattice-friendly order.
pub const ALL_MODES: [LockMode; 6] = [IS, IX, S, SIX, U, X];

/// The join over the conversion lattice:
///
/// ```text
///        X
///      / | \
///   SIX  U  |
///   /  \ |  |
///  S    \|  |
///  | \   \  |
///  |  \  |  |
///  IS  IX --+   (IS below everything)
/// ```
const fn join(a: LockMode, b: LockMode) -> LockMode {
    match (a, b) {
        (IS, m) | (m, IS) => m,
        (IX, IX) => IX,
        (IX, S) | (S, IX) => SIX,
        (IX, SIX) | (SIX, IX) => SIX,
        (IX, U) | (U, IX) => X,
        (IX, X) | (X, IX) => X,
        (S, S) => S,
        (S, SIX) | (SIX, S) => SIX,
        (S, U) | (U, S) => U,
        (S, X) | (X, S) => X,
        (SIX, SIX) => SIX,
        (SIX, U) | (U, SIX) => X,
        (SIX, X) | (X, SIX) => X,
        (U, U) => U,
        (U, X) | (X, U) => X,
        (X, X) => X,
    }
}

/// [`join`] for every pair, indexed like [`ALL_MODES`]: worked out at
/// compile time, so `supremum` and `covers`, inlined on every grant,
/// are one load.
const JOIN: [[LockMode; 6]; 6] = {
    let mut table = [[IS; 6]; 6];
    let mut a = 0;
    while a < 6 {
        let mut b = 0;
        while b < 6 {
            table[a][b] = join(ALL_MODES[a], ALL_MODES[b]);
            b += 1;
        }
        a += 1;
    }
    table
};

impl LockMode {
    /// Compatibility of a *requested* mode with a *held* mode.
    ///
    /// The matrix is the standard one; note the asymmetric-looking `U`
    /// row is modelled symmetrically (U ↔ S compatible, U ↔ U not),
    /// which matches DB2's documented behaviour for readers vs updaters.
    #[inline]
    pub fn compatible_with(self, held: LockMode) -> bool {
        const T: bool = true;
        const F: bool = false;
        // rows: requested; cols: held — order IS, IX, S, SIX, U, X.
        const MATRIX: [[bool; 6]; 6] = [
            // held:   IS IX  S SIX  U  X
            /* IS  */ [T, T, T, T, T, F],
            /* IX  */ [T, T, F, F, F, F],
            /* S   */ [T, F, T, F, T, F],
            /* SIX */ [T, F, F, F, F, F],
            /* U   */ [T, F, T, F, F, F],
            /* X   */ [F, F, F, F, F, F],
        ];
        MATRIX[self.index()][held.index()]
    }

    /// The least mode covering both `self` and `other` (conversion
    /// target when a holder re-requests in a different mode).
    #[inline]
    pub fn supremum(self, other: LockMode) -> LockMode {
        JOIN[self.index()][other.index()]
    }

    /// True when `self` grants at least the access of `other` (i.e. a
    /// holder of `self` need not convert to get `other`).
    #[inline]
    pub fn covers(self, other: LockMode) -> bool {
        self.supremum(other) == self
    }

    /// The table-level intent mode implied by taking this mode on a row.
    #[inline]
    pub fn intent_for_row_mode(self) -> LockMode {
        match self {
            S | IS => IS,
            U | X | IX | SIX => IX,
        }
    }

    /// Escalating rows held in this mode needs this table mode.
    #[inline]
    pub fn escalation_table_mode(self) -> LockMode {
        match self {
            S | IS => S,
            U | X | IX | SIX => X,
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            IS => 0,
            IX => 1,
            S => 2,
            SIX => 3,
            U => 4,
            X => 5,
        }
    }
}

impl fmt::Display for LockMode {
    #[inline(never)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IS => "IS",
            IX => "IX",
            S => "S",
            SIX => "SIX",
            U => "U",
            X => "X",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatibility_matrix_spot_checks() {
        assert!(S.compatible_with(S));
        assert!(S.compatible_with(IS));
        assert!(!S.compatible_with(IX));
        assert!(!S.compatible_with(X));
        assert!(IX.compatible_with(IX));
        assert!(IX.compatible_with(IS));
        assert!(!IX.compatible_with(S));
        assert!(!X.compatible_with(IS));
        assert!(!IS.compatible_with(X));
        assert!(SIX.compatible_with(IS));
        assert!(!SIX.compatible_with(IX));
        assert!(U.compatible_with(S));
        assert!(S.compatible_with(U));
        assert!(!U.compatible_with(U));
        assert!(!U.compatible_with(X));
    }

    #[test]
    fn compatibility_is_symmetric() {
        for a in ALL_MODES {
            for b in ALL_MODES {
                assert_eq!(
                    a.compatible_with(b),
                    b.compatible_with(a),
                    "asymmetry at {a}/{b}"
                );
            }
        }
    }

    #[test]
    fn x_is_incompatible_with_everything() {
        for m in ALL_MODES {
            assert!(!X.compatible_with(m));
            assert!(!m.compatible_with(X));
        }
    }

    #[test]
    fn is_is_compatible_with_all_but_x() {
        for m in ALL_MODES {
            assert_eq!(IS.compatible_with(m), m != X);
        }
    }

    #[test]
    fn supremum_is_commutative_idempotent_and_absorbs() {
        for a in ALL_MODES {
            assert_eq!(a.supremum(a), a);
            for b in ALL_MODES {
                assert_eq!(a.supremum(b), b.supremum(a));
                // The join is an upper bound: it covers both inputs.
                let j = a.supremum(b);
                assert!(j.covers(a), "{j} !>= {a}");
                assert!(j.covers(b), "{j} !>= {b}");
            }
        }
    }

    #[test]
    fn supremum_is_associative() {
        for a in ALL_MODES {
            for b in ALL_MODES {
                for c in ALL_MODES {
                    assert_eq!(
                        a.supremum(b).supremum(c),
                        a.supremum(b.supremum(c)),
                        "non-associative at {a},{b},{c}"
                    );
                }
            }
        }
    }

    #[test]
    fn classic_conversions() {
        assert_eq!(IX.supremum(S), SIX);
        assert_eq!(IS.supremum(X), X);
        assert_eq!(S.supremum(U), U);
        assert_eq!(U.supremum(IX), X);
        assert_eq!(IS.supremum(IX), IX);
    }

    #[test]
    fn covers_relation() {
        assert!(X.covers(S));
        assert!(X.covers(IS));
        assert!(SIX.covers(S));
        assert!(SIX.covers(IX));
        assert!(!S.covers(IX));
        assert!(U.covers(S));
        assert!(!S.covers(U));
    }

    #[test]
    fn a_join_stays_compatible_or_not_sensibly() {
        // Joining with a compatible mode never *gains* compatibility
        // with a third mode it lacked: monotonicity of conflicts.
        for a in ALL_MODES {
            for b in ALL_MODES {
                let j = a.supremum(b);
                for other in ALL_MODES {
                    if !a.compatible_with(other) {
                        assert!(
                            !j.compatible_with(other),
                            "join {j} of {a},{b} became compatible with {other}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn intent_mapping() {
        assert_eq!(S.intent_for_row_mode(), IS);
        assert_eq!(X.intent_for_row_mode(), IX);
        assert_eq!(U.intent_for_row_mode(), IX);
        assert_eq!(S.escalation_table_mode(), S);
        assert_eq!(X.escalation_table_mode(), X);
        assert_eq!(U.escalation_table_mode(), X);
    }

    #[test]
    fn display_names() {
        assert_eq!(SIX.to_string(), "SIX");
        assert_eq!(IS.to_string(), "IS");
    }
}
