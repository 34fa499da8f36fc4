//! Three-valued logic used across simulation and test generation.

use std::fmt;
use std::ops::Not;

/// A three-valued logic value: `0`, `1` or unknown (`X`).
///
/// `X` is absorbing for every operation that cannot be decided by a
/// controlling value; e.g. `AND(0, X) = 0` but `AND(1, X) = X`.
///
/// # Example
///
/// ```
/// use scap_netlist::Logic;
///
/// assert_eq!(Logic::Zero & Logic::X, Logic::Zero);
/// assert_eq!(Logic::One & Logic::X, Logic::X);
/// assert_eq!(!Logic::X, Logic::X);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Logic {
    /// Logic low.
    Zero,
    /// Logic high.
    One,
    /// Unknown / don't-care.
    #[default]
    X,
}

impl Logic {
    /// Converts a `bool` into `Zero` / `One`.
    #[inline]
    pub const fn from_bool(b: bool) -> Self {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Returns `Some(bool)` for a known value, `None` for `X`.
    #[inline]
    pub const fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X => None,
        }
    }

    /// Returns `true` when the value is `0` or `1`.
    #[inline]
    pub const fn is_known(self) -> bool {
        !matches!(self, Logic::X)
    }

    /// Three-valued AND.
    #[inline]
    pub const fn and(self, rhs: Self) -> Self {
        match (self, rhs) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Three-valued OR.
    #[inline]
    pub const fn or(self, rhs: Self) -> Self {
        match (self, rhs) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Three-valued XOR.
    #[inline]
    pub const fn xor(self, rhs: Self) -> Self {
        match (self, rhs) {
            (Logic::X, _) | (_, Logic::X) => Logic::X,
            (a, b) => Logic::from_bool(!matches!(
                (a, b),
                (Logic::Zero, Logic::Zero) | (Logic::One, Logic::One)
            )),
        }
    }

    /// Three-valued inversion.
    #[inline]
    pub const fn invert(self) -> Self {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        }
    }
}

impl From<bool> for Logic {
    #[inline]
    fn from(b: bool) -> Self {
        Logic::from_bool(b)
    }
}

impl Not for Logic {
    type Output = Logic;
    #[inline]
    fn not(self) -> Logic {
        self.invert()
    }
}

impl std::ops::BitAnd for Logic {
    type Output = Logic;
    #[inline]
    fn bitand(self, rhs: Self) -> Logic {
        self.and(rhs)
    }
}

impl std::ops::BitOr for Logic {
    type Output = Logic;
    #[inline]
    fn bitor(self, rhs: Self) -> Logic {
        self.or(rhs)
    }
}

impl std::ops::BitXor for Logic {
    type Output = Logic;
    #[inline]
    fn bitxor(self, rhs: Self) -> Logic {
        self.xor(rhs)
    }
}

impl fmt::Debug for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'X',
        };
        write!(f, "{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];

    #[test]
    fn and_truth_table() {
        assert_eq!(Logic::One & Logic::One, Logic::One);
        assert_eq!(Logic::One & Logic::Zero, Logic::Zero);
        assert_eq!(Logic::X & Logic::Zero, Logic::Zero);
        assert_eq!(Logic::X & Logic::One, Logic::X);
        assert_eq!(Logic::X & Logic::X, Logic::X);
    }

    #[test]
    fn or_truth_table() {
        assert_eq!(Logic::Zero | Logic::Zero, Logic::Zero);
        assert_eq!(Logic::Zero | Logic::One, Logic::One);
        assert_eq!(Logic::X | Logic::One, Logic::One);
        assert_eq!(Logic::X | Logic::Zero, Logic::X);
    }

    #[test]
    fn xor_is_unknown_with_any_x() {
        for v in ALL {
            assert_eq!(v ^ Logic::X, Logic::X);
            assert_eq!(Logic::X ^ v, Logic::X);
        }
        assert_eq!(Logic::One ^ Logic::One, Logic::Zero);
        assert_eq!(Logic::One ^ Logic::Zero, Logic::One);
    }

    #[test]
    fn de_morgan_holds_for_known_values() {
        for a in [Logic::Zero, Logic::One] {
            for b in [Logic::Zero, Logic::One] {
                assert_eq!(!(a & b), !a | !b);
                assert_eq!(!(a | b), !a & !b);
            }
        }
    }

    #[test]
    fn bool_round_trip() {
        assert_eq!(Logic::from(true).to_bool(), Some(true));
        assert_eq!(Logic::from(false).to_bool(), Some(false));
        assert_eq!(Logic::X.to_bool(), None);
        assert!(!Logic::X.is_known());
        assert!(Logic::One.is_known());
    }

    #[test]
    fn double_negation() {
        for v in ALL {
            assert_eq!(!!v, v);
        }
    }
}
