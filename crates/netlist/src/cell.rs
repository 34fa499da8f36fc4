//! Combinational cell kinds and their evaluation semantics.

use crate::Logic;
use std::fmt;

/// The function of a combinational standard cell.
///
/// Sequential cells (flip-flops) are *not* represented here; they are
/// first-class [`Flop`](crate::Flop) instances on the netlist so that scan
/// and clocking can be modeled explicitly.
///
/// # Example
///
/// ```
/// use scap_netlist::{CellKind, Logic};
///
/// assert_eq!(CellKind::Mux2.eval(&[Logic::One, Logic::Zero, Logic::One]), Logic::One);
/// assert_eq!(CellKind::Nor2.num_inputs(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CellKind {
    Buf,
    Inv,
    And2,
    And3,
    Nand2,
    Nand3,
    Or2,
    Or3,
    Nor2,
    Nor3,
    Xor2,
    Xnor2,
    /// 2:1 multiplexer; inputs are `[sel, a, b]`, output is `a` when
    /// `sel = 0`, `b` when `sel = 1`.
    Mux2,
    /// AND-OR-invert (2-2): `!((i0 & i1) | (i2 & i3))`.
    Aoi22,
    /// OR-AND-invert (2-2): `!((i0 | i1) & (i2 | i3))`.
    Oai22,
}

impl CellKind {
    /// Every cell kind, in declaration order, so `kind as usize`
    /// indexes this array.
    pub const ALL: [CellKind; 15] = [
        CellKind::Buf,
        CellKind::Inv,
        CellKind::And2,
        CellKind::And3,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Or2,
        CellKind::Or3,
        CellKind::Nor2,
        CellKind::Nor3,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Aoi22,
        CellKind::Oai22,
    ];

    /// Number of input pins of the cell.
    #[inline]
    pub const fn num_inputs(self) -> usize {
        match self {
            CellKind::Buf | CellKind::Inv => 1,
            CellKind::And2
            | CellKind::Nand2
            | CellKind::Or2
            | CellKind::Nor2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::And3 | CellKind::Nand3 | CellKind::Or3 | CellKind::Nor3 | CellKind::Mux2 => 3,
            CellKind::Aoi22 | CellKind::Oai22 => 4,
        }
    }

    /// Returns `true` when the cell output is the complement of its
    /// underlying monotone function (INV, NAND, NOR, XNOR, AOI, OAI).
    #[inline]
    pub const fn is_inverting(self) -> bool {
        matches!(
            self,
            CellKind::Inv
                | CellKind::Nand2
                | CellKind::Nand3
                | CellKind::Nor2
                | CellKind::Nor3
                | CellKind::Xnor2
                | CellKind::Aoi22
                | CellKind::Oai22
        )
    }

    /// Short library name of the cell (GSCLib-style).
    pub const fn name(self) -> &'static str {
        match self {
            CellKind::Buf => "BUFX2",
            CellKind::Inv => "INVX1",
            CellKind::And2 => "AND2X1",
            CellKind::And3 => "AND3X1",
            CellKind::Nand2 => "NAND2X1",
            CellKind::Nand3 => "NAND3X1",
            CellKind::Or2 => "OR2X1",
            CellKind::Or3 => "OR3X1",
            CellKind::Nor2 => "NOR2X1",
            CellKind::Nor3 => "NOR3X1",
            CellKind::Xor2 => "XOR2X1",
            CellKind::Xnor2 => "XNOR2X1",
            CellKind::Mux2 => "MX2X1",
            CellKind::Aoi22 => "AOI22X1",
            CellKind::Oai22 => "OAI22X1",
        }
    }

    /// Evaluates the cell under three-valued logic.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`CellKind::num_inputs`].
    pub fn eval(self, inputs: &[Logic]) -> Logic {
        assert_eq!(
            inputs.len(),
            self.num_inputs(),
            "{self:?} expects {} inputs, got {}",
            self.num_inputs(),
            inputs.len()
        );
        match self {
            CellKind::Buf => inputs[0],
            CellKind::Inv => !inputs[0],
            CellKind::And2 | CellKind::And3 => inputs.iter().fold(Logic::One, |a, &b| a & b),
            CellKind::Nand2 | CellKind::Nand3 => !inputs.iter().fold(Logic::One, |a, &b| a & b),
            CellKind::Or2 | CellKind::Or3 => inputs.iter().fold(Logic::Zero, |a, &b| a | b),
            CellKind::Nor2 | CellKind::Nor3 => !inputs.iter().fold(Logic::Zero, |a, &b| a | b),
            CellKind::Xor2 => inputs[0] ^ inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            CellKind::Mux2 => match inputs[0] {
                Logic::Zero => inputs[1],
                Logic::One => inputs[2],
                Logic::X => {
                    // Both data inputs equal and known -> the select is
                    // irrelevant.
                    if inputs[1] == inputs[2] && inputs[1].is_known() {
                        inputs[1]
                    } else {
                        Logic::X
                    }
                }
            },
            CellKind::Aoi22 => !((inputs[0] & inputs[1]) | (inputs[2] & inputs[3])),
            CellKind::Oai22 => !((inputs[0] | inputs[1]) & (inputs[2] | inputs[3])),
        }
    }

    /// Evaluates the cell on fully-specified boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`CellKind::num_inputs`].
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        match self {
            CellKind::Buf => inputs[0],
            CellKind::Inv => !inputs[0],
            CellKind::And2 | CellKind::And3 => inputs.iter().all(|&b| b),
            CellKind::Nand2 | CellKind::Nand3 => !inputs.iter().all(|&b| b),
            CellKind::Or2 | CellKind::Or3 => inputs.iter().any(|&b| b),
            CellKind::Nor2 | CellKind::Nor3 => !inputs.iter().any(|&b| b),
            CellKind::Xor2 => inputs[0] ^ inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            CellKind::Mux2 => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
            CellKind::Aoi22 => !((inputs[0] && inputs[1]) || (inputs[2] && inputs[3])),
            CellKind::Oai22 => !((inputs[0] || inputs[1]) && (inputs[2] || inputs[3])),
        }
    }

    /// Evaluates 64 patterns at once; each input is a 64-bit word carrying
    /// one pattern per bit position.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`CellKind::num_inputs`]
    /// (debug builds only; release indexes directly).
    #[inline]
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        debug_assert_eq!(inputs.len(), self.num_inputs());
        match self {
            CellKind::Buf => inputs[0],
            CellKind::Inv => !inputs[0],
            CellKind::And2 => inputs[0] & inputs[1],
            CellKind::And3 => inputs[0] & inputs[1] & inputs[2],
            CellKind::Nand2 => !(inputs[0] & inputs[1]),
            CellKind::Nand3 => !(inputs[0] & inputs[1] & inputs[2]),
            CellKind::Or2 => inputs[0] | inputs[1],
            CellKind::Or3 => inputs[0] | inputs[1] | inputs[2],
            CellKind::Nor2 => !(inputs[0] | inputs[1]),
            CellKind::Nor3 => !(inputs[0] | inputs[1] | inputs[2]),
            CellKind::Xor2 => inputs[0] ^ inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            CellKind::Mux2 => (!inputs[0] & inputs[1]) | (inputs[0] & inputs[2]),
            CellKind::Aoi22 => !((inputs[0] & inputs[1]) | (inputs[2] & inputs[3])),
            CellKind::Oai22 => !((inputs[0] | inputs[1]) & (inputs[2] | inputs[3])),
        }
    }
}

impl fmt::Debug for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively checks that `eval` on known values, `eval_bool` and
    /// `eval_word` agree for every cell kind.
    #[test]
    fn eval_variants_agree() {
        for kind in CellKind::ALL {
            let n = kind.num_inputs();
            for combo in 0u32..(1 << n) {
                let bools: Vec<bool> = (0..n).map(|i| combo >> i & 1 == 1).collect();
                let logics: Vec<Logic> = bools.iter().map(|&b| Logic::from(b)).collect();
                let words: Vec<u64> = bools.iter().map(|&b| if b { !0 } else { 0 }).collect();
                let expect = kind.eval_bool(&bools);
                assert_eq!(
                    kind.eval(&logics),
                    Logic::from(expect),
                    "{kind:?} {bools:?} eval/eval_bool mismatch"
                );
                let word = kind.eval_word(&words);
                assert_eq!(
                    word,
                    if expect { !0u64 } else { 0 },
                    "{kind:?} {bools:?} eval_word mismatch"
                );
            }
        }
    }

    #[test]
    fn x_inputs_propagate_conservatively() {
        // An unknown on a non-controlling position yields X; a controlling
        // value dominates.
        assert_eq!(CellKind::And2.eval(&[Logic::X, Logic::Zero]), Logic::Zero);
        assert_eq!(CellKind::And2.eval(&[Logic::X, Logic::One]), Logic::X);
        assert_eq!(
            CellKind::Nor3.eval(&[Logic::X, Logic::One, Logic::X]),
            Logic::Zero
        );
        assert_eq!(
            CellKind::Nand3.eval(&[Logic::Zero, Logic::X, Logic::X]),
            Logic::One
        );
    }

    #[test]
    fn mux_with_unknown_select_but_equal_data() {
        assert_eq!(
            CellKind::Mux2.eval(&[Logic::X, Logic::One, Logic::One]),
            Logic::One
        );
        assert_eq!(
            CellKind::Mux2.eval(&[Logic::X, Logic::One, Logic::Zero]),
            Logic::X
        );
    }

    #[test]
    fn inverting_classification_matches_zero_input_vector() {
        // With an all-zero input every cell's output equals its "inverting"
        // nature for AND-like cells; spot-check a few identities instead of
        // a blanket rule.
        assert!(CellKind::Nand2.is_inverting());
        assert!(!CellKind::And2.is_inverting());
        assert!(CellKind::Aoi22.is_inverting());
        assert!(!CellKind::Mux2.is_inverting());
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn eval_panics_on_arity_mismatch() {
        CellKind::Xor2.eval(&[Logic::One]);
    }

    #[test]
    fn all_is_in_declaration_order() {
        for (i, kind) in CellKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = CellKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CellKind::ALL.len());
    }
}
