//! A 180 nm-class standard-cell library model.
//!
//! The numbers here stand in for the vendor library the paper uses
//! (Cadence GSCLib 0.18 µm, 1.8 V nominal). Downstream crates only consume
//! the *relationships* (pin capacitance, drive resistance, intrinsic
//! delay), so the absolute values need only be plausible for the node.

use crate::cell::CellKind;

/// Electrical and physical parameters of one combinational cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellParams {
    /// Capacitance of each input pin, in femtofarads.
    pub input_cap_ff: f64,
    /// Self-capacitance at the output (drain/parasitic), in femtofarads.
    pub output_cap_ff: f64,
    /// Intrinsic (unloaded) rise delay, in picoseconds.
    pub rise_delay_ps: f64,
    /// Intrinsic (unloaded) fall delay, in picoseconds.
    pub fall_delay_ps: f64,
    /// Equivalent drive resistance, in kΩ. Delay grows by
    /// `drive_res_kohm × C_load_ff` picoseconds (kΩ·fF = ps).
    pub drive_res_kohm: f64,
    /// Cell area in µm².
    pub area_um2: f64,
}

/// Parameters of the scan flip-flop (SDFFX1-class cell).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlopParams {
    /// D-pin (and SI-pin) capacitance, fF.
    pub input_cap_ff: f64,
    /// Clock pin capacitance, fF.
    pub clock_cap_ff: f64,
    /// Output self-capacitance, fF.
    pub output_cap_ff: f64,
    /// Clock-to-Q delay, ps.
    pub clk_to_q_ps: f64,
    /// Setup time, ps.
    pub setup_ps: f64,
    /// Drive resistance of the Q output, kΩ.
    pub drive_res_kohm: f64,
    /// Cell area, µm².
    pub area_um2: f64,
}

/// A technology library: per-cell parameters plus global constants.
///
/// # Example
///
/// ```
/// use scap_netlist::{CellKind, Library};
///
/// let lib = Library::gsclib180();
/// assert_eq!(lib.vdd, 1.8);
/// assert!(lib.cell(CellKind::Nand2).input_cap_ff > 0.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Library {
    /// Library name.
    pub name: String,
    /// Nominal supply voltage, volts.
    pub vdd: f64,
    /// Wire capacitance per micron of estimated length, fF/µm.
    pub wire_cap_ff_per_um: f64,
    /// Wire resistance per micron, Ω/µm (used by the grid model).
    pub wire_res_ohm_per_um: f64,
    /// Maximum load (wire + pins) a driver sees for *delay* purposes, fF.
    /// Long and high-fanout nets are assumed buffered by the physical-
    /// design flow, which bounds the RC any single stage drives; the full
    /// wire + pin charge still counts toward switching power.
    pub wire_cap_delay_limit_ff: f64,
    /// Non-linear delay-scaling factor `k_volt` from the vendor library:
    /// a ΔV volt supply droop scales cell delay by `1 + k_volt·ΔV`.
    /// The paper uses 0.9 (5 % voltage decrease → 9 % delay increase).
    pub k_volt_per_volt: f64,
    cells: Vec<CellParams>,
    flop: FlopParams,
}

impl Library {
    /// Builds the default 180 nm / 1.8 V library used by the case study.
    pub fn gsclib180() -> Self {
        let mut cells = Vec::with_capacity(CellKind::ALL.len());
        for kind in CellKind::ALL {
            cells.push(default_params(kind));
        }
        Library {
            name: "gsclib180-model".to_owned(),
            vdd: 1.8,
            wire_cap_ff_per_um: 0.2,
            wire_res_ohm_per_um: 0.08,
            wire_cap_delay_limit_ff: 40.0,
            // Paper §3.2: k_volt = 0.9, so ΔV = 0.1 V → 9 % delay increase.
            k_volt_per_volt: 0.9,
            cells,
            flop: FlopParams {
                input_cap_ff: 4.0,
                clock_cap_ff: 3.0,
                output_cap_ff: 5.0,
                clk_to_q_ps: 320.0,
                setup_ps: 180.0,
                drive_res_kohm: 6.0,
                area_um2: 120.0,
            },
        }
    }

    /// Parameters of a combinational cell.
    #[inline]
    pub fn cell(&self, kind: CellKind) -> &CellParams {
        &self.cells[kind as usize]
    }

    /// Parameters of the scan flip-flop cell.
    #[inline]
    pub fn flop(&self) -> &FlopParams {
        &self.flop
    }

    /// Unloaded propagation delay of a cell (max of rise/fall), ps.
    #[inline]
    pub fn intrinsic_delay_ps(&self, kind: CellKind) -> f64 {
        let p = self.cell(kind);
        p.rise_delay_ps.max(p.fall_delay_ps)
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::gsclib180()
    }
}

/// Plausible 180 nm X1-drive numbers; delays in the 60–250 ps range,
/// input caps of a few fF, drive resistances of a few kΩ.
fn default_params(kind: CellKind) -> CellParams {
    let (rise, fall, cin, res, area) = match kind {
        CellKind::Buf => (95.0, 90.0, 3.2, 4.0, 35.0),
        CellKind::Inv => (55.0, 45.0, 3.5, 5.0, 20.0),
        CellKind::And2 => (140.0, 130.0, 3.6, 5.5, 45.0),
        CellKind::And3 => (165.0, 155.0, 3.6, 5.8, 55.0),
        CellKind::Nand2 => (75.0, 60.0, 4.0, 5.2, 30.0),
        CellKind::Nand3 => (100.0, 85.0, 4.4, 5.6, 40.0),
        CellKind::Or2 => (150.0, 140.0, 3.6, 5.5, 45.0),
        CellKind::Or3 => (180.0, 165.0, 3.6, 5.9, 55.0),
        CellKind::Nor2 => (95.0, 65.0, 4.1, 5.4, 30.0),
        CellKind::Nor3 => (135.0, 80.0, 4.5, 6.0, 40.0),
        CellKind::Xor2 => (190.0, 185.0, 5.2, 6.2, 60.0),
        CellKind::Xnor2 => (195.0, 190.0, 5.2, 6.2, 60.0),
        CellKind::Mux2 => (170.0, 160.0, 4.8, 6.0, 65.0),
        CellKind::Aoi22 => (150.0, 110.0, 4.6, 6.4, 50.0),
        CellKind::Oai22 => (155.0, 115.0, 4.6, 6.4, 50.0),
    };
    CellParams {
        input_cap_ff: cin,
        output_cap_ff: cin * 0.8,
        rise_delay_ps: rise,
        fall_delay_ps: fall,
        drive_res_kohm: res,
        area_um2: area,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_positive_params() {
        let lib = Library::gsclib180();
        for kind in CellKind::ALL {
            let p = lib.cell(kind);
            assert!(p.input_cap_ff > 0.0, "{kind:?}");
            assert!(p.rise_delay_ps > 0.0, "{kind:?}");
            assert!(p.fall_delay_ps > 0.0, "{kind:?}");
            assert!(p.drive_res_kohm > 0.0, "{kind:?}");
            assert!(p.area_um2 > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn operating_point_matches_paper() {
        let lib = Library::default();
        assert_eq!(lib.vdd, 1.8);
        // k_volt: 0.1 V droop → 9 % delay increase.
        let scale = 1.0 + lib.k_volt_per_volt * 0.1;
        assert!((scale - 1.09).abs() < 1e-9);
    }

    #[test]
    fn flop_params_are_plausible() {
        let lib = Library::gsclib180();
        let f = lib.flop();
        assert!(f.clk_to_q_ps > 0.0 && f.setup_ps > 0.0);
        assert!(f.area_um2 > lib.cell(CellKind::Inv).area_um2);
    }

    #[test]
    fn complex_cells_are_slower_than_inverter() {
        let lib = Library::gsclib180();
        assert!(lib.intrinsic_delay_ps(CellKind::Xor2) > lib.intrinsic_delay_ps(CellKind::Inv));
    }
}
