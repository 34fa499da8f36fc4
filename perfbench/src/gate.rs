//! The correctness gate: digests of pinned outputs, tolerant comparison
//! of values downstream of the CG solver, and the committed references.
//!
//! Each check returns the problems it found (empty = pass), so the
//! workloads and the self-tests share one implementation.

use scap::dft::PatternSet;
use scap::power::PatternPower;
use scap::tgen::FaultStatus;
use scap_obs::json::{self, Value};

/// The CG solver stops at a relative residual of 1e-8. The error in the
/// solution is at most the residual times the grid matrix's condition
/// number, which for the 24 × 24 calibrated mesh stays below 1e3, so
/// IR drops — and the delays scaled from them — may drift by at most
/// 1e-5 relative without being wrong. Warm start or a factor-once
/// solver lands inside this band; a changed model does not.
pub const CG_REL_TOL: f64 = 1e-8 * 1e3;

/// 64-bit FNV-1a, fed incrementally.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hashes `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Hashes a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Hashes the exact bits of an `f64`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a pattern stream: every applied (filled) bit, in order.
pub fn pattern_digest(set: &PatternSet) -> String {
    let mut h = Fnv::default();
    h.u64(set.filled.len() as u64);
    for p in &set.filled {
        h.u64(p.load.len() as u64);
        for &b in &p.load {
            h.bytes(&[u8::from(b)]);
        }
        h.u64(p.pi.len() as u64);
        for &b in &p.pi {
            h.bytes(&[u8::from(b)]);
        }
    }
    h.hex()
}

/// Digest of a SCAP series: the exact bits of every window, energy and
/// toggle count, per block and for the chip.
pub fn power_digest(profile: &[PatternPower]) -> String {
    let mut h = Fnv::default();
    for p in profile {
        h.f64(p.stw_ps).f64(p.period_ps);
        for b in p.blocks.iter().chain(std::iter::once(&p.chip)) {
            h.f64(b.energy_vdd_fj)
                .f64(b.energy_vss_fj)
                .u64(u64::from(b.toggles));
        }
    }
    h.hex()
}

/// Screen verdicts as a `0`/`1` string.
pub fn verdict_string(invalidated: &[bool]) -> String {
    invalidated
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

/// Whether `a` and `b` agree within relative tolerance `rel`.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    a == b || (a - b).abs() <= rel * a.abs().max(b.abs())
}

/// Compares a series element-wise; reports the first disagreement.
pub fn compare_series(what: &str, got: &[f64], want: &[f64], rel: f64) -> Vec<String> {
    if got.len() != want.len() {
        return vec![format!(
            "{what}: {} values, reference has {}",
            got.len(),
            want.len()
        )];
    }
    match got.iter().zip(want).position(|(&g, &w)| !close(g, w, rel)) {
        Some(i) => vec![format!(
            "{what}[{i}] = {} drifts from the reference {} beyond {rel:e}",
            got[i], want[i]
        )],
        None => Vec::new(),
    }
}

/// Compares screen verdicts. A verdict may flip only where the
/// reference's derated delay lies within the CG tolerance of the budget,
/// since there a solver change inside the tolerance can cross it.
pub fn compare_verdicts(
    what: &str,
    got: &[bool],
    want: &str,
    want_delay_ps: &[f64],
    budget_ps: f64,
) -> Vec<String> {
    let want: Vec<bool> = want.chars().map(|c| c == '1').collect();
    if got.len() != want.len() || want_delay_ps.len() != want.len() {
        return vec![format!(
            "{what}: {} verdicts, reference has {}",
            got.len(),
            want.len()
        )];
    }
    got.iter()
        .zip(&want)
        .zip(want_delay_ps)
        .position(|((&g, &w), &d)| g != w && !close(d, budget_ps, CG_REL_TOL))
        .map(|i| {
            vec![format!(
                "{what}: verdict of pattern {i} differs from the reference"
            )]
        })
        .unwrap_or_default()
}

/// The hybrid run's statuses against a fresh grading of its patterns:
/// the run must mark `Detected` exactly the faults grading detects, and
/// leave no fault `Undetected`.
pub fn check_hybrid(status: &[FaultStatus], graded_detected: &[bool]) -> Vec<String> {
    let mut problems = Vec::new();
    if status.len() != graded_detected.len() {
        problems.push(format!(
            "{} statuses for {} graded faults",
            status.len(),
            graded_detected.len()
        ));
        return problems;
    }
    let mismatched = status
        .iter()
        .zip(graded_detected)
        .filter(|&(s, &d)| (*s == FaultStatus::Detected) != d)
        .count();
    if mismatched > 0 {
        problems.push(format!(
            "{mismatched} faults' Detected status disagrees with a fresh grading of the patterns"
        ));
    }
    let undetected = status
        .iter()
        .filter(|s| **s == FaultStatus::Undetected)
        .count();
    if undetected > 0 {
        problems.push(format!("{undetected} faults ended Undetected"));
    }
    problems
}

/// A served 200 body against the handler's direct answer.
pub fn check_body(key: &str, served: &[u8], direct: &[u8]) -> Vec<String> {
    if served == direct {
        Vec::new()
    } else {
        vec![format!(
            "{key}: served body ({} bytes) differs from the handler's direct answer ({} bytes)",
            served.len(),
            direct.len()
        )]
    }
}

/// The committed references (`perfbench/reference.json`), built into
/// the binary so a run reads nothing but its inputs.
const REFERENCE_JSON: &str = include_str!("../reference.json");

/// The reference entry of `workload` for this design, if committed.
pub fn reference(workload: &str, scale: f64, design_seed: u64) -> Option<Value> {
    let doc = json::parse(REFERENCE_JSON).expect("reference.json parses");
    doc.get(workload)?
        .as_arr()?
        .iter()
        .find(|e| {
            e.get("scale").and_then(Value::as_f64) == Some(scale)
                && e.get("design_seed").and_then(Value::as_u64) == Some(design_seed)
        })
        .cloned()
}

/// A numeric array field of a reference entry.
pub fn f64_array(entry: &Value, key: &str) -> Vec<f64> {
    entry
        .get(key)
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap::dft::FilledPattern;

    fn set(bits: &[&[bool]]) -> PatternSet {
        let mut s = PatternSet::new();
        for b in bits {
            s.filled.push(FilledPattern {
                load: b.to_vec(),
                pi: vec![true],
            });
        }
        s
    }

    #[test]
    fn one_flipped_pattern_bit_changes_the_digest() {
        let a = set(&[&[true, false, false], &[false, true, true]]);
        let mut b = a.clone();
        b.filled[1].load[2] = false;
        assert_ne!(pattern_digest(&a), pattern_digest(&b));
        assert_eq!(pattern_digest(&a), pattern_digest(&a.clone()));
        // Moving a bit across a pattern boundary changes it too.
        let c = set(&[&[true, false], &[false, false, true, true]]);
        assert_ne!(pattern_digest(&a), pattern_digest(&c));
    }

    #[test]
    fn one_changed_status_fails_the_hybrid_check() {
        use FaultStatus::*;
        let status = vec![Detected, Untestable, Detected, Aborted];
        let graded = vec![true, false, true, false];
        assert!(check_hybrid(&status, &graded).is_empty());
        let mut changed = status.clone();
        changed[1] = Detected;
        assert_eq!(check_hybrid(&changed, &graded).len(), 1);
        changed[1] = Undetected;
        assert_eq!(
            check_hybrid(&changed, &graded),
            vec!["1 faults ended Undetected".to_owned()]
        );
        let mut missed = graded.clone();
        missed[2] = false;
        assert_eq!(check_hybrid(&status, &missed).len(), 1);
    }

    #[test]
    fn one_altered_body_fails_the_serve_check() {
        let body = br#"{"seed":7,"slack":12.5}"#;
        assert!(check_body("sta", body, body).is_empty());
        let mut altered = body.to_vec();
        altered[8] = b'8';
        assert_eq!(check_body("sta", &altered, body).len(), 1);
    }

    #[test]
    fn cg_drift_inside_the_tolerance_passes_and_beyond_fails() {
        let want = [0.25, 0.125, 3.0];
        let inside: Vec<f64> = want.iter().map(|w| w * (1.0 + 0.5 * CG_REL_TOL)).collect();
        assert!(compare_series("ir", &inside, &want, CG_REL_TOL).is_empty());
        let mut beyond = want.to_vec();
        beyond[1] *= 1.0 + 3.0 * CG_REL_TOL;
        let problems = compare_series("ir", &beyond, &want, CG_REL_TOL);
        assert!(problems[0].starts_with("ir[1]"), "{problems:?}");
        assert_eq!(compare_series("ir", &want[..2], &want, CG_REL_TOL).len(), 1);
    }

    #[test]
    fn verdicts_may_flip_only_at_the_budget() {
        let delays = [900.0, 1000.0 * (1.0 + 0.1 * CG_REL_TOL), 1200.0];
        assert!(compare_verdicts("v", &[false, true, true], "011", &delays, 1000.0).is_empty());
        // Pattern 1 sits on the budget: a flip there is inside tolerance.
        assert!(compare_verdicts("v", &[false, false, true], "011", &delays, 1000.0).is_empty());
        // Pattern 2 is far over it: a flip there is wrong.
        assert_eq!(
            compare_verdicts("v", &[false, true, false], "011", &delays, 1000.0).len(),
            1
        );
    }

    #[test]
    fn a_changed_scap_series_changes_its_digest() {
        use scap::power::BlockPower;
        let block = |e: f64| BlockPower {
            energy_vdd_fj: e,
            energy_vss_fj: e / 2.0,
            toggles: 3,
        };
        let p = PatternPower {
            stw_ps: 100.0,
            period_ps: 20_000.0,
            blocks: vec![block(1.0), block(2.0)],
            chip: block(3.0),
        };
        let mut q = p.clone();
        q.blocks[1].energy_vss_fj = f64::from_bits(q.blocks[1].energy_vss_fj.to_bits() + 1);
        let p_digest = power_digest(std::slice::from_ref(&p));
        assert_ne!(p_digest, power_digest(&[q]));
        assert_eq!(p_digest, power_digest(&[p]));
    }
}
