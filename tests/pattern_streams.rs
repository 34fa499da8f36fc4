//! Pins the default pattern streams byte for byte.
//!
//! Four runs on [`CaseStudy::small`] — the conventional flow, the
//! noise-aware flow, a hybrid PODEM+SAT run and a launch-off-shift run —
//! each hashed over its filled patterns with FNV-1a. A refactor of the
//! ATPG engines, the two-frame model or the fault simulator that moves
//! any bit of any pattern changes a digest. The expected values were
//! recorded before the two-frame model was unified into `scap_sim::loc`.

use scap::dft::PatternSet;
use scap::flows;
use scap::sim::{FaultList, LaunchMode};
use scap::tgen::{AtpgConfig, EngineKind, Generator};
use scap::CaseStudy;

/// 64-bit FNV-1a over the pattern count, then every filled pattern's
/// load bits and PI bits, one byte per bit and a separator per pattern.
fn digest(patterns: &PatternSet) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    };
    for byte in (patterns.len() as u64).to_le_bytes() {
        eat(byte);
    }
    for p in &patterns.filled {
        for &b in p.load.iter().chain(&p.pi) {
            eat(u8::from(b));
        }
        eat(0xff);
    }
    h
}

fn generate(study: &CaseStudy, config: AtpgConfig) -> PatternSet {
    let n = &study.design.netlist;
    Generator::new(n, study.clka(), config)
        .run(&FaultList::full(n))
        .patterns
}

#[test]
fn default_pattern_streams_are_pinned() {
    let study = CaseStudy::small();
    let got = [
        (
            "conventional",
            digest(&flows::conventional(&study).patterns),
        ),
        ("noise_aware", digest(&flows::noise_aware(&study).patterns)),
        (
            "hybrid",
            digest(&generate(
                &study,
                AtpgConfig {
                    engine: EngineKind::Hybrid,
                    ..AtpgConfig::default()
                },
            )),
        ),
        (
            "launch_off_shift",
            digest(&generate(
                &study,
                AtpgConfig {
                    mode: LaunchMode::Shift,
                    ..AtpgConfig::default()
                },
            )),
        ),
    ];
    let want = [
        ("conventional", 0xdfaf_6b1c_72d0_1003),
        ("noise_aware", 0xbe4b_b2e4_ef4d_e708),
        ("hybrid", 0x0a24_df09_a797_8934),
        ("launch_off_shift", 0x5d4a_4b83_a49f_81de),
    ];
    assert_eq!(got, want, "pattern stream digests moved: {got:#x?}");
}
