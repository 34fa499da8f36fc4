//! Pins the default pattern streams byte for byte, and the SAT engine's
//! per-fault verdicts.
//!
//! Four runs on [`CaseStudy::small`] — the conventional flow, the
//! noise-aware flow, a hybrid PODEM+SAT run and a launch-off-shift run —
//! each hashed over its filled patterns with FNV-1a. A refactor of the
//! ATPG engines, the two-frame model or the fault simulator that moves
//! any bit of any pattern changes a digest. The expected values were
//! recorded before the two-frame model was unified into `scap_sim::loc`;
//! the hybrid digest was re-recorded when the SAT encoding gained
//! prime-implicate gate clauses and D-chains, whose models are other
//! (equally detecting) witnesses.
//!
//! The verdict pin hashes the SAT engine's answer for every fault of the
//! full list under both launch modes. An encoding change may pick other
//! witnesses, but it must never move a verdict; the expected digests
//! were recorded with the truth-table-row encoding the D-chain encoding
//! replaced.
//!
//! The primary-search pin hashes PODEM's outcome and cube for every
//! fault of the full list under both launch modes, each search from the
//! unspecified pattern. The generator's speculator threads rely on that
//! search being a function of its fault alone, whatever the scratch
//! state it starts from, so the digest is taken twice: with a fresh
//! scratch per fault, and with one shared scratch that also runs a
//! secondary merge between primaries, as the targeting loop does. The
//! expected digests were recorded before speculation was added.
//!
//! The sign-off pin hashes what the paper's §3.2 sign-off computes from
//! both flows' patterns: each pattern's toggle trace, SCAP energies,
//! worst IR drops and the ×40 timing screen. A change to the event
//! simulator, the SCAP calculator or the IR-drop path that moves one
//! toggle or one bit of a result changes a digest. The expected digests
//! were recorded with the `BinaryHeap` + `HashSet` event kernel that
//! `crates/sim/tests/event_oracle.rs` keeps as the oracle.

use scap::dft::{PatternSet, TestPattern};
use scap::flows;
use scap::sim::{FaultList, LaunchMode};
use scap::sta::TimingScreen;
use scap::tgen::{
    AtpgConfig, EngineKind, Generator, Podem, PodemOutcome, PodemScratch, SatAtpg, SatOutcome,
};
use scap::{CaseStudy, PatternAnalyzer};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a stream of little-endian words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// 64-bit FNV-1a over the pattern count, then every filled pattern's
/// load bits and PI bits, one byte per bit and a separator per pattern.
fn digest(patterns: &PatternSet) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
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
        ("hybrid", 0xdf21_f72f_bfc9_54ef),
        ("launch_off_shift", 0x5d4a_4b83_a49f_81de),
    ];
    assert_eq!(got, want, "pattern stream digests moved: {got:#x?}");
}

/// The SAT verdict of every fault of the full list, each from a fresh
/// unspecified pattern at the default conflict budget: FNV-1a over one
/// byte per fault (0 test, 1 untestable, 2 unknown), and the count of
/// each verdict.
fn verdicts(study: &CaseStudy, mode: LaunchMode) -> (u64, [usize; 3]) {
    let n = &study.design.netlist;
    let sat = SatAtpg::new(
        n,
        study.clka(),
        mode,
        AtpgConfig::default().sat_conflict_limit,
    );
    let mut h = FNV_OFFSET;
    let mut counts = [0; 3];
    for &fault in FaultList::full(n).faults() {
        let verdict = match sat.generate(fault, &mut TestPattern::unspecified(n)) {
            SatOutcome::Test => 0u8,
            SatOutcome::Untestable => 1,
            SatOutcome::Unknown => 2,
        };
        counts[usize::from(verdict)] += 1;
        h ^= u64::from(verdict);
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h, counts)
}

#[test]
fn sat_verdicts_are_pinned() {
    let study = CaseStudy::small();
    assert_eq!(
        verdicts(&study, LaunchMode::Capture),
        (0x696e_112c_5416_9482, [2561, 813, 0]),
        "launch-off-capture SAT verdicts moved"
    );
    assert_eq!(
        verdicts(&study, LaunchMode::Shift),
        (0xf099_3060_f1d7_deb4, [2741, 633, 0]),
        "launch-off-shift SAT verdicts moved"
    );
}

/// FNV-1a over the primary search of every fault of the full list, from
/// the unspecified pattern at the default backtrack budget: the outcome
/// (0 test, 1 untestable, 2 aborted), then the cube's load and PI values.
/// With `shared`, every search runs on one scratch, and after each one a
/// secondary merge of the next fault into the cube dirties it further.
fn primary_digest(study: &CaseStudy, mode: LaunchMode, shared: bool) -> u64 {
    let n = &study.design.netlist;
    let podem = Podem::with_mode(n, study.clka(), mode, AtpgConfig::default().backtrack_limit);
    let faults = FaultList::full(n);
    let list = faults.faults();
    let mut scratch = PodemScratch::new();
    let mut h = Fnv::new();
    for (i, &fault) in list.iter().enumerate() {
        let mut cube = TestPattern::unspecified(n);
        let outcome = if shared {
            podem.generate_with_scratch(fault, &mut cube, &mut scratch)
        } else {
            podem.generate(fault, &mut cube)
        };
        h.word(match outcome {
            PodemOutcome::Test => 0,
            PodemOutcome::Untestable => 1,
            PodemOutcome::Aborted => 2,
        });
        for &v in cube.load.iter().chain(&cube.pi) {
            h.word(v as u64);
        }
        if shared {
            let next = list[(i + 1) % list.len()];
            podem.generate_with_scratch(next, &mut cube, &mut scratch);
        }
    }
    h.0
}

#[test]
fn primary_searches_are_pure_and_pinned() {
    let study = CaseStudy::small();
    for (mode, want) in [
        (LaunchMode::Capture, 0xb8b1_395e_7d53_2265),
        (LaunchMode::Shift, 0x991d_06b9_5f2d_4e86),
    ] {
        let fresh = primary_digest(&study, mode, false);
        let shared = primary_digest(&study, mode, true);
        assert_eq!(
            fresh, shared,
            "{mode:?}: a dirty scratch moved a primary search"
        );
        assert_eq!(fresh, want, "{mode:?}: primary searches moved: {fresh:#x}");
    }
}

/// FNV-1a over one pattern set's sign-off, pattern by pattern: toggle
/// count and STW of the nominal trace; chip and per-block SCAP energies
/// (VDD, VSS) and toggles from `power_profile`; worst VDD and VSS drops
/// from `ir_drop_profile`; the ×40 screen's derated delay and verdict.
fn signoff_digest(study: &CaseStudy, set: &PatternSet) -> u64 {
    let analyzer = PatternAnalyzer::new(study);
    let power = analyzer.power_profile(set);
    let maps = analyzer.ir_drop_profile(&set.filled);
    let screen = TimingScreen::run(study, set, 40.0);
    let mut h = Fnv::new();
    h.word(set.len() as u64);
    for (i, filled) in set.filled.iter().enumerate() {
        let trace = analyzer.trace(filled);
        h.word(trace.num_toggles() as u64);
        h.f64(trace.stw_ps());
        let p = &power[i];
        h.f64(p.stw_ps);
        for b in std::iter::once(&p.chip).chain(&p.blocks) {
            h.f64(b.energy_vdd_fj);
            h.f64(b.energy_vss_fj);
            h.word(u64::from(b.toggles));
        }
        h.f64(maps[i].worst_drop_vdd());
        h.f64(maps[i].worst_drop_vss());
        h.f64(screen.max_derated_delay_ps[i]);
        h.word(u64::from(screen.invalidated[i]));
    }
    h.f64(screen.budget_ps);
    h.0
}

#[test]
fn signoff_outputs_are_pinned() {
    let study = CaseStudy::small();
    let got = [
        (
            "conventional",
            signoff_digest(&study, &flows::conventional(&study).patterns),
        ),
        (
            "noise_aware",
            signoff_digest(&study, &flows::noise_aware(&study).patterns),
        ),
    ];
    let want = [
        ("conventional", 0xbc18_618c_cbab_13f7),
        ("noise_aware", 0x9752_928a_e59b_9f47),
    ];
    assert_eq!(got, want, "sign-off digests moved: {got:#x?}");
}
