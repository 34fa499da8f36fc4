//! Cross-crate integration tests: the generated SOC, scan, ATPG, fault
//! simulation and power analyses must agree with each other.

use rand::{Rng, SeedableRng};
use scap::dft::{FillPolicy, PatternBatch, PatternSet, TestPattern};
use scap::netlist::Logic;
use scap::sim::FaultList;
use scap::sim::LaunchMode;
use scap::tgen::{AtpgConfig, FaultStatus, Generator, Podem, PodemOutcome};
use scap::{grade_patterns, CaseStudy, PatternAnalyzer};

fn study() -> CaseStudy {
    CaseStudy::new(0.004)
}

/// Every test PODEM produces must be confirmed by the independent PPSFP
/// fault simulator, and every "untestable" verdict must never be
/// contradicted by random patterns — the soundness contract between the
/// two engines.
#[test]
fn atpg_and_fault_simulation_agree() {
    let s = study();
    let n = &s.design.netlist;
    let clka = s.clka();
    let faults = FaultList::full(n);
    let gen = Generator::new(n, clka, AtpgConfig::default());
    let run = gen.run(&faults);

    // (a) grading the generated patterns re-detects everything the
    // generator claimed.
    let grade = grade_patterns(n, clka, &faults, &run.patterns);
    assert!(grade.num_detected() >= run.num_detected());

    // (b) no fault marked untestable is detected by 2000 random patterns.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut random_set = PatternSet::new();
    for _ in 0..2000 {
        let p = TestPattern::unspecified(n);
        let f = p.fill(n, FillPolicy::Random, &mut rng);
        random_set.push(p, f);
    }
    let random_grade = grade_patterns(n, clka, &faults, &random_set);
    let mut contradictions = 0;
    for (i, status) in run.status.iter().enumerate() {
        if matches!(status, FaultStatus::Untestable) && random_grade.first_detection[i].is_some() {
            contradictions += 1;
        }
    }
    assert_eq!(contradictions, 0, "PODEM untestable verdicts must be sound");
}

/// PODEM immediately recognizes a detecting pattern when fully
/// constrained by it — the detection models of search and simulation are
/// the same.
#[test]
fn podem_recognizes_fault_sim_detections() {
    let s = study();
    let n = &s.design.netlist;
    let clka = s.clka();
    let faults = FaultList::full(n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut set = PatternSet::new();
    for _ in 0..256 {
        let p = TestPattern::unspecified(n);
        let f = p.fill(n, FillPolicy::Random, &mut rng);
        set.push(p, f);
    }
    let grade = grade_patterns(n, clka, &faults, &set);
    let podem = Podem::new(n, clka, 1);
    let mut checked = 0;
    for (i, det) in grade.first_detection.iter().enumerate() {
        let Some(p) = det else { continue };
        if checked >= 50 {
            break;
        }
        checked += 1;
        let filled = &set.filled[*p];
        let mut pattern = TestPattern {
            load: filled.load.iter().map(|&b| Logic::from(b)).collect(),
            pi: filled.pi.iter().map(|&b| Logic::from(b)).collect(),
        };
        assert_eq!(
            podem.generate(faults.faults()[i], &mut pattern),
            PodemOutcome::Test,
            "fault {:?} detected by simulation must be recognized by PODEM",
            faults.faults()[i]
        );
    }
    assert!(checked >= 50);
}

/// Launch-off-shift ATPG works end to end and its tests are confirmed by
/// the LOS fault simulator; LOS typically reaches *different* (often
/// higher structural) coverage than LOC because the launch state need not
/// be functionally reachable (paper §1.1).
#[test]
fn launch_off_shift_flow_works() {
    let s = study();
    let n = &s.design.netlist;
    let clka = s.clka();
    let faults = FaultList::full(n);
    let config = AtpgConfig {
        mode: LaunchMode::Shift,
        max_patterns: 400,
        ..AtpgConfig::default()
    };
    let gen = Generator::new(n, clka, config);
    let run = gen.run(&faults);
    assert!(
        run.fault_coverage() > 0.3,
        "LOS coverage {:.3} with {} patterns",
        run.fault_coverage(),
        run.patterns.len()
    );
    // Cross-check a sample of detections with a fresh LOS fault sim.
    let fsim = scap::sim::TransitionFaultSim::with_mode(n, clka, LaunchMode::Shift);
    let mut confirmed = 0;
    for (start, batch) in run.patterns.batches().take(2) {
        let summary = fsim.detect_batch(
            &batch.load_words,
            &batch.pi_words,
            batch.valid_mask,
            faults.faults(),
        );
        confirmed += summary.num_detected();
        let _ = start;
    }
    assert!(confirmed > 0);
}

/// The SCAP calculator conserves energy: summing per-block energy plus
/// unattributed (PI-driven) energy equals the chip total, and equals the
/// sum over trace events of C·V².
#[test]
fn scap_energy_conservation() {
    let s = study();
    let n = &s.design.netlist;
    let an = PatternAnalyzer::new(&s);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let pattern = scap::dft::FilledPattern {
        load: (0..n.num_flops()).map(|_| rng.gen()).collect(),
        pi: (0..n.primary_inputs().len()).map(|_| rng.gen()).collect(),
    };
    let trace = an.trace(&pattern);
    let power = an.power_of_trace(&trace);
    let vdd2 = n.library.vdd * n.library.vdd;
    let direct: f64 = trace
        .events
        .iter()
        .filter(|e| e.rising)
        .map(|e| s.annotation.net_total_cap_ff(e.net) * vdd2)
        .sum();
    assert!(
        (power.chip.energy_vdd_fj - direct).abs() < 1e-6 * direct.max(1.0),
        "chip energy {} vs direct sum {}",
        power.chip.energy_vdd_fj,
        direct
    );
    let block_sum: f64 = power.blocks.iter().map(|b| b.energy_vdd_fj).sum();
    assert!(block_sum <= power.chip.energy_vdd_fj + 1e-9);
}

/// Batch (bit-parallel) and scalar LOC frames agree on the generated SOC.
#[test]
fn batch_and_scalar_loc_frames_agree() {
    let s = study();
    let n = &s.design.netlist;
    let clka = s.clka();
    let scalar = scap::sim::LogicSim::new(n);
    let batch = scap::sim::BatchSim::new(n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let loads: Vec<bool> = (0..n.num_flops()).map(|_| rng.gen()).collect();
    let pis: Vec<bool> = (0..n.primary_inputs().len()).map(|_| rng.gen()).collect();
    let sf = scap::sim::loc::loc_frames(
        &scalar,
        &loads.iter().map(|&b| Logic::from(b)).collect::<Vec<_>>(),
        &pis.iter().map(|&b| Logic::from(b)).collect::<Vec<_>>(),
        clka,
    );
    let bf = scap::sim::loc::loc_frames_batch(
        &batch,
        &loads.iter().map(|&b| b as u64).collect::<Vec<_>>(),
        &pis.iter().map(|&b| b as u64).collect::<Vec<_>>(),
        clka,
    );
    for i in 0..n.num_nets() {
        assert_eq!(bf.frame2[i] & 1 == 1, sf.frame2[i] == Logic::One, "net {i}");
    }
}

/// Scan chains shift correctly: loading a value and shifting the full
/// chain length brings the scan-in stream into position.
#[test]
fn scan_shift_round_trip() {
    let s = study();
    let n = &s.design.netlist;
    // One shift moves each cell's value to the next position.
    let loads: Vec<Logic> = (0..n.num_flops())
        .map(|i| Logic::from(i % 3 == 0))
        .collect();
    let src = scap::sim::loc::state2_sources(n, s.clka(), LaunchMode::Shift);
    let shifted = scap::sim::loc::launch_state(&src, &loads, &[], Logic::One);
    for f in n.flops() {
        let role = f.scan.expect("full scan");
        if role.position == 0 {
            continue;
        }
        // Find the upstream cell.
        let upstream = n
            .flops()
            .iter()
            .position(|g| {
                g.scan
                    .is_some_and(|r| r.chain == role.chain && r.position == role.position - 1)
            })
            .expect("chain is dense");
        let me = n
            .flops()
            .iter()
            .position(|g| std::ptr::eq(g, f))
            .expect("self");
        assert_eq!(shifted[me], loads[upstream]);
    }
}

/// Doubling a trace's activity doubles every IR-drop (the solve is
/// linear), and the VDD/VSS split follows toggle directions — checked on
/// the real generated design rather than a toy grid.
#[test]
fn ir_drop_scales_linearly_with_activity() {
    use scap::power::DynamicAnalysis;
    use scap::sim::{ToggleEvent, ToggleTrace};
    let s = study();
    let n = &s.design.netlist;
    let dynir = DynamicAnalysis::new(n, &s.design.floorplan, s.grid);
    let net = n.gates()[0].output;
    let mut one = ToggleTrace::default();
    one.events.push(ToggleEvent {
        time_ps: 1000.0,
        net,
        rising: true,
    });
    let mut two = one.clone();
    two.events.push(ToggleEvent {
        time_ps: 500.0,
        net,
        rising: false,
    });
    two.events.push(ToggleEvent {
        time_ps: 1000.0,
        net,
        rising: true,
    });
    two.events
        .sort_by(|a, b| a.time_ps.partial_cmp(&b.time_ps).expect("finite"));
    let mut session = dynir.session();
    let m1 = session.analyze(&s.annotation, &one);
    let m2 = session.analyze(&s.annotation, &two);
    // Trace `two` has 2 rising and 1 falling toggles over the same window.
    let r = m2.worst_drop_vdd() / m1.worst_drop_vdd().max(1e-18);
    assert!((r - 2.0).abs() < 1e-6, "VDD drop ratio {r}");
    assert!(m2.worst_drop_vss() > 0.0);
    assert_eq!(m1.worst_drop_vss(), 0.0);
}

/// The whole pipeline is deterministic: rebuilding the case study and
/// rerunning the flow reproduces identical patterns and coverage.
#[test]
fn end_to_end_determinism() {
    let a = CaseStudy::new(0.004);
    let b = CaseStudy::new(0.004);
    let fa = scap::flows::conventional(&a);
    let fb = scap::flows::conventional(&b);
    assert_eq!(fa.patterns.len(), fb.patterns.len());
    assert_eq!(fa.grade.num_detected(), fb.grade.num_detected());
    for (x, y) in fa.patterns.filled.iter().zip(&fb.patterns.filled) {
        assert_eq!(x, y);
    }
}

/// The pattern batch abstraction covers full 64-pattern blocks and
/// stragglers identically.
#[test]
fn pattern_batches_cover_all_patterns() {
    let s = study();
    let n = &s.design.netlist;
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let mut set = PatternSet::new();
    for _ in 0..70 {
        let p = TestPattern::unspecified(n);
        let f = p.fill(n, FillPolicy::Random, &mut rng);
        set.push(p, f);
    }
    let mut seen = 0;
    for (start, batch) in set.batches() {
        assert_eq!(batch.load_words.len(), n.num_flops());
        seen += batch.count;
        // Every valid bit corresponds to a real pattern.
        assert_eq!(batch.valid_mask.count_ones() as usize, batch.count);
        let _ = start;
    }
    assert_eq!(seen, 70);
    // Packing a single pattern round-trips its bits.
    let one = PatternBatch::pack(std::slice::from_ref(&set.filled[0]));
    for (i, &b) in set.filled[0].load.iter().enumerate() {
        assert_eq!(one.load_words[i] & 1 == 1, b);
    }
}
