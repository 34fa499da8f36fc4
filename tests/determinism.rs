//! Parallel-vs-serial bit-identity of the SCAP hot loops.
//!
//! The execution layer (`scap-exec`) promises that every parallel path —
//! per-pattern power profiling, round-parallel fault-sim grading and
//! compaction, per-pattern dynamic IR-drop, speculated ATPG primary
//! searches — returns results **bit-identical** to the serial loop, for
//! any thread count. This binary holds exactly one test so it owns its
//! process: the thread count is selected via the `SCAP_THREADS`
//! environment variable, which is process-global state no
//! concurrently-running test may touch.

use rand::SeedableRng;
use scap::dft::{FillPolicy, FilledPattern, PatternSet, TestPattern};
use scap::flows::{self, FlowResult};
use scap::sim::FaultList;
use scap::tgen::{AtpgConfig, EngineKind, FaultStatus, Generator};
use scap::{compact_patterns, grade_patterns, CaseStudy, PatternAnalyzer};

/// Everything a pattern-generation run decides.
#[derive(Debug, PartialEq)]
struct Generated {
    source: Vec<TestPattern>,
    filled: Vec<FilledPattern>,
    /// First pattern index of each step.
    steps: Vec<usize>,
    status: Vec<FaultStatus>,
    first_detection: Vec<Option<usize>>,
}

impl Generated {
    fn of_flow(flow: FlowResult) -> Self {
        Generated {
            source: flow.patterns.source,
            filled: flow.patterns.filled,
            steps: flow.steps.iter().map(|s| s.1).collect(),
            status: flow.status,
            first_detection: flow.grade.first_detection,
        }
    }
}

/// Both paper flows and a hybrid (PODEM + SAT) run over the full list.
fn generate(study: &CaseStudy) -> Vec<(&'static str, Generated)> {
    let n = &study.design.netlist;
    let config = AtpgConfig {
        engine: EngineKind::Hybrid,
        ..AtpgConfig::default()
    };
    let hybrid = Generator::new(n, study.clka(), config).run(&FaultList::full(n));
    vec![
        (
            "conventional",
            Generated::of_flow(flows::conventional(study)),
        ),
        ("noise_aware", Generated::of_flow(flows::noise_aware(study))),
        (
            "hybrid",
            Generated {
                source: hybrid.patterns.source,
                filled: hybrid.patterns.filled,
                steps: vec![0],
                status: hybrid.status,
                first_detection: hybrid.first_detection,
            },
        ),
    ]
}

struct Snapshot {
    /// (stw, period, chip vdd/vss energy) per pattern, as raw bits.
    power: Vec<[u64; 4]>,
    /// Per-pattern IR-drop node voltages, as raw bits.
    irdrop: Vec<Vec<u64>>,
    first_detection: Vec<Option<usize>>,
    curve: Vec<(usize, usize)>,
    kept: Vec<usize>,
    /// Per-endpoint (flop id, nominal slack, derated slack), slacks as
    /// raw bits, endpoints in report order.
    sta: Vec<(u32, u64, u64)>,
    /// Worst-path endpoints + per-net arrival bits of the derated STA.
    sta_paths: Vec<(u32, Vec<u64>)>,
    /// Per-pattern derated max endpoint delay, as raw bits.
    screen: Vec<u64>,
    atpg: Vec<(&'static str, Generated)>,
}

/// Runs every parallelized hot loop on `study` + `set` and captures the
/// results exactly (f64s as bit patterns).
fn snapshot(study: &CaseStudy, faults: &FaultList, set: &PatternSet) -> Snapshot {
    let analyzer = PatternAnalyzer::new(study);
    let power = analyzer
        .power_profile(set)
        .iter()
        .map(|p| {
            [
                p.stw_ps.to_bits(),
                p.period_ps.to_bits(),
                p.chip.energy_vdd_fj.to_bits(),
                p.chip.energy_vss_fj.to_bits(),
            ]
        })
        .collect();
    let irdrop = analyzer
        .ir_drop_profile(&set.filled)
        .iter()
        .map(|m| {
            m.node_drop_vdd_v
                .iter()
                .chain(&m.node_drop_vss_v)
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    let n = &study.design.netlist;
    let clka = study.clka();
    let grade = grade_patterns(n, clka, faults, set);
    let (kept, _) = compact_patterns(n, clka, faults, set);
    let noise_sta = scap::sta::NoiseAwareSta::worst_case(study);
    let sta = noise_sta
        .endpoint_slacks()
        .iter()
        .map(|&(f, nom, der)| (f.index() as u32, nom.to_bits(), der.to_bits()))
        .collect();
    let sta_paths = noise_sta
        .derated
        .worst_paths(n, 5)
        .iter()
        .map(|p| {
            (
                p.endpoint.index() as u32,
                p.nets.iter().map(|&(_, a)| a.to_bits()).collect(),
            )
        })
        .collect();
    let screen = scap::sta::TimingScreen::run(study, set, 1.0)
        .max_derated_delay_ps
        .iter()
        .map(|d| d.to_bits())
        .collect();
    Snapshot {
        power,
        irdrop,
        first_detection: grade.first_detection,
        curve: grade.curve,
        kept,
        sta,
        sta_paths,
        screen,
        atpg: generate(study),
    }
}

#[test]
fn hot_loops_are_bit_identical_across_thread_counts() {
    let study = CaseStudy::small();
    let n = &study.design.netlist;
    let faults = FaultList::full(n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut set = PatternSet::new();
    for _ in 0..40 {
        let p = TestPattern::unspecified(n);
        let f = p.fill(n, FillPolicy::Random, &mut rng);
        set.push(p, f);
    }

    // An even width that divides batches cleanly AND an odd width whose
    // chunk rounding exercises the ragged tail (3 never divides the
    // 64-pattern batches or the power-of-two worker heuristics); 2 is
    // the one-speculator ATPG that two-core hosts run. A width given in
    // `SCAP_THREADS` is checked as well.
    let mut widths: Vec<usize> = vec![8, 3, 2];
    if let Some(extra) = std::env::var("SCAP_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        if extra > 1 && !widths.contains(&extra) {
            widths.push(extra);
        }
    }
    std::env::set_var("SCAP_THREADS", "1");
    let serial = snapshot(&study, &faults, &set);
    for threads in widths {
        std::env::set_var("SCAP_THREADS", threads.to_string());
        let parallel = snapshot(&study, &faults, &set);
        assert_eq!(
            serial.power, parallel.power,
            "power_profile diverged at {threads} threads"
        );
        assert_eq!(
            serial.irdrop, parallel.irdrop,
            "ir_drop_profile diverged at {threads} threads"
        );
        assert_eq!(
            serial.first_detection, parallel.first_detection,
            "grade_patterns first detections diverged at {threads} threads"
        );
        assert_eq!(
            serial.curve, parallel.curve,
            "coverage curve diverged at {threads} threads"
        );
        assert_eq!(
            serial.kept, parallel.kept,
            "compaction kept-set diverged at {threads} threads"
        );
        assert_eq!(
            serial.sta, parallel.sta,
            "nominal/derated endpoint slacks diverged at {threads} threads"
        );
        assert_eq!(
            serial.sta_paths, parallel.sta_paths,
            "derated worst-path reports diverged at {threads} threads"
        );
        assert_eq!(
            serial.screen, parallel.screen,
            "derated pattern timing screen diverged at {threads} threads"
        );
        for ((name, one), (_, many)) in serial.atpg.iter().zip(&parallel.atpg) {
            assert!(one == many, "{name} ATPG run diverged at {threads} threads");
        }
    }
    std::env::remove_var("SCAP_THREADS");
}
