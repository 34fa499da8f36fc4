//! Defect-injection tests: each test corrupts one invariant of an
//! otherwise-clean case study and asserts that exactly the intended rule
//! fires (by ID and severity), plus a clean-design zero-findings
//! baseline — the contract the `--deny warn` CI gate relies on.

use scap::netlist::{BlockId, ClockId, FlopId, GateId, NetSource, Netlist};
use scap::power::{GridConfig, PowerGrid};
use scap::sta::NoiseAwareSta;
use scap::{experiments, flows, CaseStudy, PatternAnalyzer};
use scap_lint::{
    run_all, LintContext, LintReport, MeshKind, MeshSpec, QuietSpec, ScreenSpec, Severity,
    TimingSpec,
};
use std::sync::OnceLock;

/// The clean fixture every test starts from, built once per binary.
struct Fixture {
    study: CaseStudy,
    flow: flows::FlowResult,
    thresholds: Vec<f64>,
    /// Measured SCAP per pattern per block, mW.
    mw: Vec<Vec<f64>>,
    grid: PowerGrid,
}

fn fx() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let study = CaseStudy::small();
        let flow = flows::noise_aware(&study);
        let thresholds = experiments::scap_thresholds(&study);
        let profile = PatternAnalyzer::new(&study).power_profile(&flow.patterns);
        let nb = study.design.netlist.blocks().len();
        let mw: Vec<Vec<f64>> = profile
            .iter()
            .map(|p| {
                (0..nb)
                    .map(|b| p.scap_vdd_mw(BlockId::new(b as u32)))
                    .collect()
            })
            .collect();
        let grid = PowerGrid::new(study.design.floorplan.die, study.grid);
        Fixture {
            study,
            flow,
            thresholds,
            mw,
            grid,
        }
    })
}

/// The patterns the screened flow emits: everything at or below every
/// block's threshold (what the CLI computes for `scap lint`).
fn emitted(f: &Fixture) -> Vec<usize> {
    f.mw.iter()
        .enumerate()
        .filter(|(_, row)| {
            row.iter()
                .zip(&f.thresholds)
                .all(|(&mw, &t)| mw <= t * (1.0 + 1e-9))
        })
        .map(|(p, _)| p)
        .collect()
}

fn quiet_spec(f: &Fixture) -> QuietSpec {
    QuietSpec::from_staged_flow(
        &flows::paper_stages(&f.study),
        &f.flow.steps,
        f.flow.patterns.len(),
    )
}

fn screen_spec(f: &Fixture) -> ScreenSpec {
    ScreenSpec {
        thresholds_mw: f.thresholds.clone(),
        pattern_block_mw: f.mw.clone(),
        emitted: emitted(f),
    }
}

/// Real nominal + worst-case-derated STA results of the clean study.
fn sta_spec(f: &Fixture) -> TimingSpec {
    let sta = NoiseAwareSta::worst_case(&f.study);
    TimingSpec::from_analyses(
        &f.study.design.netlist,
        f.study.clka(),
        &sta.nominal,
        Some(&sta.derated),
    )
}

/// A hand-built spec whose every field is comfortably clean; tests
/// corrupt exactly one field so exactly one TIM rule fires.
fn clean_hand_spec() -> TimingSpec {
    TimingSpec {
        clock: ClockId::new(0),
        period_ps: 20_000.0,
        nominal_slack_ps: vec![(FlopId::new(0), 9_000.0), (FlopId::new(1), 12_000.0)],
        derated_slack_ps: Some(vec![(FlopId::new(0), 7_500.0), (FlopId::new(1), 11_000.0)]),
        derated_critical_path_ps: Some(12_500.0),
        unreachable_endpoints: Vec::new(),
    }
}

/// Asserts every finding carries the expected rule ID and severity, and
/// that at least one fired.
fn assert_only(report: &LintReport, rule: &str, severity: Severity) {
    assert!(
        !report.findings.is_empty(),
        "expected {rule} to fire, got a clean report"
    );
    for f in &report.findings {
        assert_eq!(
            (f.rule, f.severity),
            (rule, severity),
            "unexpected finding: {f}"
        );
    }
}

/// Runs the full registry over a netlist-only context.
fn run_netlist(n: &Netlist) -> LintReport {
    run_all(&LintContext::new(n))
}

#[test]
fn clean_design_has_zero_findings() {
    let f = fx();
    let quiet = quiet_spec(f);
    let screen = screen_spec(f);
    let ctx = LintContext::new(&f.study.design.netlist)
        .with_timing(&f.study.annotation, &f.study.clock_tree)
        .with_mesh(MeshSpec::from_grid(MeshKind::Vdd, &f.grid))
        .with_mesh(MeshSpec::from_grid(MeshKind::Vss, &f.grid))
        .with_patterns(&f.flow.patterns)
        .with_quiet(quiet)
        .with_screen(screen)
        .with_sta(sta_spec(f));
    let report = run_all(&ctx);
    assert_eq!(
        report.findings.len(),
        0,
        "clean design must lint clean:\n{}",
        report.render_text()
    );
    assert_eq!(report.rules.len(), scap_lint::all_rules().len());
}

#[test]
fn dropped_net_source_is_net001() {
    let mut n = fx().study.design.netlist.clone();
    let victim = n.gates()[0].output;
    n.net_mut(victim).source = None;
    assert_only(&run_netlist(&n), "NET001", Severity::Error);
}

#[test]
fn double_driver_is_net002() {
    let mut n = fx().study.design.netlist.clone();
    // Tie a gate-driven net to a constant: two structural drivers, and
    // the recorded source still matches one of them (so NET001 is mute).
    let victim = n.gates()[0].output;
    n.net_mut(victim).source = Some(NetSource::Const(false));
    assert_only(&run_netlist(&n), "NET002", Severity::Error);
}

#[test]
fn gate_feeding_itself_is_net003() {
    let mut n = fx().study.design.netlist.clone();
    // A self-loop on a gate whose sacrificed input is flop- or PI-driven,
    // so no other gate loses its only observer.
    let mut gate_driven = vec![false; n.num_nets()];
    for g in n.gates() {
        gate_driven[g.output.index()] = true;
    }
    let victim = (0..n.num_gates())
        .map(|i| GateId::new(i as u32))
        .find(|&g| {
            n.gate(g)
                .inputs
                .first()
                .is_some_and(|i| !gate_driven[i.index()])
        })
        .expect("a gate fed by a flop or PI exists");
    let out = n.gate(victim).output;
    n.gate_mut(victim).inputs[0] = out;
    assert_only(&run_netlist(&n), "NET003", Severity::Error);
}

#[test]
fn orphaned_gate_is_net004() {
    let mut n = fx().study.design.netlist.clone();
    // Find a gate observed by exactly one other gate (no flop D, no PO),
    // then point that reader elsewhere.
    let mut gate_readers: Vec<Vec<GateId>> = vec![Vec::new(); n.num_nets()];
    let mut flop_read = vec![false; n.num_nets()];
    for (i, g) in n.gates().iter().enumerate() {
        for &inp in &g.inputs {
            gate_readers[inp.index()].push(GateId::new(i as u32));
        }
    }
    for f in n.flops() {
        flop_read[f.d.index()] = true;
    }
    for &po in n.primary_outputs() {
        flop_read[po.index()] = true;
    }
    let victim = n
        .gates()
        .iter()
        .enumerate()
        .find(|(_, g)| gate_readers[g.output.index()].len() == 1 && !flop_read[g.output.index()])
        .map(|(i, _)| GateId::new(i as u32))
        .expect("a singly-observed gate exists");
    let out = n.gate(victim).output;
    let reader = gate_readers[out.index()][0];
    let replacement = n.primary_inputs()[0];
    for inp in &mut n.gate_mut(reader).inputs {
        if *inp == out {
            *inp = replacement;
        }
    }
    let report = run_netlist(&n);
    assert_only(&report, "NET004", Severity::Warn);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.span == scap_lint::Span::Gate(victim)),
        "the orphaned gate itself must be flagged"
    );
}

#[test]
fn fanout_explosion_is_net005() {
    let mut n = fx().study.design.netlist.clone();
    let pi = n.primary_inputs()[0];
    let extra = n.num_gates().min(400);
    for i in 0..extra {
        n.gate_mut(GateId::new(i as u32)).inputs.push(pi);
    }
    let report = run_netlist(&n);
    assert_only(&report, "NET005", Severity::Warn);
    assert_eq!(report.findings.len(), 1, "only the exploded net is flagged");
}

#[test]
fn cross_block_cycle_is_net006() {
    let mut n = fx().study.design.netlist.clone();
    // Find an existing combinational arc a→b between blocks, then add the
    // reverse arc through a gate with no gate-level readers (so no
    // gate-level cycle can form and NET003 stays mute).
    let mut driving_block = vec![None; n.num_nets()];
    for g in n.gates() {
        driving_block[g.output.index()] = Some(g.block);
    }
    let (a, b) = n
        .gates()
        .iter()
        .flat_map(|g| {
            g.inputs
                .iter()
                .filter_map(|i| driving_block[i.index()])
                .filter(|&src| src != g.block)
                .map(|src| (src, g.block))
                .collect::<Vec<_>>()
        })
        .next()
        .expect("a cross-block combinational arc exists");
    let mut gate_read = vec![false; n.num_nets()];
    for g in n.gates() {
        for &inp in &g.inputs {
            gate_read[inp.index()] = true;
        }
    }
    let sink = (0..n.num_gates())
        .map(|i| GateId::new(i as u32))
        .find(|&g| n.gate(g).block == a && !gate_read[n.gate(g).output.index()])
        .expect("block a has a gate feeding only flops");
    let back_net = n
        .gates()
        .iter()
        .find(|g| g.block == b)
        .map(|g| g.output)
        .expect("block b has a gate");
    n.gate_mut(sink).inputs.push(back_net);
    let report = run_netlist(&n);
    assert_only(&report, "NET006", Severity::Error);
    let flagged: Vec<_> = report.findings.iter().map(|f| &f.span).collect();
    assert!(flagged.contains(&&scap_lint::Span::Block(a)));
    assert!(flagged.contains(&&scap_lint::Span::Block(b)));
}

/// `(chain, members in position order)` of a scanned netlist.
fn chains(n: &Netlist) -> Vec<(u16, Vec<FlopId>)> {
    let mut out: Vec<(u16, Vec<FlopId>)> = Vec::new();
    for (i, f) in n.flops().iter().enumerate() {
        let Some(role) = f.scan else { continue };
        let id = FlopId::new(i as u32);
        match out.iter_mut().find(|(c, _)| *c == role.chain) {
            Some((_, m)) => m.push(id),
            None => out.push((role.chain, vec![id])),
        }
    }
    out.sort_by_key(|(c, _)| *c);
    for (_, m) in &mut out {
        m.sort_by_key(|&f| n.flop(f).scan.map(|r| r.position));
    }
    out
}

#[test]
fn duplicate_chain_position_is_scan001() {
    let mut n = fx().study.design.netlist.clone();
    let (_, members) = chains(&n)
        .into_iter()
        .find(|(_, m)| m.len() >= 2)
        .expect("a chain with two cells exists");
    let mut role = n.flop(members[1]).scan.unwrap();
    role.position = n.flop(members[0]).scan.unwrap().position;
    n.flop_mut(members[1]).scan = Some(role);
    assert_only(&run_netlist(&n), "SCAN001", Severity::Error);
}

#[test]
fn lopsided_chains_are_scan002() {
    let mut n = fx().study.design.netlist.clone();
    // Merge three same-domain chains into one: the merged chain is ~3x
    // its group average, past the balance threshold.
    let all = chains(&n);
    let domain = |n: &Netlist, m: &[FlopId]| {
        let f = n.flop(m[0]);
        (f.clock, f.edge)
    };
    let key = domain(&n, &all[0].1);
    let group: Vec<_> = all
        .iter()
        .filter(|(_, m)| domain(&n, m) == key)
        .take(3)
        .cloned()
        .collect();
    assert!(group.len() == 3, "need three chains in one clock domain");
    let target = group[0].0;
    let mut next = group[0].1.len() as u32;
    for (_, members) in &group[1..] {
        for &f in members {
            n.flop_mut(f).scan = Some(scap::netlist::ScanRole {
                chain: target,
                position: next,
            });
            next += 1;
        }
    }
    assert_only(&run_netlist(&n), "SCAN002", Severity::Warn);
}

#[test]
fn mixed_clock_domains_in_chain_is_scan003() {
    let mut n = fx().study.design.netlist.clone();
    assert!(n.clocks().len() >= 2, "case study has multiple domains");
    let (_, members) = chains(&n)
        .into_iter()
        .find(|(_, m)| m.len() >= 3)
        .expect("a chain with three cells exists");
    // Re-clock a middle cell so the chain's first member (and with it the
    // SCAN002 grouping) is untouched.
    let victim = members[1];
    let old = n.flop(victim).clock;
    let other = (0..n.clocks().len() as u32)
        .map(ClockId::new)
        .find(|&c| c != old)
        .unwrap();
    n.flop_mut(victim).clock = other;
    assert_only(&run_netlist(&n), "SCAN003", Severity::Error);
}

#[test]
fn unscanned_flop_is_scan004() {
    let mut n = fx().study.design.netlist.clone();
    // Drop the *last* cell of a chain so the remaining positions stay
    // dense and SCAN001 stays mute.
    let (_, members) = chains(&n)
        .into_iter()
        .find(|(_, m)| m.len() >= 2)
        .expect("a chain with two cells exists");
    n.flop_mut(*members.last().unwrap()).scan = None;
    assert_only(&run_netlist(&n), "SCAN004", Severity::Error);
}

#[test]
fn clock_tree_cycle_is_clk001() {
    let f = fx();
    let mut tree = f.study.clock_tree.clone();
    let last = tree.buffers().len() as u32 - 1;
    tree.buffer_mut(last).parent = Some(last);
    let ctx = LintContext::new(&f.study.design.netlist).with_timing(&f.study.annotation, &tree);
    assert_only(&run_all(&ctx), "CLK001", Severity::Error);
}

#[test]
fn cut_clock_buffer_delay_is_clk002() {
    let f = fx();
    let mut tree = f.study.clock_tree.clone();
    tree.buffer_mut(0).delay_ps = f64::NAN;
    let ctx = LintContext::new(&f.study.design.netlist).with_timing(&f.study.annotation, &tree);
    let report = run_all(&ctx);
    assert_only(&report, "CLK002", Severity::Error);
    assert_eq!(report.findings[0].span, scap_lint::Span::Buffer(0));
}

#[test]
fn negative_annotated_delay_is_tim002() {
    let f = fx();
    let mut ann = f.study.annotation.clone();
    ann.delays_mut().0[3] = -12.0;
    let ctx = LintContext::new(&f.study.design.netlist).with_timing(&ann, &f.study.clock_tree);
    let report = run_all(&ctx);
    assert_only(&report, "TIM002", Severity::Error);
    assert_eq!(
        report.findings[0].span,
        scap_lint::Span::Gate(GateId::new(3))
    );
}

#[test]
fn nan_clk_to_q_is_tim002() {
    let f = fx();
    let mut ann = f.study.annotation.clone();
    ann.delays_mut().2[0] = f64::NAN;
    let ctx = LintContext::new(&f.study.design.netlist).with_timing(&ann, &f.study.clock_tree);
    let report = run_all(&ctx);
    assert_only(&report, "TIM002", Severity::Error);
    assert_eq!(
        report.findings[0].span,
        scap_lint::Span::Flop(FlopId::new(0))
    );
}

#[test]
fn negative_nominal_slack_is_tim001() {
    let f = fx();
    let mut spec = clean_hand_spec();
    spec.nominal_slack_ps[1].1 = -340.0;
    let ctx = LintContext::new(&f.study.design.netlist).with_sta(spec);
    let report = run_all(&ctx);
    assert_only(&report, "TIM001", Severity::Error);
    assert_eq!(
        report.findings[0].span,
        scap_lint::Span::Flop(FlopId::new(1))
    );
}

#[test]
fn unreachable_endpoint_is_tim003() {
    let f = fx();
    let mut spec = clean_hand_spec();
    spec.unreachable_endpoints.push(FlopId::new(0));
    let ctx = LintContext::new(&f.study.design.netlist).with_sta(spec);
    let report = run_all(&ctx);
    assert_only(&report, "TIM003", Severity::Warn);
    assert_eq!(
        report.findings[0].span,
        scap_lint::Span::Flop(FlopId::new(0))
    );
}

#[test]
fn thin_derated_slack_is_tim004() {
    let f = fx();
    let mut spec = clean_hand_spec();
    spec.derated_slack_ps.as_mut().unwrap()[0].1 = 50.0;
    let ctx = LintContext::new(&f.study.design.netlist).with_sta(spec);
    let report = run_all(&ctx);
    assert_only(&report, "TIM004", Severity::Warn);
    assert_eq!(
        report.findings[0].span,
        scap_lint::Span::Flop(FlopId::new(0))
    );
}

#[test]
fn derated_critical_path_over_period_is_tim005() {
    let f = fx();
    let mut spec = clean_hand_spec();
    // Slacks stay comfortably positive so TIM001/TIM004 are mute; only
    // the recorded critical-path length contradicts the period.
    spec.derated_critical_path_ps = Some(spec.period_ps + 1_250.0);
    let clock = spec.clock;
    let ctx = LintContext::new(&f.study.design.netlist).with_sta(spec);
    let report = run_all(&ctx);
    assert_only(&report, "TIM005", Severity::Error);
    assert_eq!(report.findings[0].span, scap_lint::Span::Clock(clock));
}

#[test]
fn zero_frequency_clock_is_clk003() {
    let mut n = fx().study.design.netlist.clone();
    n.clock_mut(ClockId::new(0)).frequency_hz = 0.0;
    assert_only(&run_netlist(&n), "CLK003", Severity::Error);
}

#[test]
fn grid_island_is_grid001() {
    let f = fx();
    let mut mesh = MeshSpec::from_grid(MeshKind::Vdd, &f.grid);
    // Cut every branch around the first non-pad node; keep the (clean)
    // matrix so GRID003 stays mute.
    let island = (0..mesh.num_nodes as u32)
        .find(|&i| !mesh.pads[i as usize])
        .expect("a non-pad node exists");
    mesh.branches
        .retain(|&(a, b, _)| a != island && b != island);
    let ctx = LintContext::new(&f.study.design.netlist).with_mesh(mesh);
    let report = run_all(&ctx);
    assert_only(&report, "GRID001", Severity::Error);
    assert_eq!(
        report.findings[0].span,
        scap_lint::Span::GridNode(MeshKind::Vdd, island)
    );
}

#[test]
fn negative_conductance_is_grid002() {
    let f = fx();
    let mut mesh = MeshSpec::from_grid(MeshKind::Vss, &f.grid);
    mesh.branches.push((0, 1, -2.0));
    let ctx = LintContext::new(&f.study.design.netlist).with_mesh(mesh);
    assert_only(&run_all(&ctx), "GRID002", Severity::Error);
}

#[test]
fn asymmetric_matrix_is_grid003() {
    let f = fx();
    let mut mesh = MeshSpec::from_grid(MeshKind::Vdd, &f.grid);
    let (_, triplets) = mesh.matrix.as_mut().unwrap();
    let entry = triplets
        .iter_mut()
        .find(|(r, c, _)| r != c)
        .expect("an off-diagonal entry exists");
    entry.2 *= 2.0;
    let ctx = LintContext::new(&f.study.design.netlist).with_mesh(mesh);
    assert_only(&run_all(&ctx), "GRID003", Severity::Error);
}

/// A mesh of negative resistance has no Cholesky factor: building it
/// panics at the first pivot, and GRID003 flags the same matrix.
#[test]
fn non_spd_grid_panics_and_is_grid003() {
    let f = fx();
    let config = GridConfig {
        branch_resistance_ohm: -1.0,
        ..f.study.grid
    };
    let die = f.study.design.floorplan.die;
    let panic = std::panic::catch_unwind(|| PowerGrid::new(die, config))
        .expect_err("a non-positive-definite grid must not build");
    let message = panic
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert!(
        message.contains("pivot") && message.contains("at row 0"),
        "{message}"
    );
    let ctx = LintContext::new(&f.study.design.netlist)
        .with_mesh(MeshSpec::from_config(MeshKind::Vdd, &config));
    let report = run_all(&ctx);
    assert!(
        report.findings.iter().any(|x| x.rule == "GRID003"
            && x.span == scap_lint::Span::GridNode(MeshKind::Vdd, 0)
            && x.severity == Severity::Error),
        "GRID003 must flag row 0 of the matrix the factor rejected"
    );
}

#[test]
fn dropped_care_bit_is_pat001() {
    let f = fx();
    let mut set = f.flow.patterns.clone();
    let (p, i) = set
        .source
        .iter()
        .enumerate()
        .find_map(|(p, s)| {
            s.load
                .iter()
                .position(|b| b.to_bool().is_some())
                .map(|i| (p, i))
        })
        .expect("a load care bit exists");
    let care = set.source[p].load[i].to_bool().unwrap();
    set.filled[p].load[i] = !care;
    let ctx = LintContext::new(&f.study.design.netlist).with_patterns(&set);
    let report = run_all(&ctx);
    assert_only(&report, "PAT001", Severity::Error);
    assert_eq!(report.findings[0].span, scap_lint::Span::Pattern(p));
}

#[test]
fn noisy_quiet_block_is_pat002() {
    let f = fx();
    let quiet = quiet_spec(f);
    let stage = quiet
        .stages
        .iter()
        .find(|s| !s.quiet_blocks.is_empty() && s.range.1 - s.range.0 >= quiet.min_patterns)
        .expect("a stage with quiet blocks exists");
    let block = stage.quiet_blocks[0];
    let mut set = f.flow.patterns.clone();
    // Blast ones into the block's don't-care load bits only, so every
    // source care bit survives and PAT001 stays mute.
    let cells: Vec<usize> = f
        .study
        .design
        .netlist
        .flops_in_block(block)
        .map(|fl| fl.index())
        .collect();
    for p in stage.range.0..stage.range.1 {
        for &c in &cells {
            if set.source[p].load[c].to_bool().is_none() {
                set.filled[p].load[c] = true;
            }
        }
    }
    let ctx = LintContext::new(&f.study.design.netlist)
        .with_patterns(&set)
        .with_quiet(quiet.clone());
    let report = run_all(&ctx);
    assert_only(&report, "PAT002", Severity::Error);
    assert_eq!(report.findings[0].span, scap_lint::Span::Block(block));
}

#[test]
fn emitting_an_over_threshold_pattern_is_pat003() {
    let f = fx();
    let mut screen = screen_spec(f);
    let p = screen.emitted[0];
    screen.pattern_block_mw[p][0] = screen.thresholds_mw[0] * 2.0;
    let ctx = LintContext::new(&f.study.design.netlist).with_screen(screen);
    let report = run_all(&ctx);
    assert_only(&report, "PAT003", Severity::Error);
    assert_eq!(report.findings[0].span, scap_lint::Span::Pattern(p));
}

#[test]
fn emitting_an_unmeasured_pattern_is_pat003() {
    let f = fx();
    let mut screen = screen_spec(f);
    screen.emitted.push(screen.pattern_block_mw.len());
    let ctx = LintContext::new(&f.study.design.netlist).with_screen(screen);
    assert_only(&run_all(&ctx), "PAT003", Severity::Error);
}
