//! The input bundle a lint run checks.
//!
//! Every layer beyond the netlist is optional: rules silently skip layers
//! that are absent, so a context can be as small as one netlist (unit
//! tests) or as large as the full case study (the CLI's `scap lint`).

use crate::diag::MeshKind;
use scap_dft::PatternSet;
use scap_netlist::{BlockId, ClockId, FlopId, Netlist};
use scap_power::{GridConfig, PowerGrid};
use scap_timing::{ClockTree, DelayAnnotation, SlackSta};

/// An assembled reduced system: `(dimension, (row, col, value) triplets)`.
pub type SystemTriplets = (usize, Vec<(u32, u32, f64)>);

/// One supply mesh in checkable form: the branch list the Laplacian was
/// stamped from, the pad flags, and (optionally) the assembled reduced
/// matrix the grid factors.
#[derive(Clone, Debug)]
pub struct MeshSpec {
    /// Which supply network this is.
    pub kind: MeshKind,
    /// Total node count (pads included).
    pub num_nodes: usize,
    /// `(node_a, node_b, conductance_S)` branch triples.
    pub branches: Vec<(u32, u32, f64)>,
    /// Pad flag per node.
    pub pads: Vec<bool>,
    /// Assembled reduced matrix.
    pub matrix: Option<SystemTriplets>,
}

impl MeshSpec {
    /// Captures a built [`PowerGrid`] as a checkable mesh, including the
    /// assembled solver matrix.
    pub fn from_grid(kind: MeshKind, grid: &PowerGrid) -> Self {
        Self::from_config(kind, grid.config())
    }

    /// Captures a mesh from its configuration alone. Unlike
    /// [`MeshSpec::from_grid`] this needs no factored grid, so it also
    /// covers a matrix [`PowerGrid::new`] rejects.
    pub fn from_config(kind: MeshKind, config: &GridConfig) -> Self {
        MeshSpec {
            kind,
            num_nodes: config.nodes_per_side * config.nodes_per_side,
            branches: config.branches(),
            pads: config.pads(),
            matrix: Some(config.system_triplets()),
        }
    }
}

/// One stage of a staged (noise-aware) flow with the blocks it promised
/// to keep quiet.
#[derive(Clone, Debug)]
pub struct QuietStage {
    /// Stage label, e.g. `"step1: B1-B4"`.
    pub label: String,
    /// Half-open pattern index range `[start, end)` of the stage.
    pub range: (usize, usize),
    /// Blocks that must stay (near) toggle-free while these patterns
    /// shift and launch — the blocks targeted only by later stages.
    pub quiet_blocks: Vec<BlockId>,
}

/// Declaration of which blocks each flow stage keeps quiet, with the
/// tolerance the `PAT002` rule enforces.
#[derive(Clone, Debug)]
pub struct QuietSpec {
    /// The stages in application order.
    pub stages: Vec<QuietStage>,
    /// Maximum allowed aggregate ones-fraction of a quiet block's scan
    /// load over a stage (fill-0 keeps the true fraction far below this).
    pub max_ones_fraction: f64,
    /// Stages with fewer patterns than this are skipped — a handful of
    /// patterns is not a meaningful aggregate.
    pub min_patterns: usize,
}

impl QuietSpec {
    /// A spec with the default tolerance (25 % ones, ≥ 5 patterns).
    pub fn new(stages: Vec<QuietStage>) -> Self {
        QuietSpec {
            stages,
            max_ones_fraction: 0.25,
            min_patterns: 5,
        }
    }

    /// Derives the quiet-block declaration of a staged flow from its
    /// stage plan and the per-stage pattern offsets the flow reported.
    ///
    /// `stages` is the plan (label, targeted blocks) in application
    /// order; `steps` is the matching `(label, first pattern index)`
    /// list from the flow result; `total_patterns` closes the last
    /// range. While stage `k` runs, the blocks targeted only by later
    /// stages must stay quiet — exactly the paper's staging argument.
    pub fn from_staged_flow(
        stages: &[(String, Vec<BlockId>)],
        steps: &[(String, usize)],
        total_patterns: usize,
    ) -> Self {
        let mut out = Vec::new();
        for (i, (label, start)) in steps.iter().enumerate() {
            let end = steps.get(i + 1).map_or(total_patterns, |(_, s)| *s);
            let quiet_blocks: Vec<BlockId> = stages
                .iter()
                .skip(i + 1)
                .flat_map(|(_, blocks)| blocks.iter().copied())
                .collect();
            out.push(QuietStage {
                label: label.clone(),
                range: (*start, end),
                quiet_blocks,
            });
        }
        QuietSpec::new(out)
    }
}

/// Precomputed static-timing results for the `TIM00x` rules: per-endpoint
/// nominal (and optionally IR-drop-derated) slacks for one clock domain.
///
/// The spec is plain data so rules stay pure and fast: the caller runs
/// [`SlackSta`] (nominal, and derated via
/// `scap_timing::scaling::scale_annotation`) once and captures the
/// results here, typically via [`TimingSpec::from_analyses`].
#[derive(Clone, Debug)]
pub struct TimingSpec {
    /// The analyzed clock domain.
    pub clock: ClockId,
    /// The domain's tester period, ps.
    pub period_ps: f64,
    /// Per-endpoint nominal slack, ps.
    pub nominal_slack_ps: Vec<(FlopId, f64)>,
    /// Per-endpoint slack under IR-drop-derated delays, ps (absent when
    /// no derated analysis ran).
    pub derated_slack_ps: Option<Vec<(FlopId, f64)>>,
    /// Critical-path delay under derated delays, ps.
    pub derated_critical_path_ps: Option<f64>,
    /// Endpoints unreachable from any launch flop or primary input.
    pub unreachable_endpoints: Vec<FlopId>,
}

impl TimingSpec {
    /// Captures nominal (and optionally derated) [`SlackSta`] results.
    pub fn from_analyses(
        netlist: &Netlist,
        clock: ClockId,
        nominal: &SlackSta,
        derated: Option<&SlackSta>,
    ) -> Self {
        TimingSpec {
            clock,
            period_ps: nominal.period_ps(),
            nominal_slack_ps: nominal
                .endpoints()
                .iter()
                .map(|e| (e.flop, e.slack_ps()))
                .collect(),
            derated_slack_ps: derated.map(|d| {
                d.endpoints()
                    .iter()
                    .map(|e| (e.flop, e.slack_ps()))
                    .collect()
            }),
            derated_critical_path_ps: derated.map(|d| d.critical_path_ps()),
            unreachable_endpoints: nominal.unreachable_endpoints(netlist),
        }
    }
}

/// Declaration that a pattern set was SCAP-screened: per-block thresholds,
/// the measured per-pattern per-block SCAP, and which patterns the flow
/// emits. `PAT003` checks that no emitted pattern exceeds a threshold.
#[derive(Clone, Debug)]
pub struct ScreenSpec {
    /// Screening threshold per block (mW), indexed by [`BlockId::index`].
    pub thresholds_mw: Vec<f64>,
    /// Measured SCAP per pattern per block (mW): `[pattern][block]`.
    pub pattern_block_mw: Vec<Vec<f64>>,
    /// Indices of the patterns emitted after screening.
    pub emitted: Vec<usize>,
}

/// Statistical thresholds for the outlier-style rules. The defaults are
/// deliberately generous: a clean generated design at any scale must
/// produce zero findings (the CI gate runs with `--deny warn`).
#[derive(Clone, Copy, Debug)]
pub struct LintConfig {
    /// A net's reader count is an outlier only above this floor…
    pub fanout_warn_floor: usize,
    /// …and above this multiple of the average reader count (`NET005`).
    pub fanout_warn_factor: f64,
    /// A chain is unbalanced when longer than this multiple of its
    /// domain-group average, plus one cell of rounding slack (`SCAN002`).
    pub balance_factor: f64,
    /// An endpoint whose *derated* slack falls below this margin is
    /// flagged by `TIM004` — it still meets timing nominally, but a
    /// supply droop beyond the derating assumption would fail it. The
    /// default is 1 % of the paper's 20 ns tester cycle.
    pub derated_slack_margin_ps: f64,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            fanout_warn_floor: 64,
            fanout_warn_factor: 16.0,
            balance_factor: 2.0,
            derated_slack_margin_ps: 200.0,
        }
    }
}

/// Everything one lint run looks at.
#[derive(Debug)]
pub struct LintContext<'a> {
    /// The netlist (required; scan rules read the roles stored on flops).
    pub netlist: &'a Netlist,
    /// Extracted delays, for `CLK002`.
    pub annotation: Option<&'a DelayAnnotation>,
    /// The synthesized clock tree, for `CLK001`/`CLK002`.
    pub clock_tree: Option<&'a ClockTree>,
    /// The supply meshes (typically VDD and VSS), for `GRID00x`.
    pub meshes: Vec<MeshSpec>,
    /// Generated patterns, for `PAT001`/`PAT002`.
    pub patterns: Option<&'a PatternSet>,
    /// Quiet-block declaration of a staged flow, for `PAT002`.
    pub quiet: Option<QuietSpec>,
    /// SCAP-screen declaration, for `PAT003`.
    pub screen: Option<ScreenSpec>,
    /// Precomputed STA results, for `TIM001`/`TIM003`-`TIM005`.
    pub sta: Option<TimingSpec>,
    /// Outlier thresholds.
    pub config: LintConfig,
}

impl<'a> LintContext<'a> {
    /// A minimal context: netlist only, every optional layer absent.
    pub fn new(netlist: &'a Netlist) -> Self {
        LintContext {
            netlist,
            annotation: None,
            clock_tree: None,
            meshes: Vec::new(),
            patterns: None,
            quiet: None,
            screen: None,
            sta: None,
            config: LintConfig::default(),
        }
    }

    /// Adds the timing layer.
    pub fn with_timing(
        mut self,
        annotation: &'a DelayAnnotation,
        clock_tree: &'a ClockTree,
    ) -> Self {
        self.annotation = Some(annotation);
        self.clock_tree = Some(clock_tree);
        self
    }

    /// Adds a supply mesh (call twice: VDD and VSS).
    pub fn with_mesh(mut self, mesh: MeshSpec) -> Self {
        self.meshes.push(mesh);
        self
    }

    /// Adds the pattern layer.
    pub fn with_patterns(mut self, patterns: &'a PatternSet) -> Self {
        self.patterns = Some(patterns);
        self
    }

    /// Adds the quiet-block declaration.
    pub fn with_quiet(mut self, quiet: QuietSpec) -> Self {
        self.quiet = Some(quiet);
        self
    }

    /// Adds the SCAP-screen declaration.
    pub fn with_screen(mut self, screen: ScreenSpec) -> Self {
        self.screen = Some(screen);
        self
    }

    /// Adds precomputed STA results.
    pub fn with_sta(mut self, sta: TimingSpec) -> Self {
        self.sta = Some(sta);
        self
    }
}
