//! Power-grid-layer rules (`GRID00x`).
//!
//! All three rules iterate over every [`MeshSpec`] in the
//! context — for the case study that is the VDD and the VSS mesh — and
//! re-derive connectivity and the stamped matrix independently of the
//! grid's Cholesky factor.

use crate::context::{LintContext, MeshSpec};
use crate::diag::{Finding, Severity, Span};
use crate::registry::Rule;
use std::collections::BTreeMap;

/// `GRID001` — every mesh node must reach at least one pad through
/// branches of positive conductance; an island's IR-drop is undefined
/// (the pinned solve would report whatever the reduced system happens to
/// contain for it).
#[derive(Debug)]
pub struct PadReachability;

impl PadReachability {
    fn check(&self, mesh: &MeshSpec, out: &mut Vec<Finding>) {
        if mesh.num_nodes == 0 {
            return;
        }
        if !mesh.pads.iter().any(|&p| p) {
            out.push(self.finding(
                Span::GridNode(mesh.kind, 0),
                format!("{} mesh has no pads at all", mesh.kind.label()),
            ));
            return;
        }
        // Union-find over conducting branches.
        let mut parent: Vec<u32> = (0..mesh.num_nodes as u32).collect();
        fn root(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for &(a, b, g) in &mesh.branches {
            if !g.is_finite() || g <= 0.0 {
                continue; // non-conducting; GRID002 reports the value
            }
            if (a as usize) < mesh.num_nodes && (b as usize) < mesh.num_nodes {
                let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
                parent[ra as usize] = rb;
            }
        }
        let mut pad_component = vec![false; mesh.num_nodes];
        for (i, &is_pad) in mesh.pads.iter().enumerate() {
            if is_pad {
                let r = root(&mut parent, i as u32);
                pad_component[r as usize] = true;
            }
        }
        // One finding per island, anchored at its smallest node id.
        let mut island_size: BTreeMap<u32, usize> = BTreeMap::new();
        for i in 0..mesh.num_nodes as u32 {
            let r = root(&mut parent, i);
            if !pad_component[r as usize] {
                *island_size.entry(r).or_insert(0) += 1;
            }
        }
        let mut island_anchor: BTreeMap<u32, u32> = BTreeMap::new();
        for i in 0..mesh.num_nodes as u32 {
            let r = root(&mut parent, i);
            if !pad_component[r as usize] {
                island_anchor.entry(r).or_insert(i);
            }
        }
        for (r, anchor) in island_anchor {
            out.push(self.finding(
                Span::GridNode(mesh.kind, anchor),
                format!(
                    "{} mesh island of {} node(s) cannot reach any pad",
                    mesh.kind.label(),
                    island_size[&r]
                ),
            ));
        }
    }
}

impl Rule for PadReachability {
    fn id(&self) -> &'static str {
        "GRID001"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn layer(&self) -> &'static str {
        "grid"
    }
    fn description(&self) -> &'static str {
        "mesh island: a grid node cannot reach any supply pad (on either the VDD or VSS mesh)"
    }
    fn metric(&self) -> &'static str {
        "lint.rule.grid001"
    }
    fn run(&self, ctx: &LintContext, out: &mut Vec<Finding>) {
        for mesh in &ctx.meshes {
            self.check(mesh, out);
        }
    }
}

/// `GRID002` — every branch conductance must be finite and positive, and
/// every branch endpoint in range.
#[derive(Debug)]
pub struct ConductanceSanity;

impl Rule for ConductanceSanity {
    fn id(&self) -> &'static str {
        "GRID002"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn layer(&self) -> &'static str {
        "grid"
    }
    fn description(&self) -> &'static str {
        "non-positive, non-finite or out-of-range mesh branch"
    }
    fn metric(&self) -> &'static str {
        "lint.rule.grid002"
    }
    fn run(&self, ctx: &LintContext, out: &mut Vec<Finding>) {
        for mesh in &ctx.meshes {
            for &(a, b, g) in &mesh.branches {
                if a as usize >= mesh.num_nodes || b as usize >= mesh.num_nodes {
                    out.push(self.finding(
                        Span::GridNode(mesh.kind, a.min(b)),
                        format!(
                            "{} branch ({a}, {b}) references a node outside the {}-node mesh",
                            mesh.kind.label(),
                            mesh.num_nodes
                        ),
                    ));
                } else if !g.is_finite() || g <= 0.0 {
                    out.push(self.finding(
                        Span::GridNode(mesh.kind, a),
                        format!(
                            "{} branch ({a}, {b}) has conductance {g} S",
                            mesh.kind.label()
                        ),
                    ));
                }
            }
        }
    }
}

/// `GRID003` — the assembled reduced Laplacian must be symmetric with a
/// positive, (weakly) dominant diagonal. With every node tied to a pad
/// (`GRID001`) such a matrix is positive definite, so its Cholesky factor
/// exists; `PowerGrid::new` panics on a matrix that fails.
#[derive(Debug)]
pub struct MatrixShape;

impl MatrixShape {
    fn check(&self, mesh: &MeshSpec, out: &mut Vec<Finding>) {
        let Some((dim, triplets)) = &mesh.matrix else {
            return;
        };
        let dim = *dim;
        let mut entries: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for &(r, c, v) in triplets {
            if r as usize >= dim || c as usize >= dim {
                out.push(self.finding(
                    Span::GridNode(mesh.kind, r),
                    format!(
                        "{} matrix entry ({r}, {c}) outside the {dim}-row system",
                        mesh.kind.label()
                    ),
                ));
                continue;
            }
            if !v.is_finite() {
                out.push(self.finding(
                    Span::GridNode(mesh.kind, r),
                    format!("{} matrix entry ({r}, {c}) is {v}", mesh.kind.label()),
                ));
            }
            *entries.entry((r, c)).or_insert(0.0) += v;
        }
        // Symmetry: every (r, c) must match (c, r).
        for (&(r, c), &v) in &entries {
            if r >= c {
                continue;
            }
            let mirror = entries.get(&(c, r)).copied().unwrap_or(0.0);
            let scale = v.abs().max(mirror.abs()).max(1e-12);
            if (v - mirror).abs() > 1e-9 * scale {
                out.push(self.finding(
                    Span::GridNode(mesh.kind, r),
                    format!(
                        "{} matrix is asymmetric at ({r}, {c}): {v} vs {mirror}",
                        mesh.kind.label()
                    ),
                ));
            }
        }
        // Positive diagonal and weak row dominance.
        for row in 0..dim as u32 {
            let diag = entries.get(&(row, row)).copied().unwrap_or(0.0);
            if diag <= 0.0 {
                out.push(self.finding(
                    Span::GridNode(mesh.kind, row),
                    format!(
                        "{} matrix row {row} has non-positive diagonal {diag}",
                        mesh.kind.label()
                    ),
                ));
                continue;
            }
            let off: f64 = entries
                .range((row, 0)..=(row, u32::MAX))
                .filter(|(&(_, c), _)| c != row)
                .map(|(_, &v)| v.abs())
                .sum();
            if off > diag * (1.0 + 1e-9) {
                out.push(self.finding(
                    Span::GridNode(mesh.kind, row),
                    format!(
                        "{} matrix row {row} is not diagonally dominant: |off-diag| {off} > diag {diag}",
                        mesh.kind.label()
                    ),
                ));
            }
        }
    }
}

impl Rule for MatrixShape {
    fn id(&self) -> &'static str {
        "GRID003"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn layer(&self) -> &'static str {
        "grid"
    }
    fn description(&self) -> &'static str {
        "stamped matrix not symmetric / diagonally dominant — the Cholesky factor may not exist"
    }
    fn metric(&self) -> &'static str {
        "lint.rule.grid003"
    }
    fn run(&self, ctx: &LintContext, out: &mut Vec<Finding>) {
        for mesh in &ctx.meshes {
            self.check(mesh, out);
        }
    }
}
