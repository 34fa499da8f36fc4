//! Sparse SPD linear solve by Jacobi-preconditioned conjugate gradient.
//!
//! The grid Laplacian never changes between solves of the same mesh, so
//! assembly (triplets → reduced CSR) is split out into [`ReducedSystem`],
//! built once per [`crate::PowerGrid`] and reused for every right-hand
//! side. Per-solve vector allocations live in [`CgScratch`] so hot loops
//! (one solve per pattern) can recycle them. Every solve starts from
//! zero, so its result depends on the right-hand side alone.

/// A sparse symmetric positive-definite matrix in CSR-lite form, built by
/// the grid module.
#[derive(Clone, Debug)]
pub(crate) struct SparseSpd {
    /// Row start offsets into `cols`/`vals`, length `n + 1`.
    pub row_ptr: Vec<u32>,
    /// Column indices.
    pub cols: Vec<u32>,
    /// Values.
    pub vals: Vec<f64>,
    /// Diagonal, for the Jacobi preconditioner.
    pub diag: Vec<f64>,
}

impl SparseSpd {
    pub(crate) fn n(&self) -> usize {
        self.diag.len()
    }

    fn mul(&self, x: &[f64], y: &mut [f64]) {
        for (i, out) in y.iter_mut().enumerate().take(self.n()) {
            let mut acc = 0.0;
            for k in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                acc += self.vals[k] * x[self.cols[k] as usize];
            }
            *out = acc;
        }
    }
}

/// Reusable conjugate-gradient vectors: the right-hand side `b`, the
/// solution `x` and the work vectors. One instance per solver context;
/// every solve resizes them to the system at hand.
#[derive(Clone, Debug, Default)]
pub(crate) struct CgScratch {
    b: Vec<f64>,
    x: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

/// Solves `A·x = b` for SPD `A` by preconditioned conjugate gradient,
/// reading `b` from `scratch.b` and leaving `x` in `scratch.x`. Starts
/// from `x = 0`.
///
/// Iterates until the residual 2-norm falls below `tol · max(‖b‖, ε)` or
/// `max_iter` iterations.
fn solve_spd(a: &SparseSpd, tol: f64, max_iter: usize, scratch: &mut CgScratch) {
    let n = a.n();
    let b = &scratch.b;
    assert_eq!(b.len(), n);
    let x = &mut scratch.x;
    x.clear();
    x.resize(n, 0.0);
    let r = &mut scratch.r;
    r.clear();
    r.extend_from_slice(b);
    let z = &mut scratch.z;
    z.clear();
    z.extend(r.iter().zip(&a.diag).map(|(ri, di)| ri / di.max(1e-30)));
    let p = &mut scratch.p;
    p.clear();
    p.extend_from_slice(z);
    scratch.ap.clear();
    scratch.ap.resize(n, 0.0);
    let ap = &mut scratch.ap;
    let b_norm = dot(b, b).sqrt().max(1e-30);
    let mut rz = dot(r, z);
    let mut iterations = 0;
    for _ in 0..max_iter {
        if dot(r, r).sqrt() <= tol * b_norm {
            break;
        }
        iterations += 1;
        a.mul(p, ap);
        let p_ap = dot(p, ap);
        if p_ap.abs() < 1e-300 {
            break;
        }
        let alpha = rz / p_ap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        for i in 0..n {
            z[i] = r[i] / a.diag[i].max(1e-30);
        }
        let rz_new = dot(r, z);
        let beta = rz_new / rz.max(1e-300);
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    scap_obs::counter!("cg.solves").incr();
    scap_obs::counter!("cg.iterations").add(iterations as u64);
    if scap_obs::is_enabled() {
        // `r` holds the true residual at exit (recurrence or recompute).
        let res = dot(r, r).sqrt();
        scap_obs::float_gauge!("cg.residual.last").set(res);
        scap_obs::float_gauge!("cg.residual.max").set_max(res);
    }
}

/// A grid system reduced over its Dirichlet (pad) nodes: the free-node
/// Laplacian in CSR form plus the full-grid ↔ free-node index map.
/// Assembly happens once; solves reuse it for every right-hand side.
#[derive(Clone, Debug)]
pub(crate) struct ReducedSystem {
    num_nodes: usize,
    /// Free-node compact index per grid node (`u32::MAX` for pads).
    index: Vec<u32>,
    matrix: SparseSpd,
}

impl ReducedSystem {
    /// Assembles the reduced Laplacian from branch conductance triplets.
    ///
    /// # Panics
    ///
    /// Panics if `pinned.len() != num_nodes` or no node is pinned.
    pub(crate) fn build(num_nodes: usize, branches: &[(u32, u32, f64)], pinned: &[bool]) -> Self {
        assert_eq!(pinned.len(), num_nodes);
        assert!(pinned.iter().any(|&p| p), "at least one pad node required");
        // Map free nodes to a compact index space.
        let mut index = vec![u32::MAX; num_nodes];
        let mut free = 0u32;
        for i in 0..num_nodes {
            if !pinned[i] {
                index[i] = free;
                free += 1;
            }
        }
        let nf = free as usize;
        // Assemble the reduced Laplacian.
        let mut diag = vec![0.0f64; nf];
        let mut off: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nf];
        for &(a, b, g) in branches {
            let (a, b) = (a as usize, b as usize);
            match (pinned[a], pinned[b]) {
                (false, false) => {
                    let (ia, ib) = (index[a] as usize, index[b] as usize);
                    diag[ia] += g;
                    diag[ib] += g;
                    off[ia].push((ib as u32, -g));
                    off[ib].push((ia as u32, -g));
                }
                (false, true) => diag[index[a] as usize] += g,
                (true, false) => diag[index[b] as usize] += g,
                (true, true) => {}
            }
        }
        let mut row_ptr = Vec::with_capacity(nf + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for i in 0..nf {
            cols.push(i as u32);
            vals.push(diag[i]);
            for &(c, v) in &off[i] {
                cols.push(c);
                vals.push(v);
            }
            row_ptr.push(cols.len() as u32);
        }
        ReducedSystem {
            num_nodes,
            index,
            matrix: SparseSpd {
                row_ptr,
                cols,
                vals,
                diag,
            },
        }
    }

    /// Free (non-pad) node count.
    pub(crate) fn num_free(&self) -> usize {
        self.matrix.n()
    }

    /// The assembled reduced matrix as `(row, col, value)` triplets plus
    /// its dimension — a read-only view for external validation.
    pub(crate) fn triplets(&self) -> (usize, Vec<(u32, u32, f64)>) {
        let m = &self.matrix;
        let mut t = Vec::with_capacity(m.vals.len());
        for i in 0..m.n() {
            for k in m.row_ptr[i] as usize..m.row_ptr[i + 1] as usize {
                t.push((i as u32, m.cols[k], m.vals[k]));
            }
        }
        (m.n(), t)
    }

    /// Solves for the per-node current `injection` (A) and returns the
    /// voltage drop (V) at every grid node, 0 at pads. Only `scratch`'s
    /// allocations carry over between calls, never its values, so the
    /// result is the same whatever was solved before.
    pub(crate) fn solve_into(&self, injection: &[f64], scratch: &mut CgScratch) -> Vec<f64> {
        assert_eq!(injection.len(), self.num_nodes);
        let nf = self.num_free();
        let b = &mut scratch.b;
        b.clear();
        b.resize(nf, 0.0);
        for i in 0..self.num_nodes {
            if self.index[i] != u32::MAX {
                b[self.index[i] as usize] = injection[i];
            }
        }
        solve_spd(&self.matrix, 1e-8, 4 * nf + 64, scratch);
        self.scatter(&scratch.x)
    }

    /// Expands a reduced solution to the full node space (0 at pads).
    fn scatter(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.num_nodes];
        for i in 0..self.num_nodes {
            if self.index[i] != u32::MAX {
                out[i] = x[self.index[i] as usize];
            }
        }
        out
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assembles a system and solves it once with a fresh scratch.
    fn solve(
        num_nodes: usize,
        branches: &[(u32, u32, f64)],
        pinned: &[bool],
        injection: &[f64],
    ) -> Vec<f64> {
        ReducedSystem::build(num_nodes, branches, pinned)
            .solve_into(injection, &mut CgScratch::default())
    }

    /// Two resistors in series: pad -- R -- n1 -- R -- n2, draw I at n2.
    /// Drop at n1 = I·R, at n2 = 2·I·R.
    #[test]
    fn series_resistor_ladder() {
        let g = 1.0 / 10.0; // 10 Ω branches
        let drops = solve(
            3,
            &[(0, 1, g), (1, 2, g)],
            &[true, false, false],
            &[0.0, 0.0, 0.05],
        );
        assert!((drops[0] - 0.0).abs() < 1e-9);
        assert!((drops[1] - 0.5).abs() < 1e-6, "{}", drops[1]);
        assert!((drops[2] - 1.0).abs() < 1e-6, "{}", drops[2]);
    }

    /// Symmetric two-pad ladder: drop at the middle is I·R/2 (parallel
    /// paths to both pads).
    #[test]
    fn parallel_paths_halve_the_drop() {
        let g = 1.0; // 1 Ω branches
        let drops = solve(
            3,
            &[(0, 1, g), (1, 2, g)],
            &[true, false, true],
            &[0.0, 1.0, 0.0],
        );
        assert!((drops[1] - 0.5).abs() < 1e-6);
    }

    /// Superposition: doubling the current doubles every drop (linearity).
    #[test]
    fn solution_is_linear_in_current() {
        let branches: Vec<(u32, u32, f64)> = (0..9)
            .flat_map(|i| {
                let mut v = Vec::new();
                let (x, y) = (i % 3, i / 3);
                if x < 2 {
                    v.push((i, i + 1, 0.5));
                }
                if y < 2 {
                    v.push((i, i + 3, 0.5));
                }
                v
            })
            .collect();
        let mut pinned = vec![false; 9];
        pinned[0] = true;
        pinned[8] = true;
        let mut inj = vec![0.0; 9];
        inj[4] = 0.1;
        let d1 = solve(9, &branches, &pinned, &inj);
        inj[4] = 0.2;
        let d2 = solve(9, &branches, &pinned, &inj);
        for i in 0..9 {
            assert!((d2[i] - 2.0 * d1[i]).abs() < 1e-6, "node {i}");
        }
    }

    /// Conservation sanity: all drops are non-negative for non-negative
    /// injections (current only flows out of the grid at pads).
    #[test]
    fn drops_are_nonnegative() {
        let branches = vec![(0u32, 1u32, 2.0), (1, 2, 2.0), (2, 3, 2.0)];
        let drops = solve(
            4,
            &branches,
            &[true, false, false, false],
            &[0.0, 0.3, 0.0, 0.1],
        );
        for (i, d) in drops.iter().enumerate() {
            assert!(*d >= -1e-9, "node {i}: {d}");
        }
        // Monotone along the chain away from the single pad.
        assert!(drops[1] <= drops[2] + 1e-9);
        assert!(drops[2] <= drops[3] + 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one pad")]
    fn requires_a_pad() {
        let _ = solve(2, &[(0, 1, 1.0)], &[false, false], &[0.0, 1.0]);
    }

    /// The cached-system path with reused scratch is bit-identical to
    /// assembling and solving from scratch.
    #[test]
    fn cached_system_matches_rebuild_exactly() {
        let n = 40usize;
        let branches: Vec<(u32, u32, f64)> = (0..n as u32 - 1).map(|i| (i, i + 1, 0.4)).collect();
        let mut pinned = vec![false; n];
        pinned[0] = true;
        pinned[n - 1] = true;
        let system = ReducedSystem::build(n, &branches, &pinned);
        let mut scratch = CgScratch::default();
        for case in 0..5 {
            let inj: Vec<f64> = (0..n).map(|i| 1e-3 * ((i + case) % 7) as f64).collect();
            let reference = solve(n, &branches, &pinned, &inj);
            let reused = system.solve_into(&inj, &mut scratch);
            assert_eq!(reused.len(), reference.len());
            for (a, b) in reused.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}");
            }
        }
    }
}
