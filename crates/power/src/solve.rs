//! Direct solve of a grid's reduced Laplacian by banded Cholesky.
//!
//! A grid's matrix never changes between solves, so [`ReducedSystem`]
//! assembles and factors it once and every right-hand side after that
//! is one forward and one back substitution. The mesh is numbered row by
//! row, so a free node couples only to nodes at most one mesh row away:
//! the matrix is banded, its bandwidth at most the nodes per side, and
//! its Cholesky factor `L` (`A = L·Lᵀ`) fills in nothing outside that
//! band. A solve has no tolerance and no iteration count; its result
//! depends on the right-hand side alone.

/// Assembles the Laplacian reduced over the Dirichlet (pad) nodes.
///
/// Returns the free-node compact index of every grid node (`u32::MAX` at
/// pads), the free-node count, and the matrix as `(row, col, value)`
/// triplets: row by row, the diagonal first, then the off-diagonal
/// entries in branch order.
///
/// # Panics
///
/// Panics if no node is pinned.
pub(crate) fn assemble(
    branches: &[(u32, u32, f64)],
    pinned: &[bool],
) -> (Vec<u32>, usize, Vec<(u32, u32, f64)>) {
    assert!(pinned.iter().any(|&p| p), "at least one pad node required");
    let mut index = vec![u32::MAX; pinned.len()];
    let mut free = 0u32;
    for (slot, _) in index.iter_mut().zip(pinned).filter(|(_, &p)| !p) {
        *slot = free;
        free += 1;
    }
    let nf = free as usize;
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
    let mut triplets = Vec::with_capacity(nf + 2 * branches.len());
    for (i, row) in off.iter().enumerate() {
        triplets.push((i as u32, i as u32, diag[i]));
        triplets.extend(row.iter().map(|&(c, v)| (i as u32, c, v)));
    }
    (index, nf, triplets)
}

/// A grid system reduced over its pad nodes and factored: the full-grid
/// ↔ free-node index map plus the banded Cholesky factor of the reduced
/// Laplacian. Built once per grid; every solve reuses it.
#[derive(Clone, Debug)]
pub(crate) struct ReducedSystem {
    /// Free-node compact index per grid node (`u32::MAX` for pads).
    index: Vec<u32>,
    /// Lower bandwidth of the matrix and of its factor.
    bw: usize,
    /// `L`, `bw + 1` entries per row: row `i` holds columns
    /// `i - bw ..= i`, the diagonal last. Columns left of 0 are zero
    /// padding, so every row has the same shape.
    factor: Vec<f64>,
}

impl ReducedSystem {
    /// Assembles and factors the reduced Laplacian.
    ///
    /// # Panics
    ///
    /// Panics if no node is pinned, or if the matrix is not positive
    /// definite (a NaN or non-positive pivot), naming the pivot's row.
    pub(crate) fn build(branches: &[(u32, u32, f64)], pinned: &[bool]) -> Self {
        let (index, nf, triplets) = assemble(branches, pinned);
        let bw = triplets
            .iter()
            .map(|&(r, c, _)| r.abs_diff(c) as usize)
            .max()
            .unwrap_or(0);
        let w = bw + 1;
        // Entry (r, c) of row r sits at r·w + (c + bw - r) = (r + 1)·bw + c.
        let mut factor = vec![0.0f64; nf * w];
        for &(r, c, v) in triplets.iter().filter(|&&(r, c, _)| c <= r) {
            factor[(r as usize + 1) * bw + c as usize] += v;
        }
        for i in 0..nf {
            let (done, rest) = factor.split_at_mut(i * w);
            let row = &mut rest[..w];
            // L[i][j] = (A[i][j] - Σ_{k<j} L[i][k]·L[j][k]) / L[j][j] for
            // j = i - bw + p; the rows share columns i - bw .. j.
            for p in bw - bw.min(i)..bw {
                let d = bw - p;
                let row_j = &done[(i - d) * w..(i - d + 1) * w];
                row[p] = (row[p] - dot(&row[..p], &row_j[d..bw])) / row_j[bw];
            }
            let pivot = row[bw] - dot(&row[..bw], &row[..bw]);
            assert!(
                pivot > 0.0,
                "grid matrix is not positive definite: pivot {pivot} at row {i}"
            );
            row[bw] = pivot.sqrt();
        }
        ReducedSystem { index, bw, factor }
    }

    /// Solves for the per-node current `injection` (A) and returns the
    /// voltage drop (V) at every grid node, 0 at pads. `work` is the
    /// substitution vector; only its allocation carries over between
    /// calls, never its values.
    pub(crate) fn solve_into(&self, injection: &[f64], work: &mut Vec<f64>) -> Vec<f64> {
        assert_eq!(injection.len(), self.index.len());
        let (bw, w) = (self.bw, self.bw + 1);
        let x = work;
        x.clear();
        x.resize(self.factor.len() / w, 0.0);
        for (&k, &i) in self.index.iter().zip(injection) {
            if k != u32::MAX {
                x[k as usize] = i;
            }
        }
        // Forward: L·y = b.
        for (i, row) in self.factor.chunks_exact(w).enumerate() {
            let lo = bw - bw.min(i);
            x[i] = (x[i] - dot(&row[lo..bw], &x[i + lo - bw..i])) / row[bw];
        }
        // Backward, column by column: Lᵀ·x = y.
        for (i, row) in self.factor.chunks_exact(w).enumerate().rev() {
            x[i] /= row[bw];
            let (xi, lo) = (x[i], bw - bw.min(i));
            for (xk, l) in x[i + lo - bw..i].iter_mut().zip(&row[lo..bw]) {
                *xk -= l * xi;
            }
        }
        scap_obs::counter!("cg.solves").incr();
        self.index
            .iter()
            .map(|&k| if k == u32::MAX { 0.0 } else { x[k as usize] })
            .collect()
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Assembles, factors and solves a system once.
    fn solve(branches: &[(u32, u32, f64)], pinned: &[bool], injection: &[f64]) -> Vec<f64> {
        ReducedSystem::build(branches, pinned).solve_into(injection, &mut Vec::new())
    }

    /// The oracle: the same assembled system solved densely by Gaussian
    /// elimination with partial pivoting.
    fn dense_solve(branches: &[(u32, u32, f64)], pinned: &[bool], injection: &[f64]) -> Vec<f64> {
        let (index, nf, triplets) = assemble(branches, pinned);
        let mut a = vec![vec![0.0f64; nf + 1]; nf];
        for &(r, c, v) in &triplets {
            a[r as usize][c as usize] += v;
        }
        for (i, &k) in index.iter().enumerate() {
            if k != u32::MAX {
                a[k as usize][nf] = injection[i];
            }
        }
        for col in 0..nf {
            let pivot = (col..nf)
                .max_by(|&p, &q| a[p][col].abs().total_cmp(&a[q][col].abs()))
                .unwrap();
            a.swap(col, pivot);
            let (done, rest) = a.split_at_mut(col + 1);
            let top = &done[col];
            for row in rest {
                let f = row[col] / top[col];
                for (v, t) in row[col..].iter_mut().zip(&top[col..]) {
                    *v -= f * t;
                }
            }
        }
        let mut x = vec![0.0f64; nf];
        for r in (0..nf).rev() {
            let s: f64 = (r + 1..nf).map(|c| a[r][c] * x[c]).sum();
            x[r] = (a[r][nf] - s) / a[r][r];
        }
        index
            .iter()
            .map(|&k| if k == u32::MAX { 0.0 } else { x[k as usize] })
            .collect()
    }

    /// A `side × side` mesh numbered row by row, one random conductance
    /// per branch.
    fn random_mesh(side: usize, rng: &mut impl Rng) -> Vec<(u32, u32, f64)> {
        let mut branches = Vec::new();
        for i in 0..side * side {
            if i % side + 1 < side {
                branches.push((i as u32, i as u32 + 1, rng.gen_range(0.05..20.0)));
            }
            if i + side < side * side {
                branches.push((i as u32, (i + side) as u32, rng.gen_range(0.05..20.0)));
            }
        }
        branches
    }

    /// Two resistors in series: pad -- R -- n1 -- R -- n2, draw I at n2.
    /// Drop at n1 = I·R, at n2 = 2·I·R.
    #[test]
    fn series_resistor_ladder() {
        let g = 1.0 / 10.0; // 10 Ω branches
        let drops = solve(
            &[(0, 1, g), (1, 2, g)],
            &[true, false, false],
            &[0.0, 0.0, 0.05],
        );
        assert!((drops[0] - 0.0).abs() < 1e-9);
        assert!((drops[1] - 0.5).abs() < 1e-12, "{}", drops[1]);
        assert!((drops[2] - 1.0).abs() < 1e-12, "{}", drops[2]);
    }

    /// Symmetric two-pad ladder: drop at the middle is I·R/2 (parallel
    /// paths to both pads).
    #[test]
    fn parallel_paths_halve_the_drop() {
        let g = 1.0; // 1 Ω branches
        let drops = solve(
            &[(0, 1, g), (1, 2, g)],
            &[true, false, true],
            &[0.0, 1.0, 0.0],
        );
        assert!((drops[1] - 0.5).abs() < 1e-12);
    }

    /// Superposition: doubling the current doubles every drop (linearity).
    #[test]
    fn solution_is_linear_in_current() {
        let branches = random_mesh(3, &mut rand::rngs::StdRng::seed_from_u64(3));
        let mut pinned = vec![false; 9];
        pinned[0] = true;
        pinned[8] = true;
        let mut inj = vec![0.0; 9];
        inj[4] = 0.1;
        let d1 = solve(&branches, &pinned, &inj);
        inj[4] = 0.2;
        let d2 = solve(&branches, &pinned, &inj);
        for i in 0..9 {
            assert!((d2[i] - 2.0 * d1[i]).abs() < 1e-12, "node {i}");
        }
    }

    /// Conservation sanity: all drops are non-negative for non-negative
    /// injections (current only flows out of the grid at pads).
    #[test]
    fn drops_are_nonnegative() {
        let branches = vec![(0u32, 1u32, 2.0), (1, 2, 2.0), (2, 3, 2.0)];
        let drops = solve(
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
        let _ = solve(&[(0, 1, 1.0)], &[false, false], &[0.0, 1.0]);
    }

    /// A negative conductance makes the first free row's pivot negative.
    #[test]
    #[should_panic(expected = "pivot -2 at row 0")]
    fn non_positive_pivot_names_its_row() {
        let _ = ReducedSystem::build(&[(0, 1, -1.0), (1, 2, -1.0)], &[true, false, false]);
    }

    /// One factor reused across many right-hand sides is bit-identical
    /// to factoring afresh for each.
    #[test]
    fn cached_system_matches_rebuild_exactly() {
        let n = 40usize;
        let branches: Vec<(u32, u32, f64)> = (0..n as u32 - 1).map(|i| (i, i + 1, 0.4)).collect();
        let mut pinned = vec![false; n];
        pinned[0] = true;
        pinned[n - 1] = true;
        let system = ReducedSystem::build(&branches, &pinned);
        let mut work = Vec::new();
        for case in 0..5 {
            let inj: Vec<f64> = (0..n).map(|i| 1e-3 * ((i + case) % 7) as f64).collect();
            let reference = solve(&branches, &pinned, &inj);
            let reused = system.solve_into(&inj, &mut work);
            assert_eq!(reused.len(), reference.len());
            for (a, b) in reused.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random meshes (random pads, conductances and injections)
        /// the factored solve matches the dense oracle to 1e-9 of the
        /// peak drop.
        #[test]
        fn factored_solve_matches_dense_oracle(side in 2usize..=8, seed in any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let nodes = side * side;
            let branches = random_mesh(side, &mut rng);
            let pads = rng.gen_range(1..nodes);
            let mut pinned = vec![false; nodes];
            while pinned.iter().filter(|&&p| p).count() < pads {
                pinned[rng.gen_range(0..nodes)] = true;
            }
            let injection: Vec<f64> = (0..nodes).map(|_| rng.gen_range(0.0..0.05)).collect();
            let fast = solve(&branches, &pinned, &injection);
            let oracle = dense_solve(&branches, &pinned, &injection);
            let peak = oracle.iter().cloned().fold(0.0, f64::max);
            for (i, (a, b)) in fast.iter().zip(&oracle).enumerate() {
                prop_assert!((a - b).abs() <= 1e-9 * peak, "node {}: {} vs {}", i, a, b);
            }
        }
    }
}
