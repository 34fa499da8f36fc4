//! A zero-dependency CDCL SAT solver.
//!
//! Implements the standard conflict-driven clause-learning loop that
//! modern ATPG engines sit on: two-watched-literal unit propagation,
//! first-UIP conflict analysis with clause learning, VSIDS branching
//! with phase saving, and Luby-sequence restarts. A configurable
//! conflict limit turns an over-budget solve into
//! [`SolveResult::Unknown`] instead of running away, which is exactly
//! the "abort" semantics the ATPG hybrid flow needs: `Sat` yields a
//! test, `Unsat` is a *proof* of untestability, `Unknown` keeps the
//! fault classified as aborted.
//!
//! The solver is deliberately plain `std`: no allocator tricks, no
//! unsafe, no dependencies — every structure is a `Vec`. Clauses live
//! in a flat literal arena indexed by `u32` clause references, so the
//! hot propagation loop touches two contiguous slices and a watch list.
//!
//! # Example
//!
//! ```
//! use scap_sat::{Lit, Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// A propositional variable (0-based index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// The variable's 0-based index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable or its negation, packed as `var << 1 | sign`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// `v` if `sign` is true, `¬v` otherwise.
    #[inline]
    pub fn with_sign(v: Var, sign: bool) -> Lit {
        if sign {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the negated literal.
    #[inline]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense index (2·var + sign), for watch lists.
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A model exists; read it back with [`Solver::value`].
    Sat,
    /// The formula is unsatisfiable — a proof, not a give-up.
    Unsat,
    /// The conflict limit was hit before a verdict.
    Unknown,
}

/// Cumulative search statistics of a solver instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts hit (and analyzed) so far.
    pub conflicts: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals propagated by unit propagation.
    pub propagations: u64,
    /// Clauses learned from conflicts.
    pub learned_clauses: u64,
    /// Literals across all learned clauses.
    pub learned_literals: u64,
    /// Restarts performed.
    pub restarts: u64,
}

/// Three-valued assignment.
const L_UNDEF: u8 = 2;

/// Reference to a clause in the arena.
type ClauseRef = u32;
const CREF_NONE: ClauseRef = u32::MAX;

/// One watch-list entry: the clause plus a cached "blocker" literal —
/// if the blocker is already true the clause is satisfied and the
/// watcher never dereferences the arena.
#[derive(Clone, Copy, Debug)]
struct Watch {
    cref: ClauseRef,
    blocker: Lit,
}

/// Indexed binary max-heap over variable activities (the VSIDS order).
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// Position of each var in `heap`, `usize::MAX` when absent.
    pos: Vec<usize>,
}

impl VarOrder {
    fn grow_to(&mut self, n: usize) {
        self.pos.resize(n, usize::MAX);
    }

    fn contains(&self, v: usize) -> bool {
        self.pos[v] != usize::MAX
    }

    fn insert(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v] = self.heap.len();
        self.heap.push(v as u32);
        self.up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<usize> {
        let top = *self.heap.first()? as usize;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.down(0, act);
        }
        Some(top)
    }

    /// Restores heap order after `v`'s activity increased.
    fn bumped(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            self.up(self.pos[v], act);
        }
    }

    fn up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let p = (i - 1) / 2;
            if act[self.heap[i] as usize] <= act[self.heap[p] as usize] {
                break;
            }
            self.swap(i, p);
            i = p;
        }
    }

    fn down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let c =
                if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[l] as usize] {
                    r
                } else {
                    l
                };
            if act[self.heap[c] as usize] <= act[self.heap[i] as usize] {
                break;
            }
            self.swap(i, c);
            i = c;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i;
        self.pos[self.heap[j] as usize] = j;
    }
}

/// The i-th term of the Luby restart sequence (1,1,2,1,1,2,4,…).
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i and its position.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

/// A CDCL SAT solver (see the crate docs).
#[derive(Debug, Default)]
pub struct Solver {
    // Clause arena: all literals back to back, headers index into it.
    arena: Vec<Lit>,
    clauses: Vec<(u32, u32)>,
    watches: Vec<Vec<Watch>>,
    assign: Vec<u8>,
    /// Saved polarity per var (phase saving; initial phase negative).
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    seen: Vec<bool>,
    /// Formula already contradictory at level 0 (empty clause added or
    /// top-level conflict).
    unsat: bool,
    conflict_limit: Option<u64>,
    stats: SolverStats,
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            ..Solver::default()
        }
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Caps the number of conflicts a [`Solver::solve`] call may spend;
    /// past the cap the solve returns [`SolveResult::Unknown`].
    pub fn set_conflict_limit(&mut self, limit: u64) {
        self.conflict_limit = Some(limit);
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.assign.len();
        self.assign.push(L_UNDEF);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(CREF_NONE);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(v + 1);
        self.order.insert(v, &self.activity);
        Var(v as u32)
    }

    /// The current value of `lit`: `L_UNDEF`, 0 (false) or 1 (true).
    #[inline]
    fn lit_value(&self, lit: Lit) -> u8 {
        let a = self.assign[lit.var().index()];
        if a == L_UNDEF {
            L_UNDEF
        } else {
            a ^ (lit.is_neg() as u8)
        }
    }

    /// The model value of `v` after a `Sat` result (`None` only if the
    /// variable was never touched by the search, in which case either
    /// polarity extends the model).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assign[v.index()] {
            L_UNDEF => None,
            a => Some(a == 1),
        }
    }

    /// Adds a clause (an OR over `lits`). Returns `false` when the
    /// formula is already unsatisfiable at the top level. Clauses must
    /// be added before [`Solver::solve`]; duplicate and tautological
    /// clauses are normalized away.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "add_clause only at level 0");
        if self.unsat {
            return false;
        }
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        // Tautology (p ∨ ¬p) — sorted order puts the pair adjacent.
        if c.windows(2).any(|w| w[0] == !w[1]) {
            return true;
        }
        // Level-0 simplification: drop false literals, satisfied clause
        // is dropped whole (every assignment here is level 0).
        c.retain(|&l| self.lit_value(l) != 0);
        if c.iter().any(|&l| self.lit_value(l) == 1) {
            return true;
        }
        match c.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(c[0], CREF_NONE);
                // Keep the level-0 assignment closure tight so later
                // add_clause simplifications see the implied units too.
                if self.propagate().is_some() {
                    self.unsat = true;
                }
                !self.unsat
            }
            _ => {
                let cref = self.alloc(&c);
                self.attach(cref);
                true
            }
        }
    }

    fn alloc(&mut self, lits: &[Lit]) -> ClauseRef {
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(lits);
        self.clauses.push((start, lits.len() as u32));
        (self.clauses.len() - 1) as ClauseRef
    }

    fn attach(&mut self, cref: ClauseRef) {
        let (s, _) = self.clauses[cref as usize];
        let c0 = self.arena[s as usize];
        let c1 = self.arena[s as usize + 1];
        self.watches[(!c0).index()].push(Watch { cref, blocker: c1 });
        self.watches[(!c1).index()].push(Watch { cref, blocker: c0 });
    }

    /// Assigns `lit` true with `reason`, pushing it on the trail. The
    /// caller must know `lit` is currently unassigned.
    fn enqueue(&mut self, lit: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.lit_value(lit), L_UNDEF);
        let v = lit.var().index();
        self.assign[v] = !lit.is_neg() as u8;
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation to fixpoint. Returns the conflicting clause, if
    /// any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // `p` became true: visit clauses watching ¬p.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                if self.lit_value(w.blocker) == 1 {
                    i += 1;
                    continue;
                }
                let (s, n) = self.clauses[w.cref as usize];
                let (s, n) = (s as usize, n as usize);
                // Normalize: the false watched literal goes to slot 1.
                if self.arena[s] == !p {
                    self.arena.swap(s, s + 1);
                }
                let first = self.arena[s];
                if first != w.blocker && self.lit_value(first) == 1 {
                    ws[i] = Watch {
                        cref: w.cref,
                        blocker: first,
                    };
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..n {
                    if self.lit_value(self.arena[s + k]) != 0 {
                        self.arena.swap(s + 1, s + k);
                        let nw = self.arena[s + 1];
                        self.watches[(!nw).index()].push(Watch {
                            cref: w.cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting under `first`.
                ws[i] = Watch {
                    cref: w.cref,
                    blocker: first,
                };
                i += 1;
                if self.lit_value(first) == 0 {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, w.cref);
            }
            debug_assert!(self.watches[p.index()].is_empty() || conflict.is_none());
            // Watches pushed onto the original Vec while `ws` was taken
            // out (same-literal re-watch) must survive the put-back.
            let stragglers = std::mem::replace(&mut self.watches[p.index()], ws);
            self.watches[p.index()].extend(stragglers);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the level to backjump to.
    fn analyze(&mut self, mut cref: ClauseRef) -> (Vec<Lit>, u32) {
        let current = self.trail_lim.len() as u32;
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 = asserting lit
        let mut counter = 0u32;
        let mut idx = self.trail.len();
        let mut p: Option<Lit> = None;
        loop {
            debug_assert_ne!(cref, CREF_NONE);
            let (s, n) = self.clauses[cref as usize];
            for k in 0..n as usize {
                let q = self.arena[s as usize + k];
                // Skip the literal this clause propagated (it is the one
                // being resolved on).
                if Some(q) == p {
                    continue;
                }
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail back to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let lit = self.trail[idx];
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !lit;
                break;
            }
            cref = self.reason[lit.var().index()];
            p = Some(lit);
        }
        // Backjump level: the highest level among the non-asserting
        // literals; that literal moves to slot 1 to be watched.
        let mut back = 0u32;
        for k in 1..learnt.len() {
            let l = self.level[learnt[k].var().index()];
            if l > back {
                back = l;
                learnt.swap(1, k);
            }
        }
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        (learnt, back)
    }

    /// Undoes all assignments above `target_level`.
    fn backtrack(&mut self, target_level: u32) {
        if self.trail_lim.len() as u32 <= target_level {
            return;
        }
        let keep = self.trail_lim[target_level as usize];
        for &lit in &self.trail[keep..] {
            let v = lit.var().index();
            self.assign[v] = L_UNDEF;
            self.phase[v] = !lit.is_neg();
            self.reason[v] = CREF_NONE;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(target_level as usize);
        self.qhead = keep;
    }

    /// Picks the next branching variable (highest VSIDS activity).
    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v] == L_UNDEF {
                return Some(Lit::with_sign(Var(v as u32), self.phase[v]));
            }
        }
        None
    }

    /// Runs the CDCL search to a verdict (or to the conflict limit).
    pub fn solve(&mut self) -> SolveResult {
        if self.unsat {
            return SolveResult::Unsat;
        }
        if self.propagate().is_some() {
            self.unsat = true;
            return SolveResult::Unsat;
        }
        let start_conflicts = self.stats.conflicts;
        let mut restart_no = 0u64;
        loop {
            let budget = 100 * luby(restart_no);
            match self.search(budget, start_conflicts) {
                Some(res) => return res,
                None => {
                    self.stats.restarts += 1;
                    restart_no += 1;
                    self.backtrack(0);
                }
            }
        }
    }

    /// One restart's worth of search; `None` means "restart now".
    fn search(&mut self, budget: u64, start_conflicts: u64) -> Option<SolveResult> {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.trail_lim.is_empty() {
                    self.unsat = true;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, back) = self.analyze(confl);
                self.backtrack(back);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], CREF_NONE);
                } else {
                    let cref = self.alloc(&learnt);
                    self.attach(cref);
                    self.enqueue(learnt[0], cref);
                }
                self.stats.learned_clauses += 1;
                self.stats.learned_literals += learnt.len() as u64;
                self.var_inc /= 0.95;
                if let Some(limit) = self.conflict_limit {
                    if self.stats.conflicts - start_conflicts >= limit {
                        self.backtrack(0);
                        return Some(SolveResult::Unknown);
                    }
                }
                if conflicts >= budget {
                    return None;
                }
            } else {
                match self.decide() {
                    Some(lit) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, CREF_NONE);
                    }
                    None => return Some(SolveResult::Sat),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(s.new_var())).collect()
    }

    #[test]
    fn literal_packing_roundtrips() {
        let v = Var(7);
        assert_eq!(Lit::pos(v).var(), v);
        assert!(!Lit::pos(v).is_neg());
        assert!(Lit::neg(v).is_neg());
        assert_eq!(!Lit::pos(v), Lit::neg(v));
        assert_eq!(!!Lit::pos(v), Lit::pos(v));
    }

    #[test]
    fn luby_sequence_prefix() {
        let want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..want.len() as u64).map(luby).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_contradiction_is_unsat() {
        let mut s = Solver::new();
        let x = lits(&mut s, 1);
        assert!(s.add_clause(&[x[0]]));
        assert!(!s.add_clause(&[!x[0]]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn implication_chain_propagates() {
        let mut s = Solver::new();
        let x = lits(&mut s, 5);
        for w in x.windows(2) {
            s.add_clause(&[!w[0], w[1]]);
        }
        s.add_clause(&[x[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for &l in &x {
            assert_eq!(s.value(l.var()), Some(true));
        }
    }

    /// Pigeonhole 4 pigeons / 3 holes: classically hard for resolution
    /// at scale, trivially small here, and definitely UNSAT.
    #[test]
    fn pigeonhole_is_unsat() {
        let (p, h) = (4usize, 3usize);
        let mut s = Solver::new();
        let x: Vec<Vec<Lit>> = (0..p).map(|_| lits(&mut s, h)).collect();
        for row in &x {
            s.add_clause(row);
        }
        for (a, row_a) in x.iter().enumerate() {
            for row_b in &x[a + 1..] {
                for (&la, &lb) in row_a.iter().zip(row_b) {
                    s.add_clause(&[!la, !lb]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn conflict_limit_yields_unknown() {
        // Pigeonhole 7/6 needs far more than 2 conflicts.
        let (p, h) = (7usize, 6usize);
        let mut s = Solver::new();
        let x: Vec<Vec<Lit>> = (0..p).map(|_| lits(&mut s, h)).collect();
        for row in &x {
            s.add_clause(row);
        }
        for (a, row_a) in x.iter().enumerate() {
            for row_b in &x[a + 1..] {
                for (&la, &lb) in row_a.iter().zip(row_b) {
                    s.add_clause(&[!la, !lb]);
                }
            }
        }
        s.set_conflict_limit(2);
        assert_eq!(s.solve(), SolveResult::Unknown);
    }

    /// Brute-force cross-check: random 3-CNF over ≤ 10 vars, solver
    /// verdict must match exhaustive enumeration, and SAT models must
    /// satisfy every clause.
    #[test]
    fn random_3cnf_matches_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        for _case in 0..300 {
            let nv = rng.gen_range(3..10usize);
            let nc = rng.gen_range(1..40usize);
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..nc {
                let mut c = Vec::new();
                for _ in 0..3 {
                    c.push((rng.gen_range(0..nv), rng.gen::<bool>()));
                }
                clauses.push(c);
            }
            let brute_sat = (0u32..1 << nv).any(|m| {
                clauses
                    .iter()
                    .all(|c| c.iter().any(|&(v, sign)| ((m >> v) & 1 == 1) == sign))
            });
            let mut s = Solver::new();
            let vars = lits(&mut s, nv);
            for c in &clauses {
                let cl: Vec<Lit> = c
                    .iter()
                    .map(|&(v, sign)| if sign { vars[v] } else { !vars[v] })
                    .collect();
                s.add_clause(&cl);
            }
            let res = s.solve();
            if brute_sat {
                assert_eq!(res, SolveResult::Sat);
                for c in &clauses {
                    assert!(
                        c.iter()
                            .any(|&(v, sign)| s.value(vars[v].var()) == Some(sign)),
                        "model violates a clause"
                    );
                }
            } else {
                assert_eq!(res, SolveResult::Unsat);
            }
        }
    }

    #[test]
    fn stats_advance_during_search() {
        let mut s = Solver::new();
        let x = lits(&mut s, 8);
        // XOR-ish chains force real search.
        for w in x.windows(2) {
            s.add_clause(&[w[0], w[1]]);
            s.add_clause(&[!w[0], !w[1]]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let st = s.stats();
        assert!(st.decisions > 0);
        assert!(st.propagations > 0);
    }
}
