//! The SAT-backed ATPG engine: a two-time-frame CNF encoder over the
//! levelized netlist plus a CDCL solve ([`scap_sat`]).
//!
//! PODEM can only *abort* on hard faults — when its backtrack budget
//! runs out it has proven nothing, and the aborted fault silently stays
//! in the test-coverage denominator. This engine turns aborts into
//! verdicts: it encodes the exact launch/capture conditions the PODEM
//! planes check as a CNF formula whose models are *detecting
//! assignments*, so
//!
//! * `Sat` extracts the model into the pattern's care bits (a test),
//! * `Unsat` is a **proof of untestability** — the fault leaves the
//!   coverage denominator,
//! * `Unknown` (conflict limit exhausted) keeps the fault aborted.
//!
//! # Encoding
//!
//! The formula is built over the *support* of the fault only — the nets
//! that can influence launch, excitation, or the good/faulty difference
//! at an in-cone capture flop. Everything else stays unencoded, so
//! extracted patterns keep their don't-care bits and remain
//! compactable/fillable exactly like PODEM tests. Three variable planes
//! share one pool of scan-load and primary-input variables:
//!
//! * **Frame 1** (scan load applied): flop Q nets alias their scan-load
//!   variable, PI nets their held primary-input variable, and each gate
//!   gets the clauses of its [`CellKind`]'s clause table.
//! * **Frame 2, good machine**: flop Q variables alias per
//!   [`State2Src`], the launch rule of [`scap_sim::loc`] that PODEM and
//!   the fault simulator read too — active-domain flops read the frame-1
//!   value of their D net (launch-off-capture); others hold their load,
//!   take the upstream cell's load, or the constant scan-in
//!   (launch-off-shift).
//!   Primary inputs are *held*: frame 2 reuses the frame-1 variables.
//! * **Frame 2, faulty machine**: fresh variables only on the fault
//!   site's output cone. A stem fault pins the site net to its
//!   pre-transition value; a branch (pin) fault substitutes that
//!   constant for the one reading gate input, so the difference is born
//!   inside the gate — the same overlay discipline the PODEM scratch
//!   keeps. Out-of-cone inputs read the good machine directly.
//!
//! **Gate clauses.** A cell's clause table is the set of *prime
//! implicates* of `out ↔ kind(ins)`, enumerated once per [`CellKind`]
//! in [`SatAtpg::new`] with [`CellKind::eval_bool`] as the oracle, so
//! the encoder cannot disagree with the simulator. Unit propagation over
//! all prime implicates of a function is complete for that function:
//! one controlling input forces an AND's output without a decision
//! (AND2 gets 3 clauses, AOI22 6, and MUX2 its two consensus clauses
//! `a ∧ b → out`, `¬a ∧ ¬b → ¬out` on top of the four select cases).
//!
//! **Constraints.** Frame-1 site = initial value (launch) and frame-2
//! good site = final value (excitation). Detection is encoded as
//! *D-chains* (the active clauses of Larrabee, IEEE TCAD 1992, and
//! TEGUS): every faulty-plane net `n` gets a difference variable `d_n`
//! with
//!
//! * `d_n → (g_n ≠ f_n)` over its good and faulty frame-2 literals,
//! * `d_n → ∨ d_s` over the successors `s` of `n` in the faulty plane,
//!   unless `n` is an observation point (a capture flop's D net),
//! * and the unit clause `d_e` at the [effect net] `e`.
//!
//! Any model therefore carries a chain of differing nets from `e` to a
//! differing capture point, so it detects the fault. Conversely every
//! detecting assignment extends to a model: a difference at a capture
//! point traces back, through a differing input of each gate, to `e`
//! (outside the cone the planes are equal), and setting `d` true along
//! that path only satisfies every chain clause. The chains thus keep
//! the verdict of the plain "some capture point differs" formula and
//! only tell the solver that a fault effect travels along a path.
//! Existing care bits of the pattern being extended become unit
//! clauses, which is what lets the generator drop a SAT test into its
//! normal greedy compaction + fill + PPSFP drop-simulation path
//! unchanged.
//!
//! Clause emission walks [`Levelization::order`] once per plane, so the
//! encoder is iterative — no recursion to overflow on deep logic. The
//! `sat.encode` and `sat.search` spans split each `atpg.sat_solve` into
//! building the formula and solving it.
//!
//! [`CellKind::eval_bool`]: scap_netlist::CellKind::eval_bool
//! [effect net]: scap_sim::FaultSite::effect_net

use scap_dft::TestPattern;
use scap_netlist::{CellKind, ClockId, GateId, Levelization, Logic, NetId, NetSource, Netlist};
use scap_sat::{Lit, SolveResult, Solver, SolverStats};
use scap_sim::loc::{self, State2Src};
use scap_sim::{FaultSite, LaunchMode, TransitionFault};

/// Outcome of one SAT ATPG attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatOutcome {
    /// A detecting assignment exists; the pattern has been extended in
    /// place with its care bits.
    Test,
    /// The CNF is unsatisfiable: no two-frame assignment detects the
    /// fault. This is a proof, unlike a PODEM abort.
    Untestable,
    /// The conflict limit was exhausted first; no verdict.
    Unknown,
}

/// One clause of a cell's `out ↔ kind(ins)` relation. Bit `k < n` of
/// `pos` / `neg` puts input pin `k` in the clause positively /
/// negatively; bit `n` (the input count) stands for the output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GateClause {
    pos: u8,
    neg: u8,
}

impl GateClause {
    /// Whether the row `bits` (same bit layout) satisfies the clause.
    fn holds(self, bits: u8) -> bool {
        bits & self.pos != 0 || !bits & self.neg != 0
    }

    /// Whether every literal of `self` is also in `other`.
    fn subsumes(self, other: GateClause) -> bool {
        self.pos & !other.pos == 0 && self.neg & !other.neg == 0
    }
}

/// The prime implicates of `out ↔ kind(ins)`: every clause over the
/// pins and the output that all rows of the truth table satisfy, and
/// that no shorter such clause subsumes. Enumerates all 3^(k+1)
/// clauses (k ≤ 4 inputs, so at most 243) against the
/// [`CellKind::eval_bool`] rows.
fn prime_implicates(kind: CellKind) -> Vec<GateClause> {
    let k = kind.num_inputs();
    let models: Vec<u8> = (0..1u8 << k)
        .map(|row| {
            let ins: Vec<bool> = (0..k).map(|b| row >> b & 1 == 1).collect();
            row | u8::from(kind.eval_bool(&ins)) << k
        })
        .collect();
    let implicates: Vec<GateClause> = (0..3usize.pow(k as u32 + 1))
        .map(|code| {
            let (mut c, mut code) = (GateClause { pos: 0, neg: 0 }, code);
            for v in 0..=k {
                match code % 3 {
                    1 => c.pos |= 1 << v,
                    2 => c.neg |= 1 << v,
                    _ => {}
                }
                code /= 3;
            }
            c
        })
        .filter(|&c| models.iter().all(|&m| c.holds(m)))
        .collect();
    implicates
        .iter()
        .copied()
        .filter(|&c| !implicates.iter().any(|&d| d != c && d.subsumes(c)))
        .collect()
}

/// The SAT ATPG engine, reusable across the faults of one clock domain.
#[derive(Debug)]
pub struct SatAtpg<'a> {
    netlist: &'a Netlist,
    /// Combinational levelization, the clause-emission order.
    levels: Levelization,
    /// Frame-2 state source per flop (shared semantics with PODEM).
    state2: Vec<State2Src>,
    /// Per net: an observation point (D net of an active-domain flop)?
    observed: Vec<bool>,
    /// Per net: structurally reaches an observation point?
    observable: Vec<bool>,
    /// Per net: primary-input index, `u32::MAX` otherwise.
    pi_of_net: Vec<u32>,
    /// Prime-implicate clause table per cell kind, indexed by
    /// `kind as usize`.
    gate_clauses: Vec<Vec<GateClause>>,
    /// Conflict budget per solve (`Unknown` past it).
    conflict_limit: u64,
}

/// Per-fault encoder state: the solver plus per-plane literal memos.
struct Encoder<'e, 'a> {
    eng: &'e SatAtpg<'a>,
    solver: Solver,
    /// A variable asserted true, so constants are literals too.
    true_lit: Lit,
    /// Frame-1 literal per net.
    f1: Vec<Option<Lit>>,
    /// Frame-2 good-machine literal per net.
    g2: Vec<Option<Lit>>,
    /// Frame-2 faulty-machine literal per net (cone nets only).
    fb: Vec<Option<Lit>>,
    /// D-chain difference literal per faulty-plane net.
    diff: Vec<Option<Lit>>,
    /// Scan-load literal per flop (shared by both frames).
    load: Vec<Option<Lit>>,
    /// Primary-input literal per PI index (held across frames).
    pi: Vec<Option<Lit>>,
    /// Per-plane need marks, filled by the support walk.
    need_f1: Vec<bool>,
    need_g2: Vec<bool>,
    need_fb: Vec<bool>,
    /// Fault-cone membership per net.
    cone: Vec<bool>,
    /// Observation points inside the cone.
    capture: Vec<NetId>,
    /// Faulty-plane nets in encoding order: the D-chain nodes.
    fb_nets: Vec<NetId>,
    /// Care bits of the pattern under extension (unit clauses).
    care_load: Vec<Logic>,
    care_pi: Vec<Logic>,
    fault: TransitionFault,
    /// The site's pre-transition value — the stuck value the slow
    /// signal still presents in frame 2.
    v_init: bool,
}

/// A (plane, net) item on the support-marking worklist.
#[derive(Clone, Copy)]
enum Need {
    F1(NetId),
    G2(NetId),
    Fb(NetId),
}

impl<'e, 'a> Encoder<'e, 'a> {
    fn new(eng: &'e SatAtpg<'a>, fault: TransitionFault, pattern: &TestPattern) -> Self {
        let n = eng.netlist;
        let mut solver = Solver::new();
        solver.set_conflict_limit(eng.conflict_limit);
        let true_lit = Lit::pos(solver.new_var());
        solver.add_clause(&[true_lit]);
        let mut enc = Encoder {
            eng,
            solver,
            true_lit,
            f1: vec![None; n.num_nets()],
            g2: vec![None; n.num_nets()],
            fb: vec![None; n.num_nets()],
            diff: vec![None; n.num_nets()],
            load: vec![None; n.num_flops()],
            pi: vec![None; n.primary_inputs().len()],
            need_f1: vec![false; n.num_nets()],
            need_g2: vec![false; n.num_nets()],
            need_fb: vec![false; n.num_nets()],
            cone: vec![false; n.num_nets()],
            capture: Vec::new(),
            fb_nets: Vec::new(),
            care_load: pattern.load.clone(),
            care_pi: pattern.pi.clone(),
            fault,
            v_init: fault.polarity.initial_value(),
        };
        enc.mark_cone();
        enc
    }

    /// Forward cone of the fault's effect net: the only nets where good
    /// and faulty machines can differ. Mirrors PODEM's cone tagging and
    /// collects the in-cone observation points on the way.
    fn mark_cone(&mut self) {
        let n = self.eng.netlist;
        let root = self.fault.site.effect_net(n);
        self.cone[root.index()] = true;
        let mut work = vec![root];
        while let Some(net) = work.pop() {
            if self.eng.observed[net.index()] {
                self.capture.push(net);
            }
            for &g in n.fanout_gates(net) {
                let out = n.gate(g).output;
                if !self.cone[out.index()] {
                    self.cone[out.index()] = true;
                    work.push(out);
                }
            }
        }
    }

    /// Marks every (plane, net) the constraints transitively read,
    /// starting from `roots`. Iterative: one worklist, three mark maps.
    fn mark_support(&mut self, roots: impl IntoIterator<Item = Need>) {
        let n = self.eng.netlist;
        let mut work: Vec<Need> = roots.into_iter().collect();
        while let Some(item) = work.pop() {
            match item {
                Need::F1(net) => {
                    if std::mem::replace(&mut self.need_f1[net.index()], true) {
                        continue;
                    }
                    if let Some(NetSource::Gate(g)) = n.net(net).source {
                        work.extend(n.gate(g).inputs.iter().map(|&i| Need::F1(i)));
                    }
                }
                Need::G2(net) => {
                    if std::mem::replace(&mut self.need_g2[net.index()], true) {
                        continue;
                    }
                    match n.net(net).source {
                        Some(NetSource::Gate(g)) => {
                            work.extend(n.gate(g).inputs.iter().map(|&i| Need::G2(i)));
                        }
                        Some(NetSource::Flop(f)) => {
                            if let State2Src::FromD(d) = self.eng.state2[f.index()] {
                                work.push(Need::F1(d));
                            }
                        }
                        _ => {}
                    }
                }
                Need::Fb(net) => {
                    if !self.cone[net.index()] {
                        work.push(Need::G2(net));
                        continue;
                    }
                    if std::mem::replace(&mut self.need_fb[net.index()], true) {
                        continue;
                    }
                    // Its D-chain variable compares both machines.
                    work.push(Need::G2(net));
                    // The stem site is a pinned constant; every other
                    // cone net is gate-driven (the cone grows only
                    // through gate fanout).
                    if self.fault.site == FaultSite::Net(net) {
                        continue;
                    }
                    let Some(NetSource::Gate(g)) = n.net(net).source else {
                        continue;
                    };
                    let injected = self.injected_pin(g);
                    for (k, &inp) in n.gate(g).inputs.iter().enumerate() {
                        if k != injected {
                            work.push(Need::Fb(inp));
                        }
                    }
                }
            }
        }
    }

    /// The input pin of `g` the fault replaces with a constant, or
    /// `usize::MAX` when none.
    fn injected_pin(&self, g: GateId) -> usize {
        match self.fault.site {
            FaultSite::Pin { gate, pin } if gate == g => pin as usize,
            _ => usize::MAX,
        }
    }

    /// A constant as a literal.
    fn konst(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            !self.true_lit
        }
    }

    /// The scan-load literal of flop `i`, unit-constrained to any care
    /// bit the pattern under extension already commits.
    fn load_lit(&mut self, i: usize) -> Lit {
        if let Some(l) = self.load[i] {
            return l;
        }
        let l = Lit::pos(self.solver.new_var());
        self.load[i] = Some(l);
        match self.care_load[i] {
            Logic::Zero => {
                self.solver.add_clause(&[!l]);
            }
            Logic::One => {
                self.solver.add_clause(&[l]);
            }
            Logic::X => {}
        }
        l
    }

    /// The primary-input literal of PI index `i` (held across frames).
    fn pi_lit(&mut self, i: usize) -> Lit {
        if let Some(l) = self.pi[i] {
            return l;
        }
        let l = Lit::pos(self.solver.new_var());
        self.pi[i] = Some(l);
        match self.care_pi[i] {
            Logic::Zero => {
                self.solver.add_clause(&[!l]);
            }
            Logic::One => {
                self.solver.add_clause(&[l]);
            }
            Logic::X => {}
        }
        l
    }

    /// Frame-1 literal of a net whose gate (if any) is already encoded.
    fn f1_lit(&mut self, net: NetId) -> Lit {
        if let Some(l) = self.f1[net.index()] {
            return l;
        }
        let l = match self.eng.netlist.net(net).source {
            Some(NetSource::Gate(_)) => {
                unreachable!("f1 gate output read before its level")
            }
            Some(NetSource::Flop(f)) => self.load_lit(f.index()),
            Some(NetSource::PrimaryInput) => {
                let i = self.eng.pi_of_net[net.index()] as usize;
                self.pi_lit(i)
            }
            Some(NetSource::Const(b)) => self.konst(b),
            // An undriven net carries no defined value; a free variable
            // over-approximates it (the builder rejects these anyway).
            None => Lit::pos(self.solver.new_var()),
        };
        self.f1[net.index()] = Some(l);
        l
    }

    /// Frame-2 good-machine literal of a net whose support (gate or
    /// frame-1 alias target) is already encoded.
    fn g2_lit(&mut self, net: NetId) -> Lit {
        if let Some(l) = self.g2[net.index()] {
            return l;
        }
        let l = match self.eng.netlist.net(net).source {
            Some(NetSource::Gate(_)) => {
                unreachable!("g2 gate output read before its level")
            }
            Some(NetSource::Flop(f)) => match self.eng.state2[f.index()] {
                State2Src::FromD(d) => self.f1_lit(d),
                State2Src::Hold => self.load_lit(f.index()),
                State2Src::LoadOf(j) => self.load_lit(j as usize),
                State2Src::ScanIn => self.konst(false),
            },
            // Primary inputs are held across the launch cycle.
            Some(NetSource::PrimaryInput) => {
                let i = self.eng.pi_of_net[net.index()] as usize;
                self.pi_lit(i)
            }
            Some(NetSource::Const(b)) => self.konst(b),
            None => Lit::pos(self.solver.new_var()),
        };
        self.g2[net.index()] = Some(l);
        l
    }

    /// Frame-2 faulty-machine literal. Outside the cone the faulty
    /// machine equals the good one by construction.
    fn fb_lit(&mut self, net: NetId) -> Lit {
        if !self.cone[net.index()] {
            return self.g2_lit(net);
        }
        if let Some(l) = self.fb[net.index()] {
            return l;
        }
        debug_assert_eq!(
            self.fault.site,
            FaultSite::Net(net),
            "cone gate output read before its level"
        );
        // A stem fault presents the pre-transition value in frame 2.
        let l = self.konst(self.v_init);
        self.fb[net.index()] = Some(l);
        self.fb_nets.push(net);
        l
    }

    /// Emits `out ↔ kind(ins)` as the kind's prime-implicate clauses.
    fn emit_gate(&mut self, kind: CellKind, out: Lit, ins: &[Lit]) {
        let mut clause = [out; 5];
        for &c in &self.eng.gate_clauses[kind as usize] {
            let mut len = 0;
            for (b, &l) in ins.iter().chain([&out]).enumerate() {
                if c.pos >> b & 1 == 1 {
                    clause[len] = l;
                    len += 1;
                } else if c.neg >> b & 1 == 1 {
                    clause[len] = !l;
                    len += 1;
                }
            }
            self.solver.add_clause(&clause[..len]);
        }
    }

    /// Emits the clauses of every needed gate, one level-order sweep
    /// per plane. Frame 1 goes first (frame-2 flop aliases read it),
    /// then the good frame 2, then the faulty overlay.
    fn encode_planes(&mut self) {
        let n = self.eng.netlist;
        let order = self.eng.levels.order();
        for &g in order {
            let gate = n.gate(g);
            if !self.need_f1[gate.output.index()] {
                continue;
            }
            let ins: Vec<Lit> = gate.inputs.iter().map(|&i| self.f1_lit(i)).collect();
            let ol = Lit::pos(self.solver.new_var());
            self.f1[gate.output.index()] = Some(ol);
            self.emit_gate(gate.kind, ol, &ins);
        }
        for &g in order {
            let gate = n.gate(g);
            if !self.need_g2[gate.output.index()] {
                continue;
            }
            let ins: Vec<Lit> = gate.inputs.iter().map(|&i| self.g2_lit(i)).collect();
            let ol = Lit::pos(self.solver.new_var());
            self.g2[gate.output.index()] = Some(ol);
            self.emit_gate(gate.kind, ol, &ins);
        }
        if let FaultSite::Net(site) = self.fault.site {
            self.fb_lit(site);
        }
        for &g in order {
            let gate = n.gate(g);
            let out = gate.output;
            if !self.need_fb[out.index()] || self.fault.site == FaultSite::Net(out) {
                continue;
            }
            let injected = self.injected_pin(g);
            let ins: Vec<Lit> = gate
                .inputs
                .iter()
                .enumerate()
                .map(|(k, &i)| {
                    if k == injected {
                        self.konst(self.v_init)
                    } else {
                        self.fb_lit(i)
                    }
                })
                .collect();
            let ol = Lit::pos(self.solver.new_var());
            self.fb[out.index()] = Some(ol);
            self.fb_nets.push(out);
            self.emit_gate(gate.kind, ol, &ins);
        }
    }

    /// The D-chains over the faulty plane: `d_n → (g_n ≠ f_n)` per net,
    /// `d_n → ∨ d_succ` unless `n` is an observation point, and `d` at
    /// the effect net.
    fn encode_d_chains(&mut self) {
        let n = self.eng.netlist;
        let nets = std::mem::take(&mut self.fb_nets);
        let mut ds = Vec::with_capacity(nets.len());
        for &net in &nets {
            let d = Lit::pos(self.solver.new_var());
            self.diff[net.index()] = Some(d);
            ds.push(d);
            let (g, f) = (self.g2_lit(net), self.fb_lit(net));
            self.solver.add_clause(&[!d, g, f]);
            self.solver.add_clause(&[!d, !g, !f]);
        }
        let mut chain = Vec::new();
        for (&net, &d) in nets.iter().zip(&ds) {
            if self.eng.observed[net.index()] {
                continue;
            }
            chain.clear();
            chain.push(!d);
            chain.extend(
                n.fanout_gates(net)
                    .iter()
                    .filter_map(|&g| self.diff[n.gate(g).output.index()]),
            );
            self.solver.add_clause(&chain);
        }
        let effect = self.fault.site.effect_net(n);
        let d = self.diff[effect.index()].expect("the effect net is in the faulty plane");
        self.solver.add_clause(&[d]);
    }

    /// Builds the whole formula: support, the three planes, launch and
    /// excitation at the site, and the D-chains.
    fn encode(&mut self) {
        let site = self.fault.site.net(self.eng.netlist);
        let mut roots = vec![Need::F1(site), Need::G2(site)];
        roots.extend(self.capture.iter().map(|&o| Need::Fb(o)));
        self.mark_support(roots);
        self.encode_planes();

        // Launch: the site holds the pre-transition value in frame 1.
        let launch = self.f1_lit(site);
        let li = self.fault.polarity.initial_value();
        self.solver.add_clause(&[if li { launch } else { !launch }]);

        // Excitation: the good machine reaches the final value.
        let excite = self.g2_lit(site);
        let lf = self.fault.polarity.final_value();
        self.solver.add_clause(&[if lf { excite } else { !excite }]);

        self.encode_d_chains();
    }
}

impl<'a> SatAtpg<'a> {
    /// Builds a SAT engine for one clock domain and launch mode, with a
    /// per-solve conflict budget.
    pub fn new(
        netlist: &'a Netlist,
        active_clock: ClockId,
        mode: LaunchMode,
        conflict_limit: u64,
    ) -> Self {
        let points = loc::observation_points(netlist, active_clock);
        let observable = loc::observable_mask(netlist, &points);
        let mut observed = vec![false; netlist.num_nets()];
        for p in points {
            observed[p.index()] = true;
        }
        let mut pi_of_net = vec![u32::MAX; netlist.num_nets()];
        for (i, p) in netlist.primary_inputs().iter().enumerate() {
            pi_of_net[p.index()] = i as u32;
        }
        SatAtpg {
            netlist,
            levels: Levelization::build(netlist),
            state2: loc::state2_sources(netlist, active_clock, mode),
            observed,
            observable,
            pi_of_net,
            gate_clauses: CellKind::ALL.map(prime_implicates).to_vec(),
            conflict_limit,
        }
    }

    /// Tries to extend `pattern` (in place) so it detects `fault`,
    /// returning the verdict. On `Untestable` and `Unknown` the pattern
    /// is left untouched. Statistics land on the `sat.*` counters.
    pub fn generate(&self, fault: TransitionFault, pattern: &mut TestPattern) -> SatOutcome {
        if !self.observable[fault.site.effect_net(self.netlist).index()] {
            // No structural path to a capture flop: untestable without
            // building a formula (the same shortcut PODEM takes).
            return SatOutcome::Untestable;
        }
        let _span = scap_obs::span!("atpg.sat_solve");
        let mut enc = {
            let _encode = scap_obs::span!("sat.encode");
            let mut enc = Encoder::new(self, fault, pattern);
            if enc.capture.is_empty() {
                // The observable pre-check makes this unreachable, but a
                // formula with no capture point must not be solved.
                return SatOutcome::Untestable;
            }
            enc.encode();
            enc
        };
        let result = {
            let _search = scap_obs::span!("sat.search");
            enc.solver.solve()
        };
        record_stats(enc.solver.stats());
        match result {
            SolveResult::Sat => {
                // Extract the model into the pattern's care bits; bits
                // whose variable never entered the encoding stay X, so
                // fill and compaction behave exactly as for PODEM tests.
                for (i, l) in enc.load.iter().enumerate() {
                    if let Some(l) = l {
                        if let Some(v) = enc.solver.value(l.var()) {
                            pattern.load[i] = Logic::from_bool(v ^ l.is_neg());
                        }
                    }
                }
                for (i, l) in enc.pi.iter().enumerate() {
                    if let Some(l) = l {
                        if let Some(v) = enc.solver.value(l.var()) {
                            pattern.pi[i] = Logic::from_bool(v ^ l.is_neg());
                        }
                    }
                }
                scap_obs::counter!("sat.tests_found").incr();
                SatOutcome::Test
            }
            SolveResult::Unsat => {
                scap_obs::counter!("sat.untestable_proofs").incr();
                SatOutcome::Untestable
            }
            SolveResult::Unknown => SatOutcome::Unknown,
        }
    }
}

/// Folds one solve's statistics into the process-wide registry.
fn record_stats(stats: SolverStats) {
    scap_obs::counter!("sat.solves").incr();
    scap_obs::counter!("sat.conflicts").add(stats.conflicts);
    scap_obs::counter!("sat.decisions").add(stats.decisions);
    scap_obs::counter!("sat.propagations").add(stats.propagations);
    scap_obs::counter!("sat.learned_clauses").add(stats.learned_clauses);
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_netlist::{CellKind, ClockEdge, NetlistBuilder};
    use scap_sim::Polarity;

    const CLK: ClockId = ClockId::new(0);
    /// AND output net in [`and_netlist`] (insertion order).
    const Y: NetId = NetId::new(4);

    /// Two toggle flops (`D = ¬Q`) ANDed into a capture flop, so frame 2
    /// inverts the loads under launch-off-capture and both transitions
    /// on the AND output are excitable.
    fn and_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("and");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let q1 = b.add_net("q1");
        let q2 = b.add_net("q2");
        let n1 = b.add_net("n1");
        let n2 = b.add_net("n2");
        let y = b.add_net("y");
        let q3 = b.add_net("q3");
        b.add_gate(CellKind::Inv, &[q1], n1, blk).unwrap();
        b.add_gate(CellKind::Inv, &[q2], n2, blk).unwrap();
        b.add_flop("f1", n1, q1, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("f2", n2, q2, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_gate(CellKind::And2, &[q1, q2], y, blk).unwrap();
        b.add_flop("f3", y, q3, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_primary_output(q3);
        b.finish().unwrap()
    }

    #[test]
    fn finds_test_on_and_gate_output() {
        let n = and_netlist();
        let sat = SatAtpg::new(&n, CLK, LaunchMode::Capture, 10_000);
        // Slow-to-rise on y: frame 1 y = l1∧l2 = 0, frame 2 good
        // y = ¬l1∧¬l2 = 1, so loads (0,0) detect at flop f3.
        let f = TransitionFault::new(FaultSite::Net(Y), Polarity::SlowToRise);
        let mut p = TestPattern::unspecified(&n);
        assert_eq!(sat.generate(f, &mut p), SatOutcome::Test);
        assert_eq!(p.load[0], Logic::Zero);
        assert_eq!(p.load[1], Logic::Zero);
    }

    #[test]
    fn conflicting_care_bits_make_fault_unsat() {
        let n = and_netlist();
        let sat = SatAtpg::new(&n, CLK, LaunchMode::Capture, 10_000);
        // Slow-to-fall needs frame-1 y = 1, i.e. both loads at 1;
        // pinning one to 0 makes the incremental problem unsatisfiable.
        let f = TransitionFault::new(FaultSite::Net(Y), Polarity::SlowToFall);
        let mut p = TestPattern::unspecified(&n);
        p.load[0] = Logic::Zero;
        let before = p.clone();
        assert_eq!(sat.generate(f, &mut p), SatOutcome::Untestable);
        assert_eq!(p, before, "failed attempts must not touch the pattern");
    }

    /// Every cell kind's clause table, over all 2^(k+1) rows of its
    /// pins and output: the models are exactly the rows where the output
    /// equals `eval_bool` of the inputs, and every clause is prime —
    /// dropping any one literal admits a row that is not a model.
    #[test]
    fn gate_clauses_are_the_prime_implicates() {
        for kind in CellKind::ALL {
            let k = kind.num_inputs();
            let clauses = prime_implicates(kind);
            let is_model = |bits: u8| {
                let ins: Vec<bool> = (0..k).map(|b| bits >> b & 1 == 1).collect();
                (bits >> k & 1 == 1) == kind.eval_bool(&ins)
            };
            for bits in 0..1u8 << (k + 1) {
                assert_eq!(
                    clauses.iter().all(|c| c.holds(bits)),
                    is_model(bits),
                    "{kind:?} row {bits:#b}"
                );
            }
            for &c in &clauses {
                assert_eq!(c.pos & c.neg, 0, "{kind:?} tautology {c:?}");
                for lit in (0..=k)
                    .map(|b| 1u8 << b)
                    .filter(|m| (c.pos | c.neg) & m != 0)
                {
                    let shorter = GateClause {
                        pos: c.pos & !lit,
                        neg: c.neg & !lit,
                    };
                    assert!(
                        (0..1u8 << (k + 1)).any(|bits| is_model(bits) && !shorter.holds(bits)),
                        "{kind:?} clause {c:?} is not prime"
                    );
                }
            }
        }
        let count = |kind| prime_implicates(kind).len();
        assert_eq!(count(CellKind::And2), 3);
        assert_eq!(count(CellKind::Aoi22), 6);
        // The four select cases plus the two consensus clauses.
        assert_eq!(count(CellKind::Mux2), 6);
    }

    #[test]
    fn unobservable_fault_is_untestable_without_solving() {
        let mut b = NetlistBuilder::new("dangling");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let q1 = b.add_net("q1");
        let n1 = b.add_net("n1");
        let y = b.add_net("y");
        b.add_gate(CellKind::Inv, &[q1], n1, blk).unwrap();
        b.add_flop("f1", n1, q1, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_gate(CellKind::Inv, &[q1], y, blk).unwrap();
        b.add_primary_output(y);
        let n = b.finish().unwrap();
        let sat = SatAtpg::new(&n, CLK, LaunchMode::Capture, 10_000);
        // y reaches only a primary output, never a capture flop.
        let f = TransitionFault::new(FaultSite::Net(NetId::new(2)), Polarity::SlowToFall);
        let mut p = TestPattern::unspecified(&n);
        assert_eq!(sat.generate(f, &mut p), SatOutcome::Untestable);
    }
}
