//! The SAT-backed ATPG engine: a two-time-frame Tseitin CNF encoder
//! over the levelized netlist plus a CDCL solve ([`scap_sat`]).
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
//!   gets Tseitin clauses enumerated from [`CellKind::eval_bool`] — the
//!   netlist's own truth tables are the oracle, so the encoder cannot
//!   disagree with the simulator.
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
//! Constraints: frame-1 site = initial value (launch), frame-2 good
//! site = final value (excitation), and an OR over per-capture-flop
//! difference indicators (detection). Existing care bits of the pattern
//! being extended become unit clauses, which is what lets the generator
//! drop a SAT test into its normal greedy compaction + fill + PPSFP
//! drop-simulation path unchanged.
//!
//! Clause emission walks [`Levelization::order`] once per plane, so the
//! encoder is iterative — no recursion to overflow on deep logic.
//!
//! [`CellKind::eval_bool`]: scap_netlist::CellKind::eval_bool

use scap_dft::TestPattern;
use scap_netlist::{ClockId, GateId, Levelization, Logic, NetId, NetSource, Netlist};
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

/// The SAT ATPG engine, reusable across the faults of one clock domain.
#[derive(Debug)]
pub struct SatAtpg<'a> {
    netlist: &'a Netlist,
    /// Combinational levelization, the clause-emission order.
    levels: Levelization,
    /// Frame-2 state source per flop (shared semantics with PODEM).
    state2: Vec<State2Src>,
    /// Observation points: D nets of active-domain flops.
    observed: Vec<NetId>,
    /// Per net: structurally reaches an observation point?
    observable: Vec<bool>,
    /// Per net: primary-input index, `u32::MAX` otherwise.
    pi_of_net: Vec<u32>,
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
            load: vec![None; n.num_flops()],
            pi: vec![None; n.primary_inputs().len()],
            need_f1: vec![false; n.num_nets()],
            need_g2: vec![false; n.num_nets()],
            need_fb: vec![false; n.num_nets()],
            cone: vec![false; n.num_nets()],
            care_load: pattern.load.clone(),
            care_pi: pattern.pi.clone(),
            fault,
            v_init: fault.polarity.initial_value(),
        };
        enc.mark_cone();
        enc
    }

    /// Forward cone of the fault site: the only nets where good and
    /// faulty machines can differ. Mirrors PODEM's cone tagging.
    fn mark_cone(&mut self) {
        let n = self.eng.netlist;
        let mut work: Vec<u32> = Vec::new();
        match self.fault.site {
            FaultSite::Net(net) => {
                self.cone[net.index()] = true;
                work.push(net.raw());
            }
            FaultSite::Pin { gate, .. } => {
                // The difference is born inside the reading gate.
                let out = n.gate(gate).output;
                self.cone[out.index()] = true;
                work.push(out.raw());
            }
        }
        while let Some(ni) = work.pop() {
            for &g in n.fanout_gates(NetId::new(ni)) {
                let out = n.gate(g).output;
                if !self.cone[out.index()] {
                    self.cone[out.index()] = true;
                    work.push(out.raw());
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
        l
    }

    /// Tseitin encoding of `out = kind(ins)` by truth-table
    /// enumeration, one clause per input row, with
    /// [`CellKind::eval_bool`](scap_netlist::CellKind::eval_bool) as
    /// the function oracle (≤ 4 inputs on every library cell, so ≤ 16
    /// clauses per gate).
    fn emit_gate(&mut self, g: GateId, out: Lit, ins: &[Lit]) {
        let kind = self.eng.netlist.gate(g).kind;
        let k = ins.len();
        let mut row = vec![false; k];
        for m in 0..1usize << k {
            for (b, r) in row.iter_mut().enumerate() {
                *r = (m >> b) & 1 == 1;
            }
            let o = kind.eval_bool(&row);
            let mut clause: Vec<Lit> = ins
                .iter()
                .zip(&row)
                .map(|(&l, &r)| if r { !l } else { l })
                .collect();
            clause.push(if o { out } else { !out });
            self.solver.add_clause(&clause);
        }
    }

    /// Emits the clauses of every needed gate, one level-order sweep
    /// per plane. Frame 1 goes first (frame-2 flop aliases read it),
    /// then the good frame 2, then the faulty overlay.
    fn encode_planes(&mut self) {
        let order: Vec<GateId> = self.eng.levels.order().to_vec();
        for &g in &order {
            let out = self.eng.netlist.gate(g).output;
            if !self.need_f1[out.index()] || self.f1[out.index()].is_some() {
                continue;
            }
            let inputs = self.eng.netlist.gate(g).inputs.clone();
            let ins: Vec<Lit> = inputs.iter().map(|&i| self.f1_lit(i)).collect();
            let ol = Lit::pos(self.solver.new_var());
            self.f1[out.index()] = Some(ol);
            self.emit_gate(g, ol, &ins);
        }
        for &g in &order {
            let out = self.eng.netlist.gate(g).output;
            if !self.need_g2[out.index()] || self.g2[out.index()].is_some() {
                continue;
            }
            let inputs = self.eng.netlist.gate(g).inputs.clone();
            let ins: Vec<Lit> = inputs.iter().map(|&i| self.g2_lit(i)).collect();
            let ol = Lit::pos(self.solver.new_var());
            self.g2[out.index()] = Some(ol);
            self.emit_gate(g, ol, &ins);
        }
        for &g in &order {
            let out = self.eng.netlist.gate(g).output;
            if !self.need_fb[out.index()]
                || self.fb[out.index()].is_some()
                || self.fault.site == FaultSite::Net(out)
            {
                continue;
            }
            let inputs = self.eng.netlist.gate(g).inputs.clone();
            let injected = self.injected_pin(g);
            let ins: Vec<Lit> = inputs
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
            self.emit_gate(g, ol, &ins);
        }
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
        let observed = loc::observation_points(netlist, active_clock);
        let observable = loc::observable_mask(netlist, &observed);
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
        let mut enc = Encoder::new(self, fault, pattern);

        // Support: launch + excitation sites, plus both machines at
        // every in-cone observation point.
        let site = fault.site.net(self.netlist);
        let mut roots = vec![Need::F1(site), Need::G2(site)];
        let capture: Vec<NetId> = self
            .observed
            .iter()
            .copied()
            .filter(|o| enc.cone[o.index()])
            .collect();
        for &o in &capture {
            roots.push(Need::G2(o));
            roots.push(Need::Fb(o));
        }
        if capture.is_empty() {
            // The observable pre-check makes this unreachable, but a
            // formula with no detection disjunct must not be solved.
            return SatOutcome::Untestable;
        }
        enc.mark_support(roots);
        enc.encode_planes();

        // Launch: the site holds the pre-transition value in frame 1.
        let launch = enc.f1_lit(site);
        let li = fault.polarity.initial_value();
        enc.solver.add_clause(&[if li { launch } else { !launch }]);

        // Excitation: the good machine reaches the final value.
        let excite = enc.g2_lit(site);
        let lf = fault.polarity.final_value();
        enc.solver.add_clause(&[if lf { excite } else { !excite }]);

        // Detection: some in-cone capture flop sees a good/faulty
        // difference. d → (g ⊕ f); assert the OR of the d indicators.
        let mut any: Vec<Lit> = Vec::new();
        for &o in &capture {
            let g = enc.g2_lit(o);
            let f = enc.fb_lit(o);
            let d = Lit::pos(enc.solver.new_var());
            enc.solver.add_clause(&[!d, g, f]);
            enc.solver.add_clause(&[!d, !g, !f]);
            any.push(d);
        }
        enc.solver.add_clause(&any);

        let result = enc.solver.solve();
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
