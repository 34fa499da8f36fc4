//! The two-time-frame PODEM engine.
//!
//! Decision variables are the scan-load bits (pseudo-primary inputs) and
//! the held primary inputs. After every decision the engine updates both
//! frames three-valued — frame 1 plain, frame 2 as a good/faulty plane
//! pair with the fault site stuck at its pre-transition value — and
//! derives the next objective:
//!
//! 1. launch: frame-1 site value = initial value,
//! 2. excitation: frame-2 good site value = final value,
//! 3. propagation: drive a D-frontier gate's side inputs non-controlling
//!    until the good/faulty difference reaches an observed capture flop.
//!
//! The planes live in a [`PodemScratch`] and are maintained
//! *incrementally*: each decision changes one input bit (a backtrack, a
//! handful), so instead of three full levelized passes the engine diffs
//! the inputs against the cached planes and event-propagates only the
//! affected fanout through a [`LevelQueue`]. The faulty plane is never
//! simulated whole-netlist at all: outside the fault site's output cone
//! it is identical to the good plane by construction, so it is kept as a
//! cone overlay and rebuilt in one O(cone) topological sweep per
//! decision.

use scap_dft::TestPattern;
use scap_netlist::{CellKind, ClockId, Logic, NetId, NetSource, Netlist};
use scap_sim::loc::{self, State2Src};
use scap_sim::{FaultSite, LaunchMode, LevelQueue, LogicSim, SimTable, TransitionFault};

/// Outcome of one PODEM run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test was found; the pattern has been extended in place.
    Test,
    /// No test exists (search space exhausted without hitting the
    /// backtrack limit). Under a constrained (secondary) run this only
    /// means "untestable given the existing assignments".
    Untestable,
    /// The backtrack limit was hit first.
    Aborted,
}

/// Which time frame an objective lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Frame {
    One,
    Two,
}

/// A decision variable: a scan-load bit or a primary input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Var {
    Load(u32),
    Pi(u32),
}

/// Reusable simulation state for [`Podem::generate_with_scratch`].
///
/// Holds the three value planes, the event queue and the fault-cone
/// bookkeeping. A scratch is lazily (re)bound to an engine on first use;
/// binding is keyed on the netlist identity plus clock domain and launch
/// mode, so one scratch must not be shared between two *different live*
/// netlists that happen to alias in memory. Reusing one scratch across
/// all faults of a run amortises the full-netlist evaluations down to
/// one per engine rebind.
#[derive(Debug, Default)]
pub struct PodemScratch {
    /// Frame-1 net values for the currently synced pattern.
    frame1: Vec<Logic>,
    /// Frame-2 good-machine net values.
    good2: Vec<Logic>,
    /// Frame-2 faulty-machine values, valid only on cone-stamped nets;
    /// everywhere else the faulty machine equals `good2`.
    faulty2: Vec<Logic>,
    queue: LevelQueue,
    /// Cone membership stamps (valid where == `cone_epoch`).
    cone_net: Vec<u32>,
    cone_gate: Vec<u32>,
    /// Nets read by at least one cone gate (side inputs and internal
    /// nets). Good-plane changes elsewhere can never affect the faulty
    /// overlay, so the incremental update skips them without scanning
    /// their fanout.
    cone_side: Vec<u32>,
    cone_epoch: u32,
    /// Cone gates in (level, id) topological order, for the faulty-plane
    /// sweep.
    cone_topo: Vec<u32>,
    /// Cone gates in ascending id order, for the D-frontier scan (same
    /// visit order as a whole-netlist scan restricted to the cone).
    cone_by_id: Vec<u32>,
    /// Observation points inside the cone.
    cone_observed: Vec<NetId>,
    /// The fault site the cone structures describe.
    cone_site: Option<FaultSite>,
    /// X-path visited stamps (valid where == `xepoch`).
    xstamp: Vec<u32>,
    xepoch: u32,
    xstack: Vec<u32>,
    work: Vec<u32>,
    /// Undo log of plane writes since search entry, one packed word per
    /// write (see [`trail_entry`]). Backtracking restores from it
    /// instead of re-simulating the X-wipe of retracted decisions, and
    /// the per-resync segments double as the changed-net lists: entries
    /// `[m1..m2)` are exactly the frame-1 nets the resync changed (each
    /// net is written once per level-ordered drain), `[m2..m3)` the
    /// good-plane ones.
    trail: Vec<u32>,
    /// D-frontier output nets of the current objective scan.
    frontier: Vec<u32>,
    /// Pattern snapshot taken at search entry, restored when the search
    /// fails (avoids a heap-allocating clone per targeted fault).
    check_load: Vec<Logic>,
    check_pi: Vec<Logic>,
    /// Identity of the engine the planes were built for.
    owner: Option<(usize, usize, u32, LaunchMode)>,
}

impl PodemScratch {
    /// An unbound scratch; sized and initialised on first use.
    pub fn new() -> Self {
        PodemScratch::default()
    }
}

/// The faulty-plane value of net `i`: the overlay inside the cone, the
/// good plane outside it (where the two machines provably agree).
#[inline]
fn fv(s: &PodemScratch, i: usize) -> Logic {
    if s.cone_net[i] == s.cone_epoch {
        s.faulty2[i]
    } else {
        s.good2[i]
    }
}

/// Seeds the fanout gates of net `n` (raw id) into the event queue.
#[inline]
fn seed_fanout(t: &SimTable, queue: &mut LevelQueue, n: usize) {
    for &g in t.fanout(n) {
        queue.push(t.gate_level(g as usize), g);
    }
}

/// Drains the event queue against one value plane: re-evaluates each
/// scheduled gate and schedules its fanout when the output changed.
/// Levelized order guarantees each gate sees final input values, so the
/// result equals a full levelized pass over the same inputs.
fn drain_events(t: &SimTable, queue: &mut LevelQueue, plane: &mut [Logic]) {
    while let Some(gi) = queue.pop() {
        let g = gi as usize;
        let out = t.eval_plane(g, plane);
        let o = t.output(g) as usize;
        if plane[o] != out {
            plane[o] = out;
            seed_fanout(t, queue, o);
        }
    }
}

/// Plane tags for the undo trail.
const TRAIL_FRAME1: u32 = 0 << 30;
const TRAIL_GOOD2: u32 = 1 << 30;
const TRAIL_FAULTY2: u32 = 2 << 30;
/// Net-id bits of a trail entry.
const TRAIL_NET: u32 = (1 << 24) - 1;

/// Packs one undo-trail word: net id in bits 0..24, the overwritten
/// value in bits 24..26, the plane tag in bits 30..32.
#[inline]
fn trail_entry(net: usize, old: Logic, tag: u32) -> u32 {
    net as u32 | ((old as u32) << 24) | tag
}

/// Decodes a 2-bit logic code (the inverse of `Logic as u32`).
#[inline]
fn logic_from_code(code: u32) -> Logic {
    match code & 3 {
        0 => Logic::Zero,
        1 => Logic::One,
        _ => Logic::X,
    }
}

/// [`drain_events`], additionally logging every overwritten value on
/// the undo trail. The trail segment it appends is also the exact
/// changed-net list of the drain (each net is written at most once per
/// level-ordered drain, so the segment is duplicate-free).
fn drain_events_trail(
    t: &SimTable,
    queue: &mut LevelQueue,
    plane: &mut [Logic],
    trail: &mut Vec<u32>,
    tag: u32,
) {
    while let Some(gi) = queue.pop() {
        let g = gi as usize;
        let out = t.eval_plane(g, plane);
        let o = t.output(g) as usize;
        if plane[o] != out {
            trail.push(trail_entry(o, plane[o], tag));
            plane[o] = out;
            seed_fanout(t, queue, o);
        }
    }
}

/// The PODEM engine, reusable across faults.
#[derive(Debug)]
pub struct Podem<'a> {
    sim: LogicSim<'a>,
    /// Flat topology for the hot event-propagation loops.
    table: SimTable,
    active_clock: ClockId,
    mode: LaunchMode,
    backtrack_limit: u32,
    /// Structural depth per net (level of driving gate + 1), backtrace
    /// heuristic.
    depth: Vec<u32>,
    /// Level per gate, for event scheduling.
    gate_level: Vec<u32>,
    /// Number of distinct gate levels.
    num_levels: u32,
    /// Q net per flop (raw id): the frame-1 injection point of a load bit.
    flop_q: Vec<u32>,
    /// Net per primary input (raw id).
    pi_net: Vec<u32>,
    /// CSR over nets: flops whose frame-2 state is `FromD(net)`. Drives
    /// the incremental frame-2 update from frame-1 changed nets.
    d_watch_off: Vec<u32>,
    d_watch: Vec<u32>,
    /// CSR over load-variable indices: flops whose frame-2 state reads
    /// `pattern.load[var]` directly (`Hold` / `LoadOf`).
    l_watch_off: Vec<u32>,
    l_watch: Vec<u32>,
    /// Frame-1 / frame-2 good planes for the fully-unspecified pattern.
    /// Primary targets always start from it, so entry resync is a copy.
    base_frame1: Vec<Logic>,
    base_good2: Vec<Logic>,
    /// Observation points: D nets of active-domain flops.
    observed: Vec<NetId>,
    /// Same, as a per-net mask for the X-path check.
    observed_mask: Vec<bool>,
    /// Per net: can it structurally reach an observation point? Faults
    /// whose effect net cannot are untestable without any search.
    observable: Vec<bool>,
    /// Frame-2 state source per flop ([`loc::state2_sources`]); the
    /// planes, the watch lists and the backtrace all read it.
    state2_src: Vec<State2Src>,
}

impl<'a> Podem<'a> {
    /// Builds a launch-off-capture engine for one netlist and clock
    /// domain.
    pub fn new(netlist: &'a Netlist, active_clock: ClockId, backtrack_limit: u32) -> Self {
        Self::with_mode(netlist, active_clock, LaunchMode::Capture, backtrack_limit)
    }

    /// Builds an engine with an explicit launch mode.
    pub fn with_mode(
        netlist: &'a Netlist,
        active_clock: ClockId,
        mode: LaunchMode,
        backtrack_limit: u32,
    ) -> Self {
        let sim = LogicSim::new(netlist);
        let lv = sim.levelization();
        let table = SimTable::build_with(netlist, lv);
        let mut depth = vec![0u32; netlist.num_nets()];
        let mut gate_level = vec![0u32; netlist.num_gates()];
        let mut num_levels = 0u32;
        for &g in lv.order() {
            let l = lv.level(g);
            depth[netlist.gate(g).output.index()] = l + 1;
            gate_level[g.index()] = l;
            num_levels = num_levels.max(l + 1);
        }
        let observed = loc::observation_points(netlist, active_clock);
        let mut observed_mask = vec![false; netlist.num_nets()];
        for n in &observed {
            observed_mask[n.index()] = true;
        }
        // Backward reachability from the observation points: a fault
        // whose effect net is outside this set can never produce a
        // good/faulty difference at a capture flop.
        let observable = loc::observable_mask(netlist, &observed);
        let state2_src = loc::state2_sources(netlist, active_clock, mode);
        let flop_q: Vec<u32> = netlist.flops().iter().map(|f| f.q.raw()).collect();
        let pi_net: Vec<u32> = netlist.primary_inputs().iter().map(|p| p.raw()).collect();
        let xload = vec![Logic::X; netlist.num_flops()];
        let xpi = vec![Logic::X; netlist.primary_inputs().len()];
        let base_frame1 = sim.eval(&xload, &xpi, None);
        let base_state2 = loc::launch_state(&state2_src, &xload, &base_frame1, Logic::Zero);
        let base_good2 = sim.eval(&base_state2, &xpi, None);
        // Watch lists for the dirty resync: which flops must recompute
        // their frame-2 state when a frame-1 net / a load bit changes.
        let num_flops = netlist.num_flops();
        let mut d_watch_off = vec![0u32; netlist.num_nets() + 1];
        let mut l_watch_off = vec![0u32; num_flops + 1];
        for (i, src) in state2_src.iter().enumerate() {
            match *src {
                State2Src::FromD(d) => d_watch_off[d.index() + 1] += 1,
                State2Src::Hold => l_watch_off[i + 1] += 1,
                State2Src::LoadOf(j) => l_watch_off[j as usize + 1] += 1,
                State2Src::ScanIn => {}
            }
        }
        for n in 0..netlist.num_nets() {
            d_watch_off[n + 1] += d_watch_off[n];
        }
        for j in 0..num_flops {
            l_watch_off[j + 1] += l_watch_off[j];
        }
        let mut d_watch = vec![0u32; d_watch_off[netlist.num_nets()] as usize];
        let mut l_watch = vec![0u32; l_watch_off[num_flops] as usize];
        let mut d_cur = d_watch_off.clone();
        let mut l_cur = l_watch_off.clone();
        for (i, src) in state2_src.iter().enumerate() {
            match *src {
                State2Src::FromD(d) => {
                    d_watch[d_cur[d.index()] as usize] = i as u32;
                    d_cur[d.index()] += 1;
                }
                State2Src::Hold => {
                    l_watch[l_cur[i] as usize] = i as u32;
                    l_cur[i] += 1;
                }
                State2Src::LoadOf(j) => {
                    l_watch[l_cur[j as usize] as usize] = i as u32;
                    l_cur[j as usize] += 1;
                }
                State2Src::ScanIn => {}
            }
        }
        Podem {
            sim,
            table,
            active_clock,
            mode,
            backtrack_limit,
            depth,
            gate_level,
            num_levels,
            flop_q,
            pi_net,
            d_watch_off,
            d_watch,
            l_watch_off,
            l_watch,
            base_frame1,
            base_good2,
            observed,
            observed_mask,
            observable,
            state2_src,
        }
    }

    /// The active clock domain.
    pub fn active_clock(&self) -> ClockId {
        self.active_clock
    }

    /// Tries to extend `pattern` (in place) so it detects `fault`, using
    /// a throwaway scratch. Prefer [`Podem::generate_with_scratch`] in
    /// loops.
    pub fn generate(&self, fault: TransitionFault, pattern: &mut TestPattern) -> PodemOutcome {
        let mut scratch = PodemScratch::default();
        self.generate_with_scratch(fault, pattern, &mut scratch)
    }

    /// Tries to extend `pattern` (in place) so it detects `fault`.
    ///
    /// Existing care bits in `pattern` are treated as hard constraints —
    /// this is what makes greedy dynamic compaction possible. On
    /// `Untestable` / `Aborted`, the pattern is restored to its input
    /// state. The scratch carries the simulated planes from call to
    /// call; any engine may use any scratch (it rebinds itself), but
    /// reuse with the *same* engine is what makes the resync cheap.
    pub fn generate_with_scratch(
        &self,
        fault: TransitionFault,
        pattern: &mut TestPattern,
        scratch: &mut PodemScratch,
    ) -> PodemOutcome {
        if !self.observable[fault.site.effect_net(self.sim.netlist()).index()] {
            // No structural path from the fault effect to a capture
            // point: the faulty plane can never differ at an observed
            // net, so the search below could only ever exhaust or
            // abort. Classify it without simulating anything.
            return PodemOutcome::Untestable;
        }
        scratch.check_load.clear();
        scratch.check_load.extend_from_slice(&pattern.load);
        scratch.check_pi.clear();
        scratch.check_pi.extend_from_slice(&pattern.pi);
        let outcome = self.search(fault, pattern, scratch);
        if outcome != PodemOutcome::Test {
            pattern.load.copy_from_slice(&scratch.check_load);
            pattern.pi.copy_from_slice(&scratch.check_pi);
        }
        outcome
    }

    fn owner_token(&self) -> (usize, usize, u32, LaunchMode) {
        let netlist = self.sim.netlist();
        (
            netlist as *const Netlist as usize,
            netlist.num_nets(),
            self.active_clock.raw(),
            self.mode,
        )
    }

    /// Full (re)initialisation of the scratch planes from `pattern`.
    fn rebuild(&self, pattern: &TestPattern, s: &mut PodemScratch) {
        let netlist = self.sim.netlist();
        s.frame1 = self.sim.eval(&pattern.load, &pattern.pi, None);
        let state2 = loc::launch_state(&self.state2_src, &pattern.load, &s.frame1, Logic::Zero);
        s.good2 = self.sim.eval(&state2, &pattern.pi, None);
        s.faulty2.clear();
        s.faulty2.resize(netlist.num_nets(), Logic::X);
        s.queue
            .ensure(self.num_levels as usize, netlist.num_gates());
        s.cone_net.clear();
        s.cone_net.resize(netlist.num_nets(), 0);
        s.cone_gate.clear();
        s.cone_gate.resize(netlist.num_gates(), 0);
        s.cone_side.clear();
        s.cone_side.resize(netlist.num_nets(), 0);
        s.cone_epoch = 0;
        s.cone_site = None;
        s.xstamp.clear();
        s.xstamp.resize(netlist.num_nets(), 0);
        s.xepoch = 0;
        s.owner = Some(self.owner_token());
    }

    /// Event-driven resync of `frame1` / `good2` after input bits
    /// changed. The planes themselves are the cache: flop-Q and PI nets
    /// hold exactly the input values they were last synced with, so
    /// diffing the pattern against them finds every change. Scans every
    /// input; used once per search entry, where the previous pattern's
    /// planes may differ arbitrarily. In-search decisions go through
    /// [`Podem::resim_dirty`] instead.
    fn sync(&self, pattern: &TestPattern, s: &mut PodemScratch) {
        let t = &self.table;
        if pattern.load.iter().all(|v| *v == Logic::X) && pattern.pi.iter().all(|v| *v == Logic::X)
        {
            // Fully-unspecified pattern (every primary target starts
            // here): the synced planes are a precomputed constant.
            s.frame1.copy_from_slice(&self.base_frame1);
            s.good2.copy_from_slice(&self.base_good2);
            return;
        }
        s.queue.begin();
        for (i, &q) in self.flop_q.iter().enumerate() {
            let v = pattern.load[i];
            let q = q as usize;
            if s.frame1[q] != v {
                s.frame1[q] = v;
                seed_fanout(t, &mut s.queue, q);
            }
        }
        for (i, &p) in self.pi_net.iter().enumerate() {
            let v = pattern.pi[i];
            let p = p as usize;
            if s.frame1[p] != v {
                s.frame1[p] = v;
                seed_fanout(t, &mut s.queue, p);
            }
        }
        drain_events(t, &mut s.queue, &mut s.frame1);
        // Frame 2: recompute each flop's launch state (cheap, O(flops))
        // and diff it against the good plane's Q value; primary inputs
        // are held across both frames.
        s.queue.begin();
        for (i, &q) in self.flop_q.iter().enumerate() {
            let nv = self.state2_src[i].value(i, &pattern.load, &s.frame1, Logic::Zero);
            let q = q as usize;
            if s.good2[q] != nv {
                s.good2[q] = nv;
                seed_fanout(t, &mut s.queue, q);
            }
        }
        for (i, &p) in self.pi_net.iter().enumerate() {
            let v = pattern.pi[i];
            let p = p as usize;
            if s.good2[p] != v {
                s.good2[p] = v;
                seed_fanout(t, &mut s.queue, p);
            }
        }
        drain_events(t, &mut s.queue, &mut s.good2);
    }

    /// Resync restricted to the decision variables that actually changed
    /// (`dirty`): seeds only their nets in frame 1, uses the D/load watch
    /// lists to find the frame-2 flops affected, and event-propagates
    /// from there. Produces exactly the planes a full [`Podem::sync`]
    /// would — both compute the fixpoint of the same input change set —
    /// but skips the O(flops + PIs) input scan per decision. Finishes by
    /// updating the faulty cone from the collected good-plane changes.
    fn resim_dirty(
        &self,
        fault: TransitionFault,
        v_init: Logic,
        pattern: &TestPattern,
        s: &mut PodemScratch,
        dirty: &[Var],
    ) {
        let t = &self.table;
        // Frame 1: only the dirty variables' nets can have changed.
        s.queue.begin();
        let m1 = s.trail.len();
        for &var in dirty {
            let (net, v) = match var {
                Var::Load(i) => (self.flop_q[i as usize] as usize, pattern.load[i as usize]),
                Var::Pi(i) => (self.pi_net[i as usize] as usize, pattern.pi[i as usize]),
            };
            if s.frame1[net] != v {
                s.trail.push(trail_entry(net, s.frame1[net], TRAIL_FRAME1));
                s.frame1[net] = v;
                seed_fanout(t, &mut s.queue, net);
            }
        }
        drain_events_trail(t, &mut s.queue, &mut s.frame1, &mut s.trail, TRAIL_FRAME1);
        // Frame 2 seeds: flops capturing a changed frame-1 D net (read
        // off the trail segment the frame-1 pass appended), flops reading
        // a dirty load bit, and dirty PIs (held across frames).
        s.queue.begin();
        let m2 = s.trail.len();
        for idx in m1..m2 {
            let c = (s.trail[idx] & TRAIL_NET) as usize;
            let (w0, w1) = (
                self.d_watch_off[c] as usize,
                self.d_watch_off[c + 1] as usize,
            );
            for w in w0..w1 {
                let f = self.d_watch[w] as usize;
                let q = self.flop_q[f] as usize;
                let nv = s.frame1[c];
                if s.good2[q] != nv {
                    s.trail.push(trail_entry(q, s.good2[q], TRAIL_GOOD2));
                    s.good2[q] = nv;
                    seed_fanout(t, &mut s.queue, q);
                }
            }
        }
        for &var in dirty {
            match var {
                Var::Load(j) => {
                    let (w0, w1) = (
                        self.l_watch_off[j as usize] as usize,
                        self.l_watch_off[j as usize + 1] as usize,
                    );
                    for w in w0..w1 {
                        let f = self.l_watch[w] as usize;
                        let nv = self.state2_src[f].value(f, &pattern.load, &s.frame1, Logic::Zero);
                        let q = self.flop_q[f] as usize;
                        if s.good2[q] != nv {
                            s.trail.push(trail_entry(q, s.good2[q], TRAIL_GOOD2));
                            s.good2[q] = nv;
                            seed_fanout(t, &mut s.queue, q);
                        }
                    }
                }
                Var::Pi(i) => {
                    let p = self.pi_net[i as usize] as usize;
                    let v = pattern.pi[i as usize];
                    if s.good2[p] != v {
                        s.trail.push(trail_entry(p, s.good2[p], TRAIL_GOOD2));
                        s.good2[p] = v;
                        seed_fanout(t, &mut s.queue, p);
                    }
                }
            }
        }
        drain_events_trail(t, &mut s.queue, &mut s.good2, &mut s.trail, TRAIL_GOOD2);
        self.update_faulty(fault, v_init, s, m2);
    }

    /// Rewinds the undo trail to `mark`, restoring every plane write made
    /// since. Reverse order makes multiple writes to one net unwind
    /// correctly.
    fn restore_trail(s: &mut PodemScratch, mark: usize) {
        while s.trail.len() > mark {
            let e = s.trail.pop().expect("trail length checked");
            let net = (e & TRAIL_NET) as usize;
            let old = logic_from_code(e >> 24);
            match e >> 30 {
                0 => s.frame1[net] = old,
                1 => s.good2[net] = old,
                _ => s.faulty2[net] = old,
            }
        }
    }

    /// Event-driven faulty-cone update after `good2` changed on the nets
    /// recorded in trail segment `[good_from..]`: re-evaluates cone gates
    /// reading a changed net and propagates within the cone. Equivalent
    /// to a full [`Podem::rebuild_faulty`] sweep because every cone gate
    /// whose inputs are unchanged (in both planes) keeps its output, and
    /// the level-ordered drain computes the same fixpoint for the rest.
    fn update_faulty(
        &self,
        fault: TransitionFault,
        v_init: Logic,
        s: &mut PodemScratch,
        good_from: usize,
    ) {
        let t = &self.table;
        let epoch = s.cone_epoch;
        // `begin` is deferred until the first seed: most resimulations
        // change nothing on the cone's input side, and skipping the
        // restart avoids clearing the previous drain's touched buckets.
        let mut any = false;
        let good_end = s.trail.len();
        for idx in good_from..good_end {
            let c = (s.trail[idx] & TRAIL_NET) as usize;
            if s.cone_side[c] != epoch {
                continue;
            }
            for &g in t.fanout(c) {
                if s.cone_gate[g as usize] == epoch {
                    if !any {
                        s.queue.begin();
                        any = true;
                    }
                    s.queue.push(t.gate_level(g as usize), g);
                }
            }
        }
        if !any {
            return;
        }
        let injected = match fault.site {
            FaultSite::Pin { gate, pin } => (gate.index(), pin as usize),
            FaultSite::Net(_) => (usize::MAX, usize::MAX),
        };
        while let Some(gi) = s.queue.pop() {
            let g = gi as usize;
            let ins = t.inputs(g);
            let mut code = 0usize;
            for (k, &inp) in ins.iter().enumerate() {
                let i = inp as usize;
                let mut v = if s.cone_net[i] == epoch {
                    s.faulty2[i]
                } else {
                    s.good2[i]
                };
                if injected == (g, k) {
                    v = v_init;
                }
                code |= (v as usize) << (2 * k);
            }
            let nv = t.eval_coded(g, code);
            let o = t.output(g) as usize;
            if s.faulty2[o] != nv {
                s.trail.push(trail_entry(o, s.faulty2[o], TRAIL_FAULTY2));
                s.faulty2[o] = nv;
                for &succ in t.fanout(o) {
                    if s.cone_gate[succ as usize] == epoch {
                        s.queue.push(t.gate_level(succ as usize), succ);
                    }
                }
            }
        }
    }

    /// Marks the output cone of `site` and builds the cone gate orders
    /// and in-cone observation list. Only cone nets can ever carry a
    /// good/faulty difference, so every downstream consumer (faulty
    /// sweep, D-frontier scan, detection check, X-path) is restricted to
    /// these structures.
    fn set_cone(&self, site: FaultSite, s: &mut PodemScratch) {
        let netlist = self.sim.netlist();
        if s.cone_epoch == u32::MAX {
            s.cone_net.fill(0);
            s.cone_gate.fill(0);
            s.cone_side.fill(0);
            s.cone_epoch = 1;
        } else {
            s.cone_epoch += 1;
        }
        let epoch = s.cone_epoch;
        s.cone_topo.clear();
        s.work.clear();
        match site {
            FaultSite::Net(n) => {
                s.cone_net[n.index()] = epoch;
                s.work.push(n.raw());
            }
            FaultSite::Pin { gate, .. } => {
                // The reading gate itself is the cone root: the
                // difference is born inside it.
                s.cone_gate[gate.index()] = epoch;
                s.cone_topo.push(gate.raw());
                let out = netlist.gate(gate).output;
                s.cone_net[out.index()] = epoch;
                s.work.push(out.raw());
            }
        }
        let t = &self.table;
        while let Some(ni) = s.work.pop() {
            for &g in t.fanout(ni as usize) {
                let g = g as usize;
                if s.cone_gate[g] != epoch {
                    s.cone_gate[g] = epoch;
                    s.cone_topo.push(g as u32);
                    let out = t.output(g) as usize;
                    if s.cone_net[out] != epoch {
                        s.cone_net[out] = epoch;
                        s.work.push(out as u32);
                    }
                }
            }
        }
        for &g in &s.cone_topo {
            for &inp in t.inputs(g as usize) {
                s.cone_side[inp as usize] = epoch;
            }
        }
        s.cone_topo
            .sort_unstable_by_key(|&g| (self.gate_level[g as usize], g));
        s.cone_by_id.clear();
        s.cone_by_id.extend_from_slice(&s.cone_topo);
        s.cone_by_id.sort_unstable();
        s.cone_observed.clear();
        for &o in &self.observed {
            if s.cone_net[o.index()] == epoch {
                s.cone_observed.push(o);
            }
        }
        s.cone_site = Some(site);
    }

    /// Rebuilds the faulty-plane overlay in one topological sweep over
    /// the cone. Equivalent to a full faulty-machine evaluation because
    /// outside the cone the faulty machine equals `good2` (which `fv`
    /// reads through to), and inside it every net is rewritten here.
    fn rebuild_faulty(&self, fault: TransitionFault, v_init: Logic, s: &mut PodemScratch) {
        let t = &self.table;
        let epoch = s.cone_epoch;
        if let FaultSite::Net(n) = fault.site {
            // The stem fault forces the net itself; its driver is never
            // in the cone (no combinational cycles), so nothing below
            // overwrites it.
            s.faulty2[n.index()] = v_init;
        }
        let injected = match fault.site {
            FaultSite::Pin { gate, pin } => (gate.index(), pin as usize),
            FaultSite::Net(_) => (usize::MAX, usize::MAX),
        };
        let topo = std::mem::take(&mut s.cone_topo);
        for &gi in &topo {
            let g = gi as usize;
            let ins = t.inputs(g);
            let mut code = 0usize;
            for (k, &inp) in ins.iter().enumerate() {
                let i = inp as usize;
                let mut v = if s.cone_net[i] == epoch {
                    s.faulty2[i]
                } else {
                    s.good2[i]
                };
                if injected == (g, k) {
                    v = v_init;
                }
                code |= (v as usize) << (2 * k);
            }
            s.faulty2[t.output(g) as usize] = t.eval_coded(g, code);
        }
        s.cone_topo = topo;
    }

    fn search(
        &self,
        fault: TransitionFault,
        pattern: &mut TestPattern,
        s: &mut PodemScratch,
    ) -> PodemOutcome {
        let netlist = self.sim.netlist();
        let v_init = Logic::from_bool(fault.polarity.initial_value());
        let v_final = Logic::from_bool(fault.polarity.final_value());
        let site_net = fault.site.net(netlist);
        if s.owner != Some(self.owner_token()) {
            self.rebuild(pattern, s);
        } else {
            self.sync(pattern, s);
        }
        if s.cone_site != Some(fault.site) {
            self.set_cone(fault.site, s);
        }
        self.rebuild_faulty(fault, v_init, s);
        s.trail.clear();
        // Decision stack: (var, value currently tried, flipped already?,
        // trail mark at decision time).
        let mut stack: Vec<(Var, Logic, bool, u32)> = Vec::new();
        // Variables mutated since the last resync; only their cones need
        // re-simulation.
        let mut dirty: Vec<Var> = Vec::new();
        let mut backtracks = 0u32;
        loop {
            match self.objective(s, fault, site_net, v_init, v_final) {
                Objective::Detected => return PodemOutcome::Test,
                Objective::Assign(net, value, frame) => {
                    match self.backtrace(s, net, value, frame) {
                        Some((var, val)) => {
                            self.set_var(pattern, var, val);
                            stack.push((var, val, false, s.trail.len() as u32));
                            dirty.clear();
                            dirty.push(var);
                            self.resim_dirty(fault, v_init, pattern, s, &dirty);
                        }
                        None => {
                            // No unassigned input reaches the objective —
                            // treat as a conflict.
                            dirty.clear();
                            if !self.backtrack(pattern, &mut stack, s, &mut dirty) {
                                return PodemOutcome::Untestable;
                            }
                            backtracks += 1;
                            if backtracks >= self.backtrack_limit {
                                Self::restore_trail(s, 0);
                                return PodemOutcome::Aborted;
                            }
                            self.resim_dirty(fault, v_init, pattern, s, &dirty);
                        }
                    }
                }
                Objective::Conflict => {
                    dirty.clear();
                    if !self.backtrack(pattern, &mut stack, s, &mut dirty) {
                        return PodemOutcome::Untestable;
                    }
                    backtracks += 1;
                    if backtracks >= self.backtrack_limit {
                        Self::restore_trail(s, 0);
                        return PodemOutcome::Aborted;
                    }
                    self.resim_dirty(fault, v_init, pattern, s, &dirty);
                }
            }
        }
    }

    fn set_var(&self, pattern: &mut TestPattern, var: Var, value: Logic) {
        match var {
            Var::Load(i) => pattern.load[i as usize] = value,
            Var::Pi(i) => pattern.pi[i as usize] = value,
        }
    }

    /// Flips the most recent unflipped decision; pops flipped ones.
    /// Returns `false` when the stack empties (search exhausted). Each
    /// pop rewinds the undo trail to the decision's mark, restoring the
    /// planes to their exact pre-decision state — no re-simulation of
    /// retracted assignments. Only the flipped variable is appended to
    /// `dirty`; the caller resyncs just that one change.
    fn backtrack(
        &self,
        pattern: &mut TestPattern,
        stack: &mut Vec<(Var, Logic, bool, u32)>,
        s: &mut PodemScratch,
        dirty: &mut Vec<Var>,
    ) -> bool {
        while let Some((var, val, flipped, mark)) = stack.pop() {
            Self::restore_trail(s, mark as usize);
            if flipped {
                self.set_var(pattern, var, Logic::X);
            } else {
                let nv = !val;
                self.set_var(pattern, var, nv);
                stack.push((var, nv, true, mark));
                dirty.push(var);
                return true;
            }
        }
        false
    }

    fn objective(
        &self,
        s: &mut PodemScratch,
        fault: TransitionFault,
        site_net: NetId,
        v_init: Logic,
        v_final: Logic,
    ) -> Objective {
        // 1. Launch in frame 1.
        let s1 = s.frame1[site_net.index()];
        if s1 == Logic::X {
            return Objective::Assign(site_net, v_init, Frame::One);
        }
        if s1 != v_init {
            return Objective::Conflict;
        }
        // 2. Excitation in frame 2 (good machine reaches the final value).
        let s2 = s.good2[site_net.index()];
        if s2 == Logic::X {
            return Objective::Assign(site_net, v_final, Frame::Two);
        }
        if s2 != v_final {
            return Objective::Conflict;
        }
        // 3. Detection at an observed capture flop? Only in-cone
        // observation points can differ.
        for &obs in &s.cone_observed {
            let g = s.good2[obs.index()];
            let f = s.faulty2[obs.index()];
            if g.is_known() && f.is_known() && g != f {
                return Objective::Detected;
            }
        }
        // 4. Drive the D-frontier. Gates outside the cone see identical
        // good/faulty input values, so scanning the cone's gates in
        // ascending id order visits exactly the candidates a full scan
        // would, in the same order.
        let t = &self.table;
        let mut best: Option<(u32, NetId, Logic)> = None;
        let mut frontier = std::mem::take(&mut s.frontier);
        frontier.clear();
        // For a branch (pin) fault, the injected gate is on the frontier
        // whenever its output is undetermined: its input *nets* carry no
        // good/faulty difference — the difference is born inside the gate
        // — so the generic scan below would never see it.
        if let FaultSite::Pin { gate, pin } = fault.site {
            let g = gate.index();
            let out = t.output(g) as usize;
            let undetermined = !(s.good2[out].is_known() && s.faulty2[out].is_known());
            if undetermined {
                if let Some((p, val)) = self.side_objective(s, g, pin as usize) {
                    frontier.push(out as u32);
                    let side = t.inputs(g)[p];
                    best = Some((self.depth[side as usize], NetId::new(side), val));
                }
            }
        }
        for idx in 0..s.cone_by_id.len() {
            let g = s.cone_by_id[idx] as usize;
            let out = t.output(g) as usize;
            let out_diff_known = s.good2[out].is_known() && s.faulty2[out].is_known();
            if out_diff_known {
                // Settled (no difference) or already propagated past.
                continue;
            }
            // Output X in some plane: is a difference arriving?
            let mut has_diff_input = false;
            for &inp in t.inputs(g) {
                let i = inp as usize;
                let gv = s.good2[i];
                let f = fv(s, i);
                if gv.is_known() && f.is_known() && gv != f {
                    has_diff_input = true;
                    break;
                }
            }
            if !has_diff_input {
                continue;
            }
            // Pick an X side input and its non-controlling value.
            if let Some((pin, val)) = self.propagation_objective(s, g) {
                frontier.push(out as u32);
                let side = t.inputs(g)[pin];
                let key = self.depth[side as usize]; // prefer shallow side inputs
                if best.is_none_or(|(bk, _, _)| key < bk) {
                    best = Some((key, NetId::new(side), val));
                }
            }
        }
        // X-path check: some frontier output must still reach an observed
        // capture point through not-yet-blocked (X) nets, otherwise the
        // current assignments can never detect the fault.
        let no_x_path = best.is_some() && !self.x_path_exists(s, &frontier);
        s.frontier = frontier;
        if no_x_path {
            return Objective::Conflict;
        }
        match best {
            Some((_, net, val)) => Objective::Assign(net, val, Frame::Two),
            None => Objective::Conflict,
        }
    }

    /// Forward reachability from the D-frontier through X-valued nets to
    /// any observation point (the classic PODEM X-path check).
    fn x_path_exists(&self, s: &mut PodemScratch, frontier_nets: &[u32]) -> bool {
        let t = &self.table;
        if s.xepoch == u32::MAX {
            s.xstamp.fill(0);
            s.xepoch = 1;
        } else {
            s.xepoch += 1;
        }
        let epoch = s.xepoch;
        s.xstack.clear();
        s.xstack.extend_from_slice(frontier_nets);
        while let Some(ni) = s.xstack.pop() {
            let i = ni as usize;
            if s.xstamp[i] == epoch {
                continue;
            }
            s.xstamp[i] = epoch;
            if self.observed_mask[i] {
                return true;
            }
            for &g in t.fanout(i) {
                let o = t.output(g as usize) as usize;
                // Follow only nets whose value is still undecided in at
                // least one plane (a known-equal output blocks the path).
                let gv = s.good2[o];
                let fvv = fv(s, o);
                let blocked = gv.is_known() && fvv.is_known() && gv == fvv;
                if !blocked && s.xstamp[o] != epoch {
                    s.xstack.push(o as u32);
                }
            }
        }
        false
    }

    /// For a D-frontier gate, returns `(pin index, value)` of an
    /// unassigned side input to set non-controlling.
    fn propagation_objective(&self, s: &PodemScratch, g: usize) -> Option<(usize, Logic)> {
        let diff_pin = self.table.inputs(g).iter().position(|&inp| {
            let gv = s.good2[inp as usize];
            let fvv = fv(s, inp as usize);
            gv.is_known() && fvv.is_known() && gv != fvv
        })?;
        self.side_objective(s, g, diff_pin)
    }

    /// Side-input objective for a frontier gate whose difference arrives
    /// on `diff_pin`: pick the first X side input and its non-controlling
    /// value.
    fn side_objective(
        &self,
        s: &PodemScratch,
        g: usize,
        diff_pin: usize,
    ) -> Option<(usize, Logic)> {
        let t = &self.table;
        let mut pin = None;
        for (i, &inp) in t.inputs(g).iter().enumerate() {
            if i != diff_pin
                && (s.good2[inp as usize] == Logic::X || fv(s, inp as usize) == Logic::X)
            {
                pin = Some(i);
                break;
            }
        }
        let pin = pin?;
        let value = match t.kind(g) {
            CellKind::Buf | CellKind::Inv => return None, // single input, no side
            CellKind::And2 | CellKind::And3 | CellKind::Nand2 | CellKind::Nand3 => Logic::One,
            CellKind::Or2 | CellKind::Or3 | CellKind::Nor2 | CellKind::Nor3 => Logic::Zero,
            CellKind::Xor2 | CellKind::Xnor2 => Logic::Zero,
            CellKind::Mux2 => {
                // Route the differing data input through the select
                // (sel = 0 routes input a, sel = 1 routes input b); any
                // other X pin takes the heuristic 0.
                if diff_pin == 2 && pin == 0 {
                    Logic::One
                } else {
                    Logic::Zero
                }
            }
            CellKind::Aoi22 | CellKind::Oai22 => {
                // Partner within the same product must be non-controlling
                // (1 for AOI's AND pair, 0 for OAI's OR pair); the other
                // product must be fully non-controlling (0 / 1).
                let same_product = (pin / 2) == (diff_pin / 2);
                match (t.kind(g), same_product) {
                    (CellKind::Aoi22, true) => Logic::One,
                    (CellKind::Aoi22, false) => Logic::Zero,
                    (CellKind::Oai22, true) => Logic::Zero,
                    (CellKind::Oai22, false) => Logic::One,
                    _ => unreachable!(),
                }
            }
        };
        Some((pin, value))
    }

    /// Maps an objective `(net = value in frame)` back to an unassigned
    /// decision variable and a value for it.
    fn backtrace(
        &self,
        s: &PodemScratch,
        mut net: NetId,
        mut value: Logic,
        mut frame: Frame,
    ) -> Option<(Var, Logic)> {
        let netlist = self.sim.netlist();
        // Bounded walk; each step descends through the driving gate.
        for _ in 0..4 * netlist.num_nets().max(16) {
            match netlist.net(net).source {
                Some(NetSource::PrimaryInput) => {
                    let idx = netlist
                        .primary_inputs()
                        .iter()
                        .position(|&p| p == net)
                        .expect("PI net is registered") as u32;
                    return Some((Var::Pi(idx), value));
                }
                Some(NetSource::Const(_)) => return None,
                Some(NetSource::Flop(f)) => match frame {
                    Frame::One => return Some((Var::Load(f.raw()), value)),
                    // Follow the flop's launch source back to a load bit.
                    Frame::Two => match self.state2_src[f.index()] {
                        State2Src::FromD(d) => {
                            net = d;
                            frame = Frame::One;
                        }
                        State2Src::Hold => return Some((Var::Load(f.raw()), value)),
                        State2Src::LoadOf(up) => return Some((Var::Load(up), value)),
                        // A chain head takes the constant scan-in, which
                        // is never X.
                        State2Src::ScanIn => return None,
                    },
                },
                Some(NetSource::Gate(g)) => {
                    let plane = match frame {
                        Frame::One => &s.frame1,
                        Frame::Two => &s.good2,
                    };
                    let (next, nval) = self.choose_input(plane, g.index(), value)?;
                    net = next;
                    value = nval;
                }
                None => return None,
            }
        }
        None
    }

    /// Chooses which X input of `g` to pursue to justify `out = value`,
    /// returning the input net and its target value.
    fn choose_input(&self, plane: &[Logic], g: usize, value: Logic) -> Option<(NetId, Logic)> {
        let t = &self.table;
        let ins = t.inputs(g);
        let mut xbuf = [0u32; 4];
        let mut xn = 0usize;
        for &inp in ins {
            if plane[inp as usize] == Logic::X {
                xbuf[xn] = inp;
                xn += 1;
            }
        }
        if xn == 0 {
            return None;
        }
        let x_inputs = &xbuf[..xn];
        // `min_by_key` keeps the first minimum and `max_by_key` the last
        // maximum; the backtrace heuristic's tie-breaks depend on it.
        let easiest = |nets: &[u32]| {
            nets.iter()
                .copied()
                .min_by_key(|&n| self.depth[n as usize])
                .expect("non-empty")
        };
        let hardest = |nets: &[u32]| {
            nets.iter()
                .copied()
                .max_by_key(|&n| self.depth[n as usize])
                .expect("non-empty")
        };
        let v = value;
        let (net, val) = match t.kind(g) {
            CellKind::Buf => (x_inputs[0], v),
            CellKind::Inv => (x_inputs[0], !v),
            CellKind::And2 | CellKind::And3 => match v {
                Logic::One => (hardest(x_inputs), Logic::One),
                _ => (easiest(x_inputs), Logic::Zero),
            },
            CellKind::Nand2 | CellKind::Nand3 => match v {
                Logic::Zero => (hardest(x_inputs), Logic::One),
                _ => (easiest(x_inputs), Logic::Zero),
            },
            CellKind::Or2 | CellKind::Or3 => match v {
                Logic::Zero => (hardest(x_inputs), Logic::Zero),
                _ => (easiest(x_inputs), Logic::One),
            },
            CellKind::Nor2 | CellKind::Nor3 => match v {
                Logic::One => (hardest(x_inputs), Logic::Zero),
                _ => (easiest(x_inputs), Logic::One),
            },
            CellKind::Xor2 | CellKind::Xnor2 => {
                let chosen = easiest(x_inputs);
                let other = ins.iter().copied().find(|&n| n != chosen).unwrap_or(chosen);
                let other_v = plane[other as usize].to_bool().unwrap_or(false);
                let want = match t.kind(g) {
                    CellKind::Xor2 => v ^ Logic::from_bool(other_v),
                    _ => !(v ^ Logic::from_bool(other_v)),
                };
                (chosen, want)
            }
            CellKind::Mux2 => {
                // Every branch below must return an X net, or backtrace
                // would wander into a determined cone and report a false
                // conflict (breaking PODEM's completeness).
                let sel = ins[0];
                let a = ins[1];
                let c = ins[2];
                match plane[sel as usize] {
                    Logic::Zero => (a, v),
                    Logic::One => (c, v),
                    Logic::X => {
                        // Prefer steering the select toward a data input
                        // that already equals the target.
                        if plane[a as usize] == v {
                            (sel, Logic::Zero)
                        } else if plane[c as usize] == v {
                            (sel, Logic::One)
                        } else if plane[a as usize] == Logic::X {
                            (a, v)
                        } else if plane[c as usize] == Logic::X {
                            (c, v)
                        } else {
                            // Both data inputs known and wrong: decide the
                            // select; the conflict will surface upstream.
                            (sel, Logic::Zero)
                        }
                    }
                }
            }
            CellKind::Aoi22 | CellKind::Oai22 => {
                // Heuristic: to raise an AOI output, drive an X input of a
                // not-yet-0 product to 0; to lower it, drive an X input to
                // 1 (dually for OAI).
                let inverting_low = match t.kind(g) {
                    CellKind::Aoi22 => Logic::Zero,
                    _ => Logic::One,
                };
                let target = if v == Logic::One {
                    inverting_low
                } else {
                    !inverting_low
                };
                (easiest(x_inputs), target)
            }
        };
        Some((NetId::new(net), val))
    }
}

enum Objective {
    Detected,
    Assign(NetId, Logic, Frame),
    Conflict,
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_dft::{FillPolicy, PatternBatch};
    use scap_netlist::{ClockEdge, NetlistBuilder};
    use scap_sim::{FaultList, Polarity, TransitionFaultSim};

    /// Small but non-trivial: 4 flops, AND/XOR logic, one observation.
    fn mini() -> Netlist {
        let mut b = NetlistBuilder::new("m");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let mut q = Vec::new();
        let mut d = Vec::new();
        for i in 0..4 {
            q.push(b.add_net(format!("q{i}")));
            d.push(b.add_net(format!("d{i}")));
        }
        let w1 = b.add_net("w1");
        let w2 = b.add_net("w2");
        b.add_gate(CellKind::And2, &[q[0], q[1]], w1, blk).unwrap();
        b.add_gate(CellKind::Xor2, &[w1, q[2]], w2, blk).unwrap();
        b.add_gate(CellKind::Inv, &[w2], d[0], blk).unwrap();
        b.add_gate(CellKind::Buf, &[q[0]], d[1], blk).unwrap();
        b.add_gate(CellKind::Nor2, &[q[2], q[3]], d[2], blk)
            .unwrap();
        b.add_gate(CellKind::Nand2, &[w2, q[3]], d[3], blk).unwrap();
        for i in 0..4 {
            b.add_flop(format!("ff{i}"), d[i], q[i], clk, ClockEdge::Rising, blk)
                .unwrap();
        }
        b.finish().unwrap()
    }

    /// Every test PODEM claims must be confirmed by the independent fault
    /// simulator.
    #[test]
    fn podem_tests_are_confirmed_by_fault_simulation() {
        let n = mini();
        let podem = Podem::new(&n, ClockId::new(0), 200);
        let fsim = TransitionFaultSim::new(&n, ClockId::new(0));
        let faults = FaultList::full(&n);
        let mut rng = rand::rngs::mock::StepRng::new(0, 0x9E3779B97F4A7C15);
        let mut found = 0;
        for &fault in faults.faults() {
            let mut pattern = TestPattern::unspecified(&n);
            if podem.generate(fault, &mut pattern) == PodemOutcome::Test {
                found += 1;
                let filled = pattern.fill(&n, FillPolicy::Zero, &mut rng);
                let batch = PatternBatch::pack(std::slice::from_ref(&filled));
                let summary = fsim.detect_batch(&batch.load_words, &batch.pi_words, 1, &[fault]);
                assert_eq!(
                    summary.detect_mask[0] & 1,
                    1,
                    "PODEM test for {fault:?} not confirmed by fault sim: {pattern:?}"
                );
            }
        }
        assert!(
            found >= faults.faults().len() / 2,
            "PODEM found only {found}/{}",
            faults.faults().len()
        );
    }

    /// A scratch carried across faults must behave exactly like a fresh
    /// scratch per fault: same outcomes, same pattern stream.
    #[test]
    fn shared_scratch_matches_fresh_scratch() {
        let n = mini();
        let podem = Podem::new(&n, ClockId::new(0), 200);
        let faults = FaultList::full(&n);
        let mut shared = PodemScratch::new();
        let mut pat_fresh = TestPattern::unspecified(&n);
        let mut pat_shared = TestPattern::unspecified(&n);
        for &fault in faults.faults() {
            let fresh = podem.generate(fault, &mut pat_fresh);
            let reused = podem.generate_with_scratch(fault, &mut pat_shared, &mut shared);
            assert_eq!(fresh, reused, "outcome diverged on {fault:?}");
            assert_eq!(pat_fresh, pat_shared, "pattern diverged on {fault:?}");
        }
    }

    #[test]
    fn untestable_fault_is_classified() {
        // q1's only fanout is a gate feeding d1... build a truly untestable
        // case: a net whose both polarities can't launch because the flop
        // reloads itself with its own value (d = q): no transition possible.
        let mut b = NetlistBuilder::new("u");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let q = b.add_net("q");
        let d = b.add_net("d");
        let q2 = b.add_net("q2");
        b.add_gate(CellKind::Buf, &[q], d, blk).unwrap();
        b.add_flop("ff", d, q, clk, ClockEdge::Rising, blk).unwrap();
        b.add_flop("ff2", d, q2, clk, ClockEdge::Rising, blk)
            .unwrap();
        let n = b.finish().unwrap();
        let podem = Podem::new(&n, ClockId::new(0), 1000);
        // STR on q: frame1 q = 0 requires load 0; frame2 q = next state =
        // buf(q) = 0 -> can never be 1. Untestable.
        let fault = TransitionFault::new(FaultSite::Net(NetId::new(0)), Polarity::SlowToRise);
        let mut pattern = TestPattern::unspecified(&n);
        assert_eq!(
            podem.generate(fault, &mut pattern),
            PodemOutcome::Untestable
        );
        // Pattern unchanged on failure.
        assert_eq!(pattern, TestPattern::unspecified(&n));
    }

    #[test]
    fn unobservable_fault_is_rejected_without_search() {
        // w feeds nothing observable: its only reader drives a net with
        // no flop behind it.
        let mut b = NetlistBuilder::new("o");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let a = b.add_primary_input("a");
        let q = b.add_net("q");
        let d = b.add_net("d");
        let dead = b.add_net("dead");
        b.add_gate(CellKind::Inv, &[q], d, blk).unwrap();
        b.add_gate(CellKind::Inv, &[a], dead, blk).unwrap();
        b.add_primary_output(dead);
        b.add_flop("ff", d, q, clk, ClockEdge::Rising, blk).unwrap();
        let n = b.finish().unwrap();
        let podem = Podem::new(&n, ClockId::new(0), 1000);
        // `dead` never reaches a capture flop (primary outputs are not
        // observed in this flow), so the fault is untestable a priori.
        let fault = TransitionFault::new(FaultSite::Net(dead), Polarity::SlowToFall);
        let mut pattern = TestPattern::unspecified(&n);
        assert_eq!(
            podem.generate(fault, &mut pattern),
            PodemOutcome::Untestable
        );
        assert_eq!(pattern, TestPattern::unspecified(&n));
    }

    /// Launch-off-shift through a flop with no scan role: an unstitched
    /// flop holds its own load across the launch shift, so PODEM must
    /// backtrace a frame-2 objective on it to its own load bit — the
    /// answer the SAT encoder and the fault simulator give.
    #[test]
    fn launch_off_shift_backtraces_through_an_unstitched_flop() {
        use crate::{SatAtpg, SatOutcome};
        use scap_netlist::{FlopId, ScanRole};
        let mut b = NetlistBuilder::new("los");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let q: Vec<NetId> = (0..4).map(|i| b.add_net(format!("q{i}"))).collect();
        let w = b.add_net("w");
        let d = b.add_net("d");
        b.add_gate(CellKind::And2, &[q[0], q[1]], w, blk).unwrap();
        b.add_gate(CellKind::Inv, &[q[3]], d, blk).unwrap();
        for (i, &qi) in q.iter().enumerate().take(3) {
            b.add_flop(format!("ff{i}"), d, qi, clk, ClockEdge::Rising, blk)
                .unwrap();
        }
        b.add_flop("ff3", w, q[3], clk, ClockEdge::Rising, blk)
            .unwrap();
        let mut n = b.finish().unwrap();
        // Chain ff2 -> ff0; ff1 and ff3 stay unstitched.
        n.set_scan_role(
            FlopId::new(2),
            ScanRole {
                chain: 0,
                position: 0,
            },
        );
        n.set_scan_role(
            FlopId::new(0),
            ScanRole {
                chain: 0,
                position: 1,
            },
        );
        let fault = TransitionFault::new(FaultSite::Net(q[0]), Polarity::SlowToRise);

        // SAT: q0 loads 0, takes ff2's 1 at the shift, and w needs ff1
        // to hold its loaded 1.
        let sat = SatAtpg::new(&n, ClockId::new(0), LaunchMode::Shift, 10_000);
        let mut sp = TestPattern::unspecified(&n);
        assert_eq!(sat.generate(fault, &mut sp), SatOutcome::Test);
        assert_eq!(sp.load, [Logic::Zero, Logic::One, Logic::One, Logic::X]);
        let fsim = TransitionFaultSim::with_mode(&n, ClockId::new(0), LaunchMode::Shift);
        let summary = fsim.detect_batch(&[0, 1, 1, 0], &[], 1, &[fault]);
        assert_eq!(summary.detect_mask, [1]);

        let podem = Podem::with_mode(&n, ClockId::new(0), LaunchMode::Shift, 1000);
        let mut pp = TestPattern::unspecified(&n);
        assert_eq!(podem.generate(fault, &mut pp), PodemOutcome::Test);
        assert_eq!(pp.load, sp.load);
    }

    #[test]
    fn secondary_targeting_respects_existing_assignments() {
        let n = mini();
        let podem = Podem::new(&n, ClockId::new(0), 200);
        let faults = FaultList::full(&n);
        // Find two faults that can share a pattern.
        let mut pattern = TestPattern::unspecified(&n);
        let mut merged = 0;
        for &fault in faults.faults() {
            let before = pattern.clone();
            match podem.generate(fault, &mut pattern) {
                PodemOutcome::Test => {
                    merged += 1;
                    // All previously specified bits must be unchanged.
                    for (a, b) in before.load.iter().zip(&pattern.load) {
                        if a.is_known() {
                            assert_eq!(a, b, "constraint violated");
                        }
                    }
                    if merged == 3 {
                        break;
                    }
                }
                _ => {
                    assert_eq!(pattern, before, "failed run must restore");
                }
            }
        }
        assert!(merged >= 2, "compaction should merge at least two faults");
    }
}
