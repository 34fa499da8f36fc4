//! Event-driven gate-level timing simulation.
//!
//! This is the VCS-with-SDF substitute: starting from a stable frame-1
//! state, flop outputs toggle at their (clock arrival + clock-to-Q) times
//! and events propagate through gates with annotated rise/fall delays.
//! The default semantics are inertial — pulses narrower than a gate's
//! propagation delay are swallowed, as in real silicon — while glitches
//! wide enough to pass are modeled and counted (they draw real charge);
//! [`EventSim::with_transport_delays`] propagates everything instead. The
//! resulting [`ToggleTrace`] is the input to the SCAP calculator and to
//! dynamic IR-drop analysis, and its latest event defines the pattern's
//! **switching time window (STW)**.
//!
//! # The kernel
//!
//! Times are integer femtoseconds: [`GateDelays`] rounds each gate's
//! rise and fall delay once per annotation. Events fire in
//! `(time, sequence)` order, where the sequence number counts scheduled
//! events in push order. The kernel walks the flattened [`SimTable`] —
//! fanout in `Netlist::fanout_gates` order, gates evaluated through
//! their 16-entry truth tables — and keeps every working buffer in an
//! [`EventScratch`] that a worker reuses across patterns:
//!
//! * an arena of scheduled events, indexed by sequence number; a
//!   swallowed pulse edge is a flag on its arena entry,
//! * the net value plane and each net's latest pending event,
//! * an exact time wheel: 16 384 slots of 0.256 ps, each a list through
//!   the arena, plus a min-heap for events beyond its 4.2 ns horizon. A
//!   slot's events are sorted by `(time, sequence)` when the wheel
//!   reaches it, so the pop order is that of one global heap.
//!
//! `crates/sim/tests/event_oracle.rs` keeps the `BinaryHeap` + `HashSet`
//! kernel this one replaced and requires identical traces.

use crate::table::SimTable;
use scap_netlist::{FlopId, GateId, NetId, Netlist};
use scap_timing::DelayAnnotation;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One net transition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ToggleEvent {
    /// Event time in picoseconds after the launch clock edge at the root.
    pub time_ps: f64,
    /// The toggling net.
    pub net: NetId,
    /// `true` for a 0→1 transition (draws charge from VDD), `false` for
    /// 1→0 (dumps charge into VSS).
    pub rising: bool,
}

/// The switching activity of one pattern's launch-to-capture window.
#[derive(Clone, Debug, Default)]
pub struct ToggleTrace {
    /// All transitions, in non-decreasing time order.
    pub events: Vec<ToggleEvent>,
    last_change_ps: Vec<f64>,
}

impl ToggleTrace {
    /// The switching time window: the time of the last transition, ps.
    /// Returns 0 for a quiescent pattern.
    pub fn stw_ps(&self) -> f64 {
        self.events.last().map_or(0.0, |e| e.time_ps)
    }

    /// Time of the last transition on `net`, or `None` if it never toggled
    /// (or the trace does not cover `net`, as for a default trace).
    pub fn last_change_ps(&self, net: NetId) -> Option<f64> {
        let t = *self.last_change_ps.get(net.index())?;
        (t >= 0.0).then_some(t)
    }

    /// Total number of transitions.
    pub fn num_toggles(&self) -> usize {
        self.events.len()
    }

    /// Rising / falling transition counts per net.
    pub fn toggle_counts(&self, num_nets: usize) -> Vec<(u32, u32)> {
        let mut counts = vec![(0u32, 0u32); num_nets];
        for e in &self.events {
            let c = &mut counts[e.net.index()];
            if e.rising {
                c.0 += 1;
            } else {
                c.1 += 1;
            }
        }
        counts
    }
}

/// An annotation's gate delays in the kernel's unit: `[fall, rise]` of
/// every gate, rounded to whole femtoseconds (half away from zero,
/// negative delays clamped to 0). Build once per annotation and share it
/// across the simulators of many patterns.
#[derive(Clone, Debug)]
pub struct GateDelays {
    fs: Vec<[u64; 2]>,
}

impl GateDelays {
    /// Rounds every gate delay of `annotation`.
    pub fn new(annotation: &DelayAnnotation) -> Self {
        GateDelays {
            fs: (0..annotation.num_gates() as u32)
                .map(GateId::new)
                .map(|g| {
                    [
                        ps_to_fs(annotation.gate_fall_ps(g)),
                        ps_to_fs(annotation.gate_rise_ps(g)),
                    ]
                })
                .collect(),
        }
    }

    /// The delay of gate `g` driving its output to `rising`, fs.
    #[inline]
    fn to(&self, g: usize, rising: bool) -> u64 {
        self.fs[g][usize::from(rising)]
    }
}

/// Marks "no event": an empty wheel slot, the end of a slot's list, a
/// net with nothing pending.
const NONE: u32 = u32::MAX;

/// One scheduled transition. Its index in [`EventScratch::arena`] is its
/// sequence number.
#[derive(Clone, Copy, Debug)]
struct Scheduled {
    time_fs: u64,
    net: u32,
    /// The next event of the same wheel slot.
    next: u32,
    value: bool,
    /// A later edge swallowed this one (inertial pulse filtering).
    cancelled: bool,
}

/// log2 of the wheel's slot width in fs (0.256 ps: a slot rarely holds
/// more than a few events).
const SLOT_SHIFT: u32 = 8;
/// Slots on the wheel, a power of two: a 4.2 ns horizon, well past the
/// slowest gate of the case-study designs (under 0.5 ns), so the
/// overflow heap is for unusual inputs.
const SLOTS: usize = 1 << 14;

/// The exact `(time, sequence)` priority queue of the kernel.
///
/// Time is cut into buckets of `2^SLOT_SHIFT` fs. The bucket being
/// drained sits sorted in `current`; later buckets within `SLOTS` of it
/// hang off wheel slots as arena lists; anything further out waits in
/// `overflow`. Pushes never precede the last pop (delays are
/// non-negative), which is all the structure relies on.
#[derive(Debug, Default)]
struct TimeWheel {
    /// Absolute bucket (`time_fs >> SLOT_SHIFT`) of `current`.
    cur: u64,
    /// Events of bucket `cur` in `(time, sequence)` order; the first
    /// `pos` have been popped.
    current: Vec<(u64, u32)>,
    pos: usize,
    /// The latest event pushed to each slot; earlier ones follow its
    /// `next` chain.
    head: Vec<u32>,
    /// One bit per non-empty slot.
    occupied: Vec<u64>,
    /// Events at least `SLOTS` buckets past `cur` when pushed.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
}

impl TimeWheel {
    /// Empties the wheel and rewinds it to time 0.
    fn reset(&mut self) {
        if self.head.len() != SLOTS {
            self.head = vec![NONE; SLOTS];
            self.occupied = vec![0; SLOTS / 64];
        }
        for (w, word) in self.occupied.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.head[w * 64 + bits.trailing_zeros() as usize] = NONE;
                bits &= bits - 1;
            }
        }
        self.overflow.clear();
        self.current.clear();
        self.pos = 0;
        self.cur = 0;
    }

    fn push(&mut self, arena: &mut [Scheduled], seq: u32) {
        let t = arena[seq as usize].time_fs;
        let bucket = t >> SLOT_SHIFT;
        debug_assert!(bucket >= self.cur, "event scheduled in the past");
        if bucket == self.cur {
            // Behind every queued event of the same time: they all have
            // smaller sequence numbers.
            let mut j = self.current.len();
            while j > self.pos && self.current[j - 1].0 > t {
                j -= 1;
            }
            self.current.insert(j, (t, seq));
        } else if bucket - self.cur < SLOTS as u64 {
            let s = bucket as usize & (SLOTS - 1);
            arena[seq as usize].next = std::mem::replace(&mut self.head[s], seq);
            self.occupied[s / 64] |= 1 << (s % 64);
        } else {
            self.overflow.push(Reverse((t, seq)));
        }
    }

    fn pop(&mut self, arena: &[Scheduled]) -> Option<u32> {
        if self.pos == self.current.len() && !self.advance(arena) {
            return None;
        }
        self.pos += 1;
        Some(self.current[self.pos - 1].1)
    }

    /// Moves to the next non-empty bucket and sorts it into `current`.
    /// Returns `false` when nothing is queued.
    fn advance(&mut self, arena: &[Scheduled]) -> bool {
        self.current.clear();
        self.pos = 0;
        let wheel = self.next_occupied();
        let over = self.overflow.peek().map(|Reverse((t, _))| t >> SLOT_SHIFT);
        let Some(next) = wheel.into_iter().chain(over).min() else {
            return false;
        };
        self.cur = next;
        if wheel == Some(next) {
            let s = next as usize & (SLOTS - 1);
            let mut e = std::mem::replace(&mut self.head[s], NONE);
            self.occupied[s / 64] &= !(1 << (s % 64));
            while e != NONE {
                let ev = &arena[e as usize];
                self.current.push((ev.time_fs, e));
                e = ev.next;
            }
        }
        while let Some(&Reverse((t, seq))) = self.overflow.peek() {
            if t >> SLOT_SHIFT != next {
                break;
            }
            self.overflow.pop();
            self.current.push((t, seq));
        }
        self.current.sort_unstable();
        true
    }

    /// The absolute bucket of the first occupied slot after `cur`.
    fn next_occupied(&self) -> Option<u64> {
        let start = (self.cur as usize + 1) & (SLOTS - 1);
        let words = self.occupied.len();
        let mut w = start / 64;
        let mut bits = self.occupied[w] & (!0u64 << (start % 64));
        // The first word twice: its bits at or past `start` now, the
        // wrapped-around bits below `start` last.
        for _ in 0..=words {
            if bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                return Some(self.cur + 1 + (s.wrapping_sub(start) & (SLOTS - 1)) as u64);
            }
            w = (w + 1) % words;
            bits = self.occupied[w];
        }
        None
    }
}

/// Working buffers of [`EventSim::run_in`], reusable across patterns,
/// netlists and simulator settings. Keep one per worker thread.
#[derive(Debug, Default)]
pub struct EventScratch {
    /// Net values, seeded from frame 1.
    value: Vec<bool>,
    /// Latest still-pending event per net, for inertial pulse filtering;
    /// all [`NONE`] between runs.
    pending: Vec<u32>,
    /// Every event scheduled in the current run, by sequence number.
    arena: Vec<Scheduled>,
    wheel: TimeWheel,
    /// The previous run's toggle count, to size the next event list.
    last_toggles: usize,
}

/// Event-driven simulator bound to a netlist + gate delays.
///
/// # Example
///
/// ```no_run
/// # use scap_netlist::{Netlist, FlopId};
/// # use scap_timing::DelayAnnotation;
/// # fn demo(netlist: &Netlist, ann: &DelayAnnotation, frame1: Vec<bool>) {
/// use scap_sim::{EventScratch, EventSim};
/// let sim = EventSim::new(netlist, ann);
/// // ff0 launches a rising edge 450 ps after the root clock edge:
/// let trace = sim.run(&frame1, &[(FlopId::new(0), true, 450.0)]);
/// println!("STW = {} ps, {} toggles", trace.stw_ps(), trace.num_toggles());
/// // Many patterns: one scratch per worker keeps the buffers.
/// let mut scratch = EventScratch::default();
/// let again = sim.run_in(&mut scratch, &frame1, &[(FlopId::new(0), true, 450.0)]);
/// assert_eq!(again.events, trace.events);
/// # }
/// ```
#[derive(Debug)]
pub struct EventSim<'a> {
    netlist: &'a Netlist,
    table: Cow<'a, SimTable>,
    delays: Cow<'a, GateDelays>,
    /// Hard cap on processed events, to bound pathological reconvergence.
    max_events: usize,
    /// Inertial-delay semantics: output pulses narrower than the driving
    /// gate's propagation delay are swallowed, as real gates do. Transport
    /// semantics (every glitch propagates) are available for analysis.
    inertial: bool,
}

impl<'a> EventSim<'a> {
    /// Creates a simulator with inertial delays and a default event budget
    /// of `64 × nets`. Flattens the netlist and rounds the annotation's
    /// delays; use [`EventSim::with_table`] to share both across many
    /// simulators.
    pub fn new(netlist: &'a Netlist, annotation: &DelayAnnotation) -> Self {
        Self::build(
            netlist,
            Cow::Owned(SimTable::build(netlist)),
            Cow::Owned(GateDelays::new(annotation)),
        )
    }

    /// [`EventSim::new`] over an existing flattening of `netlist` (for
    /// example [`BatchSim::table`](crate::BatchSim::table)) and existing
    /// rounded delays: constant-time.
    ///
    /// # Panics
    ///
    /// Panics if `table` or `delays` do not match the netlist's size.
    pub fn with_table(netlist: &'a Netlist, table: &'a SimTable, delays: &'a GateDelays) -> Self {
        Self::build(netlist, Cow::Borrowed(table), Cow::Borrowed(delays))
    }

    fn build(netlist: &'a Netlist, table: Cow<'a, SimTable>, delays: Cow<'a, GateDelays>) -> Self {
        assert_eq!(
            table.num_nets(),
            netlist.num_nets(),
            "table of another netlist"
        );
        assert_eq!(
            delays.fs.len(),
            netlist.num_gates(),
            "one delay pair per gate"
        );
        EventSim {
            netlist,
            table,
            delays,
            max_events: netlist.num_nets().saturating_mul(64).max(1 << 16),
            inertial: true,
        }
    }

    /// Overrides the event budget.
    pub fn with_max_events(mut self, max_events: usize) -> Self {
        self.max_events = max_events;
        self
    }

    /// Selects transport-delay semantics (every pulse propagates, however
    /// narrow). Useful to expose worst-case glitch activity.
    pub fn with_transport_delays(mut self) -> Self {
        self.inertial = false;
        self
    }

    /// Runs the launch-to-capture window.
    ///
    /// * `frame1` — stable pre-launch value of every net,
    /// * `launches` — `(flop, new Q value, Q transition time in ps)` for
    ///   every flop whose Q changes at the launch edge (typically
    ///   clock-arrival + clock-to-Q of the active domain's flops whose
    ///   frame-2 state differs from the load).
    ///
    /// Launches whose value equals the current Q value are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `frame1.len()` differs from the net count.
    pub fn run(&self, frame1: &[bool], launches: &[(FlopId, bool, f64)]) -> ToggleTrace {
        self.run_in(&mut EventScratch::default(), frame1, launches)
    }

    /// [`EventSim::run`] through the caller's buffers. The trace depends
    /// on the arguments alone, never on what the scratch ran before.
    ///
    /// # Panics
    ///
    /// Panics if `frame1.len()` differs from the net count.
    pub fn run_in(
        &self,
        scratch: &mut EventScratch,
        frame1: &[bool],
        launches: &[(FlopId, bool, f64)],
    ) -> ToggleTrace {
        let _span = scap_obs::span!("sim.event");
        let t = &*self.table;
        let delays = &*self.delays;
        let num_nets = t.num_nets();
        assert_eq!(frame1.len(), num_nets, "one value per net");
        let EventScratch {
            value,
            pending,
            arena,
            wheel,
            last_toggles,
        } = scratch;
        value.clear();
        value.extend_from_slice(frame1);
        if pending.len() != num_nets {
            *pending = vec![NONE; num_nets];
        }
        arena.clear();
        wheel.reset();
        for &(flop, val, t_ps) in launches {
            let q = self.netlist.flop(flop).q.raw();
            pending[q as usize] = schedule(arena, wheel, ps_to_fs(t_ps), q, val);
        }
        let mut last_change = vec![-1.0f64; num_nets];
        let mut events = Vec::with_capacity(*last_toggles);
        let mut processed = 0usize;
        let mut truncated = false;
        while let Some(seq) = wheel.pop(arena) {
            if processed >= self.max_events {
                truncated = true;
                break;
            }
            let ev = arena[seq as usize];
            if ev.cancelled {
                continue; // swallowed pulse edge
            }
            processed += 1;
            let idx = ev.net as usize;
            if pending[idx] == seq {
                pending[idx] = NONE;
            }
            if value[idx] == ev.value {
                continue; // no change
            }
            value[idx] = ev.value;
            let t_ps = fs_to_ps(ev.time_fs);
            last_change[idx] = t_ps;
            events.push(ToggleEvent {
                time_ps: t_ps,
                net: NetId::new(ev.net),
                rising: ev.value,
            });
            for &g in t.fanout(idx) {
                let out = t.eval_bits(g as usize, value);
                let delay_fs = delays.to(g as usize, out);
                let at = ev.time_fs + delay_fs;
                let out_net = t.output(g as usize);
                let p = pending[out_net as usize];
                if self.inertial && p != NONE {
                    let prev = &mut arena[p as usize];
                    if prev.time_fs >= ev.time_fs {
                        if prev.value == out {
                            continue; // already heading to this value
                        }
                        if at.saturating_sub(prev.time_fs) < delay_fs {
                            // The pulse between the pending edge and
                            // this one is narrower than the gate can
                            // pass: swallow both edges.
                            prev.cancelled = true;
                            pending[out_net as usize] = NONE;
                            continue;
                        }
                    }
                }
                pending[out_net as usize] = schedule(arena, wheel, at, out_net, out);
            }
        }
        if truncated {
            for e in arena.iter() {
                pending[e.net as usize] = NONE;
            }
        }
        debug_assert!(pending.iter().all(|&p| p == NONE), "pending left set");
        *last_toggles = events.len();
        scap_obs::counter!("sim.event_runs").incr();
        scap_obs::counter!("sim.toggle_events").add(events.len() as u64);
        ToggleTrace {
            events,
            last_change_ps: last_change,
        }
    }
}

/// Appends an event to the arena and queues it; returns its sequence
/// number.
#[inline]
fn schedule(
    arena: &mut Vec<Scheduled>,
    wheel: &mut TimeWheel,
    time_fs: u64,
    net: u32,
    value: bool,
) -> u32 {
    let seq = u32::try_from(arena.len())
        .ok()
        .filter(|&s| s != NONE)
        .expect("event arena exceeds u32 sequence numbers");
    arena.push(Scheduled {
        time_fs,
        net,
        next: NONE,
        value,
        cancelled: false,
    });
    wheel.push(arena, seq);
    seq
}

/// `ps` in whole femtoseconds, rounded half away from zero; negative and
/// NaN times clamp to 0. Equal to `(ps * 1000.0).round().max(0.0) as u64`
/// for every input, without the `round` library call the baseline
/// x86-64 target makes for it.
#[inline]
fn ps_to_fs(ps: f64) -> u64 {
    let fs = ps * 1000.0;
    // Saturating truncation: NaN and negatives give 0. `fs - whole` is
    // exact (both are within one unit of the same binade).
    let whole = fs as u64;
    if fs - whole as f64 >= 0.5 {
        whole.saturating_add(1)
    } else {
        whole
    }
}

#[inline]
fn fs_to_ps(fs: u64) -> f64 {
    fs as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{loc::loc_frames_batch, BatchSim};
    use scap_netlist::{CellKind, ClockEdge, ClockId, GateId, NetlistBuilder};

    /// ff0 -> inv -> inv -> ff1 (chain of 2 inverters).
    fn chain() -> Netlist {
        let mut b = NetlistBuilder::new("c");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let q0 = b.add_net("q0");
        let w = b.add_net("w");
        let d1 = b.add_net("d1");
        let q1 = b.add_net("q1");
        let d0 = b.add_net("d0");
        b.add_gate(CellKind::Inv, &[q0], w, blk).unwrap();
        b.add_gate(CellKind::Inv, &[w], d1, blk).unwrap();
        b.add_gate(CellKind::Buf, &[q0], d0, blk).unwrap();
        b.add_flop("ff0", d0, q0, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ff1", d1, q1, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.finish().unwrap()
    }

    fn stable_frame1(n: &Netlist, q0: bool) -> Vec<bool> {
        let batch = BatchSim::new(n);
        let frames = loc_frames_batch(&batch, &[q0 as u64, 0], &[], ClockId::new(0));
        (0..n.num_nets())
            .map(|i| frames.frame1[i] & 1 == 1)
            .collect()
    }

    #[test]
    fn transition_ripples_down_the_chain() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let sim = EventSim::new(&n, &ann);
        let frame1 = stable_frame1(&n, false);
        let trace = sim.run(&frame1, &[(FlopId::new(0), true, 500.0)]);
        // q0, w, d1 and d0 all toggle: 4 events.
        assert_eq!(trace.num_toggles(), 4);
        let q0 = n.flop(FlopId::new(0)).q;
        let d1 = n.flop(FlopId::new(1)).d;
        assert_eq!(trace.last_change_ps(q0), Some(500.0));
        let t_d1 = trace.last_change_ps(d1).unwrap();
        let expect = 500.0 + ann.gate_fall_ps(GateId::new(0)) + ann.gate_rise_ps(GateId::new(1));
        assert!((t_d1 - expect).abs() < 1e-6, "{t_d1} vs {expect}");
        assert_eq!(
            trace.stw_ps(),
            t_d1.max(trace.last_change_ps(n.flop(FlopId::new(0)).d).unwrap())
        );
    }

    #[test]
    fn no_launch_means_quiescent_trace() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let sim = EventSim::new(&n, &ann);
        let frame1 = stable_frame1(&n, false);
        let trace = sim.run(&frame1, &[]);
        assert_eq!(trace.num_toggles(), 0);
        assert_eq!(trace.stw_ps(), 0.0);
        assert_eq!(trace.last_change_ps(n.flop(FlopId::new(1)).d), None);
    }

    #[test]
    fn launch_to_current_value_is_ignored() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let sim = EventSim::new(&n, &ann);
        let frame1 = stable_frame1(&n, true);
        // q0 is already 1; "launching" 1 changes nothing.
        let trace = sim.run(&frame1, &[(FlopId::new(0), true, 500.0)]);
        assert_eq!(trace.num_toggles(), 0);
    }

    #[test]
    fn glitches_are_counted() {
        // y = a XOR b with different path delays: launch a and b together
        // through paths of different length to y -> glitch on y.
        let mut b = NetlistBuilder::new("g");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let q0 = b.add_net("q0");
        let q1 = b.add_net("q1");
        let slow = b.add_net("slow");
        let slow2 = b.add_net("slow2");
        let y = b.add_net("y");
        let d0 = b.add_net("d0");
        let d1 = b.add_net("d1");
        b.add_gate(CellKind::Buf, &[q0], slow, blk).unwrap();
        b.add_gate(CellKind::Buf, &[slow], slow2, blk).unwrap();
        b.add_gate(CellKind::Xor2, &[slow2, q1], y, blk).unwrap();
        b.add_gate(CellKind::Buf, &[q0], d0, blk).unwrap();
        b.add_gate(CellKind::Buf, &[q1], d1, blk).unwrap();
        b.add_flop("ff0", d0, q0, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ff1", d1, q1, clk, ClockEdge::Rising, blk)
            .unwrap();
        let n = b.finish().unwrap();
        let ann = DelayAnnotation::unit_wire(&n);
        let sim = EventSim::new(&n, &ann);
        // frame1: q0 = 0, q1 = 0 -> y = 0. Launch both rising at t = 500.
        let frame1 = vec![false; n.num_nets()];
        let trace = sim.run(
            &frame1,
            &[(FlopId::new(0), true, 500.0), (FlopId::new(1), true, 500.0)],
        );
        // y rises when q1 arrives, then falls when the slow path arrives:
        // two toggles on y despite identical start/end value.
        let y_toggles = trace.events.iter().filter(|e| e.net == y).count();
        assert_eq!(y_toggles, 2, "glitch must be visible");
        let (rise, fall) = trace.toggle_counts(n.num_nets())[y.index()];
        assert_eq!((rise, fall), (1, 1));
    }

    /// A pulse narrower than the consuming gate's propagation delay is
    /// swallowed under inertial semantics but passes under transport.
    #[test]
    fn narrow_pulse_is_swallowed_inertially() {
        // Two launches on the same flop in quick succession create a
        // 40 ps pulse on q0, far below the buffer delay.
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let frame1 = stable_frame1(&n, false);
        let pulse = [
            (FlopId::new(0), true, 500.0),
            (FlopId::new(0), false, 540.0),
        ];
        let inertial = EventSim::new(&n, &ann).run(&frame1, &pulse);
        let transport = EventSim::new(&n, &ann)
            .with_transport_delays()
            .run(&frame1, &pulse);
        let w = n.gate(GateId::new(0)).output;
        let count = |t: &ToggleTrace, net| t.events.iter().filter(|e| e.net == net).count();
        // Both see the q0 pulse itself (it is an input, not gate-driven)…
        assert_eq!(count(&inertial, n.flop(FlopId::new(0)).q), 2);
        // …but only transport lets it through the first inverter.
        assert_eq!(count(&transport, w), 2);
        assert_eq!(count(&inertial, w), 0, "pulse must be swallowed");
    }

    #[test]
    fn default_trace_has_no_last_change() {
        let trace = ToggleTrace::default();
        assert_eq!(trace.last_change_ps(NetId::new(0)), None);
        assert_eq!(trace.last_change_ps(NetId::new(7)), None);
        assert_eq!(trace.stw_ps(), 0.0);
    }

    /// The integer rounding is `(ps * 1000.0).round().max(0.0) as u64`
    /// on ties, clamps, huge values and a sweep of ordinary delays.
    #[test]
    fn femtosecond_rounding_matches_round() {
        use rand::{Rng, SeedableRng};
        let reference = |ps: f64| (ps * 1000.0).round().max(0.0) as u64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.0005,
            0.000_499_999_999_999_999_9,
            0.0015,
            0.0025,
            12.5,
            12.500_000_4,
            -0.0004,
            -3.0,
            4.5e12,
            9.2e15,
            1.8e16,
            2.0e16,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::EPSILON,
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        cases.extend((0..10_000).map(|_| rng.gen::<f64>() * 2_000.0));
        cases.extend((0..1_000).map(|i| i as f64 * 0.0005));
        for ps in cases {
            assert_eq!(ps_to_fs(ps), reference(ps), "{ps:e} ps");
        }
    }

    /// A scratch reused across netlists, budgets and semantics gives what
    /// fresh buffers give.
    #[test]
    fn reused_scratch_matches_fresh_runs() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let frame1 = stable_frame1(&n, false);
        let pulse = [
            (FlopId::new(0), true, 500.0),
            (FlopId::new(0), false, 540.0),
            (FlopId::new(0), true, 7_000.0),
        ];
        let mut scratch = EventScratch::default();
        for sim in [
            EventSim::new(&n, &ann).with_max_events(2),
            EventSim::new(&n, &ann),
            EventSim::new(&n, &ann).with_transport_delays(),
            EventSim::new(&n, &ann).with_max_events(1),
        ] {
            let fresh = sim.run(&frame1, &pulse);
            let reused = sim.run_in(&mut scratch, &frame1, &pulse);
            assert_eq!(fresh.events, reused.events);
        }
    }

    #[test]
    fn event_budget_caps_runaway() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let sim = EventSim::new(&n, &ann).with_max_events(1);
        let frame1 = stable_frame1(&n, false);
        let trace = sim.run(&frame1, &[(FlopId::new(0), true, 0.0)]);
        assert!(trace.num_toggles() <= 1);
    }
}
