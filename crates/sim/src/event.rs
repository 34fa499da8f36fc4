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

use scap_netlist::{FlopId, NetId, Netlist};
use scap_timing::DelayAnnotation;
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

    /// Time of the last transition on `net`, or `None` if it never toggled.
    pub fn last_change_ps(&self, net: NetId) -> Option<f64> {
        let t = self.last_change_ps[net.index()];
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

#[derive(PartialEq)]
struct QueuedEvent {
    time_fs: u64,
    seq: u64,
    net: NetId,
    value: bool,
}

/// The latest still-pending scheduled event per net, for inertial
/// (pulse-filtering) delay semantics.
#[derive(Clone, Copy)]
struct Pending {
    time_fs: u64,
    value: bool,
    seq: u64,
}

impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap via reversal.
        other
            .time_fs
            .cmp(&self.time_fs)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Event-driven simulator bound to a netlist + delay annotation.
///
/// # Example
///
/// ```no_run
/// # use scap_netlist::{Netlist, FlopId};
/// # use scap_timing::DelayAnnotation;
/// # fn demo(netlist: &Netlist, ann: &DelayAnnotation, frame1: Vec<bool>) {
/// use scap_sim::EventSim;
/// let sim = EventSim::new(netlist, ann);
/// // ff0 launches a rising edge 450 ps after the root clock edge:
/// let trace = sim.run(&frame1, &[(FlopId::new(0), true, 450.0)]);
/// println!("STW = {} ps, {} toggles", trace.stw_ps(), trace.num_toggles());
/// # }
/// ```
#[derive(Debug)]
pub struct EventSim<'a> {
    netlist: &'a Netlist,
    annotation: &'a DelayAnnotation,
    /// Hard cap on processed events, to bound pathological reconvergence.
    max_events: usize,
    /// Inertial-delay semantics: output pulses narrower than the driving
    /// gate's propagation delay are swallowed, as real gates do. Transport
    /// semantics (every glitch propagates) are available for analysis.
    inertial: bool,
}

impl<'a> EventSim<'a> {
    /// Creates a simulator with inertial delays and a default event budget
    /// of `64 × nets`.
    pub fn new(netlist: &'a Netlist, annotation: &'a DelayAnnotation) -> Self {
        EventSim {
            netlist,
            annotation,
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
        let n = self.netlist;
        assert_eq!(frame1.len(), n.num_nets(), "one value per net");
        let mut value = frame1.to_vec();
        let mut last_change = vec![-1.0f64; n.num_nets()];
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut pending: Vec<Option<Pending>> = vec![None; n.num_nets()];
        let mut cancelled: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for &(flop, val, t_ps) in launches {
            let q = n.flop(flop).q;
            heap.push(QueuedEvent {
                time_fs: ps_to_fs(t_ps),
                seq,
                net: q,
                value: val,
            });
            pending[q.index()] = Some(Pending {
                time_fs: ps_to_fs(t_ps),
                value: val,
                seq,
            });
            seq += 1;
        }
        let mut events = Vec::new();
        let mut processed = 0usize;
        while let Some(ev) = heap.pop() {
            if processed >= self.max_events {
                break;
            }
            if self.inertial && cancelled.remove(&ev.seq) {
                continue; // swallowed pulse edge
            }
            processed += 1;
            let idx = ev.net.index();
            if pending[idx].is_some_and(|p| p.seq == ev.seq) {
                pending[idx] = None;
            }
            if value[idx] == ev.value {
                continue; // no change
            }
            value[idx] = ev.value;
            let t_ps = fs_to_ps(ev.time_fs);
            last_change[idx] = t_ps;
            events.push(ToggleEvent {
                time_ps: t_ps,
                net: ev.net,
                rising: ev.value,
            });
            for &g in n.fanout_gates(ev.net) {
                let gate = n.gate(g);
                let mut ins = [false; 4];
                for (k, &inp) in gate.inputs.iter().enumerate() {
                    ins[k] = value[inp.index()];
                }
                let out = gate.kind.eval_bool(&ins[..gate.inputs.len()]);
                let delay_ps = if out {
                    self.annotation.gate_rise_ps(g)
                } else {
                    self.annotation.gate_fall_ps(g)
                };
                let at = ev.time_fs + ps_to_fs(delay_ps);
                let out_idx = gate.output.index();
                if self.inertial {
                    if let Some(p) = pending[out_idx] {
                        if p.time_fs >= ev.time_fs {
                            if p.value == out {
                                continue; // already heading to this value
                            }
                            if at.saturating_sub(p.time_fs) < ps_to_fs(delay_ps) {
                                // The pulse between the pending edge and
                                // this one is narrower than the gate can
                                // pass: swallow both edges.
                                cancelled.insert(p.seq);
                                pending[out_idx] = None;
                                continue;
                            }
                        }
                    }
                }
                heap.push(QueuedEvent {
                    time_fs: at,
                    seq,
                    net: gate.output,
                    value: out,
                });
                pending[out_idx] = Some(Pending {
                    time_fs: at,
                    value: out,
                    seq,
                });
                seq += 1;
            }
        }
        scap_obs::counter!("sim.event_runs").incr();
        scap_obs::counter!("sim.toggle_events").add(events.len() as u64);
        // The heap pops in time order but pushes during processing keep it
        // correct; events are therefore already time-sorted.
        ToggleTrace {
            events,
            last_change_ps: last_change,
        }
    }
}

#[inline]
fn ps_to_fs(ps: f64) -> u64 {
    (ps * 1000.0).round().max(0.0) as u64
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
    fn event_budget_caps_runaway() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let sim = EventSim::new(&n, &ann).with_max_events(1);
        let frame1 = stable_frame1(&n, false);
        let trace = sim.run(&frame1, &[(FlopId::new(0), true, 0.0)]);
        assert!(trace.num_toggles() <= 1);
    }
}
