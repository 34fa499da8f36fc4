//! The two-frame transition-fault model: what the launch edge loads and
//! where a fault's effect can be observed.
//!
//! A transition-fault pattern is a pair `(V1, V2)`. `V1` is the scan
//! load; `V2`'s flop state is set by the launch edge, per flop, as one
//! [`State2Src`]:
//!
//! * **Launch-off-capture** ([`LaunchMode::Capture`], the paper's
//!   method): the launch clock captures the combinational response, so
//!   active-domain flops take their frame-1 D value. Only the flops of
//!   the *active clock domain* are pulsed — the rest hold their loaded
//!   value (the paper generates patterns per clock domain).
//! * **Launch-off-shift** ([`LaunchMode::Shift`]): `V2`'s state is `V1`
//!   shifted by one position along each scan chain, with the scan-in
//!   value entering at the head. Flops without a scan role hold their
//!   load.
//!
//! [`state2_sources`] derives the per-flop sources once per engine and
//! [`launch_state`] applies them to any value type, so PODEM's
//! three-valued planes, the SAT encoder, the bit-parallel fault
//! simulator and the event-driven analyzer share one launch rule.
//! [`observation_points`] and [`observable_mask`] are the matching
//! capture side: the D nets of active-domain flops and the nets that
//! structurally reach one.
//!
//! Primary inputs are held constant across both frames and primary
//! outputs are not observed (low-cost tester constraints, paper §2.4).

use crate::{BatchSim, LogicSim};
use scap_netlist::{ClockId, Logic, NetId, NetSource, Netlist};

/// How the second frame of a transition-fault pattern is launched.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LaunchMode {
    /// Launch-off-capture (broadside): frame 2 is the combinational
    /// response of the load (the paper's method).
    Capture,
    /// Launch-off-shift (skewed-load): frame 2 is the load shifted one
    /// position along every scan chain, scan-in tied to 0. Needs an
    /// at-speed scan-enable (paper §1.1).
    Shift,
}

/// Where a flop's frame-2 (launch) state comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum State2Src {
    /// Launch-off-capture, active domain: captures frame 1's D value.
    FromD(NetId),
    /// Holds its own scan-load value (inactive domain / unstitched).
    Hold,
    /// Launch-off-shift: takes the upstream scan cell's load.
    LoadOf(u32),
    /// Launch-off-shift chain head: the scan-in value.
    ScanIn,
}

impl State2Src {
    /// The launch value of flop `flop` whose source this is, given the
    /// scan load, the frame-1 net values and the scan-in value.
    #[inline]
    pub fn value<T: Copy>(self, flop: usize, load: &[T], frame1: &[T], scan_in: T) -> T {
        match self {
            State2Src::FromD(d) => frame1[d.index()],
            State2Src::Hold => load[flop],
            State2Src::LoadOf(j) => load[j as usize],
            State2Src::ScanIn => scan_in,
        }
    }
}

/// Frame-2 state source per flop for one clock domain and launch mode.
///
/// Under launch-off-shift each stitched flop reads the flop at the next
/// lower position of its chain; the lowest position of a chain is its
/// head and takes the scan-in value.
pub fn state2_sources(
    netlist: &Netlist,
    active_clock: ClockId,
    mode: LaunchMode,
) -> Vec<State2Src> {
    let flops = netlist.flops();
    match mode {
        LaunchMode::Capture => flops
            .iter()
            .map(|f| {
                if f.clock == active_clock {
                    State2Src::FromD(f.d)
                } else {
                    State2Src::Hold
                }
            })
            .collect(),
        LaunchMode::Shift => {
            let mut stitched: Vec<(u16, u32, u32)> = flops
                .iter()
                .enumerate()
                .filter_map(|(i, f)| f.scan.map(|r| (r.chain, r.position, i as u32)))
                .collect();
            stitched.sort_unstable();
            let mut src = vec![State2Src::Hold; flops.len()];
            let mut prev: Option<(u16, u32)> = None;
            for &(chain, _, flop) in &stitched {
                src[flop as usize] = match prev {
                    Some((up_chain, up)) if up_chain == chain => State2Src::LoadOf(up),
                    _ => State2Src::ScanIn,
                };
                prev = Some((chain, flop));
            }
            src
        }
    }
}

/// Frame-2 flop state: [`State2Src::value`] of every flop. Works on any
/// value plane — `Logic` for three-valued frames, `u64` words for 64
/// patterns at once.
pub fn launch_state<T: Copy>(src: &[State2Src], load: &[T], frame1: &[T], scan_in: T) -> Vec<T> {
    src.iter()
        .enumerate()
        .map(|(i, s)| s.value(i, load, frame1, scan_in))
        .collect()
}

/// Observation points of one clock domain: the D nets of its capture
/// flops.
pub fn observation_points(netlist: &Netlist, active_clock: ClockId) -> Vec<NetId> {
    netlist
        .flops()
        .iter()
        .filter(|f| f.clock == active_clock)
        .map(|f| f.d)
        .collect()
}

/// Per-net "can structurally reach an observation point" mask (backward
/// reachability over gate inputs). Fault effects only ever travel along
/// gate fanout, so a fault whose [effect net] falls outside the mask is
/// untestable without any search or simulation.
///
/// [effect net]: crate::FaultSite::effect_net
pub fn observable_mask(netlist: &Netlist, observed: &[NetId]) -> Vec<bool> {
    let mut observable = vec![false; netlist.num_nets()];
    for n in observed {
        observable[n.index()] = true;
    }
    let mut work: Vec<u32> = observed.iter().map(|n| n.raw()).collect();
    while let Some(ni) = work.pop() {
        if let Some(NetSource::Gate(g)) = netlist.net(NetId::new(ni)).source {
            for &inp in &netlist.gate(g).inputs {
                if !observable[inp.index()] {
                    observable[inp.index()] = true;
                    work.push(inp.raw());
                }
            }
        }
    }
    observable
}

/// The two stable frames of a broadside (LOC) pattern, three-valued.
#[derive(Clone, Debug)]
pub struct Frames {
    /// Net values in frame 1 (after scan load, before launch).
    pub frame1: Vec<Logic>,
    /// Net values in frame 2 (after the launch edge).
    pub frame2: Vec<Logic>,
    /// Flop states in frame 2 (what launched).
    pub state2: Vec<Logic>,
}

/// Computes LOC frames with three-valued values (X = unfilled don't-care).
///
/// `load` is the scan state (one entry per flop), `pi` the held primary
/// input values. Only flops in `active_clock` are updated at the launch
/// edge; the others keep their loaded value.
pub fn loc_frames(
    sim: &LogicSim<'_>,
    load: &[Logic],
    pi: &[Logic],
    active_clock: ClockId,
) -> Frames {
    let src = state2_sources(sim.netlist(), active_clock, LaunchMode::Capture);
    let frame1 = sim.eval(load, pi, None);
    let state2 = launch_state(&src, load, &frame1, Logic::Zero);
    let frame2 = sim.eval(&state2, pi, None);
    Frames {
        frame1,
        frame2,
        state2,
    }
}

/// Bit-parallel two-frame values for fully-specified pattern batches
/// (produced by [`loc_frames_batch`] or
/// [`crate::TransitionFaultSim::frames`]).
#[derive(Clone, Debug)]
pub struct BatchFrames {
    /// Net words in frame 1.
    pub frame1: Vec<u64>,
    /// Net words in frame 2.
    pub frame2: Vec<u64>,
    /// Flop state words in frame 2.
    pub state2: Vec<u64>,
}

/// Bit-parallel version of [`loc_frames`] for up to 64 filled patterns.
pub fn loc_frames_batch(
    sim: &BatchSim<'_>,
    load: &[u64],
    pi: &[u64],
    active_clock: ClockId,
) -> BatchFrames {
    let src = state2_sources(sim.netlist(), active_clock, LaunchMode::Capture);
    let frame1 = sim.eval(load, pi);
    let state2 = launch_state(&src, load, &frame1, 0);
    let frame2 = sim.eval(&state2, pi);
    BatchFrames {
        frame1,
        frame2,
        state2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_netlist::{CellKind, ClockEdge, FlopId, NetlistBuilder, ScanRole};

    /// Two domains: ff0 (clka) toggles itself through an inverter; ff1
    /// (clkb) also fed by an inverter from its own Q.
    fn two_domain() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let blk = b.add_block("B1");
        let clka = b.add_clock_domain("clka", 100e6);
        let clkb = b.add_clock_domain("clkb", 50e6);
        let q0 = b.add_net("q0");
        let d0 = b.add_net("d0");
        let q1 = b.add_net("q1");
        let d1 = b.add_net("d1");
        b.add_gate(CellKind::Inv, &[q0], d0, blk).unwrap();
        b.add_gate(CellKind::Inv, &[q1], d1, blk).unwrap();
        b.add_flop("ff0", d0, q0, clka, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ff1", d1, q1, clkb, ClockEdge::Rising, blk)
            .unwrap();
        b.finish().unwrap()
    }

    /// Launch-off-shift state of a three-valued load.
    fn shifted(n: &Netlist, load: &[Logic], scan_in: Logic) -> Vec<Logic> {
        let src = state2_sources(n, ClockId::new(0), LaunchMode::Shift);
        launch_state(&src, load, &[], scan_in)
    }

    #[test]
    fn loc_pulses_only_active_domain() {
        let n = two_domain();
        let sim = LogicSim::new(&n);
        let frames = loc_frames(&sim, &[Logic::Zero, Logic::Zero], &[], ClockId::new(0));
        // ff0 launches 0 -> 1; ff1 holds its load.
        assert_eq!(frames.state2, vec![Logic::One, Logic::Zero]);
    }

    #[test]
    fn loc_batch_matches_scalar() {
        let n = two_domain();
        let scalar = LogicSim::new(&n);
        let batch = BatchSim::new(&n);
        let s = loc_frames(&scalar, &[Logic::One, Logic::Zero], &[], ClockId::new(0));
        let w = loc_frames_batch(&batch, &[1, 0], &[], ClockId::new(0));
        for i in 0..n.num_nets() {
            assert_eq!(w.frame2[i] & 1 == 1, s.frame2[i] == Logic::One, "net {i}");
        }
    }

    #[test]
    fn los_shifts_along_chain() {
        let mut n = two_domain();
        n.set_scan_role(
            FlopId::new(0),
            ScanRole {
                chain: 0,
                position: 0,
            },
        );
        n.set_scan_role(
            FlopId::new(1),
            ScanRole {
                chain: 0,
                position: 1,
            },
        );
        // position 0 gets scan_in (0), position 1 gets old position 0 (1).
        assert_eq!(
            shifted(&n, &[Logic::One, Logic::Zero], Logic::Zero),
            vec![Logic::Zero, Logic::One]
        );
    }

    #[test]
    fn los_without_scan_roles_holds_state() {
        let n = two_domain();
        assert_eq!(
            shifted(&n, &[Logic::One, Logic::Zero], Logic::One),
            vec![Logic::One, Logic::Zero]
        );
    }

    #[test]
    fn x_loads_stay_x_through_launch() {
        let n = two_domain();
        let sim = LogicSim::new(&n);
        let frames = loc_frames(&sim, &[Logic::X, Logic::Zero], &[], ClockId::new(0));
        assert_eq!(frames.state2[0], Logic::X);
    }
}
