//! Transition-delay-fault model: sites, polarities, fault lists and
//! structural collapsing.

use scap_netlist::{BlockId, CellKind, GateId, NetId, NetSource, Netlist};

/// Where a fault lives: on a net stem or on one gate input pin (branch).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// The stem of a net (covers the driver output pin).
    Net(NetId),
    /// A specific input pin of a gate; the observed signal is the net
    /// feeding that pin but the delay defect only affects this branch.
    Pin {
        /// The reading gate.
        gate: GateId,
        /// Input pin index within the gate.
        pin: u8,
    },
}

impl FaultSite {
    /// The net whose logic value excites the fault.
    pub fn net(self, netlist: &Netlist) -> NetId {
        match self {
            FaultSite::Net(n) => n,
            FaultSite::Pin { gate, pin } => netlist.gate(gate).inputs[pin as usize],
        }
    }

    /// The net where the fault effect enters the fanout cone: the net
    /// itself for a stem fault, the reading gate's output for a branch
    /// fault (the difference is born inside that gate).
    pub fn effect_net(self, netlist: &Netlist) -> NetId {
        match self {
            FaultSite::Net(n) => n,
            FaultSite::Pin { gate, .. } => netlist.gate(gate).output,
        }
    }
}

/// Transition polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Polarity {
    /// Slow-to-rise: the site fails to reach 1 in time. Launch 0→1.
    SlowToRise,
    /// Slow-to-fall: the site fails to reach 0 in time. Launch 1→0.
    SlowToFall,
}

impl Polarity {
    /// The value the site holds *before* the transition (frame 1), which is
    /// also the stuck value the slow signal presents in frame 2.
    #[inline]
    pub const fn initial_value(self) -> bool {
        matches!(self, Polarity::SlowToFall)
    }
    /// The value the site must reach in frame 2 (the good-machine value).
    #[inline]
    pub const fn final_value(self) -> bool {
        matches!(self, Polarity::SlowToRise)
    }

    /// The opposite polarity — what an inverter maps a transition to.
    #[inline]
    pub const fn flipped(self) -> Polarity {
        match self {
            Polarity::SlowToRise => Polarity::SlowToFall,
            Polarity::SlowToFall => Polarity::SlowToRise,
        }
    }

    /// Both polarities.
    pub const BOTH: [Polarity; 2] = [Polarity::SlowToRise, Polarity::SlowToFall];
}

/// One transition delay fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionFault {
    /// The defect location.
    pub site: FaultSite,
    /// Slow-to-rise or slow-to-fall.
    pub polarity: Polarity,
}

impl TransitionFault {
    /// Creates a fault.
    pub const fn new(site: FaultSite, polarity: Polarity) -> Self {
        TransitionFault { site, polarity }
    }

    /// The block owning the faulty cell (the fault site's driver for stems,
    /// the reading gate for pins). Faults on primary-input nets report
    /// `None`.
    pub fn block(&self, netlist: &Netlist) -> Option<BlockId> {
        match self.site {
            FaultSite::Pin { gate, .. } => Some(netlist.gate(gate).block),
            FaultSite::Net(n) => match netlist.net(n).source {
                Some(NetSource::Gate(g)) => Some(netlist.gate(g).block),
                Some(NetSource::Flop(f)) => Some(netlist.flop(f).block),
                _ => None,
            },
        }
    }
}

/// A fault universe with collapse bookkeeping.
///
/// Uncollapsed counting follows industrial practice (two faults per cell
/// terminal); structural collapsing drops branch faults on single-fanout
/// nets (equivalent to the stem) so ATPG and fault simulation work on the
/// smaller set while coverage is still reported against the full universe.
///
/// # Example
///
/// ```no_run
/// # use scap_netlist::Netlist;
/// # fn demo(netlist: &Netlist) {
/// use scap_sim::FaultList;
/// let faults = FaultList::full(netlist);
/// println!("{} uncollapsed, {} collapsed", faults.uncollapsed_count(), faults.faults().len());
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FaultList {
    faults: Vec<TransitionFault>,
    uncollapsed: usize,
}

impl FaultList {
    /// Builds the full transition-fault universe of a netlist: two faults
    /// per driven net stem plus two per branch pin of multi-fanout nets.
    pub fn full(netlist: &Netlist) -> Self {
        let mut faults = Vec::new();
        let mut uncollapsed = 0usize;
        for (i, _net) in netlist.nets().iter().enumerate() {
            let id = NetId::new(i as u32);
            // Constant nets cannot host transitions.
            if matches!(netlist.net(id).source, Some(NetSource::Const(_))) {
                continue;
            }
            let readers = netlist.fanout_gates(id).len() + netlist.fanout_flops(id).len();
            if readers == 0 && !netlist.primary_outputs().contains(&id) {
                // Dangling net: unobservable, still counted as faults in
                // the universe (they exist on silicon) but not targeted.
                continue;
            }
            uncollapsed += 2; // stem
            for p in Polarity::BOTH {
                faults.push(TransitionFault::new(FaultSite::Net(id), p));
            }
            // Branch faults: one per reading gate pin; collapse when the
            // net has a single reader (branch ≡ stem).
            let multi = readers > 1;
            for &g in netlist.fanout_gates(id) {
                for (pin, &inp) in netlist.gate(g).inputs.iter().enumerate() {
                    if inp == id {
                        uncollapsed += 2;
                        if multi {
                            for p in Polarity::BOTH {
                                faults.push(TransitionFault::new(
                                    FaultSite::Pin {
                                        gate: g,
                                        pin: pin as u8,
                                    },
                                    p,
                                ));
                            }
                        }
                    }
                }
            }
            // Flop D pins count toward the uncollapsed universe but are
            // equivalent to the stem for detection purposes.
            uncollapsed += 2 * netlist.fanout_flops(id).len();
        }
        FaultList {
            faults,
            uncollapsed,
        }
    }

    /// Builds the fault list restricted to cells of the given blocks
    /// (the per-block targeting of the paper's staged procedure).
    pub fn for_blocks(netlist: &Netlist, blocks: &[BlockId]) -> Self {
        let all = Self::full(netlist);
        let keep: Vec<TransitionFault> = all
            .faults
            .iter()
            .copied()
            .filter(|f| f.block(netlist).is_some_and(|b| blocks.contains(&b)))
            .collect();
        let ratio = if all.faults.is_empty() {
            0.0
        } else {
            keep.len() as f64 / all.faults.len() as f64
        };
        let uncollapsed = (all.uncollapsed as f64 * ratio).round() as usize;
        FaultList {
            faults: keep,
            uncollapsed,
        }
    }

    /// Builds a list from an explicit fault set (e.g. a filtered subset of
    /// another list). `uncollapsed` is carried through for reporting.
    pub fn from_faults(faults: Vec<TransitionFault>, uncollapsed: usize) -> Self {
        FaultList {
            faults,
            uncollapsed,
        }
    }

    /// Collapsed faults, the working set for ATPG and fault simulation.
    pub fn faults(&self) -> &[TransitionFault] {
        &self.faults
    }

    /// Size of the uncollapsed universe (the number the paper's Table 1
    /// reports).
    pub fn uncollapsed_count(&self) -> usize {
        self.uncollapsed
    }

    /// Builds the transition-fault equivalence map of this list — see
    /// [`CollapseMap`].
    pub fn collapse(&self, netlist: &Netlist) -> CollapseMap {
        CollapseMap::build(netlist, self)
    }
}

/// Transition-fault equivalence classes over a [`FaultList`].
///
/// Two transition faults are *equivalent* when every pattern yields
/// identical detect masks, so simulating one answers for both.
/// Structurally: a fault on a net whose only reader is a buffer or
/// inverter (no flop, no second gate) is equivalent to the fault on that
/// gate's output with the polarity mapped through the gate (inverters
/// flip it), because launch masks coincide under the zero-delay frame
/// values and the propagated diff is the same word. Likewise the branch
/// fault on a buffer/inverter input pin is equivalent to the stem fault
/// on its output. Chains collapse transitively to the *deepest*
/// equivalent fault present in the list, which makes the mapping
/// idempotent (`rep[rep[i]] == rep[i]`).
///
/// Fault simulation targets one representative per class; detection
/// credit is expanded back over every member, so coverage is still
/// reported over the full (uncollapsed) universe.
#[derive(Clone, Debug)]
pub struct CollapseMap {
    rep: Vec<u32>,
    /// Class members grouped by representative (CSR): representative
    /// `r`'s members are `members[offsets[r]..offsets[r + 1]]`, an empty
    /// range for non-representatives.
    offsets: Vec<u32>,
    members: Vec<u32>,
}

impl CollapseMap {
    /// Builds the equivalence map of `faults` on `netlist`.
    pub fn build(netlist: &Netlist, faults: &FaultList) -> Self {
        use std::collections::HashMap;
        let list = faults.faults();
        let index: HashMap<TransitionFault, u32> = list
            .iter()
            .enumerate()
            .map(|(i, f)| (*f, i as u32))
            .collect();
        let mut rep: Vec<u32> = (0..list.len() as u32).collect();
        let mut num_collapsed = 0usize;
        for (i, f) in list.iter().enumerate() {
            let mut deepest = i as u32;
            // Walk start: a stem fault starts on its own net; a branch
            // fault on a buffer/inverter jumps to the gate output first.
            let (mut cur, mut pol) = match f.site {
                FaultSite::Net(n) => (n, f.polarity),
                FaultSite::Pin { gate, .. } => {
                    let g = netlist.gate(gate);
                    if !matches!(g.kind, CellKind::Buf | CellKind::Inv) {
                        continue;
                    }
                    let pol = if matches!(g.kind, CellKind::Inv) {
                        f.polarity.flipped()
                    } else {
                        f.polarity
                    };
                    if let Some(&j) =
                        index.get(&TransitionFault::new(FaultSite::Net(g.output), pol))
                    {
                        deepest = j;
                    }
                    (g.output, pol)
                }
            };
            // Follow single-reader buffer/inverter links. A missing link
            // fault (e.g. filtered out of a per-block list) does not stop
            // the walk: equivalence is transitive through the circuit.
            loop {
                if !netlist.fanout_flops(cur).is_empty() {
                    break;
                }
                let readers = netlist.fanout_gates(cur);
                if readers.len() != 1 {
                    break;
                }
                let g = netlist.gate(readers[0]);
                if !matches!(g.kind, CellKind::Buf | CellKind::Inv) {
                    break;
                }
                if matches!(g.kind, CellKind::Inv) {
                    pol = pol.flipped();
                }
                cur = g.output;
                if let Some(&j) = index.get(&TransitionFault::new(FaultSite::Net(cur), pol)) {
                    deepest = j;
                }
            }
            if deepest != i as u32 {
                num_collapsed += 1;
            }
            rep[i] = deepest;
        }
        scap_obs::counter!("sim.faults_collapsed").add(num_collapsed as u64);
        // Counting sort by representative: count each class at its
        // representative, prefix-sum to class ends, then place members
        // back to front so each range ends ascending at its start.
        let mut offsets = vec![0u32; rep.len() + 1];
        for &r in &rep {
            offsets[r as usize] += 1;
        }
        let mut end = 0;
        for o in &mut offsets {
            end += *o;
            *o = end;
        }
        let mut members = vec![0u32; rep.len()];
        for (i, &r) in rep.iter().enumerate().rev() {
            offsets[r as usize] -= 1;
            members[offsets[r as usize] as usize] = i as u32;
        }
        CollapseMap {
            rep,
            offsets,
            members,
        }
    }

    /// Representative fault index per fault (identity for class
    /// representatives).
    pub fn rep(&self) -> &[u32] {
        &self.rep
    }

    /// Every fault whose representative is `rep`, ascending (`rep`
    /// itself included); empty for a non-representative.
    pub fn members(&self, rep: usize) -> &[u32] {
        &self.members[self.offsets[rep] as usize..self.offsets[rep + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_netlist::{CellKind, ClockEdge, NetlistBuilder};

    fn fanout_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("d");
        let blk = b.add_block("B1");
        let blk2 = b.add_block("B2");
        let clk = b.add_clock_domain("clka", 100e6);
        let a = b.add_primary_input("a");
        let y = b.add_net("y");
        let z1 = b.add_net("z1");
        let z2 = b.add_net("z2");
        let q = b.add_net("q");
        b.add_gate(CellKind::Inv, &[a], y, blk).unwrap();
        b.add_gate(CellKind::Buf, &[y], z1, blk).unwrap();
        b.add_gate(CellKind::Buf, &[y], z2, blk2).unwrap();
        b.add_flop("ff", z1, q, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_primary_output(z2);
        b.add_primary_output(q);
        b.finish().unwrap()
    }

    #[test]
    fn full_list_has_branch_faults_only_on_fanout_stems() {
        let n = fanout_netlist();
        let fl = FaultList::full(&n);
        let pin_faults: Vec<_> = fl
            .faults()
            .iter()
            .filter(|f| matches!(f.site, FaultSite::Pin { .. }))
            .collect();
        // Only net y has two gate readers.
        assert_eq!(pin_faults.len(), 4);
        for f in pin_faults {
            assert_eq!(f.site.net(&n), n.gate(GateId::new(1)).inputs[0]);
        }
    }

    #[test]
    fn uncollapsed_exceeds_collapsed() {
        let n = fanout_netlist();
        let fl = FaultList::full(&n);
        assert!(fl.uncollapsed_count() > fl.faults().len());
    }

    #[test]
    fn per_block_filter_keeps_only_matching_cells() {
        let n = fanout_netlist();
        let b2 = BlockId::new(1);
        let fl = FaultList::for_blocks(&n, &[b2]);
        assert!(!fl.faults().is_empty());
        for f in fl.faults() {
            assert_eq!(f.block(&n), Some(b2));
        }
    }

    #[test]
    fn polarity_values() {
        assert!(Polarity::SlowToRise.final_value());
        assert!(!Polarity::SlowToFall.final_value());
        assert!(!Polarity::SlowToRise.initial_value());
        assert!(Polarity::SlowToFall.initial_value());
    }

    #[test]
    fn fault_site_net_resolution() {
        let n = fanout_netlist();
        let g = GateId::new(1);
        let site = FaultSite::Pin { gate: g, pin: 0 };
        assert_eq!(site.net(&n), n.gate(g).inputs[0]);
    }

    /// `a -Inv-> w1 -Buf-> w2 -> flop`: a single-reader chain where every
    /// upstream fault is equivalent to one at the chain tail.
    fn chain_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let a = b.add_primary_input("a");
        let w1 = b.add_net("w1");
        let w2 = b.add_net("w2");
        let q = b.add_net("q");
        b.add_gate(CellKind::Inv, &[a], w1, blk).unwrap();
        b.add_gate(CellKind::Buf, &[w1], w2, blk).unwrap();
        b.add_flop("ff", w2, q, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_primary_output(q);
        b.finish().unwrap()
    }

    fn index_of(fl: &FaultList, f: TransitionFault) -> u32 {
        fl.faults().iter().position(|&g| g == f).unwrap() as u32
    }

    #[test]
    fn inverter_chain_collapses_to_tail_with_polarity_flip() {
        let n = chain_netlist();
        let fl = FaultList::full(&n);
        let map = fl.collapse(&n);
        // Nets in builder insertion order: a=0, w1=1, w2=2.
        let a = NetId::new(0);
        let w1 = NetId::new(1);
        let w2 = NetId::new(2);
        // One inverter on the walk flips the polarity once; the buffer
        // preserves it.
        let str_a = index_of(
            &fl,
            TransitionFault::new(FaultSite::Net(a), Polarity::SlowToRise),
        );
        let stf_w1 = index_of(
            &fl,
            TransitionFault::new(FaultSite::Net(w1), Polarity::SlowToFall),
        );
        let stf_w2 = index_of(
            &fl,
            TransitionFault::new(FaultSite::Net(w2), Polarity::SlowToFall),
        );
        assert_eq!(map.rep()[str_a as usize], stf_w2);
        assert_eq!(map.rep()[stf_w1 as usize], stf_w2);
        assert_eq!(map.rep()[stf_w2 as usize], stf_w2);
        // Faults on a and w1 (both polarities) fold into w2's classes;
        // w2's two faults represent themselves.
        let collapsed = map.rep().iter().enumerate();
        assert_eq!(collapsed.filter(|&(i, &r)| r != i as u32).count(), 4);
        let members = map.members(stf_w2 as usize);
        assert_eq!(members.len(), 3);
        assert!(members.windows(2).all(|w| w[0] < w[1]));
        for &m in members {
            assert_eq!(map.rep()[m as usize], stf_w2);
        }
        // Every fault sits in exactly one class.
        let sizes: usize = (0..fl.faults().len()).map(|r| map.members(r).len()).sum();
        assert_eq!(sizes, fl.faults().len());
        assert!(map.members(str_a as usize).is_empty());
    }

    #[test]
    fn branch_fault_on_buffer_collapses_to_stem_output() {
        let n = fanout_netlist();
        let fl = FaultList::full(&n);
        let map = fl.collapse(&n);
        // Gate 1 is Buf(y) -> z1; its branch fault is equivalent to the
        // stem fault on z1 with unchanged polarity (z1 feeds a flop, so
        // the walk stops there).
        let pin = index_of(
            &fl,
            TransitionFault::new(
                FaultSite::Pin {
                    gate: GateId::new(1),
                    pin: 0,
                },
                Polarity::SlowToRise,
            ),
        );
        // fanout_netlist insertion order: a=0, y=1, z1=2.
        let z1 = NetId::new(2);
        let stem = index_of(
            &fl,
            TransitionFault::new(FaultSite::Net(z1), Polarity::SlowToRise),
        );
        assert_eq!(map.rep()[pin as usize], stem);
    }

    #[test]
    fn collapse_map_is_idempotent() {
        let n = chain_netlist();
        let fl = FaultList::full(&n);
        let map = fl.collapse(&n);
        for (i, &r) in map.rep().iter().enumerate() {
            assert_eq!(map.rep()[r as usize], r, "rep chain not flattened at {i}");
        }
    }
}
