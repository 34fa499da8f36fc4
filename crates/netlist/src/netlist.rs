//! The flat gate-level netlist data structure.

use crate::{BlockId, CellKind, ClockId, FlopId, GateId, Library, NetId};

/// What drives a net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetSource {
    /// Driven by a combinational gate output.
    Gate(GateId),
    /// Driven by a flip-flop Q output.
    Flop(FlopId),
    /// A primary input pin.
    PrimaryInput,
    /// Tied to a constant value.
    Const(bool),
}

/// A single-driver wire.
#[derive(Clone, Debug, PartialEq)]
pub struct Net {
    /// Hierarchical net name.
    pub name: String,
    /// The driver; `None` only transiently during building.
    pub source: Option<NetSource>,
}

/// A combinational gate instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Cell function.
    pub kind: CellKind,
    /// Input nets, in pin order.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
    /// Owning hierarchical block.
    pub block: BlockId,
}

/// Active clock edge of a flop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ClockEdge {
    /// Rising-edge triggered (the common case).
    Rising,
    /// Falling-edge triggered; the paper's design has 22 such flops on a
    /// dedicated scan chain.
    Falling,
}

/// Scan configuration of a flop, assigned by scan insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanRole {
    /// Which scan chain the cell is stitched into.
    pub chain: u16,
    /// Position within the chain, 0 = closest to scan-in.
    pub position: u32,
}

/// A (scan-able) D flip-flop instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Flop {
    /// Instance name.
    pub name: String,
    /// Functional data input net.
    pub d: NetId,
    /// Data output net.
    pub q: NetId,
    /// Clock domain driving this flop.
    pub clock: ClockId,
    /// Active clock edge.
    pub edge: ClockEdge,
    /// Owning hierarchical block.
    pub block: BlockId,
    /// Scan-chain membership, once scan has been inserted.
    pub scan: Option<ScanRole>,
}

/// A hierarchical block (the paper's B1…B6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Block name, e.g. `"B5"`.
    pub name: String,
}

/// A clock domain.
#[derive(Clone, Debug, PartialEq)]
pub struct ClockDomain {
    /// Domain name, e.g. `"clka"`.
    pub name: String,
    /// Functional (at-speed) frequency in Hz.
    pub frequency_hz: f64,
}

impl ClockDomain {
    /// Clock period in picoseconds.
    #[inline]
    pub fn period_ps(&self) -> f64 {
        1.0e12 / self.frequency_hz
    }
}

/// A flat gate-level netlist with blocks and clock domains.
///
/// Construct via [`NetlistBuilder`](crate::NetlistBuilder); the structure is
/// immutable afterwards except for scan-role annotation.
#[derive(Clone, Debug)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    /// Technology library the design is mapped to.
    pub library: Library,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    flops: Vec<Flop>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    blocks: Vec<Block>,
    clocks: Vec<ClockDomain>,
    /// Fanout lists per net: gates that read it.
    fanout_gates: Vec<Vec<GateId>>,
    /// Fanout lists per net: flop D pins that read it.
    fanout_flops: Vec<Vec<FlopId>>,
}

impl Netlist {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        name: String,
        library: Library,
        nets: Vec<Net>,
        gates: Vec<Gate>,
        flops: Vec<Flop>,
        primary_inputs: Vec<NetId>,
        primary_outputs: Vec<NetId>,
        blocks: Vec<Block>,
        clocks: Vec<ClockDomain>,
    ) -> Self {
        let mut fanout_gates = vec![Vec::new(); nets.len()];
        let mut fanout_flops = vec![Vec::new(); nets.len()];
        for (i, g) in gates.iter().enumerate() {
            for &inp in &g.inputs {
                fanout_gates[inp.index()].push(GateId::new(i as u32));
            }
        }
        for (i, ff) in flops.iter().enumerate() {
            fanout_flops[ff.d.index()].push(FlopId::new(i as u32));
        }
        Netlist {
            name,
            library,
            nets,
            gates,
            flops,
            primary_inputs,
            primary_outputs,
            blocks,
            clocks,
            fanout_gates,
            fanout_flops,
        }
    }

    /// Number of nets.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of combinational gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of flip-flops.
    #[inline]
    pub fn num_flops(&self) -> usize {
        self.flops.len()
    }

    /// A net by id.
    #[inline]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// A gate by id.
    #[inline]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// A flop by id.
    #[inline]
    pub fn flop(&self, id: FlopId) -> &Flop {
        &self.flops[id.index()]
    }

    /// A block by id.
    #[inline]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// A clock domain by id.
    #[inline]
    pub fn clock(&self, id: ClockId) -> &ClockDomain {
        &self.clocks[id.index()]
    }

    /// All gates, indexable by [`GateId::index`].
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// All flops, indexable by [`FlopId::index`].
    #[inline]
    pub fn flops(&self) -> &[Flop] {
        &self.flops
    }

    /// All nets, indexable by [`NetId::index`].
    #[inline]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All blocks.
    #[inline]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// All clock domains.
    #[inline]
    pub fn clocks(&self) -> &[ClockDomain] {
        &self.clocks
    }

    /// Primary input nets.
    #[inline]
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary output nets.
    #[inline]
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// Gates whose inputs include `net`.
    #[inline]
    pub fn fanout_gates(&self, net: NetId) -> &[GateId] {
        &self.fanout_gates[net.index()]
    }

    /// Flops whose D pin reads `net`.
    #[inline]
    pub fn fanout_flops(&self, net: NetId) -> &[FlopId] {
        &self.fanout_flops[net.index()]
    }

    /// Iterator over flop ids in a given clock domain.
    pub fn flops_in_clock(&self, clock: ClockId) -> impl Iterator<Item = FlopId> + '_ {
        self.flops
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.clock == clock)
            .map(|(i, _)| FlopId::new(i as u32))
    }

    /// Iterator over flop ids owned by a block.
    pub fn flops_in_block(&self, block: BlockId) -> impl Iterator<Item = FlopId> + '_ {
        self.flops
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.block == block)
            .map(|(i, _)| FlopId::new(i as u32))
    }

    /// Iterator over gate ids owned by a block.
    pub fn gates_in_block(&self, block: BlockId) -> impl Iterator<Item = GateId> + '_ {
        self.gates
            .iter()
            .enumerate()
            .filter(move |(_, g)| g.block == block)
            .map(|(i, _)| GateId::new(i as u32))
    }

    /// Total load capacitance seen by a net's driver: the sum of reader pin
    /// capacitances plus the driver's own output capacitance (wire cap is
    /// added by the timing crate, which knows placement).
    pub fn pin_load_ff(&self, net: NetId) -> f64 {
        let lib = &self.library;
        let mut cap = match self.net(net).source {
            Some(NetSource::Gate(g)) => lib.cell(self.gate(g).kind).output_cap_ff,
            Some(NetSource::Flop(_)) => lib.flop().output_cap_ff,
            _ => 0.0,
        };
        for &g in self.fanout_gates(net) {
            cap += lib.cell(self.gate(g).kind).input_cap_ff;
        }
        cap += self.fanout_flops(net).len() as f64 * lib.flop().input_cap_ff;
        cap
    }

    /// Assigns scan roles; used by the DFT crate after stitching.
    pub fn set_scan_role(&mut self, flop: FlopId, role: ScanRole) {
        self.flops[flop.index()].scan = Some(role);
    }

    /// Mutable access to a net — **invariant-breaking**.
    ///
    /// Exists so defect-injection tests (and lint fixtures) can corrupt a
    /// built design; nothing in the production flow calls it. Mutating a
    /// net's `source` can violate the single-driver / no-floating-net
    /// invariants the rest of the workspace assumes, and the precomputed
    /// [`Netlist::fanout_gates`] / [`Netlist::fanout_flops`] lists are
    /// **not** updated. `scap-lint` deliberately recomputes connectivity
    /// from the gate/flop tables so it still sees such corruption.
    pub fn net_mut(&mut self, id: NetId) -> &mut Net {
        &mut self.nets[id.index()]
    }

    /// Mutable access to a gate — **invariant-breaking**; see
    /// [`Netlist::net_mut`] for the caveats.
    pub fn gate_mut(&mut self, id: GateId) -> &mut Gate {
        &mut self.gates[id.index()]
    }

    /// Mutable access to a flop — **invariant-breaking**; see
    /// [`Netlist::net_mut`] for the caveats.
    pub fn flop_mut(&mut self, id: FlopId) -> &mut Flop {
        &mut self.flops[id.index()]
    }

    /// Mutable access to a clock domain — **invariant-breaking**; see
    /// [`Netlist::net_mut`] for the caveats.
    pub fn clock_mut(&mut self, id: ClockId) -> &mut ClockDomain {
        &mut self.clocks[id.index()]
    }

    /// The id of the dominant clock domain: the one controlling the most
    /// scan flops (the paper's `clka`).
    pub fn dominant_clock(&self) -> Option<ClockId> {
        let mut counts = vec![0usize; self.clocks.len()];
        for f in &self.flops {
            counts[f.clock.index()] += 1;
        }
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| ClockId::new(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100.0e6);
        let a = b.add_primary_input("a");
        let bb = b.add_primary_input("b");
        let q = b.add_net("q");
        let d = b.add_net("d");
        b.add_gate(CellKind::Nand2, &[a, bb], d, blk).unwrap();
        b.add_flop("ff0", d, q, clk, ClockEdge::Rising, blk)
            .unwrap();
        let out = b.add_net("out");
        b.add_gate(CellKind::Inv, &[q], out, blk).unwrap();
        b.add_primary_output(out);
        b.finish().unwrap()
    }

    #[test]
    fn fanout_lists_are_consistent() {
        let n = tiny();
        let q = n.flop(FlopId::new(0)).q;
        assert_eq!(n.fanout_gates(q).len(), 1);
        let d = n.flop(FlopId::new(0)).d;
        assert_eq!(n.fanout_flops(d), &[FlopId::new(0)]);
    }

    #[test]
    fn pin_load_accumulates_reader_caps() {
        let n = tiny();
        let q = n.flop(FlopId::new(0)).q;
        let inv_cin = n.library.cell(CellKind::Inv).input_cap_ff;
        let ff_cout = n.library.flop().output_cap_ff;
        assert!((n.pin_load_ff(q) - (inv_cin + ff_cout)).abs() < 1e-12);
    }

    #[test]
    fn dominant_clock_of_single_domain() {
        let n = tiny();
        assert_eq!(n.dominant_clock(), Some(ClockId::new(0)));
    }

    #[test]
    fn clock_period_conversion() {
        let d = ClockDomain {
            name: "clka".into(),
            frequency_hz: 50.0e6,
        };
        // The paper's clka patterns run on a 20 ns cycle.
        assert!((d.period_ps() - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn block_and_clock_iterators() {
        let n = tiny();
        assert_eq!(n.flops_in_block(BlockId::new(0)).count(), 1);
        assert_eq!(n.flops_in_clock(ClockId::new(0)).count(), 1);
        assert_eq!(n.gates_in_block(BlockId::new(0)).count(), 2);
    }
}
