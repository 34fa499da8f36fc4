//! Flattened netlist topology for the hot simulation kernels.
//!
//! The [`Netlist`](scap_netlist::Netlist) stores each gate's inputs in
//! its own `Vec<NetId>` and each net's fanout in a `Vec<Vec<GateId>>` —
//! one heap pointer chase per gate evaluation and another per fanout
//! seed. The fault-propagation, batch and PODEM kernels together
//! evaluate tens of millions of gates per run, so those two dependent
//! cache misses dominate their inner loops. [`SimTable`] flattens the
//! same information into dense arrays built once per simulator:
//!
//! * gate inputs at a fixed stride of 4 (the widest cell), so pin `k` of
//!   gate `g` is `inputs[4 * g + k]` with no indirection,
//! * per-net fanout gates in CSR form (`fan_off` / `fan`),
//! * gate kinds, output nets, levels and the level-ordered evaluation
//!   sequence as plain `u32`/`u8` arrays,
//! * a 16-entry two-valued truth table per gate, for the event-driven
//!   timing kernel.
//!
//! The table carries raw `u32` ids; callers convert at the boundary.

use scap_netlist::{CellKind, Levelization, Logic, Netlist};

/// Maximum number of input pins across all cell kinds (fixed stride).
pub const MAX_INPUTS: usize = 4;

/// Decodes one 2-bit pin field of a packed input code.
#[inline]
fn decode_pin(code: usize, k: usize) -> Logic {
    match (code >> (2 * k)) & 3 {
        0 => Logic::Zero,
        1 => Logic::One,
        _ => Logic::X,
    }
}

/// Flat, cache-friendly view of a netlist's combinational structure.
#[derive(Clone, Debug)]
pub struct SimTable {
    num_nets: usize,
    num_gates: usize,
    kind: Vec<CellKind>,
    n_in: Vec<u8>,
    /// Gate inputs, stride [`MAX_INPUTS`]; unused pins repeat pin 0 so a
    /// fixed four-read gather ([`SimTable::eval_plane`]) never touches an
    /// out-of-range net. [`SimTable::inputs`] still exposes only the real
    /// pins.
    inputs: Vec<u32>,
    /// Three-valued truth tables, one 256-entry block per distinct
    /// `(kind, arity)` pair, indexed by the packed 2-bits-per-pin input
    /// code. Derived from [`CellKind::eval`], so lookups are
    /// bit-identical to the scalar evaluator. Extra pins repeating pin 0
    /// select different codes, but every code maps to the same output
    /// because the generator only evaluates the real pins.
    lut: Vec<Logic>,
    /// Offset of each gate's truth-table block in `lut`.
    lut_base: Vec<u32>,
    /// Two-valued truth table per gate: bit `c` is the output for the
    /// input code `c` (pin `k` in bit `k`), derived from
    /// [`CellKind::eval_bool`] over the real pins.
    truth: Vec<u16>,
    output: Vec<u32>,
    gate_level: Vec<u32>,
    /// Level of the driving gate + 1; 0 for source nets.
    net_level: Vec<u32>,
    num_levels: u32,
    /// Gate ids in ascending level order (full levelized pass order).
    order: Vec<u32>,
    /// CSR fanout: gates reading net `n` are `fan[fan_off[n]..fan_off[n+1]]`.
    fan_off: Vec<u32>,
    fan: Vec<u32>,
}

impl SimTable {
    /// Flattens `netlist` (levelizes internally).
    pub fn build(netlist: &Netlist) -> Self {
        let lv = Levelization::build(netlist);
        Self::build_with(netlist, &lv)
    }

    /// Flattens `netlist` reusing an existing levelization.
    pub fn build_with(netlist: &Netlist, lv: &Levelization) -> Self {
        let num_nets = netlist.num_nets();
        let num_gates = netlist.num_gates();
        let mut kind = Vec::with_capacity(num_gates);
        let mut n_in = Vec::with_capacity(num_gates);
        let mut inputs = vec![0u32; num_gates * MAX_INPUTS];
        let mut output = Vec::with_capacity(num_gates);
        let mut gate_level = vec![0u32; num_gates];
        let mut net_level = vec![0u32; num_nets];
        let mut num_levels = 0u32;
        let mut lut = Vec::new();
        let mut lut_base = Vec::with_capacity(num_gates);
        let mut truth = Vec::with_capacity(num_gates);
        let mut lut_keys: Vec<(CellKind, u8)> = Vec::new();
        let mut key_truth: Vec<u16> = Vec::new();
        for (gi, gate) in netlist.gates().iter().enumerate() {
            kind.push(gate.kind);
            let arity = gate.inputs.len() as u8;
            n_in.push(arity);
            let pad = gate.inputs.first().map_or(0, |n| n.raw());
            for k in 0..MAX_INPUTS {
                inputs[gi * MAX_INPUTS + k] = gate.inputs.get(k).map_or(pad, |n| n.raw());
            }
            output.push(gate.output.raw());
            let key = (gate.kind, arity);
            let slot = match lut_keys.iter().position(|&k| k == key) {
                Some(i) => i,
                None => {
                    lut_keys.push(key);
                    let mut vals = [Logic::X; MAX_INPUTS];
                    for code in 0..256usize {
                        for (k, v) in vals.iter_mut().enumerate() {
                            *v = decode_pin(code, k);
                        }
                        lut.push(gate.kind.eval(&vals[..arity as usize]));
                    }
                    key_truth.push((0..16).fold(0u16, |tt, code| {
                        let ins: [bool; MAX_INPUTS] = std::array::from_fn(|k| code >> k & 1 == 1);
                        tt | u16::from(gate.kind.eval_bool(&ins[..arity as usize])) << code
                    }));
                    lut_keys.len() - 1
                }
            };
            lut_base.push((slot * 256) as u32);
            truth.push(key_truth[slot]);
        }
        let mut order = Vec::with_capacity(num_gates);
        for &g in lv.order() {
            let l = lv.level(g);
            gate_level[g.index()] = l;
            net_level[netlist.gate(g).output.index()] = l + 1;
            num_levels = num_levels.max(l + 1);
            order.push(g.raw());
        }
        // CSR fanout in the same per-net gate order as
        // `Netlist::fanout_gates`, so kernels switching to the table seed
        // events in the identical order.
        let mut fan_off = Vec::with_capacity(num_nets + 1);
        let mut fan = Vec::new();
        fan_off.push(0u32);
        for n in 0..num_nets {
            for g in netlist.fanout_gates(scap_netlist::NetId::new(n as u32)) {
                fan.push(g.raw());
            }
            fan_off.push(fan.len() as u32);
        }
        SimTable {
            num_nets,
            num_gates,
            kind,
            n_in,
            inputs,
            lut,
            lut_base,
            truth,
            output,
            gate_level,
            net_level,
            num_levels,
            order,
            fan_off,
            fan,
        }
    }

    /// Number of nets.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Number of gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// Number of distinct gate levels (scheduler bucket count).
    #[inline]
    pub fn num_levels(&self) -> u32 {
        self.num_levels
    }

    /// Cell kind of gate `g`.
    #[inline]
    pub fn kind(&self, g: usize) -> CellKind {
        self.kind[g]
    }

    /// Input nets of gate `g` (raw net ids).
    #[inline]
    pub fn inputs(&self, g: usize) -> &[u32] {
        &self.inputs[g * MAX_INPUTS..g * MAX_INPUTS + self.n_in[g] as usize]
    }

    /// Input nets of gate `g` padded to four pins by repeating pin 0
    /// (branch-free gather companion of [`SimTable::eval_coded`]).
    #[inline]
    pub fn inputs4(&self, g: usize) -> &[u32] {
        &self.inputs[g * MAX_INPUTS..g * MAX_INPUTS + MAX_INPUTS]
    }

    /// Evaluates gate `g` from a packed input code (2 bits per pin,
    /// `Logic as usize` per field, pin 0 in the low bits). Bit-identical
    /// to `self.kind(g).eval(..)` over the real pins by construction.
    #[inline]
    pub fn eval_coded(&self, g: usize, code: usize) -> Logic {
        self.lut[self.lut_base[g] as usize + code]
    }

    /// Evaluates gate `g` against a value plane: a fixed four-read gather
    /// plus one truth-table lookup, replacing the data-dependent branch
    /// chain of [`CellKind::eval`] in the event-loop hot path.
    #[inline]
    pub fn eval_plane(&self, g: usize, plane: &[Logic]) -> Logic {
        let ins = self.inputs4(g);
        let code = plane[ins[0] as usize] as usize
            | (plane[ins[1] as usize] as usize) << 2
            | (plane[ins[2] as usize] as usize) << 4
            | (plane[ins[3] as usize] as usize) << 6;
        self.eval_coded(g, code)
    }

    /// Evaluates gate `g` against a two-valued plane: the same four-read
    /// gather as [`SimTable::eval_plane`] and one bit of the gate's
    /// 16-entry truth table. Equal to `self.kind(g).eval_bool(..)` over
    /// the real pins.
    #[inline]
    pub fn eval_bits(&self, g: usize, plane: &[bool]) -> bool {
        let ins = self.inputs4(g);
        let code = usize::from(plane[ins[0] as usize])
            | usize::from(plane[ins[1] as usize]) << 1
            | usize::from(plane[ins[2] as usize]) << 2
            | usize::from(plane[ins[3] as usize]) << 3;
        self.truth[g] >> code & 1 == 1
    }

    /// Output net of gate `g` (raw net id).
    #[inline]
    pub fn output(&self, g: usize) -> u32 {
        self.output[g]
    }

    /// Level of gate `g`.
    #[inline]
    pub fn gate_level(&self, g: usize) -> u32 {
        self.gate_level[g]
    }

    /// Level of the gate driving net `n`, plus one (0 for sources).
    #[inline]
    pub fn net_level(&self, n: usize) -> u32 {
        self.net_level[n]
    }

    /// Gate ids in ascending level order.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Gates reading net `n` (raw gate ids).
    #[inline]
    pub fn fanout(&self, n: usize) -> &[u32] {
        &self.fan[self.fan_off[n] as usize..self.fan_off[n + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_netlist::{CellKind, NetlistBuilder};

    #[test]
    fn table_mirrors_netlist_topology() {
        let mut b = NetlistBuilder::new("t");
        let blk = b.add_block("B1");
        let a = b.add_primary_input("a");
        let c = b.add_primary_input("c");
        let w = b.add_net("w");
        let y = b.add_net("y");
        b.add_gate(CellKind::Nand2, &[a, c], w, blk).unwrap();
        b.add_gate(CellKind::Inv, &[w], y, blk).unwrap();
        let n = b.finish().unwrap();
        let t = SimTable::build(&n);
        assert_eq!(t.num_gates(), 2);
        assert_eq!(t.kind(0), CellKind::Nand2);
        assert_eq!(t.inputs(0), &[a.raw(), c.raw()]);
        assert_eq!(t.output(0), w.raw());
        assert_eq!(t.inputs(1), &[w.raw()]);
        assert_eq!(t.fanout(w.index()), &[1]);
        assert_eq!(t.fanout(y.index()), &[] as &[u32]);
        assert_eq!(t.gate_level(0), 0);
        assert_eq!(t.gate_level(1), 1);
        assert_eq!(t.net_level(w.index()), 1);
        assert_eq!(t.net_level(a.index()), 0);
        assert_eq!(t.num_levels(), 2);
        assert_eq!(t.order(), &[0, 1]);
    }

    #[test]
    fn bit_evaluation_matches_eval_bool() {
        let mut b = NetlistBuilder::new("t");
        let blk = b.add_block("B1");
        let pins: Vec<_> = (0..MAX_INPUTS)
            .map(|k| b.add_primary_input(format!("p{k}")))
            .collect();
        for (i, kind) in CellKind::ALL.iter().enumerate() {
            let y = b.add_net(format!("y{i}"));
            b.add_gate(*kind, &pins[..kind.num_inputs()], y, blk)
                .unwrap();
        }
        let n = b.finish().unwrap();
        let t = SimTable::build(&n);
        for code in 0..16usize {
            let mut plane = vec![false; n.num_nets()];
            for (k, p) in pins.iter().enumerate() {
                plane[p.index()] = code >> k & 1 == 1;
            }
            for (g, gate) in n.gates().iter().enumerate() {
                let ins: Vec<bool> = gate.inputs.iter().map(|i| plane[i.index()]).collect();
                assert_eq!(
                    t.eval_bits(g, &plane),
                    gate.kind.eval_bool(&ins),
                    "{:?} code {code:04b}",
                    gate.kind
                );
            }
        }
    }

    #[test]
    fn fanout_order_matches_netlist() {
        let mut b = NetlistBuilder::new("t");
        let blk = b.add_block("B1");
        let a = b.add_primary_input("a");
        let mut outs = Vec::new();
        for i in 0..5 {
            let y = b.add_net(format!("y{i}"));
            b.add_gate(CellKind::Inv, &[a], y, blk).unwrap();
            outs.push(y);
        }
        let n = b.finish().unwrap();
        let t = SimTable::build(&n);
        let expect: Vec<u32> = n.fanout_gates(a).iter().map(|g| g.raw()).collect();
        assert_eq!(t.fanout(a.index()), expect.as_slice());
    }
}
