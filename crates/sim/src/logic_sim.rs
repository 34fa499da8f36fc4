//! Levelized three-valued zero-delay simulation.

use crate::batch::constant_nets;
use scap_netlist::{Levelization, Logic, Netlist};

/// Levelized three-valued simulator over one netlist.
///
/// The simulator owns a [`Levelization`] so repeated evaluations (the inner
/// loop of PODEM) don't re-sort the netlist.
///
/// # Example
///
/// ```
/// use scap_netlist::{CellKind, Logic, NetlistBuilder};
/// use scap_sim::LogicSim;
///
/// # fn main() -> Result<(), scap_netlist::BuildError> {
/// let mut b = NetlistBuilder::new("d");
/// let blk = b.add_block("B1");
/// let a = b.add_primary_input("a");
/// let y = b.add_net("y");
/// b.add_gate(CellKind::Inv, &[a], y, blk)?;
/// let n = b.finish()?;
/// let sim = LogicSim::new(&n);
/// assert_eq!(sim.eval(&[], &[Logic::X])[y.index()], Logic::X);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LogicSim<'a> {
    netlist: &'a Netlist,
    levelization: Levelization,
    /// Tie-cell nets and their values, listed once.
    constants: Vec<(usize, bool)>,
}

impl<'a> LogicSim<'a> {
    /// Builds a simulator (levelizes once).
    pub fn new(netlist: &'a Netlist) -> Self {
        let levelization = Levelization::build(netlist);
        // The hot loop in `propagate` assumes the order covers every gate
        // and is level-monotone, so each gate's inputs are final when it
        // is evaluated. Checked here (debug builds) rather than per eval.
        debug_assert_eq!(
            levelization.order().len(),
            netlist.num_gates(),
            "levelization must cover every gate (combinational loop?)"
        );
        debug_assert!(
            levelization
                .order()
                .windows(2)
                .all(|w| levelization.level(w[0]) <= levelization.level(w[1])),
            "levelization order must be monotone in level"
        );
        LogicSim {
            netlist,
            levelization,
            constants: constant_nets(netlist),
        }
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The levelization, for reuse by callers.
    pub fn levelization(&self) -> &Levelization {
        &self.levelization
    }

    /// Evaluates all nets given per-flop Q values and per-PI values.
    ///
    /// * `flop_q[i]` is the state of flop `i` (X allowed),
    /// * `pi[i]` is the value of the `i`-th primary input.
    ///
    /// Returns one [`Logic`] per net, indexable by
    /// [`NetId::index`](scap_netlist::NetId::index).
    ///
    /// # Panics
    ///
    /// Panics if the slices don't match the netlist's flop / PI counts.
    pub fn eval(&self, flop_q: &[Logic], pi: &[Logic]) -> Vec<Logic> {
        let n = self.netlist;
        assert_eq!(flop_q.len(), n.num_flops(), "one value per flop");
        assert_eq!(pi.len(), n.primary_inputs().len(), "one value per PI");
        let mut values = vec![Logic::X; n.num_nets()];
        for (i, &net) in n.primary_inputs().iter().enumerate() {
            values[net.index()] = pi[i];
        }
        for (i, flop) in n.flops().iter().enumerate() {
            values[flop.q.index()] = flop_q[i];
        }
        for &(i, c) in &self.constants {
            values[i] = Logic::from_bool(c);
        }
        let mut inbuf: Vec<Logic> = Vec::with_capacity(4);
        for &g in self.levelization.order() {
            let gate = n.gate(g);
            inbuf.clear();
            inbuf.extend(gate.inputs.iter().map(|inp| values[inp.index()]));
            values[gate.output.index()] = gate.kind.eval(&inbuf);
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_netlist::{CellKind, ClockEdge, NetlistBuilder};

    /// xor = a ^ q; d = !xor; flop(d -> q)
    fn toy() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let a = b.add_primary_input("a");
        let q = b.add_net("q");
        let x = b.add_net("x");
        let d = b.add_net("d");
        b.add_gate(CellKind::Xor2, &[a, q], x, blk).unwrap();
        b.add_gate(CellKind::Inv, &[x], d, blk).unwrap();
        b.add_flop("ff", d, q, clk, ClockEdge::Rising, blk).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn evaluates_known_values() {
        let n = toy();
        let sim = LogicSim::new(&n);
        let v = sim.eval(&[Logic::One], &[Logic::Zero]);
        // x = 0 ^ 1 = 1, d = 0
        assert_eq!(v[2], Logic::One);
        assert_eq!(v[3], Logic::Zero);
    }

    #[test]
    fn x_propagates() {
        let n = toy();
        let sim = LogicSim::new(&n);
        let v = sim.eval(&[Logic::X], &[Logic::One]);
        assert_eq!(v[2], Logic::X);
        assert_eq!(v[3], Logic::X);
    }

    #[test]
    #[should_panic(expected = "one value per flop")]
    fn validates_state_width() {
        let n = toy();
        let sim = LogicSim::new(&n);
        let _ = sim.eval(&[], &[Logic::Zero]);
    }
}
