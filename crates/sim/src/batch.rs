//! 64-way bit-parallel good-machine simulation.
//!
//! Each net carries a `u64`; bit *p* holds pattern *p*'s value. Patterns
//! must be fully specified (don't-cares already filled), which is exactly
//! the situation after the ATPG fill step — where the heavy fault-dropping
//! simulation happens.

use crate::table::SimTable;
use scap_netlist::{Levelization, NetSource, Netlist};

/// Bit-parallel levelized simulator.
///
/// # Example
///
/// ```
/// use scap_netlist::{CellKind, NetlistBuilder};
/// use scap_sim::BatchSim;
///
/// # fn main() -> Result<(), scap_netlist::BuildError> {
/// let mut b = NetlistBuilder::new("d");
/// let blk = b.add_block("B1");
/// let a = b.add_primary_input("a");
/// let y = b.add_net("y");
/// b.add_gate(CellKind::Inv, &[a], y, blk)?;
/// let n = b.finish()?;
/// let sim = BatchSim::new(&n);
/// let vals = sim.eval(&[], &[0b01]);
/// assert_eq!(vals[y.index()] & 0b11, 0b10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchSim<'a> {
    netlist: &'a Netlist,
    levelization: Levelization,
    table: SimTable,
}

impl<'a> BatchSim<'a> {
    /// Builds a simulator (levelizes once).
    pub fn new(netlist: &'a Netlist) -> Self {
        let levelization = Levelization::build(netlist);
        // Same contract as `LogicSim::new`: the bit-parallel propagate
        // loop relies on a complete, level-monotone evaluation order.
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
        let table = SimTable::build_with(netlist, &levelization);
        BatchSim {
            netlist,
            levelization,
            table,
        }
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Shares the levelization with callers (fault simulation reuses it).
    pub fn levelization(&self) -> &Levelization {
        &self.levelization
    }

    /// Shares the flattened topology with callers (fault simulation
    /// reuses it).
    pub fn table(&self) -> &SimTable {
        &self.table
    }

    /// Evaluates all nets for up to 64 patterns at once.
    ///
    /// `flop_q[i]` / `pi[i]` carry one bit per pattern. Returns one word
    /// per net.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the netlist.
    pub fn eval(&self, flop_q: &[u64], pi: &[u64]) -> Vec<u64> {
        let n = self.netlist;
        assert_eq!(flop_q.len(), n.num_flops(), "one word per flop");
        assert_eq!(pi.len(), n.primary_inputs().len(), "one word per PI");
        let mut values = vec![0u64; n.num_nets()];
        for (i, &net) in n.primary_inputs().iter().enumerate() {
            values[net.index()] = pi[i];
        }
        for (i, flop) in n.flops().iter().enumerate() {
            values[flop.q.index()] = flop_q[i];
        }
        for (i, net) in n.nets().iter().enumerate() {
            if let Some(NetSource::Const(c)) = net.source {
                values[i] = if c { !0 } else { 0 };
            }
        }
        self.propagate(&mut values);
        values
    }

    /// Re-evaluates all gates in place over an existing value vector
    /// (inputs must already be set).
    pub fn propagate(&self, values: &mut [u64]) {
        let t = &self.table;
        let mut inbuf = [0u64; 4];
        for &g in t.order() {
            let g = g as usize;
            let ins = t.inputs(g);
            for (k, &inp) in ins.iter().enumerate() {
                inbuf[k] = values[inp as usize];
            }
            values[t.output(g) as usize] = t.kind(g).eval_word(&inbuf[..ins.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicSim;
    use rand::{Rng, SeedableRng};
    use scap_netlist::{CellKind, ClockEdge, Logic, NetlistBuilder};

    fn random_netlist(seed: u64) -> Netlist {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new("r");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let mut pool = Vec::new();
        for i in 0..8 {
            pool.push(b.add_primary_input(format!("pi{i}")));
        }
        let mut flop_ds = Vec::new();
        for i in 0..6 {
            let q = b.add_net(format!("q{i}"));
            flop_ds.push(q);
            pool.push(q);
        }
        let kinds = [
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::Xor2,
            CellKind::And3,
            CellKind::Mux2,
            CellKind::Aoi22,
        ];
        for i in 0..60 {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let ins: Vec<_> = (0..kind.num_inputs())
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let out = b.add_net(format!("w{i}"));
            b.add_gate(kind, &ins, out, blk).unwrap();
            pool.push(out);
        }
        // Hook flops to the last nets created.
        for (i, &q) in flop_ds.clone().iter().enumerate() {
            let d = pool[pool.len() - 1 - i];
            b.add_flop(format!("ff{i}"), d, q, clk, ClockEdge::Rising, blk)
                .unwrap();
        }
        b.finish().unwrap()
    }

    /// Batch sim bit 0 must agree with the scalar three-valued simulator on
    /// fully-specified inputs, across random netlists and vectors.
    #[test]
    fn agrees_with_scalar_sim() {
        for seed in 0..5u64 {
            let n = random_netlist(seed);
            let batch = BatchSim::new(&n);
            let scalar = LogicSim::new(&n);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 100);
            for _ in 0..10 {
                let flop_bits: Vec<bool> = (0..n.num_flops()).map(|_| rng.gen()).collect();
                let pi_bits: Vec<bool> = (0..n.primary_inputs().len()).map(|_| rng.gen()).collect();
                let words = batch.eval(
                    &flop_bits.iter().map(|&b| b as u64).collect::<Vec<_>>(),
                    &pi_bits.iter().map(|&b| b as u64).collect::<Vec<_>>(),
                );
                let logics = scalar.eval(
                    &flop_bits
                        .iter()
                        .map(|&b| Logic::from(b))
                        .collect::<Vec<_>>(),
                    &pi_bits.iter().map(|&b| Logic::from(b)).collect::<Vec<_>>(),
                );
                for i in 0..n.num_nets() {
                    assert_eq!(
                        words[i] & 1 == 1,
                        logics[i] == Logic::One,
                        "net {i} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn patterns_are_independent_across_bits() {
        let mut b = NetlistBuilder::new("d");
        let blk = b.add_block("B1");
        let a = b.add_primary_input("a");
        let c = b.add_primary_input("c");
        let y = b.add_net("y");
        b.add_gate(CellKind::And2, &[a, c], y, blk).unwrap();
        b.add_primary_output(y);
        let n = b.finish().unwrap();
        let sim = BatchSim::new(&n);
        // Four patterns: a = 0101, c = 0011 -> y = 0001.
        let v = sim.eval(&[], &[0b0101, 0b0011]);
        assert_eq!(v[y.index()] & 0b1111, 0b0001);
    }
}
