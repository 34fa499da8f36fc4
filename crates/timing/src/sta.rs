//! Forward-only longest-path STA, kept as the test oracle for
//! [`SlackSta`](crate::SlackSta)'s forward pass: the straightforward
//! max-arrival sweep the shipped analysis extends with a backward
//! required-time pass. Compiled for tests only.

use crate::slack::trace_path;
use crate::{ClockArrivals, DelayAnnotation, EndpointTiming, PathReport};
use scap_netlist::{FlopId, Levelization, NetId, Netlist};

/// Topological longest-path analysis under a [`DelayAnnotation`].
///
/// Launch model: every flop Q toggles at its clock arrival + clock-to-Q;
/// primary inputs change at time 0 (the paper holds PIs constant during
/// at-speed test, so they rarely dominate).
#[derive(Clone, Debug)]
pub struct Sta {
    arrival_ps: Vec<f64>,
    endpoints: Vec<EndpointTiming>,
}

impl Sta {
    /// Runs longest-path STA for the domain covered by `clock_arrivals`.
    ///
    /// Flops outside the domain are treated as launching at time 0 and are
    /// not reported as endpoints.
    pub fn run(
        netlist: &Netlist,
        annotation: &DelayAnnotation,
        clock_arrivals: &ClockArrivals,
    ) -> Self {
        let lv = Levelization::build(netlist);
        let mut arrival_ps = vec![0.0f64; netlist.num_nets()];
        // Launch times at flop Q nets.
        for (f, t_clk) in clock_arrivals.iter() {
            let ff = netlist.flop(f);
            arrival_ps[ff.q.index()] = t_clk + annotation.flop_clk_to_q_ps(f);
        }
        for &g in lv.order() {
            let gate = netlist.gate(g);
            let worst_in = gate
                .inputs
                .iter()
                .map(|n| arrival_ps[n.index()])
                .fold(0.0f64, f64::max);
            arrival_ps[gate.output.index()] = worst_in + annotation.gate_delay_ps(g);
        }
        let period_ps = clock_arrivals
            .iter()
            .next()
            .map(|(f, _)| netlist.clock(netlist.flop(f).clock).period_ps())
            .unwrap_or(0.0);
        let setup = netlist.library.flop().setup_ps;
        let endpoints = clock_arrivals
            .iter()
            .map(|(f, t_clk)| EndpointTiming {
                flop: f,
                data_arrival_ps: arrival_ps[netlist.flop(f).d.index()],
                required_ps: t_clk + period_ps - setup,
            })
            .collect();
        Sta {
            arrival_ps,
            endpoints,
        }
    }

    /// Worst arrival time at a net, ps.
    #[inline]
    pub fn arrival_ps(&self, net: NetId) -> f64 {
        self.arrival_ps[net.index()]
    }

    /// Endpoint report, one entry per in-domain flop.
    pub fn endpoints(&self) -> &[EndpointTiming] {
        &self.endpoints
    }

    /// Critical-path delay: the maximum data arrival over all endpoints, ps.
    pub fn critical_path_ps(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|e| e.data_arrival_ps)
            .fold(0.0, f64::max)
    }

    /// Worst negative slack over all endpoints (most-negative slack), or
    /// `None` with no endpoints.
    pub fn worst_slack_ps(&self) -> Option<f64> {
        self.endpoints
            .iter()
            .map(|e| e.slack_ps())
            .min_by(|a, b| a.partial_cmp(b).expect("slacks are finite"))
    }

    /// Traces the `count` worst paths: for each of the latest-arriving
    /// endpoints, walks back through the max-arrival predecessor at every
    /// gate until a launch point (flop Q, primary input or constant).
    ///
    /// Fully deterministic: endpoints with equal arrivals are ordered by
    /// flop id, and arrival ties during the walk-back resolve to the
    /// lowest net id, so the report is byte-identical across runs and
    /// thread counts.
    pub fn worst_paths(&self, netlist: &Netlist, count: usize) -> Vec<PathReport> {
        let mut order: Vec<&EndpointTiming> = self.endpoints.iter().collect();
        order.sort_by(|a, b| {
            b.data_arrival_ps
                .total_cmp(&a.data_arrival_ps)
                .then_with(|| a.flop.index().cmp(&b.flop.index()))
        });
        order
            .into_iter()
            .take(count)
            .map(|ep| {
                let nets = trace_path(netlist, |n| self.arrival_ps(n), ep.flop);
                PathReport {
                    endpoint: ep.flop,
                    data_arrival_ps: ep.data_arrival_ps,
                    slack_ps: ep.slack_ps(),
                    nets,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClockTree;
    use scap_netlist::{
        CellKind, ClockEdge, ClockId, Die, Floorplan, NetlistBuilder, Placement, Point, Rect,
    };

    /// Two flops with a 3-inverter chain between them.
    fn pipeline() -> (Netlist, Floorplan) {
        let mut b = NetlistBuilder::new("p");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let pi = b.add_primary_input("pi");
        let q0 = b.add_net("q0");
        let mut prev = q0;
        let mut gate_count = 0;
        for i in 0..3 {
            let y = b.add_net(format!("y{i}"));
            b.add_gate(CellKind::Inv, &[prev], y, blk).unwrap();
            gate_count += 1;
            prev = y;
        }
        let q1 = b.add_net("q1");
        b.add_flop("ff0", pi, q0, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ff1", prev, q1, clk, ClockEdge::Rising, blk)
            .unwrap();
        let n = b.finish().unwrap();
        let fp = Floorplan::new(
            &n,
            Die::square(100.0),
            vec![Rect::new(0.0, 0.0, 100.0, 100.0)],
            Placement::new(
                vec![Point::new(50.0, 50.0); gate_count],
                vec![Point::new(10.0, 10.0), Point::new(90.0, 90.0)],
            ),
        );
        (n, fp)
    }

    #[test]
    fn arrival_accumulates_along_chain() {
        let (n, fp) = pipeline();
        let ann = DelayAnnotation::extract(&n, &fp);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let sta = Sta::run(&n, &ann, &tree.arrivals());
        // ff1's D input should arrive later than ff0's Q.
        let q0 = n.flop(FlopId::new(0)).q;
        let d1 = n.flop(FlopId::new(1)).d;
        assert!(sta.arrival_ps(d1) > sta.arrival_ps(q0));
        assert_eq!(sta.endpoints().len(), 2);
    }

    #[test]
    fn slack_positive_for_short_pipeline_at_100mhz() {
        let (n, fp) = pipeline();
        let ann = DelayAnnotation::extract(&n, &fp);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let sta = Sta::run(&n, &ann, &tree.arrivals());
        assert!(sta.worst_slack_ps().unwrap() > 0.0);
        assert!(sta.critical_path_ps() > 0.0);
    }

    #[test]
    fn worst_paths_are_sorted_and_monotone() {
        let (n, fp) = pipeline();
        let ann = DelayAnnotation::extract(&n, &fp);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let sta = Sta::run(&n, &ann, &tree.arrivals());
        let paths = sta.worst_paths(&n, 2);
        assert_eq!(paths.len(), 2);
        assert!(paths[0].data_arrival_ps >= paths[1].data_arrival_ps);
        // Arrivals increase along the path.
        let worst = &paths[0];
        assert!(worst.depth() >= 1);
        for w in worst.nets.windows(2) {
            assert!(w[0].1 <= w[1].1, "{:?}", worst.nets);
        }
        // The path's final arrival is the endpoint arrival.
        assert!((worst.nets.last().unwrap().1 - worst.data_arrival_ps).abs() < 1e-9);
    }

    #[test]
    fn worst_paths_break_arrival_ties_by_flop_id() {
        // Two flops capturing the same net arrive at exactly the same
        // time; the report must list the lower flop id first, every run.
        let mut b = NetlistBuilder::new("tie");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let pi = b.add_primary_input("pi");
        let q0 = b.add_net("q0");
        let y = b.add_net("y");
        b.add_gate(CellKind::Inv, &[q0], y, blk).unwrap();
        let qa = b.add_net("qa");
        let qb = b.add_net("qb");
        b.add_flop("ff0", pi, q0, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ffa", y, qa, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ffb", y, qb, clk, ClockEdge::Rising, blk)
            .unwrap();
        let n = b.finish().unwrap();
        let fp = Floorplan::new(
            &n,
            Die::square(100.0),
            vec![Rect::new(0.0, 0.0, 100.0, 100.0)],
            Placement::new(
                vec![Point::new(50.0, 50.0)],
                vec![Point::new(50.0, 50.0); 3],
            ),
        );
        let ann = DelayAnnotation::extract(&n, &fp);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let sta = Sta::run(&n, &ann, &tree.arrivals());
        let paths = sta.worst_paths(&n, 3);
        assert_eq!(paths[0].data_arrival_ps, paths[1].data_arrival_ps);
        assert!(paths[0].endpoint.index() < paths[1].endpoint.index());
    }

    #[test]
    fn scaled_delays_reduce_slack() {
        let (n, fp) = pipeline();
        let ann = DelayAnnotation::extract(&n, &fp);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let slow = crate::scaling::scale_annotation(
            &ann,
            &vec![0.3; n.num_gates()],
            &vec![0.3; n.num_flops()],
            n.library.k_volt_per_volt,
        );
        let fast = Sta::run(&n, &ann, &tree.arrivals());
        let slow = Sta::run(&n, &slow, &tree.arrivals());
        assert!(slow.worst_slack_ps().unwrap() < fast.worst_slack_ps().unwrap());
    }
}
