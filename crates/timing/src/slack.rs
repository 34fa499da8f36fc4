//! Full slack analysis: forward arrival **and** backward required-time
//! passes over the levelized netlist, per-net slack, launch reachability
//! and fault risk tiers.
//!
//! The forward max-arrival pass gives every endpoint its data arrival;
//! the backward pass gives every *net* (not just every endpoint) a
//! slack — the slack of the worst path through that net. That is the
//! quantity the paper's flow needs twice over:
//!
//! * **fault risk tiers** (paper §4): a transition fault on a
//!   near-critical net is the one supply noise can push past the capture
//!   edge, so ATPG should target it through its longest path;
//! * **derated signoff** (paper §3.2): re-running the same analysis with
//!   IR-drop-scaled delays (see [`crate::scaling::scale_annotation`])
//!   turns the nominal slack distribution into the noise-aware one, and
//!   the delta is exactly the paper's "Region 2" false-failure population.
//!
//! The forward pass is bit-identical to a plain forward-only sweep (the
//! oracle the crate's tests keep); both are sequential over the
//! levelization, so results are byte-identical across thread counts by
//! construction.

use crate::{ClockArrivals, DelayAnnotation};
use scap_netlist::{FlopId, Levelization, NetId, NetSource, Netlist};

/// Timing of one capture endpoint (a flop D pin).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndpointTiming {
    /// The capturing flop.
    pub flop: FlopId,
    /// Worst data arrival at the D pin, ps, measured from the launch clock
    /// edge at time 0.
    pub data_arrival_ps: f64,
    /// Required time: capture-clock arrival + period − setup, ps.
    pub required_ps: f64,
}

impl EndpointTiming {
    /// Slack in ps (negative = violation).
    #[inline]
    pub fn slack_ps(&self) -> f64 {
        self.required_ps - self.data_arrival_ps
    }
}

/// How exposed a fault site is to supply-noise-induced delay, judged by
/// the slack of the worst path through its net.
///
/// Tiers are ordered most-at-risk first, so sorting faults by tier puts
/// the paper's "long path through the fault site" targets up front.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RiskTier {
    /// Negative slack: the path already fails timing.
    Critical,
    /// Slack below 5 % of the clock period — a realistic droop kills it.
    High,
    /// Slack below 15 % of the period.
    Moderate,
    /// Comfortable margin.
    Low,
}

impl RiskTier {
    /// Classifies a slack against the domain period.
    pub fn classify(slack_ps: f64, period_ps: f64) -> RiskTier {
        if slack_ps < 0.0 {
            RiskTier::Critical
        } else if slack_ps < 0.05 * period_ps {
            RiskTier::High
        } else if slack_ps < 0.15 * period_ps {
            RiskTier::Moderate
        } else {
            RiskTier::Low
        }
    }

    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RiskTier::Critical => "critical",
            RiskTier::High => "high",
            RiskTier::Moderate => "moderate",
            RiskTier::Low => "low",
        }
    }

    /// All tiers, most-at-risk first.
    pub const ALL: [RiskTier; 4] = [
        RiskTier::Critical,
        RiskTier::High,
        RiskTier::Moderate,
        RiskTier::Low,
    ];
}

/// Forward + backward static timing analysis for one clock domain.
///
/// # Example
///
/// ```no_run
/// # use scap_netlist::{Netlist, ClockId, Floorplan};
/// # fn demo(netlist: &Netlist, floorplan: &Floorplan) {
/// use scap_timing::{ClockTree, DelayAnnotation, SlackSta};
/// let ann = DelayAnnotation::extract(netlist, floorplan);
/// let tree = ClockTree::synthesize(netlist, floorplan, ClockId::new(0));
/// let sta = SlackSta::run(netlist, &ann, &tree.arrivals());
/// for (f, _) in tree.arrivals().iter() {
///     let d = netlist.flop(f).d;
///     println!("flop {f:?}: slack {} ps", sta.slack_ps(d));
/// }
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SlackSta {
    arrival_ps: Vec<f64>,
    required_ps: Vec<f64>,
    reachable: Vec<bool>,
    endpoints: Vec<EndpointTiming>,
    period_ps: f64,
}

impl SlackSta {
    /// Runs the forward and backward passes for the domain covered by
    /// `clock_arrivals`.
    ///
    /// The forward pass propagates max arrivals from each flop's clock
    /// arrival plus clock-to-Q (primary inputs at time 0); the backward
    /// pass seeds each in-domain endpoint's D net with its
    /// required time and relaxes `required[input] =
    /// min(required[output] − gate_delay)` in reverse topological order.
    pub fn run(
        netlist: &Netlist,
        annotation: &DelayAnnotation,
        clock_arrivals: &ClockArrivals,
    ) -> Self {
        let lv = Levelization::build(netlist);
        let num_nets = netlist.num_nets();
        let mut arrival_ps = vec![0.0f64; num_nets];
        // Launch reachability: nets driven by a flop Q or a primary input
        // can carry a launch transition; constants cannot.
        let mut reachable = vec![false; num_nets];
        for (i, net) in netlist.nets().iter().enumerate() {
            reachable[i] = matches!(
                net.source,
                Some(NetSource::Flop(_)) | Some(NetSource::PrimaryInput)
            );
        }
        for (f, t_clk) in clock_arrivals.iter() {
            let ff = netlist.flop(f);
            arrival_ps[ff.q.index()] = t_clk + annotation.flop_clk_to_q_ps(f);
        }
        for &g in lv.order() {
            let gate = netlist.gate(g);
            let mut worst_in = 0.0f64;
            let mut any_reachable = false;
            for n in &gate.inputs {
                worst_in = worst_in.max(arrival_ps[n.index()]);
                any_reachable |= reachable[n.index()];
            }
            arrival_ps[gate.output.index()] = worst_in + annotation.gate_delay_ps(g);
            reachable[gate.output.index()] = any_reachable;
        }
        let period_ps = clock_arrivals
            .iter()
            .next()
            .map(|(f, _)| netlist.clock(netlist.flop(f).clock).period_ps())
            .unwrap_or(0.0);
        let setup = netlist.library.flop().setup_ps;
        // Backward required-time pass.
        let mut required_ps = vec![f64::INFINITY; num_nets];
        let mut endpoints = Vec::new();
        for (f, t_clk) in clock_arrivals.iter() {
            let d = netlist.flop(f).d;
            let required = t_clk + period_ps - setup;
            required_ps[d.index()] = required_ps[d.index()].min(required);
            endpoints.push(EndpointTiming {
                flop: f,
                data_arrival_ps: arrival_ps[d.index()],
                required_ps: required,
            });
        }
        for &g in lv.order().iter().rev() {
            let gate = netlist.gate(g);
            let r_out = required_ps[gate.output.index()];
            if !r_out.is_finite() {
                continue;
            }
            let r_in = r_out - annotation.gate_delay_ps(g);
            for n in &gate.inputs {
                required_ps[n.index()] = required_ps[n.index()].min(r_in);
            }
        }
        SlackSta {
            arrival_ps,
            required_ps,
            reachable,
            endpoints,
            period_ps,
        }
    }

    /// Worst arrival time at a net, ps.
    #[inline]
    pub fn arrival_ps(&self, net: NetId) -> f64 {
        self.arrival_ps[net.index()]
    }

    /// Required time at a net, ps: the latest a transition may pass
    /// through the net without violating some downstream endpoint's
    /// setup. `+∞` for nets with no in-domain endpoint downstream.
    #[inline]
    pub fn required_ps(&self, net: NetId) -> f64 {
        self.required_ps[net.index()]
    }

    /// Slack of the worst path through a net, ps (negative = violation,
    /// `+∞` if no endpoint is downstream).
    #[inline]
    pub fn slack_ps(&self, net: NetId) -> f64 {
        self.required_ps[net.index()] - self.arrival_ps[net.index()]
    }

    /// Whether a launch transition (from a flop Q or primary input) can
    /// reach this net at all.
    #[inline]
    pub fn is_reachable(&self, net: NetId) -> bool {
        self.reachable[net.index()]
    }

    /// Endpoint report, one entry per in-domain flop, in clock-arrival
    /// (flop) order.
    pub fn endpoints(&self) -> &[EndpointTiming] {
        &self.endpoints
    }

    /// The domain's clock period, ps.
    #[inline]
    pub fn period_ps(&self) -> f64 {
        self.period_ps
    }

    /// Endpoints whose D net cannot be reached from any launch flop or
    /// primary input (only constants feed them) — untestable for
    /// transition delay, flagged by the `TIM003` lint rule.
    pub fn unreachable_endpoints(&self, netlist: &Netlist) -> Vec<FlopId> {
        self.endpoints
            .iter()
            .filter(|e| !self.reachable[netlist.flop(e.flop).d.index()])
            .map(|e| e.flop)
            .collect()
    }

    /// Worst negative slack over all endpoints, or `None` with no
    /// endpoints.
    pub fn worst_slack_ps(&self) -> Option<f64> {
        self.endpoints
            .iter()
            .map(|e| e.slack_ps())
            .min_by(f64::total_cmp)
    }

    /// Critical-path delay: the maximum data arrival over all endpoints.
    pub fn critical_path_ps(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|e| e.data_arrival_ps)
            .fold(0.0, f64::max)
    }

    /// Risk tier of the worst path through a net.
    pub fn risk_tier(&self, net: NetId) -> RiskTier {
        RiskTier::classify(self.slack_ps(net), self.period_ps)
    }

    /// Traces the `count` smallest-slack paths, deterministically:
    /// endpoints sort by ascending slack with flop-id tie-break, and the
    /// walk-back resolves arrival ties to the lowest net id.
    pub fn worst_paths(&self, netlist: &Netlist, count: usize) -> Vec<PathReport> {
        let mut order: Vec<&EndpointTiming> = self.endpoints.iter().collect();
        order.sort_by(|a, b| {
            a.slack_ps()
                .total_cmp(&b.slack_ps())
                .then_with(|| a.flop.index().cmp(&b.flop.index()))
        });
        order
            .into_iter()
            .take(count)
            .map(|ep| PathReport {
                endpoint: ep.flop,
                data_arrival_ps: ep.data_arrival_ps,
                slack_ps: ep.slack_ps(),
                nets: trace_path(netlist, |n| self.arrival_ps(n), ep.flop),
            })
            .collect()
    }
}

/// Walks back from an endpoint's D net through the max-arrival
/// predecessor at every gate until a launch point (flop Q, primary input
/// or constant). Arrival ties resolve to the lowest net id so the traced
/// path is unique. Returns `(net, arrival)` pairs, launch first.
pub(crate) fn trace_path(
    netlist: &Netlist,
    arrival_ps: impl Fn(NetId) -> f64,
    endpoint: FlopId,
) -> Vec<(NetId, f64)> {
    let mut nets = Vec::new();
    let mut net = netlist.flop(endpoint).d;
    loop {
        nets.push((net, arrival_ps(net)));
        match netlist.net(net).source {
            Some(NetSource::Gate(g)) => {
                let gate = netlist.gate(g);
                net = gate
                    .inputs
                    .iter()
                    .copied()
                    .min_by(|a, b| {
                        arrival_ps(*b)
                            .total_cmp(&arrival_ps(*a))
                            .then_with(|| a.index().cmp(&b.index()))
                    })
                    .expect("gates have inputs");
            }
            _ => break,
        }
    }
    nets.reverse();
    nets
}

/// One traced timing path, launch to capture.
#[derive(Clone, Debug)]
pub struct PathReport {
    /// The capturing flop.
    pub endpoint: FlopId,
    /// Data arrival at the endpoint, ps.
    pub data_arrival_ps: f64,
    /// Endpoint slack, ps.
    pub slack_ps: f64,
    /// `(net, arrival)` along the path, launch first.
    pub nets: Vec<(NetId, f64)>,
}

impl PathReport {
    /// Logic depth of the path (number of gate stages).
    pub fn depth(&self) -> usize {
        self.nets.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::Sta;
    use crate::ClockTree;
    use scap_netlist::{
        CellKind, ClockEdge, ClockId, Die, Floorplan, NetlistBuilder, Placement, Point, Rect,
    };

    /// Two flops with a 3-inverter chain between them, plus a flop whose
    /// D is tied to a constant (unreachable endpoint).
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
        let zero = b.add_const("tie0", false);
        let q2 = b.add_net("q2");
        b.add_flop("ff0", pi, q0, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ff1", prev, q1, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ff2", zero, q2, clk, ClockEdge::Rising, blk)
            .unwrap();
        let n = b.finish().unwrap();
        let fp = Floorplan::new(
            &n,
            Die::square(100.0),
            vec![Rect::new(0.0, 0.0, 100.0, 100.0)],
            Placement::new(
                vec![Point::new(50.0, 50.0); gate_count],
                vec![
                    Point::new(10.0, 10.0),
                    Point::new(90.0, 90.0),
                    Point::new(90.0, 10.0),
                ],
            ),
        );
        (n, fp)
    }

    fn analyzed() -> (Netlist, SlackSta, Sta) {
        let (n, fp) = pipeline();
        let ann = DelayAnnotation::extract(&n, &fp);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let slack = SlackSta::run(&n, &ann, &tree.arrivals());
        let oracle = Sta::run(&n, &ann, &tree.arrivals());
        (n, slack, oracle)
    }

    #[test]
    fn forward_pass_matches_sta_oracle() {
        let (n, slack, oracle) = analyzed();
        for i in 0..n.num_nets() {
            let net = NetId::new(i as u32);
            assert_eq!(slack.arrival_ps(net), oracle.arrival_ps(net), "net {i}");
        }
        assert_eq!(slack.endpoints(), oracle.endpoints());
        assert_eq!(slack.worst_slack_ps(), oracle.worst_slack_ps());
    }

    #[test]
    fn net_slack_bounds_endpoint_slack() {
        // The slack of an endpoint's D net is at most that endpoint's
        // slack (the backward pass takes the min over all endpoints).
        let (n, slack, _) = analyzed();
        for ep in slack.endpoints() {
            let d = n.flop(ep.flop).d;
            assert!(slack.slack_ps(d) <= ep.slack_ps() + 1e-9);
        }
    }

    #[test]
    fn required_decreases_backward_along_the_chain() {
        let (n, slack, _) = analyzed();
        let q0 = n.flop(FlopId::new(0)).q;
        let d1 = n.flop(FlopId::new(1)).d;
        assert!(slack.required_ps(q0) < slack.required_ps(d1));
        // Every net on the single path carries the same slack.
        assert!((slack.slack_ps(q0) - slack.slack_ps(d1)).abs() < 1e-9);
    }

    #[test]
    fn unreachable_endpoint_is_reported() {
        let (n, slack, _) = analyzed();
        assert_eq!(slack.unreachable_endpoints(&n), vec![FlopId::new(2)]);
        let d1 = n.flop(FlopId::new(1)).d;
        assert!(slack.is_reachable(d1));
    }

    #[test]
    fn risk_tiers_order_by_slack() {
        assert_eq!(RiskTier::classify(-1.0, 20_000.0), RiskTier::Critical);
        assert_eq!(RiskTier::classify(500.0, 20_000.0), RiskTier::High);
        assert_eq!(RiskTier::classify(2_000.0, 20_000.0), RiskTier::Moderate);
        assert_eq!(RiskTier::classify(10_000.0, 20_000.0), RiskTier::Low);
        assert!(RiskTier::Critical < RiskTier::Low);
    }

    #[test]
    fn worst_paths_sorted_by_slack() {
        let (n, slack, _) = analyzed();
        let paths = slack.worst_paths(&n, 3);
        assert_eq!(paths.len(), 3);
        for w in paths.windows(2) {
            assert!(w[0].slack_ps <= w[1].slack_ps);
        }
        // The tightest path is the 3-inverter chain into ff1.
        assert_eq!(paths[0].endpoint, FlopId::new(1));
        assert!(paths[0].depth() >= 3);
    }

    #[test]
    fn scaled_delays_shift_the_slack_distribution() {
        let (n, fp) = pipeline();
        let ann = DelayAnnotation::extract(&n, &fp);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let slow = crate::scaling::scale_annotation(
            &ann,
            &vec![0.3; n.num_gates()],
            &vec![0.3; n.num_flops()],
            n.library.k_volt_per_volt,
        );
        let nominal = SlackSta::run(&n, &ann, &tree.arrivals());
        let derated = SlackSta::run(&n, &slow, &tree.arrivals());
        let d1 = n.flop(FlopId::new(1)).d;
        assert!(derated.slack_ps(d1) < nominal.slack_ps(d1));
        assert!(derated.critical_path_ps() > nominal.critical_path_ps());
    }
}
