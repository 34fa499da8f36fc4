//! Differential test of the event-driven timing kernel.
//!
//! [`EventSim`] must reproduce, event for event, the kernel it replaced:
//! the reference below keeps that kernel's body — a `BinaryHeap` of
//! `(time_fs, seq)`-ordered events, a `HashSet` of cancelled sequence
//! numbers and fresh working vectors per call — written against the
//! public netlist and annotation API only. Random netlists draw every
//! cell kind; gate delays come from a small set with forced rise/fall
//! ties and zero delays; flops launch several times at close instants,
//! so pulses narrower than a gate delay reach gates in inertial mode.
//! Each case runs inertial, transport and truncated budgets, through
//! fresh buffers and through one reused [`EventScratch`], and requires
//! identical events (time bits, net, edge) and last-change times.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scap_netlist::{CellKind, ClockEdge, FlopId, NetId, Netlist, NetlistBuilder};
use scap_sim::{BatchSim, EventScratch, EventSim, ToggleEvent, ToggleTrace};
use scap_timing::DelayAnnotation;
use std::collections::{BinaryHeap, HashSet};

#[derive(PartialEq)]
struct QueuedEvent {
    time_fs: u64,
    seq: u64,
    net: NetId,
    value: bool,
}

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

fn ps_to_fs(ps: f64) -> u64 {
    (ps * 1000.0).round().max(0.0) as u64
}

fn fs_to_ps(fs: u64) -> f64 {
    fs as f64 / 1000.0
}

/// The replaced kernel: its events and per-net last-change times (`-1`
/// for a net that never toggled).
fn reference(
    n: &Netlist,
    annotation: &DelayAnnotation,
    max_events: usize,
    inertial: bool,
    frame1: &[bool],
    launches: &[(FlopId, bool, f64)],
) -> (Vec<ToggleEvent>, Vec<f64>) {
    let mut value = frame1.to_vec();
    let mut last_change = vec![-1.0f64; n.num_nets()];
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    let mut pending: Vec<Option<Pending>> = vec![None; n.num_nets()];
    let mut cancelled: HashSet<u64> = HashSet::new();
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
        if processed >= max_events {
            break;
        }
        if inertial && cancelled.remove(&ev.seq) {
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
                annotation.gate_rise_ps(g)
            } else {
                annotation.gate_fall_ps(g)
            };
            let at = ev.time_fs + ps_to_fs(delay_ps);
            let out_idx = gate.output.index();
            if inertial {
                if let Some(p) = pending[out_idx] {
                    if p.time_fs >= ev.time_fs {
                        if p.value == out {
                            continue; // already heading to this value
                        }
                        if at.saturating_sub(p.time_fs) < ps_to_fs(delay_ps) {
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
    (events, last_change)
}

/// Gate delays drawn from this set, ps: zeros and a delay under the
/// kernel's 0.256 ps wheel slot (events pushed into the bucket being
/// drained), values that collide at
/// femtosecond resolution (12.5 and 12.5004 round to different fs,
/// 12.5 and 12.5000004 to the same), delays longer than the launch
/// spacing and one past the kernel's 4.2 ns wheel horizon.
const DELAYS_PS: [f64; 9] = [
    0.0,
    0.2,
    12.5,
    12.5,
    12.500_000_4,
    12.5004,
    30.0,
    140.0,
    5_000.0,
];

/// Launch instants, ps: ties across flops, pairs closer than most gate
/// delays on one flop, and one beyond the wheel horizon.
const LAUNCH_PS: [f64; 7] = [100.0, 100.0, 103.0, 110.0, 100.000_4, 260.0, 9_000.0];

/// A random acyclic netlist over every cell kind, with its annotation
/// (random delays, rise equal to fall for about half the gates).
fn random_design(rng: &mut StdRng) -> (Netlist, DelayAnnotation) {
    let mut b = NetlistBuilder::new("event_oracle");
    let blk = b.add_block("B1");
    let clk = b.add_clock_domain("clka", 100e6);
    let num_pis = rng.gen_range(1..4);
    let mut pool: Vec<NetId> = (0..num_pis)
        .map(|i| b.add_primary_input(format!("pi{i}")))
        .collect();
    let num_flops = rng.gen_range(1..6);
    let qs: Vec<NetId> = (0..num_flops).map(|i| b.add_net(format!("q{i}"))).collect();
    pool.extend(&qs);
    let num_gates = rng.gen_range(CellKind::ALL.len()..60);
    for i in 0..num_gates {
        // The first gates walk every kind once; the rest draw at random.
        let kind = CellKind::ALL
            .get(i)
            .copied()
            .unwrap_or_else(|| CellKind::ALL[rng.gen_range(0..CellKind::ALL.len())]);
        let ins: Vec<NetId> = (0..kind.num_inputs())
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        let y = b.add_net(format!("w{i}"));
        b.add_gate(kind, &ins, y, blk).unwrap();
        pool.push(y);
    }
    for (i, &q) in qs.iter().enumerate() {
        let d = pool[rng.gen_range(num_pis..pool.len())];
        b.add_flop(format!("ff{i}"), d, q, clk, ClockEdge::Rising, blk)
            .unwrap();
    }
    let n = b.finish().unwrap();
    let mut ann = DelayAnnotation::unit_wire(&n);
    let (rise, fall, _) = ann.delays_mut();
    for (r, f) in rise.iter_mut().zip(fall.iter_mut()) {
        *r = DELAYS_PS[rng.gen_range(0..DELAYS_PS.len())];
        *f = if rng.gen() {
            *r
        } else {
            DELAYS_PS[rng.gen_range(0..DELAYS_PS.len())]
        };
    }
    (n, ann)
}

/// A frame-1 state: the settled response to a random load, or (one case
/// in four) arbitrary net values that need not be consistent.
fn random_frame1(rng: &mut StdRng, n: &Netlist) -> Vec<bool> {
    if rng.gen_range(0..4) == 0 {
        return (0..n.num_nets()).map(|_| rng.gen()).collect();
    }
    let loads: Vec<u64> = (0..n.num_flops()).map(|_| rng.gen::<u64>() & 1).collect();
    let pis: Vec<u64> = (0..n.primary_inputs().len())
        .map(|_| rng.gen::<u64>() & 1)
        .collect();
    BatchSim::new(n)
        .eval(&loads, &pis)
        .iter()
        .map(|w| w & 1 == 1)
        .collect()
}

/// One to three launches per flop, in random flop order, some to the
/// value the flop already holds.
fn random_launches(rng: &mut StdRng, n: &Netlist) -> Vec<(FlopId, bool, f64)> {
    let mut launches = Vec::new();
    for i in 0..n.num_flops() {
        for _ in 0..rng.gen_range(1..4) {
            let t = LAUNCH_PS[rng.gen_range(0..LAUNCH_PS.len())];
            launches.push((FlopId::new(i as u32), rng.gen(), t));
        }
    }
    for i in (1..launches.len()).rev() {
        launches.swap(i, rng.gen_range(0..=i));
    }
    launches
}

fn check(
    trace: &ToggleTrace,
    want: &(Vec<ToggleEvent>, Vec<f64>),
    what: &str,
) -> Result<(), TestCaseError> {
    let (events, last) = want;
    prop_assert_eq!(trace.events.len(), events.len(), "{} event count", what);
    for (k, (got, want)) in trace.events.iter().zip(events).enumerate() {
        prop_assert!(
            got.time_ps.to_bits() == want.time_ps.to_bits()
                && got.net == want.net
                && got.rising == want.rising,
            "{} event {}: {:?} vs {:?}",
            what,
            k,
            got,
            want
        );
    }
    for (i, &t) in last.iter().enumerate() {
        let want = (t >= 0.0).then_some(t.to_bits());
        let got = trace.last_change_ps(NetId::new(i as u32)).map(f64::to_bits);
        prop_assert_eq!(got, want, "{} last change of net {}", what, i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_matches_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, ann) = random_design(&mut rng);
        let default_budget = n.num_nets().saturating_mul(64).max(1 << 16);
        let mut scratch = EventScratch::default();
        for _ in 0..3 {
            let frame1 = random_frame1(&mut rng, &n);
            let launches = random_launches(&mut rng, &n);
            let small = rng.gen_range(0..24);
            for (inertial, budget) in [(true, None), (false, None), (true, Some(small)), (false, Some(small))] {
                let mut sim = EventSim::new(&n, &ann);
                if !inertial {
                    sim = sim.with_transport_delays();
                }
                if let Some(k) = budget {
                    sim = sim.with_max_events(k);
                }
                let max = budget.unwrap_or(default_budget);
                let want = reference(&n, &ann, max, inertial, &frame1, &launches);
                let what = format!("inertial={inertial} budget={budget:?}");
                check(&sim.run(&frame1, &launches), &want, &format!("{what} fresh"))?;
                check(&sim.run_in(&mut scratch, &frame1, &launches), &want, &format!("{what} reused"))?;
            }
        }
    }
}
