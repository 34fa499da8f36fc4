//! Scalar vs. word-packed (PPSFP) fault propagation on a fixed random
//! netlist.
//!
//! Grades the same 512 faults × 64 patterns two ways through
//! `detect_batch`, over the one detection kernel:
//! pattern-at-a-time with a single-lane `valid_mask` (the ATPG
//! drop-simulation shape) and as one 64-lane word batch. The ratio
//! between the two is the bit-parallel win; a regression in the word
//! propagation shows up here without running the full evaluation. The
//! netlist is seeded, so numbers are comparable across runs and
//! machines.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use scap::netlist::{CellKind, ClockEdge, NetId, Netlist, NetlistBuilder};
use scap::sim::{FaultList, TransitionFaultSim};

/// A seeded random netlist: mixing gates, inverter/buffer chains, a scan
/// flop rim — the same shape the kernel-equivalence proptests drive,
/// scaled up to make propagation dominate.
fn fixed_random_netlist() -> Netlist {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xb10c);
    let n_ff = 96;
    let n_gates = 1200;
    let mut b = NetlistBuilder::new("block-bench");
    let blk = b.add_block("B1");
    let clk = b.add_clock_domain("clka", 100e6);
    let mut pool: Vec<NetId> = (0..8)
        .map(|i| b.add_primary_input(format!("pi{i}")))
        .collect();
    let qs: Vec<NetId> = (0..n_ff).map(|i| b.add_net(format!("q{i}"))).collect();
    pool.extend(qs.iter().copied());
    let kinds = [
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Mux2,
        CellKind::Aoi22,
        CellKind::Buf,
        CellKind::Inv,
    ];
    let mut outs = Vec::new();
    for i in 0..n_gates {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let y = b.add_net(format!("w{i}"));
        // Bias inputs toward recent nets for deep, narrow cones.
        let mut ins = Vec::with_capacity(kind.num_inputs());
        for _ in 0..kind.num_inputs() {
            let lo = pool.len().saturating_sub(64);
            ins.push(pool[rng.gen_range(lo..pool.len())]);
        }
        b.add_gate(kind, &ins, y, blk).unwrap();
        pool.push(y);
        outs.push(y);
    }
    for (i, &q) in qs.iter().enumerate() {
        let d = outs[rng.gen_range(0..outs.len())];
        b.add_flop(format!("ff{i}"), d, q, clk, ClockEdge::Rising, blk)
            .unwrap();
    }
    b.finish().unwrap()
}

fn bench(c: &mut Criterion) {
    let n = fixed_random_netlist();
    let clka = scap::netlist::ClockId::new(0);
    let fsim = TransitionFaultSim::new(&n, clka);
    let faults = FaultList::full(&n);
    let subset: Vec<_> = faults.faults().iter().copied().take(512).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let loads: Vec<u64> = (0..n.num_flops()).map(|_| rng.gen()).collect();
    let pis: Vec<u64> = (0..n.primary_inputs().len()).map(|_| rng.gen()).collect();

    let mut g = c.benchmark_group("block_kernel");
    g.sample_size(10);
    g.bench_function("scalar_512_faults_x64_patterns", |b| {
        b.iter(|| {
            let mut detections = 0u64;
            for p in 0..64 {
                let l: Vec<u64> = loads.iter().map(|&w| w >> p & 1).collect();
                let pv: Vec<u64> = pis.iter().map(|&w| w >> p & 1).collect();
                let s = fsim.detect_batch(&l, &pv, 1, &subset);
                detections += s.detect_mask.iter().filter(|&&m| m != 0).count() as u64;
            }
            detections
        })
    });
    g.bench_function("block_512_faults_x64_patterns", |b| {
        b.iter(|| {
            let s = fsim.detect_batch(&loads, &pis, !0, &subset);
            s.detect_mask
                .iter()
                .map(|m| m.count_ones() as u64)
                .sum::<u64>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
