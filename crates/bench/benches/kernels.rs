//! Micro-benchmarks of the core computational kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use scap::dft::{FillPolicy, PatternBatch, TestPattern};
use scap::sim::{BatchSim, FaultList, TransitionFaultSim};
use scap::tgen::{Podem, PodemOutcome};

fn bench(c: &mut Criterion) {
    let study = scap_bench::study();
    let n = &study.design.netlist;
    let clka = study.clka();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);

    let mut g = c.benchmark_group("kernels");
    g.sample_size(10);
    let batch_sim = BatchSim::new(n);
    let loads: Vec<u64> = (0..n.num_flops()).map(|_| rng.gen()).collect();
    let pis: Vec<u64> = (0..n.primary_inputs().len()).map(|_| rng.gen()).collect();
    g.bench_function("batch_sim_64_patterns", |b| {
        b.iter(|| batch_sim.eval(&loads, &pis))
    });

    let faults = FaultList::full(n);
    let fsim = TransitionFaultSim::new(n, clka);
    let mut filled = Vec::new();
    for _ in 0..64 {
        let p = TestPattern::unspecified(n);
        filled.push(p.fill(n, FillPolicy::Random, &mut rng));
    }
    let batch = PatternBatch::pack(&filled);
    let subset: Vec<_> = faults.faults().iter().copied().take(512).collect();
    g.bench_function("fault_sim_512_faults_x64_patterns", |b| {
        b.iter(|| fsim.detect_batch(&batch.load_words, &batch.pi_words, !0, &subset))
    });

    let podem = Podem::new(n, clka, 100);
    g.bench_function("podem_100_faults", |b| {
        b.iter(|| {
            let mut found = 0;
            for &f in faults.faults().iter().take(100) {
                let mut p = TestPattern::unspecified(n);
                if podem.generate(f, &mut p) == PodemOutcome::Test {
                    found += 1;
                }
            }
            found
        })
    });

    // Building a grid assembles and factors its matrix once.
    g.bench_function("grid_factor", |b| {
        b.iter(|| scap::power::PowerGrid::new(study.design.floorplan.die, study.grid))
    });
    let grid = scap::power::PowerGrid::new(study.design.floorplan.die, study.grid);
    let currents: Vec<f64> = (0..grid.num_nodes())
        .map(|_| rng.gen::<f64>() * 1e-4)
        .collect();
    // The same substitution through a fresh solver each time and
    // through one solver whose work vector is reused (bit-identical
    // results).
    g.bench_function("grid_solve_576_nodes", |b| {
        b.iter(|| grid.solver().solve(&currents))
    });
    let mut solver = grid.solver();
    g.bench_function("grid_solve_reused_scratch", |b| {
        b.iter(|| solver.solve(&currents))
    });

    // Per-pattern dynamic IR-drop: one call per pattern (a fresh session
    // each) vs the parallel profile path (one session per worker).
    use scap::PatternAnalyzer;
    let analyzer = PatternAnalyzer::new(study);
    let pats = filled[..8].to_vec();
    g.bench_function("irdrop_8_patterns_one_shot", |b| {
        b.iter(|| {
            for p in &pats {
                criterion::black_box(analyzer.ir_drop(p));
            }
        })
    });
    g.bench_function("irdrop_8_patterns_profile", |b| {
        b.iter(|| analyzer.ir_drop_profile(&pats).len())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
