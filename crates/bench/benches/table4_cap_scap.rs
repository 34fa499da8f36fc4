//! Table 4: CAP vs SCAP power and IR-drop for one pattern — printed once,
//! then benches the dynamic IR-drop solve.

use criterion::{criterion_group, criterion_main, Criterion};
use scap::experiments;
use scap::power::DynamicAnalysis;
use scap::PatternAnalyzer;

fn bench(c: &mut Criterion) {
    let study = scap_bench::study();
    let conv = scap_bench::conventional();
    let t4 = experiments::table4(study, conv);
    println!("\n{}", experiments::render_table4(&t4));
    println!("paper: SCAP roughly 2x CAP on both power and worst drop (STW 8.34 ns of 20 ns)");
    let analyzer = PatternAnalyzer::new(study);
    let trace = analyzer.trace(&conv.patterns.filled[t4.pattern_index]);
    let dynir = DynamicAnalysis::new(&study.design.netlist, &study.design.floorplan, study.grid);
    let mut session = dynir.session();
    let mut g = c.benchmark_group("table4");
    g.sample_size(20);
    g.bench_function("dynamic_irdrop_solve", |b| {
        b.iter(|| session.analyze(&study.annotation, &trace))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
