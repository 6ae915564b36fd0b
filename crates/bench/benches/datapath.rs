//! Datapath micro-benchmarks: the zero-copy buffer path through the real
//! executor, and slice-by-8 CRC vs the byte-at-a-time scalar oracle. The quantity of interest (copies per
//! checkpoint byte, CRC speedup) is reported by the `datapath` *binary*;
//! this group is the timing regression guard.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use rbio::exec::{execute, ExecConfig};
use rbio::format::{crc32c, crc32c_scalar, materialize_payloads};
use rbio::layout::DataLayout;
use rbio::strategy::{CheckpointSpec, Strategy};

const CRC_LEN: usize = 1 << 20;

fn crc_input() -> Vec<u8> {
    (0..CRC_LEN)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect()
}

fn bench_crc(c: &mut Criterion) {
    let data = crc_input();
    let mut g = c.benchmark_group("datapath/crc32c");
    g.throughput(Throughput::Bytes(CRC_LEN as u64));
    g.bench_function("scalar-1MiB", |b| b.iter(|| crc32c_scalar(&data)));
    g.bench_function("sliced-1MiB", |b| b.iter(|| crc32c(&data)));
    g.finish();
}

fn bench_exec(c: &mut Criterion) {
    let layout = DataLayout::uniform(8, &[("Ex", 64 * 1024), ("Hy", 32 * 1024)]);
    let plan = CheckpointSpec::new(layout, "dpbench")
        .strategy(Strategy::rbio(2))
        .plan()
        .expect("valid plan");
    let payloads = materialize_payloads(&plan, |rank, field, buf| {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (rank as usize * 13 + field * 5 + i) as u8;
        }
    });
    let dir = std::env::temp_dir().join(format!("rbio-dp-bench-{}", std::process::id()));
    let mut g = c.benchmark_group("datapath/exec-rbio-8r");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(plan.total_file_bytes()));
    let cfg = ExecConfig::new(&dir);
    g.bench_function("zero-copy", |b| {
        b.iter(|| execute(&plan.program, payloads.clone(), &cfg).expect("exec"))
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_crc, bench_exec);
criterion_main!(benches);
