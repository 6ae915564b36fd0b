//! Datapath metrics: copies per checkpoint byte (serial and pipelined)
//! across the three strategies, plus slice-by-8 CRC32C throughput vs the
//! scalar oracle.
//!
//! The zero-copy claim is structural: a worker's payload byte is wrapped
//! once in a refcounted buffer and travels payload → channel → staging →
//! disk with exactly the aggregation copies the plan IR mandates (plus a
//! snapshot copy of staging-sourced bytes when the write is deferred to
//! the flush pipeline). This binary measures that with the process-wide
//! `rbio_profile::counters`, gates it against absolute ceilings at
//! np=16, and saves `datapath.json` for EXPERIMENTS.md; CI exports it as
//! `BENCH_datapath.json`.
//!
//! Usage: `datapath [np]` (default 16).

use std::time::Instant;

use rbio::exec::{execute, ExecConfig};
use rbio::format::{crc32c, crc32c_scalar, materialize_payloads};
use rbio::layout::DataLayout;
use rbio::strategy::{CheckpointSpec, Strategy};
use rbio_bench::report::{check, print_table, FigureData, Series};
use rbio_profile::counters;

fn fill(rank: u32, field: usize, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (rank as usize * 13 + field * 5 + i) as u8;
    }
}

/// The strategies measured, in table column order.
fn strategies() -> [(&'static str, Strategy); 3] {
    [
        ("1PFPP", Strategy::OnePfpp),
        ("coIO nf=4", Strategy::coio(4)),
        ("rbIO ng=4", Strategy::rbio(4)),
    ]
}

/// The rank count the ceilings are pinned at.
const CEILING_NP: u32 = 16;

/// Copies-per-byte ceilings at [`CEILING_NP`], per variant (label,
/// pipeline depth) and strategy: exactly the plan-mandated staging copies
/// (coIO's recv → staging; rbIO's recv → staging plus its field-reorder
/// re-pack), plus, when pipelined, one snapshot per staging-sourced byte.
const CEILINGS: [(&str, u32, [f64; 3]); 2] = [
    ("zero-copy serial", 1, [0.0, 1.0, 1.75]),
    ("zero-copy pipelined", 3, [0.0, 2.0, 2.75]),
];

/// Run one checkpoint at `depth` and return copies per checkpoint byte.
fn ratio_for(np: u32, strategy: Strategy, depth: u32, tag: &str) -> f64 {
    let layout = DataLayout::uniform(np, &[("Ex", 64 * 1024), ("Hy", 32 * 1024)]);
    let plan = CheckpointSpec::new(layout, "dp")
        .strategy(strategy)
        .plan()
        .expect("valid plan");
    let payloads = materialize_payloads(&plan, fill);
    let dir = std::env::temp_dir().join(format!(
        "rbio-datapath-{tag}-{}-{}",
        depth,
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = ExecConfig::new(&dir).pipeline_depth(depth);
    let before = counters::snapshot();
    execute(&plan.program, payloads, &cfg).expect("exec");
    let delta = counters::snapshot().delta_since(&before);
    std::fs::remove_dir_all(&dir).ok();
    delta.copies_per_checkpoint_byte()
}

/// Best-of-N wall time for one CRC pass over `data`, in GiB/s.
fn crc_gibps(data: &[u8], passes: u32, f: impl Fn(&[u8]) -> u32) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0u32;
    for _ in 0..passes {
        let t0 = Instant::now();
        sink ^= f(data);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    // Keep the checksum observable so the loop cannot be elided.
    assert_ne!(sink, 1);
    data.len() as f64 / best / (1u64 << 30) as f64
}

fn main() {
    let np: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(CEILING_NP);

    let strategies = strategies();
    let mut series = Vec::new();
    let mut rows = Vec::new();
    for (vlabel, depth, _) in &CEILINGS {
        let ys: Vec<f64> = strategies
            .iter()
            .map(|(slabel, s)| {
                ratio_for(
                    np,
                    *s,
                    *depth,
                    &format!("{slabel}-{vlabel}").replace([' ', '='], ""),
                )
            })
            .collect();
        rows.push((vlabel.to_string(), ys.clone()));
        series.push(Series {
            label: vlabel.to_string(),
            x: (0..strategies.len()).map(|i| i as f64).collect(),
            y: ys,
        });
    }
    print_table(
        &format!("copies per checkpoint byte, np={np}"),
        &strategies
            .iter()
            .map(|(l, _)| l.to_string())
            .collect::<Vec<_>>(),
        &rows,
        "copies/byte",
    );

    // CRC throughput: 8 MiB, best of 7 passes each.
    let data: Vec<u8> = (0..(8usize << 20))
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    let scalar = crc_gibps(&data, 7, crc32c_scalar);
    let sliced = crc_gibps(&data, 7, crc32c);
    let speedup = sliced / scalar;
    println!(
        "\ncrc32c on 8 MiB: scalar {scalar:.2} GiB/s, slice-by-8 {sliced:.2} GiB/s \
         ({speedup:.2}x)"
    );
    series.push(Series {
        label: "crc32c GiB/s (scalar, slice-by-8)".into(),
        x: vec![0.0, 1.0],
        y: vec![scalar, sliced],
    });

    let mut notes = Vec::new();
    if np == CEILING_NP {
        for ((vlabel, _, ceilings), (_, ys)) in CEILINGS.iter().zip(&rows) {
            for (((slabel, _), ceiling), got) in strategies.iter().zip(ceilings).zip(ys) {
                notes.push(check(
                    &format!("{slabel} {vlabel}: {got:.3} ≤ {ceiling} copies/byte"),
                    got <= ceiling,
                ));
            }
        }
    } else {
        println!("copies/byte ceilings are pinned at np={CEILING_NP}; not checked at np={np}");
    }
    notes.push(check(
        &format!("slice-by-8 crc32c ≥ 2x scalar on 8 MiB (got {speedup:.2}x)"),
        speedup >= 2.0,
    ));

    FigureData {
        id: "datapath".into(),
        title: format!(
            "Datapath copy accounting (copies per checkpoint byte) and CRC32C \
             throughput, np={np}; x = strategy index (1PFPP, coIO, rbIO)"
        ),
        series,
        notes,
    }
    .save();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs in the bin's own test process, so the process-wide counters
    /// see only this workload (there is exactly one test in this binary).
    #[test]
    fn copies_per_byte_meet_the_ceilings_for_every_strategy() {
        for (vlabel, depth, ceilings) in CEILINGS {
            for ((slabel, strategy), ceiling) in strategies().into_iter().zip(ceilings) {
                let tag = format!("t{slabel}{depth}").replace([' ', '='], "");
                let got = ratio_for(CEILING_NP, strategy, depth, &tag);
                assert!(
                    got <= ceiling,
                    "{slabel} {vlabel}: {got:.3} copies/byte exceeds the ceiling {ceiling}"
                );
            }
        }
    }
}
