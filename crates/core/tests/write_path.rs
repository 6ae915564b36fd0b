//! Write-path conformance: the flush pipeline's writes must be
//! observably identical to the blocking serial reference — same bytes
//! on disk across strategies, executors, and pipeline depths; injected
//! short writes completed; persistent errors latched with commits
//! fenced, also under failover; kills on the exact logical byte
//! boundary.

use std::path::{Path, PathBuf};
use std::time::Duration;

use rbio::backend::{IoBackend, IoCtx, ThreadedBackend};
use rbio::buf::{Bytes, CopyMode};
use rbio::exec::{execute, ExecConfig};
use rbio::failover::FailoverPolicy;
use rbio::fault::{FaultPlan, WriteError};
use rbio::format::materialize_payloads;
use rbio::layout::DataLayout;
use rbio::rt;
use rbio::strategy::{CheckpointPlan, CheckpointSpec, RbIoCommit, Strategy};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rbio-conf-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Deterministic payload filler (same recipe as the equivalence tests).
fn fill(rank: u32, field: usize, buf: &mut [u8]) {
    let mut x = (u64::from(rank) << 24) ^ ((field as u64) << 8) ^ 0x2545F4914F6CDD1D;
    for b in buf.iter_mut() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (x >> 33) as u8;
    }
}

fn plan_for(strategy: Strategy) -> CheckpointPlan {
    let layout = DataLayout::uniform(4, &[("Ex", 384), ("Ey", 160)]);
    CheckpointSpec::new(layout, "ck")
        .strategy(strategy)
        .step(7)
        .plan()
        .expect("valid plan")
}

/// Serial deep-copy reference run: the ground truth every executor and
/// depth must reproduce byte-for-byte.
fn reference(plan: &CheckpointPlan, dir: &Path) -> Vec<(String, Vec<u8>)> {
    let payloads = materialize_payloads(plan, fill);
    let ref_dir = dir.join("ref");
    execute(
        &plan.program,
        payloads,
        &ExecConfig::new(&ref_dir).copy_mode(CopyMode::DeepCopy),
    )
    .expect("reference execution");
    plan.plan_files
        .iter()
        .map(|pf| {
            let bytes = std::fs::read(ref_dir.join(&pf.name)).expect("reference file");
            (pf.name.clone(), bytes)
        })
        .collect()
}

fn assert_files_match(out: &Path, expected: &[(String, Vec<u8>)], what: &str) {
    for (name, want) in expected {
        let got =
            std::fs::read(out.join(name)).unwrap_or_else(|e| panic!("{what}: read {name}: {e}"));
        assert_eq!(
            &got, want,
            "{what}: {name} differs from the serial reference"
        );
    }
}

#[test]
fn byte_identical_across_strategies_and_depths() {
    let strategies = [
        Strategy::OnePfpp,
        Strategy::coio(2),
        Strategy::rbio(2),
        Strategy::RbIo {
            ng: 2,
            commit: RbIoCommit::CollectiveShared,
        },
    ];
    for (si, strategy) in strategies.into_iter().enumerate() {
        let dir = tmpdir(&format!("equiv-s{si}"));
        let plan = plan_for(strategy);
        let expected = reference(&plan, &dir);
        for depth in [1u32, 2, 4] {
            let out = dir.join(format!("d{depth}"));
            let payloads = materialize_payloads(&plan, fill);
            let cfg = ExecConfig::new(&out).pipeline_depth(depth);
            execute(&plan.program, payloads, &cfg)
                .unwrap_or_else(|e| panic!("depth {depth} strategy {si}: {e}"));
            assert_files_match(&out, &expected, &format!("depth {depth} strategy {si}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn byte_identical_through_the_rt_executor() {
    let dir = tmpdir("rt-equiv");
    let plan = plan_for(Strategy::RbIo {
        ng: 2,
        commit: RbIoCommit::CollectiveShared,
    });
    let expected = reference(&plan, &dir);
    let out = dir.join("rt");
    let payloads = materialize_payloads(&plan, fill);
    let cfg = rt::RtConfig::new(&out).pipeline_depth(2);
    let program = &plan.program;
    let results = rt::run(program.nranks(), |mut comm| {
        let rank = comm.rank() as usize;
        rt::checkpoint_rank_with(&mut comm, program, &payloads[rank], &cfg)
            .map_err(|e| format!("{e:?}"))
    });
    for r in results {
        r.unwrap_or_else(|e| panic!("rt rank failed: {e}"));
    }
    assert_files_match(&out, &expected, "rt");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn short_writes_complete_to_byte_identical_output() {
    let dir = tmpdir("short");
    let plan = plan_for(Strategy::rbio(2));
    let expected = reference(&plan, &dir);
    // Writer rank 0's first logical write delivers only a 64-byte
    // prefix; the continuation loop must finish the op and land the
    // same bytes as the uninjected reference.
    let out = dir.join("short");
    let payloads = materialize_payloads(&plan, fill);
    let before = rbio_profile::counters::failover_snapshot();
    let cfg = ExecConfig::new(&out)
        .pipeline_depth(2)
        .faults(FaultPlan::none().short_write(0, 0, 64));
    execute(&plan.program, payloads, &cfg).unwrap_or_else(|e| panic!("{e}"));
    assert_files_match(&out, &expected, "short");
    let delta = rbio_profile::counters::failover_snapshot().delta_since(&before);
    assert!(
        delta.short_write_retries >= 1,
        "the injected short write must be counted as a short-write \
         retry, not a hedge or transient retry"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistent_write_errors_latch_and_fence_commits() {
    let dir = tmpdir("latch");
    let plan = plan_for(Strategy::rbio(2));
    let out = dir.join("latch");
    let payloads = materialize_payloads(&plan, fill);
    let cfg = ExecConfig::new(&out)
        .pipeline_depth(2)
        .faults(FaultPlan::none().fail_nth_write(0, 0, u32::MAX));
    let err = execute(&plan.program, payloads, &cfg).expect_err("failing write must surface");
    let _ = err.to_string();
    // Commit fencing: writer 0's file must never publish under its
    // final name (the latched error skips the commit job).
    let victim = &plan.plan_files[0].name;
    assert!(
        !out.join(victim).exists(),
        "{victim} was published despite a persistently failing write"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn commit_fencing_under_failover() {
    let dir = tmpdir("failover");
    let plan = plan_for(Strategy::rbio(2));
    let expected = reference(&plan, &dir);
    // Writer rank 0 hangs long enough to be declared dead; the survivor
    // re-stages the orphaned extent through the pipelined flush jobs.
    // The published bytes must match the uninjected reference.
    let out = dir.join("failover");
    let payloads = materialize_payloads(&plan, fill);
    let cfg = ExecConfig::new(&out)
        .pipeline_depth(2)
        .faults(FaultPlan::none().hang_writer(0, Duration::from_millis(300)))
        .failover(FailoverPolicy {
            enabled: true,
            straggler_after: Duration::from_millis(25),
            dead_after: Duration::from_millis(50),
        });
    let report = execute(&plan.program, payloads, &cfg).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        !report.failovers.is_empty(),
        "hung writer 0 was never taken over"
    );
    assert_files_match(&out, &expected, "failover");
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill faults land on the logical write boundary: the budget is
/// checked before each write, so the first write issued at or past it
/// fails whole and leaves the file at the last completed write.
#[test]
fn kill_after_bytes_lands_on_the_write_boundary() {
    let dir = tmpdir("kill");
    let file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(true)
        .read(true)
        .write(true)
        .open(dir.join("k.bin"))
        .expect("open");
    let faults = FaultPlan::none().kill_writer_after_bytes(0, 1000);
    let ctx = IoCtx {
        rank: 0,
        faults: &faults,
        write_retries: 3,
        retry_backoff: Duration::from_micros(50),
    };
    // Five 400-byte writes: 0–2 start below the 1000-byte budget (the
    // third ends past it); 3 starts at 1200 bytes and is killed.
    let killed_at = (0..5u64).find(|&i| {
        let data = [Bytes::from_vec(vec![i as u8 + 1; 400])];
        match ThreadedBackend.write(&ctx, &file, i * 400, &data) {
            Ok(_) => false,
            Err(WriteError::Killed) => true,
            Err(e) => panic!("write {i}: expected a kill, got {e:?}"),
        }
    });
    assert_eq!(killed_at, Some(3));
    assert_eq!(file.metadata().expect("meta").len(), 1200);
    std::fs::remove_dir_all(&dir).ok();
}
