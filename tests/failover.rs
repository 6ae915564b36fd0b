//! Degraded-mode observability: checkpoint campaigns under injected
//! writer failures must complete instead of aborting, restore
//! byte-identically, and surface every failover-path counter
//! (`failovers`, `hedged_jobs`, `fenced_commits_refused`,
//! `degraded_generations`) in the profile export.

use std::time::Duration;

use rbio_plan::Op;
use rbio_profile::counters;
use rbio_repro::rbio::exec::{execute, ExecConfig};
use rbio_repro::rbio::failover::FailoverPolicy;
use rbio_repro::rbio::fault::FaultPlan;
use rbio_repro::rbio::format::materialize_payloads;
use rbio_repro::rbio::layout::DataLayout;
use rbio_repro::rbio::manager::{CheckpointManager, GenerationState, ManagerConfig};
use rbio_repro::rbio::strategy::{CheckpointSpec, Strategy};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("rbio-fo-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn fill(rank: u32, field: usize, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (rank as usize * 31 + field * 7 + i) as u8;
    }
}

/// One test driving all four counters so the final delta-and-JSON check
/// sees every leg of the failover path in a single snapshot window.
#[test]
fn degraded_campaign_bumps_every_failover_counter_and_exports_them() {
    let before = counters::failover_snapshot();
    let layout = DataLayout::uniform(8, &[("Ex", 2048), ("Ey", 512)]);

    // Leg 1 — failovers + degraded_generations: writer rank 4 dies
    // mid-extent; the campaign completes degraded and restores
    // byte-identically to an uninjected reference run.
    let ref_dir = tmpdir("ref");
    let ref_mgr = CheckpointManager::new(
        layout.clone(),
        ManagerConfig::new(&ref_dir, Strategy::rbio(2)),
    )
    .expect("reference manager");
    ref_mgr.checkpoint(1, fill).expect("reference checkpoint");
    let want = ref_mgr.restore_latest().expect("reference restore");

    let kill_dir = tmpdir("kill");
    let mut kill_cfg = ManagerConfig::new(&kill_dir, Strategy::rbio(2));
    kill_cfg.faults = FaultPlan::none().kill_writer_after_bytes(4, 64);
    let mgr = CheckpointManager::new(layout.clone(), kill_cfg).expect("manager");
    let rep = mgr.checkpoint(1, fill).expect("failover absorbs the death");
    assert!(
        rep.failovers.iter().any(|&(dead, _)| dead == 4),
        "rank 4's extent must have been taken over: {:?}",
        rep.failovers
    );
    assert_eq!(mgr.generation_state(1), GenerationState::Degraded);
    let got = mgr.restore_latest().expect("degraded restore");
    assert_eq!(got.step, want.step);
    for r in 0..8u32 {
        for f in 0..2usize {
            assert_eq!(
                got.field_data(r, f),
                want.field_data(r, f),
                "rank {r} field {f} must restore byte-identically"
            );
        }
    }

    // Leg 2 — fenced_commits_refused: a hung writer is declared dead and
    // fenced; when the zombie revives, its own commit must be refused
    // (the successor already owns the extent).
    let hang_dir = tmpdir("hang");
    let plan = CheckpointSpec::new(layout.clone(), "h001")
        .strategy(Strategy::rbio(2))
        .plan()
        .expect("plan");
    let payloads = materialize_payloads(&plan, fill);
    let mut hang_cfg = ExecConfig::new(&hang_dir);
    hang_cfg.faults = FaultPlan::none().hang_writer(0, Duration::from_millis(300));
    hang_cfg.failover = FailoverPolicy {
        enabled: true,
        straggler_after: Duration::from_millis(25),
        dead_after: Duration::from_millis(50),
    };
    let rep = execute(&plan.program, payloads, &hang_cfg).expect("hang absorbed");
    assert!(
        rep.failovers.iter().any(|&(dead, _)| dead == 0),
        "hung writer 0 must have been fenced out: {:?}",
        rep.failovers
    );

    // Leg 3 — hedged_jobs: a writer whose write stalls past the straggler
    // deadline gets its in-flight flush re-submitted by the drain; the
    // run completes without any failover. Depth 4 keeps the trailing
    // close/commit submits from filling the pipeline window, so the
    // stall surfaces at the drain (the hedging point) rather than as
    // submit backpressure.
    let hedge_dir = tmpdir("hedge");
    let plan = CheckpointSpec::new(layout.clone(), "d001")
        .strategy(Strategy::rbio(2))
        .plan()
        .expect("plan");
    let payloads = materialize_payloads(&plan, fill);
    let mut hedge_cfg = ExecConfig::new(&hedge_dir).pipeline_depth(4);
    hedge_cfg.faults = FaultPlan::none().delay_writes(0, Duration::from_millis(150));
    hedge_cfg.failover = FailoverPolicy {
        enabled: true,
        straggler_after: Duration::from_millis(10),
        dead_after: Duration::from_secs(30),
    };
    let rep = execute(&plan.program, payloads, &hedge_cfg).expect("straggler absorbed");
    assert!(
        rep.failovers.is_empty(),
        "a straggler is hedged, not failed over: {:?}",
        rep.failovers
    );

    // Every leg's counter must be visible in one snapshot delta, and the
    // JSON export must carry all four keys.
    let delta = counters::failover_snapshot().delta_since(&before);
    assert!(delta.failovers >= 2, "kill + hang legs: {delta:?}");
    assert!(delta.degraded_generations >= 1, "{delta:?}");
    assert!(delta.fenced_commits_refused >= 1, "{delta:?}");
    assert!(delta.hedged_jobs >= 1, "{delta:?}");
    let json = delta.to_json();
    for key in [
        "failovers",
        "hedged_jobs",
        "fenced_commits_refused",
        "degraded_generations",
    ] {
        assert!(
            json.contains(&format!("\"{key}\"")),
            "{key} missing: {json}"
        );
    }

    for d in [ref_dir, kill_dir, hang_dir, hedge_dir] {
        std::fs::remove_dir_all(&d).ok();
    }
}

/// Copies a plan makes a writer do into its staging image: `Pack`s from
/// a source and `Recv`s, for the first `n` ops of `rank`.
fn staging_copies(ops: &[Op], n: usize) -> u64 {
    ops[..n]
        .iter()
        .map(|o| match o {
            Op::Pack {
                src: Some(_),
                bytes,
                ..
            }
            | Op::Recv { bytes, .. } => *bytes,
            _ => 0,
        })
        .sum()
}

/// A takeover's copies are counted like any other rank's: the successor
/// re-stages the orphan's whole extent, so a killed-writer run copies at
/// least every survivor's staging image, the dead writer's copies before
/// its first write, and the orphan's extent once more. A lower bound,
/// because concurrent tests only add to the process-wide counter.
#[test]
fn takeover_copies_count_toward_bytes_copied() {
    let layout = DataLayout::uniform(8, &[("Ex", 2048), ("Ey", 512)]);
    let plan = CheckpointSpec::new(layout, "c001")
        .strategy(Strategy::rbio(2))
        .plan()
        .expect("plan");
    let ops = &plan.program.ops;
    let writers: Vec<usize> = (0..ops.len())
        .filter(|&r| ops[r].iter().any(|o| matches!(o, Op::Open { .. })))
        .collect();
    let dead = 4usize;
    assert!(writers.contains(&dead), "rank 4 writes under rbIO(2)");
    let first_write = ops[dead]
        .iter()
        .position(|o| matches!(o, Op::WriteAt { .. }))
        .expect("writer writes");
    let orphan_extent = staging_copies(&ops[dead], ops[dead].len());
    let floor = writers
        .iter()
        .filter(|&&w| w != dead)
        .map(|&w| staging_copies(&ops[w], ops[w].len()))
        .sum::<u64>()
        + staging_copies(&ops[dead], first_write)
        + orphan_extent;

    let dir = tmpdir("copies");
    let mut cfg = ExecConfig::new(&dir);
    cfg.faults = FaultPlan::none().kill_writer_after_bytes(dead as u32, 0);
    cfg.failover = FailoverPolicy::from_recv_timeout(cfg.recv_timeout);
    let before = counters::snapshot();
    let rep = execute(&plan.program, materialize_payloads(&plan, fill), &cfg)
        .expect("failover absorbs the death");
    let delta = counters::snapshot().delta_since(&before);
    assert!(
        rep.failovers.iter().any(|&(d, _)| d == dead as u32),
        "rank {dead}'s extent must have been taken over: {:?}",
        rep.failovers
    );
    assert!(orphan_extent > 0);
    assert!(
        delta.bytes_copied >= floor,
        "copied {} bytes, expected at least {floor} (orphan extent {orphan_extent})",
        delta.bytes_copied
    );
    std::fs::remove_dir_all(&dir).ok();
}
