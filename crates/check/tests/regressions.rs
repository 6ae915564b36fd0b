//! Pinned-schedule regressions for the races that were originally
//! found (and fixed) by hand:
//!
//! * **PR 2** — `WriterHandle::submit` re-enqueued a writer already in
//!   the runnable queue, letting two pool threads drain one writer
//!   concurrently (FIFO broken, commit beside its own data write).
//! * **PR 3** — the executor's injected-message-loss arm forgot to
//!   advance the op index, so a "dropped" send re-executed and delivered
//!   the lost message after all, masking the fault.
//! * **PR 5** — without the commit fence, a writer declared dead and
//!   taken over can revive from its hang and publish its extent anyway,
//!   racing the successor's commit (fenced/double commit).
//!
//! Each bug is re-introduced through its test-only revert switch; the
//! explorer must find it, the found schedule must replay byte-for-byte,
//! and the same schedule must pass on the fixed code.
//!
//! Every test takes the same process-wide lock: the revert switches and
//! the installed scheduler are global, so concurrent tests would bleed
//! into each other's runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use rbio::exec::REVERT_PR3_FAULT_DROP;
use rbio::failover::REVERT_PR5_FENCE;
use rbio::pipeline::REVERT_PR2_DOUBLE_ENQUEUE;
use rbio_check::{run_one, sweep, Policy, ProgramKind, ViolationKind};

static SERIAL: Mutex<()> = Mutex::new(());

/// Hold the serial lock and arm one revert switch; disarms on drop even
/// if the test panics, so one failure cannot poison the others.
struct RevertGuard {
    _serial: MutexGuard<'static, ()>,
    flag: &'static AtomicBool,
}

impl RevertGuard {
    fn arm(flag: &'static AtomicBool) -> Self {
        let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        flag.store(true, Ordering::Relaxed);
        RevertGuard {
            _serial: serial,
            flag,
        }
    }

    fn disarm(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }
}

impl Drop for RevertGuard {
    fn drop(&mut self) {
        self.flag.store(false, Ordering::Relaxed);
    }
}

fn has(report: &rbio_check::CheckReport, kind: ViolationKind) -> bool {
    report.violations.iter().any(|v| v.kind == kind)
}

#[test]
fn pr2_double_enqueue_race_is_found_replayed_and_fixed() {
    let guard = RevertGuard::arm(&REVERT_PR2_DOUBLE_ENQUEUE);

    // The explorer finds the race within the fast seed budget.
    let result = sweep(ProgramKind::PipelineRace, 0..256, false, true);
    let (seed, found) = result
        .failures
        .first()
        .expect("a 256-seed sweep must find the reverted double-enqueue race");
    assert!(
        has(found, ViolationKind::DoubleDrain),
        "seed {seed} failed without a DoubleDrain violation: {:?}",
        found.violations
    );

    // The printed schedule replays byte-for-byte: same decisions, same
    // event stream, same violation.
    let replay = run_one(ProgramKind::PipelineRace, Policy::pinned(&found.schedule()));
    assert!(!replay.diverged, "pinned replay must fit the buggy run");
    assert_eq!(replay.trace, found.trace, "schedule must replay exactly");
    assert_eq!(replay.events, found.events, "events must replay exactly");
    assert!(has(&replay, ViolationKind::DoubleDrain));

    // The very same schedule is harmless on the fixed code.
    guard.disarm();
    let fixed = run_one(ProgramKind::PipelineRace, Policy::pinned(&found.schedule()));
    assert!(
        fixed.violations.is_empty(),
        "fixed code must survive the bug schedule: {:?}",
        fixed.violations
    );
    assert!(fixed.outcome.is_ok(), "{:?}", fixed.outcome);
}

#[test]
fn pr3_fault_drop_reexecution_is_found_replayed_and_fixed() {
    let guard = RevertGuard::arm(&REVERT_PR3_FAULT_DROP);

    // With the fix reverted, the dropped send re-executes — every
    // schedule shows the duplicate, so seed 0 suffices; sweep a few for
    // good measure.
    let result = sweep(ProgramKind::FaultDrop, 0..8, false, true);
    let (seed, found) = result
        .failures
        .first()
        .expect("the reverted fault-drop bug must surface in a sweep");
    assert!(
        has(found, ViolationKind::DuplicateSend),
        "seed {seed} failed without a DuplicateSend violation: {:?}",
        found.violations
    );
    // The masked fault is the insidious part: the run *succeeds* even
    // though the message was supposed to be lost.
    assert!(
        found.outcome.is_ok(),
        "the buggy re-execution delivers the dropped message"
    );

    let replay = run_one(ProgramKind::FaultDrop, Policy::pinned(&found.schedule()));
    assert!(!replay.diverged, "pinned replay must fit the buggy run");
    assert_eq!(replay.trace, found.trace, "schedule must replay exactly");
    assert_eq!(replay.events, found.events, "events must replay exactly");
    assert!(has(&replay, ViolationKind::DuplicateSend));

    // Fixed code: exactly one (dropped) send attempt, and the loss
    // surfaces as a typed receive timeout — the expected outcome for
    // this family.
    guard.disarm();
    let fixed = run_one(ProgramKind::FaultDrop, Policy::pinned(&found.schedule()));
    assert!(
        fixed.violations.is_empty(),
        "fixed code must survive the bug schedule: {:?}",
        fixed.violations
    );
    assert!(
        fixed.outcome.is_err(),
        "a genuinely dropped message must fail the run with a timeout"
    );
}

#[test]
fn pr5_unfenced_zombie_commit_is_found_replayed_and_fixed() {
    let guard = RevertGuard::arm(&REVERT_PR5_FENCE);

    // With the fence reverted, any schedule where the hung writer
    // revives after takeover and reaches its Commit shows the zombie
    // publishing under a dead identity (and usually the same extent
    // committed twice). Not every schedule gets the zombie that far —
    // on some, its worker's send is rerouted first and the zombie
    // times out before committing — so sweep a modest seed budget.
    let result = sweep(ProgramKind::Failover, 0..64, false, true);
    let (seed, found) = result
        .failures
        .first()
        .expect("a 64-seed sweep must catch the unfenced zombie commit");
    assert!(
        has(found, ViolationKind::FencedCommit) || has(found, ViolationKind::DoubleCommit),
        "seed {seed} failed without a fence violation: {:?}",
        found.violations
    );

    let replay = run_one(ProgramKind::Failover, Policy::pinned(&found.schedule()));
    assert!(!replay.diverged, "pinned replay must fit the buggy run");
    assert_eq!(replay.trace, found.trace, "schedule must replay exactly");
    assert_eq!(replay.events, found.events, "events must replay exactly");
    assert!(has(&replay, ViolationKind::FencedCommit) || has(&replay, ViolationKind::DoubleCommit));

    // With the fence back in place the same schedule refuses the zombie
    // commit and the successor publishes alone.
    guard.disarm();
    let fixed = run_one(ProgramKind::Failover, Policy::pinned(&found.schedule()));
    assert!(
        fixed.violations.is_empty(),
        "fixed code must survive the bug schedule: {:?}",
        fixed.violations
    );
    assert!(fixed.outcome.is_ok(), "{:?}", fixed.outcome);
}

#[test]
fn identical_policies_replay_byte_for_byte() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let a = run_one(ProgramKind::ExecEquiv, Policy::seeded(42));
    let b = run_one(ProgramKind::ExecEquiv, Policy::seeded(42));
    assert_eq!(a.trace, b.trace, "same seed, same schedule");
    assert_eq!(a.events, b.events, "same seed, same event stream");
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert!(a.outcome.is_ok(), "{:?}", a.outcome);

    let pinned = run_one(ProgramKind::ExecEquiv, Policy::pinned(&a.schedule()));
    assert!(!pinned.diverged, "a recorded schedule must fit its own run");
    assert_eq!(pinned.trace, a.trace);
    assert_eq!(pinned.events, a.events);
}

#[test]
fn seed_sweeps_are_clean_on_main() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    for (kind, seeds) in [
        (ProgramKind::PipelineRace, 0..32),
        (ProgramKind::ExecEquiv, 0..8),
        (ProgramKind::RtEquiv, 0..8),
        (ProgramKind::FaultDrop, 0..8),
        (ProgramKind::Failover, 0..8),
        (ProgramKind::TierDrain, 0..8),
        (ProgramKind::TierLoss, 0..8),
    ] {
        let r = sweep(kind, seeds, false, false);
        assert!(
            r.clean(),
            "{} seeded sweep found unexpected failures: {:?}",
            kind.label(),
            r.failures
                .iter()
                .map(|(s, rep)| (*s, rep.violations.clone()))
                .collect::<Vec<_>>()
        );
    }
    // Bounded-preemption mode on the raciest family.
    let r = sweep(ProgramKind::PipelineRace, 0..16, true, false);
    assert!(r.clean(), "preemption sweep failed: {}", r.failures.len());
}

/// PR 6 durability property: across schedules, no generation is ever
/// marked durable before every one of its staged extents has reached
/// the PFS tier. The sweep relies on the shadow model's
/// `DurableBeforeDrained` check; this test additionally pins that the
/// check is *non-vacuous* — the event stream of a tiered run really
/// carries the staged/drained/durable transitions the model consumes.
#[test]
fn tier_generations_never_durable_before_drained() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let probe = run_one(ProgramKind::TierDrain, Policy::seeded(0));
    assert!(probe.outcome.is_ok(), "{:?}", probe.outcome);
    assert!(probe.violations.is_empty(), "{:?}", probe.violations);
    for marker in ["TierExtentStaged", "TierExtentDrained", "TierDurable"] {
        assert!(
            probe.events.iter().any(|e| e.contains(marker)),
            "tiered run emitted no {marker} event — the durability \
             property would be vacuous"
        );
    }

    let r = sweep(ProgramKind::TierDrain, 0..12, false, false);
    assert!(
        r.clean(),
        "durable-before-drained sweep failed: {:?}",
        r.failures
            .iter()
            .map(|(s, rep)| (*s, rep.violations.clone()))
            .collect::<Vec<_>>()
    );
}

/// PR 6 tier loss: losing the node-local tier between the drain's burst
/// and PFS hops must still produce a durable (degraded) generation on
/// every schedule, and the loss itself must be visible in the event
/// stream.
#[test]
fn tier_loss_mid_drain_recovers_on_every_schedule() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let probe = run_one(ProgramKind::TierLoss, Policy::seeded(0));
    assert!(probe.outcome.is_ok(), "{:?}", probe.outcome);
    assert!(probe.violations.is_empty(), "{:?}", probe.violations);
    assert!(
        probe.events.iter().any(|e| e.contains("TierLost")),
        "tier-loss run never lost a tier"
    );

    let r = sweep(ProgramKind::TierLoss, 0..12, false, false);
    assert!(
        r.clean(),
        "tier-loss sweep failed: {:?}",
        r.failures
            .iter()
            .map(|(s, rep)| (*s, rep.violations.clone()))
            .collect::<Vec<_>>()
    );
}
