//! Golden checks on the generated counter table.
//!
//! This binary is the only code touching the process-wide counters in
//! its process, so deltas over the recorders are exact. The JSON literals
//! are the byte-for-byte output of the hand-written per-group `to_json`
//! impls the table replaced, for the same values; `rbio-tune` telemetry
//! and `rbio-scrub --counters` print these strings.

use std::collections::HashSet;

use rbio_profile::counters::*;

#[test]
fn recorded_values_render_byte_identical_json() {
    let copy0 = snapshot();
    let failover0 = failover_snapshot();
    let tier0 = tier_snapshot();
    let tune0 = tune_snapshot();
    let scrub0 = scrub_snapshot();
    let service0 = service_snapshot();

    add_bytes_copied(7_340_032);
    add_checkpoint_bytes(4_194_304);

    add_failovers(11);
    add_hedged_jobs(22);
    add_fenced_commits_refused(33);
    add_degraded_generations(44);
    add_short_write_retries(55);

    add_tier_staged_bytes(1_048_576);
    add_tier_drained_bytes(65_536);
    add_tier_restores(3);
    add_tier_losses(4);

    add_tune_evals(3);
    add_tune_memo_hits(5);
    add_tune_pruned(7);
    add_tune_eval_nanos(1_234_567_890);

    add_crash_images_checked(101);
    add_scrub_files_checked(202);
    add_scrub_bytes_verified(303);
    add_scrub_damage_found(404);
    add_scrub_repairs(505);
    add_gc_orphans(606);

    add_service_admitted(1);
    add_service_queued(2);
    add_service_rejected(3);
    add_service_completed(4);
    add_service_failed(5);
    add_service_preemptions(6);
    add_service_throttle_waits(7);
    add_send_backpressure_blocks(8);
    add_send_backpressure_timeouts(9);

    let copy = snapshot().delta_since(&copy0);
    assert_eq!(
        copy,
        CopySnapshot {
            bytes_copied: 7_340_032,
            checkpoint_bytes: 4_194_304,
        }
    );
    assert_eq!(copy.copies_per_checkpoint_byte(), 1.75);
    // The copy group had no JSON export before the table; it follows the
    // shared key/spacing scheme.
    assert_eq!(
        copy.to_json(),
        r#"{"bytes_copied": 7340032, "checkpoint_bytes": 4194304}"#
    );
    assert_eq!(
        failover_snapshot().delta_since(&failover0).to_json(),
        r#"{"failovers": 11, "hedged_jobs": 22, "fenced_commits_refused": 33, "degraded_generations": 44, "short_write_retries": 55}"#
    );
    assert_eq!(
        tier_snapshot().delta_since(&tier0).to_json(),
        r#"{"staged_bytes": 1048576, "drained_bytes": 65536, "tier_restores": 3, "tier_losses": 4}"#
    );
    assert_eq!(
        tune_snapshot().delta_since(&tune0).to_json(),
        r#"{"evals": 3, "memo_hits": 5, "pruned": 7, "eval_nanos": 1234567890, "hit_rate": 0.6250, "secs_per_eval": 0.411523}"#
    );
    assert_eq!(
        TuneSnapshot::default().to_json(),
        r#"{"evals": 0, "memo_hits": 0, "pruned": 0, "eval_nanos": 0, "hit_rate": 0.0000, "secs_per_eval": 0.000000}"#
    );
    assert_eq!(
        scrub_snapshot().delta_since(&scrub0).to_json(),
        r#"{"crash_images_checked": 101, "scrub_files_checked": 202, "scrub_bytes_verified": 303, "scrub_damage_found": 404, "scrub_repairs": 505, "gc_orphans": 606}"#
    );
    assert_eq!(
        service_snapshot().delta_since(&service0).to_json(),
        r#"{"admitted": 1, "queued": 2, "rejected": 3, "completed": 4, "failed": 5, "preemptions": 6, "throttle_waits": 7, "send_backpressure_blocks": 8, "send_backpressure_timeouts": 9}"#
    );

    // Every field grew, so subtracting backwards saturates every field.
    assert_eq!(copy0.delta_since(&snapshot()), CopySnapshot::default());
    assert_eq!(
        failover0.delta_since(&failover_snapshot()),
        FailoverSnapshot::default()
    );
    assert_eq!(tier0.delta_since(&tier_snapshot()), TierSnapshot::default());
    assert_eq!(tune0.delta_since(&tune_snapshot()), TuneSnapshot::default());
    assert_eq!(
        scrub0.delta_since(&scrub_snapshot()),
        ScrubSnapshot::default()
    );
    assert_eq!(
        service0.delta_since(&service_snapshot()),
        ServiceSnapshot::default()
    );
}

#[test]
fn delta_since_saturates_field_by_field() {
    let later = ServiceSnapshot {
        admitted: 10,
        queued: 3,
        completed: 7,
        ..ServiceSnapshot::default()
    };
    let earlier = ServiceSnapshot {
        admitted: 4,
        queued: 9,
        failed: 2,
        ..ServiceSnapshot::default()
    };
    assert_eq!(
        later.delta_since(&earlier),
        ServiceSnapshot {
            admitted: 6,
            queued: 0,
            completed: 7,
            failed: 0,
            ..ServiceSnapshot::default()
        }
    );
    let later = ScrubSnapshot {
        scrub_files_checked: 5,
        gc_orphans: 1,
        ..ScrubSnapshot::default()
    };
    let earlier = ScrubSnapshot {
        scrub_files_checked: 2,
        gc_orphans: u64::MAX,
        ..ScrubSnapshot::default()
    };
    let d = later.delta_since(&earlier);
    assert_eq!((d.scrub_files_checked, d.gc_orphans), (3, 0));
    let d = CopySnapshot {
        bytes_copied: 1,
        checkpoint_bytes: 9,
    }
    .delta_since(&CopySnapshot {
        bytes_copied: 2,
        checkpoint_bytes: 4,
    });
    assert_eq!((d.bytes_copied, d.checkpoint_bytes), (0, 5));
}

#[test]
fn every_counter_is_declared_once_under_a_unique_name() {
    assert_eq!(COUNTERS.len(), 30);
    let fields: HashSet<_> = COUNTERS.iter().map(|c| c.field).collect();
    assert_eq!(
        fields.len(),
        COUNTERS.len(),
        "two counters share a field name"
    );
    let recorders: HashSet<_> = COUNTERS.iter().map(|c| c.recorder).collect();
    assert_eq!(
        recorders.len(),
        COUNTERS.len(),
        "two counters share a recorder"
    );
    let groups: HashSet<_> = COUNTERS.iter().map(|c| c.group).collect();
    assert_eq!(groups.len(), 6);
    assert!(COUNTERS.iter().all(|c| c.recorder.starts_with("add_")));
}
