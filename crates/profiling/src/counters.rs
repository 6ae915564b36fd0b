//! Process-wide runtime counters, declared once in a single table.
//!
//! The rbIO pitch is that a worker's checkpoint bytes are touched as few
//! times as possible between the application buffer and the writer's file
//! image. The copy counters pin that numerically: every memcpy on the
//! checkpoint datapath (payload → channel, channel → staging, staging →
//! flush snapshot, …) adds to `bytes_copied`, and every byte handed to a
//! file write adds to `checkpoint_bytes`. The ratio
//! `bytes_copied / checkpoint_bytes` is the *copies per checkpoint byte*
//! reported by the `datapath` bench (≤ ~2 on the zero-copy path, where
//! only the plan-mandated staging copies remain). The other groups count
//! failover, tiering, autotuner, scrub and service events.
//!
//! Every counter is one line of the `counter_table!` invocation below:
//! its group, field, recorder and doc. The macro generates the
//! relaxed-atomic storage (they are statistics, not synchronization), the
//! `add_*` recorders, one snapshot struct per group with its reader, a
//! field-wise saturating `delta_since` and a `to_json`. [`COUNTERS`] lists
//! the whole table. Measurement protocol: take a snapshot before and after
//! the workload and subtract with `delta_since`; other work running
//! concurrently in the process only ever adds to the difference.

use std::sync::atomic::Ordering;

/// One row of the counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterInfo {
    /// The snapshot struct the counter belongs to.
    pub group: &'static str,
    /// Its field in that struct, and its key in the group's JSON.
    pub field: &'static str,
    /// The function that records it.
    pub recorder: &'static str,
}

macro_rules! counter_table {
    ($(
        $(#[doc = $gdoc:literal])+
        $cells:ident: $Group:ident, $read:ident
        $([json $($extra:ident: $fmt:literal),+])? {
            $( $(#[doc = $doc:literal])+ $field:ident => $add:ident, )+
        }
    )+) => {
        $(
            mod $cells {
                use std::sync::atomic::AtomicU64;
                pub(super) struct Cells { $(pub(super) $field: AtomicU64,)+ }
                pub(super) static CELLS: Cells = Cells { $($field: AtomicU64::new(0),)+ };
            }

            $(#[doc = $gdoc])+
            #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
            pub struct $Group {
                $( $(#[doc = $doc])+ pub $field: u64, )+
            }

            impl $Group {
                /// The counter growth between `prev` (earlier) and `self`
                /// (later), saturating at zero field by field.
                pub fn delta_since(&self, prev: &$Group) -> $Group {
                    $Group { $($field: self.$field.saturating_sub(prev.$field),)+ }
                }

                /// Render as a JSON object, for inclusion in profile exports.
                pub fn to_json(&self) -> String {
                    let parts: &[String] = &[
                        $(format!(concat!("\"", stringify!($field), "\": {}"), self.$field),)+
                        $($(format!(
                            concat!("\"", stringify!($extra), "\": ", $fmt),
                            self.$extra()
                        ),)+)?
                    ];
                    format!("{{{}}}", parts.join(", "))
                }
            }

            #[doc = concat!("Read the [`", stringify!($Group), "`] counters.")]
            pub fn $read() -> $Group {
                $Group { $($field: $cells::CELLS.$field.load(Ordering::Relaxed),)+ }
            }

            $(
                #[doc = concat!("Add `n` to [`", stringify!($Group), "::", stringify!($field), "`].")]
                #[inline]
                pub fn $add(n: u64) {
                    $cells::CELLS.$field.fetch_add(n, Ordering::Relaxed);
                }
            )+
        )+

        /// Every counter in the table, in declaration order.
        pub const COUNTERS: &[CounterInfo] = &[$($(CounterInfo {
            group: stringify!($Group),
            field: stringify!($field),
            recorder: stringify!($add),
        },)+)+];
    };
}

counter_table! {
    /// A point-in-time reading of the datapath copy counters.
    copy: CopySnapshot, snapshot {
        /// Total bytes memcpy'd on the checkpoint datapath.
        bytes_copied => add_bytes_copied,
        /// Total bytes handed to checkpoint file writes.
        checkpoint_bytes => add_checkpoint_bytes,
    }

    /// A point-in-time reading of the writer-failover counters (see
    /// `rbio::failover`): how often the runtime had to absorb a writer
    /// failure rather than abort.
    failover: FailoverSnapshot, failover_snapshot {
        /// Writer failures absorbed by rerouting to a successor.
        failovers => add_failovers,
        /// Flush jobs hedged past the straggler deadline.
        hedged_jobs => add_hedged_jobs,
        /// Commit attempts refused because the writer was fenced.
        fenced_commits_refused => add_fenced_commits_refused,
        /// Generations restored (or committed) in degraded mode.
        degraded_generations => add_degraded_generations,
        /// Continuations of writes the device cut short (partial `pwrite`
        /// returns and injected short-write faults) — distinct from hedges:
        /// the same logical write finishing, not a duplicate submission.
        short_write_retries => add_short_write_retries,
    }

    /// A point-in-time reading of the tiered-staging counters (see
    /// `rbio::tier`).
    tier: TierSnapshot, tier_snapshot {
        /// Bytes appended to the node-local slab tier.
        staged_bytes => add_tier_staged_bytes,
        /// Bytes the drain engine has flushed to the durable PFS tier.
        drained_bytes => add_tier_drained_bytes,
        /// Restores served from a faster tier instead of the PFS.
        tier_restores => add_tier_restores,
        /// Simulated tier losses absorbed without aborting.
        tier_losses => add_tier_losses,
    }

    /// A point-in-time reading of the autotuner counters (see `rbio-tune`):
    /// how hard the solver worked and how much the caches saved.
    tune: TuneSnapshot, tune_snapshot [json hit_rate: "{:.4}", secs_per_eval: "{:.6}"] {
        /// Candidate configurations costed by a full simulation run.
        evals => add_tune_evals,
        /// Candidates answered from the memoization cache.
        memo_hits => add_tune_memo_hits,
        /// Candidates (or subtree members) discarded by bound pruning.
        pruned => add_tune_pruned,
        /// Wall nanoseconds spent inside cost evaluations.
        eval_nanos => add_tune_eval_nanos,
    }

    /// A point-in-time reading of the crash-sweep / scrubber / GC counters
    /// (see `rbio::crash` and `rbio::scrub`).
    scrub: ScrubSnapshot, scrub_snapshot {
        /// Synthetic crash images materialized and restore-checked.
        crash_images_checked => add_crash_images_checked,
        /// Generation files whose footer CRCs the scrubber re-verified.
        scrub_files_checked => add_scrub_files_checked,
        /// Bytes read and checksummed by the scrubber.
        scrub_bytes_verified => add_scrub_bytes_verified,
        /// Damage records the scrubber classified (torn, missing, orphan,
        /// metadata divergence).
        scrub_damage_found => add_scrub_damage_found,
        /// Damaged files repaired from a redundant copy.
        scrub_repairs => add_scrub_repairs,
        /// Orphaned `*.tmp` / unreferenced slab files garbage-collected.
        gc_orphans => add_gc_orphans,
    }

    /// A point-in-time reading of the multi-tenant service counters (see
    /// `rbio::service`) and the executors' bounded-channel backpressure.
    service: ServiceSnapshot, service_snapshot {
        /// Sessions admitted to run immediately.
        admitted => add_service_admitted,
        /// Sessions parked in the bounded waiting room.
        queued => add_service_queued,
        /// Sessions refused with a typed `Rejected` outcome.
        rejected => add_service_rejected,
        /// Sessions that ran to completion.
        completed => add_service_completed,
        /// Sessions that surfaced a typed error or were abandoned.
        failed => add_service_failed,
        /// Throughput grants deferred because a latency-sensitive session
        /// was waiting at the same grant point.
        preemptions => add_service_preemptions,
        /// Fair-share grants that had to wait for a lagging tenant.
        throttle_waits => add_service_throttle_waits,
        /// Bounded-channel sends that found the queue full and waited.
        send_backpressure_blocks => add_send_backpressure_blocks,
        /// Bounded-channel sends that hit their deadline.
        send_backpressure_timeouts => add_send_backpressure_timeouts,
    }
}

impl CopySnapshot {
    /// Copies per checkpoint byte: the headline datapath metric.
    /// Returns 0.0 when no checkpoint bytes were written.
    pub fn copies_per_checkpoint_byte(&self) -> f64 {
        if self.checkpoint_bytes == 0 {
            0.0
        } else {
            self.bytes_copied as f64 / self.checkpoint_bytes as f64
        }
    }
}

impl TuneSnapshot {
    /// Cache hit rate over all candidate lookups (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.evals + self.memo_hits;
        if lookups == 0 {
            0.0
        } else {
            self.memo_hits as f64 / lookups as f64
        }
    }

    /// Mean wall seconds per full evaluation (0.0 when none).
    pub fn secs_per_eval(&self) -> f64 {
        if self.evals == 0 {
            0.0
        } else {
            self.eval_nanos as f64 / 1e9 / self.evals as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_and_ratio() {
        let before = snapshot();
        add_bytes_copied(300);
        add_checkpoint_bytes(100);
        let d = snapshot().delta_since(&before);
        // Other tests in this process may add concurrently, so the delta
        // is a lower bound, never less than what we added.
        assert!(d.bytes_copied >= 300);
        assert!(d.checkpoint_bytes >= 100);
        let r = CopySnapshot {
            bytes_copied: 300,
            checkpoint_bytes: 100,
        };
        assert!((r.copies_per_checkpoint_byte() - 3.0).abs() < 1e-12);
        let zero = CopySnapshot {
            bytes_copied: 5,
            checkpoint_bytes: 0,
        };
        assert_eq!(zero.copies_per_checkpoint_byte(), 0.0);
    }

    #[test]
    fn failover_counters_delta_and_json() {
        let before = failover_snapshot();
        add_failovers(1);
        add_hedged_jobs(2);
        add_fenced_commits_refused(3);
        add_degraded_generations(4);
        add_short_write_retries(5);
        let d = failover_snapshot().delta_since(&before);
        assert!(d.failovers >= 1);
        assert!(d.hedged_jobs >= 2);
        assert!(d.fenced_commits_refused >= 3);
        assert!(d.degraded_generations >= 4);
        assert!(d.short_write_retries >= 5);
        let j = FailoverSnapshot {
            failovers: 1,
            hedged_jobs: 2,
            fenced_commits_refused: 3,
            degraded_generations: 4,
            short_write_retries: 5,
        }
        .to_json();
        assert!(j.contains("\"failovers\": 1"), "{j}");
        assert!(j.contains("\"hedged_jobs\": 2"), "{j}");
        assert!(j.contains("\"fenced_commits_refused\": 3"), "{j}");
        assert!(j.contains("\"degraded_generations\": 4"), "{j}");
        assert!(j.contains("\"short_write_retries\": 5"), "{j}");
    }

    #[test]
    fn tune_counters_delta_rates_and_json() {
        let before = tune_snapshot();
        add_tune_evals(4);
        add_tune_memo_hits(12);
        add_tune_pruned(30);
        add_tune_eval_nanos(8_000_000_000);
        let d = tune_snapshot().delta_since(&before);
        assert!(d.evals >= 4);
        assert!(d.memo_hits >= 12);
        assert!(d.pruned >= 30);
        assert!(d.eval_nanos >= 8_000_000_000);
        let s = TuneSnapshot {
            evals: 4,
            memo_hits: 12,
            pruned: 30,
            eval_nanos: 8_000_000_000,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.secs_per_eval() - 2.0).abs() < 1e-12);
        let j = s.to_json();
        assert!(j.contains("\"evals\": 4"), "{j}");
        assert!(j.contains("\"memo_hits\": 12"), "{j}");
        assert!(j.contains("\"pruned\": 30"), "{j}");
        assert!(j.contains("\"hit_rate\": 0.7500"), "{j}");
        let zero = TuneSnapshot {
            evals: 0,
            memo_hits: 0,
            pruned: 0,
            eval_nanos: 0,
        };
        assert_eq!(zero.hit_rate(), 0.0);
        assert_eq!(zero.secs_per_eval(), 0.0);
    }

    #[test]
    fn tier_counters_delta_and_json() {
        let before = tier_snapshot();
        add_tier_staged_bytes(100);
        add_tier_drained_bytes(90);
        add_tier_restores(1);
        add_tier_losses(2);
        let d = tier_snapshot().delta_since(&before);
        assert!(d.staged_bytes >= 100);
        assert!(d.drained_bytes >= 90);
        assert!(d.tier_restores >= 1);
        assert!(d.tier_losses >= 2);
        let j = TierSnapshot {
            staged_bytes: 100,
            drained_bytes: 90,
            tier_restores: 1,
            tier_losses: 2,
        }
        .to_json();
        assert!(j.contains("\"staged_bytes\": 100"), "{j}");
        assert!(j.contains("\"drained_bytes\": 90"), "{j}");
        assert!(j.contains("\"tier_restores\": 1"), "{j}");
        assert!(j.contains("\"tier_losses\": 2"), "{j}");
    }

    #[test]
    fn service_counters_delta_and_json() {
        let before = service_snapshot();
        add_service_admitted(1);
        add_service_queued(2);
        add_service_rejected(3);
        add_service_completed(4);
        add_service_failed(5);
        add_service_preemptions(6);
        add_service_throttle_waits(7);
        add_send_backpressure_blocks(9);
        add_send_backpressure_timeouts(10);
        let d = service_snapshot().delta_since(&before);
        assert!(d.admitted >= 1);
        assert!(d.queued >= 2);
        assert!(d.rejected >= 3);
        assert!(d.completed >= 4);
        assert!(d.failed >= 5);
        assert!(d.preemptions >= 6);
        assert!(d.throttle_waits >= 7);
        assert!(d.send_backpressure_blocks >= 9);
        assert!(d.send_backpressure_timeouts >= 10);
        let j = ServiceSnapshot {
            admitted: 1,
            rejected: 3,
            ..ServiceSnapshot::default()
        }
        .to_json();
        assert!(j.contains("\"admitted\": 1"), "{j}");
        assert!(j.contains("\"rejected\": 3"), "{j}");
        assert!(j.contains("\"send_backpressure_timeouts\": 0"), "{j}");
    }
}
