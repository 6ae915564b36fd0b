//! Candidate canonicalization: the memoization-cache keys.
//!
//! Two candidates are *cost-equivalent* when every knob the simulator
//! actually reads has the same value — knobs the selected strategy or
//! machine ignores are masked to a fixed sentinel so equivalent
//! candidates collide on one key and a repeated lookup is free. The
//! masking rules mirror, knob by knob, where each value is consumed:
//!
//! * 1PFPP plans read only `writer_buffer` (chunk cap) — `nf`,
//!   `cb_buffer` and `coalesce_fields` are masked.
//! * coIO plans read `nf`, `cb_buffer`, `coalesce_fields` — the rbIO
//!   `writer_buffer` is masked.
//! * rbIO (independent commit) plans read `nf` (= ng) and
//!   `writer_buffer` — the collective-only `cb_buffer` and
//!   `coalesce_fields` are masked.
//! * With a staging tier, the simulator's tier path bypasses the flush
//!   pipeline entirely, so `pipeline_depth` is masked; without a tier,
//!   `tier_drain_bw` is masked.
//! * `coalesce_max_bytes`/`coalesce_max_ops` never enter either key:
//!   the simulator does not model IOV batching, so they are
//!   cost-invariant (they ride into the exported `ExecConfig` only).
//!
//! A second, smaller key ([`PlanKey`]) captures only the knobs that
//! shape the compiled `Program`. Plans are machine-independent, so one
//! compiled plan serves every machine-knob variation — the plan cache
//! is keyed on this.

use crate::space::{Candidate, StrategyKind};

/// Memoization key: all cost-relevant knobs, masked per the module
/// docs. `Hash + Eq` by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CanonKey {
    strategy: StrategyKind,
    nf: u32,
    pipeline_depth: u32,
    writer_buffer: u64,
    cb_buffer: u64,
    coalesce_fields: bool,
    tier_drain_bw: Option<u64>,
}

/// Plan-cache key: the knobs that shape the compiled `Program` (layout
/// and prefix are fixed per oracle, so they live outside the key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    strategy: StrategyKind,
    nf: u32,
    writer_buffer: u64,
    cb_buffer: u64,
    coalesce_fields: bool,
}

/// Strategy-level masks shared by both keys.
fn plan_fields(c: &Candidate) -> (u32, u64, u64, bool) {
    match c.strategy {
        StrategyKind::OnePfpp => (0, c.writer_buffer, 0, false),
        StrategyKind::CoIo => (c.nf, 0, c.cb_buffer, c.coalesce_fields),
        StrategyKind::RbIo => (c.nf, c.writer_buffer, 0, false),
    }
}

/// The memoization key of `c` on a machine with (`has_tier`) or without
/// a staging tier.
pub fn canon_key(c: &Candidate, has_tier: bool) -> CanonKey {
    let (nf, writer_buffer, cb_buffer, coalesce_fields) = plan_fields(c);
    let tier_drain_bw = if has_tier { c.tier_drain_bw } else { None };
    // Tier path bypasses the flush pipeline; depth is moot.
    let pipeline_depth = if has_tier { 1 } else { c.pipeline_depth };
    CanonKey {
        strategy: c.strategy,
        nf,
        pipeline_depth,
        writer_buffer,
        cb_buffer,
        coalesce_fields,
        tier_drain_bw,
    }
}

/// The plan-cache key of `c` (machine knobs excluded by construction).
pub fn plan_key(c: &Candidate) -> PlanKey {
    let (nf, writer_buffer, cb_buffer, coalesce_fields) = plan_fields(c);
    PlanKey {
        strategy: c.strategy,
        nf,
        writer_buffer,
        cb_buffer,
        coalesce_fields,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;
    use proptest::prelude::*;

    fn base() -> Candidate {
        Candidate {
            strategy: StrategyKind::RbIo,
            nf: 1024,
            pipeline_depth: 2,
            writer_buffer: 16 << 20,
            cb_buffer: 16 << 20,
            coalesce_fields: false,
            tier_drain_bw: None,
            coalesce_max_bytes: 8 << 20,
            coalesce_max_ops: 64,
        }
    }

    #[test]
    fn masked_knobs_collapse() {
        let a = base();
        // rbIO ignores cb_buffer and coalesce_fields.
        let mut b = a;
        b.cb_buffer = 4 << 20;
        b.coalesce_fields = true;
        assert_eq!(canon_key(&a, false), canon_key(&b, false));
        // A tier masks depth.
        let mut ta = a;
        ta.tier_drain_bw = Some(1_500_000_000);
        let mut tb = ta;
        tb.pipeline_depth = 4;
        assert_eq!(canon_key(&ta, true), canon_key(&tb, true));
        // Coalesce caps never matter.
        let mut cc = a;
        cc.coalesce_max_bytes = 1 << 20;
        cc.coalesce_max_ops = 8;
        assert_eq!(canon_key(&a, false), canon_key(&cc, false));
    }

    #[test]
    fn live_knobs_distinguish() {
        let a = base();
        let mut b = a;
        b.nf = 512;
        assert_ne!(canon_key(&a, false), canon_key(&b, false));
        let mut c = a;
        c.writer_buffer = 1 << 20;
        assert_ne!(canon_key(&a, false), canon_key(&c, false));
        let mut d = a;
        d.pipeline_depth = 1;
        assert_ne!(canon_key(&a, false), canon_key(&d, false));
        // Without a tier the drain knob is masked; with one it is live.
        let mut t = a;
        t.tier_drain_bw = Some(3_000_000_000);
        assert_eq!(canon_key(&a, false), canon_key(&t, false));
        let mut t2 = t;
        t2.tier_drain_bw = Some(1_000_000_000);
        assert_ne!(canon_key(&t, true), canon_key(&t2, true));
    }

    #[test]
    fn one_pfpp_ignores_nf_but_not_writer_buffer() {
        let mut a = base();
        a.strategy = StrategyKind::OnePfpp;
        let mut b = a;
        b.nf = 64;
        assert_eq!(canon_key(&a, false), canon_key(&b, false));
        assert_eq!(plan_key(&a), plan_key(&b));
        let mut c = a;
        c.writer_buffer = 1 << 20;
        assert_ne!(canon_key(&a, false), canon_key(&c, false));
        assert_ne!(plan_key(&a), plan_key(&c));
    }

    #[test]
    fn coio_masks_writer_buffer() {
        let mut a = base();
        a.strategy = StrategyKind::CoIo;
        let mut b = a;
        b.writer_buffer = 1 << 20;
        assert_eq!(plan_key(&a), plan_key(&b));
        let mut c = a;
        c.cb_buffer = 4 << 20;
        assert_ne!(plan_key(&a), plan_key(&c));
    }

    /// Pull one element out of `v` by consuming entropy from `bits`.
    fn pick<T: Copy>(v: &[T], bits: &mut u64) -> T {
        let n = v.len() as u64;
        let i = (*bits % n) as usize;
        *bits /= n;
        v[i]
    }

    /// Draw a candidate from the default Intrepid space axes, plus a
    /// couple of off-axis values for the masked knobs. The shim has no
    /// `sample::select`, so knobs are decoded from a raw `u64`.
    fn arb_candidate() -> impl Strategy<Value = Candidate> {
        any::<u64>().prop_map(|mut bits| {
            let s = Space::intrepid(16384);
            let strategies = [
                StrategyKind::OnePfpp,
                StrategyKind::CoIo,
                StrategyKind::RbIo,
            ];
            let tiers = [None, Some(1_000_000_000u64), Some(3_000_000_000u64)];
            Candidate {
                strategy: pick(&strategies, &mut bits),
                nf: pick(&s.nf, &mut bits),
                pipeline_depth: pick(&s.pipeline_depth, &mut bits),
                writer_buffer: pick(&s.writer_buffer, &mut bits),
                cb_buffer: pick(&s.cb_buffer, &mut bits),
                coalesce_fields: pick(&[false, true], &mut bits),
                tier_drain_bw: pick(&tiers, &mut bits),
                coalesce_max_bytes: 8 << 20,
                coalesce_max_ops: 64,
            }
        })
    }

    proptest! {
        /// Equivalent candidates (differing only in masked knobs) map to
        /// the same key: rewriting every masked knob to an arbitrary
        /// other value must not change the key.
        #[test]
        fn prop_masked_rewrites_preserve_key(c in arb_candidate(), has_tier in any::<bool>()) {
            let k = canon_key(&c, has_tier);
            let mut m = c;
            // Knobs masked for every candidate.
            m.coalesce_max_bytes = 1 << 20;
            m.coalesce_max_ops = 8;
            match c.strategy {
                StrategyKind::OnePfpp => { m.nf = 77; m.cb_buffer = 123; m.coalesce_fields = !m.coalesce_fields; }
                StrategyKind::CoIo => { m.writer_buffer = 123; }
                StrategyKind::RbIo => { m.cb_buffer = 123; m.coalesce_fields = !m.coalesce_fields; }
            }
            if !has_tier { m.tier_drain_bw = Some(42); }
            if has_tier { m.pipeline_depth = c.pipeline_depth % 4 + 1; }
            prop_assert_eq!(canon_key(&m, has_tier), k);
        }

        /// Candidates differing in a LIVE knob map to distinct keys.
        #[test]
        fn prop_live_knob_changes_key(c in arb_candidate(), has_tier in any::<bool>()) {
            let k = canon_key(&c, has_tier);
            // nf is live for CoIo/RbIo.
            if c.strategy != StrategyKind::OnePfpp {
                let mut m = c; m.nf = if c.nf == 64 { 128 } else { c.nf / 2 };
                prop_assert_ne!(canon_key(&m, has_tier), k);
            }
            // pipeline_depth is live without a tier.
            if !has_tier {
                let mut m = c; m.pipeline_depth = if c.pipeline_depth == 1 { 2 } else { 1 };
                prop_assert_ne!(canon_key(&m, has_tier), k);
            }
            // drain rate is live with a tier.
            if has_tier {
                let mut m = c;
                m.tier_drain_bw = match c.tier_drain_bw { Some(x) => Some(x + 1), None => Some(7) };
                prop_assert_ne!(canon_key(&m, has_tier), k);
            }
            // strategy is always live.
            let mut m = c;
            m.strategy = match c.strategy {
                StrategyKind::OnePfpp => StrategyKind::CoIo,
                StrategyKind::CoIo => StrategyKind::RbIo,
                StrategyKind::RbIo => StrategyKind::OnePfpp,
            };
            prop_assert_ne!(canon_key(&m, has_tier), k);
        }

        /// The plan key is a projection of the canon key: equal canon
        /// keys imply equal plan keys.
        #[test]
        fn prop_plan_key_is_projection(a in arb_candidate(), b in arb_candidate()) {
            if canon_key(&a, false) == canon_key(&b, false) {
                prop_assert_eq!(plan_key(&a), plan_key(&b));
            }
        }
    }
}
