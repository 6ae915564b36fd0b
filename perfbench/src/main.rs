//! Wall-clock benchmark of the real rbio checkpoint/restore path.
//!
//! `rbio-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process (the profiling counters are
//! process-global), prints a human-readable report, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones of a traced run. The exit code is nonzero
//! when any restore differs from what was written.

mod bench;
mod input;
mod mgr;
mod spmd;
mod stats;
mod svc;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rbio::{RbIoCommit, Strategy};

use bench::{drive, Ctx, Outcome, Shape};
use stats::{median, tail};

const WORKLOADS: [&str; 3] = ["rbio_large", "pfpp_small", "coio_rt"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(".bench_work"),
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            "--work-dir" => a.work = PathBuf::from(&val),
            "--out-dir" => a.out = PathBuf::from(&val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// No workload fsyncs: on a virtual disk shared with other machines,
/// fsync latency moved checkpoint and restore medians and tails by
/// 20-50 % between identical runs. `commit.fsync_commit_ms` in the traced
/// run still times a durable commit.
fn shape(workload: &str) -> Shape {
    let (nranks, nfields, field_bytes, strategy) = match workload {
        // The paper's rbIO: 2 writers, one file each; 96 MiB per step.
        "rbio_large" => (
            16,
            3,
            2 << 20,
            Strategy::RbIo {
                ng: 2,
                commit: RbIoCommit::IndependentPerWriter,
            },
        ),
        // 1PFPP: 16 files of ~48 KiB per step.
        "pfpp_small" => (16, 6, 8 << 10, Strategy::OnePfpp),
        // coIO nf = 1: one shared 96 MiB file per step, six two-phase
        // rounds at the 16 MiB collective buffer. At 16 MiB per step the
        // tail (p98 of ~700 steps) caught host hiccups: spread 33 %.
        _ => (16, 16, 384 << 10, Strategy::coio(1)),
    };
    Shape {
        nranks,
        nfields,
        field_bytes,
        strategy,
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: args.work.join(&args.workload),
    };
    let s = shape(&args.workload);
    let out = match args.workload.as_str() {
        "rbio_large" => drive(&ctx, || mgr::ManagerWorkload::setup(&ctx, s.clone(), 1)),
        "pfpp_small" => drive(&ctx, || mgr::ManagerWorkload::setup(&ctx, s.clone(), 4)),
        _ => drive(&ctx, || spmd::SpmdWorkload::setup(&ctx, s.clone(), 1)),
    };
    bench::clean(&ctx.dir);
    out
}

/// This process's peak resident set, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time and page faults of the whole process, to tell a slow
/// machine from a slow program when runs disagree.
fn process_stats() -> String {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3;
    // minflt is field 10, utime and stime are 14 and 15 (clock ticks).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| f.get(n - 3).copied().unwrap_or("?");
    format!(
        "minflt={} utime_ticks={} stime_ticks={}",
        field(10),
        field(14),
        field(15)
    )
}

/// The filesystem type holding `dir` (longest mount-point prefix).
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut p = l.split_whitespace();
            let (_, point, kind) = (p.next()?, p.next()?, p.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, k)| k)
}

fn environment(work: &Path) -> String {
    let _ = std::fs::create_dir_all(work);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".into(), |k| k.trim().to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rev = std::env::var("RBIO_BENCH_REV").unwrap_or_else(|_| "unknown".into());
    format!(
        "nproc={nproc} kernel={kernel} fs={} profile={profile} rev={rev}",
        fs_type(work)
    )
}

struct Metrics {
    json: String,
    table: String,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            json: String::new(),
            table: String::new(),
        }
    }

    fn add(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        if !self.json.is_empty() {
            self.json.push_str(", ");
        }
        let _ = write!(
            self.json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
        let _ = writeln!(self.table, "  {name:<34} {value:>14.4} {unit:<8} {note}");
    }
}

fn end_to_end(m: &mut Metrics, o: &Outcome) {
    let t = &o.tally;
    m.add(
        "setup_s",
        median(&o.setup_s),
        "s",
        &format!("median of {}", o.setup_s.len()),
    );
    let ck = tail(&t.ckpt_ms);
    m.add(
        "ckpt_p50_ms",
        median(&t.ckpt_ms),
        "ms",
        &format!("n={}", ck.n),
    );
    m.add(
        "ckpt_tail_ms",
        ck.value,
        "ms",
        &format!("p{:.1}, n={}", ck.pct, ck.n),
    );
    let rs = tail(&t.restore_ms);
    m.add(
        "restore_p50_ms",
        median(&t.restore_ms),
        "ms",
        &format!("n={}", rs.n),
    );
    m.add(
        "restore_tail_ms",
        rs.value,
        "ms",
        &format!("p{:.1}, n={}", rs.pct, rs.n),
    );
    m.add(
        "write_gibps",
        t.ckpt_bytes as f64 / (1u64 << 30) as f64 / t.ckpt_secs.max(1e-9),
        "GiB/s",
        &format!("{} B committed", t.ckpt_bytes),
    );
    let bad = t.failed + t.mismatched;
    let attempted = t.attempted.max(1) as f64;
    m.add(
        "ok_rate",
        1.0 - bad as f64 / attempted,
        "ratio",
        &format!(
            "error_rate={} ({} failed, {} mismatched of {})",
            bad as f64 / attempted,
            t.failed,
            t.mismatched,
            t.attempted
        ),
    );
    m.add("peak_rss_mib", peak_rss_mib(), "MiB", "VmHWM");
}

fn med_spans(tr: &trace::Tracer, name: &str) -> f64 {
    median(&tr.durations(name))
}

fn med_samples(tr: &trace::Tracer, name: &str) -> f64 {
    median(tr.samples(name))
}

fn per_layer(m: &mut Metrics, x: &bench::Traced) {
    let tr = &x.tracer;
    let stats = x.plan.program.stats();
    m.add("plan.plan_ms", med_spans(tr, "plan.plan"), "ms", "");
    m.add(
        "plan.sends",
        stats.sends as f64,
        "count",
        "ops in one step's Program",
    );
    m.add("plan.barriers", stats.barriers as f64, "count", "");
    m.add("plan.write_ops", stats.writes as f64, "count", "");
    m.add("plan.files", x.plan.program.files.len() as f64, "count", "");
    m.add(
        "format.pack_ms",
        med_spans(tr, "format.pack"),
        "ms",
        "memcpy fill",
    );
    m.add(
        "format.crc32c_gibps",
        med_samples(tr, "format.crc32c_gibps"),
        "GiB/s",
        "one file's bytes",
    );
    m.add(
        "exec.execute_ms",
        med_spans(tr, "exec.execute"),
        "ms",
        "manager ExecConfig",
    );
    for (name, unit) in [
        ("exec.slowest_rank_ms", "ms"),
        ("exec.join_ms", "ms"),
        ("exec.writer_rank_ms", "ms"),
        ("exec.worker_rank_ms", "ms"),
        ("exec.sent_per_written", "ratio"),
        ("exec.retries", "count"),
    ] {
        m.add(name, med_samples(tr, name), unit, "");
    }
    m.add(
        "commit.commit_file_ms",
        med_spans(tr, "commit.commit_file"),
        "ms",
        "",
    );
    m.add(
        "commit.commit_gibps",
        med_samples(tr, "commit.commit_gibps"),
        "GiB/s",
        "",
    );
    m.add(
        "commit.fsync_commit_ms",
        med_spans(tr, "commit.fsync_commit"),
        "ms",
        "commit_file with fsync",
    );
    m.add("rt.collective_ms", med_spans(tr, "rt.collective"), "ms", "");
    m.add(
        "rt.rank_spread_ms",
        med_samples(tr, "rt.rank_spread_ms"),
        "ms",
        "",
    );
    m.add("restart.read_ms", med_spans(tr, "restart.read"), "ms", "");
    m.add(
        "restart.read_gibps",
        med_samples(tr, "restart.read_gibps"),
        "GiB/s",
        "",
    );
    m.add(
        "manager.verify_ms",
        med_spans(tr, "manager.verify"),
        "ms",
        "",
    );
    m.add(
        "manager.overhead_ms",
        median(&tr.self_durations("manager.checkpoint")),
        "ms",
        "checkpoint - plan - pack - execute",
    );
    m.add(
        "manager.restore_overhead_ms",
        median(&tr.self_durations("manager.restore")),
        "ms",
        "restore - verify - plan - read",
    );
    m.add("service.admit_ms", med_spans(tr, "service.admit"), "ms", "");
    m.add(
        "service.write_call_ms",
        med_spans(tr, "service.write"),
        "ms",
        "",
    );
    m.add(
        "service.commit_ms",
        med_spans(tr, "service.commit"),
        "ms",
        "drain + rename",
    );
    m.add(
        "service.read_chunk_ms",
        med_spans(tr, "service.read_chunk"),
        "ms",
        "",
    );
    let c = &x.counters;
    let ops = x.plain.attempted.max(1) as f64;
    m.add(
        "profiling.copies_per_byte",
        c.copy.copies_per_checkpoint_byte(),
        "ratio",
        "bytes_copied / checkpoint_bytes, untraced phase",
    );
    let sessions = x.service_sessions.max(1) as f64;
    for (name, v) in [
        ("service.throttle_waits", x.service.throttle_waits),
        ("service.preemptions", x.service.preemptions),
        ("service.rejected", x.service.rejected),
    ] {
        m.add(
            name,
            v as f64 / sessions,
            "1/op",
            &format!("{v} over {sessions} ladder service sessions"),
        );
    }
    for (name, v) in [
        ("failover.failovers", c.failover.failovers),
        (
            "profiling.send_backpressure_blocks",
            c.service.send_backpressure_blocks,
        ),
        ("profiling.gc_orphans", c.gc_orphans),
    ] {
        m.add(name, v as f64 / ops, "1/op", &format!("{v} over {ops} ops"));
    }
    m.add(
        "trace.overhead_ms",
        median(&x.traced.ckpt_ms) - median(&x.plain.ckpt_ms),
        "ms",
        "traced - untraced ckpt_p50_ms",
    );
    let rec = tr.reconcile();
    let worst = rec.iter().map(|r| r.median_ratio).fold(0.0, f64::max);
    let over: usize = rec.iter().map(|r| r.over).sum();
    m.add(
        "trace.reconcile_ratio",
        worst,
        "ratio",
        "worst median sum(children)/op",
    );
    m.add("trace.unreconciled_ops", over as f64, "count", "");
    m.add("trace.spans", tr.len() as f64, "count", "");
}

/// The traced run's self-time table and reconciliation, for people.
fn layer_report(x: &bench::Traced) -> (String, bool) {
    let tr = &x.tracer;
    let mut s = String::new();
    let mut ok = true;
    let _ = writeln!(
        s,
        "reconciliation (tolerance {:.0}%: children may exceed their op by at most this):",
        trace::RECONCILE_TOLERANCE * 100.0
    );
    for r in tr.reconcile() {
        let pass = r.median_ratio <= 1.0 + trace::RECONCILE_TOLERANCE;
        ok &= pass;
        let _ = writeln!(
            s,
            "  {:<22} ops={:<4} median children/op={:.3} over={} {}",
            r.name,
            r.ops,
            r.median_ratio,
            r.over,
            if pass { "ok" } else { "FAIL" }
        );
    }
    for r in tr.reconcile() {
        let (n, by_layer) = tr.layer_self_per_op(r.name);
        let _ = writeln!(s, "self time per {} op (n={n}):", r.name);
        for (layer, ms) in by_layer {
            let _ = writeln!(s, "  {layer:<10} {ms:>10.3} ms");
        }
    }
    (s, ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rbio-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# env: {}", environment(&args.work));
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rbio-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={} fsync=off",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut m = Metrics::new();
    let (tally, mut correct) = match &outcome.traced {
        None => {
            end_to_end(&mut m, &outcome);
            (&outcome.tally, true)
        }
        Some(x) => {
            per_layer(&mut m, x);
            let (report, ok) = layer_report(x);
            print!("{report}");
            let _ = std::fs::create_dir_all(&args.out);
            let path = args
                .out
                .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
            if let Err(e) = std::fs::write(&path, x.tracer.to_json()) {
                eprintln!("writing {}: {e}", path.display());
            }
            println!("# spans: {}", path.display());
            (&x.plain, ok)
        }
    };
    let traced_tally = outcome.traced.as_ref().map(|x| &x.traced);
    let mismatched = tally.mismatched + traced_tally.map_or(0, |t| t.mismatched);
    let failed = tally.failed + traced_tally.map_or(0, |t| t.failed) + mismatched;
    let attempted = tally.attempted + traced_tally.map_or(0, |t| t.attempted);
    correct &= mismatched == 0;
    print!("{}", m.table);
    println!("# process: {}", process_stats());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        m.json
    );
    if mismatched > 0 {
        eprintln!("rbio-perfbench: {mismatched} restores differ from what was written");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
