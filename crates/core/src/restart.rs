//! Restart: reading checkpoints back.
//!
//! Two paths are provided:
//!
//! * [`read_checkpoint`] — plan-guided: reads the files a
//!   [`CheckpointPlan`] wrote and returns every rank's field data. Used by
//!   applications restarting from their own plan and by the round-trip
//!   tests.
//! * [`scan_checkpoint_dir`] / [`read_checkpoint_auto`] — self-describing:
//!   reconstructs the checkpoint from the file headers alone (no plan
//!   needed), verifying that the discovered files cover every rank exactly
//!   once. This is what a post-processing/visualization tool would use —
//!   one of the stated benefits of application-level checkpointing (§II).
//!
//! A restart [`Program`] builder is also provided so the simulator can
//! replay the read path (the paper's §III-B mesh-read timings).

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rbio_plan::{FileId, Op, Program, ProgramBuilder};

use crate::buf::Bytes;
use crate::format::{decode_header, FileHeader, FormatError};
use crate::strategy::CheckpointPlan;

/// Cap on concurrent per-file restart readers. Each worker holds one
/// whole file image in memory while slicing it, so this also bounds peak
/// restart memory to `MAX_RESTART_WORKERS` file images.
const MAX_RESTART_WORKERS: usize = 8;

/// Errors reading a checkpoint back.
#[derive(Debug)]
pub enum RestartError {
    /// Filesystem error.
    Io(io::Error),
    /// A file failed to parse or verify.
    Format {
        /// File path (relative).
        file: String,
        /// Underlying format error.
        source: FormatError,
    },
    /// The set of files does not cover every rank exactly once, or
    /// disagrees about the job shape.
    Inconsistent(String),
    /// A file is missing its commit footer or fails its checksums: the
    /// checkpoint was torn by a crash between write and commit, or the
    /// data rotted afterwards. Restart must fall back to an older
    /// generation.
    Torn {
        /// File path (relative).
        file: String,
        /// What the validation pass found.
        what: String,
    },
    /// A restart worker panicked while extracting one file. Surfaced as
    /// a typed per-file error — the other files' workers run to
    /// completion and a caller (or `restore_latest`) can fall back —
    /// instead of poisoning the slot mutexes and tearing down the whole
    /// restore with it.
    WorkerPanicked {
        /// File path (relative) being extracted when the worker died.
        file: String,
        /// The panic payload, when it was a string.
        what: String,
    },
}

impl From<io::Error> for RestartError {
    fn from(e: io::Error) -> Self {
        RestartError::Io(e)
    }
}

impl std::fmt::Display for RestartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestartError::Io(e) => write!(f, "I/O: {e}"),
            RestartError::Format { file, source } => write!(f, "{file}: {source}"),
            RestartError::Inconsistent(s) => write!(f, "inconsistent checkpoint: {s}"),
            RestartError::Torn { file, what } => write!(f, "torn checkpoint: {file}: {what}"),
            RestartError::WorkerPanicked { file, what } => {
                write!(f, "restart worker panicked extracting {file}: {what}")
            }
        }
    }
}

impl std::error::Error for RestartError {}

/// A fully restored checkpoint: every rank's field blocks.
#[derive(Debug, Clone)]
pub struct RestoredData {
    /// Checkpoint step recovered from the headers.
    pub step: u64,
    /// Total ranks.
    pub nranks: u32,
    /// Field names, in order.
    pub field_names: Vec<String>,
    /// `data[rank][field]` = that rank's bytes for that field — a
    /// refcounted slice of the file image it was read from, so restoring
    /// never copies the data out of the read buffer.
    data: Vec<Vec<Bytes>>,
}

impl RestoredData {
    /// A rank's bytes for one field.
    pub fn field_data(&self, rank: u32, field: usize) -> &[u8] {
        self.data[rank as usize][field].as_ref()
    }

    /// Total restored bytes.
    pub fn total_bytes(&self) -> u64 {
        self.data
            .iter()
            .flat_map(|r| r.iter())
            .map(|v| v.len() as u64)
            .sum()
    }
}

/// Largest header we will ever allocate for. Real headers are a few KB;
/// anything bigger means the length field itself is damaged, and trusting
/// it would turn a torn file into a multi-GB allocation.
const MAX_HEADER_LEN: usize = 64 * 1024 * 1024;

fn read_header(path: &Path) -> Result<FileHeader, RestartError> {
    let mut f = File::open(path)?;
    // Headers are small; read a generous prefix, growing if `header_len`
    // says we need more.
    let mut buf = vec![0u8; 64 * 1024];
    let n = read_up_to(&mut f, &mut buf)?;
    buf.truncate(n);
    let torn = |what: String| RestartError::Torn {
        file: path.display().to_string(),
        what,
    };
    match decode_header(&buf) {
        Ok(h) => Ok(h),
        // A file too short to hold even the fixed header prelude (magic,
        // version, header_len) was torn by a crash mid-create — including
        // the zero-length case. That is a generation to fall back from,
        // not a format bug.
        Err(FormatError::Truncated) if n < 16 => {
            Err(torn(format!("file ends mid-header ({n} bytes)")))
        }
        Err(FormatError::Truncated) => {
            let hlen = u64::from_le_bytes(buf[8..16].try_into().expect("len 8")) as usize;
            if hlen > MAX_HEADER_LEN {
                return Err(torn(format!("implausible header length {hlen}")));
            }
            let mut full = vec![0u8; hlen];
            f.seek(SeekFrom::Start(0))?;
            match f.read_exact(&mut full) {
                Ok(()) => {}
                // Shorter than its own header_len: torn mid-header.
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    return Err(torn(format!("file ends inside its {hlen}-byte header")));
                }
                Err(e) => return Err(RestartError::Io(e)),
            }
            decode_header(&full).map_err(|e| RestartError::Format {
                file: path.display().to_string(),
                source: e,
            })
        }
        Err(e) => Err(RestartError::Format {
            file: path.display().to_string(),
            source: e,
        }),
    }
}

fn read_up_to(f: &mut File, buf: &mut [u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match f.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// Read, verify, and slice one checkpoint file: returns
/// `blocks[rank - r0][field]`, each block a zero-copy slice of the single
/// file image read here.
fn extract_file(
    dir: &Path,
    rel: &str,
    header: &FileHeader,
) -> Result<Vec<Vec<Bytes>>, RestartError> {
    let path = dir.join(rel);
    let file = File::open(&path)?;
    let actual = file.metadata()?.len();
    let mut image = vec![0u8; actual as usize];
    file.read_exact_at(&mut image, 0)?;
    let bytes = Bytes::from_vec(image);
    if actual < header.expected_file_size() {
        // Shorter than its own header promises: a crash truncated the
        // write. Classified as torn (fall back a generation), not as a
        // shape mismatch — the header itself is internally consistent.
        return Err(RestartError::Torn {
            file: rel.to_string(),
            what: format!(
                "file is {actual} bytes, header expects {}",
                header.expected_file_size()
            ),
        });
    }
    // Validation pass: every published checkpoint file carries a commit
    // footer with per-field checksums. A missing or failing footer means
    // the file was never committed (crash between write and rename) or
    // rotted afterwards — either way the generation cannot be trusted.
    if let Some(what) = crate::commit::verify_committed(&bytes, header.expected_file_size()) {
        return Err(RestartError::Torn {
            file: rel.to_string(),
            what,
        });
    }
    let mut out = Vec::with_capacity((header.r1 - header.r0) as usize);
    for rank in header.r0..header.r1 {
        let mut row = Vec::with_capacity(header.fields.len());
        for field in 0..header.fields.len() {
            let (off, len) = header.rank_block(rank, field);
            row.push(bytes.slice(off as usize..(off + len) as usize));
        }
        out.push(row);
    }
    Ok(out)
}

/// Per-file extraction result: one row of zero-copy field blocks per rank
/// covered by the file.
type FileBlocks = Result<Vec<Vec<Bytes>>, RestartError>;

/// Test-only panic injection: a worker extracting the file at this index
/// panics (consuming the injection). `usize::MAX` is inert. Pins the
/// regression where a worker panic poisoned its slot mutex and the
/// `expect("no poisoned slots")` unwinds took down the entire restore.
#[doc(hidden)]
pub static INJECT_EXTRACT_PANIC: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Run one file's extraction, converting a worker panic into a typed
/// [`RestartError::WorkerPanicked`] so sibling files still restore.
fn extract_file_guarded(dir: &Path, rel: &str, header: &FileHeader, index: usize) -> FileBlocks {
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if INJECT_EXTRACT_PANIC
            .compare_exchange(index, usize::MAX, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            panic!("injected restart worker panic");
        }
        extract_file(dir, rel, header)
    }));
    match res {
        Ok(r) => r,
        Err(payload) => {
            let what = payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(RestartError::WorkerPanicked {
                file: rel.to_string(),
                what,
            })
        }
    }
}

/// Lock a result slot without trusting poison state: with panics caught
/// in [`extract_file_guarded`] the storing closure cannot unwind, but a
/// poisoned lock must still yield its data rather than panic again.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Extract every file of a checkpoint, fanning the per-file work (read +
/// checksum verification + slicing) out across up to
/// [`MAX_RESTART_WORKERS`] threads. Files cover disjoint rank ranges, so
/// the merge is a straight append per rank; the first failing file (by
/// listed order) wins error reporting, matching the serial path. A
/// panicking worker fails only its own file (typed
/// [`RestartError::WorkerPanicked`]); every other slot completes.
fn extract_all(
    dir: &Path,
    files: &[(String, FileHeader)],
    nranks: u32,
) -> Result<Vec<Vec<Bytes>>, RestartError> {
    let mut data: Vec<Vec<Bytes>> = vec![Vec::new(); nranks as usize];
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(files.len())
        .min(MAX_RESTART_WORKERS);
    let mut results: Vec<Option<FileBlocks>> = if workers <= 1 {
        files
            .iter()
            .enumerate()
            .map(|(i, (name, h))| Some(extract_file_guarded(dir, name, h, i)))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<FileBlocks>>> =
            files.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= files.len() {
                        break;
                    }
                    let (name, h) = &files[i];
                    let res = extract_file_guarded(dir, name, h, i);
                    *lock_unpoisoned(&slots[i]) = Some(res);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
            .collect()
    };
    for ((_, h), slot) in files.iter().zip(results.iter_mut()) {
        let blocks = slot.take().expect("every file slot filled")?;
        for (k, row) in blocks.into_iter().enumerate() {
            data[h.r0 as usize + k].extend(row);
        }
    }
    Ok(data)
}

/// Read back the checkpoint a plan wrote under `dir`.
pub fn read_checkpoint(
    dir: impl AsRef<Path>,
    plan: &CheckpointPlan,
) -> Result<RestoredData, RestartError> {
    let dir = dir.as_ref();
    let nranks = plan.layout.nranks();
    // Headers first (small reads, serial): shape checks must all pass
    // before the heavy per-file extraction fans out.
    let mut files: Vec<(String, FileHeader)> = Vec::with_capacity(plan.plan_files.len());
    let mut step = None;
    for pf in &plan.plan_files {
        let header = read_header(&dir.join(&pf.name))?;
        if (header.r0, header.r1) != (pf.r0, pf.r1) {
            return Err(RestartError::Inconsistent(format!(
                "{}: covers [{},{}) but plan says [{},{})",
                pf.name, header.r0, header.r1, pf.r0, pf.r1
            )));
        }
        if header.nranks_total != nranks {
            return Err(RestartError::Inconsistent(format!(
                "{}: written by a {}-rank job, plan has {nranks}",
                pf.name, header.nranks_total
            )));
        }
        step = Some(header.step);
        files.push((pf.name.clone(), header));
    }
    let data = extract_all(dir, &files, nranks)?;
    for (r, d) in data.iter().enumerate() {
        if d.len() != plan.layout.nfields() {
            return Err(RestartError::Inconsistent(format!(
                "rank {r}: {} field blocks restored, layout has {}",
                d.len(),
                plan.layout.nfields()
            )));
        }
    }
    Ok(RestoredData {
        step: step.unwrap_or(0),
        nranks,
        field_names: plan
            .layout
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect(),
        data,
    })
}

/// Read back a checkpoint from in-memory file images — the node-local
/// tier's staged extents (see [`crate::tier::TierStage::assemble`]).
/// `image_of` yields the full logical image for a plan file name.
///
/// Staged images carry no commit footer (sealing is in-memory; the
/// durability proof lives on the drained tiers), so integrity here is
/// the header shape checks — the same trust as the application's own
/// buffers the bytes were copied from moments earlier.
pub fn read_checkpoint_staged(
    plan: &CheckpointPlan,
    mut image_of: impl FnMut(&str) -> Option<Vec<u8>>,
) -> Result<RestoredData, RestartError> {
    let nranks = plan.layout.nranks();
    let mut step = None;
    let mut data: Vec<Vec<Bytes>> = vec![Vec::new(); nranks as usize];
    for pf in &plan.plan_files {
        let img = image_of(&pf.name).ok_or_else(|| RestartError::Torn {
            file: pf.name.clone(),
            what: "not resident in the local tier".to_string(),
        })?;
        let bytes = Bytes::from_vec(img);
        let header = decode_header(&bytes).map_err(|e| RestartError::Format {
            file: pf.name.clone(),
            source: e,
        })?;
        if (header.r0, header.r1) != (pf.r0, pf.r1) {
            return Err(RestartError::Inconsistent(format!(
                "{}: covers [{},{}) but plan says [{},{})",
                pf.name, header.r0, header.r1, pf.r0, pf.r1
            )));
        }
        if header.nranks_total != nranks {
            return Err(RestartError::Inconsistent(format!(
                "{}: written by a {}-rank job, plan has {nranks}",
                pf.name, header.nranks_total
            )));
        }
        if (bytes.len() as u64) < header.expected_file_size() {
            return Err(RestartError::Torn {
                file: pf.name.clone(),
                what: format!(
                    "staged image is {} bytes, header expects {}",
                    bytes.len(),
                    header.expected_file_size()
                ),
            });
        }
        step = Some(header.step);
        for rank in header.r0..header.r1 {
            let mut row = Vec::with_capacity(header.fields.len());
            for field in 0..header.fields.len() {
                let (off, len) = header.rank_block(rank, field);
                row.push(bytes.slice(off as usize..(off + len) as usize));
            }
            data[rank as usize].extend(row);
        }
    }
    for (r, d) in data.iter().enumerate() {
        if d.len() != plan.layout.nfields() {
            return Err(RestartError::Inconsistent(format!(
                "rank {r}: {} field blocks restored, layout has {}",
                d.len(),
                plan.layout.nfields()
            )));
        }
    }
    Ok(RestoredData {
        step: step.unwrap_or(0),
        nranks,
        field_names: plan
            .layout
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect(),
        data,
    })
}

/// Discover every rbio checkpoint file under `dir` whose name starts with
/// `prefix`, returning `(relative name, parsed header)` sorted by covered
/// rank range.
pub fn scan_checkpoint_dir(
    dir: impl AsRef<Path>,
    prefix: &str,
) -> Result<Vec<(String, FileHeader)>, RestartError> {
    let dir = dir.as_ref();
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        // Entries deleted between listing and stat (a concurrent GC
        // rotating old generations) are not this scan's problem.
        let entry = match entry {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(RestartError::Io(e)),
        };
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with(prefix) || !name.ends_with(".rbio") {
            continue;
        }
        let header = match read_header(&entry.path()) {
            Ok(h) => h,
            Err(RestartError::Io(e)) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        out.push((name, header));
    }
    out.sort_by_key(|(_, h)| (h.r0, h.r1));
    Ok(out)
}

/// Rebuild a checkpoint from its files alone (no plan): headers are
/// self-describing, so any tool can slice the data — the portability
/// argument for application-level checkpointing.
pub fn read_checkpoint_auto(
    dir: impl AsRef<Path>,
    prefix: &str,
) -> Result<RestoredData, RestartError> {
    let dir = dir.as_ref();
    let files = scan_checkpoint_dir(dir, prefix)?;
    if files.is_empty() {
        return Err(RestartError::Inconsistent(format!(
            "no '{prefix}*.rbio' files found"
        )));
    }
    let nranks = files[0].1.nranks_total;
    let step = files[0].1.step;
    let nfields = files[0].1.fields.len();
    let field_names: Vec<String> = files[0].1.fields.iter().map(|f| f.name.clone()).collect();
    // Coverage check: the rank ranges must tile [0, nranks).
    let mut cursor = 0u32;
    for (name, h) in &files {
        if h.nranks_total != nranks || h.step != step || h.fields.len() != nfields {
            return Err(RestartError::Inconsistent(format!(
                "{name}: header disagrees with the first file's job shape"
            )));
        }
        if h.r0 != cursor {
            return Err(RestartError::Inconsistent(format!(
                "rank coverage gap/overlap at {cursor} (file {name} starts at {})",
                h.r0
            )));
        }
        cursor = h.r1;
    }
    if cursor != nranks {
        return Err(RestartError::Inconsistent(format!(
            "files cover ranks [0,{cursor}) of {nranks}"
        )));
    }
    let data = extract_all(dir, &files, nranks)?;
    Ok(RestoredData {
        step,
        nranks,
        field_names,
        data,
    })
}

/// Build a restart [`Program`]: every rank opens the file covering it and
/// reads its own blocks (independent reads — reads happen once per job, so
/// the paper leaves them untuned; §III-B).
pub fn build_restart_plan(plan: &CheckpointPlan) -> Program {
    let layout = &plan.layout;
    let np = layout.nranks();
    // Restart reads into staging; the payload buffers are unused.
    let mut b = ProgramBuilder::new(vec![0; np as usize]);
    // Mirror the plan's files.
    let mut ids: Vec<FileId> = Vec::with_capacity(plan.plan_files.len());
    for (i, pf) in plan.plan_files.iter().enumerate() {
        ids.push(b.file(pf.name.clone(), plan.program.files[i].size));
    }
    for (i, pf) in plan.plan_files.iter().enumerate() {
        let hdr = crate::format::header_len(layout, &plan.app, pf.r0, pf.r1);
        for rank in pf.r0..pf.r1 {
            b.reserve_staging(rank, layout.rank_payload_bytes(rank));
            b.push(
                rank,
                Op::Open {
                    file: ids[i],
                    create: false,
                },
            );
            for f in 0..layout.nfields() {
                let len = layout.field_bytes(rank, f);
                if len == 0 {
                    continue;
                }
                let field_base = hdr
                    + (0..f)
                        .map(|g| layout.field_total(g, pf.r0, pf.r1))
                        .sum::<u64>();
                b.push(
                    rank,
                    Op::ReadAt {
                        file: ids[i],
                        offset: field_base + layout.field_rank_off(f, pf.r0, rank),
                        len,
                        staging_off: layout.payload_field_off(rank, f),
                    },
                );
            }
            b.push(rank, Op::Close { file: ids[i] });
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecConfig};
    use crate::format::materialize_payloads;
    use crate::layout::DataLayout;
    use crate::strategy::{CheckpointSpec, Strategy};
    use rbio_plan::{validate, CoverageMode};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("rbio-restart-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn fill(rank: u32, field: usize, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (rank as usize * 31 + field * 7 + i) as u8;
        }
    }

    #[test]
    fn pfpp_write_then_read_round_trip() {
        let layout = DataLayout::uniform(4, &[("Ex", 64), ("Ey", 32)]);
        let plan = CheckpointSpec::new(layout, "ck").step(5).plan().unwrap();
        let dir = tmpdir("pfpp");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        let restored = read_checkpoint(&dir, &plan).unwrap();
        assert_eq!(restored.step, 5);
        assert_eq!(restored.nranks, 4);
        assert_eq!(restored.field_names, vec!["Ex", "Ey"]);
        for r in 0..4u32 {
            for f in 0..2usize {
                let mut want = vec![0u8; if f == 0 { 64 } else { 32 }];
                fill(r, f, &mut want);
                assert_eq!(restored.field_data(r, f), &want[..], "rank {r} field {f}");
            }
        }
        // Auto-discovery agrees.
        let auto = read_checkpoint_auto(&dir, "ck").unwrap();
        assert_eq!(auto.total_bytes(), restored.total_bytes());
        assert_eq!(auto.field_data(2, 1), restored.field_data(2, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_plan_validates_and_runs() {
        let layout = DataLayout::uniform(4, &[("Ex", 64)]);
        let plan = CheckpointSpec::new(layout, "ck")
            .strategy(Strategy::coio(2))
            .plan()
            .unwrap();
        let dir = tmpdir("rplan");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();

        let rp = build_restart_plan(&plan);
        validate(&rp, CoverageMode::Read).unwrap();
        execute(&rp, vec![vec![]; 4], &ExecConfig::new(&dir)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a panicking restart worker used to poison its slot
    /// mutex and the `expect("no poisoned slots")` take-down panicked
    /// the whole restore (through `std::thread::scope`). Now the panic
    /// is caught per file, surfaces as a typed `WorkerPanicked` for
    /// that file only, and every other slot completes.
    #[test]
    fn panicking_worker_fails_only_its_file() {
        // 1PFPP over 4 ranks -> 4 files, so the parallel fan-out engages
        // and sibling files genuinely run on other workers.
        let layout = DataLayout::uniform(4, &[("Ex", 64)]);
        let plan = CheckpointSpec::new(layout, "ck").step(3).plan().unwrap();
        let dir = tmpdir("panic");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        assert!(plan.plan_files.len() >= 2, "need multiple files");

        INJECT_EXTRACT_PANIC.store(0, Ordering::Release);
        let res = read_checkpoint(&dir, &plan);
        assert_eq!(
            INJECT_EXTRACT_PANIC.load(Ordering::Acquire),
            usize::MAX,
            "injection must have been consumed"
        );
        match res {
            Err(RestartError::WorkerPanicked { file, what }) => {
                assert_eq!(file, plan.plan_files[0].name);
                assert!(what.contains("injected"), "payload: {what}");
            }
            other => panic!("want WorkerPanicked, got {other:?}"),
        }

        // With the injection consumed, the same checkpoint restores.
        let restored = read_checkpoint(&dir, &plan).unwrap();
        assert_eq!(restored.nranks, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_files_reported() {
        let layout = DataLayout::uniform(2, &[("x", 8)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_checkpoint(&dir, &plan).is_err());
        assert!(read_checkpoint_auto(&dir, "ck").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_data_reported_as_torn() {
        let layout = DataLayout::uniform(2, &[("x", 512)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("torn-bit");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        // Flip one data byte (well clear of the 32-byte footer): the
        // footer's field checksum must catch it.
        let victim = dir.join(&plan.plan_files[0].name);
        let mut bytes = std::fs::read(&victim).unwrap();
        let idx = bytes.len() - 64;
        bytes[idx] ^= 0x01;
        std::fs::write(&victim, bytes).unwrap();
        let err = read_checkpoint(&dir, &plan).unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footerless_file_reported_as_torn() {
        let layout = DataLayout::uniform(2, &[("x", 128)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("torn-nofoot");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        // Chop the footer off: data intact but the commit proof is gone —
        // indistinguishable from a file renamed by something other than
        // the commit path.
        let victim = dir.join(&plan.plan_files[1].name);
        let hdr = read_header(&victim).unwrap();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        f.set_len(hdr.expected_file_size()).unwrap();
        drop(f);
        let err = read_checkpoint(&dir, &plan).unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_detected() {
        let layout = DataLayout::uniform(2, &[("x", 1000)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("trunc");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        // Truncate the second file mid-data.
        let victim = dir.join(&plan.plan_files[1].name);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        f.set_len(200).unwrap();
        drop(f);
        let err = read_checkpoint(&dir, &plan).unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_length_and_header_stub_files_are_torn_not_panics() {
        let layout = DataLayout::uniform(2, &[("x", 256)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("torn-zero");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();

        // Zero-length file: crash between create and first write.
        let victim = dir.join(&plan.plan_files[0].name);
        let good = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, b"").unwrap();
        for err in [
            read_checkpoint(&dir, &plan).unwrap_err(),
            read_checkpoint_auto(&dir, "ck").unwrap_err(),
        ] {
            assert!(
                matches!(err, RestartError::Torn { .. }),
                "want Torn, got {err}"
            );
        }

        // A few bytes of header prelude, then nothing.
        std::fs::write(&victim, &good[..10]).unwrap();
        let err = read_checkpoint(&dir, &plan).unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );

        // Valid prelude but the file ends inside its declared header.
        std::fs::write(&victim, &good[..20.min(good.len())]).unwrap();
        let err = read_checkpoint(&dir, &plan).unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_truncated_mid_footer_is_torn() {
        let layout = DataLayout::uniform(2, &[("x", 512)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("torn-midfoot");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        // Cut the file inside its commit footer: data complete, commit
        // proof half-written — exactly what a crash mid-commit leaves.
        let victim = dir.join(&plan.plan_files[0].name);
        let hdr = read_header(&victim).unwrap();
        let full = std::fs::metadata(&victim).unwrap().len();
        let logical = hdr.expected_file_size();
        assert!(full > logical + 1, "need a footer to cut");
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        f.set_len(logical + (full - logical) / 2).unwrap();
        drop(f);
        let err = read_checkpoint(&dir, &plan).unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );
        let err = read_checkpoint_auto(&dir, "ck").unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_skips_entries_that_vanish_mid_scan() {
        let layout = DataLayout::uniform(2, &[("x", 64)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("scan-vanish");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        // A dangling symlink is what a concurrently-GC'd entry looks like
        // at open time: it lists, but opening it yields NotFound.
        std::os::unix::fs::symlink(dir.join("no-such-file"), dir.join("ck-gone.rbio")).unwrap();
        let files = scan_checkpoint_dir(&dir, "ck").expect("scan tolerates vanished entry");
        assert_eq!(files.len(), plan.plan_files.len());
        let restored = read_checkpoint_auto(&dir, "ck").expect("restore unaffected");
        assert_eq!(restored.nranks, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
