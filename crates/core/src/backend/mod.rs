//! The write seam of the flush pipeline.
//!
//! Every write job a [`crate::pipeline::FlushPool`] runs goes through an
//! [`IoBackend`]. The one implementation, [`ThreadedBackend`], issues one
//! blocking, fault-checked, retried `pwrite`/`pwritev` per job. The
//! paper's strategies win by aggregation and by taking writes off the
//! compute ranks' critical path, not by how a writer submits its
//! syscalls, and a measured completion-queue backend never beat this
//! path on the real-executor benchmark (DESIGN.md §14). The trait stays
//! so [`crate::crash::RecordingBackend`] can decorate the writer's
//! durability edges.

use std::fs::File;
use std::io;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use rbio_plan::Rank;

use crate::buf::Bytes;
use crate::fault::{self, FaultPlan, WriteError};

/// Immutable per-writer execution context a backend runs under.
pub struct IoCtx<'a> {
    /// The writer's rank (fault-plan key).
    pub rank: Rank,
    /// Fault-injection plan consulted before every logical write.
    pub faults: &'a FaultPlan,
    /// Retry budget per logical write.
    pub write_retries: u32,
    /// Initial retry backoff (doubles per attempt).
    pub retry_backoff: Duration,
}

/// Writer I/O for the flush pool. Implementations must be shareable
/// across pool threads (`Send + Sync`).
pub trait IoBackend: Send + Sync {
    /// Write `bufs` back to back at `offset` as one logical write (one
    /// fault-plan write; the executors only submit several buffers when
    /// no faults are armed). Returns the retried attempts.
    fn write(
        &self,
        ctx: &IoCtx<'_>,
        file: &File,
        offset: u64,
        bufs: &[Bytes],
    ) -> Result<u32, WriteError>;

    /// Flush `file`'s data and metadata (close/commit durability).
    fn sync_file(&self, file: &File) -> io::Result<()> {
        file.sync_all()
    }
}

/// One blocking, fault-checked, retried positional write per job.
pub struct ThreadedBackend;

impl IoBackend for ThreadedBackend {
    fn write(
        &self,
        ctx: &IoCtx<'_>,
        file: &File,
        offset: u64,
        bufs: &[Bytes],
    ) -> Result<u32, WriteError> {
        if let [data] = bufs {
            fault::write_at_with_retry(
                file,
                ctx.rank,
                offset,
                data,
                ctx.faults,
                ctx.write_retries,
                ctx.retry_backoff,
            )
        } else {
            let slices: Vec<&[u8]> = bufs.iter().map(|b| b.as_ref()).collect();
            fault::write_vectored_at(
                file,
                ctx.rank,
                offset,
                &slices,
                ctx.faults,
                ctx.write_retries,
                ctx.retry_backoff,
            )
        }
    }
}

/// The shared [`ThreadedBackend`] instance.
pub fn threaded() -> Arc<dyn IoBackend> {
    static THREADED: OnceLock<Arc<dyn IoBackend>> = OnceLock::new();
    Arc::clone(THREADED.get_or_init(|| Arc::new(ThreadedBackend)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::fs::FileExt;

    fn tmpfile(name: &str) -> (std::path::PathBuf, File) {
        let dir = std::env::temp_dir().join(format!("rbio-backend-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(dir.join("f"))
            .expect("open");
        (dir, f)
    }

    fn ctx(faults: &FaultPlan) -> IoCtx<'_> {
        IoCtx {
            rank: 0,
            faults,
            write_retries: 3,
            retry_backoff: Duration::from_micros(50),
        }
    }

    #[test]
    fn threaded_writes_single_and_vectored_ops() {
        let (dir, f) = tmpfile("threaded");
        let faults = FaultPlan::none();
        let b = ThreadedBackend;
        b.write(&ctx(&faults), &f, 0, &[Bytes::from_vec(vec![1; 4])])
            .expect("pwrite");
        b.write(
            &ctx(&faults),
            &f,
            4,
            &[Bytes::from_vec(vec![2; 2]), Bytes::from_vec(vec![3; 2])],
        )
        .expect("pwritev");
        let mut got = [0u8; 8];
        f.read_exact_at(&mut got, 0).expect("read");
        assert_eq!(got, [1, 1, 1, 1, 2, 2, 3, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threaded_kill_stops_at_the_byte_budget() {
        let (dir, f) = tmpfile("kill");
        let faults = FaultPlan::none().kill_writer_after_bytes(0, 4);
        let b = ThreadedBackend;
        b.write(&ctx(&faults), &f, 0, &[Bytes::from_vec(vec![7; 4])])
            .expect("within budget");
        match b.write(&ctx(&faults), &f, 4, &[Bytes::from_vec(vec![8; 4])]) {
            Err(WriteError::Killed) => {}
            other => panic!("expected a kill, got {other:?}"),
        }
        assert_eq!(f.metadata().expect("meta").len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
