//! The service family of the layer ladder: `CheckpointService` with its
//! default configuration under mixed load.
//!
//! Client A is a throughput tenant streaming one bulk session; client B
//! is a latency-sensitive tenant restoring one checkpoint. Both start
//! together on their own threads. Each session is an operation; its
//! public calls (open, each write or read, commit) are its child spans.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use rbio::service::{CheckpointService, QosClass, ServiceConfig, TenantSpec};

use crate::bench::Tally;
use crate::input::{self, Fields};
use crate::trace::Tracer;

/// Size of one `CheckpointSession::write` call.
const WRITE_BYTES: usize = 1 << 20;
/// Size of client B's checkpoint.
const RESTORE_BYTES: usize = 8 << 20;
/// Input stream of client B's checkpoint (field streams use rank << 16).
const RESTORE_STREAM: u64 = u64::MAX;
const RESTORE_NAME: &str = "restore.ckpt";

fn bulk() -> TenantSpec {
    TenantSpec::new(1)
}

fn latency() -> TenantSpec {
    TenantSpec::new(2).qos(QosClass::LatencySensitive)
}

/// A service with its default configuration and client B's checkpoint
/// in place.
pub struct Mixed {
    svc: CheckpointService,
    restore_data: Vec<u8>,
}

impl Mixed {
    pub fn new(seed: u64, dir: &Path) -> Result<Mixed, String> {
        let svc = CheckpointService::new(ServiceConfig::new(dir));
        let restore_data = input::bytes(seed, RESTORE_STREAM, RESTORE_BYTES);
        let mut s = svc
            .checkpoint(latency(), RESTORE_NAME)
            .map_err(|e| e.to_string())?;
        for chunk in restore_data.chunks(WRITE_BYTES) {
            s.write(chunk).map_err(|e| e.to_string())?;
        }
        s.commit().map_err(|e| e.to_string())?;
        Ok(Mixed { svc, restore_data })
    }

    /// One round: client A's bulk session on its own thread, client B's
    /// restore on this one, started together.
    pub fn probe_round(&self, fields: &Fields, tr: &mut Tracer, tally: &mut Tally) {
        let rec = Mutex::new(std::mem::replace(tr, Tracer::new(false)));
        let a = std::thread::scope(|s| {
            let a = s.spawn(|| {
                let mut t = Tally::default();
                self.bulk_session(fields, &rec, &mut t);
                t
            });
            self.restore_session(&rec, tally);
            a.join().expect("bulk client")
        });
        tally.merge(a);
        *tr = rec.into_inner().expect("recorder");
    }

    /// Client A: open, write every field in `WRITE_BYTES` calls, commit.
    fn bulk_session(&self, fields: &Fields, tr: &Mutex<Tracer>, tally: &mut Tally) {
        let mut spans = Vec::new();
        let t0 = Instant::now();
        let mut expect = 0u64;
        let res = (|| {
            let t = Instant::now();
            let mut s = self.svc.checkpoint(bulk(), "bulk.ckpt")?;
            spans.push(("service.admit", t, Instant::now()));
            for r in 0..fields.nranks() {
                for f in 0..fields.nfields() {
                    for chunk in fields.field(r, f).chunks(WRITE_BYTES) {
                        let t = Instant::now();
                        s.write(chunk)?;
                        spans.push(("service.write", t, Instant::now()));
                        expect += chunk.len() as u64;
                    }
                }
            }
            let t = Instant::now();
            let n = s.commit()?;
            spans.push(("service.commit", t, Instant::now()));
            Ok::<u64, rbio::service::ServiceError>(n)
        })();
        let t1 = Instant::now();
        match res {
            Ok(n) if n == expect => {
                tally.ckpt_ok(t1 - t0, n);
                record_op(tr, "service.checkpoint", t0, t1, spans);
            }
            Ok(n) => tally.error("bulk session", &format!("committed {n} of {expect} bytes")),
            Err(e) => tally.error("bulk session", &e),
        }
    }

    /// Client B: open, read the checkpoint back through the chunked
    /// `read` calls `read_all` makes, compare it byte for byte.
    fn restore_session(&self, tr: &Mutex<Tracer>, tally: &mut Tally) {
        let mut spans = Vec::new();
        let t0 = Instant::now();
        let res = (|| {
            let t = Instant::now();
            let mut s = self.svc.restore(latency(), RESTORE_NAME)?;
            spans.push(("service.admit", t, Instant::now()));
            let mut out = vec![0u8; s.len() as usize];
            let mut done = 0;
            while done < out.len() {
                let t = Instant::now();
                done += s.read(&mut out[done..])?;
                spans.push(("service.read_chunk", t, Instant::now()));
            }
            Ok::<Vec<u8>, rbio::service::ServiceError>(out)
        })();
        let t1 = Instant::now();
        match res {
            Ok(data) => {
                tally.restore_ok(t1 - t0, input::count_diff(&self.restore_data, &data));
                record_op(tr, "service.restore", t0, t1, spans);
            }
            Err(e) => tally.error("restore session", &e),
        }
    }
}

type Spans = Vec<(&'static str, Instant, Instant)>;

/// Record one session as a top-level span with its calls as children.
fn record_op(tr: &Mutex<Tracer>, name: &'static str, t0: Instant, t1: Instant, spans: Spans) {
    let mut tr = tr.lock().expect("recorder");
    let top = tr.record(name, None, t0, t1);
    for (name, s, e) in spans {
        tr.record(name, Some(top), s, e);
    }
}
