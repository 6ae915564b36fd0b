//! Restore sessions count exactly once, however they are consumed.
//!
//! A single test in its own binary: nothing else in this process touches
//! the process-wide service counters, so their deltas are exact.

use std::path::PathBuf;

use rbio::service::{CheckpointService, ServiceConfig, TenantSpec};
use rbio_profile::counters;

fn tmpdir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("rbio-restore-acct-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn each_restore_session_counts_once_as_completed_or_failed() {
    const N: u64 = 5;
    let dir = tmpdir();
    let svc = CheckpointService::new(ServiceConfig::new(&dir).quantum(1024));
    let t = TenantSpec::new(7);
    let data: Vec<u8> = (0..10_000u32).map(|i| (i * 31) as u8).collect();
    for name in ["a.ckpt", "b.ckpt"] {
        let mut s = svc.checkpoint(t, name).expect("admit checkpoint");
        s.write(&data).expect("write");
        s.commit().expect("commit");
    }

    let before = counters::service_snapshot();
    // N restores consumed with `read()` loops to EOF.
    for _ in 0..N {
        let mut r = svc.restore(t, "a.ckpt").expect("admit restore");
        let mut buf = vec![0u8; 4096];
        let mut got = Vec::new();
        loop {
            let n = r.read(&mut buf).expect("read");
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, data);
    }
    // One session dropped before EOF.
    {
        let mut r = svc.restore(t, "a.ckpt").expect("admit restore");
        let mut buf = vec![0u8; 100];
        assert_eq!(r.read(&mut buf).expect("first chunk"), 100);
    }
    // One session whose read fails: the file shrinks under it.
    {
        let mut r = svc.restore(t, "b.ckpt").expect("admit restore");
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("tenant-7").join("b.ckpt"))
            .expect("open for truncation")
            .set_len(10)
            .expect("truncate");
        assert!(
            r.read_all().is_err(),
            "read past the shrunken file must fail"
        );
    }

    let d = counters::service_snapshot().delta_since(&before);
    assert_eq!(d.completed, N, "read()-loop restores counted completed");
    assert_eq!(d.failed, 2, "early drop and failed read counted failed");
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}
