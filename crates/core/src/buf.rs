//! Zero-copy buffer layer for the checkpoint datapath.
//!
//! The paper's rbIO handoff is cheap because a worker's package is
//! allocated once and every later stage — channel, writer aggregation,
//! flush — works on the *same* bytes. [`Bytes`] provides that ownership
//! model at library scale: a refcounted, immutable byte slice with cheap
//! `clone` and `slice` (both O(1), no data movement), backed either by a
//! caller-supplied `Vec<u8>` or by a buffer leased from a [`BufPool`].
//! Pool-backed storage returns to the pool when the last `Bytes` referring
//! to it drops, so steady-state checkpointing recycles a fixed set of
//! staging buffers instead of hammering the allocator.
//!
//! Ownership and lifetime rules (see DESIGN.md §9):
//!
//! * the bytes behind a `Bytes` are immutable for its entire lifetime —
//!   every copy-avoidance decision in the executors leans on this;
//! * a pooled buffer is returned to its pool exactly when the last
//!   `Bytes`/slice over it drops; the pool only ever hands it out again
//!   after that point, so no live reader can observe reuse;
//! * copies are *counted*: every helper that actually moves bytes calls
//!   [`rbio_profile::counters::add_bytes_copied`], making "copies per
//!   checkpoint byte" a measurable quantity rather than a code-review
//!   claim.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use rbio_profile::counters;

/// Backing storage of one or more `Bytes` slices.
struct Inner {
    data: Vec<u8>,
    /// The pool to return `data` to on final drop, when pool-backed.
    pool: Option<Weak<PoolShared>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.as_ref().and_then(Weak::upgrade) {
            pool.put(std::mem::take(&mut self.data));
        }
    }
}

/// A cheaply cloneable, immutable, refcounted byte slice.
///
/// `clone` and [`Bytes::slice`] are O(1) and never touch the data. The
/// underlying storage is freed (or returned to its [`BufPool`]) when the
/// last slice over it drops.
#[derive(Clone)]
pub struct Bytes {
    inner: Arc<Inner>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty slice (no allocation).
    pub fn new() -> Bytes {
        static EMPTY: OnceLock<Bytes> = OnceLock::new();
        EMPTY.get_or_init(|| Bytes::from_vec(Vec::new())).clone()
    }

    /// Take ownership of `v` without copying.
    pub fn from_vec(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            inner: Arc::new(Inner {
                data: v,
                pool: None,
            }),
            off: 0,
            len,
        }
    }

    /// Copy `src` into a buffer leased from the global pool. This is a
    /// real data movement and is accounted as copied bytes.
    pub fn copy_from_slice(src: &[u8]) -> Bytes {
        BufPool::global().copy_from_slice(src)
    }

    /// Slice length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) subslice sharing the same storage.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice [{start}..{end}) out of bounds of {}",
            self.len
        );
        Bytes {
            inner: Arc::clone(&self.inner),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Recover a `Vec<u8>`: zero-copy when this is the only slice over a
    /// non-pooled, full-range storage; otherwise a counted copy. (Pooled
    /// storage is never surrendered — the Vec must not escape the pool's
    /// recycling.)
    pub fn into_vec(self) -> Vec<u8> {
        let whole = self.off == 0 && self.len == self.inner.data.len();
        if whole && self.inner.pool.is_none() {
            match Arc::try_unwrap(self.inner) {
                Ok(mut inner) => return std::mem::take(&mut inner.data),
                Err(inner) => {
                    // Another slice is alive: copy out.
                    counters::add_bytes_copied(inner.data.len() as u64);
                    return inner.data.clone();
                }
            }
        }
        counters::add_bytes_copied(self.len as u64);
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner.data[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes[{} bytes", self.len)?;
        if self.inner.pool.is_some() {
            write!(f, ", pooled")?;
        }
        write!(f, "]")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

/// Retain at most this many free buffers per pool.
const MAX_POOLED_BUFS: usize = 64;
/// Never recycle a buffer larger than this (one-off giants go back to the
/// allocator instead of pinning memory).
const MAX_POOLED_CAP: usize = 16 << 20;

struct PoolShared {
    free: Mutex<Vec<Vec<u8>>>,
}

impl PoolShared {
    fn put(&self, mut v: Vec<u8>) {
        if v.capacity() == 0 || v.capacity() > MAX_POOLED_CAP {
            return;
        }
        let mut g = self.free.lock().expect("buffer pool lock");
        if crate::sched::controlled() && Self::contains_ptr(&g, v.as_ptr()) {
            // The same allocation is being recycled twice: some live
            // `Bytes` still references a buffer the pool may hand out
            // again (use-after-recycle). Report it to the checker
            // rather than corrupting the free list.
            crate::sched::emit(|| crate::sched::Event::BufDoubleRecycle {
                addr: v.as_ptr() as usize,
            });
            return;
        }
        if g.len() < MAX_POOLED_BUFS {
            v.clear();
            g.push(v);
        }
    }

    /// True if a buffer with base pointer `p` already sits in the free
    /// list (the double-recycle predicate; split out for unit testing).
    fn contains_ptr(free: &[Vec<u8>], p: *const u8) -> bool {
        free.iter().any(|b| std::ptr::eq(b.as_ptr(), p))
    }
}

/// A recycling pool of byte buffers backing [`Bytes`] allocations on the
/// writer staging/aggregation path.
pub struct BufPool {
    shared: Arc<PoolShared>,
}

impl BufPool {
    /// A fresh, private pool (tests; the executors use [`BufPool::global`]).
    pub fn new() -> BufPool {
        BufPool {
            shared: Arc::new(PoolShared {
                free: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The process-wide pool shared by both executors.
    pub fn global() -> &'static BufPool {
        static POOL: OnceLock<BufPool> = OnceLock::new();
        POOL.get_or_init(BufPool::new)
    }

    /// Number of free buffers currently held (test observability).
    pub fn free_buffers(&self) -> usize {
        self.shared.free.lock().expect("buffer pool lock").len()
    }

    fn lease(&self, min_capacity: usize) -> Vec<u8> {
        let mut v = {
            let mut g = self.shared.free.lock().expect("buffer pool lock");
            // Prefer a buffer that already fits to avoid regrowing.
            match g.iter().position(|b| b.capacity() >= min_capacity) {
                Some(i) => g.swap_remove(i),
                None => g.pop().unwrap_or_default(),
            }
        };
        v.clear();
        v.reserve(min_capacity);
        v
    }

    fn seal(&self, v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            inner: Arc::new(Inner {
                data: v,
                pool: Some(Arc::downgrade(&self.shared)),
            }),
            off: 0,
            len,
        }
    }

    /// Copy `src` into a pooled buffer (counted as copied bytes).
    pub fn copy_from_slice(&self, src: &[u8]) -> Bytes {
        counters::add_bytes_copied(src.len() as u64);
        let mut v = self.lease(src.len());
        v.extend_from_slice(src);
        self.seal(v)
    }

    /// Fill a pooled buffer of `len` bytes with `f(index)` — used for
    /// synthetic plan data, where the bytes are generated, not copied.
    pub fn from_fn(&self, len: usize, f: impl Fn(usize) -> u8) -> Bytes {
        let mut v = self.lease(len);
        v.extend((0..len).map(f));
        self.seal(v)
    }
}

impl Default for BufPool {
    fn default() -> BufPool {
        BufPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_is_zero_copy_round_trip() {
        let before = counters::snapshot();
        let v: Vec<u8> = (0..200u8).collect();
        let ptr = v.as_ptr();
        let b = Bytes::from_vec(v);
        assert_eq!(b.len(), 200);
        assert_eq!(&b[..5], &[0, 1, 2, 3, 4]);
        let back = b.into_vec();
        assert_eq!(back.as_ptr(), ptr, "unique full-range into_vec moves");
        // No counted copies happened on this thread's path. (Other tests
        // may run concurrently, so only check our own allocation moved.)
        let _ = before;
    }

    #[test]
    fn slices_share_storage_and_compare() {
        let b = Bytes::from_vec((0..100u8).collect());
        let s = b.slice(10..20);
        assert_eq!(s.len(), 10);
        assert_eq!(&s[..], &(10..20u8).collect::<Vec<_>>()[..]);
        let s2 = s.slice(2..=4);
        assert_eq!(&s2[..], &[12, 13, 14]);
        assert_eq!(s.slice(..), s);
        let c = s.clone();
        assert_eq!(c, s);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from_vec(vec![0; 4]);
        let _ = b.slice(2..8);
    }

    #[test]
    fn pooled_buffers_recycle_on_last_drop() {
        let pool = BufPool::new();
        let b = pool.copy_from_slice(&[7u8; 128]);
        let s = b.slice(5..100);
        assert_eq!(pool.free_buffers(), 0, "still referenced");
        drop(b);
        assert_eq!(pool.free_buffers(), 0, "slice still referenced");
        drop(s);
        assert_eq!(pool.free_buffers(), 1, "returned on final drop");
        // The next lease reuses the buffer.
        let c = pool.copy_from_slice(&[1u8; 64]);
        assert_eq!(pool.free_buffers(), 0);
        assert_eq!(&c[..3], &[1, 1, 1]);
    }

    #[test]
    fn copy_from_slice_is_counted() {
        let before = counters::snapshot();
        let pool = BufPool::new();
        let _b = pool.copy_from_slice(&[0u8; 4096]);
        let d = counters::snapshot().delta_since(&before);
        assert!(d.bytes_copied >= 4096, "copies must be accounted");
    }

    #[test]
    fn from_fn_generates_without_copy_accounting() {
        let pool = BufPool::new();
        let b = pool.from_fn(16, |i| (i * 3) as u8);
        assert_eq!(b[5], 15);
        assert_eq!(b.len(), 16);
    }

    #[test]
    fn into_vec_copies_when_shared_or_pooled() {
        let pool = BufPool::new();
        let b = pool.copy_from_slice(&[9u8; 32]);
        let v = b.clone().into_vec(); // shared + pooled: must copy
        assert_eq!(v, vec![9u8; 32]);
        drop(b);
        assert_eq!(pool.free_buffers(), 1, "pooled storage stays pooled");
    }

    #[test]
    fn empty_bytes() {
        let e = Bytes::new();
        assert!(e.is_empty());
        assert_eq!(e.slice(0..0).len(), 0);
        assert_eq!(Bytes::default(), e);
    }

    #[test]
    fn double_recycle_predicate_spots_aliased_buffer() {
        let pool = BufPool::new();
        let b = pool.copy_from_slice(&[3u8; 64]);
        let ptr = b.as_ref().as_ptr();
        drop(b); // storage returns to the free list
        let g = pool.shared.free.lock().expect("buffer pool lock");
        assert!(
            PoolShared::contains_ptr(&g, ptr),
            "recycled buffer must be found by pointer identity"
        );
        assert!(!PoolShared::contains_ptr(&g, [0u8; 1].as_ptr()));
    }
}
