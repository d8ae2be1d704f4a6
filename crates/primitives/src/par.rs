//! Data-parallel loops over one process-wide pool of parked workers.
//!
//! Every parallel phase of the validators (EV, value/midstate, SV, Merkle
//! levels, snapshot-parallel IBD intervals) runs through [`map`] or
//! [`try_map`]. Their contract:
//!
//! * **Persistent pool.** The first call starts `nproc − 1` worker threads
//!   that park between operations; no operation spawns a thread.
//! * **Chunked claiming.** An operation over `len` indices is cut into
//!   contiguous chunks that participants claim from one atomic counter, so
//!   an uneven item costs only its own chunk, not a static share.
//! * **Caller participation.** The calling thread claims chunks too, and
//!   keeps claiming until none are left. An operation therefore finishes
//!   even when every pool worker is busy elsewhere: a pool worker that
//!   calls back into this module (nested use), and several threads calling
//!   at once, cannot deadlock — at worst the caller runs the whole
//!   operation alone.
//! * **Fan-out cap.** `fan_out` bounds the threads in one operation, the
//!   caller included; it is clamped to `[1, `[`fan_out(None)`]`]`. A
//!   fan-out of 1 is a plain sequential loop on the caller.
//! * **Index order.** Results come back in index order.
//! * **Lowest-index errors.** [`try_map`] returns the error of the
//!   *lowest* failing index — exactly the error a sequential loop in index
//!   order stops at, whatever the fan-out or scheduling. The validators'
//!   parallel/sequential equivalence (the minimum-`(tx, input)` error
//!   report) rests on this. Indices above a known failure may be skipped.
//! * **Panics.** A panic in the closure, on any thread, is re-raised on the
//!   caller once every participant has left the operation; the pool stays
//!   usable.

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Chunks cut per participating thread: enough to even out uneven items,
/// few enough that claiming stays negligible next to the per-item work.
const CHUNKS_PER_THREAD: usize = 4;

/// The most threads an operation may use: `cap` clamped to the pool size
/// plus the caller. `None` (or `Some(0)`) means no cap.
pub fn fan_out(cap: Option<usize>) -> usize {
    let max = pool().workers + 1;
    match cap {
        Some(n) if n > 0 => n.min(max),
        _ => max,
    }
}

/// `f(i)` for every `i < len`, in index order, on up to `fan_out` threads.
pub fn map<R, F>(len: usize, fan_out: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    match try_map(len, fan_out, |i| Ok::<R, std::convert::Infallible>(f(i))) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// `f(i)` for every `i < len`, in index order, on up to `fan_out` threads;
/// or the error of the lowest failing index.
pub fn try_map<R, E, F>(len: usize, fan_out: usize, f: F) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(usize) -> Result<R, E> + Sync,
{
    let threads = fan_out.clamp(1, pool().workers + 1).min(len);
    if threads <= 1 {
        return (0..len).map(f).collect();
    }
    // Lowest failing index seen so far; chunks that start above it cannot
    // hold the answer and are skipped. Every index below the final minimum
    // is evaluated, so the minimum is exact.
    let first_err = AtomicUsize::new(usize::MAX);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    let failed: Mutex<Option<(usize, E)>> = Mutex::new(None);
    run_chunks(len, threads, |range| {
        if range.start > first_err.load(Ordering::Relaxed) {
            return;
        }
        let start = range.start;
        let mut out = Vec::with_capacity(range.len());
        for i in range {
            match f(i) {
                Ok(r) => out.push(r),
                Err(e) => {
                    first_err.fetch_min(i, Ordering::Relaxed);
                    let mut slot = lock(&failed);
                    if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                        *slot = Some((i, e));
                    }
                    return;
                }
            }
        }
        lock(&done).push((start, out));
    });
    if let Some((_, e)) = into_inner(failed) {
        return Err(e);
    }
    let mut chunks = into_inner(done);
    chunks.sort_unstable_by_key(|&(start, _)| start);
    Ok(chunks.into_iter().flat_map(|(_, out)| out).collect())
}

/// Cut `0..len` into chunks and run `chunk` on each, claimed by the caller
/// and up to `threads − 1` pool workers.
fn run_chunks(len: usize, threads: usize, chunk: impl Fn(Range<usize>) + Sync) {
    let grain = len.div_ceil(threads * CHUNKS_PER_THREAD).max(1);
    let count = len.div_ceil(grain);
    let next = AtomicUsize::new(0);
    // Claims publish nothing (results travel through mutexes), so the
    // counter needs no ordering beyond its own atomicity.
    let claim = || loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= count {
            return;
        }
        chunk(c * grain..((c + 1) * grain).min(len));
    };
    pool().run(threads.min(count) - 1, &claim);
}

/// A panic payload carried from a worker back to the caller.
type Panic = Box<dyn Any + Send>;

/// The body every participant of one operation runs.
type Body<'a> = dyn Fn() + Sync + 'a;

/// One posted operation. The queue holds one clone per helper slot still on
/// offer; a worker that pops a clone joins the operation.
struct Job {
    /// The operation's body, living on the posting caller's stack, with its
    /// lifetime erased. Only dereferenced by a worker counted in `active`.
    body: *const Body<'static>,
    /// Workers currently running `body`.
    active: Mutex<usize>,
    /// Signalled when `active` drops to zero.
    idle: Condvar,
    /// First panic raised by a worker inside `body`.
    panic: Mutex<Option<Panic>>,
}

// SAFETY: `body` points to a `dyn Fn() + Sync`, so calling it from several
// threads at once through a shared reference is allowed; `Pool::run` keeps
// the pointee alive until no worker can reach it (see there). `active`,
// `idle` and `panic` are `Sync` standard types, and the panic payload is
// `Send`.
unsafe impl Send for Job {}
// SAFETY: as above — every field is safe to share once `body` is valid.
unsafe impl Sync for Job {}

struct Pool {
    /// Worker threads (the caller of an operation is not counted).
    workers: usize,
    queue: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
            - 1;
        for i in 0..workers {
            // Workers live as long as the process and never unwind (bodies
            // run under `catch_unwind`), so their handles are not joined.
            // Each blocks in `pool()` until this initializer returns.
            std::thread::Builder::new()
                .name(format!("par-{i}"))
                .spawn(|| pool().work())
                .expect("spawn par pool worker");
        }
        Pool {
            workers,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
        }
    })
}

impl Pool {
    /// Run `body` on the caller and on up to `helpers` idle workers;
    /// return once every participant has finished, re-raising the first
    /// panic any of them hit.
    fn run(&self, helpers: usize, body: &Body<'_>) {
        if helpers == 0 {
            body();
            return;
        }
        // SAFETY: only the lifetime changes. The pointer is dereferenced
        // by workers counted in `job.active`; below, the clones left in the
        // queue are withdrawn and this function waits for `active` to reach
        // zero before returning or unwinding, so `body` outlives every use.
        let erased = unsafe { std::mem::transmute::<&Body<'_>, *const Body<'static>>(body) };
        let job = Arc::new(Job {
            body: erased,
            active: Mutex::new(0),
            idle: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut queue = lock(&self.queue);
            queue.extend((0..helpers).map(|_| Arc::clone(&job)));
        }
        for _ in 0..helpers {
            self.wake.notify_one();
        }
        let own = panic::catch_unwind(AssertUnwindSafe(body));
        // Withdraw unclaimed slots. Workers join only while holding the
        // queue lock, so after this no new participant can appear.
        lock(&self.queue).retain(|queued| !Arc::ptr_eq(queued, &job));
        let mut active = lock(&job.active);
        while *active > 0 {
            active = job.idle.wait(active).expect("par job lock");
        }
        drop(active);
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        let worker_panic = lock(&job.panic).take();
        if let Some(payload) = worker_panic {
            panic::resume_unwind(payload);
        }
    }

    /// Worker loop: park until a job is queued, join it, repeat.
    fn work(&self) {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(job) = queue.pop_front() {
                        *lock(&job.active) += 1;
                        break job;
                    }
                    queue = self.wake.wait(queue).expect("par queue lock");
                }
            };
            // SAFETY: this worker was counted in `job.active` while the
            // job was still queued, and `Pool::run` keeps `body` alive
            // until `active` returns to zero.
            let body = unsafe { &*job.body };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(body)) {
                lock(&job.panic).get_or_insert(payload);
            }
            let mut active = lock(&job.active);
            *active -= 1;
            if *active == 0 {
                job.idle.notify_all();
            }
        }
    }
}

/// Lock a mutex of this module. No user code runs while one is held, so
/// none can be poisoned.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("par lock held across no user code")
}

fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().expect("par lock held across no user code")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn map_preserves_index_order() {
        for fan in [1, 2, 4, 8] {
            let out = map(1000, fan, |i| i * 2);
            assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_map_reports_lowest_failing_index() {
        for fan in [1, 2, 4, 8] {
            for len in [1, 2, 7, 64, 1000] {
                // Failures at every index ≡ 3 mod 5 from 3 on, and at the
                // last index: the lowest is 3 whenever it exists.
                let r = try_map(len, fan, |i| {
                    if i % 5 == 3 || i == len - 1 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                });
                let expected = if len > 3 { 3 } else { len - 1 };
                assert_eq!(r, Err(expected), "fan {fan} len {len}");
            }
            let ok: Result<Vec<usize>, ()> = try_map(100, fan, Ok);
            assert_eq!(ok, Ok((0..100).collect()));
        }
    }

    #[test]
    fn empty_input() {
        assert!(map(0, 4, |i| i).is_empty());
        assert_eq!(try_map(0, 4, |_| Err::<(), ()>(())), Ok(Vec::new()));
    }

    #[test]
    fn nested_calls_complete() {
        let out = map(8, 4, |i| {
            map(50, 4, move |j| i * j).into_iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..8).map(|i| i * (0..50).sum::<usize>()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn concurrent_callers_complete() {
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|k| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        (0..20)
                            .map(|_| map(200, 4, |i| i + k).into_iter().sum::<usize>())
                            .sum::<usize>()
                    })
                })
                .collect();
            for (k, h) in handles.into_iter().enumerate() {
                let per_call = (0..200).map(|i| i + k).sum::<usize>();
                assert_eq!(h.join().expect("caller thread"), 20 * per_call);
            }
        });
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        for fan in [1, 2, 4] {
            let caught = panic::catch_unwind(|| {
                map(64, fan, |i| {
                    assert!(i != 40, "item 40 fails");
                    i
                })
            });
            let payload = caught.expect_err("panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            assert_eq!(message, Some("item 40 fails"));
            assert_eq!(map(64, fan, |i| i).len(), 64);
        }
    }

    #[test]
    fn fan_out_caps_to_pool() {
        let max = fan_out(None);
        assert!(max >= 1);
        assert_eq!(fan_out(Some(0)), max);
        assert_eq!(fan_out(Some(1)), 1);
        assert_eq!(fan_out(Some(usize::MAX)), max);
    }
}
