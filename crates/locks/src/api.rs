//! Guard-based unified lock API.
//!
//! The token interfaces ([`RawLock`], [`PlainLock`]) stay available as
//! the low-level escape hatch, but application code should hold
//! acquisitions as RAII values from this module instead of threading
//! tokens by hand — forgetting a `release` (silent deadlock) or
//! releasing against the wrong lock (queue-node corruption) becomes
//! impossible by construction.
//!
//! There is one guard per acquisition mode, whoever hands it out:
//!
//! * [`Guard`] — an exclusive acquisition, released on drop.
//!   `Guard::new(&lock)` takes any borrowed [`RawLock`], a
//!   [`RawRwLock`] included (its exclusive side is its `RawLock`
//!   side); the data-carrying [`Mutex`] (`Mutex<T, L: RawLock>`, MCS
//!   by default) hands out the same `Guard` from `lock` and
//!   `try_lock`, with a reference to the data in the guard's defaulted
//!   third type parameter, so that guard derefs to the data
//!   ([`MutexGuard`] names it).
//! * [`ReadGuard`] — a shared acquisition of a [`RawRwLock`], handed
//!   out the same way by `ReadGuard::new` and, over an rwlock, by
//!   [`Mutex::read`]. Shared guards overlap; exclusive guards exclude
//!   everyone.
//!
//! There is one container: a `Mutex` over a reader-writer lock is the
//! reader-writer container (`lock` writes, `read` reads).
//!
//! A lock chosen at runtime is one more lock type, not a second
//! family: [`DynLock`] (an owned `Arc<dyn PlainLock>`) is itself a
//! [`RawLock`], and [`DynRwLock`] — the same handle over an
//! `Arc<dyn PlainRwLock>` — a [`RawRwLock`], so their guards are
//! `Guard<'_, DynLock>` and so on, and [`DynMutex<T>`](DynMutex) is
//! `Mutex<T, DynLock>` (the building block of the database engines'
//! guarded slots).
//!
//! ```
//! use asl_locks::api::{DynLock, Guard, Mutex};
//! use asl_locks::{McsLock, TasLock};
//!
//! // Statically dispatched: pick the lock type as a type parameter.
//! let counter: Mutex<u64, McsLock> = Mutex::new(0);
//! *counter.lock() += 1;
//! assert_eq!(*counter.lock(), 1);
//!
//! // A bare lock hands out the same guard, without data.
//! let bare = McsLock::new();
//! drop(Guard::new(&bare));
//!
//! // Dynamically dispatched: pick the lock at runtime.
//! let lock = DynLock::of(TasLock::new());
//! {
//!     let _held = lock.lock();
//!     assert!(lock.is_locked());
//! } // released on drop — even on panic
//! assert!(!lock.is_locked());
//! ```

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Marker making guards `!Send`: a lock must be released by the
/// thread that acquired it (queue-node tokens are thread-local), so
/// no guard may migrate to another thread. Guards stay `Sync` where
/// what they expose is — sharing `&Guard` is harmless.
type NotSend = PhantomData<*const ()>;

use crate::mcs::McsLock;
use crate::plain::{PlainLock, PlainRwLock, PlainRwToken, PlainToken};
use crate::{RawLock, RawRwLock};

/// RAII exclusive acquisition of a borrowed [`RawLock`]: the token is
/// captured at acquisition and passed back to `unlock` on drop. A
/// [`Mutex`]'s guard carries a reference to the data in `D` and derefs
/// to it; a bare lock's carries `()`.
///
/// Guards are `!Send` — locks must be released by the acquiring
/// thread (queue-node tokens are thread-local):
///
/// ```compile_fail,E0277
/// fn assert_send<T: Send>(_: T) {}
/// let lock = asl_locks::McsLock::new();
/// let guard = asl_locks::api::Guard::new(&lock);
/// assert_send(guard); // must not compile: guards can't cross threads
/// ```
#[must_use = "a dropped guard releases the lock immediately"]
pub struct Guard<'a, L: RawLock, D = ()> {
    lock: &'a L,
    token: Option<L::Token>,
    data: D,
    _not_send: NotSend,
}

/// The guard [`Mutex::lock`] returns: a [`Guard`] that derefs to the
/// data.
pub type MutexGuard<'a, T, L> = Guard<'a, L, &'a UnsafeCell<T>>;

// SAFETY: a shared &Guard only exposes &L (Sync) and, for a container's
// guard, &T; the token is not reachable by reference. The !Send marker
// is what must not be lost.
unsafe impl<L: RawLock> Sync for Guard<'_, L> where L::Token: Sync {}
unsafe impl<L: RawLock, T: Sync> Sync for Guard<'_, L, &UnsafeCell<T>> where L::Token: Sync {}

impl<'a, L: RawLock> Guard<'a, L> {
    /// Acquire `lock`, blocking until granted.
    #[inline]
    pub fn new(lock: &'a L) -> Self {
        Guard::acquire(lock, ())
    }

    /// Try to acquire `lock` without waiting.
    #[inline]
    #[must_use = "dropping the returned guard releases the lock again"]
    pub fn try_new(lock: &'a L) -> Option<Self> {
        Guard::try_acquire(lock, ())
    }
}

impl<'a, L: RawLock, D> Guard<'a, L, D> {
    #[inline]
    fn acquire(lock: &'a L, data: D) -> Self {
        Guard {
            token: Some(lock.lock()),
            lock,
            data,
            _not_send: PhantomData,
        }
    }

    #[inline]
    fn try_acquire(lock: &'a L, data: D) -> Option<Self> {
        lock.try_lock().map(|token| Guard {
            lock,
            token: Some(token),
            data,
            _not_send: PhantomData,
        })
    }

    /// Release now (equivalent to `drop`; reads better at call sites).
    #[inline]
    pub fn unlock(self) {}
}

impl<'a, L: RawLock, D: Copy> Guard<'a, L, D> {
    /// Release the lock, run `f`, and acquire the same lock again
    /// (what a condition variable's `wait` does around its park). If
    /// `f` unwinds, no guard is left.
    pub fn unlocked(self, f: impl FnOnce()) -> Self {
        let (lock, data) = (self.lock, self.data);
        drop(self);
        f();
        Guard::acquire(lock, data)
    }
}

impl<L: RawLock, D> Drop for Guard<'_, L, D> {
    #[inline]
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            self.lock.unlock(token);
        }
    }
}

impl<L: RawLock, T> Deref for Guard<'_, L, &UnsafeCell<T>> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: only `Mutex` builds a guard with data,
        // from its own lock and cell, so guard existence proves
        // exclusive acquisition of the lock that serializes this cell.
        unsafe { &*self.data.get() }
    }
}

impl<L: RawLock, T> DerefMut for Guard<'_, L, &UnsafeCell<T>> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for `deref`.
        unsafe { &mut *self.data.get() }
    }
}

/// A mutual-exclusion container generic over its lock implementation.
///
/// Shaped like `std::sync::Mutex` but without poisoning (lock
/// protocols here are panic-agnostic, like `parking_lot`): a panic
/// inside the critical section releases the lock on unwind and the
/// next `lock` succeeds normally.
///
/// `lock` returns the same [`Guard`] a bare lock hands out. It is
/// `!Send`:
///
/// ```compile_fail,E0277
/// fn assert_send<T: Send>(_: T) {}
/// let m: asl_locks::api::Mutex<u64, asl_locks::McsLock> = asl_locks::api::Mutex::new(0);
/// assert_send(m.lock()); // must not compile: guards can't cross threads
/// ```
///
/// and `Sync` only when the data is (`Cell` is `Send`, so the mutex
/// itself is `Sync`; its guard hands out `&Cell`):
///
/// ```compile_fail,E0277
/// use std::cell::Cell;
/// fn assert_sync<T: Sync>(_: &T) {}
/// let m: asl_locks::api::Mutex<Cell<u32>, asl_locks::McsLock> =
///     asl_locks::api::Mutex::new(Cell::new(0));
/// assert_sync(&m.lock()); // must not compile: &guard would share &Cell
/// ```
///
/// Over a reader-writer lock ([`RawRwLock`]) the same container is the
/// reader-writer one, shaped like `std::sync::RwLock`: `lock` is the
/// exclusive side and [`read`](Mutex::read) the shared one.
///
/// ```
/// use asl_locks::api::Mutex;
/// use asl_locks::RwTicketLock;
///
/// let cache: Mutex<Vec<u32>, RwTicketLock> = Mutex::new(vec![1, 2]);
/// cache.lock().push(3);               // exclusive
/// let r1 = cache.read();              // shared...
/// let r2 = cache.read();              // ...with overlap
/// assert_eq!(r1.len() + r2.len(), 6);
/// ```
pub struct Mutex<T, L: RawLock = McsLock> {
    lock: L,
    data: UnsafeCell<T>,
}

// SAFETY: standard mutex reasoning — the lock serializes access.
unsafe impl<T: Send, L: RawLock> Send for Mutex<T, L> {}
unsafe impl<T: Send, L: RawLock> Sync for Mutex<T, L> {}

impl<T, L: RawLock + Default> Mutex<T, L> {
    /// New mutex over a default-constructed lock.
    pub fn new(value: T) -> Self {
        Mutex {
            lock: L::default(),
            data: UnsafeCell::new(value),
        }
    }
}

impl<T, L: RawLock> Mutex<T, L> {
    /// New mutex over a caller-supplied lock instance.
    pub fn with_lock(value: T, lock: L) -> Self {
        Mutex {
            lock,
            data: UnsafeCell::new(value),
        }
    }

    /// Acquire, returning an RAII guard that derefs to the data.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T, L> {
        Guard::acquire(&self.lock, &self.data)
    }

    /// Try to acquire without waiting.
    #[inline]
    #[must_use = "dropping the returned guard releases the lock again"]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T, L>> {
        Guard::try_acquire(&self.lock, &self.data)
    }

    /// Whether the lock is currently held or queued.
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.lock.is_locked()
    }

    /// The underlying lock (statistics, configuration).
    pub fn raw(&self) -> &L {
        &self.lock
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

/// The shared side, over a reader-writer lock.
impl<T: Sync, L: RawRwLock> Mutex<T, L> {
    /// Acquire shared, returning a guard that derefs to the data.
    ///
    /// Readers hold `&T` at once from many threads, so `read` is
    /// offered only over data that may be shared (`T: Sync`) — the
    /// container itself is `Sync` for any `T: Send`:
    ///
    /// ```compile_fail,E0599
    /// use std::cell::Cell;
    /// let m: asl_locks::api::Mutex<Cell<u32>, asl_locks::RwTicketLock> =
    ///     asl_locks::api::Mutex::new(Cell::new(0));
    /// let _r = m.read(); // must not compile: two readers would share &Cell
    /// ```
    ///
    /// The read guard is `!Send` like every guard:
    ///
    /// ```compile_fail,E0277
    /// fn assert_send<T: Send>(_: T) {}
    /// let m: asl_locks::api::Mutex<u64, asl_locks::RwTicketLock> =
    ///     asl_locks::api::Mutex::new(0);
    /// assert_send(m.read()); // must not compile: guards can't cross threads
    /// ```
    #[inline]
    pub fn read(&self) -> ReadGuard<'_, L, &UnsafeCell<T>> {
        ReadGuard::acquire(&self.lock, &self.data)
    }

    /// Try to acquire shared without waiting.
    #[inline]
    #[must_use = "dropping the returned guard releases the lock again"]
    pub fn try_read(&self) -> Option<ReadGuard<'_, L, &UnsafeCell<T>>> {
        ReadGuard::try_acquire(&self.lock, &self.data)
    }
}

impl<T: Default, L: RawLock + Default> Default for Mutex<T, L> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: fmt::Debug, L: RawLock> fmt::Debug for Mutex<T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Mutex");
        s.field("lock", &L::NAME);
        match self.try_lock() {
            Some(g) => s.field("data", &&*g),
            None => s.field("data", &format_args!("<locked>")),
        };
        s.finish()
    }
}

/// An owned, runtime-chosen lock with RAII acquisition.
///
/// Wraps an `Arc<P>` — an `Arc<dyn PlainLock>` by default, an
/// `Arc<dyn PlainRwLock>` as [`DynRwLock`] — so call sites that pick
/// their lock implementation at runtime (the database engines, the
/// harness) get the same drop-safety as the static [`Guard`]. Cloning
/// shares the same underlying lock.
pub struct DynLock<P: ?Sized + PlainLock = dyn PlainLock> {
    inner: Arc<P>,
}

impl<P: ?Sized + PlainLock> DynLock<P> {
    /// Wrap an existing shared lock object.
    pub fn new(inner: Arc<P>) -> Self {
        DynLock { inner }
    }

    /// Acquire, blocking until granted; released when the guard drops.
    #[inline]
    pub fn lock(&self) -> Guard<'_, Self> {
        Guard::new(self)
    }

    /// Try to acquire without waiting.
    #[inline]
    #[must_use = "dropping the returned guard releases the lock again"]
    pub fn try_lock(&self) -> Option<Guard<'_, Self>> {
        Guard::try_new(self)
    }

    /// Heuristic held/queued check (either mode).
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.inner.held()
    }

    /// Implementation name for reports.
    pub fn name(&self) -> &'static str {
        self.inner.lock_name()
    }
}

impl DynLock {
    /// Wrap a concrete lock value. (Only the exclusive handle has it:
    /// a second `of` would leave `DynLock::of(..)` ambiguous.)
    pub fn of<L: PlainLock + 'static>(lock: L) -> Self {
        DynLock {
            inner: Arc::new(lock),
        }
    }
}

// Written out: a derive would demand `P: Clone`.
impl<P: ?Sized + PlainLock> Clone for DynLock<P> {
    fn clone(&self) -> Self {
        DynLock {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// The erased handle is a lock like any other: its token is the
/// [`PlainToken`] the object behind it issued, handed through
/// untouched. Every layer written once over [`RawLock`] — [`Guard`],
/// [`Mutex`], [`crate::Gcr`], [`crate::telemetry::Instrumented`] —
/// therefore also covers runtime-chosen locks, and a wrapper over a
/// `DynLock` is itself a [`PlainLock`] again
/// ([`crate::plain::TokenWords`], the pass-through rule).
impl<P: ?Sized + PlainLock> RawLock for DynLock<P> {
    type Token = PlainToken;

    #[inline]
    fn lock(&self) -> PlainToken {
        self.inner.acquire()
    }

    #[inline]
    fn try_lock(&self) -> Option<PlainToken> {
        self.inner.try_acquire()
    }

    #[inline]
    fn unlock(&self, token: PlainToken) {
        self.inner.release(token);
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.inner.held()
    }

    const NAME: &'static str = "dyn";
}

/// A mutual-exclusion container over a runtime-chosen lock: the lock
/// is an `Arc<dyn PlainLock>` picked at construction (typically from
/// a `LockSpec` registry name) and handed to [`Mutex::with_lock`].
pub type DynMutex<T> = Mutex<T, DynLock>;

impl<P: ?Sized + PlainLock> fmt::Debug for DynLock<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynLock")
            .field("name", &self.name())
            .field("held", &self.is_locked())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Reader-writer layer: the same guard discipline over RawRwLock.
// ---------------------------------------------------------------------------

/// RAII shared acquisition of a borrowed [`RawRwLock`]; released on
/// drop. Multiple `ReadGuard`s may be live at once; none while a
/// [`Guard`] on the same lock is. [`Mutex::read`]'s guard carries a
/// reference to the data in `D` and derefs to it.
///
/// `!Send` like every guard — release must happen on the acquiring
/// thread:
///
/// ```compile_fail,E0277
/// fn assert_send<T: Send>(_: T) {}
/// let lock = asl_locks::RwTicketLock::new();
/// let guard = asl_locks::api::ReadGuard::new(&lock);
/// assert_send(guard); // must not compile: guards can't cross threads
/// ```
#[must_use = "a dropped guard releases the shared lock immediately"]
pub struct ReadGuard<'a, L: RawRwLock, D = ()> {
    lock: &'a L,
    token: Option<L::ReadToken>,
    data: D,
    _not_send: NotSend,
}

// SAFETY: a shared &ReadGuard only exposes &L (Sync) and, for a
// container's guard, &T; only Send must stay suppressed.
unsafe impl<L: RawRwLock> Sync for ReadGuard<'_, L> where L::ReadToken: Sync {}
unsafe impl<L: RawRwLock, T: Sync> Sync for ReadGuard<'_, L, &UnsafeCell<T>> where L::ReadToken: Sync
{}

impl<'a, L: RawRwLock> ReadGuard<'a, L> {
    /// Acquire `lock` shared, blocking until granted.
    #[inline]
    pub fn new(lock: &'a L) -> Self {
        ReadGuard::acquire(lock, ())
    }

    /// Try to acquire `lock` shared without waiting.
    #[inline]
    #[must_use = "dropping the returned guard releases the lock again"]
    pub fn try_new(lock: &'a L) -> Option<Self> {
        ReadGuard::try_acquire(lock, ())
    }
}

impl<'a, L: RawRwLock, D> ReadGuard<'a, L, D> {
    #[inline]
    fn acquire(lock: &'a L, data: D) -> Self {
        ReadGuard {
            token: Some(lock.read()),
            lock,
            data,
            _not_send: PhantomData,
        }
    }

    #[inline]
    fn try_acquire(lock: &'a L, data: D) -> Option<Self> {
        lock.try_read().map(|token| ReadGuard {
            lock,
            token: Some(token),
            data,
            _not_send: PhantomData,
        })
    }

    /// Release now (equivalent to `drop`; reads better at call sites).
    #[inline]
    pub fn unlock(self) {}
}

impl<L: RawRwLock, D> Drop for ReadGuard<'_, L, D> {
    #[inline]
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            self.lock.unlock_read(token);
        }
    }
}

impl<L: RawRwLock, T> Deref for ReadGuard<'_, L, &UnsafeCell<T>> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: only `Mutex::read` builds a guard with data, from its
        // own lock and cell and only for `T: Sync`; a live read guard
        // proves no writer is active, so shared access is race-free.
        unsafe { &*self.data.get() }
    }
}

/// A runtime-chosen reader-writer lock: the erased handle over an
/// `Arc<dyn PlainRwLock>`. All it adds to [`DynLock`] is the shared
/// side — `read`/`try_read` and [`RawRwLock`]; its exclusive side is
/// `lock`/`try_lock`. Build one with `DynRwLock::new(Arc::new(lock))`.
/// Exclusive locks slot in through [`crate::plain::ExclusiveRw`]
/// (their "read" mode degenerates to an exclusive acquisition), which
/// is how call sites can take shared guards unconditionally and still
/// run under any registry lock.
pub type DynRwLock = DynLock<dyn PlainRwLock>;

impl DynRwLock {
    /// Acquire shared; released when the guard drops.
    #[inline]
    pub fn read(&self) -> ReadGuard<'_, DynRwLock> {
        ReadGuard::new(self)
    }

    /// Try to acquire shared without waiting.
    #[inline]
    #[must_use = "dropping the returned guard releases the lock again"]
    pub fn try_read(&self) -> Option<ReadGuard<'_, DynRwLock>> {
        ReadGuard::try_new(self)
    }
}

/// The erased rwlock handle's shared tokens are the [`PlainRwToken`]s
/// the object behind it issued (see [`DynLock`]).
impl RawRwLock for DynRwLock {
    type ReadToken = PlainRwToken;

    #[inline]
    fn read(&self) -> PlainRwToken {
        self.inner.acquire_read()
    }

    #[inline]
    fn try_read(&self) -> Option<PlainRwToken> {
        self.inner.try_acquire_read()
    }

    #[inline]
    fn unlock_read(&self, token: PlainRwToken) {
        self.inner.release_read(token);
    }

    #[inline]
    fn is_write_locked(&self) -> bool {
        self.inner.write_held()
    }
}

/// A reader-writer container over a runtime-chosen lock — a [`Mutex`]
/// whose lock is a [`DynRwLock`], and the building block of the
/// database engines' read-mostly guarded slots.
///
/// ```
/// use std::sync::Arc;
/// use asl_locks::api::{DynRwLock, DynRwMutex};
/// use asl_locks::RwTicketLock;
///
/// let index = DynRwMutex::with_lock(vec![10, 20], DynRwLock::new(Arc::new(RwTicketLock::new())));
/// index.lock().push(30);               // exclusive
/// {
///     let a = index.read();            // shared...
///     let b = index.read();            // ...concurrently
///     assert_eq!(a.len(), 3);
///     assert_eq!(b[2], 30);
/// }
/// assert!(!index.is_locked());
/// ```
pub type DynRwMutex<T> = Mutex<T, DynRwLock>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClhLock, RwTicketLock, TasLock, TicketLock};

    // A `Mutex<u64, _>`'s guard may be shared by reference (the
    // `compile_fail` doctests on `Mutex` and `Mutex::read` pin the
    // negative cases).
    const _: () = {
        fn assert_sync<T: Sync>() {}
        let _ = assert_sync::<MutexGuard<'static, u64, McsLock>>;
    };

    #[test]
    fn raw_guard_releases_on_drop() {
        let lock = McsLock::new();
        {
            let _g = Guard::new(&lock);
            assert!(lock.is_locked());
            assert!(Guard::try_new(&lock).is_none());
        }
        assert!(!lock.is_locked());
    }

    #[test]
    fn a_bare_guard_carries_no_data() {
        use std::mem::size_of;
        assert_eq!(
            size_of::<Guard<'_, McsLock>>(),
            size_of::<(&McsLock, Option<()>)>()
        );
        assert_eq!(
            size_of::<Guard<'_, DynLock>>(),
            size_of::<(&DynLock, Option<PlainToken>)>()
        );
    }

    #[test]
    fn unlocked_releases_and_reacquires() {
        let m: Mutex<u64, McsLock> = Mutex::new(1);
        let mut seen = 0;
        let mut g = m
            .lock()
            .unlocked(|| seen = *m.try_lock().expect("released inside") + 1);
        assert!(m.try_lock().is_none(), "held again afterwards");
        *g += seen;
        drop(g);
        assert_eq!(*m.lock(), 3);
    }

    #[test]
    fn static_mutex_over_several_substrates() {
        fn bump<L: RawLock + Default>() {
            let m: Mutex<u64, L> = Mutex::new(0);
            *m.lock() += 1;
            assert_eq!(*m.lock(), 1);
            assert_eq!(m.into_inner(), 1);
        }
        bump::<McsLock>();
        bump::<ClhLock>();
        bump::<TicketLock>();
        bump::<TasLock>();
    }

    #[test]
    fn dyn_mutex_guards_data() {
        let m = DynMutex::with_lock(vec![1, 2], DynLock::of(TicketLock::new()));
        m.lock().push(3);
        assert_eq!(&*m.lock(), &[1, 2, 3]);
        assert!(!m.is_locked());
        assert_eq!(m.raw().name(), "ticket");
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn dyn_lock_try_lock_contention() {
        let lock = DynLock::of(TasLock::new());
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        g.unlock();
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn rw_guards_share_reads_exclude_writes() {
        let lock = RwTicketLock::new();
        {
            let r1 = ReadGuard::new(&lock);
            let _r2 = ReadGuard::try_new(&lock).expect("reads overlap");
            assert!(Guard::try_new(&lock).is_none(), "reader blocks writer");
            r1.unlock();
        }
        {
            let _w = Guard::new(&lock);
            assert!(ReadGuard::try_new(&lock).is_none(), "writer blocks reader");
            assert!(Guard::try_new(&lock).is_none(), "writer blocks writer");
        }
        assert!(!lock.is_locked());
    }

    #[test]
    fn a_mutex_over_an_rwlock_reads_shared() {
        let l: Mutex<Vec<u32>, RwTicketLock> = Mutex::new(vec![1]);
        l.lock().push(2);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(&*a, &[1, 2]);
            assert_eq!(a.len(), b.len());
        }
        assert!(!l.is_locked());
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn dyn_rw_mutex_over_rw_and_exclusive_substrates() {
        use crate::plain::ExclusiveRw;

        // Native rwlock: reads genuinely overlap.
        let m = DynRwMutex::with_lock(7u64, DynRwLock::new(Arc::new(RwTicketLock::new())));
        {
            let a = m.read();
            let b = m.read();
            assert_eq!(*a + *b, 14);
        }
        *m.lock() += 1;
        assert_eq!(*m.read(), 8);
        assert_eq!(m.raw().name(), "rw-ticket");

        // Exclusive lock through the same interface: reads serialize
        // but the call sites do not change.
        let m = DynRwMutex::with_lock(
            7u64,
            DynRwLock::new(Arc::new(ExclusiveRw::new(Arc::new(McsLock::new())))),
        );
        {
            let a = m.read();
            assert!(m.try_read().is_none(), "exclusive substrate: no overlap");
            assert_eq!(*a, 7);
        }
        *m.lock() += 1;
        assert_eq!(*m.read(), 8);
        assert_eq!(m.raw().name(), "mcs");
    }

    #[test]
    fn dyn_rw_lock_guards_release_on_drop() {
        let lock = DynRwLock::new(Arc::new(RwTicketLock::new()));
        {
            let _r = lock.read();
            assert!(lock.is_locked());
            assert!(lock.try_lock().is_none());
        }
        {
            let _w = lock.lock();
            assert!(lock.try_read().is_none());
        }
        assert!(!lock.is_locked());
        assert!(lock.try_lock().is_some());
    }
}
