//! Object-safe lock facade.
//!
//! The database engines and the measurement harness pick lock
//! implementations at runtime ("run Kyoto Cabinet under TAS, MCS,
//! SHFL-PB10, LibASL-70, ..."). [`PlainLock`] is the object-safe
//! interface they use: acquisition returns an opaque two-word
//! [`PlainToken`] that encodes whatever the concrete lock's token was
//! (queue-node pointers for MCS/CLH, nothing for simple locks).
//!
//! Any [`RawLock`] whose token is two-word encodable (see
//! [`TokenWords`]) is a `PlainLock` automatically through a blanket
//! impl — individual locks only implement [`RawLock`]. That includes
//! wrappers over an *already erased* lock: [`crate::api::DynLock`] is
//! a `RawLock` whose token is the `PlainToken` itself, so
//! `Gcr<DynLock>` or `Instrumented<DynLock>` re-erase through the same
//! blanket impl (the pass-through rule on [`TokenWords`]).
//!
//! `acquire`/`release` is the **low-level escape hatch**: the caller
//! must pair them manually. Prefer the RAII layer in [`crate::api`]
//! ([`crate::api::DynLock`], [`crate::api::DynMutex`]) which releases
//! on drop. In debug builds every token is tagged with the address of
//! the issuing lock, and releasing it against a different lock panics
//! — catching the cross-lock bugs the manual API allows.
//!
//! [`PlainRwLock`] is a `PlainLock` with a shared side, erasing
//! [`RawRwLock`] the same way: its exclusive acquisitions are the
//! `PlainLock` methods, its shared ones hand out a three-word
//! [`PlainRwToken`]. An rwlock at an exclusive call site is its
//! `Arc<dyn PlainRwLock>` upcast to `Arc<dyn PlainLock>`; an exclusive
//! lock at a reader-writer call site is an [`ExclusiveRw`].

use std::sync::Arc;

use crate::{RawLock, RawRwLock};

/// Issuer tag of a token rebuilt from bare payload words
/// ([`TokenWords::from_words`] on an erased token): no lock lives at
/// address 0, and [`PlainToken::redeem`] lets such a token through
/// unchecked rather than blaming the wrong lock.
#[cfg(debug_assertions)]
const UNTAGGED: usize = 0;

/// Opaque token for [`PlainLock`]: two words of implementation state.
///
/// In debug builds the token additionally records which lock issued
/// it, and [`PlainLock::release`] implementations that decode through
/// [`PlainToken::redeem`] assert the token is returned to that lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlainToken {
    a: usize,
    b: usize,
    /// Address of the issuing lock — debug-build ownership check.
    #[cfg(debug_assertions)]
    issuer: usize,
}

impl PlainToken {
    /// Token issued by `lock` carrying two words of payload.
    #[inline]
    pub fn issue<L>(lock: &L, a: usize, b: usize) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = lock;
        PlainToken {
            a,
            b,
            #[cfg(debug_assertions)]
            issuer: lock as *const L as usize,
        }
    }

    /// Decode the payload, asserting (in debug builds) that `lock` is
    /// the lock that issued this token.
    #[inline]
    pub fn redeem<L>(self, lock: &L) -> (usize, usize) {
        #[cfg(debug_assertions)]
        assert!(
            self.issuer == lock as *const L as usize || self.issuer == UNTAGGED,
            "PlainToken released against a lock that did not issue it"
        );
        #[cfg(not(debug_assertions))]
        let _ = lock;
        (self.a, self.b)
    }
}

/// Tokens encodable in two machine words, so queue locks can ride
/// behind the object-safe [`PlainLock`] facade without allocating.
///
/// `into_words`/`from_words` are the payload codec a token type
/// implements; `erase`/`restore` are what the facade's blanket impls
/// call, and what carries **the pass-through rule**: a token that is
/// already erased ([`PlainToken`], [`PlainRwToken`]) crosses a further
/// erasure boundary *whole*, issuer tag included. A wrapper that hands
/// its inner lock's token through unchanged (`Gcr<L>`,
/// `Instrumented<L>`) can therefore wrap a [`crate::api::DynLock`] and
/// be erased again: the token its callers hold is still the innermost
/// lock's, and that lock's own `redeem` still catches a cross-lock
/// release in debug builds.
pub trait TokenWords: Sized {
    /// Encode into two words.
    fn into_words(self) -> (usize, usize);

    /// Rebuild from words produced by [`TokenWords::into_words`].
    ///
    /// # Safety
    /// The words must come from `into_words` on an unreleased token of
    /// the same lock, on the same thread.
    unsafe fn from_words(a: usize, b: usize) -> Self;

    /// The token `lock` hands out through the facade.
    #[inline]
    fn erase<L>(self, lock: &L) -> PlainToken {
        let (a, b) = self.into_words();
        PlainToken::issue(lock, a, b)
    }

    /// Undo [`TokenWords::erase`], asserting (in debug builds) that
    /// `lock` issued `token`.
    ///
    /// # Safety
    /// `token` must come from `erase` on an unreleased token of
    /// `lock`, on the same thread.
    #[inline]
    unsafe fn restore<L>(token: PlainToken, lock: &L) -> Self {
        let (a, b) = token.redeem(lock);
        Self::from_words(a, b)
    }
}

impl TokenWords for () {
    #[inline]
    fn into_words(self) -> (usize, usize) {
        (0, 0)
    }
    #[inline]
    unsafe fn from_words(_a: usize, _b: usize) -> Self {}
}

/// The pass-through rule for exclusive tokens (see [`TokenWords`]).
impl TokenWords for PlainToken {
    #[inline]
    fn into_words(self) -> (usize, usize) {
        (self.a, self.b)
    }
    #[inline]
    unsafe fn from_words(a: usize, b: usize) -> Self {
        PlainToken {
            a,
            b,
            #[cfg(debug_assertions)]
            issuer: UNTAGGED,
        }
    }
    #[inline]
    fn erase<L>(self, _lock: &L) -> PlainToken {
        self
    }
    #[inline]
    unsafe fn restore<L>(token: PlainToken, _lock: &L) -> Self {
        token
    }
}

/// An object-safe lock: dynamic counterpart of [`RawLock`].
pub trait PlainLock: Send + Sync {
    /// Acquire, blocking until granted.
    fn acquire(&self) -> PlainToken;
    /// Try to acquire without waiting.
    fn try_acquire(&self) -> Option<PlainToken>;
    /// Release a token from `acquire`/`try_acquire` on this lock.
    fn release(&self, token: PlainToken);
    /// Heuristic held/queued check.
    fn held(&self) -> bool;
    /// Implementation name for reports.
    fn lock_name(&self) -> &'static str;
}

/// Every statically dispatched lock with a word-encodable token is
/// usable through the dynamic facade.
impl<L: RawLock> PlainLock for L
where
    L::Token: TokenWords,
{
    #[inline]
    fn acquire(&self) -> PlainToken {
        RawLock::lock(self).erase(self)
    }
    #[inline]
    fn try_acquire(&self) -> Option<PlainToken> {
        RawLock::try_lock(self).map(|t| t.erase(self))
    }
    #[inline]
    fn release(&self, token: PlainToken) {
        // SAFETY: the PlainLock contract (checked in debug builds by
        // `redeem`) guarantees the token comes from an unreleased
        // `acquire`/`try_acquire` on this lock by this thread.
        RawLock::unlock(self, unsafe { L::Token::restore(token, self) });
    }
    #[inline]
    fn held(&self) -> bool {
        RawLock::is_locked(self)
    }
    fn lock_name(&self) -> &'static str {
        L::NAME
    }
}

/// Opaque token for a shared acquisition through [`PlainRwLock`]:
/// three words of implementation state (read tokens need one more word
/// than exclusive ones — e.g. [`crate::bravo::BravoReadToken`] carries
/// a fast/slow discriminant next to the underlying lock's two words).
/// An exclusive acquisition of an rwlock is a [`PlainToken`], like any
/// lock's.
///
/// In debug builds the token additionally records the issuing lock, so
/// releasing against the wrong lock panics instead of corrupting lock
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlainRwToken {
    a: usize,
    b: usize,
    c: usize,
    /// Address of the issuing lock — debug-build ownership check.
    #[cfg(debug_assertions)]
    issuer: usize,
}

impl PlainRwToken {
    /// Shared-mode token issued by `lock` carrying three words.
    #[inline]
    pub fn issue_read<L>(lock: &L, a: usize, b: usize, c: usize) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = lock;
        PlainRwToken {
            a,
            b,
            c,
            #[cfg(debug_assertions)]
            issuer: lock as *const L as usize,
        }
    }

    /// Decode a shared-mode token, asserting (in debug builds) that
    /// `lock` issued it.
    #[inline]
    pub fn redeem_read<L>(self, lock: &L) -> (usize, usize, usize) {
        #[cfg(debug_assertions)]
        assert!(
            self.issuer == lock as *const L as usize || self.issuer == UNTAGGED,
            "PlainRwToken released against a lock that did not issue it"
        );
        #[cfg(not(debug_assertions))]
        let _ = lock;
        (self.a, self.b, self.c)
    }

    /// An exclusive acquisition standing for a shared one: the two
    /// payload words and the issuer tag travel unchanged, so whoever
    /// turns the token back with [`PlainRwToken::into_exclusive`] still
    /// gets the issuing lock's ownership check.
    #[inline]
    fn from_exclusive(token: PlainToken) -> Self {
        PlainRwToken {
            a: token.a,
            b: token.b,
            c: 0,
            #[cfg(debug_assertions)]
            issuer: token.issuer,
        }
    }

    /// Undo [`PlainRwToken::from_exclusive`].
    #[inline]
    fn into_exclusive(self) -> PlainToken {
        debug_assert_eq!(self.c, 0, "exclusive tokens carry two words");
        PlainToken {
            a: self.a,
            b: self.b,
            #[cfg(debug_assertions)]
            issuer: self.issuer,
        }
    }
}

/// Read tokens encodable in three machine words — the shared-side
/// analogue of [`TokenWords`], pass-through rule included (an rwlock's
/// exclusive token is its `Token`, encoded by [`TokenWords`] itself).
pub trait RwTokenWords: Sized {
    /// Encode into three words.
    fn into_words(self) -> (usize, usize, usize);

    /// Rebuild from words produced by [`RwTokenWords::into_words`].
    ///
    /// # Safety
    /// The words must come from `into_words` on an unreleased token of
    /// the same lock, on the same thread.
    unsafe fn from_words(a: usize, b: usize, c: usize) -> Self;

    /// The shared-mode token `lock` hands out through the facade.
    #[inline]
    fn erase_read<L>(self, lock: &L) -> PlainRwToken {
        let (a, b, c) = self.into_words();
        PlainRwToken::issue_read(lock, a, b, c)
    }

    /// Undo [`RwTokenWords::erase_read`], asserting (in debug builds)
    /// that `lock` issued `token`.
    ///
    /// # Safety
    /// `token` must come from `erase_read` on an unreleased shared
    /// acquisition of `lock`, on the same thread.
    #[inline]
    unsafe fn restore_read<L>(token: PlainRwToken, lock: &L) -> Self {
        let (a, b, c) = token.redeem_read(lock);
        Self::from_words(a, b, c)
    }
}

impl RwTokenWords for () {
    #[inline]
    fn into_words(self) -> (usize, usize, usize) {
        (0, 0, 0)
    }
    #[inline]
    unsafe fn from_words(_a: usize, _b: usize, _c: usize) -> Self {}
}

/// The pass-through rule for an erased *shared* token.
impl RwTokenWords for PlainRwToken {
    #[inline]
    fn into_words(self) -> (usize, usize, usize) {
        (self.a, self.b, self.c)
    }
    #[inline]
    unsafe fn from_words(a: usize, b: usize, c: usize) -> Self {
        PlainRwToken {
            c,
            ..Self::from_exclusive(PlainToken::from_words(a, b))
        }
    }
    #[inline]
    fn erase_read<L>(self, _lock: &L) -> PlainRwToken {
        self
    }
    #[inline]
    unsafe fn restore_read<L>(token: PlainRwToken, _lock: &L) -> Self {
        token
    }
}

/// An object-safe reader-writer lock: a [`PlainLock`] with a shared
/// side, the dynamic counterpart of [`RawRwLock`] as [`PlainLock`] is
/// of [`RawLock`].
///
/// The exclusive side is the [`PlainLock`] methods and their
/// [`PlainToken`], so an `Arc<dyn PlainRwLock>` serves an exclusive
/// call site as its upcast `Arc<dyn PlainLock>`. A shared acquisition
/// hands out a [`PlainRwToken`], and releasing it through the
/// exclusive path does not compile:
///
/// ```compile_fail,E0308
/// use asl_locks::plain::{PlainLock, PlainRwLock};
/// let lock = asl_locks::RwTicketLock::new();
/// let token = lock.acquire_read();
/// lock.release(token); // must not compile: a shared token is not an exclusive one
/// ```
pub trait PlainRwLock: PlainLock {
    /// Acquire shared, blocking until granted.
    fn acquire_read(&self) -> PlainRwToken;
    /// Try to acquire shared without waiting.
    fn try_acquire_read(&self) -> Option<PlainRwToken>;
    /// Release a token from `acquire_read`/`try_acquire_read`.
    fn release_read(&self, token: PlainRwToken);
    /// Heuristic writer-present check.
    fn write_held(&self) -> bool;
}

/// Every statically dispatched rwlock with word-encodable tokens is
/// usable through the dynamic facade.
impl<L: RawRwLock> PlainRwLock for L
where
    L::Token: TokenWords,
    L::ReadToken: RwTokenWords,
{
    #[inline]
    fn acquire_read(&self) -> PlainRwToken {
        RawRwLock::read(self).erase_read(self)
    }
    #[inline]
    fn try_acquire_read(&self) -> Option<PlainRwToken> {
        RawRwLock::try_read(self).map(|t| t.erase_read(self))
    }
    #[inline]
    fn release_read(&self, token: PlainRwToken) {
        // SAFETY: the PlainRwLock contract (checked in debug builds by
        // `redeem_read`) guarantees the token comes from an unreleased
        // shared acquisition of this lock by this thread.
        RawRwLock::unlock_read(self, unsafe { L::ReadToken::restore_read(token, self) });
    }
    #[inline]
    fn write_held(&self) -> bool {
        RawRwLock::is_write_locked(self)
    }
}

/// An exclusive lock viewed through the reader-writer interface:
/// `acquire_read` degenerates to an exclusive acquisition.
///
/// This is the compatibility bridge that lets read-path call sites
/// (the database engines' `Op::Read` handlers) always take shared
/// guards: under an exclusive `LockSpec` the shared guard costs
/// exactly what the old exclusive guard did, and under an rwlock spec
/// readers genuinely overlap.
pub struct ExclusiveRw {
    inner: Arc<dyn PlainLock>,
}

impl ExclusiveRw {
    /// View `inner` as a (degenerate) rwlock.
    pub fn new(inner: Arc<dyn PlainLock>) -> Self {
        ExclusiveRw { inner }
    }
}

impl PlainLock for ExclusiveRw {
    fn acquire(&self) -> PlainToken {
        self.inner.acquire()
    }
    fn try_acquire(&self) -> Option<PlainToken> {
        self.inner.try_acquire()
    }
    fn release(&self, token: PlainToken) {
        self.inner.release(token);
    }
    fn held(&self) -> bool {
        self.inner.held()
    }
    fn lock_name(&self) -> &'static str {
        self.inner.lock_name()
    }
}

// Ownership stays checked through the shared side: the underlying
// lock's own `redeem` validates the issuer tag the conversions
// preserve.
impl PlainRwLock for ExclusiveRw {
    fn acquire_read(&self) -> PlainRwToken {
        PlainRwToken::from_exclusive(self.inner.acquire())
    }
    fn try_acquire_read(&self) -> Option<PlainRwToken> {
        self.inner.try_acquire().map(PlainRwToken::from_exclusive)
    }
    fn release_read(&self, token: PlainRwToken) {
        self.inner.release(token.into_exclusive());
    }
    fn write_held(&self) -> bool {
        self.inner.held()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::{ClassLocalPolicy, FifoPolicy};
    use crate::{
        BackoffLock, ClhLock, CnaLock, CohortLock, MalthusianLock, McsLock, McsStpLock,
        ProportionalLock, PthreadMutex, ShuffleLock, TasLock, TicketLock,
    };
    use std::sync::Arc;

    fn exercise(lock: Arc<dyn PlainLock>) {
        assert!(!lock.held());
        let t = lock.acquire();
        assert!(lock.held());
        assert!(lock.try_acquire().is_none());
        lock.release(t);
        assert!(!lock.held());
        let t = lock.try_acquire().expect("free");
        lock.release(t);

        // Contended use through the dyn interface.
        let mut handles = vec![];
        for _ in 0..4 {
            let l = lock.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5_000 {
                    let t = l.acquire();
                    l.release(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(!lock.held());
    }

    #[test]
    fn all_zoo_locks_work_via_dyn() {
        exercise(Arc::new(TasLock::new()));
        exercise(Arc::new(TicketLock::new()));
        exercise(Arc::new(BackoffLock::new()));
        exercise(Arc::new(McsLock::new()));
        exercise(Arc::new(ClhLock::new()));
        exercise(Arc::new(ProportionalLock::new(10)));
        exercise(Arc::new(PthreadMutex::new()));
        exercise(Arc::new(McsStpLock::new()));
        exercise(Arc::new(CnaLock::new()));
        exercise(Arc::new(CohortLock::new()));
        exercise(Arc::new(MalthusianLock::new()));
        exercise(Arc::new(ShuffleLock::new(FifoPolicy)));
        exercise(Arc::new(ShuffleLock::new(ClassLocalPolicy::new(16))));
    }

    #[test]
    fn names_are_distinct() {
        let locks: Vec<Arc<dyn PlainLock>> = vec![
            Arc::new(TasLock::new()),
            Arc::new(TicketLock::new()),
            Arc::new(BackoffLock::new()),
            Arc::new(McsLock::new()),
            Arc::new(ClhLock::new()),
            Arc::new(ProportionalLock::new(10)),
            Arc::new(PthreadMutex::new()),
            Arc::new(McsStpLock::new()),
        ];
        let mut names: Vec<_> = locks.iter().map(|l| l.lock_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), locks.len());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "did not issue")]
    fn cross_lock_release_is_caught_in_debug_builds() {
        let a = McsLock::new();
        let b = McsLock::new();
        let t = a.acquire();
        b.release(t); // ownership check fires before any queue damage
    }
}
