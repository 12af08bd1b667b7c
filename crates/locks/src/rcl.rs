//! RCL-style client/server lock: critical sections execute on a
//! *dedicated server thread* (Lozi et al., "Remote Core Locking").
//!
//! [`RclLock`] is the publication-slot engine of
//! [`delegation`](crate::delegation) with the *server* executor and
//! no usage policy ([`SlotLock`]`<.., true, false>`, which is where
//! its methods are documented): each client owns one cache-padded
//! publication slot and only ever waits on it; the server loop polls
//! the claimed slots and executes whatever is pending. Unlike a
//! combiner lock, the executor never changes: the protected state lives permanently
//! in one thread's cache, which on an asymmetric multicore means the
//! lock's throughput is pinned to whichever core the server is bound
//! to — bind it to a big core and slow cores stop throttling everyone
//! (the paper's §5 framing of delegation as the alternative to
//! SLO-aware reordering).
//!
//! The server is caller-bindable: [`SlotLock::serve`] blocks the
//! calling thread (pin it wherever you like first), while
//! [`SlotLock::start`] spawns an unpinned `std::thread` and returns an
//! [`RclServer`] guard whose drop stops and joins it.

use crate::delegation::SlotLock;

/// RCL-style server lock over a value `T`: the [`SlotLock`] whose
/// executor is a dedicated server, with no usage policy. See the
/// [module docs](self) for the execution model.
pub type RclLock<T, Op, Out, F> = SlotLock<T, Op, Out, F, true, false>;

impl<T, Op, Out, F, const BAN: bool> SlotLock<T, Op, Out, F, true, BAN>
where
    T: Send + 'static,
    Op: Send + 'static,
    Out: Send + 'static,
    F: Fn(&mut T, Op) -> Out + Send + Sync + 'static,
{
    /// Spawn a dedicated (unpinned) server thread; the returned guard
    /// stops and joins it on drop. Pinning-sensitive callers should
    /// spawn their own thread, pin it, and call [`SlotLock::serve`].
    pub fn start(&self) -> RclServer {
        let lock = self.clone();
        let stopper = self.clone();
        let join = std::thread::Builder::new()
            .name("rcl-server".into())
            .spawn(move || lock.serve())
            .expect("spawn rcl server");
        RclServer {
            stop: Box::new(move || stopper.shutdown()),
            join: Some(join),
        }
    }
}

/// Lifecycle guard for a server spawned by [`SlotLock::start`]: drop
/// (or [`RclServer::stop`]) asks the server to drain, then joins it.
pub struct RclServer {
    stop: Box<dyn Fn() + Send + Sync>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl RclServer {
    /// Stop and join the server thread now (idempotent: only the call
    /// that finds the thread unjoined sends the shutdown request).
    pub fn stop(&mut self) {
        if let Some(join) = self.join.take() {
            (self.stop)();
            let _ = join.join();
        }
    }
}

impl Drop for RclServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delegation::{SlotsExhausted, MAX_SLOTS};

    #[test]
    fn server_executes_client_ops() {
        let lock = RclLock::new(0u64, |v, add: u64| {
            *v += add;
            *v
        });
        let server = lock.start();
        let h = lock.register();
        assert_eq!(h.apply(5), 5);
        assert_eq!(h.apply(7), 12);
        drop(server);
        assert!(!lock.server_active());
    }

    #[test]
    fn concurrent_clients_total() {
        let lock = RclLock::new(0u64, |v, add: u64| {
            *v += add;
            *v
        });
        let server = lock.start();
        let mut threads = vec![];
        for _ in 0..8 {
            let h = lock.register();
            threads.push(std::thread::spawn(move || {
                for _ in 0..20_000 {
                    h.apply(1);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let h = lock.register();
        assert_eq!(h.apply(0), 160_000);
        drop(server);
    }

    #[test]
    fn caller_bound_serve_and_reuse() {
        let lock = RclLock::new(0u32, |v, _: ()| {
            *v += 1;
            *v
        });
        for round in 1..=2u32 {
            let server_lock = lock.clone();
            let t = std::thread::spawn(move || server_lock.serve());
            let h = lock.register();
            assert_eq!(h.apply(()), round);
            lock.shutdown();
            t.join().unwrap();
        }
    }

    #[test]
    fn shutdown_drains_pending() {
        let lock = RclLock::new(0u64, |v, add: u64| {
            *v += add;
            *v
        });
        let h = lock.register();
        let mut server = lock.start();
        assert_eq!(h.apply(3), 3);
        server.stop();
        assert!(!lock.server_active());
    }

    #[test]
    fn shutdown_ahead_of_the_server_is_not_lost() {
        // `start()` followed at once by the guard's drop can request
        // the shutdown before the server thread has entered `serve`;
        // the request must end that server, not be cleared by it.
        let lock = RclLock::new(0u64, |v, add: u64| {
            *v += add;
            *v
        });
        let h = lock.register();
        lock.shutdown();
        lock.serve(); // returns after one drain pass instead of polling forever
        assert!(!lock.server_active());
        // The request was consumed: the lock serves again.
        let server = lock.start();
        assert_eq!(h.apply(2), 2);
        drop(server);
    }

    #[test]
    fn slot_exhaustion_is_a_clean_error() {
        let lock = RclLock::new((), |_, _: ()| ());
        let clients: Vec<_> = (0..MAX_SLOTS).map(|_| lock.register()).collect();
        assert_eq!(
            lock.try_register().err(),
            Some(SlotsExhausted { limit: MAX_SLOTS })
        );
        drop(clients);
    }
}
