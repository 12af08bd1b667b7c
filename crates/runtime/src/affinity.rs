//! Best-effort physical CPU pinning, and the CPUs a process may use.
//!
//! On Linux pinning uses `sched_setaffinity(2)` directly; elsewhere it
//! is a no-op. Placement only steadies host-time numbers: virtual-core
//! identity ([`crate::registry`]) is what drives behaviour, not the
//! physical CPU a thread runs on.

/// Pin the calling thread to the given OS CPU. Returns `true` on
/// success, `false` when pinning is unsupported or fails (e.g. the
/// CPU does not exist inside a restricted cgroup).
pub fn pin_to_cpu(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        if cpu >= libc::CPU_SETSIZE as usize {
            return false;
        }
        unsafe {
            let mut set: libc::cpu_set_t = std::mem::zeroed();
            libc::CPU_ZERO(&mut set);
            libc::CPU_SET(cpu, &mut set);
            libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

/// Run `f` on a helper thread pinned to the `nth` CPU this process may
/// use (0 = first) and return its result. Threads that `f` spawns
/// inherit the pin; the caller's own affinity is untouched. With fewer
/// CPUs it pins to the last one there is, and where pinning is refused
/// `f` runs unpinned: placement only steadies host-time numbers, it
/// never changes a result. The simulator's engine runs itself this way
/// (`asl_sim::exec::run_threads`).
pub fn pinned<R: Send>(nth: usize, f: impl FnOnce() -> R + Send) -> R {
    // Process-wide decisions that are taken once, from the affinity
    // mask of whichever thread asks first, are taken here from the
    // caller's mask — not later from the helper's one-CPU mask.
    let _ = crate::relax::yields_every_poll();
    std::thread::scope(|s| {
        let helper = s.spawn(|| {
            // Walk the CPU ids, pinning to each that accepts, and stop
            // at the nth success.
            let _ = (0..64).filter(|&cpu| pin_to_cpu(cpu)).nth(nth);
            f()
        });
        match helper.join() {
            Ok(result) => result,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// Number of CPUs visible to this process.
pub fn online_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// CPUs the *process* may use, whatever the calling thread has pinned
/// itself to: on Linux the affinity mask of the main thread (a worker
/// pinned to one CPU is still on a machine of this many), elsewhere
/// [`online_cpus`]. For sizing something shared by all threads.
pub fn process_cpus() -> usize {
    #[cfg(target_os = "linux")]
    {
        // The process id is the main thread's id.
        let main = std::process::id() as libc::pid_t;
        // SAFETY: `set` is a valid, writable `cpu_set_t` of the size
        // passed; the call writes nothing else.
        let set = unsafe {
            let mut set: libc::cpu_set_t = std::mem::zeroed();
            let size = std::mem::size_of::<libc::cpu_set_t>();
            (libc::sched_getaffinity(main, size, &mut set) == 0).then_some(set)
        };
        let cpus = set.map_or(0, |set| {
            (0..libc::CPU_SETSIZE as usize)
                .filter(|&cpu| libc::CPU_ISSET(cpu, &set))
                .count()
        });
        if cpus > 0 {
            return cpus;
        }
    }
    online_cpus()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_cpus_positive() {
        assert!(online_cpus() >= 1);
    }

    #[test]
    fn process_cpus_ignores_a_pinned_caller() {
        let here = process_cpus();
        assert!(here >= online_cpus(), "this thread is not pinned");
        let inside = pinned(0, process_cpus);
        assert_eq!(inside, here, "the helper's pin does not shrink it");
    }

    #[test]
    fn pin_to_cpu0_usually_works_on_linux() {
        // CPU 0 exists almost everywhere; tolerate failure in odd
        // sandboxes but exercise the call.
        let _ = pin_to_cpu(0);
    }

    #[test]
    fn pinned_runs_on_one_cpu_and_leaves_the_caller_alone() {
        let before = online_cpus();
        let (inside, spawned_inside) = pinned(0, || {
            let here = online_cpus();
            let child = std::thread::spawn(online_cpus).join().unwrap();
            (here, child)
        });
        if pin_to_cpu_supported() {
            assert_eq!(inside, 1, "the helper is pinned");
            assert_eq!(spawned_inside, 1, "its threads inherit the pin");
        }
        assert_eq!(online_cpus(), before, "the caller is not");
    }

    /// Whether this sandbox lets a thread pin itself at all (probed on
    /// a throwaway thread).
    fn pin_to_cpu_supported() -> bool {
        std::thread::spawn(|| (0..64).any(pin_to_cpu))
            .join()
            .unwrap()
    }

    #[test]
    fn pinned_passes_a_panic_on() {
        let caught = std::panic::catch_unwind(|| pinned(0, || panic!("from the helper")));
        let payload = caught.expect_err("the panic crosses the helper thread");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"from the helper"));
    }

    #[test]
    fn pin_to_absurd_cpu_fails() {
        assert!(!pin_to_cpu(100_000));
    }
}
