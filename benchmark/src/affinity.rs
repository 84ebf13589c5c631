//! Fixed thread placement for the workloads whose batches are too small
//! to measure without it ([`Workload::one_core`](crate::spec::Workload)).
//!
//! A batch's path is a chain of thread hand-offs: writer client →
//! session reader → store writer → session sender → writer client. With
//! 16-unit batches the server's work is ~20 µs and the hand-offs are the
//! rest of the ack. Left to the scheduler the chain runs partly across
//! the two vCPUs, where each hand-off is an idle-exit of the other one —
//! tens of µs, host-dependent, different from rig to rig: `ack_p50_us` on
//! `delta-large-g` measured 50–56 µs with the chain on one core, 108–140 µs
//! unplaced, and ~300 µs with only the clients pinned (the server then
//! always wakes on the other core). So on those workloads everything **on
//! the batch's path** — the writer client and every thread of the server —
//! shares one core, and the reader client of `delta-fanout`, another user,
//! has the other. A thread inherits its spawner's affinity, so pinning the
//! main thread before the first `Server::start` places every server thread.
//!
//! The price: a server placed like this cannot use a second core, so a
//! parallel-engine change could only show as a loss there. Such changes
//! are judged on `bulk-delta` and `durable-repl`, where a batch is
//! milliseconds of work, placement moves nothing measurable (1.7 ms ack
//! either way) and every thread is left to the scheduler.

/// Core of the writer client and the server.
pub const PATH_CPU: usize = 0;
/// Core of the reader client. With one core available pinning to it
/// fails and the reader stays where it was spawned.
pub const BESIDE_CPU: usize = 1;

/// Pins the calling thread — and every thread it spawns from now on — to
/// `cpu`. Returns `false`, leaving the thread where it was, if the host
/// has no such core or is not Linux.
pub fn pin_current_thread(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        let Some(word) = mask.get_mut(cpu / 64) else {
            return false;
        };
        *word = 1 << (cpu % 64);
        // SAFETY: `mask` is an initialised buffer of exactly the byte
        // length passed, alive for the whole call, which only reads it;
        // pid 0 names the calling thread. This is glibc's
        // `sched_setaffinity(pid_t, size_t, const cpu_set_t *)`.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}
