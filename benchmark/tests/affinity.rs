//! Thread placement: a pin sticks, is inherited by spawned threads, and a
//! core the host does not have is refused without moving the thread.

use incgraph_benchmark::affinity::pin_current_thread;

fn allowed_cpus() -> String {
    std::fs::read_to_string("/proc/thread-self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap()
        .trim()
        .to_string()
}

#[test]
#[cfg(target_os = "linux")]
fn pin_sticks_and_is_inherited() {
    std::thread::spawn(|| {
        let before = allowed_cpus();
        assert!(!pin_current_thread(100_000), "no such core");
        assert_eq!(allowed_cpus(), before, "a refused pin moves nothing");
        // Core 0 may be outside a restricted cpuset; then the pin is refused.
        if pin_current_thread(0) {
            assert_eq!(allowed_cpus(), "0");
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, "0", "spawned threads inherit the pin");
        }
    })
    .join()
    .unwrap();
}
