//! Where the server and the load generator run, and the allocator's
//! retained memory: the two things the host's kernel and C library decide
//! that otherwise move the numbers from one run to the next.
//!
//! A closed-loop request wakes the server and then the client. When the
//! kernel is free to place them, it keeps both on one CPU for a while and
//! then splits them, and on a two-vCPU virtual machine a bare round trip
//! took about 12 µs in one placement and 20 µs in the other: the median
//! latency of a run depends on which
//! placement it happened to get. So the server's threads run on the first
//! CPU this process may use, and the load generator on the second. The
//! campaign itself stays free to use every CPU.

/// The calling thread's CPU affinity mask (`cpu_set_t`, 1,024 CPUs).
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<Mask> {
    let mut mask: Mask = [0; 16];
    // SAFETY: `mask` is writable for exactly the size passed, and pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(mask: &Mask) {
    // SAFETY: `mask` is readable for exactly the size passed, and pid 0
    // names the calling thread. A refusal leaves the thread where it was.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &Mask) {}

/// Which of the two placed roles a thread plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Server,
    LoadGenerator,
}

/// Run `f` with the calling thread pinned to `role`'s CPU, then restore
/// its mask. Threads `f` starts inherit the pin, which is how the server's
/// accept and session threads land on the server's CPU. With fewer than
/// two CPUs allowed, `f` runs where the kernel puts it.
pub fn pinned<R>(role: Role, f: impl FnOnce() -> R) -> R {
    let Some(before) = get() else {
        return f();
    };
    let allowed: Vec<usize> = (0..before.len() * 64)
        .filter(|&cpu| before[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect();
    if allowed.len() < 2 {
        return f();
    }
    let cpu = allowed[usize::from(role == Role::LoadGenerator)];
    let mut only: Mask = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    set(&only);
    let out = f();
    set(&before);
    out
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the memory the C allocator kept after a large drop back to the
/// kernel. How much it keeps depends on which threads freed what, so
/// without this the peak memory of whatever is built next moves by tens
/// of percent from one run to the next.
pub fn release_freed_memory() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` only returns free heap pages to the kernel; it
    // takes no pointers and is safe to call from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_undone_and_inherited() {
        let before = get();
        let inner = pinned(Role::Server, || {
            let here = get();
            let child = std::thread::spawn(get).join().unwrap();
            assert_eq!(
                here, child,
                "a thread started while pinned inherits the pin"
            );
            here
        });
        assert_eq!(get(), before, "the mask is restored afterwards");
        if let (Some(b), Some(i)) = (before, inner) {
            let count = |m: &Mask| m.iter().map(|w| w.count_ones()).sum::<u32>();
            assert!(count(&i) == 1 || count(&b) < 2);
        }
    }
}
