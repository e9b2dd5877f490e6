//! The two things the benchmark asks of the operating system that `std`
//! does not wrap: confining itself to one hardware thread, and reading a
//! thread's own CPU time. The declarations are `extern "C"` against the
//! libc that `std` already links.

use std::os::raw::{c_int, c_long, c_ulong};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

const WORDS: usize = 16;
const BITS: usize = c_ulong::BITS as usize;

/// Restricts the calling thread, and every thread it starts from now on,
/// to the highest-numbered hardware thread it may use (the lowest one
/// takes the machine's interrupts). Returns that thread's number, or
/// `None` if the kernel refused, in which case nothing changed.
///
/// The sandbox is a virtual machine. A thread that wakes a thread on
/// another virtual CPU costs an exit to the hypervisor and a wait for the
/// host to schedule that CPU: 50 to 100 µs of a 220 µs round trip, and a
/// number that moves by a third with the host's load. On one hardware
/// thread a wake-up is a context switch, so a round trip is the program's
/// own work (a depth-1 query takes 160 µs, less than on two threads), and
/// it repeats.
pub fn pin_to_one_hardware_thread() -> Option<usize> {
    let mut mask: [c_ulong; WORDS] = [0; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `size` bytes; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * BITS)
        .rev()
        .find(|&cpu| mask[cpu / BITS] >> (cpu % BITS) & 1 == 1)?;
    let mut one: [c_ulong; WORDS] = [0; WORDS];
    one[cpu / BITS] = 1 << (cpu % BITS);
    // SAFETY: `one` is a live buffer of `size` bytes that the call only
    // reads.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// CPU time the calling thread has used so far, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_counts_work_and_not_sleep() {
        let before = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_ns() - before;
        assert!(slept < 10_000_000, "{slept} ns of CPU while asleep");
        let before = thread_cpu_ns();
        let started = std::time::Instant::now();
        let mut x = 1u64;
        while started.elapsed() < std::time::Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let worked = thread_cpu_ns() - before;
        assert!(worked > 5_000_000, "{worked} ns of CPU for 30 ms of work");
    }

    #[test]
    fn pinning_leaves_one_hardware_thread() {
        // On its own thread: the affinity of the test harness's other
        // threads stays as it was.
        let left = std::thread::spawn(|| {
            pin_to_one_hardware_thread().map(|cpu| {
                (
                    cpu,
                    std::thread::available_parallelism().map_or(0, |n| n.get()),
                )
            })
        })
        .join()
        .unwrap();
        if let Some((_, threads)) = left {
            assert_eq!(threads, 1);
        }
    }
}
