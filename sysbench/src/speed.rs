//! The box's speed while the run goes on, read by a fixed reference
//! kernel, and the correction of the end-to-end metrics by it.
//!
//! The sandbox is one hardware thread of a shared host. A neighbour slows
//! memory-bound code by 10 to 30% for minutes at a time: longer than a
//! run, so no median inside the run sees past it, and ten runs in a row
//! straddle such a spell more often than not. The reference kernel is a
//! fixed piece of work of the system's own kind (dependent loads that
//! miss every cache, with arithmetic between them). A monitor thread
//! runs it for 2 ms of its own CPU time every 50 ms, all through the run,
//! and notes the steps it made per CPU second: a reading does not depend
//! on who else was using the hardware thread, only on how fast it was.
//!
//! A phase's speed is the mean of the readings taken during it, as a
//! share of [`NOMINAL_STEPS_S`]. A time measured in the phase is
//! multiplied by that share and a rate divided by it: each end-to-end
//! figure is what the run would have read on a box of nominal speed. The
//! figures as measured are kept beside them (`raw.*`), with the shares
//! (`run.speed_*`).
//!
//! The kernel's loads miss every cache whatever the workload has put
//! there (its ring is 64 MiB), so the system under test cannot move a
//! reading by changing what it keeps in cache; it costs the run 4% of its
//! hardware thread, the same on every commit.

use crate::sys::thread_cpu_ns;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Steps a second the kernel makes on the sandbox in a quiet spell. Any
/// constant would do: it scales every corrected figure alike.
pub const NOMINAL_STEPS_S: f64 = 3.5e6;

/// Entries of the ring the kernel chases: 64 MiB, several times the
/// last-level cache.
const RING: usize = 16 << 20;

/// Arithmetic steps between two loads.
const MIXES: u32 = 24;

/// CPU time one reading takes, and the pause between two readings.
const READING_CPU_NS: u64 = 2_000_000;
const PAUSE: Duration = Duration::from_millis(50);

fn mix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One cycle through every entry, in an order fixed by the constant below
/// (Sattolo's algorithm).
fn ring(entries: usize) -> Vec<u32> {
    let mut ring: Vec<u32> = (0..entries as u32).collect();
    let mut state = 0x5EED_u64;
    for i in (1..entries).rev() {
        state = mix(state);
        ring.swap(i, (state % i as u64) as usize);
    }
    ring
}

/// Runs the kernel for [`READING_CPU_NS`] of this thread's CPU time from
/// ring position `at`; returns where it stopped and its steps per CPU
/// second.
fn reading(ring: &[u32], mut at: u32) -> (u32, f64) {
    let started = thread_cpu_ns();
    let (mut steps, mut acc) = (0u64, 0u64);
    let used = loop {
        for _ in 0..512 {
            at = ring[at as usize];
            let mut z = acc ^ u64::from(at);
            for _ in 0..MIXES {
                z = mix(z);
            }
            acc = z;
        }
        steps += 512;
        let used = thread_cpu_ns() - started;
        if used >= READING_CPU_NS {
            break used;
        }
    };
    black_box(acc);
    (at, steps as f64 * 1e9 / used as f64)
}

#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    /// When each reading ended, and what it read.
    readings: Mutex<Vec<(Instant, f64)>>,
}

/// The monitor thread. Start it before the workload, on the hardware
/// thread the workload will run on.
pub struct Monitor {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Monitor {
    /// Builds the ring (here, so that its cost is in nobody's set-up
    /// time) and starts reading.
    pub fn start() -> Monitor {
        let ring = ring(RING);
        let shared = Arc::new(Shared::default());
        let theirs = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            let mut at = 0;
            while !theirs.stop.load(Ordering::SeqCst) {
                let (next, steps_s) = reading(&ring, at);
                at = next;
                theirs
                    .readings
                    .lock()
                    .expect("readings")
                    .push((Instant::now(), steps_s));
                std::thread::sleep(PAUSE);
            }
        });
        Monitor {
            shared,
            thread: Some(thread),
        }
    }

    /// Stops reading and hands over what was read.
    pub fn finish(mut self) -> Speeds {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.join().expect("monitor thread");
        }
        Speeds(std::mem::take(
            &mut *self.shared.readings.lock().expect("readings"),
        ))
    }
}

/// The readings of one run, in time order.
pub struct Speeds(Vec<(Instant, f64)>);

impl Speeds {
    /// The box's speed between `from` and `to` as a share of nominal: the
    /// mean of the readings taken in between, or of the nearest reading
    /// either side when none was. 1 when nothing was read at all.
    pub fn share(&self, (from, to): (Instant, Instant)) -> f64 {
        let inside: Vec<f64> = self
            .0
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|&(_, s)| s)
            .collect();
        let chosen = if inside.is_empty() {
            let before = self.0.iter().rev().find(|(at, _)| *at < from);
            let after = self.0.iter().find(|(at, _)| *at > to);
            before.into_iter().chain(after).map(|&(_, s)| s).collect()
        } else {
            inside
        };
        if chosen.is_empty() {
            return 1.0;
        }
        chosen.iter().sum::<f64>() / chosen.len() as f64 / NOMINAL_STEPS_S
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_reads_the_mean_of_its_own_readings() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let speeds = Speeds(vec![
            (at(10), 0.5 * NOMINAL_STEPS_S),
            (at(20), 1.0 * NOMINAL_STEPS_S),
            (at(30), 1.5 * NOMINAL_STEPS_S),
            (at(40), 2.0 * NOMINAL_STEPS_S),
        ]);
        assert_eq!(speeds.share((at(15), at(35))), 1.25);
        assert_eq!(speeds.share((at(0), at(100))), 1.25);
        // No reading inside: the nearest either side.
        assert_eq!(speeds.share((at(21), at(29))), 1.25);
        assert_eq!(speeds.share((at(41), at(50))), 2.0);
        assert_eq!(speeds.share((at(1), at(2))), 0.5);
        assert_eq!(Speeds(Vec::new()).share((at(0), at(1))), 1.0);
    }

    #[test]
    fn the_ring_is_one_cycle_and_the_same_every_time() {
        const SMALL: usize = 1 << 16;
        let ring = ring(SMALL);
        // Fixed: the first hops never change.
        let mut at = 0u32;
        let hops: Vec<u32> = (0..4)
            .map(|_| {
                at = ring[at as usize];
                at
            })
            .collect();
        assert_eq!(hops, {
            let again = super::ring(SMALL);
            let mut at = 0u32;
            (0..4)
                .map(|_| {
                    at = again[at as usize];
                    at
                })
                .collect::<Vec<_>>()
        });
        // One cycle: a permutation with no fixed point that returns to 0
        // only after visiting every entry.
        let mut seen = 0usize;
        let mut at = 0u32;
        loop {
            at = ring[at as usize];
            seen += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(seen, SMALL);
    }

    #[test]
    fn the_monitor_reads_while_the_caller_works() {
        let monitor = Monitor::start();
        let from = Instant::now();
        std::thread::sleep(Duration::from_millis(300));
        let to = Instant::now();
        let speeds = monitor.finish();
        assert!(speeds.len() >= 3, "{} readings in 300 ms", speeds.len());
        let share = speeds.share((from, to));
        assert!(share > 0.05 && share < 20.0, "{share}");
    }
}
