//! Machine-speed probe.
//!
//! The benchmark was tuned on a virtual machine on a shared server, where
//! the speed of each virtual CPU swings by up to 75% over periods from
//! seconds to minutes, each CPU on its own (a plain counting loop shows
//! it). Wall-clock figures from two runs of the same code then differ by
//! a third. So a measured run pins itself, and every process it starts,
//! to one CPU ([`pin_to_one_cpu`]), samples that CPU's speed throughout
//! the run with a fixed kernel ([`Probe`]), and reports its times
//! at a fixed reference speed: a wall-clock interval is scaled by the
//! CPU's speed around it, relative to [`REFERENCE_RATE`] ([`Speed`]). The
//! kernel is the benchmark's own code, so a change to the program under
//! test never moves it, and it runs only while no timed operation does
//! ([`Probe::hold`]), so the program's own use of the CPU and its caches
//! does not move it either. The raw wall-clock figures stay in the detail
//! line.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between two probes. A probe takes about 5 ms, during which
/// timed operations wait, so the probe takes about 5% of a run.
const PERIOD: Duration = Duration::from_millis(100);
/// How long the probe lets the CPU settle once it holds timed operations
/// back: the daemon's session threads finish their bookkeeping after the
/// last response, and a probe they preempt is dropped.
const SETTLE: Duration = Duration::from_millis(2);
/// Keys the kernel inserts per probe.
const KERNEL_KEYS: usize = 10_000;
/// Probes per second of thread CPU time that count as speed 1.0: about
/// the rate on the CPUs the benchmark was tuned on at their usual speed,
/// so reported figures are close to wall-clock figures there.
pub const REFERENCE_RATE: f64 = 300.0;
/// Probes within this distance of an interval also count toward its speed,
/// so that even a 2 ms set-up is scaled by about five probes.
const HALF_WINDOW: Duration = Duration::from_millis(250);

/// Pins the calling thread to the last CPU it may run on, so that threads
/// and processes it starts afterwards inherit the pin. Returns the CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // `cpu_set_t` is a 1024-bit mask.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable mask of exactly the size
    // passed, and the call writes only within it.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("sched_getaffinity returned an empty CPU set")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live mask of exactly the size passed; the call
    // only reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("pinning to one CPU is only implemented on Linux".to_owned())
}

/// CPU time of the calling thread.
#[cfg(target_os = "linux")]
fn thread_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the call writes only within it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_time() -> Duration {
    unimplemented!("thread CPU time is only read on Linux")
}

/// How often the calling thread has been preempted so far
/// (`ru_nivcsw` of `getrusage(RUSAGE_THREAD)`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn preemptions() -> i64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval` (two longs
    // each), then fourteen longs, the last of which is `ru_nivcsw`.
    #[repr(C)]
    struct RUsage {
        fields: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_THREAD: i32 = 1;
    let mut usage = RUsage { fields: [0; 18] };
    // SAFETY: `usage` is a live, writable value with the size and layout
    // of `struct rusage` on this target, and `getrusage` writes only
    // within the struct it is given.
    let rc = unsafe { getrusage(RUSAGE_THREAD, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_THREAD) failed");
    usage.fields[17]
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn preemptions() -> i64 {
    unimplemented!("preemptions are only counted on 64-bit Linux")
}

/// The probe's kernel: formats [`KERNEL_KEYS`] string keys into a hash
/// map (about 1 MiB of small allocations) and sorts its entries. Of the
/// kernels tried against `lapq run` on the machine the benchmark was
/// tuned on, this one slowed down most like the program does when other
/// tenants load the machine: pure register work (a xorshift loop), a
/// pointer chase through 4 MiB and page faults on fresh memory each
/// tracked well under half of the slowdown.
fn kernel(keys: usize) -> usize {
    let mut map: HashMap<String, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..std::hint::black_box(keys) {
        map.insert(format!("key{}", i.wrapping_mul(2_654_435_761) % 100_003), i);
    }
    let mut entries: Vec<(String, usize)> = map.into_iter().collect();
    entries.sort_unstable();
    std::hint::black_box(entries.len())
}

/// What the probe thread collects: speed samples, pauses, and the count
/// of probes dropped because they were preempted.
type Sampled = (Vec<(Instant, f64)>, Vec<(Instant, Duration)>, u64);

/// A thread that samples the speed of the CPU it runs on every [`PERIOD`]
/// until [`Probe::finish`] (or drop) stops it.
pub struct Probe {
    stop: Arc<AtomicBool>,
    gate: Arc<RwLock<()>>,
    handle: Option<JoinHandle<Sampled>>,
}

impl Probe {
    /// Starts sampling. Call it after [`pin_to_one_cpu`], so the probe
    /// runs on the pinned CPU.
    pub fn start() -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(RwLock::new(()));
        let (flag, lock) = (Arc::clone(&stop), Arc::clone(&gate));
        let handle = std::thread::spawn(move || {
            let (mut samples, mut pauses, mut preempted) = (Vec::new(), Vec::new(), 0);
            while !flag.load(Ordering::Relaxed) {
                // The write lock waits for timed operations in flight and
                // holds new ones back (std's `RwLock` lets a waiting writer
                // go first), so the kernel has the CPU to itself.
                let exclusive = lock.write().expect("probe gate");
                let paused = Instant::now();
                std::thread::sleep(SETTLE);
                let switches = preemptions();
                let before = thread_cpu_time();
                kernel(KERNEL_KEYS);
                let spent = (thread_cpu_time() - before).as_secs_f64();
                // A probe that another thread (the daemon's telemetry
                // watcher, say) interrupted measured that thread as much
                // as the machine; drop it.
                if preemptions() != switches {
                    preempted += 1;
                } else if spent > 0.0 {
                    samples.push((Instant::now(), 1.0 / spent / REFERENCE_RATE));
                }
                pauses.push((paused, paused.elapsed()));
                drop(exclusive);
                std::thread::sleep(PERIOD);
            }
            (samples, pauses, preempted)
        });
        Probe {
            stop,
            gate,
            handle: Some(handle),
        }
    }

    /// A guard that every timed operation holds while it runs; the probe
    /// never runs while one is held.
    pub fn hold(&self) -> RwLockReadGuard<'_, ()> {
        self.gate.read().expect("probe gate")
    }

    /// Stops sampling and returns what was sampled.
    pub fn finish(mut self) -> Speed {
        let (samples, pauses, preempted) = self.join();
        Speed {
            samples,
            pauses,
            preempted,
        }
    }

    fn join(&mut self) -> Sampled {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .map(|h| h.join().expect("probe thread panicked"))
            .unwrap_or_default()
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.join();
    }
}

/// A run's speed samples: (time, speed relative to [`REFERENCE_RATE`]).
pub struct Speed {
    samples: Vec<(Instant, f64)>,
    /// When the probe held timed operations back, and for how long.
    pauses: Vec<(Instant, Duration)>,
    /// Probes dropped because they were preempted.
    pub preempted: u64,
}

impl Speed {
    /// The mean speed of the probes from [`HALF_WINDOW`] before `from`
    /// to [`HALF_WINDOW`] after `to`, or of the probe nearest to them when
    /// none falls inside; 1.0 when nothing was sampled.
    pub fn around(&self, from: Instant, to: Instant) -> f64 {
        let lo = self
            .samples
            .partition_point(|(t, _)| *t + HALF_WINDOW < from);
        let hi = self
            .samples
            .partition_point(|(t, _)| *t <= to + HALF_WINDOW);
        if lo < hi {
            let inside = &self.samples[lo..hi];
            return inside.iter().map(|s| s.1).sum::<f64>() / inside.len() as f64;
        }
        // Every probe lies before `from` (the first `lo`) or after `to`.
        let before = lo.checked_sub(1).map(|i| self.samples[i]);
        let after = self.samples.get(lo).copied();
        match (before, after) {
            (Some(b), Some(a)) if a.0 - to < from - b.0 => a.1,
            (Some(b), _) => b.1,
            (None, Some(a)) => a.1,
            (None, None) => 1.0,
        }
    }

    /// `took`, which began at `at`, at the reference speed.
    pub fn scale(&self, at: Instant, took: Duration) -> Duration {
        took.mul_f64(self.around(at, at + took))
    }

    /// [`Speed::scale`] of the interval without the probe's own pauses
    /// that began inside it.
    pub fn scale_busy(&self, at: Instant, took: Duration) -> Duration {
        let end = at + took;
        let paused: Duration = self
            .pauses
            .iter()
            .filter(|(t, _)| (at..end).contains(t))
            .map(|&(t, d)| d.min(end - t))
            .sum();
        self.scale(at, took.saturating_sub(paused))
    }

    /// Every speed sampled, in order.
    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed(start: Instant, values: &[(u64, f64)]) -> Speed {
        Speed {
            samples: values
                .iter()
                .map(|&(ms, v)| (start + Duration::from_millis(ms), v))
                .collect(),
            pauses: vec![(
                start + Duration::from_millis(1000),
                Duration::from_millis(40),
            )],
            preempted: 0,
        }
    }

    #[test]
    fn intervals_are_scaled_by_the_probes_around_them() {
        let t0 = Instant::now();
        let s = speed(t0, &[(0, 0.5), (100, 0.5), (1000, 1.0), (1100, 1.0)]);
        let ms = |n: u64| t0 + Duration::from_millis(n);
        assert_eq!(s.around(ms(50), ms(60)), 0.5);
        assert_eq!(s.around(ms(1040), ms(1060)), 1.0);
        assert_eq!(s.around(ms(0), ms(1100)), 0.75);
        // No probe within the window: the nearest one counts.
        assert_eq!(s.around(ms(500), ms(510)), 0.5);
        assert_eq!(s.around(ms(600), ms(610)), 1.0);
        assert_eq!(s.around(ms(5000), ms(5000)), 1.0);
        assert_eq!(
            s.scale(ms(50), Duration::from_millis(10)),
            Duration::from_millis(5)
        );
        assert_eq!(speed(t0, &[]).around(ms(0), ms(1)), 1.0);
        // The pause at 1000 ms (40 ms) is not busy time.
        assert_eq!(
            s.scale_busy(ms(990), Duration::from_millis(100)),
            Duration::from_millis(60)
        );
    }

    #[test]
    fn the_probe_samples_until_it_is_finished() {
        let probe = Probe::start();
        for _ in 0..30 {
            // A held guard keeps the probe out; it samples in between.
            let _held = probe.hold();
            std::thread::sleep(PERIOD / 10);
        }
        std::thread::sleep(PERIOD);
        let speed = probe.finish();
        let values = speed.values();
        // Under a busy test runner every probe may have been preempted.
        assert!(!values.is_empty() || speed.preempted > 0);
        assert!(values.iter().all(|v| v.is_finite() && *v > 0.0));
    }
}
