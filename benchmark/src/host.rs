//! Host noise diagnostics: hypervisor steal, a fixed calibration kernel and
//! the process's peak resident set. They explain spread in the timed
//! metrics; a noisy rep is flagged by them, never discarded.

use std::time::Instant;

/// `(steal, total)` CPU ticks summed over all CPUs, from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    parse_cpu_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of CPU time the hypervisor withheld between two [`cpu_ticks`]
/// readings (0 when the counters did not advance or are unavailable).
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?).map(|kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Steps of the calibration kernel (at 1/10 under `--quick`).
pub const CALIB_STEPS: u64 = 6_000_000;

/// What [`CALIB_STEPS`] steps take on the build box at its fastest, in
/// milliseconds: the reference host speed the timed metrics are stated at.
pub const CALIB_REF_MS: f64 = 40.0;

/// A fixed hash-and-random-walk kernel over a 512 KiB table: the same
/// instructions and memory pattern every time, so a slow reading means the
/// host was slow, not the simulator. Returns wall milliseconds.
pub fn calibrate(steps: u64) -> f64 {
    const SLOTS: usize = 1 << 16;
    let mut table = vec![0u64; SLOTS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let start = Instant::now();
    for _ in 0..steps {
        // splitmix64 step, then a dependent load/store at the hashed slot.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let slot = (z ^ acc) as usize & (SLOTS - 1);
        acc = acc.wrapping_add(table[slot] ^ z);
        table[slot] = acc;
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(acc);
    ms
}

/// A wall clock that knows how slow the host is while it runs.
///
/// The build box's speed drifts by a factor of up to 1.8 within minutes and
/// takes every wall time with it; the calibration kernel drifts the same way
/// (run-level correlation 0.9). Each timed section is bracketed by the
/// kernel — the run after one section is the run before the next — and
/// reported with the host's slowdown against [`CALIB_REF_MS`] over that
/// bracket, so a wall time can be restated at the reference speed.
pub struct HostClock {
    steps: u64,
    threads: usize,
    last_ms: f64,
}

/// One timed section.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    /// Mean of the calibration kernel before and after, in milliseconds,
    /// scaled to [`CALIB_STEPS`] steps.
    pub calib_ms: f64,
}

impl Timed {
    /// Host slowdown during the section: 1 at the reference speed.
    pub fn slowdown(&self) -> f64 {
        self.calib_ms / CALIB_REF_MS
    }

    /// The wall time restated at the reference host speed.
    pub fn ref_wall_s(&self) -> f64 {
        self.wall_s / self.slowdown()
    }
}

impl HostClock {
    /// Starts the clock with a first run of the kernel. `steps` below
    /// [`CALIB_STEPS`] (as under `--quick`) are scaled up in the reading.
    /// The kernel runs on as many threads at once as the timed sections
    /// use, and the slowest one counts: a section that synchronises its
    /// threads at barriers is as slow as its slowest CPU.
    pub fn start(steps: u64, threads: usize) -> HostClock {
        let mut clock = HostClock {
            steps,
            threads,
            last_ms: 0.0,
        };
        clock.last_ms = clock.kernel_ms();
        clock
    }

    fn kernel_ms(&self) -> f64 {
        let slowest_ms = std::thread::scope(|scope| {
            let others: Vec<_> = (1..self.threads)
                .map(|_| scope.spawn(|| calibrate(self.steps)))
                .collect();
            let own = calibrate(self.steps);
            others
                .into_iter()
                .map(|t| t.join().expect("the calibration kernel does not panic"))
                .fold(own, f64::max)
        });
        slowest_ms * CALIB_STEPS as f64 / self.steps as f64
    }

    /// Times `f` between two runs of the kernel.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let before_ms = self.last_ms;
        let start = Instant::now();
        let value = f();
        let wall_s = start.elapsed().as_secs_f64();
        self.last_ms = self.kernel_ms();
        let calib_ms = (before_ms + self.last_ms) / 2.0;
        (value, Timed { wall_s, calib_ms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_stat_and_status() {
        let stat = "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_cpu_ticks(stat), Some((30, 1000)));
        assert_eq!(parse_cpu_ticks("cpu  1 2 3\n"), None);
        assert_eq!(parse_cpu_ticks("intr 5\n"), None);
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn steal_share_is_a_delta_ratio() {
        assert_eq!(steal_share(Some((10, 1000)), Some((30, 1200))), 0.1);
        assert_eq!(steal_share(Some((10, 1000)), Some((10, 1000))), 0.0);
        assert_eq!(steal_share(None, Some((1, 2))), 0.0);
    }

    #[test]
    fn calibration_kernel_runs() {
        assert!(calibrate(10_000) >= 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn a_wall_time_is_restated_at_the_reference_host_speed() {
        // A host twice as slow as the reference doubles both numbers.
        let slow = Timed {
            wall_s: 3.0,
            calib_ms: 2.0 * CALIB_REF_MS,
        };
        assert_eq!(slow.slowdown(), 2.0);
        assert_eq!(slow.ref_wall_s(), 1.5);
        let mut clock = HostClock::start(10_000, 2);
        let (v, timed) = clock.time(|| 7);
        assert_eq!(v, 7);
        assert!(timed.wall_s >= 0.0 && timed.calib_ms > 0.0);
    }
}
