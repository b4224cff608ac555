//! The time base for the benchmark's timings: wall time minus the share of
//! it the hypervisor stole from the VM's CPUs.
//!
//! On a shared host the hypervisor withholds a VM's virtual CPUs for
//! stretches (its *steal* time). The program runs no faster or slower for
//! it, but wall time stretches with it: on the 2-vCPU VM this benchmark
//! was tuned on, steal swung between 0 % and 48 % over minutes and
//! stretched the median assessment latency by up to 70 %, while the
//! latency scaled by the CPU share the VM actually had stayed near its
//! value at no steal. So every timing is taken on a `StealClock` lap: the
//! wall interval times the share of CPU time the VM had over that
//! interval. Without steal (bare metal, a quiet host) that share is 1 and
//! the timings are wall time.

use std::time::Instant;

/// `/proc/stat` counts CPU time in USER_HZ ticks, 100 per second on Linux.
const TICKS_PER_S: f64 = 100.0;

/// The lowest CPU share a lap reports, so a lap in which the VM was
/// starved outright cannot scale a timing to nothing.
const MIN_SHARE: f64 = 0.1;

/// Steal ticks summed over all CPUs, and the number of CPUs, from
/// `/proc/stat`; `None` where it is unreadable.
fn read_steal() -> Option<(u64, usize)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let mut lines = stat.lines();
    // "cpu  user nice system idle iowait irq softirq steal ..."
    let steal = lines.next()?.split_whitespace().nth(8)?.parse().ok()?;
    let cpus = lines.take_while(|l| l.starts_with("cpu")).count();
    Some((steal, cpus.max(1)))
}

/// Measures, lap by lap, the share of its CPUs' time the VM actually had.
#[derive(Debug, Clone)]
pub struct StealClock {
    at: Instant,
    steal: Option<(u64, usize)>,
}

impl StealClock {
    pub fn start() -> StealClock {
        StealClock { at: Instant::now(), steal: read_steal() }
    }

    /// The share (in `[0.1, 1]`) of CPU time the VM had since the last lap
    /// (or the start), and the lap's wall seconds; starts the next lap.
    pub fn lap(&mut self) -> (f64, f64) {
        let now = Instant::now();
        let wall_s = now.duration_since(self.at).as_secs_f64();
        let steal = read_steal();
        let share = match (self.steal, steal) {
            (Some((before, cpus)), Some((after, _))) if wall_s > 0.0 => {
                let stolen_s = after.saturating_sub(before) as f64 / TICKS_PER_S;
                cpu_share(stolen_s, cpus, wall_s)
            }
            _ => 1.0,
        };
        (self.at, self.steal) = (now, steal);
        (share, wall_s)
    }

    /// Seconds of available CPU time since the last lap; starts the next.
    pub fn lap_s(&mut self) -> f64 {
        let (share, wall_s) = self.lap();
        share * wall_s
    }
}

/// The share of `cpus` CPUs' time over `wall_s` seconds that was not
/// stolen, when `stolen_s` CPU-seconds were.
fn cpu_share(stolen_s: f64, cpus: usize, wall_s: f64) -> f64 {
    (1.0 - stolen_s / (cpus as f64 * wall_s)).clamp(MIN_SHARE, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_is_the_unstolen_part_of_all_cpus_time() {
        assert_eq!(cpu_share(0.0, 2, 1.0), 1.0);
        // Half a CPU-second stolen from two CPUs over one second.
        assert_eq!(cpu_share(0.5, 2, 1.0), 0.75);
        // Tick rounding can report a little more than was possible.
        assert_eq!(cpu_share(2.5, 2, 1.0), MIN_SHARE);
    }

    #[test]
    fn laps_read_the_running_kernel() {
        let mut clock = StealClock::start();
        let (share, wall_s) = clock.lap();
        assert!((MIN_SHARE..=1.0).contains(&share));
        assert!(wall_s >= 0.0);
        assert!(clock.lap_s() >= 0.0);
    }
}
