//! Sample summaries and process measurements shared by the workloads.

use std::time::Duration;

/// A set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.sum() / self.0.len() as f64
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// The `q`-quantile by linear interpolation between closest ranks
    /// (0 for an empty set).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The values in measurement order, for the run's provenance line.
    pub fn list(&self) -> String {
        let v: Vec<String> = self.0.iter().map(|x| format!("{x:.4}")).collect();
        v.join(",")
    }
}

/// Samples split into the one-second windows of a run, so that a statistic
/// can be reported as its median over windows: a burst of interference from
/// outside the program moves a few windows, not the median.
#[derive(Debug, Default)]
pub struct Windows(Vec<Samples>);

impl Windows {
    /// Record `v`, measured `at` into the run.
    pub fn push(&mut self, at: Duration, v: f64) {
        let w = at.as_secs() as usize;
        if self.0.len() <= w {
            self.0.resize_with(w + 1, Samples::new);
        }
        self.0[w].push(v);
    }

    /// Every sample of the run.
    pub fn all(&self) -> Samples {
        Samples(self.0.iter().flat_map(|w| w.0.iter().copied()).collect())
    }

    /// The median over the non-empty windows of `stat` of each window.
    pub fn median_of(&self, stat: impl Fn(&Samples) -> f64) -> f64 {
        let per_window = self.0.iter().filter(|w| !w.is_empty()).map(stat);
        Samples(per_window.collect()).median()
    }
}

/// The host's steal share over successive intervals of a run, recorded
/// with each result for reading it.
pub struct StealClock(Option<(u64, u64)>);

impl StealClock {
    pub fn start() -> StealClock {
        StealClock(cpu_steal_ticks())
    }

    /// The steal share since the previous lap (0 where `/proc/stat` is
    /// unreadable).
    pub fn lap(&mut self) -> f64 {
        let now = cpu_steal_ticks();
        let share = match (self.0, now) {
            (Some((s0, t0)), Some((s1, t1))) => {
                s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
            }
            _ => 0.0,
        };
        self.0 = now;
        share
    }
}

/// CPU time the hypervisor gave to other guests (`steal`) and all CPU time,
/// in clock ticks since boot, from `/proc/stat`.
fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set size of this process in MiB (`VmHWM`) since it started
/// or since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the `VmHWM` high-water mark at the current resident set, so a
/// later [`peak_rss_mb`] covers only what runs after this call. Returns the
/// peak so far; errors where the kernel does not allow the reset.
pub fn reset_peak_rss() -> std::io::Result<f64> {
    let before = peak_rss_mb();
    std::fs::write("/proc/self/clear_refs", "5")?;
    Ok(before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(Samples::new().median(), 0.0);
    }

    #[test]
    fn window_medians_ignore_one_bad_window() {
        let mut w = Windows::default();
        for (sec, v) in [(0, 1.0), (0, 3.0), (1, 2.0), (3, 100.0)] {
            w.push(Duration::from_millis(sec * 1000 + 10), v);
        }
        assert_eq!(w.all().len(), 4);
        // Windows 0, 1 and 3 are non-empty (medians 2, 2, 100); window 2
        // is skipped.
        assert_eq!(w.median_of(Samples::median), 2.0);
    }

    #[test]
    fn peak_rss_restarts_after_a_reset() {
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        let before = reset_peak_rss().expect("clear_refs is writable");
        assert!(before >= 64.0, "peak {before} MiB");
        drop(block);
        assert!(peak_rss_mb() < before);
    }
}
