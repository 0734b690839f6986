//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// closest ranks; `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The smallest sample: on a host whose CPU speed drifts, the time of
/// the same work in its quietest stretch.
pub fn min(samples: &[f64]) -> f64 {
    quantile(samples, 0.0)
}

/// The `q`-quantile, or `NaN` unless at least ten samples lie beyond
/// it — a tail percentile read from fewer is an anecdote.
pub fn tail(samples: &[f64], q: f64) -> f64 {
    let beyond = samples.len() as f64 * (1.0 - q);
    if beyond < 10.0 {
        return f64::NAN;
    }
    quantile(samples, q)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU time (user and system, all threads) this process has used so
/// far, in seconds. Time the hypervisor steals from the VM is not in it.
pub fn cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The fields after the command name, which is in parentheses, from
    // field 3 on; utime and stime are fields 14 and 15, in ticks of
    // USER_HZ, which Linux fixes at 100 per second.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or("no CPU times in /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// CPU time the calling thread has used so far, in seconds, to the
/// nanosecond. Time the hypervisor steals from the VM is not in it.
pub fn thread_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("cannot read /proc/thread-self/schedstat: {e}"))?;
    stat.split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<f64>().ok())
        .map(|ns| ns / 1e9)
        .ok_or("no run time in /proc/thread-self/schedstat".into())
}

/// FNV-1a, 64-bit: a stable digest for output checks.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: the benchmark's own seeded generator, so workload inputs
/// depend only on `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fd1_ce00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let (p0, t0) = (
            cpu_s().expect("CPU time"),
            thread_cpu_s().expect("CPU time"),
        );
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 100 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s().expect("CPU time") - p0 >= 0.05);
        assert!(thread_cpu_s().expect("CPU time") - t0 >= 0.05);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail(&v, 0.99).is_nan());
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(tail(&v, 0.99).is_finite());
    }
}
