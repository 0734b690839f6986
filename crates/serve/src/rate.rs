//! Per-client token-bucket rate limiting for the RDAP routes.
//!
//! The paper's measurement methodology is shaped by exactly this
//! operational constraint: RDAP services budget queries per client and
//! answer `429 Too Many Requests` with a `Retry-After` hint once the
//! budget is gone. Buckets are keyed by client IP; each holds up to
//! `burst` tokens and refills at `per_second` tokens per second.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Mutex;
use std::time::Instant;

/// Token-bucket parameters.
#[derive(Clone, Copy, Debug)]
pub struct RateLimitConfig {
    /// Bucket capacity: how many requests a silent client may burst.
    pub burst: u64,
    /// Refill rate in tokens per second.
    pub per_second: f64,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        RateLimitConfig {
            burst: 64,
            per_second: 16.0,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens: f64,
    last_refill: Instant,
}

/// The per-client limiter. One instance is shared by all workers.
#[derive(Debug)]
pub struct RateLimiter {
    config: RateLimitConfig,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

impl RateLimiter {
    /// A limiter with the given parameters.
    pub fn new(config: RateLimitConfig) -> RateLimiter {
        RateLimiter {
            config,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Try to spend one token for `client`. `Err(retry_after_secs)`
    /// means the bucket is exhausted; the client should back off at
    /// least that many (whole) seconds.
    pub fn check(&self, client: IpAddr, now: Instant) -> Result<(), u64> {
        // A panic elsewhere poisons the lock but the token state stays
        // coherent; recover rather than taking the limiter down.
        let mut buckets = self.buckets.lock().unwrap_or_else(|p| p.into_inner());
        let bucket = buckets.entry(client).or_insert(Bucket {
            tokens: self.config.burst as f64,
            last_refill: now,
        });
        let dt = now
            .saturating_duration_since(bucket.last_refill)
            .as_secs_f64();
        bucket.tokens = (bucket.tokens + dt * self.config.per_second).min(self.config.burst as f64);
        bucket.last_refill = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            let wait = (deficit / self.config.per_second.max(f64::MIN_POSITIVE)).ceil();
            Err((wait as u64).max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const CLIENT_A: IpAddr = IpAddr::V4(std::net::Ipv4Addr::new(198, 51, 100, 1));
    const CLIENT_B: IpAddr = IpAddr::V4(std::net::Ipv4Addr::new(198, 51, 100, 2));

    #[test]
    fn burst_then_429_then_refill() {
        let lim = RateLimiter::new(RateLimitConfig {
            burst: 3,
            per_second: 1.0,
        });
        let t0 = Instant::now();
        for _ in 0..3 {
            assert!(lim.check(CLIENT_A, t0).is_ok());
        }
        let wait = lim.check(CLIENT_A, t0).unwrap_err();
        assert!(wait >= 1, "retry-after must be at least a second");
        // 2 simulated seconds later two tokens are back.
        let t2 = t0 + Duration::from_secs(2);
        assert!(lim.check(CLIENT_A, t2).is_ok());
        assert!(lim.check(CLIENT_A, t2).is_ok());
        assert!(lim.check(CLIENT_A, t2).is_err());
    }

    #[test]
    fn buckets_are_per_client() {
        let lim = RateLimiter::new(RateLimitConfig {
            burst: 1,
            per_second: 0.001,
        });
        let t0 = Instant::now();
        assert!(lim.check(CLIENT_A, t0).is_ok());
        assert!(lim.check(CLIENT_A, t0).is_err());
        // A different client has its own untouched bucket.
        assert!(lim.check(CLIENT_B, t0).is_ok());
        // Slow refill reports a proportionally long wait.
        let wait = lim.check(CLIENT_A, t0).unwrap_err();
        assert!(wait >= 900, "0.001 tokens/s needs ~1000s, got {wait}");
    }

    #[test]
    fn tokens_never_exceed_burst() {
        let lim = RateLimiter::new(RateLimitConfig {
            burst: 2,
            per_second: 1000.0,
        });
        let t0 = Instant::now();
        assert!(lim.check(CLIENT_A, t0).is_ok());
        // A long quiet period refills to the cap, not beyond.
        let later = t0 + Duration::from_secs(3600);
        assert!(lim.check(CLIENT_A, later).is_ok());
        assert!(lim.check(CLIENT_A, later).is_ok());
        assert!(lim.check(CLIENT_A, later).is_err());
    }
}
