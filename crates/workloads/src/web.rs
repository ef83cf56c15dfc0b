//! Load-balanced web service with an M/M/c latency model.
//!
//! Stands in for the §5.2 "multi-tenant distributed web applications ...
//! a front-end load balancer that distributes web requests across a
//! cluster, and serves a copy of Wikipedia", and §5.3's monitoring/logging
//! service. The 95th-percentile response latency — the metric the paper's
//! SLOs are defined on — comes from the exact M/M/c sojourn-time
//! distribution (Erlang-C waiting probability, hypoexponential tail),
//! with a backlog model for overload periods.

use serde::{Deserialize, Serialize};

use simkit::time::SimDuration;

/// Probability a request waits in an M/M/c queue with offered load
/// `a = λ/μ` across `c` servers (the Erlang-C formula).
///
/// Returns 1.0 when the queue is unstable (`a >= c`).
///
/// # Panics
///
/// Panics if `c` is zero or `a` is negative.
fn erlang_c(c: usize, a: f64) -> f64 {
    assert!(c > 0, "need at least one server");
    assert!(a >= 0.0, "offered load must be non-negative");
    if a == 0.0 {
        return 0.0;
    }
    let rho = a / c as f64;
    if rho >= 1.0 {
        return 1.0;
    }
    // Incremental a^k/k! terms to avoid overflow.
    let mut term = 1.0; // k = 0
    let mut sum = term;
    for k in 1..c {
        term *= a / k as f64;
        sum += term;
    }
    let tail = term * a / c as f64 / (1.0 - rho);
    tail / (sum + tail)
}

/// Survival function of the M/M/c response time `T = W + S` at `t`
/// seconds, with per-server rate `mu` (req/s) and arrival rate `lambda`.
fn response_survival(c: usize, mu: f64, lambda: f64, t: f64) -> f64 {
    let pw = erlang_c(c, lambda / mu);
    let delta = c as f64 * mu - lambda; // drain rate while waiting
    let no_wait = (1.0 - pw) * (-mu * t).exp();
    let waited = if (delta - mu).abs() < 1e-12 {
        pw * (1.0 + mu * t) * (-mu * t).exp()
    } else {
        pw * (delta * (-mu * t).exp() - mu * (-delta * t).exp()) / (delta - mu)
    };
    (no_wait + waited).clamp(0.0, 1.0)
}

/// The `p`-quantile (e.g. 0.95) of the M/M/c response time, in seconds.
///
/// Returns `f64::INFINITY` when the queue is unstable.
pub fn response_quantile(c: usize, mu: f64, lambda: f64, p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p), "quantile must be in [0, 1)");
    if c == 0 || mu <= 0.0 || lambda >= c as f64 * mu {
        return f64::INFINITY;
    }
    let target = 1.0 - p;
    // Bracket then bisect on the survival function.
    let mut hi = 1.0 / mu;
    while response_survival(c, mu, lambda, hi) > target {
        hi *= 2.0;
        if hi > 1e6 {
            return f64::INFINITY;
        }
    }
    let mut lo = 0.0;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if response_survival(c, mu, lambda, mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Per-tick observation of the service.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WebTick {
    /// 95th-percentile response latency, milliseconds.
    pub p95_ms: f64,
    /// Worker CPU utilization in `[0, 1]` (drives power attribution).
    pub utilization: f64,
    /// Request backlog carried into the next tick.
    backlog: f64,
    /// Rate actually served this tick, req/s.
    served_rate: f64,
}

/// A load-balanced web service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WebService {
    /// Requests/s one worker serves at full CPU quota.
    service_rate: f64,
    backlog: f64,
    last: WebTick,
}

impl WebService {
    /// Creates a service whose workers each serve `service_rate` req/s at
    /// full quota.
    ///
    /// # Panics
    ///
    /// Panics if `service_rate` is not positive.
    pub fn new(service_rate: f64) -> Self {
        assert!(service_rate > 0.0, "service rate must be positive");
        Self {
            service_rate,
            backlog: 0.0,
            last: WebTick {
                p95_ms: 0.0,
                utilization: 0.0,
                backlog: 0.0,
                served_rate: 0.0,
            },
        }
    }

    /// Per-worker service rate at full quota.
    pub fn service_rate(&self) -> f64 {
        self.service_rate
    }

    /// Advances one tick: `lambda` request/s arrive, served by `workers`
    /// containers whose mean CPU quota is `mean_quota`.
    pub fn tick(
        &mut self,
        lambda: f64,
        workers: usize,
        mean_quota: f64,
        dt: SimDuration,
    ) -> WebTick {
        let lambda = lambda.max(0.0);
        let quota = mean_quota.clamp(0.0, 1.0);
        let secs = dt.as_secs_f64();

        if workers == 0 || quota <= 0.0 {
            // Nothing serving: requests pile up (bounded to keep the
            // model stable across long outages).
            self.backlog = (self.backlog + lambda * secs).min(1e9);
            let out = WebTick {
                p95_ms: f64::INFINITY,
                utilization: 0.0,
                backlog: self.backlog,
                served_rate: 0.0,
            };
            self.last = out;
            return out;
        }

        let mu = self.service_rate * quota; // per-worker rate
        let capacity = mu * workers as f64;
        // Serve backlog plus arrivals, up to capacity.
        let offered = lambda + self.backlog / secs;
        let served = offered.min(capacity);
        self.backlog = ((offered - served) * secs).max(0.0);

        let (p95_s, utilization) = if offered < 0.98 * capacity {
            let q = response_quantile(workers, mu, offered, 0.95);
            (q, offered / capacity)
        } else {
            // Saturated: stable-queue latency at the stability edge plus
            // the time to drain the backlog.
            let edge = response_quantile(workers, mu, 0.97 * capacity, 0.95);
            (edge + self.backlog / capacity, 1.0)
        };

        let out = WebTick {
            p95_ms: p95_s * 1000.0,
            utilization,
            backlog: self.backlog,
            served_rate: served,
        };
        self.last = out;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_c_known_values() {
        // Single server: C(1, a) = rho.
        assert!((erlang_c(1, 0.5) - 0.5).abs() < 1e-9);
        // No load: never waits. Overload: always waits.
        assert_eq!(erlang_c(4, 0.0), 0.0);
        assert_eq!(erlang_c(2, 2.5), 1.0);
        // More servers at the same per-server load wait less (pooling).
        let two = erlang_c(2, 1.0);
        let eight = erlang_c(8, 4.0);
        assert!(eight < two);
    }

    #[test]
    fn mm1_quantile_matches_closed_form() {
        // M/M/1 response time is Exp(mu - lambda): p95 = ln(20)/(mu-λ).
        let mu = 100.0;
        let lambda = 60.0;
        let expected = (20.0_f64).ln() / (mu - lambda);
        let got = response_quantile(1, mu, lambda, 0.95);
        assert!(
            (got - expected).abs() / expected < 1e-6,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn quantile_grows_with_load() {
        let mu = 100.0;
        let q20 = response_quantile(4, mu, 80.0, 0.95);
        let q80 = response_quantile(4, mu, 320.0, 0.95);
        let q95 = response_quantile(4, mu, 380.0, 0.95);
        assert!(q20 < q80 && q80 < q95);
        assert_eq!(response_quantile(4, mu, 400.0, 0.95), f64::INFINITY);
    }

    #[test]
    fn service_latency_drops_with_more_workers() {
        let mut svc = WebService::new(100.0);
        let dt = SimDuration::from_minutes(1);
        let with2 = svc.tick(150.0, 2, 1.0, dt).p95_ms;
        let mut svc2 = WebService::new(100.0);
        let with4 = svc2.tick(150.0, 4, 1.0, dt).p95_ms;
        assert!(with4 < with2, "4 workers {with4} vs 2 workers {with2}");
    }

    #[test]
    fn overload_builds_and_drains_backlog() {
        let mut svc = WebService::new(100.0);
        let dt = SimDuration::from_minutes(1);
        // 1 worker, 150 req/s arriving: 50 req/s backlog growth.
        let t1 = svc.tick(150.0, 1, 1.0, dt);
        assert!((t1.backlog - 50.0 * 60.0).abs() < 1e-6);
        assert_eq!(t1.utilization, 1.0);
        assert!(t1.p95_ms > 1000.0, "saturated latency should be large");
        // Scale to 4 workers with no arrivals: backlog drains.
        let t2 = svc.tick(0.0, 4, 1.0, dt);
        assert_eq!(t2.backlog, 0.0);
        let t3 = svc.tick(100.0, 4, 1.0, dt);
        assert!(t3.p95_ms < 100.0, "recovered latency {}", t3.p95_ms);
    }

    #[test]
    fn quota_scales_capacity() {
        let mut full = WebService::new(100.0);
        let mut half = WebService::new(100.0);
        let dt = SimDuration::from_minutes(1);
        let f = full.tick(150.0, 2, 1.0, dt);
        let h = half.tick(150.0, 2, 0.5, dt);
        assert!(
            h.p95_ms > f.p95_ms,
            "half quota {} vs full {}",
            h.p95_ms,
            f.p95_ms
        );
    }

    #[test]
    fn zero_workers_is_an_outage() {
        let mut svc = WebService::new(100.0);
        let t = svc.tick(10.0, 0, 1.0, SimDuration::from_minutes(1));
        assert!(t.p95_ms.is_infinite());
        assert!(t.backlog > 0.0);
    }

    #[test]
    fn utilization_tracks_load() {
        let mut svc = WebService::new(100.0);
        let t = svc.tick(100.0, 4, 1.0, SimDuration::from_minutes(1));
        assert!((t.utilization - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_service_rate_rejected() {
        WebService::new(0.0);
    }
}
