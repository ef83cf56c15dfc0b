//! §5.2 web-service policies: static carbon-rate limiting versus dynamic
//! carbon budgeting.
//!
//! The system-level baseline "enforces a static carbon budget for each
//! application by rate-limiting (or carbon-capping) it at all times". The
//! application-specific alternative enforces "a more flexible carbon
//! budget over longer time windows ... which allows applications to
//! breach the cap for short periods" by spending accumulated carbon
//! credits, while an SLO-driven autoscaler sizes the worker pool to the
//! observed workload (§5.2).

use container_cop::ContainerSpec;
use ecovisor::{Application, EcovisorClient, EnergyClient};
use simkit::time::SimTime;
use simkit::trace::Trace;
use simkit::units::{CarbonRate, Co2Grams, Watts};
use workloads::web::{response_quantile, WebService};

use crate::shared::{shared, Shared};

/// Which §5.2 policy drives the service.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WebPolicy {
    /// System-level: a fixed carbon rate enforced at all times; the
    /// worker pool always uses the full power the rate allows.
    StaticRateLimit {
        /// The enforced carbon rate.
        rate: CarbonRate,
    },
    /// Application-specific: an SLO-driven autoscaler plus a carbon
    /// budget equal to `target_rate × elapsed`, enforced only when the
    /// accumulated credits run out.
    DynamicBudget {
        /// The long-run target carbon rate (the budget accrual rate).
        target_rate: CarbonRate,
        /// p95 latency SLO in milliseconds.
        slo_ms: f64,
    },
}

/// Results an experiment reads out after (or during) a run.
#[derive(Debug, Clone, Default)]
pub struct WebAppStats {
    /// Per-tick p95 latency samples `(time, ms)`.
    pub p95_series: Vec<(SimTime, f64)>,
    /// Per-tick worker counts.
    pub worker_series: Vec<(SimTime, u32)>,
    /// Ticks where p95 exceeded the SLO.
    pub slo_violations: u64,
    /// Total ticks served.
    pub ticks: u64,
}

impl WebAppStats {
    /// Fraction of ticks violating the SLO.
    pub fn violation_fraction(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.slo_violations as f64 / self.ticks as f64
        }
    }

    /// Maximum observed p95 latency (ms).
    pub fn max_p95(&self) -> f64 {
        self.p95_series.iter().map(|(_, v)| *v).fold(0.0, f64::max)
    }
}

/// A load-balanced web application under a §5.2 policy.
pub struct WebApp {
    label: String,
    service: WebService,
    workload: Trace,
    policy: WebPolicy,
    /// SLO used for violation accounting (also set for the static policy,
    /// which does not act on it — the paper plots its violations).
    slo_ms: f64,
    min_workers: u32,
    max_workers: u32,
    /// Baseline CPU a provisioned worker burns independent of load
    /// (serving-stack overhead). This is why the paper's static policy
    /// draws its full carbon allowance even at low request rates.
    worker_base_util: f64,
    stats: Shared<WebAppStats>,
}

impl WebApp {
    /// Creates a web application.
    ///
    /// `workload` samples request rates in req/s; `service` defines the
    /// per-worker service rate; `slo_ms` is the p95 SLO used for
    /// accounting (and for scaling, under the dynamic policy).
    pub fn new(
        label: impl Into<String>,
        service: WebService,
        workload: Trace,
        policy: WebPolicy,
        slo_ms: f64,
    ) -> Self {
        Self {
            label: label.into(),
            service,
            workload,
            policy,
            slo_ms,
            min_workers: 1,
            max_workers: 16,
            worker_base_util: 0.35,
            stats: shared(WebAppStats::default()),
        }
    }

    /// Bounds the worker pool (builder-style).
    pub fn with_worker_bounds(mut self, min: u32, max: u32) -> Self {
        self.min_workers = min.max(1);
        self.max_workers = max.max(self.min_workers);
        self
    }

    /// Handle to the run statistics.
    pub fn stats(&self) -> Shared<WebAppStats> {
        Shared::clone(&self.stats)
    }

    /// Peak dynamic power of one single-core worker on a microserver.
    fn worker_max_power(&self) -> Watts {
        // per-core dynamic: 3.65 / 4 cores ≈ 0.91 W.
        Watts::new(3.65 / 4.0)
    }

    /// Smallest worker count whose p95 under `lambda` meets the target.
    fn workers_for_slo(&self, lambda: f64, target_ms: f64) -> u32 {
        let mu = self.service.service_rate();
        for c in self.min_workers..=self.max_workers {
            let q = response_quantile(c as usize, mu, lambda, 0.95);
            if q * 1000.0 <= target_ms {
                return c;
            }
        }
        self.max_workers
    }

    /// Conservative worker count affordable under a carbon rate at the
    /// current intensity, sized by peak worker power (used by the
    /// dynamic policy when its credits run out).
    fn workers_for_rate(&self, api: &mut EcovisorClient<'_>, rate: CarbonRate) -> u32 {
        let intensity = api.get_grid_carbon().grams_per_kwh().max(1e-9);
        let allowed = rate.grams_per_sec() * 3.6e6 / intensity; // watts
        let n = (allowed / self.worker_max_power().watts()).floor() as u32;
        n.clamp(self.min_workers, self.max_workers)
    }

    /// Greedy worker count for the static rate-limiting policy: size the
    /// pool so its *baseline* draw consumes the full allowance ("the
    /// system-level policy uses as many resources and energy to satisfy
    /// its target carbon rate", §5.2.3 / Fig. 7a). The ecovisor's
    /// carbon-rate enforcement caps any overdraw under load.
    fn workers_filling_rate(&self, api: &mut EcovisorClient<'_>, rate: CarbonRate) -> u32 {
        let intensity = api.get_grid_carbon().grams_per_kwh().max(1e-9);
        let allowed = rate.grams_per_sec() * 3.6e6 / intensity; // watts
        let base_power = self.worker_max_power().watts() * self.worker_base_util.max(0.05);
        let n = (allowed / base_power).floor() as u32;
        n.clamp(self.min_workers, self.max_workers)
    }

    fn scale_to(&mut self, api: &mut EcovisorClient<'_>, target: u32) {
        let ids = api.container_ids();
        let current = ids.len() as u32;
        if current < target {
            for _ in 0..(target - current) {
                if api.launch_container(ContainerSpec::single_core()).is_err() {
                    break;
                }
            }
        } else if current > target {
            for id in ids.iter().rev().take((current - target) as usize) {
                let _ = api.stop_container(*id);
            }
        }
    }
}

impl Application for WebApp {
    fn label(&self) -> &str {
        &self.label
    }

    fn on_start(&mut self, api: &mut EcovisorClient<'_>) {
        for _ in 0..self.min_workers {
            let _ = api.launch_container(ContainerSpec::single_core());
        }
        if let WebPolicy::StaticRateLimit { rate } = self.policy {
            api.set_carbon_rate(Some(rate));
        }
    }

    fn on_tick(&mut self, api: &mut EcovisorClient<'_>) {
        let now = api.now();
        let lambda = self.workload.sample(now);

        // 1. Policy: size the worker pool.
        let target = match self.policy {
            WebPolicy::StaticRateLimit { rate } => {
                // Use everything the carbon rate affords, at all times.
                self.workers_filling_rate(api, rate)
            }
            WebPolicy::DynamicBudget {
                target_rate,
                slo_ms,
            } => {
                // Accrue credits; enforce the rate only when exhausted.
                let elapsed = now.as_secs() as f64;
                let accrued = Co2Grams::new(target_rate.grams_per_sec() * elapsed);
                let spent = api.get_app_carbon();
                let wanted = self.workers_for_slo(lambda, 0.80 * slo_ms);
                if spent > accrued {
                    // Out of credits: rate-cap power and shrink the pool
                    // to what the rate affords (idle power floors the
                    // per-container cap, so worker count must drop too).
                    api.set_carbon_rate(Some(target_rate));
                    wanted.min(self.workers_for_rate(api, target_rate))
                } else {
                    api.set_carbon_rate(None);
                    wanted
                }
            }
        };
        self.scale_to(api, target);

        // 2. Measure capacity actually granted (power caps shrink it).
        let ids = api.container_ids();
        let workers = ids.len();
        for id in &ids {
            let _ = api.set_container_demand(*id, 1.0);
        }
        let mean_quota = if workers == 0 {
            0.0
        } else {
            api.effective_cores() / workers as f64
        };

        // 3. Serve this tick's load.
        let out = self
            .service
            .tick(lambda, workers, mean_quota, api.tick_interval());

        // 4. Reflect real CPU usage in power attribution: baseline burn
        //    plus load-proportional serving work.
        let worker_util = (self.worker_base_util + (1.0 - self.worker_base_util) * out.utilization)
            .clamp(0.0, 1.0);
        for id in &ids {
            let _ = api.set_container_demand(*id, worker_util);
        }

        // 5. Record stats.
        let mut stats = self.stats.borrow_mut();
        stats.ticks += 1;
        stats.p95_series.push((now, out.p95_ms));
        stats.worker_series.push((now, workers as u32));
        if out.p95_ms > self.slo_ms {
            stats.slo_violations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use container_cop::CopConfig;
    use ecovisor::{EcovisorBuilder, EnergyShare, Simulation};
    use simkit::time::SimDuration;

    fn sim(carbon_gpkwh: f64) -> Simulation {
        Simulation::new(
            EcovisorBuilder::new()
                .cluster(CopConfig::microserver_cluster(16))
                .carbon(Trace::constant(carbon_gpkwh))
                .build(),
        )
    }

    #[test]
    fn dynamic_policy_scales_with_load_and_meets_slo() {
        let mut s = sim(200.0);
        // Load steps from 50 to 500 req/s after an hour.
        let mut samples = vec![50.0; 60];
        samples.extend(vec![500.0; 60]);
        let workload = Trace::from_samples(samples, SimDuration::from_minutes(1));
        let app = WebApp::new(
            "dyn",
            WebService::new(100.0),
            workload,
            WebPolicy::DynamicBudget {
                target_rate: CarbonRate::from_milligrams_per_sec(10.0), // generous
                slo_ms: 60.0,
            },
            60.0,
        );
        let stats = app.stats();
        s.add_app("w", EnergyShare::grid_only(), Box::new(app))
            .unwrap();
        s.run_ticks(120);

        let st = stats.borrow();
        assert_eq!(st.ticks, 120);
        // Scaled up for the heavy phase.
        let early = st.worker_series[30].1;
        let late = st.worker_series[110].1;
        assert!(late > early, "workers {early} -> {late}");
        assert_eq!(st.slo_violations, 0, "max p95 {}", st.max_p95());
    }

    #[test]
    fn static_rate_policy_violates_slo_under_high_carbon_load() {
        let mut s = sim(800.0); // dirty grid: rate affords few workers
        let workload = Trace::constant(450.0);
        // 0.3 mg/s at 800 g/kWh affords 1.35 W ≈ 1 worker.
        let app = WebApp::new(
            "static",
            WebService::new(100.0),
            workload,
            WebPolicy::StaticRateLimit {
                rate: CarbonRate::from_milligrams_per_sec(0.3),
            },
            60.0,
        );
        let stats = app.stats();
        s.add_app("w", EnergyShare::grid_only(), Box::new(app))
            .unwrap();
        s.run_ticks(60);
        let st = stats.borrow();
        assert!(
            st.slo_violations > 30,
            "expected sustained violations, got {}",
            st.slo_violations
        );
    }

    #[test]
    fn static_rate_policy_overprovisions_when_clean() {
        let mut s = sim(50.0); // clean grid: same rate affords many workers
        let workload = Trace::constant(50.0);
        let app = WebApp::new(
            "static",
            WebService::new(100.0),
            workload,
            WebPolicy::StaticRateLimit {
                rate: CarbonRate::from_milligrams_per_sec(0.3),
            },
            60.0,
        )
        .with_worker_bounds(1, 12);
        let stats = app.stats();
        s.add_app("w", EnergyShare::grid_only(), Box::new(app))
            .unwrap();
        s.run_ticks(30);
        let st = stats.borrow();
        let workers = st.worker_series.last().unwrap().1;
        assert!(
            workers >= 8,
            "static policy should use the full rate allowance, got {workers}"
        );
        assert_eq!(st.slo_violations, 0);
    }

    #[test]
    fn dynamic_budget_enforces_rate_when_credits_exhausted() {
        let mut s = sim(400.0);
        let workload = Trace::constant(400.0);
        // Small budget: credits exhaust quickly, then the policy must
        // shrink to roughly one worker (the idle-power floor).
        let rate = CarbonRate::from_milligrams_per_sec(0.2);
        let app = WebApp::new(
            "dyn",
            WebService::new(100.0),
            workload,
            WebPolicy::DynamicBudget {
                target_rate: rate,
                slo_ms: 60.0,
            },
            60.0,
        );
        s.add_app("w", EnergyShare::grid_only(), Box::new(app))
            .unwrap();
        s.run_ticks(240);
        let ids = s.app_ids();
        let carbon = s.eco().app_totals(ids[0]).unwrap().carbon;
        let allowance = rate.grams_per_sec() * 240.0 * 60.0;
        assert!(
            carbon.grams() <= allowance * 1.25,
            "carbon {} should track the budget pace {allowance}",
            carbon.grams()
        );
        assert!(carbon.grams() > 0.0);
    }
}
