//! Carbon-arbitrage battery policy (extension).
//!
//! §3.1 sketches the use-case without evaluating it: datacenters with
//! batteries "may also perform carbon arbitrage, e.g., by charging their
//! virtual batteries when carbon-intensity is low and discharging when
//! high". [`ArbitrageApp`] implements exactly that around a steady
//! workload; `arbitrage_cuts_carbon_on_a_square_wave` compares its carbon
//! against the same workload without arbitrage.

use container_cop::ContainerSpec;
use ecovisor::{Application, EcovisorClient, EnergyClient};
use simkit::units::{CarbonIntensity, Watts};

/// A steady service that charges its virtual battery on clean power and
/// rides it through dirty periods.
pub struct ArbitrageApp {
    label: String,
    containers: u32,
    /// Charge the battery when intensity is at or below this level.
    low_threshold: CarbonIntensity,
    /// Discharge (serve load from battery) when intensity is at or above
    /// this level.
    high_threshold: CarbonIntensity,
    /// Grid charging rate while in the low-carbon band.
    charge_rate: Watts,
}

impl ArbitrageApp {
    /// Creates the application.
    ///
    /// # Panics
    ///
    /// Panics unless `low_threshold < high_threshold`.
    pub fn new(
        label: impl Into<String>,
        containers: u32,
        low_threshold: CarbonIntensity,
        high_threshold: CarbonIntensity,
        charge_rate: Watts,
    ) -> Self {
        assert!(
            low_threshold < high_threshold,
            "thresholds must be ordered low < high"
        );
        Self {
            label: label.into(),
            containers,
            low_threshold,
            high_threshold,
            charge_rate,
        }
    }
}

impl Application for ArbitrageApp {
    fn label(&self) -> &str {
        &self.label
    }

    fn on_start(&mut self, api: &mut EcovisorClient<'_>) {
        for _ in 0..self.containers {
            if let Ok(id) = api.launch_container(ContainerSpec::quad_core()) {
                let _ = api.set_container_demand(id, 1.0);
            }
        }
    }

    fn on_tick(&mut self, api: &mut EcovisorClient<'_>) {
        let intensity = api.get_grid_carbon();
        if intensity <= self.low_threshold {
            // Clean: stock up, don't discharge.
            api.set_battery_charge_rate(self.charge_rate);
            api.set_battery_max_discharge(Watts::ZERO);
        } else if intensity >= self.high_threshold {
            // Dirty: serve from the battery as hard as it allows.
            api.set_battery_charge_rate(Watts::ZERO);
            api.set_battery_max_discharge(Watts::new(f64::MAX));
        } else {
            // In between: hold.
            api.set_battery_charge_rate(Watts::ZERO);
            api.set_battery_max_discharge(Watts::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use container_cop::CopConfig;
    use ecovisor::{EcovisorBuilder, EnergyShare, Simulation};
    use simkit::time::SimDuration;
    use simkit::trace::{Extend, Trace};
    use simkit::units::WattHours;

    /// Carbon square wave: 6 h clean (50), 6 h dirty (400).
    fn wave_carbon() -> Trace {
        let mut samples = vec![50.0; 6 * 12];
        samples.extend(vec![400.0; 6 * 12]);
        Trace::from_samples(samples, SimDuration::from_minutes(5)).with_extend(Extend::Cycle)
    }

    fn run(arbitrage: bool) -> f64 {
        let mut sim = Simulation::new(
            EcovisorBuilder::new()
                .cluster(CopConfig::microserver_cluster(4))
                .carbon(wave_carbon())
                .build(),
        );
        // Battery sized so clean-period charging roughly matches dirty-
        // period consumption; a huge bank would waste clean energy on
        // charge that is never discharged within the run.
        let share = EnergyShare::grid_only()
            .with_battery(WattHours::new(60.0))
            .with_initial_soc(0.30);
        let app: Box<dyn Application> = if arbitrage {
            Box::new(ArbitrageApp::new(
                "arb",
                1,
                CarbonIntensity::new(100.0),
                CarbonIntensity::new(300.0),
                Watts::new(15.0),
            ))
        } else {
            Box::new(ArbitrageApp::new(
                "no-arb",
                1,
                // Thresholds outside the trace range: battery never used.
                CarbonIntensity::new(-1.0),
                CarbonIntensity::new(10_000.0),
                Watts::ZERO,
            ))
        };
        let id = sim.add_app("a", share, app).unwrap();
        sim.run_ticks(48 * 60); // two days
        sim.eco().app_totals(id).unwrap().carbon.grams()
    }

    #[test]
    fn arbitrage_cuts_carbon_on_a_square_wave() {
        let with = run(true);
        let without = run(false);
        assert!(
            with < 0.8 * without,
            "arbitrage {with} g should clearly beat baseline {without} g"
        );
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn inverted_thresholds_rejected() {
        ArbitrageApp::new(
            "bad",
            1,
            CarbonIntensity::new(300.0),
            CarbonIntensity::new(100.0),
            Watts::new(10.0),
        );
    }
}
