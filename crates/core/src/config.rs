//! Ecovisor configuration.

use container_cop::CopConfig;
use energy_system::battery::{Battery, BatterySpec};
use simkit::time::SimDuration;
use simkit::trace::Trace;

/// What happens to excess virtual solar power once an application's
/// battery is full (§3.1: "Determining how to handle excess solar power
/// is a policy decision").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum ExcessPolicy {
    /// Rely on the charge controller to curtail it (the paper's
    /// prototype default, which does not net-meter).
    #[default]
    Curtail,
    /// Net-meter it back to the grid (the ecovisor's grid connection
    /// accepts exports under this policy only).
    NetMeter,
    /// Reclaim and redistribute it to other applications with available
    /// virtual battery capacity, then curtail the remainder.
    Redistribute,
}

/// Builder for an [`crate::Ecovisor`].
///
/// Defaults model the paper's prototype: 1-minute ticks, a 16-node
/// microserver cluster, the 1,440 Wh battery bank, no solar array, an
/// unlimited grid, a flat 200 g/kWh carbon signal, and curtailment of
/// excess solar. Every component can be swapped.
pub struct EcovisorBuilder {
    pub(crate) tick_interval: SimDuration,
    pub(crate) cop: CopConfig,
    /// Solar array output in watts.
    pub(crate) solar: Trace,
    pub(crate) battery: Battery,
    /// Grid carbon intensity in g·CO2/kWh.
    pub(crate) carbon: Trace,
    pub(crate) excess: ExcessPolicy,
}

impl Default for EcovisorBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EcovisorBuilder {
    /// Starts from the prototype defaults described above.
    pub fn new() -> Self {
        Self {
            tick_interval: SimDuration::from_minutes(1),
            cop: CopConfig::microserver_cluster(16),
            solar: Trace::constant(0.0),
            battery: Battery::new_full(BatterySpec::paper_prototype()),
            carbon: Trace::constant(200.0),
            excess: ExcessPolicy::Curtail,
        }
    }

    /// Sets the tick interval.
    pub fn tick_interval(mut self, dt: SimDuration) -> Self {
        self.tick_interval = dt;
        self
    }

    /// Sets the cluster composition.
    pub fn cluster(mut self, cop: CopConfig) -> Self {
        self.cop = cop;
        self
    }

    /// Sets the solar array's output trace, in watts.
    pub fn solar(mut self, solar: Trace) -> Self {
        self.solar = solar;
        self
    }

    /// Sets the physical battery.
    pub fn battery(mut self, battery: Battery) -> Self {
        self.battery = battery;
        self
    }

    /// Sets the grid carbon-intensity trace, in g·CO2/kWh.
    pub fn carbon(mut self, carbon: Trace) -> Self {
        self.carbon = carbon;
        self
    }

    /// Sets the excess-solar policy. [`ExcessPolicy::NetMeter`] is the
    /// one that gives the grid connection net metering.
    pub fn excess(mut self, excess: ExcessPolicy) -> Self {
        self.excess = excess;
        self
    }

    /// Builds the ecovisor.
    pub fn build(self) -> crate::ecovisor::Ecovisor {
        crate::ecovisor::Ecovisor::from_builder(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_prototype() {
        let b = EcovisorBuilder::new();
        assert_eq!(b.tick_interval, SimDuration::from_minutes(1));
        assert_eq!(b.cop.servers.len(), 16);
        assert_eq!(b.excess, ExcessPolicy::Curtail);
        assert_eq!(
            b.battery.spec().capacity,
            simkit::units::WattHours::new(1440.0)
        );
    }

    #[test]
    fn builder_methods_chain() {
        let b = EcovisorBuilder::new()
            .tick_interval(SimDuration::from_minutes(5))
            .cluster(CopConfig::microserver_cluster(4))
            .excess(ExcessPolicy::Redistribute);
        assert_eq!(b.tick_interval, SimDuration::from_minutes(5));
        assert_eq!(b.cop.servers.len(), 4);
        assert_eq!(b.excess, ExcessPolicy::Redistribute);
    }
}
