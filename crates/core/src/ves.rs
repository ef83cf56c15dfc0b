//! The per-application virtual energy system (VES).
//!
//! Each registered application receives "the abstraction of a virtual
//! energy system, which supplies power to each application's virtual
//! cluster ... a virtual grid connection, a virtual battery, and a virtual
//! solar array" (§3.1). This module implements that abstraction and its
//! per-tick settlement semantics:
//!
//! * virtual solar power always satisfies demand first;
//! * excess solar charges the virtual battery (grid supplements charging
//!   up to the application's configured rate, with carbon attributed);
//! * deficits draw from the battery up to the configured maximum
//!   discharge rate, then from the grid, attributing carbon;
//! * the ecovisor retains one tick of battery headroom for solar, so the
//!   solar power available in a tick is the output buffered during the
//!   previous tick — applications always know their solar budget.
//!
//! Settlement is split in two phases so the ecovisor can enforce
//! *aggregate* physical battery rate limits across applications (§3.3):
//! [`VirtualEnergySystem::desired_flows`] proposes flows, the ecovisor
//! computes per-direction throttle factors, and
//! [`VirtualEnergySystem::apply_flows`] commits them.

use serde::{Deserialize, Serialize};

use energy_system::battery::Battery;
use simkit::time::SimDuration;
use simkit::units::{CarbonIntensity, CarbonRate, Co2Grams, WattHours, Watts};

use crate::event::Notification;
use crate::share::EnergyShare;

/// Committed power flows for one application over one tick.
///
/// All power fields are mean watts over the tick; multiply by Δt for
/// energy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct VesFlows {
    /// Power demanded by the application's containers.
    pub demand: Watts,
    /// Virtual solar power available this tick.
    solar_available: Watts,
    /// Solar power serving demand.
    pub solar_to_load: Watts,
    /// Own solar power charged into the virtual battery.
    pub(crate) solar_to_battery: Watts,
    /// Own solar power surrendered to the ecovisor's excess pool.
    pub solar_surplus: Watts,
    /// Solar power received from the excess pool into the battery.
    pub redistributed_in: Watts,
    /// Battery power serving demand.
    pub battery_to_load: Watts,
    /// Grid power serving demand.
    pub grid_to_load: Watts,
    /// Grid power charging the battery (charge-rate supplement).
    pub(crate) grid_to_battery: Watts,
    /// Demand that could not be served (grid cap exhausted).
    pub unmet_demand: Watts,
    /// Carbon emission rate attributed this tick.
    pub carbon_rate: CarbonRate,
    /// Carbon mass attributed this tick.
    pub carbon: Co2Grams,
}

impl VesFlows {
    /// Total grid import this tick.
    pub fn grid_import(&self) -> Watts {
        self.grid_to_load + self.grid_to_battery
    }

    /// Largest conservation violation in watts (0 = perfectly conserved):
    /// checks both the demand side and the solar side of the ledger.
    pub fn conservation_error(&self) -> f64 {
        let demand_err = (self.demand
            - (self.solar_to_load + self.battery_to_load + self.grid_to_load + self.unmet_demand))
            .watts()
            .abs();
        let solar_err = (self.solar_available
            - (self.solar_to_load + self.solar_to_battery + self.solar_surplus))
            .watts()
            .abs();
        demand_err.max(solar_err)
    }

    /// `true` when conservation holds within tolerance.
    pub fn is_conserved(&self) -> bool {
        self.conservation_error() < 1e-6
    }
}

/// Proposed (pre-throttling) flows for one application.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DesiredFlows {
    /// Demand presented.
    demand: Watts,
    /// Solar available.
    solar_available: Watts,
    /// Solar directly serving load.
    solar_to_load: Watts,
    /// Proposed solar→battery charge power.
    pub(crate) charge_solar: Watts,
    /// Proposed grid→battery charge power (supplement to the configured
    /// charge rate).
    charge_grid: Watts,
    /// Solar the battery cannot take (before redistribution).
    surplus: Watts,
    /// Proposed battery discharge power.
    pub(crate) discharge: Watts,
    /// Demand not covered by solar (deficit).
    deficit: Watts,
}

impl DesiredFlows {
    /// Total proposed charge power.
    pub(crate) fn total_charge(&self) -> Watts {
        self.charge_solar + self.charge_grid
    }
}

/// Cumulative per-application accounting totals.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct VesTotals {
    /// Total energy consumed by the application's containers.
    pub energy: WattHours,
    /// Total energy imported from the grid (load + battery charging).
    pub grid_energy: WattHours,
    /// Total solar energy used (load + battery, incl. redistribution).
    pub solar_energy: WattHours,
    /// Total carbon attributed.
    pub carbon: Co2Grams,
    /// Total solar energy surrendered to the excess pool.
    surplus_energy: WattHours,
}

/// The virtual energy system of one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VirtualEnergySystem {
    share: EnergyShare,
    battery: Option<Battery>,
    /// Grid-charging rate requested via Table 1 `set_battery_charge_rate`.
    charge_rate: Watts,
    /// Discharge cap requested via Table 1 `set_battery_max_discharge`.
    max_discharge: Watts,
    /// Solar output buffered during the previous tick — the power
    /// available this tick.
    solar_buffer: Watts,
    last_flows: VesFlows,
    totals: VesTotals,
    was_full: bool,
    was_empty: bool,
    /// When set (carbon budget exhausted), the effective grid power cap
    /// is zero regardless of the share's cap: the app runs on
    /// zero-carbon supply only.
    grid_clamped: bool,
}

impl VirtualEnergySystem {
    /// Creates a VES from a validated share.
    ///
    /// # Panics
    ///
    /// Panics if the share fails validation (the ecovisor validates at
    /// registration, so this indicates a caller bug).
    pub fn new(share: EnergyShare) -> Self {
        share.validate().expect("share must be validated upstream");
        Self::for_share(share)
    }

    /// The VES `share` implies, whatever the share holds: admission
    /// builds the record first and validates it with every other one.
    pub(crate) fn for_share(share: EnergyShare) -> Self {
        let battery = if share.has_battery() {
            Some(Battery::new_at(
                share.virtual_battery_spec(),
                share.battery_initial_soc,
            ))
        } else {
            None
        };
        let max_discharge = battery
            .as_ref()
            .map_or(Watts::ZERO, |b| b.spec().max_discharge_rate);
        let was_full = battery.as_ref().map(Battery::is_full).unwrap_or(false);
        let was_empty = battery.as_ref().map(Battery::is_empty).unwrap_or(false);
        Self {
            share,
            battery,
            charge_rate: Watts::ZERO,
            max_discharge,
            solar_buffer: Watts::ZERO,
            last_flows: VesFlows::default(),
            totals: VesTotals::default(),
            was_full,
            was_empty,
            grid_clamped: false,
        }
    }

    /// The share this VES was built from.
    pub(crate) fn share(&self) -> &EnergyShare {
        &self.share
    }

    /// The virtual battery, if the share includes one.
    pub fn battery(&self) -> Option<&Battery> {
        self.battery.as_ref()
    }

    /// Stored energy in the virtual battery (Table 1
    /// `get_battery_charge_level`). Zero without a battery.
    pub fn battery_charge_level(&self) -> WattHours {
        self.battery
            .as_ref()
            .map_or(WattHours::ZERO, Battery::charge_level)
    }

    /// Virtual battery state of charge fraction (0 without a battery).
    pub fn battery_soc(&self) -> f64 {
        self.battery.as_ref().map_or(0.0, Battery::soc_fraction)
    }

    /// Sets the grid-charging rate (Table 1 `set_battery_charge_rate`).
    pub fn set_charge_rate(&mut self, rate: Watts) {
        self.charge_rate = rate.max_zero();
    }

    /// Sets the maximum discharge rate (Table 1
    /// `set_battery_max_discharge`), clamped to the virtual battery's
    /// physical 1C limit.
    pub fn set_max_discharge(&mut self, rate: Watts) {
        let physical = self
            .battery
            .as_ref()
            .map(|b| b.spec().max_discharge_rate)
            .unwrap_or(Watts::ZERO);
        self.max_discharge = rate.max_zero().min(physical);
    }

    /// Current maximum discharge rate.
    pub(crate) fn max_discharge(&self) -> Watts {
        self.max_discharge
    }

    /// Clamps (or unclamps) grid draw to zero — the enforcement arm of
    /// an exhausted carbon budget (Table 2). While clamped the app runs
    /// on zero-carbon supply only: solar and battery still serve load,
    /// all grid draw (load and charging) is shed.
    pub(crate) fn set_grid_clamp(&mut self, clamped: bool) {
        self.grid_clamped = clamped;
    }

    /// The grid cap settlement enforces: zero when clamped, otherwise
    /// the share's cap.
    fn effective_grid_cap(&self) -> Option<Watts> {
        if self.grid_clamped {
            Some(Watts::ZERO)
        } else {
            self.share.grid_power_cap
        }
    }

    /// Solar power available this tick (Table 1 `get_solar_power`).
    pub fn solar_available(&self) -> Watts {
        self.solar_buffer
    }

    /// Buffers the physical solar output of the just-finished tick for
    /// availability in the next tick (called by the ecovisor).
    pub fn buffer_solar(&mut self, app_share_of_output: Watts) {
        self.solar_buffer = app_share_of_output.max_zero();
    }

    /// Flows committed in the most recent tick.
    pub(crate) fn last_flows(&self) -> &VesFlows {
        &self.last_flows
    }

    /// Cumulative totals.
    pub fn totals(&self) -> &VesTotals {
        &self.totals
    }

    /// Phase 1: proposes flows for this tick given container demand.
    pub fn desired_flows(&self, demand: Watts, dt: SimDuration) -> DesiredFlows {
        let demand = demand.max_zero();
        let solar_available = self.solar_buffer;
        let solar_to_load = solar_available.min(demand);
        let excess = solar_available - solar_to_load;
        let deficit = demand - solar_to_load;

        let (charge_solar, charge_grid, surplus, discharge) = match &self.battery {
            Some(battery) => {
                let charge_allow = battery.max_charge_power(dt);
                let charge_solar = excess.min(charge_allow);
                let surplus = excess - charge_solar;
                let discharge = if deficit > Watts::ZERO {
                    deficit
                        .min(self.max_discharge)
                        .min(battery.max_discharge_power(dt))
                } else {
                    Watts::ZERO
                };
                // Grid supplements charging only when not discharging.
                let charge_grid = if discharge == Watts::ZERO {
                    (self.charge_rate - charge_solar)
                        .max_zero()
                        .min(charge_allow - charge_solar)
                } else {
                    Watts::ZERO
                };
                (charge_solar, charge_grid, surplus, discharge)
            }
            None => (Watts::ZERO, Watts::ZERO, excess, Watts::ZERO),
        };

        DesiredFlows {
            demand,
            solar_available,
            solar_to_load,
            charge_solar,
            charge_grid,
            surplus,
            discharge,
            deficit,
        }
    }

    /// Phase 2: commits flows, applying the ecovisor's aggregate throttle
    /// factors (`charge_scale`, `discharge_scale` in `[0, 1]`) and the
    /// share's grid power cap. Returns the committed flows and any
    /// battery full/empty edge notifications.
    pub fn apply_flows(
        &mut self,
        desired: &DesiredFlows,
        charge_scale: f64,
        discharge_scale: f64,
        intensity: CarbonIntensity,
        dt: SimDuration,
    ) -> (VesFlows, Vec<Notification>) {
        let charge_scale = charge_scale.clamp(0.0, 1.0);
        let discharge_scale = discharge_scale.clamp(0.0, 1.0);

        // Throttle battery flows to the aggregate physical limits.
        let charge_solar = desired.charge_solar * charge_scale;
        let mut charge_grid = desired.charge_grid * charge_scale;
        let discharge = desired.discharge * discharge_scale;
        // Solar the battery now cannot take joins the surplus.
        let surplus = desired.surplus + (desired.charge_solar - charge_solar);

        // Grid covers the unthrottled deficit remainder plus charging.
        let mut grid_to_load = (desired.deficit - discharge).max_zero();
        let mut unmet = Watts::ZERO;
        if let Some(cap) = self.effective_grid_cap() {
            let requested = grid_to_load + charge_grid;
            if requested > cap {
                // Shed battery charging first, then load.
                let over = requested - cap;
                let cut_charge = charge_grid.min(over);
                charge_grid -= cut_charge;
                let still_over = over - cut_charge;
                let cut_load = grid_to_load.min(still_over);
                grid_to_load -= cut_load;
                unmet = cut_load;
            }
        }

        // Commit battery mutations.
        if let Some(battery) = &mut self.battery {
            let charge_total = charge_solar + charge_grid;
            if charge_total > Watts::ZERO {
                let accepted = battery.charge(charge_total, dt);
                debug_assert!(
                    accepted.abs_diff(charge_total) < 1e-6,
                    "charge pre-limited: requested {charge_total}, accepted {accepted}"
                );
            }
            if discharge > Watts::ZERO {
                let delivered = battery.discharge(discharge, dt);
                debug_assert!(
                    delivered.abs_diff(discharge) < 1e-6,
                    "discharge pre-limited: requested {discharge}, delivered {delivered}"
                );
            }
        }

        // Carbon attribution: all grid energy this tick at this tick's
        // intensity (step discretization, §3.1).
        let grid_import = grid_to_load + charge_grid;
        let carbon = grid_import * dt * intensity;
        let carbon_rate = carbon / dt;

        let flows = VesFlows {
            demand: desired.demand,
            solar_available: desired.solar_available,
            solar_to_load: desired.solar_to_load,
            solar_to_battery: charge_solar,
            solar_surplus: surplus,
            redistributed_in: Watts::ZERO,
            battery_to_load: discharge,
            grid_to_load,
            grid_to_battery: charge_grid,
            unmet_demand: unmet,
            carbon_rate,
            carbon,
        };

        // Totals.
        let served = flows.demand - flows.unmet_demand;
        self.totals.energy += served * dt;
        self.totals.grid_energy += grid_import * dt;
        self.totals.solar_energy += (flows.solar_to_load + flows.solar_to_battery) * dt;
        self.totals.carbon += carbon;
        self.totals.surplus_energy += surplus * dt;

        // Battery edge notifications.
        let mut events = Vec::new();
        if let Some(battery) = &self.battery {
            let full = battery.is_full();
            let empty = battery.is_empty();
            if full && !self.was_full {
                events.push(Notification::BatteryFull);
            }
            if empty && !self.was_empty {
                events.push(Notification::BatteryEmpty);
            }
            self.was_full = full;
            self.was_empty = empty;
        }

        self.last_flows = flows;
        (flows, events)
    }

    /// Offers redistributed excess solar from the pool; charges the
    /// battery with whatever fits beyond what was already charged this
    /// tick (the 0.25C rate limit applies to the tick's *total* charging)
    /// and returns the accepted power.
    pub(crate) fn accept_redistribution(&mut self, offered: Watts, dt: SimDuration) -> Watts {
        let room = self.redistribution_room(dt);
        let Some(battery) = &mut self.battery else {
            return Watts::ZERO;
        };
        let accepted = battery.charge(offered.max_zero().min(room), dt);
        if accepted > Watts::ZERO {
            self.last_flows.redistributed_in += accepted;
            self.totals.solar_energy += accepted * dt;
        }
        accepted
    }

    /// What [`accept_redistribution`](Self::accept_redistribution)
    /// would accept of an unbounded offer: the rate limit's room beyond
    /// what was already charged this tick, within the battery's
    /// headroom. Zero without a battery.
    pub(crate) fn redistribution_room(&self, dt: SimDuration) -> Watts {
        let f = &self.last_flows;
        let already = f.solar_to_battery + f.grid_to_battery + f.redistributed_in;
        self.battery.as_ref().map_or(Watts::ZERO, |b| {
            let rate_room = b.spec().max_charge_rate - already;
            rate_room.max_zero().min(b.max_charge_power(dt))
        })
    }

    /// Current discharge rate (Table 1 `get_battery_discharge_rate`):
    /// the battery power that served load in the most recent tick.
    pub(crate) fn battery_discharge_rate(&self) -> Watts {
        self.last_flows.battery_to_load
    }

    /// Current grid power usage (Table 1 `get_grid_power`).
    pub(crate) fn grid_power(&self) -> Watts {
        self.last_flows.grid_import()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minute() -> SimDuration {
        SimDuration::from_minutes(1)
    }

    fn solar_battery_share() -> EnergyShare {
        EnergyShare::grid_only()
            .with_solar_fraction(0.5)
            .with_battery(WattHours::new(720.0))
    }

    fn apply_simple(ves: &mut VirtualEnergySystem, demand: Watts, intensity: f64) -> VesFlows {
        let desired = ves.desired_flows(demand, minute());
        let (flows, _) = ves.apply_flows(
            &desired,
            1.0,
            1.0,
            CarbonIntensity::new(intensity),
            minute(),
        );
        flows
    }

    #[test]
    fn grid_only_settlement_attributes_carbon() {
        let mut ves = VirtualEnergySystem::new(EnergyShare::grid_only());
        let flows = apply_simple(&mut ves, Watts::new(60.0), 300.0);
        assert_eq!(flows.grid_to_load, Watts::new(60.0));
        assert_eq!(flows.battery_to_load, Watts::ZERO);
        // 60 W for 1 min = 1 Wh = 0.001 kWh × 300 g/kWh = 0.3 g
        assert!((flows.carbon.grams() - 0.3).abs() < 1e-9);
        assert!(flows.is_conserved());
    }

    #[test]
    fn solar_first_battery_second_grid_last() {
        let mut ves = VirtualEnergySystem::new(solar_battery_share());
        ves.buffer_solar(Watts::new(30.0));
        ves.set_max_discharge(Watts::new(20.0));
        let flows = apply_simple(&mut ves, Watts::new(100.0), 200.0);
        assert_eq!(flows.solar_to_load, Watts::new(30.0));
        assert_eq!(flows.battery_to_load, Watts::new(20.0));
        assert_eq!(flows.grid_to_load, Watts::new(50.0));
        assert!(flows.is_conserved());
    }

    #[test]
    fn excess_solar_charges_battery_zero_carbon() {
        let share = solar_battery_share().with_initial_soc(0.5);
        let mut ves = VirtualEnergySystem::new(share);
        ves.buffer_solar(Watts::new(100.0));
        let flows = apply_simple(&mut ves, Watts::new(40.0), 400.0);
        assert_eq!(flows.solar_to_battery, Watts::new(60.0));
        assert_eq!(flows.carbon, Co2Grams::ZERO);
        assert!(flows.is_conserved());
    }

    #[test]
    fn full_battery_surrenders_surplus() {
        let mut ves = VirtualEnergySystem::new(solar_battery_share());
        ves.buffer_solar(Watts::new(100.0));
        let flows = apply_simple(&mut ves, Watts::new(40.0), 0.0);
        assert_eq!(flows.solar_to_battery, Watts::ZERO);
        assert_eq!(flows.solar_surplus, Watts::new(60.0));
        assert!(flows.is_conserved());
    }

    #[test]
    fn grid_supplements_charging_and_is_charged_carbon() {
        let share = solar_battery_share().with_initial_soc(0.5);
        let mut ves = VirtualEnergySystem::new(share);
        ves.set_charge_rate(Watts::new(120.0));
        ves.buffer_solar(Watts::new(100.0));
        // Demand 40 leaves 60 excess solar; charge rate 120 → 60 from grid.
        let flows = apply_simple(&mut ves, Watts::new(40.0), 100.0);
        assert_eq!(flows.solar_to_battery, Watts::new(60.0));
        assert_eq!(flows.grid_to_battery, Watts::new(60.0));
        // Carbon only for the grid share: 60 W·min = 1 Wh → 0.1 g.
        assert!((flows.carbon.grams() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn discharge_scale_shifts_to_grid() {
        let mut ves = VirtualEnergySystem::new(solar_battery_share());
        ves.set_max_discharge(Watts::new(100.0));
        let desired = ves.desired_flows(Watts::new(100.0), minute());
        assert_eq!(desired.discharge, Watts::new(100.0));
        let (flows, _) = ves.apply_flows(&desired, 1.0, 0.5, CarbonIntensity::new(100.0), minute());
        assert_eq!(flows.battery_to_load, Watts::new(50.0));
        assert_eq!(flows.grid_to_load, Watts::new(50.0));
        assert!(flows.is_conserved());
    }

    #[test]
    fn charge_scale_increases_surplus() {
        let share = solar_battery_share().with_initial_soc(0.5);
        let mut ves = VirtualEnergySystem::new(share);
        ves.buffer_solar(Watts::new(100.0));
        let desired = ves.desired_flows(Watts::ZERO, minute());
        assert_eq!(desired.charge_solar, Watts::new(100.0));
        let (flows, _) = ves.apply_flows(&desired, 0.25, 1.0, CarbonIntensity::new(0.0), minute());
        assert_eq!(flows.solar_to_battery, Watts::new(25.0));
        assert_eq!(flows.solar_surplus, Watts::new(75.0));
        assert!(flows.is_conserved());
    }

    #[test]
    fn grid_cap_sheds_charging_then_load() {
        let share = EnergyShare::grid_only()
            .with_battery(WattHours::new(720.0))
            .with_initial_soc(0.5)
            .with_grid_cap(Watts::new(80.0));
        let mut ves = VirtualEnergySystem::new(share);
        ves.set_charge_rate(Watts::new(50.0));
        ves.set_max_discharge(Watts::ZERO);
        let flows = apply_simple(&mut ves, Watts::new(100.0), 100.0);
        // 100 W load + 50 W charge requested, cap 80: charging fully shed,
        // then 20 W of load shed.
        assert_eq!(flows.grid_to_battery, Watts::ZERO);
        assert_eq!(flows.grid_to_load, Watts::new(80.0));
        assert_eq!(flows.unmet_demand, Watts::new(20.0));
        assert!(flows.is_conserved());
    }

    #[test]
    fn battery_full_and_empty_events_fire_once() {
        let share = solar_battery_share().with_initial_soc(0.5);
        let mut ves = VirtualEnergySystem::new(share);
        // Drain to empty.
        ves.set_max_discharge(Watts::new(10_000.0));
        let mut events = Vec::new();
        for _ in 0..300 {
            let desired = ves.desired_flows(Watts::new(720.0), minute());
            let (_, ev) = ves.apply_flows(&desired, 1.0, 1.0, CarbonIntensity::new(0.0), minute());
            events.extend(ev);
        }
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Notification::BatteryEmpty))
                .count(),
            1,
            "empty edge fires exactly once"
        );
        // Recharge to full.
        ves.set_charge_rate(Watts::new(180.0));
        let mut events = Vec::new();
        for _ in 0..600 {
            let desired = ves.desired_flows(Watts::ZERO, minute());
            let (_, ev) = ves.apply_flows(&desired, 1.0, 1.0, CarbonIntensity::new(0.0), minute());
            events.extend(ev);
        }
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Notification::BatteryFull))
                .count(),
            1,
            "full edge fires exactly once"
        );
    }

    #[test]
    fn redistribution_charges_battery() {
        let share = solar_battery_share().with_initial_soc(0.5);
        let mut ves = VirtualEnergySystem::new(share);
        let accepted = ves.accept_redistribution(Watts::new(50.0), minute());
        assert_eq!(accepted, Watts::new(50.0));
        assert_eq!(ves.last_flows().redistributed_in, Watts::new(50.0));
        // Full battery accepts nothing.
        let mut full = VirtualEnergySystem::new(solar_battery_share());
        assert_eq!(
            full.accept_redistribution(Watts::new(50.0), minute()),
            Watts::ZERO
        );
        // No battery: nothing accepted.
        let mut none = VirtualEnergySystem::new(EnergyShare::grid_only());
        assert_eq!(
            none.accept_redistribution(Watts::new(50.0), minute()),
            Watts::ZERO
        );
    }

    /// Settlement hands a battery the least of the pool's offer and the
    /// battery's room, then commits it through `accept_redistribution`:
    /// the two agree bit for bit, whether the rate limit or the headroom
    /// bounds the room.
    #[test]
    fn an_offer_is_cut_to_the_room() {
        let charging = |soc: f64, rate: f64| {
            let mut ves = VirtualEnergySystem::new(solar_battery_share().with_initial_soc(soc));
            ves.set_charge_rate(Watts::new(rate));
            apply_simple(&mut ves, Watts::ZERO, 100.0);
            ves
        };
        let rooms = [0.0, 0.0, 110.0, 33.2];
        for (ves, room) in [
            VirtualEnergySystem::new(EnergyShare::grid_only()),
            VirtualEnergySystem::new(solar_battery_share()),
            charging(0.3, 70.0),
            charging(0.999, 10.0),
        ]
        .into_iter()
        .zip(rooms)
        {
            let dt = minute();
            assert!((ves.redistribution_room(dt).watts() - room).abs() < 0.1);
            for offered in [-5.0, 0.0, 0.1, 33.3, 110.0, 1e6].map(Watts::new) {
                let mut taker = ves.clone();
                let accepted = taker.accept_redistribution(offered, dt);
                assert_eq!(
                    accepted,
                    offered.max_zero().min(ves.redistribution_room(dt))
                );
            }
        }
    }

    #[test]
    fn totals_accumulate() {
        let mut ves = VirtualEnergySystem::new(EnergyShare::grid_only());
        for _ in 0..60 {
            apply_simple(&mut ves, Watts::new(60.0), 1000.0);
        }
        let t = ves.totals();
        assert!((t.energy.watt_hours() - 60.0).abs() < 1e-9);
        assert!((t.grid_energy.watt_hours() - 60.0).abs() < 1e-9);
        // 60 Wh at 1000 g/kWh = 60 g.
        assert!((t.carbon.grams() - 60.0).abs() < 1e-6);
    }

    #[test]
    fn max_discharge_clamped_to_virtual_battery() {
        let mut ves = VirtualEnergySystem::new(solar_battery_share());
        ves.set_max_discharge(Watts::new(100_000.0));
        assert_eq!(ves.max_discharge(), Watts::new(720.0)); // 1C of 720 Wh
                                                            // Without a battery, the setting pins to zero.
        let mut grid = VirtualEnergySystem::new(EnergyShare::grid_only());
        grid.set_max_discharge(Watts::new(100.0));
        assert_eq!(grid.max_discharge(), Watts::ZERO);
    }
}
