//! Grid connection model.
//!
//! The grid supplies (effectively) unlimited power on demand; what matters
//! for carbon efficiency is *how much* is drawn and *when* (intensity
//! varies). The connection meters cumulative import/export energy; carbon
//! attribution happens in the ecovisor using the carbon trace.

use serde::{Deserialize, Serialize};

use simkit::time::SimDuration;
use simkit::units::{WattHours, Watts};

/// A metered grid connection with an optional service-capacity limit and
/// optional net-metering (export) support.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridConnection {
    /// Maximum import power (`None` = unlimited, the common case).
    capacity: Option<Watts>,
    /// Whether exporting (net metering) is permitted. The paper's
    /// prototype "does not net meter solar power" (§4), so this defaults
    /// to `false` and excess solar is curtailed instead.
    net_metering: bool,
    imported: WattHours,
    exported: WattHours,
    peak_import: Watts,
}

impl Default for GridConnection {
    fn default() -> Self {
        Self::new()
    }
}

impl GridConnection {
    /// Creates an unlimited, import-only connection (paper prototype).
    pub fn new() -> Self {
        Self {
            capacity: None,
            net_metering: false,
            imported: WattHours::ZERO,
            exported: WattHours::ZERO,
            peak_import: Watts::ZERO,
        }
    }

    /// Limits import capacity (builder-style).
    pub fn with_capacity(mut self, capacity: Watts) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Enables net metering (builder-style).
    pub fn with_net_metering(mut self) -> Self {
        self.net_metering = true;
        self
    }

    /// Import capacity limit, if any.
    pub fn capacity(&self) -> Option<Watts> {
        self.capacity
    }

    /// Draws up to `power` for `dt`; returns the power actually supplied
    /// (limited by capacity). Negative requests are treated as zero.
    pub fn import(&mut self, power: Watts, dt: SimDuration) -> Watts {
        let requested = power.max_zero();
        let supplied = match self.capacity {
            Some(cap) => requested.min(cap),
            None => requested,
        };
        self.imported += supplied * dt;
        self.peak_import = self.peak_import.max(supplied);
        supplied
    }

    /// Exports `power` for `dt` if net metering is enabled; returns the
    /// power actually accepted by the grid (zero when disabled).
    pub fn export(&mut self, power: Watts, dt: SimDuration) -> Watts {
        if !self.net_metering {
            return Watts::ZERO;
        }
        let accepted = power.max_zero();
        self.exported += accepted * dt;
        accepted
    }

    /// Cumulative imported energy.
    pub fn total_imported(&self) -> WattHours {
        self.imported
    }

    /// Cumulative exported energy.
    pub fn total_exported(&self) -> WattHours {
        self.exported
    }

    /// Highest instantaneous import power observed.
    pub fn peak_import(&self) -> Watts {
        self.peak_import
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hour() -> SimDuration {
        SimDuration::from_hours(1)
    }

    #[test]
    fn unlimited_import_metered() {
        let mut g = GridConnection::new();
        assert_eq!(g.import(Watts::new(500.0), hour()), Watts::new(500.0));
        assert_eq!(g.total_imported(), WattHours::new(500.0));
        assert_eq!(g.peak_import(), Watts::new(500.0));
    }

    #[test]
    fn capacity_limits_import() {
        let mut g = GridConnection::new().with_capacity(Watts::new(100.0));
        assert_eq!(g.import(Watts::new(500.0), hour()), Watts::new(100.0));
        assert_eq!(g.total_imported(), WattHours::new(100.0));
    }

    #[test]
    fn export_requires_net_metering() {
        let mut g = GridConnection::new();
        assert_eq!(g.export(Watts::new(50.0), hour()), Watts::ZERO);
        assert_eq!(g.total_exported(), WattHours::ZERO);

        let mut nm = GridConnection::new().with_net_metering();
        assert_eq!(nm.export(Watts::new(50.0), hour()), Watts::new(50.0));
        assert_eq!(nm.total_exported(), WattHours::new(50.0));
    }

    #[test]
    fn negative_requests_ignored() {
        let mut g = GridConnection::new().with_net_metering();
        assert_eq!(g.import(Watts::new(-10.0), hour()), Watts::ZERO);
        assert_eq!(g.export(Watts::new(-10.0), hour()), Watts::ZERO);
        assert_eq!(g.total_imported(), WattHours::ZERO);
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut g = GridConnection::new();
        g.import(Watts::new(10.0), hour());
        g.import(Watts::new(80.0), hour());
        g.import(Watts::new(30.0), hour());
        assert_eq!(g.peak_import(), Watts::new(80.0));
    }
}
