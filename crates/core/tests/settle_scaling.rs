//! Settlement scales with what it settles: a host-independent gate.
//!
//! A tick costs a constant per tenant, per container and per sample
//! (`docs/ARCHITECTURE.md`, "What a tick costs"). Absolute times belong to
//! the benchmark; this suite holds the two *shapes* that made settlement
//! 96 % of a replayed day before the COP's owner index and the telemetry
//! handles:
//!
//! * allocations per steady-state tick are a small constant per tenant,
//!   whatever the number of samples a tenant records (they were a handful
//!   per sample: two key strings, a subject, an id vector);
//! * four times the tenants cost about four times the time (they cost
//!   sixteen: every per-owner COP accessor scanned every container);
//! * what a tick *retains* is the values of the samples that say
//!   something new, 8 bytes each, and nothing else (it was 16 for every
//!   sample: each carried its own timestamp, which on a fixed Δt says
//!   nothing the first two did not, and a value, which in a world nobody
//!   is changing says nothing the one before did not) — the slope of a
//!   long-lived server's memory, and of `wire-control`'s peak RSS.
//!
//! Debug timings mean little in absolute terms, so CI runs this suite in
//! `--release` as well; the ratio holds in both.

use std::time::{Duration, Instant};

use container_cop::{ContainerSpec, CopConfig};
use ecovisor::{Ecovisor, EcovisorBuilder, EnergyClient, EnergyShare, Snapshot};
use simkit::time::SimDuration;
use simkit::trace::{Extend, Trace};
use simkit::units::{WattHours, Watts};

#[path = "../../../vendor/serde/tests/common/counting_alloc.rs"]
mod counting_alloc;

/// `tenants` tenants with a solar share and a virtual battery each,
/// `containers` busy single-core containers per tenant, four to a server.
fn world(tenants: u32, containers: u32) -> Ecovisor {
    world_on(EcovisorBuilder::new(), tenants, containers)
}

/// [`world`] on `builder`'s solar array and grid.
fn world_on(builder: EcovisorBuilder, tenants: u32, containers: u32) -> Ecovisor {
    let servers = (tenants * containers).div_ceil(4);
    let mut eco = builder
        .cluster(CopConfig::microserver_cluster(servers))
        .build();
    for i in 0..tenants {
        let share = EnergyShare::grid_only()
            .with_solar_fraction(0.8 / f64::from(tenants))
            .with_battery(WattHours::new(800.0 / f64::from(tenants)));
        let app = eco.register_app(format!("t{i}"), share).expect("register");
        let mut client = eco.client(app).expect("registered");
        for _ in 0..containers {
            let c = client
                .launch_container(ContainerSpec::single_core())
                .expect("the cluster fits every container");
            client.set_container_demand(c, 0.5).expect("own container");
        }
    }
    eco
}

/// Runs `ticks` ticks and returns what the `settle_tick` calls alone cost.
fn settle(eco: &mut Ecovisor, ticks: u32) -> (u64, Vec<Duration>) {
    let mut allocations = 0;
    let mut times = Vec::new();
    for _ in 0..ticks {
        let before = counting_alloc::allocations();
        let start = Instant::now();
        eco.settle_tick();
        times.push(start.elapsed());
        allocations += counting_alloc::allocations() - before;
        eco.advance_clock();
    }
    (allocations, times)
}

#[test]
fn steady_state_allocations_are_per_tenant_not_per_sample() {
    const TENANTS: u32 = 200;
    // A series grows geometrically, so the 62 ticks after the 65th hold
    // at most one regrowth of each (none, while `Vec` doubles): per tick
    // that is a fraction of an allocation per series, where one
    // allocation per sample would be 12 or 32 per tenant.
    const WARM_UP: u32 = 65;
    const WINDOW: u32 = 62;
    let per_tenant_tick = |containers: u32| {
        let mut eco = world(TENANTS, containers);
        settle(&mut eco, WARM_UP);
        let (allocations, _) = settle(&mut eco, WINDOW);
        allocations as f64 / f64::from(WINDOW * TENANTS)
    };
    let (few_samples, many_samples) = (per_tenant_tick(1), per_tenant_tick(11));
    assert!(
        few_samples < 1.0 && many_samples < 1.0,
        "allocations per tenant-tick: {few_samples:.3} at 12 samples per tenant, \
         {many_samples:.3} at 32"
    );
}

/// Tenants and containers of the retention pins: ten app series and two
/// per container, 18 samples per tenant-tick.
const RETAINING_TENANTS: u32 = 100;
const RETAINING_CONTAINERS: u32 = 4;

/// What `ticks` more ticks leave allocated, per tenant-tick. `before_tick`
/// runs ahead of each.
fn retained_per_tenant_tick(
    eco: &mut Ecovisor,
    ticks: u32,
    mut before_tick: impl FnMut(&mut Ecovisor, u32),
) -> f64 {
    let before = counting_alloc::live_bytes();
    for tick in 0..ticks {
        before_tick(eco, tick);
        settle(eco, 1);
    }
    let retained = counting_alloc::live_bytes() - before;
    retained as f64 / f64::from(ticks * RETAINING_TENANTS)
}

/// A `Vec` doubles, so what is live depends on where in a doubling the
/// reading falls: after 64 ticks and again after 128 a series that moves
/// every tick is exactly full, and the difference is what 64 ticks
/// retained.
const FULL: u32 = 64;

#[test]
fn a_steady_tick_retains_next_to_nothing() {
    let mut eco = world(RETAINING_TENANTS, RETAINING_CONTAINERS);
    settle(&mut eco, FULL);
    let per_tenant_tick = retained_per_tenant_tick(&mut eco, FULL, |_, _| {});
    // Measured: 16.1. No sun, so every tenant's battery runs down: its
    // level and its state of charge are the two series in eighteen that
    // say something new, 8 bytes each; the other sixteen retain nothing.
    assert!(
        per_tenant_tick <= 17.0,
        "{per_tenant_tick:.1} bytes retained per tenant-tick by a world nobody is changing: \
         two samples in 18 move and are 16 bytes, all 18 were 144"
    );
}

#[test]
fn a_restored_world_retains_no_more_than_the_one_it_was_captured_from() {
    let unbuilt = counting_alloc::live_bytes();
    let mut eco = world(RETAINING_TENANTS, RETAINING_CONTAINERS);
    settle(&mut eco, 2 * FULL);
    let original_holds = counting_alloc::live_bytes() - unbuilt;
    // Neither the decoded snapshot (what the sample count on the wire
    // reserved is given back) nor the ecovisor it is applied to goes back
    // to 8 bytes a sample, which would be 1.8 MB of series here.
    // Measured: the original holds 774 kB, the decoded snapshot 579, the
    // restored world 623.
    let bytes = eco.snapshot().to_bytes();
    let before = counting_alloc::live_bytes();
    let decoded = Snapshot::from_bytes(&bytes).expect("own snapshot");
    let decoded_holds = counting_alloc::live_bytes() - before;
    let servers = (RETAINING_TENANTS * RETAINING_CONTAINERS).div_ceil(4);
    let builder = EcovisorBuilder::new().cluster(CopConfig::microserver_cluster(servers));
    let mut restored = builder.build();
    restored
        .apply_snapshot(&decoded)
        .expect("restores where it was captured");
    drop(decoded);
    let restored_holds = counting_alloc::live_bytes() - before;
    assert!(
        decoded_holds <= original_holds && restored_holds <= original_holds,
        "captured from a world holding {original_holds} bytes, the decoded snapshot holds \
         {decoded_holds} and the restored world {restored_holds}"
    );
    drop(restored);
}

#[test]
fn a_tick_retains_eight_bytes_a_sample() {
    // Nothing reads the same twice running: the sun is over a tenant's
    // demand one tick and under it the next (so its battery charges,
    // then discharges beside the grid), grid carbon wanders, and every
    // tenant changes every container's demand and both battery rates
    // every tick. Of a tenant's eighteen series only its container count
    // stands still.
    let dt = SimDuration::from_minutes(1);
    let cycle = |samples: Vec<f64>| Trace::from_samples(samples, dt).with_extend(Extend::Cycle);
    let sun = (0..96).map(|i| f64::from(i % 2 * 375 + 1 + i * 37 % 96));
    let carbon = (0..89).map(|i| 5.0 * f64::from(1 + i * 37 % 89));
    let builder = EcovisorBuilder::new()
        .tick_interval(dt)
        .solar(cycle(sun.collect()))
        .carbon(cycle(carbon.collect()));
    let mut eco = world_on(builder, RETAINING_TENANTS, RETAINING_CONTAINERS);
    let stir = |eco: &mut Ecovisor, tick: u32| {
        for app in eco.app_ids() {
            let mut client = eco.client(app).expect("registered");
            for (i, c) in client.container_ids().into_iter().enumerate() {
                let demand = 0.1 + 0.8 * f64::from((tick * 7 + i as u32 * 3) % 17) / 17.0;
                client
                    .set_container_demand(c, demand)
                    .expect("own container");
            }
            client.set_battery_charge_rate(Watts::new(0.1 + 0.01 * f64::from(tick % 7)));
            client.set_battery_max_discharge(Watts::new(0.5 + 0.01 * f64::from(tick % 11)));
        }
    };
    for tick in 0..FULL {
        stir(&mut eco, tick);
        settle(&mut eco, 1);
    }
    let per_tenant_tick = retained_per_tenant_tick(&mut eco, FULL, |eco, tick| {
        stir(eco, FULL + tick);
    });
    // Measured: 136.5.
    assert!(
        (130.0..=146.0).contains(&per_tenant_tick),
        "{per_tenant_tick:.1} bytes retained per tenant-tick: 17 samples of 8 bytes are 136, \
         all 18 would be 144, 18 of 16 (a timestamp each) were 288"
    );
}

#[test]
fn four_times_the_tenants_cost_about_four_times_the_tick() {
    let min_tick = |tenants: u32| {
        let mut eco = world(tenants, 2);
        settle(&mut eco, 3);
        let (_, times) = settle(&mut eco, 5);
        times.into_iter().min().expect("five ticks")
    };
    let (small, large) = (min_tick(1_000), min_tick(4_000));
    assert!(
        large < small * 8,
        "settle_tick took {small:?} at 1,000 tenants and {large:?} at 4,000: \
         linear is 4x, a scan of every container per tenant is 16x"
    );
}
