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
//! * what a tick *retains* is its samples' values, 8 bytes each, and
//!   nothing else (it was 16: every sample carried its own timestamp,
//!   which on a fixed Δt says nothing the first two did not) — the slope
//!   of a long-lived server's memory, and of `wire-control`'s peak RSS.
//!
//! Debug timings mean little in absolute terms, so CI runs this suite in
//! `--release` as well; the ratio holds in both.

use std::time::{Duration, Instant};

use container_cop::{ContainerSpec, CopConfig};
use ecovisor::{Ecovisor, EcovisorBuilder, EnergyClient, EnergyShare};
use simkit::units::WattHours;

#[path = "../../../vendor/serde/tests/common/counting_alloc.rs"]
mod counting_alloc;

/// `tenants` tenants with a solar share and a virtual battery each,
/// `containers` busy single-core containers per tenant, four to a server.
fn world(tenants: u32, containers: u32) -> Ecovisor {
    let servers = (tenants * containers).div_ceil(4);
    let mut eco = EcovisorBuilder::new()
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
        eco.begin_tick();
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

#[test]
fn a_tick_retains_eight_bytes_a_sample() {
    const TENANTS: u32 = 100;
    // Four containers: ten app series and two per container, 18 samples
    // per tenant-tick.
    const CONTAINERS: u32 = 4;
    // A `Vec` doubles, so what is live depends on where in a doubling the
    // reading falls: after 64 ticks and again after 128 every series is
    // exactly full, and the difference is what 64 ticks retained.
    const FULL: u32 = 64;
    let mut eco = world(TENANTS, CONTAINERS);
    settle(&mut eco, FULL);
    let before = counting_alloc::live_bytes();
    settle(&mut eco, FULL);
    let retained = counting_alloc::live_bytes() - before;
    let per_tenant_tick = retained as f64 / f64::from(FULL * TENANTS);
    assert!(
        (144.0..=176.0).contains(&per_tenant_tick),
        "{per_tenant_tick:.1} bytes retained per tenant-tick: 18 samples of 8 bytes are 144, \
         18 of 16 (a timestamp each) were 288"
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
