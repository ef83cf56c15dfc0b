//! Remote ecovisor: an application binary driving the energy system over
//! TCP — and reacting to server-push event upcalls.
//!
//! The server side owns the ecovisor and listens on a loopback port; the
//! application side connects with [`RemoteEcovisorClient`] (a JSON hello,
//! then protocol v2 in binary frames),
//! **subscribes to the Table 2 asynchronous notifications**, and runs
//! the same carbon-aware control loop it would run in-process — the
//! [`EnergyClient`] method surface is identical on both transports.
//! Instead of polling the carbon signal every tick, the application
//! updates its power cap when a pushed `CarbonChange` upcall says the
//! grid actually changed.
//!
//! ```text
//! cargo run --example remote_app
//! ```
//!
//! In a real deployment the application would live in another process on
//! another machine; here a thread stands in for it so the example is
//! self-contained.

use std::thread;

use carbon_intel::generator::CarbonTraceBuilder;
use carbon_intel::regions;
use container_cop::{AppId, ContainerSpec, CopConfig};
use ecovisor::{
    EcovisorBuilder, EcovisorServer, EnergyClient, EnergyShare, EventFilter, Notification,
    NotifyConfig, RemoteEcovisorClient, PROTOCOL_VERSION,
};
use simkit::units::{CarbonIntensity, WattHours, Watts};

const TICKS: u64 = 180; // three simulated hours at 1-minute ticks

/// The application process: connect, subscribe, then run the paper's
/// loop — adjust demand when the energy system *tells us* it changed.
fn run_application(addr: std::net::SocketAddr, app: AppId) {
    let mut api = RemoteEcovisorClient::connect(addr, app).expect("connect to ecovisor");
    println!("application connected: protocol v{PROTOCOL_VERSION}");
    api.subscribe_events(EventFilter::all())
        .expect("subscribe to upcalls");

    let container = api
        .launch_container(ContainerSpec::quad_core())
        .expect("launch container");
    api.set_container_demand(container, 1.0).expect("demand");
    api.set_battery_max_discharge(Watts::new(50.0));

    let threshold = CarbonIntensity::new(250.0);
    let mut intensity = api.get_grid_carbon();
    let (mut carbon_upcalls, mut battery_upcalls, mut solar_upcalls) = (0u32, 0u32, 0u32);
    for tick in 0..TICKS {
        // The pushed upcalls arrive on the same duplex connection; the
        // drain below collects whatever the last settlements delivered.
        for event in api.events() {
            match event {
                Notification::CarbonChange { current, .. } => {
                    intensity = current;
                    carbon_upcalls += 1;
                }
                Notification::BatteryFull | Notification::BatteryEmpty => battery_upcalls += 1,
                Notification::SolarChange { .. } => solar_upcalls += 1,
                Notification::BudgetExhausted { .. } => {}
            }
        }
        let cap = if intensity > threshold {
            Watts::new(1.8) // dirty grid: throttle to half dynamic power
        } else {
            Watts::new(10.0) // clean grid: effectively uncapped
        };
        api.set_container_powercap(container, cap).expect("cap");
        if tick % 30 == 0 {
            let power = api.get_container_power(container).expect("power");
            println!(
                "tick {tick:>3}: grid {:>6.1} g/kWh (pushed), container {:>5.2} W",
                intensity.grams_per_kwh(),
                power.watts()
            );
        }
        // One batch per tick flushes here; the server settles between
        // batches and pushes event frames after each settlement.
        api.flush();
    }

    let carbon = api.get_app_carbon();
    let now = api.now();
    let energy = api.get_app_energy(simkit::time::SimTime::EPOCH, now);
    println!(
        "application done: {:.2} Wh consumed, {:.2} g CO2 attributed; \
         upcalls received: {carbon_upcalls} carbon, {solar_upcalls} solar, {battery_upcalls} battery",
        energy.watt_hours(),
        carbon.grams()
    );
    assert!(
        carbon_upcalls > 0,
        "the simulated day must push carbon-change upcalls"
    );
}

fn main() {
    // --- Server side: the ecovisor process ---
    let carbon = CarbonTraceBuilder::new(regions::california())
        .days(1)
        .seed(42)
        .build();
    let mut eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(16))
        .carbon(carbon)
        .build();
    let app = eco
        .register_app(
            "remote-demo",
            EnergyShare::grid_only().with_battery(WattHours::new(180.0)),
        )
        .expect("register");
    // Minute-level carbon drift is small; lower the significance
    // threshold so the demo pushes a visible stream of upcalls.
    eco.set_notify_config(
        app,
        NotifyConfig {
            carbon_change_fraction: 0.01,
            ..NotifyConfig::default()
        },
    )
    .expect("notify config");

    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind loopback");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn accept loop");
    println!("ecovisor serving on {addr}");

    // --- Application side: a separate thread stands in for a separate
    // process ---
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let app_thread = {
        let done = std::sync::Arc::clone(&done);
        thread::spawn(move || {
            run_application(addr, app);
            done.store(true, std::sync::atomic::Ordering::SeqCst);
        })
    };

    // --- Driver loop: tick the shared ecovisor so the application's
    // batches settle (and its event frames are pushed), until the
    // application reports done (checking the thread too, so a panicked
    // application ends the run instead of hanging the driver) ---
    let shared = handle.ecovisor();
    while !done.load(std::sync::atomic::Ordering::SeqCst) && !app_thread.is_finished() {
        // The settlement barrier: dispatch from the application's
        // connection quiesces for exactly this call, and subscribed
        // connections receive their event frames before it lifts.
        shared.tick();
        // Give the application's round trips time to interleave.
        thread::sleep(std::time::Duration::from_micros(200));
    }

    app_thread.join().expect("application thread");
    let shared = handle.shutdown();
    let totals = shared.read(|eco| eco.app_totals(app).expect("totals"));
    // Slightly ahead of the application's last query: the free-running
    // driver settles a few more ticks before shutdown.
    println!(
        "server-side final ledger: {:.2} Wh, {:.2} g CO2",
        totals.energy.watt_hours(),
        totals.carbon.grams()
    );
}
