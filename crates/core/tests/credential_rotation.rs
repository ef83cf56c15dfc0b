//! Live credential rotation: `ServerHandle::rotate_credential` swaps a
//! tenant's token without a maintenance window — connections that
//! already authenticated keep serving, the old token dies at the next
//! hello, and rotation never silently *enables* authentication on a
//! server spawned without a registry.

use ecovisor::{
    CredentialRegistry, EcovisorBuilder, EcovisorServer, EnergyClient, EnergyShare,
    RemoteEcovisorClient, ServerHandle,
};
use simkit::units::Watts;

fn spawn_credentialed(workers: Option<usize>) -> (ServerHandle, container_cop::AppId) {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let mut server = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_credentials(CredentialRegistry::new().with(app, "original"));
    if let Some(n) = workers {
        server = server.with_workers(n);
    }
    (server.spawn().expect("spawn"), app)
}

fn rotation_respects_live_connections(workers: Option<usize>) {
    let (handle, app) = spawn_credentialed(workers);
    let mut live = RemoteEcovisorClient::connect_full(handle.addr(), app, Some("original".into()))
        .expect("connect with the original token");
    assert_eq!(live.get_grid_power(), Watts::ZERO);

    assert!(
        handle.rotate_credential(app, "rotated"),
        "rotation succeeds on a credentialed server"
    );

    // The already-authenticated connection is unaffected: rotation
    // gates hellos, not established sessions.
    assert_eq!(live.get_grid_power(), Watts::ZERO);

    // The old token dies at the next hello; the new one is accepted.
    let err = RemoteEcovisorClient::connect_full(handle.addr(), app, Some("original".into()))
        .expect_err("the retired token must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    let mut fresh = RemoteEcovisorClient::connect_full(handle.addr(), app, Some("rotated".into()))
        .expect("connect with the rotated token");
    assert_eq!(fresh.get_grid_power(), Watts::ZERO);

    // Both the pre- and post-rotation sessions keep serving side by side.
    assert_eq!(live.get_grid_power(), Watts::ZERO);
    handle.shutdown();
}

#[test]
fn rotation_takes_effect_at_the_next_hello_without_dropping_sessions() {
    rotation_respects_live_connections(None);
}

#[test]
fn rotation_holds_under_a_pinned_worker_pool() {
    rotation_respects_live_connections(Some(2));
}

/// Rotation can also *add* a tenant to the registry — onboarding a new
/// credentialed app on a live server.
#[test]
fn rotation_onboards_a_new_tenant() {
    let mut eco = EcovisorBuilder::new().build();
    let a = eco
        .register_app("tenant-a", EnergyShare::grid_only())
        .expect("register a");
    let b = eco
        .register_app("tenant-b", EnergyShare::grid_only())
        .expect("register b");
    let server = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_credentials(CredentialRegistry::new().with(a, "alpha"));
    let handle = server.spawn().expect("spawn");

    // B has no token yet: every hello for it is refused.
    let err = RemoteEcovisorClient::connect_full(handle.addr(), b, Some("beta".into()))
        .expect_err("unregistered tenant refused");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);

    assert!(handle.rotate_credential(b, "beta"), "onboarding succeeds");
    let mut cli = RemoteEcovisorClient::connect_full(handle.addr(), b, Some("beta".into()))
        .expect("onboarded tenant connects");
    assert_eq!(cli.get_grid_power(), Watts::ZERO);
    handle.shutdown();
}

/// A server spawned without a registry stays unauthenticated: rotation
/// reports `false`, changes nothing, and open connects keep working —
/// rotation must never be the thing that turns authentication on.
#[test]
fn rotation_refuses_to_enable_authentication() {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let handle = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .spawn()
        .expect("spawn");

    assert!(
        !handle.rotate_credential(app, "surprise"),
        "rotation on an open server must be refused"
    );
    let mut cli = RemoteEcovisorClient::connect(handle.addr(), app).expect("open connect");
    assert_eq!(cli.get_grid_power(), Watts::ZERO);
    handle.shutdown();
}
