//! The hello exchange: what a connection must offer (the served wire
//! version and frame encoding) and prove (its app's credential) before
//! any batch is served.

use std::collections::BTreeMap;
use std::sync::Mutex;

use container_cop::AppId;
use serde::{Deserialize, Serialize};

use super::{WireCodec, SERVED_CODEC};
use crate::PROTOCOL_VERSION;

/// First frame of a connection, client → server (always JSON):
/// advertises every wire version the client speaks, every frame encoding
/// it accepts, and optionally the per-app credential token a hardened
/// server requires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientHelloV2 {
    /// Every wire version the client speaks. The server serves exactly
    /// one — [`PROTOCOL_VERSION`] — and rejects a list without it.
    pub versions: Vec<u16>,
    /// The tenant this connection acts for. The server **pins** the
    /// connection to this scope: every subsequent batch must carry the
    /// same `app`. Client-asserted unless the server carries a
    /// [`CredentialRegistry`], which verifies the claim before serving.
    pub app: AppId,
    /// Frame encodings the client accepts. The server serves exactly
    /// one — [`WireCodec::Binary`] — and rejects a list without it.
    pub codecs: Vec<WireCodec>,
    /// Per-app credential token, when the server demands one. Verified
    /// constant-time against the server's [`CredentialRegistry`] before
    /// any batch is dispatched.
    pub credential: Option<String>,
}

impl ClientHelloV2 {
    /// A hello advertising the wire version this build speaks.
    pub fn new(app: AppId, codecs: Vec<WireCodec>, credential: Option<String>) -> Self {
        Self {
            versions: vec![PROTOCOL_VERSION],
            app,
            codecs,
            credential,
        }
    }
}

/// Second frame of a connection, server → client (always JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerHello {
    /// The connection is open; all further frames use `codec` and the
    /// wire speaks `version`.
    Accept {
        /// The wire version of this connection (always
        /// [`PROTOCOL_VERSION`]).
        version: u16,
        /// The frame encoding of this connection (always
        /// [`WireCodec::Binary`]).
        codec: WireCodec,
    },
    /// The connection is refused; the server closes after this frame.
    Reject {
        /// Why the hello was not acceptable.
        reason: String,
    },
}

/// Constant-time byte-string equality: the comparison cost depends only
/// on the *lengths*, never on where the first mismatch sits, so a remote
/// peer cannot binary-search a token byte by byte from timing.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// The server-side table of per-app credential tokens.
///
/// Installed with
/// [`EcovisorServer::with_credentials`](crate::EcovisorServer::with_credentials);
/// once present, every connection must prove its claimed [`AppId`] with
/// the matching token in its [`ClientHelloV2`] **before any batch is
/// served** — rejections happen at hello time, so an unauthenticated
/// peer never reaches the dispatcher. Token comparison is constant-time.
#[derive(Debug, Clone, Default)]
pub struct CredentialRegistry {
    tokens: BTreeMap<AppId, Vec<u8>>,
}

impl CredentialRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) an app's credential token.
    pub fn insert(&mut self, app: AppId, token: impl Into<Vec<u8>>) {
        self.tokens.insert(app, token.into());
    }

    /// Builder-style [`insert`](Self::insert).
    #[must_use]
    pub fn with(mut self, app: AppId, token: impl Into<Vec<u8>>) -> Self {
        self.insert(app, token);
        self
    }

    /// Verifies a presented token against `app`'s registered one in
    /// constant time. A missing registration, a missing presentation,
    /// and a wrong token are all plain `false` — the caller's rejection
    /// message never distinguishes them.
    fn verify(&self, app: AppId, presented: Option<&str>) -> bool {
        // Compare against an empty token when either side is absent so
        // the call always performs a comparison.
        let stored: &[u8] = self.tokens.get(&app).map(Vec::as_slice).unwrap_or(&[]);
        let given: &[u8] = presented.map(str::as_bytes).unwrap_or(&[]);
        let shape_ok = self.tokens.contains_key(&app) && presented.is_some();
        constant_time_eq(stored, given) && shape_ok
    }
}

/// The verdict on a hello frame, with the (always-JSON) reply payload to
/// put on the wire.
pub(super) enum HelloOutcome {
    /// Send `reply` (an accept), then serve `app`.
    Accept { app: AppId, reply: Vec<u8> },
    /// Send `reply` (a reject), then close.
    Reject(Vec<u8>),
}

/// Evaluates a hello frame's bytes: wire version, credential gate (when
/// the server carries a registry — read under its lock at that step
/// only, so a token rotation never waits on a hello being parsed), frame
/// encoding.
pub(super) fn evaluate_hello(
    creds: &Mutex<Option<CredentialRegistry>>,
    hello_bytes: &[u8],
) -> HelloOutcome {
    let reject = |reason: String| {
        HelloOutcome::Reject(WireCodec::Json.encode(&ServerHello::Reject { reason }))
    };

    let hello = match WireCodec::Json.decode::<ClientHelloV2>(hello_bytes) {
        Ok(hello) => hello,
        Err(e) => return reject(format!("malformed hello: {e}")),
    };

    // One wire version is served; rejecting here keeps mismatched
    // clients away from the dispatcher entirely.
    if !hello.versions.contains(&PROTOCOL_VERSION) {
        return reject(format!(
            "protocol version mismatch: server speaks wire v{PROTOCOL_VERSION}, client offered {:?}",
            hello.versions
        ));
    }

    // Credential gate: the hello must prove its claimed app before
    // anything else is served. The reason string deliberately does not
    // say *what* failed.
    if let Some(creds) = &*crate::lock::lock(creds) {
        if !creds.verify(hello.app, hello.credential.as_deref()) {
            return reject(format!("credential rejected for {}", hello.app));
        }
    }

    if !hello.codecs.contains(&SERVED_CODEC) {
        return reject("no common codec".into());
    }

    let accept = ServerHello::Accept {
        version: PROTOCOL_VERSION,
        codec: SERVED_CODEC,
    };
    HelloOutcome::Accept {
        app: hello.app,
        reply: WireCodec::Json.encode(&accept),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_types_round_trip_in_json() {
        let hello = ClientHelloV2::new(
            AppId::new(3),
            vec![WireCodec::Binary, WireCodec::Json],
            Some("tenant-token".into()),
        );
        assert_eq!(hello.versions, vec![PROTOCOL_VERSION]);
        let back: ClientHelloV2 = WireCodec::Json
            .decode(&WireCodec::Json.encode(&hello))
            .expect("decode");
        assert_eq!(back, hello);
        for reply in [
            ServerHello::Accept {
                version: PROTOCOL_VERSION,
                codec: WireCodec::Binary,
            },
            ServerHello::Reject {
                reason: "no common codec".into(),
            },
        ] {
            let back: ServerHello = WireCodec::Json
                .decode(&WireCodec::Json.encode(&reply))
                .expect("decode");
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn only_a_hello_offering_the_served_wire_version_is_accepted() {
        let verdict = |versions: Vec<u16>| {
            let hello = ClientHelloV2 {
                versions,
                ..ClientHelloV2::new(AppId::new(1), vec![WireCodec::Binary], None)
            };
            match evaluate_hello(&Mutex::new(None), &WireCodec::Json.encode(&hello)) {
                HelloOutcome::Accept { reply, .. } | HelloOutcome::Reject(reply) => WireCodec::Json
                    .decode::<ServerHello>(&reply)
                    .expect("reply decodes"),
            }
        };
        let accept = ServerHello::Accept {
            version: PROTOCOL_VERSION,
            codec: WireCodec::Binary,
        };
        assert_eq!(verdict(vec![PROTOCOL_VERSION]), accept);
        assert_eq!(verdict(vec![1, PROTOCOL_VERSION, 9]), accept);
        for unserved in [vec![], vec![1], vec![PROTOCOL_VERSION + 1]] {
            assert!(
                matches!(verdict(unserved.clone()), ServerHello::Reject { reason } if reason.contains("version")),
                "{unserved:?} must be rejected"
            );
        }
    }

    #[test]
    fn constant_time_eq_is_correct() {
        assert!(constant_time_eq(b"secret", b"secret"));
        assert!(!constant_time_eq(b"secret", b"secreT"));
        assert!(!constant_time_eq(b"secret", b"secret2"));
        assert!(!constant_time_eq(b"", b"x"));
        assert!(constant_time_eq(b"", b""));
    }

    #[test]
    fn credential_registry_verifies() {
        let creds = CredentialRegistry::new().with(AppId::new(1), "alpha-token");
        assert!(creds.verify(AppId::new(1), Some("alpha-token")));
        assert!(!creds.verify(AppId::new(1), Some("beta-token")));
        assert!(!creds.verify(AppId::new(1), None));
        assert!(!creds.verify(AppId::new(2), Some("alpha-token")));
        // An empty presented token against an unregistered app must not
        // accidentally compare equal to the absent-entry placeholder.
        assert!(!creds.verify(AppId::new(2), Some("")));
    }
}
