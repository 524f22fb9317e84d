//! The controller's timeout retry loop against a peer that completes the
//! handshake and then never answers.

#![allow(clippy::unwrap_used)] // tests unwrap idiomatically

use bsa_control::{
    Backoff, ChipTarget, ClassifierConfig, ControlError, Controller, PolicyConfig, PolicyEngine,
    RetryPolicy, StateClassifier,
};
use bsa_link::{
    read_message, write_message, CultureSpec, Message, NeuroChipSpec, PROTOCOL_VERSION,
};
use bsa_station::{ClientConfig, StationClient};
use std::net::TcpListener;
use std::thread;
use std::time::Duration;

/// Every attempt times out, so `Controller::start` gives up after exactly
/// `max_attempts` requests with `Exhausted`.
#[test]
fn timed_out_requests_are_retried_until_exhausted() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let hello = read_message(&mut conn).unwrap();
        assert!(matches!(hello, Message::Hello { .. }), "got {hello:?}");
        write_message(
            &mut conn,
            &Message::HelloAck {
                server: "silent".into(),
                version: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        // Read requests without replying until the client hangs up.
        let mut attaches = 0;
        while let Ok(request) = read_message(&mut conn) {
            assert!(
                matches!(request, Message::AttachNeuro(_)),
                "got {request:?}"
            );
            attaches += 1;
        }
        attaches
    });

    let config = ClientConfig {
        connect_timeout: Some(Duration::from_secs(5)),
        io_timeout: Some(Duration::from_millis(200)),
    };
    let client = StationClient::connect_with(addr, "retry", &config).unwrap();
    let target = ChipTarget::Neuro {
        spec: NeuroChipSpec {
            rows: 16,
            cols: 16,
            channels: 4,
            seed: 1,
            frame_rate_hz: 0.0,
        },
        culture: CultureSpec {
            seed: 2,
            neuron_count: 4,
            spike_duration_s: 0.01,
        },
        frames_per_tick: 4,
    };
    let retry = RetryPolicy {
        max_attempts: 3,
        backoff: Backoff {
            base_ms: 1,
            factor: 2,
            max_ms: 10,
        },
    };
    let err = Controller::start(
        client,
        target,
        StateClassifier::new(ClassifierConfig::default()),
        PolicyEngine::new(3, PolicyConfig::default()),
        retry,
        "silent-station",
    )
    .unwrap_err();
    assert!(
        matches!(err, ControlError::Exhausted { attempts: 3 }),
        "got {err:?}"
    );
    assert_eq!(peer.join().unwrap(), 3);
}
