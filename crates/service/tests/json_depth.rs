//! Deeply nested JSON bodies against a live server. The JSON parser
//! recurses once per nesting level; before its depth bound a 40 KB body
//! of `[` overflowed a reactor thread's stack and aborted the whole
//! process, so this file is its own test binary: a regression shows as
//! that binary dying, not as a neighbouring test's failure.

use ipe_schema::fixtures;
use ipe_service::{Client, Server, ServiceConfig};
use std::time::Duration;

/// Every JSON-body route answers a 20,000-deep `[` body with `400`, and
/// the server keeps serving afterwards.
#[test]
fn deeply_nested_bodies_are_400_and_the_server_survives() {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 1,
        request_timeout: Duration::from_secs(5),
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let mut c = Client::new(server.addr().to_string());
    let uni = fixtures::university().to_json();
    let (status, body) = c.request("PUT", "/v1/schemas/uni", &uni).unwrap();
    assert_eq!(status, 200, "{body}");

    let deep = "[".repeat(20_000);
    for (method, path) in [
        ("POST", "/v1/complete"),
        ("POST", "/v1/complete/batch"),
        ("POST", "/v1/query"),
        ("PUT", "/v1/schemas/deep"),
        ("PUT", "/v1/data/uni"),
        ("PUT", "/v1/tenants/deep"),
    ] {
        let (status, body) = c.request(method, path, &deep).unwrap();
        assert_eq!(status, 400, "{method} {path}: {body}");
        assert!(body.contains("nesting"), "{method} {path}: {body}");
        let (status, body) = c.request("GET", "/healthz", "").unwrap();
        assert_eq!(status, 200, "after {method} {path}: {body}");
    }
    // Nesting within the bound still reaches the handler's own checks.
    let (status, body) = c.request("POST", "/v1/complete", "[[[]]]").unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(!body.contains("nesting"), "{body}");
    server.shutdown();
}
