//! Fleet end-to-end: a coordinator sharding real jobs over in-process
//! worker servers must merge to **byte-identical** artifacts vs a
//! single-node run at the same seed — for every job kind, for any
//! worker count, and across worker failures (a registered-but-dead
//! address and a live worker killed mid-campaign). The coordinator's
//! control plane answers every route over HTTP, and a silent client
//! does not stall it.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use soteria_faultsim::{
    compare_config_from_json, config_from_json, crashck_config_from_json, run_spec, total_blocks,
    JobSpec,
};
use soteria_rt::json::Json;
use soteria_svc::{client, fleet, Coordinator, FleetConfig, Server, ServerConfig, ServerHandle};

/// Boots a worker server on an ephemeral port.
fn boot_worker() -> (SocketAddr, ServerHandle, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind worker");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());
    (addr, handle, join)
}

/// An address that accepts nothing: bound, resolved, then dropped.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind throwaway port");
    listener.local_addr().expect("throwaway addr")
}

fn fast_fleet_config(min_workers: usize, chunk_blocks: u64) -> FleetConfig {
    FleetConfig {
        min_workers,
        register_timeout: Duration::from_secs(10),
        chunk_blocks,
        poll_interval: Duration::from_millis(10),
        rpc_attempts: 2,
        rpc_backoff: Duration::from_millis(20),
        ..FleetConfig::default()
    }
}

/// Runs `kind`/`config_body` through a coordinator with the given
/// worker addresses (some may be dead) and returns the merged artifact.
fn run_fleet(
    kind: &str,
    config_body: &Json,
    worker_addrs: &[SocketAddr],
    config: FleetConfig,
    kill_mid_run: Option<ServerHandle>,
) -> (String, String) {
    let coordinator =
        Coordinator::bind("127.0.0.1:0", config).expect("bind coordinator control plane");
    let control = coordinator.local_addr();
    let kind = kind.to_string();
    let body = config_body.clone();
    let run = thread::spawn(move || coordinator.run(&kind, &body));
    for addr in worker_addrs {
        let id = fleet::register_worker(
            &control.to_string(),
            &addr.to_string(),
            10,
            Duration::from_millis(20),
            &Default::default(),
        )
        .expect("register worker");
        assert!(id < worker_addrs.len(), "worker ids are dense");
    }
    if let Some(handle) = kill_mid_run {
        thread::sleep(Duration::from_millis(40));
        handle.shutdown();
    }
    run.join()
        .expect("coordinator thread")
        .expect("fleet run must converge")
}

#[test]
fn fleet_campaign_is_byte_identical_to_single_node() {
    let body = Json::parse(r#"{"fit": 1500, "iterations": 192, "threads": 2, "seed": 42}"#).unwrap();
    let expected = run_spec(&JobSpec::Campaign(config_from_json(&body).unwrap()));

    let workers: Vec<_> = (0..3).map(|_| boot_worker()).collect();
    let addrs: Vec<_> = workers.iter().map(|(a, _, _)| *a).collect();
    let got = run_fleet("campaign", &body, &addrs, fast_fleet_config(3, 1), None);
    assert_eq!(got, expected, "3-worker campaign merge must match single-node bytes");

    for (_, handle, join) in workers {
        handle.shutdown();
        join.join().unwrap();
    }
}

#[test]
fn fleet_compare_and_crashck_are_byte_identical_to_single_node() {
    let compare_body = Json::parse(r#"{"fit": 1500, "iterations": 128, "seed": 9}"#).unwrap();
    let crashck_body = Json::parse(r#"{"seed": "0x50f3", "scripts_per_cell": 1}"#).unwrap();
    let expected_compare = run_spec(&JobSpec::Compare(
        compare_config_from_json(&compare_body).unwrap(),
    ));
    let expected_crashck = run_spec(&JobSpec::Crashck(
        crashck_config_from_json(&crashck_body).unwrap(),
    ));

    let workers: Vec<_> = (0..2).map(|_| boot_worker()).collect();
    let addrs: Vec<_> = workers.iter().map(|(a, _, _)| *a).collect();
    let got_compare = run_fleet("compare", &compare_body, &addrs, fast_fleet_config(2, 1), None);
    assert_eq!(got_compare, expected_compare, "compare merge must match single-node bytes");
    let got_crashck = run_fleet("crashck", &crashck_body, &addrs, fast_fleet_config(2, 4), None);
    assert_eq!(got_crashck, expected_crashck, "crashck merge must match single-node bytes");

    for (_, handle, join) in workers {
        handle.shutdown();
        join.join().unwrap();
    }
}

/// The resilience scenario: one registered worker is a dead address
/// (fails on first lease, deterministically exercising reassignment)
/// and one live worker is killed mid-campaign. The surviving workers
/// absorb the reassigned blocks and the merge still lands on the exact
/// single-node bytes.
#[test]
fn fleet_survives_dead_and_killed_workers_with_identical_bytes() {
    let body =
        Json::parse(r#"{"fit": 1500, "iterations": 1536, "threads": 1, "seed": 77}"#).unwrap();
    let expected = run_spec(&JobSpec::Campaign(config_from_json(&body).unwrap()));

    let workers: Vec<_> = (0..3).map(|_| boot_worker()).collect();
    let mut addrs: Vec<_> = workers.iter().map(|(a, _, _)| *a).collect();
    addrs.push(dead_addr());
    let victim = workers[0].1.clone();
    let got = run_fleet("campaign", &body, &addrs, fast_fleet_config(4, 2), Some(victim));
    assert_eq!(
        got, expected,
        "merge must match single-node bytes despite a dead and a killed worker"
    );

    for (_, handle, join) in workers.into_iter().skip(1) {
        handle.shutdown();
        join.join().unwrap();
    }
}

/// The control plane of a bound coordinator still waiting for its
/// quorum: every route answers over HTTP with its pinned status, the
/// metrics are exactly a 0-worker fleet's, and a client that connects
/// and sends nothing delays no other request.
#[test]
fn control_plane_answers_every_route_while_a_client_is_silent() {
    let body = Json::parse(r#"{"fit": 1500, "iterations": 128, "seed": 5}"#).unwrap();
    let blocks = total_blocks(&JobSpec::from_kind("campaign", &body).unwrap());
    let config = FleetConfig {
        register_timeout: Duration::from_secs(60),
        ..fast_fleet_config(1, 1)
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", config).expect("bind control plane");
    let control = coordinator.local_addr();
    let run = {
        let body = body.clone();
        thread::spawn(move || coordinator.run("campaign", &body))
    };

    let silent = TcpStream::connect(control).expect("connect silent client");
    let start = Instant::now();
    assert_eq!(client::get(control, "/healthz").unwrap().status, 200);
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(1), "/healthz took {elapsed:?} behind a silent client");

    let metrics = client::get(control, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.text(),
        format!(
            "# TYPE soteria_fleet_workers gauge\n\
             soteria_fleet_workers 0\n\
             # TYPE soteria_fleet_workers_alive gauge\n\
             soteria_fleet_workers_alive 0\n\
             # TYPE soteria_fleet_blocks_total gauge\n\
             soteria_fleet_blocks_total {blocks}\n\
             # TYPE soteria_fleet_blocks_in_flight gauge\n\
             soteria_fleet_blocks_in_flight 0\n\
             # TYPE soteria_fleet_merge_lag_blocks gauge\n\
             soteria_fleet_merge_lag_blocks {blocks}\n\
             # TYPE soteria_fleet_reassignments_total counter\n\
             soteria_fleet_reassignments_total 0\n\
             # TYPE soteria_fleet_worker_alive gauge\n\
             # TYPE soteria_fleet_worker_blocks_done counter\n"
        )
    );
    let status = client::get(control, "/v1/fleet").unwrap();
    assert_eq!(status.status, 200);
    assert_eq!(status.json().unwrap().get("finished"), Some(&Json::Bool(false)));

    for (method, path, body, expected) in [
        ("PUT", "/healthz", None, 405),
        ("GET", "/v1/fleet/register", None, 405),
        ("GET", "/v1/nowhere", None, 404),
        ("POST", "/v1/fleet/register", Some(("application/json", &b"{}"[..])), 400),
    ] {
        let resp = client::request(control, method, path, body).unwrap();
        assert_eq!(resp.status, expected, "{method} {path}: {}", resp.text());
    }
    // An over-limit Content-Length is refused before any body is read;
    // the client half-closes so the server's bounded drain ends at EOF.
    let mut oversized = TcpStream::connect(control).unwrap();
    oversized
        .write_all(b"POST /v1/fleet/register HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n")
        .unwrap();
    oversized.shutdown(Shutdown::Write).unwrap();
    let mut raw = String::new();
    oversized.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 413 "), "{raw}");
    // A body one byte over the 1 MiB default, sent in full after the head
    // arrived alone, is drained whole: the client reads the 413, not a
    // connection reset.
    let mut full = TcpStream::connect(control).unwrap();
    full.write_all(b"POST /v1/fleet/register HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n")
        .unwrap();
    thread::sleep(Duration::from_millis(50));
    full.write_all(&vec![b'x'; 1_048_577]).unwrap();
    let mut raw = String::new();
    full.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 413 "), "{raw}");
    drop(silent);

    // A registered address that accepts nothing meets the quorum and
    // dies on its first lease, which ends the run.
    fleet::register_worker(
        &control.to_string(),
        &dead_addr().to_string(),
        10,
        Duration::from_millis(20),
        &Default::default(),
    )
    .expect("register worker");
    let err = run.join().expect("coordinator thread").unwrap_err();
    assert!(err.contains("every worker died"), "{err}");
}
