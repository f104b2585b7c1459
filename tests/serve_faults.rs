//! Fault-injection suite for `deptree serve` and `deptree gateway`:
//! drives the real server — in-process for the protocol/load/drain
//! scenarios, as a child process for the SIGTERM ones — through
//! malformed frames, truncated frames, oversized bodies, slow clients,
//! mid-response disconnects, queue overflow, drain-under-load, and
//! worker faults behind the gateway.
//!
//! The standing assertions across every scenario:
//!
//! - **zero panics** — a worker that panics would poison its admission
//!   slot and show up as a hung `join`; every test ends with a clean
//!   drain + join;
//! - **bounded memory** — oversized headers/bodies are rejected from
//!   their declared sizes, before the bytes are buffered;
//! - **byte identity** — the server's `report` for a request equals the
//!   CLI's stdout for the same task, at thread counts 1 and 8, and so
//!   does the gateway's.

use deptree::core::engine::{signal, Exec};
use deptree::relation::examples::hotels_r1;
use deptree::relation::{parse_csv, to_csv, Relation, RelationBuilder, Value, ValueType};
use deptree::serve::protocol::Limits;
use deptree::serve::tasks::{profile, ProfileOpts};
use deptree::serve::{
    forward, spawn, spawn_gateway, ClientConfig, DatasetSpec, ErrorCode, GatewayConfig,
    GatewayHandle, Json, ListenOpts, ServeConfig, ServerHandle,
};
use deptree::synth::Rng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A relation wide enough that a TANE sweep at max LHS 8 cannot finish
/// inside a tight deadline — the reproducible "slow request".
fn wide_relation(n_attrs: usize, n_rows: usize, seed: u64) -> Relation {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = RelationBuilder::new();
    for a in 0..n_attrs {
        b = b.attr(format!("w{a}"), ValueType::Categorical);
    }
    for _ in 0..n_rows {
        b = b.row(
            (0..n_attrs)
                .map(|_| Value::str(format!("v{}", rng.random_range(0..3u8))))
                .collect(),
        );
    }
    b.build().expect("consistent arity")
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        datasets: vec![
            ("hotels".to_owned(), hotels_r1()),
            ("wide".to_owned(), wide_relation(14, 120, 7)),
        ],
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        drain_grace: Duration::from_millis(100),
        ..ServeConfig::default()
    }
}

fn start(config: ServeConfig) -> ServerHandle {
    spawn(config).expect("server should bind an ephemeral port")
}

fn stop(handle: ServerHandle) {
    handle.drain();
    handle.join();
}

fn client(handle: &ServerHandle) -> ClientConfig {
    ClientConfig {
        addr: handle.addr().to_string(),
        retries: 0,
        io_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    }
}

/// Send raw bytes on a fresh connection; return the raw response text
/// (may be empty when the server just closes).
fn raw(handle: &ServerHandle, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    s.write_all(bytes).expect("send");
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

fn body_of(response: &str) -> Json {
    let payload = response
        .split("\r\n\r\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no body in response: {response:?}"));
    Json::parse(payload).unwrap_or_else(|e| panic!("bad JSON body {payload:?}: {e}"))
}

fn error_code_of(response: &str) -> String {
    body_of(response)
        .get("error")
        .and_then(|e| e.str_field("code"))
        .unwrap_or_else(|| panic!("no error code in {response:?}"))
        .to_owned()
}

fn discover_body(dataset: &str) -> Json {
    Json::obj().set("dataset", dataset).set("max_lhs", 2u64)
}

#[test]
fn malformed_frames_get_structured_errors_and_the_server_survives() {
    let handle = start(test_config());

    // Not HTTP at all.
    let resp = raw(&handle, b"THIS IS NOT HTTP\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp:?}");
    assert_eq!(error_code_of(&resp), "bad_request");

    // Unsupported transfer encoding.
    let resp = raw(
        &handle,
        b"POST /v1/detect HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp:?}");

    // Unparseable content length.
    let resp = raw(
        &handle,
        b"POST /v1/detect HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp:?}");

    // Bad JSON in an otherwise fine frame.
    let resp = raw(
        &handle,
        b"POST /v1/detect HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json",
    );
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp:?}");
    assert_eq!(error_code_of(&resp), "parse");

    // The server still serves after all of that.
    let resp = deptree::serve::query(&client(&handle), "GET", "/healthz", None)
        .expect("healthz after malformed frames");
    assert_eq!(resp.status, 200);
    stop(handle);
}

#[test]
fn truncated_frames_do_not_wedge_workers() {
    let handle = start(test_config());

    // Header cut off mid-line, then the client vanishes.
    {
        let mut s = TcpStream::connect(handle.addr()).expect("connect");
        s.write_all(b"POST /v1/dete").expect("send");
    } // dropped: close mid-header

    // Body shorter than its declared Content-Length, then close.
    {
        let mut s = TcpStream::connect(handle.addr()).expect("connect");
        s.write_all(b"POST /v1/detect HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"da")
            .expect("send");
    } // dropped: close mid-body

    // Both workers must still be alive and serving.
    for _ in 0..3 {
        let resp = deptree::serve::query(
            &client(&handle),
            "POST",
            "/v1/detect",
            Some(
                &Json::obj()
                    .set("dataset", "hotels")
                    .set("rule", "address -> region"),
            ),
        )
        .expect("detect after truncated frames");
        assert_eq!(resp.status, 200);
        assert!(resp
            .body
            .str_field("report")
            .expect("report")
            .contains("2 violation witness(es)"),);
    }
    stop(handle);
}

#[test]
fn oversized_headers_and_bodies_are_rejected_from_their_declared_size() {
    let config = ServeConfig {
        limits: Limits {
            max_header_bytes: 512,
            max_body_bytes: 1024,
        },
        ..test_config()
    };
    let handle = start(config);

    // Body rejected on Content-Length alone — the server answers 413
    // without reading (or buffering) the payload.
    let resp = raw(
        &handle,
        b"POST /v1/detect HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp:?}");
    assert_eq!(error_code_of(&resp), "too_large");

    // Header block over the cap.
    let mut frame = b"POST /v1/detect HTTP/1.1\r\n".to_vec();
    frame.extend_from_slice(format!("X-Padding: {}\r\n\r\n", "y".repeat(2048)).as_bytes());
    let resp = raw(&handle, &frame);
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp:?}");

    let ok = deptree::serve::query(&client(&handle), "GET", "/readyz", None)
        .expect("readyz after oversized frames");
    assert_eq!(ok.status, 200);
    stop(handle);
}

#[test]
fn slow_loris_is_cut_off_by_the_read_timeout() {
    let config = ServeConfig {
        read_timeout: Duration::from_millis(100),
        ..test_config()
    };
    let handle = start(config);

    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // Drip half a request and then just wait for the answer: the server's
    // read timeout fires on its own, so no fixed client-side sleep is
    // needed — `read_to_string` blocks until the 408 + close arrive.
    s.write_all(b"POST /v1/detect HTT").expect("send");
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 408"), "{out:?}");
    assert_eq!(error_code_of(&out), "timeout");

    let ok = deptree::serve::query(&client(&handle), "GET", "/healthz", None)
        .expect("healthz after slow loris");
    assert_eq!(ok.status, 200);
    stop(handle);
}

#[test]
fn drip_fed_slow_loris_is_cut_off_by_the_frame_deadline() {
    let config = ServeConfig {
        read_timeout: Duration::from_millis(120),
        frame_timeout: Duration::from_millis(400),
        ..test_config()
    };
    let handle = start(config);

    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // Drip one header byte every 40 ms: each byte resets a naive
    // per-read timeout, so only the absolute frame deadline can end
    // this. Keep dripping well past the deadline, then collect the 408.
    let started = std::time::Instant::now();
    s.write_all(b"POST /v1/detect HTTP/1.1\r\n").expect("send");
    while started.elapsed() < Duration::from_millis(900) {
        if s.write_all(b"x").is_err() {
            break; // the server already hung up on us — expected
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 408"), "{out:?}");
    assert_eq!(error_code_of(&out), "timeout");

    let ok = deptree::serve::query(&client(&handle), "GET", "/healthz", None)
        .expect("healthz after drip-fed slow loris");
    assert_eq!(ok.status, 200);
    stop(handle);
}

#[test]
fn mid_response_disconnects_are_absorbed() {
    let handle = start(test_config());

    // Fire requests and hang up without reading the answer.
    for _ in 0..5 {
        let mut s = TcpStream::connect(handle.addr()).expect("connect");
        let body = discover_body("hotels").render();
        let frame = format!(
            "POST /v1/discover HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        s.write_all(frame.as_bytes()).expect("send");
        drop(s); // vanish before the response is written
    }

    let resp = deptree::serve::query(
        &client(&handle),
        "POST",
        "/v1/discover",
        Some(&discover_body("hotels")),
    )
    .expect("discover after mid-response disconnects");
    assert_eq!(resp.status, 200);
    stop(handle);
}

#[test]
fn queue_overflow_sheds_with_429_under_concurrent_load() {
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..test_config()
    };
    let handle = start(config);
    let addr = handle.addr().to_string();

    // Six concurrent slow requests against one worker and one queue
    // slot: some must be shed, and the shed ones answer 429 — they are
    // not silently dropped, and the server does not fall over.
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let config = ClientConfig {
                    addr,
                    retries: 0,
                    io_timeout: Duration::from_secs(30),
                    seed: i as u64,
                    ..ClientConfig::default()
                };
                let body = Json::obj()
                    .set("dataset", "wide")
                    .set("max_lhs", 8u64)
                    .set("timeout_ms", 300u64);
                deptree::serve::query(&config, "POST", "/v1/discover", Some(&body))
            })
        })
        .collect();

    let mut ok = 0u32;
    let mut shed = 0u32;
    for c in clients {
        match c.join().expect("client thread must not panic") {
            Ok(resp) => {
                assert_eq!(resp.status, 200);
                ok += 1;
            }
            Err(e) => {
                assert_eq!(e.code, ErrorCode::Overloaded, "{e}");
                shed += 1;
            }
        }
    }
    assert!(
        ok >= 1,
        "at least one request should be served (ok={ok}, shed={shed})"
    );
    assert!(
        shed >= 1,
        "at least one request should be shed (ok={ok}, shed={shed})"
    );
    assert_eq!(ok + shed, 6);
    assert_eq!(handle.shed() as u32, shed);
    stop(handle);
}

#[test]
fn drain_under_load_cancels_to_sound_partials_and_exits_clean() {
    let config = ServeConfig {
        drain_grace: Duration::from_millis(50),
        // A lattice big enough (C(18,≤8) ≈ 10⁵ nodes) that the slow
        // request is still running when the 2s drain grace below expires,
        // even on a fast machine.
        datasets: vec![("wide".to_owned(), wide_relation(18, 200, 7))],
        ..test_config()
    };
    let handle = start(config);
    let addr = handle.addr().to_string();

    // A request slow enough to still be running when drain begins.
    let slow = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let config = ClientConfig {
                addr,
                retries: 0,
                io_timeout: Duration::from_secs(30),
                ..ClientConfig::default()
            };
            let body = Json::obj()
                .set("dataset", "wide")
                .set("max_lhs", 8u64)
                .set("timeout_ms", 10_000u64);
            deptree::serve::query(&config, "POST", "/v1/discover", Some(&body))
        })
    };

    // Wait until the request is actually in flight.
    let mut waited = 0;
    while handle.drain_state().inflight() == 0 && waited < 5_000 {
        std::thread::sleep(Duration::from_millis(5));
        waited += 5;
    }
    assert!(
        handle.drain_state().inflight() > 0,
        "slow request never started"
    );

    // Soft phase: begin the drain on a side thread so we can probe
    // readiness while it runs.
    let drainer = {
        let state = std::sync::Arc::clone(handle.drain_state());
        // A 2s grace keeps the soft phase open long enough for the
        // readiness probes below even on a heavily loaded CI machine;
        // the in-flight request is cancelled the moment it expires, so
        // the test still finishes promptly.
        std::thread::spawn(move || {
            deptree::serve::drain::run_drain(&state, Duration::from_millis(2_000))
        })
    };
    while !handle.drain_state().is_draining() {
        std::thread::yield_now();
    }

    // Readiness flips while the process still accepts connections…
    let probe = ClientConfig {
        addr: addr.clone(),
        retries: 0,
        ..ClientConfig::default()
    };
    let ready = deptree::serve::query(&probe, "GET", "/readyz", None);
    match ready {
        Err(e) => assert_eq!(e.code, ErrorCode::Draining, "{e}"),
        Ok(r) => panic!("readyz should refuse during drain, got {}", r.status),
    }
    // …and new task work is refused with `draining`.
    let refused = deptree::serve::query(
        &probe,
        "POST",
        "/v1/discover",
        Some(&discover_body("hotels")),
    );
    match refused {
        Err(e) => assert_eq!(e.code, ErrorCode::Draining, "{e}"),
        Ok(r) => panic!("task work should be refused during drain, got {}", r.status),
    }

    // The in-flight request is hard-cancelled after the grace period and
    // still answers 200 with its sound partial.
    let resp = slow
        .join()
        .expect("slow client must not panic")
        .expect("cancelled request still gets its partial");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body.bool_field("partial"), Some(true));
    assert_eq!(resp.body.str_field("exhausted"), Some("cancelled"));

    drainer.join().expect("drain coordinator must not panic");
    handle.join();

    // Fully stopped: new connections are refused.
    assert!(
        TcpStream::connect_timeout(&addr.parse().expect("addr"), Duration::from_millis(500))
            .is_err()
    );
}

#[test]
fn sigterm_drains_the_real_binary_to_exit_zero() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_deptree"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args([
            "serve",
            "--data",
            "hotels=data/hotels.csv:t,t,t,n,n",
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn deptree serve");

    // Scrape the bound address off the first stdout line.
    let mut stdout = child.stdout.take().expect("stdout");
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while stdout.read(&mut byte).unwrap_or(0) == 1 && byte[0] != b'\n' {
        line.push(byte[0]);
    }
    let line = String::from_utf8_lossy(&line).into_owned();
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .trim()
        .to_owned();

    // Drain the child's stderr on a side thread so the pipe can never
    // fill up and wedge the server mid-drain.
    let mut stderr = child.stderr.take().expect("stderr");
    let stderr_reader = std::thread::spawn(move || {
        let mut buf = String::new();
        let _ = stderr.read_to_string(&mut buf);
        buf
    });

    // Wait until the server answers /readyz 200 before doing anything
    // else: this pins "fully up" to an observed fact rather than a guess,
    // so the signal handler is provably installed (it goes in before the
    // listener is even announced) and the round trips below cannot race
    // server startup under load.
    let config = ClientConfig {
        addr,
        retries: 0,
        ..ClientConfig::default()
    };
    let ready_deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match deptree::serve::query(&config, "GET", "/readyz", None) {
            Ok(resp) if resp.status == 200 => break,
            _ if std::time::Instant::now() > ready_deadline => {
                let _ = child.kill();
                panic!("server never became ready within 10s");
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }

    // One real round trip through the child server.
    let config = ClientConfig {
        retries: 2,
        ..config
    };
    let resp = deptree::serve::query(
        &config,
        "POST",
        "/v1/detect",
        Some(
            &Json::obj()
                .set("dataset", "hotels")
                .set("rule", "address -> region"),
        ),
    )
    .expect("detect against child server");
    assert_eq!(resp.status, 200);

    // The black box is lit: /metrics on the real binary counts the
    // round trips we just made.
    let (status, metrics) =
        deptree::serve::fetch_text(&config, "/metrics").expect("metrics from child server");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("deptree_requests_total{route=\"/v1/detect\",status=\"200\"}"),
        "metrics missing the detect round trip:\n{metrics}"
    );
    assert!(
        metrics.contains("deptree_requests_total{route=\"/readyz\",status=\"200\"}"),
        "metrics missing the readiness polls:\n{metrics}"
    );

    // SIGTERM → graceful drain → exit 0.
    let pid = child.id();
    let kill = Command::new("sh")
        .args(["-c", &format!("kill -TERM {pid}")])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());

    let exit_deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "server should exit 0, got {status:?}");
                break;
            }
            None if std::time::Instant::now() > exit_deadline => {
                let _ = child.kill();
                panic!("server did not exit within 10s of SIGTERM");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }

    // The drain actually ran (and said so), rather than the process
    // dying some other way that happens to exit 0.
    let stderr = stderr_reader.join().expect("stderr reader");
    assert!(
        stderr.contains("signal received — draining"),
        "expected drain banner in stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("drained; exiting"),
        "expected drain completion in stderr:\n{stderr}"
    );
}

#[test]
fn metrics_scrape_under_load_exposes_the_required_series() {
    let config = ServeConfig {
        workers: 2,
        ..test_config()
    };
    let handle = start(config);
    let addr = handle.addr().to_string();

    // Concurrent task traffic while we scrape: the endpoint must answer
    // correctly mid-flight, not just on an idle server.
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let config = ClientConfig {
                    addr,
                    retries: 1,
                    io_timeout: Duration::from_secs(30),
                    seed: i as u64,
                    ..ClientConfig::default()
                };
                let body = discover_body("hotels");
                deptree::serve::query(&config, "POST", "/v1/discover", Some(&body))
            })
        })
        .collect();

    let (status, text) =
        deptree::serve::fetch_text(&client(&handle), "/metrics").expect("scrape under load");
    assert_eq!(status, 200);

    for c in clients {
        let resp = c
            .join()
            .expect("client thread must not panic")
            .expect("discover under scrape");
        assert_eq!(resp.status, 200);
    }

    // A second scrape after the traffic settles: every required family
    // must be present, and the exposition must be structurally sane.
    let (status, text2) =
        deptree::serve::fetch_text(&client(&handle), "/metrics").expect("scrape after load");
    assert_eq!(status, 200);
    for series in [
        "deptree_requests_total",
        "deptree_shed_total",
        "deptree_request_duration_seconds_bucket",
        "deptree_request_duration_seconds_sum",
        "deptree_request_duration_seconds_count",
        "deptree_inflight_requests",
        "deptree_cache_hits_total",
        "deptree_cache_misses_total",
        "deptree_response_cache_hits_total",
        "deptree_response_cache_misses_total",
        "deptree_response_cache_evictions_total",
        "deptree_response_cache_bytes",
    ] {
        assert!(text2.contains(series), "missing {series} in:\n{text2}");
    }
    assert!(
        text2.contains("deptree_requests_total{route=\"/v1/discover\",status=\"200\"}"),
        "discover traffic not counted:\n{text2}"
    );
    // Both scrapes are well-formed: every non-comment line is
    // `name{labels} value` or `name value` with a parseable float.
    for scrape in [&text, &text2] {
        for line in scrape.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            value.parse::<f64>().expect("metric value parses as f64");
        }
    }
    stop(handle);
}

/// Run the CLI binary and return its stdout.
fn cli_stdout(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_deptree"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("run deptree");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn server_reports_are_byte_identical_to_the_cli_at_any_thread_count() {
    let numeric_csv = numeric_table_csv();
    let numeric_path = write_temp_text("numeric-cli", &numeric_csv);
    let numeric = parse_csv(&numeric_csv, &NUMERIC_TYPES).expect("numeric table parses");
    for threads in [1usize, 8] {
        let mut config = ServeConfig {
            threads,
            ..test_config()
        };
        config
            .datasets
            .push(("numeric".to_owned(), numeric.clone()));
        let handle = start(config);
        let client = client(&handle);
        let t = threads.to_string();

        // profile / discover
        let cli = cli_stdout(&[
            "profile",
            "data/hotels.csv",
            "--types",
            "t,t,t,n,n",
            "--max-lhs",
            "2",
            "--threads",
            &t,
        ]);
        let resp = deptree::serve::query(
            &client,
            "POST",
            "/v1/discover",
            Some(&discover_body("hotels")),
        )
        .expect("discover");
        assert_eq!(
            resp.body.str_field("report").expect("report"),
            cli,
            "discover report diverges from CLI stdout at {threads} thread(s)"
        );

        // discover past the FASTDC row gate: the server's deadline must
        // not change which profile stages run.
        let cli = cli_stdout(&[
            "profile",
            &numeric_path.display().to_string(),
            "--types",
            "c,n,n,n",
            "--max-lhs",
            "2",
            "--threads",
            &t,
        ]);
        let resp = deptree::serve::query(
            &client,
            "POST",
            "/v1/discover",
            Some(&discover_body("numeric")),
        )
        .expect("discover numeric");
        assert_eq!(resp.body.bool_field("partial"), Some(false));
        assert_eq!(
            resp.body.str_field("report").expect("report"),
            cli,
            "numeric discover report diverges from CLI stdout at {threads} thread(s)"
        );

        // detect
        let cli = cli_stdout(&[
            "detect",
            "data/hotels.csv",
            "--types",
            "t,t,t,n,n",
            "--rule",
            "address -> region",
        ]);
        let resp = deptree::serve::query(
            &client,
            "POST",
            "/v1/detect",
            Some(
                &Json::obj()
                    .set("dataset", "hotels")
                    .set("rule", "address -> region"),
            ),
        )
        .expect("detect");
        assert_eq!(
            resp.body.str_field("report").expect("report"),
            cli,
            "detect report diverges from CLI stdout at {threads} thread(s)"
        );

        stop(handle);
    }
    let _ = std::fs::remove_file(&numeric_path);
}

#[test]
fn retryable_draining_exhausts_the_retry_budget() {
    let handle = start(test_config());
    handle.drain_state().begin(); // soft drain: readyz 503, tasks refused

    let config = ClientConfig {
        addr: handle.addr().to_string(),
        retries: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        ..ClientConfig::default()
    };
    let err = deptree::serve::query(
        &config,
        "POST",
        "/v1/discover",
        Some(&discover_body("hotels")),
    )
    .expect_err("draining server must not serve task work");
    // All attempts consumed on the retryable `draining` answer; the last
    // answer's code is surfaced as the terminal error (exit 2 class).
    assert_eq!(err.attempts, 3);
    assert_eq!(err.code, ErrorCode::Draining, "{err}");
    assert_eq!(err.code.exit_code(), 2);

    stop(handle);
}

// ───────────────────────── gateway_faults ─────────────────────────
//
// The same standing assertions, one level up: `deptree gateway` fronts a
// supervised fleet of `deptree serve` workers, and no worker fault — a
// SIGKILLed home worker, a SIGSTOPped one, a crash-looping binary, a
// rolling restart — may surface as a failed request or as an answer
// that differs from the CLI's.

/// Write CSV text to a temp file the CLI and worker processes can load.
fn write_temp_text(tag: &str, csv: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("deptree-gwtest-{}-{tag}.csv", std::process::id()));
    std::fs::write(&path, csv).expect("write dataset csv");
    path
}

/// Write a relation to a temp CSV the worker processes can load.
fn write_temp_csv(tag: &str, r: &Relation) -> PathBuf {
    write_temp_text(tag, &to_csv(r))
}

/// Eight rows, each region's rows contiguous, on which exactly
/// `city -> region`, `store -> city` and `store -> region` hold. Either
/// half of the rows sees `region` as a constant, so discovery over row
/// slices would report `-> region` in place of the FDs into it: only an
/// answer computed on the whole table is right.
const REGIONS_CSV: &str = "city,region,store\n\
    c1,north,s1\nc1,north,s2\nc2,north,s3\nc2,north,s4\n\
    c3,south,s5\nc3,south,s6\nc4,south,s7\nc4,south,s8\n";

/// Column types of [`numeric_table_csv`].
const NUMERIC_TYPES: [ValueType; 4] = [
    ValueType::Categorical,
    ValueType::Numeric,
    ValueType::Numeric,
    ValueType::Numeric,
];

/// 2,000 rows of one categorical and three numeric columns: past the
/// profile's 500-row FASTDC gate, so the CLI, the server and the gateway
/// must all skip FASTDC on it, whatever deadline each runs under.
fn numeric_table_csv() -> String {
    let mut rng = Rng::seed_from_u64(29);
    let mut csv = String::from("shop,qty,price,total\n");
    for _ in 0..2000 {
        let shop = rng.random_range(0..6u8);
        let qty = rng.random_range(1..50u32);
        let price = rng.random_range(1..20u32);
        csv.push_str(&format!("s{shop},{qty},{price},{}\n", qty * price));
    }
    csv
}

/// The in-process profile of `r` at max LHS 2: what every gateway
/// discover on it must report.
fn profile_report(r: &Relation) -> String {
    profile(
        r,
        &ProfileOpts {
            max_lhs: 2,
            error: 0.0,
        },
        &Exec::unbounded(),
    )
    .text
}

/// A reply body with every `elapsed_ms` field dropped: wall-clock time
/// is the one part two runs of an uncached request cannot share.
fn timeless(body: &[u8]) -> Json {
    fn strip(v: Json) -> Json {
        match v {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "elapsed_ms")
                    .map(|(k, v)| (k, strip(v)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.into_iter().map(strip).collect()),
            other => other,
        }
    }
    let text = std::str::from_utf8(body).expect("UTF-8 reply");
    strip(Json::parse(text).expect("JSON reply"))
}

/// `a -> b` holds by construction; `c` and `d` are noise so discovery
/// has candidates to reject as well as accept.
fn planted_relation(n_rows: usize, seed: u64) -> Relation {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = RelationBuilder::new()
        .attr("a", ValueType::Categorical)
        .attr("b", ValueType::Categorical)
        .attr("c", ValueType::Categorical)
        .attr("d", ValueType::Categorical);
    for _ in 0..n_rows {
        let x = rng.random_range(0..40u8);
        b = b.row(vec![
            Value::str(format!("v{x}")),
            Value::str(format!("w{}", x % 10)),
            Value::str(format!("p{}", rng.random_range(0..3u8))),
            Value::str(format!("q{}", rng.random_range(0..3u8))),
        ]);
    }
    b.build().expect("consistent arity")
}

/// Gateway config pointed at the real `deptree` binary as the worker.
fn gateway_config(datasets: Vec<DatasetSpec>, workers: usize) -> GatewayConfig {
    GatewayConfig {
        worker_bin: PathBuf::from(env!("CARGO_BIN_EXE_deptree")),
        workers,
        datasets,
        probe_interval: Duration::from_millis(100),
        listen: ListenOpts {
            addr: "127.0.0.1:0".to_owned(),
            ..ListenOpts::default()
        },
        ..GatewayConfig::default()
    }
}

fn gw_client(handle: &GatewayHandle) -> ClientConfig {
    ClientConfig {
        addr: handle.addr().to_string(),
        retries: 0,
        io_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    }
}

/// Poll the gateway's `/readyz` until at least `want` workers are up.
fn wait_workers_up(cfg: &ClientConfig, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(resp) = deptree::serve::query(cfg, "GET", "/readyz", None) {
            if resp.status == 200 && resp.body.u64_field("workers_up").unwrap_or(0) >= want {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "gateway workers did not come up within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn fds_of(body: &Json) -> Vec<String> {
    body.get("fds")
        .and_then(Json::as_arr)
        .map(|list| {
            list.iter()
                .filter_map(Json::as_str)
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default()
}

/// Spawn the real binary, scrape `listening on ADDR` off stdout, and
/// drain stderr on a side thread so the pipe can never wedge the child.
fn spawn_binary(args: &[&str]) -> (std::process::Child, String, std::thread::JoinHandle<String>) {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_deptree"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn deptree");
    let mut stdout = child.stdout.take().expect("stdout");
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while stdout.read(&mut byte).unwrap_or(0) == 1 && byte[0] != b'\n' {
        line.push(byte[0]);
    }
    let line = String::from_utf8_lossy(&line).into_owned();
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .trim()
        .to_owned();
    let mut stderr = child.stderr.take().expect("stderr");
    let stderr_reader = std::thread::spawn(move || {
        let mut buf = String::new();
        let _ = stderr.read_to_string(&mut buf);
        buf
    });
    (child, addr, stderr_reader)
}

fn wait_exit(child: &mut std::process::Child, within: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + within;
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => return status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("child did not exit within {within:?}");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn sh(cmd: &str) -> bool {
    std::process::Command::new("sh")
        .args(["-c", cmd])
        .status()
        .expect("run sh")
        .success()
}

#[test]
fn gateway_proxies_whole_dataset_requests_byte_identically() {
    let planted = write_temp_csv("proxy", &planted_relation(40, 3));
    let regions = write_temp_text("regions", REGIONS_CSV);
    let numeric = write_temp_text("numeric-gw", &numeric_table_csv());
    let spec = |name: &str, path: &PathBuf, types: Option<&str>| DatasetSpec {
        name: name.to_owned(),
        path: path.display().to_string(),
        types: types.map(str::to_owned),
    };
    let datasets = vec![
        spec("planted", &planted, None),
        spec("regions", &regions, None),
        spec("numeric", &numeric, Some("c,n,n,n")),
    ];
    for threads in [1usize, 8] {
        let config = GatewayConfig {
            worker_threads: threads,
            ..gateway_config(datasets.clone(), 2)
        };
        let handle = spawn_gateway(config).expect("gateway");
        let cfg = gw_client(&handle);
        wait_workers_up(&cfg, 2);

        // The home worker's own address, from the gateway's health
        // report: the oracle is the very worker the proxy talks to,
        // nothing re-rendered.
        let home = handle.holders("planted").expect("planted is placed")[0];
        let health = deptree::serve::query(&cfg, "GET", "/healthz", None).expect("healthz");
        let workers = health
            .body
            .get("workers")
            .and_then(Json::as_arr)
            .expect("workers");
        let wcfg = ClientConfig {
            addr: workers[home]
                .str_field("addr")
                .expect("worker addr")
                .to_owned(),
            retries: 0,
            io_timeout: Duration::from_secs(30),
            ..ClientConfig::default()
        };

        // A deterministic success (cached by the worker, so replayed
        // byte-for-byte) and a deterministic error, as raw bytes; then a
        // batch on one dataset, which the worker never caches, equal up
        // to its wall-clock `elapsed_ms`.
        let detect = Json::obj().set("dataset", "planted").set("rule", "a -> b");
        let bad = Json::obj()
            .set("dataset", "planted")
            .set("timeout_ms", "banana");
        let batch = Json::obj().set("requests", vec![detect.clone().set("task", "detect")]);
        for (path, body) in [
            ("/v1/detect", &detect),
            ("/v1/discover", &bad),
            ("/v1/batch", &batch),
        ] {
            let body = body.render().into_bytes();
            let via_gateway = forward(&cfg, "POST", path, Some(&body)).expect("via gateway");
            let direct = forward(&wcfg, "POST", path, Some(&body)).expect("direct to worker");
            assert_eq!(via_gateway.status, direct.status, "{path}");
            if path == "/v1/batch" {
                assert_eq!(
                    timeless(&via_gateway.body),
                    timeless(&direct.body),
                    "{path}: gateway reply diverges from the worker's own"
                );
            } else {
                assert_eq!(
                    via_gateway.body, direct.body,
                    "{path}: gateway bytes diverge from the worker's own"
                );
            }
        }

        // A batch spanning two datasets would need a fan-out across
        // holders: refused whole.
        let mixed = Json::obj().set(
            "requests",
            vec![
                detect.clone().set("task", "detect"),
                Json::obj()
                    .set("task", "detect")
                    .set("dataset", "regions")
                    .set("rule", "city -> region"),
            ],
        );
        let err = deptree::serve::query(&cfg, "POST", "/v1/batch", Some(&mixed))
            .expect_err("a batch over two datasets must be refused");
        assert_eq!(err.code, ErrorCode::Unsupported, "{err}");

        // Discover through the gateway is the CLI's profile: on
        // `regions`, every FD into `region`; on the numeric table, the
        // same skipped FASTDC stage.
        for (name, path, types) in [
            ("regions", &regions, "c,c,c"),
            ("numeric", &numeric, "c,n,n,n"),
        ] {
            let cli = cli_stdout(&[
                "profile",
                &path.display().to_string(),
                "--types",
                types,
                "--max-lhs",
                "2",
                "--threads",
                &threads.to_string(),
            ]);
            let resp =
                deptree::serve::query(&cfg, "POST", "/v1/discover", Some(&discover_body(name)))
                    .expect("discover via gateway");
            assert_eq!(resp.body.bool_field("partial"), Some(false), "{name}");
            assert_eq!(
                resp.body.str_field("report").expect("report"),
                cli,
                "{name}: gateway report diverges from CLI stdout at {threads} thread(s)"
            );
            if name == "regions" {
                assert_eq!(
                    fds_of(&resp.body),
                    ["city -> region", "store -> city", "store -> region"]
                );
            }
        }

        handle.drain_and_join();
    }
    for path in [planted, regions, numeric] {
        let _ = std::fs::remove_file(&path);
    }
}

/// A three-worker gateway holding `csv` whole as `planted`: on its
/// home, one successor replica and the bare worker topped up as a spare.
/// `respawn_base` is the window a killed worker stays down for.
fn failover_fleet(csv: &std::path::Path, respawn_base: Duration) -> (GatewayHandle, ClientConfig) {
    let spec = DatasetSpec {
        name: "planted".to_owned(),
        path: csv.display().to_string(),
        types: None,
    };
    let config = GatewayConfig {
        replicas: 1,
        respawn_base,
        respawn_max: respawn_base * 3,
        ..gateway_config(vec![spec], 3)
    };
    let handle = spawn_gateway(config).expect("gateway");
    let cfg = gw_client(&handle);
    wait_workers_up(&cfg, 3);
    let holders = handle.holders("planted").expect("planted is placed");
    assert_eq!(holders.len(), 3, "{holders:?}");
    (handle, cfg)
}

/// A discover on a whole dataset answers 200, `partial: false`, with
/// exactly `want` — the in-process profile of the full table.
fn assert_whole(resp: &deptree::serve::Response, want: &str, when: &str) {
    assert_eq!(resp.status, 200, "{when}");
    assert_eq!(
        resp.body.bool_field("partial"),
        Some(false),
        "{when}: {}",
        resp.body.render()
    );
    assert_eq!(resp.body.str_field("report"), Some(want), "{when}");
}

/// Wait for the supervisor to respawn worker `slot` after `victim` died.
fn wait_respawn(handle: &GatewayHandle, slot: usize, victim: u32, within: Duration) {
    let deadline = Instant::now() + within;
    loop {
        let pids = handle.worker_pids();
        if handle.worker_restarts() >= 1 && matches!(pids[slot], Some(p) if p != victim) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "worker {slot} did not respawn within {within:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Every dataset lives whole on its holders, so a SIGKILL of the home
/// worker while discovers are in flight no longer degrades any answer:
/// each one fails over to another holder and stays the full profile.
/// The supervisor then respawns the worker and drain reaps the fleet.
#[test]
fn sigkill_mid_fanout_degrades_soundly_and_the_worker_respawns() {
    let full = planted_relation(400, 7);
    let csv = write_temp_csv("fanout", &full);
    // A respawn window far wider than the requests below take: every
    // answer inside it comes from another holder, not the respawn.
    let (handle, cfg) = failover_fleet(&csv, Duration::from_secs(3));
    let want = profile_report(&full);
    let body = discover_body("planted");
    assert_whole(
        &deptree::serve::query(&cfg, "POST", "/v1/discover", Some(&body)).expect("healthy"),
        &want,
        "healthy",
    );

    // Four clients issue discovers back to back; the kill lands in the
    // middle of their stream.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let addr = handle.addr().to_string();
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let cfg = ClientConfig {
                    addr,
                    retries: 0,
                    io_timeout: Duration::from_secs(30),
                    seed: i as u64,
                    ..ClientConfig::default()
                };
                let mut replies = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    replies.push(deptree::serve::query(
                        &cfg,
                        "POST",
                        "/v1/discover",
                        Some(&discover_body("planted")),
                    ));
                }
                replies
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    let home = handle.holders("planted").expect("planted is placed")[0];
    let victim = handle.worker_pids()[home].expect("home worker pid");
    assert!(signal::send(victim, 9), "SIGKILL the home worker");
    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for c in clients {
        let replies = c.join().expect("client thread");
        assert!(!replies.is_empty(), "a client never got an answer");
        for reply in replies {
            let resp = reply.expect("a discover during a worker fault must still answer");
            assert_whole(&resp, &want, "in flight around the kill");
        }
    }
    assert_eq!(
        handle.worker_restarts(),
        0,
        "the answers above must predate the respawn"
    );

    wait_respawn(&handle, home, victim, Duration::from_secs(20));
    wait_workers_up(&cfg, 3);
    assert_whole(
        &deptree::serve::query(&cfg, "POST", "/v1/discover", Some(&body)).expect("respawned"),
        &want,
        "after the respawn",
    );

    // Shutdown reaps the whole fleet — no zombies, no orphans.
    let last = handle.worker_pids();
    handle.drain_and_join();
    for pid in last.into_iter().flatten() {
        assert!(
            !signal::send(pid, 0),
            "worker {pid} survived drain_and_join"
        );
    }
    let _ = std::fs::remove_file(&csv);
}

/// With the home worker dead, its replica and the spare already hold
/// the whole dataset: reads fail over to byte-identical answers while
/// the placement stays exactly as it was — nothing is re-homed.
#[test]
fn replica_reads_cover_a_dead_primary_without_resharding() {
    let full = planted_relation(300, 13);
    let csv = write_temp_csv("replica", &full);
    let (handle, cfg) = failover_fleet(&csv, Duration::from_secs(3));
    let want = profile_report(&full);
    let body = discover_body("planted");
    let baseline =
        deptree::serve::query(&cfg, "POST", "/v1/discover", Some(&body)).expect("baseline");
    assert_whole(&baseline, &want, "healthy");

    let holders = handle
        .holders("planted")
        .expect("planted is placed")
        .to_vec();
    let victim = handle.worker_pids()[holders[0]].expect("home worker pid");
    assert!(signal::send(victim, 9), "SIGKILL the home worker");

    // The very first read after the kill already answers whole, and so
    // does every read after it inside the respawn window.
    for _ in 0..5 {
        let resp = deptree::serve::query(&cfg, "POST", "/v1/discover", Some(&body))
            .expect("discover during worker death");
        assert_whole(&resp, &want, "home dead");
        assert_eq!(
            timeless(resp.body.render().as_bytes()),
            timeless(baseline.body.render().as_bytes()),
            "replica reads must equal primary reads up to `elapsed_ms`"
        );
    }
    assert_eq!(handle.worker_restarts(), 0, "no respawn inside the window");
    assert_eq!(
        handle.holders("planted"),
        Some(holders.as_slice()),
        "a dead holder must not change the placement"
    );

    handle.drain_and_join();
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn a_crash_looping_worker_binary_is_quarantined_not_hot_looped() {
    let r = planted_relation(20, 5);
    let csv = write_temp_csv("quarantine", &r);
    let spec = DatasetSpec {
        name: "planted".to_owned(),
        path: csv.display().to_string(),
        types: None,
    };
    let config = GatewayConfig {
        worker_bin: PathBuf::from("false"), // exits 1 instantly, forever
        respawn_base: Duration::from_millis(10),
        respawn_max: Duration::from_millis(40),
        quarantine_after: 2,
        quarantine_cooldown: Duration::from_secs(120),
        ..gateway_config(vec![spec], 1)
    };
    let handle =
        spawn_gateway(config).expect("the gateway front must bind even when workers cannot run");
    let cfg = gw_client(&handle);

    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let health = deptree::serve::query(&cfg, "GET", "/healthz", None).expect("healthz");
        let quarantined = health.body.u64_field("quarantined").unwrap_or(0);
        let phase = health
            .body
            .get("workers")
            .and_then(Json::as_arr)
            .and_then(|w| w.first())
            .and_then(|w| w.str_field("phase"))
            .map(str::to_owned);
        if quarantined == 1 && phase.as_deref() == Some("quarantined") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "worker was never quarantined; last phase {phase:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Quarantine means the respawn churn actually stops...
    let restarts = handle.worker_restarts();
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        handle.worker_restarts(),
        restarts,
        "respawns continued during quarantine"
    );

    // ...and readiness says so instead of pretending.
    let err = deptree::serve::query(&cfg, "GET", "/readyz", None)
        .expect_err("readyz must refuse with no live workers");
    assert_eq!(err.code, ErrorCode::Overloaded, "{err}");

    handle.drain_and_join();
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn gateway_sigterm_drains_and_reaps_every_worker() {
    let r = planted_relation(40, 9);
    let csv = write_temp_csv("blackbox", &r);
    let data = format!("planted={}", csv.display());
    let (mut child, addr, stderr_reader) = spawn_binary(&[
        "gateway",
        "--data",
        &data,
        "--workers",
        "2",
        "--addr",
        "127.0.0.1:0",
    ]);
    let cfg = ClientConfig {
        addr,
        retries: 0,
        io_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    };
    wait_workers_up(&cfg, 2);

    // Worker pids, from the gateway's own health report.
    let health = deptree::serve::query(&cfg, "GET", "/healthz", None).expect("healthz");
    let pids: Vec<u64> = health
        .body
        .get("workers")
        .and_then(Json::as_arr)
        .expect("workers")
        .iter()
        .filter_map(|w| w.u64_field("pid"))
        .collect();
    assert_eq!(pids.len(), 2, "{}", health.body.render());

    // One real round trip through the proxy before the drain.
    let resp = deptree::serve::query(
        &cfg,
        "POST",
        "/v1/discover",
        Some(&discover_body("planted")),
    )
    .expect("discover via gateway");
    assert_eq!(resp.status, 200);

    assert!(sh(&format!("kill -TERM {}", child.id())));
    let status = wait_exit(&mut child, Duration::from_secs(15));
    assert!(status.success(), "gateway should exit 0, got {status:?}");

    // No zombies, no orphans: every worker pid is gone with the gateway.
    for pid in pids {
        assert!(
            !sh(&format!("kill -0 {pid}")),
            "worker {pid} outlived the gateway"
        );
    }
    let stderr = stderr_reader.join().expect("stderr reader");
    assert!(
        stderr.contains("drained; exiting"),
        "expected drain completion in stderr:\n{stderr}"
    );
    let _ = std::fs::remove_file(&csv);
}

/// The value of an unlabelled metric series in a Prometheus exposition.
fn metric_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// A wedged home worker — alive, but stopped by SIGSTOP — costs no
/// answer: a read stuck on it fails over to another holder once the
/// supervisor's failed `/readyz` probes declare the worker dead, and the
/// slot is respawned once, with the stopped process SIGKILLed and reaped.
#[test]
fn a_wedged_worker_is_probed_dead_reaped_and_respawned() {
    let full = planted_relation(240, 17);
    let csv = write_temp_csv("wedge", &full);
    let (handle, cfg) = failover_fleet(&csv, Duration::from_millis(200));
    let want = profile_report(&full);
    let body = discover_body("planted");
    let healthy =
        deptree::serve::query(&cfg, "POST", "/v1/discover", Some(&body)).expect("healthy");
    assert_whole(&healthy, &want, "healthy");

    let home = handle.holders("planted").expect("planted is placed")[0];
    let victim = handle.worker_pids()[home].expect("home worker pid");
    assert!(
        sh(&format!("kill -STOP {victim}")),
        "SIGSTOP the home worker"
    );
    for _ in 0..3 {
        let resp = deptree::serve::query(&cfg, "POST", "/v1/discover", Some(&body))
            .expect("a discover with the home worker wedged");
        assert_whole(&resp, &want, "home wedged");
        assert_eq!(
            timeless(resp.body.render().as_bytes()),
            timeless(healthy.body.render().as_bytes()),
            "reads around a wedged worker must equal the healthy read up to `elapsed_ms`"
        );
    }

    wait_respawn(&handle, home, victim, Duration::from_secs(30));
    assert_eq!(
        handle.worker_restarts_of(home),
        1,
        "one respawn of the wedged slot"
    );
    assert!(
        !signal::send(victim, 0),
        "the stopped worker {victim} was never reaped"
    );
    wait_workers_up(&cfg, 3);
    assert_whole(
        &deptree::serve::query(&cfg, "POST", "/v1/discover", Some(&body)).expect("respawned"),
        &want,
        "after the respawn",
    );

    handle.drain_and_join();
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn rolling_restart_cycles_every_worker_once_with_zero_dropped_requests() {
    let full = planted_relation(200, 19);
    let csv = write_temp_csv("rolling", &full);
    let spec = DatasetSpec {
        name: "planted".to_owned(),
        path: csv.display().to_string(),
        types: None,
    };
    let config = GatewayConfig {
        child_grace: Duration::from_secs(3),
        ..gateway_config(vec![spec], 3)
    };
    let handle = spawn_gateway(config).expect("gateway");
    let cfg = gw_client(&handle);
    wait_workers_up(&cfg, 3);

    // The gateway front refuses dataset admin: placement is fixed by
    // its flags.
    let blocked = forward(&cfg, "POST", "/admin/datasets", Some(b"{}")).expect("blocked admin");
    assert_eq!(blocked.status, 400, "dataset admin must be refused");

    // A continuous query loop across the whole restart: every answer
    // must be a whole 200 equal to the in-process profile — one slot at
    // a time, readyz-gated, with proxy failover covering the drained
    // slot, leaves no window to drop or degrade.
    let want = profile_report(&full);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let loop_stop = std::sync::Arc::clone(&stop);
    let loop_addr = handle.addr().to_string();
    let querier = std::thread::spawn(move || {
        let cfg = ClientConfig {
            addr: loop_addr,
            retries: 2,
            io_timeout: Duration::from_secs(30),
            ..ClientConfig::default()
        };
        let body = discover_body("planted");
        let (mut total, mut degraded) = (0u32, 0u32);
        let mut errors: Vec<String> = Vec::new();
        let mut min_up = u64::MAX;
        while !loop_stop.load(std::sync::atomic::Ordering::Acquire) {
            match deptree::serve::query(&cfg, "POST", "/v1/discover", Some(&body)) {
                Ok(resp) => {
                    total += 1;
                    if resp.status != 200
                        || resp.body.bool_field("partial") != Some(false)
                        || resp.body.str_field("report") != Some(want.as_str())
                    {
                        degraded += 1;
                    }
                }
                Err(e) => errors.push(e.to_string()),
            }
            if let Ok(h) = deptree::serve::query(&cfg, "GET", "/healthz", None) {
                let up = h
                    .body
                    .get("workers")
                    .and_then(Json::as_arr)
                    .map(|ws| {
                        ws.iter()
                            .filter(|w| w.str_field("state") == Some("up"))
                            .count() as u64
                    })
                    .unwrap_or(0);
                min_up = min_up.min(up);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        (total, degraded, errors, min_up)
    });

    // Kick the rolling restart through the public endpoint.
    let started = deptree::serve::query(&cfg, "POST", "/admin/reload", None).expect("reload");
    assert_eq!(started.status, 200);
    assert_eq!(started.body.str_field("reload"), Some("started"));

    // Every worker restarts exactly once, and the coordinator reports
    // itself done.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let done = (0..3).all(|i| handle.worker_restarts_of(i) == 1);
        let health = deptree::serve::query(&cfg, "GET", "/healthz", None).expect("healthz");
        if done && health.body.bool_field("reloading") == Some(false) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "rolling restart never completed: {}",
            health.body.render()
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    for i in 0..3 {
        assert_eq!(
            handle.worker_restarts_of(i),
            1,
            "worker {i} must restart exactly once"
        );
    }

    // Let the loop observe the settled fleet once more, then stop it.
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, std::sync::atomic::Ordering::Release);
    let (total, degraded, errors, min_up) = querier.join().expect("query loop");
    assert!(
        errors.is_empty(),
        "dropped requests during reload: {errors:?}"
    );
    assert_eq!(
        degraded, 0,
        "rolling restart must never degrade or change an answer ({degraded}/{total})"
    );
    assert!(total > 0, "the query loop never ran");
    assert!(
        min_up >= 2,
        "capacity dipped below N-1 during the rolling restart (min up = {min_up})"
    );

    handle.drain_and_join();
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn second_sigterm_during_drain_forces_exit_130() {
    let wide = wide_relation(18, 200, 7);
    let csv = write_temp_csv("force", &wide);
    let data = format!("wide={}", csv.display());
    let (mut child, addr, stderr_reader) = spawn_binary(&[
        "serve",
        "--data",
        &data,
        "--addr",
        "127.0.0.1:0",
        "--drain-grace-ms",
        "30000",
        "--max-timeout-ms",
        "60000",
    ]);
    let cfg = ClientConfig {
        addr,
        retries: 0,
        io_timeout: Duration::from_secs(60),
        ..ClientConfig::default()
    };
    let ready_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match deptree::serve::query(&cfg, "GET", "/readyz", None) {
            Ok(resp) if resp.status == 200 => break,
            _ if Instant::now() > ready_deadline => {
                let _ = child.kill();
                panic!("server never became ready within 10s");
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }

    // Park a slow discover in flight so the drain genuinely blocks.
    let slow_cfg = ClientConfig {
        frame_timeout: Duration::from_secs(60),
        ..cfg.clone()
    };
    let slow = std::thread::spawn(move || {
        let body = Json::obj()
            .set("dataset", "wide")
            .set("max_lhs", 8u64)
            .set("timeout_ms", 25_000u64);
        let _ = deptree::serve::query(&slow_cfg, "POST", "/v1/discover", Some(&body));
    });
    let busy_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = deptree::serve::query(&cfg, "GET", "/healthz", None).expect("healthz");
        if health.body.u64_field("inflight").unwrap_or(0) >= 1 {
            break;
        }
        assert!(
            Instant::now() < busy_deadline,
            "the slow discover never showed up in flight"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // First SIGTERM: the drain begins and blocks on the in-flight work.
    // Second SIGTERM: the operator (or a supervisor) has lost patience —
    // the contract is one explicit stderr line and exit 130, immediately.
    let pid = child.id();
    assert!(sh(&format!("kill -TERM {pid}")));
    std::thread::sleep(Duration::from_millis(300));
    assert!(sh(&format!("kill -TERM {pid}")));

    let status = wait_exit(&mut child, Duration::from_secs(10));
    assert_eq!(
        status.code(),
        Some(130),
        "want the forced-shutdown exit code, got {status:?}"
    );
    let stderr = stderr_reader.join().expect("stderr reader");
    assert!(
        stderr.contains("forced shutdown during drain"),
        "expected the forced-shutdown line in stderr:\n{stderr}"
    );
    let _ = slow.join();
    let _ = std::fs::remove_file(&csv);
}

// ---- keep-alive + response-cache suite ----------------------------------

/// Build one request frame. `connection: None` omits the header (HTTP/1.1
/// defaults to keep-alive).
fn frame(method: &str, path: &str, body: &[u8], connection: Option<&str>) -> Vec<u8> {
    let conn = connection.map_or(String::new(), |c| format!("Connection: {c}\r\n"));
    let mut f = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n{conn}\r\n",
        body.len()
    )
    .into_bytes();
    f.extend_from_slice(body);
    f
}

/// Read exactly one HTTP response frame off a socket (head through
/// `\r\n\r\n`, then `Content-Length` body bytes), leaving the connection
/// open for the next frame.
fn read_one_response(s: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let mut one = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        match s.read(&mut one) {
            Ok(1) => buf.push(one[0]),
            other => panic!(
                "socket closed mid-head after {} bytes: {other:?}",
                buf.len()
            ),
        }
    }
    let head = String::from_utf8_lossy(&buf).into_owned();
    let cl: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .map(|v| v.trim().parse().expect("content-length parses"))
        .unwrap_or(0);
    let mut body = vec![0u8; cl];
    s.read_exact(&mut body)
        .expect("whole declared body arrives");
    head + &String::from_utf8_lossy(&body)
}

fn body_text(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or_default()
}

#[test]
fn pipelined_requests_are_answered_in_order_on_one_connection() {
    let handle = start(ServeConfig {
        keepalive_idle: Duration::from_millis(150),
        ..test_config()
    });

    // Two distinguishable requests in one write: a detect on a known
    // dataset, then a detect on an unknown one. In-order framing is
    // observable from the statuses and the `task`/`error` bodies.
    let mut pipelined = frame(
        "POST",
        "/v1/detect",
        br#"{"dataset":"hotels","rule":"address -> region"}"#,
        None,
    );
    pipelined.extend(frame(
        "POST",
        "/v1/detect",
        br#"{"dataset":"nope","rule":"a -> b"}"#,
        None,
    ));
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    s.write_all(&pipelined).expect("send both frames");

    let r1 = read_one_response(&mut s);
    let r2 = read_one_response(&mut s);
    assert!(r1.starts_with("HTTP/1.1 200"), "first reply: {r1:?}");
    assert!(r1.contains("Connection: keep-alive"), "{r1:?}");
    assert_eq!(body_of(&r1).str_field("task"), Some("detect"));
    assert!(r2.starts_with("HTTP/1.1 404"), "second reply: {r2:?}");
    assert_eq!(error_code_of(&r2), "not_found");

    // The connection still serves a third, non-pipelined request.
    s.write_all(&frame("GET", "/healthz", b"", Some("close")))
        .expect("third request");
    let r3 = read_one_response(&mut s);
    assert!(r3.starts_with("HTTP/1.1 200"), "third reply: {r3:?}");
    assert!(r3.contains("Connection: close"), "{r3:?}");
    stop(handle);
}

#[test]
fn frame_clock_resets_per_request_on_a_reused_connection() {
    let handle = start(ServeConfig {
        read_timeout: Duration::from_millis(500),
        frame_timeout: Duration::from_millis(1_000),
        keepalive_idle: Duration::from_millis(2_500),
        ..test_config()
    });
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    // Request 1 answers fast and keeps the connection.
    s.write_all(&frame("GET", "/healthz", b"", None))
        .expect("send");
    let r1 = read_one_response(&mut s);
    assert!(r1.starts_with("HTTP/1.1 200"), "{r1:?}");

    // Idle longer than the whole frame budget, within the idle window:
    // request 2 must still answer 200 — its FrameClock starts when its
    // bytes do, not when the connection was accepted.
    std::thread::sleep(Duration::from_millis(1_200));
    s.write_all(&frame("GET", "/healthz", b"", None))
        .expect("send after idle");
    let r2 = read_one_response(&mut s);
    assert!(
        r2.starts_with("HTTP/1.1 200"),
        "second request on a reused connection must get a fresh frame budget: {r2:?}"
    );

    // Request 3 stalls mid-head past the budget: 408, then close — the
    // slow frame kills only itself, never the already-shipped replies.
    s.write_all(b"GET /healthz HT").expect("send partial head");
    let r3 = read_one_response(&mut s);
    assert!(r3.starts_with("HTTP/1.1 408"), "{r3:?}");
    assert!(r3.contains("Connection: close"), "{r3:?}");
    let mut rest = Vec::new();
    let eof = s.read_to_end(&mut rest);
    assert!(
        matches!(eof, Ok(0)),
        "server must close after the 408: {eof:?} {rest:?}"
    );
    stop(handle);
}

#[test]
fn mid_stream_disconnects_on_reused_connections_leak_nothing() {
    let handle = start(ServeConfig {
        keepalive_idle: Duration::from_millis(100),
        ..test_config()
    });

    // Repeatedly: one good request, then vanish mid-way through the
    // second frame. Every cycle must fully release its admission slot
    // and its in-flight accounting.
    for _ in 0..20 {
        let mut s = TcpStream::connect(handle.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        s.write_all(&frame("GET", "/healthz", b"", None))
            .expect("send");
        let r = read_one_response(&mut s);
        assert!(r.starts_with("HTTP/1.1 200"), "{r:?}");
        s.write_all(b"POST /v1/detect HTTP/1.1\r\nContent-Le")
            .expect("send partial second frame");
        drop(s); // abrupt disconnect mid-frame
    }

    // The server still serves, and nothing is stuck in flight.
    let resp = deptree::serve::query(&client(&handle), "GET", "/healthz", None)
        .expect("healthz after disconnect churn");
    assert_eq!(resp.status, 200);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, text) =
            deptree::serve::fetch_text(&client(&handle), "/metrics").expect("scrape");
        assert_eq!(status, 200);
        // The gauge brackets respond() for every request, so the scrape
        // always counts itself: a clean server reads exactly 1 here.
        if metric_value(&text, "deptree_inflight_requests") == Some(1.0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "inflight gauge never returned to 0:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    stop(handle);
}

#[test]
fn drain_closes_reused_connections_after_the_in_flight_reply() {
    let handle = start(ServeConfig {
        datasets: vec![("wide".to_owned(), wide_relation(18, 200, 7))],
        ..test_config()
    });

    // A slow discover on a keep-alive connection, in flight when the
    // drain begins.
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    s.write_all(&frame(
        "POST",
        "/v1/discover",
        br#"{"dataset":"wide","max_lhs":8,"timeout_ms":20000}"#,
        None,
    ))
    .expect("send slow discover");
    let mut waited = 0;
    while handle.drain_state().inflight() == 0 && waited < 5_000 {
        std::thread::sleep(Duration::from_millis(5));
        waited += 5;
    }
    assert!(
        handle.drain_state().inflight() > 0,
        "slow request never started"
    );

    let drainer = {
        let state = std::sync::Arc::clone(handle.drain_state());
        std::thread::spawn(move || {
            deptree::serve::drain::run_drain(&state, Duration::from_millis(500))
        })
    };

    // The in-flight reply still ships — as a sound partial once the
    // grace expires — but on a connection the drain flips to close: no
    // keep-alive may survive into shutdown.
    let r = read_one_response(&mut s);
    assert!(r.starts_with("HTTP/1.1 200"), "{r:?}");
    assert!(
        r.contains("Connection: close"),
        "a reply shipped during drain must close the connection: {r:?}"
    );
    assert_eq!(body_of(&r).bool_field("partial"), Some(true));
    let mut rest = Vec::new();
    let eof = s.read_to_end(&mut rest);
    assert!(
        matches!(eof, Ok(0)),
        "no further frames after drain: {eof:?}"
    );

    drainer.join().expect("drain coordinator must not panic");
    handle.join();
}

#[test]
fn cached_replies_are_byte_identical_and_die_with_their_dataset_version() {
    let handle = start(ServeConfig {
        response_cache_bytes: 1 << 20,
        keepalive_idle: Duration::from_millis(150),
        ..test_config()
    });
    let detect = frame(
        "POST",
        "/v1/detect",
        br#"{"dataset":"hotels","rule":"address -> region"}"#,
        None,
    );

    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    s.write_all(&detect).expect("send");
    let first = read_one_response(&mut s);
    assert!(first.starts_with("HTTP/1.1 200"), "{first:?}");
    s.write_all(&detect).expect("send again");
    let second = read_one_response(&mut s);
    assert_eq!(
        body_text(&first),
        body_text(&second),
        "a cache hit must replay the populating reply byte-for-byte"
    );

    // Replace the dataset: the version bump makes every prior entry
    // unreachable, so the same request is recomputed against the new
    // data — observably different bytes, not a stale replay.
    let admin = frame(
        "POST",
        "/admin/datasets",
        br#"{"name":"hotels","csv":"address,region\na1,r1\na1,r2\n","types":"c,c"}"#,
        None,
    );
    s.write_all(&admin).expect("send admin replace");
    let replaced = read_one_response(&mut s);
    assert!(replaced.starts_with("HTTP/1.1 200"), "{replaced:?}");
    s.write_all(&detect).expect("send after replace");
    let third = read_one_response(&mut s);
    assert!(third.starts_with("HTTP/1.1 200"), "{third:?}");
    assert_ne!(
        body_text(&first),
        body_text(&third),
        "a dataset mutation must invalidate its cached replies"
    );
    stop(handle);
}

#[test]
fn content_length_smuggling_attempts_are_rejected() {
    let handle = start(ServeConfig {
        keepalive_idle: Duration::from_millis(100),
        ..test_config()
    });

    // A signed length, two agreeing lengths, and two conflicting
    // lengths: every one is the classic request-smuggling ambiguity, and
    // every one must die as 400 before any body byte is interpreted.
    let attempts: [&[u8]; 3] = [
        b"POST /v1/detect HTTP/1.1\r\nContent-Length: +5\r\n\r\nAAAAA",
        b"POST /v1/detect HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nAAAAA",
        b"POST /v1/detect HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 45\r\n\r\nAAGET /smuggled HTTP/1.1\r\nHost: t\r\n\r\n",
    ];
    for attempt in attempts {
        let resp = raw(&handle, attempt);
        assert!(
            resp.starts_with("HTTP/1.1 400"),
            "smuggling attempt must be rejected outright: {:?} -> {resp:?}",
            String::from_utf8_lossy(attempt)
        );
        assert_eq!(error_code_of(&resp), "bad_request");
        assert!(
            resp.contains("Connection: close"),
            "an unparseable frame must not leave the connection open: {resp:?}"
        );
    }

    // The server is unharmed.
    let resp = deptree::serve::query(&client(&handle), "GET", "/healthz", None)
        .expect("healthz after smuggling attempts");
    assert_eq!(resp.status, 200);
    stop(handle);
}
