//! The resident daemon (`hoyan::core::serve`): protocol round-trips on an
//! ephemeral port, byte-identical responses across worker counts,
//! admission control (an over-budget request is quarantined while a
//! concurrent well-behaved one completes; connections beyond the bounded
//! queue are rejected with `retry_after_ms`), `whatif` pushes reflected by
//! subsequent `reach` answers, and structured errors for malformed lines.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use hoyan::config::parse_config;
use hoyan::core::{render_reach_response, ServeOptions, Server, Verifier};
use hoyan::device::VsbProfile;
use hoyan::nettypes::Ipv4Prefix;
use hoyan::rt::json::{parse as json_parse, Value};
use hoyan::topogen::{Wan, WanSpec};

fn tiny() -> Wan {
    WanSpec::tiny(7).build()
}

fn opts(workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        sweep_threads: 2,
        ..ServeOptions::default()
    }
}

/// Binds a server on an ephemeral port, runs `f` against it, then sends
/// `shutdown` and joins the daemon. Test closures must NOT send their own
/// `shutdown`. Panic-safe: if `f` fails (or the protocol shutdown is
/// rejected by a saturated daemon), the out-of-band `request_shutdown`
/// still drains the scope so the failure surfaces instead of hanging.
fn with_server<F: FnOnce(SocketAddr)>(wan: &Wan, o: ServeOptions, f: F) {
    with_daemon(&wan.configs, o, |_, addr| f(addr))
}

/// [`with_server`] over any configs, with the daemon itself in reach of
/// `f` (for its test accessors).
fn with_daemon<F: FnOnce(&Server, SocketAddr)>(
    configs: &[hoyan::config::DeviceConfig],
    o: ServeOptions,
    f: F,
) {
    let server = Server::bind(configs.to_vec(), "127.0.0.1:0", o).expect("bind");
    let addr = server.local_addr();
    std::thread::scope(|s| {
        let daemon = s.spawn(|| server.run());
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&server, addr)));
        let mut drained = false;
        for _ in 0..200 {
            match try_request(addr, r#"{"kind":"shutdown"}"#) {
                Some(resp) if resp.contains("\"kind\":\"shutdown\"") => {
                    drained = true;
                    break;
                }
                // Rejected (`overloaded`) or raced a dying worker: retry.
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        if !drained {
            server.request_shutdown();
        }
        daemon.join().expect("daemon thread");
        if let Err(p) = outcome {
            std::panic::resume_unwind(p);
        }
        assert!(drained, "protocol shutdown never accepted");
    });
}

/// One best-effort request round-trip; `None` on any I/O failure.
fn try_request(addr: SocketAddr, line: &str) -> Option<String> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
    s.set_nodelay(true).ok()?;
    s.write_all(format!("{line}\n").as_bytes()).ok()?;
    s.flush().ok()?;
    let mut out = String::new();
    BufReader::new(s).read_line(&mut out).ok()?;
    Some(out)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        s.set_nodelay(true).unwrap();
        Client {
            reader: BufReader::new(s.try_clone().expect("clone")),
            writer: s,
        }
    }

    /// One request line, one response line. A single write per request —
    /// a split `line` + `"\n"` pair trips Nagle/delayed-ACK stalls.
    fn send(&mut self, line: &str) -> String {
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("write");
        self.writer.flush().expect("flush");
        self.read_line()
    }

    fn read_line(&mut self) -> String {
        let mut out = String::new();
        self.reader.read_line(&mut out).expect("read");
        assert!(!out.is_empty(), "daemon disconnected");
        out.trim_end().to_string()
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("no `{key}` in {v}"))
}

/// The wire line a `reach` cache hit must produce, computed independently
/// from a fresh one-shot sweep of `configs`.
fn expected_reach_line(
    configs: &[hoyan::config::DeviceConfig],
    id: &str,
    prefix: Ipv4Prefix,
    device: &str,
    k: u32,
) -> String {
    let v = Verifier::new(configs.to_vec(), VsbProfile::ground_truth, Some(k.max(3))).expect("build");
    let report = v
        .verify_all_routes(k, 2)
        .expect("sweep")
        .reports
        .into_iter()
        .find(|r| r.prefix == prefix)
        .expect("prefix swept");
    let node = v.net.topology.node(device).expect("device");
    let reachable = report.scope.contains(&node);
    let resilient = reachable && !report.fragile.contains(&node);
    let id_val = Value::Str(id.to_string());
    render_reach_response(Some(&id_val), prefix, device, k, reachable, resilient, "cache")
        .to_string()
}

#[test]
fn protocol_round_trip_on_ephemeral_port() {
    let wan = tiny();
    let (prefix, dc, pe) = wan.prefix_origin[0].clone();
    with_server(&wan, opts(2), |addr| {
        let mut c = Client::connect(addr);

        // A cached reach answer must be byte-identical to what a fresh
        // one-shot sweep reports for the same prefix/device.
        let line = c.send(&format!(
            r#"{{"id":"q1","kind":"reach","prefix":"{prefix}","device":"{pe}"}}"#
        ));
        assert_eq!(line, expected_reach_line(&wan.configs, "q1", prefix, &pe, 1));

        let line = c.send(&format!(
            r#"{{"id":"q2","kind":"equiv","a":"{dc}","b":"{dc}"}}"#
        ));
        let v = json_parse(&line).expect("json");
        assert_eq!(field(&v, "ok"), &Value::Bool(true), "{line}");
        assert_eq!(field(&v, "equivalent"), &Value::Bool(true), "{line}");

        let line = c.send(r#"{"id":"q3","kind":"stats"}"#);
        let v = json_parse(&line).expect("json");
        assert_eq!(field(&v, "kind"), &Value::Str("stats".into()), "{line}");
        assert_eq!(field(&v, "requests"), &Value::Num(3.0), "{line}");
        assert_eq!(field(&v, "cache_hits"), &Value::Num(1.0), "{line}");
        assert_eq!(field(&v, "rejected"), &Value::Num(0.0), "{line}");

        // Unknown kinds and unknown devices are structured errors.
        let line = c.send(r#"{"kind":"frobnicate"}"#);
        let v = json_parse(&line).expect("json");
        assert_eq!(field(&v, "ok"), &Value::Bool(false), "{line}");
        assert_eq!(field(&v, "error"), &Value::Str("bad_request".into()));
        let line = c.send(&format!(
            r#"{{"kind":"reach","prefix":"{prefix}","device":"NOPE"}}"#
        ));
        let v = json_parse(&line).expect("json");
        assert_eq!(field(&v, "error"), &Value::Str("unknown_device".into()));
    });
}

#[test]
fn responses_byte_identical_across_worker_counts() {
    let wan = tiny();
    let (prefix, dc, _) = wan.prefix_origin[0].clone();
    let script = [
        format!(r#"{{"id":"a","kind":"reach","prefix":"{prefix}","device":"{dc}"}}"#),
        // k above the cache's k: a fresh budgeted simulation.
        format!(r#"{{"id":"b","kind":"reach","prefix":"{prefix}","device":"{dc}","k":2}}"#),
        "{not json".to_string(),
        format!(r#"{{"id":"c","kind":"equiv","a":"{dc}","b":"{dc}"}}"#),
        r#"{"id":"d","kind":"stats"}"#.to_string(),
    ];
    let mut transcripts: Vec<Vec<String>> = Vec::new();
    for workers in [1usize, 2, 8] {
        let mut lines = Vec::new();
        with_server(&wan, opts(workers), |addr| {
            let mut c = Client::connect(addr);
            for req in &script {
                lines.push(c.send(req));
            }
        });
        transcripts.push(lines);
    }
    assert_eq!(transcripts[0], transcripts[1], "1 vs 2 workers");
    assert_eq!(transcripts[0], transcripts[2], "1 vs 8 workers");
}

#[test]
fn over_budget_request_is_quarantined_while_concurrent_request_completes() {
    let wan = tiny();
    let (prefix, dc, _) = wan.prefix_origin[0].clone();
    with_server(&wan, opts(2), |addr| {
        std::thread::scope(|s| {
            let hostile = s.spawn(|| {
                let mut c = Client::connect(addr);
                // k=2 forces the simulation path; one ITE op of budget
                // trips immediately. The request must be answered (not
                // dropped) and the connection must survive it.
                let line = c.send(&format!(
                    r#"{{"id":"h","kind":"reach","prefix":"{prefix}","device":"{dc}","k":2,"budget_ops":1}}"#
                ));
                let v = json_parse(&line).expect("json");
                assert_eq!(field(&v, "ok"), &Value::Bool(false), "{line}");
                assert_eq!(field(&v, "error"), &Value::Str("over_budget".into()), "{line}");
                // Same connection, same worker: a well-behaved request
                // still gets a real answer afterwards.
                let line = c.send(&format!(
                    r#"{{"id":"h2","kind":"reach","prefix":"{prefix}","device":"{dc}"}}"#
                ));
                let v = json_parse(&line).expect("json");
                assert_eq!(field(&v, "ok"), &Value::Bool(true), "{line}");
            });
            let polite = s.spawn(|| {
                let mut c = Client::connect(addr);
                let line = c.send(&format!(
                    r#"{{"id":"p","kind":"reach","prefix":"{prefix}","device":"{dc}"}}"#
                ));
                let v = json_parse(&line).expect("json");
                assert_eq!(field(&v, "ok"), &Value::Bool(true), "{line}");
                assert_eq!(field(&v, "source"), &Value::Str("cache".into()), "{line}");
            });
            hostile.join().expect("hostile client");
            polite.join().expect("polite client");
        });
    });
}

#[test]
fn config_push_then_reach_reflects_delta() {
    let wan = tiny();
    let (_, dc, _) = wan.prefix_origin[0].clone();
    let new_prefix: Ipv4Prefix = "198.51.100.0/24".parse().unwrap();
    // The push: the DC edge additionally announces 198.51.100.0/24.
    let dc_idx = wan
        .configs
        .iter()
        .position(|c| c.hostname == dc)
        .expect("dc config");
    let at = wan.texts[dc_idx].find("  network ").expect("network stanza");
    let mut pushed = wan.texts[dc_idx].clone();
    pushed.insert_str(at, &format!("  network {new_prefix}\n"));

    with_server(&wan, opts(2), |addr| {
        let mut c = Client::connect(addr);
        // Before the push the prefix is unknown: the miss-path simulation
        // finds nobody announcing it.
        let line = c.send(&format!(
            r#"{{"id":"w0","kind":"reach","prefix":"{new_prefix}","device":"{dc}"}}"#
        ));
        let v = json_parse(&line).expect("json");
        assert_eq!(field(&v, "reachable_now"), &Value::Bool(false), "{line}");
        assert_eq!(field(&v, "source"), &Value::Str("sim".into()), "{line}");

        let req = Value::Obj(vec![
            ("id".into(), Value::Str("w1".into())),
            ("kind".into(), Value::Str("whatif".into())),
            ("configs".into(), Value::Arr(vec![Value::Str(pushed.clone())])),
        ]);
        let line = c.send(&req.to_string());
        let v = json_parse(&line).expect("json");
        assert_eq!(field(&v, "ok"), &Value::Bool(true), "{line}");
        assert_eq!(field(&v, "devices_changed"), &Value::Num(1.0), "{line}");
        let dirty = field(&v, "dirty").as_f64().expect("dirty") as u64;
        let reused = field(&v, "reused").as_f64().expect("reused") as u64;
        assert!(dirty >= 1, "the new family must be dirty: {line}");
        assert!(reused >= 1, "untouched families must be reused: {line}");
        assert_eq!(field(&v, "quarantined"), &Value::Num(0.0), "{line}");

        // After the push, the answer comes from the refreshed cache and is
        // byte-identical to a fresh one-shot sweep of the updated configs.
        let mut updated = wan.configs.clone();
        updated[dc_idx] = parse_config(&pushed).expect("pushed config parses");
        let line = c.send(&format!(
            r#"{{"id":"w2","kind":"reach","prefix":"{new_prefix}","device":"{dc}"}}"#
        ));
        assert_eq!(
            line,
            expected_reach_line(&updated, "w2", new_prefix, &dc, 1),
            "post-push reach must match a fresh sweep of the updated configs"
        );
    });
}

#[test]
fn malformed_json_line_gets_structured_error_not_disconnect() {
    let wan = tiny();
    with_server(&wan, opts(2), |addr| {
        let mut c = Client::connect(addr);
        for bad in ["{oops", "[1,2", "hello", "{\"kind\":\"reach\"} trailing"] {
            let line = c.send(bad);
            let v = json_parse(&line).expect("json");
            assert_eq!(field(&v, "ok"), &Value::Bool(false), "{line}");
            assert_eq!(field(&v, "error"), &Value::Str("parse".into()), "{line}");
        }
        // The connection survived all four malformed lines.
        let line = c.send(r#"{"kind":"stats"}"#);
        let v = json_parse(&line).expect("json");
        assert_eq!(field(&v, "ok"), &Value::Bool(true), "{line}");
        assert_eq!(field(&v, "malformed"), &Value::Num(4.0), "{line}");
    });
}

#[test]
fn connection_beyond_bounded_queue_is_rejected_with_retry_after() {
    let wan = tiny();
    let o = ServeOptions {
        workers: 1,
        queue_cap: 0,
        sweep_threads: 2,
        ..ServeOptions::default()
    };
    with_server(&wan, o, |addr| {
        // The round-trip guarantees the single worker owns this
        // connection before the second one arrives.
        let mut holder = Client::connect(addr);
        let line = holder.send(r#"{"kind":"stats"}"#);
        assert!(line.contains("\"ok\":true"), "{line}");

        let mut rejected = Client::connect(addr);
        let line = rejected.read_line();
        let v = json_parse(&line).expect("json");
        assert_eq!(field(&v, "ok"), &Value::Bool(false), "{line}");
        assert_eq!(field(&v, "error"), &Value::Str("overloaded".into()), "{line}");
        assert_eq!(field(&v, "retry_after_ms"), &Value::Num(100.0), "{line}");
        // `holder` drops here, freeing the worker for the shutdown.
    });
}

/// The rejection backoff is not a constant: it scales with the waiting
/// backlog (`floor * (1 + waiting/workers)`), so a client bounced off a
/// deep queue backs off longer than one bounced off a full-but-shallow
/// one, and `stats` reports the advisory value a rejection would carry
/// *right now*.
#[test]
fn retry_after_scales_with_queue_depth() {
    let wan = tiny();
    let o = ServeOptions {
        workers: 1,
        queue_cap: 2,
        sweep_threads: 2,
        ..ServeOptions::default()
    };
    with_server(&wan, o, |addr| {
        // Round-trip first so the single worker provably owns `holder`.
        let mut holder = Client::connect(addr);
        let line = holder.send(r#"{"kind":"stats"}"#);
        assert!(line.contains("\"ok\":true"), "{line}");

        // Two more connections fill the wait queue. They get no ack on
        // admission, so give the acceptor a beat to enqueue each before
        // the next arrives — ordering is what the assertions below pin.
        let mut w1 = Client::connect(addr);
        std::thread::sleep(Duration::from_millis(100));
        let _w2 = Client::connect(addr);
        std::thread::sleep(Duration::from_millis(100));

        // Third extra connection: two already waiting on one worker, so
        // the advisory backoff is 100ms * (1 + 2/1) = 300ms, not the flat
        // floor the old daemon always quoted.
        let mut rejected = Client::connect(addr);
        let line = rejected.read_line();
        let v = json_parse(&line).expect("json");
        assert_eq!(field(&v, "ok"), &Value::Bool(false), "{line}");
        assert_eq!(field(&v, "error"), &Value::Str("overloaded".into()), "{line}");
        assert_eq!(field(&v, "retry_after_ms"), &Value::Num(300.0), "{line}");

        // Queue the request on the first waiter, then free the worker: it
        // pops `w1` (FIFO) while `w2` still waits, so the stats snapshot
        // must quote 100ms * (1 + 1/1) = 200ms.
        w1.writer.write_all(b"{\"kind\":\"stats\"}\n").expect("write");
        w1.writer.flush().expect("flush");
        drop(holder);
        let line = w1.read_line();
        let v = json_parse(&line).expect("json");
        assert_eq!(field(&v, "ok"), &Value::Bool(true), "{line}");
        assert_eq!(field(&v, "retry_after_ms"), &Value::Num(200.0), "{line}");
        // `w1`/`w2` drop here; the freed worker then drains the shutdown.
    });
}

#[test]
fn serve_cli_smoke_ephemeral_port_and_clean_drain() {
    let dir = std::env::temp_dir().join(format!("hoyan-serve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hoyan"))
        .args(["gen", dir.to_str().unwrap(), "--size", "tiny", "--seed", "7"])
        .output()
        .expect("gen");
    assert!(out.status.success());

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_hoyan"))
        .args(["serve", dir.to_str().unwrap(), "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner");
    let addr: SocketAddr = banner
        .rsplit("listening on ")
        .next()
        .expect("listening banner")
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("bad banner: {banner}"));

    let mut c = Client::connect(addr);
    let line = c.send(r#"{"id":"s","kind":"stats"}"#);
    assert!(line.contains("\"ok\":true"), "{line}");
    let line = c.send(r#"{"kind":"shutdown"}"#);
    assert!(line.contains("\"kind\":\"shutdown\""), "{line}");

    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve must drain cleanly: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `reach` reply computed independently: a direct family simulation at
/// failure budget `k` on `v`, rendered as the daemon renders a miss.
fn direct_reach_line(v: &Verifier, id: &str, prefix: Ipv4Prefix, device: &str, k: u32) -> String {
    let mut sim = v.simulate(prefix, Some(k)).expect("simulate");
    let node = v.net.topology.node(device).expect("device");
    let cond = sim.reach_cond(node, prefix);
    let reachable = sim.mgr.eval(cond, &[]);
    let resilient = sim.mgr.min_failures_to_falsify(cond) > k;
    let id_val = Value::Str(id.to_string());
    render_reach_response(Some(&id_val), prefix, device, k, reachable, resilient, "sim").to_string()
}

fn reach_req(id: &str, prefix: Ipv4Prefix, device: &str, k: Option<u32>) -> String {
    match k {
        Some(k) => format!(
            r#"{{"id":"{id}","kind":"reach","prefix":"{prefix}","device":"{device}","k":{k}}}"#
        ),
        None => format!(r#"{{"id":"{id}","kind":"reach","prefix":"{prefix}","device":"{device}"}}"#),
    }
}

fn whatif_req(texts: &[String]) -> String {
    Value::Obj(vec![
        ("kind".into(), Value::Str("whatif".into())),
        (
            "configs".into(),
            Value::Arr(texts.iter().cloned().map(Value::Str).collect()),
        ),
    ])
    .to_string()
}

/// `wan`'s configs with `host`'s text edited by `edit`: the pushed text and
/// the configs a fresh daemon would load.
fn edited(
    wan: &Wan,
    host: &str,
    edit: impl Fn(&str) -> String,
) -> (String, Vec<hoyan::config::DeviceConfig>) {
    let at = wan
        .configs
        .iter()
        .position(|c| c.hostname == host)
        .expect("host config");
    let text = edit(&wan.texts[at]);
    assert_ne!(text, wan.texts[at], "the edit must change {host}");
    let mut configs = wan.configs.clone();
    configs[at] = parse_config(&text).expect("edited config parses");
    (text, configs)
}

fn hostnames(wan: &Wan) -> Vec<String> {
    wan.configs.iter().map(|c| c.hostname.clone()).collect()
}

#[test]
fn off_cache_reach_uses_a_database_built_at_or_above_its_budget() {
    let wan = tiny();
    let devices = hostnames(&wan);
    with_daemon(&wan.configs, opts(2), |server, addr| {
        assert!(server.isis_db(1).is_some(), "the bind builds the cache's budget");
        assert!(server.isis_db(2).is_none());
        let mut c = Client::connect(addr);
        // k=2 and k=4 have no resident database at or above them and build
        // one; k=3 is then answered from the budget-4 one.
        for k in [2u32, 4, 3] {
            let direct = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(k))
                .expect("build");
            for (prefix, _, _) in &wan.prefix_origin {
                for d in &devices {
                    let line = c.send(&reach_req("m", *prefix, d, Some(k)));
                    assert_eq!(line, direct_reach_line(&direct, "m", *prefix, d, k), "k={k}");
                }
            }
        }
        assert!(server.isis_db(2).is_some() && server.isis_db(4).is_some());
        assert!(server.isis_db(3).is_none(), "k=3 must reuse the budget-4 database");
    });
}

#[test]
fn an_on_demand_database_is_built_under_the_request_budget() {
    let wan = tiny();
    let (prefix, _, pe) = wan.prefix_origin[0].clone();
    let links = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(0))
        .expect("build")
        .net
        .topology
        .link_count() as u32;
    let far = links + 10;
    with_daemon(&wan.configs, opts(2), |server, addr| {
        let mut c = Client::connect(addr);
        // A budget the new database cannot fit: a deadline already spent,
        // or a single BDD operation. Each is a structured error, and the
        // breach leaves nothing resident.
        for budget in [r#""deadline_ms":0"#, r#""budget_ops":1"#] {
            let line = c.send(&format!(
                r#"{{"id":"x","kind":"reach","prefix":"{prefix}","device":"{pe}","k":{far},{budget}}}"#
            ));
            let v = json_parse(&line).expect("json");
            assert_eq!(field(&v, "error"), &Value::Str("over_budget".into()), "{line}");
            assert!(server.isis_db(links).is_none() && server.isis_db(far).is_none());
        }
        // The daemon keeps answering: a hit, then the same miss without a
        // budget, from a database capped at the link count.
        let line = c.send(&reach_req("h", prefix, &pe, None));
        assert_eq!(line, expected_reach_line(&wan.configs, "h", prefix, &pe, 1));
        let direct = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(far))
            .expect("build");
        let line = c.send(&reach_req("m", prefix, &pe, Some(far)));
        assert_eq!(line, direct_reach_line(&direct, "m", prefix, &pe, far));
        assert!(server.isis_db(links).is_some() && server.isis_db(far).is_none());
    });
}

#[test]
fn equiv_answers_at_the_cli_budget() {
    let wan = tiny();
    let v3 = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).expect("build");
    let pairs = [
        ("CR0x0", "CR0x1"),
        ("CR0x0", "PE0x0"),
        ("PE0x0", "PE1x0"),
        ("DC0x0", "DC1x0"),
        ("MAN0x0", "MAN1x0"),
    ];
    with_daemon(&wan.configs, opts(2), |server, addr| {
        let mut c = Client::connect(addr);
        for (a, b) in pairs {
            let line = c.send(&format!(r#"{{"kind":"equiv","a":"{a}","b":"{b}"}}"#));
            let v = json_parse(&line).expect("json");
            let want = v3.role_equivalence(a, b).expect("equiv");
            assert_eq!(field(&v, "equivalent"), &Value::Bool(want.equivalent), "{line}");
            let first = match want.first_difference {
                Some(p) => Value::Str(p.to_string()),
                None => Value::Null,
            };
            assert_eq!(field(&v, "first_difference"), &first, "{line}");
        }
        assert!(server.isis_db(3).is_some());
    });
}

#[test]
fn a_push_that_leaves_the_igp_alone_keeps_every_database() {
    let wan = tiny();
    let (prefix, dc, pe) = wan.prefix_origin[0].clone();
    let new_prefix: Ipv4Prefix = "198.51.100.0/24".parse().unwrap();
    let (pushed, updated) = edited(&wan, &dc, |t| t.replacen(
        "  network ",
        &format!("  network {new_prefix}\n  network "),
        1,
    ));
    with_daemon(&wan.configs, opts(2), |server, addr| {
        let mut c = Client::connect(addr);
        // A k=2 miss makes a second database resident.
        c.send(&reach_req("m", prefix, &pe, Some(2)));
        let (db1, db2) = (server.isis_db(1).unwrap(), server.isis_db(2).unwrap());
        let line = c.send(&whatif_req(&[pushed]));
        assert!(line.contains("\"ok\":true"), "{line}");
        assert!(Arc::ptr_eq(&db1, &server.isis_db(1).unwrap()), "budget 1 rebuilt");
        assert!(Arc::ptr_eq(&db2, &server.isis_db(2).unwrap()), "budget 2 rebuilt");
        // Answers after the push are those of the pushed configs.
        let v2 = Verifier::new(updated.clone(), VsbProfile::ground_truth, Some(2)).expect("build");
        for d in hostnames(&wan) {
            let line = c.send(&reach_req("h", new_prefix, &d, None));
            assert_eq!(line, expected_reach_line(&updated, "h", new_prefix, &d, 1));
            let line = c.send(&reach_req("m", new_prefix, &d, Some(2)));
            assert_eq!(line, direct_reach_line(&v2, "m", new_prefix, &d, 2));
        }
    });
}

#[test]
fn a_push_that_touches_an_igp_input_rebuilds_and_answers_like_a_fresh_bind() {
    let wan = tiny();
    let devices = hostnames(&wan);
    // The script both daemons answer: every cached and every k=2 reach,
    // and one equiv (not `stats`: its counters tell the daemons apart).
    let script = |addr: SocketAddr| -> Vec<String> {
        let mut c = Client::connect(addr);
        let mut lines = Vec::new();
        for (prefix, _, _) in &wan.prefix_origin {
            for d in &devices {
                lines.push(c.send(&reach_req("h", *prefix, d, None)));
                lines.push(c.send(&reach_req("m", *prefix, d, Some(2))));
            }
        }
        lines.push(c.send(r#"{"kind":"equiv","a":"CR0x0","b":"CR0x1"}"#));
        lines
    };
    // An IGP metric (`igp_affecting`), and a router id: a policy-class
    // edit to the diff, but the last tie-break of equal-cost IGP routes.
    let edits = [
        ("metric", "link-metric 20\n", "link-metric 23\n"),
        ("router id", "router-id 1\n", "router-id 77\n"),
    ];
    for (what, from, to) in edits {
        let (pushed, updated) = edited(&wan, "CR0x0", |t| t.replacen(from, to, 1));
        let mut after_push = Vec::new();
        with_daemon(&wan.configs, opts(2), |server, addr| {
            let mut c = Client::connect(addr);
            let (prefix, _, pe) = &wan.prefix_origin[0];
            c.send(&reach_req("m", *prefix, pe, Some(2)));
            let db1 = server.isis_db(1).unwrap();
            assert!(server.isis_db(2).is_some());
            let line = c.send(&whatif_req(&[pushed]));
            assert!(line.contains("\"ok\":true"), "{what}: {line}");
            assert!(!Arc::ptr_eq(&db1, &server.isis_db(1).unwrap()), "{what}: not rebuilt");
            assert!(server.isis_db(2).is_none(), "{what}: budget 2 must be dropped");
            after_push = script(addr);
        });
        let mut fresh = Vec::new();
        with_daemon(&updated, opts(2), |_, addr| fresh = script(addr));
        assert_eq!(after_push, fresh, "{what}");
    }
}

#[test]
fn a_reader_beside_five_pushes_sees_one_snapshot_per_reply() {
    let wan = tiny();
    let (_, dc, pe) = wan.prefix_origin[0].clone();
    let added: Vec<Ipv4Prefix> = (0..5)
        .map(|j| format!("198.51.{}.0/24", 100 + j).parse().unwrap())
        .collect();
    // Snapshot i announces the first i added prefixes; push i moves the
    // daemon from snapshot i-1 to snapshot i.
    let snapshots: Vec<(String, Vec<hoyan::config::DeviceConfig>)> = (0..=added.len())
        .map(|i| {
            let networks: String = added[..i].iter().map(|p| format!("  network {p}\n")).collect();
            if i == 0 {
                let at = wan.configs.iter().position(|c| c.hostname == dc).unwrap();
                return (wan.texts[at].clone(), wan.configs.clone());
            }
            edited(&wan, &dc, |t| t.replacen("  network ", &format!("{networks}  network "), 1))
        })
        .collect();
    // expected[i][(j, k)]: the reply to `reach added[j] at pe` under
    // snapshot i, at the cache's budget (None) and at k=2.
    let asks: Vec<(usize, Option<u32>)> = (0..added.len())
        .flat_map(|j| [(j, None), (j, Some(2))])
        .collect();
    let expected: Vec<Vec<String>> = snapshots
        .iter()
        .enumerate()
        .map(|(i, (_, configs))| {
            let v2 = Verifier::new(configs.clone(), VsbProfile::ground_truth, Some(2)).unwrap();
            let v1 = Verifier::new(configs.clone(), VsbProfile::ground_truth, Some(1)).unwrap();
            asks.iter()
                .map(|&(j, k)| match k {
                    // Announced: a cache hit. Not yet: a miss that finds
                    // nobody announcing it.
                    None if j < i => expected_reach_line(configs, "r", added[j], &pe, 1),
                    None => direct_reach_line(&v1, "r", added[j], &pe, 1),
                    Some(k) => direct_reach_line(&v2, "r", added[j], &pe, k),
                })
                .collect()
        })
        .collect();
    // The miss rendering differs from a hit only in `source`; make sure
    // the replies tell the snapshots apart at all.
    for j in 0..added.len() {
        assert_ne!(expected[j][2 * j], expected[j + 1][2 * j]);
    }
    with_daemon(&wan.configs, opts(2), |server, addr| {
        let db1 = server.isis_db(1).unwrap();
        let pushing = std::sync::atomic::AtomicBool::new(true);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut c = Client::connect(addr);
                // The snapshot index the daemon can have reached so far:
                // replies on one connection never go back in time.
                let mut floor = 0usize;
                let mut replies = 0usize;
                let mut last_pass = false;
                loop {
                    for (a, (j, k)) in asks.iter().enumerate() {
                        let line = c.send(&reach_req("r", added[*j], &pe, *k));
                        let at = (floor..expected.len()).find(|&i| expected[i][a] == line);
                        let Some(i) = at else {
                            panic!("reply matches no snapshot from {floor} on: {line}");
                        };
                        floor = i;
                        replies += 1;
                    }
                    if last_pass {
                        break;
                    }
                    last_pass = !pushing.load(std::sync::atomic::Ordering::Acquire);
                }
                (floor, replies)
            });
            let mut w = Client::connect(addr);
            for (i, (text, _)) in snapshots.iter().enumerate().skip(1) {
                let line = w.send(&whatif_req(std::slice::from_ref(text)));
                assert!(line.contains("\"ok\":true"), "push {i}: {line}");
            }
            pushing.store(false, std::sync::atomic::Ordering::Release);
            let (floor, replies) = reader.join().expect("reader");
            assert_eq!(floor, added.len(), "the last pass must see the last snapshot");
            assert!(replies > asks.len());
        });
        assert!(
            Arc::ptr_eq(&db1, &server.isis_db(1).unwrap()),
            "five local pushes must carry the database forward"
        );
    });
}
