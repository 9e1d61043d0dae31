//! The spin-then-park policy at the evented I/O shard, seen from
//! outside: a slowly-paced client teaches the shard to park at once,
//! an idle `locktune-server` process burns no CPU, and a shard that
//! *is* spinning still fires its lock-wait timers on time. In its own
//! test binary so the timing assertions compete with nothing else for
//! the host's two vCPUs.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use locktune_lockmgr::{LockMode, ResourceId, TableId};
use locktune_net::{Client, ClientError, IoModel, Server, ServerConfig};
use locktune_service::{LockService, ServiceConfig, ServiceError};

/// An evented server with a single I/O shard, so every connection —
/// and every counter — lands on shard 0.
fn one_shard_server(timeout: Option<Duration>) -> (Server, String) {
    let service = LockService::start(ServiceConfig {
        lock_wait_timeout: timeout,
        ..ServiceConfig::fast(2)
    })
    .expect("service start");
    let config = ServerConfig {
        io_model: IoModel::Evented,
        io_shards: 1,
        ..ServerConfig::default()
    };
    let server =
        Server::bind_with_config(Arc::new(service), "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// Shard 0's (spin_hits, parks).
fn shard_waits(control: &mut Client) -> (u64, u64) {
    let snap = control.metrics(0, 0).expect("metrics scrape");
    let shard = snap.io_shards.first().expect("evented server has shards");
    (shard.spin_hits, shard.parks)
}

/// Requests arriving far apart (≥ 500 µs against a 50 µs spin) are
/// never caught by a probe: the shard blocks directly, one park per
/// request, and its one-in-64 spins miss.
#[test]
fn a_slowly_paced_client_teaches_the_shard_to_park() {
    const PINGS: u64 = 200;
    let (server, addr) = one_shard_server(None);
    let mut control = Client::connect(&addr).unwrap();
    let mut paced = Client::connect(&addr).unwrap();

    let (hits0, parks0) = shard_waits(&mut control);
    for _ in 0..PINGS {
        std::thread::sleep(Duration::from_micros(500));
        paced.ping(Vec::new()).unwrap();
    }
    let (hits1, parks1) = shard_waits(&mut control);
    let (hits, parks) = (hits1 - hits0, parks1 - parks0);

    // Every request ended one readiness wait; nearly all of them were
    // parks. The allowance covers the two scrapes and a one-in-64 spin
    // that got lucky (a hit arms the spin for eight more waits).
    assert!(hits + parks >= PINGS, "{hits} hits + {parks} parks");
    assert!(
        hits <= 12,
        "a paced client must not be spun for: {hits} hits"
    );
    assert!(parks >= PINGS - 12, "parks {parks} of {PINGS} requests");

    // The client side of the same policy counts every reply wait.
    let waits = paced.reply_wait_stats();
    assert_eq!(waits.spin_hits + waits.parks, PINGS);
    server.shutdown();
}

/// A 20 ms lock-wait timeout fires between 20 and 40 ms even while a
/// second connection keeps the shard inside its spin window: the spin
/// is bounded by the timer heap, and timers are checked on every turn
/// of the loop, not only after a blocking wait.
#[test]
fn a_spinning_shard_still_fires_lock_wait_timers_on_time() {
    const TIMEOUT: Duration = Duration::from_millis(20);
    let (server, addr) = one_shard_server(Some(TIMEOUT));
    let res = ResourceId::Table(TableId(5));
    let mut control = Client::connect(&addr).unwrap();
    let mut holder = Client::connect(&addr).unwrap();
    holder.lock(res, LockMode::X).unwrap();

    // Back-to-back pings: the shard earns its spin within 64 waits, and
    // from then on the next request always lands inside the spin that
    // follows the previous reply.
    let stop = Arc::new(AtomicBool::new(false));
    let pinger = std::thread::spawn({
        let (addr, stop) = (addr.clone(), Arc::clone(&stop));
        move || {
            let mut c = Client::connect(&addr).unwrap();
            while !stop.load(Ordering::Acquire) {
                c.ping(Vec::new()).unwrap();
            }
        }
    });

    let mut waiter = Client::connect(&addr).unwrap();
    // The lower bound holds on every attempt; the upper one is allowed
    // two retries, because the host may deschedule this thread.
    let mut on_time = false;
    for _ in 0..3 {
        let (hits0, _) = shard_waits(&mut control);
        let t0 = Instant::now();
        let result = waiter.lock(res, LockMode::X);
        let waited = t0.elapsed();
        let (hits1, _) = shard_waits(&mut control);
        assert!(
            matches!(result, Err(ClientError::Service(ServiceError::Timeout))),
            "expected a lock-wait timeout, got {result:?}"
        );
        assert!(waited >= TIMEOUT, "timed out early: {waited:?}");
        // (On a host with a single core the shard never earns its
        // spin; only its one-in-64 probes can hit there.)
        assert!(
            hits1 > hits0,
            "the shard never probed during the wait: {hits0} -> {hits1} hits"
        );
        if waited < 2 * TIMEOUT {
            on_time = true;
            break;
        }
    }
    assert!(on_time, "timeout fired late on three attempts in a row");

    stop.store(true, Ordering::Release);
    pinger.join().unwrap();
    holder.unlock_all().unwrap();
    server.shutdown();
}

/// CPU seconds (user + system) process `pid` has used so far, from
/// `/proc/<pid>/stat` fields 14 and 15.
fn cpu_seconds(pid: u32) -> f64 {
    extern "C" {
        fn sysconf(name: std::os::raw::c_int) -> std::os::raw::c_long;
    }
    const SC_CLK_TCK: std::os::raw::c_int = 2;
    // SAFETY: sysconf has no preconditions.
    let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) } as f64;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| fields[field - 3].parse::<u64>().expect("tick count") as f64;
    (ticks(14) + ticks(15)) / ticks_per_s
}

/// Kills the server process even if an assertion unwinds first.
struct ServerProcess(Child);

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The guard that the policy learns "never": a real `locktune-server`
/// holding one idle connection and one that pings every 25 ms uses
/// under 2 % of one core over three seconds. A shard that kept
/// spinning between those pings would use a whole one.
#[test]
fn an_idle_server_burns_no_cpu() {
    const WINDOW: Duration = Duration::from_secs(3);
    const PACE: Duration = Duration::from_millis(25);
    let mut child = Command::new(env!("CARGO_BIN_EXE_locktune-server"))
        .args(["--addr", "127.0.0.1:0", "--io-model", "evented"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("start locktune-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let server = ServerProcess(child);
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("server banner");
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in server banner {banner:?}"))
        .to_string();

    let _idle = Client::connect(&addr).expect("idle connection");
    let mut pinger = Client::connect(&addr).expect("pinging connection");
    pinger.ping(Vec::new()).unwrap();

    // The kernel accounts CPU in 10 ms ticks, three of which are half
    // the budget: a window that reads over is measured again, twice at
    // most. A server that really spins fails all three.
    let mut report = String::new();
    for _ in 0..3 {
        let cpu0 = cpu_seconds(server.0.id());
        let t0 = Instant::now();
        let mut pings = 0u64;
        while t0.elapsed() < WINDOW {
            std::thread::sleep(PACE);
            pinger.ping(Vec::new()).unwrap();
            pings += 1;
        }
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_seconds(server.0.id()) - cpu0;
        report = format!(
            "idle server used {:.0} ms of CPU in {wall:.2} s ({:.2} % of a core, {pings} pings)",
            cpu * 1e3,
            100.0 * cpu / wall
        );
        // Shown under `--nocapture`, which is how CI runs this test.
        println!("{report}");
        assert!(pings >= 50, "the pinger was starved: {pings} pings");
        if cpu <= 0.02 * wall {
            return;
        }
    }
    panic!("{report}");
}
