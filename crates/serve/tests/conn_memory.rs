//! Fresh connections leave nothing behind: the server keeps no state for a
//! connection that has closed, so 10 000 sequential one-ping connections
//! leave the resident set within a fixed margin of what 100 leave.
//!
//! Linux only (it reads `VmRSS` from `/proc/self/status`), and a test
//! binary of its own, so no other test shares the process's memory.
#![cfg(target_os = "linux")]

use enf_serve::{read_frame, reply_is_ok, write_frame, Op, Request, ServerConfig, ServerHandle};
use std::net::TcpStream;

fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap()
}

#[test]
fn sequential_fresh_connections_do_not_grow_the_resident_set() {
    let server = ServerHandle::spawn(ServerConfig::default()).unwrap();
    let ping = Request {
        op: Op::Ping,
        tenant: "default".to_string(),
        job: String::new(),
        program: String::new(),
        allow: enf_serve::parse_allow("").unwrap(),
        input: vec![],
        span: 0,
        deadline_ms: None,
        budget: None,
        block: 64,
        fuel: 0,
        chaos: None,
    }
    .to_json();
    let mut after_100 = 0;
    for i in 1..=10_000 {
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut conn, &ping).unwrap();
        let reply = read_frame(&mut conn).unwrap().unwrap();
        assert!(reply_is_ok(&reply), "ping {i}: {reply:?}");
        if i == 100 {
            after_100 = vm_rss_kb();
        }
    }
    let after_all = vm_rss_kb();
    let stats = server.stop();
    assert_eq!(stats.served, 10_000);
    assert!(
        after_all <= after_100 + 4 * 1024,
        "VmRSS grew from {after_100} kB after 100 pings to {after_all} kB after 10 000"
    );
}
