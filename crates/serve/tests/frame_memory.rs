//! A frame's buffer grows only as its bytes arrive: 32 connections that
//! each send nothing but a length prefix declaring `MAX_FRAME_BYTES` leave
//! the resident set within a few megabytes of where it was. A server that
//! allocated each declared payload as soon as its prefix arrived would
//! hold 32 MiB for them.
//!
//! Linux only (it reads `VmRSS` from `/proc/self/status`), and a test
//! binary of its own, so no other test shares the process's memory.
#![cfg(target_os = "linux")]

use enf_serve::{
    read_frame, reply_is_ok, write_frame, Op, Request, ServerConfig, ServerHandle, MAX_FRAME_BYTES,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap()
}

fn ping(server: &ServerHandle) {
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
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut conn, &ping).unwrap();
    let reply = read_frame(&mut conn).unwrap().unwrap();
    assert!(reply_is_ok(&reply), "{reply:?}");
}

#[test]
fn prefix_only_connections_hold_no_declared_payload() {
    let server = ServerHandle::spawn(ServerConfig::default()).unwrap();
    ping(&server);
    let before = vm_rss_kb();
    let prefix = (MAX_FRAME_BYTES as u32).to_be_bytes();
    let conns: Vec<TcpStream> = (0..32)
        .map(|_| {
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            conn.write_all(&prefix).unwrap();
            conn.write_all(b"{\"op\": ").unwrap();
            conn
        })
        .collect();
    // Each connection's thread reads its prefix at once; give all of them
    // many poll intervals to do so.
    std::thread::sleep(Duration::from_millis(500));
    let after = vm_rss_kb();
    // The server still answers while the 32 frames wait.
    ping(&server);
    drop(conns);
    server.stop();
    assert!(
        after <= before + 8 * 1024,
        "VmRSS grew from {before} kB to {after} kB for 32 prefix-only connections"
    );
}
