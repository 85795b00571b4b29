//! The shard-worker process: one [`ShardWorker`] served over TCP until a
//! `Shutdown` request arrives.
//!
//! ```text
//! shard_worker [--listen ADDR]
//! ```
//!
//! `--listen` defaults to `127.0.0.1:0` (an OS-assigned port). The
//! bound address is announced on stdout as `LISTENING <addr>` so a
//! supervisor — or the multi-process smoke test — can scrape it. The
//! worker keeps nothing on disk: a restarted worker comes back blank and
//! the coordinator re-seeds it from its router records.

use std::net::TcpListener;

use cij_dist::{tcp, ShardWorker};

fn parse_args() -> Result<String, String> {
    let mut listen = "127.0.0.1:0".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next().ok_or("--listen needs an address")?,
            "--help" | "-h" => return Err("usage: shard_worker [--listen ADDR]".into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(listen)
}

fn main() {
    let listen = match parse_args() {
        Ok(l) => l,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    match listener.local_addr() {
        Ok(addr) => {
            // The supervisor contract: announce the bound address.
            println!("LISTENING {addr}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("cannot read bound address: {e}");
            std::process::exit(1);
        }
    }

    if let Err(e) = tcp::serve(&listener, &mut ShardWorker::ephemeral()) {
        eprintln!("serve loop failed: {e}");
        std::process::exit(1);
    }
}
