//! `dftmc-serve` — a dependency-free HTTP front end over the shared model
//! store.  See the crate docs ([`dftmc_serve`]) for the endpoint table.
//!
//! ```text
//! dftmc-serve --addr 127.0.0.1:7171 --store /var/cache/dftmc
//! ```
//!
//! Point several processes (on one machine or a shared filesystem) at the
//! same `--store` directory and they form a fleet: the first to analyze a
//! tree pays for aggregation, every other process loads the closed model
//! from disk (`aggregation_runs == 0`).

use dftmc_serve::server::{Server, ServerOptions};
use std::io::Write;
use std::time::Duration;

const USAGE: &str = "\
dftmc-serve: HTTP front end for the DFT analysis service

USAGE:
  dftmc-serve [OPTIONS]

OPTIONS:
  --addr ADDR          bind address (default 127.0.0.1:7171; port 0 = OS-chosen)
  --store DIR          shared model store directory (fleet mode)
  --workers N          analysis worker threads (default: available parallelism)
  --http-threads N     HTTP connection threads (default 4)
  --queue-depth N      accepted connections waiting for a thread (default 64)
  --max-jobs N         in-flight jobs before 429 (default 256)
  --max-done N         finished reports retained for GET /result (default 1024)
  --max-body BYTES     request body limit (default 1048576)
  --read-timeout SECS  per-connection socket timeout (default 10)
  --help               print this help
";

fn fail(message: &str) -> ! {
    eprintln!("dftmc-serve: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> ServerOptions {
    let mut options = ServerOptions {
        addr: "127.0.0.1:7171".to_owned(),
        ..ServerOptions::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        let Some(value) = args.next() else {
            fail(&format!("flag {flag} needs a value"));
        };
        match flag.as_str() {
            "--addr" => options.addr = value,
            "--store" => options.service = options.service.clone().store(value),
            "--workers" => options.service.workers = parse_count(&flag, &value),
            "--http-threads" => options.http_threads = parse_count(&flag, &value),
            "--queue-depth" => options.queue_depth = parse_count(&flag, &value),
            "--max-jobs" => options.max_jobs = parse_count(&flag, &value),
            "--max-done" => options.max_done = parse_count(&flag, &value),
            "--max-body" => options.limits.max_body_bytes = parse_count(&flag, &value),
            "--read-timeout" => {
                options.limits.read_timeout =
                    Duration::from_secs(parse_count(&flag, &value) as u64);
            }
            _ => fail(&format!("unknown flag {flag}")),
        }
    }
    options
}

fn parse_count(flag: &str, value: &str) -> usize {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => fail(&format!("{flag} wants a positive integer, got {value:?}")),
    }
}

fn main() {
    let options = parse_args();
    let server = match Server::start(options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("dftmc-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    // The smoke harness parses this line to learn an OS-chosen port; keep the
    // format stable and flush past any pipe buffering.
    println!("dftmc-serve listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();

    let drained = server.join();
    println!("dftmc-serve: graceful shutdown, drained {drained} in-flight job(s)");
}
