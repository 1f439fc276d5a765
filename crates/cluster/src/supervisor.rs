//! Cluster lifecycle: spawn N worker shards + one router, respawn
//! crashed shards warm, propagate drain, reap everything.
//!
//! The supervisor owns the process tree behind `ltspc serve --cluster N`:
//!
//! - Shard `i` listens on `router_port + 1 + i` on the router's host and
//!   gets `--persist DIR/shard-i.log` when a persist directory is
//!   configured, so its cache log survives both crashes and restarts.
//! - A crashed shard (any premature exit, including the `shardkill`
//!   fault site's code 113) is respawned at the same address up to
//!   `max_respawns` times — same address and same ring index, so the
//!   replayed persist log still covers exactly the key slice the ring
//!   routes to it. The router rides out the gap via failover and its
//!   dead-shard cooldown.
//! - Drain propagates: a client `shutdown` (or SIGTERM) reaching the
//!   router broadcasts shutdown to every shard; the supervisor then
//!   waits for the children, escalating to `kill()` only past a
//!   generous deadline.

use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ltsp_server::client::Client;

use crate::router::{spawn_router, RouterConfig};

/// Configuration for a supervised cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Router settings; `router.addr` must carry an explicit port —
    /// shard ports are derived from it. `router.shard_addrs` and
    /// `router.respawns` are filled in by [`run_cluster`].
    pub router: RouterConfig,
    /// Number of worker shards.
    pub shards: usize,
    /// Worker executable (normally the current `ltspc` binary).
    pub worker_exe: PathBuf,
    /// Arguments before the per-shard `--addr`/`--persist` flags, e.g.
    /// `["serve", "--jobs", "2"]`.
    pub worker_args: Vec<String>,
    /// Directory for per-shard persistent cache logs (`shard-i.log`);
    /// created if missing. `None` disables the disk tier.
    pub persist_dir: Option<PathBuf>,
    /// Respawn budget per shard; past it a crashing shard stays down
    /// (the router keeps failing over around it).
    pub max_respawns: u32,
    /// How long to wait for a (re)spawned shard to accept connections.
    pub startup_timeout: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            router: RouterConfig::default(),
            shards: 3,
            worker_exe: PathBuf::from("ltspc"),
            worker_args: vec!["serve".to_string()],
            persist_dir: None,
            max_respawns: 50,
            startup_timeout: Duration::from_secs(10),
        }
    }
}

/// Splits `host:port` with an explicit nonzero port (shard ports are
/// `port + 1 + i`, so "pick me a port" can't work here).
fn split_addr(addr: &str) -> std::io::Result<(String, u16)> {
    let (host, port) = addr
        .rsplit_once(':')
        .ok_or_else(|| std::io::Error::other(format!("cluster addr {addr:?} needs host:port")))?;
    let port: u16 = port
        .parse()
        .map_err(|_| std::io::Error::other(format!("cluster addr {addr:?}: bad port")))?;
    if port == 0 {
        return Err(std::io::Error::other(
            "cluster addr needs an explicit port (shard ports are derived from it)",
        ));
    }
    Ok((host.to_string(), port))
}

fn spawn_worker(cfg: &ClusterConfig, shard: usize, addr: &str) -> std::io::Result<Child> {
    let mut cmd = Command::new(&cfg.worker_exe);
    cmd.args(&cfg.worker_args).arg("--addr").arg(addr);
    if let Some(dir) = &cfg.persist_dir {
        cmd.arg("--persist")
            .arg(dir.join(format!("shard-{shard}.log")));
    }
    cmd.stdin(Stdio::null());
    cmd.spawn()
}

/// Polls until `addr` accepts a TCP connection or the timeout passes.
fn wait_for_listener(addr: &str, timeout: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        let ok = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut it| it.next())
            .and_then(|sa| TcpStream::connect_timeout(&sa, Duration::from_millis(250)).ok())
            .is_some();
        if ok {
            return true;
        }
        thread::sleep(Duration::from_millis(50));
    }
    false
}

/// Runs a full cluster in the foreground: spawns the shards, runs the
/// router until it drains (client `shutdown` or signal), then reaps the
/// workers. Returns once everything has stopped.
///
/// # Errors
///
/// Fails if the router address is unusable, a persist directory can't
/// be created, a worker can't be spawned, or a shard never starts
/// listening within `startup_timeout`.
pub fn run_cluster(mut cfg: ClusterConfig) -> std::io::Result<()> {
    let shards = cfg.shards.max(1);
    let (host, port) = split_addr(&cfg.router.addr)?;
    let shard_addrs: Vec<String> = (0..shards)
        .map(|i| format!("{host}:{}", port as u32 + 1 + i as u32))
        .collect();
    if let Some(dir) = &cfg.persist_dir {
        std::fs::create_dir_all(dir)?;
    }

    let mut children: Vec<Option<Child>> = Vec::with_capacity(shards);
    for (i, addr) in shard_addrs.iter().enumerate() {
        let child = spawn_worker(&cfg, i, addr)?;
        children.push(Some(child));
    }
    for (i, addr) in shard_addrs.iter().enumerate() {
        if !wait_for_listener(addr, cfg.startup_timeout) {
            for c in children.iter_mut().flatten() {
                let _ = c.kill();
            }
            return Err(std::io::Error::other(format!(
                "shard {i} never started listening on {addr}"
            )));
        }
    }

    let respawns: Arc<Vec<AtomicU64>> = Arc::new((0..shards).map(|_| AtomicU64::new(0)).collect());
    cfg.router.shard_addrs = shard_addrs.clone();
    cfg.router.respawns = Some(Arc::clone(&respawns));
    let router = spawn_router(cfg.router.clone())?;
    eprintln!(
        "ltspc: cluster up — router {} over {} shard(s) [{}]",
        router.addr(),
        shards,
        shard_addrs.join(", ")
    );

    // Monitor: reap crashed shards and respawn them warm until the
    // router starts draining.
    while !router.is_finished() {
        thread::sleep(Duration::from_millis(100));
        for (i, slot) in children.iter_mut().enumerate() {
            let Some(child) = slot else { continue };
            match child.try_wait() {
                Ok(Some(status)) => {
                    if router.draining() {
                        *slot = None;
                        continue;
                    }
                    let spawned = respawns[i].load(Ordering::Relaxed);
                    if spawned >= u64::from(cfg.max_respawns) {
                        eprintln!(
                            "ltspc: shard {i} exited ({status}) past respawn budget — leaving down"
                        );
                        *slot = None;
                        continue;
                    }
                    respawns[i].fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "ltspc: shard {i} exited ({status}) — respawning on {} (respawn #{})",
                        shard_addrs[i],
                        spawned + 1
                    );
                    match spawn_worker(&cfg, i, &shard_addrs[i]) {
                        Ok(c) => {
                            wait_for_listener(&shard_addrs[i], cfg.startup_timeout);
                            *slot = Some(c);
                        }
                        Err(e) => {
                            eprintln!("ltspc: cannot respawn shard {i}: {e}");
                            *slot = None;
                        }
                    }
                }
                Ok(None) => {}
                Err(_) => *slot = None,
            }
        }
    }

    // Router drained. Make sure every surviving shard drains too (the
    // router already broadcast on the shutdown/signal path; this covers
    // handle-initiated drains and races), then reap with a deadline.
    for addr in &shard_addrs {
        if let Ok(mut c) = Client::connect(addr, Some(Duration::from_secs(2))) {
            let _ = c.shutdown("ltspc-cluster-drain");
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    for (i, slot) in children.iter_mut().enumerate() {
        let Some(child) = slot else { continue };
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(50)),
                _ => {
                    eprintln!("ltspc: shard {i} ignored drain — killing");
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
    }
    eprintln!("ltspc: cluster stopped");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_addr_requires_explicit_port() {
        assert_eq!(
            split_addr("127.0.0.1:7199").unwrap(),
            ("127.0.0.1".to_string(), 7199)
        );
        assert!(split_addr("127.0.0.1:0").is_err());
        assert!(split_addr("nocolon").is_err());
        assert!(split_addr("host:notaport").is_err());
    }
}
