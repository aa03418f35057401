//! The fleet under test: two `Server::bind` replicas behind one
//! `Gateway::start`, default configuration apart from the workload's
//! store directories, plus the scratch directories their stores use.

use crate::check::Case;
use crate::drive::{populate, Caller, Recorder};
use crate::workload::{CLIENTS, REPLICAS};
use partree_gateway::{Gateway, GatewayConfig, GatewaySnapshot};
use partree_service::client::Client;
use partree_service::frame::Response;
use partree_service::{MetricsSnapshot, Server, Service, ServiceConfig};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where a run keeps its scratch files, relative to the working
/// directory (the checkout root); ignored by git.
pub const RUN_DIR: &str = ".perfbench";

/// A per-process scratch directory for tier-1 stores, removed with
/// everything in it when dropped.
pub struct TmpRoot {
    path: PathBuf,
    next: AtomicU64,
}

impl TmpRoot {
    pub fn create() -> std::io::Result<TmpRoot> {
        let path = Path::new(RUN_DIR)
            .join("tmp")
            .join(format!("{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TmpRoot {
            path,
            next: AtomicU64::new(0),
        })
    }

    /// A new, not yet existing directory under the root.
    pub fn fresh_dir(&self, label: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.path.join(format!("{label}-{n}"))
    }
}

impl Drop for TmpRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave `.perfbench/tmp` only if another run is still using it.
        let _ = self.path.parent().map(std::fs::remove_dir);
    }
}

/// The replicas' configuration: the defaults, with the tier-1 store
/// (if any) in `store_dir`.
pub fn replica_config(store_dir: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        store_dir,
        ..ServiceConfig::default()
    }
}

pub struct Fleet {
    pub servers: Vec<Server>,
    pub gateway: Gateway,
}

impl Fleet {
    /// Binds the replicas on loopback and starts the gateway over them.
    pub fn start(store_backed: bool, tmp: &TmpRoot) -> std::io::Result<Fleet> {
        let servers = start_servers(store_backed, tmp)?;
        let addrs = servers.iter().map(Server::addr).collect();
        let gateway = Gateway::start(GatewayConfig::new(addrs));
        Ok(Fleet { servers, gateway })
    }

    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(Server::addr).collect()
    }

    /// Set-up: every replica answers every populate case directly.
    pub fn populate(&self, cases: &[Case], idxs: &[u32]) -> Result<(), String> {
        let direct = clients(&self.addrs())?;
        populate(
            direct
                .into_iter()
                .map(|mut c| move |case: &Case| c.request(&case.request))
                .collect(),
            cases,
            idxs,
        )
    }

    /// One `Gateway::request` caller per client thread.
    pub fn callers(&self) -> Vec<GatewayCaller<'_>> {
        (0..CLIENTS).map(|_| GatewayCaller(&self.gateway)).collect()
    }

    pub fn counters(&self) -> Counters {
        Counters {
            replicas: self.servers.iter().map(|s| s.service().metrics()).collect(),
            gateway: self.gateway.snapshot(),
        }
    }

    pub fn shutdown(self) {
        self.gateway.shutdown();
        for s in self.servers {
            let _ = s.shutdown();
        }
    }
}

pub struct GatewayCaller<'a>(&'a Gateway);

impl Caller for GatewayCaller<'_> {
    fn call(&mut self, case: &Case, _: &mut Recorder) -> io::Result<Response> {
        self.0.request(&case.request)
    }
}

/// One blocking client per address.
pub fn clients(addrs: &[std::net::SocketAddr]) -> Result<Vec<Client>, String> {
    addrs
        .iter()
        .map(|&a| Client::connect(a).map_err(|e| format!("connect {a}: {e}")))
        .collect()
}

/// `REPLICAS` services, each behind its own loopback server.
pub fn start_servers(store_backed: bool, tmp: &TmpRoot) -> std::io::Result<Vec<Server>> {
    start_services(store_backed, tmp)
        .into_iter()
        .map(|svc| Server::bind(svc, "127.0.0.1:0"))
        .collect()
}

/// `REPLICAS` services with the replicas' configuration.
pub fn start_services(store_backed: bool, tmp: &TmpRoot) -> Vec<Service> {
    (0..REPLICAS)
        .map(|r| {
            let dir = store_backed.then(|| tmp.fresh_dir(&format!("replica{r}")));
            Service::start(replica_config(dir))
        })
        .collect()
}

/// Counters of one fleet at one moment.
pub struct Counters {
    replicas: Vec<MetricsSnapshot>,
    gateway: GatewaySnapshot,
}

/// Counters read before and after a measured phase.
pub struct Deltas {
    pub before: Counters,
    pub after: Counters,
}

impl Deltas {
    /// `f(after) - f(before)`, summed over the replicas.
    pub fn replicas(&self, f: fn(&MetricsSnapshot) -> u64) -> u64 {
        self.before
            .replicas
            .iter()
            .zip(&self.after.replicas)
            .map(|(b, a)| f(a) - f(b))
            .sum()
    }

    /// `f(after) - f(before)` on the gateway.
    pub fn gateway(&self, f: fn(&GatewaySnapshot) -> u64) -> u64 {
        f(&self.after.gateway) - f(&self.before.gateway)
    }
}
